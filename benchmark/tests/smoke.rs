//! End-to-end smoke of the built binary at `--quick` scale: every
//! workload is correct, the exact metrics repeat bit for bit, and the
//! four together stay inside half a minute.

use std::process::Command;
use std::time::Instant;

use domino_benchmark::WORKLOADS;

/// Run the benchmark binary and return `(last line of stdout, whole stdout)`.
fn bench(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_domino-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "18",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn benchmark");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: not correct: {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
    last
}

/// The text of metric `name`'s value in a result line.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("no metric {name} in {line}"))
        + key.len();
    let end = start + line[start..].find(',').expect("value ends");
    &line[start..end]
}

#[test]
fn quick_runs_are_correct_fast_and_exact() {
    let started = Instant::now();
    let first: Vec<String> = WORKLOADS.iter().map(|w| bench(w, false)).collect();
    let took = started.elapsed();
    assert!(took.as_secs() < 30, "four --quick workloads took {took:?}");
    for (workload, line) in WORKLOADS.iter().zip(&first) {
        let again = bench(workload, false);
        let (a, b) = (
            value(line, "file_bytes_per_user_byte"),
            value(&again, "file_bytes_per_user_byte"),
        );
        if matches!(*workload, "web_read" | "replicate") {
            // One writer at a time: page allocation repeats exactly.
            assert_eq!(a, b, "{workload}: space amplification must repeat exactly");
        } else {
            // Two concurrent writers interleave their page allocations
            // differently from run to run; the ratio moves in its last
            // digits only.
            let (a, b): (f64, f64) = (a.parse().expect("number"), b.parse().expect("number"));
            assert!(
                (a - b).abs() / a < 0.02,
                "{workload}: space amplification {a} vs {b}"
            );
        }
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    let exact = [
        ("save_durable", &["wal.flushes_per_commit"][..]),
        (
            "replicate",
            &[
                "replica.shipped_bytes_per_changed_byte",
                "netio.deliver_frames",
                "replica.conflicts",
            ][..],
        ),
    ];
    for (workload, metrics) in exact {
        let (a, b) = (bench(workload, true), bench(workload, true));
        for m in metrics {
            assert_eq!(
                value(&a, m),
                value(&b, m),
                "{workload}: {m} must repeat exactly"
            );
        }
    }
    // The traced web runs must hold together too.
    bench("web_read", true);
    bench("web_mixed", true);
}
