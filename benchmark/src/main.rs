//! `domino-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints facts, every metric by name with its unit, and as the last line
//! of standard output the JSON object the harness reads.

use domino_benchmark::device::{self, Call};
use domino_benchmark::{report, Args};

/// The process's `fsync`: see `device.rs`. Defined in the binary so that
/// the linker binds the standard library's calls to it.
#[no_mangle]
pub extern "C" fn fsync(fd: i32) -> i32 {
    device::flush(fd, Call::Fsync)
}

/// The process's `fdatasync`: see `device.rs`.
#[no_mangle]
pub extern "C" fn fdatasync(fd: i32) -> i32 {
    device::flush(fd, Call::Fdatasync)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("domino-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let cpu = domino_benchmark::stats::pin_to_one_cpu();
    let mut outcome = domino_benchmark::run(&args);
    outcome.fact(
        "pinned_cpu",
        cpu.map_or("none".to_string(), |c| c.to_string()),
    );
    outcome.fact("device_flushes_elided", device::elided());
    if args.trace {
        outcome.print(report::PER_LAYER, true);
    } else {
        outcome.print(report::END_TO_END, false);
    }
    if !outcome.correct() {
        eprintln!(
            "domino-benchmark: {} of {} checked outputs were wrong",
            outcome.failed, outcome.attempted
        );
    }
}
