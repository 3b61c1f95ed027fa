//! Sample statistics and the process-level gauges (CPU time, peak RSS).

use std::time::Duration;

/// Samples a percentile needs beyond it before it is reported: a tail
/// made of fewer is one slow request, not a distribution.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 1) of `sorted`, refused when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} out of range");
    // The epsilon absorbs `1.0 - 0.9` falling a hair short of a tenth.
    let beyond = (sorted.len() as f64 * (1.0 - p) + 1e-9).floor() as usize;
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{:.0} of {} samples has only {beyond} beyond it (need {MIN_SAMPLES_BEYOND})",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[((sorted.len() - 1) as f64 * p) as usize])
}

/// The tail to report: the `preferred` percentile when the sample
/// supports it, else the highest of p95, p90, p75, p50 that has
/// [`MIN_SAMPLES_BEYOND`] samples beyond it (only smoke-scale runs fall
/// back; a full run's sample count is fixed by its op list). Returns the
/// value and the percentile used.
pub fn tail(sorted: &[u64], preferred: f64) -> Result<(u64, f64), String> {
    let mut last = String::new();
    for p in [preferred, 0.95, 0.90, 0.75, 0.50] {
        if p > preferred {
            continue;
        }
        match percentile(sorted, p) {
            Ok(v) => return Ok((v, p)),
            Err(why) => last = why,
        }
    }
    Err(last)
}

/// Median of unsorted floats (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn p50_us(sorted_ns: &[u64]) -> f64 {
    assert!(!sorted_ns.is_empty(), "p50 of nothing");
    sorted_ns[(sorted_ns.len() - 1) / 2] as f64 / 1e3
}

/// Sort samples in place and return them (call once, then index).
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU mask passed to the kernel: 1024 CPUs, glibc's
/// `cpu_set_t`.
const CPU_MASK_WORDS: usize = 16;

/// Pin the calling thread, and so every thread it later spawns, to the
/// highest-numbered CPU it may run on (CPU 0 takes most interrupts), and
/// return that CPU; `None` when the kernel refuses, which leaves the run
/// unpinned.
///
/// On a small VM a wake-up that crosses vCPUs costs an inter-processor
/// interrupt through the hypervisor, several times a same-CPU switch and
/// dependent on the neighbours; whether a request's four thread hand-offs
/// cross is the scheduler's choice, made anew every few milliseconds. On
/// one CPU every hand-off is a plain context switch, and throughput is
/// the program's CPU cost per op and nothing else (README, "Noise").
/// Call before any thread is spawned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; the
    // kernel writes at most that many bytes. Pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_MASK_WORDS * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed and
    // outlives the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has used (user + system, every thread, exited
/// ones included), to the nanosecond. `/proc/self/stat` reports the same
/// total rounded to 10 ms ticks, which is too coarse for the
/// per-replication-pass windows; the standard library has no accessor.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, which is all this benchmark
    // builds for) that outlives the call; `clock_gettime` writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let few: Vec<u64> = (0..999).collect();
        // p99 of 999 samples leaves 9 beyond it: refused.
        assert!(percentile(&few, 0.99).is_err());
        let enough: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&enough, 0.99), Ok(989));
        // p90 needs 100 samples.
        assert!(percentile(&few[..99], 0.90).is_err());
        assert!(percentile(&few[..100], 0.90).is_ok());
    }

    #[test]
    fn tail_falls_back_to_a_supported_percentile() {
        let v: Vec<u64> = (0..150).collect();
        // p99 and p95 of 150 leave 1 and 7 beyond; p90 leaves 15.
        assert_eq!(tail(&v, 0.99), Ok((134, 0.90)));
        assert_eq!(tail(&v[..1000.min(v.len())], 0.90), Ok((134, 0.90)));
        assert!(tail(&v[..15], 0.99).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_gauges_read() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu() > before, "CPU clock did not advance");
        assert!(peak_rss_mb() > 0.0);
    }
}
