//! The storage device, taken out of the timings.
//!
//! Every durable commit ends in an `fdatasync` of the `.txn` file, and on
//! the sandbox's shared virtual disk that one call is four fifths of a
//! save and moves by a third from minute to minute: no bound below 25 %
//! survives it. The harness confines a run to its checkout, so the
//! fixtures cannot move to a tmpfs. Instead the benchmark *binary*
//! defines `fsync` and `fdatasync` itself (`main.rs`), which is where the
//! standard library's `File::sync_all`/`sync_data` then land: the call is
//! counted and, unless [`with_real_device`] is in force, returns at once —
//! what it does on a tmpfs. The program's code is untouched and runs the
//! same path with the same `write`s; the timings measure its CPU, its
//! system calls and its flush *count*, and `wal.device_flush_us` reports
//! what one flush costs on the real device (README, "Sandbox caveats").
//!
//! Nothing here weakens the durability check: the simulated crash
//! (`CrashDisk`) discards unsynced *page* writes by its own bookkeeping,
//! and the log file is read back through the page cache by the same
//! process.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static REAL: AtomicBool = AtomicBool::new(false);
static ELIDED: AtomicU64 = AtomicU64::new(0);

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const FSYNC: i64 = 74;
    pub const FDATASYNC: i64 = 75;
}
#[cfg(target_arch = "aarch64")]
mod nr {
    pub const FSYNC: i64 = 82;
    pub const FDATASYNC: i64 = 83;
}

extern "C" {
    fn syscall(number: i64, ...) -> i64;
}

/// Which of the two calls a flush came in as.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    Fsync,
    Fdatasync,
}

/// What the binary's `fsync`/`fdatasync` do: pass the call to the kernel
/// inside [`with_real_device`], else count it and report success.
pub fn flush(fd: i32, call: Call) -> i32 {
    if !REAL.load(Ordering::SeqCst) {
        ELIDED.fetch_add(1, Ordering::Relaxed);
        return 0;
    }
    let number = match call {
        Call::Fsync => nr::FSYNC,
        Call::Fdatasync => nr::FDATASYNC,
    };
    // SAFETY: both system calls take one file descriptor and touch no
    // memory of the caller; an invalid descriptor returns -1 with `errno`
    // set, exactly as the libc wrappers they stand in for.
    unsafe { syscall(number, fd) as i32 }
}

/// Device flushes skipped so far (0 in a binary that does not define the
/// two symbols, such as the library's unit tests).
pub fn elided() -> u64 {
    ELIDED.load(Ordering::Relaxed)
}

/// Run `f` with flushes going to the real device.
pub fn with_real_device<T>(f: impl FnOnce() -> T) -> T {
    REAL.store(true, Ordering::SeqCst);
    let out = f();
    REAL.store(false, Ordering::SeqCst);
    out
}
