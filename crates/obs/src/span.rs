//! Lightweight structured tracing: timing scopes and the slow-op log.
//!
//! A span is a named timing scope opened with [`crate::span!`] (or
//! [`enter`]) and closed when its [`SpanGuard`] drops.
//! Spans nest: each thread keeps a stack of active span names, so when an
//! operation turns out slow, the captured *span path*
//! (`Db.Save > Store.Put > BTree.Insert`) says where the time went — the
//! Domino server console's "slow transaction" log, reproduced.
//!
//! Hot-path cost: opening a span is a thread-local push + `Instant::now()`;
//! closing is a pop, an elapsed read, and one relaxed atomic load to
//! compare against the slow threshold. Only an op *over* the threshold
//! takes a lock (on the fixed-size slow-op ring buffer) — the fast path
//! allocates nothing and locks nothing.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Slow-op ring-buffer capacity: the newest entries win, as on a console.
pub const SLOW_LOG_CAPACITY: usize = 128;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds above which a finished span is captured into the slow-op
/// log. Defaults to 100 ms.
static SLOW_THRESHOLD_NANOS: AtomicU64 = AtomicU64::new(100_000_000);

/// One captured slow operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// Full span path at completion, outermost first, `>`-joined
    /// (e.g. `Db.Save > Store.Put`).
    pub path: String,
    /// Wall-clock duration of the finishing span, in nanoseconds.
    pub nanos: u64,
}

fn slow_log() -> &'static Mutex<VecDeque<SlowOp>> {
    static LOG: OnceLock<Mutex<VecDeque<SlowOp>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)))
}

/// Set the slow-op capture threshold. Zero captures every span (useful in
/// tests); `Duration::MAX` effectively disables capture.
pub fn set_slow_threshold(d: Duration) {
    let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
    SLOW_THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
}

/// Current slow-op capture threshold.
pub fn slow_threshold() -> Duration {
    Duration::from_nanos(SLOW_THRESHOLD_NANOS.load(Ordering::Relaxed))
}

/// Copy the slow-op log, newest last. The log keeps its entries.
pub fn slow_ops() -> Vec<SlowOp> {
    slow_log()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Drain the slow-op log, returning its entries newest last.
pub fn take_slow_ops() -> Vec<SlowOp> {
    slow_log()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .drain(..)
        .collect()
}

/// Open a span named `name`. Prefer the [`crate::span!`] macro.
pub fn enter(name: &'static str) -> SpanGuard {
    SpanGuard::new(name)
}

/// An active span; closing (dropping) it stops the clock.
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    /// Depth of this span on its thread's stack at open (1-based); used to
    /// detect out-of-order drops defensively.
    depth: usize,
}

impl SpanGuard {
    fn new(name: &'static str) -> SpanGuard {
        let depth = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            s.len()
        });
        SpanGuard {
            name,
            start: Instant::now(),
            depth,
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        // Capture the path *before* popping so the finishing span appears
        // as the innermost element.
        if nanos >= SLOW_THRESHOLD_NANOS.load(Ordering::Relaxed) {
            let path =
                SPAN_STACK.with(|s| s.borrow()[..self.depth.min(s.borrow().len())].join(" > "));
            let mut log = slow_log().lock().unwrap_or_else(|p| p.into_inner());
            if log.len() == SLOW_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(SlowOp { path, nanos });
        }
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Normal case: we are the top of the stack. Guards dropped out
            // of order (possible across `mem::forget` games) just truncate.
            if s.len() >= self.depth {
                s.truncate(self.depth - 1);
            }
        });
    }
}

/// Open a timing span: `span!("Db.Save")`. Bind the result
/// (`let _span = span!(…);`) — an unbound guard drops immediately and
/// times nothing. To also record the duration, time the scope into a
/// histogram with [`Histogram::time`](crate::Histogram::time).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that move the process-wide threshold serialize on this.
    static THRESHOLD_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn slow_ops_capture_span_path() {
        // Threshold zero: every span in this thread gets captured. Other
        // test threads may append too, so search rather than index.
        let _serial = THRESHOLD_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let old = slow_threshold();
        set_slow_threshold(Duration::ZERO);
        {
            let _a = enter("Test.Slow.Outer");
            {
                let _b = enter("Test.Slow.Inner");
            }
            // The closed inner span has unwound: a sibling nests under
            // the outer span alone.
            let _c = enter("Test.Slow.Sibling");
        }
        set_slow_threshold(old);
        let ops = slow_ops();
        for path in [
            "Test.Slow.Outer > Test.Slow.Inner",
            "Test.Slow.Outer > Test.Slow.Sibling",
            "Test.Slow.Outer",
        ] {
            assert!(
                ops.iter().any(|o| o.path == path),
                "no captured path matched {path:?}: {ops:?}"
            );
        }
    }

    #[test]
    fn fast_ops_not_captured() {
        let _serial = THRESHOLD_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let old = slow_threshold();
        set_slow_threshold(Duration::from_secs(3600));
        let before = slow_ops().len();
        {
            let _s = enter("Test.Fast");
        }
        // No *new* capture from this span (other threads may race, so
        // just assert ours isn't there).
        let after = slow_ops();
        assert!(after.len() >= before);
        assert!(!after.iter().any(|o| o.path == "Test.Fast"));
        set_slow_threshold(old);
    }
}
