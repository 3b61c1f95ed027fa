//! Timestamps and clocks.
//!
//! Everything in domino-rs that needs "now" asks a [`Clock`] rather than the
//! OS, so that tests, crash-recovery experiments, and the multi-server
//! network simulator are fully deterministic. The default implementation is
//! a hybrid logical clock ([`LogicalClock`]): it ticks monotonically on
//! every read and can *observe* timestamps received from other replicas so
//! local time never runs behind causally-related remote events — exactly the
//! property replication's sequence-time comparisons need.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically comparable instant. The unit is "ticks" — in production
/// you would map this to wall-clock microseconds; the simulator maps it to
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp(0);

    pub fn saturating_sub(self, other: Timestamp) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Source of timestamps. Implementations must be monotonic: successive
/// `now()` calls never go backwards.
pub trait Clock: Send + Sync {
    /// Current time; advances the clock by at least one tick so two reads
    /// never return the same instant (gives every revision a distinct
    /// sequence time).
    fn now(&self) -> Timestamp;

    /// Fold in a timestamp seen from elsewhere (hybrid-logical-clock merge):
    /// afterwards `now()` returns something strictly greater than `remote`.
    fn observe(&self, remote: Timestamp);

    /// Peek without advancing (for logging / cutoff computations).
    fn peek(&self) -> Timestamp;
}

/// The default deterministic clock: a shared atomic counter.
///
/// Cloning shares the underlying counter, so a database and its views,
/// replicator, and log all agree on time.
#[derive(Debug, Clone, Default)]
pub struct LogicalClock {
    ticks: Arc<AtomicU64>,
}

impl LogicalClock {
    pub fn new() -> LogicalClock {
        LogicalClock::default()
    }

    /// Start the clock at a given instant (useful to make replica clocks
    /// intentionally skewed in tests).
    pub fn starting_at(ts: Timestamp) -> LogicalClock {
        LogicalClock {
            ticks: Arc::new(AtomicU64::new(ts.0)),
        }
    }

    /// Jump the clock forward by `ticks` (simulating elapsed idle time,
    /// e.g. to age deletion stubs past the purge interval).
    pub fn advance(&self, ticks: u64) {
        self.ticks.fetch_add(ticks, Ordering::SeqCst);
    }
}

impl Clock for LogicalClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.ticks.fetch_add(1, Ordering::SeqCst) + 1)
    }

    fn observe(&self, remote: Timestamp) {
        self.ticks.fetch_max(remote.0, Ordering::SeqCst);
    }

    fn peek(&self) -> Timestamp {
        Timestamp(self.ticks.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_strictly_monotonic() {
        let c = LogicalClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b > a);
    }

    #[test]
    fn observe_pulls_clock_forward() {
        let c = LogicalClock::new();
        c.observe(Timestamp(1000));
        assert!(c.now() > Timestamp(1000));
    }

    #[test]
    fn observe_never_rewinds() {
        let c = LogicalClock::starting_at(Timestamp(500));
        c.observe(Timestamp(10));
        assert!(c.peek() >= Timestamp(500));
    }

    #[test]
    fn clones_share_time() {
        let c = LogicalClock::new();
        let d = c.clone();
        let a = c.now();
        let b = d.now();
        assert!(b > a);
    }

    #[test]
    fn advance_skips_ahead() {
        let c = LogicalClock::new();
        let before = c.now();
        c.advance(10_000);
        assert!(c.now().saturating_sub(before) >= 10_000);
    }

    #[test]
    fn peek_does_not_advance() {
        let c = LogicalClock::new();
        let p1 = c.peek();
        let p2 = c.peek();
        assert_eq!(p1, p2);
    }
}
