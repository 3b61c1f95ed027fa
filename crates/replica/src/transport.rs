//! The replication transport abstraction and retry policy.
//!
//! A [`Replicator`](crate::Replicator) pulls candidates in bounded batches;
//! each batch crosses the wire as one *message* delivered through a
//! [`Transport`]. A transport may fail a delivery with
//! [`DominoError::Unavailable`] — the pull then stops at the last durably
//! applied candidate and its [cursor](crate::replicator::PullCursor)
//! survives, so a later attempt resumes instead of restarting. This is the
//! paper's defining scenario: epidemic replication that stays eventually
//! consistent over flaky dial-up links.
//!
//! [`RetryPolicy`] bounds how hard a caller leans on a flaky transport:
//! attempts, exponential backoff with deterministic jitter (seeded from the
//! logical clock, so simulations stay reproducible), and a per-pass backoff
//! budget.

use domino_types::{splitmix64, DominoError, Faulty, Result};

/// Delivers replication messages between two replicas.
///
/// One `deliver` call is made per candidate batch, *before* the batch is
/// applied (it models the request/response round-trip that ships the
/// batch). Returning [`DominoError::Unavailable`] marks the message lost in
/// flight; any other error is treated as non-transient and is not retried.
pub trait Transport {
    /// Attempt to deliver one message carrying `notes` candidates.
    fn deliver(&mut self, notes: u64) -> Result<()>;
}

/// The always-reliable in-process transport (the pre-fault default).
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanTransport;

impl Transport for CleanTransport {
    fn deliver(&mut self, _notes: u64) -> Result<()> {
        Ok(())
    }
}

/// The fault decorator over a transport: every delivery ticks the plan,
/// and a failed one is lost in flight, the transient
/// [`DominoError::Unavailable`] a pull parks its cursor on.
impl<T: Transport> Transport for Faulty<T> {
    fn deliver(&mut self, notes: u64) -> Result<()> {
        if let Some(op) = self.plan.tick() {
            return Err(DominoError::Unavailable(format!(
                "injected message loss at delivery {op}"
            )));
        }
        self.inner.deliver(notes)
    }
}

/// How hard to retry a replication pass over a flaky transport.
///
/// Backoff is exponential (`base_backoff * 2^(attempt-1)`, capped at
/// `max_backoff`) with optional deterministic jitter drawn from a seed the
/// caller derives from the logical clock — so retry schedules are
/// reproducible tick-for-tick in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per pull, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in clock ticks.
    pub base_backoff: u64,
    /// Ceiling on a single backoff, in clock ticks.
    pub max_backoff: u64,
    /// Randomize each backoff to `[backoff/2, backoff]` (decorrelates
    /// retry storms when many links fail together).
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::standard()
    }
}

impl RetryPolicy {
    /// No retries: fail the pass on the first transport fault (the
    /// pre-fault behaviour, and the E14 baseline).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: 0,
            max_backoff: 0,
            jitter: false,
        }
    }

    /// A sensible default: 8 attempts, 4-tick base backoff doubling to a
    /// 256-tick cap, jittered.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: 4,
            max_backoff: 256,
            jitter: true,
        }
    }

    /// Does this policy retry at all?
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff in ticks before retry number `attempt` (1-based: the wait
    /// after the first failure is `backoff(1, _)`). `seed` feeds the
    /// deterministic jitter; pass something clock-derived.
    pub fn backoff(&self, attempt: u32, seed: u64) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_backoff
            .saturating_mul(1u64.checked_shl(exp).unwrap_or(u64::MAX))
            .min(self.max_backoff.max(self.base_backoff));
        if !self.jitter || raw < 2 {
            return raw;
        }
        let half = raw / 2;
        half + splitmix64(&mut (seed ^ u64::from(attempt))) % (raw - half + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_bit_identical_to_its_published_values() {
        // Pinned outputs: the jitter stream must not move when the
        // generator it draws from is refactored.
        let p = RetryPolicy::standard();
        let got: Vec<u64> = (0..6).map(|seed| p.backoff(3, seed)).collect();
        assert_eq!(got, [8, 12, 13, 15, 11, 13]);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter: false,
            ..RetryPolicy::standard()
        };
        assert_eq!(p.backoff(1, 0), 4);
        assert_eq!(p.backoff(2, 0), 8);
        assert_eq!(p.backoff(3, 0), 16);
        assert_eq!(p.backoff(10, 0), 256, "capped at max_backoff");
        assert_eq!(p.backoff(33, 0), 256, "huge attempts do not overflow");
    }

    #[test]
    fn jitter_stays_in_range_and_is_deterministic() {
        let p = RetryPolicy::standard();
        for attempt in 1..6 {
            let raw = RetryPolicy { jitter: false, ..p }.backoff(attempt, 0);
            for seed in 0..50u64 {
                let b = p.backoff(attempt, seed);
                assert!(b >= raw / 2 && b <= raw, "{b} outside [{}, {raw}]", raw / 2);
                assert_eq!(b, p.backoff(attempt, seed), "same seed, same jitter");
            }
        }
    }

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.retries());
        assert_eq!(p.backoff(1, 42), 0);
    }
}
