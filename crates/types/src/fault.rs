//! Fault injection: every injected failure comes from one seeded schedule.
//!
//! A [`FaultPlan`] decides, operation by operation, whether an I/O call
//! fails. Clones share one operation counter and one SplitMix64 stream, so
//! one plan handed to a disk, a log and a transport numbers their
//! operations globally and draws every random decision from one seed. An
//! operation fails when a countdown has run out ([`FaultPlan::arm`]), when
//! its 0-based index is listed ([`FaultPlan::fail_at`]), or by chance on a
//! lossy handle ([`FaultPlan::dropping`]).
//!
//! [`Faulty`] is the one decorator: it ticks its plan on every mutating
//! call. Each device trait implements it where the trait is defined:
//! `Disk` in storage, `LogStore` in wal, `Transport` in replica.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::{DominoError, Result};

/// SplitMix64's golden-ratio increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea, Flood): advance `state` one step and return
/// the mixed output. The one generator behind fault schedules, crash
/// images and retry jitter.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded fault schedule shared by every clone (see the module docs).
#[derive(Clone)]
pub struct FaultPlan {
    schedule: Arc<Mutex<Schedule>>,
    /// This handle's per-operation failure chance.
    drop_rate: f64,
}

struct Schedule {
    ops: u64,
    faults: u64,
    /// Operations still allowed before every one fails; `None` = no limit.
    remaining: Option<u64>,
    fail_at: Vec<u64>,
    rng: u64,
}

impl Schedule {
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (splitmix64(&mut self.rng) as f64 / u64::MAX as f64) < p
    }
}

/// A plan that fails nothing until a rule is set, on a fixed seed.
impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::seeded(0xD011_1E7E)
    }
}

impl FaultPlan {
    /// A plan whose random stream is determined by `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        let schedule = Schedule {
            ops: 0,
            faults: 0,
            remaining: None,
            fail_at: Vec::new(),
            // The first draw mixes `seed + 2 * GAMMA`.
            rng: seed.wrapping_add(GAMMA),
        };
        FaultPlan {
            schedule: Arc::new(Mutex::new(schedule)),
            drop_rate: 0.0,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Schedule> {
        self.schedule.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allow `n` more operations, then fail every one until
    /// [`FaultPlan::disarm`] (a device that dies mid-workload).
    pub fn arm(&self, n: u64) {
        self.lock().remaining = Some(n);
    }

    /// Stop the countdown (the "reboot" before recovery).
    pub fn disarm(&self) {
        self.lock().remaining = None;
    }

    /// Fail the operations whose 0-based index, counted over every clone,
    /// is in `ops` (replacing any earlier list).
    pub fn fail_at(&self, ops: impl IntoIterator<Item = u64>) {
        self.lock().fail_at = ops.into_iter().collect();
    }

    /// A handle on the same schedule that also fails each operation it
    /// ticks with probability `p` (a lossy link).
    pub fn dropping(&self, p: f64) -> FaultPlan {
        FaultPlan {
            schedule: Arc::clone(&self.schedule),
            drop_rate: p,
        }
    }

    /// Bernoulli draw from the shared stream, for decisions that are not
    /// operations (a link flapping down). Draws nothing when `p <= 0` or
    /// `p >= 1`.
    pub fn chance(&self, p: f64) -> bool {
        self.lock().chance(p)
    }

    /// Count one operation; `Some(index)` when the plan fails it.
    pub fn tick(&self) -> Option<u64> {
        let mut s = self.lock();
        let op = s.ops;
        s.ops += 1;
        let ran_out = match &mut s.remaining {
            Some(0) => true,
            Some(n) => {
                *n -= 1;
                false
            }
            None => false,
        };
        if ran_out || s.fail_at.contains(&op) || s.chance(self.drop_rate) {
            s.faults += 1;
            return Some(op);
        }
        None
    }

    /// Operations ticked so far, failed or not.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Operations failed so far.
    pub fn faults(&self) -> u64 {
        self.lock().faults
    }
}

/// The one fault decorator: `inner`, with `plan` ticked on every mutating
/// call. Reads are never failed, so a crashed device can be read back.
#[derive(Clone)]
pub struct Faulty<T> {
    /// The wrapped device.
    pub inner: T,
    /// The schedule its mutating calls tick.
    pub plan: FaultPlan,
}

impl<T> Faulty<T> {
    /// Wrap `inner` so its mutating calls follow `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Faulty<T> {
        Faulty { inner, plan }
    }

    /// Tick the plan for the mutating call `what`: a failed operation is
    /// an [`DominoError::Io`] error, the way a dying device fails.
    pub fn io(&self, what: &str) -> Result<()> {
        match self.plan.tick() {
            Some(op) => Err(DominoError::Io(format!(
                "injected fault at op {op}: {what}"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The published SplitMix64 outputs for seed 1234567.
        let mut s = 1234567;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut s)).collect();
        let want = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ];
        assert_eq!(got, want);
    }

    fn outcomes(plan: &FaultPlan, n: usize) -> Vec<bool> {
        (0..n).map(|_| plan.tick().is_none()).collect()
    }

    #[test]
    fn countdown_and_listed_indices_fail_exactly_their_ops() {
        let plan = FaultPlan::default();
        plan.arm(2);
        assert_eq!(outcomes(&plan, 4), [true, true, false, false]);
        plan.disarm();
        // Indices are global: this plan has already ticked ops 0-3.
        plan.fail_at([5]);
        assert_eq!(outcomes(&plan, 3), [true, false, true]);
        assert_eq!((plan.ops(), plan.faults()), (7, 3));
    }

    #[test]
    fn chance_keeps_its_pinned_stream_and_skips_certain_outcomes() {
        let plan = FaultPlan::seeded(0xE14);
        assert!(!plan.chance(0.0) && plan.chance(1.0), "no draw spent");
        let coins: String = (0..16)
            .map(|_| if plan.chance(0.5) { '1' } else { '0' })
            .collect();
        assert_eq!(coins, "1111001000110000");
    }
}
