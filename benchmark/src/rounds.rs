//! The measured phase as equal consecutive rounds, and which of them to
//! believe.
//!
//! Every client runs its slice of the fixed op list in equal chunks, and
//! all clients start each round together, so a round's throughput is
//! exact: its ops over the time from the common start to the last
//! client's finish. Every round of a workload holds the same mix of
//! operations (the op lists are built in shuffled blocks of exact
//! proportions), so rounds differ only by what disturbed them: a
//! neighbour on the shared host, a stalled device flush. Disturbance only
//! ever slows a round down, so the timing metrics are taken over the
//! *quiet third* — the fastest third of the run's rounds (README,
//! "Noise").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::stats;

/// One closed-loop client: owns its slice of the op list and its model.
pub trait Worker: Send {
    /// Ops in this worker's slice.
    fn ops(&self) -> usize;
    /// Execute ops `from..to` of the slice.
    fn run(&mut self, from: usize, to: usize);
}

/// One completed round, all clients together.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub ops: u64,
    pub wall: Duration,
    /// Process CPU time (user + system, every thread) over the round.
    pub cpu: Duration,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// How a part of the op list went, round by round.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub rounds: Vec<Round>,
}

impl Timing {
    /// Indices of the quiet third, in round order: the fastest third of
    /// the rounds by throughput (at least one).
    pub fn quiet(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rounds.len()).collect();
        order.sort_by(|a, b| {
            self.rounds[*b]
                .ops_per_s()
                .total_cmp(&self.rounds[*a].ops_per_s())
        });
        order.truncate((order.len() / 3).max(1));
        order.sort_unstable();
        order
    }

    fn over_quiet(&self) -> Round {
        let mut sum = Round {
            ops: 0,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
        };
        for r in self.quiet().into_iter().map(|i| self.rounds[i]) {
            sum.ops += r.ops;
            sum.wall += r.wall;
            sum.cpu += r.cpu;
        }
        sum
    }

    /// Throughput over the quiet third.
    pub fn ops_per_s(&self) -> f64 {
        self.over_quiet().ops_per_s()
    }

    /// Process CPU per op over the quiet third.
    pub fn cpu_us_per_op(&self) -> f64 {
        let q = self.over_quiet();
        q.cpu.as_secs_f64() * 1e6 / q.ops as f64
    }

    /// Ops in every completed round.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Every round's throughput in order, for the facts.
    pub fn describe(&self) -> String {
        let each: Vec<String> = self
            .rounds
            .iter()
            .map(|r| format!("{:.0}", r.ops_per_s()))
            .collect();
        each.join(" ")
    }
}

/// Regroup samples by round: `flat` holds every client's samples in op
/// order, one client after another, each client the same count.
pub fn by_round<T: Copy>(flat: &[T], clients: usize, rounds: usize) -> Vec<Vec<T>> {
    let per_client = flat.len() / clients;
    let chunk = per_client / rounds;
    (0..rounds)
        .map(|r| {
            (0..clients)
                .flat_map(|c| {
                    let at = c * per_client + r * chunk;
                    flat[at..at + chunk].iter().copied()
                })
                .collect()
        })
        .collect()
}

/// Run every worker's slice in `rounds` chunks on its own thread. Work is
/// fixed; `deadline` only guards the harness: a round that ends past it
/// is the last (the run is then reported with fewer rounds).
pub fn run<W: Worker>(workers: &mut [W], rounds: usize, deadline: Option<Instant>) -> Timing {
    let barrier = Barrier::new(workers.len() + 1);
    let stop = AtomicBool::new(false);
    let chunk_ops: u64 = workers.iter().map(|w| (w.ops() / rounds) as u64).sum();
    let mut timing = Timing::default();
    std::thread::scope(|scope| {
        for w in workers.iter_mut() {
            let (barrier, stop) = (&barrier, &stop);
            scope.spawn(move || {
                let chunk = w.ops() / rounds;
                for r in 0..rounds {
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    w.run(r * chunk, (r + 1) * chunk);
                    barrier.wait();
                }
            });
        }
        for _ in 0..rounds {
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let (start, cpu) = (Instant::now(), stats::process_cpu());
            barrier.wait();
            timing.rounds.push(Round {
                ops: chunk_ops,
                wall: start.elapsed(),
                cpu: stats::process_cpu() - cpu,
            });
            // Set between a round's end barrier and the next start
            // barrier, so every client reads the same verdict.
            if deadline.is_some_and(|d| Instant::now() > d) {
                stop.store(true, Ordering::SeqCst);
            }
        }
        // Scoped threads are joined (and their panics propagated) here.
    });
    timing
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Count(usize, Vec<(usize, usize)>);

    impl Worker for Count {
        fn ops(&self) -> usize {
            self.0
        }
        fn run(&mut self, from: usize, to: usize) {
            self.1.push((from, to));
        }
    }

    #[test]
    fn every_worker_runs_every_round_in_order() {
        let mut workers = vec![Count(100, Vec::new()), Count(100, Vec::new())];
        let t = run(&mut workers, 10, None);
        assert_eq!(t.rounds.len(), 10);
        assert_eq!(t.ops(), 200);
        for w in &workers {
            let want: Vec<(usize, usize)> = (0..10).map(|r| (r * 10, r * 10 + 10)).collect();
            assert_eq!(w.1, want);
        }
    }

    #[test]
    fn a_passed_deadline_ends_the_part_after_one_round() {
        let mut workers = vec![Count(100, Vec::new())];
        let t = run(&mut workers, 10, Some(Instant::now()));
        assert_eq!(t.rounds.len(), 1);
        assert_eq!(workers[0].1, vec![(0, 10)]);
    }

    fn round(ops: u64, ms: u64) -> Round {
        Round {
            ops,
            wall: Duration::from_millis(ms),
            cpu: Duration::from_millis(ms / 2),
        }
    }

    #[test]
    fn samples_regroup_by_round_across_clients() {
        // Two clients, two rounds of two samples each.
        let flat = [1, 2, 3, 4, 11, 12, 13, 14];
        assert_eq!(
            by_round(&flat, 2, 2),
            vec![vec![1, 2, 11, 12], vec![3, 4, 13, 14]]
        );
    }

    #[test]
    fn the_quiet_third_is_the_fastest_third() {
        // Six rounds of 100 ops; the two fastest are rounds 1 and 4.
        let walls = [50, 10, 70, 60, 20, 55];
        let t = Timing {
            rounds: walls.iter().map(|ms| round(100, *ms)).collect(),
        };
        assert_eq!(t.quiet(), vec![1, 4]);
        // 200 ops in 30 ms, 15 ms of CPU.
        assert!((t.ops_per_s() - 200.0 / 0.030).abs() < 1e-6);
        assert!((t.cpu_us_per_op() - 75.0).abs() < 1e-9);
        // Fewer than three rounds still keep one.
        let short = Timing {
            rounds: vec![round(100, 50), round(100, 40)],
        };
        assert_eq!(short.quiet(), vec![1]);
    }
}
