//! Domino Domain Monitoring, scaled to one process: health probes over
//! the metric registry.
//!
//! Real Domino's DDM runs probes against server statistics and files the
//! results in `ddm.nsf` with severities that escalate while a condition
//! persists and clear when it stops. This module is that loop: a
//! [`ProbeEngine`] holds declarative [`ProbeRule`]s, and every
//! [`ProbeEngine::tick`] takes a registry [`Snapshot`](obs::Snapshot),
//! diffs it against the previous tick, and evaluates each rule against
//! the *delta* (rates, not lifetime totals) or the absolute state
//! (gauges, hit ratios, quantiles).
//!
//! Outcomes become events on the bus — `Ddm.Probe` while a condition
//! holds (severity escalating one step once it has persisted for
//! [`ProbeRule::escalate_after`] consecutive ticks) and a `Normal`
//! `Ddm.Probe.Cleared` on the tick a previously-firing condition stops —
//! so the logger task files them in `log.nsf` like any other event and
//! `show events` surfaces them on the console.

use std::fmt;

use domino_obs as obs;

/// What a probe checks each tick. Delta conditions look at the change
/// since the previous tick; the others look at the current snapshot.
#[derive(Debug, Clone)]
pub enum ProbeCondition {
    /// Counter grew by at least `threshold` this tick (a rate alarm:
    /// e.g. `Http.Worker.Shed` climbing means the pool is saturated).
    CounterDeltaAtLeast {
        /// Counter name.
        metric: &'static str,
        /// Minimum per-tick growth that fires the probe.
        threshold: u64,
    },
    /// Gauge is below `floor` right now.
    GaugeBelow {
        /// Gauge name.
        metric: &'static str,
        /// Fires when the level is strictly below this.
        floor: i64,
    },
    /// Gauge is above `ceiling` right now.
    GaugeAbove {
        /// Gauge name.
        metric: &'static str,
        /// Fires when the level is strictly above this.
        ceiling: i64,
    },
    /// Cache efficiency floor: `hits / (hits + misses)` over this tick's
    /// delta fell below `floor_percent`. Quiet ticks (fewer lookups than
    /// `min_samples`) never fire — a cold cache is not a sick cache.
    HitRateBelow {
        /// Hit counter name.
        hits: &'static str,
        /// Miss counter name.
        misses: &'static str,
        /// Fires below this percentage (0-100).
        floor_percent: u64,
        /// Minimum lookups this tick for the ratio to mean anything.
        min_samples: u64,
    },
    /// Latency ceiling: the histogram's p99 over this tick's delta
    /// exceeded `threshold` (engine-mutex waits, request latency).
    P99Above {
        /// Histogram name.
        metric: &'static str,
        /// Fires when the tick's p99 exceeds this.
        threshold: u64,
        /// Minimum samples this tick for the quantile to mean anything.
        min_samples: u64,
    },
    /// Progress stall: `busy` advanced by at least `min_busy` this tick
    /// while `idle` did not move at all — work is arriving but the
    /// counter that should track it is stuck (e.g. commits without
    /// checkpoints means checkpoint lag is growing).
    StalledWhile {
        /// The counter that should be advancing.
        idle: &'static str,
        /// The counter proving there is work to do.
        busy: &'static str,
        /// How much `busy` must move for the stall to count.
        min_busy: u64,
    },
}

impl ProbeCondition {
    /// Evaluate against this tick's delta and the absolute snapshot.
    /// Returns `Some(measurement)` when firing, `None` when healthy.
    fn evaluate(&self, delta: &obs::Snapshot, now: &obs::Snapshot) -> Option<u64> {
        match self {
            ProbeCondition::CounterDeltaAtLeast { metric, threshold } => {
                let d = delta.counter(metric);
                (d >= *threshold).then_some(d)
            }
            ProbeCondition::GaugeBelow { metric, floor } => {
                let level = now.gauge(metric);
                (level < *floor).then_some(level.max(0) as u64)
            }
            ProbeCondition::GaugeAbove { metric, ceiling } => {
                let level = now.gauge(metric);
                (level > *ceiling).then_some(level.max(0) as u64)
            }
            ProbeCondition::HitRateBelow {
                hits,
                misses,
                floor_percent,
                min_samples,
            } => {
                let h = delta.counter(hits);
                let m = delta.counter(misses);
                let total = h + m;
                if total < *min_samples {
                    return None;
                }
                let rate = h * 100 / total;
                (rate < *floor_percent).then_some(rate)
            }
            ProbeCondition::P99Above {
                metric,
                threshold,
                min_samples,
            } => {
                let h = delta.histogram(metric);
                if h.count < *min_samples {
                    return None;
                }
                let p99 = h.quantile(0.99);
                (p99 > *threshold).then_some(p99)
            }
            ProbeCondition::StalledWhile {
                idle,
                busy,
                min_busy,
            } => {
                let work = delta.counter(busy);
                (work >= *min_busy && delta.counter(idle) == 0).then_some(work)
            }
        }
    }
}

/// One declarative health check.
#[derive(Debug, Clone)]
pub struct ProbeRule {
    /// Probe name, filed as the `probe` field of the `Ddm.Probe` event
    /// (shows up as the Probe item in log.nsf).
    pub name: &'static str,
    /// The condition checked each tick.
    pub condition: ProbeCondition,
    /// Severity of the event while the condition holds.
    pub severity: obs::Severity,
    /// After this many *consecutive* firing ticks the reported severity
    /// escalates one step ([`obs::Severity::escalated`]) — a persistent
    /// condition is worse news than a blip. 0 never escalates.
    pub escalate_after: u32,
}

impl ProbeRule {
    /// A rule at the given severity that never escalates.
    pub fn new(
        name: &'static str,
        condition: ProbeCondition,
        severity: obs::Severity,
    ) -> ProbeRule {
        ProbeRule {
            name,
            condition,
            severity,
            escalate_after: 0,
        }
    }

    /// Escalate the severity one step once the condition has held for
    /// `ticks` consecutive ticks.
    pub fn escalating_after(mut self, ticks: u32) -> ProbeRule {
        self.escalate_after = ticks;
        self
    }
}

/// What one rule concluded on one tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The rule's name.
    pub probe: &'static str,
    /// True while the condition holds.
    pub firing: bool,
    /// Consecutive firing ticks including this one (0 when healthy).
    pub streak: u32,
    /// Severity reported this tick (escalated if the streak is long
    /// enough); `None` when healthy and nothing was emitted.
    pub severity: Option<obs::Severity>,
    /// The measured value that fired the probe (delta, level, rate, or
    /// p99 depending on the condition).
    pub measured: u64,
}

impl fmt::Display for ProbeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.firing {
            write!(
                f,
                "{} FIRING ({}, streak {}, measured {})",
                self.probe,
                self.severity.map(|s| s.as_str()).unwrap_or("?"),
                self.streak,
                self.measured
            )
        } else {
            write!(f, "{} ok", self.probe)
        }
    }
}

/// The probe engine: rules plus the previous tick's snapshot and each
/// rule's consecutive-firing streak.
pub struct ProbeEngine {
    rules: Vec<ProbeRule>,
    last: obs::Snapshot,
    streaks: Vec<u32>,
}

impl ProbeEngine {
    /// An engine over the given rules. The first [`tick`](Self::tick)
    /// diffs against the registry as it is *now*, so pre-existing totals
    /// never fire delta probes.
    pub fn new(rules: Vec<ProbeRule>) -> ProbeEngine {
        let streaks = vec![0; rules.len()];
        ProbeEngine {
            rules,
            last: obs::snapshot(),
            streaks,
        }
    }

    /// The default probe set, wired to the metrics the subsystems
    /// actually publish (see DESIGN.md for the name registry).
    pub fn with_default_rules() -> ProbeEngine {
        ProbeEngine::new(default_rules())
    }

    /// The rules under watch.
    pub fn rules(&self) -> &[ProbeRule] {
        &self.rules
    }

    /// Evaluate every rule against the registry delta since the last
    /// tick, emitting `Ddm.Probe` / `Ddm.Probe.Cleared` events for
    /// transitions and ongoing conditions. Call *outside* any
    /// [`obs::suppress`] guard or the verdict events are discarded.
    pub fn tick(&mut self) -> Vec<ProbeOutcome> {
        let now = obs::snapshot();
        let delta = now.diff(&self.last);
        let mut out = Vec::with_capacity(self.rules.len());
        for (rule, streak) in self.rules.iter().zip(self.streaks.iter_mut()) {
            match rule.condition.evaluate(&delta, &now) {
                Some(measured) => {
                    *streak += 1;
                    let escalate = rule.escalate_after > 0 && *streak > rule.escalate_after;
                    let severity = if escalate {
                        rule.severity.escalated()
                    } else {
                        rule.severity
                    };
                    obs::emit(
                        obs::Event::new(obs::EventKind::Server, severity, "Ddm.Probe")
                            .with("probe", rule.name)
                            .with("measured", measured)
                            .with("streak", u64::from(*streak))
                            .with("escalated", u64::from(escalate)),
                    );
                    out.push(ProbeOutcome {
                        probe: rule.name,
                        firing: true,
                        streak: *streak,
                        severity: Some(severity),
                        measured,
                    });
                }
                None => {
                    if *streak > 0 {
                        // Transition to healthy: file the all-clear once.
                        obs::emit(
                            obs::Event::new(
                                obs::EventKind::Server,
                                obs::Severity::Normal,
                                "Ddm.Probe.Cleared",
                            )
                            .with("probe", rule.name)
                            .with("after_ticks", u64::from(*streak)),
                        );
                    }
                    *streak = 0;
                    out.push(ProbeOutcome {
                        probe: rule.name,
                        firing: false,
                        streak: 0,
                        severity: None,
                        measured: 0,
                    });
                }
            }
        }
        self.last = now;
        out
    }
}

/// The stock probe set: worker shedding, replication retry exhaustion,
/// checkpoint lag, buffer-pool efficiency, and writer queueing on the
/// engine mutex.
pub fn default_rules() -> Vec<ProbeRule> {
    vec![
        ProbeRule::new(
            "http.workers.shedding",
            ProbeCondition::CounterDeltaAtLeast {
                metric: "Http.Worker.Shed",
                threshold: 1,
            },
            obs::Severity::Warning,
        )
        .escalating_after(1),
        ProbeRule::new(
            "replica.retry.exhausted",
            ProbeCondition::CounterDeltaAtLeast {
                metric: "Replica.Retry.Exhausted",
                threshold: 1,
            },
            obs::Severity::Failure,
        ),
        ProbeRule::new(
            "checkpoint.lagging",
            ProbeCondition::StalledWhile {
                idle: "Database.Checkpoint.Completed",
                busy: "Database.Txn.Commits",
                min_busy: 512,
            },
            obs::Severity::Warning,
        )
        .escalating_after(2),
        ProbeRule::new(
            "pool.hit-rate.low",
            ProbeCondition::HitRateBelow {
                hits: "Database.Pool.Hits",
                misses: "Database.Pool.Misses",
                floor_percent: 50,
                min_samples: 256,
            },
            obs::Severity::Warning,
        ),
        ProbeRule::new(
            "engine.waits.slow",
            ProbeCondition::P99Above {
                metric: "Db.Engine.Wait.Micros",
                threshold: 100_000,
                min_samples: 16,
            },
            obs::Severity::Warning,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Probe tests share the global registry with every other test in the
    // binary, so each uses its own uniquely named metrics.

    #[test]
    fn delta_probe_fires_escalates_and_clears() {
        let c = obs::counter("Http.Test.DdmShed");
        let mut engine = ProbeEngine::new(vec![ProbeRule::new(
            "test.shed",
            ProbeCondition::CounterDeltaAtLeast {
                metric: "Http.Test.DdmShed",
                threshold: 5,
            },
            obs::Severity::Warning,
        )
        .escalating_after(1)]);

        // Quiet tick: nothing fires.
        let out = engine.tick();
        assert!(!out[0].firing);

        // Burst: fires at the base severity.
        c.add(10);
        let out = engine.tick();
        assert!(out[0].firing);
        assert_eq!(out[0].severity, Some(obs::Severity::Warning));
        assert_eq!(out[0].streak, 1);

        // Still bursting: the streak passes escalate_after, one step up.
        c.add(10);
        let out = engine.tick();
        assert_eq!(out[0].severity, Some(obs::Severity::Failure));
        assert_eq!(out[0].streak, 2);

        // Quiet again: clears, streak resets.
        let out = engine.tick();
        assert!(!out[0].firing);
        assert_eq!(out[0].streak, 0);
    }

    #[test]
    fn lifetime_totals_do_not_fire_delta_probes() {
        let c = obs::counter("Http.Test.DdmOldTotal");
        c.add(1_000_000); // history from "before monitoring started"
        let mut engine = ProbeEngine::new(vec![ProbeRule::new(
            "test.old-total",
            ProbeCondition::CounterDeltaAtLeast {
                metric: "Http.Test.DdmOldTotal",
                threshold: 1,
            },
            obs::Severity::Warning,
        )]);
        // The engine baselined at construction, so the old million is
        // invisible; only post-construction growth counts.
        assert!(!engine.tick()[0].firing);
        c.add(1);
        assert!(engine.tick()[0].firing);
    }

    #[test]
    fn hit_rate_probe_ignores_quiet_ticks() {
        let hits = obs::counter("Http.Test.DdmHits");
        let misses = obs::counter("Http.Test.DdmMisses");
        let mut engine = ProbeEngine::new(vec![ProbeRule::new(
            "test.hit-rate",
            ProbeCondition::HitRateBelow {
                hits: "Http.Test.DdmHits",
                misses: "Http.Test.DdmMisses",
                floor_percent: 90,
                min_samples: 100,
            },
            obs::Severity::Warning,
        )]);
        engine.tick();

        // 10 lookups at 0% — too few to judge.
        misses.add(10);
        assert!(!engine.tick()[0].firing);

        // 200 lookups at 50% — fires with the measured rate.
        hits.add(100);
        misses.add(100);
        let out = engine.tick();
        assert!(out[0].firing);
        assert_eq!(out[0].measured, 50);
    }

    #[test]
    fn stall_probe_needs_work_to_call_it_a_stall() {
        let idle = obs::counter("Http.Test.DdmCkpt");
        let busy = obs::counter("Http.Test.DdmCommits");
        let mut engine = ProbeEngine::new(vec![ProbeRule::new(
            "test.stall",
            ProbeCondition::StalledWhile {
                idle: "Http.Test.DdmCkpt",
                busy: "Http.Test.DdmCommits",
                min_busy: 100,
            },
            obs::Severity::Warning,
        )]);
        engine.tick();

        // Nothing happening at all: healthy.
        assert!(!engine.tick()[0].firing);

        // Commits without checkpoints: stalled.
        busy.add(500);
        assert!(engine.tick()[0].firing);

        // Commits *with* a checkpoint: healthy again (and the clear is
        // emitted for the logger to file).
        busy.add(500);
        idle.inc();
        assert!(!engine.tick()[0].firing);
    }
}
