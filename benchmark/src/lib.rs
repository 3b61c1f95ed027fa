//! The repo's benchmark (see `README.md` in this directory).

pub mod device;
pub mod fixture;
pub mod http;
pub mod probes;
pub mod repl;
pub mod report;
pub mod rng;
pub mod rounds;
pub mod save;
pub mod stats;
pub mod trace;
pub mod web;

use std::collections::BTreeMap;

use domino_obs::Snapshot;
use domino_storage::EngineStats;

use report::Outcome;
use rounds::Timing;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["web_read", "web_mixed", "save_durable", "replicate"];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Nominal length of the measured phase; sizes the fixed op list.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke scale: op counts divided by 20.
    pub quick: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--quick]`.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 12,
            trace: false,
            quick: false,
        };
        let mut argv = argv;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--quick" => args.quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, not {:?}",
                args.workload
            ));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }
}

/// What one sub-run (one fixture, one part of the op list) found out.
pub struct Sub {
    /// Checks, facts, budgets and every metric that is not a timing.
    pub out: Outcome,
    /// The measured rounds.
    pub timing: Timing,
    /// Latency samples (ns) of each round.
    pub by_round_ns: Vec<Vec<u64>>,
}

/// Times the fixture is built per run; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Build the fixture [`SETUPS`] times with `build`, timing each build, and
/// measure on them: a plain run measures sub-run `k` of the op list
/// (`k * sub_len..(k + 1) * sub_len`) on fixture `k`, so one unlucky heap
/// layout is a third of the rounds and not the run; a traced run measures
/// sub-runs `traced_from..` in one piece on the last fixture. Returns the
/// sub-runs and the build times in seconds.
pub fn sub_runs<F>(
    trace: bool,
    sub_len: usize,
    traced_from: usize,
    mut build: impl FnMut() -> F,
    mut measure: impl FnMut(F, (usize, usize)) -> Sub,
) -> (Vec<Sub>, Vec<f64>) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut subs = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let t = std::time::Instant::now();
        let fixture = build();
        setups.push(t.elapsed().as_secs_f64());
        if !trace {
            subs.push(measure(fixture, (k * sub_len, (k + 1) * sub_len)));
        } else if k == SETUPS - 1 {
            subs.push(measure(fixture, (traced_from * sub_len, SETUPS * sub_len)));
        }
    }
    (subs, setups)
}

/// Fold the sub-runs of one run into its outcome.
///
/// Checks add up; a metric the sub-runs set is the median of their
/// values; facts are kept under a `sub<k>.` prefix. The four timing
/// metrics are taken over the quiet third of *all* the run's rounds:
/// `ops_per_s` and `cpu_us_per_op` from their ops, wall and CPU time,
/// `p50_us` and the `tail` percentile from their pooled latency samples
/// (`what` names the samples). `setup_s` is the median of `setups`.
pub fn combine(
    mut head: Outcome,
    subs: Vec<Sub>,
    setups: &[f64],
    tail: f64,
    what: &str,
) -> Outcome {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut timing = Timing::default();
    let mut by_round_ns = Vec::new();
    let single = subs.len() == 1;
    for (k, sub) in subs.into_iter().enumerate() {
        head.attempted += sub.out.attempted;
        head.failed += sub.out.failed;
        for (name, v) in sub.out.metrics {
            values.entry(name).or_default().push(v);
        }
        for (name, v) in sub.out.facts {
            head.facts.push((
                if single {
                    name
                } else {
                    format!("sub{k}.{name}")
                },
                v,
            ));
        }
        head.budget.extend(sub.out.budget);
        timing.rounds.extend(sub.timing.rounds);
        by_round_ns.extend(sub.by_round_ns);
    }
    for (name, v) in values {
        head.set(name, stats::median(&v));
    }

    let quiet = timing.quiet();
    let pooled = stats::sorted(
        quiet
            .iter()
            .flat_map(|i| by_round_ns[*i].iter().copied())
            .collect(),
    );
    head.set("ops_per_s", timing.ops_per_s());
    head.set("cpu_us_per_op", timing.cpu_us_per_op());
    head.set("p50_us", stats::p50_us(&pooled));
    match stats::tail(&pooled, tail) {
        Ok((v, p)) => {
            head.set("tail_us", v as f64 / 1e3);
            head.fact(
                "tail_is",
                format!("p{:.0} of {} {what}", p * 100.0, pooled.len()),
            );
        }
        Err(why) => {
            head.fact("tail_refused", why);
            head.check(false);
        }
    }
    head.fact("rounds_completed", timing.rounds.len());
    head.fact("quiet_rounds", format!("{quiet:?}"));
    head.fact("round_ops_per_s", timing.describe());
    head.fact(
        "round_p50_us",
        by_round_ns
            .iter()
            .map(|r| format!("{:.1}", stats::p50_us(&stats::sorted(r.clone()))))
            .collect::<Vec<_>>()
            .join(" "),
    );

    head.set("setup_s", stats::median(setups));
    head.fact(
        "setups_s",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    head.set("peak_rss_mb", stats::peak_rss_mb());
    head
}

/// Run the named workload.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "web_read" => web::run(args, false),
        "web_mixed" => web::run(args, true),
        "save_durable" => save::run(args),
        "replicate" => repl::run(args),
        other => unreachable!("Args::parse admitted workload {other:?}"),
    }
}

/// Hash of the op list `args` selects: a pure function of the workload,
/// the seed and the sizes, computed without touching a database.
pub fn op_list_hash(args: &Args) -> u64 {
    match args.workload.as_str() {
        "web_read" => web::plan_for(args, false).hash,
        "web_mixed" => web::plan_for(args, true).hash,
        "save_durable" => save::plan_for(args).1,
        "replicate" => repl::plan_for(args).2,
        other => unreachable!("Args::parse admitted workload {other:?}"),
    }
}

/// `storage.*`, `wal.*` and the other counter-derived layer metrics over a measured phase with `writes`
/// committed user writes of `user_bytes` live user data.
pub fn storage_layers(
    out: &mut Outcome,
    delta: &Snapshot,
    before: EngineStats,
    after: EngineStats,
    writes: u64,
    user_bytes: u64,
) {
    let per_write = |n: u64| n as f64 / (writes as f64).max(1.0);
    let hits = (after.pool_hits - before.pool_hits) as f64;
    let misses = (after.pool_misses - before.pool_misses) as f64;
    out.set(
        "storage.pool_hit_ratio",
        if hits + misses == 0.0 {
            1.0
        } else {
            hits / (hits + misses)
        },
    );
    out.set(
        "storage.page_reads_per_save",
        per_write(after.reads - before.reads),
    );
    out.set(
        "storage.page_writes_per_save",
        per_write(after.page_writes - before.page_writes),
    );
    out.set(
        "storage.evictions",
        (after.evictions - before.evictions) as f64,
    );
    out.set(
        "storage.checkpoint_pages",
        delta.counter("Database.Checkpoint.PagesWritten") as f64,
    );
    out.set(
        "storage.nsf_syncs_per_save",
        per_write(delta.counter("Nsf.File.Syncs")),
    );
    out.set(
        "storage.nsf_write_bytes_per_user_byte",
        delta.counter("Nsf.File.Writes") as f64 * 4096.0 / user_bytes as f64,
    );
    let commits = delta.counter("Database.Txn.Commits") as f64;
    out.set(
        "wal.flushes_per_commit",
        delta.counter("Log.Flushes") as f64 / commits.max(1.0),
    );
    out.set(
        "wal.bytes_per_user_byte",
        delta.counter("Log.BytesAppended") as f64 / user_bytes as f64,
    );
    let f_hits = delta.counter("Formula.Cache.Hits") as f64;
    out.set(
        "formula.cache_hit_ratio",
        f_hits / (f_hits + delta.counter("Formula.Cache.Misses") as f64).max(1.0),
    );
    let lock_waits = delta.histogram("Db.Lock.Wait.Micros");
    out.set(
        "core.lock_wait_us",
        lock_waits.sum as f64 / (lock_waits.count as f64).max(1.0),
    );
}
