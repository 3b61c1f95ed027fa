//! Criterion microbenches behind the EXPERIMENTS.md E2 group-commit table.
//!
//! Two views of commit durability cost over a log device with realistic
//! sync latency (`SlowLogStore`, 250µs per sync — an in-memory store syncs
//! in nanoseconds, which would hide the effect group commit exists for):
//!
//! 1. `save_*`: single-committer `Database::save` per commit mode. Group
//!    commit cannot help a lone committer; only no-force dodges the sync.
//! 2. `committers_*`: 8 threads sharing one `LogManager`, force-at-commit
//!    (`flush`) vs `commit_group`. The group leader amortizes one device
//!    sync across every concurrent committer; the printed summary reports
//!    commits/s, flushes per commit, and the force→group speedup.

use std::thread;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use domino_bench::workload::{make_doc, rng};
use domino_core::{Database, DbConfig};
use domino_storage::{CommitMode, EngineConfig, MemDisk};
use domino_types::{LogicalClock, ReplicaId, Result};
use domino_wal::{LogManager, LogRecord, LogStore, MemLogStore, TxId};

const SYNC_DELAY: Duration = Duration::from_micros(250);

/// In-memory log store with a realistic per-`sync` device latency.
struct SlowLogStore {
    inner: MemLogStore,
}

impl SlowLogStore {
    fn new() -> SlowLogStore {
        SlowLogStore {
            inner: MemLogStore::new(),
        }
    }
}

impl LogStore for SlowLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        thread::sleep(SYNC_DELAY);
        self.inner.sync()
    }
    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        self.inner.read_from(from)
    }
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn start(&self) -> Result<u64> {
        self.inner.start()
    }
    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        self.inner.truncate_prefix(upto)
    }
}

fn bench_single_committer(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_commit");
    for (label, mode) in [
        ("save_force", CommitMode::Force),
        // Zero door wait: a lone committer must not be taxed waiting for
        // followers that cannot exist (the Database is single-writer);
        // batching then comes only from commits racing an in-flight sync.
        (
            "save_group_commit",
            CommitMode::GroupCommit {
                max_wait: Duration::ZERO,
                max_batch: 8,
            },
        ),
        ("save_noforce", CommitMode::NoForce),
    ] {
        group.bench_function(label, |b| {
            let engine = EngineConfig {
                commit_mode: mode,
                ..EngineConfig::default()
            };
            let db = Database::open(
                Box::new(MemDisk::new()),
                Some(Box::new(SlowLogStore::new())),
                DbConfig::new("b", ReplicaId(1), ReplicaId(1)).with_engine(engine),
                LogicalClock::new(),
            )
            .unwrap();
            let mut r = rng(7);
            b.iter(|| {
                let mut d = make_doc(&mut r, 4, 32, 0);
                db.save(&mut d).unwrap();
            });
        });
    }
    group.finish();
}

/// `threads` concurrent committers, each appending and making `per_thread`
/// commit records durable. Returns (commits/s, device flushes, commits).
fn run_committers(threads: usize, per_thread: usize, group_commit: bool) -> (f64, u64, u64) {
    let mgr = LogManager::open(SlowLogStore::new()).unwrap();
    let t0 = Instant::now();
    thread::scope(|s| {
        for t in 0..threads {
            let mgr = &mgr;
            s.spawn(move || {
                for i in 0..per_thread {
                    let tx = TxId((t * 1_000_000 + i) as u64);
                    let lsn = mgr.append(&LogRecord::Commit { tx }).unwrap();
                    if group_commit {
                        // A short door wait (≪ sync latency) lets committers
                        // woken by the previous flush re-enqueue, filling the
                        // batch without taxing the leader when traffic stops.
                        mgr.commit_group(lsn, Duration::from_micros(50), threads)
                            .unwrap();
                    } else {
                        mgr.flush(lsn).unwrap();
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let stats = mgr.stats();
    let commits = (threads * per_thread) as u64;
    (
        commits as f64 / elapsed.as_secs_f64(),
        stats.flushes,
        commits,
    )
}

fn bench_concurrent_committers(_c: &mut Criterion) {
    let threads = 8;
    let per_thread = if criterion::quick_mode() { 50 } else { 2_000 };

    let (force_rate, force_flushes, commits) = run_committers(threads, per_thread, false);
    let (group_rate, group_flushes, _) = run_committers(threads, per_thread, true);

    println!(
        "engine_commit/committers_force                   {:>10.0} commits/s   {} flushes / {} commits ({:.2} flushes per commit)",
        force_rate,
        force_flushes,
        commits,
        force_flushes as f64 / commits as f64
    );
    println!(
        "engine_commit/committers_group                   {:>10.0} commits/s   {} flushes / {} commits ({:.2} flushes per commit)",
        group_rate,
        group_flushes,
        commits,
        group_flushes as f64 / commits as f64
    );
    println!(
        "engine_commit/committers_speedup                 {:.1}x (group commit vs force-at-commit, {} threads)",
        group_rate / force_rate,
        threads
    );
}

criterion_group!(benches, bench_single_committer, bench_concurrent_committers);
criterion_main!(benches);
