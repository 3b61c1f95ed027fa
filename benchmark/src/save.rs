//! `save_durable`: a client's save through the log to a durable record.
//!
//! Two writer threads call `Database::save`/`delete` directly (no HTTP
//! task, no sockets) on disjoint partitions of a file-backed database
//! that is larger than its buffer pool, under `CommitMode::Force`, with
//! one attached view. The path is the ROADMAP's second headline: per-note
//! lock, engine mutex, old-revision load, content hash, encode, B-tree
//! and heap writes, WAL append and flush, MVCC publish, view notify — and
//! two writers make the critical section measurable.
//!
//! The file sits behind `CrashDisk`, which holds page writes back until
//! the engine syncs. After the measured phase the benchmark *crashes* the
//! store — unsynced page writes are discarded and the database is dropped
//! without shutdown (killing the process would leave the OS cache
//! intact) — reopens it, and checks every acknowledged save and delete
//! against the recovered database.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use domino_core::{Database, Note};
use domino_storage::{CommitMode, CrashDisk, CrashMode, NsfFile};
use domino_types::{DominoError, LogicalClock, Unid, Value};
use domino_views::View;
use domino_wal::FileLogStore;

use crate::fixture::{self, Doc, WorkDir};
use crate::report::Outcome;
use crate::rng::{self, Fnv64, SplitMix64, Zipf};
use crate::rounds::{self, Timing, Worker};
use crate::trace::{Budget, Recorder, Span};
use crate::{probes, stats, Args, Sub, SETUPS};

pub const WRITERS: usize = 2;
/// Equal consecutive rounds a sub-run's measured phase is cut into.
const ROUNDS: usize = 10;
/// Saves and deletes per second of `--seconds` the op lists are sized
/// for (see `web::READ_OPS_PER_SECOND`).
const OPS_PER_SECOND: usize = 6500;
/// ~36 MB of notes against a 16 MiB buffer pool.
const DOCS: usize = 8000;
const ZIPF_S: f64 = 1.0;
const CREATED_SEQ_BASE: u32 = 1_000_000;
/// Timed opens behind `wal.recover_ms` and `storage.reopen_ms`.
const TIMED_OPENS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Rewrite `Subject`, and with `second` 1 also `Status`, 2 `Priority`.
    Update {
        rank: u32,
        val: u64,
        second: u8,
    },
    Create {
        val: u64,
    },
    Delete {
        rank: u32,
    },
}

/// Updates, creates and deletes in one block of the op list.
const MIX: [usize; 3] = [7, 2, 1];

/// Per-writer op lists (whole blocks) and their hash: 70 % updates over a
/// Zipf of the writer's partition, 20 % creates, 10 % deletes.
pub fn plan(seed: u64, docs: usize, total: usize) -> (Vec<Vec<Op>>, u64) {
    let zipf = Zipf::new(docs / WRITERS, ZIPF_S);
    let block: usize = MIX.iter().sum();
    assert_eq!(total % block, 0, "op lists are whole blocks");
    let mut hash = Fnv64::default();
    let mut lists = Vec::with_capacity(WRITERS);
    for w in 0..WRITERS {
        let mut rng = SplitMix64::fork(seed, 0xD0 + w as u64);
        let mut list = Vec::with_capacity(total);
        for _ in 0..total / block {
            for kind in rng::block(&MIX, &mut rng) {
                let op = match kind {
                    0 => Op::Update {
                        rank: zipf.sample(&mut rng) as u32,
                        val: rng.next_u64(),
                        // Half the updates touch a second item.
                        second: [0, 0, 1, 2][rng.below(4) as usize],
                    },
                    1 => Op::Create {
                        val: rng.next_u64(),
                    },
                    _ => Op::Delete {
                        rank: zipf.sample(&mut rng) as u32,
                    },
                };
                let words: [u64; 3] = match op {
                    Op::Update { rank, val, second } => {
                        [u64::from(rank) << 8 | u64::from(second), val, 1]
                    }
                    Op::Create { val } => [0, val, 2],
                    Op::Delete { rank } => [rank.into(), 0, 3],
                };
                for w in words {
                    hash.write_u64(w);
                }
                list.push(op);
            }
        }
        lists.push(list);
    }
    (lists, hash.finish())
}

/// The database under test and the handles the crash needs.
pub struct Store {
    pub db: Arc<Database>,
    disk: Arc<CrashDisk<NsfFile>>,
    _view: View,
    pub docs: Vec<Doc>,
    pub nsf: PathBuf,
    clock: LogicalClock,
}

fn open_store(nsf: &Path, clock: &LogicalClock) -> (Arc<Database>, Arc<CrashDisk<NsfFile>>) {
    let disk = Arc::new(CrashDisk::new(NsfFile::open(nsf).expect("open nsf")));
    let log = FileLogStore::open(&nsf.with_extension("txn")).expect("open txn");
    let db = Database::open(
        Box::new(disk.clone()),
        Some(Box::new(log)),
        fixture::db_config("durable", 1, CommitMode::Force),
        clock.clone(),
    )
    .expect("open database");
    (Arc::new(db), disk)
}

/// Load `docs` documents without a log, shut down cleanly,
/// reopen under `Force` behind a `CrashDisk`, attach the date view.
pub fn build_store(seed: u64, docs: usize, dir: &Path) -> Store {
    let nsf = dir.join("durable.nsf");
    remove_store(&nsf);
    let clock = fixture::clock(1);
    let load = Database::open_path(&nsf, fixture::load_config("durable", 1), clock.clone())
        .expect("open_path");
    let model = fixture::populate(&load, seed, docs);
    load.shutdown().expect("clean shutdown after load");
    drop(load);
    let (db, disk) = open_store(&nsf, &clock);
    let view = View::attach(&db, fixture::view_designs().swap_remove(0)).expect("attach view");
    Store {
        db,
        disk,
        _view: view,
        docs: model,
        nsf,
        clock,
    }
}

const STORE_EXTS: [&str; 4] = ["nsf", "txn", "master", "base"];

fn remove_store(nsf: &Path) {
    for ext in STORE_EXTS {
        let _ = std::fs::remove_file(nsf.with_extension(ext));
    }
}

/// Copy a store's files (missing sidecars are removed at the target, so
/// the copy is the whole image and nothing else).
fn copy_store(from: &Path, to: &Path) {
    for ext in STORE_EXTS {
        let (src, dst) = (from.with_extension(ext), to.with_extension(ext));
        if src.exists() {
            std::fs::copy(&src, &dst).expect("copy store file");
        } else {
            let _ = std::fs::remove_file(&dst);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Update,
    Create,
    Delete,
}

/// One writer: its partition's model and what it measured.
pub struct Writer {
    id: usize,
    pub docs: Vec<Doc>,
    pub live: Vec<usize>,
    /// Documents this writer deleted (must stay deleted after recovery).
    pub deleted: Vec<Unid>,
    created: u32,
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<(u64, Kind)>,
    pub checkpoint_ms: Vec<f64>,
}

impl Writer {
    pub fn new(id: usize, all: &[Doc]) -> Writer {
        let docs: Vec<Doc> = all
            .iter()
            .filter(|d| d.seq as usize % WRITERS == id)
            .cloned()
            .collect();
        Writer {
            id,
            live: (0..docs.len()).collect(),
            docs,
            deleted: Vec::new(),
            created: 0,
            attempted: 0,
            failed: 0,
            samples: Vec::new(),
            checkpoint_ms: Vec::new(),
        }
    }

    /// Execute `op` against `db`, timing only the save or delete itself;
    /// the model follows every acknowledged write.
    pub fn apply(&mut self, db: &Database, op: Op) -> (Duration, Kind) {
        let (result, dur, kind) = match op {
            Op::Update { rank, val, second } => {
                let idx = self.live[rank as usize % self.live.len()];
                let mut r = SplitMix64::new(val);
                let subject = fixture::subject_text(&mut r);
                let status = fixture::status_name(&mut r);
                let priority = r.range(1, 5) as u8;
                // A client opens the document, edits it, saves it; only
                // the save is the durable-write path being timed.
                let (result, dur) = match db.open_by_unid(self.docs[idx].unid) {
                    Ok(mut note) => {
                        note.set("Subject", Value::text(subject.clone()));
                        match second {
                            1 => {
                                note.set("Status", Value::text(status));
                            }
                            2 => {
                                note.set("Priority", Value::Number(priority.into()));
                            }
                            _ => {}
                        }
                        let t = Instant::now();
                        let result = db.save(&mut note);
                        (result, t.elapsed())
                    }
                    Err(e) => (Err(e), Duration::ZERO),
                };
                if result.is_ok() {
                    let d = &mut self.docs[idx];
                    d.subject = subject;
                    match second {
                        1 => d.status = status,
                        2 => d.priority = priority,
                        _ => {}
                    }
                }
                (result, dur, Kind::Update)
            }
            Op::Create { val } => {
                let seq = (self.id as u32 + 1) * CREATED_SEQ_BASE + self.created;
                let (mut doc, mut note): (Doc, Note) =
                    fixture::gen_doc(&mut SplitMix64::new(val), seq);
                let t = Instant::now();
                let result = db.save(&mut note);
                let dur = t.elapsed();
                if result.is_ok() {
                    doc.unid = note.unid();
                    doc.id = note.id;
                    self.created += 1;
                    self.live.push(self.docs.len());
                    self.docs.push(doc);
                }
                (result, dur, Kind::Create)
            }
            Op::Delete { rank } => {
                let at = rank as usize % self.live.len();
                let idx = self.live[at];
                let t = Instant::now();
                let result = db.delete(self.docs[idx].id).map(|_| ());
                let dur = t.elapsed();
                if result.is_ok() {
                    self.live.swap_remove(at);
                    self.deleted.push(self.docs[idx].unid);
                }
                (result, dur, Kind::Delete)
            }
        };
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("writer {}: {op:?} failed: {e}", self.id);
            }
        }
        (dur, kind)
    }

    fn user_bytes(&self) -> u64 {
        self.live.iter().map(|i| self.docs[*i].user_bytes()).sum()
    }
}

struct SaveWorker<'a> {
    writer: &'a mut Writer,
    ops: &'a [Op],
    db: &'a Database,
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Worker for SaveWorker<'_> {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run(&mut self, from: usize, to: usize) {
        for i in from..to {
            let (dur, kind) = self.writer.apply(self.db, self.ops[i]);
            self.writer.samples.push((dur.as_nanos() as u64, kind));
            if let Some(spans) = &mut self.spans {
                // The timed call is the last thing `apply` does.
                let end_ns = self.epoch.elapsed().as_nanos() as u64;
                spans.push(Span {
                    name: match kind {
                        Kind::Update => "save.update",
                        Kind::Create => "save.create",
                        Kind::Delete => "save.delete",
                    },
                    start_ns: end_ns.saturating_sub(dur.as_nanos() as u64),
                    end_ns,
                    parent: -1,
                    op_id: ((self.writer.id as u64) << 32) | i as u64,
                });
            }
            // Writer 0 invokes one checkpoint half-way through every round:
            // all rounds carry the same, and the crash after the last one
            // leaves half a round of acknowledged writes to redo.
            if self.writer.id == 0 && i == (from + to) / 2 {
                let t = Instant::now();
                self.db.checkpoint_incremental(64).expect("checkpoint");
                self.writer
                    .checkpoint_ms
                    .push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
}

/// Run ops `from..to` of every writer's list in `rounds` rounds.
fn run_part(
    writers: &mut [Writer],
    lists: &[Vec<Op>],
    (from, to): (usize, usize),
    rounds: usize,
    db: &Database,
    deadline: Option<Instant>,
    rec: Option<&mut Recorder>,
) -> (Timing, Vec<(u64, Kind)>) {
    for w in writers.iter_mut() {
        w.samples.clear();
    }
    let epoch = rec.as_ref().map_or_else(Instant::now, |r| r.epoch());
    let mut workers: Vec<SaveWorker<'_>> = writers
        .iter_mut()
        .zip(lists)
        .map(|(writer, list)| SaveWorker {
            writer,
            ops: &list[from..to],
            db,
            epoch,
            spans: rec.is_some().then(Vec::new),
        })
        .collect();
    let timing = rounds::run(&mut workers, rounds, deadline);
    let spans: Vec<Vec<Span>> = workers.iter_mut().filter_map(|w| w.spans.take()).collect();
    drop(workers);
    if let Some(rec) = rec {
        for s in spans {
            rec.extend(s);
        }
    }
    let samples = writers
        .iter()
        .flat_map(|w| w.samples.iter().copied())
        .collect();
    (timing, samples)
}

/// Check every acknowledged write of `writers` against `db`: live
/// documents read back with the values last saved, deleted ones are gone.
fn verify(out: &mut Outcome, db: &Database, writers: &[Writer]) {
    for w in writers {
        for idx in &w.live {
            let d = &w.docs[*idx];
            let ok = db.open_by_unid(d.unid).is_ok_and(|n| {
                n.get_text("Subject").as_deref() == Some(d.subject.as_str())
                    && n.get_text("Status").as_deref() == Some(d.status)
                    && n.get("Priority") == Some(&Value::Number(d.priority.into()))
                    && n.get_text("Seq").as_deref() == Some(d.seq_text().as_str())
            });
            if !ok {
                let got = db.open_by_unid(d.unid).map(|n| {
                    (
                        n.get_text("Subject"),
                        n.get_text("Status"),
                        n.get_text("Priority"),
                        n.oid.seq,
                    )
                });
                eprintln!(
                    "lost write: {} (seq {}) should hold {:?}/{}/{} but holds {got:?}",
                    d.unid, d.seq, d.subject, d.status, d.priority
                );
            }
            out.check(ok);
        }
        for unid in &w.deleted {
            let gone = matches!(db.open_by_unid(*unid), Err(DominoError::NotFound(_)));
            if !gone {
                eprintln!("lost delete: {unid} is still readable");
            }
            out.check(gone);
        }
    }
}

/// Corpus size and the op-list unit, per writer (see `web::sizes`): a
/// sub-run is 11 units, one of warm-up and one per round.
fn sizes(args: &Args) -> (usize, usize) {
    let mut per_writer = OPS_PER_SECOND * args.seconds as usize / WRITERS;
    let mut docs = DOCS;
    if args.quick {
        per_writer /= 20;
        docs /= 10;
    }
    let block: usize = MIX.iter().sum();
    (
        docs,
        (per_writer / (SETUPS * (ROUNDS + 1)) / block).max(1) * block,
    )
}

fn sorted(samples: &[(u64, Kind)], keep: impl Fn(Kind) -> bool) -> Vec<u64> {
    stats::sorted(samples.iter().filter(|s| keep(s.1)).map(|s| s.0).collect())
}

/// The op lists (and their hash) a run with `args` executes.
pub fn plan_for(args: &Args) -> (Vec<Vec<Op>>, u64) {
    let (n_docs, unit) = sizes(args);
    plan(args.seed, n_docs, SETUPS * (ROUNDS + 1) * unit)
}

pub fn run(args: &Args) -> Outcome {
    let (n_docs, unit) = sizes(args);
    let sub_ops = (ROUNDS + 1) * unit;
    let work = WorkDir::create();
    let (lists, hash) = plan_for(args);
    let mut head = Outcome::default();
    head.fact("op_list_hash", format!("{hash:016x}"));
    head.fact("clients", WRITERS);
    head.fact("documents", n_docs);
    head.fact("ops_per_client", SETUPS * sub_ops);
    head.fact("fixture_fs", work.fs_type());

    // A traced run measures the last third only: the whole list would
    // triple the store, and the fourteen timed opens copy it each time.
    let (subs, setups) = crate::sub_runs(
        args.trace,
        sub_ops,
        SETUPS - 1,
        || build_store(args.seed, n_docs, work.path()),
        |store, span| measure(args, store, &lists, span, &work),
    );
    // p95, not p99: on one vCPU about one save in forty waits out the
    // other writer's 4 ms time slice, so p99 reads 4.1 ms whatever the
    // program does.
    crate::combine(head, subs, &setups, 0.95, "saves and deletes")
}

/// Run ops `from..to` of every writer's list against `store` — an
/// eleventh of warm-up, then the measured rounds — then crash it, recover
/// it and check every acknowledged write.
fn measure(
    args: &Args,
    store: Store,
    lists: &[Vec<Op>],
    (from, to): (usize, usize),
    work: &WorkDir,
) -> Sub {
    let mut out = Outcome::default();
    let warm = (to - from) / (ROUNDS + 1);
    let measured = to - from - warm;
    let n_docs = store.docs.len();

    let mut writers: Vec<Writer> = (0..WRITERS).map(|w| Writer::new(w, &store.docs)).collect();
    // Warm-up, untimed.
    run_part(
        &mut writers,
        lists,
        (from, from + warm),
        1,
        &store.db,
        None,
        None,
    );

    let before = domino_obs::snapshot();
    let engine_before = store.db.engine_stats();
    let deadline = Instant::now() + Duration::from_millis(args.seconds * 1500 / SETUPS as u64);
    let mut rec = Recorder::new(Instant::now());
    let (timing, samples);
    let mut untraced_ops_per_s = None;
    if !args.trace {
        (timing, samples) = run_part(
            &mut writers,
            lists,
            (from + warm, to),
            ROUNDS,
            &store.db,
            Some(deadline),
            None,
        );
    } else {
        // Half the rounds with the recorder on, half with it off.
        let mid = from + warm + measured / 2;
        (timing, samples) = run_part(
            &mut writers,
            lists,
            (from + warm, mid),
            ROUNDS / 2,
            &store.db,
            None,
            Some(&mut rec),
        );
        let (off, _) = run_part(
            &mut writers,
            lists,
            (mid, to),
            ROUNDS / 2,
            &store.db,
            None,
            None,
        );
        untraced_ops_per_s = Some(off.ops_per_s());
    }
    let delta = domino_obs::snapshot().diff(&before);
    let engine_after = store.db.engine_stats();
    let writes_done = timing.ops() + untraced_ops_per_s.map_or(0, |_| timing.ops());

    for w in &writers {
        out.attempted += w.attempted;
        out.failed += w.failed;
    }
    for kind in [Kind::Update, Kind::Create, Kind::Delete] {
        let v = sorted(&samples, |k| k == kind);
        if !v.is_empty() {
            out.fact(
                &format!("{kind:?}_n_p50_max_us"),
                format!(
                    "{} {:.1} {:.1}",
                    v.len(),
                    stats::p50_us(&v),
                    v[v.len() - 1] as f64 / 1e3
                ),
            );
        }
    }
    let hits = (engine_after.pool_hits - engine_before.pool_hits) as f64;
    let misses = (engine_after.pool_misses - engine_before.pool_misses) as f64;
    out.fact(
        "pool_hit_ratio",
        format!("{:.4}", hits / (hits + misses).max(1.0)),
    );
    out.fact("log_flushes", delta.counter("Log.Flushes"));

    // Crash: discard what the engine never synced, drop without shutdown.
    let unsynced = store.disk.pending_writes();
    store.disk.crash(CrashMode::DropUnsynced).expect("crash");
    out.fact("crash_dropped_page_writes", unsynced);
    let Store {
        db,
        disk,
        _view,
        nsf,
        clock,
        ..
    } = store;
    drop(_view);
    drop(db);
    drop(disk);

    let crashed = work.path().join("crashed.nsf");
    if args.trace {
        copy_store(&nsf, &crashed);
    }
    let open = |path: &Path| {
        Database::open_path(
            path,
            fixture::db_config("durable", 1, CommitMode::Force),
            clock.clone(),
        )
        .expect("open after crash")
    };
    // Recover, and check every acknowledged write against what came back.
    let recovered = open(&nsf);
    let recovery = recovered.recovery_stats();
    out.fact("recovery_ran", recovery.is_some());
    verify(&mut out, &recovered, &writers);
    recovered.checkpoint().expect("final checkpoint");
    recovered.shutdown().expect("clean shutdown");
    drop(recovered);
    let user_bytes: u64 = writers.iter().map(Writer::user_bytes).sum();
    let stored = crate::web::file_bytes(&nsf);
    out.set(
        "file_bytes_per_user_byte",
        stored as f64 / user_bytes as f64,
    );
    out.fact("user_bytes", user_bytes);
    out.fact("stored_bytes", stored);

    if args.trace {
        out.set(
            "obs.trace_overhead_pct",
            untraced_ops_per_s.map_or(0.0, |off| (off - timing.ops_per_s()) / off * 100.0),
        );
        crate::storage_layers(
            &mut out,
            &delta,
            engine_before,
            engine_after,
            writes_done,
            user_bytes,
        );
        let ckpt: Vec<f64> = writers
            .iter()
            .flat_map(|w| w.checkpoint_ms.iter().copied())
            .collect();
        if !ckpt.is_empty() {
            out.set("storage.checkpoint_ms", stats::median(&ckpt));
        }
        if let Some(r) = recovery {
            out.set("wal.recovery_records", r.analyzed as f64);
            out.set("wal.redone", r.redone as f64);
        }

        // Restart times: the crashed image recovered, and the cleanly
        // shut image reopened, each restored (untimed) before every open.
        let scratch = work.path().join("scratch.nsf");
        let timed_opens = |image: &Path, name: &'static str, rec: &mut Recorder| {
            for i in 0..TIMED_OPENS {
                copy_store(image, &scratch);
                let db = rec.time(name, i as u64, || open(&scratch));
                drop(db);
            }
            rec.p50_us(name) / 1e3
        };
        out.set(
            "wal.recover_ms",
            timed_opens(&crashed, "wal.recover", &mut rec),
        );
        let hydrated_before = domino_obs::snapshot();
        out.set(
            "storage.reopen_ms",
            timed_opens(&nsf, "storage.reopen", &mut rec),
        );

        // Leaves, on the recovered store and an in-memory twin.
        let reopened = Arc::new(open(&nsf));
        let unids: Vec<Unid> = writers[0]
            .live
            .iter()
            .map(|i| writers[0].docs[*i].unid)
            .collect();
        probes::core(&mut rec, &mut out, &reopened, &unids);
        out.set(
            "core.hydrated",
            domino_obs::snapshot()
                .diff(&hydrated_before)
                .counter("Db.Snapshot.Hydrated") as f64,
        );
        out.set(
            "core.snapshot_versions",
            reopened.snapshot_stats().retained_versions as f64,
        );
        probes::formula(&mut rec, &mut out, &reopened, &unids);
        probes::frame_codec(&mut rec, &mut out);
        probes::views(&mut rec, &mut out, &reopened, &unids);
        let record_bytes = delta.counter("Log.BytesAppended") / delta.counter("Log.Records").max(1);
        probes::wal(&mut rec, &mut out, work.path(), record_bytes as usize);
        drop(reopened);
        let mem_us = save_on_memory_twin(&mut rec, args.seed, n_docs, &lists[0][from..to]);
        out.set("core.save_mem_us", mem_us);

        // The save's budget: what outside probes explain of the update
        // median. B-tree and heap writes, the engine mutex and the MVCC
        // publish cannot be isolated from outside, so the remainder is
        // expected to be large.
        let m = |out: &Outcome, k: &str| out.metrics.get(k).copied().unwrap_or(0.0);
        let update_us = stats::p50_us(&sorted(&samples, |k| k == Kind::Update));
        let mut b = Budget::new("save_durable", update_us);
        b.row("core.lock_wait_us", m(&out, "core.lock_wait_us"))
            .row("core.hash_us", m(&out, "core.hash_us"))
            .row("core.revision_push_us", m(&out, "core.revision_push_us"))
            .row("core.encode_us", m(&out, "core.encode_us"))
            .row(
                "wal.append_flush_us x flushes_per_commit",
                m(&out, "wal.append_flush_us") * m(&out, "wal.flushes_per_commit"),
            )
            .row("views.apply_us", m(&out, "views.apply_us"));
        out.set("budget.unaccounted_us", b.unaccounted_us());
        out.budget.extend(b.lines());
        out.fact(
            "file_io_share_of_save_us",
            format!("{:.1}", update_us - mem_us),
        );
        match rec.write("save_durable") {
            Ok(path) => out.fact("trace_file", path.display()),
            Err(e) => out.fact("trace_file_error", e),
        }
        out.fact("trace_spans", rec.len());
    }
    let durations: Vec<u64> = samples.iter().map(|s| s.0).collect();
    Sub {
        out,
        by_round_ns: rounds::by_round(&durations, WRITERS, timing.rounds.len()),
        timing,
    }
}

/// `core.save_mem_us`: writer 0's op list replayed single-threaded on an
/// in-memory twin of the fixture (same corpus, same attached view), which
/// splits the engine's CPU from the file I/O in the durable save.
fn save_on_memory_twin(rec: &mut Recorder, seed: u64, n_docs: usize, ops: &[Op]) -> f64 {
    let db = fixture::open_in_memory("twin", 1);
    let docs = fixture::populate(&db, seed, n_docs);
    let _view = View::attach(&db, fixture::view_designs().swap_remove(0)).expect("attach view");
    let mut writer = Writer::new(0, &docs);
    let mut updates = Vec::new();
    for (i, op) in ops.iter().take(4000).enumerate() {
        let started = rec.epoch().elapsed();
        let (dur, kind) = writer.apply(&db, *op);
        if kind == Kind::Update {
            updates.push(dur.as_nanos() as u64);
            let end_ns = (started + dur).as_nanos() as u64;
            rec.extend(vec![Span {
                name: "core.save_mem",
                start_ns: started.as_nanos() as u64,
                end_ns,
                parent: -1,
                op_id: i as u64,
            }]);
        }
    }
    assert_eq!(writer.failed, 0, "twin replay failed");
    stats::p50_us(&stats::sorted(updates))
}
