//! Crash-point tests: kill the I/O stack after a budgeted number of
//! operations (a `Faulty` log or disk on a `FaultPlan`) and verify restart
//! recovery restores a *prefix-consistent* store — no torn commits, pages
//! matching their page LSNs, a counter that agrees exactly with the set of
//! transactions whose commit records became durable.
//!
//! The second half runs the same workload against *actual files* —
//! `NsfFile` under a `CrashDisk` OS-cache model plus a `FileLogStore` —
//! and crashes with dropped, reordered, or torn unsynced page writes.

use std::sync::Arc;

use proptest::prelude::*;

use domino::core::{Database, DbConfig, Note};
use domino::storage::{
    CommitMode, CrashDisk, CrashMode, Disk, Engine, EngineConfig, MemDisk, NsfFile, PageBuf,
    PageType,
};
use domino::types::{DominoError, FaultPlan, Faulty, LogicalClock, ReplicaId, Value};
use domino::wal::{FileLogStore, LogManager, LogRecord, LogStore, Lsn, MemLogStore, TxId};

const COUNTER_OFF: u16 = 200;
const PATTERN_OFF: u16 = 256;
const PATTERN_LEN: usize = 32;

fn engine_over(
    disk: Box<dyn domino::storage::Disk>,
    log: Box<dyn domino::wal::LogStore>,
    mode: CommitMode,
) -> Engine {
    Engine::open(
        disk,
        Some(log),
        EngineConfig {
            buffer_capacity: 16,
            commit_mode: mode,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

/// First page a workload transaction can allocate: page 0 is the engine
/// catalog, page 1 the free-map root.
const COUNTER_PAGE: u32 = 2;

/// Transaction `i` (1-based) allocates one page, stamps it with `[i; 32]`,
/// and bumps a counter cell on the first allocated page — so the counter
/// read after recovery names exactly the committed prefix. Page ids are
/// deterministic: counter = 2, tx `i`'s page = 2 + i. With `ckpt_every`
/// nonzero, every `ckpt_every`-th transaction is followed by a full
/// checkpoint (writeback + log truncation) — the crash then lands with a
/// truncated log, exercising the sync-before-truncate discipline.
fn run_workload(e: &mut Engine, txs: u32, counter_page: u32, ckpt_every: u32) -> u32 {
    let mut committed = 0;
    for i in 1..=txs {
        let result: domino::types::Result<()> = (|| {
            let mut tx = e.begin()?;
            let p = e.alloc_page(&mut tx, PageType::Heap)?;
            assert_eq!(p, counter_page + i, "deterministic page allocation");
            e.write(&mut tx, p, PATTERN_OFF, &[i as u8; PATTERN_LEN])?;
            e.write(&mut tx, counter_page, COUNTER_OFF, &i.to_le_bytes())?;
            e.commit(tx)?;
            Ok(())
        })();
        match result {
            Ok(()) => committed = i,
            Err(_) => break, // injected fault: the "machine" dies here
        }
        if ckpt_every != 0 && i % ckpt_every == 0 && e.checkpoint().is_err() {
            break; // fault mid-checkpoint: the "machine" dies here
        }
    }
    committed
}

/// Reopen after the crash and check prefix consistency; errors (a detected
/// torn page) propagate to the caller to judge.
fn check_prefix_consistent(
    disk: Box<dyn domino::storage::Disk>,
    log: Box<dyn domino::wal::LogStore>,
    committed: u32,
    attempted: u32,
) -> domino::types::Result<()> {
    let mut e = Engine::open(
        disk,
        Some(log),
        EngineConfig {
            buffer_capacity: 16,
            ..EngineConfig::default()
        },
    )?;
    let c = e.fetch(COUNTER_PAGE)?.get_u32(COUNTER_OFF as usize);
    // Every transaction that returned from commit() is durable; every one
    // that died mid-flight was rolled back. The counter is the proof.
    assert_eq!(
        c, committed,
        "recovered counter must equal the committed prefix"
    );
    for i in 1..=attempted {
        let page = COUNTER_PAGE + i;
        let buf = e.fetch(page)?;
        let got = buf.bytes(PATTERN_OFF as usize, PATTERN_LEN);
        if i <= c {
            assert_eq!(got, &[i as u8; PATTERN_LEN][..], "committed tx {i} lost");
        } else {
            assert_eq!(got, &[0u8; PATTERN_LEN][..], "torn tx {i} leaked");
        }
    }
    Ok(())
}

fn assert_prefix_consistent(disk: MemDisk, log: MemLogStore, committed: u32, attempted: u32) {
    check_prefix_consistent(Box::new(disk), Box::new(log), committed, attempted).unwrap();
}

/// Baseline: the counter page, committed before faults arm.
fn commit_counter_page(e: &mut Engine) -> u32 {
    let mut tx = e.begin().unwrap();
    let counter_page = e.alloc_page(&mut tx, PageType::Heap).unwrap();
    assert_eq!(counter_page, COUNTER_PAGE);
    e.write(&mut tx, counter_page, COUNTER_OFF, &0u32.to_le_bytes())
        .unwrap();
    e.commit(tx).unwrap();
    counter_page
}

fn crash_at_log_op(budget: u64, txs: u32, mode: CommitMode) {
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let plan = FaultPlan::default();
    let mut e = engine_over(
        Box::new(disk.clone()),
        Box::new(Faulty::new(log.clone(), plan.clone())),
        mode,
    );
    let counter_page = commit_counter_page(&mut e);

    plan.arm(budget);
    let committed = run_workload(&mut e, txs, counter_page, 0);
    // Power cut: frames and the unsynced log tail vanish.
    e.crash();
    log.crash();
    plan.disarm();
    assert_prefix_consistent(disk, log, committed, txs);
}

/// ONE plan under both devices: the crash lands at global operation
/// `budget`, whichever device performs it: a page write, a disk sync, or
/// a log append, sync or truncation. Checkpoints every `ckpt_every`
/// transactions put page writeback and log truncation in the schedule.
fn crash_at_any_io_op(budget: u64, txs: u32, ckpt_every: u32) {
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let plan = FaultPlan::default();
    let mut e = engine_over(
        Box::new(Faulty::new(disk.clone(), plan.clone())),
        Box::new(Faulty::new(log.clone(), plan.clone())),
        CommitMode::Force,
    );
    let counter_page = commit_counter_page(&mut e);
    plan.arm(budget);
    let committed = run_workload(&mut e, txs, counter_page, ckpt_every);
    e.crash();
    log.crash();
    plan.disarm();
    assert_prefix_consistent(disk, log, committed, txs);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// One plan for the whole I/O stack: crash at any global operation
    /// index across the disk and the log of one engine.
    #[test]
    fn shared_plan_crash_at_any_disk_or_log_op(
        budget in 0u64..80, txs in 1u32..10, ckpt in 0u32..4
    ) {
        crash_at_any_io_op(budget, txs, ckpt);
    }

    /// Force-at-commit: crash after any number of log-store operations.
    #[test]
    fn recovery_is_prefix_consistent_force(budget in 0u64..40, txs in 1u32..12) {
        crash_at_log_op(budget, txs, CommitMode::Force);
    }

    /// Crash in the *disk* (page writeback) mid-checkpoint: committed data
    /// must still recover from the log, since the checkpoint only
    /// truncates after its record is durable.
    #[test]
    fn checkpoint_writeback_crash_loses_nothing(budget in 0u64..12, txs in 1u32..10) {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let plan = FaultPlan::default();
        let mut e = engine_over(
            Box::new(Faulty::new(disk.clone(), plan.clone())),
            Box::new(log.clone()),
            CommitMode::Force,
        );
        let mut tx = e.begin().unwrap();
        let counter_page = e.alloc_page(&mut tx, PageType::Heap).unwrap();
        e.write(&mut tx, counter_page, COUNTER_OFF, &0u32.to_le_bytes()).unwrap();
        e.commit(tx).unwrap();
        let committed = run_workload(&mut e, txs, counter_page, 0);
        prop_assert_eq!(committed, txs, "no faults armed during the workload");

        // Arm the disk fault, then checkpoint incrementally; writeback dies
        // somewhere in the middle (or survives, if the budget allows).
        plan.arm(budget);
        let _ = e.begin_checkpoint().and_then(|_| {
            while e.checkpoint_step(1)? {}
            e.complete_checkpoint()
        });
        e.crash();
        log.crash();
        plan.disarm();
        assert_prefix_consistent(disk, log, committed, txs);
    }
}

// ---------------------------------------------------------------------------
// File-backed crash points: the engine over an `NsfFile` behind a
// `CrashDisk` OS-cache model plus a real `FileLogStore`. The crash drops,
// reorders, or tears the unsynced data-page writes; recovery then runs
// against the actual post-crash file bytes.
// ---------------------------------------------------------------------------

static NEXT_CRASH_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn crash_dir() -> std::path::PathBuf {
    let n = NEXT_CRASH_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("domino-crash-points-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Prefix consistency over real files. The file log persists appended
/// records even when the *ack* was lost to the injected fault, so recovery
/// may legitimately include a few durable-but-unacked transactions past the
/// acked prefix: `committed <= c <= attempted`.
fn check_file_prefix_consistent(
    data: &std::path::Path,
    txn: &std::path::Path,
    committed: u32,
    attempted: u32,
) -> domino::types::Result<()> {
    let mut e = Engine::open(
        Box::new(NsfFile::open(data)?),
        Some(Box::new(FileLogStore::open(txn)?)),
        EngineConfig {
            buffer_capacity: 16,
            ..EngineConfig::default()
        },
    )?;
    let c = e.fetch(COUNTER_PAGE)?.get_u32(COUNTER_OFF as usize);
    assert!(
        (committed..=attempted).contains(&c),
        "recovered counter {c} outside [{committed}, {attempted}]"
    );
    for i in 1..=attempted {
        let buf = e.fetch(COUNTER_PAGE + i)?;
        let got = buf.bytes(PATTERN_OFF as usize, PATTERN_LEN);
        if i <= c {
            assert_eq!(got, &[i as u8; PATTERN_LEN][..], "committed tx {i} lost");
        } else {
            assert_eq!(got, &[0u8; PATTERN_LEN][..], "torn tx {i} leaked");
        }
    }
    Ok(())
}

/// One full round: format the file, run a faulted workload with interleaved
/// checkpoints, crash the OS cache in `mode`, reopen from the raw files and
/// return the consistency verdict.
fn file_crash_round(
    budget: u64,
    txs: u32,
    ckpt_every: u32,
    mode: CrashMode,
) -> domino::types::Result<()> {
    let dir = crash_dir();
    let data = dir.join("data.nsf");
    let txn = dir.join("data.txn");
    let cache = Arc::new(CrashDisk::new(NsfFile::open(&data).unwrap()));
    let plan = FaultPlan::default();
    let mut e = engine_over(
        Box::new(Arc::clone(&cache)),
        Box::new(Faulty::new(FileLogStore::open(&txn).unwrap(), plan.clone())),
        CommitMode::Force,
    );
    let counter_page = commit_counter_page(&mut e);

    plan.arm(budget);
    let committed = run_workload(&mut e, txs, counter_page, ckpt_every);
    // Power cut: frames vanish, then the OS cache loses/reorders/tears
    // whatever was never fsynced.
    e.crash();
    plan.disarm();
    cache.crash(mode).unwrap();
    drop(cache);

    let verdict = check_file_prefix_consistent(&data, &txn, committed, txs);
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Dropping every unsynced data-page write must always recover: the
    /// log retains everything past the last sync barrier.
    #[test]
    fn file_crash_drop_unsynced_recovers(budget in 0u64..60, txs in 1u32..10, ckpt in 0u32..4) {
        file_crash_round(budget, txs, ckpt, CrashMode::DropUnsynced)
            .expect("drop-unsynced crash must recover cleanly");
    }

    /// fsync reorder — an arbitrary subset of unsynced page writes lands,
    /// the rest vanish. Must always recover: log truncation only ever
    /// follows a data-file sync barrier.
    #[test]
    fn file_crash_reorder_recovers(
        budget in 0u64..60, txs in 1u32..10, ckpt in 0u32..4, seed in any::<u64>()
    ) {
        file_crash_round(budget, txs, ckpt, CrashMode::Reorder { seed })
            .expect("reordered-sync crash must recover cleanly");
    }

    /// A torn page (partial sector write) is allowed to fail recovery —
    /// but only with a *detected* corruption error ("restore from a
    /// replica"), never a silently wrong image.
    #[test]
    fn file_crash_torn_recovers_or_detects(
        budget in 0u64..60, txs in 1u32..10, ckpt in 0u32..4, seed in any::<u64>()
    ) {
        match file_crash_round(budget, txs, ckpt, CrashMode::Torn { seed }) {
            Ok(()) | Err(DominoError::Corrupt(_)) => {}
            Err(e) => panic!("torn crash surfaced a non-corruption error: {e}"),
        }
    }
}

/// Eight threads flushing concurrently race a log-store fault: every
/// flush() that returned Ok must be durable across the crash.
#[test]
fn concurrent_flush_crash_durability() {
    for budget in [1u64, 3, 7, 15, 40] {
        let store = MemLogStore::new();
        let plan = FaultPlan::default();
        let mgr = Arc::new(LogManager::open(Faulty::new(store.clone(), plan.clone())).unwrap());
        plan.arm(budget);
        let threads = 8;
        let per_thread = 20;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    let mut ok = 0u64;
                    for i in 0..per_thread {
                        let tx = TxId((t * 1000 + i) as u64);
                        let Ok(lsn) = mgr.append(&LogRecord::Commit { tx }) else {
                            break;
                        };
                        match mgr.flush(lsn) {
                            Ok(()) => ok += 1,
                            Err(_) => break,
                        }
                    }
                    ok
                })
            })
            .collect();
        let acked: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        store.crash();
        plan.disarm();
        let mgr2 = LogManager::open(store).unwrap();
        let durable = mgr2.scan(Lsn::NIL).unwrap().len() as u64;
        assert!(
            durable >= acked,
            "crash lost acknowledged flushes: {acked} acked, {durable} durable (budget {budget})"
        );
    }
}

/// A commit whose log write failed must not reach the disk later. The log
/// stays failed after the device recovers, so the WAL-rule flush before
/// evicting the page the transaction dirtied fails too and the page is
/// never written; otherwise it would carry bytes no durable record
/// explains, and recovery could not undo them.
#[test]
fn a_failed_commit_never_reaches_the_disk() {
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let plan = FaultPlan::default();
    let mut e = engine_over(
        Box::new(disk.clone()),
        Box::new(Faulty::new(log.clone(), plan.clone())),
        CommitMode::Force,
    );
    // Twice the pool's 16 frames, so fetching them all evicts every frame.
    let mut tx = e.begin().unwrap();
    let pages: Vec<u32> = (0..32)
        .map(|_| e.alloc_page(&mut tx, PageType::Heap).unwrap())
        .collect();
    e.commit(tx).unwrap();

    let victim = pages[0];
    let mut tx = e.begin().unwrap();
    e.write(&mut tx, victim, PATTERN_OFF, b"UNCOMMIT!").unwrap();
    plan.arm(0);
    assert!(e.commit(tx).is_err(), "the commit's log write fails");
    plan.disarm();
    let refused = pages[1..].iter().filter(|p| e.fetch(**p).is_err()).count();
    assert!(refused > 0, "evicting the uncommitted page must fail");
    e.crash();
    log.crash();

    let mut e = Engine::open(
        Box::new(disk),
        Some(Box::new(log)),
        EngineConfig {
            buffer_capacity: 16,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let got = e.fetch(victim).unwrap();
    assert_eq!(got.bytes(PATTERN_OFF as usize, 9), &[0u8; 9][..]);
}

/// A save whose commit record cannot be forced leaves no transaction
/// open behind it. The next save, and any other write, gets the log's
/// error (not "transaction still active"), the failed note is bound
/// nowhere, and a reopen over the same stores recovers exactly what was
/// committed before the failure.
#[test]
fn a_failed_commit_leaves_no_transaction_behind() {
    let (disk, log, plan) = (MemDisk::new(), MemLogStore::new(), FaultPlan::default());
    let clock = LogicalClock::new();
    let open = |log: Box<dyn LogStore>| {
        Database::open(
            Box::new(disk.clone()),
            Some(log),
            force_config(),
            clock.clone(),
        )
        .unwrap()
    };
    let db = open(Box::new(Faulty::new(log.clone(), plan.clone())));
    let mut kept = Note::document("Memo");
    kept.set("Subject", Value::text("kept"));
    db.save(&mut kept).unwrap();
    let before = db_content(&db);

    let mut lost = Note::document("Memo");
    lost.set("Subject", Value::text("lost"));
    plan.arm(0);
    let err = db.save(&mut lost).unwrap_err();
    plan.disarm();
    assert!(matches!(err, DominoError::Io(_)), "got {err:?}");
    let mut next = Note::document("Memo");
    assert_eq!(db.save(&mut next).unwrap_err(), err);
    assert_eq!(db.set_purge_interval(5).unwrap_err(), err);
    assert_eq!(db.id_of_unid(lost.unid()).unwrap(), None);
    drop(db);
    log.crash();

    let db = open(Box::new(log));
    assert_eq!(db_content(&db), before);
}

/// An uncommitted insert into fresh space is stolen to disk, and the
/// machine dies before the commit. The log holds the write as a tag-7
/// record, its zero before-image as a bare length (FORMAT.md §9), and
/// recovery undoes the stolen page from it: the zeros come back.
#[test]
fn a_stolen_insert_into_fresh_space_is_undone_from_a_zero_image_record() {
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let mut e = engine_over(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        CommitMode::Force,
    );
    let page = commit_counter_page(&mut e);
    let mut tx = e.begin().unwrap();
    e.write(&mut tx, page, PATTERN_OFF, &[0xAB; PATTERN_LEN])
        .unwrap();
    // Steal: the log is forced through the write, then the page goes out.
    e.flush_all_pages().unwrap();
    e.crash();
    log.crash();

    let mut on_disk = PageBuf::zeroed(page);
    disk.read_page(page, &mut on_disk).unwrap();
    assert_eq!(
        on_disk.bytes(PATTERN_OFF as usize, PATTERN_LEN),
        &[0xAB; PATTERN_LEN][..],
        "the uncommitted write reached the disk"
    );
    let bytes = log.read_from(log.start().unwrap()).unwrap();
    let (mut pos, mut zero_image_records) = (0, 0);
    while pos < bytes.len() {
        let tag = bytes[pos + 8];
        let rec = LogRecord::decode(&bytes, &mut pos).unwrap().unwrap();
        if let LogRecord::Update {
            page: p,
            offset,
            before,
            ..
        } = rec
        {
            if (p, offset) == (page, PATTERN_OFF) {
                assert_eq!((tag, before), (7, vec![0; PATTERN_LEN]));
                zero_image_records += 1;
            }
        }
    }
    assert_eq!(zero_image_records, 1);

    let mut e = Engine::open(
        Box::new(disk),
        Some(Box::new(log)),
        EngineConfig {
            buffer_capacity: 16,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(e.recovery.map(|r| (r.loser_txs, r.undone)), Some((1, 1)));
    let got = e.fetch(page).unwrap();
    assert_eq!(
        got.bytes(PATTERN_OFF as usize, PATTERN_LEN),
        &[0u8; PATTERN_LEN][..]
    );
}

// ---------------------------------------------------------------------------
// A crash in the session *after* a clean shutdown. Shutdown discards the
// log; pages keep the LSNs the discarded records stamped on them. If the
// next session's LSNs restarted below those, redo would skip its records
// and acknowledged saves would come back in their pre-shutdown state.
// ---------------------------------------------------------------------------

/// Load with logging on, shut down cleanly, reopen, update every note
/// under `Force` with no checkpoint, crash, reopen: every acknowledged
/// save must be present at its new sequence number. `open` opens the
/// database over the same devices each time; `crash` cuts their power.
fn crash_after_clean_shutdown(open: &dyn Fn() -> Database, crash: &dyn Fn()) {
    const NOTES: usize = 120;
    let db = open();
    let mut notes = Vec::new();
    for i in 0..NOTES {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(format!("loaded {i}")));
        n.set_body("Body", Value::text("b".repeat(600)));
        db.save(&mut n).unwrap();
        notes.push(n);
    }
    db.shutdown().unwrap();
    drop(db);

    let db = open();
    assert!(db.recovery_stats().is_none(), "clean shutdown left a log");
    for (i, n) in notes.iter_mut().enumerate() {
        n.set("Subject", Value::text(format!("updated {i}")));
        db.save(n).unwrap();
    }
    drop(db);
    crash();

    let db = open();
    assert!(
        db.recovery_stats().is_some(),
        "the crash left nothing to redo"
    );
    for n in &notes {
        let got = db.open_note(n.id).unwrap();
        assert_eq!(got.oid, n.oid, "acknowledged save of {} lost", n.id);
        assert_eq!(got.get("Subject"), n.get("Subject"));
    }
}

fn force_config() -> DbConfig {
    DbConfig::new("Crash", ReplicaId(1), ReplicaId(9)).with_engine(EngineConfig {
        commit_mode: CommitMode::Force,
        ..EngineConfig::default()
    })
}

#[test]
fn crash_after_clean_shutdown_keeps_acknowledged_saves() {
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let clock = LogicalClock::new();
    crash_after_clean_shutdown(
        &|| {
            Database::open(
                Box::new(disk.clone()),
                Some(Box::new(log.clone())),
                force_config(),
                clock.clone(),
            )
            .unwrap()
        },
        &|| log.crash(),
    );
}

#[test]
fn file_crash_after_clean_shutdown_keeps_acknowledged_saves() {
    let dir = crash_dir();
    let data = dir.join("data.nsf");
    let txn = dir.join("data.txn");
    let cache = Arc::new(CrashDisk::new(NsfFile::open(&data).unwrap()));
    let clock = LogicalClock::new();
    crash_after_clean_shutdown(
        &|| {
            Database::open(
                Box::new(Arc::clone(&cache)),
                Some(Box::new(FileLogStore::open(&txn).unwrap())),
                force_config(),
                clock.clone(),
            )
            .unwrap()
        },
        &|| cache.crash(CrashMode::DropUnsynced).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// A crash between the file-system steps of a log truncation. Truncation is
// where `data.txn` is rewritten; every mix of old and new files such a
// crash can leave on disk must reopen with each acknowledged save, and the
// next session's LSNs must stay above the ones the pages carry.
// ---------------------------------------------------------------------------

/// Every file in `dir`, by name.
fn store_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Open `nsf` and check every note reads back as last acknowledged.
fn open_with_saves(
    nsf: &std::path::Path,
    clock: &LogicalClock,
    notes: &[Note],
) -> Result<Database, String> {
    let db = Database::open_path(nsf, force_config(), clock.clone())
        .map_err(|e| format!("open: {e}"))?;
    for n in notes {
        let got = db.open_note(n.id).map_err(|e| format!("{}: {e}", n.id))?;
        if got.oid != n.oid || got.get("Subject") != n.get("Subject") {
            return Err(format!("acknowledged save of {} lost", n.id));
        }
    }
    Ok(db)
}

/// Reopen an image, then run one more session on it: update every note,
/// cut the power before any page is written back, reopen. Redo must
/// replay that session, so its LSNs must sit above the pages'.
fn check_image(nsf: &std::path::Path, clock: &LogicalClock, notes: &[Note]) -> Result<(), String> {
    let db = open_with_saves(nsf, clock, notes)?;
    let mut next = notes.to_vec();
    for n in &mut next {
        n.set("Subject", Value::text(format!("after {}", n.id)));
        db.save(n).map_err(|e| format!("save: {e}"))?;
    }
    drop(db);
    open_with_saves(nsf, clock, &next).map(drop)
}

#[test]
fn file_log_truncation_leaves_old_or_new_log() {
    let dir = crash_dir();
    let nsf = dir.join("data.nsf");
    let clock = LogicalClock::new();
    let db = Database::open_path(&nsf, force_config(), clock.clone()).unwrap();
    let mut notes: Vec<Note> = (0..40).map(|_| Note::document("Memo")).collect();
    for (round, upto) in [(0, 20), (1, 40)] {
        for (i, n) in notes[..upto].iter_mut().enumerate() {
            n.set("Subject", Value::text(format!("round {round} note {i}")));
            n.set_body("Body", Value::text("b".repeat(300)));
            db.save(n).unwrap();
        }
        if round == 0 {
            db.checkpoint().unwrap(); // so the log already has a base
        }
    }
    // The next checkpoint syncs `data.nsf`, then truncates the log; the
    // process dies right after. Copies from either side of it give every
    // file's old and new contents.
    let before = store_files(&dir);
    db.checkpoint().unwrap();
    let after = store_files(&dir);
    drop(db);

    // `data.nsf` was synced before the truncation began. Each other file
    // is old or new, in any mix (each rename reaches the disk on its own),
    // and a temp copy of the new log, whole or cut short, may sit beside.
    let names: std::collections::BTreeSet<&String> = before.keys().chain(after.keys()).collect();
    let new_log = &after["data.txn"];
    let mut files: Vec<(String, Vec<Option<&Vec<u8>>>)> = names
        .into_iter()
        .filter(|n| n.as_str() != "data.nsf")
        .map(|n| {
            let mut versions = vec![before.get(n), after.get(n)];
            versions.dedup();
            (n.clone(), versions)
        })
        .collect();
    let half = new_log[..new_log.len() / 2].to_vec();
    files.push((
        "data.txn.tmp".into(),
        vec![None, Some(&half), Some(new_log)],
    ));

    let mut failures = Vec::new();
    let images: usize = files.iter().map(|(_, v)| v.len()).product();
    for k in 0..images {
        let img_dir = dir.join(format!("image-{k}"));
        std::fs::create_dir_all(&img_dir).unwrap();
        std::fs::write(img_dir.join("data.nsf"), &after["data.nsf"]).unwrap();
        let (mut rest, mut label) = (k, Vec::new());
        for (name, versions) in &files {
            let version = versions[rest % versions.len()];
            rest /= versions.len();
            if let Some(bytes) = version {
                std::fs::write(img_dir.join(name), bytes).unwrap();
                let age = if before.get(name) == Some(bytes) {
                    "old"
                } else {
                    "new"
                };
                label.push(format!("{age} {name}"));
            }
        }
        if let Err(e) = check_image(&img_dir.join("data.nsf"), &clock, &notes) {
            failures.push(format!("[{}]: {e}", label.join(", ")));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        failures.is_empty(),
        "images that lose saves:\n{}",
        failures.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Database-level crash points: a schedule of mutations, among them edits
// that change only the summary and so write and log no body, cut short at
// each log operation in turn. Recovery must restore the database exactly as
// of the last acknowledged step.
// ---------------------------------------------------------------------------

type Step = fn(&Database, &mut Vec<Note>) -> domino::types::Result<()>;

fn set_subject(db: &Database, note: &mut Note, subject: &str) -> domino::types::Result<()> {
    note.set("Subject", Value::text(subject));
    db.save(note)
}

/// `notes[0]` carries a body that spans heap pages; `notes[1]` has none.
const SCHEDULE: &[Step] = &[
    |db, notes| {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("with body"));
        n.set_body("Body", Value::RichText(vec![0xA5; 6000]));
        db.save(&mut n)?;
        notes.push(n);
        Ok(())
    },
    |db, notes| {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("no body"));
        db.save(&mut n)?;
        notes.push(n);
        Ok(())
    },
    |db, notes| set_subject(db, &mut notes[0], "summary edit"),
    |db, notes| set_subject(db, &mut notes[1], "body-less edit"),
    |db, _| db.checkpoint(),
    |db, notes| set_subject(db, &mut notes[0], "summary edit after checkpoint"),
    |db, notes| {
        notes[0].set_body("Body", Value::RichText(vec![0x5A; 5000]));
        db.save(&mut notes[0])
    },
    |db, notes| set_subject(db, &mut notes[0], "summary edit after body edit"),
    |db, notes| {
        notes[0].remove("Body");
        db.save(&mut notes[0])
    },
    |db, notes| db.delete(notes[1].id).map(drop),
    |db, notes| set_subject(db, &mut notes[0], "last summary edit"),
];

/// Every document (OID and items, bodies included) and every stub, sorted.
/// Items are compared by name: a decoded note lists its summary items
/// before its body items, a note as saved keeps the order they were set in.
fn db_content(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .note_ids(None)
        .unwrap()
        .into_iter()
        .map(|id| {
            let n = db.open_note(id).unwrap();
            let mut items = n.items_raw().to_vec();
            items.sort_by(|a, b| a.name.cmp(&b.name));
            format!("doc {:?} {:?}", n.oid, items)
        })
        .chain(
            db.stubs()
                .unwrap()
                .into_iter()
                .map(|s| format!("stub {:?}", s.oid)),
        )
        .collect();
    out.sort();
    out
}

#[test]
fn a_save_that_logs_no_body_recovers_at_every_crash_point() {
    let config = || {
        DbConfig::new("Crash", ReplicaId(1), ReplicaId(9)).with_engine(EngineConfig {
            buffer_capacity: 16,
            commit_mode: CommitMode::Force,
            ..EngineConfig::default()
        })
    };
    for budget in 0u64.. {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let plan = FaultPlan::default();
        let clock = LogicalClock::new();
        let open = || {
            Database::open(
                Box::new(disk.clone()),
                Some(Box::new(Faulty::new(log.clone(), plan.clone()))),
                config(),
                clock.clone(),
            )
            .unwrap()
        };
        let db = open();
        let mut acked = db_content(&db);
        let mut notes = Vec::new();
        plan.arm(budget);
        let mut steps = 0;
        for step in SCHEDULE {
            if step(&db, &mut notes).is_err() {
                break;
            }
            acked = db_content(&db);
            steps += 1;
        }
        drop(db);
        log.crash();
        plan.disarm();
        assert_eq!(
            db_content(&open()),
            acked,
            "crash at log op {budget}, after {steps} acknowledged steps"
        );
        if steps == SCHEDULE.len() {
            break;
        }
    }
}
