//! Durability on real files: a database opened with `Database::open_path`
//! lives in one NSF file (plus a `.txn` log sibling) and survives
//! process-style close/reopen and crash/reopen cycles. Also the file
//! lifecycle: byte-identical reads across reopen, header-corruption
//! rejection (NSF and log), tempfile cleanup on drop, and stores written
//! by earlier builds.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use domino::core::{Database, DbConfig, Note};
use domino::obs;
use domino::replica::replicate;
use domino::storage::{
    BTree, Disk, Engine, EngineConfig, Heap, NsfFile, PageBuf, PageId, RecordPtr,
};
use domino::types::{
    Clock, DominoError, LogicalClock, NoteClass, NoteId, ReplicaId, Timestamp, Value,
};
use domino::wal::store::LOG_HEADER_LEN;
use domino::wal::{FileLogStore, LogRecord, TxId};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("domino-file-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Held by every test here that writes a log, so that one test can read
/// its own save's share of the process-wide `Log.BytesAppended` counter.
fn log_writer() -> MutexGuard<'static, ()> {
    static LOG: Mutex<()> = Mutex::new(());
    LOG.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn open_file_db(dir: &Path, clock: LogicalClock) -> Arc<Database> {
    Arc::new(
        Database::open_path(
            &dir.join("data.nsf"),
            DbConfig::new("FileDb", ReplicaId(1), ReplicaId(9)),
            clock,
        )
        .unwrap(),
    )
}

#[test]
fn clean_shutdown_and_reopen() {
    let _log = log_writer();
    let dir = temp_dir("clean");
    let clock = LogicalClock::new();
    let unid = {
        let db = open_file_db(&dir, clock.clone());
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("on disk"));
        n.set_body("Body", Value::RichText(vec![7u8; 9000]));
        db.save(&mut n).unwrap();
        db.shutdown().unwrap();
        n.unid()
    };
    let db = open_file_db(&dir, clock);
    assert!(db.recovery_stats().is_none(), "clean shutdown: no recovery");
    let n = db.open_by_unid(unid).unwrap();
    assert_eq!(n.get_text("Subject").unwrap(), "on disk");
    assert_eq!(n.get("Body"), Some(&Value::RichText(vec![7u8; 9000])));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dirty_close_recovers_from_file_log() {
    let _log = log_writer();
    let dir = temp_dir("dirty");
    let clock = LogicalClock::new();
    let unids: Vec<_> = {
        let db = open_file_db(&dir, clock.clone());
        let mut unids = Vec::new();
        for i in 0..50 {
            let mut n = Note::document("Memo");
            n.set("I", Value::Number(i as f64));
            db.save(&mut n).unwrap();
            unids.push(n.unid());
        }
        // NO shutdown: committed work lives only in the durable log (the
        // buffer pool never flushed).
        unids
    };
    let db = open_file_db(&dir, clock);
    let stats = db.recovery_stats().expect("recovery ran from the file log");
    assert!(stats.redone > 0);
    assert_eq!(db.document_count().unwrap(), 50);
    for (i, unid) in unids.iter().enumerate() {
        assert_eq!(
            db.open_by_unid(*unid).unwrap().get("I"),
            Some(&Value::Number(i as f64))
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_compact_shrinks_store() {
    let _log = log_writer();
    let dir = temp_dir("compact");
    let clock = LogicalClock::new();
    let db = open_file_db(&dir, clock.clone());
    // Fill, then delete in bulk: a delete interleaved with the saves would
    // hand its pages straight to the next save and leave nothing to shrink.
    let mut ids = Vec::new();
    for i in 0..80 {
        let mut n = Note::document("Doc");
        n.set_body("Body", Value::RichText(vec![i as u8; 8000]));
        db.save(&mut n).unwrap();
        ids.push(n.id);
    }
    for (i, id) in ids.into_iter().enumerate() {
        if i % 4 != 0 {
            db.delete(id).unwrap();
        }
    }
    let dir2 = temp_dir("compact-out");
    let disk2 = NsfFile::open(&dir2.join("data.nsf")).unwrap();
    let log2 = FileLogStore::open(&dir2.join("data.txn")).unwrap();
    let (fresh, stats) = db
        .compact_into(Box::new(disk2), Some(Box::new(log2)))
        .unwrap();
    assert_eq!(stats.notes_copied, 20);
    println!(
        "compact: {} -> {} bytes",
        stats.bytes_before, stats.bytes_after
    );
    // The emptied pages sit in the source's free-page bitmap, but a file
    // never gets shorter in place; the copy has no use for them.
    assert!(
        stats.bytes_after * 4 < stats.bytes_before * 3,
        "{} -> {}",
        stats.bytes_before,
        stats.bytes_after
    );
    assert_eq!(fresh.document_count().unwrap(), 20);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn file_interleaved_churn_leaves_little_to_compact() {
    let _log = log_writer();
    // Each save is followed by its delete, so the next save takes the
    // pages just freed: the source does not bloat under churn, and a copy
    // has little to win back.
    let dir = temp_dir("churn");
    let clock = LogicalClock::new();
    let db = open_file_db(&dir, clock.clone());
    for i in 0..80 {
        let mut n = Note::document("Doc");
        n.set_body("Body", Value::RichText(vec![i as u8; 8000]));
        db.save(&mut n).unwrap();
        if i % 4 != 0 {
            db.delete(n.id).unwrap();
        }
    }
    let dir2 = temp_dir("churn-out");
    let disk2 = NsfFile::open(&dir2.join("data.nsf")).unwrap();
    let log2 = FileLogStore::open(&dir2.join("data.txn")).unwrap();
    let (fresh, stats) = db
        .compact_into(Box::new(disk2), Some(Box::new(log2)))
        .unwrap();
    assert_eq!(stats.notes_copied, 20);
    println!(
        "compact: {} -> {} bytes",
        stats.bytes_before, stats.bytes_after
    );
    // `file_compact_shrinks_store`'s bound, the other way round.
    assert!(
        stats.bytes_after * 4 >= stats.bytes_before * 3,
        "{} -> {}",
        stats.bytes_before,
        stats.bytes_after
    );
    assert_eq!(fresh.document_count().unwrap(), 20);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn reopen_round_trip_reads_identical_bytes() {
    // write → close → open → byte-identical reads, at the device level:
    // every page the first handle wrote reads back identically through a
    // second handle (checksums verified on the way).
    let dir = temp_dir("roundtrip");
    let path = dir.join("pages.nsf");
    let mut images = Vec::new();
    {
        let disk = NsfFile::open(&path).unwrap();
        for id in 0..16u32 {
            let mut p = PageBuf::zeroed(id);
            p.put_bytes(0, &(id as u64 + 1).to_le_bytes()); // fake LSN
            p.put_bytes(64, format!("page {id} payload").as_bytes());
            p.put_bytes(2048, &[id as u8; 512]);
            disk.write_page(id, &p).unwrap();
        }
        disk.sync().unwrap();
        for id in 0..16u32 {
            let mut r = PageBuf::zeroed(0);
            disk.read_page(id, &mut r).unwrap();
            images.push(r);
        }
    }
    let disk = NsfFile::open(&path).unwrap();
    for (id, want) in images.iter().enumerate() {
        let mut got = PageBuf::zeroed(0);
        disk.read_page(id as u32, &mut got).unwrap();
        assert_eq!(&got.data[..], &want.data[..], "page {id} byte-identical");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_header_rejected_at_open() {
    let _log = log_writer();
    let dir = temp_dir("badheader");
    let path = dir.join("data.nsf");
    let clock = LogicalClock::new();
    {
        let db = open_file_db(&dir, clock.clone());
        let mut n = Note::document("Memo");
        db.save(&mut n).unwrap();
        db.shutdown().unwrap();
    }
    // Scribble over the superblock magic.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let err = Database::open_path(
        &path,
        DbConfig::new("FileDb", ReplicaId(1), ReplicaId(9)),
        clock,
    );
    assert!(err.is_err(), "corrupt header must not open");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only a missing `data.txn` is a fresh log. Anything else without an
/// intact header is refused: read as base 0, it would restart LSNs below
/// the ones the pages carry and lose the next session's writes.
#[test]
fn corrupt_log_is_refused_not_read_as_base_zero() {
    let _log = log_writer();
    let dir = temp_dir("badlog");
    let path = dir.join("data.nsf");
    let txn = dir.join("data.txn");
    let clock = LogicalClock::new();
    let config = || DbConfig::new("FileDb", ReplicaId(1), ReplicaId(9));
    let db = open_file_db(&dir, clock.clone());
    db.save(&mut Note::document("Memo")).unwrap();
    db.shutdown().unwrap();
    drop(db);
    let closed = std::fs::read(&txn).unwrap();
    assert_eq!(closed.len(), LOG_HEADER_LEN, "closed cleanly: header only");

    let mut bad: Vec<(String, Vec<u8>)> = (0..LOG_HEADER_LEN)
        .map(|i| {
            let mut b = closed.clone();
            b[i] ^= 0x01;
            (format!("flip at {i}"), b)
        })
        .collect();
    bad.extend((0..LOG_HEADER_LEN).map(|n| (format!("cut to {n}"), closed[..n].to_vec())));
    let old_format = LogRecord::Begin { tx: TxId(1) }.encode();
    bad.push(("headerless".into(), old_format));
    for (what, bytes) in bad {
        std::fs::write(&txn, &bytes).unwrap();
        match Database::open_path(&path, config(), clock.clone()) {
            Err(DominoError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
    std::fs::write(&txn, &closed).unwrap();
    let db = Database::open_path(&path, config(), clock).unwrap();
    assert_eq!(db.document_count().unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn temp_store_cleaned_up_on_drop() {
    let dir = temp_dir("cleanup");
    let path = dir.join("scratch.nsf");
    {
        let disk = NsfFile::open(&path).unwrap();
        disk.set_delete_on_drop(true);
        let mut p = PageBuf::zeroed(0);
        p.put_bytes(32, b"scratch");
        disk.write_page(0, &p).unwrap();
        disk.sync().unwrap();
        assert!(path.exists());
    }
    assert!(
        !path.exists(),
        "scratch NSF removed when the handle dropped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine under a closed store at `path`, opened directly.
fn open_engine(path: &Path) -> Engine {
    Engine::open(
        Box::new(NsfFile::open(path).unwrap()),
        Some(Box::new(
            FileLogStore::open(&path.with_extension("txn")).unwrap(),
        )),
        EngineConfig::default(),
    )
    .unwrap()
}

/// Every document (UNID, OID and items) and every stub, sorted.
fn content(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .note_ids(Some(NoteClass::Document))
        .unwrap()
        .into_iter()
        .map(|id| {
            let n = db.open_note(id).unwrap();
            format!("doc {:?} {:?}", n.oid, n.items_raw())
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

/// Stores written by earlier builds keep a modified-time index in tree
/// slot 2 (key `(seq_time << 32) | note_id`, value the note id). Nothing
/// reads or writes it now: such a store opens, saves, replicates,
/// checkpoints, shuts down and reopens with identical content, the old
/// tree stays exactly as it was, and a compacted copy leaves the slot
/// empty.
#[test]
fn a_store_with_a_populated_slot_2_tree_still_opens() {
    let _log = log_writer();
    const OLD_SLOT: usize = 2;
    let dir = temp_dir("slot2");
    let path = dir.join("data.nsf");
    let clock = LogicalClock::new();
    {
        let db = open_file_db(&dir, clock.clone());
        for i in 0..40 {
            let mut n = Note::document("Memo");
            n.set("Subject", Value::text(format!("memo {i}")));
            n.set_body("Body", Value::RichText(vec![i as u8; 3000]));
            db.save(&mut n).unwrap();
        }
        db.shutdown().unwrap();
    }
    // Write the old index the way earlier builds did, through the engine.
    {
        let mut engine = open_engine(&path);
        let mut tx = engine.begin().unwrap();
        let tree = BTree::open(&mut engine, &mut tx, OLD_SLOT).unwrap();
        for i in 0..400u128 {
            tree.insert(
                &mut engine,
                &mut tx,
                ((1000 + i) << 32) | (i + 1),
                i as u64 + 1,
            )
            .unwrap();
        }
        engine.commit(tx).unwrap();
        engine.shutdown().unwrap();
    }
    let old_tree = |path: &Path| -> (PageId, Vec<(u128, u64)>) {
        let mut engine = open_engine(path);
        let root = engine.tree_root(OLD_SLOT).unwrap();
        let mut entries = Vec::new();
        if root != 0 {
            BTree::open_existing(&mut engine, OLD_SLOT)
                .unwrap()
                .scan(&mut engine, 0, u128::MAX, |k, v| {
                    entries.push((k, v));
                    true
                })
                .unwrap();
        }
        engine.shutdown().unwrap();
        (root, entries)
    };
    let before = old_tree(&path);
    assert_eq!(before.1.len(), 400, "a multi-page tree");

    let expected = {
        let db = open_file_db(&dir, clock.clone());
        assert_eq!(db.document_count().unwrap(), 40);
        let ids = db.note_ids(Some(NoteClass::Document)).unwrap();
        let mut edit = db.open_note(ids[0]).unwrap();
        edit.set("Subject", Value::text("edited"));
        db.save(&mut edit).unwrap();
        db.delete(ids[1]).unwrap();
        db.save(&mut Note::document("Memo")).unwrap();
        let peer = Database::open_in_memory(
            DbConfig::new("FileDb", ReplicaId(1), ReplicaId(10)),
            LogicalClock::starting_at(Timestamp(500)),
        )
        .unwrap();
        peer.save(&mut Note::document("From peer")).unwrap();
        replicate(&db, &peer).unwrap();
        assert_eq!(db.merkle_root(), peer.merkle_root());
        assert_eq!(content(&db), content(&peer));
        assert_eq!(db.document_count().unwrap(), 41);
        db.checkpoint().unwrap();
        let expected = content(&db);
        db.shutdown().unwrap();
        expected
    };
    let db = open_file_db(&dir, clock);
    assert_eq!(content(&db), expected);

    let dir2 = temp_dir("slot2-compact");
    let (fresh, _) = db
        .compact_into(
            Box::new(NsfFile::open(&dir2.join("data.nsf")).unwrap()),
            Some(Box::new(
                FileLogStore::open(&dir2.join("data.txn")).unwrap(),
            )),
        )
        .unwrap();
    assert_eq!(content(&fresh), expected);
    fresh.shutdown().unwrap();
    drop(fresh);
    db.shutdown().unwrap();
    drop(db);
    assert_eq!(old_tree(&path), before, "slot 2 left as it was");
    assert_eq!(old_tree(&dir2.join("data.nsf")), (0, Vec::new()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// A closed store's body segment for note `id`, read through the engine:
/// its record pointer, its bytes and the heap pages it spans (the set
/// `NoteStore::pages_touched` counts). `None` when the note has no body.
fn body_segment(path: &Path, id: NoteId) -> Option<(u64, Vec<u8>, Vec<PageId>)> {
    const TREE_RECORDS: usize = 0;
    let mut engine = open_engine(path);
    let records = BTree::open_existing(&mut engine, TREE_RECORDS).unwrap();
    let segment = records
        .get(&mut engine, ((id.0 as u128) << 1) | 1)
        .unwrap()
        .map(|raw| {
            let ptr = RecordPtr::from_u64(raw);
            let bytes = Heap.read(&mut engine, ptr).unwrap();
            (raw, bytes, Heap.pages_of(&mut engine, ptr).unwrap())
        });
    engine.shutdown().unwrap();
    segment
}

/// A save writes only the segments whose bytes changed. A `Subject` edit
/// of a note with an 8 KiB rich-text body logs under 1 KiB and leaves the
/// body where it was, byte for byte; editing or removing the body, and
/// re-creating the note over its stub, still write it. Every step reads
/// back identically after close and reopen.
#[test]
fn a_summary_edit_leaves_the_body_segment_alone() {
    let _log = log_writer();
    let dir = temp_dir("segments");
    let path = dir.join("data.nsf");
    let clock = LogicalClock::new();
    let body = Value::RichText((0..8192u32).map(|i| (i % 251) as u8).collect());
    // Run `step` on the reopened database, then close it and check that
    // a second reopen reads every note back as the first left it.
    let step = |f: &dyn Fn(&Database)| {
        let db = open_file_db(&dir, clock.clone());
        f(&db);
        let expected = content(&db);
        db.shutdown().unwrap();
        drop(db);
        let db = open_file_db(&dir, clock.clone());
        assert_eq!(content(&db), expected, "reads back identical after reopen");
        db.shutdown().unwrap();
    };
    let memo = {
        let db = open_file_db(&dir, clock.clone());
        let mut memo = Note::document("Memo");
        memo.set("Subject", Value::text("first"));
        memo.set_body("Body", body.clone());
        db.save(&mut memo).unwrap();
        let mut plain = Note::document("Memo");
        plain.set("Subject", Value::text("no body"));
        db.save(&mut plain).unwrap();
        db.shutdown().unwrap();
        memo
    };
    let (unid, id) = (memo.unid(), memo.id);
    let stored = body_segment(&path, id).expect("the memo has a body");
    assert!(stored.2.len() >= 2, "an 8 KiB body spans pages");

    step(&|db| {
        let mut n = db.open_by_unid(unid).unwrap();
        n.set("Subject", Value::text("second"));
        let appended = obs::counter("Log.BytesAppended");
        let before = appended.get();
        db.save(&mut n).unwrap();
        let logged = appended.get() - before;
        assert!(logged < 1024, "a Subject edit logged {logged} bytes");
    });
    assert_eq!(
        body_segment(&path, id),
        Some(stored.clone()),
        "the body keeps its bytes, its pointer and its pages"
    );

    step(&|db| {
        let mut n = db.open_by_unid(unid).unwrap();
        n.set_body("Body", Value::RichText(vec![0xB0; 8192]));
        db.save(&mut n).unwrap();
    });
    let edited = body_segment(&path, id).expect("an edited body is stored");
    assert_ne!(edited.1, stored.1, "editing the body rewrites it");

    step(&|db| {
        let mut n = db.open_by_unid(unid).unwrap();
        assert!(n.remove("Body"));
        db.save(&mut n).unwrap();
    });
    assert_eq!(
        body_segment(&path, id),
        None,
        "no rich text, no body segment"
    );

    step(&|db| {
        let n = db.open_by_unid(unid).unwrap();
        db.delete(n.id).unwrap();
        let mut again = n.clone();
        again.oid.bump(clock.now());
        again.set_body("Body", body.clone());
        db.save_replicated(again).unwrap();
        assert_eq!(db.open_by_unid(unid).unwrap().get("Body"), Some(&body));
    });
    let recreated = body_segment(&path, id).expect("the re-create writes the body again");
    assert!(recreated.1.len() > 8192);
    let _ = std::fs::remove_dir_all(&dir);
}
