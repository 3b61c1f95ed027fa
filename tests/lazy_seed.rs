//! Lazy snapshot/Merkle seeding: `Database::open` reads only summary
//! segments — body pages stay untouched until a reader actually needs
//! them — yet every observable surface (Merkle digests, snapshot reads,
//! pinned-snapshot isolation across overwrites) matches the database as
//! it stood before shutdown exactly.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use domino::core::{Database, DbConfig, Note};
use domino::types::{ContentHash, LogicalClock, ReplicaId, Value};

const DOCS: usize = 40;
const BODY_BYTES: usize = 8000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("domino-lazy-seed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> DbConfig {
    DbConfig::new("LazySeed", ReplicaId(1), ReplicaId(9))
}

/// Build a body-heavy database on disk and return the file path plus the
/// saved UNIDs (in save order).
fn build(dir: &Path, clock: &LogicalClock) -> (PathBuf, Vec<domino::types::Unid>) {
    let (path, unids, _) = build_with_merkle(dir, clock);
    (path, unids)
}

/// [`build`], plus the Merkle root and leaf count of the live database
/// just before shutdown — heads computed from full notes at commit.
fn build_with_merkle(
    dir: &Path,
    clock: &LogicalClock,
) -> (PathBuf, Vec<domino::types::Unid>, (ContentHash, usize)) {
    let path = dir.join("data.nsf");
    let db = Database::open_path(&path, config(), clock.clone()).unwrap();
    let mut unids = Vec::new();
    for i in 0..DOCS {
        let mut n = Note::document("Memo");
        n.set("I", Value::Number(i as f64));
        n.set_body("Body", Value::RichText(vec![i as u8; BODY_BYTES]));
        db.save(&mut n).unwrap();
        unids.push(n.unid());
    }
    let merkle = (db.merkle_root(), db.merkle_len());
    db.shutdown().unwrap();
    (path, unids, merkle)
}

fn reopen(path: &Path, clock: &LogicalClock) -> Arc<Database> {
    Arc::new(Database::open_path(path, config(), clock.clone()).unwrap())
}

#[test]
fn lazy_open_skips_body_pages_and_matches_the_merkle_before_shutdown() {
    let dir = temp_dir("merkle");
    let clock = LogicalClock::new();
    // The digests of the database as it stood before shutdown, every
    // head computed from the full note its commit wrote.
    let (path, _, (root, len)) = build_with_merkle(&dir, &clock);

    let lazy = reopen(&path, &clock);
    // Identical digests: Merkle heads derive from summary items only.
    assert_eq!(lazy.merkle_root(), root);
    assert_eq!(lazy.merkle_len(), len);
    // And the lazy open never touched the bodies: reading every record in
    // full through the engine now misses the buffer pool on each of the
    // (at least) 2 heap pages a note's ~8 KB body spans.
    let opened = lazy.engine_stats();
    for id in lazy.note_ids(None).unwrap() {
        lazy.stored_note(id).unwrap();
    }
    let scanned = lazy.engine_stats();
    assert_eq!(scanned.evictions, 0, "the pool holds the whole file");
    let body_misses = scanned.pool_misses - opened.pool_misses;
    assert!(
        body_misses >= 2 * DOCS as u64,
        "lazy open must skip every body page: {body_misses} left unread"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lazy_seeded_snapshot_hydrates_full_bodies_on_read() {
    let dir = temp_dir("hydrate");
    let clock = LogicalClock::new();
    let (path, unids) = build(&dir, &clock);
    let db = reopen(&path, &clock);

    // Point read by UNID: the body must hydrate transparently.
    let snap = db.snapshot();
    let n = snap.open_by_unid(unids[3]).unwrap();
    assert_eq!(n.get("Body"), Some(&Value::RichText(vec![3u8; BODY_BYTES])));

    // Full-document scan (the full-text indexer's path): every body
    // present and correct.
    for (i, doc) in snap.documents().iter().enumerate() {
        assert_eq!(
            doc.get("Body"),
            Some(&Value::RichText(vec![i as u8; BODY_BYTES])),
            "document {i} body after hydration"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pinned_snapshot_survives_overwrite_of_elided_note() {
    let dir = temp_dir("backfill");
    let clock = LogicalClock::new();
    let (path, unids) = build(&dir, &clock);
    let db = reopen(&path, &clock);

    // Pin BEFORE touching note 7, then overwrite its body. The writer
    // must backfill the elided seed version, so the pinned snapshot
    // still reads the original body afterwards.
    let pinned = db.snapshot();
    let mut n = db.open_by_unid(unids[7]).unwrap();
    n.set_body("Body", Value::RichText(vec![0xEE; 100]));
    db.save(&mut n).unwrap();

    let old = pinned.open_by_unid(unids[7]).unwrap();
    assert_eq!(
        old.get("Body"),
        Some(&Value::RichText(vec![7u8; BODY_BYTES])),
        "pinned snapshot must see the pre-overwrite body"
    );
    let new = db.snapshot().open_by_unid(unids[7]).unwrap();
    assert_eq!(new.get("Body"), Some(&Value::RichText(vec![0xEE; 100])));

    // Deletion of an elided note backfills too.
    let pinned2 = db.snapshot();
    let id = db.id_of_unid(unids[11]).unwrap().unwrap();
    db.delete(id).unwrap();
    let old = pinned2.open_by_unid(unids[11]).unwrap();
    assert_eq!(
        old.get("Body"),
        Some(&Value::RichText(vec![11u8; BODY_BYTES]))
    );
    assert!(db.snapshot().open_by_unid(unids[11]).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A summary-only edit leaves the body segment as it was, but the pinned
/// version must still be backfilled: hydrating it afterwards would load
/// the edited summary from the engine.
#[test]
fn pinned_snapshot_survives_a_summary_only_edit_of_elided_note() {
    let dir = temp_dir("summary-edit");
    let clock = LogicalClock::new();
    let (path, unids) = build(&dir, &clock);
    let db = reopen(&path, &clock);

    let pinned = db.snapshot();
    let mut n = db.open_by_unid(unids[5]).unwrap();
    n.set("I", Value::Number(500.0));
    db.save(&mut n).unwrap();

    let old = pinned.open_by_unid(unids[5]).unwrap();
    assert_eq!(old.get("I"), Some(&Value::Number(5.0)));
    assert_eq!(
        old.get("Body"),
        Some(&Value::RichText(vec![5u8; BODY_BYTES])),
        "pinned snapshot must see the pre-edit note, body included"
    );
    let new = db.snapshot().open_by_unid(unids[5]).unwrap();
    assert_eq!(new.get("I"), Some(&Value::Number(500.0)));
    assert_eq!(
        new.get("Body"),
        Some(&Value::RichText(vec![5u8; BODY_BYTES]))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The design collection is seeded by the same open path as everything
// else: a stored form is found — and, when its body was elided, hydrated
// through the body loader — without enumerating the note store, whichever
// way the database came up.
// ---------------------------------------------------------------------------

use domino::core::{form_for, save_form, FieldSpec, FormDesign, Session};
use domino::security::Directory;
use domino::types::NoteClass;

/// Store a `Task` form whose note carries a rich-text layout, so the
/// design note has a body segment a lazy open elides.
fn store_task_form(db: &Database) {
    let form = FormDesign::new("Task").field(
        FieldSpec::editable("Status")
            .with_default(r#""new""#)
            .unwrap(),
    );
    save_form(db, &form).unwrap();
    let stored = db
        .snapshot()
        .design_note(NoteClass::Form, "Task")
        .unwrap()
        .expect("the form was just stored");
    let mut with_layout = (*stored).clone();
    with_layout.set_body("$Body", Value::RichText(vec![0x5A; 3000]));
    db.save(&mut with_layout).unwrap();
}

/// The first `Session::save` of a `Task` gets the form's default.
fn first_save_applies_the_default(db: &Arc<Database>) {
    let session = Session::new(db.clone(), "ann", Directory::new());
    let mut task = Note::document("Task");
    task.set("Subject", Value::text("first save after open"));
    session.save(&mut task).unwrap();
    assert_eq!(task.get_text("Status").as_deref(), Some("new"));
}

fn hydrated() -> u64 {
    domino::obs::snapshot().counter("Db.Snapshot.Hydrated")
}

#[test]
fn stored_form_applies_before_shutdown_and_after_lazy_reopen() {
    let dir = temp_dir("form");
    let clock = LogicalClock::new();
    let (path, _) = build(&dir, &clock);
    let db = reopen(&path, &clock);
    store_task_form(&db);
    // Before shutdown the form's version is resident, so the lookup never
    // touches the engine.
    let reads = db.engine_stats().reads;
    assert!(form_for(&db, &Note::document("Task")).unwrap().is_some());
    assert_eq!(db.engine_stats().reads, reads);
    first_save_applies_the_default(&db);
    db.shutdown().unwrap();
    drop(db);

    // Lazy: the form's seed version is summary-only. Finding it reads the
    // form note through the body loader — a few pages, once — and never
    // the DOCS documents around it.
    let lazy = reopen(&path, &clock);
    let (reads, hydrations) = (lazy.engine_stats().reads, hydrated());
    assert!(form_for(&lazy, &Note::document("Task")).unwrap().is_some());
    let loaded = lazy.engine_stats().reads - reads;
    assert!(
        (1..DOCS as u64 / 2).contains(&loaded),
        "hydrating one design note read {loaded} pages"
    );
    assert!(hydrated() > hydrations, "the body loader did not run");
    let reads = lazy.engine_stats().reads;
    assert!(form_for(&lazy, &Note::document("Task")).unwrap().is_some());
    assert_eq!(
        lazy.engine_stats().reads,
        reads,
        "second lookup must be served from the version slot"
    );
    first_save_applies_the_default(&lazy);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_form_applies_after_crash_recovery() {
    use domino::storage::{CommitMode, CrashDisk, CrashMode, EngineConfig, NsfFile};
    use domino::wal::FileLogStore;

    let dir = temp_dir("form-crash");
    let data = dir.join("data.nsf");
    let txn = dir.join("data.txn");
    let cache = Arc::new(CrashDisk::new(NsfFile::open(&data).unwrap()));
    let clock = LogicalClock::new();
    let open = || {
        Arc::new(
            Database::open(
                Box::new(Arc::clone(&cache)),
                Some(Box::new(FileLogStore::open(&txn).unwrap())),
                config().with_engine(EngineConfig {
                    commit_mode: CommitMode::Force,
                    ..EngineConfig::default()
                }),
                clock.clone(),
            )
            .unwrap(),
        )
    };
    let db = open();
    for i in 0..DOCS {
        let mut n = Note::document("Memo");
        n.set("I", Value::Number(i as f64));
        db.save(&mut n).unwrap();
    }
    store_task_form(&db);
    // Power cut: no shutdown, and the OS cache loses what was not synced.
    drop(db);
    cache.crash(CrashMode::DropUnsynced).unwrap();

    let db = open();
    assert!(
        db.recovery_stats().is_some(),
        "the crash left nothing to redo"
    );
    let hydrations = hydrated();
    first_save_applies_the_default(&db);
    assert!(
        hydrated() > hydrations,
        "the recovered form was not hydrated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
