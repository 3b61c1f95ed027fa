//! One read path: every live-note read is a read of a pinned snapshot.
//!
//! * What a read costs the engine: nothing, once the note is resident. The
//!   counts are `EngineStats::reads` deltas (logical page reads), so they
//!   repeat exactly.
//! * Attaching a view or a full-text index while a writer is committing
//!   loses no commit: the index subscribes first and builds from a snapshot
//!   pinned under its own write lock.
//! * A view sees summary items only, whichever copy of a note (change
//!   event, resident version, summary-only seed) a row was computed from.
//! * A view page over HTTP is read from the index alone: it opens no
//!   document, and a command-cache hit does not touch the index either.

use std::sync::{mpsc, Arc, RwLock};
use std::thread;

use domino::core::{Database, DbConfig, Note, Session};
use domino::formula::{EvalEnv, Formula};
use domino::ftindex::FtIndex;
use domino::security::{AccessLevel, Acl, Directory};
use domino::server::{DominoServer, Request, ServerConfig};
use domino::storage::MemDisk;
use domino::types::{ItemFlags, LogicalClock, NoteClass, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};
use domino::wal::MemLogStore;

/// `Db.Snapshot.Reads` and `View.Pages.Built` are process-wide: the test
/// that takes exact deltas of them holds this exclusively, every other
/// test in the binary shares it.
static COUNTERS: RwLock<()> = RwLock::new(());

fn config() -> DbConfig {
    DbConfig::new("ReadPath", ReplicaId(1), ReplicaId(7))
}

/// Stores that outlive the database over them, so it can be shut down
/// and reopened.
#[derive(Default)]
struct Stores {
    disk: MemDisk,
    log: MemLogStore,
    clock: LogicalClock,
}

impl Stores {
    fn open(&self) -> Arc<Database> {
        let log = Box::new(self.log.clone());
        let db = Database::open(
            Box::new(self.disk.clone()),
            Some(log),
            config(),
            self.clock.clone(),
        );
        Arc::new(db.unwrap())
    }
}

fn memo(i: usize) -> Note {
    let mut n = Note::document("Memo");
    n.set("Subject", Value::text(format!("memo {i:05}")));
    if i.is_multiple_of(4) {
        n.set_body("Body", Value::RichText(vec![i as u8; 6000]));
    }
    n
}

fn by_subject() -> ViewDesign {
    ViewDesign::new("BySubject", r#"SELECT Form = "Memo""#)
        .unwrap()
        .column(
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(SortDir::Ascending),
        )
}

/// Engine page reads `op` causes.
fn reads<T>(db: &Database, op: impl FnOnce() -> T) -> (u64, T) {
    let before = db.engine_stats().reads;
    let out = op();
    (db.engine_stats().reads - before, out)
}

#[test]
fn resident_reads_never_touch_the_engine() {
    let _shared = COUNTERS.read().unwrap();
    for docs in [500, 4_000] {
        let db = Arc::new(Database::open_in_memory(config(), LogicalClock::new()).unwrap());
        let saved: Vec<Note> = (0..docs)
            .map(|i| {
                let mut n = memo(i);
                db.save(&mut n).unwrap();
                n
            })
            .collect();
        let probe = &saved[docs / 2];
        let ann = Session::new(db.clone(), "ann", Directory::new());
        ann.mark_read(saved[0].unid());
        let select = Formula::compile(r#"SELECT Subject = "memo 00007""#).unwrap();

        let cost = |what: &str, n: u64| assert_eq!(n, 0, "{what} at {docs} documents");
        let (n, got) = reads(&db, || db.open_note(probe.id).unwrap());
        cost("open_note", n);
        assert_eq!(&got, probe);
        let (n, got) = reads(&db, || db.open_by_unid(probe.unid()).unwrap());
        cost("open_by_unid", n);
        assert_eq!(&got, probe);
        let (n, ids) = reads(&db, || db.note_ids(None).unwrap());
        cost("note_ids", n);
        assert_eq!(ids.len(), docs);
        let (n, count) = reads(&db, || db.document_count().unwrap());
        cost("document_count", n);
        assert_eq!(count, docs);
        let (n, hits) = reads(&db, || db.search(&select, &EvalEnv::default()).unwrap());
        cost("search", n);
        assert_eq!(hits.len(), 1);
        let (n, view) = reads(&db, || View::attach(&db, by_subject()).unwrap());
        cost("View::attach", n);
        assert_eq!(view.len(), docs);
        let (n, ft) = reads(&db, || FtIndex::attach(&db).unwrap());
        cost("FtIndex::attach", n);
        assert_eq!(ft.stats().documents, docs);
        let (n, unread) = reads(&db, || ann.unread().unwrap());
        cost("Session::unread", n);
        assert_eq!(unread.len(), docs - 1);
    }
}

#[test]
fn a_reopened_note_hydrates_once_and_matches_the_engine() {
    let _shared = COUNTERS.read().unwrap();
    let stores = Stores::default();
    let db = stores.open();
    let ids: Vec<_> = (0..40)
        .map(|i| {
            let mut n = memo(i);
            db.save(&mut n).unwrap();
            n.id
        })
        .collect();
    db.shutdown().unwrap();
    drop(db);

    let db = stores.open();
    // This is the only test in the binary that hydrates, so the
    // process-wide counter moves by exactly what it does here.
    let hydrated = || domino::obs::snapshot().counter("Db.Snapshot.Hydrated");
    let before = hydrated();
    let with_body = ids[4];
    let (first, note) = reads(&db, || db.open_note(with_body).unwrap());
    assert!(first > 0, "the body has to come from the engine");
    assert_eq!(hydrated(), before + 1);
    assert_eq!(note.get("Body"), Some(&Value::RichText(vec![4u8; 6000])));
    let (second, again) = reads(&db, || db.open_note(with_body).unwrap());
    assert_eq!(second, 0, "the hydrated body stays in the version slot");
    assert_eq!(hydrated(), before + 1);
    assert_eq!(again, note);

    // A note without a body segment was whole at open.
    let (n, _) = reads(&db, || db.open_note(ids[5]).unwrap());
    assert_eq!(n, 0);

    for id in db.note_ids(Some(NoteClass::Document)).unwrap() {
        assert_eq!(db.open_note(id).unwrap(), db.stored_note(id).unwrap());
    }
}

#[test]
fn attach_while_a_writer_commits_loses_nothing() {
    let _shared = COUNTERS.read().unwrap();
    const ROUNDS: usize = 20;
    const DOCS: usize = 600;
    for round in 0..ROUNDS {
        let db = Arc::new(Database::open_in_memory(config(), LogicalClock::new()).unwrap());
        let (started, attach_now) = mpsc::channel();
        let writer = {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..DOCS {
                    db.save(&mut memo(i)).unwrap();
                    if i == DOCS / 6 {
                        started.send(()).unwrap();
                    }
                }
            })
        };
        // Attach in the middle of the stream of commits.
        attach_now.recv().unwrap();
        let view = View::attach(&db, by_subject()).unwrap();
        let ft = FtIndex::attach(&db).unwrap();
        writer.join().unwrap();

        let docs = db.document_count().unwrap();
        assert_eq!(docs, DOCS);
        assert_eq!(view.len(), docs, "round {round}: the view lost commits");
        let fresh = View::detached(&db, by_subject()).unwrap();
        fresh.rebuild().unwrap();
        assert_eq!(view.rows(), fresh.rows(), "round {round}");
        assert_eq!(
            ft.stats().documents,
            docs,
            "round {round}: the full-text index lost commits"
        );
    }
}

#[test]
fn a_body_column_reads_the_same_incrementally_rebuilt_and_reopened() {
    let _shared = COUNTERS.read().unwrap();
    let stores = Stores::default();
    let design = || by_subject().column(ColumnSpec::new("Body", "Body").unwrap());
    let body_cells = |view: &View| -> Vec<Value> {
        view.rows()
            .iter()
            .map(|row| row.values[1].clone())
            .collect()
    };

    let db = stores.open();
    let view = View::attach(&db, design()).unwrap();
    let mut n = Note::document("Memo");
    n.set("Subject", Value::text("with a body"));
    n.set_body("Body", Value::text("first body"));
    db.save(&mut n).unwrap();
    n.set_body("Body", Value::text("hello body"));
    db.save(&mut n).unwrap();

    let incremental = body_cells(&view);
    assert_eq!(incremental.len(), 1);
    assert_ne!(
        incremental[0],
        Value::text("hello body"),
        "a view column saw a non-summary item"
    );
    view.rebuild().unwrap();
    assert_eq!(body_cells(&view), incremental, "after rebuild()");

    db.shutdown().unwrap();
    drop(view);
    drop(db);
    let db = stores.open();
    let view = View::attach(&db, design()).unwrap();
    assert_eq!(body_cells(&view), incremental, "after shutdown and reopen");
    // The document itself still carries the item.
    let doc = db.open_by_unid(n.unid()).unwrap();
    assert_eq!(doc.get("Body"), Some(&Value::text("hello body")));
}

#[test]
fn a_reader_restriction_stored_without_the_summary_flag_holds_after_reopen() {
    let _shared = COUNTERS.read().unwrap();
    // `set_with_flags` replaces every flag, so this item would land in
    // the body segment — and a reopened database checks access on
    // summary-only versions. The store keeps reader items in the summary.
    let restrict = |n: &mut Note| {
        n.set("Subject", Value::text("board only"));
        n.set_with_flags("DocReaders", Value::text("bea"), ItemFlags::READERS);
    };
    let stores = Stores::default();
    let db = stores.open();
    let mut open = memo(1);
    db.save(&mut open).unwrap();
    let mut local = memo(2);
    restrict(&mut local);
    db.save(&mut local).unwrap();
    // The same restriction arriving by replication, unnormalised.
    let mut remote = memo(3);
    restrict(&mut remote);
    let other = Database::open_in_memory(config(), stores.clock.clone()).unwrap();
    other.save(&mut remote).unwrap();
    restrict(&mut remote);
    let remote = db.save_replicated(remote).unwrap();
    db.shutdown().unwrap();
    drop(db);

    let db = stores.open();
    let unread = |user: &str| Session::new(db.clone(), user, Directory::new()).unread();
    let engine = db.engine_stats().reads;
    assert_eq!(unread("ann").unwrap(), vec![open.unid()]);
    assert_eq!(
        unread("bea").unwrap(),
        vec![open.unid(), local.unid(), remote.unid()]
    );
    assert_eq!(db.engine_stats().reads, engine, "no body was read");
    let select = Formula::compile(r#"SELECT Form = "Memo""#).unwrap();
    let ann = Session::new(db.clone(), "ann", Directory::new());
    assert_eq!(ann.search(&select).unwrap().len(), 1);
}

#[test]
fn a_view_page_opens_no_document_and_a_cache_hit_no_index_page() {
    let _alone = COUNTERS.write().unwrap();
    let snapshot_reads = || domino::obs::snapshot().counter("Db.Snapshot.Reads");
    let pages_built = || domino::obs::snapshot().counter("View.Pages.Built");
    // With an ACL note a request reads that one note, and nothing else.
    for acl_reads in [0, 1] {
        let db = Arc::new(Database::open_in_memory(config(), LogicalClock::new()).unwrap());
        if acl_reads == 1 {
            db.set_acl(&Acl::new(AccessLevel::Reader)).unwrap();
        }
        for i in 0..200 {
            let mut n = memo(i);
            if i % 10 == 3 {
                n.set_with_flags("DocReaders", Value::text("bea"), ItemFlags::READERS);
            }
            db.save(&mut n).unwrap();
        }
        let server = DominoServer::new(ServerConfig::default());
        server.register_database("mail", &db).unwrap();
        server.add_view("mail", by_subject()).unwrap();

        for (command, link) in [
            ("OpenView", "?OpenDocument"),
            ("ReadViewEntries", "\"@unid\""),
        ] {
            let req = Request::get(&format!("/mail.nsf/BySubject?{command}&Start=61&Count=30"));
            let (reads, built) = (snapshot_reads(), pages_built());
            let miss = server.handle(&req);
            assert_eq!(snapshot_reads() - reads, acl_reads, "uncached {command}");
            assert_eq!(pages_built() - built, 1);
            assert!(!miss.from_cache);
            // Rows 61..=90 hold memos 60..90; three of them are bea's.
            assert_eq!(miss.body.matches(link).count(), 27, "{command}");

            let (reads, built) = (snapshot_reads(), pages_built());
            let hit = server.handle(&req);
            assert!(hit.from_cache);
            assert_eq!(hit.body, miss.body);
            assert_eq!(pages_built(), built, "a cache hit built an index page");
            assert_eq!(snapshot_reads() - reads, acl_reads, "cached {command}");
        }

        // A search opens the documents it shows (for their titles) and no
        // others: not the ones outside the view, not the ones the index
        // entry already rules out for this user.
        let mut outside = Note::document("Other");
        outside.set("Subject", Value::text("memo outside the view"));
        db.save(&mut outside).unwrap();
        let (reads, built) = (snapshot_reads(), pages_built());
        let found = server.handle(&Request::get(
            "/mail.nsf/BySubject?SearchView&Query=memo&Count=50",
        ));
        let shown = found.body.matches("?OpenDocument").count() as u64;
        assert_eq!(shown, 50);
        assert!(!found.body.contains("outside the view"));
        assert_eq!(snapshot_reads() - reads, shown + acl_reads);
        assert_eq!(pages_built(), built);
    }
}
