//! One observer lifetime: whoever holds a [`Subscription`] owns its
//! observer, and the database holds it only weakly. A dropped view,
//! full-text index or replaced server view is no longer maintained, and
//! its state is freed while the database lives on.
//!
//! Every check reads process-wide counters and gauges (`View.Batches`,
//! `Ft.Index.*`), so the tests run one at a time on `COUNTERS`, and this
//! is its own test binary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use domino::core::{ChangeEvent, Database, DbConfig, Note, Subscription};
use domino::ftindex::FtIndex;
use domino::server::{DominoServer, Request, ServerConfig};
use domino::types::{LogicalClock, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};

static COUNTERS: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn batches() -> u64 {
    domino::obs::snapshot().counter("View.Batches")
}

fn ft_gauges() -> (i64, i64) {
    let s = domino::obs::snapshot();
    (s.gauge("Ft.Index.Documents"), s.gauge("Ft.Index.Bytes"))
}

fn open() -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new("Lifetime", ReplicaId(1), ReplicaId(2)),
            LogicalClock::new(),
        )
        .unwrap(),
    )
}

fn memo(db: &Database, subject: &str) {
    let mut n = Note::document("Memo");
    n.set("Subject", Value::text(subject));
    db.save(&mut n).unwrap();
}

fn by_subject(name: &str) -> ViewDesign {
    ViewDesign::new(name, r#"SELECT Form = "Memo""#)
        .unwrap()
        .column(
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(SortDir::Ascending),
        )
}

/// `View.Batches` moved by one save.
fn batches_per_save(db: &Database) -> u64 {
    let before = batches();
    memo(db, "one more");
    batches() - before
}

#[test]
fn dropped_views_and_indexes_are_not_maintained_and_free_their_state() {
    let _alone = alone();
    let start = ft_gauges();
    let db = open();
    for i in 0..5 {
        memo(&db, &format!("memo {i}"));
    }
    for _ in 0..1_000 {
        drop(View::attach(&db, by_subject("Memos")).unwrap());
        drop(FtIndex::attach(&db));
    }
    assert_eq!(ft_gauges(), start, "a dropped index kept its share");
    assert_eq!(
        batches_per_save(&db),
        0,
        "a dropped view is still maintained"
    );
    assert_eq!(ft_gauges(), start, "a dropped index re-indexed the save");

    // A live view and index still are maintained.
    let view = View::attach(&db, by_subject("Memos")).unwrap();
    let ft = FtIndex::attach(&db);
    assert_eq!(batches_per_save(&db), 1);
    assert_eq!(view.len(), 7);
    assert_eq!(ft.stats().documents, 7);
}

#[test]
fn a_view_replaced_under_its_name_is_not_maintained() {
    let _alone = alone();
    let db = open();
    let server = DominoServer::new(ServerConfig::default());
    server.register_database("memos", &db).unwrap();
    server.add_view("memos", by_subject("Memos")).unwrap();
    assert_eq!(batches_per_save(&db), 1);
    server.add_view("memos", by_subject("memos")).unwrap();
    assert_eq!(
        batches_per_save(&db),
        1,
        "the replaced view is still maintained"
    );
}

#[test]
fn a_failed_registration_leaves_no_observer_behind() {
    let _alone = alone();
    let db = open();
    // A category column after a sorted data column: the design is
    // stored, but does not validate.
    let broken =
        by_subject("Broken").column(ColumnSpec::new("Kind", "Form").unwrap().categorized());
    assert!(broken.validate().is_err());
    for design in [by_subject("Good"), broken] {
        db.save_design(&mut design.to_note()).unwrap();
    }
    memo(&db, "stored");

    let server = DominoServer::new(ServerConfig::default());
    domino::obs::drain(usize::MAX);
    server.register_database("memos", &db).unwrap();
    let skipped: Vec<String> = domino::obs::drain(usize::MAX)
        .iter()
        .filter(|e| e.code == "View.Design.Skipped")
        .map(|e| e.field("view").unwrap().to_text())
        .collect();
    assert_eq!(skipped, ["Broken"], "one warning names the skipped design");
    let good = server.handle(&Request::get("/memos.nsf/Good?OpenView"));
    assert_eq!(good.status.code(), 200);
    assert!(good.body.contains("stored"));
    let broken = server.handle(&Request::get("/memos.nsf/Broken?OpenView"));
    assert_eq!(broken.status.code(), 404);
    assert_eq!(batches_per_save(&db), 1, "the good view is maintained");

    drop(server);
    assert_eq!(batches_per_save(&db), 0, "a view outlived its server");
}

#[test]
fn a_subscription_dropped_inside_its_observer_gets_no_later_slice() {
    let _alone = alone();
    let db = open();
    let calls = Arc::new(AtomicUsize::new(0));
    let state = Arc::new(());
    let freed = Arc::downgrade(&state);
    let slot: Arc<Mutex<Option<Subscription>>> = Arc::default();
    let feed = {
        let (calls, slot) = (calls.clone(), slot.clone());
        db.subscribe(move |_: &[ChangeEvent]| {
            let _owned = &state; // freed with the observer
            calls.fetch_add(1, Ordering::SeqCst);
            // Drop this observer's own guard while it runs.
            drop(slot.lock().unwrap().take());
        })
    };
    *slot.lock().unwrap() = Some(feed);
    let (seen, _recorded) = {
        let seen = Arc::new(AtomicUsize::new(0));
        let sink = seen.clone();
        let feed = db.subscribe(move |events: &[ChangeEvent]| {
            sink.fetch_add(events.len(), Ordering::SeqCst);
        });
        (seen, feed)
    };

    memo(&db, "first");
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert!(
        freed.upgrade().is_none(),
        "the observer's state outlived its call"
    );
    memo(&db, "second");
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "a dropped observer got a slice"
    );
    assert_eq!(
        seen.load(Ordering::SeqCst),
        2,
        "the other observer missed one"
    );
}
