//! The change feed delivers events in commit order. A first-registered
//! observer parks the delivery of save A ("beta") until a second commit B
//! to the same document has landed. Whatever B is — a newer save, a
//! delete, a `$Readers` restriction — the view and the full-text index
//! must end at B's state, as a rebuild would, and cluster mates must not
//! bring a deleted document back. A commit from inside an observer and a
//! panicking observer must not wedge the feed. A cluster pushes through
//! its mates' feeds: it stops when dropped, keeps what it could not push,
//! and loses nothing to a pause of any length.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use domino::core::{ChangeEvent, Database, DbConfig, Note, Subscription, ITEM_READERS};
use domino::ftindex::FtIndex;
use domino::replica::Cluster;
use domino::storage::MemDisk;
use domino::types::{
    FaultPlan, Faulty, ItemFlags, LogicalClock, ReplicaId, Timestamp, Unid, Value,
};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign, ViewEntry};
use domino::wal::MemLogStore;

fn design() -> ViewDesign {
    ViewDesign::new("Memos", r#"SELECT Form = "Memo""#)
        .unwrap()
        .column(
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(SortDir::Ascending),
        )
}

/// Parks the first delivery that carries a save of Subject "beta" until
/// the database's change sequence moves past it, while the returned
/// subscription lives. The receiver fires once that delivery is parked.
fn park_first_beta(db: &Arc<Database>) -> (mpsc::Receiver<()>, Subscription) {
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(tx);
    let parked = AtomicBool::new(false);
    let weak = Arc::downgrade(db);
    let feed = db.subscribe(move |events: &[ChangeEvent]| {
        let beta = events.iter().any(|e| {
            matches!(e, ChangeEvent::Saved { new, .. }
                if new.get_text("Subject").as_deref() == Some("beta"))
        });
        if !beta || parked.swap(true, Ordering::SeqCst) {
            return;
        }
        let db = weak.upgrade().unwrap();
        let at = db.change_seq();
        tx.lock().unwrap().send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.change_seq() == at && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
    });
    (rx, feed)
}

struct Outcome {
    db: Arc<Database>,
    view: View,
    ft: FtIndex,
    unid: Unid,
}

/// Save "alpha", then save A ("beta") on another thread; while A's
/// delivery is parked, run `b` on A's committed revision.
fn reordered(b: impl FnOnce(&Database, Note)) -> Outcome {
    let db = open(9);
    let (parked, _park) = park_first_beta(&db);
    let view = View::attach(&db, design()).unwrap();
    let ft = FtIndex::attach(&db);
    let doc = memo(&db, "alpha");

    let save_a = {
        let (db, mut doc) = (db.clone(), doc.clone());
        thread::spawn(move || {
            doc.set("Subject", Value::text("beta"));
            db.save(&mut doc).unwrap();
        })
    };
    parked
        .recv_timeout(Duration::from_secs(10))
        .expect("save A's delivery parked");
    b(&db, db.open_by_unid(doc.unid()).unwrap());
    save_a.join().unwrap();
    Outcome {
        unid: doc.unid(),
        db,
        view,
        ft,
    }
}

fn rows(view: &View) -> Vec<ViewEntry> {
    view.rows().iter().map(|r| (**r).clone()).collect()
}

fn hits(ft: &FtIndex, term: &str) -> Vec<Unid> {
    ft.search(term).unwrap().iter().map(|h| h.unid).collect()
}

/// The view and the full-text index equal fresh builds.
fn assert_at_b(out: &Outcome) {
    let fresh = View::detached(&out.db, design()).unwrap();
    fresh.rebuild().unwrap();
    assert_eq!(rows(&out.view), rows(&fresh), "view differs from a rebuild");
    let fresh = FtIndex::detached();
    fresh.rebuild(&out.db);
    for term in ["alpha", "beta", "gamma", "memo"] {
        assert_eq!(hits(&out.ft, term), hits(&fresh, term), "search {term:?}");
    }
}

#[test]
fn a_newer_save_is_not_overwritten_by_a_late_delivery() {
    let out = reordered(|db, mut n| {
        n.set("Subject", Value::text("gamma"));
        db.save(&mut n).unwrap();
    });
    let row = out.view.entry(out.unid).expect("the row is shown");
    assert_eq!(row.values[0], Value::text("gamma"), "stale row");
    assert!(out.ft.search("beta").unwrap().is_empty());
    assert_eq!(out.ft.search("gamma").unwrap().len(), 1);
    assert_at_b(&out);
}

#[test]
fn a_delete_is_not_undone_by_a_late_delivery() {
    let out = reordered(|db, n| {
        db.delete(n.id).unwrap();
    });
    assert_eq!(out.db.document_count().unwrap(), 0);
    assert_eq!(out.view.len(), 0, "the deleted document keeps a row");
    assert!(out.ft.search("beta").unwrap().is_empty());
    assert_at_b(&out);
}

#[test]
fn a_readers_restriction_is_not_lifted_by_a_late_delivery() {
    let out = reordered(|db, mut n| {
        n.set_with_flags(
            ITEM_READERS,
            Value::text_list(["alice"]),
            ItemFlags::SUMMARY | ItemFlags::READERS,
        );
        db.save(&mut n).unwrap();
    });
    let row = out.view.entry(out.unid).expect("the row is shown");
    assert_eq!(row.readers, ["alice"], "the row lost its reader list");
    assert_at_b(&out);
}

fn subject_of(event: &ChangeEvent) -> String {
    match event {
        ChangeEvent::Saved { new, .. } => new.get_text("Subject").unwrap_or_default(),
        ChangeEvent::Deleted { old, .. } => {
            format!("-{}", old.get_text("Subject").unwrap_or_default())
        }
    }
}

fn memo(db: &Database, subject: &str) -> Note {
    let mut n = Note::document("Memo");
    n.set("Subject", Value::text(subject));
    db.save(&mut n).unwrap();
    n
}

/// Every delivered event's subject, in delivery order, while the
/// returned subscription lives.
fn recorder(db: &Database) -> (Arc<Mutex<Vec<String>>>, Subscription) {
    let seen: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = seen.clone();
    let feed = db.subscribe(move |events: &[ChangeEvent]| {
        sink.lock().unwrap().extend(events.iter().map(subject_of));
    });
    (seen, feed)
}

fn open(instance: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new("Feed", ReplicaId(5), ReplicaId(instance)),
            LogicalClock::starting_at(Timestamp(instance * 7)),
        )
        .unwrap(),
    )
}

/// A commit made inside an observer only queues: the save being
/// delivered returns after both events have arrived, in commit order.
#[test]
fn a_commit_from_inside_an_observer_is_delivered_next() {
    let db = open(1);
    let weak = Arc::downgrade(&db);
    let _feed = db.subscribe(move |events: &[ChangeEvent]| {
        if events.iter().any(|e| subject_of(e) == "first") {
            memo(&weak.upgrade().unwrap(), "second");
        }
    });
    let (seen, _recorded) = recorder(&db);
    memo(&db, "first");
    assert_eq!(*seen.lock().unwrap(), ["first", "second"]);
}

/// An observer's panic reaches the saver, and the feed goes on: an event
/// queued while the panicking slice ran is still delivered, and so is
/// every later one.
#[test]
fn a_panicking_observer_does_not_wedge_the_feed() {
    let db = open(1);
    let weak = Arc::downgrade(&db);
    let _feed = db.subscribe(move |events: &[ChangeEvent]| {
        if events.iter().any(|e| subject_of(e) == "boom") {
            memo(&weak.upgrade().unwrap(), "queued meanwhile");
            panic!("observer bug");
        }
    });
    let (seen, _recorded) = recorder(&db);
    let boom = panic::catch_unwind(AssertUnwindSafe(|| memo(&db, "boom")));
    assert!(boom.is_err(), "the observer's panic reaches the caller");
    assert_eq!(*seen.lock().unwrap(), ["queued meanwhile"]);
    let kept = memo(&db, "kept");
    db.delete(kept.id).unwrap();
    assert_eq!(*seen.lock().unwrap(), ["queued meanwhile", "kept", "-kept"]);
    assert_eq!(
        db.document_count().unwrap(),
        2,
        "the panicking save committed"
    );
}

/// A delete on mate A commits while A's earlier save of the same
/// document is still being delivered. B takes the save and echoes it
/// back to A, where it meets A's newer stub: the stub stands, and the
/// delete then reaches B. The document stays deleted on both mates.
#[test]
fn a_cluster_delete_during_delivery_of_an_earlier_save_stays_deleted_on_every_mate() {
    let mates = [open(400), open(401)];
    // Registered before the cluster, so it sees A's save first: it parks
    // that one delivery until the next commit on A has landed.
    let (parked, _park) = park_first_beta(&mates[0]);
    let _cluster = Cluster::join(&mates).unwrap();

    let save = {
        let a = mates[0].clone();
        thread::spawn(move || memo(&a, "beta"))
    };
    parked
        .recv_timeout(Duration::from_secs(10))
        .expect("the save's delivery parked");
    let id = mates[0].note_ids(None).unwrap()[0];
    mates[0].delete(id).unwrap();
    let unid = save.join().unwrap().unid();

    for (mate, name) in mates.iter().zip(["A", "B"]) {
        assert!(
            mate.open_by_unid(unid).is_err(),
            "the document is live on {name}"
        );
        assert_eq!(
            mate.stubs().unwrap().len(),
            1,
            "{name} lost the deletion stub"
        );
    }
}

#[test]
fn a_dropped_cluster_pushes_nothing() {
    let mates = [open(402), open(403)];
    drop(Cluster::join(&mates).unwrap());
    let doc = memo(&mates[0], "after the drop");
    assert!(mates[1].open_by_unid(doc.unid()).is_err());
}

/// B's log fails the append of A's pushed save: the push is kept dirty
/// for a retry, not counted as suppressed and forgotten.
#[test]
fn a_failed_push_stays_dirty() {
    let plan = FaultPlan::default();
    let b = Arc::new(
        Database::open(
            Box::new(MemDisk::new()),
            Some(Box::new(Faulty::new(MemLogStore::new(), plan.clone()))),
            DbConfig::new("Feed", ReplicaId(5), ReplicaId(405)),
            LogicalClock::starting_at(Timestamp(405 * 7)),
        )
        .unwrap(),
    );
    let a = open(404);
    let cluster = Cluster::join(&[a.clone(), b.clone()]).unwrap();
    plan.arm(0);
    let doc = memo(&a, "not yet on B");
    plan.disarm();
    assert!(b.open_by_unid(doc.unid()).is_err());
    assert_eq!(cluster.backlog(), 1, "the failed push was dropped");
}

#[test]
fn a_pause_of_any_length_loses_nothing() {
    let mates = [open(406), open(407), open(408)];
    let cluster = Cluster::join(&mates).unwrap();
    cluster.pause();
    let unids: Vec<Unid> = (0..1100)
        .map(|i| memo(&mates[i % 2], &format!("m{i}")).unid())
        .collect();
    assert_eq!(cluster.backlog(), unids.len());
    assert_eq!(cluster.resume(), unids.len() as u64);
    assert_eq!(cluster.backlog(), 0);
    for mate in &mates {
        assert_eq!(mate.document_count().unwrap(), unids.len());
        for unid in &unids {
            assert!(mate.open_by_unid(*unid).is_ok());
        }
    }
}
