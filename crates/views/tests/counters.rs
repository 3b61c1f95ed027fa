//! A view's maintenance counts are the process-wide `View.*` counters.
//! This is its own test binary and holds one test, so the view it
//! attaches is the only one that moves them.

use std::sync::Arc;

use domino_core::{Database, DbConfig, Note};
use domino_obs as obs;
use domino_types::{LogicalClock, ReplicaId, Value};
use domino_views::{ColumnSpec, SortDir, View, ViewDesign};

fn task(db: &Database, subject: &str) -> Note {
    let mut n = Note::document("Task");
    n.set("Subject", Value::text(subject));
    db.save(&mut n).unwrap();
    n
}

#[test]
fn a_view_evaluates_each_changed_document_once_per_batch() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Counters", ReplicaId(1), ReplicaId(2)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let start = obs::snapshot();
    let design = ViewDesign::new("Tasks", r#"SELECT Form = "Task""#)
        .unwrap()
        .column(
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(SortDir::Ascending),
        );
    let view = View::attach(&db, design).unwrap();
    task(&db, "b-second");
    task(&db, "a-first");
    assert_eq!(view.len(), 2);
    let d = obs::snapshot().diff(&start);
    assert_eq!(d.counter("View.Rebuilds"), 1, "the attach build, no other");
    assert_eq!(d.counter("View.Documents.Evaluated"), 2);

    let start = obs::snapshot();
    {
        let _batch = db.begin_batch();
        let mut t = task(&db, "d-fourth");
        // Re-save inside the batch: coalescing must collapse it.
        t.set("Subject", Value::text("c-third"));
        db.save(&mut t).unwrap();
        task(&db, "e-fifth");
    }
    assert_eq!(view.len(), 4);
    let d = obs::snapshot().diff(&start);
    assert_eq!(d.counter("View.Batches"), 1);
    let sizes = d.histogram("View.Batch.Size");
    assert_eq!((sizes.count, sizes.sum), (1, 2), "one batch of two events");
    assert_eq!(
        d.counter("View.Batch.Events"),
        2,
        "three saves coalesce to two events"
    );
    assert_eq!(d.counter("View.Documents.Evaluated"), 2);
}
