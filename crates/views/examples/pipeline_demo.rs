//! End-to-end drive of the indexing pipeline through the public API:
//! batched saves coalescing into one view update, rebuild parity, and
//! index versions that no two index states share. The counts are the
//! process-wide `View.*` counters; this process maintains one view until
//! step 6, so they are that view's.
//!
//! Run with: cargo run --release -p domino-views --example pipeline_demo

use std::sync::Arc;

use domino_core::{Database, DbConfig, Note};
use domino_obs as obs;
use domino_types::{LogicalClock, ReplicaId, Value};
use domino_views::{ColumnSpec, SortDir, View, ViewDesign};

fn task(db: &Database, subject: &str, status: &str) -> Note {
    let mut n = Note::document("Task");
    n.set("Subject", Value::text(subject));
    n.set("Status", Value::text(status));
    db.save(&mut n).unwrap();
    n
}

fn design() -> ViewDesign {
    ViewDesign::new("Tasks", r#"SELECT Form = "Task""#)
        .unwrap()
        .column(ColumnSpec::new("Status", "Status").unwrap().categorized())
        .column(
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(SortDir::Ascending),
        )
}

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name)
}

fn max_batch() -> u64 {
    obs::snapshot().histogram("View.Batch.Size").max
}

fn main() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("demo", ReplicaId(1), ReplicaId(7)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let view = View::attach(&db, design()).unwrap();

    // 1. Batched saves: three saves, one doc saved twice -> coalesces to 2.
    {
        let _batch = db.begin_batch();
        let mut t = task(&db, "write report", "open");
        task(&db, "file expenses", "open");
        t.set("Status", Value::text("done"));
        db.save(&mut t).unwrap();
        println!("inside batch: view.len() = {}", view.len());
    }
    println!(
        "after batch:  view.len() = {}, batches = {}, batch_events = {}, max_batch = {}, evaluated = {}",
        view.len(),
        counter("View.Batches"),
        counter("View.Batch.Events"),
        max_batch(),
        counter("View.Documents.Evaluated")
    );
    for row in view.rows() {
        println!("  row: {:?} / {:?}", row.values[0], row.values[1]);
    }

    // 2. Probe: save-then-delete inside one batch -> doc never reaches the view.
    {
        let _batch = db.begin_batch();
        let ghost = task(&db, "ephemeral", "open");
        db.delete(ghost.id).unwrap();
    }
    println!(
        "after save+delete batch: view.len() = {} (ghost row absent), batches = {}",
        view.len(),
        counter("View.Batches")
    );

    // 3. Probe: empty batch -> no dispatch, no batch counted.
    {
        let _batch = db.begin_batch();
    }
    // 4. Probe: nested batches flush once at the outermost guard.
    {
        let _outer = db.begin_batch();
        {
            let _inner = db.begin_batch();
            task(&db, "nested", "open");
        }
        println!(
            "inner guard dropped, view.len() = {} (still buffered)",
            view.len()
        );
    }
    println!(
        "after empty+nested batches: view.len() = {}, batches = {}, max_batch = {}",
        view.len(),
        counter("View.Batches"),
        max_batch()
    );

    // 5. Full rebuild: same rows, new version.
    let rows_before: Vec<_> = view.rows().iter().map(|r| r.unid).collect();
    let version_before = view.version();
    view.rebuild().unwrap();
    let rows_after: Vec<_> = view.rows().iter().map(|r| r.unid).collect();
    println!(
        "after rebuild: rows identical = {}, rebuilds = {}, new version = {}",
        rows_before == rows_after,
        counter("View.Rebuilds"),
        view.version() != version_before
    );

    // 6. A second view of the same design holds the same rows under a
    //    version of its own.
    let view2 = View::attach(&db, design()).unwrap();
    println!(
        "second view attach: len = {}, versions differ = {}",
        view2.len(),
        view2.version() != view.version()
    );
}
