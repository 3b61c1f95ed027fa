//! Drive the concurrency layer end-to-end through the public API:
//! snapshot isolation, lock-free reads under a storm of disjoint
//! writers, and the `Db.Snapshot.*` counters.
//!
//! ```sh
//! cargo run --release -q -p domino-core --example snapshot_demo
//! ```

use std::sync::Arc;
use std::thread;

use domino_core::{Database, DbConfig, Note};
use domino_obs as obs;
use domino_types::{LogicalClock, ReplicaId, Value};

fn main() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Demo", ReplicaId(1), ReplicaId(9)),
            LogicalClock::new(),
        )
        .expect("open"),
    );

    // Seed a handful of documents.
    let mut ids = Vec::new();
    for i in 0..4 {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(format!("memo {i}")));
        n.set("Counter", Value::Number(0.0));
        db.save(&mut n).expect("save");
        ids.push(n.id);
    }

    // 1. Snapshot isolation: a pinned snapshot keeps reading the state it
    //    was taken at, while later commits advance the live database.
    let before = db.snapshot();
    let mut n = db.open_note(ids[0]).expect("open");
    n.set("Counter", Value::Number(42.0));
    db.save(&mut n).expect("save");
    let old = before.open_note(ids[0]).expect("snapshot read");
    let live = db.open_note(ids[0]).expect("live read");
    println!(
        "snapshot at seq {} still sees Counter = {}, live (seq {}) sees {}",
        before.seq(),
        old.get("Counter").unwrap().as_number().unwrap(),
        db.change_seq(),
        live.get("Counter").unwrap().as_number().unwrap(),
    );
    assert_eq!(old.get("Counter"), Some(&Value::Number(0.0)));
    assert_eq!(live.get("Counter"), Some(&Value::Number(42.0)));
    drop(before);

    // 2. Disjoint writers in parallel while readers pin snapshots and
    //    take no lock at all. Each writer owns its note, so the
    //    sequence-number check never rejects a save.
    let mut handles = Vec::new();
    for &id in &ids {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..25 {
                let mut n = db.open_note(id).expect("open");
                let c = n.get("Counter").unwrap().as_number().unwrap();
                n.set("Counter", Value::Number(c + 1.0));
                db.save(&mut n).expect("save");
            }
        }));
    }
    let reader_db = db.clone();
    handles.push(thread::spawn(move || {
        let mut last = 0;
        for _ in 0..100 {
            let snap = reader_db.snapshot();
            assert!(snap.seq() >= last, "sequence went backwards");
            last = snap.seq();
            // Every listed document reads consistently from the same pin.
            for doc in snap.documents() {
                assert_eq!(*doc, *snap.open_arc(doc.id).expect("open"));
            }
        }
    }));
    for h in handles {
        h.join().expect("thread");
    }
    println!("writer storm done: 100 saves, none rejected");

    // 3. Convergence: the final snapshot equals the live state, and every
    //    increment survived.
    let snap = db.snapshot();
    assert_eq!(snap.seq(), db.change_seq());
    let total: f64 = snap
        .documents()
        .iter()
        .map(|n| n.get("Counter").unwrap().as_number().unwrap())
        .sum();
    println!(
        "final snapshot seq {}: counters sum to {} (expected {})",
        snap.seq(),
        total,
        4 * 25 + 42
    );
    assert_eq!(total as usize, 4 * 25 + 42);

    let s = obs::snapshot();
    println!(
        "snapshot stats: {} pinned, {} reads served, {} versions retained, {} pruned",
        s.counter("Db.Snapshot.Pinned"),
        s.counter("Db.Snapshot.Reads"),
        db.snapshot_stats().retained_versions,
        s.counter("Db.Snapshot.Pruned")
    );
    println!("snapshot demo complete");
}
