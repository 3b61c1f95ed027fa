//! Property: concurrent snapshot reads are linearizable — every snapshot
//! equals some serial prefix of the commit order.
//!
//! Commits publish to the version store while still holding the engine
//! lock, so commit order equals change-sequence order, and a snapshot
//! pinned at sequence `S` must show exactly the first `S` commits. The
//! properties below exercise that with real threads:
//!
//! * **Prefix sum** — every commit after the seeded baseline bumps exactly
//!   one note's `Ver` field by one, so the sum of `Ver` across a
//!   snapshot's documents must equal `snap.seq() - base_seq`. A snapshot
//!   that showed a later commit without an earlier one (or dropped a
//!   committed write) breaks the equality.
//! * **Per-note monotonicity** — across snapshots with nondecreasing
//!   sequences, each note's `Ver` never decreases.
//! * **Byte identity** — two snapshots pinned at the same sequence carry
//!   identical documents (the "byte-identical pages" clause: rendering
//!   from equal-seq snapshots can never differ).

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;

use proptest::prelude::*;

use domino::core::{Database, DbConfig, Note};
use domino::types::{LogicalClock, NoteId, ReplicaId, Value};

fn ver_of(n: &Note) -> u64 {
    n.get("Ver").unwrap().as_number().unwrap() as u64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..Default::default() })]

    #[test]
    fn snapshot_reads_equal_a_serial_prefix_of_commits(
        writers in 1usize..=3,
        notes_per_writer in 1usize..=2,
        ops_per_writer in 1usize..=24,
    ) {
        let db = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Lin", ReplicaId(1), ReplicaId(9)),
                LogicalClock::new(),
            )
            .unwrap(),
        );

        // Seed every note with Ver = 0, then fix the baseline sequence:
        // everything after this point is "the commits".
        let mut owned: Vec<Vec<NoteId>> = Vec::new();
        for w in 0..writers {
            let mut ids = Vec::new();
            for k in 0..notes_per_writer {
                let mut n = Note::document("Memo");
                n.set("Subject", Value::text(format!("w{w}-n{k}")));
                n.set("Ver", Value::Number(0.0));
                db.save(&mut n).unwrap();
                ids.push(n.id);
            }
            owned.push(ids);
        }
        let base_seq = db.change_seq();

        let barrier = Arc::new(Barrier::new(writers + 1));
        let mut handles = Vec::new();
        for ids in owned {
            let db = db.clone();
            let barrier = barrier.clone();
            handles.push(thread::spawn(move || {
                barrier.wait();
                for i in 0..ops_per_writer {
                    let id = ids[i % ids.len()];
                    let mut n = db.open_note(id).unwrap();
                    n.set("Ver", Value::Number((ver_of(&n) + 1) as f64));
                    // Writers own disjoint note sets: no conflicts, no
                    // lock contention between them.
                    db.save(&mut n).unwrap();
                }
            }));
        }

        let reader_db = db.clone();
        let reader_barrier = barrier.clone();
        let reader = thread::spawn(move || {
            reader_barrier.wait();
            let mut last_seq = 0u64;
            let mut last_vers: HashMap<NoteId, u64> = HashMap::new();
            for _ in 0..80 {
                let a = reader_db.snapshot();
                let b = reader_db.snapshot();
                assert!(a.seq() >= last_seq, "snapshot sequence went backwards");
                last_seq = a.seq();

                // Prefix sum: visible increments == commits at or before
                // this sequence.
                let docs = a.documents();
                let sum: u64 = docs.iter().map(|n| ver_of(n)).sum();
                assert_eq!(
                    sum,
                    a.seq() - base_seq,
                    "snapshot at seq {} is not a serial prefix of the commit order",
                    a.seq()
                );

                // Per-note monotonicity across nondecreasing sequences.
                for n in &docs {
                    if let Some(&prev) = last_vers.get(&n.id) {
                        assert!(ver_of(n) >= prev, "a note's version rolled back");
                    }
                    last_vers.insert(n.id, ver_of(n));
                }

                // Byte identity: equal sequences, equal contents.
                if a.seq() == b.seq() {
                    let other = b.documents();
                    assert_eq!(docs.len(), other.len());
                    for (x, y) in docs.iter().zip(other.iter()) {
                        assert_eq!(**x, **y, "equal-seq snapshots differ");
                    }
                }
            }
        });

        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();

        // Quiescent check: the final snapshot is the full serial history.
        let total_ops = (writers * ops_per_writer) as u64;
        let snap = db.snapshot();
        prop_assert_eq!(snap.seq() - base_seq, total_ops);
        let sum: u64 = snap.documents().iter().map(|n| ver_of(n)).sum();
        prop_assert_eq!(sum, total_ops);
    }
}
