//! Thread-safety: a `Database` behind `Arc` takes concurrent writers and
//! readers (internally serialized), with live views and a full-text index
//! attached, without deadlock or lost writes.

use std::sync::Arc;
use std::thread;

use domino::core::{merkle_head, stub_head, Database, DbConfig, MerkleSummary, Note};
use domino::ftindex::FtIndex;
use domino::types::{LogicalClock, NoteClass, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};

#[test]
fn concurrent_writers_with_live_indexes() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Shared", ReplicaId(1), ReplicaId(9)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let view = View::attach(
        &db,
        ViewDesign::new("all", r#"SELECT Form = "Memo""#)
            .unwrap()
            .column(
                ColumnSpec::new("Subject", "Subject")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            ),
    )
    .unwrap();
    let ft = FtIndex::attach(&db).unwrap();

    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            for i in 0..PER_THREAD {
                let mut n = Note::document("Memo");
                n.set("Subject", Value::text(format!("t{t}-m{i:02} payload")));
                db.save(&mut n).unwrap();
                // Interleave reads.
                let _ = db.open_note(n.id).unwrap();
            }
        }));
    }
    // A reader thread hammering queries while writes happen.
    let reader_db = db.clone();
    let reader = thread::spawn(move || {
        let mut max_seen = 0;
        for _ in 0..200 {
            max_seen = max_seen.max(reader_db.note_ids(Some(NoteClass::Document)).unwrap().len());
        }
        max_seen
    });
    for h in handles {
        h.join().unwrap();
    }
    let _ = reader.join().unwrap();

    assert_eq!(db.document_count().unwrap(), THREADS * PER_THREAD);
    assert_eq!(view.len(), THREADS * PER_THREAD, "view saw every write");
    assert_eq!(
        ft.search("payload").unwrap().len(),
        THREADS * PER_THREAD,
        "full-text saw every write"
    );
    // Rows are distinct and sorted.
    let rows = view.rows();
    let mut subjects: Vec<String> = rows.iter().map(|e| e.values[0].to_text()).collect();
    let sorted = subjects.clone();
    subjects.sort();
    assert_eq!(subjects, sorted);
}

#[test]
fn optimistic_conflict_under_racing_editors() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Race", ReplicaId(1), ReplicaId(9)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let mut base = Note::document("Memo");
    base.set("Counter", Value::Number(0.0));
    db.save(&mut base).unwrap();
    let id = base.id;

    // N threads increment with retry-on-conflict; total must equal N*K.
    const THREADS: usize = 4;
    const INCREMENTS: usize = 25;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..INCREMENTS {
                loop {
                    let mut n = db.open_note(id).unwrap();
                    let c = n.get("Counter").unwrap().as_number().unwrap();
                    n.set("Counter", Value::Number(c + 1.0));
                    match db.save(&mut n) {
                        Ok(()) => break,
                        Err(e) if e.kind() == "update_conflict" => continue,
                        // A same-note loser is told to re-read and retry;
                        // it is never told the database is busy.
                        Err(e) => panic!("loser saw {} instead of update_conflict: {e}", e.kind()),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let n = db.open_note(id).unwrap();
    assert_eq!(
        n.get("Counter"),
        Some(&Value::Number((THREADS * INCREMENTS) as f64)),
        "optimistic concurrency lost an increment"
    );
}

/// 8-thread hammer on the snapshot concurrency layer: four writers bump
/// per-note counters (all note sets disjoint, so the sequence-number
/// check never rejects a save) while four readers pin snapshots in a
/// tight loop. Readers check that snapshot
/// sequences are monotone and that every snapshot is internally
/// consistent; afterwards the final snapshot must equal the engine's
/// current state note-for-note.
#[test]
fn snapshot_readers_against_writer_storm() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Hammer", ReplicaId(1), ReplicaId(9)),
            LogicalClock::new(),
        )
        .unwrap(),
    );

    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const NOTES_PER_WRITER: usize = 2;
    const ROUNDS: usize = 40;

    // Seed each writer's private notes.
    let mut owned: Vec<Vec<_>> = Vec::new();
    for w in 0..WRITERS {
        let mut ids = Vec::new();
        for k in 0..NOTES_PER_WRITER {
            let mut n = Note::document("Memo");
            n.set("Subject", Value::text(format!("w{w}-n{k}")));
            n.set("Counter", Value::Number(0.0));
            db.save(&mut n).unwrap();
            ids.push(n.id);
        }
        owned.push(ids);
    }

    let barrier = Arc::new(std::sync::Barrier::new(WRITERS + READERS));
    let mut handles = Vec::new();
    for ids in owned {
        let db = db.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            for i in 0..ROUNDS {
                let id = ids[i % ids.len()];
                let mut n = db.open_note(id).unwrap();
                let c = n.get("Counter").unwrap().as_number().unwrap();
                n.set("Counter", Value::Number(c + 1.0));
                // Disjoint note sets: no optimistic conflict is possible.
                db.save(&mut n).unwrap();
            }
        }));
    }
    for _ in 0..READERS {
        let db = db.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut last_seq = 0u64;
            for _ in 0..100 {
                let snap = db.snapshot();
                assert!(snap.seq() >= last_seq, "snapshot sequence went backwards");
                last_seq = snap.seq();
                // Internal consistency: every document listed is readable
                // from the same snapshot, bit-for-bit.
                for doc in snap.documents() {
                    let again = snap.open_arc(doc.id).unwrap();
                    assert_eq!(*doc, *again, "snapshot tore mid-read");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Convergence: the final snapshot equals the engine's current state.
    let snap = db.snapshot();
    assert_eq!(snap.seq(), db.change_seq());
    let mut total = 0.0;
    for doc in snap.documents() {
        let live = db.stored_note(doc.id).unwrap();
        assert_eq!(*doc, live, "snapshot diverged from engine state");
        total += doc.get("Counter").unwrap().as_number().unwrap();
    }
    assert_eq!(total as usize, WRITERS * ROUNDS, "a write was lost");
}

/// `save`, `delete` and `save_replicated` racing on one UNID. The engine
/// mutex orders them and the sequence-number check turns the losers away;
/// whatever order they land in, the incrementally maintained Merkle root
/// equals one recomputed from a scan of what is stored.
#[test]
fn save_delete_replicate_race_on_one_unid() {
    for round in 0..24 {
        let clock = LogicalClock::new();
        let open = |instance| {
            Arc::new(
                Database::open_in_memory(
                    DbConfig::new("Race", ReplicaId(1), ReplicaId(instance)),
                    clock.clone(),
                )
                .unwrap(),
            )
        };
        let db = open(9);
        let mut base = Note::document("Memo");
        base.set("Counter", Value::Number(0.0));
        db.save(&mut base).unwrap();
        // The same note edited on another replica.
        let other = open(10);
        let mut remote = other.save_replicated(base.clone()).unwrap();
        remote.set("Counter", Value::Number(100.0));
        other.save(&mut remote).unwrap();

        // All four start from the same stored revision and are released
        // together; the mutators are rotated over the threads so the
        // spawn order does not fix who wins.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (db, barrier) = (db.clone(), barrier.clone());
                let (mut mine, remote) = (base.clone(), remote.clone());
                thread::spawn(move || {
                    barrier.wait();
                    let role = (t + round) % 4;
                    let result = match role {
                        0 => db.delete(mine.id).map(|_| ()),
                        1 => db.save_replicated(remote).map(|_| ()),
                        k => {
                            mine.set("Counter", Value::Number(k as f64));
                            db.save(&mut mine)
                        }
                    };
                    (role, result)
                })
            })
            .collect();
        // `delete` and `save_replicated` take whatever is stored, so they
        // always land. The two savers hold the same revision: at most one
        // wins, and a loser learns why (someone saved first, or the note
        // is gone) — never that the database is busy.
        let mut savers_won = 0;
        for h in handles {
            match h.join().unwrap() {
                (0 | 1, result) => result.unwrap(),
                (_, Ok(())) => savers_won += 1,
                (_, Err(e)) => assert!(
                    matches!(e.kind(), "update_conflict" | "not_found"),
                    "loser saw {}: {e}",
                    e.kind()
                ),
            }
        }
        assert!(savers_won <= 1, "two saves of one revision both won");

        let mut scanned = MerkleSummary::new();
        for id in db.note_ids(None).unwrap() {
            let n = db.stored_note(id).unwrap();
            scanned.set_head(n.unid(), Some(merkle_head(&n)));
        }
        let stubs = db.stubs().unwrap();
        for stub in &stubs {
            scanned.set_head(stub.oid.unid, Some(stub_head(&stub.oid)));
        }
        assert_eq!(db.merkle_root(), scanned.root());
        assert_eq!(
            db.snapshot().contains(base.unid()),
            stubs.is_empty(),
            "snapshot and engine disagree on whether the note is live"
        );
    }
}
