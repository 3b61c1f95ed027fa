//! Readers and the writer meet nowhere: live-note reads never take the
//! engine mutex, and a listing and the reads that follow it come from one
//! snapshot.
//!
//! A test binary of its own because it watches `Db.Engine.Wait.Micros` —
//! the registry is process-wide, and any other test committing from two
//! threads would move it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use domino::core::{Database, DbConfig, Note, Session};
use domino::security::Directory;
use domino::types::{LogicalClock, NoteClass, ReplicaId, Unid, Value};

const SEEDED: usize = 300;
const READERS: usize = 4;

#[test]
fn readers_hammering_a_deleting_writer_never_fail_and_never_block_it() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Isolation", ReplicaId(1), ReplicaId(7)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let seeded: Vec<Note> = (0..SEEDED)
        .map(|i| {
            let mut n = Note::document("Memo");
            n.set("Subject", Value::text(format!("memo {i}")));
            db.save(&mut n).unwrap();
            n
        })
        .collect();
    let unids: Arc<Vec<Unid>> = Arc::new(seeded.iter().map(|n| n.unid()).collect());

    let engine_waits = domino::obs::histogram("Db.Engine.Wait.Micros");
    let waits_before = engine_waits.count();
    let start = Arc::new(Barrier::new(READERS + 1));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (db, unids, start, done) = (db.clone(), unids.clone(), start.clone(), done.clone());
            thread::spawn(move || {
                let session = Session::new(db.clone(), &format!("reader{r}"), Directory::new());
                start.wait();
                let mut calls = 0usize;
                // At least one full sweep, however fast the writer is.
                while !done.load(Ordering::Acquire) || calls < SEEDED {
                    let unid = unids[(calls * 7 + r) % unids.len()];
                    match db.open_by_unid(unid) {
                        Ok(note) => assert_eq!(note.unid(), unid),
                        Err(e) => assert_eq!(e.kind(), "not_found", "open_by_unid: {e}"),
                    }
                    db.note_ids(Some(NoteClass::Document))
                        .expect("a listing cannot fail");
                    // Lists, then checks each listed document: a delete in
                    // between must not surface.
                    session.unread().expect("unread reads one database state");
                    calls += 1;
                }
                calls
            })
        })
        .collect();

    // The one writer: delete every seeded document, saving a replacement
    // for each, while the readers run.
    start.wait();
    for (i, note) in seeded.iter().enumerate() {
        db.delete(note.id).unwrap();
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(format!("replacement {i}")));
        db.save(&mut n).unwrap();
    }
    done.store(true, Ordering::Release);
    for reader in readers {
        assert!(reader.join().unwrap() >= SEEDED);
    }

    assert_eq!(db.document_count().unwrap(), SEEDED);
    assert_eq!(
        engine_waits.count(),
        waits_before,
        "a reader held the engine mutex while the writer wanted it"
    );
}
