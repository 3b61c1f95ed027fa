//! A row is shown iff the requester may read the version whose values it
//! shows — while a writer changes both at once.
//!
//! The writer flips documents between a public state (`public-<n>`
//! Subject, no `$Readers`) and a secret one (`secret-<n>` Subject,
//! `$Readers` = alice), each flip one commit. A requester off the reader
//! list pages the view and searches it the whole time and must never be
//! handed a `secret-` cell. A page that takes a row's cells from the index
//! and its reader list from a snapshot pinned a moment earlier shows
//! exactly that when a commit lands in between.
//!
//! A test binary of its own, run in `--release` by CI: the window is a
//! few instructions wide and needs the two threads to really overlap.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use domino::core::{Database, DbConfig, Note};
use domino::security::{AccessLevel, Acl, AclEntry};
use domino::server::{DominoServer, Request, ServerConfig};
use domino::types::{ItemFlags, LogicalClock, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, ViewDesign};

const DOCS: usize = 60;
const PAGE: usize = 30;
/// Ends half-way through a secret round, so both states are on show.
const FLIPS: usize = 6_030;
const READERS: usize = 2;

fn flip(note: &mut Note, n: usize, secret: bool) {
    if secret {
        note.set("Subject", Value::text(format!("secret-{n}")));
        note.set_with_flags(
            "$Readers",
            Value::text("alice"),
            ItemFlags::SUMMARY | ItemFlags::READERS,
        );
    } else {
        note.set("Subject", Value::text(format!("public-{n}")));
        note.remove("$Readers");
    }
}

#[test]
fn an_excluded_reader_never_sees_a_secret_cell_while_readers_and_subject_flip_together() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Race", ReplicaId(0xACE), ReplicaId(1)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let mut acl = Acl::new(AccessLevel::Reader);
    acl.set("alice", AclEntry::new(AccessLevel::Editor));
    db.set_acl(&acl).unwrap();
    let mut notes: Vec<Note> = (0..DOCS)
        .map(|n| {
            let mut note = Note::document("Topic");
            // The sort key never changes: rows stay where they are and
            // only their Subject cell and reader list move.
            note.set("Slot", Value::text(format!("slot {n:03}")));
            flip(&mut note, n, false);
            db.save(&mut note).unwrap();
            note
        })
        .collect();

    // No command cache: every request builds its page.
    let server = DominoServer::new(ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    server.register_database("race", &db).unwrap();
    let design = ViewDesign::new("all", r#"SELECT Form = "Topic""#)
        .unwrap()
        .column(
            ColumnSpec::new("Slot", "Slot")
                .unwrap()
                .sorted(SortDir::Ascending),
        )
        .column(ColumnSpec::new("Subject", "Subject").unwrap());
    server.add_view("race", design).unwrap();

    let start = Arc::new(Barrier::new(READERS + 1));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (server, start, done) = (server.clone(), start.clone(), done.clone());
            thread::spawn(move || {
                start.wait();
                let mut requests = 0usize;
                while !done.load(Ordering::Acquire) || requests < DOCS {
                    let target = match (requests + r) % 5 {
                        0 => "/race.nsf/all?SearchView&Query=secret&Count=60".to_string(),
                        k => format!(
                            "/race.nsf/all?{}&Start={}&Count={PAGE}",
                            if k < 3 { "OpenView" } else { "ReadViewEntries" },
                            1 + (k % 2) * PAGE
                        ),
                    };
                    // Anonymous: a Reader by the ACL default, on no list.
                    let resp = server.handle(&Request::get(&target));
                    assert_eq!(resp.status.code(), 200, "{target}");
                    assert!(
                        !resp.body.contains("secret-"),
                        "request {requests} ({target}) leaked a restricted row"
                    );
                    requests += 1;
                }
                requests
            })
        })
        .collect();

    start.wait();
    for i in 0..FLIPS {
        let n = (i * 7) % DOCS;
        let secret = (i / DOCS).is_multiple_of(2);
        flip(&mut notes[n], n, secret);
        db.save(&mut notes[n]).unwrap();
    }
    done.store(true, Ordering::Release);
    for reader in readers {
        assert!(reader.join().unwrap() >= DOCS);
    }

    // The one on the list sees what is there to see.
    server.register_user("alice", "pw");
    let alice =
        server.handle(&Request::get("/race.nsf/all?OpenView&Count=60").as_user("alice", "pw"));
    let secrets = notes.iter().filter(|n| !n.readers().is_empty()).count();
    assert_eq!(secrets, DOCS / 2);
    assert_eq!(alice.body.matches("secret-").count(), secrets);
}
