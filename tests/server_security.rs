//! Security integration tests for the Domino HTTP task: ACL and
//! `$Readers` denials must surface as the right status codes (401 for
//! anonymous callers, 403 for named ones), restricted documents must
//! vanish from rendered views and search results — on every surface, for
//! every access class, from the first request after the restriction is
//! saved, and across a restart — and — the property at the bottom — the
//! command cache must never serve one user's page to a user with
//! different access.

use std::sync::Arc;

use proptest::prelude::*;

use domino::core::{Database, DbConfig, Note};
use domino::security::{AccessLevel, Acl, AclEntry};
use domino::server::{DominoServer, Request, ServerConfig};
use domino::storage::MemDisk;
use domino::types::{ItemFlags, LogicalClock, ReplicaId, Unid, Value};
use domino::views::{ColumnSpec, SortDir, ViewDesign};
use domino::wal::MemLogStore;

/// A discussion db where Anonymous may read, alice edits with the
/// [Board] role, bob authors, rita only reads — plus one public topic
/// and one `$Readers`-restricted topic visible only to [Board].
fn board_site() -> (DominoServer, Arc<Database>, Unid, Unid) {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Board", ReplicaId(0xB0A2), ReplicaId(0x5EC)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let mut acl = Acl::new(AccessLevel::Reader);
    acl.set(
        "alice",
        AclEntry::new(AccessLevel::Editor).with_role("Board"),
    );
    acl.set("bob", AclEntry::new(AccessLevel::Author));
    acl.set("rita", AclEntry::new(AccessLevel::Reader));
    db.set_acl(&acl).unwrap();

    let mut public = Note::document("Topic");
    public.set("Subject", Value::text("minutes (public)"));
    public.set("Body", Value::text("nothing to hide here"));
    db.save(&mut public).unwrap();

    let mut secret = Note::document("Topic");
    secret.set("Subject", Value::text("acquisition plan"));
    secret.set("Body", Value::text("the secret acquisition details"));
    secret.set_with_flags(
        "DocReaders",
        Value::text("[Board]"),
        ItemFlags::SUMMARY | ItemFlags::READERS,
    );
    db.save(&mut secret).unwrap();

    let server = DominoServer::new(ServerConfig {
        workers: 2,
        queue_bound: 16,
        cache_capacity: 64,
    });
    server.register_database("board", &db).unwrap();
    let mut design = ViewDesign::new("all", r#"SELECT Form = "Topic""#).unwrap();
    design.columns = vec![ColumnSpec::new("Subject", "Subject")
        .unwrap()
        .sorted(SortDir::Ascending)];
    server.add_view("board", design).unwrap();
    server.register_user("alice", "pw-a");
    server.register_user("bob", "pw-b");
    server.register_user("rita", "pw-r");
    (server, db, public.unid(), secret.unid())
}

#[test]
fn readers_note_is_401_anonymous_403_named_200_member() {
    let (server, _db, _public, secret) = board_site();
    let target = format!("/board.nsf/{secret}?OpenDocument");

    // Anonymous: the browser should be asked to authenticate.
    let anon = server.handle(&Request::get(&target));
    assert_eq!(anon.status.code(), 401);

    // A named user off the reader list is refused outright...
    let bob = server.handle(&Request::get(&target).as_user("bob", "pw-b"));
    assert_eq!(bob.status.code(), 403);
    assert!(!bob.body.contains("acquisition"));

    // ...and a [Board] role holder reads it.
    let alice = server.handle(&Request::get(&target).as_user("alice", "pw-a"));
    assert_eq!(alice.status.code(), 200);
    assert!(alice.body.contains("acquisition plan"));
}

#[test]
fn save_at_reader_acl_is_403_anonymous_401() {
    let (server, _db, public, _secret) = board_site();
    let target = format!("/board.nsf/{public}?SaveDocument");

    let anon = server.handle(&Request::post(&target, "Subject=defaced"));
    assert_eq!(anon.status.code(), 401);

    let rita = server.handle(&Request::post(&target, "Subject=defaced").as_user("rita", "pw-r"));
    assert_eq!(rita.status.code(), 403);

    // Reader-level deletes are refused the same way.
    let del = server.handle(
        &Request::get(&format!("/board.nsf/{public}?DeleteDocument")).as_user("rita", "pw-r"),
    );
    assert_eq!(del.status.code(), 403);

    // The document is untouched and an Editor still can write it.
    let alice = server.handle(&Request::post(&target, "Subject=amended").as_user("alice", "pw-a"));
    assert_eq!(alice.status.code(), 200);
    let shown = server.handle(&Request::get(&format!("/board.nsf/{public}?OpenDocument")));
    assert!(shown.body.contains("amended"));
    assert!(!shown.body.contains("defaced"));
}

#[test]
fn restricted_rows_vanish_from_views_and_search_for_outsiders() {
    let (server, _db, _public, _secret) = board_site();

    let bob_view = server.handle(&Request::get("/board.nsf/all?OpenView").as_user("bob", "pw-b"));
    assert_eq!(bob_view.status.code(), 200);
    assert!(bob_view.body.contains("minutes (public)"));
    assert!(!bob_view.body.contains("acquisition"));

    let alice_view =
        server.handle(&Request::get("/board.nsf/all?OpenView").as_user("alice", "pw-a"));
    assert!(alice_view.body.contains("acquisition plan"));

    // Full-text search is reader-filtered the same way.
    let bob_search = server.handle(
        &Request::get("/board.nsf/all?SearchView&Query=acquisition").as_user("bob", "pw-b"),
    );
    assert_eq!(bob_search.status.code(), 200);
    assert!(!bob_search.body.contains("acquisition plan"));
    let alice_search = server.handle(
        &Request::get("/board.nsf/all?SearchView&Query=acquisition").as_user("alice", "pw-a"),
    );
    assert!(alice_search.body.contains("acquisition plan"));
}

/// The three surfaces a view row can reach a browser through.
fn surfaces(view: &str, term: &str) -> [String; 3] {
    [
        format!("/board.nsf/{view}?OpenView"),
        format!("/board.nsf/{view}?ReadViewEntries"),
        format!("/board.nsf/{view}?SearchView&Query={term}"),
    ]
}

fn get(server: &DominoServer, target: &str, user: Option<(&str, &str)>) -> String {
    let req = match user {
        Some((name, password)) => Request::get(target).as_user(name, password),
        None => Request::get(target),
    };
    let resp = server.handle(&req);
    assert_eq!(resp.status.code(), 200, "{target} as {user:?}");
    resp.body
}

/// The index entry is now what the row filter reads: a restricted row is
/// absent for every access class off its reader list — a Manager
/// included — on HTML, JSON and search, uncached and cached, and still
/// after shutdown and reopen, where rows are rebuilt from summary-only
/// versions (one restriction is stored without the `SUMMARY` flag).
#[test]
fn restricted_rows_are_absent_on_every_surface_for_every_class_and_after_reopen() {
    let (disk, log, clock) = (
        MemDisk::default(),
        MemLogStore::default(),
        LogicalClock::new(),
    );
    let open = || {
        let db = Database::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            DbConfig::new("Board", ReplicaId(0xB0A2), ReplicaId(0x5EC)),
            clock.clone(),
        );
        Arc::new(db.unwrap())
    };
    let serve = |db: &Arc<Database>| {
        let server = DominoServer::new(ServerConfig::default());
        server.register_database("board", db).unwrap();
        let mut design = ViewDesign::new("all", r#"SELECT Form = "Topic""#).unwrap();
        design.columns = vec![ColumnSpec::new("Subject", "Subject")
            .unwrap()
            .sorted(SortDir::Ascending)];
        server.add_view("board", design).unwrap();
        for (name, password) in [
            ("mo", "pw-m"),
            ("alice", "pw-a"),
            ("bob", "pw-b"),
            ("rita", "pw-r"),
        ] {
            server.register_user(name, password);
        }
        server
    };

    let db = open();
    let mut acl = Acl::new(AccessLevel::Reader);
    acl.set("mo", AclEntry::new(AccessLevel::Manager));
    acl.set(
        "alice",
        AclEntry::new(AccessLevel::Editor).with_role("Board"),
    );
    acl.set("bob", AclEntry::new(AccessLevel::Author));
    acl.set("rita", AclEntry::new(AccessLevel::Reader));
    db.set_acl(&acl).unwrap();
    let topic = |subject: &str, readers: Option<(&str, ItemFlags)>| {
        let mut n = Note::document("Topic");
        n.set("Subject", Value::text(subject));
        if let Some((who, flags)) = readers {
            n.set_with_flags("DocReaders", Value::text(who), flags);
        }
        db.save(&mut n).unwrap();
    };
    topic("board minutes", None);
    topic(
        "board acquisition",
        Some(("[Board]", ItemFlags::SUMMARY | ItemFlags::READERS)),
    );
    // Stored without SUMMARY: the store keeps reader items in the summary.
    topic("board merger", Some(("alice", ItemFlags::READERS)));

    let check = |server: &DominoServer, when: &str| {
        let users = [
            Some(("mo", "pw-m")),
            Some(("bob", "pw-b")),
            Some(("rita", "pw-r")),
            None,
        ];
        for target in surfaces("all", "board") {
            // Twice: rendered, then from the command cache.
            for round in 0..2 {
                for user in users {
                    let body = get(server, &target, user);
                    assert!(body.contains("board minutes"), "{when} {target} {user:?}");
                    for secret in ["acquisition", "merger"] {
                        assert!(
                            !body.contains(secret),
                            "{when}, round {round}: {target} showed {secret} to {user:?}"
                        );
                    }
                }
                let body = get(server, &target, Some(("alice", "pw-a")));
                for subject in ["board minutes", "board acquisition", "board merger"] {
                    assert!(
                        body.contains(subject),
                        "{when} {target}: alice lost {subject}"
                    );
                }
            }
        }
    };
    let server = serve(&db);
    check(&server, "live");
    drop(server);
    db.shutdown().unwrap();
    drop(db);

    let db = open();
    check(&serve(&db), "reopened");
}

/// A restriction added over HTTP takes effect on the very next request:
/// the save bumps the view's version, so no page cached for an excluded
/// user survives it, and the rebuilt row carries the new reader list.
#[test]
fn adding_readers_by_save_document_hides_the_row_on_the_next_request() {
    let (server, _db, public, _secret) = board_site();
    let bob = Some(("bob", "pw-b"));
    for target in surfaces("all", "minutes") {
        // Rendered, then cached.
        for _ in 0..2 {
            assert!(get(&server, &target, bob).contains("minutes (public)"));
        }
    }
    let save = Request::post(
        &format!("/board.nsf/{public}?SaveDocument"),
        "%24Readers=%5BBoard%5D%3B+carol",
    )
    .as_user("alice", "pw-a");
    assert_eq!(server.handle(&save).status.code(), 200);
    for target in surfaces("all", "minutes") {
        for user in [bob, Some(("rita", "pw-r")), None] {
            let body = get(&server, &target, user);
            assert!(!body.contains("minutes (public)"), "{target} {user:?}");
        }
        let alice = get(&server, &target, Some(("alice", "pw-a")));
        assert!(alice.contains("minutes (public)"), "{target}");
    }
    // It is a reader list, not a text field of that name.
    let opened = server
        .handle(&Request::get(&format!("/board.nsf/{public}?OpenDocument")).as_user("bob", "pw-b"));
    assert_eq!(opened.status.code(), 403);
}

/// An `?EditDocument` form posts every visible field back, a reader item
/// with a name of its own (`DocReaders`) among them, as text. The save
/// must leave it the reader list it was: a member editing the subject —
/// or the list itself — does not publish the document.
#[test]
fn an_edit_form_round_trip_keeps_a_reader_item_a_reader_item() {
    let (server, db, _public, secret) = board_site();
    let form = get(
        &server,
        &format!("/board.nsf/{secret}?EditDocument"),
        Some(("alice", "pw-a")),
    );
    assert!(form.contains("name=\"DocReaders\" value=\"[Board]\""));
    for posted in [
        "Subject=acquisition+plan+v2&DocReaders=%5BBoard%5D",
        "DocReaders=%5BBoard%5D%3B+carol",
    ] {
        let save = Request::post(&format!("/board.nsf/{secret}?SaveDocument"), posted)
            .as_user("alice", "pw-a");
        assert_eq!(server.handle(&save).status.code(), 200);
        for target in surfaces("all", "acquisition") {
            for user in [Some(("bob", "pw-b")), Some(("rita", "pw-r")), None] {
                let body = get(&server, &target, user);
                assert!(!body.contains("acquisition plan"), "{target} {user:?}");
            }
            let alice = get(&server, &target, Some(("alice", "pw-a")));
            assert!(alice.contains("acquisition plan v2"), "{target}");
        }
        let opened = server.handle(
            &Request::get(&format!("/board.nsf/{secret}?OpenDocument")).as_user("bob", "pw-b"),
        );
        assert_eq!(opened.status.code(), 403);
    }
    let stored = db.snapshot().open_by_unid(secret).unwrap();
    assert_eq!(stored.readers(), ["[Board]", "carol"]);
}

/// Who may read a generated document, by reader-list code:
/// 0 = public, 1 = alice only, 2 = bob only, 3 = alice and bob.
fn may_read(user: usize, readers_code: usize) -> bool {
    match readers_code {
        0 => true,
        1 => user == 0,
        2 => user == 1,
        _ => user < 2,
    }
}

const USERS: [&str; 3] = ["alice", "bob", ""]; // "" = anonymous
const PASSWORDS: [&str; 2] = ["pw-a", "pw-b"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The command cache partitions pages by access class: however the
    /// requests interleave — every page requested twice, so the second
    /// round is served from cache — a view page handed to user U never
    /// contains the subject of a document U may not read, and always
    /// contains every in-window document U may read.
    #[test]
    fn cached_pages_never_leak_across_users(
        docs in prop::collection::vec(0..4usize, 4..12),
        reqs in prop::collection::vec((0..3usize, 0..3usize), 10..30),
    ) {
        let db = Arc::new(Database::open_in_memory(
            DbConfig::new("Leak", ReplicaId(7), ReplicaId(8)),
            LogicalClock::new(),
        ).unwrap());
        let mut acl = Acl::new(AccessLevel::Reader); // Anonymous reads public docs
        acl.set("alice", AclEntry::new(AccessLevel::Editor));
        acl.set("bob", AclEntry::new(AccessLevel::Reader));
        db.set_acl(&acl).unwrap();
        for (i, code) in docs.iter().enumerate() {
            let mut n = Note::document("Doc");
            n.set("Subject", Value::text(format!("doc-{i:02}-code{code}")));
            let readers = match code {
                0 => "",
                1 => "alice",
                2 => "bob",
                _ => "alice;bob",
            };
            if !readers.is_empty() {
                n.set_with_flags(
                    "DocReaders",
                    Value::TextList(readers.split(';').map(String::from).collect()),
                    ItemFlags::SUMMARY | ItemFlags::READERS,
                );
            }
            db.save(&mut n).unwrap();
        }

        let server = DominoServer::new(ServerConfig {
            workers: 1,
            queue_bound: 8,
            cache_capacity: 64,
        });
        server.register_database("leak", &db).unwrap();
        let mut design = ViewDesign::new("all", r#"SELECT Form = "Doc""#).unwrap();
        design.columns = vec![ColumnSpec::new("Subject", "Subject")
            .unwrap()
            .sorted(SortDir::Ascending)];
        server.add_view("leak", design).unwrap();
        server.register_user("alice", "pw-a");
        server.register_user("bob", "pw-b");

        // Every request twice: the first render populates the cache, the
        // second must come back from it for the *same* user only.
        for &(user, page) in &reqs {
            let start = 1 + page * 4;
            let target = format!("/leak.nsf/all?OpenView&Start={start}&Count=4");
            let req = if user < 2 {
                Request::get(&target).as_user(USERS[user], PASSWORDS[user])
            } else {
                Request::get(&target)
            };
            for round in 0..2 {
                let resp = server.handle(&req);
                prop_assert_eq!(resp.status.code(), 200);
                for (i, code) in docs.iter().enumerate() {
                    let subject = format!("doc-{i:02}-code{code}");
                    let in_window = i + 1 >= start && i + 1 < start + 4;
                    let readable = may_read(user, *code);
                    if resp.body.contains(&subject) {
                        prop_assert!(
                            readable,
                            "round {}: {:?} leaked to user {} ({})",
                            round, subject, user, USERS[user],
                        );
                    } else {
                        prop_assert!(
                            !(in_window && readable),
                            "round {}: {:?} missing for user {} ({})",
                            round, subject, user, USERS[user],
                        );
                    }
                }
            }
        }
    }
}
