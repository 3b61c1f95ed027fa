//! The Domino HTTP task end-to-end: register a discussion database,
//! serve URL commands through its admission gate, watch the command cache
//! absorb a read-heavy request storm, and see the security pipeline turn
//! ACL/`$Readers` denials into 401/403 and overload into 503.
//!
//! Run with: `cargo run --example web_server`

use std::sync::{mpsc, Arc, Barrier, Mutex};

use domino::core::{save_agent, AgentDesign, ChangeEvent, Database, DbConfig, Note};
use domino::security::{AccessLevel, Acl, AclEntry};
use domino::server::{DominoServer, Request, ServerConfig};
use domino::types::{ItemFlags, LogicalClock, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, ViewDesign};

fn main() -> domino::types::Result<()> {
    // --- a discussion database with one board-only document -----------
    let db = Arc::new(Database::open_in_memory(
        DbConfig::new("Discussion", ReplicaId(0xD0), ReplicaId(0x11E8)),
        LogicalClock::new(),
    )?);
    let mut acl = Acl::new(AccessLevel::Reader); // Anonymous may browse
    acl.set(
        "alice",
        AclEntry::new(AccessLevel::Editor).with_role("Board"),
    );
    acl.set("bob", AclEntry::new(AccessLevel::Author));
    db.set_acl(&acl)?;

    for i in 0..40 {
        let mut topic = Note::document("Topic");
        topic.set("Subject", Value::text(format!("topic {i:02}")));
        topic.set(
            "From",
            Value::text(if i % 2 == 0 { "alice" } else { "bob" }),
        );
        db.save(&mut topic)?;
    }
    let first_topic = {
        let mut topic = Note::document("Topic");
        topic.set("Subject", Value::text("welcome thread"));
        db.save(&mut topic)?;
        topic.unid()
    };
    // Reader-field restricted: only [Board] role holders see this one.
    let restricted = {
        let mut topic = Note::document("Topic");
        topic.set("Subject", Value::text("budget (board only)"));
        topic.set_with_flags(
            "DocReaders",
            Value::text("[Board]"),
            ItemFlags::SUMMARY | ItemFlags::READERS,
        );
        db.save(&mut topic)?;
        topic.unid()
    };
    // An on-update agent for the amgr to run after the storm's writes.
    save_agent(
        &db,
        &AgentDesign::new(
            "stamp new topics",
            r#"SELECT Form = "Topic" & !@IsAvailable(Stamped); FIELD Stamped := "by amgr""#,
        )?
        .on_update(),
    )?;

    // --- the HTTP task -------------------------------------------------
    let server = DominoServer::new(ServerConfig {
        workers: 4,
        queue_bound: 32,
        cache_capacity: 128,
    });
    server.register_database("disc", &db)?;
    let mut design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#)?;
    design.columns = vec![
        ColumnSpec::new("Subject", "Subject")?.sorted(SortDir::Ascending),
        ColumnSpec::new("From", "From")?,
    ];
    server.add_view("disc", design)?;
    server.register_user("alice", "secret-a");
    server.register_user("bob", "secret-b");

    // --- phase A: one of each security outcome -------------------------
    println!("== phase A: URL commands and the security pipeline ==");
    let view_req = Request::get("/disc.nsf/topics?OpenView&Count=10").as_user("alice", "secret-a");
    let page = server.serve(view_req.clone());
    println!(
        "alice view page: {} (cache-hit={})",
        page.status.code(),
        page.from_cache
    );
    assert_eq!(page.status.code(), 200);
    assert!(page.body.contains("topic 00"));

    let repeat = server.serve(view_req);
    println!(
        "repeat view page: {} (cache-hit={})",
        repeat.status.code(),
        repeat.from_cache
    );
    assert!(repeat.from_cache, "identical re-request must hit the cache");

    let board = server.serve(
        Request::get(&format!("/disc.nsf/{restricted}?OpenDocument")).as_user("alice", "secret-a"),
    );
    println!(
        "alice (Board role) opens restricted doc: {}",
        board.status.code()
    );
    assert_eq!(board.status.code(), 200);

    let denied = server.serve(
        Request::get(&format!("/disc.nsf/{restricted}?OpenDocument")).as_user("bob", "secret-b"),
    );
    println!("bob opens restricted doc: {}", denied.status.code());
    assert_eq!(denied.status.code(), 403);

    let anon_save = server.serve(Request::post(
        &format!("/disc.nsf/{first_topic}?SaveDocument"),
        "Subject=defaced",
    ));
    println!("anonymous save: {}", anon_save.status.code());
    assert_eq!(anon_save.status.code(), 401);

    // --- phase B: a 90%-read request storm through the pool ------------
    println!("\n== phase B: request storm (90% reads, 10% writes) ==");
    let before = domino::obs::snapshot();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let server = server.clone();
            std::thread::spawn(move || {
                for i in 0..125usize {
                    let n = t * 125 + i;
                    if n % 10 == 9 {
                        // A write: expires every cached page of the db.
                        let r = server.serve(
                            Request::post(
                                "/disc.nsf/Topic?CreateDocument",
                                &format!("Subject=storm+note+{n}"),
                            )
                            .as_user("alice", "secret-a"),
                        );
                        assert_eq!(r.status.code(), 200);
                    } else {
                        // Reads concentrate on three hot view windows.
                        let start = 1 + (n % 3) * 10;
                        let r = server.serve(
                            Request::get(&format!(
                                "/disc.nsf/topics?OpenView&Start={start}&Count=10"
                            ))
                            .as_user("alice", "secret-a"),
                        );
                        assert_eq!(r.status.code(), 200);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("storm thread");
    }
    let storm = domino::obs::snapshot().diff(&before);
    let hits = storm.counter("Http.Cache.Hits");
    let misses = storm.counter("Http.Cache.Misses");
    let served = storm.counter("Http.Request.Served");
    let hit_rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    let p95 = storm.histogram("Http.Request.Micros").p95();
    println!("requests served: {served}");
    println!("cache hit rate: {hit_rate:.1}% ({hits} hits / {misses} misses)");
    println!("p95 request latency: {p95} us");
    assert!(hits > 0, "hot windows must produce cache hits");

    // The amgr notices the storm's writes and stamps the new documents.
    let reports = server.amgr_tick()?;
    let runs: usize = reports.iter().map(|(_, t)| t.runs.len()).sum();
    let modified: usize = reports
        .iter()
        .flat_map(|(_, t)| t.runs.iter())
        .map(|(_, r)| r.modified)
        .sum();
    println!("amgr tick: {runs} agent run(s), {modified} document(s) stamped");
    assert!(modified >= 50, "every storm write should get stamped");

    // --- phase C: overload answers 503, not an unbounded queue ---------
    println!("\n== phase C: overload ==");
    let tiny = DominoServer::new(ServerConfig {
        workers: 1,
        queue_bound: 2,
        cache_capacity: 0,
    });
    tiny.register_database("disc", &db)?;
    tiny.register_user("alice", "secret-a");
    let write = Request::post("/disc.nsf/Topic?CreateDocument", "Subject=slow+write")
        .as_user("alice", "secret-a");
    let shed = flood(&tiny, &db, write, "/disc.nsf/$all?OpenView", 100, 2);
    let ok = 100 - shed;
    println!("flood of 100 on 1 worker / queue of 2: {ok} served, shed with 503: {shed}");
    assert!(shed > 0, "a bounded queue must shed under flood");

    println!("\nweb server demo complete");
    Ok(())
}

/// Flood `server`, which runs one request at a time and lets `waiting`
/// more wait: `write` parks inside its commit, holding the only place,
/// while `callers` threads released at once on a barrier each `serve` a
/// GET of `read`. Every caller that cannot wait is refused before the
/// write goes on. Returns how many callers were shed with 503.
fn flood(
    server: &DominoServer,
    db: &Database,
    write: Request,
    read: &str,
    callers: usize,
    waiting: usize,
) -> usize {
    let (parked_tx, parked) = mpsc::channel();
    let (release, held) = mpsc::channel::<()>();
    let hook = Mutex::new((parked_tx, held));
    let _feed = db.subscribe(move |_: &[ChangeEvent]| {
        let hook = hook.lock().unwrap();
        if hook.0.send(()).is_ok() {
            let _ = hook.1.recv();
        }
    });
    let start = Barrier::new(callers);
    let (code_tx, codes) = mpsc::channel();
    std::thread::scope(|s| {
        let writer = s.spawn(|| server.serve(write));
        parked.recv().expect("the write parks in its commit");
        for _ in 0..callers {
            let code_tx = code_tx.clone();
            let start = &start;
            s.spawn(move || {
                start.wait();
                let code = server.serve(Request::get(read)).status.code();
                code_tx.send(code).expect("flood result");
            });
        }
        let shed = codes
            .iter()
            .take(callers - waiting)
            .filter(|&code| code == 503)
            .count();
        release.send(()).expect("release the write");
        assert_eq!(writer.join().expect("writer").status.code(), 200);
        shed
    })
}
