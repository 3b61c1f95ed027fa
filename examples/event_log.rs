//! `log.nsf`: the server logs itself.
//!
//! A workload crashes and recovers a database, replicates between two
//! replicas, serves HTTP (including a denial), and floods a server that
//! runs one request at a time — all of which lands as structured events
//! on the bus. The logger task files every event as a document in a real
//! `log.nsf`, DDM probes escalate on the shedding, and the log is then
//! *browsed over HTTP* under its own ACL, because the server's log is
//! just another Notes database.
//!
//! Run with: `cargo run --example event_log`

use std::sync::{mpsc, Arc, Barrier, Mutex};

use domino::core::{ChangeEvent, Database, DbConfig, Note};
use domino::obs;
use domino::replica::{CleanTransport, ReplicationOptions, Replicator};
use domino::security::AccessLevel;
use domino::server::{
    Console, DominoServer, LoggerConfig, ProbeCondition, ProbeEngine, ProbeRule, Request,
    ServerConfig, ServerLog,
};
use domino::storage::MemDisk;
use domino::types::{LogicalClock, NoteClass, ReplicaId, Value};
use domino::views::{ColumnSpec, ViewDesign};
use domino::wal::MemLogStore;

fn main() -> domino::types::Result<()> {
    // The logger: a real database titled `log`, plus custom DDM probes
    // watching the HTTP shed count (threshold 1 so the demo flood fires it;
    // one more firing tick escalates).
    let log = ServerLog::with_config(LoggerConfig {
        stats_every: 4,
        probe_every: 1,
        ..LoggerConfig::default()
    })?;
    log.set_probes(Some(ProbeEngine::new(vec![ProbeRule::new(
        "http.workers.shedding",
        ProbeCondition::CounterDeltaAtLeast {
            metric: "Http.Worker.Shed",
            threshold: 1,
        },
        obs::Severity::Warning,
    )
    .escalating_after(1)])));
    // The logger task proper: a background drainer on the roster. The
    // demo drains by hand for deterministic output, so give the thread a
    // long interval — it still appears in `show tasks` and flushes one
    // last time on stop.
    let logger_task = log.start(std::time::Duration::from_secs(60));

    // --- phase A: crash + restart recovery ----------------------------
    println!("== phase A: crash and recover ==");
    let disk = MemDisk::new();
    let wal = MemLogStore::new();
    let clock = LogicalClock::new();
    {
        let db = Database::open(
            Box::new(disk.clone()),
            Some(Box::new(wal.clone())),
            DbConfig::new("Ledger", ReplicaId(5), ReplicaId(50)),
            clock.clone(),
        )?;
        for i in 0..80 {
            let mut n = Note::document("Entry");
            n.set("Seq", Value::Number(i as f64));
            db.save(&mut n)?;
            if i == 59 {
                // Saves after the checkpoint are committed only in the
                // log: restart recovery replays them.
                db.checkpoint()?;
            }
        }
        wal.crash(); // power cut
    }
    let ledger = Database::open(
        Box::new(disk),
        Some(Box::new(wal)),
        DbConfig::new("Ledger", ReplicaId(5), ReplicaId(50)),
        clock.clone(),
    )?;
    println!(
        "recovered {} documents after the crash",
        ledger.document_count()?
    );

    // --- phase B: replication ------------------------------------------
    println!("\n== phase B: replicate ==");
    let src = Arc::new(Database::open_in_memory(
        DbConfig::new("HQ", ReplicaId(9), ReplicaId(90)),
        clock.clone(),
    )?);
    let dst = Arc::new(Database::open_in_memory(
        DbConfig::new("Branch", ReplicaId(9), ReplicaId(91)),
        clock.clone(),
    )?);
    for i in 0..25 {
        let mut n = Note::document("Topic");
        n.set("Subject", Value::text(format!("topic {i}")));
        src.save(&mut n)?;
    }
    let mut repl = Replicator::new(ReplicationOptions::default());
    let report = repl.pull_via(&dst, &src, &mut CleanTransport)?;
    println!(
        "replicated {} notes HQ -> Branch ({} bytes)",
        report.added, report.bytes_shipped
    );

    // --- phase C: HTTP traffic, a denial, and a flood -------------------
    println!("\n== phase C: serve, deny, flood ==");
    let server = DominoServer::new(ServerConfig {
        workers: 1,
        queue_bound: 2,
        cache_capacity: 0,
    });
    server.register_database("hq", &src)?;
    let design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#)?
        .column(ColumnSpec::new("Subject", "Subject")?);
    server.add_view("hq", design)?;
    server.register_user("ada", "secret");
    server.register_user("mallory", "secret");

    // The log database is served like any other — under its own ACL.
    log.grant("ada", AccessLevel::Reader)?;
    server.register_database("log", log.database())?;

    let ok = server.handle(&Request::get("/hq.nsf/topics?OpenView").as_user("ada", "secret"));
    println!("ada opens the view: {}", ok.status.code());
    let denied =
        server.handle(&Request::get("/log.nsf/events?OpenView").as_user("mallory", "secret"));
    println!("mallory pries at log.nsf: {}", denied.status.code());
    assert_eq!(denied.status.code(), 403);

    // Two flood rounds so the shed-rate probe fires, persists, and
    // escalates one severity step.
    for round in 1..=2 {
        let write = Request::post("/hq.nsf/Topic?CreateDocument", "Subject=slow+write")
            .as_user("ada", "secret");
        let shed = flood(&server, &src, write, "/hq.nsf/topics?OpenView", 100, 2);
        println!("flood round {round}: shed with 503: {shed}");
        assert!(shed > 0, "a bounded queue must shed under flood");
        let drained = log.drain();
        println!(
            "logger drain: {} events -> {} documents",
            drained.drained, drained.written
        );
    }

    // --- phase D: read the log like the admin would ---------------------
    println!("\n== phase D: browse log.nsf ==");
    let db = log.database();
    let mut request_doc = None;
    let mut replication_doc = None;
    let mut escalation_doc = None;
    let mut recovery_doc = None;
    for id in db.note_ids(Some(NoteClass::Document))? {
        let doc = db.open_note(id)?;
        match doc.get_text("Form").as_deref() {
            Some("HttpRequest") if request_doc.is_none() => request_doc = Some(doc),
            Some("Replication") if replication_doc.is_none() => replication_doc = Some(doc),
            Some("Probe") if doc.get("Escalated").and_then(|v| v.as_number().ok()) == Some(1.0) => {
                escalation_doc = Some(doc)
            }
            Some("Event") if doc.get_text("Code").as_deref() == Some("Recovery.Completed") => {
                recovery_doc = Some(doc)
            }
            _ => {}
        }
    }
    let request_doc = request_doc.expect("an HttpRequest document");
    println!(
        "HTTP request document: {} {} -> {} by {} in {} us",
        request_doc.get_text("Method").unwrap_or_default(),
        request_doc.get_text("Command").unwrap_or_default(),
        request_doc
            .get("Status")
            .and_then(|v| v.as_number().ok())
            .unwrap_or(0.0),
        request_doc.get_text("User").unwrap_or_default(),
        request_doc
            .get("DurationMicros")
            .and_then(|v| v.as_number().ok())
            .unwrap_or(0.0),
    );
    let replication_doc = replication_doc.expect("a Replication event document");
    println!(
        "Replication event: {}",
        replication_doc.get_text("Subject").unwrap_or_default()
    );
    let recovery_doc = recovery_doc.expect("a Recovery.Completed event document");
    println!(
        "recovery event: {}",
        recovery_doc.get_text("Subject").unwrap_or_default()
    );
    let escalation_doc = escalation_doc.expect("an escalated Probe document");
    println!(
        "probe escalation: {} at {} (streak {})",
        escalation_doc.get_text("Probe").unwrap_or_default(),
        escalation_doc.get_text("Severity").unwrap_or_default(),
        escalation_doc
            .get("Streak")
            .and_then(|v| v.as_number().ok())
            .unwrap_or(0.0),
    );

    // Ada browses the same documents over HTTP; anonymous cannot.
    let page = server.handle(&Request::get("/log.nsf/requests?OpenView").as_user("ada", "secret"));
    assert_eq!(page.status.code(), 200);
    println!(
        "ada browses /log.nsf/requests?OpenView: {}",
        page.status.code()
    );
    let unid = request_doc.unid();
    let doc_page = server.handle(
        &Request::get(&format!("/log.nsf/requests/{unid}?OpenDocument")).as_user("ada", "secret"),
    );
    assert_eq!(doc_page.status.code(), 200);
    println!("ada opens the request document: {}", doc_page.status.code());
    assert_eq!(
        server
            .handle(&Request::get("/log.nsf/requests?OpenView"))
            .status
            .code(),
        401
    );
    println!("anonymous gets 401 at the log's door");

    // --- phase E: the console ------------------------------------------
    println!("\n== phase E: console ==");
    let console = Console::new(log.clone());
    let roster = console.exec("show tasks");
    assert!(roster.contains("logger"), "logger task missing: {roster}");
    print!("{roster}");
    print!("{}", console.exec("show events warning"));
    print!("{}", console.exec("tell logger rotate"));
    logger_task.stop();

    // The guard that keeps this loop sound: filing log documents emitted
    // exactly zero events about itself.
    println!("\nlogger recursion events: {}", log.recursion_events());
    assert_eq!(log.recursion_events(), 0);
    println!("event log demo complete");
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
