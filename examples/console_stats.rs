//! Console statistics: run a mixed workload across every subsystem, then
//! print the Domino-style `show statistics` dump from the process-wide
//! telemetry registry, plus a snapshot diff of the workload itself.
//!
//! Run with: `cargo run --example console_stats`

use std::sync::Arc;

use domino::core::{Database, DbConfig, Note};
use domino::formula::Formula;
use domino::ftindex::FtIndex;
use domino::net::{LinkSpec, MailRouter, MailUser, Network, Topology};
use domino::replica::replicate;
use domino::types::{LogicalClock, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};

fn main() -> domino::types::Result<()> {
    // Everything below 1ms is "slow" for this demo, so the slow-op ring
    // has something to show at the end.
    domino::obs::set_slow_threshold(std::time::Duration::from_micros(50));

    // Take a baseline snapshot; the diff at the end isolates what *this*
    // workload did, independent of anything recorded before it.
    let before = domino::obs::snapshot();

    // --- storage + views + formula + full-text -----------------------
    let db = Arc::new(Database::open_in_memory(
        DbConfig::new("Stats Demo", ReplicaId(0x57A7), ReplicaId(0x0001)),
        LogicalClock::new(),
    )?);
    let view = View::attach(
        &db,
        ViewDesign::new("By subject", r#"SELECT Form = "Memo""#)?
            .column(ColumnSpec::new("Subject", "Subject")?.sorted(SortDir::Ascending)),
    )?;
    let ft = FtIndex::attach(&db);

    let mut unids = Vec::new();
    for i in 0..200 {
        let mut memo = Note::document("Memo");
        memo.set("Subject", Value::text(format!("memo number {i}")));
        memo.set(
            "Body",
            Value::text(format!("searchable body text, topic {}", i % 7)),
        );
        db.save(&mut memo)?;
        unids.push(memo.unid());
    }
    // Re-open and update a slice of them (buffer-pool traffic + WAL).
    for unid in unids.iter().step_by(3) {
        let mut n = db.open_by_unid(*unid)?;
        n.set("Touched", Value::text("yes"));
        db.save(&mut n)?;
    }
    for unid in unids.iter().step_by(17) {
        let id = db.id_of_unid(*unid)?.expect("saved above");
        db.delete(id)?;
    }
    db.checkpoint()?;

    let f = Formula::compile(r#"SELECT Form = "Memo" & Touched = "yes""#)?;
    let touched = db.search(&f, &Default::default())?;
    let hits = ft.search("topic AND searchable")?;
    println!(
        "workload: {} rows in view, {} touched, {} ft hits",
        view.rows().len(),
        touched.len(),
        hits.len()
    );

    // --- replication -------------------------------------------------
    let peer = Arc::new(Database::open_in_memory(
        DbConfig::new("Stats Demo", ReplicaId(0x57A7), ReplicaId(0x0002)),
        LogicalClock::starting_at(domino::types::Timestamp(1000)),
    )?);
    let (into_peer, _) = replicate(&peer, &db)?;
    println!(
        "replicated: {} added, {} deletions",
        into_peer.added, into_peer.deletions
    );

    // --- mail routing -------------------------------------------------
    let mut net = Network::new(
        3,
        Topology::Chain,
        LinkSpec {
            latency: 2,
            bytes_per_tick: 0,
            ..LinkSpec::default()
        },
        LogicalClock::new(),
    );
    let users = [
        MailUser {
            name: "alice".into(),
            home_server: 0,
        },
        MailUser {
            name: "bob".into(),
            home_server: 2,
        },
    ];
    let mut router = MailRouter::setup(&mut net, &users)?;
    for i in 0..10 {
        router.send(&net, 0, "alice", "bob", &format!("mail {i}"), "body")?;
    }
    router.run_until_delivered(&mut net, 500)?;

    // --- the console dump --------------------------------------------
    println!("\n{}", domino::obs::show_statistics());

    // And the machine-readable delta for just this run.
    let delta = domino::obs::snapshot().diff(&before);
    println!("> workload delta (JSON)\n{}", delta.to_json());
    Ok(())
}
