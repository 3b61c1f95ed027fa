//! Metric-name conformance: after a mixed workload touching every
//! subsystem, every name in the live registry must follow the DESIGN.md
//! convention — `Subsystem.Object.Event`, dotted UpperCamelCase segments,
//! subsystem prefix from the known set, and histograms named for their
//! unit. New metrics that break the convention fail here, not in code
//! review.
//!
//! This test runs in its own binary so the registry holds exactly what
//! the workload below (plus the obs crate itself) registers.

use std::sync::Arc;

use domino_core::{Database, DbConfig, Note};
use domino_net::{MailRouter, MailUser, Network, Topology};
use domino_obs as obs;
use domino_replica::{CleanTransport, Cluster, ReplicationOptions, Replicator};
use domino_security::AccessLevel;
use domino_server::{DominoServer, LoggerConfig, Request, ServerConfig, ServerLog};
use domino_types::{LogicalClock, ReplicaId, Value};
use domino_views::{ColumnSpec, ViewDesign};

/// Subsystem prefixes DESIGN.md allots. `Test` is for metrics test code
/// registers; `Example` for the runnable examples.
const SUBSYSTEMS: &[&str] = &[
    "Cluster", "Database", "Db", "Ddm", "Example", "Formula", "Ft", "Http", "Log", "Logger",
    "Mail", "Net", "Nsf", "Obs", "Recovery", "Replica", "Server", "Test", "View",
];

/// A histogram's last segment names what it measures.
const HISTOGRAM_UNITS: &[&str] = &["Nanos", "Micros", "Millis", "Ticks", "Size", "Candidates"];

fn is_upper_camel(segment: &str) -> bool {
    let mut chars = segment.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_uppercase())
        && chars.all(|c| c.is_ascii_alphanumeric())
}

/// Drive every subsystem far enough to register its metrics.
fn mixed_workload() {
    // Core + storage + WAL: saves, deletes, batches.
    let clock = LogicalClock::new();
    let a = Arc::new(
        Database::open_in_memory(
            DbConfig::new("a", ReplicaId(1), ReplicaId(2)),
            clock.clone(),
        )
        .unwrap(),
    );
    let b = Arc::new(
        Database::open_in_memory(
            DbConfig::new("b", ReplicaId(1), ReplicaId(3)),
            clock.clone(),
        )
        .unwrap(),
    );
    {
        let _batch = a.begin_batch();
        for i in 0..20 {
            let mut doc = Note::document("Topic");
            doc.set("Subject", Value::text(format!("topic {i}")));
            doc.set("Body", Value::text("searchable text welcome"));
            a.save(&mut doc).unwrap();
        }
    }
    a.checkpoint().unwrap();

    // The file device: a real on-disk NSF registers `Nsf.File.*`.
    let dir = std::env::temp_dir().join(format!("domino-obs-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    {
        let disk = Database::open_path(
            &dir.join("data.nsf"),
            DbConfig::new("d", ReplicaId(1), ReplicaId(4)),
            clock.clone(),
        )
        .unwrap();
        let mut doc = Note::document("Topic");
        doc.set("Subject", Value::text("on disk"));
        disk.save(&mut doc).unwrap();
        disk.shutdown().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Replication (clean pass) and clustering.
    let mut repl = Replicator::new(ReplicationOptions::default());
    repl.pull_via(&b, &a, &mut CleanTransport).unwrap();
    let cluster = Cluster::join(&[a.clone(), b.clone()]).unwrap();
    let mut doc = Note::document("Topic");
    doc.set("Subject", Value::text("pushed"));
    a.save(&mut doc).unwrap();
    drop(cluster);

    // Views, full-text, HTTP (including a denial), worker pool.
    let server = DominoServer::new(ServerConfig::default());
    server.register_database("a", &a).unwrap();
    let design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#)
        .unwrap()
        .column(ColumnSpec::new("Subject", "Subject").unwrap());
    server.add_view("a", design).unwrap();
    server.register_user("ada", "pw");
    server.handle(&Request::get("/a.nsf/topics?OpenView").as_user("ada", "pw"));
    server.handle(&Request::get("/a.nsf/topics?SearchView&Query=welcome").as_user("ada", "pw"));
    server
        .submit(Request::get("/a.nsf/topics?OpenView"))
        .recv()
        .unwrap();

    // The logger + DDM stack over the events all of the above emitted.
    let log = ServerLog::with_config(LoggerConfig::default()).unwrap();
    log.grant("ada", AccessLevel::Reader).unwrap();
    log.drain();
    log.rotate();

    // Real sockets: one keep-alive HTTP request through the TCP listener
    // and one wire-protocol round-trip through a loopback replica
    // listener, so `Http.Conn.*` and `Net.Conn.*` register.
    {
        use std::io::{Read, Write};
        let listener =
            domino_netio::HttpListener::start(server.clone(), domino_netio::HttpConfig::default())
                .unwrap();
        let mut conn = std::net::TcpStream::connect(listener.addr()).unwrap();
        conn.write_all(b"GET /a.nsf/topics?OpenView HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        conn.read_to_end(&mut out).unwrap();
        assert!(out.starts_with(b"HTTP/1.1 200"), "socket request failed");
        listener.drain(std::time::Duration::from_secs(5));

        let wire = domino_netio::ReplicaListener::bind("127.0.0.1:0").unwrap();
        let mut transport = domino_netio::SocketTransport::connect(&wire.addr());
        let c = Arc::new(
            Database::open_in_memory(
                DbConfig::new("a", ReplicaId(1), ReplicaId(5)),
                clock.clone(),
            )
            .unwrap(),
        );
        let mut socket_pull = Replicator::new(ReplicationOptions::default());
        socket_pull.pull_via(&c, &a, &mut transport).unwrap();
    }

    // Mail routing across a small network.
    let mut net = Network::new(
        2,
        Topology::Mesh,
        domino_net::LinkSpec::default(),
        LogicalClock::new(),
    );
    let users = vec![
        MailUser {
            name: "ada".into(),
            home_server: 0,
        },
        MailUser {
            name: "grace".into(),
            home_server: 1,
        },
    ];
    let mut router = MailRouter::setup(&mut net, &users).unwrap();
    router
        .send(&net, 0, "ada", "grace", "hello", "body")
        .unwrap();
    router.run_until_delivered(&mut net, 64).unwrap();

    // Statistics rendering registers the server gauges.
    obs::show_statistics();
}

#[test]
fn every_registered_metric_name_conforms() {
    mixed_workload();

    let snap = obs::snapshot();
    assert!(
        snap.len() >= 40,
        "workload registered too few metrics ({}) to make conformance meaningful",
        snap.len()
    );
    let mut violations = Vec::new();
    for (name, value) in snap.iter() {
        let segments: Vec<&str> = name.split('.').collect();
        if !(2..=4).contains(&segments.len()) {
            violations.push(format!("{name}: {} segments (want 2-4)", segments.len()));
            continue;
        }
        if !SUBSYSTEMS.contains(&segments[0]) {
            violations.push(format!("{name}: unknown subsystem {:?}", segments[0]));
        }
        for seg in &segments {
            if !is_upper_camel(seg) {
                violations.push(format!("{name}: segment {seg:?} is not UpperCamelCase"));
            }
        }
        if matches!(value, obs::MetricValue::Histogram(_))
            && !HISTOGRAM_UNITS.contains(segments.last().unwrap())
        {
            violations.push(format!(
                "{name}: histogram last segment {:?} is not a unit ({HISTOGRAM_UNITS:?})",
                segments.last().unwrap()
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "metric naming violations:\n  {}",
        violations.join("\n  ")
    );

    // Spot-check that the sweep really covered the subsystems.
    for expected in [
        "Database.Txn.Commits",
        "Replica.Passes",
        "Cluster.Events.Pushed",
        "Http.Request.Served",
        "Http.Conn.Accepted",
        "Net.Conn.Frames",
        "Ft.Queries",
        "View.Rebuilds",
        "Mail.Delivered",
        "Logger.Drains",
        "Nsf.File.Opens",
        "Obs.Event.Emitted",
        "Server.Uptime",
    ] {
        assert!(
            snap.iter().any(|(name, _)| name == expected),
            "expected metric {expected:?} missing after the mixed workload"
        );
    }
}
