//! The network stack end-to-end over real loopback sockets: boot the
//! HTTP task on an ephemeral TCP port, drive keep-alive requests through
//! a raw `TcpStream` (watching the command cache answer repeats), pull a
//! replica through the NRPC stand-in wire protocol, then drain the
//! listener gracefully with the console verb an admin would use.
//!
//! Run with: `cargo run --example socket_server`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use domino::core::{Database, DbConfig, Note};
use domino::netio::{base64_encode, HttpConfig, HttpListener, ReplicaListener, SocketTransport};
use domino::replica::{ReplicationOptions, Replicator};
use domino::security::{AccessLevel, Acl, AclEntry};
use domino::server::{Console, DominoServer, ServerConfig, ServerLog};
use domino::types::{LogicalClock, NoteClass, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, ViewDesign};

/// Read one HTTP response off `conn`; returns its status code and the
/// `X-Command-Cache` diagnostic header (`hit`/`miss`).
fn read_response(conn: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = conn.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed mid-response");
        raw.extend_from_slice(&buf[..n]);
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..pos]).expect("head utf8");
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("status line");
            let body_len = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse::<usize>().ok())
                .expect("Content-Length");
            let cache = head
                .lines()
                .find_map(|l| l.strip_prefix("X-Command-Cache: "))
                .unwrap_or("-")
                .to_string();
            // Drain the body so the next keep-alive response starts clean.
            while raw.len() < pos + 4 + body_len {
                let n = conn.read(&mut buf).expect("read body");
                assert!(n > 0, "server closed mid-body");
                raw.extend_from_slice(&buf[..n]);
            }
            return (status, cache);
        }
    }
}

fn main() -> domino::types::Result<()> {
    // --- a discussion database behind the HTTP task --------------------
    let db = Arc::new(Database::open_in_memory(
        DbConfig::new("Discussion", ReplicaId(0xD0), ReplicaId(0x50C7)),
        LogicalClock::new(),
    )?);
    let mut acl = Acl::new(AccessLevel::Reader); // Anonymous may browse
    acl.set("alice", AclEntry::new(AccessLevel::Editor));
    db.set_acl(&acl)?;
    for i in 0..12 {
        let mut topic = Note::document("Topic");
        topic.set("Subject", Value::text(format!("topic {i:02}")));
        db.save(&mut topic)?;
    }

    let server = DominoServer::new(ServerConfig {
        workers: 2,
        queue_bound: 32,
        cache_capacity: 64,
    });
    server.register_database("disc", &db)?;
    let mut design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#)?;
    design.columns = vec![ColumnSpec::new("Subject", "Subject")?.sorted(SortDir::Ascending)];
    server.add_view("disc", design)?;
    server.register_user("alice", "secret-a");

    // --- phase A: the HTTP task on a real TCP port ---------------------
    let listener = Arc::new(
        HttpListener::start(server.clone(), HttpConfig::default()).expect("bind http listener"),
    );
    println!("== phase A: HTTP over TCP ==");
    println!("http task listening on http://{}/", listener.addr());

    let mut conn = TcpStream::connect(listener.addr()).expect("connect");
    for round in 1..=3 {
        conn.write_all(b"GET /disc.nsf/topics?OpenView&Count=5 HTTP/1.1\r\n\r\n")
            .expect("write request");
        let (status, cache) = read_response(&mut conn);
        println!("keep-alive GET round {round}: {status} (cache {cache})");
        assert_eq!(status, 200);
        assert_eq!(cache, if round == 1 { "miss" } else { "hit" });
    }

    // An authenticated POST on the same connection, then close.
    let auth = base64_encode(b"alice:secret-a");
    let body = "Subject=posted+over+tcp";
    let post = format!(
        "POST /disc.nsf/Topic?CreateDocument HTTP/1.1\r\n\
         Authorization: Basic {auth}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(post.as_bytes()).expect("write post");
    let (status, _) = read_response(&mut conn);
    println!("authenticated POST over the same socket: {status}");
    assert_eq!(status, 200);

    // --- phase B: replication through the wire protocol ----------------
    println!("\n== phase B: replication over the wire ==");
    let mut wire = ReplicaListener::bind("127.0.0.1:0").expect("bind replica listener");
    let mut transport = SocketTransport::connect(&wire.addr());
    let replica = Arc::new(Database::open_in_memory(
        DbConfig::new("Discussion", ReplicaId(0xD0), ReplicaId(0x50C8)),
        LogicalClock::new(),
    )?);
    let mut repl = Replicator::new(ReplicationOptions::default());
    let pass = repl.pull_via(&replica, &db, &mut transport)?;
    let pulled = replica.note_ids(Some(NoteClass::Document))?.len();
    println!(
        "socket replication pull: {} notes added, {} documents in replica, {} wire frames delivered",
        pass.added,
        pulled,
        wire.deliveries()
    );
    assert_eq!(pulled, 13, "12 topics + the posted document");
    drop(transport);
    wire.shutdown();

    // --- phase C: graceful drain from the console ----------------------
    println!("\n== phase C: tell http quit ==");
    let console = Console::new(ServerLog::open()?);
    let tell = listener.clone();
    console.register_tell("http", move |words| match words {
        ["quit"] => {
            let report = tell.drain(Duration::from_secs(10));
            format!(
                "> tell http quit\n  drained: {} connections open at start, {} remaining\n",
                report.connections_at_start, report.remaining
            )
        }
        _ => String::from("> tell http\n  usage: tell http quit\n"),
    });
    let out = console.exec("tell http quit");
    print!("{out}");
    assert!(out.contains("0 remaining"), "{out}");
    assert_eq!(listener.active_connections(), 0);

    println!("\nsocket server demo complete");
    Ok(())
}
