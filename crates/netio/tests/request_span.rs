//! One socket request is one span path: the connection thread that
//! parsed it also runs it and writes the answer, so the server's spans
//! nest under `Http.Conn.Request`.
//!
//! Its own binary: the test captures every span into the process-wide
//! slow-op ring, and no other test may write there meanwhile.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use domino_core::{Database, DbConfig, Note};
use domino_netio::{HttpConfig, HttpListener};
use domino_obs as obs;
use domino_server::{DominoServer, ServerConfig};
use domino_types::{LogicalClock, ReplicaId, Value};
use domino_views::{ColumnSpec, ViewDesign};

#[test]
fn a_socket_view_miss_is_one_span_path() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Discussion", ReplicaId(1), ReplicaId(9)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let mut topic = Note::document("Topic");
    topic.set("Subject", Value::text("welcome"));
    db.save(&mut topic).unwrap();
    let server = DominoServer::new(ServerConfig::default());
    server.register_database("disc", &db).unwrap();
    let design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#)
        .unwrap()
        .column(ColumnSpec::new("Subject", "Subject").unwrap());
    server.add_view("disc", design).unwrap();
    let listener = HttpListener::start(server, HttpConfig::default()).unwrap();

    obs::take_slow_ops();
    obs::set_slow_threshold(Duration::ZERO);
    let mut conn = TcpStream::connect(listener.addr()).unwrap();
    conn.write_all(b"GET /disc.nsf/topics?OpenView HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = Vec::new();
    // The server closes the socket after its request span has ended.
    conn.read_to_end(&mut out).unwrap();
    obs::set_slow_threshold(Duration::from_millis(100));
    assert!(
        out.starts_with(b"HTTP/1.1 200"),
        "{}",
        String::from_utf8_lossy(&out)
    );

    let paths: Vec<String> = obs::take_slow_ops().into_iter().map(|op| op.path).collect();
    assert!(
        paths
            .iter()
            .any(|p| p == "Http.Conn.Request > Http.Request > Http.View.Render"),
        "no span path from the socket to the render: {paths:?}"
    );
}
