//! # domino-netio — real sockets for the Domino reproduction
//!
//! The engine underneath (`domino-server`, `domino-replica`) is
//! transport-free by design: requests and replication messages are typed
//! values, so every behaviour is testable in-process. This crate is the
//! missing outer layer — the part of Domino that actually owns port 80
//! and port 1352:
//!
//! * [`HttpListener`] — a `std::net::TcpListener` front for
//!   [`DominoServer`](domino_server::DominoServer): incremental HTTP/1.1
//!   parsing ([`HttpParser`]), keep-alive with idle timeout, per-request
//!   I/O deadlines, a connection cap with on-the-spot `503`, and a
//!   graceful drain wired to the console (`tell http quit`).
//! * [`SocketTransport`] / [`ReplicaListener`] — the NRPC stand-in: the
//!   length-prefixed checksummed framing of
//!   [`domino_types::wire`] on a real TCP connection, as a second
//!   `Transport` impl, so `pull_via`/`pull_with_retry` and their
//!   interrupt/resume guarantees run unchanged over a socket.
//!
//! Both faces speak to the *same* engine as in-process callers — the
//! worker-pool load shed, the command cache, ACL checks, and the pull
//! cursor behave identically whichever door a request came through
//! (DESIGN.md §"Transport equivalence"), and
//! `tests/prop_faulty_replication.rs` proves it property-by-property.

#![deny(missing_docs)]

pub mod httpd;
pub mod parser;
pub mod repl;

pub use httpd::{DrainReport, HttpConfig, HttpListener};
pub use parser::{
    base64_decode, base64_encode, HttpParser, ParseError, ParsedRequest, ParserLimits,
};
pub use repl::{ReplicaListener, SocketTransport};

use std::sync::Mutex;
use std::thread::JoinHandle;

/// The connection threads a listener joins when it stops. A joinable
/// thread's stack is released only when it is joined, so `hold` first
/// joins every finished one: a server that kept each handle until shutdown
/// would hold a stack mapping for every connection it ever served.
#[derive(Default)]
struct ConnThreads(Mutex<Vec<JoinHandle<()>>>);

impl ConnThreads {
    fn hold(&self, new: JoinHandle<()>) {
        let mut held = self.0.lock().unwrap_or_else(|p| p.into_inner());
        for h in std::mem::take(&mut *held) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                held.push(h);
            }
        }
        held.push(new);
    }

    fn join_all(&self) {
        let held = std::mem::take(&mut *self.0.lock().unwrap_or_else(|p| p.into_inner()));
        for h in held {
            let _ = h.join();
        }
    }
}

/// Serve 200 connections one after another with `cycle`, then keep
/// cycling until at most four handles are held; fail after ten seconds.
#[cfg(test)]
fn assert_finished_connections_reaped(threads: &ConnThreads, cycle: impl Fn()) {
    use std::time::{Duration, Instant};
    for _ in 0..200 {
        cycle();
    }
    // A thread ends shortly after its peer is done; the next accept joins it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let held = threads.0.lock().unwrap().len();
        if held <= 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{held} handles held after 200 connections"
        );
        std::thread::sleep(Duration::from_millis(20));
        cycle();
    }
}
