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
//!   parsing ([`HttpParser`]), each request run to completion on the
//!   connection thread that read it, keep-alive with idle timeout,
//!   per-request I/O deadlines, a connection cap with on-the-spot `503`,
//!   and a graceful drain wired to the console (`tell http quit`).
//! * [`SocketTransport`] / [`ReplicaListener`] — the NRPC stand-in: the
//!   length-prefixed checksummed framing of
//!   [`domino_types::wire`] on a real TCP connection, as a second
//!   `Transport` impl, so `pull_via`/`pull_with_retry` and their
//!   interrupt/resume guarantees run unchanged over a socket.
//!
//! Both faces speak to the *same* engine as in-process callers — the
//! server's admission gate and its load shed, the command cache, ACL
//! checks, and the pull cursor behave identically whichever door a
//! request came through (DESIGN.md §"Transport equivalence"), and
//! `tests/prop_faulty_replication.rs` proves it property-by-property.

#![deny(missing_docs)]

pub mod httpd;
mod listener;
pub mod parser;
pub mod repl;

pub use httpd::{DrainReport, HttpConfig, HttpListener};
pub use parser::{
    base64_decode, base64_encode, HttpParser, ParseError, ParsedRequest, ParserLimits,
};
pub use repl::{ReplicaListener, SocketTransport};
