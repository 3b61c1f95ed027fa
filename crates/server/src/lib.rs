//! `domino-server`: the Domino HTTP task — a concurrent web front-end
//! over the note store.
//!
//! The day Lotus Notes grew a web server it was renamed Domino: the HTTP
//! task turns every database into a live web application by mapping *URL
//! commands* straight onto the note store — `?OpenView` renders a view
//! page, `?OpenDocument` a document, `?ReadViewEntries` the same view
//! window as JSON (see [`url`] for the grammar). This crate reproduces
//! that task, dependency-free and transport-free: typed
//! [`Request`]/[`Response`] values stand in for the socket.
//!
//! The moving parts:
//!
//! * [`url`] — the URL-command parser.
//! * [`DominoServer`] — the executor: per-request authentication, then a
//!   `domino-core` [`Session`](domino_core::Session) so ACL levels,
//!   `$Readers` fields, and protected items are enforced exactly as for
//!   native clients; denials become `401`/`403`.
//! * [`WorkerPool`] — a fixed set of worker threads behind a bounded
//!   queue; overload answers `503` instead of queueing unboundedly.
//! * [`CommandCache`] — rendered view pages keyed by
//!   `(db, view, window, access class)` and expired by the view index's
//!   [version](domino_views::View::version) (and by the index being
//!   replaced), so hot pages are served without touching the view index.
//! * An "amgr" driver ([`DominoServer::amgr_tick`] /
//!   [`DominoServer::start_amgr`]) running stored agents on schedule and
//!   on database change.
//! * [`ServerLog`] (the `logger` module) — the Domino logger task: a
//!   background drainer filing every structured event from the
//!   `domino-obs` bus as a document in a real `log.nsf` database, with
//!   domlog-style `HttpRequest` documents, stock views, size-bounded
//!   rotation, and its own ACL — browsable through this very server.
//! * [`ProbeEngine`] (the `ddm` module) — DDM-style health probes over
//!   registry snapshot deltas, escalating and clearing as verdict
//!   events.
//! * [`Console`] — the admin surface: `show statistics`, `show tasks`,
//!   `show events [severity]`, `tell logger drain|rotate`.
//!
//! Everything reports under `Http.*` in `domino-obs` (`show statistics`),
//! and every request lands on the event bus as an `Http.Request` event
//! (denials additionally as `Security`-kind `Http.Denied`).
//!
//! ```
//! use std::sync::Arc;
//! use domino_core::{Database, DbConfig, Note};
//! use domino_server::{DominoServer, Request, ServerConfig};
//! use domino_types::{LogicalClock, ReplicaId, Value};
//! use domino_views::{ColumnSpec, ViewDesign};
//!
//! let db = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Discussion", ReplicaId(1), ReplicaId(2)),
//!     LogicalClock::new()).unwrap());
//! let mut topic = Note::document("Topic");
//! topic.set("Subject", Value::text("welcome"));
//! db.save(&mut topic).unwrap();
//!
//! let server = DominoServer::new(ServerConfig::default());
//! server.register_database("disc", &db).unwrap();
//! let mut design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#).unwrap();
//! design.columns = vec![ColumnSpec::new("Subject", "Subject").unwrap()];
//! server.add_view("disc", design).unwrap();
//!
//! let page = server.serve(Request::get("/disc.nsf/topics?OpenView"));
//! assert_eq!(page.status.code(), 200);
//! assert!(page.body.contains("welcome"));
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod console;
pub mod ddm;
pub mod http;
pub mod logger;
pub mod pool;
pub mod render;
mod server;
pub mod url;

pub use cache::{CacheKey, CachedPage, CommandCache, PageKind};
pub use console::{Console, TellHandler};
pub use ddm::{default_rules, ProbeCondition, ProbeEngine, ProbeOutcome, ProbeRule};
pub use http::{Credentials, Method, Request, Response, Status};
pub use logger::{DrainReport, LoggerConfig, LoggerHandle, ServerLog};
pub use pool::WorkerPool;
pub use server::{AmgrHandle, DominoServer, ServerConfig, ANONYMOUS};
pub use url::{parse, UrlCommand, DEFAULT_COUNT};
