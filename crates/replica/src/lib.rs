//! Multi-master replication — the defining Notes capability.
//!
//! Replication is *pairwise and pull-based*: a replicator pulls changes
//! from a source database into a destination, diffing the two replicas'
//! Merkle summaries so only notes whose heads differ are examined.
//! Updates ship either whole documents (R3 style) or only changed fields
//! (R4 style); concurrent edits are never merged
//! silently — the loser becomes a `$Conflict` *response document* of the
//! winner, deterministically on both sides so conflict documents
//! themselves converge. Deletions travel as stubs; purge-interval
//! interactions are reproduced faithfully (experiment E8).
//!
//! [`cluster`] implements the R5 clustering variant: event-driven push
//! replication that keeps failover replicas nearly current.
//!
//! Replication survives unreliable networks: passes stream candidates in
//! bounded batches through a [`Transport`], an interrupted pull keeps a
//! resumable cursor (its negotiated candidate set and the position of the
//! last durably applied candidate), and [`Replicator::pull_with_retry`]
//! rides out transient faults with bounded exponential backoff:
//!
//! ```
//! use std::sync::Arc;
//! use domino_core::{Database, DbConfig, Note};
//! use domino_replica::{CleanTransport, ReplicationOptions, Replicator, RetryPolicy};
//! use domino_types::{FaultPlan, Faulty, LogicalClock, ReplicaId, Timestamp, Value};
//!
//! let office = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Disc", ReplicaId(7), ReplicaId(1)), LogicalClock::new()).unwrap());
//! let laptop = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Disc", ReplicaId(7), ReplicaId(2)),
//!     LogicalClock::starting_at(Timestamp(500))).unwrap());
//! for i in 0..10 {
//!     let mut memo = Note::document("Memo");
//!     memo.set("Subject", Value::text(format!("memo {i}")));
//!     office.save(&mut memo).unwrap();
//! }
//!
//! // A dial-up link that loses the first two messages of the pass:
//! let plan = FaultPlan::default();
//! plan.fail_at([0, 2]);
//! let mut flaky = Faulty::new(CleanTransport, plan);
//! let mut replicator = Replicator::new(ReplicationOptions { batch: 4, ..Default::default() });
//! let (report, retries) = replicator
//!     .pull_with_retry(&laptop, &office, &mut flaky, &RetryPolicy::standard())
//!     .unwrap();
//! assert_eq!(report.added, 10);          // everything arrived anyway
//! assert_eq!(retries.attempts, 3);       // two interruptions, two resumes
//! assert!(!replicator.has_pending());    // no cursor left behind
//! ```
//!
//! A plain reliable sync stays one call:
//!
//! ```
//! use std::sync::Arc;
//! use domino_core::{Database, DbConfig, Note};
//! use domino_replica::{ReplicationOptions, Replicator};
//! use domino_types::{LogicalClock, ReplicaId, Timestamp, Value};
//!
//! // Two replicas share a replica id but have distinct instance ids.
//! let office = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Disc", ReplicaId(7), ReplicaId(1)), LogicalClock::new()).unwrap());
//! let laptop = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Disc", ReplicaId(7), ReplicaId(2)),
//!     LogicalClock::starting_at(Timestamp(500))).unwrap());
//!
//! let mut memo = Note::document("Memo");
//! memo.set("Subject", Value::text("hello"));
//! office.save(&mut memo).unwrap();
//!
//! let mut replicator = Replicator::new(ReplicationOptions::default());
//! replicator.sync(&office, &laptop).unwrap();
//! assert_eq!(
//!     laptop.open_by_unid(memo.unid()).unwrap().get_text("Subject").unwrap(),
//!     "hello",
//! );
//! ```

#![deny(missing_docs)]

pub mod cluster;
pub mod conflict;
pub mod history;
pub mod replicator;
pub mod transport;

pub use cluster::{Cluster, ClusterStats, DEFAULT_CATCH_UP_CAPACITY};
pub use conflict::conflict_unid;
pub use history::ReplicationHistory;
pub use replicator::{
    replicate, PullCursor, PurgeSafety, ReplicationOptions, ReplicationReport, Replicator,
};
pub use transport::{CleanTransport, RetryPolicy, RetryStats, Transport};
