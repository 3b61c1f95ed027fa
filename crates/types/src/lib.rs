//! Core types shared by every crate in the `domino-rs` workspace.
//!
//! Lotus Notes addresses every document ("note") three ways:
//!
//! * a [`NoteId`] — a small integer valid only inside one database replica,
//! * a [`Unid`] — a 128-bit *universal* id identical across all replicas of a
//!   database, and
//! * an [`Oid`] — the UNID plus a *sequence number* and *sequence time*,
//!   which together version the note for replication.
//!
//! Items (fields) of a note carry typed [`Value`]s and per-item metadata
//! ([`Item`]) such as the *summary* flag (may appear in views) and the
//! per-item revision timestamp used by field-level replication.
//!
//! Time is modelled by a [`Timestamp`] issued from a [`Clock`]. Production
//! Domino uses wall-clock time; for deterministic tests and the network
//! simulator we use hybrid logical clocks ([`LogicalClock`]) that only move
//! forward when asked and can be merged with remote observations.

pub mod datetime;
pub mod error;
pub mod fault;
pub mod hash;
pub mod id;
pub mod item;
pub mod time;
pub mod value;
pub mod wire;

pub use datetime::{days_in_month, Civil, SECONDS_PER_DAY};
pub use error::{DominoError, Result};
pub use fault::{splitmix64, FaultPlan, Faulty};
pub use hash::{content_hash, mix128, ContentHash, ContentHasher};
pub use id::{NoteClass, NoteId, Oid, ReplicaId, Unid};
pub use item::{Item, ItemFlags};
pub use time::{Clock, LogicalClock, Timestamp};
pub use value::{DateTime, Value, ValueType};
pub use wire::{Frame, FrameDecoder, Opcode, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};
