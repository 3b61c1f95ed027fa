//! The NSF-style page store.
//!
//! A Notes database is a single file of fixed-size pages holding notes,
//! their items, and the indexes that find them. This crate rebuilds that
//! substrate with a modern database architecture (the byte layout is our
//! own; see DESIGN.md §2 for why that preserves the paper's semantics):
//!
//! * [`disk`] — the page device trait and the crash-simulating in-memory
//!   disk,
//! * [`mod@file`] — the real device: a single NSF file with a checksummed
//!   superblock, positioned I/O, per-page torn-write detection, and the
//!   `CrashDisk` OS-cache model for crash tests (byte layout: FORMAT.md),
//! * [`page`] — 4 KiB pages with an LSN-stamped header,
//! * [`engine`] — the transactional pager: buffer pool with WAL-coupled
//!   logged writes, steal/no-force eviction, fuzzy checkpoints, and restart
//!   recovery via `domino-wal`,
//! * [`btree`] — disk-resident B⁺-trees with fixed-width `u128` keys and
//!   `u64` values (note-id and UNID indexes),
//! * [`heap`] — slotted record pages with overflow chaining for
//!   variable-length note records,
//! * [`nsf`] — [`NoteStore`], the assembled NSF file: note-id allocation,
//!   summary and non-summary record segments, and the UNID index.
//!
//! Concurrency model: one writer at a time (enforced by the owning
//! `domino_core::Database`); physical before/after-image logging therefore
//! gives correct transaction rollback and ARIES restart semantics.

pub mod btree;
pub mod disk;
pub mod engine;
pub mod file;
pub mod heap;
pub mod nsf;
pub mod page;
pub mod pool;

pub use btree::BTree;
pub use disk::{Disk, MemDisk};
pub use engine::{CommitMode, Engine, EngineConfig, EngineStats, Tx};
pub use file::{CrashDisk, CrashMode, NsfFile, SuperBlock, VerifyReport};
pub use heap::{Heap, RecordPtr};
pub use nsf::{NoteStore, Segment};
pub use page::{PageBuf, PageId, PageType, PAGE_SIZE};
pub use pool::BufferPool;
