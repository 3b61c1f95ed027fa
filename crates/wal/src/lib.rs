//! R5-style transactional logging.
//!
//! Notes releases before R5 had no log: after a crash, the server ran
//! "fixup", a scan of *every page of every database* to repair torn
//! structures. R5 added write-ahead logging and ARIES-style restart
//! recovery (analysis / redo / undo with compensation records) so restart
//! cost is proportional to the log tail since the last checkpoint, not the
//! size of the data.
//!
//! This crate is the log itself, independent of any particular page store:
//!
//! * [`LogRecord`] — begin/update/CLR/commit/abort records with a
//!   compact binary encoding and per-record checksums (torn tails at the
//!   end of the log are detected and ignored, mid-log corruption is an
//!   error),
//! * [`LogStore`] — where log bytes live: an in-memory store whose
//!   [`MemLogStore::crash`] discards everything after the last sync
//!   (powering crash-injection tests), or a real file whose header names
//!   the LSN of its first retained byte — the restart point,
//! * [`LogManager`] — append, and one `flush` that shares a device sync
//!   among concurrent callers and stays failed after a store error,
//! * [`recovery`] — analysis, redo and undo from one scan of the retained
//!   log, generic over a [`RedoTarget`] page store.

pub mod manager;
pub mod record;
pub mod recovery;
pub mod store;

pub use manager::LogManager;
pub use record::{LogRecord, Lsn, TxId};
pub use recovery::{recover, RecoveryStats, RedoTarget};
pub use store::{FileLogStore, LogStore, MemLogStore};
