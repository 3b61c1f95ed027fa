//! Physical log storage.
//!
//! A [`LogStore`] is an append-only byte device with an explicit `sync`
//! barrier and a one-slot *master record* holding the LSN of the most
//! recent checkpoint (Domino keeps this in the log control file).
//!
//! LSNs are byte offsets into the *logical* log, which only ever grows.
//! [`LogStore::truncate_prefix`] discards the physical bytes below a
//! checkpoint without renumbering anything: the store remembers a base
//! offset ([`LogStore::start`]) and `len()` keeps returning the logical
//! end, so `len() - start()` is the bytes actually retained on disk.
//!
//! [`MemLogStore`] models a disk honestly enough for crash experiments:
//! appended bytes sit in a volatile tail until `sync`; [`MemLogStore::crash`]
//! throws the volatile tail away, exactly what power loss does to an
//! OS-buffered file. [`FaultLogStore`] wraps any store and kills mutating
//! I/O after a scripted number of operations, for crash-point tests.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::record::Lsn;
use domino_types::{DominoError, Result};

/// Append-only storage for log bytes.
pub trait LogStore: Send + Sync {
    /// Append bytes at the current end (volatile until `sync`).
    fn append(&self, bytes: &[u8]) -> Result<()>;

    /// Make everything appended so far durable.
    fn sync(&self) -> Result<()>;

    /// Read the *durable* log contents from logical byte `from` to the
    /// durable end. `from` below `start()` is clamped up to `start()` by
    /// callers; implementations may return an error for truncated offsets.
    fn read_from(&self, from: u64) -> Result<Vec<u8>>;

    /// Durable *logical* end in bytes (monotonic; unaffected by prefix
    /// truncation).
    fn len(&self) -> Result<u64>;

    /// Logical offset of the first retained byte (0 until a prefix
    /// truncation happens).
    fn start(&self) -> Result<u64> {
        Ok(0)
    }

    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == self.start()?)
    }

    /// Persist the checkpoint master record.
    fn set_master(&self, lsn: Lsn) -> Result<()>;

    /// Read the checkpoint master record (NIL if never set).
    fn get_master(&self) -> Result<Lsn>;

    /// Discard all physical bytes below logical offset `upto` (which must
    /// not exceed the durable end). LSNs are unaffected; `start()` becomes
    /// `upto`. Called after a checkpoint so the log stops growing forever.
    fn truncate_prefix(&self, upto: u64) -> Result<()>;
}

impl LogStore for Box<dyn LogStore> {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        (**self).append(bytes)
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        (**self).read_from(from)
    }
    fn len(&self) -> Result<u64> {
        (**self).len()
    }
    fn start(&self) -> Result<u64> {
        (**self).start()
    }
    fn set_master(&self, lsn: Lsn) -> Result<()> {
        (**self).set_master(lsn)
    }
    fn get_master(&self) -> Result<Lsn> {
        (**self).get_master()
    }
    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        (**self).truncate_prefix(upto)
    }
}

/// In-memory log with an explicit durability watermark.
#[derive(Clone, Default)]
pub struct MemLogStore {
    inner: Arc<Mutex<MemLogInner>>,
}

#[derive(Default)]
struct MemLogInner {
    /// Retained bytes; `bytes[0]` sits at logical offset `base`.
    bytes: Vec<u8>,
    /// Logical offset of `bytes[0]` (advanced by `truncate_prefix`).
    base: u64,
    /// Durable length *within* `bytes` (relative).
    durable_len: usize,
    master: Lsn,
    durable_master: Lsn,
    /// Count of sync calls, for group-commit accounting in benches.
    syncs: u64,
}

impl MemLogStore {
    pub fn new() -> MemLogStore {
        MemLogStore::default()
    }

    /// Simulate power loss: un-synced bytes and master writes vanish.
    pub fn crash(&self) {
        let mut g = self.inner.lock();
        let durable = g.durable_len;
        g.bytes.truncate(durable);
        g.master = g.durable_master;
    }

    /// Number of `sync` barriers issued so far.
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().syncs
    }

    /// Total bytes physically held (durable or not).
    pub fn total_len(&self) -> usize {
        self.inner.lock().bytes.len()
    }
}

impl LogStore for MemLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.inner.lock().bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let mut g = self.inner.lock();
        g.durable_len = g.bytes.len();
        g.durable_master = g.master;
        g.syncs += 1;
        Ok(())
    }

    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        let g = self.inner.lock();
        if from < g.base {
            return Err(DominoError::Wal(format!(
                "read_from({from}) below truncated log base {}",
                g.base
            )));
        }
        let rel = ((from - g.base) as usize).min(g.durable_len);
        Ok(g.bytes[rel..g.durable_len].to_vec())
    }

    fn len(&self) -> Result<u64> {
        let g = self.inner.lock();
        Ok(g.base + g.durable_len as u64)
    }

    fn start(&self) -> Result<u64> {
        Ok(self.inner.lock().base)
    }

    fn set_master(&self, lsn: Lsn) -> Result<()> {
        self.inner.lock().master = lsn;
        Ok(())
    }

    fn get_master(&self) -> Result<Lsn> {
        Ok(self.inner.lock().master)
    }

    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        let mut g = self.inner.lock();
        if upto <= g.base {
            return Ok(());
        }
        let durable_end = g.base + g.durable_len as u64;
        if upto > durable_end {
            return Err(DominoError::Wal(format!(
                "truncate_prefix({upto}) past durable end {durable_end}"
            )));
        }
        let cut = (upto - g.base) as usize;
        g.bytes.drain(..cut);
        g.durable_len -= cut;
        g.base = upto;
        Ok(())
    }
}

/// File-backed log store. The master record lives in a sibling file with a
/// `.master` suffix, written atomically via rename; the logical base offset
/// (for prefix truncation) lives in a `.base` sibling the same way.
pub struct FileLogStore {
    inner: Mutex<FileInner>,
    log_path: std::path::PathBuf,
    master_path: std::path::PathBuf,
    base_path: std::path::PathBuf,
}

struct FileInner {
    file: File,
    /// Logical offset of physical byte 0 of the log file.
    base: u64,
}

impl FileLogStore {
    pub fn open(path: &Path) -> Result<FileLogStore> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let master_path = path.with_extension("master");
        let base_path = path.with_extension("base");
        let base = match std::fs::read(&base_path) {
            Ok(bytes) if bytes.len() == 8 => u64::from_le_bytes(bytes.try_into().expect("len 8")),
            Ok(_) => 0,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        Ok(FileLogStore {
            inner: Mutex::new(FileInner { file, base }),
            log_path: path.to_path_buf(),
            master_path,
            base_path,
        })
    }

    fn write_sidecar(path: &Path, value: u64) -> Result<()> {
        let tmp = path.with_extension("sidecar.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&value.to_le_bytes())?;
            // The rename is the commit point; the content must be durable
            // before it, or a crash can publish an empty sidecar.
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

impl LogStore for FileLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.inner.lock().file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.inner.lock().file.sync_data()?;
        Ok(())
    }

    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        let mut g = self.inner.lock();
        if from < g.base {
            return Err(DominoError::Wal(format!(
                "read_from({from}) below truncated log base {}",
                g.base
            )));
        }
        let rel = from - g.base;
        let mut out = Vec::new();
        g.file.seek(SeekFrom::Start(rel))?;
        g.file.read_to_end(&mut out)?;
        // Restore append position (append mode seeks on write anyway).
        g.file.seek(SeekFrom::End(0))?;
        Ok(out)
    }

    fn len(&self) -> Result<u64> {
        let g = self.inner.lock();
        Ok(g.base + g.file.metadata()?.len())
    }

    fn start(&self) -> Result<u64> {
        Ok(self.inner.lock().base)
    }

    fn set_master(&self, lsn: Lsn) -> Result<()> {
        FileLogStore::write_sidecar(&self.master_path, lsn.0)
    }

    fn get_master(&self) -> Result<Lsn> {
        match std::fs::read(&self.master_path) {
            Ok(bytes) if bytes.len() == 8 => {
                Ok(Lsn(u64::from_le_bytes(bytes.try_into().expect("len 8"))))
            }
            Ok(_) => Ok(Lsn::NIL),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Lsn::NIL),
            Err(e) => Err(e.into()),
        }
    }

    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        let mut g = self.inner.lock();
        if upto <= g.base {
            return Ok(());
        }
        let end = g.base + g.file.metadata()?.len();
        if upto > end {
            return Err(DominoError::Wal(format!(
                "truncate_prefix({upto}) past log end {end}"
            )));
        }
        // Copy the retained suffix into a fresh file and rename it over the
        // log, so a crash mid-truncation leaves either the old or the new
        // log intact. The base sidecar is updated *after* the rename; a
        // crash between the two leaves base stale (too small), which only
        // means `read_from` sees a shifted view — so the sidecar is written
        // first and the rename is the commit point of the truncation.
        let rel = upto - g.base;
        g.file.seek(SeekFrom::Start(rel))?;
        let mut suffix = Vec::new();
        g.file.read_to_end(&mut suffix)?;
        let tmp = self.log_path.with_extension("log.tmp");
        std::fs::write(&tmp, &suffix)?;
        FileLogStore::write_sidecar(&self.base_path, upto)?;
        std::fs::rename(&tmp, &self.log_path)?;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.log_path)?;
        file.sync_data()?;
        g.file = file;
        g.base = upto;
        Ok(())
    }
}

/// Shared switch controlling a [`FaultLogStore`] (and mirroring
/// `domino_storage`'s `FaultDisk`): arms a countdown of mutating operations
/// after which every further mutating I/O fails, simulating a device that
/// dies mid-workload. Disarm it before "rebooting" for recovery.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<FaultPlanInner>>,
}

#[derive(Default)]
struct FaultPlanInner {
    /// Mutating ops still allowed; `None` = unlimited.
    remaining: Option<u64>,
    /// Mutating ops observed since creation (armed or not).
    ops: u64,
    /// Whether the fault has fired at least once.
    tripped: bool,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Allow `n` more mutating operations, then fail all of them.
    pub fn arm(&self, n: u64) {
        let mut g = self.inner.lock();
        g.remaining = Some(n);
        g.tripped = false;
    }

    /// Stop injecting faults (the "reboot" before recovery).
    pub fn disarm(&self) {
        self.inner.lock().remaining = None;
    }

    /// Mutating operations observed so far.
    pub fn ops_seen(&self) -> u64 {
        self.inner.lock().ops
    }

    /// True once an injected fault has fired.
    pub fn tripped(&self) -> bool {
        self.inner.lock().tripped
    }

    /// Account one mutating op; `Err` if the budget is exhausted.
    pub fn tick(&self, what: &str) -> Result<()> {
        let mut g = self.inner.lock();
        g.ops += 1;
        match &mut g.remaining {
            Some(0) => {
                g.tripped = true;
                Err(DominoError::Io(format!("injected fault: {what}")))
            }
            Some(n) => {
                *n -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }
}

/// A [`LogStore`] wrapper that injects I/O failures after a scripted number
/// of mutating operations (append/sync/set_master/truncate). Reads are
/// never failed, so post-crash recovery can run against the same store
/// after [`FaultPlan::disarm`].
#[derive(Clone)]
pub struct FaultLogStore<S: LogStore> {
    store: S,
    plan: FaultPlan,
}

impl<S: LogStore> FaultLogStore<S> {
    pub fn new(store: S, plan: FaultPlan) -> FaultLogStore<S> {
        FaultLogStore { store, plan }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<S: LogStore> LogStore for FaultLogStore<S> {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.plan.tick("log append")?;
        self.store.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        self.plan.tick("log sync")?;
        self.store.sync()
    }
    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        self.store.read_from(from)
    }
    fn len(&self) -> Result<u64> {
        self.store.len()
    }
    fn start(&self) -> Result<u64> {
        self.store.start()
    }
    fn set_master(&self, lsn: Lsn) -> Result<()> {
        self.plan.tick("log set_master")?;
        self.store.set_master(lsn)
    }
    fn get_master(&self) -> Result<Lsn> {
        self.store.get_master()
    }
    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        self.plan.tick("log truncate_prefix")?;
        self.store.truncate_prefix(upto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_append_sync_read() {
        let s = MemLogStore::new();
        s.append(b"hello").unwrap();
        // Not yet durable.
        assert_eq!(s.len().unwrap(), 0);
        s.sync().unwrap();
        assert_eq!(s.len().unwrap(), 5);
        assert_eq!(s.read_from(0).unwrap(), b"hello");
        assert_eq!(s.read_from(3).unwrap(), b"lo");
    }

    #[test]
    fn mem_store_crash_discards_unsynced() {
        let s = MemLogStore::new();
        s.append(b"durable").unwrap();
        s.sync().unwrap();
        s.append(b" volatile").unwrap();
        s.crash();
        assert_eq!(s.read_from(0).unwrap(), b"durable");
        assert_eq!(s.total_len(), 7);
    }

    #[test]
    fn mem_store_master_survives_only_after_sync() {
        let s = MemLogStore::new();
        s.set_master(Lsn(99)).unwrap();
        s.crash();
        assert_eq!(s.get_master().unwrap(), Lsn::NIL);
        s.set_master(Lsn(42)).unwrap();
        s.sync().unwrap();
        s.crash();
        assert_eq!(s.get_master().unwrap(), Lsn(42));
    }

    #[test]
    fn mem_store_truncate_prefix_keeps_lsn_space() {
        let s = MemLogStore::new();
        s.append(b"0123456789").unwrap();
        s.sync().unwrap();
        s.truncate_prefix(4).unwrap();
        assert_eq!(s.start().unwrap(), 4);
        assert_eq!(s.len().unwrap(), 10, "logical end unchanged");
        assert_eq!(s.total_len(), 6, "physical bytes shrank");
        assert_eq!(s.read_from(4).unwrap(), b"456789");
        assert!(s.read_from(0).is_err(), "truncated offsets rejected");
        // Appends continue in the same logical space.
        s.append(b"ab").unwrap();
        s.sync().unwrap();
        assert_eq!(s.len().unwrap(), 12);
        assert_eq!(s.read_from(10).unwrap(), b"ab");
        // Idempotent / below-base truncation is a no-op.
        s.truncate_prefix(2).unwrap();
        assert_eq!(s.start().unwrap(), 4);
        // Truncating past the durable end is an error.
        assert!(s.truncate_prefix(100).is_err());
        // Truncating *to* the durable end empties the store and keeps the
        // LSN space (how the engine discards the log at clean shutdown).
        s.truncate_prefix(12).unwrap();
        assert!(s.is_empty().unwrap());
        assert_eq!(s.len().unwrap(), 12);
    }

    #[test]
    fn fault_store_kills_writes_after_budget() {
        let plan = FaultPlan::new();
        let s = FaultLogStore::new(MemLogStore::new(), plan.clone());
        s.append(b"a").unwrap();
        s.sync().unwrap();
        plan.arm(1);
        s.append(b"b").unwrap(); // last allowed op
        assert!(s.sync().is_err());
        assert!(s.append(b"c").is_err());
        assert!(plan.tripped());
        // Reads still work, and disarm restores writes.
        assert_eq!(s.read_from(0).unwrap(), b"a");
        plan.disarm();
        s.sync().unwrap();
        assert_eq!(plan.ops_seen(), 6);
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("domino-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.log");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("base"));
        let s = FileLogStore::open(&path).unwrap();
        s.append(b"abc").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read_from(0).unwrap(), b"abc");
        assert_eq!(s.len().unwrap(), 3);
        s.set_master(Lsn(7)).unwrap();
        assert_eq!(s.get_master().unwrap(), Lsn(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_truncate_prefix_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("domino-wal-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.log");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("base"));
        let s = FileLogStore::open(&path).unwrap();
        s.append(b"0123456789").unwrap();
        s.sync().unwrap();
        s.truncate_prefix(6).unwrap();
        assert_eq!(s.start().unwrap(), 6);
        assert_eq!(s.len().unwrap(), 10);
        assert_eq!(s.read_from(6).unwrap(), b"6789");
        drop(s);
        let s2 = FileLogStore::open(&path).unwrap();
        assert_eq!(s2.start().unwrap(), 6);
        assert_eq!(s2.len().unwrap(), 10);
        assert_eq!(s2.read_from(8).unwrap(), b"89");
        // Truncating to the end empties the file but not the LSN space.
        s2.truncate_prefix(10).unwrap();
        drop(s2);
        let s3 = FileLogStore::open(&path).unwrap();
        assert!(s3.is_empty().unwrap());
        assert_eq!(s3.len().unwrap(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
