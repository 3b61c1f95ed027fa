//! Physical log storage.
//!
//! A [`LogStore`] is an append-only byte device with an explicit `sync`
//! barrier.
//!
//! LSNs are byte offsets into the *logical* log, which only ever grows.
//! [`LogStore::truncate_prefix`] discards the physical bytes below the redo
//! point without renumbering anything: the store remembers a base offset
//! ([`LogStore::start`]) and `len()` keeps returning the logical end, so
//! `len() - start()` is the bytes actually retained. Truncation only ever
//! cuts at the redo point of a checkpoint taken with no transaction open,
//! so the first retained byte *is* the restart point: recovery needs no
//! other record of where to begin.
//!
//! [`MemLogStore`] models a disk honestly enough for crash experiments:
//! appended bytes sit in a volatile tail until `sync`; [`MemLogStore::crash`]
//! throws the volatile tail away, exactly what power loss does to an
//! OS-buffered file. A [`Faulty`] store fails mutating I/O on its
//! `FaultPlan`'s schedule, for crash-point tests.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use domino_types::{fnv1a32, DominoError, Faulty, Reader, Result};

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
    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        (**self).truncate_prefix(upto)
    }
}

/// Capacity a truncated [`MemLogStore`] keeps even when it retains less.
/// The log refills between checkpoints; regrown from nothing through many
/// small reallocations, it left heap fragments that raised the
/// `replicate` benchmark's peak RSS by 3 MB (EXPERIMENTS.md E2).
const MEM_LOG_KEEP: usize = 1 << 20;

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
}

impl MemLogStore {
    pub fn new() -> MemLogStore {
        MemLogStore::default()
    }

    /// Simulate power loss: un-synced bytes vanish.
    pub fn crash(&self) {
        let mut g = self.inner.lock();
        let durable = g.durable_len;
        g.bytes.truncate(durable);
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
        // `drain` keeps the capacity: without giving it back, a log cut at
        // every checkpoint would hold its high-water mark for good.
        let keep = g.bytes.len().max(MEM_LOG_KEEP);
        if g.bytes.capacity() > 2 * keep {
            g.bytes.shrink_to(keep);
        }
        g.durable_len -= cut;
        g.base = upto;
        Ok(())
    }
}

/// `data.txn` header (FORMAT.md §9): magic, log format version, the base
/// LSN of the first record byte, and FNV-1a-32 over the 16 bytes before it.
/// Version 2 added record tag 7; a version-1 log holds tags 1–5 only, so it
/// opens as is and its header is rewritten as version 2 at open.
pub const LOG_MAGIC: [u8; 4] = *b"DTXN";
pub const LOG_VERSION: u32 = 2;
pub const LH_MAGIC: usize = 0; // 4 bytes
pub const LH_VERSION: usize = 4; // u32
pub const LH_BASE: usize = 8; // u64
pub const LH_CHECKSUM: usize = 16; // u32 over bytes 0..16
pub const LOG_HEADER_LEN: usize = 20;

fn encode_header(base: u64) -> [u8; LOG_HEADER_LEN] {
    let mut h = [0u8; LOG_HEADER_LEN];
    h[LH_MAGIC..LH_VERSION].copy_from_slice(&LOG_MAGIC);
    h[LH_VERSION..LH_BASE].copy_from_slice(&LOG_VERSION.to_le_bytes());
    h[LH_BASE..LH_CHECKSUM].copy_from_slice(&base.to_le_bytes());
    let sum = fnv1a32(&h[..LH_CHECKSUM]);
    h[LH_CHECKSUM..].copy_from_slice(&sum.to_le_bytes());
    h
}

/// The format version and base LSN a header names. Anything but a whole,
/// intact header of version 1 or 2 is corruption: reading it as base 0
/// would restart LSNs below the ones the data file's pages already carry.
fn decode_header(h: &[u8]) -> Result<(u32, u64)> {
    let corrupt = |what: &str| Err(DominoError::Corrupt(format!("transaction log {what}")));
    let mut r = Reader::new(h);
    if r.array("transaction log header magic")? != LOG_MAGIC {
        return corrupt("has no header (bad magic)");
    }
    let version = r.u32("transaction log header version")?;
    let base = r.u64("transaction log header base")?;
    if r.u32("transaction log header checksum")? != fnv1a32(&h[..LH_CHECKSUM]) {
        return corrupt("header checksum mismatch");
    }
    if !(1..=LOG_VERSION).contains(&version) {
        return corrupt(&format!(
            "format version {version} is not 1 or {LOG_VERSION}"
        ));
    }
    Ok((version, base))
}

/// Replace the log at `path` with a header naming `base` followed by
/// `records`: write a temp file, `fdatasync` it, `rename` it over the log,
/// fsync the directory. A crash leaves the old log or the new one, never
/// a mix. Every rewrite — creation, every prefix truncation and the
/// version-1 upgrade — is this.
/// `install` gets the new file the moment it is in place, so a failing
/// directory sync cannot leave appends going to the replaced one.
fn rewrite(path: &Path, base: u64, records: &[u8], install: impl FnOnce(File)) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&encode_header(base))?;
    f.write_all(records)?;
    f.sync_data()?;
    let log = OpenOptions::new().read(true).append(true).open(&tmp)?;
    std::fs::rename(&tmp, path)?;
    install(log);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// File-backed log store: one self-describing file whose header carries
/// the logical LSN of the first record byte after it.
pub struct FileLogStore {
    inner: Mutex<FileInner>,
    path: PathBuf,
}

struct FileInner {
    file: File,
    /// Logical offset of the first byte after the header.
    base: u64,
}

impl FileInner {
    /// Record bytes held (the file minus its header).
    fn held(&self) -> Result<u64> {
        Ok(self
            .file
            .metadata()?
            .len()
            .saturating_sub(LOG_HEADER_LEN as u64))
    }

    /// Record bytes from logical offset `from` (at or above the base) to
    /// the end.
    fn records_from(&self, from: u64) -> Result<Vec<u8>> {
        let held = self.held()?;
        let rel = (from - self.base).min(held);
        let mut out = vec![0u8; (held - rel) as usize];
        self.file
            .read_exact_at(&mut out, LOG_HEADER_LEN as u64 + rel)?;
        Ok(out)
    }
}

impl FileLogStore {
    /// Open the log at `path`. Only a missing file is a fresh log (created
    /// with base 0); a file without an intact header is refused as
    /// [`DominoError::Corrupt`]. A version-1 log is rewritten under a
    /// version-2 header before anything is appended, so no file holding a
    /// tag-7 record names version 1 and an older build refuses it.
    pub fn open(path: &Path) -> Result<FileLogStore> {
        let (file, base) = match OpenOptions::new().read(true).append(true).open(path) {
            Ok(file) => {
                let len = file.metadata()?.len().min(LOG_HEADER_LEN as u64) as usize;
                let mut header = vec![0u8; len];
                file.read_exact_at(&mut header, 0)?;
                let (version, base) = decode_header(&header)?;
                if version == LOG_VERSION {
                    (file, base)
                } else {
                    let old = FileInner { file, base };
                    let records = old.records_from(base)?;
                    let mut upgraded = None;
                    rewrite(path, base, &records, |f| upgraded = Some(f))?;
                    (upgraded.expect("installed on success"), base)
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut created = None;
                rewrite(path, 0, &[], |f| created = Some(f))?;
                (created.expect("installed on success"), 0)
            }
            Err(e) => return Err(e.into()),
        };
        Ok(FileLogStore {
            inner: Mutex::new(FileInner { file, base }),
            path: path.to_path_buf(),
        })
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
        let g = self.inner.lock();
        if from < g.base {
            return Err(DominoError::Wal(format!(
                "read_from({from}) below truncated log base {}",
                g.base
            )));
        }
        g.records_from(from)
    }

    fn len(&self) -> Result<u64> {
        let g = self.inner.lock();
        Ok(g.base + g.held()?)
    }

    fn start(&self) -> Result<u64> {
        Ok(self.inner.lock().base)
    }

    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        let mut g = self.inner.lock();
        if upto <= g.base {
            return Ok(());
        }
        let end = g.base + g.held()?;
        if upto > end {
            return Err(DominoError::Wal(format!(
                "truncate_prefix({upto}) past log end {end}"
            )));
        }
        let kept = g.records_from(upto)?;
        rewrite(&self.path, upto, &kept, |file| {
            *g = FileInner { file, base: upto }
        })
    }
}

/// The fault decorator over a log store: append, sync and prefix
/// truncation tick the plan; reads never fail, so recovery can run over
/// the same store once the plan is disarmed.
impl<S: LogStore> LogStore for Faulty<S> {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.io("log append")?;
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        self.io("log sync")?;
        self.inner.sync()
    }
    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        self.inner.read_from(from)
    }
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn start(&self) -> Result<u64> {
        self.inner.start()
    }
    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        self.io("log truncate_prefix")?;
        self.inner.truncate_prefix(upto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_types::FaultPlan;

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
    fn mem_store_truncation_gives_back_the_cut_prefix() {
        let s = MemLogStore::new();
        let capacity = || s.inner.lock().bytes.capacity();
        let bound = |retained: usize| 2 * retained.max(MEM_LOG_KEEP);
        let mut end = 0;
        for (append, retain) in [
            (16 * MEM_LOG_KEEP, 100),
            (8 * MEM_LOG_KEEP, 3 * MEM_LOG_KEEP),
        ] {
            s.append(&vec![7u8; append]).unwrap();
            s.sync().unwrap();
            end += append as u64;
            assert!(capacity() >= s.total_len());
            s.truncate_prefix(end - retain as u64).unwrap();
            assert_eq!(s.total_len(), retain);
            assert!(
                capacity() <= bound(retain),
                "{} bytes held for {retain}",
                capacity()
            );
            assert_eq!(s.read_from(end - retain as u64).unwrap(), vec![7u8; retain]);
        }
    }

    #[test]
    fn faulty_store_kills_writes_after_budget() {
        let plan = FaultPlan::default();
        let s = Faulty::new(MemLogStore::new(), plan.clone());
        s.append(b"a").unwrap();
        s.sync().unwrap();
        plan.arm(1);
        s.append(b"b").unwrap(); // last allowed op
        assert!(s.sync().is_err());
        assert!(s.append(b"c").is_err());
        assert!(s.truncate_prefix(1).is_err());
        // Reads still work, and disarm restores writes.
        assert_eq!(s.read_from(0).unwrap(), b"a");
        plan.disarm();
        s.sync().unwrap();
        assert_eq!((plan.ops(), plan.faults()), (7, 3));
    }

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("domino-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("data.txn")
    }

    #[test]
    fn file_store_header_roundtrip() {
        let path = temp_log("header");
        let s = FileLogStore::open(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), encode_header(0));
        s.append(b"abc").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read_from(0).unwrap(), b"abc");
        assert_eq!(s.len().unwrap(), 3);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(decode_header(&bytes).unwrap(), (LOG_VERSION, 0));
        assert_eq!(&bytes[LOG_HEADER_LEN..], b"abc");
        assert_eq!(
            decode_header(&encode_header(u64::MAX - 1)).unwrap(),
            (LOG_VERSION, u64::MAX - 1)
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A header naming `version`, with a valid checksum.
    fn header_of_version(version: u32, base: u64) -> Vec<u8> {
        let mut h = encode_header(base);
        h[LH_VERSION..LH_BASE].copy_from_slice(&version.to_le_bytes());
        let sum = fnv1a32(&h[..LH_CHECKSUM]);
        h[LH_CHECKSUM..].copy_from_slice(&sum.to_le_bytes());
        h.to_vec()
    }

    #[test]
    fn file_store_upgrades_a_version_1_header_at_open() {
        let path = temp_log("v1");
        let mut v1 = header_of_version(1, 40);
        v1.extend_from_slice(b"records");
        std::fs::write(&path, &v1).unwrap();
        let s = FileLogStore::open(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[..LOG_HEADER_LEN], encode_header(40));
        assert_eq!(&bytes[LOG_HEADER_LEN..], b"records");
        assert_eq!((s.start().unwrap(), s.len().unwrap()), (40, 47));
        assert_eq!(s.read_from(40).unwrap(), b"records");
        // A version this build does not know is refused, never misread.
        drop(s);
        std::fs::write(&path, header_of_version(LOG_VERSION + 1, 0)).unwrap();
        assert!(matches!(
            FileLogStore::open(&path),
            Err(DominoError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn file_store_truncate_prefix_survives_reopen() {
        let path = temp_log("trunc");
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
        // Truncating to the end leaves a header-only file with a non-zero
        // base: the cleanly closed state. The LSN space survives reopen.
        s2.truncate_prefix(10).unwrap();
        drop(s2);
        assert_eq!(std::fs::read(&path).unwrap(), encode_header(10));
        let s3 = FileLogStore::open(&path).unwrap();
        assert!(s3.is_empty().unwrap());
        assert_eq!(s3.len().unwrap(), 10);
        s3.append(b"ab").unwrap();
        s3.sync().unwrap();
        assert_eq!(s3.read_from(10).unwrap(), b"ab");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
