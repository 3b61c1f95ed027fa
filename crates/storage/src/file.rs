//! The single-file NSF device: one real file, positioned I/O, checksums.
//!
//! [`NsfFile`] is the on-disk [`Disk`]: a fixed superblock at file offset 0
//! (magic, format version, page size, header checksum)
//! followed by the engine's page space, with engine page `i` at file offset
//! `(i + 1) * PAGE_SIZE`. All I/O is `pread`/`pwrite`-style positioned I/O
//! (`FileExt::read_at` / `write_at`), so concurrent readers never contend
//! on a seek cursor. The byte-level layout is specified in `FORMAT.md`; the
//! layout test in this module pins the spec to these constants.
//!
//! Durability contract: `write_page` lands in the OS page cache and is
//! *not* individually fsynced — a crash may lose or reorder recent page
//! writes. [`NsfFile::sync`] is the barrier (`fdatasync`). The engine calls
//! it before truncating the log and at clean shutdown, so any page write a
//! crash can lose is always at-or-above the retained redo point and gets
//! replayed. Torn *intra-page* writes are a different failure: those are
//! detected (not repaired) by a per-page 16-bit checksum stamped into
//! header bytes 14..16 on every file write and verified on every file
//! read. A mismatch reads as [`DominoError::Corrupt`] — in the paper's
//! world you restore such a database from a cluster replica.
//!
//! [`CrashDisk`] models the OS page cache explicitly for crash tests:
//! writes buffer in memory until `sync`, and [`CrashDisk::crash`] applies
//! none, an arbitrary subset (fsync reorder), or a subset plus one torn
//! page, before the test reopens the file underneath.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::disk::Disk;
use crate::page::{PageBuf, PageId, PAGE_CHECKSUM_OFFSET, PAGE_SIZE};
use domino_obs as obs;
use domino_types::{splitmix64, DominoError, Reader, Result};

// ---------------------------------------------------------------------
// superblock layout (see FORMAT.md §2 — the layout test pins these)
// ---------------------------------------------------------------------

/// File magic: high-bit byte + "NSF" + CRLF/EOF/LF transfer guards
/// (the PNG trick — catches 7-bit stripping and newline translation).
pub const NSF_MAGIC: [u8; 8] = *b"\x89NSF\r\n\x1a\n";
/// On-disk format version this build reads and writes.
pub const NSF_VERSION: u16 = 1;

/// Superblock field offsets within file page 0.
pub const SB_MAGIC: usize = 0; // 8 bytes
pub const SB_VERSION: usize = 8; // u16
pub const SB_FLAGS: usize = 10; // u16, reserved (zero)
pub const SB_PAGE_SIZE: usize = 12; // u32
pub const SB_RESERVED: usize = 16; // 40 bytes, written zero, ignored on read
pub const SB_CHECKSUM: usize = 56; // u64 FNV-1a over bytes 0..56
/// Bytes of the superblock that carry meaning (the rest of page 0 is zero).
pub const SB_LEN: usize = 64;

/// FNV-1a 64-bit over a list of byte slices.
fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Per-page checksum: FNV-1a over the page minus its own checksum field,
/// folded to 16 bits. Never returns 0 — 0 is the "never stamped" marker a
/// fresh (all-zero) page carries.
pub fn page_checksum(data: &[u8; PAGE_SIZE]) -> u16 {
    let h = fnv64(&[
        &data[..PAGE_CHECKSUM_OFFSET],
        &data[PAGE_CHECKSUM_OFFSET + 2..],
    ]);
    let folded = (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16;
    if folded == 0 {
        0xFFFF
    } else {
        folded
    }
}

/// The decoded superblock of an NSF file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlock {
    pub version: u16,
    pub flags: u16,
    pub page_size: u32,
}

impl SuperBlock {
    fn fresh() -> SuperBlock {
        SuperBlock {
            version: NSF_VERSION,
            flags: 0,
            page_size: PAGE_SIZE as u32,
        }
    }

    /// Encode into a full file page (trailing bytes zero), checksummed.
    pub fn encode(&self) -> Box<[u8; PAGE_SIZE]> {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page[SB_MAGIC..SB_MAGIC + 8].copy_from_slice(&NSF_MAGIC);
        page[SB_VERSION..SB_VERSION + 2].copy_from_slice(&self.version.to_le_bytes());
        page[SB_FLAGS..SB_FLAGS + 2].copy_from_slice(&self.flags.to_le_bytes());
        page[SB_PAGE_SIZE..SB_PAGE_SIZE + 4].copy_from_slice(&self.page_size.to_le_bytes());
        let sum = fnv64(&[&page[..SB_CHECKSUM]]);
        page[SB_CHECKSUM..SB_CHECKSUM + 8].copy_from_slice(&sum.to_le_bytes());
        page
    }

    /// Decode and validate a superblock page. Rejects bad magic, an
    /// unsupported version, a foreign page size, and checksum mismatches.
    pub fn decode(page: &[u8]) -> Result<SuperBlock> {
        let mut r = Reader::new(page);
        if r.array("superblock magic")? != NSF_MAGIC {
            return Err(DominoError::Corrupt("not an NSF file (bad magic)".into()));
        }
        let version = r.u16("superblock version")?;
        let flags = r.u16("superblock flags")?;
        let page_size = r.u32("superblock page size")?;
        r.bytes(SB_CHECKSUM - SB_RESERVED, "superblock reserved bytes")?;
        let stored = r.u64("superblock checksum")?;
        let computed = fnv64(&[&page[..SB_CHECKSUM]]);
        if stored != computed {
            return Err(DominoError::Corrupt(format!(
                "superblock checksum mismatch (stored {stored:#x}, computed {computed:#x})"
            )));
        }
        if version != NSF_VERSION {
            return Err(DominoError::Corrupt(format!(
                "unsupported NSF format version {version}"
            )));
        }
        if page_size != PAGE_SIZE as u32 {
            return Err(DominoError::Corrupt(format!(
                "NSF page size {page_size} (this build uses {PAGE_SIZE})"
            )));
        }
        Ok(SuperBlock {
            version,
            flags,
            page_size,
        })
    }
}

/// Integrity report from [`NsfFile::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Engine pages present in the file.
    pub pages: u32,
    /// Pages carrying a (verified) checksum stamp.
    pub stamped: u32,
    /// Pages whose stored checksum does not match their contents.
    pub torn: Vec<PageId>,
}

/// The on-disk single-file page device.
pub struct NsfFile {
    file: File,
    path: PathBuf,
    delete_on_drop: AtomicBool,
}

impl NsfFile {
    /// Open (creating and formatting the superblock if empty) an NSF file.
    pub fn open(path: &Path) -> Result<NsfFile> {
        // Intentionally no truncate: opening an existing store keeps it.
        #[allow(clippy::suspicious_open_options)]
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_at(&SuperBlock::fresh().encode()[..], 0)?;
            file.sync_data()?;
        } else {
            let mut page0 = vec![0u8; PAGE_SIZE.min(len as usize)];
            file.read_exact_at(&mut page0, 0)?;
            SuperBlock::decode(&page0)?;
        }
        obs::counter!("Nsf.File.Opens").inc();
        Ok(NsfFile {
            file,
            path: path.to_path_buf(),
            delete_on_drop: AtomicBool::new(false),
        })
    }

    /// Remove the file (and nothing else) when this handle drops —
    /// scratch-database lifecycle for tests and compaction targets.
    pub fn set_delete_on_drop(&self, yes: bool) {
        self.delete_on_drop.store(yes, Ordering::Relaxed);
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-read and validate the superblock straight from the file.
    pub fn superblock(&self) -> Result<SuperBlock> {
        let mut page0 = [0u8; PAGE_SIZE];
        self.file.read_exact_at(&mut page0, 0)?;
        SuperBlock::decode(&page0)
    }

    fn page_offset(id: PageId) -> u64 {
        (id as u64 + 1) * PAGE_SIZE as u64
    }

    /// Offline integrity check: validate the superblock, then recompute
    /// every stamped page checksum. This is the `fixup`-style scan the
    /// paper says transactional recovery exists to avoid — run it when you
    /// suspect the hardware, not on every open.
    pub fn verify(path: &Path) -> Result<VerifyReport> {
        let file = OpenOptions::new().read(true).open(path)?;
        let len = file.metadata()?.len();
        if len < PAGE_SIZE as u64 {
            return Err(DominoError::Corrupt(
                "file shorter than one page (no superblock)".into(),
            ));
        }
        let mut page0 = [0u8; PAGE_SIZE];
        file.read_exact_at(&mut page0, 0)?;
        SuperBlock::decode(&page0)?;
        let pages = (len / PAGE_SIZE as u64).saturating_sub(1) as u32;
        let mut report = VerifyReport {
            pages,
            ..VerifyReport::default()
        };
        let mut data = [0u8; PAGE_SIZE];
        for id in 0..pages {
            data.fill(0);
            let off = Self::page_offset(id);
            let avail = (len - off).min(PAGE_SIZE as u64) as usize;
            file.read_exact_at(&mut data[..avail], off)?;
            let stored = Reader::at(&data, PAGE_CHECKSUM_OFFSET).u16("page checksum")?;
            if stored == 0 {
                continue;
            }
            report.stamped += 1;
            if page_checksum(&data) != stored {
                report.stamped -= 1;
                report.torn.push(id);
            }
        }
        Ok(report)
    }
}

impl Disk for NsfFile {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        obs::counter!("Nsf.File.Reads").inc();
        let off = Self::page_offset(id);
        let len = self.file.metadata()?.len();
        if off >= len {
            buf.data.fill(0);
        } else if off + PAGE_SIZE as u64 > len {
            // Torn file extension: a crash mid-append left a partial
            // trailing page. Read what exists, zero the rest; the checksum
            // below decides whether the stamped prefix is coherent.
            let avail = (len - off) as usize;
            buf.data.fill(0);
            self.file.read_exact_at(&mut buf.data[..avail], off)?;
        } else {
            self.file.read_exact_at(&mut buf.data[..], off)?;
        }
        buf.id = id;
        let stored = buf.get_u16(PAGE_CHECKSUM_OFFSET);
        if stored != 0 && page_checksum(&buf.data) != stored {
            obs::counter!("Nsf.File.TornDetected").inc();
            return Err(DominoError::Corrupt(format!(
                "torn page {id}: checksum mismatch (restore from a replica)"
            )));
        }
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        obs::counter!("Nsf.File.Writes").inc();
        // Stamp the checksum into a copy (the field is excluded from the
        // hash, so the stamp never perturbs its own cover).
        let mut data = buf.data.clone();
        let sum = page_checksum(&data);
        data[PAGE_CHECKSUM_OFFSET..PAGE_CHECKSUM_OFFSET + 2].copy_from_slice(&sum.to_le_bytes());
        self.file.write_at(&data[..], Self::page_offset(id))?;
        Ok(())
    }

    fn write_page_raw(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        obs::counter!("Nsf.File.Writes").inc();
        self.file.write_at(&buf.data[..], Self::page_offset(id))?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        obs::counter!("Nsf.File.Syncs").inc();
        self.file.sync_data()?;
        Ok(())
    }

    fn page_count(&self) -> Result<u32> {
        let len = self.file.metadata()?.len();
        Ok(len.div_ceil(PAGE_SIZE as u64).saturating_sub(1) as u32)
    }
}

impl Drop for NsfFile {
    fn drop(&mut self) {
        if self.delete_on_drop.load(Ordering::Relaxed) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

// ---------------------------------------------------------------------
// CrashDisk: an explicit OS-page-cache model for crash testing
// ---------------------------------------------------------------------

/// How a [`CrashDisk`] crash treats the unsynced write buffer.
#[derive(Debug, Clone, Copy)]
pub enum CrashMode {
    /// Every unsynced page write is lost (power cut with an honest disk).
    DropUnsynced,
    /// A seeded arbitrary subset of unsynced writes reached the platter
    /// before the cut — the observable effect of fsync reordering.
    Reorder { seed: u64 },
    /// Like [`CrashMode::Reorder`], plus one surviving write is torn at a
    /// seeded byte cut: new bytes up to the cut, old bytes after. The
    /// page checksum must catch this on the next read.
    Torn { seed: u64 },
}

/// Buffers every `write_page` in memory until [`Disk::sync`], like the OS
/// page cache under a real file. [`CrashDisk::crash`] then applies none,
/// some, or a torn subset of the buffered writes to the inner device —
/// after which the test reopens the underlying store and asserts recovery.
pub struct CrashDisk<D: Disk> {
    inner: D,
    pending: Mutex<BTreeMap<PageId, Box<[u8; PAGE_SIZE]>>>,
}

impl<D: Disk> CrashDisk<D> {
    pub fn new(inner: D) -> CrashDisk<D> {
        CrashDisk {
            inner,
            pending: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unsynced page writes currently buffered.
    pub fn pending_writes(&self) -> usize {
        self.pending.lock().len()
    }

    /// Crash: resolve the unsynced buffer per `mode` and discard it. The
    /// inner device is left as a post-crash platter image.
    pub fn crash(&self, mode: CrashMode) -> Result<()> {
        let mut pending = self.pending.lock();
        match mode {
            CrashMode::DropUnsynced => {}
            CrashMode::Reorder { seed } | CrashMode::Torn { seed } => {
                let mut rng = seed;
                let mut skipped: Vec<(PageId, Box<[u8; PAGE_SIZE]>)> = Vec::new();
                for (id, data) in pending.iter() {
                    if splitmix64(&mut rng) & 1 == 1 {
                        self.inner.write_page(
                            *id,
                            &PageBuf {
                                id: *id,
                                data: data.clone(),
                            },
                        )?;
                    } else {
                        skipped.push((*id, data.clone()));
                    }
                }
                if let (CrashMode::Torn { .. }, Some((id, new))) = (mode, skipped.first()) {
                    // Splice: the write made it part-way into the page. The
                    // on-platter form of the write is the *stamped* image,
                    // so write it fully, read that form back, and put the
                    // old bytes back after a seeded cut.
                    let mut old = PageBuf::zeroed(*id);
                    if self.inner.read_page(*id, &mut old).is_err() {
                        old = PageBuf::zeroed(*id); // already torn: treat as zeroes
                    }
                    self.inner.write_page(
                        *id,
                        &PageBuf {
                            id: *id,
                            data: new.clone(),
                        },
                    )?;
                    let mut torn = PageBuf::zeroed(*id);
                    self.inner.read_page(*id, &mut torn)?;
                    let cut = (splitmix64(&mut rng) as usize % (PAGE_SIZE - 1)) + 1;
                    torn.data[cut..].copy_from_slice(&old.data[cut..]);
                    self.inner.write_page_raw(*id, &torn)?;
                }
            }
        }
        pending.clear();
        Ok(())
    }
}

impl<D: Disk> Disk for CrashDisk<D> {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        if let Some(data) = self.pending.lock().get(&id) {
            buf.data.copy_from_slice(&data[..]);
            buf.id = id;
            return Ok(());
        }
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        self.pending.lock().insert(id, buf.data.clone());
        Ok(())
    }

    fn write_page_raw(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        self.inner.write_page_raw(id, buf)
    }

    fn sync(&self) -> Result<()> {
        let mut pending = self.pending.lock();
        for (id, data) in pending.iter() {
            self.inner.write_page(
                *id,
                &PageBuf {
                    id: *id,
                    data: data.clone(),
                },
            )?;
        }
        pending.clear();
        self.inner.sync()
    }

    fn page_count(&self) -> Result<u32> {
        let buffered = self
            .pending
            .lock()
            .keys()
            .next_back()
            .map(|id| id + 1)
            .unwrap_or(0);
        Ok(self.inner.page_count()?.max(buffered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("domino-nsf-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.nsf")
    }

    #[test]
    fn superblock_roundtrip_and_validation() {
        let sb = SuperBlock {
            version: NSF_VERSION,
            flags: 0,
            page_size: PAGE_SIZE as u32,
        };
        let page = sb.encode();
        assert_eq!(SuperBlock::decode(&page[..]).unwrap(), sb);

        // Any single-byte flip in the meaningful region must be rejected.
        for off in [
            0usize,
            5,
            SB_VERSION,
            SB_PAGE_SIZE,
            SB_RESERVED,
            SB_CHECKSUM,
        ] {
            let mut bad = page.clone();
            bad[off] ^= 0x40;
            assert!(SuperBlock::decode(&bad[..]).is_err(), "flip at {off}");
        }
    }

    #[test]
    fn nsf_file_reopen_reads_back_identical_bytes() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut w = PageBuf::zeroed(3);
        w.put_bytes(100, b"page three");
        {
            let disk = NsfFile::open(&path).unwrap();
            disk.write_page(3, &w).unwrap();
            disk.sync().unwrap();
        }
        let disk = NsfFile::open(&path).unwrap();
        let mut r = PageBuf::zeroed(0);
        disk.read_page(3, &mut r).unwrap();
        assert_eq!(r.bytes(100, 10), b"page three");
        // Byte-identical outside the checksum field the device stamps.
        assert_eq!(
            r.bytes(
                PAGE_CHECKSUM_OFFSET + 2,
                PAGE_SIZE - PAGE_CHECKSUM_OFFSET - 2
            ),
            w.bytes(
                PAGE_CHECKSUM_OFFSET + 2,
                PAGE_SIZE - PAGE_CHECKSUM_OFFSET - 2
            )
        );
        assert_eq!(disk.page_count().unwrap(), 4);
        // Never-written pages still read as zeroes.
        disk.read_page(100, &mut r).unwrap();
        assert!(r.data.iter().all(|b| *b == 0));
        disk.set_delete_on_drop(true);
        drop(disk);
        assert!(!path.exists(), "delete_on_drop removed the file");
    }

    #[test]
    fn torn_page_detected_on_read() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let disk = NsfFile::open(&path).unwrap();
        disk.set_delete_on_drop(true);
        let mut w = PageBuf::zeroed(2);
        w.put_bytes(0, &3u64.to_le_bytes()); // fake LSN so the page is non-zero
        w.put_bytes(500, b"whole");
        disk.write_page(2, &w).unwrap();

        // Tear it: splice half of a different image over the stamped page.
        let mut stamped = PageBuf::zeroed(2);
        disk.read_page(2, &mut stamped).unwrap();
        let mut torn = stamped.clone();
        torn.put_bytes(500, b"TORNX");
        torn.put_bytes(0, &9u64.to_le_bytes());
        disk.write_page_raw(2, &torn).unwrap();

        let mut r = PageBuf::zeroed(0);
        let err = disk.read_page(2, &mut r).unwrap_err();
        assert!(matches!(err, DominoError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn reserved_superblock_bytes_are_ignored_on_read() {
        // Files written before the log carried its own base kept a
        // recovery LSN at bytes 16..24; they open unchanged.
        let path = temp_path("reserved");
        let _ = std::fs::remove_file(&path);
        drop(NsfFile::open(&path).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(bytes[SB_RESERVED..SB_CHECKSUM].iter().all(|b| *b == 0));
        bytes[SB_RESERVED..SB_RESERVED + 8].copy_from_slice(&777u64.to_le_bytes());
        let sum = fnv64(&[&bytes[..SB_CHECKSUM]]);
        bytes[SB_CHECKSUM..SB_CHECKSUM + 8].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let disk = NsfFile::open(&path).unwrap();
        assert_eq!(disk.superblock().unwrap(), SuperBlock::fresh());
        disk.set_delete_on_drop(true);
    }

    #[test]
    fn open_rejects_corrupted_header() {
        let path = temp_path("badheader");
        let _ = std::fs::remove_file(&path);
        drop(NsfFile::open(&path).unwrap());
        // Flip one superblock byte on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[SB_PAGE_SIZE] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(NsfFile::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_reports_torn_pages() {
        let path = temp_path("verify");
        let _ = std::fs::remove_file(&path);
        let disk = NsfFile::open(&path).unwrap();
        let mut w = PageBuf::zeroed(0);
        w.put_bytes(32, b"ok");
        for id in 0..4 {
            w.id = id;
            disk.write_page(id, &w).unwrap();
        }
        // Corrupt page 2 behind the checksum's back.
        let mut good = PageBuf::zeroed(2);
        disk.read_page(2, &mut good).unwrap();
        let mut bad = good.clone();
        bad.put_bytes(2000, b"scribble");
        disk.write_page_raw(2, &bad).unwrap();
        disk.sync().unwrap();
        drop(disk);

        let report = NsfFile::verify(&path).unwrap();
        assert_eq!(report.pages, 4);
        assert_eq!(report.stamped, 3);
        assert_eq!(report.torn, vec![2]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_disk_drops_or_applies_unsynced_writes() {
        let inner = crate::disk::MemDisk::new();
        let cache = CrashDisk::new(inner.clone());
        let mut w = PageBuf::zeroed(1);
        w.put_bytes(64, b"buffered");
        cache.write_page(1, &w).unwrap();
        assert_eq!(cache.pending_writes(), 1);

        // Visible through the cache, absent from the platter.
        let mut r = PageBuf::zeroed(0);
        cache.read_page(1, &mut r).unwrap();
        assert_eq!(r.bytes(64, 8), b"buffered");
        inner.read_page(1, &mut r).unwrap();
        assert_eq!(r.bytes(64, 8), &[0u8; 8]);

        cache.crash(CrashMode::DropUnsynced).unwrap();
        assert_eq!(cache.pending_writes(), 0);
        inner.read_page(1, &mut r).unwrap();
        assert_eq!(r.bytes(64, 8), &[0u8; 8]);

        // Synced writes do reach the platter.
        cache.write_page(1, &w).unwrap();
        cache.sync().unwrap();
        inner.read_page(1, &mut r).unwrap();
        assert_eq!(r.bytes(64, 8), b"buffered");
    }

    /// Pins FORMAT.md to the code: every offset, size, and tag the spec
    /// names is asserted here, so a layout change that forgets the spec
    /// (or a spec edit that forgets the code) fails the build's tests.
    #[test]
    fn format_spec_layout_matches_constants() {
        use crate::engine;
        use crate::page::{PageType, PAGE_HEADER};
        use domino_wal::store::{
            LH_BASE, LH_CHECKSUM, LH_MAGIC, LH_VERSION, LOG_HEADER_LEN, LOG_MAGIC, LOG_VERSION,
        };
        use domino_wal::{LogRecord, Lsn, TxId};

        // FORMAT.md §2 — superblock.
        assert_eq!(NSF_MAGIC, [0x89, b'N', b'S', b'F', 0x0D, 0x0A, 0x1A, 0x0A]);
        assert_eq!(NSF_VERSION, 1);
        assert_eq!(
            (SB_MAGIC, SB_VERSION, SB_FLAGS, SB_PAGE_SIZE),
            (0, 8, 10, 12)
        );
        assert_eq!((SB_RESERVED, SB_CHECKSUM), (16, 56));
        assert_eq!(SB_LEN, 64);

        // §1/§3 — geometry and the common page header.
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(PAGE_HEADER, 16);
        assert_eq!(PAGE_CHECKSUM_OFFSET, 14);
        for (t, code) in [
            (PageType::Free, 0u8),
            (PageType::Header, 1),
            (PageType::BTreeInternal, 2),
            (PageType::BTreeLeaf, 3),
            (PageType::Heap, 4),
            (PageType::FreeMap, 5),
        ] {
            assert_eq!(t.code(), code);
        }

        // §4 — the engine catalog page.
        assert_eq!(engine::MAGIC, 0x444E_5346);
        assert_eq!(engine::MAGIC.to_le_bytes(), *b"FSND");
        assert_eq!(engine::VERSION, 1);
        assert_eq!(
            (
                engine::OFF_MAGIC,
                engine::OFF_VERSION,
                engine::OFF_NEXT_PAGE
            ),
            (16, 20, 22)
        );
        assert_eq!((engine::OFF_FREE_MAP, engine::OFF_FREE_COUNT), (26, 30));
        assert_eq!((engine::OFF_USER_SLOTS, engine::OFF_TREE_ROOTS), (34, 98));
        assert_eq!(engine::USER_SLOTS, 8);
        assert_eq!(engine::TREE_ROOT_SLOTS, 8);

        // §5 — one free-map page covers 32640 pages.
        assert_eq!(engine::BITS_PER_MAP, 32640);

        // §6.1 — largest single-chunk payload.
        assert_eq!(crate::heap::MAX_CHUNK, 4065);

        // §9 — the `data.txn` header, then record framing:
        // [len:u32][checksum:u32][tag:u8][payload].
        assert_eq!(LOG_MAGIC, *b"DTXN");
        assert_eq!(LOG_VERSION, 2);
        assert_eq!((LH_MAGIC, LH_VERSION, LH_BASE, LH_CHECKSUM), (0, 4, 8, 16));
        assert_eq!(LOG_HEADER_LEN, 20);
        let bytes = LogRecord::Commit { tx: TxId(7) }.encode();
        assert_eq!(bytes.len(), 8 + 1 + 8);
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        assert_eq!(len as usize, bytes.len() - 8, "len covers tag+payload");
        assert_eq!(bytes[8], 4, "Commit tag");
        assert_eq!(u64::from_le_bytes(bytes[9..17].try_into().unwrap()), 7);
        let update = |before: Vec<u8>| LogRecord::Update {
            tx: TxId(1),
            prev: Lsn(9),
            page: 2,
            offset: 3,
            before,
            after: vec![5; 4],
        };
        for (rec, tag) in [
            (LogRecord::Begin { tx: TxId(1) }, 1u8),
            (update(vec![1; 4]), 2),
            (LogRecord::Commit { tx: TxId(1) }, 4),
            (LogRecord::Abort { tx: TxId(1) }, 5),
            (update(vec![0; 4]), 7),
        ] {
            assert_eq!(rec.encode()[8], tag);
        }
        // Tag 7: tx, prev_lsn, page, offset, before_len, after_len, after[].
        let bytes = update(vec![0; 4]).encode();
        assert_eq!(bytes.len(), 8 + 1 + 8 + 8 + 4 + 2 + 4 + 4 + 4);
        assert_eq!(u32::from_le_bytes(bytes[31..35].try_into().unwrap()), 4);
        assert_eq!(u32::from_le_bytes(bytes[35..39].try_into().unwrap()), 4);
        assert_eq!(&bytes[39..], &[5; 4]);
    }

    #[test]
    fn crash_disk_torn_mode_produces_detectable_tear() {
        let path = temp_path("crash-torn");
        let _ = std::fs::remove_file(&path);
        let file = NsfFile::open(&path).unwrap();
        file.set_delete_on_drop(true);
        let cache = CrashDisk::new(file);
        let mut old = PageBuf::zeroed(5);
        old.put_bytes(300, &[0xAA; 1000]);
        let mut new = PageBuf::zeroed(5);
        new.put_bytes(300, &[0x55; 1000]);
        new.put_bytes(2000, &[0x77; 1000]);
        let mut torn_somewhere = false;
        for seed in 0..32u64 {
            // Re-establish the synced base image each round (a crash may
            // have let the new image through fully, which would make any
            // later tear invisible — old and new would be identical).
            cache.write_page(5, &old).unwrap();
            cache.sync().unwrap();
            cache.write_page(5, &new).unwrap();
            cache.crash(CrashMode::Torn { seed }).unwrap();
            let mut r = PageBuf::zeroed(0);
            if cache.inner().read_page(5, &mut r).is_err() {
                torn_somewhere = true;
                break;
            }
        }
        assert!(
            torn_somewhere,
            "32 seeds never produced a checksum-detectable tear"
        );
    }
}
