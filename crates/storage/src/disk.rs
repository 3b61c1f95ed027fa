//! The page device.
//!
//! A [`Disk`] write makes a page *visible* to subsequent reads; it becomes
//! *durable* only at the next [`Disk::sync`] barrier (real files buffer
//! writes in the OS page cache). The buffer pool above decides *when* to
//! write; the WAL protocol decides *what must be logged first*; the engine
//! places the sync barriers (before log truncation, at clean shutdown) so
//! that any page write lost to a crash is always above the retained redo
//! point.
//!
//! [`MemDisk`] is shareable so a crashed engine can be reopened over the
//! same "disk" contents; the real single-file device is
//! [`crate::file::NsfFile`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use domino_types::{Faulty, Result};

/// An array of pages with an explicit durability barrier.
pub trait Disk: Send {
    /// Read page `id` into `buf`. Reading past the end yields zeroes (the
    /// page has never been written).
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<()>;

    /// Write page `id`. Visible to reads immediately; durable after the
    /// next [`Disk::sync`].
    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<()>;

    /// Write page `id` bypassing any integrity stamping the device does
    /// (checksums). Fault-injection escape hatch: this is how a test
    /// plants a torn page that the device's own reads must then detect.
    fn write_page_raw(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        self.write_page(id, buf)
    }

    /// Durability barrier: all writes accepted so far survive a crash once
    /// this returns. In-memory devices are a no-op.
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Number of pages ever written + 1 (i.e. one past the highest id).
    fn page_count(&self) -> Result<u32>;

    /// Bytes of backing storage in use (experiment accounting).
    fn size_bytes(&self) -> Result<u64> {
        Ok(self.page_count()? as u64 * PAGE_SIZE as u64)
    }
}

/// Every method takes `&self`, so a shared handle is itself a disk — this
/// is how a crash test keeps a `CrashDisk` reachable after handing the
/// engine its boxed copy.
impl<D: Disk + Sync + ?Sized> Disk for Arc<D> {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        (**self).read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        (**self).write_page(id, buf)
    }

    fn write_page_raw(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        (**self).write_page_raw(id, buf)
    }

    fn sync(&self) -> Result<()> {
        (**self).sync()
    }

    fn page_count(&self) -> Result<u32> {
        (**self).page_count()
    }

    fn size_bytes(&self) -> Result<u64> {
        (**self).size_bytes()
    }
}

/// In-memory disk, shareable across engine generations for crash tests.
#[derive(Clone, Default)]
pub struct MemDisk {
    pages: Arc<Mutex<Vec<Box<[u8; PAGE_SIZE]>>>>,
}

impl MemDisk {
    pub fn new() -> MemDisk {
        MemDisk::default()
    }
}

impl Disk for MemDisk {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        let pages = self.pages.lock();
        match pages.get(id as usize) {
            Some(data) => buf.data.copy_from_slice(&data[..]),
            None => buf.data.fill(0),
        }
        buf.id = id;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        let mut pages = self.pages.lock();
        let idx = id as usize;
        while pages.len() <= idx {
            pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        pages[idx].copy_from_slice(&buf.data[..]);
        Ok(())
    }

    fn page_count(&self) -> Result<u32> {
        Ok(self.pages.lock().len() as u32)
    }
}

/// The fault decorator over a page device: page writes and syncs tick
/// the plan; reads never fail. One plan shared with the log's decorator
/// kills the whole I/O stack at one global operation index.
impl<D: Disk> Disk for Faulty<D> {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        self.io("disk write_page")?;
        self.inner.write_page(id, buf)
    }

    fn write_page_raw(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        self.io("disk write_page_raw")?;
        self.inner.write_page_raw(id, buf)
    }

    fn sync(&self) -> Result<()> {
        self.io("disk sync")?;
        self.inner.sync()
    }

    fn page_count(&self) -> Result<u32> {
        self.inner.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        let mut w = PageBuf::zeroed(3);
        w.put_bytes(100, b"page three");
        disk.write_page(3, &w).unwrap();

        let mut r = PageBuf::zeroed(0);
        disk.read_page(3, &mut r).unwrap();
        assert_eq!(r.bytes(100, 10), b"page three");
        assert_eq!(r.id, 3);

        // Never-written pages read as zeroes.
        disk.read_page(100, &mut r).unwrap();
        assert!(r.data.iter().all(|b| *b == 0));

        assert_eq!(disk.page_count().unwrap(), 4);
        assert_eq!(disk.size_bytes().unwrap(), 4 * PAGE_SIZE as u64);
        disk.sync().unwrap();
    }

    #[test]
    fn mem_disk_basics() {
        exercise(&MemDisk::new());
    }

    #[test]
    fn mem_disk_shared_across_clones() {
        let a = MemDisk::new();
        let b = a.clone();
        let mut w = PageBuf::zeroed(0);
        w.put_bytes(0, b"x");
        a.write_page(0, &w).unwrap();
        let mut r = PageBuf::zeroed(0);
        b.read_page(0, &mut r).unwrap();
        assert_eq!(r.bytes(0, 1), b"x");
    }
}
