//! Pages: the unit of I/O, buffering, and logging.
//!
//! Every page begins with a 16-byte header:
//!
//! ```text
//! offset 0..8   page LSN (last log record applied to this page)
//! offset 8      page type tag
//! offset 9      flags (unused, reserved)
//! offset 10..14 link (free-map pages: next map page; B-tree leaves: right
//!               sibling)
//! offset 14..16 on-disk page checksum (stamped by `NsfFile` at write time;
//!               0 = never stamped, i.e. a page that has not been through a
//!               file write — in-memory disks leave it 0)
//! ```
//!
//! The rest of the page belongs to the structure named by the type tag.

use domino_wal::Lsn;

/// Page size in bytes. 4 KiB matches common OS page granularity.
pub const PAGE_SIZE: usize = 4096;

/// Size of the common page header.
pub const PAGE_HEADER: usize = 16;

/// Offset of the 2-byte on-disk page checksum within the header.
pub const PAGE_CHECKSUM_OFFSET: usize = 14;

/// Page number within a store file.
pub type PageId = u32;

/// What lives on a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// Unallocated / zeroed.
    Free,
    /// Page 0: store metadata (magic, counters, tree roots).
    Header,
    /// B-tree internal node.
    BTreeInternal,
    /// B-tree leaf node.
    BTreeLeaf,
    /// Slotted record page.
    Heap,
    /// Free-page bitmap page (one bit per page, chained via the link
    /// field).
    FreeMap,
}

impl PageType {
    pub fn code(self) -> u8 {
        match self {
            PageType::Free => 0,
            PageType::Header => 1,
            PageType::BTreeInternal => 2,
            PageType::BTreeLeaf => 3,
            PageType::Heap => 4,
            PageType::FreeMap => 5,
        }
    }

    pub fn from_code(c: u8) -> PageType {
        match c {
            1 => PageType::Header,
            2 => PageType::BTreeInternal,
            3 => PageType::BTreeLeaf,
            4 => PageType::Heap,
            5 => PageType::FreeMap,
            _ => PageType::Free,
        }
    }
}

/// An owned in-memory copy of one page. Structures read a page into a
/// `PageBuf`, compute, and write byte ranges back through the engine (which
/// logs them); the buffer pool itself holds the authoritative frames.
#[derive(Clone)]
pub struct PageBuf {
    pub id: PageId,
    pub data: Box<[u8; PAGE_SIZE]>,
}

impl PageBuf {
    pub fn zeroed(id: PageId) -> PageBuf {
        PageBuf {
            id,
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    pub fn lsn(&self) -> Lsn {
        Lsn(u64::from_le_bytes(self.data[0..8].try_into().expect("8")))
    }

    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.data[0..8].copy_from_slice(&lsn.0.to_le_bytes());
    }

    pub fn page_type(&self) -> PageType {
        PageType::from_code(self.data[8])
    }

    pub fn set_page_type(&mut self, t: PageType) {
        self.data[8] = t.code();
    }

    /// The header's link field (next free-map page / right sibling).
    pub fn link(&self) -> PageId {
        u32::from_le_bytes(self.data[10..14].try_into().expect("4"))
    }

    pub fn set_link(&mut self, link: PageId) {
        self.data[10..14].copy_from_slice(&link.to_le_bytes());
    }

    // -- typed little-endian accessors used by all page structures --------

    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.data[off..off + 2].try_into().expect("2"))
    }

    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().expect("4"))
    }

    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.data[off..off + 8].try_into().expect("8"))
    }

    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    pub fn get_u128(&self, off: usize) -> u128 {
        u128::from_le_bytes(self.data[off..off + 16].try_into().expect("16"))
    }

    pub fn put_u128(&mut self, off: usize, v: u128) {
        self.data[off..off + 16].copy_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    pub fn put_bytes(&mut self, off: usize, bytes: &[u8]) {
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageBuf")
            .field("id", &self.id)
            .field("lsn", &self.lsn())
            .field("type", &self.page_type())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_roundtrip() {
        let mut p = PageBuf::zeroed(7);
        assert_eq!(p.lsn(), Lsn::NIL);
        assert_eq!(p.page_type(), PageType::Free);
        p.set_lsn(Lsn(42));
        p.set_page_type(PageType::Heap);
        p.set_link(99);
        assert_eq!(p.lsn(), Lsn(42));
        assert_eq!(p.page_type(), PageType::Heap);
        assert_eq!(p.link(), 99);
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mut p = PageBuf::zeroed(0);
        p.put_u16(100, 0xBEEF);
        p.put_u32(102, 0xDEAD_BEEF);
        p.put_u64(106, u64::MAX - 3);
        p.put_u128(114, u128::MAX - 9);
        p.put_bytes(200, b"hello");
        assert_eq!(p.get_u16(100), 0xBEEF);
        assert_eq!(p.get_u32(102), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(106), u64::MAX - 3);
        assert_eq!(p.get_u128(114), u128::MAX - 9);
        assert_eq!(p.bytes(200, 5), b"hello");
    }

    #[test]
    fn page_type_codes_roundtrip() {
        for t in [
            PageType::Free,
            PageType::Header,
            PageType::BTreeInternal,
            PageType::BTreeLeaf,
            PageType::Heap,
            PageType::FreeMap,
        ] {
            assert_eq!(PageType::from_code(t.code()), t);
        }
    }
}
