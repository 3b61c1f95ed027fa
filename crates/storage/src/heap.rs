//! Slotted record pages with overflow chaining.
//!
//! Variable-length note records (summary buckets and non-summary bodies)
//! live in heap pages. A record larger than one page is chained across
//! chunks.
//!
//! Page layout after the 16-byte header (the header's flag byte and link
//! field are unused on heap pages):
//!
//! ```text
//! @16 slot_count:u16
//! @18 free_ptr:u16        start of the record data region (grows down)
//! @20 slots: slot_count × (offset:u16, len:u16)   (grows up)
//! ```
//!
//! A slot with `offset == 0` is a tombstone and may be reused. A page's
//! *room* is the contiguous gap between the slot array and the data
//! region. A delete gives bytes back to it by trimming only: trailing
//! tombstones leave the slot array, dead bytes at the bottom of the data
//! region leave the region, and a hole between two live records stays a
//! hole. The page's *free* bytes are its room plus its holes.
//!
//! **The page is the truth, the index is a hint, whole pages live in the
//! bitmap.** A page whose last live record is deleted goes back to the
//! engine's logged free-page bitmap ([`Engine::free_page`]). Space inside a
//! page is remembered only by `FreeSpace`, a volatile index every insert,
//! delete and read refreshes for the page it has in hand; an abort restores
//! pages, not hints, so an insert re-checks the page itself before placing
//! and corrects or drops a hint that lied. The order an insert looks for
//! space in is on `Heap::insert_raw`; the format's view is FORMAT.md §6.2.

use std::collections::{BTreeSet, HashMap};

use crate::engine::{Engine, Tx};
use crate::page::{PageBuf, PageId, PageType, PAGE_HEADER, PAGE_SIZE};
use domino_types::{DominoError, Result};

const OFF_SLOT_COUNT: usize = PAGE_HEADER; // u16
const OFF_FREE_PTR: usize = PAGE_HEADER + 2; // u16, adjacent: written together
const SLOTS_START: usize = PAGE_HEADER + 4;
const SLOT_SIZE: usize = 4;

/// Per-chunk header: flags(1) + next_page(4) + next_slot(2).
const CHUNK_HEADER: usize = 7;
const CHUNK_HAS_NEXT: u8 = 1;

/// Largest payload stored in one chunk.
pub const MAX_CHUNK: usize = PAGE_SIZE - SLOTS_START - SLOT_SIZE - CHUNK_HEADER;

/// Room the smallest possible chunk (an empty payload in a new slot)
/// needs; a page with less can take no insert and is not worth a hint.
const MIN_NEED: usize = CHUNK_HEADER + SLOT_SIZE;

/// Location of a record (its first chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordPtr {
    pub page: PageId,
    pub slot: u16,
}

impl RecordPtr {
    /// Pack into a u64 for storage as a B-tree value.
    pub fn to_u64(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    pub fn from_u64(v: u64) -> RecordPtr {
        RecordPtr {
            page: (v >> 16) as u32,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// Volatile free-space hints: what each heap page offered when it was last
/// in hand. One private field of [`Engine`], so it shares the engine mutex
/// and dies with the engine.
#[derive(Debug, Default)]
pub(crate) struct FreeSpace {
    /// `(room, page)`: pages that can take an insert as they are, ordered
    /// so an insert gets the tightest fit.
    by_room: BTreeSet<(u16, PageId)>,
    /// `(free, page)`: fragmented pages — `free` counts the dead holes a
    /// compaction would add to the room.
    by_free: BTreeSet<(u16, PageId)>,
    /// page → `(room, free)` as entered above.
    seen: HashMap<PageId, (u16, u16)>,
}

impl FreeSpace {
    fn set(&mut self, page: PageId, room: usize, free: usize) {
        let entry = (room as u16, free as u16); // both < PAGE_SIZE
        if self.seen.get(&page) == Some(&entry) {
            return;
        }
        self.forget(page);
        if free < MIN_NEED {
            return;
        }
        if room >= MIN_NEED {
            self.by_room.insert((entry.0, page));
        }
        if free > room {
            self.by_free.insert((entry.1, page));
        }
        self.seen.insert(page, entry);
    }

    fn forget(&mut self, page: PageId) {
        if let Some((room, free)) = self.seen.remove(&page) {
            self.by_room.remove(&(room, page));
            self.by_free.remove(&(free, page));
        }
    }

    /// The page whose room covers `need` most tightly; failing that, and
    /// if the caller is willing to `compact`, the fragmented page whose
    /// free bytes do.
    fn best_fit(&self, need: usize, compact: bool) -> Option<PageId> {
        let need = u16::try_from(need).ok()?;
        let first = |set: &BTreeSet<(u16, PageId)>| set.range((need, 0)..).next().map(|e| e.1);
        first(&self.by_room).or_else(|| first(&self.by_free).filter(|_| compact))
    }
}

/// The space accounting of one heap page.
#[derive(Debug)]
struct Layout {
    slot_count: usize,
    free_ptr: usize,
    /// Bytes not held by the slot array or a live record: the room plus
    /// the dead holes in the data region.
    free: usize,
    /// A tombstoned slot to reuse, if any.
    tombstone: Option<usize>,
}

impl Layout {
    /// A page with no live record — also one fresh from
    /// [`Engine::alloc_page`]: whatever bytes it holds, no slot is
    /// counted, so none is ever interpreted.
    const EMPTY: Layout = Layout {
        slot_count: 0,
        free_ptr: PAGE_SIZE,
        free: PAGE_SIZE - SLOTS_START,
        tombstone: None,
    };

    /// `None` unless `page` is a heap page.
    fn of(page: &PageBuf) -> Option<Layout> {
        if page.page_type() != PageType::Heap {
            return None;
        }
        let slot_count = page.get_u16(OFF_SLOT_COUNT) as usize;
        let held: usize = live_slots(page).map(|(_, _, len)| len).sum();
        Some(Layout {
            slot_count,
            free_ptr: page.get_u16(OFF_FREE_PTR) as usize,
            free: (PAGE_SIZE - SLOTS_START).saturating_sub(slot_count * SLOT_SIZE + held),
            tombstone: (0..slot_count).find(|i| page.get_u16(SLOTS_START + i * SLOT_SIZE) == 0),
        })
    }

    /// Contiguous bytes between the slot array and the data region.
    fn room(&self) -> usize {
        self.free_ptr
            .saturating_sub(SLOTS_START + self.slot_count * SLOT_SIZE)
    }
}

/// The record heap. Stateless: records live in pages, free whole pages in
/// the engine's bitmap, and the room hints in the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heap;

impl Heap {
    /// Store `data`, returning its pointer.
    pub fn insert(&self, engine: &mut Engine, tx: &mut Tx, data: &[u8]) -> Result<RecordPtr> {
        // Write chunks back-to-front so each knows its successor.
        let mut chunks: Vec<&[u8]> = data.chunks(MAX_CHUNK).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let mut next: Option<RecordPtr> = None;
        for chunk in chunks.iter().rev() {
            let mut bytes = Vec::with_capacity(CHUNK_HEADER + chunk.len());
            match next {
                Some(ptr) => {
                    bytes.push(CHUNK_HAS_NEXT);
                    bytes.extend_from_slice(&ptr.page.to_le_bytes());
                    bytes.extend_from_slice(&ptr.slot.to_le_bytes());
                }
                None => {
                    bytes.push(0);
                    bytes.extend_from_slice(&[0u8; 6]);
                }
            }
            bytes.extend_from_slice(chunk);
            next = Some(self.insert_raw(engine, tx, &bytes)?);
        }
        Ok(next.expect("at least one chunk"))
    }

    /// Read a whole record. Chunks are copied straight out of the buffer
    /// pool (`Engine::with_page`), never cloning whole pages. Every page
    /// the read passes through refreshes its free-space hint, which is how
    /// a reopened store learns where its room is without a scan.
    pub fn read(&self, engine: &mut Engine, ptr: RecordPtr) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur = Some(ptr);
        while let Some(ptr) = cur {
            let (next, layout) = engine.with_page(ptr.page, |page| {
                let (layout, off, len) = slot(page, ptr.slot)?;
                let raw = page.bytes(off, len);
                out.extend_from_slice(&raw[CHUNK_HEADER..]);
                Ok::<_, DominoError>((chunk_next(raw), layout))
            })??;
            hint(engine, ptr.page, &layout);
            cur = next;
        }
        Ok(out)
    }

    /// The pages a record's chunks live on, first chunk first (experiment
    /// accounting for summary-vs-full reads).
    pub fn pages_of(&self, engine: &mut Engine, ptr: RecordPtr) -> Result<Vec<PageId>> {
        let mut pages = Vec::new();
        let mut cur = Some(ptr);
        while let Some(ptr) = cur {
            pages.push(ptr.page);
            cur = engine.with_page(ptr.page, |page| {
                let (_, off, len) = slot(page, ptr.slot)?;
                Ok::<_, DominoError>(chunk_next(page.bytes(off, len)))
            })??;
        }
        Ok(pages)
    }

    /// The free-space hints as `(page, room, free)`. For tests: a hint may
    /// be stale, the page is the truth.
    #[doc(hidden)]
    pub fn hints(&self, engine: &mut Engine) -> Vec<(PageId, usize, usize)> {
        let seen = &engine.free_space().seen;
        let mut hints: Vec<_> = seen
            .iter()
            .map(|(page, (room, free))| (*page, *room as usize, *free as usize))
            .collect();
        hints.sort_unstable();
        hints
    }

    /// Delete a record. Each chunk's slot becomes a tombstone; trailing
    /// tombstones and the dead bytes at the bottom of the data region are
    /// trimmed back into the page's room; a page left with no live record
    /// goes back to the engine's free-page bitmap.
    pub fn delete(&self, engine: &mut Engine, tx: &mut Tx, ptr: RecordPtr) -> Result<()> {
        let mut cur = Some(ptr);
        while let Some(ptr) = cur {
            let gone = ptr.slot as usize;
            let (next, old, new) = engine.with_page(ptr.page, |page| {
                let (old, off, len) = slot(page, ptr.slot)?;
                // What the page shrinks to without this slot: its bytes
                // and the trimmed slots' come free.
                let mut new = Layout::EMPTY;
                for (i, off, _) in live_slots(page).filter(|s| s.0 != gone) {
                    new.slot_count = i + 1;
                    new.free_ptr = new.free_ptr.min(off);
                }
                new.free = old.free + len + (old.slot_count - new.slot_count) * SLOT_SIZE;
                Ok::<_, DominoError>((chunk_next(page.bytes(off, len)), old, new))
            })??;
            cur = next;
            if new.slot_count == 0 {
                engine.free_space().forget(ptr.page);
                engine.free_page(tx, ptr.page)?;
                continue;
            }
            if gone < new.slot_count {
                let slot_off = SLOTS_START + gone * SLOT_SIZE;
                engine.write(tx, ptr.page, slot_off as u16, &[0u8; SLOT_SIZE])?;
            }
            if (new.slot_count, new.free_ptr) != (old.slot_count, old.free_ptr) {
                write_counts(engine, tx, ptr.page, &new)?;
            }
            hint(engine, ptr.page, &new);
        }
        Ok(())
    }

    /// Replace a record; the pointer may move.
    pub fn update(
        &self,
        engine: &mut Engine,
        tx: &mut Tx,
        ptr: RecordPtr,
        data: &[u8],
    ) -> Result<RecordPtr> {
        self.delete(engine, tx, ptr)?;
        self.insert(engine, tx, data)
    }

    // ------------------------------------------------------------------

    /// Store one pre-encoded chunk: on the hinted page that fits it most
    /// tightly, else on a whole free page, else on a fragmented page
    /// compacted to fit, else on a page that extends the file.
    fn insert_raw(&self, engine: &mut Engine, tx: &mut Tx, bytes: &[u8]) -> Result<RecordPtr> {
        let need = bytes.len() + SLOT_SIZE;
        // Compaction moves records and logs the moves; a free page in the
        // bitmap costs neither. Compact only to keep the file from growing.
        let may_compact = engine.free_pages()? == 0;
        while let Some(id) = engine.free_space().best_fit(need, may_compact) {
            // The page is the truth: an abort may have undone what the
            // hint saw, down to the page's allocation.
            match engine.with_page(id, Layout::of)? {
                Some(layout) if layout.room() >= need => {
                    return self.place(engine, tx, id, layout, bytes);
                }
                Some(layout) if may_compact && layout.free >= need => {
                    let layout = self.compact(engine, tx, id, layout)?;
                    return self.place(engine, tx, id, layout, bytes);
                }
                // Corrected below `need` or dropped: the loop ends.
                Some(layout) => hint(engine, id, &layout),
                None => engine.free_space().forget(id),
            }
        }
        let id = engine.alloc_page(tx, PageType::Heap)?;
        self.place(engine, tx, id, Layout::EMPTY, bytes)
    }

    /// Put a chunk on a page whose `layout` has room for it.
    fn place(
        &self,
        engine: &mut Engine,
        tx: &mut Tx,
        id: PageId,
        mut layout: Layout,
        bytes: &[u8],
    ) -> Result<RecordPtr> {
        let idx = layout.tombstone.unwrap_or(layout.slot_count);
        let grows = idx == layout.slot_count;
        let taken = bytes.len() + if grows { SLOT_SIZE } else { 0 };
        assert!(taken <= layout.room(), "place() on a page without room");
        layout.slot_count += grows as usize;
        layout.free_ptr -= bytes.len();
        layout.free -= taken;

        engine.write(tx, id, layout.free_ptr as u16, bytes)?;
        let mut slot_bytes = [0u8; SLOT_SIZE];
        slot_bytes[0..2].copy_from_slice(&(layout.free_ptr as u16).to_le_bytes());
        slot_bytes[2..4].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
        engine.write(tx, id, (SLOTS_START + idx * SLOT_SIZE) as u16, &slot_bytes)?;
        write_counts(engine, tx, id, &layout)?;
        hint(engine, id, &layout);
        Ok(RecordPtr {
            page: id,
            slot: idx as u16,
        })
    }

    /// Close the dead holes in the data region, logging only the records
    /// that move. The last resort before the file grows.
    fn compact(
        &self,
        engine: &mut Engine,
        tx: &mut Tx,
        id: PageId,
        mut layout: Layout,
    ) -> Result<Layout> {
        let (mut live, mut slots) = engine.with_page(id, |page| {
            let live: Vec<_> = live_slots(page).collect();
            let slots = page.bytes(SLOTS_START, layout.slot_count * SLOT_SIZE);
            (live, slots.to_vec())
        })?;
        // Top of the page down; a record only ever moves up, into space
        // the records above it have already left.
        live.sort_unstable_by_key(|&(_, off, _)| std::cmp::Reverse(off));
        layout.free_ptr = PAGE_SIZE;
        for (i, off, len) in live {
            layout.free_ptr -= len;
            if layout.free_ptr != off {
                let record = engine.with_page(id, |page| page.bytes(off, len).to_vec())?;
                engine.write(tx, id, layout.free_ptr as u16, &record)?;
                let at = i * SLOT_SIZE;
                slots[at..at + 2].copy_from_slice(&(layout.free_ptr as u16).to_le_bytes());
            }
        }
        engine.write(tx, id, SLOTS_START as u16, &slots)?;
        write_counts(engine, tx, id, &layout)?;
        Ok(layout)
    }
}

/// Remember what `page` offers.
fn hint(engine: &mut Engine, page: PageId, layout: &Layout) {
    engine.free_space().set(page, layout.room(), layout.free);
}

/// `slot_count` and `free_ptr` are adjacent: one logged write.
fn write_counts(engine: &mut Engine, tx: &mut Tx, id: PageId, layout: &Layout) -> Result<()> {
    let mut counts = [0u8; 4];
    counts[0..2].copy_from_slice(&(layout.slot_count as u16).to_le_bytes());
    counts[2..4].copy_from_slice(&(layout.free_ptr as u16).to_le_bytes());
    engine.write(tx, id, OFF_SLOT_COUNT as u16, &counts)
}

/// `(index, offset, length)` of every slot that is not a tombstone.
fn live_slots(page: &PageBuf) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    (0..page.get_u16(OFF_SLOT_COUNT) as usize).filter_map(move |i| {
        let at = SLOTS_START + i * SLOT_SIZE;
        let off = page.get_u16(at) as usize;
        (off != 0).then(|| (i, off, page.get_u16(at + 2) as usize))
    })
}

/// The page's layout and the offset and length of its live slot `idx`.
fn slot(page: &PageBuf, idx: u16) -> Result<(Layout, usize, usize)> {
    let Some(layout) = Layout::of(page) else {
        return Err(DominoError::Corrupt(format!(
            "record pointer into non-heap page {}",
            page.id
        )));
    };
    if idx as usize >= layout.slot_count {
        return Err(DominoError::NotFound(format!(
            "slot {idx} out of range (page has {})",
            layout.slot_count
        )));
    }
    let off = page.get_u16(SLOTS_START + idx as usize * SLOT_SIZE) as usize;
    let len = page.get_u16(SLOTS_START + idx as usize * SLOT_SIZE + 2) as usize;
    if off == 0 {
        return Err(DominoError::NotFound(format!("slot {idx} is deleted")));
    }
    if off + len > PAGE_SIZE {
        return Err(DominoError::Corrupt("slot runs past page end".into()));
    }
    if len < CHUNK_HEADER {
        return Err(DominoError::Corrupt("short heap chunk".into()));
    }
    Ok((layout, off, len))
}

fn chunk_next(raw: &[u8]) -> Option<RecordPtr> {
    if raw[0] & CHUNK_HAS_NEXT == 0 {
        return None;
    }
    let page = u32::from_le_bytes(raw[1..5].try_into().expect("4"));
    let slot = u16::from_le_bytes(raw[5..7].try_into().expect("2"));
    Some(RecordPtr { page, slot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::engine::EngineConfig;
    use domino_wal::MemLogStore;

    fn engine() -> Engine {
        Engine::open(
            Box::new(MemDisk::new()),
            Some(Box::new(MemLogStore::new())),
            EngineConfig::default(),
        )
        .unwrap()
    }

    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| ((i * 31 + j) % 251) as u8).collect()
    }

    #[test]
    fn insert_read_roundtrip_small() {
        let mut e = engine();
        let mut tx = e.begin().unwrap();
        let h = Heap;
        let ptr = h.insert(&mut e, &mut tx, b"hello heap").unwrap();
        e.commit(tx).unwrap();
        assert_eq!(h.read(&mut e, ptr).unwrap(), b"hello heap");
    }

    #[test]
    fn empty_record_ok() {
        let mut e = engine();
        let mut tx = e.begin().unwrap();
        let h = Heap;
        let ptr = h.insert(&mut e, &mut tx, b"").unwrap();
        e.commit(tx).unwrap();
        assert_eq!(h.read(&mut e, ptr).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_record_chains_across_pages() {
        let mut e = engine();
        let mut tx = e.begin().unwrap();
        let h = Heap;
        let data = payload(1, 20_000); // ~5 chunks
        let ptr = h.insert(&mut e, &mut tx, &data).unwrap();
        e.commit(tx).unwrap();
        assert_eq!(h.read(&mut e, ptr).unwrap(), data);
        assert!(h.pages_of(&mut e, ptr).unwrap().len() >= 5);
    }

    #[test]
    fn many_records_and_deletes_reuse_space() {
        let mut e = engine();
        let h = Heap;
        let mut tx = e.begin().unwrap();
        let mut ptrs = Vec::new();
        for i in 0..200 {
            ptrs.push((
                i,
                h.insert(&mut e, &mut tx, &payload(i, 100 + i % 300))
                    .unwrap(),
            ));
        }
        // Delete every other record.
        for (i, ptr) in &ptrs {
            if i % 2 == 0 {
                h.delete(&mut e, &mut tx, *ptr).unwrap();
            }
        }
        let pages_before = e.stats().pages_allocated;
        // Insert replacements; they should mostly reuse freed space.
        let mut new_ptrs = Vec::new();
        for i in 200..300 {
            new_ptrs.push((i, h.insert(&mut e, &mut tx, &payload(i, 120)).unwrap()));
        }
        let pages_after = e.stats().pages_allocated;
        assert!(
            pages_after - pages_before <= 2,
            "expected space reuse, allocated {} new pages",
            pages_after - pages_before
        );
        e.commit(tx).unwrap();
        // All survivors readable.
        for (i, ptr) in &ptrs {
            if i % 2 == 1 {
                assert_eq!(h.read(&mut e, *ptr).unwrap(), payload(*i, 100 + i % 300));
            }
        }
        for (i, ptr) in &new_ptrs {
            assert_eq!(h.read(&mut e, *ptr).unwrap(), payload(*i, 120));
        }
    }

    #[test]
    fn deleted_records_unreadable() {
        let mut e = engine();
        let h = Heap;
        let mut tx = e.begin().unwrap();
        let ptr = h.insert(&mut e, &mut tx, b"gone").unwrap();
        h.delete(&mut e, &mut tx, ptr).unwrap();
        e.commit(tx).unwrap();
        assert!(h.read(&mut e, ptr).is_err());
    }

    #[test]
    fn delete_beside_a_corrupt_slot_does_not_underflow() {
        let mut e = engine();
        let h = Heap;
        let mut tx = e.begin().unwrap();
        let a = h.insert(&mut e, &mut tx, &payload(1, 100)).unwrap();
        let b = h.insert(&mut e, &mut tx, &payload(2, 100)).unwrap();
        assert_eq!(a.page, b.page);
        // Slot b now claims more bytes than a page holds.
        let len_off = SLOTS_START + b.slot as usize * SLOT_SIZE + 2;
        e.write(&mut tx, b.page, len_off as u16, &5000u16.to_le_bytes())
            .unwrap();
        h.delete(&mut e, &mut tx, a).unwrap();
        e.commit(tx).unwrap();
        assert!(h.read(&mut e, a).is_err());
        assert!(matches!(h.read(&mut e, b), Err(DominoError::Corrupt(_))));
    }

    #[test]
    fn update_moves_and_preserves_content() {
        let mut e = engine();
        let h = Heap;
        let mut tx = e.begin().unwrap();
        let ptr = h.insert(&mut e, &mut tx, &payload(1, 50)).unwrap();
        let new = payload(2, 6000);
        let ptr2 = h.update(&mut e, &mut tx, ptr, &new).unwrap();
        e.commit(tx).unwrap();
        assert_eq!(h.read(&mut e, ptr2).unwrap(), new);
    }

    #[test]
    fn compaction_recovers_fragmented_space() {
        let mut e = engine();
        let h = Heap;
        let mut tx = e.begin().unwrap();
        // Fill one page with small records.
        let mut ptrs = Vec::new();
        for i in 0..30 {
            ptrs.push(h.insert(&mut e, &mut tx, &payload(i, 100)).unwrap());
        }
        let first_page = ptrs[0].page;
        // Free alternating records on the first page.
        for (i, ptr) in ptrs.iter().enumerate() {
            if ptr.page == first_page && i % 2 == 0 {
                h.delete(&mut e, &mut tx, *ptr).unwrap();
            }
        }
        // A record bigger than any single hole but smaller than the sum.
        let big = payload(99, 900);
        let ptr = h.insert(&mut e, &mut tx, &big).unwrap();
        e.commit(tx).unwrap();
        assert_eq!(h.read(&mut e, ptr).unwrap(), big);
        // Survivors intact after compaction.
        for (i, p) in ptrs.iter().enumerate() {
            if !(p.page == first_page && i % 2 == 0) {
                assert_eq!(h.read(&mut e, *p).unwrap(), payload(i, 100));
            }
        }
    }

    #[test]
    fn record_ptr_packs() {
        let p = RecordPtr {
            page: 0xABCDEF,
            slot: 0x1234,
        };
        assert_eq!(RecordPtr::from_u64(p.to_u64()), p);
    }

    #[test]
    fn survives_crash_recovery() {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let h = Heap;
        let (committed, uncommitted) = {
            let mut e = Engine::open(
                Box::new(disk.clone()),
                Some(Box::new(log.clone())),
                EngineConfig::default(),
            )
            .unwrap();
            let mut tx = e.begin().unwrap();
            let a = h.insert(&mut e, &mut tx, &payload(1, 5000)).unwrap();
            e.commit(tx).unwrap();
            let mut tx2 = e.begin().unwrap();
            let b = h.insert(&mut e, &mut tx2, &payload(2, 100)).unwrap();
            e.wal().unwrap().flush_all().unwrap();
            e.crash();
            log.crash();
            (a, b)
        };
        let mut e =
            Engine::open(Box::new(disk), Some(Box::new(log)), EngineConfig::default()).unwrap();
        assert_eq!(h.read(&mut e, committed).unwrap(), payload(1, 5000));
        assert!(h.read(&mut e, uncommitted).is_err());
    }
}
