//! Disk-resident B⁺-trees with `u128` keys and `u64` values.
//!
//! The note store keeps two of these per database: `NoteId → record
//! pointer` and `UNID → NoteId`. Keys are fixed-width so nodes pack
//! densely; values narrower than 16 bytes zero-extend.
//!
//! Layout (after the 16-byte page header; leaves use the header link field
//! as the right-sibling pointer):
//!
//! ```text
//! leaf:     @16 count:u16, then count × (key:u128, value:u64)
//! internal: @16 count:u16, @18 child0:u32, then count × (key:u128, child:u32)
//! ```
//!
//! An internal node with keys `k1..kn` and children `c0..cn` routes
//! `key < k1` to `c0` and `k_i <= key < k_{i+1}` to `c_i`.
//!
//! Deletion removes leaf entries but never unlinks pages ("free-at-empty,
//! deferred"): empty leaves stay chained until a compaction rebuilds the
//! tree — the same behaviour Notes databases exhibit until `compact` runs.
//! Inserts land in whatever leaf the separators route to, so space is
//! reused for nearby keys.

use crate::engine::{Engine, Tx};
use crate::page::{PageBuf, PageId, PageType, PAGE_HEADER, PAGE_SIZE};
use domino_types::{DominoError, Result};

const OFF_COUNT: usize = PAGE_HEADER; // u16
const LEAF_ENTRIES: usize = PAGE_HEADER + 2;
const ENTRY_SIZE: usize = 24; // key 16 + value 8
pub(crate) const LEAF_CAP: usize = (PAGE_SIZE - LEAF_ENTRIES) / ENTRY_SIZE;

const INT_CHILD0: usize = PAGE_HEADER + 2; // u32
const INT_ENTRIES: usize = INT_CHILD0 + 4;
const INT_ENTRY_SIZE: usize = 20; // key 16 + child 4
pub(crate) const INT_CAP: usize = (PAGE_SIZE - INT_ENTRIES) / INT_ENTRY_SIZE;

/// Result of one recursive insert: `(previous value, optional split as
/// (separator key, new right page))`.
type InsertOutcome = (Option<u64>, Option<(u128, PageId)>);

/// A handle to one named tree (root slot in the store header).
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    slot: usize,
}

impl BTree {
    /// Open the tree in root `slot`, creating an empty root on first use.
    pub fn open(engine: &mut Engine, tx: &mut Tx, slot: usize) -> Result<BTree> {
        if engine.tree_root(slot)? == 0 {
            let root = engine.alloc_page(tx, PageType::BTreeLeaf)?;
            write_count(engine, tx, root, 0)?;
            engine.set_tree_root(tx, slot, root)?;
        }
        Ok(BTree { slot })
    }

    /// Open read-only (tree must already exist).
    pub fn open_existing(engine: &mut Engine, slot: usize) -> Result<BTree> {
        if engine.tree_root(slot)? == 0 {
            return Err(DominoError::NotFound(format!("no tree in slot {slot}")));
        }
        Ok(BTree { slot })
    }

    fn root(&self, engine: &mut Engine) -> Result<PageId> {
        engine.tree_root(self.slot)
    }

    /// Point lookup. Descends through the buffer pool without cloning
    /// pages (`Engine::with_page`).
    pub fn get(&self, engine: &mut Engine, key: u128) -> Result<Option<u64>> {
        let mut page_id = self.root(engine)?;
        loop {
            let step = engine.with_page(page_id, |page| match page.page_type() {
                PageType::BTreeInternal => Ok(Descent::Down(route(page, key)?)),
                PageType::BTreeLeaf => {
                    let n = count(page)?;
                    Ok(Descent::Found(match leaf_search(page, n, key) {
                        Ok(pos) => Some(leaf_value(page, pos)),
                        Err(_) => None,
                    }))
                }
                other => Err(DominoError::Corrupt(format!(
                    "b-tree descent hit a {other:?} page"
                ))),
            })??;
            match step {
                Descent::Down(id) => page_id = id,
                Descent::Found(v) => return Ok(v),
            }
        }
    }

    /// Upsert; returns the previous value if the key existed.
    pub fn insert(
        &self,
        engine: &mut Engine,
        tx: &mut Tx,
        key: u128,
        value: u64,
    ) -> Result<Option<u64>> {
        let root = self.root(engine)?;
        let (old, split) = insert_rec(engine, tx, root, key, value)?;
        if let Some((sep, right)) = split {
            // Grow the tree: new root with one separator.
            let new_root = engine.alloc_page(tx, PageType::BTreeInternal)?;
            let mut buf = [0u8; INT_ENTRIES + INT_ENTRY_SIZE - PAGE_HEADER];
            buf[0..2].copy_from_slice(&1u16.to_le_bytes());
            buf[2..6].copy_from_slice(&root.to_le_bytes());
            buf[6..22].copy_from_slice(&sep.to_le_bytes());
            buf[22..26].copy_from_slice(&right.to_le_bytes());
            engine.write(tx, new_root, PAGE_HEADER as u16, &buf)?;
            engine.set_tree_root(tx, self.slot, new_root)?;
        }
        Ok(old)
    }

    /// Remove a key; returns its value if present.
    pub fn delete(&self, engine: &mut Engine, tx: &mut Tx, key: u128) -> Result<Option<u64>> {
        let mut page_id = self.root(engine)?;
        loop {
            // Leaf hit yields (entry count, position, old value, tail bytes
            // to shift left); the copies happen inside the pool.
            let step = engine.with_page(page_id, |page| match page.page_type() {
                PageType::BTreeInternal => Ok(Descent::Down(route(page, key)?)),
                PageType::BTreeLeaf => {
                    let n = count(page)?;
                    let Ok(pos) = leaf_search(page, n, key) else {
                        return Ok(Descent::Found(None));
                    };
                    let old = leaf_value(page, pos);
                    let start = LEAF_ENTRIES + pos * ENTRY_SIZE;
                    let end = LEAF_ENTRIES + n * ENTRY_SIZE;
                    let tail = page
                        .bytes(start + ENTRY_SIZE, end - start - ENTRY_SIZE)
                        .to_vec();
                    Ok(Descent::Found(Some((n, start, old, tail))))
                }
                other => Err(DominoError::Corrupt(format!(
                    "b-tree descent hit a {other:?} page"
                ))),
            })??;
            match step {
                Descent::Down(id) => page_id = id,
                Descent::Found(None) => return Ok(None),
                Descent::Found(Some((n, start, old, tail))) => {
                    // Shift entries left over the removed slot.
                    if !tail.is_empty() {
                        engine.write(tx, page_id, start as u16, &tail)?;
                    }
                    write_count(engine, tx, page_id, (n - 1) as u16)?;
                    return Ok(Some(old));
                }
            }
        }
    }

    /// In-order scan of `[lo, hi]`, calling `f(key, value)`; stop early by
    /// returning `false`.
    pub fn scan(
        &self,
        engine: &mut Engine,
        lo: u128,
        hi: u128,
        mut f: impl FnMut(u128, u64) -> bool,
    ) -> Result<()> {
        if lo > hi {
            return Ok(());
        }
        // Descend to the leaf that would hold `lo`.
        let mut page_id = self.root(engine)?;
        loop {
            let step = engine.with_page(page_id, |page| match page.page_type() {
                PageType::BTreeInternal => Ok(Descent::Down(route(page, lo)?)),
                PageType::BTreeLeaf => Ok(Descent::Found(())),
                other => Err(DominoError::Corrupt(format!(
                    "b-tree descent hit a {other:?} page"
                ))),
            })??;
            match step {
                Descent::Down(id) => page_id = id,
                Descent::Found(()) => break,
            }
        }
        // Walk the leaf chain, invoking the callback inside the pool.
        loop {
            let next = engine.with_page(page_id, |page| {
                let n = count(page)?;
                let start = match leaf_search(page, n, lo) {
                    Ok(p) | Err(p) => p,
                };
                for pos in start..n {
                    let k = leaf_key(page, pos);
                    if k > hi || !f(k, leaf_value(page, pos)) {
                        return Ok(0);
                    }
                }
                Ok::<_, DominoError>(page.link())
            })??;
            if next == 0 {
                return Ok(());
            }
            page_id = next;
        }
    }

    /// Number of entries (full scan).
    pub fn len(&self, engine: &mut Engine) -> Result<u64> {
        let mut n = 0u64;
        self.scan(engine, 0, u128::MAX, |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    pub fn is_empty(&self, engine: &mut Engine) -> Result<bool> {
        let mut any = false;
        self.scan(engine, 0, u128::MAX, |_, _| {
            any = true;
            false
        })?;
        Ok(!any)
    }
}

/// One step of a root-to-leaf descent run inside `Engine::with_page`.
enum Descent<T> {
    Down(PageId),
    Found(T),
}

// ---------------------------------------------------------------------------
// node accessors
// ---------------------------------------------------------------------------

/// A node's entry count; one above its page type's capacity is `Corrupt`,
/// so no entry offset past the page end is ever computed.
fn count(page: &PageBuf) -> Result<usize> {
    let n = page.get_u16(OFF_COUNT) as usize;
    let cap = match page.page_type() {
        PageType::BTreeInternal => INT_CAP,
        _ => LEAF_CAP,
    };
    if n > cap {
        return Err(DominoError::Corrupt(format!(
            "b-tree page {} holds {n} entries, more than its {cap}",
            page.id
        )));
    }
    Ok(n)
}

fn write_count(engine: &mut Engine, tx: &mut Tx, id: PageId, n: u16) -> Result<()> {
    engine.write(tx, id, OFF_COUNT as u16, &n.to_le_bytes())
}

fn leaf_key(page: &PageBuf, pos: usize) -> u128 {
    page.get_u128(LEAF_ENTRIES + pos * ENTRY_SIZE)
}

fn leaf_value(page: &PageBuf, pos: usize) -> u64 {
    page.get_u64(LEAF_ENTRIES + pos * ENTRY_SIZE + 16)
}

/// Binary search a leaf: Ok(pos) = found, Err(pos) = insertion point.
fn leaf_search(page: &PageBuf, n: usize, key: u128) -> std::result::Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_key(page, mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

fn int_key(page: &PageBuf, i: usize) -> u128 {
    page.get_u128(INT_ENTRIES + i * INT_ENTRY_SIZE)
}

fn int_child(page: &PageBuf, i: usize) -> PageId {
    // child index 0..=count; 0 lives at INT_CHILD0.
    if i == 0 {
        page.get_u32(INT_CHILD0)
    } else {
        page.get_u32(INT_ENTRIES + (i - 1) * INT_ENTRY_SIZE + 16)
    }
}

/// Index of the child `key` routes to: the number of keys `<= key`.
fn int_search(page: &PageBuf, key: u128) -> Result<usize> {
    let (mut lo, mut hi) = (0usize, count(page)?);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if int_key(page, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Which child should `key` descend into?
fn route(page: &PageBuf, key: u128) -> Result<PageId> {
    Ok(int_child(page, int_search(page, key)?))
}

// ---------------------------------------------------------------------------
// insertion
// ---------------------------------------------------------------------------

/// Returns (old value, optional split (separator, new right page)).
fn insert_rec(
    engine: &mut Engine,
    tx: &mut Tx,
    page_id: PageId,
    key: u128,
    value: u64,
) -> Result<InsertOutcome> {
    // Route (or find out this is the leaf) without cloning the node.
    let step = engine.with_page(page_id, |page| match page.page_type() {
        PageType::BTreeLeaf => Ok(None),
        PageType::BTreeInternal => {
            let child_idx = int_search(page, key)?;
            Ok(Some((child_idx, int_child(page, child_idx))))
        }
        other => Err(DominoError::Corrupt(format!(
            "b-tree insert hit a {other:?} page"
        ))),
    })??;
    let Some((child_idx, child)) = step else {
        return leaf_insert(engine, tx, page_id, key, value);
    };
    let (old, split) = insert_rec(engine, tx, child, key, value)?;
    let Some((sep, right)) = split else {
        return Ok((old, None));
    };
    Ok((old, int_insert(engine, tx, page_id, child_idx, sep, right)?))
}

/// `[entry] ++ page[start..end]`: the bytes that, written at `start`, open a
/// gap for `entry` by shifting the tail right.
fn shifted(page: &PageBuf, start: usize, end: usize, entry: &[u8]) -> Vec<u8> {
    let mut region = Vec::with_capacity(entry.len() + end - start);
    region.extend_from_slice(entry);
    region.extend_from_slice(page.bytes(start, end - start));
    region
}

/// What an insert does to a leaf, worked out inside the buffer pool so only
/// the bytes to be written are copied.
enum Edit {
    /// The key exists at entry `pos` with value `old`.
    Overwrite { pos: usize, old: u64 },
    /// Write `region` at byte `start` and raise the count to `n + 1`.
    Shift {
        n: usize,
        start: usize,
        region: Vec<u8>,
    },
    /// The leaf is full.
    Split,
}

fn leaf_insert(
    engine: &mut Engine,
    tx: &mut Tx,
    page_id: PageId,
    key: u128,
    value: u64,
) -> Result<InsertOutcome> {
    let mut entry = [0u8; ENTRY_SIZE];
    entry[..16].copy_from_slice(&key.to_le_bytes());
    entry[16..].copy_from_slice(&value.to_le_bytes());
    let edit = engine.with_page(page_id, |page| {
        let n = count(page)?;
        Ok::<_, DominoError>(match leaf_search(page, n, key) {
            Ok(pos) => Edit::Overwrite {
                pos,
                old: leaf_value(page, pos),
            },
            Err(pos) if n < LEAF_CAP => {
                let start = LEAF_ENTRIES + pos * ENTRY_SIZE;
                let end = LEAF_ENTRIES + n * ENTRY_SIZE;
                Edit::Shift {
                    n,
                    start,
                    region: shifted(page, start, end, &entry),
                }
            }
            Err(_) => Edit::Split,
        })
    })??;
    match edit {
        Edit::Overwrite { pos, old } => {
            // Storing the value already there writes (and logs) nothing.
            if old != value {
                let at = LEAF_ENTRIES + pos * ENTRY_SIZE + 16;
                engine.write(tx, page_id, at as u16, &entry[16..])?;
            }
            Ok((Some(old), None))
        }
        Edit::Shift { n, start, region } => {
            engine.write(tx, page_id, start as u16, &region)?;
            write_count(engine, tx, page_id, (n + 1) as u16)?;
            Ok((None, None))
        }
        Edit::Split => {
            // Upper half moves to a fresh right sibling. The writes below
            // change this node, so work from a stable image of it.
            let page = engine.fetch(page_id)?;
            let n = count(&page)?;
            let mid = n / 2;
            let right_id = engine.alloc_page(tx, PageType::BTreeLeaf)?;
            let moved = page.bytes(LEAF_ENTRIES + mid * ENTRY_SIZE, (n - mid) * ENTRY_SIZE);
            let mut right_init = Vec::with_capacity(2 + moved.len());
            right_init.extend_from_slice(&((n - mid) as u16).to_le_bytes());
            right_init.extend_from_slice(moved);
            engine.write(tx, right_id, OFF_COUNT as u16, &right_init)?;
            // Sibling chain: right inherits the old link; left points right.
            engine.write(tx, right_id, 10, &page.link().to_le_bytes())?;
            engine.write(tx, page_id, 10, &right_id.to_le_bytes())?;
            write_count(engine, tx, page_id, mid as u16)?;

            // Insert the pending key into whichever side owns it.
            let sep = leaf_key(&page, mid);
            let target = if key < sep { page_id } else { right_id };
            let (old, split2) = leaf_insert(engine, tx, target, key, value)?;
            debug_assert!(split2.is_none(), "freshly split leaf cannot split again");
            debug_assert!(old.is_none());
            Ok((old, Some((sep, right_id))))
        }
    }
}

/// Insert separator `sep` with right child `right` after child `child_idx`.
fn int_insert(
    engine: &mut Engine,
    tx: &mut Tx,
    page_id: PageId,
    child_idx: usize,
    sep: u128,
    right: PageId,
) -> Result<Option<(u128, PageId)>> {
    let mut entry = [0u8; INT_ENTRY_SIZE];
    entry[..16].copy_from_slice(&sep.to_le_bytes());
    entry[16..].copy_from_slice(&right.to_le_bytes());
    // Unless the node is full: the new key goes at index `child_idx`.
    let shift = engine.with_page(page_id, |page| {
        let n = count(page)?;
        let start = INT_ENTRIES + child_idx * INT_ENTRY_SIZE;
        let end = INT_ENTRIES + n * INT_ENTRY_SIZE;
        Ok::<_, DominoError>((n < INT_CAP).then(|| (n, start, shifted(page, start, end, &entry))))
    })??;
    if let Some((n, start, region)) = shift {
        engine.write(tx, page_id, start as u16, &region)?;
        write_count(engine, tx, page_id, (n + 1) as u16)?;
        return Ok(None);
    }

    // Split the internal node, from a stable image of it. Keys:
    // k0..k(n-1); promote k_mid.
    let page = engine.fetch(page_id)?;
    let n = count(&page)?;
    let mid = n / 2;
    let promoted = int_key(&page, mid);
    let right_id = engine.alloc_page(tx, PageType::BTreeInternal)?;

    // Right node gets keys mid+1..n and child(mid+1)..child(n).
    let rn = n - mid - 1;
    let mut right_init = Vec::with_capacity(6 + rn * INT_ENTRY_SIZE);
    right_init.extend_from_slice(&(rn as u16).to_le_bytes());
    right_init.extend_from_slice(&int_child(&page, mid + 1).to_le_bytes());
    right_init.extend_from_slice(page.bytes(
        INT_ENTRIES + (mid + 1) * INT_ENTRY_SIZE,
        rn * INT_ENTRY_SIZE,
    ));
    engine.write(tx, right_id, OFF_COUNT as u16, &right_init)?;
    write_count(engine, tx, page_id, mid as u16)?;

    // Now insert (sep, right) into the correct half, at the child index
    // `sep` routes to there.
    let target_id = if sep < promoted { page_id } else { right_id };
    let idx = engine.with_page(target_id, |target| int_search(target, sep))??;
    let split2 = int_insert(engine, tx, target_id, idx, sep, right)?;
    debug_assert!(
        split2.is_none(),
        "freshly split internal node cannot split again"
    );
    Ok(Some((promoted, right_id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, MemDisk};
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

    fn with_tree(f: impl FnOnce(&mut Engine, &mut Tx, BTree)) {
        let mut e = engine();
        let mut tx = e.begin().unwrap();
        let t = BTree::open(&mut e, &mut tx, 0).unwrap();
        f(&mut e, &mut tx, t);
        e.commit(tx).unwrap();
    }

    #[test]
    fn insert_get_roundtrip() {
        with_tree(|e, tx, t| {
            assert_eq!(t.insert(e, tx, 5, 50).unwrap(), None);
            assert_eq!(t.insert(e, tx, 1, 10).unwrap(), None);
            assert_eq!(t.insert(e, tx, 9, 90).unwrap(), None);
            assert_eq!(t.get(e, 5).unwrap(), Some(50));
            assert_eq!(t.get(e, 1).unwrap(), Some(10));
            assert_eq!(t.get(e, 9).unwrap(), Some(90));
            assert_eq!(t.get(e, 7).unwrap(), None);
        });
    }

    #[test]
    fn upsert_returns_old() {
        with_tree(|e, tx, t| {
            t.insert(e, tx, 5, 50).unwrap();
            assert_eq!(t.insert(e, tx, 5, 55).unwrap(), Some(50));
            assert_eq!(t.get(e, 5).unwrap(), Some(55));
        });
    }

    #[test]
    fn delete_removes() {
        with_tree(|e, tx, t| {
            t.insert(e, tx, 5, 50).unwrap();
            t.insert(e, tx, 6, 60).unwrap();
            assert_eq!(t.delete(e, tx, 5).unwrap(), Some(50));
            assert_eq!(t.get(e, 5).unwrap(), None);
            assert_eq!(t.get(e, 6).unwrap(), Some(60));
            assert_eq!(t.delete(e, tx, 5).unwrap(), None);
        });
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        with_tree(|e, tx, t| {
            // Enough to force multiple leaf and internal splits.
            let n = 5000u128;
            for i in 0..n {
                // Insert in a scrambled order.
                let k = (i * 2654435761) % n;
                t.insert(e, tx, k, (k * 10) as u64).unwrap();
            }
            assert_eq!(t.len(e).unwrap(), n as u64);
            for i in 0..n {
                assert_eq!(t.get(e, i).unwrap(), Some((i * 10) as u64), "key {i}");
            }
            // Full scan is sorted.
            let mut prev = None;
            t.scan(e, 0, u128::MAX, |k, _| {
                if let Some(p) = prev {
                    assert!(k > p);
                }
                prev = Some(k);
                true
            })
            .unwrap();
        });
    }

    #[test]
    fn range_scan_bounds() {
        with_tree(|e, tx, t| {
            for i in 0..100u128 {
                t.insert(e, tx, i, i as u64).unwrap();
            }
            let mut seen = Vec::new();
            t.scan(e, 10, 19, |k, v| {
                seen.push((k, v));
                true
            })
            .unwrap();
            assert_eq!(seen.len(), 10);
            assert_eq!(seen[0], (10, 10));
            assert_eq!(seen[9], (19, 19));
        });
    }

    #[test]
    fn scan_early_stop() {
        with_tree(|e, tx, t| {
            for i in 0..50u128 {
                t.insert(e, tx, i, i as u64).unwrap();
            }
            let mut n = 0;
            t.scan(e, 0, u128::MAX, |_, _| {
                n += 1;
                n < 5
            })
            .unwrap();
            assert_eq!(n, 5);
        });
    }

    #[test]
    fn delete_then_reinsert_across_splits() {
        with_tree(|e, tx, t| {
            for i in 0..1000u128 {
                t.insert(e, tx, i, i as u64).unwrap();
            }
            for i in (0..1000u128).step_by(2) {
                assert_eq!(t.delete(e, tx, i).unwrap(), Some(i as u64));
            }
            assert_eq!(t.len(e).unwrap(), 500);
            for i in (0..1000u128).step_by(2) {
                t.insert(e, tx, i, (i + 1) as u64).unwrap();
            }
            assert_eq!(t.len(e).unwrap(), 1000);
            assert_eq!(t.get(e, 4).unwrap(), Some(5));
            assert_eq!(t.get(e, 5).unwrap(), Some(5));
        });
    }

    #[test]
    fn persists_across_reopen() {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        {
            let mut e = Engine::open(
                Box::new(disk.clone()),
                Some(Box::new(log.clone())),
                EngineConfig::default(),
            )
            .unwrap();
            let mut tx = e.begin().unwrap();
            let t = BTree::open(&mut e, &mut tx, 1).unwrap();
            for i in 0..500u128 {
                t.insert(&mut e, &mut tx, i, i as u64 + 7).unwrap();
            }
            e.commit(tx).unwrap();
            e.shutdown().unwrap();
        }
        let mut e =
            Engine::open(Box::new(disk), Some(Box::new(log)), EngineConfig::default()).unwrap();
        let t = BTree::open_existing(&mut e, 1).unwrap();
        for i in 0..500u128 {
            assert_eq!(t.get(&mut e, i).unwrap(), Some(i as u64 + 7));
        }
    }

    #[test]
    fn survives_crash_recovery() {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let (tree_keys, _) = {
            let mut e = Engine::open(
                Box::new(disk.clone()),
                Some(Box::new(log.clone())),
                EngineConfig {
                    buffer_capacity: 16,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let mut tx = e.begin().unwrap();
            let t = BTree::open(&mut e, &mut tx, 0).unwrap();
            for i in 0..800u128 {
                t.insert(&mut e, &mut tx, i, i as u64).unwrap();
            }
            e.commit(tx).unwrap();
            // Uncommitted extra inserts, then crash.
            let mut tx2 = e.begin().unwrap();
            for i in 800..900u128 {
                t.insert(&mut e, &mut tx2, i, i as u64).unwrap();
            }
            e.wal().unwrap().flush_all().unwrap();
            e.crash();
            log.crash();
            (800u128, ())
        };
        let mut e =
            Engine::open(Box::new(disk), Some(Box::new(log)), EngineConfig::default()).unwrap();
        assert!(e.recovery.is_some());
        let t = BTree::open_existing(&mut e, 0).unwrap();
        for i in 0..tree_keys {
            assert_eq!(
                t.get(&mut e, i).unwrap(),
                Some(i as u64),
                "committed key {i}"
            );
        }
        for i in tree_keys..900 {
            assert_eq!(t.get(&mut e, i).unwrap(), None, "uncommitted key {i}");
        }
    }

    #[test]
    fn a_count_above_capacity_is_corrupt_not_a_panic() {
        let (disk, log) = (MemDisk::new(), MemLogStore::new());
        let open = || {
            let (disk, log) = (Box::new(disk.clone()), Some(Box::new(log.clone()) as _));
            Engine::open(disk, log, EngineConfig::default()).unwrap()
        };
        let mut e = open();
        let mut tx = e.begin().unwrap();
        let t = BTree::open(&mut e, &mut tx, 0).unwrap();
        t.insert(&mut e, &mut tx, 5, 50).unwrap();
        e.commit(tx).unwrap();
        let root = e.tree_root(0).unwrap();
        e.shutdown().unwrap();
        // The leaf's count is overwritten underneath the engine.
        let mut page = PageBuf::zeroed(root);
        disk.read_page(root, &mut page).unwrap();
        page.put_u16(OFF_COUNT, 60_000);
        disk.write_page(root, &page).unwrap();

        let mut e = open();
        let corrupt = |r: Result<()>| matches!(r, Err(DominoError::Corrupt(_)));
        assert!(corrupt(t.get(&mut e, 5).map(drop)));
        assert!(corrupt(t.scan(&mut e, 0, u128::MAX, |_, _| true)));
        let mut tx = e.begin().unwrap();
        assert!(corrupt(t.insert(&mut e, &mut tx, 6, 60).map(drop)));
        e.abort(tx).unwrap();
    }

    #[test]
    fn inserting_the_stored_value_writes_nothing() {
        let mut e = engine();
        let mut tx = e.begin().unwrap();
        let t = BTree::open(&mut e, &mut tx, 0).unwrap();
        t.insert(&mut e, &mut tx, 5, 50).unwrap();
        e.commit(tx).unwrap();
        let leaf = e.tree_root(0).unwrap();
        let mut tx = e.begin().unwrap();
        let (end, lsn) = (e.wal().unwrap().next_lsn(), e.page_lsn(leaf).unwrap());
        assert_eq!(t.insert(&mut e, &mut tx, 5, 50).unwrap(), Some(50));
        assert_eq!(e.wal().unwrap().next_lsn(), end, "no record appended");
        assert_eq!(e.page_lsn(leaf).unwrap(), lsn, "page LSN unchanged");
        // A different value is still written.
        assert_eq!(t.insert(&mut e, &mut tx, 5, 51).unwrap(), Some(50));
        assert!(e.wal().unwrap().next_lsn() > end);
        e.commit(tx).unwrap();
        assert_eq!(t.get(&mut e, 5).unwrap(), Some(51));
    }

    #[test]
    fn u128_extremes() {
        with_tree(|e, tx, t| {
            t.insert(e, tx, 0, 1).unwrap();
            t.insert(e, tx, u128::MAX, 2).unwrap();
            assert_eq!(t.get(e, 0).unwrap(), Some(1));
            assert_eq!(t.get(e, u128::MAX).unwrap(), Some(2));
        });
    }
}
