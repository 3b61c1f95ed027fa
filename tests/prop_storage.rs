//! Property tests for the storage engine: B-tree vs a model, heap
//! round-trips, heap space accounting under aborts and crashes, and crash
//! recovery restoring exactly the committed state.

use std::collections::BTreeMap;

use proptest::prelude::*;

use domino::storage::{
    BTree, Engine, EngineConfig, Heap, MemDisk, PageBuf, PageType, RecordPtr, Tx, PAGE_SIZE,
};
use domino::wal::MemLogStore;

fn engine_with(cap: usize) -> (Engine, MemDisk, MemLogStore) {
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let e = Engine::open(
        Box::new(disk.clone()),
        Some(Box::new(log.clone())),
        EngineConfig {
            buffer_capacity: cap,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    (e, disk, log)
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u64),
    Delete(u16),
    Get(u16),
}

fn tree_ops() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        any::<u16>().prop_map(TreeOp::Delete),
        any::<u16>().prop_map(TreeOp::Get),
    ]
}

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(u8, usize),
    Update(usize, u8, usize),
    Delete(usize),
    Commit,
    Abort,
    Crash,
}

fn heap_ops() -> impl Strategy<Value = HeapOp> {
    let record = || (any::<u8>(), 0..12_000usize);
    prop_oneof![
        record().prop_map(|(seed, len)| HeapOp::Insert(seed, len)),
        record().prop_map(|(seed, len)| HeapOp::Insert(seed, len)),
        (any::<usize>(), record()).prop_map(|(pick, (seed, len))| HeapOp::Update(pick, seed, len)),
        (any::<usize>(), record()).prop_map(|(pick, (seed, len))| HeapOp::Update(pick, seed, len)),
        any::<usize>().prop_map(HeapOp::Delete),
        any::<usize>().prop_map(HeapOp::Delete),
        Just(HeapOp::Commit),
        Just(HeapOp::Commit),
        Just(HeapOp::Abort),
        Just(HeapOp::Crash),
    ]
}

/// Read a heap page by FORMAT.md §6 alone — `slot_count` @16, `free_ptr`
/// @18, `(offset, len)` slots from @20 — and return its `(room, free)`:
/// the gap between slot array and data region, and that gap plus the dead
/// holes. Panics if the slot array runs into the data region, a live
/// record starts below `free_ptr` or past the page, or two overlap.
fn audit_heap_page(page: &PageBuf) -> (usize, usize) {
    let slot_count = page.get_u16(16) as usize;
    let free_ptr = page.get_u16(18) as usize;
    let slots_end = 20 + 4 * slot_count;
    assert!(
        slots_end <= free_ptr && free_ptr <= PAGE_SIZE,
        "page {}: {slot_count} slots end at {slots_end}, data region starts at {free_ptr}",
        page.id
    );
    let mut live: Vec<(usize, usize)> = (0..slot_count)
        .map(|i| {
            (
                page.get_u16(20 + 4 * i) as usize,
                page.get_u16(22 + 4 * i) as usize,
            )
        })
        .filter(|(off, _)| *off != 0)
        .collect();
    live.sort_unstable();
    let mut floor = free_ptr;
    for (off, len) in &live {
        assert!(
            *off >= floor,
            "page {}: record at {off} under {floor}",
            page.id
        );
        floor = off + len;
    }
    assert!(
        floor <= PAGE_SIZE,
        "page {}: record runs to {floor}",
        page.id
    );
    let held: usize = live.iter().map(|(_, len)| len).sum();
    (free_ptr - slots_end, PAGE_SIZE - slots_end - held)
}

/// Audit every heap page; return the file's pages in use (not in the
/// free-page bitmap) and each heap page's `(room, free)`.
fn audit_file(e: &mut Engine) -> (usize, BTreeMap<u32, (usize, usize)>) {
    let pages = (e.logical_bytes().unwrap() / PAGE_SIZE as u64) as u32;
    let free_pages = e.fetch(0).unwrap().get_u32(30); // FORMAT.md §4
    let mut heap_pages = BTreeMap::new();
    for id in 1..pages {
        let page = e.fetch(id).unwrap();
        if page.page_type() == PageType::Heap {
            heap_pages.insert(id, audit_heap_page(&page));
        }
    }
    ((pages - free_pages) as usize, heap_pages)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Random inserts, updates and deletes cut into committed, aborted and
    /// crashed transactions. At every quiescent point: each committed
    /// record reads back byte for byte; every heap page is well formed; a
    /// free-space hint is exact unless an abort has made hints
    /// untrustworthy, and then no hint that overstates its page survives
    /// being used; and the file holds no more pages than a fixed multiple
    /// of the most live bytes it ever had to hold (a record pins its page —
    /// nothing relocates — so the bound is on the peak, not the present).
    #[test]
    fn heap_space_is_accounted_for(ops in prop::collection::vec(heap_ops(), 1..120)) {
        let (disk, log) = (MemDisk::new(), MemLogStore::new());
        let open = || Engine::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            EngineConfig { buffer_capacity: 32, ..EngineConfig::default() },
        ).unwrap();
        let data = |seed: u8, len: usize| -> Vec<u8> {
            (0..len).map(|j| (seed as usize).wrapping_add(j * 7) as u8).collect()
        };
        let mut e = open();
        let mut tx: Option<Tx> = None;
        let mut committed: Vec<(RecordPtr, Vec<u8>)> = Vec::new();
        let mut working = committed.clone();
        let mut aborted = false;
        let mut peak_live = 0usize;
        // A closing commit makes the last point quiescent too.
        for op in ops.iter().chain([&HeapOp::Commit]) {
            match op {
                HeapOp::Insert(..) | HeapOp::Update(..) | HeapOp::Delete(_) => {
                    if tx.is_none() {
                        tx = Some(e.begin().unwrap());
                    }
                    let tx = tx.as_mut().expect("just begun");
                    match *op {
                        HeapOp::Insert(seed, len) => {
                            let bytes = data(seed, len);
                            working.push((Heap.insert(&mut e, tx, &bytes).unwrap(), bytes));
                        }
                        HeapOp::Update(pick, seed, len) if !working.is_empty() => {
                            let victim = pick % working.len();
                            let bytes = data(seed, len);
                            let ptr = Heap.update(&mut e, tx, working[victim].0, &bytes).unwrap();
                            working[victim] = (ptr, bytes);
                        }
                        HeapOp::Delete(pick) if !working.is_empty() => {
                            let (ptr, _) = working.swap_remove(pick % working.len());
                            Heap.delete(&mut e, tx, ptr).unwrap();
                        }
                        _ => {}
                    }
                    continue;
                }
                HeapOp::Commit => {
                    if let Some(tx) = tx.take() {
                        e.commit(tx).unwrap();
                    }
                    committed = working.clone();
                }
                HeapOp::Abort => {
                    if let Some(tx) = tx.take() {
                        e.abort(tx).unwrap();
                        aborted = true;
                    }
                    working = committed.clone();
                }
                HeapOp::Crash => {
                    // Mid-transaction, with the partial work forced to the
                    // log so recovery has something to undo.
                    e.wal().unwrap().flush_all().unwrap();
                    tx = None;
                    e.crash();
                    log.crash();
                    e = open();
                    prop_assert!(Heap.hints(&mut e).is_empty());
                    aborted = false;
                    working = committed.clone();
                }
            }

            // Not after an abort: a read refreshes the hints of the pages
            // it crosses, and the ops that follow should meet the stale
            // ones. The next commit reads back what the abort restored.
            if !matches!(op, HeapOp::Abort) {
                for (ptr, bytes) in &committed {
                    prop_assert_eq!(&Heap.read(&mut e, *ptr).unwrap(), bytes);
                }
            }
            let (pages_in_use, heap_pages) = audit_file(&mut e);
            for (page, room, free) in Heap.hints(&mut e) {
                let truth = heap_pages.get(&page).copied();
                if !aborted {
                    prop_assert_eq!(truth, Some((room, free)), "hint for page {}", page);
                }
            }
            let live: usize = committed.iter().map(|(_, bytes)| bytes.len()).sum();
            peak_live = peak_live.max(live);
            prop_assert!(
                pages_in_use * PAGE_SIZE <= 3 * peak_live + 16 * PAGE_SIZE,
                "{} pages in use for a peak of {} live bytes", pages_in_use, peak_live
            );
        }

        // Use every hint that overstates its page: an insert sized to what
        // the hint promises either lands on a page that truly has it or
        // corrects the hint; none may overstate afterwards. (4 bytes of
        // slot and 7 of chunk header ride on every chunk.)
        for _ in 0..Heap.hints(&mut e).len() {
            let (_, heap_pages) = audit_file(&mut e);
            let overstated = Heap.hints(&mut e).into_iter().find(|(page, room, free)| {
                heap_pages.get(page).is_none_or(|truth| truth.0 < *room || truth.1 < *free)
            });
            let Some((page, room, free)) = overstated else { break };
            let room_lies = heap_pages.get(&page).is_none_or(|truth| truth.0 < room);
            let mut lens = Vec::new();
            if !room_lies {
                // Free bytes are consulted only once the bitmap has no
                // whole page left to give: take them all.
                let free_pages = e.fetch(0).unwrap().get_u32(30); // FORMAT.md §4
                lens.resize(free_pages as usize, 4065);
            }
            lens.push(if room_lies { room } else { free } - 11);
            let mut tx = e.begin().unwrap();
            for len in lens {
                let bytes = data(0, len);
                committed.push((Heap.insert(&mut e, &mut tx, &bytes).unwrap(), bytes));
            }
            e.commit(tx).unwrap();
        }
        let (_, heap_pages) = audit_file(&mut e);
        for (page, room, free) in Heap.hints(&mut e) {
            let truth = heap_pages.get(&page).copied().unwrap_or((0, 0));
            prop_assert!(truth.0 >= room && truth.1 >= free, "hint for page {} overstates", page);
        }
        for (ptr, bytes) in &committed {
            prop_assert_eq!(&Heap.read(&mut e, *ptr).unwrap(), bytes);
        }
    }

    /// The disk B-tree behaves exactly like std's BTreeMap, including
    /// through a tiny buffer pool (constant eviction).
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(tree_ops(), 1..300)) {
        let (mut e, _, _) = engine_with(8);
        let mut tx = e.begin().unwrap();
        let t = BTree::open(&mut e, &mut tx, 0).unwrap();
        let mut model: BTreeMap<u128, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let old = t.insert(&mut e, &mut tx, *k as u128, *v).unwrap();
                    prop_assert_eq!(old, model.insert(*k as u128, *v));
                }
                TreeOp::Delete(k) => {
                    let old = t.delete(&mut e, &mut tx, *k as u128).unwrap();
                    prop_assert_eq!(old, model.remove(&(*k as u128)));
                }
                TreeOp::Get(k) => {
                    let got = t.get(&mut e, *k as u128).unwrap();
                    prop_assert_eq!(got, model.get(&(*k as u128)).copied());
                }
            }
        }
        // Full scan equals the model.
        let mut scanned = Vec::new();
        t.scan(&mut e, 0, u128::MAX, |k, v| { scanned.push((k, v)); true }).unwrap();
        let want: Vec<(u128, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, want);
        e.commit(tx).unwrap();
    }

    /// Heap records of arbitrary sizes (spanning several pages) round-trip
    /// through interleaved inserts/deletes/updates.
    #[test]
    fn heap_roundtrips(specs in prop::collection::vec((any::<u8>(), 0..12_000usize), 1..30)) {
        let (mut e, _, _) = engine_with(64);
        let h = Heap;
        let mut tx = e.begin().unwrap();
        let mut live: Vec<(Vec<u8>, domino::storage::RecordPtr)> = Vec::new();
        for (i, (seed, len)) in specs.iter().enumerate() {
            let data: Vec<u8> = (0..*len).map(|j| (*seed as usize).wrapping_add(j) as u8).collect();
            let ptr = h.insert(&mut e, &mut tx, &data).unwrap();
            live.push((data, ptr));
            // Periodically delete or update an earlier record.
            if i % 3 == 2 && !live.is_empty() {
                let victim = i % live.len();
                let (_, ptr) = live.remove(victim);
                h.delete(&mut e, &mut tx, ptr).unwrap();
            } else if i % 5 == 4 && !live.is_empty() {
                let victim = i % live.len();
                let new_data: Vec<u8> = vec![*seed; (len / 2).max(1)];
                let new_ptr = h.update(&mut e, &mut tx, live[victim].1, &new_data).unwrap();
                live[victim] = (new_data, new_ptr);
            }
        }
        e.commit(tx).unwrap();
        for (data, ptr) in &live {
            prop_assert_eq!(&h.read(&mut e, *ptr).unwrap(), data);
        }
    }

    /// Crash anywhere: after restart, committed transactions are fully
    /// present and the in-flight one has fully vanished.
    #[test]
    fn crash_recovers_exactly_committed_state(
        committed_batches in prop::collection::vec(
            prop::collection::vec((any::<u16>(), any::<u64>()), 1..20), 0..6),
        in_flight in prop::collection::vec((any::<u16>(), any::<u64>()), 0..20),
        checkpoint_after in prop::option::of(0..6usize),
    ) {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let mut model: BTreeMap<u128, u64> = BTreeMap::new();
        {
            let mut e = Engine::open(
                Box::new(disk.clone()),
                Some(Box::new(log.clone())),
                EngineConfig { buffer_capacity: 16, ..EngineConfig::default() },
            ).unwrap();
            let mut tx0 = e.begin().unwrap();
            let t = BTree::open(&mut e, &mut tx0, 0).unwrap();
            e.commit(tx0).unwrap();
            for (bi, batch) in committed_batches.iter().enumerate() {
                let mut tx = e.begin().unwrap();
                for (k, v) in batch {
                    t.insert(&mut e, &mut tx, *k as u128, *v).unwrap();
                    model.insert(*k as u128, *v);
                }
                e.commit(tx).unwrap();
                if checkpoint_after == Some(bi) {
                    e.checkpoint().unwrap();
                }
            }
            // An uncommitted transaction that crashed mid-flight, with its
            // updates partially forced to the log.
            if !in_flight.is_empty() {
                let mut tx = e.begin().unwrap();
                for (k, v) in &in_flight {
                    t.insert(&mut e, &mut tx, *k as u128, *v).unwrap();
                }
                e.wal().unwrap().flush_all().unwrap();
                // crash without commit
            }
            e.crash();
            log.crash();
        }
        let mut e = Engine::open(
            Box::new(disk),
            Some(Box::new(log)),
            EngineConfig::default(),
        ).unwrap();
        let t = BTree::open_existing(&mut e, 0).unwrap();
        let mut scanned = Vec::new();
        t.scan(&mut e, 0, u128::MAX, |k, v| { scanned.push((k, v)); true }).unwrap();
        let want: Vec<(u128, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, want);
    }

    /// Abort is a perfect undo, byte for byte.
    #[test]
    fn abort_restores_pages(writes in prop::collection::vec(
        (1..40u32, 0..(PAGE_SIZE as u16 - 64), prop::collection::vec(any::<u8>(), 1..64)),
        1..40,
    )) {
        let (mut e, _, _) = engine_with(16);
        // Set up some pages with committed content.
        let mut tx = e.begin().unwrap();
        let mut pages = Vec::new();
        for _ in 0..40 {
            pages.push(e.alloc_page(&mut tx, domino::storage::PageType::Heap).unwrap());
        }
        e.commit(tx).unwrap();
        e.flush_all_pages().unwrap();
        let before: Vec<Vec<u8>> = pages
            .iter()
            .map(|p| e.fetch(*p).unwrap().bytes(16, PAGE_SIZE - 16).to_vec())
            .collect();

        let mut tx = e.begin().unwrap();
        for (pi, off, data) in &writes {
            let page = pages[(*pi as usize) % pages.len()];
            let off = (*off).max(16);
            let end = (off as usize + data.len()).min(PAGE_SIZE);
            e.write(&mut tx, page, off, &data[..end - off as usize]).unwrap();
        }
        e.abort(tx).unwrap();
        for (p, want) in pages.iter().zip(before.iter()) {
            let got = e.fetch(*p).unwrap().bytes(16, PAGE_SIZE - 16).to_vec();
            prop_assert_eq!(&got, want);
        }
    }
}
