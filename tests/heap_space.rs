//! The record heap keeps the file the size of its live data (FORMAT.md §6):
//! an update reuses the space its old version leaves, whole freed pages
//! survive a restart or a crash through the free-page bitmap, and a
//! free-space hint made stale by an abort is caught by re-checking the page.

use std::cell::RefCell;
use std::sync::Arc;

use domino::storage::{
    BTree, CrashDisk, CrashMode, Engine, EngineConfig, Heap, MemDisk, NoteStore, NsfFile, PageType,
    Segment, PAGE_SIZE,
};
use domino::types::{NoteId, ReplicaId};
use domino::wal::{FileLogStore, MemLogStore};

fn engine_over(
    disk: Box<dyn domino::storage::Disk>,
    log: Box<dyn domino::wal::LogStore>,
) -> Engine {
    Engine::open(disk, Some(log), EngineConfig::default()).unwrap()
}

fn open_store(e: &mut Engine) -> NoteStore {
    let mut tx = e.begin().unwrap();
    let store = NoteStore::open(e, &mut tx, ReplicaId(7)).unwrap();
    e.commit(tx).unwrap();
    store
}

fn bytes(seed: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((seed * 31 + j) % 251) as u8).collect()
}

/// Summary and body sizes of note `i`: bodies from a few hundred bytes to
/// three chunks, so full-page chunks and shared pages both occur.
fn sizes(i: usize) -> (usize, usize) {
    (200 + (i * 37) % 300, 300 + (i * 977) % 9000)
}

/// Save notes `1..=n`, one transaction each.
fn fill(e: &mut Engine, store: &NoteStore, n: usize) {
    for i in 1..=n {
        let (summary, body) = sizes(i);
        let mut tx = e.begin().unwrap();
        let id = NoteId(i as u32);
        store
            .put(e, &mut tx, id, Segment::Summary, &bytes(i, summary))
            .unwrap();
        store
            .put(e, &mut tx, id, Segment::Body, &bytes(i + 1, body))
            .unwrap();
        e.commit(tx).unwrap();
    }
}

fn assert_filled(e: &mut Engine, store: &NoteStore, n: usize) {
    for i in 1..=n {
        let (summary, body) = sizes(i);
        let id = NoteId(i as u32);
        let got = store.get(e, id, Segment::Summary).unwrap().unwrap();
        assert_eq!(got, bytes(i, summary), "summary of note {i}");
        let got = store.get(e, id, Segment::Body).unwrap().unwrap();
        assert_eq!(got, bytes(i + 1, body), "body of note {i}");
    }
}

#[test]
fn same_size_updates_do_not_grow_the_file() {
    let mut e = engine_over(Box::new(MemDisk::new()), Box::new(MemLogStore::new()));
    let store = open_store(&mut e);
    // Other notes' pages stand between the updated note and the end of
    // the file, as in any real database.
    fill(&mut e, &store, 100);
    let id = NoteId(1000);
    let update = |e: &mut Engine, round: usize| {
        let mut tx = e.begin().unwrap();
        store
            .put(e, &mut tx, id, Segment::Summary, &bytes(round, 300))
            .unwrap();
        store
            .put(e, &mut tx, id, Segment::Body, &bytes(round, 6144))
            .unwrap();
        e.commit(tx).unwrap();
    };
    update(&mut e, 0);
    let start = e.logical_bytes().unwrap();
    for round in 1..=2000 {
        update(&mut e, round);
    }
    let grown = e.logical_bytes().unwrap() - start;
    assert!(
        grown <= 2 * PAGE_SIZE as u64,
        "2000 same-size updates grew the file by {} pages",
        grown / PAGE_SIZE as u64
    );
    let body = store.get(&mut e, id, Segment::Body).unwrap().unwrap();
    assert_eq!(body, bytes(2000, 6144));
    assert_filled(&mut e, &store, 100);
}

/// Fill, delete every note, stop the engine with `stop`, reopen with
/// `open`, fill again: the second fill must fit in the pages the deletes
/// freed, which only the logged bitmap can still know about.
fn refill_extends_by_no_page(open: &dyn Fn() -> Engine, stop: &dyn Fn(Engine)) {
    const NOTES: usize = 150;
    let mut e = open();
    let store = open_store(&mut e);
    fill(&mut e, &store, NOTES);
    let full = e.logical_bytes().unwrap();
    for i in 1..=NOTES {
        let mut tx = e.begin().unwrap();
        assert!(store.remove(&mut e, &mut tx, NoteId(i as u32)).unwrap());
        e.commit(tx).unwrap();
    }
    assert!(e.stats().pages_freed > 0, "emptied pages go to the bitmap");
    assert_eq!(e.logical_bytes().unwrap(), full);
    stop(e);

    let mut e = open();
    let store = open_store(&mut e);
    assert!(Heap.hints(&mut e).is_empty(), "the hints are volatile");
    fill(&mut e, &store, NOTES);
    assert!(e.stats().pages_allocated > 0, "and come back out of it");
    assert_eq!(
        e.logical_bytes().unwrap(),
        full,
        "the refill extended the file by {} pages",
        (e.logical_bytes().unwrap() - full) / PAGE_SIZE as u64
    );
    assert_filled(&mut e, &store, NOTES);
}

#[test]
fn freed_pages_survive_a_clean_restart() {
    let (disk, log) = (MemDisk::new(), MemLogStore::new());
    refill_extends_by_no_page(
        &|| engine_over(Box::new(disk.clone()), Box::new(log.clone())),
        &|mut e| e.shutdown().unwrap(),
    );
}

#[test]
fn freed_pages_survive_a_crash() {
    // In memory: every frame and the unflushed log tail vanish.
    let (disk, log) = (MemDisk::new(), MemLogStore::new());
    refill_extends_by_no_page(
        &|| engine_over(Box::new(disk.clone()), Box::new(log.clone())),
        &|e| {
            e.crash();
            log.crash();
        },
    );

    // On disk: the OS cache drops every page write the engine never synced.
    let dir = std::env::temp_dir().join(format!("domino-heap-space-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache: RefCell<Option<Arc<CrashDisk<NsfFile>>>> = RefCell::new(None);
    refill_extends_by_no_page(
        &|| {
            let disk = Arc::new(CrashDisk::new(
                NsfFile::open(&dir.join("data.nsf")).unwrap(),
            ));
            *cache.borrow_mut() = Some(Arc::clone(&disk));
            let log = FileLogStore::open(&dir.join("data.txn")).unwrap();
            engine_over(Box::new(disk), Box::new(log))
        },
        &|e| {
            e.crash();
            let disk = cache.borrow_mut().take().expect("opened");
            disk.crash(CrashMode::DropUnsynced).unwrap();
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hint_left_stale_by_an_abort_is_caught_at_the_page() {
    let mut e = engine_over(Box::new(MemDisk::new()), Box::new(MemLogStore::new()));
    let hint_of = |e: &mut Engine, page| Heap.hints(e).into_iter().find(|h| h.0 == page);

    // A page with one committed record and a truthful hint.
    let mut tx = e.begin().unwrap();
    let kept = Heap.insert(&mut e, &mut tx, &bytes(1, 1000)).unwrap();
    e.commit(tx).unwrap();
    let (_, room, _) = hint_of(&mut e, kept.page).expect("placing a record hints its page");

    // The aborted transaction empties the page (it goes to the bitmap),
    // gets it straight back for a smaller record, and hints the larger
    // room that leaves. The abort restores the page, not the hint.
    let mut tx = e.begin().unwrap();
    Heap.delete(&mut e, &mut tx, kept).unwrap();
    let small = Heap.insert(&mut e, &mut tx, &bytes(2, 500)).unwrap();
    assert_eq!(
        small.page, kept.page,
        "the freed page is the first free bit"
    );
    e.abort(tx).unwrap();
    let (_, stale, _) = hint_of(&mut e, kept.page).unwrap();
    assert!(stale > room, "the hint now overstates the page's room");

    // A chunk the hint has room for and the page has not must not land
    // there: it would run over the committed record.
    let mut tx = e.begin().unwrap();
    let big = Heap.insert(&mut e, &mut tx, &bytes(3, stale - 16)).unwrap();
    e.commit(tx).unwrap();
    assert_ne!(big.page, kept.page);
    assert_eq!(hint_of(&mut e, kept.page).unwrap().1, room, "corrected");
    assert_eq!(Heap.read(&mut e, kept).unwrap(), bytes(1, 1000));
    assert_eq!(Heap.read(&mut e, big).unwrap(), bytes(3, stale - 16));

    // An aborted insert that extended the file leaves a hint for a page
    // that no longer exists — and that the next allocation hands to a
    // B-tree.
    let mut tx = e.begin().unwrap();
    let ghost = Heap.insert(&mut e, &mut tx, &bytes(4, 4000)).unwrap();
    e.abort(tx).unwrap();
    let (_, ghost_room, _) = hint_of(&mut e, ghost.page).expect("hint outlives the abort");
    let mut tx = e.begin().unwrap();
    let tree = BTree::open(&mut e, &mut tx, 5).unwrap();
    for k in 0..100u128 {
        tree.insert(&mut e, &mut tx, k, k as u64 * 3).unwrap();
    }
    e.commit(tx).unwrap();
    let leaf = e.fetch(ghost.page).unwrap();
    assert_eq!(leaf.page_type(), PageType::BTreeLeaf);

    // The tightest fit for this chunk is the ghost hint.
    let mut tx = e.begin().unwrap();
    let len = ghost_room - 16;
    let after = Heap.insert(&mut e, &mut tx, &bytes(5, len)).unwrap();
    e.commit(tx).unwrap();
    assert_ne!(after.page, ghost.page);
    assert_eq!(hint_of(&mut e, ghost.page), None, "dropped on use");
    assert_eq!(
        e.fetch(ghost.page).unwrap().data,
        leaf.data,
        "leaf untouched"
    );
    for k in 0..100u128 {
        assert_eq!(tree.get(&mut e, k).unwrap(), Some(k as u64 * 3));
    }
    assert_eq!(Heap.read(&mut e, after).unwrap(), bytes(5, len));
}
