//! Property: every reader's view of a note is the engine's, whatever
//! the write path did. Saves, deletes, stub purges, pulls that conflict,
//! a lazy reopen, pinned snapshots, batches and observers that come and
//! go are interleaved at random. After every step:
//!
//! * for every UNID, the version map's head (`open_note`) is the engine's
//!   record (`stored_note`), or both are absent;
//! * every pinned snapshot still reads what the engine held when it was
//!   pinned;
//! * replaying each observer's events over the state it subscribed at
//!   gives the current state, and each event's `old` is the state it
//!   replaces (for a deletion, whenever the observer held the note).
//!
//! A commit takes the record it replaces from the version map when it
//! can, so a map that drifted from the engine shows up here as a mismatch
//! at the step that made it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use domino::core::{ChangeEvent, Database, DbConfig, Note, Snapshot, Subscription, MERKLE_BUCKETS};
use domino::replica::{ReplicationOptions, Replicator};
use domino::storage::MemDisk;
use domino::types::{DominoError, LogicalClock, NoteId, ReplicaId, Timestamp, Unid, Value};
use domino::wal::MemLogStore;

const PURGE_INTERVAL: u64 = 40;

/// A write that can also run inside a batch.
#[derive(Debug, Clone)]
enum Write {
    Create {
        p: u8,
        body: bool,
    },
    /// Edit document `d` (modulo the live ones); `body` sets or drops
    /// the rich-text body.
    Edit {
        d: usize,
        p: u8,
        body: bool,
    },
    /// Save a summary-only copy of document `d`, as a view row holds it:
    /// an elided body is dropped without ever being read.
    Retitle {
        d: usize,
        p: u8,
    },
    Delete {
        d: usize,
    },
    /// Pin a snapshot and remember what the engine holds.
    Pin,
}

#[derive(Debug, Clone)]
enum Op {
    Write(Write),
    /// Several writes under one batch guard.
    Batch(Vec<Write>),
    /// Advance the clock past the purge interval and purge stubs.
    Purge,
    /// Edit (or create) a document on the peer replica.
    PeerEdit {
        d: usize,
        p: u8,
    },
    /// Pull the peer into the database: divergent edits conflict.
    Pull,
    /// Pull the database into the peer, so the peer edits shared notes.
    Push,
    /// Shut down and reopen, so notes with a body come back elided, then
    /// run `writes` and maybe a pull before any check reads a body: the
    /// commits meet elided versions.
    Reopen {
        writes: Vec<Write>,
        pull: bool,
    },
    Unpin {
        s: usize,
    },
    Subscribe,
    Unsubscribe {
        o: usize,
    },
}

fn a_write() -> impl Strategy<Value = Write> {
    // Listed twice: an edit is twice as likely as any other write.
    prop_oneof![
        (any::<u8>(), any::<bool>()).prop_map(|(p, body)| Write::Create { p, body }),
        (0..32usize, any::<u8>(), any::<bool>()).prop_map(|(d, p, body)| Write::Edit {
            d,
            p,
            body
        }),
        (0..32usize, any::<u8>(), any::<bool>()).prop_map(|(d, p, body)| Write::Edit {
            d,
            p,
            body
        }),
        (0..32usize, any::<u8>()).prop_map(|(d, p)| Write::Retitle { d, p }),
        (0..32usize).prop_map(|d| Write::Delete { d }),
        Just(Write::Pin),
    ]
}

fn an_op() -> impl Strategy<Value = Op> {
    // Listed three times: most steps are single writes.
    prop_oneof![
        a_write().prop_map(Op::Write),
        a_write().prop_map(Op::Write),
        a_write().prop_map(Op::Write),
        prop::collection::vec(a_write(), 1..6).prop_map(Op::Batch),
        Just(Op::Purge),
        (0..32usize, any::<u8>()).prop_map(|(d, p)| Op::PeerEdit { d, p }),
        Just(Op::Pull),
        Just(Op::Push),
        (prop::collection::vec(a_write(), 0..6), any::<bool>())
            .prop_map(|(writes, pull)| Op::Reopen { writes, pull }),
        (0..8usize).prop_map(|s| Op::Unpin { s }),
        Just(Op::Subscribe),
        (0..4usize).prop_map(|o| Op::Unsubscribe { o }),
    ]
}

/// Equal as stored: same id and the same segment encodings. (A note in
/// memory keeps its items in the order they were set; one decoded from
/// the engine has its summary items first.)
fn same(a: &Note, b: &Note) -> bool {
    a.id == b.id && a.encode_summary() == b.encode_summary() && a.encode_body() == b.encode_body()
}

fn same_opt(a: Option<&Note>, b: Option<&Note>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// What the engine holds under `unid`: the live note, or `None` for a
/// stub or nothing.
fn engine_note(db: &Database, unid: Unid) -> Option<Note> {
    let id = db.id_of_unid(unid).unwrap()?;
    match db.stored_note(id) {
        Ok(note) => Some(note),
        Err(DominoError::NotFound(_)) => None,
        Err(e) => panic!("stored_note({id}): {e}"),
    }
}

/// Every live note, by UNID, as snapshot reads see it now.
fn live(db: &Database) -> BTreeMap<Unid, Note> {
    let snap = db.snapshot();
    snap.note_ids(None)
        .into_iter()
        .map(|id| {
            let note = snap.open_note(id).unwrap();
            (note.unid(), note)
        })
        .collect()
}

/// An observer's replayed notes and the mismatches it met.
type Replayed = (BTreeMap<Unid, Note>, Vec<String>);

/// A subscribed observer's replayed state.
struct Watcher {
    state: Arc<Mutex<Replayed>>,
    _feed: Subscription,
}

impl Watcher {
    fn subscribe(db: &Database) -> Watcher {
        let state = Arc::new(Mutex::new((live(db), Vec::new())));
        let sink = Arc::clone(&state);
        let feed = db.subscribe(move |events: &[ChangeEvent]| {
            let mut guard = sink.lock().unwrap();
            let (notes, errors) = &mut *guard;
            for event in events {
                match event {
                    ChangeEvent::Saved { old, new } => {
                        let unid = new.unid();
                        if !same_opt(notes.get(&unid), old.as_ref()) {
                            errors.push(format!(
                                "saved {unid}: old {old:?} is not the replayed {:?}",
                                notes.get(&unid)
                            ));
                        }
                        notes.insert(unid, new.clone());
                    }
                    // A note created inside a coalesced slice is deleted
                    // without the watcher ever holding it.
                    ChangeEvent::Deleted { old, .. } => {
                        let unid = old.unid();
                        if let Some(held) = notes.remove(&unid) {
                            if !same(&held, old) {
                                errors.push(format!(
                                    "deleted {unid}: old {old:?} is not the replayed {held:?}"
                                ));
                            }
                        }
                    }
                }
            }
        });
        Watcher { state, _feed: feed }
    }
}

/// A pinned snapshot and what the engine held for each UNID at the pin.
struct Pinned {
    snap: Snapshot,
    expected: Vec<(Unid, Option<Note>)>,
}

struct World {
    disk: MemDisk,
    log: MemLogStore,
    clock: LogicalClock,
    db: Database,
    peer: Database,
    repl: Replicator,
    /// Every UNID the database has ever held.
    unids: BTreeSet<Unid>,
    pins: Vec<Pinned>,
    watchers: Vec<Watcher>,
}

impl World {
    fn new() -> World {
        let (disk, log, clock) = (MemDisk::new(), MemLogStore::new(), LogicalClock::new());
        let db = World::open(&disk, &log, &clock);
        let peer = Database::open_in_memory(
            DbConfig::new("WritePath", ReplicaId(5), ReplicaId(62)),
            LogicalClock::starting_at(Timestamp(7)),
        )
        .unwrap();
        World {
            disk,
            log,
            clock,
            db,
            peer,
            repl: Replicator::new(ReplicationOptions::default()),
            unids: BTreeSet::new(),
            pins: Vec::new(),
            watchers: Vec::new(),
        }
    }

    fn open(disk: &MemDisk, log: &MemLogStore, clock: &LogicalClock) -> Database {
        let config = DbConfig::new("WritePath", ReplicaId(5), ReplicaId(61))
            .with_purge_interval(PURGE_INTERVAL);
        Database::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            config,
            clock.clone(),
        )
        .unwrap()
    }

    fn pick(db: &Database, d: usize) -> Option<NoteId> {
        let ids = db.note_ids(None).unwrap();
        (!ids.is_empty()).then(|| ids[d % ids.len()])
    }

    /// Pull the peer into the database and learn the UNIDs it brought
    /// from the Merkle summary (notes and stubs; no body is read).
    fn pull(&mut self) {
        self.repl.pull(&self.db, &self.peer).unwrap();
        for b in 0..MERKLE_BUCKETS {
            let entries = self.db.merkle_bucket_entries(b);
            self.unids.extend(entries.into_iter().map(|(unid, _)| unid));
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Write(w) => write(&self.db, &mut self.unids, &mut self.pins, w),
            Op::Batch(writes) => {
                let _batch = self.db.begin_batch();
                for w in writes {
                    write(&self.db, &mut self.unids, &mut self.pins, w);
                    check_reads(&self.db, &self.unids, &self.pins);
                }
            }
            Op::Purge => {
                self.clock.advance(PURGE_INTERVAL * 2);
                self.db.purge_stubs().unwrap();
            }
            Op::PeerEdit { d, p } => {
                let mut n = match World::pick(&self.peer, *d) {
                    Some(id) if d % 3 != 0 => self.peer.open_note(id).unwrap(),
                    _ => Note::document("Memo"),
                };
                n.set("Peer", Value::Number(*p as f64));
                self.peer.save(&mut n).unwrap();
            }
            Op::Pull => self.pull(),
            Op::Push => {
                self.repl.pull(&self.peer, &self.db).unwrap();
            }
            Op::Reopen { writes, pull } => {
                // Observers and snapshots belong to the database they
                // were made on: check them one last time, then let go.
                check_watchers(&self.db, &self.watchers);
                self.watchers.clear();
                self.pins.clear();
                self.db.shutdown().unwrap();
                self.db = World::open(&self.disk, &self.log, &self.clock);
                // A pin over the elided versions, then writes over them.
                write(&self.db, &mut self.unids, &mut self.pins, &Write::Pin);
                for w in writes {
                    write(&self.db, &mut self.unids, &mut self.pins, w);
                }
                if *pull {
                    self.pull();
                }
            }
            Op::Unpin { s } => {
                if !self.pins.is_empty() {
                    let s = s % self.pins.len();
                    self.pins.remove(s);
                }
            }
            Op::Subscribe => self.watchers.push(Watcher::subscribe(&self.db)),
            Op::Unsubscribe { o } => {
                if !self.watchers.is_empty() {
                    let o = o % self.watchers.len();
                    self.watchers.remove(o);
                }
            }
        }
    }
}

fn write(db: &Database, unids: &mut BTreeSet<Unid>, pins: &mut Vec<Pinned>, w: &Write) {
    match *w {
        Write::Create { p, body } => {
            let mut n = Note::document("Memo");
            fill(&mut n, p, body);
            db.save(&mut n).unwrap();
            unids.insert(n.unid());
        }
        Write::Edit { d, p, body } => {
            let Some(id) = World::pick(db, d) else { return };
            let mut n = db.open_note(id).unwrap();
            fill(&mut n, p, body);
            db.save(&mut n).unwrap();
        }
        Write::Retitle { d, p } => {
            let docs = db.snapshot().document_summaries();
            if docs.is_empty() {
                return;
            }
            let mut n = (*docs[d % docs.len()]).clone();
            n.set("Payload", Value::Number(p as f64));
            db.save(&mut n).unwrap();
        }
        Write::Delete { d } => {
            if let Some(id) = World::pick(db, d) {
                db.delete(id).unwrap();
            }
        }
        Write::Pin => {
            let snap = db.snapshot();
            let expected = unids.iter().map(|&u| (u, engine_note(db, u))).collect();
            pins.push(Pinned { snap, expected });
        }
    }
}

/// Set the payload, and set or drop the body.
fn fill(n: &mut Note, p: u8, body: bool) {
    n.set("Payload", Value::Number(p as f64));
    if body {
        n.set_body("Body", Value::RichText(vec![p; 64 + p as usize]));
    } else {
        n.remove("Body");
    }
}

/// Heads equal the engine for every UNID; pinned snapshots read what
/// the engine held at their pin.
fn check_reads(db: &Database, unids: &BTreeSet<Unid>, pins: &[Pinned]) {
    for &unid in unids {
        let stored = engine_note(db, unid);
        let head = match db.open_by_unid(unid) {
            Ok(note) => Some(note),
            Err(DominoError::NotFound(_)) => None,
            Err(e) => panic!("open_by_unid({unid}): {e}"),
        };
        assert!(
            same_opt(head.as_ref(), stored.as_ref()),
            "{unid}: version map {head:?} but engine {stored:?}"
        );
        if let Some(note) = &head {
            assert!(same(&db.open_note(note.id).unwrap(), note));
        }
    }
    for (i, pin) in pins.iter().enumerate() {
        for (unid, expected) in &pin.expected {
            let seen = pin.snap.open_arc_by_unid(*unid).unwrap();
            assert!(
                same_opt(seen.as_deref(), expected.as_ref()),
                "snapshot {i} at seq {}: {unid} reads {seen:?}, pinned {expected:?}",
                pin.snap.seq()
            );
        }
    }
}

/// Every observer's replayed state is the current state.
fn check_watchers(db: &Database, watchers: &[Watcher]) {
    let now = live(db);
    for (i, w) in watchers.iter().enumerate() {
        let guard = w.state.lock().unwrap();
        let (notes, errors) = &*guard;
        assert!(errors.is_empty(), "observer {i}: {errors:?}");
        assert_eq!(
            notes.keys().collect::<Vec<_>>(),
            now.keys().collect::<Vec<_>>(),
            "observer {i} holds other UNIDs"
        );
        for (unid, note) in &now {
            assert!(same(&notes[unid], note), "observer {i}: {unid} differs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn every_read_agrees_with_the_engine_after_every_step(
        ops in prop::collection::vec(an_op(), 1..40),
    ) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
            check_reads(&world.db, &world.unids, &world.pins);
            check_watchers(&world.db, &world.watchers);
        }
    }
}
