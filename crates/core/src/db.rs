//! The Notes database: notes + design + ACL + deletion stubs in one store.
//!
//! A [`Database`] owns a storage engine (with WAL), a [`NoteStore`], and a
//! clock. It is identified two ways, as in Domino:
//!
//! * the **replica id** — shared by every replica of the *same* database;
//!   replication refuses to pair databases with different replica ids,
//! * the **instance id** — unique per physical replica; it seeds UNID and
//!   note-id generation so ids never collide across replicas.
//!
//! Deleting a note leaves a [`DeletionStub`] carrying the note's UNID and a
//! bumped sequence number, so the deletion itself replicates; stubs are
//! purged after the database's *purge interval* (E8 reproduces the classic
//! anomaly when that interval is shorter than the replication interval).
//!
//! The change feed is how view indexes, the full-text index and cluster
//! push stay incremental. Each commit queues its change while it still
//! holds the engine mutex, so the queue is in commit order; the queue
//! shares the committed notes with the version map. One thread at a time
//! drains the queue and hands each slice, as [`ChangeEvent`]s, to every
//! observer ([`Database::subscribe`]; its [`Subscription`] owns it) in
//! registration order. Events are built only when a live observer is
//! there to read them, outside the engine mutex: a superseded note that no
//! snapshot holds is moved into its event, and only the new note is
//! copied. A `save`/`delete` returns once its event has
//! reached every observer; one made from inside an observer (a cluster
//! push into a mate) only queues, and the draining thread delivers it.
//! Bulk writers wrap their work in [`Database::begin_batch`]: delivery is
//! held back until the outermost guard drops, then the queue is coalesced
//! (last write per UNID wins, with the surviving event's `old` patched to
//! the pre-batch state) so a view index evaluates a thousand-save import
//! as one slice.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use domino_formula::{EvalEnv, Formula};
use domino_obs as obs;
use domino_security::Acl;
use domino_storage::{Engine, EngineConfig, MemDisk, NoteStore, Segment, Tx};
use domino_types::{
    Clock, DominoError, ItemFlags, LogicalClock, NoteClass, NoteId, Oid, ReplicaId, Result,
    Timestamp, Unid, Value,
};
use domino_wal::MemLogStore;

use crate::merkle::MerkleSummary;
use crate::mvcc::{Snapshot, SnapshotStats, VersionStore};
use crate::note::{record_is_stub, DeletionStub, Note, ITEM_TITLE};
use crate::revision;

use domino_types::ContentHash;

/// User slot holding the shared replica (lineage) id.
const SLOT_LINEAGE: usize = 2;
/// User slot holding the purge interval in ticks.
const SLOT_PURGE: usize = 3;
/// User slot holding the note id of the ACL note in force (0 = none).
const SLOT_ACL_NOTE: usize = 4;

/// Default purge interval (ticks). Domino defaults to 90 days of its
/// replication-cutoff setting; any value works with the logical clock.
pub const DEFAULT_PURGE_INTERVAL: u64 = 1_000_000;

/// A change applied to the database.
#[derive(Debug, Clone)]
pub enum ChangeEvent {
    /// A note was created or updated. `old` is `None` for creations.
    Saved { old: Option<Note>, new: Note },
    /// A note was deleted, leaving `stub`.
    Deleted { old: Note, stub: DeletionStub },
}

type Observer = dyn Fn(&[ChangeEvent]) + Send + Sync;

/// Owns what [`Database::subscribe`] registered; the feed holds it weakly.
/// Dropping this takes no lock; a call already running finishes.
#[must_use = "dropping a Subscription ends its observer's deliveries"]
pub struct Subscription {
    _observer: Arc<Observer>,
}

thread_local! {
    /// Observer calls running on this thread. A commit made inside one
    /// queues its event and returns: waiting there would deadlock two
    /// cluster mates pushing into each other.
    static IN_OBSERVER: Cell<u32> = const { Cell::new(0) };
}

/// A committed change as the feed queues it: the notes are the `Arc`s
/// the commit published, turned into a [`ChangeEvent`] only for a live
/// observer.
enum Change {
    Saved {
        old: Option<Arc<Note>>,
        new: Arc<Note>,
    },
    Deleted {
        old: Arc<Note>,
        stub: DeletionStub,
    },
}

impl Change {
    fn unid(&self) -> Unid {
        match self {
            Change::Saved { new, .. } => new.unid(),
            Change::Deleted { old, .. } => old.unid(),
        }
    }

    /// The event observers read. A note no one else holds (a superseded
    /// version that no snapshot pins) is moved, not copied.
    fn into_event(self) -> ChangeEvent {
        match self {
            Change::Saved { old, new } => ChangeEvent::Saved {
                old: old.map(Arc::unwrap_or_clone),
                new: Arc::unwrap_or_clone(new),
            },
            Change::Deleted { old, stub } => ChangeEvent::Deleted {
                old: Arc::unwrap_or_clone(old),
                stub,
            },
        }
    }
}

/// The change feed: committed changes not yet delivered, in commit order,
/// and who is delivering them.
#[derive(Default)]
struct Feed {
    observers: Arc<Vec<Weak<Observer>>>,
    queue: Vec<Change>,
    /// Events ever queued; the last one queued is event number `queued`.
    queued: u64,
    /// Events every observer has had. Delivery is FIFO, so these are
    /// events `1..=delivered`.
    delivered: u64,
    /// Open batch guards; delivery is held back while > 0.
    batch_depth: u32,
    /// A thread is delivering; at most one is.
    draining: bool,
    /// Callers parked until their event is delivered.
    waiting: u32,
}

/// RAII handle for a change batch: delivery is held back while it lives,
/// and the outermost drop delivers the queue coalesced. Nesting is allowed
/// — inner guards extend the outer batch.
pub struct BatchGuard<'a> {
    db: &'a Database,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        let last = {
            let mut f = self.db.feed.lock();
            f.batch_depth -= 1;
            (f.batch_depth == 0).then_some(f.queued)
        };
        if let Some(last) = last {
            self.db.deliver_through(last);
        }
    }
}

/// Collapse a drained queue — a batch, or commits that queued while one
/// slice was being delivered — to one event per UNID: the last event wins
/// (in last-occurrence order), and a surviving event gets its `old`
/// patched to the note's state before the slice, so replaying the
/// coalesced slice moves observers from the state before it to the state
/// after it exactly as replaying every event would. A `Deleted` for a
/// note created inside the slice survives as-is; removing a never-seen
/// note is a no-op for observers.
fn coalesce(changes: Vec<Change>) -> Vec<Change> {
    if changes.len() <= 1 {
        return changes;
    }
    let mut first_prior: HashMap<Unid, Option<Arc<Note>>> = HashMap::new();
    let mut last_idx: HashMap<Unid, usize> = HashMap::new();
    for (i, c) in changes.iter().enumerate() {
        let prior = match c {
            Change::Saved { old, .. } => old.clone(),
            Change::Deleted { old, .. } => Some(Arc::clone(old)),
        };
        first_prior.entry(c.unid()).or_insert(prior);
        last_idx.insert(c.unid(), i);
    }
    let mut out = Vec::with_capacity(last_idx.len());
    for (i, c) in changes.into_iter().enumerate() {
        let unid = c.unid();
        if last_idx[&unid] != i {
            continue;
        }
        out.push(match c {
            Change::Saved { new, .. } => Change::Saved {
                old: first_prior.remove(&unid).flatten(),
                new,
            },
            Change::Deleted { old, stub } => Change::Deleted {
                old: first_prior.remove(&unid).flatten().unwrap_or(old),
                stub,
            },
        });
    }
    out
}

/// One replication candidate as the source holds it: a live note, shared
/// with the snapshot it was read from, or a deletion stub.
#[derive(Debug)]
pub enum Candidate {
    Note(Arc<Note>),
    Stub(DeletionStub),
}

impl Candidate {
    /// `(seq_time, unid)`: the order a pull ships its candidates and its
    /// cursor resumes in, a total order both replicas agree on.
    pub fn position(&self) -> (Timestamp, u128) {
        let oid = match self {
            Candidate::Note(note) => note.oid,
            Candidate::Stub(stub) => stub.oid,
        };
        (oid.seq_time, oid.unid.0)
    }
}

/// Configuration for opening a database.
#[derive(Clone)]
pub struct DbConfig {
    pub title: String,
    /// Lineage id shared by all replicas of this database.
    pub replica_id: ReplicaId,
    /// Unique id of this physical replica.
    pub instance_id: ReplicaId,
    pub purge_interval: u64,
    pub engine: EngineConfig,
}

impl DbConfig {
    pub fn new(title: &str, replica_id: ReplicaId, instance_id: ReplicaId) -> DbConfig {
        DbConfig {
            title: title.to_string(),
            replica_id,
            instance_id,
            purge_interval: DEFAULT_PURGE_INTERVAL,
            engine: EngineConfig::default(),
        }
    }

    pub fn with_purge_interval(mut self, ticks: u64) -> DbConfig {
        self.purge_interval = ticks;
        self
    }

    pub fn with_engine(mut self, engine: EngineConfig) -> DbConfig {
        self.engine = engine;
        self
    }
}

/// Engine state: everything the writer's mutex guards.
struct DbInner {
    engine: Engine,
    store: NoteStore,
    unid_counter: u16,
}

/// A Notes database. Thread-safe; share via `Arc<Database>`.
///
/// Concurrency model (DESIGN.md §concurrency): every note mutation runs
/// under the `inner` engine mutex and publishes its committed state into
/// `versions` before releasing it; same-note races are settled there by
/// the sequence-number check in [`Database::save`], and between a local
/// save and a pull by the replicator's decision inside
/// [`Database::apply_replicated`]. Every live-note read pins a
/// [`Snapshot`] from `versions` and never touches the engine mutex; only
/// deletion stubs and [`Database::stored_note`] are read under it. Lock
/// order is `inner` → version map, Merkle summary, change feed.
pub struct Database {
    inner: Arc<Mutex<DbInner>>,
    title: String,
    replica_id: ReplicaId,
    instance_id: ReplicaId,
    purge_interval: AtomicU64,
    /// Per-user read marks. Per-replica state: never stored, never
    /// replicated.
    read_marks: Mutex<HashMap<String, HashSet<Unid>>>,
    feed: Mutex<Feed>,
    /// Signalled when events are delivered or the drainer stops, if
    /// anyone waits on `feed`.
    feed_progress: Condvar,
    clock: LogicalClock,
    versions: Arc<VersionStore>,
    /// Merkle summary over UNID space (`root → buckets → (unid, head)`),
    /// updated in the same critical section that publishes each commit
    /// into `versions` — so the digests always describe a committed
    /// prefix of the change sequence.
    merkle: Mutex<MerkleSummary>,
}

impl Database {
    /// Open an in-memory database (fresh MemDisk + MemLogStore).
    pub fn open_in_memory(config: DbConfig, clock: LogicalClock) -> Result<Database> {
        Database::open(
            Box::new(MemDisk::new()),
            Some(Box::new(MemLogStore::new())),
            config,
            clock,
        )
    }

    /// Open a real on-disk database: the single NSF file at `path` plus
    /// its transaction log as a sibling file with a `.txn` extension
    /// (Domino keeps its log outside the NSF too; the log's header names
    /// its first retained LSN, where restart begins). If the database
    /// crashed, the on-disk log tail is replayed here and exactly the
    /// committed prefix survives.
    pub fn open_path(
        path: &std::path::Path,
        config: DbConfig,
        clock: LogicalClock,
    ) -> Result<Database> {
        let disk = domino_storage::NsfFile::open(path)?;
        let log = domino_wal::FileLogStore::open(&path.with_extension("txn"))?;
        Database::open(Box::new(disk), Some(Box::new(log)), config, clock)
    }

    /// Open over explicit disk/log stores (used for crash/reopen tests and
    /// file-backed databases).
    pub fn open(
        disk: Box<dyn domino_storage::Disk>,
        log: Option<Box<dyn domino_wal::LogStore>>,
        config: DbConfig,
        clock: LogicalClock,
    ) -> Result<Database> {
        let mut engine = Engine::open(disk, log, config.engine.clone())?;
        let (store, replica_id, purge_interval, instance_id) =
            DbInner::transact(&mut engine, |engine, tx| {
                let store = NoteStore::open(engine, tx, config.instance_id)?;
                // Persist lineage + purge settings on first open.
                if engine.user_slot(SLOT_LINEAGE)? == 0 {
                    engine.set_user_slot(tx, SLOT_LINEAGE, config.replica_id.0)?;
                    engine.set_user_slot(tx, SLOT_PURGE, config.purge_interval)?;
                }
                let replica_id = ReplicaId(engine.user_slot(SLOT_LINEAGE)?);
                let purge_interval = engine.user_slot(SLOT_PURGE)?;
                Ok((store, replica_id, purge_interval, store.replica_id(engine)?))
            })?;

        let mut inner = DbInner {
            engine,
            store,
            unid_counter: 0,
        };

        // Seed the version map with pre-existing engine state at seq 0,
        // so snapshots of a reopened (or crash-recovered) database see
        // everything that survived — and the Merkle summary with every
        // surviving head (live notes *and* deletion stubs). Both the
        // Merkle head and the snapshot identity of a note derive entirely
        // from its summary items (revision chain, OID, truncation marker
        // are all summary), so only the summary segment is read here — a
        // body-heavy database opens without touching one body page — and
        // notes with a stored body segment are marked elided for
        // read-time hydration.
        let versions = Arc::new(VersionStore::new());
        let mut merkle = MerkleSummary::new();
        let mut ids = Vec::new();
        inner.store.for_each_note(&mut inner.engine, |id| {
            ids.push(id);
            true
        })?;
        for id in ids {
            let Some(bytes) = inner.store.get(&mut inner.engine, id, Segment::Summary)? else {
                continue;
            };
            if record_is_stub(&bytes) {
                let stub = DeletionStub::decode(id, &bytes)?;
                merkle.set_head(stub.oid.unid, Some(revision::stub_head(&stub.oid)));
                continue;
            }
            let note = Note::decode(id, &bytes, None)?;
            let elided = inner
                .store
                .has_segment(&mut inner.engine, id, Segment::Body)?;
            merkle.set_head(note.unid(), Some(revision::merkle_head(&note)));
            versions.seed(note.unid(), id, Arc::new(note), elided);
        }
        versions.set_acl_note(inner.engine.user_slot(SLOT_ACL_NOTE)?);

        let inner = Arc::new(Mutex::new(inner));
        let loader_inner = Arc::clone(&inner);
        versions.set_body_loader(Arc::new(move |id| loader_inner.lock().load(id)));

        Ok(Database {
            inner,
            title: config.title,
            replica_id,
            instance_id,
            purge_interval: AtomicU64::new(purge_interval),
            read_marks: Mutex::new(HashMap::new()),
            feed: Mutex::new(Feed::default()),
            feed_progress: Condvar::new(),
            clock,
            versions,
            merkle: Mutex::new(merkle),
        })
    }

    // ------------------------------------------------------------------
    // identity & configuration
    // ------------------------------------------------------------------

    pub fn title(&self) -> String {
        self.title.clone()
    }

    /// Lineage id (same across all replicas of this database).
    pub fn replica_id(&self) -> ReplicaId {
        self.replica_id
    }

    /// This physical replica's unique id.
    pub fn instance_id(&self) -> ReplicaId {
        self.instance_id
    }

    pub fn purge_interval(&self) -> u64 {
        self.purge_interval.load(Ordering::Relaxed)
    }

    pub fn set_purge_interval(&self, ticks: u64) -> Result<()> {
        DbInner::transact(&mut self.inner.lock().engine, |engine, tx| {
            engine.set_user_slot(tx, SLOT_PURGE, ticks)
        })?;
        self.purge_interval.store(ticks, Ordering::Relaxed);
        Ok(())
    }

    /// The database clock (shared; replication observes remote stamps
    /// through it).
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Register a change observer (views, full-text index, cluster
    /// replicator) while the returned [`Subscription`] lives. It receives
    /// every committed change, in commit order, as slices: usually one
    /// event per commit, a coalesced slice after [`Database::begin_batch`].
    /// Observers run one after another in registration order, on whichever
    /// thread is draining the feed, outside the engine mutex. Events
    /// committed before the call but not yet delivered reach it too.
    pub fn subscribe(&self, f: impl Fn(&[ChangeEvent]) + Send + Sync + 'static) -> Subscription {
        let observer: Arc<Observer> = Arc::new(f);
        let mut feed = self.feed.lock();
        let observers = Arc::make_mut(&mut feed.observers);
        observers.retain(|o| o.strong_count() > 0);
        observers.push(Arc::downgrade(&observer));
        Subscription {
            _observer: observer,
        }
    }

    /// Hold delivery back: events from every save/delete made while the
    /// returned guard lives are coalesced (last write per UNID wins) and
    /// delivered to observers together when the guard drops. Guards nest;
    /// the outermost drop delivers.
    pub fn begin_batch(&self) -> BatchGuard<'_> {
        self.feed.lock().batch_depth += 1;
        BatchGuard { db: self }
    }

    /// The database *change sequence*: a process-local counter bumped once
    /// per committed save/delete (batched or not). Pollers that need a
    /// cheap "has anything changed since I last looked?" answer — the HTTP
    /// task's command cache, `OnUpdate` agent scheduling — compare the
    /// value they captured against the current one instead of subscribing.
    /// Counts commits, not dispatches: it advances even while events are
    /// held back under [`Database::begin_batch`].
    pub fn change_seq(&self) -> u64 {
        self.versions.seq()
    }

    /// Pin a read [`Snapshot`] at the current change sequence. Snapshot
    /// reads resolve against the versioned note map and never take the
    /// writer lock; drop the snapshot to release its GC pin.
    pub fn snapshot(&self) -> Snapshot {
        self.versions.pin()
    }

    /// The versions this database's map retains now (the process-wide
    /// snapshot counters are `Db.Snapshot.*` in the registry).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            retained_versions: self.versions.retained_versions(),
        }
    }

    /// Return once event number `last` has reached every observer — or
    /// at once, from inside an observer or while a batch is open. If no
    /// thread is draining, this one drains, and it keeps draining until
    /// the queue is empty: whoever stops re-checks the queue under the
    /// feed lock, so no event is stranded. An observer's panic skips the
    /// rest of its slice and is re-raised here once the queue is drained.
    fn deliver_through(&self, last: u64) {
        let nested = IN_OBSERVER.with(Cell::get) > 0;
        let mut f = self.feed.lock();
        while f.draining {
            if nested || f.delivered >= last || f.batch_depth > 0 {
                return;
            }
            f.waiting += 1;
            f = self
                .feed_progress
                .wait(f)
                .unwrap_or_else(PoisonError::into_inner);
            f.waiting -= 1;
        }
        f.draining = true;
        let mut panicked = None;
        while !f.queue.is_empty() && f.batch_depth == 0 {
            let queued = std::mem::take(&mut f.queue);
            let taken = queued.len() as u64;
            Arc::make_mut(&mut f.observers).retain(|o| o.strong_count() > 0);
            let observers = Arc::clone(&f.observers);
            drop(f);
            // Events are built for the first observer still alive; with
            // none, the queued notes are only dropped.
            let mut queued = Some(queued);
            let mut events = Vec::new();
            IN_OBSERVER.with(|n| n.set(n.get() + 1));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                for observer in observers.iter().filter_map(Weak::upgrade) {
                    if let Some(changes) = queued.take() {
                        events = coalesce(changes)
                            .into_iter()
                            .map(Change::into_event)
                            .collect();
                    }
                    observer(&events);
                }
            }));
            IN_OBSERVER.with(|n| n.set(n.get() - 1));
            f = self.feed.lock();
            f.delivered += taken;
            self.wake(&f);
            panicked = panicked.or(outcome.err());
        }
        f.draining = false;
        self.wake(&f);
        drop(f);
        if let Some(cause) = panicked {
            panic::resume_unwind(cause);
        }
    }

    /// Wake parked callers; no futex call when nobody waits.
    fn wake(&self, f: &Feed) {
        if f.waiting > 0 {
            self.feed_progress.notify_all();
        }
    }

    // ------------------------------------------------------------------
    // CRUD
    // ------------------------------------------------------------------

    /// The one write path. Every note mutation is the same choreography
    /// around a different decision: take the engine mutex, find the
    /// record under `target` once, let `decide` turn the record there
    /// (`None` for nothing) into the record to write — or decline with
    /// `Ok(None)` — then write it and publish it.
    ///
    /// A live note is found in the version map, whose newest version is
    /// the engine's record while the mutex is held: no engine read, no
    /// decode. Only a stub, a lazily seeded (body-elided) version or a
    /// record the map does not hold is read from the engine. The written
    /// note is published as the `Arc` that was written, and the change
    /// feed queues that `Arc` and the one it replaced.
    ///
    /// The version map, the Merkle summary and the change feed's queue
    /// are updated *before the engine mutex is released*: commit order
    /// then equals change-sequence order and delivery order, which is
    /// what makes snapshot reads linearizable, keeps the digests
    /// describing a committed prefix, and lets the last event an observer
    /// sees for a note be its latest commit. Observers run after the
    /// mutex is released. Returns the local id written.
    fn commit(
        &self,
        target: Target,
        decide: impl FnOnce(&mut DbInner, Option<&Record>) -> Result<Option<Record>>,
    ) -> Result<Option<NoteId>> {
        let (id, queued) = {
            let mut g = match self.inner.try_lock() {
                Some(g) => g,
                None => {
                    let blocked = Instant::now();
                    let g = self.inner.lock();
                    obs::histogram!("Db.Engine.Wait.Micros")
                        .record(blocked.elapsed().as_micros() as u64);
                    g
                }
            };
            let mut stored = match target {
                Target::New => None,
                Target::Id(id) => match self.versions.head(id) {
                    Some(note) => Some(Stored::resident(note)),
                    None => self.read_stored(&mut g, id)?,
                },
                Target::Unid(unid) => match self.versions.head_of_unid(unid) {
                    Some(note) => Some(Stored::resident(note)),
                    None => {
                        let store = g.store;
                        match store.lookup_unid(&mut g.engine, unid)? {
                            Some(id) => Some(self.read_stored(&mut g, id)?.ok_or_else(|| {
                                DominoError::Corrupt(format!(
                                    "unid {unid} bound to missing record {id}"
                                ))
                            })?),
                            None => None,
                        }
                    }
                },
            };
            let held = stored.as_mut().and_then(|s| s.record.take());
            let Some(mut record) = decide(&mut g, held.as_ref())? else {
                return Ok(None);
            };
            let old = match held {
                Some(Record::Note(note)) => Some(note),
                _ => None,
            };
            let unid = record.oid().unid;
            let (id, is_acl) = g.write_record(&mut record, stored.as_ref())?;
            let (head, change) = match record {
                Record::Note(new) => {
                    let head = revision::merkle_head(&new);
                    self.versions.publish(unid, id, Some(Arc::clone(&new)));
                    // After the publish: a snapshot pinned in between
                    // still reads the ACL it had.
                    if is_acl {
                        self.versions.set_acl_note(id.0 as u64);
                    }
                    obs::counter!("Database.Notes.Saved").inc();
                    (head, Some(Change::Saved { old, new }))
                }
                Record::Stub(stub) => {
                    // Retract a live note from snapshot visibility;
                    // re-stubbing a stub changes nothing readers see.
                    if old.is_some() {
                        self.versions.publish(unid, id, None);
                    }
                    (
                        revision::stub_head(&stub.oid),
                        old.map(|old| Change::Deleted { old, stub }),
                    )
                }
            };
            self.merkle.lock().set_head(unid, Some(head));
            let queued = change.map(|change| {
                let mut f = self.feed.lock();
                f.queue.push(change);
                f.queued += 1;
                f.queued
            });
            (id, queued)
        };
        if let Some(last) = queued {
            self.deliver_through(last);
        }
        Ok(Some(id))
    }

    /// Read the record at `id` from the engine, for a commit the version
    /// map cannot serve. A live note there is a lazily seeded version
    /// (a resident one comes from the map), so its full pre-image is
    /// backfilled at once: pinned snapshots can still read the old body
    /// after the record is overwritten.
    fn read_stored(&self, g: &mut DbInner, id: NoteId) -> Result<Option<Stored>> {
        let stored = g.stored(id)?;
        if let Some(Stored {
            record: Some(Record::Note(full)),
            ..
        }) = &stored
        {
            self.versions.backfill(full.unid(), full);
        }
        Ok(stored)
    }

    /// Save a note: create it if it is a draft, else update the stored
    /// copy. On return the note carries its assigned ids and stamps.
    pub fn save(&self, note: &mut Note) -> Result<()> {
        let _span = obs::span!("Database.Save");
        let _save_time = obs::histogram!("Database.Save.Micros").time_micros();
        // Truncated copies (bodies stripped by partial replication)
        // are read-only: saving one would replicate the body loss back
        // to full replicas.
        if note.is_truncated() {
            return Err(DominoError::InvalidArgument(format!(
                "note {} is a truncated copy; fetch it in full before editing",
                note.unid()
            )));
        }
        note.keep_access_items_in_summary();
        let target = if note.is_draft() {
            Target::New
        } else {
            Target::Id(note.id)
        };
        let id = self.commit(target, |g, old| {
            let now = self.clock.now();
            if note.is_draft() {
                // Assign identity.
                let counter = g.unid_counter;
                g.unid_counter = g.unid_counter.wrapping_add(1);
                let unid = Unid::generate(self.instance_id, now, counter);
                note.oid = Oid::new(unid, now);
                note.created = now;
                note.modified = now;
                for it in note.items_raw_mut() {
                    it.revised = now;
                }
            } else {
                let old = old
                    .and_then(Record::note)
                    .ok_or_else(|| DominoError::NotFound(format!("note {} vanished", note.id)))?;
                if old.unid() != note.unid() {
                    return Err(DominoError::InvalidArgument(
                        "note id/unid mismatch on save".into(),
                    ));
                }
                // Optimistic concurrency: saving from a stale revision is
                // rejected (replication handles cross-replica races by
                // materializing conflict documents instead).
                if old.oid != note.oid {
                    return Err(DominoError::UpdateConflict(format!(
                        "note {} was updated (stored seq {}, yours {})",
                        note.id, old.oid.seq, note.oid.seq
                    )));
                }
                note.oid.bump(now);
                note.modified = now;
                // Field-level revision stamps: only changed items advance.
                // Items dropped entirely (vs tombstoned) would break
                // field-level replication; re-add them as tombstones, in
                // stored order so every replica hashes the same sequence.
                let olds = old.items_raw();
                let mut prior: HashMap<String, (usize, bool)> = HashMap::with_capacity(olds.len());
                for (i, o) in olds.iter().enumerate() {
                    prior
                        .entry(o.name.to_ascii_lowercase())
                        .or_insert((i, false));
                }
                let items = note.items_raw_mut();
                for it in items.iter_mut() {
                    it.revised = now;
                    if let Some((i, kept)) = prior.get_mut(&it.name.to_ascii_lowercase()) {
                        *kept = true;
                        let p = &olds[*i];
                        if p.value == it.value && p.flags == it.flags {
                            it.revised = p.revised;
                        }
                    }
                }
                let mut dropped: Vec<usize> = prior
                    .values()
                    .filter(|(_, kept)| !kept)
                    .map(|(i, _)| *i)
                    .collect();
                dropped.sort_unstable();
                for i in dropped {
                    let mut tomb = domino_types::Item::new(olds[i].name.clone(), Value::text(""));
                    tomb.flags = ItemFlags::DELETED;
                    tomb.revised = now;
                    items.push(tomb);
                }
            }
            // Content-address this revision: hash the stamped items with
            // the previous head as parent and append to the unbounded
            // chain (drafts start a fresh chain).
            let parents: Vec<ContentHash> = revision::head_hash(note).into_iter().collect();
            let rev_hash = revision::content_hash_of(note, &parents);
            revision::push_head(note, rev_hash, note.oid.seq_time);
            Ok(Some(Record::Note(Arc::new(note.clone()))))
        })?;
        note.id = id.expect("save always writes");
        Ok(())
    }

    /// Write a note exactly as received from another replica: identity,
    /// stamps, and item revisions are preserved. Replaces any existing
    /// note *or stub* with the same UNID.
    pub fn save_replicated(&self, note: Note) -> Result<Note> {
        let mut saved = note.clone();
        saved.keep_access_items_in_summary();
        let id = self.apply_replicated(note.unid(), |_| Some(Record::Note(Arc::new(note))))?;
        saved.id = id.expect("save_replicated always writes");
        Ok(saved)
    }

    /// Apply what another replica holds under `unid`, as `decide` rules
    /// against the record stored here (`None` when there is none): write
    /// the record it returns, identity and stamps as received, or nothing.
    /// `decide` runs under the engine mutex, in the commit that writes its
    /// answer, so no local save can land between the decision and the
    /// write and be overwritten unseen. It must not call this database.
    /// Returns the local id written, if any.
    pub fn apply_replicated(
        &self,
        unid: Unid,
        decide: impl FnOnce(Option<&Record>) -> Option<Record>,
    ) -> Result<Option<NoteId>> {
        self.commit(Target::Unid(unid), |_, held| {
            let mut record = decide(held);
            match &mut record {
                Some(Record::Note(note)) => {
                    Arc::make_mut(note).keep_access_items_in_summary();
                    self.clock.observe(note.oid.seq_time);
                    self.clock.observe(note.modified);
                }
                Some(Record::Stub(stub)) => self.clock.observe(stub.oid.seq_time),
                None => {}
            }
            Ok(record)
        })
    }

    /// Store a design note (form, view or folder, agent). A design
    /// element is identified by its class and `$TITLE`: if the design
    /// collection already holds one, `note` replaces it in place (keeping
    /// its ids and creation time, so the change replicates as an update);
    /// otherwise `note` is created. Where replication has left two
    /// elements with one title, the lowest UNID is the one replaced — on
    /// every replica.
    pub fn save_design(&self, note: &mut Note) -> Result<()> {
        let title = match note.get_text(ITEM_TITLE) {
            Some(title) if note.class != NoteClass::Document => title,
            _ => {
                return Err(DominoError::InvalidArgument(format!(
                    "a design note has a design class and a {ITEM_TITLE}; this is a {:?}",
                    note.class
                )))
            }
        };
        if let Some(existing) = self.snapshot().design_note(note.class, &title)? {
            note.id = existing.id;
            note.oid = existing.oid;
            note.created = existing.created;
            // The revision history rides on the note: without it the
            // update would replicate as an unrelated note and conflict
            // with its own ancestor.
            if let Some(chain) = existing.get(revision::ITEM_REVISION_HASHES) {
                note.set(revision::ITEM_REVISION_HASHES, chain.clone());
            }
        }
        self.save(note)
    }

    /// Fetch a note by local id, as of now: a read of a freshly pinned
    /// [`Snapshot`], like every live-note read below. Deletion stubs read
    /// as `NotFound`. Callers that read more than once pin one snapshot
    /// themselves, so all their reads describe one database state.
    pub fn open_note(&self, id: NoteId) -> Result<Note> {
        obs::counter!("Database.Notes.Opened").inc();
        self.snapshot().open_note(id)
    }

    /// What the engine holds at `id`, bypassing the version map: the
    /// reference that tests compare snapshot reads against, and what the
    /// storage experiments time. Takes the engine mutex and decodes the
    /// record; product code reads through [`Database::open_note`] or a
    /// [`Snapshot`] instead.
    pub fn stored_note(&self, id: NoteId) -> Result<Note> {
        self.inner
            .lock()
            .load(id)?
            .ok_or_else(|| DominoError::NotFound(format!("note {id}")))
    }

    /// Fetch the deletion stub at a local id (error if the record is a
    /// live note or absent).
    pub fn open_stub(&self, id: NoteId) -> Result<DeletionStub> {
        let mut g = self.inner.lock();
        let store = g.store;
        let summary = store
            .get(&mut g.engine, id, Segment::Summary)?
            .ok_or_else(|| DominoError::NotFound(format!("record {id}")))?;
        if !record_is_stub(&summary) {
            return Err(DominoError::NotFound(format!(
                "{id} is not a deletion stub"
            )));
        }
        DeletionStub::decode(id, &summary)
    }

    pub fn open_by_unid(&self, unid: Unid) -> Result<Note> {
        obs::counter!("Database.Notes.Opened").inc();
        self.snapshot().open_by_unid(unid)
    }

    /// Local id bound to a UNID (note or stub), if any.
    pub fn id_of_unid(&self, unid: Unid) -> Result<Option<NoteId>> {
        let mut g = self.inner.lock();
        let store = g.store;
        store.lookup_unid(&mut g.engine, unid)
    }

    /// Delete a note, leaving a deletion stub.
    pub fn delete(&self, id: NoteId) -> Result<DeletionStub> {
        let mut written = None;
        self.commit(Target::Id(id), |_, old| {
            let old = old
                .and_then(Record::note)
                .ok_or_else(|| DominoError::NotFound(format!("note {id}")))?;
            let now = self.clock.now();
            let mut oid = old.oid;
            oid.bump(now);
            let stub = DeletionStub {
                id,
                oid,
                deleted_at: now,
            };
            written = Some(stub);
            Ok(Some(Record::Stub(stub)))
        })?;
        obs::counter!("Database.Notes.Deleted").inc();
        Ok(written.expect("delete always writes"))
    }

    /// Apply a deletion received from another replica. The stub's own OID
    /// is preserved. Returns the locally recorded stub, or `None` if the
    /// local copy is *newer* than the deletion (the caller should treat
    /// that as a conflict). A UNID never seen here still records the stub,
    /// so the deletion keeps propagating.
    pub fn apply_remote_deletion(&self, remote: &DeletionStub) -> Result<Option<DeletionStub>> {
        self.clock.observe(remote.oid.seq_time);
        let id = self.apply_replicated(remote.oid.unid, |held| match held {
            Some(Record::Note(local)) if local.oid.winner_key() > remote.oid.winner_key() => None,
            _ => Some(Record::Stub(*remote)),
        })?;
        Ok(id.map(|id| DeletionStub { id, ..*remote }))
    }

    // ------------------------------------------------------------------
    // enumeration & search
    // ------------------------------------------------------------------

    /// Ids of all live notes of a class (stubs excluded), ascending.
    /// `None` = all classes.
    pub fn note_ids(&self, class: Option<NoteClass>) -> Result<Vec<NoteId>> {
        Ok(self.snapshot().note_ids(class))
    }

    /// Count of live documents.
    pub fn document_count(&self) -> Result<usize> {
        Ok(self.snapshot().document_count())
    }

    /// All documents matching a selection formula (summary-only
    /// evaluation, like a view refresh).
    pub fn search(&self, formula: &Formula, env: &EvalEnv) -> Result<Vec<Note>> {
        let hits = self.snapshot().search(formula, env)?;
        obs::counter!("Database.Notes.Opened").add(hits.len() as u64);
        Ok(hits)
    }

    /// Replication candidates for the UNIDs a Merkle diff found
    /// differing, in [`Candidate::position`] order. A live note comes from
    /// `snap`, without a copy; the other UNIDs are read as deletion stubs
    /// under one hold of the engine mutex, and a UNID that is neither is
    /// skipped.
    pub fn replication_candidates(
        &self,
        snap: &Snapshot,
        unids: &[Unid],
    ) -> Result<Vec<Candidate>> {
        let mut out = Vec::with_capacity(unids.len());
        let mut gone = Vec::new();
        for unid in unids {
            match snap.open_arc_by_unid(*unid)? {
                Some(note) => out.push(Candidate::Note(note)),
                None => gone.push(*unid),
            }
        }
        let mut g = self.inner.lock();
        let store = g.store;
        for unid in gone {
            let Some(id) = store.lookup_unid(&mut g.engine, unid)? else {
                continue;
            };
            match store.get(&mut g.engine, id, Segment::Summary)? {
                Some(summary) if record_is_stub(&summary) => {
                    out.push(Candidate::Stub(DeletionStub::decode(id, &summary)?));
                }
                _ => {}
            }
        }
        drop(g);
        out.sort_by_key(Candidate::position);
        Ok(out)
    }

    /// Root digest of the Merkle summary: equal on two replicas iff they
    /// hold identical `(unid, head hash)` sets.
    pub fn merkle_root(&self) -> ContentHash {
        self.merkle.lock().root()
    }

    /// Digests of the non-empty Merkle buckets, ascending by index.
    pub fn merkle_bucket_digests(&self) -> Vec<(u32, ContentHash)> {
        self.merkle.lock().bucket_digests()
    }

    /// `(unid, head hash)` entries of one Merkle bucket.
    pub fn merkle_bucket_entries(&self, bucket: u32) -> Vec<(Unid, ContentHash)> {
        self.merkle.lock().bucket_entries(bucket)
    }

    /// Entries currently in the Merkle summary (live notes + stubs).
    pub fn merkle_len(&self) -> usize {
        self.merkle.lock().len()
    }

    /// The head hash currently recorded for a UNID (note or stub), if
    /// any.
    pub fn head_hash(&self, unid: Unid) -> Option<ContentHash> {
        self.merkle.lock().head(unid)
    }

    /// All deletion stubs.
    pub fn stubs(&self) -> Result<Vec<DeletionStub>> {
        let mut g = self.inner.lock();
        let store = g.store;
        let mut ids = Vec::new();
        store.for_each_note(&mut g.engine, |id| {
            ids.push(id);
            true
        })?;
        let mut out = Vec::new();
        for id in ids {
            let summary = store.get(&mut g.engine, id, Segment::Summary)?;
            if let Some(bytes) = summary {
                if record_is_stub(&bytes) {
                    out.push(DeletionStub::decode(id, &bytes)?);
                }
            }
        }
        Ok(out)
    }

    /// The oldest deletion time a stub here may carry: `clock − purge
    /// interval`. [`Database::purge_stubs`] removes stubs below it, and a
    /// replicator does not adopt a stub below it for a UNID this replica
    /// holds no record of.
    pub fn purge_horizon(&self) -> Timestamp {
        Timestamp(self.clock.peek().0.saturating_sub(self.purge_interval()))
    }

    /// Remove stubs older than the purge interval. Returns how many were
    /// purged. After a stub is purged, the deletion can no longer
    /// propagate — replicating with a stale replica may resurrect the
    /// document (experiment E8).
    pub fn purge_stubs(&self) -> Result<usize> {
        let horizon = self.purge_horizon();
        let stubs = self.stubs()?;
        let mut purged = 0;
        for stub in stubs {
            if stub.deleted_at >= horizon {
                continue;
            }
            let mut g = self.inner.lock();
            let store = g.store;
            // Re-verify under the lock: the stub may have been purged or
            // resurrected (save_replicated) since it was listed.
            match store.get(&mut g.engine, stub.id, Segment::Summary)? {
                Some(bytes) if record_is_stub(&bytes) => {}
                _ => continue,
            }
            DbInner::transact(&mut g.engine, |engine, tx| {
                store.remove(engine, tx, stub.id)?;
                store.unbind_unid(engine, tx, stub.oid.unid)
            })?;
            // The purged UNID leaves the Merkle summary entirely: two
            // replicas that both purged it converge to equal digests.
            self.merkle.lock().set_head(stub.oid.unid, None);
            purged += 1;
        }
        // Purged deletions also free their version-map tombstones (once
        // no snapshot pins them).
        self.versions.sweep();
        Ok(purged)
    }

    // ------------------------------------------------------------------
    // ACL
    // ------------------------------------------------------------------

    /// The database ACL (wide open until one is stored). Served from a
    /// snapshot, so access checks never wait on writers.
    pub fn acl(&self) -> Result<Acl> {
        self.snapshot().acl()
    }

    /// Store the ACL (as an ACL-class note, so it replicates). The save
    /// points the ACL slot at the note in its own transaction.
    pub fn set_acl(&self, acl: &Acl) -> Result<()> {
        // None stored yet, or the stored one deleted: start a new note.
        let mut note = match self.open_note(NoteId(self.versions.acl_note() as u32)) {
            Err(DominoError::NotFound(_)) => Note::new(NoteClass::Acl),
            found => found?,
        };
        note.set("Entries", Value::text_list(acl.to_lines()));
        self.save(&mut note)
    }

    // ------------------------------------------------------------------
    // unread marks
    // ------------------------------------------------------------------

    /// Mark a note read for a user. (Read marks are per-replica state
    /// and do not replicate, as in Notes; [`crate::Session::unread`] lists
    /// what is left.)
    pub fn mark_read(&self, user: &str, unid: Unid) {
        self.read_marks
            .lock()
            .entry(user.to_lowercase())
            .or_default()
            .insert(unid);
    }

    pub fn is_read(&self, user: &str, unid: Unid) -> bool {
        self.read_marks
            .lock()
            .get(&user.to_lowercase())
            .is_some_and(|s| s.contains(&unid))
    }

    // ------------------------------------------------------------------
    // maintenance
    // ------------------------------------------------------------------

    /// Write a fuzzy checkpoint (bounds restart-recovery work and
    /// truncates the durable log below the new redo point).
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.lock().engine.checkpoint()
    }

    /// Incremental fuzzy checkpoint: snapshot the dirty-page table, then
    /// write it back `pages_per_step` pages at a time, releasing the
    /// database lock between steps so writers interleave instead of
    /// stalling behind one big flush. No-op if a checkpoint is already in
    /// flight (e.g. the background checkpointer's).
    pub fn checkpoint_incremental(&self, pages_per_step: usize) -> Result<()> {
        {
            let mut g = self.inner.lock();
            if g.engine.checkpoint_in_progress() {
                return Ok(());
            }
            g.engine.begin_checkpoint()?;
        }
        loop {
            let more = self
                .inner
                .lock()
                .engine
                .checkpoint_step(pages_per_step.max(1))?;
            if !more {
                break;
            }
            // Lock released: queued writers run here.
            std::thread::yield_now();
        }
        self.inner.lock().engine.complete_checkpoint()
    }

    /// Start the background checkpointer task: it runs
    /// [`Database::checkpoint_incremental`] every `interval`. Stopping or
    /// dropping the returned task ends it at once; it also ends on its
    /// own once the database is dropped.
    pub fn start_checkpointer(
        self: &Arc<Database>,
        interval: std::time::Duration,
        pages_per_step: usize,
    ) -> domino_obs::Task {
        let weak = Arc::downgrade(self);
        domino_obs::Task::every(
            &format!("checkpointer:{}", self.title()),
            "Fuzzy checkpoint",
            interval,
            move |_| {
                let Some(db) = weak.upgrade() else {
                    return false;
                };
                // Best-effort: a failed cycle (e.g. I/O error) is retried
                // at the next interval.
                let _ = db.checkpoint_incremental(pages_per_step);
                true
            },
            || {},
        )
    }

    /// Flush everything and truncate the log (clean shutdown).
    pub fn shutdown(&self) -> Result<()> {
        self.inner.lock().engine.shutdown()
    }

    /// Engine counters.
    pub fn engine_stats(&self) -> domino_storage::EngineStats {
        self.inner.lock().engine.stats()
    }

    /// Recovery stats from open, if restart recovery ran.
    pub fn recovery_stats(&self) -> Option<domino_wal::RecoveryStats> {
        self.inner.lock().engine.recovery
    }

    /// The LSNs the log holds now (None when logging is off; see
    /// [`domino_wal::LogManager::lsn_range`]): its length is the bytes
    /// retained, and the change of its end the bytes appended.
    pub fn log_range(&self) -> Option<std::ops::Range<domino_wal::Lsn>> {
        self.inner.lock().engine.wal().map(|w| w.lsn_range())
    }

    /// Summary statistics for the database (the File → Database →
    /// Properties panel, roughly).
    pub fn info(&self) -> Result<DbInfo> {
        let snap = self.snapshot();
        let documents = snap.document_count();
        let notes = snap.count(None);
        Ok(DbInfo {
            title: self.title(),
            replica_id: self.replica_id,
            instance_id: self.instance_id,
            documents,
            design_notes: notes - documents,
            deletion_stubs: self.stubs()?.len(),
            logical_bytes: self.inner.lock().engine.logical_bytes()?,
            purge_interval: self.purge_interval(),
        })
    }

    /// Copy-style compaction (what `compact` does to an NSF): rebuild the
    /// database into fresh stores, carrying over every live note, stub,
    /// and identity field, and dropping all dead space (tombstoned heap
    /// records, emptied B-tree pages, the old log). Returns the new
    /// database; [`Database::info`] on both tells what was copied and
    /// what was won back.
    pub fn compact_into(
        &self,
        disk: Box<dyn domino_storage::Disk>,
        log: Option<Box<dyn domino_wal::LogStore>>,
    ) -> Result<Database> {
        let bytes_before = self.inner.lock().engine.logical_bytes()?;
        let config = DbConfig {
            title: self.title(),
            replica_id: self.replica_id(),
            instance_id: self.instance_id(),
            purge_interval: self.purge_interval(),
            engine: self.inner.lock().engine.config().clone(),
        };
        // A database whose ACL note is deleted fails closed; a copy
        // without that note would be wide open.
        let snap = self.snapshot();
        snap.acl()?;
        let fresh = Database::open(disk, log, config, self.clock.clone())?;
        // Copy notes in note-id order, preserving identity and lineage
        // (save_replicated keeps OIDs/items byte-for-byte); copying the
        // ACL note points the copy's ACL slot at it.
        let ids = snap.note_ids(None);
        for &id in &ids {
            fresh.save_replicated(snap.open_note(id)?)?;
        }
        for stub in self.stubs()? {
            fresh.apply_remote_deletion(&stub)?;
        }
        fresh.checkpoint()?;
        let bytes_after = fresh.inner.lock().engine.logical_bytes()?;
        obs::counter!("Database.Compact.Runs").inc();
        obs::counter!("Database.Compact.NotesCopied").add(ids.len() as u64);
        obs::counter!("Database.Compact.BytesReclaimed")
            .add(bytes_before.saturating_sub(bytes_after));
        Ok(fresh)
    }
}

/// Database properties snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbInfo {
    pub title: String,
    pub replica_id: ReplicaId,
    pub instance_id: ReplicaId,
    pub documents: usize,
    pub design_notes: usize,
    pub deletion_stubs: usize,
    pub logical_bytes: u64,
    pub purge_interval: u64,
}

/// Where a mutation finds the record it replaces.
enum Target {
    /// Nowhere: a draft gets a fresh UNID no other writer can reach.
    New,
    Id(NoteId),
    Unid(Unid),
}

/// A stored record: a live note or a deletion stub. What a mutation
/// finds under its target, and what it puts in place. A note is shared:
/// the one found is the version map's, and the one written is published
/// as it is.
#[derive(Debug)]
pub enum Record {
    Note(Arc<Note>),
    Stub(DeletionStub),
}

impl Record {
    fn oid(&self) -> Oid {
        match self {
            Record::Note(note) => note.oid,
            Record::Stub(stub) => stub.oid,
        }
    }

    /// The live note, if this record is one.
    fn note(&self) -> Option<&Note> {
        match self {
            Record::Note(note) => Some(note),
            Record::Stub(_) => None,
        }
    }
}

/// The record found under a mutation's target, once per commit.
struct Stored {
    id: NoteId,
    /// The note or stub, until `commit` takes it.
    record: Option<Record>,
    /// The stored segment bytes, so `write_record` re-puts only what
    /// changed. `body` is `None` when there is no body segment.
    summary: Vec<u8>,
    body: Option<Vec<u8>>,
}

impl Stored {
    /// The version map's newest version of a live note: what the engine
    /// holds, so its encodings are the stored segments' bytes.
    fn resident(note: Arc<Note>) -> Stored {
        Stored {
            id: note.id,
            summary: note.encode_summary(),
            body: note.encode_body(),
            record: Some(Record::Note(note)),
        }
    }
}

impl DbInner {
    /// Read whatever record sits at `id`, note or stub.
    fn stored(&mut self, id: NoteId) -> Result<Option<Stored>> {
        let Some(summary) = self.store.get(&mut self.engine, id, Segment::Summary)? else {
            return Ok(None);
        };
        if record_is_stub(&summary) {
            return Ok(Some(Stored {
                id,
                record: Some(Record::Stub(DeletionStub::decode(id, &summary)?)),
                summary,
                body: None,
            }));
        }
        let body = self.store.get(&mut self.engine, id, Segment::Body)?;
        let note = Note::decode(id, &summary, body.as_deref())?;
        Ok(Some(Stored {
            id,
            record: Some(Record::Note(Arc::new(note))),
            summary,
            body,
        }))
    }

    /// Load a full note; `None` for stubs.
    fn load(&mut self, id: NoteId) -> Result<Option<Note>> {
        Ok(match self.stored(id)?.and_then(|s| s.record) {
            Some(Record::Note(note)) => Some(Arc::unwrap_or_clone(note)),
            _ => None,
        })
    }

    /// Run `work` in one engine transaction: commit what it did, or abort it
    /// on any error. Every note-store write goes through here, so no failure
    /// leaves the engine's one transaction open.
    fn transact<T>(
        engine: &mut Engine,
        work: impl FnOnce(&mut Engine, &mut Tx) -> Result<T>,
    ) -> Result<T> {
        let mut tx = engine.begin()?;
        match work(engine, &mut tx) {
            Ok(v) => engine.commit(tx).map(|()| v),
            Err(e) => {
                engine.abort(tx)?;
                Err(e)
            }
        }
    }

    /// Write a note or stub record in one transaction. `replaces` is the
    /// record being overwritten; without one the record gets a fresh local
    /// id (any id it arrived with is another replica's) and its UNID is
    /// bound to it. A stub keeps the binding, so later updates find it. A
    /// segment whose new encoding equals its stored bytes is left alone:
    /// it keeps its `RecordPtr` and logs nothing. Returns the id and
    /// whether the ACL slot names the record afterwards.
    fn write_record(
        &mut self,
        record: &mut Record,
        replaces: Option<&Stored>,
    ) -> Result<(NoteId, bool)> {
        let store = self.store;
        DbInner::transact(&mut self.engine, |engine, tx| {
            let id = match replaces {
                Some(s) => s.id,
                None => store.alloc_note_id(engine, tx)?,
            };
            let prior_body = replaces.and_then(|s| s.body.as_deref());
            let unid = record.oid().unid;
            let (summary, body) = match record {
                Record::Note(note) => {
                    if note.id != id {
                        Arc::make_mut(note).id = id;
                    }
                    (note.encode_summary(), note.encode_body())
                }
                Record::Stub(stub) => {
                    stub.id = id;
                    (stub.encode(), None)
                }
            };
            if replaces.map(|s| s.summary.as_slice()) != Some(summary.as_slice()) {
                store.put(engine, tx, id, Segment::Summary, &summary)?;
            }
            match body {
                Some(body) if prior_body != Some(body.as_slice()) => {
                    store.put(engine, tx, id, Segment::Body, &body)?
                }
                None if prior_body.is_some() => {
                    store.remove_segment(engine, tx, id, Segment::Body)?;
                }
                _ => {}
            }
            if replaces.is_none() {
                store.bind_unid(engine, tx, unid, id)?;
            }
            let acl = matches!(record, Record::Note(n) if n.class == NoteClass::Acl);
            Ok((id, acl && point_acl_slot(engine, store, tx, id, unid)?))
        })
    }
}

/// Point the ACL slot at ACL note `id` (UNID `unid`) unless a live ACL
/// note with a lower UNID holds it: replicas whose ACLs meet keep the
/// lowest UNID, as design elements do for a title, so every replica
/// enforces the same one. Returns whether the slot names `id`.
fn point_acl_slot(
    engine: &mut Engine,
    store: NoteStore,
    tx: &mut Tx,
    id: NoteId,
    unid: Unid,
) -> Result<bool> {
    let held = NoteId(engine.user_slot(SLOT_ACL_NOTE)? as u32);
    if held == id {
        return Ok(true);
    }
    let kept = match store.get(engine, held, Segment::Summary)? {
        Some(summary) if !record_is_stub(&summary) => {
            let note = Note::decode(held, &summary, None)?;
            note.class == NoteClass::Acl && note.unid() < unid
        }
        _ => false,
    };
    if !kept {
        engine.set_user_slot(tx, SLOT_ACL_NOTE, id.0 as u64)?;
    }
    Ok(!kept)
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use domino_types::LogicalClock;
    use parking_lot::Mutex as PMutex;

    fn db() -> Database {
        Database::open_in_memory(
            DbConfig::new("B", ReplicaId(1), ReplicaId(9)),
            LogicalClock::new(),
        )
        .unwrap()
    }

    fn doc(db: &Database, subject: &str) -> Note {
        let mut n = Note::document("Doc");
        n.set("Subject", Value::text(subject));
        db.save(&mut n).unwrap();
        n
    }

    /// Collects every delivered slice for inspection while the returned
    /// subscription lives.
    fn collecting_observer(db: &Database) -> (Arc<PMutex<Vec<Vec<ChangeEvent>>>>, Subscription) {
        let seen: Arc<PMutex<Vec<Vec<ChangeEvent>>>> = Arc::new(PMutex::new(Vec::new()));
        let sink = seen.clone();
        let feed = db.subscribe(move |events: &[ChangeEvent]| {
            sink.lock().push(events.to_vec());
        });
        (seen, feed)
    }

    #[test]
    fn unbatched_changes_arrive_as_single_event_slices() {
        let db = db();
        let (seen, _feed) = collecting_observer(&db);
        doc(&db, "a");
        doc(&db, "b");
        let batches = seen.lock();
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn batch_buffers_and_coalesces_last_write_wins() {
        let db = db();
        let (seen, _feed) = collecting_observer(&db);
        let mut n = {
            let _guard = db.begin_batch();
            let mut n = doc(&db, "v1");
            n.set("Subject", Value::text("v2"));
            db.save(&mut n).unwrap();
            doc(&db, "other");
            assert!(
                seen.lock().is_empty(),
                "events must buffer inside the batch"
            );
            n
        };
        let batches = seen.lock();
        assert_eq!(batches.len(), 1, "one flush for the whole batch");
        let batch = &batches[0];
        assert_eq!(batch.len(), 2, "two saves of one note coalesce");
        // The twice-saved note survives as one creation with the final
        // content: old is the pre-batch state (absent), new is the last
        // write.
        let ev = batch
            .iter()
            .find(|e| matches!(e, ChangeEvent::Saved { new, .. } if new.unid() == n.unid()))
            .expect("coalesced save present");
        match ev {
            ChangeEvent::Saved { old, new } => {
                assert!(old.is_none());
                assert_eq!(new.get_text("Subject").as_deref(), Some("v2"));
            }
            _ => unreachable!(),
        }
        drop(batches);
        // The note remains saveable afterwards (batching is observer-side
        // only; storage state is unaffected).
        n.set("Subject", Value::text("v3"));
        db.save(&mut n).unwrap();
    }

    #[test]
    fn save_then_delete_in_batch_survives_as_delete() {
        let db = db();
        let before = doc(&db, "keep");
        let (seen, _feed) = collecting_observer(&db);
        {
            let _guard = db.begin_batch();
            let n = doc(&db, "gone");
            db.delete(n.id).unwrap();
            // An update to a pre-batch note: its coalesced `old` must be
            // the pre-batch content.
            let mut b2 = db.open_note(before.id).unwrap();
            b2.set("Subject", Value::text("kept-2"));
            db.save(&mut b2).unwrap();
        }
        let batches = seen.lock();
        assert_eq!(batches.len(), 1);
        let batch = &batches[0];
        assert_eq!(batch.len(), 2);
        assert!(batch
            .iter()
            .any(|e| matches!(e, ChangeEvent::Deleted { old, .. } if old.get_text("Subject").as_deref() == Some("gone"))));
        assert!(batch.iter().any(|e| matches!(
            e,
            ChangeEvent::Saved { old: Some(o), new }
                if o.get_text("Subject").as_deref() == Some("keep")
                    && new.get_text("Subject").as_deref() == Some("kept-2")
        )));
    }

    #[test]
    fn nested_batches_flush_once_at_outermost() {
        let db = db();
        let (seen, _feed) = collecting_observer(&db);
        {
            let _outer = db.begin_batch();
            doc(&db, "a");
            {
                let _inner = db.begin_batch();
                doc(&db, "b");
            }
            assert!(seen.lock().is_empty(), "inner drop must not flush");
            doc(&db, "c");
        }
        let batches = seen.lock();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 3);
    }

    #[test]
    fn a_coalesced_batch_keeps_commit_order() {
        let db = db();
        let (seen, _feed) = collecting_observer(&db);
        {
            let _guard = db.begin_batch();
            doc(&db, "first");
            doc(&db, "second");
        }
        let subjects: Vec<Option<String>> = seen.lock()[0]
            .iter()
            .map(|e| match e {
                ChangeEvent::Saved { new, .. } => new.get_text("Subject"),
                ChangeEvent::Deleted { .. } => None,
            })
            .collect();
        assert_eq!(subjects, [Some("first".into()), Some("second".into())]);
    }

    #[test]
    fn every_observer_gets_the_batch_in_registration_order() {
        let db = db();
        let order: Arc<PMutex<Vec<usize>>> = Arc::default();
        let (sinks, _feeds): (Vec<_>, Vec<_>) = (0..4)
            .map(|i| {
                let order = order.clone();
                let counted = db.subscribe(move |_: &[ChangeEvent]| order.lock().push(i));
                let (sink, collected) = collecting_observer(&db);
                (sink, [counted, collected])
            })
            .unzip();
        {
            let _guard = db.begin_batch();
            for i in 0..10 {
                doc(&db, &format!("d{i}"));
            }
        }
        for sink in &sinks {
            let batches = sink.lock();
            assert_eq!(batches.len(), 1);
            assert_eq!(batches[0].len(), 10);
        }
        assert_eq!(*order.lock(), [0, 1, 2, 3]);
    }
}
