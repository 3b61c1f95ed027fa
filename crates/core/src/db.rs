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
//! Change observers ([`Database::subscribe`]) receive every save/delete
//! after the transaction commits — this is how view indexes and the
//! full-text index stay incremental. Bulk writers wrap their work in
//! [`Database::begin_batch`]: events buffer until the batch guard drops,
//! are coalesced (last write per UNID wins, with the surviving event's
//! `old` patched to the pre-batch state), and batch observers
//! ([`Database::subscribe_batch`]) then receive the whole slice at once —
//! fanned out across observers in parallel — so a view index evaluates a
//! thousand-save import as one parallel batch instead of a thousand
//! single-document updates.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use rayon::prelude::*;

use domino_formula::{EvalEnv, Formula};
use domino_obs as obs;
use domino_security::Acl;
use domino_storage::{Engine, EngineConfig, MemDisk, NoteStore, Segment};
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

/// Registry handles for note-CRUD and compaction telemetry, summed
/// across every open database in the process.
struct Metrics {
    saved: &'static obs::Counter,
    deleted: &'static obs::Counter,
    opened: &'static obs::Counter,
    save_micros: &'static obs::Histogram,
    engine_wait_micros: &'static obs::Histogram,
    compact_runs: &'static obs::Counter,
    compact_notes_copied: &'static obs::Counter,
    compact_bytes_reclaimed: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        saved: obs::counter("Database.Notes.Saved"),
        deleted: obs::counter("Database.Notes.Deleted"),
        opened: obs::counter("Database.Notes.Opened"),
        save_micros: obs::histogram("Database.Save.Micros"),
        engine_wait_micros: obs::histogram("Db.Engine.Wait.Micros"),
        compact_runs: obs::counter("Database.Compact.Runs"),
        compact_notes_copied: obs::counter("Database.Compact.NotesCopied"),
        compact_bytes_reclaimed: obs::counter("Database.Compact.BytesReclaimed"),
    })
}

/// User slot holding the shared replica (lineage) id.
const SLOT_LINEAGE: usize = 2;
/// User slot holding the purge interval in ticks.
const SLOT_PURGE: usize = 3;
/// User slot holding the per-open UNID disambiguation counter seed.
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

type Observer = Arc<dyn Fn(&ChangeEvent) + Send + Sync>;

/// An observer that receives a whole coalesced commit batch at once
/// (registered with [`Database::subscribe_batch`]). Outside a batch every
/// change arrives as a one-event slice, so a batch observer sees *every*
/// change either way.
pub type BatchObserver = Arc<dyn Fn(&[ChangeEvent]) + Send + Sync>;

/// Event buffering while a [`BatchGuard`] is open.
#[derive(Default)]
struct BatchState {
    /// Nesting depth of open batch guards; events buffer while > 0.
    depth: u32,
    buffered: Vec<ChangeEvent>,
}

/// RAII handle for a change batch: events buffer while it lives and flush
/// (coalesced) when the outermost guard drops. Nesting is allowed — inner
/// guards extend the outer batch.
pub struct BatchGuard<'a> {
    db: &'a Database,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        let flushed = {
            let mut b = self.db.batch_state.lock();
            b.depth -= 1;
            if b.depth == 0 {
                std::mem::take(&mut b.buffered)
            } else {
                Vec::new()
            }
        };
        if !flushed.is_empty() {
            self.db.dispatch(&coalesce(flushed));
        }
    }
}

/// Collapse a buffered batch to one event per UNID: the last event wins
/// (in last-occurrence order), and a surviving `Saved` gets its `old`
/// patched to the note's *pre-batch* state, so replaying the coalesced
/// batch moves observers from the pre-batch state to the post-batch state
/// exactly as replaying every event would. A `Deleted` for a note created
/// inside the batch survives as-is; removing a never-seen note is a no-op
/// for observers.
fn coalesce(events: Vec<ChangeEvent>) -> Vec<ChangeEvent> {
    if events.len() <= 1 {
        return events;
    }
    let mut first_prior: std::collections::HashMap<Unid, Option<Note>> = Default::default();
    let mut last_idx: std::collections::HashMap<Unid, usize> = Default::default();
    for (i, e) in events.iter().enumerate() {
        let (unid, prior) = match e {
            ChangeEvent::Saved { old, new } => (new.unid(), old.clone()),
            ChangeEvent::Deleted { old, .. } => (old.unid(), Some(old.clone())),
        };
        first_prior.entry(unid).or_insert(prior);
        last_idx.insert(unid, i);
    }
    let mut out = Vec::with_capacity(last_idx.len());
    for (i, e) in events.into_iter().enumerate() {
        let unid = match &e {
            ChangeEvent::Saved { new, .. } => new.unid(),
            ChangeEvent::Deleted { old, .. } => old.unid(),
        };
        if last_idx[&unid] != i {
            continue;
        }
        out.push(match e {
            ChangeEvent::Saved { new, .. } => ChangeEvent::Saved {
                old: first_prior.remove(&unid).flatten(),
                new,
            },
            deleted => deleted,
        });
    }
    out
}

/// Summary entry for replication: one note or stub a pull examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangedNote {
    pub id: NoteId,
    pub oid: Oid,
    pub is_stub: bool,
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

/// Handle to a background checkpointer thread started by
/// [`Database::start_checkpointer`]. Stops and joins the thread on drop.
pub struct CheckpointerHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CheckpointerHandle {
    /// Stop the thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CheckpointerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A Notes database. Thread-safe; share via `Arc<Database>`.
///
/// Concurrency model (DESIGN.md §concurrency): every note mutation runs
/// under the `inner` engine mutex and publishes its committed state into
/// `versions` before releasing it; same-note races are settled there by
/// the sequence-number check in [`Database::save`]. Every live-note read
/// pins a [`Snapshot`] from `versions` and never touches the engine mutex;
/// only deletion stubs, a pull's candidate entries and
/// [`Database::stored_note`] are read under it. Lock order is `inner` →
/// version map.
pub struct Database {
    inner: Arc<Mutex<DbInner>>,
    title: String,
    replica_id: ReplicaId,
    instance_id: ReplicaId,
    purge_interval: AtomicU64,
    /// Per-user read marks. Per-replica state: never stored, never
    /// replicated.
    read_marks: Mutex<HashMap<String, HashSet<Unid>>>,
    observers: Mutex<Vec<Observer>>,
    batch_observers: Mutex<Vec<BatchObserver>>,
    batch_state: Mutex<BatchState>,
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
        let mut tx = engine.begin()?;
        let store = NoteStore::open(&mut engine, &mut tx, config.instance_id)?;
        // Persist lineage + purge settings on first open.
        if engine.user_slot(SLOT_LINEAGE)? == 0 {
            engine.set_user_slot(&mut tx, SLOT_LINEAGE, config.replica_id.0)?;
            engine.set_user_slot(&mut tx, SLOT_PURGE, config.purge_interval)?;
        }
        let replica_id = ReplicaId(engine.user_slot(SLOT_LINEAGE)?);
        let purge_interval = engine.user_slot(SLOT_PURGE)?;
        let instance_id = store.replica_id(&mut engine)?;
        engine.commit(tx)?;

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
            observers: Mutex::new(Vec::new()),
            batch_observers: Mutex::new(Vec::new()),
            batch_state: Mutex::new(BatchState::default()),
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
        let mut g = self.inner.lock();
        let mut tx = g.engine.begin()?;
        g.engine.set_user_slot(&mut tx, SLOT_PURGE, ticks)?;
        g.engine.commit(tx)?;
        self.purge_interval.store(ticks, Ordering::Relaxed);
        Ok(())
    }

    /// The database clock (shared; replication observes remote stamps
    /// through it).
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Register a change observer (views, full-text index, cluster
    /// replicator). Called after each commit, outside internal locks.
    pub fn subscribe(&self, f: Observer) {
        self.observers.lock().push(f);
    }

    /// Register a batch observer: it receives every change, but grouped —
    /// a one-event slice per commit normally, the whole coalesced batch
    /// when changes happen under [`Database::begin_batch`]. Multiple batch
    /// observers are invoked in parallel (each still sees events in order).
    pub fn subscribe_batch(&self, f: BatchObserver) {
        self.batch_observers.lock().push(f);
    }

    /// Start buffering change events. Events from every save/delete made
    /// while the returned guard lives are coalesced (last write per UNID
    /// wins) and delivered to observers together when the guard drops.
    /// Guards nest; the outermost drop flushes.
    pub fn begin_batch(&self) -> BatchGuard<'_> {
        self.batch_state.lock().depth += 1;
        BatchGuard { db: self }
    }

    /// The database *change sequence*: a process-local counter bumped once
    /// per committed save/delete (batched or not). Pollers that need a
    /// cheap "has anything changed since I last looked?" answer — the HTTP
    /// task's command cache, `OnUpdate` agent scheduling — compare the
    /// value they captured against the current one instead of subscribing.
    /// Counts commits, not dispatches: it advances even while events are
    /// buffered under [`Database::begin_batch`].
    pub fn change_seq(&self) -> u64 {
        self.versions.seq()
    }

    /// Pin a read [`Snapshot`] at the current change sequence. Snapshot
    /// reads resolve against the versioned note map and never take the
    /// writer lock; drop the snapshot to release its GC pin.
    pub fn snapshot(&self) -> Snapshot {
        self.versions.pin()
    }

    /// `Db.Snapshot.*` counters plus this database's retained-version
    /// count.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.versions.stats()
    }

    /// Snapshots of *this* database currently pinned.
    pub fn active_snapshots(&self) -> usize {
        self.versions.active_pins()
    }

    fn notify(&self, event: ChangeEvent) {
        {
            let mut b = self.batch_state.lock();
            if b.depth > 0 {
                b.buffered.push(event);
                return;
            }
        }
        self.dispatch(std::slice::from_ref(&event));
    }

    /// Deliver events to all observers: per-event subscribers first (in
    /// event order), then batch subscribers — fanned out across observers
    /// in parallel, since each maintains independent state (its own view
    /// index) and an import-sized batch is expensive per observer.
    fn dispatch(&self, events: &[ChangeEvent]) {
        if events.is_empty() {
            return;
        }
        let observers: Vec<Observer> = self.observers.lock().clone();
        for event in events {
            for obs in &observers {
                obs(event);
            }
        }
        let batch_obs: Vec<BatchObserver> = self.batch_observers.lock().clone();
        match batch_obs.len() {
            0 => {}
            1 => batch_obs[0](events),
            _ => batch_obs
                .par_iter()
                .with_min_len(1)
                .for_each(|obs| obs(events)),
        }
    }

    // ------------------------------------------------------------------
    // CRUD
    // ------------------------------------------------------------------

    /// The one write path. Every note mutation is the same choreography
    /// around a different decision: take the engine mutex, read the
    /// record under `target` once, let `decide` turn the live note there
    /// (`None` for a stub or nothing) into the record to write — or
    /// decline with `Ok(None)` — then write it and publish it.
    ///
    /// The version map and the Merkle summary are updated *before the
    /// engine mutex is released*: commit order then equals
    /// change-sequence order, which is what makes snapshot reads
    /// linearizable and keeps the digests describing a committed prefix.
    /// Observers run after it is released. Returns the local id written.
    fn commit(
        &self,
        target: Target,
        decide: impl FnOnce(&mut DbInner, Option<&Note>) -> Result<Option<Record>>,
    ) -> Result<Option<NoteId>> {
        let (id, event) = {
            let mut g = match self.inner.try_lock() {
                Some(g) => g,
                None => {
                    let blocked = Instant::now();
                    let g = self.inner.lock();
                    m().engine_wait_micros
                        .record(blocked.elapsed().as_micros() as u64);
                    g
                }
            };
            let mut stored = match target {
                Target::New => None,
                Target::Id(id) => g.stored(id)?,
                Target::Unid(unid) => {
                    let store = g.store;
                    match store.lookup_unid(&mut g.engine, unid)? {
                        Some(id) => Some(g.stored(id)?.ok_or_else(|| {
                            DominoError::Corrupt(format!(
                                "unid {unid} bound to missing record {id}"
                            ))
                        })?),
                        None => None,
                    }
                }
            };
            let old = stored.as_mut().and_then(|s| s.note.take());
            let Some(mut record) = decide(&mut g, old.as_ref())? else {
                return Ok(None);
            };
            // A lazily seeded version about to be superseded gets its
            // full pre-image first, so pinned snapshots can still read
            // the old body after the engine record is overwritten.
            if let Some(o) = &old {
                self.versions.backfill(o.unid(), o);
            }
            let unid = record.oid().unid;
            let id = g.write_record(&mut record, stored.as_ref())?;
            let (head, event) = match record {
                Record::Note(new) => {
                    self.versions.publish(unid, id, Some(Arc::new(new.clone())));
                    m().saved.inc();
                    (
                        revision::merkle_head(&new),
                        Some(ChangeEvent::Saved { old, new }),
                    )
                }
                Record::Stub(stub) => {
                    // Retract a live note from snapshot visibility;
                    // re-stubbing a stub changes nothing readers see.
                    if old.is_some() {
                        self.versions.publish(unid, id, None);
                    }
                    (
                        revision::stub_head(&stub.oid),
                        old.map(|old| ChangeEvent::Deleted { old, stub }),
                    )
                }
            };
            self.merkle.lock().set_head(unid, Some(head));
            (id, event)
        };
        if let Some(event) = event {
            self.notify(event);
        }
        Ok(Some(id))
    }

    /// Save a note: create it if it is a draft, else update the stored
    /// copy. On return the note carries its assigned ids and stamps.
    pub fn save(&self, note: &mut Note) -> Result<()> {
        let _span = obs::span!("Database.Save");
        let _save_time = m().save_micros.time_micros();
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
                let old =
                    old.ok_or_else(|| DominoError::NotFound(format!("note {} vanished", note.id)))?;
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
            Ok(Some(Record::Note(note.clone())))
        })?;
        note.id = id.expect("save always writes");
        Ok(())
    }

    /// Write a note exactly as received from another replica: identity,
    /// stamps, and item revisions are preserved. Replaces any existing
    /// note *or stub* with the same UNID.
    pub fn save_replicated(&self, mut note: Note) -> Result<Note> {
        note.keep_access_items_in_summary();
        let mut saved = note.clone();
        let id = self.commit(Target::Unid(note.unid()), |_, _| {
            self.clock.observe(note.oid.seq_time);
            self.clock.observe(note.modified);
            Ok(Some(Record::Note(note)))
        })?;
        saved.id = id.expect("save_replicated always writes");
        Ok(saved)
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
        m().opened.inc();
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
        m().opened.inc();
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
            let old = old.ok_or_else(|| DominoError::NotFound(format!("note {id}")))?;
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
        m().deleted.inc();
        Ok(written.expect("delete always writes"))
    }

    /// Apply a deletion received from another replica. The stub's own OID
    /// is preserved. Returns the locally recorded stub, or `None` if the
    /// local copy is *newer* than the deletion (the caller should treat
    /// that as a conflict). A UNID never seen here still records the stub,
    /// so the deletion keeps propagating.
    pub fn apply_remote_deletion(&self, remote: &DeletionStub) -> Result<Option<DeletionStub>> {
        let id = self.commit(Target::Unid(remote.oid.unid), |_, old| {
            self.clock.observe(remote.oid.seq_time);
            Ok(match old {
                Some(local) if local.oid.winner_key() > remote.oid.winner_key() => None,
                _ => Some(Record::Stub(*remote)),
            })
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
        m().opened.add(hits.len() as u64);
        Ok(hits)
    }

    /// Replication-candidate entries for the UNIDs a Merkle diff found
    /// differing: only the named notes/stubs are touched, so a pull costs
    /// O(differing) engine reads. Unknown UNIDs are skipped. Entries come
    /// back in `(seq_time, unid)` order, the order a pull cursor batches
    /// and resumes in.
    pub fn changed_entries_for(&self, unids: &[Unid]) -> Result<Vec<ChangedNote>> {
        let mut g = self.inner.lock();
        let store = g.store;
        let mut out = Vec::with_capacity(unids.len());
        for unid in unids {
            let Some(id) = store.lookup_unid(&mut g.engine, *unid)? else {
                continue;
            };
            if let Some(entry) = g.changed_entry(id)? {
                out.push(entry);
            }
        }
        out.sort_by_key(|c| (c.oid.seq_time, c.oid.unid.0));
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
            let mut tx = g.engine.begin()?;
            store.remove(&mut g.engine, &mut tx, stub.id)?;
            store.unbind_unid(&mut g.engine, &mut tx, stub.oid.unid)?;
            g.engine.commit(tx)?;
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

    /// Store the ACL (as an ACL-class note, so it replicates).
    pub fn set_acl(&self, acl: &Acl) -> Result<()> {
        let acl_id = self.versions.acl_note();
        let mut note = if acl_id != 0 {
            self.open_note(NoteId(acl_id as u32))?
        } else {
            Note::new(NoteClass::Acl)
        };
        note.set("Entries", Value::text_list(acl.to_lines()));
        self.save(&mut note)?;
        let mut g = self.inner.lock();
        let mut tx = g.engine.begin()?;
        g.engine
            .set_user_slot(&mut tx, SLOT_ACL_NOTE, note.id.0 as u64)?;
        g.engine.commit(tx)?;
        self.versions.set_acl_note(note.id.0 as u64);
        Ok(())
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

    /// Spawn a background checkpointing thread that runs
    /// [`Database::checkpoint_incremental`] every `interval`. The returned
    /// handle stops and joins the thread when dropped (or via
    /// [`CheckpointerHandle::stop`]); the thread also exits on its own once
    /// the database is dropped.
    pub fn start_checkpointer(
        self: &Arc<Database>,
        interval: std::time::Duration,
        pages_per_step: usize,
    ) -> CheckpointerHandle {
        let weak = Arc::downgrade(self);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let task_name = format!("checkpointer:{}", self.title());
        let handle = std::thread::spawn(move || {
            let task = domino_obs::register_task(&task_name, "Fuzzy checkpoint");
            // Sleep in short slices so stop() never waits a full interval.
            let slice = std::time::Duration::from_millis(5)
                .min(interval)
                .max(std::time::Duration::from_millis(1));
            let mut elapsed = std::time::Duration::ZERO;
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                elapsed += slice;
                if elapsed < interval {
                    continue;
                }
                elapsed = std::time::Duration::ZERO;
                let Some(db) = weak.upgrade() else { return };
                // Best-effort: a failed cycle (e.g. I/O error) is retried
                // at the next interval.
                let _ = db.checkpoint_incremental(pages_per_step);
                task.beat();
            }
        });
        CheckpointerHandle {
            stop,
            handle: Some(handle),
        }
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

    /// WAL counters (None when logging is off).
    pub fn log_stats(&self) -> Option<domino_wal::LogStats> {
        self.inner.lock().engine.wal().map(|w| w.stats())
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
    /// database and before/after disk sizes.
    pub fn compact_into(
        &self,
        disk: Box<dyn domino_storage::Disk>,
        log: Option<Box<dyn domino_wal::LogStore>>,
    ) -> Result<(Database, CompactStats)> {
        let mut stats = CompactStats {
            bytes_before: self.inner.lock().engine.logical_bytes()?,
            ..CompactStats::default()
        };
        let config = DbConfig {
            title: self.title(),
            replica_id: self.replica_id(),
            instance_id: self.instance_id(),
            purge_interval: self.purge_interval(),
            engine: self.inner.lock().engine.config().clone(),
        };
        let fresh = Database::open(disk, log, config, self.clock.clone())?;
        // Copy notes in note-id order, preserving identity and lineage
        // (save_replicated keeps OIDs/items byte-for-byte).
        let snap = self.snapshot();
        for id in snap.note_ids(None) {
            fresh.save_replicated(snap.open_note(id)?)?;
            stats.notes_copied += 1;
        }
        for stub in self.stubs()? {
            fresh.apply_remote_deletion(&stub)?;
            stats.stubs_copied += 1;
        }
        // Preserve the local ACL-note pointer if one is set.
        if self.versions.acl_note() != 0 {
            fresh.set_acl(&snap.acl()?)?;
        }
        fresh.checkpoint()?;
        stats.bytes_after = fresh.inner.lock().engine.logical_bytes()?;
        let reg = m();
        reg.compact_runs.inc();
        reg.compact_notes_copied.add(stats.notes_copied);
        reg.compact_bytes_reclaimed
            .add(stats.bytes_before.saturating_sub(stats.bytes_after));
        Ok((fresh, stats))
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

/// What a compaction did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    pub notes_copied: u64,
    pub stubs_copied: u64,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

/// Where a mutation finds the record it replaces.
enum Target {
    /// Nowhere: a draft gets a fresh UNID no other writer can reach.
    New,
    Id(NoteId),
    Unid(Unid),
}

/// The record a mutation puts in place.
enum Record {
    Note(Note),
    Stub(DeletionStub),
}

impl Record {
    fn oid(&self) -> Oid {
        match self {
            Record::Note(note) => note.oid,
            Record::Stub(stub) => stub.oid,
        }
    }
}

/// The record found under a mutation's target, read once per commit.
struct Stored {
    id: NoteId,
    /// The live note; `None` when the record is a deletion stub.
    note: Option<Note>,
    /// The segment bytes as read, so `write_record` re-puts only what
    /// changed. `body` is `None` when there is no body segment.
    summary: Vec<u8>,
    body: Option<Vec<u8>>,
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
                note: None,
                summary,
                body: None,
            }));
        }
        let body = self.store.get(&mut self.engine, id, Segment::Body)?;
        let note = Note::decode(id, &summary, body.as_deref())?;
        Ok(Some(Stored {
            id,
            note: Some(note),
            summary,
            body,
        }))
    }

    /// Load a full note; `None` for stubs.
    fn load(&mut self, id: NoteId) -> Result<Option<Note>> {
        Ok(self.stored(id)?.and_then(|s| s.note))
    }

    fn changed_entry(&mut self, id: NoteId) -> Result<Option<ChangedNote>> {
        let Some(summary) = self.store.get(&mut self.engine, id, Segment::Summary)? else {
            return Ok(None);
        };
        if record_is_stub(&summary) {
            let stub = DeletionStub::decode(id, &summary)?;
            Ok(Some(ChangedNote {
                id,
                oid: stub.oid,
                is_stub: true,
            }))
        } else {
            let note = Note::decode(id, &summary, None)?;
            Ok(Some(ChangedNote {
                id,
                oid: note.oid,
                is_stub: false,
            }))
        }
    }

    /// Write a note or stub record in one transaction. `replaces` is the
    /// record being overwritten; without one the record gets a fresh local
    /// id (any id it arrived with is another replica's) and its UNID is
    /// bound to it. A stub keeps the binding, so later updates find it. A
    /// segment whose new encoding equals its stored bytes is left alone:
    /// it keeps its `RecordPtr` and logs nothing.
    fn write_record(&mut self, record: &mut Record, replaces: Option<&Stored>) -> Result<NoteId> {
        let mut tx = self.engine.begin()?;
        let result = (|| {
            let id = match replaces {
                Some(s) => s.id,
                None => self.store.alloc_note_id(&mut self.engine, &mut tx)?,
            };
            let prior_body = replaces.and_then(|s| s.body.as_deref());
            let unid = record.oid().unid;
            let (summary, body) = match record {
                Record::Note(note) => {
                    note.id = id;
                    (note.encode_summary(), note.encode_body())
                }
                Record::Stub(stub) => {
                    stub.id = id;
                    (stub.encode(), None)
                }
            };
            if replaces.map(|s| s.summary.as_slice()) != Some(summary.as_slice()) {
                self.store
                    .put(&mut self.engine, &mut tx, id, Segment::Summary, &summary)?;
            }
            match body {
                Some(body) if prior_body != Some(body.as_slice()) => {
                    self.store
                        .put(&mut self.engine, &mut tx, id, Segment::Body, &body)?
                }
                None if prior_body.is_some() => {
                    self.store
                        .remove_segment(&mut self.engine, &mut tx, id, Segment::Body)?;
                }
                _ => {}
            }
            if replaces.is_none() {
                self.store.bind_unid(&mut self.engine, &mut tx, unid, id)?;
            }
            Ok(id)
        })();
        match result {
            Ok(id) => self.engine.commit(tx).map(|()| id),
            Err(e) => {
                self.engine.abort(tx)?;
                Err(e)
            }
        }
    }
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

    /// Collects every delivered slice for inspection.
    fn collecting_observer(db: &Database) -> Arc<PMutex<Vec<Vec<ChangeEvent>>>> {
        let seen: Arc<PMutex<Vec<Vec<ChangeEvent>>>> = Arc::new(PMutex::new(Vec::new()));
        let sink = seen.clone();
        db.subscribe_batch(Arc::new(move |events: &[ChangeEvent]| {
            sink.lock().push(events.to_vec());
        }));
        seen
    }

    #[test]
    fn unbatched_changes_arrive_as_single_event_slices() {
        let db = db();
        let seen = collecting_observer(&db);
        doc(&db, "a");
        doc(&db, "b");
        let batches = seen.lock();
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn batch_buffers_and_coalesces_last_write_wins() {
        let db = db();
        let seen = collecting_observer(&db);
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
        let seen = collecting_observer(&db);
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
        let seen = collecting_observer(&db);
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
    fn legacy_observers_see_every_coalesced_event_in_order() {
        let db = db();
        let seen: Arc<PMutex<Vec<String>>> = Arc::new(PMutex::new(Vec::new()));
        let sink = seen.clone();
        db.subscribe(Arc::new(move |event: &ChangeEvent| {
            if let ChangeEvent::Saved { new, .. } = event {
                sink.lock()
                    .push(new.get_text("Subject").unwrap_or_default());
            }
        }));
        {
            let _guard = db.begin_batch();
            doc(&db, "first");
            doc(&db, "second");
        }
        assert_eq!(
            *seen.lock(),
            vec!["first".to_string(), "second".to_string()]
        );
    }

    #[test]
    fn parallel_fanout_reaches_all_batch_observers() {
        let db = db();
        let sinks: Vec<Arc<PMutex<Vec<Vec<ChangeEvent>>>>> =
            (0..4).map(|_| collecting_observer(&db)).collect();
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
    }
}
