//! Multi-version note map: `change_seq`-stamped snapshots so readers
//! never take the writer lock.
//!
//! Every committed save/delete *publishes* the new note state (or a
//! deletion tombstone) into a per-UNID version chain, stamped with the
//! database change sequence assigned to that commit. A reader *pins* a
//! snapshot — the current sequence number — and resolves every lookup
//! against the newest version at-or-below its pin, entirely under a
//! shared lock: `?OpenView` pagination, `?OpenDocument`, full-text
//! search, and agent sweeps run against a frozen, consistent state while
//! writers keep committing.
//!
//! Version chains are pruned incrementally on each publish: versions
//! superseded at or below the oldest pinned sequence are dropped, and a
//! chain reduced to an unpinnable tombstone disappears entirely (to a
//! snapshot reader a tombstone and an absent chain are the same answer).
//! With no pins outstanding, each chain holds exactly the newest version
//! of each live note.
//!
//! Locking protocol (the order is load-bearing):
//!
//! * `publish` holds the map **write lock** across sequence bump +
//!   version insert + pruning, computing the pin horizon under the pins
//!   mutex while it does.
//! * `pin` takes the map **read lock**, then the pins mutex, then reads
//!   the sequence. Because pinning excludes publishers, a pin can never
//!   land between a publisher's sequence bump and its prune — the
//!   classic register-vs-reclaim race is closed by lock order, not by a
//!   retry loop.
//! * Unpinning (snapshot drop) touches only the pins mutex; reclamation
//!   is deferred to the next publish or `VersionStore::sweep`.
//! * Lazy seeding: `Database::open` seeds chains from the summary
//!   segment only (`body_elided`). Reader hydration loads the full note
//!   through the body loader — which takes the database inner lock —
//!   strictly *before* taking the map write lock, and writers backfill
//!   elided pre-images (already under the inner lock) before superseding
//!   them, so the inner lock always precedes the map write lock.
//!
//! The map also carries the database's *design collection*: the UNIDs of
//! the chains that hold a non-`Document` version (forms, views, folders,
//! agents, the ACL). `seed` and `publish` add to it on one class compare
//! and reclaiming a dead chain removes from it, so
//! [`Snapshot::design_notes`] and [`Snapshot::design_note`] find a design
//! element by walking a handful of chains — never the documents — and
//! see it at exactly the snapshot's sequence, like every other read.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

use parking_lot::RwLock;

use domino_formula::{EvalEnv, Formula};
use domino_obs as obs;
use domino_security::{AccessLevel, Acl, AclEntry};
use domino_types::{DominoError, NoteClass, NoteId, Result, Unid};

use crate::note::{Note, SummaryItems, ITEM_TITLE};

/// `Db.Snapshot.*` statistics, summed across every open database.
struct Metrics {
    pinned: &'static obs::Counter,
    active: &'static obs::Gauge,
    reads: &'static obs::Counter,
    versions: &'static obs::Gauge,
    pruned: &'static obs::Counter,
    hydrated: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        pinned: obs::counter("Db.Snapshot.Pinned"),
        active: obs::gauge("Db.Snapshot.Active"),
        reads: obs::counter("Db.Snapshot.Reads"),
        versions: obs::gauge("Db.Snapshot.Versions"),
        pruned: obs::counter("Db.Snapshot.Pruned"),
        hydrated: obs::counter("Db.Snapshot.Hydrated"),
    })
}

/// Loads a full note from the engine for hydration of a lazily seeded
/// (summary-only) version. Takes the database's inner lock internally, so
/// it must never be invoked while a version-map lock is held.
pub(crate) type BodyLoader = Arc<dyn Fn(NoteId) -> Result<Option<Note>> + Send + Sync>;

/// How many dirty chains one publish will try to prune. Bounds the work
/// done while holding the write lock; the queue drains because every
/// publish adds at most one entry.
const PRUNE_QUOTA: usize = 16;

/// One committed note state in a version chain.
#[derive(Clone)]
struct Version {
    note: Arc<Note>,
    /// Seeded from the summary segment only (lazy database open): the
    /// body items are absent and are loaded through the body loader on
    /// first full read. Only seed-time versions are ever elided; writers
    /// backfill the full pre-image before superseding one.
    body_elided: bool,
}

/// One note's version history: `(change_seq, state)` pairs ascending by
/// sequence; `None` is a deletion tombstone.
struct Chain {
    /// Local note id currently bound to this UNID (for `by_id` cleanup
    /// when the chain is reclaimed — a tombstone carries no note).
    id: NoteId,
    versions: Vec<(u64, Option<Version>)>,
}

#[derive(Default)]
struct VersionsInner {
    chains: HashMap<Unid, Chain>,
    /// Current local-id binding (ids are never reused by the store).
    by_id: HashMap<NoteId, Unid>,
    /// Chains that may have prunable versions, oldest first.
    dirty: VecDeque<Unid>,
    /// The design collection: every chain holding a non-`Document`
    /// version. Ordered, because a title stored twice (two replicas each
    /// created it) resolves to the lowest UNID on every replica.
    design: BTreeSet<Unid>,
}

/// Point-in-time counters for the version map (see OPERATIONS.md
/// `Db.Snapshot.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots pinned since process start (process-wide).
    pub pinned_total: u64,
    /// Snapshots alive right now (process-wide).
    pub active: i64,
    /// Lookups served from snapshots (process-wide).
    pub reads: u64,
    /// Versions retained by *this* database's map right now.
    pub retained_versions: usize,
    /// Versions reclaimed since process start (process-wide).
    pub pruned: u64,
}

/// The versioned note map behind [`crate::Database`]. Shared with every
/// outstanding [`Snapshot`].
pub struct VersionStore {
    state: RwLock<VersionsInner>,
    /// Pinned sequence → pin count. `BTreeMap` so the horizon (smallest
    /// pinned seq) is the first key.
    pins: StdMutex<BTreeMap<u64, usize>>,
    seq: AtomicU64,
    /// Note id of the stored ACL note (0 = none), mirrored from the
    /// engine user slot so snapshots resolve the ACL without the engine.
    acl_note: AtomicU64,
    /// Hydrates body-elided seed versions on first full read (set once by
    /// `Database::open`).
    body_loader: OnceLock<BodyLoader>,
}

impl VersionStore {
    pub(crate) fn new() -> VersionStore {
        VersionStore {
            state: RwLock::new(VersionsInner::default()),
            pins: StdMutex::new(BTreeMap::new()),
            seq: AtomicU64::new(0),
            acl_note: AtomicU64::new(0),
            body_loader: OnceLock::new(),
        }
    }

    pub(crate) fn set_body_loader(&self, loader: BodyLoader) {
        let _ = self.body_loader.set(loader);
    }

    /// Current change sequence (lock-free; safe for pollers).
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    pub(crate) fn set_acl_note(&self, id: u64) {
        self.acl_note.store(id, Ordering::Release);
    }

    /// Note id of the stored ACL note (0 = none).
    pub(crate) fn acl_note(&self) -> u64 {
        self.acl_note.load(Ordering::Acquire)
    }

    /// Install pre-existing engine state at sequence 0 (database open).
    /// With `body_elided`, `note` carries only the summary items; the
    /// body is loaded through the body loader on first full read.
    pub(crate) fn seed(&self, unid: Unid, id: NoteId, note: Arc<Note>, body_elided: bool) {
        let mut st = self.state.write();
        st.by_id.insert(id, unid);
        if note.class != NoteClass::Document {
            st.design.insert(unid);
        }
        st.chains.insert(
            unid,
            Chain {
                id,
                versions: vec![(0, Some(Version { note, body_elided }))],
            },
        );
        m().versions.add(1);
    }

    /// Writer-side hydration: called (with the database inner lock held)
    /// just before a new version supersedes this UNID, so any still-elided
    /// seed version gets its full pre-image while the engine still holds
    /// it. Without this, a snapshot pinned before the overwrite could only
    /// hydrate to the *new* content.
    pub(crate) fn backfill(&self, unid: Unid, full: &Note) {
        let mut st = self.state.write();
        if let Some(chain) = st.chains.get_mut(&unid) {
            for (_, v) in chain.versions.iter_mut() {
                if let Some(v) = v {
                    if v.body_elided {
                        v.note = Arc::new(full.clone());
                        v.body_elided = false;
                    }
                }
            }
        }
    }

    /// Reader-side hydration of the version visible at `seq`: load the
    /// full note from the engine (no version-map lock held), then install
    /// it if the slot is still elided. A still-elided slot proves no
    /// writer has superseded this UNID (writers backfill first), so the
    /// engine content *is* the seed-time content.
    fn hydrate(&self, unid: Unid, id: NoteId, seq: u64) -> Result<Arc<Note>> {
        let loader =
            self.body_loader.get().cloned().ok_or_else(|| {
                DominoError::Corrupt("elided version without a body loader".into())
            })?;
        let loaded = loader(id)?;
        let mut st = self.state.write();
        let ver = st
            .chains
            .get_mut(&unid)
            .and_then(|c| {
                c.versions
                    .iter_mut()
                    .rev()
                    .find(|(s, _)| *s <= seq)
                    .and_then(|(_, v)| v.as_mut())
            })
            .ok_or_else(|| DominoError::NotFound(format!("note {id}")))?;
        if ver.body_elided {
            let full = Arc::new(loaded.ok_or_else(|| DominoError::NotFound(format!("note {id}")))?);
            ver.note = Arc::clone(&full);
            ver.body_elided = false;
            m().hydrated.inc();
            Ok(full)
        } else {
            // Raced with a writer's backfill (or another reader): the
            // installed value is authoritative for this version.
            Ok(Arc::clone(&ver.note))
        }
    }

    /// Record one committed write and return the change sequence assigned
    /// to it. Called with the database's inner lock held, so commit order
    /// equals sequence order (the linearizability anchor). `None`
    /// publishes a deletion tombstone.
    pub(crate) fn publish(&self, unid: Unid, id: NoteId, note: Option<Arc<Note>>) -> u64 {
        let mut st = self.state.write();
        let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(note) = &note {
            st.by_id.insert(id, unid);
            if note.class != NoteClass::Document {
                st.design.insert(unid);
            }
        }
        let chain = st.chains.entry(unid).or_insert_with(|| Chain {
            id,
            versions: Vec::new(),
        });
        chain.id = id;
        chain.versions.push((
            seq,
            note.map(|note| Version {
                note,
                body_elided: false,
            }),
        ));
        m().versions.add(1);
        st.dirty.push_back(unid);
        let min_pin = self.min_pin(seq);
        Self::prune_some(&mut st, min_pin, PRUNE_QUOTA);
        seq
    }

    /// Pin the current state. The read lock excludes publishers, so the
    /// observed sequence is fully published and cannot be pruned before
    /// the pin registers.
    pub(crate) fn pin(self: &Arc<Self>) -> Snapshot {
        let seq = {
            let _st = self.state.read();
            let seq = self.seq.load(Ordering::Acquire);
            let mut pins = self.pins.lock().expect("pin registry poisoned");
            *pins.entry(seq).or_insert(0) += 1;
            seq
        };
        m().pinned.inc();
        m().active.add(1);
        Snapshot {
            store: Arc::clone(self),
            seq,
            acl_id: self.acl_note(),
        }
    }

    fn unpin(&self, seq: u64) {
        let mut pins = self.pins.lock().expect("pin registry poisoned");
        if let Some(n) = pins.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&seq);
            }
        }
        drop(pins);
        m().active.add(-1);
    }

    /// Oldest sequence any snapshot may still read; `current` if none.
    fn min_pin(&self, current: u64) -> u64 {
        let pins = self.pins.lock().expect("pin registry poisoned");
        pins.keys().next().copied().unwrap_or(current)
    }

    fn prune_some(st: &mut VersionsInner, min_pin: u64, quota: usize) {
        for _ in 0..quota {
            let Some(unid) = st.dirty.pop_front() else {
                break;
            };
            let (reclaim_id, requeue) = {
                let Some(chain) = st.chains.get_mut(&unid) else {
                    continue;
                };
                // Keep the newest version at-or-below the horizon plus
                // everything above it; older versions are unreachable.
                if let Some(idx) = chain.versions.iter().rposition(|(s, _)| *s <= min_pin) {
                    if idx > 0 {
                        chain.versions.drain(..idx);
                        m().versions.add(-(idx as i64));
                        m().pruned.add(idx as u64);
                    }
                }
                let fully_dead = chain.versions.len() == 1
                    && chain.versions[0].1.is_none()
                    && chain.versions[0].0 <= min_pin;
                if fully_dead {
                    (Some(chain.id), false)
                } else {
                    // Still multi-version or tombstone-tipped: revisit.
                    let dirty = chain.versions.len() > 1
                        || chain.versions.last().is_some_and(|(_, n)| n.is_none());
                    (None, dirty)
                }
            };
            if let Some(id) = reclaim_id {
                // A tombstone no snapshot can see equals absence: drop the
                // chain and its id binding entirely.
                st.chains.remove(&unid);
                st.design.remove(&unid);
                m().versions.add(-1);
                m().pruned.inc();
                if st.by_id.get(&id) == Some(&unid) {
                    st.by_id.remove(&id);
                }
            } else if requeue {
                st.dirty.push_back(unid);
            }
        }
    }

    /// Full prune pass over every chain (stub purge, maintenance).
    pub(crate) fn sweep(&self) {
        let mut st = self.state.write();
        let min_pin = self.min_pin(self.seq.load(Ordering::Acquire));
        st.dirty.clear();
        let all: Vec<Unid> = st.chains.keys().copied().collect();
        st.dirty.extend(all.iter().copied());
        let n = all.len();
        Self::prune_some(&mut st, min_pin, n);
    }

    /// Versions currently retained by this map.
    pub(crate) fn retained_versions(&self) -> usize {
        let st = self.state.read();
        st.chains.values().map(|c| c.versions.len()).sum()
    }

    /// Snapshots of this map currently pinned.
    pub(crate) fn active_pins(&self) -> usize {
        self.pins
            .lock()
            .expect("pin registry poisoned")
            .values()
            .sum()
    }

    pub(crate) fn stats(&self) -> SnapshotStats {
        let reg = m();
        SnapshotStats {
            pinned_total: reg.pinned.get(),
            active: reg.active.get(),
            reads: reg.reads.get(),
            retained_versions: self.retained_versions(),
            pruned: reg.pruned.get(),
        }
    }
}

fn wide_open_acl() -> Acl {
    let mut acl = Acl::new(AccessLevel::NoAccess);
    acl.set_default(AclEntry::new(AccessLevel::Manager));
    acl
}

/// A pinned, immutable view of the database at one change sequence.
/// Every lookup resolves against the version chains under a shared lock;
/// no reader ever touches the writer path. Dropping the snapshot
/// releases the pin (and with it, the GC horizon).
pub struct Snapshot {
    store: Arc<VersionStore>,
    seq: u64,
    acl_id: u64,
}

impl Snapshot {
    /// The change sequence this snapshot is pinned at: it sees exactly
    /// the commits with sequence `<=` this value.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn visible(chain: &Chain, seq: u64) -> Option<&Version> {
        chain
            .versions
            .iter()
            .rev()
            .find(|(s, _)| *s <= seq)
            .and_then(|(_, n)| n.as_ref())
    }

    /// The whole note behind a visible version: a body-elided seed
    /// version hydrates (one engine read, cached in the version slot for
    /// every later reader).
    fn full(&self, ver: Version) -> Result<Arc<Note>> {
        if ver.body_elided {
            self.store.hydrate(ver.note.unid(), ver.note.id, self.seq)
        } else {
            Ok(ver.note)
        }
    }

    /// Fetch a note by local id without cloning the note body (the hot
    /// server path). Deleted or not-yet-created notes read as `NotFound`.
    pub fn open_arc(&self, id: NoteId) -> Result<Arc<Note>> {
        m().reads.inc();
        let found = {
            let st = self.store.state.read();
            st.by_id
                .get(&id)
                .and_then(|unid| st.chains.get(unid))
                .and_then(|c| Self::visible(c, self.seq).cloned())
        };
        self.full(found.ok_or_else(|| DominoError::NotFound(format!("note {id}")))?)
    }

    /// Fetch a note by local id (owned copy).
    pub fn open_note(&self, id: NoteId) -> Result<Note> {
        self.open_arc(id).map(|n| (*n).clone())
    }

    /// Fetch a note by UNID.
    pub fn open_by_unid(&self, unid: Unid) -> Result<Note> {
        m().reads.inc();
        let found = {
            let st = self.store.state.read();
            st.chains
                .get(&unid)
                .and_then(|c| Self::visible(c, self.seq).cloned())
        };
        let ver = found.ok_or_else(|| DominoError::NotFound(format!("unid {unid}")))?;
        self.full(ver).map(|n| (*n).clone())
    }

    /// Whether a live note with this UNID is visible. (Summary-only: an
    /// elided version answers without hydration.)
    pub fn contains(&self, unid: Unid) -> bool {
        let st = self.store.state.read();
        st.chains
            .get(&unid)
            .and_then(|c| Self::visible(c, self.seq))
            .is_some()
    }

    /// Ids of all visible notes of a class (ascending). `None` = all.
    /// Classes live in the summary items, so elided versions never
    /// hydrate here.
    pub fn note_ids(&self, class: Option<NoteClass>) -> Vec<NoteId> {
        m().reads.inc();
        let st = self.store.state.read();
        let mut out: Vec<NoteId> = st
            .chains
            .values()
            .filter_map(|c| Self::visible(c, self.seq))
            .filter(|v| class.is_none() || Some(v.note.class) == class)
            .map(|v| v.note.id)
            .collect();
        out.sort_unstable();
        out
    }

    /// How many notes of `class` (`None` = every class) are visible.
    pub(crate) fn count(&self, class: Option<NoteClass>) -> usize {
        m().reads.inc();
        let st = self.store.state.read();
        st.chains
            .values()
            .filter_map(|c| Self::visible(c, self.seq))
            .filter(|v| class.is_none() || Some(v.note.class) == class)
            .count()
    }

    /// Visible document versions, ascending by note id — the shared
    /// backbone of the document reads below.
    fn documents_raw(&self) -> Vec<Version> {
        m().reads.inc();
        let st = self.store.state.read();
        let mut out: Vec<Version> = st
            .chains
            .values()
            .filter_map(|c| Self::visible(c, self.seq))
            .filter(|v| v.note.class == NoteClass::Document)
            .cloned()
            .collect();
        out.sort_unstable_by_key(|v| v.note.id);
        out
    }

    /// All visible documents, ascending by note id, without hydration:
    /// every note carries its summary items; body items are present only
    /// where the version is already resident. This is what a view refresh,
    /// log rotation and unread marks read — never an engine page.
    pub fn document_summaries(&self) -> Vec<Arc<Note>> {
        self.documents_raw().into_iter().map(|v| v.note).collect()
    }

    /// All visible documents in full, ascending by note id. Elided
    /// versions hydrate (full-text indexing and agents read bodies).
    pub fn documents(&self) -> Vec<Arc<Note>> {
        self.documents_raw()
            .into_iter()
            .map(|v| {
                // Hydration can only fail if the note vanished from the
                // engine mid-read; fall back to the summary copy.
                let summary = Arc::clone(&v.note);
                self.full(v).unwrap_or(summary)
            })
            .collect()
    }

    /// Count of visible documents (no hydration).
    pub fn document_count(&self) -> usize {
        self.count(Some(NoteClass::Document))
    }

    /// Response documents (direct children) of a note (no hydration:
    /// `$REF` is a summary item).
    pub fn responses_of(&self, parent: Unid) -> Vec<NoteId> {
        self.documents_raw()
            .iter()
            .filter(|v| v.note.parent() == Some(parent))
            .map(|v| v.note.id)
            .collect()
    }

    /// Documents matching a selection formula at this snapshot. Selection
    /// sees summary items only (like a view refresh), whether or not a
    /// version's body is resident; only the *matching* documents hydrate.
    pub fn search(&self, formula: &Formula, env: &EvalEnv) -> Result<Vec<Note>> {
        let mut out = Vec::new();
        for v in self.documents_raw() {
            if formula.selects(&SummaryItems(v.note.as_ref()), env)? {
                out.push((*self.full(v)?).clone());
            }
        }
        Ok(out)
    }

    /// Visible versions of `class` in the design collection, ascending by
    /// UNID. Class, title and the conflict marker are summary items, so
    /// nothing hydrates here.
    fn design_raw(&self, class: NoteClass) -> Vec<Version> {
        m().reads.inc();
        let st = self.store.state.read();
        st.design
            .iter()
            .filter_map(|unid| {
                let v = Self::visible(st.chains.get(unid)?, self.seq)?;
                // A replication-conflict copy keeps its loser's class and
                // title under a hash-derived UNID; it is a record of the
                // conflict, never the design.
                (v.note.class == class && !v.note.is_conflict()).then(|| v.clone())
            })
            .collect()
    }

    /// The design elements of one class (forms, views and folders, agents)
    /// as of this snapshot, ascending by UNID, one per `$TITLE`: a title
    /// stored twice (two replicas each created it) resolves to the lowest
    /// UNID, which is the same note on every replica. Costs O(design
    /// notes) whatever the number of documents; no engine read unless a
    /// lazily seeded element still has to load its body.
    pub fn design_notes(&self, class: NoteClass) -> Result<Vec<Arc<Note>>> {
        let mut titles = HashSet::new();
        self.design_raw(class)
            .into_iter()
            .filter(|v| {
                v.note
                    .get_text(ITEM_TITLE)
                    .is_none_or(|title| titles.insert(title))
            })
            .map(|found| self.full(found))
            .collect()
    }

    /// The design element of `class` whose `$TITLE` is `title`, if stored
    /// (the first of [`Snapshot::design_notes`] bearing it).
    pub fn design_note(&self, class: NoteClass, title: &str) -> Result<Option<Arc<Note>>> {
        self.design_raw(class)
            .into_iter()
            .find(|v| v.note.get_text(ITEM_TITLE).as_deref() == Some(title))
            .map(|found| self.full(found))
            .transpose()
    }

    /// The ACL as of this snapshot. Wide open (default Manager) when no
    /// ACL note existed yet — the pre-ACL database admits everyone, as
    /// [`crate::Database::acl`] always has.
    pub fn acl(&self) -> Result<Acl> {
        if self.acl_id == 0 {
            return Ok(wide_open_acl());
        }
        let note = match self.open_arc(NoteId(self.acl_id as u32)) {
            Ok(n) => n,
            // The ACL note postdates this snapshot.
            Err(_) => return Ok(wide_open_acl()),
        };
        let lines: Vec<String> = match note.get("Entries") {
            Some(v) => v.iter_scalars().iter().map(|s| s.to_text()).collect(),
            None => Vec::new(),
        };
        Acl::from_lines(&lines).ok_or_else(|| DominoError::Corrupt("unparseable ACL note".into()))
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.store.unpin(self.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_types::{Oid, Timestamp};

    fn note(id: u32, unid: u128, subject: &str) -> Arc<Note> {
        let mut n = Note::document("Memo");
        n.id = NoteId(id);
        n.oid = Oid::new(Unid(unid), Timestamp(id as u64));
        n.set("Subject", domino_types::Value::text(subject));
        Arc::new(n)
    }

    #[test]
    fn snapshots_see_only_their_prefix() {
        let store = Arc::new(VersionStore::new());
        store.publish(Unid(1), NoteId(1), Some(note(1, 1, "v1")));
        let snap1 = store.pin();
        store.publish(Unid(1), NoteId(1), Some(note(1, 1, "v2")));
        let snap2 = store.pin();
        assert_eq!(
            snap1.open_note(NoteId(1)).unwrap().get_text("Subject"),
            Some("v1".into())
        );
        assert_eq!(
            snap2.open_note(NoteId(1)).unwrap().get_text("Subject"),
            Some("v2".into())
        );
        assert_eq!(snap1.seq(), 1);
        assert_eq!(snap2.seq(), 2);
    }

    #[test]
    fn deletion_is_a_tombstone_then_absence() {
        let store = Arc::new(VersionStore::new());
        store.publish(Unid(1), NoteId(1), Some(note(1, 1, "x")));
        let before = store.pin();
        store.publish(Unid(1), NoteId(1), None);
        let after = store.pin();
        assert!(before.open_note(NoteId(1)).is_ok());
        assert!(after.open_note(NoteId(1)).is_err());
        assert!(!after.contains(Unid(1)));
        drop(before);
        drop(after);
        // With no pins, the next publish reclaims the dead chain.
        store.publish(Unid(2), NoteId(2), Some(note(2, 2, "y")));
        store.sweep();
        assert_eq!(store.retained_versions(), 1, "tombstone chain reclaimed");
        assert!(store.pin().open_note(NoteId(1)).is_err());
    }

    #[test]
    fn pins_hold_back_pruning() {
        let store = Arc::new(VersionStore::new());
        store.publish(Unid(1), NoteId(1), Some(note(1, 1, "v1")));
        let pinned = store.pin();
        for i in 2..10 {
            store.publish(Unid(1), NoteId(1), Some(note(1, 1, &format!("v{i}"))));
        }
        assert!(
            store.retained_versions() >= 2,
            "pinned version must survive pruning"
        );
        assert_eq!(
            pinned.open_note(NoteId(1)).unwrap().get_text("Subject"),
            Some("v1".into())
        );
        drop(pinned);
        store.sweep();
        assert_eq!(store.retained_versions(), 1, "unpinned history reclaimed");
    }

    fn design(id: u32, unid: u128, class: NoteClass, title: &str) -> Arc<Note> {
        let mut n = Note::new(class);
        n.id = NoteId(id);
        n.oid = Oid::new(Unid(unid), Timestamp(id as u64));
        n.set(ITEM_TITLE, domino_types::Value::text(title));
        Arc::new(n)
    }

    fn titles(snap: &Snapshot, class: NoteClass) -> Vec<(u128, String)> {
        snap.design_notes(class)
            .unwrap()
            .iter()
            .map(|n| (n.unid().0, n.get_text(ITEM_TITLE).unwrap()))
            .collect()
    }

    #[test]
    fn design_collection_is_snapshot_scoped_and_skips_documents() {
        let store = Arc::new(VersionStore::new());
        store.publish(Unid(1), NoteId(1), Some(note(1, 1, "a document")));
        let before = store.pin();
        store.publish(
            Unid(9),
            NoteId(2),
            Some(design(2, 9, NoteClass::Form, "Task")),
        );
        store.publish(
            Unid(5),
            NoteId(3),
            Some(design(3, 5, NoteClass::Agent, "Task")),
        );
        let after = store.pin();
        assert!(before.design_notes(NoteClass::Form).unwrap().is_empty());
        assert!(before
            .design_note(NoteClass::Form, "Task")
            .unwrap()
            .is_none());
        assert_eq!(
            titles(&after, NoteClass::Form),
            vec![(9, "Task".to_string())]
        );
        // Same title, other class: a different element.
        assert_eq!(
            after
                .design_note(NoteClass::Agent, "Task")
                .unwrap()
                .unwrap()
                .unid(),
            Unid(5)
        );
        assert!(after
            .design_note(NoteClass::Form, "Memo")
            .unwrap()
            .is_none());
        // Only the two design chains are in the collection.
        assert_eq!(store.state.read().design.len(), 2);
        // An update is seen by later snapshots only.
        store.publish(
            Unid(9),
            NoteId(2),
            Some(design(2, 9, NoteClass::Form, "Job")),
        );
        assert!(after
            .design_note(NoteClass::Form, "Task")
            .unwrap()
            .is_some());
        assert_eq!(
            titles(&store.pin(), NoteClass::Form),
            vec![(9, "Job".to_string())]
        );
    }

    #[test]
    fn duplicate_design_titles_resolve_to_the_lowest_unid() {
        let store = Arc::new(VersionStore::new());
        // Local id order is the reverse of UNID order, as on the replica
        // that received the other one's form second.
        store.publish(
            Unid(70),
            NoteId(1),
            Some(design(1, 70, NoteClass::Form, "Task")),
        );
        store.publish(
            Unid(30),
            NoteId(2),
            Some(design(2, 30, NoteClass::Form, "Task")),
        );
        store.publish(
            Unid(50),
            NoteId(3),
            Some(design(3, 50, NoteClass::Form, "Memo")),
        );
        // A replication-conflict copy is never the design, whatever its
        // UNID.
        let mut loser = (*design(4, 10, NoteClass::Form, "Task")).clone();
        loser.set(crate::note::ITEM_CONFLICT, domino_types::Value::text("1"));
        store.publish(Unid(10), NoteId(4), Some(Arc::new(loser)));
        let snap = store.pin();
        assert_eq!(
            snap.design_note(NoteClass::Form, "Task")
                .unwrap()
                .unwrap()
                .unid(),
            Unid(30)
        );
        assert_eq!(
            titles(&snap, NoteClass::Form),
            vec![(30, "Task".to_string()), (50, "Memo".to_string())],
            "ascending UNID, the shadowed duplicate left out"
        );
    }

    #[test]
    fn deleted_design_notes_leave_the_collection_on_sweep() {
        let store = Arc::new(VersionStore::new());
        store.seed(
            Unid(4),
            NoteId(1),
            design(1, 4, NoteClass::View, "All"),
            false,
        );
        store.publish(
            Unid(8),
            NoteId(2),
            Some(design(2, 8, NoteClass::Form, "Task")),
        );
        let pinned = store.pin();
        store.publish(Unid(4), NoteId(1), None);
        store.publish(Unid(8), NoteId(2), None);
        assert!(store
            .pin()
            .design_notes(NoteClass::Form)
            .unwrap()
            .is_empty());
        // The pin still reads both, so neither chain may be reclaimed.
        store.sweep();
        assert_eq!(titles(&pinned, NoteClass::View).len(), 1);
        assert_eq!(store.state.read().design.len(), 2);
        drop(pinned);
        store.sweep();
        assert!(store.state.read().design.is_empty(), "no leak past reclaim");
        assert_eq!(store.retained_versions(), 0);
    }

    #[test]
    fn note_ids_and_documents_are_snapshot_scoped() {
        let store = Arc::new(VersionStore::new());
        store.publish(Unid(1), NoteId(1), Some(note(1, 1, "a")));
        let snap = store.pin();
        store.publish(Unid(2), NoteId(2), Some(note(2, 2, "b")));
        assert_eq!(snap.note_ids(Some(NoteClass::Document)), vec![NoteId(1)]);
        assert_eq!(store.pin().document_count(), 2);
        assert_eq!(snap.documents().len(), 1);
    }
}
