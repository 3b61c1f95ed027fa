//! The view index: ordered, incrementally-maintained query results.
//!
//! A [`ViewIndex`] holds one shared [`ViewEntry`] per selected document,
//! placed in one counted [`Order`] per collation (primary + alternates), so
//! a page is read by position and a document's position by key without
//! walking there. Maintenance is incremental: each database
//! [`ChangeEvent`] re-evaluates just the changed document — the property E3
//! measures against full rebuilds.
//!
//! Response documents (when the design shows them) sort *under their
//! parent*: a response's key is its parent's full key extended with a
//! response marker and the response's own creation stamp, giving the
//! indented-thread order Notes views display. Re-keying cascades when a
//! parent moves.
//!
//! # The parallel indexing pipeline
//!
//! [`ViewIndex::rebuild`] splits work into a *parallel evaluate* phase and
//! a *sequential merge* phase. Selection and column formulas are pure, so
//! every main (parentless) document is evaluated on a rayon worker; the
//! per-collation orders are then bulk-built from pre-sorted `(key, entry)`
//! vectors instead of one ordered insert per document. Response
//! placement stays sequential (a response's key embeds its parent's key,
//! so subtrees are inherently ordered work); [`ViewIndex::rebuild_sequential`]
//! keeps the single-threaded path as the reference the equivalence
//! property test compares against — both produce byte-identical collation
//! orders and entries.
//!
//! [`ViewIndex::apply_batch`] is the incremental analogue: a slice of
//! change events (one coalesced database commit batch) is pre-evaluated in
//! parallel, then merged in event order. Merging in order is what makes
//! batching safe: the observable state equals applying the events one at a
//! time.
//!
//! The selection formula is fetched through the process-wide compiled-
//! formula cache ([`domino_formula::cache`]) at every rebuild and batch
//! application, so one parse is shared across views, workers, and apply
//! calls; per-view hit/miss counts land in [`ViewStats`].

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rayon::prelude::*;

use domino_core::{ChangeEvent, Note, SummaryItems};
use domino_formula::{EvalEnv, Formula};
use domino_obs as obs;
use domino_types::{NoteClass, NoteId, Result, Timestamp, Unid, Value};

/// Process-wide registry mirrors of [`ViewStats`] (which stays per-view
/// and exact). The selection-cache counters here aggregate *view-side*
/// lookups across every view in the process; `Formula.Cache.*` counts the
/// cache's own process-wide traffic — both derive from the same
/// `compile_cached` verdict, so the two surfaces correlate.
struct Metrics {
    rebuilds: &'static obs::Counter,
    rebuild_millis: &'static obs::Histogram,
    evaluated: &'static obs::Counter,
    placed: &'static obs::Counter,
    removed: &'static obs::Counter,
    batches: &'static obs::Counter,
    batch_events: &'static obs::Counter,
    batch_size: &'static obs::Histogram,
    cache_hits: &'static obs::Counter,
    cache_misses: &'static obs::Counter,
    pages_built: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        rebuilds: obs::counter("View.Rebuilds"),
        rebuild_millis: obs::histogram("View.Rebuild.Millis"),
        evaluated: obs::counter("View.Documents.Evaluated"),
        placed: obs::counter("View.Entries.Placed"),
        removed: obs::counter("View.Entries.Removed"),
        batches: obs::counter("View.Batches"),
        batch_events: obs::counter("View.Batch.Events"),
        batch_size: obs::histogram("View.Batch.Size"),
        cache_hits: obs::counter("View.SelectionCache.Hits"),
        cache_misses: obs::counter("View.SelectionCache.Misses"),
        pages_built: obs::counter("View.Pages.Built"),
    })
}

use crate::collate::{encode_key, encode_prefix, prefix_upper_bound, SortDir};
use crate::design::{Collation, ViewDesign};
use crate::order::Order;

/// Where the index gets documents it must re-evaluate (parents/children of
/// changed notes).
pub trait NoteSource {
    fn note_by_unid(&self, unid: Unid) -> Option<Note>;
}

/// A no-op source for flat views (no response re-keying ever needed).
pub struct NoSource;

impl NoteSource for NoSource {
    fn note_by_unid(&self, _unid: Unid) -> Option<Note> {
        None
    }
}

/// One row of the view. Everything a reader needs to show the row — or to
/// decide it may not — is here, computed from one version of the document.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewEntry {
    pub unid: Unid,
    pub note_id: NoteId,
    /// Computed column values, one per design column.
    pub values: Vec<Value>,
    /// The document's combined `$Readers` lists (empty = unrestricted), as
    /// of the version `values` were computed from.
    pub readers: Vec<String>,
    /// 0 = main document, 1 = response, 2 = response-to-response...
    pub response_level: u32,
    pub parent: Option<Unid>,
    created: Timestamp,
}

/// Maintenance counters (E3/E4 read these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Documents evaluated against the selection formula.
    pub evaluated: u64,
    /// Entries inserted or re-keyed.
    pub placed: u64,
    /// Entries removed.
    pub removed: u64,
    /// Full rebuilds performed.
    pub rebuilds: u64,
    /// Compiled-selection cache hits (one lookup per rebuild/batch).
    pub selection_cache_hits: u64,
    /// Compiled-selection cache misses.
    pub selection_cache_misses: u64,
    /// `apply_batch` calls.
    pub batches: u64,
    /// Total change events across all batches.
    pub batch_events: u64,
    /// Largest single batch seen.
    pub max_batch: u64,
}

/// A category rollup row.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryRow {
    /// The category value path (one element per category column).
    pub path: Vec<Value>,
    /// Documents under this category.
    pub count: usize,
    /// Sums for each `total`-marked column (by column index).
    pub totals: Vec<(usize, f64)>,
}

/// A document's selection verdict and (if possibly included) column
/// values, computed ahead of the sequential merge — the unit of work the
/// parallel evaluate phase produces.
struct PreEval {
    selected: bool,
    /// `None` when the evaluate phase skipped column computation (the
    /// merge computes them lazily if inclusion turns out true).
    values: Option<Vec<Value>>,
}

pub struct ViewIndex {
    design: ViewDesign,
    /// The selection formula, fetched through the process-wide compile
    /// cache and shared (via `Arc`'d program) with parallel workers.
    selection: Formula,
    env: EvalEnv,
    entries: HashMap<Unid, Arc<ViewEntry>>,
    /// One counted order per collation: encoded key -> the shared entry.
    orders: Vec<Order<Arc<ViewEntry>>>,
    /// unid -> its current key in each collation.
    keys: HashMap<Unid, Vec<Vec<u8>>>,
    /// parent unid -> response unids present in the view.
    children: HashMap<Unid, HashSet<Unid>>,
    stats: ViewStats,
    /// Bumped on every mutation (apply, non-empty batch, rebuild). Pages
    /// read at equal versions saw byte-identical index state, which is
    /// what lets the HTTP command cache key on it.
    version: u64,
}

impl ViewIndex {
    pub fn new(design: ViewDesign, env: EvalEnv) -> Result<ViewIndex> {
        design.validate()?;
        let n_collations = design.collations().len();
        let mut stats = ViewStats::default();
        let selection = Self::cached_selection(&design, &mut stats)?;
        Ok(ViewIndex {
            design,
            selection,
            env,
            entries: HashMap::new(),
            orders: (0..n_collations).map(|_| Order::new()).collect(),
            keys: HashMap::new(),
            children: HashMap::new(),
            stats,
            version: 0,
        })
    }

    fn cached_selection(design: &ViewDesign, stats: &mut ViewStats) -> Result<Formula> {
        let (f, hit) = Formula::compile_cached(design.selection.source())?;
        // Per-view and registry counters both derive from this one
        // verdict: hits and misses are accounted at the same place, at
        // the same granularity (one count per view-side lookup).
        if hit {
            stats.selection_cache_hits += 1;
            m().cache_hits.inc();
        } else {
            stats.selection_cache_misses += 1;
            m().cache_misses.inc();
        }
        Ok(f)
    }

    /// Re-fetch the selection from the compile cache (hit after the first
    /// fetch anywhere in the process; the counters in [`ViewStats`] make
    /// the sharing observable).
    fn refresh_selection(&mut self) -> Result<()> {
        self.selection = Self::cached_selection(&self.design, &mut self.stats)?;
        Ok(())
    }

    /// The Notes rule, in one place: selection and column formulas see a
    /// document's *summary* items only. Rebuilds read summary-only
    /// snapshot versions, incremental maintenance reads a change event's
    /// whole note; both must yield the same row.
    fn selected(selection: &Formula, note: &Note, env: &EvalEnv) -> Result<bool> {
        Ok(selection.eval_full(&SummaryItems(note), env)?.selected)
    }

    fn column_values(design: &ViewDesign, note: &Note, env: &EvalEnv) -> Result<Vec<Value>> {
        design
            .columns
            .iter()
            .map(|col| col.formula.eval(&SummaryItems(note), env))
            .collect()
    }

    pub fn design(&self) -> &ViewDesign {
        &self.design
    }

    pub fn stats(&self) -> ViewStats {
        self.stats
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    // ------------------------------------------------------------------
    // maintenance
    // ------------------------------------------------------------------

    /// Apply one database change.
    pub fn apply(&mut self, event: &ChangeEvent, src: &dyn NoteSource) -> Result<()> {
        self.version += 1;
        match event {
            ChangeEvent::Saved { old, new } => {
                self.unlink_from_old_parent(old.as_ref(), new);
                self.consider(new, src)
            }
            ChangeEvent::Deleted { old, .. } => {
                self.remove_entry(old.unid());
                self.reconsider_children(old.unid(), src)
            }
        }
    }

    /// A response saved under another parent (or under none) leaves its
    /// old parent's thread: the `children` linkage follows `$REF`, and a
    /// stale link would let the old parent re-adopt the row the next time
    /// it moves.
    fn unlink_from_old_parent(&mut self, old: Option<&Note>, new: &Note) {
        let was = old.and_then(Note::parent);
        if let Some(kids) = was
            .filter(|was| Some(*was) != new.parent())
            .and_then(|was| self.children.get_mut(&was))
        {
            kids.remove(&new.unid());
        }
    }

    /// Apply a slice of change events — one coalesced commit batch.
    ///
    /// The batch is pre-evaluated in parallel (selection verdict plus, for
    /// selected documents, column values), then merged strictly in event
    /// order, so the result is identical to applying each event through
    /// [`ViewIndex::apply`] one at a time. Deletions and response
    /// adoption (inclusion through a parent already in the view) are
    /// resolved during the sequential merge because they depend on index
    /// state as of their position in the batch.
    pub fn apply_batch(&mut self, events: &[ChangeEvent], src: &dyn NoteSource) -> Result<()> {
        self.stats.batches += 1;
        self.stats.batch_events += events.len() as u64;
        self.stats.max_batch = self.stats.max_batch.max(events.len() as u64);
        m().batches.inc();
        m().batch_events.add(events.len() as u64);
        m().batch_size.record(events.len() as u64);
        let _span = obs::span!("View.ApplyBatch");
        if events.is_empty() {
            return Ok(());
        }
        self.version += 1;
        self.refresh_selection()?;
        let selection = &self.selection;
        let env = &self.env;
        let design = &self.design;
        let pre: Result<Vec<Option<PreEval>>> = events
            .par_iter()
            .map(|event| -> Result<Option<PreEval>> {
                let note = match event {
                    ChangeEvent::Saved { new, .. } => new,
                    ChangeEvent::Deleted { .. } => return Ok(None),
                };
                if note.class != NoteClass::Document {
                    return Ok(None);
                }
                let selected = Self::selected(selection, note, env)?;
                // Columns for selected documents only: an unselected
                // response may still ride in under its parent, but that
                // depends on merge-time state — the merge computes its
                // columns lazily, exactly as the one-event path would.
                let values = if selected {
                    Some(Self::column_values(design, note, env)?)
                } else {
                    None
                };
                Ok(Some(PreEval { selected, values }))
            })
            .collect();
        let pre = pre?;
        for (event, p) in events.iter().zip(pre) {
            match event {
                ChangeEvent::Saved { old, new } => {
                    self.unlink_from_old_parent(old.as_ref(), new);
                    self.consider_pre(new, p, src)?
                }
                ChangeEvent::Deleted { old, .. } => {
                    self.remove_entry(old.unid());
                    self.reconsider_children(old.unid(), src)?;
                }
            }
        }
        Ok(())
    }

    /// Rebuild from scratch over `docs` (selection + keys recomputed for
    /// every document), evaluating main documents on parallel workers.
    ///
    /// Main documents key independently of each other, so their selection
    /// verdicts, column values, and collation keys are all computed in
    /// parallel; the per-collation orders are then bulk-loaded from
    /// pre-sorted `(key, entry)` vectors. Responses key under their parent
    /// and are placed sequentially, shallow-to-deep (see
    /// `ViewIndex::place_responses`).
    pub fn rebuild<'a>(
        &mut self,
        docs: impl IntoIterator<Item = &'a Note>,
        src: &dyn NoteSource,
    ) -> Result<()> {
        let started = Instant::now();
        let _span = obs::span!("View.Rebuild");
        self.clear_state();
        self.stats.rebuilds += 1;
        m().rebuilds.inc();
        self.refresh_selection()?;
        let mut mains: Vec<&Note> = Vec::new();
        let mut responses: Vec<&Note> = Vec::new();
        for n in docs {
            if n.parent().is_none() {
                mains.push(n);
            } else {
                responses.push(n);
            }
        }

        // Evaluate phase: selection, columns, and keys for every main, in
        // parallel. Shared state is all read-only (`Formula` programs are
        // `Arc`'d plain data; `EvalEnv`/`ViewDesign` are owned by `self`).
        enum MainEval {
            /// Non-document note classes are never evaluated.
            Skip,
            Evaluated,
            Placed(ViewEntry, Vec<Vec<u8>>),
        }
        let selection = &self.selection;
        let env = &self.env;
        let design = &self.design;
        let collations = design.collations();
        let evals: Result<Vec<MainEval>> = mains
            .par_iter()
            .map(|note| -> Result<MainEval> {
                if note.class != NoteClass::Document {
                    return Ok(MainEval::Skip);
                }
                if !Self::selected(selection, note, env)? {
                    return Ok(MainEval::Evaluated);
                }
                let entry = ViewEntry {
                    unid: note.unid(),
                    note_id: note.id,
                    values: Self::column_values(design, note, env)?,
                    readers: note.readers(),
                    response_level: 0,
                    parent: None,
                    created: note.created,
                };
                let keys = Self::main_keys(&collations, &entry);
                Ok(MainEval::Placed(entry, keys))
            })
            .collect();

        // Merge phase: account stats, fill the entry/key maps, and
        // bulk-load each collation order from a pre-sorted vector (one
        // sort + linear build instead of n log n tree inserts).
        let mut per_coll: Vec<Vec<(Vec<u8>, Arc<ViewEntry>)>> =
            self.orders.iter().map(|_| Vec::new()).collect();
        let mut evaluated = 0u64;
        let mut placed = 0u64;
        for ev in evals? {
            match ev {
                MainEval::Skip => {}
                MainEval::Evaluated => evaluated += 1,
                MainEval::Placed(entry, keys) => {
                    evaluated += 1;
                    placed += 1;
                    let entry = Arc::new(entry);
                    for (ci, k) in keys.iter().enumerate() {
                        per_coll[ci].push((k.clone(), entry.clone()));
                    }
                    self.keys.insert(entry.unid, keys);
                    self.entries.insert(entry.unid, entry);
                }
            }
        }
        self.stats.evaluated += evaluated;
        self.stats.placed += placed;
        m().evaluated.add(evaluated);
        m().placed.add(placed);
        for (ci, mut pairs) in per_coll.into_iter().enumerate() {
            pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            self.orders[ci] = Order::from_sorted(pairs);
        }

        let result = self.place_responses(responses, src);
        m().rebuild_millis.record_millis(started.elapsed());
        result
    }

    /// Single-threaded rebuild, kept as the reference implementation: the
    /// equivalence property test asserts [`ViewIndex::rebuild`] produces
    /// byte-identical orders/entries, and E3 benchmarks the two against
    /// each other.
    pub fn rebuild_sequential<'a>(
        &mut self,
        docs: impl IntoIterator<Item = &'a Note>,
        src: &dyn NoteSource,
    ) -> Result<()> {
        let started = Instant::now();
        let _span = obs::span!("View.RebuildSequential");
        self.clear_state();
        self.stats.rebuilds += 1;
        m().rebuilds.inc();
        self.refresh_selection()?;
        // Mains first, then responses shallow-to-deep so parents exist when
        // children key themselves.
        let mut pending: Vec<&Note> = Vec::new();
        for n in docs {
            if n.parent().is_none() {
                self.consider(n, src)?;
            } else {
                pending.push(n);
            }
        }
        let result = self.place_responses(pending, src);
        m().rebuild_millis.record_millis(started.elapsed());
        result
    }

    fn clear_state(&mut self) {
        self.version += 1;
        self.entries.clear();
        for o in &mut self.orders {
            o.clear();
        }
        self.keys.clear();
        self.children.clear();
    }

    /// Place response documents in depth passes: each pass places the
    /// responses whose parent is already in the view, until no pass makes
    /// progress; the stragglers are orphans (parent excluded or missing),
    /// included by their own selection merit only.
    ///
    /// Each pass compacts the carry-over in place (index-swap retain)
    /// rather than allocating a fresh vector per pass.
    fn place_responses(&mut self, pending: Vec<&Note>, src: &dyn NoteSource) -> Result<()> {
        let mut remaining = pending;
        loop {
            let before = remaining.len();
            if before == 0 {
                return Ok(());
            }
            let mut kept = 0;
            for i in 0..before {
                let n = remaining[i];
                let parent_in = n
                    .parent()
                    .map(|p| self.entries.contains_key(&p))
                    .unwrap_or(false);
                if parent_in {
                    self.consider(n, src)?;
                } else {
                    remaining[kept] = n;
                    kept += 1;
                }
            }
            remaining.truncate(kept);
            if remaining.len() == before {
                for n in remaining {
                    self.consider(n, src)?;
                }
                return Ok(());
            }
        }
    }

    /// Evaluate one document and place/remove it.
    fn consider(&mut self, note: &Note, src: &dyn NoteSource) -> Result<()> {
        self.consider_pre(note, None, src)
    }

    /// Like [`ViewIndex::consider`], but reusing a pre-computed selection
    /// verdict / column values when the parallel evaluate phase supplied
    /// them.
    fn consider_pre(
        &mut self,
        note: &Note,
        pre: Option<PreEval>,
        src: &dyn NoteSource,
    ) -> Result<()> {
        if note.class != NoteClass::Document {
            return Ok(());
        }
        self.stats.evaluated += 1;
        m().evaluated.inc();
        let (selected, precomputed) = match pre {
            Some(p) => (p.selected, p.values),
            None => (Self::selected(&self.selection, note, &self.env)?, None),
        };
        let parent = note.parent();
        // Track the response linkage for *every* evaluated response, even
        // ones not (yet) included: if the parent enters the view later,
        // re-keying must find this child and pull it in.
        if let Some(p) = parent {
            if self.design.show_responses {
                self.children.entry(p).or_default().insert(note.unid());
            }
        }
        let included = selected
            || (self.design.show_responses
                && parent
                    .map(|p| self.entries.contains_key(&p))
                    .unwrap_or(false));
        if !included {
            self.remove_entry(note.unid());
            self.reconsider_children(note.unid(), src)?;
            return Ok(());
        }
        // Compute column values (unless the parallel phase already did).
        let values = match precomputed {
            Some(v) => v,
            None => Self::column_values(&self.design, note, &self.env)?,
        };
        let (response_level, parent_in_view) = match parent {
            Some(p) if self.design.show_responses => match self.entries.get(&p) {
                Some(pe) => (pe.response_level + 1, true),
                None => (0, false),
            },
            _ => (0, false),
        };
        let entry = ViewEntry {
            unid: note.unid(),
            note_id: note.id,
            values,
            readers: note.readers(),
            response_level,
            parent: if parent_in_view { parent } else { None },
            created: note.created,
        };
        self.place(entry);
        self.rekey_descendants(note.unid(), src)?;
        Ok(())
    }

    /// Insert or move an entry in every collation order. An edit that
    /// leaves a collation's key as it was swaps the row in place — most
    /// edits touch no sorted column of most views.
    fn place(&mut self, entry: ViewEntry) {
        let unid = entry.unid;
        let keys = self.compute_keys(&entry);
        let entry = Arc::new(entry);
        let old_keys = self.keys.remove(&unid);
        for (ci, (order, key)) in self.orders.iter_mut().zip(&keys).enumerate() {
            if let Some(old) = old_keys.as_ref().map(|k| &k[ci]).filter(|old| *old != key) {
                order.remove(old);
            }
            order.insert(key.clone(), entry.clone());
        }
        self.keys.insert(unid, keys);
        self.entries.insert(unid, entry);
        self.stats.placed += 1;
        m().placed.inc();
    }

    fn compute_keys(&self, entry: &ViewEntry) -> Vec<Vec<u8>> {
        if let Some(parent) = entry.parent {
            if let Some(parent_keys) = self.keys.get(&parent) {
                // Responses nest under their parent's key.
                return parent_keys
                    .iter()
                    .map(|pk| {
                        let mut k = pk.clone();
                        k.push(0x01); // response marker: sorts after parent,
                                      // before the next main entry
                        k.extend_from_slice(&entry.created.0.to_be_bytes());
                        k.extend_from_slice(&entry.unid.0.to_be_bytes());
                        k
                    })
                    .collect();
            }
        }
        Self::main_keys(&self.design.collations(), entry)
    }

    /// Collation keys for a main (top-level) entry. A free function of the
    /// design so the parallel rebuild workers can key entries without
    /// touching index state; `compute_keys` delegates here, keeping the
    /// bytes identical between the parallel and incremental paths.
    fn main_keys(collations: &[Collation], entry: &ViewEntry) -> Vec<Vec<u8>> {
        collations
            .iter()
            .map(|collation| {
                let cols: Vec<(Value, SortDir)> = collation
                    .keys
                    .iter()
                    .map(|(i, d)| (entry.values[*i].clone(), *d))
                    .collect();
                let mut k = encode_key(&cols, entry.unid.0);
                // Main entries get a 0x00 "main" marker so a response
                // (parent key + 0x01) can never collide with the next main
                // key.
                k.push(0x00);
                k
            })
            .collect()
    }

    fn remove_from_orders(&mut self, unid: Unid) {
        if let Some(keys) = self.keys.remove(&unid) {
            for (order, key) in self.orders.iter_mut().zip(keys.iter()) {
                order.remove(key);
            }
        }
    }

    fn remove_entry(&mut self, unid: Unid) {
        self.remove_from_orders(unid);
        if self.entries.remove(&unid).is_some() {
            // Note: the `children` linkage deliberately survives — it maps
            // the documents' $REF structure, not view membership, so a
            // parent re-entering the view can re-adopt responses that were
            // excluded alongside it. Stale links to deleted documents are
            // harmless (re-evaluation finds no note and drops them).
            self.stats.removed += 1;
            m().removed.inc();
        }
    }

    /// Parent moved or vanished: recompute each child's inclusion and key.
    fn reconsider_children(&mut self, parent: Unid, src: &dyn NoteSource) -> Result<()> {
        let kids: Vec<Unid> = self
            .children
            .get(&parent)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for kid in kids {
            if let Some(note) = src.note_by_unid(kid) {
                self.consider(&note, src)?;
            } else {
                self.remove_entry(kid);
            }
        }
        Ok(())
    }

    /// Re-key descendants after their ancestor moved.
    fn rekey_descendants(&mut self, parent: Unid, src: &dyn NoteSource) -> Result<()> {
        self.rekey_descendants_depth(parent, src, 0)
    }

    fn rekey_descendants_depth(
        &mut self,
        parent: Unid,
        src: &dyn NoteSource,
        depth: u32,
    ) -> Result<()> {
        // A $REF cycle would otherwise recurse forever; Notes caps response
        // nesting at 32 levels, so do we.
        if depth > 32 {
            return Ok(());
        }
        let kids: Vec<Unid> = self
            .children
            .get(&parent)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for kid in kids {
            if let Some(mut entry) = self.entries.get(&kid).map(|e| ViewEntry::clone(e)) {
                // Parent may have just appeared: adopt it.
                let parent_level = self.entries.get(&parent).map(|p| p.response_level);
                if let Some(pl) = parent_level {
                    entry.parent = Some(parent);
                    entry.response_level = pl + 1;
                    self.place(entry);
                    self.rekey_descendants_depth(kid, src, depth + 1)?;
                }
            } else if let Some(note) = src.note_by_unid(kid) {
                // Child known but not in view (arrived before parent).
                self.consider(&note, src)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // reads
    // ------------------------------------------------------------------

    /// Entries in collation order.
    pub fn entries(&self, collation: usize) -> impl Iterator<Item = &Arc<ViewEntry>> {
        self.orders[collation].iter().map(|(_, e)| e)
    }

    /// Entry lookup by unid — also the O(1) membership test.
    pub fn entry(&self, unid: Unid) -> Option<&Arc<ViewEntry>> {
        self.entries.get(&unid)
    }

    /// The encoded collation keys in order — diagnostics, and the
    /// byte-identity assertion in the parallel/sequential equivalence
    /// property test.
    pub fn order_keys(&self, collation: usize) -> Vec<Vec<u8>> {
        self.orders[collation]
            .iter()
            .map(|(k, _)| k.to_vec())
            .collect()
    }

    /// Entries whose leading sorted columns equal `prefix_values`
    /// (logarithmic positioning + linear in matches).
    pub fn entries_by_prefix(
        &self,
        collation: usize,
        prefix_values: &[Value],
    ) -> Vec<&Arc<ViewEntry>> {
        let coll = &self.design.collations()[collation];
        let cols: Vec<(Value, SortDir)> = coll
            .keys
            .iter()
            .zip(prefix_values.iter())
            .map(|((_, d), v)| (v.clone(), *d))
            .collect();
        let prefix = encode_prefix(&cols);
        self.orders[collation]
            .range(&prefix, prefix_upper_bound(&prefix))
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, e)| e)
            .collect()
    }

    /// The paged read primitive: up to `count` entries starting `start`
    /// rows (zero-based) into the collation order. This is what the HTTP
    /// task's `?OpenView`/`?ReadViewEntries` handlers read — the first row
    /// is found by position ([`Order::iter_from`]), so the last page of a
    /// view costs what the first does, and a row is a pointer bump.
    pub fn page(&self, collation: usize, start: usize, count: usize) -> Vec<Arc<ViewEntry>> {
        m().pages_built.inc();
        self.orders[collation]
            .iter_from(start)
            .take(count)
            .map(|(_, e)| e.clone())
            .collect()
    }

    /// Zero-based position of a document in the collation order (what the
    /// client needs to scroll to a just-opened document).
    pub fn position_of(&self, collation: usize, unid: Unid) -> Option<usize> {
        let key = self.keys.get(&unid)?.get(collation)?;
        Some(self.orders[collation].rank(key))
    }

    /// Sum of a totaled column over the whole view.
    pub fn column_total(&self, col: usize) -> f64 {
        self.entries
            .values()
            .filter_map(|e| e.values.get(col).and_then(|v| v.as_number().ok()))
            .sum()
    }

    /// Category rollups: group by the leading category columns, with counts
    /// and per-category sums of `total` columns. One ordered scan.
    pub fn categories(&self, collation: usize) -> Vec<CategoryRow> {
        let cat_cols: Vec<usize> = self
            .design
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.category)
            .map(|(i, _)| i)
            .collect();
        let total_cols: Vec<usize> = self
            .design
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.total)
            .map(|(i, _)| i)
            .collect();
        if cat_cols.is_empty() {
            return Vec::new();
        }
        let mut rows: Vec<CategoryRow> = Vec::new();
        for entry in self.entries(collation) {
            let path: Vec<Value> = cat_cols.iter().map(|i| entry.values[*i].clone()).collect();
            let matches = rows
                .last()
                .map(|r| {
                    r.path.len() == path.len()
                        && r.path
                            .iter()
                            .zip(path.iter())
                            .all(|(a, b)| a.collate(b) == std::cmp::Ordering::Equal)
                })
                .unwrap_or(false);
            if !matches {
                rows.push(CategoryRow {
                    path,
                    count: 0,
                    totals: total_cols.iter().map(|i| (*i, 0.0)).collect(),
                });
            }
            let row = rows.last_mut().expect("pushed above");
            row.count += 1;
            for (i, sum) in &mut row.totals {
                if let Some(Ok(n)) = entry.values.get(*i).map(|v| v.as_number()) {
                    *sum += n;
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::ColumnSpec;
    use crate::order::STEPS;

    fn memo(i: u32) -> Note {
        let mut n = Note::document("Memo");
        n.id = NoteId(i + 1);
        n.oid.unid = Unid(u128::from(i) + 1);
        n.set("Subject", Value::text(format!("memo {i:06}")));
        n
    }

    /// Probes `read` made outside the rows it returned.
    fn steps<T>(read: impl FnOnce() -> T) -> (usize, T) {
        STEPS.with(|s| s.set(0));
        let out = read();
        (STEPS.with(|s| s.get()), out)
    }

    /// Positional reads are flat: the first, the middle and the last page
    /// of a 100 000-row view each cost a bounded number of probes, as does
    /// the position of a document — counted, not timed.
    #[test]
    fn page_and_position_cost_the_same_anywhere_in_100_000_rows() {
        const ROWS: u32 = 100_000;
        let design = ViewDesign::new("BySubject", "SELECT @All").unwrap().column(
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(SortDir::Ascending),
        );
        let mut index = ViewIndex::new(design, EvalEnv::default()).unwrap();
        let notes: Vec<Note> = (0..ROWS).map(memo).collect();
        index.rebuild(notes.iter(), &NoSource).unwrap();
        // Incremental maintenance on top of the bulk load: move every
        // 50th row to the front, so chunks have split as well.
        for (i, n) in notes.iter().enumerate().filter(|(i, _)| i % 50 == 0) {
            let mut new = n.clone();
            new.set("Subject", Value::text(format!("a moved {i:06}")));
            let event = ChangeEvent::Saved {
                old: Some(n.clone()),
                new,
            };
            index.apply(&event, &NoSource).unwrap();
        }
        let n = index.len();
        assert_eq!(n, ROWS as usize);

        let all: Vec<Unid> = index.entries(0).map(|e| e.unid).collect();
        for start in [0, n / 2, n - 30] {
            let (cost, page) = steps(|| index.page(0, start, 30));
            assert!(cost <= 64, "page at {start}: {cost} probes");
            let got: Vec<Unid> = page.iter().map(|e| e.unid).collect();
            assert_eq!(got, all[start..start + 30]);
            let (cost, pos) = steps(|| index.position_of(0, all[start]));
            assert!(cost <= 64, "position of row {start}: {cost} probes");
            assert_eq!(pos, Some(start));
        }
    }
}
