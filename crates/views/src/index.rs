//! The view index: ordered, incrementally-maintained query results.
//!
//! A [`ViewIndex`] holds one shared [`ViewEntry`] per selected document,
//! placed in one counted [`Order`] per collation (primary + alternates), so
//! a page is read by position and a document's position by key without
//! walking there. Maintenance is incremental: [`ViewIndex::apply`] takes a
//! slice of database [`ChangeEvent`]s, as the change feed delivers them,
//! and re-evaluates just the changed documents — the property E3 measures
//! against full rebuilds.
//!
//! Response documents (when the design shows them) sort *under their
//! parent*: a response's key is its parent's full key extended with a
//! response marker and the response's own creation stamp, giving the
//! indented-thread order Notes views display. Re-keying cascades when a
//! parent moves.
//!
//! # One evaluation loop
//!
//! Both maintenance paths evaluate each document on the calling thread,
//! in one per-note step they share (`ViewIndex::evaluate`): the selection
//! verdict, then, for a document the view shows, its column values.
//! [`ViewIndex::apply`] merges strictly in event order, and because the
//! feed delivers in commit order, the last event merged for a document is
//! its latest commit. [`ViewIndex::rebuild`] keys every main (parentless)
//! document and bulk-loads the per-collation orders from sorted
//! `(key, entry)` vectors; responses are placed after their parents (a
//! response's key embeds its parent's key). A rebuild and incremental
//! application of the same notes in save order produce byte-identical
//! collation orders and entries (`tests/prop_par_rebuild.rs`).
//!
//! A document whose selection or column formula fails is not in the
//! view. The failure is that note's verdict, not the batch's or the
//! rebuild's: it counts in `Formula.Eval.Errors`, each `apply` or
//! `rebuild` that met one emits one warning event, and every other
//! document is maintained as usual. Neither path returns an error.
//!
//! The index evaluates the formulas its design holds, compiled once when
//! the design was built. Every index state has its own
//! [version](ViewIndex::version), drawn from one process-wide counter, so
//! no two states anywhere share one.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use domino_core::{ChangeEvent, Note, SummaryItems};
use domino_formula::{EvalEnv, EvalErrors};
use domino_obs as obs;
use domino_types::{NoteClass, NoteId, Result, Timestamp, Unid, Value};

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

impl ViewEntry {
    /// The top-level row of `note` with the given column values.
    fn main(note: &Note, values: Vec<Value>) -> ViewEntry {
        ViewEntry {
            unid: note.unid(),
            note_id: note.id,
            values,
            readers: note.readers(),
            response_level: 0,
            parent: None,
            created: note.created,
        }
    }
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

pub struct ViewIndex {
    design: ViewDesign,
    env: EvalEnv,
    entries: HashMap<Unid, Arc<ViewEntry>>,
    /// One counted order per collation: encoded key -> the shared entry.
    orders: Vec<Order<Arc<ViewEntry>>>,
    /// unid -> its current key in each collation.
    keys: HashMap<Unid, Vec<Vec<u8>>>,
    /// parent unid -> response unids present in the view.
    children: HashMap<Unid, HashSet<Unid>>,
    /// Formula failures of the `apply` or `rebuild` in progress.
    errors: EvalErrors,
    /// This state's number, new at construction and at every mutation
    /// (non-empty apply, rebuild). Pages read at equal versions saw
    /// byte-identical state of one index, which is what lets the HTTP
    /// command cache key on it.
    version: u64,
}

/// A version no index state in the process has had.
fn next_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl ViewIndex {
    pub fn new(design: ViewDesign, env: EvalEnv) -> Result<ViewIndex> {
        design.validate()?;
        let n_collations = design.collations().len();
        Ok(ViewIndex {
            design,
            env,
            entries: HashMap::new(),
            orders: (0..n_collations).map(|_| Order::new()).collect(),
            keys: HashMap::new(),
            children: HashMap::new(),
            errors: EvalErrors::default(),
            version: next_version(),
        })
    }

    pub fn design(&self) -> &ViewDesign {
        &self.design
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

    /// The one per-note evaluation `apply` and `rebuild` share: the row
    /// values of `note` if the view shows it, `None` if it does not. The
    /// view shows a document its selection selects or, when the design
    /// shows responses, a response whose parent is in the view. A
    /// selection or column formula that fails leaves the document out;
    /// the failure is recorded for the operation's report.
    ///
    /// The Notes rule, in one place: selection and column formulas see a
    /// document's *summary* items only. Rebuilds read summary-only
    /// snapshot versions, incremental maintenance reads a change event's
    /// whole note; both must yield the same row.
    fn evaluate(&mut self, note: &Note) -> Option<Vec<Value>> {
        obs::counter!("View.Documents.Evaluated").inc();
        let doc = SummaryItems(note);
        let selection = &self.design.selection;
        let selected = match selection.eval_full(&doc, &self.env) {
            Ok(out) => out.selected,
            Err(e) => {
                self.errors.record(selection, note.unid(), e);
                return None;
            }
        };
        let adopted = self.design.show_responses
            && note.parent().is_some_and(|p| self.entries.contains_key(&p));
        if !selected && !adopted {
            return None;
        }
        let mut values = Vec::with_capacity(self.design.columns.len());
        for col in &self.design.columns {
            match col.formula.eval(&doc, &self.env) {
                Ok(v) => values.push(v),
                Err(e) => {
                    self.errors.record(&col.formula, note.unid(), e);
                    return None;
                }
            }
        }
        Some(values)
    }

    /// Emit the finished operation's one event for the formula failures
    /// it met, if any.
    fn report_errors(&mut self) {
        let name = &self.design.name;
        self.errors
            .report(obs::EventKind::Misc, || format!("view {name}"));
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

    /// Apply a slice of database changes, in order: the result is
    /// identical to applying the events one at a time. A document whose
    /// formula fails is left out (see the module docs); nothing else
    /// fails.
    pub fn apply(&mut self, events: &[ChangeEvent], src: &dyn NoteSource) {
        obs::counter!("View.Batches").inc();
        obs::counter!("View.Batch.Events").add(events.len() as u64);
        obs::histogram!("View.Batch.Size").record(events.len() as u64);
        let _span = obs::span!("View.Apply");
        if events.is_empty() {
            return;
        }
        self.version = next_version();
        for event in events {
            match event {
                ChangeEvent::Saved { old, new } => {
                    self.unlink_from_old_parent(old.as_ref(), new);
                    self.consider(new, src);
                }
                ChangeEvent::Deleted { old, .. } => {
                    self.remove_entry(old.unid());
                    self.reconsider_children(old.unid(), src);
                }
            }
        }
        self.report_errors();
    }

    /// Rebuild from scratch over `docs` (selection + keys recomputed for
    /// every document).
    ///
    /// Main documents key independently of each other, so each collation
    /// order is bulk-loaded from a sorted `(key, entry)` vector (one sort
    /// and a linear build instead of n log n inserts). Responses key under
    /// their parent and are placed afterwards, shallow-to-deep (see
    /// `ViewIndex::place_responses`). Like [`ViewIndex::apply`], a rebuild
    /// has no error of its own.
    pub fn rebuild<'a>(&mut self, docs: impl IntoIterator<Item = &'a Note>, src: &dyn NoteSource) {
        let started = Instant::now();
        let _span = obs::span!("View.Rebuild");
        self.version = next_version();
        self.entries.clear();
        self.keys.clear();
        self.children.clear();
        obs::counter!("View.Rebuilds").inc();
        let collations = self.design.collations();
        let mut per_coll: Vec<Vec<(Vec<u8>, Arc<ViewEntry>)>> =
            collations.iter().map(|_| Vec::new()).collect();
        let mut responses: Vec<&Note> = Vec::new();
        for note in docs {
            if note.parent().is_some() {
                responses.push(note);
                continue;
            }
            if note.class != NoteClass::Document {
                continue;
            }
            let Some(values) = self.evaluate(note) else {
                continue;
            };
            let entry = Arc::new(ViewEntry::main(note, values));
            let keys = Self::main_keys(&collations, &entry);
            for (pairs, k) in per_coll.iter_mut().zip(&keys) {
                pairs.push((k.clone(), entry.clone()));
            }
            self.keys.insert(entry.unid, keys);
            self.entries.insert(entry.unid, entry);
            obs::counter!("View.Entries.Placed").inc();
        }
        for (order, mut pairs) in self.orders.iter_mut().zip(per_coll) {
            pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            *order = Order::from_sorted(pairs);
        }
        self.place_responses(responses, src);
        obs::histogram!("View.Rebuild.Millis").record_millis(started.elapsed());
        self.report_errors();
    }

    /// Place response documents in depth passes: each pass places, in
    /// order, the responses whose parent is already in the view, until no
    /// pass makes progress; the stragglers are orphans (parent excluded or
    /// missing), included by their own selection merit only.
    fn place_responses(&mut self, mut pending: Vec<&Note>, src: &dyn NoteSource) {
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|n| {
                let parent_in = n.parent().is_some_and(|p| self.entries.contains_key(&p));
                if parent_in {
                    self.consider(n, src);
                }
                !parent_in
            });
            if pending.len() == before {
                for n in pending {
                    self.consider(n, src);
                }
                return;
            }
        }
    }

    /// Evaluate one document and place or remove it.
    fn consider(&mut self, note: &Note, src: &dyn NoteSource) {
        if note.class != NoteClass::Document {
            return;
        }
        let parent = note.parent();
        // Track the response linkage for *every* evaluated response, even
        // ones not (yet) included: if the parent enters the view later,
        // re-keying must find this child and pull it in.
        if let Some(p) = parent {
            if self.design.show_responses {
                self.children.entry(p).or_default().insert(note.unid());
            }
        }
        let Some(values) = self.evaluate(note) else {
            self.remove_entry(note.unid());
            self.reconsider_children(note.unid(), src);
            return;
        };
        let parent_level = parent
            .filter(|_| self.design.show_responses)
            .and_then(|p| self.entries.get(&p))
            .map(|pe| pe.response_level);
        let entry = ViewEntry {
            response_level: parent_level.map_or(0, |l| l + 1),
            parent: parent.filter(|_| parent_level.is_some()),
            ..ViewEntry::main(note, values)
        };
        self.place(entry);
        self.rekey_descendants(note.unid(), src, 0);
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
        obs::counter!("View.Entries.Placed").inc();
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

    /// Collation keys for a main (top-level) entry. A function of the
    /// design alone, so the rebuild's bulk load keys entries before they
    /// are placed; `compute_keys` delegates here, keeping the bytes
    /// identical between the bulk and incremental paths.
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
            obs::counter!("View.Entries.Removed").inc();
        }
    }

    /// Parent moved or vanished: recompute each child's inclusion and key.
    fn reconsider_children(&mut self, parent: Unid, src: &dyn NoteSource) {
        let kids: Vec<Unid> = self
            .children
            .get(&parent)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for kid in kids {
            if let Some(note) = src.note_by_unid(kid) {
                self.consider(&note, src);
            } else {
                self.remove_entry(kid);
            }
        }
    }

    /// Re-key descendants after their ancestor moved.
    fn rekey_descendants(&mut self, parent: Unid, src: &dyn NoteSource, depth: u32) {
        // A $REF cycle would otherwise recurse forever; Notes caps response
        // nesting at 32 levels, so do we.
        if depth > 32 {
            return;
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
                    self.rekey_descendants(kid, src, depth + 1);
                }
            } else if let Some(note) = src.note_by_unid(kid) {
                // Child known but not in view (arrived before parent).
                self.consider(&note, src);
            }
        }
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
    /// byte-identity assertion in the rebuild-equals-incremental
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
        obs::counter!("View.Pages.Built").inc();
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
        index.rebuild(notes.iter(), &NoSource);
        // Incremental maintenance on top of the bulk load: move every
        // 50th row to the front, so chunks have split as well.
        for (i, n) in notes.iter().enumerate().filter(|(i, _)| i % 50 == 0) {
            let mut new = n.clone();
            new.set("Subject", Value::text(format!("a moved {i:06}")));
            let event = ChangeEvent::Saved {
                old: Some(n.clone()),
                new,
            };
            index.apply(&[event], &NoSource);
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

    /// Two indexes of one design over the same notes reach equal states
    /// by equal steps, yet no state repeats another's version: a page
    /// stamped with one can never be served for the other.
    #[test]
    fn a_fresh_or_rebuilt_index_never_repeats_another_indexs_version() {
        let index = || {
            let design = ViewDesign::new("All", "SELECT @All").unwrap();
            ViewIndex::new(design, EvalEnv::default()).unwrap()
        };
        let notes: Vec<Note> = (0..3).map(memo).collect();
        let saved = ChangeEvent::Saved {
            old: None,
            new: memo(3),
        };
        let mut seen = HashSet::new();
        for _ in 0..2 {
            let mut ix = index();
            assert!(seen.insert(ix.version()));
            ix.apply(&[], &NoSource);
            assert!(!seen.insert(ix.version()), "an empty apply changes nothing");
            ix.rebuild(notes.iter(), &NoSource);
            assert!(seen.insert(ix.version()));
            ix.apply(std::slice::from_ref(&saved), &NoSource);
            assert!(seen.insert(ix.version()));
            assert_eq!(ix.len(), 4);
        }
    }
}
