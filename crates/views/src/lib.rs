//! The view engine: stored, incrementally-maintained query results.
//!
//! Notes views are the database's query mechanism: a selection formula
//! chooses documents, column formulas compute what each row shows, and a
//! collation keeps rows ordered (optionally under category headers and
//! response threads). The index is maintained *incrementally* — each saved
//! or deleted note adjusts just its own entries — which is the load-bearing
//! performance claim the paper makes for Notes' "semi-structured queries at
//! interactive speed".
//!
//! ```
//! use std::sync::Arc;
//! use domino_core::{Database, DbConfig, Note};
//! use domino_types::{LogicalClock, ReplicaId, Value};
//! use domino_views::{ColumnSpec, SortDir, View, ViewDesign};
//!
//! let db = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Tasks", ReplicaId(1), ReplicaId(2)),
//!     LogicalClock::new(),
//! ).unwrap());
//! let design = ViewDesign::new("Open", r#"SELECT Form = "Task""#).unwrap()
//!     .column(ColumnSpec::new("Subject", "Subject").unwrap().sorted(SortDir::Ascending));
//! let view = View::attach(&db, design).unwrap();
//!
//! let mut t = Note::document("Task");
//! t.set("Subject", Value::text("write the report"));
//! db.save(&mut t).unwrap();
//! assert_eq!(view.len(), 1);
//! ```

pub mod collate;
pub mod design;
pub mod folder;
pub mod index;
pub mod order;

pub use collate::SortDir;
pub use design::{Collation, ColumnSpec, ViewDesign};
pub use folder::{list_folders, Folder};
pub use index::{CategoryRow, NoteSource, ViewEntry, ViewIndex, ViewStats};

use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use domino_core::{ChangeEvent, Database, Note, Snapshot};
use domino_formula::EvalEnv;
use domino_types::{DominoError, NoteClass, Result, Unid, Value};

/// Adapter: one database state as a [`NoteSource`] for re-keying. Every
/// lookup of one maintenance step reads the same pinned snapshot.
struct DbSource(Snapshot);

impl NoteSource for DbSource {
    fn note_by_unid(&self, unid: Unid) -> Option<Note> {
        self.0.open_by_unid(unid).ok()
    }
}

/// A live view over a database: design + maintained index.
///
/// Create with [`View::attach`] (subscribes to database change events and
/// performs an initial build) or [`View::detached`] (maintained manually —
/// used by the experiments to compare incremental vs rebuild costs).
pub struct View {
    db: Weak<Database>,
    state: Arc<RwLock<ViewIndex>>,
}

/// One consistent paged read of a view: the rows (shared with the index,
/// not copied), the total row count, and the index
/// [version](View::version) they were taken at — all under a single
/// shared guard, so the three agree with each other (the HTTP command
/// cache validates pages on the version).
#[derive(Debug, Clone)]
pub struct ViewPage {
    pub rows: Vec<Arc<ViewEntry>>,
    pub total: usize,
    pub version: u64,
}

impl View {
    /// Build the view and keep it current via change events.
    ///
    /// Subscribes as a *batch* observer: a lone save arrives as a
    /// one-event batch, while writes made under [`Database::begin_batch`]
    /// arrive as one coalesced slice the index pre-evaluates in parallel
    /// (see [`ViewIndex::apply_batch`]). Multiple attached views are
    /// themselves updated in parallel by the database's dispatch.
    ///
    /// Subscribes *before* the initial build, and [`View::rebuild`] pins
    /// its snapshot while holding the index's write lock: a commit is
    /// either in that snapshot or its event is applied after the build.
    pub fn attach(db: &Arc<Database>, design: ViewDesign) -> Result<View> {
        let view = View::detached(db, design)?;
        let state = view.state.clone();
        let weak = Arc::downgrade(db);
        db.subscribe_batch(Arc::new(move |events: &[ChangeEvent]| {
            let Some(db) = weak.upgrade() else { return };
            let mut index = state.write();
            // Observer callbacks cannot surface errors; a failed formula
            // leaves the entry out (matching Notes, where a broken column
            // formula blanks the row rather than wedging the database).
            let _ = index.apply_batch(events, &DbSource(db.snapshot()));
        }));
        view.rebuild()?;
        Ok(view)
    }

    /// Build a view that is only updated when you call
    /// [`View::rebuild`]/[`View::apply`].
    pub fn detached(db: &Arc<Database>, design: ViewDesign) -> Result<View> {
        let env = EvalEnv {
            username: "server".to_string(),
            now: domino_types::Timestamp::ZERO,
            db_title: db.title(),
            ..EvalEnv::default()
        };
        Ok(View {
            db: Arc::downgrade(db),
            state: Arc::new(RwLock::new(ViewIndex::new(design, env)?)),
        })
    }

    fn db(&self) -> Result<Arc<Database>> {
        self.db
            .upgrade()
            .ok_or_else(|| DominoError::InvalidArgument("database dropped".into()))
    }

    /// Recompute the whole index from one snapshot of the database,
    /// pinned under the index's write lock (see [`View::attach`]). No
    /// engine page is read: a view sees summary items only.
    pub fn rebuild(&self) -> Result<()> {
        let db = self.db()?;
        let mut index = self.state.write();
        let snap = db.snapshot();
        let docs = snap.document_summaries();
        index.rebuild(docs.iter().map(|doc| doc.as_ref()), &DbSource(snap))
    }

    /// Apply one change event manually (detached views).
    pub fn apply(&self, event: &ChangeEvent) -> Result<()> {
        let src = DbSource(self.db()?.snapshot());
        self.state.write().apply(event, &src)
    }

    /// Apply a coalesced batch of change events manually (detached
    /// views); events are pre-evaluated in parallel and merged in order.
    pub fn apply_batch(&self, events: &[ChangeEvent]) -> Result<()> {
        let src = DbSource(self.db()?.snapshot());
        self.state.write().apply_batch(events, &src)
    }

    pub fn len(&self) -> usize {
        self.state.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.state.read().is_empty()
    }

    /// Index version: bumped on every mutation (apply, batch, rebuild).
    /// Two reads at the same version saw byte-identical index state.
    pub fn version(&self) -> u64 {
        self.state.read().version()
    }

    pub fn stats(&self) -> ViewStats {
        self.state.read().stats()
    }

    /// A copy of the view's design (name, selection, columns).
    pub fn design(&self) -> ViewDesign {
        self.state.read().design().clone()
    }

    /// Rows in primary collation order.
    pub fn rows(&self) -> Vec<Arc<ViewEntry>> {
        self.rows_in(0)
    }

    /// Rows in the given collation's order (0 = primary).
    pub fn rows_in(&self, collation: usize) -> Vec<Arc<ViewEntry>> {
        self.state.read().entries(collation).cloned().collect()
    }

    /// Rows whose leading sorted column(s) equal `prefix` — category
    /// navigation.
    pub fn rows_by_prefix(&self, collation: usize, prefix: &[Value]) -> Vec<Arc<ViewEntry>> {
        self.state
            .read()
            .entries_by_prefix(collation, prefix)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Up to `count` rows starting `start` rows (zero-based) into a
    /// collation's order, plus the total row count and index version,
    /// read under a single shared guard so all three are mutually
    /// consistent — the paged read the HTTP task serves
    /// `?OpenView`/`?ReadViewEntries` from (see [`ViewIndex::page`]).
    pub fn page(&self, collation: usize, start: usize, count: usize) -> ViewPage {
        let g = self.state.read();
        ViewPage {
            rows: g.page(collation, start, count),
            total: g.len(),
            version: g.version(),
        }
    }

    /// The row of a document, if the view shows it (an O(1) lookup).
    pub fn entry(&self, unid: Unid) -> Option<Arc<ViewEntry>> {
        self.state.read().entry(unid).cloned()
    }

    /// Zero-based position of a document in the primary collation.
    pub fn position_of(&self, unid: Unid) -> Option<usize> {
        self.state.read().position_of(0, unid)
    }

    /// Category rollups in collation order.
    pub fn categories(&self) -> Vec<CategoryRow> {
        self.state.read().categories(0)
    }

    /// Whole-view total of a column.
    pub fn column_total(&self, col: usize) -> f64 {
        self.state.read().column_total(col)
    }

    /// Store the design as a `View`-class design note in the database (so
    /// it replicates), replacing the stored design of the same name;
    /// returns the note's unid. Views and folders share one namespace (as
    /// in Notes): a name a folder holds is refused, not overwritten.
    pub fn save_design(&self) -> Result<Unid> {
        let db = self.db()?;
        let design = self.design();
        if folder::find_folder_note(&db, &design.name)?.is_some() {
            return Err(DominoError::AlreadyExists(format!(
                "folder {:?}",
                design.name
            )));
        }
        let mut note = design.to_note();
        db.save_design(&mut note)?;
        Ok(note.unid())
    }
}

/// Load every stored view design from a database's design notes (folders
/// share the `View` note class but are not query designs; they are
/// skipped — use [`list_folders`] for those).
pub fn stored_designs(db: &Database) -> Result<Vec<ViewDesign>> {
    db.snapshot()
        .design_notes(NoteClass::View)?
        .iter()
        .filter(|note| !folder::is_folder(note))
        .map(|note| ViewDesign::from_note(note))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::DbConfig;
    use domino_types::{LogicalClock, ReplicaId};

    fn db() -> Arc<Database> {
        Arc::new(
            Database::open_in_memory(
                DbConfig::new("T", ReplicaId(1), ReplicaId(7)),
                LogicalClock::new(),
            )
            .unwrap(),
        )
    }

    fn task(db: &Database, subject: &str, status: &str, hours: f64) -> Note {
        let mut n = Note::document("Task");
        n.set("Subject", Value::text(subject));
        n.set("Status", Value::text(status));
        n.set("Hours", Value::Number(hours));
        db.save(&mut n).unwrap();
        n
    }

    fn task_view(db: &Arc<Database>) -> View {
        let design = ViewDesign::new("Tasks", r#"SELECT Form = "Task""#)
            .unwrap()
            .column(ColumnSpec::new("Status", "Status").unwrap().categorized())
            .column(
                ColumnSpec::new("Subject", "Subject")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            )
            .column(ColumnSpec::new("Hours", "Hours").unwrap().totaled());
        View::attach(db, design).unwrap()
    }

    #[test]
    fn view_tracks_saves_incrementally() {
        let db = db();
        let view = task_view(&db);
        assert!(view.is_empty());
        task(&db, "b-second", "open", 1.0);
        task(&db, "a-first", "open", 2.0);
        assert_eq!(view.len(), 2);
        let rows = view.rows();
        assert_eq!(rows[0].values[1], Value::text("a-first"));
        assert_eq!(rows[1].values[1], Value::text("b-second"));
        // Only two documents were evaluated — no rebuild happened.
        assert_eq!(view.stats().rebuilds, 1); // the initial attach build
        assert_eq!(view.stats().evaluated, 2);
    }

    #[test]
    fn batched_saves_arrive_as_one_coalesced_batch() {
        let db = db();
        let view = task_view(&db);
        {
            let _batch = db.begin_batch();
            let mut t = task(&db, "b-second", "open", 1.0);
            // Re-save inside the batch: coalescing must collapse it.
            t.set("Hours", Value::Number(3.0));
            db.save(&mut t).unwrap();
            task(&db, "a-first", "open", 2.0);
            assert!(view.is_empty(), "events buffer until the batch drops");
        }
        assert_eq!(view.len(), 2);
        let rows = view.rows();
        assert_eq!(rows[0].values[1], Value::text("a-first"));
        assert_eq!(rows[1].values[1], Value::text("b-second"));
        assert_eq!(rows[1].values[2], Value::Number(3.0));
        let stats = view.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_events, 2, "three saves coalesce to two events");
        assert_eq!(stats.max_batch, 2);
        assert_eq!(stats.evaluated, 2);
        // The selection formula came from the compile cache at least twice
        // (view construction + the batch application).
        assert!(stats.selection_cache_hits + stats.selection_cache_misses >= 2);
    }

    #[test]
    fn non_matching_documents_excluded_and_updates_move_entries() {
        let db = db();
        let view = task_view(&db);
        let mut memo = Note::document("Memo");
        db.save(&mut memo).unwrap();
        assert_eq!(view.len(), 0);
        let mut t = task(&db, "zz", "open", 1.0);
        assert_eq!(view.len(), 1);
        // Rename moves the row.
        t.set("Subject", Value::text("aa"));
        db.save(&mut t).unwrap();
        let rows = view.rows();
        assert_eq!(rows[0].values[1], Value::text("aa"));
        // Changing Form removes it.
        t.set("Form", Value::text("Memo"));
        db.save(&mut t).unwrap();
        assert_eq!(view.len(), 0);
    }

    #[test]
    fn deletes_remove_entries() {
        let db = db();
        let view = task_view(&db);
        let t = task(&db, "x", "open", 1.0);
        assert_eq!(view.len(), 1);
        db.delete(t.id).unwrap();
        assert_eq!(view.len(), 0);
    }

    #[test]
    fn categories_group_and_total() {
        let db = db();
        let view = task_view(&db);
        task(&db, "a", "done", 5.0);
        task(&db, "b", "open", 1.0);
        task(&db, "c", "open", 2.0);
        let cats = view.categories();
        assert_eq!(cats.len(), 2);
        assert_eq!(cats[0].path, vec![Value::text("done")]);
        assert_eq!(cats[0].count, 1);
        assert_eq!(cats[0].totals, vec![(2, 5.0)]);
        assert_eq!(cats[1].path, vec![Value::text("open")]);
        assert_eq!(cats[1].count, 2);
        assert_eq!(cats[1].totals, vec![(2, 3.0)]);
        assert_eq!(view.column_total(2), 8.0);
    }

    #[test]
    fn prefix_navigation_finds_category_rows() {
        let db = db();
        let view = task_view(&db);
        for i in 0..10 {
            task(
                &db,
                &format!("t{i}"),
                if i < 3 { "open" } else { "done" },
                1.0,
            );
        }
        let open = view.rows_by_prefix(0, &[Value::text("open")]);
        assert_eq!(open.len(), 3);
        let done = view.rows_by_prefix(0, &[Value::text("done")]);
        assert_eq!(done.len(), 7);
        assert!(view.rows_by_prefix(0, &[Value::text("nope")]).is_empty());
    }

    #[test]
    fn alternate_collation_orders_independently() {
        let db = db();
        let design = ViewDesign::new("V", r#"SELECT Form = "Task""#)
            .unwrap()
            .column(
                ColumnSpec::new("Subject", "Subject")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            )
            .column(ColumnSpec::new("Hours", "Hours").unwrap())
            .alternate(vec![(1, SortDir::Descending)]);
        let view = View::attach(&db, design).unwrap();
        task(&db, "a", "s", 1.0);
        task(&db, "b", "s", 9.0);
        task(&db, "c", "s", 5.0);
        let by_subject: Vec<String> = view
            .rows_in(0)
            .iter()
            .map(|e| e.values[0].to_text())
            .collect();
        assert_eq!(by_subject, vec!["a", "b", "c"]);
        let by_hours: Vec<f64> = view
            .rows_in(1)
            .iter()
            .map(|e| e.values[1].as_number().unwrap())
            .collect();
        assert_eq!(by_hours, vec![9.0, 5.0, 1.0]);
    }

    #[test]
    fn responses_nest_under_parent() {
        let db = db();
        let design = ViewDesign::new("Threads", r#"SELECT Form = "Topic" | @AllDescendants"#)
            .unwrap()
            .column(
                ColumnSpec::new("Subject", "Subject")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            );
        let view = View::attach(&db, design).unwrap();

        let mut t1 = Note::document("Topic");
        t1.set("Subject", Value::text("beta topic"));
        db.save(&mut t1).unwrap();
        let mut t2 = Note::document("Topic");
        t2.set("Subject", Value::text("alpha topic"));
        db.save(&mut t2).unwrap();
        let mut r1 = Note::document("Response");
        r1.set("Subject", Value::text("re: beta"));
        r1.set_parent(t1.unid());
        db.save(&mut r1).unwrap();
        let mut r2 = Note::document("Response");
        r2.set("Subject", Value::text("re: re: beta"));
        r2.set_parent(r1.unid());
        db.save(&mut r2).unwrap();

        let rows = view.rows();
        let subjects: Vec<String> = rows.iter().map(|e| e.values[0].to_text()).collect();
        assert_eq!(
            subjects,
            vec!["alpha topic", "beta topic", "re: beta", "re: re: beta"]
        );
        let levels: Vec<u32> = rows.iter().map(|e| e.response_level).collect();
        assert_eq!(levels, vec![0, 0, 1, 2]);
    }

    #[test]
    fn response_rekeys_when_parent_moves() {
        let db = db();
        let design = ViewDesign::new("Threads", r#"SELECT Form = "Topic" | @AllDescendants"#)
            .unwrap()
            .column(
                ColumnSpec::new("Subject", "Subject")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            );
        let view = View::attach(&db, design).unwrap();
        let mut parent = Note::document("Topic");
        parent.set("Subject", Value::text("zzz"));
        db.save(&mut parent).unwrap();
        let mut other = Note::document("Topic");
        other.set("Subject", Value::text("mmm"));
        db.save(&mut other).unwrap();
        let mut resp = Note::document("Response");
        resp.set("Subject", Value::text("child"));
        resp.set_parent(parent.unid());
        db.save(&mut resp).unwrap();

        let order = |view: &View| -> Vec<String> {
            view.rows().iter().map(|e| e.values[0].to_text()).collect()
        };
        assert_eq!(order(&view), vec!["mmm", "zzz", "child"]);
        // Parent renamed to sort first: the child must follow it.
        parent.set("Subject", Value::text("aaa"));
        db.save(&mut parent).unwrap();
        assert_eq!(order(&view), vec!["aaa", "child", "mmm"]);
    }

    #[test]
    fn deleting_parent_reconsiders_children() {
        let db = db();
        let design = ViewDesign::new("Threads", r#"SELECT Form = "Topic" | @AllDescendants"#)
            .unwrap()
            .column(
                ColumnSpec::new("Subject", "Subject")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            );
        let view = View::attach(&db, design).unwrap();
        let mut parent = Note::document("Topic");
        parent.set("Subject", Value::text("p"));
        db.save(&mut parent).unwrap();
        let mut resp = Note::document("Response");
        resp.set("Subject", Value::text("r"));
        resp.set_parent(parent.unid());
        db.save(&mut resp).unwrap();
        assert_eq!(view.len(), 2);
        // The response was included only via its parent; deleting the
        // parent removes both (the selection does not match "Response").
        db.delete(parent.id).unwrap();
        assert_eq!(view.len(), 0);
    }

    #[test]
    fn rebuild_equals_incremental() {
        let db = db();
        let view = task_view(&db);
        for i in 0..50 {
            let mut t = task(&db, &format!("t{i:02}"), ["open", "done"][i % 2], i as f64);
            if i % 7 == 0 {
                t.set("Subject", Value::text(format!("renamed{i}")));
                db.save(&mut t).unwrap();
            }
            if i % 11 == 0 {
                db.delete(t.id).unwrap();
            }
        }
        let incremental: Vec<(String, String)> = view
            .rows()
            .iter()
            .map(|e| (e.values[0].to_text(), e.values[1].to_text()))
            .collect();
        let fresh = View::detached(&db, view.state.read().design().clone()).unwrap();
        fresh.rebuild().unwrap();
        let rebuilt: Vec<(String, String)> = fresh
            .rows()
            .iter()
            .map(|e| (e.values[0].to_text(), e.values[1].to_text()))
            .collect();
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn paging_and_positioning() {
        let db = db();
        let view = task_view(&db);
        let mut notes = Vec::new();
        for i in 0..20 {
            notes.push(task(&db, &format!("t{i:02}"), "open", 1.0));
        }
        let page = view.page(0, 5, 3);
        assert_eq!((page.rows.len(), page.total), (3, 20));
        assert_eq!(page.rows[0].values[1], Value::text("t05"));
        assert_eq!(page.rows[2].values[1], Value::text("t07"));
        // Positions agree with row order.
        for (i, row) in view.rows().iter().enumerate() {
            assert_eq!(view.position_of(row.unid), Some(i));
        }
        assert_eq!(view.position_of(domino_types::Unid(0xDEAD)), None);
        // Past-the-end paging is empty, partial tail works.
        assert!(view.page(0, 25, 5).rows.is_empty());
        assert!(view.page(0, usize::MAX, usize::MAX).rows.is_empty());
        assert_eq!(view.page(0, 18, 5).rows.len(), 2);
        // A page over everything matches full row order.
        assert_eq!(view.page(0, 0, usize::MAX).rows, view.rows());
        // A row is found by unid without its position.
        let row = view.entry(notes[7].unid()).unwrap();
        assert_eq!(row.values[1], Value::text("t07"));
        assert!(view.entry(domino_types::Unid(0xDEAD)).is_none());
    }

    #[test]
    fn saving_a_design_twice_replaces_it() {
        let db = db();
        let view = task_view(&db);
        let first = view.save_design().unwrap();
        let second = view.save_design().unwrap();
        assert_eq!(first, second, "the stored design is updated in place");
        assert_eq!(db.note_ids(Some(NoteClass::View)).unwrap().len(), 1);
        assert_eq!(stored_designs(&db).unwrap().len(), 1);
        // A folder's name is not a view's to take (one namespace).
        Folder::create(&db, "Hot").unwrap();
        let hot = View::detached(&db, ViewDesign::new("Hot", "SELECT @All").unwrap()).unwrap();
        assert_eq!(hot.save_design().unwrap_err().kind(), "already_exists");
        assert_eq!(
            Folder::create(&db, "Tasks").unwrap_err().kind(),
            "already_exists"
        );
    }

    #[test]
    fn design_persists_as_note() {
        let db = db();
        let view = task_view(&db);
        view.save_design().unwrap();
        let designs = stored_designs(&db).unwrap();
        assert_eq!(designs.len(), 1);
        assert_eq!(designs[0].name, "Tasks");
        assert_eq!(designs[0].columns.len(), 3);
    }
}
