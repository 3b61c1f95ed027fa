//! Property: the parallel rebuild pipeline produces an index
//! byte-identical to the sequential reference — same entries, same
//! encoded collation keys, same maintenance counters — over arbitrary
//! note sets including response hierarchies and orphans.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use domino::core::{Database, DbConfig, Note};
use domino::formula::EvalEnv;
use domino::types::{LogicalClock, NoteClass, ReplicaId, Unid, Value};
use domino::views::index::NoSource;
use domino::views::{ColumnSpec, NoteSource, SortDir, ViewDesign, ViewIndex};

/// One generated document: selected or not, categorized, valued, and
/// optionally a response to an *earlier* document (by index). Parents may
/// themselves be unselected ("Memo"), producing orphaned responses.
#[derive(Debug, Clone)]
struct Spec {
    task: bool,
    cat: u8,
    val: u8,
    parent: Option<usize>,
}

fn specs() -> impl Strategy<Value = Vec<Spec>> {
    prop::collection::vec(
        (
            any::<bool>(),
            0..4u8,
            any::<u8>(),
            prop::option::of(0..24usize),
        )
            .prop_map(|(task, cat, val, parent)| Spec {
                task,
                cat,
                val,
                parent,
            }),
        1..48,
    )
}

/// Realize specs as saved notes (the database assigns UNIDs and stamps).
fn build_notes(specs: &[Spec]) -> Vec<Note> {
    let db = Database::open_in_memory(
        DbConfig::new("prop", ReplicaId(1), ReplicaId(3)),
        LogicalClock::new(),
    )
    .unwrap();
    let mut notes: Vec<Note> = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut n = Note::document(if spec.task { "Task" } else { "Memo" });
        n.set("Cat", Value::text(format!("c{}", spec.cat)));
        n.set("Val", Value::Number(spec.val as f64));
        if let Some(p) = spec.parent {
            if !notes.is_empty() {
                n.set_parent(notes[p % notes.len()].unid());
            }
        }
        db.save(&mut n).unwrap();
        notes.push(n);
    }
    notes
}

struct MapSource(HashMap<Unid, Note>);

impl NoteSource for MapSource {
    fn note_by_unid(&self, unid: Unid) -> Option<Note> {
        self.0.get(&unid).cloned()
    }
}

fn design(responses: bool) -> ViewDesign {
    let selection = if responses {
        r#"SELECT Form = "Task" | @AllDescendants"#
    } else {
        r#"SELECT Form = "Task""#
    };
    ViewDesign::new("V", selection)
        .unwrap()
        .column(ColumnSpec::new("Cat", "Cat").unwrap().categorized())
        .column(
            ColumnSpec::new("Val", "Val")
                .unwrap()
                .sorted(SortDir::Descending),
        )
        .alternate(vec![(1, SortDir::Ascending), (0, SortDir::Ascending)])
}

fn assert_equivalent(notes: &[Note], design: ViewDesign, src: &dyn NoteSource) {
    let n_collations = design.collations().len();
    let mut par = ViewIndex::new(design.clone(), EvalEnv::default()).unwrap();
    let mut seq = ViewIndex::new(design, EvalEnv::default()).unwrap();
    par.rebuild(notes.iter(), src).unwrap();
    seq.rebuild_sequential(notes.iter(), src).unwrap();

    assert_eq!(par.len(), seq.len());
    for ci in 0..n_collations {
        assert_eq!(
            par.order_keys(ci),
            seq.order_keys(ci),
            "collation {ci} keys"
        );
        let pe: Vec<_> = par.entries(ci).cloned().collect();
        let se: Vec<_> = seq.entries(ci).cloned().collect();
        assert_eq!(pe, se, "collation {ci} entries");
    }
    let (ps, ss) = (par.stats(), seq.stats());
    assert_eq!(ps.evaluated, ss.evaluated);
    assert_eq!(ps.placed, ss.placed);
    assert_eq!(ps.removed, ss.removed);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn parallel_rebuild_matches_sequential_flat(specs in specs()) {
        let notes = build_notes(&specs);
        assert_equivalent(&notes, design(false), &NoSource);
    }

    #[test]
    fn parallel_rebuild_matches_sequential_with_responses(specs in specs()) {
        let notes = build_notes(&specs);
        let src = MapSource(notes.iter().map(|n| (n.unid(), n.clone())).collect());
        assert_equivalent(&notes, design(true), &src);
    }

    /// Orphan stress: every response's parent is a "Memo" excluded from
    /// the selection, so inclusion depends purely on each response's own
    /// merit — the orphan pass of `place_responses` does all the work.
    #[test]
    fn parallel_rebuild_matches_sequential_all_orphans(
        vals in prop::collection::vec((any::<bool>(), any::<u8>()), 1..32)
    ) {
        let db = Database::open_in_memory(
            DbConfig::new("orph", ReplicaId(1), ReplicaId(4)),
            LogicalClock::new(),
        ).unwrap();
        let mut memo = Note::document("Memo");
        db.save(&mut memo).unwrap();
        let mut notes = vec![memo.clone()];
        // Chains of responses hanging off the excluded memo.
        let mut parent = memo.unid();
        for (task, val) in &vals {
            let mut n = Note::document(if *task { "Task" } else { "Memo" });
            n.set("Cat", Value::text("c0"));
            n.set("Val", Value::Number(*val as f64));
            n.set_parent(parent);
            db.save(&mut n).unwrap();
            if *task {
                parent = n.unid();
            }
            notes.push(n);
        }
        prop_assert!(notes.iter().all(|n| n.class == NoteClass::Document));
        let src = MapSource(notes.iter().map(|n| (n.unid(), n.clone())).collect());
        assert_equivalent(&notes, design(true), &src);
    }
}

/// Non-property check: the two paths also agree when driven through the
/// high-level `View` API (shared database, larger doc count so the
/// parallel path actually splits across workers).
#[test]
fn parallel_rebuild_matches_sequential_at_scale() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("scale", ReplicaId(1), ReplicaId(5)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    for i in 0..600 {
        let mut n = Note::document(if i % 3 == 0 { "Memo" } else { "Task" });
        n.set("Cat", Value::text(format!("c{}", i % 7)));
        n.set("Val", Value::Number((i % 251) as f64));
        db.save(&mut n).unwrap();
    }
    let ids = db.note_ids(Some(NoteClass::Document)).unwrap();
    let notes: Vec<Note> = ids.iter().map(|id| db.open_note(*id).unwrap()).collect();
    assert_equivalent(&notes, design(false), &NoSource);
}
