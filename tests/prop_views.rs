//! Property: a view maintained incrementally through any sequence of
//! saves/edits/deletes/re-parentings is identical to one rebuilt from
//! scratch, and its positional reads (a page by offset, a document's
//! position) agree with the full row order in every collation.

use std::sync::Arc;

use proptest::prelude::*;

use domino::core::{Database, DbConfig, Note};
use domino::types::{LogicalClock, NoteClass, ReplicaId, Unid, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};

#[derive(Debug, Clone)]
enum Op {
    Create {
        form: bool,
        cat: u8,
        val: u8,
        parent: Option<usize>,
    },
    Edit {
        d: usize,
        cat: u8,
        val: u8,
    },
    Retag {
        d: usize,
    },
    Reparent {
        d: usize,
        parent: Option<usize>,
    },
    Delete {
        d: usize,
    },
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            any::<bool>(),
            0..4u8,
            any::<u8>(),
            prop::option::of(0..32usize)
        )
            .prop_map(|(form, cat, val, parent)| Op::Create {
                form,
                cat,
                val,
                parent
            }),
        (0..32usize, 0..4u8, any::<u8>()).prop_map(|(d, cat, val)| Op::Edit { d, cat, val }),
        (0..32usize).prop_map(|d| Op::Retag { d }),
        (0..32usize, prop::option::of(0..32usize))
            .prop_map(|(d, parent)| Op::Reparent { d, parent }),
        (0..32usize).prop_map(|d| Op::Delete { d }),
    ]
}

fn design() -> ViewDesign {
    ViewDesign::new("V", r#"SELECT Form = "Task" | @AllDescendants"#)
        .unwrap()
        .column(ColumnSpec::new("Cat", "Cat").unwrap().categorized())
        .column(
            ColumnSpec::new("Val", "Val")
                .unwrap()
                .sorted(SortDir::Descending),
        )
        .column(ColumnSpec::new("Total", "Val * 2").unwrap().totaled())
        .alternate(vec![(0, SortDir::Descending), (1, SortDir::Ascending)])
}

/// Every window of every collation is the matching slice of the full
/// order, and a document's position is its row's index.
fn positional_reads_agree(v: &View) {
    let collations = v.design().collations().len();
    prop_assert_eq!(collations, 2);
    for c in 0..collations {
        let all = v.rows_in(c);
        prop_assert_eq!(all.len(), v.len());
        for start in 0..=all.len() + 1 {
            for count in [0, 1, 3, all.len() + 2] {
                let page = v.page(c, start, count);
                let from = start.min(all.len());
                let to = (start + count).min(all.len());
                prop_assert_eq!(
                    &page.rows[..],
                    &all[from..to],
                    "collation {} page({}, {})",
                    c,
                    start,
                    count
                );
                prop_assert_eq!(page.total, all.len());
            }
        }
    }
    for (i, row) in v.rows().iter().enumerate() {
        prop_assert_eq!(v.position_of(row.unid), Some(i));
        prop_assert_eq!(v.entry(row.unid).as_ref(), Some(row));
    }
}

/// Is `unid` the note `ancestor` or somewhere below it?
fn descends_from(db: &Database, unid: Unid, ancestor: Unid) -> bool {
    let mut at = Some(unid);
    while let Some(u) = at {
        if u == ancestor {
            return true;
        }
        at = db.open_by_unid(u).ok().and_then(|n| n.parent());
    }
    false
}

fn rows_of(v: &View) -> Vec<(String, String, u32)> {
    v.rows()
        .iter()
        .map(|e| {
            (
                e.values[0].to_text(),
                e.values[1].to_text(),
                e.response_level,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn incremental_view_equals_rebuild(schedule in prop::collection::vec(ops(), 1..60)) {
        let db = Arc::new(
            Database::open_in_memory(
                DbConfig::new("p", ReplicaId(1), ReplicaId(2)),
                LogicalClock::new(),
            )
            .unwrap(),
        );
        let live = View::attach(&db, design()).unwrap();

        for op in &schedule {
            let ids = db.note_ids(Some(NoteClass::Document)).unwrap();
            match op {
                Op::Create { form, cat, val, parent } => {
                    let mut n = Note::document(if *form { "Task" } else { "Memo" });
                    n.set("Cat", Value::text(format!("c{cat}")));
                    n.set("Val", Value::Number(*val as f64));
                    if let Some(p) = parent {
                        if !ids.is_empty() {
                            let pid = ids[p % ids.len()];
                            let parent_unid = db.open_note(pid).unwrap().unid();
                            n.set_parent(parent_unid);
                        }
                    }
                    db.save(&mut n).unwrap();
                }
                Op::Edit { d, cat, val } => {
                    if ids.is_empty() { continue; }
                    let id = ids[d % ids.len()];
                    let mut n = db.open_note(id).unwrap();
                    n.set("Cat", Value::text(format!("c{cat}")));
                    n.set("Val", Value::Number(*val as f64));
                    db.save(&mut n).unwrap();
                }
                Op::Retag { d } => {
                    if ids.is_empty() { continue; }
                    let id = ids[d % ids.len()];
                    let mut n = db.open_note(id).unwrap();
                    // Flip the form so the doc enters/leaves the view.
                    let form = n.get_text("Form").unwrap_or_default();
                    n.set("Form", Value::text(if form == "Task" { "Memo" } else { "Task" }));
                    db.save(&mut n).unwrap();
                }
                Op::Reparent { d, parent } => {
                    if ids.is_empty() { continue; }
                    let mut n = db.open_note(ids[d % ids.len()]).unwrap();
                    match parent.map(|p| db.open_note(ids[p % ids.len()]).unwrap().unid()) {
                        // Never under itself or one of its own descendants:
                        // a $REF cycle has no thread order to agree on.
                        Some(p) if !descends_from(&db, p, n.unid()) => { n.set_parent(p); }
                        _ => { n.remove("$REF"); }
                    }
                    db.save(&mut n).unwrap();
                }
                Op::Delete { d } => {
                    if ids.is_empty() { continue; }
                    db.delete(ids[d % ids.len()]).unwrap();
                }
            }
        }
        positional_reads_agree(&live);

        let fresh = View::detached(&db, design()).unwrap();
        fresh.rebuild().unwrap();
        prop_assert_eq!(rows_of(&live), rows_of(&fresh));
        prop_assert_eq!(live.rows_in(1), fresh.rows_in(1));
        positional_reads_agree(&fresh);
        // Category rollups agree too.
        prop_assert_eq!(live.categories(), fresh.categories());
        // And totals.
        let lt = live.column_total(2);
        let ft = fresh.column_total(2);
        prop_assert!((lt - ft).abs() < 1e-9, "{lt} vs {ft}");
    }

    /// Collation keys give a total order consistent with Value::collate on
    /// the sorted column.
    #[test]
    fn view_rows_sorted_by_collation(vals in prop::collection::vec(any::<u8>(), 1..40)) {
        let db = Arc::new(
            Database::open_in_memory(
                DbConfig::new("p", ReplicaId(1), ReplicaId(2)),
                LogicalClock::new(),
            )
            .unwrap(),
        );
        let design = ViewDesign::new("V", "SELECT @All")
            .unwrap()
            .column(ColumnSpec::new("Val", "Val").unwrap().sorted(SortDir::Ascending));
        let view = View::attach(&db, design).unwrap();
        for v in &vals {
            let mut n = Note::document("Doc");
            n.set("Val", Value::Number(*v as f64));
            db.save(&mut n).unwrap();
        }
        let seen: Vec<f64> = view
            .rows()
            .iter()
            .map(|e| e.values[0].as_number().unwrap())
            .collect();
        let mut sorted = seen.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(seen, sorted);
    }
}
