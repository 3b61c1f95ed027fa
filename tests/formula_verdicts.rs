//! A formula that fails on one note is that note's verdict, never the
//! operation's error: the note is left out of a view, not replicated by a
//! selective pull, or skipped by an agent, and everything else goes on.
//! Each case here is a reproduction: one note with `Val = 0` under a
//! formula that divides by `Val`.

use std::sync::Arc;

use domino::core::agent::{save_agent, AgentDesign, AgentScheduler};
use domino::core::{Database, DbConfig, Note};
use domino::formula::Formula;
use domino::obs;
use domino::replica::{ReplicationOptions, Replicator};
use domino::server::{DominoServer, Request, ServerConfig};
use domino::types::{LogicalClock, NoteClass, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};

fn db(instance: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new("verdicts", ReplicaId(1), ReplicaId(instance)),
            LogicalClock::new(),
        )
        .unwrap(),
    )
}

fn save_val(db: &Database, val: f64) -> Note {
    let mut n = Note::document("Memo");
    n.set("Val", Value::Number(val));
    db.save(&mut n).unwrap();
    n
}

/// A view over memos sorted by `100 / Val`, which fails where `Val = 0`.
fn ratio_design(name: &str) -> ViewDesign {
    ViewDesign::new(name, r#"SELECT Form = "Memo""#)
        .unwrap()
        .column(
            ColumnSpec::new("Ratio", "100 / Val")
                .unwrap()
                .sorted(SortDir::Ascending),
        )
}

fn ratios(view: &View) -> Vec<Value> {
    view.rows().iter().map(|e| e.values[0].clone()).collect()
}

#[test]
fn a_batched_save_keeps_its_good_note() {
    let db = db(2);
    let view = View::attach(&db, ratio_design("Batched")).unwrap();
    let before = obs::snapshot().counter("Formula.Eval.Errors");
    let bad = {
        let _batch = db.begin_batch();
        let bad = save_val(&db, 0.0);
        save_val(&db, 4.0);
        bad
    };
    assert_eq!(ratios(&view), vec![Value::Number(25.0)]);
    assert!(view.entry(bad.unid()).is_none());
    assert!(obs::snapshot().counter("Formula.Eval.Errors") > before);
    // The batch's one warning names the view, the formula and the note.
    let events = obs::drain(usize::MAX);
    let warning = events
        .iter()
        .find(|e| {
            e.code == "Formula.Eval.Errors"
                && e.field("site").map(|s| s.to_text()) == Some("view Batched".into())
        })
        .expect("one warning for the batch");
    assert_eq!(warning.severity, obs::Severity::Warning);
    assert_eq!(warning.field("formula").unwrap().to_text(), "100 / Val");
    assert_eq!(warning.field("errors").unwrap().as_u64(), Some(1));
    assert_eq!(
        warning.field("first_unid").unwrap().to_text(),
        bad.unid().to_string()
    );
}

#[test]
fn attach_over_a_failing_document_shows_the_other_documents() {
    let db = db(3);
    for val in [1.0, 0.0, 4.0] {
        save_val(&db, val);
    }
    let view = View::attach(&db, ratio_design("Attached")).unwrap();
    assert_eq!(
        ratios(&view),
        vec![Value::Number(25.0), Value::Number(100.0)]
    );
    view.rebuild().unwrap();
    assert_eq!(view.len(), 2);
}

#[test]
fn a_server_serves_a_stored_view_that_meets_a_failing_document() {
    let db = db(4);
    for val in [1.0, 0.0, 4.0] {
        save_val(&db, val);
    }
    db.save_design(&mut ratio_design("ratios").to_note())
        .unwrap();
    let server = DominoServer::new(ServerConfig::default());
    server.register_database("verdicts", &db).unwrap();
    let page = server.handle(&Request::get("/verdicts.nsf/ratios?OpenView"));
    assert_eq!(page.status.code(), 200);
    assert_eq!(page.body.matches("?OpenDocument").count(), 2);
}

#[test]
fn a_selective_pull_skips_a_failing_note_and_takes_the_rest() {
    let src = db(5);
    let dst = db(6);
    for val in [1.0, 2.0, 0.0, 3.0] {
        save_val(&src, val);
    }
    let mut r = Replicator::new(ReplicationOptions {
        selective: Some(Formula::compile("SELECT 100 / Val > 1").unwrap()),
        ..ReplicationOptions::default()
    });
    let report = r.pull(&dst, &src).unwrap();
    assert_eq!(report.added, 3);
    assert_eq!(report.skipped_selective, 1);
    let mut vals: Vec<f64> = dst
        .note_ids(Some(NoteClass::Document))
        .unwrap()
        .into_iter()
        .map(|id| {
            dst.open_note(id)
                .unwrap()
                .get("Val")
                .unwrap()
                .as_number()
                .unwrap()
        })
        .collect();
    vals.sort_by(f64::total_cmp);
    assert_eq!(vals, vec![1.0, 2.0, 3.0]);
}

#[test]
fn an_agent_skips_a_failing_document_and_the_next_agent_runs() {
    let db = db(7);
    for val in [1.0, 0.0, 4.0] {
        save_val(&db, val);
    }
    // Saved first, so first in design order: it fails on `Val = 0`.
    let ratio = AgentDesign::new("ratio", "SELECT 100 / Val > 0; FIELD Ratio := 100 / Val")
        .unwrap()
        .scheduled(10);
    let stamp = AgentDesign::new("stamp", r#"SELECT @All; FIELD Seen := "yes""#)
        .unwrap()
        .scheduled(10);
    save_agent(&db, &ratio).unwrap();
    save_agent(&db, &stamp).unwrap();

    let mut amgr = AgentScheduler::new(db.clone(), "amgr");
    let tick = amgr.tick(1).unwrap();
    let runs: Vec<(&str, usize)> = tick
        .runs
        .iter()
        .map(|(name, run)| (name.as_str(), run.modified))
        .collect();
    assert_eq!(runs, vec![("ratio", 2), ("stamp", 3)]);
    // Both runs were recorded: neither is due again before its interval.
    assert!(!amgr.tick(2).unwrap().fired());
    assert!(amgr.tick(11).unwrap().fired());
}
