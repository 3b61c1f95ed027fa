//! Property tests for replication: arbitrary edit/delete/sync schedules
//! must always converge, and no update may ever be silently lost — also
//! when the replicas are cluster mates pushing every change, paused and
//! resumed, with scheduled passes in between.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use domino::core::revision::descends_from;
use domino::core::{Database, DbConfig, Note};
use domino::replica::{conflict_unid, Cluster, ReplicationOptions, Replicator};
use domino::types::{LogicalClock, NoteClass, Oid, ReplicaId, Timestamp, Unid, Value};

/// One step of a random schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Create a document on replica r with payload p.
    Create { r: usize, p: u8 },
    /// Edit document #d (mod existing) on replica r to payload p.
    Edit { r: usize, d: usize, p: u8 },
    /// Edit a *different field* of document #d.
    EditOther { r: usize, d: usize, p: u8 },
    /// Delete document #d on replica r.
    Delete { r: usize, d: usize },
    /// Replicate the pair (a, b).
    Sync { a: usize, b: usize },
}

fn op_strategy(replicas: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..replicas, any::<u8>()).prop_map(|(r, p)| Op::Create { r, p }),
        (0..replicas, 0..64usize, any::<u8>()).prop_map(|(r, d, p)| Op::Edit { r, d, p }),
        (0..replicas, 0..64usize, any::<u8>()).prop_map(|(r, d, p)| Op::EditOther { r, d, p }),
        (0..replicas, 0..64usize).prop_map(|(r, d)| Op::Delete { r, d }),
        (0..replicas, 0..replicas).prop_map(|(a, b)| Op::Sync { a, b }),
    ]
}

fn make_replicas(n: usize) -> Vec<Arc<Database>> {
    (0..n)
        .map(|i| {
            Arc::new(
                Database::open_in_memory(
                    DbConfig::new("p", ReplicaId(42), ReplicaId(1000 + i as u64)),
                    LogicalClock::starting_at(Timestamp(i as u64 * 13)),
                )
                .unwrap(),
            )
        })
        .collect()
}

/// Canonical live-document view of a replica: unid -> (payload items).
fn contents(db: &Database) -> Vec<(u128, String, String)> {
    let mut v: Vec<(u128, String, String)> = db
        .note_ids(Some(NoteClass::Document))
        .unwrap()
        .into_iter()
        .map(|id| {
            let n = db.open_note(id).unwrap();
            (
                n.unid().0,
                n.get_text("Payload").unwrap_or_default(),
                n.get_text("Other").unwrap_or_default(),
            )
        })
        .collect();
    v.sort();
    v
}

/// Apply one op; a `Sync` is a scheduled pass through `repl`. Returns the
/// OID a local save or delete wrote, and whether it was a deletion.
fn apply(dbs: &[Arc<Database>], repl: &mut Replicator, op: &Op) -> Option<(Oid, bool)> {
    let pick = |r: usize, d: usize| {
        let ids = dbs[r].note_ids(Some(NoteClass::Document)).unwrap();
        (!ids.is_empty()).then(|| ids[d % ids.len()])
    };
    let edit = |r: usize, d: usize, item: &str, text: String| {
        let mut n = dbs[r].open_note(pick(r, d)?).unwrap();
        n.set(item, Value::text(text));
        dbs[r].save(&mut n).unwrap();
        Some((n.oid, false))
    };
    match op {
        Op::Create { r, p } => {
            let mut n = Note::document("Doc");
            n.set("Payload", Value::text(format!("p{p}")));
            dbs[*r].save(&mut n).unwrap();
            Some((n.oid, false))
        }
        Op::Edit { r, d, p } => edit(*r, *d, "Payload", format!("e{p}")),
        Op::EditOther { r, d, p } => edit(*r, *d, "Other", format!("o{p}")),
        Op::Delete { r, d } => Some((dbs[*r].delete(pick(*r, *d)?).unwrap().oid, true)),
        Op::Sync { a, b } => {
            if a != b {
                repl.sync(&dbs[*a], &dbs[*b]).unwrap();
            }
            None
        }
    }
}

fn run_schedule(ops: &[Op], replicas: usize, merge: bool) -> Vec<Arc<Database>> {
    let dbs = make_replicas(replicas);
    let mut repl = Replicator::new(ReplicationOptions {
        merge_conflicts: merge,
        ..ReplicationOptions::default()
    });
    for op in ops {
        apply(&dbs, &mut repl, op);
    }
    // Final full mesh until quiescent (every pair, until no pull changes
    // anything — bounded by a generous round count).
    for _ in 0..2 * replicas * replicas + 4 {
        let mut changed = false;
        for a in 0..replicas {
            for b in a + 1..replicas {
                let (x, y) = repl.sync(&dbs[a], &dbs[b]).unwrap();
                changed |= x.changed_anything() || y.changed_anything();
            }
        }
        if !changed {
            break;
        }
    }
    dbs
}

/// One step of a cluster schedule: a local op on a mate (a `Sync` is a
/// scheduled pass beside the cluster), or the cluster losing and then
/// regaining its mates.
#[derive(Debug, Clone)]
enum MateOp {
    Local(Op),
    Pause,
    Resume,
}

fn mate_op_strategy() -> impl Strategy<Value = MateOp> {
    (0..6u8, op_strategy(3)).prop_map(|(k, op)| match k {
        0 => MateOp::Pause,
        1 => MateOp::Resume,
        _ => MateOp::Local(op),
    })
}

fn documents(db: &Database) -> Vec<Note> {
    db.note_ids(Some(NoteClass::Document))
        .unwrap()
        .into_iter()
        .map(|id| db.open_note(id).unwrap())
        .collect()
}

/// Does `head`, a mate's copy at a resume, survive on `db`? A conflict
/// document carries its loser's revision history, so a kept copy is a
/// document that descends from `head`, whatever its UNID. `head` may be
/// gone if a deletion stub some mate held at the resume outranks it, or
/// deleted its conflict document (or, where two losers stamped alike met,
/// that one's).
fn survives(db: &Database, head: &Note, stubs: &[Oid]) -> bool {
    let t = head.oid.seq_time;
    let mut conflicts =
        std::iter::successors(Some(conflict_unid(head.unid(), head.oid.seq, t)), |unid| {
            Some(conflict_unid(*unid, 1, t))
        })
        .take(3);
    documents(db).iter().any(|n| descends_from(n, head))
        || stubs
            .iter()
            .any(|s| s.unid == head.unid() && s.winner_key() >= head.oid.winner_key())
        || conflicts.any(|unid| stubs.iter().any(|s| s.unid == unid))
}

/// Per UNID: the highest winner key a local save wrote, then a delete.
type Keys = HashMap<Unid, [Option<(u32, Timestamp, u128)>; 2]>;

/// Run a cluster schedule on three mates to quiescence. After every
/// resume, each mate's copy of each document at the resume survives on
/// every mate. Returns the mates and, per UNID, the highest key a local
/// save and a local delete wrote.
fn run_cluster_schedule(ops: &[MateOp]) -> (Vec<Arc<Database>>, Keys) {
    let dbs = make_replicas(3);
    let cluster = Cluster::join(&dbs).unwrap();
    let mut repl = Replicator::new(ReplicationOptions::default());
    let mut keys = Keys::new();
    let mut paused = false;
    for op in ops.iter().chain([&MateOp::Resume]) {
        match op {
            MateOp::Local(op) => {
                if let Some((oid, deleted)) = apply(&dbs, &mut repl, op) {
                    let key = &mut keys.entry(oid.unid).or_default()[usize::from(deleted)];
                    *key = (*key).max(Some(oid.winner_key()));
                }
            }
            MateOp::Pause => {
                cluster.pause();
                paused = true;
            }
            MateOp::Resume if paused => {
                let heads: Vec<Note> = dbs.iter().flat_map(|db| documents(db)).collect();
                let stubs: Vec<Oid> = dbs
                    .iter()
                    .flat_map(|db| db.stubs().unwrap())
                    .map(|s| s.oid)
                    .collect();
                cluster.resume();
                paused = false;
                for (i, db) in dbs.iter().enumerate() {
                    for head in &heads {
                        prop_assert!(survives(db, head, &stubs), "mate {i} lost {head:?}");
                    }
                }
            }
            MateOp::Resume => {}
        }
    }
    (dbs, keys)
}

fn stub_unids(db: &Database) -> Vec<u128> {
    let mut s: Vec<u128> = db.stubs().unwrap().iter().map(|x| x.oid.unid.0).collect();
    s.sort_unstable();
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// After any schedule plus a finishing mesh sync, all replicas hold
    /// identical documents.
    #[test]
    fn replicas_always_converge(
        ops in prop::collection::vec(op_strategy(3), 1..40),
        merge in any::<bool>(),
    ) {
        let dbs = run_schedule(&ops, 3, merge);
        let want = contents(&dbs[0]);
        for db in &dbs[1..] {
            prop_assert_eq!(contents(db), want.clone());
        }
        // Stub sets converge too.
        let stubs0: Vec<u128> = {
            let mut s: Vec<u128> =
                dbs[0].stubs().unwrap().iter().map(|x| x.oid.unid.0).collect();
            s.sort_unstable();
            s
        };
        for db in &dbs[1..] {
            let mut s: Vec<u128> =
                db.stubs().unwrap().iter().map(|x| x.oid.unid.0).collect();
            s.sort_unstable();
            prop_assert_eq!(s, stubs0.clone());
        }
    }

    /// No update is silently lost: every payload string written by the
    /// final edit of some divergent branch survives somewhere — in the
    /// winning document, a merge, or a $Conflict document — unless its
    /// document was deleted.
    #[test]
    fn concurrent_edits_never_silently_lost(
        pa in any::<u8>(), pb in any::<u8>(),
    ) {
        let dbs = make_replicas(2);
        let mut repl = Replicator::new(ReplicationOptions::default());
        let mut n = Note::document("Doc");
        n.set("Payload", Value::text("base"));
        dbs[0].save(&mut n).unwrap();
        repl.sync(&dbs[0], &dbs[1]).unwrap();

        // Divergent edits.
        let mut na = dbs[0].open_by_unid(n.unid()).unwrap();
        na.set("Payload", Value::text(format!("a{pa}")));
        dbs[0].save(&mut na).unwrap();
        let mut nb = dbs[1].open_by_unid(n.unid()).unwrap();
        nb.set("Payload", Value::text(format!("b{pb}")));
        dbs[1].save(&mut nb).unwrap();

        repl.sync(&dbs[0], &dbs[1]).unwrap();
        repl.sync(&dbs[0], &dbs[1]).unwrap();

        for db in &dbs {
            let all: Vec<String> = db
                .note_ids(Some(NoteClass::Document))
                .unwrap()
                .into_iter()
                .map(|id| db.open_note(id).unwrap().get_text("Payload").unwrap())
                .collect();
            prop_assert!(all.contains(&format!("a{pa}")), "a-edit lost: {all:?}");
            prop_assert!(all.contains(&format!("b{pb}")), "b-edit lost: {all:?}");
        }
    }

    /// Disjoint-field concurrent edits with merging on: both fields
    /// survive in ONE document, with no conflict documents.
    #[test]
    fn merge_keeps_both_disjoint_fields(pa in any::<u8>(), pb in any::<u8>()) {
        let dbs = make_replicas(2);
        let mut repl = Replicator::new(ReplicationOptions {
            merge_conflicts: true,
            ..ReplicationOptions::default()
        });
        let mut n = Note::document("Doc");
        n.set("Payload", Value::text("base"));
        n.set("Other", Value::text("base"));
        dbs[0].save(&mut n).unwrap();
        repl.sync(&dbs[0], &dbs[1]).unwrap();

        let mut na = dbs[0].open_by_unid(n.unid()).unwrap();
        na.set("Payload", Value::text(format!("a{pa}")));
        dbs[0].save(&mut na).unwrap();
        let mut nb = dbs[1].open_by_unid(n.unid()).unwrap();
        nb.set("Other", Value::text(format!("b{pb}")));
        dbs[1].save(&mut nb).unwrap();

        repl.sync(&dbs[0], &dbs[1]).unwrap();
        repl.sync(&dbs[0], &dbs[1]).unwrap();

        for db in &dbs {
            prop_assert_eq!(db.document_count().unwrap(), 1, "no conflict docs");
            let doc = db.open_by_unid(n.unid()).unwrap();
            prop_assert_eq!(doc.get_text("Payload").unwrap(), format!("a{pa}"));
            prop_assert_eq!(doc.get_text("Other").unwrap(), format!("b{pb}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Cluster mates pushing every change, paused and resumed, with
    /// scheduled passes beside them, end identical once resumed. No copy
    /// a mate held at a resume is lost (see `run_cluster_schedule`), and
    /// a deletion whose stub outranks every save of its document stays
    /// deleted on every mate.
    #[test]
    fn cluster_mates_converge_and_lose_nothing(
        ops in prop::collection::vec(mate_op_strategy(), 1..48),
    ) {
        let (dbs, keys) = run_cluster_schedule(&ops);
        for db in &dbs[1..] {
            prop_assert_eq!(contents(db), contents(&dbs[0]));
            prop_assert_eq!(stub_unids(db), stub_unids(&dbs[0]));
        }
        for (unid, [saved, deleted]) in &keys {
            if deleted > saved {
                for db in &dbs {
                    prop_assert!(db.open_by_unid(*unid).is_err(), "{unid:?} came back");
                }
            }
        }
    }
}
