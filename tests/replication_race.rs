//! Replication against concurrent writers, and digest negotiation against
//! a brute-force diff.
//!
//! A pull decides what the destination keeps inside the commit that
//! writes it, so a local save can never land between the decision and the
//! write: every acknowledged local edit survives, in the note or in a
//! `$Conflict` document. Negotiation must name exactly the UNIDs whose
//! `(unid, head)` entries differ, at exactly the bytes its rounds cost.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier};
use std::thread;

use proptest::prelude::*;

use domino::core::{bucket_of, Database, DbConfig, Note, MERKLE_BUCKETS};
use domino::replica::{ReplicationOptions, Replicator};
use domino::types::{
    ContentHash, DominoError, LogicalClock, NoteClass, ReplicaId, Timestamp, Unid, Value,
};

fn replica(instance: u64, start: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new("race", ReplicaId(7), ReplicaId(instance)),
            LogicalClock::starting_at(Timestamp(start)),
        )
        .unwrap(),
    )
}

/// Local edits acknowledged by `save`, one thread; remote edits pulled in,
/// another. Each local edit adds its own item, so an edit survives exactly
/// when some document holds that item.
#[test]
fn local_saves_racing_a_pull_are_never_lost() {
    const ROUNDS: usize = 300;
    let src = replica(1, 0);
    let dst = replica(2, 0);
    let mut base = Note::document("Memo");
    base.set("Subject", Value::text("base"));
    src.save(&mut base).unwrap();
    Replicator::new(ReplicationOptions::default())
        .pull(&dst, &src)
        .unwrap();
    let unid = base.unid();
    let start = Arc::new(Barrier::new(2));

    let puller = {
        let (src, dst, start) = (Arc::clone(&src), Arc::clone(&dst), Arc::clone(&start));
        thread::spawn(move || {
            let mut repl = Replicator::new(ReplicationOptions::default());
            start.wait();
            for i in 0..ROUNDS {
                let mut n = src.open_by_unid(unid).unwrap();
                n.set("Subject", Value::text(format!("remote {i}")));
                src.save(&mut n).unwrap();
                repl.pull(&dst, &src).unwrap();
            }
        })
    };
    let mut acknowledged = Vec::new();
    start.wait();
    for j in 0..ROUNDS {
        let item = format!("Local{j}");
        loop {
            let mut n = dst.open_by_unid(unid).unwrap();
            n.set(&item, Value::text("kept"));
            match dst.save(&mut n) {
                Ok(()) => break,
                // A pull wrote the note since it was opened: edit the
                // stored copy instead.
                Err(DominoError::UpdateConflict(_)) => continue,
                Err(e) => panic!("local save failed: {e}"),
            }
        }
        acknowledged.push(item);
    }
    puller.join().unwrap();

    let docs: Vec<Note> = dst
        .note_ids(Some(NoteClass::Document))
        .unwrap()
        .into_iter()
        .map(|id| dst.open_note(id).unwrap())
        .collect();
    let lost: Vec<&String> = acknowledged
        .iter()
        .filter(|item| !docs.iter().any(|d| d.has(item)))
        .collect();
    assert!(
        lost.is_empty(),
        "{} of {ROUNDS} acknowledged local edits lost, e.g. {:?}",
        lost.len(),
        &lost[..lost.len().min(5)]
    );
}

/// Every `(unid, head)` entry of a replica's Merkle summary.
fn entries(db: &Database) -> BTreeMap<Unid, ContentHash> {
    (0..MERKLE_BUCKETS)
        .flat_map(|b| db.merkle_bucket_entries(b))
        .collect()
}

/// One mutation of the source or the destination before a pull.
#[derive(Debug, Clone)]
enum Op {
    /// A document only the source holds.
    SrcCreate,
    /// A source edit of shared document `d`.
    SrcEdit(usize),
    /// A source deletion of shared document `d`.
    SrcDelete(usize),
    /// A document created and deleted on the source: a stub the
    /// destination never saw.
    SrcStubOnly,
    /// A document only the destination holds.
    DstCreate,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::SrcCreate),
        (0..64usize).prop_map(Op::SrcEdit),
        (0..64usize).prop_map(Op::SrcDelete),
        Just(Op::SrcStubOnly),
        Just(Op::DstCreate),
    ]
}

fn doc(db: &Database, text: &str) -> Note {
    let mut n = Note::document("Memo");
    n.set("Subject", Value::text(text));
    db.save(&mut n).unwrap();
    n
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The negotiated candidates are exactly the source entries whose head
    /// the destination lacks or holds differently, the rounds cost what
    /// the brute-force diff says they must, and the pull then leaves every
    /// source entry at the destination unchanged.
    #[test]
    fn negotiation_matches_a_brute_force_diff(
        shared in 0..40usize,
        ops in prop::collection::vec(op(), 0..24),
    ) {
        let src = replica(1, 0);
        let dst = replica(2, 10_000);
        let mut common = Vec::new();
        for i in 0..shared {
            common.push(doc(&src, &format!("shared {i}")));
        }
        Replicator::new(ReplicationOptions::default()).pull(&dst, &src).unwrap();
        for (k, op) in ops.iter().enumerate() {
            let live: Vec<&Note> = common
                .iter()
                .filter(|n| src.open_by_unid(n.unid()).is_ok())
                .collect();
            let pick = |d: usize| (!live.is_empty()).then(|| live[d % live.len()].unid());
            match op {
                Op::SrcCreate => {
                    doc(&src, &format!("src {k}"));
                }
                &Op::SrcEdit(d) => {
                    if let Some(unid) = pick(d) {
                        let mut n = src.open_by_unid(unid).unwrap();
                        n.set("Subject", Value::text(format!("edit {k}")));
                        src.save(&mut n).unwrap();
                    }
                }
                &Op::SrcDelete(d) => {
                    if let Some(unid) = pick(d) {
                        src.delete(src.open_by_unid(unid).unwrap().id).unwrap();
                    }
                }
                Op::SrcStubOnly => {
                    let n = doc(&src, &format!("gone {k}"));
                    src.delete(n.id).unwrap();
                }
                Op::DstCreate => {
                    doc(&dst, &format!("dst {k}"));
                }
            }
        }

        // The brute-force diff of the two `(unid, head)` sets.
        let (theirs, ours) = (entries(&dst), entries(&src));
        let differing: BTreeSet<Unid> = ours
            .iter()
            .filter(|(u, h)| theirs.get(u) != Some(h))
            .map(|(u, _)| *u)
            .collect();
        let dst_buckets: BTreeSet<u32> = theirs.keys().map(|u| bucket_of(*u)).collect();
        let src_buckets_differing: BTreeSet<u32> = ours
            .keys()
            .chain(theirs.keys())
            .filter(|u| ours.get(u) != theirs.get(u))
            .map(|u| bucket_of(*u))
            .filter(|b| ours.keys().any(|u| bucket_of(*u) == *b))
            .collect();
        let dst_entries_sent = theirs
            .keys()
            .filter(|u| src_buckets_differing.contains(&bucket_of(**u)))
            .count() as u64;
        let expected_bytes = if ours == theirs {
            16
        } else if src_buckets_differing.is_empty() {
            16 + 18 * dst_buckets.len() as u64
        } else {
            16 + 18 * dst_buckets.len() as u64 + 32 * dst_entries_sent
        };

        let report = Replicator::new(ReplicationOptions::default()).pull(&dst, &src).unwrap();
        prop_assert_eq!(report.negotiated, 1);
        prop_assert_eq!(report.root_matched, u64::from(ours == theirs));
        prop_assert_eq!(report.candidates, differing.len() as u64);
        prop_assert_eq!(report.buckets_differing, src_buckets_differing.len() as u64);
        prop_assert_eq!(report.negotiation_bytes, expected_bytes);
        // The destination never edited a shared note, so the pull adopts
        // every differing source entry and touches nothing else.
        let after = entries(&dst);
        for (unid, head) in &ours {
            prop_assert_eq!(after.get(unid), Some(head));
        }
        for (unid, head) in &theirs {
            if !ours.contains_key(unid) {
                prop_assert_eq!(after.get(unid), Some(head));
            }
        }
    }
}
