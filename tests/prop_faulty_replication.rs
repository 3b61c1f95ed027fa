//! Property tests for replication over an unreliable transport: a pull
//! interrupted at any message (negotiation rounds and batches alike) and
//! then resumed must leave the destination byte-identical to the source
//! and to an uninterrupted pull, revision hashes must be deterministic
//! across replicas that apply the same edit schedule, and
//! retry-with-backoff must converge through a lossy link that defeats
//! the zero-retry policy within the same budget.
//!
//! The interrupt/resume properties run through ONE shared harness
//! ([`check_interrupted_resume`]) against two transports: an in-process
//! [`Faulty`] clean transport and the real-socket
//! [`SocketTransport`](domino::netio::SocketTransport) speaking the NRPC
//! stand-in wire protocol to a [`ReplicaListener`] on loopback. Both
//! follow a [`FaultPlan`] failing the same global 0-based delivery
//! indices, so the byte-identity guarantee is proven transport-
//! equivalent, not merely simulated.

use std::sync::Arc;

use proptest::prelude::*;

use domino::core::{Database, DbConfig, Note};
use domino::net::{LinkSpec, Network, Topology};
use domino::netio::{ReplicaListener, SocketTransport};
use domino::replica::{CleanTransport, ReplicationOptions, Replicator, RetryPolicy, Transport};
use domino::types::{
    ContentHash, FaultPlan, Faulty, LogicalClock, NoteClass, NoteId, ReplicaId, Timestamp, Value,
};

fn make_db(instance: u64, skew: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new("p", ReplicaId(7), ReplicaId(instance)),
            LogicalClock::starting_at(Timestamp(skew)),
        )
        .unwrap(),
    )
}

/// Full byte-level canonical dump of a replica: every live note's UNID
/// with every item name/value pair (sorted), plus every deletion stub.
fn dump(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for id in db.note_ids(Some(NoteClass::Document)).unwrap() {
        let n = db.open_note(id).unwrap();
        let mut items: Vec<String> = n
            .items_raw()
            .iter()
            .map(|it| {
                format!(
                    "{}={:?} flags {} rev {}",
                    it.name, it.value, it.flags.0, it.revised.0
                )
            })
            .collect();
        items.sort();
        out.push(format!("doc {:032x} [{}]", n.unid().0, items.join(", ")));
    }
    for s in db.stubs().unwrap() {
        out.push(format!("stub {:032x} seq {}", s.oid.unid.0, s.oid.seq));
    }
    out.sort();
    out
}

/// Populate `src` with `docs` documents (some multi-edit) and `deletes`
/// deletions so the candidate stream mixes adds, updates, and stubs.
fn populate(src: &Database, docs: usize, deletes: usize) {
    let mut ids: Vec<NoteId> = Vec::new();
    for i in 0..docs {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(format!("memo {i}")));
        n.set("Body", Value::text("text ".repeat(i % 7 + 1)));
        src.save(&mut n).unwrap();
        ids.push(n.id);
        if i % 3 == 0 {
            let mut again = src.open_note(n.id).unwrap();
            again.set("Body", Value::text(format!("edited {i}")));
            src.save(&mut again).unwrap();
        }
    }
    for id in ids.iter().take(deletes) {
        src.delete(*id).unwrap();
    }
}

/// After the destinations converged: `creates` new documents, `edits`
/// updates and `deletes` deletions of corpus documents on the source, so
/// the next pull's candidates mix adds, updates and stubs.
fn churn(src: &Database, creates: usize, edits: usize, deletes: usize) {
    let ids = src.note_ids(Some(NoteClass::Document)).unwrap();
    for i in 0..creates {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(format!("late {i}")));
        src.save(&mut n).unwrap();
    }
    for (k, id) in ids.iter().take(edits).enumerate() {
        let mut n = src.open_note(*id).unwrap();
        n.set("Body", Value::text(format!("churned {k}")));
        src.save(&mut n).unwrap();
    }
    for id in ids.iter().rev().take(deletes) {
        src.delete(*id).unwrap();
    }
}

/// The shared interrupt/resume harness, transport-agnostic.
///
/// Two destinations first converge on the source's corpus
/// (`(docs, deletes)`); the source then churns (`(creates, edits,
/// deletes)`). One destination pulls over `faulty` (any transport that
/// fails deliveries with transient `Unavailable` errors), resuming the
/// parked cursor until the pass completes; the other pulls over a
/// [`CleanTransport`]. The source is the model: both dumps must equal
/// its own. Panics on any divergence, so proptest shrinks the failing
/// case whichever transport produced it.
fn check_interrupted_resume(
    corpus: (usize, usize),
    changes: (usize, usize, usize),
    batch: usize,
    faulty_transport: &mut dyn Transport,
) {
    let src = make_db(1, 0);
    populate(&src, corpus.0, corpus.1.min(corpus.0));
    let converged = |instance, skew| {
        let dst = make_db(instance, skew);
        let mut r = Replicator::new(ReplicationOptions {
            batch,
            ..ReplicationOptions::default()
        });
        r.pull(&dst, &src).unwrap();
        (dst, r)
    };
    let (faulty_dst, mut faulty) = converged(2, 100);
    let (clean_dst, mut clean) = converged(3, 200);
    churn(&src, changes.0, changes.1, changes.2);

    let mut guard = 0;
    while faulty
        .pull_via(&faulty_dst, &src, faulty_transport)
        .is_err()
    {
        guard += 1;
        assert!(guard <= 64, "pull never completed");
    }
    assert!(!faulty.has_pending(), "cursor must clear on completion");
    clean
        .pull_via(&clean_dst, &src, &mut CleanTransport)
        .unwrap();

    let model = dump(&src);
    assert_eq!(dump(&faulty_dst), model);
    assert_eq!(dump(&clean_dst), model);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Interrupt a pull at arbitrary message indices (negotiation rounds
    /// and batch boundaries), resume until it completes, and the
    /// destination is byte-identical to the source and to one filled by
    /// an uninterrupted pull.
    #[test]
    fn interrupted_resume_is_byte_identical(
        corpus in (1..40usize, 0..5usize),
        changes in (0..8usize, 0..8usize, 0..4usize),
        batch in 1..9usize,
        fail_at in prop::collection::vec(0..40u64, 0..8),
    ) {
        let plan = FaultPlan::default();
        plan.fail_at(fail_at);
        let mut transport = Faulty::new(CleanTransport, plan);
        check_interrupted_resume(corpus, changes, batch, &mut transport);
    }

    /// Two replicas with the same instance identity that apply an
    /// identical edit schedule derive identical revision hashes — and so
    /// identical Merkle roots. This is what lets negotiation compare
    /// digests computed independently on each side.
    #[test]
    fn revision_hashes_are_deterministic_across_replicas(
        docs in 1..20usize,
        edits in prop::collection::vec((0..20usize, 0..50u32), 0..30),
    ) {
        let run = || {
            let db = make_db(9, 0);
            let mut ids: Vec<NoteId> = Vec::new();
            for i in 0..docs {
                let mut n = Note::document("Memo");
                n.set("Subject", Value::text(format!("memo {i}")));
                db.save(&mut n).unwrap();
                ids.push(n.id);
            }
            for (idx, payload) in &edits {
                let id = ids[idx % ids.len()];
                let mut n = db.open_note(id).unwrap();
                n.set("Body", Value::text(format!("edit {payload}")));
                db.save(&mut n).unwrap();
            }
            db
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.merkle_root(), b.merkle_root());
        prop_assert_ne!(a.merkle_root(), ContentHash::NONE, "root must summarize content");
        prop_assert_eq!(a.merkle_len(), docs);
    }

}

// The same interrupt/resume properties over a REAL socket: each case
// boots a loopback `ReplicaListener` whose fault plan nacks the same
// global delivery indices the in-process plan fails, and drives the
// shared harness through
// a `SocketTransport`, reconnects and all. Fewer cases — each spins up
// a listener thread — but the property and harness are the same.
proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn interrupted_resume_is_byte_identical_over_sockets(
        corpus in (1..40usize, 0..5usize),
        changes in (0..8usize, 0..8usize, 0..4usize),
        batch in 1..9usize,
        fail_at in prop::collection::vec(0..40u64, 0..8),
    ) {
        let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
        listener.fault_plan().fail_at(fail_at);
        let mut transport = SocketTransport::connect(&listener.addr());
        check_interrupted_resume(corpus, changes, batch, &mut transport);
    }
}

/// Retrying with backoff converges across a 20%-drop link within a round
/// budget that the zero-retry policy cannot meet. Both runs see identical
/// fault streams (same seed), so the comparison is exact, not statistical.
#[test]
fn retry_beats_zero_retry_through_a_lossy_link() {
    let seed = 0xFA17;
    let budget = 2;
    let run = |policy: RetryPolicy| {
        let mut net = Network::new(
            2,
            Topology::Mesh,
            LinkSpec::default().with_drop_rate(0.20),
            LogicalClock::new(),
        );
        net.set_fault_seed(seed);
        net.set_retry_policy(policy);
        net.create_replica_set("d").unwrap();
        for i in 0..320 {
            let mut n = Note::document("Memo");
            n.set("Subject", Value::text(format!("memo {i}")));
            net.db(0, "d").unwrap().save(&mut n).unwrap();
        }
        for _ in 0..budget {
            net.replicate_all_links("d").unwrap();
        }
        net.converged("d").unwrap()
    };
    // 320 docs = 20 messages per pass at the default batch of 16: a
    // zero-retry pass aborts at the first drop (expected after ~5 messages
    // at 20% loss), so two rounds cannot cover the stream, while 8 backoff
    // attempts per pull ride it out.
    assert!(run(RetryPolicy::standard()), "retry failed to converge");
    assert!(!run(RetryPolicy::none()), "zero-retry converged in budget");
}

/// Message drops, link flaps and a mail hop all draw from the network's
/// one fault plan: the seed alone decides every fault, byte and report.
#[test]
fn one_seed_fixes_every_fault_byte_and_report() {
    let run = |seed: u64| {
        let spec = LinkSpec::default().with_drop_rate(0.3).with_flap_rate(0.2);
        let mut net = Network::new(3, Topology::Mesh, spec, LogicalClock::new());
        net.set_fault_seed(seed);
        net.set_retry_policy(RetryPolicy::standard());
        net.create_replica_set("d").unwrap();
        for i in 0..60 {
            let mut n = Note::document("Memo");
            n.set("Subject", Value::text(format!("memo {i}")));
            net.db(i % 3, "d").unwrap().save(&mut n).unwrap();
        }
        let mut reports = net.replicate_all_links("d").unwrap();
        let hop = net.mail_hop_ready(0, 2);
        for _ in 0..3 {
            reports.extend(net.replicate_all_links("d").unwrap());
        }
        (net.total_faults(), net.total_traffic(), reports, hop)
    };
    let a = run(7);
    assert!(a.0.dropped > 0 && a.0.flaps > 0, "{:?}", a.0);
    assert_eq!(a, run(7));
    assert_ne!(a, run(8));
}
