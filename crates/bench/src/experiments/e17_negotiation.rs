//! E17 — incremental replication cost follows the change volume, not the
//! database size.
//!
//! Every pull finds its candidates by diffing the two replicas' Merkle
//! summaries — root (16 B), then bucket digests, then entries of
//! differing buckets — so the source examines only notes whose head
//! hashes actually differ, with no per-peer history. This experiment
//! converges a network, touches a handful of documents, and measures what
//! the next convergence costs in bytes and candidates across topologies,
//! drop rates and two corpus sizes; then it prices one more round over
//! the converged network.

use domino_core::Note;
use domino_net::{LinkSpec, Network, Topology};
use domino_replica::RetryPolicy;
use domino_types::{LogicalClock, Result, Unid, Value};

use crate::table::{fmt, Table};
use crate::Scale;

/// Rounds allowed before a configuration is declared non-convergent.
const ROUND_CAP: usize = 300;

/// What one incremental convergence cost.
struct Arm {
    rounds: usize,
    bytes: u64,
    candidates: u64,
    negotiation_bytes: u64,
    /// Mean negotiation bytes per pull of one more round once converged.
    idle_pull_bytes: u64,
}

/// Seed `docs` documents on server 0, converge, touch `touched` of them,
/// then measure the traffic and candidate volume of converging again.
fn measure(topology: Topology, drop: f64, n: usize, docs: usize, touched: usize) -> Result<Arm> {
    let mut net = Network::new(
        n,
        topology,
        LinkSpec::default().with_drop_rate(drop),
        LogicalClock::new(),
    );
    net.set_fault_seed(0xE17 ^ (drop * 100.0) as u64);
    net.set_retry_policy(RetryPolicy::standard());
    net.create_replica_set("d")?;

    let mut unids: Vec<Unid> = Vec::new();
    {
        let db = net.db(0, "d")?;
        for i in 0..docs {
            let mut note = Note::document("Doc");
            note.set("Payload", Value::text(format!("v0 doc {i}")));
            db.save(&mut note)?;
            unids.push(note.unid());
        }
    }
    net.run_until_converged("d", ROUND_CAP)?;

    // Steady state reached; touch a sliver of the corpus.
    {
        let db = net.db(0, "d")?;
        for unid in unids.iter().take(touched) {
            let mut note = db.open_by_unid(*unid)?;
            note.set("Payload", Value::text("touched"));
            db.save(&mut note)?;
        }
    }

    let base_bytes = net.total_traffic().bytes;
    let mut arm = Arm {
        rounds: 0,
        bytes: 0,
        candidates: 0,
        negotiation_bytes: 0,
        idle_pull_bytes: 0,
    };
    while !net.converged("d")? {
        assert!(
            arm.rounds < ROUND_CAP,
            "{} drop {drop} docs {docs} did not converge",
            topology.name()
        );
        for report in net.replicate_all_links("d")? {
            arm.candidates += report.candidates;
            arm.negotiation_bytes += report.negotiation_bytes;
        }
        arm.rounds += 1;
    }
    arm.bytes = net.total_traffic().bytes - base_bytes;

    // One more round over the converged network: every pull ends at the
    // root exchange (a lost root message costs a retry, not bytes).
    let idle = net.replicate_all_links("d")?;
    for r in &idle {
        assert_eq!(
            (r.candidates, r.root_matched),
            (0, 1),
            "{}: a converged pull went past the root",
            topology.name()
        );
    }
    arm.idle_pull_bytes =
        idle.iter().map(|r| r.negotiation_bytes).sum::<u64>() / idle.len().max(1) as u64;
    Ok(arm)
}

pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "e17",
        "Figure 10",
        "Digest negotiation: incremental convergence cost vs database size",
        "Replicas exchange Merkle root/bucket digests before listing candidates, \
         so a steady-state pass examines O(changed) notes whatever the database \
         size — the win the paper's incremental replication history provides, \
         without needing any per-peer history at all",
    )
    .columns(&[
        "topology",
        "drop_pct",
        "docs",
        "rounds",
        "bytes",
        "candidates",
        "negotiation bytes",
        "idle pull bytes",
    ]);

    let n = scale.pick(4, 6);
    let small = scale.pick(60, 160);
    let touched = scale.pick(3, 6);

    for topology in [Topology::Mesh, Topology::HubSpoke, Topology::Chain] {
        for drop in [0.0, 0.10] {
            let arms: Vec<(usize, Arm)> = [small, 4 * small]
                .into_iter()
                .map(|docs| {
                    (
                        docs,
                        measure(topology, drop, n, docs, touched).expect("arm"),
                    )
                })
                .collect();
            for (docs, arm) in &arms {
                table.row(vec![
                    topology.name().to_string(),
                    fmt(drop * 100.0),
                    fmt(*docs as f64),
                    fmt(arm.rounds as f64),
                    fmt(arm.bytes as f64),
                    fmt(arm.candidates as f64),
                    fmt(arm.negotiation_bytes as f64),
                    fmt(arm.idle_pull_bytes as f64),
                ]);
                // A converged link settles for the 16-byte root exchange.
                assert_eq!(arm.idle_pull_bytes, 16, "{}", topology.name());
            }
            // The acceptance bar: quadrupling the corpus leaves the notes
            // examined unchanged — they are the touched ones, per link.
            let (small_arm, large_arm) = (&arms[0].1, &arms[1].1);
            assert_eq!(
                small_arm.candidates,
                large_arm.candidates,
                "{} drop {drop}: candidates moved with database size",
                topology.name()
            );
        }
    }
    table.takeaway(
        "candidates examined follow the change volume, not the database size: \
         quadrupling the corpus leaves them unchanged on every topology and \
         drop rate, a converged link-pull costs one 16-byte root exchange, and \
         under loss the frozen negotiated set lets resumed passes skip \
         re-negotiation — O(changed) replication with no per-peer history",
    );
    table
}
