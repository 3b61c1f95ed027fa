//! `replicate`: pairwise replication over the wire protocol.
//!
//! Two in-memory replicas start converged. Every round first mutates them
//! untimed — source updates that change one item of eight, a few creates
//! and deletes, and every fourth round a few notes edited on both sides —
//! then times one `Replicator::pull_via` over `SocketTransport` to a
//! `ReplicaListener` with the default options. Negotiation, Merkle reads,
//! `save_replicated`, field-level shipping and the Deliver/Ack round
//! trips dominate; the HTTP task is bypassed and there is no file I/O,
//! which is what makes a pass's time the program's own.
//!
//! Source updates cycle a fixed permutation of the corpus, so every note
//! is edited equally often: revision chains stay a few entries deep and
//! memory stays bounded however long the run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use domino_core::{Database, Note};
use domino_netio::{ReplicaListener, SocketTransport};
use domino_replica::{
    CleanTransport, ReplicationOptions, ReplicationReport, Replicator, Transport,
};
use domino_types::{Unid, Value};

use crate::fixture::{self, Doc};
use crate::report::Outcome;
use crate::rng::{shuffle, Fnv64, SplitMix64};
use crate::rounds::{Round, Timing};
use crate::trace::{probe, Budget, Recorder};
use crate::{probes, stats, Args, Sub, SETUPS};

/// Per round: source updates, creates, deletes; every `CONFLICT_EVERY`th
/// round `CONFLICTS` notes are also edited on the destination.
const UPDATES: usize = 64;
const CREATES: usize = 4;
const DELETES: usize = 2;
const CONFLICTS: usize = 2;
const CONFLICT_EVERY: usize = 4;
/// Rounds between driver-invoked checkpoints of both replicas.
const CHECKPOINT_EVERY_ROUNDS: usize = 8;
/// Rounds per second of `--seconds` (mutation and pass together).
const ROUNDS_PER_SECOND: usize = 60;
const DOCS: usize = 8000;
/// Groups of consecutive passes that play the part of a sub-run's rounds.
const GROUPS: usize = 10;
const CREATED_SEQ_BASE: u32 = 1_000_000;

/// One round's mutations, drawn from the seed.
#[derive(Debug, Clone)]
pub struct Mutations {
    /// Seeds of the new subjects of the `UPDATES` source updates.
    pub updates: Vec<u64>,
    pub creates: Vec<u64>,
    /// Ranks into the live list of the documents to delete.
    pub deletes: Vec<u32>,
    /// Seeds of the both-sides edits (empty three rounds out of four).
    pub conflicts: Vec<u64>,
}

/// The fixed op list: `rounds` rounds and the update permutation.
pub fn plan(seed: u64, docs: usize, rounds: usize) -> (Vec<Mutations>, Vec<u32>, u64) {
    let mut perm: Vec<u32> = (0..docs as u32).collect();
    shuffle(&mut perm, &mut SplitMix64::fork(seed, 0xE1));
    let mut rng = SplitMix64::fork(seed, 0xE2);
    let mut hash = Fnv64::default();
    let mut draw = |n: usize, rng: &mut SplitMix64| -> Vec<u64> {
        (0..n)
            .map(|_| {
                let v = rng.next_u64();
                hash.write_u64(v);
                v
            })
            .collect()
    };
    let list = (0..rounds)
        .map(|r| Mutations {
            updates: draw(UPDATES, &mut rng),
            creates: draw(CREATES, &mut rng),
            deletes: draw(DELETES, &mut rng)
                .into_iter()
                .map(|v| v as u32)
                .collect(),
            conflicts: if r % CONFLICT_EVERY == CONFLICT_EVERY - 1 {
                draw(CONFLICTS, &mut rng)
            } else {
                Vec::new()
            },
        })
        .collect();
    (list, perm, hash.finish())
}

/// The two replicas, converged, and the wire between them.
pub struct Pair {
    pub src: Arc<Database>,
    pub dst: Arc<Database>,
    pub listener: ReplicaListener,
    pub docs: Vec<Doc>,
}

pub fn build_pair(seed: u64, docs: usize) -> Pair {
    let src = fixture::open_in_memory("source", 1);
    let dst = fixture::open_in_memory("destination", 2);
    let model = fixture::populate(&src, seed, docs);
    Replicator::new(ReplicationOptions::default())
        .pull(&dst, &src)
        .expect("initial convergence");
    assert_eq!(
        src.merkle_root(),
        dst.merkle_root(),
        "replicas start converged"
    );
    // Drop the load from the in-memory logs.
    src.checkpoint().expect("checkpoint source");
    dst.checkpoint().expect("checkpoint destination");
    Pair {
        src,
        dst,
        listener: ReplicaListener::bind("127.0.0.1:0").expect("bind replica listener"),
        docs: model,
    }
}

/// The source's model: which documents live, and the mutation cursor.
struct Source {
    docs: Vec<Doc>,
    live: Vec<usize>,
    /// Position in the update permutation.
    cursor: usize,
    created: u32,
    /// Bytes of item values actually changed since the last pass.
    changed_bytes: u64,
    failed: u64,
}

impl Source {
    /// The next live document of the update cycle (`perm` covers the
    /// initial corpus; deleted entries are skipped).
    fn next_target(&mut self, perm: &[u32], alive: &[bool]) -> usize {
        loop {
            let idx = perm[self.cursor % perm.len()] as usize;
            self.cursor += 1;
            if alive[idx] {
                return idx;
            }
        }
    }
}

/// Apply one round's mutations to the replicas (untimed).
fn mutate(pair: &Pair, s: &mut Source, alive: &mut Vec<bool>, perm: &[u32], round: &Mutations) {
    let save = |db: &Database, note: &mut Note, s: &mut Source| {
        if let Err(e) = db.save(note) {
            s.failed += 1;
            eprintln!("replicate: mutation save failed: {e}");
        }
    };
    for val in &round.updates {
        let idx = s.next_target(perm, alive);
        let subject = fixture::subject_text(&mut SplitMix64::new(*val));
        match pair.src.open_by_unid(s.docs[idx].unid) {
            Ok(mut note) => {
                note.set("Subject", Value::text(subject.clone()));
                save(&pair.src, &mut note, s);
                s.changed_bytes += subject.len() as u64;
                s.docs[idx].subject = subject;
            }
            Err(e) => {
                s.failed += 1;
                eprintln!("replicate: open for update failed: {e}");
            }
        }
    }
    for val in &round.creates {
        let seq = CREATED_SEQ_BASE + s.created;
        let (mut doc, mut note) = fixture::gen_doc(&mut SplitMix64::new(*val), seq);
        save(&pair.src, &mut note, s);
        doc.unid = note.unid();
        doc.id = note.id;
        s.created += 1;
        s.changed_bytes += doc.user_bytes();
        s.live.push(s.docs.len());
        s.docs.push(doc);
        alive.push(true);
    }
    for rank in &round.deletes {
        let at = *rank as usize % s.live.len();
        let idx = s.live.swap_remove(at);
        alive[idx] = false;
        if let Err(e) = pair.src.delete(s.docs[idx].id) {
            s.failed += 1;
            eprintln!("replicate: delete failed: {e}");
        }
    }
    // Both sides edit the same note: the source its subject, the
    // destination its status. The pull must resolve the divergence.
    for val in &round.conflicts {
        let mut r = SplitMix64::new(*val);
        // From the initial corpus: a note created this round is not on
        // the destination yet.
        let idx = loop {
            let idx = perm[r.below(perm.len() as u64) as usize] as usize;
            if alive[idx] {
                break idx;
            }
        };
        let unid = s.docs[idx].unid;
        let subject = fixture::subject_text(&mut r);
        if let (Ok(mut a), Ok(mut b)) = (pair.src.open_by_unid(unid), pair.dst.open_by_unid(unid)) {
            a.set("Subject", Value::text(subject.clone()));
            save(&pair.src, &mut a, s);
            s.changed_bytes += subject.len() as u64;
            b.set("Status", Value::text(fixture::status_name(&mut r)));
            save(&pair.dst, &mut b, s);
        } else {
            s.failed += 1;
        }
    }
}

fn converged(r: &ReplicationReport) -> u64 {
    r.added + r.updated + r.merged + r.conflicts + r.deletions
}

/// One timed pass.
struct Pass {
    wall: Duration,
    cpu: Duration,
    report: ReplicationReport,
    changed_bytes: u64,
    deliveries: u64,
    clean: bool,
}

/// Corpus size and the op-list unit in rounds (see `web::sizes`): a
/// sub-run is 11 units, one of warm-up and one per group of passes.
fn sizes(args: &Args) -> (usize, usize) {
    let mut rounds = ROUNDS_PER_SECOND * args.seconds as usize;
    let mut docs = DOCS;
    if args.quick {
        // A fifth, not a twentieth: fewer passes could not support any
        // percentile.
        rounds /= 5;
        docs /= 10;
    }
    (docs, (rounds / (SETUPS * (GROUPS + 1))).max(2))
}

/// The rounds, update permutation and hash a run with `args` executes.
pub fn plan_for(args: &Args) -> (Vec<Mutations>, Vec<u32>, u64) {
    let (n_docs, unit) = sizes(args);
    plan(args.seed, n_docs, SETUPS * (GROUPS + 1) * unit)
}

pub fn run(args: &Args) -> Outcome {
    let (n_docs, unit) = sizes(args);
    let sub_rounds = (GROUPS + 1) * unit;
    let (rounds, perm, hash) = plan_for(args);
    let mut head = Outcome::default();
    head.fact("op_list_hash", format!("{hash:016x}"));
    head.fact("clients", 1);
    head.fact("documents", n_docs);
    head.fact("rounds", rounds.len());
    head.fact("fixture_fs", "memory");

    let (subs, setups) = crate::sub_runs(
        args.trace,
        sub_rounds,
        0,
        || build_pair(args.seed, n_docs),
        |pair, (from, to)| measure(args, &pair, &rounds[from..to], &perm),
    );
    crate::combine(head, subs, &setups, 0.90, "passes")
}

/// Run `rounds` against `pair`: an eleventh of them untimed, then the
/// measured ones, then converge and compare the replicas.
fn measure(args: &Args, pair: &Pair, rounds: &[Mutations], perm: &[u32]) -> Sub {
    let mut out = Outcome::default();
    let warm = rounds.len() / (GROUPS + 1);
    let measured = rounds.len() - warm;

    let mut source = Source {
        live: (0..pair.docs.len()).collect(),
        docs: pair.docs.clone(),
        cursor: 0,
        created: 0,
        changed_bytes: 0,
        failed: 0,
    };
    let mut alive = vec![true; source.docs.len()];
    let mut replicator = Replicator::new(ReplicationOptions::default());
    let mut reverse = Replicator::new(ReplicationOptions::default());
    let mut socket = SocketTransport::connect(&pair.listener.addr());
    let mut rec = Recorder::new(Instant::now());
    let retries_before = domino_obs::snapshot();
    let deadline = Instant::now() + Duration::from_millis(args.seconds * 1500 / SETUPS as u64);

    let mut passes: Vec<Pass> = Vec::with_capacity(measured);
    for (i, round) in rounds.iter().enumerate() {
        mutate(pair, &mut source, &mut alive, perm, round);
        let timed = i >= warm;
        // A traced run alternates the socket with the in-process
        // transport: same pass shape, no wire.
        let clean = args.trace && timed && (i - warm) % 2 == 1;
        let deliveries = pair.listener.deliveries();
        let cpu0 = stats::process_cpu();
        let t = Instant::now();
        let result = if clean {
            replicator.pull_via(&pair.dst, &pair.src, &mut CleanTransport)
        } else {
            replicator.pull_via(&pair.dst, &pair.src, &mut socket)
        };
        let wall = t.elapsed();
        let cpu = stats::process_cpu() - cpu0;
        let changed_bytes = std::mem::take(&mut source.changed_bytes);
        match result {
            Ok(report) => {
                out.check(true);
                if timed {
                    if args.trace {
                        let end = rec.epoch().elapsed();
                        rec.extend(vec![crate::trace::Span {
                            name: if clean {
                                "replicate.clean_pass"
                            } else {
                                "replicate.pass"
                            },
                            start_ns: (end - wall).as_nanos() as u64,
                            end_ns: end.as_nanos() as u64,
                            parent: -1,
                            op_id: i as u64,
                        }]);
                    }
                    passes.push(Pass {
                        wall,
                        cpu,
                        report,
                        changed_bytes,
                        deliveries: pair.listener.deliveries() - deliveries,
                        clean,
                    });
                }
            }
            Err(e) => {
                out.check(false);
                eprintln!("replicate: pass {i} failed: {e}");
            }
        }
        // Untimed housekeeping. After a both-sides round the reverse pull
        // carries the destination's winners and the conflict documents
        // back, as the next scheduled replication would; without it the
        // replicas diverge for good and every later pass re-examines the
        // same notes. The driver-invoked checkpoints truncate the
        // in-memory logs, which otherwise hold every byte ever written.
        if !round.conflicts.is_empty() {
            match reverse.pull(&pair.src, &pair.dst) {
                Ok(_) => out.check(true),
                Err(e) => {
                    out.check(false);
                    eprintln!("replicate: reverse pull {i} failed: {e}");
                }
            }
        }
        if i % CHECKPOINT_EVERY_ROUNDS == CHECKPOINT_EVERY_ROUNDS - 1 {
            pair.src.checkpoint().expect("checkpoint source");
            pair.dst.checkpoint().expect("checkpoint destination");
        }
        // Work is fixed; the deadline only guards the harness.
        if timed && passes.len().is_multiple_of(measured / GROUPS) && Instant::now() > deadline {
            break;
        }
    }
    out.attempted += source.failed;
    out.failed += source.failed;

    // Converge both ways (conflict documents exist only where the
    // divergence was resolved) and compare the replicas.
    let mut closing = Replicator::new(ReplicationOptions::default());
    for _ in 0..2 {
        closing.sync(&pair.dst, &pair.src).expect("closing sync");
    }
    out.check(pair.src.merkle_root() == pair.dst.merkle_root());
    out.check(pair.src.merkle_len() == pair.dst.merkle_len());

    // Consecutive groups of wire passes play the part of rounds.
    let wire: Vec<&Pass> = passes.iter().filter(|p| !p.clean).collect();
    let per_group = (wire.len() / GROUPS).max(1);
    let timing = Timing {
        rounds: wire
            .chunks_exact(per_group)
            .map(|g| Round {
                ops: g.iter().map(|p| converged(&p.report)).sum(),
                wall: g.iter().map(|p| p.wall).sum(),
                cpu: g.iter().map(|p| p.cpu).sum(),
            })
            .collect(),
    };
    let by_round_ns: Vec<Vec<u64>> = wire
        .chunks_exact(per_group)
        .map(|g| g.iter().map(|p| p.wall.as_nanos() as u64).collect())
        .collect();
    out.fact("notes_converged", timing.ops());
    let shipped: u64 = passes.iter().map(|p| p.report.bytes_shipped).sum();
    let changed: u64 = passes.iter().map(|p| p.changed_bytes).sum();
    out.fact("bytes_shipped", shipped);
    out.fact("bytes_changed", changed);
    let conflicts: u64 = passes.iter().map(|p| p.report.conflicts).sum();
    out.fact("conflicts", conflicts);

    // Space: the destination's engine image per byte of live user data.
    let user_bytes: u64 = source
        .live
        .iter()
        .map(|i| source.docs[*i].user_bytes())
        .sum();
    let stored = pair.dst.info().expect("db info").logical_bytes;
    out.set(
        "file_bytes_per_user_byte",
        stored as f64 / user_bytes as f64,
    );
    out.fact("user_bytes", user_bytes);
    out.fact("stored_bytes", stored);

    if args.trace {
        let n = passes.len() as f64;
        let sum = |f: &dyn Fn(&ReplicationReport) -> u64| -> f64 {
            passes.iter().map(|p| f(&p.report)).sum::<u64>() as f64
        };
        out.set(
            "replica.shipped_bytes_per_changed_byte",
            shipped as f64 / changed as f64,
        );
        out.set(
            "replica.candidates_per_converged",
            sum(&|r| r.candidates) / sum(&converged).max(1.0),
        );
        out.set(
            "replica.negotiate_bytes_per_pass",
            sum(&|r| r.negotiation_bytes) / n,
        );
        out.set(
            "replica.buckets_differing_per_pass",
            sum(&|r| r.buckets_differing) / n,
        );
        out.set("replica.conflicts", conflicts as f64);
        out.set(
            "replica.retries",
            domino_obs::snapshot()
                .diff(&retries_before)
                .counter("Replica.Retry.Attempts") as f64,
        );
        let frames = wire.iter().map(|p| p.deliveries).sum::<u64>() as f64 / wire.len() as f64;
        out.set("netio.deliver_frames", frames);
        let clean_us = rec.p50_us("replicate.clean_pass");
        let pass_us = rec.p50_us("replicate.pass");
        out.set("replica.clean_pass_us", clean_us);
        // The recorder adds one span per pass: a few nanoseconds against
        // milliseconds. Reported as the spread between the traced halves.
        let half = wire.len() / 2;
        let rate = |ps: &[&Pass]| {
            ps.iter().map(|p| converged(&p.report)).sum::<u64>() as f64
                / ps.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>()
        };
        out.set(
            "obs.trace_overhead_pct",
            (rate(&wire[half..]) - rate(&wire[..half])) / rate(&wire[half..]) * 100.0,
        );

        // Leaves on the converged replicas.
        let unids: Vec<Unid> = source.live.iter().map(|i| source.docs[*i].unid).collect();
        let rtt = probe(&mut rec, "netio.deliver_rtt", 2000, |_| {
            socket.deliver(16).expect("deliver");
        });
        out.set("netio.deliver_rtt_us", rtt);
        probes::frame_codec(&mut rec, &mut out);
        probes::core(&mut rec, &mut out, &pair.src, &unids);
        probes::formula(&mut rec, &mut out, &pair.src, &unids);
        let current: Vec<Note> = unids
            .iter()
            .take(500)
            .filter_map(|u| pair.src.open_by_unid(*u).ok())
            .collect();
        let replicated = probe(&mut rec, "core.save_replicated", current.len(), |i| {
            pair.dst
                .save_replicated(current[i].clone())
                .expect("save_replicated");
        });
        out.set("core.save_replicated_us", replicated);
        let merkle = probe(&mut rec, "core.merkle_read", 500, |i| {
            let digests = pair.dst.merkle_bucket_digests();
            let bucket = digests[i % digests.len()].0;
            std::hint::black_box(pair.dst.merkle_bucket_entries(bucket));
        });
        out.set("core.merkle_read_us", merkle);
        out.set(
            "core.snapshot_versions",
            pair.dst.snapshot_stats().retained_versions as f64,
        );

        // The pass's budget: wire round trips, the notes applied, the
        // Merkle reads of the negotiation; the rest is candidate
        // enumeration, item diffing and conflict handling.
        let per_pass = sum(&converged) / n;
        let mut b = Budget::new("replicate", pass_us);
        b.row("netio.deliver_rtt_us x deliver_frames", rtt * frames)
            .row(
                "core.save_replicated_us x notes_per_pass",
                replicated * per_pass,
            )
            .row(
                "core.merkle_read_us x buckets_differing",
                merkle * sum(&|r| r.buckets_differing) / n,
            );
        out.set("budget.unaccounted_us", b.unaccounted_us());
        out.budget.extend(b.lines());
        out.fact(
            "socket_share_of_pass_us",
            format!("{:.1}", pass_us - clean_us),
        );
        match rec.write("replicate") {
            Ok(path) => out.fact("trace_file", path.display()),
            Err(e) => out.fact("trace_file_error", e),
        }
        out.fact("trace_spans", rec.len());
    }
    Sub {
        out,
        timing,
        by_round_ns,
    }
}
