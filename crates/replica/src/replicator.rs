//! The pull replicator.
//!
//! `pull(dst ← src)` examines every note and stub whose head differs
//! between the two replicas and brings `dst` up to date:
//!
//! * unseen UNIDs are added; unchanged ones are skipped,
//! * ancestry is decided by `domino_core::revision` from the notes'
//!   content-addressed `$RevisionHashes` history: if one copy's history
//!   contains the other's head hash, the descendant wins cleanly,
//! * divergent copies (neither descends from the other) are *conflicts*:
//!   with `merge_conflicts` on and disjoint field edits, the copies merge
//!   field-wise; otherwise the loser is preserved as a deterministic
//!   `$Conflict` response document,
//! * deletion stubs propagate deletions (a newer local edit outranks an
//!   older deletion and vice versa, by `(seq, seq_time)`); a stub older
//!   than the destination's purge horizon is not adopted for a UNID the
//!   destination holds no record of,
//! * a selective-replication formula restricts which documents travel,
//! * bandwidth is accounted either whole-document (R3) or changed-fields
//!   (R4), the comparison E5 measures.
//!
//! The candidate set is *digest-negotiated*: the destination ships its
//! Merkle root (16 bytes); on mismatch its bucket digests; the source
//! descends only into differing buckets and lists only notes whose
//! content-addressed head hash actually differs. Two converged replicas
//! exchange one root and stop, so a pass costs O(buckets + changed)
//! whatever the database size, and needs no per-peer history: a
//! cold-start pair, a cleared history and an ad-hoc pass all diff the
//! same way. The revision history is unbounded, so a replica any number
//! of revisions behind still proves clean descent.
//!
//! Passes are *resumable*: candidates stream in `(seq_time, unid)` order
//! through a bounded batch cursor ([`PullCursor`]), one [`Transport`]
//! message per batch. If the transport fails mid-pass the cursor survives
//! with the negotiated set and the position of the last durably applied
//! candidate; a later attempt (or [`Replicator::pull_with_retry`]) resumes
//! from the cursor instead of restarting, so progress over a flaky link is
//! monotone. [`ReplicationHistory`] records each pair's last completed
//! pass, which [`Replicator::purge_safety`] reads.

use std::collections::HashMap;
use std::sync::OnceLock;

use domino_core::revision::{
    descends_from, merge_base_time, record_merge, same_revision, winner_key,
};
use domino_core::{ChangedNote, Database, Note, ITEM_REVISION_HASHES};
use domino_formula::{EvalEnv, Formula};
use domino_obs as obs;
use domino_types::{Clock, ContentHash, DominoError, Item, ReplicaId, Result, Timestamp, Unid};

use crate::conflict::make_conflict_document;
use crate::history::ReplicationHistory;
use crate::transport::{CleanTransport, RetryPolicy, RetryStats, Transport};

/// Registry handles for replication telemetry, recorded once per pull
/// from the finished [`ReplicationReport`] (the pass itself accounts
/// into the report; mirroring at the end keeps the inner loop clean).
struct Metrics {
    passes: &'static obs::Counter,
    notes_pushed: &'static obs::Counter,
    bytes_shipped: &'static obs::Counter,
    conflicts: &'static obs::Counter,
    deletions: &'static obs::Counter,
    pass_candidates: &'static obs::Histogram,
    interrupted: &'static obs::Counter,
    resumed: &'static obs::Counter,
    retry_attempts: &'static obs::Counter,
    retry_backoff_ticks: &'static obs::Counter,
    retry_exhausted: &'static obs::Counter,
    negotiations: &'static obs::Counter,
    root_matches: &'static obs::Counter,
    buckets_differing: &'static obs::Counter,
    negotiation_bytes: &'static obs::Counter,
    negotiated_candidates: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        passes: obs::counter("Replica.Passes"),
        notes_pushed: obs::counter("Replica.Pass.NotesPushed"),
        bytes_shipped: obs::counter("Replica.Pass.BytesShipped"),
        conflicts: obs::counter("Replica.Conflicts"),
        deletions: obs::counter("Replica.Deletions"),
        pass_candidates: obs::histogram("Replica.Pass.Candidates"),
        interrupted: obs::counter("Replica.Pass.Interrupted"),
        resumed: obs::counter("Replica.Pass.Resumed"),
        retry_attempts: obs::counter("Replica.Retry.Attempts"),
        retry_backoff_ticks: obs::counter("Replica.Retry.BackoffTicks"),
        retry_exhausted: obs::counter("Replica.Retry.Exhausted"),
        negotiations: obs::counter("Replica.Negotiate.Passes"),
        root_matches: obs::counter("Replica.Negotiate.RootMatches"),
        buckets_differing: obs::counter("Replica.Negotiate.BucketsDiffering"),
        negotiation_bytes: obs::counter("Replica.Negotiate.Bytes"),
        negotiated_candidates: obs::counter("Replica.Negotiate.Candidates"),
    })
}

/// Wire cost of the destination's Merkle root in a negotiation exchange.
const ROOT_BYTES: u64 = 16;
/// Wire cost per bucket digest (2-byte index + 16-byte digest).
const BUCKET_DIGEST_BYTES: u64 = 18;
/// Wire cost per `(unid, head)` Merkle entry (16 + 16 bytes).
const MERKLE_ENTRY_BYTES: u64 = 32;
/// Wire cost of announcing one candidate's OID during the pull loop
/// (16-byte UNID + 4-byte sequence + 8-byte sequence time), paid only for
/// notes whose heads differ.
const CANDIDATE_HEADER_BYTES: u64 = 28;

/// Announce a pass parked mid-flight on the event bus. The cursor keeps
/// every durably applied note, so the event only needs to say which pair
/// stalled and at which stage (`negotiation`, `deliver`, or `apply`).
fn emit_interrupted(dst: &Database, src: &Database, stage: &'static str) {
    obs::emit(
        obs::Event::new(
            obs::EventKind::Replica,
            obs::Severity::Warning,
            "Replica.Pass.Interrupted",
        )
        .at(dst.clock().peek().0)
        .with("src", src.title())
        .with("dst", dst.title())
        .with("stage", stage),
    );
}

/// Tuning knobs for a replication pass.
#[derive(Debug, Clone)]
pub struct ReplicationOptions {
    /// Account bandwidth at field level (R4) instead of whole documents
    /// (R3).
    pub field_level: bool,
    /// Merge divergent copies field-wise when they edited disjoint items
    /// (the Notes form option "merge replication conflicts").
    pub merge_conflicts: bool,
    /// Only documents selected by this formula replicate (deletions always
    /// do).
    pub selective: Option<Formula>,
    /// Receive truncated documents: summary items only, bodies stripped
    /// (the Notes laptop option "receive partial documents").
    pub truncate_bodies: bool,
    /// Candidates per transport message. Smaller batches lose less work
    /// per dropped message but pay more round-trips; the cursor resumes
    /// at batch (in fact candidate) granularity either way.
    pub batch: usize,
}

impl Default for ReplicationOptions {
    fn default() -> ReplicationOptions {
        ReplicationOptions {
            field_level: true,
            merge_conflicts: false,
            selective: None,
            truncate_bodies: false,
            batch: 16,
        }
    }
}

/// What one pull did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Notes and stubs examined: those whose heads the Merkle diff found
    /// differing.
    pub candidates: u64,
    /// New documents stored.
    pub added: u64,
    /// Existing documents cleanly updated.
    pub updated: u64,
    /// Candidates already present with the same version.
    pub unchanged: u64,
    /// Candidates where the local copy was strictly newer.
    pub local_newer: u64,
    /// Divergent copies merged field-wise.
    pub merged: u64,
    /// Divergent copies preserved as conflict documents.
    pub conflicts: u64,
    /// Deletions applied locally.
    pub deletions: u64,
    /// Documents excluded by the selective formula.
    pub skipped_selective: u64,
    /// Bytes that would cross the wire (per the field_level mode).
    pub bytes_shipped: u64,
    /// Items that would cross the wire.
    pub items_shipped: u64,
    /// Digest negotiations run (one per pull attempt that had not yet
    /// negotiated its candidate set).
    pub negotiated: u64,
    /// Negotiations that ended at the root exchange (replicas identical).
    pub root_matched: u64,
    /// Merkle buckets whose digests differed and were descended into.
    pub buckets_differing: u64,
    /// Bytes of the negotiation exchange itself (root + bucket digests +
    /// differing-bucket entries); included in `bytes_shipped`.
    pub negotiation_bytes: u64,
}

impl ReplicationReport {
    /// Did this pull change the destination at all?
    pub fn changed_anything(&self) -> bool {
        self.added + self.updated + self.merged + self.conflicts + self.deletions > 0
    }

    /// Accumulate another report's counters into this one.
    pub fn merge_from(&mut self, other: &ReplicationReport) {
        self.candidates += other.candidates;
        self.added += other.added;
        self.updated += other.updated;
        self.unchanged += other.unchanged;
        self.local_newer += other.local_newer;
        self.merged += other.merged;
        self.conflicts += other.conflicts;
        self.deletions += other.deletions;
        self.skipped_selective += other.skipped_selective;
        self.bytes_shipped += other.bytes_shipped;
        self.items_shipped += other.items_shipped;
        self.negotiated += other.negotiated;
        self.root_matched += other.root_matched;
        self.buckets_differing += other.buckets_differing;
        self.negotiation_bytes += other.negotiation_bytes;
    }
}

/// Verdict of [`Replicator::purge_safety`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PurgeSafety {
    /// Every known peer replicated within the purge interval.
    pub safe: bool,
    /// The database's configured stub purge interval, in ticks.
    pub purge_interval: u64,
    /// The peer that replicated longest ago (None = no peers known).
    pub stalest_peer: Option<domino_types::ReplicaId>,
    /// Ticks since that peer last pulled from this replica.
    pub stalest_age: u64,
}

/// An in-flight (interrupted) pull's resumption state.
///
/// Candidates are processed in `(seq_time, unid)` order; the cursor
/// remembers the negotiated candidate set, the clock reading at pass
/// start (recorded in the history on completion), and the position of
/// the last candidate durably applied. An interrupted pull leaves its
/// cursor in the replicator; the next pull for the same pair resumes
/// after that position instead of restarting.
#[derive(Debug, Clone, Default)]
pub struct PullCursor {
    /// Source clock reading at pass start; recorded as the pair's last
    /// pass once the pass completes.
    started_at: Timestamp,
    /// The digest-negotiated UNID set, once negotiation completed. Frozen
    /// across resumptions, so an interrupted pass resumes straight into
    /// its batches without re-paying the negotiation round-trips.
    negotiated: Option<Vec<Unid>>,
    /// `(seq_time, unid)` of the last durably applied candidate.
    resume_after: Option<(Timestamp, u128)>,
    /// Work accumulated across all attempts of this pass.
    report: ReplicationReport,
}

impl PullCursor {
    /// Candidates applied so far in this (interrupted) pass.
    pub fn applied(&self) -> u64 {
        self.report.candidates
    }
}

/// A replicator: options + per-peer incremental history + any in-flight
/// pass cursors awaiting resumption.
pub struct Replicator {
    /// Tuning knobs applied to every pass this replicator runs.
    pub options: ReplicationOptions,
    /// When each pair last completed a pass (read by
    /// [`Replicator::purge_safety`]).
    pub history: ReplicationHistory,
    /// Interrupted passes by `(dst instance, src instance)`.
    cursors: HashMap<(ReplicaId, ReplicaId), PullCursor>,
}

impl Replicator {
    /// A fresh replicator with empty history.
    pub fn new(options: ReplicationOptions) -> Replicator {
        Replicator {
            options,
            history: ReplicationHistory::new(),
            cursors: HashMap::new(),
        }
    }

    /// Pull changes from `src` into `dst` over a perfectly reliable
    /// in-process transport.
    pub fn pull(&mut self, dst: &Database, src: &Database) -> Result<ReplicationReport> {
        self.pull_via(dst, src, &mut CleanTransport)
    }

    /// Pull changes from `src` into `dst`, shipping each candidate batch
    /// as one message through `transport`.
    ///
    /// On a transport fault the pull returns the error but keeps a
    /// [`PullCursor`] recording everything durably applied; calling this
    /// again for the same pair resumes after that point. The history
    /// records the pass only when it completes. Re-applying a candidate after
    /// a resume is idempotent (same-revision copies are skipped), so
    /// interruption at any point is safe.
    pub fn pull_via(
        &mut self,
        dst: &Database,
        src: &Database,
        transport: &mut dyn Transport,
    ) -> Result<ReplicationReport> {
        if dst.replica_id() != src.replica_id() {
            return Err(DominoError::Replication(format!(
                "replica ids differ: {} vs {}",
                dst.replica_id(),
                src.replica_id()
            )));
        }
        let _span = obs::span!("Replica.Pull");
        let key = (dst.instance_id(), src.instance_id());
        let mut cursor = match self.cursors.remove(&key) {
            Some(c) => {
                m().resumed.inc();
                c
            }
            None => PullCursor {
                started_at: src.clock().peek(),
                ..PullCursor::default()
            },
        };
        // Negotiate the candidate UNID set from the destination's Merkle
        // summary, unless this pass already did (the set is frozen in the
        // cursor, so a resumption goes straight to its batches instead of
        // re-paying the negotiation round-trips).
        let unids = match cursor.negotiated.take() {
            Some(unids) => unids,
            None => match self.negotiate_unids(dst, src, transport, &mut cursor.report) {
                Ok(unids) => unids,
                Err(e) => {
                    if e.is_transient() {
                        // A negotiation message was lost in flight; park the
                        // cursor so the retry resumes this pass.
                        m().interrupted.inc();
                        emit_interrupted(dst, src, "negotiation");
                        self.cursors.insert(key, cursor);
                    }
                    return Err(e);
                }
            },
        };
        // Candidates stream in (seq_time, unid) order — a total order both
        // sides agree on, which is what makes the cursor meaningful.
        let mut candidates = src.changed_entries_for(&unids)?;
        cursor.negotiated = Some(unids);
        if let Some(after) = cursor.resume_after {
            candidates.retain(|c| (c.oid.seq_time, c.oid.unid.0) > after);
        }
        let batch = self.options.batch.max(1);
        for chunk in candidates.chunks(batch) {
            if let Err(e) = transport.deliver(chunk.len() as u64) {
                m().interrupted.inc();
                emit_interrupted(dst, src, "deliver");
                self.cursors.insert(key, cursor);
                return Err(e);
            }
            for cand in chunk {
                cursor.report.candidates += 1;
                cursor.report.bytes_shipped += CANDIDATE_HEADER_BYTES;
                let applied = if cand.is_stub {
                    self.pull_stub(dst, src, cand, &mut cursor.report)
                } else {
                    self.pull_note(dst, src, cand, &mut cursor.report)
                };
                if let Err(e) = applied {
                    // Apply-side failure: progress so far is durable; park
                    // the cursor so a retry continues from here.
                    emit_interrupted(dst, src, "apply");
                    self.cursors.insert(key, cursor);
                    return Err(e);
                }
                cursor.resume_after = Some((cand.oid.seq_time, cand.oid.unid.0));
            }
        }
        // Success: record the completed pass for `purge_safety`.
        dst.clock().observe(cursor.started_at);
        self.history
            .record(dst.instance_id(), src.instance_id(), cursor.started_at);
        let report = cursor.report;
        let reg = m();
        reg.passes.inc();
        reg.notes_pushed
            .add(report.added + report.updated + report.merged + report.conflicts);
        reg.bytes_shipped.add(report.bytes_shipped);
        reg.conflicts.add(report.conflicts);
        reg.deletions.add(report.deletions);
        reg.pass_candidates.record(report.candidates);
        reg.negotiations.add(report.negotiated);
        reg.root_matches.add(report.root_matched);
        reg.buckets_differing.add(report.buckets_differing);
        reg.negotiation_bytes.add(report.negotiation_bytes);
        reg.negotiated_candidates.add(report.candidates);
        obs::emit(
            obs::Event::new(obs::EventKind::Replica, obs::Severity::Info, "Replica.Pass")
                .at(dst.clock().peek().0)
                .with("src", src.title())
                .with("dst", dst.title())
                .with("candidates", report.candidates)
                .with("added", report.added)
                .with("updated", report.updated)
                .with("conflicts", report.conflicts)
                .with("deletions", report.deletions)
                .with("bytes", report.bytes_shipped),
        );
        Ok(report)
    }

    /// Negotiate this pass's candidate UNID set: a digest exchange of up
    /// to three rounds — the destination's Merkle root, then (on
    /// mismatch) its bucket digests, then (when the source holds a
    /// differing bucket) its entries for those buckets — after which the
    /// source knows exactly the notes whose head hashes differ. Every
    /// round crosses the transport, so fault injection applies to
    /// negotiation messages just as to candidate batches.
    fn negotiate_unids(
        &self,
        dst: &Database,
        src: &Database,
        transport: &mut dyn Transport,
        report: &mut ReplicationReport,
    ) -> Result<Vec<Unid>> {
        let _span = obs::span!("Replica.Negotiate");
        report.negotiated += 1;
        // Round 1: the destination ships its root.
        transport.deliver(1)?;
        report.bytes_shipped += ROOT_BYTES;
        report.negotiation_bytes += ROOT_BYTES;
        if dst.merkle_root() == src.merkle_root() {
            // Equal roots ⟺ identical (unid, head) sets: nothing to
            // examine, at the cost of 16 bytes.
            report.root_matched += 1;
            return Ok(Vec::new());
        }
        // Round 2: the destination's bucket digests; the source keeps the
        // buckets it holds whose digests disagree (buckets only the
        // destination populates have nothing the source could ship).
        transport.deliver(1)?;
        let dst_digests: HashMap<u32, ContentHash> =
            dst.merkle_bucket_digests().into_iter().collect();
        let digest_bytes = dst_digests.len() as u64 * BUCKET_DIGEST_BYTES;
        report.bytes_shipped += digest_bytes;
        report.negotiation_bytes += digest_bytes;
        let differing: Vec<u32> = src
            .merkle_bucket_digests()
            .into_iter()
            .filter(|(b, d)| dst_digests.get(b) != Some(d))
            .map(|(b, _)| b)
            .collect();
        report.buckets_differing += differing.len() as u64;
        if differing.is_empty() {
            // Everything that differs lives only on the destination —
            // the source has nothing to ship, so skip round 3.
            return Ok(Vec::new());
        }
        // Round 3: the destination's entries for the differing buckets;
        // the source descends and keeps only notes whose heads differ.
        transport.deliver(1)?;
        let mut unids: Vec<Unid> = Vec::new();
        for b in &differing {
            let dst_entries: HashMap<Unid, ContentHash> =
                dst.merkle_bucket_entries(*b).into_iter().collect();
            let entry_bytes = dst_entries.len() as u64 * MERKLE_ENTRY_BYTES;
            report.bytes_shipped += entry_bytes;
            report.negotiation_bytes += entry_bytes;
            for (unid, head) in src.merkle_bucket_entries(*b) {
                if dst_entries.get(&unid) != Some(&head) {
                    unids.push(unid);
                }
            }
        }
        Ok(unids)
    }

    /// Pull with retry: on a transient transport fault, back off per
    /// `policy` (advancing `dst`'s logical clock — simulated elapsed
    /// time), then resume from the cursor. Returns the cumulative report
    /// and what retrying cost. When the policy is exhausted the last
    /// transport error is returned and the cursor stays parked for a
    /// later, externally scheduled attempt.
    pub fn pull_with_retry(
        &mut self,
        dst: &Database,
        src: &Database,
        transport: &mut dyn Transport,
        policy: &RetryPolicy,
    ) -> Result<(ReplicationReport, RetryStats)> {
        let mut stats = RetryStats::default();
        loop {
            stats.attempts += 1;
            match self.pull_via(dst, src, transport) {
                Ok(report) => return Ok((report, stats)),
                Err(e) if e.is_transient() => {
                    let reg = m();
                    let budget_left =
                        policy.pass_timeout == 0 || stats.backoff_ticks < policy.pass_timeout;
                    if stats.attempts >= policy.max_attempts || !budget_left {
                        // Exhausted: the cursor stays parked; callers see
                        // the transport error (and Replica.Retry.Exhausted).
                        reg.retry_exhausted.inc();
                        obs::emit(
                            obs::Event::new(
                                obs::EventKind::Replica,
                                obs::Severity::Failure,
                                "Replica.Retry.Exhausted",
                            )
                            .at(dst.clock().peek().0)
                            .with("src", src.title())
                            .with("dst", dst.title())
                            .with("attempts", stats.attempts)
                            .with("backoff_ticks", stats.backoff_ticks),
                        );
                        return Err(e);
                    }
                    reg.retry_attempts.inc();
                    // Jitter is seeded from the logical clock: determinism
                    // for the simulator, decorrelation for the fleet.
                    let seed = dst.clock().peek().0;
                    let wait = policy.backoff(stats.attempts, seed);
                    obs::emit(
                        obs::Event::new(
                            obs::EventKind::Replica,
                            obs::Severity::Warning,
                            "Replica.Retry",
                        )
                        .at(dst.clock().peek().0)
                        .with("src", src.title())
                        .with("dst", dst.title())
                        .with("attempt", stats.attempts)
                        .with("wait_ticks", wait),
                    );
                    stats.backoff_ticks += wait;
                    reg.retry_backoff_ticks.add(wait);
                    dst.clock().advance(wait);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Administrative safety check for stub purging: purging is safe only
    /// if every known peer has replicated with `db` more recently than the
    /// purge interval (otherwise a purged deletion can resurrect — the E8
    /// anomaly). Returns the verdict plus the most-stale peer's lag.
    pub fn purge_safety(&self, db: &Database) -> PurgeSafety {
        let now = db.clock().peek();
        let me = db.instance_id();
        let mut stalest: Option<(domino_types::ReplicaId, u64)> = None;
        for (dst, src) in self.history.pairs() {
            // Peers that pull *from us* are the ones that could still hold
            // a pre-deletion copy.
            if src != me {
                continue;
            }
            let age = now.saturating_sub(self.history.last_pass(dst, src));
            if stalest.map(|(_, worst)| age > worst).unwrap_or(true) {
                stalest = Some((dst, age));
            }
        }
        let purge_interval = db.purge_interval();
        match stalest {
            Some((peer, age)) => PurgeSafety {
                safe: age < purge_interval,
                purge_interval,
                stalest_peer: Some(peer),
                stalest_age: age,
            },
            None => PurgeSafety {
                // No recorded peers: purging cannot be proven safe.
                safe: false,
                purge_interval,
                stalest_peer: None,
                stalest_age: u64::MAX,
            },
        }
    }

    /// Pull in both directions over a reliable transport.
    pub fn sync(
        &mut self,
        a: &Database,
        b: &Database,
    ) -> Result<(ReplicationReport, ReplicationReport)> {
        let into_a = self.pull(a, b)?;
        let into_b = self.pull(b, a)?;
        Ok((into_a, into_b))
    }

    /// Pull in both directions through `transport` with retry per
    /// `policy`. Both directions share the transport (and hence its fault
    /// stream); an exhausted direction aborts the sync with its cursor
    /// parked, so the next sync resumes it.
    pub fn sync_with_retry(
        &mut self,
        a: &Database,
        b: &Database,
        transport: &mut dyn Transport,
        policy: &RetryPolicy,
    ) -> Result<(ReplicationReport, ReplicationReport, RetryStats)> {
        let mut stats = RetryStats::default();
        let (into_a, sa) = self.pull_with_retry(a, b, transport, policy)?;
        stats.merge_from(&sa);
        let (into_b, sb) = self.pull_with_retry(b, a, transport, policy)?;
        stats.merge_from(&sb);
        Ok((into_a, into_b, stats))
    }

    /// The parked cursor of an interrupted `dst ← src` pull, if any.
    pub fn cursor(&self, dst: &Database, src: &Database) -> Option<&PullCursor> {
        self.cursors.get(&(dst.instance_id(), src.instance_id()))
    }

    /// Are any passes interrupted and awaiting resumption?
    pub fn has_pending(&self) -> bool {
        !self.cursors.is_empty()
    }

    /// Drop all parked cursors (the next pull of each pair negotiates
    /// afresh — safe, merely wasteful).
    pub fn abandon_pending(&mut self) {
        self.cursors.clear();
    }

    /// Parked cursors awaiting resumption.
    pub fn pending_count(&self) -> usize {
        self.cursors.len()
    }

    /// Forget everything about a decommissioned replica instance: its
    /// history entries and any parked cursors for passes involving it.
    /// Long-lived replicators otherwise grow one history entry and
    /// potentially one cursor per peer forever; pruning dropped instances
    /// keeps both maps bounded by the live peer set. Safe at any time:
    /// if the instance reappears, its first pull is the same
    /// O(buckets + changed) Merkle diff as any other.
    pub fn forget_instance(&mut self, instance: ReplicaId) {
        self.history.forget(instance);
        self.cursors
            .retain(|(dst, src), _| *dst != instance && *src != instance);
    }

    fn pull_stub(
        &self,
        dst: &Database,
        src: &Database,
        cand: &ChangedNote,
        report: &mut ReplicationReport,
    ) -> Result<()> {
        let stub = src.open_stub(cand.id)?;
        let known = match dst.id_of_unid(stub.oid.unid)? {
            // Is the deletion already known locally?
            Some(local_id) => dst
                .open_stub(local_id)
                .is_ok_and(|local| local.oid.winner_key() >= stub.oid.winner_key()),
            // No record here: a stub older than this replica's purge
            // horizon is one it has purged (or would purge at once), so
            // adopting it would only undo the purge.
            None => stub.deleted_at < dst.purge_horizon(),
        };
        if known {
            report.unchanged += 1;
            return Ok(());
        }
        report.bytes_shipped += 64;
        match dst.apply_remote_deletion(&stub)? {
            Some(_) => report.deletions += 1,
            None => report.local_newer += 1,
        }
        Ok(())
    }

    fn pull_note(
        &self,
        dst: &Database,
        src: &Database,
        cand: &ChangedNote,
        report: &mut ReplicationReport,
    ) -> Result<()> {
        let mut remote = src.open_note(cand.id)?;
        if self.options.truncate_bodies && remote.encode_body().is_some() {
            // Summary-only transfer. The truncated copy keeps the source's
            // OID/lineage but is marked read-only ($Truncated), so the
            // missing bodies can never replicate back as deletions.
            remote.truncate_to_summary();
        }
        if let Some(f) = &self.options.selective {
            if !f.selects(&remote, &EvalEnv::default())? {
                report.skipped_selective += 1;
                return Ok(());
            }
        }
        let local_id = dst.id_of_unid(remote.unid())?;
        let Some(local_id) = local_id else {
            // Brand new here.
            report.bytes_shipped += self.ship_cost(&remote, None, report);
            dst.save_replicated(remote)?;
            report.added += 1;
            return Ok(());
        };
        let local = match dst.open_note(local_id) {
            Ok(n) => n,
            Err(_) => {
                // Local copy is a deletion stub: newer edit resurrects,
                // newer deletion stands.
                let stub = dst.open_stub(local_id)?;
                if remote.oid.winner_key() > stub.oid.winner_key() {
                    report.bytes_shipped += self.ship_cost(&remote, None, report);
                    dst.save_replicated(remote)?;
                    report.updated += 1;
                } else {
                    report.local_newer += 1;
                }
                return Ok(());
            }
        };

        // A local truncated copy of the same revision upgrades to the full
        // document (bodies were withheld, not diverged).
        if local.is_truncated() && !remote.is_truncated() && same_revision(&local, &remote) {
            report.bytes_shipped += self.ship_cost(&remote, Some(&local), report);
            dst.save_replicated(remote)?;
            report.updated += 1;
            return Ok(());
        }
        if same_revision(&local, &remote) {
            report.unchanged += 1;
            return Ok(());
        }
        if descends_from(&remote, &local) {
            report.bytes_shipped += self.ship_cost(&remote, Some(&local), report);
            dst.save_replicated(remote)?;
            report.updated += 1;
            return Ok(());
        }
        if descends_from(&local, &remote) {
            report.local_newer += 1;
            return Ok(());
        }

        // Divergent histories: a replication conflict.
        self.resolve_conflict(dst, local, remote, report)
    }

    fn resolve_conflict(
        &self,
        dst: &Database,
        local: Note,
        remote: Note,
        report: &mut ReplicationReport,
    ) -> Result<()> {
        report.bytes_shipped += self.ship_cost(&remote, Some(&local), report);
        if self.options.merge_conflicts {
            if let Some(merged) = merge_field_wise(&local, &remote) {
                dst.save_replicated(merged)?;
                report.merged += 1;
                return Ok(());
            }
        }
        let (winner, loser) = if winner_key(&local) >= winner_key(&remote) {
            (local, remote)
        } else {
            (remote, local)
        };
        // The losing revision survives as a $Conflict response document
        // (deterministic UNID: both replicas mint the same one).
        let conflict_doc = make_conflict_document(&loser);
        if winner.unid() != loser.unid() {
            unreachable!("conflicting copies share a UNID");
        }
        dst.save_replicated(winner)?;
        dst.save_replicated(conflict_doc)?;
        report.conflicts += 1;
        Ok(())
    }

    /// Bytes this transfer would put on the wire.
    fn ship_cost(
        &self,
        remote: &Note,
        local: Option<&Note>,
        report: &mut ReplicationReport,
    ) -> u64 {
        const HEADER: u64 = 64;
        if !self.options.field_level || local.is_none() {
            report.items_shipped += remote.items_raw().len() as u64;
            return HEADER + remote.byte_size() as u64;
        }
        let local = local.expect("checked");
        // Field level: ship only items whose (value, flags, revised)
        // differ, plus a small per-item digest-exchange overhead. Local
        // items are indexed by name once, so the comparison is
        // O(items), not O(items²).
        let local_by_name: HashMap<String, &Item> = local
            .items_raw()
            .iter()
            .map(|l| (l.name.to_ascii_lowercase(), l))
            .collect();
        let mut bytes = HEADER;
        for it in remote.items_raw() {
            bytes += 10; // digest exchange per item
            let same = local_by_name
                .get(&it.name.to_ascii_lowercase())
                .is_some_and(|l| {
                    l.value == it.value && l.flags == it.flags && l.revised == it.revised
                });
            if !same {
                bytes += it.byte_size() as u64;
                report.items_shipped += 1;
            }
        }
        bytes
    }
}

/// Merge two divergent copies field-wise. Succeeds only when no single
/// item was edited on both sides since their common ancestor; the result
/// (content *and* identity) is identical no matter which replica computes
/// it, so merged copies deduplicate as they propagate.
fn merge_field_wise(local: &Note, remote: &Note) -> Option<Note> {
    let anc = merge_base_time(local, remote)?;
    let (winner, other) = if winner_key(local) >= winner_key(remote) {
        (local, remote)
    } else {
        (remote, local)
    };
    let mut merged = winner.clone();
    let mut took_any = false;
    for it in other.items_raw() {
        // The history is rebuilt below, never merged field-wise.
        if it.name.eq_ignore_ascii_case(ITEM_REVISION_HASHES) {
            continue;
        }
        let ours: Option<&Item> = winner
            .items_raw()
            .iter()
            .find(|w| w.name.eq_ignore_ascii_case(&it.name));
        match ours {
            Some(w) if w.value == it.value && w.flags == it.flags => {}
            Some(w) => {
                let we_changed = w.revised > anc;
                let they_changed = it.revised > anc;
                if we_changed && they_changed {
                    // Same field edited on both sides: a true conflict.
                    return None;
                }
                if they_changed {
                    merged.set_item(it.clone());
                    took_any = true;
                }
            }
            None => {
                if it.revised > anc {
                    merged.set_item(it.clone());
                    took_any = true;
                }
            }
        }
    }
    if !took_any {
        // The winner already subsumes the other copy: no new revision.
        return Some(winner.clone());
    }
    // A real merge is a new revision with a *deterministic* identity
    // derived from both parents, so independently-computed merges of the
    // same pair coincide.
    merged.oid = domino_types::Oid {
        unid: winner.unid(),
        seq: winner.oid.seq.max(other.oid.seq) + 1,
        seq_time: winner.oid.seq_time.max(other.oid.seq_time),
    };
    merged.modified = winner.modified.max(other.modified);
    record_merge(&mut merged, winner, other);
    Some(merged)
}

/// One-shot bidirectional replication with default options — convenience
/// for examples and tests.
pub fn replicate(a: &Database, b: &Database) -> Result<(ReplicationReport, ReplicationReport)> {
    Replicator::new(ReplicationOptions::default()).sync(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::{DbConfig, ITEM_CONFLICT};
    use domino_types::{FaultPlan, Faulty, LogicalClock, NoteClass, ReplicaId, Value};
    use std::sync::Arc;

    /// A transport that loses the deliveries at `fail_at` (0-based).
    fn flaky(fail_at: impl IntoIterator<Item = u64>) -> Faulty<CleanTransport> {
        let plan = FaultPlan::default();
        plan.fail_at(fail_at);
        Faulty::new(CleanTransport, plan)
    }

    /// Two replicas of the same database sharing nothing but the lineage id.
    fn pair() -> (Arc<Database>, Arc<Database>, Replicator) {
        let a = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Disc", ReplicaId(77), ReplicaId(1)),
                LogicalClock::new(),
            )
            .unwrap(),
        );
        let b = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Disc", ReplicaId(77), ReplicaId(2)),
                LogicalClock::starting_at(domino_types::Timestamp(500)),
            )
            .unwrap(),
        );
        (a, b, Replicator::new(ReplicationOptions::default()))
    }

    fn doc(db: &Database, subject: &str) -> Note {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(subject));
        db.save(&mut n).unwrap();
        n
    }

    fn docs_equal(a: &Database, b: &Database) -> bool {
        let fa = all_docs(a);
        let fb = all_docs(b);
        fa == fb
    }

    fn all_docs(db: &Database) -> Vec<(String, u32, String)> {
        let mut v: Vec<(String, u32, String)> = db
            .note_ids(Some(NoteClass::Document))
            .unwrap()
            .into_iter()
            .map(|id| {
                let n = db.open_note(id).unwrap();
                (
                    n.unid().to_string(),
                    n.oid.seq,
                    n.get_text("Subject").unwrap_or_default(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn mismatched_replica_ids_refused() {
        let a = Database::open_in_memory(
            DbConfig::new("A", ReplicaId(1), ReplicaId(10)),
            LogicalClock::new(),
        )
        .unwrap();
        let b = Database::open_in_memory(
            DbConfig::new("B", ReplicaId(2), ReplicaId(20)),
            LogicalClock::new(),
        )
        .unwrap();
        let mut r = Replicator::new(ReplicationOptions::default());
        assert!(r.pull(&a, &b).is_err());
    }

    #[test]
    fn new_documents_flow_both_ways() {
        let (a, b, mut r) = pair();
        doc(&a, "from-a");
        doc(&b, "from-b");
        let (into_a, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_a.added, 1);
        assert_eq!(into_b.added, 1);
        assert!(docs_equal(&a, &b));
        assert_eq!(a.document_count().unwrap(), 2);
    }

    #[test]
    fn history_makes_second_sync_cheap() {
        let (a, b, mut r) = pair();
        for i in 0..20 {
            doc(&a, &format!("d{i}"));
        }
        r.sync(&a, &b).unwrap();
        // Nothing changed: second sync examines no candidates.
        let (into_a, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_b.candidates, 0);
        assert_eq!(into_a.candidates, 0);
        // One change: exactly one candidate.
        let ids = a.note_ids(Some(NoteClass::Document)).unwrap();
        let mut n = a.open_note(ids[0]).unwrap();
        n.set("Subject", Value::text("touched"));
        a.save(&mut n).unwrap();
        let (_, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_b.candidates, 1);
        assert_eq!(into_b.updated, 1);
        assert!(docs_equal(&a, &b));
    }

    #[test]
    fn updates_propagate_without_conflict() {
        let (a, b, mut r) = pair();
        let mut n = doc(&a, "v1");
        r.sync(&a, &b).unwrap();
        n.set("Subject", Value::text("v2"));
        a.save(&mut n).unwrap();
        let (_, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_b.updated, 1);
        assert_eq!(into_b.conflicts, 0);
        let b_copy = b.open_by_unid(n.unid()).unwrap();
        assert_eq!(b_copy.get_text("Subject").unwrap(), "v2");
        assert_eq!(b_copy.oid.seq, 2);
    }

    #[test]
    fn concurrent_edits_become_conflict_documents() {
        let (a, b, mut r) = pair();
        let n = doc(&a, "base");
        r.sync(&a, &b).unwrap();

        // Edit on both replicas between syncs.
        let mut na = a.open_by_unid(n.unid()).unwrap();
        na.set("Subject", Value::text("a-edit"));
        a.save(&mut na).unwrap();
        let mut nb = b.open_by_unid(n.unid()).unwrap();
        nb.set("Subject", Value::text("b-edit"));
        b.save(&mut nb).unwrap();

        let (into_a, _into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_a.conflicts, 1);
        // Converged: same main doc + same conflict doc on both sides.
        let (_, _) = r.sync(&a, &b).unwrap();
        assert!(docs_equal(&a, &b));
        assert_eq!(a.document_count().unwrap(), 2);
        // The conflict document is a response to the winner.
        let f =
            domino_formula::Formula::compile(&format!("SELECT {ITEM_CONFLICT} = \"1\"")).unwrap();
        let conflicts = a.search(&f, &EvalEnv::default()).unwrap();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].parent(), Some(n.unid()));
        // No update was lost: both texts exist somewhere.
        let main = a.open_by_unid(n.unid()).unwrap();
        let texts = [
            main.get_text("Subject").unwrap(),
            conflicts[0].get_text("Subject").unwrap(),
        ];
        assert!(texts.contains(&"a-edit".to_string()));
        assert!(texts.contains(&"b-edit".to_string()));
    }

    #[test]
    fn disjoint_field_edits_merge_when_enabled() {
        let (a, b, _) = pair();
        let mut r = Replicator::new(ReplicationOptions {
            merge_conflicts: true,
            ..ReplicationOptions::default()
        });
        let n = doc(&a, "base");
        r.sync(&a, &b).unwrap();
        let mut na = a.open_by_unid(n.unid()).unwrap();
        na.set("Owner", Value::text("alice"));
        a.save(&mut na).unwrap();
        let mut nb = b.open_by_unid(n.unid()).unwrap();
        nb.set("Due", Value::Number(99.0));
        b.save(&mut nb).unwrap();

        let (into_a, into_b) = r.sync(&a, &b).unwrap();
        // One direction performs the field-wise merge; the hash chain then
        // proves the merged revision descends from the other side's copy,
        // so the reverse direction applies it as a clean update instead of
        // re-deriving the merge.
        assert_eq!(into_a.merged, 1);
        assert_eq!(into_b.updated, 1);
        assert_eq!(into_a.conflicts + into_b.conflicts, 0);
        r.sync(&a, &b).unwrap();
        for db in [&a, &b] {
            let m = db.open_by_unid(n.unid()).unwrap();
            assert_eq!(m.get_text("Owner").unwrap(), "alice");
            assert_eq!(m.get("Due"), Some(&Value::Number(99.0)));
        }
        assert!(docs_equal(&a, &b));
        assert_eq!(a.document_count().unwrap(), 1, "no conflict doc");
    }

    #[test]
    fn same_field_edits_conflict_even_with_merge_enabled() {
        let (a, b, _) = pair();
        let mut r = Replicator::new(ReplicationOptions {
            merge_conflicts: true,
            ..ReplicationOptions::default()
        });
        let n = doc(&a, "base");
        r.sync(&a, &b).unwrap();
        let mut na = a.open_by_unid(n.unid()).unwrap();
        na.set("Subject", Value::text("a-side"));
        a.save(&mut na).unwrap();
        let mut nb = b.open_by_unid(n.unid()).unwrap();
        nb.set("Subject", Value::text("b-side"));
        b.save(&mut nb).unwrap();
        let (into_a, into_b) = r.sync(&a, &b).unwrap();
        // Each side may detect the same conflict independently (the
        // resolution is deterministic and idempotent).
        assert!(into_a.conflicts + into_b.conflicts >= 1);
        assert_eq!(into_a.merged + into_b.merged, 0);
        r.sync(&a, &b).unwrap();
        assert!(docs_equal(&a, &b));
        assert_eq!(a.document_count().unwrap(), 2);
    }

    #[test]
    fn deletions_propagate_as_stubs() {
        let (a, b, mut r) = pair();
        let n = doc(&a, "doomed");
        doc(&a, "keeper");
        r.sync(&a, &b).unwrap();
        assert_eq!(b.document_count().unwrap(), 2);
        a.delete(n.id).unwrap();
        let (_, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_b.deletions, 1);
        assert_eq!(b.document_count().unwrap(), 1);
        assert!(b.open_by_unid(n.unid()).is_err());
        // Stub exists on both sides and further syncs are stable.
        let (x, y) = r.sync(&a, &b).unwrap();
        assert!(!x.changed_anything() && !y.changed_anything());
    }

    #[test]
    fn newer_edit_beats_older_deletion() {
        let (a, b, mut r) = pair();
        let n = doc(&a, "contested");
        r.sync(&a, &b).unwrap();
        // Delete on A, then (later) edit on B.
        a.delete(n.id).unwrap();
        b.clock().advance(10_000);
        let mut nb = b.open_by_unid(n.unid()).unwrap();
        nb.set("Subject", Value::text("still alive"));
        b.save(&mut nb).unwrap();
        nb = b.open_by_unid(n.unid()).unwrap();
        nb.set("Subject", Value::text("alive v3"));
        b.save(&mut nb).unwrap(); // seq 3 > stub's seq 2

        r.sync(&a, &b).unwrap();
        r.sync(&a, &b).unwrap();
        for db in [&a, &b] {
            let doc = db.open_by_unid(n.unid()).unwrap();
            assert_eq!(doc.get_text("Subject").unwrap(), "alive v3");
        }
    }

    #[test]
    fn newer_deletion_beats_older_edit() {
        let (a, b, mut r) = pair();
        let n = doc(&a, "contested");
        r.sync(&a, &b).unwrap();
        // Edit on B first, then deletion on A with a later clock.
        let mut nb = b.open_by_unid(n.unid()).unwrap();
        nb.set("Subject", Value::text("edited"));
        b.save(&mut nb).unwrap();
        a.clock().advance(10_000);
        let na = a.open_by_unid(n.unid()).unwrap();
        // Bump the doc once so the deletion's seq outranks B's edit.
        let mut na2 = na.clone();
        na2.set("X", Value::Number(1.0));
        a.save(&mut na2).unwrap();
        a.delete(na2.id).unwrap(); // seq 3

        r.sync(&a, &b).unwrap();
        r.sync(&a, &b).unwrap();
        assert!(a.open_by_unid(n.unid()).is_err());
        assert!(b.open_by_unid(n.unid()).is_err());
    }

    #[test]
    fn field_level_ships_fewer_bytes_than_doc_level() {
        let (a, b, _) = pair();
        // A large document with many fields.
        let mut n = Note::document("Fat");
        for i in 0..20 {
            n.set(&format!("F{i}"), Value::text("x".repeat(200)));
        }
        a.save(&mut n).unwrap();
        let mut r_field = Replicator::new(ReplicationOptions::default());
        r_field.sync(&a, &b).unwrap();

        // Touch one field.
        let mut n2 = a.open_by_unid(n.unid()).unwrap();
        n2.set("F3", Value::text("y".repeat(200)));
        a.save(&mut n2).unwrap();
        let (_, field_rep) = r_field.sync(&a, &b).unwrap();

        // Same change, doc-level accounting.
        let mut n3 = a.open_by_unid(n.unid()).unwrap();
        n3.set("F4", Value::text("z".repeat(200)));
        a.save(&mut n3).unwrap();
        let mut r_doc = Replicator::new(ReplicationOptions {
            field_level: false,
            ..Default::default()
        });
        let (_, doc_rep) = r_doc.sync(&a, &b).unwrap();

        assert!(field_rep.bytes_shipped * 3 < doc_rep.bytes_shipped);
        assert!(docs_equal(&a, &b));
    }

    #[test]
    fn purge_safety_tracks_stale_peers() {
        let (a, b, mut r) = pair();
        a.set_purge_interval(1_000).unwrap();
        // No peers known yet: not provably safe.
        assert!(!r.purge_safety(&a).safe);
        doc(&a, "x");
        r.sync(&a, &b).unwrap();
        let fresh = r.purge_safety(&a);
        assert!(fresh.safe, "{fresh:?}");
        assert_eq!(fresh.stalest_peer, Some(b.instance_id()));
        // The peer goes quiet past the purge interval: unsafe to purge.
        a.clock().advance(5_000);
        let stale = r.purge_safety(&a);
        assert!(!stale.safe, "{stale:?}");
        assert!(stale.stalest_age >= 5_000);
        // A sync makes it safe again.
        r.sync(&a, &b).unwrap();
        assert!(r.purge_safety(&a).safe);
    }

    #[test]
    fn truncated_replication_ships_summaries_only() {
        let (a, b, _) = pair();
        let mut r = Replicator::new(ReplicationOptions {
            truncate_bodies: true,
            ..ReplicationOptions::default()
        });
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("headline"));
        n.set_body("Body", Value::RichText(vec![9u8; 50_000]));
        a.save(&mut n).unwrap();

        let (_, into_b) = r.sync(&a, &b).unwrap();
        assert!(
            into_b.bytes_shipped < 2_000,
            "shipped {} bytes for a 50KB body",
            into_b.bytes_shipped
        );
        let copy = b.open_by_unid(n.unid()).unwrap();
        assert_eq!(copy.get_text("Subject").unwrap(), "headline");
        assert!(copy.get("Body").is_none());
        assert!(copy.is_truncated());

        // Truncated copies are read-only (editing one could replicate the
        // missing body back as a deletion).
        let mut edit = copy.clone();
        edit.set("Subject", Value::text("tampered"));
        assert_eq!(b.save(&mut edit).unwrap_err().kind(), "invalid_argument");

        // The full copy at the source is untouched by further syncs.
        r.sync(&a, &b).unwrap();
        let original = a.open_by_unid(n.unid()).unwrap();
        assert_eq!(
            original.get("Body"),
            Some(&Value::RichText(vec![9u8; 50_000]))
        );
        assert!(!original.is_truncated());

        // A later full pull upgrades the truncated copy in place.
        let mut full = Replicator::new(ReplicationOptions::default());
        full.pull(&b, &a).unwrap();
        let upgraded = b.open_by_unid(n.unid()).unwrap();
        assert_eq!(
            upgraded.get("Body"),
            Some(&Value::RichText(vec![9u8; 50_000]))
        );
    }

    #[test]
    fn selective_replication_filters_documents() {
        let (a, b, _) = pair();
        let mut r = Replicator::new(ReplicationOptions {
            selective: Some(Formula::compile(r#"SELECT Priority = "high""#).unwrap()),
            ..ReplicationOptions::default()
        });
        for i in 0..6 {
            let mut n = Note::document("Task");
            n.set("Priority", Value::text(if i < 2 { "high" } else { "low" }));
            a.save(&mut n).unwrap();
        }
        let (_, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_b.added, 2);
        assert_eq!(into_b.skipped_selective, 4);
        assert_eq!(b.document_count().unwrap(), 2);
    }

    #[test]
    fn three_replicas_converge_through_a_hub() {
        let hub = Arc::new(
            Database::open_in_memory(
                DbConfig::new("D", ReplicaId(9), ReplicaId(100)),
                LogicalClock::new(),
            )
            .unwrap(),
        );
        let s1 = Arc::new(
            Database::open_in_memory(
                DbConfig::new("D", ReplicaId(9), ReplicaId(101)),
                LogicalClock::starting_at(Timestamp(10)),
            )
            .unwrap(),
        );
        let s2 = Arc::new(
            Database::open_in_memory(
                DbConfig::new("D", ReplicaId(9), ReplicaId(102)),
                LogicalClock::starting_at(Timestamp(20)),
            )
            .unwrap(),
        );
        doc(&s1, "from-s1");
        doc(&s2, "from-s2");
        let mut n = doc(&hub, "from-hub");
        let mut r1 = Replicator::new(ReplicationOptions::default());
        let mut r2 = Replicator::new(ReplicationOptions::default());
        // Two rounds of hub-spoke sync spread everything everywhere.
        for _ in 0..2 {
            r1.sync(&hub, &s1).unwrap();
            r2.sync(&hub, &s2).unwrap();
        }
        assert!(docs_equal(&hub, &s1));
        assert!(docs_equal(&hub, &s2));
        assert_eq!(s1.document_count().unwrap(), 3);
        // An update at the hub reaches both spokes in one round.
        n.set("Subject", Value::text("updated"));
        hub.save(&mut n).unwrap();
        r1.sync(&hub, &s1).unwrap();
        r2.sync(&hub, &s2).unwrap();
        assert_eq!(
            s2.open_by_unid(n.unid())
                .unwrap()
                .get_text("Subject")
                .unwrap(),
            "updated"
        );
    }

    #[test]
    fn interrupted_pull_resumes_from_cursor() {
        let (a, b, _) = pair();
        let mut r = Replicator::new(ReplicationOptions {
            batch: 4,
            ..ReplicationOptions::default()
        });
        for i in 0..20 {
            doc(&a, &format!("d{i}"));
        }
        // Messages 0-2 are the negotiation exchange (root, digests,
        // entries); 20 candidates / batch 4 = 5 batch messages after
        // that. Lose the third batch (message 5).
        let mut t = flaky([5]);
        let err = r.pull_via(&b, &a, &mut t).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(r.has_pending());
        let applied_so_far = r.cursor(&b, &a).unwrap().applied();
        assert_eq!(applied_so_far, 8, "two full batches landed");
        // The history must NOT record the unfinished pass.
        assert_eq!(
            r.history.last_pass(b.instance_id(), a.instance_id()),
            Timestamp::ZERO
        );
        // Resume: only the remaining candidates ship, and the cumulative
        // report covers the whole pass.
        let report = r.pull_via(&b, &a, &mut CleanTransport).unwrap();
        assert!(!r.has_pending());
        assert_eq!(report.candidates, 20);
        assert_eq!(report.added, 20);
        assert!(docs_equal(&a, &b));
        // The pair is converged: the next pull examines nothing.
        let (_, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_b.candidates, 0);
        assert!(!into_b.changed_anything());
    }

    #[test]
    fn interrupted_and_resumed_pull_matches_uninterrupted() {
        // Same source content pulled (a) cleanly and (b) with an
        // interruption at every batch boundary in turn: destinations must
        // come out identical.
        for fail_at in 0..5u64 {
            let (src, clean_dst, mut r_clean) = pair();
            for i in 0..18 {
                doc(&src, &format!("d{i}"));
            }
            src.delete(src.note_ids(None).unwrap()[0]).unwrap();
            r_clean.pull(&clean_dst, &src).unwrap();

            let faulty_dst = Arc::new(
                Database::open_in_memory(
                    DbConfig::new("Disc", ReplicaId(77), ReplicaId(3)),
                    LogicalClock::starting_at(domino_types::Timestamp(900)),
                )
                .unwrap(),
            );
            let mut r = Replicator::new(ReplicationOptions {
                batch: 4,
                ..ReplicationOptions::default()
            });
            let mut t = flaky([fail_at]);
            let _ = r.pull_via(&faulty_dst, &src, &mut t);
            r.pull_via(&faulty_dst, &src, &mut CleanTransport).unwrap();
            assert!(
                docs_equal(&clean_dst, &faulty_dst),
                "divergence after interruption at message {fail_at}"
            );
            assert_eq!(
                clean_dst.stubs().unwrap().len(),
                faulty_dst.stubs().unwrap().len()
            );
        }
    }

    #[test]
    fn pull_with_retry_rides_out_transient_faults() {
        let (a, b, _) = pair();
        let mut r = Replicator::new(ReplicationOptions {
            batch: 2,
            ..ReplicationOptions::default()
        });
        for i in 0..10 {
            doc(&a, &format!("d{i}"));
        }
        // Drop messages 0, 2 and 4: three interruptions, all retried.
        let mut t = flaky([0, 2, 4]);
        let policy = RetryPolicy::standard();
        let (report, stats) = r.pull_with_retry(&b, &a, &mut t, &policy).unwrap();
        assert_eq!(report.added, 10);
        assert_eq!(stats.attempts, 4, "first try + three retries");
        assert!(stats.backoff_ticks > 0);
        assert!(docs_equal(&a, &b));
    }

    #[test]
    fn exhausted_retry_parks_the_cursor() {
        let (a, b, _) = pair();
        let mut r = Replicator::new(ReplicationOptions {
            batch: 1,
            ..ReplicationOptions::default()
        });
        for i in 0..6 {
            doc(&a, &format!("d{i}"));
        }
        // Every message fails; a 3-attempt policy gives up.
        let mut t = flaky(0..100);
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::standard()
        };
        let err = r.pull_with_retry(&b, &a, &mut t, &policy).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(r.has_pending());
        // The link heals; a plain pull finishes the pass.
        let report = r.pull(&b, &a).unwrap();
        assert_eq!(report.added, 6);
        assert!(docs_equal(&a, &b));
    }

    #[test]
    fn negotiated_cleared_history_examines_nothing_when_converged() {
        // The negotiation headline: losing the history costs 16 bytes, not
        // a full re-enumeration — converged roots match and the pass ends
        // at round one.
        let (a, b, mut r) = pair();
        for i in 0..25 {
            doc(&a, &format!("d{i}"));
        }
        r.sync(&a, &b).unwrap();
        r.history.clear();
        let (into_a, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_a.candidates, 0, "{into_a:?}");
        assert_eq!(into_b.candidates, 0);
        assert_eq!(into_a.root_matched, 1);
        assert_eq!(into_a.negotiation_bytes, 16);
        assert!(docs_equal(&a, &b));
    }

    #[test]
    fn negotiation_enumerates_only_differing_notes() {
        let (a, b, mut r) = pair();
        for i in 0..40 {
            doc(&a, &format!("d{i}"));
        }
        r.sync(&a, &b).unwrap();
        // Touch 3 of 40 documents, then throw the history away: the
        // negotiated pull must still examine exactly the 3.
        let ids = a.note_ids(Some(NoteClass::Document)).unwrap();
        for id in ids.iter().take(3) {
            let mut n = a.open_note(*id).unwrap();
            n.set("Subject", Value::text("touched"));
            a.save(&mut n).unwrap();
        }
        r.history.clear();
        let report = r.pull(&b, &a).unwrap();
        assert_eq!(report.candidates, 3, "{report:?}");
        assert_eq!(report.updated, 3);
        assert!(report.buckets_differing >= 1);
        assert!(report.negotiation_bytes > 16, "descended past the root");
        assert!(docs_equal(&a, &b));
    }

    #[test]
    fn cleared_history_convergence_matches_with_history() {
        // Satellite check: a replica that lost its history converges to
        // the byte-identical state a with-history replica reaches.
        let (src, with_history, mut r1) = pair();
        for i in 0..15 {
            doc(&src, &format!("d{i}"));
        }
        src.delete(src.note_ids(Some(NoteClass::Document)).unwrap()[0])
            .unwrap();
        r1.pull(&with_history, &src).unwrap();
        // More churn, then a second incremental pull.
        for i in 0..5 {
            doc(&src, &format!("late{i}"));
        }
        r1.pull(&with_history, &src).unwrap();

        let amnesiac = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Disc", ReplicaId(77), ReplicaId(3)),
                LogicalClock::starting_at(domino_types::Timestamp(900)),
            )
            .unwrap(),
        );
        let mut r2 = Replicator::new(ReplicationOptions::default());
        r2.pull(&amnesiac, &src).unwrap();
        r2.history.clear();
        r2.abandon_pending();
        let after_clear = r2.pull(&amnesiac, &src).unwrap();
        assert!(!after_clear.changed_anything(), "{after_clear:?}");
        assert!(docs_equal(&with_history, &amnesiac));
        assert_eq!(
            with_history.stubs().unwrap().len(),
            amnesiac.stubs().unwrap().len()
        );
    }

    #[test]
    fn deep_edit_runs_apply_cleanly() {
        // The A2 anomaly, eliminated: with the unbounded hash chain a
        // replica any number of edits behind still proves clean descent.
        let (a, b, mut r) = pair();
        let n = doc(&a, "v0");
        r.sync(&a, &b).unwrap();
        for i in 0..128 {
            let mut d = a.open_by_unid(n.unid()).unwrap();
            d.set("Subject", Value::text(format!("v{}", i + 1)));
            a.save(&mut d).unwrap();
        }
        let (_, into_b) = r.sync(&a, &b).unwrap();
        assert_eq!(into_b.conflicts, 0, "{into_b:?}");
        assert_eq!(into_b.updated, 1);
        assert_eq!(
            b.open_by_unid(n.unid())
                .unwrap()
                .get_text("Subject")
                .unwrap(),
            format!("v{}", 128)
        );
        assert_eq!(a.document_count().unwrap(), 1, "no conflict documents");
    }

    #[test]
    fn edits_at_one_stamp_resolve_alike_in_either_pull_order() {
        // Two instances, one clock start, one edit each at the same
        // `(seq, seq_time)`: only the head hash tells the copies apart.
        let run = |a_first: bool| {
            let [a, b] = [1, 2].map(|i| {
                Database::open_in_memory(
                    DbConfig::new("Disc", ReplicaId(77), ReplicaId(i)),
                    LogicalClock::new(),
                )
                .unwrap()
            });
            let mut r = Replicator::new(ReplicationOptions::default());
            let n = doc(&a, "base");
            r.pull(&b, &a).unwrap();
            a.clock().observe(b.clock().peek());
            b.clock().observe(a.clock().peek());
            let mut stamps = Vec::new();
            for (db, text) in [(&a, "a-edit"), (&b, "b-edit")] {
                let mut d = db.open_by_unid(n.unid()).unwrap();
                d.set("Subject", Value::text(text));
                db.save(&mut d).unwrap();
                stamps.push(d.oid);
            }
            assert_eq!(stamps[0], stamps[1], "both edits carry one stamp");
            let (first, second) = if a_first { (&a, &b) } else { (&b, &a) };
            r.pull(first, second).unwrap();
            r.pull(second, first).unwrap();
            assert_eq!(a.merkle_root(), b.merkle_root());
            assert!(docs_equal(&a, &b));
            all_docs(&a)
        };
        let a_first = run(true);
        assert_eq!(a_first, run(false));
        // One winner and one `$Conflict` document, both edits kept.
        let subjects: Vec<&str> = a_first.iter().map(|(_, _, s)| s.as_str()).collect();
        assert_eq!(a_first.len(), 2, "{a_first:?}");
        assert!(subjects.contains(&"a-edit") && subjects.contains(&"b-edit"));
    }

    #[test]
    fn forget_instance_prunes_history_and_cursors() {
        let (a, b, mut r) = pair();
        doc(&a, "x");
        r.sync(&a, &b).unwrap();
        assert_eq!(r.history.len(), 2, "one entry per direction");
        // Park a cursor for the pair.
        for i in 0..10 {
            doc(&a, &format!("more{i}"));
        }
        let mut t = flaky(0..100);
        let _ = r.pull_via(&b, &a, &mut t);
        assert_eq!(r.pending_count(), 1);
        r.forget_instance(a.instance_id());
        assert_eq!(r.history.len(), 0);
        assert_eq!(r.pending_count(), 0);
        assert!(!r.has_pending());
        // The pair still converges from scratch afterwards.
        r.sync(&a, &b).unwrap();
        assert!(docs_equal(&a, &b));
    }
}
