//! Clustering: event-driven push replication (Domino R5 clusters).
//!
//! Scheduled replication leaves a staleness window — a failover replica is
//! only as fresh as the last replication pass. Cluster mates instead push
//! every change to each other *as it commits*, so a failover loses at most
//! the in-flight event. E12 measures exactly this difference.
//!
//! The cluster replicator subscribes to each member's change events and
//! applies them to the other members immediately. A mate takes a pushed
//! note only if it descends from the mate's own copy: an echo is the same
//! revision and is skipped, so propagation terminates, and a copy that
//! diverged is left to the scheduled replicator, which keeps the losing
//! edit as a `$Conflict` document instead of overwriting it.
//!
//! # The failover-window contract
//!
//! While a cluster is [paused](Cluster::pause) (a mate unreachable),
//! events enter a **bounded catch-up queue** instead of being pushed, and
//! [`Cluster::resume`] drains the queue in commit order — so a paused
//! window shorter than the queue capacity loses *nothing*. Once the queue
//! overflows, the oldest queued events are evicted and counted in
//! [`ClusterStats::dropped_while_paused`]; from then on
//! [`ClusterStats::lossy`] reports `true` and the cluster alone no longer
//! guarantees convergence — a scheduled replication pass (the
//! [`Replicator`](crate::Replicator)) must repair the gap, exactly as in
//! Domino, where cluster replication is best-effort and the replicator is
//! the backstop. Operators should treat `lossy() == true` after a failover
//! as "run (or wait for) a scheduled pull before trusting this mate".

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use domino_core::revision::descends_from;
use domino_core::{ChangeEvent, Database};
use domino_obs as obs;
use domino_types::Result;

/// Registry handles for cluster push telemetry.
struct Metrics {
    pushed: &'static obs::Counter,
    suppressed: &'static obs::Counter,
    dropped: &'static obs::Counter,
    queued: &'static obs::Counter,
    drained: &'static obs::Counter,
    overflow: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        pushed: obs::counter("Cluster.Events.Pushed"),
        suppressed: obs::counter("Cluster.Events.Suppressed"),
        dropped: obs::counter("Cluster.Events.DroppedWhilePaused"),
        queued: obs::counter("Cluster.CatchUp.Queued"),
        drained: obs::counter("Cluster.CatchUp.Drained"),
        overflow: obs::counter("Cluster.CatchUp.Overflow"),
    })
}

/// Counters for cluster replication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Events pushed to peers.
    pub pushed: u64,
    /// Pushes skipped because the peer already held this revision (an
    /// echo), a newer one, or one that diverged from it.
    pub suppressed: u64,
    /// Events lost to catch-up queue overflow while paused. Nonzero means
    /// the failover window exceeded the queue: see [`ClusterStats::lossy`].
    pub dropped_while_paused: u64,
    /// Events parked in the catch-up queue while paused.
    pub queued_while_paused: u64,
    /// Queued events replayed to peers by [`Cluster::resume`].
    pub drained: u64,
}

impl ClusterStats {
    /// Has this cluster ever lost an event (catch-up queue overflow during
    /// a pause)? When true, event push alone no longer guarantees the
    /// mates converge — schedule a replication pass to repair before
    /// trusting a failover member.
    pub fn lossy(&self) -> bool {
        self.dropped_while_paused > 0
    }
}

/// Default bound on the catch-up queue (events held during a pause).
pub const DEFAULT_CATCH_UP_CAPACITY: usize = 1024;

struct ClusterInner {
    members: Vec<Weak<Database>>,
    paused: bool,
    catch_up: VecDeque<(usize, ChangeEvent)>,
    capacity: usize,
    stats: ClusterStats,
}

/// A cluster of replicas kept in lock-step by event-driven push.
pub struct Cluster {
    inner: Arc<Mutex<ClusterInner>>,
}

impl Cluster {
    /// Wire the members together with the default catch-up queue bound.
    /// All members must share a replica id.
    pub fn join(members: &[Arc<Database>]) -> Result<Cluster> {
        Cluster::join_with_capacity(members, DEFAULT_CATCH_UP_CAPACITY)
    }

    /// Wire the members together, holding at most `capacity` events in the
    /// catch-up queue while paused (0 = queue nothing: every paused event
    /// is dropped and the cluster turns lossy immediately).
    pub fn join_with_capacity(members: &[Arc<Database>], capacity: usize) -> Result<Cluster> {
        if let Some(first) = members.first() {
            for m in members {
                if m.replica_id() != first.replica_id() {
                    return Err(domino_types::DominoError::Replication(
                        "cluster members must share a replica id".into(),
                    ));
                }
            }
        }
        let inner = Arc::new(Mutex::new(ClusterInner {
            members: members.iter().map(Arc::downgrade).collect(),
            paused: false,
            catch_up: VecDeque::new(),
            capacity,
            stats: ClusterStats::default(),
        }));
        for (i, member) in members.iter().enumerate() {
            let inner = inner.clone();
            member.subscribe(Arc::new(move |event: &ChangeEvent| {
                push_to_peers(&inner, i, event);
            }));
        }
        Ok(Cluster { inner })
    }

    /// Stop pushing (simulates a cluster mate going unreachable). Events
    /// made while paused queue up to the catch-up capacity.
    pub fn pause(&self) {
        let mut g = self.inner.lock();
        g.paused = true;
        obs::emit(
            obs::Event::new(
                obs::EventKind::Replica,
                obs::Severity::Warning,
                "Cluster.Paused",
            )
            .with("members", g.members.len())
            .with("capacity", g.capacity),
        );
    }

    /// Resume pushing and drain the catch-up queue in commit order.
    /// Returns how many queued events were replayed. If the queue
    /// overflowed during the pause ([`ClusterStats::lossy`]), the drained
    /// tail is still applied but a scheduled replication pass is required
    /// to repair the evicted head.
    pub fn resume(&self) -> u64 {
        let backlog: Vec<(usize, ChangeEvent)> = {
            let mut g = self.inner.lock();
            g.paused = false;
            g.catch_up.drain(..).collect()
        };
        let n = backlog.len() as u64;
        for (origin, event) in backlog {
            push_to_peers(&self.inner, origin, &event);
        }
        if n > 0 {
            self.inner.lock().stats.drained += n;
            m().drained.add(n);
        }
        let lossy = self.inner.lock().stats.lossy();
        obs::emit(
            obs::Event::new(
                obs::EventKind::Replica,
                if lossy {
                    obs::Severity::Warning
                } else {
                    obs::Severity::Info
                },
                "Cluster.Resumed",
            )
            .with("drained", n)
            .with("lossy", u64::from(lossy)),
        );
        n
    }

    /// Events currently parked in the catch-up queue.
    pub fn backlog(&self) -> usize {
        self.inner.lock().catch_up.len()
    }

    /// A snapshot of this cluster's counters.
    pub fn stats(&self) -> ClusterStats {
        self.inner.lock().stats
    }
}

/// Announce the catch-up queue going lossy. Only the *first* eviction gets
/// an event — a long outage evicts once per commit, and a thousand copies
/// of "still overflowing" would bury the one that matters.
fn emit_overflow(stats: &ClusterStats, capacity: usize) {
    if stats.dropped_while_paused == 1 {
        obs::emit(
            obs::Event::new(
                obs::EventKind::Replica,
                obs::Severity::Warning,
                "Cluster.CatchUp.Overflow",
            )
            .with("capacity", capacity),
        );
    }
}

fn push_to_peers(inner: &Arc<Mutex<ClusterInner>>, origin: usize, event: &ChangeEvent) {
    // Snapshot under lock; apply outside so nested events can re-enter.
    let targets = {
        let mut g = inner.lock();
        if g.paused {
            // Unreachable mate: park the event for catch-up instead of
            // losing it. A full queue evicts the oldest event (the tail
            // is the freshest state) and the cluster becomes lossy.
            if g.capacity == 0 {
                g.stats.dropped_while_paused += 1;
                m().dropped.inc();
                m().overflow.inc();
                emit_overflow(&g.stats, g.capacity);
                return;
            }
            if g.catch_up.len() >= g.capacity {
                g.catch_up.pop_front();
                g.stats.dropped_while_paused += 1;
                m().dropped.inc();
                m().overflow.inc();
                emit_overflow(&g.stats, g.capacity);
            }
            g.catch_up.push_back((origin, event.clone()));
            g.stats.queued_while_paused += 1;
            m().queued.inc();
            return;
        }
        g.members.clone()
    };
    for (i, peer) in targets.iter().enumerate() {
        if i == origin {
            continue;
        }
        let Some(peer) = peer.upgrade() else { continue };
        let applied = apply_event(&peer, event);
        let mut g = inner.lock();
        if applied {
            g.stats.pushed += 1;
            m().pushed.inc();
        } else {
            g.stats.suppressed += 1;
            m().suppressed.inc();
        }
    }
}

/// Apply one event to a peer; false if the peer was left as it was.
fn apply_event(peer: &Database, event: &ChangeEvent) -> bool {
    match event {
        ChangeEvent::Saved { new, .. } => {
            if let Ok(existing) = peer.open_by_unid(new.unid()) {
                // An echo descends from itself; a copy that diverged from
                // ours (or is newer) is left to the scheduled replicator,
                // which keeps the loser as a `$Conflict` document.
                if descends_from(&existing, new) || !descends_from(new, &existing) {
                    return false;
                }
            }
            peer.save_replicated(new.clone()).is_ok()
        }
        ChangeEvent::Deleted { stub, .. } => {
            if let Some(id) = peer.id_of_unid(stub.oid.unid).ok().flatten() {
                if let Ok(local_stub) = peer.open_stub(id) {
                    if local_stub.oid.winner_key() >= stub.oid.winner_key() {
                        return false; // already deleted
                    }
                }
            }
            matches!(peer.apply_remote_deletion(stub), Ok(Some(_)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::{DbConfig, Note};
    use domino_types::{LogicalClock, ReplicaId, Timestamp, Value};

    fn trio() -> (Vec<Arc<Database>>, Cluster) {
        trio_with_capacity(DEFAULT_CATCH_UP_CAPACITY)
    }

    fn trio_with_capacity(cap: usize) -> (Vec<Arc<Database>>, Cluster) {
        let members: Vec<Arc<Database>> = (0..3)
            .map(|i| {
                Arc::new(
                    Database::open_in_memory(
                        DbConfig::new("C", ReplicaId(5), ReplicaId(200 + i)),
                        LogicalClock::starting_at(Timestamp(i * 7)),
                    )
                    .unwrap(),
                )
            })
            .collect();
        let cluster = Cluster::join_with_capacity(&members, cap).unwrap();
        (members, cluster)
    }

    #[test]
    fn saves_push_to_all_members_immediately() {
        let (members, cluster) = trio();
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("hot"));
        members[0].save(&mut n).unwrap();
        for m in &members[1..] {
            let copy = m.open_by_unid(n.unid()).unwrap();
            assert_eq!(copy.get_text("Subject").unwrap(), "hot");
        }
        // 2 first-hop pushes; re-pushes from receivers were suppressed.
        let stats = cluster.stats();
        assert!(stats.pushed >= 2);
        assert!(stats.suppressed >= 2);
    }

    #[test]
    fn updates_and_deletes_propagate() {
        let (members, _cluster) = trio();
        let mut n = Note::document("Memo");
        members[0].save(&mut n).unwrap();
        let mut copy = members[1].open_by_unid(n.unid()).unwrap();
        copy.set("Subject", Value::text("edited on 1"));
        members[1].save(&mut copy).unwrap();
        assert_eq!(
            members[2]
                .open_by_unid(n.unid())
                .unwrap()
                .get_text("Subject")
                .unwrap(),
            "edited on 1"
        );
        let id2 = members[2].id_of_unid(n.unid()).unwrap().unwrap();
        members[2].delete(id2).unwrap();
        for m in &members {
            assert!(m.open_by_unid(n.unid()).is_err(), "deleted everywhere");
        }
    }

    #[test]
    fn paused_events_queue_and_resume_drains_them() {
        let (members, cluster) = trio();
        let mut n = Note::document("Memo");
        members[0].save(&mut n).unwrap();
        cluster.pause();
        n.set("Subject", Value::text("parked"));
        members[0].save(&mut n).unwrap();
        // While paused: peers are stale, the event is parked, not lost.
        let copy = members[1].open_by_unid(n.unid()).unwrap();
        assert!(copy.get_text("Subject").is_none());
        assert_eq!(cluster.backlog(), 1);
        assert!(!cluster.stats().lossy());
        // Resume replays the backlog in order: no replication pass needed.
        let drained = cluster.resume();
        assert!(drained >= 1);
        assert_eq!(cluster.backlog(), 0);
        assert_eq!(
            members[1]
                .open_by_unid(n.unid())
                .unwrap()
                .get_text("Subject")
                .unwrap(),
            "parked"
        );
        let stats = cluster.stats();
        assert_eq!(stats.queued_while_paused, 1);
        assert_eq!(stats.drained, 1);
        assert_eq!(stats.dropped_while_paused, 0);
    }

    #[test]
    fn overflow_turns_lossy_and_scheduled_replication_repairs() {
        let (members, cluster) = trio_with_capacity(2);
        cluster.pause();
        let mut notes = Vec::new();
        for i in 0..5 {
            let mut n = Note::document("Memo");
            n.set("Subject", Value::text(format!("m{i}")));
            members[0].save(&mut n).unwrap();
            notes.push(n);
        }
        // Capacity 2: three oldest events evicted, flagged lossy.
        assert_eq!(cluster.backlog(), 2);
        assert!(cluster.stats().lossy());
        assert_eq!(cluster.stats().dropped_while_paused, 3);
        cluster.resume();
        // The drained tail arrived...
        assert!(members[1].open_by_unid(notes[4].unid()).is_ok());
        // ...but the evicted head did not: the documented contract is that
        // a scheduled replication pass repairs a lossy window.
        assert!(members[1].open_by_unid(notes[0].unid()).is_err());
        let mut r = crate::Replicator::new(crate::ReplicationOptions::default());
        r.sync(&members[0], &members[1]).unwrap();
        for n in &notes {
            assert!(members[1].open_by_unid(n.unid()).is_ok());
        }
    }

    #[test]
    fn edits_on_both_mates_during_a_pause_survive_resume_and_replication() {
        let members: Vec<Arc<Database>> = (0..2)
            .map(|i| {
                Arc::new(
                    Database::open_in_memory(
                        DbConfig::new("C", ReplicaId(5), ReplicaId(300 + i)),
                        LogicalClock::starting_at(Timestamp(i * 7)),
                    )
                    .unwrap(),
                )
            })
            .collect();
        let cluster = Cluster::join(&members).unwrap();
        let mut n = Note::document("Memo");
        members[0].save(&mut n).unwrap();
        cluster.pause();
        for (m, text) in members.iter().zip(["edit on A", "edit on B"]) {
            let mut copy = m.open_by_unid(n.unid()).unwrap();
            copy.set("Subject", Value::text(text));
            m.save(&mut copy).unwrap();
        }
        cluster.resume();
        let mut r = crate::Replicator::new(crate::ReplicationOptions::default());
        r.sync(&members[0], &members[1]).unwrap();
        r.sync(&members[0], &members[1]).unwrap();
        // In the winner or in a `$Conflict` document, never overwritten.
        for m in &members {
            let mut subjects: Vec<String> = m
                .note_ids(Some(domino_types::NoteClass::Document))
                .unwrap()
                .into_iter()
                .filter_map(|id| m.open_note(id).ok()?.get_text("Subject"))
                .collect();
            subjects.sort();
            assert_eq!(subjects, ["edit on A", "edit on B"]);
        }
    }

    #[test]
    fn zero_capacity_drops_everything_while_paused() {
        let (members, cluster) = trio_with_capacity(0);
        cluster.pause();
        let mut n = Note::document("Memo");
        members[0].save(&mut n).unwrap();
        assert_eq!(cluster.backlog(), 0);
        assert!(cluster.stats().lossy());
        assert_eq!(cluster.resume(), 0);
        assert!(members[1].open_by_unid(n.unid()).is_err());
    }
}
