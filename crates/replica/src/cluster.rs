//! Clustering (Domino R5): event-driven replication among cluster mates.
//!
//! Scheduled replication leaves a staleness window — a failover replica is
//! only as fresh as the last replication pass. Cluster mates instead
//! replicate every change *as it commits*, so a failover loses at most the
//! in-flight change. E12 measures exactly this difference.
//!
//! A cluster push is a pull of what changed, not a second replicator. Each
//! mate's change feed marks the UNIDs it commits dirty for every other
//! mate; the cluster then pulls each mate from each source for exactly its
//! dirty UNIDs through the pass a scheduled [`Replicator`] runs, so one rule
//! decides adds, updates, deletion stubs and `$Conflict` documents whatever
//! triggered the pass. An echo is the same revision and changes nothing,
//! so propagation ends. A pull that fails keeps its UNIDs dirty.
//!
//! While a cluster is [paused](Cluster::pause) (a mate unreachable) the
//! dirty sets only grow. They hold UNIDs, not events, so they are bounded
//! by the database rather than by the pause, and [`Cluster::resume`] pulls
//! them all.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use domino_core::{ChangeEvent, Database, Subscription};
use domino_obs as obs;
use domino_types::{DominoError, Result, Unid};

use crate::Replicator;

struct ClusterInner {
    members: Vec<Arc<Database>>,
    paused: bool,
    /// `dirty[from][to]`: UNIDs committed on mate `from` that mate `to`
    /// has yet to pull.
    dirty: Vec<Vec<HashSet<Unid>>>,
}

/// A cluster of replicas kept in lock-step by event-driven replication.
/// Dropping it stops the pushes.
pub struct Cluster {
    inner: Arc<Mutex<ClusterInner>>,
    _feeds: Vec<Subscription>,
}

impl Cluster {
    /// Wire the members together. All members must share a replica id.
    pub fn join(members: &[Arc<Database>]) -> Result<Cluster> {
        if members
            .iter()
            .any(|m| m.replica_id() != members[0].replica_id())
        {
            return Err(DominoError::Replication(
                "cluster members must share a replica id".into(),
            ));
        }
        let n = members.len();
        let inner = Arc::new(Mutex::new(ClusterInner {
            members: members.to_vec(),
            paused: false,
            dirty: vec![vec![HashSet::new(); n]; n],
        }));
        let mut feeds = Vec::with_capacity(n);
        for (from, member) in members.iter().enumerate() {
            let inner = inner.clone();
            feeds.push(member.subscribe(move |events: &[ChangeEvent]| {
                let changed = events.iter().map(|event| match event {
                    ChangeEvent::Saved { new, .. } => new.unid(),
                    ChangeEvent::Deleted { stub, .. } => stub.oid.unid,
                });
                for (to, set) in inner.lock().dirty[from].iter_mut().enumerate() {
                    if to != from {
                        set.extend(changed.clone());
                    }
                }
                push(&inner);
            }));
        }
        Ok(Cluster {
            inner,
            _feeds: feeds,
        })
    }

    /// Stop pushing (simulates a cluster mate going unreachable). Changes
    /// made while paused stay dirty until [`Cluster::resume`].
    pub fn pause(&self) {
        self.inner.lock().paused = true;
        obs::emit(obs::Event::new(
            obs::EventKind::Replica,
            obs::Severity::Warning,
            "Cluster.Paused",
        ));
    }

    /// Resume pushing and pull every dirty UNID. Returns how many distinct
    /// UNIDs were dirty.
    pub fn resume(&self) -> u64 {
        let dirty = self.backlog() as u64;
        self.inner.lock().paused = false;
        push(&self.inner);
        obs::emit(
            obs::Event::new(
                obs::EventKind::Replica,
                obs::Severity::Info,
                "Cluster.Resumed",
            )
            .with("dirty", dirty)
            .with("backlog", self.backlog()),
        );
        dirty
    }

    /// Distinct UNIDs some mate has yet to pull: changes made while
    /// paused, or kept by a pull that failed.
    pub fn backlog(&self) -> usize {
        let g = self.inner.lock();
        HashSet::<&Unid>::from_iter(g.dirty.iter().flatten().flatten()).len()
    }
}

/// Unless the cluster is paused, pull every non-empty dirty set `to ←
/// from` for exactly its UNIDs. The lock is not held across a pull: the
/// pull's commits re-enter here, on this thread, through the
/// destination's own observer.
fn push(inner: &Mutex<ClusterInner>) {
    let (members, work) = {
        let mut g = inner.lock();
        if g.paused {
            return;
        }
        let mut work = Vec::new();
        for (from, row) in g.dirty.iter_mut().enumerate() {
            for (to, set) in row.iter_mut().enumerate() {
                if !set.is_empty() {
                    work.push((from, to, std::mem::take(set)));
                }
            }
        }
        (g.members.clone(), work)
    };
    for (from, to, unids) in work {
        let (src, dst) = (&members[from], &members[to]);
        match Replicator::pull_changed(dst, src, unids.iter().copied().collect()) {
            Ok(r) => {
                let pushed = r.added + r.updated + r.merged + r.conflicts + r.deletions;
                obs::counter!("Cluster.Events.Pushed").add(pushed);
                obs::counter!("Cluster.Events.Suppressed").add(r.candidates - pushed);
            }
            Err(_) => inner.lock().dirty[from][to].extend(unids),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::{DbConfig, Note};
    use domino_types::{LogicalClock, ReplicaId, Timestamp, Value};

    fn trio() -> (Vec<Arc<Database>>, Cluster) {
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
        let cluster = Cluster::join(&members).unwrap();
        (members, cluster)
    }

    #[test]
    fn saves_push_to_all_members_immediately() {
        let (members, _cluster) = trio();
        let pushed = obs::counter("Cluster.Events.Pushed");
        let suppressed = obs::counter("Cluster.Events.Suppressed");
        let (pushed_before, suppressed_before) = (pushed.get(), suppressed.get());
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("hot"));
        members[0].save(&mut n).unwrap();
        for m in &members[1..] {
            let copy = m.open_by_unid(n.unid()).unwrap();
            assert_eq!(copy.get_text("Subject").unwrap(), "hot");
        }
        // 2 first-hop pushes; re-pushes from receivers were suppressed.
        assert!(pushed.get() - pushed_before >= 2);
        assert!(suppressed.get() - suppressed_before >= 2);
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
        assert_eq!(drained, 1);
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
}
