//! Replication history: when each pair last completed a pass.
//!
//! After each successful pull the replicator records the source's clock
//! reading from the *start* of that pull. Candidates do not depend on it
//! (a pull finds them by Merkle diff); it answers the administrator's
//! question behind [`Replicator::purge_safety`](crate::Replicator::purge_safety):
//! has every peer replicated recently enough that purging deletion stubs
//! cannot resurrect a document (E8)?
//!
//! History lives with the replicator instance (a substitution from
//! Domino, which persists it in the database header; see DESIGN.md §2).
//! Clearing it, like Domino's "clear replication history", costs nothing
//! but the purge-safety evidence.

use std::collections::HashMap;

use domino_types::{ReplicaId, Timestamp};

/// Last completed pass per `(destination instance, source instance)`
/// pair. One replicator may serve many replica pairs; each direction of
/// each pair keeps its own entry (as each Domino server does per database
/// pair).
#[derive(Debug, Clone, Default)]
pub struct ReplicationHistory {
    last_pull: HashMap<(ReplicaId, ReplicaId), Timestamp>,
}

impl ReplicationHistory {
    /// An empty history: no pair has completed a pass.
    pub fn new() -> ReplicationHistory {
        ReplicationHistory::default()
    }

    /// Start of the last completed pull into `dst` from `src` (ZERO =
    /// never synced).
    pub fn last_pass(&self, dst: ReplicaId, src: ReplicaId) -> Timestamp {
        self.last_pull
            .get(&(dst, src))
            .copied()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Record a successful pull into `dst` from `src` that started at
    /// `when` (on the source's clock).
    pub fn record(&mut self, dst: ReplicaId, src: ReplicaId, when: Timestamp) {
        let e = self.last_pull.entry((dst, src)).or_insert(Timestamp::ZERO);
        if when > *e {
            *e = when;
        }
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        self.last_pull.clear();
    }

    /// Recorded `(dst, src)` pairs — the history's memory footprint. A
    /// replicator serving a long-lived hub accumulates one entry per
    /// direction per peer; [`forget`](ReplicationHistory::forget) prunes
    /// the entries of decommissioned instances so the map stays bounded
    /// by the *live* peer set.
    pub fn len(&self) -> usize {
        self.last_pull.len()
    }

    /// True when no pulls have been recorded.
    pub fn is_empty(&self) -> bool {
        self.last_pull.is_empty()
    }

    /// Drop every entry involving `instance` (as destination or source),
    /// exactly like clearing history but scoped to one peer.
    pub fn forget(&mut self, instance: ReplicaId) {
        self.last_pull
            .retain(|(dst, src), _| *dst != instance && *src != instance);
    }

    /// All (dst, src) pairs with recorded history.
    pub fn pairs(&self) -> Vec<(ReplicaId, ReplicaId)> {
        let mut v: Vec<(ReplicaId, ReplicaId)> = self.last_pull.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_pair_has_zero_last_pass() {
        let h = ReplicationHistory::new();
        assert_eq!(h.last_pass(ReplicaId(9), ReplicaId(8)), Timestamp::ZERO);
    }

    #[test]
    fn record_advances_monotonically() {
        let mut h = ReplicationHistory::new();
        h.record(ReplicaId(1), ReplicaId(2), Timestamp(100));
        assert_eq!(h.last_pass(ReplicaId(1), ReplicaId(2)), Timestamp(100));
        h.record(ReplicaId(1), ReplicaId(2), Timestamp(50));
        assert_eq!(
            h.last_pass(ReplicaId(1), ReplicaId(2)),
            Timestamp(100),
            "never regresses"
        );
        h.record(ReplicaId(1), ReplicaId(2), Timestamp(200));
        assert_eq!(h.last_pass(ReplicaId(1), ReplicaId(2)), Timestamp(200));
    }

    #[test]
    fn directions_are_independent() {
        let mut h = ReplicationHistory::new();
        h.record(ReplicaId(1), ReplicaId(2), Timestamp(100));
        assert_eq!(h.last_pass(ReplicaId(2), ReplicaId(1)), Timestamp::ZERO);
    }

    #[test]
    fn destinations_are_independent() {
        let mut h = ReplicationHistory::new();
        h.record(ReplicaId(1), ReplicaId(9), Timestamp(100));
        assert_eq!(
            h.last_pass(ReplicaId(2), ReplicaId(9)),
            Timestamp::ZERO,
            "a second destination pulling from the same source starts fresh"
        );
    }

    #[test]
    fn forget_prunes_one_instance_only() {
        let mut h = ReplicationHistory::new();
        h.record(ReplicaId(1), ReplicaId(2), Timestamp(100));
        h.record(ReplicaId(2), ReplicaId(1), Timestamp(100));
        h.record(ReplicaId(1), ReplicaId(3), Timestamp(100));
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        h.forget(ReplicaId(2));
        assert_eq!(h.len(), 1, "both directions involving 2 dropped");
        assert_eq!(h.last_pass(ReplicaId(1), ReplicaId(3)), Timestamp(100));
        assert_eq!(h.last_pass(ReplicaId(1), ReplicaId(2)), Timestamp::ZERO);
        assert_eq!(h.last_pass(ReplicaId(2), ReplicaId(1)), Timestamp::ZERO);
    }

    #[test]
    fn clear_resets() {
        let mut h = ReplicationHistory::new();
        h.record(ReplicaId(1), ReplicaId(2), Timestamp(100));
        h.record(ReplicaId(2), ReplicaId(1), Timestamp(100));
        assert_eq!(h.pairs().len(), 2);
        h.clear();
        assert_eq!(h.last_pass(ReplicaId(1), ReplicaId(2)), Timestamp::ZERO);
        assert!(h.pairs().is_empty());
    }
}
