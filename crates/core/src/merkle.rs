//! Per-database Merkle summary over UNID space: `root → buckets →
//! (unid, head hash)`.
//!
//! Every UNID (live note or deletion stub) hashes into one of
//! [`MERKLE_BUCKETS`] buckets. A bucket's digest is the XOR of
//! `mix128(unid, head)` over its entries — order-independent, so an
//! entry update is O(1): XOR the old contribution out, the new one in.
//! The root combines the non-empty buckets' digests the same way. The
//! tree is maintained incrementally on every commit, in the same
//! critical section that publishes the MVCC version (commit order =
//! digest order), so two databases have equal roots exactly when they
//! hold the same `(unid, head hash)` set.
//!
//! Replication negotiates off this tree: the destination ships its root
//! (16 bytes); on mismatch, its bucket digests; the source descends only
//! into differing buckets and enumerates only entries whose head hash
//! actually differs. A cold-start pair (cleared replication history)
//! diffs in O(buckets + changed) instead of scanning every candidate.

use domino_types::{mix128, ContentHash, Unid};

/// Number of buckets in the summary tree. 256 keeps the bucket-digest
/// exchange to a few KB while leaving each bucket small enough that
/// descending into one enumerates only a sliver of the database.
pub const MERKLE_BUCKETS: u32 = 256;

/// Bucket index for a UNID. The UNID's high 64 bits are the creating
/// instance id, so the raw value is badly skewed — hash it first.
pub fn bucket_of(unid: Unid) -> u32 {
    (mix128(unid.0, 0x6b756265) % MERKLE_BUCKETS as u128) as u32
}

/// The incremental Merkle summary. One per database, updated under the
/// database's commit path.
pub struct MerkleSummary {
    /// XOR-combined `mix128(unid, head)` per bucket; 0 = empty.
    digests: Vec<u128>,
    /// The entries behind each digest, ascending by UNID: a bucket is
    /// read whole (negotiation's round 3), so it lives in one allocation.
    entries: Vec<Vec<(Unid, ContentHash)>>,
    root: u128,
    len: usize,
}

impl MerkleSummary {
    /// An empty summary (all buckets empty, root 0).
    pub fn new() -> MerkleSummary {
        MerkleSummary {
            digests: vec![0; MERKLE_BUCKETS as usize],
            entries: vec![Vec::new(); MERKLE_BUCKETS as usize],
            root: 0,
            len: 0,
        }
    }

    /// The root digest: equal across two databases iff their
    /// `(unid, head)` sets are equal.
    pub fn root(&self) -> ContentHash {
        ContentHash(self.root)
    }

    /// Entries currently summarized.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are summarized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Digests of the non-empty buckets, ascending by index.
    pub fn bucket_digests(&self) -> Vec<(u32, ContentHash)> {
        self.digests
            .iter()
            .enumerate()
            .filter(|(_, d)| **d != 0)
            .map(|(i, d)| (i as u32, ContentHash(*d)))
            .collect()
    }

    /// The `(unid, head)` entries of one bucket, ascending by UNID.
    pub fn bucket_entries(&self, bucket: u32) -> Vec<(Unid, ContentHash)> {
        self.entries
            .get(bucket as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Head currently recorded for a UNID.
    pub fn head(&self, unid: Unid) -> Option<ContentHash> {
        let entries = &self.entries[bucket_of(unid) as usize];
        let at = entries.binary_search_by_key(&unid, |(u, _)| *u).ok()?;
        Some(entries[at].1)
    }

    /// Set (or with `None`, remove) the head for a UNID, updating the
    /// bucket digest and root in O(1).
    pub fn set_head(&mut self, unid: Unid, head: Option<ContentHash>) {
        let b = bucket_of(unid) as usize;
        let old_term = self.bucket_term(b);
        let entries = &mut self.entries[b];
        let found = entries.binary_search_by_key(&unid, |(u, _)| *u);
        match (head, found) {
            (Some(h), Ok(at)) => {
                let prev = std::mem::replace(&mut entries[at].1, h);
                self.digests[b] ^= mix128(unid.0, prev.0) ^ mix128(unid.0, h.0);
            }
            (Some(h), Err(at)) => {
                entries.insert(at, (unid, h));
                self.digests[b] ^= mix128(unid.0, h.0);
                self.len += 1;
            }
            (None, Ok(at)) => {
                let (_, prev) = entries.remove(at);
                self.digests[b] ^= mix128(unid.0, prev.0);
                self.len -= 1;
            }
            (None, Err(_)) => {}
        }
        let new_term = self.bucket_term(b);
        self.root ^= old_term ^ new_term;
    }

    /// A bucket's contribution to the root (0 when empty, else bound to
    /// its index so two buckets with equal digests don't cancel).
    fn bucket_term(&self, bucket: usize) -> u128 {
        let d = self.digests[bucket];
        if d == 0 {
            0
        } else {
            mix128(bucket as u128, d)
        }
    }
}

impl Default for MerkleSummary {
    fn default() -> MerkleSummary {
        MerkleSummary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(pairs: &[(u128, u128)]) -> MerkleSummary {
        let mut m = MerkleSummary::new();
        for (u, h) in pairs {
            m.set_head(Unid(*u), Some(ContentHash(*h)));
        }
        m
    }

    #[test]
    fn root_is_order_independent_and_content_sensitive() {
        let a = filled(&[(1, 10), (2, 20), (3, 30)]);
        let b = filled(&[(3, 30), (1, 10), (2, 20)]);
        assert_eq!(a.root(), b.root());
        assert_eq!(a.len(), 3);
        let c = filled(&[(1, 10), (2, 21), (3, 30)]);
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn update_and_remove_restore_prior_root() {
        let mut m = filled(&[(1, 10), (2, 20)]);
        let before = m.root();
        m.set_head(Unid(2), Some(ContentHash(99)));
        assert_ne!(m.root(), before);
        m.set_head(Unid(2), Some(ContentHash(20)));
        assert_eq!(m.root(), before);
        m.set_head(Unid(2), None);
        m.set_head(Unid(2), Some(ContentHash(20)));
        assert_eq!(m.root(), before);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn empty_root_is_zero_and_removal_returns_to_it() {
        let mut m = MerkleSummary::new();
        assert!(m.is_empty());
        assert_eq!(m.root(), ContentHash(0));
        m.set_head(Unid(7), Some(ContentHash(70)));
        assert_ne!(m.root(), ContentHash(0));
        m.set_head(Unid(7), None);
        assert_eq!(m.root(), ContentHash(0));
        assert!(m.is_empty());
    }

    #[test]
    fn differing_buckets_localize_the_difference() {
        let a = filled(&[(1, 10), (2, 20), (300, 44)]);
        let b = filled(&[(1, 10), (2, 21), (300, 44)]);
        let da: std::collections::HashMap<u32, ContentHash> =
            a.bucket_digests().into_iter().collect();
        let db: std::collections::HashMap<u32, ContentHash> =
            b.bucket_digests().into_iter().collect();
        let changed = bucket_of(Unid(2));
        for (idx, d) in &da {
            if *idx == changed {
                assert_ne!(db.get(idx), Some(d));
            } else {
                assert_eq!(db.get(idx), Some(d));
            }
        }
        // Entries of the differing bucket expose exactly the changed unid.
        let ea: std::collections::HashMap<Unid, ContentHash> =
            a.bucket_entries(changed).into_iter().collect();
        let eb: std::collections::HashMap<Unid, ContentHash> =
            b.bucket_entries(changed).into_iter().collect();
        assert_ne!(ea.get(&Unid(2)), eb.get(&Unid(2)));
    }

    #[test]
    fn buckets_hold_exactly_the_current_entries_in_unid_order() {
        let mut m = MerkleSummary::new();
        let mut model = std::collections::BTreeMap::new();
        for step in 0..4000u128 {
            // 7919 is prime to 300: every UNID is visited, out of order.
            let unid = Unid(step * 7919 % 300);
            let head = (step % 7 != 0).then_some(ContentHash(step));
            m.set_head(unid, head);
            match head {
                Some(h) => model.insert(unid, h),
                None => model.remove(&unid),
            };
        }
        assert_eq!(m.len(), model.len());
        let mut fresh = MerkleSummary::new();
        for b in 0..MERKLE_BUCKETS {
            let entries = m.bucket_entries(b);
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            for (unid, head) in entries {
                assert_eq!(bucket_of(unid), b);
                assert_eq!(model.get(&unid), Some(&head));
                assert_eq!(m.head(unid), Some(head));
                fresh.set_head(unid, Some(head));
            }
        }
        assert_eq!(m.root(), fresh.root(), "digests follow the entries");
    }

    #[test]
    fn bucket_of_spreads_same_creator_unids() {
        // UNIDs from one creator share their high bits; hashing must
        // still spread them across buckets.
        let buckets: std::collections::HashSet<u32> = (0..64u128)
            .map(|i| bucket_of(Unid((42 << 64) | i)))
            .collect();
        assert!(buckets.len() > 16, "got {} distinct buckets", buckets.len());
    }
}
