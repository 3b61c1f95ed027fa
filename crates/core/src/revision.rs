//! Content-addressed revision history, and the one module that reads it.
//!
//! Every committed save appends one entry to the note's
//! [`ITEM_REVISION_HASHES`] item: the [`ContentHash`] of the new revision
//! (a digest over the note's canonical items plus its parent revision
//! hashes) and the revision's sequence time. The item holds the note's
//! full *ancestor set*, oldest first, ending with the current head — for
//! linear histories a chain, after a merge the deterministic union of
//! both parents' sets plus the merge revision itself. Because entries are
//! never dropped, a replica can prove descent at **any** edit depth.
//!
//! Replication asks this module, and only this module, the four
//! questions it needs about two copies of a note: are they the
//! [`same_revision`], does one [`descends_from`] the other, when did they
//! last agree ([`merge_base_time`]), and which survives a conflict
//! ([`winner_key`]). The replicator (a cluster push is one of its passes)
//! and the simulator call these and parse no chain themselves.
//!
//! The hash is a pure function of history: it covers the note's UNID,
//! sequence stamp, class, canonical item encodings, and parent hashes —
//! never the replica-local [`domino_types::NoteId`] or any instance
//! state — so every replica holding the same copy computes the same
//! head, and the digests are directly comparable across the wire (the
//! basis of Merkle negotiation, [`crate::merkle`]).

use std::collections::HashSet;

use domino_types::{ContentHash, ContentHasher, Item, ItemFlags, Oid, Timestamp, Value};

use crate::note::Note;

/// Reserved item carrying the content-addressed revision chain.
pub const ITEM_REVISION_HASHES: &str = "$RevisionHashes";

/// Parsed revision chain: `(hash, seq_time)` per known ancestor, oldest
/// first, ending with the current head. Empty for hand-built notes that
/// never passed through `Database::save`.
pub fn revision_chain(note: &Note) -> Vec<(ContentHash, Timestamp)> {
    chain_entries(note)
        .iter()
        .filter_map(|s| parse_entry(s))
        .collect()
}

/// The chain item's raw `hash|time` entries, borrowed from the note.
fn chain_entries(note: &Note) -> &[String] {
    match note.get(ITEM_REVISION_HASHES) {
        Some(Value::TextList(entries)) => entries,
        Some(Value::Text(entry)) => std::slice::from_ref(entry),
        _ => &[],
    }
}

/// One `hash|time` chain entry, both in hex.
fn parse_entry(entry: &str) -> Option<(ContentHash, Timestamp)> {
    let (hash, time) = entry.split_once('|')?;
    Some((
        ContentHash::from_hex(hash)?,
        Timestamp(u64::from_str_radix(time, 16).ok()?),
    ))
}

/// The note's current head hash, if it carries a chain: its last
/// well-formed entry, parsed from the end.
pub fn head_hash(note: &Note) -> Option<ContentHash> {
    chain_entries(note)
        .iter()
        .rev()
        .find_map(|s| parse_entry(s))
        .map(|(h, _)| h)
}

/// Are two copies of a note the *same revision*? Same OID and same head
/// hash: sequence stamps can coincide across replicas (two edits at the
/// same logical tick), the content-addressed head cannot.
pub fn same_revision(a: &Note, b: &Note) -> bool {
    a.oid == b.oid && head_hash(a) == head_hash(b)
}

/// Does `a` descend from `b`, i.e. is `b`'s head in `a`'s ancestor set?
/// Exact at any edit depth. A note without a chain (hand-built, never
/// saved) proves nothing and descends from nothing.
pub fn descends_from(a: &Note, b: &Note) -> bool {
    head_hash(b).is_some_and(|bh| {
        chain_entries(a)
            .iter()
            .filter_map(|s| parse_entry(s))
            .any(|(h, _)| h == bh)
    })
}

/// Sequence time of the latest revision two divergent copies share — the
/// merge base a field-wise merge compares item stamps against. `None`
/// when the histories share nothing (or either chain is missing).
pub fn merge_base_time(a: &Note, b: &Note) -> Option<Timestamp> {
    let in_a: HashSet<ContentHash> = revision_chain(a).iter().map(|(h, _)| *h).collect();
    revision_chain(b)
        .into_iter()
        .filter(|(h, _)| in_a.contains(h))
        .map(|(_, t)| t)
        .max()
}

/// Total order picking the surviving copy of a conflict: higher sequence
/// wins, then later sequence time, then the higher head hash — so two
/// replicas that edited at the same logical instant still agree on one
/// winner.
pub fn winner_key(n: &Note) -> (u32, Timestamp, u128) {
    let head = head_hash(n).unwrap_or(ContentHash::NONE);
    (n.oid.seq, n.oid.seq_time, head.0)
}

/// Content hash of the note's current state given its parent revision
/// hashes. Covers UNID, sequence stamp, class, and every item's canonical
/// encoding *except* the chain item itself (which records the result).
/// Items are hashed in name order so storage order never matters.
pub fn content_hash_of(note: &Note, parents: &[ContentHash]) -> ContentHash {
    let mut h = ContentHasher::new();
    h.update(b"rev-v1");
    h.update_u128(note.unid().0);
    h.update_u64(note.oid.seq as u64);
    h.update_u64(note.oid.seq_time.0);
    h.update(&[note.class.code()]);
    let mut items: Vec<&Item> = note
        .items_raw()
        .iter()
        .filter(|it| !it.name.eq_ignore_ascii_case(ITEM_REVISION_HASHES))
        .collect();
    items.sort_by(|a, b| {
        let b_lower = b.name.bytes().map(|c| c.to_ascii_lowercase());
        a.name.bytes().map(|c| c.to_ascii_lowercase()).cmp(b_lower)
    });
    let mut buf = Vec::new();
    for it in items {
        buf.clear();
        it.encode(&mut buf);
        h.update_u64(buf.len() as u64);
        h.update(&buf);
    }
    h.update_u64(parents.len() as u64);
    for p in parents {
        h.update_u128(p.0);
    }
    h.finish()
}

/// Replace the note's chain item wholesale.
fn set_chain(note: &mut Note, entries: &[(ContentHash, Timestamp)]) {
    let encoded: Vec<String> = entries
        .iter()
        .map(|(h, t)| format!("{}|{:016x}", h.to_hex(), t.0))
        .collect();
    note.set(ITEM_REVISION_HASHES, Value::TextList(encoded));
}

/// Append a new head entry to the note's chain. The stored entries are
/// kept as they are, not parsed and formatted again, so the append costs
/// the same at any edit depth.
pub fn push_head(note: &mut Note, hash: ContentHash, time: Timestamp) {
    let stored = note
        .items_raw_mut()
        .iter_mut()
        .find(|it| it.name.eq_ignore_ascii_case(ITEM_REVISION_HASHES))
        .filter(|it| !it.flags.contains(ItemFlags::DELETED))
        .map(|it| std::mem::replace(&mut it.value, Value::TextList(Vec::new())));
    let mut entries = match stored {
        Some(Value::TextList(entries)) => entries,
        Some(Value::Text(entry)) => vec![entry],
        _ => Vec::new(),
    };
    entries.push(format!("{}|{:016x}", hash.to_hex(), time.0));
    note.set(ITEM_REVISION_HASHES, Value::TextList(entries));
}

/// The deterministic ancestor-set union for a merge: the winner's entries
/// in order, then every loser entry not already present, in the loser's
/// order.
fn merged_chain(winner: &Note, loser: &Note) -> Vec<(ContentHash, Timestamp)> {
    let mut out = revision_chain(winner);
    let seen: HashSet<ContentHash> = out.iter().map(|(h, _)| *h).collect();
    for entry in revision_chain(loser) {
        if !seen.contains(&entry.0) {
            out.push(entry);
        }
    }
    out
}

/// Give `merged`, a field-wise merge of `winner` and `other` already
/// stamped with its new OID, its history: the union of both parents'
/// ancestor sets, then its own head hashed over the merged items and both
/// parent heads. Both replicas resolve winner and other alike, so both
/// mint the identical chain — and the identical Merkle head.
pub fn record_merge(merged: &mut Note, winner: &Note, other: &Note) {
    set_chain(merged, &merged_chain(winner, other));
    let parents: Vec<ContentHash> = [head_hash(winner), head_hash(other)]
        .into_iter()
        .flatten()
        .collect();
    let head = content_hash_of(merged, &parents);
    push_head(merged, head, merged.oid.seq_time);
}

/// Head hash of a deletion stub: derived from the stub's OID (which
/// replicates verbatim), so every replica that applied the same deletion
/// agrees on the entry.
pub fn stub_head(oid: &Oid) -> ContentHash {
    let mut h = ContentHasher::new();
    h.update(b"stub-v1");
    h.update_u128(oid.unid.0);
    h.update_u64(oid.seq as u64);
    h.update_u64(oid.seq_time.0);
    h.finish()
}

/// The head hash a note contributes to the Merkle summary. Normally the
/// chain head; truncated (summary-only) copies mix in a marker so a
/// partial copy never digest-matches the full revision (a full pull must
/// still be able to upgrade it). Notes without a chain (hand-built) fall
/// back to a digest of the OID — also replica-independent.
pub fn merkle_head(note: &Note) -> ContentHash {
    let base = match head_hash(note) {
        Some(h) => h,
        None => {
            let mut h = ContentHasher::new();
            h.update(b"oid-v1");
            h.update_u128(note.unid().0);
            h.update_u64(note.oid.seq as u64);
            h.update_u64(note.oid.seq_time.0);
            h.finish()
        }
    };
    if note.is_truncated() {
        let mut h = ContentHasher::new();
        h.update(b"truncated-v1");
        h.update_u128(base.0);
        h.finish()
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_types::{ItemFlags, NoteId, Unid};

    fn note_at(unid: u128, seq: u32, time: u64) -> Note {
        let mut n = Note::document("Memo");
        n.id = NoteId(7);
        n.oid = Oid {
            unid: Unid(unid),
            seq,
            seq_time: Timestamp(time),
        };
        n
    }

    #[test]
    fn chain_roundtrip_and_head() {
        let mut n = note_at(1, 1, 10);
        assert!(revision_chain(&n).is_empty());
        let h1 = content_hash_of(&n, &[]);
        push_head(&mut n, h1, Timestamp(10));
        let h2 = content_hash_of(&n, &[h1]);
        push_head(&mut n, h2, Timestamp(20));
        assert_eq!(
            revision_chain(&n),
            vec![(h1, Timestamp(10)), (h2, Timestamp(20))]
        );
        assert_eq!(head_hash(&n), Some(h2));
    }

    #[test]
    fn content_hashes_match_the_pinned_digests() {
        // Digests computed by the `to_ascii_lowercase` sort this module
        // used before its comparator stopped allocating: mixed-case, `_`
        // and non-ASCII names, a body item, a tombstone and two parents.
        let mut n = note_at(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210, 4, 0x5_0000);
        n.set("subject", Value::text("Golden"));
        n.set("Body_b", Value::text("b"));
        n.set("BODY_a", Value::text("a"));
        n.set_body("Attach", Value::RichText(vec![1, 2, 3]));
        n.set("Zeta", Value::Number(2.5));
        n.set("_under", Value::text_list(["x", "y"]));
        n.set_with_flags("Readers", Value::text("CN=Ann"), ItemFlags::READERS);
        n.set("Ünï", Value::text("non-ascii"));
        n.remove("Zeta");
        let h1 = content_hash_of(&n, &[]);
        assert_eq!(h1.0, 0xf15ca99e70d3762859f6a6ebec739b3c);
        push_head(&mut n, h1, Timestamp(0x4_0000));
        let h2 = content_hash_of(&n, &[ContentHash(0xaaaa), ContentHash(0xbbbb_cccc)]);
        assert_eq!(h2.0, 0xe9846c1cad5bceff26b6782a81762878);
        push_head(&mut n, h2, Timestamp(0x5_0000));
        assert_eq!(head_hash(&n), Some(h2));
        assert_eq!(merkle_head(&n), h2);
    }

    #[test]
    fn head_is_the_last_well_formed_entry() {
        let mut n = note_at(1, 1, 10);
        n.set(
            ITEM_REVISION_HASHES,
            Value::text_list(["a|1", "b|2", "not an entry"]),
        );
        assert_eq!(head_hash(&n), Some(ContentHash(0xb)));
        assert_eq!(
            revision_chain(&n).last(),
            Some(&(ContentHash(0xb), Timestamp(2)))
        );
        n.set(ITEM_REVISION_HASHES, Value::text("c|3"));
        assert_eq!(head_hash(&n), Some(ContentHash(0xc)));
        n.set(ITEM_REVISION_HASHES, Value::Number(1.0));
        assert_eq!(head_hash(&n), None);
    }

    #[test]
    fn a_save_appends_to_the_stored_chain_as_it_is() {
        let db = crate::Database::open_in_memory(
            crate::DbConfig::new("T", domino_types::ReplicaId(1), domino_types::ReplicaId(2)),
            domino_types::LogicalClock::new(),
        )
        .unwrap();
        let mut n = Note::document("Memo");
        db.save(&mut n).unwrap();
        // The same entry in uppercase hex: it parses, but is not canonical.
        let first = chain_entries(&n)[0].to_uppercase();
        assert_ne!(first, chain_entries(&n)[0]);
        n.set(ITEM_REVISION_HASHES, Value::text(first.as_str()));
        let parent = head_hash(&n).unwrap();
        db.save(&mut n).unwrap();
        let stored = db.open_by_unid(n.unid()).unwrap();
        assert_eq!(chain_entries(&stored)[0], first);
        assert_eq!(chain_entries(&stored).len(), 2);
        assert!(revision_chain(&stored).iter().any(|(h, _)| *h == parent));
    }

    #[test]
    fn hash_ignores_note_id_and_item_order() {
        let mut a = note_at(5, 2, 30);
        a.set("B", Value::text("2"));
        a.set("A", Value::text("1"));
        let mut b = note_at(5, 2, 30);
        b.id = NoteId(99); // different local id
        b.set("A", Value::text("1"));
        b.set("B", Value::text("2")); // different insertion order
        assert_eq!(content_hash_of(&a, &[]), content_hash_of(&b, &[]));
    }

    #[test]
    fn hash_covers_items_and_parents() {
        let base = note_at(5, 2, 30);
        let mut changed = base.clone();
        changed.set("X", Value::text("new"));
        assert_ne!(content_hash_of(&base, &[]), content_hash_of(&changed, &[]));
        assert_ne!(
            content_hash_of(&base, &[]),
            content_hash_of(&base, &[ContentHash(1)])
        );
    }

    #[test]
    fn merge_base_is_the_newest_shared_entry() {
        let mut a = note_at(1, 3, 30);
        let mut b = note_at(1, 3, 30);
        let shared_old = (ContentHash(10), Timestamp(10));
        let shared_new = (ContentHash(20), Timestamp(20));
        set_chain(
            &mut a,
            &[shared_old, shared_new, (ContentHash(31), Timestamp(30))],
        );
        set_chain(
            &mut b,
            &[shared_old, shared_new, (ContentHash(32), Timestamp(30))],
        );
        assert_eq!(merge_base_time(&a, &b), Some(shared_new.1));
    }

    #[test]
    fn ancestry_decisions_read_the_chain() {
        let mut base = note_at(1, 1, 10);
        let h1 = content_hash_of(&base, &[]);
        push_head(&mut base, h1, Timestamp(10));
        let mut child = base.clone();
        child.oid.bump(Timestamp(20));
        child.set("Subject", Value::text("edit"));
        let h2 = content_hash_of(&child, &[h1]);
        push_head(&mut child, h2, Timestamp(20));

        assert!(same_revision(&base, &base.clone()));
        assert!(!same_revision(&base, &child));
        assert!(descends_from(&child, &base) && descends_from(&child, &child));
        assert!(!descends_from(&base, &child));
        assert!(!descends_from(&child, &note_at(1, 1, 10)), "chainless");
        assert_eq!(merge_base_time(&child, &base), Some(Timestamp(10)));

        // Same stamp, different content: not the same revision, and the
        // head hash alone breaks the winner tie, alike from either side.
        let mut twin = base.clone();
        twin.oid.bump(Timestamp(20));
        twin.set("Subject", Value::text("other edit"));
        let h3 = content_hash_of(&twin, &[h1]);
        push_head(&mut twin, h3, Timestamp(20));
        assert_eq!(twin.oid, child.oid);
        assert!(!same_revision(&twin, &child));
        assert_eq!(winner_key(&twin).2, h3.0);
        assert_ne!(winner_key(&twin), winner_key(&child));
    }

    #[test]
    fn merged_chain_is_a_deterministic_union() {
        let mut a = note_at(1, 3, 30);
        let mut b = note_at(1, 3, 30);
        let shared = (ContentHash(1), Timestamp(1));
        let a_only = (ContentHash(2), Timestamp(2));
        let b_only = (ContentHash(3), Timestamp(3));
        set_chain(&mut a, &[shared, a_only]);
        set_chain(&mut b, &[shared, b_only]);
        assert_eq!(merged_chain(&a, &b), vec![shared, a_only, b_only]);
    }

    #[test]
    fn truncated_copy_has_distinct_merkle_head() {
        let mut n = note_at(9, 1, 10);
        n.set_body("Body", Value::RichText(vec![1u8; 64]));
        let h = content_hash_of(&n, &[]);
        push_head(&mut n, h, Timestamp(10));
        let full_head = merkle_head(&n);
        let mut truncated = n.clone();
        truncated.truncate_to_summary();
        assert_ne!(merkle_head(&truncated), full_head);
        assert_eq!(head_hash(&truncated), Some(h), "chain survives truncation");
    }

    #[test]
    fn stub_head_depends_only_on_oid() {
        let oid = Oid {
            unid: Unid(4),
            seq: 2,
            seq_time: Timestamp(40),
        };
        assert_eq!(stub_head(&oid), stub_head(&oid));
        let mut other = oid;
        other.seq = 3;
        assert_ne!(stub_head(&oid), stub_head(&other));
    }
}
