//! Conflict documents.
//!
//! When both replicas edited a note between syncs, the copy with the
//! lower `(seq, seq_time, head hash)` loses
//! (`domino_core::revision::winner_key`). The loser is preserved as a
//! *conflict document*: a response to the winner carrying a `$Conflict`
//! item — no update is ever silently discarded.
//!
//! Both sides of a conflicting pair detect the conflict independently, so
//! the conflict document's identity must be *deterministic*: its UNID is
//! derived from the original note's UNID and the loser's version stamp.
//! Both replicas therefore mint the *same* conflict document, which then
//! deduplicates by UNID when it replicates.

use domino_core::{Note, ITEM_CONFLICT};
use domino_types::{ContentHasher, Oid, Timestamp, Unid, Value};

/// Deterministic UNID for the conflict document preserving `loser`.
pub fn conflict_unid(original: Unid, loser_seq: u32, loser_time: Timestamp) -> Unid {
    let mut h = ContentHasher::new();
    h.update_u128(original.0);
    h.update(&loser_seq.to_le_bytes());
    h.update_u64(loser_time.0);
    h.update(b"$Conflict");
    Unid(h.finish().0)
}

/// Build the conflict document for `loser` (a copy of the losing revision,
/// parented under the surviving note).
pub fn make_conflict_document(loser: &Note) -> Note {
    let mut doc = loser.clone();
    doc.id = domino_types::NoteId::NONE;
    let unid = conflict_unid(loser.unid(), loser.oid.seq, loser.oid.seq_time);
    doc.oid = Oid {
        unid,
        seq: 1,
        seq_time: loser.oid.seq_time,
    };
    doc.set_parent(loser.unid());
    doc.set(ITEM_CONFLICT, Value::text("1"));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_types::NoteId;

    fn loser() -> Note {
        let mut n = Note::document("Memo");
        n.id = NoteId(5);
        n.oid = Oid {
            unid: Unid(42),
            seq: 3,
            seq_time: Timestamp(30),
        };
        n.set("Subject", Value::text("my edit"));
        n
    }

    #[test]
    fn conflict_unid_deterministic_and_distinct() {
        let a = conflict_unid(Unid(42), 3, Timestamp(30));
        let b = conflict_unid(Unid(42), 3, Timestamp(30));
        assert_eq!(a, b);
        // Pinned: stores already hold conflict documents under this UNID.
        assert_eq!(a, Unid(0x9d35f71fc72ee3afb7214d3e27b60528));
        assert_ne!(a, conflict_unid(Unid(42), 4, Timestamp(30)));
        assert_ne!(a, conflict_unid(Unid(42), 3, Timestamp(31)));
        assert_ne!(a, conflict_unid(Unid(43), 3, Timestamp(30)));
        assert_ne!(a, Unid(42));
    }

    #[test]
    fn conflict_document_shape() {
        let l = loser();
        let c = make_conflict_document(&l);
        assert!(c.is_draft() || c.id.is_none());
        assert!(c.is_conflict());
        assert_eq!(c.parent(), Some(Unid(42)));
        assert_eq!(c.get_text("Subject").unwrap(), "my edit");
        assert_ne!(c.unid(), l.unid());
        assert_eq!(c.oid.seq, 1);
        // Built twice (on two replicas), it is the same document.
        let c2 = make_conflict_document(&l);
        assert_eq!(c2.unid(), c.unid());
        assert_eq!(c2.oid, c.oid);
    }
}
