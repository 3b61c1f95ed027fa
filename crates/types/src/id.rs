//! Identifiers: note ids, universal ids, originator ids, replica ids.

use crate::time::Timestamp;
use std::fmt;

/// A database-local note id.
///
/// In Domino this is the offset of the note's entry in the NSF record
/// relocation vector; it is *not* stable across replicas — two replicas of
/// the same database may give the same document different `NoteId`s. Code
/// that crosses replicas must use [`Unid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NoteId(pub u32);

impl NoteId {
    /// Reserved id meaning "no note" (parent of a top-level document, etc.).
    pub const NONE: NoteId = NoteId(0);

    pub fn is_none(self) -> bool {
        self == NoteId::NONE
    }
}

impl fmt::Display for NoteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NT{:08X}", self.0)
    }
}

/// Identifies one replica instance of a database (and doubles as the node
/// id that seeds UNID generation so ids never collide across replicas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u64);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RP{:016X}", self.0)
    }
}

/// A *universal* note id: identical for the same document in every replica.
///
/// Domino builds UNIDs from the creating replica's id plus the creation
/// timestamp; we do the same (64 bits of creator replica, 48 bits of
/// creation tick, 16 bits of per-tick counter), which keeps generation
/// deterministic under the simulated clock while guaranteeing uniqueness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Unid(pub u128);

impl Unid {
    /// Construct the UNID for a note created on `replica` at `ts` with a
    /// per-timestamp disambiguation counter.
    pub fn generate(replica: ReplicaId, ts: Timestamp, counter: u16) -> Unid {
        let hi = (replica.0 as u128) << 64;
        let mid = ((ts.0 & 0xFFFF_FFFF_FFFF) as u128) << 16;
        Unid(hi | mid | counter as u128)
    }

    /// The replica that originally created the note.
    pub fn creator(self) -> ReplicaId {
        ReplicaId((self.0 >> 64) as u64)
    }

    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    pub fn from_bytes(b: [u8; 16]) -> Unid {
        Unid(u128::from_be_bytes(b))
    }
}

impl fmt::Debug for Unid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Unid({:032X})", self.0)
    }
}

impl fmt::Display for Unid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032X}", self.0)
    }
}

/// The *originator id*: a UNID plus the version stamp replication compares.
///
/// Every successful update of a note bumps `seq` and records the update time
/// in `seq_time`. Two replicas compare `(seq, seq_time)` to decide which
/// copy of a note is newer and whether the histories diverged (a conflict).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Oid {
    /// The universal id of the note.
    pub unid: Unid,
    /// Update sequence number; 1 on creation, +1 per saved revision.
    pub seq: u32,
    /// Timestamp of the revision that produced `seq`.
    pub seq_time: Timestamp,
}

impl Oid {
    pub fn new(unid: Unid, ts: Timestamp) -> Oid {
        Oid {
            unid,
            seq: 1,
            seq_time: ts,
        }
    }

    /// Record another saved revision at time `ts`.
    pub fn bump(&mut self, ts: Timestamp) {
        self.seq += 1;
        self.seq_time = ts;
    }

    /// The total order replication uses to pick a conflict *winner*: higher
    /// sequence number wins; ties broken by later sequence time, then by
    /// UNID creator so the result is identical on both replicas.
    pub fn winner_key(&self) -> (u32, Timestamp, u128) {
        (self.seq, self.seq_time, self.unid.0)
    }
}

/// What kind of note this is. Domino stores *everything* — documents, forms,
/// views, the ACL, the icon — as notes of different classes in one NSF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NoteClass {
    /// An ordinary data document.
    Document,
    /// A form design note (schema/template for documents).
    Form,
    /// A view design note (stored query + collation definition).
    View,
    /// The database access-control list.
    Acl,
    /// Database header/info note (title, replica id, purge interval...).
    Info,
    /// Agent/automation design note.
    Agent,
}

impl NoteClass {
    pub const ALL: [NoteClass; 6] = [
        NoteClass::Document,
        NoteClass::Form,
        NoteClass::View,
        NoteClass::Acl,
        NoteClass::Info,
        NoteClass::Agent,
    ];

    pub fn code(self) -> u8 {
        match self {
            NoteClass::Document => 1,
            NoteClass::Form => 2,
            NoteClass::View => 3,
            NoteClass::Acl => 4,
            NoteClass::Info => 5,
            NoteClass::Agent => 6,
        }
    }

    pub fn from_code(c: u8) -> Option<NoteClass> {
        Some(match c {
            1 => NoteClass::Document,
            2 => NoteClass::Form,
            3 => NoteClass::View,
            4 => NoteClass::Acl,
            5 => NoteClass::Info,
            6 => NoteClass::Agent,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unid_roundtrips_through_bytes() {
        let u = Unid::generate(ReplicaId(0xDEAD_BEEF), Timestamp(123_456), 7);
        assert_eq!(Unid::from_bytes(u.to_bytes()), u);
    }

    #[test]
    fn unid_embeds_creator() {
        let u = Unid::generate(ReplicaId(42), Timestamp(9), 0);
        assert_eq!(u.creator(), ReplicaId(42));
    }

    #[test]
    fn unids_distinct_across_counter_time_replica() {
        let a = Unid::generate(ReplicaId(1), Timestamp(5), 0);
        let b = Unid::generate(ReplicaId(1), Timestamp(5), 1);
        let c = Unid::generate(ReplicaId(1), Timestamp(6), 0);
        let d = Unid::generate(ReplicaId(2), Timestamp(5), 0);
        let all = [a, b, c, d];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn oid_bump_increments_and_stamps() {
        let mut oid = Oid::new(Unid(1), Timestamp(10));
        assert_eq!(oid.seq, 1);
        oid.bump(Timestamp(20));
        assert_eq!(oid.seq, 2);
        assert_eq!(oid.seq_time, Timestamp(20));
    }

    #[test]
    fn winner_key_orders_by_seq_then_time() {
        let older = Oid {
            unid: Unid(9),
            seq: 2,
            seq_time: Timestamp(50),
        };
        let newer = Oid {
            unid: Unid(1),
            seq: 3,
            seq_time: Timestamp(10),
        };
        assert!(newer.winner_key() > older.winner_key());
        let tie_late = Oid {
            unid: Unid(1),
            seq: 2,
            seq_time: Timestamp(60),
        };
        assert!(tie_late.winner_key() > older.winner_key());
    }

    #[test]
    fn note_class_codes_roundtrip() {
        for c in NoteClass::ALL {
            assert_eq!(NoteClass::from_code(c.code()), Some(c));
        }
        assert_eq!(NoteClass::from_code(0), None);
        assert_eq!(NoteClass::from_code(99), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NoteId(0xAB).to_string(), "NT000000AB");
        assert_eq!(ReplicaId(1).to_string(), "RP0000000000000001");
        assert_eq!(Unid(0xF).to_string().len(), 32);
    }

    #[test]
    fn note_id_none() {
        assert!(NoteId::NONE.is_none());
        assert!(!NoteId(3).is_none());
    }
}
