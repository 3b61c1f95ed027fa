//! Content hashing for the revision store.
//!
//! Every saved revision of a note is identified by a [`ContentHash`]: a
//! 128-bit digest over the note's canonical item encoding plus the hashes
//! of its parent revision(s). The hash is a pure function of *history* —
//! it mixes in nothing replica-local (no [`crate::NoteId`], no instance
//! state) — so two replicas holding the same copy of a note always agree
//! on its head hash, and identical edit schedules replayed against
//! identical clocks produce identical chains.
//!
//! The digest is FNV-1a widened to 128 bits. That is not a cryptographic
//! hash; it is the one hasher the engine uses for revision heads, Merkle
//! nodes and conflict UNIDs, it needs no external crates, and at
//! 128 bits accidental collisions are out of reach for any database this
//! engine can hold. Swapping in a cryptographic digest later only means
//! replacing [`ContentHasher`]'s mixing step.

use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A 128-bit content digest identifying one revision of a note (or one
/// Merkle summary node). The zero hash is reserved as "no revision".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// The reserved "no revision" value.
    pub const NONE: ContentHash = ContentHash(0);

    /// True if this is the reserved empty hash.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Render as fixed-width lowercase hex (32 chars).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the fixed-width hex form produced by [`ContentHash::to_hex`].
    pub fn from_hex(s: &str) -> Option<ContentHash> {
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

impl ContentHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> ContentHasher {
        ContentHasher { state: FNV_OFFSET }
    }

    /// Mix raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for b in bytes {
            h ^= *b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Mix a u64 (little-endian).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Mix a u128 (little-endian) — e.g. a parent [`ContentHash`].
    pub fn update_u128(&mut self, v: u128) {
        self.update(&v.to_le_bytes());
    }

    /// Finish, yielding the digest. The hasher may keep being updated; this
    /// just snapshots the current state (never the reserved zero value).
    pub fn finish(&self) -> ContentHash {
        // Avoid ever emitting the reserved NONE value.
        ContentHash(if self.state == 0 { 1 } else { self.state })
    }
}

impl Default for ContentHasher {
    fn default() -> ContentHasher {
        ContentHasher::new()
    }
}

/// Mix two 128-bit words into one — used by the Merkle summary tree to
/// bind an entry's key to its head hash (and a bucket index to its
/// digest) before XOR-combining entries order-independently.
pub fn mix128(a: u128, b: u128) -> u128 {
    let mut h = ContentHasher::new();
    h.update_u128(a);
    h.update_u128(b);
    h.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot digest of a byte slice.
    fn content_hash(bytes: &[u8]) -> ContentHash {
        let mut h = ContentHasher::new();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b""), ContentHash::NONE);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = ContentHasher::new();
        h.update(b"ab");
        h.update(b"c");
        assert_eq!(h.finish(), content_hash(b"abc"));
    }

    #[test]
    fn hex_roundtrip() {
        let h = content_hash(b"roundtrip");
        assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
        assert_eq!(h.to_hex().len(), 32);
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix128(1, 2), mix128(2, 1));
        assert_eq!(mix128(7, 9), mix128(7, 9));
    }
}
