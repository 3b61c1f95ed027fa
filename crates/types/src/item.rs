//! Items: named, flagged, revision-stamped fields of a note.

use crate::error::Result;
use crate::reader::Reader;
use crate::time::Timestamp;
use crate::value::Value;

/// Per-item flags, mirroring the Notes item flags that matter to a database
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ItemFlags(pub u8);

impl ItemFlags {
    /// Item participates in the note's *summary* — the compact record views
    /// and selection formulas can read without fetching the full note.
    pub const SUMMARY: ItemFlags = ItemFlags(1);
    /// Item is a `$Readers`-style list restricting who may see the note.
    pub const READERS: ItemFlags = ItemFlags(2);
    /// Item is an `$Authors`-style list extending who may edit the note.
    pub const AUTHORS: ItemFlags = ItemFlags(4);
    /// Item may not be modified by Author-level users (protected field).
    pub const PROTECTED: ItemFlags = ItemFlags(8);
    /// Tombstone for a removed item: kept (with empty value) so field-level
    /// replication can propagate the removal, hidden from readers.
    pub const DELETED: ItemFlags = ItemFlags(16);

    pub const NONE: ItemFlags = ItemFlags(0);

    pub fn contains(self, other: ItemFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn union(self, other: ItemFlags) -> ItemFlags {
        ItemFlags(self.0 | other.0)
    }
}

impl std::ops::BitOr for ItemFlags {
    type Output = ItemFlags;
    fn bitor(self, rhs: ItemFlags) -> ItemFlags {
        self.union(rhs)
    }
}

/// One field of a note.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Field name. Names beginning with `$` are reserved for the system
    /// (`$REF`, `$Readers`, `$Conflict`, ...).
    pub name: String,
    /// The typed value.
    pub value: Value,
    /// Summary/readers/authors/protected flags.
    pub flags: ItemFlags,
    /// When this item last changed — the per-field stamp that makes
    /// field-level (R4-style) replication possible: only items whose
    /// `revised` exceeds the other replica's knowledge need to ship.
    pub revised: Timestamp,
}

impl Item {
    pub fn new(name: impl Into<String>, value: Value) -> Item {
        Item {
            name: name.into(),
            value,
            flags: ItemFlags::SUMMARY,
            revised: Timestamp::ZERO,
        }
    }

    /// Builder-style: mark non-summary (large bodies, attachments).
    pub fn non_summary(mut self) -> Item {
        self.flags = ItemFlags(self.flags.0 & !ItemFlags::SUMMARY.0);
        self
    }

    pub fn with_flags(mut self, flags: ItemFlags) -> Item {
        self.flags = flags;
        self
    }

    pub fn is_summary(&self) -> bool {
        self.flags.contains(ItemFlags::SUMMARY)
    }

    pub fn is_system(&self) -> bool {
        self.name.starts_with('$')
    }

    /// Encoded size plus header overhead; used for page budgeting and
    /// replication bandwidth accounting.
    pub fn byte_size(&self) -> usize {
        self.name.len() + self.value.byte_size() + 1 /*flags*/ + 8 /*revised*/ + 4
    }

    /// Append the canonical binary encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        buf.extend_from_slice(self.name.as_bytes());
        buf.push(self.flags.0);
        buf.extend_from_slice(&self.revised.0.to_le_bytes());
        self.value.encode(buf);
    }

    /// Decode from `buf` at `*pos`, advancing `*pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Item> {
        let mut r = Reader::at(buf, *pos);
        let item = Item::read(&mut r)?;
        *pos = r.pos();
        Ok(item)
    }

    /// Decode an item at the reader's cursor.
    pub fn read(r: &mut Reader<'_>) -> Result<Item> {
        let name_len = r.u16("item name length")? as usize;
        let name = r.text(name_len, "item name")?.to_owned();
        let flags = ItemFlags(r.u8("item flags")?);
        let revised = Timestamp(r.u64("item revision time")?);
        let value = Value::read(r)?;
        Ok(Item {
            name,
            value,
            flags,
            revised,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_compose() {
        let f = ItemFlags::SUMMARY | ItemFlags::READERS;
        assert!(f.contains(ItemFlags::SUMMARY));
        assert!(f.contains(ItemFlags::READERS));
        assert!(!f.contains(ItemFlags::AUTHORS));
    }

    #[test]
    fn new_items_are_summary_by_default() {
        let it = Item::new("Subject", Value::text("hi"));
        assert!(it.is_summary());
        assert!(!it.non_summary().is_summary());
    }

    #[test]
    fn system_items_detected() {
        assert!(Item::new("$REF", Value::text("x")).is_system());
        assert!(!Item::new("Subject", Value::text("x")).is_system());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut it = Item::new("Body", Value::RichText(vec![1, 2, 3])).non_summary();
        it.revised = Timestamp(42);
        it.flags = it.flags | ItemFlags::PROTECTED;
        let mut buf = Vec::new();
        it.encode(&mut buf);
        let mut pos = 0;
        let back = Item::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, it);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_rejects_truncation() {
        let it = Item::new("Subject", Value::text("hello"));
        let mut buf = Vec::new();
        it.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(Item::decode(&buf[..cut], &mut pos).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn byte_size_positive_and_monotone_in_name() {
        let a = Item::new("A", Value::Number(0.0)).byte_size();
        let b = Item::new("LongerName", Value::Number(0.0)).byte_size();
        assert!(b > a);
    }
}
