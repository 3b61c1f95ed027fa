//! The note: Domino's universal record.
//!
//! Everything in a Notes database — documents, forms, views, the ACL — is a
//! note: a header (ids, class, times, optional parent reference) plus a bag
//! of typed [`Item`]s. Summary items are stored in the summary segment
//! (cheap for views to read); non-summary items (rich-text bodies) go to
//! the body segment.
//!
//! Removed items leave *tombstones* (empty value, `DELETED` flag) so that
//! field-level replication can ship the removal; all read APIs hide them.

use domino_formula::DocContext;
use domino_types::{
    DominoError, Item, ItemFlags, NoteClass, NoteId, Oid, Result, Timestamp, Unid, Value,
};

/// Reserved item names.
pub const ITEM_REF: &str = "$REF";
pub const ITEM_FORM: &str = "Form";
pub const ITEM_CONFLICT: &str = "$Conflict";
pub const ITEM_READERS: &str = "$Readers";
pub const ITEM_AUTHORS: &str = "$Authors";
pub const ITEM_TITLE: &str = "$TITLE";
/// Marker on documents received without their bodies ("partial documents").
pub const ITEM_TRUNCATED: &str = "$Truncated";

/// One note, fully materialized in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Note {
    /// Database-local id; `NoteId::NONE` until first saved.
    pub id: NoteId,
    /// Originator id: UNID + replication version stamp.
    pub oid: Oid,
    pub class: NoteClass,
    pub created: Timestamp,
    pub modified: Timestamp,
    items: Vec<Item>,
}

impl Note {
    /// A fresh, unsaved document note. Ids and times are assigned by
    /// `Database::save`.
    pub fn new(class: NoteClass) -> Note {
        Note {
            id: NoteId::NONE,
            oid: Oid::new(Unid(0), Timestamp::ZERO),
            class,
            created: Timestamp::ZERO,
            modified: Timestamp::ZERO,
            items: Vec::new(),
        }
    }

    /// A document with a `Form` item — the everyday constructor.
    pub fn document(form: &str) -> Note {
        let mut n = Note::new(NoteClass::Document);
        n.set(ITEM_FORM, Value::text(form));
        n
    }

    pub fn unid(&self) -> Unid {
        self.oid.unid
    }

    /// Is this an unsaved draft?
    pub fn is_draft(&self) -> bool {
        self.id.is_none()
    }

    // ------------------------------------------------------------------
    // items
    // ------------------------------------------------------------------

    fn find(&self, name: &str) -> Option<usize> {
        self.items
            .iter()
            .position(|it| it.name.eq_ignore_ascii_case(name))
    }

    /// Read an item's value (tombstones read as absent).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).and_then(|i| {
            let it = &self.items[i];
            if it.flags.contains(ItemFlags::DELETED) {
                None
            } else {
                Some(&it.value)
            }
        })
    }

    pub fn get_text(&self, name: &str) -> Option<String> {
        self.get(name).map(|v| v.to_text())
    }

    /// Set an item (summary by default), replacing any existing item or
    /// tombstone of the same name. The `revised` stamp is managed by
    /// `Database::save`.
    pub fn set(&mut self, name: &str, value: Value) -> &mut Note {
        self.set_item(Item::new(name, value))
    }

    /// Set a non-summary item (bodies, attachments).
    pub fn set_body(&mut self, name: &str, value: Value) -> &mut Note {
        self.set_item(Item::new(name, value).non_summary())
    }

    /// Set with explicit flags.
    pub fn set_with_flags(&mut self, name: &str, value: Value, flags: ItemFlags) -> &mut Note {
        self.set_item(Item::new(name, value).with_flags(flags))
    }

    /// Insert or replace a full item.
    pub fn set_item(&mut self, item: Item) -> &mut Note {
        match self.find(&item.name) {
            Some(i) => self.items[i] = item,
            None => self.items.push(item),
        }
        self
    }

    /// Remove an item, leaving a replication tombstone.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.find(name) {
            Some(i) => {
                let it = &mut self.items[i];
                if it.flags.contains(ItemFlags::DELETED) {
                    return false;
                }
                it.value = Value::text("");
                it.flags = ItemFlags::DELETED;
                true
            }
            None => false,
        }
    }

    /// Live items (no tombstones).
    pub fn items(&self) -> impl Iterator<Item = &Item> {
        self.items
            .iter()
            .filter(|it| !it.flags.contains(ItemFlags::DELETED))
    }

    /// Every stored item including tombstones (replication needs these).
    pub fn items_raw(&self) -> &[Item] {
        &self.items
    }

    pub(crate) fn items_raw_mut(&mut self) -> &mut Vec<Item> {
        &mut self.items
    }

    /// Does the note have a live item of this name?
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    // ------------------------------------------------------------------
    // well-known items
    // ------------------------------------------------------------------

    /// Parent note reference (makes this a response document).
    pub fn parent(&self) -> Option<Unid> {
        match self.get(ITEM_REF) {
            Some(Value::Text(hex)) => u128::from_str_radix(hex, 16).ok().map(Unid),
            _ => None,
        }
    }

    pub fn set_parent(&mut self, parent: Unid) -> &mut Note {
        self.set(ITEM_REF, Value::Text(format!("{:032X}", parent.0)))
    }

    pub fn is_response(&self) -> bool {
        self.parent().is_some()
    }

    /// Is this a replication-conflict loser?
    pub fn is_conflict(&self) -> bool {
        self.has(ITEM_CONFLICT)
    }

    /// Combined `$Readers`-flagged values (empty = unrestricted).
    pub fn readers(&self) -> Vec<String> {
        self.collect_flagged(ItemFlags::READERS)
    }

    /// Combined `$Authors`-flagged values.
    pub fn authors(&self) -> Vec<String> {
        self.collect_flagged(ItemFlags::AUTHORS)
    }

    /// Reader and author items are summary items, as Notes requires:
    /// access checks run on summary-only copies (a reopened database's
    /// seed versions, view rows), which would read a restriction kept in
    /// the body segment as "unrestricted". `Database` applies this to
    /// every note it stores.
    pub fn keep_access_items_in_summary(&mut self) {
        for it in &mut self.items {
            if it.flags.contains(ItemFlags::READERS) || it.flags.contains(ItemFlags::AUTHORS) {
                it.flags = it.flags | ItemFlags::SUMMARY;
            }
        }
    }

    fn collect_flagged(&self, flag: ItemFlags) -> Vec<String> {
        let mut out = Vec::new();
        for it in self.items() {
            if it.flags.contains(flag) {
                for v in it.value.iter_scalars() {
                    let s = v.to_text();
                    if !s.is_empty() {
                        out.push(s);
                    }
                }
            }
        }
        out
    }

    /// Is this a truncated (summary-only) copy received by partial
    /// replication? Truncated copies are read-only until fetched in full.
    pub fn is_truncated(&self) -> bool {
        self.has(ITEM_TRUNCATED)
    }

    /// Drop all non-summary items *entirely* (no tombstones — the bodies
    /// still exist at the source) and mark the note truncated. Used by
    /// partial replication; the local copy keeps the source's OID, so a
    /// later full pull upgrades it in place.
    pub fn truncate_to_summary(&mut self) {
        self.items
            .retain(|it| it.is_summary() || it.flags.contains(ItemFlags::DELETED));
        self.set(ITEM_TRUNCATED, Value::from(true));
    }

    /// Total size of all items (replication bandwidth accounting).
    pub fn byte_size(&self) -> usize {
        self.items.iter().map(|it| it.byte_size()).sum::<usize>() + 64
    }

    // ------------------------------------------------------------------
    // storage encoding
    // ------------------------------------------------------------------

    /// Encode the summary segment: header + summary items (+ tombstones,
    /// which are always summary).
    pub fn encode_summary(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        buf.push(0u8); // record tag: 0 = note (1 = deletion stub)
        buf.push(self.class.code());
        buf.extend_from_slice(&self.oid.unid.to_bytes());
        buf.extend_from_slice(&self.oid.seq.to_le_bytes());
        buf.extend_from_slice(&self.oid.seq_time.0.to_le_bytes());
        buf.extend_from_slice(&self.created.0.to_le_bytes());
        buf.extend_from_slice(&self.modified.0.to_le_bytes());
        let summary: Vec<&Item> = self
            .items
            .iter()
            .filter(|it| it.is_summary() || it.flags.contains(ItemFlags::DELETED))
            .collect();
        buf.extend_from_slice(&(summary.len() as u16).to_le_bytes());
        for it in summary {
            it.encode(&mut buf);
        }
        buf
    }

    /// Encode the body segment (non-summary items); `None` if there are
    /// none (no body record is stored at all).
    pub fn encode_body(&self) -> Option<Vec<u8>> {
        let body: Vec<&Item> = self
            .items
            .iter()
            .filter(|it| !it.is_summary() && !it.flags.contains(ItemFlags::DELETED))
            .collect();
        if body.is_empty() {
            return None;
        }
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&(body.len() as u16).to_le_bytes());
        for it in body {
            it.encode(&mut buf);
        }
        Some(buf)
    }

    /// Decode from stored segments.
    pub fn decode(id: NoteId, summary: &[u8], body: Option<&[u8]>) -> Result<Note> {
        let mut pos = 0usize;
        let need = |pos: usize, n: usize| -> Result<()> {
            if pos + n > summary.len() {
                Err(DominoError::Corrupt("truncated note summary".into()))
            } else {
                Ok(())
            }
        };
        need(pos, 2)?;
        if summary[0] != 0 {
            return Err(DominoError::Corrupt(format!(
                "record tag {} is not a note",
                summary[0]
            )));
        }
        let class = NoteClass::from_code(summary[1])
            .ok_or_else(|| DominoError::Corrupt("bad note class".into()))?;
        pos += 2;
        need(pos, 16 + 4 + 8 + 8 + 8 + 2)?;
        let unid = Unid::from_bytes(summary[pos..pos + 16].try_into().expect("16"));
        pos += 16;
        let seq = u32::from_le_bytes(summary[pos..pos + 4].try_into().expect("4"));
        pos += 4;
        let seq_time = Timestamp(u64::from_le_bytes(
            summary[pos..pos + 8].try_into().expect("8"),
        ));
        pos += 8;
        let created = Timestamp(u64::from_le_bytes(
            summary[pos..pos + 8].try_into().expect("8"),
        ));
        pos += 8;
        let modified = Timestamp(u64::from_le_bytes(
            summary[pos..pos + 8].try_into().expect("8"),
        ));
        pos += 8;
        let n = u16::from_le_bytes(summary[pos..pos + 2].try_into().expect("2")) as usize;
        pos += 2;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Item::decode(summary, &mut pos)?);
        }
        if let Some(body) = body {
            let mut bpos = 0usize;
            if body.len() < 2 {
                return Err(DominoError::Corrupt("truncated note body".into()));
            }
            let bn = u16::from_le_bytes(body[0..2].try_into().expect("2")) as usize;
            bpos += 2;
            for _ in 0..bn {
                items.push(Item::decode(body, &mut bpos)?);
            }
        }
        Ok(Note {
            id,
            oid: Oid {
                unid,
                seq,
                seq_time,
            },
            class,
            created,
            modified,
            items,
        })
    }
}

impl DocContext for Note {
    fn item(&self, name: &str) -> Option<Value> {
        self.get(name).cloned()
    }

    fn created(&self) -> Timestamp {
        self.created
    }

    fn modified(&self) -> Timestamp {
        self.modified
    }

    fn unid_text(&self) -> String {
        format!("{}", self.unid())
    }

    fn is_response(&self) -> bool {
        Note::is_response(self)
    }
}

/// A note as a view refresh sees it: summary items only. Non-summary
/// items read as absent whether or not the note's body happens to be in
/// memory, so a view's rows and a formula search's hits do not depend on
/// which copy of the note (summary-only seed, hydrated version, change
/// event) they were computed from.
pub struct SummaryItems<'a>(pub &'a Note);

impl DocContext for SummaryItems<'_> {
    fn item(&self, name: &str) -> Option<Value> {
        self.0
            .items()
            .find(|it| it.name.eq_ignore_ascii_case(name))
            .filter(|it| it.is_summary())
            .map(|it| it.value.clone())
    }

    fn created(&self) -> Timestamp {
        self.0.created
    }

    fn modified(&self) -> Timestamp {
        self.0.modified
    }

    fn unid_text(&self) -> String {
        self.0.unid_text()
    }

    fn is_response(&self) -> bool {
        self.0.is_response()
    }
}

/// A deletion stub: what remains of a deleted note so the deletion itself
/// can replicate. Purged after the database's purge interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeletionStub {
    pub id: NoteId,
    pub oid: Oid,
    pub deleted_at: Timestamp,
}

impl DeletionStub {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40);
        buf.push(1u8); // record tag: stub
        buf.extend_from_slice(&self.oid.unid.to_bytes());
        buf.extend_from_slice(&self.oid.seq.to_le_bytes());
        buf.extend_from_slice(&self.oid.seq_time.0.to_le_bytes());
        buf.extend_from_slice(&self.deleted_at.0.to_le_bytes());
        buf
    }

    pub fn decode(id: NoteId, buf: &[u8]) -> Result<DeletionStub> {
        if buf.len() < 1 + 16 + 4 + 8 + 8 || buf[0] != 1 {
            return Err(DominoError::Corrupt("bad deletion stub record".into()));
        }
        let unid = Unid::from_bytes(buf[1..17].try_into().expect("16"));
        let seq = u32::from_le_bytes(buf[17..21].try_into().expect("4"));
        let seq_time = Timestamp(u64::from_le_bytes(buf[21..29].try_into().expect("8")));
        let deleted_at = Timestamp(u64::from_le_bytes(buf[29..37].try_into().expect("8")));
        Ok(DeletionStub {
            id,
            oid: Oid {
                unid,
                seq,
                seq_time,
            },
            deleted_at,
        })
    }
}

/// Peek at a stored summary record's tag without full decode.
pub fn record_is_stub(summary: &[u8]) -> bool {
    summary.first() == Some(&1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("hello"));
        assert_eq!(n.get_text("subject").unwrap(), "hello");
        assert!(n.has("SUBJECT"));
        assert!(n.remove("Subject"));
        assert!(!n.has("Subject"));
        assert!(!n.remove("Subject"), "double remove is a no-op");
        // Tombstone still present underneath.
        assert_eq!(n.items_raw().len(), 2); // Form + tombstone
        assert_eq!(n.items().count(), 1);
    }

    #[test]
    fn set_after_remove_revives() {
        let mut n = Note::document("Memo");
        n.set("X", Value::Number(1.0));
        n.remove("X");
        n.set("X", Value::Number(2.0));
        assert_eq!(n.get("X"), Some(&Value::Number(2.0)));
    }

    #[test]
    fn encode_decode_roundtrip_with_body() {
        let mut n = Note::document("Memo");
        n.oid = Oid {
            unid: Unid(77),
            seq: 3,
            seq_time: Timestamp(30),
        };
        n.id = NoteId(9);
        n.created = Timestamp(10);
        n.modified = Timestamp(30);
        n.set("Subject", Value::text("hi"));
        n.set_body("Body", Value::RichText(vec![9u8; 5000]));
        n.remove("Subject");

        let summary = n.encode_summary();
        let body = n.encode_body().expect("has body");
        let back = Note::decode(NoteId(9), &summary, Some(&body)).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn encode_body_none_when_all_summary() {
        let n = Note::document("Memo");
        assert!(n.encode_body().is_none());
    }

    #[test]
    fn summary_segment_excludes_body_items() {
        let mut n = Note::document("Memo");
        n.set_body("Body", Value::RichText(vec![1u8; 1000]));
        let summary = n.encode_summary();
        assert!(summary.len() < 200, "body leaked into summary segment");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Note::decode(NoteId(1), &[], None).is_err());
        assert!(Note::decode(NoteId(1), &[9, 9, 9], None).is_err());
        let n = Note::document("M");
        let enc = n.encode_summary();
        assert!(Note::decode(NoteId(1), &enc[..enc.len() - 1], None).is_err());
    }

    #[test]
    fn parent_roundtrip() {
        let mut n = Note::document("Reply");
        assert!(!n.is_response());
        n.set_parent(Unid(0xABCD));
        assert_eq!(n.parent(), Some(Unid(0xABCD)));
        assert!(n.is_response());
    }

    #[test]
    fn readers_authors_collect_flagged_items() {
        let mut n = Note::document("Secret");
        n.set_with_flags(
            ITEM_READERS,
            Value::text_list(["alice", "bob"]),
            ItemFlags::SUMMARY | ItemFlags::READERS,
        );
        n.set_with_flags(
            "ExtraReaders",
            Value::text("carol"),
            ItemFlags::SUMMARY | ItemFlags::READERS,
        );
        n.set_with_flags(
            ITEM_AUTHORS,
            Value::text("dave"),
            ItemFlags::SUMMARY | ItemFlags::AUTHORS,
        );
        assert_eq!(n.readers(), vec!["alice", "bob", "carol"]);
        assert_eq!(n.authors(), vec!["dave"]);
    }

    #[test]
    fn doc_context_bridge() {
        use domino_formula::{EvalEnv, Formula};
        let mut n = Note::document("Order");
        n.set("Total", Value::Number(500.0));
        let f = Formula::compile(r#"SELECT Form = "Order" & Total > 100"#).unwrap();
        assert!(f.selects(&n, &EvalEnv::default()).unwrap());
    }

    #[test]
    fn stub_roundtrip() {
        let stub = DeletionStub {
            id: NoteId(4),
            oid: Oid {
                unid: Unid(5),
                seq: 7,
                seq_time: Timestamp(70),
            },
            deleted_at: Timestamp(71),
        };
        let enc = stub.encode();
        assert!(record_is_stub(&enc));
        assert_eq!(DeletionStub::decode(NoteId(4), &enc).unwrap(), stub);
        assert!(DeletionStub::decode(NoteId(4), &enc[..10]).is_err());
        let note_enc = Note::document("M").encode_summary();
        assert!(!record_is_stub(&note_enc));
    }
}
