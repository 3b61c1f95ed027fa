//! [`NoteStore`]: the assembled NSF file.
//!
//! Each note is stored as up to two heap records: a *summary* segment (the
//! items views and selection formulas read) and a *body* segment
//! (non-summary items — rich text, attachments). Keeping them separate is
//! what makes summary access cheap: a view refresh touches only summary
//! pages.
//!
//! Indexes:
//! * record index (tree slot 0): `(note_id << 1) | segment → RecordPtr`
//! * UNID index (tree slot 1): `unid → note_id`
//!
//! Header slots: 0 = replica id, 1 = next note id, 2 = database-info bits
//! reserved for `domino-core`.

use crate::btree::BTree;
use crate::engine::{Engine, Tx};
use crate::heap::{Heap, RecordPtr};
use domino_types::{NoteId, ReplicaId, Result, Unid};

const TREE_RECORDS: usize = 0;
const TREE_UNIDS: usize = 1;
const SLOT_REPLICA_ID: usize = 0;
const SLOT_NEXT_NOTE: usize = 1;

/// Which half of a note a record holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Summary items: small, view-visible.
    Summary,
    /// Non-summary items: bodies, attachments.
    Body,
}

impl Segment {
    fn bit(self) -> u128 {
        match self {
            Segment::Summary => 0,
            Segment::Body => 1,
        }
    }
}

fn record_key(id: NoteId, seg: Segment) -> u128 {
    ((id.0 as u128) << 1) | seg.bit()
}

/// The note-record layer over engine + heap + B-trees.
#[derive(Debug, Clone, Copy)]
pub struct NoteStore {
    records: BTree,
    unids: BTree,
    heap: Heap,
}

impl NoteStore {
    /// Open (creating indexes on first use). `replica` seeds the stored
    /// replica id if the store is fresh.
    pub fn open(engine: &mut Engine, tx: &mut Tx, replica: ReplicaId) -> Result<NoteStore> {
        let records = BTree::open(engine, tx, TREE_RECORDS)?;
        let unids = BTree::open(engine, tx, TREE_UNIDS)?;
        if engine.user_slot(SLOT_REPLICA_ID)? == 0 {
            engine.set_user_slot(tx, SLOT_REPLICA_ID, replica.0)?;
            engine.set_user_slot(tx, SLOT_NEXT_NOTE, 1)?;
        }
        Ok(NoteStore {
            records,
            unids,
            heap: Heap,
        })
    }

    /// The id this replica was created with (stable across reopen).
    pub fn replica_id(&self, engine: &mut Engine) -> Result<ReplicaId> {
        Ok(ReplicaId(engine.user_slot(SLOT_REPLICA_ID)?))
    }

    /// Hand out the next note id.
    pub fn alloc_note_id(&self, engine: &mut Engine, tx: &mut Tx) -> Result<NoteId> {
        let next = engine.user_slot(SLOT_NEXT_NOTE)?.max(1);
        engine.set_user_slot(tx, SLOT_NEXT_NOTE, next + 1)?;
        Ok(NoteId(next as u32))
    }

    /// Write (insert or replace) one segment of a note.
    pub fn put(
        &self,
        engine: &mut Engine,
        tx: &mut Tx,
        id: NoteId,
        seg: Segment,
        bytes: &[u8],
    ) -> Result<()> {
        let key = record_key(id, seg);
        let ptr = match self.records.get(engine, key)? {
            Some(old) => self
                .heap
                .update(engine, tx, RecordPtr::from_u64(old), bytes)?,
            None => self.heap.insert(engine, tx, bytes)?,
        };
        self.records.insert(engine, tx, key, ptr.to_u64())?;
        Ok(())
    }

    /// Read one segment of a note.
    pub fn get(&self, engine: &mut Engine, id: NoteId, seg: Segment) -> Result<Option<Vec<u8>>> {
        match self.records.get(engine, record_key(id, seg))? {
            Some(v) => Ok(Some(self.heap.read(engine, RecordPtr::from_u64(v))?)),
            None => Ok(None),
        }
    }

    /// Delete one segment if present.
    pub fn remove_segment(
        &self,
        engine: &mut Engine,
        tx: &mut Tx,
        id: NoteId,
        seg: Segment,
    ) -> Result<bool> {
        let key = record_key(id, seg);
        match self.records.delete(engine, tx, key)? {
            Some(v) => {
                self.heap.delete(engine, tx, RecordPtr::from_u64(v))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Delete both segments of a note. Returns whether anything existed.
    pub fn remove(&self, engine: &mut Engine, tx: &mut Tx, id: NoteId) -> Result<bool> {
        let a = self.remove_segment(engine, tx, id, Segment::Summary)?;
        let b = self.remove_segment(engine, tx, id, Segment::Body)?;
        Ok(a || b)
    }

    /// Does the note exist (has a summary segment)?
    pub fn exists(&self, engine: &mut Engine, id: NoteId) -> Result<bool> {
        self.has_segment(engine, id, Segment::Summary)
    }

    /// Does the note store this segment? A record-index probe only — no
    /// heap pages are read, which is what keeps summary-only database
    /// open cheap even for body-heavy notes.
    pub fn has_segment(&self, engine: &mut Engine, id: NoteId, seg: Segment) -> Result<bool> {
        Ok(self.records.get(engine, record_key(id, seg))?.is_some())
    }

    /// Number of distinct pages reading this segment would touch.
    pub fn pages_touched(&self, engine: &mut Engine, id: NoteId, seg: Segment) -> Result<usize> {
        match self.records.get(engine, record_key(id, seg))? {
            Some(v) => Ok(self.heap.pages_of(engine, RecordPtr::from_u64(v))?.len()),
            None => Ok(0),
        }
    }

    // ------------------------------------------------------------------
    // UNID index
    // ------------------------------------------------------------------

    pub fn bind_unid(
        &self,
        engine: &mut Engine,
        tx: &mut Tx,
        unid: Unid,
        id: NoteId,
    ) -> Result<()> {
        self.unids.insert(engine, tx, unid.0, id.0 as u64)?;
        Ok(())
    }

    pub fn unbind_unid(&self, engine: &mut Engine, tx: &mut Tx, unid: Unid) -> Result<()> {
        self.unids.delete(engine, tx, unid.0)?;
        Ok(())
    }

    pub fn lookup_unid(&self, engine: &mut Engine, unid: Unid) -> Result<Option<NoteId>> {
        Ok(self.unids.get(engine, unid.0)?.map(|v| NoteId(v as u32)))
    }

    /// Visit every note id with a summary segment, ascending.
    pub fn for_each_note(
        &self,
        engine: &mut Engine,
        mut f: impl FnMut(NoteId) -> bool,
    ) -> Result<()> {
        self.records.scan(engine, 0, u128::MAX, |k, _| {
            if k & 1 == 0 {
                f(NoteId((k >> 1) as u32))
            } else {
                true
            }
        })
    }

    /// Count of notes (summary segments).
    pub fn note_count(&self, engine: &mut Engine) -> Result<u64> {
        let mut n = 0;
        self.for_each_note(engine, |_| {
            n += 1;
            true
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::engine::EngineConfig;
    use domino_types::Timestamp;
    use domino_wal::MemLogStore;

    fn open_store() -> (Engine, NoteStore) {
        let mut e = Engine::open(
            Box::new(MemDisk::new()),
            Some(Box::new(MemLogStore::new())),
            EngineConfig::default(),
        )
        .unwrap();
        let mut tx = e.begin().unwrap();
        let s = NoteStore::open(&mut e, &mut tx, ReplicaId(42)).unwrap();
        e.commit(tx).unwrap();
        (e, s)
    }

    #[test]
    fn replica_id_stored() {
        let (mut e, s) = open_store();
        assert_eq!(s.replica_id(&mut e).unwrap(), ReplicaId(42));
    }

    #[test]
    fn note_ids_increase() {
        let (mut e, s) = open_store();
        let mut tx = e.begin().unwrap();
        let a = s.alloc_note_id(&mut e, &mut tx).unwrap();
        let b = s.alloc_note_id(&mut e, &mut tx).unwrap();
        e.commit(tx).unwrap();
        assert!(b > a);
        assert!(!a.is_none());
    }

    #[test]
    fn put_get_segments_independent() {
        let (mut e, s) = open_store();
        let mut tx = e.begin().unwrap();
        let id = s.alloc_note_id(&mut e, &mut tx).unwrap();
        s.put(&mut e, &mut tx, id, Segment::Summary, b"summary bytes")
            .unwrap();
        s.put(&mut e, &mut tx, id, Segment::Body, &vec![7u8; 9000])
            .unwrap();
        e.commit(tx).unwrap();

        assert_eq!(
            s.get(&mut e, id, Segment::Summary).unwrap().unwrap(),
            b"summary bytes"
        );
        assert_eq!(
            s.get(&mut e, id, Segment::Body).unwrap().unwrap(),
            vec![7u8; 9000]
        );
        // A big body spans pages; the summary fits in one.
        assert_eq!(s.pages_touched(&mut e, id, Segment::Summary).unwrap(), 1);
        assert!(s.pages_touched(&mut e, id, Segment::Body).unwrap() >= 3);
    }

    #[test]
    fn replace_segment() {
        let (mut e, s) = open_store();
        let mut tx = e.begin().unwrap();
        let id = s.alloc_note_id(&mut e, &mut tx).unwrap();
        s.put(&mut e, &mut tx, id, Segment::Summary, b"v1").unwrap();
        s.put(&mut e, &mut tx, id, Segment::Summary, b"version two")
            .unwrap();
        e.commit(tx).unwrap();
        assert_eq!(
            s.get(&mut e, id, Segment::Summary).unwrap().unwrap(),
            b"version two"
        );
    }

    #[test]
    fn remove_note() {
        let (mut e, s) = open_store();
        let mut tx = e.begin().unwrap();
        let id = s.alloc_note_id(&mut e, &mut tx).unwrap();
        s.put(&mut e, &mut tx, id, Segment::Summary, b"x").unwrap();
        assert!(s.exists(&mut e, id).unwrap());
        assert!(s.remove(&mut e, &mut tx, id).unwrap());
        assert!(!s.exists(&mut e, id).unwrap());
        assert!(!s.remove(&mut e, &mut tx, id).unwrap());
        e.commit(tx).unwrap();
        assert_eq!(s.get(&mut e, id, Segment::Summary).unwrap(), None);
    }

    #[test]
    fn unid_index() {
        let (mut e, s) = open_store();
        let mut tx = e.begin().unwrap();
        let id = s.alloc_note_id(&mut e, &mut tx).unwrap();
        let unid = Unid::generate(ReplicaId(42), Timestamp(5), 0);
        s.bind_unid(&mut e, &mut tx, unid, id).unwrap();
        e.commit(tx).unwrap();
        assert_eq!(s.lookup_unid(&mut e, unid).unwrap(), Some(id));
        let mut tx = e.begin().unwrap();
        s.unbind_unid(&mut e, &mut tx, unid).unwrap();
        e.commit(tx).unwrap();
        assert_eq!(s.lookup_unid(&mut e, unid).unwrap(), None);
    }

    #[test]
    fn iterate_notes_in_order() {
        let (mut e, s) = open_store();
        let mut tx = e.begin().unwrap();
        let mut ids = Vec::new();
        for i in 0..50 {
            let id = s.alloc_note_id(&mut e, &mut tx).unwrap();
            s.put(&mut e, &mut tx, id, Segment::Summary, &[i as u8])
                .unwrap();
            if i % 3 == 0 {
                s.put(&mut e, &mut tx, id, Segment::Body, &[0u8; 64])
                    .unwrap();
            }
            ids.push(id);
        }
        e.commit(tx).unwrap();
        let mut seen = Vec::new();
        s.for_each_note(&mut e, |id| {
            seen.push(id);
            true
        })
        .unwrap();
        assert_eq!(seen, ids);
        assert_eq!(s.note_count(&mut e).unwrap(), 50);
    }

    #[test]
    fn store_reopens_and_recovers() {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let id = {
            let mut e = Engine::open(
                Box::new(disk.clone()),
                Some(Box::new(log.clone())),
                EngineConfig::default(),
            )
            .unwrap();
            let mut tx = e.begin().unwrap();
            let s = NoteStore::open(&mut e, &mut tx, ReplicaId(1)).unwrap();
            let id = s.alloc_note_id(&mut e, &mut tx).unwrap();
            s.put(&mut e, &mut tx, id, Segment::Summary, b"durable note")
                .unwrap();
            e.commit(tx).unwrap();
            e.crash();
            log.crash();
            id
        };
        let mut e =
            Engine::open(Box::new(disk), Some(Box::new(log)), EngineConfig::default()).unwrap();
        let mut tx = e.begin().unwrap();
        let s = NoteStore::open(&mut e, &mut tx, ReplicaId(1)).unwrap();
        e.commit(tx).unwrap();
        assert_eq!(s.replica_id(&mut e).unwrap(), ReplicaId(1));
        assert_eq!(
            s.get(&mut e, id, Segment::Summary).unwrap().unwrap(),
            b"durable note"
        );
    }
}
