//! `domino-core`: the Notes database (NSF) semantics.
//!
//! This crate assembles the substrates into the thing applications open:
//! a [`Database`] of [`Note`]s with:
//!
//! * CRUD with OID versioning (sequence numbers + times, per-item revision
//!   stamps for field-level replication),
//! * deletion stubs and purge,
//! * design notes (forms, views, the ACL) stored alongside documents,
//! * response hierarchies (`$REF`), unread marks,
//! * formula search,
//! * change events feeding view indexes and the full-text index,
//! * [`Session`], the ACL-enforcing API surface.
//!
//! ```
//! use std::sync::Arc;
//! use domino_core::{Database, DbConfig, Note, Session};
//! use domino_security::{AccessLevel, Acl, AclEntry, Directory};
//! use domino_types::{LogicalClock, ReplicaId, Value};
//!
//! let db = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Team", ReplicaId(1), ReplicaId(2)), LogicalClock::new()).unwrap());
//! let mut acl = Acl::new(AccessLevel::NoAccess);
//! acl.set("ann", AclEntry::new(AccessLevel::Editor));
//! db.set_acl(&acl).unwrap();
//!
//! let ann = Session::new(db.clone(), "ann", Directory::new());
//! let mut memo = Note::document("Memo");
//! memo.set("Subject", Value::text("hi"));
//! ann.save(&mut memo).unwrap();
//! assert_eq!(memo.get_text("From").unwrap(), "ann");
//! ```

pub mod access;
pub mod agent;
pub mod db;
pub mod form;
pub mod merkle;
pub mod mvcc;
pub mod note;
pub mod revision;
pub mod session;

pub use access::Principal;
pub use agent::{
    save_agent, stored_agents, AgentDesign, AgentRunReport, AgentScheduler, AgentTickReport,
    AgentTrigger,
};
pub use db::{
    Candidate, ChangeEvent, Database, DbConfig, DbInfo, Record, Subscription,
    DEFAULT_PURGE_INTERVAL,
};
pub use form::{form_for, save_form, stored_forms, FieldKind, FieldSpec, FormDesign};
pub use merkle::{bucket_of, MerkleSummary, MERKLE_BUCKETS};
pub use mvcc::{Snapshot, SnapshotStats};
pub use note::{
    DeletionStub, Note, SummaryItems, ITEM_AUTHORS, ITEM_CONFLICT, ITEM_FORM, ITEM_READERS,
    ITEM_REF, ITEM_TRUNCATED,
};
pub use revision::{merkle_head, stub_head, ITEM_REVISION_HASHES};
pub use session::{Session, ITEM_FROM, ITEM_UPDATED_BY};

#[cfg(test)]
mod tests {
    use super::*;
    use domino_formula::{EvalEnv, Formula};
    use domino_security::{AccessLevel, Acl, AclEntry, Directory};
    use domino_storage::MemDisk;
    use domino_types::{
        DominoError, ItemFlags, LogicalClock, NoteClass, ReplicaId, Timestamp, Unid, Value,
    };
    use domino_wal::MemLogStore;
    use std::sync::Arc;

    fn db() -> Database {
        Database::open_in_memory(
            DbConfig::new("Test", ReplicaId(1), ReplicaId(100)),
            LogicalClock::new(),
        )
        .unwrap()
    }

    #[test]
    fn create_assigns_identity() {
        let db = db();
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("hi"));
        db.save(&mut n).unwrap();
        assert!(!n.is_draft());
        assert_eq!(n.oid.seq, 1);
        assert_eq!(n.unid().creator(), ReplicaId(100));
        assert!(n.created > Timestamp::ZERO);
        let back = db.open_note(n.id).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn update_bumps_sequence_and_stamps_changed_items_only() {
        let db = db();
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text("v1"));
        n.set("Keep", Value::text("same"));
        db.save(&mut n).unwrap();
        let subject_rev_1 = n
            .items_raw()
            .iter()
            .find(|i| i.name == "Subject")
            .unwrap()
            .revised;

        n.set("Subject", Value::text("v2"));
        db.save(&mut n).unwrap();
        assert_eq!(n.oid.seq, 2);
        let subject_rev_2 = n
            .items_raw()
            .iter()
            .find(|i| i.name == "Subject")
            .unwrap()
            .revised;
        let keep_rev = n
            .items_raw()
            .iter()
            .find(|i| i.name == "Keep")
            .unwrap()
            .revised;
        assert!(subject_rev_2 > subject_rev_1);
        assert!(keep_rev < subject_rev_2, "unchanged item keeps its stamp");
    }

    #[test]
    fn stale_save_rejected() {
        let db = db();
        let mut n = Note::document("Memo");
        db.save(&mut n).unwrap();
        let mut stale = db.open_note(n.id).unwrap();
        // First writer wins...
        n.set("X", Value::Number(1.0));
        db.save(&mut n).unwrap();
        // ...second writer loses with a conflict error.
        stale.set("X", Value::Number(2.0));
        let err = db.save(&mut stale).unwrap_err();
        assert_eq!(err.kind(), "update_conflict");
    }

    #[test]
    fn delete_leaves_stub_and_open_fails() {
        let db = db();
        let mut n = Note::document("Memo");
        db.save(&mut n).unwrap();
        let stub = db.delete(n.id).unwrap();
        assert_eq!(stub.oid.unid, n.unid());
        assert_eq!(stub.oid.seq, 2, "deletion bumps the sequence");
        assert!(db.open_note(n.id).is_err());
        assert!(db.open_by_unid(n.unid()).is_err());
        let stubs = db.stubs().unwrap();
        assert_eq!(stubs.len(), 1);
        assert_eq!(stubs[0].oid.unid, n.unid());
    }

    #[test]
    fn purge_removes_only_old_stubs() {
        let clock = LogicalClock::new();
        let db = Database::open_in_memory(
            DbConfig::new("T", ReplicaId(1), ReplicaId(2)).with_purge_interval(1000),
            clock.clone(),
        )
        .unwrap();
        let mut a = Note::document("M");
        db.save(&mut a).unwrap();
        let mut b = Note::document("M");
        db.save(&mut b).unwrap();
        db.delete(a.id).unwrap();
        clock.advance(5000);
        db.delete(b.id).unwrap(); // recent stub
        assert_eq!(db.purge_stubs().unwrap(), 1);
        assert_eq!(db.stubs().unwrap().len(), 1);
    }

    #[test]
    fn a_purged_id_stays_gone_when_its_unid_returns() {
        let clock = LogicalClock::new();
        let db = Database::open_in_memory(
            DbConfig::new("T", ReplicaId(1), ReplicaId(2)).with_purge_interval(10),
            clock.clone(),
        )
        .unwrap();
        let mut n = Note::document("M");
        db.save(&mut n).unwrap();
        let stale = n.clone();
        // Pinned before the delete, so the UNID's chain outlives the purge
        // and still maps the old id to it.
        let pinned = db.snapshot();
        db.delete(n.id).unwrap();
        clock.advance(100);
        assert_eq!(db.purge_stubs().unwrap(), 1);
        // Replication brings the note back under a new id.
        let back = db.save_replicated(stale.clone()).unwrap();
        assert_ne!(back.id, stale.id);
        let mut edit = stale.clone();
        edit.set("Subject", Value::text("edited through the old id"));
        assert!(matches!(db.save(&mut edit), Err(DominoError::NotFound(_))));
        assert!(matches!(db.delete(stale.id), Err(DominoError::NotFound(_))));
        assert_eq!(db.open_note(back.id).unwrap().get_text("Subject"), None);
        assert!(pinned.open_note(stale.id).is_ok());
    }

    #[test]
    fn replication_candidates_track_modifications_and_deletions() {
        let db = db();
        let mut a = Note::document("M");
        db.save(&mut a).unwrap();
        let mut b = Note::document("M");
        db.save(&mut b).unwrap();
        let snap = db.snapshot();
        a.set("X", Value::Number(1.0));
        db.save(&mut a).unwrap();
        db.delete(b.id).unwrap();

        // A live note is read as the snapshot holds it; a deletion after
        // the pin does not hide it.
        let pinned = db
            .replication_candidates(&snap, &[a.unid(), b.unid()])
            .unwrap();
        assert!(matches!(&pinned[1], Candidate::Note(n) if n.oid.seq == 1));
        let snap = db.snapshot();
        let entries = db
            .replication_candidates(&snap, &[a.unid(), b.unid()])
            .unwrap();
        assert_eq!(entries.len(), 2, "a (updated) and b (stub) both listed");
        assert!(matches!(&entries[0], Candidate::Note(n) if n.oid == a.oid));
        assert!(
            matches!(&entries[1], Candidate::Stub(s) if s.oid.unid == b.unid() && s.oid.seq == 2),
            "the stub carries the bumped seq"
        );
        // `(seq_time, unid)` order whatever the request order; unknown
        // UNIDs are skipped.
        assert!(entries[0].position() < entries[1].position());
        let asked_backwards = db
            .replication_candidates(&snap, &[b.unid(), Unid(42), a.unid()])
            .unwrap();
        let order = |c: &[Candidate]| c.iter().map(Candidate::position).collect::<Vec<_>>();
        assert_eq!(order(&asked_backwards), order(&entries));
    }

    #[test]
    fn search_with_formula() {
        let db = db();
        for i in 0..10 {
            let mut n = Note::document(if i % 2 == 0 { "Order" } else { "Memo" });
            n.set("Total", Value::Number(i as f64 * 100.0));
            db.save(&mut n).unwrap();
        }
        let f = Formula::compile(r#"SELECT Form = "Order" & Total >= 400"#).unwrap();
        let hits = db.search(&f, &EvalEnv::default()).unwrap();
        assert_eq!(hits.len(), 3); // totals 400, 600, 800
    }

    #[test]
    fn response_hierarchy() {
        let db = db();
        let mut parent = Note::document("Topic");
        db.save(&mut parent).unwrap();
        let mut r1 = Note::document("Response");
        r1.set_parent(parent.unid());
        db.save(&mut r1).unwrap();
        let mut r2 = Note::document("Response");
        r2.set_parent(parent.unid());
        db.save(&mut r2).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.responses_of(parent.unid()), vec![r1.id, r2.id]);
        assert!(snap.responses_of(r1.unid()).is_empty());
    }

    #[test]
    fn events_fire_on_save_and_delete() {
        let db = db();
        let events = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = events.clone();
        let _feed = db.subscribe(move |events: &[ChangeEvent]| {
            sink.lock().extend(events.iter().map(|e| match e {
                ChangeEvent::Saved { old: None, .. } => "create",
                ChangeEvent::Saved { old: Some(_), .. } => "update",
                ChangeEvent::Deleted { .. } => "delete",
            }));
        });
        let mut n = Note::document("M");
        db.save(&mut n).unwrap();
        n.set("X", Value::Number(1.0));
        db.save(&mut n).unwrap();
        db.delete(n.id).unwrap();
        assert_eq!(*events.lock(), vec!["create", "update", "delete"]);
    }

    #[test]
    fn database_survives_crash() {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let clock = LogicalClock::new();
        let (id, unid) = {
            let db = Database::open(
                Box::new(disk.clone()),
                Some(Box::new(log.clone())),
                DbConfig::new("T", ReplicaId(1), ReplicaId(2)),
                clock.clone(),
            )
            .unwrap();
            let mut n = Note::document("M");
            n.set("Subject", Value::text("durable"));
            db.save(&mut n).unwrap();
            log.crash();
            (n.id, n.unid())
        };
        let db = Database::open(
            Box::new(disk),
            Some(Box::new(log)),
            DbConfig::new("T", ReplicaId(1), ReplicaId(2)),
            clock,
        )
        .unwrap();
        let n = db.open_note(id).unwrap();
        assert_eq!(n.unid(), unid);
        assert_eq!(n.get_text("Subject").unwrap(), "durable");
    }

    #[test]
    fn acl_stored_and_reloaded() {
        let db = db();
        // Default is wide open.
        assert_eq!(
            db.acl().unwrap().default_entry().level,
            AccessLevel::Manager
        );
        let mut acl = Acl::new(AccessLevel::Reader);
        acl.set("boss", AclEntry::new(AccessLevel::Manager));
        db.set_acl(&acl).unwrap();
        let loaded = db.acl().unwrap();
        assert_eq!(loaded.default_entry().level, AccessLevel::Reader);
        assert_eq!(loaded.get("boss").unwrap().level, AccessLevel::Manager);
        // The ACL lives in an ACL-class note.
        assert_eq!(db.note_ids(Some(NoteClass::Acl)).unwrap().len(), 1);
    }

    #[test]
    fn db_info_snapshot() {
        let db = db();
        let mut a = Note::document("M");
        db.save(&mut a).unwrap();
        let mut b = Note::document("M");
        db.save(&mut b).unwrap();
        db.delete(b.id).unwrap();
        db.set_acl(&Acl::wide_open()).unwrap();
        let info = db.info().unwrap();
        assert_eq!(info.documents, 1);
        assert_eq!(info.design_notes, 1, "the ACL note");
        assert_eq!(info.deletion_stubs, 1);
        assert!(info.logical_bytes > 0);
        assert_eq!(info.title, "Test");
    }

    #[test]
    fn unread_marks() {
        let db = Arc::new(db());
        let mut a = Note::document("M");
        db.save(&mut a).unwrap();
        let mut b = Note::document("M");
        db.save(&mut b).unwrap();
        let ann = Session::new(db.clone(), "ann", Directory::new());
        let bob = Session::new(db.clone(), "bob", Directory::new());
        assert_eq!(ann.unread().unwrap().len(), 2);
        ann.mark_read(a.unid());
        assert_eq!(ann.unread().unwrap(), vec![b.unid()]);
        assert!(db.is_read("ann", a.unid()));
        assert_eq!(bob.unread().unwrap().len(), 2, "per-user");
    }

    // ---------------- session / security -----------------------------

    fn secured_db() -> (Arc<Database>, Directory) {
        let db = Arc::new(db());
        let mut dir = Directory::new();
        dir.add_group("team", ["editor-ed", "author-al", "reader-rita"]);
        let mut acl = Acl::new(AccessLevel::NoAccess);
        acl.set("editor-ed", AclEntry::new(AccessLevel::Editor));
        acl.set("author-al", AclEntry::new(AccessLevel::Author));
        acl.set("reader-rita", AclEntry::new(AccessLevel::Reader));
        acl.set(
            "manager-mo",
            AclEntry::new(AccessLevel::Manager).with_role("Audit"),
        );
        db.set_acl(&acl).unwrap();
        (db, dir)
    }

    #[test]
    fn session_create_requires_author_level() {
        let (db, dir) = secured_db();
        let al = Session::new(db.clone(), "author-al", dir.clone());
        let rita = Session::new(db, "reader-rita", dir);
        let mut n = Note::document("M");
        assert!(al.save(&mut n).is_ok());
        assert_eq!(n.get_text(ITEM_FROM).unwrap(), "author-al");
        let mut m = Note::document("M");
        assert_eq!(rita.save(&mut m).unwrap_err().kind(), "access_denied");
    }

    #[test]
    fn session_author_edits_own_docs_only() {
        let (db, dir) = secured_db();
        let al = Session::new(db.clone(), "author-al", dir.clone());
        let ed = Session::new(db.clone(), "editor-ed", dir.clone());
        let mut n = Note::document("M");
        al.save(&mut n).unwrap();
        // Editor edits anything.
        let mut copy = ed.open_note(n.id).unwrap();
        copy.set("X", Value::Number(1.0));
        ed.save(&mut copy).unwrap();
        // Author edits their own.
        let mut own = al.open_note(n.id).unwrap();
        own.set("Y", Value::Number(2.0));
        al.save(&mut own).unwrap();
        // Author cannot edit Ed's document.
        let mut eds = Note::document("M");
        ed.save(&mut eds).unwrap();
        let mut theirs = al.open_note(eds.id).unwrap();
        theirs.set("Z", Value::Number(3.0));
        assert_eq!(al.save(&mut theirs).unwrap_err().kind(), "access_denied");
    }

    #[test]
    fn session_reader_fields_hide_documents() {
        let (db, dir) = secured_db();
        let ed = Session::new(db.clone(), "editor-ed", dir.clone());
        let rita = Session::new(db.clone(), "reader-rita", dir.clone());
        let mo = Session::new(db, "manager-mo", dir);
        let mut n = Note::document("Secret");
        n.set_with_flags(
            ITEM_READERS,
            Value::text_list(["[Audit]"]),
            ItemFlags::SUMMARY | ItemFlags::READERS,
        );
        ed.save(&mut n).unwrap();
        // Rita (no role) can't read; Mo ([Audit]) can, despite both having
        // read-capable levels.
        assert_eq!(rita.open_note(n.id).unwrap_err().kind(), "access_denied");
        assert!(mo.open_note(n.id).is_ok());
        // Search filters too.
        let f = Formula::compile("SELECT @All").unwrap();
        assert_eq!(rita.search(&f).unwrap().len(), 0);
        assert_eq!(mo.search(&f).unwrap().len(), 1);
    }

    #[test]
    fn session_delete_rules() {
        let (db, dir) = secured_db();
        let al = Session::new(db.clone(), "author-al", dir.clone());
        let ed = Session::new(db.clone(), "editor-ed", dir.clone());
        let rita = Session::new(db, "reader-rita", dir);
        let mut own = Note::document("M");
        al.save(&mut own).unwrap();
        let mut eds = Note::document("M");
        ed.save(&mut eds).unwrap();
        assert_eq!(rita.delete(own.id).unwrap_err().kind(), "access_denied");
        assert_eq!(al.delete(eds.id).unwrap_err().kind(), "access_denied");
        al.delete(own.id).unwrap();
        ed.delete(eds.id).unwrap();
    }

    #[test]
    fn session_tracks_updated_by() {
        let (db, dir) = secured_db();
        let al = Session::new(db.clone(), "author-al", dir.clone());
        let ed = Session::new(db.clone(), "editor-ed", dir);
        let mut n = Note::document("M");
        al.save(&mut n).unwrap();
        let mut v = ed.open_note(n.id).unwrap();
        v.set("X", Value::Number(1.0));
        ed.save(&mut v).unwrap();
        // Two consecutive edits by the same user collapse to one entry.
        let mut w = ed.open_note(n.id).unwrap();
        w.set("X", Value::Number(2.0));
        ed.save(&mut w).unwrap();
        let editors = db
            .open_note(n.id)
            .unwrap()
            .get(ITEM_UPDATED_BY)
            .unwrap()
            .iter_scalars()
            .iter()
            .map(|s| s.to_text())
            .collect::<Vec<_>>();
        assert_eq!(editors, vec!["author-al", "editor-ed"]);
    }

    #[test]
    fn session_protected_items() {
        let (db, dir) = secured_db();
        let ed = Session::new(db.clone(), "editor-ed", dir.clone());
        let al = Session::new(db, "author-al", dir);
        let mut n = Note::document("M");
        al.save(&mut n).unwrap();
        // Editor adds a protected item.
        let mut v = ed.open_note(n.id).unwrap();
        v.set_with_flags(
            "ApprovedBy",
            Value::text("ed"),
            ItemFlags::SUMMARY | ItemFlags::PROTECTED,
        );
        ed.save(&mut v).unwrap();
        // The author can still edit other items...
        let mut w = al.open_note(n.id).unwrap();
        w.set("Notes", Value::text("ok"));
        al.save(&mut w).unwrap();
        // ...but not the protected one.
        let mut x = al.open_note(n.id).unwrap();
        x.set_with_flags(
            "ApprovedBy",
            Value::text("al"),
            ItemFlags::SUMMARY | ItemFlags::PROTECTED,
        );
        assert_eq!(al.save(&mut x).unwrap_err().kind(), "access_denied");
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;
    use domino_storage::MemDisk;
    use domino_types::{LogicalClock, ReplicaId, Value};
    use domino_wal::MemLogStore;

    #[test]
    fn compact_reclaims_space_and_preserves_content() {
        let db = Database::open_in_memory(
            DbConfig::new("Bloaty", ReplicaId(5), ReplicaId(6)),
            LogicalClock::new(),
        )
        .unwrap();
        // Big bodies first, then updates and deletions in bulk: the pages
        // they empty go to the free-page bitmap, and the file keeps its
        // length. (Interleaved, each save would take the page the last
        // delete freed and there would be nothing to reclaim.)
        let mut notes = Vec::new();
        for i in 0..100 {
            let mut n = Note::document("Doc");
            n.set("I", Value::Number(i as f64));
            n.set_body("Body", Value::RichText(vec![i as u8; 6000]));
            db.save(&mut n).unwrap();
            notes.push(n);
        }
        let mut keep = Vec::new();
        for (i, mut n) in notes.into_iter().enumerate() {
            if i % 2 == 0 {
                db.delete(n.id).unwrap();
            } else {
                n.set_body("Body", Value::RichText(vec![i as u8; 100]));
                db.save(&mut n).unwrap();
                keep.push(n.unid());
            }
        }
        let fresh = db
            .compact_into(Box::new(MemDisk::new()), Some(Box::new(MemLogStore::new())))
            .unwrap();
        let (before, after) = (db.info().unwrap(), fresh.info().unwrap());
        assert_eq!(after.documents + after.design_notes, 50);
        assert_eq!(after.deletion_stubs, 50);
        assert!(
            after.logical_bytes < before.logical_bytes / 2,
            "{} -> {}",
            before.logical_bytes,
            after.logical_bytes
        );
        // Content identical: same notes, same revisions, same stubs.
        assert_eq!(fresh.document_count().unwrap(), 50);
        for unid in keep {
            let a = db.open_by_unid(unid).unwrap();
            let b = fresh.open_by_unid(unid).unwrap();
            assert_eq!(a.oid, b.oid);
            assert_eq!(a.get("Body"), b.get("Body"));
        }
        assert_eq!(fresh.stubs().unwrap().len(), 50);
        assert_eq!(fresh.replica_id(), db.replica_id());
        assert_eq!(fresh.instance_id(), db.instance_id());
        // And the compacted copy still replicates as the same replica.
        let other = Database::open_in_memory(
            DbConfig::new("Bloaty", ReplicaId(5), ReplicaId(7)),
            LogicalClock::new(),
        )
        .unwrap();
        let mut r = domino_replica_stub::sync(&fresh, &other);
        assert!(
            r.is_ok() || {
                r = domino_replica_stub::sync(&fresh, &other);
                r.is_ok()
            }
        );
    }

    #[test]
    fn interleaved_churn_leaves_little_to_compact() {
        // Each save is followed at once by its delete or its shrinking
        // update, so the next save takes the pages just freed: the source
        // does not bloat under churn, and a copy has little to win back.
        let db = Database::open_in_memory(
            DbConfig::new("Churny", ReplicaId(5), ReplicaId(6)),
            LogicalClock::new(),
        )
        .unwrap();
        for i in 0..100 {
            let mut n = Note::document("Doc");
            n.set("I", Value::Number(i as f64));
            n.set_body("Body", Value::RichText(vec![i as u8; 6000]));
            db.save(&mut n).unwrap();
            if i % 2 == 0 {
                db.delete(n.id).unwrap();
            } else {
                n.set_body("Body", Value::RichText(vec![i as u8; 100]));
                db.save(&mut n).unwrap();
            }
        }
        let fresh = db
            .compact_into(Box::new(MemDisk::new()), Some(Box::new(MemLogStore::new())))
            .unwrap();
        let (before, after) = (db.info().unwrap(), fresh.info().unwrap());
        assert_eq!(after.documents + after.design_notes, 50);
        assert_eq!(after.deletion_stubs, 50);
        // `compact_reclaims_space_and_preserves_content`'s bound, the
        // other way round.
        assert!(
            after.logical_bytes >= before.logical_bytes / 2,
            "{} -> {}",
            before.logical_bytes,
            after.logical_bytes
        );
        assert_eq!(fresh.document_count().unwrap(), 50);
    }

    /// Minimal local stand-in to avoid a circular dev-dependency on
    /// domino-replica: push every note and stub across.
    mod domino_replica_stub {
        use super::*;
        pub fn sync(a: &Database, b: &Database) -> domino_types::Result<()> {
            for id in a.note_ids(None)? {
                b.save_replicated(a.open_note(id)?)?;
            }
            for stub in a.stubs()? {
                b.apply_remote_deletion(&stub)?;
            }
            Ok(())
        }
    }
}
