//! Sessions: the ACL-enforcing face of a database.
//!
//! A [`Session`] binds a database to a user (and the group directory) and
//! asks the reference monitor ([`crate::access`]) about every operation —
//! the enforcement points the paper describes for Notes clients and
//! servers.

use std::sync::Arc;

use domino_formula::{EvalEnv, Formula};
use domino_security::Directory;
use domino_types::{Clock, DominoError, NoteClass, NoteId, Result, Unid, Value};

use crate::access::Principal;
use crate::db::Database;
use crate::form::form_at;
use crate::mvcc::Snapshot;
use crate::note::Note;

/// Item stamped with the creating user (used for Author-level edit checks).
pub const ITEM_FROM: &str = "From";

/// Item accumulating the editors of each revision (bounded, like Notes'
/// `$UpdatedBy`).
pub const ITEM_UPDATED_BY: &str = "$UpdatedBy";

const MAX_UPDATED_BY: usize = 32;

fn stamp_updated_by(note: &mut Note, user: &str) {
    let mut editors: Vec<String> = match note.get(ITEM_UPDATED_BY) {
        Some(v) => v.iter_scalars().iter().map(|s| s.to_text()).collect(),
        None => Vec::new(),
    };
    if editors.last().map(|l| l.eq_ignore_ascii_case(user)) != Some(true) {
        editors.push(user.to_string());
        if editors.len() > MAX_UPDATED_BY {
            let drop = editors.len() - MAX_UPDATED_BY;
            editors.drain(..drop);
        }
        note.set(ITEM_UPDATED_BY, Value::TextList(editors));
    }
}

/// A user's handle on a database. Each operation decides on one snapshot
/// and the user's [`Principal`] in it.
pub struct Session {
    db: Arc<Database>,
    user: String,
    directory: Arc<Directory>,
}

impl Session {
    pub fn new(db: Arc<Database>, user: &str, directory: impl Into<Arc<Directory>>) -> Session {
        Session {
            db,
            user: user.to_string(),
            directory: directory.into(),
        }
    }

    /// Formula environment for this user (deterministic `@Now`).
    pub fn env(&self) -> EvalEnv {
        EvalEnv {
            username: self.user.clone(),
            now: self.db.clock().peek(),
            db_title: self.db.title(),
            ..EvalEnv::default()
        }
    }

    fn scope(&self) -> Result<(Snapshot, Principal)> {
        let snap = self.db.snapshot();
        let who = Principal::resolve(&snap, &self.directory, &self.user)?;
        Ok((snap, who))
    }

    /// Open a note, enforcing reader access. Reads come from a pinned
    /// snapshot and never wait on writers.
    pub fn open_note(&self, id: NoteId) -> Result<Note> {
        let (snap, who) = self.scope()?;
        let note = snap.open_note(id)?;
        who.require(who.may_read(&note), "read", note.unid())?;
        Ok(note)
    }

    /// Open a document by UNID (the URL commands' lookup): any other
    /// class of note is as unknown as a UNID never stored.
    pub fn open_by_unid(&self, unid: Unid) -> Result<Note> {
        self.document(unid, false)
    }

    /// [`Session::open_by_unid`], for a user who may also edit it (`?EditDocument`).
    pub fn open_for_edit(&self, unid: Unid) -> Result<Note> {
        self.document(unid, true)
    }

    fn document(&self, unid: Unid, edit: bool) -> Result<Note> {
        let (snap, who) = self.scope()?;
        let note = snap.open_by_unid(unid)?;
        if note.class != NoteClass::Document {
            return Err(DominoError::NotFound(format!("unid {unid}")));
        }
        who.require(who.may_read(&note), "read", unid)?;
        who.require(!edit || who.may_write(Some(&note), &note), "edit", unid)?;
        Ok(note)
    }

    /// Save (create or update) with create/edit enforcement. Creations are
    /// stamped with a `From` item naming the author. If a form design
    /// matching the note's `Form` item is stored in the database, its
    /// default/computed/validation formulas run first. The first engine
    /// read is the commit's own.
    pub fn save(&self, note: &mut Note) -> Result<()> {
        let (snap, who) = self.scope()?;
        let is_new = note.is_draft();
        if is_new {
            who.require(
                who.may_write(None, note),
                "create notes in",
                self.db.title(),
            )?;
            if !note.has(ITEM_FROM) {
                note.set(ITEM_FROM, Value::text(self.user.clone()));
            }
        }
        stamp_updated_by(note, &self.user);
        if let Some(form) = form_at(&snap, note)? {
            form.process(note, &self.env(), is_new)?;
        }
        if !is_new {
            let stored = snap.open_arc(note.id)?;
            who.require(who.may_write(Some(&stored), note), "edit", note.unid())?;
        }
        self.db.save(note)
    }

    /// Delete with enforcement (see [`Principal::may_delete`]).
    pub fn delete(&self, id: NoteId) -> Result<()> {
        let (snap, who) = self.scope()?;
        let stored = snap.open_arc(id)?;
        who.require(who.may_delete(&stored), "delete", id)?;
        self.db.delete(id).map(drop)
    }

    /// Search, returning only documents the user may read. Runs against
    /// one snapshot, so results are a consistent point-in-time answer.
    pub fn search(&self, formula: &Formula) -> Result<Vec<Note>> {
        let (snap, who) = self.scope()?;
        who.require(who.may_read_row(&[]), "search", self.db.title())?;
        let mut found = snap.search(formula, &self.env())?;
        found.retain(|n| who.may_read(n));
        Ok(found)
    }

    /// Unread documents for this user (readable ones only), ascending by
    /// note id. Listing and read checks come from one snapshot, so a
    /// concurrent delete cannot fail the call; the store keeps reader items
    /// in the summary (`Note::keep_access_items_in_summary`), so no body is
    /// read.
    pub fn unread(&self) -> Result<Vec<Unid>> {
        let (snap, who) = self.scope()?;
        Ok(snap
            .document_summaries()
            .iter()
            .filter(|doc| !self.db.is_read(&self.user, doc.unid()) && who.may_read(doc))
            .map(|doc| doc.unid())
            .collect())
    }

    /// Mark a document read for this user.
    pub fn mark_read(&self, unid: Unid) {
        self.db.mark_read(&self.user, unid);
    }
}
