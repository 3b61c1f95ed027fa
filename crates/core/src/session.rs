//! Sessions: the ACL-enforcing face of a database.
//!
//! A [`Session`] binds a database to a user (and the group directory) and
//! checks every operation against the effective ACL level, per-document
//! `$Readers`/`$Authors` items, and protected-item rules — the enforcement
//! points the paper describes for Notes clients and servers.

use std::sync::Arc;

use domino_formula::{EvalEnv, Formula};
use domino_security::acl::EffectiveAccess;
use domino_security::{can_edit_document, can_read_document, AccessLevel, Directory};
use domino_types::{Clock, DominoError, ItemFlags, NoteId, Result, Unid, Value};

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

/// A user's handle on a database.
pub struct Session {
    db: Arc<Database>,
    user: String,
    directory: Directory,
}

/// One database state and this user's rights in it. Every [`Session`]
/// operation pins exactly one: the ACL (parsed once), the form design and
/// the stored copy it decides on all come from the same snapshot, so the
/// decision describes one state of the database, and nothing in it reads
/// the engine (bar the one-time hydration of a lazily seeded note).
struct Scope {
    snap: Snapshot,
    access: EffectiveAccess,
    /// Every name the user answers to (themself included), lowercased.
    names: Vec<String>,
}

impl Scope {
    fn can_read(&self, note: &Note) -> bool {
        can_read_document(&self.access, &self.names, &note.readers())
    }
}

impl Session {
    pub fn new(db: Arc<Database>, user: &str, directory: Directory) -> Session {
        Session {
            db,
            user: user.to_string(),
            directory,
        }
    }

    pub fn user(&self) -> &str {
        &self.user
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
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

    fn scope(&self) -> Result<Scope> {
        let snap = self.db.snapshot();
        let access = snap.acl()?.effective(&self.directory, &self.user);
        Ok(Scope {
            snap,
            access,
            names: self.directory.names_of(&self.user),
        })
    }

    fn readable(&self, scope: &Scope, note: &Note) -> Result<()> {
        if scope.can_read(note) {
            Ok(())
        } else {
            Err(DominoError::AccessDenied(format!(
                "{} may not read {}",
                self.user,
                note.unid()
            )))
        }
    }

    /// Open a note, enforcing reader access. Reads come from a pinned
    /// snapshot and never wait on writers.
    pub fn open_note(&self, id: NoteId) -> Result<Note> {
        let scope = self.scope()?;
        let note = scope.snap.open_note(id)?;
        self.readable(&scope, &note)?;
        Ok(note)
    }

    pub fn open_by_unid(&self, unid: Unid) -> Result<Note> {
        let scope = self.scope()?;
        let note = scope.snap.open_by_unid(unid)?;
        self.readable(&scope, &note)?;
        Ok(note)
    }

    /// Save (create or update) with create/edit enforcement. Creations are
    /// stamped with a `From` item naming the author. If a form design
    /// matching the note's `Form` item is stored in the database, its
    /// default/computed/validation formulas run first. The first engine
    /// read is the commit's own.
    pub fn save(&self, note: &mut Note) -> Result<()> {
        let scope = self.scope()?;
        let access = &scope.access;
        let is_new = note.is_draft();
        if is_new {
            if !access.level.can_create() {
                return Err(DominoError::AccessDenied(format!(
                    "{} ({}) may not create documents",
                    self.user,
                    access.level.name()
                )));
            }
            if !note.has(ITEM_FROM) {
                note.set(ITEM_FROM, Value::text(self.user.clone()));
            }
        }
        stamp_updated_by(note, &self.user);
        if let Some(form) = form_at(&scope.snap, note)? {
            form.process(note, &self.env(), is_new)?;
        }
        if is_new {
            return self.db.save(note);
        }

        // Update path: check edit rights against the stored copy.
        let stored = scope.snap.open_arc(note.id)?;
        self.readable(&scope, &stored)?;
        let author = stored.get_text(ITEM_FROM).unwrap_or_default();
        if !can_edit_document(access, &scope.names, &stored.authors(), &author) {
            return Err(DominoError::AccessDenied(format!(
                "{} may not edit {}",
                self.user,
                note.unid()
            )));
        }
        // Author-level users may not alter protected items.
        if !access.level.can_edit_any() {
            for old in stored.items_raw() {
                if old.flags.contains(ItemFlags::PROTECTED) {
                    let changed = match note
                        .items_raw()
                        .iter()
                        .find(|n| n.name.eq_ignore_ascii_case(&old.name))
                    {
                        Some(new) => new.value != old.value,
                        None => true,
                    };
                    if changed {
                        return Err(DominoError::AccessDenied(format!(
                            "item {} is protected",
                            old.name
                        )));
                    }
                }
            }
        }
        self.db.save(note)
    }

    /// Delete with enforcement (Editor+, or the document's author).
    pub fn delete(&self, id: NoteId) -> Result<()> {
        let scope = self.scope()?;
        let stored = scope.snap.open_arc(id)?;
        self.readable(&scope, &stored)?;
        let author = stored.get_text(ITEM_FROM).unwrap_or_default();
        let level = scope.access.level;
        let may = level.can_delete()
            || (level == AccessLevel::Author
                && scope.names.iter().any(|n| n.eq_ignore_ascii_case(&author)));
        if !may {
            return Err(DominoError::AccessDenied(format!(
                "{} may not delete {}",
                self.user, id
            )));
        }
        self.db.delete(id)?;
        Ok(())
    }

    /// Search, returning only documents the user may read. Runs against
    /// one snapshot, so results are a consistent point-in-time answer.
    pub fn search(&self, formula: &Formula) -> Result<Vec<Note>> {
        let scope = self.scope()?;
        if !scope.access.level.can_read() {
            return Err(DominoError::AccessDenied(format!(
                "{} may not read {}",
                self.user,
                self.db.title()
            )));
        }
        let mut found = scope.snap.search(formula, &self.env())?;
        found.retain(|n| scope.can_read(n));
        Ok(found)
    }

    /// Unread documents for this user (readable ones only), ascending by
    /// note id. Listing and read checks come from one snapshot, so a
    /// concurrent delete cannot fail the call; the store keeps reader items
    /// in the summary (`Note::keep_access_items_in_summary`), so no body is
    /// read.
    pub fn unread(&self) -> Result<Vec<Unid>> {
        let scope = self.scope()?;
        Ok(scope
            .snap
            .document_summaries()
            .iter()
            .filter(|doc| !self.db.is_read(&self.user, doc.unid()) && scope.can_read(doc))
            .map(|doc| doc.unid())
            .collect())
    }

    /// Mark a document read for this user.
    pub fn mark_read(&self, unid: Unid) {
        self.db.mark_read(&self.user, unid);
    }
}
