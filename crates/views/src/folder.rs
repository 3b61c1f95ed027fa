//! Folders: user-curated document collections.
//!
//! A folder is a view without a selection formula — membership is explicit
//! (drag-and-drop in the Notes client). We store a folder as a `View`-class
//! design note whose `Members` item lists document UNIDs, so folders
//! replicate (and conflict) like any other note.

use std::sync::Arc;

use domino_core::{Database, Note, Snapshot};
use domino_types::{DominoError, NoteClass, Result, Unid, Value};

const FOLDER_TYPE: &str = "Folder";

/// A handle to a stored folder.
pub struct Folder {
    db: Arc<Database>,
    unid: Unid,
}

impl std::fmt::Debug for Folder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Folder").field("unid", &self.unid).finish()
    }
}

impl Folder {
    /// Create a folder (error if the name is taken by another folder or
    /// by a stored view design: the two share a namespace).
    pub fn create(db: &Arc<Database>, name: &str) -> Result<Folder> {
        if db.snapshot().design_note(NoteClass::View, name)?.is_some() {
            return Err(DominoError::AlreadyExists(format!(
                "view or folder {name:?}"
            )));
        }
        let mut note = Note::new(NoteClass::View);
        note.set("$TITLE", Value::text(name));
        note.set("Type", Value::text(FOLDER_TYPE));
        note.set("Members", Value::TextList(Vec::new()));
        db.save(&mut note)?;
        Ok(Folder {
            db: db.clone(),
            unid: note.unid(),
        })
    }

    /// Open an existing folder by name.
    pub fn open(db: &Arc<Database>, name: &str) -> Result<Folder> {
        let note = find_folder_note(db, name)?
            .ok_or_else(|| DominoError::NotFound(format!("folder {name:?}")))?;
        Ok(Folder {
            db: db.clone(),
            unid: note.unid(),
        })
    }

    /// The folder's design note as of `snap`. Each method below pins one
    /// snapshot and takes the folder and its member documents from it.
    fn load(&self, snap: &Snapshot) -> Result<Note> {
        snap.open_by_unid(self.unid)
    }

    pub fn name(&self) -> Result<String> {
        let note = self.load(&self.db.snapshot())?;
        Ok(note.get_text("$TITLE").unwrap_or_default())
    }

    fn members_of(note: &Note) -> Vec<Unid> {
        note.get("Members")
            .map(|v| {
                v.iter_scalars()
                    .iter()
                    .filter_map(|s| u128::from_str_radix(&s.to_text(), 16).ok().map(Unid))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn store_members(&self, mut note: Note, members: &[Unid]) -> Result<()> {
        note.set(
            "Members",
            Value::TextList(members.iter().map(|u| format!("{:032X}", u.0)).collect()),
        );
        self.db.save(&mut note)
    }

    /// Add a document (no-op if already present). The document must exist.
    pub fn add(&self, unid: Unid) -> Result<()> {
        let snap = self.db.snapshot();
        if !snap.contains(unid) {
            return Err(DominoError::NotFound(format!("unid {unid}")));
        }
        let note = self.load(&snap)?;
        let mut members = Self::members_of(&note);
        if members.contains(&unid) {
            return Ok(());
        }
        members.push(unid);
        self.store_members(note, &members)
    }

    /// Remove a document; returns whether it was present.
    pub fn remove(&self, unid: Unid) -> Result<bool> {
        let note = self.load(&self.db.snapshot())?;
        let mut members = Self::members_of(&note);
        let before = members.len();
        members.retain(|m| *m != unid);
        if members.len() == before {
            return Ok(false);
        }
        self.store_members(note, &members)?;
        Ok(true)
    }

    /// Member UNIDs in folder order. Members whose documents have since
    /// been deleted are skipped (the stub stays in the list until
    /// [`Folder::prune`]).
    pub fn members(&self) -> Result<Vec<Unid>> {
        Ok(Self::members_of(&self.load(&self.db.snapshot())?))
    }

    /// The live documents, in folder order.
    pub fn documents(&self) -> Result<Vec<Note>> {
        let snap = self.db.snapshot();
        Ok(Self::members_of(&self.load(&snap)?)
            .into_iter()
            .filter_map(|unid| snap.open_by_unid(unid).ok())
            .collect())
    }

    pub fn len(&self) -> Result<usize> {
        Ok(self.members()?.len())
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.members()?.is_empty())
    }

    /// Drop members whose documents no longer exist. Returns how many were
    /// pruned.
    pub fn prune(&self) -> Result<usize> {
        let snap = self.db.snapshot();
        let note = self.load(&snap)?;
        let members = Self::members_of(&note);
        let live: Vec<Unid> = members
            .iter()
            .copied()
            .filter(|u| snap.contains(*u))
            .collect();
        let pruned = members.len() - live.len();
        if pruned > 0 {
            self.store_members(note, &live)?;
        }
        Ok(pruned)
    }
}

pub(crate) fn is_folder(note: &Note) -> bool {
    note.get_text("Type").as_deref() == Some(FOLDER_TYPE)
}

/// The folder titled `name`. Folders and views share the `View` class and
/// with it one namespace: a title a view design holds is not a folder.
pub(crate) fn find_folder_note(db: &Database, name: &str) -> Result<Option<Arc<Note>>> {
    let note = db.snapshot().design_note(NoteClass::View, name)?;
    Ok(note.filter(|n| is_folder(n)))
}

/// Names of every folder in the database.
pub fn list_folders(db: &Database) -> Result<Vec<String>> {
    let mut out: Vec<String> = db
        .snapshot()
        .design_notes(NoteClass::View)?
        .iter()
        .filter(|note| is_folder(note))
        .map(|note| note.get_text("$TITLE").unwrap_or_default())
        .collect();
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::DbConfig;
    use domino_types::{LogicalClock, ReplicaId};

    fn db() -> Arc<Database> {
        Arc::new(
            Database::open_in_memory(
                DbConfig::new("T", ReplicaId(1), ReplicaId(2)),
                LogicalClock::new(),
            )
            .unwrap(),
        )
    }

    fn doc(db: &Database, subject: &str) -> Note {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(subject));
        db.save(&mut n).unwrap();
        n
    }

    #[test]
    fn create_open_add_remove() {
        let db = db();
        let folder = Folder::create(&db, "To Do").unwrap();
        let a = doc(&db, "first");
        let b = doc(&db, "second");
        folder.add(a.unid()).unwrap();
        folder.add(b.unid()).unwrap();
        folder.add(a.unid()).unwrap(); // dedup
        assert_eq!(folder.len().unwrap(), 2);
        let again = Folder::open(&db, "To Do").unwrap();
        let subjects: Vec<String> = again
            .documents()
            .unwrap()
            .iter()
            .map(|d| d.get_text("Subject").unwrap())
            .collect();
        assert_eq!(subjects, vec!["first", "second"], "folder order preserved");
        assert!(again.remove(a.unid()).unwrap());
        assert!(!again.remove(a.unid()).unwrap());
        assert_eq!(again.len().unwrap(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let db = db();
        Folder::create(&db, "X").unwrap();
        assert_eq!(
            Folder::create(&db, "X").unwrap_err().kind(),
            "already_exists"
        );
        assert!(Folder::open(&db, "missing").is_err());
    }

    #[test]
    fn adding_missing_document_fails() {
        let db = db();
        let folder = Folder::create(&db, "F").unwrap();
        assert!(folder.add(domino_types::Unid(0xDEAD)).is_err());
    }

    #[test]
    fn deleted_documents_skip_and_prune() {
        let db = db();
        let folder = Folder::create(&db, "F").unwrap();
        let a = doc(&db, "keep");
        let b = doc(&db, "delete-me");
        folder.add(a.unid()).unwrap();
        folder.add(b.unid()).unwrap();
        db.delete(b.id).unwrap();
        assert_eq!(folder.documents().unwrap().len(), 1);
        assert_eq!(folder.members().unwrap().len(), 2, "stub member lingers");
        assert_eq!(folder.prune().unwrap(), 1);
        assert_eq!(folder.members().unwrap().len(), 1);
    }

    #[test]
    fn list_folders_excludes_views() {
        let db = db();
        Folder::create(&db, "B-folder").unwrap();
        Folder::create(&db, "A-folder").unwrap();
        // A real view design note must not appear.
        let design = crate::ViewDesign::new("a view", "SELECT @All").unwrap();
        let mut note = design.to_note();
        db.save(&mut note).unwrap();
        assert_eq!(list_folders(&db).unwrap(), vec!["A-folder", "B-folder"]);
    }

    #[test]
    fn folders_replicate_as_notes() {
        let a = db();
        let b = Arc::new(
            Database::open_in_memory(
                DbConfig::new("T", ReplicaId(1), ReplicaId(3)),
                LogicalClock::starting_at(domino_types::Timestamp(50)),
            )
            .unwrap(),
        );
        let folder = Folder::create(&a, "Shared").unwrap();
        let d = doc(&a, "in folder");
        folder.add(d.unid()).unwrap();
        for id in a.note_ids(None).unwrap() {
            b.save_replicated(a.open_note(id).unwrap()).unwrap();
        }
        let remote = Folder::open(&b, "Shared").unwrap();
        assert_eq!(remote.members().unwrap(), vec![d.unid()]);
    }
}
