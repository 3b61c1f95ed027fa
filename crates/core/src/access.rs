//! The reference monitor: the one place that decides who may read, write
//! or delete a note.
//!
//! A [`Principal`] is resolved once per operation from one snapshot's ACL
//! and the group directory: effective level and roles, the sorted alias
//! set, and the command-cache access class digesting them. It answers
//! three questions about one version of one note, by class: a Document by
//! the ACL and its own `$Readers`/`$Authors` items (a view row by the
//! reader list it carries), a form, view or agent by Designer, the ACL
//! and info notes by Manager; any level from Reader up reads a design or
//! ACL note. DESIGN.md §5, "security: Reference monitor", has the table.

use std::fmt::Display;
use std::hash::{Hash, Hasher};

use domino_security::acl::EffectiveAccess;
use domino_security::{AccessLevel, Directory};
use domino_types::{DominoError, ItemFlags, NoteClass, Result};

use crate::mvcc::Snapshot;
use crate::note::Note;
use crate::session::ITEM_FROM;

/// One user's rights in one database state.
#[derive(Debug, Clone)]
pub struct Principal {
    user: String,
    access: EffectiveAccess,
    /// Every name the user answers to (themself included), lowercased,
    /// sorted and deduplicated.
    names: Vec<String>,
    access_class: u64,
}

/// Who may write or delete a note of `class` where the class alone
/// decides: every class but Document.
fn by_class(level: AccessLevel, class: NoteClass) -> Option<bool> {
    match class {
        NoteClass::Document => None,
        NoteClass::Form | NoteClass::View | NoteClass::Agent => Some(level.can_change_design()),
        NoteClass::Acl | NoteClass::Info => Some(level.can_change_acl()),
    }
}

impl Principal {
    /// `user`'s rights under the ACL stored at `snap`.
    pub fn resolve(snap: &Snapshot, directory: &Directory, user: &str) -> Result<Principal> {
        let mut access = snap.acl()?.effective(directory, user);
        access.roles.sort_unstable();
        let mut names = directory.names_of(user);
        names.sort_unstable();
        names.dedup();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (&access.level, &access.roles, &names).hash(&mut h);
        Ok(Principal {
            user: user.to_string(),
            access,
            names,
            access_class: h.finish(),
        })
    }

    /// Digest of everything the read question consumes: principals share
    /// it only if no reader list can tell them apart, so a cached page
    /// keyed by it never crosses an access boundary.
    pub fn access_class(&self) -> u64 {
        self.access_class
    }

    /// May this version of `note` be read?
    pub fn may_read(&self, note: &Note) -> bool {
        match note.class {
            NoteClass::Document => self.may_read_row(&note.readers()),
            _ => self.access.level.can_read(),
        }
    }

    /// May a Document version whose combined `$Readers` list is `readers`
    /// be read (a view row carries the list of the version it shows)? An
    /// empty list is unrestricted, so `may_read_row(&[])` is whether the
    /// principal may read the database at all.
    pub fn may_read_row(&self, readers: &[String]) -> bool {
        can_read_document(&self.access, &self.names, readers)
    }

    /// May `note` be saved over `stored` (`None`: `note` is new)? A
    /// class change must be allowed for both classes.
    pub fn may_write(&self, stored: Option<&Note>, note: &Note) -> bool {
        let level = self.access.level;
        let Some(stored) = stored else {
            return by_class(level, note.class).unwrap_or(level.can_create());
        };
        by_class(level, note.class).unwrap_or(true)
            && by_class(level, stored.class).unwrap_or_else(|| {
                self.may_edit(stored, &stored.authors())
                    && (level.can_edit_any() || protected_unchanged(stored, note))
            })
    }

    /// May this version of `stored` be deleted? A `$Authors` list grants
    /// editing, not deletion.
    pub fn may_delete(&self, stored: &Note) -> bool {
        by_class(self.access.level, stored.class).unwrap_or_else(|| self.may_edit(stored, &[]))
    }

    /// Readable, and at Editor and up, or at Author level with this
    /// principal its creator or named in `authors`.
    fn may_edit(&self, stored: &Note, authors: &[String]) -> bool {
        let creator = stored.get_text(ITEM_FROM).unwrap_or_default();
        self.may_read(stored) && can_edit_document(&self.access, &self.names, authors, &creator)
    }

    /// `Ok` if `allowed`, else the denial naming what was refused.
    pub fn require(&self, allowed: bool, action: &str, target: impl Display) -> Result<()> {
        if allowed {
            return Ok(());
        }
        let level = self.access.level.name();
        let denial = format!("{} ({level}) may not {action} {target}", self.user);
        Err(DominoError::AccessDenied(denial))
    }
}

/// Every `PROTECTED` item of `stored` is in `note` with the same value.
fn protected_unchanged(stored: &Note, note: &Note) -> bool {
    stored
        .items_raw()
        .iter()
        .filter(|old| old.flags.contains(ItemFlags::PROTECTED))
        .all(|old| {
            note.items_raw()
                .iter()
                .any(|new| new.name.eq_ignore_ascii_case(&old.name) && new.value == old.value)
        })
}

// Per-document reader/author policy. A document with any `$Readers`-
// flagged item is visible only to names on that list (user, group, or
// `[Role]`), whatever the ACL level, but the list never grants more than
// the ACL does. `$Authors` items work the other way: they let Author-level
// users edit documents they did not create.

/// Does any entry of `list` name the user (one of `user_names`, lowercase)
/// or one of their `[Roles]`?
fn list_matches(access: &EffectiveAccess, user_names: &[String], list: &[String]) -> bool {
    list.iter().any(|entry| {
        let e = entry.trim();
        if let Some(role) = e.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            access.roles.iter().any(|r| r.eq_ignore_ascii_case(role))
        } else {
            user_names.iter().any(|n| n.eq_ignore_ascii_case(e))
        }
    })
}

/// May the user read a document whose combined `$Readers` lists are
/// `readers`? An empty list means "unrestricted".
///
/// `user_names` must be the user's full alias set
/// ([`Directory::names_of`]).
fn can_read_document(access: &EffectiveAccess, user_names: &[String], readers: &[String]) -> bool {
    if !access.level.can_read() {
        return false;
    }
    if readers.is_empty() {
        return true;
    }
    list_matches(access, user_names, readers)
}

/// May the user edit a document? Editors and above always can. Authors can
/// if a `$Authors` list names them or they are the document's author.
///
/// `authors` is the combined `$Authors` lists; `doc_author` the stored
/// creator name.
fn can_edit_document(
    access: &EffectiveAccess,
    user_names: &[String],
    authors: &[String],
    doc_author: &str,
) -> bool {
    if access.level.can_edit_any() {
        return true;
    }
    if !access.level.can_create() || !access.level.can_read() {
        // Depositors may create but never edit.
        return false;
    }
    // Author level.
    if user_names
        .iter()
        .any(|n| n.eq_ignore_ascii_case(doc_author))
    {
        return true;
    }
    list_matches(access, user_names, authors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_security::{Acl, AclEntry};

    fn eff(level: AccessLevel, roles: &[&str]) -> EffectiveAccess {
        EffectiveAccess {
            level,
            roles: roles.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn names(user: &str) -> Vec<String> {
        vec![user.to_lowercase()]
    }

    #[test]
    fn empty_readers_means_unrestricted() {
        assert!(can_read_document(
            &eff(AccessLevel::Reader, &[]),
            &names("a"),
            &[]
        ));
    }

    #[test]
    fn no_access_never_reads() {
        let r = vec!["a".to_string()];
        assert!(!can_read_document(
            &eff(AccessLevel::NoAccess, &[]),
            &names("a"),
            &r
        ));
        assert!(!can_read_document(
            &eff(AccessLevel::Depositor, &[]),
            &names("a"),
            &[]
        ));
    }

    #[test]
    fn reader_list_filters_by_name_case_insensitive() {
        let readers = vec!["Alice".to_string(), "Bob".to_string()];
        assert!(can_read_document(
            &eff(AccessLevel::Editor, &[]),
            &names("ALICE"),
            &readers
        ));
        assert!(!can_read_document(
            &eff(AccessLevel::Manager, &[]),
            &names("carol"),
            &readers
        ));
    }

    #[test]
    fn reader_list_matches_groups() {
        let readers = vec!["HR".to_string()];
        let mut user_names = names("dana");
        user_names.push("hr".to_string()); // from Directory::names_of
        assert!(can_read_document(
            &eff(AccessLevel::Reader, &[]),
            &user_names,
            &readers
        ));
    }

    #[test]
    fn reader_list_matches_roles() {
        let readers = vec!["[Auditors]".to_string()];
        assert!(can_read_document(
            &eff(AccessLevel::Reader, &["Auditors"]),
            &names("eve"),
            &readers
        ));
        assert!(!can_read_document(
            &eff(AccessLevel::Reader, &["Other"]),
            &names("eve"),
            &readers
        ));
    }

    #[test]
    fn editors_edit_everything() {
        assert!(can_edit_document(
            &eff(AccessLevel::Editor, &[]),
            &names("x"),
            &[],
            "someone-else"
        ));
    }

    #[test]
    fn authors_edit_own_documents_only() {
        let a = eff(AccessLevel::Author, &[]);
        assert!(can_edit_document(&a, &names("ann"), &[], "Ann"));
        assert!(!can_edit_document(&a, &names("ann"), &[], "bob"));
    }

    #[test]
    fn authors_field_extends_editability() {
        let a = eff(AccessLevel::Author, &[]);
        let authors = vec!["ann".to_string()];
        assert!(can_edit_document(&a, &names("ann"), &authors, "bob"));
        // ...but never below Author level.
        let r = eff(AccessLevel::Reader, &[]);
        assert!(!can_edit_document(&r, &names("ann"), &authors, "bob"));
    }

    #[test]
    fn depositor_cannot_edit() {
        let d = eff(AccessLevel::Depositor, &[]);
        assert!(!can_edit_document(&d, &names("ann"), &[], "ann"));
    }

    /// End-to-end policy check: ACL + groups + reader fields together.
    #[test]
    fn acl_and_reader_fields_compose() {
        let mut dir = Directory::new();
        dir.add_group("HR", ["alice", "bob"]);

        let mut acl = Acl::new(AccessLevel::NoAccess);
        acl.set(
            "HR",
            AclEntry::new(AccessLevel::Reader).with_role("Personnel"),
        );
        acl.set("carol", AclEntry::new(AccessLevel::Editor));

        // Alice reads via the HR group...
        let alice = acl.effective(&dir, "alice");
        assert_eq!(alice.level, AccessLevel::Reader);
        // ...but a reader field naming only [Personnel] role holders still
        // admits her, while excluding Carol despite Editor access.
        let readers = vec!["[Personnel]".to_string()];
        assert!(can_read_document(&alice, &dir.names_of("alice"), &readers));
        let carol = acl.effective(&dir, "carol");
        assert!(!can_read_document(&carol, &dir.names_of("carol"), &readers));
    }
}
