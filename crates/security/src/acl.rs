//! Access-control lists, roles, and the group directory.

use std::collections::HashMap;

/// The seven Notes access levels, in increasing order of privilege.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AccessLevel {
    /// May not open the database.
    #[default]
    NoAccess,
    /// May create documents but read none (drop-box databases).
    Depositor,
    /// May read documents (subject to reader fields).
    Reader,
    /// Reader + may create documents and edit those they authored.
    Author,
    /// May edit all documents.
    Editor,
    /// Editor + may change design notes (forms, views).
    Designer,
    /// Designer + may change the ACL itself.
    Manager,
}

impl AccessLevel {
    pub const ALL: [AccessLevel; 7] = [
        AccessLevel::NoAccess,
        AccessLevel::Depositor,
        AccessLevel::Reader,
        AccessLevel::Author,
        AccessLevel::Editor,
        AccessLevel::Designer,
        AccessLevel::Manager,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AccessLevel::NoAccess => "NoAccess",
            AccessLevel::Depositor => "Depositor",
            AccessLevel::Reader => "Reader",
            AccessLevel::Author => "Author",
            AccessLevel::Editor => "Editor",
            AccessLevel::Designer => "Designer",
            AccessLevel::Manager => "Manager",
        }
    }

    pub fn parse(s: &str) -> Option<AccessLevel> {
        AccessLevel::ALL
            .into_iter()
            .find(|l| l.name().eq_ignore_ascii_case(s))
    }

    /// May open the database and read (some) documents.
    pub fn can_read(self) -> bool {
        self >= AccessLevel::Reader
    }

    /// May create new documents.
    pub fn can_create(self) -> bool {
        self == AccessLevel::Depositor || self >= AccessLevel::Author
    }

    /// May edit arbitrary documents (authors handled separately).
    pub fn can_edit_any(self) -> bool {
        self >= AccessLevel::Editor
    }

    pub fn can_change_design(self) -> bool {
        self >= AccessLevel::Designer
    }

    pub fn can_change_acl(self) -> bool {
        self >= AccessLevel::Manager
    }
}

/// One ACL row: a level plus role memberships.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AclEntry {
    pub level: AccessLevel,
    pub roles: Vec<String>,
}

impl AclEntry {
    pub fn new(level: AccessLevel) -> AclEntry {
        AclEntry {
            level,
            roles: Vec::new(),
        }
    }

    pub fn with_role(mut self, role: impl Into<String>) -> AclEntry {
        self.roles.push(role.into());
        self
    }
}

/// A user's *effective* access once group memberships are folded in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EffectiveAccess {
    pub level: AccessLevel,
    pub roles: Vec<String>,
}

/// The group directory (Domino's Name & Address Book, reduced to what ACL
/// evaluation needs). Group membership is transitive.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    groups: HashMap<String, Vec<String>>, // lowercase group -> members
}

impl Directory {
    pub fn new() -> Directory {
        Directory::default()
    }

    pub fn add_group<I, S>(&mut self, name: &str, members: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.groups
            .entry(name.to_lowercase())
            .or_default()
            .extend(members.into_iter().map(|m| m.into().to_lowercase()));
    }

    /// All names `user` answers to: themself plus every group reachable
    /// through membership (transitively), lowercased.
    pub fn names_of(&self, user: &str) -> Vec<String> {
        let mut names = vec![user.to_lowercase()];
        let mut i = 0;
        while i < names.len() {
            for (group, members) in &self.groups {
                if members.contains(&names[i]) && !names.contains(group) {
                    names.push(group.clone());
                }
            }
            i += 1;
        }
        names
    }
}

/// The database access-control list.
#[derive(Debug, Clone, Default)]
pub struct Acl {
    entries: HashMap<String, AclEntry>, // lowercase name -> entry
    default_entry: AclEntry,
}

impl Acl {
    pub fn new(default_level: AccessLevel) -> Acl {
        Acl {
            entries: HashMap::new(),
            default_entry: AclEntry::new(default_level),
        }
    }

    /// A permissive ACL for tests and single-user databases.
    pub fn wide_open() -> Acl {
        Acl::new(AccessLevel::Manager)
    }

    pub fn set(&mut self, name: &str, entry: AclEntry) {
        self.entries.insert(name.to_lowercase(), entry);
    }

    pub fn remove(&mut self, name: &str) -> Option<AclEntry> {
        self.entries.remove(&name.to_lowercase())
    }

    pub fn get(&self, name: &str) -> Option<&AclEntry> {
        self.entries.get(&name.to_lowercase())
    }

    pub fn default_entry(&self) -> &AclEntry {
        &self.default_entry
    }

    pub fn set_default(&mut self, entry: AclEntry) {
        self.default_entry = entry;
    }

    /// Compute effective access: the *highest* level among the user's own
    /// entry and group entries (roles union across all matches); the
    /// -Default- entry applies only when nothing matches.
    pub fn effective(&self, dir: &Directory, user: &str) -> EffectiveAccess {
        let names = dir.names_of(user);
        let mut matched = false;
        let mut level = AccessLevel::NoAccess;
        let mut roles: Vec<String> = Vec::new();
        for name in &names {
            if let Some(entry) = self.entries.get(name) {
                matched = true;
                level = level.max(entry.level);
                for r in &entry.roles {
                    if !roles.iter().any(|x| x.eq_ignore_ascii_case(r)) {
                        roles.push(r.clone());
                    }
                }
            }
        }
        if !matched {
            return EffectiveAccess {
                level: self.default_entry.level,
                roles: self.default_entry.roles.clone(),
            };
        }
        // Deterministic order (group iteration order is not).
        roles.sort_unstable();
        EffectiveAccess { level, roles }
    }

    // --- serialization (the ACL note stores this as a text list) ---------

    /// Encode as text lines `name|level|role,role`. The default entry is
    /// the name `-Default-`.
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "-Default-|{}|{}",
            self.default_entry.level.name(),
            self.default_entry.roles.join(",")
        )];
        let mut names: Vec<&String> = self.entries.keys().collect();
        names.sort();
        for name in names {
            let e = &self.entries[name];
            lines.push(format!("{name}|{}|{}", e.level.name(), e.roles.join(",")));
        }
        lines
    }

    pub fn from_lines(lines: &[String]) -> Option<Acl> {
        let mut acl = Acl::new(AccessLevel::NoAccess);
        for line in lines {
            let mut parts = line.splitn(3, '|');
            let name = parts.next()?;
            let level = AccessLevel::parse(parts.next()?)?;
            let roles: Vec<String> = parts
                .next()
                .unwrap_or("")
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.to_string())
                .collect();
            let entry = AclEntry { level, roles };
            if name.eq_ignore_ascii_case("-Default-") {
                acl.default_entry = entry;
            } else {
                acl.set(name, entry);
            }
        }
        Some(acl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        for w in AccessLevel::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn level_capabilities() {
        assert!(!AccessLevel::NoAccess.can_read());
        assert!(AccessLevel::Depositor.can_create());
        assert!(!AccessLevel::Depositor.can_read());
        assert!(AccessLevel::Reader.can_read());
        assert!(!AccessLevel::Reader.can_create());
        assert!(AccessLevel::Author.can_create());
        assert!(!AccessLevel::Author.can_edit_any());
        assert!(AccessLevel::Editor.can_edit_any());
        assert!(!AccessLevel::Editor.can_change_design());
        assert!(AccessLevel::Designer.can_change_design());
        assert!(!AccessLevel::Designer.can_change_acl());
        assert!(AccessLevel::Manager.can_change_acl());
    }

    #[test]
    fn names_roundtrip() {
        for l in AccessLevel::ALL {
            assert_eq!(AccessLevel::parse(l.name()), Some(l));
        }
        assert_eq!(AccessLevel::parse("editor"), Some(AccessLevel::Editor));
        assert_eq!(AccessLevel::parse("nope"), None);
    }

    #[test]
    fn default_applies_only_without_match() {
        let mut acl = Acl::new(AccessLevel::Reader);
        acl.set("bob", AclEntry::new(AccessLevel::NoAccess));
        let dir = Directory::new();
        assert_eq!(acl.effective(&dir, "alice").level, AccessLevel::Reader);
        assert_eq!(acl.effective(&dir, "Bob").level, AccessLevel::NoAccess);
    }

    #[test]
    fn highest_level_among_groups_wins() {
        let mut dir = Directory::new();
        dir.add_group("staff", ["ann"]);
        dir.add_group("admins", ["ann"]);
        let mut acl = Acl::new(AccessLevel::NoAccess);
        acl.set("staff", AclEntry::new(AccessLevel::Reader).with_role("R1"));
        acl.set(
            "admins",
            AclEntry::new(AccessLevel::Manager).with_role("R2"),
        );
        let eff = acl.effective(&dir, "ann");
        assert_eq!(eff.level, AccessLevel::Manager);
        assert_eq!(eff.roles, vec!["R1".to_string(), "R2".to_string()]);
    }

    #[test]
    fn nested_groups_resolve_transitively() {
        let mut dir = Directory::new();
        dir.add_group("dev", ["zoe"]);
        dir.add_group("all-staff", ["dev"]);
        let mut acl = Acl::new(AccessLevel::NoAccess);
        acl.set("all-staff", AclEntry::new(AccessLevel::Author));
        assert_eq!(acl.effective(&dir, "zoe").level, AccessLevel::Author);
    }

    #[test]
    fn acl_serialization_roundtrip() {
        let mut acl = Acl::new(AccessLevel::Reader);
        acl.set_default(AclEntry::new(AccessLevel::Reader).with_role("Everyone"));
        acl.set(
            "alice",
            AclEntry::new(AccessLevel::Manager).with_role("Admin"),
        );
        acl.set("HR", AclEntry::new(AccessLevel::Editor));
        let lines = acl.to_lines();
        let back = Acl::from_lines(&lines).unwrap();
        assert_eq!(back.default_entry().level, AccessLevel::Reader);
        assert_eq!(back.get("ALICE").unwrap().level, AccessLevel::Manager);
        assert_eq!(back.get("alice").unwrap().roles, vec!["Admin".to_string()]);
        assert_eq!(back.get("hr").unwrap().level, AccessLevel::Editor);
    }

    #[test]
    fn from_lines_rejects_garbage() {
        assert!(Acl::from_lines(&["no pipes here".to_string()]).is_none());
        assert!(Acl::from_lines(&["x|NotALevel|".to_string()]).is_none());
    }

    #[test]
    fn remove_entry() {
        let mut acl = Acl::new(AccessLevel::NoAccess);
        acl.set("x", AclEntry::new(AccessLevel::Reader));
        assert!(acl.remove("X").is_some());
        assert!(acl.get("x").is_none());
    }
}
