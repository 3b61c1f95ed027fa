//! Notes security: database ACLs and the group directory.
//!
//! Domino checks access at two levels. The database ACL grants each user
//! (or group, or server) one of seven ordered [`AccessLevel`]s plus a set of
//! *roles*; then individual documents can narrow readability with
//! `$Readers`-flagged items and broaden editability with `$Authors` items.
//! This crate holds the ACL and directory types; the reference monitor in
//! `domino-core` (`domino_core::access`) applies them, document lists
//! included, to actual notes.

pub mod acl;

pub use acl::{AccessLevel, Acl, AclEntry, Directory};
