//! The visibility oracle. A differential model recomputes who may see,
//! edit and delete each note from the notes and the ACL this test wrote
//! itself, and after every step of a random sequence — save, `$Readers`
//! flip, re-parent, delete, view-design replace, database re-register,
//! shutdown and reopen, pull from a peer, ACL or group change, and hostile
//! `?SaveDocument`/`?DeleteDocument`/`?EditDocument` round trips at any
//! UNID, the ACL note's included — every surface is compared with it for
//! every principal: the HTML and JSON view pages (each requested twice, so
//! the second answer comes from the command cache), `?SearchView`, the
//! document commands, and a `Session`'s reads, search and unread list.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use domino::core::{Database, DbConfig, Note, Session, ITEM_READERS, ITEM_REF};
use domino::formula::Formula;
use domino::replica::{ReplicationOptions, Replicator};
use domino::security::{AccessLevel, Acl, AclEntry, Directory};
use domino::server::{DominoServer, Request, Response, ServerConfig};
use domino::storage::MemDisk;
use domino::types::{ItemFlags, LogicalClock, NoteClass, ReplicaId, Unid, Value};
use domino::views::{ColumnSpec, SortDir, ViewDesign};
use domino::wal::MemLogStore;

/// The principals: an Editor who may hold the `[Board]` role, an Author
/// (or, after an ACL change, a Reader), a Reader who may be in the
/// `staff` group, and anonymous callers (`-Default-`: Reader or NoAccess).
const WHO: [&str; 4] = ["ed", "au", "re", "Anonymous"];
const ANONYMOUS: usize = 3;

/// The reader lists a step may give a document.
const LISTS: [&[&str]; 7] = [
    &[],
    &["ed"],
    &["[Board]"],
    &["au"],
    &["staff"],
    &["re", "au"],
    &["nobody"],
];

fn list(i: usize) -> Vec<String> {
    LISTS[i % LISTS.len()]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Level {
    NoAccess,
    Reader,
    Author,
    Editor,
}

struct Doc {
    unid: Unid,
    subject: String,
    /// Selected by view design B (`Kind = "b"`) as well as by A.
    in_b: bool,
    /// The `DocReaders` item while it is a reader item.
    doc_readers: Option<Vec<String>>,
    /// The `$Readers` item.
    readers: Vec<String>,
    author: String,
    alive: bool,
}

/// What the test wrote: the documents and the inputs of the ACL.
#[derive(Default)]
struct Model {
    docs: Vec<Doc>,
    anonymous_reads: bool,
    au_is_author: bool,
    ed_on_board: bool,
    re_on_staff: bool,
    /// The attached `all` index is design B (an unstored replacement).
    design_b: bool,
    subjects: usize,
}

impl Model {
    fn level(&self, p: usize) -> Level {
        match p {
            0 => Level::Editor,
            1 if self.au_is_author => Level::Author,
            1 | 2 => Level::Reader,
            _ if self.anonymous_reads => Level::Reader,
            _ => Level::NoAccess,
        }
    }

    fn sees(&self, p: usize, d: &Doc) -> bool {
        let list: Vec<&String> = d.doc_readers.iter().flatten().chain(&d.readers).collect();
        let named = |r: &&String| match r.as_str() {
            "[Board]" => p == 0 && self.ed_on_board,
            "staff" => p == 2 && self.re_on_staff,
            name => name.eq_ignore_ascii_case(WHO[p]),
        };
        self.level(p) >= Level::Reader && (list.is_empty() || list.iter().any(named))
    }

    /// Edit and delete coincide here: no document carries `$Authors`.
    fn edits(&self, p: usize, d: &Doc) -> bool {
        let level = self.level(p);
        self.sees(p, d)
            && (level >= Level::Editor || (level == Level::Author && d.author == WHO[p]))
    }

    fn in_view(&self, d: &Doc) -> bool {
        d.alive && (!self.design_b || d.in_b)
    }

    fn acl(&self) -> Acl {
        let default = if self.anonymous_reads {
            AccessLevel::Reader
        } else {
            AccessLevel::NoAccess
        };
        let mut acl = Acl::new(default);
        let mut ed = AclEntry::new(AccessLevel::Editor);
        if self.ed_on_board {
            ed = ed.with_role("Board");
        }
        acl.set("ed", ed);
        let au = if self.au_is_author {
            AccessLevel::Author
        } else {
            AccessLevel::Reader
        };
        acl.set("au", AclEntry::new(au));
        acl.set("re", AclEntry::new(AccessLevel::Reader));
        acl
    }

    fn directory(&self) -> Directory {
        let mut dir = Directory::new();
        dir.add_group("staff", self.re_on_staff.then_some("re"));
        dir
    }

    fn subject(&mut self, tag: &str) -> String {
        self.subjects += 1;
        format!("{tag}{}z", self.subjects)
    }
}

fn deny(p: usize) -> u16 {
    if p == ANONYMOUS {
        401
    } else {
        403
    }
}

/// A topic as the model writes it; `kind` "b" puts it in design B too.
fn topic(subject: &str, body: &str, in_b: bool, from: &str) -> Note {
    let mut note = Note::document("Topic");
    note.set("Subject", Value::text(subject));
    note.set("Body", Value::text(body));
    note.set("Kind", Value::text(if in_b { "b" } else { "a" }));
    note.set("From", Value::text(from));
    note
}

fn design(b: bool) -> ViewDesign {
    let select = if b {
        r#"SELECT Form = "Topic" & Kind = "b""#
    } else {
        r#"SELECT Form = "Topic""#
    };
    let mut design = ViewDesign::new("all", select).unwrap();
    let dir = if b {
        SortDir::Descending
    } else {
        SortDir::Ascending
    };
    design.columns = vec![ColumnSpec::new("Subject", "Subject").unwrap().sorted(dir)];
    design
}

fn form_encode(fields: &[(String, String)]) -> String {
    let enc = |s: &str| {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' => (b as char).to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect::<String>()
    };
    let pairs: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}={}", enc(k), enc(v)))
        .collect();
    pairs.join("&")
}

/// The `name`/`value` pairs of an `?EditDocument` form.
fn form_fields(html: &str) -> Vec<(String, String)> {
    let unescape = |s: &str| {
        s.replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", "\"")
            .replace("&#39;", "'")
            .replace("&amp;", "&")
    };
    html.split("<input name=\"")
        .skip(1)
        .map(|rest| {
            let (name, rest) = rest.split_once("\" value=\"").unwrap();
            let value = rest.split_once('"').unwrap().0;
            (unescape(name), unescape(value))
        })
        .collect()
}

struct World {
    disk: MemDisk,
    log: MemLogStore,
    clock: LogicalClock,
    db: Arc<Database>,
    peer: Arc<Database>,
    server: DominoServer,
    /// Non-document UNIDs: the ACL note and the stored view design.
    acl_unid: Unid,
    design_unid: Unid,
    model: Model,
}

/// A step's target: a document the model wrote, the ACL note, the stored
/// view design, or a UNID never stored.
fn target_unid(w: &World, t: usize) -> (Unid, Option<usize>) {
    match t % (w.model.docs.len() + 3) {
        i if i < w.model.docs.len() => (w.model.docs[i].unid, Some(i)),
        i if i == w.model.docs.len() => (w.acl_unid, None),
        i if i == w.model.docs.len() + 1 => (w.design_unid, None),
        _ => (Unid(0xDEAD_BEEF), None),
    }
}

impl World {
    fn new() -> World {
        let (disk, log, clock) = (MemDisk::new(), MemLogStore::new(), LogicalClock::new());
        let db = Self::open(&disk, &log, &clock);
        let model = Model {
            anonymous_reads: true,
            au_is_author: true,
            ed_on_board: true,
            ..Model::default()
        };
        db.set_acl(&model.acl()).unwrap();
        let mut view = design(false).to_note();
        db.save_design(&mut view).unwrap();
        let acl_id = db.note_ids(Some(NoteClass::Acl)).unwrap()[0];
        let acl_unid = db.open_note(acl_id).unwrap().unid();
        let peer = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Vis", ReplicaId(0x5EE), ReplicaId(2)),
                clock.clone(),
            )
            .unwrap(),
        );
        let server = DominoServer::new(ServerConfig {
            workers: 1,
            queue_bound: 8,
            cache_capacity: 256,
        });
        server.register_database("vis", &db).unwrap();
        server.set_directory(model.directory());
        for user in &WHO[..ANONYMOUS] {
            server.register_user(user, "pw");
        }
        World {
            disk,
            log,
            clock,
            db,
            peer,
            server,
            acl_unid,
            design_unid: view.unid(),
            model,
        }
    }

    fn open(disk: &MemDisk, log: &MemLogStore, clock: &LogicalClock) -> Arc<Database> {
        let db = Database::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            DbConfig::new("Vis", ReplicaId(0x5EE), ReplicaId(1)),
            clock.clone(),
        );
        Arc::new(db.unwrap())
    }

    fn request(&self, p: usize, req: Request) -> Response {
        let req = if p == ANONYMOUS {
            req
        } else {
            req.as_user(WHO[p], "pw")
        };
        self.server.handle(&req)
    }

    fn live(&self, pick: usize) -> Option<usize> {
        let live: Vec<usize> = (0..self.model.docs.len())
            .filter(|&i| self.model.docs[i].alive)
            .collect();
        (!live.is_empty()).then(|| live[pick % live.len()])
    }

    /// The expected status of a document command at `unid`.
    fn expect(&self, p: usize, doc: Option<usize>, edit: bool) -> u16 {
        let m = &self.model;
        match doc.map(|i| &m.docs[i]) {
            Some(d) if d.alive && !m.sees(p, d) => deny(p),
            Some(d) if d.alive && edit && !m.edits(p, d) => deny(p),
            Some(d) if d.alive => 200,
            _ => 404,
        }
    }

    fn rewrite(&self, i: usize, change: impl FnOnce(&mut Note)) {
        let mut note = self.db.open_by_unid(self.model.docs[i].unid).unwrap();
        change(&mut note);
        self.db.save(&mut note).unwrap();
    }

    /// Apply one generated step to the system and to the model; return
    /// what it did, for the failure message.
    fn step(&mut self, kind: usize, a: usize, b: usize, c: usize) -> String {
        match kind {
            0 => {
                let subject = self.model.subject("s");
                let list = list(a);
                let mut note = topic(&subject, "zebra notes", b % 2 == 1, WHO[c % 3]);
                if !list.is_empty() {
                    // Stored without SUMMARY half the time: the store keeps
                    // reader items in the summary, where views and reopened
                    // databases read them.
                    let flags = if b / 2 % 2 == 1 {
                        ItemFlags::READERS
                    } else {
                        ItemFlags::SUMMARY | ItemFlags::READERS
                    };
                    note.set_with_flags("DocReaders", Value::text_list(list.clone()), flags);
                }
                self.db.save(&mut note).unwrap();
                self.model.docs.push(Doc {
                    unid: note.unid(),
                    subject,
                    in_b: b % 2 == 1,
                    doc_readers: (!list.is_empty()).then_some(list),
                    readers: Vec::new(),
                    author: WHO[c % 3].to_string(),
                    alive: true,
                });
                format!("save {:?}", self.model.docs.last().unwrap().subject)
            }
            1 => {
                let Some(i) = self.live(a) else {
                    return "flip: none".into();
                };
                let list = list(b);
                self.rewrite(i, |n| {
                    n.set_with_flags(
                        ITEM_READERS,
                        Value::text_list(list.clone()),
                        ItemFlags::SUMMARY | ItemFlags::READERS,
                    );
                });
                self.model.docs[i].readers = list;
                format!("flip doc {i} to {:?}", self.model.docs[i].readers)
            }
            2 => {
                let Some(i) = self.live(a) else {
                    return "re-parent: none".into();
                };
                let parent = self.live(b).filter(|&j| j != i);
                let parent_unid = parent.map(|j| self.model.docs[j].unid);
                self.rewrite(i, |n| match parent_unid {
                    Some(unid) => {
                        n.set_parent(unid);
                    }
                    None => {
                        n.remove(ITEM_REF);
                    }
                });
                format!("re-parent doc {i} under {parent:?}")
            }
            3 => {
                let Some(i) = self.live(a) else {
                    return "delete: none".into();
                };
                let id = self
                    .db
                    .id_of_unid(self.model.docs[i].unid)
                    .unwrap()
                    .unwrap();
                self.db.delete(id).unwrap();
                self.model.docs[i].alive = false;
                format!("delete doc {i}")
            }
            4 => {
                self.model.design_b = a % 2 == 1;
                self.server
                    .add_view("vis", design(self.model.design_b))
                    .unwrap();
                format!(
                    "add_view design {}",
                    if self.model.design_b { "B" } else { "A" }
                )
            }
            5 => {
                self.server.register_database("vis", &self.db).unwrap();
                self.model.design_b = false;
                "re-register".into()
            }
            6 => {
                self.db.shutdown().unwrap();
                self.db = Self::open(&self.disk, &self.log, &self.clock);
                self.server.register_database("vis", &self.db).unwrap();
                self.model.design_b = false;
                "shutdown and reopen".into()
            }
            7 => {
                let subject = self.model.subject("p");
                let list = list(a);
                let mut note = topic(&subject, "zebra from the peer", b % 2 == 1, WHO[c % 3]);
                note.set_with_flags(
                    ITEM_READERS,
                    Value::text_list(list.clone()),
                    ItemFlags::SUMMARY | ItemFlags::READERS,
                );
                self.peer.save(&mut note).unwrap();
                Replicator::new(ReplicationOptions::default())
                    .pull(&self.db, &self.peer)
                    .unwrap();
                self.model.docs.push(Doc {
                    unid: note.unid(),
                    subject: subject.clone(),
                    in_b: b % 2 == 1,
                    doc_readers: None,
                    readers: list,
                    author: WHO[c % 3].to_string(),
                    alive: true,
                });
                format!("pull {subject:?}")
            }
            8 => {
                let m = &mut self.model;
                let flag = match a % 4 {
                    0 => &mut m.anonymous_reads,
                    1 => &mut m.au_is_author,
                    2 => &mut m.ed_on_board,
                    _ => &mut m.re_on_staff,
                };
                *flag = !*flag;
                self.db.set_acl(&self.model.acl()).unwrap();
                self.server.set_directory(self.model.directory());
                format!("ACL/group change {}", a % 4)
            }
            9 => self.hostile_save(a % 4, b, c),
            10 => {
                let p = a % 4;
                let (unid, doc) = target_unid(self, b);
                let expected = self.expect(p, doc, true);
                let resp =
                    self.request(p, Request::get(&format!("/vis.nsf/{unid}?DeleteDocument")));
                assert_eq!(resp.status.code(), expected, "{} deletes {unid}", WHO[p]);
                if expected == 200 {
                    self.model.docs[doc.unwrap()].alive = false;
                }
                format!("{} deletes {unid}: {expected}", WHO[p])
            }
            11 => self.edit_round_trip(a % 4, b),
            12 => {
                // No principal here is a Designer or a Manager: no design or
                // ACL note is theirs to write or delete through a session.
                let p = a % 4;
                let session = Session::new(self.db.clone(), WHO[p], self.model.directory());
                let acl_id = self.db.note_ids(Some(NoteClass::Acl)).unwrap()[0];
                let design_id = self.db.id_of_unid(self.design_unid).unwrap().unwrap();
                let (what, refused) = match b % 4 {
                    0 => {
                        let classes = [NoteClass::Form, NoteClass::View, NoteClass::Agent];
                        (
                            "create a design note",
                            session.save(&mut Note::new(classes[c % 3])),
                        )
                    }
                    1 => {
                        let mut acl = self.db.open_note(acl_id).unwrap();
                        acl.set("Entries", Value::text_list(["-Default-|Manager|"]));
                        ("rewrite the ACL", session.save(&mut acl))
                    }
                    2 => ("delete the ACL", session.delete(acl_id)),
                    _ => ("delete the view design", session.delete(design_id)),
                };
                let refused = refused.map_err(|e| e.kind());
                assert_eq!(refused, Err("access_denied"), "{} may {what}", WHO[p]);
                format!("{} may not {what}", WHO[p])
            }
            _ => {
                let p = a % 4;
                let subject = self.model.subject("c");
                let list = list(b);
                let fields = [
                    ("Subject", subject.clone()),
                    ("Body", "zebra by form".into()),
                    ("Kind", if c % 2 == 1 { "b" } else { "a" }.into()),
                    (ITEM_READERS, list.join(";")),
                ]
                .map(|(k, v)| (k.to_string(), v));
                let resp = self.request(
                    p,
                    Request::post("/vis.nsf/Topic?CreateDocument", &form_encode(&fields)),
                );
                let expected = if self.model.level(p) >= Level::Author {
                    200
                } else {
                    deny(p)
                };
                assert_eq!(resp.status.code(), expected, "{} creates", WHO[p]);
                if expected == 200 {
                    let hex = resp.body.split("<p>").nth(1).unwrap();
                    let unid = Unid(u128::from_str_radix(&hex[..32], 16).unwrap());
                    self.model.docs.push(Doc {
                        unid,
                        subject: subject.clone(),
                        in_b: c % 2 == 1,
                        doc_readers: None,
                        readers: list,
                        author: WHO[p].to_string(),
                        alive: true,
                    });
                }
                format!("{} creates {subject:?}: {expected}", WHO[p])
            }
        }
    }

    /// `?SaveDocument` by `p` at any UNID, posting a new subject, a new
    /// `$Readers` or `DocReaders` list, or an ACL entry line.
    fn hostile_save(&mut self, p: usize, target: usize, post: usize) -> String {
        let (unid, doc) = target_unid(self, target);
        let list = list(post / 4);
        let subject = self.model.subject("h");
        let field = match post % 4 {
            0 => ("Subject", subject.clone()),
            1 => (ITEM_READERS, list.join(";")),
            2 => ("DocReaders", list.join(";")),
            _ => ("Entries", "-Default-|Manager|".to_string()),
        };
        let fields = [(field.0.to_string(), field.1)];
        let expected = self.expect(p, doc, true);
        let resp = self.request(
            p,
            Request::post(
                &format!("/vis.nsf/{unid}?SaveDocument"),
                &form_encode(&fields),
            ),
        );
        assert_eq!(
            resp.status.code(),
            expected,
            "{} saves {fields:?} at {unid}",
            WHO[p]
        );
        if expected == 200 {
            let d = &mut self.model.docs[doc.unwrap()];
            match post % 4 {
                0 => d.subject = subject,
                1 => d.readers = list,
                // A name that is not a reader item yet stays plain text.
                2 => {
                    if let Some(readers) = &mut d.doc_readers {
                        *readers = list;
                    }
                }
                _ => {}
            }
        }
        format!("{} saves {fields:?} at {unid}: {expected}", WHO[p])
    }

    /// `?EditDocument` on a document `p` may edit, then the form posted
    /// back whole with a new subject (`check` asks for every other form).
    fn edit_round_trip(&mut self, p: usize, pick: usize) -> String {
        let m = &self.model;
        let editable: Vec<usize> = (0..m.docs.len())
            .filter(|&i| m.docs[i].alive && m.edits(p, &m.docs[i]))
            .collect();
        let Some(&i) = editable.get(pick % editable.len().max(1)) else {
            return format!("{} edits: none", WHO[p]);
        };
        let unid = m.docs[i].unid;
        let form = self.request(p, Request::get(&format!("/vis.nsf/{unid}?EditDocument")));
        assert_eq!(form.status.code(), 200, "{} edits {unid}", WHO[p]);
        let subject = self.model.subject("e");
        let mut fields = form_fields(&form.body);
        for (name, value) in &mut fields {
            if name == "Subject" {
                *value = subject.clone();
            }
        }
        let save = Request::post(
            &format!("/vis.nsf/{unid}?SaveDocument"),
            &form_encode(&fields),
        );
        assert_eq!(
            self.request(p, save).status.code(),
            200,
            "{} posts the form back",
            WHO[p]
        );
        self.model.docs[i].subject = subject;
        format!("{} edits {unid} by form", WHO[p])
    }

    /// Every surface, for every principal, against the model.
    fn check(&self, step: &str) {
        let m = &self.model;
        let total = m.docs.iter().filter(|d| m.in_view(d)).count();
        let formula = Formula::compile("SELECT @All").unwrap();
        for (p, &who) in WHO.iter().enumerate() {
            let shows: Vec<bool> = m
                .docs
                .iter()
                .map(|d| m.in_view(d) && m.sees(p, d))
                .collect();
            // (target, shows every visible row, the index total it prints)
            let pages = [
                (
                    "/vis.nsf/all?OpenView&Count=1000",
                    true,
                    Some(format!("{total} documents")),
                ),
                (
                    "/vis.nsf/all?ReadViewEntries&Count=1000",
                    true,
                    Some(format!("\"@toplevelentries\":{total},")),
                ),
                ("/vis.nsf/all?SearchView&Query=zebra&Count=1000", true, None),
                ("/vis.nsf/all?OpenView&Start=2&Count=3", false, None),
            ];
            for (target, whole, total) in pages {
                for round in 0..2 {
                    let resp = self.request(p, Request::get(target));
                    let at = format!("after {step}: {target} as {who}, round {round}");
                    if m.level(p) < Level::Reader {
                        assert_eq!(resp.status.code(), deny(p), "{at}");
                        continue;
                    }
                    assert_eq!(resp.status.code(), 200, "{at}");
                    if let Some(total) = &total {
                        assert!(resp.body.contains(total.as_str()), "{at}: total {total}");
                    }
                    for (d, &shown) in m.docs.iter().zip(&shows) {
                        let found = resp.body.contains(&d.subject);
                        assert!(!found || shown, "{at}: leaked {:?}", d.subject);
                        assert!(found || !shown || !whole, "{at}: lost {:?}", d.subject);
                    }
                }
            }
            let unids = (0..m.docs.len() + 3).map(|t| target_unid(self, t));
            for (unid, doc) in unids {
                for (command, edit) in [("OpenDocument", false), ("EditDocument", true)] {
                    let resp = self.request(p, Request::get(&format!("/vis.nsf/{unid}?{command}")));
                    let expected = self.expect(p, doc, edit);
                    assert_eq!(
                        resp.status.code(),
                        expected,
                        "after {step}: {command} {unid} as {who}"
                    );
                    if expected == 200 {
                        assert!(resp.body.contains(&m.docs[doc.unwrap()].subject));
                    }
                }
            }
            let session = Session::new(self.db.clone(), who, m.directory());
            let seen: BTreeSet<Unid> = m
                .docs
                .iter()
                .filter(|d| d.alive && m.sees(p, d))
                .map(|d| d.unid)
                .collect();
            for d in m.docs.iter().filter(|d| d.alive) {
                let id = self.db.id_of_unid(d.unid).unwrap().unwrap();
                let read = session.open_note(id);
                assert_eq!(
                    read.is_ok(),
                    m.sees(p, d),
                    "after {step}: {who} opens {:?}",
                    d.subject
                );
            }
            let acl_id = self.db.note_ids(Some(NoteClass::Acl)).unwrap()[0];
            let may_open = m.level(p) >= Level::Reader;
            assert_eq!(
                session.open_note(acl_id).is_ok(),
                may_open,
                "after {step}: {who} reads the ACL"
            );
            let unread: BTreeSet<Unid> = session.unread().unwrap().into_iter().collect();
            assert_eq!(unread, seen, "after {step}: {who}'s unread list");
            match session.search(&formula) {
                Ok(found) => {
                    let found: BTreeSet<Unid> = found.iter().map(|n| n.unid()).collect();
                    assert_eq!(found, seen, "after {step}: {who}'s search");
                }
                Err(e) => assert!(!may_open && e.kind() == "access_denied", "{e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn every_surface_matches_the_visibility_model(
        steps in prop::collection::vec((0..14usize, 0..64usize, 0..64usize, 0..64usize), 8..24),
    ) {
        let mut world = World::new();
        world.check("setup");
        for (kind, a, b, c) in steps {
            let did = world.step(kind, a, b, c);
            world.check(&did);
        }
    }
}

/// The positive half of the class rules, which the model's principals
/// (an Editor at most) never reach: a Designer writes and deletes design
/// notes, and only a Manager writes the ACL note.
#[test]
fn design_notes_need_a_designer_and_the_acl_note_a_manager() {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Design", ReplicaId(1), ReplicaId(2)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let mut acl = Acl::new(AccessLevel::NoAccess);
    acl.set("ed", AclEntry::new(AccessLevel::Editor).with_role("Board"));
    acl.set("di", AclEntry::new(AccessLevel::Designer));
    acl.set("mo", AclEntry::new(AccessLevel::Manager));
    db.set_acl(&acl).unwrap();
    let session = |user| Session::new(db.clone(), user, Directory::new());
    for class in [NoteClass::Form, NoteClass::View, NoteClass::Agent] {
        let mut design = Note::new(class);
        design.set("$TITLE", Value::text("T"));
        assert!(session("ed").save(&mut design).is_err(), "{class:?}");
        session("di").save(&mut design).unwrap();
        let mut edited = session("ed").open_note(design.id).unwrap();
        edited.set("X", Value::text("x"));
        assert!(session("ed").save(&mut edited).is_err(), "{class:?}");
        assert!(session("ed").delete(design.id).is_err(), "{class:?}");
        session("di").save(&mut edited).unwrap();
        session("di").delete(design.id).unwrap();
    }
    let acl_id = db.note_ids(Some(NoteClass::Acl)).unwrap()[0];
    let mut note = session("di").open_note(acl_id).unwrap();
    note.set("Entries", Value::text_list(["-Default-|Manager|"]));
    assert!(session("di").save(&mut note).is_err());
    assert!(session("di").delete(acl_id).is_err());
    session("mo").save(&mut note).unwrap();
    assert_eq!(
        db.acl().unwrap().default_entry().level,
        AccessLevel::Manager
    );
}

/// Only a database that never had an ACL note is wide open. Deleting the
/// note locks everyone out, across a reopen too, until a new ACL is
/// stored; a snapshot pinned before the deletion keeps the ACL it saw.
#[test]
fn a_deleted_acl_note_fails_closed() {
    let (disk, log, clock) = (MemDisk::new(), MemLogStore::new(), LogicalClock::new());
    let db = World::open(&disk, &log, &clock);
    let mut acl = Acl::new(AccessLevel::Reader);
    acl.set("boss", AclEntry::new(AccessLevel::Manager));
    db.set_acl(&acl).unwrap();
    let pinned = db.snapshot();
    db.delete(db.note_ids(Some(NoteClass::Acl)).unwrap()[0])
        .unwrap();
    let locked = |db: &Arc<Database>| {
        assert_eq!(db.acl().unwrap_err().kind(), "access_denied");
        let anyone = Session::new(db.clone(), "anyone", Directory::new());
        assert!(anyone.save(&mut Note::document("M")).is_err());
    };
    locked(&db);
    assert_eq!(
        pinned.acl().unwrap().default_entry().level,
        AccessLevel::Reader
    );
    drop(pinned);
    db.shutdown().unwrap();
    drop(db);
    let db = World::open(&disk, &log, &clock);
    locked(&db);
    db.set_acl(&acl).unwrap();
    assert_eq!(
        db.acl().unwrap().get("boss").unwrap().level,
        AccessLevel::Manager
    );
}
