//! The shared fixture: a seeded document corpus, the three view designs,
//! the ACL, and the benchmark's own model of each document — the oracle
//! every response is checked against.
//!
//! Sort keys are fixed-width lowercase text so the model's order is the
//! view's collation order without re-implementing the collation: `Seq` is
//! a zero-padded unique number, authors and statuses never prefix one
//! another. Documents created through the web carry only text items (the
//! HTTP task stores every posted field as text), which is why the sort
//! keys are text in the fixture too.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use domino_core::{Database, DbConfig, Note};
use domino_security::{AccessLevel, Acl, AclEntry};
use domino_storage::{CommitMode, EngineConfig};
use domino_types::{
    DateTime, Item, ItemFlags, LogicalClock, NoteId, ReplicaId, Timestamp, Unid, Value,
};
use domino_views::{ColumnSpec, SortDir, ViewDesign};

use crate::rng::SplitMix64;

/// Rows per view page (Domino's default `Count`).
pub const PAGE_ROWS: usize = 30;
/// Buffer-pool frames every benchmark database opens with (16 MiB).
pub const POOL_FRAMES: usize = 4096;
/// Database path element the server serves the fixture under.
pub const DB_PATH: &str = "bench";
/// Form of every document (the views select on it).
pub const FORM: &str = "Doc";
/// Share of documents carrying `$Readers` (one in twenty).
const RESTRICTED_ONE_IN: u64 = 20;
/// Names listed in every `$Readers` item: the two editors.
pub const READERS: [&str; 2] = ["alice", "bob"];

/// One identity requests are made under.
#[derive(Debug, Clone, Copy)]
pub struct User {
    pub name: &'static str,
    pub password: &'static str,
    pub level: AccessLevel,
}

/// The four ACL users; index 4 ([`ANONYMOUS`]) is the unauthenticated
/// browser, which the ACL default admits as a Reader.
pub const USERS: [User; 4] = [
    User {
        name: "alice",
        password: "pw-alice",
        level: AccessLevel::Editor,
    },
    User {
        name: "bob",
        password: "pw-bob",
        level: AccessLevel::Editor,
    },
    User {
        name: "carol",
        password: "pw-carol",
        level: AccessLevel::Author,
    },
    User {
        name: "dave",
        password: "pw-dave",
        level: AccessLevel::Reader,
    },
];
/// User index of the unauthenticated browser.
pub const ANONYMOUS: usize = 4;
/// Identities a request can carry (the four users plus Anonymous).
pub const IDENTITIES: usize = 5;

/// May identity `user` read `$Readers` documents?
pub fn reads_restricted(user: usize) -> bool {
    user < READERS.len()
}

pub const STATUSES: [&str; 4] = ["closed", "hold", "open", "review"];
pub const AUTHORS: usize = 40;
/// Distinct rare terms (`termNNNN`) sprinkled through bodies: the
/// `?SearchView` queries, each matching a few dozen documents.
pub const RARE_TERMS: u64 = 4000;

const WORDS: &[&str] = &[
    "project",
    "review",
    "quarterly",
    "budget",
    "deploy",
    "replica",
    "server",
    "meeting",
    "agenda",
    "status",
    "release",
    "storage",
    "index",
    "network",
    "client",
    "update",
    "launch",
    "report",
    "metric",
    "design",
    "schema",
    "latency",
    "backup",
    "restore",
    "mailbox",
    "thread",
    "topic",
    "response",
    "customer",
    "invoice",
    "contract",
    "deadline",
    "roadmap",
    "estimate",
    "feature",
    "defect",
    "patch",
    "rollout",
    "cluster",
    "console",
    "workflow",
    "approval",
    "calendar",
    "document",
    "summary",
    "archive",
    "template",
    "notice",
    "minutes",
    "vendor",
    "proposal",
    "training",
    "support",
    "ticket",
    "branch",
    "merge",
    "season",
    "travel",
    "office",
    "policy",
    "security",
    "access",
    "reader",
    "author",
];

fn word(rng: &mut SplitMix64) -> &'static str {
    WORDS[rng.below(WORDS.len() as u64) as usize]
}

pub fn rare_term(id: u64) -> String {
    format!("term{id:04}")
}

/// A subject line: five vocabulary words. Never contains a rare term, so
/// subject edits cannot change what a `?SearchView` query matches.
pub fn subject_text(rng: &mut SplitMix64) -> String {
    let mut s = String::with_capacity(48);
    for i in 0..5 {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(word(rng));
    }
    s
}

pub fn author_name(rng: &mut SplitMix64) -> String {
    format!("author{:02}", rng.below(AUTHORS as u64))
}

pub fn status_name(rng: &mut SplitMix64) -> &'static str {
    STATUSES[rng.below(STATUSES.len() as u64) as usize]
}

/// Body text of `len` bytes: vocabulary words with one rare term in
/// about thirty. Returns the text and the rare-term ids it contains.
fn body_text(rng: &mut SplitMix64, len: usize) -> (String, Vec<u16>) {
    let mut s = String::with_capacity(len + 16);
    let mut rare = Vec::new();
    while s.len() < len {
        if !s.is_empty() {
            s.push(' ');
        }
        if rng.below(30) == 0 {
            let id = rng.below(RARE_TERMS);
            s.push_str(&rare_term(id));
            // A term the cut below truncates is not a term of the body.
            if s.len() <= len {
                rare.push(id as u16);
            }
        } else {
            s.push_str(word(rng));
        }
    }
    s.truncate(len);
    rare.sort_unstable();
    rare.dedup();
    (s, rare)
}

/// The benchmark's model of one document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Unique sort key, rendered zero-padded as the `Seq` item.
    pub seq: u32,
    pub subject: String,
    pub author: String,
    pub status: &'static str,
    pub priority: u8,
    pub restricted: bool,
    /// Rare terms in the body (sorted, distinct). Bodies never change.
    pub rare: Vec<u16>,
    /// Bytes of user data in the items the model does not follow
    /// (priority, posted, size, tags, body, form, seq).
    fixed_bytes: u64,
    pub unid: Unid,
    pub id: NoteId,
}

impl Doc {
    pub fn seq_text(&self) -> String {
        seq_text(self.seq)
    }

    /// Bytes of user data this document holds: the payload of every item
    /// a user supplied (text lengths, 8 per number or date).
    pub fn user_bytes(&self) -> u64 {
        self.fixed_bytes + (self.subject.len() + self.author.len() + self.status.len()) as u64
    }

    /// A document created through the web: text items only.
    pub fn web_created(seq: u32, subject: String, author: String, status: &'static str) -> Doc {
        Doc {
            seq,
            subject,
            author,
            status,
            priority: 3,
            restricted: false,
            rare: Vec::new(),
            // Seq (7) + Priority ("3").
            fixed_bytes: 8,
            unid: Unid(0),
            id: NoteId::NONE,
        }
    }
}

pub fn seq_text(seq: u32) -> String {
    format!("{seq:07}")
}

/// Generate document `seq` of the corpus and the note that stores it:
/// eight summary items besides `Form` and a 0.5–8 KiB rich-text body.
pub fn gen_doc(rng: &mut SplitMix64, seq: u32) -> (Doc, Note) {
    let subject = subject_text(rng);
    let author = author_name(rng);
    let status = status_name(rng);
    let priority = rng.range(1, 5) as u8;
    let posted = 800_000_000 + rng.below(100_000_000) as i64;
    let body_len = rng.range(512, 8192) as usize;
    let tags = [word(rng), word(rng)];
    let restricted = rng.below(RESTRICTED_ONE_IN) == 0;
    let (body, rare) = body_text(rng, body_len);

    let mut note = Note::document(FORM);
    note.set("Subject", Value::text(subject.clone()));
    note.set("Author", Value::text(author.clone()));
    note.set("Status", Value::text(status));
    note.set("Seq", Value::text(seq_text(seq)));
    note.set("Priority", Value::Number(priority.into()));
    note.set("Posted", Value::DateTime(DateTime(posted)));
    note.set("Size", Value::Number(body_len as f64));
    note.set("Tags", Value::text_list(tags));
    note.set_body("Body", Value::RichText(body.into_bytes()));
    if restricted {
        note.set_item(
            Item::new("$Readers", Value::text_list(READERS))
                .with_flags(ItemFlags::SUMMARY.union(ItemFlags::READERS)),
        );
    }
    let fixed_bytes =
        (FORM.len() + 7 + 8 + 8 + 8 + tags[0].len() + tags[1].len() + body_len) as u64;
    let doc = Doc {
        seq,
        subject,
        author,
        status,
        priority,
        restricted,
        rare,
        fixed_bytes,
        unid: Unid(0),
        id: NoteId::NONE,
    };
    (doc, note)
}

/// The three views: date-sorted (newest first), author-categorized, and
/// one whose sorted column is a computed formula.
pub fn view_designs() -> Vec<ViewDesign> {
    let select = format!("SELECT Form = \"{FORM}\"");
    let col = |title: &str, formula: &str| ColumnSpec::new(title, formula).expect("column formula");
    vec![
        ViewDesign::new("bydate", &select)
            .expect("view")
            .column(col("Seq", "Seq").sorted(SortDir::Descending))
            .column(col("Subject", "Subject"))
            .column(col("Author", "Author")),
        ViewDesign::new("byauthor", &select)
            .expect("view")
            .column(col("Author", "Author").categorized())
            .column(col("Seq", "Seq").sorted(SortDir::Ascending))
            .column(col("Subject", "Subject")),
        ViewDesign::new("bystatus", &select)
            .expect("view")
            .column(col("Key", COMPUTED_COLUMN).sorted(SortDir::Ascending))
            .column(col("Lead", "@Left(Subject; 16)"))
            .column(col("Author", "Author")),
    ]
}

/// The computed sort column of the `bystatus` view.
pub const COMPUTED_COLUMN: &str = "@UpperCase(Status) + \"/\" + Seq";
pub const VIEW_NAMES: [&str; 3] = ["bydate", "byauthor", "bystatus"];

/// The model's order of `docs` (indices into the slice, live documents
/// only) in view `view`'s collation.
pub fn view_order(view: usize, docs: &[Doc], live: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut order: Vec<usize> = live.collect();
    match view {
        0 => order.sort_unstable_by_key(|i| std::cmp::Reverse(docs[*i].seq)),
        1 => order.sort_unstable_by(|a, b| {
            (docs[*a].author.as_str(), docs[*a].seq).cmp(&(docs[*b].author.as_str(), docs[*b].seq))
        }),
        2 => order.sort_unstable_by(|a, b| {
            (docs[*a].status, docs[*a].seq).cmp(&(docs[*b].status, docs[*b].seq))
        }),
        _ => panic!("no view {view}"),
    }
    order
}

/// ACL: the four users at their levels; everyone else (Anonymous) reads.
pub fn acl() -> Acl {
    let mut acl = Acl::new(AccessLevel::Reader);
    for u in USERS {
        acl.set(u.name, AclEntry::new(u.level));
    }
    acl
}

fn config(title: &str, instance: u64, logging: bool, commit_mode: CommitMode) -> DbConfig {
    DbConfig::new(title, ReplicaId(0xBE_4C), ReplicaId(instance)).with_engine(EngineConfig {
        buffer_capacity: POOL_FRAMES,
        logging,
        commit_mode,
    })
}

pub fn db_config(title: &str, instance: u64, commit_mode: CommitMode) -> DbConfig {
    config(title, instance, true, commit_mode)
}

/// The configuration file-backed fixtures are *loaded* under: no log.
///
/// A clean shutdown restarts the log at LSN 0 but leaves the pages'
/// LSNs as they were, and redo skips a page whose LSN is not below the
/// record's. A corpus loaded with logging on would leave page LSNs of
/// tens of millions behind, so after a crash of the next session every
/// document first rewritten since the last checkpoint would come back
/// in its loaded state (README, "Findings"). Loaded without a log, pages
/// carry LSN 0 and every later record applies.
pub fn load_config(title: &str, instance: u64) -> DbConfig {
    config(title, instance, false, CommitMode::NoForce)
}

pub fn clock(instance: u64) -> LogicalClock {
    LogicalClock::starting_at(Timestamp(instance * 1_000_000))
}

pub fn open_in_memory(title: &str, instance: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            db_config(title, instance, CommitMode::Force),
            clock(instance),
        )
        .expect("open in-memory database"),
    )
}

/// Generate `n` documents from `seed` and save them into `db`; the
/// returned models carry the assigned UNIDs and note ids.
pub fn populate(db: &Database, seed: u64, n: usize) -> Vec<Doc> {
    let mut rng = SplitMix64::fork(seed, 0xC0);
    let mut docs = Vec::with_capacity(n);
    for seq in 0..n as u32 {
        let (mut doc, mut note) = gen_doc(&mut rng, seq);
        db.save(&mut note).expect("populate save");
        doc.unid = note.unid();
        doc.id = note.id;
        docs.push(doc);
    }
    docs
}

/// Where file-backed fixtures live: a per-process directory under the
/// benchmark's own `work/` (the harness confines a run to its checkout).
/// Removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create() -> WorkDir {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create fixture directory");
        WorkDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The filesystem type the fixtures sit on (fact `fixture_fs`), from
    /// the longest mount point that prefixes the directory.
    pub fn fs_type(&self) -> String {
        let dir = std::fs::canonicalize(&self.path).unwrap_or_else(|_| self.path.clone());
        let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|l| {
                let mut f = l.split(' ');
                let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
                dir.starts_with(point)
                    .then(|| (point.len(), fs.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map(|(_, fs)| fs)
            .unwrap_or_else(|| "unknown".into())
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_views_hold_every_document() {
        let a = open_in_memory("a", 1);
        let b = open_in_memory("b", 1);
        let da = populate(&a, 9, 60);
        let db_ = populate(&b, 9, 60);
        assert_eq!(da.len(), 60);
        for (x, y) in da.iter().zip(&db_) {
            assert_eq!(
                (x.unid, &x.subject, x.user_bytes()),
                (y.unid, &y.subject, y.user_bytes())
            );
        }
        for (v, design) in view_designs().into_iter().enumerate() {
            let view = domino_views::View::attach(&a, design).expect("attach");
            let model = view_order(v, &da, 0..da.len());
            let rows = view.rows();
            assert_eq!(rows.len(), 60, "view {v}");
            let got: Vec<Unid> = rows.iter().map(|r| r.unid).collect();
            let want: Vec<Unid> = model.iter().map(|i| da[*i].unid).collect();
            assert_eq!(got, want, "view {v} order");
        }
    }
}
