//! `web_read` and `web_mixed`: browsers on keep-alive connections to the
//! HTTP task.
//!
//! Two closed-loop clients each own a keep-alive TCP connection to
//! `HttpListener` and wait for every reply. `web_read` is
//! all GETs against an in-memory database, so the socket, the parser, the
//! worker pool, the command cache and snapshot reads do the work and
//! storage and the log do none. `web_mixed` keeps the read mix at 80 %
//! and adds form POSTs (save, create, delete) against a file-backed
//! database under `CommitMode::Force`: every commit moves the change
//! sequence, so the command cache expires constantly and the uncached
//! page, render, view maintenance and full-text re-index paths carry it.
//!
//! Each client writes only documents of its own partition, which keeps
//! its model of those documents exact whatever the interleaving; view
//! pages depend on both clients' writes, so under `web_mixed` they are
//! checked loosely in flight and exactly by a sweep of every page of
//! every view once the clients have stopped.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use domino_core::Database;
use domino_netio::{HttpConfig, HttpListener};
use domino_server::{DominoServer, Request, Response, ServerConfig};
use domino_storage::CommitMode;
use domino_types::Unid;

use crate::fixture::{
    self, rare_term, reads_restricted, Doc, WorkDir, ANONYMOUS, DB_PATH, IDENTITIES, PAGE_ROWS,
    RARE_TERMS, USERS, VIEW_NAMES,
};
use crate::http::{self, Client, Reply};
use crate::report::Outcome;
use crate::rng::{self, shuffle, Fnv64, SplitMix64, Zipf};
use crate::rounds::{self, Timing, Worker};
use crate::trace::{Budget, Recorder, Span};
use crate::{probes, stats, Args, Sub, SETUPS};

/// Closed-loop clients (`nproc` of the sandbox; the server gets as many
/// workers).
pub const CLIENTS: usize = 2;
/// Equal consecutive rounds a sub-run's measured phase is cut into.
pub const ROUNDS: usize = 10;
/// Skew of the view-page keys (hot pages, so the command cache matters).
const ZIPF_S: f64 = 1.1;
/// Skew of the document ranks. Milder: a write costs in proportion to
/// its document's body (0.5–8 KiB, re-indexed whole), and with a steep
/// skew a handful of documents, different under every seed, would set
/// the cost of the whole run.
const DOC_ZIPF_S: f64 = 0.7;
/// `Seq` of the first document client `c` creates is `(c + 1) * this`.
const CREATED_SEQ_BASE: u32 = 1_000_000;

/// What one request asks for; parameters are resolved against the
/// client's model when the request is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    View { key: u32, json: bool },
    Doc { rank: u32, user: u8 },
    Search { term: u16, user: u8 },
    Save { rank: u32, field: u8, val: u64 },
    Create { val: u64 },
    Delete { rank: u32 },
}

impl Op {
    fn hash_into(&self, h: &mut Fnv64) {
        let words: [u64; 4] = match *self {
            Op::View { key, json } => [1, key.into(), json.into(), 0],
            Op::Doc { rank, user } => [2, rank.into(), user.into(), 0],
            Op::Search { term, user } => [3, term.into(), user.into(), 0],
            Op::Save { rank, field, val } => [4, rank.into(), field.into(), val],
            Op::Create { val } => [5, val, 0, 0],
            Op::Delete { rank } => [6, rank.into(), 0, 0],
        };
        for w in words {
            h.write_u64(w);
        }
    }

    fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Save { .. } | Op::Create { .. } | Op::Delete { .. }
        )
    }
}

/// Latency class of one exchange, for the per-layer split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    ViewHit,
    ViewMiss,
    Doc,
    Search,
    Write,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub dur_ns: u64,
    pub class: Class,
}

/// One cacheable view page: who asks, for which view and page.
#[derive(Debug, Clone, Copy)]
pub struct PageKey {
    pub user: u8,
    pub view: u8,
    pub page: u16,
}

/// The fixed inputs of a run: per-client op lists plus the tables ops
/// index into. A pure function of `(seed, sizes)`.
pub struct Plan {
    pub keys: Vec<PageKey>,
    /// Document order `Op::Doc` ranks index (web_read: the whole corpus).
    pub doc_perm: Vec<u32>,
    pub ops: Vec<Vec<Op>>,
    pub hash: u64,
}

/// Ops of each kind in one block of the op list: `?OpenView`,
/// `?ReadViewEntries`, `?OpenDocument`, `?SearchView`, `?SaveDocument`,
/// `?CreateDocument`, `?DeleteDocument`. `web_read` is 65/10/20/5 %;
/// `web_mixed` scales that to 80 % and adds 12/6/2 % of writes.
fn mix(mixed: bool) -> [usize; 7] {
    if mixed {
        [26, 4, 8, 2, 6, 3, 1]
    } else {
        [13, 2, 4, 1, 0, 0, 0]
    }
}

/// Build the op lists: `total` ops per client (whole blocks) over `docs`
/// documents.
pub fn plan(seed: u64, mixed: bool, docs: usize, total: usize) -> Plan {
    let pages = docs / PAGE_ROWS;
    // Pages a write-heavy run can always fill: deletions never outnumber
    // 2 % of the ops, so keep that many rows (and one page) clear of the
    // end of the view.
    let usable_pages = if mixed {
        pages - 1 - (total * CLIENTS / 50).div_ceil(PAGE_ROWS)
    } else {
        pages
    };
    let mut keys = Vec::with_capacity(IDENTITIES * VIEW_NAMES.len() * usable_pages);
    for user in 0..IDENTITIES as u8 {
        for view in 0..VIEW_NAMES.len() as u8 {
            for page in 0..usable_pages as u16 {
                keys.push(PageKey { user, view, page });
            }
        }
    }
    shuffle(&mut keys, &mut SplitMix64::fork(seed, 0xA1));
    let mut doc_perm: Vec<u32> = (0..docs as u32).collect();
    shuffle(&mut doc_perm, &mut SplitMix64::fork(seed, 0xA2));

    let key_zipf = Zipf::new(keys.len(), ZIPF_S);
    let partition = if mixed { docs / CLIENTS } else { docs };
    let doc_zipf = Zipf::new(partition, DOC_ZIPF_S);
    let mix = mix(mixed);
    let block: usize = mix.iter().sum();
    assert_eq!(total % block, 0, "op lists are whole blocks");
    let mut hash = Fnv64::default();
    let mut ops = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let mut rng = SplitMix64::fork(seed, 0xB0 + client as u64);
        let mut list = Vec::with_capacity(total);
        for _ in 0..total / block {
            for kind in rng::block(&mix, &mut rng) {
                let user = rng.below(IDENTITIES as u64) as u8;
                let op = match kind {
                    0 | 1 => Op::View {
                        key: key_zipf.sample(&mut rng) as u32,
                        json: kind == 1,
                    },
                    2 => Op::Doc {
                        rank: doc_zipf.sample(&mut rng) as u32,
                        user,
                    },
                    3 => Op::Search {
                        term: rng.below(RARE_TERMS) as u16,
                        user,
                    },
                    4 => Op::Save {
                        rank: doc_zipf.sample(&mut rng) as u32,
                        field: rng.below(3) as u8,
                        val: rng.next_u64(),
                    },
                    5 => Op::Create {
                        val: rng.next_u64(),
                    },
                    _ => Op::Delete {
                        rank: doc_zipf.sample(&mut rng) as u32,
                    },
                };
                op.hash_into(&mut hash);
                list.push(op);
            }
        }
        ops.push(list);
    }
    Plan {
        keys,
        doc_perm,
        ops,
        hash: hash.finish(),
    }
}

// ---------------------------------------------------------------------
// the site under test
// ---------------------------------------------------------------------

/// A served database: the system under test plus the model of its
/// initial contents.
pub struct Site {
    pub db: Arc<Database>,
    pub server: DominoServer,
    pub listener: HttpListener,
    pub docs: Vec<Doc>,
    /// NSF path when file-backed.
    pub nsf: Option<PathBuf>,
}

/// Build the fixture and bring the HTTP task up in front of it. With a
/// directory the database is `open_path` (NsfFile + `.txn`), populated
/// without a log (`fixture::load_config`), shut down cleanly and reopened
/// under `Force`; without one it is in memory.
pub fn build_site(seed: u64, docs: usize, dir: Option<&Path>) -> Site {
    let (db, model, nsf) = match dir {
        None => {
            let db = fixture::open_in_memory("bench", 1);
            db.set_acl(&fixture::acl()).expect("set acl");
            let model = fixture::populate(&db, seed, docs);
            // Drop the load from the in-memory log.
            db.checkpoint().expect("checkpoint after load");
            (db, model, None)
        }
        Some(dir) => {
            let nsf = dir.join("bench.nsf");
            for ext in ["nsf", "txn", "master", "base"] {
                let _ = std::fs::remove_file(nsf.with_extension(ext));
            }
            // One clock across the load and the reopen: a fresh one would
            // hand out the load's timestamps (and so its UNIDs) again.
            let clock = fixture::clock(1);
            let open =
                |config| Database::open_path(&nsf, config, clock.clone()).expect("open_path");
            let load = open(fixture::load_config("bench", 1));
            load.set_acl(&fixture::acl()).expect("set acl");
            let model = fixture::populate(&load, seed, docs);
            load.shutdown().expect("clean shutdown after load");
            drop(load);
            let served = open(fixture::db_config("bench", 1, CommitMode::Force));
            (Arc::new(served), model, Some(nsf))
        }
    };
    let server = DominoServer::new(ServerConfig {
        workers: CLIENTS,
        queue_bound: 64,
        cache_capacity: 256,
    });
    server
        .register_database(DB_PATH, &db)
        .expect("register database");
    for design in fixture::view_designs() {
        server.add_view(DB_PATH, design).expect("add view");
    }
    for u in USERS {
        server.register_user(u.name, u.password);
    }
    let listener = HttpListener::start(
        server.clone(),
        HttpConfig {
            max_connections: 16,
            idle_timeout: Duration::from_secs(120),
            io_timeout: Duration::from_secs(30),
            ..HttpConfig::default()
        },
    )
    .expect("start listener");
    Site {
        db,
        server,
        listener,
        docs: model,
        nsf,
    }
}

// ---------------------------------------------------------------------
// the three front doors
// ---------------------------------------------------------------------

/// One rendered request, independent of the door it goes through.
pub struct Call {
    pub post: bool,
    pub target: String,
    pub user: usize,
    pub body: String,
}

/// The depth a request enters at: the TCP socket, the worker-pool front
/// door, or the executor itself.
pub enum Door {
    Socket {
        client: Client,
        request: Vec<u8>,
        auth: Vec<String>,
    },
    Serve(DominoServer, Option<Response>),
    Handle(DominoServer, Option<Response>),
}

impl Door {
    pub fn socket(addr: &str) -> Door {
        Door::Socket {
            client: Client::connect(addr),
            request: Vec::with_capacity(1024),
            auth: (0..IDENTITIES).map(http::auth_line).collect(),
        }
    }

    pub fn depth(&self) -> &'static str {
        match self {
            Door::Socket { .. } => "socket",
            Door::Serve(..) => "serve",
            Door::Handle(..) => "handle",
        }
    }

    /// The raw request bytes a socket door would send for `call`.
    pub fn render(out: &mut Vec<u8>, call: &Call, auth: &str) {
        if call.post {
            http::render_post(out, &call.target, auth, &call.body);
        } else {
            http::render_get(out, &call.target, auth);
        }
    }

    pub fn call(&mut self, call: &Call) -> Reply<'_> {
        match self {
            Door::Socket {
                client,
                request,
                auth,
            } => {
                Door::render(request, call, &auth[call.user]);
                client.exchange(request)
            }
            Door::Serve(server, last) => {
                *last = Some(server.serve(typed_request(call)));
                reply_of(last.as_ref().expect("just set"))
            }
            Door::Handle(server, last) => {
                *last = Some(server.handle(&typed_request(call)));
                reply_of(last.as_ref().expect("just set"))
            }
        }
    }
}

pub fn typed_request(call: &Call) -> Request {
    let req = if call.post {
        Request::post(&call.target, &call.body)
    } else {
        Request::get(&call.target)
    };
    if call.user == ANONYMOUS {
        req
    } else {
        req.as_user(USERS[call.user].name, USERS[call.user].password)
    }
}

fn reply_of(resp: &Response) -> Reply<'_> {
    Reply {
        status: resp.status.code(),
        cache_hit: resp.from_cache,
        body: &resp.body,
    }
}

// ---------------------------------------------------------------------
// the oracle
// ---------------------------------------------------------------------

/// Expected page contents of the static (`web_read`) corpus.
pub struct PageModel {
    /// Per view: document indices in collation order.
    orders: Vec<Vec<usize>>,
}

impl PageModel {
    pub fn new(docs: &[Doc]) -> PageModel {
        PageModel {
            orders: (0..VIEW_NAMES.len())
                .map(|v| fixture::view_order(v, docs, 0..docs.len()))
                .collect(),
        }
    }

    /// UNIDs identity `user` sees on `page` of `view`: the 30-entry
    /// window of the index minus the rows `$Readers` hides from them.
    pub fn visible(&self, docs: &[Doc], view: usize, page: usize, user: usize) -> Vec<Unid> {
        let order = &self.orders[view];
        let start = (page * PAGE_ROWS).min(order.len());
        let end = (start + PAGE_ROWS).min(order.len());
        order[start..end]
            .iter()
            .map(|i| &docs[*i])
            .filter(|d| !d.restricted || reads_restricted(user))
            .map(|d| d.unid)
            .collect()
    }
}

/// What a reply must look like.
enum Expect {
    /// A view page: exactly these rows when known, else at most a page.
    Page {
        rows: Option<Vec<Unid>>,
        full: bool,
        json: bool,
    },
    /// The document at `idx` of the client's table, rendered.
    Document {
        idx: usize,
    },
    /// `401` (anonymous) or `403` (named) on a `$Readers` document.
    Denied {
        code: u16,
    },
    /// Search hits: exactly `n`, or at most `n` while documents come and go.
    Hits {
        n: usize,
        exact: bool,
    },
    Saved,
    Created,
    Deleted,
}

/// UNIDs of the rows of a rendered view page, in order.
pub fn page_unids(body: &str, json: bool) -> Vec<Unid> {
    let parse = |hex: &str| u128::from_str_radix(hex, 16).ok().map(Unid);
    if json {
        const MARK: &str = "\"@unid\":\"";
        body.match_indices(MARK)
            .filter_map(|(i, _)| {
                body.get(i + MARK.len()..i + MARK.len() + 32)
                    .and_then(parse)
            })
            .collect()
    } else {
        body.match_indices("?OpenDocument\">")
            .filter_map(|(i, _)| {
                i.checked_sub(32)
                    .and_then(|s| body.get(s..i))
                    .and_then(parse)
            })
            .collect()
    }
}

fn hits_of(body: &str) -> Option<usize> {
    let end = body.find(" hits</p>")?;
    let start = body[..end].rfind("<p>")? + 3;
    body[start..end].parse().ok()
}

fn created_unid(body: &str) -> Option<Unid> {
    let start = body.find("</h1><p>")? + 8;
    u128::from_str_radix(body.get(start..start + 32)?, 16)
        .ok()
        .map(Unid)
}

// ---------------------------------------------------------------------
// one client
// ---------------------------------------------------------------------

/// A client's model: the documents it may address and, under
/// `web_mixed`, exclusively writes.
pub struct ClientState {
    id: usize,
    mixed: bool,
    pub docs: Vec<Doc>,
    /// Indices into `docs` of documents not deleted.
    pub live: Vec<usize>,
    created: u32,
    pages: Option<Arc<PageModel>>,
    /// Documents matching each rare term that everyone / only the
    /// editors may read (static: bodies never change).
    term_hits: Arc<Vec<(u32, u32)>>,
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    pub checkpoint_ms: Vec<f64>,
}

impl ClientState {
    /// `docs` is what the client may address: under `web_read` the whole
    /// corpus (in the plan's shuffled order, the order `pages` indexes),
    /// under `web_mixed` the client's own partition.
    fn new(
        id: usize,
        mixed: bool,
        docs: Vec<Doc>,
        pages: Option<Arc<PageModel>>,
        term_hits: Arc<Vec<(u32, u32)>>,
    ) -> ClientState {
        ClientState {
            id,
            mixed,
            live: (0..docs.len()).collect(),
            docs,
            created: 0,
            pages,
            term_hits,
            attempted: 0,
            failed: 0,
            samples: Vec::new(),
            checkpoint_ms: Vec::new(),
        }
    }

    fn pick(&self, rank: u32) -> usize {
        self.live[rank as usize % self.live.len()]
    }

    /// Render `op` against the model and say what the reply must hold.
    fn prepare(&self, op: Op, keys: &[PageKey]) -> (Call, Expect) {
        let get = |target: String, user: usize| Call {
            post: false,
            target,
            user,
            body: String::new(),
        };
        let post = |target: String, body: String| Call {
            post: true,
            target,
            user: self.id,
            body,
        };
        match op {
            Op::View { key, json } => {
                let k = keys[key as usize];
                let (user, view, page) = (k.user as usize, k.view as usize, k.page as usize);
                let command = if json { "ReadViewEntries" } else { "OpenView" };
                let target = format!(
                    "/{DB_PATH}.nsf/{}?{command}&Start={}&Count={PAGE_ROWS}",
                    VIEW_NAMES[view],
                    page * PAGE_ROWS + 1
                );
                let rows = self
                    .pages
                    .as_ref()
                    .map(|m| m.visible(&self.docs, view, page, user));
                let expect = Expect::Page {
                    rows,
                    full: reads_restricted(user),
                    json,
                };
                (get(target, user), expect)
            }
            Op::Doc { rank, user } => {
                let idx = self.pick(rank);
                let doc = &self.docs[idx];
                let user = user as usize;
                let target = format!("/{DB_PATH}.nsf/{}?OpenDocument", doc.unid);
                let expect = if doc.restricted && !reads_restricted(user) {
                    Expect::Denied {
                        code: if user == ANONYMOUS { 401 } else { 403 },
                    }
                } else {
                    Expect::Document { idx }
                };
                (get(target, user), expect)
            }
            Op::Search { term, user } => {
                let user = user as usize;
                let (open, restricted) = self.term_hits[term as usize];
                let matches = if reads_restricted(user) {
                    open + restricted
                } else {
                    open
                };
                let target = format!(
                    "/{DB_PATH}.nsf/bydate?SearchView&Query={}&Count={PAGE_ROWS}",
                    rare_term(term.into())
                );
                let expect = Expect::Hits {
                    n: (matches as usize).min(PAGE_ROWS),
                    exact: !self.mixed,
                };
                (get(target, user), expect)
            }
            Op::Save { rank, field, val } => {
                let doc = &self.docs[self.pick(rank)];
                let (name, value) = new_field(field, val);
                let target = format!("/{DB_PATH}.nsf/{}?SaveDocument", doc.unid);
                (
                    post(target, format!("{name}={}", value.replace(' ', "+"))),
                    Expect::Saved,
                )
            }
            Op::Create { val } => {
                let d = self.new_doc(val);
                let body = format!(
                    "Subject={}&Author={}&Status={}&Seq={}&Priority=3",
                    d.subject.replace(' ', "+"),
                    d.author,
                    d.status,
                    d.seq_text()
                );
                (
                    post(
                        format!("/{DB_PATH}.nsf/{}?CreateDocument", fixture::FORM),
                        body,
                    ),
                    Expect::Created,
                )
            }
            Op::Delete { rank } => {
                let doc = &self.docs[self.pick(rank)];
                let target = format!("/{DB_PATH}.nsf/{}?DeleteDocument", doc.unid);
                (post(target, String::new()), Expect::Deleted)
            }
        }
    }

    fn new_doc(&self, val: u64) -> Doc {
        let mut r = SplitMix64::new(val);
        Doc::web_created(
            (self.id as u32 + 1) * CREATED_SEQ_BASE + self.created,
            fixture::subject_text(&mut r),
            fixture::author_name(&mut r),
            fixture::status_name(&mut r),
        )
    }

    /// Check `reply` against `expect`, then fold a successful write into
    /// the model. Returns the latency class of the exchange.
    fn settle(&mut self, op: Op, expect: Expect, reply: &Reply<'_>) -> Class {
        let mut class = Class::Doc;
        let ok = match expect {
            Expect::Page { rows, full, json } => {
                class = if reply.cache_hit {
                    Class::ViewHit
                } else {
                    Class::ViewMiss
                };
                let got = page_unids(reply.body, json);
                reply.status == 200
                    && match rows {
                        Some(want) => got == want,
                        // Under writes the window moves; editors still see
                        // a full page, everyone else at most one.
                        None if full => got.len() == PAGE_ROWS,
                        None => !got.is_empty() && got.len() <= PAGE_ROWS,
                    }
            }
            Expect::Document { idx } => {
                let d = &self.docs[idx];
                let item = |name: &str, value: &str| {
                    reply
                        .body
                        .contains(&format!("<dt>{name}</dt><dd>{value}</dd>"))
                };
                reply.status == 200
                    && item("Subject", &d.subject)
                    && item("Author", &d.author)
                    && item("Status", d.status)
                    && item("Seq", &d.seq_text())
            }
            Expect::Denied { code } => reply.status == code,
            Expect::Hits { n, exact } => {
                class = Class::Search;
                reply.status == 200
                    && hits_of(reply.body).is_some_and(|h| if exact { h == n } else { h <= n })
            }
            Expect::Saved => {
                class = Class::Write;
                let ok = reply.status == 200 && reply.body.contains("Document saved");
                if let (true, Op::Save { rank, field, val }) = (ok, op) {
                    let idx = self.pick(rank);
                    let (_, value) = new_field(field, val);
                    let d = &mut self.docs[idx];
                    match field {
                        0 => d.subject = value,
                        1 => {
                            d.status = fixture::STATUSES
                                .iter()
                                .copied()
                                .find(|s| *s == value)
                                .expect("generated status")
                        }
                        _ => d.author = value,
                    }
                }
                ok
            }
            Expect::Created => {
                class = Class::Write;
                match (reply.status, created_unid(reply.body), op) {
                    (200, Some(unid), Op::Create { val }) => {
                        let mut d = self.new_doc(val);
                        d.unid = unid;
                        self.created += 1;
                        self.live.push(self.docs.len());
                        self.docs.push(d);
                        true
                    }
                    _ => false,
                }
            }
            Expect::Deleted => {
                class = Class::Write;
                let ok = reply.status == 200 && reply.body.contains("Document deleted");
                if let (true, Op::Delete { rank }) = (ok, op) {
                    let at = rank as usize % self.live.len();
                    self.live.swap_remove(at);
                }
                ok
            }
        };
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 3 {
                let head: String = reply.body.chars().take(300).collect();
                eprintln!(
                    "wrong reply to {op:?}: status {} body {head:?}",
                    reply.status
                );
            }
        }
        class
    }
}

/// The value a `Save` op writes: `(item name, text)`.
fn new_field(field: u8, val: u64) -> (&'static str, String) {
    let mut r = SplitMix64::new(val);
    match field {
        0 => ("Subject", fixture::subject_text(&mut r)),
        1 => ("Status", fixture::status_name(&mut r).to_string()),
        _ => ("Author", fixture::author_name(&mut r)),
    }
}

/// Per rare term: `(documents everyone may read, $Readers documents)`.
fn term_hit_table(docs: &[Doc]) -> Vec<(u32, u32)> {
    let mut table = vec![(0u32, 0u32); RARE_TERMS as usize];
    for d in docs {
        for t in &d.rare {
            let slot = &mut table[*t as usize];
            if d.restricted {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
    }
    table
}

// ---------------------------------------------------------------------
// running parts of the op list
// ---------------------------------------------------------------------

/// What the clients share while a part runs.
struct Shared<'a> {
    keys: &'a [PageKey],
    db: &'a Database,
    epoch: Instant,
    /// `web_mixed`: client 0 invokes one checkpoint half-way through
    /// every round, so that all rounds carry the same.
    checkpoints: bool,
}

/// One client driving its slice of the op list through one door.
struct WebWorker<'a> {
    door: &'a mut Door,
    st: &'a mut ClientState,
    ops: &'a [Op],
    sh: &'a Shared<'a>,
    /// Spans of this part when the recorder is on, ids from `first_id`.
    spans: Option<Vec<Span>>,
    first_id: u64,
}

impl Worker for WebWorker<'_> {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run(&mut self, from: usize, to: usize) {
        let depth = self.door.depth();
        for i in from..to {
            let op = self.ops[i];
            let (call, expect) = self.st.prepare(op, self.sh.keys);
            let start = Instant::now();
            let reply = self.door.call(&call);
            let dur_ns = start.elapsed().as_nanos() as u64;
            let class = self.st.settle(op, expect, &reply);
            let start_ns = (start - self.sh.epoch).as_nanos() as u64;
            self.st.samples.push(Sample { dur_ns, class });
            if let Some(spans) = &mut self.spans {
                spans.push(Span {
                    name: span_name(depth, class),
                    start_ns,
                    end_ns: start_ns + dur_ns,
                    parent: -1,
                    op_id: self.first_id + i as u64,
                });
            }
            if self.sh.checkpoints && self.st.id == 0 && i == (from + to) / 2 {
                let t = Instant::now();
                self.sh.db.checkpoint_incremental(64).expect("checkpoint");
                self.st.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
}

fn span_name(depth: &'static str, class: Class) -> &'static str {
    match (depth, class) {
        ("socket", Class::ViewHit) => "socket.view_hit",
        ("socket", Class::ViewMiss) => "socket.view_miss",
        ("socket", Class::Doc) => "socket.doc",
        ("socket", Class::Search) => "socket.search",
        ("socket", Class::Write) => "socket.write",
        ("serve", Class::ViewHit) => "serve.view_hit",
        ("serve", Class::ViewMiss) => "serve.view_miss",
        ("serve", Class::Doc) => "serve.doc",
        ("serve", Class::Search) => "serve.search",
        ("serve", Class::Write) => "serve.write",
        (_, Class::ViewHit) => "handle.view_hit",
        (_, Class::ViewMiss) => "handle.view_miss",
        (_, Class::Doc) => "handle.doc",
        (_, Class::Search) => "handle.search",
        (_, Class::Write) => "handle.write",
    }
}

/// One part of the op list: how it went and the samples it took.
pub struct Part {
    pub timing: Timing,
    pub samples: Vec<Sample>,
}

impl Part {
    pub fn sorted_ns(&self, keep: impl Fn(Class) -> bool) -> Vec<u64> {
        stats::sorted(
            self.samples
                .iter()
                .filter(|s| keep(s.class))
                .map(|s| s.dur_ns)
                .collect(),
        )
    }

    /// Median µs of the samples `keep` selects (0 when there are none).
    pub fn p50_us(&self, keep: impl Fn(Class) -> bool) -> f64 {
        let v = self.sorted_ns(keep);
        if v.is_empty() {
            0.0
        } else {
            stats::p50_us(&v)
        }
    }
}

/// Run ops `from..to` of every client's list through `doors` in `rounds`
/// rounds; spans go to `rec` when given, with ids from `first_id`.
#[allow(clippy::too_many_arguments)]
fn run_part(
    doors: &mut [Door],
    states: &mut [ClientState],
    plan: &Plan,
    (from, to): (usize, usize),
    rounds: usize,
    sh: &Shared<'_>,
    deadline: Option<Instant>,
    rec: Option<(&mut Recorder, u64)>,
) -> Part {
    for st in states.iter_mut() {
        st.samples.clear();
    }
    let first_id = rec.as_ref().map_or(0, |r| r.1);
    let mut workers: Vec<WebWorker<'_>> = doors
        .iter_mut()
        .zip(states.iter_mut())
        .zip(&plan.ops)
        .enumerate()
        .map(|(c, ((door, st), ops))| WebWorker {
            door,
            st,
            ops: &ops[from..to],
            sh,
            spans: rec.is_some().then(Vec::new),
            first_id: first_id + (c * (to - from)) as u64,
        })
        .collect();
    let timing = rounds::run(&mut workers, rounds, deadline);
    let spans: Vec<Vec<Span>> = workers.iter_mut().filter_map(|w| w.spans.take()).collect();
    drop(workers);
    if let Some((rec, _)) = rec {
        for s in spans {
            rec.extend(s);
        }
    }
    Part {
        timing,
        samples: states
            .iter()
            .flat_map(|s| s.samples.iter().copied())
            .collect(),
    }
}

// ---------------------------------------------------------------------
// the workload
// ---------------------------------------------------------------------

/// Requests per second of `--seconds` the op lists are sized for, set
/// from full runs on the sandbox so that what a run measures — three
/// set-ups and thirty rounds — lasts about `--seconds` there. Work is
/// fixed by `(seed, seconds)`, never by the clock.
const READ_OPS_PER_SECOND: usize = 8_400;
const MIXED_OPS_PER_SECOND: usize = 370;
const DOCS: usize = 6000;

/// Corpus size and the op-list unit, per client: whole blocks of the
/// mix. A sub-run is 11 units — one of warm-up, then one per round — and
/// the op list holds `SETUPS` sub-runs. A plain run measures one sub-run
/// on each of its fixtures; a traced run measures the whole list on the
/// last (3 units of warm-up, then whole sixths).
fn sizes(args: &Args, mixed: bool) -> (usize, usize) {
    let rate = if mixed {
        MIXED_OPS_PER_SECOND
    } else {
        READ_OPS_PER_SECOND
    };
    let mut per_client = rate * args.seconds as usize / CLIENTS;
    let mut docs = DOCS;
    if args.quick {
        per_client /= 20;
        docs /= 10;
    }
    let block: usize = mix(mixed).iter().sum();
    (
        docs,
        (per_client / (SETUPS * (ROUNDS + 1)) / block).max(1) * block,
    )
}

/// The op lists a run with `args` executes.
pub fn plan_for(args: &Args, mixed: bool) -> Plan {
    let (n_docs, unit) = sizes(args, mixed);
    plan(args.seed, mixed, n_docs, SETUPS * (ROUNDS + 1) * unit)
}

pub fn run(args: &Args, mixed: bool) -> Outcome {
    let (n_docs, unit) = sizes(args, mixed);
    let sub_ops = (ROUNDS + 1) * unit;
    let work = mixed.then(WorkDir::create);
    let dir = work.as_ref().map(|w| w.path());
    let plan = plan_for(args, mixed);
    let mut head = Outcome::default();
    head.fact("op_list_hash", format!("{:016x}", plan.hash));
    head.fact("clients", CLIENTS);
    head.fact("documents", n_docs);
    head.fact("ops_per_client", SETUPS * sub_ops);
    head.fact(
        "fixture_fs",
        work.as_ref().map_or("memory".to_string(), WorkDir::fs_type),
    );

    let (subs, setups) = crate::sub_runs(
        args.trace,
        sub_ops,
        0,
        || build_site(args.seed, n_docs, dir),
        |site, span| measure(args, mixed, &site, &plan, span, dir),
    );
    crate::combine(head, subs, &setups, 0.99, "requests")
}

/// Run ops `from..to` of every client's list against `site`: a tenth (an
/// eleventh of the span) of warm-up, then the measured rounds.
fn measure(
    args: &Args,
    mixed: bool,
    site: &Site,
    plan: &Plan,
    (from, to): (usize, usize),
    dir: Option<&Path>,
) -> Sub {
    let mut out = Outcome::default();
    let name = if mixed { "web_mixed" } else { "web_read" };
    let warm = (to - from) / (ROUNDS + 1);
    let measured = to - from - warm;

    let term_hits = Arc::new(term_hit_table(&site.docs));
    let permuted: Vec<Doc> = plan
        .doc_perm
        .iter()
        .map(|i| site.docs[*i as usize].clone())
        .collect();
    let pages = (!mixed).then(|| Arc::new(PageModel::new(&permuted)));
    let mut states: Vec<ClientState> = (0..CLIENTS)
        .map(|c| {
            let docs = if mixed {
                permuted
                    .iter()
                    .filter(|d| d.seq as usize % CLIENTS == c)
                    .cloned()
                    .collect()
            } else {
                permuted.clone()
            };
            ClientState::new(c, mixed, docs, pages.clone(), term_hits.clone())
        })
        .collect();

    let epoch = Instant::now();
    let sh = Shared {
        keys: &plan.keys,
        db: &site.db,
        epoch,
        checkpoints: mixed,
    };
    let addr = site.listener.addr();
    let mut sockets: Vec<Door> = (0..CLIENTS).map(|_| Door::socket(&addr)).collect();

    // Warm-up: the first tenth of the op list, untimed. Fills the command
    // cache and hydrates lazily seeded bodies.
    run_part(
        &mut sockets,
        &mut states,
        plan,
        (from, from + warm),
        1,
        &sh,
        None,
        None,
    );
    out.fact(
        "checked_in_warmup",
        states.iter().map(|s| s.attempted).sum::<u64>(),
    );

    let before = domino_obs::snapshot();
    let engine_before = site.db.engine_stats();
    // A run that takes twice its nominal length is cut at the next round
    // boundary rather than left to overrun the harness.
    let deadline = Instant::now() + Duration::from_millis(args.seconds * 1500 / SETUPS as u64);
    let mut rec = Recorder::new(epoch);
    let main;
    let mut depths: Option<(Part, Part, Part)> = None;
    if !args.trace {
        main = run_part(
            &mut sockets,
            &mut states,
            plan,
            (from + warm, to),
            ROUNDS,
            &sh,
            Some(deadline),
            None,
        );
    } else {
        // Equal-mix thirds at three depths; the socket third runs half
        // with the recorder on and half with it off.
        let at = |k: usize| from + warm + k * (measured / 6);
        let mut part =
            |doors: &mut [Door], k: (usize, usize), rec: Option<(&mut Recorder, u64)>| {
                run_part(
                    doors,
                    &mut states,
                    plan,
                    (at(k.0), at(k.1)),
                    1,
                    &sh,
                    None,
                    rec,
                )
            };
        main = part(&mut sockets, (0, 1), Some((&mut rec, 0)));
        let untraced = part(&mut sockets, (1, 2), None);
        let mut serve: Vec<Door> = (0..CLIENTS)
            .map(|_| Door::Serve(site.server.clone(), None))
            .collect();
        let served = part(&mut serve, (2, 4), Some((&mut rec, 1 << 32)));
        let mut handle: Vec<Door> = (0..CLIENTS)
            .map(|_| Door::Handle(site.server.clone(), None))
            .collect();
        let handled = part(&mut handle, (4, 6), Some((&mut rec, 2 << 32)));
        out.set(
            "obs.trace_overhead_pct",
            (untraced.timing.ops_per_s() - main.timing.ops_per_s()) / untraced.timing.ops_per_s()
                * 100.0,
        );
        depths = Some((untraced, served, handled));
    }
    let delta = domino_obs::snapshot().diff(&before);
    let engine_after = site.db.engine_stats();
    drop(sockets);

    // Every in-flight check, then (web_mixed) the exact sweep of the final
    // state: the merged models give every view's full order.
    for st in &states {
        out.attempted += st.attempted;
        out.failed += st.failed;
    }
    if mixed {
        sweep_views(&mut out, site, &states);
    }

    for class in [
        Class::ViewHit,
        Class::ViewMiss,
        Class::Doc,
        Class::Search,
        Class::Write,
    ] {
        let v = main.sorted_ns(|c| c == class);
        if !v.is_empty() {
            out.fact(
                &format!("{class:?}_n_p50_max_us"),
                format!(
                    "{} {:.1} {:.1}",
                    v.len(),
                    stats::p50_us(&v),
                    v[v.len() - 1] as f64 / 1e3
                ),
            );
        }
    }

    // Space: bytes stored per byte of user data in live documents (every
    // web_read client models the whole corpus, so count one of them).
    let counted = if mixed { &states[..] } else { &states[..1] };
    let user_bytes: u64 = counted
        .iter()
        .flat_map(|s| s.live.iter().map(|i| s.docs[*i].user_bytes()))
        .sum();
    let stored = match &site.nsf {
        Some(nsf) => {
            site.db.checkpoint().expect("final checkpoint");
            file_bytes(nsf)
        }
        None => site.db.info().expect("db info").logical_bytes,
    };
    out.set(
        "file_bytes_per_user_byte",
        stored as f64 / user_bytes as f64,
    );
    out.fact("user_bytes", user_bytes);
    out.fact("stored_bytes", stored);

    let hits = delta.counter("Http.Cache.Hits") as f64;
    let misses = delta.counter("Http.Cache.Misses") as f64;
    let writes_done = plan
        .ops
        .iter()
        .flat_map(|ops| &ops[from + warm..to])
        .filter(|op| op.is_write())
        .count() as u64;
    out.fact(
        "cache_hit_ratio",
        format!("{:.4}", hits / (hits + misses).max(1.0)),
    );
    out.fact("log_flushes", delta.counter("Log.Flushes"));
    out.fact("writes", writes_done);
    // A shed request is a refused request: it counts as failed.
    out.check(delta.counter("Http.Worker.Shed") == 0);

    if let Some((untraced, served, handled)) = depths {
        out.set("web.read_p50_us", main.p50_us(|c| c != Class::Write));
        out.set("web.write_p50_us", main.p50_us(|c| c == Class::Write));
        // Depth medians of the request kind that carries the workload:
        // cached view pages under web_read, uncached ones under web_mixed.
        let dominant = if mixed {
            Class::ViewMiss
        } else {
            Class::ViewHit
        };
        let socket_us = main.p50_us(|c| c == dominant);
        let serve_us = served.p50_us(|c| c == dominant);
        let handle_us = handled.p50_us(|c| c == dominant);
        out.set("netio.socket_self_us", socket_us - serve_us);
        out.set("server.pool_handoff_us", serve_us - handle_us);
        out.set(
            "server.handle_hit_us",
            handled.p50_us(|c| c == Class::ViewHit),
        );
        out.set(
            "server.handle_miss_us",
            handled.p50_us(|c| c == Class::ViewMiss),
        );
        out.set(
            "server.write_handle_us",
            handled.p50_us(|c| c == Class::Write),
        );
        out.set("server.search_us", handled.p50_us(|c| c == Class::Search));
        let conn_requests = delta.counter("Http.Conn.Requests");
        out.set("netio.conn_requests", conn_requests as f64);
        out.check(conn_requests == main.timing.ops() + untraced.timing.ops());
        out.set("server.cache_hit_ratio", hits / (hits + misses).max(1.0));
        out.set(
            "server.cache_invalidations",
            delta.counter("Http.Cache.Invalidations") as f64,
        );
        out.set("server.shed", delta.counter("Http.Worker.Shed") as f64);
        out.set(
            "views.docs_evaluated_per_write",
            delta.counter("View.Documents.Evaluated") as f64 / (writes_done as f64).max(1.0),
        );
        crate::storage_layers(
            &mut out,
            &delta,
            engine_before,
            engine_after,
            writes_done,
            user_bytes,
        );
        let ckpt: Vec<f64> = states
            .iter()
            .flat_map(|s| s.checkpoint_ms.iter().copied())
            .collect();
        if !ckpt.is_empty() {
            out.set("storage.checkpoint_ms", stats::median(&ckpt));
        }
        out.set(
            "core.snapshot_versions",
            site.db.snapshot_stats().retained_versions as f64,
        );
        out.set(
            "core.hydrated",
            delta.counter("Db.Snapshot.Hydrated") as f64,
        );

        // Leaf probes on the same inputs: client 0's documents and the
        // requests it sent.
        let unids: Vec<Unid> = states[0]
            .live
            .iter()
            .map(|i| states[0].docs[*i].unid)
            .collect();
        let restricted: Vec<Unid> = states[0]
            .live
            .iter()
            .map(|i| &states[0].docs[*i])
            .filter(|d| d.restricted)
            .map(|d| d.unid)
            .collect();
        let auth: Vec<String> = (0..IDENTITIES).map(http::auth_line).collect();
        let requests: Vec<(Vec<u8>, String)> = plan.ops[0][from + warm..to]
            .iter()
            .take(2000)
            .map(|op| {
                let (call, _) = states[0].prepare(*op, &plan.keys);
                let mut raw = Vec::new();
                Door::render(&mut raw, &call, &auth[call.user]);
                (raw, call.target)
            })
            .collect();
        probes::request_parsing(&mut rec, &mut out, &requests);
        probes::core(&mut rec, &mut out, &site.db, &unids);
        probes::form_lookup(&mut rec, &mut out, &site.db, &unids);
        probes::formula(&mut rec, &mut out, &site.db, &unids);
        probes::frame_codec(&mut rec, &mut out);
        probes::security(&mut rec, &mut out, &site.db, &restricted);
        probes::views(&mut rec, &mut out, &site.db, &unids);
        probes::ftindex(&mut rec, &mut out, &site.db);
        if let Some(dir) = dir {
            probes::wal(&mut rec, &mut out, dir, 600);
        }

        // The browser's budget, outside in: what each depth adds to the
        // dominant request kind, then the leaves under the executor that
        // such a request crosses (a cache hit never reaches the view). The
        // depth rows are differences of medians, so what outside
        // measurement cannot split is the executor's remainder
        // (authentication, ACL, cache lookup, the per-request event).
        let m = |out: &Outcome, k: &str| out.metrics.get(k).copied().unwrap_or(0.0);
        let mut b = Budget::new(&format!("{name}.{dominant:?}"), socket_us);
        b.row("netio.socket_self_us", socket_us - serve_us)
            .row("server.pool_handoff_us", serve_us - handle_us)
            .row("server.url_parse_us", m(&out, "server.url_parse_us"));
        if mixed {
            b.row("views.page_us", m(&out, "views.page_us"))
                .row("server.render_us", m(&out, "server.render_us"));
        }
        out.set("budget.unaccounted_us", b.unaccounted_us());
        out.budget.extend(b.lines());
        if mixed {
            // The form POST's budget: the same depths, then the write
            // path's leaves.
            let is_write = |c: Class| c == Class::Write;
            let (sock, serve, handle) = (
                main.p50_us(is_write),
                served.p50_us(is_write),
                handled.p50_us(is_write),
            );
            let mut w = Budget::new("web_mixed.Write", sock);
            w.row("netio.socket_self_us", sock - serve)
                .row("server.pool_handoff_us", serve - handle)
                .row("core.form_lookup_us", m(&out, "core.form_lookup_us"))
                .row("ftindex.index_us", m(&out, "ftindex.index_us"))
                .row("views.apply_us x 3 views", 3.0 * m(&out, "views.apply_us"))
                .row("core.hash_us", m(&out, "core.hash_us"))
                .row("core.encode_us", m(&out, "core.encode_us"))
                .row(
                    "wal.append_flush_us x flushes_per_commit",
                    m(&out, "wal.append_flush_us") * m(&out, "wal.flushes_per_commit"),
                );
            out.budget.extend(w.lines());
        }
        match rec.write(name) {
            Ok(path) => out.fact("trace_file", path.display()),
            Err(e) => out.fact("trace_file_error", e),
        }
        out.fact("trace_spans", rec.len());
    }
    let durations: Vec<u64> = main.samples.iter().map(|s| s.dur_ns).collect();
    Sub {
        out,
        by_round_ns: rounds::by_round(&durations, CLIENTS, main.timing.rounds.len()),
        timing: main.timing,
    }
}

/// NSF plus transaction log (and its sidecars) on disk.
pub fn file_bytes(nsf: &Path) -> u64 {
    ["nsf", "txn", "master", "base"]
        .iter()
        .filter_map(|ext| std::fs::metadata(nsf.with_extension(ext)).ok())
        .map(|m| m.len())
        .sum()
}

/// After the clients stop: every page of every view, read as an editor
/// through the executor, must list exactly the merged model's order.
fn sweep_views(out: &mut Outcome, site: &Site, states: &[ClientState]) {
    let merged: Vec<Doc> = states
        .iter()
        .flat_map(|s| s.live.iter().map(|i| s.docs[*i].clone()))
        .collect();
    let editor = USERS[0];
    for (v, view) in VIEW_NAMES.iter().enumerate() {
        let order = fixture::view_order(v, &merged, 0..merged.len());
        for (page, want) in order.chunks(PAGE_ROWS).enumerate() {
            let target = format!(
                "/{DB_PATH}.nsf/{view}?OpenView&Start={}&Count={PAGE_ROWS}",
                page * PAGE_ROWS + 1
            );
            let resp = site
                .server
                .handle(&Request::get(&target).as_user(editor.name, editor.password));
            let want: Vec<Unid> = want.iter().map(|i| merged[*i].unid).collect();
            out.check(resp.status.code() == 200 && page_unids(&resp.body, false) == want);
        }
    }
}
