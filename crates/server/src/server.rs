//! The request executor: authentication, ACL enforcement, command
//! dispatch, the admission gate in front of them, and the background
//! agent manager ("amgr") driver.
//!
//! One [`DominoServer`] hosts any number of registered databases. Every
//! request runs the same pipeline a Domino HTTP worker runs:
//!
//! 1. parse the URL command (`400` on anything malformed),
//! 2. authenticate the claimed identity against the user registry
//!    (`401` on a bad name/password; no header means `Anonymous`),
//! 3. resolve the database (`404`),
//! 4. execute under a [`Session`], or for view pages and searches the
//!    requester's [`Principal`], so the reference monitor's rules all
//!    apply — denials map to `401` for anonymous callers (the browser
//!    should ask for credentials) and `403` for authenticated ones,
//! 5. render, consulting the command cache for view pages.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use domino_core::{
    AgentScheduler, AgentTickReport, Database, Note, Principal, Session, ITEM_READERS,
};
use domino_ftindex::FtIndex;
use domino_obs as obs;
use domino_security::Directory;
use domino_types::{Clock, DominoError, ItemFlags, Result, Value};
use domino_views::{stored_designs, View, ViewDesign};
use parking_lot::Mutex;

use crate::cache::{CacheKey, CachedPage, CommandCache, PageKind};
use crate::http::{Credentials, Request, Response, Status};
use crate::render::{self, Row};
use crate::url::{self, UrlCommand};

/// The identity of requests without credentials.
pub const ANONYMOUS: &str = "Anonymous";

/// Sizing knobs for the HTTP task (see OPERATIONS.md §"The HTTP task").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Requests executing at once (Domino: `HTTP.NumberOfWorkers`).
    pub workers: usize,
    /// Requests allowed to wait for a place before load-shedding 503s.
    pub queue_bound: usize,
    /// Rendered view pages the command cache holds (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_bound: 64,
            cache_capacity: 256,
        }
    }
}

/// One view attached at registration: its column titles plus the live
/// maintained index.
struct SiteView {
    name: String,
    columns: Vec<String>,
    view: View,
}

impl SiteView {
    fn attach(db: &Arc<Database>, design: ViewDesign) -> Result<SiteView> {
        Ok(SiteView {
            name: design.name.clone(),
            columns: design.columns.iter().map(|c| c.title.clone()).collect(),
            view: View::attach(db, design)?,
        })
    }
}

/// One registered database: the notes, its live views, its full-text
/// index, and its agent-manager state.
struct Site {
    name: String,
    db: Arc<Database>,
    views: Mutex<HashMap<String, Arc<SiteView>>>,
    ft: FtIndex,
    amgr: Mutex<AgentScheduler>,
}

impl Site {
    fn view(&self, name: &str) -> Option<Arc<SiteView>> {
        self.views.lock().get(&name.to_lowercase()).cloned()
    }
}

struct Inner {
    sites: Mutex<HashMap<String, Arc<Site>>>,
    users: Mutex<HashMap<String, String>>,
    directory: Mutex<Arc<Directory>>,
    cache: CommandCache,
    gate: Gate,
}

/// Admission to [`Inner::handle`]: at most `workers` requests execute at
/// once and at most `queue_bound` more wait, admitted in arrival order;
/// the next caller is refused. It owns no thread.
struct Gate {
    workers: usize,
    queue_bound: u64,
    state: std::sync::Mutex<GateState>,
    /// A place freed with callers waiting, or idle with a drain waiting.
    changed: Condvar,
}

/// Every caller takes a ticket; tickets are admitted in order, so
/// `issued - admitted` callers wait.
#[derive(Default)]
struct GateState {
    running: usize,
    issued: u64,
    admitted: u64,
    drains: usize,
}

impl GateState {
    fn waiting(&self) -> u64 {
        self.issued - self.admitted
    }
}

impl Gate {
    /// Every update leaves the counters consistent, so a poisoned lock's
    /// state is still good.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A place to execute, after every earlier arrival; `None` when
    /// `queue_bound` callers already wait. Only a caller that has to wait
    /// reads the clock.
    fn enter(&self) -> Option<Permit<'_>> {
        let mut s = self.lock();
        if s.waiting() >= self.queue_bound {
            obs::counter!("Http.Worker.Shed").inc();
            return None;
        }
        let ticket = s.issued;
        s.issued += 1;
        if s.admitted != ticket || s.running >= self.workers {
            obs::gauge!("Http.Worker.QueueDepth").set(s.waiting() as i64);
            let since = Instant::now();
            while s.admitted != ticket || s.running >= self.workers {
                s = self.changed.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            obs::histogram!("Http.Worker.Wait.Micros").record_micros(since.elapsed());
        }
        s.admitted += 1;
        s.running += 1;
        obs::gauge!("Http.Worker.QueueDepth").set(s.waiting() as i64);
        obs::gauge!("Http.Worker.Busy").set(s.running as i64);
        if s.waiting() > 0 && s.running < self.workers {
            // The next ticket may fit beside this one.
            self.changed.notify_all();
        }
        Some(Permit(self))
    }
}

/// A place in the gate, given back on drop (also if the request panics).
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.running -= 1;
        obs::gauge!("Http.Worker.Busy").set(s.running as i64);
        obs::counter!("Http.Worker.Executed").inc();
        if s.waiting() > 0 || (s.drains > 0 && s.running == 0) {
            self.0.changed.notify_all();
        }
    }
}

/// Strip a `.nsf` suffix and lowercase: the canonical database key.
fn normalize_db(path: &str) -> String {
    let lower = path.to_lowercase();
    lower
        .strip_suffix(".nsf")
        .unwrap_or(&lower)
        .trim_matches('/')
        .to_string()
}

/// Set one posted form field. A form carries names and text, not item
/// flags, so a field keeps the flags of the item it overwrites: a reader
/// or author list edited through `?EditDocument` still restricts.
/// `$Readers` is a reserved name: whoever posts it, it is the reader list
/// Notes treats it as, not a text field that happens to be called that.
/// A reader or author item is a names list (`;`-separated, as
/// `?EditDocument` shows it).
fn set_field(note: &mut Note, name: &str, text: String) {
    // (`items` skips tombstones: a removed field comes back plain.)
    let mut flags = note
        .items()
        .find(|it| it.name.eq_ignore_ascii_case(name))
        .map_or(ItemFlags::SUMMARY, |it| it.flags);
    if name.eq_ignore_ascii_case(ITEM_READERS) {
        flags = flags | ItemFlags::SUMMARY | ItemFlags::READERS;
    }
    let value = if flags.contains(ItemFlags::READERS) || flags.contains(ItemFlags::AUTHORS) {
        Value::text_list(text.split(';').map(str::trim).filter(|n| !n.is_empty()))
    } else {
        Value::text(text)
    };
    note.set_with_flags(name, value, flags);
}

/// Map an execution error to a Domino status. Access denials become 401
/// for anonymous callers (authenticate and retry) and 403 for named ones.
fn error_response(anonymous: bool, e: &DominoError) -> Response {
    let status = match e {
        DominoError::AccessDenied(_) => {
            if anonymous {
                Status::Unauthorized
            } else {
                Status::Forbidden
            }
        }
        DominoError::NotFound(_) => Status::NotFound,
        DominoError::InvalidArgument(_)
        | DominoError::FormulaParse(_)
        | DominoError::FormulaEval(_) => Status::BadRequest,
        DominoError::UpdateConflict(_) => Status::Conflict,
        DominoError::Unavailable(_) => Status::Unavailable,
        _ => Status::ServerError,
    };
    Response::error(status, &e.to_string())
}

/// The Domino HTTP task. Cheap to clone (all clones share one server).
#[derive(Clone)]
pub struct DominoServer {
    inner: Arc<Inner>,
}

impl DominoServer {
    /// Create the task. It starts no thread: requests run on their
    /// callers' threads ([`DominoServer::serve`]).
    pub fn new(config: ServerConfig) -> DominoServer {
        DominoServer {
            inner: Arc::new(Inner {
                sites: Mutex::new(HashMap::new()),
                users: Mutex::new(HashMap::new()),
                directory: Mutex::new(Arc::new(Directory::new())),
                cache: CommandCache::new(config.cache_capacity),
                gate: Gate {
                    workers: config.workers.max(1),
                    queue_bound: config.queue_bound.max(1) as u64,
                    state: std::sync::Mutex::default(),
                    changed: Condvar::new(),
                },
            }),
        }
    }

    /// Serve a database at `/{path}.nsf/...`. Every stored view design
    /// that decodes and validates is attached (built and kept current; see
    /// [`stored_designs`] for the rest), the full-text index is built,
    /// and an agent scheduler is created for [`DominoServer::amgr_tick`].
    pub fn register_database(&self, path: &str, db: &Arc<Database>) -> Result<()> {
        let name = normalize_db(path);
        if name.is_empty() {
            return Err(DominoError::InvalidArgument(
                "database path must be non-empty".into(),
            ));
        }
        let mut views = HashMap::new();
        for design in stored_designs(db)? {
            let key = design.name.to_lowercase();
            views.insert(key, Arc::new(SiteView::attach(db, design)?));
        }
        let site = Site {
            name: name.clone(),
            db: db.clone(),
            views: Mutex::new(views),
            ft: FtIndex::attach(db),
            amgr: Mutex::new(AgentScheduler::new(db.clone(), "HTTP Amgr")),
        };
        self.inner.sites.lock().insert(name, Arc::new(site));
        Ok(())
    }

    /// Attach an additional (unstored) view design to a registered
    /// database.
    pub fn add_view(&self, db_path: &str, design: ViewDesign) -> Result<()> {
        let site = self
            .inner
            .site(&normalize_db(db_path))
            .ok_or_else(|| DominoError::NotFound(format!("no database {db_path:?}")))?;
        let sv = SiteView::attach(&site.db, design)?;
        site.views
            .lock()
            .insert(sv.name.to_lowercase(), Arc::new(sv));
        Ok(())
    }

    /// Register a user for basic authentication.
    pub fn register_user(&self, name: &str, password: &str) {
        self.inner
            .users
            .lock()
            .insert(name.to_lowercase(), password.to_string());
    }

    /// Install the group directory used for ACL evaluation.
    pub fn set_directory(&self, dir: Directory) {
        *self.inner.directory.lock() = Arc::new(dir);
    }

    /// Execute a request on the calling thread, bypassing the admission
    /// gate (tests and in-process tools).
    pub fn handle(&self, req: &Request) -> Response {
        self.inner.handle(req)
    }

    /// Execute a request on the calling thread once the admission gate
    /// lets it in: at most [`ServerConfig::workers`] run at once and at
    /// most [`ServerConfig::queue_bound`] wait, in arrival order. The next
    /// caller gets `503` at once, accounted and logged like any request.
    pub fn serve(&self, req: Request) -> Response {
        match self.inner.gate.enter() {
            Some(_permit) => self.inner.handle(&req),
            None => account(
                &req,
                Response::error(Status::Unavailable, "request queue is full — retry later"),
                0,
            ),
        }
    }

    /// Requests waiting for a place right now.
    pub fn queue_depth(&self) -> usize {
        self.inner.gate.lock().waiting() as usize
    }

    /// Block until no request runs or waits. New requests stay possible
    /// throughout (a fence, not a shutdown); the listener's graceful
    /// drain calls this after its last connection closes.
    pub fn drain(&self) {
        let gate = &self.inner.gate;
        let mut s = gate.lock();
        s.drains += 1;
        while s.running > 0 || s.waiting() > 0 {
            s = gate.changed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.drains -= 1;
    }

    /// Run one agent-manager pass over every registered database: due
    /// [`Scheduled`](domino_core::AgentTrigger::Scheduled) agents and —
    /// when the change sequence moved —
    /// [`OnUpdate`](domino_core::AgentTrigger::OnUpdate) agents run, at
    /// each database's current logical time.
    pub fn amgr_tick(&self) -> Result<Vec<(String, AgentTickReport)>> {
        self.inner.amgr_tick()
    }

    /// Start the agent manager task: it runs [`DominoServer::amgr_tick`]
    /// every `every`. It holds only a weak reference: dropping the last
    /// server clone ends it, as does stopping or dropping the task.
    pub fn start_amgr(&self, every: Duration) -> obs::Task {
        let weak = Arc::downgrade(&self.inner);
        obs::Task::every(
            "http-amgr",
            "Agent manager",
            every,
            move |_| {
                let Some(inner) = weak.upgrade() else {
                    return false;
                };
                let _ = inner.amgr_tick();
                true
            },
            || {},
        )
    }
}

/// Count `resp` under its status and put the domlog.nsf record on the
/// event bus: one event per request, whatever the outcome, a refusal at
/// the gate included. The logger task turns these into HttpRequest
/// documents.
fn account(req: &Request, resp: Response, micros: u64) -> Response {
    obs::counter!("Http.Request.Served").inc();
    match resp.status {
        Status::Ok => obs::counter!("Http.Request.Ok").inc(),
        Status::Unauthorized | Status::Forbidden => obs::counter!("Http.Request.Denied").inc(),
        Status::BadRequest | Status::NotFound | Status::Conflict => {
            obs::counter!("Http.Request.ClientError").inc()
        }
        Status::ServerError | Status::Unavailable => obs::counter!("Http.Request.Error").inc(),
    }
    let user = match &req.credentials {
        Credentials::Anonymous => ANONYMOUS.to_string(),
        Credentials::Basic { user, .. } => user.clone(),
    };
    obs::emit(
        obs::Event::new(obs::EventKind::Http, obs::Severity::Info, "Http.Request")
            .with("method", req.method.as_str())
            .with("command", req.target.clone())
            .with("status", u64::from(resp.status.code()))
            .with("micros", micros)
            .with("user", user.clone()),
    );
    if matches!(resp.status, Status::Unauthorized | Status::Forbidden) {
        obs::emit(
            obs::Event::new(
                obs::EventKind::Security,
                obs::Severity::Warning,
                "Http.Denied",
            )
            .with("status", u64::from(resp.status.code()))
            .with("command", req.target.clone())
            .with("user", user),
        );
    }
    resp
}

impl Inner {
    fn site(&self, name: &str) -> Option<Arc<Site>> {
        self.sites.lock().get(name).cloned()
    }

    fn amgr_tick(&self) -> Result<Vec<(String, AgentTickReport)>> {
        let _span = obs::span!("Http.Amgr.Tick");
        let sites: Vec<Arc<Site>> = self.sites.lock().values().cloned().collect();
        let mut out = Vec::new();
        for site in sites {
            let now = site.db.clock().peek().0;
            let report = site.amgr.lock().tick(now)?;
            obs::counter!("Http.Amgr.AgentRuns").add(report.runs.len() as u64);
            out.push((site.name.clone(), report));
        }
        Ok(out)
    }

    fn handle(&self, req: &Request) -> Response {
        let _span = obs::span!("Http.Request");
        let started = Instant::now();
        let resp = self.dispatch(req);
        let took = started.elapsed();
        obs::histogram!("Http.Request.Micros").record_micros(took);
        account(req, resp, took.as_micros() as u64)
    }

    fn dispatch(&self, req: &Request) -> Response {
        let cmd = match url::parse(&req.target) {
            Ok(c) => c,
            Err(e) => return Response::error(Status::BadRequest, &e.to_string()),
        };
        let anonymous = req.credentials == Credentials::Anonymous;
        let user = match self.authenticate(&req.credentials) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        let site = match self.site(cmd.db()) {
            Some(s) => s,
            None => {
                return Response::error(
                    Status::NotFound,
                    &format!("no database {:?} on this server", cmd.db()),
                )
            }
        };
        match self.execute(&site, &user, &cmd, req) {
            Ok(resp) => resp,
            Err(e) => error_response(anonymous, &e),
        }
    }

    fn authenticate(&self, cred: &Credentials) -> std::result::Result<String, Response> {
        match cred {
            Credentials::Anonymous => Ok(ANONYMOUS.to_string()),
            Credentials::Basic { user, password } => {
                let users = self.users.lock();
                match users.get(&user.to_lowercase()) {
                    Some(stored) if stored == password => Ok(user.clone()),
                    _ => Err(Response::error(
                        Status::Unauthorized,
                        "name and password do not match any registered user",
                    )),
                }
            }
        }
    }

    /// The group directory (shared, not copied, per request).
    fn directory(&self) -> Arc<Directory> {
        self.directory.lock().clone()
    }

    fn session(&self, site: &Site, user: &str) -> Session {
        Session::new(site.db.clone(), user, self.directory())
    }

    fn execute(
        &self,
        site: &Site,
        user: &str,
        cmd: &UrlCommand,
        req: &Request,
    ) -> Result<Response> {
        match cmd {
            UrlCommand::OpenView {
                view, start, count, ..
            } => self.view_page(site, user, view, *start, *count, PageKind::Html),
            UrlCommand::ReadViewEntries {
                view, start, count, ..
            } => self.view_page(site, user, view, *start, *count, PageKind::Json),
            UrlCommand::OpenDocument { unid, .. } => {
                let note = self.session(site, user).open_by_unid(*unid)?;
                Ok(Response::html(render::document_page(&site.name, &note)))
            }
            UrlCommand::EditDocument { unid, .. } => {
                let note = self.session(site, user).open_for_edit(*unid)?;
                Ok(Response::html(render::edit_page(&site.name, &note)))
            }
            UrlCommand::SaveDocument { unid, .. } => {
                let fields = url::parse_form(&req.body)?;
                if fields.is_empty() {
                    return Err(DominoError::InvalidArgument(
                        "SaveDocument body carries no fields".into(),
                    ));
                }
                let session = self.session(site, user);
                let mut note = session.open_by_unid(*unid)?;
                for (k, v) in fields {
                    set_field(&mut note, &k, v);
                }
                session.save(&mut note)?;
                Ok(Response::html(render::message_page(
                    "Document saved",
                    &note.unid().to_string(),
                )))
            }
            UrlCommand::CreateDocument { form, .. } => {
                let mut note = Note::document(form);
                for (k, v) in url::parse_form(&req.body)? {
                    if !k.eq_ignore_ascii_case("form") {
                        set_field(&mut note, &k, v);
                    }
                }
                self.session(site, user).save(&mut note)?;
                Ok(Response::html(render::message_page(
                    "Document created",
                    &note.unid().to_string(),
                )))
            }
            UrlCommand::DeleteDocument { unid, .. } => {
                let session = self.session(site, user);
                session.delete(session.open_by_unid(*unid)?.id)?;
                Ok(Response::html(render::message_page(
                    "Document deleted",
                    &unid.to_string(),
                )))
            }
            UrlCommand::SearchView {
                view, query, count, ..
            } => self.search_view(site, user, view, query, *count),
        }
    }

    /// Serve one `?OpenView`/`?ReadViewEntries` window from the command
    /// cache, or build it from the view index alone. The cache is probed
    /// first, with the index version only; a miss takes one consistent
    /// [`domino_views::ViewPage`] under a shared guard — no writer lock,
    /// and no note is opened: a row's cells and its `$Readers` list sit
    /// in the same index entry, written together from one version of the
    /// document, so a row is shown iff the requester may read the version
    /// whose values it shows. The finished page is cached under the
    /// requester's access class and stamped with the version its rows
    /// were read at, so a hit is byte-identical by construction, any index
    /// mutation expires it, and an index attached later under the same
    /// name never hits it (no two index states share a version).
    fn view_page(
        &self,
        site: &Site,
        user: &str,
        view_name: &str,
        start: usize,
        count: usize,
        kind: PageKind,
    ) -> Result<Response> {
        let who = Principal::resolve(&site.db.snapshot(), &self.directory(), user)?;
        who.require(who.may_read_row(&[]), "open", &site.name)?;
        let key = CacheKey {
            db: site.name.clone(),
            view: view_name.to_lowercase(),
            start,
            count,
            kind,
            access_class: who.access_class(),
        };
        let sv = site
            .view(view_name)
            .ok_or_else(|| DominoError::NotFound(format!("no view {view_name:?}")))?;
        if let Some(hit) = self.cache.lookup(&key, sv.view.version()) {
            return Ok(Response {
                status: Status::Ok,
                content_type: hit.content_type,
                body: hit.body,
                from_cache: true,
            });
        }
        let _span = obs::span!("Http.View.Render");
        let page = sv.view.page(0, start - 1, count);
        // Reader fields are enforced per row: the view index itself is
        // not access-partitioned.
        let rows: Vec<Row> = page
            .rows
            .iter()
            .enumerate()
            .filter(|(_, entry)| who.may_read_row(&entry.readers))
            .map(|(i, entry)| Row {
                position: start.saturating_add(i),
                unid: entry.unid,
                response_level: entry.response_level,
                cells: entry.values.iter().map(Value::to_text).collect(),
            })
            .collect();
        let (body, content_type) = match kind {
            PageKind::Html => (
                render::view_page(
                    &site.name,
                    &sv.name,
                    &sv.columns,
                    &rows,
                    start,
                    count,
                    page.total,
                ),
                "text/html",
            ),
            PageKind::Json => (
                render::view_entries_json(&sv.columns, &rows, start, count, page.total),
                "application/json",
            ),
        };
        self.cache.insert(
            key,
            CachedPage {
                view_version: page.version,
                body: body.clone(),
                content_type,
            },
        );
        Ok(Response {
            status: Status::Ok,
            content_type,
            body,
            from_cache: false,
        })
    }

    /// `?SearchView`: full-text hits restricted to documents that appear
    /// in the named view and that the user may read. Not cached (Domino
    /// doesn't command-cache search results either).
    fn search_view(
        &self,
        site: &Site,
        user: &str,
        view_name: &str,
        query: &str,
        count: usize,
    ) -> Result<Response> {
        let snap = site.db.snapshot();
        let who = Principal::resolve(&snap, &self.directory(), user)?;
        who.require(who.may_read_row(&[]), "search", &site.name)?;
        let sv = site
            .view(view_name)
            .ok_or_else(|| DominoError::NotFound(format!("no view {view_name:?}")))?;
        let _span = obs::span!("Http.Search");
        let mut hits = Vec::new();
        for hit in site.ft.search(query)? {
            if hits.len() >= count {
                break;
            }
            // The index entry answers membership, and spares the read of
            // a document it already knows to be out of the user's reach.
            let Some(entry) = sv.view.entry(hit.unid) else {
                continue;
            };
            if !who.may_read_row(&entry.readers) {
                continue;
            }
            // The title comes from the snapshot, which a commit may have
            // put ahead of or behind the index: the version whose title
            // is shown is the one whose reader list decides.
            let note = match snap.open_arc(entry.note_id) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if !who.may_read(&note) {
                continue;
            }
            let title = note
                .get_text("Subject")
                .unwrap_or_else(|| hit.unid.to_string());
            hits.push((hit.unid, hit.score, title));
        }
        Ok(Response::html(render::search_page(
            &site.name, &sv.name, query, &hits,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::{AgentDesign, DbConfig};
    use domino_security::{AccessLevel, Acl, AclEntry};
    use domino_types::{LogicalClock, ReplicaId};
    use domino_views::design::ColumnSpec;

    fn discussion() -> (DominoServer, Arc<Database>) {
        let db = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Discussion", ReplicaId(1), ReplicaId(9)),
                LogicalClock::new(),
            )
            .unwrap(),
        );
        let mut acl = Acl::new(AccessLevel::Reader); // Anonymous may read
        acl.set(
            "alice",
            AclEntry::new(AccessLevel::Editor).with_role("Admin"),
        );
        acl.set("bob", AclEntry::new(AccessLevel::Author));
        acl.set("rita", AclEntry::new(AccessLevel::Reader));
        db.set_acl(&acl).unwrap();
        for i in 0..8 {
            let mut n = Note::document("Topic");
            n.set("Subject", Value::text(format!("topic {i:02}")));
            n.set("Body", Value::text(format!("body text number {i}")));
            db.save(&mut n).unwrap();
        }
        let server = DominoServer::new(ServerConfig {
            workers: 2,
            queue_bound: 16,
            cache_capacity: 32,
        });
        server.register_database("disc", &db).unwrap();
        let mut design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#).unwrap();
        design.columns = vec![
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(domino_views::SortDir::Ascending),
            ColumnSpec::new("From", "From").unwrap(),
        ];
        server.add_view("disc", design).unwrap();
        server.register_user("alice", "pw-a");
        server.register_user("bob", "pw-b");
        server.register_user("rita", "pw-r");
        (server, db)
    }

    #[test]
    fn open_view_renders_then_caches_then_invalidates() {
        let (server, db) = discussion();
        let req = Request::get("/disc.nsf/topics?OpenView&Count=5").as_user("alice", "pw-a");
        let first = server.handle(&req);
        assert_eq!(first.status, Status::Ok);
        assert!(!first.from_cache);
        assert!(first.body.contains("topic 00"));
        let second = server.handle(&req);
        assert!(second.from_cache);
        assert_eq!(second.body, first.body);
        // A write expires every cached page of the database.
        let mut n = Note::document("Topic");
        n.set("Subject", Value::text("topic 99"));
        db.save(&mut n).unwrap();
        let third = server.handle(&req);
        assert!(!third.from_cache);
    }

    /// An index attached later under the same name takes as many steps
    /// as its predecessor took before it was cached; were versions
    /// counted per index, it would reach the same numbers. Its pages must
    /// be its own.
    #[test]
    fn a_replaced_view_or_database_never_hits_its_predecessors_pages() {
        let (server, db) = discussion();
        let req = Request::get("/disc.nsf/topics?OpenView&Count=5").as_user("alice", "pw-a");
        let commit = |db: &Database, i: usize| {
            let mut n = Note::document("Topic");
            n.set("Subject", Value::text(format!("later {i}")));
            n.set("Other", Value::text(format!("other {i}")));
            db.save(&mut n).unwrap();
        };
        // Same view name, another design, the same number of commits
        // after attach: the version the old pages were cached at.
        (0..3).for_each(|i| commit(&db, i));
        assert!(server.handle(&req).body.contains("topic 00"));
        assert!(server.handle(&req).from_cache);
        let mut design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#).unwrap();
        design.columns = vec![ColumnSpec::new("Other", "Other")
            .unwrap()
            .sorted(domino_views::SortDir::Descending)];
        server.add_view("disc", design).unwrap();
        (3..6).for_each(|i| commit(&db, i));
        let replaced = server.handle(&req);
        assert!(!replaced.from_cache);
        assert!(replaced.body.contains("other 5") && !replaced.body.contains("topic 00"));

        // Same path, another database.
        let other = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Elsewhere", ReplicaId(2), ReplicaId(9)),
                LogicalClock::new(),
            )
            .unwrap(),
        );
        other.set_acl(&db.snapshot().acl().unwrap()).unwrap();
        server.register_database("disc", &other).unwrap();
        let mut design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#).unwrap();
        design.columns = vec![ColumnSpec::new("Other", "Other")
            .unwrap()
            .sorted(domino_views::SortDir::Descending)];
        server.add_view("disc", design).unwrap();
        (6..9).for_each(|i| commit(&other, i));
        let elsewhere = server.handle(&req);
        assert!(!elsewhere.from_cache);
        assert!(elsewhere.body.contains("other 8") && !elsewhere.body.contains("other 5"));
        assert!(server.handle(&req).from_cache);
    }

    #[test]
    fn read_view_entries_is_json_and_paged() {
        let (server, _db) = discussion();
        let req = Request::get("/disc.nsf/topics?ReadViewEntries&Start=3&Count=2")
            .as_user("alice", "pw-a");
        let resp = server.handle(&req);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content_type, "application/json");
        assert!(resp.body.contains("\"@toplevelentries\":8"));
        assert!(resp.body.contains("topic 02"));
        assert!(resp.body.contains("topic 03"));
        assert!(!resp.body.contains("topic 04"));
    }

    #[test]
    fn document_lifecycle_over_urls() {
        let (server, _db) = discussion();
        // Create...
        let create = Request::post("/disc.nsf/Topic?CreateDocument", "Subject=fresh+topic")
            .as_user("bob", "pw-b");
        let resp = server.handle(&create);
        assert_eq!(resp.status, Status::Ok);
        // ...find it via the view...
        let page = server
            .handle(&Request::get("/disc.nsf/topics?OpenView&Count=30").as_user("alice", "pw-a"));
        assert!(page.body.contains("fresh topic"));
        let unid = page
            .body
            .split("/disc.nsf/topics/")
            .nth(1)
            .and_then(|s| s.split('?').next())
            .unwrap()
            .to_string();
        // ...open, edit, save...
        let open =
            server.handle(&Request::get(&format!("/disc.nsf/{unid}?OpenDocument")).anonymous());
        assert_eq!(open.status, Status::Ok);
        let save = Request::post(
            &format!("/disc.nsf/{unid}?SaveDocument"),
            "Subject=renamed+topic",
        )
        .as_user("alice", "pw-a");
        assert_eq!(server.handle(&save).status, Status::Ok);
        let reopened =
            server.handle(&Request::get(&format!("/disc.nsf/{unid}?OpenDocument")).anonymous());
        assert!(reopened.body.contains("renamed topic"));
        // ...and delete.
        let del = server.handle(
            &Request::get(&format!("/disc.nsf/{unid}?DeleteDocument")).as_user("alice", "pw-a"),
        );
        assert_eq!(del.status, Status::Ok);
        let gone =
            server.handle(&Request::get(&format!("/disc.nsf/{unid}?OpenDocument")).anonymous());
        assert_eq!(gone.status, Status::NotFound);
    }

    #[test]
    fn status_mapping_unknowns_and_auth() {
        let (server, _db) = discussion();
        // Unknown database / view / document.
        assert_eq!(
            server.handle(&Request::get("/other.nsf/v?OpenView")).status,
            Status::NotFound
        );
        assert_eq!(
            server
                .handle(&Request::get("/disc.nsf/nosuch?OpenView"))
                .status,
            Status::NotFound
        );
        // Malformed command.
        assert_eq!(
            server
                .handle(&Request::get("/disc.nsf/topics?Florp"))
                .status,
            Status::BadRequest
        );
        // Wrong password is 401 even before touching the database.
        assert_eq!(
            server
                .handle(&Request::get("/disc.nsf/topics?OpenView").as_user("alice", "wrong"))
                .status,
            Status::Unauthorized
        );
        // Anonymous writes are 401 (please log in), named reader writes 403.
        let anon_create = Request::post("/disc.nsf/Topic?CreateDocument", "Subject=x");
        assert_eq!(server.handle(&anon_create).status, Status::Unauthorized);
        let rita_create =
            Request::post("/disc.nsf/Topic?CreateDocument", "Subject=x").as_user("rita", "pw-r");
        assert_eq!(server.handle(&rita_create).status, Status::Forbidden);
    }

    #[test]
    fn search_view_scopes_and_scores() {
        let (server, db) = discussion();
        let mut memo = Note::document("Memo"); // not in the topics view
        memo.set("Subject", Value::text("body text number 3"));
        db.save(&mut memo).unwrap();
        let resp = server.handle(
            &Request::get("/disc.nsf/topics?SearchView&Query=%22body+text+number+3%22")
                .as_user("alice", "pw-a"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("topic 03"));
        assert!(!resp.body.contains(&memo.unid().to_string()));
    }

    #[test]
    fn amgr_runs_on_update_agents_after_requests_write() {
        let (server, db) = discussion();
        domino_core::save_agent(
            &db,
            &AgentDesign::new(
                "stamp",
                r#"SELECT Form = "Topic" & !@IsAvailable(Stamped); FIELD Stamped := "yes""#,
            )
            .unwrap()
            .on_update(),
        )
        .unwrap();
        // Re-register so the scheduler baseline predates our write.
        server.register_database("disc", &db).unwrap();
        let create = Request::post("/disc.nsf/Topic?CreateDocument", "Subject=agent+bait")
            .as_user("alice", "pw-a");
        assert_eq!(server.handle(&create).status, Status::Ok);
        let reports = server.amgr_tick().unwrap();
        let (_, tick) = reports.iter().find(|(n, _)| n == "disc").unwrap();
        assert_eq!(tick.runs.len(), 1);
        assert!(tick.runs[0].1.modified >= 1);
        // Quiescent now.
        let again = server.amgr_tick().unwrap();
        assert!(!again.iter().any(|(_, t)| t.fired()));
    }

    /// One request executes and one waits; the next is refused at once,
    /// and the refusal is counted and logged like any other request.
    #[test]
    fn a_full_gate_sheds_at_once_and_logs_the_refusal() {
        use std::sync::mpsc;

        let (_, db) = discussion();
        let tiny = DominoServer::new(ServerConfig {
            workers: 1,
            queue_bound: 1,
            cache_capacity: 0,
        });
        tiny.register_database("disc", &db).unwrap();
        tiny.add_view(
            "disc",
            ViewDesign::new("topics", r#"SELECT Form = "Topic""#).unwrap(),
        )
        .unwrap();
        tiny.register_user("alice", "pw-a");
        tiny.register_user("rita", "pw-r");
        // Park the save of "parked" inside its commit's delivery, and so
        // inside `handle`, until released.
        let (entered_tx, entered) = mpsc::channel();
        let (release, held) = mpsc::channel::<()>();
        let hook = std::sync::Mutex::new((entered_tx, held));
        let _feed = db.subscribe(move |events: &[domino_core::ChangeEvent]| {
            let parked = events.iter().any(|e| {
                matches!(e, domino_core::ChangeEvent::Saved { new, .. }
                    if new.get_text("Subject").as_deref() == Some("parked"))
            });
            if parked {
                let hook = hook.lock().unwrap();
                hook.0.send(()).unwrap();
                hook.1.recv().unwrap();
            }
        });
        let running = {
            let tiny = tiny.clone();
            std::thread::spawn(move || {
                tiny.serve(
                    Request::post("/disc.nsf/Topic?CreateDocument", "Subject=parked")
                        .as_user("alice", "pw-a"),
                )
            })
        };
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
        let waiting = {
            let tiny = tiny.clone();
            std::thread::spawn(move || tiny.serve(Request::get("/disc.nsf/topics?OpenView")))
        };
        while tiny.queue_depth() != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }

        obs::drain(usize::MAX);
        let before = obs::snapshot();
        let refused = tiny.serve(Request::get("/disc.nsf/topics?OpenView").as_user("rita", "pw-r"));
        assert_eq!(refused.status, Status::Unavailable);
        let after = obs::snapshot().diff(&before);
        assert_eq!(after.counter("Http.Worker.Shed"), 1);
        let logged: Vec<obs::Event> = obs::drain(usize::MAX)
            .into_iter()
            .filter(|e| {
                e.code == "Http.Request" && e.field("status").and_then(|v| v.as_u64()) == Some(503)
            })
            .collect();
        assert_eq!(logged.len(), 1, "one Http.Request event per refusal");
        assert_eq!(
            logged[0].field("user").map(|v| v.to_text()).as_deref(),
            Some("rita")
        );

        let waits = obs::snapshot().histogram("Http.Worker.Wait.Micros").count;
        release.send(()).unwrap();
        assert_eq!(running.join().unwrap().status, Status::Ok);
        assert_eq!(waiting.join().unwrap().status, Status::Ok);
        tiny.drain();
        assert_eq!(tiny.queue_depth(), 0);
        assert_eq!(
            obs::snapshot().histogram("Http.Worker.Wait.Micros").count,
            waits + 1,
            "only the caller that waited records a wait"
        );
    }
}
