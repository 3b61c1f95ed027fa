//! `log.nsf`: the server logs itself.
//!
//! Domino's log *is a Notes database* — the logger task files console
//! output, per-request domlog records, and statistic snapshots as
//! documents in `log.nsf`, where they are read through the same views,
//! ACL, and replication machinery as any application data. This module
//! reproduces that loop: a [`ServerLog`] owns a real
//! [`Database`] titled `log`, and each
//! [`drain`](ServerLog::drain) empties the process-wide event bus
//! ([`domino_obs::drain`]) into Form-typed documents:
//!
//! | Form          | Source events                                  |
//! |---------------|------------------------------------------------|
//! | `HttpRequest` | `Http.Request` (method/command/status/duration/user — domlog.nsf) |
//! | `Replication` | every [`EventKind::Replica`](domino_obs::EventKind::Replica) event |
//! | `Probe`       | `Ddm.Probe*` verdicts from the [`ProbeEngine`] |
//! | `Statistics`  | periodic registry snapshot deltas              |
//! | `Event`       | everything else                                |
//!
//! Built-in views (`events`, `byseverity`, `requests`, `replication`,
//! `statistics`, `probes`) are saved as design notes, so registering the
//! database with a [`DominoServer`](crate::DominoServer) makes the log
//! browsable over HTTP — subject to its ACL, which defaults to
//! NoAccess (grant admins explicitly with [`ServerLog::grant`]).
//!
//! Two rules keep the loop sound:
//!
//! * **No recursion.** All log writes happen under [`domino_obs::suppress`],
//!   so anything the write path itself emits is counted in
//!   `Obs.Event.Suppressed` and discarded instead of being filed again
//!   (the server must not log its logging, or one event becomes an
//!   avalanche). Pinned by a test that emits from inside a change
//!   observer on `log.nsf`.
//! * **Bounded size.** When the document count passes
//!   [`LoggerConfig::max_documents`], the oldest documents (by file
//!   order) are deleted down to [`LoggerConfig::rotate_to`] and the
//!   deletion stubs purged — the same machinery application databases
//!   use, because the log is one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use domino_core::{Database, DbConfig, Note};
use domino_obs as obs;
use domino_security::{AccessLevel, Acl, AclEntry};
use domino_types::{Clock, LogicalClock, NoteId, ReplicaId, Result, Value};
use domino_views::{ColumnSpec, SortDir, ViewDesign};
use parking_lot::Mutex;

use crate::ddm::ProbeEngine;

/// Tuning for the logger task.
#[derive(Debug, Clone)]
pub struct LoggerConfig {
    /// Document-count ceiling; crossing it triggers rotation.
    pub max_documents: usize,
    /// Rotation deletes oldest documents down to this count.
    pub rotate_to: usize,
    /// File a `Statistics` snapshot document every this many drains
    /// (0 = never).
    pub stats_every: u64,
    /// Run the probe engine every this many drains (0 = never).
    pub probe_every: u64,
    /// In-memory tail of recent events kept for `show events`.
    pub tail: usize,
    /// Purge interval (ticks) for the log database's deletion stubs —
    /// short, because nobody replicates deletions out of a log.
    pub purge_ticks: u64,
}

impl Default for LoggerConfig {
    fn default() -> LoggerConfig {
        LoggerConfig {
            max_documents: 5000,
            rotate_to: 3750,
            stats_every: 10,
            probe_every: 1,
            tail: 256,
            purge_ticks: 16,
        }
    }
}

/// What one [`ServerLog::drain`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Events taken off the bus.
    pub drained: usize,
    /// Documents written to `log.nsf` (events + any statistics doc).
    pub written: usize,
    /// Emits attempted *by the write path itself* and discarded by the
    /// re-entrancy guard (must stay 0 unless something on the write path
    /// has grown an emit — the pinned recursion test forces it nonzero).
    pub suppressed: u64,
    /// Documents deleted by rotation this drain.
    pub rotated: usize,
}

/// Registry handles for the logger's own health (it reports like any
/// other task — but through metrics, never through events it would then
/// have to file about itself).
struct Metrics {
    drains: &'static obs::Counter,
    filed: &'static obs::Counter,
    rotations: &'static obs::Counter,
    deleted: &'static obs::Counter,
    write_errors: &'static obs::Counter,
    backlog: &'static obs::Gauge,
}

fn m() -> &'static Metrics {
    static M: std::sync::OnceLock<Metrics> = std::sync::OnceLock::new();
    M.get_or_init(|| Metrics {
        drains: obs::counter("Logger.Drains"),
        filed: obs::counter("Logger.Documents.Filed"),
        rotations: obs::counter("Logger.Rotations"),
        deleted: obs::counter("Logger.Documents.Deleted"),
        write_errors: obs::counter("Logger.Write.Errors"),
        backlog: obs::gauge("Logger.Backlog"),
    })
}

/// The logger task: a `log.nsf` database plus the machinery that fills
/// it from the event bus. Cheap to share (`Arc`); the background thread
/// holds only a weak reference.
pub struct ServerLog {
    db: Arc<Database>,
    cfg: LoggerConfig,
    log_seq: AtomicU64,
    drains: AtomicU64,
    recursion: AtomicU64,
    tail: Mutex<VecDeque<obs::Event>>,
    last_stats: Mutex<obs::Snapshot>,
    probes: Mutex<Option<ProbeEngine>>,
}

impl ServerLog {
    /// Open a fresh `log.nsf` with default tuning and the stock DDM
    /// probe rules.
    pub fn open() -> Result<Arc<ServerLog>> {
        ServerLog::with_config(LoggerConfig::default())
    }

    /// Open with explicit tuning.
    pub fn with_config(cfg: LoggerConfig) -> Result<Arc<ServerLog>> {
        let db = Arc::new(Database::open_in_memory(
            DbConfig::new("log", ReplicaId(0x0C10), ReplicaId(0x0C11))
                .with_purge_interval(cfg.purge_ticks),
            LogicalClock::new(),
        )?);
        // The log is born locked: nobody reads it over HTTP until an
        // admin is granted in. (The logger itself writes through the raw
        // Database handle — ACLs bind sessions, not the server's pen.)
        db.set_acl(&Acl::new(AccessLevel::NoAccess))?;
        for design in builtin_views()? {
            let mut note = design.to_note();
            db.save(&mut note)?;
        }
        let log = ServerLog {
            db,
            cfg,
            log_seq: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            recursion: AtomicU64::new(0),
            tail: Mutex::new(VecDeque::new()),
            last_stats: Mutex::new(obs::snapshot()),
            probes: Mutex::new(Some(ProbeEngine::with_default_rules())),
        };
        Ok(Arc::new(log))
    }

    /// The underlying database — register it with a
    /// [`DominoServer`](crate::DominoServer) as `log` to serve it at
    /// `/log.nsf/...`.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Grant `user` access to read (or manage) the log over HTTP.
    pub fn grant(&self, user: &str, level: AccessLevel) -> Result<()> {
        let mut acl = self.db.acl()?;
        acl.set(user, AclEntry::new(level));
        self.db.set_acl(&acl)
    }

    /// Replace the probe rule set (`None` disables probing).
    pub fn set_probes(&self, engine: Option<ProbeEngine>) {
        *self.probes.lock() = engine;
    }

    /// Total events the write path itself tried to emit (and the guard
    /// discarded) across all drains. Zero unless the pinned recursion
    /// test — or a bug — put an emit on the write path.
    pub fn recursion_events(&self) -> u64 {
        self.recursion.load(Ordering::Relaxed)
    }

    /// Empty the event bus into `log.nsf`: run due probes, file every
    /// pending event as a document, file a periodic statistics snapshot,
    /// and rotate if the log has outgrown its ceiling.
    pub fn drain(&self) -> DrainReport {
        let drains = self.drains.fetch_add(1, Ordering::Relaxed) + 1;
        m().drains.inc();
        // Probes run *before* the suppression guard goes up: their
        // verdict events must reach the bus to be filed in this drain.
        if self.cfg.probe_every > 0 && drains.is_multiple_of(self.cfg.probe_every) {
            if let Some(engine) = self.probes.lock().as_mut() {
                engine.tick();
            }
        }
        let events = obs::drain(usize::MAX);
        m().backlog.set(obs::pending() as i64);
        let mut report = DrainReport {
            drained: events.len(),
            ..DrainReport::default()
        };
        let suppressed_before = obs::counter("Obs.Event.Suppressed").get();
        {
            // Re-entrancy guard: anything the writes below emit is
            // counted and discarded, never filed. All writes happen on
            // this thread, so the thread-local guard covers them all.
            let _guard = obs::suppress();
            {
                let _batch = self.db.begin_batch();
                for event in &events {
                    match self.file(event) {
                        Ok(()) => report.written += 1,
                        Err(_) => m().write_errors.inc(),
                    }
                }
            }
            if self.cfg.stats_every > 0 && drains.is_multiple_of(self.cfg.stats_every) {
                match self.file_statistics() {
                    Ok(()) => report.written += 1,
                    Err(_) => m().write_errors.inc(),
                }
            }
            report.rotated = self.rotate_if_over(self.cfg.max_documents);
        }
        let suppressed = obs::counter("Obs.Event.Suppressed").get() - suppressed_before;
        report.suppressed = suppressed;
        self.recursion.fetch_add(suppressed, Ordering::Relaxed);
        m().filed.add(report.written as u64);
        let mut tail = self.tail.lock();
        for event in events {
            if tail.len() >= self.cfg.tail {
                tail.pop_front();
            }
            tail.push_back(event);
        }
        report
    }

    /// File one event as a Form-typed document.
    fn file(&self, event: &obs::Event) -> Result<()> {
        let mut doc = Note::document(form_of(event));
        doc.set("Kind", Value::text(event.kind.as_str()));
        doc.set("Severity", Value::text(event.severity.as_str()));
        doc.set("SevRank", Value::Number(event.severity as u64 as f64));
        doc.set("Code", Value::text(event.code));
        doc.set("Time", Value::Number(event.stamp as f64));
        doc.set("Seq", Value::Number(event.seq as f64));
        doc.set(
            "LogSeq",
            Value::Number(self.log_seq.fetch_add(1, Ordering::Relaxed) as f64),
        );
        doc.set("Subject", Value::text(event.to_string()));
        for (key, value) in &event.fields {
            doc.set(&item_name(event, key), field_to_value(value));
        }
        self.db.save(&mut doc)?;
        Ok(())
    }

    /// File a `Statistics` document: the registry delta since the last
    /// snapshot (so each document reads as "what happened this window",
    /// the way Domino's statistic reports do).
    fn file_statistics(&self) -> Result<()> {
        let now = obs::snapshot();
        let delta = {
            let mut last = self.last_stats.lock();
            let d = now.diff(&last);
            *last = now;
            d
        };
        let mut doc = Note::document("Statistics");
        doc.set("Kind", Value::text(obs::EventKind::Server.as_str()));
        doc.set("Severity", Value::text(obs::Severity::Info.as_str()));
        doc.set("SevRank", Value::Number(obs::Severity::Info as u64 as f64));
        doc.set("Code", Value::text("Statistics.Snapshot"));
        doc.set("Time", Value::Number(self.db.clock().peek().0 as f64));
        doc.set(
            "LogSeq",
            Value::Number(self.log_seq.fetch_add(1, Ordering::Relaxed) as f64),
        );
        doc.set(
            "Subject",
            Value::text(format!("statistics snapshot ({} metrics)", delta.len())),
        );
        doc.set("Json", Value::text(delta.to_json()));
        self.db.save(&mut doc)?;
        Ok(())
    }

    /// Delete oldest documents (by `LogSeq`) until at most `ceiling`
    /// remain... if we are over it at all. Returns how many went.
    fn rotate_if_over(&self, ceiling: usize) -> usize {
        let docs = self.db.snapshot().document_summaries();
        if docs.len() <= ceiling {
            return 0;
        }
        let mut entries: Vec<(u64, NoteId)> = docs
            .iter()
            .map(|doc| {
                let seq = doc
                    .get("LogSeq")
                    .and_then(|v| v.as_number().ok())
                    .unwrap_or(0.0) as u64;
                (seq, doc.id)
            })
            .collect();
        entries.sort_unstable();
        let excess = entries
            .len()
            .saturating_sub(self.cfg.rotate_to.min(ceiling));
        let mut deleted = 0;
        for (_, id) in entries.into_iter().take(excess) {
            if self.db.delete(id).is_ok() {
                deleted += 1;
            }
        }
        if deleted > 0 {
            m().rotations.inc();
            m().deleted.add(deleted as u64);
            // The stubs would otherwise linger for the purge interval;
            // the log recycles them immediately (nothing replicates a
            // log's deletions).
            self.db.clock().advance(self.cfg.purge_ticks + 1);
            let _ = self.db.purge_stubs();
        }
        deleted
    }

    /// Force a rotation down to [`LoggerConfig::rotate_to`] regardless
    /// of the ceiling (the `tell logger rotate` console command).
    pub fn rotate(&self) -> usize {
        let _guard = obs::suppress();
        self.rotate_if_over(self.cfg.rotate_to)
    }

    /// Live documents currently in `log.nsf`.
    pub fn document_count(&self) -> usize {
        self.db.document_count().unwrap_or(0)
    }

    /// Render the in-memory tail of recent events at or above `floor`
    /// (newest last), console style.
    pub fn show_events(&self, floor: Option<obs::Severity>) -> String {
        let floor = floor.unwrap_or(obs::Severity::Info);
        let mut out = format!("> show events {}\n", floor.as_str().to_lowercase());
        let tail = self.tail.lock();
        let mut shown = 0;
        for event in tail.iter() {
            if event.severity.at_least(floor) {
                out.push_str(&format!("  {event}\n"));
                shown += 1;
            }
        }
        if shown == 0 {
            out.push_str("  (no matching events in the tail)\n");
        }
        out
    }

    /// Drive [`drain`](ServerLog::drain) from a background thread every
    /// `every` (the logger task proper). The thread registers on the
    /// task roster (`show tasks`) and holds only a weak reference: drop
    /// the last [`ServerLog`] and it exits on its own. Stopping the
    /// handle performs a final drain so shutdown never strands events.
    pub fn start(self: &Arc<ServerLog>, every: Duration) -> LoggerHandle {
        let weak = Arc::downgrade(self);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let join = std::thread::Builder::new()
            .name("logger".into())
            .spawn(move || {
                let task = obs::register_task("logger", "Event log writer");
                let slice = Duration::from_millis(5)
                    .min(every)
                    .max(Duration::from_millis(1));
                let mut elapsed = Duration::ZERO;
                let mut filed: u64 = 0;
                loop {
                    if flag.load(Ordering::Relaxed) {
                        // Final drain: whatever is on the bus gets filed
                        // before the task exits.
                        if let Some(log) = weak.upgrade() {
                            log.drain();
                        }
                        return;
                    }
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed < every {
                        continue;
                    }
                    elapsed = Duration::ZERO;
                    let Some(log) = weak.upgrade() else { return };
                    let report = log.drain();
                    filed += report.written as u64;
                    task.beat();
                    task.set_status(&format!(
                        "{} docs filed, {} in log",
                        filed,
                        log.document_count()
                    ));
                }
            })
            .expect("spawn logger");
        LoggerHandle {
            stop,
            join: Some(join),
        }
    }
}

/// Handle on the background logger thread; stops (with a final drain)
/// when dropped.
pub struct LoggerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl LoggerHandle {
    /// Stop the logger thread, flush the bus one last time, and wait.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for LoggerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Which form files this event.
fn form_of(event: &obs::Event) -> &'static str {
    if event.code == "Http.Request" {
        "HttpRequest"
    } else if event.code.starts_with("Ddm.Probe") {
        "Probe"
    } else if event.kind == obs::EventKind::Replica {
        "Replication"
    } else {
        "Event"
    }
}

/// Item name for an event field. `HttpRequest` documents use the classic
/// domlog.nsf item names; everything else capitalizes the field key.
fn item_name(event: &obs::Event, key: &str) -> String {
    if form_of(event) == "HttpRequest" {
        match key {
            "method" => return "Method".to_string(),
            "command" => return "Command".to_string(),
            "status" => return "Status".to_string(),
            "micros" => return "DurationMicros".to_string(),
            "user" => return "User".to_string(),
            _ => {}
        }
    }
    let mut chars = key.chars();
    match chars.next() {
        Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    }
}

fn field_to_value(value: &obs::FieldValue) -> Value {
    match value {
        obs::FieldValue::U64(v) => Value::Number(*v as f64),
        obs::FieldValue::I64(v) => Value::Number(*v as f64),
        obs::FieldValue::F64(v) => Value::Number(*v),
        obs::FieldValue::Str(s) => Value::text(*s),
        obs::FieldValue::Text(s) => Value::text(s.clone()),
    }
}

/// The stock view designs saved into every fresh `log.nsf`.
fn builtin_views() -> Result<Vec<ViewDesign>> {
    Ok(vec![
        ViewDesign::new("events", "SELECT @All")?
            .column(ColumnSpec::new("Time", "Time")?.sorted(SortDir::Ascending))
            .column(ColumnSpec::new("Severity", "Severity")?)
            .column(ColumnSpec::new("Code", "Code")?)
            .column(ColumnSpec::new("Subject", "Subject")?),
        ViewDesign::new("byseverity", "SELECT @All")?
            .column(ColumnSpec::new("SevRank", "SevRank")?.sorted(SortDir::Ascending))
            .column(ColumnSpec::new("Severity", "Severity")?)
            .column(ColumnSpec::new("Code", "Code")?)
            .column(ColumnSpec::new("Subject", "Subject")?),
        ViewDesign::new("requests", r#"SELECT Form = "HttpRequest""#)?
            .column(ColumnSpec::new("Time", "Time")?.sorted(SortDir::Ascending))
            .column(ColumnSpec::new("Method", "Method")?)
            .column(ColumnSpec::new("Command", "Command")?)
            .column(ColumnSpec::new("Status", "Status")?)
            .column(ColumnSpec::new("DurationMicros", "DurationMicros")?)
            .column(ColumnSpec::new("User", "User")?),
        ViewDesign::new("replication", r#"SELECT Form = "Replication""#)?
            .column(ColumnSpec::new("Time", "Time")?.sorted(SortDir::Ascending))
            .column(ColumnSpec::new("Code", "Code")?)
            .column(ColumnSpec::new("Subject", "Subject")?),
        ViewDesign::new("statistics", r#"SELECT Form = "Statistics""#)?
            .column(ColumnSpec::new("Time", "Time")?.sorted(SortDir::Ascending))
            .column(ColumnSpec::new("Subject", "Subject")?),
        ViewDesign::new("probes", r#"SELECT Form = "Probe""#)?
            .column(ColumnSpec::new("Time", "Time")?.sorted(SortDir::Ascending))
            .column(ColumnSpec::new("Severity", "Severity")?)
            .column(ColumnSpec::new("Probe", "Probe")?)
            .column(ColumnSpec::new("Measured", "Measured")?)
            .column(ColumnSpec::new("Subject", "Subject")?),
    ])
}
