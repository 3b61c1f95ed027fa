//! Agents: stored formula programs run over the database.
//!
//! Notes agents automate workflow: a selection formula picks documents and
//! `FIELD` assignments mutate them (the tutorial's "workflow on top of the
//! document store" story). Agents are design notes, so they replicate with
//! the database and run wherever the documents are.

use domino_formula::{EvalEnv, Formula};
use domino_types::{Clock, DominoError, NoteClass, Result, Value};

use crate::db::Database;
use crate::note::Note;

/// When an agent is meant to run (informational for schedulers; `run`
/// executes regardless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentTrigger {
    Manual,
    /// Run on a schedule (every `ticks`).
    Scheduled(u64),
    /// Run after new/updated documents arrive (e.g. post-replication).
    OnUpdate,
}

/// A stored agent.
#[derive(Debug, Clone)]
pub struct AgentDesign {
    pub name: String,
    /// The program: `SELECT` chooses documents; `FIELD` writes modify them.
    pub formula: Formula,
    pub trigger: AgentTrigger,
}

/// What one agent run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentRunReport {
    pub examined: usize,
    pub selected: usize,
    pub modified: usize,
}

impl AgentDesign {
    pub fn new(name: &str, formula_src: &str) -> Result<AgentDesign> {
        Ok(AgentDesign {
            name: name.to_string(),
            formula: Formula::compile(formula_src)?,
            trigger: AgentTrigger::Manual,
        })
    }

    pub fn scheduled(mut self, every_ticks: u64) -> AgentDesign {
        self.trigger = AgentTrigger::Scheduled(every_ticks);
        self
    }

    pub fn on_update(mut self) -> AgentDesign {
        self.trigger = AgentTrigger::OnUpdate;
        self
    }

    /// Run over every document: selected documents receive the formula's
    /// `FIELD` writes and are saved (skipping documents the writes leave
    /// unchanged, so runs are idempotent).
    ///
    /// The sweep iterates a pinned snapshot, so it sees one consistent
    /// state and never blocks concurrent writers. A document updated
    /// mid-run surfaces as an optimistic-concurrency conflict on save;
    /// the agent then re-evaluates the *current* copy once, which is the
    /// right answer under both outcomes (still selected → apply there;
    /// no longer selected → skip).
    pub fn run(&self, db: &Database, user: &str) -> Result<AgentRunReport> {
        let env = EvalEnv {
            username: user.to_string(),
            now: db.clock().peek(),
            db_title: db.title(),
            ..EvalEnv::default()
        };
        let mut report = AgentRunReport::default();
        let snap = db.snapshot();
        for note in snap.documents() {
            report.examined += 1;
            let out = self.formula.eval_full(note.as_ref(), &env)?;
            if !out.selected {
                continue;
            }
            report.selected += 1;
            if out.field_writes.is_empty() {
                continue;
            }
            let mut doc = (*note).clone();
            let mut changed = false;
            for (field, value) in out.field_writes {
                if doc.get(&field) != Some(&value) {
                    doc.set(&field, value);
                    changed = true;
                }
            }
            if !changed {
                continue;
            }
            match db.save(&mut doc) {
                Ok(()) => report.modified += 1,
                Err(e) if e.kind() == "update_conflict" => {
                    let Ok(current) = db.open_by_unid(note.unid()) else {
                        continue; // deleted mid-run
                    };
                    let out = self.formula.eval_full(&current, &env)?;
                    if !out.selected {
                        continue;
                    }
                    let mut doc = current;
                    let mut changed = false;
                    for (field, value) in out.field_writes {
                        if doc.get(&field) != Some(&value) {
                            doc.set(&field, value);
                            changed = true;
                        }
                    }
                    if changed {
                        db.save(&mut doc)?;
                        report.modified += 1;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    // ------------------------------------------------------------------
    // persistence as an Agent design note
    // ------------------------------------------------------------------

    pub fn to_note(&self) -> Note {
        let mut n = Note::new(NoteClass::Agent);
        n.set("$TITLE", Value::text(self.name.clone()));
        n.set("Formula", Value::text(self.formula.source()));
        let (kind, arg) = match self.trigger {
            AgentTrigger::Manual => ("manual", 0),
            AgentTrigger::Scheduled(t) => ("scheduled", t),
            AgentTrigger::OnUpdate => ("onupdate", 0),
        };
        n.set("Trigger", Value::text(kind));
        n.set("TriggerArg", Value::Number(arg as f64));
        n
    }

    pub fn from_note(note: &Note) -> Result<AgentDesign> {
        if note.class != NoteClass::Agent {
            return Err(DominoError::InvalidArgument(format!(
                "{:?} note is not an agent design",
                note.class
            )));
        }
        let name = note
            .get_text("$TITLE")
            .ok_or_else(|| DominoError::Corrupt("agent design missing $TITLE".into()))?;
        let src = note
            .get_text("Formula")
            .ok_or_else(|| DominoError::Corrupt("agent design missing Formula".into()))?;
        let arg = note
            .get("TriggerArg")
            .and_then(|v| v.as_number().ok())
            .unwrap_or(0.0) as u64;
        let trigger = match note.get_text("Trigger").as_deref() {
            Some("scheduled") => AgentTrigger::Scheduled(arg),
            Some("onupdate") => AgentTrigger::OnUpdate,
            _ => AgentTrigger::Manual,
        };
        Ok(AgentDesign {
            name,
            formula: Formula::compile(&src)?,
            trigger,
        })
    }
}

/// What one [`AgentScheduler::tick`] did: every agent that fired, with its
/// run report, in design-collection (ascending UNID) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentTickReport {
    /// `(agent name, what the run did)` for each agent that ran this tick.
    pub runs: Vec<(String, AgentRunReport)>,
}

impl AgentTickReport {
    /// Whether any agent fired.
    pub fn fired(&self) -> bool {
        !self.runs.is_empty()
    }
}

/// The agent manager ("amgr" in Domino): decides *when* stored agents run.
///
/// [`AgentTrigger::Scheduled`] agents fire when their tick interval has
/// elapsed since their last run; [`AgentTrigger::OnUpdate`] agents fire
/// when the [database change sequence](Database::change_seq) has advanced
/// since the previous tick — i.e. after new or updated documents arrived
/// (saves, replication). `Manual` agents never fire from the scheduler.
///
/// The scheduler reloads [`stored_agents`] on every tick (from the design
/// collection of a snapshot: a handful of chains, no engine read), so
/// agents saved (or replicated in) after construction are picked up. The
/// change sequence is re-sampled *after* the tick's runs complete, so an
/// agent's own `FIELD` writes do not re-trigger `OnUpdate` agents on the
/// next tick (agent runs are idempotent, so even a pathological re-trigger
/// converges — it just wastes a pass).
pub struct AgentScheduler {
    db: std::sync::Arc<Database>,
    /// Identity agent formulas evaluate under (`@UserName`).
    runner: String,
    /// Tick at which each scheduled agent last ran, by name.
    last_run: std::collections::HashMap<String, u64>,
    /// Change sequence as of the end of the previous tick.
    seen_seq: u64,
}

impl AgentScheduler {
    /// A scheduler for `db`, running agents as `runner`. The current
    /// change sequence is captured now: pre-existing documents do not
    /// count as an "update" for `OnUpdate` agents.
    pub fn new(db: std::sync::Arc<Database>, runner: &str) -> AgentScheduler {
        let seen_seq = db.change_seq();
        AgentScheduler {
            db,
            runner: runner.to_string(),
            last_run: std::collections::HashMap::new(),
            seen_seq,
        }
    }

    /// Run every agent that is due at tick `now` and report what fired.
    ///
    /// A `Scheduled(every)` agent is due when `now` is at least `every`
    /// ticks past its last run (a never-run agent is due immediately —
    /// the catch-up semantics an operator expects after a restart).
    pub fn tick(&mut self, now: u64) -> Result<AgentTickReport> {
        let updated = self.db.change_seq() != self.seen_seq;
        let mut report = AgentTickReport::default();
        for agent in stored_agents(&self.db)? {
            let due = match agent.trigger {
                AgentTrigger::Manual => false,
                AgentTrigger::Scheduled(every) => {
                    if every == 0 {
                        false
                    } else {
                        match self.last_run.get(&agent.name) {
                            Some(&last) => now.saturating_sub(last) >= every,
                            None => true,
                        }
                    }
                }
                AgentTrigger::OnUpdate => updated,
            };
            if !due {
                continue;
            }
            let run = agent.run(&self.db, &self.runner)?;
            if let AgentTrigger::Scheduled(_) = agent.trigger {
                self.last_run.insert(agent.name.clone(), now);
            }
            domino_obs::emit(
                domino_obs::Event::new(
                    domino_obs::EventKind::Agent,
                    domino_obs::Severity::Info,
                    "Agent.Run",
                )
                .at(now)
                .with("agent", agent.name.clone())
                .with("db", self.db.title())
                .with("examined", run.examined)
                .with("selected", run.selected)
                .with("modified", run.modified),
            );
            report.runs.push((agent.name, run));
        }
        self.seen_seq = self.db.change_seq();
        Ok(report)
    }
}

/// Store an agent design (replacing any with the same name).
pub fn save_agent(db: &Database, agent: &AgentDesign) -> Result<()> {
    db.save_design(&mut agent.to_note())
}

/// Load all stored agents.
pub fn stored_agents(db: &Database) -> Result<Vec<AgentDesign>> {
    db.snapshot()
        .design_notes(NoteClass::Agent)?
        .iter()
        .map(|n| AgentDesign::from_note(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use domino_types::{LogicalClock, ReplicaId};

    fn db() -> Database {
        Database::open_in_memory(
            DbConfig::new("T", ReplicaId(1), ReplicaId(2)),
            LogicalClock::new(),
        )
        .unwrap()
    }

    fn escalator() -> AgentDesign {
        AgentDesign::new(
            "escalate",
            r#"SELECT Status = "open" & Age > 30; FIELD Status := "overdue""#,
        )
        .unwrap()
    }

    #[test]
    fn agent_modifies_selected_documents_only() {
        let db = db();
        for (age, status) in [(10.0, "open"), (45.0, "open"), (50.0, "closed")] {
            let mut n = Note::document("Ticket");
            n.set("Age", Value::Number(age));
            n.set("Status", Value::text(status));
            db.save(&mut n).unwrap();
        }
        let report = escalator().run(&db, "scheduler").unwrap();
        assert_eq!(report.examined, 3);
        assert_eq!(report.selected, 1);
        assert_eq!(report.modified, 1);
        let f = Formula::compile(r#"SELECT Status = "overdue""#).unwrap();
        assert_eq!(db.search(&f, &EvalEnv::default()).unwrap().len(), 1);
    }

    #[test]
    fn agent_runs_are_idempotent() {
        let db = db();
        let mut n = Note::document("Ticket");
        n.set("Age", Value::Number(99.0));
        n.set("Status", Value::text("open"));
        db.save(&mut n).unwrap();
        escalator().run(&db, "s").unwrap();
        let seq_after_first = db.open_by_unid(n.unid()).unwrap().oid.seq;
        // Second run selects nothing new and writes nothing.
        let report = escalator().run(&db, "s").unwrap();
        assert_eq!(report.modified, 0);
        assert_eq!(db.open_by_unid(n.unid()).unwrap().oid.seq, seq_after_first);
    }

    #[test]
    fn design_note_roundtrip() {
        let agent = escalator().scheduled(500);
        let note = agent.to_note();
        let back = AgentDesign::from_note(&note).unwrap();
        assert_eq!(back.name, "escalate");
        assert_eq!(back.trigger, AgentTrigger::Scheduled(500));
        assert_eq!(back.formula.source(), agent.formula.source());
    }

    #[test]
    fn save_agent_replaces_by_name() {
        let db = db();
        save_agent(&db, &escalator()).unwrap();
        save_agent(&db, &escalator().on_update()).unwrap();
        let agents = stored_agents(&db).unwrap();
        assert_eq!(agents.len(), 1);
        assert_eq!(agents[0].trigger, AgentTrigger::OnUpdate);
    }

    #[test]
    fn scheduler_runs_scheduled_agents_at_interval() {
        let db = std::sync::Arc::new(db());
        let mut n = Note::document("Ticket");
        n.set("Age", Value::Number(99.0));
        n.set("Status", Value::text("open"));
        db.save(&mut n).unwrap();
        save_agent(&db, &escalator().scheduled(10)).unwrap();

        let mut amgr = AgentScheduler::new(db.clone(), "amgr");
        // Never-run agent is due immediately (catch-up semantics).
        let first = amgr.tick(5).unwrap();
        assert_eq!(first.runs.len(), 1);
        assert_eq!(first.runs[0].0, "escalate");
        assert_eq!(
            first.runs[0].1,
            AgentRunReport {
                examined: 1,
                selected: 1,
                modified: 1
            }
        );
        // Not due again until 10 ticks have elapsed.
        assert!(!amgr.tick(9).unwrap().fired());
        let again = amgr.tick(15).unwrap();
        assert_eq!(again.runs.len(), 1);
        // Second run is idempotent: selected nothing, wrote nothing.
        assert_eq!(again.runs[0].1.modified, 0);
    }

    #[test]
    fn scheduler_fires_on_update_agents_off_the_change_seq() {
        let db = std::sync::Arc::new(db());
        save_agent(&db, &escalator().on_update()).unwrap();
        let mut amgr = AgentScheduler::new(db.clone(), "amgr");
        // No changes since the scheduler was created: nothing fires.
        assert!(!amgr.tick(1).unwrap().fired());
        let mut n = Note::document("Ticket");
        n.set("Age", Value::Number(40.0));
        n.set("Status", Value::text("open"));
        db.save(&mut n).unwrap();
        let report = amgr.tick(2).unwrap();
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].1.modified, 1);
        // The agent's own write must not re-trigger it next tick.
        assert!(!amgr.tick(3).unwrap().fired());
    }

    #[test]
    fn change_seq_advances_per_commit() {
        let db = db();
        let before = db.change_seq();
        let mut n = Note::document("Ticket");
        n.set("Status", Value::text("open"));
        db.save(&mut n).unwrap();
        assert_eq!(db.change_seq(), before + 1);
        {
            let _guard = db.begin_batch();
            let mut a = Note::document("Ticket");
            a.set("Status", Value::text("a"));
            db.save(&mut a).unwrap();
            let mut b = Note::document("Ticket");
            b.set("Status", Value::text("b"));
            db.save(&mut b).unwrap();
            // Commits count even while dispatch is buffered.
            assert_eq!(db.change_seq(), before + 3);
        }
    }

    #[test]
    fn agents_replicate_and_run_remotely() {
        let a = std::sync::Arc::new(db());
        let b = std::sync::Arc::new(
            Database::open_in_memory(
                DbConfig::new("T", ReplicaId(1), ReplicaId(3)),
                LogicalClock::starting_at(domino_types::Timestamp(99)),
            )
            .unwrap(),
        );
        save_agent(&a, &escalator()).unwrap();
        let mut n = Note::document("Ticket");
        n.set("Age", Value::Number(40.0));
        n.set("Status", Value::text("open"));
        a.save(&mut n).unwrap();
        // Agents are notes: they replicate like everything else. (Using the
        // low-level apply path to avoid a dev-dependency cycle on
        // domino-replica.)
        for id in a.note_ids(None).unwrap() {
            b.save_replicated(a.open_note(id).unwrap()).unwrap();
        }
        let agents = stored_agents(&b).unwrap();
        assert_eq!(agents.len(), 1);
        let report = agents[0].run(&b, "remote").unwrap();
        assert_eq!(report.modified, 1);
    }
}
