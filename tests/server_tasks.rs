//! The server's periodic tasks (checkpointer, agent manager, logger) stop
//! at once whatever their interval, and the background checkpointer
//! checkpoints while saves run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use domino::core::{Database, DbConfig, Note};
use domino::obs;
use domino::server::{DominoServer, LoggerConfig, ServerConfig, ServerLog};
use domino::storage::{CommitMode, EngineConfig, MemDisk};
use domino::types::{LogicalClock, ReplicaId, Value};
use domino::wal::MemLogStore;

const LONG: Duration = Duration::from_secs(10);

fn open(disk: &MemDisk, log: &MemLogStore, title: &str) -> Arc<Database> {
    let engine = EngineConfig {
        commit_mode: CommitMode::Force,
        ..EngineConfig::default()
    };
    Arc::new(
        Database::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            DbConfig::new(title, ReplicaId(7), ReplicaId(70)).with_engine(engine),
            LogicalClock::new(),
        )
        .unwrap(),
    )
}

fn listed(name: &str) -> bool {
    obs::tasks().iter().any(|t| t.name == name)
}

/// Call `stop` on the task `name` once it is on the roster, and fail
/// unless that took < 100 ms and took it off the roster.
fn assert_stops_at_once(name: &str, stop: impl FnOnce()) {
    let deadline = Instant::now() + LONG;
    while !listed(name) {
        assert!(Instant::now() < deadline, "{name} never listed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let began = Instant::now();
    stop();
    let took = began.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "{name} took {took:?} to stop"
    );
    assert!(!listed(name));
}

#[test]
fn the_checkpointer_stops_within_100ms_at_a_10s_interval() {
    let db = open(&MemDisk::new(), &MemLogStore::new(), "stop-ckpt");
    let task = db.start_checkpointer(LONG, 4);
    assert_stops_at_once("checkpointer:stop-ckpt", || task.stop());
}

#[test]
fn the_agent_manager_stops_within_100ms_at_a_10s_interval() {
    let server = DominoServer::new(ServerConfig::default());
    let task = server.start_amgr(LONG);
    assert_stops_at_once("http-amgr", || task.stop());
}

#[test]
fn the_logger_stops_within_100ms_at_a_10s_interval() {
    let log = ServerLog::with_config(LoggerConfig {
        stats_every: 0,
        probe_every: 0,
        ..LoggerConfig::default()
    })
    .unwrap();
    let task = log.start(LONG);
    assert_stops_at_once("logger", || task.stop());
}

#[test]
fn the_background_checkpointer_checkpoints_during_saves() {
    let (disk, log) = (MemDisk::new(), MemLogStore::new());
    let db = open(&disk, &log, "bg-ckpt");
    let before = db.engine_stats().checkpoints;
    let task = db.start_checkpointer(Duration::from_millis(5), 4);
    let deadline = Instant::now() + LONG;
    let mut saved = 0;
    while db.engine_stats().checkpoints == before {
        assert!(
            Instant::now() < deadline,
            "no checkpoint in {LONG:?} of saves"
        );
        let mut n = Note::document("Entry");
        n.set("Seq", Value::Number(saved as f64));
        db.save(&mut n).unwrap();
        saved += 1;
    }
    // Saves keep running beside the checkpointer's next cycles.
    for i in 0..50 {
        let mut n = Note::document("Entry");
        n.set("Seq", Value::Number((saved + i) as f64));
        db.save(&mut n).unwrap();
    }
    task.stop();
    // Every acknowledged save survives a power cut after the checkpoints.
    drop(db);
    log.crash();
    let db = open(&disk, &log, "bg-ckpt");
    assert_eq!(db.document_count().unwrap(), saved + 50);
}
