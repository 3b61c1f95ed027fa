//! Durability walkthrough: force-at-commit, incremental fuzzy checkpointing,
//! the background checkpointer, log truncation, and crash recovery —
//! driven through the public `Database` surface over shareable in-memory
//! stores so the "machine" can be power-cycled.
//!
//! ```sh
//! cargo run --release -q -p domino-core --example durability_demo
//! ```

use std::sync::Arc;
use std::time::Duration;

use domino_core::{Database, DbConfig};
use domino_obs as obs;
use domino_storage::{CommitMode, EngineConfig, MemDisk};
use domino_types::{LogicalClock, ReplicaId, Value};
use domino_wal::{LogStore, MemLogStore};

fn open(disk: MemDisk, log: MemLogStore, clock: LogicalClock) -> Arc<Database> {
    let engine = EngineConfig {
        commit_mode: CommitMode::Force,
        ..EngineConfig::default()
    };
    Arc::new(
        Database::open(
            Box::new(disk),
            Some(Box::new(log)),
            DbConfig::new("durability", ReplicaId(1), ReplicaId(1)).with_engine(engine),
            clock,
        )
        .expect("open"),
    )
}

fn durable_log_bytes(log: &MemLogStore) -> u64 {
    log.len().unwrap() - log.start().unwrap()
}

fn main() {
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let clock = LogicalClock::new();
    let db = open(disk.clone(), log.clone(), clock.clone());

    // --- commit a batch of documents, each forced to the log ----------
    let counters = obs::snapshot();
    let mut ids = Vec::new();
    for i in 0..200 {
        let mut d = domino_core::Note::document("Doc");
        d.set("Subject", Value::text(format!("note {i}")));
        db.save(&mut d).expect("save");
        ids.push(d.id);
    }
    let ls = obs::snapshot().diff(&counters);
    println!(
        "after 200 saves: {} log records, {} device flushes ({} noop), durable log = {} bytes",
        ls.counter("Log.Records"),
        ls.counter("Log.Flushes"),
        ls.counter("Log.NoopFlushes"),
        durable_log_bytes(&log)
    );

    // --- incremental fuzzy checkpoint truncates the log ---------------
    let before = durable_log_bytes(&log);
    db.checkpoint_incremental(8).expect("checkpoint");
    let es = db.engine_stats();
    println!(
        "incremental checkpoint: {} pages written back in steps of 8; durable log {} -> {} bytes",
        es.checkpoint_pages,
        before,
        durable_log_bytes(&log)
    );
    assert!(durable_log_bytes(&log) < before, "checkpoint must truncate");

    // --- background checkpointer rides along with foreground saves ----
    let handle = db.start_checkpointer(Duration::from_millis(5), 4);
    for i in 0..200 {
        let mut d = domino_core::Note::document("Doc");
        d.set("Subject", Value::text(format!("bg note {i}")));
        db.save(&mut d).expect("save");
        ids.push(d.id);
        if i % 50 == 0 {
            std::thread::sleep(Duration::from_millis(6));
        }
    }
    handle.stop();
    let es = db.engine_stats();
    println!(
        "background checkpointer: {} checkpoints completed, {} pages written back total",
        es.checkpoints, es.checkpoint_pages
    );
    assert!(es.checkpoints >= 2, "background thread should have fired");

    // --- power cut: unsynced log tail and all cached frames vanish ----
    drop(db);
    log.crash();
    let db = open(disk, log.clone(), clock);
    let rs = db.recovery_stats();
    match rs {
        Some(rs) => println!(
            "after crash: recovery analyzed {} records, redid {}, undid {}",
            rs.analyzed, rs.redone, rs.undone
        ),
        None => println!("after crash: log tail empty past checkpoint — nothing to replay"),
    }
    for (i, id) in ids.iter().enumerate() {
        let d = db.open_note(*id).expect("every acknowledged save survives");
        let subject = d.get("Subject").expect("subject");
        let want = if i < 200 {
            format!("note {i}")
        } else {
            format!("bg note {}", i - 200)
        };
        assert_eq!(*subject, Value::text(want));
    }
    println!("all {} acknowledged documents recovered intact", ids.len());
}
