//! E2 (Table 2) — R5 transactional logging: commit-durability cost and
//! restart recovery vs the pre-R5 "fixup" full-database scan.

use std::sync::Arc;
use std::time::Instant;

use domino_core::{Database, DbConfig};
use domino_storage::{CommitMode, EngineConfig, MemDisk};
use domino_types::{LogicalClock, NoteClass, ReplicaId, Value};
use domino_wal::MemLogStore;

use crate::table::{fmt, micros_per, rate, Table};
use crate::workload::{make_doc, rng};
use crate::Scale;

fn open_db(
    disk: MemDisk,
    log: Option<MemLogStore>,
    clock: LogicalClock,
    force: bool,
) -> Arc<Database> {
    let engine = EngineConfig {
        logging: log.is_some(),
        commit_mode: if force {
            CommitMode::Force
        } else {
            CommitMode::NoForce
        },
        ..EngineConfig::default()
    };
    let log_store: Option<Box<dyn domino_wal::LogStore>> = log.map(|l| {
        let b: Box<dyn domino_wal::LogStore> = Box::new(l);
        b
    });
    Arc::new(
        Database::open(
            Box::new(disk),
            log_store,
            DbConfig::new("e2", ReplicaId(1), ReplicaId(1)).with_engine(engine),
            clock,
        )
        .expect("open"),
    )
}

pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "e2",
        "Table 2",
        "Transactional logging: commit cost and restart recovery vs fixup",
        "R5's write-ahead log makes commits durable at modest cost and restart \
         recovery proportional to the log tail, replacing the R4 'fixup' scan of \
         the whole database",
    )
    .columns(&[
        "mode / db size",
        "commit ops/s",
        "recovery µs",
        "recovery records",
        "fixup µs (full scan)",
        "fixup/recovery",
    ]);

    // --- commit throughput by durability mode -------------------------
    let n_commit = scale.pick(2_000, 10_000);
    for (label, log, flush) in [
        ("log+force (durable)", Some(MemLogStore::new()), true),
        ("log, no force", Some(MemLogStore::new()), false),
        ("no log (pre-R5)", None, false),
    ] {
        let db = open_db(MemDisk::new(), log, LogicalClock::new(), flush);
        let mut r = rng(0xE2);
        let t0 = Instant::now();
        for _ in 0..n_commit {
            let mut d = make_doc(&mut r, 4, 32, 0);
            db.save(&mut d).expect("save");
        }
        let elapsed = t0.elapsed();
        table.row(vec![
            label.to_string(),
            rate(n_commit, elapsed),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }

    // --- recovery time vs database size (fixed update tail) -----------
    let sizes = match scale {
        Scale::Quick => vec![500, 2_000],
        Scale::Full => vec![1_000, 10_000, 50_000],
    };
    for n in sizes {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let clock = LogicalClock::new();
        let tail_updates = 200.min(n);
        {
            let db = open_db(disk.clone(), Some(log.clone()), clock.clone(), true);
            let mut r = rng(0xE2E2);
            let mut ids = Vec::new();
            for i in 0..n {
                let mut d = make_doc(&mut r, 6, 48, 0);
                db.save(&mut d).expect("save");
                ids.push(d.id);
                if i % 5000 == 4999 {
                    db.checkpoint().expect("checkpoint");
                }
            }
            // Checkpoint bounds restart work to the tail that follows.
            db.checkpoint().expect("checkpoint");
            for id in ids.iter().take(tail_updates) {
                let mut d = db.open_note(*id).expect("open");
                d.set("F0", Value::text("tail"));
                db.save(&mut d).expect("save");
            }
            log.crash(); // power cut
        }
        let t0 = Instant::now();
        let db = open_db(disk, Some(log), clock, true);
        let recovery = t0.elapsed();
        let stats = db.recovery_stats().expect("recovery ran");

        // Fixup: what a log-less server must do — scan and verify every
        // note in the file (`stored_note` reads the engine's record, not
        // the version map).
        let ids = db.note_ids(Some(NoteClass::Document)).expect("ids");
        let t0 = Instant::now();
        for id in &ids {
            db.stored_note(*id).expect("fixup scan");
        }
        let fixup = t0.elapsed();

        let ratio = fixup.as_secs_f64() / recovery.as_secs_f64().max(1e-9);
        table.row(vec![
            format!("recovery @ {n} notes"),
            "-".into(),
            micros_per(1, recovery),
            fmt(stats.analyzed as f64),
            micros_per(1, fixup),
            fmt(ratio),
        ]);
    }
    table.takeaway(
        "durable commits cost a constant log-force; recovery time tracks the log tail \
         (flat in database size) while fixup grows linearly with the database — the \
         fixup/recovery ratio widens with N",
    );
    table
}
