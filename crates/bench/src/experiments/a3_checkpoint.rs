//! A3 (ablation) — checkpoint interval: runtime overhead vs recovery time.
//!
//! Design choice being ablated: sharp checkpoints (flush every dirty page,
//! then truncate the log at its end — the retained log is the restart point).
//! Frequent checkpoints bound restart recovery tightly but pay page flushes
//! during normal running; rare checkpoints are cheap until the crash.

use std::sync::Arc;
use std::time::Instant;

use domino_core::{Database, DbConfig, Note};
use domino_storage::MemDisk;
use domino_types::{LogicalClock, ReplicaId, Value};
use domino_wal::MemLogStore;

use crate::table::{fmt, micros_per, Table};
use crate::Scale;

fn open(disk: MemDisk, log: MemLogStore, clock: LogicalClock) -> Arc<Database> {
    Arc::new(
        Database::open(
            Box::new(disk),
            Some(Box::new(log)),
            DbConfig::new("a3", ReplicaId(1), ReplicaId(1)),
            clock,
        )
        .expect("open"),
    )
}

pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "a3",
        "Ablation 3",
        "Checkpoint interval: run-time cost vs restart-recovery cost",
        "Design choice: sharp checkpoints; the interval is the knob trading \
         steady-state flush work against crash-recovery work",
    )
    .columns(&[
        "checkpoint every",
        "workload ms",
        "recovery µs",
        "records replayed",
        "page flushes",
    ]);

    let total_ops = scale.pick(2_000, 10_000);
    let intervals = [total_ops / 20, total_ops / 5, total_ops / 2, total_ops + 1];
    for interval in intervals {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let clock = LogicalClock::new();
        let (elapsed, flushes) = {
            let db = open(disk.clone(), log.clone(), clock.clone());
            let t0 = Instant::now();
            for i in 0..total_ops {
                let mut n = Note::document("Doc");
                n.set("I", Value::Number(i as f64));
                db.save(&mut n).expect("save");
                if i % interval == interval - 1 {
                    db.checkpoint().expect("checkpoint");
                }
            }
            let elapsed = t0.elapsed();
            // The crash lands mid-interval: half an interval of work since
            // the last checkpoint is the expected recovery tail.
            let tail = (interval.min(total_ops) / 2).max(1);
            for i in 0..tail {
                let mut n = Note::document("Doc");
                n.set("I", Value::Number((total_ops + i) as f64));
                db.save(&mut n).expect("save");
            }
            log.crash();
            (elapsed, db.engine_stats().page_writes)
        };
        let t0 = Instant::now();
        let db = open(disk, log, clock);
        let recovery = t0.elapsed();
        let stats = db.recovery_stats().expect("recovery ran");
        let tail = (interval.min(total_ops) / 2).max(1);
        assert_eq!(db.document_count().expect("count"), total_ops + tail);
        table.row(vec![
            if interval > total_ops {
                "never".to_string()
            } else {
                format!("{interval} ops")
            },
            fmt(elapsed.as_secs_f64() * 1e3),
            micros_per(1, recovery),
            fmt(stats.analyzed as f64),
            fmt(flushes as f64),
        ]);
    }
    table.takeaway(
        "recovery work is exactly the post-checkpoint tail (records replayed ∝ \
         interval); the steady-state price is page flushes ∝ ops/interval — the \
         administrator picks the crossover, as with Domino's checkpoint settings",
    );
    table
}
