//! A1 (ablation) — buffer pool capacity vs read performance.
//!
//! Design choice being ablated: the steal/no-force buffer pool with LRU
//! eviction and the summary/body page segregation. Shrinking the pool
//! below the working set shows the cliff for full-record reads; opening
//! the database — the one scan that reads every summary page and no body
//! page — degrades far more gently because its working set
//! (1 page/note) is 4-5× smaller.
//!
//! Full reads go through `Database::stored_note`, the engine's record
//! reader: `open_note` is served from the version map and would not touch
//! the pool at all.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use domino_core::{Database, DbConfig};
use domino_storage::{EngineConfig, MemDisk};
use domino_types::{LogicalClock, NoteClass, ReplicaId};
use domino_wal::MemLogStore;

use crate::table::{fmt, micros_per, Table};
use crate::workload::{populate, rng};
use crate::Scale;

pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "a1",
        "Ablation 1",
        "Buffer pool capacity: hit rate and read cost vs working set",
        "Design choice: a page-granular LRU buffer pool + summary/body \
         segregation; views stay fast even when bodies no longer fit",
    )
    .columns(&[
        "pool pages",
        "full-read µs",
        "lazy-open µs/note",
        "hit rate",
        "evictions",
    ]);

    let n = scale.pick(1_000, 4_000);
    let probes = scale.pick(2_000, 8_000);
    for capacity in [64usize, 256, 1024, 4096, 16384] {
        let disk = MemDisk::new();
        let log = MemLogStore::new();
        let clock = LogicalClock::new();
        {
            let db = open(&disk, &log, &clock, capacity);
            populate(&db, &mut rng(0xA1A1), n, 6, 48, 12_288);
            db.shutdown().expect("shutdown");
        }
        // Reopen: the lazy seed reads every summary page, no body page.
        let t0 = Instant::now();
        let db = open(&disk, &log, &clock, capacity);
        let lazy_open = t0.elapsed();

        let mut r = rng(0xA1);
        let ids = db.note_ids(Some(NoteClass::Document)).expect("ids");
        let before = db.engine_stats();
        let t0 = Instant::now();
        for _ in 0..probes {
            let id = ids[r.random_range(0..ids.len())];
            db.stored_note(id).expect("read");
        }
        let full = t0.elapsed();
        let after = db.engine_stats();
        let hits = after.pool_hits - before.pool_hits;
        let misses = after.pool_misses - before.pool_misses;
        table.row(vec![
            fmt(capacity as f64),
            micros_per(probes, full),
            micros_per(n, lazy_open),
            format!(
                "{:.1}%",
                100.0 * hits as f64 / (hits + misses).max(1) as f64
            ),
            fmt((after.evictions - before.evictions) as f64),
        ]);
    }
    table.takeaway(
        "below the working set the hit rate collapses and full reads pay disk+eviction \
         per page; the summary-only open stays usable at pool sizes where full reads \
         thrash — the access-path segregation is what keeps view refresh cheap",
    );
    table
}

fn open(disk: &MemDisk, log: &MemLogStore, clock: &LogicalClock, capacity: usize) -> Arc<Database> {
    let config = DbConfig::new("a1", ReplicaId(1), ReplicaId(1)).with_engine(EngineConfig {
        buffer_capacity: capacity,
        ..EngineConfig::default()
    });
    Arc::new(
        Database::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            config,
            clock.clone(),
        )
        .expect("open"),
    )
}
