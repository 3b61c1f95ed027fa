//! `Ft.Index.Documents` and `Ft.Index.Bytes` are sums over the live
//! indexes of the process: a rebuild replaces an index's share, and a
//! dropped index takes its share back. This is its own test binary, so
//! nothing else moves the gauges while it reads them.

use std::sync::Arc;

use domino_core::{Database, DbConfig, Note};
use domino_ftindex::FtIndex;
use domino_obs as obs;
use domino_types::{LogicalClock, ReplicaId, Value};

fn gauges() -> (i64, i64) {
    let s = obs::snapshot();
    (s.gauge("Ft.Index.Documents"), s.gauge("Ft.Index.Bytes"))
}

#[test]
fn the_index_gauges_follow_rebuilds_and_drops() {
    let start = gauges();
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("G", ReplicaId(1), ReplicaId(2)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    for subject in ["first memo", "second memo", "third memo"] {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(subject));
        db.save(&mut n).unwrap();
    }
    let ft = FtIndex::attach(&db);
    ft.rebuild(&db);
    let bytes = ft.stats().bytes as i64;
    assert!(bytes > 0);
    assert_eq!(gauges(), (start.0 + 3, start.1 + bytes));
    // The index's state goes with its handle; the database holds it only
    // weakly, through the subscription the handle owns.
    drop(ft);
    drop(db);
    assert_eq!(gauges(), start);
}
