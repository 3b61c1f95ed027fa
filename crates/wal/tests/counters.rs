//! The log's counts are the process-wide `Log.*` counters. This is its
//! own test binary and holds one test, so the log it writes is the only
//! one that moves them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use domino_obs as obs;
use domino_types::Result;
use domino_wal::{LogManager, LogRecord, LogStore, Lsn, MemLogStore, TxId};

/// A [`MemLogStore`] whose `sync` takes as long as a fast device's, so
/// concurrent flushes arrive while one is in flight.
#[derive(Default)]
struct SlowSyncStore {
    inner: MemLogStore,
    syncs: AtomicU64,
}

impl LogStore for SlowSyncStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        std::thread::sleep(Duration::from_micros(200));
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        self.inner.read_from(from)
    }
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn start(&self) -> Result<u64> {
        self.inner.start()
    }
    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        self.inner.truncate_prefix(upto)
    }
}

#[test]
fn concurrent_flushes_share_syncs() {
    let m = Arc::new(LogManager::open(SlowSyncStore::default()).unwrap());
    let start = obs::snapshot();
    let threads = 8;
    let per_thread = 50;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let lsn = m
                        .append(&LogRecord::Commit {
                            tx: TxId((t * 1000 + i) as u64),
                        })
                        .unwrap();
                    m.flush(lsn).unwrap();
                    assert!(m.flushed_lsn() > lsn);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let calls = (threads * per_thread) as u64;
    // Every record made it out, in order, decodable.
    assert_eq!(m.scan(Lsn::NIL).unwrap().len() as u64, calls);
    let syncs = m.store().syncs.load(Ordering::Relaxed);
    assert!(
        syncs < calls,
        "expected shared syncs: {syncs} device syncs for {calls} flush calls"
    );
    let d = obs::snapshot().diff(&start);
    assert_eq!(d.counter("Log.Flushes"), syncs, "one device sync per flush");
    assert_eq!(
        d.counter("Log.Flushes") + d.counter("Log.NoopFlushes"),
        calls
    );
    assert_eq!(d.counter("Log.Records"), calls);
    assert_eq!(d.counter("Log.BytesAppended"), m.lsn_range().end.0);
}
