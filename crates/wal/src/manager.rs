//! The log manager: append, flush, scan.
//!
//! LSNs are byte offsets into the log, as in ARIES. Records are buffered in
//! memory and pushed to the [`LogStore`] by [`LogManager::flush`], the one
//! way to make them durable. A flush that finds its record not yet durable
//! and no write in flight becomes the *leader*: it drains the whole buffer,
//! issues a single `append` + `sync` with the lock released, and wakes
//! every parked caller. Callers arriving while the leader's sync is in
//! flight park, and the next leader's sync covers all of them, so under
//! concurrency one device sync serves many flushes.
//!
//! A failed store write is sticky. The drained records never reached the
//! store, so no later flush may report them durable: every flush after
//! the first store error returns that error. Reopening the log and running
//! restart recovery, which stops at the torn tail, is the only way on.

use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::record::{LogRecord, Lsn};
use crate::store::LogStore;
use domino_obs as obs;
use domino_types::{DominoError, Result};

/// Process-wide registry mirrors of [`LogStats`] (which stays per-manager
/// and exact). `Log.Flushes` over `Database.Txn.Commits` is the
/// flushes-per-commit figure.
struct Metrics {
    records: &'static obs::Counter,
    bytes: &'static obs::Counter,
    flushes: &'static obs::Counter,
    noop_flushes: &'static obs::Counter,
    flush_nanos: &'static obs::Histogram,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        records: obs::counter("Log.Records"),
        bytes: obs::counter("Log.BytesAppended"),
        flushes: obs::counter("Log.Flushes"),
        noop_flushes: obs::counter("Log.NoopFlushes"),
        flush_nanos: obs::histogram("Log.Flush.Nanos"),
    })
}

/// Upper bound on how long a parked flush waits per round; purely a
/// lost-wakeup backstop (the leader always notifies on completion).
const FOLLOWER_PARK: Duration = Duration::from_millis(10);

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended since open.
    pub records: u64,
    /// Bytes appended since open.
    pub bytes: u64,
    /// Flush calls that actually wrote + synced.
    pub flushes: u64,
    /// Flush calls satisfied by an earlier flush's sync.
    pub noop_flushes: u64,
}

struct Inner {
    /// Encoded-but-unflushed bytes.
    buffer: Vec<u8>,
    /// LSN one past the last appended record.
    next_lsn: Lsn,
    /// Everything below this LSN is durable.
    flushed_lsn: Lsn,
    /// A leader has store I/O in flight; every other store write parks
    /// until it completes, since log bytes reach the store in LSN order.
    leader_active: bool,
    /// The first store write error. Once set, every flush returns it.
    failed: Option<DominoError>,
    stats: LogStats,
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Thread-safe write-ahead log front end.
pub struct LogManager<S: LogStore> {
    store: S,
    inner: Mutex<Inner>,
    /// Signals leader completion to parked flushers.
    flushed: Condvar,
}

impl<S: LogStore> LogManager<S> {
    /// Open over a store; `next_lsn` resumes at the durable end.
    pub fn open(store: S) -> Result<LogManager<S>> {
        let end = store.len()?;
        Ok(LogManager {
            store,
            inner: Mutex::new(Inner {
                buffer: Vec::new(),
                next_lsn: Lsn(end),
                flushed_lsn: Lsn(end),
                leader_active: false,
                failed: None,
                stats: LogStats::default(),
            }),
            flushed: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        lock_recover(&self.inner)
    }

    /// Append a record; returns its LSN. Not yet durable.
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        let bytes = rec.encode();
        let mut g = self.lock();
        let lsn = g.next_lsn;
        g.buffer.extend_from_slice(&bytes);
        g.next_lsn = Lsn(g.next_lsn.0 + bytes.len() as u64);
        g.stats.records += 1;
        g.stats.bytes += bytes.len() as u64;
        m().records.inc();
        m().bytes.add(bytes.len() as u64);
        Ok(lsn)
    }

    /// Park once until a leader signals completion (or the backstop
    /// timeout passes). Returns the re-acquired guard.
    fn park<'a>(&'a self, g: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        self.flushed
            .wait_timeout(g, FOLLOWER_PARK)
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .0
    }

    /// Make the log durable up to and including the record at `upto`.
    ///
    /// Returns at once if that record is already durable; parks while
    /// another caller's write is in flight; otherwise leads: drains the
    /// whole buffer, writes and syncs it once, and wakes every parked
    /// caller. After any store error, returns that error forever.
    pub fn flush(&self, upto: Lsn) -> Result<()> {
        let mut g = self.lock();
        loop {
            if let Some(e) = &g.failed {
                return Err(e.clone());
            }
            if g.flushed_lsn > upto {
                g.stats.noop_flushes += 1;
                m().noop_flushes.inc();
                return Ok(());
            }
            if !g.leader_active {
                break;
            }
            g = self.park(g);
        }
        g.leader_active = true;
        let chunk: Vec<u8> = g.buffer.drain(..).collect();
        let target = g.next_lsn;
        drop(g);

        let io_timer = m().flush_nanos.time();
        let io = (|| {
            if !chunk.is_empty() {
                self.store.append(&chunk)?;
            }
            self.store.sync()
        })();
        drop(io_timer);

        let mut g = self.lock();
        g.leader_active = false;
        match &io {
            Ok(()) => {
                g.flushed_lsn = target;
                g.stats.flushes += 1;
                m().flushes.inc();
            }
            // The store may hold a torn tail past `flushed_lsn`; the
            // per-record checksums make recovery stop cleanly there.
            Err(e) => g.failed = Some(e.clone()),
        }
        self.flushed.notify_all();
        io
    }

    /// Force everything appended so far.
    pub fn flush_all(&self) -> Result<()> {
        let upto = self.lock().next_lsn;
        if upto.is_nil() {
            return Ok(());
        }
        self.flush(Lsn(upto.0 - 1))
    }

    /// LSN the next record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.lock().next_lsn
    }

    /// Highest durable LSN boundary.
    pub fn flushed_lsn(&self) -> Lsn {
        self.lock().flushed_lsn
    }

    pub fn stats(&self) -> LogStats {
        self.lock().stats
    }

    /// Durable log size in bytes: what the store physically retains, i.e.
    /// the durable end minus any prefix truncated below a checkpoint.
    pub fn durable_len(&self) -> Result<u64> {
        Ok(self.store.len()?.saturating_sub(self.store.start()?))
    }

    /// Read all durable records with LSN >= `from`.
    ///
    /// Returns `(lsn, record)` pairs. Stops cleanly at a torn tail. A
    /// `from` below the store's truncated base is clamped up to it (those
    /// records are below every checkpoint and never needed again).
    pub fn scan(&self, from: Lsn) -> Result<Vec<(Lsn, LogRecord)>> {
        // `from` must be a record boundary: an LSN returned by `append`, or
        // the base, which truncation only ever cuts at a record boundary.
        let base = self.store.start()?;
        let from = Lsn(from.0.max(base));
        let bytes = self.store.read_from(from.0)?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut start = from.0;
        while let Some(rec) = LogRecord::decode(&bytes, &mut pos)? {
            out.push((Lsn(start), rec));
            start = from.0 + pos as u64;
        }
        Ok(out)
    }

    /// Discard the physical log prefix below `upto` (everything below the
    /// most recent checkpoint's min recovery-LSN). Only durable bytes can
    /// be dropped; LSNs keep their values.
    pub fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
        let mut g = self.lock();
        while g.leader_active {
            g = self.park(g);
        }
        let cut = upto.min(g.flushed_lsn);
        drop(g);
        self.store.truncate_prefix(cut.0)
    }

    /// Borrow the underlying store (e.g. to crash a [`crate::MemLogStore`]).
    pub fn store(&self) -> &S {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxId;
    use crate::store::MemLogStore;
    use domino_types::{FaultPlan, Faulty};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn mgr() -> LogManager<MemLogStore> {
        LogManager::open(MemLogStore::new()).unwrap()
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let m = mgr();
        let a = m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        let b = m.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        assert!(b > a);
        assert_eq!(a, Lsn::NIL);
    }

    #[test]
    fn scan_returns_flushed_records_with_lsns() {
        let m = mgr();
        let recs = vec![
            LogRecord::Begin { tx: TxId(1) },
            LogRecord::Update {
                tx: TxId(1),
                prev: Lsn::NIL,
                page: 1,
                offset: 0,
                before: vec![0],
                after: vec![1],
            },
            LogRecord::Commit { tx: TxId(1) },
        ];
        let mut lsns = Vec::new();
        for r in &recs {
            lsns.push(m.append(r).unwrap());
        }
        m.flush_all().unwrap();
        let scanned = m.scan(Lsn::NIL).unwrap();
        assert_eq!(scanned.len(), 3);
        for ((lsn, rec), (want_lsn, want_rec)) in scanned.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, want_lsn);
            assert_eq!(rec, want_rec);
        }
    }

    #[test]
    fn scan_from_middle() {
        let m = mgr();
        m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        let second = m.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        m.flush_all().unwrap();
        let scanned = m.scan(second).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].1, LogRecord::Commit { tx: TxId(1) });
    }

    #[test]
    fn unflushed_records_invisible_to_scan() {
        let m = mgr();
        m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        assert!(m.scan(Lsn::NIL).unwrap().is_empty());
    }

    #[test]
    fn flush_of_a_durable_record_is_a_noop() {
        let m = mgr();
        let a = m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        let b = m.append(&LogRecord::Begin { tx: TxId(2) }).unwrap();
        m.flush(b).unwrap();
        m.flush(a).unwrap(); // already durable
        let stats = m.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.noop_flushes, 1);
    }

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
        assert_eq!(syncs, m.stats().flushes);
        assert!(
            syncs < calls,
            "expected shared syncs: {syncs} device syncs for {calls} flush calls"
        );
    }

    #[test]
    fn a_failed_log_write_stays_failed() {
        let plan = FaultPlan::default();
        let store = MemLogStore::new();
        let m = LogManager::open(Faulty::new(store.clone(), plan.clone())).unwrap();
        let a = m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        plan.arm(0);
        assert!(m.flush(a).is_err());
        // The device recovers, but record `a` never reached it: no later
        // flush may call it, or anything after it, durable.
        plan.disarm();
        assert!(m.flush(a).is_err());
        let b = m.append(&LogRecord::Begin { tx: TxId(2) }).unwrap();
        assert!(m.flush(b).is_err());
        assert!(m.flush_all().is_err());
        assert_eq!(m.flushed_lsn(), Lsn::NIL);
        // After the crash, nothing scans back under a wrong LSN.
        store.crash();
        let m2 = LogManager::open(store).unwrap();
        assert!(m2.scan(Lsn::NIL).unwrap().is_empty());
        assert_eq!(m2.next_lsn(), Lsn::NIL);
    }

    #[test]
    fn reopen_resumes_lsns() {
        let store = MemLogStore::new();
        let m = LogManager::open(store.clone()).unwrap();
        m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        m.flush_all().unwrap();
        let end = m.next_lsn();
        drop(m);
        let m2 = LogManager::open(store).unwrap();
        assert_eq!(m2.next_lsn(), end);
        assert_eq!(m2.scan(Lsn::NIL).unwrap().len(), 1);
    }

    #[test]
    fn crash_discards_unflushed_tail() {
        let store = MemLogStore::new();
        let m = LogManager::open(store.clone()).unwrap();
        m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        m.flush_all().unwrap();
        m.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        store.crash();
        let m2 = LogManager::open(store).unwrap();
        let recs = m2.scan(Lsn::NIL).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(matches!(recs[0].1, LogRecord::Begin { .. }));
    }

    #[test]
    fn truncate_prefix_shrinks_durable_len_and_scan_still_works() {
        let m = mgr();
        let mut lsns = Vec::new();
        for i in 0..10 {
            lsns.push(m.append(&LogRecord::Begin { tx: TxId(i) }).unwrap());
        }
        m.flush_all().unwrap();
        let full = m.durable_len().unwrap();
        m.truncate_prefix(lsns[6]).unwrap();
        assert!(m.durable_len().unwrap() < full);
        let recs = m.scan(lsns[6]).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].0, lsns[6]);
        // scan() below the base clamps instead of failing.
        let clamped = m.scan(Lsn::NIL).unwrap();
        assert_eq!(clamped.len(), 4);
        assert_eq!(clamped[0].0, lsns[6]);
        // Cutting at the durable end discards every byte but no LSN: the
        // next record continues the same numbering.
        let end = m.next_lsn();
        m.truncate_prefix(end).unwrap();
        assert_eq!(m.durable_len().unwrap(), 0);
        assert_eq!(m.append(&LogRecord::Begin { tx: TxId(10) }).unwrap(), end);
    }
}
