//! The log manager: append, flush, group commit, scan.
//!
//! LSNs are byte offsets into the log, as in ARIES. Records are buffered in
//! memory and pushed to the [`LogStore`] on [`LogManager::flush`]. The
//! manager tracks record boundaries, so a committer forcing a small `upto`
//! writes only the bytes through its own record — a lagging committer never
//! pays for later appends' bytes.
//!
//! [`LogManager::commit_group`] is the real group-commit protocol:
//! committers enqueue their target LSN; one becomes the *leader*, drains
//! the shared buffer, issues a single `append` + `sync` with the lock
//! released, and wakes every waiter whose LSN the flush covered.
//! Committers arriving while the leader's sync is in flight park and form
//! the next group, so under concurrency one device sync amortizes across
//! many commits. [`LogStats`] exposes a group-size histogram so E2 can
//! measure the batching.

use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::record::{LogRecord, Lsn};
use crate::store::LogStore;
use domino_obs as obs;
use domino_types::Result;

/// Process-wide registry mirrors of [`LogStats`] (which stays per-manager
/// and exact). `Log.GroupCommit.GroupSize` is a histogram: its mean is the
/// flushes-per-commit figure E2 tracks, its P99 the worst batching.
struct Metrics {
    records: &'static obs::Counter,
    bytes: &'static obs::Counter,
    flushes: &'static obs::Counter,
    noop_flushes: &'static obs::Counter,
    group_committers: &'static obs::Counter,
    group_flushes: &'static obs::Counter,
    group_size: &'static obs::Histogram,
    flush_nanos: &'static obs::Histogram,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        records: obs::counter("Log.Records"),
        bytes: obs::counter("Log.BytesAppended"),
        flushes: obs::counter("Log.Flushes"),
        noop_flushes: obs::counter("Log.NoopFlushes"),
        group_committers: obs::counter("Log.GroupCommit.Committers"),
        group_flushes: obs::counter("Log.GroupCommit.Flushes"),
        group_size: obs::histogram("Log.GroupCommit.GroupSize"),
        flush_nanos: obs::histogram("Log.Flush.Nanos"),
    })
}

/// Upper bound on how long a group-commit follower parks per wait; purely
/// a lost-wakeup backstop (the leader always notifies on completion).
const FOLLOWER_PARK: Duration = Duration::from_millis(10);

/// Number of buckets in [`LogStats::group_size_hist`]: group sizes
/// 1, 2, 3-4, 5-8, 9-16, 17+.
pub const GROUP_SIZE_BUCKETS: usize = 6;

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended since open.
    pub records: u64,
    /// Bytes appended since open.
    pub bytes: u64,
    /// Flush calls that actually wrote + synced.
    pub flushes: u64,
    /// Flush calls satisfied by a previous flush (group-commit wins).
    pub noop_flushes: u64,
    /// Committers that entered [`LogManager::commit_group`].
    pub group_committers: u64,
    /// Leader flushes issued on behalf of a commit group.
    pub group_flushes: u64,
    /// Histogram of committers covered per group flush:
    /// buckets for sizes 1, 2, 3-4, 5-8, 9-16, 17+.
    pub group_size_hist: [u64; GROUP_SIZE_BUCKETS],
    /// Largest group a single flush covered.
    pub max_group_size: u64,
}

impl LogStats {
    fn record_group(&mut self, size: u64) {
        let bucket = match size {
            0 | 1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            _ => 5,
        };
        self.group_size_hist[bucket] += 1;
        self.group_flushes += 1;
        self.max_group_size = self.max_group_size.max(size);
        m().group_flushes.inc();
        m().group_size.record(size);
    }
}

struct Inner {
    /// Encoded-but-unflushed bytes.
    buffer: Vec<u8>,
    /// LSN of the first byte in `buffer`.
    buffer_start: Lsn,
    /// Logical end offset (absolute LSN) of each buffered record, in append
    /// order. Lets `flush(upto)` split the buffer at a record boundary.
    record_ends: Vec<u64>,
    /// LSN one past the last appended record.
    next_lsn: Lsn,
    /// Everything below this LSN is durable.
    flushed_lsn: Lsn,
    /// A leader (of `flush` or `commit_group`) has store I/O in flight;
    /// all other store writes must park until it completes, since log
    /// bytes have to reach the store in LSN order.
    leader_active: bool,
    /// Committers currently parked in `commit_group` (plus the leader).
    group_waiters: u64,
    stats: LogStats,
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Thread-safe write-ahead log front end.
pub struct LogManager<S: LogStore> {
    store: S,
    inner: Mutex<Inner>,
    /// Signals leader completion to followers and parked flushers.
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
                buffer_start: Lsn(end),
                record_ends: Vec::new(),
                next_lsn: Lsn(end),
                flushed_lsn: Lsn(end),
                leader_active: false,
                group_waiters: 0,
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
        let end = g.next_lsn.0;
        g.record_ends.push(end);
        g.stats.records += 1;
        g.stats.bytes += bytes.len() as u64;
        m().records.inc();
        m().bytes.add(bytes.len() as u64);
        Ok(lsn)
    }

    /// Write `buffer[..split]` to the store with the lock *released* during
    /// I/O, honoring the leader protocol (only one store writer at a time,
    /// in LSN order). Returns the guard re-acquired after completion.
    ///
    /// On entry the caller must have verified `upto` is not yet durable.
    /// `split == buffer.len()` is the whole-buffer (group leader) path.
    fn write_out<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner>,
        split: usize,
    ) -> Result<MutexGuard<'a, Inner>> {
        debug_assert!(!g.leader_active);
        g.leader_active = true;
        let chunk: Vec<u8> = g.buffer.drain(..split).collect();
        let target = Lsn(g.buffer_start.0 + chunk.len() as u64);
        g.buffer_start = target;
        let keep = g
            .record_ends
            .iter()
            .position(|e| *e > target.0)
            .unwrap_or(g.record_ends.len());
        g.record_ends.drain(..keep);
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
        match io {
            Ok(()) => {
                g.flushed_lsn = g.flushed_lsn.max(target);
                g.stats.flushes += 1;
                m().flushes.inc();
                self.flushed.notify_all();
                Ok(g)
            }
            Err(e) => {
                // The store may hold a torn tail past flushed_lsn; the
                // per-record checksums make recovery stop cleanly there.
                // Wake everyone so waiters observe the failure path (they
                // will retry and surface their own errors).
                self.flushed.notify_all();
                Err(e)
            }
        }
    }

    /// Park until no leader has I/O in flight. Returns the re-acquired guard.
    fn wait_for_leader<'a>(&'a self, mut g: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        while g.leader_active {
            g = self
                .flushed
                .wait_timeout(g, FOLLOWER_PARK)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
        g
    }

    /// Make the log durable up to and including the record at `upto`.
    ///
    /// Splits the buffer at the containing record's boundary: only bytes
    /// through that record are written, so a small force does not pay for
    /// appends that happened after it (the group-commit leader path flushes
    /// the whole buffer instead).
    pub fn flush(&self, upto: Lsn) -> Result<()> {
        let mut g = self.lock();
        loop {
            if g.flushed_lsn > upto {
                g.stats.noop_flushes += 1;
                m().noop_flushes.inc();
                return Ok(());
            }
            if !g.leader_active {
                break;
            }
            g = self.wait_for_leader(g);
        }
        // First buffered record whose end covers `upto` marks the split.
        let split_end = match g.record_ends.iter().find(|e| **e > upto.0) {
            Some(end) => *end,
            None => g.next_lsn.0, // `upto` beyond the last boundary: take all
        };
        let split = (split_end - g.buffer_start.0) as usize;
        drop(self.write_out(g, split)?);
        Ok(())
    }

    /// Force everything appended so far.
    pub fn flush_all(&self) -> Result<()> {
        let upto = self.lock().next_lsn;
        if upto.is_nil() {
            return Ok(());
        }
        self.flush(Lsn(upto.0 - 1))
    }

    /// Group commit: make the record at `upto` durable, sharing the device
    /// sync with every other concurrent committer.
    ///
    /// The first committer to find no flush in flight becomes the leader:
    /// it waits up to `max_wait` for up to `max_batch` committers to
    /// enqueue (a zero `max_wait` skips the window — batching then comes
    /// purely from commits that arrive while a sync is in flight), drains
    /// the whole buffer, writes + syncs once, and wakes all covered
    /// waiters. Followers park; by the time they are woken their record is
    /// durable, or they retry (and may lead the next group).
    pub fn commit_group(&self, upto: Lsn, max_wait: Duration, max_batch: usize) -> Result<()> {
        let mut g = self.lock();
        g.stats.group_committers += 1;
        m().group_committers.inc();
        if g.flushed_lsn > upto {
            g.stats.noop_flushes += 1;
            m().noop_flushes.inc();
            return Ok(());
        }
        g.group_waiters += 1;
        loop {
            if g.flushed_lsn > upto {
                // Covered by another leader's flush (our registration was
                // consumed when that leader drained the group).
                return Ok(());
            }
            if !g.leader_active {
                // Become leader. Optionally hold the door for followers.
                if !max_wait.is_zero() && max_batch > 1 {
                    let deadline = Instant::now() + max_wait;
                    while (g.group_waiters as usize) < max_batch {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (g2, _timeout) = self
                            .flushed
                            .wait_timeout(g, deadline - now)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        g = g2;
                        if g.leader_active {
                            // Someone else led meanwhile; re-evaluate.
                            break;
                        }
                    }
                    if g.leader_active || g.flushed_lsn > upto {
                        continue;
                    }
                }
                // Every registered committer appended before enqueueing, so
                // draining the whole buffer covers all of them.
                let served = g.group_waiters;
                g.group_waiters = 0;
                let split = g.buffer.len();
                g = self.write_out(g, split)?;
                g.stats.record_group(served);
                return Ok(());
            }
            // A leader is flushing; park until it completes, then re-check.
            g = self
                .flushed
                .wait_timeout(g, FOLLOWER_PARK)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
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
        let g = self.lock();
        let g = self.wait_for_leader(g);
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
    fn group_commit_noop_flush() {
        let m = mgr();
        let a = m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        let b = m.append(&LogRecord::Begin { tx: TxId(2) }).unwrap();
        m.flush(b).unwrap();
        m.flush(a).unwrap(); // already durable
        let stats = m.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.noop_flushes, 1);
    }

    #[test]
    fn partial_flush_stops_at_record_boundary() {
        let m = mgr();
        let a = m.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        let b = m.append(&LogRecord::Begin { tx: TxId(2) }).unwrap();
        let c = m.append(&LogRecord::Begin { tx: TxId(3) }).unwrap();
        // Forcing the first record must not write the later two.
        m.flush(a).unwrap();
        assert!(m.flushed_lsn() > a);
        assert!(m.flushed_lsn() <= b);
        assert_eq!(m.scan(Lsn::NIL).unwrap().len(), 1);
        // The rest still flushes cleanly afterwards.
        m.flush(c).unwrap();
        assert_eq!(m.scan(Lsn::NIL).unwrap().len(), 3);
        assert_eq!(m.stats().flushes, 2);
    }

    #[test]
    fn partial_flush_bytes_match_record_sizes() {
        let m = mgr();
        let rec_small = LogRecord::Begin { tx: TxId(1) };
        let small_len = rec_small.encode().len() as u64;
        m.append(&rec_small).unwrap();
        // A big record buffered after the small one.
        m.append(&LogRecord::Update {
            tx: TxId(1),
            prev: Lsn::NIL,
            page: 1,
            offset: 0,
            before: vec![0u8; 2048],
            after: vec![1u8; 2048],
        })
        .unwrap();
        m.flush(Lsn::NIL).unwrap(); // force only the small record
        assert_eq!(m.durable_len().unwrap(), small_len);
    }

    #[test]
    fn group_commit_single_thread_is_durable() {
        let m = mgr();
        let lsn = m.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        m.commit_group(lsn, Duration::ZERO, 8).unwrap();
        assert!(m.flushed_lsn() > lsn);
        let stats = m.stats();
        assert_eq!(stats.group_committers, 1);
        assert_eq!(stats.group_flushes, 1);
        assert_eq!(stats.group_size_hist[0], 1);
    }

    #[test]
    fn group_commit_many_threads_share_syncs() {
        let m = Arc::new(mgr());
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
                        m.commit_group(lsn, Duration::from_micros(200), 8).unwrap();
                        assert!(m.flushed_lsn() > lsn);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = m.stats();
        assert_eq!(stats.group_committers, (threads * per_thread) as u64);
        // Every record made it out, in order, decodable.
        let recs = m.scan(Lsn::NIL).unwrap();
        assert_eq!(recs.len(), threads * per_thread);
        // Group commit must have batched at least some syncs.
        assert!(
            stats.flushes < stats.group_committers,
            "expected batching: {} flushes for {} committers",
            stats.flushes,
            stats.group_committers
        );
        let hist_total: u64 = stats.group_size_hist.iter().sum();
        assert_eq!(hist_total, stats.group_flushes);
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
