//! ARIES-style restart recovery: analysis, redo, undo.
//!
//! The retained log begins at the redo point of the last checkpoint
//! (completion truncates it there), and a checkpoint completes only with
//! no transaction open, so every record restart needs lies in one forward
//! scan from the first retained byte:
//!
//! * **Analysis** rebuilds the active-transaction table (ATT): whoever has
//!   records but no commit or abort is a loser.
//! * **Redo** *repeats history* in the same pass: every logged update
//!   (including CLRs) above the page's on-disk LSN is re-applied, whether
//!   its transaction won or lost.
//! * **Undo** rolls back loser transactions newest-record-first, writing a
//!   compensation record (CLR) per undone update so a crash during recovery
//!   never undoes twice.
//!
//! The page store is abstracted as [`RedoTarget`] so this crate stays
//! independent of `domino-storage`.

use std::collections::HashMap;

use crate::manager::LogManager;
use crate::record::{LogRecord, Lsn, TxId};
use crate::store::LogStore;
use domino_types::{DominoError, Result};

/// The page store recovery drives.
pub trait RedoTarget {
    /// LSN currently stamped on the page (NIL if the page does not exist —
    /// redo will then recreate it).
    fn page_lsn(&mut self, page: u32) -> Result<Lsn>;

    /// Write `bytes` at `offset` within `page` and stamp it with `lsn`,
    /// materializing the page (zero-filled) if it does not exist.
    fn apply(&mut self, page: u32, offset: u16, bytes: &[u8], lsn: Lsn) -> Result<()>;
}

/// What restart did, for E2's recovery-cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records examined during analysis (every retained record).
    pub analyzed: u64,
    /// Updates re-applied during redo.
    pub redone: u64,
    /// Updates skipped because the page already carried them.
    pub redo_skipped: u64,
    /// Updates rolled back during undo.
    pub undone: u64,
    /// Loser transactions rolled back.
    pub loser_txs: u64,
    /// LSN where the scan began: the first retained byte of the log.
    pub start_lsn: Lsn,
}

/// Run full restart recovery over `log`, applying pages through `target`.
///
/// On return the store reflects exactly the committed transactions, the log
/// contains CLR/abort records for every loser, and a fresh flush has been
/// forced.
pub fn recover<S: LogStore>(
    log: &LogManager<S>,
    target: &mut dyn RedoTarget,
) -> Result<RecoveryStats> {
    let mut stats = RecoveryStats {
        start_lsn: Lsn(log.store().start()?),
        ..RecoveryStats::default()
    };
    let records = log.scan(stats.start_lsn)?;
    stats.analyzed = records.len() as u64;

    // ---- analysis + redo: one forward pass ------------------------------
    // ATT: tx -> last LSN logged.
    let mut att: HashMap<TxId, Lsn> = HashMap::new();
    for (lsn, rec) in &records {
        let (tx, page, offset, image) = match rec {
            LogRecord::Begin { tx } => {
                att.insert(*tx, *lsn);
                continue;
            }
            LogRecord::Commit { tx } | LogRecord::Abort { tx } => {
                att.remove(tx);
                continue;
            }
            LogRecord::Update {
                tx,
                page,
                offset,
                after,
                ..
            }
            | LogRecord::Clr {
                tx,
                page,
                offset,
                after,
                ..
            } => (tx, *page, *offset, after),
        };
        att.insert(*tx, *lsn);
        if target.page_lsn(page)? >= *lsn {
            stats.redo_skipped += 1;
            continue;
        }
        target.apply(page, offset, image, *lsn)?;
        stats.redone += 1;
    }

    // ---- undo -----------------------------------------------------------
    // Roll back losers in descending-LSN order across all of them.
    let mut cursors: Vec<(TxId, Lsn)> = att.into_iter().collect();
    stats.loser_txs = cursors.len() as u64;
    while let Some(idx) = cursors
        .iter()
        .enumerate()
        .max_by_key(|(_, (_, lsn))| *lsn)
        .map(|(i, _)| i)
    {
        let (tx, lsn) = cursors[idx];
        if lsn.is_nil() {
            log.append(&LogRecord::Abort { tx })?;
            cursors.swap_remove(idx);
            continue;
        }
        // `records` is in LSN order.
        let Ok(i) = records.binary_search_by_key(&lsn, |(l, _)| *l) else {
            return Err(DominoError::Wal(format!(
                "undo chain of {tx} points at missing record {lsn}"
            )));
        };
        match &records[i].1 {
            LogRecord::Update {
                prev,
                page,
                offset,
                before,
                ..
            } => {
                let clr_lsn = log.append(&LogRecord::Clr {
                    tx,
                    page: *page,
                    offset: *offset,
                    after: before.clone(),
                    undo_next: *prev,
                })?;
                target.apply(*page, *offset, before, clr_lsn)?;
                stats.undone += 1;
                cursors[idx].1 = *prev;
            }
            LogRecord::Clr { undo_next, .. } => {
                cursors[idx].1 = *undo_next;
            }
            LogRecord::Begin { .. } => {
                log.append(&LogRecord::Abort { tx })?;
                cursors.swap_remove(idx);
            }
            other => {
                return Err(DominoError::Wal(format!(
                    "unexpected record in undo chain of {tx}: {other:?}"
                )));
            }
        }
    }

    log.flush_all()?;

    // Mirror the restart cost into the process-wide registry so a
    // `show statistics` after a crash shows what recovery replayed.
    domino_obs::counter("Recovery.Runs").inc();
    domino_obs::counter("Recovery.RecordsAnalyzed").add(stats.analyzed);
    domino_obs::counter("Recovery.UpdatesRedone").add(stats.redone);
    domino_obs::counter("Recovery.UpdatesUndone").add(stats.undone);
    domino_obs::counter("Recovery.LoserTxns").add(stats.loser_txs);
    // A restart recovery is a server event: losers rolled back make it a
    // Warning (the crash interrupted in-flight work), a clean redo-only
    // pass is informational.
    domino_obs::emit(
        domino_obs::Event::new(
            domino_obs::EventKind::Server,
            if stats.loser_txs > 0 {
                domino_obs::Severity::Warning
            } else {
                domino_obs::Severity::Info
            },
            "Recovery.Completed",
        )
        .with("analyzed", stats.analyzed)
        .with("redone", stats.redone)
        .with("undone", stats.undone)
        .with("losers", stats.loser_txs),
    );
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemLogStore;

    /// A toy page store: 64-byte pages in a map.
    #[derive(Default)]
    struct MemPages {
        pages: HashMap<u32, (Lsn, Vec<u8>)>,
    }

    impl MemPages {
        fn byte(&self, page: u32, off: usize) -> u8 {
            self.pages.get(&page).map(|(_, d)| d[off]).unwrap_or(0)
        }
    }

    impl RedoTarget for MemPages {
        fn page_lsn(&mut self, page: u32) -> Result<Lsn> {
            Ok(self.pages.get(&page).map(|(l, _)| *l).unwrap_or(Lsn::NIL))
        }

        fn apply(&mut self, page: u32, offset: u16, bytes: &[u8], lsn: Lsn) -> Result<()> {
            let entry = self
                .pages
                .entry(page)
                .or_insert_with(|| (Lsn::NIL, vec![0; 64]));
            entry.0 = lsn;
            entry.1[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
            Ok(())
        }
    }

    struct Harness {
        log: LogManager<MemLogStore>,
        pages: MemPages,
    }

    impl Harness {
        fn new() -> Harness {
            Harness {
                log: LogManager::open(MemLogStore::new()).unwrap(),
                pages: MemPages::default(),
            }
        }

        /// Log an update and (optionally) apply it to the "buffer pool".
        #[allow(clippy::too_many_arguments)]
        fn update(
            &mut self,
            tx: TxId,
            prev: Lsn,
            page: u32,
            offset: u16,
            before: u8,
            after: u8,
            apply: bool,
        ) -> Lsn {
            let lsn = self
                .log
                .append(&LogRecord::Update {
                    tx,
                    prev,
                    page,
                    offset,
                    before: vec![before],
                    after: vec![after],
                })
                .unwrap();
            if apply {
                self.pages.apply(page, offset, &[after], lsn).unwrap();
            }
            lsn
        }
    }

    #[test]
    fn committed_updates_redo_after_total_page_loss() {
        let mut h = Harness::new();
        h.log.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        let l1 = h.update(TxId(1), Lsn::NIL, 1, 0, 0, 7, false);
        h.update(TxId(1), l1, 2, 5, 0, 9, false);
        h.log.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        h.log.flush_all().unwrap();

        // Crash before any page reached disk.
        let stats = recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(stats.redone, 2);
        assert_eq!(stats.loser_txs, 0);
        assert_eq!(h.pages.byte(1, 0), 7);
        assert_eq!(h.pages.byte(2, 5), 9);
    }

    #[test]
    fn uncommitted_updates_are_undone_even_if_flushed() {
        let mut h = Harness::new();
        h.log.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        let l1 = h.update(TxId(1), Lsn::NIL, 1, 0, 0, 7, true); // page reached disk
        h.update(TxId(1), l1, 1, 1, 0, 8, true);
        // No commit. Crash.
        h.log.flush_all().unwrap();

        let stats = recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(stats.loser_txs, 1);
        assert_eq!(stats.undone, 2);
        assert_eq!(h.pages.byte(1, 0), 0);
        assert_eq!(h.pages.byte(1, 1), 0);
        // Loser got CLRs + an Abort in the log.
        let recs = h.log.scan(Lsn::NIL).unwrap();
        let clrs = recs
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Clr { .. }))
            .count();
        let aborts = recs
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Abort { .. }))
            .count();
        assert_eq!(clrs, 2);
        assert_eq!(aborts, 1);
    }

    #[test]
    fn mixed_winners_and_losers() {
        let mut h = Harness::new();
        h.log.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        h.log.append(&LogRecord::Begin { tx: TxId(2) }).unwrap();
        // Both updates hit the same page, which then reaches disk (a page
        // carrying LSN l necessarily contains every update with LSN <= l).
        let w = h.update(TxId(1), Lsn::NIL, 1, 0, 0, 10, true);
        let l = h.update(TxId(2), Lsn::NIL, 1, 1, 0, 20, true);
        let _ = (w, l);
        h.log.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        h.log.flush_all().unwrap();

        recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(h.pages.byte(1, 0), 10, "winner stays");
        assert_eq!(h.pages.byte(1, 1), 0, "loser undone");
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut h = Harness::new();
        h.log.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        h.update(TxId(1), Lsn::NIL, 3, 0, 0, 5, false);
        h.log.flush_all().unwrap();

        recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(h.pages.byte(3, 0), 0);
        // Crash again during/after recovery; run it again.
        let stats2 = recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(h.pages.byte(3, 0), 0);
        // The CLR from round 1 is in the log; round 2 must not re-undo
        // (the Abort record ended the transaction).
        assert_eq!(stats2.loser_txs, 0);
    }

    #[test]
    fn truncation_bounds_analysis() {
        let mut h = Harness::new();
        // Old, fully-applied committed work, then a checkpoint: page 1
        // reached disk, so the log is cut at its end.
        h.log.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        h.update(TxId(1), Lsn::NIL, 1, 0, 0, 3, true);
        h.log.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        h.log.flush_all().unwrap();
        let base = h.log.next_lsn();
        h.log.truncate_prefix(base).unwrap();

        // New committed work after the checkpoint, not flushed.
        h.log.append(&LogRecord::Begin { tx: TxId(2) }).unwrap();
        h.update(TxId(2), Lsn::NIL, 2, 0, 0, 4, false);
        h.log.append(&LogRecord::Commit { tx: TxId(2) }).unwrap();
        h.log.flush_all().unwrap();

        let retained = h.log.scan(Lsn::NIL).unwrap().len() as u64;
        let stats = recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(stats.start_lsn, base);
        assert_eq!(stats.analyzed, retained);
        assert_eq!(stats.analyzed, 3);
        assert_eq!(h.pages.byte(2, 0), 4);
        assert_eq!(h.pages.byte(1, 0), 3, "pre-checkpoint state intact");
    }

    #[test]
    fn loser_starting_at_the_retained_base_is_undone() {
        let mut h = Harness::new();
        h.log.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        h.log.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        h.log.flush_all().unwrap();
        let base = h.log.next_lsn();
        h.log.truncate_prefix(base).unwrap();
        // The loser's first record is the first retained byte; its page
        // reached disk before the crash (steal).
        let begin = h.log.append(&LogRecord::Begin { tx: TxId(9) }).unwrap();
        assert_eq!(begin, base);
        h.update(TxId(9), Lsn::NIL, 1, 0, 0, 6, true);
        h.log.flush_all().unwrap();

        let stats = recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(stats.start_lsn, base);
        assert_eq!(stats.loser_txs, 1);
        assert_eq!(stats.undone, 1);
        assert_eq!(h.pages.byte(1, 0), 0);
    }

    #[test]
    fn redo_skips_pages_already_current() {
        let mut h = Harness::new();
        h.log.append(&LogRecord::Begin { tx: TxId(1) }).unwrap();
        h.update(TxId(1), Lsn::NIL, 1, 0, 0, 7, true); // applied AND flushed
        h.log.append(&LogRecord::Commit { tx: TxId(1) }).unwrap();
        h.log.flush_all().unwrap();

        let stats = recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(stats.redone, 0);
        assert_eq!(stats.redo_skipped, 1);
        assert_eq!(h.pages.byte(1, 0), 7);
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let mut h = Harness::new();
        let stats = recover(&h.log, &mut h.pages).unwrap();
        assert_eq!(stats, RecoveryStats::default());
    }
}
