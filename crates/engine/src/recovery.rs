//! ADR — Accelerated Database Recovery (paper §3.2).
//!
//! Classic ARIES recovery is analysis → redo → undo, and the undo pass is
//! unbounded: it must roll back every update of every unfinished
//! transaction, however long it ran. ADR removes the undo pass entirely:
//! because the version store is persistent and visibility is decided by
//! commit timestamps, the versions written by unfinished transactions are
//! simply *left in place and never become visible*. Recovery is then:
//!
//! 1. **Analysis** — rebuild the transaction table from the last
//!    checkpoint's metadata plus the log tail; transactions still open at
//!    the crash enter the aborted-transaction map.
//! 2. **Redo** — reapply page ops with `lsn > PageLSN` from the redo start
//!    point. On a Socrates compute node there is nothing to redo locally
//!    (pages live on page servers, which apply log continuously), so
//!    recovery is analysis-only — this is why Socrates recovery is O(1) in
//!    database size and transaction history.
//!
//! The HADR baseline implements the ARIES-style undo pass for contrast
//! (see `socrates-hadr`), which is what Table 1's recovery row compares.

use crate::txn::{TxnCheckpointMeta, TxnManager};
use socrates_common::{Lsn, PageId, Result, TxnId};
use socrates_wal::record::{LogPayload, SequencedRecord};

/// The outcome of the analysis pass.
#[derive(Debug)]
pub struct Analysis {
    /// Where the last checkpoint seen said redo must start.
    pub redo_start: Lsn,
    /// Page allocator watermark after replaying allocations.
    pub next_page_id: u64,
    /// Transactions that died with the crash (now in the aborted map).
    pub died: Vec<TxnId>,
    /// Number of log records scanned.
    pub records_scanned: usize,
}

/// Find the last checkpoint in `records`, returning `(lsn, redo_start,
/// meta)`.
pub fn find_last_checkpoint(
    records: &[SequencedRecord],
) -> Result<Option<(Lsn, Lsn, TxnCheckpointMeta)>> {
    let mut found = None;
    for rec in records {
        if let LogPayload::Checkpoint { redo_start_lsn, meta } = &rec.record.payload {
            found = Some((rec.lsn, *redo_start_lsn, TxnCheckpointMeta::decode(meta)?));
        }
    }
    Ok(found)
}

/// The analysis pass as a fold over the log from the recovery cursor, fed
/// one record at a time in LSN order, so a recovering node never holds
/// more than the block it is decoding. Each checkpoint record's metadata
/// is folded into `tm` as it passes ([`TxnManager::absorb_meta`]); the
/// lifecycle records around it decide the fate of the transactions it
/// lists; [`into_analysis`](Self::into_analysis) aborts the survivors.
pub struct Analyzer<'a> {
    tm: &'a TxnManager,
    redo_start: Lsn,
    next_page_id: u64,
    records_scanned: usize,
}

impl<'a> Analyzer<'a> {
    /// Start analysis into `tm`, a transaction manager fresh from
    /// [`TxnManager::new`].
    pub fn new(tm: &'a TxnManager) -> Analyzer<'a> {
        Analyzer { tm, redo_start: Lsn::ZERO, next_page_id: 0, records_scanned: 0 }
    }

    /// Fold in the next record.
    pub fn feed(&mut self, rec: &SequencedRecord) -> Result<()> {
        self.records_scanned += 1;
        match &rec.record.payload {
            LogPayload::TxnBegin => self.tm.apply_begin(rec.record.txn),
            LogPayload::TxnCommit { commit_ts } => self.tm.apply_commit(rec.record.txn, *commit_ts),
            LogPayload::TxnAbort => self.tm.apply_abort(rec.record.txn),
            LogPayload::AllocPages { first, count } => {
                self.next_page_id = self.next_page_id.max(first.raw() + count);
            }
            LogPayload::Checkpoint { redo_start_lsn, meta } => {
                let meta = TxnCheckpointMeta::decode(meta)?;
                self.tm.absorb_meta(&meta);
                self.redo_start = *redo_start_lsn;
                self.next_page_id = self.next_page_id.max(meta.next_page_id);
            }
            LogPayload::PageWrite { .. } | LogPayload::Noop { .. } => {}
        }
        Ok(())
    }

    /// End of the log: every transaction still in progress died with the
    /// crash.
    pub fn into_analysis(self) -> Analysis {
        let died = self.tm.finish_analysis();
        Analysis {
            redo_start: self.redo_start,
            next_page_id: self.next_page_id,
            died,
            records_scanned: self.records_scanned,
        }
    }
}

/// A target for the redo pass (HADR replicas, page-server seeding).
pub trait RedoTarget {
    /// The page's current LSN (`Lsn::ZERO` if unknown/absent).
    fn page_lsn(&self, page_id: PageId) -> Result<Lsn>;
    /// Apply an encoded page op at `lsn` (idempotence is the caller's
    /// responsibility via the `page_lsn` check).
    fn apply(&self, page_id: PageId, op_bytes: &[u8], lsn: Lsn) -> Result<()>;
}

/// Run the redo pass over `records` against `target`, skipping ops already
/// reflected in the page (LSN-idempotent, as in ARIES redo).
/// Returns the number of ops applied.
pub fn redo(target: &dyn RedoTarget, records: &[SequencedRecord]) -> Result<usize> {
    let mut applied = 0usize;
    for rec in records {
        if let LogPayload::PageWrite { page_id, op } = &rec.record.payload {
            if target.page_lsn(*page_id)? < rec.lsn {
                target.apply(*page_id, op, rec.lsn)?;
                applied += 1;
            }
        }
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Resolved;
    use parking_lot::Mutex;
    use socrates_wal::record::LogRecord;
    use std::collections::HashMap;

    fn rec(lsn: u64, txn: u64, payload: LogPayload) -> SequencedRecord {
        SequencedRecord { lsn: Lsn::new(lsn), record: LogRecord { txn: TxnId::new(txn), payload } }
    }

    fn analyze(tm: &TxnManager, recs: &[SequencedRecord]) -> Analysis {
        let mut a = Analyzer::new(tm);
        for r in recs {
            a.feed(r).unwrap();
        }
        a.into_analysis()
    }

    #[test]
    fn analysis_rebuilds_txn_table_and_allocator() {
        let tm = TxnManager::new();
        let meta = TxnCheckpointMeta {
            active: vec![10],
            aborted: vec![4],
            next_txn_id: 12,
            commit_clock: 100,
            next_page_id: 50,
        };
        let log = vec![
            rec(
                990,
                0,
                LogPayload::Checkpoint { redo_start_lsn: Lsn::new(900), meta: meta.encode() },
            ),
            rec(1000, 10, LogPayload::TxnCommit { commit_ts: 101 }),
            rec(1030, 11, LogPayload::TxnBegin),
            rec(1060, 11, LogPayload::AllocPages { first: PageId::new(60), count: 4 }),
            rec(1090, 12, LogPayload::TxnBegin),
            rec(1120, 12, LogPayload::TxnAbort),
        ];
        let a = analyze(&tm, &log);
        assert_eq!(a.redo_start, Lsn::new(900));
        assert_eq!(a.next_page_id, 64);
        assert_eq!(a.died, vec![TxnId::new(11)]); // began, never finished
        assert_eq!(a.records_scanned, 6);
        assert_eq!(tm.resolve(TxnId::new(10)), Resolved::Committed(101));
        assert_eq!(tm.resolve(TxnId::new(11)), Resolved::Aborted);
        assert_eq!(tm.resolve(TxnId::new(12)), Resolved::Aborted);
        assert_eq!(tm.resolve(TxnId::new(4)), Resolved::Aborted); // from the ATM
        assert_eq!(tm.resolve(TxnId::new(3)), Resolved::Committed(0)); // ancient
    }

    #[test]
    fn a_commit_logged_before_the_checkpoint_record_survives_it() {
        // Txn 7's commit record hardened while the checkpoint captured its
        // meta: the meta still lists it active. The log's verdict stands.
        let tm = TxnManager::new();
        let meta = TxnCheckpointMeta { active: vec![7, 8], next_txn_id: 9, ..Default::default() };
        let log = vec![
            rec(100, 7, LogPayload::TxnCommit { commit_ts: 40 }),
            rec(130, 0, LogPayload::Checkpoint { redo_start_lsn: Lsn::ZERO, meta: meta.encode() }),
        ];
        let a = analyze(&tm, &log);
        assert_eq!(a.died, vec![TxnId::new(8)]);
        assert_eq!(tm.resolve(TxnId::new(7)), Resolved::Committed(40));
    }

    #[test]
    fn find_last_checkpoint_picks_latest() {
        let m1 = TxnCheckpointMeta { next_txn_id: 1, ..Default::default() };
        let m2 = TxnCheckpointMeta { next_txn_id: 2, ..Default::default() };
        let recs = vec![
            rec(10, 0, LogPayload::Checkpoint { redo_start_lsn: Lsn::new(5), meta: m1.encode() }),
            rec(50, 1, LogPayload::TxnBegin),
            rec(90, 0, LogPayload::Checkpoint { redo_start_lsn: Lsn::new(40), meta: m2.encode() }),
        ];
        let (lsn, redo, meta) = find_last_checkpoint(&recs).unwrap().unwrap();
        assert_eq!(lsn, Lsn::new(90));
        assert_eq!(redo, Lsn::new(40));
        assert_eq!(meta.next_txn_id, 2);
        assert!(find_last_checkpoint(&[]).unwrap().is_none());
    }

    struct MapTarget {
        lsns: Mutex<HashMap<PageId, Lsn>>,
        applied: Mutex<Vec<(PageId, Lsn)>>,
    }

    impl RedoTarget for MapTarget {
        fn page_lsn(&self, page_id: PageId) -> Result<Lsn> {
            Ok(self.lsns.lock().get(&page_id).copied().unwrap_or(Lsn::ZERO))
        }
        fn apply(&self, page_id: PageId, _op: &[u8], lsn: Lsn) -> Result<()> {
            self.lsns.lock().insert(page_id, lsn);
            self.applied.lock().push((page_id, lsn));
            Ok(())
        }
    }

    #[test]
    fn redo_is_lsn_idempotent() {
        let target = MapTarget { lsns: Mutex::new(HashMap::new()), applied: Mutex::new(vec![]) };
        // Page 1 already reflects LSN 100 (e.g. from a checkpointed image).
        target.lsns.lock().insert(PageId::new(1), Lsn::new(100));
        let recs = vec![
            rec(50, 1, LogPayload::PageWrite { page_id: PageId::new(1), op: vec![1] }),
            rec(150, 1, LogPayload::PageWrite { page_id: PageId::new(1), op: vec![2] }),
            rec(200, 1, LogPayload::PageWrite { page_id: PageId::new(2), op: vec![3] }),
            rec(210, 1, LogPayload::TxnCommit { commit_ts: 9 }),
        ];
        let applied = redo(&target, &recs).unwrap();
        assert_eq!(applied, 2); // lsn 50 skipped
        let log = target.applied.lock();
        assert_eq!(
            log.as_slice(),
            &[(PageId::new(1), Lsn::new(150)), (PageId::new(2), Lsn::new(200)),]
        );
        // Re-running redo applies nothing (idempotent).
        drop(log);
        assert_eq!(redo(&target, &recs).unwrap(), 0);
    }
}
