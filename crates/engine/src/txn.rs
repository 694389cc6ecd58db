//! The snapshot-isolation transaction manager.
//!
//! Transactions read at the commit clock value observed at begin and write
//! versions tagged with their transaction id; visibility is decided by the
//! creator's status in the transaction table. The table is the *only*
//! volatile state ADR needs to reconstruct after a crash (paper §3.2):
//! analysis rebuilds it from the last checkpoint's metadata plus the log
//! tail, and recovery never runs an undo pass — versions of unfinished
//! transactions simply stay invisible, recorded in the persistent
//! aborted-transaction map.
//!
//! Commit is two-phase locally: a committing transaction enters
//! `Preparing(cts)` before its commit record hardens, and readers that
//! encounter a preparing version *wait for the outcome* (a commit
//! dependency, as in Hekaton) so a snapshot's visibility never flickers.

use parking_lot::{Condvar, Mutex, RwLock};
use socrates_common::{Error, Result, TxnId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Transaction states in the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running; its versions are visible only to itself.
    InProgress,
    /// Commit record issued but not yet durable; readers wait.
    Preparing(u64),
    /// Durably committed at the given timestamp.
    Committed(u64),
    /// Aborted; its versions are invisible forever.
    Aborted,
}

/// A resolved (wait-free for callers) status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolved {
    /// Committed at this timestamp (0 = "long ago").
    Committed(u64),
    /// Aborted.
    Aborted,
    /// Still running.
    InProgress,
}

/// Durable checkpoint metadata: what analysis needs to rebuild the table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TxnCheckpointMeta {
    /// Transactions in progress at checkpoint time.
    pub active: Vec<u64>,
    /// The aborted-transaction map (every aborted txn whose versions may
    /// still exist).
    pub aborted: Vec<u64>,
    /// Transaction id allocator high-water mark.
    pub next_txn_id: u64,
    /// Commit clock high-water mark.
    pub commit_clock: u64,
    /// Page id allocator high-water mark.
    pub next_page_id: u64,
}

impl TxnCheckpointMeta {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.next_txn_id.to_le_bytes());
        out.extend_from_slice(&self.commit_clock.to_le_bytes());
        out.extend_from_slice(&self.next_page_id.to_le_bytes());
        out.extend_from_slice(&(self.active.len() as u32).to_le_bytes());
        for t in &self.active {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&(self.aborted.len() as u32).to_le_bytes());
        for t in &self.aborted {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    /// Deserialize.
    pub fn decode(data: &[u8]) -> Result<TxnCheckpointMeta> {
        let err = || Error::Corruption("truncated checkpoint meta".into());
        if data.len() < 32 {
            return Err(err());
        }
        let next_txn_id = u64::from_le_bytes(data[0..8].try_into().unwrap());
        let commit_clock = u64::from_le_bytes(data[8..16].try_into().unwrap());
        let next_page_id = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let mut off = 24;
        let read_list = |off: &mut usize| -> Result<Vec<u64>> {
            let lb = data.get(*off..*off + 4).ok_or_else(err)?;
            let n = u32::from_le_bytes(lb.try_into().unwrap()) as usize;
            *off += 4;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let b = data.get(*off..*off + 8).ok_or_else(err)?;
                v.push(u64::from_le_bytes(b.try_into().unwrap()));
                *off += 8;
            }
            Ok(v)
        };
        let active = read_list(&mut off)?;
        let aborted = read_list(&mut off)?;
        Ok(TxnCheckpointMeta { active, aborted, next_txn_id, commit_clock, next_page_id })
    }
}

/// The transaction manager: id allocation, the commit clock, the status
/// table, and commit-dependency waits.
pub struct TxnManager {
    next_txn: AtomicU64,
    clock: AtomicU64,
    table: RwLock<HashMap<TxnId, TxnStatus>>,
    /// The persistent aborted-transaction map (mirrored into checkpoints).
    aborted_map: RwLock<HashSet<TxnId>>,
    prepare_mutex: Mutex<()>,
    prepare_cv: Condvar,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Fresh manager (ids start at 1; 0 is the system pseudo-transaction).
    pub fn new() -> TxnManager {
        TxnManager {
            next_txn: AtomicU64::new(1),
            clock: AtomicU64::new(1),
            table: RwLock::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::ENGINE_TXN_TABLE,
                "txn.table",
            ),
            aborted_map: RwLock::with_rank(
                HashSet::new(),
                socrates_common::lock_rank::ENGINE_TXN_ABORTED,
                "txn.aborted_map",
            ),
            prepare_mutex: Mutex::with_rank(
                (),
                socrates_common::lock_rank::ENGINE_TXN_PREPARE,
                "txn.prepare_mutex",
            ),
            prepare_cv: Condvar::new(),
        }
    }

    /// A manager whose locally-allocated transaction ids start at `base`.
    /// Secondaries use a disjoint high range so their (read-only) local
    /// transactions can never collide with primary ids carried in row
    /// versions; applied Begin records never raise the allocator past its
    /// base range in practice (primary ids are small).
    pub fn with_base(base: u64) -> TxnManager {
        let tm = TxnManager::new();
        tm.next_txn.store(base.max(1), Ordering::Relaxed); // ordering: relaxed — construction; no other thread holds the manager yet
        tm
    }

    /// Begin a transaction: allocate an id and take a snapshot timestamp.
    pub fn begin(&self) -> (TxnId, u64) {
        // ordering: relaxed — id uniqueness needs only RMW atomicity, not ordering
        let id = TxnId::new(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.table.write().insert(id, TxnStatus::InProgress);
        // ordering: seqcst — the snapshot timestamp must sit in the commit clock's
        // single total order, or a begin() could serve a pre-causal snapshot and
        // break external consistency (read-your-writes across threads)
        let read_ts = self.clock.load(Ordering::SeqCst);
        (id, read_ts)
    }

    /// The current commit clock value.
    pub fn clock_now(&self) -> u64 {
        // ordering: seqcst — same total-order argument as begin(): callers use
        // this as a causally-consistent watermark, not a statistic
        self.clock.load(Ordering::SeqCst)
    }

    /// Resolve `txn`'s fate, waiting out a `Preparing` window. A
    /// transaction absent from the table (and from the aborted map) ended
    /// before the horizon the table covers — i.e. committed long ago.
    pub fn resolve(&self, txn: TxnId) -> Resolved {
        loop {
            let status = {
                let t = self.table.read();
                t.get(&txn).copied()
            };
            match status {
                Some(TxnStatus::InProgress) => return Resolved::InProgress,
                Some(TxnStatus::Committed(ts)) => return Resolved::Committed(ts),
                Some(TxnStatus::Aborted) => return Resolved::Aborted,
                Some(TxnStatus::Preparing(_)) => {
                    // Commit dependency: wait for the harden to finish.
                    let mut guard = self.prepare_mutex.lock();
                    let still_preparing =
                        matches!(self.table.read().get(&txn), Some(TxnStatus::Preparing(_)));
                    if still_preparing {
                        self.prepare_cv.wait_for(&mut guard, Duration::from_millis(50));
                    }
                }
                None => {
                    if self.aborted_map.read().contains(&txn) {
                        return Resolved::Aborted;
                    }
                    return Resolved::Committed(0);
                }
            }
        }
    }

    /// Enter the prepare phase: allocate the commit timestamp and mark the
    /// transaction `Preparing`.
    pub fn start_commit(&self, txn: TxnId) -> Result<u64> {
        // ordering: seqcst — commit timestamps form the serialization order every
        // visibility check reasons about; keep the oracle sequentially consistent
        let cts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut t = self.table.write();
        match t.get(&txn) {
            Some(TxnStatus::InProgress) => {
                t.insert(txn, TxnStatus::Preparing(cts));
                Ok(cts)
            }
            other => Err(Error::InvalidState(format!("start_commit on {txn} in state {other:?}"))),
        }
    }

    /// Publish a durable commit.
    pub fn finish_commit(&self, txn: TxnId, cts: u64) {
        self.table.write().insert(txn, TxnStatus::Committed(cts));
        let _g = self.prepare_mutex.lock();
        self.prepare_cv.notify_all();
    }

    /// Abort a transaction (from `InProgress` or a failed prepare).
    pub fn abort(&self, txn: TxnId) {
        self.table.write().insert(txn, TxnStatus::Aborted);
        self.aborted_map.write().insert(txn);
        let _g = self.prepare_mutex.lock();
        self.prepare_cv.notify_all();
    }

    // ---- log-apply side (secondaries, recovery analysis) ----

    /// Apply a Begin record.
    pub fn apply_begin(&self, txn: TxnId) {
        self.table.write().entry(txn).or_insert(TxnStatus::InProgress);
        // ordering: relaxed — monotone allocator watermark; merged under the table lock
        self.next_txn.fetch_max(txn.raw() + 1, Ordering::Relaxed);
    }

    /// Apply a Commit record (advances the clock watermark).
    pub fn apply_commit(&self, txn: TxnId, cts: u64) {
        self.table.write().insert(txn, TxnStatus::Committed(cts));
        // ordering: seqcst — replayed commit timestamps join the same total order the
        // live oracle maintains; a weaker merge could let clock_now run backwards
        // relative to an observed commit
        self.clock.fetch_max(cts, Ordering::SeqCst);
        let _g = self.prepare_mutex.lock();
        self.prepare_cv.notify_all();
    }

    /// Apply an Abort record.
    pub fn apply_abort(&self, txn: TxnId) {
        self.abort(txn);
    }

    // ---- checkpoint / recovery ----

    /// Wait until every transaction `Preparing` now has resolved. A
    /// checkpoint calls this after its caller sampled the recovery cursor:
    /// a commit whose record hardened below the cursor may not have run
    /// [`finish_commit`](Self::finish_commit) yet, and listed active it
    /// would be aborted by an analysis that starts at the cursor and never
    /// sees its record. A commit that prepares later appends its record
    /// above the cursor.
    pub fn await_prepared(&self) {
        let preparing: Vec<TxnId> = {
            let t = self.table.read();
            t.iter()
                .filter(|(_, s)| matches!(s, TxnStatus::Preparing(_)))
                .map(|(id, _)| *id)
                .collect()
        };
        for txn in preparing {
            self.resolve(txn);
        }
    }

    /// Capture the durable metadata for a checkpoint record.
    /// `next_page_id` comes from the caller's allocator.
    pub fn checkpoint_meta(&self, next_page_id: u64) -> TxnCheckpointMeta {
        let t = self.table.read();
        let active: Vec<u64> = t
            .iter()
            .filter(|(_, s)| matches!(s, TxnStatus::InProgress | TxnStatus::Preparing(_)))
            .map(|(id, _)| id.raw())
            .collect();
        let aborted: Vec<u64> = self.aborted_map.read().iter().map(|t| t.raw()).collect();
        TxnCheckpointMeta {
            active,
            aborted,
            next_txn_id: self.next_txn.load(Ordering::Relaxed), // ordering: relaxed — checkpoint sample; exactness not required
            commit_clock: self.clock.load(Ordering::SeqCst), // ordering: seqcst — checkpointed clock must not precede any committed cts
            next_page_id,
        }
    }

    /// Fold checkpoint metadata into the table (analysis meets a
    /// checkpoint record). Checkpoint-active transactions are
    /// provisionally in progress unless the log already decided them: a
    /// commit can harden before the checkpoint record while the meta
    /// still saw it `Preparing`. The log after the checkpoint then decides
    /// the rest, and [`TxnManager::finish_analysis`] aborts the survivors.
    /// Watermarks only rise.
    pub fn absorb_meta(&self, meta: &TxnCheckpointMeta) {
        self.next_txn.fetch_max(meta.next_txn_id, Ordering::Relaxed); // ordering: relaxed — recovery is single-threaded
        self.clock.fetch_max(meta.commit_clock, Ordering::Relaxed); // ordering: relaxed — recovery is single-threaded
        let mut t = self.table.write();
        for id in &meta.active {
            t.entry(TxnId::new(*id)).or_insert(TxnStatus::InProgress);
        }
        let mut a = self.aborted_map.write();
        for id in &meta.aborted {
            a.insert(TxnId::new(*id));
            t.insert(TxnId::new(*id), TxnStatus::Aborted);
        }
    }

    /// End of analysis: every transaction still `InProgress` died with the
    /// crash — record it in the aborted map (ADR's logical revert; no undo
    /// pass touches any page).
    pub fn finish_analysis(&self) -> Vec<TxnId> {
        let mut t = self.table.write();
        let mut a = self.aborted_map.write();
        let mut died = Vec::new();
        for (id, s) in t.iter_mut() {
            if matches!(s, TxnStatus::InProgress | TxnStatus::Preparing(_)) {
                *s = TxnStatus::Aborted;
                a.insert(*id);
                died.push(*id);
            }
        }
        died.sort_unstable();
        died
    }

    /// Number of known transactions (diagnostics).
    pub fn table_len(&self) -> usize {
        self.table.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn begin_commit_visibility_clock() {
        let tm = TxnManager::new();
        let (t1, rts1) = tm.begin();
        assert_eq!(tm.resolve(t1), Resolved::InProgress);
        let cts = tm.start_commit(t1).unwrap();
        assert!(cts > rts1);
        tm.finish_commit(t1, cts);
        assert_eq!(tm.resolve(t1), Resolved::Committed(cts));
        let (_t2, rts2) = tm.begin();
        assert!(rts2 >= cts, "later snapshots see the commit");
    }

    #[test]
    fn abort_and_double_commit_rejected() {
        let tm = TxnManager::new();
        let (t1, _) = tm.begin();
        tm.abort(t1);
        assert_eq!(tm.resolve(t1), Resolved::Aborted);
        assert!(tm.start_commit(t1).is_err());
    }

    #[test]
    fn unknown_txn_is_anciently_committed_unless_aborted() {
        let tm = TxnManager::new();
        assert_eq!(tm.resolve(TxnId::new(999)), Resolved::Committed(0));
        // After restoring a meta with 999 aborted, it resolves aborted.
        let meta = TxnCheckpointMeta {
            active: vec![],
            aborted: vec![999],
            next_txn_id: 1000,
            commit_clock: 50,
            next_page_id: 10,
        };
        tm.absorb_meta(&meta);
        assert_eq!(tm.resolve(TxnId::new(999)), Resolved::Aborted);
        assert_eq!(tm.clock_now(), 50);
    }

    #[test]
    fn preparing_readers_wait_for_outcome() {
        let tm = Arc::new(TxnManager::new());
        let (t1, _) = tm.begin();
        let cts = tm.start_commit(t1).unwrap();
        let tm2 = Arc::clone(&tm);
        let reader = std::thread::spawn(move || tm2.resolve(t1));
        std::thread::sleep(Duration::from_millis(20));
        tm.finish_commit(t1, cts);
        assert_eq!(reader.join().unwrap(), Resolved::Committed(cts));
    }

    #[test]
    fn meta_roundtrip() {
        let meta = TxnCheckpointMeta {
            active: vec![5, 9],
            aborted: vec![2],
            next_txn_id: 10,
            commit_clock: 33,
            next_page_id: 77,
        };
        assert_eq!(TxnCheckpointMeta::decode(&meta.encode()).unwrap(), meta);
        assert!(TxnCheckpointMeta::decode(&meta.encode()[..10]).is_err());
        let empty = TxnCheckpointMeta::default();
        assert_eq!(TxnCheckpointMeta::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn analysis_aborts_crash_survivors() {
        let tm = TxnManager::new();
        let meta = TxnCheckpointMeta {
            active: vec![3, 4],
            aborted: vec![],
            next_txn_id: 5,
            commit_clock: 9,
            next_page_id: 1,
        };
        tm.absorb_meta(&meta);
        // Log tail: txn 3 committed, txn 4 never finished; txn 5 began then
        // crashed.
        tm.apply_commit(TxnId::new(3), 10);
        tm.apply_begin(TxnId::new(5));
        let died = tm.finish_analysis();
        assert_eq!(died, vec![TxnId::new(4), TxnId::new(5)]);
        assert_eq!(tm.resolve(TxnId::new(3)), Resolved::Committed(10));
        assert_eq!(tm.resolve(TxnId::new(4)), Resolved::Aborted);
        assert_eq!(tm.resolve(TxnId::new(5)), Resolved::Aborted);
        assert_eq!(tm.clock_now(), 10);
        // Allocator moved past applied ids.
        let (t_new, _) = tm.begin();
        assert!(t_new.raw() >= 6);
    }

    #[test]
    fn apply_side_updates_clock_watermark() {
        let tm = TxnManager::new();
        tm.apply_begin(TxnId::new(7));
        tm.apply_commit(TxnId::new(7), 123);
        assert_eq!(tm.clock_now(), 123);
        let (_, rts) = tm.begin();
        assert!(rts >= 123);
    }
}
