//! CDB transaction classes and workload mixes.
//!
//! The paper describes CDB as covering "a wide range of operations from
//! simple point lookups to complex bulk updates" with named mixes per
//! experiment. The classes here and their modelled CPU costs are the knobs
//! that calibrate the CPU%% columns of Tables 2/5/7; the mixes match the
//! experiments:
//!
//! * **Default** — all classes, used by Table 2 (throughput) and Table 3
//!   (cache hit rate);
//! * **MaxLog** — update-heavy, "produces the maximum amount of log"
//!   (Table 5);
//! * **UpdateLite** — "mostly small updates and no read transactions"
//!   (Appendix A: Tables 6/7, Figure 4);
//! * **ReadOnly** — read scale-out experiments.

use crate::driver::{TxnKind, Workload};
use crate::schema::{T_ACCOUNTS, T_CONFIG, T_HISTORY, T_ITEMS, T_ORDERS, T_SMALL};
use socrates_common::metrics::CpuAccountant;
use socrates_common::rng::Rng;
use socrates_common::{Error, Result};
use socrates_engine::value::Value;
use socrates_engine::Database;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide carve-out so multiple workload instances over one database
/// never collide on history ids.
static HISTORY_RANGE: AtomicU64 = AtomicU64::new(0);

/// The named CDB mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CdbMix {
    /// All transaction classes (Tables 2/3).
    Default,
    /// Maximum log production (Table 5).
    MaxLog,
    /// Small updates only (Appendix A).
    UpdateLite,
    /// Reads only.
    ReadOnly,
}

#[derive(Clone, Copy, Debug)]
enum TxnClass {
    PointLookup,
    RangeRead,
    ReadHot,
    UpdateLite,
    UpdateHeavy,
    InsertHistory,
}

impl CdbMix {
    fn classes(&self) -> (&'static [TxnClass], &'static [f64]) {
        use TxnClass::*;
        match self {
            CdbMix::Default => (
                &[PointLookup, RangeRead, ReadHot, UpdateLite, UpdateHeavy, InsertHistory],
                &[57.0, 28.0, 2.0, 8.0, 1.0, 4.0],
            ),
            CdbMix::MaxLog => (&[UpdateHeavy, UpdateLite, InsertHistory], &[80.0, 10.0, 10.0]),
            CdbMix::UpdateLite => (&[UpdateLite], &[1.0]),
            CdbMix::ReadOnly => (&[PointLookup, RangeRead, ReadHot], &[50.0, 20.0, 30.0]),
        }
    }
}

/// The CDB workload: key distribution plus transaction execution.
pub struct CdbWorkload {
    mix: CdbMix,
    scale_factor: u64,
    /// Fraction of key draws routed to the hot subset.
    hot_access_p: f64,
    /// Size of the hot subset as a fraction of the key domain.
    hot_set_frac: f64,
    history_seq: AtomicU64,
    /// Payload bytes written by updates.
    update_padding: usize,
}

impl CdbWorkload {
    /// Build a workload over a database loaded at `scale_factor`.
    ///
    /// The default locality (10% of accesses to a 2% hot set; the rest
    /// "randomly touch pages scattered across the entire database", as the
    /// paper describes CDB) reproduces Table 3's shape: a cache holding
    /// ~20% of the database serves ~half of all page reads.
    pub fn new(mix: CdbMix, scale_factor: u64) -> CdbWorkload {
        CdbWorkload {
            mix,
            scale_factor,
            hot_access_p: 0.1,
            hot_set_frac: 0.02,
            history_seq: AtomicU64::new(
                // ordering: relaxed — range-id uniqueness needs only RMW atomicity
                (1 << 40) + (HISTORY_RANGE.fetch_add(1, Ordering::Relaxed) << 32),
            ),
            update_padding: 100,
        }
    }

    /// Override the access locality.
    pub fn with_locality(mut self, hot_access_p: f64, hot_set_frac: f64) -> CdbWorkload {
        self.hot_access_p = hot_access_p;
        self.hot_set_frac = hot_set_frac;
        self
    }

    /// Override the bytes written per updated row (drives log volume).
    pub fn with_update_padding(mut self, bytes: usize) -> CdbWorkload {
        self.update_padding = bytes;
        self
    }

    fn pick_key(&self, rng: &mut Rng, domain: u64) -> i64 {
        let hot = (domain as f64 * self.hot_set_frac).max(1.0) as u64;
        if rng.gen_bool(self.hot_access_p) {
            rng.gen_range(hot) as i64
        } else {
            rng.gen_range(domain) as i64
        }
    }

    fn payload(&self, rng: &mut Rng, n: usize) -> Value {
        let mut b = vec![0u8; n];
        rng.fill_bytes(&mut b);
        Value::Bytes(b)
    }
}

impl Workload for CdbWorkload {
    fn execute_one(&self, db: &Database, rng: &mut Rng, cpu: &CpuAccountant) -> Result<TxnKind> {
        let (classes, weights) = self.mix.classes();
        let class = classes[rng.pick_weighted(weights)];
        let sf = self.scale_factor;
        match class {
            TxnClass::PointLookup => {
                cpu.charge_us(40);
                let h = db.begin();
                let key = self.pick_key(rng, sf);
                let _ = db.get(&h, T_ACCOUNTS, &[Value::Int(key)])?;
                db.commit(h)?;
                Ok(TxnKind::Read)
            }
            TxnClass::RangeRead => {
                cpu.charge_us(260);
                let h = db.begin();
                // A scan spanning a handful of leaf pages. The paper's
                // scans read up to 128 pages in one range request; here a
                // scan's missing leaves go out as one GetPages call of at
                // most 64 pages (a prefetch batch on the primary, a batch
                // on the reader's thread on a secondary).
                let span = 100.min(sf as i64);
                let lo = self.pick_key(rng, sf.saturating_sub(span as u64).max(1));
                let _ = db.scan_range(
                    &h,
                    T_ITEMS,
                    &[Value::Int(lo)],
                    &[Value::Int(lo + span)],
                    span as usize,
                )?;
                db.commit(h)?;
                Ok(TxnKind::Read)
            }
            TxnClass::ReadHot => {
                cpu.charge_us(25);
                let h = db.begin();
                let _ = db.get(&h, T_CONFIG, &[Value::Int(rng.gen_range(64) as i64)])?;
                let _ = db.get(&h, T_SMALL, &[Value::Int(rng.gen_range(32) as i64)])?;
                db.commit(h)?;
                Ok(TxnKind::Read)
            }
            TxnClass::UpdateLite => {
                cpu.charge_us(25);
                let h = db.begin();
                let key = self.pick_key(rng, sf);
                let row = vec![
                    Value::Int(key),
                    Value::Int(rng.gen_range(100_000) as i64),
                    self.payload(rng, self.update_padding.min(120)),
                ];
                match db.update(&h, T_ACCOUNTS, &row) {
                    Ok(_) => db.commit(h)?,
                    Err(Error::WriteConflict(_)) => {
                        db.abort(h);
                        return Err(Error::WriteConflict("update-lite".into()));
                    }
                    Err(e) => {
                        db.abort(h);
                        return Err(e);
                    }
                }
                Ok(TxnKind::Write)
            }
            TxnClass::UpdateHeavy => {
                cpu.charge_us(550);
                let h = db.begin();
                // Bulk update: rows scattered across the table (CDB's bulk
                // updates touch many pages, not one hot leaf).
                for _ in 0..16 {
                    let key = self.pick_key(rng, sf);
                    let row = vec![Value::Int(key), self.payload(rng, self.update_padding)];
                    match db.upsert(&h, T_ORDERS, &row) {
                        Ok(()) => {}
                        Err(Error::WriteConflict(_)) => {
                            db.abort(h);
                            return Err(Error::WriteConflict("update-heavy".into()));
                        }
                        Err(e) => {
                            db.abort(h);
                            return Err(e);
                        }
                    }
                }
                db.commit(h)?;
                Ok(TxnKind::Write)
            }
            TxnClass::InsertHistory => {
                cpu.charge_us(55);
                let h = db.begin();
                // ordering: relaxed — id uniqueness needs only RMW atomicity
                let id = self.history_seq.fetch_add(1, Ordering::Relaxed);
                db.insert(&h, T_HISTORY, &[Value::Int(id as i64), self.payload(rng, 80)])?;
                db.commit(h)?;
                Ok(TxnKind::Write)
            }
        }
    }
}
