//! socrates — the assembled Socrates architecture (paper §4–6).
//!
//! This crate wires the substrates into the four-tier system of the paper:
//!
//! ```text
//!   clients ──▶ Primary ─────────────┐      Secondaries (read-only)
//!                 │  log blocks      │            ▲  GetPage@LSN
//!                 ▼                  │            │
//!   Landing Zone (XIO/DD, quorum)    └──▶ XLOG ──▶ Page Servers (RBPEX)
//!       durability                      (serve/destage)   │ checkpoints
//!                                            │            ▼
//!                                            └──────▶  XStore (snapshots)
//! ```
//!
//! Durability lives in the log tiers (landing zone + XStore LT archive) and
//! XStore checkpoints; availability lives in compute nodes and page-server
//! caches — killing any of the latter loses no data, which is the paper's
//! headline separation.
//!
//! Entry point: [`Socrates::launch`] with a [`SocratesConfig`], then run
//! transactions against [`Primary::db`] and read-only snapshots against any
//! secondary.

pub mod config;
pub mod deployment;
pub mod fabric;
pub mod obs;
pub mod primary;
pub mod secondary;

pub use config::SocratesConfig;
pub use deployment::{BackupDescriptor, Socrates};
pub use fabric::{Fabric, PartitionHandle, RemotePageSource, ServerOrigin};
pub use obs::LagWatcher;
pub use primary::Primary;
pub use secondary::Secondary;

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_engine::value::{ColumnType, Schema};
    use socrates_engine::Value as V;

    fn schema() -> Schema {
        Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Str)], 1)
    }

    fn row(id: i64, v: &str) -> Vec<V> {
        vec![V::Int(id), V::Str(v.into())]
    }

    #[test]
    fn end_to_end_commit_and_read() {
        let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
        let primary = sys.primary().unwrap();
        let db = primary.db();
        db.create_table("t", schema()).unwrap();
        let h = db.begin();
        for i in 0..100 {
            db.insert(&h, "t", &row(i, &format!("value-{i}"))).unwrap();
        }
        db.commit(h).unwrap();
        let r = db.begin();
        assert_eq!(db.get(&r, "t", &[V::Int(7)]).unwrap(), Some(row(7, "value-7")));
        let rows = db.scan_range(&r, "t", &[V::Int(10)], &[V::Int(20)], 100).unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn secondary_sees_committed_data() {
        let mut config = SocratesConfig::fast_test();
        config.secondaries = 1;
        let sys = Socrates::launch(config).unwrap();
        let primary = sys.primary().unwrap();
        let db = primary.db();
        db.create_table("t", schema()).unwrap();
        let h = db.begin();
        db.insert(&h, "t", &row(1, "from-primary")).unwrap();
        db.commit(h).unwrap();

        let sec = sys.secondary(0).unwrap();
        sec.wait_applied(primary.pipeline().hardened_lsn(), std::time::Duration::from_secs(5))
            .unwrap();
        let sdb = sec.db();
        let r = sdb.begin();
        assert_eq!(sdb.get(&r, "t", &[V::Int(1)]).unwrap(), Some(row(1, "from-primary")));
        // Read-only enforcement.
        assert!(sdb.insert(&r, "t", &row(2, "nope")).is_err());
    }

    #[test]
    fn primary_failover_preserves_committed_data() {
        let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
        {
            let primary = sys.primary().unwrap();
            let db = primary.db();
            db.create_table("t", schema()).unwrap();
            let h = db.begin();
            db.insert(&h, "t", &row(1, "survives")).unwrap();
            db.commit(h).unwrap();
            // An uncommitted transaction dies with the primary.
            let h2 = db.begin();
            db.insert(&h2, "t", &row(2, "lost")).unwrap();
        }
        sys.kill_primary();
        let new_primary = sys.failover().unwrap();
        let db = new_primary.db();
        let r = db.begin();
        assert_eq!(db.get(&r, "t", &[V::Int(1)]).unwrap(), Some(row(1, "survives")));
        assert_eq!(db.get(&r, "t", &[V::Int(2)]).unwrap(), None, "uncommitted write visible");
        // The new primary accepts writes.
        let h = db.begin();
        db.insert(&h, "t", &row(3, "after-failover")).unwrap();
        db.commit(h).unwrap();
    }
}
