//! Tests for the benchmark crate itself: the schema loader, every
//! transaction class of every mix, the TPC-E workload, and the driver's
//! bookkeeping.

use crate::driver::{run, DriverConfig, TxnKind, Workload};
use crate::schema::{load_cdb, CdbScale, T_ACCOUNTS, T_HISTORY};
use crate::sut::{HadrSut, SocratesSut, TestSystem};
use crate::tpce::TpceWorkload;
use crate::workload::{CdbMix, CdbWorkload};
use socrates::{Socrates, SocratesConfig};
use socrates_common::metrics::CpuAccountant;
use socrates_common::rng::Rng;
use socrates_engine::value::Value;
use socrates_hadr::{Hadr, HadrConfig};
use std::sync::Arc;
use std::time::Duration;

fn tiny_socrates() -> Socrates {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    load_cdb(sys.primary().unwrap().db(), CdbScale::tiny(), 7).unwrap();
    sys
}

#[test]
fn loader_populates_all_six_tables() {
    let sys = tiny_socrates();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    let mut names = db.table_names();
    names.sort();
    assert_eq!(
        names,
        vec!["cdb_accounts", "cdb_config", "cdb_history", "cdb_items", "cdb_orders", "cdb_small"]
    );
    let h = db.begin();
    assert_eq!(db.get(&h, T_ACCOUNTS, &[Value::Int(0)]).unwrap().map(|r| r.len()), Some(3));
    let scale = CdbScale::tiny();
    let accounts = db
        .scan_range(
            &h,
            T_ACCOUNTS,
            &[Value::Int(0)],
            &[Value::Int(scale.scale_factor as i64 + 1)],
            usize::MAX,
        )
        .unwrap();
    assert_eq!(accounts.len(), scale.scale_factor as usize);
    sys.shutdown();
}

#[test]
fn every_mix_executes_every_class() {
    let sys = tiny_socrates();
    let primary = sys.primary().unwrap();
    let cpu = CpuAccountant::new();
    for mix in [CdbMix::Default, CdbMix::MaxLog, CdbMix::UpdateLite, CdbMix::ReadOnly] {
        let w = CdbWorkload::new(mix, CdbScale::tiny().scale_factor);
        let mut rng = Rng::new(42);
        let mut reads = 0;
        let mut writes = 0;
        for _ in 0..60 {
            match w.execute_one(primary.db(), &mut rng, &cpu) {
                Ok(TxnKind::Read) => reads += 1,
                Ok(TxnKind::Write) => writes += 1,
                Err(e) if e.kind() == "write_conflict" => {}
                Err(e) => panic!("{mix:?} failed: {e}"),
            }
        }
        match mix {
            CdbMix::ReadOnly => assert_eq!(writes, 0, "{mix:?} must not write"),
            CdbMix::MaxLog | CdbMix::UpdateLite => {
                assert_eq!(reads, 0, "{mix:?} must not read")
            }
            CdbMix::Default => {
                assert!(reads > 0 && writes > 0, "{mix:?} needs both kinds")
            }
        }
    }
    assert!(cpu.busy_us() > 0, "classes must charge modelled CPU");
    // History grew under the writing mixes.
    let h = primary.db().begin();
    assert!(!primary.db().scan_table(&h, T_HISTORY, 10).unwrap().is_empty());
    sys.shutdown();
}

#[test]
fn tpce_loads_and_runs() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let primary = sys.primary().unwrap();
    let w = TpceWorkload::load(primary.db(), 2_000, 64, 5).unwrap();
    let cpu = CpuAccountant::new();
    let mut rng = Rng::new(1);
    let (mut reads, mut writes) = (0, 0);
    for _ in 0..100 {
        match w.execute_one(primary.db(), &mut rng, &cpu).unwrap() {
            TxnKind::Read => reads += 1,
            TxnKind::Write => writes += 1,
        }
    }
    assert!(reads > writes, "TPC-E mix is read-dominated");
    sys.shutdown();
}

#[test]
fn driver_reports_are_consistent() {
    let sys = tiny_socrates();
    let sut = SocratesSut::new(&sys).unwrap();
    let workload = Arc::new(CdbWorkload::new(CdbMix::Default, CdbScale::tiny().scale_factor));
    let report = run(
        &sut,
        workload,
        &DriverConfig {
            clients: 2,
            duration: Duration::from_millis(300),
            warmup: Duration::from_millis(100),
            seed: 3,
        },
    );
    assert!(report.total_tps > 0.0, "measured window must commit work");
    assert!(
        (report.total_tps - report.read_tps - report.write_tps).abs() < 1e-6,
        "tps split must add up"
    );
    assert!(report.txn_latency.count > 0);
    assert!(report.duration >= Duration::from_millis(290));
    assert!(report.cache_hit_rate >= 0.0 && report.cache_hit_rate <= 1.0);
    sys.shutdown();
}

#[test]
fn hadr_sut_adapter_works() {
    let hadr = Arc::new(Hadr::launch(HadrConfig::fast_test()).unwrap());
    load_cdb(hadr.db(), CdbScale::tiny(), 9).unwrap();
    let sut = HadrSut::new(Arc::clone(&hadr));
    assert_eq!(sut.local_hit_rate(), 1.0, "HADR always hits its full copy");
    let workload = Arc::new(CdbWorkload::new(CdbMix::UpdateLite, CdbScale::tiny().scale_factor));
    let report = run(
        &sut,
        workload,
        &DriverConfig {
            clients: 2,
            duration: Duration::from_millis(250),
            warmup: Duration::from_millis(50),
            seed: 4,
        },
    );
    assert!(report.write_tps > 0.0);
    assert_eq!(report.read_tps, 0.0);
    assert!(report.log_mb_s > 0.0, "updates must produce log");
}
