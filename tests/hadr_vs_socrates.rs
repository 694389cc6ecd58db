//! Architecture equivalence: the same operation stream against HADR and
//! Socrates must produce identical query results — the two architectures
//! differ in *how* they store and move data, never in *what* the database
//! contains (the paper's compatibility requirement, §4.1.6).

use socrates::{Socrates, SocratesConfig};
use socrates_common::rng::Rng;
use socrates_engine::value::{ColumnType, Schema, Value};
use socrates_engine::Database;
use socrates_hadr::{Hadr, HadrConfig};
use socrates_storage::page::PAGE_SIZE;

fn schema() -> Schema {
    Schema::new(
        vec![
            ("id".into(), ColumnType::Int),
            ("v".into(), ColumnType::Int),
            ("s".into(), ColumnType::Str),
        ],
        1,
    )
}

/// A deterministic mixed op stream.
fn apply_stream(db: &Database, seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    db.create_table("t", schema()).unwrap();
    let mut open = None;
    for step in 0..ops {
        if open.is_none() {
            open = Some(db.begin());
        }
        let h = open.as_ref().unwrap();
        let id = rng.gen_range(300) as i64;
        match rng.gen_range(10) {
            0..=4 => {
                let _ = db.upsert(
                    h,
                    "t",
                    &[Value::Int(id), Value::Int(step as i64), Value::Str(format!("s{step}"))],
                );
            }
            5..=6 => {
                let _ = db.delete(h, "t", &[Value::Int(id)]);
            }
            7 => {
                let _ = db.get(h, "t", &[Value::Int(id)]);
            }
            _ => {}
        }
        // Commit or (sometimes) abort every few ops.
        if rng.gen_bool(0.3) {
            let h = open.take().unwrap();
            if rng.gen_bool(0.15) {
                db.abort(h);
            } else {
                db.commit(h).unwrap();
            }
        }
    }
    if let Some(h) = open {
        db.commit(h).unwrap();
    }
}

fn full_state(db: &Database) -> Vec<Vec<Value>> {
    let h = db.begin();
    db.scan_table(&h, "t", usize::MAX).unwrap()
}

#[test]
fn same_stream_same_state() {
    let hadr = Hadr::launch(HadrConfig::fast_test()).unwrap();
    apply_stream(hadr.db(), 777, 2000);
    let hadr_state = full_state(hadr.db());

    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    apply_stream(sys.primary().unwrap().db(), 777, 2000);
    let socrates_state = full_state(sys.primary().unwrap().db());

    assert_eq!(hadr_state.len(), socrates_state.len());
    assert_eq!(hadr_state, socrates_state);

    // And the state survives each architecture's own failure model:
    // Socrates failover...
    sys.kill_primary();
    let p2 = sys.failover().unwrap();
    assert_eq!(full_state(p2.db()), socrates_state);
    // ...and HADR replica apply.
    hadr.pipeline().flush().unwrap();
    let lsn = hadr.pipeline().hardened_lsn();
    hadr.replica(0).wait_applied(lsn, std::time::Duration::from_secs(5)).unwrap();
    let rdb = hadr.replica(0).db().unwrap();
    assert_eq!(full_state(&rdb), hadr_state);
    sys.shutdown();
}

#[test]
fn socrates_survives_what_kills_hadr_capacity() {
    // The qualitative Table 1 point: Socrates grows past one "machine"
    // (partition) without moving data; HADR replicates everything
    // everywhere. Here: write enough to span several partitions and check
    // Socrates spun up page servers on demand.
    let mut config = SocratesConfig::fast_test();
    // Tiny partitions force growth. Each row carries 400 bytes, so even
    // full leaves hold fewer than PAGE_SIZE / 400 rows: this many rows fill
    // at least three partitions.
    config.pages_per_partition = 64;
    let rows = 3 * config.pages_per_partition as usize * (PAGE_SIZE / 400);
    let batches = rows.div_ceil(50) as i64;
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    for batch in 0..batches {
        let h = db.begin();
        for i in 0..50 {
            db.insert(
                &h,
                "t",
                &[Value::Int(batch * 50 + i), Value::Int(0), Value::Str("y".repeat(400))],
            )
            .unwrap();
        }
        db.commit(h).unwrap();
    }
    let partitions = sys.fabric().partition_ids().len();
    assert!(partitions > 1, "growth must cross partitions, got {partitions}");
    // Everything still readable through the partitioned storage tier.
    sys.kill_primary();
    let p = sys.failover().unwrap();
    let h = p.db().begin();
    assert_eq!(p.db().scan_table(&h, "t", usize::MAX).unwrap().len() as i64, batches * 50);
    sys.shutdown();
}
