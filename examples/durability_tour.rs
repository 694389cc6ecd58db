//! A tour of the durability/availability separation (paper §6).
//!
//! In Socrates, durability lives in the log (landing zone + LT archive)
//! and XStore; compute nodes and page servers exist only for availability.
//! This example commits data, then destroys each availability tier in turn
//! — the primary, then every page server — injects an XStore outage for
//! good measure, and shows the data unharmed each time.
//!
//! ```sh
//! cargo run --example durability_tour
//! ```

use socrates::{Socrates, SocratesConfig};
use socrates_common::PartitionId;
use socrates_engine::value::{ColumnType, Schema, Value};
use std::time::Duration;

fn main() -> socrates_common::Result<()> {
    let mut config = SocratesConfig::fast_test();
    // Small partitions so step 4's growth visibly crosses page servers.
    config.pages_per_partition = 64;
    let sys = Socrates::launch(config)?;
    let primary = sys.primary()?;
    let db = primary.db();
    db.create_table(
        "facts",
        Schema::new(vec![("id".into(), ColumnType::Int), ("fact".into(), ColumnType::Str)], 1),
    )?;
    let h = db.begin();
    for i in 0..500 {
        db.insert(&h, "facts", &[Value::Int(i), Value::Str(format!("fact #{i}"))])?;
    }
    db.commit(h)?;
    let committed_lsn = primary.pipeline().hardened_lsn();
    println!("500 facts committed (log hardened to {committed_lsn})");

    // 1. Kill the primary. Compute is stateless; a new one recovers with
    //    analysis only (no undo, no page copying).
    sys.kill_primary();
    let t0 = std::time::Instant::now();
    let primary = sys.failover()?;
    println!("primary failover in {:?} — O(1) in data size", t0.elapsed());
    let r = primary.db().begin();
    assert_eq!(primary.db().scan_table(&r, "facts", usize::MAX)?.len(), 500);

    // 2. Kill every page server. Their truth lives in XStore + the log;
    //    replacements attach to the blobs and replay the tail.
    sys.checkpoint()?; // ship dirty pages so replacements start warm
    let fabric = sys.fabric();
    for pid in fabric.partition_ids() {
        let handle = fabric.kill_partition(pid).expect("partition existed");
        let (data_blob, meta_blob) = handle.servers[0].blobs();
        drop(handle);
        println!("killed page servers of {pid}; attaching a replacement...");
        let origin =
            socrates::ServerOrigin::Blobs { data: data_blob, meta: meta_blob, replay: None };
        let server = fabric.spawn_server(pid, origin)?;
        fabric.install_partition(pid, vec![server])?;
    }
    fabric.wait_applied(committed_lsn, Duration::from_secs(10))?;
    // A fresh primary (cold cache) must read everything through the
    // replacement page servers.
    sys.kill_primary();
    let primary = sys.failover()?;
    let r = primary.db().begin();
    assert_eq!(primary.db().scan_table(&r, "facts", usize::MAX)?.len(), 500);
    println!("all page servers replaced; 500 facts intact");

    // 3. XStore outage: page servers insulate — they keep serving and
    //    applying; checkpoints catch up when the service returns.
    fabric.xstore.set_available(false);
    let h = primary.db().begin();
    primary.db().insert(&h, "facts", &[Value::Int(1000), Value::Str("during outage".into())])?;
    primary.db().commit(h)?;
    let r = primary.db().begin();
    assert!(primary.db().get(&r, "facts", &[Value::Int(1000)])?.is_some());
    println!("committed and read during a full XStore outage");
    fabric.xstore.set_available(true);
    sys.checkpoint()?;
    println!("outage over; checkpoints caught up");

    // 4. Grow the database into new partitions: page servers appear on
    //    demand, no data moves (O(1) upsize).
    let before = fabric.partition_ids().len();
    let h = primary.db().begin();
    for i in 0..2000 {
        primary.db().insert(&h, "facts", &[Value::Int(10_000 + i), Value::Str("x".repeat(200))])?;
    }
    primary.db().commit(h)?;
    let after = fabric.partition_ids().len();
    println!("database grew: {before} → {after} partitions (servers spun up on demand)");
    assert!(after >= before);
    let _ = PartitionId::new(0);

    sys.shutdown();
    println!("durability tour OK");
    Ok(())
}
