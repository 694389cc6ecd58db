//! Integration: the XLOG tier hierarchy end to end — a consumer that falls
//! behind is served from progressively colder tiers, transparently.

use socrates::{Socrates, SocratesConfig};
use socrates_common::Lsn;
use socrates_engine::value::{ColumnType, Schema, Value};
use std::time::Duration;

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Bytes)], 1)
}

#[test]
fn slow_consumer_reads_from_cold_tiers() {
    let mut config = SocratesConfig::fast_test();
    // Tiny hot tiers force fall-through: 4 KiB of sequence map, 64 KiB of
    // XLOG SSD cache, 256 KiB landing zone.
    config.xlog.sequence_map_bytes = 4 << 10;
    config.xlog.ssd_cache_bytes = 64 << 10;
    config.lz_capacity = 256 << 10;
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();

    // Produce several MB of log so early blocks age out of every hot tier.
    for batch in 0..20 {
        let h = db.begin();
        for i in 0..20 {
            db.upsert(&h, "t", &[Value::Int(batch * 20 + i), Value::Bytes(vec![7u8; 1600])])
                .unwrap();
        }
        db.commit(h).unwrap();
    }
    let xlog = &sys.fabric().xlog;
    // Wait until destaging has pushed the tail to the LT.
    let hardened = primary.pipeline().hardened_lsn();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while xlog.destaged_lsn() < hardened {
        assert!(std::time::Instant::now() < deadline, "destager stalled");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A brand-new consumer pulling from LSN 0 must be able to read the
    // whole stream even though the hot tiers only hold the tail.
    let pull = xlog.pull_blocks(Lsn::ZERO, usize::MAX, None).unwrap();
    assert_eq!(pull.next_lsn, xlog.released_lsn());
    assert!(
        xlog.metrics().served_from_lt.get() > 0,
        "cold reads must have come from the long-term archive"
    );
    assert!(
        xlog.metrics().served_from_ssd.get() > 0,
        "the destaged tail must have been served from the SSD block cache"
    );
    // And the blocks chain correctly.
    let mut at = Lsn::ZERO;
    for b in &pull.blocks {
        assert!(b.start_lsn() >= at);
        at = b.end_lsn();
    }
    // The landing zone was truncated behind destaging (it is far smaller
    // than the produced log, so this is load-bearing).
    assert!(sys.fabric().lz.tail() > Lsn::ZERO);
    sys.shutdown();
}

#[test]
fn lz_backpressure_stalls_but_never_fails_commits() {
    let mut config = SocratesConfig::fast_test();
    config.lz_capacity = 128 << 10; // minuscule LZ
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    // Write more than the LZ can hold: commits must stall on destaging and
    // then succeed — never error.
    for batch in 0..16 {
        let h = db.begin();
        for i in 0..8 {
            db.upsert(&h, "t", &[Value::Int(batch * 8 + i), Value::Bytes(vec![1u8; 1600])])
                .unwrap();
        }
        db.commit(h).unwrap();
    }
    let r = db.begin();
    assert_eq!(db.scan_table(&r, "t", usize::MAX).unwrap().len(), 128);
    sys.shutdown();
}
