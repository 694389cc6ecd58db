//! §6 of the paper: a Socrates deployment is tailored by adding/removing
//! secondaries and page-server replicas at runtime — availability and
//! read scale-out knobs, all O(1) in data size.

use socrates::{Socrates, SocratesConfig};
use socrates_engine::value::{ColumnType, Schema, Value};
use std::time::Duration;

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Int)], 1)
}

#[test]
fn read_scale_out_with_runtime_secondaries() {
    // Start minimal: one primary, no secondaries (the paper's cheapest
    // deployment).
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..200 {
        db.insert(&h, "t", &[Value::Int(i), Value::Int(i * 3)]).unwrap();
    }
    db.commit(h).unwrap();
    assert_eq!(sys.secondary_count(), 0);

    // Scale out to three read replicas at runtime.
    for _ in 0..3 {
        sys.add_secondary().unwrap();
    }
    assert_eq!(sys.secondary_count(), 3);
    let lsn = primary.pipeline().hardened_lsn();
    for i in 0..3 {
        let sec = sys.secondary(i).unwrap();
        sec.wait_applied(lsn, Duration::from_secs(10)).unwrap();
        let r = sec.db().begin();
        assert_eq!(
            sec.db().get(&r, "t", &[Value::Int(123)]).unwrap(),
            Some(vec![Value::Int(123), Value::Int(369)]),
            "secondary {i}"
        );
    }

    // All secondaries keep tracking new commits.
    let h = db.begin();
    db.update(&h, "t", &[Value::Int(123), Value::Int(-1)]).unwrap();
    db.commit(h).unwrap();
    let lsn = primary.pipeline().hardened_lsn();
    for i in 0..3 {
        let sec = sys.secondary(i).unwrap();
        sec.wait_applied(lsn, Duration::from_secs(10)).unwrap();
        let r = sec.db().begin();
        assert_eq!(
            sec.db().get(&r, "t", &[Value::Int(123)]).unwrap(),
            Some(vec![Value::Int(123), Value::Int(-1)])
        );
    }

    // Scale back in.
    sys.remove_secondary(2).unwrap();
    sys.remove_secondary(1).unwrap();
    assert_eq!(sys.secondary_count(), 1);
    sys.shutdown();
}

#[test]
fn planned_promotion_of_a_secondary() {
    let mut config = SocratesConfig::fast_test();
    config.secondaries = 1;
    let sys = Socrates::launch(config).unwrap();
    {
        let primary = sys.primary().unwrap();
        let db = primary.db();
        db.create_table("t", schema()).unwrap();
        let h = db.begin();
        db.insert(&h, "t", &[Value::Int(1), Value::Int(10)]).unwrap();
        db.commit(h).unwrap();
        let sec = sys.secondary(0).unwrap();
        sec.wait_applied(primary.pipeline().hardened_lsn(), Duration::from_secs(5)).unwrap();
    }
    // Planned failover: the secondary is drained and a new primary rises.
    let new_primary = sys.promote_secondary(0).unwrap();
    assert_eq!(sys.secondary_count(), 0);
    let db = new_primary.db();
    let r = db.begin();
    assert_eq!(
        db.get(&r, "t", &[Value::Int(1)]).unwrap(),
        Some(vec![Value::Int(1), Value::Int(10)])
    );
    // And it is writable.
    let h = db.begin();
    db.update(&h, "t", &[Value::Int(1), Value::Int(11)]).unwrap();
    db.commit(h).unwrap();
    sys.shutdown();
}

#[test]
fn secondary_snapshot_reads_are_stable_under_writes() {
    let mut config = SocratesConfig::fast_test();
    config.secondaries = 1;
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..50 {
        db.insert(&h, "t", &[Value::Int(i), Value::Int(0)]).unwrap();
    }
    db.commit(h).unwrap();
    let sec = sys.secondary(0).unwrap();
    sec.wait_applied(primary.pipeline().hardened_lsn(), Duration::from_secs(5)).unwrap();

    // Open a snapshot on the secondary, then update everything on the
    // primary; the snapshot must keep seeing 0s (shared version store).
    let snap = sec.db().begin();
    let before = sec.db().scan_table(&snap, "t", usize::MAX).unwrap();
    let w = db.begin();
    for i in 0..50 {
        db.update(&w, "t", &[Value::Int(i), Value::Int(999)]).unwrap();
    }
    db.commit(w).unwrap();
    sec.wait_applied(primary.pipeline().hardened_lsn(), Duration::from_secs(5)).unwrap();
    let after = sec.db().scan_table(&snap, "t", usize::MAX).unwrap();
    assert_eq!(before, after, "old snapshot must not see new commits");
    // A fresh snapshot sees the updates.
    let fresh = sec.db().begin();
    let rows = sec.db().scan_table(&fresh, "t", usize::MAX).unwrap();
    assert!(rows.iter().all(|r| r[1] == Value::Int(999)));
    sys.shutdown();
}

/// One way to spoil an otherwise valid configuration.
type Spoil = fn(&mut SocratesConfig);

#[test]
fn an_invalid_config_is_rejected_at_launch() {
    let cases: [(&str, Spoil); 5] = [
        ("lz_replicas = 0", |c| c.lz_replicas = 0),
        ("lz_quorum = 0", |c| c.lz_quorum = 0),
        ("lz_quorum above lz_replicas", |c| c.lz_quorum = c.lz_replicas + 1),
        ("mem_cache_pages = 0", |c| c.mem_cache_pages = 0),
        ("pages_per_partition = 0", |c| c.pages_per_partition = 0),
    ];
    for (name, spoil) in cases {
        let mut config = SocratesConfig::fast_test();
        spoil(&mut config);
        match Socrates::launch(config) {
            Err(e) => assert_eq!(e.kind(), "invalid_argument", "{name}: {e}"),
            Ok(_) => panic!("{name}: launched"),
        }
    }
}
