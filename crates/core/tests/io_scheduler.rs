//! End-to-end tests for the remote-read I/O scheduler: single-flight
//! GetPage@LSN dedupe, the GetPageRange protocol arm, and scan prefetch —
//! all asserted against the page server's own request counters.

use socrates::config::SocratesConfig;
use socrates::deployment::Socrates;
use socrates::fabric::RemotePageSource;
use socrates_common::{Lsn, NodeId, PageId, PartitionId};
use socrates_engine::value::{ColumnType, Schema};
use socrates_engine::Value as V;
use socrates_storage::sched::{IoScheduler, IoSchedulerConfig, RangedPageSource};
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Str)], 1)
}

fn row(id: i64, v: &str) -> Vec<V> {
    vec![V::Int(id), V::Str(v.into())]
}

/// Populate a table and wait until partition 0's page server has applied
/// everything the primary hardened.
fn populate(sys: &Socrates, rows: i64) -> Lsn {
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    let h = db.begin();
    for i in 0..rows {
        db.insert(&h, "t", &row(i, &format!("value-{i}"))).unwrap();
    }
    db.commit(h).unwrap();
    let hardened = primary.pipeline().hardened_lsn();
    sys.fabric().wait_applied(hardened, Duration::from_secs(10)).unwrap();
    hardened
}

#[test]
fn single_flight_issues_exactly_one_rbio_get_page() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let hardened = populate(&sys, 50);
    let handle = sys.fabric().partition(PartitionId::new(0)).unwrap();
    let ps = Arc::clone(&handle.servers[0]);

    // A scheduler over a fresh remote source: nothing cached, so every
    // fetch it forwards becomes a real RBIO request we can count.
    let source = Arc::new(RemotePageSource::new(
        Arc::clone(sys.fabric()),
        sys.fabric().cpu.accountant(NodeId::client(7)),
        NodeId::client(7),
    ));
    let sched = IoScheduler::start(
        source as Arc<dyn RangedPageSource>,
        IoSchedulerConfig {
            // A generous window so all eight readers join before the
            // worker dispatches (they target ONE page, so the batch
            // still resolves to a single GetPage).
            gather_window: Duration::from_millis(30),
            workers: 2,
            ..IoSchedulerConfig::default()
        },
        std::sync::Weak::new(),
    );

    let served_before = ps.metrics().pages_served.get();
    let target = PageId::new(0); // the catalog page, applied at bootstrap
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.fetch(target, Lsn::ZERO).unwrap())
        })
        .collect();
    for r in readers {
        let (page, _) = r.join().unwrap();
        assert_eq!(page.page_id(), target);
    }
    let served = ps.metrics().pages_served.get() - served_before;
    assert_eq!(served, 1, "8 concurrent cold readers must produce exactly 1 GetPage");
    assert_eq!(sched.stats().joined.get(), 7, "the other 7 join the in-flight request");
    assert!(hardened > Lsn::ZERO);
}

#[test]
fn get_page_range_arm_serves_coalesced_reads() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    populate(&sys, 2_000);
    let handle = sys.fabric().partition(PartitionId::new(0)).unwrap();
    let ps = Arc::clone(&handle.servers[0]);

    let source = Arc::new(RemotePageSource::new(
        Arc::clone(sys.fabric()),
        sys.fabric().cpu.accountant(NodeId::client(8)),
        NodeId::client(8),
    ));

    // Straight through the protocol arm: one RBIO GetPageRange call.
    let range_before = ps.metrics().range_requests.get();
    let pages = source.fetch_page_range(PageId::new(1), 8, Lsn::ZERO).unwrap();
    assert_eq!(pages.len(), 8);
    for (i, p) in pages.iter().enumerate() {
        assert_eq!(p.page_id(), PageId::new(1 + i as u64));
    }
    assert_eq!(ps.metrics().range_requests.get() - range_before, 1);
    assert!(ps.metrics().range_pages_served.get() >= 8);

    // And through the scheduler: adjacent concurrent misses coalesce into
    // range calls instead of eight GetPage round trips.
    let sched = IoScheduler::start(
        source as Arc<dyn RangedPageSource>,
        IoSchedulerConfig {
            gather_window: Duration::from_millis(30),
            workers: 2,
            ..IoSchedulerConfig::default()
        },
        std::sync::Weak::new(),
    );
    let range_before = ps.metrics().range_requests.get();
    let readers: Vec<_> = (1..=8u64)
        .map(|raw| {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.fetch(PageId::new(raw), Lsn::ZERO).unwrap())
        })
        .collect();
    for (i, r) in readers.into_iter().enumerate() {
        assert_eq!(r.join().unwrap().0.page_id(), PageId::new(1 + i as u64));
    }
    assert!(
        ps.metrics().range_requests.get() > range_before,
        "coalesced misses should arrive as GetPageRange"
    );
    assert!(sched.stats().range_pages.get() >= 2);
}

#[test]
fn cold_scan_after_failover_prefetches_ranges() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    populate(&sys, 2_000);
    // A replacement primary starts with a cold cache: its scans hit the
    // remote path, where the B-tree layer's read-ahead hints become
    // background GetPageRange calls.
    sys.kill_primary();
    let primary = sys.failover().unwrap();
    let handle = sys.fabric().partition(PartitionId::new(0)).unwrap();
    let ps = Arc::clone(&handle.servers[0]);
    let range_before = ps.metrics().range_requests.get();

    let db = primary.db();
    let r = db.begin();
    let rows = db.scan_range(&r, "t", &[V::Int(0)], &[V::Int(2_000)], 5_000).unwrap();
    assert_eq!(rows.len(), 2_000);
    assert!(
        ps.metrics().range_requests.get() > range_before,
        "a cold scan should trigger prefetch range reads"
    );
    let stats = primary.io().cache().stats();
    assert!(stats.prefetch_installs.get() > 0, "prefetched pages should land in the cache");
}
