//! End-to-end tests for the remote-read I/O scheduler: single-flight
//! GetPage@LSN dedupe, the GetPageRange protocol arm, and scan prefetch —
//! all asserted against the page server's own request counters. Where a
//! test needs readers to pile up behind one request in flight, it holds
//! that one at the page server with an injected `pageserver.serve` latency
//! and polls for the pile-up it needs before the hold ends.

use socrates::config::SocratesConfig;
use socrates::deployment::Socrates;
use socrates::fabric::RemotePageSource;
use socrates_common::fault::sites::PAGESERVER_SERVE;
use socrates_common::{Lsn, NodeId, PageId, PartitionId};
use socrates_engine::value::{ColumnType, Schema};
use socrates_engine::Value as V;
use socrates_storage::{IoScheduler, RangedPageSource};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Holds the page server's first request for 500 ms: ample time for the
/// pile-up each test waits for by polling state.
const HOLD: &str = "pageserver.serve@first:1=latency:500ms";

/// Poll until `cond` holds (5 s cap, so a regression fails, not hangs).
fn until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

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
    // fetch a reader makes becomes a real RBIO request we can count.
    let source = Arc::new(RemotePageSource::new(
        Arc::clone(sys.fabric()),
        sys.fabric().cpu.accountant(NodeId::client(7)),
        NodeId::client(7),
    ));
    let sched = Arc::new(IoScheduler::default());

    let served_before = ps.metrics().pages_served.get();
    let target = PageId::new(0); // the catalog page, applied at bootstrap
    let faults = &sys.fabric().faults;
    faults.install_spec(HOLD).unwrap();
    let read = || {
        let (sched, source) = (Arc::clone(&sched), Arc::clone(&source));
        std::thread::spawn(move || sched.fetch(&*source, target, Lsn::ZERO).unwrap())
    };
    // The first reader's GetPage is held at the server; the other seven
    // find it in flight and join it.
    let mut readers = vec![read()];
    until("the first GetPage to be held", || faults.fired_count(PAGESERVER_SERVE) == 1);
    readers.extend((0..7).map(|_| read()));
    until("seven readers to join", || sched.stats().joined.get() == 7);
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

    // And through the scheduler's background thread: a read-ahead hint of
    // eight pages leaves as one GetPageRange instead of eight GetPage
    // round trips.
    let sched = IoScheduler::start(source as Arc<dyn RangedPageSource>, std::sync::Weak::new());
    let range_before = ps.metrics().range_requests.get();
    sched.prefetch(PageId::new(1), 8, Lsn::ZERO);
    until("the hint's GetPageRange", || ps.metrics().range_requests.get() > range_before);
    assert_eq!(ps.metrics().range_requests.get() - range_before, 1, "one GetPageRange");
    assert_eq!((sched.stats().range_calls.get(), sched.stats().range_pages.get()), (1, 8));
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
