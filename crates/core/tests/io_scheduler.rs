//! End-to-end tests for the remote-read I/O scheduler: single-flight
//! GetPage@LSN dedupe, the GetPages protocol arm, scan prefetch on a
//! primary and a secondary scan's batch, with the paper's two secondary
//! races (§4.5) on the demand path and on the batch — all asserted against
//! the page server's own request counters. Where a test needs readers to
//! pile up behind one request in flight, it holds that one at the page
//! server with an injected `pageserver.serve` latency and polls for the
//! pile-up it needs before the hold ends.

use socrates::config::SocratesConfig;
use socrates::deployment::Socrates;
use socrates::fabric::RemotePageSource;
use socrates::secondary::Secondary;
use socrates_common::fault::sites::{PAGESERVER_SERVE, RBIO_SEND};
use socrates_common::{Lsn, NodeId, PageId, PartitionId};
use socrates_engine::value::{ColumnType, Schema};
use socrates_engine::Value as V;
use socrates_pageserver::{PageServer, PageServerMetrics};
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
fn get_pages_arm_serves_coalesced_reads() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    populate(&sys, 2_000);
    let handle = sys.fabric().partition(PartitionId::new(0)).unwrap();
    let ps = Arc::clone(&handle.servers[0]);

    let source = Arc::new(RemotePageSource::new(
        Arc::clone(sys.fabric()),
        sys.fabric().cpu.accountant(NodeId::client(8)),
        NodeId::client(8),
    ));

    // Straight through the protocol arm: one RBIO GetPages call, for a
    // run and for a list with gaps.
    for ids in [(1..9).collect::<Vec<u64>>(), vec![9, 3, 14, 15, 2]] {
        let ids: Vec<PageId> = ids.into_iter().map(PageId::new).collect();
        let (range_before, served_before) =
            (ps.metrics().range_requests.get(), ps.metrics().range_pages_served.get());
        let pages = source.fetch_pages(&ids, Lsn::ZERO).unwrap();
        assert_eq!(pages.iter().map(|p| p.page_id()).collect::<Vec<_>>(), ids);
        assert_eq!(ps.metrics().range_requests.get() - range_before, 1);
        assert_eq!(ps.metrics().range_pages_served.get() - served_before, ids.len() as u64);
    }

    // And through the scheduler's background thread: a read-ahead hint of
    // eight pages leaves as one GetPages instead of eight GetPage round
    // trips.
    let sched = IoScheduler::start(source as Arc<dyn RangedPageSource>, std::sync::Weak::new());
    let range_before = ps.metrics().range_requests.get();
    sched.prefetch((1..9).map(PageId::new), Lsn::ZERO);
    until("the hint's GetPages", || ps.metrics().range_requests.get() > range_before);
    assert_eq!(ps.metrics().range_requests.get() - range_before, 1, "one GetPages");
    assert_eq!((sched.stats().range_calls.get(), sched.stats().range_pages.get()), (1, 8));
}

#[test]
fn cold_scan_after_failover_prefetches_ranges() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    populate(&sys, 2_000);
    // A replacement primary starts with a cold cache: its scans hit the
    // remote path, where the B-tree layer's read-ahead hints become
    // background GetPages calls.
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

/// A hub counter's current value (0 once its node is unregistered).
fn counter(sys: &Socrates, node: NodeId, name: &str) -> u64 {
    match sys.fabric().hub.snapshot().get(node, name) {
        Some(socrates_common::obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Partition 0's page servers.
fn servers(sys: &Socrates) -> Vec<Arc<PageServer>> {
    sys.fabric().partition(PartitionId::new(0)).unwrap().servers.clone()
}

/// A counter summed over partition 0's page servers.
fn ps_total(sys: &Socrates, f: impl Fn(&PageServerMetrics) -> u64) -> u64 {
    servers(sys).iter().map(|ps| f(ps.metrics())).sum()
}

/// `rows` rows whose 200-byte pads put about 30 on a leaf, so that a
/// 100-key scan spans 3 to 4 leaves. Returns the hardened LSN, applied by
/// every page server.
fn populate_padded(sys: &Socrates, rows: i64) -> Lsn {
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(500) {
        let h = db.begin();
        for &i in chunk {
            db.insert(&h, "t", &row(i, &pad(i, "v"))).unwrap();
        }
        db.commit(h).unwrap();
    }
    let hardened = primary.pipeline().hardened_lsn();
    sys.fabric().wait_applied(hardened, Duration::from_secs(10)).unwrap();
    hardened
}

/// Key `i`'s 200-byte value, tagged.
fn pad(i: i64, tag: &str) -> String {
    format!("{tag}-{i:<200}")
}

/// Update key `i` to `pad(i, "new")` on the primary; returns the hardened LSN.
fn update(sys: &Socrates, i: i64) -> Lsn {
    let primary = sys.primary().unwrap();
    let db = primary.db();
    let h = db.begin();
    assert!(db.update(&h, "t", &row(i, &pad(i, "new"))).unwrap());
    db.commit(h).unwrap();
    primary.pipeline().hardened_lsn()
}

/// Secondary 0 over 2 000 padded rows, caught up, with the root and the
/// leaf of key 0 read: every other leaf is cold.
fn with_secondary() -> (Socrates, Arc<Secondary>) {
    let sys = Socrates::launch(SocratesConfig::fast_test().with_secondaries(1)).unwrap();
    let hardened = populate_padded(&sys, 2_000);
    let sec = sys.secondary(0).unwrap();
    sec.wait_applied(hardened, Duration::from_secs(10)).unwrap();
    assert_eq!(read(&sec, false, 0), pad(0, "v"));
    (sys, sec)
}

/// Key `k`'s value read on `sec`: by a get, or by the 100-key scan from 1 000.
fn read(sec: &Secondary, scan: bool, k: i64) -> String {
    let db = sec.db();
    let h = db.begin();
    let found = if scan {
        let rows = db.scan_range(&h, "t", &[V::Int(1_000)], &[V::Int(1_100)], 100).unwrap();
        assert_eq!(rows.len(), 100);
        rows.into_iter().find(|r| r[0] == V::Int(k))
    } else {
        db.get(&h, "t", &[V::Int(k)]).unwrap()
    };
    // Not committed: a secondary's commit takes a timestamp from the clock
    // the primary's applied commits advance, so a later snapshot would
    // take in the next primary commit before it is applied.
    db.abort(h);
    match found.expect("the key is there").pop() {
        Some(V::Str(v)) => v,
        other => panic!("unexpected value {other:?}"),
    }
}

/// Apply the log on a stopped secondary until it reaches `lsn`.
fn apply_to(sec: &Secondary, lsn: Lsn) {
    while sec.applied_lsn() < lsn {
        sec.apply_once().unwrap();
    }
}

#[test]
fn a_primary_scan_prefetches_only_the_leaves_it_reads() {
    let sys = Socrates::launch(SocratesConfig::fast_test().with_cache(64, 0)).unwrap();
    populate_padded(&sys, 20_000);
    let primary = sys.primary().unwrap();
    let cache = primary.io().cache();
    cache.flush_mem().unwrap();
    let (sched, cs) = (cache.scheduler().stats(), cache.stats());
    let reads = || cs.mem_hits.get() + cs.ssd_hits.get() + cs.fetches.get();
    let (hints, before) = (sched.prefetch_hints.get(), reads());
    let db = primary.db();
    let h = db.begin();
    let rows = db.scan_range(&h, "t", &[V::Int(10_000)], &[V::Int(10_100)], 100).unwrap();
    assert_eq!(rows.len(), 100);
    let (hinted, read) = (sched.prefetch_hints.get() - hints, reads() - before);
    // The walk names the children in [lo, hi), not every child right of
    // lo: it hints no more than the pages it reads below the root.
    assert!(hinted >= 1 && hinted < read, "hinted {hinted} pages, read {read}");
}

#[test]
fn a_secondary_scan_fetches_its_missing_leaves_in_one_request() {
    let (sys, sec) = with_secondary();
    // Key 1 050 sits in a middle leaf of the scan: the missing leaves on
    // either side of it are not adjacent.
    assert_eq!(read(&sec, false, 1_050), pad(1_050, "v"));
    let node = NodeId::secondary(0);
    let requests = || ps_total(&sys, |m| m.range_requests.get());
    let batched = || ps_total(&sys, |m| m.range_pages_served.get());
    let singles = || ps_total(&sys, |m| m.pages_served.get());
    let misses = || counter(&sys, node, "data_page_misses");
    let hits = || counter(&sys, node, "data_page_hits");
    let before = (requests(), batched(), singles(), misses(), hits());
    assert_eq!(read(&sec, true, 1_000), pad(1_000, "v"));
    let (batch, missing) = (batched() - before.1, misses() - before.3);
    assert_eq!(requests() - before.0, 1, "one GetPages for the scan");
    assert_eq!(singles() - before.2, 0, "and no GetPage beside it");
    assert!(missing >= 2 && batch == missing, "{batch} pages batched, {missing} missing");
    // Each batched leaf is noted once, as a miss: the scan's one local hit
    // is the leaf the get read.
    assert_eq!(hits() - before.4, 1, "data-page hits");
    assert_eq!(counter(&sys, node, "future_page_waits"), 0);
}

#[test]
fn a_miss_of_a_page_in_a_secondary_batch_joins_it() {
    let (sys, sec) = with_secondary();
    let node = NodeId::secondary(0);
    let faults = &sys.fabric().faults;
    let requests = || ps_total(&sys, |m| m.range_requests.get());
    let singles = || ps_total(&sys, |m| m.pages_served.get());
    let before = (requests(), singles(), counter(&sys, node, "sched_joined"));
    faults.install_spec(HOLD).unwrap();
    std::thread::scope(|scope| {
        // The scan's batch is held at the server; a get of a key in one of
        // its leaves misses on that leaf and joins the batch. No log moves,
        // so the get's floor is the batch's.
        let scan = scope.spawn(|| read(&sec, true, 1_050));
        until("the batch to be held", || faults.fired_count(PAGESERVER_SERVE) == 1);
        let get = scope.spawn(|| read(&sec, false, 1_050));
        until("the get to join", || counter(&sys, node, "sched_joined") == before.2 + 1);
        assert_eq!(scan.join().unwrap(), pad(1_050, "v"));
        assert_eq!(get.join().unwrap(), pad(1_050, "v"));
    });
    assert_eq!(requests() - before.0, 1, "the page server saw the batch");
    assert_eq!(singles() - before.1, 0, "and nothing else");
}

#[test]
fn a_limit_bound_secondary_scan_batches_about_the_leaves_it_reads() {
    let (sys, sec) = with_secondary();
    let node = NodeId::secondary(0);
    // A first scan shows the tree how full its leaves are.
    assert_eq!(read(&sec, true, 1_000), pad(1_000, "v"));
    let batched = || ps_total(&sys, |m| m.range_pages_served.get());
    let reads = || counter(&sys, node, "data_page_hits") + counter(&sys, node, "data_page_misses");
    let before = (batched(), reads());
    let db = sec.db();
    let h = db.begin();
    let rows = db.scan_range(&h, "t", &[V::Int(100)], &[V::Int(i64::MAX)], 100).unwrap();
    db.abort(h);
    assert_eq!(rows.len(), 100);
    // The open `hi` puts some 60 cold leaves in range. The B-tree walk's
    // limit (the scan's, doubled, plus 64) reaches 9 of them, and the
    // batch takes no more than twice that.
    let (batch, read) = (batched() - before.0, reads() - before.1);
    assert!(batch >= 2 && batch <= 2 * read, "{batch} pages batched, {read} leaves read");
}

/// A batch that fails leaves the registration a demand miss joined in
/// place: a record queued for the page meanwhile reaches the copy the miss
/// then fetches alone from a page server behind the record.
#[test]
fn a_failed_batch_keeps_the_registration_a_miss_joined() {
    let (sys, sec) = with_secondary();
    let node = NodeId::secondary(0);
    for ps in servers(&sys) {
        ps.stop();
    }
    let faults = &sys.fabric().faults;
    // The batch is held on its way to the page server, which fails it.
    let spec = format!("{RBIO_SEND}@first:1=latency:500ms; {PAGESERVER_SERVE}@first:1=error:io");
    faults.install_spec(&spec).unwrap();
    let singles = || ps_total(&sys, |m| m.pages_served.get());
    let (joined, singles_before) = (counter(&sys, node, "sched_joined"), singles());
    std::thread::scope(|scope| {
        let scan = scope.spawn(|| read(&sec, true, 1_050));
        until("the batch to be held", || faults.fired_count(RBIO_SEND) == 1);
        let get = scope.spawn(|| read(&sec, false, 1_050));
        until("the get to join", || counter(&sys, node, "sched_joined") == joined + 1);
        let lsn = update(&sys, 1_050);
        sec.wait_applied(lsn, Duration::from_secs(5)).unwrap();
        assert!(sec.metrics().records_queued.get() >= 1, "the record was queued");
        // The get's own fetch asks for no more than the page servers have,
        // so it is served the leaf without the update. Every later fetch
        // (the scan's misses, the old version the get reads) waits for
        // them to apply it.
        until("the get's own fetch to be served", || singles() > singles_before);
        assert_eq!(faults.fired_count(PAGESERVER_SERVE), 1, "the batch failed");
        for ps in servers(&sys) {
            while ps.applied_lsn() < lsn {
                ps.apply_once().unwrap();
            }
        }
        // Both snapshots predate the update.
        assert_eq!(get.join().unwrap(), pad(1_050, "v"));
        assert_eq!(scan.join().unwrap(), pad(1_050, "v"));
    });
    // The leaf the get installed took the queued update.
    assert_eq!(read(&sec, false, 1_050), pad(1_050, "new"));
    assert_eq!(read(&sec, true, 1_050), pad(1_050, "new"));
}

/// A page the secondary fetches newer than its applied LSN is not handed
/// to the reader before apply reaches it, on the demand path and in a batch.
#[test]
fn a_page_from_the_future_waits_for_apply() {
    for scan in [false, true] {
        let (sys, sec) = with_secondary();
        sec.stop();
        let lsn = update(&sys, 1_050);
        sys.fabric().wait_applied(lsn, Duration::from_secs(10)).unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| read(&sec, scan, 1_050));
            until("a future-page wait", || sec.metrics().future_page_waits.get() >= 1);
            std::thread::sleep(Duration::from_millis(50));
            assert!(!reader.is_finished(), "scan {scan}: the reader is held for apply");
            apply_to(&sec, lsn);
            // The reader's snapshot predates the update.
            assert_eq!(reader.join().unwrap(), pad(1_050, "v"), "scan {scan}");
        });
        assert_eq!(read(&sec, scan, 1_050), pad(1_050, "new"), "scan {scan}");
    }
}

/// A log record for a page whose fetch is on the wire is queued and applied
/// to the page once it is installed, on the demand path and in a batch.
#[test]
fn a_record_for_a_page_on_the_wire_is_applied_to_it() {
    for scan in [false, true] {
        let (sys, sec) = with_secondary();
        // The page servers stay behind the update until the held fetch
        // has been served, so it returns the leaf without it.
        sec.stop();
        for ps in servers(&sys) {
            ps.stop();
        }
        let served = || ps_total(&sys, |m| m.pages_served.get() + m.range_pages_served.get());
        let served_before = served();
        let faults = &sys.fabric().faults;
        faults.install_spec(HOLD).unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| read(&sec, scan, 1_050));
            until("the fetch to be held", || faults.fired_count(PAGESERVER_SERVE) == 1);
            let lsn = update(&sys, 1_050);
            apply_to(&sec, lsn);
            assert!(sec.metrics().records_queued.get() >= 1, "scan {scan}: the record was queued");
            until("the held fetch to be served", || served() > served_before);
            for ps in servers(&sys) {
                while ps.applied_lsn() < lsn {
                    ps.apply_once().unwrap();
                }
            }
            assert_eq!(reader.join().unwrap(), pad(1_050, "v"), "scan {scan}");
        });
        // The leaf stayed resident: the update reached it from the queue.
        assert_eq!(read(&sec, scan, 1_050), pad(1_050, "new"), "scan {scan}");
    }
}

/// A scan's RBPEX read is installed only if RBPEX still maps the page at
/// the PageLSN read. Here the read's install waits behind the scan's
/// batch, parked at page servers behind the secondary, while the leaf is
/// loaded, updated by the apply loop and spilled again: the stale copy
/// must not replace the update.
#[test]
fn a_stale_rbpex_read_is_not_installed_over_an_update() {
    let (sys, sec) = with_secondary();
    // Key 1 050's leaf goes to RBPEX; the scan's other leaves are cold.
    assert_eq!(read(&sec, false, 1_050), pad(1_050, "v"));
    let cache = sec.cache();
    cache.flush_mem().unwrap();
    // The secondary applies an update the stopped page servers have not,
    // so the scan's batch waits for them to catch up.
    for ps in servers(&sys) {
        ps.stop();
    }
    let ahead = update(&sys, 1_500);
    sec.wait_applied(ahead, Duration::from_secs(5)).unwrap();
    let parked = || ps_total(&sys, |m| m.get_page_waits.get());
    let requests = || ps_total(&sys, |m| m.range_requests.get());
    let (parked_before, requests_before) = (parked(), requests());
    std::thread::scope(|scope| {
        let scan = scope.spawn(|| read(&sec, true, 1_050));
        until("the scan's batch to park", || parked() > parked_before);
        // The scan has read the leaf from RBPEX. The apply loop loads it
        // and applies the update, and the leaf is spilled again: the scan
        // pins only its inner pages.
        let lsn = update(&sys, 1_050);
        sec.wait_applied(lsn, Duration::from_secs(5)).unwrap();
        let _ = cache.flush_mem();
        assert_eq!(requests(), requests_before, "the batch, and the SSD read behind it, wait");
        for ps in servers(&sys) {
            while ps.applied_lsn() < lsn {
                ps.apply_once().unwrap();
            }
        }
        // The scan's snapshot predates the update.
        assert_eq!(scan.join().unwrap(), pad(1_050, "v"));
    });
    assert_eq!(read(&sec, true, 1_050), pad(1_050, "new"));
    assert_eq!(read(&sec, false, 1_050), pad(1_050, "new"));
}
