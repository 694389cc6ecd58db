//! End-to-end integration: the full Socrates stack under a lossy XLOG
//! feed, with secondaries, page-server convergence, and cache pressure.

use socrates::{Socrates, SocratesConfig};
use socrates_engine::io::PageAccess;
use socrates_engine::value::{ColumnType, Schema, Value};
use socrates_rbio::lossy::LossyConfig;
use socrates_storage::page::PAGE_SIZE;
use std::time::Duration;

fn schema(cols: usize) -> Schema {
    let mut columns = vec![("id".to_string(), ColumnType::Int)];
    for i in 1..cols {
        columns.push((format!("c{i}"), ColumnType::Str));
    }
    Schema::new(columns, 1)
}

fn row(id: i64, cols: usize, tag: &str) -> Vec<Value> {
    let mut r = vec![Value::Int(id)];
    for i in 1..cols {
        r.push(Value::Str(format!("{tag}-{id}-{i}")));
    }
    r
}

#[test]
fn lossy_feed_still_converges_everywhere() {
    // A hostile feed: 25% of blocks dropped, 15% reordered. The landing
    // zone gap-fill must make everything whole.
    let mut config = SocratesConfig::fast_test();
    config.lossy_feed = LossyConfig::unreliable(0.25, 0.15, 1234);
    config.secondaries = 1;
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema(3)).unwrap();
    for batch in 0..20 {
        let h = db.begin();
        for i in 0..25 {
            db.insert(&h, "t", &row(batch * 25 + i, 3, "x")).unwrap();
        }
        db.commit(h).unwrap();
    }
    let lsn = primary.pipeline().hardened_lsn();
    // Page servers converge.
    sys.fabric().wait_applied(lsn, Duration::from_secs(10)).unwrap();
    // Secondary converges and reads everything.
    let sec = sys.secondary(0).unwrap();
    sec.wait_applied(lsn, Duration::from_secs(10)).unwrap();
    let r = sec.db().begin();
    let rows = sec.db().scan_table(&r, "t", usize::MAX).unwrap();
    assert_eq!(rows.len(), 500);
    // A cold replacement primary (pure GetPage@LSN reads) sees the same.
    sys.kill_primary();
    let p2 = sys.failover().unwrap();
    let r = p2.db().begin();
    assert_eq!(p2.db().scan_table(&r, "t", usize::MAX).unwrap().len(), 500);
    sys.shutdown();
}

#[test]
fn tiny_cache_forces_getpage_traffic() {
    // A cache far smaller than the database: correctness must not depend
    // on residency.
    let cache_pages = 24;
    let config = SocratesConfig::fast_test().with_cache(cache_pages, 0);
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema(2)).unwrap();
    // Every row carries the 200-byte pad, so even a full leaf holds fewer
    // than PAGE_SIZE / 200 rows: the table is at least 4x the cache.
    let pad = "pad".repeat(67);
    let n = (4 * cache_pages * PAGE_SIZE / 200).next_multiple_of(100) as i64;
    for batch in 0..(n / 100) {
        let h = db.begin();
        for i in 0..100 {
            db.insert(&h, "t", &row(batch * 100 + i, 2, &pad)).unwrap();
        }
        db.commit(h).unwrap();
    }
    // Read everything back in a scattered order.
    let h = db.begin();
    let mut rng = socrates_common::rng::Rng::new(5);
    for _ in 0..500 {
        let id = rng.gen_range(n as u64) as i64;
        let got = db.get(&h, "t", &[Value::Int(id)]).unwrap().expect("present");
        assert_eq!(got, row(id, 2, &pad));
    }
    // The cache really was too small: remote fetches happened.
    assert!(
        primary.io().cache().stats().fetches.get() > 0,
        "expected GetPage@LSN traffic with a 24-page cache"
    );
    sys.shutdown();
}

/// Splits log the records that moved, not page images, so replay builds
/// each page from its predecessor: after an ascending load (right-edge
/// splits) and a random one (50/50 splits), the page servers must hold
/// every page byte for byte as the primary does.
#[test]
fn page_servers_hold_the_primarys_bytes_after_ascending_and_random_loads() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("asc", schema(3)).unwrap();
    db.create_table("rnd", schema(3)).unwrap();
    let n = 2000i64;
    let mut order: Vec<i64> = (0..n).collect();
    let mut rng = socrates_common::rng::Rng::new(11);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range((i + 1) as u64) as usize);
    }
    for batch in 0..n / 100 {
        let h = db.begin();
        for i in batch * 100..(batch + 1) * 100 {
            db.insert(&h, "asc", &row(i, 3, "asc")).unwrap();
            db.insert(&h, "rnd", &row(order[i as usize], 3, "rnd")).unwrap();
        }
        db.commit(h).unwrap();
    }
    let lsn = primary.pipeline().hardened_lsn();
    let fabric = sys.fabric();
    fabric.wait_applied(lsn, Duration::from_secs(10)).unwrap();
    // Byte 4..8 is the checksum, sealed only on the way to a device.
    let canon = |p: &socrates_storage::Page| {
        let mut b = p.as_bytes().to_vec();
        b[4..8].fill(0);
        b
    };
    let mut compared = 0;
    for pid in fabric.partition_ids() {
        let spec = fabric.partition_spec(pid);
        let ps = &fabric.partition(pid).unwrap().servers[0];
        for off in 0..spec.span {
            let page = socrates_common::PageId::new(spec.base_page + off);
            let Ok(served) = ps.get_page(page, lsn) else { continue };
            let mine = primary.io().page(page).unwrap();
            assert!(canon(&served) == canon(&mine.read()), "page {page} diverged");
            compared += 1;
        }
    }
    // Both tables' rows fill more than a few dozen pages.
    assert!(compared > 40, "only {compared} pages compared");
    let r = db.begin();
    assert_eq!(db.scan_table(&r, "asc", usize::MAX).unwrap().len(), n as usize);
    assert_eq!(db.scan_table(&r, "rnd", usize::MAX).unwrap().len(), n as usize);
    sys.shutdown();
}

#[test]
fn multi_table_transactions_are_atomic() {
    let sys = Socrates::launch(SocratesConfig::fast_test()).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("a", schema(2)).unwrap();
    db.create_table("b", schema(2)).unwrap();
    // A transaction spanning both tables aborts: neither side visible.
    let h = db.begin();
    db.insert(&h, "a", &row(1, 2, "a")).unwrap();
    db.insert(&h, "b", &row(1, 2, "b")).unwrap();
    db.abort(h);
    let r = db.begin();
    assert!(db.get(&r, "a", &[Value::Int(1)]).unwrap().is_none());
    assert!(db.get(&r, "b", &[Value::Int(1)]).unwrap().is_none());
    // And committing makes both visible atomically.
    let h = db.begin();
    db.insert(&h, "a", &row(2, 2, "a")).unwrap();
    db.insert(&h, "b", &row(2, 2, "b")).unwrap();
    db.commit(h).unwrap();
    let r = db.begin();
    assert!(db.get(&r, "a", &[Value::Int(2)]).unwrap().is_some());
    assert!(db.get(&r, "b", &[Value::Int(2)]).unwrap().is_some());
    sys.shutdown();
}

#[test]
fn secondary_catches_ddl() {
    let mut config = SocratesConfig::fast_test();
    config.secondaries = 1;
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    // DDL *after* the secondary is already running.
    primary.db().create_table("late_table", schema(2)).unwrap();
    let h = primary.db().begin();
    primary.db().insert(&h, "late_table", &row(5, 2, "ddl")).unwrap();
    primary.db().commit(h).unwrap();
    let sec = sys.secondary(0).unwrap();
    sec.wait_applied(primary.pipeline().hardened_lsn(), Duration::from_secs(5)).unwrap();
    let r = sec.db().begin();
    assert_eq!(sec.db().get(&r, "late_table", &[Value::Int(5)]).unwrap(), Some(row(5, 2, "ddl")));
    sys.shutdown();
}

/// Launch a deployment with one secondary, commit a little, and let every
/// tier catch up — after this the follower loops have nothing to do.
#[cfg(target_os = "linux")]
fn quiesced_deployment() -> Socrates {
    let sys = Socrates::launch(SocratesConfig::fast_test().with_secondaries(1)).unwrap();
    let primary = sys.primary().unwrap();
    primary.db().create_table("t", schema(2)).unwrap();
    let h = primary.db().begin();
    for i in 0..5 {
        primary.db().insert(&h, "t", &row(i, 2, "idle")).unwrap();
    }
    primary.db().commit(h).unwrap();
    let lsn = primary.pipeline().hardened_lsn();
    sys.fabric().wait_applied(lsn, Duration::from_secs(10)).unwrap();
    sys.secondary(0).unwrap().wait_applied(lsn, Duration::from_secs(10)).unwrap();
    sys.wait_destaged(lsn, Duration::from_secs(10)).unwrap();
    // Let the loops finish the cycle that got them here and park.
    std::thread::sleep(Duration::from_millis(100));
    sys
}

/// This process's thread ids.
#[cfg(target_os = "linux")]
fn thread_ids() -> std::collections::BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|task| task.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// `(name#tid, voluntary context switches)` of every thread not in
/// `before`: the threads a deployment launched after `before` started.
/// The kernel truncates names to 15 bytes.
#[cfg(target_os = "linux")]
fn started_threads(
    before: &std::collections::BTreeSet<String>,
) -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    for tid in thread_ids().difference(before) {
        let dir = std::path::Path::new("/proc/self/task").join(tid);
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else { continue };
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else { continue };
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches in /proc/self/task/<tid>/status");
        out.insert(format!("{}#{tid}", name.trim()), switches);
    }
    out
}

/// Run the calling test alone in a child process: threads are
/// per-process and the other tests of this file run beside it. Returns
/// `true` in the child, which then does the measuring.
#[cfg(target_os = "linux")]
fn in_child(test: &str) -> bool {
    const CHILD: &str = "SOCRATES_E2E_CHILD";
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", test, "--nocapture"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{test} child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// The one thread an idle deployment may wake: the LSN-lag watcher
/// samples on a timer.
#[cfg(target_os = "linux")]
const TIMED_SAMPLER: &str = "lsn-lag-watcher";

/// No thread a deployment starts polls, so an idle deployment does not
/// wake at all (a 10 ms poll wakes 30 times in this window) — apart from
/// [`TIMED_SAMPLER`]. The census of those threads, names with
/// digits normalized, is pinned in `tests/golden/thread_names.txt`.
#[cfg(target_os = "linux")]
#[test]
fn idle_deployment_followers_do_not_wake() {
    if !in_child("idle_deployment_followers_do_not_wake") {
        return;
    }
    let launch = thread_ids();
    let sys = quiesced_deployment();
    let before = started_threads(&launch);
    std::thread::sleep(Duration::from_millis(300));
    let after = started_threads(&launch);
    let moved: Vec<(&String, u64)> = before
        .iter()
        .filter(|(name, _)| !name.starts_with(&format!("{TIMED_SAMPLER}#")))
        .map(|(name, n)| (name, after.get(name).map_or(0, |a| a - n)))
        .collect();
    println!("thread wake-ups over a 300 ms idle window: {moved:?}");
    assert!(moved.iter().all(|(_, d)| *d <= 5), "idle threads woke: {moved:?}");

    let mut census: Vec<String> = before
        .keys()
        .map(|key| {
            let name = key.rsplit_once('#').unwrap().0;
            name.chars().map(|c| if c.is_ascii_digit() { 'N' } else { c }).collect()
        })
        .collect();
    census.sort();
    let golden: Vec<&str> = include_str!("golden/thread_names.txt").lines().collect();
    assert_eq!(
        census, golden,
        "the deployment's threads drifted from tests/golden/thread_names.txt"
    );
    sys.shutdown();
}

/// A dropped deployment takes every thread it started with it: no hub
/// registration keeps its components (and so the fabric) alive.
#[cfg(target_os = "linux")]
#[test]
fn a_dropped_deployment_leaves_no_thread_behind() {
    if !in_child("a_dropped_deployment_leaves_no_thread_behind") {
        return;
    }
    let launch = thread_ids();
    drop(quiesced_deployment());
    // A joined thread's tid can linger in /proc until the kernel reaps it.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut left = started_threads(&launch);
    while !left.is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        left = started_threads(&launch);
    }
    assert!(left.is_empty(), "threads outlived their deployment: {left:?}");
}

/// With every follower loop parked on its frontier, `shutdown` returns
/// promptly: the stop paths wake the frontiers. The loops' backstop wait
/// is 1 s, so a shutdown that relied on it would take about that long.
#[cfg(target_os = "linux")]
#[test]
fn shutdown_wakes_parked_followers() {
    let sys = quiesced_deployment();
    let t0 = std::time::Instant::now();
    sys.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?} with all loops parked");
}
