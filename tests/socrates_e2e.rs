//! End-to-end integration: the full Socrates stack under a lossy XLOG
//! feed, with secondaries, page-server convergence, and cache pressure.

use socrates::{Socrates, SocratesConfig};
use socrates_engine::value::{ColumnType, Schema, Value};
use socrates_rbio::lossy::LossyConfig;
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
    let config = SocratesConfig::fast_test().with_cache(24, 0);
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema(2)).unwrap();
    let n = 2000i64;
    for batch in 0..(n / 100) {
        let h = db.begin();
        for i in 0..100 {
            db.insert(&h, "t", &row(batch * 100 + i, 2, "padpadpadpad")).unwrap();
        }
        db.commit(h).unwrap();
    }
    // Read everything back in a scattered order.
    let h = db.begin();
    let mut rng = socrates_common::rng::Rng::new(5);
    for _ in 0..500 {
        let id = rng.gen_range(n as u64) as i64;
        let got = db.get(&h, "t", &[Value::Int(id)]).unwrap().expect("present");
        assert_eq!(got, row(id, 2, "padpadpadpad"));
    }
    // The cache really was too small: remote fetches happened.
    assert!(
        primary.io().cache().stats().fetches.get() > 0,
        "expected GetPage@LSN traffic with a 24-page cache"
    );
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

/// `(thread name, voluntary context switches)` of every follower thread
/// in this process: page-server and secondary apply loops, checkpoint
/// loops and the XLOG destager. The kernel truncates names to 15 bytes,
/// which clips the secondary's `secondary[0]-apply`.
#[cfg(target_os = "linux")]
fn follower_wakeups() -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else { continue };
        let name = name.trim();
        let follower = name.ends_with("-apply")
            || name.ends_with("-ckpt")
            || name.starts_with("secondary[")
            || name == "xlog-destager";
        if !follower {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else { continue };
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches in /proc/self/task/<tid>/status");
        out.insert(format!("{name}#{}", dir.file_name().unwrap().to_string_lossy()), switches);
    }
    out
}

/// Every follower loop sleeps on the frontier it follows, so an idle
/// deployment's followers do not wake at all (a timed poll wakes each
/// hundreds of times in this window). Threads are per-process and the
/// other tests of this file run beside this one, so the measurement runs
/// in a child process that executes only this test.
#[cfg(target_os = "linux")]
#[test]
fn idle_deployment_followers_do_not_wake() {
    const CHILD: &str = "SOCRATES_E2E_IDLE_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "idle_deployment_followers_do_not_wake", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "idle child failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let sys = quiesced_deployment();
    let before = follower_wakeups();
    for expected in ["-apply#", "-ckpt#", "secondary[", "xlog-destager#"] {
        assert!(before.keys().any(|k| k.contains(expected)), "no {expected} thread: {before:?}");
    }
    std::thread::sleep(Duration::from_millis(300));
    let after = follower_wakeups();
    let moved: Vec<(&String, u64)> =
        before.iter().map(|(name, n)| (name, after.get(name).map_or(0, |a| a - n))).collect();
    println!("follower wake-ups over a 300 ms idle window: {moved:?}");
    assert!(moved.iter().all(|(_, d)| *d <= 5), "idle followers woke: {moved:?}");
    sys.shutdown();
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
