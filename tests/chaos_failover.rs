//! Chaos suite II: failover under a seeded kill/restart schedule.
//!
//! One long scenario drives the standard insert/read workload while a
//! deterministic, seed-derived schedule kills and restarts page servers
//! and the primary — including a primary failover concurrent with a
//! page-server outage. After every disruption the suite asserts the
//! Socrates invariants: every acknowledged commit is readable after
//! recovery, GetPage@LSN never serves a stale page (read-your-commits
//! verified value-by-value), the lag watcher converges once the fault
//! window closes, and the metrics hub accounts for every injected fault.
//!
//! The schedule seed comes from `CHAOS_SEED` (default 1); CI runs three
//! fixed seeds. The derived schedule and the fault registry's fired log
//! are written to `target/chaos/` so a failing run can be replayed from
//! the uploaded artifact.

use socrates::{Socrates, SocratesConfig};
use socrates_common::fault::sites;
use socrates_common::latency::DeviceProfile;
use socrates_common::obs::{slowest_spans, MetricValue, SpanKind};
use socrates_common::rng::Rng;
use socrates_common::NodeId;
use socrates_engine::value::{ColumnType, Schema, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 8;
const BATCH: i64 = 60;

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Str)], 1)
}

/// Wide enough that each round's batch spans multiple pages, so a cold
/// primary's reads always generate GetPage traffic for fault windows.
fn row(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Str(format!("chaos-{id}-{}", "pad".repeat(60)))]
}

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// One disruption per workload round.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Action {
    /// Kill every server of partition 0, then restart it from XStore.
    KillRestartPartition,
    /// Kill the primary; ADR recovery brings up a replacement.
    PrimaryFailover,
    /// Kill partition 0 AND the primary, fail over while the partition is
    /// still down (degraded reads carry recovery), then restart it.
    FailoverDuringPartitionOutage,
    /// A transient RBIO fault window over the read path.
    TransportFaultWindow,
    /// A transient landing-zone write fault window over the commit path.
    LzFaultWindow,
}

/// Derive the full action schedule from the seed. Pure function of the
/// seed — asserted identical across derivations in-test, and the thing
/// dumped to the artifact.
fn derive_schedule(seed: u64) -> Vec<Action> {
    let mut rng = Rng::new(seed ^ 0xC4A05);
    let mut actions = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let a = match rng.gen_range(5) {
            0 => Action::KillRestartPartition,
            1 => Action::PrimaryFailover,
            2 => Action::FailoverDuringPartitionOutage,
            3 => Action::TransportFaultWindow,
            _ => Action::LzFaultWindow,
        };
        // Guarantee the acceptance scenario — failover concurrent with a
        // page-server outage — and at least one fault window appear in
        // every schedule.
        actions.push(match round {
            1 => Action::TransportFaultWindow,
            r if r == ROUNDS / 2 => Action::FailoverDuringPartitionOutage,
            _ => a,
        });
    }
    actions
}

fn json_list(out: &mut String, key: &str, items: &[String], last: bool) {
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, item) in items.iter().enumerate() {
        let comma = if i + 1 == items.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{item}\"{comma}");
    }
    let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
}

/// Dump the schedule (and, once the run finishes, the fired log and the
/// slowest sampled GetPage spans) to `target/chaos/`. Written before the rounds start
/// so a failing CI run still uploads the schedule it was executing.
fn write_artifact(seed: u64, actions: &[Action], sys: Option<&Socrates>) {
    let dir = std::path::Path::new("target/chaos");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  \"seed\": {seed},");
    let acts: Vec<String> = actions.iter().map(|a| format!("{a:?}")).collect();
    json_list(&mut out, "actions", &acts, false);
    let (fired, spans) = match sys {
        Some(sys) => (
            sys.fabric().faults.fired_log().iter().map(|e| e.render()).collect(),
            slowest_spans(&sys.fabric().spans.spans(), SpanKind::GetPage, 32)
                .iter()
                .map(|s| format!("page {} node {} total_us {}", s.arg, s.node, s.dur_ns / 1_000))
                .collect(),
        ),
        None => (Vec::new(), Vec::new()),
    };
    json_list(&mut out, "fired", &fired, false);
    json_list(&mut out, "slowest_getpage", &spans, true);
    let _ = writeln!(out, "}}");
    let _ = std::fs::write(dir.join(format!("schedule-seed-{seed}.json")), out);
}

/// Hub counter for `site`; sites that never had a rule installed have no
/// counter registered, which must agree with a fired count of zero.
fn hub_fault_count(sys: &Socrates, site: &str) -> u64 {
    match sys.hub().snapshot().get(NodeId::FAULT, &format!("fault_injected_total.{site}")) {
        Some(MetricValue::Counter(v)) => *v,
        None => 0,
        other => panic!("fault counter for {site} has wrong type: {other:?}"),
    }
}

fn eventually(mut pred: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn seeded_kill_restart_schedule_preserves_all_invariants() {
    let seed = chaos_seed();
    let actions = derive_schedule(seed);
    // Same-seed-identical-schedule, asserted in-test: the schedule is a
    // pure function of the seed, so a CI failure is replayable from the
    // artifact's seed alone.
    assert_eq!(actions, derive_schedule(seed), "schedule derivation must be deterministic");
    write_artifact(seed, &actions, None);

    // Sample every GetPage so a failing run's artifact names its slowest reads.
    let config = SocratesConfig::fast_test().with_fault_spec(seed, "").with_trace_sample(1);
    let sys = Socrates::launch(config).unwrap();
    sys.primary().unwrap().db().create_table("t", schema()).unwrap();
    let mut committed: i64 = 0;
    let mut read_rng = Rng::new(seed ^ 0x5EED5);

    for (round, action) in actions.iter().enumerate() {
        // Write a batch through whatever primary currently exists. Only
        // acknowledged commits count toward the durability assertion.
        let p = sys.primary().unwrap();
        let db = p.db();
        let h = db.begin();
        for i in 0..BATCH {
            db.insert(&h, "t", &row(committed + i)).unwrap();
        }
        db.commit(h).unwrap();
        committed += BATCH;
        let hardened = p.pipeline().hardened_lsn();
        sys.fabric().wait_applied(hardened, Duration::from_secs(15)).unwrap();
        // Ship a checkpoint so degraded reads can cover this round's
        // writes if the next action takes the whole partition down.
        sys.checkpoint().unwrap();

        let fabric = sys.fabric();
        match action {
            Action::KillRestartPartition => {
                let pid = fabric.partition_ids()[0];
                fabric.kill_partition(pid).unwrap();
                fabric.restart_partition(pid).unwrap();
                fabric.wait_applied(hardened, Duration::from_secs(15)).unwrap();
            }
            Action::PrimaryFailover => {
                sys.kill_primary();
                sys.failover().unwrap();
            }
            Action::FailoverDuringPartitionOutage => {
                let pid = fabric.partition_ids()[0];
                fabric.kill_partition(pid).unwrap();
                sys.kill_primary();
                // Recovery runs with the partition down: analysis needs
                // only the log, and any page it touches degrades to the
                // checkpoint.
                sys.failover().unwrap();
                fabric.restart_partition(pid).unwrap();
                fabric.wait_applied(hardened, Duration::from_secs(15)).unwrap();
            }
            Action::TransportFaultWindow => {
                fabric
                    .faults
                    .install_spec("rbio.transport.send@every:2=error:unavailable")
                    .unwrap();
                // A cold replacement primary pages everything in through
                // the faulted transport; the client's retry budget carries
                // every read through the window.
                sys.kill_primary();
                let p = sys.failover().unwrap();
                let r = p.db().begin();
                for _ in 0..30 {
                    let id = (read_rng.gen_range(committed as u64)) as i64;
                    assert_eq!(p.db().get(&r, "t", &[Value::Int(id)]).unwrap(), Some(row(id)));
                }
                assert!(
                    fabric.faults.fired_count(sites::RBIO_SEND) > 0,
                    "round {round}: the transport window never fired"
                );
                fabric.faults.clear();
            }
            Action::LzFaultWindow => {
                fabric.faults.install_spec("lz.write@every:3=error:unavailable").unwrap();
                let p = sys.primary().unwrap();
                let db = p.db();
                // Several small commits so the window sees several LZ
                // flushes; each commit retries through the faults and,
                // once acknowledged, joins the durable set.
                for _ in 0..4 {
                    let h = db.begin();
                    for i in 0..(BATCH / 4) {
                        db.insert(&h, "t", &row(committed + i)).unwrap();
                    }
                    db.commit(h).unwrap();
                    committed += BATCH / 4;
                }
                assert!(
                    fabric.faults.fired_count(sites::LZ_WRITE) > 0,
                    "round {round}: the LZ window never fired"
                );
                fabric.faults.clear();
            }
        }

        // Invariants after every round: all acknowledged commits readable
        // with the values they were committed with (freshness — a stale
        // page would surface as a missing or old row), spot-checked plus
        // a full count.
        let p = sys.primary().unwrap();
        let r = p.db().begin();
        for _ in 0..20 {
            let id = (read_rng.gen_range(committed as u64)) as i64;
            assert_eq!(
                p.db().get(&r, "t", &[Value::Int(id)]).unwrap(),
                Some(row(id)),
                "round {round} ({action:?}): committed row {id} lost or stale"
            );
        }
        assert_eq!(
            p.db().scan_table(&r, "t", usize::MAX).unwrap().len(),
            committed as usize,
            "round {round} ({action:?}): scan disagrees with acknowledged commits"
        );
    }

    // The lag watcher converges once the fault windows close: no lag left
    // behind by killed/restarted servers.
    let lag = || match sys.hub().snapshot().get(NodeId::XLOG, "max_pageserver_lag_bytes") {
        Some(MetricValue::Gauge(v)) => *v,
        other => panic!("max_pageserver_lag_bytes: {other:?}"),
    };
    eventually(|| lag() == 0, "page-server lag to drain after the chaos schedule");

    // Every injected fault is accounted for in the hub, per site.
    let mut total = 0;
    for site in sites::ALL {
        let fired = sys.fabric().faults.fired_count(site);
        assert_eq!(hub_fault_count(&sys, site), fired, "hub miscounts {site}");
        total += fired;
    }
    assert_eq!(total, sys.fabric().faults.total_fired());
    assert!(total > 0, "the schedule should have injected at least one fault");

    write_artifact(seed, &actions, Some(&sys));
    sys.shutdown();
}

#[test]
fn failover_with_blocks_in_flight_keeps_exactly_the_acked_rows() {
    // Only the landing zone is slow (calibrated XIO writes), so with three
    // writers committing row by row the in-flight window is full most of
    // the time.
    let config = SocratesConfig { lz_profile: DeviceProfile::xio(), ..SocratesConfig::fast_test() };
    let sys = Socrates::launch(config).unwrap();
    let p = sys.primary().unwrap();
    p.db().create_table("t", schema()).unwrap();
    const WRITERS: i64 = 3;
    const STRIDE: i64 = 1_000_000;
    // Commits acknowledged to the writers (the pipeline's own commit count
    // also holds the `create_table` commit).
    let acks = Arc::new(AtomicUsize::new(0));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let p = Arc::clone(&p);
            let acks = Arc::clone(&acks);
            std::thread::spawn(move || {
                // Until a commit fails (the kill): acknowledged ids, and
                // the one id whose commit was refused.
                let mut acked = Vec::new();
                for id in w * STRIDE.. {
                    let h = p.db().begin();
                    p.db().insert(&h, "t", &row(id)).unwrap();
                    if p.db().commit(h).is_err() {
                        return (acked, id);
                    }
                    acked.push(id);
                    // ordering: relaxed — a progress count; the rows are
                    // checked through the joined `acked` lists
                    acks.fetch_add(1, Ordering::Relaxed);
                }
                unreachable!("the id space outlasts the test")
            })
        })
        .collect();
    // ordering: relaxed — a progress count (see the writers)
    eventually(|| acks.load(Ordering::Relaxed) >= 30, "commits under way");
    eventually(|| p.pipeline().blocks_in_flight() == 2, "two blocks in flight");
    // Kill with both on the devices; recovery fences them.
    sys.kill_primary();
    let p2 = sys.failover().unwrap();
    let outcomes: Vec<(Vec<i64>, i64)> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    drop(p);
    // Exactly the acknowledged rows survive: nothing acked is lost, and no
    // block that was not acknowledged is resurrected.
    let r = p2.db().begin();
    let mut acked_total = 0;
    for (w, (acked, refused)) in (0..WRITERS).zip(&outcomes) {
        for id in acked {
            assert_eq!(p2.db().get(&r, "t", &[Value::Int(*id)]).unwrap(), Some(row(*id)));
        }
        assert_eq!(
            p2.db().get(&r, "t", &[Value::Int(*refused)]).unwrap(),
            None,
            "writer {w}: refused commit of row {refused} resurrected"
        );
        acked_total += acked.len();
    }
    assert!(acked_total >= 30);
    assert_eq!(p2.db().scan_table(&r, "t", usize::MAX).unwrap().len(), acked_total);
    // The log continues past the fenced range: the new primary commits and
    // a fresh reader sees it.
    let h = p2.db().begin();
    p2.db().insert(&h, "t", &row(-1)).unwrap();
    p2.db().commit(h).unwrap();
    sys.kill_primary();
    let p3 = sys.failover().unwrap();
    let r = p3.db().begin();
    assert_eq!(p3.db().scan_table(&r, "t", usize::MAX).unwrap().len(), acked_total + 1);
    sys.shutdown();
}

#[test]
fn schedule_derivation_differs_across_seeds() {
    // Not a tautology of derive_schedule's purity: three fixed CI seeds
    // must actually exercise different schedules.
    let a = derive_schedule(1);
    let b = derive_schedule(2);
    let c = derive_schedule(3);
    assert!(a != b || b != c, "seeds 1/2/3 collapsed to one schedule");
}
