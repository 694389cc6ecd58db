//! Chaos suite III: the quorum WAL tier under a seeded acceptor-loss
//! schedule.
//!
//! One long scenario drives the standard insert workload against a
//! 3-acceptor quorum log while a deterministic, seed-derived schedule
//! kills and rejoins acceptors, opens `lz.quorum.append` error and
//! latency windows, and fails the primary over (which campaigns a new
//! term). Throughout, the suite asserts the quorum invariants:
//!
//! * **zero commit errors** — losing any single acceptor never surfaces
//!   to the workload (every `commit()` in this file unwraps);
//! * **durability-watermark monotonicity** — the quorum commit LSN never
//!   regresses, across losses, rejoins, fault windows, and elections;
//! * **rejoin convergence** — a restarted acceptor catches up to the
//!   commit watermark and its flush gauge in the hub agrees.
//!
//! The schedule seed comes from `CHAOS_SEED` (default 1); CI runs three
//! fixed seeds. The derived schedule and the fault registry's fired log
//! are written to `target/chaos/` so a failing run can be replayed from
//! the uploaded artifact.

use socrates::{Socrates, SocratesConfig};
use socrates_common::obs::MetricValue;
use socrates_common::rng::Rng;
use socrates_common::{Lsn, NodeId};
use socrates_engine::value::{ColumnType, Schema, Value};
use std::fmt::Write as _;

const ROUNDS: usize = 6;
const BATCH: i64 = 40;

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Str)], 1)
}

fn row(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Str(format!("quorum-{id}-{}", "pad".repeat(40)))]
}

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// One disruption per workload round.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Action {
    /// Kill acceptor `idx` before the batch, rejoin it after — the batch
    /// commits on the surviving majority.
    KillRejoinAcceptor(usize),
    /// Kill one acceptor, fail the primary over while it is down (the
    /// new proposer campaigns with a majority), then rejoin.
    FailoverDuringAcceptorLoss(usize),
    /// A transient `lz.quorum.append` error window: some per-acceptor
    /// appends fail; commits ride the remaining acks or retry.
    AppendErrorWindow,
    /// An `lz.quorum.append` latency window while one acceptor is
    /// rejoining: catch-up streams through the slowdown (satellite 3's
    /// live-path counterpart).
    LatencyWindowDuringRejoin(usize),
}

/// Derive the full action schedule from the seed. Pure function of the
/// seed — asserted identical across derivations in-test.
fn derive_schedule(seed: u64) -> Vec<Action> {
    let mut rng = Rng::new(seed ^ 0x0AC_CE97);
    let mut actions = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let idx = rng.gen_range(3) as usize;
        let a = match rng.gen_range(4) {
            0 => Action::KillRejoinAcceptor(idx),
            1 => Action::FailoverDuringAcceptorLoss(idx),
            2 => Action::AppendErrorWindow,
            _ => Action::LatencyWindowDuringRejoin(idx),
        };
        // Every schedule exercises the two acceptance scenarios at fixed
        // slots: a failover-during-loss, and a latency-window rejoin.
        actions.push(match round {
            1 => Action::LatencyWindowDuringRejoin(idx),
            r if r == ROUNDS / 2 => Action::FailoverDuringAcceptorLoss(idx),
            _ => a,
        });
    }
    actions
}

/// Dump the schedule (and, once the run finishes, the fired fault log)
/// to `target/chaos/`. Written before the rounds start so a failing CI
/// run still uploads the schedule it was executing.
fn write_artifact(seed: u64, actions: &[Action], sys: Option<&Socrates>) {
    let dir = std::path::Path::new("target/chaos");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  \"seed\": {seed},");
    let _ = writeln!(out, "  \"actions\": [");
    for (i, a) in actions.iter().enumerate() {
        let comma = if i + 1 == actions.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{a:?}\"{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"fired\": [");
    if let Some(sys) = sys {
        let fired = sys.fabric().faults.fired_log();
        for (i, e) in fired.iter().enumerate() {
            let comma = if i + 1 == fired.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\"{comma}", e.render());
        }
    }
    let _ = writeln!(out, "  ]\n}}");
    let _ = std::fs::write(dir.join(format!("quorum-schedule-seed-{seed}.json")), out);
}

fn acceptor_flush_gauge(sys: &Socrates, idx: usize) -> i64 {
    match sys.hub().snapshot().get(NodeId::acceptor(idx as u32), "acceptor_flush_lsn") {
        Some(MetricValue::Gauge(v)) => *v,
        other => panic!("acceptor_flush_lsn[{idx}]: {other:?}"),
    }
}

#[test]
fn seeded_acceptor_loss_schedule_commits_cleanly() {
    let seed = chaos_seed();
    let actions = derive_schedule(seed);
    assert_eq!(actions, derive_schedule(seed), "schedule derivation must be deterministic");
    write_artifact(seed, &actions, None);

    let config = SocratesConfig::fast_test().with_quorum(3).with_fault_spec(seed, "");
    let sys = Socrates::launch(config).unwrap();
    sys.primary().unwrap().db().create_table("t", schema()).unwrap();
    let quorum = sys.fabric().quorum.as_ref().expect("quorum tier mounted").clone();
    assert!(quorum.term() >= 1, "launch runs the initial election");

    let mut committed: i64 = 0;
    let mut watermark = Lsn::ZERO;
    let mut read_rng = Rng::new(seed ^ 0x0BEAD);
    // The durability watermark must be monotone at every observation
    // point; this closure is the single place it is sampled.
    let check_watermark = |label: &str, floor: &mut Lsn| {
        let now = quorum.commit_lsn();
        assert!(now >= *floor, "{label}: durability watermark regressed from {floor} to {now}");
        *floor = now;
        now
    };

    // One batch through whatever primary exists; every commit unwraps —
    // the zero-commit-errors invariant is structural in this test.
    let write_batch = |committed: &mut i64| {
        let p = sys.primary().unwrap();
        let db = p.db();
        let h = db.begin();
        for i in 0..BATCH {
            db.insert(&h, "t", &row(*committed + i)).unwrap();
        }
        db.commit(h).unwrap();
        *committed += BATCH;
    };

    for (round, action) in actions.iter().enumerate() {
        let fabric = sys.fabric();
        match *action {
            Action::KillRejoinAcceptor(idx) => {
                fabric.kill_acceptor(idx).unwrap();
                write_batch(&mut committed);
                let after_loss = check_watermark("after commit under loss", &mut watermark);
                let flushed = fabric.restart_acceptor(idx).unwrap();
                assert!(
                    flushed >= after_loss,
                    "round {round}: rejoined acceptor {idx} at {flushed}, watermark {after_loss}"
                );
                assert!(
                    acceptor_flush_gauge(&sys, idx) >= after_loss.offset() as i64,
                    "round {round}: hub flush gauge lags the rejoin"
                );
            }
            Action::FailoverDuringAcceptorLoss(idx) => {
                let term_before = quorum.term();
                fabric.kill_acceptor(idx).unwrap();
                sys.kill_primary();
                // Recovery campaigns on the surviving majority.
                sys.failover().unwrap();
                assert!(
                    quorum.term() > term_before,
                    "round {round}: failover must bump the proposer term"
                );
                check_watermark("after failover election", &mut watermark);
                write_batch(&mut committed);
                check_watermark("after post-failover commit", &mut watermark);
                fabric.restart_acceptor(idx).unwrap();
            }
            Action::AppendErrorWindow => {
                fabric.faults.install_spec("lz.quorum.append@every:4=error:unavailable").unwrap();
                write_batch(&mut committed);
                check_watermark("after commit through error window", &mut watermark);
                assert!(
                    fabric.faults.fired_count(socrates_common::fault::sites::LZ_QUORUM_APPEND) > 0,
                    "round {round}: the append window never fired"
                );
                fabric.faults.clear();
            }
            Action::LatencyWindowDuringRejoin(idx) => {
                fabric.kill_acceptor(idx).unwrap();
                write_batch(&mut committed);
                let after_loss = check_watermark("after commit under loss", &mut watermark);
                fabric.faults.install_spec("lz.quorum.append@always=latency:200us").unwrap();
                let flushed = fabric.restart_acceptor(idx).unwrap();
                assert!(
                    flushed >= after_loss,
                    "round {round}: catch-up under latency stalled at {flushed} < {after_loss}"
                );
                fabric.faults.clear();
            }
        }

        // All acknowledged rows remain readable after every round.
        let p = sys.primary().unwrap();
        let r = p.db().begin();
        for _ in 0..15 {
            let id = (read_rng.gen_range(committed as u64)) as i64;
            assert_eq!(
                p.db().get(&r, "t", &[Value::Int(id)]).unwrap(),
                Some(row(id)),
                "round {round} ({action:?}): committed row {id} lost or stale"
            );
        }
    }

    // Final convergence: with all acceptors up, every flush reaches the
    // commit watermark (catch-up leaves no straggler behind).
    let final_mark = quorum.commit_lsn();
    assert!(final_mark > Lsn::ZERO);
    for (i, acc) in quorum.acceptors().iter().enumerate() {
        assert!(acc.is_up(), "acceptor {i} left down at schedule end");
        assert!(
            acc.flush_lsn() >= final_mark,
            "acceptor {i} flush {} below final watermark {final_mark}",
            acc.flush_lsn()
        );
    }
    assert!(
        quorum.metrics().elections.get() >= 2,
        "launch election plus at least one failover campaign"
    );
    write_artifact(seed, &actions, Some(&sys));
    sys.shutdown();
}

/// The two quorum message legs the seeded schedule above never opens:
/// an `lz.quorum.ack` drop loses the append ack *after* the acceptor
/// flushed (the proposer counts the remaining majority), and an
/// `lz.quorum.vote` error during a failover campaign makes one ballot
/// leg go dark (the new term still wins on the surviving votes).
#[test]
fn ack_loss_and_vote_faults_never_surface_to_commits() {
    let config = SocratesConfig::fast_test().with_quorum(3).with_fault_spec(9, "");
    let sys = Socrates::launch(config).unwrap();
    sys.primary().unwrap().db().create_table("t", schema()).unwrap();
    let quorum = sys.fabric().quorum.as_ref().expect("quorum tier mounted").clone();
    let fabric = sys.fabric();
    let mut committed: i64 = 0;
    let write_batch = |committed: &mut i64| {
        let p = sys.primary().unwrap();
        let db = p.db();
        let h = db.begin();
        for i in 0..BATCH {
            db.insert(&h, "t", &row(*committed + i)).unwrap();
        }
        db.commit(h).unwrap();
        *committed += BATCH;
    };
    use socrates_common::fault::sites;

    // Drop every third ack: the proposer stops draining once quorum (2
    // of 3) assembles, so a single write sees only two ack checks —
    // several batches through the window guarantee the schedule fires,
    // and at most one ack per write is ever lost.
    fabric.faults.install_spec("lz.quorum.ack@every:3=drop").unwrap();
    let before = quorum.commit_lsn();
    for _ in 0..3 {
        write_batch(&mut committed);
    }
    assert!(quorum.commit_lsn() > before, "the ack window stalled the watermark");
    assert!(fabric.faults.fired_count(sites::LZ_QUORUM_ACK) > 0, "the ack window never fired");
    fabric.faults.clear();

    // One vote leg in each ballot round errors out; the campaign still
    // reaches two grants.
    let term_before = quorum.term();
    fabric.faults.install_spec("lz.quorum.vote@every:2=error:unavailable").unwrap();
    sys.kill_primary();
    sys.failover().unwrap();
    assert!(quorum.term() > term_before, "failover must bump the proposer term");
    assert!(fabric.faults.fired_count(sites::LZ_QUORUM_VOTE) > 0, "the vote fault never fired");
    fabric.faults.clear();
    write_batch(&mut committed);

    // Every acknowledged row survives both windows and the election.
    let p = sys.primary().unwrap();
    let r = p.db().begin();
    for id in 0..committed {
        assert_eq!(
            p.db().get(&r, "t", &[Value::Int(id)]).unwrap(),
            Some(row(id)),
            "committed row {id} lost across ack/vote fault windows"
        );
    }
    sys.shutdown();
}

#[test]
fn quorum_schedules_differ_across_seeds() {
    let a = derive_schedule(1);
    let b = derive_schedule(2);
    let c = derive_schedule(3);
    assert!(a != b || b != c, "seeds 1/2/3 collapsed to one schedule");
}
