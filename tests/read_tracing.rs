//! Integration: read-path tracing.
//!
//! Drives a deployment through a commit workload, fails over so the
//! replacement primary's reads are all cache misses, and interrogates
//! both halves of the tracing layer end to end. Aggregates: every compute
//! node — primary *and* secondary — counts each of its remote fetches in
//! all five `read_stage_*` hub histograms, sampled or not, and both
//! exporters carry them. Exemplars: under `trace_sample = 1` every miss
//! is a `getpage` span tree with all five stage children, a hedged read's
//! outcome is readable from its spans, and under `trace_sample = 0` the
//! ring stays empty.

use socrates::{Socrates, SocratesConfig};
use socrates_common::obs::ctx::{unpack_coalesce, HEDGE_LOST, HEDGE_WON};
use socrates_common::obs::{
    json_snapshot, prometheus_text, slowest_spans, testjson, MetricSnapshot, MetricValue,
    ReadStage, SpanEvent, SpanKind, StageSet,
};
use socrates_common::NodeId;
use socrates_engine::value::{ColumnType, Schema, Value};
use socrates_rbio::HedgeConfig;
use std::time::Duration;

const ROWS: u64 = 150;

/// Wide enough that the table spans a dozen leaves, so a cold read is a
/// dozen misses rather than two.
fn value(i: u64) -> Value {
    Value::Str(format!("{i:0>400}"))
}

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Str)], 1)
}

/// Launch with `config`, commit `ROWS` rows, quiesce, fail over, and
/// cold-scan the table on the new primary (and on secondary 0, when there
/// is one) so every touched page goes over GetPage@LSN.
fn cold_read_deployment(config: SocratesConfig) -> Socrates {
    let sys = Socrates::launch(config).unwrap();
    {
        let primary = sys.primary().unwrap();
        let db = primary.db();
        db.create_table("t", schema()).unwrap();
        for i in 0..ROWS {
            let h = db.begin();
            db.insert(&h, "t", &[Value::Int(i as i64), value(i)]).unwrap();
            db.commit(h).unwrap();
        }
        let frontier = primary.pipeline().hardened_lsn();
        sys.fabric().wait_applied(frontier, Duration::from_secs(30)).unwrap();
        if let Ok(sec) = sys.secondary(0) {
            sec.wait_applied(frontier, Duration::from_secs(30)).unwrap();
        }
    }
    sys.kill_primary();
    let p = sys.failover().unwrap();
    let r = p.db().begin();
    assert_eq!(p.db().scan_table(&r, "t", usize::MAX).unwrap().len(), ROWS as usize);
    if let Ok(sec) = sys.secondary(0) {
        let r = sec.db().begin();
        assert_eq!(sec.db().scan_table(&r, "t", usize::MAX).unwrap().len(), ROWS as usize);
    }
    sys
}

/// Assert that each of `node`'s five read-stage histograms holds exactly
/// one sample per remote fetch the node made (every fetch in these runs
/// goes through its scheduler and succeeds, so that is `sched_submitted`).
fn assert_stage_counts_match_fetches(snapshot: &MetricSnapshot, node: NodeId) {
    let fetches = match snapshot.get(node, "sched_submitted") {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{node} sched_submitted missing or wrong type: {other:?}"),
    };
    assert!(fetches > 0, "{node} made no remote fetch");
    for stage in ReadStage::ALL {
        let name = format!("read_stage_{}_us", stage.name());
        match snapshot.get(node, &name) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, fetches, "{node} {name} count != its remote fetches")
            }
            other => panic!("{node} {name} missing or wrong type: {other:?}"),
        }
    }
}

#[test]
fn miss_path_spans_are_complete_and_exported() {
    let sys =
        cold_read_deployment(SocratesConfig::fast_test().with_secondaries(1).with_trace_sample(1));

    // Aggregates: one sample per remote fetch in every stage histogram of
    // every compute node — the secondary's misses are attributed too.
    let snapshot = sys.hub().snapshot();
    for node in [NodeId::PRIMARY, NodeId::secondary(0)] {
        assert_stage_counts_match_fetches(&snapshot, node);
    }

    // Both exporters carry the stage histograms.
    let prom = prometheus_text(&snapshot);
    assert!(prom.contains("read_stage_net_rbio_us"), "prometheus export missing read stages");
    let json = testjson::parse(&json_snapshot(&snapshot)).expect("json export parses");
    let has_stage = json
        .get("metrics")
        .and_then(|m| m.as_array())
        .map(|samples| {
            samples.iter().any(|s| {
                s.get("metric").and_then(|n| n.as_str()) == Some("read_stage_server_serve_us")
            })
        })
        .unwrap_or(false);
    assert!(has_stage, "json export missing read stages");

    // Exemplars. Point reads on a fresh cold primary: one reader and no
    // scan hints, so every miss is a lone demand fetch with its own root.
    let ring = &sys.fabric().spans;
    let mark_ns = ring.now_ns();
    sys.kill_primary();
    let p = sys.failover().unwrap();
    let r = p.db().begin();
    for i in 0..ROWS {
        assert!(p.db().get(&r, "t", &[Value::Int(i as i64)]).unwrap().is_some());
    }
    let spans: Vec<SpanEvent> =
        ring.spans().into_iter().filter(|s| s.start_ns >= mark_ns).collect();
    let roots: Vec<&SpanEvent> = spans.iter().filter(|s| s.kind == SpanKind::GetPage).collect();
    assert!(roots.len() >= 5, "only {} sampled misses", roots.len());
    let mut unattributed_pct: Vec<u64> = Vec::new();
    for root in &roots {
        assert_eq!((root.parent_id, root.node), (0, NodeId::PRIMARY));
        let child = |kind: SpanKind| -> &SpanEvent {
            let mut of_kind =
                spans.iter().filter(|s| s.parent_id == root.span_id && s.kind == kind);
            let first = of_kind.next().unwrap_or_else(|| {
                panic!("getpage of page {} has no {} child", root.arg, kind.name())
            });
            assert!(of_kind.next().is_none(), "page {}: two {} children", root.arg, kind.name());
            assert_eq!(first.trace_id, root.trace_id);
            first
        };
        let (net, serve) = (child(SpanKind::RbioNet), child(SpanKind::PsServe));
        assert!(serve.dur_ns <= net.dur_ns, "the serve runs inside the round trip");
        let queue = child(SpanKind::GetPageQueue);
        assert_eq!(unpack_coalesce(queue.arg), (1, false), "a lone, un-coalesced fetch");
        // The four sequential legs (the server's serve is nested in the
        // round trip) fit inside the root — nothing is counted twice; 4 ns
        // covers each child's clamp to ≥ 1 ns. What they leave over is
        // hand-off time no stage owns (scheduler dispatch, waking the
        // reader).
        let legs: u64 = [SpanKind::GetPageProbe, SpanKind::GetPageSink]
            .map(|k| child(k).dur_ns)
            .iter()
            .sum::<u64>()
            + queue.dur_ns
            + net.dur_ns;
        assert!(
            legs <= root.dur_ns + 4,
            "page {}: stages {legs} ns > root {}",
            root.arg,
            root.dur_ns
        );
        unattributed_pct.push((root.dur_ns + 4 - legs) * 100 / root.dur_ns);
    }
    // Stated residual: on these instant devices the hand-off is about a
    // third of a miss, and a descheduled reader can stretch it without
    // bound, so only the best-attributed miss is held to a figure — its
    // four legs cover at least 60 % of the root.
    unattributed_pct.sort_unstable();
    assert!(unattributed_pct[0] <= 40, "unattributed share of each root: {unattributed_pct:?} %");

    // "Slowest reads" is a sort of the retained roots, slowest first.
    let slow = slowest_spans(&spans, SpanKind::GetPage, 8);
    assert!(!slow.is_empty());
    for pair in slow.windows(2) {
        assert!(pair[0].dur_ns >= pair[1].dur_ns, "slowest reads out of order");
    }
    sys.shutdown();
}

#[test]
fn hedged_reads_stamp_span_outcome() {
    // A zero hedge delay fires a hedge on effectively every remote call;
    // the second partition replica gives the hedge somewhere to go.
    let mut config = SocratesConfig::fast_test().with_trace_sample(1);
    config.hedge = HedgeConfig {
        enabled: true,
        min_delay: Duration::ZERO,
        max_delay: Duration::ZERO,
        ..HedgeConfig::default()
    };
    let sys = Socrates::launch(config).unwrap();
    {
        let primary = sys.primary().unwrap();
        let db = primary.db();
        db.create_table("t", schema()).unwrap();
        for i in 0..ROWS {
            let h = db.begin();
            db.insert(&h, "t", &[Value::Int(i as i64), value(i)]).unwrap();
            db.commit(h).unwrap();
        }
        let frontier = primary.pipeline().hardened_lsn();
        sys.fabric().wait_applied(frontier, Duration::from_secs(30)).unwrap();
    }
    let pid = sys.fabric().partition_ids()[0];
    sys.fabric().add_partition_replica(pid).unwrap();
    sys.kill_primary();
    let p = sys.failover().unwrap();
    let r = p.db().begin();
    assert_eq!(p.db().scan_table(&r, "t", usize::MAX).unwrap().len(), ROWS as usize);

    let route = &sys.fabric().partition(pid).unwrap().route;
    assert!(route.hedges_fired().get() > 0, "zero-delay hedge never fired");

    // Hedge outcomes are readable from the spans: the `rbio.net` child of
    // a fetch that hedged carries Won or Lost, and at least one does.
    let hedged: Vec<u64> = sys
        .fabric()
        .spans
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::RbioNet && s.arg != 0)
        .map(|s| s.arg)
        .collect();
    assert!(!hedged.is_empty(), "no rbio.net span carries a hedge outcome");
    assert!(hedged.iter().all(|a| [HEDGE_LOST, HEDGE_WON].contains(a)), "{hedged:?}");

    // The hedge counters surface in the hub under the route's first node.
    let snapshot = sys.hub().snapshot();
    match snapshot.get(NodeId::page_server(0), "hedge_fired") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0),
        other => panic!("hedge_fired missing or wrong type: {other:?}"),
    }
    assert!(
        matches!(snapshot.get(NodeId::page_server(0), "hedge_won"), Some(MetricValue::Counter(_))),
        "hedge_won not registered"
    );
    assert!(
        matches!(
            snapshot.get(NodeId::page_server(0), "hedge_delay_us"),
            Some(MetricValue::Gauge(_))
        ),
        "hedge_delay_us not registered"
    );
    sys.shutdown();
}

#[test]
fn unsampled_reads_record_no_spans_but_stage_histograms_count() {
    // fast_test leaves trace_sample = 0.
    let sys = cold_read_deployment(SocratesConfig::fast_test().with_secondaries(1));
    let ring = &sys.fabric().spans;
    assert!(!ring.is_enabled());
    assert_eq!(ring.spans_recorded(), 0);
    assert!(ring.spans().is_empty());

    // The aggregates do not depend on sampling.
    let snapshot = sys.hub().snapshot();
    for node in [NodeId::PRIMARY, NodeId::secondary(0)] {
        assert_stage_counts_match_fetches(&snapshot, node);
    }
    sys.shutdown();
}
