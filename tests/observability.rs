//! Integration: the end-to-end observability layer.
//!
//! Drives a full deployment (primary + secondary + page servers + XLOG)
//! through a real commit workload and then interrogates everything the
//! observability subsystem promises: per-stage commit histograms that
//! count every commit (and survive failover), a hub snapshot covering
//! every tier, lag gauges that return to zero once the system quiesces,
//! and exporters whose output parses.

use socrates::{Socrates, SocratesConfig};
use socrates_common::ids::NodeKind;
use socrates_common::obs::{
    chrome_trace_json, json_snapshot, prometheus_text, testjson, MetricValue, ReadStage, SpanKind,
    Stage, StageSet,
};
use socrates_common::NodeId;
use socrates_engine::value::{ColumnType, Schema, Value};
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};

const COMMITS: u64 = 120;

fn schema() -> Schema {
    Schema::new(vec![("id".into(), ColumnType::Int), ("v".into(), ColumnType::Str)], 1)
}

/// Launch primary + 1 secondary, drive `COMMITS` transactions, quiesce.
fn observed_deployment() -> Socrates {
    let mut config = SocratesConfig::fast_test();
    config.secondaries = 1;
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    for i in 0..COMMITS {
        let h = db.begin();
        db.insert(&h, "t", &[Value::Int(i as i64), Value::Str(format!("v{i}"))]).unwrap();
        db.commit(h).unwrap();
    }
    // Quiesce: storage catches up, XLOG destages, and the watcher gets a
    // few ticks to complete the async commit stages.
    let frontier = primary.pipeline().hardened_lsn();
    sys.fabric().wait_applied(frontier, Duration::from_secs(30)).unwrap();
    sys.secondary(0).unwrap().wait_applied(frontier, Duration::from_secs(30)).unwrap();
    sys.fabric().xlog.destage_all().unwrap();
    sys
}

/// Wait (bounded) for a predicate that the watcher thread satisfies.
fn eventually(mut pred: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sample count of `primary.<name>` in the hub.
fn primary_hist_count(sys: &Socrates, name: &str) -> u64 {
    match sys.hub().snapshot().get(NodeId::PRIMARY, name) {
        Some(MetricValue::Histogram(h)) => h.count,
        other => panic!("primary {name} missing or wrong type: {other:?}"),
    }
}

/// The 10 pinned `primary.{commit,read}_stage_*_us` names.
fn primary_stage_names() -> Vec<String> {
    let commit = Stage::ALL.iter().map(|s| format!("commit_stage_{}_us", s.name()));
    let read = ReadStage::ALL.iter().map(|s| format!("read_stage_{}_us", s.name()));
    commit.chain(read).collect()
}

#[test]
fn commit_traces_cover_every_stage() {
    let sys = observed_deployment();

    // The sync stages take exactly one sample per commit: the workload's
    // COMMITS plus the create_table.
    for stage in [Stage::Engine, Stage::Harden] {
        let name = format!("commit_stage_{}_us", stage.name());
        assert_eq!(primary_hist_count(&sys, &name), COMMITS + 1, "{name}");
    }

    // The async stages take one sample per hardened-frontier mark once the
    // watcher sees their watermark pass it — at least one after quiesce,
    // never more than one per commit.
    for stage in Stage::ASYNC {
        let name = format!("commit_stage_{}_us", stage.name());
        eventually(|| primary_hist_count(&sys, &name) >= 1, &format!("{name} to take a sample"));
        assert!(primary_hist_count(&sys, &name) <= COMMITS + 1, "{name} oversampled");
    }
    sys.shutdown();
}

#[test]
fn stage_histograms_stay_registered_and_advance_across_failover() {
    let sys = observed_deployment();
    sys.kill_primary();
    let p = sys.failover().unwrap();
    // Commit stages are deployment-lifetime: they keep their pre-failover
    // history. Read stages belong to the dead primary's cache and restart
    // (the new primary has so far only fetched its catalog) under the same
    // names.
    let before: Vec<(String, u64)> = primary_stage_names()
        .into_iter()
        .map(|name| {
            let count = primary_hist_count(&sys, &name);
            (name, count)
        })
        .collect();
    for (name, count) in &before {
        if name.starts_with("commit_stage_") {
            assert!(*count >= 1, "{name} lost its history in the failover");
        }
    }

    // A cold scan (misses) and a commit on the new primary move all 11.
    let db = p.db();
    let r = db.begin();
    assert_eq!(db.scan_table(&r, "t", usize::MAX).unwrap().len(), COMMITS as usize);
    let h = db.begin();
    db.insert(&h, "t", &[Value::Int(10_000), Value::Str("post-failover".into())]).unwrap();
    db.commit(h).unwrap();
    sys.fabric().xlog.destage_all().unwrap();
    for (name, count) in &before {
        eventually(
            || primary_hist_count(&sys, name) > *count,
            &format!("{name} to advance after failover"),
        );
    }
    assert!(sys.hub().duplicate_registrations().is_empty(), "failover re-registered a live name");
    sys.shutdown();
}

#[test]
fn hub_snapshot_covers_every_tier() {
    let sys = observed_deployment();
    let snapshot = sys.hub().snapshot();

    let tiers: Vec<NodeKind> = snapshot.nodes().iter().map(|n| n.kind).collect();
    for want in [NodeKind::Primary, NodeKind::Secondary, NodeKind::XLog, NodeKind::PageServer] {
        assert!(tiers.contains(&want), "no {} metrics in snapshot", want.tier_name());
    }

    // Spot-check one live metric per tier.
    match snapshot.get(NodeId::PRIMARY, "log_bytes_appended") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0, "no log bytes appended"),
        other => panic!("primary log_bytes_appended missing/wrong type: {other:?}"),
    }
    match snapshot.get(NodeId::XLOG, "blocks_offered") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0),
        other => panic!("xlog blocks_offered: {other:?}"),
    }
    match snapshot.get(NodeId::page_server(0), "records_applied") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0),
        other => panic!("pageserver records_applied: {other:?}"),
    }
    assert!(
        snapshot.get(NodeId::secondary(0), "applied_lsn").is_some(),
        "secondary applied_lsn missing"
    );
    // The commit-stage histograms are in the hub too.
    match snapshot.get(NodeId::PRIMARY, "commit_stage_harden_us") {
        Some(MetricValue::Histogram(h)) => assert!(h.count >= COMMITS),
        other => panic!("commit_stage_harden_us: {other:?}"),
    }
    sys.shutdown();
}

#[test]
fn lag_gauges_return_to_zero_after_quiesce() {
    let sys = observed_deployment();

    let lag_of = |node: NodeId, name: &str| -> i64 {
        match sys.hub().snapshot().get(node, name) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: {other:?}"),
        }
    };
    // Service-sampled gauges read the watermarks directly; the background
    // apply/destage threads may still be a scheduling quantum away from
    // their final advance, so allow a bounded drain.
    eventually(
        || lag_of(NodeId::page_server(0), "apply_lag_bytes") == 0,
        "pageserver apply lag to drain",
    );
    eventually(|| lag_of(NodeId::XLOG, "destage_lag_bytes") == 0, "destage lag to drain");
    // Watcher-owned gauges need a tick after the frontier settles.
    eventually(
        || lag_of(NodeId::XLOG, "max_pageserver_lag_bytes") == 0,
        "watcher pageserver lag to drain",
    );
    eventually(
        || lag_of(NodeId::XLOG, "max_secondary_lag_bytes") == 0,
        "watcher secondary lag to drain",
    );
    sys.shutdown();
}

#[test]
fn exporters_emit_parseable_output() {
    let sys = observed_deployment();
    let snapshot = sys.hub().snapshot();

    // Prometheus: every non-comment line is `name{labels} value`.
    let prom = prometheus_text(&snapshot);
    assert!(prom.contains("# TYPE socrates_log_bytes_appended counter"));
    assert!(prom.contains("tier=\"pageserver\""));
    assert!(prom.contains("tier=\"secondary\""));
    let mut lines = 0;
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("space-separated");
        let name_end = series.find('{').expect("labels start");
        assert!(series.ends_with('}'), "unterminated labels: {series}");
        assert!(
            series[..name_end].chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "illegal prometheus name: {}",
            &series[..name_end]
        );
        value.parse::<f64>().unwrap_or_else(|_| panic!("bad value {value}"));
        lines += 1;
    }
    assert!(lines > 20, "suspiciously few prometheus samples: {lines}");

    // JSON: parses, and carries the same sample count as the snapshot.
    let json = json_snapshot(&snapshot);
    let v = testjson::parse(&json).expect("valid JSON snapshot");
    let metrics = v.get("metrics").and_then(|m| m.as_array()).expect("metrics array");
    assert_eq!(metrics.len(), snapshot.samples.len());

    // The JSON snapshot carries every commit stage, counted.
    eventually(
        || Stage::ASYNC.iter().all(|s| sys.fabric().commit_stages.hist(*s).count() > 0),
        "the async commit stages to take a sample",
    );
    let v = testjson::parse(&json_snapshot(&sys.hub().snapshot())).expect("valid JSON snapshot");
    let metrics = v.get("metrics").and_then(|m| m.as_array()).expect("metrics array");
    for stage in Stage::ALL {
        let name = format!("primary.0.commit_stage_{}_us", stage.name());
        let m = metrics
            .iter()
            .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(&name))
            .unwrap_or_else(|| panic!("{name} missing from the JSON snapshot"));
        let count = m.get("value").and_then(|v| v.get("count")).and_then(|c| c.as_i64()).unwrap();
        assert!(count > 0, "{name} count {count}");
        if !Stage::ASYNC.contains(stage) {
            assert!(count > COMMITS as i64, "{name} count {count}");
        }
    }
    sys.shutdown();
}

#[test]
fn traced_commit_yields_causally_linked_spans_across_tiers() {
    // Sample every commit/GetPage into the cross-tier span ring.
    let mut config = SocratesConfig::fast_test();
    config.secondaries = 1;
    config.trace_sample = 1;
    let sys = Socrates::launch(config).unwrap();
    let primary = sys.primary().unwrap();
    let db = primary.db();
    db.create_table("t", schema()).unwrap();
    for i in 0..COMMITS {
        let h = db.begin();
        db.insert(&h, "t", &[Value::Int(i as i64), Value::Str(format!("v{i}"))]).unwrap();
        db.commit(h).unwrap();
    }
    let frontier = primary.pipeline().hardened_lsn();
    sys.fabric().wait_applied(frontier, Duration::from_secs(30)).unwrap();
    sys.secondary(0).unwrap().wait_applied(frontier, Duration::from_secs(30)).unwrap();

    // Page-server apply records its spans asynchronously; wait until at
    // least one trace has grown a page-server apply span.
    let spans_of = |trace: u64| -> Vec<socrates_common::obs::SpanEvent> {
        sys.fabric().spans.spans().into_iter().filter(|s| s.trace_id == trace).collect()
    };
    let pick_trace = || -> Option<u64> {
        sys.fabric()
            .spans
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::PsApply)
            .map(|s| s.trace_id)
            .find(|&t| spans_of(t).iter().any(|s| s.kind == SpanKind::Commit))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let trace_id = loop {
        if let Some(t) = pick_trace() {
            break t;
        }
        assert!(Instant::now() < deadline, "no trace grew a cross-tier apply span");
        std::thread::sleep(Duration::from_millis(5));
    };

    // Acceptance: one traced commit renders ≥5 causally-linked spans
    // spanning ≥3 tiers.
    let trace = spans_of(trace_id);
    assert!(trace.len() >= 5, "only {} spans in trace {trace_id}: {trace:?}", trace.len());
    let tiers: HashSet<NodeKind> = trace.iter().map(|s| s.node.kind).collect();
    assert!(tiers.len() >= 3, "trace {trace_id} spans only {tiers:?}");

    // Causal linkage: exactly one root (the commit), and every other
    // span's parent is a span of the same trace.
    let ids: HashSet<u64> = trace.iter().map(|s| s.span_id).collect();
    let roots: Vec<_> = trace.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "trace {trace_id} has {} roots", roots.len());
    assert_eq!(roots[0].kind, SpanKind::Commit);
    assert_eq!(roots[0].span_id, trace_id, "trace id is the root span id");
    for s in &trace {
        if s.parent_id != 0 {
            assert!(
                ids.contains(&s.parent_id),
                "span {:?} parents outside its trace",
                s.kind.name()
            );
        }
    }
    // The commit's stage children all surface.
    for kind in [SpanKind::CommitEngine, SpanKind::CommitHarden, SpanKind::WalHarden] {
        assert!(
            trace.iter().any(|s| s.kind == kind),
            "trace {trace_id} missing a {} span",
            kind.name()
        );
    }
    assert!(
        trace.iter().any(|s| s.node.kind == NodeKind::XLog),
        "trace {trace_id} never crossed into the XLOG tier"
    );

    // The Chrome exporter renders the same events as valid JSON with one
    // complete-event entry per span (plus thread-name metadata).
    let all = sys.fabric().spans.spans();
    let doc = testjson::parse(&chrome_trace_json(&all)).expect("valid chrome trace JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    let complete =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).count();
    assert_eq!(complete, all.len(), "one X event per recorded span");
    sys.shutdown();
}

#[test]
fn disarmed_span_ring_stays_empty() {
    // fast_test leaves trace_sample = 0: the whole workload must not
    // record a single cross-tier span or mint an id.
    let sys = observed_deployment();
    assert!(!sys.fabric().spans.is_enabled());
    assert_eq!(sys.fabric().spans.spans_recorded(), 0);
    assert!(sys.fabric().spans.spans().is_empty());
    sys.shutdown();
}

#[test]
fn node_lifecycle_updates_the_hub() {
    let sys = observed_deployment();

    // Scale out: a new secondary's metrics appear.
    let idx = sys.add_secondary().unwrap();
    let node = sys.secondary(idx).unwrap().node();
    assert!(sys.hub().snapshot().get(node, "applied_lsn").is_some());

    // Scale in: they disappear.
    sys.remove_secondary(idx).unwrap();
    assert!(
        sys.hub().snapshot().get(node, "applied_lsn").is_none(),
        "removed secondary still in hub"
    );

    // Failover: the replacement primary re-registers under the same id and
    // its counters keep counting from the new node's perspective.
    sys.kill_primary();
    let new_primary = sys.failover().unwrap();
    let db = new_primary.db();
    let h = db.begin();
    db.insert(&h, "t", &[Value::Int(10_000), Value::Str("post-failover".into())]).unwrap();
    db.commit(h).unwrap();
    match sys.hub().snapshot().get(NodeId::PRIMARY, "log_bytes_appended") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0),
        other => panic!("failover primary not registered: {other:?}"),
    }
    sys.shutdown();
}

/// socbench and the SLO grammar look hub metrics up *by string*, and a
/// missing name reads as "absent", not as a failure — so a rename
/// silently zeroes whatever consumed it. Pin the `<tier>.<metric>` set
/// (node index dropped) a `fast_test` deployment registers.
#[test]
fn hub_metric_names_are_pinned() {
    let sys = observed_deployment();
    let names: BTreeSet<String> = sys
        .hub()
        .snapshot()
        .samples
        .iter()
        .map(|s| format!("{}.{}", s.node.kind.tier_name(), s.name))
        .collect();
    sys.shutdown();

    let golden: BTreeSet<String> =
        include_str!("golden/hub_names.txt").lines().map(str::to_owned).collect();
    let only_hub: Vec<&String> = names.difference(&golden).collect();
    let only_golden: Vec<&String> = golden.difference(&names).collect();
    assert!(
        only_hub.is_empty() && only_golden.is_empty(),
        "hub names drifted from tests/golden/hub_names.txt\n\
         only in the hub: {only_hub:#?}\nonly in the golden file: {only_golden:#?}"
    );
}
