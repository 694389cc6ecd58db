//! Snapshot exporters: Prometheus text format, JSON, and Chrome
//! trace-event JSON for cross-tier spans.
//!
//! All renderers are hand-rolled (the workspace is offline; no serde)
//! and operate on a [`MetricSnapshot`], so they can be pointed at any
//! hub. Prometheus names are the `tier.index.metric` convention with
//! dots mapped to the legal `_`, the node kept as a label:
//!
//! ```text
//! # HELP socrates_records_applied Socrates metric records_applied
//! # TYPE socrates_records_applied counter
//! socrates_records_applied{tier="pageserver",node="pageserver[0]"} 1234
//! ```
//!
//! Help text and label values are escaped per the exposition format
//! (`\\` / `\n` in help, plus `\"` in labels), and the document always
//! ends with a `# EOF` marker — also for an empty hub, whose output
//! would otherwise be an empty string that scrapers flag as a failed
//! exposition. Histograms render as Prometheus summaries (quantiles +
//! `_sum` + `_count`); in JSON they are objects with the full
//! [`HistogramSnapshot`](crate::metrics::HistogramSnapshot) fields.
//!
//! [`chrome_trace_json`] turns a [`SpanRing`](super::ctx::SpanRing)
//! snapshot into the Chrome trace-event format (`chrome://tracing`,
//! Perfetto): one lane per node, complete (`ph:"X"`) events carrying the
//! causal ids in `args`, so a traced commit renders as a cross-tier
//! flamegraph.

use super::ctx::{SpanEvent, SpanKind};
use super::hub::{MetricSnapshot, MetricValue};
use crate::ids::{NodeId, NodeKind};
use std::collections::HashSet;
use std::fmt::Write;

/// Make a metric name legal for Prometheus (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn prom_sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphabetic() || ch == '_' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    out
}

/// Escape a `# HELP` text: the exposition format reserves `\` and
/// newline.
fn prom_escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: help escapes plus the quote.
fn prom_escape_label(s: &str) -> String {
    prom_escape_help(s).replace('"', "\\\"")
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn prometheus_text(snapshot: &MetricSnapshot) -> String {
    let mut out = String::new();
    // Samples are sorted by (node, name), so the same metric name recurs
    // across nodes; headers are emitted once per name.
    let mut seen_headers: HashSet<String> = HashSet::new();
    for sample in &snapshot.samples {
        let metric = format!("socrates_{}", prom_sanitize(&sample.name));
        let labels = format!(
            "tier=\"{}\",node=\"{}\"",
            prom_escape_label(sample.node.kind.tier_name()),
            prom_escape_label(&sample.node.to_string())
        );
        if seen_headers.insert(metric.clone()) {
            let _ =
                writeln!(out, "# HELP {metric} Socrates metric {}", prom_escape_help(&sample.name));
            let _ = writeln!(out, "# TYPE {metric} {}", sample.value.prom_type());
        }
        match &sample.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{metric}{{{labels}}} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{metric}{{{labels}}} {v}");
            }
            MetricValue::Histogram(h) => {
                for (q, v) in [("0.5", h.p50_us), ("0.9", h.p90_us), ("0.99", h.p99_us)] {
                    let _ = writeln!(out, "{metric}{{{labels},quantile=\"{q}\"}} {v}");
                }
                let sum = h.mean_us * h.count as f64;
                let _ = writeln!(out, "{metric}_sum{{{labels}}} {sum}");
                let _ = writeln!(out, "{metric}_count{{{labels}}} {}", h.count);
            }
        }
    }
    // Always terminate the exposition — an empty hub must still produce
    // a well-formed (non-empty) document.
    out.push_str("# EOF\n");
    out
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `f64` to JSON: finite values print as numbers; NaN/inf become null
/// (JSON has no representation for them).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render a snapshot as a JSON document:
/// `{"metrics": [{"name": "tier.index.metric", "tier": ..., "node": ...,
/// "type": ..., "value": ...}, ...]}`.
pub fn json_snapshot(snapshot: &MetricSnapshot) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, sample) in snapshot.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"tier\":\"{}\",\"node\":\"{}\",\"metric\":\"{}\"",
            json_escape(&sample.full_name()),
            sample.node.kind.tier_name(),
            json_escape(&sample.node.to_string()),
            json_escape(&sample.name),
        );
        match &sample.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}}}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    ",\"type\":\"histogram\",\"value\":{{\"count\":{},\"min_us\":{},\
                     \"max_us\":{},\"mean_us\":{},\"stddev_us\":{},\"p50_us\":{},\
                     \"p90_us\":{},\"p99_us\":{}}}}}",
                    h.count,
                    h.min_us,
                    h.max_us,
                    json_f64(h.mean_us),
                    json_f64(h.stddev_us),
                    h.p50_us,
                    h.p90_us,
                    h.p99_us,
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// The `n` slowest spans of `kind` in a ring snapshot, slowest first —
/// the "slowest reads / slowest commits" query over the sampled roots. A
/// coalesced range's shared root (recorded once per member) appears
/// once, at its longest duration.
pub fn slowest_spans(events: &[SpanEvent], kind: SpanKind, n: usize) -> Vec<SpanEvent> {
    let mut of_kind: Vec<SpanEvent> = events.iter().filter(|s| s.kind == kind).copied().collect();
    of_kind.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
    let mut seen = HashSet::new();
    of_kind.retain(|s| seen.insert(s.span_id));
    of_kind.truncate(n);
    of_kind
}

/// The Chrome trace-event "thread" lane a node renders into: fixed lanes
/// for the singleton tiers, indexed bands for the replicated ones.
fn chrome_lane(node: NodeId) -> u32 {
    match node.kind {
        NodeKind::Primary => 1,
        NodeKind::XLog => 2,
        NodeKind::XStore => 3,
        NodeKind::Fault => 4,
        NodeKind::Client => 5,
        NodeKind::PageServer => 10 + node.index,
        NodeKind::Acceptor => 50 + node.index,
        NodeKind::Secondary => 100 + node.index,
    }
}

/// Render span events in the Chrome trace-event JSON format
/// (`chrome://tracing` / Perfetto / `socmon --export-chrome`).
///
/// Each node gets a named lane; spans are complete events (`ph:"X"`,
/// microsecond timestamps) whose `args` carry the causal ids
/// (`trace`/`span`/`parent`) and the span's payload (`arg`). Duplicate `(trace, span)` pairs — a
/// coalesced GetPage range records its shared root once per member —
/// are emitted once.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    // Lane metadata: one thread_name record per distinct node.
    let mut nodes: Vec<NodeId> = Vec::new();
    for ev in events {
        if !nodes.contains(&ev.node) {
            nodes.push(ev.node);
        }
    }
    nodes.sort_by_key(|n| chrome_lane(*n));
    for node in nodes {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            chrome_lane(node),
            json_escape(&node.to_string())
        );
    }
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    for ev in events {
        if !seen.insert((ev.trace_id, ev.span_id)) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"arg\":{}}}}}",
            chrome_lane(ev.node),
            ev.kind.name(),
            ev.node.kind.tier_name(),
            json_f64(ev.start_ns as f64 / 1000.0),
            json_f64((ev.dur_ns as f64 / 1000.0).max(0.001)),
            ev.trace_id,
            ev.span_id,
            ev.parent_id,
            ev.arg,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::metrics::{Counter, Gauge, Histogram};
    use crate::obs::hub::MetricsHub;
    use std::sync::Arc;

    fn sample_hub() -> MetricsHub {
        let hub = MetricsHub::new();
        let c = Arc::new(Counter::new());
        c.add(5);
        hub.register_counter(NodeId::XLOG, "blocks_offered", c);
        let g = Arc::new(Gauge::new());
        g.set(-3);
        hub.register_gauge(NodeId::page_server(0), "apply_lag_bytes", g);
        let h = Arc::new(Histogram::new());
        h.record(10);
        h.record(30);
        hub.register_histogram(NodeId::PRIMARY, "commit_latency_us", h);
        hub
    }

    #[test]
    fn prometheus_format_shape() {
        let text = prometheus_text(&sample_hub().snapshot());
        assert!(text.contains("# TYPE socrates_blocks_offered counter"));
        assert!(text.contains("socrates_blocks_offered{tier=\"xlog\",node=\"xlog[0]\"} 5"));
        assert!(text.contains("# TYPE socrates_apply_lag_bytes gauge"));
        assert!(text
            .contains("socrates_apply_lag_bytes{tier=\"pageserver\",node=\"pageserver[0]\"} -3"));
        assert!(text.contains("# TYPE socrates_commit_latency_us summary"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("socrates_commit_latency_us_count"));
        assert!(text.ends_with("# EOF\n"));
        // Every non-comment line is name{labels} value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(series.contains('{') && series.ends_with('}'), "bad series {series}");
            assert!(value.parse::<f64>().is_ok(), "bad value {value}");
        }
    }

    #[test]
    fn prometheus_every_metric_has_help_and_type() {
        let text = prometheus_text(&sample_hub().snapshot());
        for metric in
            ["socrates_blocks_offered", "socrates_apply_lag_bytes", "socrates_commit_latency_us"]
        {
            assert!(text.contains(&format!("# HELP {metric} ")), "missing HELP for {metric}");
            assert!(text.contains(&format!("# TYPE {metric} ")), "missing TYPE for {metric}");
        }
        // Headers are emitted once even when a name recurs across nodes.
        let hub = MetricsHub::new();
        hub.register_gauge_fn(NodeId::secondary(0), "lag", || 1);
        hub.register_gauge_fn(NodeId::secondary(1), "lag", || 2);
        let text = prometheus_text(&hub.snapshot());
        assert_eq!(text.matches("# TYPE socrates_lag gauge").count(), 1);
        assert_eq!(text.matches("# HELP socrates_lag").count(), 1);
        assert_eq!(text.matches("socrates_lag{").count(), 2);
    }

    #[test]
    fn prometheus_empty_hub_is_still_a_document() {
        let text = prometheus_text(&MetricsHub::new().snapshot());
        assert_eq!(text, "# EOF\n", "an empty hub must not render as an empty body");
    }

    #[test]
    fn prometheus_escapes_help_and_labels() {
        // Metric names are caller-controlled strings; a hostile one must
        // not break the exposition.
        let hub = MetricsHub::new();
        hub.register_counter_fn(NodeId::PRIMARY, "evil\"name\\with\nbreaks", || 1);
        let text = prometheus_text(&hub.snapshot());
        // The name itself is sanitised into the metric id...
        assert!(text.contains("socrates_evil_name_with_breaks{"));
        // ...and the HELP text escapes the backslash and newline.
        assert!(text.contains("Socrates metric evil\"name\\\\with\\nbreaks"));
        assert!(!text.contains("with\nbreaks"), "raw newline must not split the HELP line");
        assert_eq!(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_format_parses() {
        let json = json_snapshot(&sample_hub().snapshot());
        let v = crate::obs::testjson::parse(&json).expect("valid JSON");
        let metrics = v.get("metrics").and_then(|m| m.as_array()).expect("metrics array");
        assert_eq!(metrics.len(), 3);
        let names: Vec<&str> = metrics.iter().filter_map(|m| m.get("name")?.as_str()).collect();
        assert!(names.contains(&"xlog.0.blocks_offered"));
        assert!(names.contains(&"pageserver.0.apply_lag_bytes"));
        assert!(names.contains(&"primary.0.commit_latency_us"));
        let lag = metrics
            .iter()
            .find(|m| m.get("metric").and_then(|x| x.as_str()) == Some("apply_lag_bytes"))
            .unwrap();
        assert_eq!(lag.get("value").and_then(|v| v.as_i64()), Some(-3));
    }

    #[test]
    fn sanitizer_and_escapes() {
        assert_eq!(prom_sanitize("a.b-c d9"), "a_b_c_d9");
        assert_eq!(prom_sanitize("9lead"), "_lead");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn chrome_trace_renders_lanes_and_causal_args() {
        use crate::obs::ctx::SpanEvent;
        let events = [
            SpanEvent {
                trace_id: 1,
                span_id: 1,
                parent_id: 0,
                kind: SpanKind::Commit,
                node: NodeId::PRIMARY,
                start_ns: 1_000,
                dur_ns: 9_000,
                arg: 77,
            },
            SpanEvent {
                trace_id: 1,
                span_id: 2,
                parent_id: 1,
                kind: SpanKind::XlogFeed,
                node: NodeId::XLOG,
                start_ns: 3_000,
                dur_ns: 2_000,
                arg: 0,
            },
            // Duplicate (trace, span): a shared root recorded twice.
            SpanEvent {
                trace_id: 1,
                span_id: 1,
                parent_id: 0,
                kind: SpanKind::Commit,
                node: NodeId::PRIMARY,
                start_ns: 1_000,
                dur_ns: 9_000,
                arg: 77,
            },
        ];
        let json = chrome_trace_json(&events);
        let doc = crate::obs::testjson::parse(&json).expect("valid JSON");
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata records + 2 deduped spans.
        assert_eq!(evs.len(), 4);
        let metas: Vec<_> =
            evs.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("M")).collect();
        assert_eq!(metas.len(), 2);
        assert!(metas
            .iter()
            .any(|m| m.get("args").unwrap().get("name").unwrap().as_str() == Some("primary[0]")));
        let spans: Vec<_> =
            evs.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).collect();
        assert_eq!(spans.len(), 2, "duplicate (trace, span) must collapse");
        let child =
            spans.iter().find(|s| s.get("name").unwrap().as_str() == Some("xlog.feed")).unwrap();
        assert_eq!(child.get("args").unwrap().get("parent").unwrap().as_i64(), Some(1));
        let root =
            spans.iter().find(|s| s.get("name").unwrap().as_str() == Some("commit")).unwrap();
        assert_eq!(root.get("args").unwrap().get("arg").unwrap().as_i64(), Some(77));
        assert_eq!(child.get("ts").unwrap().as_f64(), Some(3.0), "ns render as µs");
        // Lanes differ across tiers.
        assert_ne!(child.get("tid").unwrap().as_i64(), spans[0].get("tid").unwrap().as_i64());
    }

    #[test]
    fn slowest_spans_ranks_one_kind_and_collapses_shared_roots() {
        let ev = |span_id: u64, kind: SpanKind, dur_ns: u64| SpanEvent {
            trace_id: span_id,
            span_id,
            parent_id: 0,
            kind,
            node: NodeId::PRIMARY,
            start_ns: 0,
            dur_ns,
            arg: 0,
        };
        let events = [
            ev(1, SpanKind::GetPage, 30),
            ev(2, SpanKind::Commit, 900),
            ev(3, SpanKind::GetPage, 70),
            // A coalesced range's root, recorded by two of its members.
            ev(4, SpanKind::GetPage, 50),
            ev(4, SpanKind::GetPage, 60),
        ];
        let slow = slowest_spans(&events, SpanKind::GetPage, 2);
        let got: Vec<(u64, u64)> = slow.iter().map(|s| (s.span_id, s.dur_ns)).collect();
        assert_eq!(got, [(3, 70), (4, 60)]);
        assert_eq!(slowest_spans(&events, SpanKind::GetPage, 10).len(), 3);
        assert!(slowest_spans(&events, SpanKind::PsApply, 10).is_empty());
    }

    #[test]
    fn chrome_trace_empty_input() {
        let doc = crate::obs::testjson::parse(&chrome_trace_json(&[])).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }
}
