//! The blackbox flight recorder: a crash-time snapshot of the
//! deployment's observability state.
//!
//! When something goes wrong — a chaos-invariant violation, an SLO
//! burning — the question is always "what were the last few hundred
//! operations doing". The span ring and the fault log already retain
//! exactly that, and the hub holds every aggregate (the per-stage commit
//! and read histograms included); the blackbox recorder snapshots them
//! *together*, near in time, into one self-describing JSON bundle:
//!
//! ```text
//! target/blackbox/<reason>-<seq>.json
//! {
//!   "version": 2, "reason": "...", "seq": 0,
//!   "metrics":      [ ... full hub snapshot, json_snapshot shape ... ],
//!   "spans":        [ {"trace","span","parent","kind","node",...,"arg"} ],
//!   "fault_events": [ {"site","call","action"} ]
//! }
//! ```
//!
//! Triggers are rare by construction (a breach *edge*, not a breach
//! level; an explicit chaos-suite call), so the recorder allocates
//! freely — it is never on a hot path.

use super::ctx::SpanRing;
use super::export::{json_escape, json_f64};
use super::hub::{MetricValue, MetricsHub};
use crate::fault::FaultRegistry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The bundle schema version (bump on shape changes).
pub const BLACKBOX_VERSION: u64 = 2;

/// The ring and registries a bundle captures. Every source is optional
/// so partial deployments (unit tests, single tiers) can still record.
#[derive(Clone, Default)]
pub struct BlackboxSources {
    /// The deployment's metric hub.
    pub hub: MetricsHub,
    /// Cross-tier causal spans.
    pub spans: Option<Arc<SpanRing>>,
    /// The fault registry's fired-event log.
    pub faults: Option<FaultRegistry>,
}

/// The flight recorder. One per deployment; cheap to share.
pub struct BlackboxRecorder {
    sources: BlackboxSources,
    dir: PathBuf,
    /// Entries retained per section.
    last_n: usize,
    /// Bundle sequence number (also the filename disambiguator).
    seq: AtomicU64,
    enabled: bool,
}

impl BlackboxRecorder {
    /// A recorder writing `<dir>/<reason>-<seq>.json` bundles keeping the
    /// last `last_n` spans and fault events.
    pub fn new(
        sources: BlackboxSources,
        dir: impl Into<PathBuf>,
        last_n: usize,
    ) -> BlackboxRecorder {
        BlackboxRecorder { sources, dir: dir.into(), last_n, seq: AtomicU64::new(0), enabled: true }
    }

    /// A recorder that never writes (the default wiring).
    pub fn disabled() -> BlackboxRecorder {
        BlackboxRecorder {
            sources: BlackboxSources::default(),
            dir: PathBuf::from("target/blackbox"),
            last_n: 0,
            seq: AtomicU64::new(0),
            enabled: false,
        }
    }

    /// Whether triggers write bundles.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The bundle directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bundles written so far.
    pub fn bundles_written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed) // ordering: relaxed — diagnostic counter read
    }

    /// Render a bundle document without touching the filesystem (the
    /// testable core of [`BlackboxRecorder::trigger`]).
    pub fn render_bundle(&self, reason: &str, seq: u64) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"version\":{BLACKBOX_VERSION},\"reason\":\"{}\",\"seq\":{seq}",
            json_escape(reason)
        ));

        // Full hub snapshot, same item shape as `json_snapshot`.
        out.push_str(",\"metrics\":[");
        let snap = self.sources.hub.snapshot();
        for (i, s) in snap.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (ty, val) = match &s.value {
                MetricValue::Counter(v) => ("counter", format!("{v}")),
                MetricValue::Gauge(v) => ("gauge", format!("{v}")),
                MetricValue::Histogram(h) => (
                    "histogram",
                    format!(
                        "{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"mean_us\":{}}}",
                        h.count,
                        h.p50_us,
                        h.p99_us,
                        json_f64(h.mean_us)
                    ),
                ),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"type\":\"{ty}\",\"value\":{val}}}",
                json_escape(&s.full_name())
            ));
        }
        out.push(']');

        out.push_str(",\"spans\":[");
        let spans = self.sources.spans.as_ref().map(|s| s.spans()).unwrap_or_default();
        for (i, s) in tail(&spans, self.last_n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"kind\":\"{}\",\"node\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"arg\":{}}}",
                s.trace_id, s.span_id, s.parent_id, s.kind.name(), s.node, s.start_ns, s.dur_ns, s.arg
            ));
        }
        out.push(']');

        out.push_str(",\"fault_events\":[");
        let events = self.sources.faults.as_ref().map(|f| f.fired_log()).unwrap_or_default();
        for (i, e) in tail(&events, self.last_n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"site\":\"{}\",\"call\":{},\"action\":\"{}\"}}",
                json_escape(&e.site),
                e.call,
                e.action
            ));
        }
        out.push_str("]}");
        out
    }

    /// Snapshot every source into `<dir>/<reason>-<seq>.json`. Returns the
    /// bundle path, or `None` when disabled or the write failed (a
    /// flight recorder must never turn a crash into a worse crash).
    pub fn trigger(&self, reason: &str) -> Option<PathBuf> {
        if !self.enabled {
            return None;
        }
        // ordering: relaxed — filename uniqueness needs only RMW atomicity
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let bundle = self.render_bundle(reason, seq);
        let name: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("blackbox: cannot create {}: {e}", self.dir.display());
            return None;
        }
        let path = self.dir.join(format!("{name}-{seq}.json"));
        match std::fs::write(&path, bundle) {
            Ok(()) => {
                eprintln!("blackbox: wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("blackbox: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// The last `n` elements of `v` (all of them when `n` is 0 — a disabled
/// truncation, not a disabled section).
fn tail<T>(v: &[T], n: usize) -> &[T] {
    if n == 0 || v.len() <= n {
        v
    } else {
        &v[v.len() - n..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::obs::ctx::{SpanEvent, SpanKind};
    use crate::obs::testjson;

    fn populated_recorder() -> BlackboxRecorder {
        let hub = MetricsHub::new();
        hub.register_counter_fn(NodeId::PRIMARY, "commits", || 42);
        let spans = Arc::new(SpanRing::new(16, 1));
        let ctx = spans.try_sample().unwrap();
        spans.record_child(ctx, SpanKind::CommitHarden, NodeId::PRIMARY, 10, 5);
        spans.record(SpanEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: 0,
            kind: SpanKind::Commit,
            node: NodeId::PRIMARY,
            start_ns: 0,
            dur_ns: 20,
            arg: 100,
        });
        let faults = FaultRegistry::new(1);
        faults.install_spec("lz.write@nth:1=error:io").unwrap();
        let _ = faults.check(crate::fault::sites::LZ_WRITE);
        BlackboxRecorder::new(
            BlackboxSources { hub, spans: Some(spans), faults: Some(faults) },
            "target/blackbox-test",
            8,
        )
    }

    #[test]
    fn bundle_roundtrips_through_the_parser() {
        let bb = populated_recorder();
        let doc = testjson::parse(&bb.render_bundle("unit \"test\"", 3)).unwrap();
        assert_eq!(doc.get("version").unwrap().as_i64(), Some(BLACKBOX_VERSION as i64));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("unit \"test\""));
        assert_eq!(doc.get("seq").unwrap().as_i64(), Some(3));

        let metrics = doc.get("metrics").unwrap().as_array().unwrap();
        assert!(metrics
            .iter()
            .any(|m| m.get("name").unwrap().as_str() == Some("primary.0.commits")));

        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.get("parent").unwrap().as_i64() == Some(0)).unwrap();
        let child = spans.iter().find(|s| s.get("parent").unwrap().as_i64() != Some(0)).unwrap();
        assert_eq!(child.get("parent"), root.get("span"));
        assert_eq!(root.get("kind").unwrap().as_str(), Some("commit"));
        assert_eq!(root.get("arg").unwrap().as_i64(), Some(100), "the commit LSN rides in arg");

        let faults = doc.get("fault_events").unwrap().as_array().unwrap();
        assert_eq!(faults[0].get("site").unwrap().as_str(), Some("lz.write"));
        assert_eq!(faults[0].get("action").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn empty_sources_still_render_valid_bundles() {
        let bb = BlackboxRecorder::new(BlackboxSources::default(), "target/blackbox-test", 4);
        let doc = testjson::parse(&bb.render_bundle("empty", 0)).unwrap();
        for key in ["metrics", "spans", "fault_events"] {
            assert_eq!(doc.get(key).unwrap().as_array().unwrap().len(), 0, "{key}");
        }
    }

    #[test]
    fn disabled_recorder_never_writes() {
        let bb = BlackboxRecorder::disabled();
        assert!(!bb.is_enabled());
        assert_eq!(bb.trigger("nope"), None);
        assert_eq!(bb.bundles_written(), 0);
    }

    #[test]
    fn last_n_truncates_each_section() {
        let spans = Arc::new(SpanRing::new(64, 1));
        for _ in 0..10 {
            let ctx = spans.try_sample().unwrap();
            spans.record_root(ctx, SpanKind::Commit, NodeId::PRIMARY, 0, 1);
        }
        let bb = BlackboxRecorder::new(
            BlackboxSources { spans: Some(spans), ..BlackboxSources::default() },
            "target/blackbox-test",
            3,
        );
        let doc = testjson::parse(&bb.render_bundle("trunc", 0)).unwrap();
        let kept = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(kept.len(), 3);
        // The newest entries survive.
        assert_eq!(kept[2].get("trace").unwrap().as_i64(), Some(10));
    }

    #[test]
    fn trigger_writes_a_parseable_file_and_sanitizes_the_reason() {
        let dir = std::env::temp_dir().join(format!("bb-test-{}", std::process::id()));
        let bb = BlackboxRecorder::new(BlackboxSources::default(), &dir, 4);
        let path = bb.trigger("chaos/invariant: lag").unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("chaos-invariant--lag-0"));
        let doc = testjson::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("chaos/invariant: lag"));
        assert_eq!(bb.bundles_written(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
