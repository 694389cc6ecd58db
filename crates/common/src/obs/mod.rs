//! Workspace-wide observability: tracing, the unified metrics hub, and
//! snapshot exporters.
//!
//! Socrates separates durability (log tier) from availability (caches),
//! which makes "where did this commit / this read spend its time" and
//! "how far does each tier lag the hardened LSN" the two questions that
//! matter when diagnosing the system. This module answers both:
//!
//! - [`stage`] names the stages of the commit pipeline (engine → harden
//!   → destage → page-server apply → secondary apply) and of the
//!   remote-read pipeline (cache probe → single-flight wait → RBIO →
//!   server serve → sink) and keeps one always-on hub histogram
//!   per stage — the *aggregate* answer;
//! - [`ctx`] is the *exemplar* answer: a compact [`TraceCtx`] minted at
//!   commit/GetPage entry for 1-in-N requests and threaded across every
//!   tier boundary (WAL blocks, XLOG feed, RBIO envelopes, page-server
//!   serve), with per-tier child spans recorded into the one lock-free
//!   [`SpanRing`] and exported as a Chrome trace-event flamegraph;
//! - [`hub`] is the named-metric registry every tier registers its
//!   existing counters/gauges/histograms into, keyed by
//!   [`NodeId`](crate::ids::NodeId) + metric name;
//! - [`history`] retains periodic hub snapshots in a fixed ring so
//!   [`slo`] can evaluate declarative objectives ("commit_p99 < 5ms
//!   over 30s") with burn rates, and [`blackbox`] snapshots the span
//!   ring plus the hub into a postmortem bundle on panic, chaos
//!   violation, or SLO breach;
//! - [`export`] renders hub snapshots as Prometheus text or JSON (and
//!   span snapshots as Chrome trace JSON), and [`testjson`] is the
//!   minimal parser tests use to validate them;
//! - [`hdr`] is the HDR-style log-linear histogram the hub's histograms
//!   sit on: lock-free recording, bounded relative error all the way
//!   into the tail.
//!
//! The LSN-lag watcher thread that times the asynchronous commit stages
//! and feeds the lag gauges lives in the `socrates` core crate (it needs
//! the deployment's watermarks); this module stays dependency-free so
//! every tier can use it.

pub mod blackbox;
pub mod ctx;
pub mod export;
pub mod hdr;
pub mod history;
pub mod hub;
pub mod slo;
pub mod stage;
pub mod testjson;

pub use blackbox::{BlackboxRecorder, BlackboxSources, BLACKBOX_VERSION};
pub use ctx::{SpanEvent, SpanKind, SpanRing, TraceCtx, SPAN_CAPACITY};
pub use export::{chrome_trace_json, json_snapshot, prometheus_text, slowest_spans};
pub use hdr::{HdrHistogram, HdrSnapshot};
pub use history::{HistorySample, HubHistory};
pub use hub::{MetricSample, MetricSnapshot, MetricValue, MetricsHub};
pub use slo::{SloEngine, SloSpec, SloStatus};
pub use stage::{MarkQueue, ReadStage, Stage, StageHists, StageSet};
