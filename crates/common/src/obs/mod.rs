//! Workspace-wide observability: commit tracing, the unified metrics
//! hub, and snapshot exporters.
//!
//! Socrates separates durability (log tier) from availability (caches),
//! which makes "where did this commit spend its time" and "how far does
//! each tier lag the hardened LSN" the two questions that matter when
//! diagnosing the system. This module answers both:
//!
//! - [`trace`] stamps each commit with per-stage durations (engine →
//!   harden → destage → page-server apply → secondary apply) in a
//!   lock-free ring of the last N traces;
//! - [`span`] does the same for the read path: every cache-miss GetPage
//!   carries a span through cache probe → scheduler queue → gather →
//!   RBIO → server serve → sink, with hedge and coalesce outcomes
//!   stamped, plus a slow-op ring for postmortems;
//! - [`hub`] is the named-metric registry every tier registers its
//!   existing counters/gauges/histograms into, keyed by
//!   [`NodeId`](crate::ids::NodeId) + metric name;
//! - [`ctx`] is the causal layer on top: a compact [`TraceCtx`] minted
//!   at commit/GetPage entry and threaded across every tier boundary
//!   (WAL blocks, XLOG feed, RBIO envelopes, page-server serve), with
//!   per-tier child spans recorded into a lock-free [`SpanRing`] and
//!   exported as a Chrome trace-event flamegraph;
//! - [`history`] retains periodic hub snapshots in a fixed ring so
//!   [`slo`] can evaluate declarative objectives ("commit_p99 < 5ms
//!   over 30s") with burn rates, and [`blackbox`] snapshots every ring
//!   plus the hub into a postmortem bundle on panic, chaos violation,
//!   or SLO breach;
//! - [`export`] renders hub snapshots as Prometheus text or JSON (and
//!   span rings as Chrome trace JSON), and [`testjson`] is the minimal
//!   parser tests use to validate them;
//! - [`hdr`] is the HDR-style log-linear histogram the hub's histograms
//!   sit on: lock-free recording, bounded relative error all the way
//!   into the tail.
//!
//! The LSN-lag watcher thread that feeds trace frontiers and lag gauges
//! lives in the `socrates` core crate (it needs the deployment's
//! watermarks); this module stays dependency-free so every tier can use
//! it.

pub mod blackbox;
pub mod ctx;
pub mod export;
pub mod hdr;
pub mod history;
pub mod hub;
pub mod slo;
pub mod span;
pub mod testjson;
pub mod trace;

pub use blackbox::{BlackboxRecorder, BlackboxSources, BLACKBOX_VERSION};
pub use ctx::{SpanEvent, SpanKind, SpanRing, TraceCtx};
pub use export::{chrome_trace_json, json_snapshot, json_trace_summary, prometheus_text};
pub use hdr::{HdrHistogram, HdrSnapshot};
pub use history::{HistorySample, HubHistory};
pub use hub::{MetricSample, MetricSnapshot, MetricValue, MetricsHub};
pub use slo::{SloEngine, SloSpec, SloStatus};
pub use span::{HedgeOutcome, ReadStage, ReadTrace, ReadTraceRecorder};
pub use trace::{CommitTrace, SpanGuard, Stage, TraceRecorder};
