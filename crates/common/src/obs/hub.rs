//! The unified metrics hub.
//!
//! Every tier keeps its metrics in private structs of lock-free
//! primitives ([`Counter`], [`Gauge`], [`Histogram`]) — that discipline
//! stays. The hub adds a *registry* layer on top: services register each
//! metric under `(NodeId, name)` either by sharing an `Arc` to the
//! primitive or by providing a sampling closure over whatever they
//! already own. Registration happens once at startup and touches no hot
//! path; [`MetricsHub::snapshot`] walks the registry and samples every
//! source, producing the uniform view the exporters and `socmon` render.
//!
//! Metric naming convention: the full name of a sample is
//! `tier.index.metric` (e.g. `pageserver.0.records_applied`), derived
//! from the owning [`NodeId`] plus the registered metric name.

use crate::ids::NodeId;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a metric's current value comes from at snapshot time.
enum Source {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
    HistogramFn(Box<dyn Fn() -> HistogramSnapshot + Send + Sync>),
}

impl Source {
    fn sample(&self) -> MetricValue {
        match self {
            Source::Counter(c) => MetricValue::Counter(c.get()),
            Source::Gauge(g) => MetricValue::Gauge(g.get()),
            Source::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            Source::CounterFn(f) => MetricValue::Counter(f()),
            Source::GaugeFn(f) => MetricValue::Gauge(f()),
            Source::HistogramFn(f) => MetricValue::Histogram(f()),
        }
    }
}

/// A sampled metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time signed level.
    Gauge(i64),
    /// Distribution summary.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Prometheus metric type keyword for this value.
    pub fn prom_type(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "summary",
        }
    }
}

/// One `(node, name, value)` triple in a hub snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// The node that owns the metric.
    pub node: NodeId,
    /// The metric's short name (last segment of the full name).
    pub name: String,
    /// The sampled value.
    pub value: MetricValue,
}

impl MetricSample {
    /// The full `tier.index.metric` name.
    pub fn full_name(&self) -> String {
        format!("{}.{}.{}", self.node.kind.tier_name(), self.node.index, self.name)
    }
}

/// A point-in-time view of every registered metric, sorted by
/// `(node, name)` so renderings are stable.
#[derive(Clone, Debug, Default)]
pub struct MetricSnapshot {
    /// All samples, sorted by node then metric name.
    pub samples: Vec<MetricSample>,
}

impl MetricSnapshot {
    /// The sample for `node`/`name`, if registered.
    pub fn get(&self, node: NodeId, name: &str) -> Option<&MetricValue> {
        self.samples.iter().find(|s| s.node == node && s.name == name).map(|s| &s.value)
    }

    /// All samples belonging to `node`.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &MetricSample> {
        self.samples.iter().filter(move |s| s.node == node)
    }

    /// The distinct nodes present in the snapshot, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.samples.iter().map(|s| s.node).collect();
        nodes.dedup(); // samples are sorted by node already
        nodes
    }
}

/// The hub's registry plus the duplicate-registration ledger.
#[derive(Default)]
struct HubInner {
    sources: BTreeMap<(NodeId, String), Source>,
    /// `(node, name)` pairs that were registered twice without an
    /// intervening [`MetricsHub::unregister_node`]. The first source
    /// wins; the duplicate is recorded (and warned about) instead of
    /// silently shadowing it — soclint's metric-name rule and every
    /// exporter assume `tier.index.metric` names are unique.
    duplicates: Vec<(NodeId, String)>,
}

/// The workspace-wide metric registry. Cheap to clone (`Arc` inside);
/// every tier of a deployment registers into the same hub.
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Arc<RwLock<HubInner>>,
}

impl MetricsHub {
    /// New empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    fn insert(&self, node: NodeId, name: &str, source: Source) {
        let mut inner = self.inner.write();
        match inner.sources.entry((node, name.to_string())) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(source);
            }
            std::collections::btree_map::Entry::Occupied(_) => {
                // Keep the first registration: a shadowed source would
                // silently freeze the metric it displaced. Nodes that
                // legitimately come back (failover, restart_partition)
                // call `unregister_node` first, which frees the name.
                eprintln!(
                    "[metrics] duplicate registration of {}.{}.{name} ignored (first wins)",
                    node.kind.tier_name(),
                    node.index
                );
                inner.duplicates.push((node, name.to_string()));
            }
        }
    }

    /// `(node, name)` pairs rejected as duplicates since the last
    /// `unregister_node` of that node. Non-empty means a registration
    /// bug: two sources raced for one `tier.index.metric` name.
    pub fn duplicate_registrations(&self) -> Vec<(NodeId, String)> {
        self.inner.read().duplicates.clone()
    }

    /// Register a shared [`Counter`].
    pub fn register_counter(&self, node: NodeId, name: &str, counter: Arc<Counter>) {
        self.insert(node, name, Source::Counter(counter));
    }

    /// Register a shared [`Gauge`].
    pub fn register_gauge(&self, node: NodeId, name: &str, gauge: Arc<Gauge>) {
        self.insert(node, name, Source::Gauge(gauge));
    }

    /// Register a shared [`Histogram`].
    pub fn register_histogram(&self, node: NodeId, name: &str, hist: Arc<Histogram>) {
        self.insert(node, name, Source::Histogram(hist));
    }

    /// Register a counter sampled through a closure — how services expose
    /// counters embedded in their existing metrics structs without
    /// changing a field type.
    pub fn register_counter_fn(
        &self,
        node: NodeId,
        name: &str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.insert(node, name, Source::CounterFn(Box::new(f)));
    }

    /// Register a gauge sampled through a closure (LSN lags, queue depths
    /// derived from watermarks).
    pub fn register_gauge_fn(
        &self,
        node: NodeId,
        name: &str,
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.insert(node, name, Source::GaugeFn(Box::new(f)));
    }

    /// Register a histogram sampled through a closure.
    pub fn register_histogram_fn(
        &self,
        node: NodeId,
        name: &str,
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.insert(node, name, Source::HistogramFn(Box::new(f)));
    }

    /// Drop every metric registered by `node` — called when a node leaves
    /// the deployment (secondary removed, page server killed) so its
    /// closures (which capture the node's state) are released.
    pub fn unregister_node(&self, node: NodeId) {
        let mut inner = self.inner.write();
        inner.sources.retain(|(n, _), _| *n != node);
        // The node's names are free again; stale duplicate records would
        // make a clean re-registration after failover look like a bug.
        inner.duplicates.retain(|(n, _)| *n != node);
    }

    /// Drop the subset of `node`'s metrics whose name matches `pred`.
    /// Needed when a node id is shared by sources with different lifetimes
    /// (e.g. the primary process's metrics vs. deployment-lifetime trace
    /// histograms that are merely *exported* under the primary): a failover
    /// must free the former so the successor can re-register, while the
    /// latter survive.
    pub fn unregister_where(&self, node: NodeId, pred: impl Fn(&str) -> bool) {
        let mut inner = self.inner.write();
        inner.sources.retain(|(n, name), _| *n != node || !pred(name));
        inner.duplicates.retain(|(n, name)| *n != node || !pred(name));
    }

    /// Drop every registration, releasing what the closures captured — a
    /// dropped deployment's components hold the fabric that owns this hub,
    /// a cycle only clearing breaks.
    pub fn clear(&self) {
        *self.inner.write() = HubInner::default();
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.read().sources.len()
    }

    /// Whether the hub has no registrations.
    pub fn is_empty(&self) -> bool {
        self.inner.read().sources.is_empty()
    }

    /// Sample every registered source.
    pub fn snapshot(&self) -> MetricSnapshot {
        let inner = self.inner.read();
        let samples = inner
            .sources
            .iter()
            .map(|((node, name), source)| MetricSample {
                node: *node,
                name: name.clone(),
                value: source.sample(),
            })
            .collect();
        // BTreeMap iteration is already (node, name)-sorted.
        MetricSnapshot { samples }
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn register_sample_and_full_names() {
        let hub = MetricsHub::new();
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let h = Arc::new(Histogram::new());
        hub.register_counter(NodeId::XLOG, "blocks_offered", Arc::clone(&c));
        hub.register_gauge(NodeId::page_server(0), "apply_lag_bytes", Arc::clone(&g));
        hub.register_histogram(NodeId::PRIMARY, "commit_latency", Arc::clone(&h));
        c.add(3);
        g.set(-7);
        h.record(100);

        let snap = hub.snapshot();
        assert_eq!(snap.samples.len(), 3);
        assert_eq!(snap.get(NodeId::XLOG, "blocks_offered"), Some(&MetricValue::Counter(3)));
        assert_eq!(
            snap.get(NodeId::page_server(0), "apply_lag_bytes"),
            Some(&MetricValue::Gauge(-7))
        );
        match snap.get(NodeId::PRIMARY, "commit_latency") {
            Some(MetricValue::Histogram(s)) => assert_eq!(s.count, 1),
            other => panic!("unexpected {other:?}"),
        }
        let names: Vec<String> = snap.samples.iter().map(|s| s.full_name()).collect();
        assert!(names.contains(&"xlog.0.blocks_offered".to_string()));
        assert!(names.contains(&"pageserver.0.apply_lag_bytes".to_string()));
        assert!(names.contains(&"primary.0.commit_latency".to_string()));
    }

    #[test]
    fn closure_sources_sample_lazily() {
        let hub = MetricsHub::new();
        let v = Arc::new(AtomicU64::new(0));
        let v2 = Arc::clone(&v);
        hub.register_counter_fn(NodeId::XSTORE, "reads", move || v2.load(Ordering::Relaxed));
        hub.register_gauge_fn(NodeId::XSTORE, "lag", || 42);
        assert_eq!(hub.snapshot().get(NodeId::XSTORE, "reads"), Some(&MetricValue::Counter(0)));
        v.store(9, Ordering::Relaxed);
        let snap = hub.snapshot();
        assert_eq!(snap.get(NodeId::XSTORE, "reads"), Some(&MetricValue::Counter(9)));
        assert_eq!(snap.get(NodeId::XSTORE, "lag"), Some(&MetricValue::Gauge(42)));
    }

    #[test]
    fn unregister_node_removes_only_that_node() {
        let hub = MetricsHub::new();
        hub.register_gauge_fn(NodeId::secondary(0), "lag", || 1);
        hub.register_gauge_fn(NodeId::secondary(1), "lag", || 2);
        hub.register_gauge_fn(NodeId::secondary(1), "queue", || 3);
        assert_eq!(hub.len(), 3);
        hub.unregister_node(NodeId::secondary(1));
        assert_eq!(hub.len(), 1);
        assert!(hub.snapshot().get(NodeId::secondary(0), "lag").is_some());
        assert!(hub.snapshot().get(NodeId::secondary(1), "lag").is_none());
    }

    #[test]
    fn snapshot_sorted_and_node_listing() {
        let hub = MetricsHub::new();
        hub.register_gauge_fn(NodeId::page_server(1), "b", || 0);
        hub.register_gauge_fn(NodeId::page_server(0), "z", || 0);
        hub.register_gauge_fn(NodeId::page_server(0), "a", || 0);
        hub.register_gauge_fn(NodeId::PRIMARY, "m", || 0);
        let snap = hub.snapshot();
        let keys: Vec<(NodeId, String)> =
            snap.samples.iter().map(|s| (s.node, s.name.clone())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(
            snap.nodes(),
            vec![NodeId::PRIMARY, NodeId::page_server(0), NodeId::page_server(1)]
        );
        assert_eq!(snap.for_node(NodeId::page_server(0)).count(), 2);
    }

    #[test]
    fn duplicate_registration_keeps_first_and_is_recorded() {
        let hub = MetricsHub::new();
        hub.register_gauge_fn(NodeId::XLOG, "lag", || 1);
        hub.register_gauge_fn(NodeId::XLOG, "lag", || 2);
        assert_eq!(hub.len(), 1);
        // First registration wins; the shadow attempt is ledgered.
        assert_eq!(hub.snapshot().get(NodeId::XLOG, "lag"), Some(&MetricValue::Gauge(1)));
        assert_eq!(hub.duplicate_registrations(), vec![(NodeId::XLOG, "lag".to_string())]);
    }

    #[test]
    fn unregister_clears_duplicates_and_frees_names() {
        let hub = MetricsHub::new();
        hub.register_gauge_fn(NodeId::XLOG, "lag", || 1);
        hub.register_gauge_fn(NodeId::XLOG, "lag", || 2);
        assert_eq!(hub.duplicate_registrations().len(), 1);
        hub.unregister_node(NodeId::XLOG);
        assert!(hub.duplicate_registrations().is_empty());
        // A node that re-registers after leaving is not a duplicate.
        hub.register_gauge_fn(NodeId::XLOG, "lag", || 3);
        assert_eq!(hub.snapshot().get(NodeId::XLOG, "lag"), Some(&MetricValue::Gauge(3)));
        assert!(hub.duplicate_registrations().is_empty());
    }
}
