//! Deployment configuration.
//!
//! A Socrates deployment is described by the knobs the paper's §6 calls
//! the cost/availability/performance trade-off: how many secondaries, how
//! the page space is partitioned across page servers, how big the compute
//! caches are, and which storage service implements the landing zone —
//! the single line you change to move between XIO and DirectDrive
//! (Appendix A).

use socrates_common::latency::{DeviceProfile, LatencyMode};
use socrates_pageserver::PageServerConfig;
use socrates_rbio::lossy::LossyConfig;
use socrates_rbio::replica::HedgeConfig;
use socrates_storage::sched::IoSchedulerConfig;
use socrates_wal::pipeline::LogPipelineConfig;
use socrates_xlog::service::XLogConfig;
use std::time::Duration;

/// Full deployment configuration.
#[derive(Clone)]
pub struct SocratesConfig {
    /// Number of read-only secondaries.
    pub secondaries: usize,
    /// Pages per page-server partition (the paper's 128 GB at 8 KiB pages;
    /// scaled down here).
    pub pages_per_partition: u64,
    /// Compute node in-memory cache capacity, in pages.
    pub mem_cache_pages: usize,
    /// Compute node RBPEX (SSD) capacity, in pages. 0 disables the tier.
    pub rbpex_pages: usize,
    /// Landing-zone replica count.
    pub lz_replicas: usize,
    /// Landing-zone write quorum.
    pub lz_quorum: usize,
    /// Landing-zone capacity in bytes.
    pub lz_capacity: u64,
    /// The storage service implementing the landing zone (XIO vs
    /// DirectDrive in the paper's Appendix A).
    pub lz_profile: DeviceProfile,
    /// Quorum WAL acceptor count. `1` (the default) keeps the classic
    /// single-writer landing zone; `>= 2` mounts the safekeeper-style
    /// quorum tier ([`socrates_wal::QuorumLog`]) in its place, with this
    /// many acceptor nodes.
    pub quorum_acceptors: usize,
    /// Acceptor acks required to commit a block. `0` = majority
    /// (`n/2 + 1`). Ignored when `quorum_acceptors` is 1.
    pub quorum_ack_required: usize,
    /// Local SSD profile (RBPEX, XLOG block cache).
    pub ssd_profile: DeviceProfile,
    /// XStore profile.
    pub xstore_profile: DeviceProfile,
    /// Network profile for GetPage@LSN traffic.
    pub net_profile: DeviceProfile,
    /// Whether modelled latencies are waited out in real time.
    pub latency_mode: LatencyMode,
    /// Behaviour of the primary → XLOG lossy feed.
    pub lossy_feed: LossyConfig,
    /// Log pipeline tuning.
    pub pipeline: LogPipelineConfig,
    /// XLOG tuning.
    pub xlog: XLogConfig,
    /// Page server tuning.
    pub page_server: PageServerConfig,
    /// Compute-side remote-read I/O scheduler (single-flight, range
    /// coalescing, prefetch). `sched.enabled = false` falls back to the
    /// blocking one-page miss path.
    pub sched: IoSchedulerConfig,
    /// Hedged-read policy for partition replica routes.
    pub hedge: HedgeConfig,
    /// Cores modelled per compute node (for CPU% reporting).
    pub compute_cores: u32,
    /// Cross-tier causal tracing: sample every Nth commit / GetPage miss
    /// into the span ring (0 disables tracing entirely; the disarmed path
    /// is one immutable-field compare per sampling site and copies zeros
    /// on the wire). The per-stage commit/read histograms are always on
    /// and do not depend on this.
    pub trace_sample: u64,
    /// Metric-history ring capacity in snapshots (0 disables time-series
    /// telemetry, SLO evaluation, and `socmon --watch` rates).
    pub hub_history_capacity: usize,
    /// Minimum spacing between history snapshots (the time-series
    /// resolution; retention ≈ `hub_history_capacity × hub_history_interval`).
    pub hub_history_interval: Duration,
    /// Declarative SLOs in the `common::obs::slo` grammar
    /// (`tier.index.metric[.agg] <op> <threshold> over <window>; ...`).
    /// Empty = none. Breaches flip the deployment's SLO gauge and trigger
    /// the blackbox flight recorder on the ok→breach edge.
    pub slo_spec: String,
    /// Whether the blackbox flight recorder writes bundles on panic,
    /// chaos-invariant violation, or SLO breach.
    pub blackbox_enabled: bool,
    /// Directory blackbox bundles are written into.
    pub blackbox_dir: std::path::PathBuf,
    /// Spans / fault events retained per section in a blackbox bundle.
    pub blackbox_last_n: usize,
    /// Sampling interval of the LSN-lag watcher thread, which times the
    /// async commit stages and updates deployment lag gauges.
    pub watcher_interval: Duration,
    /// Seed for the fault-injection registry (independent of `seed` so a
    /// fault schedule can be varied without perturbing the workload).
    pub fault_seed: u64,
    /// Fault rules installed at launch, in `common::fault` spec grammar
    /// (`site@schedule=action; ...`). Empty = no faults armed.
    pub fault_spec: String,
    /// Deterministic seed for all randomness.
    pub seed: u64,
}

impl SocratesConfig {
    /// Everything instant and lossless: unit/integration tests.
    pub fn fast_test() -> SocratesConfig {
        SocratesConfig {
            secondaries: 0,
            pages_per_partition: 1024,
            mem_cache_pages: 4096,
            rbpex_pages: 8192,
            lz_replicas: 3,
            lz_quorum: 2,
            lz_capacity: 64 << 20,
            lz_profile: DeviceProfile::instant(),
            quorum_acceptors: 1,
            quorum_ack_required: 0,
            ssd_profile: DeviceProfile::instant(),
            xstore_profile: DeviceProfile::instant(),
            net_profile: DeviceProfile::instant(),
            latency_mode: LatencyMode::Disabled,
            lossy_feed: LossyConfig::reliable(),
            pipeline: LogPipelineConfig::default(),
            xlog: XLogConfig::default(),
            page_server: PageServerConfig::default(),
            sched: IoSchedulerConfig::default(),
            hedge: HedgeConfig::disabled(),
            compute_cores: 8,
            trace_sample: 0,
            hub_history_capacity: 0,
            hub_history_interval: Duration::from_millis(100),
            slo_spec: String::new(),
            blackbox_enabled: false,
            blackbox_dir: std::path::PathBuf::from("target/blackbox"),
            blackbox_last_n: 64,
            watcher_interval: Duration::from_millis(1),
            fault_seed: 0,
            fault_spec: String::new(),
            seed: 42,
        }
    }

    /// Calibrated device latencies waited out in real time — the
    /// benchmark configuration. The landing zone defaults to XIO, as in
    /// the paper's production deployment.
    pub fn realistic(seed: u64) -> SocratesConfig {
        SocratesConfig {
            secondaries: 1,
            lz_profile: DeviceProfile::xio(),
            ssd_profile: DeviceProfile::local_ssd(),
            xstore_profile: DeviceProfile::xstore(),
            net_profile: DeviceProfile::lan(),
            latency_mode: LatencyMode::real(),
            lossy_feed: LossyConfig::unreliable(0.01, 0.005, seed ^ 0xFEED),
            hedge: HedgeConfig::default(),
            seed,
            ..SocratesConfig::fast_test()
        }
    }

    /// Swap the landing-zone storage service (the Appendix A experiment).
    pub fn with_lz_profile(mut self, profile: DeviceProfile) -> SocratesConfig {
        self.lz_profile = profile;
        self
    }

    /// Mount the quorum WAL tier: `acceptors` nodes, committing at `ack`
    /// acks (`0` = majority).
    pub fn with_quorum(mut self, acceptors: usize, ack: usize) -> SocratesConfig {
        self.quorum_acceptors = acceptors;
        self.quorum_ack_required = ack;
        self
    }

    /// Set the number of secondaries.
    pub fn with_secondaries(mut self, n: usize) -> SocratesConfig {
        self.secondaries = n;
        self
    }

    /// Set compute cache sizes (memory pages, SSD pages).
    pub fn with_cache(mut self, mem_pages: usize, rbpex_pages: usize) -> SocratesConfig {
        self.mem_cache_pages = mem_pages;
        self.rbpex_pages = rbpex_pages;
        self
    }

    /// Enable or disable the remote-read I/O scheduler (the A/B knob for
    /// the cold-scan experiment).
    pub fn with_scheduler(mut self, enabled: bool) -> SocratesConfig {
        self.sched.enabled = enabled;
        self
    }

    /// Set the hedged-read policy.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> SocratesConfig {
        self.hedge = hedge;
        self
    }

    /// Arm cross-tier causal tracing: sample every `sample`-th commit /
    /// GetPage miss into the span ring (0 disables).
    pub fn with_trace_sample(mut self, sample: u64) -> SocratesConfig {
        self.trace_sample = sample;
        self
    }

    /// Enable time-series telemetry: keep `capacity` hub snapshots taken
    /// at most every `interval`.
    pub fn with_hub_history(mut self, capacity: usize, interval: Duration) -> SocratesConfig {
        self.hub_history_capacity = capacity;
        self.hub_history_interval = interval;
        self
    }

    /// Install declarative SLOs (`common::obs::slo` grammar). History must
    /// be enabled for them to evaluate.
    pub fn with_slo_spec(mut self, spec: &str) -> SocratesConfig {
        self.slo_spec = spec.to_string();
        self
    }

    /// Arm the blackbox flight recorder, writing bundles into `dir`.
    pub fn with_blackbox(mut self, dir: impl Into<std::path::PathBuf>) -> SocratesConfig {
        self.blackbox_enabled = true;
        self.blackbox_dir = dir.into();
        self
    }

    /// Arm fault injection: `spec` uses the `common::fault` grammar and
    /// `seed` drives the probabilistic schedules.
    pub fn with_fault_spec(mut self, seed: u64, spec: &str) -> SocratesConfig {
        self.fault_seed = seed;
        self.fault_spec = spec.to_string();
        self
    }

    /// Tune the layered page-version store: seal the open L0 delta layer
    /// at `seal_bytes`, and schedule a background compaction once
    /// `compact_threshold` sealed L0s accumulate.
    pub fn with_layer_knobs(mut self, seal_bytes: u64, compact_threshold: usize) -> SocratesConfig {
        self.page_server.layer_seal_bytes = seal_bytes;
        self.page_server.layer_compact_threshold = compact_threshold;
        self
    }

    /// Set the PITR retention window in log bytes behind the applied
    /// frontier; history older than this may be garbage-collected.
    /// `u64::MAX` (the default) retains everything.
    pub fn with_retention_window(mut self, bytes: u64) -> SocratesConfig {
        self.page_server.retention_window_bytes = bytes;
        self
    }
}
