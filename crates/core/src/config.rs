//! Deployment configuration.
//!
//! A Socrates deployment is described by the knobs the paper's §6 calls
//! the cost/availability/performance trade-off: how many secondaries, how
//! the page space is partitioned across page servers, how big the compute
//! caches are, and which storage service implements the landing zone —
//! the single line you change to move between XIO and DirectDrive
//! (Appendix A).

use socrates_common::latency::DeviceProfile;
use socrates_common::{Error, Result};
use socrates_pageserver::PageServerConfig;
use socrates_rbio::lossy::LossyConfig;
use socrates_wal::pipeline::LogPipelineConfig;
use socrates_xlog::service::XLogConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Minimum spacing between metric-history snapshots (the time-series
/// resolution; retention ≈ `hub_history_capacity × HUB_HISTORY_INTERVAL`).
pub const HUB_HISTORY_INTERVAL: Duration = Duration::from_millis(10);
/// Spans and fault events retained per section in a blackbox bundle.
pub const BLACKBOX_LAST_N: usize = 64;
/// Sampling interval of the LSN-lag watcher thread, which times the async
/// commit stages and updates the deployment lag gauges.
pub const WATCHER_INTERVAL: Duration = Duration::from_millis(1);

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
    /// Quorum WAL acceptor count. Below 2 (the default is 1) the fabric
    /// mounts the landing zone; `>= 2` mounts the safekeeper-style quorum
    /// tier ([`socrates_wal::QuorumLog`]) in its place, with this many
    /// acceptor nodes committing at a majority.
    pub quorum_acceptors: usize,
    /// Local SSD profile (RBPEX, XLOG block cache).
    pub ssd_profile: DeviceProfile,
    /// XStore profile.
    pub xstore_profile: DeviceProfile,
    /// Network profile for GetPage@LSN traffic.
    pub net_profile: DeviceProfile,
    /// Behaviour of the primary → XLOG lossy feed.
    pub lossy_feed: LossyConfig,
    /// Log pipeline tuning.
    pub pipeline: LogPipelineConfig,
    /// XLOG tuning.
    pub xlog: XLogConfig,
    /// Page server tuning.
    pub page_server: PageServerConfig,
    /// Whether each compute node runs the I/O scheduler's background
    /// thread, which turns scan read-ahead hints into `GetPages` calls
    /// and keeps a small reserve of memory frames free. Off means no
    /// prefetch and every eviction on the missing reader; demand misses
    /// are single-flight calls on the reader's thread either way.
    pub io_scheduler: bool,
    /// Cross-tier causal tracing: sample every Nth commit / GetPage miss
    /// into the span ring (0 disables tracing entirely; the disarmed path
    /// is one immutable-field compare per sampling site and copies zeros
    /// on the wire). The per-stage commit/read histograms are always on
    /// and do not depend on this.
    pub trace_sample: u64,
    /// Metric-history ring capacity in snapshots, taken at most every
    /// [`HUB_HISTORY_INTERVAL`] (0 disables time-series telemetry, SLO
    /// evaluation, and `socmon --watch` rates).
    pub hub_history_capacity: usize,
    /// Declarative SLOs in the `common::obs::slo` grammar
    /// (`tier.index.metric[.agg] <op> <threshold> over <window>; ...`).
    /// Empty = none. Breaches flip the deployment's SLO gauge and trigger
    /// the blackbox flight recorder on the ok→breach edge.
    pub slo_spec: String,
    /// Where the blackbox flight recorder writes bundles on a
    /// chaos-invariant violation or SLO breach; `None` disarms it.
    pub blackbox_dir: Option<PathBuf>,
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
            // Sized by destage lag (see `LandingZoneConfig::default`).
            lz_capacity: 16 << 20,
            lz_profile: DeviceProfile::instant(),
            quorum_acceptors: 1,
            ssd_profile: DeviceProfile::instant(),
            xstore_profile: DeviceProfile::instant(),
            net_profile: DeviceProfile::instant(),
            lossy_feed: LossyConfig::reliable(),
            pipeline: LogPipelineConfig::default(),
            xlog: XLogConfig::default(),
            page_server: PageServerConfig::default(),
            io_scheduler: true,
            trace_sample: 0,
            hub_history_capacity: 0,
            slo_spec: String::new(),
            blackbox_dir: None,
            fault_seed: 0,
            fault_spec: String::new(),
            seed: 42,
        }
    }

    /// Calibrated device latencies — the benchmark configuration. The
    /// landing zone defaults to XIO, as in the paper's production
    /// deployment.
    pub fn realistic(seed: u64) -> SocratesConfig {
        SocratesConfig {
            secondaries: 1,
            lz_profile: DeviceProfile::xio(),
            ssd_profile: DeviceProfile::local_ssd(),
            xstore_profile: DeviceProfile::xstore(),
            net_profile: DeviceProfile::lan(),
            lossy_feed: LossyConfig::unreliable(0.01, 0.005, seed ^ 0xFEED),
            seed,
            ..SocratesConfig::fast_test()
        }
    }

    /// Swap the landing-zone storage service (the Appendix A experiment).
    pub fn with_lz_profile(mut self, profile: DeviceProfile) -> SocratesConfig {
        self.lz_profile = profile;
        self
    }

    /// Mount the quorum WAL tier: `acceptors` nodes (at least 2),
    /// committing at a majority.
    pub fn with_quorum(mut self, acceptors: usize) -> SocratesConfig {
        self.quorum_acceptors = acceptors;
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

    /// Enable or disable the I/O scheduler's background thread (the A/B
    /// knob for the cold-scan experiment).
    pub fn with_scheduler(mut self, enabled: bool) -> SocratesConfig {
        self.io_scheduler = enabled;
        self
    }

    /// Arm cross-tier causal tracing: sample every `sample`-th commit /
    /// GetPage miss into the span ring (0 disables).
    pub fn with_trace_sample(mut self, sample: u64) -> SocratesConfig {
        self.trace_sample = sample;
        self
    }

    /// Enable time-series telemetry: keep `capacity` hub snapshots taken
    /// at most every [`HUB_HISTORY_INTERVAL`].
    pub fn with_hub_history(mut self, capacity: usize) -> SocratesConfig {
        self.hub_history_capacity = capacity;
        self
    }

    /// Install declarative SLOs (`common::obs::slo` grammar). History must
    /// be enabled for them to evaluate.
    pub fn with_slo_spec(mut self, spec: &str) -> SocratesConfig {
        self.slo_spec = spec.to_string();
        self
    }

    /// Arm the blackbox flight recorder, writing bundles into `dir`.
    pub fn with_blackbox(mut self, dir: impl Into<PathBuf>) -> SocratesConfig {
        self.blackbox_dir = Some(dir.into());
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

    /// Reject a configuration the fabric cannot build, before anything is
    /// started: every failure is `Error::InvalidArgument`.
    pub fn validate(&self) -> Result<()> {
        let bad = |m: String| Err(Error::InvalidArgument(m));
        if self.pages_per_partition == 0 {
            return bad("pages_per_partition must be at least 1".into());
        }
        if self.mem_cache_pages == 0 {
            return bad("mem_cache_pages must be at least 1".into());
        }
        // The landing zone is mounted only below two quorum acceptors.
        if self.quorum_acceptors < 2 && !(1..=self.lz_replicas).contains(&self.lz_quorum) {
            return bad(format!(
                "lz_quorum {} is outside 1..={} (lz_replicas)",
                self.lz_quorum, self.lz_replicas
            ));
        }
        Ok(())
    }
}
