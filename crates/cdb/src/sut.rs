//! System-under-test adapters: one driver, two architectures.

use socrates_common::metrics::CpuAccountant;
use socrates_engine::Database;
use socrates_hadr::Hadr;
use socrates_wal::pipeline::LogPipelineMetrics;
use std::sync::Arc;

/// What the benchmark driver needs from a deployment.
pub trait TestSystem: Send + Sync {
    /// The read-write endpoint (the primary's database).
    fn db(&self) -> &Database;
    /// The primary's modelled CPU accountant (engine work is charged here).
    fn primary_cpu(&self) -> Arc<CpuAccountant>;
    /// Log pipeline metrics (commit latency, bytes hardened).
    fn log_metrics(&self) -> &LogPipelineMetrics;
    /// Local (memory + SSD) cache hit rate of the primary, if the
    /// architecture has a partial cache (Tables 3/4). HADR reads always
    /// hit its full copy.
    fn local_hit_rate(&self) -> f64 {
        1.0
    }
    /// Reset cache statistics (called by the driver when measurement
    /// starts, so load/warmup traffic doesn't pollute hit rates).
    fn reset_cache_stats(&self) {}
}

/// Socrates adapter.
pub struct SocratesSut {
    primary: Arc<socrates::Primary>,
}

impl SocratesSut {
    /// Wrap a Socrates deployment's current primary.
    pub fn new(sys: &socrates::Socrates) -> socrates_common::Result<SocratesSut> {
        Ok(SocratesSut { primary: sys.primary()? })
    }
}

impl TestSystem for SocratesSut {
    fn db(&self) -> &Database {
        self.primary.db()
    }

    fn primary_cpu(&self) -> Arc<CpuAccountant> {
        Arc::clone(self.primary.cpu())
    }

    fn log_metrics(&self) -> &LogPipelineMetrics {
        self.primary.pipeline().metrics()
    }

    fn local_hit_rate(&self) -> f64 {
        self.primary.io().data_pages().hit_rate()
    }

    fn reset_cache_stats(&self) {
        self.primary.io().cache().stats().reset();
        self.primary.io().data_pages().reset();
    }
}

/// HADR adapter.
pub struct HadrSut {
    hadr: Arc<Hadr>,
}

impl HadrSut {
    /// Wrap an HADR deployment.
    pub fn new(hadr: Arc<Hadr>) -> HadrSut {
        HadrSut { hadr }
    }
}

impl TestSystem for HadrSut {
    fn db(&self) -> &Database {
        self.hadr.db()
    }

    fn primary_cpu(&self) -> Arc<CpuAccountant> {
        self.hadr.cpu().accountant(socrates_common::NodeId::PRIMARY)
    }

    fn log_metrics(&self) -> &LogPipelineMetrics {
        self.hadr.pipeline().metrics()
    }
}
