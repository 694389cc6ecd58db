//! The closed-loop benchmark driver.

use crate::sut::TestSystem;
use socrates_common::metrics::{CpuAccountant, Histogram, HistogramSnapshot};
use socrates_common::rng::Rng;
use socrates_common::Result;
use socrates_engine::Database;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether a transaction read or wrote (for the read/write TPS split).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnKind {
    /// Read-only transaction.
    Read,
    /// Updating transaction.
    Write,
}

/// A benchmark workload: execute one transaction against the database.
///
/// Implementations charge their modelled engine CPU to `cpu` — this is
/// how the paper's CPU%% columns are reproduced (device and network driver
/// costs are charged automatically by the I/O layers).
pub trait Workload: Send + Sync {
    /// Run one transaction. A `WriteConflict` error counts as an aborted
    /// transaction and is retried by the driver.
    fn execute_one(&self, db: &Database, rng: &mut Rng, cpu: &CpuAccountant) -> Result<TxnKind>;
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Warmup before measurement (caches fill, clocks settle).
    pub warmup: Duration,
    /// RNG seed base (each client derives its own stream).
    pub seed: u64,
}

impl DriverConfig {
    /// A quick configuration for tests.
    pub fn quick(clients: usize, millis: u64) -> DriverConfig {
        DriverConfig {
            clients,
            duration: Duration::from_millis(millis),
            warmup: Duration::from_millis(millis / 4),
            seed: 99,
        }
    }
}

/// What a run measured — the columns of the paper's tables.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Measured wall-clock duration.
    pub duration: Duration,
    /// Committed read transactions per second.
    pub read_tps: f64,
    /// Committed write transactions per second.
    pub write_tps: f64,
    /// Total committed transactions per second.
    pub total_tps: f64,
    /// Write-write conflicts (aborted + retried).
    pub conflicts: u64,
    /// End-to-end transaction latency.
    pub txn_latency: HistogramSnapshot,
    /// Log-commit latency over the window (the device-level commit cost).
    pub commit_latency: HistogramSnapshot,
    /// Log throughput over the window, MB/s.
    pub log_mb_s: f64,
    /// Primary CPU utilisation over the window, %.
    pub cpu_pct: f64,
    /// Primary local cache hit rate at the end of the window.
    pub cache_hit_rate: f64,
}

impl RunReport {
    /// One-line summary, paper-table style.
    pub fn summary(&self) -> String {
        format!(
            "cpu {:5.1}%  write {:7.0} tps  read {:7.0} tps  total {:7.0} tps  \
             log {:6.2} MB/s  commit p50 {:.0}µs  hit {:4.1}%",
            self.cpu_pct,
            self.write_tps,
            self.read_tps,
            self.total_tps,
            self.log_mb_s,
            self.commit_latency.p50_us,
            self.cache_hit_rate * 100.0
        )
    }
}

/// Cores modelled per node: the CPU% denominator of [`run`].
const MODELLED_CORES: u32 = 8;

/// Run `workload` against `system` with the given driver settings,
/// reporting CPU% against 8 modelled cores.
pub fn run(
    system: &dyn TestSystem,
    workload: Arc<dyn Workload>,
    config: &DriverConfig,
) -> RunReport {
    run_on_cores(system, workload, config, MODELLED_CORES)
}

/// [`run`], reporting CPU% against a node of `cores` modelled cores.
pub fn run_on_cores(
    system: &dyn TestSystem,
    workload: Arc<dyn Workload>,
    config: &DriverConfig,
    cores: u32,
) -> RunReport {
    let stop = Arc::new(AtomicBool::new(false));
    let measuring = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let conflicts = Arc::new(AtomicU64::new(0));
    let latency = Arc::new(Histogram::new());

    std::thread::scope(|scope| {
        for client in 0..config.clients {
            let stop = Arc::clone(&stop);
            let measuring = Arc::clone(&measuring);
            let reads = Arc::clone(&reads);
            let writes = Arc::clone(&writes);
            let conflicts = Arc::clone(&conflicts);
            let latency = Arc::clone(&latency);
            let workload = Arc::clone(&workload);
            let db = system.db();
            let cpu = system.primary_cpu();
            let seed = config.seed ^ ((client as u64) << 32);
            scope.spawn(move || {
                let mut rng = Rng::new(seed);
                // ordering: relaxed — shutdown flag poll; workers only need to notice eventually
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    match workload.execute_one(db, &mut rng, &cpu) {
                        Ok(kind) => {
                            // ordering: relaxed — window edges are approximate by design
                            if measuring.load(Ordering::Relaxed) {
                                latency.record_duration(t0.elapsed());
                                match kind {
                                    // ordering: relaxed — throughput statistic
                                    TxnKind::Read => reads.fetch_add(1, Ordering::Relaxed),
                                    // ordering: relaxed — throughput statistic
                                    TxnKind::Write => writes.fetch_add(1, Ordering::Relaxed),
                                };
                            }
                        }
                        Err(e) if e.kind() == "write_conflict" => {
                            // ordering: relaxed — window edges are approximate by design
                            if measuring.load(Ordering::Relaxed) {
                                // ordering: relaxed — throughput statistic
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            // Transient infrastructure error: back off.
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                }
            });
        }

        // Warmup, then measure.
        std::thread::sleep(config.warmup);
        let cpu = system.primary_cpu();
        let cpu_before = cpu.busy_us();
        let log_bytes_before = system.log_metrics().bytes_hardened.get();
        system.log_metrics().commit_latency.reset();
        system.reset_cache_stats();
        measuring.store(true, Ordering::Relaxed); // ordering: relaxed — a worker straddling the window edge skews one sample
        let t0 = Instant::now();
        std::thread::sleep(config.duration);
        measuring.store(false, Ordering::Relaxed); // ordering: relaxed — a worker straddling the window edge skews one sample
        let wall = t0.elapsed();
        stop.store(true, Ordering::Relaxed); // ordering: relaxed — scope join below is the real synchronization point
                                             // Scope join happens implicitly.

        // ordering: relaxed — scope join already happens-before these reads
        let read_count = reads.load(Ordering::Relaxed);
        let write_count = writes.load(Ordering::Relaxed); // ordering: relaxed — after join
        let secs = wall.as_secs_f64();
        let log_bytes = system.log_metrics().bytes_hardened.get() - log_bytes_before;
        RunReport {
            duration: wall,
            read_tps: read_count as f64 / secs,
            write_tps: write_count as f64 / secs,
            total_tps: (read_count + write_count) as f64 / secs,
            conflicts: conflicts.load(Ordering::Relaxed), // ordering: relaxed — after join
            txn_latency: latency.snapshot(),
            commit_latency: system.log_metrics().commit_latency.snapshot(),
            log_mb_s: log_bytes as f64 / 1e6 / secs,
            cpu_pct: {
                let busy = cpu.busy_us() - cpu_before;
                let capacity = wall.as_micros() as f64 * cores as f64;
                (busy as f64 / capacity * 100.0).min(100.0)
            },
            cache_hit_rate: system.local_hit_rate(),
        }
    })
}
