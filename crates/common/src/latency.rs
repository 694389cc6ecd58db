//! Latency models for the storage devices and network hops in a deployment.
//!
//! The paper's Appendix A shows that swapping the landing-zone storage
//! service (Azure Premium Storage "XIO" vs the newer "DirectDrive") changes
//! commit latency, throughput, and CPU cost without touching a line of
//! Socrates code. We reproduce that by modelling each device as a latency
//! distribution that I/O paths sample from; a deployment picks profiles the
//! way the real system picks Azure services.
//!
//! The distributions are log-normal around a calibrated median with a heavy
//! spike tail, clamped to `[min, max]` — the shape visible in the paper's
//! Table 6 (min/median close together, max an order of magnitude out).

use crate::rng::Rng;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A sampled latency distribution for one operation class (read or write).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyModel {
    /// Fastest possible service time, microseconds.
    pub min_us: u64,
    /// Median service time, microseconds.
    pub median_us: u64,
    /// Log-normal shape parameter (spread of the body of the distribution).
    pub sigma: f64,
    /// Hard ceiling, microseconds (queueing spikes never exceed this).
    pub max_us: u64,
    /// Probability of a tail spike (device hiccup / retry inside the
    /// service), which multiplies the sampled value by up to
    /// `max_us / median_us`.
    pub spike_p: f64,
}

impl LatencyModel {
    /// A model that always reports zero latency.
    pub const fn zero() -> LatencyModel {
        LatencyModel { min_us: 0, median_us: 0, sigma: 0.0, max_us: 0, spike_p: 0.0 }
    }

    /// A fixed latency with no variance; useful in tests.
    pub const fn fixed(us: u64) -> LatencyModel {
        LatencyModel { min_us: us, median_us: us, sigma: 0.0, max_us: us, spike_p: 0.0 }
    }

    /// Sample one service time.
    pub fn sample(&self, rng: &mut Rng) -> Duration {
        if self.max_us == 0 {
            return Duration::ZERO;
        }
        let body = (self.median_us - self.min_us) as f64;
        let mut us = self.min_us as f64 + body * (self.sigma * rng.gen_normal()).exp();
        if self.spike_p > 0.0 && rng.gen_bool(self.spike_p) {
            let headroom = self.max_us as f64 / us.max(1.0);
            us *= 1.0 + rng.gen_f64() * (headroom - 1.0).max(0.0);
        }
        Duration::from_micros((us as u64).clamp(self.min_us, self.max_us))
    }
}

/// CPU cost model for issuing one I/O against a device/service.
///
/// The paper's Table 7 hinges on this: XIO is driven through "expensive REST
/// calls" while DirectDrive uses "cheaper Win32 calls", so at equal log
/// throughput XIO burns ~3x the primary's CPU. Components charge these
/// modelled costs to their [`crate::metrics::CpuAccountant`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoCpuCost {
    /// Fixed CPU microseconds charged per operation.
    pub per_op_us: u64,
    /// Additional CPU microseconds charged per 4 KiB transferred.
    pub per_4kib_us: u64,
}

impl IoCpuCost {
    /// Total modelled CPU microseconds for transferring `bytes`.
    pub fn cost_us(&self, bytes: usize) -> u64 {
        self.per_op_us + self.per_4kib_us * (bytes as u64).div_ceil(4096)
    }
}

/// A named device/service profile: latency distributions plus CPU cost.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name ("XIO", "DirectDrive", ...).
    pub name: &'static str,
    /// Read service time distribution.
    pub read: LatencyModel,
    /// Write service time distribution.
    pub write: LatencyModel,
    /// CPU cost charged to the *issuing* node per I/O.
    pub cpu: IoCpuCost,
}

impl DeviceProfile {
    /// Azure Premium Storage ("XIO"), the original Hyperscale landing zone.
    /// Write latencies calibrated to the paper's Table 6 (min 2518 µs,
    /// median 3300 µs, max 36864 µs); driven via costly REST calls.
    pub fn xio() -> DeviceProfile {
        DeviceProfile {
            name: "XIO",
            read: LatencyModel {
                min_us: 900,
                median_us: 1400,
                sigma: 0.25,
                max_us: 30_000,
                spike_p: 0.004,
            },
            write: LatencyModel {
                min_us: 2518,
                median_us: 3300,
                sigma: 0.12,
                max_us: 36_864,
                spike_p: 0.0015,
            },
            // REST + HTTPS marshalling per request: the expensive driver
            // the paper's Table 7 blames for XIO's CPU cost.
            cpu: IoCpuCost { per_op_us: 650, per_4kib_us: 18 },
        }
    }

    /// DirectDrive ("DD"), the RDMA-era block service from Appendix A.
    /// Write latencies calibrated to Table 6 (min 484 µs, median 800 µs,
    /// max 39857 µs); driven via cheap syscalls.
    pub fn direct_drive() -> DeviceProfile {
        DeviceProfile {
            name: "DirectDrive",
            read: LatencyModel {
                min_us: 250,
                median_us: 420,
                sigma: 0.3,
                max_us: 30_000,
                spike_p: 0.002,
            },
            write: LatencyModel {
                min_us: 484,
                median_us: 800,
                sigma: 0.28,
                max_us: 39_857,
                spike_p: 0.002,
            },
            // Thin block-device calls ("cheaper Win32 calls").
            cpu: IoCpuCost { per_op_us: 25, per_4kib_us: 3 },
        }
    }

    /// Locally-attached NVMe SSD (RBPEX backing store, XLOG block cache).
    pub fn local_ssd() -> DeviceProfile {
        DeviceProfile {
            name: "LocalSSD",
            read: LatencyModel {
                min_us: 35,
                median_us: 80,
                sigma: 0.3,
                max_us: 4_000,
                spike_p: 0.001,
            },
            write: LatencyModel {
                min_us: 25,
                median_us: 60,
                sigma: 0.3,
                max_us: 4_000,
                spike_p: 0.001,
            },
            cpu: IoCpuCost { per_op_us: 4, per_4kib_us: 1 },
        }
    }

    /// XStore: the cheap, durable, HDD-based Azure Storage standard tier.
    pub fn xstore() -> DeviceProfile {
        DeviceProfile {
            name: "XStore",
            read: LatencyModel {
                min_us: 1_800,
                median_us: 6_500,
                sigma: 0.5,
                max_us: 250_000,
                spike_p: 0.01,
            },
            write: LatencyModel {
                min_us: 2_500,
                median_us: 9_000,
                sigma: 0.5,
                max_us: 300_000,
                spike_p: 0.01,
            },
            cpu: IoCpuCost { per_op_us: 90, per_4kib_us: 5 },
        }
    }

    /// One intra-datacenter network hop (RBIO request/response leg).
    pub fn lan() -> DeviceProfile {
        DeviceProfile {
            name: "LAN",
            read: LatencyModel {
                min_us: 28,
                median_us: 65,
                sigma: 0.35,
                max_us: 5_000,
                spike_p: 0.002,
            },
            write: LatencyModel {
                min_us: 28,
                median_us: 65,
                sigma: 0.35,
                max_us: 5_000,
                spike_p: 0.002,
            },
            cpu: IoCpuCost { per_op_us: 6, per_4kib_us: 1 },
        }
    }

    /// HADR log shipping: the commit-critical path of the replicated state
    /// machine — network to a secondary plus its log flush on a loaded
    /// disk. Calibrated so quorum commit lands near the paper's ~3 ms
    /// (Table 1).
    pub fn hadr_ship() -> DeviceProfile {
        DeviceProfile {
            name: "HADR-ship",
            read: LatencyModel {
                min_us: 1_900,
                median_us: 3_000,
                sigma: 0.2,
                max_us: 45_000,
                spike_p: 0.004,
            },
            write: LatencyModel {
                min_us: 1_900,
                median_us: 3_000,
                sigma: 0.2,
                max_us: 45_000,
                spike_p: 0.004,
            },
            cpu: IoCpuCost { per_op_us: 25, per_4kib_us: 3 },
        }
    }

    /// Zero-latency, zero-CPU profile for unit tests.
    pub fn instant() -> DeviceProfile {
        DeviceProfile {
            name: "Instant",
            read: LatencyModel::zero(),
            write: LatencyModel::zero(),
            cpu: IoCpuCost { per_op_us: 0, per_4kib_us: 0 },
        }
    }
}

/// Shareable latency injector bound to one device profile.
///
/// One injector per device instance; cheap to clone (internally `Arc`).
#[derive(Clone)]
pub struct LatencyInjector {
    inner: Arc<Inner>,
}

struct Inner {
    profile: DeviceProfile,
    rng: Mutex<Rng>,
}

impl LatencyInjector {
    /// Create an injector for `profile`, seeded deterministically. It
    /// waits out whatever the profile samples, so an instant profile
    /// never waits.
    pub fn new(profile: DeviceProfile, seed: u64) -> LatencyInjector {
        LatencyInjector { inner: Arc::new(Inner { profile, rng: Mutex::new(Rng::new(seed)) }) }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.inner.profile
    }

    /// Sample and wait out one read service time; returns it.
    pub fn read_delay(&self) -> Duration {
        self.delay(true)
    }

    /// Sample and wait out one write service time; returns it.
    pub fn write_delay(&self) -> Duration {
        self.delay(false)
    }

    /// Sample one write service time without waiting it out: for a
    /// caller that issues the write now and waits for its deadline later.
    pub fn write_sample(&self) -> Duration {
        self.sample(&self.inner.profile.write)
    }

    /// Sample one read service time without waiting it out: for a caller
    /// that issues several reads now and waits once, for the last.
    pub fn read_sample(&self) -> Duration {
        self.sample(&self.inner.profile.read)
    }

    /// Modelled CPU microseconds for an I/O of `bytes` on this device.
    pub fn cpu_cost_us(&self, bytes: usize) -> u64 {
        self.inner.profile.cpu.cost_us(bytes)
    }

    fn delay(&self, is_read: bool) -> Duration {
        let model = if is_read { &self.inner.profile.read } else { &self.inner.profile.write };
        let d = self.sample(model);
        precise_sleep(d);
        d
    }

    fn sample(&self, model: &LatencyModel) -> Duration {
        // An instant device costs one compare: no RNG lock.
        if model.max_us == 0 {
            return Duration::ZERO;
        }
        model.sample(&mut self.inner.rng.lock())
    }
}

/// Sleep for `d` with microsecond accuracy, without spinning.
///
/// Linux pads every sleep by the thread's timer slack, 50 µs by default:
/// a 60 µs sleep would overshoot by ≈ 55 µs and distort the calibrated
/// medians. So the first call on each thread sets the slack to 1 ns, after
/// which a sleep overshoots by a few microseconds. Where the slack cannot
/// be set, waits stay correct, only ≈ 55 µs longer.
pub fn precise_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    tighten_timer_slack();
    std::thread::sleep(d);
}

/// Set the calling thread's timer slack to 1 ns, once per thread.
#[cfg(all(target_os = "linux", not(miri)))]
fn tighten_timer_slack() {
    thread_local!(static TIGHT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
    if TIGHT.with(|tight| tight.replace(true)) {
        return;
    }
    // `/proc/thread-self` links to `<pid>/task/<tid>`; `/proc/<tid>` is this
    // thread's own entry, which it may write without privileges.
    if let Ok(link) = std::fs::read_link("/proc/thread-self") {
        if let Some(tid) = link.file_name() {
            let path = std::path::Path::new("/proc").join(tid).join("timerslack_ns");
            let _ = std::fs::write(path, "1");
        }
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn tighten_timer_slack() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn precise_sleep_sets_the_threads_timer_slack() {
        let slack = std::thread::spawn(|| {
            precise_sleep(Duration::from_micros(1));
            let link = std::fs::read_link("/proc/thread-self").unwrap();
            let path = std::path::Path::new("/proc").join(link.file_name().unwrap());
            std::fs::read_to_string(path.join("timerslack_ns")).unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(slack.trim(), "1");
    }

    #[test]
    fn samples_respect_bounds() {
        let m = DeviceProfile::xio().write;
        let mut rng = Rng::new(1);
        for _ in 0..20_000 {
            let d = m.sample(&mut rng).as_micros() as u64;
            assert!(d >= m.min_us, "{d} < min {}", m.min_us);
            assert!(d <= m.max_us, "{d} > max {}", m.max_us);
        }
    }

    #[test]
    fn median_is_calibrated() {
        let m = DeviceProfile::xio().write;
        let mut rng = Rng::new(2);
        let mut v: Vec<u64> = (0..40_001).map(|_| m.sample(&mut rng).as_micros() as u64).collect();
        v.sort_unstable();
        let median = v[v.len() / 2];
        // Within 15% of the paper's 3300 µs.
        assert!((median as f64 - 3300.0).abs() / 3300.0 < 0.15, "median {median} not near 3300");
    }

    #[test]
    fn dd_is_roughly_4x_faster_than_xio() {
        let mut rng = Rng::new(3);
        let xio = DeviceProfile::xio().write;
        let dd = DeviceProfile::direct_drive().write;
        let med = |m: &LatencyModel, rng: &mut Rng| {
            let mut v: Vec<u64> = (0..10_001).map(|_| m.sample(rng).as_micros() as u64).collect();
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        let ratio = med(&xio, &mut rng) / med(&dd, &mut rng);
        assert!(ratio > 3.0 && ratio < 6.0, "XIO/DD median ratio {ratio}");
    }

    #[test]
    fn zero_model_and_disabled_injector() {
        let mut rng = Rng::new(4);
        assert_eq!(LatencyModel::zero().sample(&mut rng), Duration::ZERO);
        let inj = LatencyInjector::new(DeviceProfile::instant(), 4);
        assert_eq!(inj.read_delay(), Duration::ZERO);
        assert_eq!(inj.write_delay(), Duration::ZERO);
        assert_eq!(inj.cpu_cost_us(8192), 0);
    }

    #[test]
    fn fixed_model_is_constant() {
        let mut rng = Rng::new(5);
        let m = LatencyModel::fixed(500);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut rng), Duration::from_micros(500));
        }
    }

    #[test]
    fn cpu_cost_scales_with_bytes() {
        let c = IoCpuCost { per_op_us: 100, per_4kib_us: 10 };
        assert_eq!(c.cost_us(0), 100);
        assert_eq!(c.cost_us(1), 110);
        assert_eq!(c.cost_us(4096), 110);
        assert_eq!(c.cost_us(4097), 120);
        assert_eq!(c.cost_us(64 * 1024), 100 + 160);
        // XIO is much more CPU-expensive per op than DD (Table 7's driver).
        assert!(
            DeviceProfile::xio().cpu.cost_us(4096)
                > 3 * DeviceProfile::direct_drive().cpu.cost_us(4096)
        );
    }
}
