//! Time-series retention for the metrics hub.
//!
//! A hub [`MetricSnapshot`](super::hub::MetricSnapshot) is a point in
//! time; SLO evaluation and the `socmon --watch` live view need *series*:
//! commit p99 over the last 30 seconds, fault injections per second,
//! whether the apply lag is growing. [`HubHistory`] is a fixed-capacity
//! ring of periodic snapshots with two derived views on top:
//!
//! - **rates** — counter deltas divided by the elapsed window;
//! - **windowed aggregates** — min/max over the point-in-time values in a
//!   window. Histograms snapshot their percentiles (the log-bucketed
//!   counts themselves are not retained), so a "windowed p99" is the
//!   worst *point-in-time* p99 observed in the window — the
//!   burn-rate-relevant reading — not a percentile recomputed over the
//!   window's union of samples.
//!
//! The pusher is the deployment's LSN-lag watcher (`Fabric::obs_tick`):
//! the history piggybacks on the thread that already wakes up to sample
//! lag, and rate-limits itself to its snapshot interval so a fast
//! watcher does not flood the ring. Capacity 0 disables retention
//! entirely — `tick` returns after one field compare.

use super::hub::{MetricSnapshot, MetricValue, MetricsHub};
use crate::ids::NodeId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One retained snapshot, stamped with its age.
#[derive(Clone, Debug)]
pub struct HistorySample {
    /// Milliseconds since the history's epoch, starting at 1 (0 is the
    /// "never sampled" sentinel internally).
    pub at_ms: u64,
    /// The full hub snapshot taken at that instant.
    pub snapshot: MetricSnapshot,
}

/// Fixed-capacity ring of periodic hub snapshots.
pub struct HubHistory {
    ring: Mutex<VecDeque<HistorySample>>,
    capacity: usize,
    interval_ms: u64,
    /// `at_ms` of the newest sample (0 = none yet). Checked before the
    /// lock so an early tick is one relaxed load.
    last_ms: AtomicU64,
    epoch: Instant,
}

impl HubHistory {
    /// A history retaining `capacity` snapshots at most one per
    /// `interval`.
    pub fn new(capacity: usize, interval: Duration) -> HubHistory {
        HubHistory {
            ring: Mutex::with_rank(
                VecDeque::new(),
                crate::lock_rank::COMMON_OBS_HISTORY,
                "obs.hub_history",
            ),
            capacity,
            interval_ms: interval.as_millis() as u64,
            last_ms: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// A history that retains nothing (the overhead baseline).
    pub fn disabled() -> HubHistory {
        HubHistory::new(0, Duration::from_secs(1))
    }

    /// Whether retention is on.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of snapshots retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retention resolution.
    pub fn interval(&self) -> Duration {
        Duration::from_millis(self.interval_ms)
    }

    /// Milliseconds since the history's epoch (the `at_ms` timebase).
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 + 1
    }

    /// Take and retain a snapshot if the interval elapsed. Returns
    /// whether a sample was pushed. The hub snapshot (which runs the
    /// registered sampling closures) happens *outside* the ring lock, so
    /// the lock stays a leaf regardless of what those closures read.
    pub fn tick(&self, hub: &MetricsHub) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let now_ms = self.now_ms();
        // ordering: relaxed — rate-limit stamp; a raced concurrent tick only
        // pushes one extra sample (single-pusher in practice: the watcher)
        let last = self.last_ms.load(Ordering::Relaxed);
        if last != 0 && now_ms.saturating_sub(last) < self.interval_ms {
            return false;
        }
        // ordering: relaxed — see the load above
        self.last_ms.store(now_ms, Ordering::Relaxed);
        let snapshot = hub.snapshot();
        let mut ring = self.ring.lock();
        ring.push_back(HistorySample { at_ms: now_ms, snapshot });
        while ring.len() > self.capacity {
            ring.pop_front();
        }
        true
    }

    /// Number of snapshots currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no snapshot has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> Vec<HistorySample> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The newest retained sample.
    pub fn latest(&self) -> Option<HistorySample> {
        self.ring.lock().back().cloned()
    }

    /// The samples whose age is within `window` of the newest sample,
    /// oldest first.
    pub fn window(&self, window: Duration) -> Vec<HistorySample> {
        let ring = self.ring.lock();
        let Some(newest) = ring.back() else { return Vec::new() };
        let floor = newest.at_ms.saturating_sub(window.as_millis() as u64);
        ring.iter().filter(|s| s.at_ms >= floor).cloned().collect()
    }

    /// Derived counter rate: the delta between the oldest and newest
    /// in-window readings divided by their separation. `None` when the
    /// metric is absent, not a counter, or the window holds < 2 samples.
    pub fn rate(&self, node: NodeId, name: &str, window: Duration) -> Option<f64> {
        let samples = self.window(window);
        let series: Vec<(u64, u64)> = samples
            .iter()
            .filter_map(|s| match s.snapshot.get(node, name) {
                Some(MetricValue::Counter(v)) => Some((s.at_ms, *v)),
                _ => None,
            })
            .collect();
        let (first, last) = (series.first()?, series.last()?);
        if last.0 <= first.0 {
            return None;
        }
        let dt_s = (last.0 - first.0) as f64 / 1000.0;
        Some(last.1.saturating_sub(first.1) as f64 / dt_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;
    use std::sync::Arc;

    #[test]
    fn disabled_history_retains_nothing() {
        let hub = MetricsHub::new();
        let h = HubHistory::disabled();
        assert!(!h.is_enabled());
        assert!(!h.tick(&hub));
        assert!(h.is_empty());
        assert!(h.latest().is_none());
    }

    #[test]
    fn ring_caps_at_capacity() {
        let hub = MetricsHub::new();
        hub.register_counter_fn(NodeId::PRIMARY, "c", || 1);
        let h = HubHistory::new(3, Duration::ZERO);
        for _ in 0..10 {
            assert!(h.tick(&hub));
        }
        assert_eq!(h.len(), 3);
        let s = h.samples();
        assert!(s.windows(2).all(|w| w[0].at_ms <= w[1].at_ms), "oldest first");
    }

    #[test]
    fn interval_rate_limits() {
        let hub = MetricsHub::new();
        let h = HubHistory::new(8, Duration::from_secs(3600));
        assert!(h.tick(&hub), "first tick always samples");
        assert!(!h.tick(&hub), "second tick inside the interval is dropped");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn counter_rate_over_window() {
        let hub = MetricsHub::new();
        let c = Arc::new(Counter::new());
        hub.register_counter(NodeId::PRIMARY, "commits", Arc::clone(&c));
        let h = HubHistory::new(16, Duration::ZERO);
        h.tick(&hub);
        c.add(500);
        std::thread::sleep(Duration::from_millis(20));
        h.tick(&hub);
        let rate = h.rate(NodeId::PRIMARY, "commits", Duration::from_secs(60)).unwrap();
        assert!(rate > 0.0, "500 increments over ~20ms must read as a positive rate");
        // Unknown metric and too-small windows degrade to None.
        assert!(h.rate(NodeId::PRIMARY, "nope", Duration::from_secs(60)).is_none());
        assert!(h.rate(NodeId::PRIMARY, "commits", Duration::ZERO).is_none());
    }
}
