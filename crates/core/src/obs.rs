//! Deployment-level observability: the LSN-lag watcher.
//!
//! The services register their own watermarks as closure-sampled gauges
//! (see each tier's `register_metrics`); what they cannot do on their own
//! is time the *asynchronous* stages of a commit — a commit is "destaged"
//! only once XLOG's archive frontier passes its LSN, "applied" only once
//! every page server (and secondary) has consumed the log past it. Those
//! frontiers belong to the deployment, so this watcher thread samples
//! them periodically, times them against marks of the hardened frontier
//! ([`MarkQueue`]) into the deployment's commit-stage histograms, and
//! maintains the deployment-wide lag gauges that cut across tiers.

use crate::config::WATCHER_INTERVAL;
use crate::fabric::Fabric;
use crate::secondary::Secondary;
use parking_lot::{Mutex, RwLock};
use socrates_common::metrics::Gauge;
use socrates_common::obs::{MarkQueue, Stage};
use socrates_common::{Lsn, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The secondaries list shared between the deployment and the watcher
/// (scale-out/in mutates it while the watcher samples it).
pub type SecondaryList = Arc<RwLock<Vec<Arc<Secondary>>>>;

/// The background LSN-lag watcher. One per deployment; stopped (and its
/// thread joined) by [`LagWatcher::stop`] or on drop.
pub struct LagWatcher {
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl LagWatcher {
    /// Start the watcher. Every [`WATCHER_INTERVAL`] it times the async
    /// commit stages and updates the deployment lag gauges.
    pub fn start(fabric: Arc<Fabric>, secondaries: SecondaryList) -> LagWatcher {
        // Watcher-owned gauges: the slowest consumer's distance behind the
        // released log, per consuming tier.
        let ps_lag = Arc::new(Gauge::new());
        let sec_lag = Arc::new(Gauge::new());
        fabric.hub.register_gauge(NodeId::XLOG, "max_pageserver_lag_bytes", Arc::clone(&ps_lag));
        fabric.hub.register_gauge(NodeId::XLOG, "max_secondary_lag_bytes", Arc::clone(&sec_lag));

        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lsn-lag-watcher".into())
            .spawn(move || {
                // One mark queue per async stage, `Stage::ASYNC` order.
                let mut marks: [MarkQueue; 3] = Default::default();
                // ordering: relaxed — shutdown poll; one extra tick is harmless
                while !stop2.load(Ordering::Relaxed) {
                    Self::sample(&fabric, &secondaries, &ps_lag, &sec_lag, &mut marks);
                    std::thread::sleep(WATCHER_INTERVAL);
                }
                // One final sample so a quiesced deployment's async stages
                // are complete at the instant the watcher is stopped.
                Self::sample(&fabric, &secondaries, &ps_lag, &sec_lag, &mut marks);
            })
            .expect("spawn lsn-lag watcher");
        LagWatcher {
            stop,
            handle: Mutex::with_rank(
                Some(handle),
                socrates_common::lock_rank::CORE_LAG_WATCHER_HANDLE,
                "obs.lag_watcher.handle",
            ),
        }
    }

    /// One tick: read the hardened frontier and the three asynchronous
    /// watermarks, mark the former, and complete every mark the latter
    /// have reached — each async stage takes one sample per hardened
    /// mark, measured from when the watcher saw the log hardened to when
    /// it saw the watermark pass.
    fn sample(
        fabric: &Fabric,
        secondaries: &SecondaryList,
        ps_lag: &Gauge,
        sec_lag: &Gauge,
        marks: &mut [MarkQueue; 3],
    ) {
        let now = Instant::now();
        let hardened = fabric.xlog.hardened_lsn();
        let released = fabric.xlog.released_lsn().offset() as i64;
        // The slowest page server / secondary bounds its stage's frontier;
        // a stage with no consumer takes no samples.
        let min_sec = secondaries.read().iter().map(|s| s.applied_lsn()).min();
        let frontiers: [Option<Lsn>; 3] =
            [Some(fabric.xlog.destaged_lsn()), fabric.min_applied_lsn(), min_sec];
        for ((stage, frontier), queue) in Stage::ASYNC.iter().zip(frontiers).zip(marks) {
            match frontier {
                Some(frontier) => {
                    queue.push(hardened, now);
                    queue.advance(frontier, now, |_, waited| {
                        fabric.commit_stages.record(*stage, waited)
                    });
                }
                None => queue.clear(),
            }
        }
        let lag = |applied: Option<Lsn>| {
            applied.map_or(0, |applied| (released - applied.offset() as i64).max(0))
        };
        ps_lag.set(lag(frontiers[1]));
        sec_lag.set(lag(frontiers[2]));

        // Time-series + SLO heartbeat: history snapshot, SLO evaluation,
        // and the breach-edge blackbox trigger all ride this thread.
        fabric.obs_tick();
    }

    /// Stop the watcher thread and join it (idempotent).
    pub fn stop(&self) {
        // ordering: relaxed — poll flag; the join below is the real sync point
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for LagWatcher {
    fn drop(&mut self) {
        self.stop();
    }
}
