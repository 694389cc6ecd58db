//! QoS replica selection.
//!
//! RBIO "has QoS support for best replica selection" (paper §3.4): when a
//! page-server partition has replicas, the client routes each call to the
//! replica with the best observed latency and fails over on transient
//! errors. Selection uses an EWMA of per-replica call latency with a small
//! exploration probability so a recovered replica gets re-measured.
//!
//! On top of routing, a set of two or more *hedges*: if the chosen replica has not
//! answered within a quantile of the set's observed latency distribution,
//! the same request is issued to the next-best replica and the first
//! response wins. Hedging turns the QoS router into a tail-latency tool —
//! one slow replica no longer drags p99 to its round-trip time.

use crate::proto::{RbioRequest, RbioResponse};
use crate::transport::RbioClient;
use parking_lot::Mutex;
use socrates_common::metrics::{Counter, Histogram};
use socrates_common::obs::{MetricsHub, TraceCtx};
use socrates_common::rng::Rng;
use socrates_common::{Error, NodeId, Result};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// EWMA smoothing factor for observed latency.
const ALPHA: f64 = 0.2;
/// Penalty (µs) applied to a replica that failed, so it is deprioritised
/// until re-explored.
const FAILURE_PENALTY_US: f64 = 1_000_000.0;
/// Probability of probing a non-best replica.
const EXPLORE_P: f64 = 0.05;

/// Minimum latency samples before the hedge delay trusts the histogram.
const HEDGE_MIN_SAMPLES: u64 = 20;
/// Quantile of the set's observed latency at which a hedge fires: hedge
/// when a call is slower than 95% of history.
const HEDGE_QUANTILE: f64 = 0.95;
/// Lower bound on the hedge delay, so near-instant histories do not double
/// every request.
const HEDGE_MIN_DELAY: Duration = Duration::from_micros(200);
/// Upper bound on the hedge delay; also the delay used before
/// [`HEDGE_MIN_SAMPLES`] samples exist.
const HEDGE_MAX_DELAY: Duration = Duration::from_millis(10);

/// Per-call hedging outcome (stamped on the `rbio.net` span of a sampled read).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallMeta {
    /// A hedge request fired (the primary attempt outlived the hedge
    /// delay). Failover after a transient error does not count.
    pub hedge_fired: bool,
    /// The hedged attempt produced the winning response.
    pub hedge_won: bool,
}

struct ReplicaState {
    ewma_us: f64,
}

/// A set of equivalent RBIO endpoints with QoS routing.
pub struct ReplicaSet {
    clients: Vec<Arc<RbioClient>>,
    states: Mutex<(Vec<ReplicaState>, Rng)>,
    /// Observed call latency across the set, feeding the hedge delay.
    latency: Arc<Histogram>,
    hedges_fired: Arc<Counter>,
    hedge_wins: Arc<Counter>,
}

impl ReplicaSet {
    /// Build a set over `clients` (at least one). With two or more, a call
    /// slower than [`ReplicaSet::hedge_delay`] is reissued to a second
    /// replica.
    pub fn new(clients: Vec<RbioClient>, seed: u64) -> ReplicaSet {
        assert!(!clients.is_empty(), "replica set needs at least one endpoint");
        let states = clients.iter().map(|_| ReplicaState { ewma_us: 0.0 }).collect();
        ReplicaSet {
            clients: clients.into_iter().map(Arc::new).collect(),
            states: Mutex::with_rank(
                (states, Rng::new(seed)),
                socrates_common::lock_rank::RBIO_REPLICA_STATES,
                "rbio.replica_states",
            ),
            latency: Arc::new(Histogram::new()),
            hedges_fired: Arc::new(Counter::new()),
            hedge_wins: Arc::new(Counter::new()),
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Always at least one replica.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of hedge requests fired.
    pub fn hedges_fired(&self) -> Arc<Counter> {
        Arc::clone(&self.hedges_fired)
    }

    /// Number of calls won by the hedge (second) attempt.
    pub fn hedge_wins(&self) -> Arc<Counter> {
        Arc::clone(&self.hedge_wins)
    }

    /// Observed call-latency distribution across the set.
    pub fn latency_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.latency)
    }

    /// Register the set's hedging telemetry under `node`: `hedge_fired`,
    /// `hedge_won`, the tracked-quantile `hedge_delay_us` gauge, and the
    /// observed `route_latency_us` distribution.
    pub fn register_metrics(self: &Arc<Self>, hub: &MetricsHub, node: NodeId) {
        hub.register_counter(node, "hedge_fired", self.hedges_fired());
        hub.register_counter(node, "hedge_won", self.hedge_wins());
        let set = Arc::clone(self);
        hub.register_gauge_fn(node, "hedge_delay_us", move || set.hedge_delay().as_micros() as i64);
        hub.register_histogram(node, "route_latency_us", self.latency_histogram());
    }

    /// The delay after which a hedge fires: [`HEDGE_QUANTILE`] of observed
    /// latency, clamped to `[HEDGE_MIN_DELAY, HEDGE_MAX_DELAY]`. Until
    /// enough samples exist the conservative maximum is used.
    pub fn hedge_delay(&self) -> Duration {
        if self.latency.count() < HEDGE_MIN_SAMPLES {
            return HEDGE_MAX_DELAY;
        }
        let us = self.latency.percentile(HEDGE_QUANTILE);
        Duration::from_micros(us).clamp(HEDGE_MIN_DELAY, HEDGE_MAX_DELAY)
    }

    fn pick(&self) -> usize {
        let mut guard = self.states.lock();
        let (states, rng) = &mut *guard;
        if rng.gen_bool(EXPLORE_P) {
            return rng.gen_range(states.len() as u64) as usize;
        }
        states
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.ewma_us.total_cmp(&b.ewma_us))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn observe(&self, idx: usize, us: f64) {
        let mut guard = self.states.lock();
        let s = &mut guard.0[idx];
        s.ewma_us = if s.ewma_us == 0.0 { us } else { (1.0 - ALPHA) * s.ewma_us + ALPHA * us };
    }

    /// Best replica other than `skip` by EWMA (no exploration — the hedge
    /// target should be the most promising alternative).
    fn pick_excluding(&self, skip: usize) -> usize {
        let guard = self.states.lock();
        guard
            .0
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .min_by(|(_, a), (_, b)| a.ewma_us.total_cmp(&b.ewma_us))
            .map(|(i, _)| i)
            .unwrap_or((skip + 1) % self.clients.len())
    }

    /// Issue `req` against the best replica. With ≥ 2 replicas, a second
    /// attempt fires after [`ReplicaSet::hedge_delay`] (or at once on a
    /// transient error) and the first response wins; a lone replica is
    /// called once.
    pub fn call(&self, req: RbioRequest) -> Result<RbioResponse> {
        self.call_traced(req).map(|(resp, _)| resp)
    }

    /// [`ReplicaSet::call`], plus the hedge outcome for span tracing.
    pub fn call_traced(&self, req: RbioRequest) -> Result<(RbioResponse, CallMeta)> {
        self.call_traced_ctx(req, TraceCtx::NONE)
    }

    /// [`ReplicaSet::call_traced`], stamping `ctx` into every attempt's
    /// envelope (hedges and failovers carry the same causal identity).
    pub fn call_traced_ctx(
        &self,
        req: RbioRequest,
        ctx: TraceCtx,
    ) -> Result<(RbioResponse, CallMeta)> {
        if self.clients.len() > 1 {
            self.call_hedged(req, ctx)
        } else {
            self.call_one(req, ctx).map(|resp| (resp, CallMeta::default()))
        }
    }

    fn call_one(&self, req: RbioRequest, ctx: TraceCtx) -> Result<RbioResponse> {
        let t0 = Instant::now();
        match self.clients[0].call_with_ctx(req, ctx) {
            Ok(resp) => {
                self.latency.record(t0.elapsed().as_micros() as u64);
                Ok(resp)
            }
            // Report the exhaustion as a typed error so degradation paths
            // can match on it.
            Err(e) if e.is_transient() => Err(Error::AllReplicasFailed { attempts: 1 }),
            Err(e) => Err(e),
        }
    }

    fn spawn_attempt(
        &self,
        idx: usize,
        was_hedge: bool,
        req: &RbioRequest,
        ctx: TraceCtx,
        tx: &Sender<(usize, bool, Duration, Result<RbioResponse>)>,
    ) {
        let client = Arc::clone(&self.clients[idx]);
        let req = req.clone();
        let tx = tx.clone();
        thread::Builder::new()
            .name("rbio-hedge".into())
            .spawn(move || {
                let t0 = Instant::now();
                let res = client.call_with_ctx(req, ctx);
                // The caller may already have returned with the other
                // attempt's response; a closed channel is fine.
                let _ = tx.send((idx, was_hedge, t0.elapsed(), res));
            })
            .expect("spawn rbio attempt");
    }

    fn call_hedged(&self, req: RbioRequest, ctx: TraceCtx) -> Result<(RbioResponse, CallMeta)> {
        let primary = self.pick();
        let (tx, rx) = mpsc::channel();
        self.spawn_attempt(primary, false, &req, ctx, &tx);
        let mut attempts = 1u32;
        let mut outstanding = 1usize;
        let mut second_sent = false;
        let mut fired = false;
        let mut last_err: Option<Error> = None;
        loop {
            let msg = if !second_sent {
                match rx.recv_timeout(self.hedge_delay()) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => {
                        // Primary is slower than the quantile: hedge.
                        self.hedges_fired.incr();
                        fired = true;
                        self.spawn_attempt(self.pick_excluding(primary), true, &req, ctx, &tx);
                        attempts += 1;
                        outstanding += 1;
                        second_sent = true;
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(Error::Unavailable("rbio attempt vanished".into()));
                    }
                }
            } else {
                if outstanding == 0 {
                    return Err(Error::AllReplicasFailed { attempts });
                }
                match rx.recv_timeout(Duration::from_secs(30)) {
                    Ok(m) => m,
                    Err(_) => {
                        return Err(last_err.unwrap_or_else(|| {
                            Error::Unavailable("hedged call timed out".into())
                        }));
                    }
                }
            };
            let (idx, was_hedge, elapsed, res) = msg;
            outstanding -= 1;
            match res {
                Ok(resp) => {
                    let us = elapsed.as_micros() as u64;
                    self.observe(idx, us as f64);
                    self.latency.record(us);
                    // A win requires a real hedge: a failover attempt that
                    // answers first is recovery, not tail-cutting.
                    let won = was_hedge && fired;
                    if won {
                        self.hedge_wins.incr();
                    }
                    return Ok((resp, CallMeta { hedge_fired: fired, hedge_won: won }));
                }
                Err(e) if e.is_transient() => {
                    self.observe(idx, FAILURE_PENALTY_US);
                    last_err = Some(e);
                    if !second_sent {
                        // Primary failed before the hedge delay expired:
                        // fail over immediately (not counted as a hedge).
                        self.spawn_attempt(self.pick_excluding(primary), true, &req, ctx, &tx);
                        attempts += 1;
                        outstanding += 1;
                        second_sent = true;
                    } else if outstanding == 0 {
                        return Err(Error::AllReplicasFailed { attempts });
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{NetworkConfig, RbioHandler, RbioServer};
    use socrates_common::latency::{DeviceProfile, IoCpuCost, LatencyModel};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    struct CountingHandler {
        calls: AtomicU64,
        down: AtomicBool,
    }

    impl RbioHandler for CountingHandler {
        fn handle(&self, _req: RbioRequest) -> Result<RbioResponse> {
            if self.down.load(Ordering::SeqCst) {
                return Err(Error::Unavailable("down".into()));
            }
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(RbioResponse::Pong)
        }
    }

    fn server() -> (RbioServer, Arc<CountingHandler>) {
        let h =
            Arc::new(CountingHandler { calls: AtomicU64::new(0), down: AtomicBool::new(false) });
        (RbioServer::new(Arc::clone(&h) as Arc<dyn RbioHandler>), h)
    }

    #[test]
    fn prefers_fast_replica() {
        let (s1, h1) = server();
        let (s2, h2) = server();
        // s1 is slow: 2 ms per message leg. s2 is instant.
        let slow_profile = DeviceProfile {
            name: "slow-lan",
            read: LatencyModel::fixed(2_000),
            write: LatencyModel::fixed(2_000),
            cpu: IoCpuCost { per_op_us: 0, per_4kib_us: 0 },
        };
        let slow_cfg = NetworkConfig {
            profile: slow_profile,
            timeout: std::time::Duration::from_secs(1),
            retries: 0,
            seed: 1,
            ..NetworkConfig::instant()
        };
        let set =
            ReplicaSet::new(vec![s1.connect(slow_cfg), s2.connect(NetworkConfig::instant())], 42);
        for _ in 0..200 {
            set.call(RbioRequest::Ping).unwrap();
        }
        let fast_calls = h2.calls.load(Ordering::SeqCst);
        let slow_calls = h1.calls.load(Ordering::SeqCst);
        assert!(
            fast_calls > slow_calls * 5,
            "QoS should prefer the fast replica (fast {fast_calls}, slow {slow_calls})"
        );
    }

    #[test]
    fn fails_over_when_best_replica_dies() {
        let (s1, h1) = server();
        let (s2, h2) = server();
        let mut cfg = NetworkConfig::instant();
        cfg.retries = 0;
        let set = ReplicaSet::new(vec![s1.connect(cfg.clone()), s2.connect(cfg)], 7);
        for _ in 0..20 {
            set.call(RbioRequest::Ping).unwrap();
        }
        h1.down.store(true, Ordering::SeqCst);
        h2.down.store(false, Ordering::SeqCst);
        for _ in 0..20 {
            set.call(RbioRequest::Ping).unwrap();
        }
        assert!(h2.calls.load(Ordering::SeqCst) >= 20);
        // Both down: the typed exhaustion error surfaces, still transient.
        h2.down.store(true, Ordering::SeqCst);
        let err = set.call(RbioRequest::Ping).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(err, Error::AllReplicasFailed { attempts: 2 });
        // Recovery: calls succeed again (exploration re-finds the replica).
        h1.down.store(false, Ordering::SeqCst);
        for _ in 0..10 {
            set.call(RbioRequest::Ping).unwrap();
        }
    }

    #[test]
    fn routes_around_lossy_replica() {
        // One replica drops half its requests (transient timeouts), the
        // other is reliable: QoS routing plus failover keeps every call
        // succeeding and shifts traffic to the reliable endpoint.
        let (s1, h1) = server();
        let (s2, h2) = server();
        let mut lossy_cfg = NetworkConfig::instant();
        lossy_cfg.request_loss_p = 0.5;
        lossy_cfg.retries = 0;
        lossy_cfg.timeout = std::time::Duration::from_millis(5);
        lossy_cfg.seed = 99;
        let set =
            ReplicaSet::new(vec![s1.connect(lossy_cfg), s2.connect(NetworkConfig::instant())], 11);
        for _ in 0..100 {
            set.call(RbioRequest::Ping).unwrap();
        }
        let lossy_calls = h1.calls.load(Ordering::SeqCst);
        let reliable_calls = h2.calls.load(Ordering::SeqCst);
        assert!(
            reliable_calls > lossy_calls,
            "traffic should shift to the reliable replica (reliable {reliable_calls}, lossy {lossy_calls})"
        );
    }

    #[test]
    fn hedged_total_failure_reports_typed_error() {
        let (s1, h1) = server();
        let (s2, h2) = server();
        h1.down.store(true, Ordering::SeqCst);
        h2.down.store(true, Ordering::SeqCst);
        let mut cfg = NetworkConfig::instant();
        cfg.retries = 0;
        let set = ReplicaSet::new(vec![s1.connect(cfg.clone()), s2.connect(cfg)], 7);
        match set.call(RbioRequest::Ping).unwrap_err() {
            Error::AllReplicasFailed { attempts } => assert!(attempts >= 2),
            other => panic!("expected AllReplicasFailed, got {other:?}"),
        }
    }

    #[test]
    fn hedged_reads_bound_tail_latency_under_one_slow_replica() {
        let (slow_server, _h1) = server();
        let (fast_server, _h2) = server();
        // The slow replica adds 40 ms per message leg → ≥ 80 ms round trip,
        // far beyond the 10 ms `HEDGE_MAX_DELAY`.
        let slow_profile = DeviceProfile {
            name: "slow-lan",
            read: LatencyModel::fixed(40_000),
            write: LatencyModel::fixed(40_000),
            cpu: IoCpuCost { per_op_us: 0, per_4kib_us: 0 },
        };
        let slow_cfg = NetworkConfig {
            profile: slow_profile,
            timeout: std::time::Duration::from_secs(1),
            retries: 0,
            seed: 3,
            ..NetworkConfig::instant()
        };
        let set = ReplicaSet::new(
            vec![slow_server.connect(slow_cfg), fast_server.connect(NetworkConfig::instant())],
            5,
        );
        // The slow replica is index 0 with a zero EWMA, so early calls (and
        // later exploration probes) route to it; each must be rescued by
        // the hedge within HEDGE_MAX_DELAY + the fast round trip.
        let mut worst = std::time::Duration::ZERO;
        for _ in 0..60 {
            let t0 = Instant::now();
            set.call(RbioRequest::Ping).unwrap();
            worst = worst.max(t0.elapsed());
        }
        assert!(
            worst < std::time::Duration::from_millis(20),
            "hedging should bound the tail well below the 80 ms slow round trip (worst {worst:?})"
        );
        assert!(set.hedges_fired().get() >= 1, "at least the first call must hedge");
        assert!(set.hedge_wins().get() >= 1, "the fast replica should win hedged calls");
    }
}
