//! The in-process RBIO transport: a call runs the server's handler between
//! two modelled wire legs, with injectable latency, loss, and faults.

use crate::proto::{Envelope, RbioRequest, RbioResponse};
use parking_lot::Mutex;
use socrates_common::fault::{sites, FaultOutcome, FaultRegistry};
use socrates_common::latency::{DeviceProfile, LatencyInjector, LatencyMode};
use socrates_common::metrics::{Counter, Histogram};
use socrates_common::obs::TraceCtx;
use socrates_common::rng::Rng;
use socrates_common::{Error, Lsn, Result};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Exponential-backoff policy applied between retry attempts of one call.
///
/// The wait before attempt `k` (k ≥ 1) is `base * multiplier^(k-1)`,
/// capped at `max`, with a symmetric jitter of ±`jitter` (fraction of the
/// wait) drawn from the client's seeded RNG so retry storms decorrelate
/// deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// Wait before the first retry.
    pub base: Duration,
    /// Growth factor per further retry.
    pub multiplier: f64,
    /// Ceiling on any single wait.
    pub max: Duration,
    /// Jitter fraction in `[0, 1]`: the wait is scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl BackoffPolicy {
    /// Backoff suited to the instant in-process transport: microsecond
    /// waits that decorrelate retries without slowing tests.
    pub fn instant() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_micros(100),
            multiplier: 2.0,
            max: Duration::from_millis(50),
            jitter: 0.2,
        }
    }

    /// Backoff suited to LAN timeouts (milliseconds, capped well below the
    /// per-call timeout).
    pub fn lan() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(1),
            multiplier: 2.0,
            max: Duration::from_millis(200),
            jitter: 0.2,
        }
    }
}

/// Network behaviour for one client↔server link.
#[derive(Clone)]
pub struct NetworkConfig {
    /// Latency profile for each message leg (request and response each pay
    /// one `read` sample).
    pub profile: DeviceProfile,
    /// Whether latency is actually waited out.
    pub mode: LatencyMode,
    /// Probability that a request message is silently dropped (the client
    /// then times out and retries).
    pub request_loss_p: f64,
    /// How long a lost request takes to be noticed before a retry. A
    /// delivered call is bounded by the handler's own deadlines instead
    /// (GetPage@LSN's `get_page_timeout`, 10 s by default, sits below the
    /// fabric's 15 s link timeout).
    pub timeout: Duration,
    /// Retries after the first attempt (transient failures only).
    pub retries: u32,
    /// Wait policy between retry attempts.
    pub backoff: BackoffPolicy,
    /// Total wall-clock budget for one call including retries and backoff
    /// waits; once exceeded, no further attempts are made.
    pub call_budget: Duration,
    /// Fault-injection registry consulted on the send and recv legs
    /// (disabled by default).
    pub faults: FaultRegistry,
    /// RNG seed.
    pub seed: u64,
}

impl NetworkConfig {
    /// Instant, lossless transport for unit tests.
    pub fn instant() -> NetworkConfig {
        NetworkConfig {
            profile: DeviceProfile::instant(),
            mode: LatencyMode::Disabled,
            request_loss_p: 0.0,
            timeout: Duration::from_secs(5),
            retries: 2,
            backoff: BackoffPolicy::instant(),
            call_budget: Duration::from_secs(10),
            faults: FaultRegistry::disabled(),
            seed: 0,
        }
    }

    /// Intra-datacenter LAN with real waits.
    pub fn lan(seed: u64) -> NetworkConfig {
        NetworkConfig {
            profile: DeviceProfile::lan(),
            mode: LatencyMode::real(),
            request_loss_p: 0.0,
            timeout: Duration::from_secs(2),
            retries: 3,
            backoff: BackoffPolicy::lan(),
            call_budget: Duration::from_secs(10),
            faults: FaultRegistry::disabled(),
            seed,
        }
    }
}

/// The LSN context a request carries, for `LsnWindow` fault schedules.
fn lsn_context(req: &RbioRequest) -> Option<Lsn> {
    match req {
        RbioRequest::GetPage { min_lsn, .. } | RbioRequest::GetPageRange { min_lsn, .. } => {
            Some(*min_lsn)
        }
        _ => None,
    }
}

/// Server-side request handler. Implementations may block (GetPage@LSN
/// waits for log apply); a call runs the handler on the calling thread.
pub trait RbioHandler: Send + Sync + 'static {
    /// Handle one request.
    fn handle(&self, req: RbioRequest) -> Result<RbioResponse>;

    /// Handle one request carrying the caller's trace context. The
    /// default discards the context, so handlers that don't trace are
    /// unaffected; span-aware handlers (the page server) override this
    /// to parent their serve spans under the caller's.
    fn handle_ctx(&self, req: RbioRequest, ctx: TraceCtx) -> Result<RbioResponse> {
        let _ = ctx;
        self.handle(req)
    }
}

/// What a server shares with its clients: the handler and its served count.
struct Endpoint {
    handler: Arc<dyn RbioHandler>,
    requests_served: Counter,
}

/// An RBIO server endpoint. It spawns no thread: a call runs the handler
/// between the two modelled wire legs on the caller's thread. Dropping the
/// server closes the endpoint; a call already inside the handler finishes.
pub struct RbioServer {
    endpoint: Arc<Endpoint>,
}

impl RbioServer {
    /// Open an endpoint over `handler`.
    pub fn new(handler: Arc<dyn RbioHandler>) -> RbioServer {
        RbioServer { endpoint: Arc::new(Endpoint { handler, requests_served: Counter::new() }) }
    }

    /// Requests that reached the handler.
    pub fn requests_served(&self) -> u64 {
        self.endpoint.requests_served.get()
    }

    /// Create a client connected to this server with the given link
    /// behaviour.
    pub fn connect(&self, config: NetworkConfig) -> RbioClient {
        RbioClient {
            endpoint: Arc::downgrade(&self.endpoint),
            latency: LatencyInjector::new(config.profile.clone(), config.mode, config.seed),
            rng: Mutex::with_rank(
                Rng::new(config.seed ^ 0x5EED),
                socrates_common::lock_rank::RBIO_TRANSPORT_RNG,
                "rbio.client_rng",
            ),
            config,
            metrics: RbioClientMetrics::default(),
        }
    }
}

/// Client-side call metrics.
#[derive(Debug, Default)]
pub struct RbioClientMetrics {
    /// Successful calls.
    pub calls_ok: Counter,
    /// Calls that failed after exhausting retries.
    pub calls_failed: Counter,
    /// Individual attempts that timed out (lost or slow messages).
    pub timeouts: Counter,
    /// Retry attempts made after a transient failure.
    pub retries: Counter,
    /// Backoff waits between attempts, µs.
    pub backoff_us: Histogram,
    /// End-to-end call latency, µs (successful calls).
    pub call_latency: Histogram,
}

/// A client stub bound to one server.
pub struct RbioClient {
    endpoint: Weak<Endpoint>,
    config: NetworkConfig,
    latency: LatencyInjector,
    rng: Mutex<Rng>,
    metrics: RbioClientMetrics,
}

impl RbioClient {
    /// Client metrics.
    pub fn metrics(&self) -> &RbioClientMetrics {
        &self.metrics
    }

    /// Issue `req`, retrying transient failures per the link config with
    /// jittered exponential backoff, bounded by the call budget.
    pub fn call(&self, req: RbioRequest) -> Result<RbioResponse> {
        self.call_with_ctx(req, TraceCtx::NONE)
    }

    /// [`call`](Self::call), stamping the caller's trace context on every
    /// attempt's envelope so the server parents its spans under it.
    pub fn call_with_ctx(&self, req: RbioRequest, ctx: TraceCtx) -> Result<RbioResponse> {
        let t0 = Instant::now();
        let mut last_err = Error::Unavailable("rbio: no attempt made".into());
        let mut wait = self.config.backoff.base;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                // Budget check before spending more time: count both the
                // upcoming wait and the attempt's worst case conservatively
                // by requiring the wait itself to fit.
                if t0.elapsed() + wait >= self.config.call_budget {
                    break;
                }
                let jitter = self.config.backoff.jitter.clamp(0.0, 1.0);
                let factor = if jitter > 0.0 {
                    1.0 + jitter * (2.0 * self.rng.lock().gen_f64() - 1.0)
                } else {
                    1.0
                };
                let jittered = wait.mul_f64(factor.max(0.0));
                self.metrics.retries.incr();
                self.metrics.backoff_us.record_duration(jittered);
                std::thread::sleep(jittered);
                wait = wait.mul_f64(self.config.backoff.multiplier).min(self.config.backoff.max);
            }
            match self.try_once(req.clone(), ctx) {
                Ok(resp) => {
                    self.metrics.calls_ok.incr();
                    self.metrics.call_latency.record_duration(t0.elapsed());
                    return Ok(resp);
                }
                Err(e) if e.is_transient() => last_err = e,
                Err(e) => {
                    self.metrics.calls_failed.incr();
                    return Err(e);
                }
            }
        }
        self.metrics.calls_failed.incr();
        Err(last_err)
    }

    /// Map a fault outcome on a transport leg to the client-visible error:
    /// dropped (or crashed-link) messages look like timeouts.
    fn leg_fault(&self, outcome: FaultOutcome, leg: &str) -> Error {
        match outcome {
            FaultOutcome::Err(e) => {
                if matches!(e, Error::Timeout(_)) {
                    self.metrics.timeouts.incr();
                }
                e
            }
            FaultOutcome::Drop | FaultOutcome::Crash => {
                self.metrics.timeouts.incr();
                Error::Timeout(format!("fault: rbio {leg} message dropped"))
            }
        }
    }

    fn try_once(&self, req: RbioRequest, ctx: TraceCtx) -> Result<RbioResponse> {
        let lsn = lsn_context(&req);
        if let Some(outcome) = self.config.faults.check_at(sites::RBIO_SEND, lsn) {
            return Err(self.leg_fault(outcome, "request"));
        }
        // Request leg latency.
        self.latency.read_delay();
        // Simulated packet loss: the request never reaches the server.
        if self.config.request_loss_p > 0.0 && self.rng.lock().gen_bool(self.config.request_loss_p)
        {
            self.metrics.timeouts.incr();
            // Model the timeout without necessarily sleeping through it in
            // disabled-latency mode.
            if matches!(self.latency.profile().read.max_us, 0) {
                return Err(Error::Timeout("rbio request lost".into()));
            }
            std::thread::sleep(self.config.timeout);
            return Err(Error::Timeout("rbio request lost".into()));
        }
        let endpoint = self
            .endpoint
            .upgrade()
            .ok_or_else(|| Error::Unavailable("rbio server is gone".into()))?;
        let env = Envelope::with_ctx(req, ctx);
        env.check_version()?;
        let result = endpoint.handler.handle_ctx(env.body, env.ctx);
        endpoint.requests_served.incr();
        if let Some(outcome) = self.config.faults.check_at(sites::RBIO_RECV, lsn) {
            return Err(self.leg_fault(outcome, "response"));
        }
        // Response leg latency.
        self.latency.read_delay();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_common::{Lsn, PageId};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct EchoHandler;

    impl RbioHandler for EchoHandler {
        fn handle(&self, req: RbioRequest) -> Result<RbioResponse> {
            match req {
                RbioRequest::Ping => Ok(RbioResponse::Pong),
                RbioRequest::GetAppliedLsn => Ok(RbioResponse::AppliedLsn { lsn: Lsn::new(42) }),
                RbioRequest::GetPage { page_id, .. } => Ok(RbioResponse::Page {
                    bytes: page_id.raw().to_le_bytes().to_vec(),
                    serve_us: 0,
                }),
                RbioRequest::GetPageRange { count, .. } => Ok(RbioResponse::PageRange {
                    pages: (0..count).map(|i| vec![i as u8]).collect(),
                    serve_us: 0,
                }),
            }
        }
    }

    struct FlakyHandler {
        failures_left: AtomicU64,
    }

    impl RbioHandler for FlakyHandler {
        fn handle(&self, _req: RbioRequest) -> Result<RbioResponse> {
            // ordering: seqcst — fault arming is a test control plane; the check
            // must sit in the same total order as the arming store (load + store
            // is race-benign here: tests arm before issuing traffic)
            let left = self.failures_left.load(Ordering::SeqCst);
            if left > 0 {
                self.failures_left.store(left - 1, Ordering::SeqCst); // ordering: seqcst — see the load above
                return Err(Error::Unavailable("warming up".into()));
            }
            Ok(RbioResponse::Pong)
        }
    }

    #[test]
    fn request_response_roundtrip() {
        let server = RbioServer::new(Arc::new(EchoHandler));
        let client = server.connect(NetworkConfig::instant());
        assert_eq!(client.call(RbioRequest::Ping).unwrap(), RbioResponse::Pong);
        assert_eq!(
            client.call(RbioRequest::GetAppliedLsn).unwrap(),
            RbioResponse::AppliedLsn { lsn: Lsn::new(42) }
        );
        match client
            .call(RbioRequest::GetPage { page_id: PageId::new(9), min_lsn: Lsn::ZERO })
            .unwrap()
        {
            RbioResponse::Page { bytes, .. } => assert_eq!(bytes, 9u64.to_le_bytes().to_vec()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.metrics().calls_ok.get(), 3);
        assert_eq!(server.requests_served(), 3);
    }

    /// Names of this process's threads that serve RBIO: every `rbio-`
    /// thread except the hedge attempts other tests in this binary fire.
    fn rbio_server_threads() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .map(|tasks| {
                tasks
                    .flatten()
                    .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
                    .map(|comm| comm.trim().to_string())
                    .filter(|comm| comm.starts_with("rbio-") && comm != "rbio-hedge")
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn a_call_runs_the_handler_on_the_calling_thread() {
        struct ThreadCapture(Mutex<Option<std::thread::ThreadId>>);
        impl RbioHandler for ThreadCapture {
            fn handle(&self, _req: RbioRequest) -> Result<RbioResponse> {
                *self.0.lock() = Some(std::thread::current().id());
                Ok(RbioResponse::Pong)
            }
        }
        let handler = Arc::new(ThreadCapture(Mutex::new(None)));
        let server = RbioServer::new(Arc::clone(&handler) as Arc<dyn RbioHandler>);
        assert_eq!(
            rbio_server_threads(),
            Vec::<String>::new(),
            "building a server starts no thread"
        );
        let client = server.connect(NetworkConfig::instant());
        assert_eq!(client.call(RbioRequest::Ping).unwrap(), RbioResponse::Pong);
        assert_eq!(*handler.0.lock(), Some(std::thread::current().id()));
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn trace_ctx_crosses_the_wire() {
        struct CtxCapture {
            trace: AtomicU64,
            span: AtomicU64,
        }
        impl RbioHandler for CtxCapture {
            fn handle(&self, _req: RbioRequest) -> Result<RbioResponse> {
                Ok(RbioResponse::Pong)
            }
            fn handle_ctx(&self, req: RbioRequest, ctx: TraceCtx) -> Result<RbioResponse> {
                // ordering: seqcst — test capture, no perf concern
                self.trace.store(ctx.trace_id, Ordering::SeqCst);
                self.span.store(ctx.span_id, Ordering::SeqCst);
                self.handle(req)
            }
        }
        let handler = Arc::new(CtxCapture { trace: AtomicU64::new(0), span: AtomicU64::new(0) });
        let server = RbioServer::new(Arc::clone(&handler) as Arc<dyn RbioHandler>);
        let client = server.connect(NetworkConfig::instant());
        let ctx = TraceCtx { trace_id: 7, span_id: 9 };
        client.call_with_ctx(RbioRequest::Ping, ctx).unwrap();
        assert_eq!(handler.trace.load(Ordering::SeqCst), 7);
        assert_eq!(handler.span.load(Ordering::SeqCst), 9);
        // A plain call carries the zero context.
        client.call(RbioRequest::Ping).unwrap();
        assert_eq!(handler.trace.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_clients_share_server() {
        let server = Arc::new(RbioServer::new(Arc::new(EchoHandler)));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let client = server.connect(NetworkConfig::instant());
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(client.call(RbioRequest::Ping).unwrap(), RbioResponse::Pong);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.requests_served(), 800);
    }

    #[test]
    fn transient_server_errors_are_retried() {
        let server = RbioServer::new(Arc::new(FlakyHandler { failures_left: AtomicU64::new(2) }));
        let client = server.connect(NetworkConfig::instant()); // retries: 2
        assert_eq!(client.call(RbioRequest::Ping).unwrap(), RbioResponse::Pong);
    }

    #[test]
    fn retries_exhausted_reports_transient_error() {
        let server = RbioServer::new(Arc::new(FlakyHandler { failures_left: AtomicU64::new(100) }));
        let client = server.connect(NetworkConfig::instant());
        let err = client.call(RbioRequest::Ping).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(client.metrics().calls_failed.get(), 1);
    }

    #[test]
    fn lost_requests_time_out_and_eventually_succeed() {
        let server = RbioServer::new(Arc::new(EchoHandler));
        let mut cfg = NetworkConfig::instant();
        cfg.request_loss_p = 0.5;
        cfg.retries = 20;
        cfg.seed = 3;
        let client = server.connect(cfg);
        for _ in 0..20 {
            assert_eq!(client.call(RbioRequest::Ping).unwrap(), RbioResponse::Pong);
        }
        assert!(client.metrics().timeouts.get() > 0, "some losses must have occurred");
    }

    #[test]
    fn server_shutdown_yields_unavailable() {
        let server = RbioServer::new(Arc::new(EchoHandler));
        let client = server.connect(NetworkConfig::instant());
        drop(server);
        let err = client.call(RbioRequest::Ping).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn retries_are_counted_and_backed_off() {
        let server = RbioServer::new(Arc::new(FlakyHandler { failures_left: AtomicU64::new(2) }));
        let client = server.connect(NetworkConfig::instant());
        assert_eq!(client.call(RbioRequest::Ping).unwrap(), RbioResponse::Pong);
        assert_eq!(client.metrics().retries.get(), 2);
        assert_eq!(client.metrics().backoff_us.count(), 2);
    }

    #[test]
    fn call_budget_bounds_retry_time() {
        let server =
            RbioServer::new(Arc::new(FlakyHandler { failures_left: AtomicU64::new(u64::MAX) }));
        let mut cfg = NetworkConfig::instant();
        cfg.retries = 1_000;
        cfg.backoff.base = Duration::from_millis(20);
        cfg.backoff.multiplier = 1.0;
        cfg.call_budget = Duration::from_millis(100);
        let client = server.connect(cfg);
        let t0 = Instant::now();
        let err = client.call(RbioRequest::Ping).unwrap_err();
        assert!(err.is_transient());
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "budget must stop the retry loop well before 1000 retries"
        );
        assert!(client.metrics().retries.get() < 20);
    }

    #[test]
    fn send_fault_error_is_retried_through() {
        use socrates_common::fault::{FaultAction, FaultErrorKind, FaultRule, FaultSchedule};
        let server = RbioServer::new(Arc::new(EchoHandler));
        let mut cfg = NetworkConfig::instant();
        cfg.faults = FaultRegistry::new(1);
        cfg.faults.install(FaultRule {
            site: sites::RBIO_SEND.into(),
            schedule: FaultSchedule::FirstN(2),
            action: FaultAction::Error(FaultErrorKind::Unavailable),
        });
        let client = server.connect(cfg.clone());
        // retries: 2, so the first two injected failures are absorbed.
        assert_eq!(client.call(RbioRequest::Ping).unwrap(), RbioResponse::Pong);
        assert_eq!(cfg.faults.fired_count(sites::RBIO_SEND), 2);
        assert_eq!(client.metrics().retries.get(), 2);
    }

    #[test]
    fn recv_fault_drop_times_out() {
        use socrates_common::fault::{FaultAction, FaultRule, FaultSchedule};
        let server = RbioServer::new(Arc::new(EchoHandler));
        let mut cfg = NetworkConfig::instant();
        cfg.retries = 0;
        cfg.faults = FaultRegistry::new(2);
        cfg.faults.install(FaultRule {
            site: sites::RBIO_RECV.into(),
            schedule: FaultSchedule::Always,
            action: FaultAction::Drop,
        });
        let client = server.connect(cfg.clone());
        let err = client.call(RbioRequest::Ping).unwrap_err();
        assert_eq!(err.kind(), "timeout");
        assert_eq!(client.metrics().timeouts.get(), 1);
        // The request did reach the server; only the response was lost.
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn lsn_window_fault_only_hits_matching_reads() {
        use socrates_common::fault::{FaultAction, FaultErrorKind, FaultRule, FaultSchedule};
        let server = RbioServer::new(Arc::new(EchoHandler));
        let mut cfg = NetworkConfig::instant();
        cfg.retries = 0;
        cfg.faults = FaultRegistry::new(3);
        cfg.faults.install(FaultRule {
            site: sites::RBIO_SEND.into(),
            schedule: FaultSchedule::LsnWindow { from: Lsn::new(100), to: Lsn::new(200) },
            action: FaultAction::Error(FaultErrorKind::Io),
        });
        let client = server.connect(cfg);
        // Ping has no LSN context: never faulted.
        assert!(client.call(RbioRequest::Ping).is_ok());
        // GetPage below the window: fine.
        assert!(client
            .call(RbioRequest::GetPage { page_id: PageId::new(1), min_lsn: Lsn::new(50) })
            .is_ok());
        // Inside the window: the (non-transient) injected error surfaces.
        let err = client
            .call(RbioRequest::GetPage { page_id: PageId::new(1), min_lsn: Lsn::new(150) })
            .unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
