//! Deterministic fault injection for the Socrates failure modes.
//!
//! The paper's availability story (§6, §8) rests on every tier surviving
//! the death of its neighbours: a page server can crash without losing
//! data, the XLOG feed is lossy by design, the landing zone tolerates
//! replica failure, and XStore outages only defer checkpoints. Exercising
//! those paths needs a way to *break each tier on purpose* — repeatably.
//!
//! A [`FaultRegistry`] holds named **sites** (e.g. `rbio.transport.send`,
//! `lz.write`) that the I/O paths consult. Each site carries zero or more
//! [`FaultRule`]s: a [`FaultSchedule`] deciding *when* to fire (nth call,
//! probability, LSN window) and a [`FaultAction`] deciding *what* happens
//! (error return, added latency, message drop, node crash). All
//! randomness comes from per-rule [`Rng`] instances seeded from the
//! registry seed plus the site name, so the same seed reproduces the
//! identical fault schedule — the chaos suites assert this.
//!
//! The disabled path is one relaxed atomic load: a registry with no armed
//! rules adds no measurable overhead to the hot paths that consult it.

#![doc = "soclint:hot"]

use crate::latency::{precise_sleep, LatencyModel};
use crate::lsn::Lsn;
use crate::metrics::Counter;
use crate::obs::MetricsHub;
use crate::rng::Rng;
use crate::{Error, NodeId, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The canonical fault-site names wired through the workspace. Sites are
/// plain strings so tests can invent private ones, but the constants keep
/// the catalog greppable.
pub mod sites {
    /// Client-side RBIO request leg (before the message reaches a server).
    pub const RBIO_SEND: &str = "rbio.transport.send";
    /// Client-side RBIO response leg (after the server replied).
    pub const RBIO_RECV: &str = "rbio.transport.recv";
    /// Landing-zone quorum write (`LandingZone::write_block`).
    pub const LZ_WRITE: &str = "lz.write";
    /// A hardened report delivering the feed's blocks into `offer_block`
    /// (on the reporting committer's thread, so a latency rule delays it).
    pub const XLOG_FEED_POLL: &str = "xlog.feed.poll";
    /// Page-server RBIO request handling (GetPage@LSN and friends).
    pub const PAGESERVER_SERVE: &str = "pageserver.serve";
    /// Page-server compaction: sealed L0 delta layers merging into an L1
    /// image (`PageServer::compact_blocking`, checked before the swap).
    pub const PS_COMPACT_MERGE: &str = "ps.compact.merge";
    /// Page-server retention GC dropping layers below the PITR horizon
    /// (`PageServer::gc`, checked before any layer is dropped).
    pub const PS_GC_DROP: &str = "ps.gc.drop";
    /// XStore writes (`write_at` / `write_batch` / `append`).
    pub const XSTORE_PUT: &str = "xstore.put";
    /// XStore reads (`read_at`).
    pub const XSTORE_GET: &str = "xstore.get";
    /// Quorum log tier: one acceptor receiving an `AppendReq` (checked
    /// per acceptor, so a latency rule delays a single acceptor's ack).
    pub const LZ_QUORUM_APPEND: &str = "lz.quorum.append";
    /// Quorum log tier: the proposer collecting an acceptor's append ack
    /// (drop = the ack is lost even though the acceptor flushed).
    pub const LZ_QUORUM_ACK: &str = "lz.quorum.ack";
    /// Quorum log tier: one acceptor receiving a `VoteReq` during a
    /// proposer campaign.
    pub const LZ_QUORUM_VOTE: &str = "lz.quorum.vote";

    /// Every site wired through the workspace (the catalog).
    pub const ALL: &[&str] = &[
        RBIO_SEND,
        RBIO_RECV,
        LZ_WRITE,
        XLOG_FEED_POLL,
        PAGESERVER_SERVE,
        PS_COMPACT_MERGE,
        PS_GC_DROP,
        XSTORE_PUT,
        XSTORE_GET,
        LZ_QUORUM_APPEND,
        LZ_QUORUM_ACK,
        LZ_QUORUM_VOTE,
    ];
}

/// The error flavour an [`FaultAction::Error`] rule returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultErrorKind {
    /// `Error::Unavailable` — transient, retried/failed over.
    Unavailable,
    /// `Error::Timeout` — transient, looks like a lost message.
    Timeout,
    /// `Error::Io` — permanent, propagates to the caller.
    Io,
}

impl FaultErrorKind {
    // soclint-allow: hot-path error construction only runs when a fault actually fires
    fn to_error(self, site: &str) -> Error {
        match self {
            FaultErrorKind::Unavailable => Error::Unavailable(format!("fault injected at {site}")),
            FaultErrorKind::Timeout => Error::Timeout(format!("fault injected at {site}")),
            FaultErrorKind::Io => Error::Io(format!("fault injected at {site}")),
        }
    }
}

/// What happens when a rule's schedule fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Return an error of the given flavour from the site.
    Error(FaultErrorKind),
    /// Sleep a latency sampled from the model, then proceed normally.
    /// Reuses [`LatencyModel`], so calibrated device shapes apply.
    Latency(LatencyModel),
    /// Drop the message: the site behaves as if it was lost in transit
    /// (transport sites time out; the feed silently discards the block).
    Drop,
    /// Crash the node hosting the site. Honoured where a node exists to
    /// crash (`pageserver.serve` stops the server); elsewhere it degrades
    /// to `Unavailable`.
    Crash,
}

impl FaultAction {
    /// Short tag used in the fired-event log and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::Error(_) => "error",
            FaultAction::Latency(_) => "latency",
            FaultAction::Drop => "drop",
            FaultAction::Crash => "crash",
        }
    }
}

/// When a rule fires, relative to the site's call counter (1-based) or the
/// call's LSN context.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSchedule {
    /// Exactly the nth call at the site.
    Nth(u64),
    /// Every nth call (n, 2n, 3n, ...).
    EveryNth(u64),
    /// The first n calls.
    FirstN(u64),
    /// Each call independently with probability `p` (seeded, so the fired
    /// set is a pure function of the registry seed and the call order).
    Probability(f64),
    /// Calls whose LSN context lies in `[from, to)`. Sites without an LSN
    /// context never match.
    LsnWindow {
        /// Window start (inclusive).
        from: Lsn,
        /// Window end (exclusive).
        to: Lsn,
    },
    /// Every call.
    Always,
}

/// One armed fault: where, when, what.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// The site this rule arms (see [`sites`]).
    pub site: String,
    /// When it fires.
    pub schedule: FaultSchedule,
    /// What it does.
    pub action: FaultAction,
}

/// What a site must do because a fault fired. Latency faults are served
/// inside [`FaultRegistry::check_at`] (the sleep happens there) and never
/// surface as an outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultOutcome {
    /// Return this error.
    Err(Error),
    /// Behave as if the message was lost.
    Drop,
    /// Crash the hosting node (sites without one treat this as `Drop`
    /// plus unavailability).
    Crash,
}

/// One fired fault, recorded for determinism assertions and artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The site that fired.
    pub site: String,
    /// The site's call counter when it fired (1-based).
    pub call: u64,
    /// The action tag (`error`/`latency`/`drop`/`crash`).
    pub action: &'static str,
}

impl FaultEvent {
    /// One-line rendering for schedule artifacts.
    // soclint-allow: hot-path debug rendering, never on the I/O path
    pub fn render(&self) -> String {
        format!("{}#{} -> {}", self.site, self.call, self.action)
    }
}

struct RuleState {
    rule: FaultRule,
    rng: Mutex<Rng>,
}

struct SiteState {
    calls: AtomicU64,
    fired: Arc<Counter>,
    rules: Vec<Arc<RuleState>>,
}

struct Inner {
    seed: u64,
    /// Number of armed rules across all sites — the hot-path gate.
    armed: AtomicUsize,
    sites: RwLock<HashMap<String, Arc<SiteState>>>,
    log: Mutex<Vec<FaultEvent>>,
    /// Hub to register per-site fired counters into, once bound.
    hub: Mutex<Option<(MetricsHub, NodeId)>>,
}

/// A seeded, deterministic fault-injection registry. Cheap to clone
/// (`Arc` inside); one per deployment, shared by every tier.
#[derive(Clone)]
pub struct FaultRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FaultRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRegistry")
            .field("seed", &self.inner.seed)
            // ordering: relaxed — debug print; staleness fine
            .field("armed", &self.inner.armed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for FaultRegistry {
    fn default() -> Self {
        FaultRegistry::disabled()
    }
}

impl FaultRegistry {
    /// A registry with no rules, seeded for later installs.
    // soclint-allow: hot-path one-time construction
    pub fn new(seed: u64) -> FaultRegistry {
        FaultRegistry {
            inner: Arc::new(Inner {
                seed,
                armed: AtomicUsize::new(0),
                sites: RwLock::with_rank(
                    HashMap::new(),
                    crate::lock_rank::COMMON_FAULT_SITES,
                    "fault.sites",
                ),
                log: Mutex::with_rank(Vec::new(), crate::lock_rank::COMMON_FAULT_LOG, "fault.log"),
                hub: Mutex::with_rank(None, crate::lock_rank::COMMON_FAULT_HUB, "fault.hub"),
            }),
        }
    }

    /// A permanently-quiet registry (the default everywhere).
    pub fn disabled() -> FaultRegistry {
        FaultRegistry::new(0)
    }

    /// The registry's seed.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Whether any rule is armed (the hot-path gate, one atomic load).
    #[inline]
    pub fn is_armed(&self) -> bool {
        // ordering: relaxed — fast-path gate; arming happens-before injected calls
        // via the sites mutex taken in install/clear
        self.inner.armed.load(Ordering::Relaxed) > 0
    }

    /// Consult a site with no LSN context.
    #[inline]
    pub fn check(&self, site: &str) -> Option<FaultOutcome> {
        if !self.is_armed() {
            return None;
        }
        self.check_slow(site, None)
    }

    /// Consult a site with an LSN context (GetPage@LSN's `min_lsn`, a log
    /// block's start LSN) so `LsnWindow` schedules can match.
    #[inline]
    pub fn check_at(&self, site: &str, lsn: Option<Lsn>) -> Option<FaultOutcome> {
        if !self.is_armed() {
            return None;
        }
        self.check_slow(site, lsn)
    }

    // soclint-allow: hot-path only reached when the registry is armed; check() is the hot gate
    fn check_slow(&self, site: &str, lsn: Option<Lsn>) -> Option<FaultOutcome> {
        let state = self.inner.sites.read().get(site).cloned()?;
        if state.rules.is_empty() {
            return None;
        }
        // ordering: relaxed — per-site call counter; the sites mutex orders spec
        // installs against this path
        let call = state.calls.fetch_add(1, Ordering::Relaxed) + 1;
        for rule_state in &state.rules {
            let matches = match &rule_state.rule.schedule {
                FaultSchedule::Nth(n) => call == *n,
                FaultSchedule::EveryNth(n) => *n > 0 && call % *n == 0,
                FaultSchedule::FirstN(n) => call <= *n,
                FaultSchedule::Probability(p) => rule_state.rng.lock().gen_bool(*p),
                FaultSchedule::LsnWindow { from, to } => lsn.is_some_and(|l| l >= *from && l < *to),
                FaultSchedule::Always => true,
            };
            if !matches {
                continue;
            }
            let action = rule_state.rule.action.clone();
            state.fired.incr();
            self.inner.log.lock().push(FaultEvent {
                site: site.to_string(),
                call,
                action: action.name(),
            });
            return match action {
                FaultAction::Error(kind) => Some(FaultOutcome::Err(kind.to_error(site))),
                FaultAction::Latency(model) => {
                    let d = {
                        let mut rng = rule_state.rng.lock();
                        model.sample(&mut rng)
                    };
                    precise_sleep(d);
                    None // the operation proceeds, just late
                }
                FaultAction::Drop => Some(FaultOutcome::Drop),
                FaultAction::Crash => Some(FaultOutcome::Crash),
            };
        }
        None
    }

    /// Total faults fired at `site`.
    pub fn fired_count(&self, site: &str) -> u64 {
        self.inner.sites.read().get(site).map_or(0, |s| s.fired.get())
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.inner.sites.read().values().map(|s| s.fired.get()).sum()
    }

    /// The fired-event log, in fire order — the reproducible fault
    /// schedule the chaos suites compare across runs and dump as a CI
    /// artifact on failure.
    pub fn fired_log(&self) -> Vec<FaultEvent> {
        self.inner.log.lock().clone()
    }

    /// The fired log rendered one event per line (artifact format).
    pub fn render_schedule(&self) -> String {
        let log = self.inner.log.lock();
        let mut out = String::with_capacity(log.len() * 32);
        for e in log.iter() {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

impl SiteState {
    fn fired(&self) -> Arc<Counter> {
        Arc::clone(&self.fired)
    }
}

mod control;

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(site: &str, schedule: FaultSchedule, action: FaultAction) -> FaultRule {
        FaultRule { site: site.into(), schedule, action }
    }

    #[test]
    fn disabled_registry_is_quiet() {
        let f = FaultRegistry::disabled();
        assert!(!f.is_armed());
        for _ in 0..1000 {
            assert_eq!(f.check(sites::LZ_WRITE), None);
        }
        assert_eq!(f.total_fired(), 0);
        assert!(f.fired_log().is_empty());
    }

    #[test]
    fn nth_and_every_nth_fire_on_schedule() {
        let f = FaultRegistry::new(1);
        f.install(rule("a", FaultSchedule::Nth(3), FaultAction::Drop));
        let fired: Vec<bool> = (0..6).map(|_| f.check("a").is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);

        let g = FaultRegistry::new(1);
        g.install(rule("b", FaultSchedule::EveryNth(2), FaultAction::Drop));
        let fired: Vec<bool> = (0..6).map(|_| g.check("b").is_some()).collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
        assert_eq!(g.fired_count("b"), 3);
    }

    #[test]
    fn first_n_and_always() {
        let f = FaultRegistry::new(2);
        f.install(rule("a", FaultSchedule::FirstN(2), FaultAction::Drop));
        let fired: Vec<bool> = (0..4).map(|_| f.check("a").is_some()).collect();
        assert_eq!(fired, vec![true, true, false, false]);
        f.install(rule("b", FaultSchedule::Always, FaultAction::Crash));
        assert_eq!(f.check("b"), Some(FaultOutcome::Crash));
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let run = |seed| {
            let f = FaultRegistry::new(seed);
            f.install(rule("a", FaultSchedule::Probability(0.3), FaultAction::Drop));
            (0..200).map(|_| f.check("a").is_some()).collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must reproduce the schedule");
        assert_ne!(a, run(8), "different seeds should differ");
        let hits = a.iter().filter(|b| **b).count();
        assert!(hits > 30 && hits < 90, "p=0.3 over 200 calls fired {hits} times");
    }

    #[test]
    fn lsn_window_uses_context() {
        let f = FaultRegistry::new(3);
        f.install(rule(
            "a",
            FaultSchedule::LsnWindow { from: Lsn::new(100), to: Lsn::new(200) },
            FaultAction::Error(FaultErrorKind::Unavailable),
        ));
        assert_eq!(f.check_at("a", Some(Lsn::new(50))), None);
        assert!(matches!(
            f.check_at("a", Some(Lsn::new(150))),
            Some(FaultOutcome::Err(Error::Unavailable(_)))
        ));
        assert_eq!(f.check_at("a", Some(Lsn::new(200))), None, "window end is exclusive");
        assert_eq!(f.check_at("a", None), None, "no context never matches");
    }

    #[test]
    fn error_kinds_map_to_variants() {
        let f = FaultRegistry::new(4);
        f.install(rule("a", FaultSchedule::Always, FaultAction::Error(FaultErrorKind::Timeout)));
        match f.check("a") {
            Some(FaultOutcome::Err(e)) => {
                assert_eq!(e.kind(), "timeout");
                assert!(e.is_transient());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn latency_action_sleeps_and_proceeds() {
        let f = FaultRegistry::new(5);
        f.install(rule("a", FaultSchedule::Always, FaultAction::Latency(LatencyModel::fixed(300))));
        let t0 = std::time::Instant::now();
        assert_eq!(f.check("a"), None, "latency faults let the operation proceed");
        assert!(t0.elapsed() >= std::time::Duration::from_micros(250));
        assert_eq!(f.fired_count("a"), 1, "but they count as injected");
    }

    #[test]
    fn clear_disarms_but_keeps_history() {
        let f = FaultRegistry::new(6);
        f.install(rule("a", FaultSchedule::Always, FaultAction::Drop));
        f.check("a");
        f.clear();
        assert!(!f.is_armed());
        assert_eq!(f.check("a"), None);
        assert_eq!(f.fired_count("a"), 1);
        assert_eq!(f.fired_log().len(), 1);
    }

    #[test]
    fn fired_log_records_site_call_action() {
        let f = FaultRegistry::new(7);
        f.install(rule("a", FaultSchedule::EveryNth(2), FaultAction::Drop));
        for _ in 0..4 {
            f.check("a");
        }
        let log = f.fired_log();
        assert_eq!(
            log,
            vec![
                FaultEvent { site: "a".into(), call: 2, action: "drop" },
                FaultEvent { site: "a".into(), call: 4, action: "drop" },
            ]
        );
        assert_eq!(f.render_schedule(), "a#2 -> drop\na#4 -> drop\n");
    }

    #[test]
    fn spec_grammar_roundtrip() {
        let f = FaultRegistry::new(8);
        let n = f
            .install_spec(
                "lz.write@nth:5=error:unavailable; rbio.transport.send@p:0.25=drop; \
                 pageserver.serve@lsn:100..900=crash; xstore.get@every:10=latency:2ms",
            )
            .unwrap();
        assert_eq!(n, 4);
        assert!(f.is_armed());
        // The nth:5 error rule fires exactly once.
        for i in 1..=10u64 {
            let out = f.check(sites::LZ_WRITE);
            assert_eq!(out.is_some(), i == 5, "call {i}");
        }
        // Crash inside the LSN window only.
        assert_eq!(f.check_at(sites::PAGESERVER_SERVE, Some(Lsn::new(99))), None);
        assert_eq!(
            f.check_at(sites::PAGESERVER_SERVE, Some(Lsn::new(100))),
            Some(FaultOutcome::Crash)
        );
    }

    #[test]
    fn spec_errors_are_reported() {
        let f = FaultRegistry::new(9);
        assert!(f.install_spec("no-at-sign").is_err());
        assert!(f.install_spec("a@nth:x=drop").is_err());
        assert!(f.install_spec("a@p:1.5=drop").is_err());
        assert!(f.install_spec("a@always=explode").is_err());
        assert!(f.install_spec("a@always=latency:5").is_err(), "latency needs a suffix");
        assert!(f.install_spec("a@lsn:10=drop").is_err());
        assert!(!f.is_armed(), "failed specs must not partially arm... ");
    }

    #[test]
    fn hub_binding_exports_per_site_counters() {
        let hub = MetricsHub::new();
        let f = FaultRegistry::new(10);
        f.install(rule("x.y", FaultSchedule::Always, FaultAction::Drop));
        f.bind_hub(&hub, NodeId::FAULT);
        // Sites installed after binding register too.
        f.install(rule("z.w", FaultSchedule::Always, FaultAction::Drop));
        f.check("x.y");
        f.check("x.y");
        f.check("z.w");
        let snap = hub.snapshot();
        assert_eq!(
            snap.get(NodeId::FAULT, "fault_injected_total.x.y"),
            Some(&crate::obs::MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get(NodeId::FAULT, "fault_injected_total.z.w"),
            Some(&crate::obs::MetricValue::Counter(1))
        );
        let full: Vec<String> = snap.samples.iter().map(|s| s.full_name()).collect();
        assert!(full.contains(&"fault.0.fault_injected_total.x.y".to_string()));
    }

    #[test]
    fn rules_at_one_site_fire_first_match() {
        let f = FaultRegistry::new(11);
        f.install(rule("a", FaultSchedule::Nth(2), FaultAction::Drop));
        f.install(rule("a", FaultSchedule::Always, FaultAction::Crash));
        assert_eq!(f.check("a"), Some(FaultOutcome::Crash), "call 1: second rule");
        assert_eq!(f.check("a"), Some(FaultOutcome::Drop), "call 2: first rule wins");
        assert_eq!(f.check("a"), Some(FaultOutcome::Crash), "call 3: second rule again");
    }
}
