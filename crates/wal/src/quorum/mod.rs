//! The quorum log tier: safekeeper-style replicated WAL acceptors.
//!
//! The landing zone (paper §4.1.4) hardens blocks through a fixed write
//! quorum of passive devices behind a single designated writer. This
//! module replaces that single point with an *acceptance protocol*: three
//! (or more) acceptor nodes each hold their own copy of the log tail,
//! vote on proposer leadership by term, and a block counts as durable
//! once a majority has flushed it. A restarted primary campaigns for a
//! new term instead of assuming it still owns the log, so a deposed
//! writer can never split the stream.
//!
//! Layout:
//! * [`protocol`] — the pure decision core (terms, votes, truncation,
//!   append verdicts). No I/O, no threads, no clock.
//! * [`sim`] — a deterministic step-function simulator that drives
//!   protocol cores through seeded message interleavings and checks the
//!   safety invariants after every step.
//! * this file — the live tier: [`Acceptor`] (a protocol core married to
//!   real block storage and a latency model) and [`QuorumLog`] (the
//!   proposer: fan-out workers, commit watermark, campaigns, catch-up).
//!
//! [`QuorumLog`] implements [`LogStore`], so the fabric can mount it
//! where the landing zone normally sits. It does so only for
//! `quorum_acceptors >= 2`; with fewer it mounts the landing zone.

pub mod protocol;
pub mod sim;

use crate::block::LogBlock;
use crate::pipeline::{BlockSink, Submitted};
use crate::store::LogStore;
use parking_lot::Mutex;
use protocol::{
    choose_donor, AcceptorCore, AppendVerdict, ElectedResp, Entry, Term, TermHistory, VoteResp,
};
use socrates_common::fault::{sites, FaultOutcome, FaultRegistry};
use socrates_common::latency::LatencyInjector;
use socrates_common::lock_rank;
use socrates_common::lsn::AtomicLsn;
use socrates_common::metrics::Counter;
use socrates_common::obs::MetricsHub;
use socrates_common::{Error, Lsn, NodeId, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Shape of the quorum tier. A block commits once a majority
/// (`acceptors / 2 + 1`) has flushed it.
#[derive(Clone, Debug)]
pub struct QuorumConfig {
    /// Number of acceptors. The fabric mounts the tier only for two or
    /// more; a single acceptor (a quorum of one) is a unit-test shape.
    pub acceptors: usize,
    /// Logical capacity of each acceptor's retained window, bytes.
    /// Appends beyond it get destage backpressure like the landing zone.
    pub capacity: u64,
}

impl QuorumConfig {
    /// Acks required to commit: a majority.
    pub fn required(&self) -> usize {
        self.acceptors / 2 + 1
    }
}

/// What one acceptor holds under its lock: the protocol core plus the
/// actual block images for its retained entries.
struct AcceptorState {
    core: AcceptorCore,
    /// Retained block images keyed by start LSN; always mirrors
    /// `core.entries()` exactly.
    blocks: BTreeMap<Lsn, LogBlock>,
}

/// One live acceptor node: durable protocol state (survives `kill`), a
/// latency model for its device, and lock-free mirrors of the metrics
/// the hub samples.
pub struct Acceptor {
    id: usize,
    state: Mutex<AcceptorState>,
    /// Whether the node is responding. A killed acceptor refuses every
    /// message but keeps its state (crash, not disk loss).
    up: AtomicBool,
    latency: Option<LatencyInjector>,
    // Hub snapshot closures may only read atomics (see lock_rank.rs), so
    // the lock-guarded truth is mirrored here after every mutation.
    flush_pub: AtomicU64,
    term_pub: AtomicU64,
    elected_pub: AtomicU64,
}

impl Acceptor {
    /// A fresh acceptor whose log starts at `start`.
    pub fn new(id: usize, start: Lsn, latency: Option<LatencyInjector>) -> Acceptor {
        Acceptor {
            id,
            state: Mutex::with_rank(
                AcceptorState { core: AcceptorCore::new(start), blocks: BTreeMap::new() },
                lock_rank::WAL_ACCEPTOR_STATE,
                "quorum.acceptor",
            ),
            up: AtomicBool::new(true),
            latency,
            flush_pub: AtomicU64::new(start.offset()),
            term_pub: AtomicU64::new(0),
            elected_pub: AtomicU64::new(0),
        }
    }

    /// The acceptor's index within the quorum.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the node is responding.
    pub fn is_up(&self) -> bool {
        // ordering: relaxed — liveness flag; messages to a just-killed
        // node failing later is indistinguishable from network delay
        self.up.load(Ordering::Relaxed)
    }

    /// Stop responding (crash). State is kept.
    pub fn kill(&self) {
        // ordering: relaxed — see is_up
        self.up.store(false, Ordering::Relaxed);
    }

    /// Resume responding with the pre-crash durable state.
    pub fn restart(&self) {
        // ordering: relaxed — see is_up
        self.up.store(true, Ordering::Relaxed);
    }

    /// The flushed-to LSN (atomic mirror; safe from hub closures).
    pub fn flush_lsn(&self) -> Lsn {
        // ordering: relaxed — monitoring mirror of the lock-guarded truth
        Lsn::new(self.flush_pub.load(Ordering::Relaxed))
    }

    /// The promised term (atomic mirror).
    pub fn term(&self) -> Term {
        // ordering: relaxed — monitoring mirror
        self.term_pub.load(Ordering::Relaxed)
    }

    /// The highest term whose election announcement was processed.
    pub fn elected_term(&self) -> Term {
        // ordering: relaxed — monitoring mirror
        self.elected_pub.load(Ordering::Relaxed)
    }

    fn sync_pub(&self, st: &AcceptorState) {
        // ordering: relaxed — mirrors are monitoring-only; the lock is
        // the synchronisation point for protocol state
        self.flush_pub.store(st.core.flush().offset(), Ordering::Relaxed);
        // ordering: relaxed — monitoring mirror, lock carries the data
        self.term_pub.store(st.core.term(), Ordering::Relaxed);
        // ordering: relaxed — monitoring mirror, lock carries the data
        self.elected_pub.store(st.core.elected_term(), Ordering::Relaxed);
    }

    /// Handle a campaign vote request. `None` when the node is down.
    pub fn vote(&self, term: Term) -> Option<VoteResp> {
        if !self.is_up() {
            return None;
        }
        let mut st = self.state.lock();
        let resp = st.core.handle_vote(term);
        self.sync_pub(&st);
        Some(resp)
    }

    /// Handle a `ProposerElected` announcement, truncating any divergent
    /// tail (and its block images). `None` when the node is down.
    pub fn elected(&self, term: Term, history: &TermHistory) -> Option<ElectedResp> {
        if !self.is_up() {
            return None;
        }
        let mut st = self.state.lock();
        let resp = st.core.handle_elected(term, history);
        if resp.accepted {
            let flush = resp.flush;
            st.blocks.retain(|start, _| *start < flush);
        }
        self.sync_pub(&st);
        Some(resp)
    }

    /// Offer one block for flushing. `entry_term` is the term that
    /// originally wrote the block (differs from `proposer_term` during
    /// catch-up backfill). `None` when the node is down.
    pub fn append(
        &self,
        proposer_term: Term,
        entry_term: Term,
        block: &LogBlock,
    ) -> Option<AppendVerdict> {
        if !self.is_up() {
            return None;
        }
        if let Some(inj) = &self.latency {
            // Model the device flush before taking the lock, so one slow
            // acceptor delays its own ack, not the whole quorum.
            inj.write_delay();
        }
        let entry = Entry {
            start: block.start_lsn(),
            end: block.end_lsn(),
            term: entry_term,
            payload: fingerprint(block.as_bytes()),
        };
        let mut st = self.state.lock();
        let verdict = st.core.handle_append(proposer_term, entry);
        if verdict == AppendVerdict::Appended {
            st.blocks.insert(block.start_lsn(), block.clone());
        }
        self.sync_pub(&st);
        Some(verdict)
    }

    /// Read the retained block starting at `lsn`. `None` when down or
    /// not held.
    pub fn read_block(&self, lsn: Lsn) -> Option<LogBlock> {
        self.read_block_with_term(lsn).map(|(b, _)| b)
    }

    /// Read a retained block plus the term that originally wrote it —
    /// what catch-up needs to keep the laggard's term history accurate.
    pub fn read_block_with_term(&self, lsn: Lsn) -> Option<(LogBlock, Term)> {
        if !self.is_up() {
            return None;
        }
        if let Some(inj) = &self.latency {
            inj.read_delay();
        }
        let st = self.state.lock();
        let block = st.blocks.get(&lsn)?.clone();
        let term = st.core.entry_at(lsn)?.term;
        Some((block, term))
    }

    /// Oldest retained LSN (the destage horizon).
    pub fn base(&self) -> Lsn {
        self.state.lock().core.base()
    }

    /// Destage trim: drop blocks wholly below `lsn`. Skipped while down
    /// (a crashed node cannot receive the message; rejoin catch-up will
    /// fast-forward it past ranges destaged in its absence).
    pub fn truncate_to(&self, lsn: Lsn) {
        if !self.is_up() {
            return;
        }
        let mut st = self.state.lock();
        st.core.truncate_base(lsn);
        let base = st.core.base();
        st.blocks.retain(|_, b| b.end_lsn() > base);
        self.sync_pub(&st);
    }

    /// Reseed past a range destaged out of every peer (see
    /// [`AcceptorCore::fast_forward`]).
    pub fn fast_forward(&self, to: Lsn, history: &TermHistory) {
        if !self.is_up() {
            return;
        }
        let mut st = self.state.lock();
        st.core.fast_forward(to, history);
        st.blocks.clear();
        self.sync_pub(&st);
    }
}

/// FNV-1a over the block image — the content fingerprint stored in each
/// protocol entry so divergent payloads are detectable.
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One append fanned out to an acceptor worker.
struct Job {
    proposer_term: Term,
    entry_term: Term,
    history: Arc<TermHistory>,
    block: LogBlock,
    ack: mpsc::Sender<Ack>,
}

/// One acceptor's answer to a fanned-out append.
struct Ack {
    ok: bool,
    flush: Lsn,
    /// A newer term the acceptor reported (0 = none) — the proposer has
    /// been deposed and must stop writing.
    observed_term: Term,
}

/// State shared between the proposer front and its acceptor workers.
struct Shared {
    acceptors: Vec<Arc<Acceptor>>,
    faults: FaultRegistry,
    /// Blocks replicated during catch-up (straggler backfill volume).
    catchup_blocks: Counter,
}

impl Shared {
    fn check_fault(&self, site: &str, lsn: Option<Lsn>) -> Option<FaultOutcome> {
        self.faults.check_at(site, lsn)
    }

    /// Stream the laggard `idx` forward until its flush reaches `target`,
    /// reading each missing block from whichever peer still retains it.
    /// Falls back to [`Acceptor::fast_forward`] when the missing range was
    /// destaged out of every peer. Returns the final flush LSN.
    fn catch_up(&self, idx: usize, target: Lsn, term: Term, history: &TermHistory) -> Result<Lsn> {
        let acc = &self.acceptors[idx];
        loop {
            let flush = match acc.elected(term, history) {
                Some(resp) if resp.accepted => resp.flush,
                Some(_) => {
                    return Err(Error::Unavailable(format!(
                        "acceptor {idx} is ahead of term {term}; catch-up abandoned"
                    )))
                }
                None => {
                    return Err(Error::Unavailable(format!(
                        "acceptor {idx} went down during catch-up"
                    )))
                }
            };
            if flush >= target {
                return Ok(flush);
            }
            match self.check_fault(sites::LZ_QUORUM_APPEND, Some(flush)) {
                Some(FaultOutcome::Crash) => {
                    acc.kill();
                    return Err(Error::Unavailable(format!(
                        "fault: acceptor {idx} crashed during catch-up"
                    )));
                }
                Some(_) => {
                    return Err(Error::Unavailable(format!(
                        "fault: catch-up append to acceptor {idx} failed"
                    )));
                }
                None => {}
            }
            // Find a peer that still retains the block at `flush`.
            let served = self.peers_up(idx).find_map(|p| p.read_block_with_term(flush));
            match served {
                Some((block, entry_term)) => match acc.append(term, entry_term, &block) {
                    Some(AppendVerdict::Appended) | Some(AppendVerdict::Duplicate) => {
                        self.catchup_blocks.incr();
                    }
                    Some(v) => {
                        return Err(Error::Unavailable(format!(
                            "catch-up append to acceptor {idx} at {flush} rejected: {v:?}"
                        )))
                    }
                    None => {
                        return Err(Error::Unavailable(format!(
                            "acceptor {idx} went down during catch-up"
                        )))
                    }
                },
                None => {
                    // Nobody can serve `flush` — the range was destaged.
                    // Resume at the oldest LSN a live peer still retains.
                    let resume = self
                        .peers_up(idx)
                        .filter(|p| p.flush_lsn() > flush)
                        .map(|p| p.base())
                        .min();
                    match resume {
                        Some(r) if r > flush => acc.fast_forward(r, history),
                        _ => {
                            return Err(Error::Unavailable(format!(
                                "no peer can serve catch-up for acceptor {idx} from {flush}"
                            )))
                        }
                    }
                }
            }
        }
    }

    fn peers_up(&self, idx: usize) -> impl Iterator<Item = &Arc<Acceptor>> {
        self.acceptors
            .iter()
            .enumerate()
            .filter(move |(j, p)| *j != idx && p.is_up())
            .map(|(_, p)| p)
    }
}

/// The proposer-side term state: what the current leader knows.
struct ProposerState {
    term: Term,
    history: Arc<TermHistory>,
    /// Append cursor — equals the commit watermark between writes
    /// (a block is only admitted once its predecessor committed).
    head: Lsn,
    /// Destage horizon.
    tail: Lsn,
    /// Whether a campaign has been won at all.
    elected: bool,
}

/// Commit-path counters, registered with the hub by the fabric.
pub struct QuorumMetrics {
    /// Campaigns won.
    pub elections: Counter,
    /// Blocks committed through the quorum.
    pub appends: Counter,
    /// Writes that failed to reach a quorum of acks.
    pub commit_stalls: Counter,
}

/// The quorum WAL: a [`LogStore`] whose durability comes from majority
/// acceptance instead of a fixed device quorum.
pub struct QuorumLog {
    shared: Arc<Shared>,
    config: QuorumConfig,
    /// Serialises writers (appends and campaigns). Held across the whole
    /// fan-out/ack cycle so blocks enter the stream in LSN order.
    write_gate: Mutex<()>,
    state: Mutex<ProposerState>,
    workers: Vec<mpsc::Sender<Job>>,
    worker_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Durable commit watermark mirror (monotone; hub-safe).
    commit: AtomicLsn,
    tail_pub: AtomicU64,
    term_pub: AtomicU64,
    /// Set when an acceptor reported a newer term: this proposer has been
    /// superseded and refuses writes until it campaigns again.
    deposed: AtomicBool,
    metrics: QuorumMetrics,
}

impl QuorumLog {
    /// Build the tier and its acceptors, logs starting at [`Lsn::ZERO`].
    /// `latency(i)` supplies each acceptor's device model; the
    /// append/ack/vote paths consult `faults` at the `lz.quorum.*` sites.
    pub fn new(
        config: QuorumConfig,
        latency: impl Fn(usize) -> Option<LatencyInjector>,
        faults: FaultRegistry,
    ) -> QuorumLog {
        let acceptors = (0..config.acceptors)
            .map(|i| Arc::new(Acceptor::new(i, Lsn::ZERO, latency(i))))
            .collect();
        QuorumLog::with_acceptors(acceptors, config, faults)
    }

    /// Mount a proposer over existing acceptors — how a restarted primary
    /// reattaches to the surviving quorum (it must [`LogStore::recover`]
    /// before writing).
    pub fn with_acceptors(
        acceptors: Vec<Arc<Acceptor>>,
        config: QuorumConfig,
        faults: FaultRegistry,
    ) -> QuorumLog {
        assert_eq!(acceptors.len(), config.acceptors, "acceptor count mismatch");
        assert!(config.acceptors >= 1, "quorum log needs at least one acceptor");
        let shared = Arc::new(Shared { acceptors, faults, catchup_blocks: Counter::new() });
        let mut workers = Vec::with_capacity(config.acceptors);
        let mut handles = Vec::with_capacity(config.acceptors);
        for i in 0..config.acceptors {
            let (tx, rx) = mpsc::channel::<Job>();
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("wal-acceptor-{i}"))
                    .spawn(move || acceptor_worker(&sh, i, &rx))
                    .expect("spawn acceptor worker"),
            );
            workers.push(tx);
        }
        QuorumLog {
            shared,
            config,
            write_gate: Mutex::with_rank((), lock_rank::WAL_QUORUM_WRITE, "quorum.write_gate"),
            state: Mutex::with_rank(
                ProposerState {
                    term: 0,
                    history: Arc::new(TermHistory::new()),
                    head: Lsn::ZERO,
                    tail: Lsn::ZERO,
                    elected: false,
                },
                lock_rank::WAL_QUORUM_STATE,
                "quorum.state",
            ),
            workers,
            worker_handles: Mutex::with_rank(
                handles,
                lock_rank::WAL_QUORUM_WORKERS,
                "quorum.worker_handles",
            ),
            commit: AtomicLsn::new(Lsn::ZERO),
            tail_pub: AtomicU64::new(0),
            term_pub: AtomicU64::new(0),
            deposed: AtomicBool::new(false),
            metrics: QuorumMetrics {
                elections: Counter::new(),
                appends: Counter::new(),
                commit_stalls: Counter::new(),
            },
        }
    }

    /// The acceptor nodes (tests and the fabric kill/restart through
    /// these).
    pub fn acceptors(&self) -> &[Arc<Acceptor>] {
        &self.shared.acceptors
    }

    /// The current proposer term (0 until the first campaign).
    pub fn term(&self) -> Term {
        // ordering: relaxed — monitoring mirror of the lock-guarded term
        self.term_pub.load(Ordering::Relaxed)
    }

    /// The durable commit watermark: every LSN below it is flushed on at
    /// least a majority of acceptors. Monotone.
    pub fn commit_lsn(&self) -> Lsn {
        self.commit.load()
    }

    /// Whether this proposer has been superseded by a newer term.
    pub fn is_deposed(&self) -> bool {
        // ordering: relaxed — advisory flag; the acceptors' term checks
        // are the actual fencing
        self.deposed.load(Ordering::Relaxed)
    }

    /// Commit-path counters.
    pub fn metrics(&self) -> &QuorumMetrics {
        &self.metrics
    }

    /// Blocks replicated by straggler catch-up.
    pub fn catchup_blocks(&self) -> u64 {
        self.shared.catchup_blocks.get()
    }

    /// Crash acceptor `idx`: it stops responding but keeps its state.
    pub fn kill_acceptor(&self, idx: usize) {
        self.shared.acceptors[idx].kill();
    }

    /// Restart acceptor `idx` and synchronously stream it forward to the
    /// current head (holding the write gate so the head stands still).
    /// Requires an elected proposer.
    pub fn reconnect_acceptor(&self, idx: usize) -> Result<Lsn> {
        let _gate = self.write_gate.lock();
        let (term, history, head, elected) = {
            let st = self.state.lock();
            (st.term, Arc::clone(&st.history), st.head, st.elected)
        };
        if !elected {
            return Err(Error::InvalidState("reconnect before any campaign".into()));
        }
        self.shared.acceptors[idx].restart();
        self.shared.catch_up(idx, head, term, &history)
    }

    /// Campaign for leadership: bump the term past everything observed,
    /// collect a majority of votes, adopt the donor's position, announce
    /// the election, and catch stragglers up to the start LSN. Returns
    /// the LSN new appends must start at.
    pub fn campaign(&self) -> Result<Lsn> {
        let _gate = self.write_gate.lock();
        let mut st = self.state.lock();
        let n = self.config.acceptors;
        let need = self.config.required();
        // Start above both our own last term and anything ever observed.
        let mut seen: Term = st.term;
        for attempt in 0..8 {
            let term = seen + 1 + attempt as Term;
            let mut votes: Vec<(usize, VoteResp)> = Vec::with_capacity(n);
            for (i, acc) in self.shared.acceptors.iter().enumerate() {
                match self.shared.check_fault(sites::LZ_QUORUM_VOTE, None) {
                    Some(FaultOutcome::Crash) => {
                        acc.kill();
                        continue;
                    }
                    Some(_) => continue, // vote request or reply lost
                    None => {}
                }
                if let Some(v) = acc.vote(term) {
                    seen = seen.max(v.term);
                    if v.granted {
                        votes.push((i, v));
                    }
                }
            }
            if votes.len() < need {
                continue;
            }
            let donor = &votes[choose_donor(&votes)].1;
            let start = donor.flush;
            let history = Arc::new(donor.history.with_switch(term, start));
            // Announce; count acceptors already at (or truncated back to
            // at most) the start position, catching up any straggler.
            let mut synced = 0usize;
            for (i, acc) in self.shared.acceptors.iter().enumerate() {
                let flush = match acc.elected(term, &history) {
                    Some(resp) if resp.accepted => resp.flush,
                    _ => continue,
                };
                if flush >= start || self.shared.catch_up(i, start, term, &history).is_ok() {
                    synced += 1;
                }
            }
            if synced < need {
                continue;
            }
            st.term = term;
            st.history = history;
            st.head = start;
            st.elected = true;
            // Adopt the readable window floor: the oldest LSN a live
            // acceptor still retains. Matters when the proposer mounts
            // existing acceptors mid-stream (tail would otherwise sit at
            // zero and the capacity window would look exhausted). Never
            // regresses — destage is monotone.
            let floor = self
                .shared
                .acceptors
                .iter()
                .filter(|a| a.is_up())
                .map(|a| a.base())
                .min()
                .unwrap_or(start);
            st.tail = st.tail.max(floor.min(start));
            // ordering: relaxed — monitoring mirror
            self.tail_pub.store(st.tail.offset(), Ordering::Relaxed);
            // Quorum intersection guarantees start >= every committed
            // LSN; advance (never regress) the public watermark.
            self.commit.advance_to(start);
            // ordering: relaxed — monitoring mirror
            self.term_pub.store(term, Ordering::Relaxed);
            self.deposed.store(false, Ordering::Relaxed); // ordering: relaxed — see is_deposed
            self.metrics.elections.incr();
            return Ok(start);
        }
        Err(Error::Unavailable("campaign failed: no quorum of votes after 8 attempts".into()))
    }

    /// Durably append `block`, which must start exactly at the head.
    /// Returns once a majority of acceptors have flushed it.
    pub fn write_block(&self, block: &LogBlock) -> Result<()> {
        if self.is_deposed() {
            return Err(Error::InvalidState(
                "quorum log deposed by a newer term; recover() to re-campaign".into(),
            ));
        }
        let _gate = self.write_gate.lock();
        let (term, history) = {
            let st = self.state.lock();
            if !st.elected {
                return Err(Error::InvalidState(
                    "quorum log has no elected proposer; recover() first".into(),
                ));
            }
            if block.start_lsn() != st.head {
                return Err(Error::InvalidArgument(format!(
                    "block starts at {} but quorum head is {}",
                    block.start_lsn(),
                    st.head
                )));
            }
            let len = block.len() as u64;
            if len > self.config.capacity {
                return Err(Error::InvalidArgument(format!(
                    "block of {len} bytes exceeds quorum capacity {}",
                    self.config.capacity
                )));
            }
            if (st.head - st.tail) + len > self.config.capacity {
                return Err(Error::Unavailable(
                    "quorum log full; destaging has not caught up".into(),
                ));
            }
            (st.term, Arc::clone(&st.history))
        };
        let end = block.end_lsn();
        let (ack_tx, ack_rx) = mpsc::channel();
        for w in &self.workers {
            let _ = w.send(Job {
                proposer_term: term,
                entry_term: term,
                history: Arc::clone(&history),
                block: block.clone(),
                ack: ack_tx.clone(),
            });
        }
        drop(ack_tx);
        let n = self.config.acceptors;
        let need = self.config.required();
        let mut acks = 0usize;
        let mut failures = 0usize;
        let mut newer: Term = 0;
        while acks < need && failures <= n - need {
            match ack_rx.recv() {
                Ok(ack) => {
                    // An ack lost on the way back: the acceptor flushed,
                    // but the proposer cannot count it.
                    if self.shared.check_fault(sites::LZ_QUORUM_ACK, Some(end)).is_some() {
                        failures += 1;
                        continue;
                    }
                    if ack.ok && ack.flush >= end {
                        acks += 1;
                    } else {
                        failures += 1;
                        newer = newer.max(ack.observed_term);
                    }
                }
                Err(_) => break, // all workers reported
            }
        }
        if acks < need {
            self.metrics.commit_stalls.incr();
            if newer > term {
                // ordering: relaxed — see is_deposed
                self.deposed.store(true, Ordering::Relaxed);
                return Err(Error::InvalidState(format!(
                    "quorum log deposed: acceptor reported term {newer} > ours {term}"
                )));
            }
            return Err(Error::Unavailable(format!(
                "quorum append failed: {acks}/{need} acks ({failures} acceptors failed)"
            )));
        }
        let mut st = self.state.lock();
        st.head = end;
        self.commit.advance_to(end);
        self.metrics.appends.incr();
        Ok(())
    }

    /// Read the block at `lsn` from whichever acceptor retains it.
    pub fn read_block(&self, lsn: Lsn) -> Result<LogBlock> {
        {
            let st = self.state.lock();
            if lsn < st.tail || lsn >= st.head {
                return Err(Error::NotFound(format!(
                    "LSN {lsn} outside quorum window [{}, {})",
                    st.tail, st.head
                )));
            }
        }
        for acc in &self.shared.acceptors {
            if let Some(b) = acc.read_block(lsn) {
                return Ok(b);
            }
        }
        Err(Error::Unavailable(format!("no live acceptor retains the block at {lsn}")))
    }

    /// Register the tier's metrics: per-acceptor gauges under
    /// `NodeId::acceptor(i)` and quorum-wide series under `owner` (the
    /// node that owns the log — XLOG in the fabric wiring, which
    /// conveniently survives compute failover).
    pub fn register_metrics(self: &Arc<Self>, hub: &MetricsHub, owner: NodeId) {
        for acc in &self.shared.acceptors {
            let node = NodeId::acceptor(acc.id() as u32);
            let a = Arc::clone(acc);
            hub.register_gauge_fn(node, "acceptor_flush_lsn", move || {
                a.flush_lsn().offset() as i64
            });
            let a = Arc::clone(acc);
            hub.register_gauge_fn(node, "acceptor_term", move || a.term() as i64);
            let a = Arc::clone(acc);
            hub.register_gauge_fn(node, "acceptor_up", move || a.is_up() as i64);
            let a = Arc::clone(acc);
            let log = Arc::clone(self);
            hub.register_gauge_fn(node, "acceptor_flush_lag_bytes", move || {
                let commit = log.commit_lsn().offset();
                commit.saturating_sub(a.flush_lsn().offset()) as i64
            });
        }
        let log = Arc::clone(self);
        hub.register_gauge_fn(owner, "quorum_commit_lsn", move || log.commit_lsn().offset() as i64);
        let log = Arc::clone(self);
        hub.register_gauge_fn(owner, "quorum_term", move || log.term() as i64);
        let log = Arc::clone(self);
        hub.register_counter_fn(owner, "quorum_elections_total", move || {
            log.metrics.elections.get()
        });
        let log = Arc::clone(self);
        hub.register_counter_fn(owner, "quorum_commit_stalls_total", move || {
            log.metrics.commit_stalls.get()
        });
        let log = Arc::clone(self);
        hub.register_counter_fn(owner, "quorum_catchup_blocks_total", move || {
            log.shared.catchup_blocks.get()
        });
    }
}

impl BlockSink for QuorumLog {
    /// Appends are not pipelined: the block is on a quorum when this returns.
    fn submit(&self, block: &LogBlock) -> Result<Submitted> {
        self.write_block(block)?;
        Ok(Submitted::Hardened)
    }
}

impl LogStore for QuorumLog {
    fn head(&self) -> Lsn {
        self.state.lock().head
    }

    fn tail(&self) -> Lsn {
        self.state.lock().tail
    }

    fn free_bytes(&self) -> u64 {
        let st = self.state.lock();
        self.config.capacity - (st.head - st.tail)
    }

    fn read_block(&self, lsn: Lsn) -> Result<LogBlock> {
        QuorumLog::read_block(self, lsn)
    }

    fn truncate_to(&self, lsn: Lsn) {
        let mut st = self.state.lock();
        let to = lsn.min(st.head).max(st.tail);
        st.tail = to;
        // ordering: relaxed — monitoring mirror
        self.tail_pub.store(to.offset(), Ordering::Relaxed);
        drop(st);
        for acc in &self.shared.acceptors {
            acc.truncate_to(to);
        }
    }

    fn scan_from(&self, from: Lsn, f: &mut dyn FnMut(LogBlock) -> bool) -> Result<()> {
        let (mut cur, head) = {
            let st = self.state.lock();
            (from.max(st.tail), st.head)
        };
        while cur < head {
            let block = QuorumLog::read_block(self, cur)?;
            let end = block.end_lsn();
            if !f(block) {
                break;
            }
            cur = end;
        }
        Ok(())
    }

    fn recover(&self) -> Result<Lsn> {
        self.campaign()
    }
}

impl Drop for QuorumLog {
    fn drop(&mut self) {
        // Closing the job channels lets the workers drain and exit.
        self.workers.clear();
        for h in self.worker_handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// The per-acceptor worker: applies `lz.quorum.append` faults, retries
/// around election announcements, and runs catch-up on gap rejections.
fn acceptor_worker(shared: &Shared, idx: usize, rx: &mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let acc = &shared.acceptors[idx];
        let fault = shared.check_fault(sites::LZ_QUORUM_APPEND, Some(job.block.start_lsn()));
        let ack = match fault {
            Some(FaultOutcome::Crash) => {
                acc.kill();
                Ack { ok: false, flush: acc.flush_lsn(), observed_term: 0 }
            }
            Some(_) => Ack { ok: false, flush: acc.flush_lsn(), observed_term: 0 },
            None => run_append(shared, idx, &job),
        };
        let _ = job.ack.send(ack);
    }
}

fn run_append(shared: &Shared, idx: usize, job: &Job) -> Ack {
    let acc = &shared.acceptors[idx];
    // Bounded retry: each pass either succeeds, makes progress (election
    // processed, gap backfilled), or fails for good.
    for _ in 0..6 {
        match acc.append(job.proposer_term, job.entry_term, &job.block) {
            None => break, // down
            Some(AppendVerdict::Appended) | Some(AppendVerdict::Duplicate) => {
                return Ack { ok: true, flush: acc.flush_lsn(), observed_term: 0 };
            }
            Some(AppendVerdict::NotElected) => {
                // The acceptor missed (or restarted past) the election
                // announcement; re-send it and retry.
                if acc.elected(job.proposer_term, &job.history).is_none() {
                    break;
                }
            }
            Some(AppendVerdict::Gap { flush }) => {
                match shared.catch_up(idx, job.block.start_lsn(), job.proposer_term, &job.history) {
                    Ok(f) if f > flush => {} // progress; retry the append
                    _ => break,
                }
            }
            Some(AppendVerdict::Stale { term }) => {
                return Ack { ok: false, flush: acc.flush_lsn(), observed_term: term };
            }
        }
    }
    Ack { ok: false, flush: acc.flush_lsn(), observed_term: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::record::{LogPayload, LogRecord};
    use socrates_common::fault::{FaultAction, FaultRule, FaultSchedule};
    use socrates_common::latency::LatencyModel;
    use socrates_common::{PageId, PartitionId, TxnId};

    fn block_at(start: Lsn, payload_len: usize) -> LogBlock {
        let mut b = BlockBuilder::new(start, 1 << 16);
        b.append(
            &LogRecord {
                txn: TxnId::new(1),
                payload: LogPayload::PageWrite {
                    page_id: PageId::new(1),
                    op: vec![0xAB; payload_len],
                },
            },
            Some(PartitionId::new(0)),
        );
        b.seal()
    }

    fn quorum(n: usize) -> Arc<QuorumLog> {
        quorum_with_faults(n, FaultRegistry::disabled())
    }

    fn quorum_with_faults(n: usize, faults: FaultRegistry) -> Arc<QuorumLog> {
        Arc::new(QuorumLog::new(QuorumConfig { acceptors: n, capacity: 1 << 20 }, |_| None, faults))
    }

    fn fill(q: &QuorumLog, mut start: Lsn, blocks: usize) -> Lsn {
        for _ in 0..blocks {
            let b = block_at(start, 120);
            q.write_block(&b).unwrap();
            start = b.end_lsn();
        }
        start
    }

    #[test]
    fn an_append_waits_its_device_latency_once() {
        use socrates_common::latency::{DeviceProfile, IoCpuCost};
        let device = DeviceProfile {
            name: "fixed",
            read: LatencyModel::fixed(20_000),
            write: LatencyModel::fixed(20_000),
            cpu: IoCpuCost { per_op_us: 0, per_4kib_us: 0 },
        };
        let inj = LatencyInjector::new(device, 1);
        let acc = Acceptor::new(0, Lsn::ZERO, Some(inj));
        acc.vote(1).unwrap();
        let t0 = std::time::Instant::now();
        acc.append(1, 1, &block_at(Lsn::ZERO, 100)).unwrap();
        let wall = t0.elapsed();
        assert!(wall >= std::time::Duration::from_millis(20), "the write was not modelled");
        assert!(wall < std::time::Duration::from_millis(30), "waited {wall:?} for a 20 ms write");
    }

    #[test]
    fn three_acceptor_write_read_chain() {
        let q = quorum(3);
        let start = q.recover().unwrap();
        assert_eq!(start, Lsn::ZERO);
        assert_eq!(q.term(), 1);
        let b1 = block_at(Lsn::ZERO, 100);
        q.write_block(&b1).unwrap();
        let b2 = block_at(b1.end_lsn(), 200);
        q.write_block(&b2).unwrap();
        assert_eq!(LogStore::head(&*q), b2.end_lsn());
        assert_eq!(q.commit_lsn(), b2.end_lsn());
        assert_eq!(QuorumLog::read_block(&q, Lsn::ZERO).unwrap(), b1);
        assert_eq!(QuorumLog::read_block(&q, b1.end_lsn()).unwrap(), b2);
        // All three acceptors converge (no faults in play). The write
        // returns at quorum — two acks — so the third acceptor's worker
        // may still be flushing; give it a bounded moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        for acc in q.acceptors() {
            while acc.flush_lsn() < b2.end_lsn() && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(acc.flush_lsn(), b2.end_lsn());
        }
    }

    #[test]
    fn writes_require_election() {
        let q = quorum(3);
        let err = q.write_block(&block_at(Lsn::ZERO, 10)).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "unexpected: {err}");
    }

    #[test]
    fn single_acceptor_mode_is_classic_lz() {
        let q = quorum(1);
        q.recover().unwrap();
        let end = fill(&q, Lsn::ZERO, 3);
        assert_eq!(q.commit_lsn(), end);
        // Gap and duplicate rejection as before.
        assert!(q.write_block(&block_at(end + 500, 10)).is_err());
    }

    #[test]
    fn kill_one_acceptor_keeps_committing_then_rejoin_catches_up() {
        let q = quorum(3);
        q.recover().unwrap();
        let mid = fill(&q, Lsn::ZERO, 2);
        q.kill_acceptor(2);
        let end = fill(&q, mid, 4);
        assert_eq!(q.commit_lsn(), end, "majority keeps committing through single loss");
        assert!(q.acceptors()[2].flush_lsn() < end);
        // Rejoin: streamed forward block by block from the survivors.
        let flushed = q.reconnect_acceptor(2).unwrap();
        assert_eq!(flushed, end);
        assert_eq!(q.acceptors()[2].flush_lsn(), end);
        assert!(q.catchup_blocks() >= 4);
        // The recovered range is served by the rejoined acceptor itself.
        assert!(q.acceptors()[2].read_block(mid).is_some());
        // And the quorum keeps writing.
        fill(&q, end, 1);
    }

    #[test]
    fn catch_up_converges_under_append_latency_fault() {
        // Satellite: a lagging acceptor must converge to the quorum flush
        // LSN even when every (re)append is slowed by an injected
        // lz.quorum.append latency fault, and must then serve reads for
        // its recovered range.
        let faults = FaultRegistry::new(7);
        let q = quorum_with_faults(3, faults.clone());
        q.recover().unwrap();
        q.kill_acceptor(1);
        let end = fill(&q, Lsn::ZERO, 5);
        faults.install(FaultRule {
            site: sites::LZ_QUORUM_APPEND.into(),
            schedule: FaultSchedule::Always,
            action: FaultAction::Latency(LatencyModel::fixed(200)),
        });
        let flushed = q.reconnect_acceptor(1).unwrap();
        assert_eq!(flushed, end);
        assert_eq!(q.acceptors()[1].flush_lsn(), end);
        assert!(q.acceptors()[1].read_block(Lsn::ZERO).is_some());
        // Latency-only faults never cost correctness: writes still work.
        fill(&q, end, 1);
    }

    #[test]
    fn rejoin_fast_forwards_past_destaged_range() {
        let q = quorum(3);
        q.recover().unwrap();
        q.kill_acceptor(0);
        let mid = fill(&q, Lsn::ZERO, 3);
        // Destage everything the laggard is missing out of the survivors.
        LogStore::truncate_to(&*q, mid);
        let end = fill(&q, mid, 2);
        let flushed = q.reconnect_acceptor(0).unwrap();
        assert_eq!(flushed, end);
        // The laggard skipped the destaged range: its base moved forward.
        assert!(q.acceptors()[0].base() >= mid);
        assert_eq!(q.acceptors()[0].flush_lsn(), end);
    }

    #[test]
    fn losing_quorum_stalls_then_rejoin_restores_service() {
        let q = quorum(3);
        q.recover().unwrap();
        let end = fill(&q, Lsn::ZERO, 1);
        q.kill_acceptor(0);
        q.kill_acceptor(1);
        let stalled = block_at(end, 50);
        let err = q.write_block(&stalled).unwrap_err();
        assert!(err.is_transient(), "quorum loss must be retryable: {err}");
        assert_eq!(q.commit_lsn(), end, "watermark holds through the stall");
        q.reconnect_acceptor(0).unwrap();
        // The surviving acceptor flushed the stalled block, so the retry
        // must offer the same bytes (the pipeline retries blocks as-is);
        // it dedups there and completes the quorum via the rejoined node.
        q.write_block(&stalled).unwrap();
        assert_eq!(q.commit_lsn(), stalled.end_lsn());
    }

    #[test]
    fn restarted_proposer_campaigns_at_higher_term_and_deposes_old() {
        let q1 = quorum(3);
        q1.recover().unwrap();
        assert_eq!(q1.term(), 1);
        let end = fill(&q1, Lsn::ZERO, 3);
        // "Restart": a second proposer mounts the same acceptors.
        let acceptors = q1.acceptors().to_vec();
        let q2 = Arc::new(QuorumLog::with_acceptors(
            acceptors,
            QuorumConfig { acceptors: 3, capacity: 1 << 20 },
            FaultRegistry::disabled(),
        ));
        let start = q2.recover().unwrap();
        assert_eq!(start, end, "new term starts at the donor's flush LSN");
        assert!(q2.term() > q1.term());
        // The old proposer is fenced out on its next write.
        let err = q1.write_block(&block_at(end, 50)).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "unexpected: {err}");
        assert!(q1.is_deposed());
        // The new proposer owns the stream.
        fill(&q2, start, 2);
    }

    #[test]
    fn dropped_votes_fail_campaign_until_cleared() {
        let faults = FaultRegistry::new(3);
        let q = quorum_with_faults(3, faults.clone());
        faults.install(FaultRule {
            site: sites::LZ_QUORUM_VOTE.into(),
            schedule: FaultSchedule::Always,
            action: FaultAction::Drop,
        });
        let err = q.recover().unwrap_err();
        assert!(err.is_transient(), "vote loss must be retryable: {err}");
        faults.clear();
        q.recover().unwrap();
        fill(&q, Lsn::ZERO, 1);
    }

    #[test]
    fn lost_acks_stall_commit_but_acceptors_flushed() {
        let faults = FaultRegistry::new(5);
        let q = quorum_with_faults(3, faults.clone());
        q.recover().unwrap();
        faults.install(FaultRule {
            site: sites::LZ_QUORUM_ACK.into(),
            schedule: FaultSchedule::Always,
            action: FaultAction::Drop,
        });
        let b = block_at(Lsn::ZERO, 80);
        let err = q.write_block(&b).unwrap_err();
        assert!(err.is_transient(), "ack loss must be retryable: {err}");
        // The acceptors flushed it; only the proposer could not count it.
        assert!(q.acceptors().iter().filter(|a| a.flush_lsn() >= b.end_lsn()).count() >= 2);
        // Retrying with acks flowing again commits idempotently.
        faults.clear();
        q.write_block(&b).unwrap();
        assert_eq!(q.commit_lsn(), b.end_lsn());
    }

    #[test]
    fn scan_from_walks_the_window() {
        let q = quorum(3);
        q.recover().unwrap();
        let end = fill(&q, Lsn::ZERO, 4);
        let mut seen = 0;
        let mut cursor = Lsn::ZERO;
        LogStore::scan_from(&*q, Lsn::ZERO, &mut |b| {
            assert_eq!(b.start_lsn(), cursor);
            cursor = b.end_lsn();
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(cursor, end);
        assert_eq!(seen, 4);
    }

    #[test]
    fn backpressure_when_capacity_exhausted() {
        let q = Arc::new(QuorumLog::new(
            QuorumConfig { acceptors: 3, capacity: 600 },
            |_| None,
            FaultRegistry::disabled(),
        ));
        q.recover().unwrap();
        let b1 = block_at(Lsn::ZERO, 300);
        q.write_block(&b1).unwrap();
        let b2 = block_at(b1.end_lsn(), 300);
        let err = q.write_block(&b2).unwrap_err();
        assert!(err.is_transient(), "full log must be retryable: {err}");
        LogStore::truncate_to(&*q, b1.end_lsn());
        q.write_block(&b2).unwrap();
    }
}
