//! The compute node's I/O scheduler: an asynchronous submission/completion
//! layer between the tiered cache and the remote page source.
//!
//! The paper's compute tier lives on GetPage@LSN, and three properties of
//! that traffic make a scheduler worth its latency budget:
//!
//! * **Single-flight.** Concurrent misses for the same page (hot B-tree
//!   upper levels right after a restart, N readers chasing one cold leaf)
//!   must share one in-flight request, not issue N identical RBIO calls.
//! * **Range coalescing.** Dispatch is work-conserving: a miss leaves as
//!   soon as a worker is free, so a lone miss never waits for company.
//!   Misses that queue while every worker is busy and are adjacent in
//!   page-id space leave together as one `GetPageRange` call, which a page
//!   server answers from its stride-preserving covering cache in a single
//!   device I/O.
//! * **Prefetch.** The scan layer knows which pages it will touch next
//!   (the children of the internal node it just read); posting them as
//!   read-ahead hints lets worker threads overlap many network round
//!   trips while the scan consumes pages from memory.
//!
//! The scheduler is deliberately thread-based (submission queue + worker
//! pool + condvar completions) rather than future-based: the rest of the
//! node is synchronous, and a [`Pending`] that parks on a completion slot
//! gives the same pipelining without infecting every caller with an
//! executor. Splitting `submit` from `wait` lets a miss do its own work —
//! freeing a cache frame — while its request is on the wire.

use crate::cache::{FetchMeta, PageSource, TieredCache};
use crate::page::Page;
use parking_lot::{Condvar, Mutex};
use socrates_common::metrics::Counter;
use socrates_common::{Error, Lsn, PageId, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A [`PageSource`] that can also serve contiguous ranges (the compute
/// side of the `GetPageRange` protocol arm). The scheduler coalesces
/// adjacent misses into calls to this.
pub trait RangedPageSource: PageSource {
    /// Fetch `count` pages starting at `first`, all at an LSN ≥ `min_lsn`.
    /// Implementations may split the range internally (e.g. at partition
    /// boundaries) but must return exactly `count` pages, in order.
    fn fetch_page_range(&self, first: PageId, count: u32, min_lsn: Lsn) -> Result<Vec<Page>>;

    /// [`RangedPageSource::fetch_page_range`], plus whatever latency
    /// attribution the source can provide (one [`FetchMeta`] for the whole
    /// range; every member shares the wire cost).
    fn fetch_page_range_traced(
        &self,
        first: PageId,
        count: u32,
        min_lsn: Lsn,
    ) -> Result<(Vec<Page>, FetchMeta)> {
        self.fetch_page_range(first, count, min_lsn)
            .map(|p| (p, FetchMeta { range_width: count, ..FetchMeta::default() }))
    }
}

/// Worker threads a node's scheduler runs. This bounds how many
/// GetPage/GetPageRange calls the node keeps in flight.
pub const WORKERS: usize = 4;
/// Largest run of contiguous pages dispatched as one `GetPageRange`.
const MAX_BATCH: u32 = 64;
/// Cap on queued prefetch hints; hints beyond it are dropped (they are an
/// optimisation, never a correctness requirement).
const MAX_PENDING: usize = 512;
/// Hard deadline for a demand fetch waiting on its completion slot.
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(30);

/// Scheduler counters (registered into the hub by the owning node).
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Demand fetches submitted.
    pub submitted: Counter,
    /// Demand fetches that joined an existing in-flight request
    /// (single-flight suppressions).
    pub joined: Counter,
    /// Batches dispatched as a single `GetPage`.
    pub single_calls: Counter,
    /// Batches dispatched as `GetPageRange`.
    pub range_calls: Counter,
    /// Pages fetched via `GetPageRange` batches.
    pub range_pages: Counter,
    /// Range calls that failed and were degraded to per-page fetches.
    pub range_fallbacks: Counter,
    /// Pages posted as prefetch hints (after residency/in-flight filters).
    pub prefetch_hints: Counter,
    /// Prefetch hints dropped because the queue was full.
    pub prefetch_dropped: Counter,
}

impl SchedStats {
    /// Fraction of fetched pages that travelled in a coalesced range call.
    pub fn coalesce_ratio(&self) -> f64 {
        let ranged = self.range_pages.get();
        let total = ranged + self.single_calls.get();
        if total == 0 {
            0.0
        } else {
            ranged as f64 / total as f64
        }
    }

    /// The coalesce ratio as an integer percentage, for the hub gauge.
    /// Each counter is read exactly once (a re-read mid-computation could
    /// see a dispatch land between them and report > 100%), and before the
    /// first dispatch the gauge reads a defined 0 rather than a 0/0 cast.
    pub fn coalesce_ratio_pct(&self) -> i64 {
        let ranged = self.range_pages.get();
        let total = ranged + self.single_calls.get();
        if total == 0 {
            return 0;
        }
        (((ranged as f64 / total as f64) * 100.0).round() as i64).clamp(0, 100)
    }
}

/// One in-flight page request: every waiter parks on the slot, the worker
/// that completes the fetch fulfils it once.
pub struct InFlight {
    /// The freshness floor the in-flight request was issued with. A later
    /// miss may only join if its own floor is ≤ this (the fetched page is
    /// then guaranteed fresh enough for it too).
    min_lsn: Lsn,
    /// Whether any demand reader waits on this (a promoted prefetch keeps
    /// its queue entry but gains demand priority).
    demand: AtomicBool,
    slot: Mutex<Option<Result<(Page, FetchMeta)>>>,
    cv: Condvar,
}

impl InFlight {
    fn new(min_lsn: Lsn, demand: bool) -> InFlight {
        InFlight {
            min_lsn,
            demand: AtomicBool::new(demand),
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, res: Result<(Page, FetchMeta)>) {
        let mut slot = self.slot.lock();
        *slot = Some(res);
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> Result<(Page, FetchMeta)> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock();
        loop {
            if let Some(res) = slot.as_ref() {
                return res.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::Timeout("page fetch completion overdue".into()));
            }
            self.cv.wait_for(&mut slot, deadline - now);
        }
    }
}

/// A demand fetch [`IoScheduler::submit`] has answered or put on the wire.
pub enum Pending {
    /// Answered at submission: the scheduler is stopped, or the request
    /// bypassed a staler in-flight one.
    Ready(Result<(Page, FetchMeta)>),
    /// Queued or joined: [`Pending::wait`] parks on the in-flight slot for
    /// at most the given completion timeout.
    Queued(Arc<InFlight>, Duration),
}

impl Pending {
    /// Park until the fetch completes and return its page and attribution.
    pub fn wait(self) -> Result<(Page, FetchMeta)> {
        match self {
            Pending::Ready(res) => res,
            Pending::Queued(entry, timeout) => entry.wait(timeout),
        }
    }
}

struct PendingReq {
    demand: bool,
    /// Copied from the in-flight entry so run forming never needs the
    /// in-flight map (lock order is always inflight → queue).
    min_lsn: Lsn,
    enqueued: Instant,
    seq: u64,
}

#[derive(Default)]
struct Queue {
    /// Keyed by raw page id so contiguous runs are adjacent in iteration
    /// order — run forming is a range scan over this map.
    pending: BTreeMap<u64, PendingReq>,
    next_seq: u64,
}

struct Shared {
    backend: Arc<dyn RangedPageSource>,
    q: Mutex<Queue>,
    q_cv: Condvar,
    inflight: Mutex<HashMap<PageId, Arc<InFlight>>>,
    /// Where completed prefetches are installed. Weak: the cache owns the
    /// scheduler, not the other way round.
    sink: Weak<TieredCache>,
    stats: SchedStats,
    stop: AtomicBool,
}

/// The scheduler. Owned (via `Arc`) by the node's [`TieredCache`]; worker
/// threads are joined on drop.
pub struct IoScheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl IoScheduler {
    /// Start the scheduler and its pool of `workers` threads (at least one)
    /// over `backend`; completed prefetches are installed into `sink`
    /// (dropped while it is dangling). Nodes run [`WORKERS`].
    pub fn start(
        backend: Arc<dyn RangedPageSource>,
        workers: usize,
        sink: Weak<TieredCache>,
    ) -> Arc<IoScheduler> {
        let shared = Arc::new(Shared {
            backend,
            q: Mutex::with_rank(
                Queue::default(),
                socrates_common::lock_rank::STORAGE_SCHED_QUEUE,
                "sched.q",
            ),
            q_cv: Condvar::new(),
            inflight: Mutex::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::STORAGE_SCHED_INFLIGHT,
                "sched.inflight",
            ),
            sink,
            stats: SchedStats::default(),
            stop: AtomicBool::new(false),
        });
        let workers: Vec<_> = (0..workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("io-sched-{i}"))
                    .spawn(move || worker_loop(s))
                    .expect("spawn io scheduler worker")
            })
            .collect();
        Arc::new(IoScheduler {
            shared,
            workers: Mutex::with_rank(
                workers,
                socrates_common::lock_rank::STORAGE_SCHED_WORKERS,
                "sched.workers",
            ),
        })
    }

    /// Counters.
    pub fn stats(&self) -> &SchedStats {
        &self.shared.stats
    }

    /// Requests currently queued or in flight (the scheduler depth gauge).
    pub fn depth(&self) -> usize {
        self.shared.inflight.lock().len()
    }

    /// Register scheduler metrics into `hub` under `node`.
    pub fn register_metrics(
        self: &Arc<Self>,
        hub: &socrates_common::obs::MetricsHub,
        node: socrates_common::NodeId,
    ) {
        macro_rules! counter {
            ($name:literal, $field:ident) => {{
                let s = Arc::clone(&self.shared);
                hub.register_counter_fn(node, $name, move || s.stats.$field.get());
            }};
        }
        counter!("sched_submitted", submitted);
        counter!("sched_joined", joined);
        counter!("sched_single_calls", single_calls);
        counter!("sched_range_calls", range_calls);
        counter!("sched_range_pages", range_pages);
        counter!("sched_prefetch_hints", prefetch_hints);
        counter!("sched_prefetch_dropped", prefetch_dropped);
        let s = Arc::clone(&self.shared);
        hub.register_gauge_fn(node, "sched_depth", move || s.inflight.lock().len() as i64);
        // Saturation signal (socbench samples its maximum): requests parked in
        // the dispatch queue, i.e. demand the worker pool has not yet
        // picked up. Sustained growth means the read path is the choke.
        let s = Arc::clone(&self.shared);
        hub.register_gauge_fn(node, "sched_queue_depth", move || s.q.lock().pending.len() as i64);
        let s = Arc::clone(&self.shared);
        hub.register_gauge_fn(node, "sched_coalesce_ratio_pct", move || {
            s.stats.coalesce_ratio_pct()
        });
    }

    /// Fetch `id` at an LSN ≥ `min_lsn` through the scheduler and park
    /// until it completes: [`IoScheduler::submit`] then [`Pending::wait`].
    pub fn fetch(&self, id: PageId, min_lsn: Lsn) -> Result<(Page, FetchMeta)> {
        self.submit(id, min_lsn).wait()
    }

    /// Put a demand fetch of `id` at an LSN ≥ `min_lsn` on the wire without
    /// waiting for it: joins an existing in-flight request when possible,
    /// otherwise enqueues a demand miss for the workers. The [`Pending`]
    /// yields the page with the fetch's latency attribution (queue wait,
    /// coalesce membership, and whatever the backend stamped on the batch).
    pub fn submit(&self, id: PageId, min_lsn: Lsn) -> Pending {
        let s = &self.shared;
        s.stats.submitted.incr();
        // ordering: relaxed — stopped scheduler degrades to direct fetch; any
        // interleaving with stop() is benign
        if s.stop.load(Ordering::Relaxed) {
            return Pending::Ready(s.backend.fetch_page_traced(id, min_lsn));
        }
        let mut fl = s.inflight.lock();
        let existing = fl.get(&id).map(Arc::clone);
        let entry = match existing {
            Some(e) if e.min_lsn >= min_lsn => {
                // Single-flight: the request already on the wire is at
                // least as fresh as we need.
                drop(fl);
                s.stats.joined.incr();
                // ordering: seqcst — the promotion must be totally ordered with
                // complete_one's demand check on the worker: if the pair reordered,
                // a promoted waiter could be treated as a prefetch and never woken
                if !e.demand.swap(true, Ordering::SeqCst) {
                    // Promote a queued prefetch to demand priority. No
                    // wake-up: a worker parks only on an empty queue.
                    if let Some(p) = s.q.lock().pending.get_mut(&id.raw()) {
                        p.demand = true;
                    }
                }
                e
            }
            Some(_) => {
                // The in-flight request has a lower freshness floor than
                // ours; its result may be too stale. Bypass.
                drop(fl);
                return Pending::Ready(s.backend.fetch_page_traced(id, min_lsn));
            }
            None => {
                let e = Arc::new(InFlight::new(min_lsn, true));
                fl.insert(id, Arc::clone(&e));
                let mut q = s.q.lock();
                let seq = q.next_seq;
                q.next_seq += 1;
                q.pending.insert(
                    id.raw(),
                    PendingReq { demand: true, min_lsn, enqueued: Instant::now(), seq },
                );
                drop(q);
                drop(fl);
                // Wake every idle worker, not one: whichever gets a core
                // first takes the request. A `notify_one` target can sit
                // behind busy cores (queue-wait p99 ≈ 190 vs ≈ 32 µs on
                // `read_remote`, 2 vCPUs).
                s.q_cv.notify_all();
                e
            }
        };
        Pending::Queued(entry, COMPLETION_TIMEOUT)
    }

    /// Post a read-ahead hint for `count` pages starting at `first`.
    /// Best-effort: already-in-flight pages are skipped, and the hint is
    /// dropped entirely when the queue is saturated.
    pub fn prefetch(&self, first: PageId, count: u32, min_lsn: Lsn) {
        let s = &self.shared;
        // ordering: relaxed — dropping a hint during shutdown is fine
        if s.stop.load(Ordering::Relaxed) || count == 0 {
            return;
        }
        let mut added = false;
        {
            let mut fl = s.inflight.lock();
            let mut q = s.q.lock();
            for i in 0..count as u64 {
                if q.pending.len() >= MAX_PENDING {
                    s.stats.prefetch_dropped.add(count as u64 - i);
                    break;
                }
                let id = PageId::new(first.raw() + i);
                if fl.contains_key(&id) {
                    continue;
                }
                fl.insert(id, Arc::new(InFlight::new(min_lsn, false)));
                let seq = q.next_seq;
                q.next_seq += 1;
                q.pending.insert(
                    id.raw(),
                    PendingReq { demand: false, min_lsn, enqueued: Instant::now(), seq },
                );
                s.stats.prefetch_hints.incr();
                added = true;
            }
        }
        if added {
            s.q_cv.notify_all();
        }
    }

    /// Stop the workers (joined on drop). Outstanding demand waiters are
    /// failed with `Unavailable`.
    pub fn stop(&self) {
        {
            // Stored under the queue mutex: a worker that has checked the
            // flag holds the mutex until it parks, so it cannot miss the
            // wake-up below.
            let _q = self.shared.q.lock();
            // ordering: relaxed — the queue mutex orders it with next_batch's check
            self.shared.stop.store(true, Ordering::Relaxed);
        }
        self.shared.q_cv.notify_all();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
        // Fail anything still queued so no reader parks forever.
        let drained: Vec<Arc<InFlight>> = {
            let mut fl = self.shared.inflight.lock();
            self.shared.q.lock().pending.clear();
            fl.drain().map(|(_, e)| e).collect()
        };
        for e in drained {
            e.fulfill(Err(Error::Unavailable("io scheduler stopped".into())));
        }
    }
}

impl Drop for IoScheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One dispatchable batch: a contiguous ascending run of page ids.
struct Batch {
    ids: Vec<PageId>,
    min_lsn: Lsn,
    /// Per-member enqueue time, for queue attribution on spans.
    enqueued: Vec<Instant>,
}

fn worker_loop(s: Arc<Shared>) {
    while let Some(batch) = next_batch(&s) {
        execute(&s, batch);
    }
}

/// Block until a batch is dispatchable (or the scheduler stops).
///
/// Work-conserving: the oldest demand run goes first, then the oldest
/// prefetch run, and a worker parks (untimed) only on an empty queue.
fn next_batch(s: &Shared) -> Option<Batch> {
    let mut q = s.q.lock();
    loop {
        // ordering: relaxed — checked under the queue mutex; the mutex orders it
        if s.stop.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(seed) = oldest(&q, true).or_else(|| oldest(&q, false)) {
            return Some(take_run(&mut q, seed));
        }
        s.q_cv.wait(&mut q);
    }
}

/// The longest-queued demand (or prefetch) request.
fn oldest(q: &Queue, demand: bool) -> Option<u64> {
    q.pending
        .iter()
        .filter(|(_, r)| r.demand == demand)
        .min_by_key(|(_, r)| r.seq)
        .map(|(&id, _)| id)
}

/// Remove the longest contiguous run around `seed` from the queue (capped
/// at [`MAX_BATCH`]) and describe it as a batch. The batch's freshness floor
/// is the max over its members' in-flight floors, which satisfies every
/// member (GetPage@LSN may always return a newer version).
fn take_run(q: &mut Queue, seed: u64) -> Batch {
    let mut lo = seed;
    let mut hi = seed;
    let max = MAX_BATCH as u64;
    while hi - lo + 1 < max && lo > 0 && q.pending.contains_key(&(lo - 1)) {
        lo -= 1;
    }
    while hi - lo + 1 < max && q.pending.contains_key(&(hi + 1)) {
        hi += 1;
    }
    let mut ids = Vec::with_capacity((hi - lo + 1) as usize);
    let mut enqueued = Vec::with_capacity(ids.capacity());
    let mut min_lsn = Lsn::ZERO;
    for raw in lo..=hi {
        let r = q.pending.remove(&raw).expect("run member pending");
        min_lsn = min_lsn.max(r.min_lsn);
        ids.push(PageId::new(raw));
        enqueued.push(r.enqueued);
    }
    Batch { ids, min_lsn, enqueued }
}

/// Stamp the scheduler's share of a fetch's attribution onto the backend's
/// meta: the member's queue wait, its coalesce membership, and — when the
/// backend could not split the round trip itself — the call's wall-clock
/// minus the server serve time as the network stage.
fn stamp(
    res: Result<(Page, FetchMeta)>,
    queue_ns: u64,
    width: u32,
    fallback: bool,
    call_ns: u64,
) -> Result<(Page, FetchMeta)> {
    res.map(|(page, mut m)| {
        m.queue_ns = queue_ns;
        m.range_width = width;
        m.range_fallback = fallback;
        if m.net_ns == 0 {
            m.net_ns = call_ns.saturating_sub(m.serve_ns);
        }
        (page, m)
    })
}

fn execute(s: &Shared, batch: Batch) {
    let first = batch.ids[0];
    let count = batch.ids.len() as u32;
    let dispatched = Instant::now();
    let queued =
        |i: usize| dispatched.saturating_duration_since(batch.enqueued[i]).as_nanos() as u64;
    if count == 1 {
        s.stats.single_calls.incr();
        let t0 = Instant::now();
        let res = s.backend.fetch_page_traced(first, batch.min_lsn);
        let call_ns = t0.elapsed().as_nanos() as u64;
        complete_one(s, first, stamp(res, queued(0), 1, false, call_ns));
        return;
    }
    s.stats.range_calls.incr();
    s.stats.range_pages.add(count as u64);
    let t0 = Instant::now();
    match s.backend.fetch_page_range_traced(first, count, batch.min_lsn) {
        Ok((pages, meta)) if pages.len() == count as usize => {
            let call_ns = t0.elapsed().as_nanos() as u64;
            for (i, (id, page)) in batch.ids.iter().zip(pages).enumerate() {
                // Every member shares the range's wire/serve cost.
                complete_one(s, *id, stamp(Ok((page, meta)), queued(i), count, false, call_ns));
            }
        }
        _ => {
            // Degrade to per-page fetches so each member gets its own
            // result (a range fails as a unit; its members need not).
            s.stats.range_fallbacks.incr();
            for (i, id) in batch.ids.iter().enumerate() {
                let t0 = Instant::now();
                let res = s.backend.fetch_page_traced(*id, batch.min_lsn);
                let call_ns = t0.elapsed().as_nanos() as u64;
                complete_one(s, *id, stamp(res, queued(i), count, true, call_ns));
            }
        }
    }
}

/// Fulfil one page's completion slot and install prefetch results into
/// the sink cache.
fn complete_one(s: &Shared, id: PageId, res: Result<(Page, FetchMeta)>) {
    let entry = s.inflight.lock().remove(&id);
    let Some(entry) = entry else { return };
    // ordering: seqcst — pairs with the seqcst demand promotion in fetch;
    // see the comment there
    if !entry.demand.load(Ordering::SeqCst) {
        // Pure prefetch: no waiter; land the page in the cache.
        if let Ok((page, _)) = &res {
            if let Some(cache) = s.sink.upgrade() {
                let _ = cache.install_prefetched(page.clone());
            }
        }
    }
    entry.fulfill(res);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use parking_lot::Mutex as PlMutex;
    use std::sync::atomic::AtomicU64;

    /// Test backend: serves pages from a map and counts calls. While the
    /// test holds its gate, every call blocks on entry (already counted)
    /// until the test releases it — batching is then asserted by what
    /// queued behind a held call, never by timing.
    struct TestSource {
        pages: PlMutex<HashMap<PageId, Page>>,
        single_calls: AtomicU64,
        range_calls: AtomicU64,
        range_pages: AtomicU64,
        held: PlMutex<bool>,
        gate: Condvar,
    }

    impl TestSource {
        fn new(n: u64) -> Arc<TestSource> {
            let mut pages = HashMap::new();
            for i in 0..n {
                let mut p = Page::new(PageId::new(i), PageType::BTreeLeaf);
                p.body_mut()[0] = i as u8;
                pages.insert(PageId::new(i), p);
            }
            Arc::new(TestSource {
                pages: PlMutex::new(pages),
                single_calls: AtomicU64::new(0),
                range_calls: AtomicU64::new(0),
                range_pages: AtomicU64::new(0),
                held: PlMutex::new(false),
                gate: Condvar::new(),
            })
        }

        fn hold(&self) {
            *self.held.lock() = true;
        }

        fn release(&self) {
            *self.held.lock() = false;
            self.gate.notify_all();
        }

        fn pass_gate(&self) {
            let mut held = self.held.lock();
            while *held {
                self.gate.wait(&mut held);
            }
        }

        /// Backend calls made so far, held ones included.
        fn calls(&self) -> u64 {
            // ordering: relaxed — test statistic, polled
            self.single_calls.load(Ordering::Relaxed) + self.range_calls.load(Ordering::Relaxed)
        }
    }

    impl PageSource for TestSource {
        fn fetch_page(&self, id: PageId, _min_lsn: Lsn) -> Result<Page> {
            self.single_calls.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — test statistic
            self.pass_gate();
            self.pages.lock().get(&id).cloned().ok_or_else(|| Error::NotFound(format!("{id}")))
        }
    }

    impl RangedPageSource for TestSource {
        fn fetch_page_range(&self, first: PageId, count: u32, _min_lsn: Lsn) -> Result<Vec<Page>> {
            self.range_calls.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — test statistic
            self.range_pages.fetch_add(count as u64, Ordering::Relaxed); // ordering: relaxed — test statistic
            self.pass_gate();
            let pages = self.pages.lock();
            (first.raw()..first.raw() + count as u64)
                .map(|i| {
                    pages
                        .get(&PageId::new(i))
                        .cloned()
                        .ok_or_else(|| Error::NotFound(format!("page:{i}")))
                })
                .collect()
        }
    }

    fn sched(src: &Arc<TestSource>, workers: usize) -> Arc<IoScheduler> {
        IoScheduler::start(Arc::clone(src) as Arc<dyn RangedPageSource>, workers, Weak::new())
    }

    /// Poll until `cond` holds: the tests order their steps by observed
    /// scheduler state (5 s cap, so a regression fails instead of hanging).
    fn until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn fetch_returns_pages() {
        let src = TestSource::new(16);
        let s = sched(&src, WORKERS);
        for i in 0..16 {
            let (p, _) = s.fetch(PageId::new(i), Lsn::ZERO).unwrap();
            assert_eq!(p.body()[0], i as u8);
        }
        assert!(s.fetch(PageId::new(99), Lsn::ZERO).is_err());
    }

    #[test]
    fn lone_miss_on_an_idle_scheduler_is_dispatched_at_once() {
        // No neighbour is awaited: the backend sees the call while the
        // reader still parks on its completion slot.
        let src = TestSource::new(4);
        let s = sched(&src, WORKERS);
        src.hold();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| s.fetch(PageId::new(2), Lsn::ZERO).unwrap().1);
            until("the lone miss to reach the backend", || src.calls() == 1);
            assert!(!reader.is_finished());
            src.release();
            let meta = reader.join().unwrap();
            assert_eq!((meta.range_width, meta.range_fallback), (1, false));
        });
    }

    #[test]
    fn single_flight_dedupes_concurrent_misses() {
        // 8 readers of one held page must produce exactly one backend call.
        let src = TestSource::new(4);
        let s = sched(&src, WORKERS);
        src.hold();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| s.fetch(PageId::new(1), Lsn::ZERO).unwrap()))
                .collect();
            until("seven readers to join the held fetch", || s.stats().joined.get() == 7);
            src.release();
            for r in readers {
                assert_eq!(r.join().unwrap().0.body()[0], 1);
            }
        });
        assert_eq!(src.calls(), 1, "exactly one backend call");
        assert_eq!(s.stats().joined.get(), 7);
    }

    #[test]
    fn a_submitted_fetch_is_joined_before_its_submitter_waits() {
        // Single-flight holds across the split: a reader arriving between
        // `submit` and `wait` joins the request already on the wire.
        let src = TestSource::new(4);
        let s = sched(&src, WORKERS);
        src.hold();
        let pending = s.submit(PageId::new(2), Lsn::ZERO);
        until("the submitted fetch to reach the backend", || src.calls() == 1);
        std::thread::scope(|scope| {
            let joiner = scope.spawn(|| s.fetch(PageId::new(2), Lsn::ZERO).unwrap());
            until("the second reader to join", || s.stats().joined.get() == 1);
            src.release();
            assert_eq!(pending.wait().unwrap().0.body()[0], 2);
            assert_eq!(joiner.join().unwrap().0.body()[0], 2);
        });
        assert_eq!(src.calls(), 1, "exactly one backend call");
    }

    #[test]
    fn misses_queued_behind_a_busy_worker_leave_as_one_range_call() {
        // One fetch occupies the only worker; eight adjacent misses queue
        // behind it and, once it returns, leave together.
        let src = TestSource::new(64);
        let s = sched(&src, 1);
        src.hold();
        std::thread::scope(|scope| {
            let busy = scope.spawn(|| s.fetch(PageId::new(0), Lsn::ZERO).unwrap().1);
            until("the worker to enter the backend", || src.calls() == 1);
            let readers: Vec<_> = (8..16u64)
                .map(|i| {
                    let s = &s;
                    scope.spawn(move || s.fetch(PageId::new(i), Lsn::ZERO).unwrap())
                })
                .collect();
            until("eight misses to queue", || s.depth() == 9);
            src.release();
            assert_eq!(busy.join().unwrap().range_width, 1);
            for (i, r) in readers.into_iter().enumerate() {
                let (page, meta) = r.join().unwrap();
                assert_eq!(page.body()[0], 8 + i as u8);
                assert_eq!((meta.range_width, meta.range_fallback), (8, false));
                assert!(meta.queue_ns > 0, "members waited behind the busy worker");
            }
        });
        // ordering: relaxed — asserted after the fetches returned
        let range =
            (src.range_calls.load(Ordering::Relaxed), src.range_pages.load(Ordering::Relaxed));
        assert_eq!(range, (1, 8), "one GetPageRange of 8");
        assert_eq!(s.stats().single_calls.get(), 1);
        assert_eq!(s.stats().coalesce_ratio_pct(), 89);
    }

    #[test]
    fn prefetch_hints_are_serviced_in_background() {
        let src = TestSource::new(64);
        let s = sched(&src, WORKERS);
        s.prefetch(PageId::new(10), 8, Lsn::ZERO);
        until("the hints to be serviced", || s.depth() == 0);
        assert_eq!(s.stats().prefetch_hints.get(), 8);
        // ordering: relaxed — asserted after the hints were serviced
        assert!(src.range_calls.load(Ordering::Relaxed) >= 1, "hints coalesce into range reads");
        // A later demand fetch for a hinted page joins/refetches cleanly.
        assert_eq!(s.fetch(PageId::new(12), Lsn::ZERO).unwrap().0.body()[0], 12);
    }

    #[test]
    fn range_failure_degrades_to_per_page_fetches() {
        // Page 21 does not exist: the 3-page range fails as a unit, then
        // per-page fallback gives 20 and 22 their pages and 21 its error,
        // and the survivors' spans say they were re-fetched alone.
        let src = TestSource::new(64);
        src.pages.lock().remove(&PageId::new(21));
        let s = sched(&src, 1);
        src.hold();
        let results: Vec<Result<(Page, FetchMeta)>> = std::thread::scope(|scope| {
            scope.spawn(|| s.fetch(PageId::new(0), Lsn::ZERO).unwrap());
            until("the worker to enter the backend", || src.calls() == 1);
            let handles: Vec<_> = (20..23u64)
                .map(|i| {
                    let s = &s;
                    scope.spawn(move || s.fetch(PageId::new(i), Lsn::ZERO))
                })
                .collect();
            until("three misses to queue", || s.depth() == 4);
            src.release();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(s.stats().range_fallbacks.get(), 1);
        assert!(results[1].is_err());
        for r in [&results[0], &results[2]] {
            let (_, m) = r.as_ref().expect("pages 20 and 22 still arrive");
            assert!(m.range_fallback, "survivors of a failed range carry the flag");
            assert_eq!(m.range_width, 3, "width records the original batch size");
        }
    }

    #[test]
    fn coalesce_ratio_pct_is_defined_before_first_dispatch() {
        // The hub gauge samples this at arbitrary times, including before
        // any batch has been dispatched: it must read 0, not a 0/0 cast.
        let stats = SchedStats::default();
        assert_eq!(stats.coalesce_ratio_pct(), 0);
        assert_eq!(stats.coalesce_ratio(), 0.0);
        stats.range_pages.add(30);
        for _ in 0..10 {
            stats.single_calls.incr();
        }
        assert_eq!(stats.coalesce_ratio_pct(), 75);
        let all_ranged = SchedStats::default();
        all_ranged.range_pages.add(5);
        assert_eq!(all_ranged.coalesce_ratio_pct(), 100);
    }

    #[test]
    fn stale_inflight_is_not_joined_by_fresher_request() {
        let src = TestSource::new(8);
        let s = sched(&src, WORKERS);
        src.hold();
        std::thread::scope(|scope| {
            scope.spawn(|| s.fetch(PageId::new(3), Lsn::new(5)).unwrap());
            until("the low-floor fetch to reach the backend", || src.calls() == 1);
            // A request with a *higher* floor must not reuse the in-flight
            // lower-floor call: it goes to the backend itself.
            scope.spawn(|| s.fetch(PageId::new(3), Lsn::new(50)).unwrap());
            until("the fresher fetch to reach the backend", || src.calls() == 2);
            src.release();
        });
        assert_eq!(s.stats().joined.get(), 0);
        // ordering: relaxed — asserted after the fetches returned
        assert_eq!(src.single_calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn stop_fails_queued_waiters() {
        let src = TestSource::new(8);
        let s = sched(&src, 1);
        src.hold();
        std::thread::scope(|scope| {
            let busy = scope.spawn(|| s.fetch(PageId::new(1), Lsn::ZERO));
            until("the worker to enter the backend", || src.calls() == 1);
            let queued = scope.spawn(|| s.fetch(PageId::new(2), Lsn::ZERO));
            until("page 2 to queue", || s.depth() == 2);
            let stopper = scope.spawn(|| s.stop());
            // ordering: relaxed — test poll; stop() stores it under the queue mutex
            until("stop to be requested", || s.shared.stop.load(Ordering::Relaxed));
            src.release();
            stopper.join().unwrap();
            assert!(busy.join().unwrap().is_ok(), "the in-flight fetch completes");
            assert!(
                matches!(queued.join().unwrap(), Err(Error::Unavailable(_))),
                "the queued fetch is failed, not left parked"
            );
        });
    }

    #[test]
    fn stopping_an_idle_scheduler_never_loses_its_wakeup() {
        // Idle workers park untimed, so a stop wake-up lost between a
        // worker's flag check and its park would hang this loop. The spin
        // before each stop sweeps it across the workers' start-up, so
        // some stops land inside that window.
        let src = TestSource::new(1);
        for i in 0..5_000u64 {
            let s = sched(&src, WORKERS);
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(i % 97) {}
            s.stop();
        }
    }
}
