//! The compute node's remote reads (DESIGN.md §4d).
//!
//! A demand miss is a call on the reader's own thread, single-flight: the
//! first miss of a page fetches it, and a concurrent miss whose freshness
//! floor is ≤ the fetch's waits on its slot (a fresher one bypasses it). A
//! drop guard settles the slot, so a fetch that unwinds fails its followers.
//!
//! One thread per node, `io-sched-0` ([`IoScheduler::start`]), fetches scan
//! read-ahead hints as `GetPageRange` calls that misses join, and is the
//! node's lazy writer: it keeps a few memory frames free, so the eviction
//! spill runs beside a miss's fetch, not before it. Readers share the
//! prefetch work: one parked on a range, or outrunning the thread, fetches
//! the next queued range itself. Without the thread the demand path is the
//! same, with no prefetch and every eviction on the reader.

use crate::cache::{FetchMeta, PageSource, RangedPageSource, TieredCache};
use crate::page::Page;
use parking_lot::{Condvar, Mutex};
use socrates_common::lock_rank::{STORAGE_SCHED_INFLIGHT, STORAGE_SCHED_QUEUE};
use socrates_common::metrics::Counter;
use socrates_common::obs::MetricsHub;
use socrates_common::{Error, Lsn, NodeId, PageId, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

/// Largest run of contiguous pages one prefetch `GetPageRange` asks for.
const MAX_BATCH: usize = 64;
/// Cap on queued prefetch hint pages; pages beyond it are dropped.
const MAX_PENDING: usize = 512;

/// Scheduler counters (registered into the hub by the owning node).
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Demand misses.
    pub submitted: Counter,
    /// Demand misses that waited on a fetch of their page on the wire.
    pub joined: Counter,
    /// Demand GetPage calls: leaders, bypassers, followers of failed ranges.
    pub single_calls: Counter,
    /// Prefetch `GetPageRange` calls.
    pub range_calls: Counter,
    /// Pages asked for by prefetch range calls.
    pub range_pages: Counter,
    /// Pages posted as prefetch hints (after the residency filter).
    pub prefetch_hints: Counter,
    /// Prefetch hint pages dropped: the queue was full, or no thread runs.
    pub prefetch_dropped: Counter,
}

impl SchedStats {
    /// Share of fetched pages that came in a range call, a rounded percentage
    /// for the hub gauge: 0 before any call, and each counter read once.
    pub fn coalesce_ratio_pct(&self) -> i64 {
        let ranged = self.range_pages.get();
        let total = ranged + self.single_calls.get();
        (ranged * 100 + total / 2).checked_div(total).unwrap_or(0) as i64
    }
}

type Fetched = (Page, FetchMeta);

/// One page fetch on the wire: readers that join wait on its slot.
struct InFlight {
    /// A miss may join only if its own floor is ≤ this.
    min_lsn: Lsn,
    /// A prefetch range's page: if the range fails, joiners fetch it alone.
    prefetch: bool,
    slot: OnceLock<Result<Fetched>>,
}

/// A fetch's published in-flight slot. Dropped unsettled (the fetch unwound
/// or returned early), it fails the readers that joined.
struct Claim<'a> {
    s: &'a Shared,
    id: PageId,
    entry: Option<Arc<InFlight>>,
}

impl Claim<'_> {
    /// Unpublish the slot and hand `res` to the readers that joined it.
    fn settle(&mut self, res: impl FnOnce() -> Result<Fetched>) {
        let Some(entry) = self.entry.take() else { return };
        self.s.inflight.lock().remove(&self.id);
        // No reader can join now, so the other holders are its followers.
        if Arc::strong_count(&entry) > 1 {
            let _ = entry.slot.set(res());
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.settle(|| Err(Error::Unavailable("the page fetch was abandoned".into())));
    }
}

type InFlightMap = HashMap<PageId, Arc<InFlight>>;
/// A read-ahead hint: `(first page, count, min_lsn)`.
type Hint = (u64, u32, Lsn);

/// The background thread's work, under one mutex so that no wake-up falls
/// between the thread's check and its park.
#[derive(Default)]
struct Queue {
    hints: VecDeque<Hint>,
    /// A frame of the cache's free reserve was taken.
    clean: bool,
    stop: bool,
}

impl Queue {
    /// Hint pages queued.
    fn pages(&self) -> usize {
        self.hints.iter().map(|h| h.1 as usize).sum()
    }
}

struct Shared {
    inflight: Mutex<InFlightMap>,
    q: Mutex<Queue>,
    q_cv: Condvar,
    stats: SchedStats,
}

impl Shared {
    /// Whether a queued hint covers `id`.
    fn hinted(&self, id: PageId) -> bool {
        self.q.lock().hints.iter().any(|h| (h.0..h.0 + h.1 as u64).contains(&id.raw()))
    }

    /// Publish a slot for `id`, which the caller found absent from `fl`.
    fn publish(&self, fl: &mut InFlightMap, id: PageId, min_lsn: Lsn, prefetch: bool) -> Claim<'_> {
        let entry = Arc::new(InFlight { min_lsn, prefetch, slot: OnceLock::new() });
        fl.insert(id, Arc::clone(&entry));
        Claim { s: self, id, entry: Some(entry) }
    }
}

/// The scheduler, owned by the node's [`TieredCache`]. Its drop stops and joins its thread.
pub struct IoScheduler {
    shared: Arc<Shared>,
    thread: Option<Thread>,
}

type Thread = (std::thread::JoinHandle<()>, Arc<dyn RangedPageSource>, Weak<TieredCache>);

impl Default for IoScheduler {
    /// Single-flight only: no background thread.
    fn default() -> IoScheduler {
        let shared = Arc::new(Shared {
            inflight: Mutex::with_rank(HashMap::new(), STORAGE_SCHED_INFLIGHT, "sched.inflight"),
            q: Mutex::with_rank(Queue::default(), STORAGE_SCHED_QUEUE, "sched.q"),
            q_cv: Condvar::new(),
            stats: SchedStats::default(),
        });
        IoScheduler { shared, thread: None }
    }
}

impl IoScheduler {
    /// Single-flight plus the background thread, which fetches hinted
    /// ranges from `source` into `sink` and keeps `sink`'s free-frame
    /// reserve. It upgrades `sink` per step, never across a park.
    pub fn start(source: Arc<dyn RangedPageSource>, sink: Weak<TieredCache>) -> IoScheduler {
        let mut sched = IoScheduler::default();
        let (s, src, to) = (Arc::clone(&sched.shared), Arc::clone(&source), sink.clone());
        let thread = std::thread::Builder::new()
            .name("io-sched-0".into())
            .spawn(move || run(&s, &*src, &to))
            .expect("spawn io scheduler thread");
        sched.thread = Some((thread, source, sink));
        sched
    }

    /// Counters.
    pub fn stats(&self) -> &SchedStats {
        &self.shared.stats
    }

    /// Register scheduler metrics into `hub` under `node`.
    pub fn register_metrics(&self, hub: &MetricsHub, node: NodeId) {
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
        // Fetches on the wire; hint pages queued (socbench samples its max).
        let (a, b, c) =
            (Arc::clone(&self.shared), Arc::clone(&self.shared), Arc::clone(&self.shared));
        hub.register_gauge_fn(node, "sched_depth", move || a.inflight.lock().len() as i64);
        hub.register_gauge_fn(node, "sched_queue_depth", move || b.q.lock().pages() as i64);
        hub.register_gauge_fn(node, "sched_coalesce_ratio_pct", move || {
            c.stats.coalesce_ratio_pct()
        });
    }

    /// Fetch `id` at an LSN ≥ `min_lsn` from `source` on the calling thread,
    /// shared with concurrent misses of the page. The meta's `queue_ns` is
    /// the time spent waiting on another fetch (0 for the one that fetched).
    pub fn fetch(&self, source: &dyn PageSource, id: PageId, min_lsn: Lsn) -> Result<Fetched> {
        let s = &*self.shared;
        s.stats.submitted.incr();
        let mut fl = s.inflight.lock();
        // A staler fetch on the wire is bypassed: its page may be too old.
        let join = fl.get(&id).filter(|e| e.min_lsn >= min_lsn).map(Arc::clone);
        let claim = (!fl.contains_key(&id)).then(|| s.publish(&mut fl, id, min_lsn, false));
        drop(fl);
        let mut fallback = false;
        if let (Some(_), Some((_, src, sink))) = (&claim, &self.thread) {
            // A scan outran the thread: fetch the next queued range as well.
            if s.hinted(id) {
                fetch_next(s, &**src, sink.upgrade().as_deref());
            }
        }
        if let Some(entry) = join {
            s.stats.joined.incr();
            let t0 = Instant::now();
            // Parked on a prefetch range (a scan): fetch the next one meanwhile.
            if let (true, Some((_, src, sink))) = (entry.prefetch, &self.thread) {
                fetch_next(s, &**src, sink.upgrade().as_deref());
            }
            let res = entry.slot.wait().clone();
            let queue_ns = t0.elapsed().as_nanos() as u64;
            match res {
                Ok((page, m)) => {
                    let meta = FetchMeta { range_width: m.range_width, ..FetchMeta::default() };
                    return Ok((page, FetchMeta { queue_ns, ..meta }));
                }
                // The prefetch range failed as a unit; this page need not.
                Err(_) if entry.prefetch => fallback = true,
                Err(e) => return Err(e),
            }
        }
        s.stats.single_calls.incr();
        let res = source.fetch_page_traced(id, min_lsn);
        let res = res.map(|(page, m)| (page, FetchMeta { range_fallback: fallback, ..m }));
        if let Some(mut claim) = claim {
            claim.settle(|| res.clone());
        }
        res
    }

    /// Post a read-ahead hint for `count` pages from `first`, fetched at an
    /// LSN ≥ `min_lsn` by the background thread. Best-effort: without the
    /// thread, or beyond the queue cap, pages are dropped.
    pub fn prefetch(&self, first: PageId, count: u32, min_lsn: Lsn) {
        let s = &*self.shared;
        let mut q = s.q.lock();
        let room = if self.thread.is_some() { MAX_PENDING.saturating_sub(q.pages()) } else { 0 };
        let taken = count.min(room as u32);
        s.stats.prefetch_dropped.add((count - taken) as u64);
        if taken > 0 {
            q.hints.push_back((first.raw(), taken, min_lsn));
            s.stats.prefetch_hints.add(taken as u64);
            s.q_cv.notify_one();
        }
    }

    /// Wake the background thread to top up the cache's free-frame reserve.
    pub(crate) fn clean(&self) {
        self.shared.q.lock().clean = true;
        self.shared.q_cv.notify_one();
    }
}

impl Drop for IoScheduler {
    fn drop(&mut self) {
        self.shared.q.lock().stop = true;
        self.shared.q_cv.notify_one();
        // Never join the current thread: it may hold the cache's last `Arc`.
        match self.thread.take() {
            Some((t, ..)) if t.thread().id() != std::thread::current().id() => drop(t.join()),
            _ => {}
        }
    }
}

/// The background thread: park until a hint or a short reserve needs it.
fn run(s: &Shared, src: &dyn RangedPageSource, sink: &Weak<TieredCache>) {
    loop {
        let clean = {
            let mut q = s.q.lock();
            while !q.stop && !q.clean && q.hints.is_empty() {
                s.q_cv.wait(&mut q);
            }
            if q.stop {
                return;
            }
            std::mem::take(&mut q.clean)
        };
        let cache = sink.upgrade();
        if let (true, Some(cache)) = (clean, &cache) {
            // Evict until the reserve is free; with no victim, park again.
            while cache.clean() {}
        }
        fetch_next(s, src, cache.as_deref());
    }
}

/// Fetch the first run (≤ [`MAX_BATCH`]) of the next hint's pages neither in
/// memory nor on the wire as one `GetPageRange` into `cache`, and requeue the
/// rest. A failed range fails only its joined readers, who then fetch alone.
fn fetch_next(s: &Shared, src: &dyn RangedPageSource, cache: Option<&TieredCache>) {
    let (mut next, end, min_lsn) = match s.q.lock().hints.pop_front() {
        Some((first, count, min_lsn)) => (first, first + count as u64, min_lsn),
        None => return,
    };
    let busy = |m: &InFlightMap, id| m.contains_key(&id) || cache.is_some_and(|c| c.in_memory(id));
    let mut fl = s.inflight.lock();
    while next < end && busy(&fl, PageId::new(next)) {
        next += 1;
    }
    let mut run = Vec::new();
    while next < end && run.len() < MAX_BATCH && !busy(&fl, PageId::new(next)) {
        run.push(s.publish(&mut fl, PageId::new(next), min_lsn, true));
        next += 1;
    }
    drop(fl);
    if next < end {
        s.q.lock().hints.push_front((next, (end - next) as u32, min_lsn));
    }
    let Some(first) = run.first().map(|c| c.id) else { return };
    s.stats.range_calls.incr();
    s.stats.range_pages.add(run.len() as u64);
    // On failure the claims drop unsettled, failing any joined reader.
    if let Ok((pages, meta)) = src.fetch_page_range_traced(first, run.len() as u32, min_lsn) {
        for (mut claim, page) in run.into_iter().zip(pages) {
            let res = Ok((page, meta));
            claim.settle(|| res.clone());
            if let (Some(cache), Ok((page, _))) = (cache, res) {
                let _ = cache.install_prefetched(page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::{until, Gate, HookedSource};
    use std::time::Duration;

    fn gated(gate: &Arc<Gate>) -> Arc<HookedSource> {
        let gate = Arc::clone(gate);
        HookedSource::new(move |_| gate.pass())
    }

    #[test]
    fn single_flight_joins_only_a_fetch_fresh_enough() {
        // 7 of 8 readers at floor 5 join the first; one at floor 50 bypasses.
        let gate = Arc::new(Gate::default());
        let (src, s) = (&*gated(&gate), &IoScheduler::default());
        gate.hold();
        std::thread::scope(|scope| {
            let read = |floor| scope.spawn(move || s.fetch(&*src, PageId::new(1), Lsn::new(floor)));
            let readers: Vec<_> = (0..8).map(|_| read(5)).collect();
            until("seven readers to join the held fetch", || s.stats().joined.get() == 7);
            let fresher = read(50);
            until("the fresher fetch to reach the backend", || gate.entered() == 2);
            gate.release();
            for r in readers.into_iter().chain([fresher]) {
                assert_eq!(r.join().unwrap().unwrap().0.body()[0], 1);
            }
        });
        assert_eq!(gate.entered(), 2, "one backend call for the 8, one for the fresher");
        assert_eq!((s.stats().joined.get(), s.stats().single_calls.get()), (7, 2));
    }

    #[test]
    fn a_leader_that_unwinds_fails_its_followers() {
        let (gate, s) = (Arc::new(Gate::default()), Arc::new(IoScheduler::default()));
        let g = Arc::clone(&gate);
        let src = HookedSource::new(move |_| {
            g.pass();
            panic!("the backend fails");
        });
        let sched = Arc::clone(&s);
        let fetch = move || sched.fetch(&*src, PageId::new(1), Lsn::ZERO);
        let (tx, rx) = std::sync::mpsc::channel();
        gate.hold();
        let leader = std::thread::spawn(fetch.clone());
        until("the leader to enter the backend", || gate.entered() == 1);
        // Not scoped: a follower left parked fails the test, not hangs it.
        std::thread::spawn(move || tx.send(fetch()));
        until("the follower to join", || s.stats().joined.get() == 1);
        gate.release();
        assert!(leader.join().is_err(), "the leader's fetch panicked");
        let followed = rx.recv_timeout(Duration::from_secs(5)).expect("the follower returns");
        assert!(matches!(followed, Err(Error::Unavailable(_))), "{followed:?}");
        assert_eq!(gate.entered(), 1, "the follower did not fetch");
    }

    #[test]
    fn a_miss_joins_a_prefetch_range_on_the_wire_and_refetches_if_it_fails() {
        // (hint, readers, readers sure to join, ranges held, width read): 98..101
        // fails, its joiners fetch alone; with the thread held on 30..94 a joiner
        // fetches 94..100, and with it held on 0..64 a reader of 66 fetches 64..66.
        let gate = Arc::new(Gate::default());
        let (src, s) = (&*gated(&gate), &IoScheduler::start(gated(&gate), Weak::new()));
        assert_eq!(s.stats().coalesce_ratio_pct(), 0, "defined before the first call");
        let cases =
            [(98, 3, [98, 100], 2, 1, 1), (30, 70, [30, 32], 2, 2, 64), (0, 70, [66, 66], 1, 2, 1)];
        for (first, count, pages, joining, held, width) in cases {
            let (entered, joins) = (gate.entered(), s.stats().joined.get());
            gate.hold();
            s.prefetch(PageId::new(first), count, Lsn::ZERO);
            until("the range to reach the backend", || gate.entered() == entered + 1);
            let results: Vec<_> = std::thread::scope(|scope| {
                let readers =
                    pages.map(|raw| scope.spawn(move || s.fetch(src, PageId::new(raw), Lsn::ZERO)));
                until("the readers to join", || s.stats().joined.get() == joins + joining);
                until("the ranges to reach the backend", || gate.entered() == entered + held);
                gate.release();
                readers.map(|reader| reader.join().unwrap())
            })
            .into();
            let (_, meta) = results[0].as_ref().expect("the first page arrives");
            assert_eq!((meta.range_width, meta.range_fallback), (width, first == 98));
            assert_eq!(results[1].is_ok(), first != 98, "{:?}", results[1]);
        }
        until("the thread to fetch 66..70", || s.stats().range_calls.get() == 6);
        let stats = s.stats();
        assert_eq!(stats.prefetch_hints.get(), 143);
        assert_eq!(stats.single_calls.get(), 3, "the failed range's readers and 66's leader");
        assert_eq!(stats.coalesce_ratio_pct(), 98, "142 or 143 ranged pages of 145 or 146");
    }

    #[test]
    fn stopping_an_idle_scheduler_never_loses_its_wakeup() {
        // The idle thread parks untimed, so a stop wake-up lost between its
        // check and its park would hang this loop. The spin before each
        // drop sweeps the stop across the thread's start-up.
        let src = HookedSource::new(|_| {});
        for i in 0..5_000u64 {
            let _s = IoScheduler::start(Arc::clone(&src) as Arc<dyn RangedPageSource>, Weak::new());
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(i % 97) {}
        }
    }
}
