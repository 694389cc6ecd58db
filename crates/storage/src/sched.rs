//! The compute node's remote reads (DESIGN.md §4d).
//!
//! A demand miss is a call on the reader's own thread, single-flight: the
//! first miss of a page fetches it, and a concurrent miss whose freshness
//! floor is ≤ the fetch's waits on its slot (a fresher one bypasses it). A
//! drop guard settles the slot, so a fetch that unwinds fails its followers.
//!
//! A batch is one call for a list of pages ([`IoScheduler::fetch_batch`]),
//! on the caller's thread, with a published slot per page that a miss of
//! it joins. A secondary's scan fetches its missing leaves that way.
//!
//! One thread per node, `io-sched-0` ([`IoScheduler::start`]), fetches scan
//! read-ahead hints as batches, and is the node's lazy writer: it keeps a
//! few memory frames free, so the eviction spill runs beside a miss's
//! fetch, not before it. Readers share the prefetch work: one parked on a
//! batch, or outrunning the thread, fetches the next queued hint itself.
//! Without the thread there is no prefetch and every eviction is on the
//! reader.

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

/// Most pages one batch call asks for.
pub const MAX_BATCH: usize = 64;
/// Cap on queued prefetch hint pages; pages beyond it are dropped.
const MAX_PENDING: usize = 512;

/// Scheduler counters (registered into the hub by the owning node).
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Pages readers fetched: demand misses and their batches' pages.
    pub submitted: Counter,
    /// Demand misses that waited on a fetch of their page on the wire.
    pub joined: Counter,
    /// Demand GetPage calls: leaders, bypassers, followers of failed ranges.
    pub single_calls: Counter,
    /// Batch calls: prefetch hints and readers' batches.
    pub range_calls: Counter,
    /// Pages asked for by batch calls.
    pub range_pages: Counter,
    /// Pages posted as prefetch hints (after the residency filter).
    pub prefetch_hints: Counter,
    /// Prefetch hint pages dropped: the queue was full, or no thread runs.
    pub prefetch_dropped: Counter,
}

impl SchedStats {
    /// Share of fetched pages that came in a batch call, a rounded percentage
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
    /// A batch's page: if the batch fails, joiners fetch it alone.
    batch: bool,
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
/// A read-ahead hint: pages in scan order, and the floor to fetch them at.
type Hint = (Vec<PageId>, Lsn);

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
        self.hints.iter().map(|h| h.0.len()).sum()
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
        self.q.lock().hints.iter().any(|h| h.0.contains(&id))
    }

    /// Publish a slot for `id`, which the caller found absent from `fl`.
    fn publish(&self, fl: &mut InFlightMap, id: PageId, min_lsn: Lsn, batch: bool) -> Claim<'_> {
        let entry = Arc::new(InFlight { min_lsn, batch, slot: OnceLock::new() });
        fl.insert(id, Arc::clone(&entry));
        Claim { s: self, id, entry: Some(entry) }
    }

    /// Publish batch slots for the pages of `ids` that are not on the wire
    /// and not `skip`ped, in order, until [`MAX_BATCH`] are claimed.
    fn claim(
        &self,
        ids: impl Iterator<Item = PageId>,
        min_lsn: Lsn,
        skip: impl Fn(PageId) -> bool,
    ) -> Vec<Claim<'_>> {
        let mut fl = self.inflight.lock();
        let mut claims = Vec::new();
        for id in ids {
            if !fl.contains_key(&id) && !skip(id) {
                claims.push(self.publish(&mut fl, id, min_lsn, true));
                if claims.len() == MAX_BATCH {
                    break;
                }
            }
        }
        claims
    }
}

/// The scheduler, owned by the node's [`TieredCache`]. Its drop stops and joins its thread.
pub struct IoScheduler {
    shared: Arc<Shared>,
    /// Where batches go (none: single-flight only).
    source: Option<Arc<dyn RangedPageSource>>,
    /// The background thread, and the cache it installs prefetched pages into.
    thread: Option<(std::thread::JoinHandle<()>, Weak<TieredCache>)>,
}

impl Default for IoScheduler {
    /// Single-flight only: no batches, no background thread.
    fn default() -> IoScheduler {
        let shared = Arc::new(Shared {
            inflight: Mutex::with_rank(HashMap::new(), STORAGE_SCHED_INFLIGHT, "sched.inflight"),
            q: Mutex::with_rank(Queue::default(), STORAGE_SCHED_QUEUE, "sched.q"),
            q_cv: Condvar::new(),
            stats: SchedStats::default(),
        });
        IoScheduler { shared, source: None, thread: None }
    }
}

impl IoScheduler {
    /// Single-flight plus batches of `source`, with no background thread.
    pub fn new(source: Arc<dyn RangedPageSource>) -> IoScheduler {
        let mut sched = IoScheduler::default();
        sched.source = Some(source);
        sched
    }

    /// [`IoScheduler::new`] plus the background thread, which fetches
    /// hinted pages from `source` into `sink` and keeps `sink`'s free-frame
    /// reserve. It upgrades `sink` per step, never across a park.
    pub fn start(source: Arc<dyn RangedPageSource>, sink: Weak<TieredCache>) -> IoScheduler {
        let mut sched = IoScheduler::new(Arc::clone(&source));
        let (s, to) = (Arc::clone(&sched.shared), sink.clone());
        let thread = std::thread::Builder::new()
            .name("io-sched-0".into())
            .spawn(move || run(&s, &*source, &to))
            .expect("spawn io scheduler thread");
        sched.thread = Some((thread, sink));
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
        // A scan outran the thread: fetch the next queued hint as well.
        if claim.is_some() && self.thread.is_some() && s.hinted(id) {
            self.help_prefetch();
        }
        if let Some(entry) = join {
            s.stats.joined.incr();
            let t0 = Instant::now();
            // Parked on a batch (a scan): fetch the next hint meanwhile.
            if entry.batch {
                self.help_prefetch();
            }
            let res = entry.slot.wait().clone();
            let queue_ns = t0.elapsed().as_nanos() as u64;
            match res {
                Ok((page, m)) => {
                    let meta = FetchMeta { range_width: m.range_width, ..FetchMeta::default() };
                    return Ok((page, FetchMeta { queue_ns, ..meta }));
                }
                // The batch failed as a unit; this page need not.
                Err(_) if entry.batch => fallback = true,
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

    /// Fetch the next queued hint on the calling thread, when the
    /// background thread runs.
    fn help_prefetch(&self) {
        if let (Some(src), Some((_, sink))) = (&self.source, &self.thread) {
            fetch_next(&self.shared, &**src, sink.upgrade().as_deref());
        }
    }

    /// Most pages [`IoScheduler::fetch_batch`] fetches: [`MAX_BATCH`], or
    /// 0 with no batch source.
    pub fn max_batch(&self) -> usize {
        if self.source.is_some() {
            MAX_BATCH
        } else {
            0
        }
    }

    /// Fetch the pages of `ids` that no fetch has on the wire, the first
    /// [`MAX_BATCH`] of them, at an LSN ≥ `min_lsn` as one call on the
    /// calling thread; a concurrent miss of one joins it. Returns them in
    /// `ids` order: none with no batch source.
    pub fn fetch_batch(&self, ids: &[PageId], min_lsn: Lsn) -> Result<Vec<Fetched>> {
        let Some(src) = &self.source else { return Ok(Vec::new()) };
        let s = &*self.shared;
        let claims = s.claim(ids.iter().copied(), min_lsn, |_| false);
        s.stats.submitted.add(claims.len() as u64);
        fetch_claimed(s, &**src, claims, min_lsn)
    }

    /// Post a read-ahead hint for `ids`, fetched in that order at an LSN ≥
    /// `min_lsn` by the background thread. Best-effort: without the thread,
    /// or beyond the queue cap, pages are dropped.
    pub fn prefetch(&self, ids: impl IntoIterator<Item = PageId>, min_lsn: Lsn) {
        let mut ids: Vec<PageId> = ids.into_iter().collect();
        let s = &*self.shared;
        let mut q = s.q.lock();
        let room = if self.thread.is_some() { MAX_PENDING.saturating_sub(q.pages()) } else { 0 };
        let taken = ids.len().min(room);
        s.stats.prefetch_dropped.add((ids.len() - taken) as u64);
        if taken > 0 {
            ids.truncate(taken);
            q.hints.push_back((ids, min_lsn));
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
            Some((t, _)) if t.thread().id() != std::thread::current().id() => drop(t.join()),
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

/// Fetch the next hint's first [`MAX_BATCH`] pages neither in memory nor
/// on the wire as one batch into `cache`, and requeue the rest.
fn fetch_next(s: &Shared, src: &dyn RangedPageSource, cache: Option<&TieredCache>) {
    let Some((ids, min_lsn)) = s.q.lock().hints.pop_front() else { return };
    let mut rest = ids.into_iter();
    let in_memory = |id| cache.is_some_and(|c| c.in_memory(id));
    let claims = s.claim(rest.by_ref(), min_lsn, in_memory);
    if !rest.as_slice().is_empty() {
        s.q.lock().hints.push_front((rest.collect(), min_lsn));
    }
    if let (Ok(fetched), Some(cache)) = (fetch_claimed(s, src, claims, min_lsn), cache) {
        for (page, _) in fetched {
            let _ = cache.install_prefetched(page);
        }
    }
}

/// Fetch the claimed pages from `src` as one call and settle each claim. On
/// failure the claims drop unsettled, failing only the readers that joined
/// them, who then fetch alone.
fn fetch_claimed(
    s: &Shared,
    src: &dyn RangedPageSource,
    claims: Vec<Claim<'_>>,
    min_lsn: Lsn,
) -> Result<Vec<Fetched>> {
    if claims.is_empty() {
        return Ok(Vec::new());
    }
    let ids: Vec<PageId> = claims.iter().map(|c| c.id).collect();
    s.stats.range_calls.incr();
    s.stats.range_pages.add(ids.len() as u64);
    let (pages, meta) = src.fetch_pages_traced(&ids, min_lsn)?;
    let settle = |(mut claim, page): (Claim<'_>, Page)| {
        let fetched = (page, meta);
        claim.settle(|| Ok(fetched.clone()));
        fetched
    };
    Ok(claims.into_iter().zip(pages).map(settle).collect())
}

#[cfg(test)]
mod tests;
