//! The compute node's tiered page cache: main memory over RBPEX over a
//! remote page source.
//!
//! A Socrates compute node does not keep a copy of the database — it caches
//! a hot subset in memory and on local SSD (RBPEX) and fetches everything
//! else from page servers via GetPage@LSN (paper §4.4). This module is that
//! cache. It is deliberately ignorant of *what* the remote source is: the
//! primary plugs in an RBIO client, unit tests plug in a map.
//!
//! Responsibilities beyond caching:
//!
//! * **WAL discipline** — before a page leaves the node entirely, the log
//!   must be flushed past its PageLSN (the flush hook), because the page's
//!   latest state will only be reconstructible by log apply downstream.
//! * **Evicted-LSN tracking** — when a page leaves the node, the eviction
//!   listener receives `(page, PageLSN)`; the primary feeds this into the
//!   hash map that supplies the LSN for future GetPage@LSN calls.
//! * **Hit-rate accounting** — Tables 3 and 4 of the paper report the
//!   "local cache hit %", i.e. (memory + SSD hits) / all page reads.
//!
//! A remote miss reserves a memory frame, fetches its page on its own
//! thread, and installs into that frame. With the I/O scheduler's
//! background thread the frame is normally free already: the thread is the
//! node's lazy writer and keeps a small reserve of frames free by evicting
//! ahead of demand, so the spill runs beside the miss's fetch rather than
//! before it. Evictions spill their victim with no cache lock held; the
//! victim stays resident and readable until it is in the next tier.

#![doc = "soclint:hot"]

use crate::page::Page;
use crate::rbpex::Rbpex;
use crate::sched::IoScheduler;
use parking_lot::{Mutex, MutexGuard, RwLock};
use socrates_common::metrics::Counter;
use socrates_common::obs::ctx::pack_coalesce;
use socrates_common::obs::{ReadStage, SpanEvent, SpanKind, SpanRing, StageHists, TraceCtx};
use socrates_common::{Error, Lsn, NodeId, PageId, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-fetch latency attribution flowing back up the remote-read path,
/// consumed by [`TieredCache::record_miss`]. Durations are nanoseconds;
/// zero means "the layer that knows did not fill it in" and the caller
/// falls back to its own wall-clock measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchMeta {
    /// Single-flight wait: parked on another fetch of the page (0 for the
    /// miss that fetched it).
    pub queue_ns: u64,
    /// Network round trip minus the server's serve time.
    pub net_ns: u64,
    /// Server-side serve time, stamped on the RBIO response.
    pub serve_ns: u64,
    /// Pages in the call that fetched the page (1 = a lone GetPage).
    pub range_width: u32,
    /// The prefetch range this miss joined failed; it re-fetched the page
    /// alone.
    pub range_fallback: bool,
    /// The `getpage` root a sampling remote source minted for this fetch
    /// ([`TraceCtx::NONE`] = unsampled; the disarmed path only ever copies
    /// zeros). The source's own child spans (`rbio.net`, server-side legs)
    /// already hang off it.
    pub root: TraceCtx,
}

/// Where cache misses are satisfied from (page servers, a local file, or a
/// test fixture).
pub trait PageSource: Send + Sync {
    /// Fetch `id` at an LSN ≥ `min_lsn` (the GetPage@LSN contract: never a
    /// version older than `min_lsn`, possibly newer).
    fn fetch_page(&self, id: PageId, min_lsn: Lsn) -> Result<Page>;

    /// [`PageSource::fetch_page`], plus whatever latency attribution the
    /// source can provide. Sources that cannot attribute (test maps, local
    /// files) inherit this default; the caller then charges the whole call
    /// to the network stage.
    fn fetch_page_traced(&self, id: PageId, min_lsn: Lsn) -> Result<(Page, FetchMeta)> {
        self.fetch_page(id, min_lsn)
            .map(|p| (p, FetchMeta { range_width: 1, ..FetchMeta::default() }))
    }
}

/// A [`PageSource`] that can also serve contiguous ranges (the compute
/// side of the `GetPageRange` protocol arm), which prefetch calls.
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

/// A shared, lockable in-memory page. Callers read-lock to read and
/// write-lock to mutate; the cache never evicts a page with outstanding
/// references.
pub type PageRef = Arc<RwLock<Page>>;

/// Cache hit/miss statistics.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Reads served from main memory.
    pub mem_hits: Counter,
    /// Reads served from RBPEX (local SSD).
    pub ssd_hits: Counter,
    /// Reads that went to the remote source.
    pub fetches: Counter,
    /// Pages pushed out of the node entirely.
    pub node_evictions: Counter,
    /// Pages installed by the I/O scheduler's background prefetch (they
    /// turn later demand reads into memory hits).
    pub prefetch_installs: Counter,
}

impl CacheStats {
    /// Forget all counts (benchmarks reset after their load/warmup phase).
    pub fn reset(&self) {
        self.mem_hits.reset();
        self.ssd_hits.reset();
        self.fetches.reset();
        self.node_evictions.reset();
        self.prefetch_installs.reset();
    }

    /// Fraction of reads served locally (memory or SSD), the paper's
    /// "local cache hit %".
    pub fn local_hit_rate(&self) -> f64 {
        let hits = self.mem_hits.get() + self.ssd_hits.get();
        let total = hits + self.fetches.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

struct MemEntry {
    page: PageRef,
    referenced: bool,
}

struct MemTier {
    map: HashMap<PageId, MemEntry>,
    clock: VecDeque<PageId>,
    /// Frames freed for misses still on the wire, each held by a [`Frame`].
    reserved: usize,
}

/// Victims one eviction spills before it gives up: a try is lost when a
/// reader touches its victim during the spill.
const SPILL_TRIES: usize = 4;

/// Most frames the background thread keeps free: one per miss a node
/// typically has on the wire, and never more than an eighth of the memory
/// tier, so caches under 8 frames keep none and evict on the reader.
const FREE_RESERVE: usize = 2;

/// A memory frame a remote miss holds for its page while the fetch is on
/// the wire: other installs count it as taken, so no concurrent miss or
/// prefetch fills it. [`Frame::install`] consumes it; dropped unused (the
/// fetch failed), it is released.
#[must_use = "a reserved frame stays held until it is installed into or dropped"]
pub struct Frame<'a> {
    cache: &'a TieredCache,
}

impl Frame<'_> {
    /// Install the fetched `page` into this frame, without evicting. If the
    /// page is already resident (a concurrent miss of it installed first),
    /// the existing entry wins and is returned.
    pub fn install(self, page: Page) -> PageRef {
        let cache = self.cache;
        std::mem::forget(self);
        let mut mem = cache.mem.lock();
        mem.reserved -= 1;
        admit(&mut mem, page)
    }
}

impl Drop for Frame<'_> {
    fn drop(&mut self) {
        self.cache.mem.lock().reserved -= 1;
    }
}

/// Insert `page` unless it is already resident, in which case the existing
/// entry wins.
fn admit(mem: &mut MemTier, page: Page) -> PageRef {
    let id = page.page_id();
    if let Some(e) = mem.map.get_mut(&id) {
        e.referenced = true;
        return Arc::clone(&e.page);
    }
    let page_ref: PageRef = Arc::new(RwLock::new(page));
    mem.map.insert(id, MemEntry { page: Arc::clone(&page_ref), referenced: true });
    mem.clock.push_back(id);
    page_ref
}

/// Which tier served a page read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from main memory.
    Memory,
    /// Served from RBPEX (local SSD).
    Ssd,
    /// Fetched from the remote source (a miss for hit-rate purposes).
    Remote,
}

/// Hook invoked with a page's LSN before the page leaves the node; must not
/// return until the log is durable past that LSN.
pub type WalFlushHook = Arc<dyn Fn(Lsn) + Send + Sync>;
/// Listener invoked with a page's last PageLSN as the page leaves the node,
/// before a reader can miss on it.
pub type EvictionListener = Arc<dyn Fn(PageId, Lsn) + Send + Sync>;

/// Two-tier (memory + optional RBPEX) page cache over a [`PageSource`].
pub struct TieredCache {
    mem_capacity: usize,
    /// Frames the background thread keeps free (0 without it).
    reserve: usize,
    mem: Mutex<MemTier>,
    rbpex: Option<Arc<Rbpex>>,
    source: Arc<dyn PageSource>,
    /// Single-flight for remote misses and, when started, the background
    /// thread that prefetches and keeps the free reserve.
    sched: IoScheduler,
    wal_flush: WalFlushHook,
    on_evict: EvictionListener,
    stats: CacheStats,
    /// Per-stage latency of this node's remote misses, fed on every miss
    /// (the deployment registers it in the hub under the node).
    read_stages: StageHists<ReadStage>,
    /// Cross-tier span ring (a sampled miss's `getpage` root and its
    /// cache-side stage children) plus this node's identity.
    spans: (Arc<SpanRing>, NodeId),
}

/// The cache-side wall-clock legs of one remote miss, measured by whoever
/// drove it ([`TieredCache::get`], or a secondary's coherent fetch).
#[derive(Clone, Copy, Debug)]
pub struct MissTiming {
    /// Probing the local tiers before the miss was declared.
    pub probe: Duration,
    /// The whole remote fetch, as the caller waited for it (an eviction
    /// spill that outlasts the request on the wire shows here).
    pub fetch: Duration,
    /// From the fetch returning to the page being installed and usable.
    pub sink: Duration,
}

impl TieredCache {
    /// Build a cache holding at most `mem_capacity` pages in memory, spilling
    /// to `rbpex` when present, missing to `source`. Sampled misses close
    /// their `getpage` span tree in `spans`.
    // soclint-allow: hot-path one-time construction
    pub fn new(
        mem_capacity: usize,
        rbpex: Option<Arc<Rbpex>>,
        source: Arc<dyn PageSource>,
        wal_flush: WalFlushHook,
        on_evict: EvictionListener,
        spans: (Arc<SpanRing>, NodeId),
    ) -> TieredCache {
        assert!(mem_capacity > 0, "cache needs at least one frame");
        TieredCache {
            mem_capacity,
            reserve: 0,
            mem: Mutex::with_rank(
                MemTier { map: HashMap::new(), clock: VecDeque::new(), reserved: 0 },
                socrates_common::lock_rank::STORAGE_CACHE_MEM,
                "cache.mem",
            ),
            rbpex,
            source,
            sched: IoScheduler::default(),
            wal_flush,
            on_evict,
            stats: CacheStats::default(),
            read_stages: StageHists::default(),
            spans,
        }
    }

    /// Build a cache whose [`IoScheduler`] runs its background thread over
    /// `source` (which must speak ranges): prefetched pages are installed
    /// back into the returned cache, and up to `FREE_RESERVE` frames are
    /// kept free.
    // soclint-allow: hot-path one-time construction wiring, not the serve path
    pub fn with_scheduler(
        mem_capacity: usize,
        rbpex: Option<Arc<Rbpex>>,
        source: Arc<dyn RangedPageSource>,
        wal_flush: WalFlushHook,
        on_evict: EvictionListener,
        spans: (Arc<SpanRing>, NodeId),
    ) -> Arc<TieredCache> {
        Arc::new_cyclic(|sink| {
            let mut cache = TieredCache::new(
                mem_capacity,
                rbpex,
                Arc::clone(&source) as Arc<dyn PageSource>,
                wal_flush,
                on_evict,
                spans,
            );
            cache.reserve = (mem_capacity / 8).min(FREE_RESERVE);
            cache.sched = IoScheduler::start(source, sink.clone());
            cache
        })
    }

    /// Convenience constructor with no-op hooks and disarmed tracing
    /// (tests).
    pub fn with_defaults(
        mem_capacity: usize,
        rbpex: Option<Arc<Rbpex>>,
        source: Arc<dyn PageSource>,
    ) -> TieredCache {
        TieredCache::new(
            mem_capacity,
            rbpex,
            source,
            Arc::new(|_| {}),
            Arc::new(|_, _| {}),
            (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
        )
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Per-stage latency histograms of this node's remote misses.
    pub fn read_stages(&self) -> &StageHists<ReadStage> {
        &self.read_stages
    }

    /// The RBPEX tier, if any.
    pub fn rbpex(&self) -> Option<&Arc<Rbpex>> {
        self.rbpex.as_ref()
    }

    /// The I/O scheduler.
    pub fn scheduler(&self) -> &IoScheduler {
        &self.sched
    }

    /// Fetch a page from the remote source on the calling thread
    /// (single-flight with every other miss on this node), with the fetch's
    /// latency attribution and the memory [`Frame`] held for it. Does not
    /// install the page or account the miss — callers use
    /// [`TieredCache::get`], or install the result with [`Frame::install`]
    /// and report it with [`TieredCache::record_miss`].
    // soclint-allow: hot-path-transitive the miss path reads the clock by
    // design — latency attribution of the remote fetch is part of its job,
    // and the fetch itself is already microsecond-scale I/O
    pub fn fetch_remote(&self, id: PageId, min_lsn: Lsn) -> Result<(Page, FetchMeta, Frame<'_>)> {
        let frame = self.make_room()?;
        let (page, meta) = self.sched.fetch(&*self.source, id, min_lsn)?;
        Ok((page, meta, frame))
    }

    /// Post a read-ahead hint for `count` pages starting at `first`
    /// (dropped without the background thread). Already-resident pages are
    /// filtered out (contiguous non-resident sub-runs are hinted separately
    /// so they still travel as range reads).
    pub fn prefetch(&self, first: PageId, count: u32, min_lsn: Lsn) {
        let sched = &self.sched;
        let mut run_start: Option<u64> = None;
        for raw in first.raw()..first.raw() + count as u64 {
            if self.resident(PageId::new(raw)) {
                if let Some(start) = run_start.take() {
                    sched.prefetch(PageId::new(start), (raw - start) as u32, min_lsn);
                }
            } else if run_start.is_none() {
                run_start = Some(raw);
            }
        }
        if let Some(start) = run_start {
            sched.prefetch(
                PageId::new(start),
                (first.raw() + count as u64 - start) as u32,
                min_lsn,
            );
        }
    }

    /// Install a page fetched by a background prefetch. An existing
    /// resident entry always wins (it may carry newer local writes).
    pub fn install_prefetched(&self, page: Page) -> Result<PageRef> {
        self.stats.prefetch_installs.incr();
        self.install(page)
    }

    /// Whether `id` is resident in memory (not merely on SSD).
    pub fn in_memory(&self, id: PageId) -> bool {
        self.mem.lock().map.contains_key(&id)
    }

    /// Whether `id` is resident anywhere on this node.
    pub fn resident(&self, id: PageId) -> bool {
        self.in_memory(id) || self.rbpex.as_ref().is_some_and(|r| r.contains(id))
    }

    /// Get `id`, fetching from lower tiers as needed, and report which
    /// tier served the read (callers use it for per-page-class hit
    /// accounting). `min_lsn` is evaluated only when a remote fetch is
    /// required (the evicted-LSN lookup). Every remote miss is timed stage
    /// by stage (see [`TieredCache::record_miss`]).
    // soclint-allow: hot-path one clock read per lookup starts the probe stage; the rest sit on the remote-miss path
    pub fn get(&self, id: PageId, min_lsn: impl FnOnce() -> Lsn) -> Result<(PageRef, CacheTier)> {
        let probe_t0 = Instant::now();
        if let Some(p) = self.mem_lookup(id) {
            self.stats.mem_hits.incr();
            return Ok((p, CacheTier::Memory));
        }
        if let Some(rbpex) = &self.rbpex {
            if let Some(page) = rbpex.get(id)? {
                self.stats.ssd_hits.incr();
                return Ok((self.install(page)?, CacheTier::Ssd));
            }
        }
        let lsn = min_lsn();
        let probe = probe_t0.elapsed();
        let fetch_t0 = Instant::now();
        let (page, meta, frame) = self.fetch_remote(id, lsn)?;
        let fetch = fetch_t0.elapsed();
        let sink_t0 = Instant::now();
        let page_ref = frame.install(page);
        self.record_miss(id, MissTiming { probe, fetch, sink: sink_t0.elapsed() }, meta);
        Ok((page_ref, CacheTier::Remote))
    }

    /// Account one completed remote miss: count it, feed the five
    /// read-stage histograms, and — when the source sampled it — close its
    /// `getpage` root span (`arg` = page id) with the three cache-side
    /// stage children (`rbio.net` and `ps.serve` were recorded by the
    /// source and the server under the same root).
    pub fn record_miss(&self, id: PageId, t: MissTiming, mut meta: FetchMeta) {
        self.stats.fetches.incr();
        let fetch_ns = t.fetch.as_nanos() as u64;
        if meta.net_ns == 0 {
            // The source could not attribute the round trip; charge the
            // unaccounted remainder of the fetch to the network stage.
            meta.net_ns = fetch_ns.saturating_sub(meta.queue_ns + meta.serve_ns);
        }
        let (stages, ns) = (&self.read_stages, Duration::from_nanos);
        stages.record(ReadStage::CacheProbe, t.probe);
        stages.record(ReadStage::SchedQueue, ns(meta.queue_ns));
        stages.record(ReadStage::NetRbio, ns(meta.net_ns));
        stages.record(ReadStage::ServerServe, ns(meta.serve_ns));
        stages.record(ReadStage::Sink, t.sink);
        if !meta.root.sampled() {
            return;
        }
        let (ring, node) = &self.spans;
        let (probe_ns, sink_ns) = (t.probe.as_nanos() as u64, t.sink.as_nanos() as u64);
        let dur_ns = probe_ns + fetch_ns + sink_ns;
        let start_ns = ring.now_ns().saturating_sub(dur_ns);
        let span = |span_id, parent_id, kind, start_ns, dur_ns, arg| SpanEvent {
            trace_id: meta.root.trace_id,
            span_id,
            parent_id,
            kind,
            node: *node,
            start_ns,
            dur_ns,
            arg,
        };
        let fetch_start = start_ns + probe_ns;
        let coalesce = pack_coalesce(meta.range_width, meta.range_fallback);
        for (kind, start_ns, dur_ns, arg) in [
            (SpanKind::GetPageProbe, start_ns, probe_ns, 0),
            (SpanKind::GetPageQueue, fetch_start, meta.queue_ns, coalesce),
            (SpanKind::GetPageSink, fetch_start + fetch_ns, sink_ns, 0),
        ] {
            ring.record(span(ring.next_span_id(), meta.root.span_id, kind, start_ns, dur_ns, arg));
        }
        ring.record(span(meta.root.span_id, 0, SpanKind::GetPage, start_ns, dur_ns, id.raw()));
    }

    /// Get `id` only if it is already resident on this node (no remote
    /// fetch). Used by secondaries' apply loop, which ignores log records
    /// for non-cached pages.
    pub fn get_if_resident(&self, id: PageId) -> Result<Option<PageRef>> {
        if let Some(p) = self.mem_lookup(id) {
            self.stats.mem_hits.incr();
            return Ok(Some(p));
        }
        if let Some(rbpex) = &self.rbpex {
            if let Some(page) = rbpex.get(id)? {
                self.stats.ssd_hits.incr();
                return Ok(Some(self.install(page)?));
            }
        }
        Ok(None)
    }

    /// Install a page created by this node (allocation) or received out of
    /// band. If the page is already resident in memory the existing entry
    /// wins and is returned.
    pub fn install(&self, page: Page) -> Result<PageRef> {
        let id = page.page_id();
        let mut mem = self.room(|mem| mem.map.contains_key(&id))?;
        let page_ref = admit(&mut mem, page);
        self.unlock_taken(mem);
        Ok(page_ref)
    }

    /// Drop `id` from all local tiers without spilling (used when a page is
    /// freed).
    pub fn discard(&self, id: PageId) -> Result<()> {
        let mut mem = self.mem.lock();
        mem.map.remove(&id);
        drop(mem);
        if let Some(r) = &self.rbpex {
            r.remove(id)?;
        }
        Ok(())
    }

    /// Push every memory-resident page down to RBPEX (or out of the node).
    /// Simulates memory pressure / clean shutdown of the buffer pool.
    pub fn flush_mem(&self) -> Result<()> {
        loop {
            if self.mem.lock().map.is_empty() {
                return Ok(());
            }
            if !self.evict_one()? {
                return Err(Error::InvalidState("pinned pages prevent flush_mem".into()));
            }
        }
    }

    fn mem_lookup(&self, id: PageId) -> Option<PageRef> {
        let mut mem = self.mem.lock();
        mem.map.get_mut(&id).map(|e| {
            e.referenced = true;
            Arc::clone(&e.page)
        })
    }

    /// Evict until a frame is free beyond every held reservation and hold
    /// it for one miss's page.
    fn make_room(&self) -> Result<Frame<'_>> {
        let mut mem = self.room(|_| false)?;
        mem.reserved += 1;
        self.unlock_taken(mem);
        Ok(Frame { cache: self })
    }

    /// Unlock the memory tier after taking a frame from it, and wake the
    /// background thread if that left fewer than the reserve free.
    fn unlock_taken(&self, mem: MutexGuard<'_, MemTier>) {
        let short = self.short(&mem);
        drop(mem);
        if short {
            self.sched.clean();
        }
    }

    /// Whether fewer than the reserve of frames are free.
    fn short(&self, mem: &MemTier) -> bool {
        self.reserve > 0 && mem.map.len() + mem.reserved + self.reserve > self.mem_capacity
    }

    /// One step of the background thread's lazy writer: evict a page if
    /// fewer than the reserve of frames are free. Returns whether it did.
    pub(crate) fn clean(&self) -> bool {
        if !self.short(&self.mem.lock()) {
            return false;
        }
        matches!(self.evict_one(), Ok(true))
    }

    /// Evict until the memory tier has a frame free beyond every held
    /// reservation, or `done` says none is needed, and return it locked.
    /// With everything pinned it is returned full: the caller admits over
    /// capacity rather than fail.
    fn room(&self, done: impl Fn(&MemTier) -> bool) -> Result<MutexGuard<'_, MemTier>> {
        loop {
            let mem = self.mem.lock();
            if done(&mem) || mem.map.len() + mem.reserved < self.mem_capacity {
                return Ok(mem);
            }
            drop(mem);
            if !self.evict_one()? {
                return Ok(self.mem.lock());
            }
        }
    }

    /// Evict one unpinned page from memory; returns false if none exists.
    ///
    /// The victim is chosen under `mem` and spilled with no cache lock
    /// held, so it stays resident and readable until it is in the next
    /// tier. It is removed only if nobody referenced or took it meanwhile;
    /// otherwise it stays and the next victim is tried.
    fn evict_one(&self) -> Result<bool> {
        for _ in 0..SPILL_TRIES {
            let Some((id, page, snapshot)) = self.pick_victim() else { return Ok(false) };
            if let Err(e) = self.spill(&snapshot) {
                self.mem.lock().clock.push_back(id);
                return Err(e);
            }
            let mut mem = self.mem.lock();
            match mem.map.get(&id) {
                Some(e) if Arc::ptr_eq(&e.page, &page) => {
                    // Two references: the map's and this eviction's pin.
                    if !e.referenced && Arc::strong_count(&page) == 2 {
                        mem.map.remove(&id);
                        if self.rbpex.is_none() {
                            self.stats.node_evictions.incr();
                        }
                        return Ok(true);
                    }
                    mem.clock.push_back(id);
                }
                _ => {
                    // Discarded during the spill: drop the copy just written.
                    drop(mem);
                    if let Some(rbpex) = &self.rbpex {
                        rbpex.remove(id)?;
                    }
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Pop the clock's next unreferenced page nobody holds, pin it (the
    /// cloned `Arc`) and snapshot it. The snapshot is taken here because
    /// nobody can hold the page's latch yet, so it never waits on one.
    fn pick_victim(&self) -> Option<(PageId, PageRef, Page)> {
        let mut guard = self.mem.lock();
        let mem = &mut *guard;
        for _ in 0..2 * mem.clock.len() + 2 {
            let id = mem.clock.pop_front()?;
            let Some(entry) = mem.map.get_mut(&id) else { continue }; // stale
            if entry.referenced {
                entry.referenced = false;
            } else if Arc::strong_count(&entry.page) == 1 {
                let snapshot = entry.page.read().clone();
                return Some((id, Arc::clone(&entry.page), snapshot));
            }
            mem.clock.push_back(id);
        }
        None
    }

    /// Write an evicted page to the next tier and report what left the
    /// node: with RBPEX its own victim, noted before it leaves RBPEX's
    /// directory and flushed after; without RBPEX the page itself.
    // soclint-allow: hot-path-transitive a spill is a device write; what it
    // reaches takes rbpex.dir (never across the write) and allocates only
    // to compact RBPEX's journal or to report a broken directory
    fn spill(&self, page: &Page) -> Result<()> {
        match &self.rbpex {
            Some(rbpex) => {
                if let Some((_, vlsn)) = rbpex.put_noting(page, &*self.on_evict)? {
                    (self.wal_flush)(vlsn);
                    self.stats.node_evictions.incr();
                }
            }
            None => {
                (self.wal_flush)(page.page_lsn());
                (self.on_evict)(page.page_id(), page.page_lsn());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fcb::{Fcb, MemFcb};
    use crate::page::PageType;
    use parking_lot::{Condvar, Mutex as PlMutex};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// A test source serving pages from a map and counting fetches.
    struct MapSource {
        pages: PlMutex<HashMap<PageId, Page>>,
        min_lsns_seen: PlMutex<Vec<(PageId, Lsn)>>,
    }

    impl MapSource {
        fn new(ids: impl Iterator<Item = u64>) -> Arc<MapSource> {
            let mut pages = HashMap::new();
            for i in ids {
                let mut p = Page::new(PageId::new(i), PageType::BTreeLeaf);
                p.body_mut()[0] = i as u8;
                p.set_page_lsn(Lsn::new(i));
                pages.insert(PageId::new(i), p);
            }
            Arc::new(MapSource { pages: PlMutex::new(pages), min_lsns_seen: PlMutex::new(vec![]) })
        }
    }

    impl PageSource for MapSource {
        fn fetch_page(&self, id: PageId, min_lsn: Lsn) -> Result<Page> {
            self.min_lsns_seen.lock().push((id, min_lsn));
            self.pages.lock().get(&id).cloned().ok_or_else(|| Error::NotFound(format!("{id}")))
        }
    }

    fn rbpex(cap: usize) -> Arc<Rbpex> {
        rbpex_on(cap, Arc::new(MemFcb::new("ssd")))
    }

    fn rbpex_on(cap: usize, device: Arc<dyn Fcb>) -> Arc<Rbpex> {
        Arc::new(Rbpex::create(device, Arc::new(MemFcb::new("meta")), cap).unwrap())
    }

    /// A test gate: while held, every `pass` blocks (already counted) until
    /// the test releases it. Tests order their steps by what has entered it,
    /// never by timing.
    #[derive(Default)]
    pub(crate) struct Gate {
        /// (held, passes entered)
        state: PlMutex<(bool, u64)>,
        cv: Condvar,
    }

    impl Gate {
        pub(crate) fn hold(&self) {
            self.state.lock().0 = true;
        }

        pub(crate) fn release(&self) {
            self.state.lock().0 = false;
            self.cv.notify_all();
        }

        pub(crate) fn pass(&self) {
            let mut s = self.state.lock();
            s.1 += 1;
            self.cv.notify_all();
            while s.0 {
                self.cv.wait(&mut s);
            }
        }

        pub(crate) fn entered(&self) -> u64 {
            self.state.lock().1
        }

        /// Whether `n` passes have entered within 5 s (a regression fails
        /// instead of hanging).
        pub(crate) fn reached(&self, n: u64) -> bool {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut s = self.state.lock();
            while s.1 < n {
                let now = Instant::now();
                if now >= deadline {
                    return false;
                }
                self.cv.wait_for(&mut s, deadline - now);
            }
            true
        }
    }

    /// An RBPEX device whose every write (a spilled page) passes a gate.
    struct GatedDevice {
        inner: MemFcb,
        gate: Arc<Gate>,
    }

    fn gated_device(gate: &Arc<Gate>) -> Arc<dyn Fcb> {
        Arc::new(GatedDevice { inner: MemFcb::new("ssd"), gate: Arc::clone(gate) })
    }

    impl Fcb for GatedDevice {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.gate.pass();
            self.inner.write_at(offset, data)
        }
        fn len(&self) -> Result<u64> {
            self.inner.len()
        }
        fn flush(&self) -> Result<()> {
            Ok(())
        }
        fn name(&self) -> &str {
            "gated-ssd"
        }
    }

    /// A ranged source over pages 0..100 (a [`MapSource`]) that runs
    /// `before` on entry to every page fetch, a range's once per page.
    pub(crate) struct HookedSource {
        inner: Arc<MapSource>,
        before: Box<dyn Fn(PageId) + Send + Sync>,
    }

    impl HookedSource {
        pub(crate) fn new(before: impl Fn(PageId) + Send + Sync + 'static) -> Arc<HookedSource> {
            Arc::new(HookedSource { inner: MapSource::new(0..100), before: Box::new(before) })
        }
    }

    impl PageSource for HookedSource {
        fn fetch_page(&self, id: PageId, min_lsn: Lsn) -> Result<Page> {
            (self.before)(id);
            self.inner.fetch_page(id, min_lsn)
        }
    }

    impl RangedPageSource for HookedSource {
        fn fetch_page_range(&self, first: PageId, count: u32, min_lsn: Lsn) -> Result<Vec<Page>> {
            (first.raw()..first.raw() + count as u64)
                .map(|raw| self.fetch_page(PageId::new(raw), min_lsn))
                .collect()
        }
    }

    /// Poll until `cond` holds: tests order their steps by observed state
    /// (5 s cap, so a regression fails instead of hanging).
    pub(crate) fn until(what: &str, cond: impl Fn() -> bool) {
        assert!(eventually(cond), "timed out waiting for {what}");
    }

    /// Whether `cond` holds within 5 s of polling — for a test that must
    /// release a gate before it asserts.
    pub(crate) fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Run `f` on its own scoped thread and wait up to 5 s for its result;
    /// `None` means it is still blocked (a regression fails, not hangs).
    pub(crate) fn within_5s<'scope, T: Send + 'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        f: impl FnOnce() -> T + Send + 'scope,
    ) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    fn scheduled(
        mem_capacity: usize,
        rbpex: Arc<Rbpex>,
        src: Arc<HookedSource>,
    ) -> Arc<TieredCache> {
        TieredCache::with_scheduler(
            mem_capacity,
            Some(rbpex),
            src,
            Arc::new(|_| {}),
            Arc::new(|_, _| {}),
            (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
        )
    }

    #[test]
    fn tiered_hits_by_level() {
        let src = MapSource::new(0..100);
        let cache = TieredCache::with_defaults(2, Some(rbpex(4)), src.clone());
        // First read: remote fetch.
        let (p, _) = cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        assert_eq!(p.read().body()[0], 1);
        assert_eq!(cache.stats().fetches.get(), 1);
        drop(p);
        // Second read: memory hit.
        cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        assert_eq!(cache.stats().mem_hits.get(), 1);
        // Fill memory so page 1 spills to SSD.
        cache.get(PageId::new(2), || Lsn::ZERO).unwrap();
        cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
        cache.get(PageId::new(4), || Lsn::ZERO).unwrap();
        // Page 1 now (likely) only on SSD; read must be an SSD hit, not a
        // remote fetch.
        let before = cache.stats().fetches.get();
        cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        assert_eq!(cache.stats().fetches.get(), before, "no remote refetch");
        assert!(cache.stats().ssd_hits.get() >= 1);
    }

    #[test]
    fn eviction_listener_and_wal_hook_fire_in_order() {
        let src = MapSource::new(0..100);
        let order: Arc<PlMutex<Vec<String>>> = Arc::new(PlMutex::new(vec![]));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        // No RBPEX: memory evictions leave the node directly.
        let cache = TieredCache::new(
            1,
            None,
            src,
            Arc::new(move |lsn| o1.lock().push(format!("flush:{lsn}"))),
            Arc::new(move |id, lsn| o2.lock().push(format!("evict:{id}@{lsn}"))),
            (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
        );
        cache.get(PageId::new(5), || Lsn::ZERO).unwrap();
        cache.get(PageId::new(6), || Lsn::ZERO).unwrap(); // evicts 5
        let events = order.lock().clone();
        assert_eq!(events, vec!["flush:lsn:5".to_string(), "evict:page:5@lsn:5".to_string()]);
        assert_eq!(cache.stats().node_evictions.get(), 1);
    }

    #[test]
    fn min_lsn_closure_only_called_on_remote_fetch() {
        let src = MapSource::new(0..10);
        let cache = TieredCache::with_defaults(4, None, src.clone());
        cache.get(PageId::new(1), || Lsn::new(77)).unwrap();
        assert_eq!(src.min_lsns_seen.lock().as_slice(), &[(PageId::new(1), Lsn::new(77))]);
        // Memory hit: closure must not run.
        cache.get(PageId::new(1), || panic!("min_lsn evaluated on a cache hit")).unwrap();
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let src = MapSource::new(0..10);
        let cache = TieredCache::with_defaults(1, None, src);
        let (pinned, _) = cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        // Admitting another page cannot evict the pinned one; cache admits
        // over capacity instead.
        let (other, _) = cache.get(PageId::new(2), || Lsn::ZERO).unwrap();
        assert_eq!(pinned.read().page_id(), PageId::new(1));
        assert_eq!(other.read().page_id(), PageId::new(2));
        assert!(cache.in_memory(PageId::new(1)));
    }

    #[test]
    fn writes_via_pageref_are_visible_to_later_readers() {
        let src = MapSource::new(0..10);
        let cache = TieredCache::with_defaults(4, None, src);
        {
            let (p, _) = cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
            let mut w = p.write();
            w.body_mut()[100] = 0xEE;
            w.set_page_lsn(Lsn::new(500));
        }
        let (p, _) = cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
        assert_eq!(p.read().body()[100], 0xEE);
        assert_eq!(p.read().page_lsn(), Lsn::new(500));
    }

    #[test]
    fn get_if_resident_does_not_fetch() {
        let src = MapSource::new(0..10);
        let cache = TieredCache::with_defaults(4, Some(rbpex(4)), src.clone());
        assert!(cache.get_if_resident(PageId::new(1)).unwrap().is_none());
        assert_eq!(cache.stats().fetches.get(), 0);
        cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        assert!(cache.get_if_resident(PageId::new(1)).unwrap().is_some());
    }

    #[test]
    fn flush_mem_spills_everything_to_ssd() {
        let src = MapSource::new(0..10);
        let r = rbpex(10);
        let cache = TieredCache::with_defaults(4, Some(Arc::clone(&r)), src);
        for i in 0..4 {
            cache.get(PageId::new(i), || Lsn::ZERO).unwrap();
        }
        cache.flush_mem().unwrap();
        for i in 0..4 {
            assert!(!cache.in_memory(PageId::new(i)));
            assert!(r.contains(PageId::new(i)), "page {i} must be on SSD");
        }
        // hit rate accounting: 4 fetches so far, now 4 SSD hits.
        for i in 0..4 {
            cache.get(PageId::new(i), || Lsn::ZERO).unwrap();
        }
        assert!((cache.stats().local_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn every_miss_feeds_the_stage_histograms_and_a_sampled_one_its_span_tree() {
        /// A source that mints a trace ctx per fetch, the way the fabric's
        /// remote source does, and stamps it into the meta.
        struct TracingSource {
            inner: Arc<MapSource>,
            ring: Arc<SpanRing>,
        }
        impl PageSource for TracingSource {
            fn fetch_page(&self, id: PageId, min_lsn: Lsn) -> Result<Page> {
                self.inner.fetch_page(id, min_lsn)
            }
            fn fetch_page_traced(&self, id: PageId, min_lsn: Lsn) -> Result<(Page, FetchMeta)> {
                let page = self.inner.fetch_page(id, min_lsn)?;
                let root = self.ring.try_sample().unwrap_or_default();
                Ok((page, FetchMeta { range_width: 1, root, ..FetchMeta::default() }))
            }
        }

        // Sample every other miss.
        let ring = Arc::new(SpanRing::new(16, 2));
        let src = Arc::new(TracingSource { inner: MapSource::new(0..10), ring: Arc::clone(&ring) });
        let cache = TieredCache::new(
            4,
            None,
            src,
            Arc::new(|_| {}),
            Arc::new(|_, _| {}),
            (Arc::clone(&ring), NodeId::secondary(1)),
        );
        cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
        let spans = ring.spans();
        assert_eq!(spans.len(), 4, "root + three cache-side stage children");
        let root = spans.last().unwrap();
        assert_eq!(root.kind, SpanKind::GetPage);
        assert_eq!(root.parent_id, 0, "getpage is the trace root");
        assert_eq!(root.trace_id, root.span_id);
        assert_eq!(root.node, NodeId::secondary(1));
        assert_eq!(root.arg, 3, "the root carries the page id");
        let kinds: Vec<SpanKind> = spans[..3].iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::GetPageProbe, SpanKind::GetPageQueue, SpanKind::GetPageSink]);
        for child in &spans[..3] {
            assert_eq!(child.parent_id, root.span_id);
            assert!(child.start_ns >= root.start_ns);
            assert!(child.start_ns + child.dur_ns <= root.start_ns + root.dur_ns + 4);
        }
        assert_eq!(spans[1].arg, pack_coalesce(1, false), "sched_queue carries the membership");

        // A memory hit records nothing; an unsampled miss only the histograms.
        cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
        cache.get(PageId::new(4), || Lsn::ZERO).unwrap();
        assert_eq!(ring.spans().len(), 4);
        assert_eq!(cache.stats().fetches.get(), 2);
        for stage in [ReadStage::CacheProbe, ReadStage::NetRbio, ReadStage::Sink] {
            assert_eq!(cache.read_stages().hist(stage).count(), 2, "{stage:?}");
        }
    }

    #[test]
    fn discard_removes_all_tiers() {
        let src = MapSource::new(0..10);
        let r = rbpex(10);
        let cache = TieredCache::with_defaults(2, Some(Arc::clone(&r)), src);
        cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        cache.flush_mem().unwrap();
        assert!(r.contains(PageId::new(1)));
        cache.discard(PageId::new(1)).unwrap();
        assert!(!cache.resident(PageId::new(1)));
    }

    /// Fill a 16-frame cache whose background thread keeps 2 frames free,
    /// and give it up to 5 s to settle there (the tests then fail on what
    /// a cache without that reserve does).
    fn full_16_frame_cache(rbpex: Arc<Rbpex>, src: Arc<HookedSource>) -> Arc<TieredCache> {
        let cache = scheduled(16, rbpex, src);
        for i in 0..16 {
            cache.get(PageId::new(i), || Lsn::ZERO).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while cache.mem.lock().map.len() > 14 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        cache
    }

    #[test]
    fn a_demand_miss_is_fetched_on_the_readers_thread() {
        let fetched_on = Arc::new(PlMutex::new(Vec::new()));
        let on = Arc::clone(&fetched_on);
        let src = HookedSource::new(move |_| on.lock().push(std::thread::current().id()));
        let cache = scheduled(4, rbpex(8), src);
        cache.get(PageId::new(2), || Lsn::ZERO).unwrap();
        assert_eq!(*fetched_on.lock(), [std::thread::current().id()]);
    }

    #[test]
    fn a_miss_does_not_wait_for_a_spill_when_a_frame_is_free() {
        // The miss takes a frame the background thread freed ahead of it
        // and returns; the spill that tops the reserve up again parks in the
        // held device on the background thread, not on the reader.
        let device = Arc::new(Gate::default());
        let src = HookedSource::new(|_| {});
        let cache = full_16_frame_cache(rbpex_on(64, gated_device(&device)), src);
        let spills = device.entered();
        device.hold();
        std::thread::scope(|scope| {
            let miss = within_5s(scope, || cache.get(PageId::new(16), || Lsn::ZERO).is_ok());
            let parked = device.reached(spills + 1);
            device.release();
            assert_eq!(miss, Some(true), "the miss waited for a spill");
            assert!(parked, "taking a reserved frame set the background thread spilling");
        });
    }

    #[test]
    fn the_background_thread_may_drop_the_last_cache_reference() {
        // The thread holds the cache while it spills. Dropping every other
        // reference meanwhile leaves the cache's drop, and so the thread's
        // own stop, to the thread: it must exit, not try to join itself.
        static PANICS: AtomicUsize = AtomicUsize::new(0);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() == Some("io-sched-0") {
                // ordering: relaxed — read after the thread exits
                PANICS.fetch_add(1, Ordering::Relaxed);
            }
            hook(info);
        }));
        let device = Arc::new(Gate::default());
        let src = HookedSource::new(|_| {});
        let thread_alive = Arc::downgrade(&src);
        let cache = full_16_frame_cache(rbpex_on(64, gated_device(&device)), src);
        let spills = device.entered();
        device.hold();
        cache.get(PageId::new(16), || Lsn::ZERO).unwrap();
        assert!(device.reached(spills + 1), "the background thread parks mid-spill");
        drop(cache);
        device.release();
        // The thread's closure owns the last reference to the source.
        until("the background thread to exit", || thread_alive.upgrade().is_none());
        // ordering: relaxed — the thread has exited
        assert_eq!(PANICS.load(Ordering::Relaxed), 0, "the background thread panicked");
    }

    #[test]
    fn a_spill_holds_no_cache_lock() {
        // While one miss's spill is parked in the device, another thread's
        // memory hit still returns.
        let device = Arc::new(Gate::default());
        let cache = TieredCache::with_defaults(
            2,
            Some(rbpex_on(4, gated_device(&device))),
            MapSource::new(0..10),
        );
        cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        cache.get(PageId::new(2), || Lsn::ZERO).unwrap();
        device.hold();
        std::thread::scope(|scope| {
            let evictor = scope.spawn(|| cache.get(PageId::new(3), || Lsn::ZERO).map(|_| ()));
            let parked = device.reached(1);
            let hit =
                within_5s(scope, || cache.get(PageId::new(2), || panic!("resident")).unwrap().1);
            device.release();
            assert!(parked, "page 1's spill parks in the device");
            assert_eq!(hit, Some(CacheTier::Memory), "a hit waited out another thread's spill");
            evictor.join().unwrap().unwrap();
        });
    }

    #[test]
    fn a_victim_touched_during_its_spill_stays_resident() {
        let device = Arc::new(Gate::default());
        let r = rbpex_on(4, gated_device(&device));
        let cache = TieredCache::with_defaults(2, Some(Arc::clone(&r)), MapSource::new(0..10));
        cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        cache.get(PageId::new(2), || Lsn::ZERO).unwrap();
        device.hold();
        std::thread::scope(|scope| {
            let evictor = scope.spawn(|| cache.get(PageId::new(3), || Lsn::ZERO).map(|_| ()));
            let parked = device.reached(1);
            let hit =
                within_5s(scope, || cache.get(PageId::new(1), || panic!("resident")).unwrap().1);
            device.release();
            assert!(parked, "the clock's victim, page 1, is being spilled");
            assert_eq!(hit, Some(CacheTier::Memory), "the victim is served from memory mid-spill");
            evictor.join().unwrap().unwrap();
        });
        // The touched victim stayed; the next one (page 2) left instead.
        assert!(cache.in_memory(PageId::new(1)) && cache.in_memory(PageId::new(3)));
        assert!(!cache.in_memory(PageId::new(2)) && r.contains(PageId::new(2)));
        let (_, tier) = cache.get(PageId::new(1), || panic!("no refetch")).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(cache.stats().fetches.get(), 3, "pages 1, 2 and 3, each fetched once");
    }

    #[test]
    fn each_in_flight_miss_installs_into_its_reserved_frame() {
        // Two misses on the wire at a full cache each free and hold a frame,
        // so neither install spills: the device sees exactly two writes.
        let source = Arc::new(Gate::default());
        let device = Arc::new(Gate::default());
        let s = Arc::clone(&source);
        let src = HookedSource::new(move |id| {
            if id.raw() >= 4 {
                s.pass();
            }
        });
        let cache = scheduled(3, rbpex_on(8, gated_device(&device)), src);
        for i in 1..=3 {
            cache.get(PageId::new(i), || Lsn::ZERO).unwrap();
        }
        source.hold();
        std::thread::scope(|scope| {
            let misses: Vec<_> = (4..=5)
                .map(|i| {
                    let cache = &cache;
                    scope.spawn(move || cache.get(PageId::new(i), || Lsn::ZERO).map(|_| ()))
                })
                .collect();
            // The source is held, so both fetches are still on the wire
            // (possibly as one range call) while their frames are freed.
            let deadline = Instant::now() + Duration::from_secs(5);
            while cache.mem.lock().reserved < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let spills = device.entered();
            let reserved = cache.mem.lock().reserved;
            source.release();
            assert_eq!((reserved, spills), (2, 2), "one spill per reserved frame");
            for m in misses {
                m.join().unwrap().unwrap();
            }
        });
        assert_eq!(device.entered(), 2, "no install spilled");
        assert!(cache.in_memory(PageId::new(4)) && cache.in_memory(PageId::new(5)));
        let mem = cache.mem.lock();
        assert_eq!((mem.map.len(), mem.reserved), (3, 0));
    }

    #[test]
    fn an_rbpex_victim_is_noted_before_it_leaves_the_directory() {
        // One memory frame over one RBPEX frame. Evicting page 2 pushes page
        // 1 out of RBPEX; while that eviction waits in the WAL flush, a
        // reader of page 1 misses both tiers and must already find its
        // eviction LSN, or GetPage@LSN may serve an older version.
        let src = MapSource::new(0..10);
        let flush = Arc::new(Gate::default());
        let evicted: Arc<PlMutex<HashMap<PageId, Lsn>>> = Arc::default();
        let (f, e) = (Arc::clone(&flush), Arc::clone(&evicted));
        let cache = TieredCache::new(
            1,
            Some(rbpex(1)),
            src.clone(),
            Arc::new(move |_| f.pass()),
            Arc::new(move |id, lsn| {
                e.lock().insert(id, lsn);
            }),
            (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
        );
        cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        cache.get(PageId::new(2), || Lsn::ZERO).unwrap(); // page 1 → RBPEX
        flush.hold();
        let (cache, evicted) = (&cache, &evicted);
        std::thread::scope(|scope| {
            let evictor = scope.spawn(|| cache.get(PageId::new(3), || Lsn::ZERO).map(|_| ()));
            let parked = flush.reached(1);
            let floor = || evicted.lock().get(&PageId::new(1)).copied().unwrap_or(Lsn::ZERO);
            let read = within_5s(scope, move || cache.get(PageId::new(1), floor).unwrap().1);
            flush.release();
            assert!(parked, "page 1's eviction waits in the WAL flush");
            assert_eq!(read, Some(CacheTier::Remote));
            evictor.join().unwrap().unwrap();
        });
        let seen = src.min_lsns_seen.lock().clone();
        let page_1 = seen.iter().rfind(|(id, _)| *id == PageId::new(1));
        assert_eq!(page_1, Some(&(PageId::new(1), Lsn::new(1))), "fetched at {seen:?}");
    }
}
