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
//! A scan's read-ahead reads the RBPEX-resident pages it names with
//! deadline reads ([`TieredCache::read_local`]), waits once for the last,
//! and installs each only if RBPEX still maps it at the PageLSN read
//! ([`TieredCache::install_local`]). A page a read-ahead installed carries
//! the tier it came from, and its first read counts against that tier.
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
use crate::rbpex::{Put, Rbpex};
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

/// A [`PageSource`] that can also serve a list of pages in one call (the
/// compute side of the `GetPages` protocol arm), which batches use.
pub trait RangedPageSource: PageSource {
    /// Fetch the pages `ids`, all at an LSN ≥ `min_lsn`. Implementations
    /// may split the list internally (e.g. by partition) but must return
    /// exactly one page per id, in order.
    fn fetch_pages(&self, ids: &[PageId], min_lsn: Lsn) -> Result<Vec<Page>>;

    /// [`RangedPageSource::fetch_pages`], plus whatever latency attribution
    /// the source can provide (one [`FetchMeta`] for the whole list; every
    /// member shares the wire cost).
    fn fetch_pages_traced(&self, ids: &[PageId], min_lsn: Lsn) -> Result<(Vec<Page>, FetchMeta)> {
        let meta = FetchMeta { range_width: ids.len() as u32, ..FetchMeta::default() };
        self.fetch_pages(ids, min_lsn).map(|p| (p, meta))
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
    /// Pages installed by the I/O scheduler's background prefetch (the
    /// first read of each counts as the remote fetch it was).
    pub prefetch_installs: Counter,
    /// Memory evictions a reader ran on its own thread because no frame
    /// was free, rather than the lazy writer ahead of it.
    pub inline_evictions: Counter,
    /// Memory evictions whose page RBPEX already held at its PageLSN, so
    /// the spill wrote nothing.
    pub clean_spills: Counter,
}

impl CacheStats {
    /// Forget all counts (benchmarks reset after their load/warmup phase).
    pub fn reset(&self) {
        self.mem_hits.reset();
        self.ssd_hits.reset();
        self.fetches.reset();
        self.node_evictions.reset();
        self.prefetch_installs.reset();
        self.inline_evictions.reset();
        self.clean_spills.reset();
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
    /// Where a read-ahead brought the page from, until its first read
    /// reports it (`None` for every other install).
    ahead: Option<CacheTier>,
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

/// Most frames the background thread keeps free, and never more than an
/// eighth of the memory tier, so caches under 8 frames keep none and evict
/// on the reader. Two readers' misses, each taking a frame while the
/// writer spills for the last one, drain a reserve of 2 or 3 often enough
/// that a miss still evicts inline; with 4 that is rare (DESIGN.md §4d).
const FREE_RESERVE: usize = 4;

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
    /// the existing entry wins and is returned. A read-ahead passes the
    /// tier the page came from as `ahead`, for its first read to report.
    pub fn install(self, page: Page, ahead: Option<CacheTier>) -> PageRef {
        let cache = self.cache;
        std::mem::forget(self);
        let mut mem = cache.mem.lock();
        mem.reserved -= 1;
        admit(&mut mem, page, ahead)
    }
}

impl Drop for Frame<'_> {
    fn drop(&mut self) {
        self.cache.mem.lock().reserved -= 1;
    }
}

/// Insert `page`, tagged with the tier a read-ahead brought it from,
/// unless it is already resident, in which case the existing entry wins.
fn admit(mem: &mut MemTier, page: Page, ahead: Option<CacheTier>) -> PageRef {
    let id = page.page_id();
    if let Some(e) = mem.map.get_mut(&id) {
        e.referenced = true;
        return Arc::clone(&e.page);
    }
    let page_ref: PageRef = Arc::new(RwLock::new(page));
    mem.map.insert(id, MemEntry { page: Arc::clone(&page_ref), referenced: true, ahead });
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
    stats: Arc<CacheStats>,
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
            stats: Arc::default(),
            read_stages: StageHists::default(),
            spans,
        }
    }

    /// Build a cache whose [`IoScheduler`] sends batches to `source`. With
    /// `background` the scheduler also runs its thread over `source`:
    /// prefetched pages are installed back into the returned cache, and up
    /// to `FREE_RESERVE` frames are kept free.
    // soclint-allow: hot-path one-time construction wiring, not the serve path
    pub fn with_scheduler(
        mem_capacity: usize,
        rbpex: Option<Arc<Rbpex>>,
        source: Arc<dyn RangedPageSource>,
        wal_flush: WalFlushHook,
        on_evict: EvictionListener,
        spans: (Arc<SpanRing>, NodeId),
        background: bool,
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
            cache.sched = if background {
                cache.reserve = (mem_capacity / 8).min(FREE_RESERVE);
                IoScheduler::start(source, sink.clone())
            } else {
                IoScheduler::new(source)
            };
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

    /// Statistics (shared, so the hub can read them).
    pub fn stats(&self) -> &Arc<CacheStats> {
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

    /// Most pages one batch of remote misses may fetch
    /// ([`IoScheduler::fetch_batch`], each into a [`TieredCache::make_room`]
    /// frame): an eighth of the memory tier, so that a batch cannot evict
    /// what it just fetched, and at most the scheduler's cap (0 with no
    /// batch source).
    pub fn max_batch(&self) -> usize {
        (self.mem_capacity / 8).min(self.sched.max_batch())
    }

    /// Post a read-ahead hint for the pages of `ids` not resident on this
    /// node (dropped without the background thread).
    pub fn prefetch(&self, ids: &[PageId], min_lsn: Lsn) {
        self.sched.prefetch(ids.iter().copied().filter(|&id| !self.resident(id)), min_lsn);
    }

    /// Install a page fetched by a background prefetch. An existing
    /// resident entry always wins (it may carry newer local writes).
    pub fn install_prefetched(&self, page: Page) -> Result<PageRef> {
        self.stats.prefetch_installs.incr();
        self.install_on(page, false, Some(CacheTier::Remote))
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
        if let Some(hit) = self.get_if_resident(id)? {
            return Ok(hit);
        }
        let lsn = min_lsn();
        let probe = probe_t0.elapsed();
        let fetch_t0 = Instant::now();
        let (page, meta, frame) = self.fetch_remote(id, lsn)?;
        let fetch = fetch_t0.elapsed();
        let sink_t0 = Instant::now();
        let page_ref = frame.install(page, None);
        self.record_miss(id, MissTiming { probe, fetch, sink: sink_t0.elapsed() }, meta);
        Ok((page_ref, CacheTier::Remote))
    }

    /// Account one completed remote miss: count it and
    /// [`TieredCache::record_fetch`] it.
    pub fn record_miss(&self, id: PageId, t: MissTiming, meta: FetchMeta) {
        self.stats.fetches.incr();
        self.record_fetch(id, t, meta);
    }

    /// Time one completed remote fetch: feed the five read-stage
    /// histograms, and — when the source sampled it — close its `getpage`
    /// root span (`arg` = page id) with the three cache-side stage
    /// children (`rbio.net` and `ps.serve` were recorded by the source and
    /// the server under the same root). A read-ahead's fetch is counted
    /// later, by the page's first read.
    pub fn record_fetch(&self, id: PageId, t: MissTiming, mut meta: FetchMeta) {
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
    /// fetch), with the tier the read counts against: memory, RBPEX, or
    /// — on the first read of a read-ahead's page — the tier the page
    /// came from. Used by secondaries, whose apply loop ignores log
    /// records for non-cached pages.
    pub fn get_if_resident(&self, id: PageId) -> Result<Option<(PageRef, CacheTier)>> {
        let hit = match self.mem_lookup(id) {
            Some(hit) => hit,
            None => {
                let Some(rbpex) = &self.rbpex else { return Ok(None) };
                let Some(page) = rbpex.get(id)? else { return Ok(None) };
                (self.install(page)?, CacheTier::Ssd)
            }
        };
        match hit.1 {
            CacheTier::Memory => self.stats.mem_hits.incr(),
            CacheTier::Ssd => self.stats.ssd_hits.incr(),
            CacheTier::Remote => self.stats.fetches.incr(),
        }
        Ok(Some(hit))
    }

    /// Install a page created by this node (allocation) or received out of
    /// band. If the page is already resident in memory the existing entry
    /// wins and is returned.
    pub fn install(&self, page: Page) -> Result<PageRef> {
        self.install_on(page, true, None)
    }

    /// [`TieredCache::install`] from a reader's thread, or the background
    /// thread's (whose evictions are not counted as inline), tagged for a
    /// read-ahead as `ahead`.
    fn install_on(&self, page: Page, on_reader: bool, ahead: Option<CacheTier>) -> Result<PageRef> {
        let id = page.page_id();
        let mut mem = self.room(|mem| mem.map.contains_key(&id), on_reader)?;
        let page_ref = admit(&mut mem, page, ahead);
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

    /// The memory entry of `id`, and the tier its read counts against:
    /// the one a read-ahead brought it from, on its first read, and memory
    /// after that.
    fn mem_lookup(&self, id: PageId) -> Option<(PageRef, CacheTier)> {
        let mut mem = self.mem.lock();
        mem.map.get_mut(&id).map(|e| {
            e.referenced = true;
            (Arc::clone(&e.page), e.ahead.take().unwrap_or(CacheTier::Memory))
        })
    }

    /// Evict until a frame is free beyond every held reservation and hold
    /// it for one miss's page.
    pub fn make_room(&self) -> Result<Frame<'_>> {
        let mut mem = self.room(|_| false, true)?;
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
    /// Each eviction run `on_reader` is an inline eviction. With
    /// everything pinned it is returned full: the caller admits over
    /// capacity rather than fail.
    fn room(
        &self,
        done: impl Fn(&MemTier) -> bool,
        on_reader: bool,
    ) -> Result<MutexGuard<'_, MemTier>> {
        loop {
            let mem = self.mem.lock();
            if done(&mem) || mem.map.len() + mem.reserved < self.mem_capacity {
                return Ok(mem);
            }
            drop(mem);
            if !self.evict_one()? {
                return Ok(self.mem.lock());
            }
            if on_reader {
                self.stats.inline_evictions.incr();
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
    /// directory and flushed after; without RBPEX the page itself. A page
    /// RBPEX already holds at its PageLSN is not written again.
    // soclint-allow: hot-path-transitive a spill is a device write; what it
    // reaches takes rbpex.dir (never across the write) and allocates only
    // to compact RBPEX's journal or to report a broken directory
    fn spill(&self, page: &Page) -> Result<()> {
        match &self.rbpex {
            Some(rbpex) => match rbpex.put_noting(page, &*self.on_evict)? {
                Put::Clean => self.stats.clean_spills.incr(),
                Put::Written(Some((_, vlsn))) => {
                    (self.wal_flush)(vlsn);
                    self.stats.node_evictions.incr();
                }
                Put::Written(None) => {}
            },
            None => {
                (self.wal_flush)(page.page_lsn());
                (self.on_evict)(page.page_id(), page.page_lsn());
            }
        }
        Ok(())
    }
}

mod ahead;
#[cfg(test)]
pub(crate) mod tests;
