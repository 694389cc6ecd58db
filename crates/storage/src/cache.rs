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

#![doc = "soclint:hot"]

use crate::page::Page;
use crate::rbpex::Rbpex;
use crate::sched::{IoScheduler, IoSchedulerConfig, RangedPageSource};
use parking_lot::{Mutex, RwLock};
use socrates_common::metrics::Counter;
use socrates_common::obs::span::{HedgeOutcome, ReadTrace, ReadTraceRecorder};
use socrates_common::obs::{SpanKind, SpanRing};
use socrates_common::{Error, Lsn, NodeId, PageId, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Per-fetch latency attribution flowing back up the remote-read path,
/// consumed by the read-span recorder. Durations are nanoseconds; zero
/// means "the layer that knows did not fill it in" and the caller falls
/// back to its own wall-clock measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchMeta {
    /// Scheduler queue wait beyond the gather window (backpressure).
    pub queue_ns: u64,
    /// Deliberate gather delay waiting for coalescible neighbours.
    pub gather_ns: u64,
    /// Network round trip minus the server's serve time.
    pub net_ns: u64,
    /// Server-side serve time, stamped on the RBIO response.
    pub serve_ns: u64,
    /// Pages in the dispatched batch (1 = a lone GetPage).
    pub range_width: u32,
    /// The coalesced range failed; this page was re-fetched alone.
    pub range_fallback: bool,
    /// A hedged replica request fired for this fetch.
    pub hedge_fired: bool,
    /// The hedged attempt produced the winning response.
    pub hedge_won: bool,
    /// Causal trace id minted by a sampling remote source (0 = untraced;
    /// the disarmed path only ever copies zeros).
    pub trace_id: u64,
    /// Pre-allocated span id for the `getpage` root span; the source's
    /// own child spans (`rbio.net`, server-side legs) hang off it.
    pub root_span: u64,
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
/// Listener invoked after a page has left the node, with its last PageLSN.
pub type EvictionListener = Arc<dyn Fn(PageId, Lsn) + Send + Sync>;

/// Two-tier (memory + optional RBPEX) page cache over a [`PageSource`].
pub struct TieredCache {
    mem_capacity: usize,
    mem: Mutex<MemTier>,
    rbpex: Option<Arc<Rbpex>>,
    source: Arc<dyn PageSource>,
    /// When present, remote misses are routed through the I/O scheduler
    /// (single-flight, range coalescing, background prefetch) instead of
    /// the one-page blocking `source` path.
    sched: Option<Arc<IoScheduler>>,
    wal_flush: WalFlushHook,
    on_evict: EvictionListener,
    stats: CacheStats,
    /// The read-span recorder misses report into. A disabled recorder
    /// (capacity 0) leaves the miss path untraced — no clock reads, no
    /// allocation — which is the `read_trace_capacity = 0` contract.
    read_trace: Arc<ReadTraceRecorder>,
    /// Cross-tier span ring (`getpage` root spans) plus this node's
    /// identity.
    spans: (Arc<SpanRing>, NodeId),
}

impl TieredCache {
    /// Build a cache holding at most `mem_capacity` pages in memory, spilling
    /// to `rbpex` when present, missing to `source`. Miss-path spans go to
    /// `read_trace`; sampled misses close their `getpage` root in `spans`.
    // soclint-allow: hot-path one-time construction
    pub fn new(
        mem_capacity: usize,
        rbpex: Option<Arc<Rbpex>>,
        source: Arc<dyn PageSource>,
        wal_flush: WalFlushHook,
        on_evict: EvictionListener,
        read_trace: Arc<ReadTraceRecorder>,
        spans: (Arc<SpanRing>, NodeId),
    ) -> TieredCache {
        assert!(mem_capacity > 0, "cache needs at least one frame");
        TieredCache {
            mem_capacity,
            mem: Mutex::with_rank(
                MemTier { map: HashMap::new(), clock: VecDeque::new() },
                socrates_common::lock_rank::STORAGE_CACHE_MEM,
                "cache.mem",
            ),
            rbpex,
            source,
            sched: None,
            wal_flush,
            on_evict,
            stats: CacheStats::default(),
            read_trace,
            spans,
        }
    }

    /// Build a cache whose remote misses go through an [`IoScheduler`]
    /// over `source` (which must speak ranges). The scheduler's prefetch
    /// completions are installed back into the returned cache.
    #[allow(clippy::too_many_arguments)]
    // soclint-allow: hot-path one-time construction wiring, not the serve path
    pub fn with_scheduler(
        mem_capacity: usize,
        rbpex: Option<Arc<Rbpex>>,
        source: Arc<dyn RangedPageSource>,
        wal_flush: WalFlushHook,
        on_evict: EvictionListener,
        read_trace: Arc<ReadTraceRecorder>,
        spans: (Arc<SpanRing>, NodeId),
        sched_config: IoSchedulerConfig,
    ) -> Arc<TieredCache> {
        Arc::new_cyclic(|sink| {
            let mut cache = TieredCache::new(
                mem_capacity,
                rbpex,
                Arc::clone(&source) as Arc<dyn PageSource>,
                wal_flush,
                on_evict,
                read_trace,
                spans,
            );
            cache.sched = Some(IoScheduler::start(source, sched_config, sink.clone()));
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
            Arc::new(ReadTraceRecorder::disabled()),
            (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
        )
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The RBPEX tier, if any.
    pub fn rbpex(&self) -> Option<&Arc<Rbpex>> {
        self.rbpex.as_ref()
    }

    /// The I/O scheduler, if this cache was built with one.
    pub fn scheduler(&self) -> Option<&Arc<IoScheduler>> {
        self.sched.as_ref()
    }

    /// Fetch a page from the remote source, through the scheduler when
    /// present (single-flight with every other miss on this node). Does
    /// not install the page — callers that want it cached use
    /// [`TieredCache::get`] or install the result themselves.
    pub fn fetch_remote(&self, id: PageId, min_lsn: Lsn) -> Result<Page> {
        match &self.sched {
            Some(s) => s.fetch(id, min_lsn),
            None => self.source.fetch_page(id, min_lsn),
        }
    }

    /// [`TieredCache::fetch_remote`], plus the fetch's latency attribution
    /// (the traced miss path).
    // soclint-allow: hot-path-transitive the traced miss path reads the clock
    // by design — latency attribution of the remote fetch is its entire job,
    // and the fetch itself is already microsecond-scale I/O
    pub fn fetch_remote_traced(&self, id: PageId, min_lsn: Lsn) -> Result<(Page, FetchMeta)> {
        match &self.sched {
            Some(s) => s.fetch_traced(id, min_lsn),
            None => self.source.fetch_page_traced(id, min_lsn),
        }
    }

    /// Post a read-ahead hint for `count` pages starting at `first`.
    /// No-op without a scheduler; already-resident pages are filtered out
    /// (contiguous non-resident sub-runs are hinted separately so they
    /// still coalesce into range reads).
    pub fn prefetch(&self, first: PageId, count: u32, min_lsn: Lsn) {
        let Some(sched) = &self.sched else { return };
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

    /// Get `id`, fetching from lower tiers as needed. `min_lsn` is evaluated
    /// only when a remote fetch is required (the evicted-LSN lookup).
    pub fn get(&self, id: PageId, min_lsn: impl FnOnce() -> Lsn) -> Result<PageRef> {
        self.get_traced(id, min_lsn).map(|(p, _)| p)
    }

    /// Like [`TieredCache::get`], also reporting which tier served the
    /// read (callers use this for per-page-class hit accounting).
    ///
    /// When read tracing is on, every remote miss records a complete span
    /// (probe → queue → gather → network → serve → sink) into the node's
    /// [`ReadTraceRecorder`].
    // soclint-allow: hot-path clock reads sit behind the `traced` gate; untraced reads early-return without touching the clock
    pub fn get_traced(
        &self,
        id: PageId,
        min_lsn: impl FnOnce() -> Lsn,
    ) -> Result<(PageRef, CacheTier)> {
        let (ring, node) = &self.spans;
        let traced = self.read_trace.is_enabled() || ring.is_enabled();
        let probe_t0 = if traced { Some(Instant::now()) } else { None };
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
        let Some(probe_t0) = probe_t0 else {
            let page = self.fetch_remote(id, lsn)?;
            self.stats.fetches.incr();
            return Ok((self.install(page)?, CacheTier::Remote));
        };
        let probe_ns = probe_t0.elapsed().as_nanos() as u64;
        let fetch_t0 = Instant::now();
        let (page, mut meta) = self.fetch_remote_traced(id, lsn)?;
        let fetch_ns = fetch_t0.elapsed().as_nanos() as u64;
        self.stats.fetches.incr();
        if meta.net_ns == 0 {
            // The source could not attribute the round trip; charge the
            // unaccounted remainder of the fetch to the network stage.
            meta.net_ns = fetch_ns.saturating_sub(meta.queue_ns + meta.gather_ns + meta.serve_ns);
        }
        let sink_t0 = Instant::now();
        let page_ref = self.install(page)?;
        let sink_ns = sink_t0.elapsed().as_nanos() as u64;
        if meta.trace_id != 0 {
            // The source sampled this miss: close out the `getpage` root
            // span (the source's own child spans hang off `root_span`).
            let dur_ns = probe_ns + fetch_ns + sink_ns;
            let end_ns = ring.now_ns();
            ring.record(
                meta.trace_id,
                meta.root_span,
                0,
                SpanKind::GetPage,
                *node,
                end_ns.saturating_sub(dur_ns),
                dur_ns,
            );
        }
        self.read_trace.record(ReadTrace {
            page: id,
            min_lsn: lsn,
            stage_ns: [
                probe_ns,
                meta.queue_ns,
                meta.gather_ns,
                meta.net_ns,
                meta.serve_ns,
                sink_ns,
            ],
            hedge: if meta.hedge_won {
                HedgeOutcome::Won
            } else if meta.hedge_fired {
                HedgeOutcome::Lost
            } else {
                HedgeOutcome::None
            },
            range_width: meta.range_width,
            range_fallback: meta.range_fallback,
        });
        Ok((page_ref, CacheTier::Remote))
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
        let mut mem = self.mem.lock();
        if let Some(e) = mem.map.get_mut(&id) {
            e.referenced = true;
            return Ok(Arc::clone(&e.page));
        }
        while mem.map.len() >= self.mem_capacity {
            if !self.evict_one(&mut mem)? {
                // Everything is pinned; admit over capacity rather than fail.
                break;
            }
        }
        let page_ref: PageRef = Arc::new(RwLock::new(page));
        mem.map.insert(id, MemEntry { page: Arc::clone(&page_ref), referenced: true });
        mem.clock.push_back(id);
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
        let mut mem = self.mem.lock();
        while !mem.map.is_empty() {
            if !self.evict_one(&mut mem)? {
                return Err(Error::InvalidState("pinned pages prevent flush_mem".into()));
            }
        }
        Ok(())
    }

    fn mem_lookup(&self, id: PageId) -> Option<PageRef> {
        let mut mem = self.mem.lock();
        mem.map.get_mut(&id).map(|e| {
            e.referenced = true;
            Arc::clone(&e.page)
        })
    }

    /// Evict one unpinned page from memory; returns false if none exists.
    fn evict_one(&self, mem: &mut MemTier) -> Result<bool> {
        let mut scanned = 0;
        let budget = 2 * mem.clock.len() + 2;
        while scanned < budget {
            scanned += 1;
            let Some(id) = mem.clock.pop_front() else { return Ok(false) };
            let Some(entry) = mem.map.get_mut(&id) else { continue }; // stale
            if entry.referenced {
                entry.referenced = false;
                mem.clock.push_back(id);
                continue;
            }
            if Arc::strong_count(&entry.page) > 1 {
                mem.clock.push_back(id); // pinned
                continue;
            }
            let Some(entry) = mem.map.remove(&id) else { continue };
            let page = entry.page.read().clone();
            let lsn = page.page_lsn();
            match &self.rbpex {
                Some(rbpex) => {
                    if let Some((vid, vlsn)) = rbpex.put(&page)? {
                        (self.wal_flush)(vlsn);
                        self.stats.node_evictions.incr();
                        (self.on_evict)(vid, vlsn);
                    }
                }
                None => {
                    (self.wal_flush)(lsn);
                    self.stats.node_evictions.incr();
                    (self.on_evict)(id, lsn);
                }
            }
            return Ok(true);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcb::{Fcb, MemFcb};
    use crate::page::PageType;
    use crate::rbpex::RbpexPolicy;
    use parking_lot::Mutex as PlMutex;

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
        Arc::new(
            Rbpex::create(
                Arc::new(MemFcb::new("ssd")) as Arc<dyn Fcb>,
                Arc::new(MemFcb::new("meta")) as Arc<dyn Fcb>,
                RbpexPolicy::Sparse { capacity_pages: cap },
            )
            .unwrap(),
        )
    }

    #[test]
    fn tiered_hits_by_level() {
        let src = MapSource::new(0..100);
        let cache = TieredCache::with_defaults(2, Some(rbpex(4)), src.clone());
        // First read: remote fetch.
        let p = cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
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
            Arc::new(ReadTraceRecorder::disabled()),
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
        let pinned = cache.get(PageId::new(1), || Lsn::ZERO).unwrap();
        // Admitting another page cannot evict the pinned one; cache admits
        // over capacity instead.
        let other = cache.get(PageId::new(2), || Lsn::ZERO).unwrap();
        assert_eq!(pinned.read().page_id(), PageId::new(1));
        assert_eq!(other.read().page_id(), PageId::new(2));
        assert!(cache.in_memory(PageId::new(1)));
    }

    #[test]
    fn writes_via_pageref_are_visible_to_later_readers() {
        let src = MapSource::new(0..10);
        let cache = TieredCache::with_defaults(4, None, src);
        {
            let p = cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
            let mut w = p.write();
            w.body_mut()[100] = 0xEE;
            w.set_page_lsn(Lsn::new(500));
        }
        let p = cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
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
    fn sampled_miss_records_a_getpage_root_span() {
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
                let ctx = self.ring.try_sample().unwrap();
                let page = self.inner.fetch_page(id, min_lsn)?;
                Ok((
                    page,
                    FetchMeta {
                        range_width: 1,
                        trace_id: ctx.trace_id,
                        root_span: ctx.span_id,
                        ..FetchMeta::default()
                    },
                ))
            }
        }

        let ring = Arc::new(SpanRing::new(16, 1));
        let src = Arc::new(TracingSource { inner: MapSource::new(0..10), ring: Arc::clone(&ring) });
        let cache = TieredCache::new(
            4,
            None,
            src,
            Arc::new(|_| {}),
            Arc::new(|_, _| {}),
            Arc::new(ReadTraceRecorder::disabled()),
            (Arc::clone(&ring), NodeId::PRIMARY),
        );
        cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
        let spans = ring.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::GetPage);
        assert_eq!(spans[0].parent_id, 0, "getpage is the trace root");
        assert_eq!(spans[0].trace_id, spans[0].span_id);
        assert_eq!(spans[0].node, NodeId::PRIMARY);
        // A memory hit must not record anything.
        cache.get(PageId::new(3), || Lsn::ZERO).unwrap();
        assert_eq!(ring.spans().len(), 1);
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
}
