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
    /// Scheduler queue wait: enqueued → dispatched to a worker.
    pub queue_ns: u64,
    /// Network round trip minus the server's serve time.
    pub net_ns: u64,
    /// Server-side serve time, stamped on the RBIO response.
    pub serve_ns: u64,
    /// Pages in the dispatched batch (1 = a lone GetPage).
    pub range_width: u32,
    /// The coalesced range failed; this page was re-fetched alone.
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
    /// The whole remote fetch, as the caller waited for it.
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
            read_stages: StageHists::default(),
            spans,
        }
    }

    /// Build a cache whose remote misses go through an [`IoScheduler`]
    /// over `source` (which must speak ranges). The scheduler's prefetch
    /// completions are installed back into the returned cache.
    // soclint-allow: hot-path one-time construction wiring, not the serve path
    pub fn with_scheduler(
        mem_capacity: usize,
        rbpex: Option<Arc<Rbpex>>,
        source: Arc<dyn RangedPageSource>,
        wal_flush: WalFlushHook,
        on_evict: EvictionListener,
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

    /// The I/O scheduler, if this cache was built with one.
    pub fn scheduler(&self) -> Option<&Arc<IoScheduler>> {
        self.sched.as_ref()
    }

    /// Fetch a page from the remote source, through the scheduler when
    /// present (single-flight with every other miss on this node), with
    /// the fetch's latency attribution. Does not install the page or
    /// account the miss — callers use [`TieredCache::get`], or install the
    /// result themselves and report it with [`TieredCache::record_miss`].
    // soclint-allow: hot-path-transitive the miss path reads the clock by
    // design — latency attribution of the remote fetch is part of its job,
    // and the fetch itself is already microsecond-scale I/O
    pub fn fetch_remote(&self, id: PageId, min_lsn: Lsn) -> Result<(Page, FetchMeta)> {
        match &self.sched {
            Some(s) => s.fetch(id, min_lsn),
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
        let (page, meta) = self.fetch_remote(id, lsn)?;
        let fetch = fetch_t0.elapsed();
        let sink_t0 = Instant::now();
        let page_ref = self.install(page)?;
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
}
