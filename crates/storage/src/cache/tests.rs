//! The tiered cache's unit tests, and the gates and sources that
//! `rbpex` and `sched` tests share.

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
    fn fetch_pages(&self, ids: &[PageId], min_lsn: Lsn) -> Result<Vec<Page>> {
        ids.iter().map(|&id| self.fetch_page(id, min_lsn)).collect()
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

fn scheduled(mem_capacity: usize, rbpex: Arc<Rbpex>, src: Arc<HookedSource>) -> Arc<TieredCache> {
    TieredCache::with_scheduler(
        mem_capacity,
        Some(rbpex),
        src,
        Arc::new(|_| {}),
        Arc::new(|_, _| {}),
        (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
        true,
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
        let hit = within_5s(scope, || cache.get(PageId::new(2), || panic!("resident")).unwrap().1);
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
        let hit = within_5s(scope, || cache.get(PageId::new(1), || panic!("resident")).unwrap().1);
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

#[test]
fn an_ssd_hit_evicted_again_writes_nothing() {
    // Four pages spill once; read back from RBPEX and evicted again at the
    // same PageLSN, they are clean spills.
    let device = Arc::new(Gate::default());
    let cache = TieredCache::with_defaults(
        4,
        Some(rbpex_on(8, gated_device(&device))),
        MapSource::new(0..10),
    );
    for i in 0..4 {
        cache.get(PageId::new(i), || Lsn::ZERO).unwrap();
    }
    cache.flush_mem().unwrap();
    assert_eq!(device.entered(), 4);
    for i in 0..4 {
        assert_eq!(cache.get(PageId::new(i), || panic!("on SSD")).unwrap().1, CacheTier::Ssd);
    }
    cache.flush_mem().unwrap();
    assert_eq!(device.entered(), 4, "an evicted SSD hit was written again");
    assert_eq!(cache.stats().clean_spills.get(), 4);
    // A page changed since its SSD hit is written.
    let (p, _) = cache.get(PageId::new(2), || panic!("on SSD")).unwrap();
    p.write().set_page_lsn(Lsn::new(50));
    drop(p);
    cache.flush_mem().unwrap();
    assert_eq!((device.entered(), cache.stats().clean_spills.get()), (5, 4));
}

#[test]
fn a_64_frame_scheduled_cache_keeps_4_frames_free() {
    let cache = scheduled(64, rbpex(128), HookedSource::new(|_| {}));
    for i in 0..64 {
        cache.get(PageId::new(i), || Lsn::ZERO).unwrap();
    }
    until("the lazy writer to free 4 frames", || cache.mem.lock().map.len() == 60);
    cache.stats().reset();
    // A miss takes a free frame, and the writer tops the reserve up again.
    cache.get(PageId::new(64), || Lsn::ZERO).unwrap();
    until("the lazy writer to refill the reserve", || cache.mem.lock().map.len() == 60);
    assert_eq!(cache.stats().inline_evictions.get(), 0, "a miss evicted on its own thread");
    assert_eq!(cache.mem.lock().map.len(), 60, "the writer evicted past the reserve");
}

/// A cache of `mem` frames over an 8-frame RBPEX on `device`, whose batch
/// cap lets a read-ahead read RBPEX (no page is ever fetched).
fn local_cache(mem: usize, device: Arc<dyn Fcb>) -> Arc<TieredCache> {
    TieredCache::with_scheduler(
        mem,
        Some(rbpex_on(8, device)),
        HookedSource::new(|id| panic!("{id} fetched")),
        Arc::new(|_| {}),
        Arc::new(|_, _| {}),
        (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
        false,
    )
}

/// Page `id` at `lsn`, holding `fill`, in RBPEX only.
fn spilled(cache: &TieredCache, id: u64, lsn: u64, fill: u8) {
    let mut p = Page::new(PageId::new(id), PageType::BTreeLeaf);
    p.set_page_lsn(Lsn::new(lsn));
    p.body_mut()[0] = fill;
    drop(cache.install(p).unwrap());
    cache.flush_mem().unwrap();
}

#[test]
fn a_local_read_that_went_stale_is_dropped() {
    let cache = local_cache(16, Arc::new(MemFcb::new("ssd")));
    let id = PageId::new(1);
    spilled(&cache, 1, 10, 1);
    let (read, _) = cache.read_local(&[id]).unwrap();
    assert_eq!(read.len(), 1);
    // Before the read is installed, the page is loaded, updated and
    // spilled again: RBPEX maps it at a newer PageLSN.
    let (p, _) = cache.get(id, || Lsn::ZERO).unwrap();
    p.write().set_page_lsn(Lsn::new(20));
    p.write().body_mut()[0] = 2;
    drop(p);
    cache.flush_mem().unwrap();
    assert_eq!(cache.install_local(read, Instant::now()).unwrap(), 0, "the stale copy is dropped");
    assert!(!cache.in_memory(id));
    let (p, tier) = cache.get(id, || Lsn::ZERO).unwrap();
    assert_eq!((p.read().page_lsn(), p.read().body()[0], tier), (Lsn::new(20), 2, CacheTier::Ssd));
    // A copy RBPEX still maps is installed, and a memory entry wins over it.
    drop(p);
    cache.flush_mem().unwrap();
    let (read, done) = cache.read_local(&[id]).unwrap();
    assert_eq!(cache.install_local(read.clone(), done).unwrap(), 1);
    assert_eq!(cache.install_local(read, done).unwrap(), 1);
    assert!(cache.in_memory(id));
}

#[test]
fn a_read_ahead_page_counts_once_against_the_tier_it_came_from() {
    let cache = local_cache(16, Arc::new(MemFcb::new("ssd")));
    spilled(&cache, 1, 10, 1);
    let (read, done) = cache.read_local(&[PageId::new(1), PageId::new(2)]).unwrap();
    assert_eq!(read.len(), 1, "page 2 is in no tier");
    assert_eq!(cache.install_local(read, done).unwrap(), 1);
    let mut prefetched = Page::new(PageId::new(3), PageType::BTreeLeaf);
    prefetched.set_page_lsn(Lsn::new(30));
    drop(cache.install_prefetched(prefetched).unwrap());
    let stats = cache.stats();
    let before = (stats.mem_hits.get(), stats.ssd_hits.get(), stats.fetches.get());
    let tiers: Vec<CacheTier> = [1, 3, 1, 3]
        .iter()
        .map(|&id| cache.get_if_resident(PageId::new(id)).unwrap().unwrap().1)
        .collect();
    use CacheTier::*;
    assert_eq!(tiers, [Ssd, Remote, Memory, Memory]);
    let after = (stats.mem_hits.get(), stats.ssd_hits.get(), stats.fetches.get());
    assert_eq!(after, (before.0 + 2, before.1 + 1, before.2 + 1));
}
