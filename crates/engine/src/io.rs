//! The engine's page I/O boundary.
//!
//! The engine never does I/O directly: all page reads go through
//! [`PageAccess`] and all mutations through [`PageMutator`]. This is the
//! same layering trick as SQL Server's FCB virtualization (paper §3.6) one
//! level up: B-trees, the version store, and the transaction manager are
//! identical whether they run on a monolithic local store, a Socrates
//! primary (tiered cache + log pipeline), a read-only secondary, or an
//! HADR replica — only the injected I/O implementation differs.

use crate::evicted::EvictedLsnMap;
use parking_lot::Mutex;
use socrates_common::metrics::Counter;
use socrates_common::obs::{MetricsHub, SpanEvent, SpanKind, SpanRing, Stage, StageHists};
use socrates_common::TxnId;
use socrates_common::{Error, Lsn, NodeId, PageId, Result};
use socrates_storage::cache::{CacheTier, PageRef, TieredCache};
use socrates_storage::page::{Page, PageType};
use socrates_storage::pageops::{apply_page_op, PageOp};
use socrates_wal::pipeline::LogPipeline;
use socrates_wal::record::{LogPayload, LogRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read access to pages.
pub trait PageAccess: Send + Sync {
    /// Get the page, fetching through whatever hierarchy backs this node.
    fn page(&self, id: PageId) -> Result<PageRef>;

    /// Advisory read-ahead: the caller is about to read `ids`, in this
    /// order (a scan's children in range). Both nodes read the ones RBPEX
    /// holds before returning, waiting once for the last SSD read; a
    /// primary prefetches the others in the background, a secondary
    /// fetches them in one batch meanwhile. The default does nothing.
    fn read_ahead(&self, _ids: &[PageId]) {}
}

/// Read-write access: allocation, logged mutation, and the transaction
/// lifecycle records. The defaults are no-ops so purely local stores (unit
/// tests) need not care about logging.
pub trait PageMutator: PageAccess {
    /// Allocate a fresh page id (logged so replicas track the allocator).
    fn allocate(&self, txn: TxnId) -> Result<PageId>;
    /// Apply `op` to `page`, writing the redo record to the log first.
    /// Returns the op's LSN (already stamped into the page).
    fn mutate(&self, txn: TxnId, page: &mut Page, op: &PageOp) -> Result<Lsn>;
    /// Log a transaction begin.
    fn log_txn_begin(&self, _txn: TxnId) {}
    /// Log a transaction commit and return only once it is durable.
    /// `engine` is the time the transaction spent in the engine, begin →
    /// now (the commit pipeline's first stage).
    fn log_txn_commit(&self, _txn: TxnId, _commit_ts: u64, _engine: Duration) -> Result<()> {
        Ok(())
    }
    /// Log a transaction abort (fire-and-forget; ADR needs no undo).
    fn log_txn_abort(&self, _txn: TxnId) {}
    /// Log a checkpoint record and return its LSN, durably.
    fn log_checkpoint(&self, _redo_start: Lsn, _meta: Vec<u8>) -> Result<Lsn> {
        Ok(Lsn::ZERO)
    }
    /// The page allocator's high-water mark (for checkpoint metadata).
    fn allocator_watermark(&self) -> u64 {
        0
    }
}

/// Callback invoked with each freshly allocated page id (see
/// [`LoggedPageIo::new`]).
pub type AllocateHook = Arc<dyn Fn(PageId) + Send + Sync>;

/// Local-hit accounting over *data pages only* (B-tree leaves and
/// version-store pages) — the quantity the paper's Tables 3/4 report:
/// index upper levels are structurally hot in any engine and would drown
/// the signal. Every compute node keeps one.
#[derive(Default)]
pub struct DataPageStats {
    hits: Counter,
    misses: Counter,
}

impl DataPageStats {
    /// Account one page read served by `tier` (non-data pages are ignored).
    pub fn note(&self, page: &PageRef, tier: CacheTier) {
        let is_data =
            matches!(page.read().page_type(), Ok(PageType::BTreeLeaf) | Ok(PageType::VersionStore));
        if is_data {
            match tier {
                CacheTier::Remote => self.misses.incr(),
                _ => self.hits.incr(),
            }
        }
    }

    /// Register `data_page_hits` / `data_page_misses` under `node`.
    pub fn register(self: &Arc<Self>, hub: &MetricsHub, node: NodeId) {
        let me = Arc::clone(self);
        hub.register_counter_fn(node, "data_page_hits", move || me.hits.get());
        let me = Arc::clone(self);
        hub.register_counter_fn(node, "data_page_misses", move || me.misses.get());
    }

    /// Fraction of data-page reads served locally.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.get();
        let total = hits + self.misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Forget all counts (benchmarks call this when the measurement
    /// window starts).
    pub fn reset(&self) {
        self.hits.reset();
        self.misses.reset();
    }
}

/// The production implementation: mutations are logged through the
/// [`LogPipeline`] and applied to pages in the [`TieredCache`].
pub struct LoggedPageIo {
    cache: Arc<TieredCache>,
    pipeline: Arc<LogPipeline>,
    next_page: AtomicU64,
    evicted: Arc<EvictedLsnMap>,
    data_pages: Arc<DataPageStats>,
    /// Invoked with each freshly allocated page id *before* its allocation
    /// record is logged. Socrates deployments use this to spin up a page
    /// server when the database grows into a partition that has none —
    /// the O(1)-in-data upsize path.
    on_allocate: AllocateHook,
    /// The deployment's commit-stage histograms. The sync stages are fed
    /// here on every commit: engine time (txn begin → commit append) and
    /// harden time (the `commit_wait`); the async stages are fed by the
    /// deployment's LSN-lag watcher.
    commit_stages: Arc<StageHists<Stage>>,
    /// Cross-tier span ring plus this node's identity. Commits mint their
    /// causal [`TraceCtx`](socrates_common::obs::TraceCtx) here — the ring
    /// owns the sampling decision, so an unsampled commit pays one
    /// immutable-field compare.
    spans: (Arc<SpanRing>, NodeId),
}

impl LoggedPageIo {
    /// Wire up the node's cache, pipeline, and evicted-LSN map.
    /// `next_page` is the first unallocated page id (1 for a fresh
    /// database — page 0 is the catalog). Commits feed their sync stages
    /// into `commit_stages` and mint sampled contexts from `spans`;
    /// `on_allocate` observes every allocation.
    pub fn new(
        cache: Arc<TieredCache>,
        pipeline: Arc<LogPipeline>,
        evicted: Arc<EvictedLsnMap>,
        next_page: u64,
        commit_stages: Arc<StageHists<Stage>>,
        spans: (Arc<SpanRing>, NodeId),
        on_allocate: AllocateHook,
    ) -> LoggedPageIo {
        LoggedPageIo {
            cache,
            pipeline,
            next_page: AtomicU64::new(next_page),
            evicted,
            data_pages: Arc::default(),
            on_allocate,
            commit_stages,
            spans,
        }
    }

    /// This node's data-page hit accounting (register it in the hub, read
    /// the hit rate, reset it when a measurement window starts).
    pub fn data_pages(&self) -> &Arc<DataPageStats> {
        &self.data_pages
    }

    /// The node's cache (hit-rate metrics and maintenance).
    pub fn cache(&self) -> &Arc<TieredCache> {
        &self.cache
    }

    /// The log pipeline (commit paths need it).
    pub fn pipeline(&self) -> &Arc<LogPipeline> {
        &self.pipeline
    }

    /// Highest allocated page id + 1 (diagnostics, recovery).
    pub fn next_page_id(&self) -> u64 {
        // ordering: relaxed — allocator watermark read for checkpoint metadata;
        // the caller orders it against page writes via the engine locks
        self.next_page.load(Ordering::Relaxed)
    }
}

impl PageAccess for LoggedPageIo {
    fn page(&self, id: PageId) -> Result<PageRef> {
        let evicted = Arc::clone(&self.evicted);
        let (page, tier) = self.cache.get(id, move || evicted.lsn_for(id))?;
        self.data_pages.note(&page, tier);
        Ok(page)
    }

    /// Post `ids` to the I/O scheduler's thread as one hint, and read the
    /// ones RBPEX holds among the first of `ids` not in memory (up to the
    /// cache's batch cap) with one SSD wait for all of them. A walk that
    /// needs one off-memory read in all leaves it to the demand path.
    fn read_ahead(&self, ids: &[PageId]) {
        // A prefetched page must satisfy the same freshness floor a demand
        // read would use: the max evicted LSN over the hint is safe for
        // every member (GetPage@LSN may return newer).
        let min_lsn = ids.iter().map(|&id| self.evicted.lsn_for(id)).max().unwrap_or(Lsn::ZERO);
        self.cache.prefetch(ids, min_lsn);
        let wanted = self.cache.ahead_of_memory(ids);
        if wanted.len() < 2 {
            return;
        }
        if let Ok((pages, done)) = self.cache.read_local(&wanted) {
            let _ = self.cache.install_local(pages, done);
        }
    }
}

impl PageMutator for LoggedPageIo {
    fn allocate(&self, txn: TxnId) -> Result<PageId> {
        // ordering: relaxed — id uniqueness needs only RMW atomicity
        let id = PageId::new(self.next_page.fetch_add(1, Ordering::Relaxed));
        (self.on_allocate)(id);
        self.pipeline
            .append(&LogRecord { txn, payload: LogPayload::AllocPages { first: id, count: 1 } });
        self.cache.install(Page::new(id, PageType::Free))?;
        Ok(id)
    }

    fn mutate(&self, txn: TxnId, page: &mut Page, op: &PageOp) -> Result<Lsn> {
        let mut op_bytes = Vec::with_capacity(op.encoded_len());
        op.encode(&mut op_bytes);
        let lsn = self.pipeline.append(&LogRecord {
            txn,
            payload: LogPayload::PageWrite { page_id: page.page_id(), op: op_bytes },
        });
        apply_page_op(page, op, lsn)?;
        Ok(lsn)
    }

    fn log_txn_begin(&self, txn: TxnId) {
        self.pipeline.append(&LogRecord { txn, payload: LogPayload::TxnBegin });
    }

    fn log_txn_commit(&self, txn: TxnId, commit_ts: u64, engine: Duration) -> Result<()> {
        // Mint the cross-tier trace ctx; the ring owns the sampling
        // decision, and the ctx rides the commit's log block across every
        // tier boundary downstream.
        let (ring, node) = &self.spans;
        let ctx = ring.try_sample();
        let record = LogRecord { txn, payload: LogPayload::TxnCommit { commit_ts } };
        let lsn = match ctx {
            Some(ctx) => self.pipeline.append_traced(&record, ctx),
            None => self.pipeline.append(&record),
        };
        let harden_start = Instant::now();
        self.pipeline.commit_wait(lsn)?;
        let harden = harden_start.elapsed();
        self.commit_stages.record(Stage::Engine, engine);
        self.commit_stages.record(Stage::Harden, harden);
        if let Some(ctx) = ctx {
            let (engine_ns, harden_ns) = (engine.as_nanos() as u64, harden.as_nanos() as u64);
            let end_ns = ring.now_ns();
            let root_ns = engine_ns + harden_ns;
            let root_start = end_ns.saturating_sub(root_ns);
            ring.record(SpanEvent {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id: 0,
                kind: SpanKind::Commit,
                node: *node,
                start_ns: root_start,
                dur_ns: root_ns,
                arg: lsn.offset(),
            });
            ring.record_child(ctx, SpanKind::CommitEngine, *node, root_start, engine_ns);
            ring.record_child(
                ctx,
                SpanKind::CommitHarden,
                *node,
                end_ns.saturating_sub(harden_ns),
                harden_ns,
            );
        }
        Ok(())
    }

    fn log_txn_abort(&self, txn: TxnId) {
        self.pipeline.append(&LogRecord { txn, payload: LogPayload::TxnAbort });
    }

    fn log_checkpoint(&self, redo_start: Lsn, meta: Vec<u8>) -> Result<Lsn> {
        let lsn = self.pipeline.append(&LogRecord::system(LogPayload::Checkpoint {
            redo_start_lsn: redo_start,
            meta,
        }));
        self.pipeline.commit_wait(lsn)?;
        Ok(lsn)
    }

    fn allocator_watermark(&self) -> u64 {
        // ordering: relaxed — allocator watermark read for checkpoint metadata;
        // the caller orders it against page writes via the engine locks
        self.next_page.load(Ordering::Relaxed)
    }
}

/// A purely in-memory, unlogged implementation for unit tests of the
/// engine's data structures.
pub struct MemIo {
    pages: Mutex<HashMap<PageId, PageRef>>,
    next_page: AtomicU64,
    next_lsn: AtomicU64,
}

impl MemIo {
    /// Fresh store; page ids start at `first_page`.
    pub fn new(first_page: u64) -> MemIo {
        MemIo {
            pages: Mutex::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::ENGINE_MEM_PAGES,
                "io.mem_pages",
            ),
            next_page: AtomicU64::new(first_page),
            next_lsn: AtomicU64::new(1),
        }
    }

    /// Pre-install a page (bootstrap).
    pub fn install(&self, page: Page) -> PageRef {
        let id = page.page_id();
        let r: PageRef = Arc::new(parking_lot::RwLock::new(page));
        self.pages.lock().insert(id, Arc::clone(&r));
        r
    }

    /// Number of pages in the store.
    pub fn len(&self) -> usize {
        self.pages.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PageAccess for MemIo {
    fn page(&self, id: PageId) -> Result<PageRef> {
        self.pages.lock().get(&id).cloned().ok_or_else(|| Error::NotFound(format!("{id}")))
    }
}

impl PageMutator for MemIo {
    fn allocate(&self, _txn: TxnId) -> Result<PageId> {
        // ordering: relaxed — id uniqueness needs only RMW atomicity
        let id = PageId::new(self.next_page.fetch_add(1, Ordering::Relaxed));
        self.install(Page::new(id, PageType::Free));
        Ok(id)
    }

    fn mutate(&self, _txn: TxnId, page: &mut Page, op: &PageOp) -> Result<Lsn> {
        // ordering: relaxed — test-only LSN ticker; uniqueness needs only atomicity
        let lsn = Lsn::new(self.next_lsn.fetch_add(1, Ordering::Relaxed));
        apply_page_op(page, op, lsn)?;
        // Keep the canonical copy in the map in sync: the caller holds a
        // write lock on the same Arc, so the map entry already reflects the
        // change (same allocation).
        Ok(lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_storage::slotted::Slotted;

    /// A source that holds no page: these tests never fetch, and any
    /// miss is a test bug.
    struct NoRemote;

    impl socrates_storage::cache::PageSource for NoRemote {
        fn fetch_page(&self, id: PageId, _min_lsn: Lsn) -> Result<Page> {
            Err(Error::NotFound(format!("{id}")))
        }
    }

    impl socrates_storage::RangedPageSource for NoRemote {
        fn fetch_pages(&self, ids: &[PageId], _min_lsn: Lsn) -> Result<Vec<Page>> {
            Err(Error::NotFound(format!("{ids:?}")))
        }
    }

    /// A `LoggedPageIo` over a one-replica in-memory landing zone, minting
    /// contexts from `spans`, with the commit-stage set it feeds.
    fn logged_io(
        spans: &Arc<SpanRing>,
        next_page: u64,
    ) -> (Arc<LoggedPageIo>, Arc<StageHists<Stage>>) {
        let cache = Arc::new(TieredCache::with_defaults(64, None, Arc::new(NoRemote)));
        logged_io_over(cache, spans, next_page)
    }

    /// [`logged_io`] over `cache`.
    fn logged_io_over(
        cache: Arc<TieredCache>,
        spans: &Arc<SpanRing>,
        next_page: u64,
    ) -> (Arc<LoggedPageIo>, Arc<StageHists<Stage>>) {
        use socrates_common::fault::FaultRegistry;
        use socrates_storage::{Fcb, MemFcb};
        use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
        use socrates_wal::pipeline::{BlockSink, LogPipelineConfig};

        let lz = Arc::new(LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 16 << 20, write_quorum: 1 },
            FaultRegistry::disabled(),
        ));
        let pipeline = Arc::new(LogPipeline::new(
            lz as Arc<dyn BlockSink>,
            vec![],
            Arc::new(|_p: PageId| socrates_common::PartitionId::new(0)),
            LogPipelineConfig::default(),
            Lsn::ZERO,
            (Arc::clone(spans), NodeId::PRIMARY),
        ));
        let stages = Arc::new(StageHists::default());
        let io = Arc::new(LoggedPageIo::new(
            cache,
            pipeline,
            Arc::new(EvictedLsnMap::new(16)),
            next_page,
            Arc::clone(&stages),
            (Arc::clone(spans), NodeId::PRIMARY),
            Arc::new(|_| {}),
        ));
        (io, stages)
    }

    #[test]
    fn traced_commit_records_commit_and_harden_spans() {
        let ring = Arc::new(SpanRing::new(64, 1));
        let (io, stages) = logged_io(&ring, 1);

        io.log_txn_begin(TxnId::new(1));
        io.log_txn_commit(TxnId::new(1), 42, Duration::from_micros(7)).unwrap();

        let spans = ring.spans();
        let root = spans.iter().find(|s| s.kind == SpanKind::Commit).expect("commit root");
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.trace_id, root.span_id);
        assert!(root.arg > 0, "the commit root carries its LSN");
        for kind in [SpanKind::CommitEngine, SpanKind::CommitHarden, SpanKind::WalHarden] {
            let child = spans
                .iter()
                .find(|s| s.kind == kind)
                .unwrap_or_else(|| panic!("missing {kind:?} child"));
            assert_eq!(child.trace_id, root.trace_id);
            assert_eq!(child.parent_id, root.span_id);
        }
        // Sampling off (ring disabled): no span, but the always-on stage
        // histograms still count the commit.
        let disarmed = Arc::new(SpanRing::disabled());
        let (quiet, quiet_stages) = logged_io(&disarmed, 1);
        quiet.log_txn_begin(TxnId::new(2));
        quiet.log_txn_commit(TxnId::new(2), 43, Duration::from_micros(7)).unwrap();
        assert_eq!(disarmed.spans_recorded(), 0);
        for s in [&stages, &quiet_stages] {
            assert_eq!(s.hist(Stage::Engine).snapshot().max_us, 7);
            assert_eq!(s.hist(Stage::Harden).count(), 1);
            assert_eq!(s.hist(Stage::Destage).count(), 0, "async stages belong to the watcher");
        }
    }

    #[test]
    fn dropped_handles_leave_no_state_and_engine_stage_spans_begin_to_commit() {
        // The begin instant rides in the (Copy) handle, so the I/O layer
        // keeps nothing per transaction: 10 000 read-only handles that are
        // simply dropped cost it nothing, and cannot perturb the engine
        // stage of a later commit.
        let ring = Arc::new(SpanRing::new(64, 1));
        let (io, stages) = logged_io(&ring, 0);
        let db = crate::Database::create(io as Arc<dyn PageMutator>).unwrap();
        let bootstrap_commits = stages.hist(Stage::Engine).count();
        for _ in 0..10_000 {
            let _dropped = db.begin();
        }
        assert_eq!(stages.hist(Stage::Engine).count(), bootstrap_commits);

        let before = Instant::now();
        let h = db.begin();
        let copy = h; // `TxnHandle` stays `Copy`
        std::thread::sleep(Duration::from_millis(5));
        db.commit(copy).unwrap();
        let bound_us = before.elapsed().as_micros() as u64;

        let engine = stages.hist(Stage::Engine).snapshot();
        assert_eq!(engine.count, bootstrap_commits + 1);
        assert!((5_000..=bound_us).contains(&engine.max_us), "engine stage {} µs", engine.max_us);
        let span = ring
            .spans()
            .into_iter()
            .rfind(|s| s.kind == SpanKind::CommitEngine)
            .expect("commit.engine span");
        assert!((5_000..=bound_us).contains(&(span.dur_ns / 1_000)), "span {} ns", span.dur_ns);
    }

    #[test]
    fn a_scan_reads_its_rbpex_leaves_with_one_deadline_read_each() {
        use crate::BTree;
        use socrates_storage::{CountingFcb, Fcb, MemFcb, Rbpex};
        // A tree of some ten leaves under one root, built in memory.
        let built = MemIo::new(1);
        let tree = BTree::create(&built, TxnId::new(1)).unwrap();
        for k in 0u32..40 {
            tree.insert(&built, TxnId::new(1), &k.to_be_bytes(), &[7; 1000]).unwrap();
        }
        // Every page of it in RBPEX only, on a counted device.
        let ssd = Arc::new(CountingFcb::new(MemFcb::new("ssd")));
        let meta = Arc::new(MemFcb::new("meta"));
        let rbpex = Rbpex::create(Arc::clone(&ssd) as Arc<dyn Fcb>, meta, 64).unwrap();
        for id in 1..=built.len() as u64 {
            rbpex.put(&built.page(PageId::new(id)).unwrap().read()).unwrap();
        }
        let cache = TieredCache::with_scheduler(
            64,
            Some(Arc::new(rbpex)),
            Arc::new(NoRemote),
            Arc::new(|_| {}),
            Arc::new(|_, _| {}),
            (Arc::new(SpanRing::disabled()), NodeId::PRIMARY),
            false,
        );
        let (io, _) = logged_io_over(cache, &Arc::new(SpanRing::disabled()), 100);
        let rows = BTree::open(tree.root())
            .range(&*io, &4u32.to_be_bytes(), &20u32.to_be_bytes(), 100)
            .unwrap();
        assert_eq!(rows.len(), 16);
        // The root is read on demand; each leaf is one read issued by the
        // read-ahead, and every read counts once, as an SSD hit.
        let (reads, leaves) = (ssd.reads(), ssd.deadline_reads());
        assert_eq!(reads, 1, "only the root is waited out alone");
        assert!(leaves >= 3, "the scan read {leaves} leaves");
        assert_eq!(io.cache().stats().ssd_hits.get(), reads + leaves);
        assert_eq!(io.data_pages().hits.get(), leaves);
    }

    #[test]
    fn memio_allocate_and_mutate() {
        let io = MemIo::new(10);
        let id = io.allocate(TxnId::new(1)).unwrap();
        assert_eq!(id, PageId::new(10));
        let page_ref = io.page(id).unwrap();
        let mut page = page_ref.write();
        io.mutate(TxnId::new(1), &mut page, &PageOp::Format { ptype: PageType::BTreeLeaf })
            .unwrap();
        io.mutate(TxnId::new(1), &mut page, &PageOp::Insert { idx: 0, bytes: b"rec".to_vec() })
            .unwrap();
        drop(page);
        // Visible through a fresh fetch (shared Arc).
        let again = io.page(id).unwrap();
        assert_eq!(Slotted::get(&again.read(), 0).unwrap(), b"rec");
        assert!(again.read().page_lsn() > Lsn::ZERO);
        assert!(io.page(PageId::new(999)).is_err());
    }
}
