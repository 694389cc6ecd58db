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
use socrates_common::obs::{SpanKind, SpanRing, TraceRecorder};
use socrates_common::TxnId;
use socrates_common::{Error, Lsn, NodeId, PageId, Result};
use socrates_storage::cache::{PageRef, TieredCache};
use socrates_storage::page::{Page, PageType};
use socrates_storage::pageops::{apply_page_op, PageOp};
use socrates_wal::pipeline::LogPipeline;
use socrates_wal::record::{LogPayload, LogRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Read access to pages.
pub trait PageAccess: Send + Sync {
    /// Get the page, fetching through whatever hierarchy backs this node.
    fn page(&self, id: PageId) -> Result<PageRef>;

    /// Advisory read-ahead: the caller expects to read `count` pages
    /// starting at `first` soon. Implementations backed by an I/O scheduler
    /// prefetch them in the background; the default does nothing.
    fn hint_range(&self, _first: PageId, _count: u32) {}
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
    fn log_txn_commit(&self, _txn: TxnId, _commit_ts: u64) -> Result<()> {
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

/// The production implementation: mutations are logged through the
/// [`LogPipeline`] and applied to pages in the [`TieredCache`].
pub struct LoggedPageIo {
    cache: Arc<TieredCache>,
    pipeline: Arc<LogPipeline>,
    next_page: AtomicU64,
    evicted: Arc<EvictedLsnMap>,
    /// Data-page (B-tree leaf / version store) reads served locally.
    data_hits: Counter,
    /// Data-page reads that went remote.
    data_misses: Counter,
    /// Invoked with each freshly allocated page id *before* its allocation
    /// record is logged. Socrates deployments use this to spin up a page
    /// server when the database grows into a partition that has none —
    /// the O(1)-in-data upsize path.
    on_allocate: AllocateHook,
    /// Commit tracing (a disabled recorder costs nothing). The sync
    /// stages are stamped here: engine time (txn begin → commit append) and
    /// harden time (the `commit_wait`); the async stages are completed by
    /// the deployment's LSN-lag watcher.
    trace: Arc<TraceRecorder>,
    /// Begin timestamps of in-flight transactions, consulted only when
    /// tracing is on (the map stays empty — and the commit path
    /// lock-free — otherwise).
    txn_begun: Mutex<HashMap<TxnId, std::time::Instant>>,
    /// Cross-tier span ring plus this node's identity. Commits mint their
    /// causal [`TraceCtx`](socrates_common::obs::TraceCtx) here — the ring
    /// owns the sampling decision, so an unsampled commit pays one
    /// immutable-field compare.
    spans: (Arc<SpanRing>, NodeId),
}

impl LoggedPageIo {
    /// Wire up the node's cache, pipeline, and evicted-LSN map.
    /// `next_page` is the first unallocated page id (1 for a fresh
    /// database — page 0 is the catalog). Commits record their sync
    /// stages into `trace` and mint sampled contexts from `spans`;
    /// `on_allocate` observes every allocation.
    pub fn new(
        cache: Arc<TieredCache>,
        pipeline: Arc<LogPipeline>,
        evicted: Arc<EvictedLsnMap>,
        next_page: u64,
        trace: Arc<TraceRecorder>,
        spans: (Arc<SpanRing>, NodeId),
        on_allocate: AllocateHook,
    ) -> LoggedPageIo {
        LoggedPageIo {
            cache,
            pipeline,
            next_page: AtomicU64::new(next_page),
            evicted,
            data_hits: Counter::new(),
            data_misses: Counter::new(),
            on_allocate,
            trace,
            txn_begun: Mutex::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::ENGINE_IO_TXN_BEGUN,
                "io.txn_begun",
            ),
            spans,
        }
    }

    /// Whether commits stamp their engine stage (either sink is armed).
    fn tracing(&self) -> bool {
        self.trace.is_enabled() || self.spans.0.is_enabled()
    }

    /// Register this node's engine-side metrics (data-page cache hit
    /// accounting) into the hub under `node`.
    pub fn register_metrics(
        self: &Arc<Self>,
        hub: &socrates_common::obs::MetricsHub,
        node: socrates_common::NodeId,
    ) {
        let me = Arc::clone(self);
        hub.register_counter_fn(node, "data_page_hits", move || me.data_hits.get());
        let me = Arc::clone(self);
        hub.register_counter_fn(node, "data_page_misses", move || me.data_misses.get());
    }

    /// The local hit rate over *data pages only* (B-tree leaves and
    /// version-store pages). This is the quantity the paper's Tables 3/4
    /// report: index upper levels are structurally hot in any engine and
    /// would drown the signal.
    pub fn data_hit_rate(&self) -> f64 {
        let hits = self.data_hits.get();
        let total = hits + self.data_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Reset the data-page hit accounting (benchmarks call this when the
    /// measurement window starts).
    pub fn reset_data_hit_stats(&self) {
        self.data_hits.reset();
        self.data_misses.reset();
    }

    /// The node's cache (hit-rate metrics and maintenance).
    pub fn cache(&self) -> &Arc<TieredCache> {
        &self.cache
    }

    /// The log pipeline (commit paths need it).
    pub fn pipeline(&self) -> &Arc<LogPipeline> {
        &self.pipeline
    }

    /// Install a brand-new page into the cache (allocation path).
    pub fn install_new(&self, page: Page) -> Result<PageRef> {
        self.cache.install(page)
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
        let (page, tier) = self.cache.get_traced(id, move || evicted.lsn_for(id))?;
        // Per-class hit accounting (data pages only; see data_hit_rate).
        let is_data =
            matches!(page.read().page_type(), Ok(PageType::BTreeLeaf) | Ok(PageType::VersionStore));
        if is_data {
            match tier {
                socrates_storage::cache::CacheTier::Remote => self.data_misses.incr(),
                _ => self.data_hits.incr(),
            }
        }
        Ok(page)
    }

    fn hint_range(&self, first: PageId, count: u32) {
        if count == 0 {
            return;
        }
        // A prefetched page must satisfy the same freshness floor a demand
        // read would use: the max evicted LSN over the hinted run is safe
        // for every member (GetPage@LSN may return newer).
        let min_lsn = (first.raw()..first.raw() + count as u64)
            .map(|raw| self.evicted.lsn_for(PageId::new(raw)))
            .max()
            .unwrap_or(Lsn::ZERO);
        self.cache.prefetch(first, count, min_lsn);
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
        if self.tracing() {
            self.txn_begun.lock().insert(txn, std::time::Instant::now());
        }
        self.pipeline.append(&LogRecord { txn, payload: LogPayload::TxnBegin });
    }

    fn log_txn_commit(&self, txn: TxnId, commit_ts: u64) -> Result<()> {
        let engine_ns = if self.tracing() {
            self.txn_begun.lock().remove(&txn).map_or(0, |t0| t0.elapsed().as_nanos() as u64)
        } else {
            0
        };
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
        let harden_start = std::time::Instant::now();
        self.pipeline.commit_wait(lsn)?;
        if let Some(ctx) = ctx {
            let harden_ns = harden_start.elapsed().as_nanos() as u64;
            let end_ns = ring.now_ns();
            let root_ns = engine_ns + harden_ns;
            let root_start = end_ns.saturating_sub(root_ns);
            ring.record_root(ctx, SpanKind::Commit, *node, root_start, root_ns);
            ring.record_child(ctx, SpanKind::CommitEngine, *node, root_start, engine_ns);
            ring.record_child(
                ctx,
                SpanKind::CommitHarden,
                *node,
                end_ns.saturating_sub(harden_ns),
                harden_ns,
            );
        }
        if self.trace.is_enabled() {
            let harden_ns = harden_start.elapsed().as_nanos() as u64;
            self.trace.record_commit(txn, lsn, engine_ns, harden_ns);
        }
        Ok(())
    }

    fn log_txn_abort(&self, txn: TxnId) {
        if self.tracing() {
            self.txn_begun.lock().remove(&txn);
        }
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

    #[test]
    fn traced_commit_records_commit_and_harden_spans() {
        use socrates_common::fault::FaultRegistry;
        use socrates_storage::{Fcb, MemFcb};
        use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
        use socrates_wal::pipeline::{BlockSink, LogPipelineConfig};

        /// Commit path never fetches; any miss is a test bug.
        struct NoRemote;
        impl socrates_storage::cache::PageSource for NoRemote {
            fn fetch_page(&self, id: PageId, _min_lsn: Lsn) -> Result<Page> {
                Err(Error::NotFound(format!("{id}")))
            }
        }

        let lz = Arc::new(LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 1 << 20, write_quorum: 1 },
            FaultRegistry::disabled(),
        ));
        let ring = Arc::new(SpanRing::new(64, 1));
        let pipeline = Arc::new(LogPipeline::new(
            Arc::clone(&lz) as Arc<dyn BlockSink>,
            vec![],
            Arc::new(|_p: PageId| socrates_common::PartitionId::new(0)),
            LogPipelineConfig::default(),
            Lsn::ZERO,
            (Arc::clone(&ring), NodeId::PRIMARY),
        ));
        let cache = Arc::new(TieredCache::with_defaults(8, None, Arc::new(NoRemote)));
        let io_on = |spans: Arc<SpanRing>| {
            LoggedPageIo::new(
                Arc::clone(&cache),
                Arc::clone(&pipeline),
                Arc::new(EvictedLsnMap::new(16)),
                1,
                Arc::new(TraceRecorder::disabled()),
                (spans, NodeId::PRIMARY),
                Arc::new(|_| {}),
            )
        };
        let io = io_on(Arc::clone(&ring));

        io.log_txn_begin(TxnId::new(1));
        io.log_txn_commit(TxnId::new(1), 42).unwrap();

        let spans = ring.spans();
        let root = spans.iter().find(|s| s.kind == SpanKind::Commit).expect("commit root");
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.trace_id, root.span_id);
        for kind in [SpanKind::CommitEngine, SpanKind::CommitHarden, SpanKind::WalHarden] {
            let child = spans
                .iter()
                .find(|s| s.kind == kind)
                .unwrap_or_else(|| panic!("missing {kind:?} child"));
            assert_eq!(child.trace_id, root.trace_id);
            assert_eq!(child.parent_id, root.span_id);
        }
        // Sampling off (ring disabled): nothing new is recorded.
        let before = spans.len();
        let quiet = io_on(Arc::new(SpanRing::disabled()));
        quiet.log_txn_begin(TxnId::new(2));
        quiet.log_txn_commit(TxnId::new(2), 43).unwrap();
        assert_eq!(ring.spans().len(), before);
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
