//! Page servers — the Socrates storage tier (paper §4.6).
//!
//! Each page server owns one partition of the database page space and
//! does three jobs:
//!
//! 1. **Apply log.** It pulls only the log blocks relevant to its
//!    partition from XLOG (using the blocks' out-of-band partition
//!    annotations) and slices each record into the partition's **layered
//!    page-version store**: deltas accumulate in an open L0 layer, seal
//!    into immutable L0 delta layers, and background compaction merges
//!    them into one L1 delta layer and images only the pages whose delta
//!    chain has grown deep (packed L1 image layers). Retention GC images
//!    the pages whose history it is about to retire, then drops the
//!    layers wholly below the PITR horizon.
//! 2. **Serve GetPage@LSN.** A request `getPage(X, X-LSN)` waits until the
//!    server's applied LSN reaches `X-LSN`, then returns the page — the
//!    freshness contract the compute tier's evicted-LSN map relies on.
//!    `get_page_at` serves **arbitrary historical LSNs** (the page's
//!    newest image ≤ LSN + ordered delta replay); a multi-page range read
//!    costs one device I/O per image its pages resolve to. Copy-on-write
//!    branches share parent layers zero-copy and diverge via `ingest`.
//! 3. **Checkpoint & back up.** It regularly ships modified pages to its
//!    XStore data blob, records the checkpointed LSN, and takes backups as
//!    constant-time XStore snapshots. During an XStore outage it keeps
//!    serving and applying from its local layers, remembers what could
//!    not be checkpointed, and catches up when the service returns
//!    (insulation).
//!
//! Page servers are *stateless* in the durability sense: the truth is
//! XStore + the log, so a lost page server is recreated by attaching the
//! blob and replaying from the recorded checkpoint LSN — and a brand-new
//! replica is **seeded asynchronously** while it is already serving
//! requests (misses fall through to XStore until seeding completes).

mod compactor;
pub use compactor::CompactionWorker;

use parking_lot::Mutex;
use socrates_common::fault::{sites as fault_sites, FaultOutcome, FaultRegistry};
use socrates_common::latency::precise_sleep;
use socrates_common::lsn::{AtomicLsn, Watermark, IDLE_WAIT, RETRY_PAUSE};
use socrates_common::metrics::{Counter, CpuAccountant, Histogram};
use socrates_common::obs::{SpanKind, SpanRing, TraceCtx};
use socrates_common::{BlobId, Error, Lsn, NodeId, PageId, PartitionId, Result};
use socrates_rbio::proto::{RbioRequest, RbioResponse};
use socrates_rbio::transport::RbioHandler;
use socrates_storage::fcb::Fcb;
use socrates_storage::layer::{Delta, DeltaLayer, ImageLayer, OpenLayer};
use socrates_storage::layermap::{LayerCounts, LayerMap};
use socrates_storage::page::{Page, PAGE_SIZE};
use socrates_storage::pageops::{apply_page_op, PageOp};
use socrates_wal::block::LogBlock;
use socrates_wal::record::LogPayload;
use socrates_xlog::{XLogService, PULL_BATCH_BYTES};
use socrates_xstore::{SnapshotId, XStore};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The background checkpointer runs once this many pages are dirty.
const CHECKPOINT_DIRTY_PAGES: usize = 256;

/// How long `branch_from` waits for the parent to reach the branch point.
const BRANCH_WAIT: Duration = Duration::from_secs(5);

/// Compaction images a page once this many deltas sit above its newest
/// image: the read amplification a served page may accumulate. Measured
/// against 2 and 4, 8 kept the serve stage flat while imaging the fewest
/// pages.
pub const IMAGE_CHAIN_DEPTH: usize = 8;

/// Static description of a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// The partition id.
    pub id: PartitionId,
    /// First page id owned by this partition.
    pub base_page: u64,
    /// Number of page ids owned.
    pub span: u64,
}

impl PartitionSpec {
    /// Whether `page` belongs to this partition.
    pub fn contains(&self, page: PageId) -> bool {
        page.raw() >= self.base_page && page.raw() < self.base_page + self.span
    }
}

/// Tuning knobs.
#[derive(Clone, Debug)]
pub struct PageServerConfig {
    /// GetPage@LSN wait deadline.
    pub get_page_timeout: Duration,
    /// Seal the open L0 delta layer once it retains this many bytes.
    pub layer_seal_bytes: u64,
    /// Schedule a background compaction once this many sealed L0s
    /// accumulate.
    pub layer_compact_threshold: usize,
    /// PITR retention: history further than this many log bytes behind
    /// the applied frontier may be garbage-collected (`u64::MAX` retains
    /// everything).
    pub retention_window_bytes: u64,
}

impl Default for PageServerConfig {
    fn default() -> Self {
        PageServerConfig {
            get_page_timeout: Duration::from_secs(10),
            layer_seal_bytes: 64 << 10,
            layer_compact_threshold: 4,
            retention_window_bytes: 64 << 20,
        }
    }
}

/// Counters.
#[derive(Debug, Default)]
pub struct PageServerMetrics {
    /// Log records applied.
    pub records_applied: Counter,
    /// GetPage requests served.
    pub pages_served: Counter,
    /// GetPage requests that had to wait for log apply.
    pub get_page_waits: Counter,
    /// Pages shipped to XStore by checkpoints.
    pub pages_checkpointed: Counter,
    /// Checkpoint attempts deferred by an XStore outage.
    pub checkpoints_deferred: Counter,
    /// Pages restored from XStore on a cache miss (seeding fallback).
    pub xstore_fallback_reads: Counter,
    /// GetPages requests served.
    pub range_requests: Counter,
    /// Pages served through GetPages (vs. one-page GetPage).
    pub range_pages_served: Counter,
    /// Open L0 layers sealed into immutable delta layers.
    pub layers_sealed: Counter,
    /// Compaction passes run (each merges the sealed L0s; it publishes an
    /// image only when some page's chain reached [`IMAGE_CHAIN_DEPTH`]).
    pub compactions_run: Counter,
    /// Pages materialized into packed images by compaction and GC.
    pub image_pages_written: Counter,
    /// Layer files dropped by retention GC.
    pub gc_layers_dropped: Counter,
    /// GetPage@LSN requests at an explicitly historical LSN.
    pub historical_reads: Counter,
    /// Wall time the apply loop spent doing productive work (pulling and
    /// applying non-empty batches), in microseconds. Delta over a window ÷
    /// window length = apply-loop utilization, the saturation signal
    /// socbench reports as `pageserver.apply_busy_ratio`.
    pub apply_busy_us: Counter,
    /// Deltas replayed per served page: the read amplification compaction
    /// bounds with [`IMAGE_CHAIN_DEPTH`].
    pub replay_depth: Histogram,
}

/// Everything a page server is handed by whoever runs it, as opposed to
/// what it *is* (its partition, devices and blobs). A fabric fills this in
/// once per server; [`PageServerWiring::unwired`] is the stand-alone form.
#[derive(Clone)]
pub struct PageServerWiring {
    /// Consulted by compaction (`ps.compact.merge`) and GC (`ps.gc.drop`).
    pub faults: FaultRegistry,
    /// Causal span sink for apply, serve, checkpoint and compaction spans.
    pub spans: Arc<SpanRing>,
    /// This server's fabric identity: the node its spans are attributed to.
    pub node: NodeId,
    /// Modelled CPU accounting for that node.
    pub cpu: Arc<CpuAccountant>,
    /// Runs scheduled compactions; without one, compaction only runs when
    /// driven explicitly via [`PageServer::compact_blocking`].
    pub compactor: Option<Arc<CompactionWorker>>,
}

impl PageServerWiring {
    /// No faults, no tracing, no background compaction.
    pub fn unwired() -> PageServerWiring {
        PageServerWiring {
            faults: FaultRegistry::disabled(),
            spans: Arc::new(SpanRing::disabled()),
            node: NodeId::page_server(0),
            cpu: Arc::new(CpuAccountant::new()),
            compactor: None,
        }
    }
}

/// Where the versions a page server did not apply itself live.
#[derive(Clone, Copy, PartialEq, Eq)]
enum History {
    /// Nowhere: every version is local (a created partition, or a branch
    /// of a seeded parent).
    Local,
    /// In the partition blob, seeded asynchronously (an attached server).
    Blob,
}

/// One page server.
pub struct PageServer {
    name: String,
    spec: PartitionSpec,
    config: PageServerConfig,
    /// The mutable head of the delta stack: WAL slices land here until
    /// the layer crosses `layer_seal_bytes` and is sealed into the map.
    /// With the map it is the server's only page state.
    open: Mutex<OpenLayer>,
    /// The immutable layer set: the base image, packed L1 images, sealed
    /// L0s, merged deltas, and the per-page index over them.
    layers: LayerMap,
    /// The base image, a dense page file on the server's SSD: attach-time
    /// blob content is seeded into it; blob fallback reads are adopted
    /// into it.
    base_image: Arc<ImageLayer>,
    xstore: Arc<XStore>,
    data_blob: BlobId,
    meta_blob: BlobId,
    xlog: Arc<XLogService>,
    /// The log-apply frontier: GetPage@LSN freshness waits, the fabric's
    /// `wait_applied` and this server's checkpoint loop sleep on it.
    applied: Watermark,
    /// LSN up to which everything is durably checkpointed in XStore.
    checkpointed: AtomicLsn,
    /// Reads strictly below this LSN are no longer materializable: GC
    /// dropped the layers that held their history.
    gc_floor: AtomicLsn,
    /// Pages written since they were last shipped, each with the LSN of
    /// its newest applied write: a checkpoint at `at` clears only the
    /// entries at or below `at`.
    dirty: Mutex<HashMap<PageId, Lsn>>,
    checkpoint_lock: Mutex<()>,
    /// Serializes compaction and GC passes; held while materializing
    /// pages through the layer map, hence ranked below it.
    compact_lock: Mutex<()>,
    /// At most one queued/running background compaction task.
    compacting: AtomicBool,
    /// Self-reference handed to scheduled compaction closures.
    self_weak: Weak<PageServer>,
    wiring: PageServerWiring,
    metrics: PageServerMetrics,
    stop: AtomicBool,
    seeded: AtomicBool,
    /// Whether a page no image covers may have its base in the partition
    /// blob: true only for servers built by [`attach`](Self::attach). A
    /// created server (or a branch) holds every version of its partition
    /// locally, so it never reads the blob.
    blob_base: bool,
    apply_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    ckpt_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    seed_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl PageServer {
    /// Create a page server for a brand-new partition: empty base image
    /// on `ssd`, fresh XStore blobs, apply cursor at `start_lsn`, collaborators
    /// from `wiring`.
    #[allow(clippy::too_many_arguments)] // a constructor: every dependency is explicit
    pub fn create(
        name: &str,
        spec: PartitionSpec,
        config: PageServerConfig,
        ssd: Arc<dyn Fcb>,
        xstore: Arc<XStore>,
        xlog: Arc<XLogService>,
        start_lsn: Lsn,
        wiring: PageServerWiring,
    ) -> Result<Arc<PageServer>> {
        let base_image = ImageLayer::base(start_lsn, ssd, spec.base_page, spec.span);
        let data_blob = xstore.create_blob(&format!("data/{name}"))?;
        let meta_blob = xstore.create_blob(&format!("data/{name}.meta"))?;
        xstore.write_at(meta_blob, 0, &start_lsn.offset().to_le_bytes())?;
        let layers = LayerMap::with_base(Arc::clone(&base_image));
        Ok(PageServer::build(
            name,
            spec,
            config,
            base_image,
            layers,
            xstore,
            data_blob,
            meta_blob,
            xlog,
            start_lsn,
            History::Local,
            Lsn::ZERO,
            wiring,
        ))
    }

    /// Attach to an *existing* partition blob (replacement after a page
    /// server loss, a replica, or a PITR restore target). The base image
    /// starts empty and is seeded asynchronously; the apply cursor resumes
    /// from the blob's recorded checkpoint LSN.
    #[allow(clippy::too_many_arguments)] // a constructor: every dependency is explicit
    pub fn attach(
        name: &str,
        spec: PartitionSpec,
        config: PageServerConfig,
        ssd: Arc<dyn Fcb>,
        xstore: Arc<XStore>,
        data_blob: BlobId,
        meta_blob: BlobId,
        xlog: Arc<XLogService>,
        wiring: PageServerWiring,
    ) -> Result<Arc<PageServer>> {
        let meta = xstore.read_at(meta_blob, 0, 8)?;
        let start_lsn = Lsn::new(u64::from_le_bytes(meta[0..8].try_into().unwrap()));
        let base_image = ImageLayer::base(start_lsn, ssd, spec.base_page, spec.span);
        let layers = LayerMap::with_base(Arc::clone(&base_image));
        Ok(PageServer::build(
            name,
            spec,
            config,
            base_image,
            layers,
            xstore,
            data_blob,
            meta_blob,
            xlog,
            start_lsn,
            History::Blob,
            Lsn::ZERO,
            wiring,
        ))
    }

    /// Fork a copy-on-write branch of `parent` at `at_lsn`: the child
    /// shares every parent layer at or below the branch point zero-copy
    /// (`Arc` clones, caps clipped to `at_lsn`) and diverges through its
    /// own open layer via [`ingest`](Self::ingest). The child checkpoints
    /// to its own fresh XStore blobs and is never attached to the log —
    /// do not call [`start`](Self::start) on it.
    pub fn branch_from(
        parent: &Arc<PageServer>,
        name: &str,
        at_lsn: Lsn,
        wiring: PageServerWiring,
    ) -> Result<Arc<PageServer>> {
        if !parent.is_seeded() {
            return Err(Error::InvalidState(format!(
                "cannot branch {}: its base image is still seeding",
                parent.name
            )));
        }
        let floor = parent.gc_floor.load();
        if at_lsn < floor {
            return Err(Error::InvalidArgument(format!(
                "branch point {at_lsn} is below the GC horizon {floor}"
            )));
        }
        parent.wait_fresh(at_lsn, BRANCH_WAIT)?;
        // Seal the parent's open layer so every pre-branch delta is in
        // the shareable immutable set. As on the apply path, the sealed
        // L0 is published into the map under the open-layer lock so no
        // concurrent parent read observes the deltas in neither place.
        {
            let mut open = parent.open.lock();
            if let Some(l) = open.seal() {
                parent.metrics.layers_sealed.incr();
                parent.layers.add_sealed(l);
            }
        }
        let layers = parent.layers.fork_at(at_lsn);
        // A GC pass racing the wait/seal/fork above may have advanced the
        // floor and retired layers at or below `at_lsn`, leaving the fork
        // with a hole the floor check at entry did not see. Re-validate
        // against the post-fork floor so the child's recorded horizon
        // never understates the layer set it actually inherited.
        let floor = parent.gc_floor.load();
        if at_lsn < floor {
            return Err(Error::InvalidArgument(format!(
                "branch point {at_lsn} fell below the GC horizon {floor} while forking"
            )));
        }
        let data_blob = parent.xstore.create_blob(&format!("data/{name}"))?;
        let meta_blob = parent.xstore.create_blob(&format!("data/{name}.meta"))?;
        parent.xstore.write_at(meta_blob, 0, &at_lsn.offset().to_le_bytes())?;
        Ok(PageServer::build(
            name,
            parent.spec,
            parent.config.clone(),
            Arc::clone(&parent.base_image),
            layers,
            Arc::clone(&parent.xstore),
            data_blob,
            meta_blob,
            Arc::clone(&parent.xlog),
            at_lsn,
            History::Local,
            floor,
            wiring,
        ))
    }

    #[allow(clippy::too_many_arguments)] // single assembly point for all three constructors
    fn build(
        name: &str,
        spec: PartitionSpec,
        config: PageServerConfig,
        base_image: Arc<ImageLayer>,
        layers: LayerMap,
        xstore: Arc<XStore>,
        data_blob: BlobId,
        meta_blob: BlobId,
        xlog: Arc<XLogService>,
        start_lsn: Lsn,
        history: History,
        gc_floor: Lsn,
        wiring: PageServerWiring,
    ) -> Arc<PageServer> {
        let blob_base = history == History::Blob;
        Arc::new_cyclic(|self_weak| PageServer {
            name: name.to_string(),
            spec,
            config,
            open: Mutex::with_rank(
                OpenLayer::new(),
                socrates_common::lock_rank::PS_OPEN_LAYER,
                "ps.open",
            ),
            layers,
            base_image,
            xstore,
            data_blob,
            meta_blob,
            xlog,
            applied: Watermark::new(start_lsn),
            checkpointed: AtomicLsn::new(start_lsn),
            gc_floor: AtomicLsn::new(gc_floor),
            dirty: Mutex::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::PS_DIRTY,
                "ps.dirty",
            ),
            checkpoint_lock: Mutex::with_rank(
                (),
                socrates_common::lock_rank::PS_CHECKPOINT,
                "ps.checkpoint_lock",
            ),
            compact_lock: Mutex::with_rank(
                (),
                socrates_common::lock_rank::PS_COMPACT,
                "ps.compact_lock",
            ),
            compacting: AtomicBool::new(false),
            self_weak: self_weak.clone(),
            wiring,
            metrics: PageServerMetrics::default(),
            stop: AtomicBool::new(false),
            seeded: AtomicBool::new(!blob_base),
            blob_base,
            apply_handle: Mutex::with_rank(
                None,
                socrates_common::lock_rank::PS_APPLY_HANDLE,
                "ps.apply_handle",
            ),
            ckpt_handle: Mutex::with_rank(
                None,
                socrates_common::lock_rank::PS_CKPT_HANDLE,
                "ps.ckpt_handle",
            ),
            seed_handle: Mutex::with_rank(
                None,
                socrates_common::lock_rank::PS_SEED_HANDLE,
                "ps.seed_handle",
            ),
        })
    }

    /// The server's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The partition this server owns.
    pub fn spec(&self) -> PartitionSpec {
        self.spec
    }

    /// Counters.
    pub fn metrics(&self) -> &PageServerMetrics {
        &self.metrics
    }

    /// Register this server's counters and LSN watermarks into the hub
    /// under `node`. The apply lag is derived against XLOG's released
    /// frontier — the log this server *could* have applied by now.
    pub fn register_metrics(
        self: &Arc<Self>,
        hub: &socrates_common::obs::MetricsHub,
        node: socrates_common::NodeId,
    ) {
        macro_rules! counter {
            ($name:literal, $field:ident) => {{
                let ps = Arc::clone(self);
                hub.register_counter_fn(node, $name, move || ps.metrics.$field.get());
            }};
        }
        counter!("records_applied", records_applied);
        counter!("pages_served", pages_served);
        counter!("get_page_waits", get_page_waits);
        counter!("pages_checkpointed", pages_checkpointed);
        counter!("checkpoints_deferred", checkpoints_deferred);
        counter!("xstore_fallback_reads", xstore_fallback_reads);
        counter!("range_requests", range_requests);
        counter!("range_pages_served", range_pages_served);
        counter!("layers_sealed", layers_sealed);
        counter!("compactions_run", compactions_run);
        counter!("image_pages_written", image_pages_written);
        counter!("gc_layers_dropped", gc_layers_dropped);
        counter!("historical_reads", historical_reads);
        counter!("apply_busy_us", apply_busy_us);
        let ps = Arc::clone(self);
        hub.register_histogram_fn(node, "replay_depth", move || ps.metrics.replay_depth.snapshot());
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "layer_l0_count", move || ps.layers.counts().l0 as i64);
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "layer_l1_images", move || ps.layers.counts().images as i64);
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "layer_merged_deltas", move || {
            ps.layers.counts().merged as i64
        });
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "layer_open_bytes", move || ps.open.lock().bytes() as i64);
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "compaction_backlog", move || {
            ps.layers.counts().l0.saturating_sub(ps.config.layer_compact_threshold) as i64
        });
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "gc_horizon_lsn", move || ps.gc_floor.load().offset() as i64);
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "applied_lsn", move || ps.applied.load().offset() as i64);
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "checkpointed_lsn", move || {
            ps.checkpointed.load().offset() as i64
        });
        let ps = Arc::clone(self);
        hub.register_gauge_fn(node, "apply_lag_bytes", move || {
            (ps.xlog.released_lsn().offset() as i64 - ps.applied.load().offset() as i64).max(0)
        });
    }

    /// The span sink and attribution node for ctx-carrying work, or `None`
    /// when `ctx` is unsampled.
    fn span_sink(&self, ctx: TraceCtx) -> Option<(&SpanRing, NodeId)> {
        ctx.sampled().then_some((&*self.wiring.spans, self.wiring.node))
    }

    /// The log-apply watermark.
    pub fn applied_lsn(&self) -> Lsn {
        self.applied.load()
    }

    /// Block until the apply watermark reaches `lsn` or `timeout` passes
    /// (or the server stops); returns the watermark then seen.
    pub fn wait_applied(&self, lsn: Lsn, timeout: Duration) -> Lsn {
        self.applied.wait_for(lsn, timeout)
    }

    /// Everything at or below this LSN is durable in XStore.
    pub fn checkpointed_lsn(&self) -> Lsn {
        self.checkpointed.load()
    }

    /// Whether asynchronous seeding has completed.
    pub fn is_seeded(&self) -> bool {
        // ordering: acquire — pairs with the release store in seed_loop so a
        // true result also publishes the seeded pages
        self.seeded.load(Ordering::Acquire)
    }

    /// The XStore blobs backing this partition (restore workflows).
    pub fn blobs(&self) -> (BlobId, BlobId) {
        (self.data_blob, self.meta_blob)
    }

    /// The layer index (tests assert zero-copy sharing against it).
    pub fn layers(&self) -> &LayerMap {
        &self.layers
    }

    /// Current layer-set sizes.
    pub fn layer_counts(&self) -> LayerCounts {
        self.layers.counts()
    }

    /// Reads strictly below this LSN error: GC dropped their history.
    pub fn gc_floor_lsn(&self) -> Lsn {
        self.gc_floor.load()
    }

    /// Start the background apply loop (and the seeding thread for
    /// attached servers).
    pub fn start(self: &Arc<Self>) {
        if !self.is_seeded() {
            let me = Arc::clone(self);
            *self.seed_handle.lock() = Some(
                std::thread::Builder::new()
                    .name(format!("{}-seed", self.name))
                    .spawn(move || me.seed_loop())
                    .expect("spawn seeder"),
            );
        }
        let me = Arc::clone(self);
        *self.apply_handle.lock() = Some(
            std::thread::Builder::new()
                .name(format!("{}-apply", self.name))
                .spawn(move || me.apply_loop())
                .expect("spawn apply loop"),
        );
        let me = Arc::clone(self);
        *self.ckpt_handle.lock() = Some(
            std::thread::Builder::new()
                .name(format!("{}-ckpt", self.name))
                .spawn(move || me.checkpoint_loop())
                .expect("spawn checkpoint loop"),
        );
    }

    /// Stop background threads and join them.
    pub fn stop(&self) {
        // ordering: relaxed — stop flag; the wakes and joins below are the
        // real sync points
        self.stop.store(true, Ordering::Relaxed);
        // The apply loop sleeps on XLOG's released frontier, the checkpoint
        // loop (and GetPage@LSN waiters, who fail now) on `applied`.
        self.xlog.wake_released();
        self.applied.wake_all();
        for handle in [&self.apply_handle, &self.ckpt_handle, &self.seed_handle] {
            if let Some(h) = handle.lock().take() {
                let _ = h.join();
            }
        }
    }

    // ---- log apply ----

    fn apply_loop(self: Arc<Self>) {
        // ordering: relaxed — shutdown flag; a late observation costs one iteration
        while !self.stop.load(Ordering::Relaxed) {
            if self.apply_once().is_err() {
                std::thread::sleep(RETRY_PAUSE);
            }
            // Sleep until log past our cursor is released (returns at once
            // when a failed or size-capped pull left some behind).
            self.xlog.wait_released(self.applied.load(), &self.stop);
        }
    }

    /// The background checkpointer: runs on its own thread so slow XStore
    /// writes never stall log apply (which would stall GetPage@LSN). The
    /// dirty map only grows when `applied` moves, so that is what it
    /// sleeps on.
    fn checkpoint_loop(self: Arc<Self>) {
        let mut seen = self.applied.load();
        // ordering: relaxed — shutdown flag; a late observation costs one iteration
        while !self.stop.load(Ordering::Relaxed) {
            if self.dirty.lock().len() < CHECKPOINT_DIRTY_PAGES {
                seen = self.applied.wait_for_unless(seen + 1, IDLE_WAIT, &self.stop);
            } else if self.checkpoint().is_err() {
                // Deferred (XStore outage): pace the retry.
                std::thread::sleep(RETRY_PAUSE);
            }
        }
    }

    /// Pull and apply one batch; returns the number of records applied.
    /// Public so deterministic tests can drive the server without threads.
    pub fn apply_once(&self) -> Result<usize> {
        let busy_t0 = std::time::Instant::now();
        let cursor = self.applied.load();
        let pull = self.xlog.pull_blocks(cursor, PULL_BATCH_BYTES, Some(self.spec.id))?;
        let mut applied = 0usize;
        for block in &pull.blocks {
            let span = self
                .span_sink(block.ctx())
                // soclint-allow: span-pairing a records()/apply error abandons
                // the whole pull; the per-block span is deliberately dropped
                // with it and the retried pull re-samples.
                .map(|(ring, node)| (ring, node, ring.now_ns()));
            applied += self.apply_block(block, Lsn::MAX)?;
            if let Some((ring, node, start)) = span {
                let dur = ring.now_ns().saturating_sub(start);
                ring.record_child(block.ctx(), SpanKind::PsApply, node, start, dur);
            }
        }
        if pull.next_lsn > cursor {
            self.applied.advance_to(pull.next_lsn);
        }
        self.metrics.records_applied.add(applied as u64);
        if applied > 0 {
            self.metrics.apply_busy_us.add(busy_t0.elapsed().as_micros() as u64);
        }
        Ok(applied)
    }

    /// Apply a slice of log blocks directly (bypassing XLOG), stopping at
    /// records with `lsn >= upto`. This is the PITR bootstrap path: "the
    /// log applied to bring the database all the way to the requested
    /// time" (paper §4.7), where the blocks come from the copied LT blobs.
    pub fn apply_blocks(&self, blocks: &[LogBlock], upto: Lsn) -> Result<usize> {
        let mut applied = 0usize;
        for block in blocks {
            if block.start_lsn() >= upto {
                break;
            }
            applied += self.apply_block(block, upto)?;
            self.applied.advance_to(block.end_lsn().min(upto));
        }
        self.metrics.records_applied.add(applied as u64);
        Ok(applied)
    }

    /// Apply `block`'s page writes to this partition with LSN below
    /// `upto`; returns how many were applied.
    fn apply_block(&self, block: &LogBlock, upto: Lsn) -> Result<usize> {
        let mut applied = 0usize;
        for rec in block.records()? {
            if rec.lsn >= upto {
                break;
            }
            if let LogPayload::PageWrite { page_id, op } = &rec.record.payload {
                if self.spec.contains(*page_id) {
                    self.apply_page_write(*page_id, op, rec.lsn)?;
                    applied += 1;
                }
            }
        }
        Ok(applied)
    }

    /// Slice one page write into the open layer. No page is read or
    /// built here: every read replays the delta through
    /// [`materialize`](Self::materialize), whose replay is LSN-guarded, so
    /// applying a record twice is harmless.
    fn apply_page_write(&self, page_id: PageId, op_bytes: &[u8], lsn: Lsn) -> Result<()> {
        // Model the apply CPU cost (decode + slice into the open layer).
        self.wiring.cpu.charge_us(2 + (op_bytes.len() as u64) / 512);
        PageOp::decode(op_bytes)?;
        // Records arrive in LSN order, so this is the page's newest write.
        self.dirty.lock().insert(page_id, lsn);
        let mut sealed = false;
        {
            let mut open = self.open.lock();
            open.push(page_id, lsn, op_bytes);
            if open.bytes() >= self.config.layer_seal_bytes {
                // Publish into the map while still holding the open-layer
                // lock (rank: PS_OPEN_LAYER 335 < STORAGE_LAYERMAP 545):
                // sealing empties the open layer, and these deltas cover
                // already-applied records, so `wait_fresh` does not gate a
                // concurrent reader. Publishing after release would open a
                // window where the deltas are visible in neither the open
                // layer nor the map, letting a read or a checkpoint
                // materialize a stale older version.
                if let Some(l) = open.seal() {
                    self.layers.add_sealed(l);
                    sealed = true;
                }
            }
        }
        if sealed {
            self.metrics.layers_sealed.incr();
            self.maybe_schedule_compaction();
        }
        Ok(())
    }

    /// Queue a background compaction on the worker once enough sealed
    /// L0s accumulate. At most one task is in flight per server.
    fn maybe_schedule_compaction(&self) {
        if self.layers.counts().l0 < self.config.layer_compact_threshold {
            return;
        }
        let Some(worker) = &self.wiring.compactor else { return };
        if self
            .compacting
            // ordering: acqrel CAS — the winner owns the single task slot; the
            // release store in the task closure reopens it, failure acquire
            // observes that reopen
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let Some(me) = self.self_weak.upgrade() else {
            // ordering: release — reopen the task slot for the next scheduler
            self.compacting.store(false, Ordering::Release);
            return;
        };
        let queued = worker.submit(move || {
            let ran = me.compact_blocking();
            let _ = me.gc();
            // ordering: release — reopen the task slot after the pass
            me.compacting.store(false, Ordering::Release);
            // L0s sealed while the pass ran would otherwise wait for the
            // next seal — on a read-only workload, forever. Only a pass
            // that did work re-checks: a refused or failed one must not
            // spin.
            if matches!(ran, Ok(true)) {
                me.maybe_schedule_compaction();
            }
        });
        if !queued {
            // ordering: release — reopen the task slot; the task never ran
            self.compacting.store(false, Ordering::Release);
        }
    }

    // ---- GetPage@LSN ----

    /// The GetPage@LSN protocol (paper §4.4): wait until applied ≥
    /// `min_lsn`, then serve the page.
    pub fn get_page(&self, page_id: PageId, min_lsn: Lsn) -> Result<Page> {
        self.get_page_ctx(page_id, min_lsn, TraceCtx::NONE)
    }

    /// [`get_page`](Self::get_page) carrying the caller's trace context,
    /// so an XStore fallback read lands in the trace as an `xstore.read`
    /// child span.
    pub fn get_page_ctx(&self, page_id: PageId, min_lsn: Lsn, ctx: TraceCtx) -> Result<Page> {
        self.check_partition(page_id)?;
        self.wait_fresh(min_lsn, self.config.get_page_timeout)?;
        self.wiring.cpu.charge_us(5);
        let at = self.applied.load();
        let (page, depth) =
            self.materialize(page_id, at, ctx)?.ok_or_else(|| never_written(page_id))?;
        self.note_served(depth);
        Ok(page)
    }

    /// GetPage at an **arbitrary historical LSN** between the GC horizon
    /// and the applied frontier: resolved as the page's newest image at
    /// or below `lsn` plus ordered replay of its deltas in
    /// `(image, lsn]`. Errors cleanly below the GC horizon.
    pub fn get_page_at(&self, page_id: PageId, lsn: Lsn) -> Result<Page> {
        self.get_page_at_ctx(page_id, lsn, TraceCtx::NONE)
    }

    /// [`get_page_at`](Self::get_page_at) carrying a trace context.
    pub fn get_page_at_ctx(&self, page_id: PageId, lsn: Lsn, ctx: TraceCtx) -> Result<Page> {
        self.check_partition(page_id)?;
        let floor = self.gc_floor.load();
        if lsn < floor {
            return Err(Error::InvalidArgument(format!(
                "{page_id}@{lsn}: below the GC horizon {floor}; that history was retired"
            )));
        }
        self.wait_fresh(lsn, self.config.get_page_timeout)?;
        self.wiring.cpu.charge_us(5);
        self.metrics.historical_reads.incr();
        let page = self.materialize(page_id, lsn, ctx)?;
        // The floor check above is only a snapshot: a GC pass racing the
        // materialization can retire the image/delta layers it was reading,
        // making the result a replay over a partial history. Re-check and
        // fail closed rather than return a silently wrong page.
        let floor = self.gc_floor.load();
        if lsn < floor {
            return Err(Error::InvalidArgument(format!(
                "{page_id}@{lsn}: below the GC horizon {floor}; that history was retired"
            )));
        }
        match page {
            Some((p, depth)) => {
                self.note_served(depth);
                Ok(p)
            }
            None => Err(Error::NotFound(format!("{page_id} has no version at or below {lsn}"))),
        }
    }

    /// Count one served page and the deltas its replay applied.
    fn note_served(&self, depth: usize) {
        self.metrics.pages_served.incr();
        self.metrics.replay_depth.record(depth as u64);
    }

    fn check_partition(&self, page_id: PageId) -> Result<()> {
        if !self.spec.contains(page_id) {
            return Err(Error::InvalidArgument(format!(
                "{page_id} is not in partition {} [{}, {})",
                self.spec.id,
                self.spec.base_page,
                self.spec.base_page + self.spec.span
            )));
        }
        Ok(())
    }

    /// How `(page_id, lsn)` resolves: open-layer deltas first, then the
    /// immutable plan — the image holding the page's newest version at or
    /// below `lsn` (if any) and the deltas above it. A seal between the
    /// two reads duplicates deltas, which the plan drops, and never loses
    /// any.
    fn plan(&self, page_id: PageId, lsn: Lsn) -> Plan {
        let mut deltas: Vec<Delta> = Vec::new();
        self.open.lock().deltas_for(page_id, Lsn::ZERO, lsn, &mut deltas);
        let image = self.layers.plan_into(page_id, lsn, &mut deltas);
        Plan { image, deltas }
    }

    /// Reconstruct `page_id` as of `lsn` from the layer stack — the
    /// resolution behind every read, checkpoint, compaction and GC.
    /// Returns the page and how many deltas were replayed onto it, or
    /// `None` when the page has no version at or below `lsn`.
    fn materialize(
        &self,
        page_id: PageId,
        lsn: Lsn,
        ctx: TraceCtx,
    ) -> Result<Option<(Page, usize)>> {
        let plan = self.plan(page_id, lsn);
        let base = match &plan.image {
            Some(image) => image.get(page_id)?,
            None => None,
        };
        self.replay(page_id, lsn, &plan.deltas, base, ctx)
    }

    /// Replay `deltas` (ascending) over `base`, the page's copy in the
    /// image its plan picked. Without one, the base is — for an attached
    /// server — the XStore blob, else an empty page under the deltas. The
    /// replay is LSN-guarded, so applying a delta twice is harmless.
    fn replay(
        &self,
        page_id: PageId,
        lsn: Lsn,
        deltas: &[Delta],
        mut base: Option<Page>,
        ctx: TraceCtx,
    ) -> Result<Option<(Page, usize)>> {
        if base.is_none() && self.blob_base {
            // The external base: this partition's blob. A packed image
            // always holds the pages planned to it, so the plan fell back
            // to the base image, which does not hold the page yet: every
            // local delta is above the attach point and in `deltas`, and
            // the blob copy — if it is not from the future — is the page
            // at attach.
            base = match self.read_page_from_xstore_ctx(page_id, ctx)? {
                Some(p) if p.page_lsn() <= lsn => Some(p),
                Some(p) => {
                    if self.is_seeded() {
                        // Seeding completed, so a page missing from the
                        // base image was born after attach: its delta
                        // history is complete and replays from empty.
                        None
                    } else {
                        return Err(Error::NotFound(format!(
                            "{page_id}@{lsn}: the base blob already holds {} and local \
                             history does not reach back",
                            p.page_lsn()
                        )));
                    }
                }
                None => None,
            };
            if let Some(p) = &base {
                // Adopt the blob read into the base image so the next miss
                // is a local device read (the async-seeding fast path).
                self.adopt(p);
            }
        }
        let mut page = match base {
            Some(p) => p,
            None if deltas.is_empty() => return Ok(None),
            None => Page::new(page_id, socrates_storage::page::PageType::Free),
        };
        let mut replayed = 0;
        for (l, op_bytes) in deltas {
            if *l > page.page_lsn() {
                let (op, _) = PageOp::decode(op_bytes)?;
                apply_page_op(&mut page, &op, *l)?;
                replayed += 1;
            }
        }
        Ok(Some((page, replayed)))
    }

    /// Multi-page read of `ids`, in their order: plan every page and, for
    /// each contiguous run of ids, issue one read of each image the run's
    /// plans picked — one device I/O over the pages resolved to it — then
    /// wait once, for the last read, and replay each page over its copy.
    /// The batch costs its slowest device read, not their sum. A page its
    /// image does not hold reaches the external base the single-page way.
    pub fn get_pages(&self, ids: &[PageId], min_lsn: Lsn) -> Result<Vec<Page>> {
        for id in ids {
            if !self.spec.contains(*id) {
                return Err(Error::InvalidArgument(format!(
                    "{id} is not in partition {}",
                    self.spec.id
                )));
            }
        }
        self.wait_fresh(min_lsn, self.config.get_page_timeout)?;
        self.wiring.cpu.charge_us(5 + ids.len() as u64);
        self.metrics.range_requests.incr();
        let at = self.applied.load();
        let plans: Vec<Plan> = ids.iter().map(|id| self.plan(*id, at)).collect();
        let mut bases: Vec<Option<Page>> = vec![None; ids.len()];
        let (mut run_start, mut done) = (0, Instant::now());
        for end in 1..=ids.len() {
            if end == ids.len() || ids[end].raw() != ids[end - 1].raw() + 1 {
                done = done.max(self.read_images(
                    &ids[run_start..end],
                    &plans[run_start..end],
                    &mut bases[run_start..end],
                )?);
                run_start = end;
            }
        }
        precise_sleep(done.saturating_duration_since(Instant::now()));
        let mut out = Vec::with_capacity(ids.len());
        for ((id, plan), base) in ids.iter().zip(&plans).zip(bases) {
            let (page, depth) = self
                .replay(*id, at, &plan.deltas, base, TraceCtx::NONE)?
                .ok_or_else(|| never_written(*id))?;
            // Counted in `range_pages_served`, not as a GetPage.
            self.metrics.replay_depth.record(depth as u64);
            out.push(page);
        }
        self.metrics.range_pages_served.add(ids.len() as u64);
        Ok(out)
    }

    /// Read the base copies of the contiguous run `ids` into `bases`: each
    /// image its `plans` picked, once, over the pages resolved to it.
    /// Returns when the last of those reads completes, without waiting.
    fn read_images(
        &self,
        ids: &[PageId],
        plans: &[Plan],
        bases: &mut [Option<Page>],
    ) -> Result<Instant> {
        let mut done = Instant::now();
        let mut read: Vec<&Arc<ImageLayer>> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let Some(image) = &plan.image else { continue };
            if read.iter().any(|r| Arc::ptr_eq(r, image)) {
                continue;
            }
            read.push(image);
            let mine = |p: &Plan| p.image.as_ref().is_some_and(|m| Arc::ptr_eq(m, image));
            let last = plans.iter().rposition(mine).unwrap_or(i);
            let (pages, read_done) = image.get_range_partial(&ids[i..=last])?;
            done = done.max(read_done);
            for (j, page) in (i..=last).zip(pages) {
                if mine(&plans[j]) {
                    bases[j] = page;
                }
            }
        }
        Ok(done)
    }

    /// The GetPage@LSN freshness wait: `applied ≥ min_lsn` or a timeout.
    fn wait_fresh(&self, min_lsn: Lsn, timeout: Duration) -> Result<()> {
        if self.applied.load() >= min_lsn {
            return Ok(());
        }
        self.metrics.get_page_waits.incr();
        let at = self.applied.wait_for(min_lsn, timeout);
        if at < min_lsn {
            return Err(Error::Timeout(format!(
                "GetPage wait: applied {at} < requested {min_lsn}"
            )));
        }
        Ok(())
    }

    // ---- checkpointing, backup, seeding ----

    /// Ship all dirty pages to XStore, each as of exactly the applied LSN
    /// `at` sampled on entry, and record `at` as the checkpointed LSN: the
    /// data blob is then the partition as of that LSN. During an XStore
    /// outage this returns `Unavailable` and keeps the dirty map intact
    /// (the insulation mode of §4.6).
    pub fn checkpoint(&self) -> Result<Lsn> {
        let _g = self.checkpoint_lock.lock();
        let at = self.applied.load();
        let batch: Vec<PageId> = {
            let dirty = self.dirty.lock();
            dirty.keys().copied().collect()
        };
        if batch.is_empty() {
            // Still advance the recorded LSN: everything applied is clean.
            self.write_checkpoint_meta(at)?;
            return Ok(at);
        }
        if !self.xstore.is_available() {
            self.metrics.checkpoints_deferred.incr();
            return Err(Error::Unavailable("xstore outage; checkpoint deferred".into()));
        }
        // Checkpoints are trace roots of their own: they are not caused by
        // any one commit, so they self-sample at the ring's rate.
        let ring = &self.wiring.spans;
        // soclint-allow: span-pairing a materialize/write_batch error
        // abandons the checkpoint; its root span is deliberately dropped.
        let ckpt_span = ring.try_sample().map(|ctx| (ctx, ring.now_ns()));
        // Aggregate the dirty pages into large batched writes (§4.6).
        for chunk in batch.chunks(128) {
            let mut images = Vec::with_capacity(chunk.len());
            for page_id in chunk {
                // A page first written after `at` has no version to ship.
                let Some((page, _)) = self.materialize(*page_id, at, TraceCtx::NONE)? else {
                    continue;
                };
                let off = (page_id.raw() - self.spec.base_page) * PAGE_SIZE as u64;
                images.push((off, page.to_io_bytes()));
                self.wiring.cpu.charge_us(10);
            }
            let writes: Vec<(u64, &[u8])> =
                images.iter().map(|(off, img)| (*off, img.as_slice())).collect();
            // soclint-allow: span-pairing a write_batch failure aborts the
            // checkpoint; the in-flight put child is dropped with it.
            let put_start = ckpt_span.map(|_| ring.now_ns());
            self.xstore.write_batch(self.data_blob, &writes)?;
            if let (Some((ctx, _)), Some(start)) = (ckpt_span, put_start) {
                let dur = ring.now_ns().saturating_sub(start);
                ring.record_child(ctx, SpanKind::XstorePut, NodeId::XSTORE, start, dur);
            }
            self.metrics.pages_checkpointed.add(writes.len() as u64);
        }
        // Every write at or below `at` is now in the blob. A page written
        // past `at` — before or during the shipping — stays dirty, so the
        // next checkpoint ships its newer version: clearing it would lose
        // that update for a server attaching at the recorded LSN.
        self.dirty.lock().retain(|_, newest| *newest > at);
        self.write_checkpoint_meta(at)?;
        if let Some((ctx, start)) = ckpt_span {
            let dur = ring.now_ns().saturating_sub(start);
            ring.record_root(ctx, SpanKind::PsCheckpoint, self.wiring.node, start, dur);
        }
        Ok(at)
    }

    fn write_checkpoint_meta(&self, lsn: Lsn) -> Result<()> {
        self.xstore.write_at(self.meta_blob, 0, &lsn.offset().to_le_bytes())?;
        self.checkpointed.advance_to(lsn);
        Ok(())
    }

    /// Take a backup: checkpoint, then snapshot the data blob. Returns the
    /// snapshot and the LSN it is consistent with. Constant-time in
    /// partition size (paper §3.5) — the snapshot is a metadata operation.
    pub fn backup(&self) -> Result<(SnapshotId, Lsn)> {
        let lsn = self.checkpoint()?;
        let snap = self.xstore.snapshot(self.data_blob)?;
        Ok((snap, lsn))
    }

    fn read_page_from_xstore(&self, page_id: PageId) -> Result<Option<Page>> {
        self.read_page_from_xstore_ctx(page_id, TraceCtx::NONE)
    }

    fn read_page_from_xstore_ctx(&self, page_id: PageId, ctx: TraceCtx) -> Result<Option<Page>> {
        let off = (page_id.raw() - self.spec.base_page) * PAGE_SIZE as u64;
        let len = self.xstore.blob_len(self.data_blob)?;
        if off + PAGE_SIZE as u64 > len {
            return Ok(None);
        }
        let span = self.span_sink(ctx).map(|(ring, _)| (ring, ring.now_ns()));
        let res = self.xstore.read_at(self.data_blob, off, PAGE_SIZE);
        if let Some((ring, start)) = span {
            // Attributed to the XStore tier: the blob service did the work.
            // Recorded even when the read fails — failed fallback reads are
            // exactly what an outage trace needs to show.
            let dur = ring.now_ns().saturating_sub(start);
            ring.record_child(ctx, SpanKind::XstoreRead, NodeId::XSTORE, start, dur);
        }
        let bytes = res?;
        if bytes.iter().all(|&b| b == 0) {
            return Ok(None); // never-written hole
        }
        self.metrics.xstore_fallback_reads.incr();
        Ok(Some(Page::from_io_bytes(page_id, &bytes)?))
    }

    /// Fold a blob copy of a page into the base image unless it is
    /// already there. A checkpoint racing the seeder may have overwritten
    /// the blob with a version newer than the base LSN; that version is
    /// reachable through the delta stack, so it never enters the
    /// attach-time image. A failed device write leaves the page to the
    /// blob.
    fn adopt(&self, page: &Page) {
        if page.page_lsn() <= self.base_image.at_lsn() && !self.base_image.contains(page.page_id())
        {
            let _ = self.base_image.put(page);
        }
    }

    fn seed_loop(self: Arc<Self>) {
        for off in 0..self.spec.span {
            let page_id = PageId::new(self.spec.base_page + off);
            // Retry this page until it is read: `seeded` promises a base
            // image with no hole, and a sibling replica checkpointing a
            // newer version into the shared blob would make a skipped
            // page look born after attach.
            loop {
                // ordering: relaxed — shutdown poll; a late observation costs one read
                if self.stop.load(Ordering::Relaxed) {
                    return;
                }
                if self.base_image.contains(page_id) {
                    break; // already adopted by a fallback read
                }
                match self.read_page_from_xstore(page_id) {
                    Ok(Some(page)) => {
                        self.adopt(&page);
                        break;
                    }
                    Ok(None) => break,
                    // Outage: pause, then read the same page again.
                    Err(_) => std::thread::sleep(RETRY_PAUSE),
                }
            }
        }
        // ordering: release — publishes every base-image page stored above to
        // readers that observe is_seeded() == true
        self.seeded.store(true, Ordering::Release);
        // Compaction refuses to run while seeding: pick up the L0s sealed
        // meanwhile.
        self.maybe_schedule_compaction();
    }

    /// Drive seeding synchronously (deterministic tests).
    pub fn seed_blocking(self: &Arc<Self>) {
        Arc::clone(self).seed_loop();
    }

    // ---- compaction, GC, branches ----

    /// Run one compaction pass synchronously: merge every currently
    /// sealed L0 (clipped to its cap) into one sorted delta layer, and
    /// image at the cutoff LSN only the touched pages whose chain of
    /// deltas above their newest image has reached [`IMAGE_CHAIN_DEPTH`]
    /// — a pass costs O(pages it changed), never O(partition). Returns
    /// whether a pass ran. Consults the `ps.compact.merge` fault site.
    pub fn compact_blocking(&self) -> Result<bool> {
        if !self.is_seeded() {
            // A page's base may still be only in the blob, where a
            // sibling's newer checkpoint can already have replaced it.
            return Ok(false);
        }
        let _g = self.compact_lock.lock();
        match self.wiring.faults.check(fault_sites::PS_COMPACT_MERGE) {
            Some(FaultOutcome::Err(e)) => return Err(e),
            Some(FaultOutcome::Drop) => return Ok(false),
            Some(FaultOutcome::Crash) => {
                self.stop();
                return Err(Error::Unavailable("fault: page server crashed mid-compaction".into()));
            }
            None => {}
        }
        let input = self.layers.compaction_input();
        if input.is_empty() {
            return Ok(false);
        }
        // Compactions are trace roots of their own (like checkpoints):
        // not caused by any one commit, so they self-sample.
        let ring = &self.wiring.spans;
        // soclint-allow: span-pairing a materialize/image error abandons
        // the compaction pass; its root span is deliberately dropped with
        // it.
        let span = ring.try_sample().map(|ctx| (ctx, ring.now_ns()));
        let cutoff = input.iter().map(|(l, cap)| l.end().min(*cap)).max().unwrap_or(Lsn::ZERO);
        let touched: BTreeSet<PageId> = input.iter().flat_map(|(l, _)| l.pages()).collect();
        let touched: Vec<PageId> = touched.into_iter().collect();
        let deep = self.layers.deep_pages(&touched, cutoff, IMAGE_CHAIN_DEPTH);
        let image = self.build_image(cutoff, &deep)?;
        let merged = DeltaLayer::merge(&input);
        self.layers.apply_compaction(&input, merged, image);
        self.metrics.compactions_run.incr();
        if let Some((ctx, start)) = span {
            let dur = ring.now_ns().saturating_sub(start);
            ring.record_root(ctx, SpanKind::PsCompact, self.wiring.node, start, dur);
        }
        Ok(true)
    }

    /// Materialize `pages` (ascending) at `at` into one packed image, or
    /// `None` when none of them has a version there.
    fn build_image(&self, at: Lsn, pages: &[PageId]) -> Result<Option<Arc<ImageLayer>>> {
        let mut built = Vec::with_capacity(pages.len());
        for page_id in pages {
            if let Some((page, _)) = self.materialize(*page_id, at, TraceCtx::NONE)? {
                built.push(page);
            }
            self.wiring.cpu.charge_us(4);
        }
        if built.is_empty() {
            return Ok(None);
        }
        self.metrics.image_pages_written.add(built.len() as u64);
        ImageLayer::packed(at, &built).map(Some)
    }

    /// Retention GC at `horizon = applied − retention window`, once the
    /// horizon is half a window past the floor: image at the horizon
    /// every page whose history below it would otherwise go, then drop
    /// every delta layer wholly at or below the horizon and every packed
    /// image older than it that newer images shadow. The floor becomes
    /// the horizon: reads below it fail closed. Returns the new floor
    /// when anything was retired. Consults the `ps.gc.drop` fault site.
    pub fn gc(&self) -> Result<Option<Lsn>> {
        match self.wiring.faults.check(fault_sites::PS_GC_DROP) {
            Some(FaultOutcome::Err(e)) => return Err(e),
            Some(FaultOutcome::Drop) => return Ok(None),
            Some(FaultOutcome::Crash) => {
                self.stop();
                return Err(Error::Unavailable("fault: page server crashed during gc".into()));
            }
            None => {}
        }
        if !self.is_seeded() {
            return Ok(None); // as for compaction: no image over a seeding base
        }
        let window = self.config.retention_window_bytes;
        let horizon = Lsn::new(self.applied.load().offset().saturating_sub(window));
        // Retire history in steps of half a window: a page whose deltas
        // straddle many passes is imaged once per step, not once per pass.
        if horizon.offset() < self.gc_floor.load().offset().saturating_add(window / 2) {
            return Ok(None);
        }
        let _g = self.compact_lock.lock();
        let plan = self.layers.gc_plan(horizon);
        let image = self.build_image(horizon, &plan.stragglers)?;
        // Raise the floor before anything goes: a read that plans after
        // the drop re-checks it and fails closed.
        self.gc_floor.advance_to(horizon);
        let dropped = self.layers.apply_gc(horizon, &plan.doomed, image);
        self.metrics.gc_layers_dropped.add(dropped as u64);
        Ok((dropped > 0).then_some(horizon))
    }

    /// Apply one divergent write to a branch (the branch's analogue of
    /// log apply — branches are not attached to the shared log).
    pub fn ingest(&self, page_id: PageId, op: &PageOp, lsn: Lsn) -> Result<()> {
        self.check_partition(page_id)?;
        if lsn <= self.applied.load() {
            return Err(Error::InvalidArgument(format!(
                "ingest at {lsn} does not advance the branch frontier {}",
                self.applied.load()
            )));
        }
        let mut bytes = Vec::new();
        op.encode(&mut bytes);
        self.apply_page_write(page_id, &bytes, lsn)?;
        self.applied.advance_to(lsn);
        self.metrics.records_applied.incr();
        Ok(())
    }
}

impl Drop for PageServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How one `(page, lsn)` resolves ([`PageServer::plan`]).
struct Plan {
    /// The image holding the page's newest version at or below the LSN.
    image: Option<Arc<ImageLayer>>,
    /// The deltas to replay over it, ascending.
    deltas: Vec<Delta>,
}

fn never_written(page_id: PageId) -> Error {
    Error::NotFound(format!("{page_id} has never been written"))
}

/// RBIO adapter: lets compute nodes reach the page server over the typed
/// protocol.
pub struct PageServerHandler {
    ps: Arc<PageServer>,
    faults: FaultRegistry,
}

impl PageServerHandler {
    /// Adapter consulting `faults` at the `pageserver.serve` site on every
    /// request. This is the one site with true crash semantics: a `Crash`
    /// action stops the page server's threads, so subsequent requests fail
    /// until the fabric restarts the partition.
    pub fn new(ps: Arc<PageServer>, faults: FaultRegistry) -> PageServerHandler {
        PageServerHandler { ps, faults }
    }

    fn check_serve_fault(&self, req: &RbioRequest) -> Result<()> {
        let lsn = match req {
            RbioRequest::GetPage { min_lsn, .. } | RbioRequest::GetPages { min_lsn, .. } => {
                Some(*min_lsn)
            }
            _ => None,
        };
        match self.faults.check_at(fault_sites::PAGESERVER_SERVE, lsn) {
            Some(FaultOutcome::Err(e)) => Err(e),
            Some(FaultOutcome::Drop) => {
                Err(Error::Unavailable("fault: page server dropped the request".into()))
            }
            Some(FaultOutcome::Crash) => {
                self.ps.stop();
                Err(Error::Unavailable("fault: page server crashed".into()))
            }
            None => Ok(()),
        }
    }
}

impl RbioHandler for PageServerHandler {
    fn handle(&self, req: RbioRequest) -> Result<RbioResponse> {
        self.handle_ctx(req, TraceCtx::NONE)
    }

    fn handle_ctx(&self, req: RbioRequest, ctx: TraceCtx) -> Result<RbioResponse> {
        self.check_serve_fault(&req)?;
        // A sampled GetPage records a `ps.serve` child under the caller's
        // span; its XStore fallback (if any) nests a further child.
        let span = self.ps.span_sink(ctx).map(|(ring, node)| (ring, node, ring.now_ns()));
        let record_serve = |resp: &Result<RbioResponse>| {
            if let (Some((ring, node, start)), Ok(_)) = (span, resp) {
                let dur = ring.now_ns().saturating_sub(start);
                ring.record_child(ctx, SpanKind::PsServe, node, start, dur);
            }
        };
        match req {
            RbioRequest::GetPage { page_id, min_lsn } => {
                let t0 = std::time::Instant::now();
                let resp =
                    self.ps.get_page_ctx(page_id, min_lsn, ctx).map(|page| RbioResponse::Page {
                        bytes: page.to_io_vec(),
                        serve_us: (t0.elapsed().as_micros() as u64).max(1),
                    });
                record_serve(&resp);
                resp
            }
            RbioRequest::GetPages { page_ids, min_lsn } => {
                let t0 = std::time::Instant::now();
                let resp = self.ps.get_pages(&page_ids, min_lsn).map(|pages| RbioResponse::Pages {
                    pages: pages.iter().map(Page::to_io_vec).collect(),
                    serve_us: (t0.elapsed().as_micros() as u64).max(1),
                });
                record_serve(&resp);
                resp
            }
            RbioRequest::Ping => Ok(RbioResponse::Pong),
            RbioRequest::GetAppliedLsn => {
                Ok(RbioResponse::AppliedLsn { lsn: self.ps.applied_lsn() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_common::TxnId;
    use socrates_storage::page::PageType;
    use socrates_storage::slotted::Slotted;
    use socrates_storage::MemFcb;
    use socrates_wal::block::BlockBuilder;
    use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
    use socrates_wal::record::LogRecord;
    use socrates_xlog::service::XLogConfig;
    use socrates_xstore::XStoreConfig;

    struct Fixture {
        lz: Arc<LandingZone>,
        xlog: Arc<XLogService>,
        xstore: Arc<XStore>,
        next_lsn: Lsn,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture::with_xstore_faults(FaultRegistry::disabled())
        }

        /// A fixture whose XStore consults `faults` at `xstore.put` /
        /// `xstore.get`.
        fn with_xstore_faults(faults: FaultRegistry) -> Fixture {
            let lz = Arc::new(LandingZone::new(
                vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
                LandingZoneConfig { capacity: 8 << 20, write_quorum: 1 },
                FaultRegistry::disabled(),
            ));
            let xstore = Arc::new(XStore::new(XStoreConfig::instant(), faults));
            let xlog = XLogService::new(
                Arc::clone(&lz) as Arc<dyn socrates_wal::LogStore>,
                Arc::new(MemFcb::new("xlog-ssd")) as Arc<dyn Fcb>,
                Arc::clone(&xstore),
                XLogConfig::default(),
                Lsn::ZERO,
                "xlog/lt",
            )
            .unwrap();
            Fixture { lz, xlog, xstore, next_lsn: Lsn::ZERO }
        }

        fn server(&self, name: &str, spec: PartitionSpec) -> Arc<PageServer> {
            self.server_with(name, spec, PageServerConfig::default(), PageServerWiring::unwired())
        }

        fn server_with(
            &self,
            name: &str,
            spec: PartitionSpec,
            config: PageServerConfig,
            wiring: PageServerWiring,
        ) -> Arc<PageServer> {
            PageServer::create(
                name,
                spec,
                config,
                Arc::new(MemFcb::new(format!("{name}-ssd"))) as Arc<dyn Fcb>,
                Arc::clone(&self.xstore),
                Arc::clone(&self.xlog),
                Lsn::ZERO,
                wiring,
            )
            .unwrap()
        }

        /// A replacement server over existing blobs.
        fn attach(&self, name: &str, data_blob: BlobId, meta_blob: BlobId) -> Arc<PageServer> {
            PageServer::attach(
                name,
                spec(0),
                PageServerConfig::default(),
                Arc::new(MemFcb::new(format!("{name}-ssd"))) as Arc<dyn Fcb>,
                Arc::clone(&self.xstore),
                data_blob,
                meta_blob,
                Arc::clone(&self.xlog),
                PageServerWiring::unwired(),
            )
            .unwrap()
        }

        /// Emit one log block of page ops and release it through XLOG.
        fn emit(&mut self, ops: &[(u64, PageOp)]) -> Lsn {
            let mut b = BlockBuilder::new(self.next_lsn, 1 << 16);
            for (page, op) in ops {
                let mut bytes = Vec::new();
                op.encode(&mut bytes);
                b.append(
                    &LogRecord {
                        txn: TxnId::new(1),
                        payload: LogPayload::PageWrite { page_id: PageId::new(*page), op: bytes },
                    },
                    Some(PartitionId::new((*page / 100) as u32)),
                );
            }
            let block = b.seal();
            self.lz.write_block(&block).unwrap();
            self.xlog.offer_block(block.clone());
            self.xlog.report_hardened(block.end_lsn());
            self.next_lsn = block.end_lsn();
            self.next_lsn
        }
    }

    fn spec(id: u32) -> PartitionSpec {
        PartitionSpec { id: PartitionId::new(id), base_page: id as u64 * 100, span: 100 }
    }

    fn insert_op(bytes: &[u8]) -> PageOp {
        PageOp::Insert { idx: 0, bytes: bytes.to_vec() }
    }

    #[test]
    fn applies_only_its_partition() {
        let mut f = Fixture::new();
        let ps0 = f.server("ps0", spec(0));
        let ps1 = f.server("ps1", spec(1));
        let end = f.emit(&[
            (5, PageOp::Format { ptype: PageType::BTreeLeaf }),
            (105, PageOp::Format { ptype: PageType::BTreeLeaf }),
            (5, insert_op(b"zero")),
            (105, insert_op(b"one")),
        ]);
        ps0.apply_once().unwrap();
        ps1.apply_once().unwrap();
        assert_eq!(ps0.applied_lsn(), end);
        assert_eq!(ps1.applied_lsn(), end);
        let p5 = ps0.get_page(PageId::new(5), Lsn::ZERO).unwrap();
        assert_eq!(Slotted::get(&p5, 0).unwrap(), b"zero");
        let p105 = ps1.get_page(PageId::new(105), Lsn::ZERO).unwrap();
        assert_eq!(Slotted::get(&p105, 0).unwrap(), b"one");
        // Wrong-partition requests are rejected.
        assert!(ps0.get_page(PageId::new(105), Lsn::ZERO).is_err());
        assert_eq!(ps0.metrics().records_applied.get(), 2);
    }

    #[test]
    fn get_page_at_lsn_waits_for_apply() {
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        let end1 = f.emit(&[(7, PageOp::Format { ptype: PageType::BTreeLeaf })]);
        ps.apply_once().unwrap();
        // Emit a second block but don't apply yet.
        let end2 = f.emit(&[(7, insert_op(b"fresh"))]);
        assert!(end2 > end1);
        // A request at end2 must block until apply catches up; drive apply
        // from another thread after a delay.
        let ps2 = Arc::clone(&ps);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            ps2.apply_once().unwrap();
        });
        let page = ps.get_page(PageId::new(7), end2).unwrap();
        assert_eq!(Slotted::get(&page, 0).unwrap(), b"fresh");
        assert_eq!(ps.metrics().get_page_waits.get(), 1);
        t.join().unwrap();
    }

    #[test]
    fn get_page_timeout_when_log_never_arrives() {
        let f = Fixture::new();
        let config =
            PageServerConfig { get_page_timeout: Duration::from_millis(50), ..Default::default() };
        let ps = f.server_with("ps0", spec(0), config, PageServerWiring::unwired());
        let err = ps.get_page(PageId::new(1), Lsn::new(1_000_000)).unwrap_err();
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn checkpoint_ships_pages_and_survives_replacement() {
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        let end = f.emit(&[
            (3, PageOp::Format { ptype: PageType::BTreeLeaf }),
            (3, insert_op(b"durable")),
            (4, PageOp::Format { ptype: PageType::VersionStore }),
        ]);
        ps.apply_once().unwrap();
        let ck = ps.checkpoint().unwrap();
        assert_eq!(ck, end);
        assert_eq!(ps.checkpointed_lsn(), end);
        assert_eq!(ps.metrics().pages_checkpointed.get(), 2);
        let (data_blob, meta_blob) = ps.blobs();
        drop(ps); // the page server dies

        // A replacement attaches to the same blobs and serves immediately.
        let ps2 = f.attach("ps0b", data_blob, meta_blob);
        assert_eq!(ps2.applied_lsn(), end, "cursor resumes from checkpoint meta");
        assert!(!ps2.is_seeded());
        let page = ps2.get_page(PageId::new(3), Lsn::ZERO).unwrap();
        assert_eq!(Slotted::get(&page, 0).unwrap(), b"durable");
        assert!(ps2.metrics().xstore_fallback_reads.get() >= 1);
        // Blocking seed completes and future reads come from the base image.
        ps2.seed_blocking();
        assert!(ps2.is_seeded());
        let before = ps2.metrics().xstore_fallback_reads.get();
        ps2.get_page(PageId::new(4), Lsn::ZERO).unwrap();
        assert_eq!(ps2.metrics().xstore_fallback_reads.get(), before);
    }

    #[test]
    fn xstore_outage_insulation() {
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        f.emit(&[(1, PageOp::Format { ptype: PageType::BTreeLeaf })]);
        ps.apply_once().unwrap();
        f.xstore.set_available(false);
        // Applying continues during the outage.
        let end = f.emit(&[(1, insert_op(b"during-outage"))]);
        ps.apply_once().unwrap();
        assert_eq!(ps.applied_lsn(), end);
        // Serving continues from the local layers.
        let page = ps.get_page(PageId::new(1), end).unwrap();
        assert_eq!(Slotted::get(&page, 0).unwrap(), b"during-outage");
        // Checkpoint defers.
        assert!(ps.checkpoint().unwrap_err().is_transient());
        assert_eq!(ps.metrics().checkpoints_deferred.get(), 1);
        // Recovery: checkpoint catches up.
        f.xstore.set_available(true);
        let ck = ps.checkpoint().unwrap();
        assert_eq!(ck, end);
        assert_eq!(ps.metrics().pages_checkpointed.get(), 1);
    }

    #[test]
    fn checkpoint_loop_backs_off_while_deferred() {
        let mut f = Fixture::new();
        let wide = PartitionSpec { id: PartitionId::new(0), base_page: 0, span: 1000 };
        let ps = f.server("ps0", wide);
        let dirty = CHECKPOINT_DIRTY_PAGES as u64 + 10;
        let ops: Vec<(u64, PageOp)> =
            (0..dirty).map(|p| (p, PageOp::Format { ptype: PageType::BTreeLeaf })).collect();
        let end = f.emit(&ops);
        ps.apply_once().unwrap();
        // Over the threshold with XStore down: every attempt defers, and
        // the loop must pace its retries instead of spinning a core.
        f.xstore.set_available(false);
        ps.start();
        std::thread::sleep(Duration::from_millis(100));
        let deferred = ps.metrics().checkpoints_deferred.get();
        assert!((1..=100).contains(&deferred), "{deferred} deferrals in a 100 ms outage");
        f.xstore.set_available(true);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ps.checkpointed_lsn() < end {
            assert!(std::time::Instant::now() < deadline, "checkpoint never caught up");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ps.metrics().pages_checkpointed.get(), dirty);
        ps.stop();
    }

    #[test]
    fn backup_is_a_snapshot_and_restores() {
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        f.emit(&[(2, PageOp::Format { ptype: PageType::BTreeLeaf }), (2, insert_op(b"backed-up"))]);
        ps.apply_once().unwrap();
        let (snap, lsn) = ps.backup().unwrap();
        assert_eq!(lsn, ps.applied_lsn());
        // Mutate after the backup.
        f.emit(&[(2, insert_op(b"after-backup"))]);
        ps.apply_once().unwrap();
        ps.checkpoint().unwrap();
        // Restore the snapshot into a new blob + new page server.
        let restored = f.xstore.restore_snapshot(snap, "data/restored").unwrap();
        let meta2 = f.xstore.create_blob("data/restored.meta").unwrap();
        f.xstore.write_at(meta2, 0, &lsn.offset().to_le_bytes()).unwrap();
        let ps2 = f.attach("restored", restored, meta2);
        let page = ps2.get_page(PageId::new(2), Lsn::ZERO).unwrap();
        // Only the pre-backup record is present.
        assert_eq!(Slotted::slot_count(&page), 1);
        assert_eq!(Slotted::get(&page, 0).unwrap(), b"backed-up");
        // The restored server can catch up from the log to the present.
        ps2.apply_once().unwrap();
        let page = ps2.get_page(PageId::new(2), Lsn::ZERO).unwrap();
        assert_eq!(Slotted::slot_count(&page), 2);
    }

    #[test]
    fn range_read_is_served_from_covering_cache() {
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        let mut ops = Vec::new();
        for p in 10..20u64 {
            ops.push((p, PageOp::Format { ptype: PageType::BTreeLeaf }));
        }
        f.emit(&ops);
        ps.apply_once().unwrap();
        let ids: Vec<PageId> = (10..20).map(PageId::new).collect();
        let pages = ps.get_pages(&ids, Lsn::ZERO).unwrap();
        assert_eq!(pages.len(), 10);
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(p.page_id(), PageId::new(10 + i as u64));
        }
        // A list with gaps, out of order, comes back in request order.
        let ids = [PageId::new(17), PageId::new(11), PageId::new(12), PageId::new(15)];
        let pages = ps.get_pages(&ids, Lsn::ZERO).unwrap();
        assert_eq!(pages.iter().map(|p| p.page_id()).collect::<Vec<_>>(), ids);
        // Out-of-partition pages rejected.
        let ids: Vec<PageId> = (95..105).map(PageId::new).collect();
        assert!(ps.get_pages(&ids, Lsn::ZERO).is_err());
    }

    #[test]
    fn a_batch_issues_each_runs_image_read_and_waits_once() {
        use socrates_storage::CountingFcb;
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        let ops: Vec<(u64, PageOp)> =
            (10..40).map(|p| (p, PageOp::Format { ptype: PageType::BTreeLeaf })).collect();
        f.emit(&ops);
        ps.apply_once().unwrap();
        ps.checkpoint().unwrap();
        let (data_blob, meta_blob) = ps.blobs();
        // A replacement seeded from the blob holds every page in its base
        // image, on the counted device.
        let ssd = Arc::new(CountingFcb::new(MemFcb::new("ps0b-ssd")));
        let b = PageServer::attach(
            "ps0b",
            spec(0),
            PageServerConfig::default(),
            Arc::clone(&ssd) as Arc<dyn Fcb>,
            Arc::clone(&f.xstore),
            data_blob,
            meta_blob,
            Arc::clone(&f.xlog),
            PageServerWiring::unwired(),
        )
        .unwrap();
        b.seed_blocking();
        // Three runs that are not adjacent: one read each, none waited alone.
        let ids: Vec<PageId> = [11, 12, 20, 21, 22, 35].into_iter().map(PageId::new).collect();
        let before = (ssd.reads(), ssd.deadline_reads());
        let pages = b.get_pages(&ids, Lsn::ZERO).unwrap();
        assert_eq!(pages.iter().map(|p| p.page_id()).collect::<Vec<_>>(), ids);
        assert_eq!((ssd.reads(), ssd.deadline_reads()), (before.0, before.1 + 3));
        // A single GetPage still waits out its read.
        b.get_page(PageId::new(30), Lsn::ZERO).unwrap();
        assert_eq!((ssd.reads(), ssd.deadline_reads()), (before.0 + 1, before.1 + 3));
    }

    #[test]
    fn ctx_carrying_blocks_record_apply_and_serve_spans() {
        let f = Fixture::new();
        let ring = Arc::new(SpanRing::new(32, 1));
        let wiring = PageServerWiring { spans: Arc::clone(&ring), ..PageServerWiring::unwired() };
        let ps = f.server_with("ps0", spec(0), PageServerConfig::default(), wiring);
        let root = ring.try_sample().expect("1-in-1 sampling");
        // Emit a block carrying the sampled ctx.
        let mut b = BlockBuilder::new(f.next_lsn, 1 << 16);
        let mut bytes = Vec::new();
        PageOp::Format { ptype: PageType::BTreeLeaf }.encode(&mut bytes);
        b.append(
            &LogRecord {
                txn: TxnId::new(1),
                payload: LogPayload::PageWrite { page_id: PageId::new(5), op: bytes },
            },
            Some(PartitionId::new(0)),
        );
        b.set_ctx(root);
        let block = b.seal();
        f.lz.write_block(&block).unwrap();
        f.xlog.offer_block(block.clone());
        f.xlog.report_hardened(block.end_lsn());
        ps.apply_once().unwrap();
        let spans = ring.spans();
        assert_eq!(spans.len(), 1, "apply must record one ps.apply span");
        assert_eq!(spans[0].kind, SpanKind::PsApply);
        assert_eq!(spans[0].trace_id, root.trace_id);
        assert_eq!(spans[0].parent_id, root.span_id);
        // Serving with a ctx records ps.serve under the caller's span.
        let handler = PageServerHandler::new(Arc::clone(&ps), FaultRegistry::disabled());
        let serve_ctx = ring.try_sample().expect("sampled");
        handler
            .handle_ctx(
                RbioRequest::GetPage { page_id: PageId::new(5), min_lsn: Lsn::ZERO },
                serve_ctx,
            )
            .unwrap();
        let spans = ring.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].kind, SpanKind::PsServe);
        assert_eq!(spans[1].parent_id, serve_ctx.span_id);
        // An unsampled request records nothing.
        handler
            .handle_ctx(
                RbioRequest::GetPage { page_id: PageId::new(5), min_lsn: Lsn::ZERO },
                TraceCtx::NONE,
            )
            .unwrap();
        assert_eq!(ring.spans().len(), 2);
    }

    /// A config that seals the open layer after every few small ops.
    fn tiny_layer_config() -> PageServerConfig {
        PageServerConfig { layer_seal_bytes: 64, layer_compact_threshold: 2, ..Default::default() }
    }

    fn layered_server(f: &Fixture, name: &str, spec: PartitionSpec) -> Arc<PageServer> {
        f.server_with(name, spec, tiny_layer_config(), PageServerWiring::unwired())
    }

    #[test]
    fn get_page_at_returns_each_retained_version() {
        let mut f = Fixture::new();
        let ps = layered_server(&f, "ps0", spec(0));
        // Version 0: format. Versions 1..=5: one insert each.
        let mut frontiers = vec![f.emit(&[(9, PageOp::Format { ptype: PageType::BTreeLeaf })])];
        for i in 1..=5u8 {
            frontiers.push(f.emit(&[(9, insert_op(&[i; 8]))]));
        }
        ps.apply_once().unwrap();
        assert!(
            ps.metrics().layers_sealed.get() >= 1,
            "tiny seal threshold must have produced L0s"
        );
        // Compact mid-history so resolution exercises image + replay.
        assert!(ps.compact_blocking().unwrap());
        for (i, at) in frontiers.iter().enumerate() {
            let p = ps.get_page_at(PageId::new(9), *at).unwrap();
            assert_eq!(Slotted::slot_count(&p), i, "version at frontier {i}");
        }
        // An LSN *between* two versions resolves to the older one.
        let mid = Lsn::new(frontiers[2].offset() + 1);
        assert!(mid < frontiers[3]);
        let p = ps.get_page_at(PageId::new(9), mid).unwrap();
        assert_eq!(Slotted::slot_count(&p), 2);
        // Reading a page before it existed is a clean NotFound.
        assert_eq!(ps.get_page_at(PageId::new(10), frontiers[5]).unwrap_err().kind(), "not_found");
        assert_eq!(ps.metrics().historical_reads.get(), 8);
    }

    #[test]
    fn compaction_preserves_latest_and_history() {
        let mut f = Fixture::new();
        let ps = layered_server(&f, "ps0", spec(0));
        let mut ops = vec![(11u64, PageOp::Format { ptype: PageType::BTreeLeaf })];
        for i in 0..20u8 {
            ops.push((11, insert_op(&[i; 16])));
        }
        let v1 = f.emit(&ops);
        ps.apply_once().unwrap();
        let before = ps.layer_counts();
        assert!(before.l0 >= 2, "several sealed L0s expected, got {before:?}");
        assert!(ps.compact_blocking().unwrap());
        let after = ps.layer_counts();
        assert_eq!(after.l0, 0, "compaction consumes every sealed L0");
        assert_eq!(after.images, before.images + 1);
        assert_eq!(after.merged, 1);
        // Latest read is image-backed now (mem may have been evicted).
        let p = ps.get_page(PageId::new(11), v1).unwrap();
        assert_eq!(Slotted::slot_count(&p), 20);
        // History below the new image still resolves through the merged
        // delta layer.
        let hist = ps.get_page_at(PageId::new(11), Lsn::new(v1.offset() / 2)).unwrap();
        assert!(Slotted::slot_count(&hist) < 20);
        // A second pass with no new L0s is a no-op.
        assert!(!ps.compact_blocking().unwrap());
    }

    #[test]
    fn gc_retires_history_and_floors_reads() {
        let mut f = Fixture::new();
        // Nearly everything is past retention.
        let config = PageServerConfig { retention_window_bytes: 1, ..tiny_layer_config() };
        let ps = f.server_with("ps0", spec(0), config, PageServerWiring::unwired());
        let early = f.emit(&[(5, PageOp::Format { ptype: PageType::BTreeLeaf })]);
        let mut ops = Vec::new();
        for i in 0..20u8 {
            ops.push((5u64, insert_op(&[i; 16])));
        }
        let v = f.emit(&ops);
        ps.apply_once().unwrap();
        assert!(ps.compact_blocking().unwrap());
        let floor = ps.gc().unwrap().expect("an image below the horizon exists");
        assert!(floor > Lsn::ZERO);
        assert_eq!(ps.gc_floor_lsn(), floor);
        assert!(ps.metrics().gc_layers_dropped.get() >= 1);
        // Below the floor: clean error, not a wrong page.
        let err = ps.get_page_at(PageId::new(5), early).unwrap_err();
        assert_eq!(err.kind(), "invalid_argument");
        // At and above the floor: still correct.
        let p = ps.get_page_at(PageId::new(5), v).unwrap();
        assert_eq!(Slotted::slot_count(&p), 20);
    }

    #[test]
    fn a_pass_images_only_the_page_whose_chain_is_deep() {
        let mut f = Fixture::new();
        let ps = layered_server(&f, "ps0", spec(0));
        let hub = socrates_common::obs::MetricsHub::new();
        ps.register_metrics(&hub, NodeId::page_server(0));
        // Page 20 is written IMAGE_CHAIN_DEPTH times; pages 21..26 once or
        // a few times, short of the depth.
        let mut ops = vec![(20u64, PageOp::Format { ptype: PageType::BTreeLeaf })];
        for i in 1..IMAGE_CHAIN_DEPTH as u8 {
            ops.push((20, insert_op(&[i; 16])));
        }
        for p in 21..26u64 {
            ops.push((p, PageOp::Format { ptype: PageType::BTreeLeaf }));
            for i in 0..(p - 21) as u8 {
                ops.push((p, insert_op(&[i; 16])));
            }
        }
        let end = f.emit(&ops);
        ps.apply_once().unwrap();
        assert!(ps.compact_blocking().unwrap());
        let images = ps.layers().image_layers();
        assert_eq!(images.len(), 2, "the base image and one packed image");
        let image = &images[1];
        assert_eq!(image.page_count(), 1);
        assert_eq!(image.packed_ids(), [PageId::new(20)]);
        assert_eq!(ps.metrics().image_pages_written.get(), 1);
        // Every page still resolves exactly, imaged or not.
        for p in 20..26u64 {
            let page = ps.get_page(PageId::new(p), end).unwrap();
            let want = if p == 20 { IMAGE_CHAIN_DEPTH - 1 } else { (p - 21) as usize };
            assert_eq!(Slotted::slot_count(&page), want, "page {p}");
        }
        // Both new metrics reach the hub: the imaged page replayed nothing
        // (the open layer is sealed past it), page 25 replayed all 5 of
        // its deltas.
        let snap = hub.snapshot();
        let node = NodeId::page_server(0);
        assert_eq!(
            snap.get(node, "image_pages_written"),
            Some(&socrates_common::obs::MetricValue::Counter(1))
        );
        match snap.get(node, "replay_depth") {
            Some(socrates_common::obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 6, "one sample per served page");
                assert_eq!(h.max_us, 5);
            }
            other => panic!("replay_depth not registered: {other:?}"),
        }
        // A second pass with nothing deep publishes no image.
        f.emit(&[(21, insert_op(b"shallow")), (22, insert_op(b"shallow"))]);
        ps.apply_once().unwrap();
        if ps.compact_blocking().unwrap() {
            assert_eq!(ps.layers().image_layers().len(), 2, "no page reached the depth");
        }
    }

    #[test]
    fn gc_frees_the_bytes_of_an_image_a_newer_one_shadows() {
        let mut f = Fixture::new();
        let config = PageServerConfig { retention_window_bytes: 1, ..tiny_layer_config() };
        let ps = f.server_with("ps0", spec(0), config, PageServerWiring::unwired());
        let deep = |f: &mut Fixture, tag: u8| {
            let ops: Vec<(u64, PageOp)> =
                // 48-byte ops: each seals the open layer behind it.
                (0..IMAGE_CHAIN_DEPTH as u8).map(|i| (9, insert_op(&[tag + i; 48]))).collect();
            f.emit(&ops)
        };
        f.emit(&[(9, PageOp::Format { ptype: PageType::BTreeLeaf })]);
        deep(&mut f, 0);
        ps.apply_once().unwrap();
        assert!(ps.compact_blocking().unwrap());
        let old = Arc::downgrade(&ps.layers().image_layers()[1]);
        let v = deep(&mut f, 100);
        ps.apply_once().unwrap();
        assert!(ps.compact_blocking().unwrap());
        assert_eq!(ps.layers().image_layers().len(), 3);
        assert!(old.upgrade().is_some());
        // Push the horizon past the newer image: the older one is shadowed.
        let end = f.emit(&[(10, PageOp::Format { ptype: PageType::BTreeLeaf })]);
        ps.apply_once().unwrap();
        let floor = ps.gc().unwrap().expect("layers below the horizon");
        assert_eq!(floor, Lsn::new(end.offset() - 1));
        assert!(old.upgrade().is_none(), "GC dropped the image but its bytes live on");
        let page = ps.get_page_at(PageId::new(9), end).unwrap();
        assert_eq!(Slotted::slot_count(&page), 2 * IMAGE_CHAIN_DEPTH);
        assert!(ps.get_page_at(PageId::new(9), v).is_err(), "below the floor");
    }

    #[test]
    fn branch_shares_layers_zero_copy_and_diverges() {
        let mut f = Fixture::new();
        let parent = layered_server(&f, "ps0", spec(0));
        let mut ops = vec![(7u64, PageOp::Format { ptype: PageType::BTreeLeaf })];
        for i in 0..10u8 {
            ops.push((7, insert_op(&[i; 16])));
        }
        let branch_point = f.emit(&ops);
        parent.apply_once().unwrap();
        let child =
            PageServer::branch_from(&parent, "branch0", branch_point, PageServerWiring::unwired())
                .unwrap();
        // Zero-copy: every child delta layer is the parent's allocation.
        let parent_layers = parent.layers().delta_layers();
        let child_layers = child.layers().delta_layers();
        assert!(!child_layers.is_empty());
        for cl in &child_layers {
            assert!(
                parent_layers.iter().any(|pl| Arc::ptr_eq(pl, cl)),
                "child delta layer not shared with parent"
            );
        }
        for ci in &child.layers().image_layers() {
            assert!(parent.layers().image_layers().iter().any(|pi| Arc::ptr_eq(pi, ci)));
        }
        // Pre-branch history serves identically from both.
        let from_parent = parent.get_page_at(PageId::new(7), branch_point).unwrap();
        let from_child = child.get_page_at(PageId::new(7), branch_point).unwrap();
        assert_eq!(from_parent.body(), from_child.body());
        // Parent moves on; the child does not see post-branch writes.
        let parent_v2 = f.emit(&[(7, insert_op(b"parent-only"))]);
        parent.apply_once().unwrap();
        assert_eq!(Slotted::slot_count(&parent.get_page(PageId::new(7), parent_v2).unwrap()), 11);
        assert_eq!(
            Slotted::slot_count(&child.get_page(PageId::new(7), Lsn::ZERO).unwrap()),
            10,
            "branch is isolated from parent's divergent future"
        );
        // The child diverges via ingest; the parent does not see it.
        let child_lsn = Lsn::new(branch_point.offset() + 1000);
        child
            .ingest(PageId::new(8), &PageOp::Format { ptype: PageType::BTreeLeaf }, child_lsn)
            .unwrap();
        child
            .ingest(PageId::new(8), &insert_op(b"child-only"), Lsn::new(child_lsn.offset() + 1))
            .unwrap();
        let p8 = child.get_page(PageId::new(8), Lsn::ZERO).unwrap();
        assert_eq!(Slotted::get(&p8, 0).unwrap(), b"child-only");
        assert_eq!(parent.get_page(PageId::new(8), Lsn::ZERO).unwrap_err().kind(), "not_found");
        // Child compaction stays private: parent layer set is unchanged.
        let parent_counts = parent.layer_counts();
        child.compact_blocking().unwrap();
        assert_eq!(parent.layer_counts(), parent_counts);
        // Stale ingest LSNs are rejected.
        assert!(child.ingest(PageId::new(8), &insert_op(b"x"), child_lsn).is_err());
    }

    #[test]
    fn compact_and_gc_fault_sites_fire() {
        use socrates_common::fault::sites;
        let mut f = Fixture::new();
        let faults = FaultRegistry::new(7);
        faults
            .install_spec(&format!("{}@always=error:unavailable", sites::PS_COMPACT_MERGE))
            .unwrap();
        faults.install_spec(&format!("{}@always=error:unavailable", sites::PS_GC_DROP)).unwrap();
        let wiring = PageServerWiring { faults: faults.clone(), ..PageServerWiring::unwired() };
        let ps = f.server_with("ps0", spec(0), tiny_layer_config(), wiring.clone());
        let mut ops = vec![(3u64, PageOp::Format { ptype: PageType::BTreeLeaf })];
        for i in 0..10u8 {
            ops.push((3, insert_op(&[i; 16])));
        }
        f.emit(&ops);
        ps.apply_once().unwrap();
        assert!(ps.compact_blocking().unwrap_err().is_transient());
        assert_eq!(faults.fired_count(sites::PS_COMPACT_MERGE), 1);
        assert_eq!(ps.metrics().compactions_run.get(), 0);
        // GC checks its own site (force a finite window so it gets there).
        let config = PageServerConfig { retention_window_bytes: 1, ..tiny_layer_config() };
        let ps2 = f.server_with("ps2", spec(1), config, wiring);
        assert!(ps2.gc().unwrap_err().is_transient());
        assert_eq!(faults.fired_count(sites::PS_GC_DROP), 1);
    }

    #[test]
    fn background_apply_thread() {
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        ps.start();
        let end =
            f.emit(&[(8, PageOp::Format { ptype: PageType::BTreeLeaf }), (8, insert_op(b"bg"))]);
        let applied = ps.wait_applied(end, Duration::from_secs(5));
        assert_eq!(applied, end, "apply thread never caught up");
        let page = ps.get_page(PageId::new(8), end).unwrap();
        assert_eq!(Slotted::get(&page, 0).unwrap(), b"bg");
        ps.stop();
    }

    #[test]
    fn created_server_never_reads_its_blob() {
        let mut f = Fixture::new();
        let ps = f.server("ps0", spec(0));
        let end = f.emit(&[
            (3, PageOp::Format { ptype: PageType::BTreeLeaf }),
            (3, insert_op(b"local")),
            (4, PageOp::Format { ptype: PageType::VersionStore }),
        ]);
        ps.apply_once().unwrap();
        let before: Vec<Page> =
            [3, 4].iter().map(|&p| ps.get_page(PageId::new(p), end).unwrap()).collect();
        // Checkpoint before any compaction has imaged the pages: reads
        // rebuild through the layer stack, never from the blob.
        ps.checkpoint().unwrap();
        assert_eq!(ps.metrics().pages_checkpointed.get(), 2);
        for (p, want) in [3u64, 4].iter().zip(&before) {
            let got = ps.get_page(PageId::new(*p), end).unwrap();
            assert_eq!(got.to_io_bytes(), want.to_io_bytes());
            let at = ps.get_page_at(PageId::new(*p), end).unwrap();
            assert_eq!(at.to_io_bytes(), want.to_io_bytes());
        }
        assert_eq!(ps.metrics().xstore_fallback_reads.get(), 0, "a created server read its blob");
    }

    #[test]
    fn replica_seeding_through_a_blob_read_error_keeps_every_page() {
        use socrates_common::fault::sites;
        let faults = FaultRegistry::new(5);
        let mut f = Fixture::with_xstore_faults(faults.clone());
        let a = f.server("ps0", spec(0));
        let v1 =
            f.emit(&[(3, PageOp::Format { ptype: PageType::BTreeLeaf }), (3, insert_op(b"v1"))]);
        a.apply_once().unwrap();
        a.checkpoint().unwrap();
        let (data_blob, meta_blob) = a.blobs();
        let b = f.attach("ps0b", data_blob, meta_blob);
        // Seeding reads blob pages 0, 1, 2, 3 in order: the read of page 3
        // fails once.
        faults.install_spec(&format!("{}@nth:4=error:unavailable", sites::XSTORE_GET)).unwrap();
        b.seed_blocking();
        assert_eq!(faults.fired_count(sites::XSTORE_GET), 1);
        assert!(b.is_seeded());
        // The sibling moves page 3 on and checkpoints it into the shared
        // blob: the blob copy is now newer than b's attach point.
        let v2 = f.emit(&[(3, insert_op(b"v2"))]);
        a.apply_once().unwrap();
        a.checkpoint().unwrap();
        b.apply_once().unwrap();
        let at_attach = b.get_page_at(PageId::new(3), v1).unwrap();
        assert_eq!(Slotted::slot_count(&at_attach), 1);
        assert_eq!(Slotted::get(&at_attach, 0).unwrap(), b"v1");
        let latest = b.get_page(PageId::new(3), v2).unwrap();
        assert_eq!(Slotted::slot_count(&latest), 2);
    }

    #[test]
    fn checkpoint_racing_apply_loses_no_update() {
        use socrates_common::fault::sites;
        let faults = FaultRegistry::new(9);
        let mut f = Fixture::with_xstore_faults(faults.clone());
        let ps = f.server("ps0", spec(0));
        f.emit(&[
            (5, PageOp::Format { ptype: PageType::BTreeLeaf }),
            (6, PageOp::Format { ptype: PageType::BTreeLeaf }),
        ]);
        ps.apply_once().unwrap();
        // Hold the checkpoint inside its batched page write.
        faults.install_spec(&format!("{}@nth:1=latency:200ms", sites::XSTORE_PUT)).unwrap();
        let ckpt = {
            let ps = Arc::clone(&ps);
            std::thread::spawn(move || ps.checkpoint().unwrap())
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while faults.fired_count(sites::XSTORE_PUT) == 0 {
            assert!(std::time::Instant::now() < deadline, "the checkpoint never wrote");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Meanwhile a newer record lands on a page of its batch.
        let newer = f.emit(&[(5, insert_op(b"newer"))]);
        ps.apply_once().unwrap();
        let first = ckpt.join().unwrap();
        assert!(first < newer, "the racing checkpoint sampled its LSN before the write");
        assert_eq!(ps.metrics().pages_checkpointed.get(), 2);
        {
            let dirty = ps.dirty.lock();
            assert!(dirty.contains_key(&PageId::new(5)), "the racing checkpoint lost the update");
            assert!(!dirty.contains_key(&PageId::new(6)));
        }
        assert_eq!(ps.checkpoint().unwrap(), newer);
        assert_eq!(ps.metrics().pages_checkpointed.get(), 3, "the next checkpoint ships it");
        let (data_blob, meta_blob) = ps.blobs();
        let replacement = f.attach("ps0b", data_blob, meta_blob);
        assert_eq!(replacement.applied_lsn(), newer);
        let page = replacement.get_page(PageId::new(5), newer).unwrap();
        assert_eq!(Slotted::get(&page, 0).unwrap(), b"newer");
    }

    #[test]
    fn l0s_sealed_during_a_compaction_pass_are_compacted_without_another_seal() {
        use socrates_common::fault::sites;
        let mut f = Fixture::new();
        // GC runs after every pass (the default window is never reached
        // here) and is slowed down, holding the pass's task slot while
        // more L0s seal.
        let faults = FaultRegistry::new(11);
        faults.install_spec(&format!("{}@always=latency:200ms", sites::PS_GC_DROP)).unwrap();
        let worker = CompactionWorker::start();
        let wiring = PageServerWiring {
            faults,
            compactor: Some(Arc::clone(&worker)),
            ..PageServerWiring::unwired()
        };
        let config = tiny_layer_config();
        let threshold = config.layer_compact_threshold;
        let ps = f.server_with("ps0", spec(0), config, wiring);
        let stream = |f: &mut Fixture, from: u8| {
            for i in from..from + 6 {
                f.emit(&[(9, insert_op(&[i; 48]))]);
            }
        };
        f.emit(&[(9, PageOp::Format { ptype: PageType::BTreeLeaf })]);
        // Hold the worker so the first pass queues behind this gate.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        assert!(worker.submit(move || {
            let _ = release_rx.recv();
        }));
        stream(&mut f, 0);
        ps.apply_once().unwrap();
        assert!(ps.layer_counts().l0 >= threshold, "the stream must seal enough L0s");
        release_tx.send(()).unwrap();
        // The pass has taken its input and sits in GC: seal more L0s now.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while ps.metrics().compactions_run.get() == 0 {
            assert!(std::time::Instant::now() < deadline, "the first pass never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        stream(&mut f, 100);
        ps.apply_once().unwrap();
        let sealed = ps.metrics().layers_sealed.get();
        // Wait for the worker to go idle: a marker task runs after every
        // task queued before it, and nothing is queued once the slot is
        // open after the marker.
        loop {
            let (tx, rx) = std::sync::mpsc::channel();
            assert!(worker.submit(move || tx.send(()).unwrap()));
            rx.recv().unwrap();
            if !ps.compacting.load(Ordering::Acquire) {
                break;
            }
        }
        assert_eq!(ps.metrics().layers_sealed.get(), sealed, "no further seal");
        let l0 = ps.layer_counts().l0;
        assert!(l0 < threshold, "{l0} L0s stranded after the worker went idle");
        worker.stop();
    }
}
