//! Secondary compute nodes (paper §4.5).
//!
//! A secondary runs the same engine read-only. It consumes the log
//! asynchronously from XLOG (it never needs to know who the primary is)
//! and implements Hyperscale's cache policy: log records for pages that
//! are not locally cached are simply ignored — with the two race
//! conditions the paper calls out handled explicitly:
//!
//! * **GetPage registration.** A read transaction about to fetch a page
//!   registers the fetch first; the apply loop queues log records for
//!   registered pages instead of dropping them, and the reader applies the
//!   queue when the page arrives. Without this, a record could fall into
//!   the gap between the residency check and the fetch completing.
//! * **Pages from the future.** GetPage@LSN may return a page newer than
//!   the secondary's applied LSN (the primary has moved on). Serving it
//!   immediately could tear a B-tree traversal across time (the paper's
//!   split example), so the fetch path pauses until the apply loop has
//!   consumed log up to the page's LSN — the paper's "pause and restart
//!   the traversal" made systematic.

use crate::fabric::Fabric;
use parking_lot::Mutex;
use socrates_common::lsn::{Watermark, RETRY_PAUSE};
use socrates_common::metrics::{Counter, CpuAccountant};
use socrates_common::{Error, Lsn, NodeId, PageId, Result, TxnId};
use socrates_engine::catalog::CATALOG_PAGE;
use socrates_engine::io::DataPageStats;
use socrates_engine::{Database, EvictedLsnMap, PageAccess, PageMutator, TxnManager};
use socrates_storage::cache::{CacheTier, MissTiming, PageRef, TieredCache};
use socrates_storage::page::Page;
use socrates_storage::pageops::{apply_page_op, PageOp};
use socrates_wal::record::LogPayload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Local transaction ids on secondaries live in a disjoint range so they
/// can never collide with primary transaction ids carried in versions.
const SECONDARY_TXN_BASE: u64 = 1 << 62;

/// Counters.
#[derive(Debug, Default)]
pub struct SecondaryMetrics {
    /// Log records applied to cached pages.
    pub records_applied: Counter,
    /// Log records ignored because the page was not cached.
    pub records_ignored: Counter,
    /// Records queued for a registered in-flight fetch.
    pub records_queued: Counter,
    /// Fetches that had to wait out a page from the future.
    pub future_page_waits: Counter,
}

/// Encoded page ops queued against an in-flight fetch, keyed by page.
type QueuedOps = HashMap<PageId, Vec<(Lsn, Vec<u8>)>>;

struct PendingFetches {
    map: Mutex<QueuedOps>,
}

/// The secondary's page I/O: read-only, cache + GetPage@LSN with the two
/// race mitigations above.
pub struct SecondaryIo {
    cache: Arc<TieredCache>,
    evicted: Arc<EvictedLsnMap>,
    applied: Arc<Watermark>,
    pending: Arc<PendingFetches>,
    metrics: Arc<SecondaryMetrics>,
    data_pages: Arc<DataPageStats>,
    future_wait: Duration,
}

impl PageAccess for SecondaryIo {
    /// A miss feeds this node's read-stage histograms like a primary's
    /// does. The sink stage here runs from the fetch returning to the
    /// page being usable, so it includes the future-page coherence wait
    /// and the queued-record drain — on a secondary that wait *is* part of
    /// what the reader paid for the miss.
    fn page(&self, id: PageId) -> Result<PageRef> {
        let probe_t0 = Instant::now();
        if let Some(p) = self.cache.get_if_resident(id)? {
            self.data_pages.note(&p, CacheTier::Memory);
            return Ok(p);
        }
        // Register before fetching so concurrent log records are queued.
        self.pending.map.lock().entry(id).or_default();
        let probe = probe_t0.elapsed();
        let fetch_t0 = Instant::now();
        let fetched = (|| {
            // Through the cache's remote path so concurrent fetches of the
            // same cold page share one GetPage@LSN (single-flight). The
            // freshness floor must include our own applied cursor: the
            // apply loop drops records for non-resident pages, so for a
            // never-resident page every record up to `applied` lives only
            // on the page server — a lagging server must not hand us a
            // version older than log we have already consumed.
            let floor = self.evicted.lsn_for(id).max(self.applied.load());
            let (page, meta, frame) = self.cache.fetch_remote(id, floor)?;
            let (fetch, sink_t0) = (fetch_t0.elapsed(), Instant::now());
            // A page from the future: wait for local apply to catch up so
            // traversals stay time-coherent.
            if page.page_lsn() > self.applied.load() {
                self.metrics.future_page_waits.incr();
                let applied = self.applied.wait_for(page.page_lsn(), self.future_wait);
                if applied < page.page_lsn() {
                    return Err(Error::Unavailable(format!(
                        "page {id} is from the future (lsn {} > applied {applied})",
                        page.page_lsn(),
                    )));
                }
            }
            Ok((page, meta, frame, fetch, sink_t0))
        })();
        let (page, meta, frame, fetch, sink_t0) = match fetched {
            Ok(f) => f,
            Err(e) => {
                self.pending.map.lock().remove(&id);
                return Err(e);
            }
        };
        let pref = frame.install(page);
        // Drain anything the apply loop queued while we fetched.
        if let Some(queued) = self.pending.map.lock().remove(&id) {
            let mut pg = pref.write();
            for (lsn, op_bytes) in queued {
                if pg.page_lsn() < lsn {
                    let (op, _) = PageOp::decode(&op_bytes)?;
                    apply_page_op(&mut pg, &op, lsn)?;
                }
            }
        }
        self.cache.record_miss(id, MissTiming { probe, fetch, sink: sink_t0.elapsed() }, meta);
        self.data_pages.note(&pref, CacheTier::Remote);
        Ok(pref)
    }
}

impl PageMutator for SecondaryIo {
    fn allocate(&self, _txn: TxnId) -> Result<PageId> {
        Err(Error::InvalidState("secondaries are read-only".into()))
    }

    fn mutate(&self, _txn: TxnId, _page: &mut Page, _op: &PageOp) -> Result<Lsn> {
        Err(Error::InvalidState("secondaries are read-only".into()))
    }
}

/// A secondary compute node.
pub struct Secondary {
    node: NodeId,
    db: std::sync::OnceLock<Database>,
    io: Arc<SecondaryIo>,
    tm: Arc<TxnManager>,
    fabric: Arc<Fabric>,
    applied: Arc<Watermark>,
    metrics: Arc<SecondaryMetrics>,
    cpu: Arc<CpuAccountant>,
    stop: Arc<AtomicBool>,
    apply_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Secondary {
    /// Spin up secondary `index`, consuming log from `start_lsn` (the
    /// deployment passes the current released frontier; the cache warms
    /// on demand).
    pub fn launch(fabric: Arc<Fabric>, index: u32, start_lsn: Lsn) -> Result<Arc<Secondary>> {
        let node = NodeId::secondary(index);
        let cpu = fabric.cpu.accountant(node);
        let evicted = Arc::new(EvictedLsnMap::new(1 << 16));
        // First reads must reflect at least the node's starting point.
        evicted.raise_floor(start_lsn);
        let applied = Arc::new(Watermark::new(start_lsn));
        let metrics = Arc::new(SecondaryMetrics::default());
        let pending = Arc::new(PendingFetches {
            map: Mutex::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::CORE_SECONDARY_PENDING,
                "secondary.pending_fetches",
            ),
        });

        let evicted_cb = Arc::clone(&evicted);
        // Secondaries get the scheduler's single-flight dedupe but post no
        // prefetch hints: a background install could land a page from the
        // future without the coherence wait below.
        let cache = fabric.compute_cache(
            node,
            Arc::new(|_| {}), // read-only node: nothing to flush
            Arc::new(move |id, lsn| evicted_cb.note_eviction(id, lsn)),
        )?;
        let io = Arc::new(SecondaryIo {
            cache,
            evicted: Arc::clone(&evicted),
            applied: Arc::clone(&applied),
            pending: Arc::clone(&pending),
            metrics: Arc::clone(&metrics),
            data_pages: Arc::default(),
            future_wait: Duration::from_secs(10),
        });
        let tm = Arc::new(TxnManager::with_base(SECONDARY_TXN_BASE));
        let sec = Arc::new(Secondary {
            node,
            db: std::sync::OnceLock::new(),
            io: Arc::clone(&io),
            tm: Arc::clone(&tm),
            fabric,
            applied,
            metrics,
            cpu,
            stop: Arc::new(AtomicBool::new(false)),
            apply_handle: Mutex::with_rank(
                None,
                socrates_common::lock_rank::CORE_SECONDARY_APPLY_HANDLE,
                "secondary.apply_handle",
            ),
        });
        sec.register_metrics();
        // Start applying *before* opening the catalog: the catalog fetch
        // may land a page from the future and must be able to wait for
        // the apply loop to catch up.
        let me = Arc::clone(&sec);
        *sec.apply_handle.lock() = Some(
            std::thread::Builder::new()
                .name(format!("{node}-apply"))
                .spawn(move || me.apply_loop())
                .expect("spawn secondary apply loop"),
        );
        let db = Database::open(io as Arc<dyn PageMutator>, tm)?;
        sec.db.set(db).ok().expect("db initialised once");
        Ok(sec)
    }

    /// The embedded (read-only) database.
    pub fn db(&self) -> &Database {
        self.db.get().expect("secondary database is initialised at launch")
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Counters.
    pub fn metrics(&self) -> &SecondaryMetrics {
        &self.metrics
    }

    /// This node's modelled CPU accountant.
    pub fn cpu(&self) -> &Arc<CpuAccountant> {
        &self.cpu
    }

    /// Log-apply watermark.
    pub fn applied_lsn(&self) -> Lsn {
        self.applied.load()
    }

    /// Wait until this secondary has applied log up to `lsn`.
    pub fn wait_applied(&self, lsn: Lsn, timeout: Duration) -> Result<()> {
        let applied = self.applied.wait_for(lsn, timeout);
        if applied < lsn {
            return Err(Error::Timeout(format!("{} stuck at {applied} < {lsn}", self.node)));
        }
        Ok(())
    }

    /// Register this node's counters and watermarks into the deployment
    /// hub. Closures capture the XLOG service (never the fabric, which
    /// owns the hub — that would be a reference cycle).
    fn register_metrics(&self) {
        let hub = &self.fabric.hub;
        macro_rules! counter {
            ($name:literal, $field:ident) => {{
                let m = Arc::clone(&self.metrics);
                hub.register_counter_fn(self.node, $name, move || m.$field.get());
            }};
        }
        counter!("records_applied", records_applied);
        counter!("records_ignored", records_ignored);
        counter!("records_queued", records_queued);
        counter!("future_page_waits", future_page_waits);
        self.io.data_pages.register(hub, self.node);
        let applied = Arc::clone(&self.applied);
        hub.register_gauge_fn(self.node, "applied_lsn", move || applied.load().offset() as i64);
        let applied = Arc::clone(&self.applied);
        let xlog = Arc::clone(&self.fabric.xlog);
        hub.register_gauge_fn(self.node, "apply_lag_bytes", move || {
            (xlog.released_lsn().offset() as i64 - applied.load().offset() as i64).max(0)
        });
    }

    /// Stop the apply loop (failover promotion, scale-down) and retire
    /// this node's metrics from the hub.
    pub fn stop(&self) {
        // ordering: relaxed — stop flag; the wake and join below are the
        // real sync points
        self.stop.store(true, Ordering::Relaxed);
        self.fabric.xlog.wake_released();
        if let Some(h) = self.apply_handle.lock().take() {
            let _ = h.join();
        }
        self.fabric.hub.unregister_node(self.node);
    }

    fn apply_loop(self: Arc<Self>) {
        // ordering: relaxed — shutdown flag; a late observation costs one iteration
        while !self.stop.load(Ordering::Relaxed) {
            if self.apply_once().is_err() {
                std::thread::sleep(RETRY_PAUSE);
            }
            // Sleep until log past our cursor is released.
            self.fabric.xlog.wait_released(self.applied.load(), &self.stop);
        }
    }

    /// Apply one batch of log; returns records processed. Public so tests
    /// can drive a secondary deterministically.
    pub fn apply_once(&self) -> Result<usize> {
        let cursor = self.applied.load();
        let pull = self.fabric.xlog.pull_blocks(cursor, socrates_xlog::PULL_BATCH_BYTES, None)?;
        let mut processed = 0usize;
        let mut catalog_floor: Option<Lsn> = None;
        for block in &pull.blocks {
            for rec in block.records()? {
                processed += 1;
                self.cpu.charge_us(1);
                match &rec.record.payload {
                    LogPayload::TxnBegin => self.tm.apply_begin(rec.record.txn),
                    LogPayload::TxnCommit { commit_ts } => {
                        self.tm.apply_commit(rec.record.txn, *commit_ts)
                    }
                    LogPayload::TxnAbort => self.tm.apply_abort(rec.record.txn),
                    LogPayload::PageWrite { page_id, op } => {
                        self.apply_page_write(*page_id, op, rec.lsn)?;
                        if *page_id == CATALOG_PAGE {
                            catalog_floor = Some(rec.lsn);
                        }
                    }
                    LogPayload::Checkpoint { .. }
                    | LogPayload::AllocPages { .. }
                    | LogPayload::Noop { .. } => {}
                }
            }
        }
        if let Some(lsn) = catalog_floor {
            // DDL happened: make sure a catalog refetch can't be stale,
            // then reload (if the database has finished opening). This
            // must precede advancing `applied`: a reader released by
            // wait_applied expects the catalog to reflect the DDL, and
            // page application is LSN-idempotent, so an error here (the
            // batch gets re-pulled) is safe.
            self.io.evicted.note_eviction(CATALOG_PAGE, lsn);
            if let Some(db) = self.db.get() {
                db.reload_catalog()?;
            }
        }
        if pull.next_lsn > cursor {
            self.applied.advance_to(pull.next_lsn);
        }
        Ok(processed)
    }

    fn apply_page_write(&self, page_id: PageId, op_bytes: &[u8], lsn: Lsn) -> Result<()> {
        // A fetch in flight? Queue for the reader to drain.
        {
            let mut pend = self.io.pending.map.lock();
            if let Some(q) = pend.get_mut(&page_id) {
                q.push((lsn, op_bytes.to_vec()));
                self.metrics.records_queued.incr();
                return Ok(());
            }
        }
        match self.io.cache.get_if_resident(page_id)? {
            Some(pref) => {
                let mut page = pref.write();
                if page.page_lsn() < lsn {
                    let (op, _) = PageOp::decode(op_bytes)?;
                    apply_page_op(&mut page, &op, lsn)?;
                }
                self.metrics.records_applied.incr();
            }
            None => {
                // Hyperscale policy: not cached → ignored. But the page's
                // LSN floor must rise, or a later fetch could accept a
                // stale copy from a lagging page server.
                self.io.evicted.note_eviction(page_id, lsn);
                self.metrics.records_ignored.incr();
            }
        }
        Ok(())
    }
}

impl Drop for Secondary {
    fn drop(&mut self) {
        self.stop();
    }
}
