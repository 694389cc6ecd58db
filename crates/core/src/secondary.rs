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
//!
//! A scan reads the leaves it is about to read and lacks in memory on the
//! reader's thread ([`PageAccess::read_ahead`]): it issues a deadline read
//! for each one RBPEX holds, fetches the rest in one GetPages call, and
//! waits for the SSD reads only after the call, so their wait hides under
//! the round trip. The call keeps both rules: every page is registered
//! before it, the floor covers every page, and the reader waits for apply
//! to reach the newest page before any is installed. A page the batch
//! does not land is a demand miss.

use crate::fabric::Fabric;
use parking_lot::Mutex;
use socrates_common::lsn::{Watermark, RETRY_PAUSE};
use socrates_common::metrics::{Counter, CpuAccountant};
use socrates_common::{Error, Lsn, NodeId, PageId, Result, TxnId};
use socrates_engine::catalog::CATALOG_PAGE;
use socrates_engine::io::DataPageStats;
use socrates_engine::{Database, EvictedLsnMap, PageAccess, PageMutator, TxnManager};
use socrates_storage::cache::{CacheTier, Frame, MissTiming, PageRef, TieredCache};
use socrates_storage::page::Page;
use socrates_storage::pageops::{apply_page_op, PageOp};
use socrates_wal::record::LogPayload;
use std::collections::hash_map::Entry;
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

/// One page's registration: the readers fetching it, and the encoded page
/// ops the apply loop queued for it meanwhile.
struct Registration {
    /// Tells this registration from a later one of the same page.
    ticket: u64,
    readers: usize,
    ops: Vec<(Lsn, Vec<u8>)>,
}

/// The registered fetches, by page. A demand miss joins the registration in
/// place (a batch's, say), so that registration lasts until the page is
/// installed or its last reader gives up.
#[derive(Default)]
struct Registry {
    pages: HashMap<PageId, Registration>,
    next_ticket: u64,
}

impl Registry {
    /// Register one more reader of `id`, joining the registration in
    /// place if there is one; returns its ticket.
    fn join(&mut self, id: PageId) -> u64 {
        let next = &mut self.next_ticket;
        let reg = self.pages.entry(id).or_insert_with(|| {
            *next += 1;
            Registration { ticket: *next, readers: 0, ops: Vec::new() }
        });
        reg.readers += 1;
        reg.ticket
    }

    /// Register `id` unless a fetch of it is registered already.
    fn claim(&mut self, id: PageId) -> Option<u64> {
        (!self.pages.contains_key(&id)).then(|| self.join(id))
    }

    /// A reader of registration `ticket` of `id` gives up. The last one
    /// ends it; an install that ended it already leaves nothing to do.
    fn leave(&mut self, id: PageId, ticket: u64) {
        if let Entry::Occupied(mut reg) = self.pages.entry(id) {
            if reg.get().ticket == ticket {
                reg.get_mut().readers -= 1;
                if reg.get().readers == 0 {
                    reg.remove();
                }
            }
        }
    }
}

/// The secondary's page I/O: read-only, cache + GetPage@LSN with the two
/// race mitigations above.
pub struct SecondaryIo {
    cache: Arc<TieredCache>,
    evicted: Arc<EvictedLsnMap>,
    applied: Arc<Watermark>,
    pending: Mutex<Registry>,
    metrics: Arc<SecondaryMetrics>,
    data_pages: Arc<DataPageStats>,
    future_wait: Duration,
}

impl SecondaryIo {
    /// The page I/O of a secondary whose apply loop advances `applied`.
    fn new(
        cache: Arc<TieredCache>,
        evicted: Arc<EvictedLsnMap>,
        applied: Arc<Watermark>,
        metrics: Arc<SecondaryMetrics>,
    ) -> SecondaryIo {
        SecondaryIo {
            cache,
            evicted,
            applied,
            pending: Mutex::with_rank(
                Registry::default(),
                socrates_common::lock_rank::CORE_SECONDARY_PENDING,
                "secondary.pending_fetches",
            ),
            metrics,
            data_pages: Arc::default(),
            future_wait: Duration::from_secs(10),
        }
    }

    /// The freshness floor of a fetch of `ids`, taken after they are
    /// registered. It includes our own applied cursor: the apply loop
    /// drops records for non-resident pages, so for a never-resident page
    /// every record up to `applied` lives only on the page server — a
    /// lagging server must not hand us a version older than log we have
    /// already consumed.
    fn floor(&self, ids: &[PageId]) -> Lsn {
        ids.iter().map(|&id| self.evicted.lsn_for(id)).fold(self.applied.load(), Lsn::max)
    }

    /// A fetched page newer than `applied` is from the future: wait for
    /// local apply to reach `lsn`, the newest fetched PageLSN, so that
    /// traversals stay time-coherent.
    fn hold_for_apply(&self, lsn: Lsn, what: &dyn std::fmt::Display) -> Result<()> {
        if lsn <= self.applied.load() {
            return Ok(());
        }
        self.metrics.future_page_waits.incr();
        let applied = self.applied.wait_for(lsn, self.future_wait);
        if applied < lsn {
            return Err(Error::Unavailable(format!(
                "{what} is from the future (lsn {lsn} > applied {applied})"
            )));
        }
        Ok(())
    }

    /// Install a fetched page into its frame (tagged `ahead` for a batch),
    /// apply the records the apply loop queued for it meanwhile, and end
    /// its registration for every reader: the page is resident, so the
    /// apply loop applies later records to it, and a joined reader's
    /// install finds it in place.
    fn install(&self, page: Page, frame: Frame<'_>, ahead: Option<CacheTier>) -> Result<PageRef> {
        let id = page.page_id();
        let pref = frame.install(page, ahead);
        if let Some(reg) = self.pending.lock().pages.remove(&id) {
            let mut pg = pref.write();
            for (lsn, op_bytes) in reg.ops {
                if pg.page_lsn() < lsn {
                    let (op, _) = PageOp::decode(&op_bytes)?;
                    apply_page_op(&mut pg, &op, lsn)?;
                }
            }
        }
        Ok(pref)
    }

    /// Give up the registrations `(page, ticket)` of `regs`.
    fn unregister<'a>(&self, regs: impl Iterator<Item = (&'a PageId, &'a u64)>) {
        let mut pending = self.pending.lock();
        for (&id, &ticket) in regs {
            pending.leave(id, ticket);
        }
    }

    /// Fetch `batch` in one GetPages call, as [`PageAccess::read_ahead`]
    /// says, and install each page it lands tagged as remote. On any error
    /// every registration is given up and nothing is installed.
    fn fetch_batch(&self, batch: &[PageId], tickets: &[u64], probe_t0: Instant) {
        let probe = probe_t0.elapsed();
        let fetch_t0 = Instant::now();
        let fetched = (|| {
            let frames: Vec<Frame<'_>> =
                batch.iter().map(|_| self.cache.make_room()).collect::<Result<_>>()?;
            let fetched = self.cache.scheduler().fetch_batch(batch, self.floor(batch))?;
            let (fetch, sink_t0) = (fetch_t0.elapsed(), Instant::now());
            let newest = fetched.iter().map(|(page, _)| page.page_lsn()).max();
            self.hold_for_apply(newest.unwrap_or(Lsn::ZERO), &"a scan batch's page")?;
            Ok::<_, Error>((fetched, frames, fetch, sink_t0))
        })();
        let Ok((fetched, frames, fetch, sink_t0)) = fetched else {
            self.unregister(batch.iter().zip(tickets));
            return;
        };
        let landed = |id: &PageId| fetched.iter().any(|(page, _)| page.page_id() == *id);
        self.unregister(batch.iter().zip(tickets).filter(|(id, _)| !landed(id)));
        for ((page, meta), frame) in fetched.into_iter().zip(frames) {
            let id = page.page_id();
            if self.install(page, frame, Some(CacheTier::Remote)).is_ok() {
                let sink = sink_t0.elapsed();
                self.cache.record_fetch(id, MissTiming { probe, fetch, sink }, meta);
            }
        }
    }
}

impl PageAccess for SecondaryIo {
    /// A miss feeds this node's read-stage histograms like a primary's
    /// does. The sink stage here runs from the fetch returning to the
    /// page being usable, so it includes the future-page coherence wait
    /// and the queued-record drain — on a secondary that wait *is* part of
    /// what the reader paid for the miss.
    fn page(&self, id: PageId) -> Result<PageRef> {
        let probe_t0 = Instant::now();
        if let Some((p, tier)) = self.cache.get_if_resident(id)? {
            self.data_pages.note(&p, tier);
            return Ok(p);
        }
        // Register before fetching so concurrent log records are queued.
        let ticket = self.pending.lock().join(id);
        let probe = probe_t0.elapsed();
        let fetch_t0 = Instant::now();
        let fetched = (|| {
            // Through the cache's remote path so concurrent fetches of the
            // same cold page share one GetPage@LSN (single-flight).
            let (page, meta, frame) = self.cache.fetch_remote(id, self.floor(&[id]))?;
            let (fetch, sink_t0) = (fetch_t0.elapsed(), Instant::now());
            self.hold_for_apply(page.page_lsn(), &format_args!("page {id}"))?;
            Ok((page, meta, frame, fetch, sink_t0))
        })();
        let (page, meta, frame, fetch, sink_t0) = match fetched {
            Ok(f) => f,
            Err(e) => {
                self.unregister(std::iter::once((&id, &ticket)));
                return Err(e);
            }
        };
        let pref = self.install(page, frame, None)?;
        self.cache.record_miss(id, MissTiming { probe, fetch, sink: sink_t0.elapsed() }, meta);
        self.data_pages.note(&pref, CacheTier::Remote);
        Ok(pref)
    }

    /// A scan's read-ahead, over the first pages of `ids` not in memory,
    /// up to the cache's batch cap. It issues a deadline read for each one
    /// RBPEX holds, then fetches the others in one GetPages call, each
    /// registered, floored, held for apply and drained as a demand miss
    /// is, and only then waits for the SSD reads and installs their pages.
    /// A walk that needs one off-memory read in all leaves it to the
    /// demand path, and on any error the walk's demand reads fetch what
    /// the read-ahead did not install. Each page's first read reports the
    /// tier it came from.
    fn read_ahead(&self, ids: &[PageId]) {
        let probe_t0 = Instant::now();
        let wanted = self.cache.ahead_of_memory(ids);
        if wanted.len() < 2 {
            return;
        }
        let Ok((local, ssd_done)) = self.cache.read_local(&wanted) else { return };
        let read_locally = |id: &PageId| local.iter().any(|page| page.page_id() == *id);
        let missing = wanted.iter().filter(|&id| !read_locally(id) && !self.cache.resident(*id));
        // A page already registered is on its way to another reader.
        let (batch, tickets): (Vec<PageId>, Vec<u64>) = {
            let mut pending = self.pending.lock();
            missing.filter_map(|&id| Some((id, pending.claim(id)?))).unzip()
        };
        if !batch.is_empty() {
            self.fetch_batch(&batch, &tickets, probe_t0);
        }
        let _ = self.cache.install_local(local, ssd_done);
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

        let evicted_cb = Arc::clone(&evicted);
        // Secondaries post no prefetch hints: a background install could
        // land a page from the future without the coherence wait. A scan's
        // batch runs on the reader's thread instead (`read_ahead`).
        let cache = fabric.compute_cache(
            node,
            Arc::new(|_| {}), // read-only node: nothing to flush
            Arc::new(move |id, lsn| evicted_cb.note_eviction(id, lsn)),
        )?;
        let io = Arc::new(SecondaryIo::new(
            cache,
            Arc::clone(&evicted),
            Arc::clone(&applied),
            Arc::clone(&metrics),
        ));
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

    /// This node's page cache.
    pub fn cache(&self) -> &Arc<TieredCache> {
        &self.io.cache
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
            let mut pend = self.io.pending.lock();
            if let Some(reg) = pend.pages.get_mut(&page_id) {
                reg.ops.push((lsn, op_bytes.to_vec()));
                self.metrics.records_queued.incr();
                return Ok(());
            }
        }
        match self.io.cache.get_if_resident(page_id)? {
            Some((pref, _)) => {
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

#[cfg(test)]
mod tests;
