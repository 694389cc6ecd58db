//! The XLOG service implementation.

use parking_lot::Mutex;
use socrates_common::lsn::{AtomicLsn, Watermark, IDLE_WAIT, RETRY_PAUSE};
use socrates_common::metrics::Counter;
use socrates_common::{BlobId, Error, Lsn, PartitionId, Result};
use socrates_storage::Fcb;
use socrates_wal::block::{LogBlock, BLOCK_HEADER};
use socrates_wal::ring;
use socrates_wal::store::LogStore;
use socrates_xstore::XStore;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// XLOG tuning knobs.
#[derive(Clone, Debug)]
pub struct XLogConfig {
    /// Byte budget of the in-memory sequence map (hot tail of the log).
    pub sequence_map_bytes: usize,
    /// Capacity of the local SSD block cache (second tier).
    pub ssd_cache_bytes: u64,
    /// Consumer lease time-to-live.
    pub lease_ttl: Duration,
}

/// Max bytes a log consumer (page server, secondary) pulls per apply batch.
pub const PULL_BATCH_BYTES: usize = 1 << 20;

impl Default for XLogConfig {
    fn default() -> Self {
        XLogConfig {
            sequence_map_bytes: 8 << 20,
            ssd_cache_bytes: 32 << 20,
            lease_ttl: Duration::from_secs(30),
        }
    }
}

/// Service counters.
#[derive(Debug, Default)]
pub struct XLogMetrics {
    /// Blocks offered by the primary (including duplicates).
    pub blocks_offered: Counter,
    /// Blocks released to the broker after hardening.
    pub blocks_released: Counter,
    /// Gap blocks refetched from the landing zone.
    pub gaps_filled_from_lz: Counter,
    /// Duplicate/stale offers dropped.
    pub duplicates_dropped: Counter,
    /// Blocks destaged to SSD + LT.
    pub blocks_destaged: Counter,
    /// Bytes destaged to LT.
    pub bytes_destaged: Counter,
    /// Consumer block reads served per tier.
    pub served_from_memory: Counter,
    /// Served from the SSD cache.
    pub served_from_ssd: Counter,
    /// Served from the landing zone.
    pub served_from_lz: Counter,
    /// Served from the long-term archive.
    pub served_from_lt: Counter,
}

/// Result of a consumer pull: the relevant blocks plus the cursor to pull
/// from next time. `next_lsn` advances across filtered-out blocks too, so a
/// page server's applied watermark keeps moving even when nothing in the
/// log concerns its partition.
#[derive(Clone, Debug)]
pub struct PullResult {
    /// Blocks relevant to the consumer's filter, in LSN order.
    pub blocks: Vec<LogBlock>,
    /// Where to pull from next; also the consumer's new applied frontier
    /// once it has applied `blocks`.
    pub next_lsn: Lsn,
}

struct Broker {
    /// The sequence map: the hot tail of the log, keyed by block start LSN.
    seq: BTreeMap<Lsn, LogBlock>,
    seq_bytes: usize,
    /// Out-of-order arrivals waiting for hardening/contiguity.
    pending: BTreeMap<Lsn, LogBlock>,
    /// The primary whose feed is trusted: bumped by every take-over, so a
    /// dead primary's late offers are dropped.
    writer: u64,
    /// Blocks released but not yet destaged.
    destage_queue: VecDeque<LogBlock>,
}

struct Lease {
    progress: Lsn,
    renewed_at: Instant,
}

/// The local SSD block cache: the most recently destaged blocks in a
/// [`ring`] on one device. Only the destager writes it and advances its
/// window; a reader racing a wraparound reads a torn image, which fails
/// validation and falls through to the next tier.
struct SsdCache {
    fcb: Arc<dyn Fcb>,
    capacity: u64,
    /// The ring holds the blocks starting in `[tail, head)`.
    tail: AtomicLsn,
    head: AtomicLsn,
}

impl SsdCache {
    fn put(&self, block: &LogBlock) {
        let (start, end) = (block.start_lsn(), block.end_lsn());
        // A block that does not extend the window (the one before it was
        // not written) restarts it.
        let tail = if start == self.head.load() { self.tail.load() } else { start };
        // Retire what this write overwrites before writing it.
        self.tail.store(tail.max(Lsn::new(end.offset().saturating_sub(self.capacity))));
        if block.len() as u64 <= self.capacity
            && ring::write_block(&*self.fcb, self.capacity, block).is_ok()
        {
            self.head.store(end);
        }
    }

    fn get(&self, lsn: Lsn) -> Option<LogBlock> {
        if lsn < self.tail.load() || lsn >= self.head.load() {
            return None;
        }
        ring::read_block(&*self.fcb, self.capacity, lsn).ok()
    }
}

/// The XLOG service. One per deployment.
pub struct XLogService {
    lz: Arc<dyn LogStore>,
    xstore: Arc<XStore>,
    lt_blob: BlobId,
    lt_base: Lsn,
    ssd_cache: SsdCache,
    broker: Mutex<Broker>,
    hardened: AtomicLsn,
    /// Everything below this is released (contiguous + hardened). Only
    /// advanced under `broker`; consumers and the destager sleep on it.
    released: Watermark,
    destaged: Watermark,
    leases: Mutex<HashMap<String, Lease>>,
    config: XLogConfig,
    metrics: XLogMetrics,
    stop: AtomicBool,
    destager: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl XLogService {
    /// Create the service: `lz` is the primary's durable log store — the
    /// landing zone or the quorum tier — (for gap fills and tier-3
    /// reads), `ssd` the local SSD device for the block cache, `xstore`
    /// the home of the long-term archive. `start` is the LSN the log
    /// begins at (zero for a fresh database).
    pub fn new(
        lz: Arc<dyn LogStore>,
        ssd: Arc<dyn Fcb>,
        xstore: Arc<XStore>,
        config: XLogConfig,
        start: Lsn,
        lt_name: &str,
    ) -> Result<Arc<XLogService>> {
        let lt_blob = xstore.create_blob(lt_name)?;
        let ssd_cache = SsdCache {
            fcb: ssd,
            capacity: config.ssd_cache_bytes,
            tail: AtomicLsn::new(start),
            head: AtomicLsn::new(start),
        };
        Ok(Arc::new(XLogService {
            lz,
            xstore,
            lt_blob,
            lt_base: start,
            ssd_cache,
            broker: Mutex::with_rank(
                Broker {
                    seq: BTreeMap::new(),
                    seq_bytes: 0,
                    pending: BTreeMap::new(),
                    writer: 0,
                    destage_queue: VecDeque::new(),
                },
                socrates_common::lock_rank::XLOG_BROKER,
                "xlog.broker",
            ),
            hardened: AtomicLsn::new(start),
            released: Watermark::new(start),
            destaged: Watermark::new(start),
            leases: Mutex::with_rank(
                HashMap::new(),
                socrates_common::lock_rank::XLOG_LEASES,
                "xlog.leases",
            ),
            config,
            metrics: XLogMetrics::default(),
            stop: AtomicBool::new(false),
            destager: Mutex::with_rank(
                None,
                socrates_common::lock_rank::XLOG_DESTAGER,
                "xlog.destager",
            ),
        }))
    }

    /// Start the background destaging thread. Without it, destaging can be
    /// driven manually via [`XLogService::destage_once`] (deterministic
    /// tests do this).
    pub fn start_destager(self: &Arc<Self>) {
        let svc = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("xlog-destager".into())
            .spawn(move || {
                // ordering: relaxed — shutdown flag; one extra destage pass is fine
                while !svc.stop.load(Ordering::Relaxed) {
                    // Read before draining: a release that lands after the
                    // queue is seen empty moves the frontier past this.
                    let seen = svc.released.load();
                    match svc.destage_once() {
                        Ok(0) => {
                            svc.wait_released(seen, &svc.stop);
                        }
                        Ok(_) => {}
                        // XStore outage etc.: back off and retry; blocks
                        // stay queued, the LZ keeps them durable.
                        Err(_) => std::thread::sleep(RETRY_PAUSE),
                    }
                }
            })
            .expect("spawn xlog destager");
        *self.destager.lock() = Some(handle);
    }

    /// Stop the destaging thread (idempotent).
    pub fn shutdown(&self) {
        // ordering: relaxed — stop flag; the wake below and the destager
        // join are the real sync points
        self.stop.store(true, Ordering::Relaxed);
        self.released.wake_all();
        if let Some(h) = self.destager.lock().take() {
            let _ = h.join();
        }
    }

    /// Service counters.
    pub fn metrics(&self) -> &XLogMetrics {
        &self.metrics
    }

    /// Register the service's counters and LSN watermarks into the hub
    /// under `node` (closure-sampled; no hot-path cost).
    pub fn register_metrics(
        self: &Arc<Self>,
        hub: &socrates_common::obs::MetricsHub,
        node: socrates_common::NodeId,
    ) {
        macro_rules! counter {
            ($name:literal, $field:ident) => {{
                let svc = Arc::clone(self);
                hub.register_counter_fn(node, $name, move || svc.metrics.$field.get());
            }};
        }
        counter!("blocks_offered", blocks_offered);
        counter!("blocks_released", blocks_released);
        counter!("gaps_filled_from_lz", gaps_filled_from_lz);
        counter!("duplicates_dropped", duplicates_dropped);
        counter!("blocks_destaged", blocks_destaged);
        counter!("bytes_destaged", bytes_destaged);
        counter!("served_from_memory", served_from_memory);
        counter!("served_from_ssd", served_from_ssd);
        counter!("served_from_lz", served_from_lz);
        counter!("served_from_lt", served_from_lt);
        let svc = Arc::clone(self);
        hub.register_gauge_fn(node, "hardened_lsn", move || svc.hardened.load().offset() as i64);
        let svc = Arc::clone(self);
        hub.register_gauge_fn(node, "destaged_lsn", move || svc.destaged.load().offset() as i64);
        let svc = Arc::clone(self);
        hub.register_gauge_fn(node, "released_lsn", move || svc.released_lsn().offset() as i64);
        // The destage lag: bytes hardened in the landing zone but not yet
        // durable in the long-term archive (Socrates stalls commits when
        // this outgrows the LZ).
        let svc = Arc::clone(self);
        hub.register_gauge_fn(node, "destage_lag_bytes", move || {
            (svc.hardened.load().offset() as i64 - svc.destaged.load().offset() as i64).max(0)
        });
    }

    /// Every live consumer's applied progress, by lease name (lag
    /// watchers derive per-consumer gauges from this).
    pub fn consumer_progress(&self) -> Vec<(String, Lsn)> {
        let leases = self.leases.lock();
        let mut v: Vec<(String, Lsn)> =
            leases.iter().map(|(n, l)| (n.clone(), l.progress)).collect();
        v.sort();
        v
    }

    /// The hardened frontier reported by the primary.
    pub fn hardened_lsn(&self) -> Lsn {
        self.hardened.load()
    }

    /// Everything below this is durable in the long-term archive.
    pub fn destaged_lsn(&self) -> Lsn {
        self.destaged.load()
    }

    /// Everything below this has been released to consumers.
    pub fn released_lsn(&self) -> Lsn {
        self.released.load()
    }

    /// What a consumer's apply loop sleeps on once it has applied up to
    /// `after`: returns the released frontier when it passes `after`, or
    /// when `stop` is set by a stopper that then calls
    /// [`wake_released`](Self::wake_released).
    pub fn wait_released(&self, after: Lsn, stop: &AtomicBool) -> Lsn {
        self.released.wait_for_unless(after + 1, IDLE_WAIT, stop)
    }

    /// Return every thread parked in [`wait_released`](Self::wait_released).
    pub fn wake_released(&self) {
        self.released.wake_all();
    }

    /// Block until the long-term archive covers `lsn` or `timeout` passes;
    /// returns the destaged frontier.
    pub fn wait_destaged(&self, lsn: Lsn, timeout: Duration) -> Lsn {
        self.destaged.wait_for(lsn, timeout)
    }

    /// The LT archive location (for PITR workflows).
    pub fn lt_location(&self) -> (BlobId, Lsn) {
        (self.lt_blob, self.lt_base)
    }

    // ---- ingestion (called by the primary's feed) ----

    /// Offer a block on behalf of the current primary. Tolerates
    /// duplicates, reordering, and loss.
    pub fn offer_block(&self, block: LogBlock) {
        self.offer(None, block);
    }

    /// Offer a block from the feed of primary `writer` (see
    /// [`writer`](Self::writer)); dropped if another primary has taken the
    /// log over since.
    pub fn offer_block_from(&self, writer: u64, block: LogBlock) {
        self.offer(Some(writer), block);
    }

    /// The primary whose offers are currently trusted.
    pub fn writer(&self) -> u64 {
        self.broker.lock().writer
    }

    fn offer(&self, writer: Option<u64>, block: LogBlock) {
        self.metrics.blocks_offered.incr();
        let mut b = self.broker.lock();
        if writer.is_some_and(|w| w != b.writer)
            || block.start_lsn() < self.released.load()
            || b.pending.contains_key(&block.start_lsn())
        {
            self.metrics.duplicates_dropped.incr();
            return;
        }
        b.pending.insert(block.start_lsn(), block);
        self.release_locked(&mut b);
    }

    /// The primary reports durability up to `lsn`; released blocks become
    /// visible to consumers.
    pub fn report_hardened(&self, lsn: Lsn) {
        self.hardened.advance_to(lsn);
        let mut b = self.broker.lock();
        self.release_locked(&mut b);
    }

    /// A new primary takes the log over at `head`, the log store's
    /// recovered durable frontier: everything below it is released, every
    /// speculative block the old primary offered at or past it is dropped
    /// (the new primary writes different blocks there), and so is every
    /// offer its feed still delivers.
    pub fn take_over(&self, head: Lsn) {
        self.hardened.advance_to(head);
        let mut b = self.broker.lock();
        b.writer += 1;
        b.pending.retain(|&lsn, _| lsn < head);
        self.release_locked(&mut b);
    }

    /// Move contiguous hardened blocks from the pending area to the broker,
    /// filling feed gaps from the landing zone.
    fn release_locked(&self, b: &mut Broker) {
        let hardened = self.hardened.load();
        // Stable while we hold the broker lock: `released` only moves here.
        let mut expect = self.released.load();
        loop {
            if expect >= hardened {
                break;
            }
            let block = match b.pending.remove(&expect) {
                Some(blk) => blk,
                None => {
                    // The feed lost this block; the LZ has it (it is below
                    // the hardened frontier).
                    match self.lz.read_block(expect) {
                        Ok(blk) => {
                            self.metrics.gaps_filled_from_lz.incr();
                            blk
                        }
                        Err(_) => break, // LZ transiently unreadable; retry later
                    }
                }
            };
            if block.end_lsn() > hardened {
                // Can't happen with a correct primary (hardened moves in
                // block units), but never release speculative bytes.
                b.pending.insert(expect, block);
                break;
            }
            expect = block.end_lsn();
            b.seq_bytes += block.len();
            b.seq.insert(block.start_lsn(), block.clone());
            b.destage_queue.push_back(block);
            self.metrics.blocks_released.incr();
            // Trim the sequence map to its memory budget (oldest first).
            while b.seq_bytes > self.config.sequence_map_bytes {
                let Some((&first, _)) = b.seq.iter().next() else { break };
                let blk = b.seq.remove(&first).expect("key just seen");
                b.seq_bytes -= blk.len();
            }
        }
        // One wake per release pass, after the blocks are in the map.
        self.released.advance_to(expect);
    }

    // ---- destaging ----

    /// Destage a batch of queued blocks to the SSD cache and LT; returns
    /// how many blocks were destaged (0 when idle, possibly many per call). Contiguous blocks are
    /// concatenated into a single LT append — "multiple I/Os being sent to
    /// XStore in a single large write operation" (§4.6 applies the same
    /// idea to checkpoints).
    pub fn destage_once(&self) -> Result<usize> {
        const MAX_BATCH_BYTES: usize = 4 << 20;
        let batch: Vec<LogBlock> = {
            let mut b = self.broker.lock();
            let mut batch = Vec::new();
            let mut bytes = 0usize;
            while bytes < MAX_BATCH_BYTES {
                match b.destage_queue.pop_front() {
                    Some(blk) => {
                        bytes += blk.len();
                        batch.push(blk);
                    }
                    None => break,
                }
            }
            batch
        };
        if batch.is_empty() {
            return Ok(0);
        }
        let n = batch.len();
        if let Err(e) = self.destage_batch(&batch) {
            // Put the batch back at the front; ordering must be preserved.
            let mut b = self.broker.lock();
            for blk in batch.into_iter().rev() {
                b.destage_queue.push_front(blk);
            }
            return Err(e);
        }
        Ok(n)
    }

    fn destage_batch(&self, batch: &[LogBlock]) -> Result<()> {
        // LT first: one concatenated append (blocks are LSN-contiguous, so
        // the blob offset keeps mirroring LSN space).
        let total: usize = batch.iter().map(|b| b.len()).sum();
        let mut image = Vec::with_capacity(total);
        for block in batch {
            image.extend_from_slice(block.as_bytes());
        }
        let off = self.xstore.append(self.lt_blob, &image)?;
        debug_assert_eq!(off, batch[0].start_lsn() - self.lt_base);
        let end = batch.last().expect("nonempty").end_lsn();
        for block in batch {
            self.ssd_cache.put(block);
            self.metrics.blocks_destaged.incr();
            self.metrics.bytes_destaged.add(block.len() as u64);
        }
        self.destaged.advance_to(end);
        self.lz.truncate_to(end);
        Ok(())
    }

    /// Drain the whole destage queue (used by deterministic tests and
    /// shutdown paths).
    pub fn destage_all(&self) -> Result<usize> {
        let mut n = 0;
        loop {
            match self.destage_once()? {
                0 => return Ok(n),
                k => n += k,
            }
        }
    }

    // ---- serving consumers ----

    /// Read the block starting at `lsn` through the tier hierarchy:
    /// sequence map → SSD cache → landing zone → long-term archive.
    pub fn get_block(&self, lsn: Lsn) -> Result<LogBlock> {
        let frontier = self.released_lsn();
        if lsn >= frontier {
            return Err(Error::NotFound(format!("{lsn} not yet released (frontier {frontier})")));
        }
        if let Some(blk) = self.broker.lock().seq.get(&lsn) {
            self.metrics.served_from_memory.incr();
            return Ok(blk.clone());
        }
        if let Some(blk) = self.ssd_cache.get(lsn) {
            self.metrics.served_from_ssd.incr();
            return Ok(blk);
        }
        if let Ok(blk) = self.lz.read_block(lsn) {
            self.metrics.served_from_lz.incr();
            return Ok(blk);
        }
        // Last resort: the LT, where the block is guaranteed to exist.
        let blk = self.read_from_lt(lsn)?;
        self.metrics.served_from_lt.incr();
        Ok(blk)
    }

    fn read_from_lt(&self, lsn: Lsn) -> Result<LogBlock> {
        if lsn < self.lt_base {
            return Err(Error::NotFound(format!("{lsn} predates the LT base {}", self.lt_base)));
        }
        let off = lsn - self.lt_base;
        let header = self.xstore.read_at(self.lt_blob, off, BLOCK_HEADER)?;
        let info = LogBlock::peek(&header)?;
        let image = self.xstore.read_at(self.lt_blob, off, info.total_len)?;
        LogBlock::decode(image)
    }

    /// Read the LT archive directly over an arbitrary blob — the PITR
    /// bootstrap path ("a new XLOG process is bootstrapped on the copied
    /// log blobs"). Returns blocks whose start LSN lies in `[from, to)`.
    pub fn read_lt_range(
        xstore: &XStore,
        blob: BlobId,
        base: Lsn,
        from: Lsn,
        to: Lsn,
    ) -> Result<Vec<LogBlock>> {
        let len = xstore.blob_len(blob)?;
        let end = base + len;
        let mut at = from.max(base);
        let mut out = Vec::new();
        while at < to.min(end) {
            let off = at - base;
            let header = xstore.read_at(blob, off, BLOCK_HEADER)?;
            let info = LogBlock::peek(&header)?;
            let image = xstore.read_at(blob, off, info.total_len)?;
            let block = LogBlock::decode(image)?;
            at = block.end_lsn();
            out.push(block);
        }
        Ok(out)
    }

    /// Pull released blocks for a consumer starting at `from`, up to
    /// `max_bytes` of block data, filtered to `partition` when given.
    pub fn pull_blocks(
        &self,
        from: Lsn,
        max_bytes: usize,
        partition: Option<PartitionId>,
    ) -> Result<PullResult> {
        let frontier = self.released_lsn();
        let mut at = from;
        let mut blocks = Vec::new();
        let mut bytes = 0usize;
        while at < frontier && bytes < max_bytes {
            let block = self.get_block(at)?;
            at = block.end_lsn();
            bytes += block.len();
            let relevant = partition.is_none_or(|p| block.affects_partition(p));
            if relevant {
                blocks.push(block);
            }
        }
        Ok(PullResult { blocks, next_lsn: at })
    }

    // ---- leases & progress ----

    /// Register (or renew) a consumer lease.
    pub fn register_consumer(&self, name: &str, progress: Lsn) {
        let mut leases = self.leases.lock();
        let lease = leases
            .entry(name.to_string())
            .or_insert(Lease { progress, renewed_at: Instant::now() });
        lease.renewed_at = Instant::now();
    }

    /// Report a consumer's applied progress (renews its lease).
    pub fn report_progress(&self, name: &str, progress: Lsn) {
        let mut leases = self.leases.lock();
        let lease = leases
            .entry(name.to_string())
            .or_insert(Lease { progress, renewed_at: Instant::now() });
        lease.progress = lease.progress.max(progress);
        lease.renewed_at = Instant::now();
    }

    /// The slowest live consumer's progress (diagnostics; a production
    /// system would gate LT garbage collection on this).
    pub fn min_consumer_progress(&self) -> Option<Lsn> {
        self.leases.lock().values().map(|l| l.progress).min()
    }

    /// Drop leases that have not been renewed within the TTL; returns the
    /// expired consumer names.
    pub fn expire_leases(&self) -> Vec<String> {
        let ttl = self.config.lease_ttl;
        let mut leases = self.leases.lock();
        let now = Instant::now();
        let expired: Vec<String> = leases
            .iter()
            .filter(|(_, l)| now.duration_since(l.renewed_at) > ttl)
            .map(|(n, _)| n.clone())
            .collect();
        for n in &expired {
            leases.remove(n);
        }
        expired
    }
}

impl Drop for XLogService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_common::fault::FaultRegistry;
    use socrates_common::{PageId, TxnId};
    use socrates_storage::MemFcb;
    use socrates_wal::block::BlockBuilder;
    use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
    use socrates_wal::record::{LogPayload, LogRecord};
    use socrates_xstore::XStoreConfig;

    fn block_at(start: Lsn, partition: u32, payload_len: usize) -> LogBlock {
        let mut b = BlockBuilder::new(start, 1 << 16);
        b.append(
            &LogRecord {
                txn: TxnId::new(1),
                payload: LogPayload::PageWrite {
                    page_id: PageId::new(partition as u64 * 1000),
                    op: vec![0xAB; payload_len],
                },
            },
            Some(PartitionId::new(partition)),
        );
        b.seal()
    }

    struct Fixture {
        lz: Arc<LandingZone>,
        svc: Arc<XLogService>,
        #[allow(dead_code)]
        xstore: Arc<XStore>,
    }

    fn fixture(config: XLogConfig) -> Fixture {
        let lz = Arc::new(LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 1 << 20, write_quorum: 1 },
            FaultRegistry::disabled(),
        ));
        let xstore = Arc::new(XStore::new(XStoreConfig::instant(), FaultRegistry::disabled()));
        let svc = XLogService::new(
            Arc::clone(&lz) as Arc<dyn LogStore>,
            Arc::new(MemFcb::new("xlog-ssd")) as Arc<dyn Fcb>,
            Arc::clone(&xstore),
            config,
            Lsn::ZERO,
            "xlog/lt",
        )
        .unwrap();
        Fixture { lz, svc, xstore }
    }

    /// Write a chain of blocks through the LZ + offer/report path.
    fn feed_chain(f: &Fixture, n: usize, lose: impl Fn(usize) -> bool) -> Vec<LogBlock> {
        let mut blocks = Vec::new();
        let mut start = Lsn::ZERO;
        for i in 0..n {
            let blk = block_at(start, (i % 3) as u32, 50 + i);
            f.lz.write_block(&blk).unwrap();
            if !lose(i) {
                f.svc.offer_block(blk.clone());
            }
            f.svc.report_hardened(blk.end_lsn());
            start = blk.end_lsn();
            blocks.push(blk);
        }
        blocks
    }

    #[test]
    fn release_requires_hardening() {
        let f = fixture(XLogConfig::default());
        let blk = block_at(Lsn::ZERO, 0, 10);
        f.svc.offer_block(blk.clone());
        // Not hardened: nothing released.
        assert_eq!(f.svc.released_lsn(), Lsn::ZERO);
        assert!(f.svc.get_block(Lsn::ZERO).is_err());
        f.lz.write_block(&blk).unwrap();
        f.svc.report_hardened(blk.end_lsn());
        assert_eq!(f.svc.released_lsn(), blk.end_lsn());
        assert_eq!(f.svc.get_block(Lsn::ZERO).unwrap(), blk);
    }

    #[test]
    fn lossy_feed_gaps_filled_from_lz() {
        let f = fixture(XLogConfig::default());
        let blocks = feed_chain(&f, 10, |i| i % 3 == 1); // drop a third
        assert_eq!(f.svc.released_lsn(), blocks.last().unwrap().end_lsn());
        assert!(f.svc.metrics().gaps_filled_from_lz.get() >= 3);
        // Every block is servable.
        for blk in &blocks {
            assert_eq!(&f.svc.get_block(blk.start_lsn()).unwrap(), blk);
        }
    }

    #[test]
    fn duplicates_and_stale_offers_dropped() {
        let f = fixture(XLogConfig::default());
        let blocks = feed_chain(&f, 3, |_| false);
        // Re-offer everything.
        for blk in &blocks {
            f.svc.offer_block(blk.clone());
        }
        assert_eq!(f.svc.metrics().duplicates_dropped.get(), 3);
        assert_eq!(f.svc.released_lsn(), blocks.last().unwrap().end_lsn());
    }

    #[test]
    fn take_over_drops_the_dead_primarys_speculative_blocks() {
        let f = fixture(XLogConfig::default());
        let durable = feed_chain(&f, 2, |_| false);
        let head = durable.last().unwrap().end_lsn();
        // The dead primary offered a block at the head that never became
        // durable; the new primary writes a different one there.
        let old = f.svc.writer();
        f.svc.offer_block_from(old, block_at(head, 0, 300));
        f.lz.recover();
        f.svc.take_over(head);
        let new = block_at(head, 1, 20);
        f.lz.write_block(&new).unwrap();
        // A straggler from the dead primary's feed arrives late.
        f.svc.offer_block_from(old, block_at(head, 0, 300));
        f.svc.offer_block_from(f.svc.writer(), new.clone());
        f.svc.report_hardened(new.end_lsn());
        assert_eq!(f.svc.released_lsn(), new.end_lsn());
        assert_eq!(f.svc.get_block(head).unwrap(), new);
        assert_eq!(f.svc.metrics().gaps_filled_from_lz.get(), 0);
    }

    #[test]
    fn pull_with_partition_filter_advances_cursor() {
        let f = fixture(XLogConfig::default());
        let blocks = feed_chain(&f, 9, |_| false); // partitions cycle 0,1,2
        let r = f.svc.pull_blocks(Lsn::ZERO, usize::MAX, Some(PartitionId::new(1))).unwrap();
        assert_eq!(r.next_lsn, blocks.last().unwrap().end_lsn());
        assert_eq!(r.blocks.len(), 3, "only partition 1's blocks delivered");
        for blk in &r.blocks {
            assert!(blk.affects_partition(PartitionId::new(1)));
        }
        // Unfiltered pull sees everything.
        let all = f.svc.pull_blocks(Lsn::ZERO, usize::MAX, None).unwrap();
        assert_eq!(all.blocks.len(), 9);
        // Byte-bounded pull stops early but still reports a valid cursor.
        let partial = f.svc.pull_blocks(Lsn::ZERO, 1, None).unwrap();
        assert_eq!(partial.blocks.len(), 1);
        assert_eq!(partial.next_lsn, blocks[0].end_lsn());
    }

    #[test]
    fn destaging_fills_lt_and_truncates_lz() {
        let f = fixture(XLogConfig::default());
        let blocks = feed_chain(&f, 5, |_| false);
        let n = f.svc.destage_all().unwrap();
        assert_eq!(n, 5);
        let end = blocks.last().unwrap().end_lsn();
        assert_eq!(f.svc.destaged_lsn(), end);
        assert_eq!(f.lz.tail(), end, "LZ truncated behind destage point");
        // Blocks are no longer in the LZ but still servable (SSD or LT).
        for blk in &blocks {
            assert_eq!(&f.svc.get_block(blk.start_lsn()).unwrap(), blk);
        }
    }

    #[test]
    fn tier_fallthrough_to_lt() {
        // Tiny memory + tiny SSD cache force reads from the LT.
        let config = XLogConfig {
            sequence_map_bytes: 1, // effectively nothing stays in memory
            ssd_cache_bytes: 256,  // too small for more than ~1 block
            ..XLogConfig::default()
        };
        let f = fixture(config);
        let blocks = feed_chain(&f, 8, |_| false);
        f.svc.destage_all().unwrap();
        // Old blocks must come from the LT now.
        let first = &blocks[0];
        assert_eq!(&f.svc.get_block(first.start_lsn()).unwrap(), first);
        assert!(f.svc.metrics().served_from_lt.get() >= 1, "LT tier must serve");
    }

    #[test]
    fn ssd_cache_ring_serves_exactly_its_window() {
        let capacity = 1_000;
        let cache = SsdCache {
            fcb: Arc::new(MemFcb::new("xlog-ssd")),
            capacity,
            tail: AtomicLsn::new(Lsn::ZERO),
            head: AtomicLsn::new(Lsn::ZERO),
        };
        let mut blocks = Vec::new();
        let mut start = Lsn::ZERO;
        for i in 0..60 {
            let blk = block_at(start, 0, 20 + (i % 7) * 10);
            cache.put(&blk);
            start = blk.end_lsn();
            blocks.push(blk);
        }
        assert!(start.offset() > 4 * capacity, "the ring must wrap several times");
        let (tail, head) = (cache.tail.load(), cache.head.load());
        assert_eq!(head, start);
        let mut hits = 0;
        for blk in &blocks {
            let in_window = blk.start_lsn() >= tail;
            match cache.get(blk.start_lsn()) {
                Some(got) => {
                    assert!(in_window, "{} served from outside the window", blk.start_lsn());
                    assert_eq!(&got, blk);
                    hits += 1;
                }
                None => {
                    assert!(!in_window, "{} missed inside the window", blk.start_lsn());
                    // A reader that passed a window check just before the
                    // wraparound reads an overwritten image: an error,
                    // never another block.
                    assert!(ring::read_block(&*cache.fcb, capacity, blk.start_lsn()).is_err());
                }
            }
        }
        assert!(hits > 1 && hits < blocks.len(), "{hits} of {} blocks served", blocks.len());
        assert!(cache.get(head).is_none(), "nothing past the head");
    }

    #[test]
    fn xstore_outage_pauses_destaging_without_loss() {
        let f = fixture(XLogConfig::default());
        let blocks = feed_chain(&f, 4, |_| false);
        f.xstore.set_available(false);
        assert!(f.svc.destage_once().is_err());
        // Nothing destaged; LZ still holds everything.
        assert_eq!(f.svc.destaged_lsn(), Lsn::ZERO);
        assert_eq!(f.lz.tail(), Lsn::ZERO);
        f.xstore.set_available(true);
        assert_eq!(f.svc.destage_all().unwrap(), 4);
        assert_eq!(f.svc.destaged_lsn(), blocks.last().unwrap().end_lsn());
    }

    #[test]
    fn background_destager_drains() {
        let f = fixture(XLogConfig::default());
        f.svc.start_destager();
        let blocks = feed_chain(&f, 20, |_| false);
        let end = blocks.last().unwrap().end_lsn();
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.svc.destaged_lsn() < end {
            assert!(Instant::now() < deadline, "destager did not catch up");
            std::thread::sleep(Duration::from_millis(1));
        }
        f.svc.shutdown();
    }

    #[test]
    fn lt_range_reader_for_pitr() {
        let f = fixture(XLogConfig::default());
        let blocks = feed_chain(&f, 6, |_| false);
        f.svc.destage_all().unwrap();
        let (blob, base) = f.svc.lt_location();
        let mid = blocks[2].start_lsn();
        let got = XLogService::read_lt_range(
            &f.xstore,
            blob,
            base,
            mid,
            blocks.last().unwrap().end_lsn(),
        )
        .unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], blocks[2]);
        assert_eq!(&got[3], blocks.last().unwrap());
    }

    #[test]
    fn leases_and_progress() {
        let config = XLogConfig { lease_ttl: Duration::from_millis(20), ..XLogConfig::default() };
        let f = fixture(config);
        f.svc.register_consumer("pageserver-0", Lsn::ZERO);
        f.svc.report_progress("pageserver-0", Lsn::new(100));
        f.svc.report_progress("secondary-0", Lsn::new(50));
        assert_eq!(f.svc.min_consumer_progress(), Some(Lsn::new(50)));
        // Progress never regresses.
        f.svc.report_progress("pageserver-0", Lsn::new(90));
        assert_eq!(f.svc.min_consumer_progress(), Some(Lsn::new(50)));
        std::thread::sleep(Duration::from_millis(40));
        f.svc.report_progress("secondary-0", Lsn::new(60)); // renews
        let expired = f.svc.expire_leases();
        assert_eq!(expired, vec!["pageserver-0".to_string()]);
        assert_eq!(f.svc.min_consumer_progress(), Some(Lsn::new(60)));
    }
}
