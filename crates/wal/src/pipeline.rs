//! The primary's log pipeline: append → group commit → harden → disseminate.
//!
//! The paper's §4.3–4.4 behaviour, distilled:
//!
//! * Only the primary writes log. Appends are cheap: records accumulate in
//!   the current block.
//! * A committing transaction needs its commit record *hardened* — durable
//!   at write quorum in the landing zone. Group commit falls out of the
//!   flush lock: the first committer seals and hardens every buffered
//!   block; the committers queued behind it find their LSN already covered.
//! * Every hardened block is also *disseminated* — offered to XLOG for the
//!   page servers and secondaries. The offer is made before the harden
//!   completes (speculative logging); the hardened watermark is reported
//!   afterwards, and XLOG only releases blocks below it.
//!
//! The pipeline is generic over its durability device ([`BlockSink`]) and
//! consumers ([`LogDisseminator`]): Socrates plugs in the landing zone and
//! XLOG, the HADR baseline plugs in its replicated-state-machine quorum.

use crate::block::{BlockBuilder, LogBlock};
use crate::landing_zone::LandingZone;
use crate::record::{LogPayload, LogRecord};
use parking_lot::Mutex;
use socrates_common::lsn::Watermark;
use socrates_common::metrics::{Counter, Histogram};
use socrates_common::obs::{SpanKind, SpanRing, TraceCtx};
use socrates_common::{Lsn, NodeId, PageId, PartitionId, Result};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// A durability device for log blocks. `harden` returns once the block is
/// durable (e.g. at write quorum in the landing zone).
pub trait BlockSink: Send + Sync {
    /// Durably persist `block`.
    fn harden(&self, block: &LogBlock) -> Result<()>;
}

impl BlockSink for LandingZone {
    fn harden(&self, block: &LogBlock) -> Result<()> {
        self.write_block(block)
    }
}

/// A log consumer fed by the pipeline (XLOG, HADR secondaries).
pub trait LogDisseminator: Send + Sync {
    /// Offer a block, possibly before it is durable (speculative logging).
    /// Implementations may drop it (lossy transport).
    fn offer_block(&self, block: &LogBlock);
    /// Report that everything below `lsn` is durable.
    fn report_hardened(&self, lsn: Lsn);
}

/// Maps pages to partitions so blocks can carry their partition filter.
pub type PartitionMap = Arc<dyn Fn(PageId) -> PartitionId + Send + Sync>;

/// Pipeline tuning knobs.
#[derive(Clone, Debug)]
pub struct LogPipelineConfig {
    /// Cap on a block's record area; a seal happens at this size even
    /// without a commit.
    pub max_block_bytes: usize,
}

impl Default for LogPipelineConfig {
    fn default() -> Self {
        LogPipelineConfig { max_block_bytes: 64 << 10 }
    }
}

/// Pipeline throughput/latency metrics.
#[derive(Debug, Default)]
pub struct LogPipelineMetrics {
    /// Total record bytes appended.
    pub bytes_appended: Counter,
    /// Total block bytes hardened (the paper's "log MB/s" numerator).
    pub bytes_hardened: Counter,
    /// Blocks hardened.
    pub blocks_hardened: Counter,
    /// Wall time of each harden (sink write), µs.
    pub harden_latency: Histogram,
    /// Wall time from entering `commit_wait` to durability, µs — the
    /// paper's commit latency (Table 6).
    pub commit_latency: Histogram,
}

struct BufState {
    builder: Option<BlockBuilder>,
    sealed: VecDeque<LogBlock>,
    next_block_start: Lsn,
}

/// The log pipeline. One per primary.
pub struct LogPipeline {
    buf: Mutex<BufState>,
    /// Sealed blocks drained for flushing but not yet hardened (retained
    /// across transient sink failures so no block is ever lost or skipped).
    unflushed: Mutex<VecDeque<LogBlock>>,
    flush_lock: Mutex<()>,
    sink: Arc<dyn BlockSink>,
    disseminators: Vec<Arc<dyn LogDisseminator>>,
    /// Group commit: followers sleep on this while a leader flushes.
    hardened: Watermark,
    partition_of: PartitionMap,
    config: LogPipelineConfig,
    metrics: LogPipelineMetrics,
    /// Causal span sink + the node identity harden spans are attributed
    /// to (the primary that owns this pipeline).
    spans: (Arc<SpanRing>, NodeId),
}

impl LogPipeline {
    /// Create a pipeline writing to `sink` and offering every block to
    /// `disseminators`, starting at LSN `start` (zero for a fresh
    /// database; the old tail after a restore). Harden spans of sampled
    /// commits go to `spans`.
    pub fn new(
        sink: Arc<dyn BlockSink>,
        disseminators: Vec<Arc<dyn LogDisseminator>>,
        partition_of: PartitionMap,
        config: LogPipelineConfig,
        start: Lsn,
        spans: (Arc<SpanRing>, NodeId),
    ) -> LogPipeline {
        LogPipeline {
            buf: Mutex::with_rank(
                BufState { builder: None, sealed: VecDeque::new(), next_block_start: start },
                socrates_common::lock_rank::WAL_BUF,
                "wal.buf",
            ),
            unflushed: Mutex::with_rank(
                VecDeque::new(),
                socrates_common::lock_rank::WAL_UNFLUSHED,
                "wal.unflushed",
            ),
            flush_lock: Mutex::with_rank(
                (),
                socrates_common::lock_rank::WAL_FLUSH_LOCK,
                "wal.flush_lock",
            ),
            sink,
            disseminators,
            hardened: Watermark::new(start),
            partition_of,
            config,
            metrics: LogPipelineMetrics::default(),
            spans,
        }
    }

    /// Pipeline metrics.
    pub fn metrics(&self) -> &LogPipelineMetrics {
        &self.metrics
    }

    /// Register the pipeline's metrics into the hub under `node` (the
    /// compute node that owns this pipeline). Closures sample the existing
    /// counters/histograms, so the hot path is untouched.
    pub fn register_metrics(
        self: &Arc<Self>,
        hub: &socrates_common::obs::MetricsHub,
        node: socrates_common::NodeId,
    ) {
        let m = Arc::clone(self);
        hub.register_counter_fn(node, "log_bytes_appended", move || m.metrics.bytes_appended.get());
        let m = Arc::clone(self);
        hub.register_counter_fn(node, "log_bytes_hardened", move || m.metrics.bytes_hardened.get());
        let m = Arc::clone(self);
        hub.register_counter_fn(node, "log_blocks_hardened", move || {
            m.metrics.blocks_hardened.get()
        });
        let m = Arc::clone(self);
        hub.register_histogram_fn(node, "harden_latency_us", move || {
            m.metrics.harden_latency.snapshot()
        });
        let m = Arc::clone(self);
        hub.register_histogram_fn(node, "commit_latency_us", move || {
            m.metrics.commit_latency.snapshot()
        });
        let m = Arc::clone(self);
        hub.register_gauge_fn(node, "hardened_lsn", move || m.hardened.load().offset() as i64);
        // Saturation signal (socbench samples its maximum): bytes accepted by
        // append() but not yet hardened. A pipeline keeping up hovers near
        // one block; a saturated landing zone grows without bound.
        let m = Arc::clone(self);
        hub.register_gauge_fn(node, "log_append_backlog_bytes", move || {
            let appended = m.metrics.bytes_appended.get();
            let hardened = m.metrics.bytes_hardened.get();
            appended.saturating_sub(hardened) as i64
        });
    }

    /// Everything strictly below this LSN is durable.
    pub fn hardened_lsn(&self) -> Lsn {
        self.hardened.load()
    }

    /// Whether the record at `lsn` is durable. Exact because the hardened
    /// watermark only moves in whole blocks: if it is past a record's first
    /// byte, the record's whole block is durable.
    pub fn is_hardened(&self, lsn: Lsn) -> bool {
        self.hardened.load() > lsn
    }

    /// The LSN the next appended record will receive (the log's tail).
    pub fn tail_lsn(&self) -> Lsn {
        let buf = self.buf.lock();
        match &buf.builder {
            Some(b) => b.next_record_lsn(),
            None => buf.next_block_start + crate::block::BLOCK_HEADER as u64,
        }
    }

    /// Append `record`, returning its LSN. Does not wait for durability.
    pub fn append(&self, record: &LogRecord) -> Lsn {
        self.append_traced(record, TraceCtx::NONE)
    }

    /// [`append`](Self::append), tagging the record's block with a
    /// sampled commit's trace context so the harden and every downstream
    /// consumer (XLOG feed, page-server apply) parent their spans under
    /// it. A [`TraceCtx::NONE`] ctx makes this identical to `append`.
    pub fn append_traced(&self, record: &LogRecord, ctx: TraceCtx) -> Lsn {
        let partition = match &record.payload {
            LogPayload::PageWrite { page_id, .. } => Some((self.partition_of)(*page_id)),
            _ => None,
        };
        let len = record.encoded_len();
        self.metrics.bytes_appended.add(len as u64);
        let mut buf = self.buf.lock();
        if buf.builder.as_ref().is_some_and(|b| b.would_overflow(len)) {
            let b = buf.builder.take().expect("checked above");
            let block = b.seal();
            buf.next_block_start = block.end_lsn();
            buf.sealed.push_back(block);
        }
        if buf.builder.is_none() {
            buf.builder =
                Some(BlockBuilder::new(buf.next_block_start, self.config.max_block_bytes));
        }
        let builder = buf.builder.as_mut().expect("just created");
        if ctx.sampled() {
            builder.set_ctx(ctx);
        }
        builder.append(record, partition)
    }

    /// Harden everything appended so far; returns the new hardened LSN.
    ///
    /// Concurrent callers form a group commit: one does the sink writes,
    /// the rest find their records covered when they acquire the lock.
    pub fn flush(&self) -> Result<Lsn> {
        let guard = self.flush_lock.lock();
        self.flush_locked(guard)
    }

    fn flush_locked(&self, _guard: parking_lot::MutexGuard<'_, ()>) -> Result<Lsn> {
        // Move sealed + current blocks into the retry-safe queue.
        {
            let mut buf = self.buf.lock();
            if let Some(b) = buf.builder.take_if(|b| !b.is_empty()) {
                let block = b.seal();
                buf.next_block_start = block.end_lsn();
                buf.sealed.push_back(block);
            }
            let mut unflushed = self.unflushed.lock();
            while let Some(b) = buf.sealed.pop_front() {
                unflushed.push_back(b);
            }
        }
        loop {
            let block = {
                let mut unflushed = self.unflushed.lock();
                match unflushed.pop_front() {
                    Some(b) => b,
                    None => break,
                }
            };
            // Speculative dissemination: consumers get the block before it
            // is durable, but only act on it once `report_hardened` covers
            // it.
            for d in &self.disseminators {
                d.offer_block(&block);
            }
            let t0 = Instant::now();
            // Only ctx-carrying blocks read the span clock.
            let (ring, node) = &self.spans;
            let span_start = block.ctx().sampled().then(|| ring.now_ns());
            match self.sink.harden(&block) {
                Ok(()) => {
                    self.metrics.harden_latency.record_duration(t0.elapsed());
                    if let Some(start) = span_start {
                        let dur = ring.now_ns().saturating_sub(start);
                        ring.record_child(block.ctx(), SpanKind::WalHarden, *node, start, dur);
                    }
                    self.metrics.bytes_hardened.add(block.len() as u64);
                    self.metrics.blocks_hardened.incr();
                    let end = block.end_lsn();
                    // Wakes the group: their commits may now be covered.
                    self.hardened.advance_to(end);
                    for d in &self.disseminators {
                        d.report_hardened(end);
                    }
                }
                Err(e) => {
                    // Put it back for the next flush attempt; nothing after
                    // it was hardened either, so ordering is preserved.
                    self.unflushed.lock().push_front(block);
                    // Wake followers so one of them can retry leadership.
                    self.hardened.wake_all();
                    return Err(e);
                }
            }
        }
        Ok(self.hardened.load())
    }

    /// Block until the record at `lsn` is durable (the commit path).
    ///
    /// Group commit: the first committer to arrive becomes the leader and
    /// drives the sink write; the rest sleep on the hardened watermark
    /// until it covers them. One device write thus hardens
    /// every commit that arrived during the previous write.
    pub fn commit_wait(&self, lsn: Lsn) -> Result<()> {
        let t0 = Instant::now();
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        while !self.is_hardened(lsn) {
            match self.flush_lock.try_lock() {
                Some(guard) => {
                    match self.flush_locked(guard) {
                        Ok(_) => {}
                        Err(e) if e.is_transient() => {
                            // Landing-zone backpressure ("Socrates cannot
                            // process any update transactions once the LZ
                            // is full"): stall until destaging catches up.
                            if Instant::now() > deadline {
                                return Err(e);
                            }
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => {
                    // A leader is flushing; sleep until it covers us. The
                    // bound guards against a leader that errored out
                    // between our check and the park.
                    self.hardened.wait_for(lsn + 1, std::time::Duration::from_millis(20));
                }
            }
        }
        self.metrics.commit_latency.record_duration(t0.elapsed());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_common::{Error, TxnId};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A sink recording hardened blocks, optionally failing or slow.
    #[derive(Default)]
    struct TestSink {
        hardened: Mutex<Vec<LogBlock>>,
        fail: AtomicBool,
        write_delay_us: AtomicU64,
    }

    impl BlockSink for TestSink {
        fn harden(&self, block: &LogBlock) -> Result<()> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(Error::Unavailable("sink down".into()));
            }
            let d = self.write_delay_us.load(Ordering::Relaxed);
            if d > 0 {
                std::thread::sleep(std::time::Duration::from_micros(d));
            }
            let mut h = self.hardened.lock();
            if let Some(last) = h.last() {
                assert_eq!(last.end_lsn(), block.start_lsn(), "sink saw a gap");
            }
            h.push(block.clone());
            Ok(())
        }
    }

    struct TestDisseminator {
        offered: Mutex<Vec<Lsn>>,
        hardened_reports: AtomicU64,
    }

    impl LogDisseminator for TestDisseminator {
        fn offer_block(&self, block: &LogBlock) {
            self.offered.lock().push(block.start_lsn());
        }
        fn report_hardened(&self, lsn: Lsn) {
            self.hardened_reports.store(lsn.offset(), Ordering::SeqCst);
        }
    }

    fn record(page: u64, len: usize) -> LogRecord {
        LogRecord {
            txn: TxnId::new(1),
            payload: LogPayload::PageWrite { page_id: PageId::new(page), op: vec![7; len] },
        }
    }

    fn pipeline(sink: Arc<TestSink>, max_block: usize) -> LogPipeline {
        wired(sink, max_block, vec![], Arc::new(SpanRing::disabled()))
    }

    fn wired(
        sink: Arc<TestSink>,
        max_block: usize,
        disseminators: Vec<Arc<dyn LogDisseminator>>,
        ring: Arc<SpanRing>,
    ) -> LogPipeline {
        LogPipeline::new(
            sink,
            disseminators,
            Arc::new(|p: PageId| PartitionId::new((p.raw() / 100) as u32)),
            LogPipelineConfig { max_block_bytes: max_block },
            Lsn::ZERO,
            (ring, NodeId::PRIMARY),
        )
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let p = pipeline(Arc::new(TestSink::default()), 1 << 16);
        let a = p.append(&record(1, 10));
        let b = p.append(&record(2, 10));
        assert!(b > a);
        assert!(!p.is_hardened(a));
    }

    #[test]
    fn commit_wait_hardens_and_measures() {
        let sink = Arc::new(TestSink::default());
        let p = pipeline(Arc::clone(&sink), 1 << 16);
        let lsn = p.append(&record(1, 10));
        p.commit_wait(lsn).unwrap();
        assert!(p.is_hardened(lsn));
        assert_eq!(sink.hardened.lock().len(), 1);
        assert_eq!(p.metrics().commit_latency.count(), 1);
        assert_eq!(p.metrics().blocks_hardened.get(), 1);
        // Idempotent: already hardened returns without more sink writes.
        p.commit_wait(lsn).unwrap();
        assert_eq!(sink.hardened.lock().len(), 1);
    }

    #[test]
    fn block_overflow_seals_and_chains() {
        let sink = Arc::new(TestSink::default());
        let p = pipeline(Arc::clone(&sink), 100);
        let mut last = Lsn::ZERO;
        for i in 0..20 {
            last = p.append(&record(i, 40));
        }
        p.commit_wait(last).unwrap();
        let blocks = sink.hardened.lock();
        assert!(blocks.len() > 5, "small cap must produce many blocks");
        // Contiguity was asserted inside the sink.
        assert_eq!(blocks.last().unwrap().end_lsn(), p.hardened_lsn());
    }

    #[test]
    fn transient_sink_failure_loses_nothing() {
        let sink = Arc::new(TestSink::default());
        let p = pipeline(Arc::clone(&sink), 1 << 16);
        let lsn1 = p.append(&record(1, 10));
        sink.fail.store(true, Ordering::SeqCst);
        assert!(p.flush().is_err());
        assert!(!p.is_hardened(lsn1));
        // More appends while the sink is down.
        let lsn2 = p.append(&record(2, 10));
        sink.fail.store(false, Ordering::SeqCst);
        p.commit_wait(lsn2).unwrap();
        assert!(p.is_hardened(lsn1));
        assert!(p.is_hardened(lsn2));
        let blocks = sink.hardened.lock();
        let total_records: u32 = blocks.iter().map(|b| b.record_count()).sum();
        assert_eq!(total_records, 2);
    }

    #[test]
    fn dissemination_offer_precedes_hardened_report() {
        let sink = Arc::new(TestSink::default());
        let d = Arc::new(TestDisseminator {
            offered: Mutex::new(vec![]),
            hardened_reports: AtomicU64::new(0),
        });
        let p = wired(
            Arc::clone(&sink),
            1 << 16,
            vec![Arc::clone(&d) as Arc<dyn LogDisseminator>],
            Arc::new(SpanRing::disabled()),
        );
        let lsn = p.append(&record(1, 10));
        p.commit_wait(lsn).unwrap();
        assert_eq!(d.offered.lock().len(), 1);
        assert_eq!(Lsn::new(d.hardened_reports.load(Ordering::SeqCst)), p.hardened_lsn());
    }

    #[test]
    fn partition_filter_flows_from_page_ids() {
        let sink = Arc::new(TestSink::default());
        let p = pipeline(Arc::clone(&sink), 1 << 16);
        p.append(&record(50, 4)); // partition 0
        let lsn = p.append(&record(250, 4)); // partition 2
        p.commit_wait(lsn).unwrap();
        let blocks = sink.hardened.lock();
        assert_eq!(blocks[0].partitions(), &[PartitionId::new(0), PartitionId::new(2)]);
    }

    #[test]
    fn group_commit_under_concurrency() {
        let sink = Arc::new(TestSink::default());
        // A slow device is what makes group commit pay off: committers pile
        // up behind the flush lock while the leader writes.
        sink.write_delay_us.store(500, Ordering::Relaxed);
        let p = Arc::new(pipeline(Arc::clone(&sink), 1 << 16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let lsn = p.append(&record(t * 100 + i, 16));
                        p.commit_wait(lsn).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let blocks = sink.hardened.lock();
        let total_records: u32 = blocks.iter().map(|b| b.record_count()).sum();
        assert_eq!(total_records, 400);
        // Group commit: far fewer sink writes than commits.
        assert!(blocks.len() < 400, "group commit should batch ({} blocks)", blocks.len());
        // All commits observed durability.
        assert_eq!(p.metrics().commit_latency.count(), 400);
    }

    #[test]
    fn traced_append_records_a_harden_span() {
        let sink = Arc::new(TestSink::default());
        let ring = Arc::new(SpanRing::new(16, 1));
        let p = wired(Arc::clone(&sink), 1 << 16, vec![], Arc::clone(&ring));
        let ctx = ring.try_sample().expect("1-in-1 sampling");
        let lsn = p.append_traced(&record(1, 10), ctx);
        p.commit_wait(lsn).unwrap();
        let spans = ring.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::WalHarden);
        assert_eq!(spans[0].trace_id, ctx.trace_id);
        assert_eq!(spans[0].parent_id, ctx.span_id);
        assert_eq!(spans[0].node, NodeId::PRIMARY);
        // The ctx reached the hardened block for downstream consumers.
        assert_eq!(sink.hardened.lock()[0].ctx(), ctx);
        // Untraced appends stay untraced.
        let lsn = p.append(&record(2, 10));
        p.commit_wait(lsn).unwrap();
        assert_eq!(ring.spans().len(), 1);
    }

    #[test]
    fn tail_lsn_tracks_appends() {
        let p = pipeline(Arc::new(TestSink::default()), 1 << 16);
        let t0 = p.tail_lsn();
        let lsn = p.append(&record(1, 10));
        assert_eq!(lsn, t0);
        assert_eq!(p.tail_lsn(), t0 + record(1, 10).encoded_len() as u64);
    }
}
