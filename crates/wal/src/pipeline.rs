//! The primary's log pipeline: append → group commit → harden → disseminate.
//!
//! The paper's §4.3–4.4 behaviour, distilled:
//!
//! * Only the primary writes log. Appends are cheap: records accumulate in
//!   the current block.
//! * A committing transaction needs its commit record *hardened* — durable
//!   at write quorum in the landing zone. Sealed blocks harden through a
//!   bounded **in-flight window** of *runs*: a run is every block one
//!   committer found sealed, submitted together, so a transaction whose
//!   log fills many blocks waits for one device round trip, not one per
//!   block. Up to [`IN_FLIGHT`] runs are on the device at once, their
//!   blocks may complete in any order, and the hardened watermark moves
//!   over them one block at a time, strictly in LSN order.
//! * Group commit is size-adaptive. A committer whose record is already
//!   submitted waits for it. Otherwise, if the window has room, it seals
//!   everything appended so far and submits it at once — a lone committer
//!   never waits for a batch. If the window is full it waits for the
//!   oldest run, then seals everything appended meanwhile into one block
//!   — a burst is never split into one-record blocks.
//! * Every block is also *disseminated* — offered to XLOG for the page
//!   servers and secondaries. The offer is made before the block is
//!   submitted (speculative logging); the hardened watermark is reported
//!   afterwards, and XLOG only releases blocks below it.
//!
//! The pipeline is generic over its durability device ([`BlockSink`]) and
//! consumers ([`LogDisseminator`]): Socrates plugs in the landing zone and
//! XLOG, the HADR baseline plugs in its replicated-state-machine quorum.

use crate::block::{BlockBuilder, LogBlock};
use crate::landing_zone::{LandingZone, LzWrite};
use crate::record::{LogPayload, LogRecord};
use parking_lot::Mutex;
use socrates_common::lsn::{Watermark, IDLE_WAIT, RETRY_PAUSE};
use socrates_common::metrics::{Counter, Histogram};
use socrates_common::obs::{SpanKind, SpanRing, TraceCtx};
use socrates_common::{Error, Lsn, NodeId, PageId, PartitionId, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Runs the in-flight window holds: a committer arriving while this many
/// are on the device waits for the oldest and seals what piled up behind
/// it into one block, which is what makes group commit adaptive.
pub const IN_FLIGHT: usize = 2;

/// A durability device for log blocks.
pub trait BlockSink: Send + Sync {
    /// Start persisting `block`, which begins where the previously
    /// submitted block ended — or, to retry after a failed write, at the
    /// first block that is not durable yet, abandoning every write after
    /// it.
    fn submit(&self, block: &LogBlock) -> Result<Submitted>;
}

/// What [`BlockSink::submit`] hands back.
pub enum Submitted {
    /// The sink hardened the block inside `submit`: it cannot overlap
    /// writes (the quorum log tier, the HADR baseline).
    Hardened,
    /// The write is on the device.
    InFlight(Box<dyn PendingWrite>),
}

/// A block write a [`BlockSink`] is still performing.
pub trait PendingWrite: Send {
    /// Block until the write settles: `Ok` once the block is durable on
    /// the device.
    fn wait(&mut self) -> Result<()>;

    /// Extend the sink's durable prefix over the block. Called once per
    /// block, in LSN order, after its `wait` succeeded; fails when the sink
    /// has since been recovered past it by another writer.
    fn publish(self: Box<Self>) -> Result<()>;
}

impl BlockSink for LandingZone {
    fn submit(&self, block: &LogBlock) -> Result<Submitted> {
        Ok(Submitted::InFlight(Box::new(LandingZone::submit(self, block)?)))
    }
}

impl PendingWrite for LzWrite {
    fn wait(&mut self) -> Result<()> {
        LzWrite::wait(self)
    }

    fn publish(self: Box<Self>) -> Result<()> {
        LzWrite::publish(*self)
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
    /// Device time of each block write, submit → durable, µs.
    pub harden_latency: Histogram,
    /// Wall time from entering `commit_wait` to durability, µs — the
    /// paper's commit latency (Table 6).
    pub commit_latency: Histogram,
    /// Retry pauses a committer or flusher took because the sink refused
    /// or failed a write: a landing zone full of log not yet destaged, or
    /// a transient device fault.
    pub store_full_waits: Counter,
}

struct BufState {
    builder: Option<BlockBuilder>,
    sealed: VecDeque<LogBlock>,
    next_block_start: Lsn,
}

/// Where a submitted block's device write stands.
enum Write {
    /// On the device.
    Running,
    /// Durable on the device; the sink's in-order publish (none for a sink
    /// that hardened inside `submit`) is still to come.
    Durable(Option<Box<dyn PendingWrite>>),
    /// Failed; the block goes back to the sealed queue for a retry.
    Failed,
}

/// What a committer does next (see `LogPipeline::plan`).
enum Plan {
    /// A write failed but writes after it are still on the device: retry
    /// once they have settled.
    Backoff,
    /// Sleep until `hardened` reaches this LSN (at once if it has).
    Wait(Lsn),
    /// Submit these blocks, oldest first, as the window's run `run`.
    Submit { blocks: VecDeque<LogBlock>, run: u64 },
}

/// A block in the in-flight window.
struct Slot {
    block: LogBlock,
    /// The run the block was submitted in; runs are numbered in order.
    run: u64,
    submitted: Instant,
    /// Start of the `WalHarden` span, for a block carrying a sampled ctx.
    span_start: Option<u64>,
    write: Write,
}

/// The log pipeline. One per primary.
pub struct LogPipeline {
    buf: Mutex<BufState>,
    /// The in-flight window: blocks submitted to the sink and not yet
    /// hardened, oldest first, in at most [`IN_FLIGHT`] runs.
    window: Mutex<VecDeque<Slot>>,
    /// Seal-and-submit gate. A pipelined sink's `submit` only issues the
    /// write, so this is never held across a device wait; a sink that
    /// hardens inside `submit` holds it for the write, serially, as a
    /// non-overlapping device must.
    flush_lock: Mutex<()>,
    sink: Arc<dyn BlockSink>,
    disseminators: Vec<Arc<dyn LogDisseminator>>,
    /// Group commit: committers sleep on this until their block hardens.
    hardened: Watermark,
    /// The window cannot drain: a write failed (or the pipeline closed).
    /// Sleepers on `hardened` return early while it is set.
    stalled: AtomicBool,
    /// Set by [`close`](Self::close): nothing more is submitted.
    closed: AtomicBool,
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
            window: Mutex::with_rank(
                VecDeque::with_capacity(IN_FLIGHT),
                socrates_common::lock_rank::WAL_UNFLUSHED,
                "wal.window",
            ),
            flush_lock: Mutex::with_rank(
                (),
                socrates_common::lock_rank::WAL_FLUSH_LOCK,
                "wal.flush_lock",
            ),
            sink,
            disseminators,
            hardened: Watermark::new(start),
            stalled: AtomicBool::new(false),
            closed: AtomicBool::new(false),
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
        hub.register_counter_fn(node, "log_store_full_waits", move || {
            m.metrics.store_full_waits.get()
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

    /// Blocks submitted to the sink and not yet hardened.
    pub fn blocks_in_flight(&self) -> usize {
        self.window.lock().len()
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
    /// A sink error this call ran into is returned to the caller.
    pub fn flush(&self) -> Result<Lsn> {
        let target = {
            let buf = self.buf.lock();
            match &buf.builder {
                Some(b) if !b.is_empty() => b.next_record_lsn(),
                _ => buf.next_block_start,
            }
        };
        while self.hardened.load() < target {
            self.step(target)?;
        }
        Ok(self.hardened.load())
    }

    /// Block until the record at `lsn` is durable (the commit path).
    /// Transient sink errors (landing-zone backpressure: "Socrates cannot
    /// process any update transactions once the LZ is full") are retried
    /// for up to a minute.
    pub fn commit_wait(&self, lsn: Lsn) -> Result<()> {
        let t0 = Instant::now();
        let deadline = t0 + std::time::Duration::from_secs(60);
        while !self.is_hardened(lsn) {
            match self.step(lsn + 1) {
                Ok(()) => {}
                Err(e) if e.is_transient() && Instant::now() < deadline => {
                    self.metrics.store_full_waits.incr();
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(e) => return Err(e),
            }
        }
        self.metrics.commit_latency.record_duration(t0.elapsed());
        Ok(())
    }

    /// Stop submitting: a dead primary writes nothing more. Writes already
    /// on the device settle as usual; every later commit or flush that
    /// needs a new write fails.
    pub fn close(&self) {
        // ordering: relaxed — a flag; a submit racing the close may still
        // go out, exactly as a dying process's last write would
        self.closed.store(true, Ordering::Relaxed);
    }

    /// One move towards `hardened ≥ target`: submit every sealed block as
    /// one run and wait for those writes, or wait for the window to move.
    /// Callers loop until the target is durable. Errors are this call's
    /// own sink errors; another committer's failure only delays it.
    fn step(&self, target: Lsn) -> Result<()> {
        let gate = self.flush_lock.lock();
        let (mut batch, run) = match self.plan(target)? {
            Plan::Backoff => {
                drop(gate);
                self.metrics.store_full_waits.incr();
                std::thread::sleep(RETRY_PAUSE);
                return Ok(());
            }
            Plan::Wait(at) => {
                drop(gate);
                self.hardened.wait_for_unless(at, IDLE_WAIT, &self.stalled);
                return Ok(());
            }
            Plan::Submit { blocks, run } => (blocks, run),
        };
        let mut own: Vec<(Lsn, Box<dyn PendingWrite>)> = Vec::with_capacity(batch.len());
        let mut result = Ok(());
        while let Some(block) = batch.pop_front() {
            // Speculative dissemination: consumers get the block before it
            // is durable, but only act on it once `report_hardened` covers
            // it.
            for d in &self.disseminators {
                d.offer_block(&block);
            }
            let start = block.start_lsn();
            let submitted = Instant::now();
            // Only ctx-carrying blocks read the span clock.
            let span_start = block.ctx().sampled().then(|| self.spans.0.now_ns());
            match self.sink.submit(&block) {
                Ok(outcome) => {
                    let slot = Slot { block, run, submitted, span_start, write: Write::Running };
                    self.window.lock().push_back(slot);
                    match outcome {
                        Submitted::Hardened => self.settle(start, Write::Durable(None)),
                        Submitted::InFlight(pending) => own.push((start, pending)),
                    }
                }
                Err(e) => {
                    // Never submitted: back to the front, in order.
                    batch.push_front(block);
                    let mut buf = self.buf.lock();
                    while let Some(b) = batch.pop_back() {
                        buf.sealed.push_front(b);
                    }
                    result = Err(e);
                }
            }
        }
        drop(gate);
        // Outside every lock: wait for this call's writes, oldest first.
        for (start, mut pending) in own {
            let write = match pending.wait() {
                Ok(()) => Write::Durable(Some(pending)),
                Err(e) => {
                    if result.is_ok() {
                        result = Err(e);
                    }
                    Write::Failed
                }
            };
            self.settle(start, write);
        }
        result
    }

    /// Decide, under the flush lock, what a committer heading for `target`
    /// does next; a `Submit` plan has taken its blocks off the sealed queue.
    fn plan(&self, target: Lsn) -> Result<Plan> {
        let mut buf = self.buf.lock();
        let mut window = self.window.lock();
        if window.iter().any(|s| matches!(s.write, Write::Failed)) {
            if window.iter().any(|s| matches!(s.write, Write::Running)) {
                return Ok(Plan::Backoff);
            }
            // The failed block and everything after it go back to the front
            // of the sealed queue, byte-identical.
            for slot in window.drain(..).rev() {
                buf.sealed.push_front(slot.block);
            }
            // ordering: relaxed — only cuts sleeps short; the window itself
            // is read under its lock
            self.stalled.store(false, Ordering::Relaxed);
        }
        let submitted = window.back().map_or(self.hardened.load(), |s| s.block.end_lsn());
        if target <= submitted {
            return Ok(Plan::Wait(target));
        }
        if let (Some(oldest), Some(newest)) = (window.front(), window.back()) {
            if newest.run - oldest.run + 1 >= IN_FLIGHT as u64 {
                // Full: wait for the oldest run's last block, then seal
                // everything appended meanwhile into one block.
                let run = window.iter().take_while(|s| s.run == oldest.run);
                let end = run.last().map_or(target, |s| s.block.end_lsn());
                return Ok(Plan::Wait(end));
            }
        }
        // ordering: relaxed — see `close`
        if self.closed.load(Ordering::Relaxed) {
            return Err(Error::InvalidState("log pipeline closed".into()));
        }
        if let Some(b) = buf.builder.take_if(|b| !b.is_empty()) {
            let block = b.seal();
            buf.next_block_start = block.end_lsn();
            buf.sealed.push_back(block);
        }
        if buf.sealed.is_empty() {
            return Err(Error::InvalidArgument(format!("nothing appended at {target}")));
        }
        let run = window.back().map_or(0, |s| s.run + 1);
        Ok(Plan::Submit { blocks: std::mem::take(&mut buf.sealed), run })
    }

    /// Record how the write of the block at `start` ended, then harden the
    /// window's completed prefix in LSN order — whichever completion
    /// closes the oldest gap does the draining.
    fn settle(&self, start: Lsn, write: Write) {
        let (ring, node) = &self.spans;
        let mut hardened_to = None;
        let stalled = {
            let mut window = self.window.lock();
            if let Some(slot) = window.iter_mut().find(|s| s.block.start_lsn() == start) {
                if matches!(write, Write::Durable(_)) {
                    // Device time: submit → durable.
                    self.metrics.harden_latency.record_duration(slot.submitted.elapsed());
                    if let Some(t0) = slot.span_start {
                        let dur = ring.now_ns().saturating_sub(t0);
                        ring.record_child(slot.block.ctx(), SpanKind::WalHarden, *node, t0, dur);
                    }
                }
                slot.write = write;
            }
            while matches!(window.front(), Some(Slot { write: Write::Durable(_), .. })) {
                let Some(mut slot) = window.pop_front() else { break };
                let Write::Durable(pending) = std::mem::replace(&mut slot.write, Write::Failed)
                else {
                    break;
                };
                // The sink's head first: XLOG fills feed gaps from it up
                // to the LSN reported below.
                if pending.is_some_and(|p| p.publish().is_err()) {
                    // Another writer recovered the sink past this block:
                    // this pipeline is deposed.
                    window.push_front(slot);
                    // ordering: relaxed — read under the flush lock
                    self.closed.store(true, Ordering::Relaxed);
                    break;
                }
                self.metrics.bytes_hardened.add(slot.block.len() as u64);
                self.metrics.blocks_hardened.incr();
                // Wakes every committer this block covers.
                let end = slot.block.end_lsn();
                self.hardened.advance_to(end);
                hardened_to = Some(end);
            }
            let stalled = window.iter().any(|s| matches!(s.write, Write::Failed));
            if stalled {
                // Set under the window lock, which `plan` clears it under
                // when it requeues.
                // ordering: relaxed — wake_all's mutex publishes it to sleepers
                self.stalled.store(true, Ordering::Relaxed);
            }
            stalled
        };
        if stalled {
            self.hardened.wake_all();
        }
        if let Some(end) = hardened_to {
            for d in &self.disseminators {
                d.report_hardened(end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socrates_common::TxnId;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A write the test completes by hand: the block, and where to send
    /// its outcome.
    type ManualWrite = (LogBlock, mpsc::Sender<Result<()>>);

    /// A test device. Writes overlap, each taking `write_delay_us`; a
    /// `manual` sink instead hands every write to the test, which decides
    /// when and how it ends. `sync` hardens inside `submit`, like the
    /// quorum tier.
    #[derive(Default)]
    struct TestSink {
        /// Blocks made durable, in publish order.
        hardened: Arc<Mutex<Vec<LogBlock>>>,
        fail: AtomicBool,
        write_delay_us: AtomicU64,
        sync: bool,
        manual: Option<mpsc::Sender<ManualWrite>>,
    }

    impl TestSink {
        fn manual() -> (Arc<TestSink>, mpsc::Receiver<ManualWrite>) {
            let (tx, rx) = mpsc::channel();
            (Arc::new(TestSink { manual: Some(tx), ..TestSink::default() }), rx)
        }
    }

    /// The next write a manual sink was handed (a missing one fails the
    /// test instead of hanging it).
    fn next(writes: &mpsc::Receiver<ManualWrite>) -> ManualWrite {
        writes.recv_timeout(Duration::from_secs(10)).expect("no block submitted within 10 s")
    }

    struct TestWrite {
        block: LogBlock,
        hardened: Arc<Mutex<Vec<LogBlock>>>,
        done_at: Instant,
        outcome: Option<mpsc::Receiver<Result<()>>>,
    }

    impl PendingWrite for TestWrite {
        fn wait(&mut self) -> Result<()> {
            if let Some(rx) = &self.outcome {
                return rx.recv().unwrap_or_else(|_| Err(Error::Unavailable("write lost".into())));
            }
            std::thread::sleep(self.done_at.saturating_duration_since(Instant::now()));
            Ok(())
        }

        fn publish(self: Box<Self>) -> Result<()> {
            let mut h = self.hardened.lock();
            if let Some(last) = h.last() {
                assert_eq!(last.end_lsn(), self.block.start_lsn(), "sink saw a gap");
            }
            h.push(self.block);
            Ok(())
        }
    }

    impl BlockSink for TestSink {
        fn submit(&self, block: &LogBlock) -> Result<Submitted> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(Error::Unavailable("sink down".into()));
            }
            let delay = Duration::from_micros(self.write_delay_us.load(Ordering::Relaxed));
            let mut write = TestWrite {
                block: block.clone(),
                hardened: Arc::clone(&self.hardened),
                done_at: Instant::now() + delay,
                outcome: None,
            };
            if let Some(writes) = &self.manual {
                let (tx, rx) = mpsc::channel();
                writes.send((block.clone(), tx)).expect("test holds the receiver");
                write.outcome = Some(rx);
            }
            if self.sync {
                write.wait()?;
                Box::new(write).publish()?;
                return Ok(Submitted::Hardened);
            }
            Ok(Submitted::InFlight(Box::new(write)))
        }
    }

    struct TestDisseminator {
        offered: Mutex<Vec<Lsn>>,
        hardened_reports: AtomicU64,
    }

    impl TestDisseminator {
        fn new() -> Arc<TestDisseminator> {
            Arc::new(TestDisseminator {
                offered: Mutex::new(vec![]),
                hardened_reports: AtomicU64::new(0),
            })
        }
    }

    impl LogDisseminator for TestDisseminator {
        fn offer_block(&self, block: &LogBlock) {
            self.offered.lock().push(block.start_lsn());
        }
        fn report_hardened(&self, lsn: Lsn) {
            self.hardened_reports.fetch_max(lsn.offset(), Ordering::SeqCst);
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

    /// Append one record and commit it on a new thread.
    fn commit_async(p: &Arc<LogPipeline>, page: u64) -> std::thread::JoinHandle<(Lsn, Result<()>)> {
        let lsn = p.append(&record(page, 10));
        let p = Arc::clone(p);
        std::thread::spawn(move || (lsn, p.commit_wait(lsn)))
    }

    /// Poll `pred` for up to ten seconds.
    fn eventually(mut pred: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
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
        assert_eq!(p.metrics().harden_latency.count(), 1);
        // Idempotent: already hardened returns without more sink writes.
        p.commit_wait(lsn).unwrap();
        assert_eq!(sink.hardened.lock().len(), 1);
    }

    #[test]
    fn block_overflow_seals_and_chains() {
        // Both kinds of sink: pipelined, and hardening inside submit.
        for sync in [false, true] {
            let sink = Arc::new(TestSink { sync, ..TestSink::default() });
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
            assert_eq!(p.metrics().harden_latency.count(), blocks.len() as u64);
        }
    }

    #[test]
    fn transient_sink_failure_loses_nothing() {
        let sink = Arc::new(TestSink::default());
        let p = pipeline(Arc::clone(&sink), 1 << 16);
        let lsn1 = p.append(&record(1, 10));
        sink.fail.store(true, Ordering::SeqCst);
        // flush() hands the sink's error to its caller.
        assert!(p.flush().is_err());
        assert!(!p.is_hardened(lsn1));
        // More appends while the sink is down.
        let lsn2 = p.append(&record(2, 10));
        sink.fail.store(false, Ordering::SeqCst);
        p.commit_wait(lsn2).unwrap();
        assert!(p.is_hardened(lsn1));
        assert!(p.is_hardened(lsn2));
        let total_records: u32 = sink.hardened.lock().iter().map(|b| b.record_count()).sum();
        assert_eq!(total_records, 2);

        // A failure at block k while k+1, behind it in the window,
        // succeeds: both go back in order, byte-identical, and both
        // committers are acknowledged once the retries harden.
        let (sink, writes) = TestSink::manual();
        let p = Arc::new(pipeline(Arc::clone(&sink), 1 << 16));
        let a = commit_async(&p, 1);
        let (k, done_k) = next(&writes);
        let b = commit_async(&p, 2);
        let (k1, done_k1) = next(&writes);
        assert_eq!(k.end_lsn(), k1.start_lsn(), "one block each, chained");
        done_k1.send(Ok(())).unwrap();
        done_k.send(Err(Error::Unavailable("replica quorum lost".into()))).unwrap();
        for original in [&k, &k1] {
            let (retry, done) = next(&writes);
            assert_eq!(&retry, original, "retried blocks are never re-sealed");
            done.send(Ok(())).unwrap();
        }
        for h in [a, b] {
            let (lsn, res) = h.join().unwrap();
            res.unwrap();
            assert!(p.is_hardened(lsn));
        }
        assert_eq!(*sink.hardened.lock(), vec![k, k1]);
    }

    #[test]
    fn out_of_order_completion_never_hardens_past_a_gap() {
        let (sink, writes) = TestSink::manual();
        let d = TestDisseminator::new();
        let p = Arc::new(wired(
            Arc::clone(&sink),
            1 << 16,
            vec![Arc::clone(&d) as Arc<dyn LogDisseminator>],
            Arc::new(SpanRing::disabled()),
        ));
        let a = commit_async(&p, 1);
        let (k, done_k) = next(&writes);
        let b = commit_async(&p, 2);
        let (k1, done_k1) = next(&writes);
        // k+1 completes first: its settle can only park it behind k.
        done_k1.send(Ok(())).unwrap();
        eventually(|| p.metrics().harden_latency.count() == 1, "k+1 to settle");
        assert_eq!(p.hardened_lsn(), k.start_lsn(), "hardened moved past an unfinished block");
        assert!(sink.hardened.lock().is_empty(), "k+1 published before k");
        assert_eq!(d.hardened_reports.load(Ordering::SeqCst), 0);
        done_k.send(Ok(())).unwrap();
        a.join().unwrap().1.unwrap();
        b.join().unwrap().1.unwrap();
        assert_eq!(p.hardened_lsn(), k1.end_lsn());
        assert_eq!(*sink.hardened.lock(), vec![k, k1.clone()]);
        assert_eq!(d.hardened_reports.load(Ordering::SeqCst), k1.end_lsn().offset());
    }

    #[test]
    fn a_full_window_seals_the_waiting_burst_into_one_block() {
        let (sink, writes) = TestSink::manual();
        let p = Arc::new(pipeline(Arc::clone(&sink), 1 << 16));
        let a = commit_async(&p, 1);
        let (k, done_k) = next(&writes);
        let b = commit_async(&p, 2);
        let (k1, done_k1) = next(&writes);
        // The window is full: two more committers wait for the oldest.
        let c = commit_async(&p, 3);
        let d = commit_async(&p, 4);
        assert!(writes.recv_timeout(Duration::from_millis(20)).is_err(), "window overfilled");
        done_k.send(Ok(())).unwrap();
        let (k2, done_k2) = next(&writes);
        assert_eq!(k2.start_lsn(), k1.end_lsn());
        assert_eq!(k2.record_count(), 2, "the waiting burst must share one block");
        a.join().unwrap().1.unwrap();
        assert!(p.is_hardened(k.start_lsn()));
        done_k1.send(Ok(())).unwrap();
        done_k2.send(Ok(())).unwrap();
        for h in [b, c, d] {
            h.join().unwrap().1.unwrap();
        }
        assert_eq!(sink.hardened.lock().len(), 3);
    }

    #[test]
    fn overlapping_writes_do_not_queue_behind_each_other() {
        // Two committers 1 ms apart each take about one write, not two:
        // the second block goes to the device while the first is on it.
        const WRITE: Duration = Duration::from_millis(50);
        let sink = Arc::new(TestSink::default());
        sink.write_delay_us.store(WRITE.as_micros() as u64, Ordering::Relaxed);
        let p = Arc::new(pipeline(Arc::clone(&sink), 1 << 16));
        let timed = |page: u64| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let lsn = p.append(&record(page, 10));
                let t0 = Instant::now();
                p.commit_wait(lsn).unwrap();
                t0.elapsed()
            })
        };
        let first = timed(1);
        std::thread::sleep(Duration::from_millis(1));
        let second = timed(2);
        for h in [first, second] {
            let took = h.join().unwrap();
            assert!(took <= WRITE.mul_f64(1.3), "commit took {took:?} for one {WRITE:?} write");
        }
        assert_eq!(sink.hardened.lock().len(), 2);
    }

    #[test]
    fn a_commit_spanning_many_blocks_hardens_in_one_write() {
        // Every block a commit finds sealed goes to the device in one run:
        // a commit whose log fills seven blocks waits for one write, not
        // one per window's worth of blocks.
        const WRITE: Duration = Duration::from_millis(20);
        let sink = Arc::new(TestSink::default());
        sink.write_delay_us.store(WRITE.as_micros() as u64, Ordering::Relaxed);
        let p = pipeline(Arc::clone(&sink), 4 << 10);
        let mut lsn = Lsn::ZERO;
        for i in 0..60 {
            lsn = p.append(&record(i, 500));
        }
        let t0 = Instant::now();
        p.commit_wait(lsn).unwrap();
        let took = t0.elapsed();
        let full = sink.hardened.lock().len() - 1;
        assert!(full >= 6, "the commit's log filled only {full} blocks");
        assert!(
            took <= WRITE.mul_f64(1.5),
            "{full} full blocks took {took:?} for {WRITE:?} writes"
        );
        assert_eq!(p.metrics().blocks_hardened.get(), full as u64 + 1);
    }

    #[test]
    fn group_commit_under_concurrency() {
        let sink = Arc::new(TestSink::default());
        // A slow device is what makes group commit pay off: committers pile
        // up behind a full window while the device writes.
        sink.write_delay_us.store(2_000, Ordering::Relaxed);
        let p = Arc::new(pipeline(Arc::clone(&sink), 1 << 16));
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..25 {
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
        // Size-adaptive group commit: the window never degrades into
        // one-record blocks.
        let per_block = total_records as f64 / blocks.len() as f64;
        assert!(per_block >= 4.0, "{per_block:.1} commits per block ({} blocks)", blocks.len());
        // All commits observed durability.
        assert_eq!(p.metrics().commit_latency.count(), 400);
    }

    #[test]
    fn closed_pipeline_settles_writes_in_flight_and_submits_nothing() {
        let (sink, writes) = TestSink::manual();
        let p = Arc::new(pipeline(Arc::clone(&sink), 1 << 16));
        let a = commit_async(&p, 1);
        let (_k, done_k) = next(&writes);
        p.close();
        done_k.send(Ok(())).unwrap();
        a.join().unwrap().1.unwrap();
        let lsn = p.append(&record(2, 10));
        assert_eq!(p.commit_wait(lsn).unwrap_err().kind(), "invalid_state");
        assert!(p.flush().is_err());
        assert!(writes.try_recv().is_err(), "a closed pipeline submitted a block");
    }

    #[test]
    fn dissemination_offer_precedes_hardened_report() {
        let sink = Arc::new(TestSink::default());
        let d = TestDisseminator::new();
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
