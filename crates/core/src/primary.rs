//! The primary compute node (paper §4.4).
//!
//! The primary behaves almost identically to a standalone engine — it does
//! not know its storage is remote or that its log lands in a separate
//! service. The differences from a monolithic deployment are exactly the
//! paper's list: storage functions are delegated to page servers; the log
//! goes to the landing zone through the I/O virtualization layer; RBPEX
//! caches pages below main memory; and the node holds no full copy of the
//! database, fetching misses with GetPage@LSN using the evicted-LSN map.
//!
//! Failover/restart is ADR-fast (§3.2): a new primary runs *analysis only*
//! — rebuild the transaction table from the last checkpoint and the log
//! tail — because pages live on page servers and no undo pass exists.

use crate::fabric::Fabric;
use socrates_common::metrics::{Counter, CpuAccountant};
use socrates_common::{Lsn, NodeId, PageId, Result};
use socrates_engine::recovery::Analyzer;
use socrates_engine::{Database, EvictedLsnMap, LoggedPageIo, TxnManager};
use socrates_wal::pipeline::{LogDisseminator, LogPipeline};
use socrates_xlog::feed::XLogFeed;
use socrates_xlog::PULL_BATCH_BYTES;
use std::sync::Arc;

/// The primary compute node.
pub struct Primary {
    fabric: Arc<Fabric>,
    io: Arc<LoggedPageIo>,
    db: Database,
    pipeline: Arc<LogPipeline>,
    cpu: Arc<CpuAccountant>,
    _feed: Arc<XLogFeed>,
}

impl Primary {
    /// Bootstrap a fresh database: creates partition 0 and the catalog.
    pub fn bootstrap(fabric: Arc<Fabric>) -> Result<Arc<Primary>> {
        fabric.ensure_partition(socrates_common::PartitionId::new(0), Lsn::ZERO)?;
        Self::build(fabric, Arc::new(TxnManager::new()), 0, Lsn::ZERO, true)
    }

    /// Spin up a replacement primary after a failure: analysis-only
    /// recovery from the last checkpoint plus the log tail.
    pub fn recover(fabric: Arc<Fabric>) -> Result<Arc<Primary>> {
        // Re-establish the right to append: in quorum mode this campaigns
        // at a higher term (fencing out the dead primary's proposer); on
        // the classic landing zone it waits out the dead primary's writes
        // still on the devices and drops what never became durable.
        let head = fabric.lz.recover()?;
        // Anything the dead primary hardened but never reported is released
        // by telling XLOG about the log store's true head; anything it
        // offered past the head is dropped.
        fabric.xlog.take_over(head);
        // Analysis streams: one batch of blocks in memory at a time, each
        // decoded and folded as it comes.
        let tm = Arc::new(TxnManager::new());
        let mut analyzer = Analyzer::new(&tm);
        let mut cursor = fabric.last_checkpoint.load();
        loop {
            let pull = fabric.xlog.pull_blocks(cursor, PULL_BATCH_BYTES, None)?;
            for block in &pull.blocks {
                for rec in block.records()? {
                    analyzer.feed(&rec)?;
                }
            }
            if pull.next_lsn == cursor {
                break;
            }
            cursor = pull.next_lsn;
        }
        let analysis = analyzer.into_analysis();
        Self::build(fabric.clone(), tm, analysis.next_page_id, head, false)
    }

    /// Build a primary with explicit recovered state (the PITR path, which
    /// runs its own analysis over restored log blobs).
    pub fn with_state(
        fabric: Arc<Fabric>,
        tm: Arc<TxnManager>,
        next_page: u64,
        start_lsn: Lsn,
    ) -> Result<Arc<Primary>> {
        Self::build(fabric, tm, next_page, start_lsn, false)
    }

    fn build(
        fabric: Arc<Fabric>,
        tm: Arc<TxnManager>,
        next_page: u64,
        start_lsn: Lsn,
        fresh: bool,
    ) -> Result<Arc<Primary>> {
        let config = &fabric.config;
        let cpu = fabric.cpu.accountant(NodeId::PRIMARY);
        let evicted = Arc::new(EvictedLsnMap::new(1 << 16));
        if !fresh {
            // A recovering primary must never read state older than its
            // recovery point; GetPage@LSN waits for page servers instead.
            evicted.raise_floor(start_lsn);
        }

        // Log pipeline: LZ for durability, XLOG feed for availability.
        let spans = (Arc::clone(&fabric.spans), NodeId::PRIMARY);
        let feed = Arc::new(XLogFeed::start(
            Arc::clone(&fabric.xlog),
            config.lossy_feed.clone(),
            fabric.faults.clone(),
            Arc::clone(&fabric.spans),
        ));
        let fabric_for_parts = Arc::clone(&fabric);
        let pipeline = Arc::new(LogPipeline::new(
            Arc::clone(&fabric.lz) as Arc<dyn socrates_wal::pipeline::BlockSink>,
            vec![Arc::clone(&feed) as Arc<dyn LogDisseminator>],
            Arc::new(move |p: PageId| fabric_for_parts.partition_of(p)),
            config.pipeline.clone(),
            start_lsn,
            spans.clone(),
        ));
        // Feed health (drop count, queue depth) lands under the PRIMARY
        // node: the pump belongs to this primary process, so failover's
        // unregister_primary_process_metrics retires the closures with it
        // and the successor can re-register its own feed.
        feed.register_metrics(&fabric.hub, NodeId::PRIMARY);

        // WAL rule: a page may leave the node only once the log covers its
        // PageLSN. Persistent flush failures are surfaced as a counter so
        // socmon sees them (they only matter combined with a crash).
        let wal_flush_failures = Arc::new(Counter::new());
        fabric.hub.register_counter(
            NodeId::PRIMARY,
            "wal_flush_failures",
            Arc::clone(&wal_flush_failures),
        );
        let wal_pipeline = Arc::clone(&pipeline);
        let flush_failures = Arc::clone(&wal_flush_failures);
        let wal_flush = Arc::new(move |lsn: Lsn| {
            for _ in 0..3 {
                if wal_pipeline.commit_wait(lsn).is_ok() {
                    return;
                }
            }
            // The LZ is persistently unreachable; losing this flush would
            // only matter if the node also crashed before the LZ returned.
            flush_failures.incr();
        });
        let evicted_for_cb = Arc::clone(&evicted);
        let on_evict = Arc::new(move |id: PageId, lsn: Lsn| {
            evicted_for_cb.note_eviction(id, lsn);
        });
        // Tiered cache: memory over (optional) RBPEX over GetPage@LSN.
        let cache = fabric.compute_cache(NodeId::PRIMARY, wal_flush, on_evict)?;

        // Growing into a fresh partition spins up its page server — O(1)
        // in data size. Allocation failures surface as a counter.
        let partition_alloc_failures = Arc::new(Counter::new());
        fabric.hub.register_counter(
            NodeId::PRIMARY,
            "partition_alloc_failures",
            Arc::clone(&partition_alloc_failures),
        );
        let fabric_for_alloc = Arc::clone(&fabric);
        let pipeline_for_alloc = Arc::clone(&pipeline);
        let on_allocate = Arc::new(move |id: PageId| {
            let p = fabric_for_alloc.partition_of(id);
            if fabric_for_alloc.partition(p).is_none() {
                // The cursor must be a block boundary at or before the new
                // partition's first op: the hardened frontier is one (no
                // record for a page of this partition can predate it).
                let cursor = pipeline_for_alloc.hardened_lsn();
                if fabric_for_alloc.ensure_partition(p, cursor).is_err() {
                    partition_alloc_failures.incr();
                }
            }
        });
        let io = Arc::new(LoggedPageIo::new(
            cache,
            Arc::clone(&pipeline),
            Arc::clone(&evicted),
            next_page,
            Arc::clone(&fabric.commit_stages),
            spans,
            on_allocate,
        ));
        // This node's metrics in the hub. A failover primary re-registers
        // under the same node id, replacing the dead node's sources.
        pipeline.register_metrics(&fabric.hub, NodeId::PRIMARY);
        io.data_pages().register(&fabric.hub, NodeId::PRIMARY);

        let db = if fresh {
            let db = Database::create(io.clone() as Arc<dyn socrates_engine::PageMutator>)?;
            // Harden the bootstrap records (catalog page) immediately so
            // page servers and secondaries can see an empty-but-real
            // database from LSN zero.
            pipeline.flush()?;
            db
        } else {
            Database::open(io.clone() as Arc<dyn socrates_engine::PageMutator>, tm)?
        };
        Ok(Arc::new(Primary { fabric, io, db, pipeline, cpu, _feed: feed }))
    }

    /// The embedded database (run transactions through this).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// This node's modelled CPU accountant.
    pub fn cpu(&self) -> &Arc<CpuAccountant> {
        &self.cpu
    }

    /// The log pipeline (metrics: commit latency, log throughput).
    pub fn pipeline(&self) -> &Arc<LogPipeline> {
        &self.pipeline
    }

    /// The node's page I/O (cache statistics for Tables 3/4).
    pub fn io(&self) -> &Arc<LoggedPageIo> {
        &self.io
    }

    /// Write a checkpoint record; the redo start point is the storage
    /// tier's durability frontier. Updates the fabric's recovery cursor.
    pub fn checkpoint(&self) -> Result<Lsn> {
        // The recovery cursor must be a block boundary at or before the
        // checkpoint record: the hardened frontier sampled now is one. It is
        // sampled before `Database::checkpoint` waits out the commits still
        // preparing, whose records may lie below it.
        let cursor = self.pipeline.hardened_lsn();
        let redo_start = self.fabric.min_checkpointed_lsn();
        let lsn = self.db.checkpoint(redo_start)?;
        self.fabric.last_checkpoint.store(cursor);
        Ok(lsn)
    }
}
