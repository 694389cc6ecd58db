//! The primary → XLOG feed: speculative, fire-and-forget block delivery.
//!
//! The primary writes each block to the landing zone *and* sends it to the
//! XLOG process in parallel (paper §4.3). The send side is lossy by design;
//! hardened reports travel reliably (they are tiny and piggyback on the
//! commit path). [`XLogFeed`] is the [`LogDisseminator`] the primary's
//! pipeline plugs in: blocks go over a [`LossyChannel`] drained by a pump
//! thread into [`XLogService::offer_block`], and hardened reports call
//! [`XLogService::report_hardened`] directly.

use crate::service::XLogService;
use socrates_common::fault::{sites, FaultRegistry};
use socrates_common::obs::{SpanKind, SpanRing};
use socrates_common::NodeId;
use socrates_rbio::lossy::{LossyChannel, LossyConfig};
use socrates_wal::block::LogBlock;
use socrates_wal::pipeline::LogDisseminator;
use std::sync::Arc;

/// The feed adapter. Create with [`XLogFeed::start`]; dropping it stops the
/// pump thread.
pub struct XLogFeed {
    channel: LossyChannel<LogBlock>,
    svc: Arc<XLogService>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl XLogFeed {
    /// Spawn the pump thread delivering blocks from the lossy channel into
    /// the service. `faults` is consulted at the `xlog.feed.poll` site for
    /// every delivered block; any fired fault discards the block — safe by
    /// design: the feed is lossy and XLOG gap-fills from the landing zone.
    /// Every delivered ctx-carrying block records an `xlog.feed` child
    /// span into `spans` (the XLOG leg of a sampled commit's cross-tier
    /// trace).
    pub fn start(
        svc: Arc<XLogService>,
        lossy: LossyConfig,
        faults: FaultRegistry,
        spans: Arc<SpanRing>,
    ) -> XLogFeed {
        let (channel, rx) = LossyChannel::<LogBlock>::new(lossy);
        let pump = {
            let svc = Arc::clone(&svc);
            // Offers are tagged with the primary that started this feed; a
            // successor's take-over makes XLOG drop the stragglers.
            let writer = svc.writer();
            std::thread::Builder::new()
                .name("xlog-feed-pump".into())
                .spawn(move || {
                    // Ends once the feed drops its sending half.
                    while let Some(block) = rx.recv() {
                        if faults.check_at(sites::XLOG_FEED_POLL, Some(block.start_lsn())).is_some()
                        {
                            continue; // injected loss; LZ gap fill recovers
                        }
                        let ctx = block.ctx();
                        let span_start = ctx.sampled().then(|| spans.now_ns());
                        svc.offer_block_from(writer, block);
                        if let Some(start) = span_start {
                            let dur = spans.now_ns().saturating_sub(start);
                            spans.record_child(ctx, SpanKind::XlogFeed, NodeId::XLOG, start, dur);
                        }
                    }
                })
                .expect("spawn xlog feed pump")
        };
        XLogFeed { channel, svc, pump: Some(pump) }
    }

    /// Number of blocks the lossy link dropped (diagnostics/tests).
    pub fn dropped_blocks(&self) -> u64 {
        self.channel.dropped.get()
    }

    /// Blocks sitting in the feed channel waiting for the pump thread —
    /// the feed's queue depth (a saturation signal: a pump keeping up
    /// with the primary holds this near zero).
    pub fn queue_depth(&self) -> usize {
        self.channel.pending()
    }

    /// Register the feed's health metrics into the hub under `node`
    /// (conventionally [`NodeId::XLOG`], the tier the feed delivers to).
    pub fn register_metrics(
        self: &Arc<Self>,
        hub: &socrates_common::obs::MetricsHub,
        node: NodeId,
    ) {
        let f = Arc::clone(self);
        hub.register_counter_fn(node, "feed_dropped_blocks", move || f.dropped_blocks());
        let f = Arc::clone(self);
        hub.register_gauge_fn(node, "feed_queue_depth", move || f.queue_depth() as i64);
    }
}

impl LogDisseminator for XLogFeed {
    fn offer_block(&self, block: &LogBlock) {
        self.channel.send(block.clone());
    }

    fn report_hardened(&self, lsn: socrates_common::Lsn) {
        self.svc.report_hardened(lsn);
    }
}

impl Drop for XLogFeed {
    fn drop(&mut self) {
        // Closing the channel ends the pump once it has delivered what is
        // already queued.
        let (closed, _) = LossyChannel::new(LossyConfig::reliable());
        drop(std::mem::replace(&mut self.channel, closed));
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::XLogConfig;
    use socrates_common::{Lsn, PageId, PartitionId, TxnId};
    use socrates_storage::{Fcb, MemFcb};
    use socrates_wal::block::BlockBuilder;
    use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
    use socrates_wal::pipeline::{LogPipeline, LogPipelineConfig};
    use socrates_wal::record::{LogPayload, LogRecord};
    use socrates_xstore::{XStore, XStoreConfig};
    use std::time::{Duration, Instant};

    #[test]
    fn end_to_end_pipeline_to_xlog_with_loss() {
        // Full wiring: LogPipeline → (LZ harden) + (lossy feed → XLOG).
        let lz = Arc::new(LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 4 << 20, write_quorum: 1 },
            FaultRegistry::disabled(),
        ));
        let xstore = Arc::new(XStore::new(XStoreConfig::instant(), FaultRegistry::disabled()));
        let svc = XLogService::new(
            Arc::clone(&lz) as Arc<dyn socrates_wal::LogStore>,
            Arc::new(MemFcb::new("ssd")) as Arc<dyn Fcb>,
            xstore,
            XLogConfig::default(),
            Lsn::ZERO,
            "xlog/lt",
        )
        .unwrap();
        let spans = Arc::new(SpanRing::disabled());
        let feed = Arc::new(XLogFeed::start(
            Arc::clone(&svc),
            LossyConfig::unreliable(0.3, 0.2, 99),
            FaultRegistry::disabled(),
            Arc::clone(&spans),
        ));
        let pipeline = LogPipeline::new(
            Arc::clone(&lz) as Arc<dyn socrates_wal::pipeline::BlockSink>,
            vec![feed.clone() as Arc<dyn LogDisseminator>],
            Arc::new(|p: PageId| PartitionId::new((p.raw() / 1000) as u32)),
            LogPipelineConfig { max_block_bytes: 256 },
            Lsn::ZERO,
            (spans, NodeId::PRIMARY),
        );

        let mut last = Lsn::ZERO;
        for i in 0..200u64 {
            last = pipeline.append(&LogRecord {
                txn: TxnId::new(i),
                payload: LogPayload::PageWrite {
                    page_id: PageId::new(i * 37 % 5000),
                    op: vec![i as u8; 64],
                },
            });
            if i % 10 == 9 {
                pipeline.commit_wait(last).unwrap();
            }
        }
        pipeline.commit_wait(last).unwrap();

        // XLOG must converge to the hardened frontier despite loss and
        // reorder: gaps are filled from the LZ once the pump drains.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while svc.released_lsn() < pipeline.hardened_lsn() {
            assert!(Instant::now() < deadline, "XLOG never converged");
            // Late hardened reports re-trigger gap fill.
            svc.report_hardened(pipeline.hardened_lsn());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(feed.dropped_blocks() > 0, "the lossy link must actually lose blocks");
        // Every record is present exactly once, in order.
        let pull = svc.pull_blocks(Lsn::ZERO, usize::MAX, None).unwrap();
        let mut expect_txn = 0u64;
        for block in &pull.blocks {
            for rec in block.records().unwrap() {
                if let LogPayload::PageWrite { .. } = rec.record.payload {
                    assert_eq!(rec.record.txn, TxnId::new(expect_txn));
                    expect_txn += 1;
                }
            }
        }
        assert_eq!(expect_txn, 200);
    }

    #[test]
    fn feed_without_loss_drops_nothing() {
        let lz = Arc::new(LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 4 << 20, write_quorum: 1 },
            FaultRegistry::disabled(),
        ));
        let xstore = Arc::new(XStore::new(XStoreConfig::instant(), FaultRegistry::disabled()));
        let svc = XLogService::new(
            Arc::clone(&lz) as Arc<dyn socrates_wal::LogStore>,
            Arc::new(MemFcb::new("ssd")) as Arc<dyn Fcb>,
            xstore,
            XLogConfig::default(),
            Lsn::ZERO,
            "xlog/lt",
        )
        .unwrap();
        let feed = XLogFeed::start(
            Arc::clone(&svc),
            LossyConfig::reliable(),
            FaultRegistry::disabled(),
            Arc::new(SpanRing::disabled()),
        );
        let mut b = BlockBuilder::new(Lsn::ZERO, 1 << 16);
        b.append(&LogRecord { txn: TxnId::new(1), payload: LogPayload::TxnBegin }, None);
        let block = b.seal();
        lz.write_block(&block).unwrap();
        feed.offer_block(&block);
        feed.report_hardened(block.end_lsn());
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        while svc.released_lsn() < block.end_lsn() {
            assert!(Instant::now() < deadline);
            svc.report_hardened(block.end_lsn());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(feed.dropped_blocks(), 0);
        // Note: gap fills may still occur here — the hardened report is
        // synchronous while the offer rides the pump thread, and XLOG
        // rightly refuses to wait for a feed that might never deliver.
    }
}
