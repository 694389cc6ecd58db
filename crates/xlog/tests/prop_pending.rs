//! Property test: the XLOG pending area delivers exactly the hardened
//! prefix of the log, in order, no matter how the lossy feed drops,
//! duplicates, or reorders blocks.

use proptest::prelude::*;
use socrates_common::fault::FaultRegistry;
use socrates_common::{Lsn, PageId, PartitionId, TxnId};
use socrates_storage::{Fcb, MemFcb};
use socrates_wal::block::{BlockBuilder, LogBlock};
use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
use socrates_wal::record::{LogPayload, LogRecord};
use socrates_xlog::service::{XLogConfig, XLogService};
use socrates_xstore::{XStore, XStoreConfig};
use std::sync::Arc;

fn make_chain(n: usize) -> Vec<LogBlock> {
    let mut start = Lsn::ZERO;
    (0..n)
        .map(|i| {
            let mut b = BlockBuilder::new(start, 1 << 16);
            b.append(
                &LogRecord {
                    txn: TxnId::new(i as u64),
                    payload: LogPayload::PageWrite {
                        page_id: PageId::new(i as u64 % 7),
                        op: vec![i as u8; 20 + i % 50],
                    },
                },
                Some(PartitionId::new((i % 3) as u32)),
            );
            let block = b.seal();
            start = block.end_lsn();
            block
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn released_is_exactly_the_hardened_prefix(
        n in 1usize..20,
        // For each block: (delivered to the feed?, delivery order key, duplicated?)
        behaviours in proptest::collection::vec((any::<bool>(), any::<u8>(), any::<bool>()), 20),
        hardened_upto in 0usize..=20,
    ) {
        let blocks = make_chain(n);
        let hardened_upto = hardened_upto.min(n);

        let lz = Arc::new(LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 1 << 20, write_quorum: 1 },
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
        ).unwrap();

        // Everything the primary *hardened* went through the LZ.
        for block in &blocks[..hardened_upto] {
            lz.write_block(block).unwrap();
        }
        // The feed delivers an arbitrary subset, in arbitrary order, with
        // duplicates — including blocks beyond the hardened point
        // (speculative).
        let mut deliveries: Vec<(u8, &LogBlock, bool)> = blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| behaviours[*i].0)
            .map(|(i, b)| (behaviours[i].1, b, behaviours[i].2))
            .collect();
        deliveries.sort_by_key(|(k, _, _)| *k);
        for (_, block, dup) in deliveries {
            svc.offer_block(block.clone());
            if dup {
                svc.offer_block(block.clone());
            }
        }
        let hardened_lsn = if hardened_upto == 0 {
            Lsn::ZERO
        } else {
            blocks[hardened_upto - 1].end_lsn()
        };
        svc.report_hardened(hardened_lsn);

        // Invariant: released == hardened prefix exactly.
        prop_assert_eq!(svc.released_lsn(), hardened_lsn);
        // Every hardened block is served correctly, in order, with its
        // partition annotations intact.
        let pull = svc.pull_blocks(Lsn::ZERO, usize::MAX, None).unwrap();
        prop_assert_eq!(pull.next_lsn, hardened_lsn);
        prop_assert_eq!(pull.blocks.len(), hardened_upto);
        for (got, expect) in pull.blocks.iter().zip(&blocks[..hardened_upto]) {
            prop_assert_eq!(got, expect);
        }
        // Nothing speculative leaked.
        if hardened_upto < n {
            prop_assert!(svc.get_block(blocks[hardened_upto].start_lsn()).is_err());
        }
        // Destaging the released prefix always succeeds and truncates the LZ.
        let destaged = svc.destage_all().unwrap();
        prop_assert_eq!(destaged, hardened_upto);
        prop_assert_eq!(lz.tail(), hardened_lsn);
    }

    #[test]
    fn partition_filter_partitions_the_stream(
        n in 3usize..20,
    ) {
        let blocks = make_chain(n);
        let lz = Arc::new(LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 1 << 20, write_quorum: 1 },
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
        ).unwrap();
        for block in &blocks {
            lz.write_block(block).unwrap();
            svc.offer_block(block.clone());
            svc.report_hardened(block.end_lsn());
        }
        // The three partition streams together cover every block exactly
        // once (blocks here carry exactly one partition each).
        let mut total = 0usize;
        for p in 0..3u32 {
            let pull = svc.pull_blocks(Lsn::ZERO, usize::MAX, Some(PartitionId::new(p))).unwrap();
            prop_assert_eq!(pull.next_lsn, blocks.last().unwrap().end_lsn());
            for b in &pull.blocks {
                prop_assert!(b.affects_partition(PartitionId::new(p)));
            }
            total += pull.blocks.len();
        }
        prop_assert_eq!(total, n);
    }
}
