//! Property tests for the log substrate: codec roundtrips and landing-zone
//! behaviour under arbitrary block sequences.

use proptest::prelude::*;
use socrates_common::fault::FaultRegistry;
use socrates_common::{Lsn, PageId, PartitionId, TxnId};
use socrates_storage::{Fcb, MemFcb};
use socrates_wal::block::{BlockBuilder, LogBlock};
use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig};
use socrates_wal::record::{LogPayload, LogRecord};
use std::sync::Arc;

fn payload_strategy() -> impl Strategy<Value = LogPayload> {
    prop_oneof![
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(p, op)| { LogPayload::PageWrite { page_id: PageId::new(p % 10_000), op } }),
        Just(LogPayload::TxnBegin),
        any::<u64>().prop_map(|t| LogPayload::TxnCommit { commit_ts: t }),
        Just(LogPayload::TxnAbort),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(l, m)| { LogPayload::Checkpoint { redo_start_lsn: Lsn::new(l), meta: m } }),
        (any::<u64>(), 1..64u64).prop_map(|(f, c)| LogPayload::AllocPages {
            first: PageId::new(f % 100_000),
            count: c,
        }),
        proptest::collection::vec(any::<u8>(), 0..100).prop_map(|info| LogPayload::Noop { info }),
    ]
}

proptest! {
    #[test]
    fn record_codec_roundtrip(
        txn in any::<u64>(),
        payload in payload_strategy(),
    ) {
        let rec = LogRecord { txn: TxnId::new(txn), payload };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        prop_assert_eq!(buf.len(), rec.encoded_len());
        let (got, used) = LogRecord::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(got, rec);
    }

    #[test]
    fn block_roundtrip_with_lsn_chain(
        payloads in proptest::collection::vec(payload_strategy(), 1..30),
        start in 0u64..1_000_000,
    ) {
        let mut b = BlockBuilder::new(Lsn::new(start), 1 << 20);
        let mut lsns = Vec::new();
        for p in &payloads {
            let partition = match p {
                LogPayload::PageWrite { page_id, .. } => {
                    Some(PartitionId::new((page_id.raw() / 100) as u32))
                }
                _ => None,
            };
            lsns.push(b.append(&LogRecord { txn: TxnId::new(1), payload: p.clone() }, partition));
        }
        let block = b.seal();
        let decoded = LogBlock::decode(block.as_bytes().to_vec()).unwrap();
        let recs = decoded.records().unwrap();
        prop_assert_eq!(recs.len(), payloads.len());
        for ((rec, lsn), payload) in recs.iter().zip(&lsns).zip(&payloads) {
            prop_assert_eq!(&rec.lsn, lsn);
            prop_assert_eq!(&rec.record.payload, payload);
        }
        // LSNs strictly increase and stay inside the block.
        for w in lsns.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(lsns[0] > block.start_lsn());
        prop_assert!(*lsns.last().unwrap() < block.end_lsn());
    }

    #[test]
    fn landing_zone_scan_equals_written_chain(
        sizes in proptest::collection::vec(1usize..500, 1..25),
    ) {
        let lz = LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 1 << 20, write_quorum: 1 },
            FaultRegistry::disabled(),
        );
        let mut start = Lsn::ZERO;
        let mut written = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let mut b = BlockBuilder::new(start, 1 << 20);
            b.append(
                &LogRecord {
                    txn: TxnId::new(i as u64),
                    payload: LogPayload::PageWrite {
                        page_id: PageId::new(i as u64),
                        op: vec![i as u8; *size],
                    },
                },
                Some(PartitionId::new(0)),
            );
            let block = b.seal();
            lz.write_block(&block).unwrap();
            start = block.end_lsn();
            written.push(block);
        }
        let mut scanned = Vec::new();
        lz.scan_from(Lsn::ZERO, |b| { scanned.push(b); true }).unwrap();
        prop_assert_eq!(scanned, written);
    }

    #[test]
    fn wraparound_never_corrupts_retained_range(
        sizes in proptest::collection::vec(50usize..400, 4..40),
    ) {
        // A tiny LZ with aggressive truncation: every retained block must
        // read back exactly, no matter how the ring wraps.
        let lz = LandingZone::new(
            vec![Arc::new(MemFcb::new("lz")) as Arc<dyn Fcb>],
            LandingZoneConfig { capacity: 2048, write_quorum: 1 },
            FaultRegistry::disabled(),
        );
        let mut start = Lsn::ZERO;
        let mut last: Option<LogBlock> = None;
        for (i, size) in sizes.iter().enumerate() {
            let mut b = BlockBuilder::new(start, 1 << 20);
            b.append(
                &LogRecord {
                    txn: TxnId::new(i as u64),
                    payload: LogPayload::PageWrite {
                        page_id: PageId::new(i as u64),
                        op: vec![0xAA; *size],
                    },
                },
                None,
            );
            let block = b.seal();
            // Retain only the previous block: truncate everything older.
            if let Some(prev) = &last {
                lz.truncate_to(prev.start_lsn());
            }
            lz.write_block(&block).unwrap();
            // The just-written and the previous block both read back.
            prop_assert_eq!(&lz.read_block(block.start_lsn()).unwrap(), &block);
            if let Some(prev) = &last {
                prop_assert_eq!(&lz.read_block(prev.start_lsn()).unwrap(), prev);
            }
            start = block.end_lsn();
            last = Some(block);
        }
    }
}
