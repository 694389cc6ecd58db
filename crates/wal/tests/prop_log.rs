//! Property tests for the log substrate: codec roundtrips and landing-zone
//! behaviour under arbitrary block sequences and write interleavings.

use parking_lot::Mutex;
use proptest::prelude::*;
use socrates_common::fault::FaultRegistry;
use socrates_common::{Error, Lsn, PageId, PartitionId, Result, TxnId};
use socrates_storage::{Fcb, MemFcb};
use socrates_wal::block::{BlockBuilder, LogBlock};
use socrates_wal::landing_zone::{LandingZone, LandingZoneConfig, LzWrite};
use socrates_wal::record::{LogPayload, LogRecord};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Writes the test keeps unsettled at once. The LZ takes any number; a few
/// are enough to complete, fail and rewind them in every order.
const MAX_FLIGHTS: usize = 4;

/// A replica that rejects or delays the writes of chosen blocks, keyed by
/// the block's byte offset.
struct ScriptedFcb {
    inner: MemFcb,
    /// offset → (reject, delay in ms)
    rules: Mutex<HashMap<u64, (bool, u64)>>,
}

impl Fcb for ScriptedFcb {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_deadline(offset, data).map(drop)
    }
    fn write_deadline(&self, offset: u64, data: &[u8]) -> Result<Instant> {
        let (reject, delay_ms) = self.rules.lock().get(&offset).copied().unwrap_or((false, 0));
        if reject {
            return Err(Error::Io(format!("scripted reject at {offset}")));
        }
        Ok(self.inner.write_deadline(offset, data)? + Duration::from_millis(delay_ms))
    }
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[derive(Clone, Debug)]
enum WriterOp {
    /// Submit the next block. `fail` makes replicas 0 and 1 reject it (no
    /// quorum of 2 of 3); replica `slow` takes `slow_ms` to write it.
    Submit { len: usize, fail: bool, slow: usize, slow_ms: u64 },
    /// Wait for one unsettled write — any of them, not the oldest.
    Complete(usize),
    /// Publish the settled, successful prefix in LSN order.
    Publish,
    /// Once every write has settled and the oldest failed: re-send it and
    /// everything after it, byte-identical.
    Retry,
    /// A new writer takes the log over.
    Recover,
}

fn writer_op() -> impl Strategy<Value = WriterOp> {
    prop_oneof![
        4 => (1usize..400, 0u8..4, 0usize..3, 0u64..4).prop_map(|(len, fail, slow, slow_ms)| {
            WriterOp::Submit { len, fail: fail == 0, slow, slow_ms }
        }),
        4 => (0usize..4).prop_map(WriterOp::Complete),
        3 => Just(WriterOp::Publish),
        2 => Just(WriterOp::Retry),
        1 => Just(WriterOp::Recover),
    ]
}

/// A submitted block, its write, and how the write ended (once waited).
struct Flight {
    block: LogBlock,
    write: LzWrite,
    ok: Option<bool>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The durable head only ever covers a contiguous chain of published
    /// blocks, every published block reads back exactly — through the LZ
    /// and on every replica, so no abandoned write ever lands on top of
    /// one — and no write from before a recovery publishes after it.
    #[test]
    fn pipelined_writes_keep_head_contiguous_and_acked_blocks_readable(
        ops in proptest::collection::vec(writer_op(), 1..40),
    ) {
        let replicas: Vec<Arc<ScriptedFcb>> = (0..3)
            .map(|i| Arc::new(ScriptedFcb {
                inner: MemFcb::new(format!("lz-{i}")),
                rules: Mutex::new(HashMap::new()),
            }))
            .collect();
        let lz = LandingZone::new(
            replicas.iter().map(|r| Arc::clone(r) as Arc<dyn Fcb>).collect(),
            LandingZoneConfig { capacity: 1 << 20, write_quorum: 2 },
            FaultRegistry::disabled(),
        );
        let mut flights: Vec<Flight> = Vec::new();
        let mut acked: Vec<LogBlock> = Vec::new();
        let mut cursor = Lsn::ZERO;
        let mut fill = 0u8;
        for op in ops {
            match op {
                WriterOp::Submit { len, fail, slow, slow_ms } => {
                    let failed = flights.iter().any(|f| f.ok == Some(false));
                    if flights.len() >= MAX_FLIGHTS || failed {
                        continue;
                    }
                    fill = fill.wrapping_add(1);
                    let mut b = BlockBuilder::new(cursor, 1 << 20);
                    b.append(
                        &LogRecord {
                            txn: TxnId::new(fill as u64),
                            payload: LogPayload::Noop { info: vec![fill; len] },
                        },
                        None,
                    );
                    let block = b.seal();
                    let off = block.start_lsn().offset();
                    for (i, r) in replicas.iter().enumerate() {
                        let reject = fail && i < 2;
                        let delay = if i == slow { slow_ms } else { 0 };
                        r.rules.lock().insert(off, (reject, delay));
                    }
                    let write = lz.submit(&block).unwrap();
                    cursor = block.end_lsn();
                    flights.push(Flight { block, write, ok: None });
                }
                WriterOp::Complete(i) => {
                    let open: Vec<usize> =
                        (0..flights.len()).filter(|&j| flights[j].ok.is_none()).collect();
                    if open.is_empty() {
                        continue;
                    }
                    let f = &mut flights[open[i % open.len()]];
                    f.ok = Some(f.write.wait().is_ok());
                }
                WriterOp::Publish => {
                    while flights.first().is_some_and(|f| f.ok == Some(true)) {
                        let f = flights.remove(0);
                        f.write.publish().unwrap();
                        acked.push(f.block);
                    }
                }
                WriterOp::Retry => {
                    let settled = flights.iter().all(|f| f.ok.is_some());
                    if !settled || flights.first().is_none_or(|f| f.ok != Some(false)) {
                        continue;
                    }
                    for f in flights.iter_mut() {
                        for r in &replicas {
                            r.rules.lock().remove(&f.block.start_lsn().offset());
                        }
                        f.write = lz.submit(&f.block).unwrap();
                        f.ok = None;
                    }
                }
                WriterOp::Recover => {
                    let head = lz.recover();
                    prop_assert_eq!(head, acked.last().map_or(Lsn::ZERO, |b| b.end_lsn()));
                    for mut f in flights.drain(..) {
                        let durable = f.ok.unwrap_or_else(|| f.write.wait().is_ok());
                        if durable {
                            prop_assert!(f.write.publish().is_err(), "a pre-recovery write published");
                        }
                    }
                    cursor = head;
                }
            }
            // The head is the end of the contiguous published chain, and
            // everything published reads back.
            let mut at = Lsn::ZERO;
            for b in &acked {
                prop_assert_eq!(b.start_lsn(), at);
                prop_assert_eq!(&lz.read_block(at).unwrap(), b);
                at = b.end_lsn();
            }
            prop_assert_eq!(lz.head(), at);
        }
        // Rewind whatever is unpublished, then look at every replica.
        lz.recover();
        let mut scanned = Vec::new();
        lz.scan_from(Lsn::ZERO, |b| { scanned.push(b); true }).unwrap();
        prop_assert_eq!(&scanned, &acked);
        for r in &replicas {
            for b in &acked {
                let mut image = vec![0u8; b.len()];
                r.read_at(b.start_lsn().offset(), &mut image).unwrap();
                prop_assert_eq!(&image[..], b.as_bytes(), "a stale write overwrote an acked block");
            }
        }
    }
}
