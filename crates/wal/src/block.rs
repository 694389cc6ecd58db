//! Log blocks — the unit of log I/O and dissemination.
//!
//! Records are grouped into blocks for group commit: one landing-zone write
//! hardens every record in the block. A block also carries the out-of-band
//! partition annotations from the paper (§4.6): the set of partitions its
//! page writes touch, so XLOG can disseminate each block only to the page
//! servers that need it without parsing record contents.
//!
//! Blocks live in a single byte-addressed LSN space: a block's `start_lsn`
//! is the address of its header byte, records follow the fixed header, and
//! `end_lsn` (= start + total length) is the next block's `start_lsn`. This
//! makes landing-zone wraparound and destage bookkeeping pure arithmetic.

use crate::record::{LogRecord, SequencedRecord};
use socrates_common::checksum::crc32;
use socrates_common::obs::TraceCtx;
use socrates_common::{Error, Lsn, PartitionId, Result};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Fixed size of the block header:
/// magic(4) + crc(4) + start_lsn(8) + total_len(4) + record_count(4) +
/// partition_count(2) + reserved(6).
pub const BLOCK_HEADER: usize = 32;

const MAGIC: [u8; 4] = *b"SLB1";

/// An immutable, checksummed group of log records.
///
/// Cheap to clone (the encoded image is shared); blocks flow from the
/// primary through the landing zone, XLOG, page servers, and secondaries.
#[derive(Clone, Debug)]
pub struct LogBlock {
    start_lsn: Lsn,
    bytes: Arc<Vec<u8>>,
    partitions: Arc<Vec<PartitionId>>,
    record_count: u32,
    /// Causal trace context of the sampled commit (if any) grouped into
    /// this block. In-memory only — not part of the encoded image, so a
    /// block recovered from the landing zone decodes to
    /// [`TraceCtx::NONE`] (the trace ends where durability begins).
    ctx: TraceCtx,
}

impl PartialEq for LogBlock {
    fn eq(&self, other: &Self) -> bool {
        self.start_lsn == other.start_lsn && *self.bytes == *other.bytes
    }
}

impl LogBlock {
    /// LSN of the first byte of this block (its header).
    pub fn start_lsn(&self) -> Lsn {
        self.start_lsn
    }

    /// LSN one past the last byte; the next block starts here.
    pub fn end_lsn(&self) -> Lsn {
        self.start_lsn + self.bytes.len() as u64
    }

    /// Total encoded length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes the encoded image's allocation holds: what keeping this block
    /// in memory costs. Equals [`len`](Self::len) for a sealed or decoded
    /// block.
    pub fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// A block always contains its header; never "empty" as a byte string.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of records in the block.
    pub fn record_count(&self) -> u32 {
        self.record_count
    }

    /// The full encoded image (header + records + partition trailer).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Partitions whose pages are modified by records in this block.
    pub fn partitions(&self) -> &[PartitionId] {
        &self.partitions
    }

    /// The causal trace context riding on this block ([`TraceCtx::NONE`]
    /// when no grouped commit was sampled).
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Whether this block contains any record relevant to `p`.
    ///
    /// Blocks with no page writes (pure commit/system blocks) are relevant
    /// to everyone: they advance applied-LSN watermarks.
    pub fn affects_partition(&self, p: PartitionId) -> bool {
        self.partitions.is_empty() || self.partitions.contains(&p)
    }

    /// Decode the records with their LSNs.
    pub fn records(&self) -> Result<Vec<SequencedRecord>> {
        let trailer = self.partitions.len() * 4;
        let records_end = self.bytes.len() - trailer;
        let mut out = Vec::with_capacity(self.record_count as usize);
        let mut off = BLOCK_HEADER;
        while off < records_end {
            let (record, used) = LogRecord::decode(&self.bytes[off..records_end])?;
            out.push(SequencedRecord { lsn: self.start_lsn + off as u64, record });
            off += used;
        }
        if out.len() != self.record_count as usize {
            return Err(Error::Corruption(format!(
                "block at {} decodes {} records, header says {}",
                self.start_lsn,
                out.len(),
                self.record_count
            )));
        }
        Ok(out)
    }

    /// Parse a block's total length from its (possibly partial) header.
    /// Needs at least [`BLOCK_HEADER`] bytes. Used by the landing zone to
    /// size the second read.
    pub fn peek(header: &[u8]) -> Result<BlockInfo> {
        if header.len() < BLOCK_HEADER {
            return Err(Error::Corruption("short block header".into()));
        }
        if header[0..4] != MAGIC {
            return Err(Error::Corruption("bad block magic".into()));
        }
        let start_lsn = Lsn::new(u64::from_le_bytes(header[8..16].try_into().unwrap()));
        let total_len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
        if total_len < BLOCK_HEADER {
            return Err(Error::Corruption(format!("block total_len {total_len} too small")));
        }
        Ok(BlockInfo { start_lsn, total_len })
    }

    /// Validate and adopt a full encoded block image.
    pub fn decode(bytes: Vec<u8>) -> Result<LogBlock> {
        let info = Self::peek(&bytes)?;
        if bytes.len() != info.total_len {
            return Err(Error::Corruption(format!(
                "block image {} bytes, header says {}",
                bytes.len(),
                info.total_len
            )));
        }
        let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let crc = crc32(&bytes[8..]);
        if stored_crc != crc {
            return Err(Error::Corruption(format!(
                "block crc mismatch at {}: stored {stored_crc:#x} computed {crc:#x}",
                info.start_lsn
            )));
        }
        let record_count = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        let partition_count = u16::from_le_bytes(bytes[24..26].try_into().unwrap()) as usize;
        let trailer = partition_count * 4;
        if BLOCK_HEADER + trailer > bytes.len() {
            return Err(Error::Corruption("block partition trailer overruns image".into()));
        }
        let tstart = bytes.len() - trailer;
        let partitions: Vec<PartitionId> = (0..partition_count)
            .map(|i| {
                PartitionId::new(u32::from_le_bytes(
                    bytes[tstart + i * 4..tstart + i * 4 + 4].try_into().unwrap(),
                ))
            })
            .collect();
        Ok(LogBlock {
            start_lsn: info.start_lsn,
            bytes: Arc::new(bytes),
            partitions: Arc::new(partitions),
            record_count,
            ctx: TraceCtx::NONE,
        })
    }
}

/// Parsed header essentials of a block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockInfo {
    /// The block's start LSN as recorded in its header.
    pub start_lsn: Lsn,
    /// Total encoded length including header and trailer.
    pub total_len: usize,
}

/// Incrementally builds one block, handing out record LSNs as they are
/// appended.
pub struct BlockBuilder {
    start_lsn: Lsn,
    buf: Vec<u8>,
    record_count: u32,
    partitions: BTreeSet<PartitionId>,
    max_record_bytes: usize,
    ctx: TraceCtx,
}

impl BlockBuilder {
    /// Start a block at `start_lsn` whose record area is capped at
    /// `max_record_bytes` (a single oversized record is still admitted).
    pub fn new(start_lsn: Lsn, max_record_bytes: usize) -> BlockBuilder {
        BlockBuilder {
            start_lsn,
            buf: Vec::with_capacity(BLOCK_HEADER + max_record_bytes.min(1 << 16)),
            record_count: 0,
            partitions: BTreeSet::new(),
            max_record_bytes,
            ctx: TraceCtx::NONE,
        }
    }

    /// Attach a sampled commit's trace context. One ctx per block: the
    /// first sampled commit wins (group commit batches many commits into
    /// one harden; tracing follows the one that triggered sampling).
    pub fn set_ctx(&mut self, ctx: TraceCtx) {
        if !self.ctx.sampled() {
            self.ctx = ctx;
        }
    }

    /// The LSN the next appended record will receive.
    pub fn next_record_lsn(&self) -> Lsn {
        self.start_lsn + (BLOCK_HEADER + self.record_area_len()) as u64
    }

    fn record_area_len(&self) -> usize {
        self.buf.len().saturating_sub(BLOCK_HEADER)
    }

    /// Whether any record has been appended.
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    /// Whether appending `len` more record bytes would exceed the cap.
    pub fn would_overflow(&self, len: usize) -> bool {
        !self.is_empty() && self.record_area_len() + len > self.max_record_bytes
    }

    /// Append `record`, tagging the block for `partition` when the record
    /// is a page write. Returns the record's LSN.
    pub fn append(&mut self, record: &LogRecord, partition: Option<PartitionId>) -> Lsn {
        if self.buf.is_empty() {
            self.buf.resize(BLOCK_HEADER, 0);
        }
        let lsn = self.next_record_lsn();
        record.encode(&mut self.buf);
        self.record_count += 1;
        if let Some(p) = partition {
            self.partitions.insert(p);
        }
        lsn
    }

    /// Seal into an immutable block. Must not be called on an empty builder.
    /// The image is copied out of the builder's reservation into an
    /// allocation of exactly its length: a sealed block may be held for a
    /// long time (XLOG's sequence map, the landing zone's in-flight
    /// window), and a one-commit block is a few hundred bytes.
    pub fn seal(mut self) -> LogBlock {
        assert!(!self.is_empty(), "sealing an empty block");
        let partitions: Vec<PartitionId> = self.partitions.iter().copied().collect();
        for p in &partitions {
            self.buf.extend_from_slice(&p.raw().to_le_bytes());
        }
        let total_len = self.buf.len() as u32;
        self.buf[0..4].copy_from_slice(&MAGIC);
        self.buf[8..16].copy_from_slice(&self.start_lsn.offset().to_le_bytes());
        self.buf[16..20].copy_from_slice(&total_len.to_le_bytes());
        self.buf[20..24].copy_from_slice(&self.record_count.to_le_bytes());
        self.buf[24..26].copy_from_slice(&(partitions.len() as u16).to_le_bytes());
        let crc = crc32(&self.buf[8..]);
        self.buf[4..8].copy_from_slice(&crc.to_le_bytes());
        LogBlock {
            start_lsn: self.start_lsn,
            bytes: Arc::new(self.buf.as_slice().to_vec()),
            partitions: Arc::new(partitions),
            record_count: self.record_count,
            ctx: self.ctx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogPayload;
    use socrates_common::{PageId, TxnId};

    fn page_write(page: u64, data: &[u8]) -> LogRecord {
        LogRecord {
            txn: TxnId::new(1),
            payload: LogPayload::PageWrite { page_id: PageId::new(page), op: data.to_vec() },
        }
    }

    #[test]
    fn build_seal_decode_roundtrip() {
        let mut b = BlockBuilder::new(Lsn::new(1000), 1 << 16);
        let r1 = page_write(1, b"aa");
        let r2 = LogRecord { txn: TxnId::new(1), payload: LogPayload::TxnCommit { commit_ts: 5 } };
        let lsn1 = b.append(&r1, Some(PartitionId::new(0)));
        let lsn2 = b.append(&r2, None);
        assert_eq!(lsn1, Lsn::new(1000 + BLOCK_HEADER as u64));
        assert_eq!(lsn2, lsn1 + r1.encoded_len() as u64);
        let block = b.seal();
        assert_eq!(block.start_lsn(), Lsn::new(1000));
        assert_eq!(block.record_count(), 2);
        assert_eq!(block.partitions(), &[PartitionId::new(0)]);

        let decoded = LogBlock::decode(block.as_bytes().to_vec()).unwrap();
        assert_eq!(decoded, block);
        let recs = decoded.records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, lsn1);
        assert_eq!(recs[0].record, r1);
        assert_eq!(recs[1].lsn, lsn2);
        assert_eq!(recs[1].record, r2);
    }

    #[test]
    fn sealed_block_holds_exactly_its_image() {
        let mut b = BlockBuilder::new(Lsn::ZERO, 1 << 16);
        b.append(
            &LogRecord { txn: TxnId::new(1), payload: LogPayload::TxnCommit { commit_ts: 5 } },
            None,
        );
        let block = b.seal();
        assert!(block.len() < 64, "a one-commit block is tiny: {}", block.len());
        assert_eq!(block.capacity(), block.len());
        let decoded = LogBlock::decode(block.as_bytes().to_vec()).unwrap();
        assert_eq!(decoded.capacity(), decoded.len());
    }

    #[test]
    fn trace_ctx_rides_in_memory_only() {
        let mut b = BlockBuilder::new(Lsn::ZERO, 1 << 16);
        b.append(&page_write(1, b"x"), None);
        b.set_ctx(TraceCtx { trace_id: 5, span_id: 5 });
        // First sampled ctx wins across a group-commit batch.
        b.set_ctx(TraceCtx { trace_id: 9, span_id: 9 });
        let block = b.seal();
        assert_eq!(block.ctx().trace_id, 5);
        // Clones share it; decoding the image does not resurrect it.
        assert_eq!(block.clone().ctx().trace_id, 5);
        let decoded = LogBlock::decode(block.as_bytes().to_vec()).unwrap();
        assert!(!decoded.ctx().sampled());
    }

    #[test]
    fn end_lsn_chains_blocks() {
        let mut b1 = BlockBuilder::new(Lsn::ZERO, 1 << 16);
        b1.append(&page_write(1, b"x"), Some(PartitionId::new(0)));
        let block1 = b1.seal();
        let mut b2 = BlockBuilder::new(block1.end_lsn(), 1 << 16);
        let lsn = b2.append(&page_write(2, b"y"), Some(PartitionId::new(1)));
        assert_eq!(lsn, block1.end_lsn() + BLOCK_HEADER as u64);
    }

    #[test]
    fn partition_annotations_deduplicate_and_sort() {
        let mut b = BlockBuilder::new(Lsn::ZERO, 1 << 16);
        b.append(&page_write(1, b"x"), Some(PartitionId::new(3)));
        b.append(&page_write(2, b"y"), Some(PartitionId::new(1)));
        b.append(&page_write(3, b"z"), Some(PartitionId::new(3)));
        let block = b.seal();
        assert_eq!(block.partitions(), &[PartitionId::new(1), PartitionId::new(3)]);
        assert!(block.affects_partition(PartitionId::new(1)));
        assert!(!block.affects_partition(PartitionId::new(2)));
    }

    #[test]
    fn pure_system_block_affects_everyone() {
        let mut b = BlockBuilder::new(Lsn::ZERO, 1 << 16);
        b.append(
            &LogRecord::system(LogPayload::Checkpoint { redo_start_lsn: Lsn::ZERO, meta: vec![] }),
            None,
        );
        let block = b.seal();
        assert!(block.affects_partition(PartitionId::new(7)));
    }

    #[test]
    fn corruption_detected_on_decode() {
        let mut b = BlockBuilder::new(Lsn::new(64), 1 << 16);
        b.append(&page_write(1, b"payload"), Some(PartitionId::new(0)));
        let block = b.seal();
        let mut img = block.as_bytes().to_vec();
        img[BLOCK_HEADER + 2] ^= 0x01;
        assert!(LogBlock::decode(img).is_err());
        // Truncated image
        assert!(LogBlock::decode(block.as_bytes()[..block.len() - 1].to_vec()).is_err());
        // Bad magic
        let mut img2 = block.as_bytes().to_vec();
        img2[0] = b'X';
        assert!(LogBlock::decode(img2).is_err());

        // A multi-KiB block: one flipped bit anywhere in the header, or at
        // sampled positions across records and trailer, fails the decode.
        let mut b = BlockBuilder::new(Lsn::new(4096), 1 << 16);
        for i in 0..40u8 {
            let op: Vec<u8> = (0..100).map(|j| i.wrapping_mul(7) ^ j).collect();
            b.append(&page_write(u64::from(i), &op), Some(PartitionId::new(u32::from(i % 3))));
        }
        let block = b.seal();
        assert!(block.len() > 4096, "{}", block.len());
        let mut img = block.as_bytes().to_vec();
        let bits = block.len() * 8;
        for bit in
            (0..BLOCK_HEADER * 8).chain((BLOCK_HEADER * 8..bits).step_by(89)).chain([bits - 1])
        {
            img[bit / 8] ^= 1 << (bit % 8);
            let err = LogBlock::decode(img.clone()).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "flip at bit {bit}: {err}");
            img[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(LogBlock::decode(img).unwrap(), block);
    }

    #[test]
    fn overflow_policy() {
        let mut b = BlockBuilder::new(Lsn::ZERO, 200);
        assert!(!b.would_overflow(1000), "first record always admitted");
        let rec = page_write(1, &[0; 50]);
        let len = rec.encoded_len(); // 50 bytes of op + record framing
        b.append(&rec, None);
        assert!(b.would_overflow(201 - len));
        assert!(!b.would_overflow(200 - len));
    }

    #[test]
    fn peek_reports_length() {
        let mut b = BlockBuilder::new(Lsn::new(512), 1 << 16);
        b.append(&page_write(1, b"abc"), Some(PartitionId::new(2)));
        let block = b.seal();
        let info = LogBlock::peek(&block.as_bytes()[..BLOCK_HEADER]).unwrap();
        assert_eq!(info.start_lsn, Lsn::new(512));
        assert_eq!(info.total_len, block.len());
        assert!(LogBlock::peek(&block.as_bytes()[..10]).is_err());
    }
}
