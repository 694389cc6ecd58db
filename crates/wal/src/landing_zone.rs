//! The landing zone (LZ) — the small, fast, durable tail of the log.
//!
//! The primary writes log blocks synchronously to the LZ for the lowest
//! possible commit latency (paper §4.3). The LZ is a *circular buffer* over
//! a replicated storage service: in production Azure Premium Storage (XIO,
//! three replicas) or DirectDrive; here, a set of [`Fcb`] replicas wrapped
//! in the matching latency profile. A block is *hardened* once a write
//! quorum of replicas holds it.
//!
//! The LZ is bounded: XLOG's destaging pipeline must continually move the
//! tail to long-term storage and advance the truncation point, or the
//! primary stalls — exactly the backpressure the paper describes
//! ("Socrates cannot process any update transactions once the LZ is full").
//!
//! Readers tolerate a non-quorum replica holding torn or stale bytes: every
//! block is checksummed, and reads fall through to the next replica on
//! validation failure — concurrent readers need no synchronisation with the
//! writer beyond wraparound protection, as in the paper.

use crate::block::{LogBlock, BLOCK_HEADER};
use parking_lot::Mutex;
use socrates_common::fault::{sites, FaultOutcome, FaultRegistry};
use socrates_common::{Error, Lsn, Result};
use socrates_storage::Fcb;
use std::sync::mpsc;
use std::sync::Arc;

/// Landing-zone configuration.
#[derive(Clone, Debug)]
pub struct LandingZoneConfig {
    /// Circular buffer capacity in bytes.
    pub capacity: u64,
    /// Number of replicas that must acknowledge a write (e.g. 2 of 3).
    pub write_quorum: usize,
}

impl Default for LandingZoneConfig {
    fn default() -> Self {
        // 64 MiB, quorum 2-of-3 — scaled-down defaults for a simulated LZ.
        LandingZoneConfig { capacity: 64 << 20, write_quorum: 2 }
    }
}

struct LzState {
    /// LSN of the next byte to be written.
    head: Lsn,
    /// Oldest LSN still retained (everything older has been destaged).
    tail: Lsn,
}

/// A write job handed to one replica's worker: (byte offset, block,
/// completion channel).
type WriteJob = (u64, LogBlock, mpsc::Sender<bool>);

/// A quorum-replicated circular log store.
///
/// Writes go to all replicas **in parallel** (one persistent worker thread
/// per replica, as the real storage service's replication does) and
/// `write_block` returns as soon as a write quorum has acknowledged — the
/// commit latency is the quorum-th fastest replica, not the sum.
pub struct LandingZone {
    replicas: Vec<Arc<dyn Fcb>>,
    writers: Vec<mpsc::Sender<WriteJob>>,
    worker_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    config: LandingZoneConfig,
    state: Mutex<LzState>,
    faults: FaultRegistry,
}

impl LandingZone {
    /// Create an LZ over `replicas` (all starting empty). `write_block`
    /// consults `faults` at the `lz.write` site.
    pub fn new(
        replicas: Vec<Arc<dyn Fcb>>,
        config: LandingZoneConfig,
        faults: FaultRegistry,
    ) -> LandingZone {
        assert!(!replicas.is_empty(), "landing zone needs at least one replica");
        assert!(
            config.write_quorum >= 1 && config.write_quorum <= replicas.len(),
            "write quorum {} out of range for {} replicas",
            config.write_quorum,
            replicas.len()
        );
        let capacity = config.capacity;
        let mut writers = Vec::with_capacity(replicas.len());
        let mut handles = Vec::with_capacity(replicas.len());
        for (i, replica) in replicas.iter().enumerate() {
            let (tx, rx) = mpsc::channel::<WriteJob>();
            let fcb = Arc::clone(replica);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lz-replica-{i}"))
                    .spawn(move || {
                        while let Ok((off, block, ack)) = rx.recv() {
                            let ok =
                                write_wrapped_to(&fcb, capacity, off, block.as_bytes()).is_ok();
                            let _ = ack.send(ok);
                        }
                    })
                    .expect("spawn lz replica worker"),
            );
            writers.push(tx);
        }
        LandingZone {
            replicas,
            writers,
            worker_handles: Mutex::with_rank(
                handles,
                socrates_common::lock_rank::WAL_LZ_WORKERS,
                "lz.worker_handles",
            ),
            config,
            state: Mutex::with_rank(
                LzState { head: Lsn::ZERO, tail: Lsn::ZERO },
                socrates_common::lock_rank::WAL_LZ_STATE,
                "lz.state",
            ),
            faults,
        }
    }

    /// Create an LZ whose first block will start at `start` instead of
    /// [`Lsn::ZERO`] — used when a log store is (re)created mid-stream,
    /// e.g. XLOG's local SSD block cache or a restored deployment.
    pub fn with_start(
        replicas: Vec<Arc<dyn Fcb>>,
        config: LandingZoneConfig,
        faults: FaultRegistry,
        start: Lsn,
    ) -> LandingZone {
        let lz = LandingZone::new(replicas, config, faults);
        {
            let mut s = lz.state.lock();
            s.head = start;
            s.tail = start;
        }
        lz
    }

    /// The LSN the next block must start at.
    pub fn head(&self) -> Lsn {
        self.state.lock().head
    }

    /// The truncation point: the oldest retained LSN.
    pub fn tail(&self) -> Lsn {
        self.state.lock().tail
    }

    /// Bytes currently free for appends.
    pub fn free_bytes(&self) -> u64 {
        let s = self.state.lock();
        self.config.capacity - (s.head - s.tail)
    }

    /// The replica devices (tests inject faults through these).
    pub fn replicas(&self) -> &[Arc<dyn Fcb>] {
        &self.replicas
    }

    /// Durably append `block`, which must start exactly at the current head.
    ///
    /// Returns once a write quorum of replicas has the block. Fails with
    /// [`Error::Unavailable`] when the LZ is full (destage backpressure) or
    /// quorum cannot be reached.
    pub fn write_block(&self, block: &LogBlock) -> Result<()> {
        match self.faults.check_at(sites::LZ_WRITE, Some(block.start_lsn())) {
            Some(FaultOutcome::Err(e)) => return Err(e),
            // The LZ has no single node to crash (it is a replicated
            // service); dropped/crashed writes surface as a transient
            // failure the pipeline's commit path retries.
            Some(FaultOutcome::Drop) | Some(FaultOutcome::Crash) => {
                return Err(Error::Unavailable("fault: LZ write dropped".into()));
            }
            None => {}
        }
        let (start, len) = {
            let s = self.state.lock();
            if block.start_lsn() != s.head {
                return Err(Error::InvalidArgument(format!(
                    "block starts at {} but LZ head is {}",
                    block.start_lsn(),
                    s.head
                )));
            }
            let len = block.len() as u64;
            if len > self.config.capacity {
                return Err(Error::InvalidArgument(format!(
                    "block of {len} bytes exceeds LZ capacity {}",
                    self.config.capacity
                )));
            }
            if (s.head - s.tail) + len > self.config.capacity {
                return Err(Error::Unavailable(
                    "landing zone full; destaging has not caught up".into(),
                ));
            }
            (s.head, len)
        };
        // Fan the write out to every replica worker; return at quorum.
        let (ack_tx, ack_rx) = mpsc::channel();
        for w in &self.writers {
            let _ = w.send((start.offset(), block.clone(), ack_tx.clone()));
        }
        drop(ack_tx);
        let mut acks = 0usize;
        let mut failures = 0usize;
        let n = self.writers.len();
        while acks < self.config.write_quorum && failures <= n - self.config.write_quorum {
            match ack_rx.recv() {
                Ok(true) => acks += 1,
                Ok(false) => failures += 1,
                Err(_) => break, // all workers reported
            }
        }
        if acks < self.config.write_quorum {
            return Err(Error::Unavailable(format!(
                "LZ quorum failed: {acks}/{} acks ({failures} replicas failed)",
                self.config.write_quorum
            )));
        }
        let mut s = self.state.lock();
        s.head = start + len;
        Ok(())
    }

    /// Read the block starting at `lsn`, trying replicas until one yields a
    /// validating image.
    pub fn read_block(&self, lsn: Lsn) -> Result<LogBlock> {
        {
            let s = self.state.lock();
            if lsn < s.tail {
                return Err(Error::NotFound(format!(
                    "{lsn} already truncated from the LZ (tail {})",
                    s.tail
                )));
            }
            if lsn >= s.head {
                return Err(Error::NotFound(format!("{lsn} beyond LZ head {}", s.head)));
            }
        }
        let mut last_err: Option<Error> = None;
        for replica in &self.replicas {
            match self.try_read_block(replica, lsn) {
                Ok(b) => return Ok(b),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| Error::NotFound(format!("block at {lsn}"))))
    }

    /// Iterate blocks from `from` (a block boundary) up to the head,
    /// calling `f` for each. Stops early if `f` returns `false`.
    pub fn scan_from(&self, from: Lsn, mut f: impl FnMut(LogBlock) -> bool) -> Result<()> {
        let mut at = from;
        loop {
            let head = self.state.lock().head;
            if at >= head {
                return Ok(());
            }
            let block = self.read_block(at)?;
            at = block.end_lsn();
            if !f(block) {
                return Ok(());
            }
        }
    }

    /// Release everything below `lsn` for reuse. Called by XLOG once the
    /// range is durably destaged to long-term storage.
    pub fn truncate_to(&self, lsn: Lsn) {
        let mut s = self.state.lock();
        if lsn > s.tail {
            s.tail = lsn.min(s.head);
        }
    }

    fn try_read_block(&self, replica: &Arc<dyn Fcb>, lsn: Lsn) -> Result<LogBlock> {
        let mut header = vec![0u8; BLOCK_HEADER];
        self.read_wrapped(replica, lsn.offset(), &mut header)?;
        let info = LogBlock::peek(&header)?;
        if info.start_lsn != lsn {
            return Err(Error::Corruption(format!(
                "block at {lsn} claims start {}",
                info.start_lsn
            )));
        }
        let mut image = vec![0u8; info.total_len];
        self.read_wrapped(replica, lsn.offset(), &mut image)?;
        LogBlock::decode(image)
    }

    fn read_wrapped(&self, fcb: &Arc<dyn Fcb>, lsn_off: u64, buf: &mut [u8]) -> Result<()> {
        let cap = self.config.capacity;
        let pos = lsn_off % cap;
        let first = ((cap - pos) as usize).min(buf.len());
        fcb.read_at(pos, &mut buf[..first])?;
        if first < buf.len() {
            let rest = buf.len() - first;
            fcb.read_at(0, &mut buf[first..first + rest])?;
        }
        Ok(())
    }
}

impl Drop for LandingZone {
    fn drop(&mut self) {
        // Closing the job channels lets the workers drain and exit.
        self.writers.clear();
        for h in self.worker_handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Write `data` at circular position `lsn_off % cap`, splitting at the
/// wrap boundary.
fn write_wrapped_to(fcb: &Arc<dyn Fcb>, cap: u64, lsn_off: u64, data: &[u8]) -> Result<()> {
    let pos = lsn_off % cap;
    let first = ((cap - pos) as usize).min(data.len());
    fcb.write_at(pos, &data[..first])?;
    if first < data.len() {
        fcb.write_at(0, &data[first..])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::record::{LogPayload, LogRecord};
    use socrates_common::{PageId, PartitionId, TxnId};
    use socrates_storage::{FaultFcb, MemFcb};

    fn block_at(start: Lsn, payload_len: usize) -> LogBlock {
        let mut b = BlockBuilder::new(start, 1 << 16);
        b.append(
            &LogRecord {
                txn: TxnId::new(1),
                payload: LogPayload::PageWrite {
                    page_id: PageId::new(1),
                    op: vec![0xCD; payload_len],
                },
            },
            Some(PartitionId::new(0)),
        );
        b.seal()
    }

    fn lz(capacity: u64, quorum: usize, n: usize) -> (LandingZone, Vec<Arc<FaultFcb<MemFcb>>>) {
        let faults: Vec<Arc<FaultFcb<MemFcb>>> =
            (0..n).map(|i| Arc::new(FaultFcb::new(MemFcb::new(format!("lz-{i}"))))).collect();
        let replicas: Vec<Arc<dyn Fcb>> =
            faults.iter().map(|f| Arc::clone(f) as Arc<dyn Fcb>).collect();
        let config = LandingZoneConfig { capacity, write_quorum: quorum };
        (LandingZone::new(replicas, config, FaultRegistry::disabled()), faults)
    }

    #[test]
    fn write_read_chain() {
        let (lz, _) = lz(1 << 20, 2, 3);
        let b1 = block_at(Lsn::ZERO, 100);
        lz.write_block(&b1).unwrap();
        let b2 = block_at(b1.end_lsn(), 200);
        lz.write_block(&b2).unwrap();
        assert_eq!(lz.head(), b2.end_lsn());
        assert_eq!(lz.read_block(Lsn::ZERO).unwrap(), b1);
        assert_eq!(lz.read_block(b1.end_lsn()).unwrap(), b2);
    }

    #[test]
    fn rejects_gap_or_overlap() {
        let (lz, _) = lz(1 << 20, 2, 3);
        let b1 = block_at(Lsn::ZERO, 10);
        lz.write_block(&b1).unwrap();
        // Re-writing the same block (head mismatch) fails.
        assert!(lz.write_block(&b1).is_err());
        // A block with a gap fails.
        let gap = block_at(b1.end_lsn() + 100, 10);
        assert!(lz.write_block(&gap).is_err());
    }

    #[test]
    fn wraparound_roundtrip() {
        // Tiny LZ so blocks wrap the boundary.
        let (lz, _) = lz(700, 1, 1);
        let mut start = Lsn::ZERO;
        let mut blocks = vec![];
        for _ in 0..6 {
            let b = block_at(start, 150);
            // Keep space available by truncating aggressively.
            lz.truncate_to(Lsn::new(start.offset().saturating_sub(200)));
            lz.write_block(&b).unwrap();
            start = b.end_lsn();
            blocks.push(b);
        }
        // The most recent block definitely wrapped at least once; verify it
        // reads back correctly.
        let last = blocks.last().unwrap();
        assert_eq!(&lz.read_block(last.start_lsn()).unwrap(), last);
    }

    #[test]
    fn full_lz_applies_backpressure_until_truncated() {
        let (lz, _) = lz(400, 1, 1);
        let b1 = block_at(Lsn::ZERO, 150);
        lz.write_block(&b1).unwrap();
        let b2 = block_at(b1.end_lsn(), 150);
        let err = lz.write_block(&b2).unwrap_err();
        assert!(err.is_transient(), "LZ-full must be retryable: {err}");
        // Destage: truncate, then the write goes through.
        lz.truncate_to(b1.end_lsn());
        lz.write_block(&b2).unwrap();
        assert_eq!(lz.read_block(b2.start_lsn()).unwrap(), b2);
    }

    #[test]
    fn quorum_tolerates_minority_failure() {
        let (lz, faults) = lz(1 << 20, 2, 3);
        faults[1].set_unavailable(true);
        let b1 = block_at(Lsn::ZERO, 64);
        lz.write_block(&b1).unwrap(); // 2/3 still ack
                                      // Reads also skip the dead replica.
        assert_eq!(lz.read_block(Lsn::ZERO).unwrap(), b1);
    }

    #[test]
    fn quorum_fails_on_majority_failure() {
        let (lz, faults) = lz(1 << 20, 2, 3);
        faults[0].set_unavailable(true);
        faults[1].set_unavailable(true);
        let b1 = block_at(Lsn::ZERO, 64);
        let err = lz.write_block(&b1).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(lz.head(), Lsn::ZERO, "failed write must not advance head");
        // Replicas recover; the same block can be written now.
        faults[0].set_unavailable(false);
        faults[1].set_unavailable(false);
        lz.write_block(&b1).unwrap();
    }

    #[test]
    fn read_falls_through_torn_replica() {
        let (lz, faults) = lz(1 << 20, 2, 3);
        let b1 = block_at(Lsn::ZERO, 64);
        lz.write_block(&b1).unwrap();
        // Corrupt replica 0's copy; read must still succeed via replica 1.
        faults[0].write_at(10, &[0xFF; 16]).unwrap();
        assert_eq!(lz.read_block(Lsn::ZERO).unwrap(), b1);
    }

    #[test]
    fn truncated_and_future_reads_fail_cleanly() {
        let (lz, _) = lz(1 << 20, 1, 1);
        let b1 = block_at(Lsn::ZERO, 64);
        lz.write_block(&b1).unwrap();
        lz.truncate_to(b1.end_lsn());
        assert_eq!(lz.read_block(Lsn::ZERO).unwrap_err().kind(), "not_found");
        assert_eq!(lz.read_block(b1.end_lsn()).unwrap_err().kind(), "not_found");
        assert_eq!(lz.free_bytes(), 1 << 20);
    }

    #[test]
    fn scan_visits_blocks_in_order() {
        let (lz, _) = lz(1 << 20, 1, 1);
        let b1 = block_at(Lsn::ZERO, 10);
        lz.write_block(&b1).unwrap();
        let b2 = block_at(b1.end_lsn(), 20);
        lz.write_block(&b2).unwrap();
        let b3 = block_at(b2.end_lsn(), 30);
        lz.write_block(&b3).unwrap();
        let mut seen = vec![];
        lz.scan_from(Lsn::ZERO, |b| {
            seen.push(b.start_lsn());
            true
        })
        .unwrap();
        assert_eq!(seen, vec![b1.start_lsn(), b2.start_lsn(), b3.start_lsn()]);
        // Early stop.
        let mut count = 0;
        lz.scan_from(Lsn::ZERO, |_| {
            count += 1;
            false
        })
        .unwrap();
        assert_eq!(count, 1);
    }
}
