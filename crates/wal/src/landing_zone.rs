//! The landing zone (LZ) — the small, fast, durable tail of the log.
//!
//! The primary writes log blocks to the LZ for the lowest possible commit
//! latency (paper §4.3). The LZ is a *circular buffer* over a replicated
//! storage service: in production Azure Premium Storage (XIO, three
//! replicas) or DirectDrive; here, a set of [`Fcb`] replicas wrapped in the
//! matching latency profile. A block is *hardened* once a write quorum of
//! replicas holds it.
//!
//! A device wait is a deadline, not a thread. [`LandingZone::submit`]
//! reserves the block's range and issues it to every replica on the
//! caller's thread with [`Fcb::write_deadline`], which returns at once with
//! the instant the write is durable; the service takes any number of
//! writes at once, as XIO does. The returned [`LzWrite`] sleeps until the
//! quorum-th earliest deadline, and [`LzWrite::publish`] then advances the
//! durable `head` — in LSN order, so blocks may complete out of order but
//! the durable prefix never has a hole. Every issued write is on its
//! replicas by the time `submit` returns, so a rewind
//! ([`LandingZone::recover`], or re-submitting at the durable head after a
//! failed write) never has a stale write still to land.
//!
//! The LZ is bounded: XLOG's destaging pipeline must continually move the
//! tail to long-term storage and advance the truncation point, or the
//! primary stalls — exactly the backpressure the paper describes
//! ("Socrates cannot process any update transactions once the LZ is full").
//!
//! Readers tolerate a non-quorum replica holding torn or stale bytes: every
//! block is checksummed, and reads fall through to the next replica on
//! validation failure — concurrent readers need no synchronisation with the
//! writer beyond wraparound protection, as in the paper. The one stale
//! image a checksum cannot catch is an abandoned block at the very LSN a
//! newer block now starts at; so in a range a rewind abandoned, a read
//! takes only an image a write quorum of replicas agrees on.

use crate::block::LogBlock;
use crate::ring;
use parking_lot::Mutex;
use socrates_common::fault::{sites, FaultOutcome, FaultRegistry};
use socrates_common::latency::precise_sleep;
use socrates_common::{Error, Lsn, Result};
use socrates_storage::Fcb;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a new writer leaves the old one, once every write it issued
/// is durable, to publish the writes that reached their quorum. The old
/// writer only has to wake from its sleep and take two locks; without
/// this lease the two wake-ups race, and a commit whose block made its
/// quorum is refused instead of acknowledged.
const TAKEOVER_GRACE: Duration = Duration::from_millis(5);

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
        // 16 MiB, quorum 2-of-3. The LZ holds only the log not yet
        // destaged, so it is sized by destage lag, not by history: the
        // worst lag measured is ≈ 7.9 MB, during a bulk load while XStore
        // write spikes stall destaging; 16 MiB is twice that.
        LandingZoneConfig { capacity: 16 << 20, write_quorum: 2 }
    }
}

struct LzState {
    /// Durable frontier: every block below it is on a write quorum.
    head: Lsn,
    /// Submit cursor: the next block must start here. `[head, reserved)`
    /// is on the devices or waiting for its in-order publish.
    reserved: Lsn,
    /// Oldest LSN still retained (everything older has been destaged).
    tail: Lsn,
    /// Bumped by every rewind: a write submitted before it cannot publish.
    epoch: u64,
    /// When every write issued so far is durable on each replica that
    /// took it.
    settled: Instant,
    /// LSN ranges rewinds abandoned while blocks were on the devices:
    /// a replica may hold a valid image of an abandoned block there.
    abandoned: Vec<(Lsn, Lsn)>,
}

/// A quorum-replicated circular log store.
///
/// Writes go to all replicas **in parallel** — issued together, each with
/// its own deadline, as the real storage service's replication runs them —
/// and a block is durable as soon as a write quorum has acknowledged: the
/// commit latency is the quorum-th fastest replica, not the sum.
pub struct LandingZone {
    replicas: Vec<Arc<dyn Fcb>>,
    config: LandingZoneConfig,
    /// Shared with every [`LzWrite`], which publishes into it.
    state: Arc<Mutex<LzState>>,
    faults: FaultRegistry,
}

impl LandingZone {
    /// Create an LZ over `replicas` (all starting empty). `submit`
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
        LandingZone {
            replicas,
            config,
            state: Arc::new(Mutex::with_rank(
                LzState {
                    head: Lsn::ZERO,
                    reserved: Lsn::ZERO,
                    tail: Lsn::ZERO,
                    epoch: 0,
                    settled: Instant::now(),
                    abandoned: Vec::new(),
                },
                socrates_common::lock_rank::WAL_LZ_STATE,
                "lz.state",
            )),
            faults,
        }
    }
    /// Create an LZ whose first block will start at `start` instead of
    /// [`Lsn::ZERO`] — used when a log store is (re)created mid-stream,
    /// e.g. a restored deployment.
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
            s.reserved = start;
            s.tail = start;
        }
        lz
    }

    /// The durable frontier: every block below it is on a write quorum.
    pub fn head(&self) -> Lsn {
        self.state.lock().head
    }

    /// The truncation point: the oldest retained LSN.
    pub fn tail(&self) -> Lsn {
        self.state.lock().tail
    }

    /// Bytes currently free for submits.
    pub fn free_bytes(&self) -> u64 {
        let s = self.state.lock();
        self.config.capacity - (s.reserved - s.tail)
    }

    /// The replica devices (tests inject faults through these).
    pub fn replicas(&self) -> &[Arc<dyn Fcb>] {
        &self.replicas
    }

    /// Durably append `block`: [`submit`](Self::submit), wait for the
    /// write quorum, publish. For callers with one block at a time.
    pub fn write_block(&self, block: &LogBlock) -> Result<()> {
        let mut write = self.submit(block)?;
        write.wait()?;
        write.publish()
    }

    /// Issue `block` to every replica and return without waiting for the
    /// devices.
    ///
    /// The block must start at the submit cursor: right after the last
    /// submitted block. Re-submitting at the durable head instead (the
    /// retry after a failed write) abandons every block past the head:
    /// the LZ rewinds its cursor first. Fails with
    /// [`Error::Unavailable`] when the LZ is full (destage backpressure).
    pub fn submit(&self, block: &LogBlock) -> Result<LzWrite> {
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
        let start = block.start_lsn();
        let epoch = {
            let mut s = self.state.lock();
            if start == s.head && s.head < s.reserved {
                // The retry after a failed write: abandon everything past
                // the durable head and resume there.
                Self::rewind(&mut s);
            }
            if start != s.reserved {
                return Err(Error::InvalidArgument(format!(
                    "block starts at {start} but the LZ submit cursor is {}",
                    s.reserved
                )));
            }
            let len = block.len() as u64;
            if len > self.config.capacity {
                return Err(Error::InvalidArgument(format!(
                    "block of {len} bytes exceeds LZ capacity {}",
                    self.config.capacity
                )));
            }
            if (s.reserved - s.tail) + len > self.config.capacity {
                return Err(Error::Unavailable(
                    "landing zone full; destaging has not caught up".into(),
                ));
            }
            s.reserved = block.end_lsn();
            s.epoch
        };
        let mut durable = Vec::with_capacity(self.replicas.len());
        let mut refused = 0;
        for replica in &self.replicas {
            match ring::write_block(&**replica, self.config.capacity, block) {
                Ok(at) => durable.push(at),
                Err(_) => refused += 1,
            }
        }
        durable.sort_unstable();
        if let Some(&last) = durable.last() {
            let mut s = self.state.lock();
            s.settled = s.settled.max(last);
        }
        Ok(LzWrite {
            state: Arc::clone(&self.state),
            start,
            end: block.end_lsn(),
            epoch,
            durable,
            refused,
            quorum: self.config.write_quorum,
        })
    }

    /// Take the log over from a writer that may have died: let the writes
    /// it left on the devices settle, as the storage service finishes
    /// them, and give it [`TAKEOVER_GRACE`] to publish those that reached
    /// their quorum; then rewind — drop whatever lies past the durable
    /// head and resume submits there. Writes submitted before the rewind
    /// can no longer publish; each is already on its replicas, so none
    /// lands later. Returns the durable head.
    pub fn recover(&self) -> Lsn {
        let s = self.state.lock();
        let lease_ends = s.settled + TAKEOVER_GRACE;
        drop(s);
        precise_sleep(lease_ends.saturating_duration_since(Instant::now()));
        let mut s = self.state.lock();
        Self::rewind(&mut s);
        s.head
    }

    fn rewind(s: &mut LzState) {
        if s.reserved > s.head {
            let range = (s.head, s.reserved);
            s.abandoned.push(range);
        }
        s.reserved = s.head;
        s.epoch += 1;
    }

    /// Read the block starting at `lsn`, trying replicas until one yields a
    /// validating image — or, where a rewind abandoned blocks, until a write
    /// quorum of replicas agrees on one.
    pub fn read_block(&self, lsn: Lsn) -> Result<LogBlock> {
        let contested = {
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
            s.abandoned.iter().any(|&(from, to)| lsn >= from && lsn < to)
        };
        if contested {
            let mut seen: Vec<(LogBlock, usize)> = Vec::new();
            for replica in &self.replicas {
                let Ok(b) = ring::read_block(&**replica, self.config.capacity, lsn) else {
                    continue;
                };
                match seen.iter_mut().find(|(img, _)| *img == b) {
                    Some((_, copies)) => *copies += 1,
                    None => seen.push((b, 1)),
                }
            }
            return seen
                .into_iter()
                .find(|&(_, copies)| copies >= self.config.write_quorum)
                .map(|(b, _)| b)
                .ok_or_else(|| {
                    Error::Unavailable(format!("no write quorum of replicas agrees on {lsn}"))
                });
        }
        let mut last_err: Option<Error> = None;
        for replica in &self.replicas {
            match ring::read_block(&**replica, self.config.capacity, lsn) {
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
            let tail = s.tail;
            s.abandoned.retain(|&(_, to)| to > tail);
        }
    }
}

/// One block's write, issued by [`LandingZone::submit`].
pub struct LzWrite {
    state: Arc<Mutex<LzState>>,
    start: Lsn,
    end: Lsn,
    epoch: u64,
    /// When each replica that took the write holds it durably, earliest
    /// first.
    durable: Vec<Instant>,
    /// Replicas that refused the write.
    refused: usize,
    quorum: usize,
}

impl LzWrite {
    /// Sleep until a write quorum of replicas holds the block. Fails with
    /// [`Error::Unavailable`] when too many replicas refused it.
    pub fn wait(&mut self) -> Result<()> {
        let Some(&at) = self.durable.get(self.quorum - 1) else {
            return Err(Error::Unavailable(format!(
                "LZ quorum failed: {}/{} acks ({} replicas failed)",
                self.durable.len(),
                self.quorum,
                self.refused
            )));
        };
        precise_sleep(at.saturating_duration_since(Instant::now()));
        Ok(())
    }

    /// Advance the durable head over the block. Blocks publish in LSN
    /// order, each after its [`wait`](Self::wait) succeeded; a block whose
    /// range was rewound since it was submitted is refused.
    pub fn publish(self) -> Result<()> {
        let mut s = self.state.lock();
        if s.epoch != self.epoch || s.head != self.start {
            return Err(Error::InvalidState(format!(
                "LZ block at {} cannot publish: the durable head is {} (rewound since submit)",
                self.start, s.head
            )));
        }
        s.head = self.end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::record::{LogPayload, LogRecord};
    use socrates_common::{PageId, PartitionId, TxnId};
    use socrates_storage::{FaultFcb, MemFcb};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A replica whose writes at byte offset 0 are durable `delay_ms`
    /// after they are issued.
    struct SlowFcb {
        inner: MemFcb,
        delay_ms: AtomicU64,
    }

    impl Fcb for SlowFcb {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_at(offset, data)
        }
        fn write_deadline(&self, offset: u64, data: &[u8]) -> Result<Instant> {
            let delay = if offset == 0 { self.delay_ms.load(Ordering::SeqCst) } else { 0 };
            Ok(self.inner.write_deadline(offset, data)? + Duration::from_millis(delay))
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

    fn slow_lz(n: usize, quorum: usize) -> (LandingZone, Vec<Arc<SlowFcb>>) {
        let slow: Vec<Arc<SlowFcb>> = (0..n)
            .map(|i| {
                Arc::new(SlowFcb {
                    inner: MemFcb::new(format!("lz-{i}")),
                    delay_ms: AtomicU64::new(0),
                })
            })
            .collect();
        let replicas = slow.iter().map(|f| Arc::clone(f) as Arc<dyn Fcb>).collect();
        let config = LandingZoneConfig { capacity: 1 << 20, write_quorum: quorum };
        (LandingZone::new(replicas, config, FaultRegistry::disabled()), slow)
    }

    /// The bytes replica `fcb` holds where `block` belongs.
    fn image_on(fcb: &SlowFcb, block: &LogBlock) -> Vec<u8> {
        let mut buf = vec![0u8; block.len()];
        fcb.read_at(block.start_lsn().offset(), &mut buf).unwrap();
        buf
    }

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

    #[test]
    fn overlapping_writes_publish_in_lsn_order() {
        let (lz, slow) = slow_lz(1, 1);
        slow[0].delay_ms.store(300, Ordering::SeqCst);
        let b1 = block_at(Lsn::ZERO, 100);
        let mut w1 = lz.submit(&b1).unwrap();
        let b2 = block_at(b1.end_lsn(), 100);
        let t0 = Instant::now();
        let mut w2 = lz.submit(&b2).unwrap();
        // b2 has its own deadline: it does not queue behind b1's slow
        // write.
        w2.wait().unwrap();
        assert!(t0.elapsed() < Duration::from_millis(150), "b2 queued behind b1");
        assert_eq!(lz.head(), Lsn::ZERO, "b2 is durable but b1 is not");
        assert_eq!(lz.read_block(b2.start_lsn()).unwrap_err().kind(), "not_found");
        w1.wait().unwrap();
        w1.publish().unwrap();
        assert_eq!(lz.head(), b1.end_lsn());
        w2.publish().unwrap();
        assert_eq!(lz.head(), b2.end_lsn());
        assert_eq!(lz.read_block(b2.start_lsn()).unwrap(), b2);
        // Out of order, a publish is refused and moves nothing.
        let b3 = block_at(b2.end_lsn(), 10);
        let b4 = block_at(b3.end_lsn(), 10);
        let w3 = lz.submit(&b3).unwrap();
        let mut w4 = lz.submit(&b4).unwrap();
        w4.wait().unwrap();
        assert!(w4.publish().is_err());
        assert_eq!(lz.head(), b2.end_lsn());
        drop(w3);
    }

    #[test]
    fn a_write_is_on_every_replica_when_submit_returns() {
        // Replica 2 is slow: the quorum (0 and 1) acks long before it is
        // durable there.
        let (lz, slow) = slow_lz(3, 2);
        slow[2].delay_ms.store(60, Ordering::SeqCst);
        let stale = block_at(Lsn::ZERO, 300);
        let t0 = Instant::now();
        let mut w = lz.submit(&stale).unwrap();
        // Nothing waits in submit, and nothing is left to land later: a
        // rewind never has a stale write still on its way to a replica.
        assert!(t0.elapsed() < Duration::from_millis(30), "submit waited for the device");
        for replica in &slow {
            assert_eq!(image_on(replica, &stale), stale.as_bytes(), "a write had not landed");
        }
        w.wait().unwrap();
        assert!(t0.elapsed() < Duration::from_millis(30), "the quorum waited for replica 2");
        // The writer dies before publishing. Recovery lets the write still
        // on replica 2's device settle before it rewinds.
        let head = lz.recover();
        assert!(t0.elapsed() >= Duration::from_millis(60), "recover did not wait out replica 2");
        assert_eq!(head, Lsn::ZERO, "an unpublished block is not durable");
        assert!(w.publish().is_err(), "a write from before the recovery published");
        // The new writer's different block at the same offset is the one
        // every replica keeps.
        let fresh = block_at(Lsn::ZERO, 20);
        lz.write_block(&fresh).unwrap();
        for replica in &slow {
            assert_eq!(image_on(replica, &fresh), fresh.as_bytes());
        }
        assert_eq!(lz.read_block(Lsn::ZERO).unwrap(), fresh);
    }

    #[test]
    fn a_wrapping_block_hardens_in_one_device_latency() {
        use socrates_common::latency::{DeviceProfile, LatencyInjector, LatencyModel};
        use socrates_storage::LatencyFcb;
        const WRITE: Duration = Duration::from_millis(20);
        let profile = DeviceProfile {
            write: LatencyModel::fixed(WRITE.as_micros() as u64),
            ..DeviceProfile::instant()
        };
        let replicas: Vec<Arc<dyn Fcb>> = (0..3)
            .map(|i| {
                let inj = LatencyInjector::new(profile.clone(), i);
                Arc::new(LatencyFcb::new(MemFcb::new(format!("lz-{i}")), inj, None)) as _
            })
            .collect();
        let config = LandingZoneConfig { capacity: 700, write_quorum: 2 };
        let lz = LandingZone::new(replicas, config, FaultRegistry::disabled());
        let first = block_at(Lsn::ZERO, 400);
        lz.write_block(&first).unwrap();
        lz.truncate_to(first.end_lsn());
        // The next block runs past the ring's end: two device writes.
        let wrapping = block_at(first.end_lsn(), 400);
        assert!(first.end_lsn().offset() + wrapping.len() as u64 > 700, "block does not wrap");
        let t0 = Instant::now();
        lz.write_block(&wrapping).unwrap();
        let took = t0.elapsed();
        assert!(took >= WRITE, "hardened in {took:?}, before the device latency");
        assert!(
            took < WRITE.mul_f64(1.5),
            "a wrapping block took {took:?} for one {WRITE:?} write"
        );
        assert_eq!(lz.read_block(wrapping.start_lsn()).unwrap(), wrapping);
    }

    #[test]
    fn retry_at_the_head_abandons_the_writes_after_it() {
        let (lz, faults) = lz(1 << 20, 2, 3);
        faults[0].set_unavailable(true);
        faults[1].set_unavailable(true);
        let k = block_at(Lsn::ZERO, 64);
        let mut wk = lz.submit(&k).unwrap();
        assert!(wk.wait().is_err());
        faults[0].set_unavailable(false);
        faults[1].set_unavailable(false);
        let k1 = block_at(k.end_lsn(), 64);
        let mut wk1 = lz.submit(&k1).unwrap();
        wk1.wait().unwrap();
        // Re-sending k rewinds the cursor: k+1 must be sent again too.
        lz.write_block(&k).unwrap();
        assert!(wk1.publish().is_err());
        assert_eq!(lz.free_bytes(), (1 << 20) - k.len() as u64);
        lz.write_block(&k1).unwrap();
        assert_eq!(lz.head(), k1.end_lsn());
    }
}
