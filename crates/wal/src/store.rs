//! The log-store abstraction: what the rest of the system needs from
//! "the durable tail of the log", independent of how it is replicated.
//!
//! Socrates' landing zone (paper §4.1.4) is one implementation: a fixed
//! write-quorum over premium-storage FCB replicas fronted by a single
//! writer. The quorum log tier ([`crate::quorum`]) is another: three
//! safekeeper-style acceptors with term-based leadership, where the
//! durable head is a *commit watermark* advanced on majority ack. Both
//! present the same surface — an LSN-addressed block window between
//! `tail` (destaged below) and `head` (hardened up to) — so XLOG, the
//! primary's pipeline, and the fabric can be wired against either.

use crate::block::LogBlock;
use crate::pipeline::BlockSink;
use socrates_common::{Lsn, Result};

/// An LSN-addressed durable block window. `BlockSink::submit` appends at
/// `head`; `truncate_to` advances `tail` once blocks are destaged.
pub trait LogStore: BlockSink {
    /// First LSN not yet hardened: everything below is durable.
    fn head(&self) -> Lsn;

    /// Oldest LSN still held; everything below has been destaged.
    fn tail(&self) -> Lsn;

    /// Bytes of capacity left before `submit` starts returning
    /// `Unavailable` backpressure.
    fn free_bytes(&self) -> u64;

    /// Read the block starting exactly at `lsn`.
    fn read_block(&self, lsn: Lsn) -> Result<LogBlock>;

    /// Drop all blocks ending at or below `lsn` (destage handoff).
    fn truncate_to(&self, lsn: Lsn);

    /// Visit blocks in order from `from` until `f` returns false.
    fn scan_from(&self, from: Lsn, f: &mut dyn FnMut(LogBlock) -> bool) -> Result<()>;

    /// Re-establish the right to append after a (possible) writer
    /// restart, returning the LSN new appends must start at.
    ///
    /// For the single-writer landing zone this rewinds past the dead
    /// writer: every write it issued is already on the replicas, so it
    /// drops whatever never became durable and returns `head()`. For the
    /// quorum tier it runs a leader campaign: bump the term, collect a
    /// majority of votes, truncate divergent acceptor tails, and catch
    /// stragglers up to the elected start position.
    fn recover(&self) -> Result<Lsn>;
}

use crate::landing_zone::LandingZone;

impl LogStore for LandingZone {
    fn head(&self) -> Lsn {
        LandingZone::head(self)
    }

    fn tail(&self) -> Lsn {
        LandingZone::tail(self)
    }

    fn free_bytes(&self) -> u64 {
        LandingZone::free_bytes(self)
    }

    fn read_block(&self, lsn: Lsn) -> Result<LogBlock> {
        LandingZone::read_block(self, lsn)
    }

    fn truncate_to(&self, lsn: Lsn) {
        LandingZone::truncate_to(self, lsn)
    }

    fn scan_from(&self, from: Lsn, f: &mut dyn FnMut(LogBlock) -> bool) -> Result<()> {
        LandingZone::scan_from(self, from, f)
    }

    fn recover(&self) -> Result<Lsn> {
        // Single designated writer: whatever is hardened is the truth.
        Ok(LandingZone::recover(self))
    }
}
