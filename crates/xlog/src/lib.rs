//! XLOG — the separate log service (paper §4.3, Figure 3).
//!
//! XLOG is what makes the log a first-class tier in Socrates. The primary
//! writes blocks synchronously to the landing zone (durability) and sends
//! the same blocks to XLOG in fire-and-forget style (availability). XLOG
//!
//! * keeps the blocks in a **pending area** until the primary reports them
//!   hardened — speculative log must never be disseminated, or a consumer
//!   could apply updates that a crash then un-commits;
//! * repairs the lossy feed by **filling gaps from the landing zone** and
//!   dropping duplicates/reorderings;
//! * serves consumers (secondaries, page servers) from a tiered hierarchy:
//!   the in-memory **sequence map**, then a local **SSD block cache**, then
//!   the landing zone, then the **long-term archive (LT)** on XStore where
//!   a block is guaranteed to be found;
//! * **destages** released blocks to the SSD cache and LT, and truncates
//!   the landing zone behind the destage point — the backpressure loop that
//!   bounds the expensive LZ;
//! * serves pull-based consumers, each of which tracks its own progress,
//!   so it never needs to know how many page servers exist.

pub mod feed;
pub mod service;

pub use feed::XLogFeed;
pub use service::{PullResult, XLogConfig, XLogMetrics, XLogService, PULL_BATCH_BYTES};
