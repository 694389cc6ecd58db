//! Page-level storage substrate for socrates-rs.
//!
//! This crate contains the pieces of the storage stack that every tier
//! shares:
//!
//! * [`page`] — the 8 KiB page with identity, PageLSN, and checksums.
//! * [`slotted`] — the slotted record layout inside a page.
//! * [`pageops`] — the deterministic, loggable page mutation vocabulary
//!   ([`pageops::PageOp`]), which is both the engine's mutation API and the
//!   log's redo payload.
//! * [`fcb`] — the FCB I/O virtualization layer (paper §3.6): one trait,
//!   many devices (memory, file, latency-injecting, fault-injecting).
//! * [`rbpex`] — the Resilient Buffer Pool Extension (paper §3.3): the
//!   compute node's recoverable SSD page cache.
//! * [`layer`] — immutable layer files for the page server's versioned
//!   store: open/sealed L0 delta layers, packed L1 image layers and the
//!   base image, a dense page file over the partition.
//! * [`layermap`] — the per-page layer index resolving `GetPage(X, lsn)`
//!   for arbitrary historical LSNs (image lookup + ordered delta replay)
//!   with zero-copy branch forks.
//! * [`cache`] — the compute node's tiered cache (memory → RBPEX → remote
//!   page source) with WAL discipline and evicted-LSN tracking.
//! * [`sched`] — the I/O scheduler between the cache and the remote
//!   source: single-flight GetPage@LSN on the reader's thread, plus one
//!   background thread for prefetch ranges and a free-frame reserve.

pub mod cache;
pub mod fcb;
pub mod layer;
pub mod layermap;
pub mod page;
pub mod pageops;
pub mod rbpex;
pub mod sched;
pub mod slotted;

pub use cache::{FetchMeta, PageRef, PageSource, RangedPageSource, TieredCache};
pub use fcb::{CountingFcb, FaultFcb, Fcb, FileFcb, LatencyFcb, MemFcb, PageFile};
pub use layer::{DeltaLayer, ImageLayer, OpenLayer};
pub use layermap::{LayerCounts, LayerMap};
pub use page::{Page, PageType, PAGE_HEADER_SIZE, PAGE_SIZE};
pub use pageops::{apply_page_op, PageOp};
pub use rbpex::Rbpex;
pub use sched::IoScheduler;
pub use slotted::Slotted;
