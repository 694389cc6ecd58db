//! The Socrates log substrate: records, blocks, the landing zone, and the
//! primary's log pipeline.
//!
//! Socrates treats the log as a first-class citizen, separate from both
//! compute and page storage (paper §4.1.4): durability is the log's job,
//! and the log alone decides how to be fast (landing zone on premium
//! storage), cheap (destaged to XStore), and scalable (disseminated by
//! XLOG). This crate provides the mechanisms; the `socrates-xlog` crate
//! provides the XLOG service that serves and destages the log.

pub mod block;
pub mod landing_zone;
pub mod pipeline;
pub mod quorum;
pub mod record;
pub mod ring;
pub mod store;

pub use block::{BlockBuilder, BlockInfo, LogBlock, BLOCK_HEADER};
pub use landing_zone::{LandingZone, LandingZoneConfig};
pub use pipeline::{BlockSink, LogDisseminator, LogPipeline, LogPipelineConfig, PartitionMap};
pub use quorum::{Acceptor, QuorumConfig, QuorumLog};
pub use record::{LogPayload, LogRecord, SequencedRecord};
pub use store::LogStore;
