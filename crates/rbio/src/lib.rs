//! RBIO — Remote Block I/O (paper §3.4).
//!
//! Socrates extends SQL Server's Unified Communication Stack with a
//! stateless, strongly-typed block protocol: compute nodes fetch pages from
//! page servers with it (GetPage@LSN), and it provides versioning,
//! resilience to transient failures, and QoS-based best-replica selection.
//!
//! This crate reproduces the protocol over an in-process transport: a call
//! runs the server's handler on the caller's thread between two modelled
//! wire legs, with injectable per-message latency, loss and faults, so the
//! distributed behaviours (retries, timeouts, replica failover) are real
//! even though everything runs in one process. The lossy log feed is the
//! one channel.
//!
//! * [`proto`] — the typed request/response messages and version envelope.
//! * [`transport`] — server endpoints, client stubs, retry policy.
//! * [`lossy`] — the fire-and-forget lossy channel used for the primary's
//!   speculative log feed to XLOG (paper §4.3).
//! * [`replica`] — QoS replica sets: route each call to the replica with
//!   the best observed latency, failing over on transient errors.

pub mod lossy;
pub mod proto;
pub mod replica;
pub mod transport;

pub use lossy::LossyChannel;
pub use proto::{RbioRequest, RbioResponse, RBIO_VERSION};
pub use replica::{CallMeta, HedgeConfig, ReplicaSet};
pub use transport::{NetworkConfig, RbioClient, RbioHandler, RbioServer};
