//! The RBIO message vocabulary.
//!
//! Strongly typed and versioned: every envelope carries the protocol
//! version, and a receiver rejects versions it does not speak — the
//! paper's "automatic versioning" in its simplest faithful form. The
//! messages cover what Socrates moves over RBIO: pages (single and
//! stride-preserving ranges), applied-LSN probes, and health pings.

use socrates_common::obs::TraceCtx;
use socrates_common::{Error, Lsn, PageId, Result};

/// Protocol version spoken by this build.
pub const RBIO_VERSION: u16 = 1;

/// A request from a compute node to a page server (or any RBIO service).
#[derive(Clone, Debug, PartialEq)]
pub enum RbioRequest {
    /// GetPage@LSN: return `page_id` at an LSN ≥ `min_lsn`.
    GetPage {
        /// The page to fetch.
        page_id: PageId,
        /// The page must reflect all log up to at least this LSN.
        min_lsn: Lsn,
    },
    /// Stride-preserving multi-page read (scans read up to 128 pages per
    /// request; a covering page-server cache serves it as one device I/O).
    GetPageRange {
        /// First page of the contiguous range.
        first: PageId,
        /// Number of pages.
        count: u32,
        /// Freshness floor, as in `GetPage`.
        min_lsn: Lsn,
    },
    /// Health probe / QoS latency measurement.
    Ping,
    /// Ask the server how far it has applied the log.
    GetAppliedLsn,
}

/// A response to an [`RbioRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum RbioResponse {
    /// A sealed page image.
    Page {
        /// `Page::to_io_bytes()` output.
        bytes: Vec<u8>,
        /// Microseconds the server spent producing the page (apply wait,
        /// cache/XStore reads), stamped by the server so clients can
        /// split round-trip time into wire vs. serve for span tracing.
        serve_us: u64,
    },
    /// Sealed images for a contiguous range.
    PageRange {
        /// One sealed image per page, in order.
        pages: Vec<Vec<u8>>,
        /// Server-side serve time for the whole range, as in
        /// [`RbioResponse::Page::serve_us`].
        serve_us: u64,
    },
    /// Ping reply.
    Pong,
    /// The server's applied-LSN watermark.
    AppliedLsn {
        /// Everything below this LSN has been applied.
        lsn: Lsn,
    },
}

/// A versioned envelope as it crosses the wire.
#[derive(Clone, Debug)]
pub struct Envelope<T> {
    /// Protocol version of the sender.
    pub version: u16,
    /// Causal trace context (two u64 words on the wire;
    /// [`TraceCtx::NONE`] — all zeros — when the caller is unsampled, so
    /// the disarmed path costs nothing but copying zeros).
    pub ctx: TraceCtx,
    /// The message.
    pub body: T,
}

impl<T> Envelope<T> {
    /// Wrap `body` for the current protocol version, carrying a causal
    /// trace context.
    pub fn with_ctx(body: T, ctx: TraceCtx) -> Envelope<T> {
        Envelope { version: RBIO_VERSION, ctx, body }
    }

    /// Reject envelopes from a different protocol version.
    pub fn check_version(&self) -> Result<()> {
        if self.version != RBIO_VERSION {
            return Err(Error::Protocol(format!(
                "peer speaks RBIO v{}, this build speaks v{RBIO_VERSION}",
                self.version
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_check() {
        let env = Envelope::with_ctx(RbioRequest::Ping, TraceCtx::NONE);
        assert_eq!(env.version, RBIO_VERSION);
        env.check_version().unwrap();
        let bad = Envelope { version: RBIO_VERSION + 1, ..env };
        assert_eq!(bad.check_version().unwrap_err().kind(), "protocol");
    }
}
