//! Causal cross-tier tracing: the one exemplar ring.
//!
//! The stage histograms in [`stage`](super::stage) answer "how long does
//! each stage take *in aggregate*" — but Socrates splits one commit
//! across four processes-worth of machinery, and aggregates cannot
//! reconstruct *one* request's causal path (primary → log pipeline →
//! XLOG feed → page-server apply). This module records exactly that,
//! for the 1-in-N requests the sampling knob selects:
//!
//! - [`TraceCtx`] is the compact context minted at commit/GetPage entry:
//!   a trace id and the current span id, 16 bytes, `Copy`. The zero
//!   context means "not sampled" and is what every boundary forwards on
//!   the unsampled fast path. On the wire (RBIO envelopes) it travels as
//!   two little-endian `u64`s; in-process handoffs (log blocks riding
//!   the lossy feed) carry it as a plain field that is *not* serialized —
//!   a block re-decoded from the landing zone has lost its context, by
//!   design (gap-fill is a recovery path, not the traced path).
//! - [`SpanRing`] is the workspace's only seqlock ring; every tier's
//!   spans land in it. Sampling is 1-in-N (`sample_every`, 0 = off): the
//!   disarmed fast path is a single immutable-field compare, no atomics,
//!   no allocation. Span ids are minted eagerly — a parent allocates its
//!   id before children record — so causal links hold even though spans
//!   complete (and publish) children-first.
//! - [`SpanEvent`] is both what a site records and the read-side
//!   snapshot. Its `arg` cell carries the span's one payload: the commit
//!   LSN on `commit`, the page id on `getpage`, the coalesce membership
//!   on `getpage.sched_queue` ([`pack_coalesce`]) and the hedge outcome
//!   on `rbio.net` ([`HEDGE_LOST`]/[`HEDGE_WON`]). The Chrome trace-event
//!   exporter over a batch of events lives in
//!   [`export::chrome_trace_json`](super::export::chrome_trace_json)
//!   (`socmon --export-chrome`).

#![doc = "soclint:hot"]

use crate::ids::{NodeId, NodeKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The propagated trace context: which trace this request belongs to and
/// the span the next child should parent under. The zero value (see
/// [`TraceCtx::NONE`]) means "not sampled" and makes forwarding free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id (0 = not sampled). Equals the root span's id.
    pub trace_id: u64,
    /// The span id children of this context parent under.
    pub span_id: u64,
}

impl TraceCtx {
    /// The unsampled context every boundary forwards for free.
    pub const NONE: TraceCtx = TraceCtx { trace_id: 0, span_id: 0 };

    /// Whether this context selects the request for span recording.
    #[inline]
    pub const fn sampled(self) -> bool {
        self.trace_id != 0
    }

    /// Wire encoding: two `u64`s stamped on RBIO envelopes.
    #[inline]
    pub const fn to_wire(self) -> (u64, u64) {
        (self.trace_id, self.span_id)
    }

    /// Decode the RBIO wire form.
    #[inline]
    pub const fn from_wire(trace_id: u64, span_id: u64) -> TraceCtx {
        TraceCtx { trace_id, span_id }
    }
}

/// Generates [`SpanKind`] together with its `ALL` table and `name()` from
/// one list, so the ring's storage encoding (a kind's position in `ALL`)
/// and its decode cannot drift from the variants.
macro_rules! span_kinds {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// What a recorded span measured. Names are stable and used by
        /// the exporters.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum SpanKind { $($(#[$doc])* $variant,)* }

        impl SpanKind {
            /// Every kind; a kind's position is its ring encoding.
            pub const ALL: &'static [SpanKind] = &[$(SpanKind::$variant,)*];

            /// Stable lowercase name used in exports.
            pub const fn name(self) -> &'static str {
                match self { $(SpanKind::$variant => $name,)* }
            }
        }
    };
}

span_kinds! {
    /// Whole commit: begin → durable (root span, primary; `arg` = LSN).
    Commit => "commit",
    /// Engine time from txn begin to the commit append (primary).
    CommitEngine => "commit.engine",
    /// `commit_wait` — the durability wait (primary).
    CommitHarden => "commit.harden",
    /// One block's landing-zone harden inside the flush loop (primary).
    WalHarden => "wal.harden",
    /// Lossy-feed pump delivering one block into XLOG (xlog).
    XlogFeed => "xlog.feed",
    /// Page-server apply of one pulled block (pageserver).
    PsApply => "ps.apply",
    /// Server-side GetPage serve (pageserver).
    PsServe => "ps.serve",
    /// Whole GetPage miss: probe → install (root span, compute node;
    /// `arg` = page id).
    GetPage => "getpage",
    /// RBIO round trip as seen by the client (compute node; `arg` = hedge
    /// outcome).
    RbioNet => "rbio.net",
    /// Page-server read falling through to XStore (xstore).
    XstoreRead => "xstore.read",
    /// Checkpoint blob write into XStore (xstore).
    XstorePut => "xstore.put",
    /// Whole checkpoint: dirty scan → blob durable (root span, pageserver).
    PsCheckpoint => "ps.checkpoint",
    /// One compaction pass: sealed L0s merged into an L1 image (root
    /// span, pageserver).
    PsCompact => "ps.compact",
    /// Probing the local tiers before the miss is declared (compute node).
    GetPageProbe => "getpage.cache_probe",
    /// Scheduler queue wait, enqueue → dispatch (compute node; `arg` =
    /// coalesce membership).
    GetPageQueue => "getpage.sched_queue",
    /// Installing the fetched page into the compute cache (compute node).
    GetPageSink => "getpage.sink",
}

/// `rbio.net` `arg`: a hedge fired but the first attempt still won.
pub const HEDGE_LOST: u64 = 1;
/// `rbio.net` `arg`: a hedge fired and the hedged attempt won.
pub const HEDGE_WON: u64 = 2;

/// `getpage.sched_queue` `arg`: pages in the dispatched batch (1 = a lone
/// `GetPage`), and whether the range failed and this page was re-fetched
/// alone.
pub const fn pack_coalesce(range_width: u32, range_fallback: bool) -> u64 {
    ((range_width as u64) << 1) | range_fallback as u64
}

/// Inverse of [`pack_coalesce`].
pub const fn unpack_coalesce(arg: u64) -> (u32, bool) {
    ((arg >> 1) as u32, arg & 1 == 1)
}

/// Pack a [`NodeId`] into one `u64` ring cell (kind in the high half,
/// index in the low).
const fn pack_node(node: NodeId) -> u64 {
    ((node.kind as u64) << 32) | node.index as u64
}

fn unpack_node(v: u64) -> Option<NodeId> {
    let kind = *NodeKind::ALL.get((v >> 32) as usize)?;
    Some(NodeId { kind, index: v as u32 })
}

/// One span: what a recording site publishes with [`SpanRing::record`]
/// and what [`SpanRing::spans`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this span belongs to (equals the root span's id).
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Causal parent span id (0 for a root span).
    pub parent_id: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// The node (tier + index) that did the work.
    pub node: NodeId,
    /// Start, nanoseconds since the ring's epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds (clamped to ≥ 1 when recorded).
    pub dur_ns: u64,
    /// The kind's one payload (see [`SpanKind`]); 0 when it has none.
    pub arg: u64,
}

/// One ring slot. A generation counter (`seq`) detects reuse: readers
/// only trust a slot whose generation is unchanged across their read.
#[derive(Default)]
struct Slot {
    /// Generation: `claim_counter + 1` while occupied, 0 while empty.
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    kind: AtomicU64,
    node: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
}

/// Spans a deployment's ring retains (for `socmon --export-chrome`,
/// `socmon --reads` and blackbox bundles).
pub const SPAN_CAPACITY: usize = 4096;

/// The workspace-wide cross-tier span ring.
///
/// One instance per deployment (all tiers share it — they share a
/// process, and a shared epoch is what makes the timeline assemble).
/// `sample_every == 0` or capacity 0 disables tracing entirely: minting
/// returns [`TraceCtx::NONE`], every boundary forwards the zero context,
/// and no recording site takes a single atomic — the knob behind
/// `SocratesConfig::trace_sample` and the overhead baseline.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Total spans ever recorded; `next % capacity` is the ring index.
    next: AtomicU64,
    /// Shared id allocator for traces and spans (ids start at 1; a trace
    /// id is its root span's id).
    ids: AtomicU64,
    /// Commit/GetPage entries seen, for the 1-in-N selection.
    sample_tick: AtomicU64,
    /// Mint a context every N entries; 0 disables sampling. Immutable, so
    /// the disarmed check is a plain field load.
    sample_every: u64,
    /// All `start_ns` values are relative to this instant.
    epoch: Instant,
}

impl SpanRing {
    /// A ring retaining the last `capacity` spans, minting a context for
    /// one in `sample_every` entries.
    // soclint-allow: hot-path one-time construction
    pub fn new(capacity: usize, sample_every: u64) -> SpanRing {
        SpanRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            next: AtomicU64::new(0),
            ids: AtomicU64::new(1),
            sample_tick: AtomicU64::new(0),
            sample_every: if capacity == 0 { 0 } else { sample_every },
            epoch: Instant::now(),
        }
    }

    /// A ring that samples nothing (the overhead baseline).
    pub fn disabled() -> SpanRing {
        SpanRing::new(0, 0)
    }

    /// Whether any context can ever be minted.
    pub fn is_enabled(&self) -> bool {
        self.sample_every != 0
    }

    /// Total spans recorded since creation.
    pub fn spans_recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed) // ordering: relaxed — generation counter read for sizing; staleness fine
    }

    /// Nanoseconds since the ring's epoch — the timebase every recording
    /// site stamps `start_ns` with.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mint a context at a trace entry point (commit, GetPage miss).
    /// Returns `None` for the other N-1 requests — and always, with zero
    /// atomics, when sampling is disabled.
    #[inline]
    pub fn try_sample(&self) -> Option<TraceCtx> {
        if self.sample_every == 0 {
            return None; // disarmed fast path: one immutable-field compare
        }
        // ordering: relaxed — sampling tick; 1-in-N selection needs only RMW atomicity
        let tick = self.sample_tick.fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(self.sample_every) {
            return None;
        }
        // ordering: relaxed — id uniqueness needs only RMW atomicity
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        Some(TraceCtx { trace_id: id, span_id: id })
    }

    /// Allocate a span id before the work it will measure starts, so the
    /// id can be propagated (e.g. stamped on an RBIO envelope) while the
    /// span is still open. Record it later with [`SpanRing::record`].
    #[inline]
    pub fn next_span_id(&self) -> u64 {
        // ordering: relaxed — id uniqueness needs only RMW atomicity
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Publish one finished span. Duration is clamped to ≥ 1 ns so a span
    /// always reads as present even on a coarse clock. Ignores the zero
    /// trace (unsampled contexts may reach shared recording sites).
    pub fn record(&self, ev: SpanEvent) {
        if ev.trace_id == 0 || self.slots.is_empty() {
            return;
        }
        // ordering: relaxed — ring cursor; slot exclusivity comes from the seqlock
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        // ordering: release — seqlock write-begin: readers must see the slot invalid before any torn payload
        slot.seq.store(0, Ordering::Release);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.trace_id.store(ev.trace_id, Ordering::Relaxed);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.span_id.store(ev.span_id, Ordering::Relaxed);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.parent_id.store(ev.parent_id, Ordering::Relaxed);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.kind.store(ev.kind as u64, Ordering::Relaxed);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.node.store(pack_node(ev.node), Ordering::Relaxed);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.start_ns.store(ev.start_ns, Ordering::Relaxed);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.dur_ns.store(ev.dur_ns.max(1), Ordering::Relaxed);
        // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
        slot.arg.store(ev.arg, Ordering::Relaxed);
        // ordering: release — seqlock publish: payload stores must not sink below this
        slot.seq.store(n + 1, Ordering::Release);
    }

    /// Record a payload-less root span (parent 0, span id = the minted id).
    pub fn record_root(
        &self,
        ctx: TraceCtx,
        kind: SpanKind,
        node: NodeId,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.record(SpanEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: 0,
            kind,
            node,
            start_ns,
            dur_ns,
            arg: 0,
        });
    }

    /// Record a finished payload-less child of `ctx`, allocating its span
    /// id. Returns the child's id so the caller can parent further work
    /// under it.
    pub fn record_child(
        &self,
        ctx: TraceCtx,
        kind: SpanKind,
        node: NodeId,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        if !ctx.sampled() {
            return 0;
        }
        let span_id = self.next_span_id();
        self.record(SpanEvent {
            trace_id: ctx.trace_id,
            span_id,
            parent_id: ctx.span_id,
            kind,
            node,
            start_ns,
            dur_ns,
            arg: 0,
        });
        span_id
    }

    /// Snapshot every currently-readable span, oldest first. Slots being
    /// rewritten concurrently — or decoding to no known kind or node —
    /// are skipped as torn (seqlock read protocol).
    // soclint-allow: hot-path cold read-side snapshot (exporters, blackbox), not a recording path
    pub fn spans(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            // ordering: acquire — seqlock read-begin: pairs with the publish store
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
            let kind = SpanKind::ALL.get(slot.kind.load(Ordering::Relaxed) as usize).copied();
            // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
            let node = unpack_node(slot.node.load(Ordering::Relaxed));
            let (Some(kind), Some(node)) = (kind, node) else { continue };
            let ev = SpanEvent {
                // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
                span_id: slot.span_id.load(Ordering::Relaxed),
                // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
                parent_id: slot.parent_id.load(Ordering::Relaxed),
                kind,
                node,
                // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                // ordering: relaxed — payload cell; ordered by the seq release/acquire pair
                arg: slot.arg.load(Ordering::Relaxed),
            };
            // ordering: acquire — seqlock read-end: a changed seq means the payload tore
            if slot.seq.load(Ordering::Acquire) != seq {
                continue;
            }
            out.push((seq, ev));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, ev)| ev).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_ctx_is_unsampled_and_wire_roundtrips() {
        assert!(!TraceCtx::NONE.sampled());
        let ctx = TraceCtx { trace_id: 7, span_id: 9 };
        assert!(ctx.sampled());
        let (t, s) = ctx.to_wire();
        assert_eq!(TraceCtx::from_wire(t, s), ctx);
    }

    #[test]
    fn disabled_ring_mints_and_records_nothing() {
        let ring = SpanRing::disabled();
        assert!(!ring.is_enabled());
        for _ in 0..100 {
            assert_eq!(ring.try_sample(), None);
        }
        let ctx = TraceCtx { trace_id: 1, span_id: 1 };
        ring.record_root(ctx, SpanKind::Commit, NodeId::PRIMARY, 0, 10);
        assert!(ring.spans().is_empty());
        assert_eq!(ring.spans_recorded(), 0);
    }

    #[test]
    fn one_in_n_sampling() {
        let ring = SpanRing::new(64, 4);
        let minted = (0..40).filter(|_| ring.try_sample().is_some()).count();
        assert_eq!(minted, 10);
        // sample_every == 1 traces everything.
        let all = SpanRing::new(64, 1);
        assert!((0..10).all(|_| all.try_sample().is_some()));
    }

    #[test]
    fn child_spans_link_to_their_parent() {
        let ring = SpanRing::new(64, 1);
        let ctx = ring.try_sample().unwrap();
        assert_eq!(ctx.trace_id, ctx.span_id, "trace id is the root span id");
        let child = ring.record_child(ctx, SpanKind::CommitHarden, NodeId::PRIMARY, 10, 5);
        assert_ne!(child, 0);
        ring.record_root(ctx, SpanKind::Commit, NodeId::PRIMARY, 0, 20);
        let spans = ring.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.span_id == ctx.span_id).unwrap();
        let kid = spans.iter().find(|s| s.span_id == child).unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(kid.parent_id, root.span_id);
        assert_eq!(kid.trace_id, root.trace_id);
        assert_eq!(kid.kind, SpanKind::CommitHarden);
    }

    #[test]
    fn unsampled_ctx_never_lands_in_the_ring() {
        let ring = SpanRing::new(8, 1);
        assert_eq!(ring.record_child(TraceCtx::NONE, SpanKind::PsApply, NodeId::XLOG, 1, 1), 0);
        ring.record_root(TraceCtx::NONE, SpanKind::Commit, NodeId::PRIMARY, 1, 1);
        assert!(ring.spans().is_empty());
    }

    #[test]
    fn ring_retains_most_recent_capacity_spans() {
        let ring = SpanRing::new(4, 1);
        for i in 0..10u64 {
            let ctx = ring.try_sample().unwrap();
            ring.record_root(ctx, SpanKind::GetPage, NodeId::secondary(0), i * 100, 10);
        }
        let spans = ring.spans();
        assert_eq!(spans.len(), 4);
        // Oldest-first, and only the last four survive.
        let starts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![600, 700, 800, 900]);
    }

    #[test]
    fn ring_encoding_roundtrips_every_span_kind_and_node_kind() {
        // A kind is stored as its position in `ALL`, so each table must
        // list every variant at its own discriminant.
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{} out of place in SpanKind::ALL", kind.name());
        }
        for (i, kind) in NodeKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{} out of place in NodeKind::ALL", kind.tier_name());
        }
        let names: std::collections::HashSet<&str> =
            SpanKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), SpanKind::ALL.len(), "two kinds share an export name");

        // Every (kind, node kind) pair survives the ring, `arg` included.
        let ring = SpanRing::new(SpanKind::ALL.len() * NodeKind::ALL.len(), 1);
        let mut want = Vec::new();
        for kind in SpanKind::ALL {
            for node_kind in NodeKind::ALL {
                let n = want.len() as u64 + 1;
                let ev = SpanEvent {
                    trace_id: n,
                    span_id: n,
                    parent_id: 0,
                    kind: *kind,
                    node: NodeId { kind: node_kind, index: n as u32 },
                    start_ns: n,
                    dur_ns: n,
                    arg: u64::MAX - n,
                };
                ring.record(ev);
                want.push(ev);
            }
        }
        assert_eq!(ring.spans(), want);
    }

    #[test]
    fn undecodable_slots_are_skipped_as_torn() {
        let ring = SpanRing::new(4, 1);
        ring.record_root(
            TraceCtx { trace_id: 1, span_id: 1 },
            SpanKind::Commit,
            NodeId::XLOG,
            1,
            1,
        );
        ring.record_root(
            TraceCtx { trace_id: 2, span_id: 2 },
            SpanKind::GetPage,
            NodeId::XLOG,
            1,
            1,
        );
        // ordering: relaxed — single-threaded test poking a payload cell
        ring.slots[0].kind.store(SpanKind::ALL.len() as u64, Ordering::Relaxed);
        // ordering: relaxed — single-threaded test poking a payload cell
        ring.slots[1].node.store((NodeKind::ALL.len() as u64) << 32, Ordering::Relaxed);
        assert!(ring.spans().is_empty(), "an out-of-range kind or node must not decode");
    }

    #[test]
    fn coalesce_payload_roundtrips() {
        for (width, fallback) in [(1, false), (16, true), (u32::MAX, true)] {
            assert_eq!(unpack_coalesce(pack_coalesce(width, fallback)), (width, fallback));
        }
    }

    #[test]
    fn durations_clamp_to_one() {
        let ring = SpanRing::new(4, 1);
        let ctx = ring.try_sample().unwrap();
        ring.record_root(ctx, SpanKind::Commit, NodeId::PRIMARY, 5, 0);
        assert_eq!(ring.spans()[0].dur_ns, 1);
    }
}
