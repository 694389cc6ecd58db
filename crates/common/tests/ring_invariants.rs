//! Concurrency invariants of the lock-free span ring, written to run
//! under Miri (`cargo +nightly miri test -p socrates-common --test
//! ring_invariants`) as well as natively. Miri executes these with real
//! threads and checks every atomic access against the memory model, so
//! a missing fence or a torn seqlock read shows up as UB, not as a
//! once-a-month flake.
//!
//! The payloads are self-checking: every recorded span stores the same
//! value in all of its cells (`arg` included), so any torn read (mixing
//! two generations of one slot) breaks an equality the assertions check.

use socrates_common::metrics::{Counter, Histogram};
use socrates_common::obs::{MarkQueue, SpanEvent, SpanKind, SpanRing};
use socrates_common::{Lsn, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Iteration scale: Miri is ~two orders of magnitude slower than native,
/// so keep the schedules short there — the interleavings it explores are
/// what matter, not the volume.
const fn per_thread() -> u64 {
    if cfg!(miri) {
        12
    } else {
        200
    }
}

const WRITERS: u64 = 4;

#[test]
fn mark_queue_completes_each_mark_once_in_lsn_order() {
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    let mut q = MarkQueue::default();
    let mut done: Vec<(u64, Duration)> = Vec::new();

    // A zero frontier, then a repeated and a regressing one, leave no mark.
    q.push(Lsn::ZERO, at(0));
    q.push(Lsn::new(100), at(1));
    q.push(Lsn::new(100), at(2));
    q.push(Lsn::new(40), at(3));
    q.push(Lsn::new(200), at(4));
    q.push(Lsn::new(300), at(5));
    assert_eq!(q.len(), 3);

    // The watermark passes the first two marks: they complete oldest
    // first, each timed from its own push.
    q.advance(Lsn::new(250), at(10), |lsn, waited| done.push((lsn.offset(), waited)));
    assert_eq!(done, [(100, Duration::from_millis(9)), (200, Duration::from_millis(6))]);

    // The same frontier seen again, a regressing one and a zero one
    // record nothing twice.
    for frontier in [250, 150, 0] {
        q.advance(Lsn::new(frontier), at(11), |lsn, _| panic!("mark {lsn} completed twice"));
    }
    q.advance(Lsn::new(300), at(12), |lsn, waited| done.push((lsn.offset(), waited)));
    assert_eq!(done.len(), 3);
    assert_eq!(done[2], (300, Duration::from_millis(7)));
    assert!(q.is_empty());

    // Bounded: a stalled watermark drops the oldest marks, not the newest.
    let cap = socrates_common::obs::stage::MARK_CAPACITY as u64;
    for i in 1..=cap + 5 {
        q.push(Lsn::new(1_000 + i), at(20));
    }
    assert_eq!(q.len() as u64, cap);
    let mut first = None;
    q.advance(Lsn::new(u64::MAX), at(21), |lsn, _| {
        first.get_or_insert(lsn.offset());
    });
    assert_eq!(first, Some(1_000 + 6), "the five oldest marks were dropped");
    q.push(Lsn::new(5_000), at(22));
    q.clear();
    assert!(q.is_empty());
}

/// Record a cross-tier span whose every cell carries `tag`, so readers
/// can detect generation mixing. Tags must be ≥ 1 (0 is the "unsampled"
/// sentinel).
fn record_tagged(ring: &SpanRing, tag: u64) {
    ring.record(SpanEvent {
        trace_id: tag,
        span_id: tag,
        parent_id: tag,
        kind: SpanKind::WalHarden,
        node: NodeId::XLOG,
        start_ns: tag,
        dur_ns: tag,
        arg: tag,
    });
}

fn assert_spans_untorn(spans: &[SpanEvent]) {
    for s in spans {
        let tag = s.trace_id;
        assert!(tag != 0, "unsampled span leaked into the ring");
        assert!(
            s.span_id == tag
                && s.parent_id == tag
                && s.start_ns == tag
                && s.dur_ns == tag
                && s.arg == tag,
            "span cells from different generations: {s:?}"
        );
        assert_eq!(s.kind, SpanKind::WalHarden);
        assert_eq!(s.node, NodeId::XLOG);
    }
}

#[test]
fn cross_tier_span_ring_wraps_at_exact_capacity_boundaries() {
    const CAP: u64 = 8;
    let ring = SpanRing::new(CAP as usize, 1);

    // Exactly one capacity's worth: every span retained, oldest first.
    for tag in 1..=CAP {
        record_tagged(&ring, tag);
    }
    let tags: Vec<u64> = ring.spans().iter().map(|s| s.trace_id).collect();
    assert_eq!(tags, (1..=CAP).collect::<Vec<_>>());
    assert_eq!(ring.spans_recorded(), CAP);

    // Exactly one more capacity's worth: the first generation is fully
    // evicted, order still oldest-first across the wrap seam.
    for tag in CAP + 1..=2 * CAP {
        record_tagged(&ring, tag);
    }
    let tags: Vec<u64> = ring.spans().iter().map(|s| s.trace_id).collect();
    assert_eq!(tags, (CAP + 1..=2 * CAP).collect::<Vec<_>>());
    assert_eq!(ring.spans_recorded(), 2 * CAP);

    // One past the boundary evicts exactly the oldest survivor.
    record_tagged(&ring, 2 * CAP + 1);
    let tags: Vec<u64> = ring.spans().iter().map(|s| s.trace_id).collect();
    assert_eq!(tags, (CAP + 2..=2 * CAP + 1).collect::<Vec<_>>());

    // Degenerate capacities: a one-slot ring holds the latest span; a
    // zero-slot ring records nothing and never panics on the modulus.
    let one = SpanRing::new(1, 1);
    for tag in 1..=5 {
        record_tagged(&one, tag);
    }
    assert_eq!(one.spans().len(), 1);
    assert_eq!(one.spans()[0].trace_id, 5);
    let zero = SpanRing::new(0, 1);
    record_tagged(&zero, 1);
    assert!(zero.spans().is_empty());
    assert!(!zero.is_enabled(), "capacity 0 forces sampling off");
}

#[test]
fn cross_tier_span_ring_survives_concurrent_writers_at_capacity() {
    // Capacity equals the total write count divided evenly, so the ring
    // wraps many times and writers collide on slots while a reader races
    // them (the seqlock must make it skip, never mix, a mid-write slot).
    let ring = Arc::new(SpanRing::new(16, 1));
    let done = Arc::new(AtomicBool::new(false));

    thread::scope(|s| {
        for w in 0..WRITERS {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for i in 0..per_thread() {
                    record_tagged(&ring, w * 1_000_000 + i + 1);
                }
            });
        }
        let reader_ring = Arc::clone(&ring);
        let reader_done = Arc::clone(&done);
        let reader = s.spawn(move || {
            let mut snapshots = 0u64;
            loop {
                let spans = reader_ring.spans();
                assert!(spans.len() <= 16, "snapshot larger than the ring");
                assert_spans_untorn(&spans);
                snapshots += 1;
                if reader_done.load(Ordering::Acquire) {
                    break;
                }
            }
            snapshots
        });
        while ring.spans_recorded() < WRITERS * per_thread() {
            thread::yield_now();
        }
        done.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0, "reader never snapshotted");
    });

    // Quiescent: full ring, every survivor consistent and distinct.
    let spans = ring.spans();
    assert_eq!(spans.len(), 16, "ring retains exactly its capacity once full");
    assert_spans_untorn(&spans);
    let mut tags: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 16, "a slot published two copies of one span");
    assert_eq!(ring.spans_recorded(), WRITERS * per_thread());
}

#[test]
fn span_id_minting_is_unique_under_contention() {
    // Ids parent causal links across tiers; a duplicate id would splice
    // two unrelated spans into one trace. Mint from all writers at once
    // and check global uniqueness (and that sampled mints interleaved
    // with explicit mints never collide either).
    let ring = Arc::new(SpanRing::new(8, 1));
    let ids = thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..per_thread() {
                        if (w + i) % 2 == 0 {
                            got.push(ring.next_span_id());
                        } else {
                            got.push(ring.try_sample().expect("1-in-1 always mints").span_id);
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<u64>>()
    });
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "span id allocator produced a duplicate");
    assert!(!sorted.contains(&0), "id 0 is the unsampled sentinel and must never be minted");
}

#[test]
fn counters_and_histograms_lose_no_updates_under_contention() {
    let counter = Arc::new(Counter::default());
    let hist = Arc::new(Histogram::new());
    thread::scope(|s| {
        for _ in 0..WRITERS {
            let counter = Arc::clone(&counter);
            let hist = Arc::clone(&hist);
            s.spawn(move || {
                for i in 0..per_thread() {
                    counter.incr();
                    counter.add(2);
                    hist.record(i);
                }
            });
        }
    });
    assert_eq!(counter.get(), WRITERS * per_thread() * 3);
    assert_eq!(hist.count(), WRITERS * per_thread());
    assert_eq!(hist.snapshot().count, WRITERS * per_thread());
}

/// N advancers race a shared step counter up to `steps` while M waiters
/// each sleep on every target in turn. A lost wake-up strands a waiter
/// until its (generous) deadline, which the return-value assertion turns
/// into a failure rather than a slow pass.
#[test]
fn watermark_loses_no_wakeup_between_advancers_and_waiters() {
    use socrates_common::lsn::Watermark;
    use std::sync::atomic::AtomicU64;
    let steps: u64 = if cfg!(miri) { 60 } else { 10_000 };
    let deadline = Duration::from_secs(120);
    let w = Watermark::new(Lsn::ZERO);
    let next = AtomicU64::new(1);
    thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| loop {
                // ordering: relaxed — a ticket counter; the watermark's own
                // advance publishes the step
                let step = next.fetch_add(1, Ordering::Relaxed);
                if step > steps {
                    break;
                }
                w.advance_to(Lsn::new(step));
                if step.is_multiple_of(64) {
                    thread::yield_now(); // let waiters catch up and park
                }
            });
        }
        for _ in 0..4 {
            s.spawn(|| {
                let mut seen = Lsn::ZERO;
                for target in 1..=steps {
                    let at = w.wait_for(Lsn::new(target), deadline);
                    assert!(at >= Lsn::new(target), "waiter for {target} timed out at {at}");
                    assert!(at >= seen, "frontier regressed from {seen} to {at}");
                    seen = at;
                }
            });
        }
    });
    assert_eq!(w.load(), Lsn::new(steps));
}
