//! Unit tests of the I/O scheduler: single-flight, batches and the background thread.

use super::*;
use crate::cache::tests::{until, Gate, HookedSource};
use std::time::Duration;

fn gated(gate: &Arc<Gate>) -> Arc<HookedSource> {
    let gate = Arc::clone(gate);
    HookedSource::new(move |_| gate.pass())
}

#[test]
fn single_flight_joins_only_a_fetch_fresh_enough() {
    // 7 of 8 readers at floor 5 join the first; one at floor 50 bypasses.
    let gate = Arc::new(Gate::default());
    let (src, s) = (&*gated(&gate), &IoScheduler::default());
    gate.hold();
    std::thread::scope(|scope| {
        let read = |floor| scope.spawn(move || s.fetch(&*src, PageId::new(1), Lsn::new(floor)));
        let readers: Vec<_> = (0..8).map(|_| read(5)).collect();
        until("seven readers to join the held fetch", || s.stats().joined.get() == 7);
        let fresher = read(50);
        until("the fresher fetch to reach the backend", || gate.entered() == 2);
        gate.release();
        for r in readers.into_iter().chain([fresher]) {
            assert_eq!(r.join().unwrap().unwrap().0.body()[0], 1);
        }
    });
    assert_eq!(gate.entered(), 2, "one backend call for the 8, one for the fresher");
    assert_eq!((s.stats().joined.get(), s.stats().single_calls.get()), (7, 2));
}

#[test]
fn a_leader_that_unwinds_fails_its_followers() {
    let (gate, s) = (Arc::new(Gate::default()), Arc::new(IoScheduler::default()));
    let g = Arc::clone(&gate);
    let src = HookedSource::new(move |_| {
        g.pass();
        panic!("the backend fails");
    });
    let sched = Arc::clone(&s);
    let fetch = move || sched.fetch(&*src, PageId::new(1), Lsn::ZERO);
    let (tx, rx) = std::sync::mpsc::channel();
    gate.hold();
    let leader = std::thread::spawn(fetch.clone());
    until("the leader to enter the backend", || gate.entered() == 1);
    // Not scoped: a follower left parked fails the test, not hangs it.
    std::thread::spawn(move || tx.send(fetch()));
    until("the follower to join", || s.stats().joined.get() == 1);
    gate.release();
    assert!(leader.join().is_err(), "the leader's fetch panicked");
    let followed = rx.recv_timeout(Duration::from_secs(5)).expect("the follower returns");
    assert!(matches!(followed, Err(Error::Unavailable(_))), "{followed:?}");
    assert_eq!(gate.entered(), 1, "the follower did not fetch");
}

#[test]
fn a_miss_joins_a_prefetch_range_on_the_wire_and_refetches_if_it_fails() {
    // (hint, readers, readers sure to join, ranges held, width read): 98..101
    // fails, its joiners fetch alone; with the thread held on 30..94 a joiner
    // fetches 94..100, and with it held on 0..64 a reader of 66 fetches the
    // rest of the hint but 66, which is on the wire as its own miss.
    let gate = Arc::new(Gate::default());
    let (src, s) = (&*gated(&gate), &IoScheduler::start(gated(&gate), Weak::new()));
    assert_eq!(s.stats().coalesce_ratio_pct(), 0, "defined before the first call");
    let cases =
        [(98, 3, [98, 100], 2, 1, 1), (30, 70, [30, 32], 2, 2, 64), (0, 70, [66, 66], 1, 2, 1)];
    for (first, count, pages, joining, held, width) in cases {
        let (entered, joins) = (gate.entered(), s.stats().joined.get());
        gate.hold();
        s.prefetch((first..first + count).map(PageId::new), Lsn::ZERO);
        until("the range to reach the backend", || gate.entered() == entered + 1);
        let results: Vec<_> = std::thread::scope(|scope| {
            let readers =
                pages.map(|raw| scope.spawn(move || s.fetch(src, PageId::new(raw), Lsn::ZERO)));
            until("the readers to join", || s.stats().joined.get() == joins + joining);
            until("the ranges to reach the backend", || gate.entered() == entered + held);
            gate.release();
            readers.map(|reader| reader.join().unwrap())
        })
        .into();
        let (_, meta) = results[0].as_ref().expect("the first page arrives");
        assert_eq!((meta.range_width, meta.range_fallback), (width, first == 98));
        assert_eq!(results[1].is_ok(), first != 98, "{:?}", results[1]);
    }
    let stats = s.stats();
    assert_eq!((stats.range_calls.get(), stats.range_pages.get()), (5, 142), "the queue is empty");
    assert_eq!(stats.prefetch_hints.get(), 143);
    assert_eq!(stats.single_calls.get(), 3, "the failed range's readers and 66's leader");
    assert_eq!(stats.coalesce_ratio_pct(), 98, "142 ranged pages of 145");
}

#[test]
fn a_batch_skips_pages_on_the_wire_and_a_miss_joins_it() {
    // No background thread: a batch needs only its source.
    let gate = Arc::new(Gate::default());
    let (src, s) = (&*gated(&gate), &IoScheduler::new(gated(&gate)));
    let ids = [3, 5, 7, 9].map(PageId::new);
    assert!(IoScheduler::default().fetch_batch(&ids, Lsn::ZERO).unwrap().is_empty(), "no source");
    gate.hold();
    std::thread::scope(|scope| {
        let five = scope.spawn(|| s.fetch(src, PageId::new(5), Lsn::ZERO));
        until("the miss of 5 to reach the backend", || gate.entered() == 1);
        let batch = scope.spawn(|| s.fetch_batch(&ids, Lsn::ZERO));
        until("the batch to reach the backend", || gate.entered() == 2);
        let seven = scope.spawn(|| s.fetch(src, PageId::new(7), Lsn::ZERO));
        until("the miss of 7 to join the batch", || s.stats().joined.get() == 1);
        gate.release();
        let batch = batch.join().unwrap().unwrap();
        let got = batch.iter().map(|(page, meta)| (page.page_id().raw(), meta.range_width));
        assert_eq!(got.collect::<Vec<_>>(), [(3, 3), (7, 3), (9, 3)], "5 was on the wire");
        assert_eq!(seven.join().unwrap().unwrap().1.range_width, 3);
        assert_eq!(five.join().unwrap().unwrap().1.range_width, 1);
    });
    let stats = s.stats();
    assert_eq!(
        (stats.range_calls.get(), stats.range_pages.get(), stats.single_calls.get()),
        (1, 3, 1)
    );
    assert_eq!(stats.submitted.get(), 5, "two misses and the batch's three pages");
}

#[test]
fn stopping_an_idle_scheduler_never_loses_its_wakeup() {
    // The idle thread parks untimed, so a stop wake-up lost between its
    // check and its park would hang this loop. The spin before each
    // drop sweeps the stop across the thread's start-up.
    let src = HookedSource::new(|_| {});
    for i in 0..5_000u64 {
        let _s = IoScheduler::start(Arc::clone(&src) as Arc<dyn RangedPageSource>, Weak::new());
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(i % 97) {}
    }
}
