//! Log sequence numbers.
//!
//! Socrates, like SQL Server, identifies every position in the transaction
//! log with a log sequence number. We model LSNs as byte offsets into a
//! single, conceptually infinite log stream: the LSN of a record is the
//! offset of its first byte, and the "end LSN" of a block is the offset one
//! past its last byte. Byte-offset LSNs make landing-zone wraparound
//! arithmetic and destaging bookkeeping straightforward.

use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A position in the database log, measured in bytes from the start of the
/// log stream.
///
/// `Lsn` is totally ordered; larger means later. [`Lsn::ZERO`] is the start
/// of the log and is never the address of a real record (the log begins with
/// a header record), so it doubles as "no LSN yet" in progress tracking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The beginning of the log stream.
    pub const ZERO: Lsn = Lsn(0);
    /// A sentinel larger than every real LSN.
    pub const MAX: Lsn = Lsn(u64::MAX);

    /// Construct an LSN from a raw byte offset.
    #[inline]
    pub const fn new(offset: u64) -> Self {
        Lsn(offset)
    }

    /// The raw byte offset.
    #[inline]
    pub const fn offset(self) -> u64 {
        self.0
    }

    /// Whether this LSN is the zero sentinel.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The number of bytes between `self` and an earlier LSN.
    ///
    /// # Panics
    /// Panics if `earlier > self`.
    #[inline]
    pub fn distance_from(self, earlier: Lsn) -> u64 {
        assert!(earlier <= self, "LSN distance underflow: {earlier} > {self}");
        self.0 - earlier.0
    }

    /// Saturating maximum of two LSNs.
    #[inline]
    pub fn max(self, other: Lsn) -> Lsn {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating minimum of two LSNs.
    #[inline]
    pub fn min(self, other: Lsn) -> Lsn {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<u64> for Lsn {
    type Output = Lsn;
    #[inline]
    fn add(self, rhs: u64) -> Lsn {
        Lsn(self.0.checked_add(rhs).expect("LSN overflow"))
    }
}

impl AddAssign<u64> for Lsn {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Sub<Lsn> for Lsn {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Lsn) -> u64 {
        self.distance_from(rhs)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<u64> for Lsn {
    fn from(v: u64) -> Self {
        Lsn(v)
    }
}

/// An atomic cell holding an LSN, used for watermarks shared across threads
/// (applied LSN, hardened LSN, destaged LSN, truncation point, ...).
#[derive(Debug, Default)]
pub struct AtomicLsn(std::sync::atomic::AtomicU64);

impl AtomicLsn {
    /// Create a watermark initialised to `lsn`.
    pub fn new(lsn: Lsn) -> Self {
        AtomicLsn(std::sync::atomic::AtomicU64::new(lsn.0))
    }

    /// Read the current watermark.
    #[inline]
    pub fn load(&self) -> Lsn {
        // ordering: acquire — a watermark read also acquires whatever the
        // advancing thread published before moving it (log bytes, applied pages)
        Lsn(self.0.load(std::sync::atomic::Ordering::Acquire))
    }

    /// Unconditionally set the watermark.
    #[inline]
    pub fn store(&self, lsn: Lsn) {
        // ordering: release — publishes the state the new watermark covers
        self.0.store(lsn.0, std::sync::atomic::Ordering::Release)
    }

    /// Advance the watermark to `lsn` if it is currently behind it.
    /// Returns the previous value.
    pub fn advance_to(&self, lsn: Lsn) -> Lsn {
        // ordering: acqrel — monotone advance must both publish covered state
        // and observe a concurrent advancer's, whichever wins the max
        Lsn(self.0.fetch_max(lsn.0, std::sync::atomic::Ordering::AcqRel))
    }
}

/// A monotone LSN frontier a thread can sleep on — the one way to wait for
/// log progress (hardened, released, destaged, applied). Frontiers nobody
/// waits on stay plain [`AtomicLsn`]s.
pub struct Watermark {
    lsn: AtomicLsn,
    /// Wake epoch, bumped by [`wake_all`](Self::wake_all). A leaf lock:
    /// held only around the notify and the check-then-park.
    wakes: Mutex<u64>,
    cv: Condvar,
}

/// How long a background loop sleeps on the frontier it follows before
/// re-checking its stop flag. A backstop only: stop paths set the flag and
/// call [`Watermark::wake_all`], so nothing depends on this period.
pub const IDLE_WAIT: Duration = Duration::from_secs(1);

/// Pause before a background loop retries after an error (XStore outage,
/// unreadable log): paces the retry, it does not poll a frontier.
pub const RETRY_PAUSE: Duration = Duration::from_millis(5);

/// The stop flag of waiters that have none.
static NEVER: AtomicBool = AtomicBool::new(false);

impl Watermark {
    /// Create a frontier initialised to `lsn`.
    pub fn new(lsn: Lsn) -> Self {
        Watermark {
            lsn: AtomicLsn::new(lsn),
            wakes: Mutex::with_rank(0, crate::lock_rank::COMMON_WATERMARK, "common.watermark"),
            cv: Condvar::new(),
        }
    }

    /// Read the frontier.
    #[inline]
    pub fn load(&self) -> Lsn {
        self.lsn.load()
    }

    /// Advance the frontier to `lsn` if it is behind it and wake every
    /// waiter; returns the previous value. Taking the mutex around the
    /// notify closes the check-then-park race with `wait_for`.
    pub fn advance_to(&self, lsn: Lsn) -> Lsn {
        let prev = self.lsn.advance_to(lsn);
        if prev < lsn {
            let _g = self.wakes.lock();
            self.cv.notify_all();
        }
        prev
    }

    /// Block until the frontier reaches `target`, [`wake_all`](Self::wake_all)
    /// is called, or `timeout` passes; returns the frontier then seen.
    pub fn wait_for(&self, target: Lsn, timeout: Duration) -> Lsn {
        self.wait_for_unless(target, timeout, &NEVER)
    }

    /// [`wait_for`](Self::wait_for) for a loop with a stop flag: `stop` is
    /// read under the mutex before every park, so a stopper that sets it
    /// and then calls [`wake_all`](Self::wake_all) cannot be missed.
    pub fn wait_for_unless(&self, target: Lsn, timeout: Duration, stop: &AtomicBool) -> Lsn {
        let at = self.load();
        if at >= target {
            return at;
        }
        let deadline = Instant::now() + timeout;
        let mut wakes = self.wakes.lock();
        let epoch = *wakes;
        loop {
            let at = self.load();
            let left = deadline.saturating_duration_since(Instant::now());
            // ordering: relaxed — the flag publishes nothing; the stopper's
            // wake_all hands this mutex over after its store
            let woken = *wakes != epoch || stop.load(Ordering::Relaxed);
            if at >= target || woken || left.is_zero() {
                return at;
            }
            self.cv.wait_for(&mut wakes, left);
        }
    }

    /// Return every current waiter without moving the frontier (stop and
    /// error paths).
    pub fn wake_all(&self) {
        *self.wakes.lock() += 1;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ordering_and_arithmetic() {
        let a = Lsn::new(100);
        let b = a + 28;
        assert!(b > a);
        assert_eq!(b - a, 28);
        assert_eq!(b.distance_from(a), 28);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    #[should_panic(expected = "LSN distance underflow")]
    fn distance_underflow_panics() {
        let _ = Lsn::new(5).distance_from(Lsn::new(6));
    }

    #[test]
    fn zero_sentinel() {
        assert!(Lsn::ZERO.is_zero());
        assert!(!Lsn::new(1).is_zero());
        assert!(Lsn::MAX > Lsn::new(u64::MAX - 1));
    }

    #[test]
    fn atomic_advance_is_monotonic() {
        let w = AtomicLsn::new(Lsn::new(10));
        w.advance_to(Lsn::new(5));
        assert_eq!(w.load(), Lsn::new(10));
        w.advance_to(Lsn::new(20));
        assert_eq!(w.load(), Lsn::new(20));
        w.store(Lsn::new(3));
        assert_eq!(w.load(), Lsn::new(3));
    }

    #[test]
    fn watermark_advance_is_monotone_and_returns_previous() {
        let w = Watermark::new(Lsn::new(10));
        assert_eq!(w.advance_to(Lsn::new(5)), Lsn::new(10));
        assert_eq!(w.load(), Lsn::new(10));
        assert_eq!(w.advance_to(Lsn::new(20)), Lsn::new(10));
        assert_eq!(w.advance_to(Lsn::new(20)), Lsn::new(20));
        assert_eq!(w.load(), Lsn::new(20));
    }

    /// Far longer than any test should take: a wait that ends by timeout
    /// instead of by wake-up fails the assertion on its return value.
    const GENEROUS: Duration = Duration::from_secs(60);

    #[test]
    fn watermark_returns_waiters_arriving_before_and_after_the_advance() {
        let w = Arc::new(Watermark::new(Lsn::ZERO));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let early = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || {
                ready_tx.send(()).unwrap();
                w.wait_for(Lsn::new(7), GENEROUS)
            })
        };
        // The early waiter is at (or past) its wait; whichever side of the
        // park the advance lands on, it must be seen.
        ready_rx.recv().unwrap();
        w.advance_to(Lsn::new(3)); // short of the target: the waiter stays
        w.advance_to(Lsn::new(9));
        assert_eq!(early.join().unwrap(), Lsn::new(9));
        // A waiter arriving after the advance returns without parking.
        assert_eq!(w.wait_for(Lsn::new(9), GENEROUS), Lsn::new(9));
        assert_eq!(w.wait_for(Lsn::new(1), Duration::ZERO), Lsn::new(9));
    }

    #[test]
    fn watermark_timeout_returns_the_stale_frontier() {
        let w = Watermark::new(Lsn::new(4));
        let t0 = Instant::now();
        assert_eq!(w.wait_for(Lsn::new(5), Duration::from_millis(20)), Lsn::new(4));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(w.load(), Lsn::new(4), "a timed-out wait moves nothing");
    }

    #[test]
    fn watermark_wake_all_returns_a_waiter_short_of_its_target() {
        let w = Arc::new(Watermark::new(Lsn::new(1)));
        let waiter = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.wait_for(Lsn::MAX, GENEROUS))
        };
        // A flagless waiter only sees wakes that follow its arrival, so
        // keep waking until it has returned.
        let t0 = Instant::now();
        while !waiter.is_finished() {
            w.wake_all();
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().unwrap(), Lsn::new(1));
        assert!(t0.elapsed() < GENEROUS, "returned by the wake, not the deadline");
    }

    #[test]
    fn watermark_stop_flag_set_before_the_wait_is_never_missed() {
        let w = Arc::new(Watermark::new(Lsn::new(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiter = {
            let (w, stop) = (Arc::clone(&w), Arc::clone(&stop));
            std::thread::spawn(move || {
                ready_tx.send(()).unwrap();
                let t0 = Instant::now();
                (w.wait_for_unless(Lsn::MAX, GENEROUS, &stop), t0.elapsed())
            })
        };
        ready_rx.recv().unwrap();
        // One store, one wake: correct on either side of the waiter's park.
        stop.store(true, Ordering::Relaxed); // ordering: test flag, see wait_for_unless
        w.wake_all();
        let (at, waited) = waiter.join().unwrap();
        assert_eq!(at, Lsn::new(1));
        assert!(waited < GENEROUS, "returned by the stop, not the deadline");
    }

    #[test]
    fn display_format() {
        assert_eq!(Lsn::new(42).to_string(), "lsn:42");
        assert_eq!(format!("{:?}", Lsn::new(42)), "lsn:42");
    }
}
