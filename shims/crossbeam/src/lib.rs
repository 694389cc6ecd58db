//! Workspace-local `crossbeam` shim.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the one piece of crossbeam the workspace uses: the
//! multi-producer **multi-consumer** channel (`crossbeam::channel`).
//! Like crossbeam's, and unlike `std::sync::mpsc`, its `Receiver` clones
//! (every clone drains the same queue), so this is a small MPMC channel
//! built on a `Mutex<VecDeque>` + `Condvar` pair with sender/receiver
//! reference counting for disconnection semantics. Blocking calls sleep
//! until a message, a disconnection or their deadline: nothing polls.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when every receiver is gone.
    /// The unsent message is handed back.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T: Send> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`]: the channel is empty and every
    /// sender is gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        /// Waiters blocked in `recv`/`recv_timeout` (channel empty) and, for
        /// bounded channels, waiters blocked in `send` (channel full).
        cond: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// `usize::MAX` means unbounded.
        capacity: usize,
    }

    /// The sending half of a channel. Cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel. Cloneable — every clone drains the
    /// same queue (MPMC), each message is delivered to exactly one receiver.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(usize::MAX)
    }

    /// Create a bounded channel; `send` blocks while `cap` messages are
    /// queued. `cap = 0` behaves as capacity 1 (this shim does not implement
    /// rendezvous channels; the workspace never creates one).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(cap.max(1))
    }

    fn with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            capacity,
        });
        (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
    }

    impl<T> Inner<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            match self.queue.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
        }

        fn wait<'a>(
            &self,
            queue: std::sync::MutexGuard<'a, VecDeque<T>>,
        ) -> std::sync::MutexGuard<'a, VecDeque<T>> {
            match self.cond.wait(queue) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
        }

        /// Wake every waiter after the last sender or receiver left. Taking
        /// the lock first orders the wake after any waiter's check of the
        /// count, so none can park past it.
        fn wake_all(&self) {
            drop(self.lock());
            self.cond.notify_all();
        }
    }

    impl<T> Sender<T> {
        /// Send a message, blocking if a bounded channel is full. Fails only
        /// when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let inner = &*self.inner;
            let mut queue = inner.lock();
            loop {
                // ordering: acquire — pairs with the AcqRel drop of the last
                // receiver; senders must not observe 0 before its queue effects
                if inner.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(msg));
                }
                if queue.len() < inner.capacity {
                    queue.push_back(msg);
                    drop(queue);
                    inner.cond.notify_all();
                    return Ok(());
                }
                queue = inner.wait(queue);
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            // ordering: acqrel — refcount; the last drop's release pairs with the
            // acquire checks in recv paths
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            // ordering: acqrel — the final decrement releases all prior sends to
            // whichever receiver observes disconnection
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // disconnection.
                self.inner.wake_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Receive a message, blocking until one arrives or every sender is
        /// dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let inner = &*self.inner;
            let mut queue = inner.lock();
            loop {
                if let Some(msg) = queue.pop_front() {
                    drop(queue);
                    inner.cond.notify_all();
                    return Ok(msg);
                }
                // ordering: acquire — pairs with the AcqRel drop of the last sender:
                // observing 0 must also show every message they queued
                if inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = inner.wait(queue);
            }
        }

        /// Receive a message if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let inner = &*self.inner;
            let mut queue = inner.lock();
            if let Some(msg) = queue.pop_front() {
                drop(queue);
                inner.cond.notify_all();
                return Ok(msg);
            }
            // ordering: acquire — pairs with the AcqRel drop of the last sender:
            // observing 0 must also show every message they queued
            if inner.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receive a message, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let inner = &*self.inner;
            let mut queue = inner.lock();
            loop {
                if let Some(msg) = queue.pop_front() {
                    drop(queue);
                    inner.cond.notify_all();
                    return Ok(msg);
                }
                // ordering: acquire — pairs with the AcqRel drop of the last sender:
                // observing 0 must also show every message they queued
                if inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                queue = match inner.cond.wait_timeout(queue, deadline - now) {
                    Ok((g, _)) => g,
                    Err(p) => p.into_inner().0,
                };
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            // ordering: acqrel — refcount; see the senders counterpart above
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // ordering: acqrel — the final decrement releases the drain to senders
            // that observe disconnection
            if self.inner.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver gone: wake blocked senders so they observe
                // disconnection.
                self.inner.wake_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnection_semantics() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );

            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(9).is_err());
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            let start = Instant::now();
            assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Err(RecvTimeoutError::Timeout));
            assert!(start.elapsed() >= Duration::from_millis(20));
        }

        #[test]
        fn mpmc_workers_drain_shared_receiver() {
            let (tx, rx) = unbounded::<u32>();
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut all: Vec<u32> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn bounded_channel_blocks_until_drained() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let t = thread::spawn(move || {
                tx.send(3).unwrap(); // blocks until a slot frees
                "sent"
            });
            thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(t.join().unwrap(), "sent");
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }
    }
}
