//! The fire-and-forget lossy channel.
//!
//! The primary sends every log block to the XLOG process "asynchronously
//! and possibly unreliably (in fire-and-forget style) using a lossy
//! protocol" (paper §4.3). Losing or reordering these messages must be
//! harmless — XLOG's pending area fills gaps from the landing zone — so the
//! transport here deliberately drops and reorders messages under test
//! configuration to prove that.

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use socrates_common::metrics::Counter;
use socrates_common::rng::Rng;

/// Loss/reorder behaviour of a [`LossyChannel`].
#[derive(Clone, Debug)]
pub struct LossyConfig {
    /// Probability a sent message is silently dropped.
    pub loss_p: f64,
    /// Probability a message is delayed behind the next one (pairwise
    /// reorder).
    pub reorder_p: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LossyConfig {
    /// A reliable, ordered channel.
    pub fn reliable() -> LossyConfig {
        LossyConfig { loss_p: 0.0, reorder_p: 0.0, seed: 0 }
    }

    /// A nasty link for tests.
    pub fn unreliable(loss_p: f64, reorder_p: f64, seed: u64) -> LossyConfig {
        LossyConfig { loss_p, reorder_p, seed }
    }
}

/// One-way, unbounded, fire-and-forget channel with injectable loss and
/// pairwise reordering.
pub struct LossyChannel<T> {
    tx: Sender<T>,
    state: Mutex<SendState<T>>,
    /// Messages dropped by loss injection.
    pub dropped: Counter,
    /// Messages delivered out of order by reorder injection.
    pub reordered: Counter,
}

struct SendState<T> {
    rng: Rng,
    held: Option<T>,
    loss_p: f64,
    reorder_p: f64,
}

/// The receiving half.
pub struct LossyReceiver<T> {
    rx: Receiver<T>,
}

impl<T: Send + 'static> LossyChannel<T> {
    /// Create a channel with the given behaviour.
    pub fn new(config: LossyConfig) -> (LossyChannel<T>, LossyReceiver<T>) {
        let (tx, rx) = unbounded();
        (
            LossyChannel {
                tx,
                state: Mutex::new(SendState {
                    rng: Rng::new(config.seed),
                    held: None,
                    loss_p: config.loss_p,
                    reorder_p: config.reorder_p,
                }),
                dropped: Counter::new(),
                reordered: Counter::new(),
            },
            LossyReceiver { rx },
        )
    }

    /// Send `msg`, which may be dropped or reordered. Never blocks; errors
    /// (receiver gone) are swallowed — that is what fire-and-forget means.
    pub fn send(&self, msg: T) {
        let mut st = self.state.lock();
        let (loss_p, reorder_p) = (st.loss_p, st.reorder_p);
        if loss_p > 0.0 && st.rng.gen_bool(loss_p) {
            self.dropped.incr();
            return;
        }
        if reorder_p > 0.0 && st.held.is_none() && st.rng.gen_bool(reorder_p) {
            // Hold this message back; it will follow the next one.
            st.held = Some(msg);
            return;
        }
        let _ = self.tx.send(msg);
        if let Some(held) = st.held.take() {
            self.reordered.incr();
            let _ = self.tx.send(held);
        }
    }

    /// Messages sent but not yet received — the channel's queue depth.
    /// A saturation signal: a receiver keeping up holds this near zero.
    pub fn pending(&self) -> usize {
        self.tx.len()
    }
}

impl<T> LossyReceiver<T> {
    /// Receive, blocking until a message arrives. `None` once the sending
    /// half is gone and everything it sent has been received.
    pub fn recv(&self) -> Option<T> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        match self.rx.try_recv() {
            Ok(v) => Some(v),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_config_preserves_everything_in_order() {
        let (tx, rx) = LossyChannel::new(LossyConfig::reliable());
        for i in 0..100 {
            tx.send(i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| rx.try_recv()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(tx.dropped.get(), 0);
        assert_eq!(tx.reordered.get(), 0);
    }

    #[test]
    fn lossy_config_drops_some() {
        let (tx, rx) = LossyChannel::new(LossyConfig::unreliable(0.3, 0.0, 7));
        for i in 0..1000 {
            tx.send(i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| rx.try_recv()).collect();
        assert!(got.len() < 1000, "some messages must drop");
        assert!(got.len() > 400, "not too many");
        assert_eq!(got.len() as u64 + tx.dropped.get(), 1000);
        // Survivors stay relatively ordered (no reordering configured).
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn reordering_swaps_neighbours() {
        let (tx, rx) = LossyChannel::new(LossyConfig::unreliable(0.0, 0.4, 11));
        for i in 0..200 {
            tx.send(i);
        }
        // Flush a possibly held message by sending a sentinel.
        tx.send(999);
        let got: Vec<i32> = std::iter::from_fn(|| rx.try_recv()).collect();
        assert!(tx.reordered.get() > 0, "reordering must trigger");
        // Nothing lost (only reordered).
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted.len(), 201);
        // Every element is present exactly once.
        let mut expect: Vec<i32> = (0..200).collect();
        expect.push(999);
        assert_eq!(sorted, expect);
        // And the order actually differs somewhere.
        assert_ne!(got, sorted);
    }

    #[test]
    fn recv_drains_then_ends_when_the_sender_is_gone() {
        let (tx, rx) = LossyChannel::new(LossyConfig::reliable());
        tx.send(1);
        tx.send(2);
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_after_receiver_drop_is_silent() {
        let (tx, rx) = LossyChannel::new(LossyConfig::reliable());
        drop(rx);
        tx.send(1); // must not panic
    }
}
