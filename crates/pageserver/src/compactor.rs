//! The fleet-wide background compaction worker.
//!
//! One thread named `ps-compact` runs the compaction passes every page
//! server of a deployment schedules, in submission order. A single
//! worker is deliberate: a pass merges the sealed L0s and replays every
//! deep-chained page it images, and one partition's pass at a time keeps
//! that work from crowding the apply and serve threads.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// The worker handle shared by every [`PageServer`](crate::PageServer)
/// of a deployment (see
/// [`PageServerWiring::compactor`](crate::PageServerWiring::compactor)).
pub struct CompactionWorker {
    /// The task channel and the thread draining it; `None` once stopped.
    live: Mutex<Option<(mpsc::Sender<Task>, JoinHandle<()>)>>,
    stopping: Arc<AtomicBool>,
}

impl CompactionWorker {
    /// Start the worker thread.
    pub fn start() -> Arc<CompactionWorker> {
        let (tx, rx) = mpsc::channel::<Task>();
        let stopping = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&stopping);
        let thread = std::thread::Builder::new()
            .name("ps-compact".into())
            .spawn(move || {
                for task in rx {
                    // ordering: acquire — pairs with the release store in stop()
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    task();
                }
            })
            .expect("spawn compaction worker");
        Arc::new(CompactionWorker {
            live: Mutex::with_rank(
                Some((tx, thread)),
                socrates_common::lock_rank::PS_COMPACTOR,
                "ps.compactor",
            ),
            stopping,
        })
    }

    /// Queue `task` behind every task submitted before it. Returns
    /// `false` (without queuing) once the worker is stopped.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) -> bool {
        match &*self.live.lock() {
            Some((tx, _)) => tx.send(Box::new(task)).is_ok(),
            None => false,
        }
    }

    /// Stop the worker and join it: the task it is running finishes,
    /// queued tasks are dropped without running. Idempotent.
    pub fn stop(&self) {
        // ordering: release — the worker's acquire load sees it before the
        // next task it would otherwise start
        self.stopping.store(true, Ordering::Release);
        let Some((tx, thread)) = self.live.lock().take() else { return };
        drop(tx);
        let _ = thread.join();
    }
}

impl Drop for CompactionWorker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_run_in_order_on_the_named_thread_and_are_dropped_on_stop() {
        let worker = CompactionWorker::start();
        let (seen_tx, seen_rx) = mpsc::channel();
        for i in 0..4 {
            let seen = seen_tx.clone();
            assert!(worker.submit(move || {
                seen.send((i, std::thread::current().name().map(str::to_owned))).unwrap();
            }));
        }
        for i in 0..4 {
            assert_eq!(seen_rx.recv().unwrap(), (i, Some("ps-compact".to_owned())));
        }

        // Park the worker inside a task, queue another behind it, stop:
        // the running task finishes, the queued one never runs.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        assert!(worker.submit(move || {
            entered_tx.send(()).unwrap();
            let _ = release_rx.recv();
        }));
        let seen = seen_tx.clone();
        assert!(worker.submit(move || seen.send((99, None)).unwrap()));
        entered_rx.recv().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| worker.stop());
            // ordering: acquire — pairs with stop()'s release store
            while !worker.stopping.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
        });
        drop(seen_tx);
        assert!(seen_rx.recv().is_err(), "a task queued behind stop() ran");
        assert!(!worker.submit(|| {}), "submit after stop must be refused");
    }
}
