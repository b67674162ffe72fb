//! One pipeline stage: a dedicated thread reacting to items on a
//! bounded inbox.
//!
//! The worker reports each finished item on a
//! [`CountedCondvar`]: `flush` registers under the progress mutex
//! before it parks, the worker bumps the counter under that mutex
//! before it reads the waiter count — so an item finished with nobody
//! flushing costs no system call, and a flush never misses the item it
//! waits for (the rule and its proof: [`crate::parked`]).

use std::sync::{Arc, Mutex};
use std::thread;

use crate::parked::CountedCondvar;
use crate::queue::{BoundedQueue, QueueStats};

/// Monotone progress counter the worker bumps after disposing of each
/// item; `flush` waits on it.
struct Progress {
    done: Mutex<u64>,
    advanced: CountedCondvar,
}

impl Progress {
    fn add(&self, n: u64) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done += n;
        drop(done);
        self.advanced.notify_all();
    }

    fn wait_until(&self, target: u64) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while *done < target {
            done = self.advanced.wait(done);
        }
    }
}

/// A background worker consuming items of type `T` from a bounded
/// queue, in submission order, on its own thread.
///
/// This is the building block of the pipelined LCM server's
/// *persistence stage*: the enclave thread `submit`s sealed blobs and
/// keeps executing, while the stage thread writes them out. The
/// bounded inbox is the back-pressure valve — when the consumer falls
/// `capacity` items behind, `submit` blocks until it catches up.
///
/// Dropping the worker closes the inbox, drains what was accepted, and
/// joins the thread (a graceful shutdown never loses accepted items).
pub struct StageWorker<T> {
    queue: Arc<BoundedQueue<T>>,
    progress: Arc<Progress>,
    /// Items accepted via `submit` (all submission happens on the
    /// owning thread, so a plain counter suffices).
    submitted: u64,
    thread: Option<thread::JoinHandle<()>>,
}

impl<T> std::fmt::Debug for StageWorker<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageWorker")
            .field("submitted", &self.submitted)
            .field("pending", &self.queue.len())
            .finish()
    }
}

impl<T: Send + 'static> StageWorker<T> {
    /// Spawns a stage thread named `name` with an inbox of `capacity`
    /// slots, running `handler` on every item in FIFO order.
    pub fn spawn(name: &str, capacity: usize, mut handler: impl FnMut(T) + Send + 'static) -> Self {
        let queue = Arc::new(BoundedQueue::new(capacity));
        let progress = Arc::new(Progress {
            done: Mutex::new(0),
            advanced: CountedCondvar::new(),
        });
        let thread = {
            let queue = queue.clone();
            let progress = progress.clone();
            thread::Builder::new()
                .name(name.to_string())
                .spawn(move || {
                    while let Some(item) = queue.pop() {
                        handler(item);
                        progress.add(1);
                    }
                })
                .expect("spawn stage worker thread")
        };
        StageWorker {
            queue,
            progress,
            submitted: 0,
            thread: Some(thread),
        }
    }
}

impl<T> StageWorker<T> {
    /// Hands `item` to the stage, blocking while the inbox is full
    /// (back-pressure).
    ///
    /// # Errors
    ///
    /// Returns the item back if the stage has already shut down.
    pub fn submit(&mut self, item: T) -> Result<(), T> {
        self.queue.push(item)?;
        self.submitted += 1;
        Ok(())
    }

    /// Blocks until every item submitted so far has been handled (or
    /// discarded).
    pub fn flush(&self) {
        self.progress.wait_until(self.submitted);
    }

    /// Discards items still waiting in the inbox — the power-failure
    /// model: work accepted but not yet written is lost. The item
    /// currently being handled (if any) completes. Returns how many
    /// items were dropped.
    pub fn discard_pending(&self) -> usize {
        let dropped = self.queue.drain_pending();
        let n = dropped.len();
        self.progress.add(n as u64);
        n
    }

    /// Items accepted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Items waiting in the inbox right now.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Inbox activity counters (`blocked_pushes` = back-pressure
    /// events).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

impl<T> Drop for StageWorker<T> {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn handles_items_in_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let mut stage = StageWorker::spawn("order", 2, move |n: u32| {
            sink.lock().unwrap().push(n);
        });
        for n in 0..50 {
            stage.submit(n).unwrap();
        }
        stage.flush();
        assert_eq!(*seen.lock().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn backpressure_blocks_submitters() {
        let count = Arc::new(AtomicU64::new(0));
        let sink = count.clone();
        let mut stage = StageWorker::spawn("slow", 1, move |_: u32| {
            thread::sleep(Duration::from_millis(2));
            sink.fetch_add(1, Ordering::SeqCst);
        });
        for n in 0..10 {
            stage.submit(n).unwrap();
        }
        stage.flush();
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert!(
            stage.queue_stats().blocked_pushes > 0,
            "a 1-slot inbox with a slow consumer must block producers"
        );
    }

    #[test]
    fn discard_pending_loses_unhandled_items() {
        let count = Arc::new(AtomicU64::new(0));
        let sink = count.clone();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate_w = gate.clone();
        let mut stage = StageWorker::spawn("gated", 16, move |_: u32| {
            let (lock, cv) = &*gate_w;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            sink.fetch_add(1, Ordering::SeqCst);
        });
        for n in 0..8 {
            stage.submit(n).unwrap();
        }
        // Wait until the worker has popped the first item and is stuck
        // in the handler, leaving exactly 7 queued.
        while stage.pending() != 7 {
            thread::yield_now();
        }
        let dropped = stage.discard_pending();
        assert_eq!(dropped, 7);
        // Open the gate: only the in-flight item completes.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        stage.flush();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    /// A stage whose handler announces each item and then blocks until
    /// the test lets it finish.
    fn gated_stage() -> (
        StageWorker<u32>,
        std::sync::mpsc::Receiver<u32>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let stage = StageWorker::spawn("gated-flush", 4, move |n: u32| {
            entered_tx.send(n).unwrap();
            release_rx.recv().unwrap();
        });
        (stage, entered, release)
    }

    #[test]
    fn flush_returns_when_the_last_item_completes() {
        let (mut stage, entered, release) = gated_stage();
        stage.submit(1).unwrap();
        assert_eq!(entered.recv().unwrap(), 1); // in the handler, not done
        let (flushed_tx, flushed) = std::sync::mpsc::channel();
        thread::scope(|s| {
            let stage = &stage;
            s.spawn(move || {
                stage.flush();
                flushed_tx.send(()).unwrap();
            });
            // Wait until the flusher is parked, so the worker's report
            // is the wake-up that must reach it.
            let progress = &stage.progress;
            progress.advanced.await_parked(&progress.done, 1);
            assert!(flushed.try_recv().is_err(), "flushed before the item");
            release.send(()).unwrap();
            flushed
                .recv_timeout(Duration::from_secs(60))
                .expect("flush missed the last item's completion");
        });
        // Nothing outstanding, nobody parked: a flush now returns at
        // once and an item finishing now has nobody to wake.
        stage.flush();
        assert_eq!(stage.progress.advanced.parked(), 0);
    }

    #[test]
    fn flush_covers_an_item_submitted_while_the_worker_was_busy() {
        let (mut stage, entered, release) = gated_stage();
        stage.submit(1).unwrap();
        assert_eq!(entered.recv().unwrap(), 1);
        // The second submit lands while the first item is still in the
        // handler: `flush` must wait for both, and each completion is
        // reported with or without a flusher parked at that moment.
        stage.submit(2).unwrap();
        release.send(()).unwrap();
        assert_eq!(entered.recv().unwrap(), 2);
        release.send(()).unwrap();
        stage.flush();
        assert_eq!(*stage.progress.done.lock().unwrap(), 2);
    }

    #[test]
    fn drop_drains_accepted_items() {
        let count = Arc::new(AtomicU64::new(0));
        let sink = count.clone();
        let mut stage = StageWorker::spawn("drain", 32, move |_: u32| {
            sink.fetch_add(1, Ordering::SeqCst);
        });
        for n in 0..20 {
            stage.submit(n).unwrap();
        }
        drop(stage);
        assert_eq!(count.load(Ordering::SeqCst), 20);
    }
}
