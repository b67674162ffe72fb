//! A fixed worker pool draining a shared bounded job queue.

use std::sync::Arc;
use std::thread;

use crate::queue::{BoundedQueue, QueueStats};
use crate::task::{promise, JoinHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A set of worker threads executing submitted closures.
///
/// The job queue is bounded: submitting into a saturated pool blocks,
/// propagating back-pressure to the producer instead of buffering
/// unbounded work.
pub struct WorkerPool {
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (min 1) named `{name}-{i}`, sharing a
    /// job queue of `queue_capacity` slots.
    pub fn new(name: &str, workers: usize, queue_capacity: usize) -> Self {
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(queue_capacity));
        let handles = (0..workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            queue,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Job-queue activity counters (back-pressure visibility).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Submits a fire-and-forget job, blocking while the queue is full.
    /// Returns `false` if the pool is already shut down.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.queue.push(Box::new(job)).is_ok()
    }

    /// Jobs waiting in the queue, not yet taken by a worker.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Drops every job still waiting in the queue without running it —
    /// the power-failure model: work accepted but not started is lost.
    /// A job a worker has already taken completes. Returns how many
    /// jobs were dropped.
    pub fn discard_pending(&self) -> usize {
        self.queue.drain_pending().len()
    }

    /// Submits a job and returns a [`JoinHandle`] for its result.
    /// If the pool is already shut down the handle joins to `None`.
    pub fn spawn<T, F>(&self, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = promise();
        let accepted = self.queue.push(Box::new(move || tx.complete(f())));
        // A rejected job drops its Completer, abandoning the handle.
        drop(accepted);
        rx
    }
}

/// Dropping the pool closes its queue, lets the workers run every job
/// already accepted, and joins them.
impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn jobs_run_and_results_join() {
        let pool = WorkerPool::new("test", 4, 8);
        let handles: Vec<_> = (0..16u64).map(|i| pool.spawn(move || i * i)).collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..16u64).map(|i| i * i).sum());
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        let pool = WorkerPool::new("drain", 1, 32);
        for _ in 0..20 {
            let c = counter.clone();
            assert!(pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn spawn_after_shutdown_abandons_handle() {
        let pool = WorkerPool::new("late", 1, 4);
        pool.queue.close();
        let h = pool.spawn(|| 1u32);
        assert_eq!(h.join(), None);
    }
}
