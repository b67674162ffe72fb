//! A blocking MPMC queue with a hard capacity bound.
//!
//! Both wait points (`not_empty`, `not_full`) are
//! [`CountedCondvar`]s: a `push` or `pop` that finds nobody parked on
//! the other side makes no system call. The rule and its proof are in
//! [`crate::parked`] — waiters register under the queue's mutex before
//! releasing it, `push`/`pop` change the queue under that mutex before
//! reading the count, so the mutex orders the two and no wake-up is
//! lost. `close` goes through the same calls: a closed flag set under
//! the mutex is a predicate change like any other.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::parked::CountedCondvar;

/// Counters describing a queue's lifetime activity.
///
/// `blocked_pushes` is the back-pressure signal: how many times a
/// producer found the queue full and had to wait for the consumer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items accepted by [`BoundedQueue::push`] / `try_push`.
    pub pushed: u64,
    /// Items handed out by [`BoundedQueue::pop`] / `try_pop`.
    pub popped: u64,
    /// Number of `push` calls that blocked because the queue was full.
    pub blocked_pushes: u64,
    /// Maximum queue depth ever observed.
    pub high_water: usize,
}

/// Error returned by [`BoundedQueue::try_push`], giving the item back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity.
    Full(T),
    /// The queue has been closed; no further items are accepted.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded blocking queue: `push` blocks while full, `pop` blocks
/// while empty. Closing wakes all waiters; a closed queue rejects new
/// items but drains the ones already queued.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: CountedCondvar,
    not_full: CountedCondvar,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &st.items.len())
            .field("closed", &st.closed)
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                stats: QueueStats::default(),
            }),
            not_empty: CountedCondvar::new(),
            not_full: CountedCondvar::new(),
        }
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> QueueStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.lock();
        if st.items.len() >= self.capacity && !st.closed {
            st.stats.blocked_pushes += 1;
            while st.items.len() >= self.capacity && !st.closed {
                st = self.not_full.wait(st);
            }
        }
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        st.stats.pushed += 1;
        st.stats.high_water = st.stats.high_water.max(st.items.len());
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity, [`PushError::Closed`] when
    /// closed; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        st.stats.pushed += 1;
        st.stats.high_water = st.stats.high_water.max(st.items.len());
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                st.stats.popped += 1;
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st);
        }
    }

    /// Dequeues the next item, blocking at most `timeout` while the
    /// queue is empty. Returns `None` on timeout or once the queue is
    /// closed *and* drained.
    pub fn pop_timeout(&self, timeout: std::time::Duration) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                st.stats.popped += 1;
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            let now = std::time::Instant::now();
            let left = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())?;
            st = self.not_empty.wait_timeout(st, left);
        }
    }

    /// Dequeues the next item without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = self.lock();
        let item = st.items.pop_front()?;
        st.stats.popped += 1;
        drop(st);
        self.not_full.notify_one();
        Some(item)
    }

    /// Removes and returns every queued item without handling it —
    /// models losing the in-flight window (e.g. a power failure before
    /// buffered writes reach the medium).
    pub fn drain_pending(&self) -> Vec<T> {
        let mut st = self.lock();
        let items: Vec<T> = st.items.drain(..).collect();
        st.stats.popped += items.len() as u64;
        drop(st);
        self.not_full.notify_all();
        items
    }

    /// Closes the queue: producers get their item back, consumers drain
    /// what is left and then see `None`.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_roundtrip() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn try_push_reports_full_then_accepts_after_pop() {
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
        assert_eq!(q.try_pop(), Some(1));
        q.try_push(2).unwrap();
    }

    #[test]
    fn close_rejects_pushes_but_drains() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8));
        assert_eq!(q.try_push(9), Err(PushError::Closed(9)));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_push_counts_backpressure_and_unblocks() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let producer = {
            let q = q.clone();
            thread::spawn(move || q.push(2))
        };
        // Give the producer time to block, then free a slot.
        while q.stats().blocked_pushes == 0 {
            thread::yield_now();
        }
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.stats().blocked_pushes, 1);
    }

    #[test]
    fn pop_timeout_expires_then_delivers() {
        use std::time::Duration;
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), None);
        q.push(9).unwrap();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Some(9));
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), None);
        assert_eq!(q.push(1), Err(1), "a closed queue refuses items");
    }

    /// Runs `body` on its own thread and fails — instead of hanging the
    /// suite — if it has not finished within a minute: what a lost
    /// wake-up looks like from outside.
    fn must_finish(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done) = std::sync::mpsc::channel();
        let runner = thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        done.recv_timeout(std::time::Duration::from_secs(60))
            .expect("a thread stayed parked: lost wake-up");
        runner.join().unwrap();
    }

    /// Tiny xorshift: how many times a thread yields before its next
    /// queue operation, so the rounds cover different interleavings
    /// reproducibly.
    fn yields(state: &mut u64) {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        for _ in 0..*state % 4 {
            thread::yield_now();
        }
    }

    #[test]
    fn counted_waiters_lose_no_wake_up_through_a_one_slot_queue() {
        const PRODUCERS: u64 = 3;
        const CONSUMERS: u64 = 2;
        const PER_PRODUCER: u64 = 4;
        must_finish(|| {
            for round in 0..1_000u64 {
                // Capacity 1: every push but the first parks on
                // `not_full`, every pop that outruns a push on
                // `not_empty` — both wait points, both directions.
                let q = BoundedQueue::new(1);
                let popped: u64 = thread::scope(|s| {
                    let producers: Vec<_> = (0..PRODUCERS)
                        .map(|p| {
                            let q = &q;
                            s.spawn(move || {
                                let mut rng = (round * 31 + p + 1) * 0x9e37_79b9;
                                for i in 0..PER_PRODUCER {
                                    yields(&mut rng);
                                    q.push(p * 100 + i).unwrap();
                                }
                            })
                        })
                        .collect();
                    let consumers: Vec<_> = (0..CONSUMERS)
                        .map(|c| {
                            let q = &q;
                            s.spawn(move || {
                                let mut rng = (round * 17 + c + 7) * 0x9e37_79b9;
                                let mut n = 0;
                                loop {
                                    yields(&mut rng);
                                    if q.pop().is_none() {
                                        return n;
                                    }
                                    n += 1;
                                }
                            })
                        })
                        .collect();
                    for p in producers {
                        p.join().unwrap();
                    }
                    q.close(); // consumers drain what is left, then see None
                    consumers.into_iter().map(|c| c.join().unwrap()).sum()
                });
                assert_eq!(popped, PRODUCERS * PER_PRODUCER, "round {round}");
                assert_eq!(q.not_empty.parked() + q.not_full.parked(), 0);
            }
        });
    }

    #[test]
    fn an_expired_pop_timeout_deregisters_and_later_pops_are_still_woken() {
        must_finish(|| {
            let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
            assert_eq!(q.pop_timeout(std::time::Duration::from_millis(2)), None);
            // Nobody is parked any more, so this push has nobody to wake…
            assert_eq!(q.not_empty.parked(), 0);
            q.push(1).unwrap();
            assert_eq!(q.pop(), Some(1));
            // …and the count did not stick or underflow: a blocking pop
            // that parks now is counted, and the next push wakes it.
            let consumer = {
                let q = q.clone();
                thread::spawn(move || q.pop())
            };
            q.not_empty.await_parked(&q.state, 1);
            q.push(2).unwrap();
            assert_eq!(consumer.join().unwrap(), Some(2));
            assert_eq!(q.not_empty.parked(), 0);
        });
    }

    #[test]
    fn close_wakes_every_parked_pusher_and_popper() {
        must_finish(|| {
            // Parked poppers on an empty queue.
            let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
            let poppers: Vec<_> = (0..3)
                .map(|_| {
                    let q = q.clone();
                    thread::spawn(move || q.pop())
                })
                .collect();
            q.not_empty.await_parked(&q.state, 3);
            q.close();
            for p in poppers {
                assert_eq!(p.join().unwrap(), None);
            }
            // Parked pushers on a full one.
            let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
            q.push(0).unwrap();
            let pushers: Vec<_> = (1..4)
                .map(|i| {
                    let q = q.clone();
                    thread::spawn(move || q.push(i))
                })
                .collect();
            q.not_full.await_parked(&q.state, 3);
            q.close();
            for (i, p) in (1..4).zip(pushers) {
                assert_eq!(p.join().unwrap(), Err(i), "closed: item handed back");
            }
            assert_eq!(q.pop(), Some(0), "what was queued still drains");
        });
    }

    #[test]
    fn pop_blocks_until_item_arrives() {
        let q = Arc::new(BoundedQueue::new(2));
        let consumer = {
            let q = q.clone();
            thread::spawn(move || q.pop())
        };
        thread::sleep(std::time::Duration::from_millis(5));
        q.push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn drain_pending_discards_queued_items() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.drain_pending(), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        let st = q.stats();
        assert_eq!(st.pushed, 5);
        assert_eq!(st.popped, 5);
        assert_eq!(st.high_water, 5);
    }
}
