//! A condition variable that knows whether anybody is waiting on it.
//!
//! `std::sync::Condvar::notify_*` is an unconditional `futex` system
//! call — a couple of hundred nanoseconds with *nobody* parked — and the
//! hand-off paths of this workspace notify once per item. A
//! [`CountedCondvar`] counts its waiters and skips the system call when
//! the count is zero.
//!
//! **The rule.** A waiter registers (bumps the count) while it still
//! holds the mutex that guards the predicate it is about to wait on; a
//! notifier changes that predicate under the same mutex and reads the
//! count afterwards. **Why no wake-up is lost:** the two critical
//! sections are ordered by the mutex — if the notifier's comes first the
//! waiter sees the new predicate and never parks; if the waiter's comes
//! first its registration happens-before the notifier's read, which
//! therefore sees a non-zero count and notifies. The count is exact
//! (it is only ever changed under the mutex), so nothing is woken for a
//! waiter that already left; a stale non-zero read costs one spare
//! notify and nothing else.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, MutexGuard, PoisonError};
use std::time::Duration;

/// A [`Condvar`] whose `notify_*` cost nothing when no thread is
/// parked. See the module docs for the rule its users follow and why it
/// loses no wake-up. Waits tolerate a poisoned mutex (the guard is
/// recovered), like every lock in this crate.
#[derive(Debug, Default)]
pub struct CountedCondvar {
    cv: Condvar,
    /// Threads inside `wait`/`wait_timeout`. `Relaxed` suffices: every
    /// write happens with the predicate's mutex held, and a notifier
    /// reads after its own critical section on that mutex, so the
    /// mutex's release/acquire pair already orders them.
    parked: AtomicUsize,
}

impl CountedCondvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Self {
        CountedCondvar {
            cv: Condvar::new(),
            parked: AtomicUsize::new(0),
        }
    }

    /// Parks on `guard`'s mutex until notified (or spuriously woken):
    /// re-check the predicate in a loop, as with any condition variable.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Like [`CountedCondvar::wait`], giving up after `timeout`. A wait
    /// that expires deregisters like any other, so it leaves no phantom
    /// waiter behind.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let (guard, _timed_out) = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Threads currently parked (exact when read with the mutex held).
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    /// Test support: spins until exactly `n` threads are parked. The
    /// count moves only under `mutex`, so reading `n` with it held means
    /// they are inside `wait`, not on their way to it.
    #[cfg(test)]
    pub(crate) fn await_parked<T>(&self, mutex: &std::sync::Mutex<T>, n: usize) {
        loop {
            let guard = mutex.lock().unwrap();
            if self.parked() == n {
                return;
            }
            drop(guard);
            std::thread::yield_now();
        }
    }

    /// Wakes one parked thread, if there is one. Call after changing
    /// the predicate under the waiters' mutex.
    pub fn notify_one(&self) {
        if self.parked() > 0 {
            self.cv.notify_one();
        }
    }

    /// Wakes every parked thread, if there is any. Call after changing
    /// the predicate under the waiters' mutex.
    pub fn notify_all(&self) {
        if self.parked() > 0 {
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn an_expired_wait_leaves_no_waiter_registered() {
        let m = Mutex::new(());
        let cv = CountedCondvar::new();
        let guard = cv.wait_timeout(m.lock().unwrap(), Duration::from_millis(1));
        assert_eq!(cv.parked(), 0);
        drop(guard);
        cv.notify_all(); // nobody parked: must not block or panic
    }

    #[test]
    fn a_parked_waiter_is_counted_and_woken() {
        let shared = Arc::new((Mutex::new(false), CountedCondvar::new()));
        let waiter = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let (m, cv) = &*shared;
                let mut ready = m.lock().unwrap();
                while !*ready {
                    ready = cv.wait(ready);
                }
            })
        };
        let (m, cv) = &*shared;
        cv.await_parked(m, 1);
        *m.lock().unwrap() = true;
        cv.notify_one();
        waiter.join().unwrap();
        assert_eq!(cv.parked(), 0);
    }
}
