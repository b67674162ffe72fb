//! One-shot result slots for work handed to another thread.

use std::sync::{Arc, Mutex};

use crate::parked::CountedCondvar;

enum SlotState<T> {
    Pending,
    Done(T),
    /// The producer was dropped (worker died or pool shut down) without
    /// delivering a value.
    Abandoned,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: CountedCondvar,
}

/// The producing side of a [`JoinHandle`]: delivers exactly one value.
///
/// Dropping a `Completer` without calling [`Completer::complete`]
/// marks the handle abandoned, waking any joiner with `None`.
pub struct Completer<T> {
    slot: Arc<Slot<T>>,
    completed: bool,
}

impl<T> Completer<T> {
    /// Delivers the result, waking the joiner.
    pub fn complete(mut self, value: T) {
        self.completed = true;
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        *st = SlotState::Done(value);
        drop(st);
        self.slot.ready.notify_all();
    }
}

impl<T> Drop for Completer<T> {
    fn drop(&mut self) {
        if !self.completed {
            let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
            if matches!(*st, SlotState::Pending) {
                *st = SlotState::Abandoned;
            }
            drop(st);
            self.slot.ready.notify_all();
        }
    }
}

/// A handle on work executing elsewhere; [`JoinHandle::join`] blocks
/// until the result is delivered.
pub struct JoinHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinHandle")
    }
}

impl<T> JoinHandle<T> {
    /// Blocks until the worker delivers the result. Returns `None` if
    /// the worker abandoned the task (e.g. the pool shut down first).
    pub fn join(self) -> Option<T> {
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *st, SlotState::Pending) {
                SlotState::Done(v) => return Some(v),
                SlotState::Abandoned => return None,
                SlotState::Pending => {
                    st = self.slot.ready.wait(st);
                }
            }
        }
    }
}

/// Creates a connected producer/consumer pair for one result.
pub fn promise<T>() -> (Completer<T>, JoinHandle<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState::Pending),
        ready: CountedCondvar::new(),
    });
    (
        Completer {
            slot: slot.clone(),
            completed: false,
        },
        JoinHandle { slot },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn join_receives_value() {
        let (tx, rx) = promise();
        thread::spawn(move || tx.complete(99));
        assert_eq!(rx.join(), Some(99));
    }

    #[test]
    fn dropped_completer_abandons() {
        let (tx, rx) = promise::<u32>();
        drop(tx);
        assert_eq!(rx.join(), None);
    }
}
