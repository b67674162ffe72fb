//! Honest storage with modelled device latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::{Result, StableStorage};

/// Wraps an honest store, sleeping for a fixed duration on every
/// `store` — a deterministic stand-in for write+fsync latency when
/// measuring *real* concurrency.
///
/// The discrete-event simulator charges disk costs virtually
/// (`lcm_sim::DiskModel`); this wrapper charges them in wall-clock
/// time, which is what the pipelined server's background writer
/// overlaps with execution. Benches and the simulator-validation tests
/// use it to compare the synchronous and asynchronous-write modes
/// under identical storage cost.
///
/// Stores to distinct slots overlap: each sleeps on its caller's
/// thread, so the model is a device with parallel queues, where writes
/// that are on it together cost one delay, not one each. That is what
/// the delta log's extra journal heads buy on this model; a medium
/// whose writes serialise (one queue, or one `fsync` for the whole
/// file system) would charge them in turn, so a file-backed medium
/// must measure that gain again before relying on it (ROADMAP
/// item 15).
#[derive(Debug)]
pub struct DelayedStorage<S> {
    inner: S,
    store_delay: Duration,
    stores: AtomicU64,
    loads: AtomicU64,
}

impl<S: StableStorage> DelayedStorage<S> {
    /// Wraps `inner`, sleeping `store_delay` on every write.
    pub fn new(inner: S, store_delay: Duration) -> Self {
        DelayedStorage {
            inner,
            store_delay,
            stores: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        }
    }

    /// Number of `store` calls served.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::SeqCst)
    }

    /// Number of `load` calls served.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::SeqCst)
    }

    /// The configured per-store delay.
    pub fn store_delay(&self) -> Duration {
        self.store_delay
    }
}

impl<S: StableStorage> StableStorage for DelayedStorage<S> {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        if !self.store_delay.is_zero() {
            std::thread::sleep(self.store_delay);
        }
        self.stores.fetch_add(1, Ordering::SeqCst);
        self.inner.store(slot, blob)
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        self.loads.fetch_add(1, Ordering::SeqCst);
        self.inner.load(slot)
    }

    fn delta_capable(&self) -> bool {
        self.inner.delta_capable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStorage;
    use std::time::Instant;

    #[test]
    fn delays_writes_and_counts() {
        let s = DelayedStorage::new(MemoryStorage::new(), Duration::from_millis(5));
        let t0 = Instant::now();
        s.store("slot", b"blob").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(s.stores(), 1);
        assert_eq!(s.load("slot").unwrap().unwrap(), b"blob");
        assert_eq!(s.loads(), 1);
    }

    #[test]
    fn zero_delay_is_passthrough() {
        let s = DelayedStorage::new(MemoryStorage::new(), Duration::ZERO);
        s.store("slot", b"x").unwrap();
        assert_eq!(s.load("slot").unwrap().unwrap(), b"x");
    }
}
