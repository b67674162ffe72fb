//! Failure-injecting storage: transient I/O errors.
//!
//! Distinct from [`crate::RollbackStorage`]: a *crashing or flaky* disk
//! is a benign fault the correct server must surface as an error (and
//! possibly retry), whereas the adversarial wrappers simulate a host
//! that lies successfully. Tests use this to verify error propagation
//! paths that never involve the protocol's violation machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::{Result, StableStorage, StorageError};

/// Which operations fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// All operations succeed.
    None,
    /// Every `store` fails.
    FailStores,
    /// Every `load` fails.
    FailLoads,
    /// Every operation fails.
    FailAll,
}

/// A wrapper injecting I/O errors according to a [`FailureMode`].
#[derive(Debug, Clone)]
pub struct FlakyStorage<S> {
    inner: S,
    mode: Arc<RwLock<FailureMode>>,
    failures: Arc<AtomicU64>,
}

impl<S: StableStorage> FlakyStorage<S> {
    /// Wraps `inner`, starting with no failures.
    pub fn new(inner: S) -> Self {
        FlakyStorage {
            inner,
            mode: Arc::new(RwLock::new(FailureMode::None)),
            failures: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Switches the failure mode.
    pub fn set_mode(&self, mode: FailureMode) {
        *crate::write(&self.mode) = mode;
    }

    /// Number of injected failures so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    fn inject(&self) -> StorageError {
        self.failures.fetch_add(1, Ordering::Relaxed);
        StorageError::Io(std::io::Error::other("injected storage failure"))
    }
}

impl<S: StableStorage> StableStorage for FlakyStorage<S> {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        match *crate::read(&self.mode) {
            FailureMode::FailStores | FailureMode::FailAll => Err(self.inject()),
            _ => self.inner.store(slot, blob),
        }
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        match *crate::read(&self.mode) {
            FailureMode::FailLoads | FailureMode::FailAll => Err(self.inject()),
            _ => self.inner.load(slot),
        }
    }

    fn delta_capable(&self) -> bool {
        self.inner.delta_capable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStorage;

    #[test]
    fn transparent_when_healthy() {
        let s = FlakyStorage::new(MemoryStorage::new());
        s.store("a", b"1").unwrap();
        assert_eq!(s.load("a").unwrap().unwrap(), b"1");
        assert_eq!(s.failures(), 0);
    }

    #[test]
    fn injects_store_failures() {
        let s = FlakyStorage::new(MemoryStorage::new());
        s.set_mode(FailureMode::FailStores);
        assert!(s.store("a", b"1").is_err());
        assert_eq!(s.load("a").unwrap(), None);
        assert_eq!(s.failures(), 1);
    }

    #[test]
    fn injects_load_failures() {
        let s = FlakyStorage::new(MemoryStorage::new());
        s.store("a", b"1").unwrap();
        s.set_mode(FailureMode::FailLoads);
        assert!(s.load("a").is_err());
        s.set_mode(FailureMode::None);
        assert_eq!(s.load("a").unwrap().unwrap(), b"1");
    }

    #[test]
    fn fail_all_blocks_everything() {
        let s = FlakyStorage::new(MemoryStorage::new());
        s.set_mode(FailureMode::FailAll);
        assert!(s.store("a", b"1").is_err());
        assert!(s.load("a").is_err());
        assert_eq!(s.failures(), 2);
    }
}
