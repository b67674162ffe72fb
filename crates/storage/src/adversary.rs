//! Adversarial storage: the malicious server's toolbox.
//!
//! The paper's threat model (§2.3): *"a malicious server may still
//! return a correctly protected but outdated state to T. We call such a
//! consistency violation a rollback attack"*, and *"a malicious server
//! may start multiple instances of a trusted execution context ... The
//! malicious server might supply a different, but valid state to each
//! trusted execution context instance"* — the forking attack.
//!
//! [`RollbackStorage`] implements exactly these powers over a
//! [`VersionedStorage`] history, and [`ForkView`] gives each enclave
//! instance its own divergent branch of that history. A *state* is the
//! whole medium — under the delta-log engine a manifest, checkpoints
//! and journal heads that hold one state only together — so a rollback
//! ([`AdversaryMode::ServeVersion`]) and a fork
//! ([`RollbackStorage::fork_at`]) cut every slot at one version, while
//! the crash powers (dropped, torn and reordered writes) act per write.

use std::sync::{Arc, RwLock};

use crate::versioned::{Version, VersionedStorage};
use crate::{Result, StableStorage};

/// What the adversarial storage wrapper currently does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdversaryMode {
    /// Behave like honest storage: serve the latest version.
    #[default]
    Honest,
    /// Serve the whole medium as it stood at a past version on every
    /// load (rollback attack): a caller notes
    /// [`RollbackStorage::version`] where it wants to roll back to.
    /// Stores still append to history.
    ServeVersion(Version),
    /// Acknowledge stores but discard them (lost-write attack — to the
    /// enclave this later looks like a rollback).
    DropWrites,
    /// Persist only the first `keep` bytes of every store — a crash (or
    /// lying disk) tearing writes mid-record. Against the delta-log
    /// engine this corrupts journal-head and checkpoint overwrites,
    /// which recovery must truncate at the last sealed frame boundary.
    TornWrites {
        /// How many leading bytes of each written blob reach the
        /// medium.
        keep: usize,
    },
    /// Buffer stores in a volatile write cache and flush each *pair* in
    /// reverse order — a disk scheduler reordering flushes. Loads serve
    /// only what was flushed; [`RollbackStorage::drop_buffered`] models
    /// a power failure taking the cache with it, and leaving the mode
    /// flushes the remainder in order.
    ReorderedFlush,
}

#[derive(Debug, Default)]
struct RollbackInner {
    mode: AdversaryMode,
    /// Stores held in the volatile cache while `ReorderedFlush` is
    /// engaged.
    buffered: Vec<(String, Vec<u8>)>,
}

/// Adversarial [`StableStorage`] wrapper driven by an [`AdversaryMode`].
///
/// The mode can be switched at any point, modelling a server that is
/// correct for a while and then turns malicious.
///
/// # Example
///
/// ```
/// use lcm_storage::{AdversaryMode, RollbackStorage, StableStorage, Version};
///
/// # fn main() -> Result<(), lcm_storage::StorageError> {
/// let storage = RollbackStorage::new();
/// storage.store("state", b"v0")?;
/// let mark = storage.version();
/// storage.store("state", b"v1")?;
/// storage.store("keys", b"k")?;
///
/// // The server turns malicious: roll the medium back to the mark.
/// storage.set_mode(AdversaryMode::ServeVersion(mark));
/// assert_eq!(storage.load("state")?, Some(b"v0".to_vec()));
/// assert_eq!(storage.load("keys")?, None);
/// assert_eq!(mark, Version(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RollbackStorage {
    history: VersionedStorage,
    inner: Arc<RwLock<RollbackInner>>,
}

impl RollbackStorage {
    /// Creates an adversarial store starting in [`AdversaryMode::Honest`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the adversary's behaviour.
    ///
    /// Leaving [`AdversaryMode::ReorderedFlush`] flushes any store
    /// still sitting in the volatile cache, in its original order (the
    /// host eventually wrote it); call
    /// [`RollbackStorage::drop_buffered`] first to model a power
    /// failure instead.
    pub fn set_mode(&self, mode: AdversaryMode) {
        let mut inner = crate::write(&self.inner);
        if matches!(inner.mode, AdversaryMode::ReorderedFlush)
            && !matches!(mode, AdversaryMode::ReorderedFlush)
        {
            for (slot, blob) in std::mem::take(&mut inner.buffered) {
                let _ = self.history.store(&slot, &blob);
            }
        }
        inner.mode = mode;
    }

    /// The current adversary mode.
    pub fn mode(&self) -> AdversaryMode {
        crate::read(&self.inner).mode
    }

    /// The full retained history, for forking and assertions.
    pub fn history(&self) -> &VersionedStorage {
        &self.history
    }

    /// The current version of the medium: a mark to roll back to with
    /// [`AdversaryMode::ServeVersion`] or to fork at.
    pub fn version(&self) -> Version {
        self.history.version()
    }

    /// Discards every store still buffered by
    /// [`AdversaryMode::ReorderedFlush`] — the power failure that takes
    /// the volatile write cache with it. Returns how many writes were
    /// lost.
    pub fn drop_buffered(&self) -> usize {
        std::mem::take(&mut crate::write(&self.inner).buffered).len()
    }

    /// Creates a divergent branch view seeded with every slot of the
    /// medium at `version` (see [`ForkView`]).
    ///
    /// # Errors
    ///
    /// [`crate::StorageError::NoSuchVersion`] for a version after the
    /// current one.
    pub fn fork_at(&self, version: Version) -> Result<ForkView> {
        let branch = VersionedStorage::new();
        for (slot, blob) in self.history.cut(version)? {
            branch.store(&slot, &blob)?;
        }
        Ok(ForkView { branch })
    }
}

impl StableStorage for RollbackStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let mode = crate::read(&self.inner).mode;
        match mode {
            AdversaryMode::DropWrites => Ok(()), // silently discarded
            AdversaryMode::TornWrites { keep } => {
                self.history.store(slot, &blob[..keep.min(blob.len())])
            }
            AdversaryMode::ReorderedFlush => {
                let mut inner = crate::write(&self.inner);
                inner.buffered.push((slot.to_string(), blob.to_vec()));
                if inner.buffered.len() == 2 {
                    // The scheduler flushes the pair newest-first.
                    while let Some((s, b)) = inner.buffered.pop() {
                        self.history.store(&s, &b)?;
                    }
                }
                Ok(())
            }
            _ => self.history.store(slot, blob),
        }
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        match self.mode() {
            AdversaryMode::ServeVersion(v) => self.history.load_at(slot, v),
            _ => self.history.load(slot),
        }
    }
}

/// One branch of a forked storage history.
///
/// A forking server seeds two (or more) views from the same past
/// medium ([`RollbackStorage::fork_at`]) and lets different enclave
/// instances evolve them independently — each instance sees a
/// self-consistent but mutually divergent world.
#[derive(Debug, Clone)]
pub struct ForkView {
    branch: VersionedStorage,
}

impl StableStorage for ForkView {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        self.branch.store(slot, blob)
    }
    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        self.branch.load(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> RollbackStorage {
        let s = RollbackStorage::new();
        s.store("state", b"v0").unwrap();
        s.store("state", b"v1").unwrap();
        s.store("state", b"v2").unwrap();
        s
    }

    #[test]
    fn honest_mode_serves_latest() {
        let s = seeded();
        assert_eq!(s.load("state").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn serve_version_rolls_back() {
        let s = seeded();
        s.store("keys", b"k").unwrap();
        // The medium after its first write: one slot, and no other.
        s.set_mode(AdversaryMode::ServeVersion(Version(1)));
        assert_eq!(s.load("state").unwrap().unwrap(), b"v0");
        assert_eq!(s.load("keys").unwrap(), None);
        // New stores still land in history.
        s.store("state", b"v3").unwrap();
        s.set_mode(AdversaryMode::Honest);
        assert_eq!(s.load("state").unwrap().unwrap(), b"v3");
    }

    #[test]
    fn drop_writes_discards_silently() {
        let s = seeded();
        s.set_mode(AdversaryMode::DropWrites);
        s.store("state", b"v3").unwrap(); // vanishes
        s.set_mode(AdversaryMode::Honest);
        assert_eq!(s.load("state").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn fork_views_diverge() {
        let s = seeded();
        let fork_a = s.fork_at(Version(2)).unwrap();
        let fork_b = s.fork_at(Version(2)).unwrap();
        assert_eq!(fork_a.load("state").unwrap().unwrap(), b"v1");
        fork_a.store("state", b"a-branch").unwrap();
        fork_b.store("state", b"b-branch").unwrap();
        assert_eq!(fork_a.load("state").unwrap().unwrap(), b"a-branch");
        assert_eq!(fork_b.load("state").unwrap().unwrap(), b"b-branch");
        // Main history is untouched by branch writes.
        assert_eq!(s.load("state").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn fork_at_missing_version_fails() {
        let s = seeded();
        assert!(s.fork_at(Version(17)).is_err());
    }

    #[test]
    fn torn_writes_persist_only_a_prefix() {
        let s = seeded();
        s.set_mode(AdversaryMode::TornWrites { keep: 2 });
        s.store("state", b"v3-long-record").unwrap();
        assert_eq!(s.load("state").unwrap().unwrap(), b"v3");
        // Shorter than the tear point: stored whole.
        s.store("state", b"x").unwrap();
        assert_eq!(s.load("state").unwrap().unwrap(), b"x");
    }

    #[test]
    fn reordered_flush_commits_pairs_newest_first() {
        let s = seeded();
        s.set_mode(AdversaryMode::ReorderedFlush);
        s.store("state", b"older").unwrap();
        // Still in the volatile cache: loads see the pre-mode state.
        assert_eq!(s.load("state").unwrap().unwrap(), b"v2");
        s.store("state", b"newer").unwrap();
        // The pair flushed in reverse: "older" is now the visible tip.
        assert_eq!(s.load("state").unwrap().unwrap(), b"older");
    }

    #[test]
    fn reordered_flush_remainder_flushes_on_mode_change() {
        let s = seeded();
        s.set_mode(AdversaryMode::ReorderedFlush);
        s.store("state", b"v3").unwrap();
        s.set_mode(AdversaryMode::Honest);
        assert_eq!(s.load("state").unwrap().unwrap(), b"v3");
    }

    #[test]
    fn reordered_flush_power_failure_loses_the_cache() {
        let s = seeded();
        s.set_mode(AdversaryMode::ReorderedFlush);
        s.store("state", b"v3").unwrap();
        assert_eq!(s.drop_buffered(), 1);
        s.set_mode(AdversaryMode::Honest);
        assert_eq!(s.load("state").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn mode_accessor_reports_current_mode() {
        let s = seeded();
        assert_eq!(s.mode(), AdversaryMode::Honest);
        s.set_mode(AdversaryMode::DropWrites);
        assert_eq!(s.mode(), AdversaryMode::DropWrites);
    }
}
