//! Version-retaining storage: the substrate for rollback adversaries.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::{Result, StableStorage, StorageError};

/// Index of one stored version of a slot (0 = first store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version(pub u64);

#[derive(Debug, Default)]
pub(crate) struct VersionedInner {
    pub(crate) slots: HashMap<String, Vec<Vec<u8>>>,
}

/// A blob store that retains *every* version ever written.
///
/// Honest use (`load`) returns the latest version, making this a drop-in
/// [`StableStorage`]. The retained history is what a malicious server
/// exploits: [`VersionedStorage::load_version`] fetches any past state,
/// which [`crate::RollbackStorage`] serves to enclaves as if it were
/// current.
///
/// # Example
///
/// ```
/// use lcm_storage::{StableStorage, Version, VersionedStorage};
///
/// # fn main() -> Result<(), lcm_storage::StorageError> {
/// let storage = VersionedStorage::new();
/// storage.store("state", b"epoch-1")?;
/// storage.store("state", b"epoch-2")?;
/// assert_eq!(storage.load("state")?, Some(b"epoch-2".to_vec()));
/// assert_eq!(storage.load_version("state", Version(0))?, b"epoch-1".to_vec());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct VersionedStorage {
    pub(crate) inner: Arc<RwLock<VersionedInner>>,
}

impl VersionedStorage {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a specific historical version of `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NoSuchVersion`] when the slot has fewer
    /// versions.
    pub fn load_version(&self, slot: &str, version: Version) -> Result<Vec<u8>> {
        let inner = crate::read(&self.inner);
        inner
            .slots
            .get(slot)
            .and_then(|versions| versions.get(version.0 as usize))
            .cloned()
            .ok_or_else(|| StorageError::NoSuchVersion {
                slot: slot.to_owned(),
                version: version.0,
            })
    }

    /// Number of versions stored for `slot` (0 when never stored).
    pub fn version_count(&self, slot: &str) -> u64 {
        crate::read(&self.inner)
            .slots
            .get(slot)
            .map_or(0, |v| v.len() as u64)
    }

    /// The latest version index for `slot`, if any.
    pub fn latest_version(&self, slot: &str) -> Option<Version> {
        match self.version_count(slot) {
            0 => None,
            n => Some(Version(n - 1)),
        }
    }
}

impl StableStorage for VersionedStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        crate::write(&self.inner)
            .slots
            .entry(slot.to_owned())
            .or_default()
            .push(blob.to_vec());
        Ok(())
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        Ok(crate::read(&self.inner)
            .slots
            .get(slot)
            .and_then(|versions| versions.last())
            .cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_wins_for_honest_load() {
        let s = VersionedStorage::new();
        s.store("a", b"1").unwrap();
        s.store("a", b"2").unwrap();
        s.store("a", b"3").unwrap();
        assert_eq!(s.load("a").unwrap().unwrap(), b"3");
    }

    #[test]
    fn history_is_retained() {
        let s = VersionedStorage::new();
        s.store("a", b"1").unwrap();
        s.store("a", b"2").unwrap();
        assert_eq!(s.load_version("a", Version(0)).unwrap(), b"1");
        assert_eq!(s.load_version("a", Version(1)).unwrap(), b"2");
        assert_eq!(s.version_count("a"), 2);
        assert_eq!(s.latest_version("a"), Some(Version(1)));
    }

    #[test]
    fn missing_version_errors() {
        let s = VersionedStorage::new();
        s.store("a", b"1").unwrap();
        assert!(matches!(
            s.load_version("a", Version(5)),
            Err(StorageError::NoSuchVersion { .. })
        ));
        assert!(s.load_version("never", Version(0)).is_err());
    }

    #[test]
    fn empty_slot_has_no_latest() {
        let s = VersionedStorage::new();
        assert_eq!(s.latest_version("a"), None);
        assert_eq!(s.load("a").unwrap(), None);
    }

    #[test]
    fn clones_share_history() {
        let s = VersionedStorage::new();
        let t = s.clone();
        s.store("a", b"1").unwrap();
        assert_eq!(t.version_count("a"), 1);
    }
}
