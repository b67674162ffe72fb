//! Version-retaining storage: the substrate for rollback adversaries.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::{Result, StableStorage, StorageError};

/// A version of the whole medium: `Version(n)` is every slot as the
/// first `n` writes left it (`Version(0)` is the empty medium).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version(pub u64);

#[derive(Debug, Default)]
struct VersionedInner {
    /// Writes made so far: the current version.
    writes: u64,
    /// Every blob each slot was written, with the number of the write
    /// (1-based) that wrote it.
    slots: HashMap<String, Vec<(u64, Vec<u8>)>>,
}

/// A blob store that retains *every* write ever made.
///
/// Honest use (`load`) returns the latest blob, making this a drop-in
/// [`StableStorage`]. The retained history is what a malicious server
/// exploits: writes are numbered across all slots, so
/// [`VersionedStorage::load_at`] reads any slot as the whole medium
/// held it at a [`VersionedStorage::version`] noted earlier — the
/// outdated *state* (§2.3) [`crate::RollbackStorage`] serves to
/// enclaves as if it were current.
///
/// # Example
///
/// ```
/// use lcm_storage::{StableStorage, Version, VersionedStorage};
///
/// # fn main() -> Result<(), lcm_storage::StorageError> {
/// let storage = VersionedStorage::new();
/// storage.store("state", b"epoch-1")?;
/// let mark = storage.version();
/// storage.store("state", b"epoch-2")?;
/// storage.store("keys", b"k")?;
/// assert_eq!(storage.load("state")?, Some(b"epoch-2".to_vec()));
/// assert_eq!(storage.load_at("state", mark)?, Some(b"epoch-1".to_vec()));
/// assert_eq!(storage.load_at("keys", mark)?, None);
/// assert_eq!(storage.version(), Version(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct VersionedStorage {
    inner: Arc<RwLock<VersionedInner>>,
}

impl VersionedStorage {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current version: the medium after every write so far.
    pub fn version(&self) -> Version {
        Version(crate::read(&self.inner).writes)
    }

    /// What `slot` held at `version` (`None` if no write before it
    /// reached the slot).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NoSuchVersion`] for a version after the
    /// current one.
    pub fn load_at(&self, slot: &str, version: Version) -> Result<Option<Vec<u8>>> {
        Ok(crate::read(&self.inner)
            .at(slot, version)?
            .map(<[u8]>::to_vec))
    }

    /// Every slot the medium held at `version`, by name.
    ///
    /// # Errors
    ///
    /// As [`VersionedStorage::load_at`].
    pub fn cut(&self, version: Version) -> Result<Vec<(String, Vec<u8>)>> {
        let inner = crate::read(&self.inner);
        inner.at("", version)?; // a future version fails on any medium
        let mut cut = Vec::new();
        for name in inner.slots.keys() {
            if let Some(blob) = inner.at(name, version)? {
                cut.push((name.clone(), blob.to_vec()));
            }
        }
        cut.sort_unstable();
        Ok(cut)
    }
}

impl VersionedInner {
    fn at(&self, slot: &str, version: Version) -> Result<Option<&[u8]>> {
        if version.0 > self.writes {
            return Err(StorageError::NoSuchVersion {
                slot: slot.to_owned(),
                version: version.0,
            });
        }
        let writes = self.slots.get(slot).map_or(&[][..], Vec::as_slice);
        let upto = writes.partition_point(|&(n, _)| n <= version.0);
        Ok(writes[..upto].last().map(|(_, blob)| &blob[..]))
    }
}

impl StableStorage for VersionedStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let mut inner = crate::write(&self.inner);
        inner.writes += 1;
        let n = inner.writes;
        inner
            .slots
            .entry(slot.to_owned())
            .or_default()
            .push((n, blob.to_vec()));
        Ok(())
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        Ok(crate::read(&self.inner)
            .slots
            .get(slot)
            .and_then(|writes| writes.last())
            .map(|(_, blob)| blob.clone()))
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
        s.store("b", b"x").unwrap();
        s.store("a", b"2").unwrap();
        assert_eq!(s.version(), Version(3));
        // Versions number the medium's writes, not one slot's.
        assert_eq!(s.load_at("a", Version(0)).unwrap(), None);
        assert_eq!(s.load_at("a", Version(1)).unwrap().unwrap(), b"1");
        assert_eq!(s.load_at("a", Version(2)).unwrap().unwrap(), b"1");
        assert_eq!(s.load_at("a", Version(3)).unwrap().unwrap(), b"2");
        assert_eq!(
            s.cut(Version(2)).unwrap(),
            vec![("a".into(), b"1".to_vec()), ("b".into(), b"x".to_vec())]
        );
        assert_eq!(s.cut(Version(0)).unwrap(), vec![]);
    }

    #[test]
    fn missing_version_errors() {
        let s = VersionedStorage::new();
        s.store("a", b"1").unwrap();
        assert!(matches!(
            s.load_at("a", Version(5)),
            Err(StorageError::NoSuchVersion { .. })
        ));
        assert!(s.cut(Version(2)).is_err());
        assert_eq!(s.load_at("never", Version(1)).unwrap(), None);
    }

    #[test]
    fn empty_slot_has_no_latest() {
        let s = VersionedStorage::new();
        assert_eq!(s.version(), Version(0));
        assert_eq!(s.load_at("a", s.version()).unwrap(), None);
        assert_eq!(s.load("a").unwrap(), None);
    }

    #[test]
    fn clones_share_history() {
        let s = VersionedStorage::new();
        let t = s.clone();
        s.store("a", b"1").unwrap();
        assert_eq!(t.version(), Version(1));
    }
}
