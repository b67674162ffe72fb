//! Honest in-memory storage.

use std::collections::HashMap;
use std::sync::RwLock;

use crate::{Result, StableStorage};

/// An honest in-memory blob store: `load` always returns the most
/// recently stored blob.
///
/// # Example
///
/// ```
/// use lcm_storage::{MemoryStorage, StableStorage};
///
/// # fn main() -> Result<(), lcm_storage::StorageError> {
/// let storage = MemoryStorage::new();
/// storage.store("state", b"v1")?;
/// storage.store("state", b"v2")?;
/// assert_eq!(storage.load("state")?, Some(b"v2".to_vec()));
/// assert_eq!(storage.load("missing")?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct MemoryStorage {
    slots: RwLock<HashMap<String, Vec<u8>>>,
}

impl MemoryStorage {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct slots stored.
    pub fn len(&self) -> usize {
        crate::read(&self.slots).len()
    }

    /// Whether the store holds no slots.
    pub fn is_empty(&self) -> bool {
        crate::read(&self.slots).is_empty()
    }
}

impl StableStorage for MemoryStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        crate::write(&self.slots).insert(slot.to_owned(), blob.to_vec());
        Ok(())
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        Ok(crate::read(&self.slots).get(slot).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_latest() {
        let s = MemoryStorage::new();
        s.store("a", b"1").unwrap();
        s.store("a", b"2").unwrap();
        assert_eq!(s.load("a").unwrap().unwrap(), b"2");
    }

    #[test]
    fn missing_slot_is_none() {
        let s = MemoryStorage::new();
        assert_eq!(s.load("nope").unwrap(), None);
    }

    #[test]
    fn slots_are_independent() {
        let s = MemoryStorage::new();
        s.store("a", b"1").unwrap();
        s.store("b", b"2").unwrap();
        assert_eq!(s.load("a").unwrap().unwrap(), b"1");
        assert_eq!(s.load("b").unwrap().unwrap(), b"2");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_blob_is_stored() {
        let s = MemoryStorage::new();
        s.store("a", b"").unwrap();
        assert_eq!(s.load("a").unwrap(), Some(vec![]));
    }
}
