//! Slot-name partitioning for multi-instance (sharded) deployments.

use std::sync::Arc;

use crate::{Result, StableStorage};

/// A [`StableStorage`] view that prefixes every slot name, so several
/// independent server instances (e.g. the shards of
/// `lcm_core::shard::ShardedServer`) can share one physical medium
/// without colliding on the well-known LCM slot names.
///
/// The prefix is part of the *host's* storage layout, not of the sealed
/// blobs: a malicious host can still feed one shard's blobs to another
/// shard, and the enclaves detect it (wrong sealing key across
/// platforms, or a client-context mismatch on the same platform) — the
/// namespace only keeps *honest* shards from overwriting each other.
///
/// # Example
///
/// ```
/// use lcm_storage::{MemoryStorage, NamespacedStorage, StableStorage};
/// use std::sync::Arc;
///
/// let shared = Arc::new(MemoryStorage::new());
/// let a = NamespacedStorage::new(shared.clone(), "shard0.");
/// let b = NamespacedStorage::new(shared.clone(), "shard1.");
/// a.store("state", b"a").unwrap();
/// b.store("state", b"b").unwrap();
/// assert_eq!(a.load("state").unwrap().unwrap(), b"a");
/// assert_eq!(shared.load("shard1.state").unwrap().unwrap(), b"b");
/// ```
#[derive(Clone)]
pub struct NamespacedStorage {
    inner: Arc<dyn StableStorage>,
    prefix: String,
}

impl std::fmt::Debug for NamespacedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamespacedStorage")
            .field("prefix", &self.prefix)
            .finish()
    }
}

impl NamespacedStorage {
    /// Wraps `inner`, prefixing every slot name with `prefix`.
    pub fn new(inner: Arc<dyn StableStorage>, prefix: impl Into<String>) -> Self {
        NamespacedStorage {
            inner,
            prefix: prefix.into(),
        }
    }

    /// The conventional prefix for shard `index` of a sharded server.
    pub fn shard_prefix(index: u32) -> String {
        format!("shard{index}.")
    }

    /// The prefixed physical slot name this view uses for `slot`.
    pub fn physical_slot(&self, slot: &str) -> String {
        format!("{}{}", self.prefix, slot)
    }
}

impl StableStorage for NamespacedStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        self.inner.store(&self.physical_slot(slot), blob)
    }

    fn store_all(&self, slot: &str, blobs: &[&[u8]]) -> Result<()> {
        self.inner.store_all(&self.physical_slot(slot), blobs)
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        self.inner.load(&self.physical_slot(slot))
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
    fn namespaces_are_disjoint() {
        let shared = Arc::new(MemoryStorage::new());
        let a = NamespacedStorage::new(shared.clone(), NamespacedStorage::shard_prefix(0));
        let b = NamespacedStorage::new(shared.clone(), NamespacedStorage::shard_prefix(1));
        a.store("lcm.state", b"state-a").unwrap();
        assert_eq!(b.load("lcm.state").unwrap(), None);
        b.store("lcm.state", b"state-b").unwrap();
        assert_eq!(a.load("lcm.state").unwrap().unwrap(), b"state-a");
        assert_eq!(b.load("lcm.state").unwrap().unwrap(), b"state-b");
    }

    #[test]
    fn physical_slots_are_visible_on_the_medium() {
        let shared = Arc::new(MemoryStorage::new());
        let ns = NamespacedStorage::new(shared.clone(), "shard3.");
        ns.store("lcm.keyblob", b"kb").unwrap();
        assert_eq!(shared.load("shard3.lcm.keyblob").unwrap().unwrap(), b"kb");
        assert_eq!(ns.physical_slot("x"), "shard3.x");
    }

    #[test]
    fn store_all_reaches_the_inner_store_as_one_call() {
        use crate::{DelayedStorage, DeltaLogStorage, BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA};
        let device = Arc::new(DelayedStorage::new(
            MemoryStorage::new(),
            std::time::Duration::ZERO,
        ));
        let engine = Arc::new(DeltaLogStorage::open(device.clone()).unwrap());
        let ns = NamespacedStorage::new(engine, "shard0.");
        ns.store("s", &[BLOB_KIND_CHECKPOINT, 1]).unwrap();
        let before = device.stores();
        ns.store_all("s", &[&[BLOB_KIND_DELTA, 2], &[BLOB_KIND_DELTA, 3]])
            .unwrap();
        assert_eq!(device.stores(), before + 1, "one journal write for both");
    }

    #[test]
    fn empty_prefix_is_transparent() {
        let shared = Arc::new(MemoryStorage::new());
        let ns = NamespacedStorage::new(shared.clone(), "");
        ns.store("slot", b"v").unwrap();
        assert_eq!(shared.load("slot").unwrap().unwrap(), b"v");
    }
}
