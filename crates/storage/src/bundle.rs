//! [`BundleStorage`]: delta persists over a plain blob store.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::deltalog::cut_torn_bundle;
use crate::{
    framing, Result, StableStorage, StorageError, BLOB_KIND_BUNDLE, BLOB_KIND_CHECKPOINT,
    BLOB_KIND_DELTA,
};

/// Assembles a recovery bundle from a checkpoint blob and delta blobs:
/// the inverse of [`crate::parse_bundle`], which the enclave runs. This
/// half is the host's; it is public so tests can fabricate bundles
/// without an engine. Sized up front, so the checkpoint — the O(state)
/// part — is copied exactly once.
pub fn make_bundle<'a>(
    checkpoint: &[u8],
    deltas: impl Iterator<Item = &'a [u8]> + Clone,
) -> Vec<u8> {
    let delta_bytes: usize = deltas
        .clone()
        .map(|d| framing::FRAME_HEADER + d.len())
        .sum();
    let mut bundle = Vec::with_capacity(1 + framing::FRAME_HEADER + checkpoint.len() + delta_bytes);
    bundle.push(BLOB_KIND_BUNDLE);
    framing::append_frame(&mut bundle, checkpoint);
    for d in deltas {
        framing::append_frame(&mut bundle, d);
    }
    bundle
}

/// Delta persists over a plain blob store: one slot holds
/// `checkpoint ‖ deltas`.
///
/// A plain [`StableStorage`] can only replace a slot, so an enclave
/// persisting through it would have to seal its whole state per batch.
/// The adapter lets the enclave seal O(batch) deltas instead: it keeps
/// an in-memory mirror of each state slot, appends every sealed delta
/// to the mirror as one CRC frame ([`crate::framing`]) and stores the
/// slot whole — in the recovery-bundle format ([`crate::parse_bundle`])
/// the enclave already re-verifies delta by delta against its hash
/// chain. A sealed checkpoint replaces the slot verbatim, which is
/// also what bounds the slot: the enclave's checkpoint cadence keeps
/// the deltas within the checkpoint's size. On `load` a torn tail is
/// cut at the last intact frame.
///
/// One slot stays **one coherent sealed state** — the paper's
/// `load`/`store` model, and the unit the adversarial wrappers
/// ([`crate::RollbackStorage`], [`crate::VersionedStorage`],
/// [`crate::ForkView`]) roll back and fork. The price is device
/// *bytes*: the slot is rewritten whole per batch, as the checkpoint
/// was; only the sealing became O(batch). [`StableStorage::store_all`]
/// spreads that price: it appends several deltas and writes the slot
/// once.
///
/// Who gets which, for a store that is not
/// [`StableStorage::delta_capable`]:
///
/// * a bare server (`lcm_core`'s `LcmServer::new`) gets this adapter:
///   its one slot must stay the unit an adversarial store rolls back
///   and forks by name, which the segmented [`crate::DeltaLogStorage`]
///   — state spread over journal, checkpoint and manifest slots — is
///   not;
/// * a whole deployment (`lcm::deployment::DeploymentBuilder`) gets
///   one [`crate::DeltaLogStorage`] over the medium instead, so every
///   lane and replica journals O(batch) device bytes through one
///   group-commit writer. The engine adopts a slot this adapter wrote
///   before the first delta on it, so a medium keeps its state across
///   the switch.
///
/// Wrap explicitly only to inspect the adapter in isolation.
///
/// # Example
///
/// ```
/// use lcm_storage::{
///     parse_bundle, BundleStorage, MemoryStorage, StableStorage, BLOB_KIND_CHECKPOINT,
///     BLOB_KIND_DELTA,
/// };
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), lcm_storage::StorageError> {
/// let plain = Arc::new(MemoryStorage::new());
/// let store = BundleStorage::new(plain.clone());
/// let (ckpt, delta) = ([BLOB_KIND_CHECKPOINT, 7], [BLOB_KIND_DELTA, 8]);
/// store.store("state", &ckpt)?;
/// assert_eq!(plain.load("state")?.unwrap(), ckpt);
/// store.store("state", &delta)?;
/// let slot = plain.load("state")?.unwrap();
/// assert_eq!(parse_bundle(&slot), Some((&ckpt[..], vec![&delta[..]])));
/// # Ok(())
/// # }
/// ```
pub struct BundleStorage {
    inner: Arc<dyn StableStorage>,
    /// What each state slot holds on the medium, as far as this
    /// process knows: the last blob loaded or stored, torn tail cut.
    slots: Mutex<HashMap<String, Vec<u8>>>,
}

impl std::fmt::Debug for BundleStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BundleStorage")
            .field("slots", &self.lock_slots().len())
            .finish()
    }
}

impl BundleStorage {
    /// Wraps the plain blob store `inner`.
    pub fn new(inner: Arc<dyn StableStorage>) -> Self {
        BundleStorage {
            inner,
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn lock_slots(&self) -> MutexGuard<'_, HashMap<String, Vec<u8>>> {
        // Every update leaves a mirror some valid prefix of what was
        // handed to `store`; a poisoned lock hides nothing worse.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Loads `slot` from the medium and cuts a torn bundle tail: what
    /// comes back is the longest intact `checkpoint ‖ deltas` prefix.
    /// A bundle whose *checkpoint* frame is torn comes back as it is —
    /// there is no state to fall back to, and the enclave must see
    /// (and refuse) what the medium holds.
    fn load_intact(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        let Some(mut blob) = self.inner.load(slot)? else {
            return Ok(None);
        };
        cut_torn_bundle(&mut blob);
        Ok(Some(blob))
    }
}

/// Whether `blob` is a sealed state the adapter mirrors.
fn is_state(blob: &[u8]) -> bool {
    matches!(
        blob.first(),
        Some(&BLOB_KIND_CHECKPOINT | &BLOB_KIND_BUNDLE)
    )
}

/// Whether `blob` is a sealed record the adapter folds into a mirror:
/// a checkpoint replaces it, a delta extends it.
fn is_record(blob: &[u8]) -> bool {
    matches!(blob.first(), Some(&BLOB_KIND_CHECKPOINT | &BLOB_KIND_DELTA))
}

impl StableStorage for BundleStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        if is_record(blob) {
            self.store_all(slot, &[blob])
        } else {
            self.inner.store(slot, blob)
        }
    }

    fn store_all(&self, slot: &str, blobs: &[&[u8]]) -> Result<()> {
        if blobs.is_empty() {
            return Ok(());
        }
        if !blobs.iter().all(|blob| is_record(blob)) {
            return blobs.iter().try_for_each(|blob| self.store(slot, blob));
        }
        // The lock is held across the inner write: the adapter serves
        // one lane, and the alternative is a copy of the slot per
        // write. A failed write leaves the mirror ahead of the medium,
        // which the next store — the slot, whole — repairs.
        let mut slots = self.lock_slots();
        for blob in blobs {
            if blob.first() == Some(&BLOB_KIND_CHECKPOINT) {
                let mirror = slots.entry(slot.to_owned()).or_default();
                mirror.clear();
                mirror.extend_from_slice(blob);
                continue;
            }
            if !slots.contains_key(slot) {
                if let Some(state) = self.load_intact(slot)?.filter(|b| is_state(b)) {
                    slots.insert(slot.to_owned(), state);
                }
            }
            let Some(mirror) = slots.get_mut(slot) else {
                return Err(StorageError::Io(std::io::Error::other(format!(
                    "delta for slot {slot:?}, which holds no checkpoint"
                ))));
            };
            if mirror.first() == Some(&BLOB_KIND_CHECKPOINT) {
                *mirror = make_bundle(mirror, std::iter::empty());
            }
            framing::append_frame(mirror, blob);
        }
        self.inner.store(slot, &slots[slot])
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        // Always from the medium, never from the mirror: which version
        // a load returns is the host's (possibly adversarial) choice,
        // and the deltas that follow must extend what the enclave
        // restored from, not what this process stored last.
        let loaded = self.load_intact(slot)?;
        let mut slots = self.lock_slots();
        match &loaded {
            Some(state) if is_state(state) => {
                slots.insert(slot.to_owned(), state.clone());
            }
            _ => {
                slots.remove(slot);
            }
        }
        Ok(loaded)
    }

    fn delta_capable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_bundle;
    use crate::{MemoryStorage, BLOB_KIND_OPAQUE};

    fn ckpt(n: u8) -> Vec<u8> {
        let mut b = vec![BLOB_KIND_CHECKPOINT];
        b.extend_from_slice(&[n; 16]);
        b
    }

    fn delta(n: u8) -> Vec<u8> {
        let mut b = vec![BLOB_KIND_DELTA];
        b.extend_from_slice(&[n; 8]);
        b
    }

    fn adapter() -> (Arc<MemoryStorage>, BundleStorage) {
        let plain = Arc::new(MemoryStorage::new());
        (plain.clone(), BundleStorage::new(plain))
    }

    #[test]
    fn a_checkpoint_replaces_the_slot_verbatim() {
        let (plain, s) = adapter();
        s.store("s", &ckpt(1)).unwrap();
        s.store("s", &delta(2)).unwrap();
        s.store("s", &ckpt(3)).unwrap();
        assert_eq!(plain.load("s").unwrap().unwrap(), ckpt(3));
        assert_eq!(s.load("s").unwrap().unwrap(), ckpt(3));
    }

    #[test]
    fn deltas_append_to_the_slot_in_order() {
        let (plain, s) = adapter();
        s.store("s", &ckpt(1)).unwrap();
        s.store("s", &delta(2)).unwrap();
        s.store("s", &delta(3)).unwrap();
        let slot = plain.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&slot).unwrap();
        assert_eq!(c, &ckpt(1)[..]);
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..]]);
        assert_eq!(s.load("s").unwrap().unwrap(), slot);
    }

    #[test]
    fn store_all_appends_every_delta_and_writes_the_slot_once() {
        let plain = Arc::new(crate::DelayedStorage::new(
            MemoryStorage::new(),
            std::time::Duration::ZERO,
        ));
        let s = BundleStorage::new(plain.clone());
        s.store("s", &ckpt(1)).unwrap();
        let before = plain.stores();
        s.store_all("s", &[&delta(2), &delta(3), &delta(4)])
            .unwrap();
        assert_eq!(plain.stores(), before + 1, "one write for three records");
        let slot = plain.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&slot).unwrap();
        assert_eq!(c, &ckpt(1)[..]);
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..], &delta(4)[..]]);

        // A checkpoint among them replaces what came before it, still
        // in one write; nothing at all writes nothing.
        s.store_all("s", &[&delta(5), &ckpt(6), &delta(7)]).unwrap();
        s.store_all("s", &[]).unwrap();
        assert_eq!(plain.stores(), before + 2);
        let slot = plain.load("s").unwrap().unwrap();
        assert_eq!(
            parse_bundle(&slot),
            Some((&ckpt(6)[..], vec![&delta(7)[..]]))
        );
    }

    #[test]
    fn other_kinds_pass_through_unmirrored() {
        let (plain, s) = adapter();
        let opaque = [BLOB_KIND_OPAQUE, 9, 9];
        s.store("key", &opaque).unwrap();
        s.store("raw", b"").unwrap();
        assert_eq!(plain.load("key").unwrap().unwrap(), opaque);
        assert_eq!(s.load("key").unwrap().unwrap(), opaque);
        assert_eq!(s.load("raw").unwrap().unwrap(), b"");
        assert_eq!(s.load("never-stored").unwrap(), None);
        assert!(s.lock_slots().is_empty());
    }

    #[test]
    fn a_torn_last_frame_loads_as_checkpoint_and_intact_deltas() {
        let (plain, s) = adapter();
        s.store("s", &ckpt(1)).unwrap();
        s.store("s", &delta(2)).unwrap();
        s.store("s", &delta(3)).unwrap();
        let mut slot = plain.load("s").unwrap().unwrap();
        slot.truncate(slot.len() - 3);
        plain.store("s", &slot).unwrap();

        let s = BundleStorage::new(plain.clone());
        let got = s.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&got).unwrap();
        assert_eq!(c, &ckpt(1)[..]);
        assert_eq!(ds, vec![&delta(2)[..]]);
        // The next delta lands after the intact prefix, not after the
        // torn bytes.
        s.store("s", &delta(4)).unwrap();
        let slot = plain.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&slot).unwrap();
        assert_eq!(ds, vec![&delta(2)[..], &delta(4)[..]]);
    }

    #[test]
    fn a_torn_checkpoint_frame_is_returned_untruncated() {
        let (plain, s) = adapter();
        s.store("s", &ckpt(1)).unwrap();
        s.store("s", &delta(2)).unwrap();
        let mut slot = plain.load("s").unwrap().unwrap();
        slot.truncate(1 + framing::FRAME_HEADER + 4); // mid-checkpoint
        plain.store("s", &slot).unwrap();
        let s = BundleStorage::new(plain);
        let got = s.load("s").unwrap().unwrap();
        assert_eq!(got, slot, "nothing to fall back to: the enclave sees it");
        assert!(parse_bundle(&got).is_none());
    }

    #[test]
    fn a_mirror_miss_seeds_from_the_medium_once() {
        let (plain, first) = adapter();
        first.store("s", &ckpt(1)).unwrap();
        first.store("s", &delta(2)).unwrap();
        // A new process that stores without having loaded.
        let s = BundleStorage::new(plain.clone());
        s.store("s", &delta(3)).unwrap();
        let slot = plain.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&slot).unwrap();
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..]]);
        // No checkpoint anywhere: the delta has nothing to extend.
        assert!(s.store("empty", &delta(4)).is_err());
        assert_eq!(plain.load("empty").unwrap(), None);
    }

    #[test]
    fn deltas_extend_what_load_returned_not_what_was_stored_last() {
        let history = crate::RollbackStorage::new();
        let s = BundleStorage::new(Arc::new(history.clone()));
        s.store("s", &ckpt(1)).unwrap();
        s.store("s", &delta(2)).unwrap();
        s.store("s", &delta(3)).unwrap();
        // The host rolls the slot back one version across a reboot.
        history.set_mode(crate::AdversaryMode::ServeStale { steps_back: 1 });
        let stale = s.load("s").unwrap().unwrap();
        history.set_mode(crate::AdversaryMode::Honest);
        assert_eq!(parse_bundle(&stale).unwrap().1, vec![&delta(2)[..]]);
        s.store("s", &delta(4)).unwrap();
        let slot = s.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&slot).unwrap();
        assert_eq!(ds, vec![&delta(2)[..], &delta(4)[..]]);
    }

    #[test]
    fn a_failed_store_is_repaired_by_the_next_one() {
        let flaky = Arc::new(crate::FlakyStorage::new(MemoryStorage::new()));
        let s = BundleStorage::new(flaky.clone());
        s.store("s", &ckpt(1)).unwrap();
        flaky.set_mode(crate::FailureMode::FailStores);
        assert!(s.store("s", &delta(2)).is_err());
        flaky.set_mode(crate::FailureMode::None);
        s.store("s", &delta(3)).unwrap();
        let slot = s.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&slot).unwrap();
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..]]);
    }
}
