//! Stable storage substrate for the LCM reproduction.
//!
//! The paper's system model (§2.1) gives the server — and only the
//! server — access to *stable storage* through `load` and `store`. The
//! trusted execution context must persist its sealed state through this
//! channel, and a **malicious server may return any correctly-sealed
//! but outdated blob** (a rollback attack) or serve different blobs to
//! different enclave instances (a forking attack).
//!
//! This crate provides:
//!
//! * [`StableStorage`] — the `load`/`store` trait both honest and
//!   malicious servers implement;
//! * [`MemoryStorage`] — an honest in-memory store;
//! * [`FileStorage`] — an honest file-backed store (for examples that
//!   survive process restarts);
//! * [`DelayedStorage`] — an honest wrapper charging wall-clock device
//!   latency per operation, for real-concurrency experiments;
//! * [`DeltaLogStorage`] — the one persistence engine: a segmented,
//!   group-committing journal of sealed per-batch deltas over any
//!   store that is not [`StableStorage::delta_capable`] (a deployment
//!   builder opens one under all its lanes, a bare server one of its
//!   own);
//! * [`VersionedStorage`] — retains every write ever made, so any past
//!   *medium* can be cut out of it: the building block for adversarial
//!   behaviour;
//! * [`RollbackStorage`] — an adversarial wrapper that can be switched
//!   at runtime between honest operation, serving a past medium,
//!   silently dropping, tearing and reordering writes;
//! * [`ForkView`] — per-branch views over one history, used to feed
//!   divergent states to multiple enclave instances.
//!
//! The record framing under every journal and bundle
//! ([`framing`]) and the bundle format's reader ([`parse_bundle`], the
//! `BLOB_KIND_*` bytes) live below this crate, in `lcm_crypto` and
//! `lcm_trusted` — the enclave reads that format — and are re-exported
//! here; its writer, [`make_bundle`], is the host's and lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

mod adversary;
mod delayed;
mod deltalog;
mod error;
mod file;
mod flaky;
mod memory;
mod namespace;
mod versioned;

pub use adversary::{AdversaryMode, ForkView, RollbackStorage};
pub use delayed::DelayedStorage;
pub use deltalog::{make_bundle, DeltaLogConfig, DeltaLogStats, DeltaLogStorage};
pub use error::StorageError;
pub use file::FileStorage;
pub use flaky::{FailureMode, FlakyStorage};
pub use lcm_crypto::framing;
pub use lcm_trusted::blob::{
    parse_bundle, BLOB_KIND_BUNDLE, BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA, BLOB_KIND_OPAQUE,
};
pub use memory::MemoryStorage;
pub use namespace::NamespacedStorage;
pub use versioned::{Version, VersionedStorage};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Read-locks `lock`. No critical section here leaves its data half
/// updated, so a lock a panicking holder poisoned is used as it is.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, as [`read`] read-locks it.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The `load`/`store` interface of the paper's system model.
///
/// Implementations may be honest (always return the most recent blob)
/// or adversarial (return stale or divergent blobs). The trusted
/// execution context must treat whatever `load` returns as untrusted:
/// integrity comes from the seal, freshness cannot come from storage at
/// all — that is the gap LCM closes.
pub trait StableStorage: Send + Sync {
    /// Persists `blob` under `slot`, replacing the visible version.
    ///
    /// # Errors
    ///
    /// Implementations may fail on I/O errors; adversarial
    /// implementations may silently drop the write instead (that is not
    /// an error — the caller cannot tell).
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()>;

    /// Persists `blobs` under `slot` in order, as if stored one after
    /// the other. The default is exactly that; [`DeltaLogStorage`]
    /// journals the deltas among them in one group commit, which is
    /// what lets a replica group's straggler persist several records
    /// for the price of one. [`NamespacedStorage`] forwards it.
    ///
    /// # Errors
    ///
    /// As [`StableStorage::store`]; blobs before the failing one may
    /// have been stored.
    fn store_all(&self, slot: &str, blobs: &[&[u8]]) -> Result<()> {
        blobs.iter().try_for_each(|blob| self.store(slot, blob))
    }

    /// Loads the blob currently visible under `slot`, or `None` if the
    /// slot was never stored.
    ///
    /// # Errors
    ///
    /// Implementations may fail on I/O errors.
    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>>;

    /// Whether this store takes the sealed blob kinds an enclave emits
    /// on the delta path — a [`BLOB_KIND_DELTA`] that extends the slot
    /// and a [`BLOB_KIND_CHECKPOINT`] that replaces it — and loads
    /// them back as `checkpoint ‖ deltas`. [`DeltaLogStorage`] alone
    /// does; plain blob stores keep the default `false`, and honest
    /// wrappers forward their inner store's answer. A store that
    /// answers `false` gets a [`DeltaLogStorage`] over it from whoever
    /// builds on it: a deployment (`lcm::deployment::DeploymentBuilder`)
    /// one for all its lanes, a bare server (`lcm_core`'s
    /// `LcmServer::new`) one of its own, recovered at every boot.
    fn delta_capable(&self) -> bool {
        false
    }
}

impl<T: StableStorage + ?Sized> StableStorage for std::sync::Arc<T> {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        (**self).store(slot, blob)
    }
    fn store_all(&self, slot: &str, blobs: &[&[u8]]) -> Result<()> {
        (**self).store_all(slot, blobs)
    }
    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        (**self).load(slot)
    }
    fn delta_capable(&self) -> bool {
        (**self).delta_capable()
    }
}
