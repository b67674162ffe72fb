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
//! * [`DeltaLogStorage`] — the segmented, group-committing journal of
//!   sealed per-batch deltas under a whole deployment (the deployment
//!   builder opens one over any medium that is not
//!   [`StableStorage::delta_capable`]);
//! * [`BundleStorage`] — the adapter that makes any *other* store
//!   accept sealed deltas, holding `checkpoint ‖ deltas` in the one
//!   slot a plain store has (a bare server wraps it around every store
//!   that is not [`StableStorage::delta_capable`]);
//! * [`VersionedStorage`] — retains every version ever stored, the
//!   building block for adversarial behaviour;
//! * [`RollbackStorage`] — an adversarial wrapper that can be switched
//!   at runtime between honest operation, serving stale versions,
//!   silently dropping writes, and freezing;
//! * [`ForkView`] — per-branch views over one history, used to feed
//!   divergent states to multiple enclave instances.
//!
//! # `unsafe`
//!
//! Everything is safe Rust except one kernel: on an x86-64 CPU with
//! `pclmulqdq`, [`framing::crc32`] — the checksum under every frame of
//! every journal, checkpoint slot and bundle — folds its input by
//! carry-less multiplication, more than ten times the table kernel's
//! rate. That takes a `#[target_feature]` function, which is `unsafe`
//! to call, so this crate *denies* `unsafe_code` rather than forbidding
//! it, and exactly one private module, `framing::clmul`, is allowed it
//! by an attribute on its own `mod` line — the fence `lcm_crypto` puts
//! around its two hardware kernels (two safe functions, the second
//! checking the first before its single `unsafe` call). Every other
//! CPU takes the table kernel, with identical checksums; CI greps that
//! `unsafe` stays in exactly those three files.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod bundle;
mod delayed;
mod deltalog;
mod error;
mod file;
mod flaky;
pub mod framing;
mod memory;
mod namespace;
mod versioned;

pub use adversary::{AdversaryMode, ForkView, RollbackStorage};
pub use bundle::BundleStorage;
pub use delayed::DelayedStorage;
pub use deltalog::{
    make_bundle, parse_bundle, DeltaLogConfig, DeltaLogStats, DeltaLogStorage, BLOB_KIND_BUNDLE,
    BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA, BLOB_KIND_OPAQUE,
};
pub use error::StorageError;
pub use file::FileStorage;
pub use flaky::{FailureMode, FlakyStorage};
pub use memory::MemoryStorage;
pub use namespace::NamespacedStorage;
pub use versioned::{Version, VersionedStorage};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, StorageError>;

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
    /// the other. The default is exactly that; [`BundleStorage`]
    /// appends every delta to the slot's `checkpoint ‖ deltas` and
    /// writes the slot once, and [`DeltaLogStorage`] journals them in
    /// one group commit, which is what lets a replica group's
    /// straggler persist several records for the price of one.
    /// [`NamespacedStorage`] forwards it.
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
    /// them back as `checkpoint ‖ deltas`. [`DeltaLogStorage`] and
    /// [`BundleStorage`] do; plain blob stores keep the default
    /// `false`, and honest wrappers forward their inner store's
    /// answer.
    ///
    /// Nobody has to consult this to get O(batch) sealing: a store that
    /// answers `true` is used as it is, and one that answers `false`
    /// gets an adapter from whoever builds on it:
    ///
    /// * a bare server (`lcm_core`'s `LcmServer::new`) puts a
    ///   [`BundleStorage`] around it. One slot then stays one coherent
    ///   sealed state, the unit the paper's `load`/`store` model and
    ///   the adversarial wrappers ([`RollbackStorage`],
    ///   [`VersionedStorage`], [`ForkView`]) roll back and fork — but
    ///   the device takes that whole slot per batch;
    /// * a deployment (`lcm::deployment::DeploymentBuilder::build`)
    ///   opens one [`DeltaLogStorage`] over it for every lane and
    ///   replica, which journals O(batch) device bytes per batch and
    ///   adopts any slot a [`BundleStorage`] wrote there before.
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
