//! TEE-capable platforms and the services they expose to enclaves.

use std::fmt;
use std::sync::{Arc, Mutex};

use lcm_crypto::hkdf;
use lcm_crypto::hmac::hmac_sha256;
use lcm_crypto::keys::SecretKey;
use lcm_crypto::sha256::Digest;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::attestation::Report;
use crate::measurement::Measurement;

/// Opaque identifier of a physical platform.
///
/// Not revealed through attestation (quotes are anonymous, as with
/// EPID); used by tests and the simulator to tell machines apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlatformId(pub u64);

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "platform-{}", self.0)
    }
}

pub(crate) struct PlatformInner {
    pub(crate) id: PlatformId,
    /// Fused-in root secret; everything platform-specific derives from it.
    root_secret: SecretKey,
    /// EPID-style group member secret, installed when the platform joins
    /// an attestation authority. `None` until joined.
    pub(crate) group_secret: Mutex<Option<SecretKey>>,
    /// Manufacturer secret shared by all platforms of one
    /// [`crate::world::TeeWorld`]; enables attested secure-channel key
    /// derivation. `None` for standalone platforms.
    pub(crate) world_secret: Option<SecretKey>,
}

impl PlatformInner {
    /// The sealing key for a program with `measurement` — `get-key(T, P)`
    /// from the paper: deterministic per (platform, program).
    pub(crate) fn sealing_key(&self, measurement: &Measurement) -> SecretKey {
        hkdf::derive_key(
            &self.root_secret,
            b"lcm-tee.sealing",
            measurement.as_bytes(),
        )
    }

    /// Key under which this platform MACs enclave reports for its local
    /// quoting enclave (SGX "report key").
    pub(crate) fn report_key(&self) -> SecretKey {
        hkdf::derive_key(&self.root_secret, b"lcm-tee.report-key", b"")
    }

    pub(crate) fn mac_report(&self, measurement: &Measurement, user_data: &Digest) -> Digest {
        let key = self.report_key();
        let mut data = Vec::with_capacity(64);
        data.extend_from_slice(measurement.as_bytes());
        data.extend_from_slice(user_data.as_bytes());
        hmac_sha256(key.as_bytes(), &data)
    }
}

/// One TEE-capable machine.
///
/// A platform owns a root secret (burned into the CPU in real SGX) from
/// which sealing and report keys derive, and can host any number of
/// [`crate::enclave::Enclave`]s. Restarting an enclave on the *same*
/// platform reproduces the same sealing key; moving the program to a
/// *different* platform yields an unrelated key — this is precisely the
/// property that makes TMC-based rollback protection non-migratable
/// (paper §3.1) and that LCM's migration protocol (§4.6.2) works around.
///
/// # Example
///
/// ```
/// use lcm_tee::platform::TeePlatform;
///
/// let platform = TeePlatform::new_deterministic(1);
/// assert_eq!(platform.id().0, 1);
/// ```
#[derive(Clone)]
pub struct TeePlatform {
    pub(crate) inner: Arc<PlatformInner>,
}

impl fmt::Debug for TeePlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeePlatform")
            .field("id", &self.inner.id)
            .finish()
    }
}

impl TeePlatform {
    /// Creates a platform with a random root secret.
    pub fn new(id: u64) -> Self {
        Self::with_root_secret(id, SecretKey::generate())
    }

    /// Creates a platform whose root secret is derived from `id` alone,
    /// for reproducible tests and simulations.
    pub fn new_deterministic(id: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(id ^ 0x7ee_5eed);
        Self::with_root_secret(id, SecretKey::generate_with(&mut rng))
    }

    fn with_root_secret(id: u64, root_secret: SecretKey) -> Self {
        Self::build(id, root_secret, None)
    }

    pub(crate) fn new_world_member(id: u64, world_secret: SecretKey) -> Self {
        Self::build(id, SecretKey::generate(), Some(world_secret))
    }

    pub(crate) fn new_world_member_deterministic(id: u64, world_secret: SecretKey) -> Self {
        // Derive the root from the world secret so two deterministic
        // platforms with equal ids in DIFFERENT worlds (or a standalone
        // platform with the same id) never share root material.
        let root = lcm_crypto::hkdf::derive_key(
            &world_secret,
            b"lcm-tee.platform-root",
            &id.to_be_bytes(),
        );
        Self::build(id, root, Some(world_secret))
    }

    fn build(id: u64, root_secret: SecretKey, world_secret: Option<SecretKey>) -> Self {
        TeePlatform {
            inner: Arc::new(PlatformInner {
                id: PlatformId(id),
                root_secret,
                group_secret: Mutex::new(None),
                world_secret,
            }),
        }
    }

    /// Returns this platform's identifier.
    pub fn id(&self) -> PlatformId {
        self.inner.id
    }
}

/// The services a running enclave program may call into its hosting TEE.
///
/// Handed to [`crate::enclave::EnclaveProgram::boot`] each epoch. All
/// methods are safe against the untrusted host: the host never sees the
/// values they return.
#[derive(Clone)]
pub struct TeeServices {
    pub(crate) platform: Arc<PlatformInner>,
    pub(crate) measurement: Measurement,
    pub(crate) rng_seed: u64,
}

impl fmt::Debug for TeeServices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeServices")
            .field("platform", &self.platform.id)
            .field("measurement", &self.measurement)
            .finish()
    }
}

impl TeeServices {
    /// Constructs services directly, bypassing the enclave lifecycle.
    ///
    /// For unit tests of enclave programs; production code receives
    /// services only through [`crate::enclave::EnclaveProgram::boot`].
    #[doc(hidden)]
    pub fn for_tests(platform: TeePlatform, measurement: Measurement, rng_seed: u64) -> Self {
        TeeServices {
            platform: platform.inner.clone(),
            measurement,
            rng_seed,
        }
    }

    /// `get-key(T, P)`: the sealing key specific to this platform and
    /// the program currently running in the enclave.
    ///
    /// Two enclaves running the same program on the same platform obtain
    /// the same key (across epochs and restarts); any other combination
    /// obtains an unrelated key.
    pub fn sealing_key(&self) -> SecretKey {
        self.platform.sealing_key(&self.measurement)
    }

    /// The measurement of the program running in this enclave.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Produces an attestation [`Report`] binding this enclave's
    /// measurement to caller-chosen `user_data` (e.g. a challenge nonce
    /// plus a key-exchange value).
    pub fn report(&self, user_data: Digest) -> Report {
        Report {
            measurement: self.measurement,
            user_data,
            mac: self.platform.mac_report(&self.measurement, &user_data),
        }
    }

    /// Fills `buf` from the TEE's random-number generator.
    ///
    /// Real SGX exposes RDRAND; the simulator gives every epoch an
    /// independent, reproducible stream, and every call draws from
    /// the start of it.
    pub fn fill_random(&self, buf: &mut [u8]) {
        StdRng::seed_from_u64(self.rng_seed).fill_bytes(buf);
    }

    /// The migration-channel key shared by enclaves running this same
    /// program on any platform of the same [`crate::world::TeeWorld`].
    ///
    /// Models the result of an attested enclave-to-enclave key exchange
    /// (paper §4.6.2). Returns `None` on standalone platforms that were
    /// not manufactured by a world.
    pub fn migration_key(&self) -> Option<SecretKey> {
        self.platform
            .world_secret
            .as_ref()
            .map(|ws| crate::world::migration_key_from(ws, &self.measurement))
    }

    /// The provisioning key shared with the trusted admin of this
    /// program — the enclave end of the admin's attested channel
    /// (paper §4.3). Returns `None` on standalone platforms.
    pub fn provision_key(&self) -> Option<SecretKey> {
        self.platform
            .world_secret
            .as_ref()
            .map(|ws| crate::world::provision_key_from(ws, &self.measurement))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealing_key_stable_per_platform_and_program() {
        let p = TeePlatform::new_deterministic(1);
        let m = Measurement::of_program("app", "1");
        assert_eq!(p.inner.sealing_key(&m), p.inner.sealing_key(&m));
    }

    #[test]
    fn sealing_key_differs_across_platforms() {
        let p1 = TeePlatform::new_deterministic(1);
        let p2 = TeePlatform::new_deterministic(2);
        let m = Measurement::of_program("app", "1");
        assert_ne!(p1.inner.sealing_key(&m), p2.inner.sealing_key(&m));
    }

    #[test]
    fn sealing_key_differs_across_programs() {
        let p = TeePlatform::new_deterministic(1);
        let m1 = Measurement::of_program("app", "1");
        let m2 = Measurement::of_program("app", "2");
        assert_ne!(p.inner.sealing_key(&m1), p.inner.sealing_key(&m2));
    }

    #[test]
    fn deterministic_platform_reproducible() {
        let a = TeePlatform::new_deterministic(9);
        let b = TeePlatform::new_deterministic(9);
        let m = Measurement::of_program("app", "1");
        assert_eq!(a.inner.sealing_key(&m), b.inner.sealing_key(&m));
    }

    #[test]
    fn random_platforms_are_distinct() {
        let a = TeePlatform::new(1);
        let b = TeePlatform::new(1);
        let m = Measurement::of_program("app", "1");
        assert_ne!(a.inner.sealing_key(&m), b.inner.sealing_key(&m));
    }
}
