//! A "world" of TEE platforms from one manufacturer, providing
//! attested secure-channel keys.
//!
//! Real SGX establishes secure channels into an enclave by combining
//! remote attestation with a Diffie–Hellman exchange (the admin of the
//! LCM paper provisions `kC`/`kP` through exactly such a channel, §4.3,
//! and migration builds an enclave-to-enclave channel the same way,
//! §4.6.2). This workspace implements only symmetric primitives, so the
//! *outcome* of RA+DH is modelled instead: platforms manufactured in
//! the same [`TeeWorld`] share a manufacturer secret, and from it an
//! enclave can derive
//!
//! * a **provisioning key** shared with the trusted admin
//!   ([`TeeWorld::admin_provision_key`] /
//!   [`crate::platform::TeeServices::provision_key`]), and
//! * a **migration key** shared only between enclaves running the *same
//!   program* on any world platform
//!   ([`crate::platform::TeeServices::migration_key`]).
//!
//! The untrusted host never holds these keys, which is the only
//! property the protocol layer relies on. The admin holding the
//! provisioning key is faithful: the admin is trusted in the paper's
//! model and is the party the RA-DH channel would terminate at.

use lcm_crypto::hkdf;
use lcm_crypto::keys::SecretKey;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::attestation::AttestationAuthority;
use crate::measurement::Measurement;
use crate::platform::TeePlatform;

/// A family of TEE platforms sharing a manufacturer root and an
/// attestation authority.
///
/// # Example
///
/// ```
/// use lcm_tee::world::TeeWorld;
/// use lcm_tee::measurement::Measurement;
///
/// let world = TeeWorld::new_deterministic(7);
/// let platform_a = world.platform(1);
/// let platform_b = world.platform(2);
/// let m = Measurement::of_program("lcm", "1");
/// // Same program on different platforms derives the same migration key.
/// assert_eq!(
///     world.admin_provision_key(&m),
///     world.admin_provision_key(&m),
/// );
/// # let _ = (platform_a, platform_b);
/// ```
#[derive(Clone)]
pub struct TeeWorld {
    secret: SecretKey,
    authority: AttestationAuthority,
}

impl std::fmt::Debug for TeeWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TeeWorld(<manufacturer secret redacted>)")
    }
}

impl Default for TeeWorld {
    fn default() -> Self {
        Self::new()
    }
}

impl TeeWorld {
    /// Creates a world with a random manufacturer secret.
    pub fn new() -> Self {
        TeeWorld {
            secret: SecretKey::generate(),
            authority: AttestationAuthority::new(),
        }
    }

    /// Creates a reproducible world for tests and simulations.
    pub fn new_deterministic(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ WORLD_SEED_SALT);
        TeeWorld {
            secret: SecretKey::generate_with(&mut rng),
            authority: AttestationAuthority::new_deterministic(seed),
        }
    }

    /// Manufactures a platform enrolled with this world's attestation
    /// authority.
    pub fn platform(&self, id: u64) -> TeePlatform {
        let platform = TeePlatform::new_world_member(id, self.secret.clone());
        self.authority.enroll(&platform);
        platform
    }

    /// Manufactures a *deterministic* platform (root secret derived
    /// from `id`), enrolled with the authority.
    pub fn platform_deterministic(&self, id: u64) -> TeePlatform {
        let platform = TeePlatform::new_world_member_deterministic(id, self.secret.clone());
        self.authority.enroll(&platform);
        platform
    }

    /// The attestation authority of this world.
    pub fn authority(&self) -> &AttestationAuthority {
        &self.authority
    }

    /// The provisioning key a trusted admin shares with enclaves running
    /// the program identified by `measurement` — models the admin's
    /// RA-DH channel endpoint.
    pub fn admin_provision_key(&self, measurement: &Measurement) -> SecretKey {
        provision_key_from(&self.secret, measurement)
    }
}

pub(crate) fn provision_key_from(world_secret: &SecretKey, m: &Measurement) -> SecretKey {
    hkdf::derive_key(world_secret, b"lcm-tee.provision", m.as_bytes())
}

pub(crate) fn migration_key_from(world_secret: &SecretKey, m: &Measurement) -> SecretKey {
    hkdf::derive_key(world_secret, b"lcm-tee.migration", m.as_bytes())
}

/// Arbitrary salt keeping deterministic world seeds disjoint from other
/// seeded RNG streams in the workspace.
const WORLD_SEED_SALT: u64 = 0x3d0d_5eed_cafe_f00d;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::TeeServices;

    fn services_for(world: &TeeWorld, platform_id: u64, m: Measurement) -> TeeServices {
        let platform = world.platform_deterministic(platform_id);
        TeeServices {
            platform: platform.inner.clone(),
            measurement: m,
            rng_seed: 0,
        }
    }

    #[test]
    fn migration_key_shared_across_platforms_same_program() {
        let world = TeeWorld::new_deterministic(1);
        let m = Measurement::of_program("lcm", "1");
        let a = services_for(&world, 1, m).migration_key().unwrap();
        let b = services_for(&world, 2, m).migration_key().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn migration_key_differs_across_programs() {
        let world = TeeWorld::new_deterministic(1);
        let m1 = Measurement::of_program("lcm", "1");
        let m2 = Measurement::of_program("lcm", "2");
        let a = services_for(&world, 1, m1).migration_key().unwrap();
        let b = services_for(&world, 1, m2).migration_key().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn migration_key_differs_across_worlds() {
        let m = Measurement::of_program("lcm", "1");
        let a = services_for(&TeeWorld::new_deterministic(1), 1, m)
            .migration_key()
            .unwrap();
        let b = services_for(&TeeWorld::new_deterministic(2), 1, m)
            .migration_key()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn provision_key_matches_admin_side() {
        let world = TeeWorld::new_deterministic(3);
        let m = Measurement::of_program("lcm", "1");
        let enclave_side = services_for(&world, 1, m).provision_key().unwrap();
        assert_eq!(enclave_side, world.admin_provision_key(&m));
    }

    #[test]
    fn non_world_platform_has_no_channel_keys() {
        let platform = TeePlatform::new_deterministic(5);
        let services = TeeServices {
            platform: platform.inner.clone(),
            measurement: Measurement::of_program("lcm", "1"),
            rng_seed: 0,
        };
        assert!(services.migration_key().is_none());
        assert!(services.provision_key().is_none());
    }

    #[test]
    fn world_platforms_are_attestable() {
        let world = TeeWorld::new_deterministic(4);
        let platform = world.platform(1);
        // Enrollment happened: the group secret is installed.
        assert!(crate::lock(&platform.inner.group_secret).is_some());
    }
}
