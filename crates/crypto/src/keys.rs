//! Symmetric key material and generation.
//!
//! The LCM protocol uses three symmetric keys (paper §4.1): the
//! communication key `kC`, the protocol-state key `kP`, and the TEE
//! sealing key `kS`. All three are 32-byte secrets represented by
//! [`SecretKey`]; the type system distinguishes their *uses* at the
//! protocol layer (`lcm-core`) rather than here.

use std::fmt;

use rand::RngCore;

/// Length of every symmetric key in this workspace, in bytes.
pub const KEY_LEN: usize = 32;

/// A 32-byte symmetric secret key.
///
/// `Debug`/`Display` never reveal the key bytes. Keys are comparable so
/// that tests and the TEE simulator can assert key equality; comparison
/// is constant time.
#[derive(Clone)]
pub struct SecretKey([u8; KEY_LEN]);

impl SecretKey {
    /// Wraps raw bytes as a key.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SecretKey(bytes)
    }

    /// Generates a fresh random key from the OS RNG.
    pub fn generate() -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rand::thread_rng().fill_bytes(&mut bytes);
        SecretKey(bytes)
    }

    /// Generates a key from a caller-provided RNG (deterministic tests,
    /// simulated TEE key ladders).
    pub fn generate_with<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        SecretKey(bytes)
    }

    /// Returns the raw key bytes.
    ///
    /// Exposed because the TEE simulator must seal/unseal keys; handle
    /// with care.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }
}

impl PartialEq for SecretKey {
    fn eq(&self, other: &Self) -> bool {
        crate::ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for SecretKey {}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

impl From<[u8; KEY_LEN]> for SecretKey {
    fn from(bytes: [u8; KEY_LEN]) -> Self {
        SecretKey(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn debug_redacts_key_material() {
        let key = SecretKey::from_bytes([0x42; KEY_LEN]);
        let rendered = format!("{key:?}");
        assert!(!rendered.contains("42"));
        assert!(rendered.contains("redacted"));
    }

    #[test]
    fn generate_with_is_deterministic() {
        let mut rng1 = StdRng::seed_from_u64(11);
        let mut rng2 = StdRng::seed_from_u64(11);
        assert_eq!(
            SecretKey::generate_with(&mut rng1),
            SecretKey::generate_with(&mut rng2)
        );
    }

    #[test]
    fn generate_produces_distinct_keys() {
        assert_ne!(SecretKey::generate(), SecretKey::generate());
    }

    #[test]
    fn equality_is_by_content() {
        let a = SecretKey::from_bytes([1; KEY_LEN]);
        let b = SecretKey::from_bytes([1; KEY_LEN]);
        let c = SecretKey::from_bytes([2; KEY_LEN]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bytes_roundtrip() {
        let key = SecretKey::generate();
        assert_eq!(SecretKey::from_bytes(*key.as_bytes()), key);
    }
}
