//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used in two places: as the tag algorithm of the encrypt-then-MAC AEAD
//! in [`crate::aead`], and as the PRF underlying [`crate::hkdf`] key
//! derivation (sealing keys, per-purpose subkeys). Validated against the
//! RFC 4231 test vectors.
//!
//! # Example
//!
//! ```
//! use lcm_crypto::hmac;
//!
//! let tag = hmac::hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
//! assert_eq!(
//!     tag.to_hex(),
//!     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
//! );
//! ```

use crate::sha256::{Digest, Sha256, BLOCK_LEN, DIGEST_LEN};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Incremental HMAC-SHA-256 computation.
///
/// For one-shot use see [`hmac_sha256`].
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    ///
    /// Keys longer than the SHA-256 block size are hashed first, per the
    /// RFC; keys of any length are accepted.
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::digest(key);
            block_key[..DIGEST_LEN].copy_from_slice(digest.as_bytes());
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = block_key[i] ^ IPAD;
            opad[i] = block_key[i] ^ OPAD;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    pub fn finalize(mut self) -> Digest {
        let inner_digest = self.inner.finalize();
        self.outer.update(inner_digest.as_bytes());
        self.outer.finalize()
    }

    /// Completes the MAC and verifies it against `expected` in constant
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::AuthenticationFailed`] when the tag
    /// does not match.
    pub fn verify(self, expected: &[u8]) -> crate::Result<()> {
        let tag = self.finalize();
        if crate::ct::ct_eq(tag.as_bytes(), expected) {
            Ok(())
        } else {
            Err(crate::CryptoError::AuthenticationFailed)
        }
    }
}

/// One-shot HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::portable;

    /// One RFC 4231 case, through the dispatching hasher and through
    /// the portable kernel.
    fn check_case(key: &[u8], data: &[u8], expected: &str) {
        assert_eq!(hmac_sha256(key, data).to_hex(), expected);
        assert_eq!(portable::hmac(key, data).to_hex(), expected, "portable");
    }

    #[test]
    fn rfc4231_case_1() {
        check_case(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        check_case(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        check_case(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25u8).collect();
        check_case(
            &key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        check_case(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        check_case(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"The quick brown fox ");
        mac.update(b"jumps over the lazy dog");
        assert_eq!(
            mac.finalize(),
            hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog")
        );
    }

    #[test]
    fn verify_accepts_good_tag() {
        let tag = hmac_sha256(b"k", b"m");
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        assert!(mac.verify(tag.as_bytes()).is_ok());
    }

    #[test]
    fn verify_rejects_bad_tag() {
        let mut tag = hmac_sha256(b"k", b"m").0;
        tag[0] ^= 1;
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        assert_eq!(
            mac.verify(&tag),
            Err(crate::CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn verify_rejects_truncated_tag() {
        let tag = hmac_sha256(b"k", b"m");
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        assert!(mac.verify(&tag.as_bytes()[..16]).is_err());
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
