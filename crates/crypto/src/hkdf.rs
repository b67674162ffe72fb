//! HKDF with SHA-256 (RFC 5869).
//!
//! The TEE simulator derives sealing keys (`get-key`) from a platform
//! root secret plus the enclave measurement via HKDF; the AEAD derives
//! separate encryption and MAC subkeys from one [`SecretKey`]. Validated
//! against the RFC 5869 test vectors.

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::keys::SecretKey;
use crate::sha256::DIGEST_LEN;
use crate::{CryptoError, Result};

/// HKDF-Extract: compresses input keying material into a pseudorandom
/// key using `salt` (which may be empty).
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm).0
}

/// HKDF-Expand: stretches a pseudorandom key `prk` into `out.len()`
/// bytes of output keying material bound to `info`.
///
/// # Errors
///
/// Returns [`CryptoError::OutputLengthInvalid`] when more than
/// `255 * 32` bytes are requested (RFC 5869 limit).
pub fn expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) -> Result<()> {
    if out.len() > 255 * DIGEST_LEN {
        return Err(CryptoError::OutputLengthInvalid);
    }
    let mut previous: Vec<u8> = Vec::new();
    let mut offset = 0usize;
    let mut counter = 1u8;
    while offset < out.len() {
        let mut mac = HmacSha256::new(prk);
        mac.update(&previous);
        mac.update(info);
        mac.update(&[counter]);
        let block = mac.finalize();
        let take = (out.len() - offset).min(DIGEST_LEN);
        out[offset..offset + take].copy_from_slice(&block.as_bytes()[..take]);
        previous = block.as_bytes().to_vec();
        offset += take;
        counter = counter.wrapping_add(1);
    }
    Ok(())
}

/// One-shot HKDF (extract + expand) producing a [`SecretKey`].
///
/// This is the key-ladder primitive used throughout the TEE simulator:
/// `derive_key(root, salt, "seal-key:" ++ measurement)` yields a key that
/// is deterministic in its inputs and computationally independent of any
/// key derived with a different `info`.
pub fn derive_key(ikm: &SecretKey, salt: &[u8], info: &[u8]) -> SecretKey {
    let prk = extract(salt, ikm.as_bytes());
    let mut out = [0u8; 32];
    // 32 bytes is always within the RFC expansion limit.
    expand(&prk, info, &mut out).expect("32-byte expansion cannot exceed HKDF limit");
    SecretKey::from_bytes(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::portable;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One RFC 5869 case, through the dispatching hasher and through
    /// the portable kernel (extract-then-expand as the RFC's §2 writes
    /// it, over [`portable::hmac`]).
    fn check_case(ikm: &[u8], salt: &[u8], info: &[u8], prk_hex: Option<&str>, okm_hex: &str) {
        let expected = hex(okm_hex);
        let prk = extract(salt, ikm);
        if let Some(prk_hex) = prk_hex {
            assert_eq!(prk.to_vec(), hex(prk_hex));
        }
        let mut okm = vec![0u8; expected.len()];
        expand(&prk, info, &mut okm).unwrap();
        assert_eq!(okm, expected);

        let portable_prk = portable::hmac(salt, ikm).0;
        assert_eq!(portable_prk, prk, "portable");
        let (mut t, mut portable_okm) = (Vec::new(), Vec::new());
        for counter in 1..=expected.len().div_ceil(DIGEST_LEN) as u8 {
            t = portable::hmac(&portable_prk, &[&t[..], info, &[counter]].concat())
                .0
                .to_vec();
            portable_okm.extend_from_slice(&t);
        }
        assert_eq!(portable_okm[..expected.len()], expected, "portable");
    }

    // RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case_1() {
        check_case(
            &[0x0b; 22],
            &hex("000102030405060708090a0b0c"),
            &hex("f0f1f2f3f4f5f6f7f8f9"),
            Some("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865",
        );
    }

    // RFC 5869 Test Case 2 (longer inputs/outputs).
    #[test]
    fn rfc5869_case_2() {
        let ikm: Vec<u8> = (0x00..=0x4fu8).collect();
        let salt: Vec<u8> = (0x60..=0xafu8).collect();
        let info: Vec<u8> = (0xb0..=0xffu8).collect();
        check_case(
            &ikm,
            &salt,
            &info,
            None,
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
cc30c58179ec3e87c14c01d5c1f3434f1d87",
        );
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case_3() {
        check_case(
            &[0x0b; 22],
            &[],
            &[],
            None,
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8",
        );
    }

    #[test]
    fn expand_rejects_oversized_output() {
        let prk = [0u8; 32];
        let mut okm = vec![0u8; 255 * 32 + 1];
        assert_eq!(
            expand(&prk, b"", &mut okm),
            Err(CryptoError::OutputLengthInvalid)
        );
    }

    #[test]
    fn derive_key_is_deterministic_and_domain_separated() {
        let root = SecretKey::from_bytes([5u8; 32]);
        let a1 = derive_key(&root, b"salt", b"purpose-a");
        let a2 = derive_key(&root, b"salt", b"purpose-a");
        let b = derive_key(&root, b"salt", b"purpose-b");
        let c = derive_key(&root, b"other-salt", b"purpose-a");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, c);
    }
}
