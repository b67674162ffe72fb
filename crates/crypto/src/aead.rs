//! Authenticated encryption with associated data.
//!
//! This module provides the `auth-encrypt` / `auth-decrypt` pair that the
//! LCM paper assumes (§4.1): "authenticated encryption produces a
//! ciphertext integrated with a message-authentication code; it protects
//! the content from leaking information to S and prevents that S tampers
//! with messages or stored data by altering ciphertext."
//!
//! The paper's implementation uses AES-GCM-128 from the SGX SDK. This
//! reproduction implements all cryptography from scratch and runs two
//! AEADs behind one wire layout and one in-place contract, one cipher
//! per key:
//!
//! | key | sealed under it | cipher |
//! |-----|-----------------|--------|
//! | `kC` | every INVOKE, READ leg and REPLY | AES-128-GCM, [`crate::gcm`] |
//! | `kP` | checkpoints and deltas | ChaCha20-Poly1305, this module |
//! | `kS` | the key blob | ChaCha20-Poly1305 |
//! | migration key | migration and slice tickets, bulletins | ChaCha20-Poly1305 |
//! | `kA`, provisioning | admin messages, the provisioning payload | ChaCha20-Poly1305 |
//!
//! The channel pays four AEADs per operation on short messages, where
//! AES-NI's one-instruction rounds beat ChaCha20's twenty; what rests
//! on the medium stays here, because `tests/recovery_compat.rs` pins
//! the bytes of media written before the channel moved. ([`SealKey`]
//! is the one trait the two key types share.)
//!
//! This module is **ChaCha20-Poly1305 exactly as RFC 8439 §2.8 defines
//! it**, so the implementation is checked byte for byte against the
//! RFC's published vector (`tests/kat.rs`):
//!
//! * the body is XORed with the [`chacha20`] keystream from block
//!   counter 1;
//! * the first 32 bytes of block 0 of the same `(key, nonce)` stream
//!   are the one-time [`poly1305`] key;
//! * the tag is Poly1305 over
//!   `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ len(aad) (8, LE) ‖ len(ciphertext) (8, LE)`.
//!
//! The contract visible to the protocol — IND-CCA confidentiality plus
//! ciphertext integrity with associated data, under a 128-bit
//! polynomial tag — is the one AES-GCM-128 gives the paper: GCM's GHASH
//! and Poly1305 are both one-time polynomial MACs keyed per nonce from
//! the cipher itself.
//!
//! **Nonce reuse.** When a `(key, nonce)` pair repeats, the two bodies
//! share a keystream (their XOR leaks), and the two tags share that
//! nonce's one-time Poly1305 key, from which an attacker solves for it
//! and forges further messages *under that nonce*. GCM fails harder:
//! its GHASH key is the same under every nonce, so one repeat forges
//! under all of them (see [`crate::gcm`] for the argument and for the
//! two constructions that keep `kC`'s nonces unique). Nonces must
//! therefore be unique per key by construction wherever a key is
//! shared or long-lived: `T` seals under its per-lifetime `Nonces`
//! sequence; [`auth_encrypt`] draws 96 random bits and is for callers
//! that seal rarely (provisioning, admin, tests).
//!
//! Wire layout of a sealed blob: `nonce(12) ‖ ciphertext ‖ tag(16)`.
//!
//! # In place
//!
//! The construction exists once, as [`seal_in_place`] and
//! [`open_in_place`]; [`auth_encrypt`] and [`auth_encrypt_with_nonce`]
//! copy their input into a fresh `Vec` and seal it there, and
//! [`auth_decrypt`] runs the same verify over its borrowed input before
//! it copies the ciphertext out to decrypt.
//! Anything that runs per operation builds its message where it will
//! be sent from and seals it there: the caller writes
//! `framing ‖ nonce ‖ plaintext` into one buffer, and sealing XORs the
//! plaintext and appends the tag without touching what stands before
//! it. Opening **verifies, then decrypts**: the tag is recomputed over
//! the ciphertext as received and compared in constant time, and only
//! a blob that passes has a single byte XORed — a rejected buffer is
//! handed back exactly as it came, so nothing unauthenticated is ever
//! decrypted into memory the caller goes on to read.
//!
//! Which ChaCha20 kernel produces the keystream is the CPU's answer to
//! [`chacha20::backend`]; the bytes are the same on either.

use rand::RngCore;

use crate::chacha20::{self, AeadStream, NONCE_LEN};
use crate::hkdf;
use crate::keys::SecretKey;
use crate::poly1305::{self, Poly1305};
use crate::{CryptoError, Result};

/// Length of the authentication tag, in bytes.
pub const TAG_LEN: usize = poly1305::TAG_LEN;

/// Minimum length of any valid sealed blob (`nonce ‖ tag` with empty
/// ciphertext).
pub const MIN_SEALED_LEN: usize = NONCE_LEN + TAG_LEN;

/// An AEAD key: the ChaCha20-Poly1305 key derived from one master
/// secret.
///
/// # Example
///
/// ```
/// use lcm_crypto::aead::AeadKey;
/// use lcm_crypto::keys::SecretKey;
///
/// let master = SecretKey::generate();
/// let key = AeadKey::from_secret(&master);
/// # let _ = key;
/// ```
#[derive(Clone, Eq)]
pub struct AeadKey([u8; chacha20::KEY_LEN]);

/// Key material compares in time independent of where two keys first
/// differ.
impl PartialEq for AeadKey {
    fn eq(&self, other: &Self) -> bool {
        crate::ct::ct_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AeadKey(<redacted>)")
    }
}

impl AeadKey {
    /// Derives the AEAD key from `master` (HKDF, so the master secret
    /// itself never keys the cipher).
    pub fn from_secret(master: &SecretKey) -> Self {
        AeadKey(*hkdf::derive_key(master, b"lcm-aead", b"enc-subkey").as_bytes())
    }

    /// Uses `key` directly as the ChaCha20-Poly1305 key, as the RFC 8439
    /// test vectors require.
    pub fn from_raw(key: [u8; chacha20::KEY_LEN]) -> Self {
        AeadKey(key)
    }
}

/// A key that seals in place under this module's wire layout and
/// contract: [`AeadKey`] (ChaCha20-Poly1305) and
/// [`crate::gcm::GcmKey`] (AES-128-GCM). Code that seals under whichever
/// key it is handed — the trusted context's one sealing routine — takes
/// one of these; each key has exactly one cipher.
pub trait SealKey {
    /// This key's `seal_in_place`: [`seal_in_place`] for an
    /// [`AeadKey`], [`crate::gcm::seal_in_place`] for a
    /// [`crate::gcm::GcmKey`].
    ///
    /// # Errors
    ///
    /// As the cipher's `seal_in_place`.
    fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
        body: usize,
    ) -> Result<()>;
}

impl SealKey for AeadKey {
    fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
        body: usize,
    ) -> Result<()> {
        seal_in_place(self, nonce, aad, buf, body)
    }
}

/// Seals `buf[body..]` where it lies: XORs it with the keystream of
/// `(key, nonce)` and appends the tag, which binds `aad`. Nothing
/// before `body` is read or written — that is the caller's framing,
/// which for the sealed layout of this module ends with the 12 bytes
/// of `nonce` itself (`… ‖ nonce ‖ plaintext` becomes
/// `… ‖ nonce ‖ ciphertext ‖ tag`, and `buf[body - 12..]` is then what
/// [`open_in_place`] takes).
///
/// # Errors
///
/// Returns [`CryptoError::NonceExhausted`] only for bodies so large
/// they would overflow the ChaCha20 block counter (≈ 256 GiB); `buf`
/// is unchanged then. The caller must never pass the same nonce twice
/// under one key: a repeat leaks the XOR of the two plaintexts and
/// lets an attacker forge tags.
///
/// # Panics
///
/// If `body > buf.len()`.
pub fn seal_in_place(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut Vec<u8>,
    body: usize,
) -> Result<()> {
    let stream = AeadStream::new(&key.0, nonce);
    stream.xor_body(&mut buf[body..])?;
    let tag = compute_tag(stream.poly1305_key(), aad, &buf[body..]);
    buf.extend_from_slice(&tag);
    Ok(())
}

/// Verifies `sealed` (`nonce ‖ ciphertext ‖ tag`) against `aad`, then
/// decrypts the ciphertext where it lies and returns it as the
/// plaintext slice. The tag is checked, in constant time, **before** a
/// single byte is decrypted.
///
/// # Errors
///
/// Returns [`CryptoError::AuthenticationFailed`] when the blob is
/// malformed, the tag does not verify, or `aad` differs from the value
/// used at encryption time — and leaves `sealed` byte for byte as it
/// was handed in.
pub fn open_in_place<'a>(key: &AeadKey, aad: &[u8], sealed: &'a mut [u8]) -> Result<&'a mut [u8]> {
    if sealed.len() < MIN_SEALED_LEN {
        return Err(CryptoError::AuthenticationFailed);
    }
    let (nonce, rest) = sealed.split_at_mut(NONCE_LEN);
    let (ciphertext, tag) = rest.split_at_mut(rest.len() - TAG_LEN);
    verified_stream(key, aad, nonce, ciphertext, tag)?.xor_body(ciphertext)?;
    Ok(ciphertext)
}

/// The verify of verify-then-decrypt: the keystream of `(key, nonce)`,
/// handed out only once `tag` has been recomputed over `ciphertext` as
/// received and compared in constant time.
fn verified_stream(
    key: &AeadKey,
    aad: &[u8],
    nonce: &[u8],
    ciphertext: &[u8],
    tag: &[u8],
) -> Result<AeadStream> {
    let nonce: &[u8; NONCE_LEN] = nonce.try_into().expect("split at the nonce length");
    let stream = AeadStream::new(&key.0, nonce);
    let expected = compute_tag(stream.poly1305_key(), aad, ciphertext);
    if !crate::ct::ct_eq(&expected, tag) {
        return Err(CryptoError::AuthenticationFailed);
    }
    Ok(stream)
}

/// Encrypts and authenticates `plaintext`, binding `aad` into the tag.
///
/// Returns `nonce ‖ ciphertext ‖ tag`. A random 96-bit nonce is drawn
/// from `thread_rng` per call, which suits **rare sealers only**
/// (provisioning, admin messages, tests): 96 random bits collide after
/// about 2^48 messages under one key, and the draw costs more than
/// sealing a short message. Anything that seals per operation
/// constructs its nonces (see the module docs) and seals with
/// [`seal_in_place`].
///
/// # Errors
///
/// Returns [`CryptoError::NonceExhausted`] only for plaintexts so large
/// they would overflow the ChaCha20 block counter (≈ 256 GiB).
pub fn auth_encrypt(key: &AeadKey, plaintext: &[u8], aad: &[u8]) -> Result<Vec<u8>> {
    let mut nonce = [0u8; NONCE_LEN];
    rand::thread_rng().fill_bytes(&mut nonce);
    auth_encrypt_with_nonce(key, &nonce, plaintext, aad)
}

/// [`auth_encrypt`] under a caller-chosen nonce: [`seal_in_place`] on
/// a fresh `nonce ‖ plaintext`.
///
/// # Errors
///
/// Same as [`seal_in_place`].
pub fn auth_encrypt_with_nonce(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    plaintext: &[u8],
    aad: &[u8],
) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + TAG_LEN);
    out.extend_from_slice(nonce);
    out.extend_from_slice(plaintext);
    seal_in_place(key, nonce, aad, &mut out, NONCE_LEN)?;
    Ok(out)
}

/// Verifies and decrypts a blob produced by [`auth_encrypt`] into a
/// fresh `Vec`: the tag is checked over `sealed` where it lies, and
/// only a blob that passes has its ciphertext — nothing else — copied
/// out and decrypted, so a multi-megabyte sealed state is touched once
/// by the MAC and once by the copy-and-XOR.
///
/// # Errors
///
/// Same as [`open_in_place`].
pub fn auth_decrypt(key: &AeadKey, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>> {
    if sealed.len() < MIN_SEALED_LEN {
        return Err(CryptoError::AuthenticationFailed);
    }
    let (nonce, rest) = sealed.split_at(NONCE_LEN);
    let (ciphertext, tag) = rest.split_at(rest.len() - TAG_LEN);
    let stream = verified_stream(key, aad, nonce, ciphertext, tag)?;
    let mut plain = ciphertext.to_vec();
    stream.xor_body(&mut plain)?;
    Ok(plain)
}

/// The RFC 8439 §2.8 tag over
/// `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ len(aad) ‖ len(ciphertext)`:
/// both lengths close the MAC input, so no `(aad, ciphertext)` split
/// can collide with another. Every whole block goes to the MAC
/// straight from the caller's slices; the ciphertext's padded tail and
/// the lengths block are built here and absorbed as one run.
fn compute_tag(mac_key: &[u8; poly1305::KEY_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(mac_key);
    mac.update_padded(aad);
    let (whole, tail) = ciphertext.split_at(ciphertext.len() - ciphertext.len() % 16);
    mac.blocks(whole);
    let mut end = [0u8; 32];
    end[..tail.len()].copy_from_slice(tail);
    end[16..24].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    end[24..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.blocks(if tail.is_empty() { &end[16..] } else { &end });
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AeadKey {
        AeadKey::from_secret(&SecretKey::from_bytes([0x11; 32]))
    }

    #[test]
    fn roundtrip() {
        let sealed = auth_encrypt(&key(), b"hello world", b"aad").unwrap();
        let opened = auth_decrypt(&key(), &sealed, b"aad").unwrap();
        assert_eq!(opened, b"hello world");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let sealed = auth_encrypt(&key(), b"", b"aad").unwrap();
        assert_eq!(sealed.len(), MIN_SEALED_LEN);
        assert_eq!(auth_decrypt(&key(), &sealed, b"aad").unwrap(), b"");
    }

    #[test]
    fn tamper_ciphertext_detected() {
        let mut sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        sealed[NONCE_LEN] ^= 0x01;
        assert_eq!(
            auth_decrypt(&key(), &sealed, b""),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tamper_tag_detected() {
        let mut sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert!(auth_decrypt(&key(), &sealed, b"").is_err());
    }

    #[test]
    fn tamper_nonce_detected() {
        let mut sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        sealed[0] ^= 0xff;
        assert!(auth_decrypt(&key(), &sealed, b"").is_err());
    }

    #[test]
    fn wrong_aad_detected() {
        let sealed = auth_encrypt(&key(), b"payload", b"context-a").unwrap();
        assert!(auth_decrypt(&key(), &sealed, b"context-b").is_err());
    }

    #[test]
    fn wrong_key_detected() {
        let sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        let other = AeadKey::from_secret(&SecretKey::from_bytes([0x22; 32]));
        assert!(auth_decrypt(&other, &sealed, b"").is_err());
    }

    #[test]
    fn truncated_blob_rejected() {
        let sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        for cut in [0, 1, NONCE_LEN, MIN_SEALED_LEN - 1] {
            assert!(
                auth_decrypt(&key(), &sealed[..cut], b"").is_err(),
                "cut {cut}"
            );
        }
    }

    /// Every way a sealed buffer can be wrong is refused before a
    /// byte of it is decrypted: the buffer comes back as handed in.
    #[test]
    fn rejected_buffers_are_left_untouched() {
        let nonce = [3u8; NONCE_LEN];
        let sealed = auth_encrypt_with_nonce(&key(), &nonce, &[0x5a; 200], b"aad").unwrap();
        let flipped = |at: usize, bit: u8| {
            let mut s = sealed.clone();
            s[at] ^= bit;
            s
        };
        let mut cases = vec![
            ("ciphertext bit", flipped(NONCE_LEN + 77, 0x10), &b"aad"[..]),
            (
                "last ciphertext bit",
                flipped(sealed.len() - TAG_LEN - 1, 0x01),
                b"aad",
            ),
            ("tag bit", flipped(sealed.len() - 1, 0x80), b"aad"),
            ("nonce bit", flipped(0, 0x01), b"aad"),
            ("wrong aad", sealed.clone(), b"aae"),
            (
                "truncated body",
                sealed[..sealed.len() - 1].to_vec(),
                b"aad",
            ),
        ];
        for cut in 0..MIN_SEALED_LEN {
            cases.push(("below the minimum length", sealed[..cut].to_vec(), b"aad"));
        }
        for (what, handed_in, aad) in cases {
            let mut buf = handed_in.clone();
            assert_eq!(
                open_in_place(&key(), aad, &mut buf).map(|plain| plain.len()),
                Err(CryptoError::AuthenticationFailed),
                "{what} ({} B)",
                buf.len()
            );
            assert_eq!(buf, handed_in, "{what} ({} B)", buf.len());
            assert_eq!(
                auth_decrypt(&key(), &handed_in, aad),
                Err(CryptoError::AuthenticationFailed)
            );
        }
        let mut buf = sealed.clone();
        assert_eq!(
            open_in_place(&key(), b"aad", &mut buf).unwrap(),
            [0x5a; 200]
        );
    }

    #[test]
    fn seal_in_place_leaves_the_framing_alone() {
        let nonce = [4u8; NONCE_LEN];
        for len in [0usize, 1, 82, 192, 193, 1000] {
            let plaintext = vec![0xc3u8; len];
            let mut buf = b"framing".to_vec();
            buf.extend_from_slice(&nonce);
            buf.extend_from_slice(&plaintext);
            seal_in_place(&key(), &nonce, b"ctx", &mut buf, 7 + NONCE_LEN).unwrap();
            assert_eq!(&buf[..7], b"framing");
            let wrapped = auth_encrypt_with_nonce(&key(), &nonce, &plaintext, b"ctx").unwrap();
            assert_eq!(&buf[7..], &wrapped[..], "len {len}");
        }
    }

    #[test]
    fn keys_compare_by_value() {
        assert_eq!(key(), key());
        assert_ne!(
            key(),
            AeadKey::from_secret(&SecretKey::from_bytes([0x22; 32]))
        );
    }

    #[test]
    fn nonces_are_fresh() {
        let a = auth_encrypt(&key(), b"same", b"").unwrap();
        let b = auth_encrypt(&key(), b"same", b"").unwrap();
        assert_ne!(a, b, "two encryptions of the same message must differ");
    }

    #[test]
    fn deterministic_nonce_variant_is_reproducible() {
        let nonce = [7u8; NONCE_LEN];
        let a = auth_encrypt_with_nonce(&key(), &nonce, b"x", b"y").unwrap();
        let b = auth_encrypt_with_nonce(&key(), &nonce, b"x", b"y").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aad_ciphertext_framing_is_unambiguous() {
        // (aad="ab", pt="c...") and (aad="a", pt="bc...") must not produce
        // interchangeable tags even with an attacker-chosen split.
        let nonce = [9u8; NONCE_LEN];
        let sealed = auth_encrypt_with_nonce(&key(), &nonce, b"xyz", b"ab").unwrap();
        assert!(auth_decrypt(&key(), &sealed, b"a").is_err());
    }

    #[test]
    fn large_payload_roundtrip() {
        let payload = vec![0xa5u8; 1 << 16];
        let sealed = auth_encrypt(&key(), &payload, b"big").unwrap();
        assert_eq!(auth_decrypt(&key(), &sealed, b"big").unwrap(), payload);
    }
}
