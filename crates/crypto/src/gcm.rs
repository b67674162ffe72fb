//! AES-128-GCM (NIST SP 800-38D): the cipher of the communication key
//! `kC` and of the state key `kP`.
//!
//! The paper seals with AES-GCM-128 from the SGX SDK. Here it seals
//! everything under `kC`, the key every client of the group shares
//! with `T` — each INVOKE and READ leg a client sends, and each REPLY
//! `T` answers with, four short AEADs per operation — and everything
//! under `kP`: every checkpoint and delta, and so every replication
//! record ([`crate::aead::AtRestKey`], which still opens `kP` blobs
//! sealed with ChaCha20-Poly1305 before the move). The control-plane
//! keys (`kS`, `kA`, provisioning, migration tickets) stay on
//! [`crate::aead`]'s ChaCha20-Poly1305; see that module for the split.
//!
//! The wire layout and the in-place contract are [`crate::aead`]'s,
//! byte for byte in size: `nonce(12) ‖ ciphertext ‖ tag(16)`,
//! [`seal_in_place`] leaves the caller's framing alone, and
//! [`open_in_place`] **verifies, then decrypts** — a rejected buffer is
//! handed back exactly as it came.
//!
//! # The construction
//!
//! [`GcmKey::from_secret`] derives the 128-bit AES key from the master
//! secret by HKDF under a label of its own (so it is independent of the
//! ChaCha20-Poly1305 key of the same secret) and, once, expands its
//! round keys and the GHASH key `H = E_K(0¹²⁸)` with its powers
//! `H¹ … H⁸`. A seal then
//!
//! * encrypts the body in counter mode from block
//!   `J₀ + 1 = nonce ‖ 00000002` on;
//! * computes GHASH under `H` over
//!   `aad ‖ pad ‖ ciphertext ‖ pad ‖ len(aad) ‖ len(ciphertext)`
//!   (lengths in bits, 64-bit big-endian) and XORs it with
//!   `E_K(nonce ‖ 00000001)` for the 16-byte tag.
//!
//! # Nonce reuse
//!
//! GCM fails harder than ChaCha20-Poly1305 when a `(key, nonce)` pair
//! repeats. In both the two bodies share a keystream. But Poly1305's
//! key is drawn from the keystream *per nonce*, so a repeat exposes
//! only that nonce's one-time MAC key: forgeries under the repeated
//! nonce. GHASH's key `H` is the same under **every** nonce of the key:
//! two tags under one nonce give a polynomial in `H` whose roots an
//! attacker can find (Joux, *Authentication failures in NIST version of
//! GCM*, 2006), and with `H` — and the XOR mask of any tag already
//! seen — they forge messages under every nonce ever used with the
//! key. One repeat under `kC` therefore costs the integrity of the
//! whole channel until `kC` rotates; one repeat under `kP` costs the
//! integrity of every checkpoint and delta the group ever sealed, since
//! `kP` never rotates — and with it the chain of positions, since a
//! delta moves the trusted context's chain position by its nonce and
//! tag (`lcm_trusted::context`, "Chain position"): that one
//! `(nonce, tag)` names one sealed record rests on `kP` nonces never
//! repeating.
//!
//! So no `kC` nonce is drawn at random per message; two constructions
//! keep them unique, and they cannot collide with each other:
//!
//! * a client seals under `client id (4) ‖ send counter (8)`: the
//!   counter starts from a random 64-bit value when the client is made
//!   and steps once per sealed wire, retries included, and the id
//!   separates the clients that share `kC`;
//! * `T` seals its replies under the next value of its `Nonces`: the
//!   enclave lifetime's 96-bit RNG draw XOR a per-lifetime counter, so
//!   nonces within one lifetime are distinct by the counter and across
//!   lifetimes by the draw.
//!
//! (The two spaces meet only if `T`'s draw happens to produce a client's
//! `id ‖ counter`, a 2⁻⁹⁶ event per pair.)
//!
//! `kP` is harder: every member of a replica group holds it, and it
//! outlives every enclave lifetime of every member, so no one sealer
//! sees all its nonces. Each sealer is `T` under its own `Nonces`, and
//! uniqueness rests on each lifetime drawing its own random 96-bit
//! start: two lifetimes collide only if their counter ranges overlap
//! from those starts, about `n² · m / 2⁹⁶` for `n` lifetimes of `m`
//! seals each. `tests/replication_stream.rs` collects the nonce of every
//! checkpoint and delta a 3-member group puts on its media through
//! kill, promote and reboot and checks that none repeats.
//! [`auth_encrypt`] draws 96 random bits and is for callers that seal
//! rarely.
//!
//! # Which kernel runs
//!
//! Both produce the same bytes, and which one runs is the CPU's answer,
//! decided per call; nothing can set it and [`backend`] only reports
//! it:
//!
//! * on x86-64 with AES-NI, PCLMULQDQ and SSSE3, the private `aesni`
//!   submodule: the key schedule on `aeskeygenassist`, counter mode up
//!   to twelve blocks per pass (one pass for a channel message, `J₀`
//!   included), and GHASH with one reduction per eight blocks over the
//!   precomputed powers of `H`;
//! * everywhere else the private `portable` submodule: bitsliced AES
//!   and bitwise GHASH, with no table indexed by secret data. It is
//!   also the oracle the hardware kernel is tested against.

use rand::RngCore;

use crate::aead::SealKey;
use crate::hkdf;
use crate::keys::SecretKey;
use crate::{CryptoError, Result};

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aesni;
mod portable;

/// AES-128 key length in bytes.
pub const KEY_LEN: usize = 16;

/// GCM nonce length in bytes (the 96-bit IV of SP 800-38D §8.2).
pub const NONCE_LEN: usize = 12;

/// Length of the authentication tag, in bytes.
pub const TAG_LEN: usize = 16;

/// Minimum length of any valid sealed blob (`nonce ‖ tag` with empty
/// ciphertext).
pub const MIN_SEALED_LEN: usize = NONCE_LEN + TAG_LEN;

/// AES block length in bytes.
const BLOCK_LEN: usize = 16;

/// Powers of `H` a key keeps: one per block of an aggregated GHASH
/// step.
const H_POWERS: usize = 8;

/// The longest body one nonce may seal: the 32-bit block counter runs
/// from 2 to `2³² − 1` (SP 800-38D §5.2.1.1).
const MAX_BODY: u64 = ((1 << 32) - 2) * BLOCK_LEN as u64;

/// The eleven AES-128 round keys, as bytes.
type RoundKeys = [[u8; BLOCK_LEN]; 11];

/// An AES-128-GCM key: the round keys and the powers of the GHASH key
/// `H`, computed once when the key is made.
///
/// # Example
///
/// ```
/// use lcm_crypto::gcm::{self, GcmKey};
/// use lcm_crypto::keys::SecretKey;
///
/// # fn main() -> Result<(), lcm_crypto::CryptoError> {
/// let key = GcmKey::from_secret(&SecretKey::from_bytes([7u8; 32]));
/// let sealed = gcm::auth_encrypt_with_nonce(&key, &[1; 12], b"INVOKE", b"aad")?;
/// assert_eq!(gcm::auth_decrypt(&key, &sealed, b"aad")?, b"INVOKE");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct GcmKey {
    round_keys: RoundKeys,
    /// `h_powers[i]` is `H^(i+1)`, each block read big-endian.
    h_powers: [u128; H_POWERS],
}

impl std::fmt::Debug for GcmKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GcmKey(<redacted>)")
    }
}

impl GcmKey {
    /// Derives the AES-128 key from `master` (HKDF, under a label no
    /// other key of this crate uses) and expands it.
    pub fn from_secret(master: &SecretKey) -> Self {
        let derived = hkdf::derive_key(master, b"lcm-gcm", b"aes-128-gcm-subkey");
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&derived.as_bytes()[..KEY_LEN]);
        Self::from_raw(key)
    }

    /// Uses `key` directly as the AES-128 key, as the published test
    /// vectors require.
    pub fn from_raw(key: [u8; KEY_LEN]) -> Self {
        Kernel::detect().expand(&key)
    }
}

impl SealKey for GcmKey {
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

/// Counter block `nonce ‖ counter` (32-bit big-endian).
fn counter_block(nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    block[..NONCE_LEN].copy_from_slice(nonce);
    block[NONCE_LEN..].copy_from_slice(&counter.to_be_bytes());
    block
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    #[cfg(target_arch = "x86_64")]
    AesNi,
    Portable,
}

impl Kernel {
    /// The fastest kernel this CPU has.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if aesni::available() {
            return Kernel::AesNi;
        }
        Kernel::Portable
    }

    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::AesNi => "aesni",
            Kernel::Portable => "portable",
        }
    }

    /// The key `key` expands to: round keys and powers of `H`.
    fn expand(self, key: &[u8; KEY_LEN]) -> GcmKey {
        let (round_keys, h_powers) = match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::AesNi => aesni::expand(key),
            Kernel::Portable => portable::expand(key),
        };
        GcmKey {
            round_keys,
            h_powers,
        }
    }

    /// XORs `data` with the keystream of `nonce` from block `counter`
    /// on.
    #[cfg(test)]
    fn ctr(self, round_keys: &RoundKeys, nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::AesNi => aesni::ctr(round_keys, nonce, counter, data),
            Kernel::Portable => portable::ctr(round_keys, nonce, counter, data),
        }
    }

    fn seal(
        self,
        key: &GcmKey,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
        body: usize,
    ) -> Result<()> {
        let (rk, h) = (&key.round_keys, &key.h_powers);
        let body = &mut buf[body..];
        if body.len() as u64 > MAX_BODY {
            return Err(CryptoError::NonceExhausted);
        }
        let tag = match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::AesNi => aesni::seal(rk, h, nonce, aad, body),
            Kernel::Portable => portable::seal(rk, h[0], nonce, aad, body),
        };
        buf.extend_from_slice(&tag);
        Ok(())
    }

    /// Verify, then decrypt: the kernel recomputes the tag over the
    /// ciphertext as received, compares it in constant time, and
    /// decrypts only if it matches.
    fn open<'a>(self, key: &GcmKey, aad: &[u8], sealed: &'a mut [u8]) -> Result<&'a mut [u8]> {
        if sealed.len() < MIN_SEALED_LEN {
            return Err(CryptoError::AuthenticationFailed);
        }
        let (nonce, rest) = sealed.split_at_mut(NONCE_LEN);
        let (body, tag) = rest.split_at_mut(rest.len() - TAG_LEN);
        self.open_body(key, aad, nonce, body, tag)?;
        Ok(body)
    }

    /// [`Kernel::open`] over the three parts of a sealed blob wherever
    /// they lie: `body` is decrypted in place only if `tag` verifies.
    fn open_body(
        self,
        key: &GcmKey,
        aad: &[u8],
        nonce: &[u8],
        body: &mut [u8],
        tag: &[u8],
    ) -> Result<()> {
        let nonce: &[u8; NONCE_LEN] = nonce.try_into().expect("split at the nonce length");
        let (rk, h) = (&key.round_keys, &key.h_powers);
        let verified = body.len() as u64 <= MAX_BODY
            && match self {
                #[cfg(target_arch = "x86_64")]
                Kernel::AesNi => aesni::open(rk, h, nonce, aad, body, tag),
                Kernel::Portable => portable::open(rk, h[0], nonce, aad, body, tag),
            };
        if !verified {
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(())
    }
}

/// Which kernel this process's AES-128-GCM runs on: `"aesni"` (x86-64
/// AES-NI + PCLMULQDQ) or `"portable"`. A 166 B seal differs about
/// ninetyfold between the two, so benchmark output names it; nothing
/// can set it.
pub fn backend() -> &'static str {
    Kernel::detect().name()
}

/// Seals `buf[body..]` where it lies: encrypts it under `(key, nonce)`
/// and appends the tag, which binds `aad`. Nothing before `body` is
/// read or written — the caller's framing, which for the sealed layout
/// ends with the 12 bytes of `nonce` itself, exactly as
/// [`crate::aead::seal_in_place`].
///
/// # Errors
///
/// Returns [`CryptoError::NonceExhausted`] only for bodies longer than
/// one nonce's counter space (≈ 64 GiB); `buf` is unchanged then. The
/// caller must never pass the same nonce twice under one key: under
/// GCM a repeat exposes the authentication key of every nonce (module
/// docs).
///
/// # Panics
///
/// If `body > buf.len()`.
pub fn seal_in_place(
    key: &GcmKey,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut Vec<u8>,
    body: usize,
) -> Result<()> {
    Kernel::detect().seal(key, nonce, aad, buf, body)
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
pub fn open_in_place<'a>(key: &GcmKey, aad: &[u8], sealed: &'a mut [u8]) -> Result<&'a mut [u8]> {
    Kernel::detect().open(key, aad, sealed)
}

/// Encrypts and authenticates `plaintext` under a random 96-bit nonce,
/// for **rare sealers only** (module docs); returns
/// `nonce ‖ ciphertext ‖ tag`.
///
/// # Errors
///
/// Same as [`seal_in_place`].
pub fn auth_encrypt(key: &GcmKey, plaintext: &[u8], aad: &[u8]) -> Result<Vec<u8>> {
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
    key: &GcmKey,
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

/// Verifies and decrypts a sealed blob into a fresh `Vec`; the blob is
/// only read. Only the ciphertext is copied out, and it is decrypted
/// where it landed once its tag verifies, so a multi-megabyte
/// checkpoint is copied once and never shifted.
///
/// # Errors
///
/// Same as [`open_in_place`].
pub fn auth_decrypt(key: &GcmKey, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>> {
    if sealed.len() < MIN_SEALED_LEN {
        return Err(CryptoError::AuthenticationFailed);
    }
    let (nonce, rest) = sealed.split_at(NONCE_LEN);
    let (ciphertext, tag) = rest.split_at(rest.len() - TAG_LEN);
    let mut plain = ciphertext.to_vec();
    Kernel::detect().open_body(key, aad, nonce, &mut plain, tag)?;
    Ok(plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Both kernels where the CPU has both — the dispatcher alone
    /// would only ever test the one it selects here.
    fn kernels() -> Vec<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if aesni::available() {
            return vec![Kernel::Portable, Kernel::AesNi];
        }
        println!("skipped: no aes/pclmulqdq (portable kernel only)");
        vec![Kernel::Portable]
    }

    /// The hardware kernel, or `None` after saying so in the test's
    /// output, so a run on a CPU without it does not read as having
    /// covered it.
    fn hardware_or_skip() -> Option<Kernel> {
        let kernels = kernels();
        let hardware = *kernels.last().unwrap();
        (hardware != Kernel::Portable).then_some(hardware)
    }

    fn seal_on(
        kernel: Kernel,
        key: &GcmKey,
        nonce: &[u8; 12],
        plain: &[u8],
        aad: &[u8],
    ) -> Vec<u8> {
        let mut buf = nonce.to_vec();
        buf.extend_from_slice(plain);
        kernel.seal(key, nonce, aad, &mut buf, NONCE_LEN).unwrap();
        buf
    }

    /// One of McGrew and Viega's test cases (*The Galois/Counter Mode
    /// of Operation*, Appendix B).
    struct Case {
        key: Vec<u8>,
        iv: Vec<u8>,
        plain: Vec<u8>,
        aad: Vec<u8>,
        ciphertext: Vec<u8>,
        tag: Vec<u8>,
    }

    /// Test cases 1–4: the AES-128 ones with a 96-bit IV.
    fn mcgrew_viega() -> Vec<Case> {
        let k3 = hex("feffe9928665731c6d6a8f9467308308");
        let iv3 = hex("cafebabefacedbaddecaf888");
        let p3 = hex(concat!(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72",
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
        ));
        let c3 = hex(concat!(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e",
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        ));
        vec![
            Case {
                key: vec![0; 16],
                iv: vec![0; 12],
                plain: vec![],
                aad: vec![],
                ciphertext: vec![],
                tag: hex("58e2fccefa7e3061367f1d57a4e7455a"),
            },
            Case {
                key: vec![0; 16],
                iv: vec![0; 12],
                plain: vec![0; 16],
                aad: vec![],
                ciphertext: hex("0388dace60b6a392f328c2b971b2fe78"),
                tag: hex("ab6e47d42cec13bdf53a67b21257bddf"),
            },
            Case {
                key: k3.clone(),
                iv: iv3.clone(),
                plain: p3.clone(),
                aad: vec![],
                ciphertext: c3.clone(),
                tag: hex("4d5c2af327cd64a62cf35abd2ba6fab4"),
            },
            Case {
                key: k3,
                iv: iv3,
                plain: p3[..60].to_vec(),
                aad: hex("feedfacedeadbeeffeedfacedeadbeefabaddad2"),
                ciphertext: c3[..60].to_vec(),
                tag: hex("5bc94fbc3221a5db94fae95ae7121a47"),
            },
        ]
    }

    /// FIPS-197 Appendix C.1 through both kernels: counter mode over
    /// one zero block, from the counter block that *is* the C.1
    /// plaintext, leaves its encryption.
    #[test]
    fn aes_128_matches_fips_197_c1() {
        let key = GcmKey::from_raw(std::array::from_fn(|i| i as u8));
        let plain: [u8; 16] = std::array::from_fn(|i| (i as u8) * 0x11);
        let want = hex("69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(
            portable::encrypt_block(&key.round_keys, plain).to_vec(),
            want
        );
        let nonce: [u8; 12] = plain[..12].try_into().unwrap();
        let counter = u32::from_be_bytes(plain[12..].try_into().unwrap());
        for kernel in kernels() {
            let mut block = [0u8; 16];
            kernel.ctr(&key.round_keys, &nonce, counter, &mut block);
            assert_eq!(block.to_vec(), want, "{kernel:?}");
        }
    }

    /// Both kernels expand a key to the same round keys and powers of
    /// `H`, and the schedule is FIPS-197's (Appendix A.1: the example
    /// key's last round key).
    #[test]
    fn both_kernels_expand_keys_alike() {
        let fips: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let last = hex("d014f9a8c9ee2589e13f0cc8b6630ca6");
        for kernel in kernels() {
            assert_eq!(
                kernel.expand(&fips).round_keys[10].to_vec(),
                last,
                "{kernel:?}"
            );
        }
        for seed in 0..64u8 {
            let raw = std::array::from_fn(|i| seed.wrapping_mul(37) ^ (i as u8).wrapping_mul(11));
            let want = Kernel::Portable.expand(&raw);
            for kernel in kernels() {
                let got = kernel.expand(&raw);
                assert_eq!(got.round_keys, want.round_keys, "{kernel:?}, seed {seed}");
                assert_eq!(got.h_powers, want.h_powers, "{kernel:?}, seed {seed}");
            }
        }
    }

    #[test]
    fn both_kernels_reproduce_the_mcgrew_viega_vectors() {
        for (n, case) in mcgrew_viega().into_iter().enumerate() {
            let key = GcmKey::from_raw(case.key.try_into().unwrap());
            let nonce: [u8; 12] = case.iv.try_into().unwrap();
            for kernel in kernels() {
                let sealed = seal_on(kernel, &key, &nonce, &case.plain, &case.aad);
                let what = format!("test case {} on {kernel:?}", n + 1);
                let (body, tag) = sealed.split_at(sealed.len() - TAG_LEN);
                assert_eq!(body[..NONCE_LEN], nonce, "{what}");
                assert_eq!(body[NONCE_LEN..], case.ciphertext[..], "{what}");
                assert_eq!(tag, &case.tag[..], "{what}");
                let mut buf = sealed.clone();
                let opened = kernel.open(&key, &case.aad, &mut buf).unwrap();
                assert_eq!(opened, &case.plain[..], "{what}");
            }
        }
    }

    /// Position-dependent bytes, so a kernel that dropped, repeated or
    /// reordered a block would not get away with it.
    fn pattern(len: usize, salt: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_add(salt).wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect()
    }

    /// Every body length from empty to 64 blocks — every tail of the
    /// one-pass head, of the eight- and four-wide steps after it and of
    /// the aggregated GHASH — under every AAD length up to three
    /// blocks, sealed and opened on the hardware kernel against the
    /// portable one.
    #[test]
    fn the_hardware_kernel_matches_the_portable_one_on_every_length() {
        let Some(hardware) = hardware_or_skip() else {
            return;
        };
        let key = GcmKey::from_raw([0x42; 16]);
        let nonce = [0x24; 12];
        let plain = pattern(1024, 1);
        let aad = pattern(48, 2);
        // The portable ciphertext of the longest body is that of every
        // prefix; its tags are taken prefix by prefix.
        let mut ciphertext = plain.clone();
        portable::ctr(&key.round_keys, &nonce, 2, &mut ciphertext);
        for len in 0..=plain.len() {
            for aad_len in 0..=aad.len() {
                let aad = &aad[..aad_len];
                let sealed = seal_on(hardware, &key, &nonce, &plain[..len], aad);
                let (body, tag) = sealed[NONCE_LEN..].split_at(len);
                let want = portable::tag(&key.round_keys, key.h_powers[0], &nonce, aad, body);
                assert_eq!(body, &ciphertext[..len], "len {len}, aad {aad_len}");
                assert_eq!(tag, want, "len {len}, aad {aad_len}");
                let mut buf = sealed.clone();
                let opened = hardware.open(&key, aad, &mut buf).unwrap();
                assert_eq!(opened, &plain[..len], "len {len}, aad {aad_len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_kernels_agree_under_random_keys_and_nonces(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 12]>(),
            plain in proptest::collection::vec(any::<u8>(), 0..600),
            aad in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            let key = GcmKey::from_raw(key);
            let want = seal_on(Kernel::Portable, &key, &nonce, &plain, &aad);
            for kernel in kernels() {
                let sealed = seal_on(kernel, &key, &nonce, &plain, &aad);
                prop_assert_eq!(&sealed, &want);
                let mut buf = sealed;
                prop_assert_eq!(kernel.open(&key, &aad, &mut buf).unwrap(), &plain[..]);
            }
        }
    }

    /// Every single-bit flip of the nonce, the ciphertext, the tag or
    /// the AAD is refused, and the buffer comes back as handed in.
    #[test]
    fn every_single_bit_flip_is_rejected_and_leaves_the_buffer_untouched() {
        let key = GcmKey::from_secret(&SecretKey::from_bytes([0x33; 32]));
        let aad = pattern(34, 3);
        for kernel in kernels() {
            let sealed = seal_on(kernel, &key, &[7; 12], &pattern(82, 4), &aad);
            for bit in 0..sealed.len() * 8 {
                let mut flipped = sealed.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let handed_in = flipped.clone();
                assert_eq!(
                    kernel.open(&key, &aad, &mut flipped).map(|p| p.len()),
                    Err(CryptoError::AuthenticationFailed),
                    "{kernel:?}, sealed bit {bit}"
                );
                assert_eq!(flipped, handed_in, "{kernel:?}, sealed bit {bit}");
            }
            for bit in 0..aad.len() * 8 {
                let mut aad = aad.clone();
                aad[bit / 8] ^= 1 << (bit % 8);
                let mut buf = sealed.clone();
                assert!(kernel.open(&key, &aad, &mut buf).is_err(), "aad bit {bit}");
                assert_eq!(buf, sealed, "{kernel:?}, aad bit {bit}");
            }
            let mut buf = sealed.clone();
            assert_eq!(kernel.open(&key, &aad, &mut buf).unwrap(), pattern(82, 4));
        }
    }

    #[test]
    fn truncated_and_short_blobs_are_rejected() {
        let key = GcmKey::from_raw([1; 16]);
        let sealed = auth_encrypt(&key, b"payload", b"").unwrap();
        for cut in 0..sealed.len() {
            assert!(
                auth_decrypt(&key, &sealed[..cut], b"").is_err(),
                "cut {cut}"
            );
        }
        assert_eq!(auth_decrypt(&key, &sealed, b"").unwrap(), b"payload");
    }

    #[test]
    fn seal_in_place_leaves_the_framing_alone() {
        let key = GcmKey::from_raw([2; 16]);
        let nonce = [4u8; NONCE_LEN];
        for len in [0usize, 1, 82, 166, 1000] {
            let plaintext = pattern(len, 5);
            let mut buf = b"framing".to_vec();
            buf.extend_from_slice(&nonce);
            buf.extend_from_slice(&plaintext);
            seal_in_place(&key, &nonce, b"ctx", &mut buf, 7 + NONCE_LEN).unwrap();
            assert_eq!(&buf[..7], b"framing");
            let wrapped = auth_encrypt_with_nonce(&key, &nonce, &plaintext, b"ctx").unwrap();
            assert_eq!(&buf[7..], &wrapped[..], "len {len}");
            assert_eq!(wrapped.len(), MIN_SEALED_LEN + len);
        }
    }

    /// The key is its own: the same master secret gives a different
    /// cipher key here than the ChaCha20-Poly1305 one, and `Debug`
    /// shows none of it.
    #[test]
    fn keys_derive_under_their_own_label() {
        let master = SecretKey::from_bytes([0x11; 32]);
        let aes_key = |master: &SecretKey| GcmKey::from_secret(master).round_keys[0];
        assert_eq!(aes_key(&master), aes_key(&master));
        assert_ne!(
            aes_key(&master),
            aes_key(&SecretKey::from_bytes([0x22; 32]))
        );
        let chacha_key = hkdf::derive_key(&master, b"lcm-aead", b"enc-subkey");
        assert_ne!(aes_key(&master), chacha_key.as_bytes()[..KEY_LEN]);
        assert_eq!(
            format!("{:?}", GcmKey::from_raw([9; 16])),
            "GcmKey(<redacted>)"
        );
    }

    /// The dispatcher's answer is one of the two names and agrees with
    /// what the CPU reports.
    #[test]
    fn backend_names_the_detected_kernel() {
        assert_eq!(backend(), kernels().last().unwrap().name());
    }

    /// Best of five timings of `rounds` seals of a `len`-byte body
    /// under a 34 B AAD: on `hardware` under a `GcmKey`, then under
    /// ChaCha20-Poly1305 on whichever of its kernels this CPU selects.
    fn seal_times(hardware: Kernel, len: usize, rounds: u32) -> [std::time::Duration; 2] {
        let master = SecretKey::from_bytes([7; 32]);
        let (gcm, chacha) = (
            GcmKey::from_secret(&master),
            crate::aead::AeadKey::from_secret(&master),
        );
        let (nonce, aad) = ([9u8; NONCE_LEN], [7u8; 34]);
        let mut buf = vec![0u8; NONCE_LEN + len + TAG_LEN];
        let mut best_of = |seal: &mut dyn FnMut(&mut Vec<u8>)| {
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    for _ in 0..rounds {
                        buf.truncate(NONCE_LEN + len);
                        seal(std::hint::black_box(&mut buf));
                    }
                    start.elapsed() / rounds
                })
                .min()
                .unwrap()
        };
        let fast = best_of(&mut |buf| hardware.seal(&gcm, &nonce, &aad, buf, NONCE_LEN).unwrap());
        let slow = best_of(&mut |buf| {
            crate::aead::seal_in_place(&chacha, &nonce, &aad, buf, NONCE_LEN).unwrap()
        });
        println!(
            "{len} B seal: aes-128-gcm ({}) {fast:?}, chacha20-poly1305 ({}) {slow:?}",
            hardware.name(),
            crate::chacha20::backend()
        );
        [fast, slow]
    }

    /// Run by name in CI's `benchmark-smoke` job (`--release --
    /// --ignored`): wall-clock ratios do not belong in the default
    /// suite. 166 B is the INVOKE body the channel seals per
    /// operation.
    #[test]
    #[ignore = "timing; run with --release -- --ignored"]
    fn aesni_gcm_seal_is_at_least_twice_chacha20_poly1305_at_166_bytes() {
        let Some(hardware) = hardware_or_skip() else {
            return;
        };
        let [fast, slow] = seal_times(hardware, 166, 20_000);
        assert!(fast * 2 <= slow, "{fast:?} vs {slow:?}");
    }

    /// As the 166 B test, for the record stream under `kP`: 4 305 B is
    /// the delta one `kv-put-n16` batch seals, which the leader seals
    /// once and every follower opens.
    #[test]
    #[ignore = "timing; run with --release -- --ignored"]
    fn aesni_gcm_seal_is_at_least_1_8x_chacha20_poly1305_at_4305_bytes() {
        let Some(hardware) = hardware_or_skip() else {
            return;
        };
        let [fast, slow] = seal_times(hardware, 4305, 2_000);
        assert!(fast * 9 <= slow * 5, "{fast:?} vs {slow:?}");
    }
}
