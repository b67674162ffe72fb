//! Cryptographic substrate for the LCM reproduction.
//!
//! The LCM protocol (Brandenburger et al., DSN 2017) assumes three
//! primitives and nothing else:
//!
//! * a collision-resistant hash `hash()` — the paper uses SHA-256,
//!   implemented here in [`sha256`];
//! * authenticated encryption `auth-encrypt`/`auth-decrypt`, one cipher
//!   per key. The paper's AES-GCM-128 ([`gcm`], NIST SP 800-38D) seals
//!   everything under the communication key `kC` — every INVOKE, READ
//!   leg and REPLY. ChaCha20-Poly1305 as RFC 8439 defines it
//!   ([`aead`]: [`chacha20`] for the body, [`poly1305`] keyed per nonce
//!   for the 16-byte tag) seals everything that rests on the medium or
//!   travels once (`kP`, `kS`, `kA`, provisioning, migration tickets),
//!   whose bytes `tests/recovery_compat.rs` pins. Both keep one wire
//!   layout and one seal/open-in-place contract; see [`aead`] for why
//!   it is the paper's and [`gcm`] for what a repeated nonce costs;
//! * a secure random generator for key material, see [`keys`].
//!
//! [`hmac`] and [`hkdf`] derive keys (sealing keys, AEAD keys,
//! attestation MACs); no message is authenticated with HMAC.
//! [`framing`] is the CRC-32 record framing under every stored log —
//! a crash check, not an integrity one — here so that the enclave,
//! which reads bundles in that framing, needs no storage crate.
//!
//! All primitives are implemented from scratch so that the trusted
//! execution environment simulator stays fully self-contained and
//! deterministic. Each primitive is validated against published
//! test vectors (FIPS 180-4, FIPS 197, RFC 4231, RFC 5869, RFC 8439,
//! McGrew and Viega's GCM cases) in its module tests and in
//! `tests/kat.rs`.
//!
//! # `unsafe`
//!
//! Everything is safe Rust except four kernels, one per primitive that
//! every operation or every stored byte pays for:
//!
//! * on an x86-64 CPU with the SHA extensions, [`sha256`] compresses
//!   with the `sha256rnds2` family of instructions, about five times
//!   the portable loop's rate — every hash-chain step, delta anchor,
//!   HMAC and HKDF call rides on it;
//! * on an x86-64 CPU with AVX2, [`chacha20`] produces its keystream
//!   blocks on 256-bit registers, about twice the rate of the portable
//!   lane-array function — every state blob, ticket and admin message
//!   sealed at rest rides on it;
//! * on an x86-64 CPU with `pclmulqdq`, [`framing::crc32`] — the
//!   checksum under every frame of every journal, checkpoint slot and
//!   bundle — folds its input by carry-less multiplication, more than
//!   ten times the table kernel's rate;
//! * on an x86-64 CPU with AES-NI and `pclmulqdq`, [`gcm`] runs AES
//!   rounds as single instructions, up to twelve counter blocks at a
//!   time, and GHASH by carry-less multiplication with one reduction
//!   per eight blocks, about ninety times the portable kernel's rate
//!   on a 166 B seal — the four channel AEADs of every operation ride
//!   on it.
//!
//! Executing instructions the build target does not guarantee takes a
//! `#[target_feature]` function, which is `unsafe` to call. So this
//! crate *denies* `unsafe_code` rather than forbidding it, and exactly
//! four private modules — `sha256::shani`, `chacha20::avx2`,
//! `framing::clmul` and `gcm::aesni`, compiled only for x86-64 — are
//! allowed it, each by an attribute on its own `mod` line. Each module
//! is one fence of the same shape: safe functions (is the feature
//! there; run the kernel over these blocks), each kernel call checking
//! the first before its single `unsafe` call (`gcm::aesni` has three
//! such calls: key setup, seal and open). Every other CPU and
//! architecture takes the portable kernels, with identical digests,
//! keystream, checksums and ciphertexts; see the [`sha256`],
//! [`chacha20`] and [`gcm`] module docs for the selection and for what
//! a real SGX enclave would consult instead of `cpuid`. A tier-1 rule
//! checks that `unsafe` stays in exactly those four files and that
//! every other crate root keeps `forbid(unsafe_code)`.
//!
//! # Example
//!
//! ```
//! use lcm_crypto::aead::{self, AeadKey};
//! use lcm_crypto::keys::SecretKey;
//!
//! # fn main() -> Result<(), lcm_crypto::CryptoError> {
//! let key = AeadKey::from_secret(&SecretKey::from_bytes([7u8; 32]));
//! let sealed = aead::auth_encrypt(&key, b"operation payload", b"context")?;
//! let opened = aead::auth_decrypt(&key, &sealed, b"context")?;
//! assert_eq!(opened, b"operation payload");
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod framing;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod poly1305;
pub mod sha256;

mod error;

pub use error::CryptoError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CryptoError>;
