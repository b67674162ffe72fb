//! Cryptographic substrate for the LCM reproduction.
//!
//! The LCM protocol (Brandenburger et al., DSN 2017) assumes three
//! primitives and nothing else:
//!
//! * a collision-resistant hash `hash()` — the paper uses SHA-256,
//!   implemented here in [`sha256`];
//! * authenticated encryption `auth-encrypt`/`auth-decrypt` — the paper
//!   uses AES-GCM-128; we provide the other standard AEAD,
//!   ChaCha20-Poly1305 as RFC 8439 defines it ([`chacha20`] for the
//!   body, [`poly1305`] keyed per nonce for the 16-byte tag), see
//!   [`aead`] for the construction, why its contract is the paper's,
//!   what a repeated nonce costs, and the seal/open-in-place
//!   primitives everything per-operation uses;
//! * a secure random generator for key material, see [`keys`].
//!
//! [`hmac`] and [`hkdf`] derive keys (sealing keys, AEAD keys,
//! attestation MACs); no message is authenticated with HMAC.
//!
//! All primitives are implemented from scratch so that the trusted
//! execution environment simulator stays fully self-contained and
//! deterministic. Each primitive is validated against published
//! test vectors (FIPS 180-4, RFC 4231, RFC 5869, RFC 8439) in its
//! module tests and in `tests/kat.rs`.
//!
//! # `unsafe`
//!
//! Everything is safe Rust except two kernels, one per primitive that
//! every operation pays for:
//!
//! * on an x86-64 CPU with the SHA extensions, [`sha256`] compresses
//!   with the `sha256rnds2` family of instructions, about five times
//!   the portable loop's rate — every hash-chain step, delta anchor,
//!   HMAC and HKDF call rides on it;
//! * on an x86-64 CPU with AVX2, [`chacha20`] produces its keystream
//!   blocks on 256-bit registers, about twice the rate of the portable
//!   lane-array function — every sealed wire and state blob rides on
//!   it.
//!
//! Executing instructions the build target does not guarantee takes a
//! `#[target_feature]` function, which is `unsafe` to call. So this
//! crate *denies* `unsafe_code` rather than forbidding it, and exactly
//! two private modules — `sha256::shani` and `chacha20::avx2`, compiled
//! only for x86-64 — are allowed it, each by an attribute on its own
//! `mod` line. Each module is one fence of the same shape: two safe
//! functions (is the feature there; run the kernel over these blocks),
//! the second checking the first before its single `unsafe` call.
//! Every other CPU and architecture takes the portable kernels, with
//! identical digests and keystream; see the [`sha256`] and
//! [`chacha20`] module docs for the selection and for what a real SGX
//! enclave would consult instead of `cpuid`. CI greps that `unsafe`
//! stays in exactly those two files plus `lcm_storage`'s one (the
//! CRC-32 kernel under its frames, fenced the same way) and that every
//! other crate root keeps `forbid(unsafe_code)`.
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
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod poly1305;
pub mod sha256;

mod error;

pub use error::CryptoError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CryptoError>;
