//! Software simulator of an SGX-like trusted execution environment.
//!
//! The LCM paper (Brandenburger et al., DSN 2017) runs its trusted
//! execution context *T* inside an Intel SGX enclave. This crate is the
//! substitute substrate: a deterministic, in-process TEE simulator that
//! exposes exactly the abstractions the paper's system model (§2.2)
//! requires of a TEE, so the protocol layer above cannot tell the
//! difference:
//!
//! * **Isolated execution contexts with volatile protected memory** —
//!   [`enclave::Enclave`] hosts an [`enclave::EnclaveProgram`]; stopping
//!   or restarting the enclave destroys the program state (a new *epoch*
//!   begins with a freshly booted program instance). The untrusted host
//!   can start, stop, restart, and multiplex any number of instances —
//!   exactly the power the paper gives a malicious server.
//! * **Program-specific sealing keys** — [`platform::TeeServices::sealing_key`]
//!   implements `get-key(T, P)`: a key deterministic in (platform root
//!   secret, program measurement), so a re-started enclave running the
//!   same program on the same platform recovers the same key, while a
//!   different program or different platform gets an unrelated key.
//! * **Remote attestation** — [`attestation`] models the SGX flow:
//!   an enclave produces a *report* bound to its measurement and
//!   caller-chosen user data; the platform's quoting enclave turns it
//!   into a *quote* signed under an EPID-style group secret; verifiers
//!   check the quote against an [`attestation::AttestationAuthority`]
//!   without learning which platform signed.
//! * **Trusted monotonic counters** — [`tmc::Tmc`] emulates the Intel
//!   ME-backed counters the paper benchmarks against (§6.5), including
//!   their dominant property: a large per-increment latency.
//! * **EPC paging cost model** — [`epc`] reproduces the enclave-page-
//!   cache effects measured in §6.2 (limited 128 MB EPC, paging penalty
//!   once the enclave heap exceeds it, `std::map` memory overhead).
//!
//! What is simulated vs. real: all cryptography (sealing, report MACs,
//! quote signatures) is real and enforced — tampering is detected, keys
//! derived for the wrong measurement fail to unseal. The *hardware*
//! isolation boundary is simulated by Rust ownership: host code can only
//! reach enclave state through [`enclave::Enclave::ecall`]. Group
//! signatures (EPID) are simulated with a shared-secret MAC; see
//! [`attestation`] for the exact trust model of the simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod attestation;
pub mod enclave;
pub mod epc;
pub mod measurement;
pub mod platform;
pub mod tmc;
pub mod world;

mod error;

pub use error::TeeError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TeeError>;

/// Locks `mutex`. No critical section here leaves its data half
/// updated, so a lock a panicking holder poisoned is used as it is.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
