//! # `T`: the code the enclave runs
//!
//! The trusted execution context of *Lightweight Collective Memory*
//! (DSN 2017, Alg. 2) and everything it reads or writes: [`types`],
//! the [`codec`], the [`wire`] formats, the [`functionality`] trait,
//! [`stability`], [`routing`], the [`context`] state machine, the
//! enclave [`program`] and the sealed [`blob`] kinds. The threat model
//! (§2.3) trusts this code and not the host around it; this crate
//! makes that boundary a compile-time fact:
//!
//! * it depends on `lcm-crypto` and `lcm-tee` alone, takes no clock,
//!   thread or lock, and draws randomness only through the TEE
//!   ([`lcm_tee::platform::TeeServices::fill_random`]);
//! * `unsafe` is forbidden and, outside tests, so are `unwrap`,
//!   `expect`, `panic!` and unchecked indexing: every byte the host
//!   hands in is untrusted, so a malformed input is an error the code
//!   returns, never a panic.
//!
//! `lcm-core` builds the host and the client (Alg. 1) on this crate
//! and re-exports each module under the path it had there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::indexing_slicing))]

pub mod blob;
pub mod codec;
pub mod context;
pub mod functionality;
pub mod program;
pub mod routing;
pub mod stability;
pub mod types;
pub mod wire;

mod error;

pub use error::{LcmError, Violation};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LcmError>;
