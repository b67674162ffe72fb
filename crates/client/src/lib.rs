//! # The relying party: the LCM client (paper Alg. 1)
//!
//! LCM's guarantee is one the *client* keeps: it detects rollback and
//! forking from the replies alone. The threat model (§2.3) trusts
//! nothing on the server except `T`, so this crate builds on `T`'s
//! formats (`lcm-trusted`) and the primitives, never on host code:
//!
//! * [`client`] — the client state machine (Alg. 1) with retry
//!   support, per-shard contexts and verified follower reads.
//! * [`verify`] — omniscient history checkers used by tests to
//!   validate fork-linearizability and stability claims on recorded
//!   runs.
//!
//! Every reply the client opens is bytes the host handed in, so
//! `unsafe` is forbidden and, outside tests, so are `unwrap`, `expect`,
//! `panic!` and unchecked indexing: a malformed reply is an error the
//! client returns. `lcm-core` re-exports both modules under the paths
//! they had there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::indexing_slicing))]

pub mod client;
pub mod verify;

pub use client::LcmClient;
