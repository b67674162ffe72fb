//! The evaluation baselines of the paper (§6.1, §6.4, §6.5).
//!
//! | Series in Fig. 5/6 | Type here | Protection |
//! |--------------------|-----------|------------|
//! | "Native"           | none: a `lcm_sim::ServerKind` cost profile only | none |
//! | "Redis TLS"        | none: a `lcm_sim::ServerKind` cost profile only | none |
//! | "SGX"              | [`SgxKvsServer`]: [`lcm_core::server::LcmServer`] over [`SgxKvsProgram`], the LCM lane minus the protocol | enclave isolation + sealing, **no rollback/fork detection** |
//! | "SGX + TMC"        | [`SgxTmcKvsServer`]: the SGX one unbatched | enclave + trusted monotonic counter per request |
//! | "LCM"              | [`lcm_core::server::LcmServer`] over [`crate::store::KvStore`] | rollback + fork detection, fork-linearizability |
//!
//! "SGX" and "LCM" share one host loop, one ecall ABI
//! ([`lcm_core::program::answer_ecall`]), one nonce routine and one
//! persistence format (sealed checkpoints and per-batch deltas, under
//! one checkpoint cadence), so what separates them is the protocol
//! alone: the hash chain, `V`, stability and `(tc, hc)` on the wire.

mod sgx;
mod tmc;

pub use sgx::{SecureKvsClient, SgxKvsProgram, SgxKvsServer};
pub use tmc::SgxTmcKvsServer;
