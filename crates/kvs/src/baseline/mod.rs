//! The evaluation baselines of the paper (§6.1, §6.4, §6.5).
//!
//! | Series in Fig. 5/6 | Type here | Protection |
//! |--------------------|-----------|------------|
//! | "Native"           | none: a `lcm_sim::ServerKind` cost profile only | none |
//! | "Redis TLS"        | none: a `lcm_sim::ServerKind` cost profile only | none |
//! | "SGX"              | [`SgxKvsServer`] | enclave isolation + sealing, **no rollback/fork detection** |
//! | "SGX + TMC"        | [`SgxTmcKvsServer`] | enclave + trusted monotonic counter per request |
//! | "LCM"              | [`lcm_core::server::LcmServer`] over [`crate::store::KvStore`] | rollback + fork detection, fork-linearizability |

mod sgx;
mod tmc;

pub use sgx::{SecureKvsClient, SgxKvsServer};
pub use tmc::SgxTmcKvsServer;
