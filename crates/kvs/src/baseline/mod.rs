//! The evaluation baselines of the paper (§6.1, §6.4, §6.5).
//!
//! | Series in Fig. 5/6 | Type here | Protection |
//! |--------------------|-----------|------------|
//! | "Native"           | [`NativeKvsServer`] | none (Stunnel-style transport encryption is modelled at the transport/cost layer) |
//! | "Redis TLS"        | [`FileAofKvsServer`] | none; append-only-file persistence to a real file, fsync-batched |
//! | "SGX"              | [`SgxKvsServer`] | enclave isolation + sealing, **no rollback/fork detection** |
//! | "SGX + TMC"        | [`SgxTmcKvsServer`] | enclave + trusted monotonic counter per request |
//! | "LCM"              | [`lcm_core::server::LcmServer`] over [`crate::store::KvStore`] | rollback + fork detection, fork-linearizability |

mod aof;
mod native;
mod sgx;
mod tmc;

pub use aof::{FileAofKvsServer, FsyncPolicy};
pub use native::NativeKvsServer;
pub use sgx::{SecureKvsClient, SgxKvsServer};
pub use tmc::SgxTmcKvsServer;
