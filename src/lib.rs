//! # LCM — Lightweight Collective Memory
//!
//! Facade crate for the reproduction of *"Rollback and Forking Detection
//! for Trusted Execution Environments using Lightweight Collective
//! Memory"* (Brandenburger, Cachin, Lorenz, Kapitza — DSN 2017).
//!
//! This crate re-exports the workspace's public API under one roof; see
//! the individual crates for details:
//!
//! * [`crypto`] — SHA-256 (SHA-NI when present) / HMAC / HKDF, and two
//!   AEADs: AES-128-GCM for the client channel `kC` and the state key
//!   `kP`, ChaCha20-Poly1305 for the control-plane keys.
//! * [`tee`] — SGX-like trusted-execution-environment simulator.
//! * [`storage`] — stable storage with adversarial (rollback) wrappers.
//! * [`runtime`] — hand-rolled bounded queues, worker pools, and
//!   pipeline stage workers (the concurrency substrate of the
//!   asynchronous-write mode and the driver threads).
//! * [`trusted`] — the code the enclave `T` runs (Alg. 2): wire
//!   codec, trusted context, stability, routing, enclave program.
//! * [`client`] — the relying party (Alg. 1): the client state
//!   machine and the history checkers, built on [`trusted`] alone.
//! * [`core`] — the LCM protocol around them: the host servers,
//!   shards, replicas, transport; re-exports [`trusted`] and [`client`].
//! * [`kvs`] — the key-value store application and baseline servers.
//! * [`workload`] — YCSB-style workload generation.
//! * [`sim`] — deterministic discrete-event simulator and cost model
//!   used to regenerate the paper's figures.
//!
//! On top of the re-exports, this crate owns the [`deployment`]
//! builder — the one-call assembly of world + sharded servers +
//! transport + admission + admin bootstrap — and the [`prelude`].
//!
//! ## Quickstart
//!
//! ```
//! use lcm::prelude::*;
//! use lcm::kvs::store::KvStore;
//!
//! let mut dep = DeploymentBuilder::<KvStore>::new()
//!     .shards(2)
//!     .clients(vec![ClientId(1)])
//!     .build()
//!     .unwrap();
//! let mut alice = dep.kvs_client(ClientId(1));
//! alice.put(dep.frontend_mut(), b"motd", b"hello").unwrap();
//! ```
//!
//! See `examples/quickstart.rs` for a complete bootstrapped
//! client/server session, and `examples/rollback_attack.rs` /
//! `examples/forking_attack.rs` for attack detection in action.

#![forbid(unsafe_code)]

pub use lcm_client as client;
pub use lcm_core as core;
pub use lcm_crypto as crypto;
pub use lcm_kvs as kvs;
pub use lcm_runtime as runtime;
pub use lcm_sim as sim;
pub use lcm_storage as storage;
pub use lcm_tee as tee;
pub use lcm_trusted as trusted;
pub use lcm_workload as workload;

pub mod deployment;

/// The common surface in one import: the deployment builder, both
/// client libraries, the client port, and the admission/tenancy
/// types.
pub mod prelude {
    pub use crate::deployment::{Deployment, DeploymentBuilder, Mode};
    pub use lcm_client::LcmClient;
    pub use lcm_core::admission::{
        AdmissionConfig, HealthSnapshot, RetryAfter, TenantConfig, TenantId,
    };
    pub use lcm_core::server::BatchServer;
    pub use lcm_core::stability::Quorum;
    pub use lcm_core::transport::FrontendPort;
    pub use lcm_core::types::ClientId;
    pub use lcm_kvs::client::KvsClient;
}
