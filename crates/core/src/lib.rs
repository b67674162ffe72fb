//! # The LCM protocol
//!
//! Implementation of *Lightweight Collective Memory* (Brandenburger,
//! Cachin, Lorenz, Kapitza — DSN 2017): a protocol that lets a group of
//! mutually-trusting clients detect **rollback** and **forking**
//! attacks against a stateful service running in a trusted execution
//! context *T* on an untrusted server, while guaranteeing
//! **fork-linearizability** and reporting **operation stability**.
//!
//! ## Protocol recap (paper Alg. 1 + Alg. 2)
//!
//! Each client keeps three words of state: its last sequence number
//! `tc`, its last majority-stable sequence number `ts`, and the hash
//! chain value `hc` returned by its last operation. To invoke an
//! operation `o`, client `Ci` sends `auth-encrypt([INVOKE, tc, hc, o,
//! i], kC)`. The trusted context verifies `V[i] = (*, tc, hc)` — this
//! simultaneously acknowledges Ci's previous operation, filters
//! replays, and (crucially) detects any rollback or fork, because a
//! rolled-back `T` cannot have Ci's latest `(tc, hc)` in its map. `T`
//! then executes the operation, extends the hash chain `h ←
//! hash(h ‖ o ‖ t ‖ i)`, updates `V[i]`, computes the majority-stable
//! sequence number `q`, seals its full state for the host to persist,
//! and replies `[REPLY, t, h, r, q, hc]`. The client checks the echoed
//! `hc` and adopts `(t, h)`.
//!
//! ## Crate layout
//!
//! The code the enclave runs lives in `lcm-trusted`, whose dependencies
//! and panic-freedom the compiler checks; this crate re-exports each of
//! its modules under the path it always had:
//!
//! * [`types`], [`codec`], [`wire`] — identifiers, the deterministic
//!   binary codec, the INVOKE/REPLY formats (paper §4.2 / §6.3).
//! * [`functionality`] — the trait for the application `F` inside `T`.
//! * [`stability`] — the `majority-stable` function (§4.5).
//! * [`routing`] — the route hash and the epoch-versioned slice table
//!   behind the shard router.
//! * [`context`] — the trusted-context state machine (Alg. 2) with
//!   batching, recovery, migration, and membership extensions (§4.6).
//! * [`program`] — packaging of the trusted context as an
//!   [`lcm_tee::enclave::EnclaveProgram`] plus the host-call ABI.
//!
//! The untrusted side and the client are this crate's own:
//!
//! * [`client`] — the client state machine (Alg. 1) with retry support.
//! * [`server`] — an honest host server: enclave + stable storage +
//!   request batching (paper §5.2/§5.3 architecture) — the *member*
//!   role, [`server::LcmServer`] — plus one trait for each role around
//!   it: [`server::Lane`] (one shard) and [`server::BatchServer`] (the
//!   deployment the rest of the stack programs against).
//! * [`pipeline`] — asynchronous write as a persist policy of that
//!   one server: [`server::LcmServer::into_pipelined`] attaches a
//!   background writer that persists sealed state while the enclave
//!   executes the next batch (the mode behind the paper's Figs. 4/5).
//! * [`shard`] — sharded multi-enclave execution:
//!   [`shard::ShardedServer`] runs N boxed [`server::Lane`]s behind a
//!   key-partitioned router so stage 2 (execute + seal) parallelizes
//!   across enclaves; a single-enclave deployment is the 1-lane case.
//! * [`transport`] — the one transport: the concurrent
//!   [`transport::Frontend`] driving a sharded server's shared core
//!   from a pool of driver threads, with per-client reply ports.
//! * [`admission`] — multi-tenant admission control at the front door.
//! * [`replica`] — replicated shard groups:
//!   [`replica::ReplicaGroup`] runs one shard as 2f+1 replicas with
//!   quorum-gated reply release, crash failover, and follower-served
//!   verified reads.
//! * [`admin`] — the trusted admin: bootstrapping, attestation,
//!   membership changes, migration orchestration (§4.3, §4.6).
//! * [`verify`] — omniscient history checkers used by tests to validate
//!   fork-linearizability and stability claims on recorded runs.
//!
//! ## Example
//!
//! See `lcm` crate examples; the shortest end-to-end flow is in
//! `examples/quickstart.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod admission;
pub mod client;
pub mod context;
pub mod pipeline;
pub mod program;
pub mod replica;
pub mod server;
pub mod shard;
pub mod transport;
pub mod verify;

pub use lcm_trusted::{codec, functionality, routing, stability, types, wire};
pub use lcm_trusted::{LcmError, Result, Violation};
