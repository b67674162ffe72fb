//! Deterministic discrete-event simulator reproducing the paper's
//! throughput experiments (Figs. 4–6, §6.5).
//!
//! ## Why a simulator
//!
//! The paper's absolute numbers come from a 2016 SGX desktop (i7-6700),
//! a 24-vCPU client VM, a 1 Gbps LAN, Stunnel, and the Java YCSB
//! harness. None of that hardware is available here, so the evaluation
//! substrate is a calibrated **closed-loop discrete-event simulation**:
//! every client is a closed-loop YCSB worker; the server is modelled
//! as the paper describes it — a *single-threaded* application that
//! performs all enclave crypto inline (§6.4: "LCM and SGX are single
//! threaded applications and perform the encryption of every client
//! request inside the enclave"), with request batching, sealed-state
//! persistence, an optional fsync barrier, an optional trusted
//! monotonic counter, and Stunnel-style parallel transport encryption
//! for the native/Redis baselines.
//!
//! ## What is calibrated vs. derived
//!
//! Message sizes, batch behaviour, fsync semantics, group commit, and
//! the TMC increment latency are *derived* from the respective
//! implementations in this workspace and the paper's descriptions. The
//! CPU cost constants (per-byte AEAD cost, ecall overhead, socket
//! handling) are *calibrated* so that the simulated SGX baseline lands
//! in the paper's throughput ballpark; the LCM metadata premium is
//! fitted to the §6.3/Fig. 4 overhead measurements (20.12 % at 100 B
//! falling to 10.96 % at 2500 B). Each figure binary in `lcm-bench`
//! prints its paper-vs-simulated numbers.
//!
//! ## Layout
//!
//! * [`cost`] — the cost model: [`cost::CostModel`] constants and the
//!   per-server-kind [`cost::ServiceProfile`];
//! * [`engine`] — the event-driven closed-loop engine;
//! * [`scenario`] — experiment configuration and runners for each
//!   figure's sweep;
//! * [`metrics`] — throughput/latency accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod disk;
pub mod engine;
pub mod metrics;
pub mod mva;
pub mod scenario;

pub use cost::{CostModel, ServerKind, ServiceProfile};
pub use disk::DiskModel;
pub use engine::Simulation;
pub use metrics::Metrics;
pub use scenario::{run_scenario, Scenario};
