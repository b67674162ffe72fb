//! # lcm-runtime — a small hand-rolled concurrency runtime
//!
//! The build environment has no registry access, so instead of tokio or
//! crossbeam this crate provides the minimal set of primitives the LCM
//! server pipeline needs, built purely on `std::sync` + `std::thread`
//! (in the same spirit as the workspace's `vendor/` shims):
//!
//! * [`queue::BoundedQueue`] — an MPMC blocking queue with a hard
//!   capacity bound. Producers block when the queue is full: this is
//!   the **back-pressure** mechanism of the server pipeline — a slow
//!   disk eventually slows the enclave instead of buffering unbounded
//!   sealed state in memory.
//! * [`parked::CountedCondvar`] — the one wait point every hand-off
//!   in the workspace parks on: a condition variable that counts its
//!   waiters, so a notify with nobody parked is not a system call.
//! * [`pool::WorkerPool`] — a fixed set of worker threads draining a
//!   shared bounded job queue, with [`task::JoinHandle`]s for results.
//!   Dropping a pool runs every job it accepted and joins its threads;
//!   [`pool::WorkerPool::discard_pending`] instead drops the jobs still
//!   queued, which models a power failure losing queued-but-unwritten
//!   work.
//!
//! Every thread the library crates start is a pool worker (the
//! measurement crates `lcm-bench` and `lcm-sim` aside; the rule is
//! `tests/architecture.rs::threads_spawn_only_in_the_runtime`):
//! `lcm-core`'s shard pool boots and drives lanes, its driver pool runs
//! a deployment's continuous drivers, and a pipelined `LcmServer`'s
//! persist stage is a one-worker pool, so sealing I/O overlaps the
//! execution of the next batch (the paper's *asynchronous write* mode
//! under real concurrency).
//!
//! ## Example
//!
//! ```
//! use lcm_runtime::WorkerPool;
//!
//! let pool = WorkerPool::new("squares", 2, 4);
//! let handles: Vec<_> = (1..=10u64).map(|n| pool.spawn(move || n * n)).collect();
//! let sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
//! assert_eq!(sum, 385);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parked;
pub mod pool;
pub mod queue;
pub mod task;

pub use parked::CountedCondvar;
pub use pool::WorkerPool;
pub use queue::{BoundedQueue, PushError, QueueStats};
pub use task::JoinHandle;
