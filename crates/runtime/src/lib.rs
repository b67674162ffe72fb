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
//!   shared job queue, with [`task::JoinHandle`]s for results.
//! * [`stage::StageWorker`] — the reactor loop of one pipeline stage: a
//!   dedicated thread that reacts to items arriving on its bounded
//!   inbox, with `flush` (wait until everything submitted so far has
//!   been handled) and `discard_pending` (model a power failure that
//!   loses queued-but-unwritten work).
//!
//! `lcm-core`'s pipelined `LcmServer` chains three stages with these
//! pieces: request intake → enclave execution → persistence, where the
//! persistence stage runs on a [`stage::StageWorker`] so sealing I/O
//! overlaps execution of the next batch (the paper's *asynchronous
//! write* mode under real concurrency).
//!
//! ## Example
//!
//! ```
//! use lcm_runtime::stage::StageWorker;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let sum = Arc::new(AtomicU64::new(0));
//! let sink = sum.clone();
//! let mut stage = StageWorker::spawn("adder", 4, move |n: u64| {
//!     sink.fetch_add(n, Ordering::SeqCst);
//! });
//! for n in 1..=10u64 {
//!     stage.submit(n).unwrap();
//! }
//! stage.flush();
//! assert_eq!(sum.load(Ordering::SeqCst), 55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parked;
pub mod pool;
pub mod queue;
pub mod stage;
pub mod task;

pub use parked::CountedCondvar;
pub use pool::WorkerPool;
pub use queue::{BoundedQueue, PushError, QueueStats};
pub use stage::StageWorker;
pub use task::JoinHandle;
