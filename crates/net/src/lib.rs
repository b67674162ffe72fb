//! Message transport substrate for the LCM reproduction.
//!
//! The paper's system model (§2.1): clients and the trusted execution
//! context *"communicate indirectly through the server which should
//! forward messages among them. If S is correct, then their
//! communication is reliable and respects first-in first-out (FIFO)
//! semantics; otherwise, S may arbitrarily interfere with their
//! messages"* — intercept, modify, reorder, discard, or replay (§2.3).
//!
//! This crate models that channel:
//!
//! * [`Link`] — a unidirectional FIFO queue of opaque byte messages;
//!   honest delivery is exactly FIFO.
//! * [`LinkController`] — the adversary's handle on a link: hold,
//!   inspect, drop, duplicate, tamper with, and reorder in-flight
//!   messages. Every attack in the integration tests is expressed
//!   through this interface rather than by mocking protocol internals.
//! * [`Duplex`] — a client⇄server pair of links.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;

pub use link::{Duplex, DuplexEnd, Link, LinkController, LinkEnd};
