//! Key-value store application for LCM, plus the paper's baselines.
//!
//! The paper demonstrates LCM by protecting *"a simple persistent
//! key-value store (KVS) running in an enclave"* (§5.3): clients invoke
//! `GET`, `PUT` and `DEL` through a KVS client that instantiates the
//! LCM client library; the enclave runs the KVS behind the LCM
//! protocol.
//!
//! This crate provides:
//!
//! * [`ops`] — the KVS operation/result wire formats;
//! * [`store`] — [`store::KvStore`], an ordered-map KVS implementing
//!   [`lcm_core::functionality::Functionality`] (the paper uses C++
//!   `std::map`; we use `BTreeMap`, the same ordered-tree shape, and
//!   account for its memory with the §6.2 model);
//! * [`client`] — a typed KVS client over the LCM client library;
//! * [`baseline`] — the enclave baselines of the evaluation: an
//!   SGX-sealed KVS *without* rollback protection — the LCM lane minus
//!   the protocol, an [`lcm_core::server::LcmServer`] over its own
//!   enclave program — and that KVS gated by a trusted monotonic
//!   counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod client;
pub mod ops;
pub mod store;
