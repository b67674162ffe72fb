//! The application functionality `F` executed inside the trusted
//! context.
//!
//! Mirrors the paper's two enclave-application interfaces (§5.2): *"an
//! operation processor, that receives a client operation and returns
//! the operation result; and ... a serialization interface that returns
//! the application state as a byte sequence"*.

use crate::codec::{CodecError, Writer};

/// A deterministic stateful service run by the trusted context.
///
/// Operations and results are opaque byte strings; LCM never inspects
/// them. Implementations must be deterministic in `exec` only to the
/// extent the *application* needs — LCM itself (unlike the 2-phase
/// TMC schemes the paper criticises in §3.1) does **not** require
/// determinism for crash tolerance, because the last reply is cached
/// verbatim rather than re-executed.
///
/// `Send` is required so servers hosting the functionality can be
/// driven from worker threads (the sharded multi-enclave host,
/// `lcm_core::shard::ShardedServer`).
pub trait Functionality: Default + Send {
    /// Executes one operation against the state, returning the result
    /// (the paper's `(r, s) ← execF(s, o)`).
    fn exec(&mut self, op: &[u8]) -> Vec<u8>;

    /// The partition key of an *encoded* operation, if this
    /// functionality's state is partitionable by it.
    ///
    /// A sharded deployment (`lcm_core::shard::ShardedServer`) routes
    /// every operation whose key hashes to the same value to the same
    /// shard, so each shard owns a disjoint slice of the state. The
    /// client library calls this on the plaintext op before encrypting
    /// (the host only ever sees the resulting hash).
    ///
    /// Returning `None` (the default) partitions by *client* instead:
    /// all of one client's operations land on one shard, which is
    /// always protocol-correct but does not split shared state.
    fn shard_key(op: &[u8]) -> Option<&[u8]> {
        let _ = op;
        None
    }

    /// Serializes the full service state `s` at the end of `w`: the
    /// trusted context encodes it straight into the checkpoint it seals.
    fn snapshot_into(&self, w: &mut Writer);

    /// [`Functionality::snapshot_into`] a buffer of its own.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.snapshot_into(&mut w);
        w.into_bytes()
    }

    /// Replaces the state with a previously serialized snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the snapshot is malformed. (A
    /// malformed snapshot can only result from a bug, never from an
    /// attack: snapshots are sealed and authenticated before they reach
    /// this method.)
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), CodecError>;

    /// Approximate in-enclave heap footprint of the current state, in
    /// bytes. Used by the EPC paging model; the default of 0 disables
    /// paging effects.
    fn heap_bytes(&self) -> usize {
        0
    }

    /// Drains and serializes the state *changes* accumulated since the
    /// last successful [`Functionality::take_delta`] (or since the
    /// last [`Functionality::snapshot`]/[`Functionality::restore`]
    /// baseline), for incremental persistence: applying the returned
    /// delta via [`Functionality::apply_delta`] to a copy restored at
    /// that baseline must reproduce the current state.
    ///
    /// The default returns `None` — "this functionality does not track
    /// changes" — and callers fall back to a full snapshot. Unlike
    /// `snapshot`, this takes `&mut self` so implementations can reset
    /// their dirty tracking when the delta is handed off.
    fn take_delta(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Applies a delta produced by [`Functionality::take_delta`] on
    /// top of the state it was taken against, or one produced by
    /// [`Functionality::take_partition`] on another instance.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the delta is malformed or the
    /// functionality does not support deltas (the default). Like a
    /// malformed snapshot this can only result from a bug: deltas are
    /// sealed and chain-verified, or travel in sealed, authenticated
    /// slice tickets, before they reach this method.
    fn apply_delta(&mut self, delta: &[u8]) -> Result<(), CodecError> {
        let _ = delta;
        Err(CodecError::InvalidTag(0xff))
    }

    /// Extracts **and removes** the subset of the state whose
    /// partition keys satisfy `belongs` and returns it as a delta
    /// [`Functionality::apply_delta`] accepts: applied on another
    /// instance it merges the extracted entries into that instance's
    /// state (the adopted keys are disjoint from the local ones by the
    /// routing invariant). This is the state-transfer half of a live
    /// slice migration ([`crate::context::TrustedContext::export_slice`]);
    /// a partial state has one encoding, and it is the delta's.
    ///
    /// `belongs` is called with the same byte strings
    /// [`Functionality::shard_key`] exposes for routing, so the
    /// extracted partition is exactly the state the routing slice
    /// covers — only the functionality can make that cut, an opaque
    /// snapshot cannot be filtered by key from outside. Implementations
    /// must also drop the removed entries from any delta dirty-tracking
    /// (the exporting context checkpoints immediately, but the tracking
    /// must not resurrect them).
    ///
    /// The default returns `None` — "this functionality cannot be
    /// partitioned" — without touching the state, and slice migration
    /// fails cleanly for such services. Supporting implementations
    /// return `Some` even when no entry matches.
    fn take_partition(&mut self, belongs: &dyn Fn(&[u8]) -> bool) -> Option<Vec<u8>> {
        let _ = belongs;
        None
    }

    /// Whether an *encoded* operation is a pure read.
    ///
    /// Contract: if this returns `true`, [`Functionality::exec`] on
    /// that operation MUST NOT modify the service state. Read-only
    /// operations are eligible for follower-served verified reads in a
    /// replicated shard group (`lcm_core::replica`) — everything else
    /// must flow through the leader's quorum path, and a follower
    /// enclave halts with [`crate::Violation::MutationOnReadPath`] if
    /// the host delivers a non-read-only op on a read leg.
    ///
    /// The conservative default classifies every operation as a write.
    fn is_readonly(op: &[u8]) -> bool {
        let _ = op;
        false
    }
}

/// A trivial functionality for tests: an append-only register that
/// echoes each operation index.
///
/// Operation encoding: any byte string; it is appended to the log.
/// Result: the 8-byte big-endian index the entry received.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppendLog {
    entries: Vec<Vec<u8>>,
}

impl AppendLog {
    /// The log contents.
    pub fn entries(&self) -> &[Vec<u8>] {
        &self.entries
    }
}

impl Functionality for AppendLog {
    fn exec(&mut self, op: &[u8]) -> Vec<u8> {
        self.entries.push(op.to_vec());
        ((self.entries.len() - 1) as u64).to_be_bytes().to_vec()
    }

    fn snapshot_into(&self, w: &mut Writer) {
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_bytes(e);
        }
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), CodecError> {
        let mut r = crate::codec::Reader::new(snapshot);
        let n = r.get_u32()? as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            entries.push(r.get_bytes()?.to_vec());
        }
        r.finish()?;
        self.entries = entries;
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.len() + 32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_log_execution() {
        let mut log = AppendLog::default();
        assert_eq!(log.exec(b"a"), 0u64.to_be_bytes());
        assert_eq!(log.exec(b"b"), 1u64.to_be_bytes());
        assert_eq!(log.entries(), &[b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut log = AppendLog::default();
        log.exec(b"one");
        log.exec(b"two");
        let snap = log.snapshot();
        let mut restored = AppendLog::default();
        restored.restore(&snap).unwrap();
        assert_eq!(restored, log);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut log = AppendLog::default();
        assert!(log.restore(&[0xff, 0xff]).is_err());
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let log = AppendLog::default();
        let mut restored = AppendLog::default();
        restored.exec(b"stale");
        restored.restore(&log.snapshot()).unwrap();
        assert_eq!(restored, log);
    }

    #[test]
    fn heap_bytes_grows() {
        let mut log = AppendLog::default();
        let before = log.heap_bytes();
        log.exec(&[0u8; 100]);
        assert!(log.heap_bytes() > before);
    }

    #[test]
    fn append_log_routes_by_client() {
        assert_eq!(AppendLog::shard_key(b"anything"), None);
    }
}
