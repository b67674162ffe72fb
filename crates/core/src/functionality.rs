//! The application functionality `F` executed inside the trusted
//! context.
//!
//! Mirrors the paper's two enclave-application interfaces (§5.2): *"an
//! operation processor, that receives a client operation and returns
//! the operation result; and ... a serialization interface that returns
//! the application state as a byte sequence"*.

use crate::codec::CodecError;

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
/// [`crate::shard::ShardedServer`]).
pub trait Functionality: Default + Send {
    /// Executes one operation against the state, returning the result
    /// (the paper's `(r, s) ← execF(s, o)`).
    fn exec(&mut self, op: &[u8]) -> Vec<u8>;

    /// The partition key of an *encoded* operation, if this
    /// functionality's state is partitionable by it.
    ///
    /// A sharded deployment ([`crate::shard::ShardedServer`]) routes
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

    /// Serializes the full service state `s`.
    fn snapshot(&self) -> Vec<u8>;

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
    /// slice migration
    /// ([`crate::context::TrustedContext::export_slice`]); a partial
    /// state has one encoding, and it is the delta's.
    ///
    /// `belongs` is called with the same byte strings
    /// [`Functionality::shard_key`] exposes for routing, so the
    /// extracted partition is exactly the state the routing slice
    /// covers — only the functionality can make that cut, an opaque
    /// snapshot cannot be filtered by key from outside. Implementations
    /// must also drop the removed entries from
    /// any delta dirty-tracking (the exporting context checkpoints
    /// immediately, but the tracking must not resurrect them).
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
    /// replicated shard group ([`crate::replica`]) — everything else
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

    fn snapshot(&self) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_bytes(e);
        }
        w.into_bytes()
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

/// A named-counter functionality: the second partitionable example
/// service next to the KVS, with counters as the shard key.
///
/// Operation encoding:
///
/// ```text
/// INC:  0x01 ‖ name_len(4) ‖ name ‖ delta(8, BE)
/// READ: 0x02 ‖ name
/// ```
///
/// Both return the counter's value after the operation as 8 big-endian
/// bytes (a never-touched counter reads 0). Malformed operations
/// return the empty byte string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    counters: std::collections::BTreeMap<Vec<u8>, u64>,
    dirty: DirtyNames,
}

/// Names incremented since the last delta baseline. Wrapped so it
/// stays out of `Eq`: two counters with the same values are the same
/// state regardless of what a host has or has not persisted yet.
#[derive(Debug, Clone, Default)]
struct DirtyNames(std::collections::BTreeSet<Vec<u8>>);

impl PartialEq for DirtyNames {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DirtyNames {}

/// Tag byte of a [`Counter`] increment operation.
pub const COUNTER_OP_INC: u8 = 0x01;
/// Tag byte of a [`Counter`] read operation.
pub const COUNTER_OP_READ: u8 = 0x02;

impl Counter {
    /// Encodes an increment of `name` by `delta` (wrapping).
    pub fn inc_op(name: &[u8], delta: u64) -> Vec<u8> {
        let mut w = crate::codec::Writer::with_capacity(1 + 4 + name.len() + 8);
        w.put_u8(COUNTER_OP_INC);
        w.put_bytes(name);
        w.put_u64(delta);
        w.into_bytes()
    }

    /// Encodes a read of `name`.
    pub fn read_op(name: &[u8]) -> Vec<u8> {
        let mut w = crate::codec::Writer::with_capacity(1 + name.len());
        w.put_u8(COUNTER_OP_READ);
        w.put_raw(name);
        w.into_bytes()
    }

    /// Decodes a result produced by [`Functionality::exec`].
    pub fn decode_result(result: &[u8]) -> Option<u64> {
        Some(u64::from_be_bytes(result.try_into().ok()?))
    }

    /// The current value of `name` (0 if never incremented).
    pub fn value(&self, name: &[u8]) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `count ‖ (name ‖ value)*`: the one layout of a snapshot, a
    /// delta and a partition alike — they differ in which names they
    /// list, and in whether the reader replaces or merges.
    fn encode_entries<'a>(entries: impl ExactSizeIterator<Item = (&'a Vec<u8>, u64)>) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        w.put_u32(entries.len() as u32);
        for (name, value) in entries {
            w.put_bytes(name);
            w.put_u64(value);
        }
        w.into_bytes()
    }

    /// Decodes [`Counter::encode_entries`] whole, so that malformed
    /// bytes leave the state untouched.
    fn decode_entries(bytes: &[u8]) -> Result<Vec<(Vec<u8>, u64)>, CodecError> {
        let mut r = crate::codec::Reader::new(bytes);
        let n = r.get_u32()? as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            entries.push((r.get_bytes()?.to_vec(), r.get_u64()?));
        }
        r.finish()?;
        Ok(entries)
    }
}

impl Functionality for Counter {
    fn exec(&mut self, op: &[u8]) -> Vec<u8> {
        let mut r = crate::codec::Reader::new(op);
        let parsed = (|| -> Result<u64, CodecError> {
            match r.get_u8()? {
                COUNTER_OP_INC => {
                    let name = r.get_bytes()?.to_vec();
                    let delta = r.get_u64()?;
                    r.finish()?;
                    self.dirty.0.insert(name.clone());
                    let slot = self.counters.entry(name).or_insert(0);
                    *slot = slot.wrapping_add(delta);
                    Ok(*slot)
                }
                COUNTER_OP_READ => {
                    let name = r.get_rest();
                    Ok(self.value(name))
                }
                other => Err(CodecError::InvalidTag(other)),
            }
        })();
        match parsed {
            Ok(v) => v.to_be_bytes().to_vec(),
            Err(_) => Vec::new(),
        }
    }

    fn shard_key(op: &[u8]) -> Option<&[u8]> {
        match *op.first()? {
            COUNTER_OP_INC => {
                let len = u32::from_be_bytes(op.get(1..5)?.try_into().ok()?) as usize;
                op.get(5..5 + len)
            }
            COUNTER_OP_READ => op.get(1..),
            _ => None,
        }
    }

    fn is_readonly(op: &[u8]) -> bool {
        op.first() == Some(&COUNTER_OP_READ)
    }

    fn snapshot(&self) -> Vec<u8> {
        Self::encode_entries(self.counters.iter().map(|(name, value)| (name, *value)))
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), CodecError> {
        self.counters = Self::decode_entries(snapshot)?.into_iter().collect();
        self.dirty.0.clear();
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        self.counters.keys().map(|k| k.len() + 8 + 32).sum()
    }

    /// A counter delta is upserts-only: `count ‖ (name ‖ value)*`,
    /// carrying the *absolute* value of every name incremented since
    /// the baseline. No tombstones are needed — normal operation never
    /// deletes a counter, and the one path that does
    /// ([`Functionality::take_partition`]) both clears the removed
    /// names from the dirty set and is followed by a full checkpoint,
    /// so no delta taken afterwards can mention them.
    fn take_delta(&mut self) -> Option<Vec<u8>> {
        let dirty = std::mem::take(&mut self.dirty.0);
        Some(Self::encode_entries(
            dirty.iter().map(|name| (name, self.value(name))),
        ))
    }

    fn apply_delta(&mut self, delta: &[u8]) -> Result<(), CodecError> {
        self.counters.extend(Self::decode_entries(delta)?);
        Ok(())
    }

    /// The moved names with their absolute values: an upserts-only
    /// delta like any other.
    fn take_partition(&mut self, belongs: &dyn Fn(&[u8]) -> bool) -> Option<Vec<u8>> {
        let mut moved = Vec::new();
        self.counters.retain(|name, value| {
            let goes = belongs(name);
            if goes {
                moved.push((name.clone(), *value));
            }
            !goes
        });
        for (name, _) in &moved {
            self.dirty.0.remove(name);
        }
        Some(Self::encode_entries(
            moved.iter().map(|(name, value)| (name, *value)),
        ))
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

    #[test]
    fn counter_inc_and_read() {
        let mut c = Counter::default();
        let r = c.exec(&Counter::inc_op(b"hits", 2));
        assert_eq!(Counter::decode_result(&r), Some(2));
        let r = c.exec(&Counter::inc_op(b"hits", 3));
        assert_eq!(Counter::decode_result(&r), Some(5));
        let r = c.exec(&Counter::read_op(b"hits"));
        assert_eq!(Counter::decode_result(&r), Some(5));
        let r = c.exec(&Counter::read_op(b"misses"));
        assert_eq!(Counter::decode_result(&r), Some(0));
    }

    #[test]
    fn counter_malformed_op_is_rejected_not_panicking() {
        let mut c = Counter::default();
        assert!(c.exec(&[0x7f, 1, 2]).is_empty());
        assert!(c.exec(&[]).is_empty());
        assert!(c.exec(&[COUNTER_OP_INC, 0, 0, 0, 9]).is_empty());
    }

    #[test]
    fn counter_shard_key_is_the_name() {
        assert_eq!(
            Counter::shard_key(&Counter::inc_op(b"hits", 1)),
            Some(&b"hits"[..])
        );
        assert_eq!(
            Counter::shard_key(&Counter::read_op(b"hits")),
            Some(&b"hits"[..])
        );
        assert_eq!(Counter::shard_key(&[0x7f]), None);
        assert_eq!(Counter::shard_key(&[]), None);
    }

    #[test]
    fn counter_read_is_readonly_inc_is_not() {
        assert!(Counter::is_readonly(&Counter::read_op(b"hits")));
        assert!(!Counter::is_readonly(&Counter::inc_op(b"hits", 1)));
        assert!(!Counter::is_readonly(&[]));
        // The default classification is conservative.
        assert!(!AppendLog::is_readonly(b"anything"));
    }

    #[test]
    fn counter_delta_reproduces_state() {
        let mut c = Counter::default();
        c.exec(&Counter::inc_op(b"a", 1));
        c.exec(&Counter::inc_op(b"b", 7));
        let baseline = c.snapshot();
        let first = c.take_delta().expect("counters track changes");

        c.exec(&Counter::inc_op(b"b", 2));
        c.exec(&Counter::inc_op(b"c", 5));
        let delta = c.take_delta().unwrap();

        let mut replica = Counter::default();
        replica.restore(&baseline).unwrap();
        replica.apply_delta(&delta).unwrap();
        assert_eq!(replica, c);
        // The baseline delta drained the dirty set: it only carries
        // names touched before the snapshot.
        let mut r = crate::codec::Reader::new(&first);
        assert_eq!(r.get_u32().unwrap(), 2);
    }

    #[test]
    fn counter_delta_is_drained_and_empty_when_clean() {
        let mut c = Counter::default();
        c.exec(&Counter::inc_op(b"a", 1));
        assert!(!c.take_delta().unwrap().is_empty());
        let clean = c.take_delta().unwrap();
        let mut r = crate::codec::Reader::new(&clean);
        assert_eq!(r.get_u32().unwrap(), 0);
        assert!(Counter::default().apply_delta(&[0xff]).is_err());
    }

    #[test]
    fn counter_partition_moves_matching_names() {
        let mut c = Counter::default();
        c.exec(&Counter::inc_op(b"apple", 3));
        c.exec(&Counter::inc_op(b"banana", 4));
        let part = c
            .take_partition(&|name| name.starts_with(b"a"))
            .expect("counters support partitions");
        // Matching names left, the others stayed...
        assert_eq!(c.value(b"apple"), 0);
        assert_eq!(c.value(b"banana"), 4);
        // ...and the exporter's own next delta does not bring a moved
        // name back, although it was dirty when it left.
        let mut replay = Counter::default();
        replay.apply_delta(&c.take_delta().unwrap()).unwrap();
        assert_eq!(replay.value(b"apple"), 0);
        assert_eq!(replay.value(b"banana"), 4);

        let mut target = Counter::default();
        target.exec(&Counter::inc_op(b"cherry", 1));
        target.apply_delta(&part).unwrap();
        assert_eq!(target.value(b"apple"), 3);
        assert_eq!(target.value(b"cherry"), 1);

        // A partition nothing matches is the empty delta.
        let mut clean = Counter::default();
        assert_eq!(
            c.take_partition(&|_| false),
            Some(clean.take_delta().unwrap())
        );
        assert_eq!(c.value(b"banana"), 4);
        // The default implementation reports "unsupported".
        assert!(AppendLog::default().take_partition(&|_| true).is_none());
    }

    #[test]
    fn counter_snapshot_restore_roundtrip() {
        let mut c = Counter::default();
        c.exec(&Counter::inc_op(b"a", 1));
        c.exec(&Counter::inc_op(b"b", 7));
        let snap = c.snapshot();
        let mut restored = Counter::default();
        restored.restore(&snap).unwrap();
        assert_eq!(restored, c);
        assert!(restored.heap_bytes() > 0);
        assert!(Counter::default().restore(&[0xff]).is_err());
    }
}
