//! The application functionality `F` executed inside the trusted
//! context: `lcm-trusted`'s trait and test log, re-exported under the
//! path they always had, and [`Counter`], an example service.
//!
//! `Counter` is an application like the KVS, not part of `T`, so it
//! lives here rather than in the trusted crate.

pub use lcm_trusted::functionality::*;

use crate::codec::{CodecError, Reader, Writer};

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
#[derive(Debug, Clone, Default)]
pub struct Counter {
    counters: std::collections::BTreeMap<Vec<u8>, u64>,
    /// Names incremented since the last delta baseline.
    dirty: std::collections::BTreeSet<Vec<u8>>,
}

/// Two counters with the same values are the same state, whatever a
/// host has or has not persisted of them yet.
impl PartialEq for Counter {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
    }
}
impl Eq for Counter {}

/// Tag byte of a [`Counter`] increment operation.
pub const COUNTER_OP_INC: u8 = 0x01;
/// Tag byte of a [`Counter`] read operation.
pub const COUNTER_OP_READ: u8 = 0x02;

impl Counter {
    /// Encodes an increment of `name` by `delta` (wrapping).
    pub fn inc_op(name: &[u8], delta: u64) -> Vec<u8> {
        let mut w = Writer::with_capacity(1 + 4 + name.len() + 8);
        w.put_u8(COUNTER_OP_INC);
        w.put_bytes(name);
        w.put_u64(delta);
        w.into_bytes()
    }

    /// Encodes a read of `name`.
    pub fn read_op(name: &[u8]) -> Vec<u8> {
        let mut w = Writer::with_capacity(1 + name.len());
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
        let mut w = Writer::new();
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
        let mut r = Reader::new(bytes);
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
        let mut r = Reader::new(op);
        let parsed = (|| -> Result<u64, CodecError> {
            match r.get_u8()? {
                COUNTER_OP_INC => {
                    let name = r.get_bytes()?.to_vec();
                    let delta = r.get_u64()?;
                    r.finish()?;
                    self.dirty.insert(name.clone());
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

    fn snapshot_into(&self, w: &mut Writer) {
        w.put_raw(&Self::encode_entries(
            self.counters.iter().map(|(n, v)| (n, *v)),
        ));
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), CodecError> {
        self.counters = Self::decode_entries(snapshot)?.into_iter().collect();
        self.dirty.clear();
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
        let dirty = std::mem::take(&mut self.dirty);
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
            self.dirty.remove(name);
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
        let mut r = Reader::new(&first);
        assert_eq!(r.get_u32().unwrap(), 2);
    }

    #[test]
    fn counter_delta_is_drained_and_empty_when_clean() {
        let mut c = Counter::default();
        c.exec(&Counter::inc_op(b"a", 1));
        assert!(!c.take_delta().unwrap().is_empty());
        let clean = c.take_delta().unwrap();
        let mut r = Reader::new(&clean);
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
