//! The in-enclave key-value store: the functionality `F`.

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

use lcm_core::codec::{CodecError, Reader, WireCodec, Writer};
use lcm_core::functionality::Functionality;
use lcm_tee::epc::MapMemoryModel;

use crate::ops::{KvOp, KvOpView, KvResult};

/// An ordered-map key-value store implementing the LCM
/// [`Functionality`] interface.
///
/// The paper's prototype stores `std::map<std::string, std::string>`
/// inside the enclave (§5.3) — an ordered red-black tree. `BTreeMap`
/// is the Rust analogue; its per-object bookkeeping is accounted by
/// the [`MapMemoryModel`] so that [`Functionality::heap_bytes`] feeds
/// the §6.2 EPC paging model faithfully.
///
/// # Example
///
/// ```
/// use lcm_core::codec::WireCodec;
/// use lcm_core::functionality::Functionality;
/// use lcm_kvs::ops::{KvOp, KvResult};
/// use lcm_kvs::store::KvStore;
///
/// let mut store = KvStore::default();
/// let result = store.exec(&KvOp::Put(b"k".to_vec(), b"v".to_vec()).to_bytes());
/// assert_eq!(KvResult::from_bytes(&result).unwrap(), KvResult::Stored);
/// let result = store.exec(&KvOp::Get(b"k".to_vec()).to_bytes());
/// assert_eq!(
///     KvResult::from_bytes(&result).unwrap(),
///     KvResult::Value(Some(b"v".to_vec()))
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    memory_model: MemoryModelWrapper,
    dirty: DirtyWrapper,
}

/// Wrapper so `KvStore` can derive `PartialEq` while carrying the
/// memory model configuration.
#[derive(Debug, Clone, Copy, Default)]
struct MemoryModelWrapper(MapMemoryModel);

impl PartialEq for MemoryModelWrapper {
    fn eq(&self, _other: &Self) -> bool {
        true // configuration, not state
    }
}
impl Eq for MemoryModelWrapper {}

/// Keys touched since the last [`Functionality::take_delta`], each
/// with the bytes it was last given (`None`: deleted) — the diff the
/// sealed delta log persists instead of a full snapshot, kept so that
/// draining it looks nothing up in the store. Excluded from equality
/// like the memory model: two stores holding the same records are the
/// same store regardless of how recently their contents were persisted.
#[derive(Debug, Clone, Default)]
struct DirtyWrapper {
    entries: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Length of the last encoded delta: the next one's buffer starts
    /// at that size, up to [`DELTA_HINT_MAX`].
    last_delta_len: usize,
}

impl PartialEq for DirtyWrapper {
    fn eq(&self, _other: &Self) -> bool {
        true // persistence bookkeeping, not state
    }
}
impl Eq for DirtyWrapper {}

/// The most a delta's buffer starts with: a batch's delta fits, a bulk
/// load's that came before it need not.
const DELTA_HINT_MAX: usize = 64 * 1024;

impl DirtyWrapper {
    /// Records that `key` now holds `value`; only its first touch since
    /// the last drain copies the key, and a value it held before is
    /// overwritten in place.
    fn touch(&mut self, key: &[u8], value: Option<&[u8]>) {
        match (self.entries.get_mut(key), value) {
            (Some(Some(held)), Some(value)) => overwrite(held, value),
            (Some(held), value) => *held = value.map(<[u8]>::to_vec),
            (None, value) => {
                self.entries.insert(key.to_vec(), value.map(<[u8]>::to_vec));
            }
        }
    }
}

/// Upper bound on a single [`KvOp::Fill`]'s record count: large enough
/// for the million-object benchmark preload, small enough that a
/// malformed count cannot wedge the enclave allocating forever.
const FILL_MAX_COUNT: u32 = 1 << 24;

/// Upper bound on a [`KvOp::Fill`] filler-value length.
const FILL_MAX_VALUE_LEN: u32 = 1 << 20;

/// What one operation did, borrowing what it read from the store:
/// [`Functionality::exec`] encodes it, [`KvStore::apply`] copies it
/// into a [`KvResult`].
enum Outcome<'s> {
    /// A GET's value.
    Value(Option<&'s [u8]>),
    /// A scan's records.
    Range(std::iter::Take<btree_map::Range<'s, Vec<u8>, Vec<u8>>>),
    /// A result that holds no bytes of the store.
    Done(KvResult),
}

impl Outcome<'_> {
    /// The result's encoding, in a buffer of exactly its size.
    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Outcome::Value(value) => {
                let mut w = Writer::with_capacity(1 + value.map_or(0, <[u8]>::len));
                KvResult::encode_value(&mut w, *value);
                w.into_bytes()
            }
            Outcome::Range(records) => {
                let pairs = records.clone().map(|(k, v)| (k.as_slice(), v.as_slice()));
                let len: usize = pairs.clone().map(|(k, v)| 8 + k.len() + v.len()).sum();
                let mut w = Writer::with_capacity(5 + len);
                KvResult::encode_range(&mut w, pairs.clone().count(), pairs);
                w.into_bytes()
            }
            Outcome::Done(result) => result.to_bytes(),
        }
    }

    fn to_owned(&self) -> KvResult {
        match self {
            Outcome::Value(value) => KvResult::Value(value.map(<[u8]>::to_vec)),
            Outcome::Range(records) => KvResult::Range(
                records
                    .clone()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
            Outcome::Done(result) => result.clone(),
        }
    }
}

/// Overwrites a stored buffer with `bytes` in place — unless it holds
/// more than twice what `bytes` needs, which a fresh buffer gives back.
fn overwrite(held: &mut Vec<u8>, bytes: &[u8]) {
    if held.capacity() / 2 > bytes.len() {
        *held = bytes.to_vec();
    } else {
        held.clear();
        held.extend_from_slice(bytes);
    }
}

impl KvStore {
    /// Applies a typed operation directly (in-enclave fast path; the
    /// byte-level entry point is [`Functionality::exec`]). The same
    /// execution as `exec`, with the result copied out of the store.
    pub fn apply(&mut self, op: &KvOp) -> KvResult {
        self.run(op.view()).to_owned()
    }

    /// Executes one operation where its bytes lie: a `Put` overwrites
    /// the value it replaces in that value's buffer, and nothing but a
    /// key new to the store or to the pending diff is copied.
    fn run(&mut self, op: KvOpView<'_>) -> Outcome<'_> {
        match op {
            KvOpView::Get(key) => Outcome::Value(self.map.get(key).map(Vec::as_slice)),
            KvOpView::Put(key, value) => {
                self.put(key, value);
                Outcome::Done(KvResult::Stored)
            }
            KvOpView::Del(key) => {
                let existed = self.map.remove(key).is_some();
                self.dirty.touch(key, None);
                Outcome::Done(KvResult::Deleted(existed))
            }
            KvOpView::Scan { start, limit } | KvOpView::ScanShard { start, limit, .. } => {
                let from = (Bound::Included(start), Bound::Unbounded);
                Outcome::Range(self.map.range::<[u8], _>(from).take(limit as usize))
            }
            KvOpView::Fill {
                start,
                count,
                value_len,
                ..
            } => {
                if count > FILL_MAX_COUNT || value_len > FILL_MAX_VALUE_LEN {
                    return Outcome::Done(KvResult::Malformed);
                }
                // The keys are made here, so each is moved into the
                // store, and its copy into the diff goes in without a
                // look-up first: a bulk load's keys are new to it.
                let value = vec![b'x'; value_len as usize];
                for i in 0..u64::from(count) {
                    let key = format!("{:016x}", start.wrapping_add(i)).into_bytes();
                    let entry = self.map.entry(key);
                    self.dirty
                        .entries
                        .insert(entry.key().clone(), Some(value.clone()));
                    match entry {
                        btree_map::Entry::Vacant(e) => {
                            e.insert(value.clone());
                        }
                        btree_map::Entry::Occupied(mut e) => overwrite(e.get_mut(), &value),
                    }
                }
                Outcome::Done(KvResult::Stored)
            }
        }
    }

    /// Stores `value` under `key` and marks the key dirty.
    fn put(&mut self, key: &[u8], value: &[u8]) {
        match self.map.get_mut(key) {
            Some(held) => overwrite(held, value),
            None => {
                self.map.insert(key.to_vec(), value.to_vec());
            }
        }
        self.dirty.touch(key, Some(value));
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read access for assertions.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    /// The delta format: `count` entries of `key ‖ present ‖ value?`,
    /// a deletion travelling as `present = false`.
    fn encode_delta<'a>(
        entries: impl ExactSizeIterator<Item = (&'a Vec<u8>, Option<&'a Vec<u8>>)>,
        capacity: usize,
    ) -> Vec<u8> {
        let mut w = Writer::with_capacity(capacity);
        w.put_u32(entries.len() as u32);
        for (key, value) in entries {
            w.put_bytes(key);
            w.put_bool(value.is_some());
            if let Some(value) = value {
                w.put_bytes(value);
            }
        }
        w.into_bytes()
    }
}

impl Functionality for KvStore {
    fn exec(&mut self, op: &[u8]) -> Vec<u8> {
        match KvOpView::from_bytes(op) {
            Ok(op) => self.run(op).to_bytes(),
            Err(_) => KvResult::Malformed.to_bytes(),
        }
    }

    /// The KVS partitions by record key. A plain scan routes by its
    /// range start (single-shard semantics); a pinned scan leg
    /// ([`KvOp::ScanShard`]) routes by its pin, which is how the
    /// client's scatter-gather read addresses every shard for the same
    /// range.
    fn shard_key(op: &[u8]) -> Option<&[u8]> {
        match *op.first()? {
            crate::ops::OP_GET | crate::ops::OP_DEL => op.get(1..),
            crate::ops::OP_PUT | crate::ops::OP_SCAN_SHARD | crate::ops::OP_FILL => {
                let len = u32::from_be_bytes(op.get(1..5)?.try_into().ok()?) as usize;
                op.get(5..5 + len)
            }
            crate::ops::OP_SCAN => op.get(5..),
            _ => None,
        }
    }

    /// GET and both scan flavours leave the store untouched, so a
    /// replica group may serve them on the follower read path.
    /// PUT/DEL/FILL (and anything malformed) must take the write path.
    fn is_readonly(op: &[u8]) -> bool {
        matches!(
            op.first(),
            Some(&crate::ops::OP_GET)
                | Some(&crate::ops::OP_SCAN)
                | Some(&crate::ops::OP_SCAN_SHARD)
        )
    }

    fn snapshot_into(&self, w: &mut Writer) {
        w.put_u32(self.map.len() as u32);
        for (k, v) in &self.map {
            w.put_bytes(k);
            w.put_bytes(v);
        }
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(snapshot);
        let n = r.get_u32()? as usize;
        // Decode every pair, then build the tree in one go: `collect`
        // sorts (one pass over a snapshot, which is written in key
        // order), keeps the last of equal keys as repeated inserts
        // would, and builds bottom-up instead of descending the tree
        // per record. Nothing is touched until the snapshot has decoded
        // whole. A pair is at least its two length prefixes, so a
        // lying count cannot reserve more than the input could hold.
        let mut pairs = Vec::with_capacity(n.min(r.remaining() / 8));
        for _ in 0..n {
            pairs.push((r.get_bytes()?.to_vec(), r.get_bytes()?.to_vec()));
        }
        r.finish()?;
        self.map = pairs.into_iter().collect();
        // The snapshot is the new persistence baseline; pending diffs
        // against the pre-restore contents are meaningless now.
        self.dirty.entries.clear();
        Ok(())
    }

    /// Drains the keys touched since the last persist, with the bytes
    /// each was last given, into a compact diff (`encode_delta` has the
    /// layout) without a look-up in the store. Always returns `Some` —
    /// the KVS supports delta persistence even when the diff happens to
    /// be empty (the empty delta is a valid no-op replay record).
    fn take_delta(&mut self) -> Option<Vec<u8>> {
        let dirty = std::mem::take(&mut self.dirty.entries);
        let entries = dirty.iter().map(|(key, value)| (key, value.as_ref()));
        let hint = self.dirty.last_delta_len.min(DELTA_HINT_MAX);
        let delta = Self::encode_delta(entries, hint);
        self.dirty.last_delta_len = delta.len();
        Some(delta)
    }

    fn apply_delta(&mut self, delta: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(delta);
        let n = r.get_u32()? as usize;
        // Decode fully before mutating so a malformed delta cannot
        // leave the store half-updated.
        let mut entries = Vec::with_capacity(n.min(r.remaining() / 5));
        for _ in 0..n {
            let k = r.get_bytes()?;
            let v = if r.get_bool()? {
                Some(r.get_bytes()?)
            } else {
                None
            };
            entries.push((k, v));
        }
        r.finish()?;
        for (k, v) in entries {
            // A pending diff entry follows the key it names.
            if let Some(held) = self.dirty.entries.get_mut(k) {
                *held = v.map(<[u8]>::to_vec);
            }
            let Some(v) = v else {
                self.map.remove(k);
                continue;
            };
            // A key past the store's last one is new: no look-up for
            // it first (a bulk load's delta is all such keys).
            let beyond = (self.map.last_key_value()).map_or(true, |(last, _)| k > last.as_slice());
            match if beyond { None } else { self.map.get_mut(k) } {
                Some(held) => overwrite(held, v),
                None => {
                    self.map.insert(k.to_vec(), v.to_vec());
                }
            }
        }
        Ok(())
    }

    /// Extracts and removes the records whose keys satisfy `belongs` —
    /// the record key IS the partition key ([`KvStore`]'s `shard_key`
    /// routes by it), so the predicate selects exactly the routing
    /// slice's state — as a delta of `present` entries, which the
    /// adopting shard merges with `apply_delta`. Removed keys are also
    /// dropped from the dirty set so later deltas cannot resurrect
    /// them on the exporting shard.
    fn take_partition(&mut self, belongs: &dyn Fn(&[u8]) -> bool) -> Option<Vec<u8>> {
        let mut moved = Vec::new();
        self.map.retain(|key, value| {
            let goes = belongs(key);
            if goes {
                moved.push((key.clone(), std::mem::take(value)));
            }
            !goes
        });
        for (key, _) in &moved {
            self.dirty.entries.remove(key);
        }
        let len: usize = moved.iter().map(|(k, v)| 9 + k.len() + v.len()).sum();
        let entries = moved.iter().map(|(key, value)| (key, Some(value)));
        Some(Self::encode_delta(entries, 4 + len))
    }

    fn heap_bytes(&self) -> usize {
        self.map
            .iter()
            .map(|(k, v)| self.memory_model.0.bytes_per_object(k.len(), v.len()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn put_get_del_cycle() {
        let mut s = KvStore::default();
        assert_eq!(s.apply(&KvOp::Get(b"k".to_vec())), KvResult::Value(None));
        assert_eq!(
            s.apply(&KvOp::Put(b"k".to_vec(), b"v1".to_vec())),
            KvResult::Stored
        );
        assert_eq!(
            s.apply(&KvOp::Get(b"k".to_vec())),
            KvResult::Value(Some(b"v1".to_vec()))
        );
        assert_eq!(
            s.apply(&KvOp::Put(b"k".to_vec(), b"v2".to_vec())),
            KvResult::Stored
        );
        assert_eq!(
            s.apply(&KvOp::Get(b"k".to_vec())),
            KvResult::Value(Some(b"v2".to_vec()))
        );
        assert_eq!(s.apply(&KvOp::Del(b"k".to_vec())), KvResult::Deleted(true));
        assert_eq!(s.apply(&KvOp::Del(b"k".to_vec())), KvResult::Deleted(false));
        assert!(s.is_empty());
    }

    #[test]
    fn exec_rejects_malformed_bytes() {
        let mut s = KvStore::default();
        let out = s.exec(&[0xff, 0x01]);
        assert_eq!(KvResult::from_bytes(&out).unwrap(), KvResult::Malformed);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = KvStore::default();
        for i in 0..50u32 {
            s.apply(&KvOp::Put(
                format!("key-{i}").into_bytes(),
                format!("value-{i}").into_bytes(),
            ));
        }
        let snap = s.snapshot();
        let mut restored = KvStore::default();
        restored.restore(&snap).unwrap();
        assert_eq!(restored, s);
        assert_eq!(restored.get(b"key-7"), Some(&b"value-7"[..]));
    }

    #[test]
    fn restore_replaces_existing_state() {
        let mut a = KvStore::default();
        a.apply(&KvOp::Put(b"only-in-a".to_vec(), b"x".to_vec()));
        let empty = KvStore::default().snapshot();
        a.restore(&empty).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn heap_accounting_matches_paper_scale() {
        // §6.2: 300k objects with 40 B keys and 100 B values ≈ 93 MB.
        // Check the per-object cost without inserting 300k entries.
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(vec![b'k'; 40], vec![b'v'; 100]));
        let per_object = s.heap_bytes();
        let total_300k = per_object * 300_000;
        let mb = total_300k as f64 / 1e6;
        assert!((85.0..=105.0).contains(&mb), "mb = {mb}");
    }

    #[test]
    fn shard_key_extracts_the_record_key() {
        assert_eq!(
            KvStore::shard_key(&KvOp::Get(b"k1".to_vec()).to_bytes()),
            Some(&b"k1"[..])
        );
        assert_eq!(
            KvStore::shard_key(&KvOp::Put(b"k2".to_vec(), b"v".to_vec()).to_bytes()),
            Some(&b"k2"[..])
        );
        assert_eq!(
            KvStore::shard_key(&KvOp::Del(b"k3".to_vec()).to_bytes()),
            Some(&b"k3"[..])
        );
        assert_eq!(
            KvStore::shard_key(
                &KvOp::Scan {
                    start: b"k4".to_vec(),
                    limit: 9,
                }
                .to_bytes()
            ),
            Some(&b"k4"[..])
        );
        assert_eq!(KvStore::shard_key(&[0x7f, 1]), None);
        assert_eq!(KvStore::shard_key(&[]), None);
    }

    #[test]
    fn fill_bulk_loads_synthetic_records() {
        let mut s = KvStore::default();
        assert_eq!(
            s.apply(&KvOp::Fill {
                pin: b"p".to_vec(),
                start: 5,
                count: 3,
                value_len: 4,
            }),
            KvResult::Stored
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(b"0000000000000005"), Some(&b"xxxx"[..]));
        assert_eq!(s.get(b"0000000000000007"), Some(&b"xxxx"[..]));
        assert_eq!(s.get(b"0000000000000008"), None);
    }

    #[test]
    fn fill_rejects_absurd_counts() {
        let mut s = KvStore::default();
        assert_eq!(
            s.apply(&KvOp::Fill {
                pin: vec![],
                start: 0,
                count: u32::MAX,
                value_len: 1,
            }),
            KvResult::Malformed
        );
        assert!(s.is_empty());
    }

    #[test]
    fn delta_replays_to_the_same_state() {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"stable".to_vec(), b"s".to_vec()));
        let _ = s.take_delta(); // reset the diff baseline
        let mut follower = s.clone();

        s.apply(&KvOp::Put(b"a".to_vec(), b"1".to_vec()));
        s.apply(&KvOp::Put(b"a".to_vec(), b"2".to_vec()));
        s.apply(&KvOp::Put(b"gone".to_vec(), b"x".to_vec()));
        s.apply(&KvOp::Del(b"gone".to_vec()));
        s.apply(&KvOp::Del(b"stable".to_vec()));
        s.apply(&KvOp::Fill {
            pin: vec![],
            start: 10,
            count: 2,
            value_len: 1,
        });

        let delta = s.take_delta().unwrap();
        follower.apply_delta(&delta).unwrap();
        assert_eq!(follower, s);
        assert_eq!(follower.get(b"a"), Some(&b"2"[..]));
        assert_eq!(follower.get(b"stable"), None);
        assert_eq!(follower.get(b"000000000000000a"), Some(&b"x"[..]));
    }

    #[test]
    fn take_delta_drains_the_dirty_set() {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"k".to_vec(), b"v".to_vec()));
        let first = s.take_delta().unwrap();
        let second = s.take_delta().unwrap();
        assert_ne!(first, second);
        // The second delta is empty (count = 0) and replays as a no-op.
        let mut t = KvStore::default();
        t.apply_delta(&second).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn take_partition_moves_records_and_their_dirt() {
        let mut a = KvStore::default();
        a.apply(&KvOp::Put(b"a1".to_vec(), b"1".to_vec()));
        a.apply(&KvOp::Put(b"b1".to_vec(), b"2".to_vec()));
        a.apply(&KvOp::Put(b"a2".to_vec(), b"3".to_vec()));
        let part = a.take_partition(&|k| k.starts_with(b"a")).unwrap();
        // The exporter no longer holds the moved records...
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(b"b1"), Some(&b"2"[..]));
        // ...and its next delta no longer mentions them (a later delta
        // replay must not resurrect the slice on the old owner).
        let mut replay = KvStore::default();
        replay.apply_delta(&a.take_delta().unwrap()).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay.get(b"b1"), Some(&b"2"[..]));

        // The importer merges them alongside its own records...
        let mut b = KvStore::default();
        b.apply(&KvOp::Put(b"c".to_vec(), b"x".to_vec()));
        b.apply_delta(&part).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(b"a1"), Some(&b"1"[..]));
        assert_eq!(b.get(b"a2"), Some(&b"3"[..]));
        assert_eq!(b.get(b"c"), Some(&b"x"[..]));
    }

    #[test]
    fn take_partition_with_no_matches_is_an_empty_transfer() {
        let mut a = KvStore::default();
        a.apply(&KvOp::Put(b"k".to_vec(), b"v".to_vec()));
        let part = a.take_partition(&|_| false).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(part, KvStore::default().take_delta().unwrap());
        let mut b = KvStore::default();
        b.apply_delta(&part).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn reads_do_not_dirty_the_store() {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"k".to_vec(), b"v".to_vec()));
        let _ = s.take_delta();
        s.apply(&KvOp::Get(b"k".to_vec()));
        s.apply(&KvOp::Scan {
            start: vec![],
            limit: 5,
        });
        let delta = s.take_delta().unwrap();
        let mut t = KvStore::default();
        t.apply_delta(&delta).unwrap();
        assert!(t.is_empty(), "reads must not appear in the diff");
    }

    #[test]
    fn apply_delta_rejects_malformed_bytes_without_mutating() {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"k".to_vec(), b"v".to_vec()));
        let before = s.clone();
        // Promise two entries, deliver none.
        let mut w = Writer::new();
        w.put_u32(2);
        assert!(s.apply_delta(&w.into_bytes()).is_err());
        assert_eq!(s, before);
        assert_eq!(s.get(b"k"), Some(&b"v"[..]));
    }

    #[test]
    fn restore_clears_pending_diff() {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"pre".to_vec(), b"x".to_vec()));
        let snap = KvStore::default().snapshot();
        s.restore(&snap).unwrap();
        let delta = s.take_delta().unwrap();
        let mut t = KvStore::default();
        t.apply_delta(&delta).unwrap();
        assert!(t.is_empty(), "restore must reset the diff baseline");
    }

    #[test]
    fn fill_shard_key_is_the_pin() {
        let op = KvOp::Fill {
            pin: b"pin-2".to_vec(),
            start: 0,
            count: 1,
            value_len: 1,
        };
        assert_eq!(KvStore::shard_key(&op.to_bytes()), Some(&b"pin-2"[..]));
        assert!(!KvStore::is_readonly(&op.to_bytes()));
    }

    #[test]
    fn restore_rejects_truncated_snapshot() {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"k".to_vec(), b"v".to_vec()));
        let snap = s.snapshot();
        let mut t = KvStore::default();
        assert!(t.restore(&snap[..snap.len() - 1]).is_err());
    }

    /// What `restore` means, record by record: decode a pair, insert
    /// it, the last of equal keys staying. The oracle for the bulk
    /// build.
    fn restore_by_inserts(snapshot: &[u8]) -> Result<BTreeMap<Vec<u8>, Vec<u8>>, CodecError> {
        let mut r = Reader::new(snapshot);
        let mut map = BTreeMap::new();
        for _ in 0..r.get_u32()? {
            let k = r.get_bytes()?.to_vec();
            map.insert(k, r.get_bytes()?.to_vec());
        }
        r.finish()?;
        Ok(map)
    }

    fn snapshot_of(pairs: &[(&[u8], &[u8])]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(pairs.len() as u32);
        for (k, v) in pairs {
            w.put_bytes(k);
            w.put_bytes(v);
        }
        w.into_bytes()
    }

    /// A store with one record and one pending diff entry: what a
    /// failed restore must leave exactly as it was.
    fn occupied() -> KvStore {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"before".to_vec(), b"restore".to_vec()));
        s
    }

    #[test]
    fn restore_of_an_unsorted_snapshot_with_a_duplicate_key_is_the_insert_loops() {
        // No snapshot this store writes looks like this; a sealed one
        // from elsewhere still has to mean what it always meant.
        let snap = snapshot_of(&[
            (b"m", b"first"),
            (b"z", b"last-key"),
            (b"a", b"first-key"),
            (b"m", b"second"),
            (b"", b"empty-key"),
            (b"m", b"third"),
        ]);
        let mut s = occupied();
        s.restore(&snap).unwrap();
        assert_eq!(s.map, restore_by_inserts(&snap).unwrap());
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(b"m"), Some(&b"third"[..]), "the last duplicate wins");
        assert_eq!(s.get(b"before"), None);
        assert!(
            s.dirty.entries.is_empty(),
            "the snapshot is the new baseline"
        );
    }

    #[test]
    fn restore_of_a_snapshot_cut_at_any_byte_touches_nothing() {
        let mut source = KvStore::default();
        for i in 0..40u32 {
            source.apply(&KvOp::Put(
                format!("key-{i:03}").into_bytes(),
                vec![i as u8; (i % 7) as usize],
            ));
        }
        let snap = source.snapshot();
        for cut in 0..snap.len() {
            let mut s = occupied();
            assert!(restore_by_inserts(&snap[..cut]).is_err(), "cut {cut}");
            assert!(s.restore(&snap[..cut]).is_err(), "cut {cut}");
            assert_eq!(s, occupied(), "cut {cut}: state touched");
            assert_eq!(
                s.dirty.entries,
                occupied().dirty.entries,
                "cut {cut}: diff touched"
            );
        }
        // Trailing bytes are as malformed as missing ones.
        let mut s = occupied();
        assert!(s.restore(&[&snap[..], &[0]].concat()).is_err());
        assert_eq!(s, occupied());
        // And whole, it restores: state replaced, diff baseline reset.
        s.restore(&snap).unwrap();
        assert_eq!(s, source);
        assert!(s.dirty.entries.is_empty());
    }

    #[test]
    fn restore_bounds_what_a_lying_count_can_reserve() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // four billion records in four bytes
        let mut s = occupied();
        assert!(s.restore(&w.into_bytes()).is_err());
        assert_eq!(s, occupied());
    }

    /// `take_delta` as it was before the dirty set kept values: each
    /// dirty key looked up in the store. The oracle for the dirty set;
    /// it leaves the set as it is.
    fn take_delta_by_lookup(s: &KvStore) -> Vec<u8> {
        KvStore::encode_delta(s.dirty.entries.keys().map(|k| (k, s.map.get(k))), 0)
    }

    #[derive(Debug, Clone)]
    enum Step {
        Op(KvOp),
        /// Moves out the records whose first byte is this one modulo 4.
        Partition(u8),
        /// Applies a delta of these entries, `None` deleting.
        Apply(Vec<(Vec<u8>, Option<Vec<u8>>)>),
        /// Takes a delta, and keeps a snapshot for `Restore`.
        Take,
        Restore,
    }

    /// Few keys, so that operations meet: short byte strings, and the
    /// keys a `Fill` makes.
    fn arb_key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(0u8..4, 0..3),
            (0u64..6).prop_map(|n| format!("{n:016x}").into_bytes()),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let value = proptest::collection::vec(any::<u8>(), 0..12);
        let entry = (arb_key(), proptest::option::of(value.clone()));
        prop_oneof![
            6 => (arb_key(), value).prop_map(|(k, v)| Step::Op(KvOp::Put(k, v))),
            2 => arb_key().prop_map(|k| Step::Op(KvOp::Del(k))),
            1 => (0u64..6, 0u32..4, 0u32..5).prop_map(|(start, count, value_len)| {
                Step::Op(KvOp::Fill { pin: Vec::new(), start, count, value_len })
            }),
            1 => any::<u8>().prop_map(Step::Partition),
            1 => proptest::collection::vec(entry, 0..4).prop_map(Step::Apply),
            2 => Just(Step::Take),
            1 => Just(Step::Restore),
        ]
    }

    proptest! {
        /// Whatever the sequence of writes, deletions, bulk loads,
        /// partition moves, applied deltas and restores, every delta the
        /// store drains is byte for byte the one the lookup oracle
        /// encodes from the same dirty keys.
        #[test]
        fn every_delta_is_the_lookup_oracle_s(steps in proptest::collection::vec(arb_step(), 0..60)) {
            let mut s = KvStore::default();
            let mut saved = KvStore::default().snapshot();
            for step in steps.into_iter().chain([Step::Take]) {
                match step {
                    Step::Op(op) => {
                        s.apply(&op);
                    }
                    Step::Partition(b) => {
                        s.take_partition(&|k| k.first().is_some_and(|f| f % 4 == b % 4));
                    }
                    Step::Apply(entries) => {
                        let entries = entries.iter().map(|(k, v)| (k, v.as_ref()));
                        s.apply_delta(&KvStore::encode_delta(entries, 0)).unwrap();
                    }
                    Step::Take => {
                        let want = take_delta_by_lookup(&s);
                        prop_assert_eq!(s.take_delta().unwrap(), want);
                        prop_assert!(s.dirty.entries.is_empty());
                        saved = s.snapshot();
                    }
                    Step::Restore => s.restore(&saved).unwrap(),
                }
            }
        }
    }
}
