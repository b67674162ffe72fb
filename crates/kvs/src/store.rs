//! The in-enclave key-value store: the functionality `F`.
//!
//! Three choices keep a `Put` at cache speed without changing a byte
//! the store emits:
//!
//! * **Inline record keys.** The index is a `BTreeMap` keyed by a
//!   24-byte `Key` that holds up to 22 bytes in place and puts only
//!   longer keys on the heap (`std::string`'s short-string form). A
//!   look-up compares keys inside the tree's own nodes instead of
//!   following one pointer per key it passes, and a bulk load or a
//!   restore allocates no buffer per key. The type orders, compares,
//!   hashes and borrows exactly as `[u8]`, so the map iterates in byte
//!   order and can be searched with plain byte slices. Two inline keys
//!   compare as two integers each, without a call to `memcmp`, so a key
//!   that fits inline is searched for as a `Key`.
//! * **An append-only dirty log.** Each write since the last
//!   [`Functionality::take_delta`] is one pushed `(key, value range,
//!   present)` touch over one reused value arena: no tree search and
//!   no node allocated per touch. The drain sorts the log once, keeps
//!   each key's last touch and encodes the diff in key order.
//! * **One ordered index, no hash index.** A hash map beside an
//!   ordered key set was measured too: about 3 % more `Put`s per second
//!   on a compute-bound lane, but 30–40 % more time to recover a store,
//!   since a restore then builds two indexes. The ordered map alone
//!   serves point look-ups, scans and key-ordered snapshots.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, Range};

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
/// the §6.2 EPC paging model faithfully, whatever the in-memory key
/// layout (the model charges a `std::string` key, as the paper's map
/// holds).
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
    map: BTreeMap<Key, Vec<u8>>,
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

/// The most key bytes a [`Key`] holds in place: with the length and
/// the variant tag, 24 bytes — the size of the `Vec<u8>` it replaces.
const INLINE_KEY: usize = 22;

/// A record key, ordered, compared, hashed and borrowed exactly as the
/// `[u8]` it holds.
#[derive(Clone)]
enum Key {
    /// A key of at most [`INLINE_KEY`] bytes, in place, padded with
    /// zeros.
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    /// A longer key, on the heap.
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    fn new(key: &[u8]) -> Key {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Heap(key.into())
        }
    }

    /// An inline key as two big-endian integers: its first 16 padded
    /// bytes, then its last 6 with a zero byte and its length. They
    /// compare as the key's bytes do: where two padded keys first
    /// differ, either both bytes are the keys' own or the shorter key
    /// ended there (its zero against the other's nonzero byte); where
    /// they do not differ, one key is a prefix of the other and the
    /// length decides.
    fn words(len: u8, bytes: &[u8; INLINE_KEY]) -> (u128, u64) {
        let mut head = [0; 16];
        head.copy_from_slice(&bytes[..16]);
        let mut tail = [0; 8];
        tail[..6].copy_from_slice(&bytes[16..]);
        tail[7] = len;
        (u128::from_be_bytes(head), u64::from_be_bytes(tail))
    }
}

impl Deref for Key {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Key::Heap(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Two inline keys by [`Key::words`], without a call to `memcmp`;
    /// any other pair by its bytes.
    fn cmp(&self, other: &Key) -> Ordering {
        match (self, other) {
            (Key::Inline { len, bytes }, Key::Inline { len: l, bytes: b }) => {
                Key::words(*len, bytes).cmp(&Key::words(*l, b))
            }
            _ => (**self).cmp(&**other),
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// The writes since the last [`Functionality::take_delta`], in the
/// order made — the diff the sealed delta log persists instead of a
/// full snapshot, kept with the bytes each write gave so that draining
/// it looks nothing up in the store. Excluded from equality like the
/// memory model: two stores holding the same records are the same
/// store regardless of how recently their contents were persisted.
#[derive(Debug, Clone, Default)]
struct DirtyWrapper {
    /// One touch per write; a key's last touch is the one that counts.
    log: Vec<Touch>,
    /// The values the touches wrote, back to back.
    arena: Vec<u8>,
    /// Length of the last encoded delta: the next one's buffer starts
    /// at that size, up to [`DELTA_HINT_MAX`].
    last_delta_len: usize,
}

/// One write to the store: `key` was given `arena[value]`, or was
/// deleted (`present = false`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Touch {
    key: Key,
    value: Range<usize>,
    present: bool,
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

/// The most touches a drained log keeps room for: a batch's worth, not
/// a bulk load's.
const LOG_KEEP_MAX: usize = 4096;

/// The largest arena a drain keeps: a batch of large values' is given
/// back.
const ARENA_KEEP_MAX: usize = 1 << 20;

impl DirtyWrapper {
    /// Records that `key` now holds `value` (`None`: deleted): one push
    /// and one copy.
    fn touch(&mut self, key: Key, value: Option<&[u8]>) {
        let touch = Touch {
            key,
            value: self.stash(value.unwrap_or_default()),
            present: value.is_some(),
        };
        self.log.push(touch);
    }

    /// Copies `bytes` into the arena, returning where they lie.
    fn stash(&mut self, bytes: &[u8]) -> Range<usize> {
        let start = self.arena.len();
        self.arena.extend_from_slice(bytes);
        start..self.arena.len()
    }

    /// The bytes `touch` wrote, `None` for a deletion.
    fn value(&self, touch: &Touch) -> Option<&[u8]> {
        touch.present.then(|| &self.arena[touch.value.clone()])
    }

    /// Sorts the log by key, keeping only each key's last touch. The
    /// sort is stable, so a key's touches stay in the order made.
    fn compact(&mut self) {
        self.log.sort_by(|a, b| a.key.cmp(&b.key));
        self.log.dedup_by(|later, kept| {
            let same = later.key == kept.key;
            if same {
                kept.value = std::mem::take(&mut later.value);
                kept.present = later.present;
            }
            same
        });
    }

    /// A delta entry applied to the store: a key with a touch pending
    /// now holds `value`. Needs a [`DirtyWrapper::compact`]ed log.
    fn follow(&mut self, key: &[u8], value: Option<&[u8]>) {
        if let Ok(i) = self.log.binary_search_by(|t| (*t.key).cmp(key)) {
            let value_range = self.stash(value.unwrap_or_default());
            let touch = &mut self.log[i];
            touch.value = value_range;
            touch.present = value.is_some();
        }
    }

    /// Empties the log and the arena, keeping their buffers for the
    /// next batch unless they outgrew [`LOG_KEEP_MAX`] and
    /// [`ARENA_KEEP_MAX`].
    fn clear(&mut self) {
        if self.log.capacity() > LOG_KEEP_MAX {
            self.log = Vec::new();
        }
        if self.arena.capacity() > ARENA_KEEP_MAX {
            self.arena = Vec::new();
        }
        self.log.clear();
        self.arena.clear();
    }
}

/// Upper bound on a single [`KvOp::Fill`]'s record count.
const FILL_MAX_COUNT: u32 = 1 << 24;

/// Upper bound on a [`KvOp::Fill`] filler-value length.
const FILL_MAX_VALUE_LEN: u32 = 1 << 20;

/// Upper bound on the bytes one [`KvOp::Fill`] creates, `count × (16 +
/// value_len)`: the million-object benchmark preload of 100 B values
/// (≈ 116 MB) fits, and no count and length that are each within their
/// own bound can make the enclave ask for more.
const FILL_MAX_BYTES: u64 = 256 << 20;

/// The key a [`KvOp::Fill`] gives record `n`: its 16 lowercase hex
/// digits, made in place.
fn fill_key(n: u64) -> Key {
    let mut hex = [0; 16];
    for (i, digit) in hex.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(n >> (60 - 4 * i)) as usize & 0xf];
    }
    Key::new(&hex)
}

/// What one operation did, borrowing what it read from the store:
/// [`Functionality::exec`] encodes it, [`KvStore::apply`] copies it
/// into a [`KvResult`].
enum Outcome<'s> {
    /// A GET's value.
    Value(Option<&'s [u8]>),
    /// A scan's records.
    Range(std::iter::Take<btree_map::Range<'s, Key, Vec<u8>>>),
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
                let pairs = records.clone().map(|(k, v)| (&**k, v.as_slice()));
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
                    .map(|(k, v)| (k.to_vec(), v.clone()))
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
    /// key new to the store is copied into it.
    fn run(&mut self, op: KvOpView<'_>) -> Outcome<'_> {
        match op {
            KvOpView::Get(key) => Outcome::Value(self.get(key)),
            KvOpView::Put(key, value) => {
                self.put(key, value);
                Outcome::Done(KvResult::Stored)
            }
            KvOpView::Del(key) => {
                let key = Key::new(key);
                let existed = self.map.remove(&key).is_some();
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
                // Each bound before the product, so that it cannot
                // overflow; all before anything is allocated.
                if count > FILL_MAX_COUNT
                    || value_len > FILL_MAX_VALUE_LEN
                    || u64::from(count) * (16 + u64::from(value_len)) > FILL_MAX_BYTES
                {
                    return Outcome::Done(KvResult::Malformed);
                }
                // Every record gets the same value, so the log's
                // touches share one copy of it in the arena.
                let value = vec![b'x'; value_len as usize];
                let stashed = self.dirty.stash(&value);
                for i in 0..u64::from(count) {
                    let key = fill_key(start.wrapping_add(i));
                    self.dirty.log.push(Touch {
                        key: key.clone(),
                        value: stashed.clone(),
                        present: true,
                    });
                    match self.map.entry(key) {
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

    /// Stores `value` under `key` and logs the write. The key is made
    /// once, for the search, the store and the log.
    fn put(&mut self, key: &[u8], value: &[u8]) {
        let key = Key::new(key);
        match self.map.get_mut(&key) {
            Some(held) => overwrite(held, value),
            None => {
                self.map.insert(key.clone(), value.to_vec());
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

    /// Read access to one record, as a GET has it. A key that fits
    /// inline is searched as a `Key`, whose comparisons call no
    /// `memcmp`; a longer one by its bytes, so the search allocates
    /// nothing.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let held = if key.len() <= INLINE_KEY {
            self.map.get(&Key::new(key))
        } else {
            self.map.get(key)
        };
        held.map(Vec::as_slice)
    }

    /// The delta format: `count` entries of `key ‖ present ‖ value?`,
    /// a deletion travelling as `present = false`.
    fn encode_delta<'a>(
        entries: impl ExactSizeIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
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
            pairs.push((Key::new(r.get_bytes()?), r.get_bytes()?.to_vec()));
        }
        r.finish()?;
        self.map = pairs.into_iter().collect();
        // The snapshot is the new persistence baseline; pending diffs
        // against the pre-restore contents are meaningless now.
        self.dirty.clear();
        Ok(())
    }

    /// Drains the writes since the last persist into a compact diff
    /// (`encode_delta` has the layout): the log sorted by key, each
    /// key's last touch with the bytes it gave, nothing looked up in
    /// the store. Always returns `Some` — the KVS supports delta
    /// persistence even when the diff happens to be empty (the empty
    /// delta is a valid no-op replay record).
    fn take_delta(&mut self) -> Option<Vec<u8>> {
        self.dirty.compact();
        let dirty = &self.dirty;
        let entries = (dirty.log.iter()).map(|touch| (&*touch.key, dirty.value(touch)));
        let hint = dirty.last_delta_len.min(DELTA_HINT_MAX);
        let delta = Self::encode_delta(entries, hint);
        self.dirty.last_delta_len = delta.len();
        self.dirty.clear();
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
        // A pending touch follows the key it names: one sort of the log
        // here, a binary search per entry below.
        let pending = !self.dirty.log.is_empty();
        if pending {
            self.dirty.compact();
        }
        for (k, v) in entries {
            if pending {
                self.dirty.follow(k, v);
            }
            let Some(v) = v else {
                self.map.remove(k);
                continue;
            };
            // A key past the store's last one is new: no look-up for
            // it first (a bulk load's delta is all such keys).
            let beyond = (self.map.last_key_value()).map_or(true, |(last, _)| k > &**last);
            match if beyond { None } else { self.map.get_mut(k) } {
                Some(held) => overwrite(held, v),
                None => {
                    self.map.insert(Key::new(k), v.to_vec());
                }
            }
        }
        Ok(())
    }

    /// Extracts and removes the records whose keys satisfy `belongs` —
    /// the record key IS the partition key ([`KvStore`]'s `shard_key`
    /// routes by it), so the predicate selects exactly the routing
    /// slice's state — as a delta of `present` entries, which the
    /// adopting shard merges with `apply_delta`. The touches of the
    /// removed keys are also dropped from the dirty log so later deltas
    /// cannot resurrect them on the exporting shard.
    fn take_partition(&mut self, belongs: &dyn Fn(&[u8]) -> bool) -> Option<Vec<u8>> {
        let mut moved = Vec::new();
        self.map.retain(|key, value| {
            let goes = belongs(key);
            if goes {
                moved.push((key.clone(), std::mem::take(value)));
            }
            !goes
        });
        // `moved` is in key order, as the map iterates.
        if !moved.is_empty() {
            (self.dirty.log).retain(|t| moved.binary_search_by(|(k, _)| k.cmp(&t.key)).is_err());
        }
        let len: usize = moved.iter().map(|(k, v)| 9 + k.len() + v.len()).sum();
        let entries = moved
            .iter()
            .map(|(key, value)| (&**key, Some(value.as_slice())));
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
    use std::collections::BTreeSet;

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
    fn fill_rejects_a_product_past_its_byte_bound() {
        // Each within its own bound; together 16 TiB.
        let op = KvOp::Fill {
            pin: vec![],
            start: 0,
            count: FILL_MAX_COUNT,
            value_len: FILL_MAX_VALUE_LEN,
        };
        let mut s = KvStore::default();
        assert_eq!(s.apply(&op), KvResult::Malformed);
        let out = s.exec(&op.to_bytes());
        assert_eq!(KvResult::from_bytes(&out).unwrap(), KvResult::Malformed);
        assert!(s.is_empty());
        assert!(s.dirty.log.is_empty() && s.dirty.arena.is_empty());
    }

    #[test]
    fn a_scan_from_an_inline_key_meets_the_heap_key_it_prefixes() {
        let inline = vec![b'k'; INLINE_KEY];
        let heap = [&inline[..], b"a"].concat();
        let after = [&inline[..INLINE_KEY - 1], b"l"].concat();
        let mut s = KvStore::default();
        for key in [&after, &heap, &inline[..INLINE_KEY - 1].to_vec(), &inline] {
            s.apply(&KvOp::Put(key.clone(), key[INLINE_KEY - 2..].to_vec()));
        }
        let scan = KvOp::Scan {
            start: inline.clone(),
            limit: 3,
        };
        let want = [&inline, &heap, &after].map(|k| (k.clone(), k[INLINE_KEY - 2..].to_vec()));
        assert_eq!(s.apply(&scan), KvResult::Range(want.to_vec()));
        assert_eq!(
            KvResult::from_bytes(&s.exec(&scan.to_bytes())).unwrap(),
            KvResult::Range(want.to_vec())
        );
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
    fn take_delta_keeps_the_buffers_of_the_dirty_set() {
        let mut s = KvStore::default();
        s.apply(&KvOp::Put(b"k".to_vec(), b"v".to_vec()));
        s.apply(&KvOp::Del(b"gone".to_vec()));
        let _ = s.take_delta();
        // The log and the arena are empty, their buffers kept.
        assert!(s.dirty.log.is_empty() && s.dirty.log.capacity() >= 2);
        assert!(s.dirty.arena.is_empty() && s.dirty.arena.capacity() >= 1);
        let put = KvOp::Put(b"k2".to_vec(), b"v2".to_vec());
        s.apply(&put);
        assert_eq!(s.dirty.log.len(), 1);
        assert_eq!(s.dirty.arena, b"v2");
        // The reused buffers change no byte of the next delta.
        let mut fresh = KvStore::default();
        fresh.apply(&put);
        assert_eq!(s.take_delta(), fresh.take_delta());
    }

    #[test]
    fn take_delta_keeps_no_large_buffer() {
        let mut s = KvStore::default();
        for i in 0..64u32 {
            let key = i.to_be_bytes().to_vec();
            s.apply(&KvOp::Put(key.clone(), vec![7; 64 * 1024]));
            s.apply(&KvOp::Del(key));
        }
        for i in 0..64u32 {
            s.apply(&KvOp::Put(i.to_be_bytes().to_vec(), vec![7; 64 * 1024]));
        }
        assert!(s.dirty.arena.len() >= 128 * 64 * 1024);
        let _ = s.take_delta();
        // The 8 MiB arena the values filled is given back.
        let kept = s.dirty.arena.capacity();
        assert!(kept <= ARENA_KEEP_MAX, "{kept} bytes of arena kept");
        // So is the log a bulk load filled.
        s.apply(&KvOp::Fill {
            pin: vec![],
            start: 0,
            count: 10_000,
            value_len: 1,
        });
        let _ = s.take_delta();
        let kept = s.dirty.log.capacity();
        assert!(kept <= LOG_KEEP_MAX, "room for {kept} touches kept");
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
        let held: BTreeMap<Vec<u8>, Vec<u8>> = (s.map.iter())
            .map(|(k, v)| (k.to_vec(), v.clone()))
            .collect();
        assert_eq!(held, restore_by_inserts(&snap).unwrap());
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(b"m"), Some(&b"third"[..]), "the last duplicate wins");
        assert_eq!(s.get(b"before"), None);
        assert!(s.dirty.log.is_empty(), "the snapshot is the new baseline");
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
            let dirty = |s: &KvStore| (s.dirty.log.clone(), s.dirty.arena.clone());
            assert_eq!(dirty(&s), dirty(&occupied()), "cut {cut}: diff touched");
        }
        // Trailing bytes are as malformed as missing ones.
        let mut s = occupied();
        assert!(s.restore(&[&snap[..], &[0]].concat()).is_err());
        assert_eq!(s, occupied());
        // And whole, it restores: state replaced, diff baseline reset.
        s.restore(&snap).unwrap();
        assert_eq!(s, source);
        assert!(s.dirty.log.is_empty());
    }

    #[test]
    fn restore_bounds_what_a_lying_count_can_reserve() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // four billion records in four bytes
        let mut s = occupied();
        assert!(s.restore(&w.into_bytes()).is_err());
        assert_eq!(s, occupied());
    }

    /// `take_delta` as it was before the dirty log kept values: each
    /// key it names looked up in the store, once, in key order. The
    /// oracle for the dirty log; it leaves the log as it is.
    fn take_delta_by_lookup(s: &KvStore) -> Vec<u8> {
        let keys: BTreeSet<&[u8]> = s.dirty.log.iter().map(|t| &*t.key).collect();
        KvStore::encode_delta(keys.into_iter().map(|k| (k, s.get(k))), 0)
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

    /// Few keys, so that operations meet: short byte strings, the
    /// keys a `Fill` makes, and keys on both sides of the inline bound.
    fn arb_key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(0u8..4, 0..3),
            (0u64..6).prop_map(|n| format!("{n:016x}").into_bytes()),
            long_key(),
        ]
    }

    /// A key of 0–40 bytes over a two-letter alphabet, often one of
    /// 21–24 bytes sharing a prefix with the others, so that keys held
    /// inline and keys held on the heap meet and order among
    /// themselves.
    fn long_key() -> impl Strategy<Value = Vec<u8>> {
        let letters = |len| proptest::collection::vec(b'a'..b'c', len);
        prop_oneof![
            letters(0..41),
            (21usize..24, letters(0..2)).prop_map(|(n, tail)| [vec![b'a'; n], tail].concat()),
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
                        let entries = entries.iter().map(|(k, v)| (&k[..], v.as_deref()));
                        s.apply_delta(&KvStore::encode_delta(entries, 0)).unwrap();
                    }
                    Step::Take => {
                        let want = take_delta_by_lookup(&s);
                        prop_assert_eq!(s.take_delta().unwrap(), want);
                        prop_assert!(s.dirty.log.is_empty());
                        saved = s.snapshot();
                    }
                    Step::Restore => s.restore(&saved).unwrap(),
                }
            }
        }

        /// A key orders, compares and reads back as its bytes, on
        /// either side of the inline bound and with zero bytes where
        /// an inline key's padding lies.
        #[test]
        fn a_key_is_its_bytes(
            a in proptest::collection::vec(0u8..3, 0..26),
            b in proptest::collection::vec(0u8..3, 0..26),
        ) {
            let (x, y) = (Key::new(&a), Key::new(&b));
            prop_assert_eq!(&*x, &a[..]);
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            prop_assert_eq!(x == y, a == b);
            let shorter = Key::new(&a[..a.len().saturating_sub(1)]);
            prop_assert_eq!(shorter.cmp(&x), a[..a.len().saturating_sub(1)].cmp(&a));
        }
    }
}
