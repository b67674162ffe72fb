//! Model-based property tests: the enclave `KvStore` must behave
//! exactly like a reference `BTreeMap` under arbitrary op sequences,
//! through serialization boundaries and through the full byte-level
//! `Functionality` interface.

use std::collections::{BTreeMap, BTreeSet};

use lcm_core::codec::{WireCodec, Writer};
use lcm_core::functionality::Functionality;
use lcm_kvs::ops::{KvOp, KvResult};
use lcm_kvs::store::KvStore;
use proptest::prelude::*;

/// Operations over keys of 0–8 arbitrary bytes.
fn arb_op() -> impl Strategy<Value = KvOp> {
    ops_over(|| proptest::collection::vec(any::<u8>(), 0..8))
}

/// Operations over keys of 0–8 arbitrary bytes and over
/// [`long_key`]s.
fn arb_op_any_length() -> impl Strategy<Value = KvOp> {
    ops_over(|| prop_oneof![proptest::collection::vec(any::<u8>(), 0..8), long_key()])
}

/// A key of 0–40 bytes over a two-letter alphabet, often one of 21–24
/// bytes sharing a prefix with the others: the store holds a key of up
/// to 22 bytes in place and a longer one on the heap, and these keys
/// meet and order across that bound.
fn long_key() -> impl Strategy<Value = Vec<u8>> {
    let letters = |len| proptest::collection::vec(b'a'..b'c', len);
    prop_oneof![
        letters(0..41),
        (21usize..24, letters(0..2)).prop_map(|(n, tail)| [vec![b'a'; n], tail].concat()),
    ]
}

/// Every kind of operation, its keys drawn from `key`.
fn ops_over<K: Strategy<Value = Vec<u8>> + 'static>(
    key: impl Fn() -> K,
) -> impl Strategy<Value = KvOp> {
    let value = proptest::collection::vec(any::<u8>(), 0..32);
    prop_oneof![
        3 => key().prop_map(KvOp::Get),
        3 => (key(), value).prop_map(|(k, v)| KvOp::Put(k, v)),
        1 => key().prop_map(KvOp::Del),
        1 => (key(), any::<u32>()).prop_map(|(start, limit)| KvOp::Scan {
            start,
            limit: limit % 16,
        }),
        1 => (key(), key(), any::<u32>()).prop_map(|(pin, start, limit)| KvOp::ScanShard {
            pin,
            start,
            limit: limit % 16,
        }),
        1 => (
            proptest::collection::vec(any::<u8>(), 0..8),
            any::<u64>(),
            0u32..4,
            0u32..8,
        )
            .prop_map(|(pin, start, count, value_len)| KvOp::Fill {
                pin,
                start,
                count,
                value_len,
            }),
    ]
}

fn reference_apply(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &KvOp) -> KvResult {
    match op {
        KvOp::Get(k) => KvResult::Value(model.get(k).cloned()),
        KvOp::Put(k, v) => {
            model.insert(k.clone(), v.clone());
            KvResult::Stored
        }
        KvOp::Del(k) => KvResult::Deleted(model.remove(k).is_some()),
        // A pinned scan executes exactly like a plain scan; the pin
        // only affects routing.
        KvOp::Scan { start, limit } | KvOp::ScanShard { start, limit, .. } => KvResult::Range(
            model
                .range(start.clone()..)
                .take(*limit as usize)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        ),
        KvOp::Fill {
            start,
            count,
            value_len,
            ..
        } => {
            for i in 0..u64::from(*count) {
                model.insert(
                    format!("{:016x}", start.wrapping_add(i)).into_bytes(),
                    vec![b'x'; *value_len as usize],
                );
            }
            KvResult::Stored
        }
    }
}

/// A key from a space of seven, so that operations collide.
fn small_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..2, 0..3)
}

/// One step of a byte-level script: an operation's bytes — a valid
/// encoding, one cut short or grown, or garbage — or a persist.
#[derive(Debug, Clone)]
enum Step {
    Exec(Vec<u8>),
    TakeDelta,
}

/// The encoding of a valid operation over [`small_key`]s.
fn valid_op_bytes() -> impl Strategy<Value = Vec<u8>> {
    let value = proptest::collection::vec(any::<u8>(), 0..24);
    prop_oneof![
        2 => small_key().prop_map(KvOp::Get),
        4 => (small_key(), value).prop_map(|(k, v)| KvOp::Put(k, v)),
        1 => small_key().prop_map(KvOp::Del),
        1 => (small_key(), 0u32..8).prop_map(|(start, limit)| KvOp::Scan { start, limit }),
        1 => (small_key(), small_key(), 0u32..8)
            .prop_map(|(pin, start, limit)| KvOp::ScanShard { pin, start, limit }),
        1 => (0u64..4, 0u32..4, 0u32..6).prop_map(|(start, count, value_len)| KvOp::Fill {
            pin: Vec::new(),
            start,
            count,
            value_len,
        }),
    ]
    .prop_map(|op| op.to_bytes())
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => valid_op_bytes().prop_map(Step::Exec),
        1 => (valid_op_bytes(), 0usize..64).prop_map(|(mut bytes, cut)| {
            bytes.truncate(cut % (bytes.len() + 1));
            Step::Exec(bytes)
        }),
        1 => (valid_op_bytes(), any::<u8>()).prop_map(|(mut bytes, extra)| {
            bytes.push(extra);
            Step::Exec(bytes)
        }),
        1 => proptest::collection::vec(any::<u8>(), 0..16).prop_map(Step::Exec),
        2 => Just(Step::TakeDelta),
    ]
}

/// The keys `op` writes (or deletes).
fn written_keys(op: &KvOp) -> Vec<Vec<u8>> {
    match op {
        KvOp::Put(k, _) | KvOp::Del(k) => vec![k.clone()],
        KvOp::Fill { start, count, .. } => (0..u64::from(*count))
            .map(|i| format!("{:016x}", start.wrapping_add(i)).into_bytes())
            .collect(),
        KvOp::Get(_) | KvOp::Scan { .. } | KvOp::ScanShard { .. } => Vec::new(),
    }
}

/// The diff of `written` against `model`, in the delta layout: the
/// count, then per key in order `key ‖ present ‖ value?`.
fn reference_diff(model: &BTreeMap<Vec<u8>, Vec<u8>>, written: &BTreeSet<Vec<u8>>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(written.len() as u32);
    for key in written {
        w.put_bytes(key);
        let value = model.get(key);
        w.put_bool(value.is_some());
        if let Some(value) = value {
            w.put_bytes(value);
        }
    }
    w.into_bytes()
}

proptest! {
    // Pinned case count so CI time is bounded; the runner's seed is
    // derived deterministically from each test's name.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Typed path equals the reference model.
    #[test]
    fn store_matches_reference(ops in proptest::collection::vec(arb_op_any_length(), 0..200)) {
        let mut store = KvStore::default();
        let mut model = BTreeMap::new();
        for op in &ops {
            prop_assert_eq!(store.apply(op), reference_apply(&mut model, op));
        }
        prop_assert_eq!(store.len(), model.len());
    }

    /// The byte-level Functionality interface agrees with the typed
    /// path.
    #[test]
    fn exec_bytes_match_typed(ops in proptest::collection::vec(arb_op(), 0..100)) {
        let mut typed = KvStore::default();
        let mut raw = KvStore::default();
        for op in &ops {
            let typed_result = typed.apply(op);
            let raw_result = KvResult::from_bytes(&raw.exec(&op.to_bytes())).unwrap();
            prop_assert_eq!(typed_result, raw_result);
        }
    }

    /// `exec` — one borrowed view of the op, executed in place — is
    /// the owned route byte for byte: decode a `KvOp`, `apply` it,
    /// encode the `KvResult` (`Malformed` when the bytes do not
    /// decode). Both stores hold the same records and owe the same
    /// diff after every step, including keys touched again before a
    /// persist.
    ///
    /// Each diff is also the reference model's: the keys written since
    /// the last one, each once, with its value now or its absence.
    #[test]
    fn exec_is_the_owned_route(script in proptest::collection::vec(arb_step(), 0..120)) {
        let mut in_place = KvStore::default();
        let mut owned = KvStore::default();
        let mut model = BTreeMap::new();
        let mut written = BTreeSet::new();
        for step in &script {
            match step {
                Step::Exec(bytes) => {
                    let expected = match KvOp::from_bytes(bytes) {
                        Ok(op) => {
                            written.extend(written_keys(&op));
                            let result = owned.apply(&op);
                            prop_assert_eq!(&result, &reference_apply(&mut model, &op));
                            result.to_bytes()
                        }
                        Err(_) => KvResult::Malformed.to_bytes(),
                    };
                    prop_assert_eq!(in_place.exec(bytes), expected);
                }
                Step::TakeDelta => {
                    let diff = in_place.take_delta();
                    prop_assert_eq!(&diff, &owned.take_delta());
                    prop_assert_eq!(diff, Some(reference_diff(&model, &written)));
                    written.clear();
                }
            }
            prop_assert_eq!(in_place.snapshot(), owned.snapshot());
        }
        prop_assert_eq!(in_place.take_delta(), Some(reference_diff(&model, &written)));
        prop_assert_eq!(&in_place, &owned);
    }

    /// Snapshot/restore at any point is transparent.
    #[test]
    fn snapshot_restore_any_point(
        before in proptest::collection::vec(arb_op_any_length(), 0..60),
        after in proptest::collection::vec(arb_op_any_length(), 0..60),
    ) {
        let mut direct = KvStore::default();
        let mut checkpointed = KvStore::default();
        for op in &before {
            direct.apply(op);
            checkpointed.apply(op);
        }
        // Round-trip through the serialization interface.
        let snap = checkpointed.snapshot();
        let mut restored = KvStore::default();
        restored.restore(&snap).unwrap();
        for op in &after {
            prop_assert_eq!(direct.apply(op), restored.apply(op));
        }
        prop_assert_eq!(direct, restored);
    }

    /// Snapshots are canonical: equal stores produce identical bytes.
    #[test]
    fn snapshots_are_canonical(ops in proptest::collection::vec(arb_op_any_length(), 0..60)) {
        let mut a = KvStore::default();
        for op in &ops {
            a.apply(op);
        }
        let snap = a.snapshot();
        let mut b = KvStore::default();
        b.restore(&snap).unwrap();
        prop_assert_eq!(b.snapshot(), snap);
    }

    /// heap_bytes is monotone under inserts of fresh keys.
    #[test]
    fn heap_monotone_under_fresh_inserts(n in 1usize..50) {
        let mut store = KvStore::default();
        let mut last = store.heap_bytes();
        for i in 0..n {
            store.apply(&KvOp::Put(format!("key-{i}").into_bytes(), vec![0u8; 10]));
            let now = store.heap_bytes();
            prop_assert!(now > last);
            last = now;
        }
    }

    /// Malformed op bytes never panic and never mutate state.
    #[test]
    fn malformed_ops_are_inert(garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assume!(KvOp::from_bytes(&garbage).is_err());
        let mut store = KvStore::default();
        store.apply(&KvOp::Put(b"k".to_vec(), b"v".to_vec()));
        let snap_before = store.snapshot();
        let result = store.exec(&garbage);
        prop_assert_eq!(KvResult::from_bytes(&result).unwrap(), KvResult::Malformed);
        prop_assert_eq!(store.snapshot(), snap_before);
    }
}
