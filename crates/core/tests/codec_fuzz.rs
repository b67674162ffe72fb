//! Robustness property tests: decoding arbitrary attacker-supplied
//! bytes must never panic, and valid encodings must roundtrip.
//!
//! Everything that crosses a trust boundary is covered: wire messages,
//! host calls/replies, the V map, provisioning payloads — and the
//! three inputs the untrusted host hands a lane's enclave outside the
//! invoke path: replication records, slice tickets, table bulletins.

use std::sync::Arc;

use lcm_core::admin::AdminHandle;
use lcm_core::client::LcmClient;
use lcm_core::codec::{Reader, WireCodec, Writer};
use lcm_core::functionality::Counter;
use lcm_core::program::{HostCall, HostReply};
use lcm_core::server::{BatchServer, LcmServer};
use lcm_core::shard::{build_sharded, route_hash};
use lcm_core::stability::{decode_vmap, encode_vmap, CachedReply, Quorum, VEntry, VMap};
use lcm_core::types::{ChainValue, ClientId, SeqNo};
use lcm_core::wire::{InvokeMsg, InvokeView, ReplyMsg, ReplyView};
use lcm_core::LcmError;
use lcm_storage::MemoryStorage;
use lcm_tee::world::TeeWorld;
use proptest::prelude::*;

fn arb_chain() -> impl Strategy<Value = ChainValue> {
    (any::<Vec<u8>>(), any::<u64>(), any::<u32>())
        .prop_map(|(op, t, i)| ChainValue::GENESIS.extend(&op, SeqNo(t), ClientId(i)))
}

fn arb_invoke() -> impl Strategy<Value = InvokeMsg> {
    (
        any::<u32>(),
        any::<u64>(),
        arb_chain(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(client, tc, hc, retry, op)| InvokeMsg {
            client: ClientId(client),
            tc: SeqNo(tc),
            hc,
            retry,
            op,
        })
}

fn arb_reply() -> impl Strategy<Value = ReplyMsg> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_chain(),
        arb_chain(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(t, q, h, hc_echo, redirect, result)| ReplyMsg {
            t: SeqNo(t),
            q: SeqNo(q),
            h,
            hc_echo,
            redirect,
            result,
        })
}

fn arb_ventry() -> impl Strategy<Value = VEntry> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_chain(),
        proptest::option::of((
            any::<u64>(),
            any::<u64>(),
            arb_chain(),
            arb_chain(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..64),
        )),
    )
        .prop_map(|(ta, t, h, cached)| VEntry {
            ta: SeqNo(ta),
            t: SeqNo(t),
            h,
            cached: cached.map(|(t, q, h, hc, redirect, result)| CachedReply {
                t: SeqNo(t),
                q: SeqNo(q),
                h,
                hc_echo: hc,
                redirect,
                result,
            }),
        })
}

/// A provisioned solo server with `batches` counter increments
/// executed (one per batch).
fn provisioned(batches: u64) -> LcmServer<Counter> {
    let world = TeeWorld::new_deterministic(61);
    let platform = world.platform_deterministic(1);
    let mut server = LcmServer::<Counter>::new(&platform, Arc::new(MemoryStorage::new()), 1);
    assert!(server.boot().unwrap());
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 3);
    admin.bootstrap(&mut server).unwrap();
    let mut client = LcmClient::new(ClientId(1), admin.client_key());
    for _ in 0..batches {
        server.submit(client.invoke(&Counter::inc_op(b"n", 1)).unwrap());
        let replies = server.process_all().unwrap();
        client.handle_reply(&replies[0].1).unwrap();
    }
    server
}

/// The lane-only verbs that take host-supplied bytes.
type HostInput = fn(&mut LcmServer<Counter>, &[u8]) -> Result<(), LcmError>;
const HOST_INPUTS: [(&str, HostInput); 3] = [
    ("apply_replica", |s, bytes| s.apply_replica(bytes).map(drop)),
    ("import_slice", |s, bytes| s.import_slice(bytes.to_vec())),
    ("adopt_table", |s, bytes| s.adopt_table(bytes.to_vec())),
];

/// Every strict prefix of a sealed checkpoint is refused by
/// `apply_replica`; prefixes of a `checkpoint ‖ deltas` bundle (where a
/// cut on a frame boundary is an older, valid state) at least never
/// panic; and the server recovers from its own medium afterwards.
#[test]
fn truncated_replication_records_are_refused() {
    let mut source = provisioned(0);
    let checkpoint = source.sealed_state().unwrap();
    assert!(lcm_storage::parse_bundle(&checkpoint).is_none());
    for cut in 0..checkpoint.len() {
        let outcome = source.apply_replica(&checkpoint[..cut]);
        assert!(outcome.is_err(), "prefix of {cut} bytes gave {outcome:?}");
        assert!(
            !source.boot().unwrap(),
            "a refusal costs a restart, not the state"
        );
    }
    source.apply_replica(&checkpoint).unwrap();

    let mut source = provisioned(3);
    let bundle = source.sealed_state().unwrap();
    let (_, deltas) = lcm_storage::parse_bundle(&bundle).expect("three batches were logged");
    assert!(!deltas.is_empty());
    for cut in 0..bundle.len() {
        let _ = source.apply_replica(&bundle[..cut]);
        source.boot().unwrap();
    }
}

/// Every strict prefix of a real slice ticket and of a real table
/// bulletin is refused by the lane it was sealed for, and the intact
/// ones still land afterwards: the refusals changed nothing.
#[test]
fn truncated_slice_tickets_and_bulletins_are_refused() {
    let world = TeeWorld::new_deterministic(62);
    let mut server =
        build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 4, 3, false);
    assert!(server.boot().unwrap());
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 4);
    admin.bootstrap(&mut server).unwrap();
    let mut client = LcmClient::new_sharded(ClientId(1), admin.client_key(), 3);
    server.submit(
        client
            .invoke_for::<Counter>(&Counter::inc_op(b"n", 7))
            .unwrap(),
    );
    let replies = server.process_all().unwrap();
    client.handle_reply(&replies[0].1).unwrap();

    let slice = lcm_core::routing::slice_of(route_hash(b"n"));
    let from = server.current_table().owner(slice);
    let (to, bystander) = ((from + 1) % 3, (from + 2) % 3);
    let (ticket, bulletin) = server
        .with_shard(from, |lane| lane.export_slice(slice, to))
        .unwrap();

    for cut in 0..ticket.len() {
        let outcome = server.with_shard(to, |lane| lane.import_slice(ticket[..cut].to_vec()));
        assert!(
            outcome.is_err(),
            "ticket prefix of {cut} bytes gave {outcome:?}"
        );
        assert!(!server.with_shard(to, |lane| lane.boot()).unwrap());
    }
    for cut in 0..bulletin.len() {
        let outcome =
            server.with_shard(bystander, |lane| lane.adopt_table(bulletin[..cut].to_vec()));
        assert!(
            outcome.is_err(),
            "bulletin prefix of {cut} bytes gave {outcome:?}"
        );
        assert!(!server.with_shard(bystander, |lane| lane.boot()).unwrap());
    }
    server
        .with_shard(bystander, |lane| lane.adopt_table(bulletin.clone()))
        .unwrap();
    server
        .with_shard(to, |lane| lane.import_slice(ticket.clone()))
        .unwrap();
}

proptest! {
    /// Arbitrary bytes into the lane-only verbs of a provisioned
    /// server are an `Err`, never a panic, and leave nothing behind: the
    /// server restarts from its medium without re-provisioning.
    #[test]
    fn host_supplied_lane_inputs_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        kind in 0u8..4,
    ) {
        // Three cases in four carry a real blob-kind byte, so the
        // bytes get past the dispatch and into that kind's decoder.
        let mut bytes = bytes;
        if let (Some(first), 1..=3) = (bytes.first_mut(), kind) {
            *first = kind;
        }
        let mut server = provisioned(1);
        for (verb, call) in HOST_INPUTS {
            let outcome = call(&mut server, &bytes);
            prop_assert!(outcome.is_err(), "{} accepted {:?}", verb, bytes);
            prop_assert!(!server.boot().unwrap());
        }
    }

    /// Arbitrary bytes never panic any decoder.
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // The borrowed views are the decoders; the owned forms only
        // copy what a view found.
        prop_assert_eq!(
            InvokeView::from_bytes(&bytes).map(|v| v.to_owned()),
            InvokeMsg::from_bytes(&bytes)
        );
        prop_assert_eq!(
            ReplyView::from_bytes(&bytes).map(|v| v.to_owned()),
            ReplyMsg::from_bytes(&bytes)
        );
        let _ = HostCall::from_bytes(&bytes);
        let _ = HostReply::from_bytes(&bytes);
        let _ = Quorum::from_bytes(&bytes);
        let mut r = Reader::new(&bytes);
        let _ = decode_vmap(&mut r);
    }

    /// InvokeMsg roundtrips for arbitrary field values.
    #[test]
    fn invoke_roundtrips(msg in arb_invoke()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(InvokeMsg::from_bytes(&bytes).unwrap(), msg.clone());
        // The view decodes the same fields, borrows the operation from
        // the input, and encodes to the same bytes.
        let view = InvokeView::from_bytes(&bytes).unwrap();
        prop_assert_eq!(view, msg.view());
        prop_assert_eq!(view.op.as_ptr_range().end, bytes.as_ptr_range().end);
        let mut w = Writer::new();
        view.encode(&mut w);
        prop_assert_eq!(w.into_bytes(), bytes);
    }

    /// ReplyMsg roundtrips for arbitrary field values.
    #[test]
    fn reply_roundtrips(msg in arb_reply()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(ReplyMsg::from_bytes(&bytes).unwrap(), msg.clone());
        let view = ReplyView::from_bytes(&bytes).unwrap();
        prop_assert_eq!(view, msg.view());
        prop_assert_eq!(view.result.as_ptr_range().end, bytes.as_ptr_range().end);
        let mut w = Writer::new();
        view.encode(&mut w);
        prop_assert_eq!(w.into_bytes(), bytes);
    }

    /// VMap encoding is canonical: decode(encode(v)) == v and encoding
    /// is deterministic.
    #[test]
    fn vmap_roundtrips(entries in proptest::collection::btree_map(
        any::<u32>().prop_map(ClientId), arb_ventry(), 0..16)) {
        let v: VMap = entries;
        let mut w = Writer::new();
        encode_vmap(&v, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = decode_vmap(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(decoded, v.clone());

        let mut w2 = Writer::new();
        encode_vmap(&v, &mut w2);
        prop_assert_eq!(bytes, w2.into_bytes());
    }

    /// Truncating any valid encoding at any point yields an error (or,
    /// for trailing-payload messages, a shorter but valid value) —
    /// never a panic.
    #[test]
    fn truncation_is_graceful(msg in arb_invoke(), cut in 0usize..512) {
        let bytes = msg.to_bytes();
        let cut = cut % (bytes.len() + 1);
        let owned = InvokeMsg::from_bytes(&bytes[..cut]);
        prop_assert_eq!(InvokeView::from_bytes(&bytes[..cut]).map(|v| v.to_owned()), owned);
    }

    /// Host calls roundtrip.
    #[test]
    fn host_call_roundtrips(
        batch in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..8)
    ) {
        let call = HostCall::InvokeBatch(batch);
        prop_assert_eq!(HostCall::from_bytes(&call.to_bytes()).unwrap(), call);
    }
}
