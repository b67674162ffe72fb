//! Robustness property tests: decoding arbitrary attacker-supplied
//! bytes must never panic, and valid encodings must roundtrip.
//!
//! Everything that crosses a trust boundary is covered: wire messages,
//! host calls/replies, the V map, provisioning payloads — the four
//! inputs the untrusted host hands a lane's enclave outside the invoke
//! path: replication records, slice tickets, table bulletins,
//! migration tickets — the recovery bundle, from the medium's bytes
//! through both storage engines' `load` into `TrustedContext::init`,
//! bare and through `LcmServer::boot`, and the routing history a
//! sharded deployment's migration ticket carries in the clear.

use std::sync::{Arc, Mutex, OnceLock};

use lcm_core::admin::AdminHandle;
use lcm_core::client::LcmClient;
use lcm_core::codec::{Reader, WireCodec, Writer};
use lcm_core::context::TrustedContext;
use lcm_core::functionality::Counter;
use lcm_core::program::{lcm_measurement, HostCall, HostReply};
use lcm_core::routing::SliceTable;
use lcm_core::server::{BatchServer, LcmServer, SLOT_KEY_BLOB, SLOT_STATE_BLOB};
use lcm_core::shard::{build_sharded, route_hash, ShardedServer};
use lcm_core::stability::{decode_vmap, encode_vmap, CachedReply, Quorum, VEntry, VMap};
use lcm_core::types::{ChainValue, ClientId, SeqNo};
use lcm_core::wire::{InvokeMsg, InvokeView, ReplyMsg, ReplyView};
use lcm_core::LcmError;
use lcm_storage::framing::FRAME_HEADER;
use lcm_storage::{parse_bundle, DeltaLogStorage, MemoryStorage, StableStorage};
use lcm_tee::platform::TeeServices;
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
    provisioned_over(Arc::new(MemoryStorage::new()), batches)
}

/// [`provisioned`], persisting to `storage`.
fn provisioned_over(storage: Arc<dyn StableStorage>, batches: u64) -> LcmServer<Counter> {
    provisioned_with_client(storage, batches).0
}

/// [`provisioned_over`], with the client that ran the batches.
fn provisioned_with_client(
    storage: Arc<dyn StableStorage>,
    batches: u64,
) -> (LcmServer<Counter>, LcmClient) {
    let world = TeeWorld::new_deterministic(61);
    let platform = world.platform_deterministic(1);
    let mut server = LcmServer::<Counter>::new(&platform, storage, 1);
    assert!(server.boot().unwrap());
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 3);
    admin.bootstrap(&mut server).unwrap();
    let mut client = LcmClient::new(ClientId(1), admin.client_key());
    for _ in 0..batches {
        server.submit(client.invoke(&Counter::inc_op(b"n", 1)).unwrap());
        let replies = server.process_all().unwrap();
        client.handle_reply(&replies[0].1).unwrap();
    }
    (server, client)
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

/// A booted, unprovisioned server on another platform of
/// [`provisioned`]'s world: what a migration ticket is handed to.
fn migration_target() -> LcmServer<Counter> {
    let platform = TeeWorld::new_deterministic(61).platform_deterministic(2);
    let mut target = LcmServer::<Counter>::new(&platform, Arc::new(MemoryStorage::new()), 1);
    assert!(target.boot().unwrap());
    target
}

/// Every strict prefix of a real migration ticket is refused by
/// `import_migration` on a fresh unprovisioned server — under either
/// form of the verb — and the intact ticket then imports: the state
/// arrives whole, and the target persisted it for its own platform.
#[test]
fn truncated_migration_tickets_are_refused() {
    let (mut origin, mut client) = provisioned_with_client(Arc::new(MemoryStorage::new()), 3);
    let ticket = origin.export_migration().unwrap();
    for cut in 0..ticket.len() {
        let slot = (cut % 2 == 1).then_some((0, 1));
        let mut target = migration_target();
        let outcome = target.import_migration(ticket[..cut].to_vec(), slot);
        assert!(outcome.is_err(), "prefix of {cut} bytes gave {outcome:?}");
    }
    let mut target = migration_target();
    target.import_migration(ticket, None).unwrap();
    assert!(!target.boot().unwrap(), "restarts from its own medium");
    target.submit(client.invoke(&Counter::inc_op(b"n", 1)).unwrap());
    let done = client.handle_reply(&target.process_all().unwrap()[0].1);
    assert_eq!(Counter::decode_result(&done.unwrap().result), Some(4));
}

/// A provisioned two-shard deployment that has moved slice 0, so its
/// host routes by a history of two epochs — what a refused deployment
/// ticket must leave as it was. One for every case: a refusal changes
/// nothing, so the cases cannot disturb each other.
fn moved_deployment() -> &'static Mutex<ShardedServer> {
    static DEPLOYMENT: OnceLock<Mutex<ShardedServer>> = OnceLock::new();
    DEPLOYMENT.get_or_init(|| {
        let world = TeeWorld::new_deterministic(62);
        let mut server =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 1, 2, false);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 4);
        admin.bootstrap(&mut server).unwrap();
        server.migrate_slice(0, 1).unwrap();
        assert_eq!(server.routing_epoch(), 1);
        Mutex::new(server)
    })
}

/// Increments behind the checkpoint on the media below: few enough
/// that the cadence takes no second checkpoint, so the restored value
/// of `n` *is* the number of deltas that were replayed.
const LOGGED: u64 = 4;

/// What a fresh enclave on the lanes' platform makes of the blobs a
/// host hands `init`: the value of `n` it restored, or its refusal.
fn recover(key_blob: Option<&[u8]>, state_blob: Option<&[u8]>) -> Result<u64, LcmError> {
    let platform = TeeWorld::new_deterministic(61).platform_deterministic(1);
    let services = TeeServices::for_tests(platform, lcm_measurement(), 1);
    let mut context = TrustedContext::<Counter>::new(services);
    context.init(key_blob, state_blob, true)?;
    Ok(context.functionality().value(b"n"))
}

fn assert_refused(outcome: Result<u64, LcmError>, what: std::fmt::Arguments<'_>) {
    assert!(
        matches!(outcome, Err(LcmError::Violation(_))),
        "{what} gave {outcome:?}"
    );
}

/// A plain store holding `blob` in the state slot.
fn plain_with(blob: &[u8]) -> Arc<MemoryStorage> {
    let plain = Arc::new(MemoryStorage::new());
    plain.store(SLOT_STATE_BLOB, blob).unwrap();
    plain
}

/// The key blob and the `checkpoint ‖ deltas` state of a lane over a
/// plain store after [`LOGGED`] batches, as an engine over its medium
/// loads them.
fn bundle_medium() -> &'static (Vec<u8>, Vec<u8>) {
    static MEDIUM: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    MEDIUM.get_or_init(|| {
        let plain = Arc::new(MemoryStorage::new());
        drop(provisioned_over(plain.clone(), LOGGED));
        let engine = DeltaLogStorage::open(plain).unwrap();
        let load = |slot| engine.load(slot).unwrap().unwrap();
        (load(SLOT_KEY_BLOB), load(SLOT_STATE_BLOB))
    })
}

/// What an engine over a plain store holding `state` in the state slot
/// — a medium no engine wrote — loads from it.
fn through_an_engine(state: &[u8]) -> Vec<u8> {
    let engine = DeltaLogStorage::open(plain_with(state)).unwrap();
    engine.load(SLOT_STATE_BLOB).unwrap().unwrap()
}

/// Where each frame of `framed` ends, given where the first begins.
fn frame_ends<'a>(first_at: usize, payloads: impl IntoIterator<Item = &'a [u8]>) -> Vec<usize> {
    let mut at = first_at;
    let ends = payloads.into_iter().map(|p| {
        at += FRAME_HEADER + p.len();
        at
    });
    ends.collect()
}

/// Every strict prefix and every single-byte flip of a valid
/// `checkpoint ‖ deltas`, handed to the enclave bare and through
/// `DeltaLogStorage::load` of a plain slot: the enclave restores
/// exactly the deltas that are intact in front of the damage, or
/// refuses — never anything else, never a panic.
#[test]
fn a_damaged_bundle_restores_its_intact_prefix_or_is_refused() {
    let (key_blob, bundle) = bundle_medium();
    let recover = |state: &[u8]| recover(Some(key_blob), Some(state));
    let (checkpoint, deltas) = parse_bundle(bundle).expect("checkpoint ‖ deltas");
    assert_eq!(deltas.len() as u64, LOGGED);
    assert_eq!(recover(bundle), Ok(LOGGED));
    let ends = frame_ends(1, std::iter::once(checkpoint).chain(deltas));
    assert_eq!(ends.last(), Some(&bundle.len()));
    // Frames that lie wholly in front of byte `at`.
    let whole_before = |at: usize| ends.iter().filter(|&&end| end <= at).count() as u64;
    let through_the_engine = |state: &[u8]| recover(&through_an_engine(state));

    for cut in 0..bundle.len() {
        let (prefix, whole) = (&bundle[..cut], whole_before(cut));
        // Bare, a prefix is a bundle only on a frame boundary; the
        // engine cuts a torn tail back to one.
        let bare = recover(prefix);
        if ends.contains(&cut) {
            assert_eq!(bare, Ok(whole - 1), "prefix of {cut} bytes, bare");
        } else {
            assert_refused(bare, format_args!("prefix of {cut} bytes, bare"));
        }
        let adapted = through_the_engine(prefix);
        if whole >= 1 {
            assert_eq!(adapted, Ok(whole - 1), "prefix of {cut} bytes");
        } else {
            assert_refused(adapted, format_args!("prefix of {cut} bytes"));
        }
    }
    for at in 0..bundle.len() {
        let mut flipped = bundle.clone();
        flipped[at] ^= 0x40;
        assert_refused(recover(&flipped), format_args!("flip at {at}, bare"));
        let (adapted, whole) = (through_the_engine(&flipped), whole_before(at));
        if at >= 1 && whole >= 1 {
            assert_eq!(adapted, Ok(whole - 1), "flip at {at}");
        } else {
            assert_refused(adapted, format_args!("flip at {at}"));
        }
    }
}

/// The delta-log slots a one-lane medium can hold.
const DLOG_SLOTS: [&str; 6] = [
    "dlog.meta.0",
    "dlog.meta.1",
    "dlog.ckpt.0.lcm.state",
    "dlog.ckpt.1.lcm.state",
    "dlog.head",
    "dlog.head.1",
];

/// Every slot of a lane's medium under a delta log after [`LOGGED`]
/// batches (key blob included).
fn dlog_medium() -> &'static Vec<(&'static str, Vec<u8>)> {
    static MEDIUM: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    MEDIUM.get_or_init(|| {
        let raw = Arc::new(MemoryStorage::new());
        let engine = Arc::new(DeltaLogStorage::open(raw.clone()).unwrap());
        drop(provisioned_over(engine, LOGGED));
        let held = |slot: &&'static str| Some((*slot, raw.load(slot).unwrap()?));
        let slots = DLOG_SLOTS.iter().chain([&SLOT_KEY_BLOB]);
        slots.filter_map(held).collect()
    })
}

/// Opens a delta log over [`dlog_medium`] with `slot` holding `bytes`
/// instead, loads both blobs and hands them to a fresh enclave.
fn recover_from_dlog_with(slot: &str, bytes: &[u8]) -> Result<u64, LcmError> {
    let raw = Arc::new(MemoryStorage::new());
    for (name, blob) in dlog_medium() {
        raw.store(name, blob).unwrap();
    }
    raw.store(slot, bytes).unwrap();
    let engine = DeltaLogStorage::open(raw).unwrap();
    let key_blob = engine.load(SLOT_KEY_BLOB).unwrap();
    let state_blob = engine.load(SLOT_STATE_BLOB).unwrap();
    recover(key_blob.as_deref(), state_blob.as_deref())
}

/// The same damage on a delta-log medium, slot by slot, through
/// `DeltaLogStorage::open` + `load`: a damaged journal head costs the
/// records from the damage on, a damaged checkpoint or manifest costs
/// the state (there is one generation on this medium, nothing to fall
/// back to) — and the enclave is told so by getting no state at all.
#[test]
fn a_damaged_delta_log_medium_restores_its_intact_prefix_or_is_refused() {
    let slot = |name: &str| {
        let found = dlog_medium().iter().find(|(n, _)| *n == name);
        &found.unwrap_or_else(|| panic!("no {name} on the medium")).1
    };
    let (head, ckpt, meta) = (
        slot("dlog.head"),
        slot("dlog.ckpt.0.lcm.state"),
        slot("dlog.meta.1"),
    );
    assert_eq!(dlog_medium().len(), 4, "one of each, and the key blob");
    assert_eq!(recover_from_dlog_with("dlog.head", head), Ok(LOGGED));

    let records = lcm_storage::framing::scan(head);
    assert_eq!(records.payloads.len() as u64, LOGGED);
    let ends = frame_ends(0, records.payloads);
    let whole_before = |at: usize| ends.iter().filter(|&&end| end <= at).count() as u64;
    for cut in 0..head.len() {
        let outcome = recover_from_dlog_with("dlog.head", &head[..cut]);
        assert_eq!(outcome, Ok(whole_before(cut)), "head cut at {cut}");
    }
    for at in 0..head.len() {
        let mut flipped = head.clone();
        flipped[at] ^= 0x40;
        let outcome = recover_from_dlog_with("dlog.head", &flipped);
        assert_eq!(outcome, Ok(whole_before(at)), "head flipped at {at}");
    }

    for (name, blob) in [("dlog.ckpt.0.lcm.state", ckpt), ("dlog.meta.1", meta)] {
        for cut in 0..blob.len() {
            let outcome = recover_from_dlog_with(name, &blob[..cut]);
            assert_refused(outcome, format_args!("{name} cut at {cut}"));
        }
        for at in 0..blob.len() {
            let mut flipped = blob.clone();
            flipped[at] ^= 0x40;
            let outcome = recover_from_dlog_with(name, &flipped);
            assert_refused(outcome, format_args!("{name} flipped at {at}"));
        }
    }
}

/// The same media through the whole host path: every strict prefix of
/// the state slot of a plain store (which the engine `LcmServer::new`
/// puts over it loads, torn tail cut), and of every slot of a delta-log
/// medium, under a server that `boot`s from it — an older state or a
/// refusal, never a panic in the engine, the host or the enclave.
#[test]
fn booting_from_a_truncated_medium_never_panics() {
    let platform = TeeWorld::new_deterministic(61).platform_deterministic(1);
    let boot = |storage: Arc<dyn StableStorage>| {
        let outcome = LcmServer::<Counter>::new(&platform, storage, 1).boot();
        assert!(!matches!(outcome, Ok(true)), "keys held, state asked for");
        outcome.is_ok()
    };
    let (key_blob, bundle) = bundle_medium();
    for cut in 0..bundle.len() {
        let plain = plain_with(&bundle[..cut]);
        plain.store(SLOT_KEY_BLOB, key_blob).unwrap();
        boot(plain);
    }
    for (damaged, blob) in dlog_medium().iter().filter(|(n, _)| *n != SLOT_KEY_BLOB) {
        for cut in 0..blob.len() {
            let raw = Arc::new(MemoryStorage::new());
            for (name, intact) in dlog_medium() {
                let held = if name == damaged {
                    &blob[..cut]
                } else {
                    intact
                };
                raw.store(name, held).unwrap();
            }
            let booted = boot(Arc::new(DeltaLogStorage::open(raw).unwrap()));
            assert_eq!(booted, *damaged == "dlog.head", "{damaged} cut at {cut}");
        }
    }
}

proptest! {
    /// Arbitrary bytes where a sealed state should be — the one slot of
    /// a plain store, or any slot of a delta-log medium — never panic
    /// either engine or the enclave, and never produce a state: the
    /// enclave refuses, or (where the bytes replaced journal records
    /// only) restores the checkpoint and the records still intact.
    #[test]
    fn arbitrary_bytes_on_the_medium_never_become_a_state(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        kind in 0u8..5,
        slot in 0usize..DLOG_SLOTS.len(),
    ) {
        // Four cases in five carry a real blob-kind byte, so the bytes
        // get past the dispatch and into that kind's decoder.
        let mut bytes = bytes;
        if let (Some(first), 1..=4) = (bytes.first_mut(), kind) {
            *first = kind - 1;
        }
        let key_blob = &bundle_medium().0;
        let bare = recover(Some(key_blob), Some(&bytes));
        prop_assert!(matches!(bare, Err(LcmError::Violation(_))), "bare: {:?}", bare);
        let adapted = recover(Some(key_blob), Some(&through_an_engine(&bytes)));
        prop_assert!(matches!(adapted, Err(LcmError::Violation(_))), "adapted: {:?}", adapted);

        let outcome = recover_from_dlog_with(DLOG_SLOTS[slot], &bytes);
        prop_assert!(
            matches!(outcome, Err(LcmError::Violation(_)) | Ok(0..=LOGGED)),
            "{} replaced: {:?}", DLOG_SLOTS[slot], outcome
        );
    }
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

    /// Arbitrary bytes handed to an unprovisioned server as a migration
    /// ticket are an `Err`, never a panic, under either form of the
    /// verb, and leave nothing on its medium.
    #[test]
    fn arbitrary_bytes_are_no_migration_ticket(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        slot in proptest::option::of((any::<u32>(), any::<u32>())),
    ) {
        let mut target = migration_target();
        let outcome = target.import_migration(bytes, slot);
        prop_assert!(outcome.is_err(), "imported as {:?}", slot);
        prop_assert!(target.boot().unwrap(), "still awaiting provisioning");
    }

    /// Arbitrary bytes handed to a sharded deployment as its migration
    /// ticket never panic the host's codec, and a refused ticket leaves
    /// the routing history as it was. Three cases in four frame them:
    /// behind two well-formed lane tickets (and a history count) so
    /// they reach the history decoder, or as the two lane tickets of an
    /// otherwise well-formed one, so they reach the lanes.
    #[test]
    fn arbitrary_bytes_leave_a_deployments_routing_history_alone(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        framed in 0u8..4,
    ) {
        let (first, second) = bytes.split_at(bytes.len() / 2);
        let mut w = Writer::new();
        match framed {
            0 => {}
            1 | 2 => {
                w.put_u32(2);
                w.put_bytes(&[]);
                w.put_bytes(&[]);
                if framed == 2 {
                    w.put_u32(1 + u32::from(bytes.len() % 2 == 1));
                }
            }
            _ => {
                w.put_u32(2);
                w.put_bytes(first);
                w.put_bytes(second);
                w.put_u32(1);
                SliceTable::uniform(2).encode(&mut w);
            }
        }
        let mut blob = w.into_bytes();
        if framed < 3 {
            blob.extend_from_slice(&bytes);
        }
        let mut server = moved_deployment().lock().unwrap();
        let table = server.current_table();
        let outcome = server.import_migration(blob);
        prop_assert!(outcome.is_err(), "imported as a deployment ticket");
        prop_assert_eq!(server.routing_epoch(), 1);
        prop_assert_eq!(server.current_table(), table);
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
