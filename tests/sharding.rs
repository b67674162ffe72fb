//! Sharding-specific integration tests: router invariants
//! (property-based), routing stability across reboot and migration,
//! fault isolation when a single shard power-fails, and the batch
//! cycles a round costs at 4 vs 8 shards and before vs after live
//! rebalancing.

mod common;

use std::sync::Arc;

use common::{mk_client, mk_server, Mode};
use lcm::core::admin::AdminHandle;
use lcm::core::client::{LcmClient, WriteOutcome};
use lcm::core::codec::WireCodec;
use lcm::core::routing::{slice_of, SliceTable, SLICE_COUNT};
use lcm::core::server::BatchServer;
use lcm::core::shard::{build_sharded, nth_key_routing_to, route_hash, shard_index, ShardedServer};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{MemoryStorage, StableStorage};
use lcm::tee::world::TeeWorld;
use proptest::prelude::*;

const SHARDED: Mode = Mode::Sharded {
    shards: 4,
    pipelined: false,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The client-side router is plain 32-bit FNV-1a: an independent
    /// reference implementation (offset basis 2166136261, prime
    /// 16777619, written out numerically) agrees byte for byte. This
    /// is the same public function the enclave recomputes over the
    /// decrypted operation, so client router and in-enclave check can
    /// only agree or both be wrong — never drift apart.
    #[test]
    fn route_hash_matches_reference_fnv1a(
        key in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut reference: u32 = 2_166_136_261;
        for &b in &key {
            reference ^= u32::from(b);
            reference = reference.wrapping_mul(16_777_619);
        }
        prop_assert_eq!(reference, route_hash(&key));
    }

    /// Every key maps to exactly one shard, the mapping is total for
    /// any shard count, and recomputing it gives the same answer
    /// (determinism is what makes reboot/migration routing stable).
    #[test]
    fn every_key_maps_to_exactly_one_shard(
        key in proptest::collection::vec(any::<u8>(), 0..64),
        shards in 1u32..=8,
    ) {
        let first = shard_index(route_hash(&key), shards);
        prop_assert!(first < shards);
        // Stable under recomputation and independent of any ambient
        // state.
        prop_assert_eq!(first, shard_index(route_hash(&key), shards));
        // Exactly one shard: the index is a function, so any other
        // shard index differs.
        for other in 0..shards {
            if other != first {
                prop_assert_ne!(first, other);
            }
        }
    }

    /// Routing is stable across a full-deployment reboot: every key
    /// written before the crash reads back after recovery. (A routing
    /// change would send the read — and the client's per-shard context
    /// — to a different shard and trip a violation instead.)
    #[test]
    fn routing_stable_across_reboot(
        keys in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..12), 1..8),
        seed in 0u64..500,
    ) {
        let world = TeeWorld::new_deterministic(seed);
        let mut server =
            mk_server::<KvStore>(SHARDED, &world, 1, Arc::new(MemoryStorage::new()), 4);
        prop_assert!(server.boot().unwrap());
        let mut admin = AdminHandle::new_deterministic(
            &world, vec![ClientId(1)], Quorum::Majority, seed);
        admin.bootstrap(&mut *server).unwrap();
        let mut client = mk_client(SHARDED, ClientId(1), admin.client_key());

        for (i, key) in keys.iter().enumerate() {
            client.put(&mut *server, key, &[i as u8]).unwrap();
        }
        server.crash();
        prop_assert!(!server.boot().unwrap(), "recovered, not re-provisioned");
        for (i, key) in keys.iter().enumerate() {
            // Later writes to a duplicate key win; recompute the
            // expected value.
            let expected = keys.iter().rposition(|k| k == key).unwrap_or(i) as u8;
            let got = client.get(&mut *server, key).unwrap();
            prop_assert_eq!(got.unwrap(), vec![expected]);
        }
    }

    /// The epoch-versioned slice table stays a total function of the
    /// route under arbitrary move sequences: every route maps to
    /// exactly one in-range shard, a moved slice maps to its target,
    /// the epoch counts exactly the applied moves, and the only
    /// refused move is the no-op (target already owns the slice).
    #[test]
    fn slice_moves_preserve_total_coverage(
        shards in 2u32..=8,
        moves in proptest::collection::vec((0u32..SLICE_COUNT, 0u32..8), 0..16),
    ) {
        let mut table = SliceTable::uniform(shards);
        let mut applied = 0u64;
        for (slice, to) in moves {
            let to = to % shards;
            match table.moved(slice, to) {
                Some(next) => {
                    prop_assert_eq!(next.epoch(), table.epoch() + 1);
                    prop_assert_eq!(next.owner(slice), to);
                    table = next;
                    applied += 1;
                }
                None => prop_assert_eq!(table.owner(slice), to),
            }
        }
        prop_assert_eq!(table.epoch(), applied);
        for route in 0..1024u32 {
            let shard = table.shard_of(route);
            prop_assert!(shard < shards);
            // Deterministic and consistent with the slice owner.
            prop_assert_eq!(shard, table.owner(slice_of(route)));
            prop_assert_eq!(shard, table.shard_of(route));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The in-enclave route recomputation agrees with the client-side
    /// router on the REAL stack: for arbitrary keys, every correctly
    /// routed operation is accepted (the enclave recomputed the same
    /// route from the decrypted op) and lands on exactly the shard the
    /// client predicted (per-shard op counters match the prediction).
    /// A disagreement would surface as a WrongShard violation or a
    /// count mismatch.
    #[test]
    fn in_enclave_route_recomputation_agrees_with_client_router(
        keys in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..24), 1..10),
        seed in 0u64..200,
    ) {
        const SHARDS: u32 = 4;
        let world = TeeWorld::new_deterministic(seed ^ 0x5a5a);
        let storage = Arc::new(MemoryStorage::new());
        let mut server = lcm::core::shard::build_sharded::<KvStore>(
            &world, 1, storage, 4, SHARDS, false);
        prop_assert!(server.boot().unwrap());
        let mut admin = AdminHandle::new_deterministic(
            &world, vec![ClientId(1)], Quorum::Majority, seed);
        admin.bootstrap(&mut server).unwrap();
        let mut client = KvsClient::new_sharded(ClientId(1), admin.client_key(), SHARDS);

        let mut predicted = [0u64; SHARDS as usize];
        for (i, key) in keys.iter().enumerate() {
            predicted[shard_index(route_hash(key), SHARDS) as usize] += 1;
            client.put(&mut server, key, &[i as u8]).unwrap();
        }
        let stats = server.shard_stats();
        for (shard, row) in stats.iter().enumerate() {
            // The shard executed exactly the slice the client routed.
            prop_assert!(row.ops == predicted[shard],
                "shard {shard}: executed {} vs routed {}", row.ops, predicted[shard]);
        }
    }

    /// Redirect convergence on the real stack: after an arbitrary
    /// sequence of live slice migrations, a client still holding an
    /// older table reaches every key by chasing the typed redirects —
    /// every operation ends `Done` with the pre-migration value, and
    /// the host's routing epoch counts exactly the applied moves.
    #[test]
    fn redirects_converge_after_arbitrary_migrations(
        moves in proptest::collection::vec((0u32..SLICE_COUNT, 0u32..4), 1..6),
        seed in 0u64..100,
    ) {
        const SHARDS: u32 = 4;
        let world = TeeWorld::new_deterministic(seed ^ 0xa11c);
        let mut server = lcm::core::shard::build_sharded::<KvStore>(
            &world, 1, Arc::new(MemoryStorage::new()), 4, SHARDS, false);
        prop_assert!(server.boot().unwrap());
        let mut admin = AdminHandle::new_deterministic(
            &world, vec![ClientId(1)], Quorum::Majority, seed);
        admin.bootstrap(&mut server).unwrap();
        let mut client = KvsClient::new_sharded(ClientId(1), admin.client_key(), SHARDS);

        let keys: Vec<Vec<u8>> = (0..SHARDS)
            .map(|s| lcm::core::shard::nth_key_routing_to(s, SHARDS, "rc", 0))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            client.put(&mut server, key, &[i as u8]).unwrap();
        }

        let mut applied = 0u64;
        for (slice, to) in moves {
            // The only refused move is the no-op; `migrate_slice`
            // rejects it before touching any enclave.
            match server.migrate_slice(slice, to) {
                Ok(()) => applied += 1,
                Err(_) => prop_assert_eq!(server.current_table().owner(slice), to),
            }
        }
        prop_assert_eq!(server.routing_epoch(), applied);

        // The client's table is up to `applied` epochs behind; every
        // read converges through redirects.
        for (i, key) in keys.iter().enumerate() {
            let got = client.get(&mut server, key).unwrap();
            prop_assert_eq!(got.unwrap(), vec![i as u8]);
        }
    }
}

/// Routing is stable across migration: a sharded deployment exports
/// per-shard tickets, a fresh deployment (different platforms, fresh
/// medium) imports them, and every key reads back through the same
/// router.
#[test]
fn routing_stable_across_migration() {
    let world = TeeWorld::new_deterministic(77);
    let mut origin = mk_server::<KvStore>(SHARDED, &world, 1, Arc::new(MemoryStorage::new()), 4);
    assert!(origin.boot().unwrap());
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 7);
    admin.bootstrap(&mut *origin).unwrap();
    let mut client = mk_client(SHARDED, ClientId(1), admin.client_key());

    let keys: Vec<Vec<u8>> = (0..12).map(|i| format!("mk{i}").into_bytes()).collect();
    for (i, key) in keys.iter().enumerate() {
        client.put(&mut *origin, key, &[i as u8]).unwrap();
    }

    let mut target = mk_server::<KvStore>(SHARDED, &world, 200, Arc::new(MemoryStorage::new()), 4);
    assert!(target.boot().unwrap());
    // Migration re-verifies the whole target deployment: one
    // identity-bound quote per imported shard.
    let manifest = admin.migrate(&mut *origin, &mut *target).unwrap();
    assert_eq!(manifest.shards, 4);
    assert_eq!(manifest.quotes.len(), 4);

    for (i, key) in keys.iter().enumerate() {
        let got = client.get(&mut *target, key).unwrap();
        assert_eq!(got.unwrap(), vec![i as u8], "key {i} after migration");
    }
    // The origin refuses service after migrating away.
    let mut late = KvsClient::new_sharded(ClientId(1), admin.client_key(), 4);
    origin.submit(late.invoke_wire(&KvOp::Get(keys[0].clone())).unwrap());
    assert!(origin.process_all().is_err(), "origin must refuse service");

    // And a deployment that has moved a slice: its lanes arrive on the
    // next target at table epoch 1, so that host must route by epoch 1
    // too — the client stamps every wire with the epoch it learned on
    // the origin, and an epoch-1 wire delivered by the genesis table
    // halts the honest lane it lands on with `WrongShard`.
    let slice = slice_of(route_hash(&keys[0]));
    let to = (SliceTable::uniform(4).owner(slice) + 1) % 4;
    admin.reshard(&mut *target, slice, to).unwrap();
    client.put(&mut *target, &keys[0], b"moved").unwrap();
    let mut third = mk_server::<KvStore>(SHARDED, &world, 300, Arc::new(MemoryStorage::new()), 4);
    assert!(third.boot().unwrap());
    admin.migrate(&mut *target, &mut *third).unwrap();
    assert_eq!(third.routing_epoch(), 1);
    assert_eq!(third.routing_epoch(), target.routing_epoch());
    assert_eq!(
        client.get(&mut *third, &keys[0]).unwrap().unwrap(),
        b"moved"
    );
    for (i, key) in keys.iter().enumerate().skip(1) {
        let got = client.get(&mut *third, key).unwrap();
        assert_eq!(got.unwrap(), vec![i as u8], "key {i} after both moves");
    }
}

/// Slice-move bytes are proportional to the slice, not to the shard:
/// the ticket carries the moved records as a functionality delta, so a
/// shard holding ten times the records *outside* the slice exports a
/// ticket of the same size (the bulletin is a table either way).
#[test]
fn slice_ticket_bytes_do_not_depend_on_what_stays_behind() {
    const SLICE: u32 = 0;
    // Keys `t{j}` by whether their route hash falls in the moved slice.
    let genesis = SliceTable::uniform(2);
    let keys = |inside: bool, n: usize| -> Vec<Vec<u8>> {
        let all = (0u32..).map(|j| format!("t{j:06}").into_bytes());
        let mine = all.filter(|k| {
            let slice = slice_of(route_hash(k));
            (slice == SLICE) == inside && genesis.owner(slice) == 0
        });
        mine.take(n).collect()
    };
    let export = |outside: usize| -> (usize, usize) {
        let world = TeeWorld::new_deterministic(79);
        let medium = Arc::new(MemoryStorage::new());
        let mut server = build_sharded::<KvStore>(&world, 1, medium, 64, 2, false);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 9);
        admin.bootstrap(&mut server).unwrap();
        let mut client = KvsClient::new_sharded(ClientId(1), admin.client_key(), 2);
        for key in keys(true, 8).iter().chain(&keys(false, outside)) {
            client.put(&mut server, key, &[0x5a; 100]).unwrap();
        }
        let (ticket, bulletin) = server
            .with_shard(0, |lane| lane.export_slice(SLICE, 1))
            .unwrap();
        (ticket.len(), bulletin.len())
    };
    let (small, large) = (export(40), export(400));
    assert_eq!(small, large, "the ticket is slice-shaped, not shard-shaped");
    // Eight records of a 7 B key and a 100 B value, a table, and
    // change — not the 40 (or 400) that stayed.
    assert!((8 * 107..8 * 107 + 512).contains(&small.0), "{small:?}");
}

/// Storage whose writes block until a gate opens — pins persist jobs
/// inside shard writer pipelines at a deterministic point — and which
/// counts the stores currently parked at the gate.
struct GatedStorage {
    inner: MemoryStorage,
    gate: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
    parked: std::sync::atomic::AtomicUsize,
}

impl GatedStorage {
    fn new() -> Self {
        GatedStorage {
            inner: MemoryStorage::new(),
            gate: std::sync::Mutex::new(true),
            opened: std::sync::Condvar::new(),
            parked: std::sync::atomic::AtomicUsize::new(0),
        }
    }
    /// Stores currently blocked on the closed gate.
    fn parked(&self) -> usize {
        self.parked.load(std::sync::atomic::Ordering::SeqCst)
    }
    fn open(&self) {
        *self.gate.lock().unwrap() = true;
        self.opened.notify_all();
    }
    fn close(&self) {
        *self.gate.lock().unwrap() = false;
    }
}

impl StableStorage for GatedStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> lcm::storage::Result<()> {
        use std::sync::atomic::Ordering;
        let mut open = self.gate.lock().unwrap();
        if !*open {
            self.parked.fetch_add(1, Ordering::SeqCst);
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        drop(open);
        self.inner.store(slot, blob)
    }
    fn load(&self, slot: &str) -> lcm::storage::Result<Option<Vec<u8>>> {
        self.inner.load(slot)
    }
}

/// The satellite crash-torture scenario: power-fail ONE shard of a
/// pipelined sharded deployment. The other shards' state — and their
/// clients — are unaffected, and exactly the client with acknowledged
/// state on the failed shard detects the rollback. The deployment
/// keeps serving the healthy shards even after the victim shard halts.
#[test]
fn power_failure_of_one_shard_is_isolated_and_detected() {
    const SHARDS: u32 = 4;
    let world = TeeWorld::new_deterministic(88);
    let medium = Arc::new(GatedStorage::new());
    let mut server = build_sharded::<KvStore>(&world, 1, medium.clone(), 1, SHARDS, true);
    assert!(server.boot().unwrap());
    let ids = vec![ClientId(1), ClientId(2)];
    let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 9);
    admin.bootstrap(&mut server).unwrap();
    let mut victim = KvsClient::new_sharded(ClientId(1), admin.client_key(), SHARDS);
    let mut bystander = KvsClient::new_sharded(ClientId(2), admin.client_key(), SHARDS);

    // Two keys on different shards.
    let ka = b"fail-key".to_vec();
    let shard_a = shard_index(route_hash(&ka), SHARDS);
    let kb = (0..64u32)
        .map(|i| format!("ok{i}").into_bytes())
        .find(|k| shard_index(route_hash(k), SHARDS) != shard_a)
        .expect("some key on another shard");
    let shard_b = shard_index(route_hash(&kb), SHARDS);

    // Durable baseline on both shards.
    victim.put(&mut server, &ka, b"v1").unwrap();
    bystander.put(&mut server, &kb, b"w1").unwrap();
    server.flush_persists().unwrap();

    // Gate closes: shard A acknowledges two more ops whose persists
    // stall (one in flight inside the store, one queued). Both are
    // already handed to the writer when `put` returns, so once v2's
    // store is parked at the gate, v3's snapshot is the one queued.
    medium.close();
    victim.put(&mut server, &ka, b"v2").unwrap();
    victim.put(&mut server, &ka, b"v3").unwrap();
    while medium.parked() != 1 {
        std::thread::yield_now();
    }

    // Power failure of shard A alone: the queued snapshot is lost; the
    // in-flight write completes once the "controller" (gate) lets it.
    server.kill_member(shard_a, 0, true).unwrap();
    medium.open();
    assert!(!server.reboot_member(shard_a, 0).unwrap());

    // The bystander's shard never noticed: reads and writes continue.
    assert_eq!(
        bystander.get(&mut server, &kb).unwrap().unwrap(),
        b"w1".to_vec()
    );
    bystander.put(&mut server, &kb, b"w2").unwrap();

    // The victim's next op on shard A trips rollback detection (v3 was
    // acknowledged but its persist died with the power).
    let err = victim.run(&mut server, &KvOp::Get(ka.clone())).unwrap_err();
    assert!(err.is_violation(), "got {err:?}");

    // Shard A is halted, but the healthy shards keep serving.
    assert_eq!(
        bystander.get(&mut server, &kb).unwrap().unwrap(),
        b"w2".to_vec()
    );
    assert!(server.with_shard(shard_b, |s| s.is_running()));
    // Only the victim is left hanging (its GET never completed); the
    // bystander's protocol state is untouched.
    assert!(victim.lcm().has_pending());
    assert!(!bystander.lcm().is_halted());
}

/// Dropping a deployment stops its drivers without waiting on a store
/// first: a driver parked in a store keeps its lane until the store
/// returns, but a producer blocked on the full ingress behind it is
/// freed at once (the ingress is shed), and the drop joins the driver
/// once the store returns. The lane holds its queued work while parked,
/// so the producer's blocked push is read off the tickets issued (the
/// per-shard queue stats need the lane).
#[test]
fn dropping_a_deployment_frees_a_producer_blocked_behind_a_parked_driver() {
    use lcm::core::functionality::Counter;
    use lcm::core::server::{Lane, LcmServer};
    use std::sync::mpsc;
    use std::time::Duration;
    let world = TeeWorld::new_deterministic(89);
    let medium = Arc::new(GatedStorage::new());
    let platform = world.platform_deterministic(1);
    let lane: Box<dyn Lane> = Box::new(LcmServer::<Counter>::new(&platform, medium.clone(), 16));
    let mut server = ShardedServer::with_config(vec![lane], 1);
    assert!(server.boot().unwrap());
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 9);
    admin.bootstrap(&mut server).unwrap();
    let server = server.with_drivers(1);
    let mut client = LcmClient::new_sharded(ClientId(1), admin.client_key(), 1);
    let port = server.connect(client.id());

    // The driver takes the first wire in and parks in its store.
    medium.close();
    port.send(
        client
            .invoke_for::<Counter>(&Counter::inc_op(b"n", 1))
            .unwrap(),
    );
    while medium.parked() != 1 {
        std::thread::yield_now();
    }
    // Two retries: one fills the ingress, the next blocks behind it.
    let retries = [client.retry().unwrap(), client.retry().unwrap()];
    let (sent_tx, sent_rx) = mpsc::channel();
    let producer = std::thread::spawn(move || {
        for wire in retries {
            port.send(wire);
        }
        sent_tx.send(()).unwrap();
    });
    while server.in_flight() < 3 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(sent_rx.try_recv().is_err(), "the producer is blocked");

    let (dropped_tx, dropped_rx) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(server);
        dropped_tx.send(()).unwrap();
    });
    let freed = sent_rx.recv_timeout(Duration::from_secs(10));
    let parked = medium.parked();
    medium.open();
    assert!(
        freed.is_ok(),
        "dropping the deployment left the producer blocked"
    );
    assert_eq!(
        parked, 1,
        "the producer returned while the driver was parked"
    );
    producer.join().unwrap();
    assert!(
        dropped_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
        "the drop completes once the store returns"
    );
    dropper.join().unwrap();
}

/// `shard_stats` takes no lane lock: with the only driver parked in a
/// store — holding its lane — a stats read on another thread answers
/// at once instead of waiting for the gate, and once the deployment is
/// quiet the counters are the operations driven, as the lane itself
/// counts them.
#[test]
fn shard_stats_answer_while_a_driver_holds_its_lane() {
    use lcm::core::functionality::Counter;
    use lcm::core::server::{Lane, LcmServer};
    use std::sync::mpsc;
    use std::time::Duration;
    let world = TeeWorld::new_deterministic(90);
    let medium = Arc::new(GatedStorage::new());
    let platform = world.platform_deterministic(1);
    let lane: Box<dyn Lane> = Box::new(LcmServer::<Counter>::new(&platform, medium.clone(), 16));
    let mut server = ShardedServer::with_config(vec![lane], 64);
    assert!(server.boot().unwrap());
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 9);
    admin.bootstrap(&mut server).unwrap();
    let mut server = server.with_drivers(1);
    let before = server.shard_stats()[0];
    let mut client = LcmClient::new_sharded(ClientId(1), admin.client_key(), 1);
    let port = server.connect(client.id());
    let drive_one = |client: &mut LcmClient| {
        let wire = client.invoke_for::<Counter>(&Counter::inc_op(b"n", 1));
        port.send(wire.unwrap());
    };

    // Three operations through an open gate, one batch each…
    const DRIVEN: u64 = 4;
    for _ in 1..DRIVEN {
        drive_one(&mut client);
        let reply = port.recv_timeout(Duration::from_secs(10)).expect("a reply");
        client.handle_reply(&reply).unwrap();
    }
    // …and a fourth the driver takes in and parks with, in its store.
    medium.close();
    drive_one(&mut client);
    while medium.parked() != 1 {
        std::thread::yield_now();
    }

    let (read, parked) = std::thread::scope(|scope| {
        let (stats_tx, stats_rx) = mpsc::channel();
        let server = &server;
        // Ignores a hung-up receiver: the assertion below reports it.
        scope.spawn(move || stats_tx.send(server.shard_stats()).ok());
        let read = stats_rx.recv_timeout(Duration::from_millis(100));
        let parked = medium.parked();
        medium.open();
        (read, parked)
    });
    let read = read.expect("shard_stats() waited for the parked driver's lane");
    assert_eq!(parked, 1, "the read returned while the driver was parked");
    assert!(read[0].ops >= before.ops + DRIVEN - 1, "{read:?}");

    let reply = port.recv_timeout(Duration::from_secs(10)).expect("a reply");
    client.handle_reply(&reply).unwrap();
    server.process_all().unwrap();
    let after = server.shard_stats()[0];
    assert_eq!(
        (after.ops - before.ops, after.batches - before.batches),
        (DRIVEN, DRIVEN)
    );
    let counted = server.with_shard(0, |lane| (lane.ops_processed(), lane.batches_processed()));
    assert_eq!((after.ops, after.batches), counted);
}

/// A driverless KVS deployment on `MemoryStorage`, batch 16, whose
/// client `i` PUTs `keys[i]` once per round. `BatchServer::step` runs
/// one batch per lane, so the steps a round takes is its busiest lane's
/// backlog in batches — the persist cycles every client of the round
/// waits for, counted instead of timed.
struct BatchCycles {
    server: ShardedServer,
    clients: Vec<LcmClient>,
    keys: Vec<Vec<u8>>,
}

impl BatchCycles {
    fn new(shards: u32, keys: Vec<Vec<u8>>) -> Self {
        let world = TeeWorld::new_deterministic(8_800 + u64::from(shards));
        let mut server =
            build_sharded::<KvStore>(&world, 1, Arc::new(MemoryStorage::new()), 16, shards, false);
        assert!(server.boot().unwrap());
        let ids: Vec<ClientId> = (1..=keys.len() as u32).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 13);
        admin.bootstrap(&mut server).unwrap();
        let clients = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), shards))
            .collect();
        BatchCycles {
            server,
            clients,
            keys,
        }
    }

    /// One round: every client PUTs its key, and a client redirected by
    /// a slice move re-invokes under the table it adopted, until every
    /// client is answered. Returns the `step` calls the round took.
    fn round(&mut self) -> u32 {
        let mut steps = 0;
        let mut pending: Vec<usize> = (0..self.clients.len()).collect();
        while !pending.is_empty() {
            for &i in &pending {
                let op = KvOp::Put(self.keys[i].clone(), vec![0x42; 100]).to_bytes();
                let wire = self.clients[i].invoke_for::<KvStore>(&op).unwrap();
                self.server.submit(wire);
            }
            let mut answered = 0;
            let mut chasing = Vec::new();
            while answered < pending.len() {
                let replies = self.server.step().unwrap();
                steps += 1;
                answered += replies.len();
                for (id, wire) in replies {
                    let i = self.clients.iter().position(|c| c.id() == id).unwrap();
                    match self.clients[i].handle_reply_on(&wire).unwrap() {
                        (_, WriteOutcome::Done(_)) => {}
                        (_, WriteOutcome::Redirected { .. }) => chasing.push(i),
                    }
                }
            }
            pending = chasing;
        }
        steps
    }

    /// Operations each lane has executed so far.
    fn lane_ops(&self) -> Vec<u64> {
        self.server.shard_stats().iter().map(|s| s.ops).collect()
    }
}

/// Scale-out past four shards is a batch-cycle count: 96 route-hashed
/// keys load four lanes with 24 each (two batches of 16 per round) and
/// eight lanes with 11–13 (one), so eight shards answer a round in half
/// the steps. Every lane also carries exactly the keys the genesis
/// router `shard_index` assigns it — a router that stopped using some
/// lanes would load the rest past one batch.
#[test]
fn eight_shards_answer_a_uniform_round_in_half_the_steps_of_four() {
    let keys: Vec<Vec<u8>> = (0..96).map(|i| format!("k{i}").into_bytes()).collect();
    for (shards, steps) in [(4u32, 2u32), (8, 1)] {
        let mut rig = BatchCycles::new(shards, keys.clone());
        assert_eq!(rig.round(), steps, "{shards} shards");
        let mut routed = vec![0u64; shards as usize];
        for key in &keys {
            routed[shard_index(route_hash(key), shards) as usize] += 1;
        }
        assert_eq!(rig.lane_ops(), routed, "{shards} shards");
        assert_eq!(rig.round(), steps, "{shards} shards, second round");
    }
}

/// Live resharding dissolves a hot shard's backlog. Half of 96 clients
/// write keys on shard 0 of 8, so lane 0 carries 53 operations a round
/// and every client waits four batch cycles for it. The heat monitor
/// (`rebalance_once`, alternated with rounds that chase the redirects
/// its moves cause) spreads shard 0's slices until it declares the load
/// balanced; from then on a round is one batch cycle on every lane.
#[test]
fn rebalancing_a_hot_shard_at_least_quarters_its_steps_per_round() {
    const SHARDS: u32 = 8;
    let keys = (0..48)
        .map(|i| nth_key_routing_to(0, SHARDS, "hot", i))
        .chain((48..96).map(|i| format!("k{i}").into_bytes()))
        .collect();
    let mut rig = BatchCycles::new(SHARDS, keys);
    assert_eq!(rig.round(), 4);
    assert_eq!(rig.lane_ops()[0], 53);

    let mut moves = 0;
    while rig.server.rebalance_once().unwrap().is_some() {
        moves += 1;
        rig.round();
    }
    assert_eq!(moves, 5);

    let before = rig.lane_ops();
    assert_eq!(rig.round(), 1);
    let per_lane: Vec<u64> = rig
        .lane_ops()
        .iter()
        .zip(&before)
        .map(|(a, b)| a - b)
        .collect();
    assert!(per_lane.iter().all(|&ops| ops <= 16), "{per_lane:?}");
}
