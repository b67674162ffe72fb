//! Sharding-specific integration tests: router invariants
//! (property-based), routing stability across reboot and migration,
//! and fault isolation when a single shard power-fails.

mod common;

use std::sync::Arc;

use common::{mk_client, mk_server, Mode};
use lcm::core::admin::AdminHandle;
use lcm::core::routing::{slice_of, SliceTable, SLICE_COUNT};
use lcm::core::server::BatchServer;
use lcm::core::shard::{build_sharded, route_hash, shard_index};
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
