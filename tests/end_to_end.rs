//! End-to-end integration tests across the full stack:
//! clients ⇄ host server (which carries, and may drop, every wire) ⇄
//! enclave ⇄ sealed storage.
//!
//! Every scenario runs against every server mode — the synchronous
//! `LcmServer` loop, the same server with asynchronous write
//! (`into_pipelined`), and the sharded fan-out at 1 and 4 shards — via the `all_modes!` wrappers
//! at the bottom. Under sharding, sequence numbers and stability are
//! per shard, so a few arithmetic assertions are scoped to the
//! single-shard modes.

mod common;

use std::sync::Arc;

use common::{all_modes, mk_client, mk_server, Mode};
use lcm::core::admin::AdminHandle;
use lcm::core::server::{BatchServer, LcmServer};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::core::verify::{check_single_history, check_stable_prefix};
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::{KvOp, KvResult};
use lcm::kvs::store::KvStore;
use lcm::storage::MemoryStorage;
use lcm::tee::world::TeeWorld;

fn setup(
    mode: Mode,
    n_clients: u32,
    batch: usize,
    seed: u64,
) -> (TeeWorld, Box<dyn BatchServer>, AdminHandle, Vec<KvsClient>) {
    let world = TeeWorld::new_deterministic(seed);
    let mut server = mk_server::<KvStore>(mode, &world, 1, Arc::new(MemoryStorage::new()), batch);
    assert!(server.boot().unwrap());
    let ids: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(&mut *server).unwrap();
    let clients = ids
        .iter()
        .map(|&id| {
            let mut c = mk_client(mode, id, admin.client_key());
            c.lcm_mut().set_recording(true);
            c
        })
        .collect();
    (world, server, admin, clients)
}

fn many_rounds_many_clients_stability_converges(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 5, 16, 1);
    // 10 rounds of everyone writing then reading.
    for round in 0..10u32 {
        for (i, c) in clients.iter_mut().enumerate() {
            let key = format!("key-{i}");
            c.put(&mut *server, key.as_bytes(), &round.to_be_bytes())
                .unwrap();
        }
    }
    // After the last round every client checks its watermark: with a
    // single sequence space, ops from earlier rounds must be
    // majority-stable. (Sharded: stability is per shard and a shard
    // only stabilizes what a majority of the whole group acknowledged
    // *there*, so the absolute bound applies to 1-shard modes.)
    for c in clients.iter_mut() {
        let done = c.put(&mut *server, b"final", b"x").unwrap();
        if mode.shards() == 1 {
            assert!(
                done.stable.0 >= 40,
                "client {} watermark {} too low",
                c.lcm().id(),
                done.stable
            );
        }
    }
    // Global history consistency (omniscient check, per shard).
    let views: Vec<&[_]> = clients.iter().map(|c| c.lcm().records()).collect();
    check_single_history(&views).unwrap();
    check_stable_prefix(&views).unwrap();
}

fn reads_of_other_clients_writes_are_linearized(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 3, 4, 2);
    clients[0].put(&mut *server, b"x", b"from-0").unwrap();
    let v = clients[1].get(&mut *server, b"x").unwrap();
    assert_eq!(v.unwrap(), b"from-0");
    clients[1].put(&mut *server, b"x", b"from-1").unwrap();
    let v = clients[2].get(&mut *server, b"x").unwrap();
    assert_eq!(v.unwrap(), b"from-1");
}

fn batched_and_unbatched_servers_agree(mode: Mode) {
    let run = |batch: usize| {
        let (_w, mut server, _a, mut clients) = setup(mode, 2, batch, 3);
        let mut results = Vec::new();
        for i in 0..20u32 {
            let c = &mut clients[(i % 2) as usize];
            let done = c
                .run(
                    &mut *server,
                    &KvOp::Put(b"k".to_vec(), i.to_be_bytes().to_vec()),
                )
                .unwrap();
            results.push((done.completion.seq, done.result));
        }
        let v = clients[0].get(&mut *server, b"k").unwrap();
        (results, v)
    };
    // Same sequence numbers and final value regardless of batching.
    assert_eq!(run(1), run(16));
}

fn interleaved_batch_replies_route_correctly(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 4, 16, 4);
    // All four clients submit before any processing happens: one batch.
    let wires: Vec<_> = clients
        .iter_mut()
        .enumerate()
        .map(|(i, c)| {
            c.invoke_wire(&KvOp::Put(format!("k{i}").into_bytes(), vec![i as u8]))
                .unwrap()
        })
        .collect();
    for w in wires {
        server.submit(w);
    }
    let replies = server.process_all().unwrap();
    assert_eq!(replies.len(), 4);
    // One cycle per shard that took traffic (one total when unsharded).
    let keys: Vec<Vec<u8>> = (0..4).map(|i| format!("k{i}").into_bytes()).collect();
    assert_eq!(
        server.batches_processed(),
        common::expected_batches(mode, &keys, 16)
    );
    for (id, wire) in replies {
        let c = clients.iter_mut().find(|c| c.lcm().id() == id).unwrap();
        let done = c.complete(&wire).unwrap();
        assert_eq!(done.result, KvResult::Stored);
    }
}

fn crash_between_rounds_is_transparent(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 2, 8, 5);
    clients[0].put(&mut *server, b"persist", b"me").unwrap();
    for _ in 0..3 {
        server.crash();
        assert!(!server.boot().unwrap());
        let v = clients[1].get(&mut *server, b"persist").unwrap();
        assert_eq!(v.unwrap(), b"me");
    }
}

fn lost_request_recovered_via_retry_over_links(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 1, 1, 6);
    let c = &mut clients[0];

    // The host never submits the request, then crashes.
    c.invoke_wire(&KvOp::Put(b"a".to_vec(), b"1".to_vec()))
        .unwrap();
    server.crash();
    server.boot().unwrap();

    // Timeout expires: the client retries, the host forwards it, and
    // the retry executes normally.
    server.submit(c.lcm_mut().retry().unwrap());
    let replies = server.process_all().unwrap();
    let done = c.complete(&replies[0].1).unwrap();
    assert_eq!(done.completion.seq.0, 1);
    assert_eq!(c.get(&mut *server, b"a").unwrap().unwrap(), b"1");
}

fn lost_reply_recovered_via_cached_retry_over_links(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 1, 1, 7);
    let c = &mut clients[0];

    // Request processed; the host discards the reply before the
    // client can `complete` it.
    server.submit(
        c.invoke_wire(&KvOp::Put(b"a".to_vec(), b"1".to_vec()))
            .unwrap(),
    );
    assert_eq!(server.process_all().unwrap().len(), 1);

    // Server even crashes afterwards.
    server.crash();
    server.boot().unwrap();

    // Retry: T recognizes the acknowledged context and resends the
    // cached reply without re-executing.
    server.submit(c.lcm_mut().retry().unwrap());
    let replies = server.process_all().unwrap();
    let done = c.complete(&replies[0].1).unwrap();
    assert_eq!(done.completion.seq.0, 1);
    // The store was mutated exactly once: the next op on the key
    // takes sequence number 2, not 3.
    let read = c.run(&mut *server, &KvOp::Get(b"a".to_vec())).unwrap();
    assert_eq!(read.completion.seq.0, 2);
    assert_eq!(read.result, KvResult::Value(Some(b"1".to_vec())));
}

fn single_client_group_is_immediately_stable(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 1, 1, 8);
    let c = &mut clients[0];
    c.put(&mut *server, b"k", b"v").unwrap();
    let done = c.put(&mut *server, b"k", b"v2").unwrap();
    // With n=1 the majority is the client itself; acknowledging op 1
    // makes it stable.
    assert_eq!(done.stable.0, 1);
}

fn large_values_roundtrip_through_the_full_stack(mode: Mode) {
    let (_w, mut server, _admin, mut clients) = setup(mode, 1, 1, 9);
    let c = &mut clients[0];
    let big = vec![0xabu8; 100_000];
    c.put(&mut *server, b"blob", &big).unwrap();
    assert_eq!(c.get(&mut *server, b"blob").unwrap().unwrap(), big);
}

fn admin_status_matches_client_progress(mode: Mode) {
    let (_w, mut server, mut admin, mut clients) = setup(mode, 2, 1, 10);
    for i in 0..5u32 {
        clients[(i % 2) as usize]
            .put(&mut *server, b"k", &i.to_be_bytes())
            .unwrap();
    }
    let (t, _q, n) = admin.status(&mut *server).unwrap();
    // Status fans out and reports shard 0; all five ops hit the shard
    // owning "k", which is shard 0 only in single-shard modes.
    if mode.shards() == 1 || mode.shard_of_key(b"k") == 0 {
        assert_eq!(t.0, 5);
    } else {
        assert_eq!(t.0, 0, "shard 0 saw no traffic");
    }
    assert_eq!(n, 2);
}

fn fresh_client_first_ops_reach_every_shard(mode: Mode) {
    // Positive-path coverage for the attested-identity check: a
    // freshly added client's FIRST operation on each shard must be
    // accepted (no history exists anywhere, the identity check alone
    // decides) — the misdelivery defence must not reject correctly
    // routed genesis traffic. Keys are chosen to cover every shard of
    // the deployment, and the deployment's shard count is what the
    // admin provisioned.
    let (_w, mut server, mut admin, _clients) = setup(mode, 1, 4, 9);
    assert_eq!(server.shard_count(), mode.shards());
    admin.add_client(&mut *server, ClientId(42)).unwrap();
    let mut fresh = mk_client(mode, ClientId(42), admin.client_key());
    assert_eq!(fresh.n_shards(), mode.shards());

    let mut covered = vec![false; mode.shards() as usize];
    let mut i = 0u32;
    while covered.iter().any(|c| !c) {
        let key = format!("cover-{i}").into_bytes();
        let shard = mode.shard_of_key(&key) as usize;
        i += 1;
        if covered[shard] {
            continue;
        }
        covered[shard] = true;
        fresh.put(&mut *server, &key, b"genesis-write").unwrap();
        assert_eq!(
            fresh.get(&mut *server, &key).unwrap().unwrap(),
            b"genesis-write".to_vec()
        );
    }
    assert!(!fresh.lcm().is_halted());
}

fn scatter_gather_reads_cover_all_shards(mode: Mode) {
    // Cross-shard reads: multi-get fans GET legs out over the shards
    // (pipelined, one in flight per shard) and scan_all pins one scan
    // leg to EVERY shard and merges the ordered results. Each leg is
    // verified against its shard's own (tc, ts, hc) context — a wrong
    // or replayed leg would halt the client, so completing un-halted
    // IS the verification.
    let (_w, mut server, _admin, mut clients) = setup(mode, 2, 8, 11);
    let writer = &mut clients[0];

    // Write keys until every shard owns at least one, tracking the
    // expected contents.
    let mut expected: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut covered = vec![false; mode.shards() as usize];
    let mut i = 0u32;
    while covered.iter().any(|c| !c) || expected.len() < 6 {
        let key = format!("sg-{i:03}").into_bytes();
        let value = format!("v{i}").into_bytes();
        covered[mode.shard_of_key(&key) as usize] = true;
        writer.put(&mut *server, &key, &value).unwrap();
        expected.push((key, value));
        i += 1;
    }
    expected.sort();

    // Scatter-gather GET from the *other* client (its first contact
    // with most shards), plus one key that exists nowhere.
    let reader = &mut clients[1];
    let mut keys: Vec<Vec<u8>> = expected.iter().map(|(k, _)| k.clone()).collect();
    keys.push(b"sg-missing".to_vec());
    let values = reader.multi_get(&mut *server, &keys).unwrap();
    for (i, (_, v)) in expected.iter().enumerate() {
        assert_eq!(values[i].as_deref(), Some(v.as_slice()));
    }
    assert_eq!(values.last().unwrap(), &None);

    // Scatter-gather SCAN: the merged range equals the full expected
    // contents, in global key order, regardless of which shard owns
    // which slice.
    let all = reader.scan_all(&mut *server, b"sg-", 100).unwrap();
    assert_eq!(all, expected);
    // A limited scan returns the global smallest `limit` keys — not
    // one shard's smallest.
    let first3 = reader.scan_all(&mut *server, b"sg-", 3).unwrap();
    assert_eq!(first3, expected[..3].to_vec());
    // A mid-range start works across shard boundaries.
    let tail = reader.scan_all(&mut *server, &expected[2].0, 100).unwrap();
    assert_eq!(tail, expected[2..].to_vec());
    assert!(!reader.lcm().is_halted());

    // The single-wire scan still sees only one shard's slice under
    // sharding — the gap scan_all exists to close.
    let one_leg = reader.scan(&mut *server, b"sg-", 100).unwrap();
    if mode.shards() == 1 {
        assert_eq!(one_leg, expected);
    } else {
        assert!(one_leg.len() < expected.len());
    }
}

all_modes!(
    many_rounds_many_clients_stability_converges,
    reads_of_other_clients_writes_are_linearized,
    batched_and_unbatched_servers_agree,
    interleaved_batch_replies_route_correctly,
    crash_between_rounds_is_transparent,
    lost_request_recovered_via_retry_over_links,
    lost_reply_recovered_via_cached_retry_over_links,
    single_client_group_is_immediately_stable,
    large_values_roundtrip_through_the_full_stack,
    admin_status_matches_client_progress,
    fresh_client_first_ops_reach_every_shard,
    scatter_gather_reads_cover_all_shards,
);

#[test]
fn storage_io_failures_are_errors_not_violations() {
    // A flaky disk is a benign fault: the synchronous server surfaces
    // an error, nothing halts, and service resumes once the disk
    // recovers. (The pipelined server's asynchronous counterpart lives
    // in tests/batching.rs — there the error surfaces deferred, on the
    // *next* call.)
    use lcm::storage::{FailureMode, FlakyStorage};
    let world = TeeWorld::new_deterministic(77);
    let platform = world.platform_deterministic(1);
    let flaky = Arc::new(FlakyStorage::new(MemoryStorage::new()));
    let mut server = LcmServer::<KvStore>::new(&platform, flaky.clone(), 1);
    server.boot().unwrap();
    let mut admin = lcm::core::admin::AdminHandle::new_deterministic(
        &world,
        vec![ClientId(1)],
        Quorum::Majority,
        7,
    );
    admin.bootstrap(&mut server).unwrap();
    let mut client = KvsClient::new(ClientId(1), admin.client_key());

    client.put(&mut server, b"k", b"v1").unwrap();

    // Disk starts failing: operations error but are NOT violations.
    flaky.set_mode(FailureMode::FailStores);
    let err = client
        .run(&mut server, &KvOp::Put(b"k".to_vec(), b"v2".to_vec()))
        .unwrap_err();
    assert!(!err.is_violation(), "I/O failure misclassified: {err:?}");
    assert!(flaky.failures() >= 1);

    // Disk recovers; the pending op is retried and completes.
    flaky.set_mode(FailureMode::None);
    server.submit(client.lcm_mut().retry().unwrap());
    let replies = server.process_all().unwrap();
    let done = client.complete(&replies[0].1).unwrap();
    assert_eq!(done.result, KvResult::Stored);
}
