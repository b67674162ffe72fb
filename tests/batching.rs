//! Batching beyond batch=16: parametrized amortization invariants
//! across batch limits {1, 64, 256} for both the synchronous loop and
//! the asynchronous-write mode, plus crash-mid-batch recovery and the
//! pipelined mode's deferred-storage-failure surfacing.

mod common;

use std::sync::Arc;

use common::{all_modes, bootstrap, Mode};
use lcm::core::admin::AdminHandle;
use lcm::core::server::{BatchServer, LcmServer};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::{KvOp, KvResult};
use lcm::kvs::store::KvStore;
use lcm::storage::MemoryStorage;
use lcm::tee::world::TeeWorld;

const BATCH_LIMITS: [usize; 3] = [1, 64, 256];
const GROUP: u32 = 256;

/// Queues one op per client (no processing in between), then processes
/// everything; returns the replies routed per client.
fn submit_round(
    server: &mut Box<dyn BatchServer>,
    clients: &mut [KvsClient],
    round: u32,
) -> Vec<(ClientId, Vec<u8>)> {
    for (i, c) in clients.iter_mut().enumerate() {
        let wire = c
            .invoke_wire(&KvOp::Put(
                format!("k{i}").into_bytes(),
                round.to_be_bytes().to_vec(),
            ))
            .unwrap();
        server.submit(wire);
    }
    server.process_all().unwrap()
}

fn complete_round(clients: &mut [KvsClient], replies: Vec<(ClientId, Vec<u8>)>) {
    for (id, wire) in replies {
        let c = clients
            .iter_mut()
            .find(|c| c.lcm().id() == id)
            .expect("reply for a known client");
        let done = c.complete(&wire).unwrap();
        assert_eq!(done.result, KvResult::Stored);
    }
}

/// The amortization invariant: with batch limit B and M queued ops,
/// one round costs exactly ceil(M/B) seal-and-store cycles per shard
/// (summed over the shards that took traffic), and every op is
/// counted.
fn amortization_invariants_across_batch_limits(mode: Mode) {
    let keys: Vec<Vec<u8>> = (0..GROUP).map(|i| format!("k{i}").into_bytes()).collect();
    for &batch in &BATCH_LIMITS {
        let (_, mut server, _, mut clients) = bootstrap(
            mode,
            Arc::new(MemoryStorage::new()),
            GROUP,
            batch,
            11_000 + batch as u64,
        );
        let m = GROUP as u64;
        let expected_batches_per_round = common::expected_batches(mode, &keys, batch);

        for round in 0..2u32 {
            let batches_before = server.batches_processed();
            let ops_before = server.ops_processed();
            let replies = submit_round(&mut server, &mut clients, round);
            assert_eq!(replies.len(), GROUP as usize, "batch={batch}");
            complete_round(&mut clients, replies);
            assert_eq!(
                server.ops_processed() - ops_before,
                m,
                "batch={batch}: every op counted"
            );
            assert_eq!(
                server.batches_processed() - batches_before,
                expected_batches_per_round,
                "batch={batch}: ceil(M/B) seal-and-store cycles"
            );
        }
        server.flush_persists().unwrap();
    }
}

/// Batching must not change results: the final store contents agree
/// across all batch limits.
fn batch_limits_agree_on_state(mode: Mode) {
    let mut finals = Vec::new();
    for &batch in &BATCH_LIMITS {
        // Same seed for every batch limit: identical keys and ops.
        let (_, mut server, _, mut clients) =
            bootstrap(mode, Arc::new(MemoryStorage::new()), 8, batch, 12_345);
        for round in 0..3u32 {
            let replies = submit_round(&mut server, &mut clients, round);
            complete_round(&mut clients, replies);
        }
        let snapshot: Vec<_> = (0..8)
            .map(|i| {
                clients[i]
                    .get(&mut *server, format!("k{i}").as_bytes())
                    .unwrap()
            })
            .collect();
        finals.push(snapshot);
    }
    assert_eq!(finals[0], finals[1]);
    assert_eq!(finals[1], finals[2]);
}

/// Crash-mid-batch: the server dies after executing a full batch but
/// before any reply is delivered. Every client retries; recovery must
/// be exactly-once (cached replies, original sequence numbers).
fn crash_mid_batch_recovery(mode: Mode) {
    let (_, mut server, _, mut clients) =
        bootstrap(mode, Arc::new(MemoryStorage::new()), 64, 64, 13_000);
    // Round 0 completes normally so every client has context.
    let replies = submit_round(&mut server, &mut clients, 0);
    complete_round(&mut clients, replies);

    // Round 1: the whole batch executes, then the server crashes with
    // all replies undelivered.
    let replies = submit_round(&mut server, &mut clients, 1);
    assert_eq!(replies.len(), 64);
    drop(replies);
    server.crash();
    assert!(!server.boot().unwrap(), "recovered, not re-provisioned");

    // Timeouts expire: everyone retries; T resends cached results.
    for c in clients.iter_mut() {
        server.submit(c.lcm_mut().retry().unwrap());
    }
    let replies = server.process_all().unwrap();
    assert_eq!(replies.len(), 64);
    for (id, wire) in replies {
        let c = clients.iter_mut().find(|c| c.lcm().id() == id).unwrap();
        let done = c.complete(&wire).unwrap();
        assert_eq!(
            done.completion.seq.0,
            c.lcm().last_seq().0,
            "cached reply, original sequence number"
        );
    }

    // Service continues normally afterwards.
    let replies = submit_round(&mut server, &mut clients, 2);
    complete_round(&mut clients, replies);
}

/// Regression for reply ordering under sharded fan-out: replies from
/// concurrent shards must reach each client in that client's
/// submission order, even when one shard's queue is much deeper than
/// the other's. (The client completes replies against its oldest
/// pending operation, so any reordering trips the echo check as a
/// violation.)
fn replies_ordered_per_client_under_fanout(mode: Mode) {
    let (_, mut server, _, mut clients) =
        bootstrap(mode, Arc::new(MemoryStorage::new()), 10, 4, 16_000);

    // Two keys on different shards when sharded (any two keys when
    // not): k_busy's shard also absorbs filler traffic from the other
    // clients, so the observer's first op finishes in a *later* batch
    // round than its second unless ordering is enforced.
    let k_busy = b"ka0".to_vec();
    let mut k_idle = b"kb1".to_vec();
    if mode.shards() > 1 {
        let mut found = None;
        for i in 0..64u32 {
            let cand = format!("kb{i}").into_bytes();
            if mode.shard_of_key(&cand) != mode.shard_of_key(&k_busy) {
                found = Some(cand);
                break;
            }
        }
        k_idle = found.expect("some key maps to another shard");
    }

    let (observer, fillers) = clients.split_at_mut(1);
    let observer = &mut observer[0];
    let observer_id = observer.lcm().id();

    // Nine filler clients each queue one op on the busy key's shard
    // (batch limit 4 ⇒ three processing rounds there), all before the
    // observer submits.
    for (f, c) in fillers.iter_mut().enumerate() {
        let wire = c
            .invoke_wire(&KvOp::Put(k_busy.clone(), vec![f as u8]))
            .unwrap();
        server.submit(wire);
    }
    // Observer: op 1 to the (deep) busy shard, then op 2 to the idle
    // shard — in flight *together* when the deployment has more than
    // one shard (the client pipelines across shards only; with one
    // shard op 2 follows op 1's completion). The idle shard finishes
    // op 2 in its first round; op 1 waits behind the fillers — yet the
    // replies must come back in submission order.
    server.submit(
        observer
            .invoke_wire(&KvOp::Put(k_busy.clone(), b"first".to_vec()))
            .unwrap(),
    );
    let pipelined_second = mode.shards() > 1;
    if pipelined_second {
        server.submit(
            observer
                .invoke_wire(&KvOp::Put(k_idle.clone(), b"second".to_vec()))
                .unwrap(),
        );
    }

    // One `process_all` processes everything; the server releases each
    // client's replies in that client's submission order, and each
    // client consumes its own in the order they were released.
    let replies = server.process_all().unwrap();
    assert_eq!(replies.len(), 10 + usize::from(pipelined_second));
    let (mine, others): (Vec<_>, Vec<_>) =
        replies.into_iter().partition(|(id, _)| *id == observer_id);
    let mut mine = mine.into_iter();
    let (_, r1) = mine.next().expect("first reply");
    let done1 = observer.complete(&r1).unwrap();
    assert_eq!(done1.result, KvResult::Stored);
    let r2 = if pipelined_second {
        mine.next().expect("second reply").1
    } else {
        server.submit(
            observer
                .invoke_wire(&KvOp::Put(k_idle.clone(), b"second".to_vec()))
                .unwrap(),
        );
        let mut replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        replies.remove(0).1
    };
    let done2 = observer.complete(&r2).unwrap();
    assert_eq!(done2.result, KvResult::Stored);
    assert!(!observer.lcm().has_pending());
    assert!(!observer.lcm().is_halted());
    // Filler replies all belong to a filler — nothing unroutable.
    for (id, wire) in others {
        let c = fillers
            .iter_mut()
            .find(|c| c.lcm().id() == id)
            .expect("reply for a known filler");
        c.complete(&wire).unwrap();
    }
}

all_modes!(
    amortization_invariants_across_batch_limits,
    batch_limits_agree_on_state,
    crash_mid_batch_recovery,
    replies_ordered_per_client_under_fanout,
);

fn pipelined_setup(
    seed: u64,
    storage: Arc<dyn lcm::storage::StableStorage>,
) -> (LcmServer<KvStore>, KvsClient) {
    let world = TeeWorld::new_deterministic(seed);
    let platform = world.platform_deterministic(1);
    let mut server = LcmServer::<KvStore>::new(&platform, storage, 1).into_pipelined();
    server.boot().unwrap();
    let mut admin =
        AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, seed);
    admin.bootstrap(&mut server).unwrap();
    let client = KvsClient::new(ClientId(1), admin.client_key());
    (server, client)
}

/// Pipelined counterpart of the synchronous flaky-disk scenario in
/// tests/end_to_end.rs: the operation's reply outruns the failing
/// persist, so the storage error surfaces *deferred* — on flush — as
/// an error, never as a violation. After a restart, the lost write
/// behaves like a rollback, which the client detects.
#[test]
fn pipelined_storage_failure_surfaces_deferred_then_detected() {
    use lcm::storage::{FailureMode, FlakyStorage};
    let flaky = Arc::new(FlakyStorage::new(MemoryStorage::new()));
    let (mut server, mut client) = pipelined_setup(14_000, flaky.clone());

    client.put(&mut server, b"k", b"v1").unwrap();
    server.flush().unwrap();

    // Disk starts failing. The reply still arrives (async write!)...
    flaky.set_mode(FailureMode::FailStores);
    client
        .run(&mut server, &KvOp::Put(b"k".to_vec(), b"v2".to_vec()))
        .unwrap();
    // ...and the failure surfaces on the flush barrier as a storage
    // error, not a protocol violation.
    let err = server.flush().unwrap_err();
    assert!(!err.is_violation(), "I/O failure misclassified: {err:?}");
    assert!(flaky.failures() >= 1);

    // Restart on a recovered disk: v2's persist was lost, so the
    // client — which holds v2's acknowledgement — detects the gap.
    flaky.set_mode(FailureMode::None);
    server.crash();
    server.boot().unwrap();
    let err = client
        .run(&mut server, &KvOp::Get(b"k".to_vec()))
        .unwrap_err();
    assert!(err.is_violation(), "got {err:?}");
}

/// The pipelined server's bounded writer queue really exerts
/// back-pressure: with a slow disk behind its
/// `DEFAULT_WRITER_QUEUE`-slot queue, execution blocks at least once.
#[test]
fn pipelined_backpressure_is_observable() {
    use lcm::storage::DelayedStorage;
    use std::time::Duration;
    let slow = Arc::new(DelayedStorage::new(
        MemoryStorage::new(),
        Duration::from_millis(2),
    ));
    let world = TeeWorld::new_deterministic(15_000);
    let platform = world.platform_deterministic(1);
    let mut server = LcmServer::<KvStore>::new(&platform, slow, 1).into_pipelined();
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 15);
    admin.bootstrap(&mut server).unwrap();
    let mut client = KvsClient::new(ClientId(1), admin.client_key());

    for i in 0..10u32 {
        client
            .run(
                &mut server,
                &KvOp::Put(b"k".to_vec(), i.to_be_bytes().to_vec()),
            )
            .unwrap();
    }
    server.flush().unwrap();
    assert!(
        server.backpressure_events() > 0,
        "a full writer queue behind a slow disk must block execution"
    );
    assert_eq!(server.persists_completed(), server.batches_processed());
}
