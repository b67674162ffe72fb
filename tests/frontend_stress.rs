//! Multi-threaded ingress stress for the concurrent transport
//! front-end: ≥8 client threads submit into a 4-shard deployment
//! through `FrontendPort`s while driver threads pump the lanes
//! continuously.
//!
//! Two properties under load:
//!
//! 1. **Per-client submission-order reply delivery** — each client
//!    pipelines a burst across distinct shards and must receive the
//!    replies in exactly the order it submitted (checked via the
//!    client's completion records).
//! 2. **Zero lost tickets across crash/reboot of one shard** — while
//!    the fleet hammers the deployment, one shard is crashed and
//!    rebooted repeatedly; affected tickets are written off (never
//!    wedging other clients' replies), affected clients retry after a
//!    timeout, and every operation completes exactly once (the final
//!    counter values prove no op was lost or doubled). No client may
//!    ever halt: an honest crash must never look like an attack.
//!
//! Both persist policies run: sync and pipelined
//! (`LcmServer::into_pipelined`). The CI `frontend-stress` job repeats this
//! suite with `RUST_TEST_THREADS` pinned high and distinct
//! `LCM_STRESS_SEED`s to shake out ordering races; the seed is logged
//! so a failing schedule can be replayed.

use std::sync::Arc;
use std::time::Duration;

use lcm::core::admin::AdminHandle;
use lcm::core::client::LcmClient;
use lcm::core::functionality::Counter;
use lcm::core::server::BatchServer;
use lcm::core::shard::{self, build_sharded, route_hash, shard_index};
use lcm::core::stability::Quorum;
use lcm::core::transport::{DriveMode, Frontend, FrontendPort};
use lcm::core::types::ClientId;
use lcm::storage::MemoryStorage;
use lcm::tee::world::TeeWorld;

const SHARDS: u32 = 4;
const CLIENT_THREADS: u32 = 8;
const DRIVER_THREADS: usize = 4;
/// Retry timeout: long enough that an idle-system reply (microseconds)
/// never races it, short enough to converge through a reboot quickly.
const RETRY_AFTER: Duration = Duration::from_millis(500);

fn stress_seed() -> u64 {
    let seed = std::env::var("LCM_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    eprintln!(
        "frontend_stress config: seed={seed} shards={SHARDS} \
         client_threads={CLIENT_THREADS} driver_threads={DRIVER_THREADS}"
    );
    seed
}

type Fleet = (Frontend, Vec<LcmClient>);

fn build_fleet(pipelined: bool, seed: u64) -> Fleet {
    let world = TeeWorld::new_deterministic(31_000 + seed);
    let server = build_sharded::<Counter>(
        &world,
        1,
        Arc::new(MemoryStorage::new()),
        16,
        SHARDS,
        pipelined,
    );
    let mut fe = Frontend::new(server, DRIVER_THREADS, DriveMode::Continuous);
    assert!(fe.boot().unwrap());
    let ids: Vec<ClientId> = (1..=CLIENT_THREADS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(&mut fe).unwrap();
    let clients = ids
        .iter()
        .map(|&id| LcmClient::new_sharded(id, admin.client_key(), SHARDS))
        .collect();
    (fe, clients)
}

/// One counter name per shard, private to `client` (so every client
/// exercises every shard without sharing state with the fleet).
fn names_covering_all_shards(client: ClientId) -> Vec<Vec<u8>> {
    (0..SHARDS)
        .map(|shard| shard::nth_key_routing_to(shard, SHARDS, &format!("c{}-", client.0), 0))
        .collect()
}

/// Property 1: per-client submission-order delivery under concurrent
/// multi-producer load.
fn ordered_bursts(pipelined: bool) {
    const ROUNDS: u64 = 8;
    let seed = stress_seed();
    let (fe, clients) = build_fleet(pipelined, seed);
    let handles: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let port: FrontendPort = fe.connect(client.id());
            std::thread::spawn(move || {
                client.set_recording(true);
                let names = names_covering_all_shards(client.id());
                let mut submitted: Vec<Vec<u8>> = Vec::new();
                for round in 0..ROUNDS {
                    // Burst: one op per shard, pipelined, all in
                    // flight together.
                    for name in &names {
                        let op = Counter::inc_op(name, round + 1);
                        port.send(client.invoke_for::<Counter>(&op).unwrap());
                        submitted.push(op);
                    }
                    for _ in 0..names.len() {
                        let reply = port
                            .recv_timeout(Duration::from_secs(30))
                            .expect("reply within 30s on an idle system");
                        client.handle_reply(&reply).unwrap();
                    }
                }
                assert!(!client.is_halted());
                assert!(!client.has_pending());
                // The recorded completion order IS the submission
                // order — the front-end's demux never reordered this
                // client's replies, across rounds or within a burst.
                let completed: Vec<Vec<u8>> =
                    client.records().iter().map(|r| r.op.clone()).collect();
                assert_eq!(completed, submitted, "client {:?}", client.id());
                submitted.len() as u64
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * ROUNDS);
    assert_eq!(fe.ops_processed(), total);
    assert_eq!(fe.in_flight(), 0, "every ticket settled");
    let stats = fe.stats();
    assert_eq!(stats.submitted(), total);
    assert_eq!(stats.delivered(), total);
    assert_eq!(stats.dropped_replies(), 0);
}

#[test]
fn ordered_bursts_sync_lanes() {
    ordered_bursts(false);
}

#[test]
fn ordered_bursts_pipelined_lanes() {
    ordered_bursts(true);
}

/// Property 2: zero lost tickets across crash/reboot of one shard.
fn crash_reboot_one_shard(pipelined: bool) {
    const INCS_PER_NAME: u64 = 6;
    let seed = stress_seed();
    let (mut fe, clients) = build_fleet(pipelined, seed);
    let victim = shard_index(route_hash(b"victim-pick"), SHARDS);
    let handles: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let port: FrontendPort = fe.connect(client.id());
            std::thread::spawn(move || {
                let names = names_covering_all_shards(client.id());
                for round in 1..=INCS_PER_NAME {
                    for name in &names {
                        // Sequential ops with timeout-retry: a ticket
                        // written off by the crash produces no reply,
                        // so the retry path is what converges.
                        let op = Counter::inc_op(name, 1);
                        port.send(client.invoke_for::<Counter>(&op).unwrap());
                        let mut attempts = 0u32;
                        let value = loop {
                            match port.recv_timeout(RETRY_AFTER) {
                                Some(reply) => {
                                    let done = client.handle_reply(&reply).unwrap();
                                    break Counter::decode_result(&done.result).unwrap();
                                }
                                None => {
                                    attempts += 1;
                                    assert!(
                                        attempts < 120,
                                        "op starved: client {:?} name {:?} round {round}",
                                        client.id(),
                                        String::from_utf8_lossy(name)
                                    );
                                    port.send(client.retry().unwrap());
                                }
                            }
                        };
                        // Exactly-once: the i-th completed increment
                        // reads i, through any number of retries,
                        // write-offs, and reboots.
                        assert_eq!(
                            value,
                            round,
                            "lost or doubled op: client {:?} name {:?}",
                            client.id(),
                            String::from_utf8_lossy(name)
                        );
                        // Drop any stale duplicate (a cached-reply
                        // resend that raced the timeout) before the
                        // next op is submitted.
                        while port.try_recv().is_some() {}
                    }
                }
                assert!(!client.is_halted(), "honest crashes must not halt clients");
                u64::from(SHARDS) * INCS_PER_NAME
            })
        })
        .collect();

    // While the fleet hammers the deployment, crash and reboot one
    // shard repeatedly. `with_shard` writes off the victim's in-flight
    // tickets so no other shard's replies are ever dammed up.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(120));
        fe.server_mut().with_shard(victim, |s| s.crash());
        std::thread::sleep(Duration::from_millis(80));
        fe.server_mut()
            .with_shard(victim, |s| s.boot())
            .expect("victim shard reboots from its sealed state");
    }

    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * INCS_PER_NAME);
    // Wires fed to the stopped enclave surface as non-violation errors
    // (enclave unavailable) — never as protocol violations.
    if let Err(e) = fe.process_all() {
        assert!(!e.is_violation(), "crash noise misclassified: {e:?}");
    }
    assert_eq!(fe.stats().dropped_replies(), 0);
    assert_eq!(fe.in_flight(), 0, "crash write-offs settled every ticket");
}

#[test]
fn crash_reboot_one_shard_sync_lanes() {
    crash_reboot_one_shard(false);
}

#[test]
fn crash_reboot_one_shard_pipelined_lanes() {
    crash_reboot_one_shard(true);
}
