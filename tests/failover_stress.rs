//! Failover stress for replicated shard groups: client threads hammer
//! a deployment of 2f+1 replica groups through the concurrent
//! front-end while a churn loop kills, promotes, and reboots one
//! member per group — leaders included.
//!
//! Three properties under load:
//!
//! 1. **Zero lost acknowledged writes** — every completed increment of
//!    a private counter reads exactly its round number, through any
//!    number of kills, failovers, and reboots. A quorum-acknowledged
//!    write surviving on f+1 members is what makes this hold when the
//!    leader itself is the victim.
//! 2. **No false violations** — member churn is an honest fault, so no
//!    client may ever halt, and any transport-level error surfaced by
//!    the front-end must be a non-violation (enclave unavailable), not
//!    a fork/rollback verdict.
//! 3. **Convergence via timeout-retry** — a write whose ticket died
//!    with a killed leader produces no reply; the client's §4.6.1
//!    timeout-retry (cached-reply exactness included) is the only
//!    recovery mechanism in play, and it must converge.
//!
//! Both lanes run: sync member servers and pipelined ones. The CI
//! `failover-stress` job repeats this suite with distinct
//! `LCM_STRESS_SEED`s; the seed is logged so a failing schedule can be
//! replayed.

use std::sync::Arc;
use std::time::Duration;

use lcm::core::admin::AdminHandle;
use lcm::core::client::LcmClient;
use lcm::core::functionality::Counter;
use lcm::core::server::BatchServer;
use lcm::core::shard::{self, build_replicated};
use lcm::core::stability::Quorum;
use lcm::core::transport::{DriveMode, Frontend, FrontendPort};
use lcm::core::types::ClientId;
use lcm::storage::MemoryStorage;
use lcm::tee::world::TeeWorld;

const SHARDS: u32 = 2;
const REPLICAS: u32 = 3; // 2f+1 with f = 1: one kill per group is always survivable
const CLIENT_THREADS: u32 = 6;
const DRIVER_THREADS: usize = 4;
const CHURN_CYCLES: usize = 4;
/// Retry timeout: long enough that an idle-system reply (microseconds)
/// never races it, short enough to converge through a failover quickly.
const RETRY_AFTER: Duration = Duration::from_millis(500);

fn stress_seed() -> u64 {
    let seed = std::env::var("LCM_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    eprintln!(
        "failover_stress config: seed={seed} shards={SHARDS} replicas={REPLICAS} \
         client_threads={CLIENT_THREADS} driver_threads={DRIVER_THREADS}"
    );
    seed
}

type Fleet = (Frontend, Vec<LcmClient>);

fn build_fleet(pipelined: bool, seed: u64) -> Fleet {
    let world = TeeWorld::new_deterministic(32_000 + seed);
    let server = build_replicated::<Counter>(
        &world,
        1,
        Arc::new(MemoryStorage::new()),
        16,
        shard::ReplicationSpec {
            shards: SHARDS,
            replicas: REPLICAS,
            quorum: Quorum::Majority,
        },
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

/// One counter name per shard group, private to `client`.
fn names_covering_all_shards(client: ClientId) -> Vec<Vec<u8>> {
    (0..SHARDS)
        .map(|shard| shard::nth_key_routing_to(shard, SHARDS, &format!("c{}-", client.0), 0))
        .collect()
}

/// Kill → (implicit) promote → reboot churn under live load. Even
/// cycles kill each group's **current leader** (forcing a failover on
/// the next drive); odd cycles rotate through the followers. At most
/// one member per group is ever down, so the majority quorum always
/// holds every acknowledged write.
fn member_churn_under_load(pipelined: bool) {
    const INCS_PER_NAME: u64 = 6;
    let seed = stress_seed();
    let (mut fe, clients) = build_fleet(pipelined, seed);
    let handles: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let port: FrontendPort = fe.connect(client.id());
            std::thread::spawn(move || {
                let names = names_covering_all_shards(client.id());
                for round in 1..=INCS_PER_NAME {
                    for name in &names {
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
                        // Exactly-once through any number of failovers:
                        // the i-th completed increment reads i.
                        assert_eq!(
                            value,
                            round,
                            "lost or doubled acknowledged write: client {:?} name {:?}",
                            client.id(),
                            String::from_utf8_lossy(name)
                        );
                        while port.try_recv().is_some() {}
                    }
                }
                assert!(
                    !client.is_halted(),
                    "member churn must never surface as a violation"
                );
                u64::from(SHARDS) * INCS_PER_NAME
            })
        })
        .collect();

    // The churn loop: one victim per group per cycle, kill then reboot.
    // A rebooted member must resume from its sealed state (never
    // fresh), and the reboot path catches it up to the leader so the
    // group re-arms to full 2f+1 tolerance before the next cycle.
    for cycle in 0..CHURN_CYCLES {
        std::thread::sleep(Duration::from_millis(120));
        for group in 0..SHARDS {
            let victim = if cycle % 2 == 0 {
                fe.server_mut().group_leader(group)
            } else {
                1 + (cycle as u32 % (REPLICAS - 1))
            };
            fe.server_mut().kill_member(group, victim, false).unwrap();
            std::thread::sleep(Duration::from_millis(60));
            assert!(
                !fe.server_mut().reboot_member(group, victim).unwrap(),
                "rebooted member resumes from sealed state"
            );
        }
    }

    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * INCS_PER_NAME);
    // Wires that died with a killed leader surface as non-violation
    // errors (enclave unavailable) — never as protocol violations.
    if let Err(e) = fe.process_all() {
        assert!(!e.is_violation(), "churn noise misclassified: {e:?}");
    }
    assert_eq!(fe.stats().dropped_replies(), 0);
    assert_eq!(
        fe.in_flight(),
        0,
        "leader-death write-offs settled every ticket"
    );
}

#[test]
fn member_churn_under_load_sync_lanes() {
    member_churn_under_load(false);
}

#[test]
fn member_churn_under_load_pipelined_lanes() {
    member_churn_under_load(true);
}
