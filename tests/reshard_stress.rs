//! Live-resharding stress: client threads hammer a sharded deployment
//! through the concurrent front-end — half of them pinned to slices of
//! one hot shard — while the main thread continuously migrates slices:
//! heat-driven rebalance passes interleaved with seeded forced moves,
//! so the slice table keeps advancing under live load.
//!
//! Three properties under churn:
//!
//! 1. **Zero lost acknowledged writes** — every completed increment of
//!    a private counter reads exactly its round number, through any
//!    number of epoch bumps; a slice migrating mid-stream must carry
//!    its V-map entries and chain continuation to the new owner.
//! 2. **No false violations** — live migration is an honest
//!    reconfiguration, so no client may ever halt; stale-epoch wires
//!    get typed redirects, never `WrongShard` verdicts.
//! 3. **Redirect convergence** — a client chasing redirects reaches
//!    the slice's current owner in bounded steps no matter how many
//!    epochs it is behind.
//!
//! Both lanes run: sync shard servers and pipelined ones. The CI
//! `reshard-stress` job repeats this suite with distinct
//! `LCM_STRESS_SEED`s; the seed picks the forced-move schedule and is
//! logged so a failing schedule can be replayed.

use std::sync::Arc;
use std::time::Duration;

use lcm::core::admin::AdminHandle;
use lcm::core::client::{LcmClient, WriteOutcome};
use lcm::core::functionality::Counter;
use lcm::core::routing::SLICE_COUNT;
use lcm::core::server::BatchServer;
use lcm::core::shard::{self, build_sharded};
use lcm::core::stability::Quorum;
use lcm::core::transport::{DriveMode, Frontend, FrontendPort};
use lcm::core::types::ClientId;
use lcm::storage::MemoryStorage;
use lcm::tee::world::TeeWorld;

const SHARDS: u32 = 4;
const HOT_SHARD: u32 = 0;
/// Clients 1..=4 hammer slices of the hot shard; 5..=6 spread
/// uniformly.
const CLIENT_THREADS: u32 = 6;
const HOT_CLIENTS: u32 = 4;
const DRIVER_THREADS: usize = 3;
const CHURN_CYCLES: usize = 5;
const INCS_PER_NAME: u64 = 8;
/// Retry timeout: long enough that an idle-system reply never races
/// it, short enough to converge through a migration window quickly.
const RETRY_AFTER: Duration = Duration::from_millis(500);

fn stress_seed() -> u64 {
    let seed = std::env::var("LCM_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    eprintln!(
        "reshard_stress config: seed={seed} shards={SHARDS} hot_shard={HOT_SHARD} \
         client_threads={CLIENT_THREADS} hot_clients={HOT_CLIENTS} \
         driver_threads={DRIVER_THREADS} churn_cycles={CHURN_CYCLES}"
    );
    seed
}

type Fleet = (Frontend, Vec<LcmClient>);

fn build_fleet(pipelined: bool, seed: u64) -> Fleet {
    let world = TeeWorld::new_deterministic(48_000 + seed);
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

/// The private counter names one client hammers: hot clients pin all
/// their names to (genesis) slices of the hot shard, the rest cover
/// every shard once.
fn names_for(client: ClientId) -> Vec<Vec<u8>> {
    if client.0 <= HOT_CLIENTS {
        (0..SHARDS)
            .map(|n| shard::nth_key_routing_to(HOT_SHARD, SHARDS, &format!("h{}-", client.0), n))
            .collect()
    } else {
        (0..SHARDS)
            .map(|s| shard::nth_key_routing_to(s, SHARDS, &format!("u{}-", client.0), 0))
            .collect()
    }
}

/// Continuous slice migration under live hot-skew load.
fn continuous_migration_under_load(pipelined: bool) {
    let seed = stress_seed();
    let (mut fe, clients) = build_fleet(pipelined, seed);
    let handles: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let port: FrontendPort = fe.connect(client.id());
            std::thread::spawn(move || {
                let names = names_for(client.id());
                for round in 1..=INCS_PER_NAME {
                    for name in &names {
                        let op = Counter::inc_op(name, 1);
                        port.send(client.invoke_for::<Counter>(&op).unwrap());
                        let mut attempts = 0u32;
                        let value = loop {
                            match port.recv_timeout(RETRY_AFTER) {
                                Some(reply) => match client.handle_reply_on(&reply).unwrap() {
                                    (_, WriteOutcome::Done(done)) => {
                                        break Counter::decode_result(&done.result).unwrap();
                                    }
                                    (_, WriteOutcome::Redirected { .. }) => {
                                        // Chase: re-mint under the
                                        // newer table the redirect
                                        // taught us.
                                        attempts += 1;
                                        assert!(
                                            attempts < 120,
                                            "redirect chase diverged: client {:?} name {:?}",
                                            client.id(),
                                            String::from_utf8_lossy(name)
                                        );
                                        port.send(client.invoke_for::<Counter>(&op).unwrap());
                                    }
                                },
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
                        // Exactly-once through any number of slice
                        // moves: the i-th completed increment reads i.
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
                    "live migration must never surface as a violation"
                );
                u64::from(SHARDS) * INCS_PER_NAME
            })
        })
        .collect();

    // The migration loop: heat-driven rebalance passes (the monitor a
    // deployment would run) interleaved with seeded forced moves, so
    // the epoch advances even when the sampled heat happens to look
    // balanced. A tiny LCG on the seed picks the forced schedule.
    let mut rng = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut forced = 0u64;
    for _ in 0..CHURN_CYCLES {
        std::thread::sleep(Duration::from_millis(60));
        if let Some((slice, to)) = fe.server_mut().rebalance_once().unwrap() {
            eprintln!("rebalance: slice {slice} -> shard {to}");
        }
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let slice = (rng >> 33) as u32 % SLICE_COUNT;
        let owner = fe.server_mut().current_table().owner(slice);
        let to = (owner + 1 + ((rng >> 11) as u32 % (SHARDS - 1))) % SHARDS;
        if to != owner {
            fe.migrate_slice(slice, to).unwrap();
            forced += 1;
        }
    }

    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * INCS_PER_NAME);
    assert!(
        fe.routing_epoch() >= forced,
        "every forced move must have advanced the epoch"
    );
    assert!(forced > 0, "the seeded schedule always forces moves");
    // Migration is honest reconfiguration: nothing may surface as a
    // protocol violation, and every ticket settles.
    if let Err(e) = fe.process_all() {
        assert!(!e.is_violation(), "migration noise misclassified: {e:?}");
    }
    assert_eq!(fe.stats().dropped_replies(), 0);
    assert_eq!(fe.in_flight(), 0, "every redirect and retry settled");
}

#[test]
fn continuous_migration_under_load_sync_lanes() {
    continuous_migration_under_load(false);
}

#[test]
fn continuous_migration_under_load_pipelined_lanes() {
    continuous_migration_under_load(true);
}
