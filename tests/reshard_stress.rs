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
//! `reshard-stress` tier repeats this suite with distinct
//! `LCM_STRESS_SEED`s; the seed picks the forced-move schedule and is
//! logged so a failing schedule can be replayed.

mod common;

use std::time::Duration;

use common::{fleet, increment_once, settle, stress_seed};
use lcm::core::routing::SLICE_COUNT;
use lcm::core::shard;
use lcm::prelude::*;

const SHARDS: u32 = 4;
const HOT_SHARD: u32 = 0;
/// Clients 1..=4 hammer slices of the hot shard; 5..=6 spread
/// uniformly.
const CLIENT_THREADS: u32 = 6;
const HOT_CLIENTS: u32 = 4;
const DRIVER_THREADS: usize = 3;
const CHURN_CYCLES: usize = 5;
const INCS_PER_NAME: u64 = 8;

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
    let builder = DeploymentBuilder::new()
        .shards(SHARDS)
        .frontend(DRIVER_THREADS)
        .seed(48_000 + seed);
    let (mut dep, clients) = fleet(builder, pipelined, CLIENT_THREADS, |client, port| {
        // Exactly-once through any number of slice moves: the i-th
        // completed increment reads i, redirect chases included.
        let names = names_for(client.id());
        for round in 1..=INCS_PER_NAME {
            for name in &names {
                increment_once(client, port, name, round);
            }
        }
    });

    // The migration loop: heat-driven rebalance passes (the monitor a
    // deployment would run) interleaved with seeded forced moves, so
    // the epoch advances even when the sampled heat happens to look
    // balanced. A tiny LCG on the seed picks the forced schedule.
    let mut rng = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut forced = 0u64;
    let fe = dep.frontend_mut();
    for _ in 0..CHURN_CYCLES {
        std::thread::sleep(Duration::from_millis(60));
        if let Some((slice, to)) = fe.rebalance_once().unwrap() {
            eprintln!("rebalance: slice {slice} -> shard {to}");
        }
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let slice = (rng >> 33) as u32 % SLICE_COUNT;
        let owner = fe.current_table().owner(slice);
        let to = (owner + 1 + ((rng >> 11) as u32 % (SHARDS - 1))) % SHARDS;
        if to != owner {
            fe.migrate_slice(slice, to).unwrap();
            forced += 1;
        }
    }

    // Migration is honest reconfiguration: nothing may surface as a
    // protocol violation, and every redirect and retry settled.
    let total = settle(&mut dep, clients);
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * INCS_PER_NAME);
    assert!(
        dep.frontend().routing_epoch() >= forced,
        "every forced move must have advanced the epoch"
    );
    assert!(forced > 0, "the seeded schedule always forces moves");
}

#[test]
fn continuous_migration_under_load_sync_lanes() {
    continuous_migration_under_load(false);
}

#[test]
fn continuous_migration_under_load_pipelined_lanes() {
    continuous_migration_under_load(true);
}
