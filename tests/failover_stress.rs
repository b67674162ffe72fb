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
//! Both lanes run: sync member servers and pipelined ones, and
//! `common::settle` judges every client's history with the omniscient
//! verifiers. The CI `failover-stress` tier repeats this suite with
//! distinct `LCM_STRESS_SEED`s; the seed is logged for replay.

mod common;

use std::time::Duration;

use common::{fleet, increment_once, names_covering_all_shards, settle, stress_seed};
use lcm::prelude::*;

const SHARDS: u32 = 2;
const REPLICAS: u32 = 3; // 2f+1 with f = 1: one kill per group is always survivable
const CLIENT_THREADS: u32 = 6;
const DRIVER_THREADS: usize = 4;
const CHURN_CYCLES: usize = 4;

/// Kill → (implicit) promote → reboot churn under live load. Even
/// cycles kill each group's **current leader** (forcing a failover on
/// the next drive); odd cycles rotate through the followers. At most
/// one member per group is ever down, so the majority quorum always
/// holds every acknowledged write.
fn member_churn_under_load(pipelined: bool) {
    const INCS_PER_NAME: u64 = 6;
    let builder = DeploymentBuilder::new()
        .shards(SHARDS)
        .replicas(REPLICAS)
        .frontend(DRIVER_THREADS)
        .seed(32_000 + stress_seed());
    let (mut dep, clients) = fleet(builder, pipelined, CLIENT_THREADS, |client, port| {
        // Exactly-once through any number of failovers: the i-th
        // completed increment reads i.
        let names = names_covering_all_shards(client.id(), SHARDS);
        for round in 1..=INCS_PER_NAME {
            for name in &names {
                increment_once(client, port, name, round);
            }
        }
        // No slice moves here: a redirect would be a stray.
        assert_eq!(client.routing_epoch(), 0, "client {:?}", client.id());
    });

    // The churn loop: one victim per group per cycle, kill then reboot.
    // A rebooted member must resume from its sealed state (never
    // fresh), and the reboot path catches it up to the leader so the
    // group re-arms to full 2f+1 tolerance before the next cycle.
    let server = dep.frontend_mut();
    for cycle in 0..CHURN_CYCLES {
        std::thread::sleep(Duration::from_millis(120));
        for group in 0..SHARDS {
            let victim = if cycle % 2 == 0 {
                server.group_leader(group)
            } else {
                1 + (cycle as u32 % (REPLICAS - 1))
            };
            server.kill_member(group, victim, false).unwrap();
            std::thread::sleep(Duration::from_millis(60));
            assert!(
                !server.reboot_member(group, victim).unwrap(),
                "rebooted member resumes from sealed state"
            );
        }
    }

    // Leader-death write-offs settled every ticket, no acknowledged
    // write was lost, and every client's history is one history.
    let total = settle(&mut dep, clients);
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * INCS_PER_NAME);
}

#[test]
fn member_churn_under_load_sync_lanes() {
    member_churn_under_load(false);
}

#[test]
fn member_churn_under_load_pipelined_lanes() {
    member_churn_under_load(true);
}
