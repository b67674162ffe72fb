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
//! (`LcmServer::into_pipelined`). The CI `frontend-stress` tier repeats this
//! suite with `RUST_TEST_THREADS` pinned high and distinct
//! `LCM_STRESS_SEED`s to shake out ordering races; the seed is logged
//! so a failing schedule can be replayed.

mod common;

use std::time::Duration;

use common::{fleet, increment_once, names_covering_all_shards, settle, stress_seed, Fleet};
use lcm::core::functionality::Counter;
use lcm::core::shard::{route_hash, shard_index};
use lcm::prelude::*;

const SHARDS: u32 = 4;
const CLIENT_THREADS: u32 = 8;
const DRIVER_THREADS: usize = 4;

/// The 4-shard fleet with continuous drivers both properties run.
fn build_fleet(pipelined: bool, body: fn(&mut LcmClient, &FrontendPort)) -> Fleet {
    let builder = DeploymentBuilder::new()
        .shards(SHARDS)
        .frontend(DRIVER_THREADS)
        .seed(31_000 + stress_seed());
    fleet(builder, pipelined, CLIENT_THREADS, body)
}

/// Property 1: per-client submission-order delivery under concurrent
/// multi-producer load.
fn ordered_bursts(pipelined: bool) {
    const ROUNDS: u64 = 8;
    let (mut dep, clients) = build_fleet(pipelined, |client, port| {
        let names = names_covering_all_shards(client.id(), SHARDS);
        let mut submitted: Vec<Vec<u8>> = Vec::new();
        for round in 0..ROUNDS {
            // Burst: one op per shard, pipelined, all in flight
            // together.
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
        // The recorded completion order IS the submission order — the
        // front-end's demux never reordered this client's replies,
        // across rounds or within a burst.
        let completed: Vec<Vec<u8>> = client.records().iter().map(|r| r.op.clone()).collect();
        assert_eq!(completed, submitted, "client {:?}", client.id());
    });
    let total = settle(&mut dep, clients);
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * ROUNDS);
    assert_eq!(dep.frontend().ops_processed(), total);
    let stats = dep.stats();
    assert_eq!(stats.submitted(), total);
    assert_eq!(stats.delivered(), total);
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
    let victim = shard_index(route_hash(b"victim-pick"), SHARDS);
    let (mut dep, clients) = build_fleet(pipelined, |client, port| {
        // Sequential ops with timeout-retry: a ticket written off by
        // the crash produces no reply, so the retry path is what
        // converges.
        let names = names_covering_all_shards(client.id(), SHARDS);
        for round in 1..=INCS_PER_NAME {
            for name in &names {
                increment_once(client, port, name, round);
            }
        }
        // No slice moves here: a redirect would be a stray.
        assert_eq!(client.routing_epoch(), 0, "client {:?}", client.id());
    });

    // While the fleet hammers the deployment, crash and reboot one
    // shard repeatedly. `with_shard` writes off the victim's in-flight
    // tickets so no other shard's replies are ever dammed up.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(120));
        let server = dep.frontend_mut();
        server.with_shard(victim, |s| s.crash());
        std::thread::sleep(Duration::from_millis(80));
        server
            .with_shard(victim, |s| s.boot())
            .expect("victim shard reboots from its sealed state");
    }

    // Crash write-offs settled every ticket; every op completed once.
    let total = settle(&mut dep, clients);
    assert_eq!(total, u64::from(CLIENT_THREADS * SHARDS) * INCS_PER_NAME);
}

#[test]
fn crash_reboot_one_shard_sync_lanes() {
    crash_reboot_one_shard(false);
}

#[test]
fn crash_reboot_one_shard_pipelined_lanes() {
    crash_reboot_one_shard(true);
}
