//! Multi-tenant admission-control stress for the front door.
//!
//! Two properties, across both server modes (sync / pipelined) and
//! both ways to drive a front-end (continuous drivers / on-demand, no
//! drivers, stepped by the test thread):
//!
//! 1. **Bounded cross-tenant interference** — a greedy tenant
//!    flooding the deployment cannot degrade a metered tenant's p99
//!    latency beyond a bounded factor of its contention-free p99: the
//!    greedy tenant's token bucket and weighted-fair-queueing credit
//!    cap hold it at the door instead of letting it fill the shard
//!    queues.
//! 2. **Replay, not re-execution** — a duplicate submission (retry
//!    after a lost reply) is answered from the host reply book: the
//!    per-shard op counters do not move, and the replayed reply still
//!    verifies at the client (the wire is byte-identical, so the
//!    enclave's hash-chain echo checks out).
//!
//! The CI `admission-stress` job repeats this suite with distinct
//! `LCM_STRESS_SEED`s; the seed is logged so a failing schedule can
//! be replayed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lcm::core::admission::{AdmissionConfig, AdmitOutcome, TenantConfig, TenantId};
use lcm::core::functionality::Counter;
use lcm::core::shard;
use lcm::prelude::*;
use lcm::storage::{DelayedStorage, MemoryStorage};

const SHARDS: u32 = 2;
/// The metered (victim) tenant's single client.
const VICTIM: ClientId = ClientId(1);
/// The greedy tenant's clients, each flooding from its own thread.
const GREEDY_CLIENTS: u32 = 4;
/// Paced victim operations per measurement run.
const VICTIM_OPS: u64 = 32;
/// Interference bound: with admission on, contention may not push the
/// victim's p99 past `max(3 × alone_p99, FLOOR)`. The floor absorbs
/// the case where the contention-free p99 is so small (microseconds)
/// that 3× of it is below scheduling noise.
const BOUND_FACTOR: u64 = 3;
const FLOOR_US: u64 = 10_000;

fn stress_seed() -> u64 {
    let seed = std::env::var("LCM_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    eprintln!("admission_stress config: seed={seed} shards={SHARDS} greedy={GREEDY_CLIENTS}");
    seed
}

/// Victim tenant generously provisioned; greedy tenant throttled to a
/// low rate and a small fair-queueing share. The weights matter as
/// much as the rate: with a 15:1 split of a 64-slot budget the greedy
/// tenant holds at most 4 wires in flight, so a victim op never waits
/// behind more than a handful of admitted greedy ops at its shard —
/// that queueing (not the token bucket) is what would otherwise drag
/// the victim's p99 past the bound on a fast machine.
fn two_tenant_policy() -> AdmissionConfig {
    let greedy_ids: Vec<ClientId> = (0..GREEDY_CLIENTS).map(|i| ClientId(100 + i)).collect();
    let mut config = AdmissionConfig::new(vec![
        TenantConfig::unlimited(TenantId(1), vec![VICTIM], 15),
        TenantConfig::metered(TenantId(2), greedy_ids, 200.0, 4, 1),
    ]);
    config.max_in_flight = 64;
    config
}

fn build_contended(pipelined: bool, continuous: bool, seed: u64) -> Deployment {
    let storage = Arc::new(DelayedStorage::new(
        MemoryStorage::new(),
        Duration::from_micros(500),
    ));
    let clients: Vec<ClientId> = std::iter::once(VICTIM)
        .chain((0..GREEDY_CLIENTS).map(|i| ClientId(100 + i)))
        .collect();
    let mut builder = DeploymentBuilder::<Counter>::new()
        .shards(SHARDS)
        .mode(if pipelined {
            Mode::Pipelined
        } else {
            Mode::Sync
        })
        .clients(clients)
        .admission(two_tenant_policy())
        .storage(storage)
        .seed(seed);
    if continuous {
        builder = builder.frontend(2);
    }
    builder.build().unwrap()
}

/// Runs the victim's paced closed loop (and, optionally, the greedy
/// flood) against a fresh deployment; returns the victim tenant's
/// overall p99 (µs) and the greedy tenant's rejected count.
fn victim_p99_under(pipelined: bool, continuous: bool, with_greedy: bool, seed: u64) -> (u64, u64) {
    let mut dep = build_contended(pipelined, continuous, seed);
    let stop = Arc::new(AtomicBool::new(false));

    let greedy_handles: Vec<_> = if with_greedy {
        (0..GREEDY_CLIENTS)
            .map(|i| {
                let id = ClientId(100 + i);
                let port = dep.port(id);
                let mut client = dep.client(id);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Closed-loop flood: each op as fast as the door
                    // lets it through. `send` absorbs the RetryAfter
                    // bounces (each still counts in the tenant's
                    // health row).
                    let name =
                        shard::nth_key_routing_to(id.0 % SHARDS, SHARDS, &format!("g{}-", id.0), 0);
                    while !stop.load(Ordering::SeqCst) {
                        let op = Counter::inc_op(&name, 1);
                        port.send(client.invoke_for::<Counter>(&op).unwrap());
                        let mut got = false;
                        while !got && !stop.load(Ordering::SeqCst) {
                            if let Some(reply) = port.recv_timeout(Duration::from_millis(50)) {
                                client.handle_reply(&reply).unwrap();
                                got = true;
                            }
                        }
                        if !got {
                            break; // stopping with an op in flight is fine
                        }
                    }
                    assert!(!client.is_halted(), "admission must never halt a client");
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    let victim_port = dep.port(VICTIM);
    let mut victim = dep.client(VICTIM);
    let victim_thread = std::thread::spawn(move || {
        let names: Vec<Vec<u8>> = (0..SHARDS)
            .map(|s| shard::nth_key_routing_to(s, SHARDS, "victim-", 0))
            .collect();
        for round in 0..VICTIM_OPS {
            let name = &names[(round % u64::from(SHARDS)) as usize];
            let op = Counter::inc_op(name, 1);
            victim_port.send(victim.invoke_for::<Counter>(&op).unwrap());
            let reply = victim_port
                .recv_timeout(Duration::from_secs(30))
                .expect("victim reply within 30s");
            victim.handle_reply(&reply).unwrap();
            // Paced, not saturating: the victim models a well-behaved
            // tenant whose latency we protect.
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!victim.is_halted());
    });

    if continuous {
        victim_thread.join().unwrap();
    } else {
        // On-demand front-end (no drivers): this thread steps it.
        while !victim_thread.is_finished() {
            dep.process_all().unwrap();
            std::thread::sleep(Duration::from_micros(200));
        }
        victim_thread.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    for h in greedy_handles {
        // Pump any straggling greedy in-flight op so its recv loop can
        // observe the stop flag (on-demand mode only needs one sweep).
        if !continuous {
            dep.process_all().unwrap();
        }
        h.join().unwrap();
    }

    let snapshot = dep.health_snapshot().expect("sharded plane has admission");
    assert!(snapshot.admission_enabled);
    assert_eq!(snapshot.mode, if pipelined { "pipelined" } else { "sync" });
    let victim_row = snapshot.tenant(TenantId(1)).expect("victim tenant row");
    assert_eq!(victim_row.admitted, VICTIM_OPS, "victim is never rejected");
    assert!(victim_row.overall.count >= VICTIM_OPS);
    let greedy_rejected = snapshot.tenant(TenantId(2)).map_or(0, |t| t.rejected);
    (victim_row.overall.p99_us, greedy_rejected)
}

fn bounded_interference(pipelined: bool, continuous: bool) {
    let seed = stress_seed();
    let (alone_p99, _) = victim_p99_under(pipelined, continuous, false, seed);
    let (contended_p99, greedy_rejected) = victim_p99_under(pipelined, continuous, true, seed);
    eprintln!(
        "pipelined={pipelined} continuous={continuous}: victim p99 alone={alone_p99}us \
         contended={contended_p99}us greedy_rejected={greedy_rejected}"
    );
    let bound = (BOUND_FACTOR * alone_p99).max(FLOOR_US);
    assert!(
        contended_p99 <= bound,
        "greedy tenant degraded victim p99 beyond the bound: \
         alone={alone_p99}us contended={contended_p99}us bound={bound}us"
    );
    assert!(
        greedy_rejected > 0,
        "the flood never hit the rate limiter — the scenario exerted no pressure"
    );
}

#[test]
fn bounded_interference_sync_continuous() {
    bounded_interference(false, true);
}

#[test]
fn bounded_interference_pipelined_continuous() {
    bounded_interference(true, true);
}

#[test]
fn bounded_interference_sync_on_demand() {
    bounded_interference(false, false);
}

#[test]
fn bounded_interference_pipelined_on_demand() {
    bounded_interference(true, false);
}

/// Property 2: duplicate submissions replay from the reply book.
fn duplicate_replays_without_reexecution(pipelined: bool) {
    let seed = stress_seed();
    // On-demand front-end (no free-running drivers): deterministic
    // pumping makes "the op counters did not move" exact.
    let mut dep = DeploymentBuilder::<Counter>::new()
        .shards(SHARDS)
        .mode(if pipelined {
            Mode::Pipelined
        } else {
            Mode::Sync
        })
        .clients(vec![VICTIM])
        .admission(AdmissionConfig::new(vec![TenantConfig::unlimited(
            TenantId(1),
            vec![VICTIM],
            1,
        )]))
        .seed(seed)
        .build()
        .unwrap();

    let mut client = dep.client(VICTIM);
    let port = dep.port(VICTIM);
    let name = b"dup-key".to_vec();

    // One committed op through the normal path.
    port.send(
        client
            .invoke_for::<Counter>(&Counter::inc_op(&name, 1))
            .unwrap(),
    );
    dep.process_all().unwrap();
    let first = port.recv_timeout(Duration::from_secs(5)).unwrap();
    client.handle_reply(&first).unwrap();

    let ops_before: u64 = dep.frontend().ops_processed();
    assert_eq!(ops_before, 1);

    // Second op: the reply is LOST on the way back (we drain and drop
    // it), so the client retries the identical envelope.
    port.send(
        client
            .invoke_for::<Counter>(&Counter::inc_op(&name, 1))
            .unwrap(),
    );
    dep.process_all().unwrap();
    let lost = port.recv_timeout(Duration::from_secs(5)).unwrap();
    drop(lost); // simulated reply loss
    assert_eq!(dep.frontend().ops_processed(), 2);

    // The retry must be recognized at the door and answered from the
    // reply book — no ticket, no enclave execution.
    let retry_wire = client.retry().unwrap();
    let outcome = port.try_send(retry_wire).unwrap();
    assert_eq!(outcome, AdmitOutcome::ReplayedReply);
    dep.process_all().unwrap();
    let replayed = port.recv_timeout(Duration::from_secs(5)).unwrap();
    let done = client.handle_reply(&replayed).unwrap();
    assert_eq!(Counter::decode_result(&done.result).unwrap(), 2);
    assert!(!client.is_halted(), "replayed reply must verify");

    // Re-execution would have moved the op counters.
    assert_eq!(
        dep.frontend().ops_processed(),
        2,
        "duplicate was re-executed instead of replayed"
    );
    let snapshot = dep.health_snapshot().unwrap();
    let row = snapshot.tenant(TenantId(1)).unwrap();
    assert_eq!(row.replayed, 1);
    let replays: u64 = snapshot.tenants.iter().map(|t| t.replayed).sum();
    assert_eq!(replays, 1, "one replay across every tenant");
}

#[test]
fn duplicate_replays_without_reexecution_sync() {
    duplicate_replays_without_reexecution(false);
}

#[test]
fn duplicate_replays_without_reexecution_pipelined() {
    duplicate_replays_without_reexecution(true);
}

/// A duplicate that races its original (still in flight) is coalesced,
/// not double-executed.
#[test]
fn in_flight_duplicate_is_coalesced() {
    let seed = stress_seed();
    let mut dep = DeploymentBuilder::<Counter>::new()
        .shards(SHARDS)
        .clients(vec![VICTIM])
        .admission(AdmissionConfig::new(vec![TenantConfig::unlimited(
            TenantId(1),
            vec![VICTIM],
            1,
        )]))
        .seed(seed)
        .build()
        .unwrap();
    let mut client = dep.client(VICTIM);
    let port = dep.port(VICTIM);

    let op = Counter::inc_op(b"race", 1);
    let wire = client.invoke_for::<Counter>(&op).unwrap();
    assert_eq!(port.try_send(wire).unwrap(), AdmitOutcome::Enqueued);
    // Same envelope again before the deployment ever executes it.
    let dup = client.retry().unwrap();
    assert_eq!(port.try_send(dup).unwrap(), AdmitOutcome::DuplicateInFlight);

    dep.process_all().unwrap();
    let reply = port.recv_timeout(Duration::from_secs(5)).unwrap();
    client.handle_reply(&reply).unwrap();
    assert_eq!(dep.frontend().ops_processed(), 1);
    assert!(port.try_recv().is_none(), "exactly one reply for the pair");
    let row = dep.health_snapshot().unwrap();
    assert_eq!(row.tenant(TenantId(1)).unwrap().deduped, 1);
}
