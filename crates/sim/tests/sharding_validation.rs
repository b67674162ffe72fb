//! Validates the simulator's shard-count knob against the *real*
//! sharded multi-enclave stack.
//!
//! The engine models `Simulation::with_shards(n)` as n independent
//! stations with their own queues and disks; the real counterpart is
//! `lcm_core::shard::ShardedServer` running n enclaves over namespaced
//! storage with a wall-clock per-store latency. Both must agree
//! qualitatively: a saturated single enclave scales by well over 1.5x
//! at 4 shards, and a single unsaturated client gains nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm_core::admin::AdminHandle;
use lcm_core::client::LcmClient;
use lcm_core::functionality::Counter;
use lcm_core::server::BatchServer;
use lcm_core::shard::build_sharded;
use lcm_core::stability::Quorum;
use lcm_core::types::ClientId;
use lcm_kvs::client::KvsClient;
use lcm_kvs::ops::{KvOp, KvResult};
use lcm_sim::cost::ServerKind;
use lcm_sim::scenario::{run_scenario, Scenario};
use lcm_sim::CostModel;
use lcm_storage::{DelayedStorage, DeltaLogStorage, MemoryStorage};
use lcm_tee::world::TeeWorld;

const N_CLIENTS: u32 = 32;
const BATCH: usize = 4;
const ROUNDS: u32 = 8;
/// Large enough that the modelled device latency dominates even
/// unoptimized (debug-profile) enclave crypto on a single-core runner.
const STORE_DELAY: Duration = Duration::from_millis(2);

/// Real ops/s of the sharded stack: one `inc` per client per round on
/// the client's own counter (counters spread over shards by route
/// hash), all queued before each processing sweep.
fn measure_real(shards: u32, pipelined: bool) -> f64 {
    let world = TeeWorld::new_deterministic(9_000 + u64::from(shards));
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let mut server = build_sharded::<Counter>(&world, 1, storage, BATCH, shards, pipelined);
    assert!(server.boot().unwrap());
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 11);
    admin.bootstrap(&mut server).unwrap();
    let mut clients: Vec<LcmClient> = ids
        .iter()
        .map(|&id| LcmClient::new_sharded(id, admin.client_key(), shards))
        .collect();

    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for (i, c) in clients.iter_mut().enumerate() {
            let op = Counter::inc_op(format!("k{i}").as_bytes(), 1);
            server.submit(c.invoke_for::<Counter>(&op).unwrap());
        }
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), N_CLIENTS as usize);
        for (id, wire) in replies {
            let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
            c.handle_reply(&wire).unwrap();
        }
    }
    server.flush_persists().unwrap();
    f64::from(N_CLIENTS * ROUNDS) / t0.elapsed().as_secs_f64()
}

fn predict(shards: usize, n_clients: usize) -> f64 {
    let model = CostModel::default();
    let mut scenario = Scenario::paper_default(ServerKind::Lcm { batch: BATCH }, n_clients);
    scenario.fsync = true; // the real sweep charges every store
    scenario.shards = shards;
    run_scenario(&model, &scenario).throughput()
}

/// Real ops/s of the sharded stack behind the concurrent transport
/// front-end with `driver_threads` lane drivers: every client runs its
/// own closed loop on its own thread through a `FrontendPort`.
fn measure_real_frontend(shards: u32, driver_threads: usize) -> f64 {
    use lcm_core::transport::Frontend;
    let world = TeeWorld::new_deterministic(9_100 + u64::from(shards));
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let server = build_sharded::<Counter>(&world, 1, storage, BATCH, shards, false);
    let mut fe = Frontend::new(server, driver_threads);
    assert!(fe.boot().unwrap());
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 11);
    admin.bootstrap(&mut fe).unwrap();

    let t0 = Instant::now();
    let workers: Vec<_> = ids
        .iter()
        .map(|&id| {
            let mut client = LcmClient::new_sharded(id, admin.client_key(), shards);
            let port = fe.connect(id);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let op = Counter::inc_op(format!("k{}-{i}", id.0).as_bytes(), 1);
                    port.send(client.invoke_for::<Counter>(&op).unwrap());
                    let reply = port
                        .recv_timeout(Duration::from_secs(60))
                        .expect("closed-loop reply");
                    client.handle_reply(&reply).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    fe.flush_persists().unwrap();
    f64::from(N_CLIENTS * ROUNDS) / t0.elapsed().as_secs_f64()
}

fn predict_frontend(shards: usize, threads: usize, n_clients: usize) -> f64 {
    predict_frontend_with_model(&CostModel::default(), shards, threads, n_clients)
}

fn predict_frontend_with_model(
    model: &CostModel,
    shards: usize,
    threads: usize,
    n_clients: usize,
) -> f64 {
    let mut scenario = Scenario::paper_default(ServerKind::Lcm { batch: BATCH }, n_clients);
    scenario.fsync = true;
    scenario.shards = shards;
    scenario.frontend_threads = threads;
    run_scenario(model, &scenario).throughput()
}

/// [`measure_real_frontend`] with the multi-tenant admission layer
/// enabled at the front door: one unmetered tenant holding every
/// client, so no request is ever throttled and the measured delta is
/// purely the admission *bookkeeping* (token accounting, dedup map
/// probes, latency histograms) the cost model charges as
/// `admission_check`.
fn measure_real_frontend_admitted(shards: u32, driver_threads: usize) -> f64 {
    use lcm_core::admission::{AdmissionConfig, TenantConfig, TenantId};
    use lcm_core::transport::Frontend;
    let world = TeeWorld::new_deterministic(9_100 + u64::from(shards));
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let server = build_sharded::<Counter>(&world, 1, storage, BATCH, shards, false);
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    server.configure_admission(AdmissionConfig {
        tenants: vec![TenantConfig::unlimited(TenantId(1), ids.clone(), 1)],
        max_in_flight: 1024,
    });
    let mut fe = Frontend::new(server, driver_threads);
    assert!(fe.boot().unwrap());
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 11);
    admin.bootstrap(&mut fe).unwrap();

    let t0 = Instant::now();
    let workers: Vec<_> = ids
        .iter()
        .map(|&id| {
            let mut client = LcmClient::new_sharded(id, admin.client_key(), shards);
            let port = fe.connect(id);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let op = Counter::inc_op(format!("k{}-{i}", id.0).as_bytes(), 1);
                    port.send(client.invoke_for::<Counter>(&op).unwrap());
                    let reply = port
                        .recv_timeout(Duration::from_secs(60))
                        .expect("closed-loop reply");
                    client.handle_reply(&reply).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    fe.flush_persists().unwrap();
    f64::from(N_CLIENTS * ROUNDS) / t0.elapsed().as_secs_f64()
}

/// Real ops/s of a single shard run as a replica group of `replicas`
/// members: the leader executes each batch, then ships the sealed blob
/// to every follower (each persisting its own copy through the delayed
/// device) before the quorum releases the replies.
fn measure_real_replicated(replicas: u32) -> f64 {
    use lcm_core::shard::{build_replicated, ReplicationSpec};
    let world = TeeWorld::new_deterministic(9_200 + u64::from(replicas));
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let spec = ReplicationSpec {
        shards: 1,
        replicas,
        quorum: Quorum::Majority,
    };
    let mut server = build_replicated::<Counter>(&world, 1, storage, BATCH, spec, false);
    assert!(server.boot().unwrap());
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 11);
    admin.bootstrap(&mut server).unwrap();
    let mut clients: Vec<LcmClient> = ids
        .iter()
        .map(|&id| LcmClient::new_sharded(id, admin.client_key(), 1))
        .collect();

    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for (i, c) in clients.iter_mut().enumerate() {
            let op = Counter::inc_op(format!("k{i}").as_bytes(), 1);
            server.submit(c.invoke_for::<Counter>(&op).unwrap());
        }
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), N_CLIENTS as usize);
        for (id, wire) in replies {
            let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
            c.handle_reply(&wire).unwrap();
        }
    }
    server.flush_persists().unwrap();
    f64::from(N_CLIENTS * ROUNDS) / t0.elapsed().as_secs_f64()
}

/// Real ops/s of the KVS stack persisting through the sealed
/// delta-log engine, with `preload` synthetic records resident before
/// the timed window (bulk-loaded via [`KvOp::Fill`], so the preload
/// costs one oversized delta and — once it exceeds the checkpoint
/// cadence — one compaction, both outside the measurement).
fn measure_real_delta(preload: u32) -> f64 {
    let world = TeeWorld::new_deterministic(9_300 + u64::from(preload));
    let disk = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let engine = Arc::new(DeltaLogStorage::open(disk).expect("engine opens on empty storage"));
    let mut server = build_sharded::<lcm_kvs::store::KvStore>(&world, 1, engine, BATCH, 1, false);
    assert!(server.boot().unwrap());
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 11);
    admin.bootstrap(&mut server).unwrap();
    let mut clients: Vec<KvsClient> = ids
        .iter()
        .map(|&id| KvsClient::new_sharded(id, admin.client_key(), 1))
        .collect();

    if preload > 0 {
        let fill = KvOp::Fill {
            pin: b"fill".to_vec(),
            start: 0,
            count: preload,
            value_len: 100,
        };
        let done = clients[0].run(&mut server, &fill).unwrap();
        assert_eq!(done.result, KvResult::Stored);
    }

    let mut run_round = |clients: &mut Vec<KvsClient>, round: u32| {
        for (i, c) in clients.iter_mut().enumerate() {
            // Fresh keys each round keep every delta the same shape;
            // "w"-prefixed keys cannot collide with the hex fill keys.
            let op = KvOp::Put(format!("w{i}-{round}").into_bytes(), vec![7u8; 100]);
            server.submit(c.invoke_wire(&op).unwrap());
        }
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), N_CLIENTS as usize);
        for (id, wire) in replies {
            let c = clients.iter_mut().find(|c| c.lcm().id() == id).unwrap();
            c.complete(&wire).unwrap();
        }
    };
    // One untimed round: an oversized preload delta defers its
    // compaction checkpoint to the *next* persist — flush that
    // one-time reseal before the clock starts.
    run_round(&mut clients, ROUNDS);

    let t0 = Instant::now();
    for round in 0..ROUNDS {
        run_round(&mut clients, round);
    }
    server.flush_persists().unwrap();
    f64::from(N_CLIENTS * ROUNDS) / t0.elapsed().as_secs_f64()
}

fn predict_delta(record_count: usize, n_clients: usize) -> f64 {
    let model = CostModel::default();
    let mut scenario = Scenario::paper_default(ServerKind::Lcm { batch: BATCH }, n_clients);
    scenario.fsync = true; // the real sweep charges every store
    scenario.delta_log = true;
    scenario.record_count = record_count;
    run_scenario(&model, &scenario).throughput()
}

fn predict_replicated(replicas: usize, n_clients: usize) -> f64 {
    let model = CostModel::default();
    let mut scenario = Scenario::paper_default(ServerKind::Lcm { batch: BATCH }, n_clients);
    scenario.fsync = true; // the real sweep charges every store
    scenario.replicas = replicas;
    run_scenario(&model, &scenario).throughput()
}

#[test]
fn replica_ack_term_tracks_the_real_quorum_cost() {
    // The cost model charges each extra group member a blob apply plus
    // an ack per batch, and its own persisted copy — so write
    // throughput at 3 replicas must drop below 1 replica by roughly
    // the same factor on the model and on the real `ReplicaGroup`
    // stack (both store-bound at this batch/client mix).
    let sim = predict_replicated(1, N_CLIENTS as usize) / predict_replicated(3, N_CLIENTS as usize);
    let real = measure_real_replicated(1) / measure_real_replicated(3);
    assert!(sim > 1.2, "simulator predicts a {sim:.2}x write slowdown");
    assert!(real > 1.2, "real stack shows a {real:.2}x write slowdown");
    let agreement = real / sim;
    assert!(
        (0.3..=3.0).contains(&agreement),
        "sim {sim:.2}x vs real {real:.2}x diverge (agreement {agreement:.2})"
    );
}

#[test]
fn delta_store_term_tracks_the_real_engine_state_independence() {
    // The delta-log model's load-bearing claim is that write
    // throughput stops depending on resident state size: per commit
    // the engine seals a batch-shaped diff plus the fixed
    // `delta_store` bookkeeping, never the whole store. Validate the
    // claim on the real stack — a 40x larger resident store must cost
    // at most wall-clock jitter on the engine — and check the
    // predicted and measured large-vs-small ratios agree within the
    // usual generous band.
    let sim = predict_delta(20_000, N_CLIENTS as usize) / predict_delta(500, N_CLIENTS as usize);
    let real = measure_real_delta(20_000) / measure_real_delta(500);
    assert!(sim > 0.5, "simulator keeps {sim:.2}x at 40x the state");
    assert!(real > 0.5, "real engine keeps {real:.2}x at 40x the state");
    let agreement = real / sim;
    assert!(
        (0.3..=3.0).contains(&agreement),
        "sim {sim:.2}x vs real {real:.2}x diverge (agreement {agreement:.2})"
    );
}

#[test]
fn four_shards_beat_one_on_the_real_stack() {
    let x1 = measure_real(1, false);
    let x4 = measure_real(4, false);
    let speedup = x4 / x1;
    assert!(
        speedup >= 1.5,
        "4-shard sync speedup {speedup:.2}x below the 1.5x bar (x1={x1:.0}, x4={x4:.0})"
    );
}

#[test]
fn four_shards_beat_one_in_pipelined_mode_too() {
    let x1 = measure_real(1, true);
    let x4 = measure_real(4, true);
    let speedup = x4 / x1;
    assert!(
        speedup >= 1.3,
        "4-shard pipelined speedup {speedup:.2}x too low (x1={x1:.0}, x4={x4:.0})"
    );
}

#[test]
fn simulator_frontend_knob_tracks_the_real_trend() {
    // The engine models front-end driver threads as the vehicles of
    // shard cycles: with one driver, the 4 shards' store round-trips
    // serialize again; with 4, they overlap. The real stack behind the
    // concurrent `Frontend` must show the same recovery, and the
    // predicted and measured 4-vs-1-driver speedups must agree within
    // the same generous band as the shard knob.
    let sim =
        predict_frontend(4, 4, N_CLIENTS as usize) / predict_frontend(4, 1, N_CLIENTS as usize);
    let real = measure_real_frontend(4, 4) / measure_real_frontend(4, 1);
    assert!(sim > 1.5, "simulator predicts {sim:.2}x");
    assert!(real > 1.5, "real stack shows {real:.2}x");
    let agreement = real / sim;
    assert!(
        (0.3..=3.0).contains(&agreement),
        "sim {sim:.2}x vs real {real:.2}x diverge (agreement {agreement:.2})"
    );
}

#[test]
fn admission_term_matches_the_real_bookkeeping_cost() {
    // The cost model charges `admission_check` — the front door's
    // per-request token/dedup/histogram bookkeeping — as host-side
    // noise (a fraction of a percent of the per-op budget). Validate
    // that claim against the real stack: the identical closed-loop
    // front-end workload with admission enabled (one unmetered tenant,
    // nobody throttled) must not lose more than wall-clock jitter
    // versus admission disabled, and the simulator must predict the
    // same near-unity ratio.
    let with_check = CostModel::default();
    let without_check = CostModel {
        admission_check: Duration::ZERO,
        ..CostModel::default()
    };
    let sim = predict_frontend_with_model(&with_check, 4, 4, N_CLIENTS as usize)
        / predict_frontend_with_model(&without_check, 4, 4, N_CLIENTS as usize);
    assert!(
        (0.95..=1.0).contains(&sim),
        "the model says bookkeeping is noise, not {sim:.3}x"
    );

    let real = measure_real_frontend_admitted(4, 4) / measure_real_frontend(4, 4);
    assert!(
        (0.5..=1.5).contains(&real),
        "admission bookkeeping changed real throughput by {real:.2}x"
    );
    let agreement = real / sim;
    assert!(
        (0.3..=3.0).contains(&agreement),
        "sim {sim:.3}x vs real {real:.2}x diverge (agreement {agreement:.2})"
    );
}

#[test]
fn simulator_shard_knob_tracks_the_real_trend() {
    // Both stacks are store-bound at this batch/client mix; the
    // predicted and measured 4-vs-1 speedups must agree on direction
    // and rough magnitude (within a generous factor — the simulator is
    // calibrated against the paper's hardware, not this machine).
    let sim = predict(4, N_CLIENTS as usize) / predict(1, N_CLIENTS as usize);
    let real = measure_real(4, false) / measure_real(1, false);
    assert!(sim > 1.5, "simulator predicts {sim:.2}x");
    assert!(real > 1.5, "real stack shows {real:.2}x");
    let agreement = real / sim;
    assert!(
        (0.3..=3.0).contains(&agreement),
        "sim {sim:.2}x vs real {real:.2}x diverge (agreement {agreement:.2})"
    );
}
