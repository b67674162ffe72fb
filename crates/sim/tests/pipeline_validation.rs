//! Validates the simulator's asynchronous-write predictions against
//! the *real* concurrent pipeline.
//!
//! The discrete-event simulator charges virtual disk costs and
//! predicts (Figs. 5/6): async writes beat fsync-bound writes, and
//! batching amortizes the per-commit cost. `LcmServer::into_pipelined`
//! implements the async mode with real threads; these tests check that
//! the simulator's qualitative claims hold on the real stack under an
//! identical storage cost ([`DelayedStorage`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm_core::admin::AdminHandle;
use lcm_core::client::LcmClient;
use lcm_core::functionality::AppendLog;
use lcm_core::server::{BatchServer, LcmServer};
use lcm_core::stability::Quorum;
use lcm_core::types::ClientId;
use lcm_sim::cost::ServerKind;
use lcm_sim::scenario::{run_scenario, Scenario};
use lcm_sim::CostModel;
use lcm_storage::{DelayedStorage, MemoryStorage};
use lcm_tee::world::TeeWorld;

const N_CLIENTS: u32 = 16;
const ROUNDS: u32 = 30;
const STORE_DELAY: Duration = Duration::from_micros(500);

/// Drives `rounds` full rounds (one op per client, queued then
/// processed as batches) against a boxed server; returns the wall
/// clock including a final persistence flush.
fn drive(server: &mut Box<dyn BatchServer>, clients: &mut [LcmClient], rounds: u32) -> Duration {
    let t0 = Instant::now();
    for round in 0..rounds {
        for c in clients.iter_mut() {
            server.submit(c.invoke(&round.to_be_bytes()).unwrap());
        }
        let replies = server.process_all().unwrap();
        for (id, wire) in replies {
            let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
            c.handle_reply(&wire).unwrap();
        }
    }
    server.flush_persists().unwrap();
    t0.elapsed()
}

fn real_stack(batch: usize, pipelined: bool, seed: u64) -> Duration {
    let world = TeeWorld::new_deterministic(seed);
    let platform = world.platform_deterministic(1);
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let inner = LcmServer::<AppendLog>::new(&platform, storage, batch);
    let mut server: Box<dyn BatchServer> = if pipelined {
        Box::new(inner.into_pipelined())
    } else {
        Box::new(inner)
    };
    server.boot().unwrap();
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(&mut *server).unwrap();
    let mut clients: Vec<LcmClient> = ids
        .iter()
        .map(|&id| LcmClient::new(id, admin.client_key()))
        .collect();
    drive(&mut server, &mut clients, ROUNDS)
}

#[test]
fn simulator_predicts_async_wins_and_the_real_pipeline_agrees() {
    // Simulator: LCM with batching, 16 clients — async ≥ fsync.
    let model = CostModel::default();
    let mut scenario = Scenario::paper_default(ServerKind::Lcm { batch: 16 }, N_CLIENTS as usize);
    let predicted_async = run_scenario(&model, &scenario).throughput();
    scenario.fsync = true;
    let predicted_fsync = run_scenario(&model, &scenario).throughput();
    assert!(
        predicted_async > predicted_fsync,
        "simulator must predict async-write mode ahead: {predicted_async:.0} vs {predicted_fsync:.0}"
    );

    // Real stack, identical per-store wall-clock cost: the pipelined
    // (async-write) server must finish the same schedule at least as
    // fast as the synchronous loop, which serializes every store into
    // the execution path. The comparison is wall clock on a possibly
    // loaded CI runner, so allow 5% scheduler noise — the strict
    // throughput win is measured by `benches/pipeline.rs`.
    let sync_elapsed = real_stack(16, false, 90);
    let pipelined_elapsed = real_stack(16, true, 90);
    assert!(
        pipelined_elapsed.as_secs_f64() < sync_elapsed.as_secs_f64() * 1.05,
        "real pipeline must not lose to the synchronous loop under storage cost: \
         pipelined {pipelined_elapsed:?} vs sync {sync_elapsed:?}"
    );
}

#[test]
fn simulator_predicts_batching_amortizes_and_the_real_stack_agrees() {
    // Simulator: under fsync-bound writes batching wins.
    let model = CostModel::default();
    let mut s1 = Scenario::paper_default(ServerKind::Lcm { batch: 1 }, N_CLIENTS as usize);
    s1.fsync = true;
    let mut s16 = Scenario::paper_default(ServerKind::Lcm { batch: 16 }, N_CLIENTS as usize);
    s16.fsync = true;
    assert!(
        run_scenario(&model, &s16).throughput() > run_scenario(&model, &s1).throughput(),
        "simulator must predict batching ahead under fsync"
    );

    // Real stack: same schedule, same storage cost — batch=16 pays the
    // store once per round instead of 16 times.
    let unbatched = real_stack(1, false, 91);
    let batched = real_stack(16, false, 91);
    assert!(
        batched < unbatched,
        "batch=16 must beat batch=1 under storage cost: {batched:?} vs {unbatched:?}"
    );
}
