//! Validates the simulator's asynchronous-write predictions against
//! the *real* concurrent pipeline.
//!
//! The discrete-event simulator charges virtual disk costs and
//! predicts (Figs. 5/6): async writes beat fsync-bound writes, and
//! batching amortizes the per-commit cost. `LcmServer::into_pipelined`
//! implements the async mode with real threads; these tests check that
//! the simulator's qualitative claims hold on the real stack: the
//! async win through its mechanism on a gated device (no clock), the
//! batching win under an identical storage cost ([`DelayedStorage`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lcm_core::admin::AdminHandle;
use lcm_core::client::LcmClient;
use lcm_core::functionality::AppendLog;
use lcm_core::server::{LcmServer, DEFAULT_WRITER_QUEUE};
use lcm_core::stability::Quorum;
use lcm_core::types::ClientId;
use lcm_sim::cost::ServerKind;
use lcm_sim::scenario::{run_scenario, Scenario};
use lcm_sim::CostModel;
use lcm_storage::{DelayedStorage, MemoryStorage, StableStorage};
use lcm_tee::world::TeeWorld;

const N_CLIENTS: u32 = 16;
const ROUNDS: u32 = 30;
const STORE_DELAY: Duration = Duration::from_micros(500);

/// Boots `lane` and provisions it for [`N_CLIENTS`] clients, returned.
fn bootstrapped(world: &TeeWorld, lane: &mut LcmServer<AppendLog>, seed: u64) -> Vec<LcmClient> {
    lane.boot().unwrap();
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(lane).unwrap();
    ids.iter()
        .map(|&id| LcmClient::new(id, admin.client_key()))
        .collect()
}

/// Submits one operation per client for `round`.
fn submit_round(lane: &mut LcmServer<AppendLog>, clients: &mut [LcmClient], round: u32) {
    for c in clients.iter_mut() {
        lane.submit(c.invoke(&round.to_be_bytes()).unwrap());
    }
}

/// Every client verifies its reply among `replies`.
fn verify(clients: &mut [LcmClient], replies: Vec<(ClientId, Vec<u8>)>) {
    assert_eq!(replies.len(), N_CLIENTS as usize);
    for (id, wire) in replies {
        let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
        c.handle_reply(&wire).unwrap();
    }
}

/// The wall clock of [`ROUNDS`] full rounds (one op per client, queued
/// then processed as batches) on a synchronous lane of batch `batch`
/// over a device that takes [`STORE_DELAY`] per store.
fn real_stack(batch: usize, seed: u64) -> Duration {
    let world = TeeWorld::new_deterministic(seed);
    let platform = world.platform_deterministic(1);
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let mut lane = LcmServer::<AppendLog>::new(&platform, storage, batch);
    let mut clients = bootstrapped(&world, &mut lane, seed);
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        submit_round(&mut lane, &mut clients, round);
        verify(&mut clients, lane.process_all().unwrap());
    }
    t0.elapsed()
}

/// A device whose writes wait while its gate is shut; it counts the
/// writes that have reached it and the writes that have completed.
struct GatedDevice {
    inner: MemoryStorage,
    shut: Mutex<bool>,
    opened: Condvar,
    entered: AtomicUsize,
    completed: AtomicUsize,
}

impl GatedDevice {
    fn set_shut(&self, shut: bool) {
        *self.shut.lock().unwrap() = shut;
        self.opened.notify_all();
    }
}

impl StableStorage for GatedDevice {
    fn store(&self, slot: &str, blob: &[u8]) -> lcm_storage::Result<()> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut shut = self.shut.lock().unwrap();
        while *shut {
            shut = self.opened.wait(shut).unwrap();
        }
        drop(shut);
        self.inner.store(slot, blob)?;
        self.completed.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn load(&self, slot: &str) -> lcm_storage::Result<Option<Vec<u8>>> {
        self.inner.load(slot)
    }
}

/// A bootstrapped lane of batch 16 over a gated device (open), with
/// its clients.
fn gated_lane(
    pipelined: bool,
    seed: u64,
) -> (Arc<GatedDevice>, LcmServer<AppendLog>, Vec<LcmClient>) {
    let world = TeeWorld::new_deterministic(seed);
    let platform = world.platform_deterministic(1);
    let device = Arc::new(GatedDevice {
        inner: MemoryStorage::new(),
        shut: Mutex::new(false),
        opened: Condvar::new(),
        entered: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
    });
    let mut lane = LcmServer::<AppendLog>::new(&platform, device.clone(), 16);
    if pipelined {
        lane = lane.into_pipelined();
    }
    let clients = bootstrapped(&world, &mut lane, seed);
    (device, lane, clients)
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

    // Real stack, by the mechanism the simulator's win rests on rather
    // than by a wall clock: with the device's writes held, the
    // synchronous lane answers nothing — its step waits inside the
    // store — while the pipelined lane answers a whole writer queue of
    // batches, every reply verified, before any of their stores has
    // completed.
    let (device, mut sync, mut clients) = gated_lane(false, 90);
    device.set_shut(true);
    let entered = device.entered.load(Ordering::SeqCst);
    submit_round(&mut sync, &mut clients, 0);
    let stepping = std::thread::spawn(move || {
        let replies = sync.step().unwrap();
        (sync, replies)
    });
    while device.entered.load(Ordering::SeqCst) == entered {
        std::thread::yield_now();
    }
    // The step's store is at the device and held there: the step
    // cannot have returned.
    assert!(
        !stepping.is_finished(),
        "the synchronous lane answered before its store completed"
    );
    device.set_shut(false);
    let (_sync, replies) = stepping.join().unwrap();
    verify(&mut clients, replies);

    let (device, mut pipelined, mut clients) = gated_lane(true, 90);
    device.set_shut(true);
    let completed = device.completed.load(Ordering::SeqCst);
    for round in 0..DEFAULT_WRITER_QUEUE as u32 {
        submit_round(&mut pipelined, &mut clients, round);
        let replies = pipelined.step().unwrap();
        verify(&mut clients, replies);
    }
    assert_eq!(
        device.completed.load(Ordering::SeqCst),
        completed,
        "the pipelined lane answered {DEFAULT_WRITER_QUEUE} batches with none of their stores completed"
    );
    assert_eq!(pipelined.persists_completed(), 0);
    device.set_shut(false);
    pipelined.flush().unwrap();
    assert_eq!(pipelined.persists_completed(), DEFAULT_WRITER_QUEUE as u64);
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
    let unbatched = real_stack(1, 91);
    let batched = real_stack(16, 91);
    assert!(
        batched < unbatched,
        "batch=16 must beat batch=1 under storage cost: {batched:?} vs {unbatched:?}"
    );
}
