//! Ablation — batch size sweep (design choice from paper §5.2).
//!
//! The paper fixes batching at 16 operations; this sweep shows why
//! that is a reasonable choice: under async writes batching amortizes
//! the seal, and under fsync it amortizes the commit, with diminishing
//! returns past the point where batches stop filling.
//!
//! Two parts:
//! 1. the calibrated simulator sweep (virtual time), and
//! 2. a **real-stack** sweep over {1, 4, 16, 64, 256} driving the
//!    actual servers — synchronous loop vs the pipelined
//!    (asynchronous-write) server — against storage with a modelled
//!    per-store latency, in wall-clock time.
//!
//! Regenerate: `cargo run -p lcm-bench --bin ablation_batch --release`
//! (set `CRITERION_QUICK=1` for a fast smoke run)

use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm_bench::{header, kops, write_csv};
use lcm_core::admin::AdminHandle;
use lcm_core::client::LcmClient;
use lcm_core::codec::WireCodec;
use lcm_core::server::{BatchServer, LcmServer};
use lcm_core::stability::Quorum;
use lcm_core::types::ClientId;
use lcm_kvs::ops::KvOp;
use lcm_kvs::store::KvStore;
use lcm_sim::cost::ServerKind;
use lcm_sim::scenario::{run_scenario, Scenario};
use lcm_sim::CostModel;
use lcm_storage::{DelayedStorage, MemoryStorage};
use lcm_tee::world::TeeWorld;

/// The sweep of the real-stack part (and CI artifact).
const REAL_SWEEP: [usize; 5] = [1, 4, 16, 64, 256];
/// Modelled write+fsync latency per store call in the real sweep.
const STORE_DELAY: Duration = Duration::from_micros(200);

fn quick() -> bool {
    std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0")
}

/// Measures real ops/sec over `rounds` full rounds of one 100 B put
/// per client, with `batch` as the server batch limit.
fn measure_real(batch: usize, pipelined: bool, n_clients: u32, rounds: u32) -> f64 {
    let world = TeeWorld::new_deterministic(7_700 + batch as u64);
    let platform = world.platform_deterministic(1);
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let inner = LcmServer::<KvStore>::new(&platform, storage, batch);
    let mut server: Box<dyn BatchServer> = if pipelined {
        Box::new(inner.into_pipelined())
    } else {
        Box::new(inner)
    };
    server.boot().unwrap();
    let ids: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 7);
    admin.bootstrap(&mut *server).unwrap();
    let mut clients: Vec<LcmClient> = ids
        .iter()
        .map(|&id| LcmClient::new(id, admin.client_key()))
        .collect();

    let payload = vec![0x42u8; 100];
    let t0 = Instant::now();
    for _ in 0..rounds {
        for c in clients.iter_mut() {
            let op = KvOp::Put(b"k".to_vec(), payload.clone());
            server.submit(c.invoke(&op.to_bytes()).unwrap());
        }
        let replies = server.process_all().unwrap();
        for (id, wire) in replies {
            let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
            c.handle_reply(&wire).unwrap();
        }
    }
    server.flush_persists().unwrap();
    let total_ops = (n_clients * rounds) as f64;
    total_ops / t0.elapsed().as_secs_f64()
}

fn main() {
    let model = CostModel::default();
    println!("Ablation: LCM batch-size sweep, 32 clients, 100 B objects (simulator)\n");
    header(&["batch size", "async [kops/s]", "fsync [ops/s]"]);

    let mut sim_rows = Vec::new();
    for &batch in &[1usize, 2, 4, 8, 16, 32, 64, 256] {
        let mut scenario = Scenario::paper_default(ServerKind::Lcm { batch }, 32);
        let x_async = run_scenario(&model, &scenario).throughput();
        scenario.fsync = true;
        let x_sync = run_scenario(&model, &scenario).throughput();
        println!("| {batch:>10} | {} | {x_sync:>13.0} |", kops(x_async));
        sim_rows.push(vec![
            batch.to_string(),
            format!("{x_async:.1}"),
            format!("{x_sync:.1}"),
        ]);
    }
    write_csv(
        "ablation_batch_sim",
        &["batch", "async_ops_per_s", "fsync_ops_per_s"],
        &sim_rows,
    );
    println!("\n(batches only fill while enough clients keep the queue non-empty,");
    println!(" so gains taper beyond the offered concurrency)");

    // Part 2: the real stack under wall-clock storage cost.
    let (n_clients, rounds) = if quick() { (64, 2) } else { (256, 4) };
    println!(
        "\nReal stack: {n_clients} clients, {rounds} rounds/config, \
         {STORE_DELAY:?}/store\n"
    );
    header(&["batch size", "sync [ops/s]", "pipelined [ops/s]", "speedup"]);
    let mut real_rows = Vec::new();
    for &batch in &REAL_SWEEP {
        let sync = measure_real(batch, false, n_clients, rounds);
        let pipe = measure_real(batch, true, n_clients, rounds);
        println!(
            "| {batch:>10} | {sync:>12.0} | {pipe:>17.0} | {:>6.2}x |",
            pipe / sync
        );
        real_rows.push(vec![
            batch.to_string(),
            format!("{sync:.1}"),
            format!("{pipe:.1}"),
        ]);
    }
    write_csv(
        "ablation_batch_real",
        &["batch", "sync_ops_per_s", "pipelined_ops_per_s"],
        &real_rows,
    );
    println!("\n(the pipelined server hides the store behind execution; once the");
    println!(" batch limit exceeds the offered concurrency both modes converge)");
}
