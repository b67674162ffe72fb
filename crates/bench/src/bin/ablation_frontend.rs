//! Ablation — transport front-end driver threads × shard count.
//!
//! PR 3/4 parallelized stage 2 (N enclaves behind the router), but the
//! whole deployment was still fed by one thread: ingress collection,
//! lane driving, and reply delivery were a single serial loop. This
//! sweep quantifies the front-end lever: how many *driver threads*
//! pump the lanes, at 1/4/8 shards.
//!
//! Two parts:
//! 1. the calibrated simulator (`Scenario::frontend_threads`: at most
//!    F shard cycles overlap, plus the `CostModel::frontend_contention`
//!    surcharge on the per-op host share), and
//! 2. a **real-stack** sweep: the same sharded deployment behind
//!    `lcm_core::transport::Frontend` with driver threads {1, 2, 4},
//!    uniform closed-loop clients on their own threads, measured over
//!    a fixed wall-clock window against storage with a modelled
//!    per-store latency. The single-driver `process_all` loop is the
//!    baseline column.
//!
//! With one driver, the shard fan-out collapses back to a serial
//! store path (cycles cannot overlap); adding drivers restores the
//! PR 3 scaling — which is exactly what the simulator's driver
//! semaphore predicts.
//!
//! Regenerate: `cargo run -p lcm-bench --bin ablation_frontend --release`
//! (set `CRITERION_QUICK=1` for a fast smoke run)

use std::time::Duration;

use lcm_bench::shardbench::{measure_for, measure_frontend_for, ShardRun};
use lcm_bench::{header, kops, write_csv};
use lcm_sim::cost::ServerKind;
use lcm_sim::scenario::{run_scenario, Scenario};
use lcm_sim::CostModel;

const SHARD_SWEEP: [u32; 3] = [1, 4, 8];
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
const BATCH: usize = 4;
/// Modelled write+fsync latency per store call in the real sweep.
const STORE_DELAY: Duration = Duration::from_millis(2);
const CLIENTS: u32 = 32;

fn quick() -> bool {
    std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0")
}

fn main() {
    let model = CostModel::default();
    println!(
        "Ablation: front-end driver threads, LCM batch {BATCH}, {CLIENTS} clients (simulator)\n"
    );
    header(&["shards", "drivers", "fsync [kops/s]", "vs 1 driver"]);
    let mut sim_rows = Vec::new();
    for &shards in &SHARD_SWEEP {
        let mut base = 0.0;
        for &threads in &THREAD_SWEEP {
            let mut scenario =
                Scenario::paper_default(ServerKind::Lcm { batch: BATCH }, CLIENTS as usize);
            scenario.fsync = true;
            scenario.shards = shards as usize;
            scenario.frontend_threads = threads;
            let x = run_scenario(&model, &scenario).throughput();
            if threads == 1 {
                base = x;
            }
            println!(
                "| {shards:>6} | {threads:>7} | {} | {:>10.2}x |",
                kops(x),
                x / base
            );
            sim_rows.push(vec![
                shards.to_string(),
                threads.to_string(),
                format!("{x:.1}"),
            ]);
        }
    }
    write_csv(
        "ablation_frontend_sim",
        &["shards", "drivers", "fsync_ops_per_s"],
        &sim_rows,
    );
    println!("\n(one driver serializes every shard's store path; drivers restore the");
    println!(" fan-out, and past `shards` threads only the contention term is left)");

    // Part 2: the real stack under wall-clock storage cost.
    let window = if quick() {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(900)
    };
    println!("\nReal stack: {CLIENTS} clients, {window:?} window/config, {STORE_DELAY:?}/store\n");
    header(&[
        "shards",
        "single-driver [ops/s]",
        "fe x1 [ops/s]",
        "fe x2 [ops/s]",
        "fe x4 [ops/s]",
    ]);
    let mut real_rows = Vec::new();
    for &shards in &SHARD_SWEEP {
        let cfg = ShardRun {
            shards,
            batch: BATCH,
            pipelined: false,
            clients: CLIENTS,
            rounds: 0,
            store_delay: STORE_DELAY,
        };
        let single = measure_for(&cfg, window);
        let fe: Vec<f64> = THREAD_SWEEP
            .iter()
            .map(|&threads| measure_frontend_for(&cfg, threads, window))
            .collect();
        println!(
            "| {shards:>6} | {single:>21.0} | {:>13.0} | {:>13.0} | {:>13.0} |",
            fe[0], fe[1], fe[2]
        );
        real_rows.push(vec![
            shards.to_string(),
            format!("{single:.1}"),
            format!("{:.1}", fe[0]),
            format!("{:.1}", fe[1]),
            format!("{:.1}", fe[2]),
        ]);
    }
    write_csv(
        "ablation_frontend_real",
        &[
            "shards",
            "single_driver_ops_per_s",
            "fe1_ops_per_s",
            "fe2_ops_per_s",
            "fe4_ops_per_s",
        ],
        &real_rows,
    );
    println!("\n(driver threads are the vehicles of the store round-trips: with one");
    println!(" driver the modelled device latencies serialize again, shards or not)");
}
