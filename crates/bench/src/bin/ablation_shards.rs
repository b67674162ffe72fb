//! Ablation — shard-count sweep for the multi-enclave server.
//!
//! After async writes (PR 2) the throughput ceiling is stage 2: one
//! enclave executing and sealing every batch. This sweep quantifies
//! the next lever — `shards` parallel enclaves behind the
//! key-partitioned router — and its interplay with batching: batching
//! and sharding are *competing amortizers* of the per-batch store, so
//! at a fixed client count the shard speedup is largest when batches
//! are small relative to the offered concurrency.
//!
//! Two parts, mirroring `ablation_batch`:
//! 1. the calibrated simulator (virtual time, `Scenario::shards`), and
//! 2. a **real-stack** sweep over shards {1, 2, 4, 8} × batch
//!    {16, 64}, driving actual `ShardedServer` deployments (sync and
//!    pipelined shards) against storage with a modelled per-store
//!    latency, in wall-clock time.
//!
//! Regenerate: `cargo run -p lcm-bench --bin ablation_shards --release`
//! (set `CRITERION_QUICK=1` for a fast smoke run)

use std::time::Duration;

use lcm_bench::shardbench::{measure, ShardRun};
use lcm_bench::{header, kops, write_csv};
use lcm_sim::cost::ServerKind;
use lcm_sim::scenario::{run_scenario, Scenario};
use lcm_sim::CostModel;

const SHARD_SWEEP: [u32; 4] = [1, 2, 4, 8];
const BATCH_SWEEP: [usize; 2] = [16, 64];
/// Modelled write+fsync latency per store call in the real sweep.
const STORE_DELAY: Duration = Duration::from_micros(200);

fn quick() -> bool {
    std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0")
}

fn main() {
    let model = CostModel::default();
    println!("Ablation: shard-count sweep, LCM with batching, 128 clients (simulator)\n");
    header(&["shards", "batch", "fsync [kops/s]", "vs 1 shard"]);
    let mut sim_rows = Vec::new();
    for &batch in &BATCH_SWEEP {
        let mut base = 0.0;
        for &shards in &SHARD_SWEEP {
            let mut scenario = Scenario::paper_default(ServerKind::Lcm { batch }, 128);
            scenario.fsync = true;
            scenario.shards = shards as usize;
            let x = run_scenario(&model, &scenario).throughput();
            if shards == 1 {
                base = x;
            }
            println!(
                "| {shards:>6} | {batch:>5} | {} | {:>9.2}x |",
                kops(x),
                x / base
            );
            sim_rows.push(vec![
                shards.to_string(),
                batch.to_string(),
                format!("{x:.1}"),
            ]);
        }
    }
    write_csv(
        "ablation_shards_sim",
        &["shards", "batch", "fsync_ops_per_s"],
        &sim_rows,
    );
    println!("\n(batching and sharding compete: with batch >= clients/shards the");
    println!(" store is already amortized and extra shards buy little)");

    // Part 2: the real stack under wall-clock storage cost.
    let (clients, rounds) = if quick() { (64, 2) } else { (128, 4) };
    println!("\nReal stack: {clients} clients, {rounds} rounds/config, {STORE_DELAY:?}/store\n");
    header(&[
        "shards",
        "batch",
        "sync [ops/s]",
        "pipelined [ops/s]",
        "sync vs 1 shard",
    ]);
    let mut real_rows = Vec::new();
    for &batch in &BATCH_SWEEP {
        let mut base_sync = 0.0;
        for &shards in &SHARD_SWEEP {
            let cfg = ShardRun {
                shards,
                batch,
                pipelined: false,
                clients,
                rounds,
                store_delay: STORE_DELAY,
            };
            let sync = measure(&cfg);
            let pipe = measure(&ShardRun {
                pipelined: true,
                ..cfg
            });
            if shards == 1 {
                base_sync = sync;
            }
            println!(
                "| {shards:>6} | {batch:>5} | {sync:>12.0} | {pipe:>17.0} | {:>14.2}x |",
                sync / base_sync
            );
            real_rows.push(vec![
                shards.to_string(),
                batch.to_string(),
                format!("{sync:.1}"),
                format!("{pipe:.1}"),
            ]);
        }
    }
    write_csv(
        "ablation_shards_real",
        &["shards", "batch", "sync_ops_per_s", "pipelined_ops_per_s"],
        &real_rows,
    );
    println!("\n(each shard owns its own storage region, so the modelled device");
    println!(" latency overlaps across shards; one core suffices to see it)");
}
