//! CI performance-regression gate over `BENCH_pipeline.json`.
//!
//! ```text
//! bench_gate <committed-baseline.json> <fresh-snapshot.json>
//! ```
//!
//! Compares the freshly measured snapshot (produced by the
//! `bench_snapshot` bin earlier in the same CI job) against the
//! baseline committed in the repository, cell by cell
//! (mode × shard count). Exits non-zero when any cell regressed more
//! than the tolerance band — 40% by default, overridable through
//! `LCM_BENCH_TOLERANCE` (e.g. `0.5` allows a 50% drop) for noisy
//! runners.
//!
//! The band is deliberately generous: snapshot numbers are wall-clock
//! and machine-dependent, and the modelled store delay keeps the
//! *ratios* stable, not the absolutes. The gate exists so the PR 2/3
//! speedups (async pipeline, shard fan-out) cannot silently rot into
//! an integer-factor collapse — not to police jitter.

use std::process::ExitCode;

use lcm_bench::gate::{
    compare, delta_independence, parse_config, parse_snapshot, replica_state_independence,
    reshard_recovery, shard_scaleout, tolerance_from_env, DELTA_INDEPENDENCE_FLOOR,
    REPLICA_STATE_INDEPENDENCE_FLOOR, RESHARD_RECOVERY_FLOOR, SHARD_SCALEOUT_FLOOR,
};

type Snapshot = (Vec<lcm_bench::gate::Cell>, Option<String>);

fn load(path: &str) -> Option<Snapshot> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            return None;
        }
    };
    let cells = parse_snapshot(&text);
    if cells.is_none() {
        eprintln!("bench_gate: {path} is not an lcm-bench-snapshot/1 document");
    }
    Some((cells?, parse_config(&text)))
}

/// Gates one ratio between two cells of the fresh snapshot against its
/// floor; returns whether it failed. Only enforced once the committed
/// baseline carries the cells (old baselines gate nothing, rather than
/// failing spuriously) — from then on the fresh snapshot losing them
/// is a failure too. `meaning` says what a ratio under the floor
/// means.
fn below_floor(
    what: &str,
    baseline: Option<f64>,
    fresh: Option<f64>,
    floor: f64,
    meaning: &str,
) -> bool {
    if baseline.is_none() {
        return false;
    }
    match fresh {
        Some(ratio) if ratio >= floor => {
            println!("{what}: {ratio:.2}x (floor {floor:.2})");
            false
        }
        Some(ratio) => {
            eprintln!("bench_gate: {what} {ratio:.2}x fell below the {floor:.2} floor — {meaning}");
            true
        }
        None => {
            eprintln!(
                "bench_gate: fresh snapshot lost the cells behind {what}, which the baseline gates"
            );
            true
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_gate <committed-baseline.json> <fresh-snapshot.json>");
        return ExitCode::FAILURE;
    };
    let (Some((baseline, baseline_cfg)), Some((fresh, fresh_cfg))) =
        (load(baseline_path), load(fresh_path))
    else {
        return ExitCode::FAILURE;
    };
    // ops/s only compare under the same workload knobs: a config drift
    // (someone changed bench_snapshot's constants without regenerating
    // the committed baseline) must be an explicit failure, not a
    // silently meaningless comparison.
    if baseline_cfg != fresh_cfg {
        eprintln!(
            "bench_gate: snapshots were measured under different configs\n  baseline: {}\n  fresh:    {}\n\
             regenerate the committed baseline with `cargo run --release -p lcm-bench --bin bench_snapshot`",
            baseline_cfg.as_deref().unwrap_or("<missing>"),
            fresh_cfg.as_deref().unwrap_or("<missing>")
        );
        return ExitCode::FAILURE;
    }

    let tolerance = tolerance_from_env();
    println!(
        "performance gate: fresh vs committed baseline, tolerance {:.0}%",
        tolerance * 100.0
    );
    lcm_bench::header(&[
        "mode",
        "shards",
        "baseline ops/s",
        "fresh ops/s",
        "floor",
        "baseline p99",
        "fresh p99",
        "ceiling",
        "verdict",
    ]);
    let verdicts = compare(&baseline, &fresh, tolerance);
    let mut failed = false;
    for v in &verdicts {
        let fresh_str = v
            .fresh_ops_per_s
            .map(|x| format!("{x:.0}"))
            .unwrap_or_else(|| "MISSING".into());
        let us = |x: Option<f64>, missing: &str| {
            x.map(|x| format!("{x:.0}µs"))
                .unwrap_or_else(|| missing.into())
        };
        // A latency column only means something on SLO cells; the
        // throughput-only rows show "-" rather than MISSING.
        let (b_p99, f_p99, ceiling) = if v.baseline.p99_us.is_some() {
            (
                us(v.baseline.p99_us, "-"),
                us(v.fresh_p99_us, "MISSING"),
                us(v.p99_ceiling, "-"),
            )
        } else {
            ("-".into(), "-".into(), "-".into())
        };
        println!(
            "| {} | {} | {:.0} | {} | {:.0} | {} | {} | {} | {} |",
            v.baseline.mode,
            v.baseline.shards,
            v.baseline.ops_per_s,
            fresh_str,
            v.floor,
            b_p99,
            f_p99,
            ceiling,
            if v.failed { "FAIL" } else { "ok" }
        );
        failed |= v.failed;
    }
    // Invariants gated on the *fresh* snapshot's own ratios, not cell
    // by cell against the baseline: the per-cell band above tolerates
    // two cells drifting together with the runner, but one falling
    // away from the other is the regression each ratio exists to
    // catch.
    //
    // State-size independence of the delta-log engine: the 10⁶-record
    // cell falling away from the small one means a persist path has
    // started scaling with resident state again.
    failed |= below_floor(
        "delta-log state-size independence",
        delta_independence(&baseline),
        delta_independence(&fresh),
        DELTA_INDEPENDENCE_FLOOR,
        "the 10^6-record store costs more than 2x the small one per write",
    );
    // The same invariant one layer up (ROADMAP item 2's gate): a
    // quorum write moves and persists the batch's sealed delta on every
    // member, so a 100x larger store must cost a replicated write at
    // most 1.5x.
    failed |= below_floor(
        "replica-group state-size independence",
        replica_state_independence(&baseline),
        replica_state_independence(&fresh),
        REPLICA_STATE_INDEPENDENCE_FLOOR,
        "a quorum write over the 10^5-record store costs more than 1.5x the small one",
    );
    // Routing invariants of the epoch-versioned slice table: the
    // reshard cell falling back toward the hot cell — or the uniform
    // 8-shard fan-out falling back to 4-shard throughput — is exactly
    // the scaling the slice router exists to buy.
    for base in ["sync", "pipelined"] {
        failed |= below_floor(
            &format!("{base} reshard recovery"),
            reshard_recovery(&baseline, base),
            reshard_recovery(&fresh, base),
            RESHARD_RECOVERY_FLOOR,
            "live slice migration no longer relieves the hot shard",
        );
        failed |= below_floor(
            &format!("{base} 8-over-4-shard scale-out"),
            shard_scaleout(&baseline, base),
            shard_scaleout(&fresh, base),
            SHARD_SCALEOUT_FLOOR,
            "the shard fan-out stopped scaling past 4",
        );
    }
    if failed {
        eprintln!(
            "bench_gate: throughput or p99 latency regressed beyond the {:.0}% band; \
             if this is expected (e.g. a deliberate trade-off), regenerate \
             BENCH_pipeline.json with `cargo run --release -p lcm-bench \
             --bin bench_snapshot` and commit it with the change",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("bench_gate: all {} cells within band", verdicts.len());
    ExitCode::SUCCESS
}
