//! Shared helpers for the per-figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§6) and prints the same rows/series the paper
//! reports. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Formats a throughput in the paper's "kops/sec" unit.
pub fn kops(ops_per_sec: f64) -> String {
    format!("{:8.2}", ops_per_sec / 1000.0)
}

/// Prints a Markdown-style table header.
pub fn header(columns: &[&str]) {
    println!("| {} |", columns.join(" | "));
    println!(
        "|{}|",
        columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// A paper-vs-measured comparison line for the run summary.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("  {label:<46} paper: {paper:<18} measured: {measured}");
}

/// Additionally writes a figure's rows as `<name>.csv` under
/// `$LCM_OUT_DIR`, when that variable is set — CI runs every figure
/// binary with it and uploads the directory as a workflow artifact.
/// Does nothing (and never fails the figure run) otherwise.
pub fn write_csv(name: &str, columns: &[&str], rows: &[Vec<String>]) {
    let Ok(dir) = std::env::var("LCM_OUT_DIR") else {
        return;
    };
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut csv = String::new();
        csv.push_str(&columns.join(","));
        csv.push('\n');
        for row in rows {
            // Values are plain numbers/identifiers; quote defensively
            // if a field ever contains a comma.
            let cells: Vec<String> = row
                .iter()
                .map(|v| {
                    if v.contains(',') || v.contains('"') {
                        format!("\"{}\"", v.replace('"', "\"\""))
                    } else {
                        v.clone()
                    }
                })
                .collect();
            csv.push_str(&cells.join(","));
            csv.push('\n');
        }
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        std::fs::write(&path, csv)?;
        eprintln!("(wrote {})", path.display());
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("(LCM_OUT_DIR set but writing {name}.csv failed: {e})");
    }
}

/// The CI performance-regression gate: compares a freshly measured
/// `BENCH_pipeline.json` against the committed baseline, cell by cell
/// (mode × shard count), with a generous tolerance band.
///
/// Numbers in the snapshot are wall-clock and machine-dependent, so
/// the gate is deliberately loose — it exists to catch the PR that
/// accidentally serializes the pipeline or the shard fan-out (an
/// integer-factor collapse), not 5% jitter. The band is overridable
/// through `LCM_BENCH_TOLERANCE` (a fraction: `0.4` = fail below 60%
/// of baseline).
pub mod gate {
    /// One measured cell of the snapshot: `(mode, shards) → ops/s`,
    /// optionally carrying a latency SLO signal.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Cell {
        /// Server mode label (`sync` / `pipelined` / `sync-adm` / …).
        pub mode: String,
        /// Shard count of the measurement.
        pub shards: u32,
        /// Measured throughput.
        pub ops_per_s: f64,
        /// Tail latency of the cell's tracked tenant in microseconds
        /// (the metered tenant's p99 for the `*-adm` cells). `None`
        /// for throughput-only cells — those gate ops/s alone.
        pub p99_us: Option<f64>,
    }

    /// Default allowed regression: fail only when a cell drops more
    /// than 40% below the committed baseline.
    pub const DEFAULT_TOLERANCE: f64 = 0.40;

    /// The tolerance to use: `LCM_BENCH_TOLERANCE` when set and
    /// parseable as a fraction in `(0, 1)`, else
    /// [`DEFAULT_TOLERANCE`]. A set-but-invalid override is loudly
    /// rejected on stderr rather than silently ignored — an operator
    /// who typed `50` for 50% should learn the gate still ran at the
    /// default band.
    pub fn tolerance_from_env() -> f64 {
        let Ok(raw) = std::env::var("LCM_BENCH_TOLERANCE") else {
            return DEFAULT_TOLERANCE;
        };
        match raw.parse::<f64>() {
            Ok(t) if t > 0.0 && t < 1.0 => t,
            _ => {
                eprintln!(
                    "bench_gate: ignoring invalid LCM_BENCH_TOLERANCE={raw:?} \
                     (expected a fraction in (0, 1), e.g. 0.5 for a 50% band); \
                     using the default {DEFAULT_TOLERANCE}"
                );
                DEFAULT_TOLERANCE
            }
        }
    }

    /// Extracts the `"config"` object of a snapshot as a normalized
    /// string (whitespace stripped). Baseline and fresh snapshots are
    /// only comparable when they were measured under the same workload
    /// configuration — the gate refuses to compare ops/s across
    /// different client counts, batch limits, store delays, or round
    /// counts.
    pub fn parse_config(json: &str) -> Option<String> {
        let after = json.split("\"config\"").nth(1)?;
        let obj = after.split('{').nth(1)?.split('}').next()?;
        Some(obj.chars().filter(|c| !c.is_whitespace()).collect())
    }

    /// Extracts the result cells from a `lcm-bench-snapshot/1` JSON
    /// document. The schema is flat and machine-written (see
    /// `bin/bench_snapshot.rs`), so this is a purpose-built scanner,
    /// not a general JSON parser: it walks the `"results"` array and
    /// pulls the three known fields out of each object.
    pub fn parse_snapshot(json: &str) -> Option<Vec<Cell>> {
        if !json.contains("lcm-bench-snapshot/1") {
            return None;
        }
        let results = json.split("\"results\"").nth(1)?;
        let array = results.split('[').nth(1)?.split(']').next()?;
        let mut cells = Vec::new();
        for obj in array.split('{').skip(1) {
            let obj = obj.split('}').next()?;
            let field = |name: &str| -> Option<&str> {
                let after = obj.split(&format!("\"{name}\"")).nth(1)?;
                Some(after.split(':').nth(1)?.split(',').next()?.trim())
            };
            let mode = field("mode")?.trim_matches('"').to_string();
            let shards: u32 = field("shards")?.parse().ok()?;
            let ops_per_s: f64 = field("ops_per_s")?.parse().ok()?;
            let p99_us = field("p99_us").and_then(|v| v.parse().ok());
            cells.push(Cell {
                mode,
                shards,
                ops_per_s,
                p99_us,
            });
        }
        if cells.is_empty() {
            None
        } else {
            Some(cells)
        }
    }

    /// Snapshot mode label of the delta-log engine's small-store cell.
    pub const DELTA_SMALL_MODE: &str = "delta-small";
    /// Snapshot mode label of the delta-log engine's 10⁶-record cell.
    pub const DELTA_LARGE_MODE: &str = "delta-1M";
    /// Floor on `delta-1M / delta-small`: the 10⁶-record store must
    /// keep at least half the small store's write throughput. The
    /// engine seals a batch-shaped diff per group commit, so the true
    /// ratio sits near 1; a ratio under the floor means some persist
    /// path has started scaling with resident state again.
    pub const DELTA_INDEPENDENCE_FLOOR: f64 = 0.5;

    /// Snapshot mode label of the replicated delta-log cell over a
    /// 10³-record store.
    pub const REP_DELTA_SMALL_MODE: &str = "rep-delta-small";
    /// Snapshot mode label of the replicated delta-log cell over a
    /// 10⁵-record store.
    pub const REP_DELTA_LARGE_MODE: &str = "rep-delta-large";
    /// Floor on `rep-delta-large / rep-delta-small`: a quorum write
    /// over a store 100x the size may cost at most 1.5x. Replication
    /// ships the sealed batch delta and each member persists it as its
    /// own log record, so the true ratio sits near 1; a ratio under
    /// the floor means a group member has started moving, hashing or
    /// re-sealing resident state per batch again.
    pub const REPLICA_STATE_INDEPENDENCE_FLOOR: f64 = 1.0 / 1.5;

    /// Floor on the `*-reshard / *-hot` recovery ratio per mode: the
    /// heat-aware rebalancer must at least double the skewed
    /// deployment's throughput. Measured recovery sits above 3x (the
    /// hot shard's multi-batch backlog becomes one cycle per lane once
    /// its slices spread); a ratio under the floor means live slice
    /// migration stopped relieving the hot shard — the collapse the
    /// epoch-versioned router exists to fix.
    pub const RESHARD_RECOVERY_FLOOR: f64 = 2.0;

    /// Floor on the uniform `8-shard / 4-shard` throughput ratio per
    /// mode. At the snapshot's client count, 4-shard lanes pay two
    /// persist cycles per round where 8-shard lanes pay one, so the
    /// true ratio sits near 1.6 (sync) / 1.9 (pipelined); a ratio
    /// under the floor means the shard fan-out stopped scaling past 4.
    pub const SHARD_SCALEOUT_FLOOR: f64 = 1.15;

    /// The `{base}-reshard / {base}-hot` throughput ratio of a
    /// snapshot, when both cells are present (`base` is `sync` or
    /// `pipelined`). Gated on the fresh snapshot directly, like
    /// [`delta_independence`]: both cells drifting with the runner is
    /// noise the per-cell band tolerates; the reshard cell falling
    /// back toward the hot cell is the regression.
    pub fn reshard_recovery(cells: &[Cell], base: &str) -> Option<f64> {
        mode_ratio(cells, &format!("{base}-reshard"), &format!("{base}-hot"))
    }

    /// `ops/s` of the `over` cell divided by that of the `under` cell,
    /// when both are present and measured something.
    fn mode_ratio(cells: &[Cell], over: &str, under: &str) -> Option<f64> {
        let ops = |mode: &str| {
            cells
                .iter()
                .find(|c| c.mode == mode)
                .map(|c| c.ops_per_s)
                .filter(|x| *x > 0.0)
        };
        Some(ops(over)? / ops(under)?)
    }

    /// The uniform `8-shard / 4-shard` throughput ratio of a snapshot
    /// for `base` (`sync` or `pipelined`), when both cells are
    /// present.
    pub fn shard_scaleout(cells: &[Cell], base: &str) -> Option<f64> {
        let ops = |shards: u32| {
            cells
                .iter()
                .find(|c| c.mode == base && c.shards == shards)
                .map(|c| c.ops_per_s)
                .filter(|x| *x > 0.0)
        };
        Some(ops(8)? / ops(4)?)
    }

    /// The delta-log engine's large-over-small throughput ratio of a
    /// snapshot, when both cells are present.
    ///
    /// This invariant is gated on the *fresh* snapshot directly (not
    /// cell-by-cell against the baseline): both cells dropping in
    /// lockstep is runner noise the per-cell band already tolerates,
    /// but the large cell falling away from the small one is exactly
    /// the state-size dependence the engine exists to remove.
    pub fn delta_independence(cells: &[Cell]) -> Option<f64> {
        mode_ratio(cells, DELTA_LARGE_MODE, DELTA_SMALL_MODE)
    }

    /// The replicated group's large-over-small write throughput ratio
    /// of a snapshot (`rep-delta-large / rep-delta-small`), when both
    /// cells are present. Gated on the fresh snapshot directly, like
    /// [`delta_independence`] and for the same reason.
    pub fn replica_state_independence(cells: &[Cell]) -> Option<f64> {
        mode_ratio(cells, REP_DELTA_LARGE_MODE, REP_DELTA_SMALL_MODE)
    }

    /// One gate verdict: the baseline cell, what was measured, and
    /// whether it regressed beyond the tolerance.
    #[derive(Debug, Clone)]
    pub struct Verdict {
        /// The baseline cell being checked.
        pub baseline: Cell,
        /// The fresh measurement for the same `(mode, shards)`, if the
        /// fresh snapshot has one.
        pub fresh_ops_per_s: Option<f64>,
        /// The fresh p99 for the same cell, when both snapshots track
        /// one.
        pub fresh_p99_us: Option<f64>,
        /// The minimum acceptable throughput for this cell.
        pub floor: f64,
        /// The maximum acceptable p99 (µs) when the baseline cell
        /// carries a latency SLO: `max(baseline_p99 * (1 + 2 *
        /// tolerance), baseline_p99 + LATENCY_GRACE_US)`.
        pub p99_ceiling: Option<f64>,
        /// Whether this cell fails the gate (regressed past the
        /// throughput floor or the p99 ceiling, or missing from the
        /// fresh snapshot entirely).
        pub failed: bool,
    }

    /// Absolute grace added to every p99 ceiling, in microseconds.
    /// Closed-loop tail latency is quantized by the batch cycle: an op
    /// that misses the forming batch waits one extra seal-and-persist
    /// round, so a cell's p99 legitimately hops between adjacent
    /// multi-millisecond plateaus from run to run. The grace spans one
    /// such plateau; the gate is after admission *collapse* (the
    /// metered tenant queueing behind the whole hot backlog, a many-
    /// tens-of-ms jump), not batch-alignment luck.
    pub const LATENCY_GRACE_US: f64 = 10_000.0;

    /// Compares every baseline cell against the fresh snapshot.
    /// A cell fails when the fresh measurement is missing, its
    /// throughput is below `baseline * (1 - tolerance)`, or — for
    /// cells whose baseline carries a latency SLO — its p99 exceeds
    /// `max(baseline_p99 * (1 + 2 * tolerance), baseline_p99 +
    /// LATENCY_GRACE_US)` (or went missing). The latency band is
    /// wider than the throughput band because tail percentiles are
    /// both noisier and bucket-quantized (see [`LATENCY_GRACE_US`]).
    /// Cells present only in the fresh snapshot are ignored (new
    /// configurations gate nothing yet).
    pub fn compare(baseline: &[Cell], fresh: &[Cell], tolerance: f64) -> Vec<Verdict> {
        baseline
            .iter()
            .map(|b| {
                let floor = b.ops_per_s * (1.0 - tolerance);
                let p99_ceiling = b
                    .p99_us
                    .map(|p| (p * (1.0 + 2.0 * tolerance)).max(p + LATENCY_GRACE_US));
                let fresh_cell = fresh
                    .iter()
                    .find(|f| f.mode == b.mode && f.shards == b.shards);
                let fresh_ops = fresh_cell.map(|f| f.ops_per_s);
                let fresh_p99 = fresh_cell.and_then(|f| f.p99_us);
                let ops_failed = fresh_ops.is_none() || fresh_ops.unwrap_or(0.0) < floor;
                let p99_failed = match p99_ceiling {
                    // A baseline SLO with no fresh p99 means the
                    // latency cell silently vanished: fail loudly.
                    Some(ceiling) => fresh_p99.map_or(true, |p| p > ceiling),
                    None => false,
                };
                Verdict {
                    baseline: b.clone(),
                    fresh_ops_per_s: fresh_ops,
                    fresh_p99_us: fresh_p99,
                    floor,
                    p99_ceiling,
                    failed: ops_failed || p99_failed,
                }
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const SAMPLE: &str = r#"{
  "schema": "lcm-bench-snapshot/1",
  "config": {"clients": 64, "batch": 16, "store_delay_us": 400, "rounds": 8},
  "results": [
    {"mode": "sync", "shards": 1, "ops_per_s": 10000.0},
    {"mode": "sync", "shards": 4, "ops_per_s": 28000.5},
    {"mode": "pipelined", "shards": 1, "ops_per_s": 15090.9},
    {"mode": "pipelined", "shards": 4, "ops_per_s": 45473.9},
    {"mode": "sync-adm", "shards": 8, "ops_per_s": 3000.0, "p50_us": 4000.0, "p99_us": 12000.0, "p999_us": 20000.0}
  ],
  "speedup_4shards": {"sync": 2.568, "pipelined": 3.013}
}"#;

        #[test]
        fn parses_the_snapshot_schema() {
            let cells = parse_snapshot(SAMPLE).unwrap();
            assert_eq!(cells.len(), 5);
            assert_eq!(cells[0].mode, "sync");
            assert_eq!(cells[0].shards, 1);
            assert!((cells[0].ops_per_s - 10000.0).abs() < 1e-9);
            assert_eq!(cells[0].p99_us, None, "throughput-only cell has no SLO");
            assert_eq!(cells[3].mode, "pipelined");
            assert_eq!(cells[3].shards, 4);
            assert!((cells[3].ops_per_s - 45473.9).abs() < 1e-9);
            assert_eq!(cells[4].mode, "sync-adm");
            assert_eq!(cells[4].p99_us, Some(12000.0), "latency cell carries p99");
        }

        #[test]
        fn config_extraction_normalizes_whitespace() {
            let config = parse_config(SAMPLE).unwrap();
            assert_eq!(
                config,
                "\"clients\":64,\"batch\":16,\"store_delay_us\":400,\"rounds\":8"
            );
            // A snapshot measured under different knobs is visibly a
            // different config.
            let other = SAMPLE.replace("\"batch\": 16", "\"batch\": 256");
            assert_ne!(parse_config(&other).unwrap(), config);
            assert!(parse_config("no config here").is_none());
        }

        #[test]
        fn rejects_foreign_documents() {
            assert!(parse_snapshot("{}").is_none());
            assert!(parse_snapshot("not json at all").is_none());
            assert!(
                parse_snapshot(r#"{"schema": "lcm-bench-snapshot/1", "results": []}"#).is_none()
            );
        }

        #[test]
        fn within_band_passes_regression_fails() {
            let baseline = parse_snapshot(SAMPLE).unwrap();
            // 30% down across the board: inside the 40% band.
            let ok: Vec<Cell> = baseline
                .iter()
                .map(|c| Cell {
                    ops_per_s: c.ops_per_s * 0.7,
                    ..c.clone()
                })
                .collect();
            assert!(compare(&baseline, &ok, 0.40).iter().all(|v| !v.failed));

            // One cell collapses to half: that cell fails, others pass.
            let mut bad = ok.clone();
            bad[1].ops_per_s = baseline[1].ops_per_s * 0.5;
            let verdicts = compare(&baseline, &bad, 0.40);
            assert!(verdicts[1].failed);
            assert_eq!(verdicts.iter().filter(|v| v.failed).count(), 1);
        }

        #[test]
        fn p99_regression_fails_within_band_jitter_passes() {
            let baseline = parse_snapshot(SAMPLE).unwrap();
            // Baseline p99 12000 at tolerance 0.40: the ceiling is
            // max(12000 * 1.8, 12000 + 10000) = 22000 µs.
            let v = &compare(&baseline, &baseline, 0.40)[4];
            assert_eq!(v.p99_ceiling, Some(22000.0));

            // Throughput holds but the metered tenant's p99 balloons
            // past the ceiling: the latency cell alone must fail.
            let mut bad = baseline.clone();
            bad[4].p99_us = Some(22500.0);
            let verdicts = compare(&baseline, &bad, 0.40);
            assert!(verdicts[4].failed, "p99 past the ceiling fails");
            assert_eq!(verdicts.iter().filter(|v| v.failed).count(), 1);

            // Batch-alignment jitter inside the band passes.
            let mut ok = baseline.clone();
            ok[4].p99_us = Some(21500.0);
            assert!(compare(&baseline, &ok, 0.40).iter().all(|v| !v.failed));

            // A latency cell that silently loses its p99 field fails
            // rather than passing vacuously.
            let mut gone = baseline.clone();
            gone[4].p99_us = None;
            assert!(compare(&baseline, &gone, 0.40)[4].failed);
        }

        #[test]
        fn missing_cell_fails_and_extra_cell_is_ignored() {
            let baseline = parse_snapshot(SAMPLE).unwrap();
            let mut fresh = baseline.clone();
            fresh.remove(0); // (sync, 1) vanished
            fresh.push(Cell {
                mode: "sync".into(),
                shards: 8,
                ops_per_s: 1.0, // new config, not gated
                p99_us: None,
            });
            let verdicts = compare(&baseline, &fresh, 0.40);
            assert_eq!(verdicts.len(), 5, "one verdict per baseline cell");
            assert!(verdicts[0].failed, "missing cell must fail");
            assert_eq!(verdicts.iter().filter(|v| v.failed).count(), 1);
        }

        #[test]
        fn delta_independence_is_the_large_over_small_ratio() {
            let cell = |mode: &str, ops: f64| Cell {
                mode: mode.into(),
                shards: 1,
                ops_per_s: ops,
                p99_us: None,
            };
            let cells = vec![
                cell("sync", 10_000.0),
                cell(DELTA_SMALL_MODE, 8_000.0),
                cell(DELTA_LARGE_MODE, 6_400.0),
            ];
            let ratio = delta_independence(&cells).unwrap();
            assert!((ratio - 0.8).abs() < 1e-9);
            assert!(ratio >= DELTA_INDEPENDENCE_FLOOR);
            // Either cell missing: no ratio (old snapshots gate
            // nothing, rather than failing spuriously).
            assert!(delta_independence(&cells[..2]).is_none());
            assert!(delta_independence(&[]).is_none());
            // A zeroed cell cannot fabricate a passing (or infinite)
            // ratio.
            let zeroed = vec![cell(DELTA_SMALL_MODE, 0.0), cell(DELTA_LARGE_MODE, 100.0)];
            assert!(delta_independence(&zeroed).is_none());
            // The replicated twin reads its own pair of cells.
            assert!(replica_state_independence(&cells).is_none());
            let rep = vec![
                cell(REP_DELTA_SMALL_MODE, 1_500.0),
                cell(REP_DELTA_LARGE_MODE, 900.0),
            ];
            let ratio = replica_state_independence(&rep).unwrap();
            assert!((ratio - 0.6).abs() < 1e-9);
            assert!(ratio < REPLICA_STATE_INDEPENDENCE_FLOOR, "1.67x the cost");
        }

        #[test]
        fn reshard_recovery_is_per_mode_and_needs_both_cells() {
            let cell = |mode: &str, shards: u32, ops: f64| Cell {
                mode: mode.into(),
                shards,
                ops_per_s: ops,
                p99_us: None,
            };
            let cells = vec![
                cell("sync-hot", 8, 2_500.0),
                cell("sync-reshard", 8, 8_300.0),
                cell("pipelined-hot", 8, 2_800.0),
            ];
            let ratio = reshard_recovery(&cells, "sync").unwrap();
            assert!((ratio - 3.32).abs() < 0.01);
            assert!(ratio >= RESHARD_RECOVERY_FLOOR);
            // The pipelined reshard cell is missing: no ratio, so old
            // baselines gate nothing rather than failing spuriously.
            assert!(reshard_recovery(&cells, "pipelined").is_none());
            // A zeroed hot cell cannot fabricate an infinite ratio.
            let zeroed = vec![cell("sync-hot", 8, 0.0), cell("sync-reshard", 8, 100.0)];
            assert!(reshard_recovery(&zeroed, "sync").is_none());
        }

        #[test]
        fn shard_scaleout_compares_8_to_4_per_mode() {
            let cell = |mode: &str, shards: u32, ops: f64| Cell {
                mode: mode.into(),
                shards,
                ops_per_s: ops,
                p99_us: None,
            };
            let cells = vec![
                cell("sync", 1, 3_400.0),
                cell("sync", 4, 8_900.0),
                cell("sync", 8, 14_200.0),
                cell("pipelined", 4, 10_800.0),
            ];
            let ratio = shard_scaleout(&cells, "sync").unwrap();
            assert!((ratio - 14_200.0 / 8_900.0).abs() < 1e-9);
            assert!(ratio >= SHARD_SCALEOUT_FLOOR);
            assert!(shard_scaleout(&cells, "pipelined").is_none());
            // The flat pre-reshard profile would fail the floor.
            let flat = vec![cell("sync", 4, 27_650.0), cell("sync", 8, 26_625.0)];
            assert!(shard_scaleout(&flat, "sync").unwrap() < SHARD_SCALEOUT_FLOOR);
        }

        #[test]
        fn tolerance_env_parsing_is_defensive() {
            // No env manipulation here (tests run in parallel); check
            // the parse-and-clamp path through compare instead: a 60%
            // drop passes only with a loosened band.
            let baseline = parse_snapshot(SAMPLE).unwrap();
            let fresh: Vec<Cell> = baseline
                .iter()
                .map(|c| Cell {
                    ops_per_s: c.ops_per_s * 0.4,
                    ..c.clone()
                })
                .collect();
            assert!(compare(&baseline, &fresh, 0.40).iter().any(|v| v.failed));
            assert!(compare(&baseline, &fresh, 0.70).iter().all(|v| !v.failed));
        }
    }
}

/// [`write_csv`] for a Fig. 5/6-style per-series client sweep.
pub fn series_csv(name: &str, series: &[lcm_sim::scenario::FigureSeries]) {
    let rows: Vec<Vec<String>> = series
        .iter()
        .flat_map(|s| {
            s.rows
                .iter()
                .map(move |(n, x)| vec![s.label(), n.to_string(), format!("{x:.1}")])
        })
        .collect();
    write_csv(name, &["series", "clients", "ops_per_s"], &rows);
}

/// Real-stack throughput measurement of the sharded multi-enclave
/// server, shared by the shard ablation, the snapshot bin, and the
/// criterion benches.
pub mod shardbench {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use lcm_core::admin::AdminHandle;
    use lcm_core::admission::{AdmissionConfig, HealthSnapshot, TenantConfig, TenantId};
    use lcm_core::client::LcmClient;
    use lcm_core::server::BatchServer;
    use lcm_core::shard::build_sharded;
    use lcm_core::stability::Quorum;
    use lcm_core::types::ClientId;
    use lcm_kvs::ops::KvOp;
    use lcm_kvs::store::KvStore;
    use lcm_storage::{DelayedStorage, DeltaLogStorage, MemoryStorage, StableStorage};
    use lcm_tee::world::TeeWorld;

    /// One measurement configuration.
    #[derive(Debug, Clone, Copy)]
    pub struct ShardRun {
        /// Number of server shards.
        pub shards: u32,
        /// Per-shard batch limit.
        pub batch: usize,
        /// Whether each shard persists on a background writer.
        pub pipelined: bool,
        /// Closed-loop client count (each client PUTs its own key, so
        /// keys spread across shards by route hash).
        pub clients: u32,
        /// Full submit-all/process-all rounds to measure.
        pub rounds: u32,
        /// Modelled write+fsync latency per store call.
        pub store_delay: Duration,
        /// Workload skew: this many of the clients write keys owned by
        /// shard 0 (the hot shard); the rest spread by route hash.
        /// `0` is the uniform workload. Skew is where the concurrent
        /// front-end earns its keep: a lock-step driver makes every
        /// client wait for the hot shard's extra batch cycles, while
        /// independent lane drivers keep the cold shards serving.
        pub hot_clients: u32,
    }

    /// The key client `i` writes under `cfg`: pinned to shard 0 for
    /// the first `hot_clients` clients, spread by route hash for the
    /// rest. Shared by the single-driver and front-end measurements so
    /// their cells stay comparable.
    pub fn client_key(cfg: &ShardRun, i: u32) -> Vec<u8> {
        if i < cfg.hot_clients {
            // The i-th key that routes to shard 0.
            return lcm_core::shard::nth_key_routing_to(0, cfg.shards, "hot", i);
        }
        format!("k{i}").into_bytes()
    }

    /// A live sharded KVS stack: server + bootstrapped clients, ready
    /// to run closed-loop rounds.
    pub struct ShardStack {
        server: Box<dyn BatchServer>,
        clients: Vec<LcmClient>,
        keys: Vec<Vec<u8>>,
        payload: Vec<u8>,
    }

    impl ShardStack {
        /// One full round: every client PUTs a 100 B value under its
        /// own key (keys spread across shards by route hash), then all
        /// replies are processed and completed.
        pub fn round(&mut self) {
            use lcm_core::codec::WireCodec;
            for (i, c) in self.clients.iter_mut().enumerate() {
                let op = KvOp::Put(self.keys[i].clone(), self.payload.clone());
                self.server
                    .submit(c.invoke_for::<KvStore>(&op.to_bytes()).unwrap());
            }
            let replies = self.server.process_all().unwrap();
            for (id, wire) in replies {
                let c = self.clients.iter_mut().find(|c| c.id() == id).unwrap();
                c.handle_reply(&wire).unwrap();
            }
        }

        /// Blocks until every persist issued so far is durable.
        pub fn flush(&mut self) {
            self.server.flush_persists().unwrap();
        }

        /// A [`ShardStack::round`] that tolerates live resharding:
        /// replies are handled through `handle_reply_on`, and a client
        /// whose operation came back as a typed redirect (its slice
        /// migrated under a newer routing epoch, which the client has
        /// now adopted) re-invokes the same PUT under the new table
        /// until every client completes. Identical to `round` while no
        /// slices move.
        pub fn round_chasing(&mut self) {
            use lcm_core::client::WriteOutcome;
            use lcm_core::codec::WireCodec;
            let mut pending: Vec<usize> = (0..self.clients.len()).collect();
            while !pending.is_empty() {
                for &i in &pending {
                    let op = KvOp::Put(self.keys[i].clone(), self.payload.clone());
                    let wire = self.clients[i]
                        .invoke_for::<KvStore>(&op.to_bytes())
                        .unwrap();
                    self.server.submit(wire);
                }
                let replies = self.server.process_all().unwrap();
                let mut chasing = Vec::new();
                for (id, wire) in replies {
                    let idx = self.clients.iter().position(|c| c.id() == id).unwrap();
                    match self.clients[idx].handle_reply_on(&wire).unwrap() {
                        (_, WriteOutcome::Done(_)) => {}
                        (_, WriteOutcome::Redirected { .. }) => chasing.push(idx),
                    }
                }
                pending = chasing;
            }
        }

        /// Runs the host-side heat monitor until it declares the load
        /// balanced: each pass runs one chasing round to accrue heat,
        /// drains the per-slice counters, and performs the planned
        /// slice migration live (epoch bump, clients chase redirects
        /// on their next operation). Returns the number of slices
        /// migrated. Bounded by `max_passes` so a pathological planner
        /// cannot spin the measurement forever.
        pub fn rebalance_until_stable(&mut self, max_passes: u32) -> u32 {
            use lcm_core::routing::SliceTable;
            use lcm_core::shard::plan_rebalance;
            let shards = self.clients[0].slice_table().count();
            assert_eq!(
                self.server.routing_epoch(),
                0,
                "rebalance_until_stable mirrors the table from genesis"
            );
            let mut table = SliceTable::uniform(shards);
            let mut moves = 0;
            for _ in 0..max_passes {
                self.round_chasing();
                let heat = self.server.take_slice_heat();
                let Some((slice, to)) = plan_rebalance(&heat, &table) else {
                    break;
                };
                self.server.migrate_slice(slice, to).unwrap();
                table = table.moved(slice, to).expect("planned move is in range");
                moves += 1;
            }
            moves
        }
    }

    /// Builds the sharded KVS stack for `cfg` (booted, provisioned,
    /// clients attached).
    pub fn setup(cfg: &ShardRun) -> ShardStack {
        let world = TeeWorld::new_deterministic(8_800 + u64::from(cfg.shards));
        let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), cfg.store_delay));
        let mut server: Box<dyn BatchServer> = Box::new(build_sharded::<KvStore>(
            &world,
            1,
            storage,
            cfg.batch,
            cfg.shards,
            cfg.pipelined,
        ));
        assert!(server.boot().unwrap());
        let ids: Vec<ClientId> = (1..=cfg.clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 13);
        admin.bootstrap(&mut *server).unwrap();
        let clients = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), cfg.shards))
            .collect();
        let keys = (0..cfg.clients).map(|i| client_key(cfg, i)).collect();
        ShardStack {
            server,
            clients,
            keys,
            payload: vec![0x42u8; 100],
        }
    }

    /// Builds the stack and measures ops/s over the configured rounds
    /// (including a final persistence flush).
    pub fn measure(cfg: &ShardRun) -> f64 {
        let mut stack = setup(cfg);
        let t0 = Instant::now();
        for _ in 0..cfg.rounds {
            stack.round();
        }
        stack.flush();
        f64::from(cfg.clients * cfg.rounds) / t0.elapsed().as_secs_f64()
    }

    /// Time-bounded [`measure`]: runs whole submit-all/process-all
    /// rounds until `window` has elapsed and reports ops/s over the
    /// actual elapsed time. This is the single-driver cell of the
    /// front-end comparison — under a skewed workload every round
    /// lasts as long as the hot shard's batch backlog, and the cold
    /// shards' clients are barred from submitting again until the
    /// whole round completes.
    pub fn measure_for(cfg: &ShardRun, window: Duration) -> f64 {
        let mut stack = setup(cfg);
        let mut ops = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < window {
            stack.round();
            ops += u64::from(cfg.clients);
        }
        stack.flush();
        ops as f64 / t0.elapsed().as_secs_f64()
    }

    /// The `*-reshard` cell: the identical skewed workload and
    /// deployment as [`measure_for`]'s `*-hot` cell, but with the
    /// heat-aware rebalancer run first. The warm-up phase lets the
    /// host-side heat monitor migrate the hot shard's slices across
    /// the cold shards live (attested migration tickets, epoch bumps,
    /// clients chasing typed redirects); the timed window then
    /// measures the same single-driver rounds over the rebalanced
    /// table. The tracked signal is the recovery ratio
    /// `*-reshard / *-hot` — the throughput the epoch-versioned
    /// router claws back from the hot-shard collapse at the root,
    /// rather than mitigating it in front (compare `*-fe`/`*-adm`).
    pub fn measure_resharded(cfg: &ShardRun, window: Duration) -> f64 {
        let mut stack = setup(cfg);
        // One pass per slice is a generous bound: the planner moves at
        // most one slice per pass and stops once the hottest shard is
        // within 2x of the coldest.
        stack.rebalance_until_stable(64);
        let mut ops = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < window {
            stack.round_chasing();
            ops += u64::from(cfg.clients);
        }
        stack.flush();
        ops as f64 / t0.elapsed().as_secs_f64()
    }

    /// The same workload as [`measure_for`], driven through the
    /// concurrent transport front-end for `window`: the deployment sits
    /// behind `lcm_core::transport::Frontend` with `driver_threads`
    /// lane drivers, and every client runs its own closed loop on its
    /// own OS thread through a `FrontendPort` — independent clients
    /// submitting from independent threads, no global round barrier.
    ///
    /// The single-driver [`measure_for`] waits for the *slowest*
    /// shard's full backlog before any client may continue; here each
    /// shard serves its own clients at its own pace. Under a skewed
    /// workload the cold shards' clients keep completing operations
    /// while the hot shard works through its backlog — the throughput
    /// the single-driver barrier gives up.
    pub fn measure_frontend_for(cfg: &ShardRun, driver_threads: usize, window: Duration) -> f64 {
        run_frontend(cfg, driver_threads, window, None).0
    }

    /// Tenant id the admitted skewed cell assigns the hot-shard
    /// hammerers (rate-capped, low weight).
    pub const HOT_TENANT: TenantId = TenantId(1);
    /// Tenant id of the well-behaved clients whose tail latency the
    /// `*-adm` cells track as the SLO signal.
    pub const COLD_TENANT: TenantId = TenantId(2);

    /// The admission policy the `*-adm` snapshot cells run under:
    /// the first `hot_clients` clients (the ones hammering shard 0)
    /// form a metered low-weight tenant, everyone else an unmetered
    /// high-weight tenant. With the hot tenant's token bucket capping
    /// its ingress, the cold tenant's p99 recovers to its own shard's
    /// service time instead of queueing behind the hot backlog.
    pub fn admitted_policy(cfg: &ShardRun) -> AdmissionConfig {
        let hot_ids: Vec<ClientId> = (1..=cfg.hot_clients).map(ClientId).collect();
        let cold_ids: Vec<ClientId> = (cfg.hot_clients + 1..=cfg.clients).map(ClientId).collect();
        AdmissionConfig {
            tenants: vec![
                TenantConfig::metered(HOT_TENANT, hot_ids, 400.0, 16, 1),
                TenantConfig::unlimited(COLD_TENANT, cold_ids, 4),
            ],
            max_in_flight: 64,
        }
    }

    /// The key client `i` writes in the admitted cell: hot clients on
    /// shard 0 as in [`client_key`], cold clients round-robined over
    /// the *other* shards. The `*-adm` latency SLO tracks what the
    /// admission layer actually controls — the metered tenant's tail
    /// on its own shards under hot-tenant ingress pressure. A cold
    /// client route-hashed onto the hot shard would instead measure
    /// shard co-location (the hot backlog ahead of it in the batch
    /// queue), which admission cannot bound and which is wall-clock
    /// noisy.
    pub fn admitted_client_key(cfg: &ShardRun, i: u32) -> Vec<u8> {
        if i < cfg.hot_clients || cfg.shards < 2 {
            return client_key(cfg, i);
        }
        let shard = 1 + (i - cfg.hot_clients) % (cfg.shards - 1);
        lcm_core::shard::nth_key_routing_to(shard, cfg.shards, "cold", i)
    }

    /// The skewed front-end workload of [`measure_frontend_for`], run
    /// with the [`admitted_policy`] installed at the front door and
    /// the [`admitted_client_key`] layout. Returns overall ops/s plus
    /// the per-tenant × shard health snapshot, whose cold-tenant p99
    /// is the latency SLO recorded in `BENCH_pipeline.json` and gated
    /// by `bench_gate`.
    pub fn measure_frontend_admitted(
        cfg: &ShardRun,
        driver_threads: usize,
        window: Duration,
    ) -> (f64, HealthSnapshot) {
        run_frontend(cfg, driver_threads, window, Some(admitted_policy(cfg)))
    }

    /// One sealed-delta-log measurement configuration: a single shard
    /// persisting through `DeltaLogStorage`, preloaded with `preload`
    /// synthetic records before the timed window.
    #[derive(Debug, Clone, Copy)]
    pub struct DeltaRun {
        /// Records bulk-loaded (one [`KvOp::Fill`] invocation) before
        /// the clock starts.
        pub preload: u32,
        /// Batch limit of the single shard.
        pub batch: usize,
        /// Closed-loop client count.
        pub clients: u32,
        /// Timed submit-all/process-all rounds.
        pub rounds: u32,
        /// Modelled write+fsync latency per store call.
        pub store_delay: Duration,
    }

    /// Processes everything submitted and hands each reply to the
    /// client it is for.
    fn settle(server: &mut Box<dyn BatchServer>, clients: &mut [LcmClient]) {
        for (id, wire) in server.process_all().unwrap() {
            let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
            c.handle_reply(&wire).unwrap();
        }
    }

    /// Bulk-loads `records` synthetic 100-byte records with one
    /// [`KvOp::Fill`] by the first client (no-op for 0).
    fn preload(server: &mut Box<dyn BatchServer>, clients: &mut [LcmClient], records: u32) {
        use lcm_core::codec::WireCodec;
        if records == 0 {
            return;
        }
        let fill = KvOp::Fill {
            pin: b"fill".to_vec(),
            start: 0,
            count: records,
            value_len: 100,
        };
        server.submit(clients[0].invoke_for::<KvStore>(&fill.to_bytes()).unwrap());
        settle(server, clients);
    }

    /// Write ops/s of the KVS stack persisting through the sealed
    /// delta-log engine. The tracked signal is the *ratio* between a
    /// large-`preload` cell and a small one (`delta-1M` over
    /// `delta-small` in the snapshot): each group commit seals a
    /// batch-shaped diff, never the resident state, so the ratio must
    /// stay near 1 where full-state sealing collapses by orders of
    /// magnitude. The preload itself — one oversized delta, then the
    /// compaction checkpoint it forces on the *following* persist —
    /// runs before the clock starts (the warm-up round flushes the
    /// deferred checkpoint).
    pub fn measure_delta(cfg: &DeltaRun) -> f64 {
        use lcm_core::codec::WireCodec;
        let world = TeeWorld::new_deterministic(8_600 + u64::from(cfg.preload));
        let disk = Arc::new(DelayedStorage::new(MemoryStorage::new(), cfg.store_delay));
        let engine = Arc::new(DeltaLogStorage::open(disk).expect("engine opens on empty storage"));
        let mut server: Box<dyn BatchServer> = Box::new(build_sharded::<KvStore>(
            &world, 1, engine, cfg.batch, 1, false,
        ));
        assert!(server.boot().unwrap());
        let ids: Vec<ClientId> = (1..=cfg.clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 13);
        admin.bootstrap(&mut *server).unwrap();
        let mut clients: Vec<LcmClient> = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), 1))
            .collect();

        let round = |server: &mut Box<dyn BatchServer>, clients: &mut Vec<LcmClient>, tag: u32| {
            for (i, c) in clients.iter_mut().enumerate() {
                // Fresh keys each round keep every delta the same
                // shape; "w"-prefixed keys cannot collide with the
                // hex keys [`KvOp::Fill`] lays down.
                let op = KvOp::Put(format!("w{i}-{tag}").into_bytes(), vec![0x42u8; 100]);
                server.submit(c.invoke_for::<KvStore>(&op.to_bytes()).unwrap());
            }
            settle(server, clients);
        };

        preload(&mut server, &mut clients, cfg.preload);
        // Warm-up round: flush the preload's deferred compaction
        // checkpoint outside the measurement.
        round(&mut server, &mut clients, cfg.rounds);

        let t0 = Instant::now();
        for r in 0..cfg.rounds {
            round(&mut server, &mut clients, r);
        }
        server.flush_persists().unwrap();
        f64::from(cfg.clients * cfg.rounds) / t0.elapsed().as_secs_f64()
    }

    /// One replicated-group measurement configuration: a single shard
    /// run as a `2f + 1` replica group, so the recorded deltas are
    /// purely the replication protocol's (no shard fan-out in the
    /// same cell).
    #[derive(Debug, Clone, Copy)]
    pub struct ReplicaRun {
        /// Members in the group (1 = unreplicated control).
        pub replicas: u32,
        /// Per-member batch limit.
        pub batch: usize,
        /// Closed-loop writer clients (doubling as reader identities in
        /// the read cell).
        pub clients: u32,
        /// Full submit-all/process-all rounds for the write cell.
        pub rounds: u32,
        /// Modelled write+fsync latency per store call — paid once by
        /// the leader and once per follower apply, which is exactly the
        /// write cost the `rep-write-*` cells track.
        pub store_delay: Duration,
        /// Modelled enclave-transition cost per ecall
        /// ([`lcm_tee::platform::TeePlatform::set_ecall_cost`]).
        /// Every call into a member's enclave — a batch execution, a
        /// follower apply, a verified read — occupies that member for
        /// this long, the same way [`DelayedStorage`] makes the disk
        /// the write bottleneck. It is what the `rep-read-*` cells
        /// scale against: reads pinned to distinct members overlap
        /// their service time, reads to one member serialize it.
        pub ecall_cost: Duration,
        /// Records bulk-loaded (one [`KvOp::Fill`] through the quorum)
        /// before the write cell's clock starts.
        pub preload: u32,
        /// Whether the members persist through one shared
        /// [`DeltaLogStorage`] (journalled deltas, group commit)
        /// instead of each rewriting its own `checkpoint ‖ deltas`
        /// slot on the plain store.
        pub delta_log: bool,
    }

    fn setup_replicated(cfg: &ReplicaRun) -> (Box<dyn BatchServer>, Vec<LcmClient>) {
        use lcm_core::shard::{build_replicated, ReplicationSpec};
        let world = TeeWorld::new_deterministic(8_700 + u64::from(cfg.replicas));
        world.set_ecall_cost(cfg.ecall_cost);
        let disk = Arc::new(DelayedStorage::new(MemoryStorage::new(), cfg.store_delay));
        let storage: Arc<dyn StableStorage> = if cfg.delta_log {
            Arc::new(DeltaLogStorage::open(disk).expect("engine opens on empty storage"))
        } else {
            disk
        };
        let spec = ReplicationSpec {
            shards: 1,
            replicas: cfg.replicas,
            quorum: Quorum::Majority,
        };
        let mut server: Box<dyn BatchServer> = Box::new(build_replicated::<KvStore>(
            &world, 1, storage, cfg.batch, spec, false,
        ));
        assert!(server.boot().unwrap());
        let ids: Vec<ClientId> = (1..=cfg.clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 13);
        admin.bootstrap(&mut *server).unwrap();
        let clients = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), 1))
            .collect();
        (server, clients)
    }

    /// Write ops/s of the replica group: every acknowledged write
    /// waits for the majority quorum, so each batch pays the leader's
    /// persist plus `replicas - 1` follower applies of the batch's
    /// sealed delta, each ending in that member's own persist through
    /// the delayed device. With a preload, the fill and the
    /// compaction checkpoints it forces on the following persist run
    /// before the clock starts, as in [`measure_delta`].
    pub fn measure_replicated_write(cfg: &ReplicaRun) -> f64 {
        use lcm_core::codec::WireCodec;
        let (mut server, mut clients) = setup_replicated(cfg);
        let payload = vec![0x42u8; 100];
        let round = |server: &mut Box<dyn BatchServer>, clients: &mut Vec<LcmClient>| {
            for (i, c) in clients.iter_mut().enumerate() {
                let op = KvOp::Put(format!("k{i}").into_bytes(), payload.clone());
                server.submit(c.invoke_for::<KvStore>(&op.to_bytes()).unwrap());
            }
            settle(server, clients);
        };
        if cfg.preload > 0 {
            preload(&mut server, &mut clients, cfg.preload);
            round(&mut server, &mut clients);
        }
        let t0 = Instant::now();
        for _ in 0..cfg.rounds {
            round(&mut server, &mut clients);
        }
        server.flush_persists().unwrap();
        f64::from(cfg.clients * cfg.rounds) / t0.elapsed().as_secs_f64()
    }

    /// Verified-read ops/s of the replica group over `window`:
    /// `readers` threads hammer the group's lock-per-member
    /// `ReadPort`, each pinning its read legs to replica
    /// `i % replicas`. At one replica every read serializes on the
    /// sole member's lock; at three, three members decrypt, execute,
    /// and seal read replies in parallel — the follower-read
    /// scale-out the `rep-read-*` cells track.
    pub fn measure_replicated_reads(cfg: &ReplicaRun, readers: u32, window: Duration) -> f64 {
        use lcm_core::client::ReadOutcome;
        use lcm_core::codec::WireCodec;
        assert!(cfg.clients >= readers);
        let (mut server, clients) = setup_replicated(cfg);
        let payload = vec![0x42u8; 100];
        // Warm up: every reader owns one key, written through the
        // quorum so every member's state contains it before reads
        // start.
        let mut clients: Vec<LcmClient> = clients.into_iter().take(readers as usize).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let op = KvOp::Put(format!("k{i}").into_bytes(), payload.clone());
            server.submit(c.invoke_for::<KvStore>(&op.to_bytes()).unwrap());
        }
        for (id, wire) in server.process_all().unwrap() {
            let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
            c.handle_reply(&wire).unwrap();
        }
        server.flush_persists().unwrap();

        let port = server
            .read_port()
            .expect("replica groups expose a read port");
        let replicas = cfg.replicas;
        let deadline = Instant::now() + window;
        let t0 = Instant::now();
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                let port = Arc::clone(&port);
                let replica = i as u32 % replicas;
                let op = KvOp::Get(format!("k{i}").into_bytes()).to_bytes();
                std::thread::spawn(move || {
                    let mut done = 0u64;
                    while Instant::now() < deadline {
                        let wire = client.read_for::<KvStore>(&op, replica).unwrap();
                        let reply = port.serve_read(wire).unwrap();
                        match client.handle_read_reply(&reply).unwrap() {
                            ReadOutcome::Fresh(_) => done += 1,
                            // A member still applying the warm-up blob:
                            // retryable lag, not a counted read. No
                            // slices move in this workload, so Moved
                            // never fires; treat it as uncounted too.
                            ReadOutcome::Behind | ReadOutcome::Moved => {}
                        }
                    }
                    done
                })
            })
            .collect();
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        total as f64 / t0.elapsed().as_secs_f64()
    }

    /// One front-end run: overall ops/s and the health snapshot.
    fn run_frontend(
        cfg: &ShardRun,
        driver_threads: usize,
        window: Duration,
        admission: Option<AdmissionConfig>,
    ) -> (f64, HealthSnapshot) {
        use lcm_core::codec::WireCodec;
        use lcm_core::transport::{DriveMode, Frontend};

        let world = TeeWorld::new_deterministic(8_900 + u64::from(cfg.shards));
        let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), cfg.store_delay));
        let server =
            build_sharded::<KvStore>(&world, 1, storage, cfg.batch, cfg.shards, cfg.pipelined);
        let admitted = admission.is_some();
        if let Some(config) = admission {
            server.configure_admission(config);
        }
        let mut fe = Frontend::new(server, driver_threads, DriveMode::Continuous);
        assert!(fe.boot().unwrap());
        let ids: Vec<ClientId> = (1..=cfg.clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 13);
        admin.bootstrap(&mut fe).unwrap();

        let payload = vec![0x42u8; 100];
        let t0 = Instant::now();
        let deadline = t0 + window;
        let workers: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let mut client = LcmClient::new_sharded(id, admin.client_key(), cfg.shards);
                let port = fe.connect(id);
                let payload = payload.clone();
                let key = if admitted {
                    admitted_client_key(cfg, i as u32)
                } else {
                    client_key(cfg, i as u32)
                };
                std::thread::spawn(move || {
                    let mut done = 0u64;
                    while Instant::now() < deadline {
                        let op = KvOp::Put(key.clone(), payload.clone());
                        port.send(client.invoke_for::<KvStore>(&op.to_bytes()).unwrap());
                        let reply = port
                            .recv_timeout(std::time::Duration::from_secs(60))
                            .expect("closed-loop reply");
                        client.handle_reply(&reply).unwrap();
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        let elapsed = t0.elapsed();
        fe.flush_persists().unwrap();
        let ops = total as f64 / elapsed.as_secs_f64();
        if std::env::var("LCM_FE_DEBUG").is_ok() {
            for s in fe.server().shard_stats() {
                eprintln!(
                    "  lane {}: ops={} batches={} avg={:.1}",
                    s.shard,
                    s.ops,
                    s.batches,
                    s.ops as f64 / s.batches.max(1) as f64
                );
            }
        }
        (ops, fe.health_snapshot())
    }
}
