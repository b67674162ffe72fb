//! Figure 6 — throughput with different numbers of clients,
//! synchronous (fsync) disk writes.
//!
//! Paper setup: as Fig. 5 but with fsync enabled. Headline claims:
//! Native, SGX, LCM, SGX+TMC stay flat (fsync-bound); Redis and the
//! batched variants scale; SGX ≈ 0.98× Native; LCM ≈ 0.69× SGX
//! unbatched; LCM+batch = 0.72–9.87× SGX and 0.71–0.75× SGX+batch.
//!
//! Regenerate: `cargo run -p lcm-bench --bin fig6 --release`

use lcm_bench::{compare, series_csv};
use lcm_sim::cost::ServerKind;
use lcm_sim::scenario::{client_counts, run_figure5_or_6};
use lcm_sim::CostModel;

const LABEL_WIDTH: usize = 30;

fn main() {
    let model = CostModel::default();
    println!("Figure 6: throughput vs #clients, 100 B objects, SYNC (fsync) writes\n");

    let series = run_figure5_or_6(&model, true);
    series_csv("fig6", &series);
    print!("| {:<LABEL_WIDTH$} |", "series \\ clients");
    for n in client_counts() {
        print!(" {n:>8} |");
    }
    println!();
    print!("|{}|", "-".repeat(LABEL_WIDTH + 2));
    for _ in client_counts() {
        print!("{}|", "-".repeat(10));
    }
    println!();
    for s in &series {
        print!("| {:<LABEL_WIDTH$} |", s.label());
        for (_, x) in &s.rows {
            print!(" {x:>8.0} |");
        }
        println!();
    }
    println!("  (units: ops/sec)");

    let get = |kind: ServerKind, delta_log: bool| -> Vec<f64> {
        series
            .iter()
            .find(|s| s.kind == kind && s.delta_log == delta_log)
            .map(|s| s.rows.iter().map(|(_, x)| *x).collect())
            .unwrap()
    };
    let native = get(ServerKind::Native, false);
    let sgx = get(ServerKind::Sgx { batch: 1 }, false);
    let sgx_b = get(ServerKind::Sgx { batch: 16 }, false);
    let lcm = get(ServerKind::Lcm { batch: 1 }, false);
    let lcm_b = get(ServerKind::Lcm { batch: 16 }, false);
    let lcm_d = get(ServerKind::Lcm { batch: 16 }, true);
    let redis = get(ServerKind::RedisTls, false);

    let range = |num: &[f64], den: &[f64]| {
        let r: Vec<f64> = num.iter().zip(den).map(|(a, b)| a / b).collect();
        format!(
            "{:.2}x – {:.2}x",
            r.iter().cloned().fold(f64::INFINITY, f64::min),
            r.iter().cloned().fold(0.0f64, f64::max)
        )
    };
    let flatness = |xs: &[f64]| format!("{:.2}", xs.last().unwrap() / xs.first().unwrap());

    println!("\nPaper-vs-measured:");
    compare(
        "SGX / Native (fsync-bound)",
        "~0.98x",
        &range(&sgx, &native),
    );
    compare("LCM / SGX unbatched", "~0.69x", &range(&lcm, &sgx));
    compare(
        "LCM+batch / SGX unbatched",
        "0.72x – 9.87x",
        &range(&lcm_b, &sgx),
    );
    compare(
        "LCM+batch / SGX+batch",
        "0.71x – 0.75x",
        &range(&lcm_b, &sgx_b),
    );
    compare("Native flat (x32/x1)", "~1.0", &flatness(&native));
    compare("LCM unbatched flat (x32/x1)", "~1.0", &flatness(&lcm));
    compare("Redis scales (x32/x1)", ">> 1", &flatness(&redis));
    // The delta-log engine is not in the paper; even at the paper's
    // small 1000-record store the touched-key diff seals less than the
    // full state, buying a modest edge that widens with store size
    // (`sharding_validation::delta_store_term_tracks_the_real_engine_state_independence`
    // pins the large-store case).
    compare(
        "LCM+batch delta-log / full-seal (fsync)",
        "1.0x – 1.3x",
        &range(&lcm_d, &lcm_b),
    );
}
