//! `lcm_benchmark`: the repository's one end-to-end + per-layer
//! benchmark. See `README.md` beside this package for how to run it,
//! what each workload and metric means, and which `pub` items of the
//! library it calls.

mod checks;
mod drive;
mod layers;
mod metrics;
mod pin;
mod probes;
mod run;
mod stats;
mod tap;
mod trace;
mod workloads;

use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::{run_once, Report};
use crate::stats::{median_f64, quartiles};
use crate::workloads::{Spec, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: Option<usize>,
    print_benchmark_json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lcm_benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]\n\
         \x20                    [--repeat <k>] [--smoke] [--print-benchmark-json]\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        repeat: None,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--repeat" => args.repeat = Some(value().parse().unwrap_or_else(|_| usage())),
            "--smoke" => args.seconds = 0.5,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return;
    }
    let specs: Vec<&Spec> = match &args.workload {
        Some(name) => vec![workloads::find(name).unwrap_or_else(|| usage())],
        None => WORKLOADS.iter().collect(),
    };
    let outcome = match args.repeat {
        Some(k) => repeat(&specs, &args, k),
        None => run_each(&specs, &args),
    };
    if let Err(e) = outcome {
        // No numbers after a failed check: a later change must not be
        // able to buy speed by skipping one.
        eprintln!("lcm_benchmark: FAILED: {e}");
        std::process::exit(1);
    }
}

/// Runs every selected workload: the end-to-end run, then the traced
/// run (or only the one `--trace` names), each ending in its result
/// line.
fn run_each(specs: &[&Spec], args: &Args) -> Result<(), String> {
    for spec in specs {
        let modes = match args.trace {
            Some(t) => vec![t],
            None => vec![false, true],
        };
        for trace in modes {
            let run = run_once(spec, args.seed, args.seconds, trace)
                .map_err(|e| format!("{} (trace {}): {e}", spec.name, u8::from(trace)))?;
            report(spec, trace, &run);
            println!(
                "{}",
                metrics::result_json(&run.values, trace, run.attempted, run.failed)
            );
        }
    }
    Ok(())
}

/// `--repeat K`: the end-to-end set K times back to back, then each
/// metric's median, quartiles and spread against its bound, with the
/// machine calibration beside it.
fn repeat(specs: &[&Spec], args: &Args, k: usize) -> Result<(), String> {
    for spec in specs {
        let mut runs = Vec::with_capacity(k);
        for i in 0..k {
            let run = run_once(spec, args.seed + i as u64, args.seconds, false)
                .map_err(|e| format!("{} run {i}: {e}", spec.name))?;
            eprintln!(
                "{} run {i}: {:.0} ops/s, calib {:.1}/{:.1} Mops/s",
                spec.name,
                run.values["ops_per_s"],
                run.values["machine.calib_mops_before"],
                run.values["machine.calib_mops_after"]
            );
            runs.push(run);
        }
        println!("== {} x{k} (seeds {}..) ==", spec.name, args.seed);
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.values[m.name]).collect();
            let (q1, q2, q3) = quartiles(&values);
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
            let verdict = if m.name == "setup_s" || spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else {
                "EXCEEDS BOUND: demote to per-layer"
            };
            println!(
                "{:<24} {q1:>12.3} {q2:>12.3} {q3:>12.3} {:>7.1}% {:>6.0}%  {verdict}",
                m.name,
                spread * 100.0,
                m.bound * 100.0
            );
        }
        let mut calib: Vec<f64> = runs
            .iter()
            .flat_map(|r| {
                [
                    r.values["machine.calib_mops_before"],
                    r.values["machine.calib_mops_after"],
                ]
            })
            .collect();
        let (lo, hi) = calib
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        println!(
            "machine.calib_mops: median {:.1}, range {lo:.1}..{hi:.1} ({:.1}% wide)",
            median_f64(&mut calib),
            (hi - lo) / lo * 100.0
        );
    }
    Ok(())
}

fn report(spec: &Spec, trace: bool, run: &Report) {
    println!(
        "== {} ({}) ==",
        spec.name,
        if trace {
            "traced run: per-layer"
        } else {
            "end to end"
        }
    );
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in names {
        println!(
            "{name:<40} {:>16.3} {}",
            run.values[name],
            metrics::unit_of(name)
        );
    }
    println!(
        "attempted {} failed {} calib {:.1}/{:.1} Mops/s",
        run.attempted,
        run.failed,
        run.values["machine.calib_mops_before"],
        run.values["machine.calib_mops_after"]
    );
    for note in &run.notes {
        println!("note: {note}");
    }
}
