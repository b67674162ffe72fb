//! One run of one workload: set-up, the timed window, the fault
//! cycles and checks, and the end-to-end metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm::core::server::BatchServer;

use crate::checks;
use crate::drive::{drive, make_clients, ClientSlot, Source, WindowResult};
use crate::layers::{self, TracedWindow};
use crate::metrics::Values;
use crate::pin;
use crate::stats::{calib_mops, median_f64, percentile_u32, SpeedKernel};
use crate::trace::Tracer;
use crate::workloads::{admission_config, build_stack, Drive, Medium, Spec, Stack, Traffic, BATCH};

/// Set-ups per end-to-end run: at least `MIN_SETUPS`, then more while
/// they are cheap, so `setup_s` (their median) is steady on the
/// workloads whose set-up takes a tenth of a second.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Fault cycles per end-to-end run; `recovery_ms` is their median.
const FAULT_CYCLES: usize = 9;
/// Fault cycles on a traced run (enough to count a failover).
const TRACED_FAULT_CYCLES: usize = 2;
/// Length of each machine-calibration run.
const CALIB: Duration = Duration::from_millis(250);
/// Length of one machine-speed sample.
const SPEED_SAMPLE: Duration = Duration::from_millis(20);

/// What is fixed for one run.
pub struct Run<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub window: Duration,
    pub tracer: Arc<Tracer>,
    pub traffic: Traffic,
}

/// One stretch of a timed window: a `drive` call of its own (it ends
/// with nothing in flight), with the machine's speed sampled right
/// before and after it while nothing of the program runs. The shared
/// host slows the same binary down by a third for seconds to minutes
/// at a time, so a timing is stated at the reference machine speed:
/// what the stretch measured, scaled by the speed beside it.
pub struct Segment {
    pub measured: WindowResult,
    /// Mean of the two samples, relative to the reference speed.
    pub speed: f64,
}

/// One-off timings (set-ups, fault cycles), each with the machine's
/// speed sampled right before and after it.
#[derive(Default)]
pub struct Timings {
    measured: Vec<f64>,
    speeds: Vec<f64>,
}

impl Timings {
    fn push(&mut self, measured: f64, speed: f64) {
        self.measured.push(measured);
        self.speeds.push(speed);
    }

    /// The median of the timings, each at the reference machine speed.
    fn median_at_reference_speed(&self) -> f64 {
        let mut scaled: Vec<f64> = self
            .measured
            .iter()
            .zip(&self.speeds)
            .map(|(t, speed)| t * speed)
            .collect();
        median_f64(&mut scaled)
    }
}

/// What a run produced.
#[derive(Default)]
pub struct Report {
    pub values: Values,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    fn book(&mut self, w: &WindowResult) {
        self.attempted += w.attempted;
        self.failed += w.failed;
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Builds the workload's stack, preloads it and warms it up: what
/// `setup_s` times.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    traffic: &Traffic,
    tracer: &Arc<Tracer>,
) -> Result<(Stack, Vec<ClientSlot>), String> {
    let mut stack = build_stack(spec, seed, Medium::new(spec, tracer), tracer)
        .map_err(|e| format!("build: {e}"))?;
    let mut slots = make_clients(spec, &stack);
    let preload = Source::counted(&traffic.preload, traffic.preload.len() as u64);
    let loaded = drive(spec, &mut stack, &mut slots, preload, tracer, false)?;
    if loaded.failed != 0 {
        return Err(format!("{} preload operations failed", loaded.failed));
    }
    let warm_up = Source::counted(&traffic.pool, spec.warmup_ops);
    let warm = drive(spec, &mut stack, &mut slots, warm_up, tracer, false)?;
    if warm.failed != 0 {
        return Err(format!("{} warm-up operations failed", warm.failed));
    }
    flush(&mut stack)?;
    Ok((stack, slots))
}

pub fn flush(stack: &mut Stack) -> Result<Duration, String> {
    let t = Instant::now();
    stack
        .dep
        .frontend_mut()
        .flush_persists()
        .map_err(|e| format!("flush: {e}"))?;
    Ok(t.elapsed())
}

impl Run<'_> {
    fn drive(
        &self,
        stack: &mut Stack,
        slots: &mut [ClientSlot],
        source: Source<'_>,
        tracing: bool,
    ) -> Result<WindowResult, String> {
        drive(self.spec, stack, slots, source, &self.tracer, tracing)
    }

    /// The untraced reference half and the traced half of a traced
    /// run's window, with the machine's speed around each and the
    /// counters around the traced half.
    fn traced_window(
        &self,
        stack: &mut Stack,
        slots: &mut [ClientSlot],
        kernel: &mut SpeedKernel,
        report: &mut Report,
    ) -> Result<TracedWindow, String> {
        let half = self.window / 2;
        let pool = &self.traffic.pool;
        let speed_before = kernel.sample(SPEED_SAMPLE);
        let reference = self.drive(stack, slots, Source::timed(pool, 0, half), false)?;
        report.book(&reference);
        flush(stack)?;
        let speed_between = kernel.sample(SPEED_SAMPLE);
        if let Some(config) = admission_config(self.spec) {
            // Restart the front door's histograms so they cover the
            // traced half only.
            stack.dep.frontend().set_admission(config);
        }
        stack.lane_tap.take_checkpoint_ordinals();
        let before = layers::counters(stack);
        self.tracer.set_on(true);
        let first = reference.attempted as usize;
        let traced = self.drive(stack, slots, Source::timed(pool, first, half), true);
        self.tracer.set_on(false);
        let traced = traced?;
        report.book(&traced);
        let flush_took = flush(stack)?;
        let speed_after = kernel.sample(SPEED_SAMPLE);
        Ok(TracedWindow {
            reference: Segment {
                measured: reference,
                speed: (speed_before + speed_between) / 2.0,
            },
            traced: Segment {
                measured: traced,
                speed: (speed_between + speed_after) / 2.0,
            },
            before,
            after: layers::counters(stack),
            flush_took,
        })
    }

    /// The timed window of an end-to-end run, segment by segment.
    fn segmented_window(
        &self,
        stack: &mut Stack,
        slots: &mut [ClientSlot],
        kernel: &mut SpeedKernel,
        report: &mut Report,
    ) -> Result<Vec<Segment>, String> {
        let segment = self.spec.segment().as_secs_f64();
        let count = ((self.window.as_secs_f64() / segment).round() as u32).max(1);
        let len = self.window / count;
        let mut segments = Vec::with_capacity(count as usize);
        let mut before = kernel.sample(SPEED_SAMPLE);
        for _ in 0..count {
            // Each segment goes on where the last one stopped.
            let first = report.attempted as usize;
            let source = Source::timed(&self.traffic.pool, first, len);
            let measured = self.drive(stack, slots, source, false)?;
            report.book(&measured);
            flush(stack)?;
            let after = kernel.sample(SPEED_SAMPLE);
            segments.push(Segment {
                measured,
                speed: (before + after) / 2.0,
            });
            before = after;
        }
        Ok(segments)
    }

    /// The fault cycles: `recovery_ms` samples and the failovers seen.
    fn fault_cycles(
        &self,
        mut stack: Stack,
        slots: &mut [ClientSlot],
        cycles: usize,
        kernel: &mut SpeedKernel,
        report: &mut Report,
    ) -> Result<(Stack, Timings, u64), String> {
        let spec = self.spec;
        if spec.delta_log && spec.shards == 1 {
            // Recovery replays the deltas since the last checkpoint, so
            // a single lane's cost depends on where in its checkpoint
            // cycle the window happened to end. Start every run's
            // fault cycles from the same place: just after a
            // checkpoint.
            let aligned = stack.lane_tap.snapshot().checkpoint_stores;
            while stack.lane_tap.snapshot().checkpoint_stores == aligned {
                let few = Source::counted(&self.traffic.pool, 4 * BATCH as u64);
                report.book(&self.drive(&mut stack, slots, few, false)?);
            }
        }
        let mut recovery_ms = Timings::default();
        let mut failovers = 0u64;
        for _ in 0..cycles {
            let gap = Source::counted(&self.traffic.pool, spec.fault_gap_ops);
            report.book(&self.drive(&mut stack, slots, gap, false)?);
            let speed_before = kernel.sample(SPEED_SAMPLE);
            let leader_before = stack.dep.frontend().group_leader(0);
            let (rebooted, took, put) = checks::fault_cycle(
                spec,
                self.seed,
                stack,
                slots,
                &self.traffic.first_put,
                &self.tracer,
            )?;
            stack = rebooted;
            report.book(&put);
            failovers += u64::from(stack.dep.frontend().group_leader(0) != leader_before);
            let speed = (speed_before + kernel.sample(SPEED_SAMPLE)) / 2.0;
            recovery_ms.push(took.as_secs_f64() * 1e3, speed);
        }
        Ok((stack, recovery_ms, failovers))
    }
}

pub fn run_once(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    // One thread runs at a time on these workloads; see `pin`.
    let _pinned = (spec.drive != Drive::Frontend)
        .then(pin::to_one_cpu)
        .flatten();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let generators = spec.generator_threads(nproc);
    assert!(
        generators <= nproc,
        "{generators} generator threads on {nproc} processors would measure the scheduler"
    );
    let mut report = Report::default();
    report
        .values
        .insert("machine.calib_mops_before", calib_mops(CALIB));
    let run = Run {
        spec,
        seed,
        window: Duration::from_secs_f64(seconds),
        tracer: Arc::new(Tracer::new()),
        traffic: Traffic::generate(spec, seed),
    };

    let mut kernel = SpeedKernel::new();
    let mut setup_s = Timings::default();
    let mut built = None;
    let setting_up = Instant::now();
    let mut speed_before = kernel.sample(SPEED_SAMPLE);
    while built.is_none()
        || !trace
            && setup_s.measured.len() < MAX_SETUPS
            && (setup_s.measured.len() < MIN_SETUPS || setting_up.elapsed() < SETUP_BUDGET)
    {
        drop(built.take());
        let t = Instant::now();
        built = Some(set_up(spec, seed, &run.traffic, &run.tracer)?);
        let took = t.elapsed().as_secs_f64();
        let speed_after = kernel.sample(SPEED_SAMPLE);
        setup_s.push(took, (speed_before + speed_after) / 2.0);
        speed_before = speed_after;
    }
    let (mut stack, mut slots) = built.expect("at least one set-up");

    let segments = if trace {
        let halves = run.traced_window(&mut stack, &mut slots, &mut kernel, &mut report)?;
        layers::from_window(&run, &stack, &halves, &mut report)?;
        vec![halves.traced]
    } else {
        run.segmented_window(&mut stack, &mut slots, &mut kernel, &mut report)?
    };
    end_to_end_from_window(&segments, |s| s.speed, &mut report.values);
    let mut unscaled = Values::default();
    end_to_end_from_window(&segments, |_| 1.0, &mut unscaled);
    report.notes.push(format!(
        "as measured, unscaled: ops_per_s {:.1}, write_latency_p50_us {:.1}, cpu_us_per_op {:.2}",
        unscaled["ops_per_s"], unscaled["write_latency_p50_us"], unscaled["cpu_us_per_op"]
    ));
    let by_segment = |what: fn(&Segment) -> f64, digits: usize| {
        segments
            .iter()
            .map(|s| format!("{:.digits$}", what(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.notes.push(format!(
        "ops/s by segment, as measured: {}",
        by_segment(|s| s.measured.ops_per_s(), 0)
    ));
    report.notes.push(format!(
        "machine speed by segment: {}",
        by_segment(|s| s.speed, 3)
    ));

    let recorded = checks::check_history(&slots)?;
    report.notes.push(format!(
        "sampled client's {recorded} recorded operations pass check_client_view and check_stable_prefix"
    ));

    let cycles = if trace {
        TRACED_FAULT_CYCLES
    } else {
        FAULT_CYCLES
    };
    let (mut stack, recovery_ms, failovers) =
        run.fault_cycles(stack, &mut slots, cycles, &mut kernel, &mut report)?;
    report.notes.push(format!(
        "fault cycles, ms, as measured: {}",
        recovery_ms
            .measured
            .iter()
            .map(|ms| format!("{ms:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let read_back = checks::check_durability(spec, &mut stack, &mut slots, &run.tracer)?;
    report.book(&read_back);
    report.notes.push(format!(
        "{} keys the sampled client wrote are readable after {cycles} fault cycles",
        read_back.attempted
    ));
    if trace {
        layers::after_faults(&run, &stack, failovers, &mut report);
    }
    report.notes.extend(checks::check_detection(
        spec,
        seed,
        stack,
        &mut slots,
        &run.traffic.first_put[0],
        &run.tracer,
    )?);

    report
        .values
        .insert("recovery_ms", recovery_ms.median_at_reference_speed());
    report
        .values
        .insert("setup_s", setup_s.median_at_reference_speed());
    report.notes.push(format!(
        "as measured, unscaled: recovery_ms {:.3}, setup_s {:.4}",
        median_f64(&mut recovery_ms.measured.clone()),
        median_f64(&mut setup_s.measured.clone())
    ));
    if trace {
        report.values.insert(
            "harness.generator_threads",
            segments[0].measured.generator_threads as f64,
        );
        report.values.insert(
            "error_rate",
            ratio(report.failed as f64, report.attempted as f64),
        );
        layers::probes_and_side_runs(&run, &mut report)?;
    }
    report
        .values
        .insert("machine.calib_mops_after", calib_mops(CALIB));
    Ok(report)
}

/// The user-visible numbers of a timed window (every metric but
/// `recovery_ms` and `setup_s`, which come from outside it). Each is
/// computed per segment, scaled to the reference machine speed by the
/// segment's own speed (`speed_of`), and reported as the median over
/// the segments.
fn end_to_end_from_window(
    segments: &[Segment],
    speed_of: fn(&Segment) -> f64,
    values: &mut Values,
) {
    let busy: Vec<&Segment> = segments
        .iter()
        .filter(|s| s.measured.ops_in_window > 0)
        .collect();
    let median_of = |per_segment: &dyn Fn(&Segment) -> f64| {
        median_f64(&mut busy.iter().map(|s| per_segment(s)).collect::<Vec<_>>())
    };
    values.insert(
        "ops_per_s",
        median_of(&|s| s.measured.ops_per_s() / speed_of(s)),
    );
    values.insert(
        "cpu_us_per_op",
        median_of(&|s| s.measured.cpu_us / s.measured.ops_in_window as f64 * speed_of(s)),
    );
    let latency = |pick: fn(&WindowResult) -> &Vec<u32>, q: f64| {
        let mut per_segment: Vec<f64> = busy
            .iter()
            .filter(|s| !pick(&s.measured).is_empty())
            .map(|s| percentile_u32(&mut pick(&s.measured).clone(), q) / 1e3 * speed_of(s))
            .collect();
        median_f64(&mut per_segment)
    };
    values.insert("write_latency_p50_us", latency(|w| &w.write_lat_ns, 0.50));
    values.insert("write_latency_p99_us", latency(|w| &w.write_lat_ns, 0.99));
    values.insert("read_latency_p50_us", latency(|w| &w.read_lat_ns, 0.50));
    values.insert("read_latency_p99_us", latency(|w| &w.read_lat_ns, 0.99));
    let mut lag: Vec<u32> = segments
        .iter()
        .flat_map(|s| s.measured.lag_ops.iter().copied())
        .collect();
    values.insert("stable_lag_p50_ops", percentile_u32(&mut lag, 0.50));
}
