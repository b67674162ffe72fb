//! The per-layer account of a traced run: what the spans, the storage
//! taps, the stats accessors and the bare-layer probes say, and whether
//! it adds up to the end-to-end figures.

use std::time::{Duration, Instant};

use lcm::core::server::{BatchServer, SLOT_STATE_BLOB};
use lcm::core::shard::ShardStats;
use lcm::storage::{DeltaLogStats, NamespacedStorage, StableStorage};

use crate::drive::{drive, Source};
use crate::probes;
use crate::run::{flush, ratio, set_up, Report, Run, Segment};
use crate::stats::{median_f64, percentile_u32};
use crate::tap::TapCounts;
use crate::trace::{Agg, Layer, LAYERS};
use crate::workloads::{Drive, Spec, Stack, Traffic, KEY_LEN, VALUE_LEN};

/// The counters the harness diffs around a window.
pub struct Counters {
    lane: TapCounts,
    device: TapCounts,
    engine: DeltaLogStats,
    lanes: Vec<ShardStats>,
    ops_processed: u64,
    batches_processed: u64,
    dropped_replies: u64,
    delayed_stores: u64,
}

pub fn counters(stack: &Stack) -> Counters {
    Counters {
        lane: stack.lane_tap.snapshot(),
        device: stack.medium.device.snapshot(),
        engine: stack.engine.as_ref().map(|e| e.stats()).unwrap_or_default(),
        lanes: stack.dep.frontend().server().shard_stats(),
        ops_processed: stack.dep.frontend().ops_processed(),
        batches_processed: stack.dep.frontend().batches_processed(),
        dropped_replies: stack.dep.stats().dropped_replies(),
        delayed_stores: stack.medium.delayed.stores(),
    }
}

/// The two halves of a traced run's window.
pub struct TracedWindow {
    /// The untraced half: what the traced half is reconciled against,
    /// both at the reference machine speed.
    pub reference: Segment,
    pub traced: Segment,
    /// Counters before and after the traced half.
    pub before: Counters,
    pub after: Counters,
    /// `flush_persists()` after the traced half.
    pub flush_took: Duration,
}

fn mean_ns(samples: &[u32]) -> f64 {
    ratio(
        samples.iter().map(|&s| f64::from(s)).sum::<f64>(),
        samples.len() as f64,
    )
}

/// Harness spans that are nobody's child: their durations add up to
/// the time the generator threads spent inside the program.
const TOP_LEVEL: [Layer; 6] = [
    Layer::ClientInvoke,
    Layer::ClientComplete,
    Layer::TransportSend,
    Layer::ShardSubmit,
    Layer::ServerStep,
    Layer::ReadServe,
];

/// Everything the traced window itself shows, and the trace file.
pub fn from_window(
    run: &Run<'_>,
    stack: &Stack,
    w: &TracedWindow,
    report: &mut Report,
) -> Result<(), String> {
    let spec = run.spec;
    let (reference, traced) = (&w.reference.measured, &w.traced.measured);
    let (before, after) = (&w.before, &w.after);
    // Throughput of the two halves at the reference machine speed.
    let reference_tput = reference.ops_per_s() / w.reference.speed;
    let traced_tput = traced.ops_per_s() / w.traced.speed;
    let agg: [Agg; LAYERS] = run.tracer.aggregate(&traced.recorders);
    let of = |layer: Layer| agg[layer as usize];
    let ops = traced.completed() as f64;
    let (write_lat, read_lat) = (traced.write_lat_ns.clone(), traced.read_lat_ns.clone());

    // Client and transport, from the spans around the harness's calls.
    report
        .values
        .insert("core.client.invoke_ns", of(Layer::ClientInvoke).mean_ns());
    report.values.insert(
        "core.client.complete_ns",
        of(Layer::ClientComplete).mean_ns(),
    );
    report.values.insert(
        "core.client.wire_bytes_invoke",
        ratio(traced.bytes_invoke as f64, traced.attempted as f64),
    );
    report.values.insert(
        "core.client.wire_bytes_reply",
        ratio(traced.bytes_reply as f64, ops),
    );
    report
        .values
        .insert("core.transport.send_ns", of(Layer::TransportSend).mean_ns());
    report
        .values
        .insert("core.shard.submit_ns", of(Layer::ShardSubmit).mean_ns());
    let in_client_ns = of(Layer::ClientInvoke).mean_ns()
        + of(Layer::ClientComplete).mean_ns()
        + of(Layer::TransportSend).mean_ns()
        + of(Layer::ShardSubmit).mean_ns();
    let mean_latency_ns = ratio(
        mean_ns(&write_lat) * write_lat.len() as f64 + mean_ns(&read_lat) * read_lat.len() as f64,
        (write_lat.len() + read_lat.len()) as f64,
    );
    report.values.insert(
        "core.transport.reply_wait_ns",
        (mean_latency_ns - in_client_ns).max(0.0),
    );
    report.values.insert(
        "core.transport.dropped_replies",
        (after.dropped_replies - before.dropped_replies) as f64,
    );
    report
        .values
        .insert("core.routing.redirects", traced.redirects as f64);

    // Lanes, from the stats accessors.
    let lane_ops: Vec<f64> = after
        .lanes
        .iter()
        .zip(&before.lanes)
        .map(|(a, b)| (a.ops - b.ops) as f64)
        .collect();
    let lane_batches: f64 = after
        .lanes
        .iter()
        .zip(&before.lanes)
        .map(|(a, b)| (a.batches - b.batches) as f64)
        .sum();
    let lane_total: f64 = lane_ops.iter().sum();
    report.values.insert(
        "core.transport.ops_per_batch",
        ratio(lane_total, lane_batches),
    );
    report.values.insert(
        "core.server.ops_per_batch",
        ratio(
            (after.ops_processed - before.ops_processed) as f64,
            (after.batches_processed - before.batches_processed) as f64,
        ),
    );
    report.values.insert(
        "core.shard.lane_ops_skew",
        ratio(
            lane_ops.iter().copied().fold(0.0, f64::max),
            lane_total / lane_ops.len() as f64,
        ),
    );
    let high_water = after
        .lanes
        .iter()
        .map(|l| l.ingress.high_water)
        .max()
        .unwrap_or(0);
    let blocked: u64 = after
        .lanes
        .iter()
        .zip(&before.lanes)
        .map(|(a, b)| a.ingress.blocked_pushes - b.ingress.blocked_pushes)
        .sum();
    report
        .values
        .insert("core.shard.max_queue_depth", high_water as f64);
    report
        .values
        .insert("core.shard.backpressure_waits", blocked as f64);
    report
        .values
        .insert("runtime.queue.blocked_pushes", blocked as f64);
    report
        .values
        .insert("core.pipeline.flush_ns", w.flush_took.as_nanos() as f64);

    // The front door's own view (admission workloads only).
    let health = stack.dep.health_snapshot().filter(|h| h.admission_enabled);
    let tenants = health.as_ref().map(|h| h.tenants.as_slice()).unwrap_or(&[]);
    let front_p99 = tenants.iter().map(|t| t.overall.p99_us).max().unwrap_or(0) as f64;
    report.values.insert(
        "core.admission.admitted",
        tenants.iter().map(|t| t.admitted).sum::<u64>() as f64,
    );
    report.values.insert(
        "core.admission.rejected",
        tenants.iter().map(|t| t.rejected).sum::<u64>() as f64,
    );
    report.values.insert(
        "core.admission.replayed",
        tenants.iter().map(|t| t.replayed).sum::<u64>() as f64,
    );
    report.values.insert("core.admission.p99_us", front_p99);

    // The server's step, where the harness calls it.
    let step = of(Layer::ServerStep);
    report.values.insert(
        "core.server.step_ns_per_op",
        ratio(step.total_ns as f64, ops),
    );
    // With replicas every member stores its own copy of every batch,
    // so ordinals no longer name steps; without a delta log every
    // batch reseals the whole state anyway, so every step qualifies.
    let checkpoint_ordinals = stack.lane_tap.take_checkpoint_ordinals();
    report.values.insert(
        "core.server.checkpoint_step_ms",
        if spec.replicas > 1 {
            let mut all: Vec<f64> = traced
                .steps
                .iter()
                .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
                .collect();
            median_f64(&mut all)
        } else {
            probes::checkpoint_step_ms(
                &traced.steps,
                before.lane.state_stores,
                &checkpoint_ordinals,
            )
        },
    );

    // Replication, from the stores the followers' applies end in.
    let lane = after.lane.since(&before.lane);
    report.values.insert(
        "core.replica.apply_ns_per_batch",
        ratio(lane.apply_ns as f64, lane.applies as f64),
    );
    report.values.insert(
        "core.replica.blob_bytes_per_batch",
        ratio(lane.apply_bytes as f64, lane.applies as f64),
    );
    report.values.insert(
        "core.replica.follower_lag_batches",
        stack.lane_tap.state_slot_lag() as f64,
    );

    // Storage: the engine between the two taps, then the device.
    let device = after.device.since(&before.device);
    let engine_on = if spec.delta_log { 1.0 } else { 0.0 };
    report.values.insert(
        "storage.deltalog.store_ns_per_batch",
        engine_on * ratio(lane.state_store_ns as f64, lane.state_stores as f64),
    );
    report.values.insert(
        "storage.deltalog.store_calls_per_op",
        engine_on * ratio(lane.stores as f64, ops),
    );
    report.values.insert(
        "storage.deltalog.bytes_per_op",
        engine_on * ratio(lane.store_bytes as f64, ops),
    );
    report.values.insert(
        "storage.deltalog.checkpoints",
        (after.engine.checkpoints - before.engine.checkpoints) as f64,
    );
    report.values.insert(
        "storage.deltalog.segments_sealed",
        (after.engine.segments_sealed - before.engine.segments_sealed) as f64,
    );
    report.values.insert(
        "storage.deltalog.group_commit_width",
        ratio(
            (after.engine.records_appended - before.engine.records_appended) as f64,
            (after.engine.group_commits - before.engine.group_commits) as f64,
        ),
    );
    report.values.insert(
        "storage.device.writes_per_op",
        ratio(device.stores as f64, ops),
    );
    report.values.insert(
        "storage.device.bytes_per_user_byte",
        ratio(device.store_bytes as f64, traced.user_bytes as f64),
    );
    report.values.insert(
        "storage.device.space_per_live_byte",
        ratio(
            stack.medium.device.space_bytes() as f64,
            (spec.records * (KEY_LEN + VALUE_LEN) as u64) as f64,
        ),
    );
    report.values.insert(
        "storage.delayed.sleep_share",
        ratio(
            (after.delayed_stores - before.delayed_stores) as f64 * spec.store_delay.as_secs_f64(),
            traced.thread_wall.as_secs_f64() / traced.generator_threads as f64,
        ),
    );

    // The harness itself, and whether the account adds up.
    let in_program_ns: f64 = TOP_LEVEL.iter().map(|&l| of(l).total_ns as f64).sum();
    let self_ns = ratio(
        (traced.thread_wall.as_nanos() as f64 - in_program_ns - traced.blocked_ns as f64).max(0.0),
        ops,
    );
    report.values.insert("harness.self_ns_per_op", self_ns);
    report.values.insert(
        "harness.tracing_overhead_pct",
        (reference_tput - traced_tput) / reference_tput * 100.0,
    );
    let mut valid = true;
    if spec.drive != Drive::Frontend {
        let untraced_ns_per_op = 1e9 / reference_tput;
        let spans_ns_per_op = ratio(in_program_ns, ops) * w.traced.speed;
        let off = (spans_ns_per_op - untraced_ns_per_op).abs() / untraced_ns_per_op;
        report.notes.push(format!(
            "reconciliation, at the reference machine speed: top-level spans {spans_ns_per_op:.0} ns/op vs untraced wall {untraced_ns_per_op:.0} ns/op ({:.1}% apart, limit 10%)",
            off * 100.0
        ));
        valid &= off <= 0.10;
    }
    if spec.drive == Drive::SingleDriver {
        // Little's law is about the mean; the median sits below it by
        // however much of the time goes to checkpoint steps.
        let mut writes = reference.write_lat_ns.clone();
        let per_client = reference.ops_per_s() / f64::from(spec.clients);
        let little = mean_ns(&writes) / 1e9 * per_client;
        let little_p50 = percentile_u32(&mut writes, 0.50) / 1e9 * per_client;
        report.notes.push(format!(
            "closed loop: mean write latency x ops_per_s / clients = {little:.3} (limit 1 +- 0.10; with the p50: {little_p50:.3})"
        ));
        valid &= (little - 1.0).abs() <= 0.10;
        if spec.clients == 16 {
            let per_op = 1e9 / traced.ops_per_s();
            assert!(
                self_ns <= 0.05 * per_op,
                "harness costs {self_ns:.0} ns of a {per_op:.0} ns operation"
            );
        }
    }
    if front_p99 > 0.0 {
        let mut all: Vec<u32> = write_lat.iter().chain(&read_lat).copied().collect();
        let harness_p99 = percentile_u32(&mut all, 0.99) / 1e3;
        report.notes.push(format!(
            "front door p99 {front_p99:.0} us vs harness p99 {harness_p99:.0} us ({:.1}% apart; the front door times ticket to release, the harness invoke to verified reply)",
            (front_p99 - harness_p99).abs() / harness_p99 * 100.0
        ));
    }
    if !valid {
        report
            .notes
            .push("per-layer section INVALID: the account does not add up".into());
    }
    report
        .values
        .insert("harness.per_layer_valid", f64::from(u8::from(valid)));

    let path = trace_path(spec);
    let (written, dropped) = run
        .tracer
        .write_jsonl(&path, &traced.recorders)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "{written} spans written to {} ({dropped} beyond the buffer are in the aggregates only)",
        path.display()
    ));
    Ok(())
}

/// `<target dir>/lcm_benchmark/trace-<workload>.jsonl`, inside the
/// checkout the command runs from.
fn trace_path(spec: &Spec) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("lcm_benchmark")
        .join(format!("trace-{}.jsonl", spec.name))
}

/// What only the rebooted deployment shows: the failovers counted over
/// the fault cycles and the delta log's load path — `open` on the
/// rebooted medium plus the engine handing shard 0 its sealed state
/// (checkpoint and deltas assembled into one bundle).
pub fn after_faults(run: &Run<'_>, stack: &Stack, failovers: u64, report: &mut Report) {
    report
        .values
        .insert("core.replica.failovers", failovers as f64);
    let load_ns = if run.spec.delta_log {
        let slot = format!("{}{SLOT_STATE_BLOB}", NamespacedStorage::shard_prefix(0));
        let t = Instant::now();
        let loaded = stack.lane_tap.load(&slot);
        let took = t.elapsed() + stack.engine_open;
        debug_assert!(
            matches!(loaded, Ok(Some(_))),
            "no sealed state under {slot}"
        );
        took.as_nanos() as f64
    } else {
        0.0
    };
    report.values.insert("storage.deltalog.load_ns", load_ns);
}

/// The bare-layer probes, then the runs beside the main stack: the
/// SGX-only baseline (`kv-put-*`), one lane of a front-end workload
/// stepped by hand, and the unreplicated control of a replicated one.
pub fn probes_and_side_runs(run: &Run<'_>, report: &mut Report) -> Result<(), String> {
    let (spec, pool) = (run.spec, run.traffic.pool.as_slice());
    let values = &mut report.values;
    probes::crypto(values);
    probes::kvs(spec, pool, values);
    probes::stability(spec, values);
    probes::context(spec, pool, values)?;
    probes::enclave(spec, pool, values)?;
    probes::plumbing(spec, pool, values)?;
    // Where the harness submits straight into the shard layer the span
    // around that call is the figure; elsewhere the bare layer is.
    if values["core.shard.submit_ns"] == 0.0 {
        values.insert("core.shard.submit_ns", probes::shard_submit_ns(spec, pool)?);
    }

    let slice = (run.window / 10).min(Duration::from_millis(500));
    let timed = |spec: &Spec, traffic: &Traffic, window: Duration| {
        let (mut stack, mut slots) = set_up(spec, run.seed, traffic, &run.tracer)?;
        stack.lane_tap.take_checkpoint_ordinals();
        let first_ordinal = stack.lane_tap.snapshot().state_stores;
        let source = Source::timed(&traffic.pool, 0, window);
        let w = drive(spec, &mut stack, &mut slots, source, &run.tracer, false)?;
        flush(&mut stack)?;
        let ordinals = stack.lane_tap.take_checkpoint_ordinals();
        Ok::<_, String>((w, first_ordinal, ordinals))
    };

    values.insert("kvs.baseline.sgx_relative_tput", 0.0);
    if spec.drive == Drive::SingleDriver {
        // Alternating slices, so a machine shift hits both sides.
        let mut sgx = probes::SgxBaseline::new(spec, pool)?;
        let (mut stack, mut slots) = set_up(spec, run.seed, &run.traffic, &run.tracer)?;
        let (mut lcm_ops, mut sgx_ops) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            let source = Source::timed(pool, 0, slice);
            let w = drive(spec, &mut stack, &mut slots, source, &run.tracer, false)?;
            lcm_ops.push(w.ops_per_s());
            sgx_ops.push(sgx.run_for(slice)?);
        }
        let (lcm_tput, sgx_tput) = (median_f64(&mut lcm_ops), median_f64(&mut sgx_ops));
        values.insert("kvs.baseline.sgx_relative_tput", ratio(lcm_tput, sgx_tput));
        report.notes.push(format!(
            "SGX-only store on the same operations: {sgx_tput:.0} ops/s (it reseals its whole state every batch)"
        ));
    }
    if spec.drive == Drive::Frontend {
        // One lane of the deployment on its own, stepped by hand: the
        // continuous front-end's drivers cannot be timed from outside.
        let lane = Spec {
            drive: Drive::SingleDriver,
            shards: 1,
            admission: false,
            records: spec.records_per_lane(),
            ..*spec
        };
        let traffic = Traffic::generate(&lane, run.seed);
        let (w, first_ordinal, ordinals) = timed(&lane, &traffic, slice * 4)?;
        let step_ns: f64 = w
            .steps
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_nanos() as f64)
            .sum();
        values.insert(
            "core.server.step_ns_per_op",
            ratio(step_ns, w.completed() as f64),
        );
        values.insert(
            "core.server.checkpoint_step_ms",
            probes::checkpoint_step_ms(&w.steps, first_ordinal, &ordinals),
        );
    }
    if spec.replicas > 1 {
        let solo = Spec {
            replicas: 1,
            ..*spec
        };
        let (w, ..) = timed(&solo, &run.traffic, slice * 2)?;
        report.notes.push(format!(
            "the same traffic unreplicated: {:.0} ops/s ({} replicas spend {:.0} ns/op in step)",
            w.ops_per_s(),
            spec.replicas,
            values["core.server.step_ns_per_op"]
        ));
    }
    // `stable_with` runs once per operation: its share of a step.
    let step = values["core.server.step_ns_per_op"];
    if step > 0.0 {
        report.notes.push(format!(
            "stable_with at n={} is {:.1}% of a server step per operation",
            spec.clients,
            values["core.stability.stable_with_ns"] / step * 100.0
        ));
    }
    Ok(())
}
