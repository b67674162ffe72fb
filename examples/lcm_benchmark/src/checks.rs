//! What must hold for the numbers to count: the sampled client's
//! history passes the consistency checkers, every acknowledged write
//! survives the fault cycles, and a replayed wire and a rolled-back
//! medium are each reported as a `Violation`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm::core::codec::WireCodec;
use lcm::core::server::BatchServer;
use lcm::core::verify::{check_client_view, check_stable_prefix};
use lcm::core::LcmError;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{MemoryStorage, StableStorage};

use crate::drive::{drive, reconnect, ClientSlot, Source, WindowResult};
use crate::trace::Tracer;
use crate::workloads::{build_stack, key_of, rank_of, Medium, PoolOp, Spec, Stack};

/// Keys of the sampled client read back after the fault cycles.
const DURABILITY_SAMPLE: usize = 1_000;

/// The sampled client's view must be self-consistent and its stable
/// prefix common (`lcm::core::verify`).
pub fn check_history(slots: &[ClientSlot]) -> Result<usize, String> {
    let records = slots[0].client.records();
    check_client_view(records).map_err(|e| format!("sampled client's view: {e}"))?;
    check_stable_prefix(&[records]).map_err(|e| format!("sampled client's stable prefix: {e}"))?;
    Ok(records.len())
}

/// One fault cycle: power-fail every lane and boot a rebuilt
/// deployment from the medium's bytes — or, on a replicated workload,
/// kill the group's leader — then time until the first verified `Put`.
/// Traffic is quiesced and flushed first, so nothing acknowledged may
/// be lost.
pub fn fault_cycle(
    spec: &Spec,
    seed: u64,
    stack: Stack,
    slots: &mut [ClientSlot],
    first_put: &[PoolOp],
    tracer: &Arc<Tracer>,
) -> Result<(Stack, Duration, WindowResult), String> {
    let mut stack = stack;
    stack
        .dep
        .frontend_mut()
        .flush_persists()
        .map_err(|e| format!("flush before fault: {e}"))?;
    let t0 = Instant::now();
    let killed_leader = if spec.replicas > 1 {
        let leader = stack.dep.frontend().group_leader(0);
        stack
            .dep
            .frontend_mut()
            .kill_member(0, leader, false)
            .map_err(|e| format!("kill leader: {e}"))?;
        Some(leader)
    } else {
        for shard in 0..spec.shards {
            stack
                .dep
                .frontend_mut()
                .kill_member(shard, 0, true)
                .map_err(|e| format!("power-fail shard {shard}: {e}"))?;
        }
        let Stack { dep, medium, .. } = stack;
        drop(dep);
        stack = build_stack(spec, seed, medium, tracer).map_err(|e| format!("reboot: {e}"))?;
        reconnect(spec, &stack, slots);
        None
    };
    let put = drive(
        spec,
        &mut stack,
        slots,
        Source::counted(first_put, 1),
        tracer,
        false,
    )?;
    let recovery = t0.elapsed();
    if put.failed != 0 || put.attempted != 1 {
        return Err("the first Put after the fault did not verify".into());
    }
    if let Some(leader) = killed_leader {
        if stack.dep.frontend().group_leader(0) == leader {
            return Err("killing the leader promoted nobody".into());
        }
        // Bring the group back to full strength for the next cycle.
        stack
            .dep
            .frontend_mut()
            .reboot_member(0, leader)
            .map_err(|e| format!("reboot member {leader}: {e}"))?;
    }
    Ok((stack, recovery, put))
}

/// Every key the sampled client got a `Put` acknowledged for must
/// still be readable (through the protocol, by every client's own
/// verified path) with a value that belongs under it.
pub fn check_durability(
    spec: &Spec,
    stack: &mut Stack,
    slots: &mut [ClientSlot],
    tracer: &Tracer,
) -> Result<WindowResult, String> {
    let ranks: BTreeSet<u64> = slots[0]
        .client
        .records()
        .iter()
        .filter_map(|r| match KvOp::from_bytes(&r.op) {
            Ok(KvOp::Put(key, _)) => rank_of(&key),
            _ => None,
        })
        .collect();
    let stride = ranks.len().div_ceil(DURABILITY_SAMPLE).max(1);
    let gets: Vec<PoolOp> = ranks
        .into_iter()
        .step_by(stride)
        .map(|rank| PoolOp {
            bytes: KvOp::Get(key_of(rank)).to_bytes(),
            rank,
            is_read: true,
        })
        .collect();
    if gets.is_empty() {
        return Err("the sampled client acknowledged no Put".into());
    }
    let n = gets.len() as u64;
    let read = drive(spec, stack, slots, Source::counted(&gets, n), tracer, false)?;
    if read.failed != 0 || read.attempted != n {
        return Err(format!(
            "{} of {n} acknowledged writes unreadable after the fault cycles",
            read.failed
        ));
    }
    Ok(read)
}

/// Hands `wire` to the deployment as the host would and pumps it; the
/// error, if any, is what the lane reported.
fn deliver(stack: &mut Stack, wire: Vec<u8>) -> Result<(), LcmError> {
    stack.dep.frontend().submit_shared(wire);
    stack.dep.process_all().map(|_| ())
}

fn expect_violation(what: &str, outcome: Result<(), LcmError>) -> Result<String, String> {
    match outcome {
        Err(LcmError::Violation(v)) => Ok(format!("{what}: reported as Violation ({v})")),
        Err(other) => Err(format!("{what}: failed with {other}, not a Violation")),
        Ok(()) => Err(format!("{what}: went undetected")),
    }
}

/// Serves one replayed wire and one stale image of the whole medium,
/// and requires each to be reported as a `Violation`. Consumes the
/// stack: the enclaves that detect the attacks halt.
pub fn check_detection(
    spec: &Spec,
    seed: u64,
    mut stack: Stack,
    slots: &mut [ClientSlot],
    put: &PoolOp,
    tracer: &Arc<Tracer>,
) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();
    stack
        .dep
        .frontend_mut()
        .flush_persists()
        .map_err(|e| format!("flush before detection checks: {e}"))?;
    // The image a rollback serves later: everything on the device now.
    let image = stack.medium.device.image();

    // Three acknowledged Puts of one client on one key (one shard),
    // keeping the first wire. A client without a connected port gets
    // its replies back from the pump.
    let victim = &mut slots[1];
    let id = victim.client.id();
    stack.dep.frontend().disconnect(id);
    let mut first_wire = None;
    for _ in 0..3 {
        let wire = victim
            .client
            .invoke_for::<KvStore>(&put.bytes)
            .map_err(|e| format!("victim invoke: {e}"))?;
        first_wire.get_or_insert_with(|| wire.clone());
        stack.dep.frontend().submit_shared(wire);
        let replies = stack
            .dep
            .process_all()
            .map_err(|e| format!("victim op: {e}"))?;
        let reply = replies
            .iter()
            .find(|(to, _)| *to == id)
            .ok_or("victim got no reply")?;
        victim
            .client
            .handle_reply_on(&reply.1)
            .map_err(|e| format!("victim reply: {e}"))?;
    }
    stack
        .dep
        .frontend_mut()
        .flush_persists()
        .map_err(|e| format!("flush after victim ops: {e}"))?;

    // Replay: the first wire again, verbatim, two operations later.
    let replayed = deliver(&mut stack, first_wire.expect("three wires were sent"));
    notes.push(expect_violation("replayed wire", replayed)?);

    // Rollback: reboot the deployment from the stale image, then let
    // the client whose last three operations it lacks invoke again.
    drop(stack);
    let stale = Arc::new(MemoryStorage::new());
    for (slot, blob) in &image {
        stale
            .store(slot, blob)
            .map_err(|e| format!("restore image: {e}"))?;
    }
    let mut rolled_back = build_stack(spec, seed, Medium::over(stale, spec, tracer), tracer)
        .map_err(|e| format!("boot from the stale image: {e}"))?;
    let wire = slots[1]
        .client
        .invoke_for::<KvStore>(&put.bytes)
        .map_err(|e| format!("victim invoke after rollback: {e}"))?;
    let outcome = deliver(&mut rolled_back, wire);
    notes.push(expect_violation("stale sealed state (rollback)", outcome)?);
    Ok(notes)
}
