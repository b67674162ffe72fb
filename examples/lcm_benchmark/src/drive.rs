//! The closed-loop load generators. LCM clients are sequential by
//! protocol, so every client has at most one operation outstanding and
//! sends its next one only after the previous reply verified.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lcm::core::client::{LcmClient, ReadOutcome, WriteOutcome};
use lcm::core::codec::WireCodec;
use lcm::core::server::BatchServer;
use lcm::core::transport::FrontendPort;
use lcm::core::types::Completion;
use lcm::kvs::ops::KvResult;
use lcm::kvs::store::KvStore;

use crate::stats::process_cpu_us;
use crate::trace::{Layer, Recorder, Tracer};
use crate::workloads::{value_fits, Drive, PoolOp, Spec, Stack, KEY_LEN, VALUE_LEN};

/// A reply that does not arrive within this long fails the run (the
/// whole command must end within the driver's per-run limit).
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One protocol client and its in-flight operation.
pub struct ClientSlot {
    pub client: LcmClient,
    /// Connected for front-end workloads.
    port: Option<FrontendPort>,
    sent: Instant,
    /// Pool index of the in-flight operation.
    op: usize,
    pending: bool,
}

/// Creates the workload's clients; the first one records its history
/// for the consistency checkers.
pub fn make_clients(spec: &Spec, stack: &Stack) -> Vec<ClientSlot> {
    let now = Instant::now();
    spec.client_ids()
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            let mut client = stack.dep.client(id);
            client.set_recording(i == 0);
            ClientSlot {
                client,
                port: (spec.drive == Drive::Frontend).then(|| stack.dep.port(id)),
                sent: now,
                op: 0,
                pending: false,
            }
        })
        .collect()
}

/// Re-attaches the clients to a rebooted deployment (front-end ports
/// belong to the deployment they were connected to).
pub fn reconnect(spec: &Spec, stack: &Stack, slots: &mut [ClientSlot]) {
    if spec.drive == Drive::Frontend {
        for slot in slots {
            slot.port = Some(stack.dep.port(slot.client.id()));
        }
    }
}

/// Where a driver takes its operations from and when it stops.
pub struct Source<'a> {
    pool: &'a [PoolOp],
    next: usize,
    stride: usize,
    /// Operations still to send; `u64::MAX` for a timed window.
    remaining: u64,
    window: Option<Duration>,
}

impl<'a> Source<'a> {
    /// Cycles through `pool` for `window`, from operation `first` on.
    pub fn timed(pool: &'a [PoolOp], first: usize, window: Duration) -> Self {
        Source {
            pool,
            next: first,
            stride: 1,
            remaining: u64::MAX,
            window: Some(window),
        }
    }

    /// Sends the first `ops` operations of `pool` (cycling) and stops.
    pub fn counted(pool: &'a [PoolOp], ops: u64) -> Self {
        Source {
            pool,
            next: 0,
            stride: 1,
            remaining: ops,
            window: None,
        }
    }

    /// The share of this source generator thread `t` of `threads`
    /// works through: every `threads`-th operation.
    fn split(&self, t: usize, threads: usize) -> Source<'a> {
        let remaining = if self.remaining == u64::MAX {
            u64::MAX
        } else {
            let (n, k) = (self.remaining, threads as u64);
            n / k + u64::from((t as u64) < n % k)
        };
        Source {
            pool: self.pool,
            next: self.next + t,
            stride: threads,
            remaining,
            window: self.window,
        }
    }

    fn take(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        if self.remaining != u64::MAX {
            self.remaining -= 1;
        }
        let idx = self.next % self.pool.len();
        self.next += self.stride;
        Some(idx)
    }

    /// The next operation of the given kind (round-based workloads
    /// need a `Put` for each writer and a `Get` for each reader).
    fn take_kind(&mut self, is_read: bool) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        for _ in 0..self.pool.len() {
            let idx = self.next % self.pool.len();
            self.next += self.stride;
            if self.pool[idx].is_read == is_read {
                if self.remaining != u64::MAX {
                    self.remaining -= 1;
                }
                return Some(idx);
            }
        }
        None
    }
}

/// The timed window of one `drive` call.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    len: Duration,
}

impl Window {
    fn end(&self) -> Instant {
        self.start + self.len
    }
}

/// Per-thread accumulators, merged into a [`WindowResult`].
struct Tally {
    window: Option<Window>,
    /// Completions whose latency and lag are still left out: the first
    /// of every client, because the closed loop reaches its queue depth
    /// only once each client has been served (all of them send at once
    /// when a window starts, and the first in line waits for nobody).
    ramp: usize,
    /// Operations that verified inside the window, and their latencies.
    ops_in_window: u64,
    write_lat_ns: Vec<u32>,
    read_lat_ns: Vec<u32>,
    lag_ops: Vec<u32>,
    completed: u64,
    attempted: u64,
    failed: u64,
    redirects: u64,
    bytes_invoke: u64,
    bytes_reply: u64,
    user_bytes: u64,
    /// Time blocked waiting for a reply (front-end generators).
    blocked_ns: u64,
}

impl Tally {
    fn new(window: Option<Window>, clients: usize) -> Self {
        Tally {
            window,
            ramp: clients,
            ops_in_window: 0,
            write_lat_ns: Vec::new(),
            read_lat_ns: Vec::new(),
            lag_ops: Vec::new(),
            completed: 0,
            attempted: 0,
            failed: 0,
            redirects: 0,
            bytes_invoke: 0,
            bytes_reply: 0,
            user_bytes: 0,
            blocked_ns: 0,
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.ops_in_window += other.ops_in_window;
        self.write_lat_ns.extend(other.write_lat_ns);
        self.read_lat_ns.extend(other.read_lat_ns);
        self.lag_ops.extend(other.lag_ops);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.redirects += other.redirects;
        self.bytes_invoke += other.bytes_invoke;
        self.bytes_reply += other.bytes_reply;
        self.user_bytes += other.user_bytes;
        self.blocked_ns += other.blocked_ns;
    }

    /// Books a verified (or failed) completion of `op` at `t_done`,
    /// `latency` after it was invoked.
    fn complete(
        &mut self,
        op: &PoolOp,
        done: Option<&Completion>,
        t_done: Instant,
        latency: Duration,
    ) {
        let Some(done) = done.filter(|d| result_fits(op, &d.result)) else {
            self.failed += 1;
            return;
        };
        self.completed += 1;
        if !self.window.is_some_and(|w| t_done < w.end()) {
            return;
        }
        self.ops_in_window += 1;
        if self.ramp > 0 {
            self.ramp -= 1;
            return;
        }
        let ns = latency.as_nanos().min(u128::from(u32::MAX)) as u32;
        if op.is_read {
            self.read_lat_ns.push(ns);
        } else {
            self.write_lat_ns.push(ns);
            self.lag_ops.push(
                done.seq
                    .0
                    .saturating_sub(done.stable.0)
                    .min(u64::from(u32::MAX)) as u32,
            );
        }
    }

    fn sent(&mut self, op: &PoolOp, wire_len: usize) {
        self.attempted += 1;
        self.bytes_invoke += wire_len as u64;
        if !op.is_read {
            self.user_bytes += (KEY_LEN + VALUE_LEN) as u64;
        }
    }
}

/// Whether `result` is a correct answer to `op`: `Stored` for a `Put`,
/// and for a `Get` a present value that belongs under the key.
fn result_fits(op: &PoolOp, result: &[u8]) -> bool {
    match KvResult::from_bytes(result) {
        Ok(KvResult::Stored) => !op.is_read,
        Ok(KvResult::Value(Some(v))) => op.is_read && value_fits(op.rank, &v),
        _ => false,
    }
}

/// Process CPU time at the two ends of a timed window.
struct CpuMarks {
    window: Window,
    at_start: f64,
    at_end: Option<f64>,
}

impl CpuMarks {
    fn new(window: Window) -> Self {
        CpuMarks {
            window,
            at_start: process_cpu_us(),
            at_end: None,
        }
    }

    /// Samples CPU time once `now` has passed the end of the window.
    fn tick(&mut self, now: Instant) {
        if self.at_end.is_none() && now >= self.window.end() {
            self.at_end = Some(process_cpu_us());
        }
    }

    fn spent_us(&self) -> f64 {
        self.at_end.map_or(0.0, |end| end - self.at_start)
    }
}

/// What one driven window measured.
pub struct WindowResult {
    /// Length of the timed window (zero for a counted source).
    pub window: Duration,
    /// Operations that verified inside the timed window, their
    /// latencies, and the process CPU time the window took.
    pub ops_in_window: u64,
    pub write_lat_ns: Vec<u32>,
    pub read_lat_ns: Vec<u32>,
    pub cpu_us: f64,
    pub lag_ops: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub redirects: u64,
    pub bytes_invoke: u64,
    pub bytes_reply: u64,
    pub user_bytes: u64,
    pub blocked_ns: u64,
    /// `(start, end)` of every `step()` (single-driver only).
    pub steps: Vec<(Instant, Instant)>,
    /// Wall time of the whole call, drain included, summed over the
    /// generator threads.
    pub thread_wall: Duration,
    pub generator_threads: usize,
    pub recorders: Vec<Recorder>,
}

impl WindowResult {
    fn new(tally: Tally, cpu: Option<CpuMarks>, threads: usize) -> Self {
        WindowResult {
            window: tally.window.map_or(Duration::ZERO, |w| w.len),
            ops_in_window: tally.ops_in_window,
            write_lat_ns: tally.write_lat_ns,
            read_lat_ns: tally.read_lat_ns,
            cpu_us: cpu.map_or(0.0, |c| c.spent_us()),
            lag_ops: tally.lag_ops,
            attempted: tally.attempted,
            failed: tally.failed,
            redirects: tally.redirects,
            bytes_invoke: tally.bytes_invoke,
            bytes_reply: tally.bytes_reply,
            user_bytes: tally.user_bytes,
            blocked_ns: tally.blocked_ns,
            steps: Vec::new(),
            thread_wall: Duration::ZERO,
            generator_threads: threads,
            recorders: Vec::new(),
        }
    }

    /// Operations that verified, drain included.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Operations per second over the timed window.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_in_window as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

/// Drives `slots` against `stack` until `source` is exhausted or its
/// window ends, then waits for every outstanding reply.
pub fn drive(
    spec: &Spec,
    stack: &mut Stack,
    slots: &mut [ClientSlot],
    source: Source<'_>,
    tracer: &Tracer,
    tracing: bool,
) -> Result<WindowResult, String> {
    match spec.drive {
        Drive::SingleDriver => drive_single(stack, slots, source, tracer, tracing),
        Drive::QuorumRounds => drive_rounds(spec, stack, slots, source, tracer, tracing),
        Drive::Frontend => drive_frontend(slots, source, tracer, tracing),
    }
}

/// One generator thread's view of the run: where operations come
/// from, where measurements and spans go.
struct Gen<'a> {
    pool: &'a [PoolOp],
    tracer: &'a Tracer,
    tracing: bool,
    tally: Tally,
    rec: Recorder,
    /// Identifier shared by the spans of one operation.
    op_seq: u64,
}

impl<'a> Gen<'a> {
    fn new(
        source: &Source<'a>,
        window: Option<Window>,
        clients: usize,
        tracer: &'a Tracer,
        tracing: bool,
    ) -> Self {
        Gen {
            pool: source.pool,
            tracer,
            tracing,
            tally: Tally::new(window, clients),
            rec: Recorder::new(),
            op_seq: 0,
        }
    }

    fn span(&mut self, layer: Layer, start: Instant, end: Instant) {
        if self.tracing {
            let id = self.tracer.next_id();
            self.rec
                .record(self.tracer, layer, id, start, end, self.op_seq);
        }
    }

    /// Encodes `slot`'s next operation (`pool[idx]`) through the write
    /// path; latency counts from `t_start`.
    fn invoke(
        &mut self,
        slot: &mut ClientSlot,
        idx: usize,
        t_start: Instant,
    ) -> Result<(Vec<u8>, Instant), String> {
        let op = &self.pool[idx];
        let wire = slot
            .client
            .invoke_for::<KvStore>(&op.bytes)
            .map_err(|e| format!("invoke by {}: {e}", slot.client.id()))?;
        self.op_seq += 1;
        let t_invoked = if self.tracing {
            Instant::now()
        } else {
            t_start
        };
        self.span(Layer::ClientInvoke, t_start, t_invoked);
        self.tally.sent(op, wire.len());
        slot.sent = t_start;
        slot.op = idx;
        slot.pending = true;
        Ok((wire, t_invoked))
    }

    /// Verifies the reply to `slot`'s in-flight write-path operation.
    fn complete(
        &mut self,
        slot: &mut ClientSlot,
        wire: &[u8],
        t_prev: Instant,
    ) -> Result<Instant, String> {
        let outcome = slot.client.handle_reply_on(wire);
        let t_done = Instant::now();
        self.span(Layer::ClientComplete, t_prev, t_done);
        self.tally.bytes_reply += wire.len() as u64;
        slot.pending = false;
        let op = &self.pool[slot.op];
        match outcome {
            Ok((_, WriteOutcome::Done(done))) => {
                self.tally
                    .complete(op, Some(&done), t_done, t_done.duration_since(slot.sent));
            }
            Ok((_, WriteOutcome::Redirected { .. })) => {
                self.tally.redirects += 1;
                self.tally.failed += 1;
            }
            Err(e) => return Err(format!("reply to {} rejected: {e}", slot.client.id())),
        }
        Ok(t_done)
    }
}

impl Gen<'_> {
    /// Invokes `slot`'s next operation and submits it straight into
    /// the shard layer; returns when the submit returned.
    fn submit(
        &mut self,
        server: &mut dyn BatchServer,
        slot: &mut ClientSlot,
        idx: usize,
        t_start: Instant,
    ) -> Result<Instant, String> {
        let (wire, t_invoked) = self.invoke(slot, idx, t_start)?;
        server.submit(wire);
        if !self.tracing {
            return Ok(t_invoked);
        }
        let t_submitted = Instant::now();
        self.span(Layer::ShardSubmit, t_invoked, t_submitted);
        Ok(t_submitted)
    }

    /// One `step()` of the server, as a span the storage taps on the
    /// server threads parent theirs to.
    fn step(
        &mut self,
        server: &mut dyn BatchServer,
        steps: &mut Vec<(Instant, Instant)>,
    ) -> Result<(lcm::core::server::Replies, Instant), String> {
        let step_id = self.tracer.next_id();
        if self.tracing {
            self.tracer.set_enclosing_step(Some(step_id));
        }
        let t0 = Instant::now();
        let replies = server.step();
        let t1 = Instant::now();
        if self.tracing {
            self.tracer.set_enclosing_step(None);
            self.rec
                .record(self.tracer, Layer::ServerStep, step_id, t0, t1, 0);
        }
        steps.push((t0, t1));
        Ok((replies.map_err(|e| format!("step: {e}"))?, t1))
    }
}

fn slot_index(slots: &[ClientSlot], id: lcm::core::types::ClientId) -> Result<usize, String> {
    // Client ids are 1..=n in slot order: O(1), no search per reply.
    let i = (id.0 as usize).wrapping_sub(1);
    if i < slots.len() {
        Ok(i)
    } else {
        Err(format!("reply for unknown {id}"))
    }
}

fn drive_single(
    stack: &mut Stack,
    slots: &mut [ClientSlot],
    mut source: Source<'_>,
    tracer: &Tracer,
    tracing: bool,
) -> Result<WindowResult, String> {
    let server: &mut dyn BatchServer = stack.dep.frontend_mut().server_mut();
    let start = Instant::now();
    let window = source.window.map(|len| Window { start, len });
    let deadline = window.map(|w| w.end());
    let mut cpu = window.map(CpuMarks::new);
    let mut g = Gen::new(&source, window, slots.len(), tracer, tracing);
    let mut steps = Vec::new();
    let mut outstanding = 0usize;
    let mut window_over = false;

    for slot in slots.iter_mut() {
        let Some(idx) = source.take() else { break };
        g.submit(server, slot, idx, Instant::now())?;
        outstanding += 1;
    }
    while outstanding > 0 {
        let (replies, mut t_prev) = g.step(server, &mut steps)?;
        for (id, wire) in replies {
            let i = slot_index(slots, id)?;
            let slot = &mut slots[i];
            let t_done = g.complete(slot, &wire, t_prev)?;
            outstanding -= 1;
            window_over |= deadline.is_some_and(|d| t_done >= d);
            t_prev = t_done;
            if !window_over {
                if let Some(idx) = source.take() {
                    t_prev = g.submit(server, slot, idx, t_done)?;
                    outstanding += 1;
                }
            }
        }
        if let Some(cpu) = cpu.as_mut() {
            cpu.tick(t_prev);
        }
    }
    let mut out = WindowResult::new(g.tally, cpu, 1);
    out.steps = steps;
    out.thread_wall = start.elapsed();
    out.recorders = vec![g.rec];
    Ok(out)
}

/// Rounds: the clients whose index has the round's parity `Put`
/// through the quorum (one batch), then the others each issue a
/// verified read pinned round-robin over the group's members. Roles
/// swap every round, so every client keeps acknowledging and the
/// majority-stable watermark keeps moving.
fn drive_rounds(
    spec: &Spec,
    stack: &mut Stack,
    slots: &mut [ClientSlot],
    mut source: Source<'_>,
    tracer: &Tracer,
    tracing: bool,
) -> Result<WindowResult, String> {
    let read_port = stack
        .dep
        .read_port()
        .ok_or("deployment exposes no read port")?;
    let server: &mut dyn BatchServer = stack.dep.frontend_mut().server_mut();
    let start = Instant::now();
    let window = source.window.map(|len| Window { start, len });
    let deadline = window.map(|w| w.end());
    let mut cpu = window.map(CpuMarks::new);
    let mut g = Gen::new(&source, window, slots.len(), tracer, tracing);
    let mut steps = Vec::new();
    let mut next_replica = 0u32;
    let mut round = 0usize;
    let mut end = start;
    loop {
        if deadline.is_some_and(|d| end >= d) {
            break;
        }
        let mut outstanding = 0usize;
        for (i, slot) in slots.iter_mut().enumerate() {
            if (i + round) % 2 != 0 {
                continue;
            }
            let Some(idx) = source.take_kind(false) else {
                break;
            };
            g.submit(server, slot, idx, Instant::now())?;
            outstanding += 1;
        }
        let wrote = outstanding > 0;
        while outstanding > 0 {
            let (replies, mut t_prev) = g.step(server, &mut steps)?;
            for (id, wire) in replies {
                let i = slot_index(slots, id)?;
                t_prev = g.complete(&mut slots[i], &wire, t_prev)?;
                outstanding -= 1;
            }
        }
        let mut read_any = false;
        for (i, slot) in slots.iter_mut().enumerate() {
            if (i + round) % 2 == 0 {
                continue;
            }
            let Some(idx) = source.take_kind(true) else {
                break;
            };
            read_any = true;
            let op = &g.pool[idx];
            let replica = next_replica % spec.replicas;
            next_replica += 1;
            let t_start = Instant::now();
            let wire = slot
                .client
                .read_for::<KvStore>(&op.bytes, replica)
                .map_err(|e| format!("read_for: {e}"))?;
            g.op_seq += 1;
            let t_invoked = Instant::now();
            g.span(Layer::ClientInvoke, t_start, t_invoked);
            g.tally.sent(op, wire.len());
            let reply = read_port
                .serve_read(wire)
                .map_err(|e| format!("serve_read: {e}"))?;
            let t_served = Instant::now();
            g.span(Layer::ReadServe, t_invoked, t_served);
            let outcome = slot
                .client
                .handle_read_reply(&reply)
                .map_err(|e| format!("read reply to {} rejected: {e}", slot.client.id()))?;
            let t_done = Instant::now();
            g.span(Layer::ClientComplete, t_served, t_done);
            g.tally.bytes_reply += reply.len() as u64;
            match outcome {
                ReadOutcome::Fresh(done) => {
                    g.tally
                        .complete(op, Some(&done), t_done, t_done.duration_since(t_start));
                }
                // Replication is synchronous and no slice moves here,
                // so either outcome is a failed operation.
                ReadOutcome::Behind | ReadOutcome::Moved => g.tally.failed += 1,
            }
        }
        if !wrote && !read_any {
            break; // the source is exhausted
        }
        round += 1;
        end = Instant::now();
        if let Some(cpu) = cpu.as_mut() {
            cpu.tick(end);
        }
    }
    let mut out = WindowResult::new(g.tally, cpu, 1);
    out.steps = steps;
    out.thread_wall = start.elapsed();
    out.recorders = vec![g.rec];
    Ok(out)
}

/// Clients multiplexed over the generator threads, each thread polling
/// its clients' ports and sending a client's next operation the moment
/// its reply verified.
fn drive_frontend(
    slots: &mut [ClientSlot],
    source: Source<'_>,
    tracer: &Tracer,
    tracing: bool,
) -> Result<WindowResult, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(slots.len()).max(1);
    let per_thread = slots.len().div_ceil(threads);
    let stop = AtomicBool::new(false);

    let start = Instant::now();
    let window = source.window.map(|len| Window { start, len });
    let (results, cpu) = std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks_mut(per_thread)
            .enumerate()
            .map(|(t, chunk)| {
                let share = source.split(t, threads);
                let stop = &stop;
                scope.spawn(move || generator(chunk, share, window, tracer, tracing, stop))
            })
            .collect();
        // The coordinator only samples CPU time at the two ends of
        // the window and ends it.
        let cpu = window.map(|w| {
            let mut cpu = CpuMarks::new(w);
            std::thread::sleep(w.end().saturating_duration_since(Instant::now()));
            cpu.tick(Instant::now());
            stop.store(true, Ordering::SeqCst);
            cpu
        });
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (results, cpu)
    });

    let mut tally = Tally::new(window, 0);
    let mut recorders = Vec::new();
    let mut thread_wall = Duration::ZERO;
    for joined in results {
        let (t, rec, wall) = joined.map_err(|_| "generator thread panicked".to_string())??;
        tally.absorb(t);
        recorders.push(rec);
        thread_wall += wall;
    }
    let mut out = WindowResult::new(tally, cpu, threads);
    out.thread_wall = thread_wall;
    out.recorders = recorders;
    Ok(out)
}

fn generator(
    slots: &mut [ClientSlot],
    mut source: Source<'_>,
    window: Option<Window>,
    tracer: &Tracer,
    tracing: bool,
    stop: &AtomicBool,
) -> Result<(Tally, Recorder, Duration), String> {
    let started = Instant::now();
    /// How long to block on the oldest outstanding client's port when
    /// a sweep over every port found nothing.
    const NAP: Duration = Duration::from_micros(200);
    let mut g = Gen::new(&source, window, slots.len(), tracer, tracing);
    // Slot indices in send order; the front is the reply most likely
    // to arrive next.
    let mut order: VecDeque<usize> = VecDeque::with_capacity(slots.len());

    let send = |g: &mut Gen<'_>, slot: &mut ClientSlot, idx: usize, t: Instant| {
        let (wire, t_invoked) = g.invoke(slot, idx, t)?;
        let port = slot.port.as_ref().ok_or("client has no front-end port")?;
        if let Err(refused) = port.try_send(wire) {
            // Refused by admission: a failed operation. Fall back to
            // the blocking send so the closed loop keeps going.
            g.tally.failed += 1;
            port.send(refused.wire);
        }
        if g.tracing {
            g.span(Layer::TransportSend, t_invoked, Instant::now());
        }
        Ok::<(), String>(())
    };

    for (i, slot) in slots.iter_mut().enumerate() {
        let Some(idx) = source.take() else { break };
        send(&mut g, slot, idx, Instant::now())?;
        order.push_back(i);
    }
    // Verifies `reply` for `slots[i]` and, unless the window is over,
    // sends that client's next operation.
    let mut advance = |g: &mut Gen<'_>,
                       order: &mut VecDeque<usize>,
                       slot: &mut ClientSlot,
                       i: usize,
                       reply: &[u8],
                       t_prev: Instant|
     -> Result<(), String> {
        let t_done = g.complete(slot, reply, t_prev)?;
        if !stop.load(Ordering::Relaxed) {
            if let Some(idx) = source.take() {
                send(g, slot, idx, t_done)?;
                order.push_back(i);
            }
        }
        Ok(())
    };
    let mut last_progress = Instant::now();
    while !order.is_empty() {
        let mut progressed = false;
        for (i, slot) in slots.iter_mut().enumerate() {
            if !slot.pending {
                continue;
            }
            let Some(reply) = slot.port.as_ref().and_then(FrontendPort::try_recv) else {
                continue;
            };
            progressed = true;
            let t_prev = if g.tracing {
                Instant::now()
            } else {
                last_progress
            };
            advance(&mut g, &mut order, slot, i, &reply, t_prev)?;
        }
        while order.front().is_some_and(|&i| !slots[i].pending) {
            order.pop_front();
        }
        if progressed {
            last_progress = Instant::now();
            continue;
        }
        if last_progress.elapsed() > REPLY_TIMEOUT {
            return Err(format!(
                "{} operations got no reply within {REPLY_TIMEOUT:?}",
                order.len()
            ));
        }
        // Nothing ready: block where the next reply is most likely.
        if let Some(&i) = order.front() {
            let slot = &mut slots[i];
            let t0 = Instant::now();
            let reply = slot.port.as_ref().and_then(|p| p.recv_timeout(NAP));
            let t1 = Instant::now();
            g.tally.blocked_ns += t1.duration_since(t0).as_nanos() as u64;
            if let Some(reply) = reply {
                last_progress = t1;
                advance(&mut g, &mut order, slot, i, &reply, t1)?;
            }
        }
    }
    Ok((g.tally, g.rec, started.elapsed()))
}
