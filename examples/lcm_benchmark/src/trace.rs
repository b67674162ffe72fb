//! In-memory span recorder for the traced run.
//!
//! Spans wrap calls *from the harness* into `pub` functions of the
//! program (and the bench-owned storage taps); nothing inside the
//! program is instrumented. Every recorder keeps a preallocated raw
//! buffer (the first [`SPAN_CAP`] spans, written to the trace file at
//! exit) and per-layer aggregates that cover *all* spans, so the
//! per-layer numbers never depend on the buffer cap.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept per recorder for the trace file.
const SPAN_CAP: usize = 1 << 16;

/// Where a span was taken. One variant per harness call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `LcmClient::invoke_for` / `read_for`.
    ClientInvoke,
    /// `LcmClient::handle_reply_on` / `handle_read_reply`.
    ClientComplete,
    /// `FrontendPort::try_send` (front-end workloads).
    TransportSend,
    /// `ShardedServer::submit` (single-driver workloads).
    ShardSubmit,
    /// `ShardedServer::step`.
    ServerStep,
    /// `ReadPort::serve_read`.
    ReadServe,
    /// `StableStorage::store` as the lanes see it (above the delta log).
    LaneStore,
    /// `StableStorage::load` as the lanes see it.
    LaneLoad,
    /// `StableStorage::store` on the device (below the delta log).
    DeviceStore,
    /// `StableStorage::load` on the device.
    DeviceLoad,
}

pub const LAYERS: usize = 10;

impl Layer {
    pub const fn name(self) -> &'static str {
        match self {
            Layer::ClientInvoke => "core.client.invoke",
            Layer::ClientComplete => "core.client.complete",
            Layer::TransportSend => "core.transport.send",
            Layer::ShardSubmit => "core.shard.submit",
            Layer::ServerStep => "core.server.step",
            Layer::ReadServe => "core.server.serve_read",
            Layer::LaneStore => "storage.lane.store",
            Layer::LaneLoad => "storage.lane.load",
            Layer::DeviceStore => "storage.device.store",
            Layer::DeviceLoad => "storage.device.load",
        }
    }
}

/// A span's identity as its children see it.
#[derive(Debug, Clone, Copy)]
pub struct Parent {
    pub id: u32,
    pub layer: Layer,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    id: u32,
    parent: u32,
    op: u64,
}

/// Per-layer totals over every span recorded, raw buffer or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by direct children (so `total - child` is self time).
    pub child_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One thread's span sink.
pub struct Recorder {
    spans: Vec<Span>,
    dropped: u64,
    agg: [Agg; LAYERS],
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
            agg: [Agg::default(); LAYERS],
        }
    }

    /// Records a closed top-level span of a harness thread. `id` comes
    /// from [`Tracer::next_id`] so a parent can hand it to children
    /// before it closes.
    pub fn record(
        &mut self,
        tracer: &Tracer,
        layer: Layer,
        id: u32,
        start: Instant,
        end: Instant,
        op: u64,
    ) {
        self.add(layer, id, tracer.ns(start), tracer.ns(end), None, op);
    }

    fn add(
        &mut self,
        layer: Layer,
        id: u32,
        start_ns: u64,
        end_ns: u64,
        parent: Option<Parent>,
        op: u64,
    ) {
        let dur = end_ns.saturating_sub(start_ns);
        let agg = &mut self.agg[layer as usize];
        agg.count += 1;
        agg.total_ns += dur;
        if let Some(p) = parent {
            self.agg[p.layer as usize].child_ns += dur;
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns,
                id,
                parent: parent.map_or(0, |p| p.id),
                op,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Shared tracing state: the clock origin, span ids, the span server
/// threads parent their storage spans to, and the sink those threads
/// record into.
pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    /// The harness span (a `step`) enclosing whatever server threads do
    /// right now; 0 when none is open.
    enclosing: AtomicU32,
    server_side: Mutex<Recorder>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            enclosing: AtomicU32::new(0),
            server_side: Mutex::new(Recorder::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens (`Some`) or closes (`None`) the step span server threads
    /// parent to.
    pub fn set_enclosing_step(&self, id: Option<u32>) {
        self.enclosing.store(id.unwrap_or(0), Ordering::SeqCst);
    }

    pub fn enclosing_step(&self) -> Option<Parent> {
        match self.enclosing.load(Ordering::SeqCst) {
            0 => None,
            id => Some(Parent {
                id,
                layer: Layer::ServerStep,
            }),
        }
    }

    /// Records a span taken on a server thread (the storage taps).
    pub fn record_server_side(
        &self,
        layer: Layer,
        id: u32,
        start: Instant,
        end: Instant,
        parent: Option<Parent>,
    ) {
        let mut rec = self.server_side.lock().unwrap_or_else(|e| e.into_inner());
        rec.add(layer, id, self.ns(start), self.ns(end), parent, 0);
    }

    /// Sums the per-layer aggregates of the harness-thread recorders
    /// and the server-side sink.
    pub fn aggregate(&self, recorders: &[Recorder]) -> [Agg; LAYERS] {
        let server = self.server_side.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = [Agg::default(); LAYERS];
        for rec in recorders.iter().chain(std::iter::once(&*server)) {
            for (o, a) in out.iter_mut().zip(rec.agg.iter()) {
                o.count += a.count;
                o.total_ns += a.total_ns;
                o.child_ns += a.child_ns;
            }
        }
        out
    }

    /// Writes every buffered span as one JSON object per line and
    /// returns `(written, dropped)`.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        recorders: &[Recorder],
    ) -> std::io::Result<(u64, u64)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let server = self.server_side.lock().unwrap_or_else(|e| e.into_inner());
        let (mut written, mut dropped) = (0u64, 0u64);
        for rec in recorders.iter().chain(std::iter::once(&*server)) {
            dropped += rec.dropped;
            for s in &rec.spans {
                writeln!(
                    out,
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
                    s.layer.name(),
                    s.start_ns,
                    s.end_ns,
                    s.id,
                    s.parent,
                    s.op
                )?;
                written += 1;
            }
        }
        out.flush()?;
        Ok((written, dropped))
    }
}
