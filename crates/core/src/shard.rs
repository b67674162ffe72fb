//! Sharded multi-enclave execution: parallel stage 2 behind a
//! key-partitioned router.
//!
//! With asynchronous write moving persistence off the critical path,
//! the throughput ceiling is stage 2 itself — one enclave executing and
//! sealing every batch. [`ShardedServer`] removes that ceiling by
//! running **N independent lanes** ("shards" — each a boxed [`Lane`]:
//! a solo [`LcmServer`] or a [`crate::replica::ReplicaGroup`]), each
//! owning a disjoint slice of the functionality state and its own
//! V-map, behind a deterministic router. A single-enclave deployment
//! *is* the 1-lane case:
//!
//! ```text
//!                      ┌── ingress queue 0 ──▶ shard 0 (enclave + storage ns 0) ─┐
//!  clients ──▶ router ─┼── ingress queue 1 ──▶ shard 1 (enclave + storage ns 1) ─┼─▶ ordered replies
//!          slice table └── ingress queue … ──▶ shard …                           ┘   (per-client FIFO)
//! ```
//!
//! Each shard is a complete LCM instance with its own chain, V-map and
//! watermark, so detection holds per shard (`tests/sharding.rs`), and
//! each enclave checks every wire against its attested identity
//! (README, "Attested shard identity"). Where a wire goes, when a reply
//! may leave and how a slice moves are the host's decisions, in
//! `host.rs`; this module carries them out: the ingress, the lanes,
//! their locks and the drivers.
//!
//! ## Concurrent driving
//!
//! The ingress plane, the lanes, and the host's decisions live in a
//! shared thread-safe core, so the deployment is **not** bound to a
//! single driving thread: submission and lane driving need only
//! `&self`, and any number of driver threads may pump different lanes
//! at once (each lane is still stepped by at most one driver at a
//! time). Locks nest lane → host → admission, never the reverse. It is
//! driven in one of two ways:
//!
//! * **No drivers ⇒ the caller steps the server.** `submit` + `step` /
//!   `process_all` from one caller; each `step` runs one batch per lane
//!   with work, in parallel on this server's pool, routes what it
//!   released through the reply demux (`transport.rs`), and returns the
//!   replies of clients without a port. An ingress queue that fills
//!   with nobody else to drain it is relieved inline by the submitter.
//! * **Continuous drivers.** [`ShardedServer::with_drivers`] attaches
//!   driver threads to the same core: they execute whatever arrives,
//!   and a full ingress becomes submitter back-pressure instead.
//!
//! Continuous drivers park on one work signal between sweeps, for at
//! most as long as the nearest forming batch has left to linger. A
//! submission does not raise that signal for every wire. Each shard
//! counts its **backlog** — wires accepted and not yet answered or
//! written off, in its ingress or in the lane's queue. A wire wakes
//! the drivers only when it makes that count 1 (somebody must start
//! the lane's linger clock) or exactly the lane's batch limit (a batch
//! is ripe). The count is one signed atomic, raised by each submitter
//! once its wire is in the ingress and lowered by whoever answers or
//! writes wires off; each increment reads the value it made, so two
//! racing submitters cannot both miss the 1 (two reads of the ingress
//! length after their pushes could). A drive may answer a wire before
//! its submitter counted it, and the count then dips below zero for a
//! moment; a wire that brings it to 1 *or below* wakes the drivers, so
//! no wire waits for another submitter to count. Why that loses no
//! wire:
//!
//! * A driver parks only after a sweep that found every lane it could
//!   lock idle or forming; it waits for the nearest forming deadline.
//!   An idle lane's count then stands at zero or below (wires the
//!   sweep answered may not have counted themselves yet), and only
//!   submitters move it while the driver is parked. The first wire to
//!   land there next reads 1 or below and wakes the driver after its
//!   own push; the driver then finds the lane forming. A later wire
//!   reads more than 1 only while an earlier one is unanswered:
//!   executing (its driver sweeps again once it answered it), forming
//!   under a deadline, or in the ingress behind a wake not yet served.
//! * A lane that ripens passes through its batch limit, and that wire
//!   wakes the driver. The wake can come late — a submitter counts a
//!   moment after its push — but the batch never runs later than its
//!   deadline, which the parked driver waits for anyway. A spurious
//!   wake costs one sweep.
//! * The count goes down only in a drive or a purge. A driver that
//!   made progress sweeps again before it parks. The two callers that
//!   purge under a lane's lock — [`ShardedServer::with_shard`] and a
//!   whole deployment crash — wake the drivers on release whenever
//!   the lane still holds wires, so a wire that arrived meanwhile
//!   never waits for a driver's idle timeout. And a driver that finds
//!   a lane held by anyone else revisits it one linger later.
//!
//! Without drivers nobody is woken at all.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lcm_crypto::sha256::Digest;
use lcm_runtime::queue::{BoundedQueue, PushError, QueueStats};
use lcm_runtime::{CountedCondvar, WorkerPool};
use lcm_storage::{NamespacedStorage, StableStorage};
use lcm_tee::attestation::Quote;
use lcm_tee::world::TeeWorld;

use crate::admission::{AdmissionState, AdmitOutcome, RetryAfter};
use crate::functionality::Functionality;
pub use crate::host::plan_rebalance;
use crate::host::{Core, Handshake};
use crate::routing::SliceTable;
pub use crate::routing::{route_for, route_hash, shard_index};
use crate::server::{BatchServer, Lane, LcmServer, ReadPort, Replies};
use crate::transport::ReplyPlane;
use crate::types::ClientId;
use crate::wire::RouteHint;
use crate::{LcmError, Result};

/// Default bound on each shard's ingress queue. Submitting into a full
/// queue blocks (back-pressure); the default is generous enough for
/// every closed-loop test workload while still bounding host memory.
pub const DEFAULT_INGRESS_CAPACITY: usize = 1024;

/// The `nth` key (0-based) of the form `{prefix}{j}` (j = 0, 1, …)
/// whose route hash maps to `shard` of a `shards`-shard deployment —
/// the deterministic way callers address one specific shard:
/// scatter-gather scan pins, skewed benchmark workloads, per-shard
/// test keys. FNV-1a reaches every residue within a few candidates,
/// so the probe is short.
///
/// # Panics
///
/// Panics when `shard >= max(shards, 1)` (no key can route there).
pub fn nth_key_routing_to(shard: u32, shards: u32, prefix: &str, nth: u32) -> Vec<u8> {
    assert!(shard < shards.max(1), "shard {shard} of {shards}");
    let mut seen = 0;
    for j in 0..=u32::MAX {
        let key = format!("{prefix}{j}").into_bytes();
        if shard_index(route_hash(&key), shards) == shard {
            if seen == nth {
                return key;
            }
            seen += 1;
        }
    }
    unreachable!("FNV-1a reaches every residue infinitely often")
}

/// Per-shard activity counters ([`ShardedServer::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Which shard these counters describe.
    pub shard: u32,
    /// INVOKE messages processed by this shard's enclave.
    pub ops: u64,
    /// Seal-and-store cycles performed by this shard.
    pub batches: u64,
    /// Whether this shard's enclave has *produced* an attestation
    /// quote since the deployment (re)started. The host cannot observe
    /// whether the remote verifier accepted the quote — that verdict
    /// lives in the admin's
    /// [`crate::admin::DeploymentManifest`] — so this records
    /// attestation *activity* per member: a deployment with fewer
    /// attested rows than lanes was certainly never fully verified.
    pub attested: bool,
    /// Ingress-queue counters; `blocked_pushes` counts submissions
    /// that waited for room in the ingress.
    pub ingress: QueueStats,
    /// How many times the lane's execution blocked on its full
    /// persist-writer queue ([`Lane::backpressure_events`]) — the
    /// back-pressure of a pipelined lane whose storage falls behind.
    pub writer_waits: u64,
}

/// A ticketed wire waiting in a shard's ingress queue: `(ticket,
/// envelope client, admit time, wire)`.
type Ticketed = (u64, ClientId, Instant, Vec<u8>);

/// State owned by one shard and touched only under its lock.
struct LaneState {
    server: Box<dyn Lane>,
    /// Tickets (with their envelope clients) of wires already moved
    /// into the server's queue, in FIFO order — pairs each reply batch
    /// back to its tickets, and names what to write off when the shard
    /// crash-stops.
    inflight: VecDeque<(u64, ClientId)>,
    /// When the lane's oldest unexecuted wire was admitted — the clock
    /// behind the batch-forming linger gate of [`ShardCore::drive`].
    /// `None` when the lane was last seen drained.
    pending_since: Option<Instant>,
}

struct Shard {
    lane: Mutex<LaneState>,
    ingress: BoundedQueue<Ticketed>,
    /// Wires accepted for this shard and not yet answered or written
    /// off, in the ingress or in the lane's queue. Raised by
    /// `ShardCore::enqueue` once the wire is in the ingress, which
    /// reads it to decide whether the wire is worth waking the drivers
    /// for; lowered through `Shard::retire`. Signed: it dips below
    /// zero while a wire answered early is still uncounted (module
    /// docs, § Concurrent driving).
    backlog: AtomicIsize,
    /// The lane's batch limit, read once: it never changes.
    batch_limit: usize,
    /// The lane's `ops_processed` and `batches_processed`, mirrored
    /// whenever the lane is released (and by a step before it settles
    /// its replies), so [`ShardedServer::shard_stats`] reads them
    /// without waiting for a lane a driver holds.
    ops: AtomicU64,
    batches: AtomicU64,
    /// The lane's `backpressure_events`, mirrored with the two above.
    writer_waits: AtomicU64,
}

/// A held lane. Dropping it mirrors the lane's counters into its
/// [`Shard`] before the lock is released.
struct LaneGuard<'a> {
    shard: &'a Shard,
    state: MutexGuard<'a, LaneState>,
}

impl std::ops::Deref for LaneGuard<'_> {
    type Target = LaneState;
    fn deref(&self) -> &LaneState {
        &self.state
    }
}

impl std::ops::DerefMut for LaneGuard<'_> {
    fn deref_mut(&mut self) -> &mut LaneState {
        &mut self.state
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.shard.publish(&self.state);
    }
}

impl Shard {
    /// Takes the lane, waiting for whoever holds it.
    fn lock(&self) -> LaneGuard<'_> {
        let state = self.lane.lock().unwrap_or_else(|e| e.into_inner());
        LaneGuard { shard: self, state }
    }

    /// Takes the lane if nobody holds it.
    fn try_lock(&self) -> Option<LaneGuard<'_>> {
        let state = self.lane.try_lock().ok()?;
        Some(LaneGuard { shard: self, state })
    }

    /// Mirrors `lane`'s counters for lock-free readers.
    fn publish(&self, lane: &LaneState) {
        self.ops
            .store(lane.server.ops_processed(), Ordering::Relaxed);
        self.batches
            .store(lane.server.batches_processed(), Ordering::Relaxed);
        self.writer_waits
            .store(lane.server.backpressure_events(), Ordering::Relaxed);
    }

    /// Counts `n` of this shard's wires gone: answered, or written off.
    fn retire(&self, n: usize) {
        self.backlog.fetch_sub(n as isize, Ordering::SeqCst);
    }

    /// Empties the ingress without executing it, naming the tickets
    /// the caller must write off.
    fn drain_ingress(&self) -> Vec<(u64, ClientId)> {
        let pending = self.ingress.drain_pending().into_iter();
        let drained: Vec<_> = pending
            .map(|(ticket, client, ..)| (ticket, client))
            .collect();
        self.retire(drained.len());
        drained
    }

    /// Empties the lane's in-flight tickets and the ingress behind them
    /// without executing anything, naming the tickets the caller must
    /// write off (the lane crashed, so did the wires it held).
    fn purge(&self, lane: &mut LaneState) -> Vec<(u64, ClientId)> {
        let mut purged: Vec<_> = lane.inflight.drain(..).collect();
        self.retire(purged.len());
        purged.extend(self.drain_ingress());
        purged
    }
}

/// The shared, thread-safe core of a sharded deployment: the ingress
/// plane (per-shard bounded queues), the execution lanes, and the
/// host's decisions. `ShardedServer` owns it behind an `Arc`; its
/// driver threads, if it has any, and its client ports hold more.
/// Everything here needs only `&self`: any number of producer threads
/// may submit while any number of driver threads `drive` lanes; each
/// lane is stepped by at most one driver at a time.
pub(crate) struct ShardCore {
    shards: Vec<Shard>,
    /// The reply book, the routing history, the heat and the pending
    /// slice move, behind one lock (`host.rs`).
    host: Mutex<Core>,
    /// Notified whenever the book settles a ticket or an error is
    /// recorded — what [`ShardCore::wait_quiescent`] waits on. Like
    /// `work_cv`, a counted wait point: the waiter registers under the
    /// mutex it waits with (`host` here, `work` there), every notifier has
    /// changed that mutex's state before it reads the count, so a
    /// notify with nobody parked is skipped and none is lost
    /// ([`lcm_runtime::parked`]).
    settled_cv: CountedCondvar,
    /// Work-arrival signal for attached driver threads.
    work: Mutex<u64>,
    work_cv: CountedCondvar,
    /// Driver threads currently willing to drain the ingress. With
    /// none attached, a full ingress is relieved *inline* by the
    /// submitting thread (there is nobody else to drain it — blocking
    /// would deadlock the single driver); with drivers attached, a
    /// full ingress blocks the submitter instead (back-pressure).
    /// Doubles as the "is anybody listening" test of `enqueue`'s
    /// wake-up.
    active_drivers: AtomicUsize,
    /// The multi-tenant admission controller gating
    /// [`ShardCore::try_submit`]. Disabled (a transparent
    /// pass-through) until configured.
    pub(crate) admission: Arc<AdmissionState>,
}

impl ShardCore {
    fn new(servers: Vec<Box<dyn Lane>>, ingress_capacity: usize) -> Self {
        let host = Mutex::new(Core::new(servers.len() as u32));
        ShardCore {
            shards: servers
                .into_iter()
                .map(|server| Shard {
                    batch_limit: server.batch_limit(),
                    ops: AtomicU64::new(server.ops_processed()),
                    batches: AtomicU64::new(server.batches_processed()),
                    writer_waits: AtomicU64::new(server.backpressure_events()),
                    lane: Mutex::new(LaneState {
                        server,
                        inflight: VecDeque::new(),
                        pending_since: None,
                    }),
                    ingress: BoundedQueue::new(ingress_capacity),
                    backlog: AtomicIsize::new(0),
                })
                .collect(),
            host,
            settled_cv: CountedCondvar::new(),
            work: Mutex::new(0),
            work_cv: CountedCondvar::new(),
            active_drivers: AtomicUsize::new(0),
            admission: Arc::new(AdmissionState::new()),
        }
    }

    pub(crate) fn host(&self) -> MutexGuard<'_, Core> {
        self.host.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes driver threads parked in [`ShardCore::wait_work`] by
    /// advancing the work epoch. A submission raises it only when it
    /// starts or fills a lane's batch ([`ShardCore::enqueue`]); every
    /// other caller needs a parked driver at once: a submitter about to
    /// block on a full ingress, a replayed reply to route, a lane
    /// released with wires in it, a quiescence wait, a shutdown.
    pub(crate) fn notify_work(&self) {
        let mut epoch = self.work.lock().unwrap_or_else(|e| e.into_inner());
        *epoch += 1;
        drop(epoch);
        self.work_cv.notify_all();
    }

    /// Wakes the drivers if lane `idx` holds wires: called by a
    /// caller other than a driver once it released the lane, since a
    /// driver that found the lane held has not seen those wires.
    fn wake_if_backlogged(&self, idx: usize) {
        if self.active_drivers.load(Ordering::SeqCst) > 0
            && self.shards[idx].backlog.load(Ordering::SeqCst) > 0
        {
            self.notify_work();
        }
    }

    /// Tickets one wire under the caller's hold of the host, then
    /// pushes it into `shard`'s bounded ingress (the shared tail of
    /// every submission path; the caller has peeled the envelope
    /// exactly once). `dedup_seq` is the envelope sequence when the
    /// wire was admitted with retry dedup active; `credited` whether
    /// the ticket holds an admission credit (returned to its tenant at
    /// settlement).
    ///
    /// Attached drivers are woken only when the wire brings the
    /// shard's backlog to 1 (or below) — a driver must start the lane's
    /// linger clock — or to exactly its batch limit — a batch is ripe.
    /// Any other wire joins a batch a driver already knows is forming
    /// (module docs, § Concurrent driving).
    fn enqueue(
        &self,
        mut host: MutexGuard<'_, Core>,
        client: ClientId,
        shard: usize,
        dedup_seq: Option<u64>,
        credited: bool,
        wire: Vec<u8>,
    ) {
        let admitted = Instant::now();
        let ticket = host
            .book
            .issue(client, shard as u32, dedup_seq, credited, admitted);
        drop(host);
        let target = &self.shards[shard];
        let mut item = (ticket, client, admitted, wire);
        // The ingress is never closed while the server exists, so a
        // refused push means full.
        while let Err(PushError::Full(back)) = target.ingress.try_push(item) {
            item = back;
            if self.active_drivers.load(Ordering::SeqCst) > 0 {
                // Attached drivers drain the queue: block
                // with back-pressure instead of stealing their batch.
                self.notify_work();
                let _ = target.ingress.push(item);
                break;
            }
            // No other thread will drain the queue: execute one of
            // this shard's batches inline (back-pressure relief;
            // replies land in the book's out-buffer, failures defer).
            // If the lane is momentarily owned by someone else (a
            // caller stepping it, or a control-plane call), wait for
            // it to let go instead of spinning on try_push/try_lock.
            if self.drive(shard as u32, None) == DriveStatus::Busy {
                drop(target.lock());
            }
        }
        // Counted only once visible, so a wake is never for a wire a
        // driver cannot see yet. At most 1 rather than exactly: below
        // zero, wires already answered have yet to count themselves,
        // and this one must not wait for their submitters.
        let backlog = target.backlog.fetch_add(1, Ordering::SeqCst) + 1;
        // Without drivers there is nobody to wake: the caller steps
        // the lanes itself.
        if (backlog <= 1 || backlog == target.batch_limit as isize)
            && self.active_drivers.load(Ordering::SeqCst) > 0
        {
            self.notify_work();
        }
    }

    /// Routes and enqueues one encrypted INVOKE wire (multi-producer
    /// safe). Blocks for back-pressure when the target lane's ingress
    /// is full and drivers are attached; with no drivers attached the
    /// submitting thread relieves the lane inline instead.
    pub(crate) fn submit(&self, invoke_wire: Vec<u8>) {
        // Malformed wires (shorter than the envelope) still get
        // delivered — to shard 0 — so the enclave rejects them with a
        // detectable violation instead of the host silently dropping.
        let mut host = self.host();
        let (client, shard) = match RouteHint::peel(&invoke_wire) {
            Some((hint, _)) => (hint.client, host.route_write(hint.route, hint.epoch)),
            None => (ClientId(0), 0),
        };
        self.enqueue(host, client, shard, None, false, invoke_wire);
    }

    /// Admission-controlled submission: like [`ShardCore::submit`], but
    /// consults the multi-tenant admission controller first. A
    /// rejected wire comes back inside the typed [`RetryAfter`] (no
    /// clone, no silent drop).
    ///
    /// With admission disabled this is exactly `submit`. With it
    /// enabled, a retry of an operation whose reply was already
    /// released is answered from the book's reply cache
    /// ([`AdmitOutcome::ReplayedReply`] — the enclave never sees the
    /// duplicate, per-shard op counters do not move), a retry of an
    /// operation still in flight is coalesced
    /// ([`AdmitOutcome::DuplicateInFlight`]), and fresh work passes the
    /// tenant's token bucket and fair-queueing cap — or bounces with a
    /// typed [`RetryAfter`] carrying the wire back to the caller.
    ///
    /// The retry check, the admission decision and the ticket issue
    /// happen under one hold of the host, so two concurrent retries of
    /// one wire cannot both be enqueued; host dedup is best-effort all
    /// the same (a crash forgets it), and the enclave's own `(tc, hc)`
    /// replay handling (paper §4.6.1) remains the correctness
    /// backstop. Lock order is host → admission, never the reverse.
    pub(crate) fn try_submit(
        &self,
        invoke_wire: Vec<u8>,
    ) -> std::result::Result<AdmitOutcome, RetryAfter> {
        let hint = RouteHint::peel(&invoke_wire).filter(|_| self.admission.is_enabled());
        let Some((hint, _)) = hint else {
            // Admission is off, or the wire is malformed (no sequence
            // to key dedup on; delivered for the enclave to reject).
            self.submit(invoke_wire);
            return Ok(AdmitOutcome::Enqueued);
        };
        let client = hint.client;
        let mut host = self.host();
        let shard = host.route_write(hint.route, hint.epoch);
        if let Some(outcome) = host.book.answer_retry(client, shard as u32, hint.seq) {
            drop(host);
            if outcome == AdmitOutcome::ReplayedReply {
                self.admission.note_replayed(client);
                self.notify_work();
                self.settled_cv.notify_all();
            } else {
                self.admission.note_deduped(client);
            }
            return Ok(outcome);
        }
        let credited = match self.admission.admit(client) {
            Ok(credited) => credited,
            Err(mut rejection) => {
                rejection.wire = invoke_wire;
                return Err(rejection);
            }
        };
        self.enqueue(host, client, shard, Some(hint.seq), credited, invoke_wire);
        Ok(AdmitOutcome::Enqueued)
    }

    /// Books what a lane reports of its tickets in the reply book,
    /// and `error`, the failure that ended the lane's step, if any;
    /// then returns the settled tickets' credits to admission and wakes
    /// whoever waits for quiescence.
    fn settle(
        &self,
        tickets: impl Iterator<Item = ((u64, ClientId), Option<(ClientId, Vec<u8>)>)>,
        error: Option<LcmError>,
    ) {
        let mut host = self.host();
        if let Some(e) = error {
            host.book.deferred_error.get_or_insert(e);
        }
        let settled = host.book.settle(tickets, Instant::now());
        drop(host);
        self.admission.settle(&settled);
        self.settled_cv.notify_all();
    }

    /// Writes `purged` tickets off (their wires died with a crashed
    /// lane or a shed ingress) and releases whatever that unblocks.
    fn write_off(&self, purged: Vec<(u64, ClientId)>) {
        self.settle(purged.into_iter().map(|ticket| (ticket, None)), None);
    }

    /// One drive of lane `idx`: feed its ingress into the server,
    /// execute one batch, book the replies (or write the lane's
    /// in-flight tickets off on a crash-stop). A lane another driver
    /// is currently on is reported busy rather than waited on.
    ///
    /// With `gate = Some(linger)`, a lane holding *less than one
    /// batch* whose oldest wire has waited under `linger` is left to
    /// fill instead of being executed — free-running drivers would
    /// otherwise pounce on one-wire batches and squander the
    /// seal-and-store amortization the batch limit exists for. Only the
    /// linger deadline or a wire that fills the batch ends the wait: a
    /// driver that got `Waiting` parks on [`ShardCore::wait_work`]
    /// until the nearer of the two.
    pub(crate) fn drive(&self, idx: u32, gate: Option<Duration>) -> DriveStatus {
        let shard = &self.shards[idx as usize];
        let Some(mut lane) = shard.try_lock() else {
            // Another driver (or a control-plane operation) owns the
            // lane; let it make the progress.
            return DriveStatus::Busy;
        };
        let lane = &mut *lane;
        for (ticket, client, admitted, wire) in shard.ingress.drain_pending() {
            lane.pending_since.get_or_insert(admitted);
            lane.inflight.push_back((ticket, client));
            lane.server.submit(wire);
        }
        let work = lane.server.queued();
        if work == 0 {
            return DriveStatus::Idle;
        }
        let now = Instant::now();
        if let Some(linger) = gate {
            if work < shard.batch_limit {
                let oldest = *lane.pending_since.get_or_insert(now);
                let waited = now.saturating_duration_since(oldest);
                if waited < linger {
                    return DriveStatus::Waiting(linger - waited);
                }
            }
        }
        // Restart the linger clock for whatever this batch leaves
        // behind.
        lane.pending_since = (work > shard.batch_limit).then_some(now);
        let stepped = lane.server.step();
        // Counted before anyone can see a reply of this step.
        shard.publish(lane);
        match stepped {
            Ok(replies) => {
                // Replies are 1:1, in order, with the first
                // `replies.len()` queued wires — pair them back to the
                // tickets fed above. The reply's own client id
                // (reported by the enclave) is authoritative for
                // delivery. The book is updated while the lane is
                // still held so `crash`'s lane-by-lane clearing never
                // interleaves with a half-booked step.
                shard.retire(replies.len());
                let tickets = lane.inflight.drain(..replies.len());
                self.settle(tickets.zip(replies.into_iter().map(Some)), None);
                DriveStatus::Progress
            }
            Err(e) => {
                // The shard crash-stops (honest-server semantics):
                // every wire it had accepted is lost. Strike its
                // tickets from the book so the affected clients'
                // later replies are not held back forever — they
                // simply retry, getting fresh tickets.
                shard.retire(lane.inflight.len());
                let purged = lane.inflight.drain(..).map(|ticket| (ticket, None));
                self.settle(purged, Some(e));
                DriveStatus::Progress
            }
        }
    }

    /// Whether lane `idx` has ingress or queued work. A lane currently
    /// locked by a driver counts as busy work.
    fn lane_has_work(&self, idx: usize) -> bool {
        let shard = &self.shards[idx];
        if !shard.ingress.is_empty() {
            return true;
        }
        match shard.try_lock() {
            Some(lane) => lane.server.queued() > 0,
            None => true,
        }
    }

    /// Wires accepted but not yet executed (ingress + lane queues).
    pub(crate) fn queued(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.ingress.len() + s.lock().server.queued())
            .sum()
    }

    /// Number of independently drivable lanes (server shards).
    pub(crate) fn lanes(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Enqueues a wire to an *explicit* lane, ignoring the routing
    /// envelope (the host-power misdelivery hook).
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub(crate) fn submit_to_lane(&self, lane: u32, invoke_wire: Vec<u8>) {
        assert!(
            (lane as usize) < self.shards.len(),
            "submit_to_lane({lane}) on a {}-lane deployment",
            self.shards.len()
        );
        let client = RouteHint::peel(&invoke_wire).map_or(ClientId(0), |(hint, _)| hint.client);
        self.enqueue(self.host(), client, lane as usize, None, false, invoke_wire);
    }

    /// Blocks until every issued ticket has settled.
    pub(crate) fn wait_quiescent(&self) {
        let mut host = self.host();
        while host.book.unsettled() > 0 {
            host = self.settled_cv.wait(host);
        }
    }

    /// Parks the caller until the work epoch moves past `last_epoch`,
    /// at most `timeout`; returns the current epoch either way. A
    /// driver's only wait point: it passes the nearest linger deadline
    /// of its last sweep as `timeout`, so the wait ends when that batch
    /// is due or when a wire starts or fills a batch, whichever comes
    /// first. An epoch that moved since `last_epoch` was returned
    /// returns at once, so no wake-up between two waits is lost.
    pub(crate) fn wait_work(&self, last_epoch: u64, timeout: Duration) -> u64 {
        let mut epoch = self.work.lock().unwrap_or_else(|e| e.into_inner());
        if *epoch == last_epoch {
            epoch = self.work_cv.wait_timeout(epoch, timeout);
        }
        *epoch
    }

    /// Registers `n` driver threads as willing to drain the ingress
    /// (switches a full ingress from inline relief to submitter
    /// back-pressure).
    pub(crate) fn attach_drivers(&self, n: usize) {
        self.active_drivers.fetch_add(n, Ordering::SeqCst);
    }

    /// Deregisters `n` driver threads.
    pub(crate) fn detach_drivers(&self, n: usize) {
        self.active_drivers.fetch_sub(n, Ordering::SeqCst);
    }

    /// Drains every lane's ingress without executing it, writing the
    /// drained tickets off. Called by a shutting-down deployment after
    /// detaching its drivers: a producer blocked in back-pressure
    /// `push` would otherwise wait forever on a queue nobody will
    /// drain again.
    pub(crate) fn shed_ingress(&self) {
        self.write_off(self.shards.iter().flat_map(Shard::drain_ingress).collect());
    }
}

/// Outcome of one [`ShardCore::drive`] attempt on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DriveStatus {
    /// No work on this lane.
    Idle,
    /// Another driver (or a control-plane operation) currently owns
    /// the lane; it will make the progress.
    Busy,
    /// The lane holds less than one batch and its oldest wire has not
    /// lingered long enough — worth revisiting in roughly this long
    /// (batch forming; see [`crate::transport::BATCH_LINGER`]).
    Waiting(Duration),
    /// Work was done: wires fed, a batch executed, replies released,
    /// or tickets written off.
    Progress,
}

/// A key-partitioned fan-out server: N boxed [`Lane`]s driven
/// concurrently by an [`lcm_runtime::WorkerPool`], presented to
/// the rest of the stack as a single [`BatchServer`].
///
/// Construct over pre-built lanes with [`ShardedServer::new`], or use
/// [`build_sharded`] / [`build_replicated`] for the common
/// LCM-over-namespaced-storage layouts. The
/// [`crate::admin::AdminHandle`] and client libraries run unmodified
/// on top.
///
/// It is the one deployment object: its transport surface (client
/// ports, the reply demux, optional driver threads, see
/// [`ShardedServer::with_drivers`]) lives in `transport.rs`.
///
/// Control-plane operations (provision, admin, migration) fan out to
/// every shard on the calling thread; the data plane
/// ([`ShardedServer::step`]) executes one batch per non-empty shard in
/// parallel on the pool, and a boot recovers every lane at once on the
/// same pool (lowest-index lane's error first, see
/// [`BatchServer::boot`]).
pub struct ShardedServer {
    /// The shared ingress/execution/reply core; driver threads and
    /// client ports hold more `Arc`s to it.
    pub(crate) core: Arc<ShardCore>,
    /// The reply demux: client ports, the collection buffer and the
    /// transport counters, shared with the driver threads.
    pub(crate) replies: Arc<ReplyPlane>,
    /// Continuous driver threads (`None` without any); the pool's
    /// `Drop` joins them after this server's `Drop` signals shutdown.
    pub(crate) drivers: Option<WorkerPool>,
    pool: WorkerPool,
    /// The deployment's concurrent read surface. Lanes and their
    /// members are fixed at construction, so it is built once and
    /// handed out by clone.
    read_port: Arc<CoreReadPort>,
    /// Whether each shard produced an attestation quote since the
    /// deployment (re)started (cleared on `crash`). Surfaced through
    /// [`ShardStats::attested`] so operators can assert the *whole*
    /// deployment was attested.
    attested: Vec<bool>,
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("shards", &self.core.shards.len())
            .field(
                "drivers",
                &self.drivers.as_ref().map_or(0, WorkerPool::workers),
            )
            .field("queued", &self.core.queued())
            .finish()
    }
}

impl ShardedServer {
    /// Builds a sharded server over the given lanes (at least one)
    /// with the default ingress capacity and one worker thread per
    /// shard.
    pub fn new(servers: Vec<Box<dyn Lane>>) -> Self {
        Self::with_config(servers, DEFAULT_INGRESS_CAPACITY)
    }

    /// Builds a sharded server with an explicit per-shard ingress
    /// queue bound.
    pub fn with_config(servers: Vec<Box<dyn Lane>>, ingress_capacity: usize) -> Self {
        assert!(!servers.is_empty(), "a sharded server needs >= 1 shard");
        let n = servers.len();
        let ports = servers.iter().map(|lane| lane.read_port()).collect();
        let core = Arc::new(ShardCore::new(servers, ingress_capacity));
        ShardedServer {
            read_port: Arc::new(CoreReadPort {
                core: Arc::clone(&core),
                ports,
            }),
            core,
            replies: Arc::new(ReplyPlane::new()),
            drivers: None,
            pool: WorkerPool::new("lcm-shard", n, n),
            attested: vec![false; n],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.core.lanes()
    }

    /// One batch on every lane with work, in parallel on the pool; the
    /// replies it releases wait in the book for the reply demux to take
    /// ([`BatchServer::step`] without drivers).
    pub(crate) fn drive_lanes(&self) -> Result<()> {
        // Surface a failure recorded by back-pressure relief inside
        // `submit` (which cannot return errors) before doing new work.
        if let Some(e) = self.core.host().book.deferred_error.take() {
            return Err(e);
        }
        let mut handles = Vec::new();
        for i in 0..self.core.shards.len() {
            if !self.core.lane_has_work(i) {
                continue;
            }
            let core = self.core.clone();
            handles.push(self.pool.spawn(move || core.drive(i as u32, None)));
        }
        let mut vanished = false;
        for handle in handles {
            // `None` means the worker died without completing the
            // drive (a panic inside the lane); its tickets may never
            // settle, so this must surface, not vanish.
            vanished |= handle.join().is_none();
        }
        // Drives record failures in the book; the first one recorded
        // wins and this call reports it. Replies already released stay
        // in the out-buffer — healthy shards' replies survive a
        // sibling's crash-stop and are returned by the next call.
        if let Some(e) = self.core.host().book.deferred_error.take() {
            return Err(e);
        }
        if vanished {
            return Err(LcmError::Tee("shard worker vanished".into()));
        }
        Ok(())
    }

    /// Runs `f` with exclusive access to shard `index`'s server — the
    /// hook tests use to crash, power-fail, or inspect one shard in
    /// isolation.
    ///
    /// If `f` destroys queued work (a crash empties the inner server's
    /// queue), the shard's in-flight tickets are written off afterwards
    /// so the ordering book stays consistent — affected clients simply
    /// retry. Do not *submit* wires through this hook: out-of-band
    /// wires have no tickets and would desynchronize reply pairing.
    /// Attached drivers are woken on release if the shard still holds
    /// wires (they may have arrived while `f` ran).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_shard<R>(&mut self, index: u32, f: impl FnOnce(&mut dyn Lane) -> R) -> R {
        let idx = index as usize;
        let (result, purged) = {
            let shard = &self.core.shards[idx];
            let mut lane = shard.lock();
            let result = f(&mut *lane.server);
            // Resync: a stopped enclave (crash/power failure) — or
            // fewer queued wires than tracked tickets — means the
            // closure destroyed accepted work. Mirroring
            // `LcmServer::crash` (which drops its host-side queue),
            // the crashed shard's ingress dies with it: write every
            // affected ticket off so clients retry with fresh ones.
            let destroyed = !lane.server.is_running() || lane.server.queued() < lane.inflight.len();
            let purged = if destroyed {
                shard.purge(&mut lane)
            } else {
                Vec::new()
            };
            (result, purged)
        };
        self.core.write_off(purged);
        self.core.wake_if_backlogged(idx);
        result
    }

    /// Per-shard activity counters, read without taking any lane: a
    /// lane a driver holds — parked in a slow store, say — reports its
    /// op and batch counts as of its last step.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.core
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStats {
                shard: i as u32,
                ops: shard.ops.load(Ordering::Relaxed),
                batches: shard.batches.load(Ordering::Relaxed),
                attested: self.attested[i],
                ingress: shard.ingress.stats(),
                writer_waits: shard.writer_waits.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn for_each_shard<R>(
        &mut self,
        mut f: impl FnMut(&mut dyn Lane) -> Result<R>,
    ) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(self.core.shards.len());
        for shard in &self.core.shards {
            let mut lane = shard.lock();
            out.push(f(&mut *lane.server)?);
        }
        Ok(out)
    }

    /// The out-of-range error every per-member operation reports
    /// (`op` names the caller).
    fn check_shard(&self, shard: u32, op: &str) -> Result<()> {
        if (shard as usize) < self.core.shards.len() {
            return Ok(());
        }
        Err(LcmError::Tee(format!(
            "{op}(shard {shard}) on a {}-shard deployment",
            self.core.shards.len()
        )))
    }

    /// Installs (or replaces) the multi-tenant admission policy gating
    /// [`crate::transport::FrontendPort::try_send`]: per-tenant
    /// token buckets, weighted fair-queueing caps, retry dedup, and
    /// per-tenant × shard latency histograms. Plain `submit` is
    /// unaffected.
    pub fn set_admission(&self, config: crate::admission::AdmissionConfig) {
        self.core.admission.configure(config);
    }

    /// The deployment's admission controller (disabled until
    /// [`ShardedServer::set_admission`] runs; it still collects
    /// latency/health observability for unmetered traffic submitted
    /// through `try_submit`).
    pub fn admission_state(&self) -> Arc<AdmissionState> {
        Arc::clone(&self.core.admission)
    }

    /// Point-in-time admission/latency health: per-tenant admit and
    /// reject counters plus p50/p99/p999 end-to-end latency per
    /// tenant × shard.
    pub fn health_snapshot(&self) -> crate::admission::HealthSnapshot {
        self.core.admission.health_snapshot()
    }

    /// The newest slice table the host routes by.
    pub fn current_table(&self) -> SliceTable {
        self.core.host().current_table().clone()
    }

    /// `(slice, from, to)` of the slice move currently stuck between
    /// export and completion, if any (see
    /// [`ShardedServer::resume_slice_migration`]).
    pub fn pending_slice_move(&self) -> Option<(u32, u32, u32)> {
        self.core.host().pending_move()
    }

    /// Completes (or retries, after a mid-handshake crash) the
    /// in-flight slice move: delivers the bulletin to every bystander
    /// shard and the sealed ticket to the target; the host appends the
    /// new table once the last of them landed. On failure the move
    /// stays pending: reboot the dead member and call this again
    /// (`host.rs`, "Live slice migration").
    pub fn resume_slice_migration(&mut self) -> Result<()> {
        let Some((_, from, _)) = self.core.host().pending_move() else {
            return Err(LcmError::Tee("no slice migration in flight".into()));
        };
        let _origin = self.core.shards[from as usize].lock();
        self.drive_slice_move()
    }

    /// Takes the pending move's missing steps in the host's order,
    /// holding every lane it visits (the caller holds the origin).
    fn drive_slice_move(&self) -> Result<()> {
        let mut installed = Vec::new();
        loop {
            let Some((lane, step)) = self.core.host().next_step() else {
                return Ok(());
            };
            let mut held = self.core.shards[lane as usize].lock();
            match step {
                Handshake::Adopt(bulletin) => held.server.adopt_table(bulletin)?,
                Handshake::Import(ticket) => held.server.import_slice(ticket)?,
            }
            self.core.host().landed(lane);
            installed.push(held);
        }
    }

    /// One pass of the heat-aware rebalance monitor: drains the
    /// per-slice heat counters, asks [`plan_rebalance`] for a
    /// profitable move, and performs it live. Returns the `(slice,
    /// to)` migrated, or `None` when the load is already balanced
    /// (nothing is drained into a move that would not help).
    pub fn rebalance_once(&mut self) -> Result<Option<(u32, u32)>> {
        let Some((slice, to)) = self.core.host().plan_rebalance() else {
            return Ok(None);
        };
        self.migrate_slice(slice, to)?;
        Ok(Some((slice, to)))
    }
}

impl BatchServer for ShardedServer {
    /// Boots every lane at once, each on the shard pool — the workers
    /// [`ShardedServer::step`] drives the lanes on — so a reboot takes
    /// as long as its slowest lane, not the sum of them, and a lone
    /// lane driven by `step` has its recovered state built on the one
    /// worker that goes on to step it. Every lane boots whatever its
    /// siblings' outcome; the error reported is the lowest-index
    /// lane's, the one a boot of the lanes in index order would have
    /// stopped at.
    fn boot(&mut self) -> Result<bool> {
        let boots: Vec<_> = (0..self.core.shards.len())
            .map(|i| {
                let core = Arc::clone(&self.core);
                self.pool.spawn(move || core.shards[i].lock().server.boot())
            })
            .collect();
        // Joined all before any outcome is read: no lane is still
        // booting when this returns.
        let joined: Vec<_> = boots.into_iter().map(|boot| boot.join()).collect();
        let outcomes = joined
            .into_iter()
            .map(|boot| boot.unwrap_or_else(|| Err(LcmError::Tee("shard worker vanished".into()))))
            .collect::<Result<Vec<bool>>>()?;
        let first = outcomes[0];
        if outcomes.iter().any(|&o| o != first) {
            return Err(LcmError::Tee(
                "shards disagree on provisioning state".into(),
            ));
        }
        Ok(first)
    }

    fn crash(&mut self) {
        for shard in &self.core.shards {
            let mut lane = shard.lock();
            shard.purge(&mut lane);
            lane.server.crash();
        }
        // The book settles wholesale, so a quiescence wait with drivers
        // attached cannot hang on wires that no longer exist.
        self.core.host().crash_reset();
        // Replies already demuxed into the collection buffer died with
        // the host process too.
        self.replies.crash();
        // Outstanding admission credits died with their tickets.
        self.core.admission.reset_in_flight();
        self.core.settled_cv.notify_all();
        // Wires that arrived after their lane was purged wait for a
        // driver that found the lane held.
        for idx in 0..self.core.shards.len() {
            self.core.wake_if_backlogged(idx);
        }
        // The enclaves restart: their identities recover from sealed
        // state, but the operational "this epoch was attested" record
        // starts over.
        self.attested.fill(false);
    }

    fn is_running(&self) -> bool {
        self.core
            .shards
            .iter()
            .all(|s| s.lock().server.is_running())
    }

    fn shard_count(&self) -> u32 {
        self.core.shards.len() as u32
    }

    fn batch_limit(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| s.batch_limit)
            .max()
            .unwrap_or(1)
    }

    fn submit(&mut self, invoke_wire: Vec<u8>) {
        self.submit_shared(invoke_wire);
    }

    /// # Panics
    ///
    /// Panics when `shard` is out of range (like
    /// [`ShardedServer::with_shard`]): there is no such lane to
    /// deliver to, and clamping silently would let an adversarial
    /// test exercise a different shard than it named.
    fn submit_to_shard(&mut self, shard: u32, invoke_wire: Vec<u8>) {
        self.replies.stats().count_submitted();
        self.core.submit_to_lane(shard, invoke_wire);
    }

    fn queued(&self) -> usize {
        self.core.queued()
    }

    /// One batch per lane without drivers; with drivers, a wait for
    /// quiescence (they pump lanes independently, so there is no
    /// single-batch granularity to offer).
    fn step(&mut self) -> Result<Replies> {
        self.pump(false)
    }

    /// Unlike the default `while queued > 0` loop, always runs at least
    /// one step: relief inside `submit` may have left ready replies in
    /// the out-buffer (or a deferred error) with nothing queued.
    fn process_all(&mut self) -> Result<Replies> {
        self.pump(true)
    }

    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        // Fan out the identical authenticated admin message so every
        // shard applies the change under the same admin sequence
        // number; any shard's failure fails the whole operation.
        let replies = self.for_each_shard(|s| s.admin(admin_wire.clone()))?;
        Ok(replies.into_iter().next().expect(">=1 shard"))
    }

    fn export_migration(&mut self) -> Result<Vec<u8>> {
        let tickets = self.for_each_shard(|s| s.export_migration())?;
        Ok(self.core.host().join_lane_tickets(&tickets))
    }

    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()> {
        let (parts, routing) = crate::host::split_lane_tickets(&ticket)
            .ok_or_else(|| LcmError::Tee("malformed sharded migration ticket".into()))?;
        if parts.len() != self.core.shards.len() {
            return Err(LcmError::Tee(format!(
                "migration ticket carries {} shards, this deployment has {}",
                parts.len(),
                self.core.shards.len()
            )));
        }
        for (shard, part) in self.core.shards.iter().zip(parts) {
            shard.lock().server.import_migration(part)?;
        }
        // The lanes arrived at the origin's table epoch; route by the
        // origin's history from here on.
        self.core.host().install_history(routing);
        Ok(())
    }

    fn batches_processed(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.batches.load(Ordering::Relaxed))
            .sum()
    }

    fn ops_processed(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .sum()
    }

    fn flush_persists(&mut self) -> Result<()> {
        self.for_each_shard(|s| s.flush_persists())?;
        Ok(())
    }

    fn replica_count(&self) -> u32 {
        // Groups are uniform across shards; lane 0 speaks for all.
        self.core.shards[0].lock().server.replicas()
    }

    fn group_leader(&self, shard: u32) -> u32 {
        self.core.shards[shard as usize].lock().server.leader()
    }

    fn attest_member(&mut self, shard: u32, replica: u32, user_data: Digest) -> Result<Quote> {
        self.check_shard(shard, "attest_member")?;
        let quote = self.core.shards[shard as usize]
            .lock()
            .server
            .attest(replica, user_data)?;
        // Record the attestation host-side, so stats can assert every
        // member was attested.
        self.attested[shard as usize] = true;
        Ok(quote)
    }

    fn provision_member(
        &mut self,
        shard: u32,
        replica: u32,
        sealed_payload: Vec<u8>,
    ) -> Result<()> {
        self.check_shard(shard, "provision_member")?;
        self.core.shards[shard as usize]
            .lock()
            .server
            .provision(replica, sealed_payload)
    }

    fn kill_member(&mut self, shard: u32, replica: u32, power_failure: bool) -> Result<()> {
        self.check_shard(shard, "kill_member")?;
        // `with_shard`'s resync writes the group's in-flight tickets
        // off when a leader kill stops the group (`is_running` goes
        // false); follower kills leave the lane running and settled.
        self.with_shard(shard, |s| s.kill(replica, power_failure))
    }

    fn reboot_member(&mut self, shard: u32, replica: u32) -> Result<bool> {
        self.check_shard(shard, "reboot_member")?;
        self.with_shard(shard, |s| s.reboot(replica))
    }

    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.read_port.serve_read(read_wire)
    }

    fn read_port(&self) -> Option<Arc<dyn ReadPort>> {
        Some(self.read_port.clone())
    }

    /// Cuts the sealed export of `slice` out of its owner (bumping the
    /// owner's table to the next epoch) and runs the handshake with the
    /// origin lane held from the export on. Fails without touching any
    /// enclave if the host refuses the move.
    fn migrate_slice(&mut self, slice: u32, to: u32) -> Result<()> {
        let from = self.core.host().check_move(slice, to)?;
        let mut origin = self.core.shards[from as usize].lock();
        let (ticket, bulletin) = origin.server.export_slice(slice, to)?;
        self.core.host().begin_move(slice, to, ticket, bulletin);
        self.drive_slice_move()
    }

    fn routing_epoch(&self) -> u64 {
        self.core.host().current_table().epoch()
    }
}

/// The sharded deployment's concurrent read surface: routes each read
/// leg to its shard by the plaintext envelope, then into the lane's own
/// read port when it has one (a replica group serving from the pinned
/// member). Lanes without a port — unreplicated shards — fall back to
/// locking the lane, which serializes that shard's reads with its
/// writes.
struct CoreReadPort {
    core: Arc<ShardCore>,
    ports: Vec<Option<Arc<dyn ReadPort>>>,
}

impl ReadPort for CoreReadPort {
    fn serve_read(&self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        let Some((hint, _)) = crate::wire::ReadHint::peel(&read_wire) else {
            return Err(LcmError::Tee(
                "read wire too short for a routing hint".into(),
            ));
        };
        let idx = self.core.host().route(hint.route, hint.epoch);
        match &self.ports[idx] {
            Some(port) => port.serve_read(read_wire),
            None => {
                let mut lane = self.core.shards[idx].lock();
                lane.server.serve_read(read_wire)
            }
        }
    }
}

/// One member server of a deployment: an [`LcmServer`] over `F` on
/// platform `platform_id` of `world`, persisting into the
/// `region_prefix` region of the shared medium, with asynchronous
/// write when `pipelined`. The one lane factory behind
/// [`build_sharded`] and [`build_replicated`].
fn build_member<F: Functionality + 'static>(
    world: &TeeWorld,
    platform_id: u64,
    storage: &Arc<dyn StableStorage>,
    region_prefix: String,
    batch_limit: usize,
    pipelined: bool,
) -> LcmServer<F> {
    let platform = world.platform_deterministic(platform_id);
    let region = Arc::new(NamespacedStorage::new(storage.clone(), region_prefix));
    let server = LcmServer::<F>::new(&platform, region, batch_limit);
    if pipelined {
        server.into_pipelined()
    } else {
        server
    }
}

/// Assembles lanes into a deployment, labelling its health snapshots
/// with the execution mode so operators (and the bench gate) can tell
/// sync and pipelined cells apart.
fn assemble(lanes: Vec<Box<dyn Lane>>, pipelined: bool) -> ShardedServer {
    let server = ShardedServer::new(lanes);
    server
        .admission_state()
        .set_mode(if pipelined { "pipelined" } else { "sync" });
    server
}

/// Builds the standard sharded LCM deployment: `shards` instances of
/// [`LcmServer`] over `F`, each on its own platform of `world`
/// (platform ids `base_platform..base_platform + shards`) and its own
/// [`NamespacedStorage`] region of the shared medium, optionally in
/// asynchronous-write mode ([`LcmServer::into_pipelined`]).
///
/// **Note:** for the common whole-stack assembly (world + shards +
/// front-end + admission + admin bootstrap), prefer the `lcm` facade
/// crate's `DeploymentBuilder`, which wraps this constructor; use
/// `build_sharded` directly when the layers need custom wiring.
pub fn build_sharded<F: Functionality + 'static>(
    world: &TeeWorld,
    base_platform: u64,
    storage: Arc<dyn StableStorage>,
    batch_limit: usize,
    shards: u32,
    pipelined: bool,
) -> ShardedServer {
    let lanes = (0..shards.max(1))
        .map(|i| {
            Box::new(build_member::<F>(
                world,
                base_platform + u64::from(i),
                &storage,
                NamespacedStorage::shard_prefix(i),
                batch_limit,
                pipelined,
            )) as Box<dyn Lane>
        })
        .collect();
    assemble(lanes, pipelined)
}

/// Layout of a replicated deployment: how many shard lanes, how many
/// members per lane's [`crate::replica::ReplicaGroup`], and the
/// replica-acknowledgement threshold gating reply release (see the
/// [`crate::replica`] module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationSpec {
    /// Independent shard lanes (`.max(1)` applied at build).
    pub shards: u32,
    /// Members per shard group — 2f+1 for f-fault tolerance; 1 is the
    /// unreplicated degenerate case (`.max(1)` applied at build).
    pub replicas: u32,
    /// Threshold of members that must hold a batch's sealed state
    /// before its replies release.
    pub quorum: crate::stability::Quorum,
}

/// Builds a *replicated* sharded LCM deployment: `spec.shards` lanes,
/// each a [`crate::replica::ReplicaGroup`] of `spec.replicas` members.
/// Member `(i, r)` runs on platform `base_platform + i*replicas + r`
/// of `world` and persists into the nested storage region
/// `shard{i}.rep{r}.` of the shared medium; `pipelined` selects the
/// member servers' write pipeline exactly as in [`build_sharded`].
///
/// With `spec.replicas == 1` the layout degenerates to one-member
/// groups: same wire behavior as [`build_sharded`], plus the group's
/// quorum bookkeeping (trivially satisfied by the leader alone).
pub fn build_replicated<F: Functionality + 'static>(
    world: &TeeWorld,
    base_platform: u64,
    storage: Arc<dyn StableStorage>,
    batch_limit: usize,
    spec: ReplicationSpec,
    pipelined: bool,
) -> ShardedServer {
    let replicas = spec.replicas.max(1);
    let lanes = (0..spec.shards.max(1))
        .map(|i| {
            let members = (0..replicas)
                .map(|r| {
                    build_member::<F>(
                        world,
                        base_platform + u64::from(i) * u64::from(replicas) + u64::from(r),
                        &storage,
                        format!("{}rep{r}.", NamespacedStorage::shard_prefix(i)),
                        batch_limit,
                        pipelined,
                    )
                })
                .collect();
            Box::new(crate::replica::ReplicaGroup::new(members, spec.quorum)) as Box<dyn Lane>
        })
        .collect();
    assemble(lanes, pipelined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminHandle;
    use crate::client::LcmClient;
    use crate::functionality::Counter;
    use crate::routing::{slice_of, SLICE_COUNT};
    use crate::stability::Quorum;
    use lcm_storage::MemoryStorage;

    fn sharded_counter(
        shards: u32,
        n_clients: u32,
    ) -> (ShardedServer, AdminHandle, Vec<LcmClient>) {
        let world = TeeWorld::new_deterministic(90);
        let storage = Arc::new(MemoryStorage::new());
        let mut server = build_sharded::<Counter>(&world, 1, storage, 16, shards, false);
        assert!(server.boot().unwrap());
        let ids: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 5);
        admin.bootstrap(&mut server).unwrap();
        let clients = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), shards))
            .collect();
        (server, admin, clients)
    }

    fn run_one(server: &mut ShardedServer, client: &mut LcmClient, op: &[u8]) -> u64 {
        server.submit(client.invoke_for::<Counter>(op).unwrap());
        let replies = server.process_all().unwrap();
        let mine = replies
            .into_iter()
            .find(|(id, _)| *id == client.id())
            .expect("reply routed");
        let done = client.handle_reply(&mine.1).unwrap();
        Counter::decode_result(&done.result).unwrap()
    }

    #[test]
    fn route_hash_is_stable_and_total() {
        assert_eq!(route_hash(b""), 0x811c_9dc5);
        assert_eq!(route_hash(b"key"), route_hash(b"key"));
        assert_ne!(route_hash(b"key-a"), route_hash(b"key-b"));
        for n in 1..=9u32 {
            assert!(shard_index(route_hash(b"anything"), n) < n);
        }
        // n = 0 is clamped, not a division by zero.
        assert_eq!(shard_index(7, 0), 0);
    }

    #[test]
    fn counters_shard_by_name_and_stay_consistent() {
        let (mut server, _admin, mut clients) = sharded_counter(4, 2);
        // Both clients increment the same counter: routed to one shard,
        // so the state is shared exactly as on a single server.
        assert_eq!(
            run_one(&mut server, &mut clients[0], &Counter::inc_op(b"hits", 1)),
            1
        );
        assert_eq!(
            run_one(&mut server, &mut clients[1], &Counter::inc_op(b"hits", 1)),
            2
        );
        // Different counters may live on different shards; each is
        // still exactly-once.
        for name in [&b"a"[..], b"b", b"c", b"d", b"e"] {
            assert_eq!(
                run_one(&mut server, &mut clients[0], &Counter::inc_op(name, 7)),
                7
            );
            assert_eq!(
                run_one(&mut server, &mut clients[1], &Counter::read_op(name)),
                7
            );
        }
        assert_eq!(server.ops_processed(), 12);
    }

    #[test]
    fn single_shard_matches_unsharded_arithmetic() {
        let (mut server, _admin, mut clients) = sharded_counter(1, 1);
        for i in 1..=5u64 {
            assert_eq!(
                run_one(&mut server, &mut clients[0], &Counter::inc_op(b"x", 1)),
                i
            );
        }
        assert_eq!(clients[0].last_seq().0, 5);
        assert_eq!(server.ops_processed(), 5);
    }

    #[test]
    fn stats_rollup_reports_whole_deployment_attestation() {
        // Bootstrap attests every lane, so the stats must show all
        // four shards attested — not just shard 0.
        let (mut server, mut admin, _clients) = sharded_counter(4, 1);
        let attested = |server: &ShardedServer| {
            let rows = server.shard_stats();
            assert_eq!(rows.len(), 4);
            rows.iter().filter(|s| s.attested).count()
        };
        assert_eq!(attested(&server), 4);

        // A crash resets the epoch's attestation record...
        server.crash();
        assert_eq!(attested(&server), 0);

        // ...and re-verification after reboot restores it: the sealed
        // state recovered each lane's identity.
        assert!(!server.boot().unwrap());
        admin.verify_deployment(&mut server).unwrap();
        assert_eq!(attested(&server), 4);
    }

    #[test]
    fn read_port_is_built_once_and_handed_out_by_clone() {
        let (mut server, _admin, mut clients) = sharded_counter(2, 1);
        run_one(&mut server, &mut clients[0], &Counter::inc_op(b"n", 3));
        let (first, second) = (server.read_port().unwrap(), server.read_port().unwrap());
        assert!(
            Arc::ptr_eq(&first, &second),
            "one allocation per deployment"
        );
        // `serve_read` goes through that same port.
        let wire = clients[0]
            .read_for::<Counter>(&Counter::read_op(b"n"), 0)
            .unwrap();
        let reply = server.serve_read(wire).unwrap();
        assert!(clients[0].handle_read_reply(&reply).is_ok());
    }

    #[test]
    fn swapped_provisioning_payloads_fail_deployment_verification() {
        use crate::context::{ProvisionPayload, ShardIdentity, LABEL_PROVISION};
        use crate::program::lcm_measurement;
        use lcm_crypto::aead::{self, AeadKey};
        use lcm_crypto::keys::SecretKey;

        // A malicious host delivers shard 1's payload to lane 0 and
        // vice versa (the payloads are opaque, so it CAN). Each lane
        // then holds the other's identity — and the whole-deployment
        // verification catches exactly that, because each quote binds
        // the identity the enclave actually holds.
        let world = TeeWorld::new_deterministic(96);
        let mut server =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 8, 2, false);
        assert!(server.boot().unwrap());

        let channel = AeadKey::from_secret(&world.admin_provision_key(&lcm_measurement()));
        let sealed_for = |index: u32| {
            use crate::codec::WireCodec;
            let payload = ProvisionPayload {
                k_p: SecretKey::from_bytes([1u8; 32]),
                k_c: SecretKey::from_bytes([2u8; 32]),
                k_a: SecretKey::from_bytes([3u8; 32]),
                clients: vec![ClientId(1)],
                quorum: Quorum::Majority,
                identity: ShardIdentity::new(index, 2),
            };
            aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap()
        };
        // Swap: lane 0 gets identity 1, lane 1 gets identity 0.
        server.provision_member(0, 0, sealed_for(1)).unwrap();
        server.provision_member(1, 0, sealed_for(0)).unwrap();

        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 96);
        let err = admin.verify_deployment(&mut server).unwrap_err();
        assert!(matches!(err, LcmError::Tee(_)), "got {err:?}");
    }

    #[test]
    fn misdelivered_first_op_is_rejected_by_the_enclave() {
        // The host redirects an INTACT first-op wire to a sibling
        // shard. Before shard-identity provisioning this executed
        // (misplaced); now the sibling's enclave refuses and halts.
        let (mut server, _admin, mut clients) = sharded_counter(4, 1);
        let name = b"misdeliver-me".to_vec();
        let home = shard_index(route_hash(&name), 4);
        let sibling = (home + 1) % 4;
        let wire = clients[0]
            .invoke_for::<Counter>(&Counter::inc_op(&name, 1))
            .unwrap();
        server.submit_to_shard(sibling, wire);
        let err = server.process_all().unwrap_err();
        assert!(err.is_violation(), "got {err:?}");
        assert!(
            err.to_string().contains("shard"),
            "violation should name the shard mismatch: {err}"
        );
        // The redirected wire was never executed anywhere.
        assert_eq!(server.ops_processed(), 0);
    }

    #[test]
    fn stats_rollup_sums_across_shards() {
        let (mut server, _admin, mut clients) = sharded_counter(4, 1);
        for name in [&b"a"[..], b"b", b"c", b"d", b"e", b"f"] {
            run_one(&mut server, &mut clients[0], &Counter::inc_op(name, 1));
        }
        let rows = server.shard_stats();
        assert_eq!(rows.len(), 4);
        assert_eq!(server.ops_processed(), 6);
        assert_eq!(rows.iter().map(|s| s.ops).sum::<u64>(), 6);
        assert_eq!(
            server.batches_processed(),
            rows.iter().map(|s| s.batches).sum::<u64>()
        );
        assert_eq!(rows.iter().map(|s| s.ingress.pushed).sum::<u64>(), 6);
        assert_eq!(rows.iter().map(|s| s.ingress.popped).sum::<u64>(), 6);
        // More than one shard actually took traffic.
        assert!(rows.iter().filter(|s| s.ops > 0).count() > 1);
    }

    #[test]
    fn crash_and_recover_all_shards() {
        let (mut server, _admin, mut clients) = sharded_counter(4, 1);
        for name in [&b"a"[..], b"b", b"c"] {
            run_one(&mut server, &mut clients[0], &Counter::inc_op(name, 2));
        }
        server.crash();
        assert!(!server.is_running());
        assert!(!server.boot().unwrap(), "no re-provisioning after crash");
        for name in [&b"a"[..], b"b", b"c"] {
            assert_eq!(
                run_one(&mut server, &mut clients[0], &Counter::inc_op(name, 2)),
                4
            );
        }
    }

    /// Like [`run_one`], but chases resharding redirects: a reply that
    /// carries a newer slice table re-invokes the operation under it.
    fn run_chasing(server: &mut ShardedServer, client: &mut LcmClient, op: &[u8]) -> u64 {
        use crate::client::WriteOutcome;
        let mut wire = client.invoke_for::<Counter>(op).unwrap();
        loop {
            server.submit(wire);
            let replies = server.process_all().unwrap();
            let mine = replies
                .into_iter()
                .find(|(id, _)| *id == client.id())
                .expect("reply routed");
            match client.handle_reply_on(&mine.1).unwrap().1 {
                WriteOutcome::Done(done) => return Counter::decode_result(&done.result).unwrap(),
                WriteOutcome::Redirected { op } => {
                    wire = client.invoke_for::<Counter>(&op).unwrap();
                }
            }
        }
    }

    /// Smallest key of the form `k{j}` whose route hash falls in
    /// `slice`.
    fn key_in_slice(slice: u32) -> Vec<u8> {
        (0u32..)
            .map(|j| format!("k{j}").into_bytes())
            .find(|k| slice_of(route_hash(k)) == slice)
            .unwrap()
    }

    #[test]
    fn live_slice_migration_moves_state_and_redirects_clients() {
        let (mut server, _admin, mut clients) = sharded_counter(2, 2);
        let name = b"hot-counter".to_vec();
        assert_eq!(
            run_one(&mut server, &mut clients[0], &Counter::inc_op(&name, 5)),
            5
        );
        let slice = slice_of(route_hash(&name));
        let home = server.current_table().owner(slice);
        let to = 1 - home;

        BatchServer::migrate_slice(&mut server, slice, to).unwrap();
        assert_eq!(server.routing_epoch(), 1);
        assert_eq!(server.current_table().owner(slice), to);
        assert_eq!(server.pending_slice_move(), None);

        // A client still routing by epoch 0 sends to the old owner,
        // gets the authenticated redirect, adopts the new table, and
        // lands on the moved state — nothing lost, nothing doubled.
        assert_eq!(
            run_chasing(&mut server, &mut clients[0], &Counter::inc_op(&name, 2)),
            7
        );
        assert_eq!(clients[0].routing_epoch(), 1);
        // A second client that never saw the redirect converges too.
        assert_eq!(
            run_chasing(&mut server, &mut clients[1], &Counter::read_op(&name)),
            7
        );
        assert_eq!(clients[1].routing_epoch(), 1);
        // Writes through the already-redirected client go straight to
        // the new owner (no further redirect round trips).
        assert_eq!(
            run_one(&mut server, &mut clients[0], &Counter::inc_op(&name, 1)),
            8
        );
    }

    #[test]
    fn slice_migration_rejects_nonsense_moves() {
        let (mut server, _admin, _clients) = sharded_counter(2, 1);
        let table = server.current_table();
        let owner = table.owner(0);
        // Target out of range.
        let err = BatchServer::migrate_slice(&mut server, 0, 7).unwrap_err();
        assert!(matches!(err, LcmError::Tee(ref m) if m.contains("target")));
        // Slice out of range.
        let err = BatchServer::migrate_slice(&mut server, SLICE_COUNT, 0).unwrap_err();
        assert!(matches!(err, LcmError::Tee(ref m) if m.contains("out of range")));
        // Self-move.
        let err = BatchServer::migrate_slice(&mut server, 0, owner).unwrap_err();
        assert!(matches!(err, LcmError::Tee(ref m) if m.contains("already owns")));
        assert_eq!(server.routing_epoch(), 0);
    }

    #[test]
    fn interrupted_slice_move_resumes_after_target_reboot() {
        let (mut server, _admin, mut clients) = sharded_counter(2, 1);
        let name = b"resumable".to_vec();
        assert_eq!(
            run_one(&mut server, &mut clients[0], &Counter::inc_op(&name, 4)),
            4
        );
        let slice = slice_of(route_hash(&name));
        let home = server.current_table().owner(slice);
        let to = 1 - home;

        // The target is down when the move starts: the origin's export
        // is cut (its own table advances), but the handshake cannot
        // complete — the pending move is retained and the host keeps
        // routing by the old table.
        server.with_shard(to, |s| s.crash());
        BatchServer::migrate_slice(&mut server, slice, to).unwrap_err();
        assert_eq!(server.pending_slice_move(), Some((slice, home, to)));
        assert_eq!(server.routing_epoch(), 0);

        // Reboot the target and resume: the sealed ticket is
        // re-delivered and the handshake completes.
        server.with_shard(to, |s| s.boot().map(|_| ()).unwrap());
        server.resume_slice_migration().unwrap();
        assert_eq!(server.routing_epoch(), 1);
        assert_eq!(server.pending_slice_move(), None);
        assert_eq!(
            run_chasing(&mut server, &mut clients[0], &Counter::inc_op(&name, 1)),
            5
        );
    }

    #[test]
    fn heat_monitor_moves_hot_slice_to_cold_shard() {
        let (mut server, _admin, mut clients) = sharded_counter(2, 1);
        // Two hot counters in *different* slices of the same shard —
        // moving the hotter one away is profitable (a lone hot slice
        // would just relocate the hotspot, and the planner declines).
        let table = server.current_table();
        let (s1, s2) = (0, 2);
        assert_eq!(table.owner(s1), table.owner(s2));
        let home = table.owner(s1);
        let (k1, k2) = (key_in_slice(s1), key_in_slice(s2));
        for _ in 0..12 {
            run_one(&mut server, &mut clients[0], &Counter::inc_op(&k1, 1));
        }
        for _ in 0..6 {
            run_one(&mut server, &mut clients[0], &Counter::inc_op(&k2, 1));
        }

        let moved = server.rebalance_once().unwrap();
        assert_eq!(moved, Some((s1, 1 - home)));
        assert_eq!(server.current_table().owner(s1), 1 - home);
        assert_eq!(server.routing_epoch(), 1);
        // The drained interval is consumed: with no new traffic the
        // next pass plans nothing.
        assert_eq!(server.rebalance_once().unwrap(), None);
        // The migrated counter still serves, with its value intact.
        assert_eq!(
            run_chasing(&mut server, &mut clients[0], &Counter::read_op(&k1)),
            12
        );
    }

    #[test]
    fn plan_rebalance_declines_balanced_and_unprofitable_loads() {
        let table = SliceTable::uniform(2);
        let mut heat = vec![0u64; SLICE_COUNT as usize];
        // No traffic at all.
        assert_eq!(plan_rebalance(&heat, &table), None);
        // Balanced: both shards within 2x of each other.
        heat[0] = 10; // shard 0
        heat[1] = 6; // shard 1
        assert_eq!(plan_rebalance(&heat, &table), None);
        // Skewed but unprofitable: ALL of the hot shard's heat is one
        // slice; moving it would only relocate the hotspot.
        heat[1] = 0;
        assert_eq!(plan_rebalance(&heat, &table), None);
        // Skewed and profitable: two hot slices on shard 0 — ship the
        // hotter one to shard 1.
        heat[2] = 4; // also shard 0
        assert_eq!(plan_rebalance(&heat, &table), Some((0, 1)));
        // One shard is no deployment to balance.
        assert_eq!(plan_rebalance(&heat, &SliceTable::uniform(1)), None);
    }

    #[test]
    fn sharded_migration_fans_out_and_clients_continue() {
        let world = TeeWorld::new_deterministic(91);
        let storage = Arc::new(MemoryStorage::new());
        let mut origin = build_sharded::<Counter>(&world, 1, storage, 8, 4, false);
        assert!(origin.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 6);
        admin.bootstrap(&mut origin).unwrap();
        let mut client = LcmClient::new_sharded(ClientId(1), admin.client_key(), 4);
        for name in [&b"a"[..], b"b", b"c", b"d"] {
            run_one(&mut origin, &mut client, &Counter::inc_op(name, 3));
        }

        // Target deployment on fresh platforms + fresh medium.
        let mut target =
            build_sharded::<Counter>(&world, 100, Arc::new(MemoryStorage::new()), 8, 4, false);
        assert!(target.boot().unwrap());
        admin.migrate(&mut origin, &mut target).unwrap();

        // Routing is stable across the migration: every counter reads
        // back its pre-migration value on the new deployment.
        for name in [&b"a"[..], b"b", b"c", b"d"] {
            assert_eq!(
                run_one(&mut target, &mut client, &Counter::read_op(name)),
                3
            );
        }
    }

    /// A deployment that moved a slice and is then migrated: the
    /// enclaves arrive on the target at table epoch 1, so the target
    /// host must route by the origin's history too — with a genesis
    /// router it hands an epoch-1 wire for the moved slice to the old
    /// owner, and that honest enclave halts with `WrongShard`.
    #[test]
    fn migration_after_a_slice_move_carries_the_routing_history() {
        let world = TeeWorld::new_deterministic(93);
        let mut origin =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 8, 2, false);
        assert!(origin.boot().unwrap());
        let ids = vec![ClientId(1), ClientId(2)];
        let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 8);
        admin.bootstrap(&mut origin).unwrap();
        let mut clients =
            [1, 2].map(|id| LcmClient::new_sharded(ClientId(id), admin.client_key(), 2));

        let name = b"moved-then-migrated".to_vec();
        run_one(&mut origin, &mut clients[0], &Counter::inc_op(&name, 5));
        let slice = slice_of(route_hash(&name));
        let to = 1 - origin.current_table().owner(slice);
        BatchServer::migrate_slice(&mut origin, slice, to).unwrap();
        // Client 1 chases the redirect and routes by epoch 1 from now
        // on; client 2 never hears of the move before the migration.
        assert_eq!(
            run_chasing(&mut origin, &mut clients[0], &Counter::inc_op(&name, 2)),
            7
        );

        let mut target =
            build_sharded::<Counter>(&world, 100, Arc::new(MemoryStorage::new()), 8, 2, false);
        assert!(target.boot().unwrap());
        admin.migrate(&mut origin, &mut target).unwrap();
        assert_eq!(target.routing_epoch(), origin.routing_epoch());
        assert_eq!(target.current_table(), origin.current_table());

        assert_eq!(
            run_one(&mut target, &mut clients[0], &Counter::inc_op(&name, 1)),
            8
        );
        // The epoch-0 wire still reaches the old owner, which
        // redirects it exactly as it would have on the origin.
        assert_eq!(
            run_chasing(&mut target, &mut clients[1], &Counter::read_op(&name)),
            8
        );
        assert_eq!(clients[1].routing_epoch(), 1);
    }

    #[test]
    fn migration_ticket_shape_mismatch_rejected() {
        let world = TeeWorld::new_deterministic(92);
        let mut origin =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 8, 2, false);
        assert!(origin.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 7);
        admin.bootstrap(&mut origin).unwrap();
        let ticket = origin.export_migration().unwrap();

        let mut target =
            build_sharded::<Counter>(&world, 50, Arc::new(MemoryStorage::new()), 8, 4, false);
        assert!(target.boot().unwrap());
        let err = target.import_migration(ticket).unwrap_err();
        assert!(matches!(err, LcmError::Tee(_)), "got {err:?}");
    }

    #[test]
    fn admin_fanout_keeps_shards_in_lockstep() {
        let (mut server, mut admin, mut clients) = sharded_counter(4, 2);
        run_one(&mut server, &mut clients[0], &Counter::inc_op(b"n", 1));
        // Several admin round trips in a row: every shard must advance
        // the admin sequence identically, or a later fan-out would trip
        // one shard's replay detection.
        for _ in 0..3 {
            let (_t, _q, n) = admin.status(&mut server).unwrap();
            assert_eq!(n, 2);
        }
        // Membership changes fan out too: a freshly added client can
        // immediately talk to ANY shard.
        admin.add_client(&mut server, ClientId(9)).unwrap();
        let mut nine = LcmClient::new_sharded(ClientId(9), admin.client_key(), 4);
        for name in [&b"a"[..], b"b", b"c", b"d", b"e"] {
            run_one(&mut server, &mut nine, &Counter::inc_op(name, 1));
        }
        // Removal rotates kC everywhere: the removed client's key stops
        // working on every shard.
        admin.remove_client(&mut server, ClientId(9)).unwrap();
        server.submit(
            nine.invoke_for::<Counter>(&Counter::inc_op(b"f", 1))
                .unwrap(),
        );
        assert!(server.process_all().is_err(), "stale kC must be rejected");
    }

    /// A medium for boot tests over four lanes. It can park every
    /// lane's load of its state slot until all four are inside one
    /// (waiting at most [`BootMedium::PARK`], then failing the load),
    /// and it can serve chosen lanes' checkpoints tampered — a bit of
    /// the sealed blob flipped under a recomputed frame checksum, so
    /// only the enclave can tell — or fail their loads outright.
    #[derive(Default)]
    struct BootMedium {
        inner: MemoryStorage,
        park: bool,
        parked: Mutex<usize>,
        all_parked: std::sync::Condvar,
        tampered: Mutex<Vec<u32>>,
        failing: Mutex<Vec<u32>>,
    }

    impl BootMedium {
        const LANES: u32 = 4;
        const PARK: Duration = Duration::from_secs(10);

        /// The lane whose state — bare or checkpointed by its engine —
        /// `slot` holds.
        fn state_lane(slot: &str) -> Option<u32> {
            (0..Self::LANES).find(|&i| {
                let lane = NamespacedStorage::shard_prefix(i);
                slot.strip_prefix(&lane).is_some_and(|rest| {
                    rest == crate::server::SLOT_STATE_BLOB
                        || rest.starts_with("dlog.ckpt.")
                            && rest.ends_with(crate::server::SLOT_STATE_BLOB)
                })
            })
        }

        fn park(&self, slot: &str) -> lcm_storage::Result<()> {
            let mut parked = self.parked.lock().unwrap();
            *parked += 1;
            self.all_parked.notify_all();
            let lanes = Self::LANES as usize;
            let (parked, wait) = self
                .all_parked
                .wait_timeout_while(parked, Self::PARK, |n| *n < lanes)
                .unwrap();
            if wait.timed_out() {
                return Err(lcm_storage::StorageError::Io(std::io::Error::other(
                    format!(
                        "{slot}: only {} of {lanes} lanes were loading their state at once",
                        *parked
                    ),
                )));
            }
            Ok(())
        }
    }

    impl StableStorage for BootMedium {
        fn store(&self, slot: &str, blob: &[u8]) -> lcm_storage::Result<()> {
            self.inner.store(slot, blob)
        }

        fn load(&self, slot: &str) -> lcm_storage::Result<Option<Vec<u8>>> {
            let Some(lane) = Self::state_lane(slot) else {
                return self.inner.load(slot);
            };
            if self.park {
                self.park(slot)?;
            }
            if self.failing.lock().unwrap().contains(&lane) {
                let failure = format!("{slot}: the device failed the read");
                return Err(lcm_storage::StorageError::Io(std::io::Error::other(
                    failure,
                )));
            }
            let mut blob = self.inner.load(slot)?;
            if let Some(frame) = blob
                .as_mut()
                .filter(|_| self.tampered.lock().unwrap().contains(&lane))
            {
                *frame.last_mut().unwrap() ^= 0x01;
                let crc = lcm_storage::framing::crc32(&frame[lcm_storage::framing::FRAME_HEADER..]);
                frame[4..8].copy_from_slice(&crc.to_be_bytes());
            }
            Ok(blob)
        }
    }

    /// A sharded boot recovers its lanes at once, on the shard pool:
    /// every lane's state-slot load is parked until all four lanes are
    /// inside one, which a boot of one lane after another never
    /// reaches — its first load would time out and fail the boot.
    #[test]
    fn a_sharded_boot_runs_every_lane_at_once() {
        let medium = Arc::new(BootMedium {
            park: true,
            ..BootMedium::default()
        });
        let world = TeeWorld::new_deterministic(91);
        let mut server = build_sharded::<Counter>(&world, 1, medium.clone(), 16, 4, false);
        assert!(server.boot().unwrap(), "a first boot needs provisioning");
        assert_eq!(*medium.parked.lock().unwrap(), 4);
    }

    /// Lanes 1 and 3 of a crashed deployment fail at reboot — served a
    /// tampered checkpoint, or a failed read naming the slot. The
    /// concurrent boot reports the error a boot of the lanes in index
    /// order stopped at, lane 1's, and unlike that loop it boots every
    /// lane: lanes 0 and 2 recover, and lane 3's enclave judges its
    /// tampered state too.
    #[test]
    fn a_sharded_boot_reports_the_lowest_failed_lane_as_a_sequential_boot_did() {
        for tamper in [true, false] {
            let crashed = || {
                let medium = Arc::new(BootMedium::default());
                let world = TeeWorld::new_deterministic(92);
                let mut server = build_sharded::<Counter>(&world, 1, medium.clone(), 16, 4, false);
                assert!(server.boot().unwrap());
                let clients = vec![ClientId(1)];
                let mut admin =
                    AdminHandle::new_deterministic(&world, clients, Quorum::Majority, 5);
                admin.bootstrap(&mut server).unwrap();
                server.crash();
                let faulty = if tamper {
                    &medium.tampered
                } else {
                    &medium.failing
                };
                *faulty.lock().unwrap() = vec![1, 3];
                server
            };
            let mut sequential = crashed();
            let stopped_at = (0..4)
                .find_map(|i| sequential.with_shard(i, |lane| lane.boot()).err())
                .expect("lane 1 fails");
            assert!(!sequential.with_shard(3, |lane| lane.is_running()));

            let mut concurrent = crashed();
            let error = concurrent.boot().unwrap_err();
            assert_eq!(error, stopped_at, "tampered: {tamper}");
            if tamper {
                assert!(error.is_violation(), "{error:?}");
            } else {
                assert!(error.to_string().contains("shard1."), "{error}");
            }
            // A failed read stops a lane before its enclave starts; a
            // tampered checkpoint is refused by the started enclave.
            let booted: &[u32] = if tamper { &[0, 1, 2, 3] } else { &[0, 2] };
            for &lane in booted {
                assert!(
                    concurrent.with_shard(lane, |l| l.is_running()),
                    "lane {lane}"
                );
            }
        }
    }

    #[test]
    fn sibling_crash_stop_does_not_swallow_healthy_replies() {
        // Two clients on two different shards submit together; one wire
        // is tampered so its shard crash-stops mid-step. The healthy
        // client's reply must survive the failing step (delivered by
        // the next call), and its later traffic must not be stalled by
        // the victim's written-off ticket.
        let (mut server, _admin, mut clients) = sharded_counter(4, 2);
        let (va, vb) = clients.split_at_mut(1);
        let (victim, healthy) = (&mut va[0], &mut vb[0]);
        // Names on two different shards.
        let bad_name = b"bad".to_vec();
        let good_name = (0..64u32)
            .map(|i| format!("g{i}").into_bytes())
            .find(|n| shard_index(route_hash(n), 4) != shard_index(route_hash(&bad_name), 4))
            .unwrap();

        let mut bad_wire = victim
            .invoke_for::<Counter>(&Counter::inc_op(&bad_name, 1))
            .unwrap();
        let last = bad_wire.len() - 1;
        bad_wire[last] ^= 0xff; // tamper the ciphertext: shard halts
        let good_wire = healthy
            .invoke_for::<Counter>(&Counter::inc_op(&good_name, 5))
            .unwrap();
        server.submit(bad_wire);
        server.submit(good_wire);

        // The step carrying the failure reports it...
        let err = server.process_all().unwrap_err();
        assert!(err.is_violation(), "got {err:?}");
        // ...and the next call releases the healthy shard's reply.
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, healthy.id());
        let done = healthy.handle_reply(&replies[0].1).unwrap();
        assert_eq!(Counter::decode_result(&done.result), Some(5));
        // The healthy client keeps working — the victim's dead ticket
        // does not dam up later replies.
        assert_eq!(
            run_one(&mut server, healthy, &Counter::read_op(&good_name)),
            5
        );
    }

    /// A batch whose third wire fails to open: the lane's step is the
    /// error, every ticket of the batch is written off and nothing of
    /// it is released — the replies the enclave sealed for the first
    /// two wires never leave it — and the halted lane refuses later
    /// work the same way. No panic anywhere.
    #[test]
    fn a_wire_that_fails_mid_batch_writes_the_whole_batch_off() {
        let (mut server, _admin, mut clients) = sharded_counter(1, 4);
        let core = Arc::clone(&server.core);
        for (i, c) in clients.iter_mut().enumerate() {
            let mut wire = c.invoke_for::<Counter>(&Counter::inc_op(b"n", 1)).unwrap();
            if i == 2 {
                let last = wire.len() - 1;
                wire[last] ^= 0xff;
            }
            server.submit(wire);
        }
        assert_eq!(core.host().book.unsettled(), 4);
        let err = server.step().unwrap_err();
        assert!(err.is_violation(), "got {err:?}");
        assert_eq!(
            core.host().book.unsettled(),
            0,
            "the batch's tickets are written off"
        );
        assert!(
            std::mem::take(&mut core.host().book.ready).is_empty(),
            "nothing of the batch is released"
        );
        assert_eq!(server.queued(), 0);
        server.submit(clients[0].retry().unwrap());
        assert_eq!(server.process_all().unwrap_err(), LcmError::Halted);
        assert_eq!(core.host().book.unsettled(), 0);
    }

    #[test]
    fn ingress_overflow_relieves_inline_instead_of_deadlocking() {
        // Route far more wires at one shard than its ingress bound
        // before ever stepping: submit must make progress by running
        // batches inline, not block forever.
        let world = TeeWorld::new_deterministic(93);
        let servers: Vec<Box<dyn Lane>> = (0..2)
            .map(|i| {
                let platform = world.platform_deterministic(1 + i);
                Box::new(LcmServer::<Counter>::new(
                    &platform,
                    Arc::new(MemoryStorage::new()),
                    16,
                )) as Box<dyn Lane>
            })
            .collect();
        let mut server = ShardedServer::with_config(servers, 8);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 8);
        admin.bootstrap(&mut server).unwrap();
        let mut client = LcmClient::new_sharded(ClientId(1), admin.client_key(), 2);

        // One client is sequential per shard, so drive the flood with
        // retries of a single op — 40 wires into an 8-slot queue.
        let first = client
            .invoke_for::<Counter>(&Counter::inc_op(b"hot", 1))
            .unwrap();
        server.submit(first);
        for _ in 0..39 {
            server.submit(client.retry().unwrap());
        }
        // The inline relief really fired: batches were already executed
        // during the submit flood, before any explicit step.
        assert!(
            server.ops_processed() > 0,
            "submit must relieve a full ingress by processing inline"
        );
        let replies = server.process_all().unwrap();
        // One fresh execution + cached-reply resends for the retries.
        assert_eq!(replies.len(), 40);
        assert_eq!(server.ops_processed(), 40);
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(Counter::decode_result(&done.result), Some(1));
        // The ingress bound held throughout the flood.
        assert!(server
            .shard_stats()
            .iter()
            .all(|s| s.ingress.high_water <= 8));
    }

    #[test]
    fn error_mid_process_all_preserves_earlier_replies() {
        // One shard, batch limit 1: a healthy client's wire processes
        // in the first step, a tampered wire halts the shard in the
        // second. The healthy reply collected before the failure must
        // survive into the next call, not die with the error.
        let world = TeeWorld::new_deterministic(94);
        let mut server =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 1, 1, false);
        assert!(server.boot().unwrap());
        let ids = vec![ClientId(1), ClientId(2)];
        let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 9);
        admin.bootstrap(&mut server).unwrap();
        let mut healthy = LcmClient::new_sharded(ClientId(1), admin.client_key(), 1);
        let mut victim = LcmClient::new_sharded(ClientId(2), admin.client_key(), 1);

        let good = healthy
            .invoke_for::<Counter>(&Counter::inc_op(b"n", 3))
            .unwrap();
        let mut bad = victim
            .invoke_for::<Counter>(&Counter::inc_op(b"n", 1))
            .unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        server.submit(good);
        server.submit(bad);

        let err = server.process_all().unwrap_err();
        assert!(err.is_violation(), "got {err:?}");
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, healthy.id());
        let done = healthy.handle_reply(&replies[0].1).unwrap();
        assert_eq!(Counter::decode_result(&done.result), Some(3));
    }

    #[test]
    fn swapped_cross_shard_genesis_replies_cannot_be_misattributed() {
        // A client's two FIRST ops (both contexts at the genesis chain
        // value) in flight on two shards: the echoed hc alone cannot
        // tell the replies apart, but the reply AAD binds the route, so
        // the client attributes each reply to the right operation even
        // when a (possibly malicious) host delivers them swapped — the
        // swap is neutralized, not obeyed.
        let (mut server, _admin, mut clients) = sharded_counter(4, 1);
        let client = &mut clients[0];
        let name_a = b"swap-a".to_vec();
        let name_b = (0..64u32)
            .map(|i| format!("swap-b{i}").into_bytes())
            .find(|n| shard_index(route_hash(n), 4) != shard_index(route_hash(&name_a), 4))
            .unwrap();
        let w1 = client
            .invoke_for::<Counter>(&Counter::inc_op(&name_a, 1))
            .unwrap();
        let w2 = client
            .invoke_for::<Counter>(&Counter::inc_op(&name_b, 2))
            .unwrap();
        server.submit(w1);
        server.submit(w2);
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 2);
        // Malicious delivery order: the second op's reply first. Each
        // completes with ITS OWN result.
        let done_b = client.handle_reply(&replies[1].1).unwrap();
        assert_eq!(Counter::decode_result(&done_b.result), Some(2));
        let done_a = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(Counter::decode_result(&done_a.result), Some(1));
        assert!(!client.has_pending());
        assert!(!client.is_halted());
        // A reply for an operation that is NOT pending still halts.
        let err = client.handle_reply(&replies[0].1).unwrap_err();
        assert!(err.is_violation());
    }

    #[test]
    fn sibling_crash_does_not_brick_a_cross_shard_pipelining_client() {
        // ONE client pipelines op A (shard that will crash-stop) and
        // op B (healthy shard). The crash writes off A's ticket and
        // releases B's reply first; the client must complete B and
        // stay live to retry A — an honest crash must never read as an
        // attack at the client.
        let (mut server, _admin, mut clients) = sharded_counter(4, 1);
        let client = &mut clients[0];
        let name_a = b"will-crash".to_vec();
        let shard_a = shard_index(route_hash(&name_a), 4);
        let name_b = (0..64u32)
            .map(|i| format!("fine{i}").into_bytes())
            .find(|n| shard_index(route_hash(n), 4) != shard_a)
            .unwrap();
        let wa = client
            .invoke_for::<Counter>(&Counter::inc_op(&name_a, 1))
            .unwrap();
        let wb = client
            .invoke_for::<Counter>(&Counter::inc_op(&name_b, 2))
            .unwrap();
        server.submit(wa);
        server.submit(wb);
        // Shard A dies (volatile crash) before anything is processed:
        // with_shard's resync writes off A's in-flight ticket.
        server.with_shard(shard_a, |s| s.crash());
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1, "only the healthy shard replied");
        let done_b = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(Counter::decode_result(&done_b.result), Some(2));
        assert!(!client.is_halted(), "honest crash must not look hostile");

        // The client still has op A pending; after shard A reboots,
        // the retry completes it.
        assert!(client.has_pending());
        server.with_shard(shard_a, |s| s.boot()).unwrap();
        server.submit(client.retry().unwrap());
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        let done_a = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(Counter::decode_result(&done_a.result), Some(1));
        assert!(!client.has_pending());
    }

    #[test]
    fn per_client_replies_arrive_in_submission_order() {
        let (mut server, _admin, mut clients) = sharded_counter(4, 1);
        let client = &mut clients[0];
        // Find two counter names on different shards.
        let name_a = b"k0".to_vec();
        let mut name_b = None;
        for i in 1..64u32 {
            let candidate = format!("k{i}").into_bytes();
            if shard_index(route_hash(&candidate), 4) != shard_index(route_hash(&name_a), 4) {
                name_b = Some(candidate);
                break;
            }
        }
        let name_b = name_b.expect("some key maps to another shard");

        // Two in-flight ops from ONE client on two different shards.
        let w1 = client
            .invoke_for::<Counter>(&Counter::inc_op(&name_a, 1))
            .unwrap();
        let w2 = client
            .invoke_for::<Counter>(&Counter::inc_op(&name_b, 1))
            .unwrap();
        server.submit(w1);
        server.submit(w2);
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 2);
        // Submission order is preserved, so completing in arrival order
        // matches the client's pending queue (a swap would be flagged
        // as a violation by the echo check).
        for (_, wire) in &replies {
            client.handle_reply(wire).unwrap();
        }
        assert!(!client.has_pending());
    }

    /// The epoch parked drivers wait on.
    fn work_epoch(core: &ShardCore) -> u64 {
        *core.work.lock().unwrap()
    }

    /// Submits `n` wires to lane 0 and names (1-based) the ones that
    /// woke the drivers. Nothing drives the lane meanwhile.
    fn waking_wires(core: &ShardCore, n: usize) -> Vec<usize> {
        let woke = |_: &usize| {
            let before = work_epoch(core);
            core.submit_to_lane(0, vec![0; 4]);
            work_epoch(core) != before
        };
        (1..=n).filter(woke).collect()
    }

    #[test]
    fn a_submission_wakes_drivers_only_when_a_lane_starts_or_fills_a_batch() {
        let world = TeeWorld::new_deterministic(91);
        let server =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 16, 1, false);
        let core = Arc::clone(&server.core);
        core.attach_drivers(1);
        assert_eq!(waking_wires(&core, 40), [1, 16]);
    }

    #[test]
    fn a_submission_wakes_drivers_only_when_a_lane_starts_or_fills_a_batch_after_with_shard_purges_the_lane(
    ) {
        let (mut server, _admin, _clients) = sharded_counter(1, 1);
        let core = Arc::clone(&server.core);
        core.attach_drivers(1);
        assert_eq!(waking_wires(&core, 5), [1]);
        // A driver takes the five in and leaves them to form a batch.
        let status = core.drive(0, Some(Duration::from_secs(3600)));
        assert!(matches!(status, DriveStatus::Waiting(_)), "{status:?}");
        assert!(waking_wires(&core, 3).is_empty());
        // Releasing a lane that holds wires wakes the drivers: one that
        // found it held has not seen them.
        let before = work_epoch(&core);
        assert_eq!(server.with_shard(0, |lane| lane.queued()), 5);
        assert_eq!(work_epoch(&core), before + 1);
        // A crash through the same hook writes the forming lane off,
        // ingress and all...
        server.with_shard(0, |lane| lane.crash());
        assert_eq!(core.host().book.unsettled(), 0);
        assert_eq!(work_epoch(&core), before + 1, "nothing left to wake for");
        // ...so the next wire starts a batch again.
        assert_eq!(waking_wires(&core, 16), [1, 16]);
    }

    #[test]
    fn a_crash_forgets_cached_replies_and_pending_tickets() {
        use crate::admission::{AdmissionConfig, TenantConfig, TenantId};
        let (mut server, _admin, mut clients) = sharded_counter(2, 2);
        let ids = clients.iter().map(LcmClient::id).collect();
        server.set_admission(AdmissionConfig::new(vec![TenantConfig::unlimited(
            TenantId(1),
            ids,
            1,
        )]));
        let core = Arc::clone(&server.core);
        // Client 1's operation executes, but its reply is lost on the
        // way back: the retry is answered from the host's cache.
        let lost = clients[0]
            .invoke_for::<Counter>(&Counter::inc_op(b"n", 1))
            .unwrap();
        assert_eq!(core.try_submit(lost).unwrap(), AdmitOutcome::Enqueued);
        assert_eq!(server.process_all().unwrap().len(), 1);
        let retry = clients[0].retry().unwrap();
        assert_eq!(core.try_submit(retry).unwrap(), AdmitOutcome::ReplayedReply);
        // Client 2's operation is still pending when the deployment
        // dies.
        let pending = clients[1]
            .invoke_for::<Counter>(&Counter::inc_op(b"n", 1))
            .unwrap();
        assert_eq!(core.try_submit(pending).unwrap(), AdmitOutcome::Enqueued);
        assert_eq!(core.host().book.unsettled(), 1);
        server.crash();
        assert_eq!(
            core.host().book.unsettled(),
            0,
            "pending tickets died with the host"
        );
        assert!(
            std::mem::take(&mut core.host().book.ready).is_empty(),
            "so did the replayed reply"
        );
        assert!(!server.boot().unwrap());
        // Both retries must reach the enclave (its §4.6.1 path) — not a
        // reply sealed by the dead instance, not a ticket that no
        // longer exists.
        for client in &mut clients {
            let retry = client.retry().unwrap();
            assert_eq!(core.try_submit(retry).unwrap(), AdmitOutcome::Enqueued);
        }
        assert_eq!(core.host().book.unsettled(), 2);
        for (id, wire) in server.process_all().unwrap() {
            let done = clients[id.0 as usize - 1].handle_reply(&wire).unwrap();
            assert_eq!(Counter::decode_result(&done.result), Some(u64::from(id.0)));
        }
        assert_eq!(core.host().book.unsettled(), 0);
    }
}
