//! The transport layer between clients and the host server: the
//! multi-producer concurrent [`Frontend`].
//!
//! The paper's model routes every client⇄T message through the server,
//! which may "intercept, modify, reorder, discard, or replay" them
//! (§2.3). [`Frontend`] materializes that topology at deployment
//! scale: a thread-safe ingress plane (any number of producer threads
//! submit through [`FrontendPort::send`] / [`Frontend::submit_shared`]),
//! per-shard driver loops running on an [`lcm_runtime::WorkerPool`],
//! and a reply demux plane that routes each released reply to its
//! client's port in that client's submission order. The untrusted host
//! becomes a concurrent message pump between clients and the enclaves.
//!
//! The pump comes in two forms and no third. With driver threads
//! attached it is continuous: drivers execute whatever arrives and
//! stream replies to the ports. A lane holding less than a batch
//! lingers up to [`BATCH_LINGER`] to fill; a lane that fills its batch
//! is driven at once. Between sweeps a driver parks on the shared
//! work signal until the nearest forming batch is due, and a
//! submission raises that signal only when it starts or fills a
//! lane's batch (`shard.rs` module docs, § Concurrent driving, has the
//! rule and why it loses no wire). No drivers (`Frontend::new(server, 0)`)
//! ⇒ the caller steps the server: [`BatchServer::step`] runs one batch
//! per lane through the drive [`ShardedServer`]'s own `step` runs,
//! which keeps batch arithmetic and crash scheduling deterministic in
//! the suites.
//!
//! There is one transport and one plane beneath it: the front-end
//! drives the shared core of a [`ShardedServer`] directly (a solo
//! server is the 1-lane deployment). The host *is* the link adversary,
//! so every wire attack is something the host does on the one path
//! every wire takes — `submit`, `process_all`, `submit_to_shard` — and
//! each power has a scenario that fails if the attack goes undetected
//! or the loss unrecovered (the `tests/` scenarios run in every
//! `all_modes!` row):
//!
//! | Host power | Scenario |
//! |------------|----------|
//! | drop a request | `end_to_end::lost_request_recovered_via_retry_over_links` |
//! | drop a reply | `end_to_end::lost_reply_recovered_via_cached_retry_over_links` |
//! | replay a request | `attacks::replayed_invoke_halts_context` |
//! | reorder a client's requests | `attacks::reordered_requests_from_one_client_detected` |
//! | tamper with an invoke | `attacks::tampered_invoke_halts_context` |
//! | tamper with a reply | `attacks::tampered_reply_halts_client` |
//! | hand a reply to the wrong client | `attacks::reply_swapped_between_clients_detected` |
//! | misdeliver a wire to another shard | `attacks::first_op_misdelivered_to_wrong_shard_detected`, `attacks::misdelivery_after_history_still_detected_by_enclave` |
//! | swap cross-shard replies | `shard::tests::swapped_cross_shard_genesis_replies_cannot_be_misattributed` |
//!
//! Shared drop/flow counters are atomic ([`TransportStats`]) and
//! readable from `&self` while other threads keep pumping.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use lcm_crypto::sha256::Digest;
use lcm_runtime::queue::BoundedQueue;
use lcm_runtime::WorkerPool;
use lcm_tee::attestation::Quote;

use crate::admission::{AdmitOutcome, HealthSnapshot, RetryAfter};
use crate::server::{BatchServer, Replies};
use crate::shard::{DriveStatus, ShardCore, ShardedServer};
use crate::types::ClientId;
use crate::Result;

/// Shared transport counters. Every field is atomic and every reader
/// takes `&self`, so a port, a test, or an operator dashboard
/// can observe drops and flow while pump threads keep running — no
/// `&mut` window required.
#[derive(Debug, Default)]
pub struct TransportStats {
    submitted: AtomicU64,
    delivered: AtomicU64,
    buffered: AtomicU64,
    dropped_replies: AtomicU64,
}

impl TransportStats {
    /// Wires accepted into the ingress plane.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::SeqCst)
    }

    /// Replies delivered onto a connected client port.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::SeqCst)
    }

    /// Replies buffered for collection (clients without a port).
    pub fn buffered(&self) -> u64 {
        self.buffered.load(Ordering::SeqCst)
    }

    /// Replies that could not be routed to any connected port and were
    /// dropped (client disconnected). A drop is not an error — the
    /// affected client simply retries — but it must be observable;
    /// tests assert on this instead of relying on the absence of
    /// panics.
    pub fn dropped_replies(&self) -> u64 {
        self.dropped_replies.load(Ordering::SeqCst)
    }
}

/// How long a [`Frontend`] driver thread lets a sub-batch-size lane
/// fill before executing it anyway. Free-running drivers would
/// otherwise execute one-wire batches the moment each producer's wire
/// lands, squandering the seal-and-store amortization; a fraction of a
/// typical store round-trip recovers full batches at a latency cost
/// one batch cycle amortizes away.
///
/// The linger bounds only a sub-batch: the wire that fills a lane's
/// batch wakes a parked driver, which executes it at once.
pub const BATCH_LINGER: Duration = Duration::from_micros(600);

// ---------------------------------------------------------------------------
// The concurrent front-end.
// ---------------------------------------------------------------------------

/// One client's reply queue inside the demux plane.
type PortRx = Arc<BoundedQueue<Vec<u8>>>;

/// Capacity of each client port's reply queue. Deep enough that a
/// draining client never stalls a driver; a client that stops draining
/// eventually exerts back-pressure on the demux instead of growing
/// host memory unboundedly.
const PORT_CAPACITY: usize = 4096;

struct Demux {
    ports: BTreeMap<ClientId, PortRx>,
    /// Replies for clients without a connected port, awaiting
    /// collection by [`Frontend::process_all`].
    buffer: VecDeque<(ClientId, Vec<u8>)>,
}

struct FrontendShared {
    shutdown: AtomicBool,
    demux: Mutex<Demux>,
    stats: Arc<TransportStats>,
}

impl FrontendShared {
    fn lock_demux(&self) -> MutexGuard<'_, Demux> {
        self.demux.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves every released reply out of the plane and onto its
    /// client's port (or the collection buffer). The demux lock makes
    /// take-and-route atomic, so two drivers can never reorder one
    /// client's replies between taking and routing them.
    fn dispatch(&self, core: &ShardCore) {
        let mut demux = self.lock_demux();
        for (client, wire) in core.take_ready() {
            match demux.ports.get(&client) {
                Some(rx) => {
                    // Count BEFORE the push: the receiving client may
                    // consume the reply and a joiner may read the
                    // stats before this thread runs another
                    // instruction.
                    self.stats.delivered.fetch_add(1, Ordering::SeqCst);
                    if rx.push(wire).is_err() {
                        // The port was disconnected (queue closed)
                        // after lookup: the reply has nowhere to go.
                        self.stats.delivered.fetch_sub(1, Ordering::SeqCst);
                        self.stats.dropped_replies.fetch_add(1, Ordering::SeqCst);
                    }
                }
                None => {
                    demux.buffer.push_back((client, wire));
                    self.stats.buffered.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }
}

/// A client's handle on the concurrent front-end: `&self` submission
/// into the ingress plane and a private reply queue fed by the demux
/// plane. Clone it freely; send it to the client's own thread.
#[derive(Clone)]
pub struct FrontendPort {
    id: ClientId,
    core: Arc<ShardCore>,
    rx: PortRx,
    stats: Arc<TransportStats>,
}

impl std::fmt::Debug for FrontendPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendPort")
            .field("id", &self.id)
            .field("pending_replies", &self.rx.len())
            .finish()
    }
}

impl FrontendPort {
    /// The client this port belongs to.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Submits an encrypted INVOKE toward the deployment
    /// (multi-producer safe; blocks only for ingress back-pressure).
    ///
    /// With admission control configured, a rejected wire
    /// is retried after the controller's suggested back-off until it
    /// is accepted — the blocking convenience over
    /// [`FrontendPort::try_send`]. Each absorbed bounce still counts
    /// in the tenant's row of [`Frontend::health_snapshot`].
    pub fn send(&self, wire: Vec<u8>) {
        /// Cap on one blocking-send back-off nap, so a shutdown or a
        /// policy change never strands the sender in a long sleep.
        const MAX_BACKOFF: Duration = Duration::from_millis(5);
        let mut wire = wire;
        loop {
            match self.try_send(wire) {
                Ok(_) => return,
                Err(rejection) => {
                    wire = rejection.wire;
                    std::thread::sleep(rejection.retry_after.min(MAX_BACKOFF));
                }
            }
        }
    }

    /// Admission-aware submission: consults the deployment's
    /// multi-tenant admission controller and returns without blocking
    /// on policy.
    /// `Ok` reports what happened to the wire (enqueued, replayed from
    /// the host reply cache, or coalesced with an in-flight
    /// duplicate); `Err` carries the wire back together with the
    /// typed back-pressure ([`RetryAfter::retry_after`] is the
    /// suggested nap). With no admission policy configured every wire
    /// is accepted.
    pub fn try_send(&self, wire: Vec<u8>) -> std::result::Result<AdmitOutcome, RetryAfter> {
        let outcome = self.core.try_submit(wire)?;
        // `submitted` counts wires the ingress plane accepted, matching
        // `delivered` at quiescence. Replayed and coalesced retries get
        // no fresh ticket; the admission controller counts them (and
        // rejections) per tenant in its health snapshot.
        if outcome == AdmitOutcome::Enqueued {
            self.stats.submitted.fetch_add(1, Ordering::SeqCst);
        }
        Ok(outcome)
    }

    /// Receives the next reply, if one has been delivered.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.rx.try_pop()
    }

    /// Blocks up to `timeout` for the next reply. `None` on timeout —
    /// the client's cue to retry (crash-tolerance extension §4.6.1).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Vec<u8>> {
        self.rx.pop_timeout(timeout)
    }
}

/// The concurrent transport front-end: a multi-producer ingress plane,
/// per-shard driver loops on a [`WorkerPool`] (or none, see below),
/// and a reply demux plane.
///
/// ```text
///  producer threads ──┐                ┌─ driver 0 ─▶ lane 0 ─┐
///  (FrontendPort::send├─▶ ingress plane┼─ driver 1 ─▶ lane 1 ─┼─▶ reply book ─▶ demux ─▶ ports
///   / Frontend::submit┘   (per-shard   └─ driver …  ▶ lane …  ┘   (global        (per-client
///        , &self)          BoundedQueues)                          ticket order)   FIFO queues)
/// ```
///
/// Ordering guarantee: replies to any one client leave the demux in
/// that client's submission order (global-ticket release order from
/// the shared core); tickets of a crash-stopped shard
/// are written off so they can never dam up the client's later
/// replies — the client retries those operations and the retries get
/// fresh tickets.
///
/// The front-end itself implements [`BatchServer`], so admin
/// bootstrap and scenario suites run on top unchanged:
/// control-plane calls forward to the wrapped server (serialized
/// against the drivers by the per-lane locks), `submit` feeds the
/// ingress plane, and `step` / `process_all` return the replies of
/// clients without a connected port. With drivers attached both wait
/// for quiescence; without drivers `step` runs one batch per lane on
/// the caller's behalf and `process_all` steps until nothing is
/// queued.
pub struct Frontend {
    server: ShardedServer,
    core: Arc<ShardCore>,
    shared: Arc<FrontendShared>,
    threads: usize,
    /// Driver threads (`None` without any); the pool's `Drop` joins
    /// them after `Frontend::drop` signals shutdown.
    drivers: Option<WorkerPool>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("lanes", &self.core.lanes())
            .field("threads", &self.threads)
            .field("queued", &self.core.queued())
            .finish()
    }
}

fn driver_loop(core: Arc<ShardCore>, shared: Arc<FrontendShared>) {
    /// How long a driver with no batch forming parks before it sweeps
    /// again unasked (a safety net: every lane that gains a wire wakes
    /// it first).
    const IDLE: Duration = Duration::from_millis(25);
    let mut epoch = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Sweep every lane; lanes another thread currently holds are
        // skipped, not waited on.
        let mut progress = false;
        let mut due: Option<Duration> = None;
        for lane in 0..core.lanes() {
            let revisit = match core.drive(lane, Some(BATCH_LINGER)) {
                DriveStatus::Progress => {
                    progress = true;
                    // Demux NOW, before touching the next lane: a drive
                    // can block a store round-trip, and replies sitting
                    // in the book that long would stall their
                    // producers' closed loops (and fragment the next
                    // batch).
                    shared.dispatch(&core);
                    continue;
                }
                DriveStatus::Idle => continue,
                DriveStatus::Waiting(left) => left,
                // Its holder may be no driver (a control-plane call, a
                // read): look again one linger later.
                DriveStatus::Busy => BATCH_LINGER,
            };
            due = Some(due.map_or(revisit, |d| d.min(revisit)));
        }
        shared.dispatch(&core);
        // Park until the nearest forming batch is due — or until a
        // wire starts or fills a batch, which is what ends the wait of
        // a lane that fills before its linger is out.
        if !progress {
            epoch = core.wait_work(epoch, due.unwrap_or(IDLE));
        }
    }
}

impl Frontend {
    /// Lifts `server` into a concurrent front-end with `threads`
    /// continuous driver threads (more drivers than lanes buys
    /// nothing). `threads == 0` attaches none and spawns no thread:
    /// the caller steps the server through [`BatchServer::step`] /
    /// [`BatchServer::process_all`].
    pub fn new(server: ShardedServer, threads: usize) -> Self {
        let core = server.core();
        let shared = Arc::new(FrontendShared {
            shutdown: AtomicBool::new(false),
            demux: Mutex::new(Demux {
                ports: BTreeMap::new(),
                buffer: VecDeque::new(),
            }),
            stats: Arc::new(TransportStats::default()),
        });
        let drivers = (threads > 0).then(|| {
            core.attach_drivers(threads);
            let pool = WorkerPool::new("lcm-frontend", threads, threads);
            for _ in 0..threads {
                let core = core.clone();
                let shared = shared.clone();
                pool.execute(move || driver_loop(core, shared));
            }
            pool
        });
        Frontend {
            server,
            core,
            shared,
            threads,
            drivers,
        }
    }

    /// Direct access to the wrapped server (boot, crash, shard hooks,
    /// stats). Control-plane calls made through it serialize against
    /// the drivers on the per-lane locks.
    pub fn server_mut(&mut self) -> &mut ShardedServer {
        &mut self.server
    }

    /// Shared access to the wrapped server's `&self` surface.
    pub fn server(&self) -> &ShardedServer {
        &self.server
    }

    /// The shared flow/drop counters (atomic, `&self`).
    pub fn stats(&self) -> Arc<TransportStats> {
        self.shared.stats.clone()
    }

    /// Wires accepted but not yet settled (reply released or written
    /// off) — the front-end's in-flight depth; `0` means quiescent.
    pub fn in_flight(&self) -> u64 {
        self.core.unsettled()
    }

    /// Installs (or replaces) the deployment's multi-tenant admission
    /// policy (see [`ShardedServer::configure_admission`]).
    pub fn set_admission(&self, config: crate::admission::AdmissionConfig) {
        self.core.admission.configure(config);
    }

    /// Point-in-time admission/latency health: per-tenant admit and
    /// reject counters plus p50/p99/p999 end-to-end latency per
    /// tenant × shard.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.core.admission.health_snapshot()
    }

    /// Connects a client, returning its thread-safe port. Replies for
    /// this client are henceforth routed to the port instead of the
    /// collection buffer. Reconnecting replaces (and closes) the
    /// previous port.
    pub fn connect(&self, id: ClientId) -> FrontendPort {
        let rx: PortRx = Arc::new(BoundedQueue::new(PORT_CAPACITY));
        let mut demux = self.shared.lock_demux();
        if let Some(old) = demux.ports.insert(id, rx.clone()) {
            old.close();
        }
        FrontendPort {
            id,
            core: self.core.clone(),
            rx,
            stats: self.shared.stats.clone(),
        }
    }

    /// Disconnects a client's port; replies for it are henceforth
    /// buffered (or, if the port queue was closed mid-dispatch,
    /// counted in [`TransportStats::dropped_replies`]).
    pub fn disconnect(&self, id: ClientId) -> bool {
        let mut demux = self.shared.lock_demux();
        match demux.ports.remove(&id) {
            Some(rx) => {
                rx.close();
                true
            }
            None => false,
        }
    }

    /// Submits one wire into the ingress plane (`&self`,
    /// multi-producer safe) without needing a port.
    pub fn submit_shared(&self, invoke_wire: Vec<u8>) {
        self.shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
        self.core.submit(invoke_wire);
    }

    /// Runs the deployment and returns the buffered replies of clients
    /// without a connected port. With drivers attached it wakes them
    /// and waits until every accepted wire has settled (reply released
    /// or written off). Without, it runs one batch per lane on this
    /// thread — again until nothing is queued when `until_idle` — and
    /// routes what that released.
    ///
    /// # Errors
    ///
    /// Surfaces the first lane failure recorded since the last call;
    /// buffered replies survive the error for the next call.
    fn pump(&mut self, until_idle: bool) -> Result<Replies> {
        if self.drivers.is_some() {
            self.core.notify_work();
            self.core.wait_quiescent();
            // The drive that settled the last ticket dispatched after
            // it, but dispatch defensively: a driver may have been
            // parked between its final drive and its dispatch when we
            // observed quiescence.
            self.shared.dispatch(&self.core);
            if let Some(e) = self.core.take_error() {
                return Err(e);
            }
        } else {
            loop {
                let driven = self.server.drive_lanes();
                self.shared.dispatch(&self.core);
                driven?;
                if !until_idle || self.core.queued() == 0 {
                    break;
                }
            }
        }
        let mut demux = self.shared.lock_demux();
        Ok(demux.buffer.drain(..).collect())
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        // Without drivers there is no thread to stop and no producer
        // blocked on a full ingress (it is relieved inline).
        let Some(drivers) = self.drivers.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.core.notify_work();
        self.core.detach_drivers(self.threads);
        // Free any producer blocked in back-pressure `push`: with the
        // drivers gone, nobody would ever drain the full queue it is
        // waiting on (later submits fall back to inline relief, since
        // no drivers are attached anymore).
        self.core.shed_ingress();
        // Join the drivers before the wrapped server is torn down.
        drop(drivers);
    }
}

impl BatchServer for Frontend {
    fn boot(&mut self) -> Result<bool> {
        self.server.boot()
    }
    fn crash(&mut self) {
        self.server.crash();
        // Replies already demuxed into the collection buffer died with
        // the host process, exactly like the sharded out-buffer.
        self.shared.lock_demux().buffer.clear();
    }
    fn is_running(&self) -> bool {
        self.server.is_running()
    }
    fn shard_count(&self) -> u32 {
        self.server.shard_count()
    }
    fn submit(&mut self, invoke_wire: Vec<u8>) {
        self.submit_shared(invoke_wire);
    }
    fn submit_to_shard(&mut self, shard: u32, invoke_wire: Vec<u8>) {
        self.shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
        self.core.submit_to_lane(shard, invoke_wire);
    }
    fn queued(&self) -> usize {
        self.core.queued()
    }
    fn batch_limit(&self) -> usize {
        self.server.batch_limit()
    }
    /// One batch per lane without drivers; with drivers, a wait for
    /// quiescence (they pump lanes independently, so there is no
    /// single-batch granularity to offer).
    fn step(&mut self) -> Result<Replies> {
        self.pump(false)
    }
    fn process_all(&mut self) -> Result<Replies> {
        self.pump(true)
    }
    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.server.admin(admin_wire)
    }
    fn export_migration(&mut self) -> Result<Vec<u8>> {
        self.server.export_migration()
    }
    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()> {
        self.server.import_migration(ticket)
    }
    /// Live slice migration on the wrapped server: the front-end shares
    /// the deployment's slice table through the ingress router, so the
    /// move is visible to wires routed by either path the moment the
    /// new epoch installs.
    fn migrate_slice(&mut self, slice: u32, to: u32) -> Result<()> {
        self.server.migrate_slice(slice, to)
    }
    fn routing_epoch(&self) -> u64 {
        self.server.routing_epoch()
    }
    fn take_slice_heat(&self) -> Vec<u64> {
        self.server.take_slice_heat()
    }
    fn batches_processed(&self) -> u64 {
        self.server.batches_processed()
    }
    fn ops_processed(&self) -> u64 {
        self.server.ops_processed()
    }
    fn flush_persists(&mut self) -> Result<()> {
        self.server.flush_persists()
    }
    fn replica_count(&self) -> u32 {
        self.server.replica_count()
    }
    /// Serves a verified read against the wrapped server. Reads bypass
    /// the ingress queue entirely — they never mutate state, so they
    /// need no ticket, no admission slot, and no driver; this is what
    /// lets them scale out across follower replicas while the write
    /// lanes keep executing.
    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.server.serve_read(read_wire)
    }
    fn read_port(&self) -> Option<Arc<dyn crate::server::ReadPort>> {
        self.server.read_port()
    }
    fn group_leader(&self, shard: u32) -> u32 {
        self.server.group_leader(shard)
    }
    fn attest_member(&mut self, shard: u32, replica: u32, user_data: Digest) -> Result<Quote> {
        self.server.attest_member(shard, replica, user_data)
    }
    fn provision_member(
        &mut self,
        shard: u32,
        replica: u32,
        sealed_payload: Vec<u8>,
    ) -> Result<()> {
        self.server.provision_member(shard, replica, sealed_payload)
    }
    fn kill_member(&mut self, shard: u32, replica: u32, power_failure: bool) -> Result<()> {
        self.server.kill_member(shard, replica, power_failure)
    }
    fn reboot_member(&mut self, shard: u32, replica: u32) -> Result<bool> {
        self.server.reboot_member(shard, replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminHandle;
    use crate::client::LcmClient;
    use crate::functionality::Counter;
    use crate::shard::{build_sharded, route_hash, shard_index};
    use crate::stability::Quorum;
    use lcm_storage::MemoryStorage;
    use lcm_tee::world::TeeWorld;
    use std::sync::Arc;

    fn frontend_counter(shards: u32, n_clients: u32, threads: usize) -> (Frontend, Vec<LcmClient>) {
        let world = TeeWorld::new_deterministic(70 + u64::from(shards));
        let server =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 16, shards, false);
        let mut fe = Frontend::new(server, threads);
        assert!(fe.boot().unwrap());
        let ids: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 7);
        admin.bootstrap(&mut fe).unwrap();
        let clients = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), shards))
            .collect();
        (fe, clients)
    }

    #[test]
    fn solo_server_runs_behind_the_frontend() {
        // A pre-built single-enclave server is the 1-lane deployment:
        // box it into a one-shard `ShardedServer` and lift that.
        use crate::functionality::AppendLog;
        use crate::server::LcmServer;
        let world = TeeWorld::new_deterministic(72);
        let platform = world.platform_deterministic(1);
        let solo = LcmServer::<AppendLog>::new(&platform, Arc::new(MemoryStorage::new()), 16);
        let mut fe = Frontend::new(ShardedServer::new(vec![Box::new(solo)]), 0);
        assert!(fe.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 8);
        admin.bootstrap(&mut fe).unwrap();
        let mut client = LcmClient::new(ClientId(1), admin.client_key());
        fe.submit(client.invoke(b"hello").unwrap());
        let replies = fe.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(client.handle_reply(&replies[0].1).unwrap().seq.0, 1);
    }

    #[test]
    fn unknown_port_reply_is_counted_not_panicked() {
        // A reply for a client without a connected port has no queue
        // to land on: it is buffered for collection — and counted —
        // while the connected client's reply goes to its port.
        let (mut fe, mut clients) = frontend_counter(2, 2, 0);
        let port = fe.connect(clients[0].id());
        for (i, client) in clients.iter_mut().enumerate() {
            let name = format!("ctr-{i}").into_bytes();
            fe.submit_shared(
                client
                    .invoke_for::<Counter>(&Counter::inc_op(&name, 1))
                    .unwrap(),
            );
        }
        let orphans = fe.process_all().unwrap();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].0, clients[1].id());
        assert!(port.try_recv().is_some());
        let stats = fe.stats();
        assert_eq!(stats.buffered(), 1);
        assert_eq!(stats.delivered(), 1);
        assert_eq!(stats.dropped_replies(), 0);
    }

    #[test]
    fn stats_are_readable_from_another_thread_mid_pump() {
        // Drop/flow statistics are atomic and shared — an observer
        // thread holding only the stats Arc sees them move while the
        // pump owner keeps the `&mut Frontend`.
        let (mut fe, mut clients) = frontend_counter(1, 1, 0);
        let port = fe.connect(clients[0].id());
        let stats = fe.stats();
        let observer = std::thread::spawn(move || {
            // Wait (bounded) until a delivery becomes visible.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while std::time::Instant::now() < deadline {
                if stats.delivered() >= 1 {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        });
        port.send(
            clients[0]
                .invoke_for::<Counter>(&Counter::inc_op(b"n", 1))
                .unwrap(),
        );
        fe.process_all().unwrap();
        assert!(observer.join().unwrap(), "observer saw the delivery");
    }

    #[test]
    fn frontend_ports_deliver_replies_to_their_clients() {
        let (fe, mut clients) = frontend_counter(4, 3, 2);
        let ports: Vec<FrontendPort> = clients.iter().map(|c| fe.connect(c.id())).collect();
        for (i, (client, port)) in clients.iter_mut().zip(&ports).enumerate() {
            let name = format!("ctr-{i}").into_bytes();
            port.send(
                client
                    .invoke_for::<Counter>(&Counter::inc_op(&name, 1 + i as u64))
                    .unwrap(),
            );
        }
        for (i, (client, port)) in clients.iter_mut().zip(&ports).enumerate() {
            let reply = port
                .recv_timeout(Duration::from_secs(10))
                .expect("reply delivered to this client's port");
            let done = client.handle_reply(&reply).unwrap();
            assert_eq!(Counter::decode_result(&done.result), Some(1 + i as u64));
        }
        let stats = fe.stats();
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.delivered(), 3);
        assert_eq!(stats.dropped_replies(), 0);
    }

    #[test]
    fn ondemand_frontend_defers_processing_until_pumped() {
        let (mut fe, mut clients) = frontend_counter(2, 1, 0);
        let wire = clients[0]
            .invoke_for::<Counter>(&Counter::inc_op(b"n", 1))
            .unwrap();
        fe.submit(wire);
        // Nothing processed until the pump asks — the property the
        // deterministic crash-scheduling suites depend on.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(fe.ops_processed(), 0);
        assert_eq!(fe.queued(), 1);
        let replies = fe.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(fe.ops_processed(), 1);
    }

    #[test]
    fn an_on_demand_step_runs_one_batch_per_lane() {
        // Without drivers, `step` keeps `BatchServer`'s contract: one
        // batch per lane, the rest stays queued for the next call.
        let (mut fe, mut clients) = frontend_counter(1, 20, 0);
        for client in &mut clients {
            fe.submit(
                client
                    .invoke_for::<Counter>(&Counter::inc_op(b"n", 1))
                    .unwrap(),
            );
        }
        let replies = fe.step().unwrap();
        assert_eq!(replies.len(), 16);
        assert_eq!(fe.queued(), 4);
        assert_eq!(fe.batches_processed(), 1);
        assert_eq!(fe.process_all().unwrap().len(), 4);
    }

    #[test]
    fn frontend_disconnect_counts_dropped_replies() {
        let (mut fe, mut clients) = frontend_counter(2, 1, 0);
        let port = fe.connect(clients[0].id());
        port.send(
            clients[0]
                .invoke_for::<Counter>(&Counter::inc_op(b"x", 1))
                .unwrap(),
        );
        assert!(fe.disconnect(clients[0].id()));
        let replies = fe.process_all().unwrap();
        // With the port gone before the pump, the reply lands in the
        // collection buffer instead (never silently vanishing).
        assert_eq!(replies.len(), 1);
        assert!(!fe.disconnect(clients[0].id()));
    }

    #[test]
    fn frontend_violation_surfaces_from_pump() {
        let (mut fe, mut clients) = frontend_counter(2, 1, 2);
        let mut wire = clients[0]
            .invoke_for::<Counter>(&Counter::inc_op(b"bad", 1))
            .unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        fe.submit(wire);
        let err = fe.process_all().unwrap_err();
        assert!(err.is_violation(), "got {err:?}");
    }

    #[test]
    fn a_full_batch_does_not_wait_out_the_linger() {
        // One lane, one driver, sixteen clients. In a `filled` round
        // the first wire starts the lane's linger clock and the other
        // fifteen fill the batch, and the driver must run it then — not
        // when the linger is out. A `whole` round, alternated with it,
        // reads what sending and answering a batch cost on this build:
        // all sixteen wires land while the lane is held, so the driver
        // finds the batch full once woken. Either clock runs from the
        // last sends to the last reply, across one wake-up.
        const ROUNDS: usize = 20;
        let (mut fe, mut clients) = frontend_counter(1, 16, 1);
        let ports: Vec<FrontendPort> = clients.iter().map(|c| fe.connect(c.id())).collect();
        // Both kinds of round send one wire, pause while the driver
        // takes it in, then send the other fifteen: the clock starts
        // there. The pause yields, neither sleeps (a nap this short
        // overshoots by the timer slack, which alone can spend the third
        // of the linger a counted round has) nor spins without yielding
        // (the driver is woken onto this thread's core).
        let send_round = |wires: Vec<Vec<u8>>, first: std::time::Instant| {
            let mut sends = ports.iter().zip(wires);
            let (port, wire) = sends.next().unwrap();
            port.send(wire);
            while first.elapsed() < BATCH_LINGER / 6 {
                std::thread::yield_now();
            }
            let start = std::time::Instant::now();
            sends.for_each(|(port, wire)| port.send(wire));
            start
        };
        let (mut filled, mut whole) = (Vec::new(), Vec::new());
        for round in 0..20 * ROUNDS {
            if filled.len() == ROUNDS && whole.len() == ROUNDS {
                break;
            }
            let op = Counter::inc_op(b"n", 1);
            let wires = clients
                .iter_mut()
                .map(|c| c.invoke_for::<Counter>(&op).unwrap());
            let wires: Vec<Vec<u8>> = wires.collect();
            let first = std::time::Instant::now();
            let (start, times) = if round % 2 == 0 {
                (send_round(wires, first), &mut filled)
            } else {
                let start = fe.server_mut().with_shard(0, |_| send_round(wires, first));
                // Releasing the lane woke the driver already; wake it
                // here as well so the control does not rest on that.
                fe.core.notify_work();
                (start, &mut whole)
            };
            // Count only rounds whose wires all landed in the first third
            // of the linger: a driver that waits it out then costs at
            // least the other two thirds. (On a loaded host the pause or
            // the sends can outlast the linger, and part of the batch
            // runs at the deadline whatever the drivers do.)
            let counted = first.elapsed() < BATCH_LINGER / 3;
            let replies: Vec<Vec<u8>> = ports
                .iter()
                .map(|p| p.recv_timeout(Duration::from_secs(10)).expect("reply"))
                .collect();
            if counted && times.len() < ROUNDS {
                times.push(start.elapsed());
            }
            for (client, reply) in clients.iter_mut().zip(&replies) {
                client.handle_reply(reply).unwrap();
            }
        }
        assert_eq!(
            (filled.len(), whole.len()),
            (ROUNDS, ROUNDS),
            "too few rounds beat the linger"
        );
        // Lower quartiles: a loaded host adds whole scheduler slices to
        // some rounds of either kind, never takes time away.
        let quartile = |mut times: Vec<Duration>| {
            times.sort();
            times[times.len() / 4]
        };
        let (filled, whole) = (quartile(filled), quartile(whole));
        assert!(
            filled < whole + BATCH_LINGER / 3,
            "a batch filled while lingering took {filled:?} to answer, a whole one {whole:?}"
        );
    }

    #[test]
    fn a_held_lane_does_not_stall_its_siblings() {
        // Four lanes, two drivers, and lane 0 held by a control-plane
        // call with wires queued behind it: a driver that waited for
        // the lane instead of skipping it would leave lane 2's client
        // unanswered until the lane is released.
        let (mut fe, mut clients) = frontend_counter(4, 3, 2);
        let ports: Vec<FrontendPort> = clients.iter().map(|c| fe.connect(c.id())).collect();
        let names = [
            crate::shard::nth_key_routing_to(0, 4, "held", 0),
            crate::shard::nth_key_routing_to(0, 4, "held", 1),
            crate::shard::nth_key_routing_to(2, 4, "free", 0),
        ];
        let wires: Vec<Vec<u8>> = clients
            .iter_mut()
            .zip(&names)
            .map(|(c, name)| c.invoke_for::<Counter>(&Counter::inc_op(name, 1)).unwrap())
            .collect();
        let sibling = fe.server_mut().with_shard(0, |_| {
            for (port, wire) in ports.iter().zip(wires) {
                port.send(wire);
            }
            let reply = ports[2].recv_timeout(Duration::from_secs(30));
            assert!(ports[0].try_recv().is_none(), "lane 0 is held");
            reply
        });
        let reply = sibling.expect("lane 2 answered while lane 0 was held");
        clients[2].handle_reply(&reply).unwrap();
        for (client, port) in clients.iter_mut().zip(&ports).take(2) {
            let reply = port
                .recv_timeout(Duration::from_secs(30))
                .expect("lane 0's queued wires complete once it is released");
            client.handle_reply(&reply).unwrap();
        }
    }

    #[test]
    fn frontend_preserves_per_client_order_across_lanes() {
        let (fe, mut clients) = frontend_counter(4, 1, 4);
        let client = &mut clients[0];
        let port = fe.connect(client.id());
        // Up to four ops pipelined across distinct shards.
        let mut names = Vec::new();
        let mut covered = [false; 4];
        for i in 0..64u32 {
            let name = format!("k{i}").into_bytes();
            let shard = shard_index(route_hash(&name), 4) as usize;
            if !covered[shard] {
                covered[shard] = true;
                names.push(name);
            }
        }
        client.set_recording(true);
        for (i, name) in names.iter().enumerate() {
            port.send(
                client
                    .invoke_for::<Counter>(&Counter::inc_op(name, 1 + i as u64))
                    .unwrap(),
            );
        }
        for _ in 0..names.len() {
            let reply = port.recv_timeout(Duration::from_secs(10)).expect("reply");
            client.handle_reply(&reply).unwrap();
        }
        // Replies arrived in submission order: the recorded completions
        // carry the ops in exactly the order they were invoked.
        let recorded: Vec<Vec<u8>> = client.records().iter().map(|r| r.op.clone()).collect();
        let submitted: Vec<Vec<u8>> = names
            .iter()
            .enumerate()
            .map(|(i, n)| Counter::inc_op(n, 1 + i as u64))
            .collect();
        assert_eq!(recorded, submitted);
        assert!(!client.has_pending());
    }
}
