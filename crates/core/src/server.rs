//! The host server: enclave + stable storage + request batching.
//!
//! [`LcmServer`] is the *correct* server of the paper's model (§4.2.4):
//! it restarts the enclave after crashes, persists sealed blobs, and
//! forwards messages FIFO. A malicious server is modelled in tests by
//! driving the same pieces directly — restarting the enclave from stale
//! storage ([`lcm_storage::RollbackStorage`]), running two enclaves
//! over forked storage, or tampering with links — because the adversary
//! has exactly the host's powers, no more.
//!
//! ## Three roles, one type or trait each
//!
//! The paper has one server `S` hosting one context `T`; this stack
//! nests three roles around that pair, and each has exactly its own
//! verbs:
//!
//! * a **member** — the paper's `S` + `T`: [`LcmServer`], a concrete
//!   type. Its member-only verbs ([`LcmServer::apply_replica`],
//!   [`LcmServer::take_record`], [`LcmServer::sealed_state`], and
//!   [`LcmServer::import_migration`] under a replica slot) are
//!   inherent methods a replica group calls on the members it owns;
//!   no trait carries them.
//!
//! `LcmServer<F, P>` takes its enclave program `P` as a type parameter
//! that defaults to [`LcmProgram<F>`](crate::program::LcmProgram). Its
//! host loop — the queue, one `InvokeBatch` ecall per batch, replies
//! home in their requests' buffers, synchronous or pipelined persists
//! — serves any [`crate::program::DataPlane`] program; [`Lane`] and the
//! LCM-only verbs exist for the default program alone. The SGX-only
//! baseline (`lcm_kvs::baseline::SgxKvsServer`) is an `LcmServer` over
//! its own program: the lane minus the protocol, in none of the roles.
//! * a **shard** — [`Lane`]: one member on its own ([`LcmServer`]) or
//!   2f+1 of them ([`crate::replica::ReplicaGroup`]), members addressed
//!   by `replica`. It is what a [`crate::shard::ShardedServer`] holds
//!   per shard, and where the per-lane steps of a slice move live.
//! * a **deployment** — [`BatchServer`]: what clients, the admin
//!   handle and scenarios hold, members addressed by `(shard,
//!   replica)`: [`crate::shard::ShardedServer`] and — through one
//!   blanket impl — every [`Lane`] on its own as the one-shard
//!   deployment.
//!
//! ## Buffer lifecycle
//!
//! A request's bytes and its reply's share one buffer, allocated and
//! freed on the thread of the client that sent it. The client library
//! seals the INVOKE into a fresh `Vec` on the client's thread
//! ([`crate::client::LcmClient::invoke`]); the host moves that `Vec`
//! by value — [`BatchServer::submit`], a shard's ingress, the lane's
//! queue — to the lane thread that runs [`LcmServer::step`], which
//! encodes the batch's wires by reference into its reused call buffer
//! and makes one ecall. The enclave answers into one output buffer per
//! call, allocated and freed on that lane thread (see
//! [`crate::program`]); `step` copies reply *i* into wire *i* — the
//! client's own buffer, grown only if the reply is larger, and swapped
//! for an exact copy only if it is over a page and more than twice the
//! reply, so a waiting reply never holds a large request's memory —
//! and returns the wires as the [`Replies`], paired 1:1 and in order with
//! the batch's wires. They travel back through the reply book to the
//! client, which frees them after verifying (or reuses them). A
//! verified read takes the same round trip: [`LcmServer::serve_read`]
//! takes the leg by value and returns the reply in it. The sealed
//! blobs a batch persists are allocated on the lane thread and freed
//! there, or on the background writer's thread in asynchronous-write
//! mode. An error reply, or a reply that does not answer exactly the
//! batch's wires, is the step's `Err` and drops the batch's wires on
//! the lane thread: the shard crash-stops, and its tickets are written
//! off ([`crate::shard`]).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;

use lcm_crypto::aead::Tag;
use lcm_crypto::sha256::Digest;
use lcm_storage::{BundleStorage, StableStorage};
use lcm_tee::attestation::{Quote, QuotingEnclave, Report};
use lcm_tee::enclave::{Enclave, EnclaveProgram};
use lcm_tee::platform::TeePlatform;

use crate::codec::{Reader, WireCodec};
use crate::context::PersistBlobs;
use crate::functionality::Functionality;
use crate::pipeline::{PersistWriter, DEFAULT_WRITER_QUEUE};
use crate::program::{decode_blobs, HostCall, HostReply, LcmProgram, REPLY_BATCH, REPLY_READ};
use crate::types::ClientId;
use crate::{LcmError, Result};

/// Storage slot for the sealed key blob.
pub const SLOT_KEY_BLOB: &str = "lcm.keyblob";
/// Storage slot for the sealed state blob.
pub const SLOT_STATE_BLOB: &str = "lcm.state";

/// Default batch limit, matching the paper's evaluation configuration
/// ("batching of up to 16 operations", §6.4).
pub const DEFAULT_BATCH_LIMIT: usize = 16;

/// Replies produced by one processing step, routed per client.
pub type Replies = Vec<(ClientId, Vec<u8>)>;

/// An honest host server for an LCM-protected service.
///
/// # Example
///
/// See `examples/quickstart.rs` for the full bootstrap + operation
/// flow; construction is
///
/// ```
/// use lcm_core::functionality::AppendLog;
/// use lcm_core::server::LcmServer;
/// use lcm_storage::MemoryStorage;
/// use lcm_tee::world::TeeWorld;
/// use std::sync::Arc;
///
/// let world = TeeWorld::new_deterministic(1);
/// let platform = world.platform(1);
/// let storage = Arc::new(MemoryStorage::new());
/// let server = LcmServer::<AppendLog>::new(&platform, storage, 16);
/// # let _ = server;
/// ```
///
/// The enclave program `P` is LCM's by default (module docs, § Three
/// roles).
pub struct LcmServer<F: Functionality, P: EnclaveProgram = LcmProgram<F>> {
    enclave: Enclave<P>,
    quoting: QuotingEnclave,
    storage: Arc<dyn StableStorage>,
    batch_limit: usize,
    queue: VecDeque<Vec<u8>>,
    /// Total batches processed (one sealed store each) — used by the
    /// batching experiments.
    batches_processed: u64,
    /// Total invoke messages processed.
    ops_processed: u64,
    /// Reusable host-call encode buffer: one ecall per batch reuses the
    /// same allocation instead of building a fresh `Vec` each time.
    call_scratch: crate::codec::Writer,
    /// Reusable batch container for the wires drained out of the queue.
    batch_scratch: Vec<Vec<u8>>,
    /// The persist policy: `None` stores each batch's sealed blobs
    /// inline (synchronous write); `Some` hands them to a background
    /// writer (asynchronous write, see [`crate::pipeline`]).
    writer: Option<PersistWriter>,
    /// The replication record the enclave emitted with the last batch
    /// (group members only), until the group takes it
    /// ([`LcmServer::take_record`]).
    record: Option<Vec<u8>>,
    /// Sealed deltas this member applied as a replica and has not
    /// stored yet, in chain order; [`LcmServer::flush`] stores them in
    /// one [`StableStorage::store_all`].
    buffered: Vec<Vec<u8>>,
    /// The service the program runs.
    functionality: PhantomData<fn() -> F>,
}

impl<F: Functionality, P: EnclaveProgram> std::fmt::Debug for LcmServer<F, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LcmServer")
            .field("running", &self.enclave.is_running())
            .field("queued", &self.queue.len())
            .field("batch_limit", &self.batch_limit)
            .field("pending_persists", &self.pending_persists())
            .field("buffered_records", &self.buffered.len())
            .finish()
    }
}

impl<F: Functionality, P: EnclaveProgram> LcmServer<F, P> {
    /// Creates a server on `platform` persisting to `storage`,
    /// batching up to `batch_limit` operations per seal-and-store
    /// cycle (1 disables batching).
    ///
    /// Every batch seals O(batch) bytes whatever `storage` is: a store
    /// that is not [`StableStorage::delta_capable`] gets a
    /// [`BundleStorage`] around it, which keeps its one state slot as
    /// `checkpoint ‖ deltas`. The *device* still takes that slot whole
    /// per batch — O(state) bytes. A deployment built with
    /// `lcm::deployment::DeploymentBuilder` does not pay that: it puts
    /// one [`lcm_storage::DeltaLogStorage`] over such a medium, which
    /// journals the deltas, and this constructor leaves a delta-capable
    /// store alone. A bare server keeps the adapter because its one
    /// slot is one coherent sealed state, the paper's load/store unit
    /// that a test's adversarial store rolls back and forks by name.
    pub fn new(
        platform: &TeePlatform,
        storage: Arc<dyn StableStorage>,
        batch_limit: usize,
    ) -> Self {
        let storage = if storage.delta_capable() {
            storage
        } else {
            Arc::new(BundleStorage::new(storage))
        };
        LcmServer {
            enclave: Enclave::create(platform),
            quoting: QuotingEnclave::new(platform),
            storage,
            batch_limit: batch_limit.max(1),
            queue: VecDeque::new(),
            batches_processed: 0,
            ops_processed: 0,
            call_scratch: crate::codec::Writer::new(),
            batch_scratch: Vec::new(),
            writer: None,
            record: None,
            buffered: Vec::new(),
            functionality: PhantomData,
        }
    }

    /// Switches this server to the paper's asynchronous-write mode:
    /// from now on each batch's sealed blobs persist on a background
    /// writer thread while the enclave executes the next batch (see
    /// [`crate::pipeline`] for back-pressure and the durability
    /// window). Uses the default writer-queue capacity.
    pub fn into_pipelined(self) -> Self {
        self.into_pipelined_with_queue(DEFAULT_WRITER_QUEUE)
    }

    /// [`LcmServer::into_pipelined`] with an explicit writer-queue
    /// bound (min 1).
    pub fn into_pipelined_with_queue(mut self, queue_capacity: usize) -> Self {
        self.writer = Some(PersistWriter::spawn(self.storage.clone(), queue_capacity));
        self
    }

    /// Starts (or restarts after a crash) the enclave and runs `init`
    /// with whatever blobs stable storage currently returns.
    ///
    /// Returns `true` when the context needs provisioning (first boot).
    ///
    /// # Errors
    ///
    /// Propagates TEE, storage, and context errors, plus deferred
    /// writer errors.
    pub fn boot(&mut self) -> Result<bool> {
        // Recovery reads storage host-side, before the `Init` call:
        // drain the writer first so it sees every completed persist.
        self.flush()?;
        if self.enclave.is_running() {
            self.enclave.stop();
        }
        self.enclave.start()?;
        let key_blob = self.storage.load(SLOT_KEY_BLOB)?;
        let state_blob = self.storage.load(SLOT_STATE_BLOB)?;
        // Encoded from the loaded blobs into a buffer of its own,
        // dropped with them after the call: `call_scratch` is sized by
        // batches and lives as long as the lane, a recovery bundle is
        // sized by the state and needed once.
        let mut init = crate::codec::Writer::new();
        HostCall::encode_init_into(
            &mut init,
            key_blob.as_deref(),
            state_blob.as_deref(),
            self.storage.delta_capable(),
        );
        let reply = HostReply::from_bytes(&self.enclave.ecall(init.as_slice())?)?;
        match reply {
            HostReply::InitOk { need_provision } => Ok(need_provision),
            HostReply::Err(e) => Err(e.into_lcm_error()),
            other => Err(unexpected(other)),
        }
    }

    /// Simulates a crash of the server *process*: the enclave's
    /// volatile memory is lost, but writes already handed to the
    /// background writer complete (the kernel still has them). Call
    /// [`LcmServer::boot`] to recover.
    pub fn crash(&mut self) {
        self.stop(false);
    }

    /// Simulates a power failure: the enclave dies *and* sealed
    /// snapshots still queued for writing are lost. Returns how many
    /// snapshots were dropped (always 0 in synchronous mode). Recovery
    /// boots from the last state that reached the medium; clients
    /// whose acknowledged operations were rolled back detect the gap
    /// on their next operation.
    pub fn crash_power_failure(&mut self) -> usize {
        self.stop(true)
    }

    /// Buffered replica records die with the process on either kind of
    /// crash: they never reached the kernel. A replica group never
    /// counted them as held (see [`crate::replica`]).
    fn stop(&mut self, power_failure: bool) -> usize {
        let dropped = self.writer.as_ref().map_or(0, |w| w.crash(power_failure));
        self.enclave.stop();
        self.queue.clear();
        self.record = None;
        self.buffered.clear();
        dropped
    }

    /// Whether the enclave is currently running.
    pub fn is_running(&self) -> bool {
        self.enclave.is_running()
    }

    /// Number of seal-and-store cycles performed.
    pub fn batches_processed(&self) -> u64 {
        self.batches_processed
    }

    /// Number of INVOKE messages processed.
    pub fn ops_processed(&self) -> u64 {
        self.ops_processed
    }

    /// Enqueues an encrypted INVOKE message (paper §5.3: requests are
    /// collected in a bounded queue).
    pub fn submit(&mut self, invoke_wire: Vec<u8>) {
        self.queue.push_back(invoke_wire);
    }

    /// Number of queued, unprocessed messages.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Processes one batch (up to the batch limit): a single ecall, a
    /// single seal-and-store, replies routed per client — each in the
    /// buffer its request was submitted in (module docs, § Buffer
    /// lifecycle). In
    /// asynchronous-write mode the sealed state is queued for the
    /// background writer and the replies return before the disk write
    /// completes; the call blocks only when the writer queue is full
    /// (back-pressure).
    ///
    /// # Errors
    ///
    /// Propagates violations detected inside the context — an honest
    /// server would crash-stop at this point — plus deferred writer
    /// errors from earlier batches.
    pub fn step(&mut self) -> Result<Vec<(ClientId, Vec<u8>)>> {
        if let Some(writer) = &self.writer {
            writer.check()?;
        }
        if self.queue.is_empty() {
            return Ok(Vec::new());
        }
        let take = self.batch_limit.min(self.queue.len());
        // Hot path: reuse the batch container and the call encode
        // buffer across batches instead of allocating per step.
        self.batch_scratch.clear();
        self.batch_scratch.extend(self.queue.drain(..take));
        let n_ops = self.batch_scratch.len() as u64;
        self.call_scratch.clear();
        HostCall::encode_invoke_batch_into(&mut self.call_scratch, &self.batch_scratch);
        let out = self.enclave.ecall(self.call_scratch.as_slice())?;
        // Each reply rides home in the buffer its request came in.
        let (replies, mut blobs) = batch_replies(&out, &mut self.batch_scratch)?;
        // Freed before the store copies the blobs, which can then
        // reuse its memory.
        drop(out);
        self.batches_processed += 1;
        self.ops_processed += n_ops;
        // The record goes up to the group, not down to storage.
        self.record = blobs.record.take();
        // Records this member buffered as a follower land first, on
        // either persist path: the slot takes records in chain order.
        self.store_buffered()?;
        match &mut self.writer {
            Some(writer) => writer.submit(blobs)?,
            None => self.persist(&blobs)?,
        }
        Ok(replies)
    }

    /// Stores the replica records [`LcmServer::apply_replica`]
    /// buffered, in one [`StableStorage::store_all`], then blocks until
    /// every sealed snapshot handed to the background writer has been
    /// persisted and surfaces any storage error the writer hit. With
    /// nothing buffered, a no-op in synchronous mode.
    ///
    /// # Errors
    ///
    /// [`LcmError::Storage`] if storing the buffer or an asynchronous
    /// persist failed.
    pub fn flush(&mut self) -> Result<()> {
        self.store_buffered()?;
        self.writer_barrier()
    }

    /// Replica records applied in the enclave but not yet stored: what
    /// the next [`LcmServer::flush`] writes.
    pub fn buffered_records(&self) -> usize {
        self.buffered.len()
    }

    /// Stores the buffered replica records, oldest first, in one
    /// write. The buffer empties even if the write fails: what a store
    /// took in part must not be handed to it again.
    fn store_buffered(&mut self) -> Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let blobs: Vec<&[u8]> = self.buffered.iter().map(Vec::as_slice).collect();
        let stored = self.storage.store_all(SLOT_STATE_BLOB, &blobs);
        self.buffered.clear();
        Ok(stored?)
    }

    /// Blocks until the background writer's queue is empty; a no-op in
    /// synchronous mode.
    fn writer_barrier(&self) -> Result<()> {
        self.writer.as_ref().map_or(Ok(()), PersistWriter::flush)
    }

    /// Sealed snapshots fully persisted by the background writer so
    /// far (0 in synchronous mode, which has no writer to count).
    pub fn persists_completed(&self) -> u64 {
        self.writer.as_ref().map_or(0, PersistWriter::persisted)
    }

    /// Sealed snapshots currently waiting in the writer queue.
    pub fn pending_persists(&self) -> usize {
        self.writer.as_ref().map_or(0, PersistWriter::pending)
    }

    /// How many times execution blocked because the writer queue was
    /// full — the back-pressure signal.
    pub fn backpressure_events(&self) -> u64 {
        self.writer
            .as_ref()
            .map_or(0, PersistWriter::blocked_pushes)
    }

    /// Processes all queued messages, batch by batch.
    ///
    /// # Errors
    ///
    /// Same as [`LcmServer::step`].
    pub fn process_all(&mut self) -> Result<Vec<(ClientId, Vec<u8>)>> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            out.extend(self.step()?);
        }
        Ok(out)
    }

    /// Stores `blobs` inline, behind the buffered replica records, so
    /// the slot receives records in chain order.
    fn persist(&mut self, blobs: &PersistBlobs) -> Result<()> {
        self.store_buffered()?;
        Ok(store_blobs(&*self.storage, blobs)?)
    }
}

/// The LCM-only verbs: provisioning, attestation, admin, migration,
/// replication, slice moves and verified reads exist for the default
/// program alone.
impl<F: Functionality> LcmServer<F> {
    /// Forwards the admin's provisioning payload and persists the
    /// returned blobs.
    ///
    /// # Errors
    ///
    /// Propagates context errors (e.g. already provisioned).
    pub fn provision(&mut self, sealed_payload: Vec<u8>) -> Result<()> {
        self.call_and_persist(HostCall::Provision(sealed_payload))
    }

    /// Produces an attestation [`Quote`] over `user_data` for a remote
    /// verifier.
    ///
    /// # Errors
    ///
    /// Propagates TEE errors (enclave stopped, quoting failure).
    pub fn attest(&mut self, user_data: Digest) -> Result<Quote> {
        let reply = self.ecall(HostCall::Attest(user_data))?;
        let report_bytes = match reply {
            HostReply::AttestOk(bytes) => bytes,
            other => return Err(unexpected(other)),
        };
        let report = Report::from_bytes(&report_bytes)
            .ok_or_else(|| LcmError::Tee("malformed report".into()))?;
        Ok(self.quoting.quote(&report)?)
    }

    /// Forwards an encrypted admin message and persists the resulting
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    pub fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        match self.call(HostCall::Admin(admin_wire))? {
            HostReply::AdminOk { reply, blobs } => {
                self.persist(&blobs)?;
                Ok(reply)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Origin side of migration (§4.6.2): exports the ticket and stops
    /// serving.
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    pub fn export_migration(&mut self) -> Result<Vec<u8>> {
        match self.call(HostCall::ExportMigration)? {
            HostReply::MigrationTicket(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    /// Target side of migration: imports the ticket into a freshly
    /// booted, unprovisioned enclave and persists the re-sealed blobs.
    /// With `slot = Some((replica, replicas))` the enclave adopts the
    /// ticket's shard slot as member `replica` of a group of
    /// `replicas` — how one migration ticket fans out to every member
    /// of a replicated target group.
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    pub fn import_migration(&mut self, ticket: Vec<u8>, slot: Option<(u32, u32)>) -> Result<()> {
        self.call_and_persist(HostCall::ImportMigration { ticket, slot })
    }

    /// Applies one record of the group's replication stream in this
    /// server's enclave, returning the tag the enclave verified (the
    /// record's last 16 bytes: the acknowledgement a replica group
    /// counts toward quorum stability). See
    /// [`crate::context::TrustedContext::apply_replica`].
    ///
    /// What the enclave hands back to persist is stored only if it is
    /// a sealed state (an install, or this member's own cadence
    /// checkpoint), after the buffered records. A sealed delta is
    /// buffered instead, until [`LcmServer::flush`] or any other store
    /// writes the buffer: the group decides when a follower's medium
    /// must hold a record (see [`crate::replica`]).
    ///
    /// # Errors
    ///
    /// Propagates context errors; [`LcmError::RecordOutOfOrder`]
    /// leaves enclave, buffer and storage untouched.
    pub fn apply_replica(&mut self, record: &[u8]) -> Result<Tag> {
        // Control-plane barrier, as in `call`: the apply's persist
        // must land on top of everything the writer still holds.
        self.writer_barrier()?;
        self.call_scratch.clear();
        HostCall::encode_apply_replica_into(&mut self.call_scratch, record);
        match self.ecall_encoded()? {
            HostReply::ApplyOk { ack, blobs } => {
                if blobs.state_blob.first() == Some(&lcm_storage::BLOB_KIND_DELTA) {
                    self.buffered.push(blobs.state_blob);
                } else {
                    self.persist(&blobs)?;
                }
                Ok(ack)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Takes the replication record the enclave emitted with the last
    /// executed batch (see [`crate::context::PersistBlobs::record`]).
    /// `None` when there was none to emit — the server is no group
    /// member, its functionality does not track changes, or the last
    /// call was control-plane — and the sealed state itself
    /// ([`LcmServer::sealed_state`]) is what followers install.
    pub fn take_record(&mut self) -> Option<Vec<u8>> {
        self.record.take()
    }

    /// What this server's state slot currently holds, every persist
    /// issued so far included: a sealed checkpoint, or a delta log's
    /// `checkpoint ‖ deltas` bundle — either way a record
    /// [`LcmServer::apply_replica`] installs wholesale. A replica
    /// group levels a member that is out of step with its leader with
    /// this.
    ///
    /// # Errors
    ///
    /// Storage errors, deferred writer errors included.
    pub fn sealed_state(&mut self) -> Result<Vec<u8>> {
        self.flush()?;
        self.storage
            .load(SLOT_STATE_BLOB)?
            .ok_or_else(|| LcmError::Storage("no sealed state on the medium".into()))
    }

    /// Origin side of a live slice migration: the enclave extracts
    /// routing slice `slice`, bumps its table to assign it to shard
    /// `to`, and hands back `(ticket, bulletin)` — the sealed slice
    /// ticket for the target and the sealed table bulletin for every
    /// bystander shard. The re-sealed full checkpoint (already missing
    /// the moved keys) is persisted here. See
    /// [`crate::context::TrustedContext::export_slice`].
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    pub fn export_slice(&mut self, slice: u32, to: u32) -> Result<(Vec<u8>, Vec<u8>)> {
        match self.call(HostCall::ExportSlice { slice, to })? {
            HostReply::SliceExported(export) => {
                self.persist(&export.blobs)?;
                Ok((export.ticket, export.bulletin))
            }
            other => Err(unexpected(other)),
        }
    }

    /// Target side of a live slice migration: the enclave validates
    /// the sealed slice ticket, absorbs the keys, installs the bumped
    /// table, and re-seals; the checkpoint is persisted here. See
    /// [`crate::context::TrustedContext::import_slice`].
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    pub fn import_slice(&mut self, ticket: Vec<u8>) -> Result<()> {
        self.call_and_persist(HostCall::ImportSlice(ticket))
    }

    /// Bystander side of a live slice migration: the enclave adopts
    /// the sealed table bulletin (idempotent for tables it already
    /// has) and re-seals. See
    /// [`crate::context::TrustedContext::adopt_table`].
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    pub fn adopt_table(&mut self, bulletin: Vec<u8>) -> Result<()> {
        self.call_and_persist(HostCall::AdoptTable(bulletin))
    }

    /// Serves a replica-pinned verified read leg against this server's
    /// enclave, returning the encrypted read reply in the leg's own
    /// buffer. Reads mutate no protocol state and persist nothing. See
    /// [`crate::context::TrustedContext::serve_read`].
    ///
    /// # Errors
    ///
    /// Propagates context errors (a solo server answers legs pinned to
    /// replica 0; legs pinned elsewhere fail authentication inside the
    /// enclave).
    pub fn serve_read(&mut self, mut read_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.call_scratch.clear();
        HostCall::encode_serve_read_into(&mut self.call_scratch, &read_wire);
        let out = self.enclave.ecall(self.call_scratch.as_slice())?;
        // The reply rides home in the leg's buffer.
        read_reply_into(&out, &mut read_wire)?;
        Ok(read_wire)
    }

    /// A control-plane call whose only result is the re-sealed state
    /// to persist (provisioning, imports, table adoption).
    fn call_and_persist(&mut self, call: HostCall) -> Result<()> {
        match self.call(call)? {
            HostReply::ProvisionOk(blobs) => self.persist(&blobs),
            other => Err(unexpected(other)),
        }
    }

    /// A control-plane host call. These read or supersede what stable
    /// storage holds (their re-sealed checkpoints are stored inline),
    /// so the background writer is drained first — storage can never
    /// end up with a stale batch blob landing on top of them.
    fn call(&mut self, call: HostCall) -> Result<HostReply> {
        self.flush()?;
        self.ecall(call)
    }

    /// A host call without the writer barrier: for calls that neither
    /// read nor write stable storage (attestation).
    fn ecall(&mut self, call: HostCall) -> Result<HostReply> {
        self.call_scratch.clear();
        call.encode(&mut self.call_scratch);
        self.ecall_encoded()
    }

    /// Makes the host call already encoded in `call_scratch` — a call
    /// with a large borrowed payload (a replication record) encodes
    /// itself there directly; a batch and a read leg, whose replies are
    /// read in place, make their ecall themselves. An error reply
    /// comes back as the `Err` it projects.
    fn ecall_encoded(&mut self) -> Result<HostReply> {
        let out = self.enclave.ecall(self.call_scratch.as_slice())?;
        match HostReply::from_bytes(&out)? {
            HostReply::Err(e) => Err(e.into_lcm_error()),
            reply => Ok(reply),
        }
    }
}

/// Stores one persist's sealed blobs — the single store order both
/// persist paths (inline and background writer) share.
///
/// State before keys: a crash between the two stores must not leave a
/// key blob without any state — `init` treats that combination as
/// storage tampering. State-without-keys on the very first persist is
/// harmless (nothing was acknowledged; the admin just re-provisions),
/// and on every later persist both blobs seal with the same keys, so
/// either surviving alone is consistent. Delta persists carry no key
/// blob at all (keys cannot change on the batch path); skip the
/// redundant store.
pub(crate) fn store_blobs(
    storage: &dyn StableStorage,
    blobs: &PersistBlobs,
) -> lcm_storage::Result<()> {
    storage.store(SLOT_STATE_BLOB, &blobs.state_blob)?;
    if !blobs.key_blob.is_empty() {
        storage.store(SLOT_KEY_BLOB, &blobs.key_blob)?;
    }
    Ok(())
}

/// The error of addressing a member a lane does not have.
pub(crate) fn no_replica(replica: u32, members: usize) -> LcmError {
    LcmError::Tee(format!(
        "replica {replica} out of range (group of {members})"
    ))
}

fn unexpected(reply: HostReply) -> LcmError {
    LcmError::Tee(format!("unexpected enclave reply: {reply:?}"))
}

/// The **deployment** surface the rest of the stack programs against:
/// everything a client library, admin handle or test scenario needs,
/// independent of how many shards sit behind it, how many members run
/// each shard, and whether they persist synchronously or on a
/// background writer ([`LcmServer::into_pipelined`]). Members are
/// addressed by `(shard, replica)`.
///
/// Two impls fill the role: [`crate::shard::ShardedServer`] and every
/// [`Lane`] on its own — a solo [`LcmServer`] or a
/// [`crate::replica::ReplicaGroup`] is the one-shard deployment through
/// the blanket impl below, the single place that answers for
/// `shard != 0` there. The trait is object-safe,
/// so scenarios run the same code against every topology; `Send` is
/// part of the contract so servers can be driven from worker threads.
///
/// The verbs of the inner roles are not here, so a deployment handle
/// cannot reach them: feeding a member a replication record, say, is
/// something only the group that owns the member does.
///
/// ```compile_fail,E0599
/// use lcm_core::server::BatchServer;
///
/// fn forge_an_ack(deployment: &mut dyn BatchServer, record: &[u8]) {
///     let _ = deployment.apply_replica(record);
/// }
/// ```
pub trait BatchServer: Send {
    /// Starts (or restarts after a crash) every enclave; `true` means
    /// the contexts need provisioning. See [`LcmServer::boot`].
    ///
    /// # Errors
    ///
    /// Propagates TEE, storage, and context errors.
    fn boot(&mut self) -> Result<bool>;

    /// Simulates a crash of the server process; volatile state is lost.
    fn crash(&mut self);

    /// Whether every shard's (leading) enclave is currently running.
    fn is_running(&self) -> bool;

    /// Number of enclave shards behind this server: 1 for a lane on
    /// its own, N for the sharded fan-out
    /// ([`crate::shard::ShardedServer`]). Drives the admin's per-member
    /// provisioning and whole-deployment attestation
    /// ([`BatchServer::attest_member`] /
    /// [`BatchServer::provision_member`]).
    fn shard_count(&self) -> u32;

    /// Enqueues an encrypted INVOKE message.
    fn submit(&mut self, invoke_wire: Vec<u8>);

    /// Delivers a wire to an *explicit* shard, ignoring the routing
    /// envelope — the host has this power (the honest router is just
    /// software it runs), so adversarial tests model misdelivery
    /// through it. On a one-shard deployment this is `submit`. The
    /// enclave's attested-identity check makes a misdirected intact
    /// wire a detected violation, not a misplaced write.
    fn submit_to_shard(&mut self, shard: u32, invoke_wire: Vec<u8>);

    /// Number of queued, unprocessed messages.
    fn queued(&self) -> usize;

    /// The server's batch limit (operations per seal-and-store
    /// cycle) — a *hint* for batch-forming front-ends: driving a lane
    /// with far fewer queued wires than this wastes seal/store cycles
    /// the single-threaded loop would have amortized.
    fn batch_limit(&self) -> usize;

    /// Processes one batch per shard with work. See
    /// [`LcmServer::step`].
    ///
    /// # Errors
    ///
    /// Propagates violations detected inside the context.
    fn step(&mut self) -> Result<Replies>;

    /// Processes all queued messages, batch by batch.
    ///
    /// # Errors
    ///
    /// Same as [`BatchServer::step`].
    fn process_all(&mut self) -> Result<Replies>;

    /// Forwards an encrypted admin message. See [`LcmServer::admin`].
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>>;

    /// Origin side of migration. See [`LcmServer::export_migration`].
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    fn export_migration(&mut self) -> Result<Vec<u8>>;

    /// Target side of migration. See [`LcmServer::import_migration`].
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()>;

    /// Number of seal-and-store cycles performed.
    fn batches_processed(&self) -> u64;

    /// Number of INVOKE messages processed.
    fn ops_processed(&self) -> u64;

    /// Blocks until every persist issued so far has reached stable
    /// storage. A no-op for fully synchronous servers; an
    /// asynchronous-write server drains its writer queue. Test
    /// scenarios call this before inspecting or tampering with storage
    /// so in-flight writes cannot race the inspection.
    ///
    /// # Errors
    ///
    /// Surfaces asynchronous storage failures.
    fn flush_persists(&mut self) -> Result<()>;

    /// Number of replicas in each shard's group: 1 for unreplicated
    /// servers, 2f+1 for [`crate::replica::ReplicaGroup`]-backed
    /// deployments. Groups are uniform across shards.
    fn replica_count(&self) -> u32;

    /// Serves a replica-pinned verified read leg (see
    /// [`crate::context::TrustedContext::serve_read`]) and returns the
    /// encrypted reply. The routing envelope on the wire picks the
    /// shard; the replica pin inside the AEAD picks the group member.
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>>;

    /// The thread-safe `&self` read surface of this server, if it has
    /// one: reader threads call [`ReadPort::serve_read`] concurrently
    /// with the write path, which is what lets read throughput scale
    /// with replica count. A solo [`LcmServer`] on its own returns
    /// `None` (its owner drives reads through
    /// [`BatchServer::serve_read`]).
    fn read_port(&self) -> Option<Arc<dyn ReadPort>>;

    /// Index of the group member currently executing shard `shard`'s
    /// writes. Starts at 0; changes when a failover promotes a
    /// follower. Unreplicated servers always report 0.
    fn group_leader(&self, shard: u32) -> u32;

    /// Produces an attestation quote from member `replica` of shard
    /// `shard`'s group — the admin attests *every* member of a
    /// deployment (every replica of every group), not a
    /// representative.
    ///
    /// # Errors
    ///
    /// Propagates TEE errors; out-of-range coordinates are an error.
    fn attest_member(&mut self, shard: u32, replica: u32, user_data: Digest) -> Result<Quote>;

    /// Delivers the admin's sealed provisioning payload to member
    /// `replica` of shard `shard`'s group. Each member receives its own
    /// payload carrying its `(shard, replica)` identity coordinates
    /// (see [`crate::context::ShardIdentity`]); the payloads are opaque
    /// to the host.
    ///
    /// # Errors
    ///
    /// Propagates context errors; out-of-range coordinates are an
    /// error.
    fn provision_member(&mut self, shard: u32, replica: u32, sealed_payload: Vec<u8>)
        -> Result<()>;

    /// Crash-stops member `replica` of shard `shard`'s group (the
    /// fault-injection hook for replica-failure tests). `power_failure`
    /// additionally discards persists still queued behind the member's
    /// write pipeline, modelling a power cut rather than a process
    /// kill. On a solo server member `(0, 0)` is the server itself.
    ///
    /// # Errors
    ///
    /// Out-of-range coordinates are an error.
    fn kill_member(&mut self, shard: u32, replica: u32, power_failure: bool) -> Result<()>;

    /// Reboots a previously killed member of shard `shard`'s group and
    /// re-admits it to replication; returns the enclave's
    /// needs-provisioning flag (see [`BatchServer::boot`]). If the
    /// group's leader seat was vacated, the group promotes before the
    /// rebooted member rejoins, so a reboot never demotes a working
    /// leader.
    ///
    /// # Errors
    ///
    /// Propagates boot errors; out-of-range coordinates are an error.
    fn reboot_member(&mut self, shard: u32, replica: u32) -> Result<bool>;

    /// Moves one routing slice from its current owner shard to shard
    /// `to` while both stay live, driving the export → import → adopt
    /// handshake end to end (see
    /// [`crate::shard::ShardedServer::migrate_slice`]).
    ///
    /// # Errors
    ///
    /// Propagates context errors; a one-shard deployment rejects —
    /// there is nowhere to move a slice to.
    fn migrate_slice(&mut self, slice: u32, to: u32) -> Result<()>;

    /// The current routing epoch of the deployment as the host sees
    /// it: the epoch of the newest slice table any shard has
    /// installed. Static deployments stay at 0.
    fn routing_epoch(&self) -> u64;

    /// Per-slice operation counts observed by the host's routing
    /// front-end since the last call, drained (heat telemetry for
    /// rebalancing). A one-shard deployment has no router and reports
    /// an empty heat map.
    fn take_slice_heat(&self) -> Vec<u64>;
}

/// A thread-safe verified-read surface: reader threads serve
/// replica-pinned read legs through `&self` while the write path runs,
/// so a 2f+1 group answers reads on all members concurrently.
///
/// Implementations lock only the addressed member (or the addressed
/// lane), never the whole deployment — that independence is the whole
/// point of follower reads.
pub trait ReadPort: Send + Sync {
    /// Serves one encrypted read leg; see [`BatchServer::serve_read`].
    ///
    /// # Errors
    ///
    /// Propagates context errors.
    fn serve_read(&self, read_wire: Vec<u8>) -> Result<Vec<u8>>;
}

/// One **shard** of a deployment: a solo [`LcmServer`] or a
/// [`crate::replica::ReplicaGroup`], members addressed by `replica`
/// alone. [`crate::shard::ShardedServer`] holds one boxed `Lane` per
/// shard and drives the data plane and the per-lane steps of a slice
/// move through it; on its own a lane is the one-shard
/// [`BatchServer`].
pub trait Lane: Send {
    /// Starts (or restarts after a crash) every member; `true` means
    /// the lane needs provisioning. Errors as [`LcmServer::boot`].
    fn boot(&mut self) -> Result<bool>;

    /// Crashes every member; queued wires are lost.
    fn crash(&mut self);

    /// Whether the (leading) member's enclave is running.
    fn is_running(&self) -> bool;

    /// Enqueues an encrypted INVOKE message.
    fn submit(&mut self, invoke_wire: Vec<u8>);

    /// Wires accepted whose replies have not been returned yet.
    fn queued(&self) -> usize;

    /// Operations per seal-and-store cycle.
    fn batch_limit(&self) -> usize;

    /// Processes one batch; a violation detected inside the context is
    /// the error. See [`LcmServer::step`].
    fn step(&mut self) -> Result<Replies>;

    /// Processes all queued messages, batch by batch; errors as
    /// [`Lane::step`].
    fn process_all(&mut self) -> Result<Replies>;

    /// Forwards an encrypted admin message; context errors propagate.
    /// See [`LcmServer::admin`].
    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>>;

    /// Origin side of migration; context errors propagate. See
    /// [`LcmServer::export_migration`].
    fn export_migration(&mut self) -> Result<Vec<u8>>;

    /// Target side of migration — a group fans the ticket out to every
    /// member; context errors propagate. See
    /// [`LcmServer::import_migration`].
    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()>;

    /// Number of seal-and-store cycles performed.
    fn batches_processed(&self) -> u64;

    /// Number of INVOKE messages processed.
    fn ops_processed(&self) -> u64;

    /// Blocks until every live member's persists — a group
    /// straggler's buffered records included — have reached stable
    /// storage, surfacing storage failures. See
    /// [`BatchServer::flush_persists`].
    fn flush_persists(&mut self) -> Result<()>;

    /// Number of members: 1 for a solo server, 2f+1 for a group.
    fn replicas(&self) -> u32;

    /// Index of the member currently executing the lane's writes.
    fn leader(&self) -> u32;

    /// Produces an attestation quote from member `replica`
    /// ([`LcmServer::attest`]). TEE errors propagate; here and on the
    /// three verbs below an out-of-range `replica` is an error.
    fn attest(&mut self, replica: u32, user_data: Digest) -> Result<Quote>;

    /// Delivers the admin's sealed provisioning payload to member
    /// `replica` ([`LcmServer::provision`]); context errors propagate.
    fn provision(&mut self, replica: u32, sealed_payload: Vec<u8>) -> Result<()>;

    /// Crash-stops member `replica`; see [`BatchServer::kill_member`]
    /// for `power_failure`.
    fn kill(&mut self, replica: u32, power_failure: bool) -> Result<()>;

    /// Reboots member `replica` and re-admits it; boot errors
    /// propagate. See [`BatchServer::reboot_member`].
    fn reboot(&mut self, replica: u32) -> Result<bool>;

    /// Serves a verified read leg on the member it is pinned to;
    /// context errors propagate. See [`BatchServer::serve_read`].
    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>>;

    /// The lane's `&self` read surface, if its members can serve reads
    /// beside the write path. See [`BatchServer::read_port`].
    fn read_port(&self) -> Option<Arc<dyn ReadPort>>;

    /// Origin side of a live slice migration on this lane: returns the
    /// sealed `(ticket, bulletin)` pair ([`LcmServer::export_slice`]).
    /// A group runs this on the leader and ships the post-export state
    /// to followers. Here and on the two steps below context errors
    /// propagate.
    fn export_slice(&mut self, slice: u32, to: u32) -> Result<(Vec<u8>, Vec<u8>)>;

    /// Target side of a live slice migration on this lane. See
    /// [`LcmServer::import_slice`].
    fn import_slice(&mut self, ticket: Vec<u8>) -> Result<()>;

    /// Bystander side of a live slice migration on this lane. See
    /// [`LcmServer::adopt_table`].
    fn adopt_table(&mut self, bulletin: Vec<u8>) -> Result<()>;
}

/// Shard 0 is the only shard of a lane on its own.
fn only_shard(op: &str, shard: u32) -> Result<()> {
    if shard == 0 {
        return Ok(());
    }
    Err(LcmError::Tee(format!(
        "{op}(shard {shard}) on a one-shard deployment"
    )))
}

/// A lane on its own is the one-shard deployment.
impl<L: Lane + ?Sized> BatchServer for L {
    fn boot(&mut self) -> Result<bool> {
        Lane::boot(self)
    }
    fn crash(&mut self) {
        Lane::crash(self);
    }
    fn is_running(&self) -> bool {
        Lane::is_running(self)
    }
    fn shard_count(&self) -> u32 {
        1
    }
    fn submit(&mut self, invoke_wire: Vec<u8>) {
        Lane::submit(self, invoke_wire);
    }
    fn submit_to_shard(&mut self, _shard: u32, invoke_wire: Vec<u8>) {
        Lane::submit(self, invoke_wire);
    }
    fn queued(&self) -> usize {
        Lane::queued(self)
    }
    fn batch_limit(&self) -> usize {
        Lane::batch_limit(self)
    }
    fn step(&mut self) -> Result<Replies> {
        Lane::step(self)
    }
    fn process_all(&mut self) -> Result<Replies> {
        Lane::process_all(self)
    }
    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        Lane::admin(self, admin_wire)
    }
    fn export_migration(&mut self) -> Result<Vec<u8>> {
        Lane::export_migration(self)
    }
    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()> {
        Lane::import_migration(self, ticket)
    }
    fn batches_processed(&self) -> u64 {
        Lane::batches_processed(self)
    }
    fn ops_processed(&self) -> u64 {
        Lane::ops_processed(self)
    }
    fn flush_persists(&mut self) -> Result<()> {
        Lane::flush_persists(self)
    }
    fn replica_count(&self) -> u32 {
        self.replicas()
    }
    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        Lane::serve_read(self, read_wire)
    }
    fn read_port(&self) -> Option<Arc<dyn ReadPort>> {
        Lane::read_port(self)
    }
    fn group_leader(&self, _shard: u32) -> u32 {
        self.leader()
    }
    fn attest_member(&mut self, shard: u32, replica: u32, user_data: Digest) -> Result<Quote> {
        only_shard("attest_member", shard)?;
        self.attest(replica, user_data)
    }
    fn provision_member(
        &mut self,
        shard: u32,
        replica: u32,
        sealed_payload: Vec<u8>,
    ) -> Result<()> {
        only_shard("provision_member", shard)?;
        self.provision(replica, sealed_payload)
    }
    fn kill_member(&mut self, shard: u32, replica: u32, power_failure: bool) -> Result<()> {
        only_shard("kill_member", shard)?;
        self.kill(replica, power_failure)
    }
    fn reboot_member(&mut self, shard: u32, replica: u32) -> Result<bool> {
        only_shard("reboot_member", shard)?;
        self.reboot(replica)
    }
    fn migrate_slice(&mut self, slice: u32, to: u32) -> Result<()> {
        Err(LcmError::Tee(format!(
            "migrate_slice({slice} -> shard {to}) on a one-shard deployment"
        )))
    }
    fn routing_epoch(&self) -> u64 {
        0
    }
    fn take_slice_heat(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// Replica 0 is the only member of a solo server.
fn sole_member(replica: u32) -> Result<()> {
    if replica == 0 {
        Ok(())
    } else {
        Err(no_replica(replica, 1))
    }
}

impl<F: Functionality> Lane for LcmServer<F> {
    fn boot(&mut self) -> Result<bool> {
        LcmServer::boot(self)
    }
    fn crash(&mut self) {
        LcmServer::crash(self);
    }
    fn is_running(&self) -> bool {
        LcmServer::is_running(self)
    }
    fn submit(&mut self, invoke_wire: Vec<u8>) {
        LcmServer::submit(self, invoke_wire);
    }
    fn queued(&self) -> usize {
        LcmServer::queued(self)
    }
    fn batch_limit(&self) -> usize {
        self.batch_limit
    }
    fn step(&mut self) -> Result<Replies> {
        LcmServer::step(self)
    }
    fn process_all(&mut self) -> Result<Replies> {
        LcmServer::process_all(self)
    }
    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        LcmServer::admin(self, admin_wire)
    }
    fn export_migration(&mut self) -> Result<Vec<u8>> {
        LcmServer::export_migration(self)
    }
    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()> {
        LcmServer::import_migration(self, ticket, None)
    }
    fn batches_processed(&self) -> u64 {
        LcmServer::batches_processed(self)
    }
    fn ops_processed(&self) -> u64 {
        LcmServer::ops_processed(self)
    }
    fn flush_persists(&mut self) -> Result<()> {
        LcmServer::flush(self)
    }
    fn replicas(&self) -> u32 {
        1
    }
    fn leader(&self) -> u32 {
        0
    }
    fn attest(&mut self, replica: u32, user_data: Digest) -> Result<Quote> {
        sole_member(replica)?;
        LcmServer::attest(self, user_data)
    }
    fn provision(&mut self, replica: u32, sealed_payload: Vec<u8>) -> Result<()> {
        sole_member(replica)?;
        LcmServer::provision(self, sealed_payload)
    }
    fn kill(&mut self, replica: u32, power_failure: bool) -> Result<()> {
        sole_member(replica)?;
        self.stop(power_failure);
        Ok(())
    }
    fn reboot(&mut self, replica: u32) -> Result<bool> {
        sole_member(replica)?;
        LcmServer::boot(self)
    }
    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        LcmServer::serve_read(self, read_wire)
    }
    fn read_port(&self) -> Option<Arc<dyn ReadPort>> {
        None
    }
    fn export_slice(&mut self, slice: u32, to: u32) -> Result<(Vec<u8>, Vec<u8>)> {
        LcmServer::export_slice(self, slice, to)
    }
    fn import_slice(&mut self, ticket: Vec<u8>) -> Result<()> {
        LcmServer::import_slice(self, ticket)
    }
    fn adopt_table(&mut self, bulletin: Vec<u8>) -> Result<()> {
        LcmServer::adopt_table(self, bulletin)
    }
}

/// Decodes the enclave's answer to an `InvokeBatch` of `wires` in
/// place (module docs, § Buffer lifecycle): reply *i* is written into
/// `wires[i]` — the buffer request *i* arrived in (see
/// [`reply_into`]) — and the buffers come back as the batch's
/// replies, each with the client the enclave reported, beside the
/// blobs to persist. Every wire is consumed whatever the outcome.
///
/// # Errors
///
/// An error reply is the error it projects; any other reply, a
/// malformed one, or one that does not answer exactly the wires
/// handed in, is an [`LcmError::Tee`] or [`LcmError::Codec`].
pub(crate) fn batch_replies(
    out: &[u8],
    wires: &mut Vec<Vec<u8>>,
) -> Result<(Replies, PersistBlobs)> {
    let wires = wires.drain(..);
    let Some((&REPLY_BATCH, body)) = out.split_first() else {
        return Err(not_the_reply(out, "a batch"));
    };
    let mut r = Reader::new(body);
    let n = r.get_u32()? as usize;
    if n != wires.len() {
        return Err(LcmError::Tee(format!(
            "the enclave answered {n} replies to a batch of {} wires",
            wires.len()
        )));
    }
    let mut replies = Vec::with_capacity(n);
    for mut wire in wires {
        let client = ClientId::decode(&mut r)?;
        reply_into(&mut wire, r.get_bytes()?);
        replies.push((client, wire));
    }
    let blobs = decode_blobs(&mut r)?;
    r.finish()?;
    Ok((replies, blobs))
}

/// Decodes the enclave's answer to a `ServeRead` into `wire`, the
/// buffer the read leg arrived in.
///
/// # Errors
///
/// As [`batch_replies`].
pub(crate) fn read_reply_into(out: &[u8], wire: &mut Vec<u8>) -> Result<()> {
    let Some((&REPLY_READ, body)) = out.split_first() else {
        return Err(not_the_reply(out, "a read"));
    };
    let mut r = Reader::new(body);
    let reply = r.get_bytes()?;
    r.finish()?;
    reply_into(wire, reply);
    Ok(())
}

/// A request buffer up to this size carries its reply home whatever
/// the reply's size.
pub(crate) const WIRE_KEEP_MAX: usize = 4096;

/// Writes `reply` into `wire`, the buffer its request arrived in. A
/// buffer over [`WIRE_KEEP_MAX`] and more than twice the reply is let
/// go for an exact copy instead: a reply waits until its client
/// collects it, and should hold about its own size, not its request's.
pub(crate) fn reply_into(wire: &mut Vec<u8>, reply: &[u8]) {
    if wire.capacity() > WIRE_KEEP_MAX && wire.capacity() / 2 > reply.len() {
        *wire = reply.to_vec();
    } else {
        wire.clear();
        wire.extend_from_slice(reply);
    }
}

/// The error an enclave output that is not the awaited `what` reply
/// stands for: the error it carries, or its being unexpected or
/// malformed.
fn not_the_reply(out: &[u8], what: &str) -> LcmError {
    match HostReply::from_bytes(out) {
        Ok(HostReply::Err(e)) => e.into_lcm_error(),
        Ok(other) => LcmError::Tee(format!("unexpected enclave reply to {what}: {other:?}")),
        Err(e) => e.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminHandle;
    use crate::client::LcmClient;
    use crate::functionality::AppendLog;
    use crate::stability::Quorum;
    use lcm_storage::MemoryStorage;
    use lcm_tee::world::TeeWorld;

    fn setup(n_clients: u32, batch: usize) -> (LcmServer<AppendLog>, AdminHandle, Vec<LcmClient>) {
        let world = TeeWorld::new_deterministic(42);
        let platform = world.platform_deterministic(1);
        let storage = Arc::new(MemoryStorage::new());
        let mut server = LcmServer::<AppendLog>::new(&platform, storage, batch);
        assert!(server.boot().unwrap());

        let clients: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
        let mut admin =
            AdminHandle::new_deterministic(&world, clients.clone(), Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();

        let lcm_clients = clients
            .iter()
            .map(|&id| LcmClient::new(id, admin.client_key()))
            .collect();
        (server, admin, lcm_clients)
    }

    /// Both kinds of lane, booted, as the one-shard deployments the
    /// blanket impl makes them, with their member counts.
    fn one_shard_deployments() -> Vec<(&'static str, Box<dyn BatchServer>, u32)> {
        let world = TeeWorld::new_deterministic(43);
        let member = |id: u64| {
            let platform = world.platform_deterministic(id);
            LcmServer::<AppendLog>::new(&platform, Arc::new(MemoryStorage::new()), 4)
        };
        let group = crate::replica::ReplicaGroup::new(
            vec![member(2), member(3), member(4)],
            Quorum::Majority,
        );
        let mut lanes: Vec<(&'static str, Box<dyn BatchServer>, u32)> = vec![
            ("solo", Box::new(member(1)), 1),
            ("group", Box::new(group), 3),
        ];
        for (_, server, _) in &mut lanes {
            assert!(server.boot().unwrap());
        }
        lanes
    }

    #[test]
    fn a_lane_on_its_own_answers_bad_addresses_with_errors() {
        type Addressed = fn(&mut dyn BatchServer, u32, u32) -> Result<()>;
        let nonce = lcm_crypto::sha256::digest(b"verifier nonce");
        let verbs: [(&str, Addressed); 4] = [
            ("attest_member", |s, shard, replica| {
                s.attest_member(shard, replica, lcm_crypto::sha256::digest(b"n"))
                    .map(drop)
            }),
            ("provision_member", |s, shard, replica| {
                s.provision_member(shard, replica, b"not a payload".to_vec())
            }),
            ("kill_member", |s, shard, replica| {
                s.kill_member(shard, replica, false)
            }),
            ("reboot_member", |s, shard, replica| {
                s.reboot_member(shard, replica).map(drop)
            }),
        ];
        for (lane, mut server, replicas) in one_shard_deployments() {
            for (verb, call) in verbs {
                for (shard, replica) in [(1, 0), (u32::MAX, 0), (0, replicas), (0, u32::MAX)] {
                    let outcome = call(&mut *server, shard, replica);
                    assert!(
                        matches!(outcome, Err(LcmError::Tee(_))),
                        "{lane}: {verb}({shard}, {replica}) gave {outcome:?}"
                    );
                }
            }
            for (slice, to) in [(0, 0), (0, 1), (u32::MAX, u32::MAX)] {
                assert!(
                    matches!(server.migrate_slice(slice, to), Err(LcmError::Tee(_))),
                    "{lane}: one shard has nowhere to move a slice to"
                );
            }
            // No bad address reached a member: all are still up and
            // answer at their real coordinates.
            assert!(server.is_running(), "{lane}");
            assert_eq!(
                (server.shard_count(), server.replica_count()),
                (1, replicas)
            );
            for replica in 0..replicas {
                server.attest_member(0, replica, nonce).unwrap();
            }
        }
    }

    /// `T`'s reply nonces under `kC` (its `Nonces`: the enclave
    /// lifetime's RNG draw XOR a counter) never repeat: within a
    /// lifetime by the counter, across a crash and reboot by the fresh
    /// draw. Under AES-128-GCM one repeat would expose the channel's
    /// authentication key (`lcm_crypto::gcm` module docs).
    #[test]
    fn reply_nonces_are_pairwise_distinct_across_enclave_lifetimes() {
        let (mut server, _admin, mut clients) = setup(4, 16);
        let mut nonces = std::collections::HashSet::new();
        for lifetime in 0..2 {
            for _ in 0..3 {
                for c in clients.iter_mut() {
                    server.submit(c.invoke(b"op").unwrap());
                }
                for (id, reply) in server.process_all().unwrap() {
                    let nonce: [u8; 12] = reply[..12].try_into().unwrap();
                    assert!(
                        nonces.insert(nonce),
                        "lifetime {lifetime}: {nonce:02x?} again"
                    );
                    clients[id.0 as usize - 1].handle_reply(&reply).unwrap();
                }
            }
            if lifetime == 0 {
                server.crash();
                assert!(!server.boot().unwrap(), "recovers, needs no provisioning");
            }
        }
        assert_eq!(nonces.len(), 2 * 3 * clients.len());
    }

    #[test]
    fn end_to_end_single_client() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        server.submit(c.invoke(b"first").unwrap());
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, c.id());
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1);
    }

    #[test]
    fn end_to_end_three_clients_two_rounds() {
        let (mut server, _admin, mut clients) = setup(3, 16);
        // Round 1.
        for c in clients.iter_mut() {
            server.submit(c.invoke(b"round-1").unwrap());
        }
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 3);
        for (id, wire) in &replies {
            let c = clients.iter_mut().find(|c| c.id() == *id).unwrap();
            c.handle_reply(wire).unwrap();
        }
        // Round 2: acknowledgements flow, stability advances.
        for c in clients.iter_mut() {
            server.submit(c.invoke(b"round-2").unwrap());
        }
        let replies = server.process_all().unwrap();
        let mut max_stable = 0;
        for (id, wire) in &replies {
            let c = clients.iter_mut().find(|c| c.id() == *id).unwrap();
            let done = c.handle_reply(wire).unwrap();
            max_stable = max_stable.max(done.stable.0);
        }
        assert!(max_stable >= 1, "stability should advance in round 2");
    }

    #[test]
    fn batching_amortizes_stores() {
        let (mut server, _admin, mut clients) = setup(3, 16);
        for c in clients.iter_mut() {
            server.submit(c.invoke(b"op").unwrap());
        }
        server.process_all().unwrap();
        assert_eq!(server.batches_processed(), 1, "one batch for 3 ops");
        assert_eq!(server.ops_processed(), 3);

        let (mut server2, _admin2, mut clients2) = setup(3, 1);
        for c in clients2.iter_mut() {
            server2.submit(c.invoke(b"op").unwrap());
        }
        server2.process_all().unwrap();
        assert_eq!(server2.batches_processed(), 3, "no batching: 3 stores");
    }

    #[test]
    fn crash_and_recover_preserves_service() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        server.submit(c.invoke(b"before-crash").unwrap());
        let replies = server.process_all().unwrap();
        c.handle_reply(&replies[0].1).unwrap();

        server.crash();
        assert!(!server.is_running());
        assert!(!server.boot().unwrap(), "recovered, no provisioning needed");

        server.submit(c.invoke(b"after-crash").unwrap());
        let replies = server.process_all().unwrap();
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 2, "sequence continues after recovery");
    }

    /// Regression: a rebooted delta-log lane must resume its
    /// checkpoint cadence where the log left off. Replayed deltas that
    /// are not counted restart the cadence from zero at every reboot
    /// while the log keeps them, so recovery grows from reboot to
    /// reboot.
    #[test]
    fn reboots_do_not_reset_the_checkpoint_cadence() {
        use crate::context::DELTA_CHECKPOINT_MIN;
        use crate::functionality::Counter;
        let world = TeeWorld::new_deterministic(44);
        let platform = world.platform_deterministic(1);
        let engine: Arc<dyn StableStorage> =
            Arc::new(lcm_storage::DeltaLogStorage::open(Arc::new(MemoryStorage::new())).unwrap());
        let mut server = LcmServer::<Counter>::new(&platform, engine.clone(), 1);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();
        let mut c = LcmClient::new(ClientId(1), admin.client_key());

        let mut largest_delta = 0;
        for reboot in 0..8 {
            // Few enough batches that one run alone never reaches the
            // cadence threshold.
            for _ in 0..8 {
                server.submit(c.invoke(&Counter::inc_op(b"n", 1)).unwrap());
                let replies = server.process_all().unwrap();
                c.handle_reply(&replies[0].1).unwrap();
            }
            server.crash();
            assert!(!server.boot().unwrap());
            let recovery = engine.load(SLOT_STATE_BLOB).unwrap().unwrap();
            let Some((ckpt, deltas)) = lcm_storage::parse_bundle(&recovery) else {
                continue; // a checkpoint just landed: nothing to replay
            };
            largest_delta = deltas
                .iter()
                .map(|d| d.len())
                .fold(largest_delta, usize::max);
            let replayed: usize = deltas.iter().map(|d| d.len()).sum();
            assert!(
                replayed <= DELTA_CHECKPOINT_MIN.max(ckpt.len()) + largest_delta,
                "reboot {reboot}: recovery replays {replayed} delta bytes over a \
                 {}-byte checkpoint",
                ckpt.len()
            );
        }
    }

    /// A reboot hands the enclave the whole sealed state, once; the
    /// buffer the lane keeps for encoding its per-batch calls must not
    /// come out of it sized for that.
    #[test]
    fn a_reboot_from_a_large_state_leaves_the_call_scratch_at_batch_scale() {
        const OP: usize = 64 * 1024;
        let (mut server, _admin, mut clients) = setup(1, 1);
        for _ in 0..17 {
            server.submit(clients[0].invoke(&[0x5a; OP]).unwrap());
            let replies = server.process_all().unwrap();
            clients[0].handle_reply(&replies[0].1).unwrap();
        }
        let sealed = server.sealed_state().unwrap().len();
        assert!(sealed >= 1 << 20, "a {sealed} B state proves nothing");
        server.crash();
        assert!(!server.boot().unwrap(), "recovered, not re-provisioned");
        let held = server.call_scratch.capacity();
        assert!(
            held < 4 * OP,
            "the lane holds a {held} B call buffer after booting from {sealed} B"
        );
        // And the recovered lane serves on.
        server.submit(clients[0].invoke(b"after").unwrap());
        let replies = server.process_all().unwrap();
        assert_eq!(clients[0].handle_reply(&replies[0].1).unwrap().seq.0, 18);
    }

    /// A functionality whose result is 64 bytes per byte of its
    /// operation: replies far larger than the requests they answer.
    #[derive(Default)]
    struct Amplify;

    impl Functionality for Amplify {
        fn exec(&mut self, op: &[u8]) -> Vec<u8> {
            vec![0xa5; 64 * op.len()]
        }
        fn snapshot_into(&self, _: &mut crate::codec::Writer) {}
        fn restore(&mut self, _: &[u8]) -> std::result::Result<(), crate::codec::CodecError> {
            Ok(())
        }
    }

    #[test]
    fn replies_ride_home_in_their_requests_buffers() {
        let (mut server, _admin, mut clients) = setup(3, 16);
        let mut sent = Vec::new();
        for c in clients.iter_mut() {
            let mut wire = c.invoke(b"op").unwrap();
            // Room for the reply, so that no growth moves the buffer.
            wire.reserve(256);
            sent.push((c.id(), wire.as_ptr()));
            server.submit(wire);
        }
        let replies = server.step().unwrap();
        assert_eq!(replies.len(), sent.len());
        for ((id, wire), (sent_id, buffer)) in replies.iter().zip(&sent) {
            assert_eq!(id, sent_id, "replies come back in submission order");
            assert_eq!(
                wire.as_ptr(),
                *buffer,
                "{id}'s reply came home in another buffer"
            );
            let c = clients.iter_mut().find(|c| c.id() == *id).unwrap();
            c.handle_reply(wire).unwrap();
        }
    }

    #[test]
    fn a_reply_larger_than_its_request_grows_the_request_buffer() {
        let world = TeeWorld::new_deterministic(45);
        let platform = world.platform_deterministic(1);
        let mut server = LcmServer::<Amplify>::new(&platform, Arc::new(MemoryStorage::new()), 16);
        assert!(server.boot().unwrap());
        let ids = vec![ClientId(1), ClientId(2)];
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();
        let mut clients: Vec<LcmClient> = ids
            .iter()
            .map(|&id| LcmClient::new(id, admin.client_key()))
            .collect();
        // A small and a large reply in one batch, each in a wire whose
        // capacity is exactly its request.
        let ops = [vec![1u8; 1], vec![2u8; 300]];
        let mut capacities = Vec::new();
        for (c, op) in clients.iter_mut().zip(&ops) {
            let wire = c.invoke(op).unwrap();
            capacities.push(wire.capacity());
            server.submit(wire);
        }
        let replies = server.step().unwrap();
        assert!(
            replies[1].1.len() > capacities[1],
            "the large reply outgrew its request"
        );
        for ((id, wire), op) in replies.iter().zip(&ops) {
            let done = clients[id.0 as usize - 1].handle_reply(wire).unwrap();
            assert_eq!(done.result, vec![0xa5; 64 * op.len()], "{id}");
        }
    }

    #[test]
    fn a_small_reply_does_not_hold_a_large_requests_buffer() {
        use crate::functionality::Counter;
        let world = TeeWorld::new_deterministic(47);
        let platform = world.platform_deterministic(1);
        let mut server = LcmServer::<Counter>::new(&platform, Arc::new(MemoryStorage::new()), 16);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();
        let mut c = LcmClient::new(ClientId(1), admin.client_key());
        // A 256 KiB counter name; the reply carries only the count.
        let op = Counter::inc_op(&[b'n'; 256 << 10], 5);
        let wire = c.invoke_for::<Counter>(&op).unwrap();
        assert!(wire.capacity() > 256 << 10);
        server.submit(wire);
        let replies = server.step().unwrap();
        let reply = &replies[0].1;
        assert!(
            reply.capacity() < 4096,
            "a {} B reply holds {} B",
            reply.len(),
            reply.capacity()
        );
        let done = c.handle_reply(reply).unwrap();
        assert_eq!(Counter::decode_result(&done.result), Some(5));
    }

    #[test]
    fn a_read_reply_rides_home_in_its_legs_buffer() {
        use crate::client::ReadOutcome;
        use crate::functionality::Counter;
        let world = TeeWorld::new_deterministic(46);
        let platform = world.platform_deterministic(1);
        let mut server = LcmServer::<Counter>::new(&platform, Arc::new(MemoryStorage::new()), 16);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();
        let mut c = LcmClient::new(ClientId(1), admin.client_key());
        server.submit(c.invoke_for::<Counter>(&Counter::inc_op(b"n", 3)).unwrap());
        c.handle_reply(&server.step().unwrap()[0].1).unwrap();

        let mut leg = c.read_for::<Counter>(&Counter::read_op(b"n"), 0).unwrap();
        leg.reserve(256);
        let buffer = leg.as_ptr();
        let reply = server.serve_read(leg).unwrap();
        assert_eq!(
            reply.as_ptr(),
            buffer,
            "the reply came home in another buffer"
        );
        match c.handle_read_reply(&reply).unwrap() {
            ReadOutcome::Fresh(done) => assert_eq!(Counter::decode_result(&done.result), Some(3)),
            other => panic!("expected a fresh read, got {other:?}"),
        }
        // A leg the enclave refuses is an error, not a reply.
        assert!(server.serve_read(vec![0u8; 3]).is_err());
    }

    #[test]
    fn crash_with_lost_request_retry_executes() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        // Request submitted but server crashes before processing.
        server.submit(c.invoke(b"lost").unwrap());
        server.crash();
        server.boot().unwrap();
        // Client times out and retries.
        server.submit(c.retry().unwrap());
        let replies = server.process_all().unwrap();
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1);
    }

    #[test]
    fn crash_after_store_retry_resends_cached_reply() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        // Request processed and stored, but the reply never reaches the
        // client (server crashes right after).
        server.submit(c.invoke(b"answered-but-lost").unwrap());
        let _dropped_replies = server.process_all().unwrap();
        server.crash();
        server.boot().unwrap();
        // Retry: T must resend the cached result, not re-execute.
        server.submit(c.retry().unwrap());
        let replies = server.process_all().unwrap();
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1, "same sequence number as the lost reply");
    }
}
