//! The LCM client (paper Alg. 1 + retry extension §4.6.1).
//!
//! A client keeps only small, constant state — `(tc, ts, hc)` plus the
//! communication key — which is the paper's headline simplification
//! over prior fork-linearizable protocols where clients verified every
//! other client's operations.
//!
//! The client handles REPLY bytes the server supplies, so outside its
//! tests this module takes the trusted crate's lints: no `unwrap`,
//! `expect`, `panic!` or unchecked indexing — a malformed reply is an
//! error the client returns.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::indexing_slicing))]

use lcm_crypto::gcm::{self, GcmKey, NONCE_LEN};
use lcm_crypto::keys::SecretKey;
use rand::RngCore;

use crate::codec::WireCodec;
use crate::context::{invoke_aad, read_aad, read_reply_aad, reply_aad};
use crate::functionality::Functionality;
use crate::routing::SliceTable;
use crate::shard::route_for;
use crate::types::{ChainValue, ClientId, Completion, SeqNo};
use crate::verify::OpRecord;
use crate::wire::{
    seal_message, InvokeView, ReadHint, ReadMsg, ReadReplyMsg, ReplyView, RouteHint,
    INVOKE_OVERHEAD,
};
use crate::{LcmError, Result, Violation};

/// Outcome of a verified read leg ([`LcmClient::handle_read_reply`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The replica held the client's exact context: the result is as
    /// trustworthy as a leader reply (same per-shard history context,
    /// same AEAD channel). The read did not advance `(tc, hc)` — reads
    /// don't extend the hash chain — but may have advanced `ts`.
    Fresh(Completion),
    /// The pinned replica lags the client's last completed operation
    /// (it has not yet applied the quorum round that acknowledged it).
    /// Not a violation: the pending read is cleared so the caller can
    /// re-issue, typically pinning a different replica or falling back
    /// to the write path.
    Behind,
    /// The routing slice the read targets migrated to another shard
    /// under a newer routing epoch, which the client has now adopted.
    /// The pending read is cleared; re-issue it and it will route to
    /// the new owner.
    Moved,
}

/// Outcome of a write reply ([`LcmClient::handle_reply_on`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The operation executed on its owning shard.
    Done(Completion),
    /// The shard answered with a *redirect* instead of executing: the
    /// operation's routing slice migrated away under a newer routing
    /// epoch, which the client has now adopted. The redirect advanced
    /// this shard's context like any operation (it occupies a sequence
    /// number and a link of the hash chain), but the operation itself
    /// did **not** execute — re-invoke `op`, and the adopted table
    /// routes it to its new owner as a fresh invocation under that
    /// shard's own context.
    Redirected {
        /// The original operation, handed back for re-invocation.
        op: Vec<u8>,
    },
}

/// An operation awaiting its reply.
#[derive(Debug, Clone)]
struct Pending {
    op: Vec<u8>,
    /// Context captured at invocation, so retries are byte-faithful.
    tc: SeqNo,
    hc: ChainValue,
    /// Route hash the operation was sent under (part of the AAD, so
    /// retries must reuse it).
    route: u32,
    /// Routing epoch the wire was stamped with (also in the AAD; a
    /// table adopted mid-flight must not re-stamp this operation).
    epoch: u64,
}

/// A verified read leg awaiting its reply (replicated deployments,
/// [`LcmClient::read_routed`]).
#[derive(Debug, Clone)]
struct PendingRead {
    op: Vec<u8>,
    /// Context the read is verified against — the client's latest
    /// completed operation on the shard.
    tc: SeqNo,
    hc: ChainValue,
    route: u32,
    /// The replica the leg is pinned to (inside the AEAD — a host
    /// cannot re-aim the leg or substitute another replica's answer).
    replica: u32,
    /// Routing epoch the leg was stamped with (part of the AAD).
    epoch: u64,
}

/// The client's protocol context against one shard of the service:
/// `(tc, ts, hc)` plus the in-flight operation, exactly the paper's
/// per-client state, kept once per shard (a single entry for an
/// unsharded deployment).
#[derive(Debug, Clone, Default)]
struct ShardCtx {
    tc: SeqNo,
    ts: SeqNo,
    hc: ChainValue,
    pending: Option<Pending>,
    /// At most one read leg in flight per shard, mutually exclusive
    /// with a pending write on the same shard: a write completing
    /// while a read is out would advance `(tc, hc)` past the context
    /// the read is verified against, turning an honest reply into a
    /// false violation.
    pending_read: Option<PendingRead>,
}

/// Identifier of a registered stability watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WatchId(pub u64);

/// A fired stability notification: the watched threshold and the
/// watermark that satisfied it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityEvent {
    /// The watch that fired.
    pub watch: WatchId,
    /// The threshold that was registered.
    pub threshold: SeqNo,
    /// The majority-stable watermark that crossed it.
    pub watermark: SeqNo,
}

/// The client-side protocol state machine.
///
/// Sequential use: [`LcmClient::invoke`] produces the wire message for
/// one operation; [`LcmClient::handle_reply`] consumes the reply and
/// returns the [`Completion`]. Invoking while an operation is pending
/// is an error ("each client invokes operations sequentially", §4.1).
/// If no reply arrives, [`LcmClient::retry`] re-produces the message
/// with the retry flag set.
///
/// On any detected violation the client halts permanently: the server
/// has been caught cheating and the out-of-band alarm (outside the
/// protocol) is raised.
///
/// # Example
///
/// ```
/// use lcm_core::client::LcmClient;
/// use lcm_core::types::ClientId;
/// use lcm_crypto::keys::SecretKey;
///
/// let k_c = SecretKey::generate();
/// let mut client = LcmClient::new(ClientId(1), &k_c);
/// let wire = client.invoke(b"PUT k v").unwrap();
/// // send `wire` to the server; feed the reply to handle_reply()
/// # let _ = wire;
/// ```
pub struct LcmClient {
    id: ClientId,
    key: GcmKey,
    /// Low eight bytes of the next wire's AEAD nonce; the high four
    /// are `id`. Every client of the group seals under the same `kC`,
    /// so nonces must be unique across clients *and* sends without
    /// trusting a random generator: the id separates clients, the
    /// counter — one step per sealed wire, retries included, never
    /// reset by a key rotation — separates this client's sends, and
    /// the random start separates incarnations of one identity.
    send_counter: u64,
    /// One protocol context per shard of the deployment (length 1 for
    /// an unsharded server). A sharded service is N independent LCM
    /// instances, so the paper's constant client state exists once per
    /// shard the client actually touches.
    shards: Vec<ShardCtx>,
    /// The routing slice table the client maps routes through. Starts
    /// as the genesis uniform table for the deployment's shard count
    /// and advances as redirects hand the client newer epochs.
    table: SliceTable,
    /// Shard indices of in-flight operations, in submission order.
    /// An honest hub/sharded host delivers replies in this order, but
    /// the client does not depend on it: each reply is attributed to
    /// its operation by AAD authentication (the reply AAD binds the
    /// op's route), so a sibling shard's crash-stop cannot make an
    /// honest out-of-order delivery look like an attack.
    pending_order: std::collections::VecDeque<u32>,
    halted: bool,
    /// Optional completion log for the omniscient history checker.
    recording: Option<Vec<OpRecord>>,
    /// Registered stability watches (paper §4.5's callback-mechanism
    /// extension, as used by Venus): `(id, shard, threshold)`, fired
    /// once. Sequence numbers are per shard, so each watch is bound to
    /// one shard's watermark.
    watches: Vec<(WatchId, u32, SeqNo)>,
    next_watch: u64,
    /// Fired notifications awaiting collection.
    notifications: Vec<StabilityEvent>,
    /// The buffer reply wires are opened in: a reply is copied here
    /// once, tried against each pending operation's AAD (a failed
    /// open leaves it intact), decrypted in place by the one that
    /// verifies and decoded as a borrowed view. It keeps its
    /// allocation — and the last reply's plaintext — between replies.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for LcmClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LcmClient")
            .field("id", &self.id)
            .field("shards", &self.shards.len())
            .field("tc", &self.last_seq())
            .field("ts", &self.stable_seq())
            .field("halted", &self.halted)
            .finish()
    }
}

impl LcmClient {
    /// Creates a client with identity `id` holding the group
    /// communication key `kC`, talking to an unsharded (single-shard)
    /// deployment.
    pub fn new(id: ClientId, k_c: &SecretKey) -> Self {
        Self::new_sharded(id, k_c, 1)
    }

    /// Creates a client for a deployment of `n_shards` server shards
    /// (see [`crate::shard::ShardedServer`]). The client keeps one
    /// `(tc, ts, hc)` context per shard; `n_shards = 1` is exactly the
    /// paper's client.
    pub fn new_sharded(id: ClientId, k_c: &SecretKey, n_shards: u32) -> Self {
        LcmClient {
            id,
            key: GcmKey::from_secret(k_c),
            send_counter: rand::thread_rng().next_u64(),
            shards: vec![ShardCtx::default(); n_shards.max(1) as usize],
            table: SliceTable::uniform(n_shards.max(1)),
            pending_order: std::collections::VecDeque::new(),
            halted: false,
            recording: None,
            watches: Vec::new(),
            next_watch: 0,
            notifications: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Pins the next wire's nonce, for tests that pin wire bytes.
    #[cfg(test)]
    pub(crate) fn with_send_counter(mut self, counter: u64) -> Self {
        self.send_counter = counter;
        self
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of shard contexts this client maintains.
    pub fn n_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The routing epoch of the slice table this client currently
    /// routes by (0 until a redirect hands it a newer table).
    pub fn routing_epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// The shard a route hash maps to under the client's current
    /// slice table.
    pub fn shard_of_route(&self, route: u32) -> u32 {
        self.table.shard_of(route)
    }

    /// The slice table this client currently routes by.
    pub fn slice_table(&self) -> &crate::routing::SliceTable {
        &self.table
    }

    /// Sequence number of the last completed operation — the maximum
    /// over shard contexts (sequence numbers are per shard).
    pub fn last_seq(&self) -> SeqNo {
        self.shards
            .iter()
            .map(|s| s.tc)
            .max()
            .unwrap_or(SeqNo::ZERO)
    }

    /// Latest known majority-stable sequence number — the maximum over
    /// shard contexts.
    pub fn stable_seq(&self) -> SeqNo {
        self.shards
            .iter()
            .map(|s| s.ts)
            .max()
            .unwrap_or(SeqNo::ZERO)
    }

    /// Hash-chain value of the last completed operation on `shard`
    /// (shard 0 is *the* chain value for an unsharded deployment; a
    /// shard this client has no context for reads as genesis).
    pub fn chain_value_on(&self, shard: u32) -> ChainValue {
        let ctx = self.shards.get(shard as usize);
        ctx.map_or(ChainValue::GENESIS, |c| c.hc)
    }

    /// Hash-chain value of the last completed operation (shard 0).
    pub fn chain_value(&self) -> ChainValue {
        self.chain_value_on(0)
    }

    /// The `(tc, ts)` pair of one shard context (zeros for a shard
    /// this client has no context for).
    pub fn shard_seqs(&self, shard: u32) -> (SeqNo, SeqNo) {
        let ctx = self.shards.get(shard as usize);
        ctx.map_or((SeqNo::ZERO, SeqNo::ZERO), |c| (c.tc, c.ts))
    }

    /// Whether any operation is awaiting its reply.
    pub fn has_pending(&self) -> bool {
        !self.pending_order.is_empty()
    }

    /// Whether this client has detected a violation and halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Installs a rotated communication key (after a membership change
    /// distributed by the admin, §4.6.3).
    pub fn rotate_key(&mut self, new_k_c: &SecretKey) {
        self.key = GcmKey::from_secret(new_k_c);
    }

    /// Enables completion recording for the history checkers.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = if on { Some(Vec::new()) } else { None };
    }

    /// The recorded completions, if recording is enabled.
    pub fn records(&self) -> &[OpRecord] {
        self.recording.as_deref().unwrap_or(&[])
    }

    /// Registers a one-shot watch that fires when the majority-stable
    /// watermark reaches `threshold` (§4.5: "clients can register for
    /// notifications of stability updates", the Venus mechanism).
    ///
    /// Watches shard 0 — for an unsharded deployment, *the* watermark.
    /// Against a sharded deployment use
    /// [`LcmClient::watch_stability_on`] with the shard of the
    /// operation in question: sequence numbers are per shard, so only
    /// that shard's watermark says anything about the operation's
    /// durability.
    pub fn watch_stability(&mut self, threshold: SeqNo) -> WatchId {
        self.watch_stability_on(0, threshold)
    }

    /// Registers a one-shot watch against one shard's majority-stable
    /// watermark. Fires immediately into the queue if the threshold is
    /// already covered. An application typically watches the sequence
    /// number of a critical operation before acting on it irrevocably.
    /// A watch on a shard this client has no context for never fires.
    pub fn watch_stability_on(&mut self, shard: u32, threshold: SeqNo) -> WatchId {
        let id = WatchId(self.next_watch);
        self.next_watch += 1;
        self.watches.push((id, shard, threshold));
        self.fire_watches();
        id
    }

    /// Drains fired stability notifications.
    pub fn take_notifications(&mut self) -> Vec<StabilityEvent> {
        std::mem::take(&mut self.notifications)
    }

    fn fire_watches(&mut self) {
        let (shards, notifications) = (&self.shards, &mut self.notifications);
        self.watches.retain(
            |&(watch, shard, threshold)| match shards.get(shard as usize) {
                Some(ctx) if ctx.ts >= threshold => {
                    notifications.push(StabilityEvent {
                        watch,
                        threshold,
                        watermark: ctx.ts,
                    });
                    false
                }
                _ => true,
            },
        );
    }

    /// Produces the encrypted INVOKE message for operation `op`
    /// (Alg. 1 `invoke`).
    ///
    /// # Errors
    ///
    /// * [`LcmError::OperationPending`] — the previous operation has
    ///   not completed.
    /// * [`LcmError::Halted`] — a violation was detected earlier.
    pub fn invoke(&mut self, op: &[u8]) -> Result<Vec<u8>> {
        self.invoke_routed(op, None)
    }

    /// [`LcmClient::invoke`] with the functionality's partition key
    /// derived from the plaintext op — the entry point for sharded
    /// deployments: `client.invoke_for::<KvStore>(&op_bytes)`.
    ///
    /// # Errors
    ///
    /// Same as [`LcmClient::invoke`].
    pub fn invoke_for<F: Functionality>(&mut self, op: &[u8]) -> Result<Vec<u8>> {
        self.invoke_routed(op, F::shard_key(op))
    }

    /// Produces the encrypted INVOKE for `op`, routed by `shard_key`
    /// (`None` routes by client identity). The route hash travels in a
    /// plaintext envelope bound into the AAD; the operation is invoked
    /// against the matching shard's context.
    ///
    /// On a sharded deployment the `shard_key` must be the one the
    /// functionality itself derives (use [`LcmClient::invoke_for`]):
    /// the receiving enclave recomputes the route from the decrypted
    /// operation's `Functionality::shard_key` and halts with
    /// [`crate::Violation::WrongShard`] if the envelope disagrees —
    /// an envelope may not lie about its own operation.
    ///
    /// # Errors
    ///
    /// * [`LcmError::OperationPending`] — an operation is already
    ///   pending **on that shard** (per-shard sequential invocation;
    ///   operations on different shards may be pipelined).
    /// * [`LcmError::Halted`] — a violation was detected earlier.
    pub fn invoke_routed(&mut self, op: &[u8], shard_key: Option<&[u8]>) -> Result<Vec<u8>> {
        if self.halted {
            return Err(LcmError::Halted);
        }
        let route = route_for(self.id, shard_key);
        let shard = self.table.shard_of(route);
        let ctx = idle_ctx(&mut self.shards, shard)?;
        let pending = Pending {
            op: op.to_vec(),
            tc: ctx.tc,
            hc: ctx.hc,
            route,
            epoch: self.table.epoch(),
        };
        let nonce = next_nonce(self.id, &mut self.send_counter);
        let wire = seal_invoke(&self.key, self.id, &nonce, &pending, false)?;
        ctx.pending = Some(pending);
        self.pending_order.push_back(shard);
        Ok(wire)
    }

    /// Re-produces the **oldest** pending INVOKE with the retry flag
    /// set (crash-tolerance extension §4.6.1; send after a timeout).
    /// With at most one operation in flight — the paper's sequential
    /// client — "oldest" is simply "the" pending operation.
    ///
    /// # Errors
    ///
    /// * [`LcmError::NothingToRetry`] — no operation is pending.
    /// * [`LcmError::Halted`] — the client has halted.
    pub fn retry(&mut self) -> Result<Vec<u8>> {
        if self.halted {
            return Err(LcmError::Halted);
        }
        let &shard = self.pending_order.front().ok_or(LcmError::NothingToRetry)?;
        let ctx = self.shards.get(shard as usize);
        let Some(pending) = ctx.and_then(|c| c.pending.as_ref()) else {
            return Err(LcmError::NothingToRetry);
        };
        let nonce = next_nonce(self.id, &mut self.send_counter);
        seal_invoke(&self.key, self.id, &nonce, pending, true)
    }

    /// Produces an encrypted verified-read leg for the read-only
    /// operation `op`, routed by the functionality's partition key and
    /// pinned to `replica` of the target shard's replica group.
    ///
    /// # Errors
    ///
    /// Same as [`LcmClient::read_routed`].
    pub fn read_for<F: Functionality>(&mut self, op: &[u8], replica: u32) -> Result<Vec<u8>> {
        self.read_routed(op, F::shard_key(op), replica)
    }

    /// Produces an encrypted READ leg for the read-only operation
    /// `op`, routed by `shard_key` (`None` routes by client identity)
    /// and pinned to `replica` within the target shard's group.
    ///
    /// The leg carries the client's full context `(tc, hc)` for that
    /// shard; the serving replica answers only if its own recorded
    /// entry for this client matches **exactly** — the same
    /// rollback/fork check a write performs, minus the chain
    /// extension. Replica 0 (the leader) is always a valid pin; higher
    /// slots scale read throughput across followers.
    ///
    /// # Errors
    ///
    /// * [`LcmError::OperationPending`] — a write **or** read is
    ///   already in flight on that shard. Reads and writes on one
    ///   shard are mutually exclusive: a write completing mid-read
    ///   would advance `(tc, hc)` past the context the read is
    ///   verified against, turning an honest follower reply into a
    ///   false violation.
    /// * [`LcmError::Halted`] — a violation was detected earlier.
    pub fn read_routed(
        &mut self,
        op: &[u8],
        shard_key: Option<&[u8]>,
        replica: u32,
    ) -> Result<Vec<u8>> {
        if self.halted {
            return Err(LcmError::Halted);
        }
        let route = route_for(self.id, shard_key);
        let shard = self.table.shard_of(route);
        let ctx = idle_ctx(&mut self.shards, shard)?;
        let pending = PendingRead {
            op: op.to_vec(),
            tc: ctx.tc,
            hc: ctx.hc,
            route,
            replica,
            epoch: self.table.epoch(),
        };
        let nonce = next_nonce(self.id, &mut self.send_counter);
        let wire = seal_read(&self.key, self.id, &nonce, &pending)?;
        ctx.pending_read = Some(pending);
        Ok(wire)
    }

    /// Re-produces the pending read leg on `shard`, optionally
    /// re-pinning it to a different replica (after a timeout or a
    /// [`ReadOutcome::Behind`]-less silence — e.g. the pinned follower
    /// crashed). Reads are idempotent and never advance the context,
    /// so re-pinning is always safe; the new AAD simply addresses a
    /// different group member.
    ///
    /// # Errors
    ///
    /// * [`LcmError::NothingToRetry`] — no read is pending on `shard`.
    /// * [`LcmError::Halted`] — the client has halted.
    pub fn retry_read(&mut self, shard: u32, replica: Option<u32>) -> Result<Vec<u8>> {
        if self.halted {
            return Err(LcmError::Halted);
        }
        let ctx = self.shards.get_mut(shard as usize);
        let pending = ctx.and_then(|c| c.pending_read.as_mut());
        let pending = pending.ok_or(LcmError::NothingToRetry)?;
        if let Some(r) = replica {
            pending.replica = r;
        }
        let nonce = next_nonce(self.id, &mut self.send_counter);
        seal_read(&self.key, self.id, &nonce, pending)
    }

    /// Abandons the pending read leg on `shard` (e.g. to fall back to
    /// the write path when the group has no live follower). Safe
    /// because reads never advance the client context; a late reply to
    /// the abandoned leg must **not** be fed to
    /// [`LcmClient::handle_read_reply`] afterwards.
    pub fn cancel_read(&mut self, shard: u32) {
        if let Some(ctx) = self.shards.get_mut(shard as usize) {
            ctx.pending_read = None;
        }
    }

    /// Whether a read leg is in flight on `shard`.
    pub fn has_pending_read(&self, shard: u32) -> bool {
        self.shards
            .get(shard as usize)
            .is_some_and(|c| c.pending_read.is_some())
    }

    /// Consumes a READ-REPLY leg, completing the pending read on the
    /// shard it authenticates against.
    ///
    /// A [`ReadOutcome::Fresh`] result passed exactly the context
    /// check a write reply would (`t = tc ∧ h = hc` inside the serving
    /// enclave, echo verified here); [`ReadOutcome::Behind`] clears
    /// the pending read so the caller can re-issue elsewhere.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — authentication failure, an echo
    ///   mismatch, a fresh reply whose `(t, h)` differ from the leg's
    ///   context, or a stability regression; the client halts.
    /// * [`LcmError::Violation`] with [`Violation::UnexpectedReply`] —
    ///   no read pending anywhere.
    pub fn handle_read_reply(&mut self, wire: &[u8]) -> Result<ReadOutcome> {
        if self.halted {
            return Err(LcmError::Halted);
        }
        self.in_scratch(wire, Self::complete_read)
    }

    /// Runs `complete` on a copy of `wire` made in the scratch buffer,
    /// which it may decrypt where it lies.
    fn in_scratch<R>(
        &mut self,
        wire: &[u8],
        complete: impl FnOnce(&mut Self, &mut [u8]) -> R,
    ) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(wire);
        let outcome = complete(self, &mut scratch);
        self.scratch = scratch;
        outcome
    }

    /// [`LcmClient::handle_read_reply`] on the scratch copy of the wire.
    fn complete_read(&mut self, sealed: &mut [u8]) -> Result<ReadOutcome> {
        // Identify the read this reply answers by AAD authentication,
        // like handle_reply_on does for writes: at most one read per
        // shard, each under a distinct (route, seq, replica) AAD.
        let mut matched = None;
        for (idx, ctx) in self.shards.iter().enumerate() {
            let Some(pending) = ctx.pending_read.as_ref() else {
                continue;
            };
            let aad = read_reply_aad(
                self.id,
                pending.route,
                pending.tc.0,
                pending.replica,
                pending.epoch,
            );
            if let Ok(plain) = gcm::open_in_place(&self.key, &aad, sealed) {
                matched = Some((idx as u32, pending.tc, pending.hc, plain.len()));
                break;
            }
        }
        let Some((shard, pending_tc, pending_hc, plain_len)) = matched else {
            self.halted = true;
            if self.shards.iter().all(|c| c.pending_read.is_none()) {
                return Err(Violation::UnexpectedReply.into());
            }
            return Err(Violation::BadAuthentication.into());
        };
        let plain = sealed.get(NONCE_LEN..NONCE_LEN + plain_len);
        let reply = match ReadReplyMsg::from_bytes(plain.unwrap_or_default()) {
            Ok(m) => m,
            Err(_) => {
                self.halted = true;
                return Err(Violation::BadAuthentication.into());
            }
        };

        // assert h'c = hc — the echo ties the reply to this leg.
        if reply.hc_echo != pending_hc {
            self.halted = true;
            return Err(Violation::ReplyMismatch {
                expected: pending_hc,
                got: reply.hc_echo,
            }
            .into());
        }

        match reply.status {
            crate::wire::ReadStatus::Behind => {
                // The member hasn't applied the round holding our last
                // op yet (or has not adopted the routing table we
                // stamped the leg with). Retryable, not an attack:
                // quorum stability means at least a quorum HAS applied
                // it, just not this member.
                self.cancel_read(shard);
                return Ok(ReadOutcome::Behind);
            }
            crate::wire::ReadStatus::Moved => {
                // The slice migrated away under a newer table, carried
                // in the result: adopt it and let the caller re-issue
                // against the new owner.
                self.adopt_table(&reply.result)?;
                self.cancel_read(shard);
                return Ok(ReadOutcome::Moved);
            }
            crate::wire::ReadStatus::Fresh => {}
        }

        // Fresh: the member's recorded entry must BE our context, and
        // its stable watermark can only have moved forward relative to
        // what any earlier reply on this shard told us.
        let ctx = (self.shards.get_mut(shard as usize))
            .filter(|c| reply.t == pending_tc && reply.h == pending_hc && reply.q >= c.ts);
        let Some(ctx) = ctx else {
            self.halted = true;
            return Err(Violation::ReplyMismatch {
                expected: pending_hc,
                got: reply.h,
            }
            .into());
        };

        ctx.ts = reply.q; // reads piggyback stability, never (tc, hc)
        ctx.pending_read = None;
        self.fire_watches();

        Ok(ReadOutcome::Fresh(Completion {
            result: reply.result,
            seq: reply.t,
            stable: reply.q,
        }))
    }

    /// Adopts a slice table handed back by a redirect or moved-read
    /// reply (already authenticated as part of that reply). Newer
    /// epochs replace the client's table; older or equal epochs are
    /// no-ops (several in-flight redirects can race to deliver the
    /// same bump). A table that fails to decode or names a different
    /// shard count cannot come from an honest enclave of this
    /// deployment: the client halts.
    fn adopt_table(&mut self, encoded: &[u8]) -> Result<()> {
        let table = match SliceTable::from_bytes(encoded) {
            Ok(t) => t,
            Err(_) => {
                self.halted = true;
                return Err(Violation::BadAuthentication.into());
            }
        };
        if table.count() != self.shards.len() as u32 {
            self.halted = true;
            return Err(Violation::BadAuthentication.into());
        }
        if table.epoch() > self.table.epoch() {
            self.table = table;
        }
        Ok(())
    }

    /// Consumes a REPLY message, completing the pending operation
    /// (Alg. 1 `upon receiving reply`).
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — authentication failure or an echo
    ///   mismatch (`assert h'c = hc`); the client halts.
    /// * [`LcmError::Violation`] with [`Violation::UnexpectedReply`] —
    ///   no operation pending.
    /// * [`LcmError::Tee`] — the reply was a resharding redirect; this
    ///   convenience wrapper cannot hand the operation back, so
    ///   deployments that migrate slices must drive
    ///   [`LcmClient::handle_reply_on`] and re-invoke on
    ///   [`WriteOutcome::Redirected`]. The redirect itself was
    ///   processed (context advanced, table adopted) — only the
    ///   re-invocation is on the caller.
    pub fn handle_reply(&mut self, wire: &[u8]) -> Result<Completion> {
        match self.handle_reply_on(wire)? {
            (_, WriteOutcome::Done(done)) => Ok(done),
            (_, WriteOutcome::Redirected { .. }) => Err(LcmError::Tee(
                "operation redirected during resharding; use handle_reply_on and re-invoke".into(),
            )),
        }
    }

    /// [`LcmClient::handle_reply`], additionally reporting **which
    /// shard's** pending operation the reply completed (identified by
    /// AAD authentication, not by delivery order), and surfacing
    /// resharding redirects as [`WriteOutcome::Redirected`] instead of
    /// an error. Scatter-gather callers use the shard index to pair
    /// each merged leg back to the operation it answers.
    ///
    /// # Errors
    ///
    /// Same as [`LcmClient::handle_reply`], minus the redirect case.
    pub fn handle_reply_on(&mut self, wire: &[u8]) -> Result<(u32, WriteOutcome)> {
        if self.halted {
            return Err(LcmError::Halted);
        }
        if self.pending_order.is_empty() {
            self.halted = true;
            return Err(Violation::UnexpectedReply.into());
        }
        self.in_scratch(wire, Self::complete_write)
    }

    /// [`LcmClient::handle_reply_on`] on the scratch copy of the wire.
    fn complete_write(&mut self, sealed: &mut [u8]) -> Result<(u32, WriteOutcome)> {
        // The reply AAD binds (client, route), and concurrent pendings
        // necessarily carry distinct routes (one pending per shard),
        // so authentication *identifies* the operation being
        // completed: try each in-flight op in submission order and
        // take the one whose AAD verifies. This keeps the client sound
        // when replies cross shards out of order — e.g. after a
        // sibling shard crash-stopped and its reply will never come —
        // while a swapped or foreign reply authenticates under no
        // pending route at all.
        let mut matched = None;
        for (pos, &shard) in self.pending_order.iter().enumerate() {
            let ctx = self.shards.get(shard as usize);
            let Some(pending) = ctx.and_then(|c| c.pending.as_ref()) else {
                continue;
            };
            let aad = reply_aad(self.id, pending.route, pending.epoch);
            if let Ok(plain) = gcm::open_in_place(&self.key, &aad, sealed) {
                matched = Some((pos, shard, pending.hc, plain.len()));
                break;
            }
        }
        let Some((pos, shard, pending_hc, plain_len)) = matched else {
            self.halted = true;
            return Err(Violation::BadAuthentication.into());
        };
        let plain = sealed.get(NONCE_LEN..NONCE_LEN + plain_len);
        let reply = match ReplyView::from_bytes(plain.unwrap_or_default()) {
            Ok(m) => m,
            Err(_) => {
                self.halted = true;
                return Err(Violation::BadAuthentication.into());
            }
        };

        // assert h'c = hc — against the invocation-time context.
        if reply.hc_echo != pending_hc {
            self.halted = true;
            return Err(Violation::ReplyMismatch {
                expected: pending_hc,
                got: reply.hc_echo,
            }
            .into());
        }

        // (tc, ts, hc) ← (t, q, h). Sequence numbers returned by one
        // shard to one client strictly increase and stability never
        // decreases; a server violating either is caught here.
        let Some(ctx) = self.shards.get_mut(shard as usize) else {
            self.halted = true;
            return Err(Violation::BadAuthentication.into());
        };
        if reply.t <= ctx.tc || reply.q < ctx.ts {
            self.halted = true;
            return Err(Violation::ReplyMismatch {
                expected: ctx.hc,
                got: reply.h,
            }
            .into());
        }
        let Some(pending) = ctx.pending.take() else {
            self.halted = true;
            return Err(Violation::BadAuthentication.into());
        };

        ctx.tc = reply.t;
        ctx.ts = reply.q;
        ctx.hc = reply.h;
        self.pending_order.remove(pos);
        self.fire_watches();

        if reply.redirect {
            // The shard stamped a redirect instead of executing: its
            // context advanced exactly as above (the stamp is a real
            // protocol step on that shard), and the result carries the
            // routing table to adopt. The operation itself has NOT
            // executed — hand it back for re-invocation under the new
            // table. Redirect stamps are deliberately not recorded:
            // the history checkers replay executed operations, and a
            // redirect executes nothing.
            self.adopt_table(reply.result)?;
            return Ok((shard, WriteOutcome::Redirected { op: pending.op }));
        }

        let result = reply.result.to_vec();
        if let Some(log) = self.recording.as_mut() {
            log.push(OpRecord {
                client: self.id,
                shard,
                seq: reply.t,
                chain: reply.h,
                op: pending.op,
                result: result.clone(),
                stable: reply.q,
            });
        }

        Ok((
            shard,
            WriteOutcome::Done(Completion {
                result,
                seq: reply.t,
                stable: reply.q,
            }),
        ))
    }
}

/// The context of `shard` when nothing is in flight on it. A client's
/// table has exactly one shard per context (`adopt_table` refuses any
/// other), so a miss is a table no honest enclave sent, and is refused
/// like one.
fn idle_ctx(shards: &mut [ShardCtx], shard: u32) -> Result<&mut ShardCtx> {
    let Some(ctx) = shards.get_mut(shard as usize) else {
        return Err(Violation::BadAuthentication.into());
    };
    if ctx.pending.is_some() || ctx.pending_read.is_some() {
        return Err(LcmError::OperationPending);
    }
    Ok(ctx)
}

/// The nonce of client `id`'s next sealed wire: `id (4, BE) ‖ send
/// counter (8, BE)`. Consumes the counter value.
fn next_nonce(id: ClientId, send_counter: &mut u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&id.0.to_be_bytes());
    nonce[4..].copy_from_slice(&send_counter.to_be_bytes());
    *send_counter = send_counter.wrapping_add(1);
    nonce
}

/// The INVOKE wire for `pending`: `route hint ‖ nonce ‖ ciphertext ‖
/// tag`, the operation copied once, from `pending` into the wire.
fn seal_invoke(
    key: &GcmKey,
    id: ClientId,
    nonce: &[u8; NONCE_LEN],
    pending: &Pending,
    retry: bool,
) -> Result<Vec<u8>> {
    let hint = RouteHint {
        client: id,
        route: pending.route,
        // `tc` is fixed when the op is first submitted, so a retry
        // re-encodes the *same* envelope sequence — the property
        // the host-side dedup of `crate::admission` keys on.
        seq: pending.tc.0,
        // Likewise the routing epoch: a retry replays the stamp of
        // the original submission even if the client has adopted a
        // newer table since (the AAD binds it).
        epoch: pending.epoch,
    };
    let msg = InvokeView {
        client: id,
        tc: pending.tc,
        hc: pending.hc,
        retry,
        op: &pending.op,
    };
    seal_message(
        key,
        nonce,
        &invoke_aad(id, pending.route, pending.tc.0, pending.epoch),
        &hint.to_bytes(),
        INVOKE_OVERHEAD + pending.op.len(),
        |w| msg.encode(w),
    )
}

/// The verified-read leg for `pending`: `read hint ‖ nonce ‖
/// ciphertext ‖ tag`.
fn seal_read(
    key: &GcmKey,
    id: ClientId,
    nonce: &[u8; NONCE_LEN],
    pending: &PendingRead,
) -> Result<Vec<u8>> {
    let hint = ReadHint {
        client: id,
        route: pending.route,
        seq: pending.tc.0,
        replica: pending.replica,
        epoch: pending.epoch,
    };
    let msg = ReadMsg {
        client: id,
        tc: pending.tc,
        hc: pending.hc,
        op: pending.op.clone(),
    };
    seal_message(
        key,
        nonce,
        &read_aad(
            id,
            pending.route,
            pending.tc.0,
            pending.replica,
            pending.epoch,
        ),
        &hint.to_bytes(),
        INVOKE_OVERHEAD + pending.op.len(),
        |w| msg.encode(w),
    )
}

// A client session is plain `Send` data — independent clients submit
// from independent threads through their deployment's ports
// ([`crate::transport::FrontendPort`]). This fails to compile if a future
// field change silently breaks that.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<LcmClient>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{InvokeMsg, ReadStatus, ReplyMsg, READ_HINT_LEN, ROUTE_HINT_LEN};
    use proptest::prelude::*;

    fn key() -> SecretKey {
        SecretKey::from_bytes([7u8; 32])
    }

    fn reply_wire(k: &SecretKey, reply: &ReplyMsg) -> Vec<u8> {
        gcm::auth_encrypt(
            &GcmKey::from_secret(k),
            &reply.to_bytes(),
            &reply_aad(ClientId(1), crate::shard::route_for(ClientId(1), None), 0),
        )
        .unwrap()
    }

    fn ok_reply(t: u64, q: u64, hc_echo: ChainValue) -> ReplyMsg {
        ReplyMsg {
            t: SeqNo(t),
            q: SeqNo(q),
            h: ChainValue::GENESIS.extend(b"op", SeqNo(t), ClientId(1)),
            hc_echo,
            redirect: false,
            result: b"ok".to_vec(),
        }
    }

    /// Decrypts an enveloped invoke wire at the "T" side.
    fn decrypt_invoke(k: &SecretKey, wire: &[u8]) -> Result<InvokeMsg> {
        let (hint, ct) = RouteHint::peel(wire).expect("envelope present");
        let plain = gcm::auth_decrypt(
            &GcmKey::from_secret(k),
            ct,
            &invoke_aad(hint.client, hint.route, hint.seq, hint.epoch),
        )
        .map_err(|_| LcmError::Violation(Violation::BadAuthentication))?;
        Ok(InvokeMsg::from_bytes(&plain).unwrap())
    }

    #[test]
    fn invoke_reply_cycle() {
        let mut c = LcmClient::new(ClientId(1), &key());
        let wire = c.invoke(b"op").unwrap();
        assert!(c.has_pending());
        // Decrypt at "T" side to inspect.
        let msg = decrypt_invoke(&key(), &wire).unwrap();
        assert_eq!(msg.client, ClientId(1));
        assert_eq!(msg.tc, SeqNo::ZERO);
        assert!(!msg.retry);
        // The envelope carries the client and its client-derived route.
        let (hint, _) = RouteHint::peel(&wire).unwrap();
        assert_eq!(hint.client, ClientId(1));
        assert_eq!(hint.route, crate::shard::route_for(ClientId(1), None));

        let completion = c
            .handle_reply(&reply_wire(&key(), &ok_reply(1, 0, ChainValue::GENESIS)))
            .unwrap();
        assert_eq!(completion.seq, SeqNo(1));
        assert_eq!(c.last_seq(), SeqNo(1));
        assert!(!c.has_pending());
    }

    #[test]
    fn sequential_invocation_enforced() {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.invoke(b"a").unwrap();
        assert_eq!(c.invoke(b"b"), Err(LcmError::OperationPending));
    }

    #[test]
    fn retry_requires_pending() {
        let mut c = LcmClient::new(ClientId(1), &key());
        assert_eq!(c.retry(), Err(LcmError::NothingToRetry));
        c.invoke(b"a").unwrap();
        let retry_wire = c.retry().unwrap();
        assert!(decrypt_invoke(&key(), &retry_wire).unwrap().retry);
    }

    #[test]
    fn echo_mismatch_halts() {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.invoke(b"a").unwrap();
        let bad_echo = ChainValue::GENESIS.extend(b"forged", SeqNo(9), ClientId(9));
        let err = c
            .handle_reply(&reply_wire(&key(), &ok_reply(1, 0, bad_echo)))
            .unwrap_err();
        assert!(matches!(
            err,
            LcmError::Violation(Violation::ReplyMismatch { .. })
        ));
        assert!(c.is_halted());
        assert_eq!(c.invoke(b"x"), Err(LcmError::Halted));
    }

    #[test]
    fn tampered_reply_halts() {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.invoke(b"a").unwrap();
        let mut wire = reply_wire(&key(), &ok_reply(1, 0, ChainValue::GENESIS));
        wire[20] ^= 0xff;
        assert!(matches!(
            c.handle_reply(&wire),
            Err(LcmError::Violation(Violation::BadAuthentication))
        ));
        assert!(c.is_halted());
    }

    #[test]
    fn unexpected_reply_halts() {
        let mut c = LcmClient::new(ClientId(1), &key());
        let wire = reply_wire(&key(), &ok_reply(1, 0, ChainValue::GENESIS));
        assert!(matches!(
            c.handle_reply(&wire),
            Err(LcmError::Violation(Violation::UnexpectedReply))
        ));
    }

    #[test]
    fn nonmonotone_seq_halts() {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.invoke(b"a").unwrap();
        let r1 = ok_reply(5, 0, ChainValue::GENESIS);
        c.handle_reply(&reply_wire(&key(), &r1)).unwrap();
        c.invoke(b"b").unwrap();
        // Server returns a SMALLER sequence number: rollback symptom.
        let r2 = ok_reply(3, 0, r1.h);
        assert!(c.handle_reply(&reply_wire(&key(), &r2)).is_err());
        assert!(c.is_halted());
    }

    #[test]
    fn decreasing_stability_halts() {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.invoke(b"a").unwrap();
        let r1 = ok_reply(1, 1, ChainValue::GENESIS);
        c.handle_reply(&reply_wire(&key(), &r1)).unwrap();
        assert_eq!(c.stable_seq(), SeqNo(1));
        c.invoke(b"b").unwrap();
        let mut r2 = ok_reply(2, 0, r1.h);
        r2.q = SeqNo(0); // stability went backwards
        assert!(c.handle_reply(&reply_wire(&key(), &r2)).is_err());
    }

    #[test]
    fn recording_captures_completions() {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.set_recording(true);
        c.invoke(b"a").unwrap();
        c.handle_reply(&reply_wire(&key(), &ok_reply(1, 0, ChainValue::GENESIS)))
            .unwrap();
        assert_eq!(c.records().len(), 1);
        assert_eq!(c.records()[0].seq, SeqNo(1));
        assert_eq!(c.records()[0].op, b"a");
    }

    #[test]
    fn stability_watch_fires_when_threshold_crossed() {
        let mut c = LcmClient::new(ClientId(1), &key());
        let w = c.watch_stability(SeqNo(1));
        assert!(c.take_notifications().is_empty());

        c.invoke(b"a").unwrap();
        c.handle_reply(&reply_wire(&key(), &ok_reply(1, 0, ChainValue::GENESIS)))
            .unwrap();
        assert!(c.take_notifications().is_empty(), "q=0: not yet");

        c.invoke(b"b").unwrap();
        let r1h = ok_reply(1, 0, ChainValue::GENESIS).h;
        c.handle_reply(&reply_wire(&key(), &ok_reply(2, 1, r1h)))
            .unwrap();
        let fired = c.take_notifications();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].watch, w);
        assert_eq!(fired[0].threshold, SeqNo(1));
        assert_eq!(fired[0].watermark, SeqNo(1));
        // One-shot: does not fire again.
        assert!(c.take_notifications().is_empty());
    }

    #[test]
    fn stability_watch_fires_immediately_if_already_stable() {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.invoke(b"a").unwrap();
        c.handle_reply(&reply_wire(&key(), &ok_reply(3, 2, ChainValue::GENESIS)))
            .unwrap();
        let w = c.watch_stability(SeqNo(2));
        let fired = c.take_notifications();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].watch, w);
    }

    #[test]
    fn multiple_watches_fire_in_one_update() {
        let mut c = LcmClient::new(ClientId(1), &key());
        let w1 = c.watch_stability(SeqNo(1));
        let w2 = c.watch_stability(SeqNo(2));
        let w3 = c.watch_stability(SeqNo(50));
        c.invoke(b"a").unwrap();
        c.handle_reply(&reply_wire(&key(), &ok_reply(5, 3, ChainValue::GENESIS)))
            .unwrap();
        let fired: Vec<WatchId> = c.take_notifications().iter().map(|e| e.watch).collect();
        assert!(fired.contains(&w1) && fired.contains(&w2));
        assert!(!fired.contains(&w3));
    }

    #[test]
    fn rotate_key_switches_cipher() {
        let mut c = LcmClient::new(ClientId(1), &key());
        let new_key = SecretKey::from_bytes([8u8; 32]);
        c.rotate_key(&new_key);
        let wire = c.invoke(b"a").unwrap();
        // Old key can no longer decrypt the client's messages.
        assert!(decrypt_invoke(&key(), &wire).is_err());
        assert!(decrypt_invoke(&new_key, &wire).is_ok());
    }

    #[test]
    fn sharded_client_pipelines_across_shards_only() {
        // Two ops with different partition keys that land on different
        // shards may be in flight together; a second op on the SAME
        // shard is refused until the first completes.
        let mut c = LcmClient::new_sharded(ClientId(1), &key(), 2);
        let shard_of = |k: &[u8]| crate::shard::shard_index(crate::shard::route_hash(k), 2);
        // Find keys on both shards.
        let mut by_shard: [Option<Vec<u8>>; 2] = [None, None];
        for i in 0..32u32 {
            let k = format!("key{i}").into_bytes();
            let s = shard_of(&k) as usize;
            if by_shard[s].is_none() {
                by_shard[s] = Some(k);
            }
        }
        let (ka, kb) = (by_shard[0].clone().unwrap(), by_shard[1].clone().unwrap());
        c.invoke_routed(b"op-a", Some(&ka)).unwrap();
        c.invoke_routed(b"op-b", Some(&kb)).unwrap();
        assert!(c.has_pending());
        // Same shard as op-a: refused.
        assert_eq!(
            c.invoke_routed(b"op-a2", Some(&ka)),
            Err(LcmError::OperationPending)
        );
        // Retry re-encodes the OLDEST pending op.
        let retried = decrypt_invoke(&key(), &c.retry().unwrap()).unwrap();
        assert!(retried.retry);
        assert_eq!(retried.op, b"op-a");
    }

    // ---- verified read legs --------------------------------------

    fn read_reply_wire(k: &SecretKey, reply: &ReadReplyMsg, seq: u64, replica: u32) -> Vec<u8> {
        gcm::auth_encrypt(
            &GcmKey::from_secret(k),
            &reply.to_bytes(),
            &read_reply_aad(
                ClientId(1),
                crate::shard::route_for(ClientId(1), None),
                seq,
                replica,
                0,
            ),
        )
        .unwrap()
    }

    /// Runs one write so the client context is non-genesis.
    fn client_with_one_op() -> (LcmClient, ChainValue) {
        let mut c = LcmClient::new(ClientId(1), &key());
        c.invoke(b"op").unwrap();
        let r = ok_reply(1, 0, ChainValue::GENESIS);
        c.handle_reply(&reply_wire(&key(), &r)).unwrap();
        (c, r.h)
    }

    #[test]
    fn read_fresh_cycle() {
        let (mut c, hc) = client_with_one_op();
        let wire = c.read_routed(b"GET k", None, 2).unwrap();
        assert!(c.has_pending_read(0));
        // Envelope pins the replica and carries the context seq.
        let (hint, ct) = ReadHint::peel(&wire).unwrap();
        assert_eq!(hint.replica, 2);
        assert_eq!(hint.seq, 1);
        // The leg decrypts only under the pinned member's AAD.
        let route = crate::shard::route_for(ClientId(1), None);
        assert!(gcm::auth_decrypt(
            &GcmKey::from_secret(&key()),
            ct,
            &read_aad(ClientId(1), route, 1, 3, 0),
        )
        .is_err());
        let plain = gcm::auth_decrypt(
            &GcmKey::from_secret(&key()),
            ct,
            &read_aad(ClientId(1), route, 1, 2, 0),
        )
        .unwrap();
        let msg = ReadMsg::from_bytes(&plain).unwrap();
        assert_eq!(msg.tc, SeqNo(1));
        assert_eq!(msg.hc, hc);

        let reply = ReadReplyMsg {
            t: SeqNo(1),
            q: SeqNo(1),
            h: hc,
            hc_echo: hc,
            status: ReadStatus::Fresh,
            result: b"v".to_vec(),
        };
        let out = c
            .handle_read_reply(&read_reply_wire(&key(), &reply, 1, 2))
            .unwrap();
        let ReadOutcome::Fresh(done) = out else {
            panic!("expected fresh read");
        };
        assert_eq!(done.result, b"v");
        // Reads piggyback stability but never advance (tc, hc).
        assert_eq!(c.stable_seq(), SeqNo(1));
        assert_eq!(c.last_seq(), SeqNo(1));
        assert_eq!(c.chain_value(), hc);
        assert!(!c.has_pending_read(0));
    }

    #[test]
    fn read_behind_clears_pending_for_reissue() {
        let (mut c, hc) = client_with_one_op();
        c.read_routed(b"GET k", None, 1).unwrap();
        let reply = ReadReplyMsg {
            t: SeqNo(0),
            q: SeqNo(0),
            h: ChainValue::GENESIS,
            hc_echo: hc,
            status: ReadStatus::Behind,
            result: Vec::new(),
        };
        let out = c
            .handle_read_reply(&read_reply_wire(&key(), &reply, 1, 1))
            .unwrap();
        assert_eq!(out, ReadOutcome::Behind);
        assert!(!c.is_halted(), "behind is retryable, not a violation");
        // Re-issue to another replica.
        let wire = c.read_routed(b"GET k", None, 2).unwrap();
        assert_eq!(ReadHint::peel(&wire).unwrap().0.replica, 2);
    }

    #[test]
    fn read_and_write_mutually_exclusive_per_shard() {
        let (mut c, _) = client_with_one_op();
        c.read_routed(b"GET k", None, 0).unwrap();
        assert_eq!(c.invoke(b"w"), Err(LcmError::OperationPending));
        assert_eq!(
            c.read_routed(b"GET k2", None, 1),
            Err(LcmError::OperationPending)
        );
        c.cancel_read(0);
        c.invoke(b"w").unwrap();
        assert_eq!(
            c.read_routed(b"GET k", None, 0),
            Err(LcmError::OperationPending)
        );
    }

    #[test]
    fn retry_read_repins_replica() {
        let (mut c, _) = client_with_one_op();
        c.read_routed(b"GET k", None, 1).unwrap();
        let wire = c.retry_read(0, Some(2)).unwrap();
        assert_eq!(ReadHint::peel(&wire).unwrap().0.replica, 2);
        // A reply from the new pin is accepted.
        let hc = c.chain_value();
        let reply = ReadReplyMsg {
            t: SeqNo(1),
            q: SeqNo(0),
            h: hc,
            hc_echo: hc,
            status: ReadStatus::Fresh,
            result: b"v".to_vec(),
        };
        assert!(matches!(
            c.handle_read_reply(&read_reply_wire(&key(), &reply, 1, 2)),
            Ok(ReadOutcome::Fresh(_))
        ));
    }

    #[test]
    fn read_fresh_with_wrong_context_halts() {
        let (mut c, hc) = client_with_one_op();
        c.read_routed(b"GET k", None, 0).unwrap();
        // A "fresh" reply whose recorded entry is NOT the client's
        // context is a rollback symptom on the serving replica.
        let reply = ReadReplyMsg {
            t: SeqNo(9),
            q: SeqNo(0),
            h: ChainValue::GENESIS.extend(b"forged", SeqNo(9), ClientId(1)),
            hc_echo: hc,
            status: ReadStatus::Fresh,
            result: b"v".to_vec(),
        };
        assert!(c
            .handle_read_reply(&read_reply_wire(&key(), &reply, 1, 0))
            .is_err());
        assert!(c.is_halted());
    }

    #[test]
    fn read_reply_from_wrong_replica_halts() {
        let (mut c, hc) = client_with_one_op();
        c.read_routed(b"GET k", None, 0).unwrap();
        let reply = ReadReplyMsg {
            t: SeqNo(1),
            q: SeqNo(0),
            h: hc,
            hc_echo: hc,
            status: ReadStatus::Fresh,
            result: b"v".to_vec(),
        };
        // Encrypted under replica 1's channel but the leg pinned 0:
        // authentication cannot attribute it to any pending read.
        let wire = read_reply_wire(&key(), &reply, 1, 1);
        assert!(matches!(
            c.handle_read_reply(&wire),
            Err(LcmError::Violation(Violation::BadAuthentication))
        ));
        assert!(c.is_halted());
    }

    // ---- epoch-versioned routing ---------------------------------

    /// A moved slice table (epoch 1) for a 2-shard deployment, where
    /// the given route's slice now lives on the other shard.
    fn moved_table(route: u32, from: u32) -> crate::routing::SliceTable {
        let base = crate::routing::SliceTable::uniform(2);
        base.moved(crate::routing::slice_of(route), 1 - from)
            .unwrap()
    }

    #[test]
    fn redirect_reply_adopts_table_and_reroutes() {
        let mut c = LcmClient::new_sharded(ClientId(1), &key(), 2);
        let route = crate::shard::route_for(ClientId(1), Some(b"k"));
        let shard = c.shard_of_route(route);
        c.invoke_routed(b"op", Some(b"k")).unwrap();
        // The shard answers with a redirect stamp carrying the moved
        // table instead of an execution result.
        let table = moved_table(route, shard);
        let reply = ReplyMsg {
            t: SeqNo(1),
            q: SeqNo(0),
            h: ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(1)),
            hc_echo: ChainValue::GENESIS,
            redirect: true,
            result: table.to_bytes(),
        };
        let wire = gcm::auth_encrypt(
            &GcmKey::from_secret(&key()),
            &reply.to_bytes(),
            &reply_aad(ClientId(1), route, 0),
        )
        .unwrap();
        let (from, out) = c.handle_reply_on(&wire).unwrap();
        assert_eq!(from, shard);
        let WriteOutcome::Redirected { op } = out else {
            panic!("expected redirect outcome");
        };
        assert_eq!(op, b"op");
        assert!(!c.is_halted());
        // The table was adopted: the epoch advanced and the same key
        // now routes to the other shard.
        assert_eq!(c.routing_epoch(), 1);
        assert_eq!(c.shard_of_route(route), 1 - shard);
        // The redirect stamp consumed the pending slot; the op can be
        // re-invoked at the new owner.
        let rewire = c.invoke_routed(&op, Some(b"k")).unwrap();
        let (hint, _) = RouteHint::peel(&rewire).unwrap();
        assert_eq!(hint.epoch, 1);
    }

    #[test]
    fn redirect_reply_with_garbage_table_halts() {
        let mut c = LcmClient::new_sharded(ClientId(1), &key(), 2);
        let route = crate::shard::route_for(ClientId(1), Some(b"k"));
        c.invoke_routed(b"op", Some(b"k")).unwrap();
        let reply = ReplyMsg {
            t: SeqNo(1),
            q: SeqNo(0),
            h: ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(1)),
            hc_echo: ChainValue::GENESIS,
            redirect: true,
            result: b"not a table".to_vec(),
        };
        let wire = gcm::auth_encrypt(
            &GcmKey::from_secret(&key()),
            &reply.to_bytes(),
            &reply_aad(ClientId(1), route, 0),
        )
        .unwrap();
        assert!(c.handle_reply_on(&wire).is_err());
        assert!(c.is_halted());
    }

    #[test]
    fn moved_read_adopts_table() {
        let mut c2 = LcmClient::new_sharded(ClientId(1), &key(), 2);
        let route = crate::shard::route_for(ClientId(1), Some(b"k"));
        let shard = c2.shard_of_route(route);
        c2.read_routed(b"GET k", Some(b"k"), 0).unwrap();
        let table = moved_table(route, shard);
        let reply = ReadReplyMsg {
            t: SeqNo(0),
            q: SeqNo(0),
            h: ChainValue::GENESIS,
            hc_echo: ChainValue::GENESIS,
            status: ReadStatus::Moved,
            result: table.to_bytes(),
        };
        let wire = gcm::auth_encrypt(
            &GcmKey::from_secret(&key()),
            &reply.to_bytes(),
            &read_reply_aad(ClientId(1), route, 0, 0, 0),
        )
        .unwrap();
        let out = c2.handle_read_reply(&wire).unwrap();
        assert_eq!(out, ReadOutcome::Moved);
        assert!(!c2.is_halted(), "moved is retryable, not a violation");
        assert_eq!(c2.routing_epoch(), 1);
        assert_eq!(c2.shard_of_route(route), 1 - shard);
    }

    #[test]
    fn stale_table_is_not_adopted_backwards() {
        let mut c = LcmClient::new_sharded(ClientId(1), &key(), 2);
        let route = crate::shard::route_for(ClientId(1), Some(b"k"));
        let shard = c.shard_of_route(route);
        c.invoke_routed(b"op", Some(b"k")).unwrap();
        let table = moved_table(route, shard);
        let reply = ReplyMsg {
            t: SeqNo(1),
            q: SeqNo(0),
            h: ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(1)),
            hc_echo: ChainValue::GENESIS,
            redirect: true,
            result: table.to_bytes(),
        };
        let wire = gcm::auth_encrypt(
            &GcmKey::from_secret(&key()),
            &reply.to_bytes(),
            &reply_aad(ClientId(1), route, 0),
        )
        .unwrap();
        c.handle_reply_on(&wire).unwrap();
        assert_eq!(c.routing_epoch(), 1);
        // A second redirect carrying the ORIGINAL epoch-0 table (e.g. a
        // delayed wire) must not roll the client's routing view back.
        // The re-routed op lands on the other shard, whose per-shard
        // context is still at genesis.
        let stale = crate::routing::SliceTable::uniform(2);
        c.invoke_routed(b"op2", Some(b"k")).unwrap();
        let reply2 = ReplyMsg {
            t: SeqNo(1),
            q: SeqNo(0),
            h: ChainValue::GENESIS.extend(b"op2", SeqNo(1), ClientId(1)),
            hc_echo: ChainValue::GENESIS,
            redirect: true,
            result: stale.to_bytes(),
        };
        let wire2 = gcm::auth_encrypt(
            &GcmKey::from_secret(&key()),
            &reply2.to_bytes(),
            &reply_aad(ClientId(1), route, 1),
        )
        .unwrap();
        c.handle_reply_on(&wire2).unwrap();
        assert_eq!(c.routing_epoch(), 1, "stale table must be ignored");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every wire a group of clients seals under the shared `kC`
        /// carries its own nonce: `client id ‖ counter`, the counter
        /// stepping once per sealed wire — first sends, retries, read
        /// legs and re-pinned reads alike — and running on across a key
        /// rotation.
        #[test]
        fn sealed_wires_carry_pairwise_distinct_nonces(
            n_clients in 1usize..6,
            script in proptest::collection::vec((0usize..6, 0u8..6, any::<u8>()), 1..120),
        ) {
            const SHARDS: u32 = 16;
            let mut clients: Vec<LcmClient> = (0..n_clients)
                .map(|i| LcmClient::new_sharded(ClientId(i as u32 + 1), &key(), SHARDS))
                .collect();
            let mut nonces: Vec<Vec<[u8; NONCE_LEN]>> = vec![Vec::new(); n_clients];
            for (who, action, k) in script {
                let who = who % n_clients;
                let c = &mut clients[who];
                let shard_key = [k];
                let shard = c.shard_of_route(route_for(c.id(), Some(&shard_key)));
                // A refused call (operation pending, nothing to retry)
                // seals nothing and must not be counted.
                let (hint_len, wire) = match action {
                    0 => (ROUTE_HINT_LEN, c.invoke_routed(b"put", Some(&shard_key))),
                    1 => (ROUTE_HINT_LEN, c.retry()),
                    2 => (READ_HINT_LEN, c.read_routed(b"get", Some(&shard_key), u32::from(k % 3))),
                    3 => (READ_HINT_LEN, c.retry_read(shard, Some(u32::from(k % 3)))),
                    4 => {
                        c.cancel_read(shard);
                        continue;
                    }
                    _ => {
                        c.rotate_key(&SecretKey::from_bytes([k; 32]));
                        continue;
                    }
                };
                if let Ok(wire) = wire {
                    let nonce = wire[hint_len..hint_len + NONCE_LEN].try_into().unwrap();
                    nonces[who].push(nonce);
                }
            }
            let mut seen = std::collections::HashSet::new();
            for (i, sent) in nonces.iter().enumerate() {
                for (n, nonce) in sent.iter().enumerate() {
                    prop_assert!(seen.insert(*nonce), "nonce repeated: {:?}", nonce);
                    prop_assert_eq!(&nonce[..4], &(i as u32 + 1).to_be_bytes()[..]);
                    let counter = u64::from_be_bytes(nonce[4..].try_into().unwrap());
                    let first = u64::from_be_bytes(sent[0][4..].try_into().unwrap());
                    prop_assert_eq!(counter, first.wrapping_add(n as u64));
                }
            }
        }
    }
}
