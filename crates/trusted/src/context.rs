//! The trusted execution context `T` (paper Alg. 2 + §4.6 extensions).
//!
//! [`TrustedContext`] is the state machine that runs *inside* the
//! enclave. It never touches storage or the network itself: the
//! untrusted host feeds it bytes (loaded blobs, client messages) and
//! carries away bytes (sealed state, encrypted replies). Everything it
//! emits is encrypted and authenticated; everything it receives is
//! verified before use — the host is the adversary.
//!
//! Lifecycle:
//!
//! ```text
//!            init(no blobs)                    provision / import_migration
//! Created ───────────────────► AwaitingProvision ────────────────────► Ready
//!    │         init(blobs: unseal, restore)                              ▲ │
//!    └───────────────────────────────────────────────────────────────────┘ │
//!                                     export_migration ┌───────────────────┤
//!                                                      ▼                   ▼ any failed assert
//!                                                   Migrated             Halted (attack detected)
//! ```
//!
//! Only `Ready` holds keys and the nonce counter they seal under, so
//! only a ready context seals or serves: a halted or migrated one has
//! no key left to seal with, and refuses.
//!
//! # Chain position
//!
//! Everything `T` seals is one of six records — a whole context has
//! one encoding, the state record, a partial one has one, `F`'s delta
//! — and the child module `record` alone holds their formats:
//!
//! | record | plaintext | sealed under |
//! |---|---|---|
//! | key blob | `kP ‖ kA` | the TEE sealing key `kS`, ChaCha20-Poly1305 |
//! | checkpoint | the **state record**: `kC`, admin sequence, stable floor, quorum, identity, slice table, `V`, `F`'s snapshot, chain position | `kP`, AES-128-GCM (older media: ChaCha20-Poly1305, still opened) |
//! | delta | chain position, stable floor, the touched entries of `V`, `F`'s delta | `kP`, AES-128-GCM (older media: ChaCha20-Poly1305, still opened) |
//! | migration ticket | `kP ‖ kA ‖` the state record | the migration channel, ChaCha20-Poly1305 |
//! | slice ticket | slice, bumped table, the slice's records as `F`'s delta | the migration channel, ChaCha20-Poly1305 |
//! | table bulletin | bumped table | the migration channel, ChaCha20-Poly1305 |
//!
//! Every sealed state blob is tied into one hash chain. The context's
//! **chain position** names the state its last sealed (or applied)
//! blob leaves behind, and every delta seals the position it applies
//! to — for recovery from a delta log and for a replica group's
//! followers alike ([`TrustedContext::apply_replica`]). The rule that
//! keeps "position" and "state" one-to-one:
//!
//! * a delta sealed at `prev` moves the position to
//!   `H("lcm.delta-tag-chain" ‖ prev ‖ nonce ‖ tag)` of its sealed
//!   bytes, one 79-byte hash however large the delta — on the member
//!   that sealed it and on every member that applies it, so the
//!   position is a function of the sealed records alone (a delta sealed
//!   under the older label `lcm.delta` moves it to `H("lcm.delta-chain"
//!   ‖ plaintext)`: the label it opens under decides);
//! * a checkpoint sealed right after that (a group member's cadence
//!   checkpoint, a follower's persist after an install) *records* the
//!   position it stands at instead of replacing it;
//! * every other checkpoint — provisioning, admin, migration, slice
//!   moves, a batch persisted without a delta — seals a state no
//!   delta leads to, and takes a fresh root
//!   `H("lcm.ckpt-anchor" ‖ …)` first. A group's members derive the
//!   same genesis root from their provisioning payload; later roots
//!   are random, and the checkpoint that carries one is what the
//!   group ships.
//!
//! Cross-generation replay stays impossible although the chain runs on
//! across checkpoints: every position commits to its predecessor (and
//! ultimately to a root that is random or binds `kP`), so positions
//! never repeat, and a delta applies at exactly the one position —
//! hence the one state — it was sealed against. A tag names one record
//! as the plaintext hash did: [`Nonces`] never repeats a nonce under
//! `kP`, and without `kP` no second record opens under a nonce and tag
//! `T` used (GCM's authenticity, NIST SP 800-38D). Recording a position
//! in a checkpoint whose state moved *without* a delta would break that
//! (one position, two states: a later delta could be spliced onto the
//! older one), which is why only the two cases above record.

use lcm_crypto::aead::{self, AeadKey, AtRestKey};
use lcm_crypto::sha256::Digest;
use lcm_crypto::{gcm, keys::SecretKey};
use lcm_tee::attestation::Report;
use lcm_tee::platform::TeeServices;

use crate::blob::{BLOB_KIND_BUNDLE, BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA, BLOB_KIND_OPAQUE};
use crate::codec::{CodecError, Reader, WireCodec, Writer};
use crate::functionality::Functionality;
use crate::routing::{slice_of, SliceTable};
use crate::stability::{CachedReply, Quorum, Slot, VMap, VState};
use crate::types::{ChainValue, ClientId, SeqNo};
use crate::wire::{open_blob, seal_message, seal_message_into, InvokeView, ReplyView, RouteHint};
use crate::{LcmError, Result, Violation};

mod record;

/// AAD label for the key blob (sealed under the TEE sealing key `kS`).
pub const LABEL_KEY_BLOB: &[u8] = b"lcm.keyblob";
/// AAD label for the state blob (sealed under the protocol key `kP`).
pub const LABEL_STATE_BLOB: &[u8] = b"lcm.state";
/// AAD label for per-batch sealed delta blobs (sealed under `kP`).
pub const LABEL_DELTA_BLOB: &[u8] = b"lcm.delta.2";
/// AAD label of the deltas sealed before [`LABEL_DELTA_BLOB`]: opened,
/// never sealed.
pub const LABEL_DELTA_BLOB_V1: &[u8] = b"lcm.delta";
/// Domain separators of a chain root and of the position a delta
/// leaves behind, by its tag or (older media) its plaintext: the rule
/// is the [module docs](self#chain-position)'.
const ANCHOR_CKPT: &[u8] = b"lcm.ckpt-anchor";
const ANCHOR_DELTA_TAG: &[u8] = b"lcm.delta-tag-chain";
const ANCHOR_DELTA: &[u8] = b"lcm.delta-chain";
/// Emit a checkpoint instead of a delta once the sealed deltas since
/// the last checkpoint exceed `max(this, last checkpoint size)` bytes —
/// bounding both recovery replay work and the delta log's footprint to
/// a constant factor of the state size.
pub const DELTA_CHECKPOINT_MIN: usize = 4096;
/// AAD label for client→T messages. The plaintext routing envelope
/// (see [`crate::wire::RouteHint`]) is appended to this label by
/// [`invoke_aad`], so a host that rewrites the routing metadata breaks
/// authentication inside the enclave.
pub const LABEL_INVOKE: &[u8] = b"lcm.invoke";

/// The associated data under which `client` encrypts an INVOKE carrying
/// route hash `route`, client sequence `seq`, and routing epoch `epoch`
/// in its plaintext envelope. Binding `seq` means the host-visible
/// dedup key of the admission layer (see `lcm_core::admission`) is
/// exactly the authenticated `tc`: a host that rewrites it breaks
/// authentication, and the enclave additionally cross-checks it against
/// the encrypted copy. Binding `epoch` means the host cannot re-stamp
/// an in-flight wire with a different routing epoch to dodge the
/// enclave's slice-table ownership check.
pub fn invoke_aad(
    client: ClientId,
    route: u32,
    seq: u64,
    epoch: u64,
) -> [u8; LABEL_INVOKE.len() + 24] {
    aad(
        LABEL_INVOKE,
        &[
            &client.0.to_be_bytes(),
            &route.to_be_bytes(),
            &seq.to_be_bytes(),
            &epoch.to_be_bytes(),
        ],
    )
}

/// `label ‖ fields` as a stack array: every per-message AAD is a label
/// and a few big-endian integers, built once per operation on both
/// ends of the wire before anything is authenticated.
fn aad<const N: usize>(label: &[u8], fields: &[&[u8]]) -> [u8; N] {
    let mut out = [0u8; N];
    let mut at = 0;
    for part in std::iter::once(&label).chain(fields) {
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    debug_assert_eq!(at, N, "AAD length constant out of step with its fields");
    out
}
/// AAD label for T→client messages. The destination client id is
/// appended to this label (see [`reply_aad`]): the paper's Alg. 1/2
/// match replies to invocations only through the echoed `hc`, which is
/// ambiguous while several clients still share the genesis value `h0`
/// — a malicious server could swap two genesis-time replies without
/// detection. Binding the recipient into the AAD closes that gap.
pub const LABEL_REPLY: &[u8] = b"lcm.reply";

/// The associated data under which a REPLY for `client` is encrypted.
///
/// `route` echoes the invoke envelope's route hash: with several
/// operations of one client in flight on different shards (all still
/// at the genesis chain value), the echoed `hc` alone cannot tell the
/// replies apart — binding the route closes that swap window exactly
/// as binding the client id closes the cross-client one. `epoch`
/// echoes the routing epoch of the *request* envelope (not the
/// enclave's current table): the client can only decrypt under the
/// epoch it stamped, so the echo proves which table version the
/// enclave judged the wire against.
pub fn reply_aad(client: ClientId, route: u32, epoch: u64) -> [u8; LABEL_REPLY.len() + 16] {
    aad(
        LABEL_REPLY,
        &[
            &client.0.to_be_bytes(),
            &route.to_be_bytes(),
            &epoch.to_be_bytes(),
        ],
    )
}
/// AAD label for client→replica verified-read legs. The plaintext
/// routing envelope ([`crate::wire::ReadHint`]) is appended by
/// [`read_aad`], *including the replica slot the client pinned the
/// read to*: the serving enclave computes the AAD with its **own**
/// replica coordinate, so a read leg the host redirects to a
/// different member of the group fails authentication inside the
/// enclave.
pub const LABEL_READ: &[u8] = b"lcm.read";

/// The associated data under which `client` encrypts a verified-read
/// leg pinned to `replica`, carrying route hash `route`, the client's
/// context sequence `seq` (= `tc`), and the routing epoch `epoch` in
/// its plaintext envelope.
pub fn read_aad(
    client: ClientId,
    route: u32,
    seq: u64,
    replica: u32,
    epoch: u64,
) -> [u8; LABEL_READ.len() + 28] {
    aad(
        LABEL_READ,
        &[
            &client.0.to_be_bytes(),
            &route.to_be_bytes(),
            &seq.to_be_bytes(),
            &replica.to_be_bytes(),
            &epoch.to_be_bytes(),
        ],
    )
}

/// AAD label for replica→client verified-read replies.
pub const LABEL_READ_REPLY: &[u8] = b"lcm.readreply";

/// The associated data under which a read reply for `client` is
/// encrypted. Binding `(route, seq, replica, epoch)` ties the reply to
/// the exact read leg it answers: a reply produced for an older read
/// of the same client (different `seq`), by a different group member
/// (different `replica`), or under a different routing epoch cannot be
/// substituted.
pub fn read_reply_aad(
    client: ClientId,
    route: u32,
    seq: u64,
    replica: u32,
    epoch: u64,
) -> [u8; LABEL_READ_REPLY.len() + 28] {
    aad(
        LABEL_READ_REPLY,
        &[
            &client.0.to_be_bytes(),
            &route.to_be_bytes(),
            &seq.to_be_bytes(),
            &replica.to_be_bytes(),
            &epoch.to_be_bytes(),
        ],
    )
}

/// AAD label for admin⇄T messages.
pub const LABEL_ADMIN: &[u8] = b"lcm.admin";
/// AAD label for the provisioning payload (admin's attested channel).
pub const LABEL_PROVISION: &[u8] = b"lcm.provision";
/// AAD label for migration tickets (enclave-to-enclave channel).
pub const LABEL_MIGRATION: &[u8] = b"lcm.migration";
/// AAD label for slice-migration tickets: the sealed package an
/// exporting enclave hands the adopting enclave when one routing slice
/// moves between two *running* shards (enclave-to-enclave channel).
pub const LABEL_SLICE_TICKET: &[u8] = b"lcm.slice-ticket";
/// AAD label for slice-table bulletins: the sealed announcement of a
/// bumped slice table that every bystander shard adopts so the whole
/// deployment judges wires against the same routing epoch.
pub const LABEL_SLICE_BULLETIN: &[u8] = b"lcm.slice-bulletin";

/// The keys held by a ready context (paper §4.1).
struct Keys {
    /// Protocol-state encryption key `kP` (raw form kept for migration).
    k_p: SecretKey,
    /// Communication key `kC` (raw form kept because it is part of the
    /// sealed state and rotates on membership changes).
    k_c: SecretKey,
    /// Admin authentication key (an addition over the paper, which
    /// leaves admin-message security implicit).
    k_a: SecretKey,
    aead_p: AtRestKey,
    aead_c: gcm::GcmKey,
    aead_a: AeadKey,
}

impl Keys {
    fn rotate_kc(&mut self, new_kc: SecretKey) {
        self.aead_c = gcm::GcmKey::from_secret(&new_kc);
        self.k_c = new_kc;
    }
}

/// Lifecycle phase of the context ([module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Booted, `init` not yet called.
    Created,
    /// No persisted keys exist; awaiting admin bootstrap (§4.3) or a
    /// migration import (§4.6.2).
    AwaitingProvision,
    /// Holds the keys: the one phase that seals or serves.
    Ready,
    /// Migrated away: state exported, keys dropped, refusing everything.
    Migrated,
    /// A violation was detected: keys dropped, refusing service for good.
    Halted,
}

/// Outcome of [`TrustedContext::init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitOutcome {
    /// No previous state; the admin must provision keys.
    NeedProvision,
    /// State recovered from sealed blobs; ready for requests.
    Resumed,
}

/// Administrative operations (§4.6.3), authenticated under the admin
/// key with a strictly-increasing admin sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminOp {
    /// Adds a new client to the group.
    AddClient(ClientId),
    /// Removes a client and rotates the communication key so the
    /// removed client is locked out.
    RemoveClient(ClientId, SecretKey),
    /// Rotates the communication key without membership change.
    RotateKey(SecretKey),
    /// Queries `(t, q, n)` without modifying state.
    Status,
}

const ADMIN_ADD: u8 = 1;
const ADMIN_REMOVE: u8 = 2;
const ADMIN_ROTATE: u8 = 3;
const ADMIN_STATUS: u8 = 4;

impl AdminOp {
    /// Appends the operation's encoding (the admin's side of the
    /// channel builds it).
    pub fn encode(&self, w: &mut Writer) {
        match self {
            AdminOp::AddClient(id) => {
                w.put_u8(ADMIN_ADD);
                id.encode(w);
            }
            AdminOp::RemoveClient(id, key) => {
                w.put_u8(ADMIN_REMOVE);
                id.encode(w);
                w.put_raw(key.as_bytes());
            }
            AdminOp::RotateKey(key) => {
                w.put_u8(ADMIN_ROTATE);
                w.put_raw(key.as_bytes());
            }
            AdminOp::Status => w.put_u8(ADMIN_STATUS),
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        match r.get_u8()? {
            ADMIN_ADD => Ok(AdminOp::AddClient(ClientId::decode(r)?)),
            ADMIN_REMOVE => {
                let id = ClientId::decode(r)?;
                Ok(AdminOp::RemoveClient(id, read_key(r)?))
            }
            ADMIN_ROTATE => Ok(AdminOp::RotateKey(read_key(r)?)),
            ADMIN_STATUS => Ok(AdminOp::Status),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

/// Reply to an [`AdminOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminReply {
    /// The operation was applied.
    Ok,
    /// Status response: last sequence number, stable watermark, group
    /// size.
    Status {
        /// Last executed operation.
        t: SeqNo,
        /// Majority-stable watermark.
        q: SeqNo,
        /// Current group size.
        n: u32,
    },
    /// The operation was rejected (e.g. adding an existing client).
    Rejected(String),
}

impl AdminReply {
    pub(crate) fn encode(&self, w: &mut Writer) {
        match self {
            AdminReply::Ok => w.put_u8(1),
            AdminReply::Status { t, q, n } => {
                w.put_u8(2);
                t.encode(w);
                q.encode(w);
                w.put_u32(*n);
            }
            AdminReply::Rejected(msg) => {
                w.put_u8(3);
                w.put_str(msg);
            }
        }
    }

    /// Reads a reply back (the admin's side of the channel).
    pub fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        match r.get_u8()? {
            1 => Ok(AdminReply::Ok),
            2 => Ok(AdminReply::Status {
                t: SeqNo::decode(r)?,
                q: SeqNo::decode(r)?,
                n: r.get_u32()?,
            }),
            3 => Ok(AdminReply::Rejected(r.get_str()?.to_owned())),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

fn read_key(r: &mut Reader<'_>) -> std::result::Result<SecretKey, CodecError> {
    let d = r.get_digest()?; // 32 raw bytes
    Ok(SecretKey::from_bytes(d.0))
}

/// The attested identity of one enclave within a deployment:
/// *"I am replica `replica` of shard `index`'s group of `replicas`,
/// in a deployment of `count` shards"*.
///
/// Delivered to each enclave inside its (per-member) provisioning
/// payload, persisted with the sealed protocol state, carried by
/// migration tickets, and folded into every attestation quote's user
/// data (see [`attest_user_data`]). Holding its identity lets the
/// enclave reject an *intact* INVOKE wire delivered to the wrong
/// shard — closing the misdelivery window that client-context checks
/// alone leave open for a client's very first operation on a shard —
/// and lets a read leg pinned to one replica fail authentication on
/// every other member of the group.
///
/// An unreplicated deployment has `replicas == 1` everywhere; the
/// replica coordinates then carry no information and the identity
/// degenerates to the `(index, count)` pair of protocol version 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIdentity {
    /// This enclave's shard index, `< count`.
    pub index: u32,
    /// Total number of shards in the deployment.
    pub count: u32,
    /// This enclave's replica slot within its shard's group,
    /// `< replicas`.
    pub replica: u32,
    /// Size of the shard's replica group (2f+1; 1 = unreplicated).
    pub replicas: u32,
}

impl ShardIdentity {
    /// The identity of the only enclave of an unsharded deployment.
    pub const SOLO: ShardIdentity = ShardIdentity {
        index: 0,
        count: 1,
        replica: 0,
        replicas: 1,
    };

    /// Builds the identity of shard `index` in a deployment of `count`
    /// (unreplicated: replica 0 of a group of 1).
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero or `index` is out of range — a
    /// deployment-assembly bug, not an attack surface (identities are
    /// only ever minted by the trusted admin).
    pub fn new(index: u32, count: u32) -> Self {
        assert!(count >= 1, "a deployment has at least one shard");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardIdentity {
            index,
            count,
            replica: 0,
            replicas: 1,
        }
    }

    /// Refines this identity with replica coordinates: the same shard
    /// slot, occupied by member `replica` of a group of `replicas`.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is zero or `replica` is out of range.
    #[must_use]
    pub fn with_replica(self, replica: u32, replicas: u32) -> Self {
        assert!(replicas >= 1, "a group has at least one replica");
        assert!(
            replica < replicas,
            "replica {replica} out of range 0..{replicas}"
        );
        ShardIdentity {
            replica,
            replicas,
            ..self
        }
    }

    /// Whether `other` names a member of the same replica group: same
    /// shard slot and the same group size, any replica.
    pub fn same_group(&self, other: &ShardIdentity) -> bool {
        self.index == other.index && self.count == other.count && self.replicas == other.replicas
    }

    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u32(self.index);
        w.put_u32(self.count);
        w.put_u32(self.replica);
        w.put_u32(self.replicas);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let index = r.get_u32()?;
        let count = r.get_u32()?;
        let replica = r.get_u32()?;
        let replicas = r.get_u32()?;
        if count == 0 || index >= count || replicas == 0 || replica >= replicas {
            return Err(CodecError::InvalidTag(0));
        }
        Ok(ShardIdentity {
            index,
            count,
            replica,
            replicas,
        })
    }
}

impl std::fmt::Display for ShardIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)?;
        if self.replicas > 1 {
            write!(f, ":r{}/{}", self.replica, self.replicas)?;
        }
        Ok(())
    }
}

/// The report user data an enclave actually attests for a verifier
/// challenge: a domain-separated digest binding the challenge to the
/// enclave's shard identity (or to its *absence* before provisioning).
///
/// The verifier recomputes this with the identity it expects, so a
/// quote produced by an enclave holding a different identity — or by
/// an unprovisioned one — fails verification. This is what makes a
/// deployment manifest of N×(2f+1) quotes mean *"the member claiming
/// (shard i, replica r) holds exactly those coordinates"* rather than
/// *"enough genuine enclaves exist"*.
pub fn attest_user_data(challenge: &Digest, identity: Option<ShardIdentity>) -> Digest {
    let mut w = Writer::with_capacity(16 + 32 + 17);
    w.put_raw(b"lcm.attest-id");
    w.put_raw(challenge.as_bytes());
    w.put_bool(identity.is_some());
    if let Some(id) = identity {
        id.encode(&mut w);
    }
    lcm_crypto::sha256::digest(w.as_slice())
}

/// The provisioning payload the admin sends over its attested channel
/// (paper §4.3: *"the admin generates two secret keys, kC ... and kP
/// ..., and injects them into T through a secure channel provided by
/// the TEE"*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvisionPayload {
    /// Protocol-state key `kP`.
    pub k_p: SecretKey,
    /// Communication key `kC`.
    pub k_c: SecretKey,
    /// Admin authentication key.
    pub k_a: SecretKey,
    /// The initial client group.
    pub clients: Vec<ClientId>,
    /// Stability quorum policy.
    pub quorum: Quorum,
    /// The shard identity this enclave is provisioned as. Every shard
    /// of a deployment receives its *own* payload differing exactly
    /// here; an unsharded deployment provisions
    /// [`ShardIdentity::SOLO`].
    pub identity: ShardIdentity,
}

impl WireCodec for ProvisionPayload {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self.k_p.as_bytes());
        w.put_raw(self.k_c.as_bytes());
        w.put_raw(self.k_a.as_bytes());
        self.quorum.encode(w);
        self.identity.encode(w);
        w.put_u32(self.clients.len() as u32);
        for c in &self.clients {
            c.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let k_p = read_key(r)?;
        let k_c = read_key(r)?;
        let k_a = read_key(r)?;
        let quorum = Quorum::decode(r)?;
        let identity = ShardIdentity::decode(r)?;
        let n = r.get_u32()? as usize;
        let mut clients = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            clients.push(ClientId::decode(r)?);
        }
        Ok(ProvisionPayload {
            k_p,
            k_c,
            k_a,
            clients,
            quorum,
            identity,
        })
    }
}

/// Blobs the host must persist after provisioning or a state change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistBlobs {
    /// Sealed `(kP, kA)` under the TEE sealing key — slot `lcm.keyblob`.
    pub key_blob: Vec<u8>,
    /// Sealed protocol + service state under `kP` — slot `lcm.state`.
    pub state_blob: Vec<u8>,
    /// The batch's **replication record**, for the host to hand to the
    /// group's followers ([`TrustedContext::apply_replica`]): the
    /// sealed, position-chained delta of exactly what the batch
    /// changed, whatever shape `state_blob` takes for this member's
    /// own storage. `Some` only on the batch path of a group member
    /// (`ShardIdentity::replicas > 1`) whose functionality tracks
    /// changes; everywhere else the sealed state itself is what a
    /// follower installs.
    pub record: Option<Vec<u8>>,
}

impl PersistBlobs {
    /// A persist off the control plane — a batch, a replication record
    /// applied: keys cannot have changed, so no key blob is re-sealed
    /// and the host skips that store.
    pub fn state_only(state_blob: Vec<u8>, record: Option<Vec<u8>>) -> Self {
        PersistBlobs {
            key_blob: Vec::new(),
            state_blob,
            record,
        }
    }
}

/// The sealed artifacts of [`TrustedContext::export_slice`]: one live
/// slice migration produces a ticket for the adopting shard, a
/// bulletin for every bystander shard, and the exporter's own blobs to
/// persist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceExport {
    /// Sealed slice-migration ticket; only the destination shard's
    /// [`TrustedContext::import_slice`] accepts it.
    pub ticket: Vec<u8>,
    /// Sealed table bulletin for [`TrustedContext::adopt_table`] on
    /// the shards not party to the move.
    pub bulletin: Vec<u8>,
    /// The exporting shard's re-sealed state (always a full
    /// checkpoint).
    pub blobs: PersistBlobs,
}

/// The AEAD nonces of one enclave lifetime: the lifetime's TEE RNG
/// draw XOR a counter, unique per key because every lifetime derives a
/// distinct RNG stream and the counter never repeats within one.
#[derive(Debug, Default)]
pub struct Nonces {
    counter: u64,
}

impl Nonces {
    /// The next nonce of `services`' RNG stream.
    pub fn next(&mut self, services: &TeeServices) -> [u8; 12] {
        self.counter += 1;
        let mut nonce = [0u8; 12];
        services.fill_random(&mut nonce);
        for (b, c) in nonce[4..].iter_mut().zip(self.counter.to_be_bytes()) {
            *b ^= c;
        }
        nonce
    }
}

/// When a per-batch persist may be a sealed delta: while the host's
/// storage takes them and the deltas since the last checkpoint stay
/// within `max(4 KiB, its size)` bytes. A checkpoint comes first.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    deltas: bool,
    /// Saturated until the first checkpoint.
    since_checkpoint: usize,
    checkpoint_len: usize,
}

impl Cadence {
    /// The cadence for a host whose storage does or does not take
    /// sealed deltas.
    pub fn new(deltas: bool) -> Self {
        Cadence {
            deltas,
            since_checkpoint: usize::MAX,
            checkpoint_len: 0,
        }
    }

    /// Whether the next per-batch persist may be a delta.
    pub fn allows_delta(&self) -> bool {
        self.deltas && self.since_checkpoint <= self.checkpoint_len.max(DELTA_CHECKPOINT_MIN)
    }

    /// Counts a sealed delta of `len` bytes, emitted or replayed from a
    /// log that still holds it.
    pub fn delta(&mut self, len: usize) {
        self.since_checkpoint = self.since_checkpoint.saturating_add(len);
    }

    /// Counts a checkpoint, sealed or restored, of `len` plaintext bytes.
    pub fn checkpoint(&mut self, len: usize) {
        self.since_checkpoint = 0;
        self.checkpoint_len = len;
    }

    /// Plaintext size of the last checkpoint.
    pub fn checkpoint_len(&self) -> usize {
        self.checkpoint_len
    }
}

/// The trusted execution context `T`.
///
/// Generic over the application [`Functionality`] `F`. See the module
/// docs for the lifecycle; the host-facing byte ABI lives in
/// [`crate::program`].
pub struct TrustedContext<F: Functionality> {
    life: Lifecycle,
    state: State<F>,
}

/// Where a context stands ([module docs](self)): only `Ready` holds keys
/// and a nonce counter.
enum Lifecycle {
    Created,
    AwaitingProvision,
    Ready(Ready),
    /// The identity exported, which [`TrustedContext::attest`] still binds.
    Migrated(ShardIdentity),
    /// The identity held, if any, which `attest` still binds; not the
    /// violation, which went to the caller.
    Halted(Option<ShardIdentity>),
}

impl Lifecycle {
    /// A ready context, from complete keys: entered once per enclave
    /// lifetime, so its nonce counter starts once per lifetime too.
    fn ready(identity: ShardIdentity, k_p: SecretKey, k_c: SecretKey, k_a: SecretKey) -> Self {
        let keys = Keys {
            aead_p: AtRestKey::from_secret(&k_p),
            aead_c: gcm::GcmKey::from_secret(&k_c),
            aead_a: AeadKey::from_secret(&k_a),
            k_p,
            k_c,
            k_a,
        };
        let nonces = Nonces::default();
        Lifecycle::Ready(Ready {
            identity,
            keys,
            nonces,
        })
    }
}

/// What only a ready context holds.
struct Ready {
    /// The attested identity: provisioned, sealed or migrated in.
    identity: ShardIdentity,
    keys: Keys,
    nonces: Nonces,
}

/// What a context holds in every state: the protocol and service state
/// a checkpoint seals, and the buffers that seal it.
struct State<F: Functionality> {
    services: TeeServices,
    f: F,
    /// The protocol state map `V` with its stability index and quorum
    /// policy; mutated only through [`VState`]'s methods.
    v: VState,
    t: SeqNo,
    h: ChainValue,
    /// Monotone floor on the reported stable watermark. The raw
    /// `majority-stable(V)` formula is *not* monotone: when a client
    /// acknowledges a newer operation its previous `ta` leaves the
    /// candidate set, and removing a group member can drop executed
    /// sequence numbers from `V` — in both cases the computed `q` can
    /// decrease even though stability, being a statement about past
    /// observation events, cannot be undone. The paper asserts "the
    /// stable sequence numbers never decrease" (§3.2.2), so `T`
    /// enforces it by reporting `max(computed, floor)` and persisting
    /// the floor with the rest of the protocol state.
    stable_floor: SeqNo,
    admin_seq: u64,
    /// The epoch-versioned routing slice table this enclave judges
    /// wire ownership against. Installed as the genesis uniform table
    /// at provisioning, advanced by slice migrations
    /// ([`TrustedContext::export_slice`] / `import_slice` /
    /// `adopt_table`), and sealed with the rest of the protocol state —
    /// so a rolled-back enclave also rolls back its table, and wires
    /// stamped with a newer epoch expose it.
    table: SliceTable,
    /// The chain position ([module docs](self#chain-position)): the
    /// one a delta sealed now applies at.
    persist_anchor: Digest,
    /// Clients whose `V` entry changed since the last persisted blob —
    /// exactly the entries the next delta must carry — sorted and
    /// without repeats. Emptied by every persist; the buffer keeps its
    /// allocation.
    touched: Vec<ClientId>,
    /// Whether a batch persists a delta (see [`TrustedContext::init`]).
    cadence: Cadence,
    /// The buffer a borrowed wire ([`TrustedContext::handle_invoke`],
    /// [`TrustedContext::serve_read`]) or delta is copied into to open
    /// it in place; keeps its allocation (and the last plaintext)
    /// between calls. Everything this context *seals* is encoded
    /// straight into the buffer it is returned in.
    scratch: Vec<u8>,
}

impl<F: Functionality> std::fmt::Debug for TrustedContext<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedContext")
            .field("phase", &self.phase())
            .field("t", &self.state.t)
            .field("clients", &self.state.v.entries().len())
            .finish()
    }
}

impl<F: Functionality> TrustedContext<F> {
    /// Creates the context in the `Created` phase (enclave just booted).
    pub fn new(services: TeeServices) -> Self {
        let state = State {
            services,
            f: F::default(),
            v: VState::new(Quorum::Majority),
            t: SeqNo::ZERO,
            h: ChainValue::GENESIS,
            stable_floor: SeqNo::ZERO,
            admin_seq: 0,
            table: SliceTable::uniform(1),
            persist_anchor: Digest::ZERO,
            touched: Vec::new(),
            cadence: Cadence::new(false),
            scratch: Vec::new(),
        };
        let life = Lifecycle::Created;
        TrustedContext { life, state }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        match self.life {
            Lifecycle::Created => Phase::Created,
            Lifecycle::AwaitingProvision => Phase::AwaitingProvision,
            Lifecycle::Ready(_) => Phase::Ready,
            Lifecycle::Migrated(_) => Phase::Migrated,
            Lifecycle::Halted(_) => Phase::Halted,
        }
    }

    /// The shard identity this enclave was provisioned as (`None`
    /// while unprovisioned).
    pub fn identity(&self) -> Option<ShardIdentity> {
        match &self.life {
            Lifecycle::Ready(ready) => Some(ready.identity),
            Lifecycle::Migrated(identity) => Some(*identity),
            Lifecycle::Halted(identity) => *identity,
            Lifecycle::Created | Lifecycle::AwaitingProvision => None,
        }
    }

    /// Read access to the functionality (for in-enclave introspection
    /// such as heap accounting; the host has no such access).
    pub fn functionality(&self) -> &F {
        &self.state.f
    }

    /// The routing slice table this enclave currently judges wire
    /// ownership against (genesis uniform table until a slice
    /// migration advances it).
    pub fn slice_table(&self) -> &SliceTable {
        &self.state.table
    }

    /// The `init` function of Alg. 2: attempt recovery from the blobs
    /// the host loaded from stable storage.
    ///
    /// `want_deltas` is the host's announcement that its storage
    /// takes sealed delta blobs — when set, per-batch persists emit
    /// chained deltas instead of whole-state checkpoints. An
    /// `lcm_core::server::LcmServer` always sets it: its storage is a
    /// `lcm_storage::DeltaLogStorage`, a deployment's or its own.
    /// Unset, every batch seals the whole state — the paper's basic
    /// protocol (§4.2), still what a bare context driven without an
    /// engine does. The flag is untrusted and
    /// affects only performance: every emitted blob is sealed and
    /// chained either way, and a lying host merely gets blobs its
    /// storage handles suboptimally.
    ///
    /// The state blob may be a single sealed checkpoint or a
    /// delta-log recovery *bundle* (`checkpoint ‖ deltas`); a bundle is
    /// re-verified delta by delta against the anchor chain sealed into
    /// the blobs, so a spliced, reordered, or cross-generation replay
    /// halts exactly like any other tampering.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — a blob failed to unseal, the state
    ///   blob is missing while the key blob exists, or a bundle's
    ///   anchor chain is broken. All mean the host tampered with
    ///   storage; the context halts.
    pub fn init(
        &mut self,
        key_blob: Option<&[u8]>,
        state_blob: Option<&[u8]>,
        want_deltas: bool,
    ) -> Result<InitOutcome> {
        if !matches!(self.life, Lifecycle::Created) {
            return Err(LcmError::AlreadyProvisioned);
        }
        self.state.cadence = Cadence::new(want_deltas);
        let Some(key_blob) = key_blob else {
            self.life = Lifecycle::AwaitingProvision;
            return Ok(InitOutcome::NeedProvision);
        };
        // Strip the storage-facing kind byte; key blobs are opaque to
        // the delta-log engine.
        let seal_key = AeadKey::from_secret(&self.state.services.sealing_key());
        let key_plain = open_blob(&seal_key, key_blob, BLOB_KIND_OPAQUE, LABEL_KEY_BLOB);
        let key_plain = self.halting(key_plain.ok_or(Violation::BadAuthentication.into()))?;
        let mut r = Reader::new(&key_plain);
        let (k_p, k_a) = (read_key(&mut r)?, read_key(&mut r)?);
        r.finish()?;
        // Keys persisted but state withheld: storage tampering.
        let state_blob = self.halting(state_blob.ok_or(Violation::BadAuthentication.into()))?;
        let restored = self
            .state
            .restore_sealed_state(&AtRestKey::from_secret(&k_p), state_blob);
        let (k_c, identity, deltas) = self.halting(restored)?;
        // The journal replays on the ready state: a delta it refuses halts
        // it, keys and all; one that opens but does not decode unboots it.
        self.life = Lifecycle::ready(identity, k_p, k_c, k_a);
        let replayed = self.serving(|ready, state| state.replay(&ready.keys.aead_p, &deltas));
        if replayed.is_err() && matches!(self.life, Lifecycle::Ready(_)) {
            self.life = Lifecycle::Created;
        }
        replayed.map(|()| InitOutcome::Resumed)
    }

    /// Installs keys and the initial group from the admin's attested
    /// provisioning channel (§4.3 bootstrapping, phase 3).
    ///
    /// Returns the blobs the host must persist.
    ///
    /// # Errors
    ///
    /// * [`LcmError::AlreadyProvisioned`] — called twice or after
    ///   recovery.
    /// * [`LcmError::Violation`] — the payload failed authentication.
    /// * [`LcmError::Tee`] — the platform provides no provisioning
    ///   channel (not manufactured by a [`lcm_tee::world::TeeWorld`]).
    pub fn provision(&mut self, sealed_payload: &[u8]) -> Result<PersistBlobs> {
        if !matches!(self.life, Lifecycle::AwaitingProvision) {
            return Err(LcmError::AlreadyProvisioned);
        }
        let channel_key = (self.state.services)
            .provision_key()
            .ok_or_else(|| LcmError::Tee("platform has no provisioning channel".into()))?;
        let channel = AeadKey::from_secret(&channel_key);
        let opened = aead::auth_decrypt(&channel, sealed_payload, LABEL_PROVISION);
        let plain = self.halting(opened.map_err(|_| Violation::BadAuthentication.into()))?;
        self.life = self.state.install(ProvisionPayload::from_bytes(&plain)?);
        self.serving(|ready, state| state.seal_blobs(ready, false))
    }

    /// Produces an attestation report over the verifier's challenge
    /// (the host forwards it to the quoting enclave).
    ///
    /// The report's user data is not the raw challenge but
    /// [`attest_user_data`]`(challenge, identity)`: the quote proves
    /// not only *"a genuine LCM enclave answered this challenge"* but
    /// *which shard identity* that enclave holds (or that it holds
    /// none yet). The verifier recomputes the binding with the
    /// identity it expects.
    pub fn attest(&self, challenge: Digest) -> Report {
        let user_data = attest_user_data(&challenge, self.identity());
        self.state.services.report(user_data)
    }

    /// Handles one encrypted INVOKE message: the body of Alg. 2.
    ///
    /// Returns the invoking client (so the host can route the reply —
    /// the host learns only the routing, never the content) and the
    /// encrypted REPLY.
    ///
    /// The caller is responsible for persisting
    /// [`TrustedContext::persist_blobs`] afterwards; batching several
    /// invokes before one persist is the paper's §5.2 optimization.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — authentication failure, context
    ///   mismatch (rollback/fork/replay evidence), or unknown client.
    ///   The context halts permanently.
    /// * [`LcmError::NotProvisioned`] / [`LcmError::Halted`] — not ready.
    pub fn handle_invoke(&mut self, wire: &[u8]) -> Result<(ClientId, Vec<u8>)> {
        let mut reply = Writer::new();
        let client = self.handle_invoke_into(wire, &mut reply)?;
        Ok((client, reply.into_bytes()))
    }

    /// [`TrustedContext::handle_invoke`] with the encrypted REPLY
    /// appended to `out` instead of returned in a buffer of its own:
    /// the ecall boundary seals a batch's replies straight into its
    /// output. The wire is copied once, into the context's scratch
    /// buffer, verified, and decrypted and executed where it lies
    /// there; nothing of it is allocated per operation. On an error
    /// `out` may hold a partial reply the caller must discard.
    pub(crate) fn handle_invoke_into(&mut self, wire: &[u8], out: &mut Writer) -> Result<ClientId> {
        self.serving(|ready, state| {
            let mut scratch = std::mem::take(&mut state.scratch);
            scratch.clear();
            scratch.extend_from_slice(wire);
            let outcome = state.invoke_in_place(ready, &mut scratch, out);
            state.scratch = scratch;
            outcome
        })
    }

    /// Serves one verified read leg on this group member (leader or
    /// follower) — the scale-out half of the replicated-shard design.
    ///
    /// The leg's AAD is recomputed with **this** enclave's replica
    /// slot, so a read the client pinned to a sibling fails
    /// authentication here (the host cannot silently re-balance pinned
    /// reads). The read verifies against the same per-shard history
    /// context as writes: it executes only when `V[i]` matches the
    /// client's `(tc, hc)` exactly — i.e. this member's installed
    /// state already contains every write the client has completed —
    /// and the reply echoes that context for the client to re-verify.
    /// Reads never advance `t`/`h`/`V`; nothing is persisted.
    ///
    /// A member whose installed state lags the client's context
    /// (`V[i].t < tc`) answers with the `behind` flag instead: honest
    /// replication lag is retryable and never a violation, while a
    /// context *conflict* (same `t`, different `h` — a fork — or
    /// `V[i].t > tc` — a replayed leg) halts exactly like the write
    /// path.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — authentication failure, wrong-shard
    ///   delivery, a non-read-only operation on the read path
    ///   ([`Violation::MutationOnReadPath`]), or context conflict. The
    ///   context halts permanently.
    /// * [`LcmError::NotProvisioned`] / [`LcmError::Halted`] — not ready.
    pub fn serve_read(&mut self, wire: &[u8]) -> Result<Vec<u8>> {
        let mut reply = Writer::new();
        self.serve_read_into(wire, &mut reply)?;
        Ok(reply.into_bytes())
    }

    /// [`TrustedContext::serve_read`] with the encrypted read reply
    /// appended to `out`, as the ecall boundary answers a read leg. On
    /// an error `out` may hold a partial reply the caller must discard.
    pub(crate) fn serve_read_into(&mut self, wire: &[u8], out: &mut Writer) -> Result<()> {
        self.serving(|ready, state| state.serve_read(ready, wire, out))
    }

    /// Handles an authenticated admin operation (§4.6.3).
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — bad authentication or admin-sequence
    ///   replay; the context halts.
    pub fn handle_admin(&mut self, wire: &[u8]) -> Result<(Vec<u8>, PersistBlobs)> {
        self.serving(|ready, state| state.admin(ready, wire))
    }

    /// Runs `op` on the ready state; any other state refuses it, and a
    /// violation it reports halts the context.
    fn serving<T>(&mut self, op: impl FnOnce(&mut Ready, &mut State<F>) -> Result<T>) -> Result<T> {
        let outcome = match &mut self.life {
            Lifecycle::Ready(ready) => op(ready, &mut self.state),
            Lifecycle::Halted(_) => Err(LcmError::Halted),
            _ => Err(LcmError::NotProvisioned),
        };
        self.halting(outcome)
    }

    /// The one halt transition: a violation, or a client outside the
    /// group, halts the context for good, and its keys go with its
    /// ready state.
    fn halting<T>(&mut self, outcome: Result<T>) -> Result<T> {
        if let Err(LcmError::Violation(_) | LcmError::UnknownClient(_)) = outcome {
            self.life = Lifecycle::Halted(self.identity());
        }
        outcome
    }
}

impl<F: Functionality> State<F> {
    fn install(&mut self, payload: ProvisionPayload) -> Lifecycle {
        // The genesis chain root commits to everything a group's
        // members are provisioned with alike — keys, clients, quorum,
        // shard slot, group size — and to nothing else, so all of them
        // start at one position and the leader's first record applies
        // on every follower.
        let mut shared = payload.clone();
        shared.identity.replica = 0;
        self.persist_anchor = lcm_crypto::sha256::digest_parts(&[ANCHOR_CKPT, &shared.to_bytes()]);
        // Genesis routing table: epoch 0, slices spread uniformly
        // across the deployment's shards. Every shard derives the same
        // table from its attested `count`, so no extra provisioning
        // field is needed and a lying host cannot influence it.
        self.table = SliceTable::uniform(payload.identity.count);
        let genesis = payload.clients.iter().map(|&c| (c, Default::default()));
        self.v.replace(genesis.collect(), payload.quorum);
        self.t = SeqNo::ZERO;
        self.h = ChainValue::GENESIS;
        self.admin_seq = 0;
        Lifecycle::ready(payload.identity, payload.k_p, payload.k_c, payload.k_a)
    }

    /// The body of [`TrustedContext::handle_invoke_into`] on the
    /// scratch copy of the wire.
    fn invoke_in_place(
        &mut self,
        ready: &mut Ready,
        wire: &mut [u8],
        out: &mut Writer,
    ) -> Result<ClientId> {
        // Peel the plaintext routing envelope; its fields are bound
        // into the AAD, so any tampering (or a truncated wire) fails
        // authentication below.
        let (hint, _) = RouteHint::peel(wire).ok_or(Violation::BadAuthentication)?;
        let aad = invoke_aad(hint.client, hint.route, hint.seq, hint.epoch);
        let sealed = wire
            .get_mut(crate::wire::ROUTE_HINT_LEN..)
            .unwrap_or_default();
        let opened = gcm::open_in_place(&ready.keys.aead_c, &aad, sealed);
        let msg = match opened.map(|plain| InvokeView::from_bytes(plain)) {
            Ok(Ok(m)) => m,
            _ => return Err(Violation::BadAuthentication.into()),
        };
        // The envelope's client id is authenticated (it is in the AAD),
        // so a mismatch with the encrypted copy means the *sender*
        // lied — halt rather than mis-route the reply.
        if msg.client != hint.client {
            return Err(Violation::BadAuthentication.into());
        }
        // Likewise the envelope's sequence number: the host's admission
        // layer dedups retries on it, so a sender whose plaintext `seq`
        // disagrees with the encrypted `tc` is lying to the host about
        // which operation this is — halt rather than let the dedup key
        // diverge from the authenticated protocol state.
        if msg.tc.0 != hint.seq {
            return Err(Violation::BadAuthentication.into());
        }

        // Attested shard identity: this enclave executes an operation
        // only if it *owns* it under its slice table. Two routes are
        // judged — the authenticated envelope route the host delivered
        // by, and the route recomputed from the decrypted operation's
        // own partition key (a mismatch between them means the sender's
        // envelope lies about its operation; both are epoch-independent,
        // so an honest sender always has them equal). The envelope's
        // routing epoch disambiguates the not-owned cases:
        //
        // * `hint.epoch > table.epoch` — the client proves knowledge
        //   of a routing epoch this enclave has never reached. Since
        //   epochs only advance through sealed slice migrations, this
        //   is the signature of an enclave rolled back past a
        //   migration (or a table the host withheld): halt. This is
        //   the rollback-detection hook of the versioned router.
        // * owned under the current table — execute normally. A stale
        //   `hint.epoch` is harmless here: the slice never moved away,
        //   so the old and new tables agree about this wire.
        // * not owned, `hint.epoch < table.epoch` — an in-flight wire
        //   routed under an older table whose slice has since migrated
        //   away. Honest and inevitable during rebalancing: answer
        //   with a context-stamped *redirect* carrying the current
        //   table instead of executing (see `execute_fresh`).
        // * not owned, same epoch — the host redirected an intact wire
        //   to the wrong shard, or the sender's envelope lies: halt.
        let here = ready.identity.index;
        let recomputed = crate::routing::route_for(msg.client, F::shard_key(msg.op));
        if hint.epoch > self.table.epoch() {
            let owner = self.table.shard_of(hint.route);
            return Err(self.wrong_shard(here, msg.client, owner, hint.epoch));
        }
        let routes = [hint.route, recomputed];
        let redirect = !self.owns_wire(here, msg.client, routes, hint.epoch)?;

        let found = self.v.find(msg.client);
        let (slot, entry) = found.ok_or(LcmError::UnknownClient(msg.client))?;

        // Alg. 2: assert V[i] = (∗, tc, hc).
        if entry.t == msg.tc && entry.h == msg.hc {
            return self.execute_fresh(ready, msg, slot, hint, redirect, out);
        }
        // §4.6.1 second case: T crashed after storing but before the
        // client got the reply — a *retry* of the acknowledged
        // operation is answered with the cached result. The cached
        // reply replays verbatim, including its redirect flag: whether
        // the original attempt executed or redirected is part of the
        // acknowledged history.
        let resend = (entry.cached.as_ref())
            .filter(|c| msg.retry && entry.ta == msg.tc && c.hc_echo == msg.hc);
        let Some(cached) = resend else {
            return Err(Violation::ContextMismatch {
                client: msg.client,
                claimed: msg.tc,
                recorded: entry.t,
            }
            .into());
        };
        let reply = ReplyView {
            t: cached.t,
            q: cached.q,
            h: cached.h,
            hc_echo: cached.hc_echo,
            redirect: cached.redirect,
            result: &cached.result,
        };
        self.seal_reply(ready, out, hint, reply)?;
        Ok(msg.client)
    }

    /// Executes one context-fresh operation — or, when `redirect` is
    /// set, stamps a *redirect* instead: the context advances exactly
    /// as for an executed operation (`t`, `h`, `V[i]`, the cached
    /// reply), but the functionality is not invoked and the result
    /// carries the current slice table for the client to adopt. The
    /// stamp is what makes redirects exactly-once-compatible: a lost
    /// redirect reply is recovered through the ordinary cached-retry
    /// path, and the client re-invokes the operation on the new owner
    /// as a fresh invocation under that shard's own context.
    fn execute_fresh(
        &mut self,
        ready: &mut Ready,
        msg: InvokeView<'_>,
        slot: Slot,
        hint: RouteHint,
        redirect: bool,
        out: &mut Writer,
    ) -> Result<ClientId> {
        // t ← t + 1 ; (r, s) ← execF(s, o) ; h ← hash(h ‖ o ‖ t ‖ i)
        self.t = self.t.next();
        let result = if redirect {
            self.table.to_bytes()
        } else {
            self.f.exec(msg.op)
        };
        self.h = self.h.extend(msg.op, self.t, msg.client);

        // V[i] ← (tc, t, h) ; q ← majority-stable(V)
        self.v.advance(slot, msg.tc, self.t, self.h);
        if let Err(at) = self.touched.binary_search(&msg.client) {
            self.touched.insert(at, msg.client);
        }
        let q = self.v.stable().max(self.stable_floor);
        self.stable_floor = q;

        let cached = CachedReply {
            t: self.t,
            q,
            h: self.h,
            hc_echo: msg.hc,
            redirect,
            result,
        };
        let reply = ReplyView {
            t: cached.t,
            q: cached.q,
            h: cached.h,
            hc_echo: cached.hc_echo,
            redirect: cached.redirect,
            result: &cached.result,
        };
        let sealed = self.seal_reply(ready, out, hint, reply);
        // The sealed reply's fields move into the cache as they are.
        self.v.set_cached(slot, cached);
        sealed?;
        Ok(msg.client)
    }

    /// Appends `reply` to the invoke `hint` announced, sealed under the
    /// next nonce, to `out`.
    fn seal_reply(
        &self,
        ready: &mut Ready,
        out: &mut Writer,
        hint: RouteHint,
        reply: ReplyView<'_>,
    ) -> Result<()> {
        let nonce = ready.nonces.next(&self.services);
        seal_message_into(
            out,
            &ready.keys.aead_c,
            &nonce,
            // The reply echoes the *request's* routing epoch — the
            // client can only decrypt under the epoch it stamped.
            &reply_aad(hint.client, hint.route, hint.epoch),
            &[],
            crate::wire::REPLY_OVERHEAD + reply.result.len(),
            |w| reply.encode(w),
        )
    }

    fn serve_read(&mut self, ready: &mut Ready, wire: &[u8], out: &mut Writer) -> Result<()> {
        let (hint, sealed) =
            crate::wire::ReadHint::peel(wire).ok_or(Violation::BadAuthentication)?;
        let replica = ready.identity.replica;
        let aad = read_aad(hint.client, hint.route, hint.seq, replica, hint.epoch);
        // Opened in the scratch buffer; the decoded leg owns its
        // operation, so the buffer goes straight back.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(sealed);
        let opened = gcm::open_in_place(&ready.keys.aead_c, &aad, &mut scratch)
            .map(|plain| crate::wire::ReadMsg::from_bytes(plain));
        self.scratch = scratch;
        let msg = match opened {
            Ok(Ok(m)) => m,
            _ => return Err(Violation::BadAuthentication.into()),
        };
        if msg.client != hint.client || msg.tc.0 != hint.seq {
            return Err(Violation::BadAuthentication.into());
        }
        // Followers bypass the leader's quorum path entirely, so they
        // must refuse to execute anything that could mutate state.
        if !F::is_readonly(&msg.op) {
            return Err(Violation::MutationOnReadPath { client: msg.client }.into());
        }
        // Same two-route ownership check as the write path, with one
        // deliberate asymmetry: a *future*-epoch read leg answers
        // `Behind` instead of halting. During a migration a client can
        // honestly learn the bumped table from the origin shard's
        // redirect a moment before a follower of another group
        // installs it — reads are idempotent and retryable, and the
        // context check below already prevents a rolled-back member
        // from serving stale data as fresh. Writes keep the strict
        // future-epoch halt (the migration driver orders adoption
        // before any client can learn the new epoch on the write
        // path). A stale-epoch leg whose slice has since migrated away
        // answers `Moved` carrying the current table; a current-epoch
        // leg this shard does not own is a misdelivery or a lying
        // envelope — halt.
        let recomputed = crate::routing::route_for(msg.client, F::shard_key(&msg.op));
        let future_epoch = hint.epoch > self.table.epoch();
        let (here, routes) = (ready.identity.index, [hint.route, recomputed]);
        let moved = !future_epoch && !self.owns_wire(here, msg.client, routes, hint.epoch)?;
        let entry = (self.v.get(msg.client)).ok_or(LcmError::UnknownClient(msg.client))?;
        let (entry_t, entry_h) = (entry.t, entry.h);
        use crate::wire::ReadStatus::{Behind, Fresh, Moved};
        let (status, q, result) = if future_epoch {
            // This member has not installed the table the client
            // routes by yet: honest adoption lag, retryable.
            (Behind, self.stable_floor, Vec::new())
        } else if moved {
            // The slice migrated away since the client's table: hand
            // back the current table so the client re-pins. No context
            // stamp — reads are idempotent, so unlike the write path
            // there is nothing an exactly-once replay could lose.
            (Moved, self.stable_floor, self.table.to_bytes())
        } else if entry_t == msg.tc && entry_h == msg.hc {
            // Up to date for this client: execute the read. The
            // `is_readonly` contract guarantees `exec` leaves the
            // service state untouched.
            let q = self.v.stable().max(self.stable_floor);
            (Fresh, q, self.f.exec(&msg.op))
        } else if entry_t < msg.tc {
            // Honest replication lag: this member has not installed
            // the client's latest acknowledged write yet. Retryable —
            // never a violation.
            (Behind, self.stable_floor, Vec::new())
        } else {
            return Err(Violation::ContextMismatch {
                client: msg.client,
                claimed: msg.tc,
                recorded: entry_t,
            }
            .into());
        };
        let reply = crate::wire::ReadReplyMsg {
            t: entry_t,
            q,
            h: entry_h,
            hc_echo: msg.hc,
            status,
            result,
        };
        let nonce = ready.nonces.next(&self.services);
        seal_message_into(
            out,
            &ready.keys.aead_c,
            &nonce,
            &read_reply_aad(msg.client, hint.route, hint.seq, replica, hint.epoch),
            &[],
            crate::wire::REPLY_OVERHEAD + reply.result.len(),
            |w| reply.encode(w),
        )
    }

    fn admin(&mut self, ready: &mut Ready, wire: &[u8]) -> Result<(Vec<u8>, PersistBlobs)> {
        let plain = aead::auth_decrypt(&ready.keys.aead_a, wire, LABEL_ADMIN)
            .map_err(|_| Violation::BadAuthentication)?;
        let mut r = Reader::new(&plain);
        let decoded = (|| -> std::result::Result<_, CodecError> {
            let seq = r.get_u64()?;
            let op = AdminOp::decode(&mut r)?;
            r.finish()?;
            Ok((seq, op))
        })();
        let (seq, op) = decoded.map_err(|_| Violation::BadAuthentication)?;

        if seq != self.admin_seq + 1 {
            return Err(Violation::AdminReplay.into());
        }
        self.admin_seq = seq;

        let reply = match op {
            AdminOp::AddClient(id) => {
                if self.v.add_member(id) {
                    AdminReply::Ok
                } else {
                    AdminReply::Rejected(format!("client {id} already in group"))
                }
            }
            AdminOp::RemoveClient(id, new_kc) => {
                if self.v.remove_member(id) {
                    ready.keys.rotate_kc(new_kc);
                    AdminReply::Ok
                } else {
                    AdminReply::Rejected(format!("client {id} not in group"))
                }
            }
            AdminOp::RotateKey(new_kc) => {
                ready.keys.rotate_kc(new_kc);
                AdminReply::Ok
            }
            AdminOp::Status => AdminReply::Status {
                t: self.t,
                q: self.v.stable().max(self.stable_floor),
                n: self.v.entries().len() as u32,
            },
        };

        let mut w = Writer::new();
        w.put_u64(seq);
        reply.encode(&mut w);
        let nonce = ready.nonces.next(&self.services);
        let reply_wire =
            aead::auth_encrypt_with_nonce(&ready.keys.aead_a, &nonce, &w.into_bytes(), LABEL_ADMIN)
                .map_err(|e| LcmError::Tee(e.to_string()))?;
        let blobs = self.seal_blobs(ready, true)?;
        Ok((reply_wire, blobs))
    }

    /// The violation of something meant for shard `owner` that the
    /// host delivered to this one, shard `here`, under routing epoch
    /// `wire_epoch`. A sealed record or ticket has no invoking client:
    /// the dummy `ClientId(0)` marks those.
    #[cold]
    fn wrong_shard(&self, here: u32, client: ClientId, owner: u32, wire_epoch: u64) -> LcmError {
        LcmError::Violation(Violation::WrongShard {
            client,
            delivered_to: here,
            owner,
            wire_epoch,
            shard_epoch: self.table.epoch(),
        })
    }

    /// Judges an authenticated wire's two routes — the envelope route
    /// the host delivered by and the route recomputed from the
    /// decrypted operation — against this enclave's table: `true` when
    /// shard `here` owns both, `false` when it does not and the wire
    /// was stamped under an older epoch (its slice has since migrated
    /// away), and a `WrongShard` violation naming the first route not
    /// owned when the wire carries the current epoch — the host
    /// misdelivered it, or its envelope lies. A wire of a *future*
    /// epoch is the caller's to judge first. Inlined into both
    /// per-operation paths, where the ownership test used to be
    /// written out.
    #[inline]
    fn owns_wire(&self, here: u32, client: ClientId, routes: [u32; 2], epoch: u64) -> Result<bool> {
        match routes.into_iter().find(|&r| !self.table.owns(here, r)) {
            None => Ok(true),
            Some(_) if epoch < self.table.epoch() => Ok(false),
            Some(stray) => {
                let owner = self.table.shard_of(stray);
                Err(self.wrong_shard(here, client, owner, epoch))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functionality::AppendLog;
    use crate::wire::{InvokeMsg, ReplyMsg};
    use lcm_tee::measurement::Measurement;
    use lcm_tee::world::TeeWorld;

    pub(crate) const M_NAME: &str = "lcm-test";

    pub(super) fn world() -> TeeWorld {
        TeeWorld::new_deterministic(11)
    }

    fn services(world: &TeeWorld, platform_id: u64) -> TeeServices {
        let platform = world.platform_deterministic(platform_id);
        TeeServices::for_tests(platform, Measurement::of_program(M_NAME, "1"), platform_id)
    }

    fn provision_payload() -> ProvisionPayload {
        ProvisionPayload {
            k_p: SecretKey::from_bytes([1u8; 32]),
            k_c: SecretKey::from_bytes([2u8; 32]),
            k_a: SecretKey::from_bytes([3u8; 32]),
            clients: vec![ClientId(1), ClientId(2), ClientId(3)],
            quorum: Quorum::Majority,
            identity: ShardIdentity::SOLO,
        }
    }

    pub(super) fn provisioned_context(
        world: &TeeWorld,
    ) -> (TrustedContext<AppendLog>, PersistBlobs) {
        let mut ctx = TrustedContext::<AppendLog>::new(services(world, 1));
        assert_eq!(
            ctx.init(None, None, false).unwrap(),
            InitOutcome::NeedProvision
        );
        let payload = provision_payload();
        let channel =
            AeadKey::from_secret(&world.admin_provision_key(&Measurement::of_program(M_NAME, "1")));
        let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
        let blobs = ctx.provision(&sealed).unwrap();
        (ctx, blobs)
    }

    fn client_key() -> gcm::GcmKey {
        gcm::GcmKey::from_secret(&SecretKey::from_bytes([2u8; 32]))
    }

    fn encrypt_invoke(msg: &InvokeMsg) -> Vec<u8> {
        let route = crate::routing::route_for(msg.client, None);
        let hint = crate::wire::RouteHint {
            client: msg.client,
            route,
            seq: msg.tc.0,
            epoch: 0,
        };
        let ct = gcm::auth_encrypt(
            &client_key(),
            &msg.to_bytes(),
            &invoke_aad(msg.client, route, msg.tc.0, 0),
        )
        .unwrap();
        let mut wire = Vec::with_capacity(crate::wire::ROUTE_HINT_LEN + ct.len());
        hint.encode_to(&mut wire);
        wire.extend_from_slice(&ct);
        wire
    }

    fn decrypt_reply(wire: &[u8], client: u32) -> ReplyMsg {
        let route = crate::routing::route_for(ClientId(client), None);
        let plain =
            gcm::auth_decrypt(&client_key(), wire, &reply_aad(ClientId(client), route, 0)).unwrap();
        ReplyMsg::from_bytes(&plain).unwrap()
    }

    pub(super) fn invoke(
        ctx: &mut TrustedContext<AppendLog>,
        client: u32,
        tc: SeqNo,
        hc: ChainValue,
        op: &[u8],
    ) -> Result<ReplyMsg> {
        let msg = InvokeMsg {
            client: ClientId(client),
            tc,
            hc,
            retry: false,
            op: op.to_vec(),
        };
        let (_, wire) = ctx.handle_invoke(&encrypt_invoke(&msg))?;
        Ok(decrypt_reply(&wire, client))
    }

    #[test]
    fn provision_then_first_ops() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let r1 = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"op-a").unwrap();
        assert_eq!(r1.t, SeqNo(1));
        assert_eq!(r1.q, SeqNo::ZERO);
        assert_eq!(r1.hc_echo, ChainValue::GENESIS);

        let r2 = invoke(&mut ctx, 2, SeqNo::ZERO, ChainValue::GENESIS, b"op-b").unwrap();
        assert_eq!(r2.t, SeqNo(2));
        assert_ne!(r2.h, r1.h);
    }

    #[test]
    fn stability_advances_with_acks() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        // Round 1: all three clients execute one op.
        let r1 = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        let r2 = invoke(&mut ctx, 2, SeqNo::ZERO, ChainValue::GENESIS, b"b").unwrap();
        let r3 = invoke(&mut ctx, 3, SeqNo::ZERO, ChainValue::GENESIS, b"c").unwrap();
        assert_eq!(r3.q, SeqNo::ZERO, "nothing acknowledged yet");

        // Round 2: clients 1 and 2 invoke again, acknowledging their
        // round-1 ops (seq 1 and 2).
        let r4 = invoke(&mut ctx, 1, r1.t, r1.h, b"d").unwrap();
        // After C1 acks #1: a=1, everyone executed ≥1 ⇒ q=1.
        assert_eq!(r4.q, SeqNo(1));
        let r5 = invoke(&mut ctx, 2, r2.t, r2.h, b"e").unwrap();
        // After C2 acks #2: a=2, t values now {4,5,3} all ≥2 ⇒ q=2.
        assert_eq!(r5.q, SeqNo(2));
        let _ = r5;
        let _ = r3;
    }

    #[test]
    fn stability_never_decreases_as_acks_advance() {
        // Regression: the raw majority-stable(V) formula is not
        // monotone — when a client acknowledges a newer op, its old ta
        // leaves the candidate set. The floor must prevent q dropping.
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let r1 = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        let r2 = invoke(&mut ctx, 2, SeqNo::ZERO, ChainValue::GENESIS, b"b").unwrap();
        let r3 = invoke(&mut ctx, 1, r1.t, r1.h, b"c").unwrap();
        assert_eq!(r3.q, SeqNo(1));
        // C1 acknowledges op #3: candidate ta=1 disappears, ta=3 does
        // not qualify yet — the raw formula would report q=0 here.
        let r4 = invoke(&mut ctx, 1, r3.t, r3.h, b"d").unwrap();
        assert!(
            r4.q >= r3.q,
            "q must not decrease: {:?} -> {:?}",
            r3.q,
            r4.q
        );
        let _ = r2;
    }

    #[test]
    fn stability_floor_survives_restart() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let r1 = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        invoke(&mut ctx, 2, SeqNo::ZERO, ChainValue::GENESIS, b"b").unwrap();
        let r3 = invoke(&mut ctx, 1, r1.t, r1.h, b"c").unwrap();
        assert_eq!(r3.q, SeqNo(1));
        let blobs = ctx.persist_blobs().unwrap();

        let mut ctx2 = TrustedContext::<AppendLog>::new(services(&world, 1));
        ctx2.init(Some(&blobs.key_blob), Some(&blobs.state_blob), false)
            .unwrap();
        let r4 = invoke(&mut ctx2, 1, r3.t, r3.h, b"d").unwrap();
        assert!(r4.q >= SeqNo(1), "floor must persist: {:?}", r4.q);
    }

    #[test]
    fn wrong_context_halts_with_violation() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let r1 = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        // Client 1 invokes again with a stale context (as if T was
        // rolled back — or the client's message replayed).
        let err = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"b").unwrap_err();
        assert!(matches!(
            err,
            LcmError::Violation(Violation::ContextMismatch { .. })
        ));
        // Halted forever.
        let err2 = invoke(&mut ctx, 2, SeqNo::ZERO, ChainValue::GENESIS, b"c").unwrap_err();
        assert_eq!(err2, LcmError::Halted);
        let _ = r1;
    }

    #[test]
    fn replayed_invoke_halts() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: false,
            op: b"op".to_vec(),
        };
        let wire = encrypt_invoke(&msg);
        ctx.handle_invoke(&wire).unwrap();
        let err = ctx.handle_invoke(&wire).unwrap_err();
        assert!(matches!(
            err,
            LcmError::Violation(Violation::ContextMismatch { .. })
        ));
    }

    #[test]
    fn tampered_invoke_halts() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: false,
            op: b"op".to_vec(),
        };
        let mut wire = encrypt_invoke(&msg);
        let last = wire.len() - 1;
        wire[last] ^= 1;
        assert!(matches!(
            ctx.handle_invoke(&wire),
            Err(LcmError::Violation(Violation::BadAuthentication))
        ));
        assert_eq!(ctx.phase(), Phase::Halted);
    }

    #[test]
    fn unknown_client_halts() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let msg = InvokeMsg {
            client: ClientId(99),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: false,
            op: b"op".to_vec(),
        };
        assert!(matches!(
            ctx.handle_invoke(&encrypt_invoke(&msg)),
            Err(LcmError::UnknownClient(ClientId(99)))
        ));
        assert_eq!(ctx.phase(), Phase::Halted);
    }

    #[test]
    fn retry_before_execution_executes_normally() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: true,
            op: b"op".to_vec(),
        };
        let (_, wire) = ctx.handle_invoke(&encrypt_invoke(&msg)).unwrap();
        assert_eq!(decrypt_reply(&wire, 1).t, SeqNo(1));
    }

    #[test]
    fn retry_after_execution_returns_cached_reply() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let first = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"op").unwrap();
        // Same context, retry flag set: must resend, not re-execute.
        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: true,
            op: b"op".to_vec(),
        };
        let (_, wire) = ctx.handle_invoke(&encrypt_invoke(&msg)).unwrap();
        let resent = decrypt_reply(&wire, 1);
        assert_eq!(resent.t, first.t);
        assert_eq!(resent.h, first.h);
        assert_eq!(resent.result, first.result);
        // The log was NOT appended twice.
        assert_eq!(ctx.functionality().entries().len(), 1);
    }

    #[test]
    fn retry_with_wrong_context_still_halts() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo(7), // nonsense context
            hc: ChainValue::GENESIS,
            retry: true,
            op: b"b".to_vec(),
        };
        assert!(matches!(
            ctx.handle_invoke(&encrypt_invoke(&msg)),
            Err(LcmError::Violation(Violation::ContextMismatch { .. }))
        ));
    }

    #[test]
    fn seal_restore_roundtrip() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let r1 = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        let blobs = ctx.persist_blobs().unwrap();

        // New epoch on the same platform: recover.
        let mut ctx2 = TrustedContext::<AppendLog>::new(services(&world, 1));
        assert_eq!(
            ctx2.init(Some(&blobs.key_blob), Some(&blobs.state_blob), false)
                .unwrap(),
            InitOutcome::Resumed
        );
        // The recovered context continues from (t, h).
        let r2 = invoke(&mut ctx2, 1, r1.t, r1.h, b"b").unwrap();
        assert_eq!(r2.t, SeqNo(2));
        assert_eq!(ctx2.functionality().entries().len(), 2);
    }

    #[test]
    fn restore_on_other_platform_fails_unseal() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        let blobs = ctx.persist_blobs().unwrap();

        let mut ctx2 = TrustedContext::<AppendLog>::new(services(&world, 2));
        assert!(matches!(
            ctx2.init(Some(&blobs.key_blob), Some(&blobs.state_blob), false),
            Err(LcmError::Violation(Violation::BadAuthentication))
        ));
    }

    #[test]
    fn missing_state_with_keys_halts() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let blobs = ctx.persist_blobs().unwrap();
        let mut ctx2 = TrustedContext::<AppendLog>::new(services(&world, 1));
        assert!(matches!(
            ctx2.init(Some(&blobs.key_blob), None, false),
            Err(LcmError::Violation(Violation::BadAuthentication))
        ));
    }

    #[test]
    fn rollback_attack_detected_by_next_client_context() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let r1 = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        let stale_blobs = ctx.persist_blobs().unwrap();
        let r2 = invoke(&mut ctx, 1, r1.t, r1.h, b"b").unwrap();

        // Malicious host restarts T from the STALE blob.
        let mut rolled = TrustedContext::<AppendLog>::new(services(&world, 1));
        rolled
            .init(
                Some(&stale_blobs.key_blob),
                Some(&stale_blobs.state_blob),
                false,
            )
            .unwrap();
        // Client 1's real context is (r2.t, r2.h); the rolled-back T
        // only knows (r1.t, r1.h) ⇒ mismatch ⇒ detected.
        let err = invoke(&mut rolled, 1, r2.t, r2.h, b"c").unwrap_err();
        assert!(matches!(
            err,
            LcmError::Violation(Violation::ContextMismatch { claimed, recorded, .. })
                if claimed == r2.t && recorded == r1.t
        ));
    }

    #[test]
    fn admin_add_and_remove_client() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let admin_key = AeadKey::from_secret(&SecretKey::from_bytes([3u8; 32]));

        let mut w = Writer::new();
        w.put_u64(1);
        AdminOp::AddClient(ClientId(4)).encode(&mut w);
        let wire = aead::auth_encrypt(&admin_key, &w.into_bytes(), LABEL_ADMIN).unwrap();
        let (reply_wire, _) = ctx.handle_admin(&wire).unwrap();
        let plain = aead::auth_decrypt(&admin_key, &reply_wire, LABEL_ADMIN).unwrap();
        let mut r = Reader::new(&plain);
        assert_eq!(r.get_u64().unwrap(), 1);
        assert_eq!(AdminReply::decode(&mut r).unwrap(), AdminReply::Ok);

        // The new client can now invoke.
        invoke(&mut ctx, 4, SeqNo::ZERO, ChainValue::GENESIS, b"hello").unwrap();

        // Remove client 4 and rotate kC.
        let new_kc = SecretKey::from_bytes([9u8; 32]);
        let mut w = Writer::new();
        w.put_u64(2);
        AdminOp::RemoveClient(ClientId(4), new_kc.clone()).encode(&mut w);
        let wire = aead::auth_encrypt(&admin_key, &w.into_bytes(), LABEL_ADMIN).unwrap();
        ctx.handle_admin(&wire).unwrap();

        // Old-key messages now fail authentication (client locked out).
        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: false,
            op: b"x".to_vec(),
        };
        assert!(matches!(
            ctx.handle_invoke(&encrypt_invoke(&msg)),
            Err(LcmError::Violation(Violation::BadAuthentication))
        ));
    }

    #[test]
    fn admin_replay_halts() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let admin_key = AeadKey::from_secret(&SecretKey::from_bytes([3u8; 32]));
        let mut w = Writer::new();
        w.put_u64(1);
        AdminOp::Status.encode(&mut w);
        let wire = aead::auth_encrypt(&admin_key, &w.into_bytes(), LABEL_ADMIN).unwrap();
        ctx.handle_admin(&wire).unwrap();
        assert!(matches!(
            ctx.handle_admin(&wire),
            Err(LcmError::Violation(Violation::AdminReplay))
        ));
    }

    #[test]
    fn migration_transfers_state_across_platforms() {
        let world = world();
        let (mut origin, _) = provisioned_context(&world);
        let r1 = invoke(&mut origin, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();

        let ticket = origin.export_migration().unwrap();
        assert_eq!(origin.phase(), Phase::Migrated);
        // Origin refuses further work.
        assert!(invoke(&mut origin, 2, SeqNo::ZERO, ChainValue::GENESIS, b"x").is_err());

        // Target on a DIFFERENT platform.
        let mut target = TrustedContext::<AppendLog>::new(services(&world, 2));
        target.init(None, None, false).unwrap();
        let blobs = target.import_migration(&ticket, None).unwrap();
        assert!(!blobs.key_blob.is_empty());

        // Clients continue seamlessly against the target.
        let r2 = invoke(&mut target, 1, r1.t, r1.h, b"b").unwrap();
        assert_eq!(r2.t, SeqNo(2));
        assert_eq!(target.functionality().entries().len(), 2);
    }

    /// One state record: a context migrated to another platform and a
    /// context recovered on the origin's platform from the origin's
    /// last checkpoint are the same context — same identity and table,
    /// same answer to an admin `Status`, same reply to the next invoke.
    #[test]
    fn a_migrated_context_is_the_context_its_last_checkpoint_recovers() {
        let world = world();
        let (mut origin, _) = provisioned_context(&world);
        let r1 = invoke(&mut origin, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        invoke(&mut origin, 2, SeqNo::ZERO, ChainValue::GENESIS, b"b").unwrap();
        let r3 = invoke(&mut origin, 1, r1.t, r1.h, b"c").unwrap();
        let checkpoint = origin.persist_blobs().unwrap();
        let ticket = origin.export_migration().unwrap();

        let mut recovered = TrustedContext::<AppendLog>::new(services(&world, 1));
        let (key_blob, state_blob) = (&checkpoint.key_blob, &checkpoint.state_blob);
        recovered
            .init(Some(key_blob), Some(state_blob), false)
            .unwrap();
        let mut migrated = TrustedContext::<AppendLog>::new(services(&world, 2));
        migrated.init(None, None, false).unwrap();
        migrated.import_migration(&ticket, None).unwrap();

        let admin_key = AeadKey::from_secret(&SecretKey::from_bytes([3u8; 32]));
        let mut w = Writer::new();
        w.put_u64(1);
        AdminOp::Status.encode(&mut w);
        let status = aead::auth_encrypt(&admin_key, &w.into_bytes(), LABEL_ADMIN).unwrap();
        let answers = [&mut recovered, &mut migrated].map(|ctx| {
            let (reply, _) = ctx.handle_admin(&status).unwrap();
            let status = aead::auth_decrypt(&admin_key, &reply, LABEL_ADMIN).unwrap();
            let next = invoke(ctx, 1, r3.t, r3.h, b"d").unwrap();
            let log = ctx.functionality().entries().to_vec();
            (ctx.identity(), ctx.slice_table().clone(), status, next, log)
        });
        assert_eq!(answers[0], answers[1]);
        let (_, _, status, next, log) = &answers[0];
        let mut r = Reader::new(status);
        assert_eq!(r.get_u64().unwrap(), 1);
        let expected = AdminReply::Status {
            t: SeqNo(3),
            q: r3.q,
            n: 3,
        };
        assert_eq!(AdminReply::decode(&mut r).unwrap(), expected);
        assert_eq!((next.t, log.len()), (SeqNo(4), 4));
    }

    #[test]
    fn migration_ticket_rejected_by_other_program_world() {
        let world_a = TeeWorld::new_deterministic(1);
        let world_b = TeeWorld::new_deterministic(2);
        let (mut origin, _) = provisioned_context(&world_a);
        let ticket = origin.export_migration().unwrap();

        let mut target = TrustedContext::<AppendLog>::new(services(&world_b, 9));
        target.init(None, None, false).unwrap();
        assert!(matches!(
            target.import_migration(&ticket, None),
            Err(LcmError::Violation(Violation::BadAuthentication))
        ));
    }

    #[test]
    fn provision_twice_rejected() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let payload = provision_payload();
        let channel =
            AeadKey::from_secret(&world.admin_provision_key(&Measurement::of_program(M_NAME, "1")));
        let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
        assert_eq!(ctx.provision(&sealed), Err(LcmError::AlreadyProvisioned));
    }

    #[test]
    fn provision_payload_codec_roundtrip() {
        let p = provision_payload();
        assert_eq!(ProvisionPayload::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn attest_binds_identity_into_user_data() {
        let world = world();
        let challenge = lcm_crypto::sha256::digest(b"challenge");

        // Unprovisioned: the report binds the *absence* of identity.
        let mut fresh = TrustedContext::<AppendLog>::new(services(&world, 3));
        fresh.init(None, None, false).unwrap();
        assert_eq!(
            fresh.attest(challenge).user_data,
            attest_user_data(&challenge, None)
        );

        // Provisioned: the report binds the installed identity, and is
        // distinguishable from both the raw challenge and the
        // unprovisioned binding.
        let (ctx, _) = provisioned_context(&world);
        let bound = ctx.attest(challenge).user_data;
        assert_eq!(ctx.identity(), Some(ShardIdentity::SOLO));
        assert_eq!(
            bound,
            attest_user_data(&challenge, Some(ShardIdentity::SOLO))
        );
        assert_ne!(bound, challenge);
        assert_ne!(bound, attest_user_data(&challenge, None));
        // Different identities bind differently.
        assert_ne!(
            attest_user_data(&challenge, Some(ShardIdentity::new(0, 4))),
            attest_user_data(&challenge, Some(ShardIdentity::new(1, 4)))
        );
    }

    /// Provisions a context claiming shard `index` of `count`.
    fn provisioned_with_identity(
        world: &TeeWorld,
        identity: ShardIdentity,
    ) -> TrustedContext<AppendLog> {
        let mut ctx = TrustedContext::<AppendLog>::new(services(world, 1));
        ctx.init(None, None, false).unwrap();
        let payload = ProvisionPayload {
            identity,
            ..provision_payload()
        };
        let channel =
            AeadKey::from_secret(&world.admin_provision_key(&Measurement::of_program(M_NAME, "1")));
        let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
        ctx.provision(&sealed).unwrap();
        ctx
    }

    #[test]
    fn intact_wire_delivered_to_wrong_shard_halts() {
        // The enclave is shard `wrong` of 4; client 1's (client-routed)
        // operations map to shard `home` != wrong. An intact,
        // perfectly authenticated first-op wire must be rejected as a
        // WrongShard violation — no client history exists anywhere.
        let world = world();
        let home = crate::routing::shard_index(crate::routing::route_for(ClientId(1), None), 4);
        let wrong = (home + 1) % 4;
        let mut ctx = provisioned_with_identity(&world, ShardIdentity::new(wrong, 4));

        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: false,
            op: b"first-ever".to_vec(),
        };
        let err = ctx.handle_invoke(&encrypt_invoke(&msg)).unwrap_err();
        assert!(
            matches!(
                err,
                LcmError::Violation(Violation::WrongShard { delivered_to, owner, .. })
                    if delivered_to == wrong && owner == home
            ),
            "got {err:?}"
        );
        assert_eq!(ctx.phase(), Phase::Halted);
    }

    #[test]
    fn correctly_routed_wire_accepted_by_matching_identity() {
        let world = world();
        let home = crate::routing::shard_index(crate::routing::route_for(ClientId(1), None), 4);
        let mut ctx = provisioned_with_identity(&world, ShardIdentity::new(home, 4));
        let reply = invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"op").unwrap();
        assert_eq!(reply.t, SeqNo(1));
    }

    /// A partitionable functionality: every operation is its own shard
    /// key.
    #[derive(Debug, Default)]
    struct Keyed(AppendLog);

    impl Functionality for Keyed {
        fn exec(&mut self, op: &[u8]) -> Vec<u8> {
            self.0.exec(op)
        }

        fn shard_key(op: &[u8]) -> Option<&[u8]> {
            Some(op)
        }

        fn snapshot_into(&self, w: &mut Writer) {
            self.0.snapshot_into(w);
        }

        fn restore(&mut self, snapshot: &[u8]) -> std::result::Result<(), CodecError> {
            self.0.restore(snapshot)
        }
    }

    #[test]
    fn envelope_lying_about_its_operation_halts() {
        // A 4-shard enclave of a partitionable `F`: the envelope route
        // maps to this shard (so delivery looks right), but the
        // decrypted operation's key maps elsewhere. The recomputed
        // route must win: the enclave refuses to execute state it does
        // not own.
        let world = world();
        let mut ctx = TrustedContext::<Keyed>::new(services(&world, 1));
        ctx.init(None, None, false).unwrap();
        let this_shard = 2u32;
        let payload = ProvisionPayload {
            identity: ShardIdentity::new(this_shard, 4),
            ..provision_payload()
        };
        let channel =
            AeadKey::from_secret(&world.admin_provision_key(&Measurement::of_program(M_NAME, "1")));
        let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
        ctx.provision(&sealed).unwrap();

        // A key owned by a different shard.
        let foreign = (0..64u32)
            .map(|i| format!("n{i}").into_bytes())
            .find(|n| crate::routing::shard_index(crate::routing::route_hash(n), 4) != this_shard)
            .unwrap();
        // An envelope route that maps to THIS shard (forged consistent
        // delivery) — any u32 with the right residue.
        let lying_route = (0..u32::MAX)
            .find(|&r| crate::routing::shard_index(r, 4) == this_shard)
            .unwrap();
        let msg = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: false,
            op: foreign,
        };
        let hint = crate::wire::RouteHint {
            client: ClientId(1),
            route: lying_route,
            seq: 0,
            epoch: 0,
        };
        let ct = gcm::auth_encrypt(
            &client_key(),
            &msg.to_bytes(),
            &invoke_aad(ClientId(1), lying_route, 0, 0),
        )
        .unwrap();
        let mut wire = Vec::new();
        hint.encode_to(&mut wire);
        wire.extend_from_slice(&ct);

        let err = ctx.handle_invoke(&wire).unwrap_err();
        assert!(
            matches!(
                err,
                LcmError::Violation(Violation::WrongShard { delivered_to, .. })
                    if delivered_to == this_shard
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn identity_survives_seal_restore_and_migration() {
        let world = world();
        let identity = ShardIdentity::new(3, 4);
        let mut ctx = provisioned_with_identity(&world, identity);
        let blobs = ctx.persist_blobs().unwrap();

        // Reboot on the same platform: identity recovered from the
        // sealed state.
        let mut resumed = TrustedContext::<AppendLog>::new(services(&world, 1));
        resumed
            .init(Some(&blobs.key_blob), Some(&blobs.state_blob), false)
            .unwrap();
        assert_eq!(resumed.identity(), Some(identity));

        // Migration to another platform: the ticket carries the
        // identity, so the target takes the origin's place.
        let ticket = resumed.export_migration().unwrap();
        let mut target = TrustedContext::<AppendLog>::new(services(&world, 2));
        target.init(None, None, false).unwrap();
        target.import_migration(&ticket, None).unwrap();
        assert_eq!(target.identity(), Some(identity));
    }

    #[test]
    fn shard_identity_decode_rejects_nonsense() {
        let mut w = Writer::new();
        w.put_u32(5);
        w.put_u32(4); // index >= count
        assert!(ShardIdentity::decode(&mut Reader::new(&w.into_bytes())).is_err());
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u32(0); // count == 0
        assert!(ShardIdentity::decode(&mut Reader::new(&w.into_bytes())).is_err());
    }

    /// `Ok`, or the name of the error variant an entry point answers
    /// with.
    fn variant<T>(outcome: Result<T>) -> String {
        match outcome {
            Ok(_) => "Ok".into(),
            Err(e) => format!("{e:?}").split('(').next().unwrap().to_owned(),
        }
    }

    /// Every public entry point in every lifecycle state. Only a ready
    /// context seals or serves; every other state refuses, a halted one
    /// with `Halted` and the rest with `NotProvisioned` or
    /// `AlreadyProvisioned`. That includes the two persists and an
    /// empty batch, which seal and call nothing else: a halted or
    /// migrated context has no keys left to seal with.
    #[test]
    fn every_entry_point_answers_as_the_lifecycle_says() {
        use crate::program::{answer_ecall, HostCall, HostReply};
        use Phase::{AwaitingProvision, Created, Halted, Migrated, Ready};

        let world = world();
        let (mut sibling, provisioned) = provisioned_context(&world);
        let ticket = sibling.export_migration().unwrap();
        let channel =
            AeadKey::from_secret(&world.admin_provision_key(&Measurement::of_program(M_NAME, "1")));
        let payload = provision_payload().to_bytes();
        let payload = aead::auth_encrypt(&channel, &payload, LABEL_PROVISION).unwrap();
        let invoke = encrypt_invoke(&InvokeMsg {
            client: ClientId(1),
            tc: SeqNo::ZERO,
            hc: ChainValue::GENESIS,
            retry: false,
            op: b"op".to_vec(),
        });
        let mut w = Writer::new();
        w.put_u64(1);
        AdminOp::Status.encode(&mut w);
        let admin_key = AeadKey::from_secret(&SecretKey::from_bytes([3u8; 32]));
        let status = aead::auth_encrypt(&admin_key, w.as_slice(), LABEL_ADMIN).unwrap();
        let empty_batch = HostCall::InvokeBatch(Vec::new()).to_bytes();

        let in_state = |phase: Phase| {
            let mut ctx = TrustedContext::<AppendLog>::new(services(&world, 1));
            match phase {
                Created => {}
                AwaitingProvision => assert!(ctx.init(None, None, false).is_ok()),
                _ => ctx = provisioned_context(&world).0,
            }
            match phase {
                Migrated => assert!(ctx.export_migration().is_ok()),
                Halted => assert!(ctx.handle_invoke(b"junk").is_err()),
                _ => {}
            }
            assert_eq!(ctx.phase(), phase);
            ctx
        };
        type Call<'a> = Box<dyn Fn(&mut TrustedContext<AppendLog>) -> String + 'a>;
        let (np, ap, viol) = ("NotProvisioned", "AlreadyProvisioned", "Violation");
        let refused = |ready: &'static str| [np, np, ready, np, "Halted"];
        let rows: [(&str, Call, [&str; 5]); 14] = [
            (
                "init",
                Box::new(|c| variant(c.init(None, None, false))),
                ["Ok", ap, ap, ap, ap],
            ),
            (
                "provision",
                Box::new(|c| variant(c.provision(&payload))),
                [ap, "Ok", ap, ap, ap],
            ),
            (
                "import_migration",
                Box::new(|c| variant(c.import_migration(&ticket, None))),
                [ap, "Ok", ap, ap, ap],
            ),
            (
                "handle_invoke",
                Box::new(|c| variant(c.handle_invoke(&invoke))),
                refused("Ok"),
            ),
            (
                "serve_read",
                Box::new(|c| variant(c.serve_read(b"junk"))),
                refused(viol),
            ),
            (
                "handle_admin",
                Box::new(|c| variant(c.handle_admin(&status))),
                refused("Ok"),
            ),
            (
                "apply_replica",
                Box::new(|c| variant(c.apply_replica(&provisioned.state_blob))),
                refused("Ok"),
            ),
            (
                "persist_blobs",
                Box::new(|c| variant(c.persist_blobs())),
                refused("Ok"),
            ),
            (
                "persist_batch_blobs",
                Box::new(|c| variant(c.persist_batch_blobs())),
                refused("Ok"),
            ),
            (
                "export_migration",
                Box::new(|c| variant(c.export_migration())),
                refused("Ok"),
            ),
            (
                "export_slice",
                Box::new(|c| variant(c.export_slice(0, 0))),
                refused("Tee"),
            ),
            (
                "import_slice",
                Box::new(|c| variant(c.import_slice(b"junk"))),
                refused(viol),
            ),
            (
                "adopt_table",
                Box::new(|c| variant(c.adopt_table(b"junk"))),
                refused(viol),
            ),
            (
                "empty InvokeBatch",
                Box::new(
                    |c| match HostReply::from_bytes(&answer_ecall(c, 0, &empty_batch)) {
                        Ok(HostReply::BatchOk { replies, .. }) if replies.is_empty() => "Ok".into(),
                        Ok(HostReply::Err(e)) => variant::<()>(Err(e.into_lcm_error())),
                        other => panic!("{other:?}"),
                    },
                ),
                refused("Ok"),
            ),
        ];
        let phases = [Created, AwaitingProvision, Ready, Migrated, Halted];
        for (entry, call, want) in &rows {
            let got = phases.map(|phase| call(&mut in_state(phase)));
            assert_eq!(got, *want, "{entry} in {phases:?}");
        }
        // Identity and attestation answer from every state as before.
        let solo = Some(ShardIdentity::SOLO);
        let identities = phases.map(|phase| in_state(phase).identity());
        assert_eq!(identities, [None, None, solo, solo, solo]);
        let challenge = lcm_crypto::sha256::digest(b"challenge");
        for (phase, identity) in phases.iter().zip(identities) {
            let report = in_state(*phase).attest(challenge);
            assert_eq!(report.user_data, attest_user_data(&challenge, identity));
        }
    }

    #[test]
    fn invoke_before_provision_rejected() {
        let world = world();
        let mut ctx = TrustedContext::<AppendLog>::new(services(&world, 1));
        ctx.init(None, None, false).unwrap();
        assert_eq!(
            ctx.handle_invoke(b"whatever"),
            Err(LcmError::NotProvisioned)
        );
    }
}
