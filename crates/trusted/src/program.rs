//! Packaging of the trusted context as an enclave program, plus the
//! host-call ABI.
//!
//! This is the analogue of the paper's EDL-generated ecall boundary
//! (§5.1): the untrusted host talks to the enclave exclusively through
//! serialized [`HostCall`]s and gets serialized [`HostReply`]s back.
//! Batching lives here too — one `InvokeBatch` ecall processes many
//! client messages and returns one aggregated state blob, the §5.2
//! optimization that amortizes seal-and-store costs.
//!
//! Every program behind `lcm_core::server::LcmServer` answers through
//! one codec, [`answer_ecall`] over a [`DataPlane`].
//!
//! ## Buffer lifecycle
//!
//! Everything this module allocates lives and dies on the lane thread
//! that makes the ecall, once per call, not per operation. The call's
//! input is the host's reused encode buffer
//! (`lcm_core::server::LcmServer` owns it) and is read where it lies:
//! `Init`, `InvokeBatch` and `ServeRead` are answered from borrowed
//! views of it, and each wire is copied once, into the context's one
//! scratch buffer, to be opened and executed in place. The answer is
//! one output buffer, sized from the last one's length: every reply of
//! a batch is sealed straight into it behind its routing id, then the
//! batch's blobs are appended. The host reads that buffer in place
//! (`batch_replies` and `read_reply_into` in `lcm_core::server`) —
//! each reply is copied into the buffer its request arrived in — and
//! frees it before storing the blobs. Inside the enclave, per
//! operation, only the functionality's result is allocated: it is the
//! cached reply in `V` until the client's next operation replaces it.
//! The owned [`HostCall`] / [`HostReply`] values are the control
//! plane's and the tests' codec; the data plane never builds them.

use lcm_crypto::{aead::Tag, sha256::Digest};
use lcm_tee::enclave::EnclaveProgram;
use lcm_tee::measurement::Measurement;
use lcm_tee::platform::TeeServices;

use crate::codec::{CodecError, Reader, WireCodec, Writer};
use crate::context::{InitOutcome, PersistBlobs, SliceExport, TrustedContext};
use crate::functionality::Functionality;
use crate::types::ClientId;
use crate::{LcmError, Violation};

/// Name under which LCM programs are measured.
pub const PROGRAM_NAME: &str = "lcm";
/// Version string folded into the measurement, hence into the sealing
/// key `kS`. It stays 6 across the changes media sealed under this
/// measurement must survive (`tests/recovery_compat.rs` loads them):
/// the tickets' layouts, which only enclaves of one build exchange, and
/// the tag-chained delta label, opened beside the old one. Each earlier
/// version is distinguishable by measurement: 6 made the anchor-chained
/// delta the replication stream ([`HostCall::ApplyReplica`]), 5 added
/// epoch-versioned routing ([`crate::routing::SliceTable`], the slice
/// ecalls), 4 kind-tagged blobs, deltas and recovery bundles, 3 replica
/// groups and pinned reads, 2 the shard identity in attestation
/// reports; version 1 was identity-less.
pub const PROGRAM_VERSION: &str = "6";

/// The LCM measurement: identical for every `LcmProgram<F>` so that the
/// sealing key survives restarts of the same service.
///
/// Note: in real SGX the functionality `F` is part of the enclave image
/// and thus of MRENCLAVE; here the measurement is per-protocol. Tests
/// that need distinct measurements per application can wrap
/// [`LcmProgram`] behind their own [`EnclaveProgram`] with a custom
/// measurement.
pub fn lcm_measurement() -> Measurement {
    Measurement::of_program(PROGRAM_NAME, PROGRAM_VERSION)
}

/// Calls the host can make into the enclave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostCall {
    /// Deliver the blobs loaded from stable storage (or their absence).
    Init {
        /// Sealed key blob, if storage had one.
        key_blob: Option<Vec<u8>>,
        /// Sealed state blob, if storage had one.
        state_blob: Option<Vec<u8>>,
        /// Whether the host's storage understands sealed delta blobs
        /// (see [`TrustedContext::init`]); untrusted, performance-only.
        want_deltas: bool,
    },
    /// Deliver the admin's encrypted provisioning payload.
    Provision(Vec<u8>),
    /// Process a batch of encrypted INVOKE messages.
    InvokeBatch(Vec<Vec<u8>>),
    /// Process an encrypted admin message.
    Admin(Vec<u8>),
    /// Produce an attestation report for the given challenge digest.
    /// The report's user data binds the enclave's provisioned shard
    /// identity to the challenge (see
    /// [`crate::context::attest_user_data`]).
    Attest(Digest),
    /// Export a migration ticket (origin side).
    ExportMigration,
    /// Import a migration ticket (target side), optionally under a
    /// host-assigned replica slot `(replica, replicas)` of the
    /// ticket's shard group (see
    /// [`crate::context::TrustedContext::import_migration`]).
    ImportMigration {
        /// The encrypted migration ticket.
        ticket: Vec<u8>,
        /// Replica slot the target occupies, and the size of its group.
        slot: Option<(u32, u32)>,
    },
    /// Apply one record of the group's replication stream — the
    /// leader's sealed batch delta, or a sealed checkpoint/bundle — on
    /// this replica-group member (see
    /// [`crate::context::TrustedContext::apply_replica`]).
    ApplyReplica(Vec<u8>),
    /// Serve a replica-pinned verified read leg (see
    /// [`crate::context::TrustedContext::serve_read`]).
    ServeRead(Vec<u8>),
    /// Export one routing slice to another shard (origin side of a
    /// live slice migration; see
    /// [`crate::context::TrustedContext::export_slice`]).
    ExportSlice {
        /// The slice index to move.
        slice: u32,
        /// The shard index taking ownership.
        to: u32,
    },
    /// Import a sealed slice ticket (target side of a live slice
    /// migration).
    ImportSlice(Vec<u8>),
    /// Adopt the sealed routing-table bulletin of a completed slice
    /// migration on a bystander shard.
    AdoptTable(Vec<u8>),
}

const CALL_INIT: u8 = 1;
const CALL_PROVISION: u8 = 2;
const CALL_INVOKE_BATCH: u8 = 3;
const CALL_ADMIN: u8 = 4;
const CALL_ATTEST: u8 = 5;
const CALL_EXPORT_MIG: u8 = 6;
const CALL_IMPORT_MIG: u8 = 7;
const CALL_APPLY_REPLICA: u8 = 8;
const CALL_SERVE_READ: u8 = 9;
const CALL_EXPORT_SLICE: u8 = 11;
const CALL_IMPORT_SLICE: u8 = 12;
const CALL_ADOPT_TABLE: u8 = 13;

impl WireCodec for HostCall {
    fn encode(&self, w: &mut Writer) {
        match self {
            HostCall::Init {
                key_blob,
                state_blob,
                want_deltas,
            } => HostCall::encode_init_into(
                w,
                key_blob.as_deref(),
                state_blob.as_deref(),
                *want_deltas,
            ),
            HostCall::Provision(payload) => {
                w.put_u8(CALL_PROVISION);
                w.put_bytes(payload);
            }
            HostCall::InvokeBatch(batch) => HostCall::encode_invoke_batch_into(w, batch),
            HostCall::Admin(msg) => {
                w.put_u8(CALL_ADMIN);
                w.put_bytes(msg);
            }
            HostCall::Attest(user_data) => {
                w.put_u8(CALL_ATTEST);
                w.put_digest(user_data);
            }
            HostCall::ExportMigration => w.put_u8(CALL_EXPORT_MIG),
            HostCall::ImportMigration { ticket, slot } => {
                w.put_u8(CALL_IMPORT_MIG);
                w.put_bytes(ticket);
                w.put_bool(slot.is_some());
                if let Some((replica, replicas)) = slot {
                    w.put_u32(*replica);
                    w.put_u32(*replicas);
                }
            }
            HostCall::ApplyReplica(record) => HostCall::encode_apply_replica_into(w, record),
            HostCall::ServeRead(wire) => HostCall::encode_serve_read_into(w, wire),
            HostCall::ExportSlice { slice, to } => {
                w.put_u8(CALL_EXPORT_SLICE);
                w.put_u32(*slice);
                w.put_u32(*to);
            }
            HostCall::ImportSlice(ticket) => {
                w.put_u8(CALL_IMPORT_SLICE);
                w.put_bytes(ticket);
            }
            HostCall::AdoptTable(bulletin) => {
                w.put_u8(CALL_ADOPT_TABLE);
                w.put_bytes(bulletin);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            CALL_INIT => {
                let init = InitView::decode_body(r)?;
                Ok(HostCall::Init {
                    key_blob: init.key_blob.map(<[u8]>::to_vec),
                    state_blob: init.state_blob.map(<[u8]>::to_vec),
                    want_deltas: init.want_deltas,
                })
            }
            CALL_PROVISION => Ok(HostCall::Provision(r.get_bytes()?.to_vec())),
            CALL_INVOKE_BATCH => {
                let n = r.get_u32()? as usize;
                let mut batch = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    batch.push(r.get_bytes()?.to_vec());
                }
                Ok(HostCall::InvokeBatch(batch))
            }
            CALL_ADMIN => Ok(HostCall::Admin(r.get_bytes()?.to_vec())),
            CALL_ATTEST => Ok(HostCall::Attest(r.get_digest()?)),
            CALL_EXPORT_MIG => Ok(HostCall::ExportMigration),
            CALL_IMPORT_MIG => Ok(HostCall::ImportMigration {
                ticket: r.get_bytes()?.to_vec(),
                slot: match r.get_bool()? {
                    true => Some((r.get_u32()?, r.get_u32()?)),
                    false => None,
                },
            }),
            CALL_APPLY_REPLICA => Ok(HostCall::ApplyReplica(r.get_bytes()?.to_vec())),
            CALL_SERVE_READ => Ok(HostCall::ServeRead(r.get_bytes()?.to_vec())),
            CALL_EXPORT_SLICE => Ok(HostCall::ExportSlice {
                slice: r.get_u32()?,
                to: r.get_u32()?,
            }),
            CALL_IMPORT_SLICE => Ok(HostCall::ImportSlice(r.get_bytes()?.to_vec())),
            CALL_ADOPT_TABLE => Ok(HostCall::AdoptTable(r.get_bytes()?.to_vec())),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

/// Replies the enclave returns to the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostReply {
    /// Init completed.
    InitOk {
        /// Whether the admin must provision keys.
        need_provision: bool,
    },
    /// Provisioning (or migration import) succeeded; persist the blobs.
    ProvisionOk(PersistBlobs),
    /// A batch was processed. Replies are in submission order; the
    /// client id tells the host where to route each one.
    BatchOk {
        /// `(routing id, encrypted REPLY)` per input message.
        replies: Vec<(ClientId, Vec<u8>)>,
        /// The aggregated sealed state to persist.
        blobs: PersistBlobs,
    },
    /// An admin message was processed.
    AdminOk {
        /// The encrypted admin reply.
        reply: Vec<u8>,
        /// Sealed state to persist.
        blobs: PersistBlobs,
    },
    /// An attestation report (serialized; feed to the quoting enclave).
    AttestOk(Vec<u8>),
    /// A migration ticket (origin side).
    MigrationTicket(Vec<u8>),
    /// A replication record was applied on this member.
    ApplyOk {
        /// The tag of the applied record its open verified — the
        /// member's acknowledgement the host counts toward
        /// replica-quorum stability.
        ack: Tag,
        /// What this member persists for it: the record itself, or
        /// its own sealed checkpoint (cadence, install, or a host
        /// that takes no deltas).
        blobs: PersistBlobs,
    },
    /// A verified read leg was served; the encrypted read reply.
    ReadOk(Vec<u8>),
    /// A routing slice was exported (origin side of a live slice
    /// migration): the ticket, the bulletin, and the origin's
    /// re-sealed blobs to persist.
    SliceExported(SliceExport),
    /// The call failed. The context may now be halted.
    Err(ReplyError),
}

/// Serializable projection of [`LcmError`] across the ecall boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyError {
    /// Discriminant mirroring [`LcmError`] variants.
    pub code: u8,
    /// Human-readable rendering of the original error.
    pub message: String,
}

/// Error code: violation detected, context halted.
pub const ERR_VIOLATION: u8 = 1;
/// Error code: context already halted.
pub const ERR_HALTED: u8 = 2;
/// Error code: context not provisioned.
pub const ERR_NOT_PROVISIONED: u8 = 3;
/// Error code: context already provisioned.
pub const ERR_ALREADY_PROVISIONED: u8 = 4;
/// Error code: other failure.
pub const ERR_OTHER: u8 = 5;
/// Error code: a replication record for another chain position; the
/// context is unchanged and keeps serving.
pub const ERR_RECORD_OUT_OF_ORDER: u8 = 6;

impl From<&LcmError> for ReplyError {
    fn from(e: &LcmError) -> Self {
        let code = match e {
            LcmError::Violation(_) | LcmError::UnknownClient(_) => ERR_VIOLATION,
            LcmError::Halted => ERR_HALTED,
            LcmError::NotProvisioned => ERR_NOT_PROVISIONED,
            LcmError::AlreadyProvisioned => ERR_ALREADY_PROVISIONED,
            LcmError::RecordOutOfOrder => ERR_RECORD_OUT_OF_ORDER,
            _ => ERR_OTHER,
        };
        // For violations, carry the evidence text itself — the
        // receiving side re-wraps it in its own error prefix.
        let message = match e {
            LcmError::Violation(v) => v.to_string(),
            other => other.to_string(),
        };
        ReplyError { code, message }
    }
}

impl ReplyError {
    /// Reconstructs an [`LcmError`] (lossy: the message is preserved,
    /// structured fields are not).
    pub fn into_lcm_error(self) -> LcmError {
        match self.code {
            ERR_VIOLATION => LcmError::Violation(Violation::Reported(self.message)),
            ERR_HALTED => LcmError::Halted,
            ERR_NOT_PROVISIONED => LcmError::NotProvisioned,
            ERR_ALREADY_PROVISIONED => LcmError::AlreadyProvisioned,
            ERR_RECORD_OUT_OF_ORDER => LcmError::RecordOutOfOrder,
            _ => LcmError::Tee(self.message),
        }
    }
}

const REPLY_INIT: u8 = 1;
const REPLY_PROVISION: u8 = 2;
/// Tag byte of an encoded [`HostReply::BatchOk`].
pub const REPLY_BATCH: u8 = 3;
const REPLY_ADMIN: u8 = 4;
const REPLY_ATTEST: u8 = 5;
const REPLY_MIG: u8 = 6;
const REPLY_ERR: u8 = 7;
const REPLY_APPLY: u8 = 8;
/// Tag byte of an encoded [`HostReply::ReadOk`].
pub const REPLY_READ: u8 = 9;
const REPLY_SLICE_EXPORTED: u8 = 10;

/// The state blob goes last, so a checkpoint grows the output once.
fn encode_blobs(w: &mut Writer, blobs: &PersistBlobs) {
    w.put_bytes(&blobs.key_blob);
    encode_opt_bytes(w, blobs.record.as_deref());
    w.put_bytes(&blobs.state_blob);
}

/// Decodes the blobs a [`HostReply`] carries.
pub fn decode_blobs(r: &mut Reader<'_>) -> Result<PersistBlobs, CodecError> {
    Ok(PersistBlobs {
        key_blob: r.get_bytes()?.to_vec(),
        record: decode_opt_slice(r)?.map(<[u8]>::to_vec),
        state_blob: r.get_bytes()?.to_vec(),
    })
}

fn encode_opt_bytes(w: &mut Writer, bytes: Option<&[u8]>) {
    w.put_bool(bytes.is_some());
    if let Some(b) = bytes {
        w.put_bytes(b);
    }
}

fn decode_opt_slice<'a>(r: &mut Reader<'a>) -> Result<Option<&'a [u8]>, CodecError> {
    r.get_bool()?.then(|| r.get_bytes()).transpose()
}

/// A [`HostCall::Init`] whose blobs are still where the host put them:
/// the one call that carries O(state) bytes — the whole recovery
/// bundle — is decoded without copying it, and the only copy the
/// enclave makes of a sealed frame is the one that decrypts it.
#[derive(Debug, Clone, Copy)]
pub struct InitView<'a> {
    /// Sealed key blob, if storage had one.
    pub key_blob: Option<&'a [u8]>,
    /// Sealed state blob — a checkpoint, or a `checkpoint ‖ deltas`
    /// bundle ([`crate::blob::parse_bundle`]) — if storage had one.
    pub state_blob: Option<&'a [u8]>,
    /// Whether the host's storage takes sealed deltas; untrusted,
    /// performance-only.
    pub want_deltas: bool,
}

impl<'a> InitView<'a> {
    /// What follows the `CALL_INIT` tag.
    fn decode_body(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        Ok(InitView {
            want_deltas: r.get_bool()?,
            key_blob: decode_opt_slice(r)?,
            state_blob: decode_opt_slice(r)?,
        })
    }
}

/// The wires of an [`HostCall::InvokeBatch`], still where the host put
/// them: each is handed to the context borrowed, and the context opens
/// it in its one scratch buffer — no wire is copied out per operation.
/// Built only over a call whose framing has been checked whole, so a
/// malformed batch is refused before any wire of it executes.
struct WireList<'a> {
    left: u32,
    wires: Reader<'a>,
}

impl<'a> WireList<'a> {
    /// What follows the `CALL_INVOKE_BATCH` tag, up to the end of the
    /// call.
    fn decode_body(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let left = r.get_u32()?;
        let wires = r.clone();
        for _ in 0..left {
            r.get_bytes()?;
        }
        r.finish()?;
        Ok(WireList { left, wires })
    }
}

impl<'a> Iterator for WireList<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.left = self.left.checked_sub(1)?;
        self.wires.get_bytes().ok()
    }
}

impl WireCodec for HostReply {
    fn encode(&self, w: &mut Writer) {
        match self {
            HostReply::InitOk { need_provision } => {
                w.put_u8(REPLY_INIT);
                w.put_bool(*need_provision);
            }
            HostReply::ProvisionOk(blobs) => {
                w.put_u8(REPLY_PROVISION);
                encode_blobs(w, blobs);
            }
            HostReply::BatchOk { replies, blobs } => {
                w.put_u8(REPLY_BATCH);
                w.put_u32(replies.len() as u32);
                for (id, reply) in replies {
                    id.encode(w);
                    w.put_bytes(reply);
                }
                encode_blobs(w, blobs);
            }
            HostReply::AdminOk { reply, blobs } => {
                w.put_u8(REPLY_ADMIN);
                w.put_bytes(reply);
                encode_blobs(w, blobs);
            }
            HostReply::AttestOk(report) => {
                w.put_u8(REPLY_ATTEST);
                w.put_bytes(report);
            }
            HostReply::MigrationTicket(ticket) => {
                w.put_u8(REPLY_MIG);
                w.put_bytes(ticket);
            }
            HostReply::ApplyOk { ack, blobs } => {
                w.put_u8(REPLY_APPLY);
                w.put_raw(ack);
                encode_blobs(w, blobs);
            }
            HostReply::ReadOk(reply) => {
                w.put_u8(REPLY_READ);
                w.put_bytes(reply);
            }
            HostReply::SliceExported(export) => {
                w.put_u8(REPLY_SLICE_EXPORTED);
                w.put_bytes(&export.ticket);
                w.put_bytes(&export.bulletin);
                encode_blobs(w, &export.blobs);
            }
            HostReply::Err(e) => {
                w.put_u8(REPLY_ERR);
                w.put_u8(e.code);
                w.put_str(&e.message);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            REPLY_INIT => Ok(HostReply::InitOk {
                need_provision: r.get_bool()?,
            }),
            REPLY_PROVISION => Ok(HostReply::ProvisionOk(decode_blobs(r)?)),
            REPLY_BATCH => {
                let n = r.get_u32()? as usize;
                let mut replies = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let id = ClientId::decode(r)?;
                    replies.push((id, r.get_bytes()?.to_vec()));
                }
                Ok(HostReply::BatchOk {
                    replies,
                    blobs: decode_blobs(r)?,
                })
            }
            REPLY_ADMIN => Ok(HostReply::AdminOk {
                reply: r.get_bytes()?.to_vec(),
                blobs: decode_blobs(r)?,
            }),
            REPLY_ATTEST => Ok(HostReply::AttestOk(r.get_bytes()?.to_vec())),
            REPLY_MIG => Ok(HostReply::MigrationTicket(r.get_bytes()?.to_vec())),
            REPLY_APPLY => Ok(HostReply::ApplyOk {
                ack: r.take_array()?,
                blobs: decode_blobs(r)?,
            }),
            REPLY_READ => Ok(HostReply::ReadOk(r.get_bytes()?.to_vec())),
            REPLY_SLICE_EXPORTED => Ok(HostReply::SliceExported(SliceExport {
                ticket: r.get_bytes()?.to_vec(),
                bulletin: r.get_bytes()?.to_vec(),
                blobs: decode_blobs(r)?,
            })),
            REPLY_ERR => Ok(HostReply::Err(ReplyError {
                code: r.get_u8()?,
                message: r.get_str()?.to_owned(),
            })),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

/// The most an ecall's output buffer starts with: a batch's replies
/// and delta fit, a checkpoint that came with the last one need not.
const REPLY_HINT_MAX: usize = 64 * 1024;

/// What a program behind `lcm_core::server::LcmServer`'s host loop
/// answers: `Init` at boot and one `InvokeBatch` per batch, read and
/// written by [`answer_ecall`]. [`TrustedContext`] is LCM's; the
/// SGX-only baseline (`lcm_kvs::baseline::SgxKvsProgram`) is the same
/// lane minus the protocol.
pub trait DataPlane {
    /// Recovers from the blobs the host loaded; `Ok(true)` when the
    /// program awaits provisioning. Blobs that fail to authenticate or
    /// decode are refused.
    fn recover(&mut self, init: InitView<'_>) -> crate::Result<bool>;

    /// Appends the sealed reply to one wire of a batch to `out`, and
    /// returns the client the host routes it to. An error fails the
    /// whole batch.
    fn invoke_into(&mut self, wire: &[u8], out: &mut Writer) -> crate::Result<ClientId>;

    /// The blobs the host persists for the batch just answered.
    fn persist_batch(&mut self) -> crate::Result<PersistBlobs>;

    /// Answers any other call, `input` whole: `Err` if it is malformed,
    /// `Ok(Err)` if refused — by default, every other call is.
    fn answer_other(
        &mut self,
        input: &[u8],
        out: &mut Writer,
    ) -> Result<crate::Result<()>, CodecError> {
        let _ = (input, out);
        Ok(Err(LcmError::Tee("no such call on this program".into())))
    }
}

/// Answers the ecall `input` on `plane`, the one ecall codec: `Init` and
/// `InvokeBatch` are read where the host put them, reply *i* of a batch
/// is sealed straight into the output behind its routing id and the
/// batch's blobs follow, and a call that fails or does not decode is
/// answered with [`HostReply::Err`] alone. The output starts at
/// `reply_hint` bytes (the last answer's length, up to 64 KiB), so a
/// batch's output is allocated once, not grown.
pub fn answer_ecall<D: DataPlane>(plane: &mut D, reply_hint: usize, input: &[u8]) -> Vec<u8> {
    let mut out = Writer::with_capacity(reply_hint.min(REPLY_HINT_MAX));
    let failure = match answer(plane, input, &mut out) {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some((&e).into()),
        Err(e) => Some(ReplyError {
            code: ERR_OTHER,
            message: format!("malformed host call: {e}"),
        }),
    };
    if let Some(e) = failure {
        // Whatever was answered before the failure goes with it.
        out.clear();
        HostReply::Err(e).encode(&mut out);
    }
    out.into_bytes()
}

/// The body of [`answer_ecall`].
fn answer<D: DataPlane>(
    plane: &mut D,
    input: &[u8],
    out: &mut Writer,
) -> Result<crate::Result<()>, CodecError> {
    let mut r = Reader::new(input);
    Ok(match r.get_u8()? {
        CALL_INIT => {
            let init = InitView::decode_body(&mut r)?;
            r.finish()?;
            plane
                .recover(init)
                .map(|need_provision| HostReply::InitOk { need_provision }.encode(out))
        }
        CALL_INVOKE_BATCH => {
            let wires = WireList::decode_body(&mut r)?;
            invoke_batch(plane, wires, out)
        }
        _ => return plane.answer_other(input, out),
    })
}

/// Answers an `InvokeBatch` straight into `out`: each wire's reply is
/// sealed where the encoded reply keeps it, then the batch's blobs
/// follow.
fn invoke_batch<D: DataPlane>(
    plane: &mut D,
    wires: WireList<'_>,
    out: &mut Writer,
) -> crate::Result<()> {
    out.put_u8(REPLY_BATCH);
    out.put_u32(wires.left);
    for wire in wires {
        // The routing id is known once the wire is open.
        let at = out.len();
        out.put_u32(0);
        let client = out.put_sized(|w| plane.invoke_into(wire, w))?;
        out.patch_u32(at, client.0);
    }
    encode_blobs(out, &plane.persist_batch()?);
    Ok(())
}

/// The enclave program wrapping a [`TrustedContext`] over `F`.
pub struct LcmProgram<F: Functionality> {
    context: TrustedContext<F>,
    /// Length of the last reply: the next one's buffer starts at that
    /// size (see [`answer_ecall`]).
    reply_len: usize,
}

impl HostCall {
    /// Encodes an `Init` call directly into `w` from the borrowed
    /// blobs storage returned: the state blob, a whole recovery bundle,
    /// needs no second copy to encode from, and goes last.
    pub fn encode_init_into(
        w: &mut Writer,
        key_blob: Option<&[u8]>,
        state_blob: Option<&[u8]>,
        want_deltas: bool,
    ) {
        w.put_u8(CALL_INIT);
        w.put_bool(want_deltas);
        encode_opt_bytes(w, key_blob);
        encode_opt_bytes(w, state_blob);
    }

    /// Encodes an `InvokeBatch` call directly into `w` from borrowed
    /// wires — the host's hot path, avoiding the intermediate
    /// [`HostCall`] value and a fresh buffer per batch.
    pub fn encode_invoke_batch_into(w: &mut Writer, batch: &[Vec<u8>]) {
        w.put_u8(CALL_INVOKE_BATCH);
        w.put_u32(batch.len() as u32);
        for m in batch {
            w.put_bytes(m);
        }
    }

    /// Encodes an `ApplyReplica` call directly into `w` from a
    /// borrowed record: one record fans out to every follower of a
    /// group, and none of them needs a copy of its own to encode from.
    pub fn encode_apply_replica_into(w: &mut Writer, record: &[u8]) {
        w.put_u8(CALL_APPLY_REPLICA);
        w.put_bytes(record);
    }

    /// Encodes a `ServeRead` call directly into `w` from a borrowed
    /// read leg: the host keeps the leg's buffer to receive the reply
    /// in.
    pub fn encode_serve_read_into(w: &mut Writer, wire: &[u8]) {
        w.put_u8(CALL_SERVE_READ);
        w.put_bytes(wire);
    }
}

impl<F: Functionality> DataPlane for TrustedContext<F> {
    fn recover(&mut self, init: InitView<'_>) -> crate::Result<bool> {
        let outcome = self.init(init.key_blob, init.state_blob, init.want_deltas)?;
        Ok(outcome == InitOutcome::NeedProvision)
    }

    fn invoke_into(&mut self, wire: &[u8], out: &mut Writer) -> crate::Result<ClientId> {
        self.handle_invoke_into(wire, out)
    }

    fn persist_batch(&mut self) -> crate::Result<PersistBlobs> {
        self.persist_batch_blobs()
    }

    /// A `ServeRead` is read where the host put it and answered
    /// straight into `out`; the control plane is decoded into a
    /// [`HostCall`] and answered by the context.
    fn answer_other(
        &mut self,
        input: &[u8],
        out: &mut Writer,
    ) -> Result<crate::Result<()>, CodecError> {
        let mut r = Reader::new(input);
        if r.get_u8()? == CALL_SERVE_READ {
            let wire = r.get_bytes()?;
            r.finish()?;
            out.put_u8(REPLY_READ);
            return Ok(out.put_sized(|w| self.serve_read_into(wire, w)));
        }
        Ok(dispatch(self, HostCall::from_bytes(input)?, out))
    }
}

/// Answers a control-plane call.
fn dispatch<F: Functionality>(
    context: &mut TrustedContext<F>,
    call: HostCall,
    out: &mut Writer,
) -> crate::Result<()> {
    let reply = match call {
        // `answer_ecall` and `answer_other` read these where the host
        // put them: an owned one never reaches this match.
        HostCall::Init { .. } | HostCall::InvokeBatch(_) | HostCall::ServeRead(_) => {
            return Err(LcmError::Tee(
                "a data-plane call is answered in place".into(),
            ))
        }
        HostCall::Provision(payload) => HostReply::ProvisionOk(context.provision(&payload)?),
        HostCall::Admin(msg) => {
            let (reply, blobs) = context.handle_admin(&msg)?;
            HostReply::AdminOk { reply, blobs }
        }
        HostCall::Attest(user_data) => HostReply::AttestOk(context.attest(user_data).to_bytes()),
        HostCall::ExportMigration => HostReply::MigrationTicket(context.export_migration()?),
        HostCall::ImportMigration { ticket, slot } => {
            HostReply::ProvisionOk(context.import_migration(&ticket, slot)?)
        }
        HostCall::ApplyReplica(blob) => {
            let (ack, blobs) = context.apply_replica(&blob)?;
            HostReply::ApplyOk { ack, blobs }
        }
        HostCall::ExportSlice { slice, to } => {
            HostReply::SliceExported(context.export_slice(slice, to)?)
        }
        HostCall::ImportSlice(ticket) => HostReply::ProvisionOk(context.import_slice(&ticket)?),
        HostCall::AdoptTable(bulletin) => HostReply::ProvisionOk(context.adopt_table(&bulletin)?),
    };
    reply.encode(out);
    Ok(())
}

impl<F: Functionality> EnclaveProgram for LcmProgram<F> {
    fn measurement() -> Measurement {
        lcm_measurement()
    }

    fn boot(services: TeeServices) -> Self {
        LcmProgram {
            context: TrustedContext::new(services),
            reply_len: 0,
        }
    }

    fn ecall(&mut self, input: &[u8]) -> Vec<u8> {
        let out = answer_ecall(&mut self.context, self.reply_len, input);
        self.reply_len = out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_call_roundtrips() {
        let calls = vec![
            HostCall::Init {
                key_blob: Some(b"kb".to_vec()),
                state_blob: None,
                want_deltas: true,
            },
            HostCall::Provision(b"payload".to_vec()),
            HostCall::InvokeBatch(vec![b"m1".to_vec(), b"m2".to_vec()]),
            HostCall::Admin(b"admin".to_vec()),
            HostCall::Attest(lcm_crypto::sha256::digest(b"challenge")),
            HostCall::ExportMigration,
            HostCall::ImportMigration {
                ticket: b"ticket".to_vec(),
                slot: None,
            },
            HostCall::ApplyReplica(b"blob".to_vec()),
            HostCall::ServeRead(b"leg".to_vec()),
            HostCall::ImportMigration {
                ticket: b"ticket".to_vec(),
                slot: Some((2, 3)),
            },
            HostCall::ExportSlice { slice: 17, to: 3 },
            HostCall::ImportSlice(b"slice-ticket".to_vec()),
            HostCall::AdoptTable(b"bulletin".to_vec()),
        ];
        for call in calls {
            assert_eq!(HostCall::from_bytes(&call.to_bytes()).unwrap(), call);
        }
    }

    #[test]
    fn host_reply_roundtrips() {
        let blobs = PersistBlobs {
            key_blob: b"kb".to_vec(),
            state_blob: b"sb".to_vec(),
            record: Some(b"rec".to_vec()),
        };
        let replies = vec![
            HostReply::InitOk {
                need_provision: true,
            },
            HostReply::ProvisionOk(blobs.clone()),
            HostReply::BatchOk {
                replies: vec![(ClientId(1), b"r1".to_vec()), (ClientId(2), b"r2".to_vec())],
                blobs: blobs.clone(),
            },
            HostReply::AdminOk {
                reply: b"ar".to_vec(),
                blobs,
            },
            HostReply::AttestOk(b"report".to_vec()),
            HostReply::MigrationTicket(b"ticket".to_vec()),
            HostReply::ApplyOk {
                ack: [7; 16],
                blobs: PersistBlobs {
                    key_blob: b"kb".to_vec(),
                    state_blob: b"sb".to_vec(),
                    record: None,
                },
            },
            HostReply::ReadOk(b"read-reply".to_vec()),
            HostReply::SliceExported(SliceExport {
                ticket: b"ticket".to_vec(),
                bulletin: b"bulletin".to_vec(),
                blobs: PersistBlobs {
                    key_blob: b"kb".to_vec(),
                    state_blob: b"sb".to_vec(),
                    record: None,
                },
            }),
            HostReply::Err(ReplyError {
                code: ERR_VIOLATION,
                message: "boom".to_owned(),
            }),
        ];
        for reply in replies {
            assert_eq!(HostReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_host_call_is_reported_not_panicking() {
        use crate::functionality::AppendLog;
        use lcm_tee::world::TeeWorld;

        let world = TeeWorld::new_deterministic(1);
        let platform = world.platform_deterministic(1);
        let mut enclave = lcm_tee::enclave::Enclave::<LcmProgram<AppendLog>>::create(&platform);
        enclave.start().unwrap();
        let out = enclave.ecall(&[0xff, 0x00]).unwrap();
        match HostReply::from_bytes(&out).unwrap() {
            HostReply::Err(e) => assert_eq!(e.code, ERR_OTHER),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn reply_error_reconstruction() {
        let e = ReplyError {
            code: ERR_HALTED,
            message: "halted".into(),
        };
        assert_eq!(e.into_lcm_error(), LcmError::Halted);
        let e = ReplyError {
            code: ERR_NOT_PROVISIONED,
            message: String::new(),
        };
        assert_eq!(e.into_lcm_error(), LcmError::NotProvisioned);
        // A refusal must stay distinguishable from a failure across
        // the boundary: the group levels on one and drops on the other.
        let e = ReplyError::from(&LcmError::RecordOutOfOrder);
        assert_eq!(e.into_lcm_error(), LcmError::RecordOutOfOrder);
    }
}
