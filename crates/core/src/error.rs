use std::error::Error;
use std::fmt;

use crate::codec::CodecError;
use crate::types::{ChainValue, ClientId, SeqNo};

/// Evidence of server misbehaviour detected by the protocol.
///
/// Any of these corresponds to an `assert` firing in the paper's
/// Alg. 1/Alg. 2: the protocol participant that observes it halts and
/// accuses the server. Crucially, a *rollback* or *fork* surfaces as
/// [`Violation::ContextMismatch`] at the trusted context (the client's
/// condensed view `(tc, hc)` does not match `V[i]`) or as
/// [`Violation::ReplyMismatch`] at the client.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// A message failed authenticated decryption: forged, tampered
    /// with, or encrypted under a rotated-out key.
    BadAuthentication,
    /// The client's `(tc, hc)` does not match `V[i]` — the signature of
    /// a rollback attack, a forking attack, or a message replay.
    ContextMismatch {
        /// The client whose context failed verification.
        client: ClientId,
        /// Sequence number claimed by the client.
        claimed: SeqNo,
        /// Sequence number the trusted context has on record.
        recorded: SeqNo,
    },
    /// A REPLY did not echo the client's current chain value: the reply
    /// answers a different context than the one invoked from.
    ReplyMismatch {
        /// The chain value the client expected echoed.
        expected: ChainValue,
        /// The chain value the reply actually echoed.
        got: ChainValue,
    },
    /// A reply arrived with no operation pending at this client.
    UnexpectedReply,
    /// An intact INVOKE wire reached an enclave that does not own it
    /// under the routing slice table: either the authenticated routing
    /// envelope maps to a different shard (the host redirected the
    /// wire), or the route recomputed from the decrypted operation's
    /// partition key does (the sender's envelope lies about its own
    /// operation), or the wire is stamped with a routing epoch *newer*
    /// than the enclave's own table — the signature of an enclave
    /// rolled back past a slice migration. Detected by the enclave
    /// itself, with no client history required.
    WrongShard {
        /// The invoking client.
        client: ClientId,
        /// The attested identity of the enclave that received the wire.
        delivered_to: u32,
        /// The shard the operation actually maps to (under the
        /// enclave's current table).
        owner: u32,
        /// The routing epoch the wire's envelope was stamped with.
        wire_epoch: u64,
        /// The routing epoch of the enclave's own slice table.
        shard_epoch: u64,
    },
    /// A verified-read leg carried an operation that is not read-only:
    /// the host (or a forged sender) tried to smuggle a mutation past
    /// the leader's quorum path onto a follower.
    MutationOnReadPath {
        /// The client named by the read leg.
        client: ClientId,
    },
    /// An admin operation replayed an old admin sequence number.
    AdminReplay,
    /// A violation reported across the ecall boundary; the rendered
    /// description of the original evidence.
    Reported(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BadAuthentication => write!(f, "message failed authentication"),
            Violation::ContextMismatch {
                client,
                claimed,
                recorded,
            } => write!(
                f,
                "context mismatch for {client}: claimed {claimed}, recorded {recorded} \
                 (rollback, fork, or replay)"
            ),
            Violation::ReplyMismatch { expected, got } => {
                write!(f, "reply mismatch: expected echo {expected}, got {got}")
            }
            Violation::UnexpectedReply => write!(f, "reply with no pending operation"),
            Violation::WrongShard {
                client,
                delivered_to,
                owner,
                wire_epoch,
                shard_epoch,
            } => write!(
                f,
                "operation of {client} maps to shard {owner} but was delivered to \
                 shard {delivered_to} (wire routing epoch {wire_epoch}, shard table \
                 epoch {shard_epoch}: misdirected wire or rolled-back enclave)"
            ),
            Violation::MutationOnReadPath { client } => write!(
                f,
                "read leg of {client} carries a non-read-only operation \
                 (mutation smuggled past the quorum path)"
            ),
            Violation::AdminReplay => write!(f, "admin operation replay"),
            Violation::Reported(msg) => write!(f, "{msg}"),
        }
    }
}

/// Error type for all fallible LCM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LcmError {
    /// Server misbehaviour was detected; the protocol participant has
    /// halted (the paper's `assert`).
    Violation(Violation),
    /// This participant already halted due to an earlier violation.
    Halted,
    /// The trusted context has not been provisioned with keys yet.
    NotProvisioned,
    /// The trusted context is already provisioned and refuses to be
    /// re-provisioned.
    AlreadyProvisioned,
    /// An operation referenced a client outside the group.
    UnknownClient(ClientId),
    /// The client already has an operation in flight (the protocol is
    /// sequential per client, §4.1).
    OperationPending,
    /// A retry was requested but no operation is pending.
    NothingToRetry,
    /// A replication record was delivered to a group member standing
    /// at a different chain position than the one it was sealed
    /// against (the member missed a record, or saw this one already).
    /// Not an attack: delivery order is host scheduling. The member's
    /// state is unchanged and it keeps serving; the group levels it
    /// with a checkpoint (see [`crate::replica`]).
    RecordOutOfOrder,
    /// Wire-format decoding failure of *trusted* data (sealed state) —
    /// distinct from message tampering, which surfaces as a
    /// [`Violation::BadAuthentication`] before decoding.
    Codec(CodecError),
    /// Underlying TEE failure (enclave stopped, attestation failed…).
    Tee(String),
    /// Underlying storage failure.
    Storage(String),
}

impl fmt::Display for LcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LcmError::Violation(v) => write!(f, "server misbehaviour detected: {v}"),
            LcmError::Halted => write!(f, "participant halted after violation"),
            LcmError::NotProvisioned => write!(f, "trusted context not provisioned"),
            LcmError::AlreadyProvisioned => write!(f, "trusted context already provisioned"),
            LcmError::UnknownClient(c) => write!(f, "unknown client {c}"),
            LcmError::OperationPending => write!(f, "an operation is already pending"),
            LcmError::NothingToRetry => write!(f, "no pending operation to retry"),
            LcmError::RecordOutOfOrder => {
                write!(
                    f,
                    "replication record does not chain from this member's position"
                )
            }
            LcmError::Codec(e) => write!(f, "codec failure: {e}"),
            LcmError::Tee(e) => write!(f, "TEE failure: {e}"),
            LcmError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl Error for LcmError {}

impl From<Violation> for LcmError {
    fn from(v: Violation) -> Self {
        LcmError::Violation(v)
    }
}

impl From<CodecError> for LcmError {
    fn from(e: CodecError) -> Self {
        LcmError::Codec(e)
    }
}

impl From<lcm_tee::TeeError> for LcmError {
    fn from(e: lcm_tee::TeeError) -> Self {
        LcmError::Tee(e.to_string())
    }
}

impl From<lcm_storage::StorageError> for LcmError {
    fn from(e: lcm_storage::StorageError) -> Self {
        LcmError::Storage(e.to_string())
    }
}

impl LcmError {
    /// Whether this error is a detected attack (as opposed to an
    /// operational failure).
    pub fn is_violation(&self) -> bool {
        matches!(self, LcmError::Violation(_) | LcmError::Halted)
    }
}
