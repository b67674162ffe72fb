//! INVOKE / REPLY wire messages (paper §4.2).
//!
//! Plaintext layouts (before AEAD under `kC`):
//!
//! ```text
//! INVOKE:  tag(1) ‖ i(4) ‖ tc(8) ‖ hc(32) ‖ o(rest)        = 45 B + |o|
//! REPLY:   tag(1) ‖ t(8) ‖ q(8) ‖ h(32) ‖ hc'(32) ‖ r(rest) = 81 B + |r|
//! ```
//!
//! The INVOKE overhead matches the paper's measured **45 bytes**
//! (§6.3). The retry flag of the crash-tolerance extension (§4.6.1) is
//! folded into the tag byte so it costs nothing. Our REPLY carries the
//! full Alg. 2 field list `[REPLY, t, h, r, q, hc]` and is therefore 81
//! bytes; the paper's implementation reports 46 (it presumably elides
//! or truncates the echoed `hc`). Both are *constant in the payload
//! size*, which is the property the §6.3 experiment establishes; the
//! `sec6_3_overhead` binary prints both figures beside the paper's.

use lcm_crypto::aead::{self, AeadKey, SealKey};
use lcm_crypto::chacha20::NONCE_LEN;

use crate::codec::{CodecError, Reader, WireCodec, Writer};
use crate::types::{ChainValue, ClientId, SeqNo};

/// Seals one message in the buffer it is returned in:
/// `framing ‖ nonce ‖ message` is encoded into one `Vec` — sized from
/// `message_len`, the caller's count or estimate, for the tag as well —
/// and the message is encrypted where it lies. `framing` is plaintext
/// the receiver peels before opening: a routing envelope for an INVOKE
/// or read leg, nothing for a reply, the storage-facing kind byte for
/// a sealed blob.
pub fn seal_message(
    key: &impl SealKey,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    framing: &[u8],
    message_len: usize,
    message: impl FnOnce(&mut Writer),
) -> crate::Result<Vec<u8>> {
    let mut w = Writer::new();
    seal_message_into(&mut w, key, nonce, aad, framing, message_len, message)?;
    Ok(w.into_bytes())
}

/// Opens a blob [`seal_message`] sealed behind the one framing byte
/// `kind` (a sealed blob's storage kind): `None` unless it is intact
/// and of that kind.
pub fn open_blob(key: &AeadKey, blob: &[u8], kind: u8, aad: &[u8]) -> Option<Vec<u8>> {
    aead::auth_decrypt(key, blob.strip_prefix(&[kind])?, aad).ok()
}

/// [`seal_message`] appended to `w`: `framing ‖ nonce ‖ message ‖ tag`
/// follows whatever `w` already holds (room reserved from
/// `message_len`), and the message is encrypted where `message`
/// encoded it. The one sealing routine, under either cipher: replies
/// (`kC`: AES-128-GCM) go straight into the ecall's output, sealed
/// blobs (`kP`, `kS`: ChaCha20-Poly1305) into a buffer of their own.
pub fn seal_message_into(
    w: &mut Writer,
    key: &impl SealKey,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    framing: &[u8],
    message_len: usize,
    message: impl FnOnce(&mut Writer),
) -> crate::Result<()> {
    let buf = w.buf_mut();
    buf.reserve(framing.len() + NONCE_LEN + message_len + aead::TAG_LEN);
    buf.extend_from_slice(framing);
    buf.extend_from_slice(nonce);
    let body = buf.len();
    message(w);
    key.seal_in_place(nonce, aad, w.buf_mut(), body)
        .map_err(|e| crate::LcmError::Tee(e.to_string()))
}

/// Tag byte of a first-attempt INVOKE.
pub const TAG_INVOKE: u8 = 0x01;
/// Tag byte of a retried INVOKE (crash-tolerance extension, §4.6.1).
pub const TAG_INVOKE_RETRY: u8 = 0x02;
/// Tag byte of a REPLY.
pub const TAG_REPLY: u8 = 0x03;
/// Tag byte of a REPLY that redirects: the addressed slice migrated
/// away under a newer routing epoch, the operation was **not**
/// executed, and `result` carries the current
/// [`crate::routing::SliceTable`] so the client can re-route. The
/// redirect still advances the client's protocol context on the
/// answering shard (it is a context-stamped no-op), so it verifies —
/// and retries replay — exactly like a normal reply.
pub const TAG_REPLY_REDIRECT: u8 = 0x07;

/// Fixed metadata bytes an INVOKE adds on top of the operation payload.
pub const INVOKE_OVERHEAD: usize = 1 + 4 + 8 + 32;

/// Fixed metadata bytes a REPLY adds on top of the result payload.
pub const REPLY_OVERHEAD: usize = 1 + 8 + 8 + 32 + 32;

/// Length of the plaintext routing envelope prepended to every
/// encrypted INVOKE (see [`RouteHint`]).
pub const ROUTE_HINT_LEN: usize = 4 + 4 + 8 + 8;

/// The plaintext routing envelope of an encrypted INVOKE wire:
/// `client(4) ‖ route(4) ‖ seq(8) ‖ epoch(8) ‖ ciphertext`.
///
/// A key-partitioned sharded host (see `lcm_core::shard`) must route
/// each request without decrypting it, so the client attaches the
/// stable route hash in the clear — exposing no more than the host
/// learns anyway from routing the reply (the client identity) plus a
/// hash of the partition key. The `seq` field carries the client's
/// sequence number `tc` in the clear so the host's admission layer
/// (see `lcm_core::admission`) can deduplicate retried submissions
/// without decrypting; it reveals only an op counter. The `epoch`
/// field names the [`crate::routing::SliceTable`] version the client
/// routed under, so the host can deliver in-flight wires by the map
/// they were addressed with even while slices migrate. All four
/// fields are **bound into the AEAD associated data** of the INVOKE
/// (see [`crate::context::invoke_aad`] / [`crate::context::reply_aad`]
/// for the REPLY): tampering with the envelope, or swapping a client's
/// concurrent replies across shards, fails authentication, and the
/// enclave additionally cross-checks `seq` against the authenticated
/// `tc` inside the ciphertext. Delivering an *intact* wire to the
/// wrong shard is caught by the receiving enclave itself: it holds an
/// attested [`crate::context::ShardIdentity`] plus the current slice
/// table and rejects any current-epoch wire whose envelope route — or
/// whose route recomputed from the decrypted operation's partition key
/// — does not map to it, and any wire stamped with an epoch *newer*
/// than its own table (the signature of a rolled-back enclave)
/// ([`crate::Violation::WrongShard`]), with no client history
/// required. A wire stamped with an *older* epoch whose slice has
/// since migrated away is answered with a [`TAG_REPLY_REDIRECT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHint {
    /// The invoking client (duplicated inside the ciphertext; the
    /// enclave asserts both copies agree).
    pub client: ClientId,
    /// Stable route hash of the operation's partition key (see
    /// [`crate::routing::route_for`]).
    pub route: u32,
    /// The client's sequence number `tc` for this invocation
    /// (duplicated inside the ciphertext; the enclave asserts both
    /// copies agree). Identical across retries of the same operation,
    /// which is what makes host-side retry dedup sound.
    pub seq: u64,
    /// Routing epoch: the [`crate::routing::SliceTable`] version the
    /// client mapped `route` to a shard under.
    pub epoch: u64,
}

impl RouteHint {
    /// The envelope bytes.
    pub fn to_bytes(&self) -> [u8; ROUTE_HINT_LEN] {
        let mut out = [0u8; ROUTE_HINT_LEN];
        out[0..4].copy_from_slice(&self.client.0.to_be_bytes());
        out[4..8].copy_from_slice(&self.route.to_be_bytes());
        out[8..16].copy_from_slice(&self.seq.to_be_bytes());
        out[16..24].copy_from_slice(&self.epoch.to_be_bytes());
        out
    }

    /// Appends the envelope bytes to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Splits a wire into its envelope and the AEAD ciphertext.
    /// Returns `None` when the wire is shorter than the envelope.
    pub fn peel(wire: &[u8]) -> Option<(RouteHint, &[u8])> {
        let mut r = Reader::new(wire);
        let hint = RouteHint {
            client: ClientId(r.get_u32().ok()?),
            route: r.get_u32().ok()?,
            seq: r.get_u64().ok()?,
            epoch: r.get_u64().ok()?,
        };
        Some((hint, r.get_rest()))
    }
}

/// Tag byte of a verified-read leg (replicated shard groups).
pub const TAG_READ: u8 = 0x04;
/// Tag byte of a verified-read reply with fresh data.
pub const TAG_READ_REPLY: u8 = 0x05;
/// Tag byte of a verified-read reply from a member that has not yet
/// installed the client's latest acknowledged write (retryable lag,
/// never a violation).
pub const TAG_READ_BEHIND: u8 = 0x06;
/// Tag byte of a verified-read reply reporting that the addressed
/// slice migrated away under a newer routing epoch: `result` carries
/// the current [`crate::routing::SliceTable`] and the client re-issues
/// the read on the slice's new owner. Reads are idempotent, so unlike
/// [`TAG_REPLY_REDIRECT`] no context stamp is needed.
pub const TAG_READ_REDIRECT: u8 = 0x08;

/// Length of the plaintext envelope prepended to every encrypted read
/// leg (see [`ReadHint`]).
pub const READ_HINT_LEN: usize = 4 + 4 + 8 + 4 + 8;

/// The plaintext envelope of an encrypted verified-read leg:
/// `client(4) ‖ route(4) ‖ seq(8) ‖ replica(4) ‖ epoch(8) ‖
/// ciphertext`.
///
/// Like [`RouteHint`] for writes, but with one extra field: the
/// replica slot the client *pinned* this read to. All five fields are
/// bound into the AEAD associated data
/// ([`crate::context::read_aad`]), and the serving enclave computes
/// the AAD with its **own** attested replica coordinate — a read leg
/// the host redirects to a different member of the group fails
/// authentication inside that enclave. The host learns only what it
/// needs to route: who is asking, which shard, which op counter,
/// which member should answer, and which routing-table version the
/// client addressed it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadHint {
    /// The reading client (duplicated inside the ciphertext; the
    /// enclave asserts both copies agree).
    pub client: ClientId,
    /// Stable route hash of the operation's partition key.
    pub route: u32,
    /// The client's context sequence number `tc` for the shard the
    /// read targets (duplicated inside the ciphertext).
    pub seq: u64,
    /// The replica slot this read is pinned to.
    pub replica: u32,
    /// Routing epoch: the [`crate::routing::SliceTable`] version the
    /// client mapped `route` to a shard under.
    pub epoch: u64,
}

impl ReadHint {
    /// The envelope bytes.
    pub fn to_bytes(&self) -> [u8; READ_HINT_LEN] {
        let mut out = [0u8; READ_HINT_LEN];
        out[0..4].copy_from_slice(&self.client.0.to_be_bytes());
        out[4..8].copy_from_slice(&self.route.to_be_bytes());
        out[8..16].copy_from_slice(&self.seq.to_be_bytes());
        out[16..20].copy_from_slice(&self.replica.to_be_bytes());
        out[20..28].copy_from_slice(&self.epoch.to_be_bytes());
        out
    }

    /// Appends the envelope bytes to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Splits a read wire into its envelope and the AEAD ciphertext.
    /// Returns `None` when the wire is shorter than the envelope.
    pub fn peel(wire: &[u8]) -> Option<(ReadHint, &[u8])> {
        let mut r = Reader::new(wire);
        let hint = ReadHint {
            client: ClientId(r.get_u32().ok()?),
            route: r.get_u32().ok()?,
            seq: r.get_u64().ok()?,
            replica: r.get_u32().ok()?,
            epoch: r.get_u64().ok()?,
        };
        Some((hint, r.get_rest()))
    }
}

/// The plaintext of a verified-read leg: the client's full context for
/// the target shard plus the (read-only) operation. Mirrors
/// [`InvokeMsg`] without the retry flag — reads are idempotent, so a
/// retried read is just the same leg again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadMsg {
    /// Reading client.
    pub client: ClientId,
    /// Sequence number of the client's last completed operation on the
    /// target shard.
    pub tc: SeqNo,
    /// Hash chain value from that operation.
    pub hc: ChainValue,
    /// The opaque read-only operation for the functionality `F`.
    pub op: Vec<u8>,
}

impl WireCodec for ReadMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_READ);
        self.client.encode(w);
        self.tc.encode(w);
        self.hc.encode(w);
        w.put_raw(&self.op);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        if tag != TAG_READ {
            return Err(CodecError::InvalidTag(tag));
        }
        Ok(ReadMsg {
            client: ClientId::decode(r)?,
            tc: SeqNo::decode(r)?,
            hc: ChainValue::decode(r)?,
            op: r.get_rest().to_vec(),
        })
    }
}

/// The disposition of a verified-read reply, carried in its tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// [`TAG_READ_REPLY`]: the member's `V[i]` matched the client's
    /// `(tc, hc)` exactly and `result` holds the read's output.
    Fresh,
    /// [`TAG_READ_BEHIND`]: the member has not yet installed the
    /// client's latest acknowledged write — `result` is empty and the
    /// client should retry (possibly on another member).
    Behind,
    /// [`TAG_READ_REDIRECT`]: the addressed slice migrated away —
    /// `result` holds the current [`crate::routing::SliceTable`] and
    /// the client re-issues the read on the slice's new owner.
    Moved,
}

/// The reply to a verified-read leg; see [`ReadStatus`] for the three
/// dispositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReplyMsg {
    /// The member's recorded sequence number for this client.
    pub t: SeqNo,
    /// The member's stable watermark.
    pub q: SeqNo,
    /// The member's recorded chain value for this client.
    pub h: ChainValue,
    /// Echo of the client's chain value from the read leg.
    pub hc_echo: ChainValue,
    /// Disposition: fresh data, retryable lag, or slice migrated.
    pub status: ReadStatus,
    /// The read result (empty when behind; the current slice table
    /// when moved).
    pub result: Vec<u8>,
}

impl WireCodec for ReadReplyMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self.status {
            ReadStatus::Fresh => TAG_READ_REPLY,
            ReadStatus::Behind => TAG_READ_BEHIND,
            ReadStatus::Moved => TAG_READ_REDIRECT,
        });
        self.t.encode(w);
        self.q.encode(w);
        self.h.encode(w);
        self.hc_echo.encode(w);
        w.put_raw(&self.result);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        let status = match tag {
            TAG_READ_REPLY => ReadStatus::Fresh,
            TAG_READ_BEHIND => ReadStatus::Behind,
            TAG_READ_REDIRECT => ReadStatus::Moved,
            other => return Err(CodecError::InvalidTag(other)),
        };
        Ok(ReadReplyMsg {
            t: SeqNo::decode(r)?,
            q: SeqNo::decode(r)?,
            h: ChainValue::decode(r)?,
            hc_echo: ChainValue::decode(r)?,
            status,
            result: r.get_rest().to_vec(),
        })
    }
}

/// The `[INVOKE, tc, hc, o, i]` message of Alg. 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeMsg {
    /// Invoking client.
    pub client: ClientId,
    /// Sequence number of the client's last completed operation.
    pub tc: SeqNo,
    /// Hash chain value from the client's last completed operation.
    pub hc: ChainValue,
    /// Whether this is a retry of an unanswered invocation.
    pub retry: bool,
    /// The opaque operation for the functionality `F`.
    pub op: Vec<u8>,
}

/// An [`InvokeMsg`] whose operation is borrowed — from the buffer a
/// wire was opened in, or from the pending operation a wire is built
/// for. This is the form the protocol's hot path handles, and the one
/// codec of the message: [`InvokeMsg`] encodes as its view and decodes
/// as a view made owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeView<'a> {
    /// Invoking client.
    pub client: ClientId,
    /// Sequence number of the client's last completed operation.
    pub tc: SeqNo,
    /// Hash chain value from the client's last completed operation.
    pub hc: ChainValue,
    /// Whether this is a retry of an unanswered invocation.
    pub retry: bool,
    /// The opaque operation for the functionality `F`.
    pub op: &'a [u8],
}

impl<'a> InvokeView<'a> {
    /// Appends the message's encoding to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(if self.retry {
            TAG_INVOKE_RETRY
        } else {
            TAG_INVOKE
        });
        self.client.encode(w);
        self.tc.encode(w);
        self.hc.encode(w);
        w.put_raw(self.op);
    }

    /// Decodes a message from all of `bytes`; the operation stays
    /// where it is.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, CodecError> {
        Self::decode(&mut Reader::new(bytes))
    }

    fn decode(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        let retry = match tag {
            TAG_INVOKE => false,
            TAG_INVOKE_RETRY => true,
            other => return Err(CodecError::InvalidTag(other)),
        };
        Ok(InvokeView {
            client: ClientId::decode(r)?,
            tc: SeqNo::decode(r)?,
            hc: ChainValue::decode(r)?,
            retry,
            op: r.get_rest(),
        })
    }

    /// The message with an operation of its own.
    pub fn to_owned(&self) -> InvokeMsg {
        InvokeMsg {
            client: self.client,
            tc: self.tc,
            hc: self.hc,
            retry: self.retry,
            op: self.op.to_vec(),
        }
    }
}

impl InvokeMsg {
    /// This message with its operation borrowed.
    pub fn view(&self) -> InvokeView<'_> {
        InvokeView {
            client: self.client,
            tc: self.tc,
            hc: self.hc,
            retry: self.retry,
            op: &self.op,
        }
    }
}

impl WireCodec for InvokeMsg {
    fn encode(&self, w: &mut Writer) {
        self.view().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(InvokeView::decode(r)?.to_owned())
    }
}

/// The `[REPLY, t, h, r, q, hc]` message of Alg. 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyMsg {
    /// Sequence number assigned to the operation.
    pub t: SeqNo,
    /// Majority-stable sequence number at execution time.
    pub q: SeqNo,
    /// Hash chain value after the operation.
    pub h: ChainValue,
    /// Echo of the client's previous chain value, matching the REPLY to
    /// its INVOKE.
    pub hc_echo: ChainValue,
    /// Whether this reply is a routing redirect
    /// ([`TAG_REPLY_REDIRECT`]): the operation was not executed and
    /// `result` carries the current [`crate::routing::SliceTable`].
    pub redirect: bool,
    /// The operation result from `F` (the encoded slice table when
    /// `redirect`).
    pub result: Vec<u8>,
}

/// A [`ReplyMsg`] whose result is borrowed; to [`ReplyMsg`] what
/// [`InvokeView`] is to [`InvokeMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyView<'a> {
    /// Sequence number assigned to the operation.
    pub t: SeqNo,
    /// Majority-stable sequence number at execution time.
    pub q: SeqNo,
    /// Hash chain value after the operation.
    pub h: ChainValue,
    /// Echo of the client's previous chain value.
    pub hc_echo: ChainValue,
    /// Whether this reply is a routing redirect.
    pub redirect: bool,
    /// The operation result from `F` (the encoded slice table when
    /// `redirect`).
    pub result: &'a [u8],
}

impl<'a> ReplyView<'a> {
    /// Appends the message's encoding to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(if self.redirect {
            TAG_REPLY_REDIRECT
        } else {
            TAG_REPLY
        });
        self.t.encode(w);
        self.q.encode(w);
        self.h.encode(w);
        self.hc_echo.encode(w);
        w.put_raw(self.result);
    }

    /// Decodes a message from all of `bytes`; the result stays where
    /// it is.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, CodecError> {
        Self::decode(&mut Reader::new(bytes))
    }

    fn decode(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        let redirect = match tag {
            TAG_REPLY => false,
            TAG_REPLY_REDIRECT => true,
            other => return Err(CodecError::InvalidTag(other)),
        };
        Ok(ReplyView {
            t: SeqNo::decode(r)?,
            q: SeqNo::decode(r)?,
            h: ChainValue::decode(r)?,
            hc_echo: ChainValue::decode(r)?,
            redirect,
            result: r.get_rest(),
        })
    }

    /// The message with a result of its own.
    pub fn to_owned(&self) -> ReplyMsg {
        ReplyMsg {
            t: self.t,
            q: self.q,
            h: self.h,
            hc_echo: self.hc_echo,
            redirect: self.redirect,
            result: self.result.to_vec(),
        }
    }
}

impl ReplyMsg {
    /// This message with its result borrowed.
    pub fn view(&self) -> ReplyView<'_> {
        ReplyView {
            t: self.t,
            q: self.q,
            h: self.h,
            hc_echo: self.hc_echo,
            redirect: self.redirect,
            result: &self.result,
        }
    }
}

impl WireCodec for ReplyMsg {
    fn encode(&self, w: &mut Writer) {
        self.view().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ReplyView::decode(r)?.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_invoke(retry: bool) -> InvokeMsg {
        InvokeMsg {
            client: ClientId(3),
            tc: SeqNo(17),
            hc: ChainValue::GENESIS.extend(b"prev", SeqNo(17), ClientId(3)),
            retry,
            op: b"PUT key value".to_vec(),
        }
    }

    #[test]
    fn invoke_roundtrip() {
        for retry in [false, true] {
            let msg = sample_invoke(retry);
            let decoded = InvokeMsg::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn reply_roundtrip() {
        for redirect in [false, true] {
            let msg = ReplyMsg {
                t: SeqNo(18),
                q: SeqNo(12),
                h: ChainValue::GENESIS.extend(b"x", SeqNo(18), ClientId(3)),
                hc_echo: ChainValue::GENESIS,
                redirect,
                result: b"OK".to_vec(),
            };
            assert_eq!(ReplyMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn invoke_overhead_is_45_bytes() {
        // Paper §6.3: "our LCM implementation adds 45 byte to an
        // operation invocation", constant in the payload size.
        for op_len in [0usize, 100, 2500] {
            let mut msg = sample_invoke(false);
            msg.op = vec![0xab; op_len];
            assert_eq!(msg.to_bytes().len(), INVOKE_OVERHEAD + op_len);
        }
        assert_eq!(INVOKE_OVERHEAD, 45);
    }

    #[test]
    fn reply_overhead_is_constant() {
        for result_len in [0usize, 100, 2500] {
            let msg = ReplyMsg {
                t: SeqNo(1),
                q: SeqNo(0),
                h: ChainValue::GENESIS,
                hc_echo: ChainValue::GENESIS,
                redirect: false,
                result: vec![0xcd; result_len],
            };
            assert_eq!(msg.to_bytes().len(), REPLY_OVERHEAD + result_len);
        }
    }

    #[test]
    fn empty_op_roundtrips() {
        let mut msg = sample_invoke(false);
        msg.op = vec![];
        assert_eq!(InvokeMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn invalid_tag_rejected() {
        let mut bytes = sample_invoke(false).to_bytes();
        bytes[0] = 0x7f;
        assert!(InvokeMsg::from_bytes(&bytes).is_err());
        assert!(ReplyMsg::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_messages_rejected() {
        let bytes = sample_invoke(false).to_bytes();
        assert!(InvokeMsg::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn retry_flag_costs_nothing() {
        let plain = sample_invoke(false).to_bytes();
        let retry = sample_invoke(true).to_bytes();
        assert_eq!(plain.len(), retry.len());
    }

    #[test]
    fn route_hint_roundtrips() {
        let hint = RouteHint {
            client: ClientId(7),
            route: 0xdead_beef,
            seq: 41,
            epoch: 9,
        };
        let mut wire = Vec::new();
        hint.encode_to(&mut wire);
        wire.extend_from_slice(b"ciphertext");
        let (peeled, rest) = RouteHint::peel(&wire).unwrap();
        assert_eq!(peeled, hint);
        assert_eq!(rest, b"ciphertext");
    }

    #[test]
    fn short_wire_has_no_route_hint() {
        assert!(RouteHint::peel(&[1, 2, 3]).is_none());
        assert!(RouteHint::peel(&[]).is_none());
    }

    #[test]
    fn read_hint_roundtrips() {
        let hint = ReadHint {
            client: ClientId(9),
            route: 0xcafe_f00d,
            seq: 23,
            replica: 2,
            epoch: 3,
        };
        let mut wire = Vec::new();
        hint.encode_to(&mut wire);
        wire.extend_from_slice(b"ct");
        let (peeled, rest) = ReadHint::peel(&wire).unwrap();
        assert_eq!(peeled, hint);
        assert_eq!(rest, b"ct");
        assert!(ReadHint::peel(&wire[..READ_HINT_LEN - 1]).is_none());
    }

    #[test]
    fn read_msg_roundtrips() {
        let msg = ReadMsg {
            client: ClientId(4),
            tc: SeqNo(11),
            hc: ChainValue::GENESIS.extend(b"w", SeqNo(11), ClientId(4)),
            op: b"GET key".to_vec(),
        };
        assert_eq!(ReadMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn read_reply_roundtrips_both_flavours() {
        for status in [ReadStatus::Fresh, ReadStatus::Behind, ReadStatus::Moved] {
            let msg = ReadReplyMsg {
                t: SeqNo(11),
                q: SeqNo(7),
                h: ChainValue::GENESIS.extend(b"w", SeqNo(11), ClientId(4)),
                hc_echo: ChainValue::GENESIS,
                status,
                result: if status == ReadStatus::Fresh {
                    b"value".to_vec()
                } else {
                    vec![]
                },
            };
            assert_eq!(ReadReplyMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }
}
