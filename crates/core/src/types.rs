//! Core identifiers and sequence types of the LCM protocol.

use std::fmt;

use lcm_crypto::sha256::{self, Digest};
use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Reader, WireCodec, Writer};

/// Identifier of one client in the group (the `i` of the paper).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl WireCodec for ClientId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ClientId(r.get_u32()?))
    }
}

/// A global operation sequence number assigned by the trusted context
/// (the `t` of the paper). `SeqNo(0)` means "no operation yet".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The sequence number before any operation.
    pub const ZERO: SeqNo = SeqNo(0);

    /// The next sequence number.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl WireCodec for SeqNo {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SeqNo(r.get_u64()?))
    }
}

/// A value of the operation hash chain (the `h` / `hc` of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChainValue(pub Digest);

impl ChainValue {
    /// The genesis chain value `h0` (all zeros), used by both `T` and
    /// clients before any operation.
    pub const GENESIS: ChainValue = ChainValue(Digest::ZERO);

    /// Extends the chain with one operation, computing
    /// `hash(h ‖ o ‖ t ‖ i)` exactly as in Alg. 2.
    #[must_use]
    pub fn extend(&self, op: &[u8], seq: SeqNo, client: ClientId) -> ChainValue {
        ChainValue(sha256::digest_parts(&[
            self.0.as_bytes(),
            op,
            &seq.0.to_be_bytes(),
            &client.0.to_be_bytes(),
        ]))
    }
}

impl Default for ChainValue {
    fn default() -> Self {
        ChainValue::GENESIS
    }
}

impl fmt::Display for ChainValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.12}", self.0.to_hex())
    }
}

impl WireCodec for ChainValue {
    fn encode(&self, w: &mut Writer) {
        w.put_digest(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ChainValue(r.get_digest()?))
    }
}

/// The outcome of a completed operation, returned to the application by
/// the client library (the `(r, t, q)` triple of Alg. 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The operation result produced by the functionality `F`.
    pub result: Vec<u8>,
    /// The global sequence number assigned to this operation.
    pub seq: SeqNo,
    /// The latest sequence number stable among a majority of clients.
    pub stable: SeqNo,
}

impl Completion {
    /// Whether this very operation is already known majority-stable.
    pub fn self_stable(&self) -> bool {
        self.stable >= self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqno_next_increments() {
        assert_eq!(SeqNo(0).next(), SeqNo(1));
        assert_eq!(SeqNo(41).next(), SeqNo(42));
    }

    #[test]
    fn chain_extend_is_deterministic() {
        let a = ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(2));
        let b = ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(2));
        assert_eq!(a, b);
    }

    /// The protocol's bytes, pinned: `SHA-256(0³² ‖ 0x33¹²¹ ‖ 7 (8 B BE)
    /// ‖ 3 (4 B BE))`, recorded before the hash gained a hardware
    /// kernel. A 165 B preimage takes the buffered block, a run from
    /// the caller's slice and the padding block.
    #[test]
    fn chain_extend_golden_value() {
        let h = ChainValue::GENESIS.extend(&[0x33; 121], SeqNo(7), ClientId(3));
        assert_eq!(
            h.0.to_hex(),
            "3bb754236f5162a5c22e86a6acb8ffdbb366b7dc9a3029f9a8354518311aa616"
        );
    }

    #[test]
    fn chain_extend_binds_all_inputs() {
        let base = ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(2));
        assert_ne!(
            base,
            ChainValue::GENESIS.extend(b"oq", SeqNo(1), ClientId(2))
        );
        assert_ne!(
            base,
            ChainValue::GENESIS.extend(b"op", SeqNo(2), ClientId(2))
        );
        assert_ne!(
            base,
            ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(3))
        );
        let other_parent = base.extend(b"op", SeqNo(1), ClientId(2));
        assert_ne!(base, other_parent);
    }

    #[test]
    fn wire_roundtrips() {
        let id = ClientId(77);
        let seq = SeqNo(123_456);
        let chain = ChainValue::GENESIS.extend(b"x", SeqNo(1), ClientId(1));
        assert_eq!(ClientId::from_bytes(&id.to_bytes()).unwrap(), id);
        assert_eq!(SeqNo::from_bytes(&seq.to_bytes()).unwrap(), seq);
        assert_eq!(ChainValue::from_bytes(&chain.to_bytes()).unwrap(), chain);
    }

    #[test]
    fn completion_self_stability() {
        let c = Completion {
            result: vec![],
            seq: SeqNo(5),
            stable: SeqNo(5),
        };
        assert!(c.self_stable());
        let c2 = Completion {
            result: vec![],
            seq: SeqNo(6),
            stable: SeqNo(5),
        };
        assert!(!c2.self_stable());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ClientId(3)), "C3");
        assert_eq!(format!("{}", SeqNo(9)), "#9");
        assert_eq!(format!("{}", ChainValue::GENESIS).len(), 12);
    }
}
