//! KVS operation and result wire formats.

use lcm_core::codec::{CodecError, Reader, WireCodec, Writer};

/// A key-value store operation (the paper's GET/PUT/DEL client
/// interface, §5.3, extended with ordered scans so YCSB workload E
/// runs natively).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value under a key.
    Get(Vec<u8>),
    /// Store a value under a key.
    Put(Vec<u8>, Vec<u8>),
    /// Delete a key.
    Del(Vec<u8>),
    /// Read up to `limit` records in key order starting at `start`
    /// (inclusive).
    Scan {
        /// First key of the range (inclusive).
        start: Vec<u8>,
        /// Maximum number of records returned.
        limit: u32,
    },
    /// A [`KvOp::Scan`] leg of a cross-shard scatter-gather read,
    /// *pinned* to one shard: the operation routes by `pin` (a
    /// client-chosen key hashing to the target shard) instead of by
    /// `start`, so the client can address the same key range on every
    /// shard and merge the ordered legs.
    ///
    /// The pin travels inside the AEAD like the rest of the operation,
    /// so the receiving enclave's attested-identity route check
    /// recomputes it from the plaintext — a host cannot repoint a
    /// pinned leg at a different shard.
    ScanShard {
        /// Routing pin; must hash to the shard this leg targets.
        pin: Vec<u8>,
        /// First key of the range (inclusive).
        start: Vec<u8>,
        /// Maximum number of records returned by this shard.
        limit: u32,
    },
    /// Bulk-load `count` synthetic records in one invocation: keys are
    /// the 16-hex-digit encodings of `start .. start + count`, values
    /// are `value_len` filler bytes. Routes by `pin` like
    /// [`KvOp::ScanShard`], so a loader can address each shard
    /// directly. This is the benchmark preload path — building a
    /// million-object store one `Put` at a time would spend the whole
    /// measurement window on setup. The store answers
    /// [`KvResult::Malformed`], creating nothing, to a fill of more
    /// than 2²⁴ records, of values over 1 MiB, or of more than 256 MiB
    /// of keys and values in all.
    Fill {
        /// Routing pin; must hash to the shard this fill targets.
        pin: Vec<u8>,
        /// First synthetic key index (keys are `{:016x}`-formatted).
        start: u64,
        /// Number of records to insert.
        count: u32,
        /// Length in bytes of each filler value.
        value_len: u32,
    },
}

pub(crate) const OP_GET: u8 = 1;
pub(crate) const OP_PUT: u8 = 2;
pub(crate) const OP_DEL: u8 = 3;
pub(crate) const OP_SCAN: u8 = 4;
pub(crate) const OP_SCAN_SHARD: u8 = 5;
pub(crate) const OP_FILL: u8 = 6;

impl KvOp {
    /// The key this operation routes by (the range start for scans,
    /// the pin for shard-pinned scan legs).
    pub fn key(&self) -> &[u8] {
        match self {
            KvOp::Get(k) | KvOp::Del(k) => k,
            KvOp::Put(k, _) => k,
            KvOp::Scan { start, .. } => start,
            KvOp::ScanShard { pin, .. } | KvOp::Fill { pin, .. } => pin,
        }
    }

    /// This operation with its buffers borrowed.
    pub fn view(&self) -> KvOpView<'_> {
        match self {
            KvOp::Get(key) => KvOpView::Get(key),
            KvOp::Put(key, value) => KvOpView::Put(key, value),
            KvOp::Del(key) => KvOpView::Del(key),
            KvOp::Scan { start, limit } => KvOpView::Scan {
                start,
                limit: *limit,
            },
            KvOp::ScanShard { pin, start, limit } => KvOpView::ScanShard {
                pin,
                start,
                limit: *limit,
            },
            KvOp::Fill {
                pin,
                start,
                count,
                value_len,
            } => KvOpView::Fill {
                pin,
                start: *start,
                count: *count,
                value_len: *value_len,
            },
        }
    }
}

impl WireCodec for KvOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            KvOp::Get(key) => {
                w.put_u8(OP_GET);
                w.put_raw(key);
            }
            KvOp::Put(key, value) => {
                w.put_u8(OP_PUT);
                w.put_bytes(key);
                w.put_raw(value);
            }
            KvOp::Del(key) => {
                w.put_u8(OP_DEL);
                w.put_raw(key);
            }
            KvOp::Scan { start, limit } => {
                w.put_u8(OP_SCAN);
                w.put_u32(*limit);
                w.put_raw(start);
            }
            KvOp::ScanShard { pin, start, limit } => {
                w.put_u8(OP_SCAN_SHARD);
                w.put_bytes(pin);
                w.put_u32(*limit);
                w.put_raw(start);
            }
            KvOp::Fill {
                pin,
                start,
                count,
                value_len,
            } => {
                w.put_u8(OP_FILL);
                w.put_bytes(pin);
                w.put_u64(*start);
                w.put_u32(*count);
                w.put_u32(*value_len);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(KvOpView::decode(r)?.to_owned())
    }
}

/// A [`KvOp`] whose keys, values and pins are borrowed from the bytes
/// it was decoded from — the one decoder of the operation format; the
/// owned [`KvOp`] only copies what a view found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpView<'a> {
    /// See [`KvOp::Get`].
    Get(&'a [u8]),
    /// See [`KvOp::Put`].
    Put(&'a [u8], &'a [u8]),
    /// See [`KvOp::Del`].
    Del(&'a [u8]),
    /// See [`KvOp::Scan`].
    Scan {
        /// First key of the range (inclusive).
        start: &'a [u8],
        /// Maximum number of records returned.
        limit: u32,
    },
    /// See [`KvOp::ScanShard`].
    ScanShard {
        /// Routing pin.
        pin: &'a [u8],
        /// First key of the range (inclusive).
        start: &'a [u8],
        /// Maximum number of records returned by this shard.
        limit: u32,
    },
    /// See [`KvOp::Fill`].
    Fill {
        /// Routing pin.
        pin: &'a [u8],
        /// First synthetic key index.
        start: u64,
        /// Number of records to insert.
        count: u32,
        /// Length in bytes of each filler value.
        value_len: u32,
    },
}

impl<'a> KvOpView<'a> {
    /// Decodes an operation from all of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let op = Self::decode(&mut r)?;
        r.finish()?;
        Ok(op)
    }

    fn decode(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            OP_GET => Ok(KvOpView::Get(r.get_rest())),
            OP_PUT => {
                let key = r.get_bytes()?;
                Ok(KvOpView::Put(key, r.get_rest()))
            }
            OP_DEL => Ok(KvOpView::Del(r.get_rest())),
            OP_SCAN => {
                let limit = r.get_u32()?;
                Ok(KvOpView::Scan {
                    limit,
                    start: r.get_rest(),
                })
            }
            OP_SCAN_SHARD => {
                let pin = r.get_bytes()?;
                let limit = r.get_u32()?;
                Ok(KvOpView::ScanShard {
                    pin,
                    limit,
                    start: r.get_rest(),
                })
            }
            OP_FILL => Ok(KvOpView::Fill {
                pin: r.get_bytes()?,
                start: r.get_u64()?,
                count: r.get_u32()?,
                value_len: r.get_u32()?,
            }),
            other => Err(CodecError::InvalidTag(other)),
        }
    }

    /// The operation with buffers of its own.
    pub fn to_owned(&self) -> KvOp {
        match *self {
            KvOpView::Get(key) => KvOp::Get(key.to_vec()),
            KvOpView::Put(key, value) => KvOp::Put(key.to_vec(), value.to_vec()),
            KvOpView::Del(key) => KvOp::Del(key.to_vec()),
            KvOpView::Scan { start, limit } => KvOp::Scan {
                start: start.to_vec(),
                limit,
            },
            KvOpView::ScanShard { pin, start, limit } => KvOp::ScanShard {
                pin: pin.to_vec(),
                start: start.to_vec(),
                limit,
            },
            KvOpView::Fill {
                pin,
                start,
                count,
                value_len,
            } => KvOp::Fill {
                pin: pin.to_vec(),
                start,
                count,
                value_len,
            },
        }
    }
}

/// The result of a [`KvOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResult {
    /// GET result: the value, or `None` if the key is absent.
    Value(Option<Vec<u8>>),
    /// PUT acknowledged.
    Stored,
    /// DEL result: whether the key existed.
    Deleted(bool),
    /// SCAN result: key/value pairs in key order.
    Range(Vec<(Vec<u8>, Vec<u8>)>),
    /// The operation was malformed.
    Malformed,
}

const RES_NONE: u8 = 1;
const RES_VALUE: u8 = 2;
const RES_STORED: u8 = 3;
const RES_DELETED: u8 = 4;
const RES_MALFORMED: u8 = 5;
const RES_RANGE: u8 = 6;

impl KvResult {
    /// Encodes a GET result from a borrowed value, as
    /// [`KvResult::Value`] encodes.
    pub(crate) fn encode_value(w: &mut Writer, value: Option<&[u8]>) {
        match value {
            None => w.put_u8(RES_NONE),
            Some(v) => {
                w.put_u8(RES_VALUE);
                w.put_raw(v);
            }
        }
    }

    /// Encodes a SCAN result of `count` borrowed pairs, as
    /// [`KvResult::Range`] encodes.
    pub(crate) fn encode_range<'a>(
        w: &mut Writer,
        count: usize,
        pairs: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    ) {
        w.put_u8(RES_RANGE);
        w.put_u32(count as u32);
        for (k, v) in pairs {
            w.put_bytes(k);
            w.put_bytes(v);
        }
    }
}

impl WireCodec for KvResult {
    fn encode(&self, w: &mut Writer) {
        match self {
            KvResult::Value(v) => KvResult::encode_value(w, v.as_deref()),
            KvResult::Stored => w.put_u8(RES_STORED),
            KvResult::Deleted(existed) => {
                w.put_u8(RES_DELETED);
                w.put_bool(*existed);
            }
            KvResult::Range(pairs) => {
                let borrowed = pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice()));
                KvResult::encode_range(w, pairs.len(), borrowed);
            }
            KvResult::Malformed => w.put_u8(RES_MALFORMED),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            RES_NONE => Ok(KvResult::Value(None)),
            RES_VALUE => Ok(KvResult::Value(Some(r.get_rest().to_vec()))),
            RES_STORED => Ok(KvResult::Stored),
            RES_DELETED => Ok(KvResult::Deleted(r.get_bool()?)),
            RES_RANGE => {
                let n = r.get_u32()? as usize;
                let mut pairs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let k = r.get_bytes()?.to_vec();
                    let v = r.get_bytes()?.to_vec();
                    pairs.push((k, v));
                }
                Ok(KvResult::Range(pairs))
            }
            RES_MALFORMED => Ok(KvResult::Malformed),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_roundtrips() {
        let ops = vec![
            KvOp::Get(b"key".to_vec()),
            KvOp::Put(b"key".to_vec(), b"value".to_vec()),
            KvOp::Del(b"key".to_vec()),
            KvOp::Get(vec![]),
            KvOp::Put(vec![], vec![]),
            KvOp::Scan {
                start: b"user".to_vec(),
                limit: 50,
            },
            KvOp::ScanShard {
                pin: b"pin-3".to_vec(),
                start: b"user".to_vec(),
                limit: 50,
            },
            KvOp::ScanShard {
                pin: vec![],
                start: vec![],
                limit: 0,
            },
            KvOp::Fill {
                pin: b"pin-0".to_vec(),
                start: 1 << 40,
                count: 1_000_000,
                value_len: 100,
            },
            KvOp::Fill {
                pin: vec![],
                start: 0,
                count: 0,
                value_len: 0,
            },
        ];
        for op in ops {
            assert_eq!(KvOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
    }

    #[test]
    fn result_roundtrips() {
        let results = vec![
            KvResult::Value(None),
            KvResult::Value(Some(b"v".to_vec())),
            KvResult::Value(Some(vec![])),
            KvResult::Stored,
            KvResult::Deleted(true),
            KvResult::Deleted(false),
            KvResult::Range(vec![]),
            KvResult::Range(vec![
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k2".to_vec(), vec![]),
            ]),
            KvResult::Malformed,
        ];
        for res in results {
            assert_eq!(KvResult::from_bytes(&res.to_bytes()).unwrap(), res);
        }
    }

    #[test]
    fn key_accessor() {
        assert_eq!(KvOp::Get(b"a".to_vec()).key(), b"a");
        assert_eq!(KvOp::Put(b"b".to_vec(), b"v".to_vec()).key(), b"b");
        assert_eq!(KvOp::Del(b"c".to_vec()).key(), b"c");
        // A pinned scan routes by its pin, not its range start.
        let leg = KvOp::ScanShard {
            pin: b"pin".to_vec(),
            start: b"a".to_vec(),
            limit: 9,
        };
        assert_eq!(leg.key(), b"pin");
        // A bulk fill also routes by its pin.
        let fill = KvOp::Fill {
            pin: b"pin-7".to_vec(),
            start: 0,
            count: 10,
            value_len: 8,
        };
        assert_eq!(fill.key(), b"pin-7");
    }

    #[test]
    fn put_encoding_is_compact() {
        // tag + keylen(4) + key + value, no value length prefix.
        let op = KvOp::Put(vec![0; 40], vec![0; 100]);
        assert_eq!(op.to_bytes().len(), 1 + 4 + 40 + 100);
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(KvOp::from_bytes(&[0x7f]).is_err());
        assert!(KvResult::from_bytes(&[0x7f]).is_err());
    }

    #[test]
    fn empty_value_distinct_from_absent() {
        let present = KvResult::Value(Some(vec![]));
        let absent = KvResult::Value(None);
        assert_ne!(present.to_bytes(), absent.to_bytes());
    }
}
