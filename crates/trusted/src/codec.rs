//! Deterministic binary wire codec.
//!
//! The workspace depends on no serialization framework, so wire
//! messages and sealed state use this small, deterministic,
//! length-prefixed codec. Determinism matters: sealed state must
//! re-encode byte-identically for tests that compare blobs, and the
//! §6.3 message-overhead experiment counts exact bytes.

use std::error::Error;
use std::fmt;

use lcm_crypto::sha256::{Digest, DIGEST_LEN};

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A tag or enum discriminant had an unknown value.
    InvalidTag(u8),
    /// A length prefix exceeded the remaining input (or a sanity bound).
    LengthOutOfRange(u64),
    /// Trailing bytes remained after the value was decoded.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            CodecError::LengthOutOfRange(n) => write!(f, "length {n} out of range"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl Error for CodecError {}

/// Incremental encoder producing a byte vector.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a 32-byte digest verbatim (no length prefix).
    pub fn put_digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Appends raw bytes verbatim (no length prefix); the reader must
    /// know the length from context.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends bytes with a u32 length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a string with a u32 length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends what `body` writes behind a u32 length prefix, filled in
    /// once `body` has returned — [`Writer::put_bytes`] for bytes that
    /// are produced in place rather than copied in.
    pub fn put_sized<R>(&mut self, body: impl FnOnce(&mut Writer) -> R) -> R {
        let at = self.buf.len();
        self.put_u32(0);
        let out = body(self);
        self.patch_u32(at, (self.buf.len() - at - 4) as u32);
        out
    }

    /// Overwrites the big-endian u32 written at byte offset `at`.
    /// Every caller patches a word it wrote; an `at + 4` past the
    /// encoded length leaves the bytes alone.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        if let Some(word) = self.buf.get_mut(at..at.saturating_add(4)) {
            word.copy_from_slice(&v.to_be_bytes());
        }
    }

    /// The buffer itself, for sealing what was encoded where it lies.
    pub(crate) fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Finishes encoding, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the writer while keeping its allocation — the scratch
    /// reuse primitive for per-batch hot paths.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The allocation a scratch writer holds on to between uses.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Incremental decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let out = self.rest().get(..n).ok_or(CodecError::UnexpectedEnd)?;
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let out = self.take(N)?.try_into();
        out.map_err(|_| CodecError::UnexpectedEnd)
    }

    /// The bytes not yet consumed.
    fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    /// Reads a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidTag(other)),
        }
    }

    /// Reads a 32-byte digest.
    pub fn get_digest(&mut self) -> Result<Digest, CodecError> {
        Ok(Digest(self.take_array::<DIGEST_LEN>()?))
    }

    /// Reads all remaining bytes.
    pub fn get_rest(&mut self) -> &'a [u8] {
        let out = self.rest();
        self.pos = self.buf.len();
        out
    }

    /// Reads a u32-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::LengthOutOfRange(len as u64));
        }
        self.take(len)
    }

    /// Reads a u32-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidTag(0xff))
    }
}

/// Types with a canonical binary encoding.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encodes this value to a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a value from `bytes`, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed or trailing input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_crypto::sha256;

    #[test]
    fn scalar_roundtrips() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn bytes_and_str_roundtrip() {
        let mut w = Writer::new();
        w.put_bytes(b"payload");
        w.put_str("name");
        w.put_bytes(b"");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_str().unwrap(), "name");
        assert_eq!(r.get_bytes().unwrap(), b"");
        r.finish().unwrap();
    }

    #[test]
    fn digest_roundtrip() {
        let d = sha256::digest(b"x");
        let mut w = Writer::new();
        w.put_digest(&d);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 32);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_digest().unwrap(), d);
    }

    #[test]
    fn rest_consumes_everything() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_raw(b"tail");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.get_rest(), b"tail");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = Reader::new(&[0x01, 0x02]);
        assert_eq!(r.get_u32(), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn oversized_length_prefix_errors() {
        let mut w = Writer::new();
        w.put_u32(1000); // claims 1000 bytes follow
        w.put_raw(b"short");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(CodecError::LengthOutOfRange(1000)));
    }

    #[test]
    fn bad_bool_errors() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.get_bool(), Err(CodecError::InvalidTag(2)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = Reader::new(&[1, 2]);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::with_capacity(16);
        assert!(w.is_empty());
        w.put_u64(1);
        assert_eq!(w.len(), 8);
    }
}
