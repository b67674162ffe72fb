//! Length-prefixed, checksummed record framing.
//!
//! One parser for every append-style byte log in the workspace: the
//! delta-log journal segments ([`crate::DeltaLogStorage`]) and the
//! file-backed AOF baseline both append records that must survive a
//! crash mid-write. A frame is
//!
//! ```text
//! len(4, BE) ‖ crc32(payload)(4, BE) ‖ payload(len)
//! ```
//!
//! and [`scan`] walks a buffer frame by frame, stopping at the first
//! frame whose length runs past the buffer or whose checksum does not
//! match — the *torn tail* a crash mid-append leaves behind. Everything
//! before the stop point is the valid prefix the caller may trust;
//! everything after it must be truncated away so later appends land
//! after real records, not after garbage.

/// Bytes of framing overhead per record (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0][b]` is
/// the CRC register after shifting byte `b` through it (the classic
/// byte-wise table); `TABLES[k][b]` is the same after `k` further zero
/// bytes, so eight lookups advance the register over eight input bytes
/// at once.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// Table-driven, eight bytes per step: the checksum runs over every
/// byte of every group commit, every checkpoint and — frame by frame —
/// the whole journal at recovery, so it is a throughput kernel, not a
/// cold path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Appends one framed record holding `payload` to `buf`.
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    append_frame_parts(buf, &[payload]);
}

/// Appends one framed record whose payload is the concatenation of
/// `parts` — the same bytes as [`append_frame`] over the joined parts,
/// without joining them first: a writer that prefixes a large blob with
/// a small header (the journal's `epoch ‖ slot ‖ delta`, a checkpoint's
/// `epoch ‖ state`) copies the blob once, into its frame. The checksum
/// runs over the payload where it landed in `buf`.
pub fn append_frame_parts(buf: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    buf.reserve(FRAME_HEADER + len);
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    let crc_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    for part in parts {
        buf.extend_from_slice(part);
    }
    let crc = crc32(&buf[crc_at + 4..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_be_bytes());
}

/// The result of walking a buffer of frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome<'a> {
    /// The payloads of every intact frame, in order.
    pub payloads: Vec<&'a [u8]>,
    /// Length of the valid prefix: the byte offset just past the last
    /// intact frame. Equal to `buf.len()` iff the buffer is clean.
    pub valid_len: usize,
}

impl ScanOutcome<'_> {
    /// Whether the buffer ended in a torn or corrupt frame.
    pub fn is_torn(&self, buf_len: usize) -> bool {
        self.valid_len < buf_len
    }
}

/// Walks `buf` frame by frame, returning the intact payloads and the
/// length of the valid prefix. Never fails: a torn or corrupt tail
/// simply ends the scan.
pub fn scan(buf: &[u8]) -> ScanOutcome<'_> {
    let mut payloads = Vec::new();
    let mut offset = 0;
    while buf.len() - offset >= FRAME_HEADER {
        let len = u32::from_be_bytes(buf[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let want = u32::from_be_bytes(buf[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let start = offset + FRAME_HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= buf.len()) else {
            break; // length runs past the buffer: torn mid-payload
        };
        let payload = &buf[start..end];
        if crc32(payload) != want {
            break; // bit rot or a torn header overwrite
        }
        payloads.push(payload);
        offset = end;
    }
    ScanOutcome {
        payloads,
        valid_len: offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time: the oracle for the tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every length class of the eight-byte stride, every tail.
        #[test]
        fn table_crc_matches_the_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"third record");
        let out = scan(&buf);
        assert_eq!(out.payloads, vec![&b"first"[..], b"", b"third record"]);
        assert_eq!(out.valid_len, buf.len());
        assert!(!out.is_torn(buf.len()));
    }

    #[test]
    fn a_frame_from_parts_is_the_frame_of_their_concatenation() {
        let parts: [&[u8]; 4] = [b"epoch---", b"", b"slot", &[0xAB; 1000]];
        let mut joined = Vec::new();
        append_frame(&mut joined, b"before");
        let mut from_parts = joined.clone();
        append_frame(&mut joined, &parts.concat());
        append_frame_parts(&mut from_parts, &parts);
        assert_eq!(from_parts, joined);
        append_frame_parts(&mut from_parts, &[]);
        assert_eq!(scan(&from_parts).payloads.len(), 3);
        assert_eq!(scan(&from_parts).valid_len, from_parts.len());
    }

    #[test]
    fn torn_payload_truncates_to_last_intact_frame() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"keep me");
        let clean = buf.len();
        append_frame(&mut buf, b"lost in the crash");
        buf.truncate(clean + FRAME_HEADER + 4); // mid-payload
        let out = scan(&buf);
        assert_eq!(out.payloads, vec![&b"keep me"[..]]);
        assert_eq!(out.valid_len, clean);
        assert!(out.is_torn(buf.len()));
    }

    #[test]
    fn torn_header_truncates_too() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"keep me");
        let clean = buf.len();
        buf.extend_from_slice(&[0x00, 0x00]); // 2 of 8 header bytes
        let out = scan(&buf);
        assert_eq!(out.valid_len, clean);
        assert_eq!(out.payloads.len(), 1);
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"good");
        let clean = buf.len();
        append_frame(&mut buf, b"flipped");
        append_frame(&mut buf, b"unreachable");
        let bit = clean + FRAME_HEADER; // first payload byte of "flipped"
        buf[bit] ^= 0x01;
        let out = scan(&buf);
        assert_eq!(out.payloads, vec![&b"good"[..]]);
        assert_eq!(out.valid_len, clean);
    }

    #[test]
    fn absurd_length_does_not_overflow() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"ok");
        let clean = buf.len();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(b"short");
        let out = scan(&buf);
        assert_eq!(out.valid_len, clean);
    }

    #[test]
    fn empty_buffer_is_clean() {
        let out = scan(&[]);
        assert!(out.payloads.is_empty());
        assert_eq!(out.valid_len, 0);
    }
}
