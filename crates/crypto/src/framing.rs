//! Length-prefixed, checksummed record framing.
//!
//! One parser for every append-style byte log in the workspace: the
//! delta-log journal segments (`lcm_storage::DeltaLogStorage`) and the
//! one-slot bundles of `lcm_storage::BundleStorage` both append records
//! that must survive a crash mid-write, and the enclave reads a bundle
//! through it (`lcm_trusted::blob::parse_bundle`). A frame is
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
//!
//! # Two kernels, one checksum
//!
//! [`crc32`] is the IEEE 802.3 CRC (reflected polynomial
//! `0xEDB88320`) and runs under every frame written or scanned: each
//! group commit, each checkpoint, and every byte of every slot a
//! reboot reads. Which kernel computes it is decided per call from
//! what the CPU reports, like `lcm_crypto`'s SHA-256 and ChaCha20;
//! nothing can set it and [`backend`] only reports it:
//!
//! * on an x86-64 CPU with `pclmulqdq` and SSE4.1, the private `clmul`
//!   submodule folds the message by carry-less multiplication, 64
//!   bytes per step — every whole 16-byte lane of an input of at
//!   least 128 bytes;
//! * the slice-by-8 **table kernel** takes everything else: shorter
//!   inputs (a manifest, a frame of a few words), the `< 16`-byte tail
//!   the other kernel leaves, and every byte on any other CPU or
//!   architecture. It is also the oracle the hardware kernel is tested
//!   against, on every length and alignment the tests below name.
//!
//! Both advance the same raw 32-bit register, so one call may start on
//! one and finish on the other. The bytes on every medium and in every
//! bundle are the same whichever ran
//! (`medium_and_bundle_bytes_are_the_recorded_ones` in the delta log
//! pins them). The hardware kernel's fold constants are those Gopal et
//! al. (Intel, 2009) give for this polynomial;
//! `the_fold_constants_are_the_polynomials` recomputes each from
//! `x^n mod P`, so they are pinned to the polynomial and not only to
//! the paper.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

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

/// The least input the carry-less-multiplication kernel is given:
/// below it the four-lane set-up and the final reduction cost more
/// than the table walk they replace.
const CLMUL_MIN: usize = 128;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// The checksum runs over every byte of every group commit, every
/// checkpoint and — frame by frame — every slot a reboot reads, so it
/// is a throughput kernel, not a cold path: see the module docs for
/// the two kernels and which bytes each takes.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN && clmul::available() {
        let (lanes, tail) = bytes.split_at(bytes.len() - bytes.len() % clmul::LANE);
        return !update_table(clmul::update(!0, lanes), tail);
    }
    crc32_table(bytes)
}

/// Which kernel checksums this process's large frames: `"clmul"`
/// (x86-64 `pclmulqdq`) or `"table"`. Throughput differs more than
/// tenfold between the two, so benchmark output names it; nothing can
/// set it.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        return "clmul";
    }
    "table"
}

/// [`crc32`] on the table kernel alone: the fallback on every CPU
/// without `pclmulqdq`, and the oracle the hardware kernel is tested
/// (and benchmarked) against.
pub fn crc32_table(bytes: &[u8]) -> u32 {
    !update_table(!0, bytes)
}

/// Advances the raw CRC register `crc` (no inversion on the way in or
/// out) over `bytes`, eight per step.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
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
    crc
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

    /// `true` when the dispatcher runs the hardware kernel; otherwise
    /// says so in the test's output, so a run on a CPU without
    /// `pclmulqdq` does not read as having covered it.
    fn hardware_or_skip() -> bool {
        let hardware = backend() == "clmul";
        if !hardware {
            println!("skipped: no pclmulqdq");
        }
        hardware
    }

    /// Position-dependent bytes: a kernel that dropped, repeated or
    /// reordered a lane would not get away with it.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect()
    }

    #[test]
    fn crc_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The two degenerate inputs through both kernels, and the check
    /// value where the hardware kernel has to produce it: nine bytes
    /// are below its least input, but a zero register passes over zero
    /// bytes unchanged and starting from `!0` is the same as inverting
    /// the first four message bytes — so the digits, so prepared and
    /// right-aligned in one 64-byte step of zeros, go through every
    /// fold and the reduction.
    #[test]
    fn known_values_through_both_kernels() {
        for (fill, want) in [(0x00u8, 0xEFB5_AF2E_u32), (0xFF, 0xB83A_FFF4)] {
            let data = [fill; 1024];
            assert_eq!(crc32_bitwise(&data), want, "bitwise, {fill:#04x}");
            assert_eq!(crc32_table(&data), want, "table, {fill:#04x}");
            assert_eq!(crc32(&data), want, "{}, {fill:#04x}", backend());
        }
        #[cfg(target_arch = "x86_64")]
        if hardware_or_skip() {
            let mut step = [0u8; clmul::STEP];
            step[55..].copy_from_slice(b"123456789");
            step[55..59].iter_mut().for_each(|b| *b = !*b);
            assert_eq!(!clmul::update(0, &step), 0xCBF4_3926);
            assert_eq!(!update_table(0, &step), 0xCBF4_3926);
        }
    }

    /// Every fold constant is a power of `x` modulo the generator
    /// polynomial (in the bit-reflected, shifted-by-one form the
    /// multiplier wants) and the Barrett pair is the polynomial and the
    /// quotient `x^64 / P`: recomputed here from nothing but [`POLY`].
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_fold_constants_are_the_polynomials() {
        // Normal (not reflected) form of the generator, without x^32.
        let poly = POLY.reverse_bits();
        assert_eq!(poly, 0x04C1_1DB7);
        let x_pow_mod_p = |n: u32| {
            (0..n).fold(1u32, |r, _| {
                (r << 1) ^ (poly & ((r >> 31) & 1).wrapping_neg())
            })
        };
        let constant = |n: u32| i64::from(x_pow_mod_p(n).reverse_bits()) << 1;
        assert_eq!(clmul::K1, constant(4 * 128 + 32));
        assert_eq!(clmul::K2, constant(4 * 128 - 32));
        assert_eq!(clmul::K3, constant(128 + 32));
        assert_eq!(clmul::K4, constant(128 - 32));
        assert_eq!(clmul::K5, constant(64));
        // 33-bit values, reflected within 33 bits.
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        let p = (1u64 << 32) | u64::from(poly);
        assert_eq!(clmul::P, reflect33(p));
        let (mut quotient, mut rem) = (0u64, 1u128 << 64);
        for i in (0..=32).rev() {
            if rem >> (i + 32) & 1 == 1 {
                quotient |= 1 << i;
                rem ^= u128::from(p) << i;
            }
        }
        assert_eq!(clmul::MU, reflect33(quotient));
    }

    /// The dispatcher (whichever kernel it picks, and the seam between
    /// the two inside one call) against the table kernel: every length
    /// 0…4096 at every start offset 0…15 of one shared buffer, so every
    /// lane count, every tail and every alignment of the unaligned
    /// loads is met.
    #[test]
    fn dispatcher_matches_the_table_kernel_on_every_length_and_alignment() {
        hardware_or_skip();
        let buffer = pattern(4096 + 15);
        for offset in 0..16 {
            for len in 0..=4096 {
                let data = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_table(data),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    /// Long runs of the four-lane loop, ending on every kind of
    /// boundary: a whole step, a whole lane, one byte either side.
    #[test]
    fn dispatcher_matches_the_table_kernel_around_one_mebibyte() {
        hardware_or_skip();
        let buffer = pattern((1 << 20) + 127);
        for extra in [0, 1, 15, 16, 63, 64, 127] {
            let data = &buffer[..(1 << 20) + extra];
            assert_eq!(crc32(data), crc32_table(data), "1 MiB + {extra}");
        }
    }

    /// Run by name in CI's `benchmark-smoke` job (`--release -- --ignored`):
    /// wall-clock ratios do not belong in the default suite.
    #[test]
    #[ignore = "timing; run with --release -- --ignored"]
    fn clmul_kernel_is_at_least_four_times_the_table_one() {
        if !hardware_or_skip() {
            return;
        }
        let data = pattern(1 << 20);
        let best_of = |kernel: fn(&[u8]) -> u32| {
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    std::hint::black_box(kernel(std::hint::black_box(&data)));
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let (hardware, table) = (best_of(crc32), best_of(crc32_table));
        println!("1 MiB: {} {hardware:?}, table {table:?}", backend());
        assert!(hardware * 4 <= table, "{hardware:?} vs {table:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every length class of the eight-byte stride, every tail.
        #[test]
        fn table_crc_matches_the_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
        ) {
            prop_assert_eq!(crc32_table(&data), crc32_bitwise(&data));
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }

        /// Checksumming `a ‖ b` in one call equals carrying the table
        /// kernel's register across the cut, wherever the cut falls:
        /// the two kernels advance one and the same register.
        #[test]
        fn crc_of_a_concatenation_is_the_table_kernels_across_any_cut(
            data in proptest::collection::vec(any::<u8>(), 0..=8192),
            cut in any::<usize>(),
        ) {
            let (a, b) = data.split_at(cut % (data.len() + 1));
            prop_assert_eq!(crc32(&data), !update_table(update_table(!0, a), b));
            // And a hardware head may hand over to a table tail at the
            // cut: what `crc32` does inside one call.
            #[cfg(target_arch = "x86_64")]
            if clmul::available() && a.len() >= clmul::STEP {
                let lanes = a.len() - a.len() % clmul::LANE;
                let register = clmul::update(!0, &a[..lanes]);
                let rest = update_table(update_table(register, &a[lanes..]), b);
                prop_assert_eq!(crc32(&data), !rest);
            }
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
