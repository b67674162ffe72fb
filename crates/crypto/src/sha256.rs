//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the `hash()` of the LCM paper: a collision-resistant hash used
//! to build the operation hash chain `h ← hash(h ‖ o ‖ t ‖ i)` inside the
//! trusted execution context. It is the one cost LCM adds to every
//! operation that an SGX-only service does not pay, and this repository
//! pays it twice more (the client recomputes the step; every sealed
//! delta is anchored by a digest of its plaintext), so the compression
//! function is the kernel that matters.
//!
//! # Which kernel runs
//!
//! The hasher is an allocation-free Merkle–Damgård loop that hands its
//! compression function *runs* of whole blocks. Two kernels implement
//! that function and produce identical digests:
//!
//! * on x86-64, when the CPU reports the SHA extensions (with SSE2,
//!   SSSE3 and SSE4.1), the `shani` submodule: `sha256rnds2` /
//!   `sha256msg1` / `sha256msg2` with the state kept in two registers
//!   across all blocks of one call;
//! * everywhere else — other architectures, older x86 — the portable
//!   textbook loop in this file.
//!
//! The choice is made per call from what the CPU says
//! (`is_x86_feature_detected!`, an atomic load after the first call);
//! there is no feature flag, environment variable or second hasher
//! type, and [`backend`] only reports it. The hardware kernel needs
//! `unsafe` (`#[target_feature]` functions and raw 16-byte loads); it
//! is confined to that one private module behind two safe functions,
//! and the crate denies `unsafe_code` everywhere but there and in
//! `chacha20`'s AVX2 kernel, which is fenced the same way.
//!
//! A port to real SGX would not execute `cpuid` inside the enclave (it
//! faults there): it would dispatch on the feature bits the SDK caches
//! from the untrusted runtime. The simulator runs enclave code as host
//! code, so nothing is built for that.
//!
//! Both kernels are validated against the FIPS 180-4 example vectors
//! and a NIST long-message vector in the module tests, and against
//! each other on random inputs in a property test beside them.
//!
//! # Example
//!
//! ```
//! use lcm_crypto::sha256::Sha256;
//!
//! let mut hasher = Sha256::new();
//! hasher.update(b"abc");
//! let digest = hasher.finalize();
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::fmt;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in one SHA-256 message block.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 32-byte SHA-256 digest.
///
/// The hash-chain values `h` and `hc` exchanged by the LCM protocol are
/// values of this type. It is a plain data structure: comparable,
/// hashable, and printable as lowercase hex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Digest consisting of all zero bytes, used as the hash-chain
    /// genesis value `h0` in the protocol.
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hexadecimal.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            use std::fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// Use [`Sha256::update`] to absorb data and [`Sha256::finalize`] to
/// produce the [`Digest`]. For one-shot hashing see [`digest`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // Every whole block goes to the kernel straight from the
        // caller's slice, as one run.
        let (blocks, rest) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 8-byte big-endian bit length — one
        // block, or two when fewer than 9 bytes are free in this one.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        tail[self.buffer_len] = 0x80;
        let end = if self.buffer_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..end]);
        state_digest(&self.state)
    }
}

/// The digest a final chaining value stands for: its words, big-endian.
fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Which compression kernel this process's hashes run on: `"sha-ni"`
/// (x86-64 SHA extensions) or `"portable"`. Throughput differs about
/// fivefold between the two, so benchmark output names it; nothing can
/// set it.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        return "sha-ni";
    }
    "portable"
}

/// Compresses `blocks` — a whole number of 64-byte blocks — into
/// `state` on the fastest kernel this CPU has.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        return shani::compress_blocks(state, blocks);
    }
    compress_blocks_portable(state, blocks);
}

/// The portable kernel: the FIPS 180-4 loop as written there. The
/// fallback on every CPU without SHA extensions, and the oracle the
/// hardware kernel is tested against.
pub(crate) fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0, "partial SHA-256 block");
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// let d = lcm_crypto::sha256::digest(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices without an
/// intermediate allocation, e.g. the LCM chain step
/// `hash(h ‖ o ‖ t ‖ i)`.
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Whole hashes on the portable kernel alone. On a CPU with SHA
/// extensions the dispatcher never runs that kernel, so the tests of
/// this crate reach it here: the padding is written out a second time
/// and [`compress_blocks_portable`] gets the padded message whole.
#[cfg(test)]
pub(crate) mod portable {
    use super::{compress_blocks_portable, state_digest, Digest, BLOCK_LEN, H0};

    /// SHA-256 of the concatenation of `parts`.
    pub(crate) fn digest(parts: &[&[u8]]) -> Digest {
        let mut msg = parts.concat();
        let bit_len = msg.len() as u64 * 8;
        msg.push(0x80);
        msg.resize((msg.len() + 8).next_multiple_of(BLOCK_LEN) - 8, 0);
        msg.extend_from_slice(&bit_len.to_be_bytes());
        let mut state = H0;
        compress_blocks_portable(&mut state, &msg);
        state_digest(&state)
    }

    /// HMAC-SHA-256 as RFC 2104 writes it: `H(k⊕opad ‖ H(k⊕ipad ‖ m))`.
    pub(crate) fn hmac(key: &[u8], data: &[u8]) -> Digest {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..32].copy_from_slice(digest(&[key]).as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let inner = digest(&[&block.map(|b| b ^ 0x36), data]);
        digest(&[&block.map(|b| b ^ 0x5c), inner.as_bytes()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One published vector, through the dispatching hasher and through
    /// the portable kernel.
    fn check_vector(msg: &[u8], expected: &str) {
        assert_eq!(digest(msg).to_hex(), expected, "{} kernel", backend());
        assert_eq!(portable::digest(&[msg]).to_hex(), expected, "portable");
    }

    /// `true` when the dispatcher runs the hardware kernel; otherwise
    /// says so in the test's output, so a run on a CPU without SHA
    /// extensions does not read as having covered it.
    fn hardware_or_skip() -> bool {
        let hardware = backend() == "sha-ni";
        if !hardware {
            println!("skipped: no sha");
        }
        hardware
    }

    #[test]
    fn fips_vector_abc() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_empty() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        check_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// The hardware kernel called directly, on runs of one to five
    /// blocks from arbitrary chaining values, against the portable one.
    #[test]
    fn hardware_kernel_matches_portable_on_block_runs() {
        if !hardware_or_skip() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        for blocks in 1..=5usize {
            let data: Vec<u8> = (0..blocks * BLOCK_LEN)
                .map(|i| (i * 131 + blocks) as u8)
                .collect();
            let mut hw: [u32; 8] =
                std::array::from_fn(|i| 0x9e37_79b9u32.wrapping_mul((i + blocks) as u32));
            let mut sw = hw;
            shani::compress_blocks(&mut hw, &data);
            compress_blocks_portable(&mut sw, &data);
            assert_eq!(hw, sw, "{blocks} blocks");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `update` in pieces == one shot == the portable kernel, for
        /// data cut at random points.
        #[test]
        fn pieces_oneshot_and_portable_agree(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(0usize..=4096, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut pieces = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                pieces.update(&data[from..cut]);
                from = cut;
            }
            let oneshot = digest(&data);
            prop_assert_eq!(pieces.finalize(), oneshot);
            prop_assert_eq!(portable::digest(&[&data]), oneshot);
        }
    }

    /// Run by name in CI's `benchmark-smoke` job (`--release -- --ignored`):
    /// wall-clock ratios do not belong in the default suite.
    #[test]
    #[ignore = "timing; run with --release -- --ignored"]
    fn hardware_kernel_is_at_least_three_times_the_portable_one() {
        if !hardware_or_skip() {
            return;
        }
        let data = vec![0x5au8; 1 << 20];
        let best_of = |kernel: fn(&mut [u32; 8], &[u8])| {
            (0..5)
                .map(|_| {
                    let mut state = H0;
                    let start = std::time::Instant::now();
                    kernel(
                        std::hint::black_box(&mut state),
                        std::hint::black_box(&data),
                    );
                    std::hint::black_box(state);
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let (hardware, portable) = (best_of(compress_blocks), best_of(compress_blocks_portable));
        println!("1 MiB: {} {hardware:?}, portable {portable:?}", backend());
        assert!(hardware * 3 <= portable, "{hardware:?} vs {portable:?}");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Split at many awkward boundaries.
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        let a = b"hello ";
        let b = b"world";
        let mut concat = Vec::new();
        concat.extend_from_slice(a);
        concat.extend_from_slice(b);
        assert_eq!(digest_parts(&[a, b]), digest(&concat));
    }

    /// Lengths where the padding spills into a second block (56, 120),
    /// just fits (55, 119), and where a run of whole blocks ends
    /// (63/64/65, 127/128): byte-at-a-time, one-shot and the portable
    /// kernel agree.
    #[test]
    fn padding_boundary_lengths() {
        hardware_or_skip();
        for len in (50..70).chain([119, 120, 127, 128]) {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), digest(&data), "len {len}");
            assert_eq!(portable::digest(&[&data]), digest(&data), "len {len}");
        }
    }

    #[test]
    fn digest_display_and_debug() {
        let d = digest(b"abc");
        assert!(format!("{d}").starts_with("ba7816bf"));
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf"));
    }

    #[test]
    fn digest_from_bytes_roundtrip() {
        let raw = hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        let mut arr = [0u8; 32];
        arr.copy_from_slice(&raw);
        let d = Digest::from(arr);
        assert_eq!(d.as_bytes(), &raw[..]);
        assert_eq!(d, digest(b"abc"));
    }

    #[test]
    fn zero_digest_is_all_zero() {
        assert!(Digest::ZERO.as_bytes().iter().all(|&b| b == 0));
    }
}
