//! ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! Provides the confidentiality half of the [`crate::aead`] construction
//! and, through block 0 of each `(key, nonce)` stream, its one-time
//! Poly1305 key ([`AeadStream`]). 32-byte key, 12-byte nonce, 32-bit
//! block counter; validated against the RFC test vectors.
//!
//! # Which kernel runs
//!
//! Every caller asks for *runs* of consecutive keystream blocks, and
//! two kernels produce them, byte for byte the same:
//!
//! * on x86-64, when the CPU reports AVX2, the `avx2` submodule: rows
//!   of two blocks per `ymm` register, `vpshufb` for the 16- and 8-bit
//!   rotates, four blocks per pass for the head of an AEAD stream and
//!   eight for the bulk of a long one;
//! * everywhere else — other architectures, older x86 — the lane-array
//!   function in this file: a loop over `N` lanes whose body is one
//!   whole block, all twenty rounds written out straight-line, storing
//!   word `w` of lane `l` to `words[w][l]`. Every statement of the body
//!   is then the same `u32` operation on `N` adjacent lanes, which is
//!   the shape the compiler's loop vectoriser turns into one vector
//!   instruction per statement (measured ≈ 2.4× the single-block rate
//!   on SSE2). It runs [`LANES`] blocks at a time; `N = 1` is the
//!   single-block function of the RFC, used for a tail of at most one
//!   block and as the oracle both kernels are tested against.
//!
//! The choice is made per call from what the CPU says
//! (`is_x86_feature_detected!`, an atomic load after the first call);
//! there is no feature flag, environment variable or second cipher
//! type, and [`backend`] only reports it. The AVX2 kernel needs
//! `unsafe` (a `#[target_feature]` function and raw 32-byte stores);
//! it is confined to that one private module behind two safe
//! functions, exactly as `sha256`'s hardware kernel is.
//!
//! A port to real SGX would not execute `cpuid` inside the enclave (it
//! faults there): it would dispatch on the feature bits the SDK caches
//! from the untrusted runtime. The simulator runs enclave code as host
//! code, so nothing is built for that.

use crate::{CryptoError, Result};

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;

/// ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;

/// ChaCha20 nonce length in bytes (RFC 8439 variant).
pub const NONCE_LEN: usize = 12;

/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// Blocks the lane-array kernel produces per pass of the round
/// function.
pub const LANES: usize = 4;

/// Blocks requested from a kernel per step of the bulk stream: one
/// AVX2 pass, two lane-array ones.
const WIDE: usize = 8;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// The 16-word input of the block function for `(key, nonce)`; word 12
/// is the block counter.
type State = [u32; 16];

fn init_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> State {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (word, bytes) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    state[12] = counter;
    for (word, bytes) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    state
}

#[inline(always)]
fn quarter_round(x: &mut State, a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

#[inline(always)]
fn double_round(x: &mut State) {
    // Column round.
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    // Diagonal round.
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
}

/// The keystream blocks for counters `state[12]`, `state[12] + 1`, …,
/// `state[12] + N - 1` (wrapping; the caller bounds the counters it
/// uses).
#[inline(always)]
fn keystream<const N: usize>(state: &State) -> [[u8; BLOCK_LEN]; N] {
    let mut words = [[0u32; N]; 16];
    for l in 0..N {
        let mut init = *state;
        init[12] = init[12].wrapping_add(l as u32);
        let mut x = init;
        // Ten double rounds, spelled out: a `for` here would make the
        // lane loop an outer loop, which the vectoriser leaves scalar.
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        for (lanes, (x, init)) in words.iter_mut().zip(x.iter().zip(&init)) {
            lanes[l] = x.wrapping_add(*init);
        }
    }

    let mut out = [[0u8; BLOCK_LEN]; N];
    for (l, block) in out.iter_mut().enumerate() {
        for (w, bytes) in block.chunks_exact_mut(4).enumerate() {
            bytes.copy_from_slice(&words[w][l].to_le_bytes());
        }
    }
    out
}

/// The two block-run producers; see the module docs for which runs
/// when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    #[cfg(target_arch = "x86_64")]
    Avx2,
    LaneArray,
}

impl Kernel {
    /// The fastest kernel this CPU has.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            return Kernel::Avx2;
        }
        Kernel::LaneArray
    }

    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
            Kernel::LaneArray => "portable",
        }
    }

    /// Fills `out` with the keystream blocks for counters `state[12]`,
    /// `state[12] + 1`, … (wrapping; the caller bounds the counters it
    /// uses).
    fn keystream(self, state: &State, out: &mut [[u8; BLOCK_LEN]]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => avx2::keystream(state, out),
            Kernel::LaneArray => {
                // [`LANES`] blocks per pass while more than one block
                // is left, then the single-block function.
                let mut state = *state;
                for chunk in out.chunks_mut(LANES) {
                    if let [block] = chunk {
                        [*block] = keystream::<1>(&state);
                    } else {
                        chunk.copy_from_slice(&keystream::<LANES>(&state)[..chunk.len()]);
                    }
                    state[12] = state[12].wrapping_add(LANES as u32);
                }
            }
        }
    }

    /// XORs `data` with the keystream from `state`'s counter on,
    /// [`WIDE`] blocks per step.
    fn xor_from(self, mut state: State, data: &mut [u8]) {
        let mut blocks = [[0u8; BLOCK_LEN]; WIDE];
        for chunk in data.chunks_mut(WIDE * BLOCK_LEN) {
            let blocks = &mut blocks[..chunk.len().div_ceil(BLOCK_LEN)];
            self.keystream(&state, blocks);
            xor_bytes(chunk, blocks);
            state[12] = state[12].wrapping_add(WIDE as u32);
        }
    }
}

/// Which block kernel this process's ChaCha20 runs on: `"avx2"` or
/// `"portable"` (the lane-array function). Throughput differs about
/// twofold between the two, so benchmark output names it; nothing can
/// set it.
pub fn backend() -> &'static str {
    Kernel::detect().name()
}

fn xor_bytes(data: &mut [u8], keystream: &[[u8; BLOCK_LEN]]) {
    for (chunk, block) in data.chunks_mut(BLOCK_LEN).zip(keystream) {
        for (b, k) in chunk.iter_mut().zip(block) {
            *b ^= k;
        }
    }
}

/// Fails unless `len` bytes of keystream starting at block
/// `initial_counter` stay inside the 32-bit block counter.
fn check_counter(initial_counter: u32, len: usize) -> Result<()> {
    let blocks_needed = len.div_ceil(BLOCK_LEN) as u64;
    if u64::from(initial_counter) + blocks_needed > u64::from(u32::MAX) + 1 {
        return Err(CryptoError::NonceExhausted);
    }
    Ok(())
}

/// XORs `data` in place with the ChaCha20 keystream for
/// `(key, nonce, initial_counter)`.
///
/// Encryption and decryption are the same operation. The caller is
/// responsible for never reusing a `(key, nonce)` pair; see
/// [`crate::aead`] for how the workspace's callers ensure that.
///
/// # Errors
///
/// Returns [`CryptoError::NonceExhausted`] if `data` is long enough to
/// overflow the 32-bit block counter (≈ 256 GiB), which would wrap the
/// keystream.
pub fn xor_keystream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) -> Result<()> {
    check_counter(initial_counter, data.len())?;
    Kernel::detect().xor_from(init_state(key, nonce, initial_counter), data);
    Ok(())
}

/// Blocks in the head of an [`AeadStream`]: block 0 and the first
/// three of the body, one four-block pass on either kernel.
const HEAD: usize = 4;

/// One `(key, nonce)` keystream as the RFC 8439 AEAD spends it: the
/// first half of block 0 is the one-time Poly1305 key (§2.6), the
/// message body is XORed with blocks 1, 2, … (§2.8).
///
/// Block 0 rides in the same pass as blocks 1 to 3, so sealing or
/// opening a message of up to 192 bytes runs the round function once —
/// not once for the MAC key and again for the body.
pub struct AeadStream {
    kernel: Kernel,
    state: State,
    head: [[u8; BLOCK_LEN]; HEAD],
}

impl AeadStream {
    /// Starts the stream for `(key, nonce)`.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        Self::on(Kernel::detect(), key, nonce)
    }

    fn on(kernel: Kernel, key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        let state = init_state(key, nonce, 0);
        let mut head = [[0u8; BLOCK_LEN]; HEAD];
        kernel.keystream(&state, &mut head);
        AeadStream {
            kernel,
            state,
            head,
        }
    }

    /// The one-time Poly1305 key of this stream.
    pub fn poly1305_key(&self) -> &[u8; 32] {
        self.head[0][..32].try_into().expect("half a block")
    }

    /// XORs `body` with the keystream from block 1 on.
    ///
    /// # Errors
    ///
    /// Same as [`xor_keystream`] with `initial_counter = 1`.
    pub fn xor_body(&self, body: &mut [u8]) -> Result<()> {
        check_counter(1, body.len())?;
        let (first, rest) = body.split_at_mut(body.len().min((HEAD - 1) * BLOCK_LEN));
        xor_bytes(first, &self.head[1..]);
        let mut state = self.state;
        state[12] = HEAD as u32;
        self.kernel.xor_from(state, rest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The RFC's definition of the stream, one block at a time.
    fn xor_single_blocks(state: State, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
            let mut state = state;
            state[12] = state[12].wrapping_add(i as u32);
            xor_bytes(chunk, &keystream::<1>(&state));
        }
    }

    /// Both kernels where the CPU has both — the dispatcher alone
    /// would only ever test the one it selects here.
    fn kernels() -> Vec<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            return vec![Kernel::LaneArray, Kernel::Avx2];
        }
        println!("skipped: no avx2 (lane-array kernel only)");
        vec![Kernel::LaneArray]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Each kernel's wide path equals the single-block oracle at
        /// every length that has 0 to 2 eight-block steps and any
        /// tail, from counters on both sides of a pass boundary and up
        /// against `u32::MAX`.
        #[test]
        fn wide_keystream_matches_the_single_block_oracle(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            fill in any::<u8>(),
        ) {
            for kernel in kernels() {
                for len in 0..=1100usize {
                    let blocks = len.div_ceil(BLOCK_LEN) as u32;
                    let last_fit = (u32::MAX - blocks).wrapping_add(1); // ends on block u32::MAX
                    let (lanes, wide) = (LANES as u32, WIDE as u32);
                    for counter in [0, 1, lanes - 1, lanes, lanes + 1, wide - 1, wide, last_fit] {
                        let mut out = vec![fill; len];
                        let mut single = out.clone();
                        let state = init_state(&key, &nonce, counter);
                        kernel.xor_from(state, &mut out);
                        xor_single_blocks(state, &mut single);
                        prop_assert!(out == single, "{:?} len {} counter {}", kernel, len, counter);
                    }
                }
            }
        }

        /// The AEAD's view of the stream is the plain one on each
        /// kernel: key from block 0, body from block 1.
        #[test]
        fn aead_stream_is_block_0_then_the_stream_from_block_1(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
        ) {
            let [block0] = keystream::<1>(&init_state(&key, &nonce, 0));
            for kernel in kernels() {
                for len in [0usize, 1, 63, 64, 145, 191, 192, 193, 256, 449, 704, 705, 1100] {
                    let stream = AeadStream::on(kernel, &key, &nonce);
                    prop_assert_eq!(&stream.poly1305_key()[..], &block0[..32]);
                    let mut body = vec![0x5au8; len];
                    let mut plain = body.clone();
                    stream.xor_body(&mut body).unwrap();
                    xor_single_blocks(init_state(&key, &nonce, 1), &mut plain);
                    prop_assert!(body == plain, "{:?} len {}", kernel, len);
                }
            }
        }
    }

    /// The dispatcher's answer is one of the two names and agrees with
    /// what the CPU reports.
    #[test]
    fn backend_names_the_detected_kernel() {
        assert_eq!(backend(), kernels().last().unwrap().name());
    }

    /// Run by name in CI's `benchmark-smoke` job (`--release -- --ignored`):
    /// wall-clock ratios do not belong in the default suite.
    #[test]
    #[ignore = "timing; run with --release -- --ignored"]
    fn avx2_keystream_is_at_least_1_5x_the_lane_array_one() {
        let kernels = kernels();
        let [lane_array, avx2] = kernels[..] else {
            return;
        };
        let state = init_state(&[7; 32], &[9; 12], 1);
        let best_of = |kernel: Kernel| {
            let mut data = vec![0x5au8; 1 << 20];
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    kernel.xor_from(state, std::hint::black_box(&mut data));
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let (hardware, portable) = (best_of(avx2), best_of(lane_array));
        println!("1 MiB: avx2 {hardware:?}, lane-array {portable:?}");
        assert!(hardware * 3 <= portable * 2, "{hardware:?} vs {portable:?}");
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc7539_block_test_vector() {
        // RFC 8439 §2.3.2
        let key: Vec<u8> = (0..32u8).collect();
        let mut key_arr = [0u8; 32];
        key_arr.copy_from_slice(&key);
        let nonce = hex("000000090000004a00000000");
        let mut nonce_arr = [0u8; 12];
        nonce_arr.copy_from_slice(&nonce);

        let state = init_state(&key_arr, &nonce_arr, 1);
        let [block] = keystream::<1>(&state);
        let expected = hex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(&block[..], &expected[..]);
        for kernel in kernels() {
            let mut run = [[0u8; BLOCK_LEN]; 1];
            kernel.keystream(&state, &mut run);
            assert_eq!(&run[0][..], &expected[..], "{kernel:?}");
        }
    }

    #[test]
    fn rfc7539_encryption_test_vector() {
        // RFC 8439 §2.4.2
        let key: Vec<u8> = (0..32u8).collect();
        let mut key_arr = [0u8; 32];
        key_arr.copy_from_slice(&key);
        let nonce = hex("000000000000004a00000000");
        let mut nonce_arr = [0u8; 12];
        nonce_arr.copy_from_slice(&nonce);

        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        xor_keystream(&key_arr, &nonce_arr, 1, &mut data).unwrap();
        let expected = hex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn roundtrip() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let plaintext = b"some payload that spans more than one 64-byte chacha block to exercise the chunk loop properly".to_vec();
        let mut buf = plaintext.clone();
        xor_keystream(&key, &nonce, 0, &mut buf).unwrap();
        assert_ne!(buf, plaintext);
        xor_keystream(&key, &nonce, 0, &mut buf).unwrap();
        assert_eq!(buf, plaintext);
    }

    #[test]
    fn counter_overflow_rejected() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        let mut data = vec![0u8; 128];
        assert_eq!(
            xor_keystream(&key, &nonce, u32::MAX, &mut data),
            Err(CryptoError::NonceExhausted)
        );
    }

    #[test]
    fn empty_data_is_noop() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut data: Vec<u8> = vec![];
        xor_keystream(&key, &nonce, 0, &mut data).unwrap();
        assert!(data.is_empty());
    }

    #[test]
    fn different_counters_differ() {
        let key = [7u8; 32];
        let nonce = [8u8; 12];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        xor_keystream(&key, &nonce, 0, &mut a).unwrap();
        xor_keystream(&key, &nonce, 1, &mut b).unwrap();
        assert_ne!(a, b);
    }
}
