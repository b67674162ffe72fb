//! The ChaCha20 block function on AVX2.
//!
//! One of the three modules in the workspace's library crates that
//! contain `unsafe` (the others are `sha256::shani` and `lcm_storage`'s
//! `framing::clmul`): the crate root says
//! `#![deny(unsafe_code)]`, the `mod` line for this file carries its
//! own `#[allow(unsafe_code)]`, and CI's lint job greps that the set
//! stays exactly those three files. The `unsafe` is there for two things
//! safe Rust has no operation for: executing instructions the build
//! target does not guarantee (256-bit integer adds, shifts and
//! `vpshufb`), and the unaligned 16- and 32-byte loads and stores
//! around them.
//!
//! The fence is two safe functions. [`available`] asks the CPU (std
//! caches the `cpuid` answer in an atomic, so it costs a load);
//! [`keystream`] checks it and only then makes the single `unsafe`
//! call into the `#[target_feature]` body. Nothing here reads or
//! writes through a pointer that did not come from the 16-word state
//! array or a slice of whole 64-byte blocks whose length the loop
//! around it just established.
//!
//! **Layout.** A `ymm` register holds one *row* (four words) of two
//! consecutive blocks, one per 128-bit lane, so a quarter round on
//! four registers is the column round of two blocks at once and three
//! in-lane `vpshufd` turn diagonals into columns. The 16- and 8-bit
//! rotates are one `vpshufb` each; 12 and 7 are shift-shift-or. Two
//! such register sets in flight make the four-block pass that
//! [`super::AeadStream`] spends on every message (block 0 keys
//! Poly1305, blocks 1–3 cover a body of up to 192 bytes); four sets
//! make the eight-block pass of the bulk stream.
//!
//! **A real SGX port** reads the feature bits the SDK caches at
//! enclave initialisation instead of executing `cpuid`, exactly as
//! `sha256::shani` says; a host that lies about them can make the
//! enclave fault or take the lane-array kernel, never produce a
//! different keystream.

use core::hint::black_box;

use core::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi32, _mm256_broadcastsi128_si256, _mm256_or_si256,
    _mm256_permute2x128_si256, _mm256_set_epi32, _mm256_set_epi64x, _mm256_shuffle_epi32,
    _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256,
    _mm256_xor_si256, _mm_loadu_si128,
};

use super::{State, BLOCK_LEN};

/// Whether this CPU has every instruction set [`keystream`] executes.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Fills `out` with the keystream blocks for counters `state[12]`,
/// `state[12] + 1`, … (wrapping; the caller bounds the counters it
/// uses): eight blocks per pass, then four at a time for what is left.
///
/// # Panics
///
/// If the CPU lacks AVX2 ([`available`] is `false`) — a bug in the
/// dispatcher, not a condition input can reach.
pub(super) fn keystream(state: &State, out: &mut [[u8; BLOCK_LEN]]) {
    assert!(available(), "AVX2 kernel called without the extension");
    // SAFETY: `available()` just confirmed that the CPU implements the
    // one feature named in `keystream_avx2`'s `target_feature`
    // attribute, which is that function's only requirement.
    unsafe { keystream_avx2(state, out) }
}

/// `x <<< n` for the two rotates that are not a whole number of bytes.
macro_rules! rotl {
    ($x:expr, $n:literal) => {{
        let x = $x;
        _mm256_or_si256(_mm256_slli_epi32(x, $n), _mm256_srli_epi32(x, 32 - $n))
    }};
}

/// The quarter round on whole rows, for every register set named: one
/// column round (or, on diagonalised rows, one diagonal round) of two
/// blocks per set. Each step is spelled for all sets before the next
/// step, which is the order the independent chains can overlap in.
macro_rules! row_round {
    ($rot16:ident, $rot8:ident; $(($a:ident, $b:ident, $c:ident, $d:ident)),+) => {
        $( $a = _mm256_add_epi32($a, $b); )+
        $( $d = _mm256_shuffle_epi8(_mm256_xor_si256($d, $a), $rot16); )+
        $( $c = _mm256_add_epi32($c, $d); )+
        $( $b = rotl!(_mm256_xor_si256($b, $c), 12); )+
        $( $a = _mm256_add_epi32($a, $b); )+
        $( $d = _mm256_shuffle_epi8(_mm256_xor_si256($d, $a), $rot8); )+
        $( $c = _mm256_add_epi32($c, $d); )+
        $( $b = rotl!(_mm256_xor_si256($b, $c), 7); )+
    };
}

/// Column round, turn the diagonals into columns, diagonal round, turn
/// back. Row `b` — the last value a round produces and the first the
/// next one consumes — stays where it is; rows `a`, `c` and `d`, each
/// finished a few steps before `b`, are rotated around it (by three,
/// one and two words), so the shuffles run beside the end of the round
/// instead of between two rounds.
macro_rules! double_round {
    ($rot16:ident, $rot8:ident; $(($a:ident, $b:ident, $c:ident, $d:ident)),+) => {
        row_round!($rot16, $rot8; $(($a, $b, $c, $d)),+);
        $(
            $a = _mm256_shuffle_epi32($a, 0x93);
            $c = _mm256_shuffle_epi32($c, 0x39);
            $d = _mm256_shuffle_epi32($d, 0x4E);
        )+
        row_round!($rot16, $rot8; $(($a, $b, $c, $d)),+);
        $(
            $a = _mm256_shuffle_epi32($a, 0x39);
            $c = _mm256_shuffle_epi32($c, 0x93);
            $d = _mm256_shuffle_epi32($d, 0x4E);
        )+
    };
}

/// Adds the input rows back and writes the set's two blocks — the low
/// lanes of the four rows, then the high lanes — to the 128 bytes at
/// `$to` (a `*mut __m256i`).
macro_rules! store_pair {
    ($to:expr, ($a:ident, $b:ident, $c:ident, $d:ident), ($a_in:ident, $b_in:ident, $c_in:ident, $d_in:ident)) => {{
        let to: *mut __m256i = $to;
        let a = _mm256_add_epi32($a, $a_in);
        let b = _mm256_add_epi32($b, $b_in);
        let c = _mm256_add_epi32($c, $c_in);
        let d = _mm256_add_epi32($d, $d_in);
        _mm256_storeu_si256(to, _mm256_permute2x128_si256(a, b, 0x20));
        _mm256_storeu_si256(to.add(1), _mm256_permute2x128_si256(c, d, 0x20));
        _mm256_storeu_si256(to.add(2), _mm256_permute2x128_si256(a, b, 0x31));
        _mm256_storeu_si256(to.add(3), _mm256_permute2x128_si256(c, d, 0x31));
    }};
}

/// # Safety
///
/// The CPU must implement `avx2`.
#[target_feature(enable = "avx2")]
unsafe fn keystream_avx2(state: &State, out: &mut [[u8; BLOCK_LEN]]) {
    // Byte shuffles that rotate every 32-bit word left by 16 and by 8.
    // Opaque to the optimiser on purpose: given the constants, LLVM
    // splits the first into `vpshuflw` + `vpshufhw` and folds the
    // diagonalising `vpshufd`s into the next byte shuffle by applying
    // it to both operands of the `xor` before it — more shuffles on
    // the one port that executes them, for the same result (measured
    // on a 2.1 GHz Xeon: the four-block pass ≈ 205 ns that way,
    // ≈ 192 ns this way; the eight-block pass the same either way).
    let rot16 = black_box(_mm256_set_epi64x(
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
    ));
    let rot8 = black_box(_mm256_set_epi64x(
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
    ));

    // Each input row in both lanes; row `d`'s high lane counts one
    // block ahead of its low lane.
    let rows: *const __m128i = state.as_ptr().cast();
    let a_in = _mm256_broadcastsi128_si256(_mm_loadu_si128(rows));
    let b_in = _mm256_broadcastsi128_si256(_mm_loadu_si128(rows.add(1)));
    let c_in = _mm256_broadcastsi128_si256(_mm_loadu_si128(rows.add(2)));
    let mut d_in = _mm256_add_epi32(
        _mm256_broadcastsi128_si256(_mm_loadu_si128(rows.add(3))),
        _mm256_set_epi32(0, 0, 0, 1, 0, 0, 0, 0),
    );
    let two_blocks = _mm256_set_epi32(0, 0, 0, 2, 0, 0, 0, 2);

    let mut eights = out.chunks_exact_mut(8);
    for eight in &mut eights {
        let d0_in = d_in;
        let d1_in = _mm256_add_epi32(d0_in, two_blocks);
        let d2_in = _mm256_add_epi32(d1_in, two_blocks);
        let d3_in = _mm256_add_epi32(d2_in, two_blocks);
        d_in = _mm256_add_epi32(d3_in, two_blocks);
        let (mut a0, mut b0, mut c0, mut d0) = (a_in, b_in, c_in, d0_in);
        let (mut a1, mut b1, mut c1, mut d1) = (a_in, b_in, c_in, d1_in);
        let (mut a2, mut b2, mut c2, mut d2) = (a_in, b_in, c_in, d2_in);
        let (mut a3, mut b3, mut c3, mut d3) = (a_in, b_in, c_in, d3_in);
        for _ in 0..10 {
            double_round!(rot16, rot8;
                (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3));
        }
        // `eight` is exactly eight blocks: sixteen 32-byte stores.
        let to: *mut __m256i = eight.as_mut_ptr().cast();
        store_pair!(to, (a0, b0, c0, d0), (a_in, b_in, c_in, d0_in));
        store_pair!(to.add(4), (a1, b1, c1, d1), (a_in, b_in, c_in, d1_in));
        store_pair!(to.add(8), (a2, b2, c2, d2), (a_in, b_in, c_in, d2_in));
        store_pair!(to.add(12), (a3, b3, c3, d3), (a_in, b_in, c_in, d3_in));
    }

    for rest in eights.into_remainder().chunks_mut(4) {
        let d0_in = d_in;
        let d1_in = _mm256_add_epi32(d0_in, two_blocks);
        d_in = _mm256_add_epi32(d1_in, two_blocks);
        let (mut a0, mut b0, mut c0, mut d0) = (a_in, b_in, c_in, d0_in);
        let (mut a1, mut b1, mut c1, mut d1) = (a_in, b_in, c_in, d1_in);
        for _ in 0..10 {
            double_round!(rot16, rot8; (a0, b0, c0, d0), (a1, b1, c1, d1));
        }
        // The pass always yields four blocks: straight into `rest`
        // when it wants all four, through a spare otherwise.
        let mut four = [[0u8; BLOCK_LEN]; 4];
        let whole = rest.len() == 4;
        let to: *mut __m256i = if whole {
            rest.as_mut_ptr()
        } else {
            four.as_mut_ptr()
        }
        .cast();
        store_pair!(to, (a0, b0, c0, d0), (a_in, b_in, c_in, d0_in));
        store_pair!(to.add(4), (a1, b1, c1, d1), (a_in, b_in, c_in, d1_in));
        if !whole {
            rest.copy_from_slice(&four[..rest.len()]);
        }
    }
}
