//! The SHA-256 compression function on the x86-64 SHA extensions.
//!
//! One of the four modules in the workspace's library crates that
//! contain `unsafe` (the others are `chacha20::avx2`,
//! `framing::clmul` and `gcm::aesni`): the crate root
//! says `#![deny(unsafe_code)]`, the `mod` line for this file carries
//! its own `#[allow(unsafe_code)]`, and `tests/architecture.rs` checks
//! that the set stays exactly those four files. The `unsafe` is
//! there for two things safe Rust has no operation for: executing
//! instructions the build target does not guarantee (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`, plus the SSSE3 / SSE4.1 shuffles around
//! them), and the unaligned 16-byte loads that feed them.
//!
//! The fence is two safe functions. [`available`] asks the CPU (std
//! caches the `cpuid` answer in an atomic, so it costs a load);
//! [`compress_blocks`] checks it and only then makes the single
//! `unsafe` call into the `#[target_feature]` body. Nothing here
//! reads or writes through a pointer that did not come from a
//! bounds-checked 64-byte slice or the 64-entry constant table.
//!
//! **A real SGX port** must not execute `cpuid` inside the enclave (it
//! is an illegal instruction there and faults): it would dispatch on
//! the feature bits the SDK caches at enclave initialisation, which
//! the untrusted runtime reads outside and passes in. A host that lies
//! about them can make the enclave fault or take the slower kernel,
//! never compute a different digest. The simulator runs enclave code
//! as ordinary host code, so nothing is built for it.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::{BLOCK_LEN, K};

/// Whether this CPU has every instruction set [`compress_blocks`]
/// executes.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Runs the compression function over every whole 64-byte block of
/// `blocks`, in order, updating `state`.
///
/// # Panics
///
/// If the CPU lacks the extensions ([`available`] is `false`) or
/// `blocks` is not a whole number of blocks — both are bugs in the
/// dispatcher, not conditions input can reach.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(available(), "SHA-NI kernel called without the extensions");
    assert_eq!(blocks.len() % BLOCK_LEN, 0, "partial SHA-256 block");
    // SAFETY: `available()` just confirmed that the CPU implements
    // every feature named in `compress_blocks_sha`'s `target_feature`
    // attribute, which is that function's only requirement.
    unsafe { compress_blocks_sha(state, blocks) }
}

/// Four rounds: `$w` holds the four schedule words, `$i` is the index
/// of the first. `sha256rnds2` does two rounds from the low two lanes
/// of its third operand and hands back the *other* half of the state,
/// so the two calls alternate which register they update.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add($i).cast()));
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// The next four schedule words from the previous sixteen
/// (`$w0` oldest … `$w3` newest), stored over `$w0`, then their four
/// rounds. `msg1` adds σ0 of the following word to each of `$w0`'s,
/// the `alignr` supplies `w[t-7]`, `msg2` adds σ1 of `w[t-2]`.
macro_rules! schedule_rounds4 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
        $w0 = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
            $w3,
        );
        rounds4!($abef, $cdgh, $w0, $i);
    }};
}

/// # Safety
///
/// The CPU must implement `sha`, `sse2`, `ssse3` and `sse4.1`.
/// `blocks.len()` must be a multiple of 64 (a trailing partial block
/// would be ignored, not read past).
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian words → lanes, for `pshufb`.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // Pack once: the instruction wants {a,b,e,f} and {c,d,g,h}, each
    // with its first word in the highest lane.
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p: *const __m128i = block.as_ptr().cast();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), be_words);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be_words);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be_words);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be_words);

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 4);
        rounds4!(abef, cdgh, w2, 8);
        rounds4!(abef, cdgh, w3, 12);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 16);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 20);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 24);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 28);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 32);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 36);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 40);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 44);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 48);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 52);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 56);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 60);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Unpack once.
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}
