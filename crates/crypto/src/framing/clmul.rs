//! CRC-32 by carry-less multiplication (`pclmulqdq`).
//!
//! One of the four modules in the workspace's library crates that
//! contain `unsafe` (the others are `sha256::shani`, `chacha20::avx2`
//! and `gcm::aesni`), and fenced exactly like them: the crate root says
//! `#![deny(unsafe_code)]`, the `mod` line for this file carries its
//! own `#[allow(unsafe_code)]`, and `tests/architecture.rs` checks that
//! the set stays exactly those four files. The `unsafe` is there for two
//! things safe Rust has no operation for: executing instructions the
//! build target does not guarantee (`pclmulqdq`, SSE4.1's `pextrd`),
//! and the unaligned 16-byte loads that feed them.
//!
//! The fence is two safe functions. [`available`] asks the CPU (std
//! caches the `cpuid` answer in an atomic, so it costs a load);
//! [`update`] checks it and only then makes the single `unsafe` call
//! into the `#[target_feature]` body. Nothing here reads through a
//! pointer that did not come from a bounds-checked 16-byte chunk of
//! the caller's slice.
//!
//! **The method** is Gopal et al., *Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction* (Intel, 2009), in its
//! bit-reflected form. The message is a polynomial over GF(2); a
//! 128-bit lane `x` that stands `d` bits ahead of the lane `y` it is
//! folded into satisfies `x · x^d ≡ x.lo · (x^(d+32) mod P) ⊕ x.hi ·
//! (x^(d−32) mod P)`, two carry-less multiplications by constants. Four
//! lanes in flight fold 512 bits ahead per 64-byte step (`K1`, `K2`),
//! which is what hides the multiplier's latency; the four are then
//! folded 128 bits at a time into one (`K3`, `K4`), as is every
//! remaining 16-byte chunk; the last lane goes 128 → 64 bits (`K4`),
//! 64 → 32 bits (`K5`), and through a Barrett reduction (`μ`, `P`) to
//! the 32-bit register. The constants belong to the polynomial, not to
//! this code: `the_fold_constants_are_the_polynomials` in the parent
//! module recomputes each from `x^n mod P` bit by bit.
//!
//! **A real SGX port** reads the feature bits the SDK caches at
//! enclave initialisation instead of executing `cpuid`, exactly as
//! `sha256::shani` says. The checksum is not a security boundary on
//! either side of the enclave — the seal is — so a host that lies
//! about the bits can make the enclave fault or take the table kernel,
//! never accept a different frame.

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// `x^(4·128+32) mod P` and `x^(4·128−32) mod P`, reflected and shifted
/// left by one: fold a lane 512 bits ahead.
pub(super) const K1: i64 = 0x1_5444_2bd4;
pub(super) const K2: i64 = 0x1_c6e4_1596;
/// `x^(128+32) mod P` and `x^(128−32) mod P`: fold a lane 128 bits
/// ahead.
pub(super) const K3: i64 = 0x1_7519_97d0;
pub(super) const K4: i64 = 0x0_ccaa_009e;
/// `x^64 mod P`: the last 64 → 32 bit fold.
pub(super) const K5: i64 = 0x1_63cd_6124;
/// The generator polynomial `P` (33 bits, reflected) and `μ = ⌊x^64 /
/// P⌋` (reflected), the Barrett pair.
pub(super) const P: i64 = 0x1_db71_0641;
pub(super) const MU: i64 = 0x1_f701_1641;

/// Bytes per step of the four-lane loop, and the least [`update`]
/// takes: four lanes must be loaded before anything can be folded.
pub(super) const STEP: usize = 64;
/// Bytes per lane: [`update`] takes whole lanes only.
pub(super) const LANE: usize = 16;

/// Whether this CPU has every instruction set [`update`] executes.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("sse4.1")
}

/// Advances the raw CRC register `crc` (no inversion on the way in or
/// out) over `lanes`, at least [`STEP`] bytes and a whole number of
/// [`LANE`]s.
///
/// # Panics
///
/// If the CPU lacks the extensions ([`available`] is `false`) or
/// `lanes` has another length — both are bugs in the dispatcher, not
/// conditions input can reach.
pub(super) fn update(crc: u32, lanes: &[u8]) -> u32 {
    assert!(available(), "CLMUL kernel called without the extensions");
    assert!(
        lanes.len() >= STEP && lanes.len() % LANE == 0,
        "CLMUL kernel called with {} bytes",
        lanes.len()
    );
    // SAFETY: `available()` just confirmed that the CPU implements
    // every feature named in `update_clmul`'s `target_feature`
    // attribute, and the length its loads rely on was asserted above.
    unsafe { update_clmul(crc, lanes) }
}

/// One 16-byte lane of a chunk `chunks_exact(LANE)` (or an index into
/// a 64-byte one) just bounds-checked.
macro_rules! load {
    ($bytes:expr) => {
        _mm_loadu_si128($bytes.as_ptr().cast::<__m128i>())
    };
}

/// `$x` folded ahead by the distance `$k` = `(lo, hi)` constants
/// stands for, onto `$onto`.
macro_rules! fold {
    ($x:expr, $k:expr, $onto:expr) => {{
        let x = $x;
        _mm_xor_si128(
            _mm_xor_si128(
                _mm_clmulepi64_si128(x, $k, 0x00),
                _mm_clmulepi64_si128(x, $k, 0x11),
            ),
            $onto,
        )
    }};
}

/// # Safety
///
/// The CPU must implement `pclmulqdq`, `sse2` and `sse4.1`.
/// `lanes.len()` must be at least 64 and a multiple of 16 (the split
/// below would panic on less, a trailing partial lane would be
/// ignored; neither reads out of bounds).
#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
unsafe fn update_clmul(crc: u32, lanes: &[u8]) -> u32 {
    let (first, rest) = lanes.split_at(STEP);
    // The register is the polynomial's highest terms so far: it goes
    // onto the first four message bytes.
    let mut x0 = _mm_xor_si128(load!(first[..LANE]), _mm_cvtsi32_si128(crc as i32));
    let mut x1 = load!(first[LANE..2 * LANE]);
    let mut x2 = load!(first[2 * LANE..3 * LANE]);
    let mut x3 = load!(first[3 * LANE..]);

    let by_512 = _mm_set_epi64x(K2, K1);
    let mut steps = rest.chunks_exact(STEP);
    for step in &mut steps {
        x0 = fold!(x0, by_512, load!(step[..LANE]));
        x1 = fold!(x1, by_512, load!(step[LANE..2 * LANE]));
        x2 = fold!(x2, by_512, load!(step[2 * LANE..3 * LANE]));
        x3 = fold!(x3, by_512, load!(step[3 * LANE..]));
    }

    // 4 → 1 lane, then whatever whole lanes are left.
    let by_128 = _mm_set_epi64x(K4, K3);
    let mut x = fold!(x0, by_128, x1);
    x = fold!(x, by_128, x2);
    x = fold!(x, by_128, x3);
    for lane in steps.remainder().chunks_exact(LANE) {
        x = fold!(x, by_128, load!(lane));
    }

    // 128 → 64: the low half, 64 bits ahead of the high one, times
    // K4 (which also appends the 32 zero bits the CRC is defined
    // over); 64 → 32: the low word of that times K5.
    let low32 = _mm_set_epi64x(0, 0xffff_ffff);
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_128, 0x10), _mm_srli_si128(x, 8));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );

    // Barrett: the quotient estimate from μ, times P, cancels the low
    // word; the remainder is left in the second.
    let mu_p = _mm_set_epi64x(MU, P);
    let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
    let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
    _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32
}
