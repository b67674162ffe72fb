//! AES-128-GCM on AES-NI and PCLMULQDQ.
//!
//! One of the four modules in the workspace's library crates that
//! contain `unsafe` (the others are `sha256::shani`, `chacha20::avx2`
//! and `framing::clmul`), and fenced exactly like them: the crate root says
//! `#![deny(unsafe_code)]`, the `mod` line for this file carries its
//! own `#[allow(unsafe_code)]`, and `tests/architecture.rs` checks that
//! the set stays exactly those four files. The `unsafe` is there for
//! two things safe Rust has no operation for: executing instructions
//! the build target does not guarantee (`aesenc`, `pclmulqdq`,
//! SSSE3's `pshufb`), and the unaligned 16-byte loads and stores that
//! feed them.
//!
//! The fence is four safe functions. [`available`] asks the CPU (std
//! caches the `cpuid` answer in an atomic, so it costs a load);
//! [`expand`], [`seal`] and [`open`] each check it and only then make
//! their single `unsafe` call into a `#[target_feature]` body (a fifth,
//! test-only `ctr` runs the raw block function for FIPS-197's vector).
//! Nothing here reads or writes through a pointer that did not come
//! from a bounds-checked 16-byte chunk or a 16-byte array.
//!
//! **Key setup** ([`expand`]) runs the AES-128 schedule on
//! `aeskeygenassist`, encrypts the zero block for `H` and multiplies
//! out `H² … H⁸` — once per key, so a client's key costs about as much
//! as the HKDF that derives it.
//!
//! **Counter mode** encrypts up to twelve counter blocks per pass,
//! their `aesenc` rounds interleaved so the independent chains hide
//! the instruction's latency. A message's first pass is `J₀` — the
//! tag's mask — with the first eleven body blocks, four, eight or
//! twelve wide, so a channel message (82 B or 166 B) takes one pass;
//! the rest of a longer body goes eight blocks per step. [`open`]
//! runs that first pass beside GHASH and applies it only once the tag
//! has matched: verify, then decrypt, with one pass of AES.
//!
//! **GHASH** follows Gueron and Kounavis (*Intel Carry-Less
//! Multiplication Instruction and its Usage for Computing the GCM
//! Mode*, rev. 2.02): blocks are byte-swapped into registers, so the
//! polynomial product of two of them is the bit-reflected product
//! shifted right by one, which a one-bit left shift of the 256-bit
//! result repairs before the reduction modulo `x¹²⁸ + x⁷ + x² + x + 1`.
//! *Aggregated reduction* absorbs up to eight blocks per reduction:
//! `y ← (y ⊕ X₁)·Hⁿ ⊕ X₂·Hⁿ⁻¹ ⊕ … ⊕ Xₙ·H`, the 256-bit products summed
//! unreduced (the reduction is linear), from powers of `H` the key
//! computed once. AAD, ciphertext and the lengths block go through as
//! one stream of blocks, so a 166 B INVOKE under its 34 B AAD takes
//! two reductions.
//!
//! **A real SGX port** reads the feature bits the SDK caches at
//! enclave initialisation instead of executing `cpuid`, exactly as
//! `sha256::shani` says. A host that lies about the bits can make the
//! enclave fault or take the portable kernel, whose ciphertexts and
//! tags are the same bytes.

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_loadu_si128, _mm_or_si128, _mm_set_epi64x, _mm_setr_epi8,
    _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_epi32, _mm_slli_si128,
    _mm_srli_epi32, _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use super::{counter_block, RoundKeys, BLOCK_LEN, H_POWERS};

/// Blocks per step of the counter-mode loop and per reduction of
/// GHASH.
const WIDE: usize = 8;

/// Counter blocks of a message's first AES pass: `J₀` — the tag's mask
/// — and the first eleven body blocks, the whole of a 166 B INVOKE.
const HEAD: usize = 12;

/// Whether this CPU has every instruction set [`expand`], [`seal`] and
/// [`open`] execute.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
}

/// The AES-128 key schedule of `key` (`aeskeygenassist`) and the
/// powers `H¹ … H⁸` of its GHASH key `H = E_K(0¹²⁸)`, each block read
/// big-endian.
///
/// # Panics
///
/// If the CPU lacks the extensions ([`available`] is `false`) — a bug
/// in the dispatcher, not a condition input can reach.
pub(super) fn expand(key: &[u8; BLOCK_LEN]) -> (RoundKeys, [u128; H_POWERS]) {
    assert!(available(), "AES-NI kernel called without the extensions");
    // SAFETY: `available()` just confirmed that the CPU implements
    // every feature named in `expand_aesni`'s `target_feature`
    // attribute.
    unsafe { expand_aesni(key) }
}

/// XORs `data` with the counter-mode keystream of `nonce` from block
/// `counter` on: the AES block function, for the FIPS-197 vector.
///
/// # Panics
///
/// As [`expand`].
#[cfg(test)]
pub(super) fn ctr(round_keys: &RoundKeys, nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
    assert!(available(), "AES-NI kernel called without the extensions");
    // SAFETY: as in `expand`, for `ctr_aesni`'s features.
    unsafe { ctr_aesni(round_keys, nonce, counter, data) }
}

/// Encrypts `body` in place (counter mode from block 2) and returns
/// the tag over `aad` and the ciphertext, from the key's powers of `H`
/// (`h_powers[i]` is `H^(i+1)`).
///
/// # Panics
///
/// As [`expand`].
pub(super) fn seal(
    round_keys: &RoundKeys,
    h_powers: &[u128; H_POWERS],
    nonce: &[u8; 12],
    aad: &[u8],
    body: &mut [u8],
) -> [u8; BLOCK_LEN] {
    assert!(available(), "AES-NI kernel called without the extensions");
    // SAFETY: as in `expand`, for `seal_aesni`'s features.
    unsafe { seal_aesni(round_keys, h_powers, nonce, aad, body) }
}

/// Recomputes the tag over `aad` and the ciphertext `body`, compares
/// it with `tag` in constant time and, only if they match, decrypts
/// `body` in place. Returns whether it matched; `body` is untouched
/// when it did not.
///
/// # Panics
///
/// As [`expand`].
pub(super) fn open(
    round_keys: &RoundKeys,
    h_powers: &[u128; H_POWERS],
    nonce: &[u8; 12],
    aad: &[u8],
    body: &mut [u8],
    tag: &[u8],
) -> bool {
    assert!(available(), "AES-NI kernel called without the extensions");
    // SAFETY: as in `expand`, for `open_aesni`'s features.
    unsafe { open_aesni(round_keys, h_powers, nonce, aad, body, tag) }
}

/// A 16-byte chunk or array just bounds-checked, into a register.
macro_rules! load {
    ($bytes:expr) => {
        _mm_loadu_si128($bytes.as_ptr().cast::<__m128i>())
    };
}

/// # Safety
///
/// The CPU must implement `aes`, `pclmulqdq`, `sse2` and `ssse3`.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3")]
unsafe fn seal_aesni(
    round_keys: &RoundKeys,
    h_powers: &[u128; H_POWERS],
    nonce: &[u8; 12],
    aad: &[u8],
    body: &mut [u8],
) -> [u8; BLOCK_LEN] {
    let keys = schedule(round_keys);
    let (head, rest) = body.split_at_mut(body.len().min((HEAD - 1) * BLOCK_LEN));
    let stream = head_stream(&keys, nonce, head.len());
    xor_stream(head, &stream[1..]);
    ctr_keys(&keys, nonce, HEAD as u32 + 1, rest);
    finish_tag(h_powers, aad, body, stream[0])
}

/// # Safety
///
/// As [`seal_aesni`].
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3")]
unsafe fn open_aesni(
    round_keys: &RoundKeys,
    h_powers: &[u128; H_POWERS],
    nonce: &[u8; 12],
    aad: &[u8],
    body: &mut [u8],
    tag: &[u8],
) -> bool {
    let keys = schedule(round_keys);
    // The head's keystream is independent of GHASH, so its rounds
    // overlap the multiplications; it is applied only after the
    // comparison.
    let head_len = body.len().min((HEAD - 1) * BLOCK_LEN);
    let stream = head_stream(&keys, nonce, head_len);
    let expected = finish_tag(h_powers, aad, body, stream[0]);
    if !crate::ct::ct_eq(&expected, tag) {
        return false;
    }
    let (head, rest) = body.split_at_mut(head_len);
    xor_stream(head, &stream[1..]);
    ctr_keys(&keys, nonce, HEAD as u32 + 1, rest);
    true
}

/// The encryptions of counter blocks 1 … [`HEAD`] — `J₀` and the body
/// blocks a `head_len`-byte head needs — in one pass four, eight or
/// twelve wide; blocks past the head are left zero.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "aes,sse2")]
unsafe fn head_stream(keys: &[__m128i; 11], nonce: &[u8; 12], head_len: usize) -> [__m128i; HEAD] {
    let mut stream = [_mm_setzero_si128(); HEAD];
    match 1 + head_len.div_ceil(BLOCK_LEN) {
        0..=4 => stream[..4].copy_from_slice(&keystream::<4>(keys, nonce, 1)),
        5..=8 => stream[..8].copy_from_slice(&keystream::<8>(keys, nonce, 1)),
        _ => stream = keystream::<HEAD>(keys, nonce, 1),
    }
    stream
}

/// XORs `data` with `stream`, block by block; a partial last block
/// takes the first bytes of its keystream block.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn xor_stream(data: &mut [u8], stream: &[__m128i]) {
    let mut blocks = data.chunks_exact_mut(BLOCK_LEN);
    let mut stream = stream.iter();
    for (block, k) in (&mut blocks).zip(&mut stream) {
        _mm_storeu_si128(
            block.as_mut_ptr().cast::<__m128i>(),
            _mm_xor_si128(load!(block), *k),
        );
    }
    let tail = blocks.into_remainder();
    if let (false, Some(k)) = (tail.is_empty(), stream.next()) {
        let mut bytes = [0u8; BLOCK_LEN];
        _mm_storeu_si128(bytes.as_mut_ptr().cast::<__m128i>(), *k);
        for (b, k) in tail.iter_mut().zip(bytes) {
            *b ^= k;
        }
    }
}

/// One round of the AES-128 key schedule: each of `$key`'s words XOR
/// all before it (two shifted XORs), then XOR
/// `SubWord(RotWord(last word)) ⊕ $rcon` in every word — what
/// `aeskeygenassist` leaves in its top word.
macro_rules! next_round_key {
    ($key:expr, $rcon:literal) => {{
        let key = $key;
        let assist = _mm_shuffle_epi32(_mm_aeskeygenassist_si128(key, $rcon), 0xff);
        let key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
        _mm_xor_si128(_mm_xor_si128(key, _mm_slli_si128(key, 8)), assist)
    }};
}

/// # Safety
///
/// The CPU must implement `aes`, `pclmulqdq`, `sse2` and `ssse3`.
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3")]
unsafe fn expand_aesni(key: &[u8; BLOCK_LEN]) -> (RoundKeys, [u128; H_POWERS]) {
    let k0 = load!(key);
    let k1 = next_round_key!(k0, 0x01);
    let k2 = next_round_key!(k1, 0x02);
    let k3 = next_round_key!(k2, 0x04);
    let k4 = next_round_key!(k3, 0x08);
    let k5 = next_round_key!(k4, 0x10);
    let k6 = next_round_key!(k5, 0x20);
    let k7 = next_round_key!(k6, 0x40);
    let k8 = next_round_key!(k7, 0x80);
    let k9 = next_round_key!(k8, 0x1b);
    let keys = [
        k0,
        k1,
        k2,
        k3,
        k4,
        k5,
        k6,
        k7,
        k8,
        k9,
        next_round_key!(k9, 0x36),
    ];
    let mut round_keys = [[0u8; BLOCK_LEN]; 11];
    for (bytes, k) in round_keys.iter_mut().zip(keys) {
        _mm_storeu_si128(bytes.as_mut_ptr().cast::<__m128i>(), k);
    }

    let mut h = keys[0];
    for k in &keys[1..10] {
        h = _mm_aesenc_si128(h, *k);
    }
    let h = _mm_shuffle_epi8(_mm_aesenclast_si128(h, keys[10]), byte_swap());
    let mut powers = [0u128; H_POWERS];
    let mut power = h;
    for p in powers.iter_mut() {
        let mut bytes = [0u8; BLOCK_LEN];
        _mm_storeu_si128(bytes.as_mut_ptr().cast::<__m128i>(), power);
        *p = u128::from_le_bytes(bytes);
        power = gf_mul(power, h);
    }
    (round_keys, powers)
}

/// # Safety
///
/// The CPU must implement `aes` and `sse2`.
#[cfg(test)]
#[target_feature(enable = "aes,sse2")]
unsafe fn ctr_aesni(round_keys: &RoundKeys, nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
    ctr_keys(&schedule(round_keys), nonce, counter, data);
}

/// Counter mode from block `counter` under the scheduled `keys`,
/// [`WIDE`] blocks per step.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "aes,sse2")]
unsafe fn ctr_keys(keys: &[__m128i; 11], nonce: &[u8; 12], mut counter: u32, data: &mut [u8]) {
    let mut steps = data.chunks_exact_mut(WIDE * BLOCK_LEN);
    for step in &mut steps {
        xor_stream(step, &keystream::<WIDE>(keys, nonce, counter));
        counter = counter.wrapping_add(WIDE as u32);
    }
    let tail = steps.into_remainder();
    if tail.len() > 4 * BLOCK_LEN {
        xor_stream(tail, &keystream::<WIDE>(keys, nonce, counter));
    } else if !tail.is_empty() {
        xor_stream(tail, &keystream::<4>(keys, nonce, counter));
    }
}

/// The tag: GHASH over `aad ‖ pad ‖ ciphertext ‖ pad ‖ lengths`, byte
/// order restored, XOR `mask` (the encryption of `J₀`).
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2,ssse3")]
unsafe fn finish_tag(
    h_powers: &[u128; H_POWERS],
    aad: &[u8],
    ciphertext: &[u8],
    mask: __m128i,
) -> [u8; BLOCK_LEN] {
    let mut powers = [_mm_setzero_si128(); H_POWERS];
    for (p, h) in powers.iter_mut().zip(h_powers) {
        *p = _mm_set_epi64x((h >> 64) as i64, *h as i64);
    }
    // One stream of blocks — AAD and ciphertext each zero-padded, then
    // the lengths — so a short message takes as few reductions as its
    // block count allows.
    let lengths = (((aad.len() as u128) * 8) << 64) | ((ciphertext.len() as u128) * 8);
    let mut ghash = Ghash {
        y: _mm_setzero_si128(),
        group: [_mm_setzero_si128(); WIDE],
        n: 0,
    };
    for part in [aad, ciphertext, &lengths.to_be_bytes()] {
        let mut blocks = part.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            ghash.push(&powers, load!(block));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; BLOCK_LEN];
            padded[..tail.len()].copy_from_slice(tail);
            ghash.push(&powers, load!(padded));
        }
    }
    let y = ghash.finish(&powers);

    let mut tag = [0u8; BLOCK_LEN];
    _mm_storeu_si128(
        tag.as_mut_ptr().cast::<__m128i>(),
        _mm_xor_si128(_mm_shuffle_epi8(y, byte_swap()), mask),
    );
    tag
}

/// GHASH in progress: the state `y` and up to [`WIDE`] byte-swapped
/// blocks waiting for their aggregated multiplication.
struct Ghash {
    y: __m128i,
    group: [__m128i; WIDE],
    n: usize,
}

impl Ghash {
    /// Queues one block as stored, absorbing the group once it is full.
    ///
    /// # Safety
    ///
    /// The CPU must implement the features its `target_feature` names.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2,ssse3")]
    unsafe fn push(&mut self, powers: &[__m128i; H_POWERS], block: __m128i) {
        self.group[self.n] = _mm_shuffle_epi8(block, byte_swap());
        self.n += 1;
        if self.n == WIDE {
            self.y = aggregate(powers, self.y, &self.group);
            self.n = 0;
        }
    }

    /// Absorbs what is queued and returns the state.
    ///
    /// # Safety
    ///
    /// The CPU must implement the features its `target_feature` names.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2,ssse3")]
    unsafe fn finish(&self, powers: &[__m128i; H_POWERS]) -> __m128i {
        match self.n {
            0 => self.y,
            n => aggregate(powers, self.y, &self.group[..n]),
        }
    }
}

/// The eleven round keys in registers.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn schedule(round_keys: &RoundKeys) -> [__m128i; 11] {
    let mut keys = [_mm_setzero_si128(); 11];
    for (k, bytes) in keys.iter_mut().zip(round_keys) {
        *k = load!(bytes);
    }
    keys
}

/// The encryptions of counter blocks `counter` … `counter + N − 1`,
/// their rounds interleaved.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "aes,sse2")]
unsafe fn keystream<const N: usize>(
    keys: &[__m128i; 11],
    nonce: &[u8; 12],
    counter: u32,
) -> [__m128i; N] {
    let mut blocks = [_mm_setzero_si128(); N];
    for (i, b) in blocks.iter_mut().enumerate() {
        let block = counter_block(nonce, counter.wrapping_add(i as u32));
        *b = _mm_xor_si128(load!(block), keys[0]);
    }
    for k in &keys[1..10] {
        for b in blocks.iter_mut() {
            *b = _mm_aesenc_si128(*b, *k);
        }
    }
    for b in blocks.iter_mut() {
        *b = _mm_aesenclast_si128(*b, keys[10]);
    }
    blocks
}

/// Reverses the bytes of a register: a block as stored into the
/// integer GHASH computes on, and back.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
unsafe fn byte_swap() -> __m128i {
    _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
}

/// `y ← (y ⊕ X₁)·Hⁿ ⊕ X₂·Hⁿ⁻¹ ⊕ … ⊕ Xₙ·H` over the `n ≤ 8`
/// byte-swapped blocks of `blocks`, with one reduction.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn aggregate(powers: &[__m128i; H_POWERS], y: __m128i, blocks: &[__m128i]) -> __m128i {
    let n = blocks.len();
    let (mut lo, mut mid, mut hi) = (
        _mm_setzero_si128(),
        _mm_setzero_si128(),
        _mm_setzero_si128(),
    );
    for (i, &block) in blocks.iter().enumerate() {
        let x = if i == 0 {
            _mm_xor_si128(block, y)
        } else {
            block
        };
        let h = powers[n - 1 - i];
        lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(x, h, 0x00));
        hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(x, h, 0x11));
        mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(x, h, 0x01));
        mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(x, h, 0x10));
    }
    reduce(lo, mid, hi)
}

/// `a·b` in GHASH's field, both byte-swapped.
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128(a, b, 0x01),
        _mm_clmulepi64_si128(a, b, 0x10),
    );
    reduce(
        _mm_clmulepi64_si128(a, b, 0x00),
        mid,
        _mm_clmulepi64_si128(a, b, 0x11),
    )
}

/// The 256-bit product `hi·x¹²⁸ ⊕ mid·x⁶⁴ ⊕ lo` of two byte-swapped
/// blocks, shifted left by one and reduced to a field element
/// (Gueron–Kounavis, Algorithm 5: the shift, then the two-phase
/// reduction by shifts of 32-bit lanes).
///
/// # Safety
///
/// The CPU must implement the features its `target_feature` names.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn reduce(lo: __m128i, mid: __m128i, hi: __m128i) -> __m128i {
    let mut low = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
    let mut high = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));

    // [high:low] <<= 1, carrying across the 32-bit lanes and the halves.
    let carry_low = _mm_srli_epi32(low, 31);
    let carry_high = _mm_srli_epi32(high, 31);
    low = _mm_or_si128(_mm_slli_epi32(low, 1), _mm_slli_si128(carry_low, 4));
    high = _mm_or_si128(_mm_slli_epi32(high, 1), _mm_slli_si128(carry_high, 4));
    high = _mm_or_si128(high, _mm_srli_si128(carry_low, 12));

    // First phase: the multiples of x¹²⁸'s reduction that the low half
    // contributes, shifted by 63, 62 and 57.
    let a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32(low, 31), _mm_slli_epi32(low, 30)),
        _mm_slli_epi32(low, 25),
    );
    let spill = _mm_srli_si128(a, 4);
    low = _mm_xor_si128(low, _mm_slli_si128(a, 12));

    // Second phase: shifted by 1, 2 and 7, and folded onto the high half.
    let b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32(low, 1), _mm_srli_epi32(low, 2)),
        _mm_xor_si128(_mm_srli_epi32(low, 7), spill),
    );
    _mm_xor_si128(high, _mm_xor_si128(low, b))
}
