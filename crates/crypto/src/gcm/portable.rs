//! AES-128-GCM in portable Rust: the fallback on every CPU without
//! AES-NI and PCLMULQDQ, and the oracle the hardware kernel is tested
//! against.
//!
//! Nothing here indexes a table by secret data, so its timing does not
//! depend on the key, the counter blocks or the GHASH state:
//!
//! * **AES** is *bitsliced*: four blocks (64 bytes) are transposed into
//!   eight `u64` planes, plane `k` holding bit `k` of every byte, and
//!   each round is the same word operations whatever the bytes are. The
//!   S-box is the Boyar–Peralta circuit (*A depth-16 circuit for the
//!   AES S-box*, 2011: 113 XOR/AND/XNOR gates computing the field
//!   inverse and the affine map), `ShiftRows` and `MixColumns` are
//!   masks and shifts on the planes, and a round key is XORed in as
//!   planes of its own. The key schedule's `SubWord` runs the same
//!   circuit, so no byte of the key ever addresses memory.
//! * **GHASH** multiplies in GF(2¹²⁸) bit by bit, the algorithm of
//!   SP 800-38D §6.3 with every conditional XOR made a mask.
//!
//! Blocks go through GHASH as `u128`s read big-endian, the form in
//! which the specification's bit 0 — the coefficient of `x⁰` — is the
//! integer's most significant bit; the hardware kernel's byte-swapped
//! registers hold the same integers.

use super::{counter_block, RoundKeys, BLOCK_LEN, H_POWERS};

/// Eight bit planes of four AES states: bit `16·b + i` of plane `k` is
/// bit `k` of byte `i` of block `b`.
type Planes = [u64; 8];

/// Blocks one pass of the bitsliced cipher encrypts.
const LANES: usize = 4;

/// The byte rows of an AES state (byte `i` is row `i mod 4`), as bit
/// masks over the planes.
const ROW0: u64 = 0x1111_1111_1111_1111;
const ROW1: u64 = ROW0 << 1;
const ROW2: u64 = ROW0 << 2;
const ROW3: u64 = ROW0 << 3;

/// The AES-128 key schedule of `key` and the powers `H¹ … H⁸` of its
/// GHASH key `H = E_K(0¹²⁸)`.
pub(super) fn expand(key: &[u8; 16]) -> (RoundKeys, [u128; H_POWERS]) {
    let round_keys = expand_key(key);
    let h = u128::from_be_bytes(encrypt_block(&round_keys, [0; BLOCK_LEN]));
    let mut powers = [h; H_POWERS];
    for i in 1..H_POWERS {
        powers[i] = gf_mul(powers[i - 1], h);
    }
    (round_keys, powers)
}

/// The AES-128 key schedule (FIPS-197 §5.2).
fn expand_key(key: &[u8; 16]) -> RoundKeys {
    const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
    let mut round_keys = [[0u8; BLOCK_LEN]; 11];
    round_keys[0] = *key;
    for (r, rcon) in (1..11).zip(RCON) {
        let prev = round_keys[r - 1];
        let mut word = sub_word([prev[13], prev[14], prev[15], prev[12]]);
        word[0] ^= rcon;
        let next = &mut round_keys[r];
        for i in 0..4 {
            next[i] = prev[i] ^ word[i];
        }
        for i in 4..BLOCK_LEN {
            next[i] = prev[i] ^ next[i - 4];
        }
    }
    round_keys
}

/// `SubWord` of the key schedule, through the bitsliced S-box.
fn sub_word(word: [u8; 4]) -> [u8; 4] {
    let mut blocks = [[0u8; BLOCK_LEN]; LANES];
    blocks[0][..4].copy_from_slice(&word);
    let mut q = pack(&blocks);
    sub_bytes(&mut q);
    let [b, ..] = unpack(&q);
    [b[0], b[1], b[2], b[3]]
}

/// One AES-128 encryption of `block`.
pub(super) fn encrypt_block(round_keys: &RoundKeys, block: [u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    let mut blocks = [[0u8; BLOCK_LEN]; LANES];
    blocks[0] = block;
    encrypt(&key_planes(round_keys), &blocks)[0]
}

/// XORs `data` with the counter-mode keystream of `nonce` from block
/// `counter` on.
pub(super) fn ctr(round_keys: &RoundKeys, nonce: &[u8; 12], mut counter: u32, data: &mut [u8]) {
    let planes = key_planes(round_keys);
    for chunk in data.chunks_mut(LANES * BLOCK_LEN) {
        let mut blocks = [[0u8; BLOCK_LEN]; LANES];
        for (i, block) in blocks.iter_mut().enumerate() {
            *block = counter_block(nonce, counter.wrapping_add(i as u32));
        }
        let keystream = encrypt(&planes, &blocks);
        for (b, k) in chunk.iter_mut().zip(keystream.iter().flatten()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(LANES as u32);
    }
}

/// Encrypts `body` in place and returns its tag: [`ctr`] from block 2,
/// then [`tag`].
pub(super) fn seal(
    round_keys: &RoundKeys,
    h: u128,
    nonce: &[u8; 12],
    aad: &[u8],
    body: &mut [u8],
) -> [u8; BLOCK_LEN] {
    ctr(round_keys, nonce, 2, body);
    tag(round_keys, h, nonce, aad, body)
}

/// Decrypts `body` in place if `tag` is its tag under `aad` (compared
/// in constant time) and says whether it was; `body` is untouched when
/// it was not.
pub(super) fn open(
    round_keys: &RoundKeys,
    h: u128,
    nonce: &[u8; 12],
    aad: &[u8],
    body: &mut [u8],
    expected: &[u8],
) -> bool {
    if !crate::ct::ct_eq(&tag(round_keys, h, nonce, aad, body), expected) {
        return false;
    }
    ctr(round_keys, nonce, 2, body);
    true
}

/// The GCM tag of `ciphertext` under `aad`: GHASH over
/// `aad ‖ pad ‖ ciphertext ‖ pad ‖ len(aad) ‖ len(ciphertext)` (bits,
/// 64-bit big-endian each), XORed with the encryption of counter
/// block 1.
pub(super) fn tag(
    round_keys: &RoundKeys,
    h: u128,
    nonce: &[u8; 12],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; BLOCK_LEN] {
    let lengths = (((aad.len() as u128) * 8) << 64) | ((ciphertext.len() as u128) * 8);
    let mut y = ghash(h, 0, aad);
    y = ghash(h, y, ciphertext);
    y = ghash(h, y, &lengths.to_be_bytes());
    let mask = u128::from_be_bytes(encrypt_block(round_keys, counter_block(nonce, 1)));
    (y ^ mask).to_be_bytes()
}

/// Absorbs `data`, zero-padded to whole blocks, into the GHASH state
/// `y`: `y ← (y ⊕ X)·H` per block `X`.
fn ghash(h: u128, mut y: u128, data: &[u8]) -> u128 {
    for chunk in data.chunks(BLOCK_LEN) {
        let mut block = [0u8; BLOCK_LEN];
        block[..chunk.len()].copy_from_slice(chunk);
        y = gf_mul(y ^ u128::from_be_bytes(block), h);
    }
    y
}

/// The product of `x` and `y` in GF(2¹²⁸) modulo
/// `x¹²⁸ + x⁷ + x² + x + 1`, in GCM's bit order (SP 800-38D §6.3,
/// Algorithm 1), with no branch and no memory access that depends on
/// either operand.
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let (mut z, mut v) = (0u128, y);
    for i in (0..128).rev() {
        z ^= v & ((x >> i) & 1).wrapping_neg();
        v = (v >> 1) ^ (R & (v & 1).wrapping_neg());
    }
    z
}

/// Each round key as planes, replicated over the four blocks.
fn key_planes(round_keys: &RoundKeys) -> [Planes; 11] {
    let mut planes = [[0u64; 8]; 11];
    for (p, k) in planes.iter_mut().zip(round_keys) {
        *p = pack(&[*k; LANES]);
    }
    planes
}

/// AES-128 on four blocks (FIPS-197 §5.1).
fn encrypt(keys: &[Planes; 11], blocks: &[[u8; BLOCK_LEN]; LANES]) -> [[u8; BLOCK_LEN]; LANES] {
    let mut q = pack(blocks);
    add_round_key(&mut q, &keys[0]);
    for key in &keys[1..10] {
        sub_bytes(&mut q);
        shift_rows(&mut q);
        mix_columns(&mut q);
        add_round_key(&mut q, key);
    }
    sub_bytes(&mut q);
    shift_rows(&mut q);
    add_round_key(&mut q, &keys[10]);
    unpack(&q)
}

/// Transposes an 8×8 bit matrix held row by row in the bytes of `x`
/// (element `(r, c)` at bit `8r + c`) about its main diagonal.
fn transpose8(x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^ t ^ (t << 28)
}

/// Four blocks into planes, eight bytes at a time: transposed, the
/// eight bytes' bit `k` are byte `k`, which lands in plane `k`.
fn pack(blocks: &[[u8; BLOCK_LEN]; LANES]) -> Planes {
    let mut q = [0u64; 8];
    let halves = blocks.iter().flat_map(|b| b.chunks_exact(8));
    for (g, half) in halves.enumerate() {
        let mut word = [0u8; 8];
        word.copy_from_slice(half);
        let t = transpose8(u64::from_le_bytes(word));
        for (k, plane) in q.iter_mut().enumerate() {
            *plane |= ((t >> (8 * k)) & 0xff) << (8 * g);
        }
    }
    q
}

/// The inverse of [`pack`].
fn unpack(q: &Planes) -> [[u8; BLOCK_LEN]; LANES] {
    let mut blocks = [[0u8; BLOCK_LEN]; LANES];
    let halves = blocks.iter_mut().flat_map(|b| b.chunks_exact_mut(8));
    for (g, half) in halves.enumerate() {
        let mut t = 0u64;
        for (k, plane) in q.iter().enumerate() {
            t |= ((plane >> (8 * g)) & 0xff) << (8 * k);
        }
        half.copy_from_slice(&transpose8(t).to_le_bytes());
    }
    blocks
}

fn add_round_key(q: &mut Planes, key: &Planes) {
    for (p, k) in q.iter_mut().zip(key) {
        *p ^= k;
    }
}

/// Rotates every `width`-bit field of `x` right by `n` bits.
fn ror_fields(x: u64, width: u32, n: u32) -> u64 {
    let field = (1u64 << width) - 1;
    let low = (field >> n) * (u64::MAX / field);
    ((x >> n) & low) | ((x << (width - n)) & !low)
}

/// Row `r` moves `r` columns left: byte `4c + r` takes byte
/// `4(c + r) + r` (columns mod 4), a rotation of each block's 16 bits
/// by `4r`.
fn shift_rows(q: &mut Planes) {
    for p in q.iter_mut() {
        *p = (*p & ROW0)
            | ror_fields(*p & ROW1, 16, 4)
            | ror_fields(*p & ROW2, 16, 8)
            | ror_fields(*p & ROW3, 16, 12);
    }
}

/// Byte `r` of each column becomes `2·(a_r ⊕ a_{r+1}) ⊕ a_{r+1} ⊕
/// a_{r+2} ⊕ a_{r+3}`: `a_{r+n}` is the plane's 4-bit columns rotated
/// by `n`, and doubling in GF(2⁸) moves each plane up one bit and
/// folds plane 7 back in at the bits of `0x1b`.
fn mix_columns(q: &mut Planes) {
    let a = *q;
    let b = a.map(|p| ror_fields(p, 4, 1));
    let t: Planes = std::array::from_fn(|k| a[k] ^ b[k]);
    let doubled = [
        t[7],
        t[0] ^ t[7],
        t[1],
        t[2] ^ t[7],
        t[3] ^ t[7],
        t[4],
        t[5],
        t[6],
    ];
    for (k, p) in q.iter_mut().enumerate() {
        *p = doubled[k] ^ b[k] ^ ror_fields(a[k], 4, 2) ^ ror_fields(a[k], 4, 3);
    }
}

/// The AES S-box on every byte of the planes: Boyar and Peralta's
/// circuit (top linear layer, the shared non-linear middle, bottom
/// linear layer with the affine constant folded into four XNORs).
/// `x0` is the most significant bit, as in the paper.
#[rustfmt::skip]
fn sub_bytes(q: &mut Planes) {
    let (x0, x1, x2, x3, x4, x5, x6, x7) = (q[7], q[6], q[5], q[4], q[3], q[2], q[1], q[0]);

    let y14 = x3 ^ x5; let y13 = x0 ^ x6; let y9 = x0 ^ x3; let y8 = x0 ^ x5;
    let t0 = x1 ^ x2; let y1 = t0 ^ x7; let y4 = y1 ^ x3; let y12 = y13 ^ y14;
    let y2 = y1 ^ x0; let y5 = y1 ^ x6; let y3 = y5 ^ y8; let t1 = x4 ^ y12;
    let y15 = t1 ^ x5; let y20 = t1 ^ x1; let y6 = y15 ^ x7; let y10 = y15 ^ t0;
    let y11 = y20 ^ y9; let y7 = x7 ^ y11; let y17 = y10 ^ y11; let y19 = y10 ^ y8;
    let y16 = t0 ^ y11; let y21 = y13 ^ y16; let y18 = x0 ^ y16;

    let t2 = y12 & y15; let t3 = y3 & y6; let t4 = t3 ^ t2; let t5 = y4 & x7;
    let t6 = t5 ^ t2; let t7 = y13 & y16; let t8 = y5 & y1; let t9 = t8 ^ t7;
    let t10 = y2 & y7; let t11 = t10 ^ t7; let t12 = y9 & y11; let t13 = y14 & y17;
    let t14 = t13 ^ t12; let t15 = y8 & y10; let t16 = t15 ^ t12; let t17 = t4 ^ t14;
    let t18 = t6 ^ t16; let t19 = t9 ^ t14; let t20 = t11 ^ t16; let t21 = t17 ^ y20;
    let t22 = t18 ^ y19; let t23 = t19 ^ y21; let t24 = t20 ^ y18;

    let t25 = t21 ^ t22; let t26 = t21 & t23; let t27 = t24 ^ t26; let t28 = t25 & t27;
    let t29 = t28 ^ t22; let t30 = t23 ^ t24; let t31 = t22 ^ t26; let t32 = t31 & t30;
    let t33 = t32 ^ t24; let t34 = t23 ^ t33; let t35 = t27 ^ t33; let t36 = t24 & t35;
    let t37 = t36 ^ t34; let t38 = t27 ^ t36; let t39 = t29 & t38; let t40 = t25 ^ t39;

    let t41 = t40 ^ t37; let t42 = t29 ^ t33; let t43 = t29 ^ t40; let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15; let z1 = t37 & y6; let z2 = t33 & x7; let z3 = t43 & y16;
    let z4 = t40 & y1; let z5 = t29 & y7; let z6 = t42 & y11; let z7 = t45 & y17;
    let z8 = t41 & y10; let z9 = t44 & y12; let z10 = t37 & y3; let z11 = t33 & y4;
    let z12 = t43 & y13; let z13 = t40 & y5; let z14 = t29 & y2; let z15 = t42 & y9;
    let z16 = t45 & y14; let z17 = t41 & y8;

    let t46 = z15 ^ z16; let t47 = z10 ^ z11; let t48 = z5 ^ z13; let t49 = z9 ^ z10;
    let t50 = z2 ^ z12; let t51 = z2 ^ z5; let t52 = z7 ^ z8; let t53 = z0 ^ z3;
    let t54 = z6 ^ z7; let t55 = z16 ^ z17; let t56 = z12 ^ t48; let t57 = t50 ^ t53;
    let t58 = z4 ^ t46; let t59 = z3 ^ t54; let t60 = t46 ^ t57; let t61 = z14 ^ t57;
    let t62 = t52 ^ t58; let t63 = t49 ^ t58; let t64 = z4 ^ t59; let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63; let s6 = t56 ^ !t62; let s7 = t48 ^ !t60; let t67 = t64 ^ t65;
    let s3 = t53 ^ t66; let s4 = t51 ^ t66; let s5 = t47 ^ t65; let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The S-box from its definition: the inverse in GF(2⁸) (0 ↦ 0),
    /// then the affine map of FIPS-197 §5.1.1.
    fn sbox_by_definition(x: u8) -> u8 {
        let mul = |mut a: u8, mut b: u8| {
            let mut p = 0u8;
            for _ in 0..8 {
                if b & 1 == 1 {
                    p ^= a;
                }
                let carry = a & 0x80;
                a <<= 1;
                if carry != 0 {
                    a ^= 0x1b;
                }
                b >>= 1;
            }
            p
        };
        // x^254 = x^-1.
        let mut inv = 1u8;
        for _ in 0..254 {
            inv = mul(inv, x);
        }
        inv ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63
    }

    #[test]
    fn the_circuit_is_the_sbox_on_every_byte_and_every_position() {
        // 256 bytes in four batches of 64, each byte value at a
        // different position of the planes in each batch.
        for shift in 0..4u8 {
            let mut blocks = [[0u8; BLOCK_LEN]; LANES];
            for batch in 0..4u8 {
                for (j, byte) in blocks.iter_mut().flatten().enumerate() {
                    *byte = (j as u8).wrapping_mul(5).wrapping_add(64 * batch + shift);
                }
                let mut q = pack(&blocks);
                sub_bytes(&mut q);
                for (out, input) in unpack(&q).iter().flatten().zip(blocks.iter().flatten()) {
                    assert_eq!(*out, sbox_by_definition(*input), "S({input:#04x})");
                }
            }
        }
    }

    #[test]
    fn pack_and_unpack_are_inverse() {
        let mut blocks = [[0u8; BLOCK_LEN]; LANES];
        for (j, byte) in blocks.iter_mut().flatten().enumerate() {
            *byte = (j as u8).wrapping_mul(151) ^ 0x3c;
        }
        let q = pack(&blocks);
        assert_eq!(unpack(&q), blocks);
        // Bit 16·b + i of plane k is bit k of byte i of block b.
        for (b, block) in blocks.iter().enumerate() {
            for (i, byte) in block.iter().enumerate() {
                for (k, plane) in q.iter().enumerate() {
                    assert_eq!((plane >> (16 * b + i)) & 1, u64::from(byte >> k) & 1);
                }
            }
        }
    }

    #[test]
    fn gf_mul_has_the_identity_and_commutes() {
        // 1 in GCM's bit order is the block 80 00 … 00.
        let one = 1u128 << 127;
        let a = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e_u128;
        let b = 0x0388_dace_60b6_a392_f328_c2b9_71b2_fe78_u128;
        assert_eq!(gf_mul(a, one), a);
        assert_eq!(gf_mul(one, a), a);
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
        assert_eq!(gf_mul(a, 0), 0);
    }
}
