//! Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Evaluates the message, cut into 16-byte little-endian blocks with a
//! high `1` bit appended to each, as a polynomial in the clamped key
//! half `r` modulo `p = 2^130 - 5`, then adds the other key half `s`
//! modulo `2^128`. The 32-byte key must be used for **one message
//! only**: two tags under the same `(r, s)` reveal `r`, and with it
//! forgeries. [`crate::aead`] derives a fresh key per nonce from
//! ChaCha20 block 0 (RFC 8439 §2.6).
//!
//! Arithmetic is in three limbs of 44, 44 and 42 bits with `u128`
//! products. Bounds that keep every `u64`/`u128` operation below
//! overflow (debug builds check them): limbs of `h` stay under `2^45`
//! between blocks and under `2^46` with a message block added, `r`
//! limbs are under `2^44` and the pre-multiplied `20·r` under `2^49`,
//! so each product is under `2^95` and a sum of three under `2^97`.

/// Poly1305 key length in bytes (`r ‖ s`).
pub const KEY_LEN: usize = 32;

/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK_LEN: usize = 16;
const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The `2^128` bit appended to every full block, in limb 2.
const HIBIT: u64 = 1 << 40;

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte half block"))
}

/// Streaming Poly1305 state.
///
/// # Example
///
/// ```
/// use lcm_crypto::poly1305::{self, Poly1305};
///
/// let key = [0x42u8; 32];
/// let mut mac = Poly1305::new(&key);
/// mac.update(b"split ");
/// mac.update(b"message");
/// assert_eq!(mac.finalize(), poly1305::mac(&key, b"split message"));
/// ```
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 3],
    /// `20·r[1]`, `20·r[2]`: the `2^130 ≡ 5` wrap-around, pre-shifted
    /// by the two bits limb 2 is short of 44.
    s: [u64; 2],
    h: [u64; 3],
    pad: [u64; 2],
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    /// Starts a MAC under the one-time `key` (`r ‖ s`; `r` is clamped
    /// here).
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let (t0, t1) = (le64(&key[0..8]), le64(&key[8..16]));
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            s: [r[1] * 20, r[2] * 20],
            h: [0; 3],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            buf: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// `h = (h + block) · r mod p`, partially reduced.
    #[inline(always)]
    fn block(&mut self, block: &[u8], hibit: u64) {
        let [r0, r1, r2] = self.r.map(u128::from);
        let [s1, s2] = self.s.map(u128::from);
        let (t0, t1) = (le64(&block[0..8]), le64(&block[8..16]));

        let h0 = u128::from(self.h[0] + (t0 & MASK44));
        let h1 = u128::from(self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44));
        let h2 = u128::from(self.h[2] + (((t1 >> 24) & MASK42) | hibit));

        let d0 = h0 * r0 + h1 * s2 + h2 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0;

        let d1 = d1 + (d0 >> 44);
        let d2 = d2 + (d1 >> 44);
        let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
        self.h = [h0 & MASK44, h1, d2 as u64 & MASK42];
    }

    /// Absorbs `data`; any split of a message into `update` calls
    /// yields the same tag.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = data.len().min(BLOCK_LEN - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            let buf = self.buf;
            self.block(&buf, HIBIT);
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            self.block(block, HIBIT);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Absorbs `data`, then zero bytes up to the next 16-byte boundary
    /// (the `pad16` of RFC 8439 §2.8).
    pub fn update_padded(&mut self, data: &[u8]) {
        self.update(data);
        if self.buffered > 0 {
            self.update(&[0; BLOCK_LEN][self.buffered..]);
        }
    }

    /// Completes the MAC and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // A short last block carries its `1` bit right after the
            // data instead of at 2^128.
            let mut last = [0u8; BLOCK_LEN];
            last[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            last[self.buffered] = 1;
            self.block(&last, 0);
        }

        // Carry h fully, so h < 2^130.
        let [mut h0, mut h1, mut h2] = self.h;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;

        // g = h - p = h + 5 - 2^130; keep g iff it did not borrow.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1); // all ones iff h >= p
        let h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        let h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        let h2 = (h2 & !keep_g) | (g2 & keep_g);

        // tag = (h + s) mod 2^128.
        let pad = u128::from(self.pad[0]) | (u128::from(self.pad[1]) << 64);
        u128::from(h0)
            .wrapping_add(u128::from(h1) << 44)
            .wrapping_add(u128::from(h2) << 88)
            .wrapping_add(pad)
            .to_le_bytes()
    }
}

/// One-shot Poly1305 of `msg` under the one-time `key`.
pub fn mac(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut state = Poly1305::new(key);
    state.update(msg);
    state.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 Appendix A.3 vectors 5–11: every limb saturated, so each
    /// carry and the final conditional subtraction of `p` is exercised
    /// (and, in a debug build, every overflow check).
    #[test]
    fn rfc8439_appendix_a3_edge_cases() {
        fn key(r: &[u8], s: &[u8]) -> [u8; 32] {
            let mut k = [0u8; 32];
            k[..r.len()].copy_from_slice(r);
            k[16..16 + s.len()].copy_from_slice(s);
            k
        }
        fn tag(bytes: &[u8]) -> [u8; 16] {
            let mut t = [0u8; 16];
            t[..bytes.len()].copy_from_slice(bytes);
            t
        }
        let ff = [0xffu8; 16];
        // #5: 2^130-5 wraps to 3 after multiplying by r = 2.
        assert_eq!(mac(&key(&[2], &[]), &ff), tag(&[3]));
        // #6: (h + s) overflows 2^128.
        assert_eq!(mac(&key(&[2], &ff), &tag(&[2])), tag(&[3]));
        // #7: h is exactly 2^130 - 5 + 5 before the final reduction.
        let mut m = [0xffu8; 48];
        m[16] = 0xf0;
        m[32..].copy_from_slice(&tag(&[0x11]));
        assert_eq!(mac(&key(&[1], &[]), &m), tag(&[5]));
        // #8: h is exactly p: the conditional subtraction must fire.
        let mut m = [0xffu8; 48];
        m[16] = 0xfb;
        m[17..32].fill(0xfe);
        m[32..].fill(0x01);
        assert_eq!(mac(&key(&[1], &[]), &m), tag(&[]));
        // #9: h = p - 3 stays as is.
        let mut m = [0xffu8; 16];
        m[0] = 0xfd;
        let mut want = [0xffu8; 16];
        want[0] = 0xfa;
        assert_eq!(mac(&key(&[2], &[]), &m), want);
        // #10: a carry runs out of limb 1 into limb 2.
        let r = [1, 0, 0, 0, 0, 0, 0, 0, 4];
        let mut m = [0u8; 64];
        m[..16].copy_from_slice(&[
            0xe3, 0x35, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0xb9, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        m[16..32].copy_from_slice(&[
            0x33, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0x79, 0xcd, 1, 0, 0, 0, 0, 0, 0, 0,
        ]);
        m[48] = 1;
        assert_eq!(
            mac(&key(&r, &[]), &m),
            tag(&[0x14, 0, 0, 0, 0, 0, 0, 0, 0x55])
        );
        // #11: the same with the last block dropped.
        assert_eq!(mac(&key(&r, &[]), &m[..48]), tag(&[0x13]));
    }

    #[test]
    fn empty_message_tag_is_s() {
        let mut key = [0x5au8; 32];
        key[16..].copy_from_slice(&[7; 16]);
        assert_eq!(mac(&key, b""), [7; 16]);
    }

    #[test]
    fn update_padded_pads_to_the_block_boundary() {
        let key = [0x33u8; 32];
        let mut padded = Poly1305::new(&key);
        padded.update_padded(b"seventeen bytes!!");
        padded.update_padded(&[9; 16]); // already aligned: no padding
        let mut manual = Poly1305::new(&key);
        manual.update(b"seventeen bytes!!");
        manual.update(&[0; 15]);
        manual.update(&[9; 16]);
        assert_eq!(padded.finalize(), manual.finalize());
    }
}
