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
//! Arithmetic is in radix `2^64`: `h` is two full words and a third of
//! a few bits, `r` two clamped words. Clamping clears the top four
//! bits of each word of `r` and the low two of `r1`, which is what
//! makes a block step four wide multiplies: the partial product
//! `h1·r1·2^128` is `h1·(r1/4)·2^130 ≡ h1·(5·r1/4)`, an exact integer
//! `s1 = r1 + r1/4` computed once. Bounds that keep every `u64`/`u128`
//! operation below overflow (debug builds check them): `r0`, `r1` are
//! under `2^60` and `s1` under `2^61`; `h2` is at most 4 between
//! blocks and at most 6 with a block and its `2^128` bit added, so
//! `h2·s1` and `h2·r0` fit a word, each sum of wide products stays
//! under `2^126`, and the word above `2^128` after a multiply is under
//! `1.5·2^63`, whose fold `5·(d2 >> 2)` is under `2^64`.
//!
//! Whole blocks are absorbed in *runs* ([`Poly1305::update`] hands
//! over every whole block of its input at once, straight from the
//! caller's slice) with `h` in locals across the run. One block per
//! step: two per step with `r²` was built and measured too — it needs
//! the 44-bit-limb form (an unclamped `r²` has no `s1`), nine
//! multiplies a block, and beat this form on a quiet core only to
//! fall back to the old serial rate whenever the core's multiplier
//! was shared, while the four multiplies here hold their rate in both
//! states.

/// Poly1305 key length in bytes (`r ‖ s`).
pub const KEY_LEN: usize = 32;

/// Poly1305 tag length in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK_LEN: usize = 16;

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
    r: [u64; 2],
    /// `r1 + r1/4 = 5·r1/4`: the `2^130 ≡ 5` wrap-around of the
    /// products that land on `2^128`.
    s1: u64,
    h: [u64; 3],
    pad: [u64; 2],
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    /// Starts a MAC under the one-time `key` (`r ‖ s`; `r` is clamped
    /// here).
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let r = [
            le64(&key[0..8]) & 0x0fff_fffc_0fff_ffff,
            le64(&key[8..16]) & 0x0fff_fffc_0fff_fffc,
        ];
        Poly1305 {
            r,
            s1: r[1] + (r[1] >> 2),
            h: [0; 3],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            buf: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Absorbs `blocks` — a whole number of 16-byte blocks, each with
    /// the `2^128` bit appended — with nothing buffered before them.
    pub(crate) fn blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0, "partial Poly1305 block");
        let mut h = self.h;
        for block in blocks.chunks_exact(BLOCK_LEN) {
            h = self.step(h, block, 1);
        }
        self.h = h;
    }

    /// `(h + block + hibit·2^128) · r mod p`, partially reduced: two
    /// full words and a third of at most 4.
    #[inline(always)]
    fn step(&self, [h0, h1, h2]: [u64; 3], block: &[u8], hibit: u64) -> [u64; 3] {
        let [r0, r1] = self.r.map(u128::from);
        let s1 = u128::from(self.s1);

        let t = u128::from(h0) + u128::from(le64(&block[0..8]));
        let x0 = u128::from(t as u64);
        let t = u128::from(h1) + (t >> 64) + u128::from(le64(&block[8..16]));
        let x1 = u128::from(t as u64);
        let x2 = h2 + (t >> 64) as u64 + hibit;

        let d0 = x0 * r0 + x1 * s1;
        let d1 = x0 * r1 + x1 * r0 + u128::from(x2 * self.s1) + (d0 >> 64);
        let d2 = x2 * self.r[0] + (d1 >> 64) as u64;

        // Everything from bit 130 up folds back in times five.
        let t = u128::from(d0 as u64) + u128::from((d2 >> 2) * 5);
        let h0 = t as u64;
        let t = u128::from(d1 as u64) + (t >> 64);
        [h0, t as u64, (d2 & 3) + (t >> 64) as u64]
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
            self.blocks(&buf);
            self.buffered = 0;
        }
        let (whole, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        self.blocks(whole);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Absorbs `data`, then zero bytes up to the next 16-byte boundary
    /// (the `pad16` of RFC 8439 §2.8).
    pub fn update_padded(&mut self, data: &[u8]) {
        self.update(data);
        if self.buffered > 0 {
            let mut last = [0u8; BLOCK_LEN];
            last[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            self.blocks(&last);
            self.buffered = 0;
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
            self.h = self.step(self.h, &last, 0);
        }

        // h < 5·2^128 < 2p. g = h - p = h + 5 - 2^130; keep g iff it
        // did not borrow, i.e. iff h + 5 reaches bit 130.
        let [h0, h1, h2] = self.h;
        let t = u128::from(h0) + 5;
        let g0 = t as u64;
        let t = u128::from(h1) + (t >> 64);
        let g1 = t as u64;
        let g2 = h2 + (t >> 64) as u64;
        let keep_g = 0u64.wrapping_sub(g2 >> 2); // all ones iff h >= p
        let h0 = (h0 & !keep_g) | (g0 & keep_g);
        let h1 = (h1 & !keep_g) | (g1 & keep_g);

        // tag = (h + s) mod 2^128.
        let pad = u128::from(self.pad[0]) | (u128::from(self.pad[1]) << 64);
        (u128::from(h0) | (u128::from(h1) << 64))
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

    /// RFC 8439 Appendix A.3 vectors 5–11: every word saturated, so each
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

    /// The largest `r` clamping admits against all-ones blocks: every
    /// product and carry at the top of the bounds the module docs
    /// derive (a debug build checks each for overflow), and the result
    /// still independent of how the input was cut.
    #[test]
    fn saturated_key_and_blocks_stay_inside_the_bounds() {
        let key = [0xffu8; 32];
        let msg = [0xffu8; 4099];
        let tag = mac(&key, &msg);
        let mut pieces = Poly1305::new(&key);
        msg.chunks(7).for_each(|piece| pieces.update(piece));
        assert_eq!(pieces.finalize(), tag);
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
