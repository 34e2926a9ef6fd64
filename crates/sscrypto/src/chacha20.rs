//! ChaCha20 stream cipher (RFC 8439).
//!
//! Covers the `chacha20-ietf` Shadowsocks stream method (12-byte nonce —
//! the only stream method with a 12-byte IV, a fact the paper notes lets
//! an attacker infer the cipher from the IV length, §5.2.2) and the
//! keystream half of `chacha20-ietf-poly1305`.
//!
//! The keystream batches dispatch to SSSE3 (4-lane) or AVX2 (8-lane)
//! kernels in `crate::x86` when the CPU supports them, selected once at
//! construction from a [`CpuFeatures`] snapshot. The portable
//! lane-widened path stays compiled as the differential oracle
//! (`GFWSIM_NO_HWCRYPTO=1`); consecutive-counter batching makes the
//! keystream byte-identical regardless of batch width.

use crate::hw::CpuFeatures;
use crate::le32;

/// Multi-lane keystream backend, chosen once at construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Lanes {
    /// AVX2 8-lane kernel, with the SSSE3 4-lane kernel for 256-byte
    /// batches (AVX2 CPUs always have SSSE3).
    Avx2,
    /// SSSE3 4-lane kernel.
    Ssse3,
    /// Portable lane-widened scalar path (the differential oracle).
    Scalar,
}

impl Lanes {
    fn pick(feat: CpuFeatures) -> Self {
        if feat.avx2 && feat.ssse3 {
            Lanes::Avx2
        } else if feat.ssse3 {
            Lanes::Ssse3
        } else {
            Lanes::Scalar
        }
    }
}

/// Run the 4-lane kernel named by `lanes` over one batch of states.
#[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
fn blocks4_dispatch(lanes: Lanes, states: &[[u32; 16]; 4], out: &mut [u8; 256]) {
    #[cfg(target_arch = "x86_64")]
    if lanes != Lanes::Scalar {
        // SAFETY: non-Scalar lanes are only selected when the
        // construction snapshot reported SSSE3 support (`Lanes::pick`).
        unsafe { crate::x86::chacha_blocks4(states, out) };
        return;
    }
    let _ = lanes;
    blocks4(states, out);
}

/// ChaCha20 keystream generator with the IETF 96-bit nonce / 32-bit
/// counter layout.
#[derive(Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
    keystream: [u8; 64],
    used: usize,
    lanes: Lanes,
}

impl ChaCha20 {
    /// Create a cipher from a 32-byte key, 12-byte nonce and initial block
    /// counter (0 for Shadowsocks streams; 1 for the AEAD payload since
    /// block 0 keys Poly1305).
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        Self::with_features(key, nonce, counter, CpuFeatures::get())
    }

    /// [`ChaCha20::new`] with an explicit feature snapshot (differential
    /// tests pass [`CpuFeatures::none`] to force the scalar oracle).
    pub fn with_features(
        key: &[u8; 32],
        nonce: &[u8; 12],
        counter: u32,
        feat: CpuFeatures,
    ) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x61707865;
        state[1] = 0x3320646e;
        state[2] = 0x79622d32;
        state[3] = 0x6b206574;
        for i in 0..8 {
            state[4 + i] = le32(key, i * 4);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = le32(nonce, i * 4);
        }
        ChaCha20 {
            state,
            keystream: [0; 64],
            used: 64,
            lanes: Lanes::pick(feat),
        }
    }

    /// Produce one 64-byte keystream block for the current counter and
    /// advance the counter.
    fn next_block(&mut self) {
        let mut working = self.state;
        for _ in 0..10 {
            // Column rounds.
            quarter(&mut working, 0, 4, 8, 12);
            quarter(&mut working, 1, 5, 9, 13);
            quarter(&mut working, 2, 6, 10, 14);
            quarter(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter(&mut working, 0, 5, 10, 15);
            quarter(&mut working, 1, 6, 11, 12);
            quarter(&mut working, 2, 7, 8, 13);
            quarter(&mut working, 3, 4, 9, 14);
        }
        for (i, w) in working.iter_mut().enumerate() {
            *w = w.wrapping_add(self.state[i]);
            self.keystream[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.state[12] = self.state[12].wrapping_add(1);
        self.used = 0;
    }

    /// Produce four consecutive keystream blocks (256 bytes) for the
    /// current counter into `out` and advance the counter by 4. Same
    /// keystream bytes as four [`Self::next_block`] calls.
    fn next_blocks4(&mut self, out: &mut [u8; 256]) {
        let mut states = [self.state; 4];
        for (l, st) in states.iter_mut().enumerate() {
            st[12] = self.state[12].wrapping_add(l as u32);
        }
        blocks4_dispatch(self.lanes, &states, out);
        self.state[12] = self.state[12].wrapping_add(4);
    }

    /// Eight consecutive keystream blocks (512 bytes) on the AVX2
    /// kernel; advances the counter by 8. Only reachable when
    /// [`Lanes::pick`] chose `Avx2`.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
    fn next_blocks8(&mut self, out: &mut [u8; 512]) {
        let mut states = [self.state; 8];
        for (l, st) in states.iter_mut().enumerate() {
            st[12] = self.state[12].wrapping_add(l as u32);
        }
        // SAFETY: callers gate on `Lanes::Avx2`, which is only selected
        // when the construction snapshot reported AVX2 support.
        unsafe { crate::x86::chacha_blocks8(&states, out) };
        self.state[12] = self.state[12].wrapping_add(8);
    }

    /// XOR the keystream into `data` in place, continuing the stream.
    pub fn apply(&mut self, data: &mut [u8]) {
        // Drain any partial block so the batched path stays aligned.
        let mut i = 0;
        while self.used < 64 && i < data.len() {
            data[i] ^= self.keystream[self.used];
            self.used = self.used.wrapping_add(1);
            i += 1;
        }
        #[cfg(target_arch = "x86_64")]
        if self.lanes == Lanes::Avx2 {
            while data.len() - i >= 512 {
                let mut ks = [0u8; 512];
                self.next_blocks8(&mut ks);
                for (b, k) in data[i..i + 512].iter_mut().zip(&ks) {
                    *b ^= k;
                }
                i += 512;
            }
        }
        while data.len() - i >= 256 {
            let mut ks = [0u8; 256];
            self.next_blocks4(&mut ks);
            for (b, k) in data[i..i + 256].iter_mut().zip(&ks) {
                *b ^= k;
            }
            i += 256;
        }
        for byte in &mut data[i..] {
            if self.used == 64 {
                self.next_block();
            }
            *byte ^= self.keystream[self.used];
            self.used = self.used.wrapping_add(1);
        }
    }

    /// Return one raw keystream block for the given counter without
    /// perturbing this instance (used to derive the Poly1305 key).
    pub fn block_at(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> [u8; 64] {
        let mut c = ChaCha20::new(key, nonce, counter);
        c.next_block();
        c.keystream
    }
}

/// Original (pre-IETF) ChaCha20 with an 8-byte nonce and 64-bit counter,
/// as used by the legacy `chacha20` Shadowsocks stream method — the
/// 8-byte-IV row of the paper's Fig 10a.
#[derive(Clone)]
pub struct ChaCha20Legacy {
    state: [u32; 16],
    keystream: [u8; 64],
    used: usize,
    lanes: Lanes,
}

impl ChaCha20Legacy {
    /// Create a legacy cipher from a 32-byte key and 8-byte nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 8]) -> Self {
        Self::with_features(key, nonce, CpuFeatures::get())
    }

    /// [`ChaCha20Legacy::new`] with an explicit feature snapshot.
    pub fn with_features(key: &[u8; 32], nonce: &[u8; 8], feat: CpuFeatures) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x61707865;
        state[1] = 0x3320646e;
        state[2] = 0x79622d32;
        state[3] = 0x6b206574;
        for i in 0..8 {
            state[4 + i] = le32(key, i * 4);
        }
        // state[12..14] is the 64-bit little-endian counter, starting at 0.
        state[14] = le32(nonce, 0);
        state[15] = le32(nonce, 4);
        ChaCha20Legacy {
            state,
            keystream: [0; 64],
            used: 64,
            lanes: Lanes::pick(feat),
        }
    }

    fn next_block(&mut self) {
        let mut working = self.state;
        for _ in 0..10 {
            quarter(&mut working, 0, 4, 8, 12);
            quarter(&mut working, 1, 5, 9, 13);
            quarter(&mut working, 2, 6, 10, 14);
            quarter(&mut working, 3, 7, 11, 15);
            quarter(&mut working, 0, 5, 10, 15);
            quarter(&mut working, 1, 6, 11, 12);
            quarter(&mut working, 2, 7, 8, 13);
            quarter(&mut working, 3, 4, 9, 14);
        }
        for (i, w) in working.iter_mut().enumerate() {
            *w = w.wrapping_add(self.state[i]);
            self.keystream[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        // 64-bit counter increment across words 12 and 13.
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
        self.used = 0;
    }

    /// Four consecutive keystream blocks for the current 64-bit counter;
    /// advances the counter by 4.
    fn next_blocks4(&mut self, out: &mut [u8; 256]) {
        let base = (self.state[13] as u64) << 32 | self.state[12] as u64;
        let mut states = [self.state; 4];
        for (l, st) in states.iter_mut().enumerate() {
            let c = base.wrapping_add(l as u64);
            st[12] = c as u32;
            st[13] = (c >> 32) as u32;
        }
        blocks4_dispatch(self.lanes, &states, out);
        let c = base.wrapping_add(4);
        self.state[12] = c as u32;
        self.state[13] = (c >> 32) as u32;
    }

    /// Eight consecutive keystream blocks on the AVX2 kernel, carrying
    /// the 64-bit counter; advances it by 8.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
    fn next_blocks8(&mut self, out: &mut [u8; 512]) {
        let base = (self.state[13] as u64) << 32 | self.state[12] as u64;
        let mut states = [self.state; 8];
        for (l, st) in states.iter_mut().enumerate() {
            let c = base.wrapping_add(l as u64);
            st[12] = c as u32;
            st[13] = (c >> 32) as u32;
        }
        // SAFETY: callers gate on `Lanes::Avx2`, which is only selected
        // when the construction snapshot reported AVX2 support.
        unsafe { crate::x86::chacha_blocks8(&states, out) };
        let c = base.wrapping_add(8);
        self.state[12] = c as u32;
        self.state[13] = (c >> 32) as u32;
    }

    /// XOR the keystream into `data` in place, continuing the stream.
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut i = 0;
        while self.used < 64 && i < data.len() {
            data[i] ^= self.keystream[self.used];
            self.used = self.used.wrapping_add(1);
            i += 1;
        }
        #[cfg(target_arch = "x86_64")]
        if self.lanes == Lanes::Avx2 {
            while data.len() - i >= 512 {
                let mut ks = [0u8; 512];
                self.next_blocks8(&mut ks);
                for (b, k) in data[i..i + 512].iter_mut().zip(&ks) {
                    *b ^= k;
                }
                i += 512;
            }
        }
        while data.len() - i >= 256 {
            let mut ks = [0u8; 256];
            self.next_blocks4(&mut ks);
            for (b, k) in data[i..i + 256].iter_mut().zip(&ks) {
                *b ^= k;
            }
            i += 256;
        }
        for byte in &mut data[i..] {
            if self.used == 64 {
                self.next_block();
            }
            *byte ^= self.keystream[self.used];
            self.used = self.used.wrapping_add(1);
        }
    }
}

/// HChaCha20 (draft-irtf-cfrg-xchacha §2.2): derive a 32-byte subkey
/// from a key and a 16-byte nonce — the key-extension primitive behind
/// XChaCha20.
pub fn hchacha20(key: &[u8; 32], nonce: &[u8; 16]) -> [u8; 32] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = le32(key, i * 4);
    }
    for i in 0..4 {
        state[12 + i] = le32(nonce, i * 4);
    }
    for _ in 0..10 {
        quarter(&mut state, 0, 4, 8, 12);
        quarter(&mut state, 1, 5, 9, 13);
        quarter(&mut state, 2, 6, 10, 14);
        quarter(&mut state, 3, 7, 11, 15);
        quarter(&mut state, 0, 5, 10, 15);
        quarter(&mut state, 1, 6, 11, 12);
        quarter(&mut state, 2, 7, 8, 13);
        quarter(&mut state, 3, 4, 9, 14);
    }
    // No final addition: words 0-3 and 12-15 are the subkey.
    let mut out = [0u8; 32];
    for (i, &w) in state[0..4].iter().chain(&state[12..16]).enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// Four interleaved block computations over a lane-widened working
/// state: `states[l]` is the full 16-word initial state of lane `l`
/// (identical except for the counter words). The four quarter-round
/// chains are independent, so the per-word lane loops vectorize; lane
/// `l` of the keystream lands in `out[l * 64..(l + 1) * 64]`.
fn blocks4(states: &[[u32; 16]; 4], out: &mut [u8; 256]) {
    let mut w = [[0u32; 4]; 16];
    for (word, lanes) in w.iter_mut().enumerate() {
        for (lane, s) in lanes.iter_mut().zip(states) {
            *lane = s[word];
        }
    }
    for _ in 0..10 {
        qr4(&mut w, 0, 4, 8, 12);
        qr4(&mut w, 1, 5, 9, 13);
        qr4(&mut w, 2, 6, 10, 14);
        qr4(&mut w, 3, 7, 11, 15);
        qr4(&mut w, 0, 5, 10, 15);
        qr4(&mut w, 1, 6, 11, 12);
        qr4(&mut w, 2, 7, 8, 13);
        qr4(&mut w, 3, 4, 9, 14);
    }
    for (l, (block, init)) in out.chunks_exact_mut(64).zip(states).enumerate() {
        for (word, dst) in block.chunks_exact_mut(4).enumerate() {
            dst.copy_from_slice(&w[word][l].wrapping_add(init[word]).to_le_bytes());
        }
    }
}

/// One quarter round applied across all four lanes of the widened state.
#[inline(always)]
#[allow(
    clippy::needless_range_loop,
    reason = "`l` indexes four rows of `s` at once"
)]
fn qr4(s: &mut [[u32; 4]; 16], ai: usize, bi: usize, ci: usize, di: usize) {
    for l in 0..4 {
        let (mut a, mut b, mut c, mut d) = (s[ai][l], s[bi][l], s[ci][l], s[di][l]);
        a = a.wrapping_add(b);
        d = (d ^ a).rotate_left(16);
        c = c.wrapping_add(d);
        b = (b ^ c).rotate_left(12);
        a = a.wrapping_add(b);
        d = (d ^ a).rotate_left(8);
        c = c.wrapping_add(d);
        b = (b ^ c).rotate_left(7);
        s[ai][l] = a;
        s[bi][l] = b;
        s[ci][l] = c;
        s[di][l] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let block = ChaCha20::block_at(&key, &nonce, 1);
        assert_eq!(block[..16], unhex("10f1e7e4d13b5915500fdd1fa32071c4")[..]);
        assert_eq!(block[48..64], unhex("b5129cd1de164eb9cbd083e8a2503c4e")[..]);
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        let mut c = ChaCha20::new(&key, &nonce, 1);
        c.apply(&mut data);
        let want = unhex(
            "6e2e359a2568f98041ba0728dd0d6981\
             e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b357\
             1639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e\
             52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42\
             874d",
        );
        assert_eq!(data, want);
    }

    // draft-irtf-cfrg-xchacha §2.2.1 HChaCha20 test vector.
    #[test]
    fn hchacha20_draft_vector() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 16] = unhex("000000090000004a0000000031415927")
            .try_into()
            .unwrap();
        assert_eq!(
            hchacha20(&key, &nonce).to_vec(),
            unhex("82413b4227b27bfed30e42508a877d73a0f9e4d58a74a853c12ec41326d3ecdc")
        );
    }

    // Legacy ChaCha20 test vector (djb's original spec, all-zero key and
    // nonce): first keystream bytes.
    #[test]
    fn legacy_zero_vector() {
        let key = [0u8; 32];
        let nonce = [0u8; 8];
        let mut data = [0u8; 32];
        let mut c = ChaCha20Legacy::new(&key, &nonce);
        c.apply(&mut data);
        assert_eq!(
            data.to_vec(),
            unhex("76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7")
        );
    }

    #[test]
    fn legacy_roundtrip() {
        let key = [0x33u8; 32];
        let nonce = [0x44u8; 8];
        let plain: Vec<u8> = (0..200u8).collect();
        let mut buf = plain.clone();
        let mut enc = ChaCha20Legacy::new(&key, &nonce);
        enc.apply(&mut buf[..77]);
        enc.apply(&mut buf[77..]);
        let mut dec = ChaCha20Legacy::new(&key, &nonce);
        dec.apply(&mut buf);
        assert_eq!(buf, plain);
    }

    #[test]
    fn batched_matches_single_block_path() {
        let key = [0x5au8; 32];
        let nonce = [0x0fu8; 12];
        // Two batched iterations plus a tail, from a non-zero counter.
        let mut batched = vec![0u8; 700];
        ChaCha20::new(&key, &nonce, 7).apply(&mut batched);
        let mut scalar = vec![0u8; 700];
        let mut c = ChaCha20::new(&key, &nonce, 7);
        for b in scalar.chunks_mut(1) {
            c.apply(b); // 1-byte calls never reach the batched path
        }
        assert_eq!(batched, scalar);
    }

    #[test]
    fn batched_matches_after_partial_block() {
        let key = [0x77u8; 32];
        let nonce = [0x31u8; 12];
        let mut a = vec![0u8; 600];
        let mut ca = ChaCha20::new(&key, &nonce, 0);
        ca.apply(&mut a[..10]); // leaves a partial block to drain
        ca.apply(&mut a[10..]);
        let mut b = vec![0u8; 600];
        let mut cb = ChaCha20::new(&key, &nonce, 0);
        for chunk in b.chunks_mut(1) {
            cb.apply(chunk);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn legacy_batched_carries_64_bit_counter() {
        let key = [0x13u8; 32];
        let nonce = [0x09u8; 8];
        let mut a = ChaCha20Legacy::new(&key, &nonce);
        let mut b = ChaCha20Legacy::new(&key, &nonce);
        // Place the 64-bit counter so the batch of 4 crosses the u32
        // boundary of word 12.
        a.state[12] = u32::MAX - 1;
        b.state[12] = u32::MAX - 1;
        let mut batched = vec![0u8; 512];
        a.apply(&mut batched);
        let mut scalar = vec![0u8; 512];
        for chunk in scalar.chunks_mut(1) {
            b.apply(chunk);
        }
        assert_eq!(batched, scalar);
        assert_eq!(a.state[12], b.state[12]);
        assert_eq!(a.state[13], b.state[13]);
    }

    /// The SIMD kernels (including the AVX2 8-lane path and its
    /// SSSE3/scalar tails) produce the exact keystream of the scalar
    /// oracle across uneven segmentation.
    #[test]
    fn hw_lanes_match_scalar_oracle() {
        let feat = CpuFeatures::detect_with(false);
        if Lanes::pick(feat) == Lanes::Scalar {
            return;
        }
        let key = [0x42u8; 32];
        let nonce = [0x21u8; 12];
        // 1300 bytes: two 512-byte AVX2 batches, one 256-byte batch,
        // and a scalar tail, plus a partial-block prefix.
        let mut hw = vec![0u8; 1300];
        let mut c = ChaCha20::with_features(&key, &nonce, 3, feat);
        c.apply(&mut hw[..7]);
        c.apply(&mut hw[7..]);
        let mut sc = vec![0u8; 1300];
        let mut c = ChaCha20::with_features(&key, &nonce, 3, CpuFeatures::none());
        c.apply(&mut sc[..7]);
        c.apply(&mut sc[7..]);
        assert_eq!(hw, sc);
    }

    /// Same pin for the legacy 64-bit-counter variant, across the u32
    /// carry boundary the batched paths must propagate.
    #[test]
    fn legacy_hw_lanes_match_scalar_oracle() {
        let feat = CpuFeatures::detect_with(false);
        if Lanes::pick(feat) == Lanes::Scalar {
            return;
        }
        let key = [0x55u8; 32];
        let nonce = [0x66u8; 8];
        let mut a = ChaCha20Legacy::with_features(&key, &nonce, feat);
        let mut b = ChaCha20Legacy::with_features(&key, &nonce, CpuFeatures::none());
        a.state[12] = u32::MAX - 3;
        b.state[12] = u32::MAX - 3;
        let mut hw = vec![0u8; 1024];
        a.apply(&mut hw);
        let mut sc = vec![0u8; 1024];
        b.apply(&mut sc);
        assert_eq!(hw, sc);
        assert_eq!((a.state[12], a.state[13]), (b.state[12], b.state[13]));
    }

    #[test]
    fn roundtrip_uneven_chunks() {
        let key = [0xabu8; 32];
        let nonce = [0x01u8; 12];
        let plain: Vec<u8> = (0..130u8).collect();
        let mut buf = plain.clone();
        let mut enc = ChaCha20::new(&key, &nonce, 0);
        enc.apply(&mut buf[..1]);
        enc.apply(&mut buf[1..65]);
        enc.apply(&mut buf[65..]);
        let mut dec = ChaCha20::new(&key, &nonce, 0);
        dec.apply(&mut buf);
        assert_eq!(buf, plain);
    }
}
