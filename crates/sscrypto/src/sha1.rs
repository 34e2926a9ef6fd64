//! SHA-1 (FIPS 180-4).
//!
//! Shadowsocks AEAD ciphers derive their per-session subkeys with
//! HKDF-SHA1, so SHA-1 (via [`crate::hmac`]) sits on the key-derivation
//! path of every AEAD connection. The compression function runs on
//! SHA-NI when the CPU has it (`crate::x86`), with the scalar code
//! below as the fallback and the differential oracle.

use crate::block::BlockBuffer;
use crate::hw::CpuFeatures;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 20;

/// Block size in bytes (used by HMAC).
pub const BLOCK_LEN: usize = crate::block::BLOCK_LEN;

const INIT: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

/// Incremental SHA-1 hasher.
///
/// Whether it compresses with SHA-NI or with the scalar oracle is
/// decided once, when it is built; clones keep the choice.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    block: BlockBuffer,
    hw: bool,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Create a fresh hasher on the process's dispatch snapshot.
    pub fn new() -> Self {
        Self::with_features(CpuFeatures::get())
    }

    /// Create a fresh hasher on an explicit feature snapshot
    /// ([`CpuFeatures::none`] forces the scalar compression function).
    pub fn with_features(feat: CpuFeatures) -> Self {
        Sha1 {
            state: INIT,
            block: BlockBuffer::new(),
            hw: cfg!(target_arch = "x86_64") && feat.sha,
        }
    }

    /// True when this hasher compresses with SHA-NI.
    pub fn is_hw(&self) -> bool {
        self.hw
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        let (state, hw) = (&mut self.state, self.hw);
        self.block
            .update(data, |blocks| compress(state, hw, blocks));
    }

    /// Finish and return the 20-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let (mut state, hw) = (self.state, self.hw);
        self.block
            .finish(u64::to_be_bytes, |blocks| compress(&mut state, hw, blocks));
        let mut out = [0u8; DIGEST_LEN];
        for (o, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
            *o = word.to_be_bytes();
        }
        out
    }
}

/// Compress whole blocks on the path `hw` picked.
#[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
fn compress(state: &mut [u32; 5], hw: bool, blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if hw {
        // SAFETY: `hw` is only set when the construction snapshot
        // reported SHA-NI, SSSE3 and SSE4.1 (see `with_features`).
        unsafe { crate::x86::sha1_compress(state, blocks) };
        return;
    }
    let _ = hw;
    for block in blocks {
        compress_scalar(state, block);
    }
}

/// The portable compression function: the fallback and the oracle the
/// SHA-NI kernel is tested against.
fn compress_scalar(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 80];
    for (wi, chunk) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*chunk);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i / 20 {
            0 => ((b & c) | (!b & d), 0x5a827999),
            1 => (b ^ c ^ d, 0x6ed9eba1),
            2 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
            _ => (b ^ c ^ d, 0xca62c1d6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-1.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        let million_a = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&million_a)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn long_input() {
        let data = vec![b'x'; 1 << 20];
        assert_eq!(
            hex(&sha1(&data)),
            "e37f4d5be56713044d62525e406d250a722647d6"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 7 % 256) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 777] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(&data), "split {split}");
        }
    }

    #[test]
    fn hw_and_scalar_agree_across_padding_boundaries() {
        // Lengths around the one- and two-block padding cases.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 300] {
            let mut hw = Sha1::with_features(CpuFeatures::get());
            let mut scalar = Sha1::with_features(CpuFeatures::none());
            assert!(!scalar.is_hw());
            hw.update(&data[..len]);
            scalar.update(&data[..len]);
            assert_eq!(hw.finalize(), scalar.finalize(), "len {len}");
        }
    }
}
