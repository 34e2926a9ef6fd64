//! SHA-256 (FIPS 180-4).
//!
//! Not used on the Shadowsocks wire path. Its hot caller is the
//! server-side replay filter, `shadowsocks::bloom`, which takes both of
//! its base hashes from one SHA-256 of each salt, on every connection
//! and every replay probe. Fig 9 also matches replayed payloads by
//! digest in its tests. The compression function runs on SHA-NI when
//! the CPU has it (`crate::x86`), with the scalar code below as the
//! fallback and the differential oracle.

use crate::block::BlockBuffer;
use crate::hw::CpuFeatures;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size in bytes (used by HMAC).
pub const BLOCK_LEN: usize = crate::block::BLOCK_LEN;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Whether it compresses with SHA-NI or with the scalar oracle is
/// decided once, when it is built; clones keep the choice.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: BlockBuffer,
    hw: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher on the process's dispatch snapshot.
    pub fn new() -> Self {
        Self::with_features(CpuFeatures::get())
    }

    /// Create a fresh hasher on an explicit feature snapshot
    /// ([`CpuFeatures::none`] forces the scalar compression function).
    pub fn with_features(feat: CpuFeatures) -> Self {
        Sha256 {
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

    /// Finish and return the 32-byte digest.
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
fn compress(state: &mut [u32; 8], hw: bool, blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if hw {
        // SAFETY: `hw` is only set when the construction snapshot
        // reported SHA-NI, SSSE3 and SSE4.1 (see `with_features`).
        unsafe { crate::x86::sha256_compress(state, blocks, &K) };
        return;
    }
    let _ = hw;
    for block in blocks {
        compress_scalar(state, block);
    }
}

/// The portable compression function: the fallback and the oracle the
/// SHA-NI kernel is tested against.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (wi, chunk) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*chunk);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
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
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        let million_a = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&million_a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn long_input() {
        let data = vec![b'x'; 1 << 20];
        assert_eq!(
            hex(&sha256(&data)),
            "8f990ba0b577b51cf009ea049368c16bbda1b21e1b93be07a824758bb253c39b"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 13 % 256) as u8).collect();
        for split in [0, 1, 63, 64, 65, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn hw_and_scalar_agree_across_padding_boundaries() {
        // Lengths around the one- and two-block padding cases.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 300] {
            let mut hw = Sha256::with_features(CpuFeatures::get());
            let mut scalar = Sha256::with_features(CpuFeatures::none());
            assert!(!scalar.is_hw());
            hw.update(&data[..len]);
            scalar.update(&data[..len]);
            assert_eq!(hw.finalize(), scalar.finalize(), "len {len}");
        }
    }
}
