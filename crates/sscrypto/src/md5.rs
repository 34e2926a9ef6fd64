//! MD5 message digest (RFC 1321).
//!
//! Shadowsocks uses MD5 in two places: the OpenSSL-compatible
//! `EVP_BytesToKey` password-to-key derivation for stream ciphers, and the
//! `rc4-md5` method, where the session key is `MD5(key || IV)`.

use crate::block::BlockBuffer;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 16;

/// Block size in bytes (used by HMAC).
pub const BLOCK_LEN: usize = crate::block::BLOCK_LEN;

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 hasher.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    block: BlockBuffer,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            block: BlockBuffer::new(),
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.block.update(data, |blocks| {
            blocks.iter().for_each(|b| compress(state, b));
        });
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut state = self.state;
        self.block.finish(u64::to_le_bytes, |blocks| {
            blocks.iter().for_each(|b| compress(&mut state, b));
        });
        let mut out = [0u8; DIGEST_LEN];
        for (o, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
            *o = word.to_le_bytes();
        }
        out
    }
}

/// One block of the MD5 compression function.
fn compress(state: &mut [u32; 4], block: &[u8; BLOCK_LEN]) {
    let mut m = [0u32; 16];
    for (mi, chunk) in m.iter_mut().zip(block.as_chunks::<4>().0) {
        *mi = u32::from_le_bytes(*chunk);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        b = b.wrapping_add(
            a.wrapping_add(f)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]),
        );
        a = tmp;
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot MD5.
pub fn md5(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Md5::new();
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
    fn rfc1321_vectors() {
        // RFC 1321 appendix A.5 test suite.
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex(&md5(input.as_bytes())), *want, "input {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), md5(&data), "split {split}");
        }
    }

    #[test]
    fn long_input_crosses_many_blocks() {
        // 1 MiB of 'x': value computed with a reference implementation.
        let data = vec![b'x'; 1 << 20];
        assert_eq!(hex(&md5(&data)), "b561f87202d04959e37588ee05cf5b10");
    }
}
