//! AES block cipher (FIPS 197) supporting 128/192/256-bit keys.
//!
//! Encryption runs on compile-time T-tables (`TE0..TE3`): each table
//! entry is a whole MixColumns column for one S-boxed input byte, so a
//! round is 16 lookups and 16 XORs on `u32` words instead of byte-wise
//! SubBytes/ShiftRows/MixColumns. Used by the CTR, CFB and GCM modes in
//! this crate, which together cover the `aes-*-ctr`, `aes-*-cfb` and
//! `aes-*-gcm` Shadowsocks methods.
//!
//! When the CPU reports AES-NI (see [`crate::hw`]), block encryption
//! dispatches to the `aesenc` kernels in `crate::x86` — selected once
//! at [`Aes::new`] time — and the key schedule itself runs on
//! `aeskeygenassist` for 128/256-bit keys. The T-table path stays
//! compiled as the differential oracle (`GFWSIM_NO_HWCRYPTO=1`).
//!
//! ## Key schedule cost
//!
//! An [`Aes`] keeps its round keys in fixed-size arrays and fills only
//! the form its backend reads: on AES-NI, 128/256-bit keys never run
//! the scalar word expansion. Setup therefore allocates nothing, which
//! every AES-GCM session (one subkey per salt) benefits from. The
//! stream methods go further: their key is the master key itself, so
//! a config expands it once and every stream shares that schedule
//! (see [`crate::method::StreamKey`]).
//!
//! ## Batching
//!
//! [`Aes::encrypt_blocks4`] is the shape of every mode whose keystream
//! inputs are known ahead: CTR and GCM (counter blocks) and CFB
//! decryption (the previous ciphertext blocks). CFB encryption cannot
//! batch: each block's input is the ciphertext block just produced.

use crate::hw::CpuFeatures;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const fn xtime(b: u8) -> u8 {
    // GF(2^8) doubling: the high bit is deliberately shifted out and
    // folded back in via the reduction polynomial term (0x1b).
    // gfwlint: allow(W1) -- truncating shift is the GF(2^8) reduction
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// `TE0[x]` is the MixColumns output column for a row-0 byte `x` after
/// SubBytes, packed big-endian: `[2·S(x), S(x), S(x), 3·S(x)]`. Rows
/// 1–3 use the same column rotated (TE1–TE3), which is exactly what
/// ShiftRows feeds MixColumns.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s1 = s as u32;
        let s2 = xtime(s) as u32;
        let s3 = s2 ^ s1;
        t[i] = (s2 << 24) | (s1 << 16) | (s1 << 8) | s3;
        i += 1;
    }
    t
};

const fn rotr_table(src: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(bits);
        i += 1;
    }
    t
}

const TE1: [u32; 256] = rotr_table(&TE0, 8);
const TE2: [u32; 256] = rotr_table(&TE0, 16);
const TE3: [u32; 256] = rotr_table(&TE0, 24);

/// Round keys in the largest schedule (AES-256: 14 rounds plus the
/// initial whitening key). Smaller keys leave the tail unused.
const MAX_ROUND_KEYS: usize = 15;

/// An AES key schedule, ready to encrypt blocks.
///
/// Only encryption is implemented: CTR, CFB (both directions) and GCM use
/// the forward cipher exclusively, and those are the only modes
/// Shadowsocks needs.
///
/// The schedule lives in fixed-size arrays, so building one allocates
/// nothing and cloning one is a copy. Only the form the chosen backend
/// reads is filled in.
#[derive(Clone)]
pub struct Aes {
    /// One `[u32; 4]` per round: word `c` is column `c`, big-endian.
    /// Filled only for the scalar T-table backend.
    round_keys: [[u32; 4]; MAX_ROUND_KEYS],
    /// Byte-form round keys, filled only for the AES-NI backend.
    rk_bytes: [[u8; 16]; MAX_ROUND_KEYS],
    rounds: usize,
    /// Set when this instance dispatches to the AES-NI kernels.
    hw: bool,
}

impl Aes {
    /// Build a key schedule. `key` must be 16, 24 or 32 bytes.
    ///
    /// Snapshots [`CpuFeatures::get`] to pick the AES-NI or scalar
    /// backend for the lifetime of this instance.
    ///
    /// # Panics
    ///
    /// Panics on any other key length.
    pub fn new(key: &[u8]) -> Self {
        Self::with_features(key, CpuFeatures::get())
    }

    /// [`Aes::new`] with an explicit feature snapshot (differential
    /// tests pass [`CpuFeatures::none`] to force the scalar oracle).
    ///
    /// # Panics
    ///
    /// Panics on invalid key lengths, like [`Aes::new`].
    #[expect(
        clippy::panic,
        reason = "documented `# Panics`: AES has no key of other than 16, 24 or 32 bytes"
    )]
    pub fn with_features(key: &[u8], feat: CpuFeatures) -> Self {
        let rounds = match key.len() {
            16 => 10,
            24 => 12,
            32 => 14,
            n => panic!("invalid AES key length {n}"),
        };
        let hw = cfg!(target_arch = "x86_64") && feat.aes;
        let mut aes = Aes {
            round_keys: [[0; 4]; MAX_ROUND_KEYS],
            rk_bytes: [[0; 16]; MAX_ROUND_KEYS],
            rounds,
            hw,
        };
        if hw {
            aes.rk_bytes = hw_round_keys(key);
        } else {
            aes.round_keys = expand_words(key);
        }
        aes
    }

    /// True when this instance dispatches to the AES-NI kernels.
    pub fn is_hw(&self) -> bool {
        self.hw
    }

    /// The AES-NI round keys actually in use (`rounds + 1` of them).
    #[cfg(target_arch = "x86_64")]
    fn hw_keys(&self) -> &[[u8; 16]] {
        &self.rk_bytes[..=self.rounds]
    }

    /// Encrypt a single 16-byte block in place.
    #[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.hw {
            // SAFETY: `hw` is only set when the construction snapshot
            // reported AES-NI support (see `with_features`).
            unsafe { crate::x86::aes_encrypt1(self.hw_keys(), block) };
            return;
        }
        self.encrypt_block_scalar(block);
    }

    /// Encrypt four contiguous 16-byte blocks in place — the batch
    /// shape of CTR, GCM and CFB decryption, pipelined on the AES-NI
    /// path.
    #[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
    pub fn encrypt_blocks4(&self, blocks: &mut [u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if self.hw {
            // SAFETY: `hw` is only set when the construction snapshot
            // reported AES-NI support (see `with_features`).
            unsafe { crate::x86::aes_encrypt4(self.hw_keys(), blocks) };
            return;
        }
        let mut off = 0;
        while off < 64 {
            let mut b = [0u8; 16];
            b.copy_from_slice(&blocks[off..off + 16]);
            self.encrypt_block_scalar(&mut b);
            blocks[off..off + 16].copy_from_slice(&b);
            off += 16;
        }
    }

    /// Scalar (T-table) single-block encryption: the differential
    /// oracle for the AES-NI path.
    ///
    /// State columns live in big-endian `u32`s (column `c` is
    /// `block[4c..4c+4]`, row 0 in the high byte); each T-table lookup
    /// covers SubBytes, ShiftRows and MixColumns for one byte.
    fn encrypt_block_scalar(&self, block: &mut [u8; 16]) {
        let mut s = [
            be32(block, 0) ^ self.round_keys[0][0],
            be32(block, 4) ^ self.round_keys[0][1],
            be32(block, 8) ^ self.round_keys[0][2],
            be32(block, 12) ^ self.round_keys[0][3],
        ];
        for round in 1..self.rounds {
            let rk = &self.round_keys[round];
            s = [
                te(s[0], s[1], s[2], s[3]) ^ rk[0],
                te(s[1], s[2], s[3], s[0]) ^ rk[1],
                te(s[2], s[3], s[0], s[1]) ^ rk[2],
                te(s[3], s[0], s[1], s[2]) ^ rk[3],
            ];
        }
        // Final round: SubBytes + ShiftRows only.
        let rk = &self.round_keys[self.rounds];
        let out = [
            sub_word(s[0], s[1], s[2], s[3]) ^ rk[0],
            sub_word(s[1], s[2], s[3], s[0]) ^ rk[1],
            sub_word(s[2], s[3], s[0], s[1]) ^ rk[2],
            sub_word(s[3], s[0], s[1], s[2]) ^ rk[3],
        ];
        for (chunk, w) in block.chunks_exact_mut(4).zip(out) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
    }

    /// Encrypt a block, returning the ciphertext.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// XOR `ks` into `data` sixteen bytes at a time, each lane one `u128`.
/// Both slices have the same length, a multiple of [`BLOCK_LEN`].
pub(crate) fn xor_blocks(data: &mut [u8], ks: &[u8]) {
    for (d, k) in data
        .chunks_exact_mut(BLOCK_LEN)
        .zip(ks.chunks_exact(BLOCK_LEN))
    {
        let x = lane(d) ^ lane(k);
        d.copy_from_slice(&x.to_ne_bytes());
    }
}

/// One 16-byte lane as a `u128` (byte order is irrelevant to XOR).
fn lane(b: &[u8]) -> u128 {
    let mut a = [0u8; BLOCK_LEN];
    a.copy_from_slice(b);
    u128::from_ne_bytes(a)
}

/// The FIPS 197 key expansion in word form (big-endian columns). The
/// scalar backend's schedule, and the AES-NI backend's for 192-bit
/// keys.
fn expand_words(key: &[u8]) -> [[u32; 4]; MAX_ROUND_KEYS] {
    let nk = key.len() / 4;
    // Nr + 1 round keys of four words, Nr = Nk + 6.
    let nwords = 4 * (nk + 7);
    let mut w = [0u32; 4 * MAX_ROUND_KEYS];
    for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
        *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let mut rcon = 1u8;
    for i in nk..nwords {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp = sub_bytes(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
            rcon = xtime(rcon);
        } else if nk > 6 && i % nk == 4 {
            temp = sub_bytes(temp);
        }
        w[i] = w[i - nk] ^ temp;
    }
    let mut rk = [[0u32; 4]; MAX_ROUND_KEYS];
    for (r, c) in rk.iter_mut().zip(w.chunks_exact(4)) {
        *r = [c[0], c[1], c[2], c[3]];
    }
    rk
}

/// SubWord: the S-box applied to each byte of a word.
fn sub_bytes(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// Byte-form round keys for the AES-NI path. 128/256-bit keys run the
/// `aeskeygenassist` schedule alone; 192-bit keys (whose SSE schedule
/// needs an awkward 6-word stride) serialize the scalar word expansion
/// instead. `hw_schedule_matches_scalar` pins all three sizes to the
/// same round keys.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
fn hw_round_keys(key: &[u8]) -> [[u8; 16]; MAX_ROUND_KEYS] {
    match key.len() {
        16 => {
            let mut k = [0u8; 16];
            k.copy_from_slice(key);
            let mut rk = [[0u8; 16]; MAX_ROUND_KEYS];
            // SAFETY: only called when the construction snapshot
            // reported AES-NI support (`feat.aes`).
            rk[..11].copy_from_slice(&unsafe { crate::x86::aes128_schedule(&k) });
            rk
        }
        32 => {
            let mut k = [0u8; 32];
            k.copy_from_slice(key);
            // SAFETY: only called when the construction snapshot
            // reported AES-NI support (`feat.aes`).
            unsafe { crate::x86::aes256_schedule(&k) }
        }
        _ => words_to_bytes(&expand_words(key)),
    }
}

/// `hw` is never set off x86_64, so this is dead; it exists so
/// `with_features` compiles unconditionally.
#[cfg(not(target_arch = "x86_64"))]
fn hw_round_keys(key: &[u8]) -> [[u8; 16]; MAX_ROUND_KEYS] {
    words_to_bytes(&expand_words(key))
}

/// Serialize word-form round keys (big-endian columns) to the raw byte
/// form `aesenc` consumes.
fn words_to_bytes(words: &[[u32; 4]; MAX_ROUND_KEYS]) -> [[u8; 16]; MAX_ROUND_KEYS] {
    let mut out = [[0u8; 16]; MAX_ROUND_KEYS];
    for (b, w) in out.iter_mut().zip(words) {
        for (chunk, col) in b.chunks_exact_mut(4).zip(w) {
            chunk.copy_from_slice(&col.to_be_bytes());
        }
    }
    out
}

fn be32(b: &[u8; 16], i: usize) -> u32 {
    // gfwlint: allow(W1) -- i is 0/4/8/12; the indexing bounds-checks
    u32::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
}

/// One main-round output column from the four shifted input columns
/// (`a` supplies row 0, `b` row 1, `c` row 2, `d` row 3).
#[inline(always)]
fn te(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE0[(a >> 24) as usize]
        ^ TE1[((b >> 16) & 0xff) as usize]
        ^ TE2[((c >> 8) & 0xff) as usize]
        ^ TE3[(d & 0xff) as usize]
}

/// Final-round output column: SubBytes and ShiftRows without MixColumns.
#[inline(always)]
fn sub_word(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((SBOX[(a >> 24) as usize] as u32) << 24)
        | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(d & 0xff) as usize] as u32)
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

    fn check(key_hex: &str, pt_hex: &str, ct_hex: &str) {
        let aes = Aes::new(&unhex(key_hex));
        let pt: [u8; 16] = unhex(pt_hex).try_into().unwrap();
        let ct: [u8; 16] = unhex(ct_hex).try_into().unwrap();
        assert_eq!(aes.encrypt(&pt), ct);
    }

    // FIPS 197 appendix C example vectors.
    #[test]
    fn fips197_aes128() {
        check(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn fips197_aes192() {
        check(
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "00112233445566778899aabbccddeeff",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        );
    }

    #[test]
    fn fips197_aes256() {
        check(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    // NIST SP 800-38A F.1.1 (ECB-AES128) first block.
    #[test]
    fn sp800_38a_ecb128() {
        check(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "6bc1bee22e409f96e93d7e117393172a",
            "3ad77bb40d7a3660a89ecaf32466ef97",
        );
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn rejects_bad_key_len() {
        let _ = Aes::new(&[0u8; 17]);
    }

    /// The `aeskeygenassist` schedule must reproduce the FIPS 197 word
    /// expansion exactly, for every key size that takes the HW path.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hw_schedule_matches_scalar() {
        use crate::hw::CpuFeatures;
        let feat = CpuFeatures::detect_with(false);
        if !feat.aes {
            return;
        }
        for len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..len as u8)
                .map(|b| b.wrapping_mul(37).wrapping_add(11))
                .collect();
            let hw = Aes::with_features(&key, feat);
            let scalar = Aes::with_features(&key, CpuFeatures::none());
            assert_eq!(hw.rounds, scalar.rounds);
            assert_eq!(
                hw.rk_bytes,
                words_to_bytes(&scalar.round_keys),
                "key len {len}"
            );
            // Unused tail slots stay zero, so the whole arrays compare.
            assert!(hw.rk_bytes[hw.rounds + 1..].iter().all(|k| *k == [0; 16]));
        }
    }

    /// HW and scalar block encryption agree, including the 4-block
    /// batch entry point.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hw_blocks_match_scalar() {
        use crate::hw::CpuFeatures;
        let feat = CpuFeatures::detect_with(false);
        if !feat.aes {
            return;
        }
        for len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..len as u8)
                .map(|b| b.wrapping_mul(29).wrapping_add(3))
                .collect();
            let hw = Aes::with_features(&key, feat);
            let sc = Aes::with_features(&key, CpuFeatures::none());
            assert!(hw.is_hw() && !sc.is_hw());
            let mut batch = [0u8; 64];
            for (i, b) in batch.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(17).wrapping_add(5);
            }
            let mut batch_sc = batch;
            for off in [0usize, 16, 32, 48] {
                let mut blk = [0u8; 16];
                blk.copy_from_slice(&batch[off..off + 16]);
                assert_eq!(hw.encrypt(&blk), sc.encrypt(&blk));
            }
            hw.encrypt_blocks4(&mut batch);
            sc.encrypt_blocks4(&mut batch_sc);
            assert_eq!(batch, batch_sc);
        }
    }
}
