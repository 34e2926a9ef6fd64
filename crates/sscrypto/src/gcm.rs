//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! Covers the `aes-128-gcm`, `aes-192-gcm` and `aes-256-gcm` Shadowsocks
//! AEAD methods (salt sizes 16, 24 and 32 bytes respectively). GHASH
//! multiplies by the hash subkey with a per-key 4-bit Shoup table (16
//! precomputed H-multiples, two table lookups per nibble), built once
//! per session key alongside the AES key schedule.
//!
//! On CPUs with PCLMULQDQ the GHASH multiply dispatches to the
//! carry-less-multiply kernel in `crate::x86` (the Shoup table stays
//! compiled as the fallback and differential oracle), and the CTR
//! keystream runs through [`Aes::encrypt_blocks4`] so the AES-NI path
//! pipelines four blocks at a time. Selection happens once, at
//! [`AesGcm::new`] time.

use crate::aes::Aes;
use crate::hw::CpuFeatures;
use crate::AuthError;

/// GCM tag length in bytes (Shadowsocks always uses the full 16).
pub const TAG_LEN: usize = 16;

/// GCM nonce length in bytes (the 96-bit fast path; Shadowsocks AEAD
/// nonces are always 12 bytes).
pub const NONCE_LEN: usize = 12;

/// Multiply two GF(2^128) elements in the GCM bit order, one bit at a
/// time — the reference the Shoup-table path is tested against.
#[cfg(test)]
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z: u128 = 0;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// One GCM "halving" step: multiply by t (the bit-reversed x) in
/// GF(2^128) with the 0xe1 reduction polynomial.
const fn gf_half(v: u128) -> u128 {
    (v >> 1) ^ ((v & 1) * (0xe1 << 120))
}

/// Key-independent reduction table for the 4-bit Shoup walk:
/// `R4[b] = half⁴(b)`, the term the four bits shifted out of `z >> 4`
/// fold back in.
const R4: [u128; 16] = {
    let mut t = [0u128; 16];
    let mut b = 0;
    while b < 16 {
        let mut v = b as u128;
        let mut i = 0;
        while i < 4 {
            v = gf_half(v);
            i += 1;
        }
        t[b] = v;
        b += 1;
    }
    t
};

/// GHASH over the hash subkey `h`, as a per-key 4-bit Shoup table plus
/// an optional PCLMULQDQ fast path chosen at construction.
#[derive(Clone)]
struct GHash {
    /// `m[j]` is the multiple of H selected by the 4-bit nibble `j`
    /// (bit 3 ↦ H, bit 2 ↦ half(H), bit 1 ↦ half²(H), bit 0 ↦ half³(H);
    /// composites by linearity).
    m: [u128; 16],
    /// The subkey itself, for the carry-less-multiply path.
    h: u128,
    /// Dispatch to `crate::x86::ghash_mul` (snapshot said PCLMULQDQ).
    hw: bool,
}

impl GHash {
    fn new(h: [u8; 16], hw: bool) -> Self {
        let mut m = [0u128; 16];
        m[8] = u128::from_be_bytes(h);
        m[4] = gf_half(m[8]);
        m[2] = gf_half(m[4]);
        m[1] = gf_half(m[2]);
        for j in 0..16 {
            let mut acc = 0u128;
            for bit in [8, 4, 2, 1] {
                if j & bit != 0 {
                    acc ^= m[bit];
                }
            }
            m[j] = acc;
        }
        GHash {
            m,
            h: u128::from_be_bytes(h),
            hw,
        }
    }

    /// `z · H`, dispatching to the backend picked at construction.
    #[allow(unsafe_code, reason = "audited dispatch into `crate::x86`")]
    fn mul_h(&self, z: u128) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if self.hw {
            // SAFETY: `hw` is only set when the construction snapshot
            // reported PCLMULQDQ support (see `AesGcm::with_features`).
            return unsafe { crate::x86::ghash_mul(z, self.h) };
        }
        self.mul_h_scalar(z)
    }

    /// Scalar `z · H`, walking `z` a nibble at a time from the least
    /// significant end: two table lookups per nibble, 32 iterations per
    /// block instead of 128 bit tests. The differential oracle for the
    /// carry-less-multiply path.
    fn mul_h_scalar(&self, z: u128) -> u128 {
        let mut acc = 0u128;
        for k in 0..32 {
            let nib = ((z >> (4 * k)) & 0xf) as usize;
            acc = (acc >> 4) ^ R4[(acc & 0xf) as usize] ^ self.m[nib];
        }
        acc
    }

    /// Absorb data into `y`, zero-padded to a 16-byte boundary.
    fn update_padded(&self, y: &mut u128, mut data: &[u8]) {
        while let Some((block, rest)) = data.split_first_chunk::<16>() {
            *y = self.mul_h(*y ^ u128::from_be_bytes(*block));
            data = rest;
        }
        if !data.is_empty() {
            let mut block = [0u8; 16];
            block[..data.len()].copy_from_slice(data);
            *y = self.mul_h(*y ^ u128::from_be_bytes(block));
        }
    }

    fn finalize(&self, y: u128, aad_len: usize, ct_len: usize) -> [u8; 16] {
        let lens = ((aad_len as u128 * 8) << 64) | (ct_len as u128 * 8);
        self.mul_h(y ^ lens).to_be_bytes()
    }
}

/// AES-GCM instance bound to one key: the AES key schedule and the
/// GHASH Shoup table are both computed once here, not per call.
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    ghash: GHash,
}

impl AesGcm {
    /// Create an AES-GCM instance with a 16/24/32-byte key, snapshotting
    /// [`CpuFeatures::get`] once for both the AES and GHASH backends.
    pub fn new(key: &[u8]) -> Self {
        Self::with_features(key, CpuFeatures::get())
    }

    /// [`AesGcm::new`] with an explicit feature snapshot (differential
    /// tests pass [`CpuFeatures::none`] to force the scalar oracles).
    pub fn with_features(key: &[u8], feat: CpuFeatures) -> Self {
        let aes = Aes::with_features(key, feat);
        let h = aes.encrypt(&[0u8; 16]);
        AesGcm {
            aes,
            ghash: GHash::new(h, feat.pclmulqdq),
        }
    }

    fn counter_block(nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 16] {
        let mut j = [0u8; 16];
        j[..12].copy_from_slice(nonce);
        j[12..].copy_from_slice(&counter.to_be_bytes());
        j
    }

    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        let mut counter = 2u32; // counter 1 is reserved for the tag mask
                                // Four blocks per AES call: on the AES-NI path the four aesenc
                                // dependency chains pipeline; the keystream bytes are identical
                                // to the one-block-at-a-time loop by construction.
        let mut chunks = data.chunks_exact_mut(64);
        for chunk in chunks.by_ref() {
            let mut ks = [0u8; 64];
            for blk in ks.chunks_exact_mut(16) {
                blk.copy_from_slice(&Self::counter_block(nonce, counter));
                counter = counter.wrapping_add(1);
            }
            self.aes.encrypt_blocks4(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        for chunk in chunks.into_remainder().chunks_mut(16) {
            let ks = self.aes.encrypt(&Self::counter_block(nonce, counter));
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut y = 0u128;
        self.ghash.update_padded(&mut y, aad);
        self.ghash.update_padded(&mut y, ct);
        let s = self.ghash.finalize(y, aad.len(), ct.len());
        let mask = self.aes.encrypt(&Self::counter_block(nonce, 1));
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ mask[i];
        }
        tag
    }

    /// Encrypt `plaintext` in place and return the tag.
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; TAG_LEN] {
        self.ctr_xor(nonce, data);
        self.tag(nonce, aad, data)
    }

    /// Verify the tag, then decrypt `ciphertext` in place.
    ///
    /// On tag mismatch the data is left untouched and `AuthError` is
    /// returned.
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError> {
        let want = self.tag(nonce, aad, data);
        if !crate::ct_eq(&want, tag) {
            return Err(AuthError);
        }
        self.ctr_xor(nonce, data);
        Ok(())
    }
}

/// Differential-test hook for the `crypto_props` suite: GHASH over
/// `data` (zero-padded to a block boundary) with the backend named by
/// `hw` — pass `false` for the Shoup-table oracle, `true` only when the
/// CPU reports PCLMULQDQ.
#[doc(hidden)]
pub fn ghash_oracle(h: [u8; 16], data: &[u8], hw: bool) -> [u8; 16] {
    let gh = GHash::new(h, hw);
    let mut y = 0u128;
    gh.update_padded(&mut y, data);
    y.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // McGrew & Viega GCM spec test case 1: empty everything, AES-128.
    #[test]
    fn gcm_spec_case1() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let nonce = [0u8; 12];
        let mut data = [];
        let tag = gcm.seal_in_place(&nonce, &[], &mut data);
        assert_eq!(hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    // Test case 2: single zero block.
    #[test]
    fn gcm_spec_case2() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let nonce = [0u8; 12];
        let mut data = [0u8; 16];
        let tag = gcm.seal_in_place(&nonce, &[], &mut data);
        assert_eq!(hex(&data), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    // Test case 4: AAD + multi-block plaintext, AES-128.
    #[test]
    fn gcm_spec_case4() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
        let mut data = unhex(
            "d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let gcm = AesGcm::new(&key);
        let tag = gcm.seal_in_place(&nonce, &aad, &mut data);
        assert_eq!(
            hex(&data),
            "42831ec2217774244b7221b784d0d49c\
             e3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa05\
             1ba30b396a0aac973d58e091"
                .replace(' ', "")
        );
        assert_eq!(hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    }

    // Test case 16: AES-256 with AAD.
    #[test]
    fn gcm_spec_case16() {
        let key = unhex(
            "feffe9928665731c6d6a8f9467308308\
             feffe9928665731c6d6a8f9467308308",
        );
        let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
        let mut data = unhex(
            "d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b39",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let gcm = AesGcm::new(&key);
        let tag = gcm.seal_in_place(&nonce, &aad, &mut data);
        assert_eq!(
            hex(&data),
            "522dc1f099567d07f47f37a32a84427d\
             643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838\
             c5f61e6393ba7a0abcc9f662"
                .replace(' ', "")
        );
        assert_eq!(hex(&tag), "76fc6ece0f4e1768cddf8853bb2d551b");
    }

    #[test]
    fn shoup_table_matches_bit_by_bit_edges() {
        for h in [0u128, 1, u128::MAX, 0xe1 << 120, 0x8000_0000_0000_0000] {
            let gh = GHash::new(h.to_be_bytes(), false);
            for z in [0u128, 1, 2, u128::MAX, h, !h, 0xdead_beef] {
                assert_eq!(gh.mul_h(z), gf_mul(z, h), "h={h:x} z={z:x}");
            }
        }
    }

    proptest::proptest! {
        // The per-key Shoup table is a pure optimization of gf_mul:
        // identical on arbitrary field elements.
        #[test]
        fn shoup_table_matches_bit_by_bit(
            h in proptest::prelude::any::<u128>(),
            z in proptest::prelude::any::<u128>(),
        ) {
            let gh = GHash::new(h.to_be_bytes(), false);
            proptest::prop_assert_eq!(gh.mul_h(z), gf_mul(z, h));
        }

        // The carry-less-multiply kernel is pinned to the same bit-level
        // reference (and hence to the Shoup table) on arbitrary field
        // elements, whenever the CPU can run it.
        #[test]
        fn clmul_matches_bit_by_bit(
            h in proptest::prelude::any::<u128>(),
            z in proptest::prelude::any::<u128>(),
        ) {
            if crate::hw::CpuFeatures::detect_with(false).pclmulqdq {
                let gh = GHash::new(h.to_be_bytes(), true);
                proptest::prop_assert_eq!(gh.mul_h(z), gf_mul(z, h));
            }
        }
    }

    #[test]
    fn roundtrip_and_tamper_detection() {
        let gcm = AesGcm::new(&[7u8; 32]);
        let nonce = [1u8; 12];
        let plain = b"attack at dawn".to_vec();
        let mut data = plain.clone();
        let tag = gcm.seal_in_place(&nonce, b"hdr", &mut data);
        // Roundtrip.
        let mut dec = data.clone();
        gcm.open_in_place(&nonce, b"hdr", &mut dec, &tag).unwrap();
        assert_eq!(dec, plain);
        // Tampered ciphertext fails and leaves data untouched.
        let mut bad = data.clone();
        bad[0] ^= 1;
        let snapshot = bad.clone();
        assert_eq!(
            gcm.open_in_place(&nonce, b"hdr", &mut bad, &tag),
            Err(AuthError)
        );
        assert_eq!(bad, snapshot);
        // Wrong AAD fails.
        let mut ct = data.clone();
        assert_eq!(
            gcm.open_in_place(&nonce, b"HDR", &mut ct, &tag),
            Err(AuthError)
        );
    }
}
