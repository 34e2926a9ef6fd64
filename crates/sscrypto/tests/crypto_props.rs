//! Differential property tests for the batched crypto fast paths.
//!
//! The batched implementations (4-block ChaCha20 keystream, 4-block
//! Poly1305 accumulation, Shoup-table GHASH — the last is pinned by an
//! in-module proptest against the bit-by-bit `gf_mul` reference, which
//! is not public) must be byte-identical to the scalar paths they
//! replace. Each property drives the same primitive down both paths:
//! small segments keep the scalar single-block code in play, large
//! buffers hit the batch loops, and the outputs must agree exactly.

use proptest::prelude::*;
use sscrypto::chacha20::{ChaCha20, ChaCha20Legacy};
use sscrypto::method::{Kind, Method, ALL_METHODS};
use sscrypto::poly1305::Poly1305;

/// Split `data` at the given fractional cut points.
fn segments(data: &[u8], cuts: &[f64]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|f| ((data.len() as f64) * f) as usize)
        .collect();
    points.sort_unstable();
    points.dedup();
    let mut out = Vec::new();
    let mut prev = 0;
    for p in points {
        if p > prev && p < data.len() {
            out.push(data[prev..p].to_vec());
            prev = p;
        }
    }
    out.push(data[prev..].to_vec());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ChaCha20 (IETF): one big `apply` (4-block batches) produces the
    /// same keystream as applying the same bytes in arbitrary small
    /// segments (single-block scalar path plus partial-block carry).
    #[test]
    fn chacha20_batched_matches_segmented(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        len in 1usize..2048,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..10),
        fill in any::<u8>(),
    ) {
        let data = vec![fill; len];
        let mut whole = data.clone();
        ChaCha20::new(&key, &nonce, counter).apply(&mut whole);

        let mut parts = Vec::new();
        let mut cipher = ChaCha20::new(&key, &nonce, counter);
        for mut seg in segments(&data, &cuts) {
            cipher.apply(&mut seg);
            parts.extend_from_slice(&seg);
        }
        prop_assert_eq!(whole, parts);
    }

    /// ChaCha20 (legacy 64-bit counter): same property; the batch path
    /// must carry the counter across the word-12/13 boundary exactly
    /// like the scalar path.
    #[test]
    fn chacha20_legacy_batched_matches_segmented(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 8]>(),
        len in 1usize..2048,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..10),
        fill in any::<u8>(),
    ) {
        let data = vec![fill; len];
        let mut whole = data.clone();
        ChaCha20Legacy::new(&key, &nonce).apply(&mut whole);

        let mut parts = Vec::new();
        let mut cipher = ChaCha20Legacy::new(&key, &nonce);
        for mut seg in segments(&data, &cuts) {
            cipher.apply(&mut seg);
            parts.extend_from_slice(&seg);
        }
        prop_assert_eq!(whole, parts);
    }

    /// Poly1305: a one-shot update (4-block parallel-Horner path with
    /// precomputed r^2..r^4) produces the same tag as feeding the same
    /// message in sub-16-byte slivers (pure scalar path).
    #[test]
    fn poly1305_batched_matches_incremental(
        key in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..1024),
        sliver in 1usize..16,
    ) {
        let mut one_shot = Poly1305::new(&key);
        one_shot.update(&msg);

        let mut incremental = Poly1305::new(&key);
        for chunk in msg.chunks(sliver) {
            incremental.update(chunk);
        }
        prop_assert_eq!(one_shot.finalize(), incremental.finalize());
    }

    /// Every AEAD method: seal/open round-trips through the batched
    /// fast paths (tabled GHASH for GCM, batched ChaCha20/Poly1305),
    /// and a one-bit tamper anywhere in ciphertext or tag is rejected.
    #[test]
    fn aead_seal_open_roundtrip_and_tamper(
        midx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..600),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        flip_pos in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let of_kind: Vec<Method> = ALL_METHODS
            .iter()
            .copied()
            .filter(|m| m.kind() == Kind::Aead)
            .collect();
        let m = of_kind[midx % of_kind.len()];
        let key = sscrypto::kdf::evp_bytes_to_key(b"crypto-props", m.key_len());
        let cipher = m.new_aead(&key);
        let nonce = vec![0x24u8; cipher.nonce_len()];

        let mut buf = plain.clone();
        let tag = cipher.seal(&nonce, &aad, &mut buf);
        let mut opened = buf.clone();
        let ok = cipher.open(&nonce, &aad, &mut opened, &tag);
        prop_assert!(ok.is_ok(), "{}: round-trip failed", m.name());
        prop_assert_eq!(&opened, &plain, "{}", m.name());

        // Tamper: flip one bit in the ciphertext-plus-tag and re-open.
        let total = buf.len() + tag.len();
        let pos = ((total as f64) * flip_pos) as usize % total;
        let mut tampered_ct = buf.clone();
        let mut tampered_tag = tag;
        if pos < tampered_ct.len() {
            tampered_ct[pos] ^= 1 << flip_bit;
        } else {
            tampered_tag[pos - tampered_ct.len()] ^= 1 << flip_bit;
        }
        prop_assert!(
            cipher.open(&nonce, &aad, &mut tampered_ct, &tampered_tag).is_err(),
            "{}: bit {} of byte {} flipped undetected",
            m.name(), flip_bit, pos
        );
    }
}

// ---------------------------------------------------------------------------
// Hardware vs scalar differentials (PR 9).
//
// Each property instantiates the same primitive twice — once with the
// detected feature snapshot (AES-NI / PCLMULQDQ / SSSE3 / AVX2 paths when
// the CPU has them) and once with `CpuFeatures::none()` (the PR-5 scalar
// oracles) — and requires byte-identical output. On machines without the
// features both sides run scalar and the properties degrade to self-
// consistency checks; CI runs on x86_64 with all four features present.
// ---------------------------------------------------------------------------

use sscrypto::aes::Aes;
use sscrypto::cfb::Direction;
use sscrypto::gcm::ghash_oracle;
use sscrypto::hkdf::{hkdf, ss_subkey, SS_SUBKEY_INFO};
use sscrypto::hw::CpuFeatures;
use sscrypto::sha1::Sha1;
use sscrypto::sha256::Sha256;

/// The feature snapshot the differential properties test against: raw
/// detection, ignoring `GFWSIM_NO_HWCRYPTO` so the suite still
/// exercises the hardware paths when it is itself run under the
/// forced-scalar CI leg.
fn detected() -> CpuFeatures {
    CpuFeatures::detect_with(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AES-NI single blocks and 4-block batches match the scalar cipher
    /// for all three key sizes.
    #[test]
    fn aes_hw_matches_scalar(
        key in proptest::collection::vec(any::<u8>(), 16..=32),
        block in any::<[u8; 16]>(),
        batch in any::<[u8; 32]>(),
    ) {
        let key = match key.len() {
            16..=23 => &key[..16],
            24..=31 => &key[..24],
            _ => &key[..32],
        };
        let hw = Aes::with_features(key, detected());
        let scalar = Aes::with_features(key, CpuFeatures::none());
        prop_assert!(!scalar.is_hw());

        let mut a = block;
        let mut b = block;
        hw.encrypt_block(&mut a);
        scalar.encrypt_block(&mut b);
        prop_assert_eq!(a, b, "single block, key len {}", key.len());

        let mut four = [0u8; 64];
        four[..32].copy_from_slice(&batch);
        four[32..].copy_from_slice(&batch);
        let mut c = four;
        hw.encrypt_blocks4(&mut four);
        scalar.encrypt_blocks4(&mut c);
        prop_assert_eq!(four, c, "4-block batch, key len {}", key.len());
    }

    /// CLMUL GHASH matches the Shoup-table scalar oracle on arbitrary
    /// data and arbitrary segmentation (segmentation is irrelevant to
    /// GHASH itself but exercises the padded-block assembly).
    #[test]
    fn ghash_hw_matches_scalar(
        h in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert_eq!(
            ghash_oracle(h, &data, detected().pclmulqdq),
            ghash_oracle(h, &data, false)
        );
    }

    /// SSSE3/AVX2 ChaCha20 keystream matches the scalar oracle across
    /// arbitrary lengths and segmentations (hitting the 512-byte AVX2
    /// batch, the 256-byte SSSE3 batch, single blocks, and partial-block
    /// carry between segments).
    #[test]
    fn chacha20_hw_matches_scalar(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        len in 1usize..4096,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let data = vec![0u8; len];
        let mut hw_out = Vec::new();
        let mut scalar_out = Vec::new();
        let mut hw = ChaCha20::with_features(&key, &nonce, counter, detected());
        let mut scalar = ChaCha20::with_features(&key, &nonce, counter, CpuFeatures::none());
        for seg in segments(&data, &cuts) {
            let mut a = seg.clone();
            let mut b = seg;
            hw.apply(&mut a);
            scalar.apply(&mut b);
            hw_out.extend_from_slice(&a);
            scalar_out.extend_from_slice(&b);
        }
        prop_assert_eq!(hw_out, scalar_out);
    }

    /// Every AEAD method: hardware seal equals scalar seal byte for
    /// byte (ciphertext and tag), and each side opens the other's
    /// output.
    #[test]
    fn aead_hw_matches_scalar(
        midx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..2048),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        nonce_fill in any::<u8>(),
    ) {
        let of_kind: Vec<Method> = ALL_METHODS
            .iter()
            .copied()
            .filter(|m| m.kind() == Kind::Aead)
            .collect();
        let m = of_kind[midx % of_kind.len()];
        let key = sscrypto::kdf::evp_bytes_to_key(b"hw-vs-scalar", m.key_len());
        let hw = m.new_aead_with(&key, detected());
        let scalar = m.new_aead_with(&key, CpuFeatures::none());
        let nonce = vec![nonce_fill; hw.nonce_len()];

        let mut ct_hw = plain.clone();
        let tag_hw = hw.seal(&nonce, &aad, &mut ct_hw);
        let mut ct_scalar = plain.clone();
        let tag_scalar = scalar.seal(&nonce, &aad, &mut ct_scalar);
        prop_assert_eq!(&ct_hw, &ct_scalar, "{}: ciphertext differs", m.name());
        prop_assert_eq!(tag_hw, tag_scalar, "{}: tag differs", m.name());

        // Cross-open: scalar opens the hardware ciphertext and vice versa.
        let mut cross = ct_hw.clone();
        prop_assert!(scalar.open(&nonce, &aad, &mut cross, &tag_hw).is_ok());
        prop_assert_eq!(&cross, &plain, "{}", m.name());
        let mut cross = ct_scalar;
        prop_assert!(hw.open(&nonce, &aad, &mut cross, &tag_scalar).is_ok());
        prop_assert_eq!(&cross, &plain, "{}", m.name());
    }

    /// Every stream method: hardware encrypt equals scalar encrypt, and
    /// the scalar decryptor round-trips the hardware ciphertext.
    #[test]
    fn stream_hw_matches_scalar(
        midx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..2048),
        iv_fill in any::<u8>(),
    ) {
        let of_kind: Vec<Method> = ALL_METHODS
            .iter()
            .copied()
            .filter(|m| m.kind() == Kind::Stream)
            .collect();
        let m = of_kind[midx % of_kind.len()];
        let key = sscrypto::kdf::evp_bytes_to_key(b"hw-vs-scalar", m.key_len());
        let iv = vec![iv_fill; m.iv_len()];

        let mut ct_hw = plain.clone();
        m.new_stream_with(&key, &iv, Direction::Encrypt, detected())
            .apply(&mut ct_hw);
        let mut ct_scalar = plain.clone();
        m.new_stream_with(&key, &iv, Direction::Encrypt, CpuFeatures::none())
            .apply(&mut ct_scalar);
        prop_assert_eq!(&ct_hw, &ct_scalar, "{}: ciphertext differs", m.name());

        let mut rt = ct_hw;
        m.new_stream_with(&key, &iv, Direction::Decrypt, CpuFeatures::none())
            .apply(&mut rt);
        prop_assert_eq!(&rt, &plain, "{}: round-trip differs", m.name());
    }
}

// ---------------------------------------------------------------------------
// Whole-block CFB/CTR against a byte-at-a-time reference.
//
// `AesCfb::apply` and `AesCtr::apply` XOR whole blocks as `u128` lanes
// and batch four blocks per AES call where the keystream inputs are
// known in advance (CFB decryption, CTR). The references below are the
// modes as SP 800-38A states them, one byte at a time on top of
// `Aes::encrypt`; any segmentation of any length must match them.
// ---------------------------------------------------------------------------

use sscrypto::cfb::AesCfb;
use sscrypto::ctr::AesCtr;

/// CFB128, one byte at a time: each block's keystream is the cipher of
/// the previous ciphertext block (the IV for the first).
fn cfb_reference(aes: &Aes, iv: [u8; 16], dir: Direction, data: &[u8]) -> Vec<u8> {
    let mut register = iv;
    let mut ks = [0u8; 16];
    let mut out = Vec::with_capacity(data.len());
    for (i, &byte) in data.iter().enumerate() {
        let j = i % 16;
        if j == 0 {
            ks = aes.encrypt(&register);
        }
        let o = byte ^ ks[j];
        register[j] = match dir {
            Direction::Encrypt => o,
            Direction::Decrypt => byte,
        };
        out.push(o);
    }
    out
}

/// CTR, one byte at a time: block `n` of keystream is the cipher of the
/// IV plus `n`, a 128-bit big-endian counter.
fn ctr_reference(aes: &Aes, iv: [u8; 16], data: &[u8]) -> Vec<u8> {
    let mut counter = u128::from_be_bytes(iv);
    let mut ks = [0u8; 16];
    let mut out = Vec::with_capacity(data.len());
    for (i, &byte) in data.iter().enumerate() {
        let j = i % 16;
        if j == 0 {
            ks = aes.encrypt(&counter.to_be_bytes());
            counter = counter.wrapping_add(1);
        }
        out.push(byte ^ ks[j]);
    }
    out
}

/// Feed `data` to `apply` in the segments `cuts` gives, concatenating
/// the output.
fn apply_segmented(data: &[u8], cuts: &[f64], mut apply: impl FnMut(&mut [u8])) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for mut seg in segments(data, cuts) {
        apply(&mut seg);
        out.extend_from_slice(&seg);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CFB (both directions) and CTR under arbitrary segmentation equal
    /// the byte-at-a-time references, for every key size and on both
    /// the detected and the scalar backend. Lengths up to 4 KiB cut at
    /// up to eight points put partial heads and tails, lone blocks and
    /// 4-block batches all in play.
    #[test]
    fn aes_modes_match_bytewise_reference(
        key in proptest::collection::vec(any::<u8>(), 32),
        key_len in prop_oneof![Just(16usize), Just(24), Just(32)],
        iv in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
    ) {
        let key = &key[..key_len];
        for feat in [detected(), CpuFeatures::none()] {
            let aes = Aes::with_features(key, feat);
            for dir in [Direction::Encrypt, Direction::Decrypt] {
                let mut cfb = AesCfb::with_features(key, &iv, dir, feat);
                let got = apply_segmented(&data, &cuts, |seg| cfb.apply(seg));
                prop_assert_eq!(
                    got,
                    cfb_reference(&aes, iv, dir, &data),
                    "CFB {:?}, key len {}, {:?}", dir, key_len, feat
                );
            }
            let mut ctr = AesCtr::with_features(key, &iv, feat);
            let got = apply_segmented(&data, &cuts, |seg| ctr.apply(seg));
            prop_assert_eq!(
                got,
                ctr_reference(&aes, iv, &data),
                "CTR, key len {}, {:?}", key_len, feat
            );
        }
    }
}

/// Feed `data` to `update` in the pieces `cuts` makes of it.
fn update_segmented(data: &[u8], cuts: &[f64], mut update: impl FnMut(&[u8])) {
    for seg in segments(data, cuts) {
        update(&seg);
    }
}

/// The generic HMAC and HKDF this crate shipped before HMAC kept its
/// keyed states: a fresh HMAC, and so a fresh `key ^ ipad` block, for
/// every Expand block, the outer `key ^ opad` block absorbed only at
/// `finalize`, and every digest and key a `Vec`. Kept as the oracle for
/// `ss_subkey` and `hkdf`, on the scalar SHA-1.
mod oracle {
    use sscrypto::hw::CpuFeatures;
    use sscrypto::sha1::Sha1;

    const BLOCK_LEN: usize = 64;

    fn hasher() -> Sha1 {
        Sha1::with_features(CpuFeatures::none())
    }

    fn digest(h: Sha1) -> Vec<u8> {
        h.finalize().to_vec()
    }

    struct Hmac {
        inner: Sha1,
        opad_key: Vec<u8>,
    }

    impl Hmac {
        fn new(key: &[u8]) -> Self {
            let mut k = if key.len() > BLOCK_LEN {
                let mut h = hasher();
                h.update(key);
                digest(h)
            } else {
                key.to_vec()
            };
            k.resize(BLOCK_LEN, 0);
            let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
            let opad_key: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
            let mut inner = hasher();
            inner.update(&ipad);
            Hmac { inner, opad_key }
        }

        fn update(&mut self, data: &[u8]) {
            self.inner.update(data);
        }

        fn finalize(self) -> Vec<u8> {
            let inner_digest = digest(self.inner);
            let mut outer = hasher();
            outer.update(&self.opad_key);
            outer.update(&inner_digest);
            digest(outer)
        }
    }

    /// HKDF-SHA1 (RFC 5869) as the crate computed it before.
    pub fn hkdf_sha1(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
        let mut m = Hmac::new(salt);
        m.update(ikm);
        let prk = m.finalize();
        let mut out = Vec::with_capacity(out_len);
        let mut t: Vec<u8> = Vec::new();
        let mut counter = 1u8;
        while out.len() < out_len {
            let mut m = Hmac::new(&prk);
            m.update(&t);
            m.update(info);
            m.update(&[counter]);
            t = m.finalize();
            let take = (out_len - out.len()).min(t.len());
            out.extend_from_slice(&t[..take]);
            counter = counter.wrapping_add(1);
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SHA-1 and SHA-256 on the detected features (SHA-NI where the CPU
    /// has it) match the scalar compression functions for any input
    /// length, fed in any pieces: the buffered head block, runs of whole
    /// blocks straight from the input, and both padding cases.
    #[test]
    fn sha_hw_matches_scalar(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let mut hw1 = Sha1::with_features(detected());
        let mut sc1 = Sha1::with_features(CpuFeatures::none());
        let mut hw256 = Sha256::with_features(detected());
        let mut sc256 = Sha256::with_features(CpuFeatures::none());
        prop_assert!(!sc1.is_hw() && !sc256.is_hw());
        update_segmented(&data, &cuts, |seg| {
            hw1.update(seg);
            hw256.update(seg);
        });
        sc1.update(&data);
        sc256.update(&data);
        prop_assert_eq!(hw1.finalize(), sc1.finalize());
        prop_assert_eq!(hw256.finalize(), sc256.finalize());
    }

    /// `ss_subkey` (keyed HMAC states, fixed arrays) derives exactly the
    /// subkey the generic HMAC/HKDF oracle derives, for any master key
    /// up to the longest method key and any salt, including salts longer
    /// than a block, which HMAC hashes first.
    #[test]
    fn ss_subkey_matches_generic_oracle(
        key in proptest::collection::vec(any::<u8>(), 1..=32),
        salt in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let subkey = ss_subkey(&key, &salt);
        let want = oracle::hkdf_sha1(&salt, &key, SS_SUBKEY_INFO, key.len());
        prop_assert_eq!(&subkey[..], &want[..]);
    }

    /// The general HKDF-SHA1 agrees with the oracle too, for any info
    /// and output length, over many Expand blocks.
    #[test]
    fn hkdf_matches_generic_oracle(
        ikm in proptest::collection::vec(any::<u8>(), 0..100),
        salt in proptest::collection::vec(any::<u8>(), 0..100),
        info in proptest::collection::vec(any::<u8>(), 0..80),
        out_len in 0usize..300,
    ) {
        let got = hkdf::<Sha1>(&salt, &ikm, &info, out_len);
        prop_assert_eq!(got, oracle::hkdf_sha1(&salt, &ikm, &info, out_len));
    }
}
