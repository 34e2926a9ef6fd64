//! Unified AEAD interface: AES-GCM and ChaCha20-Poly1305 behind one
//! object-safe trait, which is what the Shadowsocks AEAD framing layer
//! consumes.

use crate::chacha20::{hchacha20, ChaCha20};
use crate::gcm::AesGcm;
use crate::hw::CpuFeatures;
use crate::poly1305::Poly1305;
use crate::AuthError;

/// Nonce length of the classic AEAD methods (aes-*-gcm,
/// chacha20-ietf-poly1305).
pub const NONCE_LEN: usize = 12;

/// Nonce length of xchacha20-ietf-poly1305.
pub const XNONCE_LEN: usize = 24;

/// AEAD tag length (always 16 for Shadowsocks AEAD methods).
pub const TAG_LEN: usize = 16;

/// An AEAD cipher bound to one key. Nonces are slices because
/// Shadowsocks methods use both 12-byte (GCM, ChaCha20-Poly1305) and
/// 24-byte (XChaCha20-Poly1305) nonces; implementations panic on a
/// wrong-length nonce, which in this codebase is a programming error,
/// not a data error.
pub trait Aead {
    /// This cipher's nonce length in bytes.
    fn nonce_len(&self) -> usize;

    /// Encrypt `data` in place and return the 16-byte tag.
    fn seal(&self, nonce: &[u8], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN];

    /// Verify `tag` and decrypt `data` in place. On failure the data is
    /// unmodified.
    fn open(
        &self,
        nonce: &[u8],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError>;
}

impl Aead for AesGcm {
    fn nonce_len(&self) -> usize {
        NONCE_LEN
    }

    #[expect(
        clippy::expect_used,
        reason = "the `Aead` contract: a nonce of other than `nonce_len()` bytes is a caller bug"
    )]
    fn seal(&self, nonce: &[u8], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        self.seal_in_place(
            nonce.try_into().expect("GCM nonce must be 12 bytes"),
            aad,
            data,
        )
    }

    #[expect(
        clippy::expect_used,
        reason = "the `Aead` contract: a nonce of other than `nonce_len()` bytes is a caller bug"
    )]
    fn open(
        &self,
        nonce: &[u8],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError> {
        self.open_in_place(
            nonce.try_into().expect("GCM nonce must be 12 bytes"),
            aad,
            data,
            tag,
        )
    }
}

/// ChaCha20-Poly1305 (RFC 8439 §2.8). The keystream half dispatches to
/// the SIMD ChaCha20 kernels per the feature snapshot taken at
/// construction; Poly1305 stays scalar (its 64-bit carry chains gain
/// little from vectorization and it is not the throughput bound).
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
    feat: CpuFeatures,
}

impl ChaCha20Poly1305 {
    /// Create an instance from a 32-byte key, snapshotting
    /// [`CpuFeatures::get`] for the keystream backend.
    pub fn new(key: &[u8; 32]) -> Self {
        Self::with_features(key, CpuFeatures::get())
    }

    /// [`ChaCha20Poly1305::new`] with an explicit feature snapshot
    /// (differential tests pass [`CpuFeatures::none`]).
    pub fn with_features(key: &[u8; 32], feat: CpuFeatures) -> Self {
        ChaCha20Poly1305 { key: *key, feat }
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        // Poly1305 key is the first 32 bytes of ChaCha20 block 0.
        let block0 = ChaCha20::block_at(&self.key, nonce, 0);
        let mut poly_key = [0u8; 32];
        poly_key.copy_from_slice(&block0[..32]);
        let mut mac = Poly1305::new(&poly_key);
        mac.update(aad);
        mac.update(pad16(aad.len()));
        mac.update(ct);
        mac.update(pad16(ct.len()));
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ct.len() as u64).to_le_bytes());
        mac.finalize()
    }
}

/// The zero padding that brings `len` bytes up to a 16-byte multiple.
fn pad16(len: usize) -> &'static [u8] {
    static ZEROS: [u8; 16] = [0; 16];
    &ZEROS[..(16 - len % 16) % 16]
}

impl Aead for ChaCha20Poly1305 {
    fn nonce_len(&self) -> usize {
        NONCE_LEN
    }

    #[expect(
        clippy::expect_used,
        reason = "the `Aead` contract: a nonce of other than `nonce_len()` bytes is a caller bug"
    )]
    fn seal(&self, nonce: &[u8], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let nonce: &[u8; NONCE_LEN] = nonce.try_into().expect("nonce must be 12 bytes");
        let mut c = ChaCha20::with_features(&self.key, nonce, 1, self.feat);
        c.apply(data);
        self.tag(nonce, aad, data)
    }

    #[expect(
        clippy::expect_used,
        reason = "the `Aead` contract: a nonce of other than `nonce_len()` bytes is a caller bug"
    )]
    fn open(
        &self,
        nonce: &[u8],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError> {
        let nonce: &[u8; NONCE_LEN] = nonce.try_into().expect("nonce must be 12 bytes");
        let want = self.tag(nonce, aad, data);
        if !crate::ct_eq(&want, tag) {
            return Err(AuthError);
        }
        let mut c = ChaCha20::with_features(&self.key, nonce, 1, self.feat);
        c.apply(data);
        Ok(())
    }
}

/// XChaCha20-Poly1305 (draft-irtf-cfrg-xchacha): HChaCha20 derives a
/// per-nonce subkey from the first 16 nonce bytes; the remaining 8 form
/// the tail of a standard ChaCha20-Poly1305 nonce. Backs the
/// `xchacha20-ietf-poly1305` Shadowsocks method (24-byte nonces).
#[derive(Clone)]
pub struct XChaCha20Poly1305 {
    key: [u8; 32],
    feat: CpuFeatures,
}

impl XChaCha20Poly1305 {
    /// Create an instance from a 32-byte key, snapshotting
    /// [`CpuFeatures::get`] for the keystream backend.
    pub fn new(key: &[u8; 32]) -> Self {
        Self::with_features(key, CpuFeatures::get())
    }

    /// [`XChaCha20Poly1305::new`] with an explicit feature snapshot
    /// (differential tests pass [`CpuFeatures::none`]).
    pub fn with_features(key: &[u8; 32], feat: CpuFeatures) -> Self {
        XChaCha20Poly1305 { key: *key, feat }
    }

    #[expect(
        clippy::expect_used,
        reason = "the `Aead` contract: a nonce of other than `nonce_len()` bytes is a caller bug"
    )]
    fn inner(&self, nonce: &[u8]) -> (ChaCha20Poly1305, [u8; NONCE_LEN]) {
        let xn: &[u8; XNONCE_LEN] = nonce.try_into().expect("nonce must be 24 bytes");
        let mut head = [0u8; 16];
        head.copy_from_slice(&xn[..16]);
        let subkey = hchacha20(&self.key, &head);
        let mut n12 = [0u8; NONCE_LEN];
        n12[4..].copy_from_slice(&xn[16..]);
        (ChaCha20Poly1305::with_features(&subkey, self.feat), n12)
    }
}

impl Aead for XChaCha20Poly1305 {
    fn nonce_len(&self) -> usize {
        XNONCE_LEN
    }

    fn seal(&self, nonce: &[u8], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let (aead, n12) = self.inner(nonce);
        aead.seal(&n12, aad, data)
    }

    fn open(
        &self,
        nonce: &[u8],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError> {
        let (aead, n12) = self.inner(nonce);
        aead.open(&n12, aad, data, tag)
    }
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

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = unhex(
            "808182838485868788898a8b8c8d8e8f\
             909192939495969798999a9b9c9d9e9f",
        )
        .try_into()
        .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        let aead = ChaCha20Poly1305::new(&key);
        let tag = aead.seal(&nonce, &aad, &mut data);
        assert_eq!(hex(&data[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(hex(&tag), "1ae10b594f09e26a7e902ecbd0600691");
        // And back.
        aead.open(&nonce, &aad, &mut data, &tag).unwrap();
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    #[test]
    fn chacha20poly1305_tamper_rejected() {
        let aead = ChaCha20Poly1305::new(&[9u8; 32]);
        let nonce = [0u8; 12];
        let mut data = b"payload".to_vec();
        let mut tag = aead.seal(&nonce, b"", &mut data);
        tag[15] ^= 1;
        let snapshot = data.clone();
        assert_eq!(aead.open(&nonce, b"", &mut data, &tag), Err(AuthError));
        assert_eq!(data, snapshot, "failed open must not modify data");
    }

    #[test]
    fn trait_object_usability() {
        // The framing layer holds `Box<dyn Aead>`; make sure both impls fit.
        let ciphers: Vec<Box<dyn Aead>> = vec![
            Box::new(crate::gcm::AesGcm::new(&[1u8; 16])),
            Box::new(ChaCha20Poly1305::new(&[1u8; 32])),
        ];
        for c in &ciphers {
            let nonce = [0u8; 12];
            let mut data = b"x".to_vec();
            let tag = c.seal(&nonce, b"", &mut data);
            c.open(&nonce, b"", &mut data, &tag).unwrap();
            assert_eq!(data, b"x");
        }
    }

    #[test]
    fn xchacha_roundtrip_and_nonce_separation() {
        let aead = XChaCha20Poly1305::new(&[7u8; 32]);
        let n1 = [1u8; 24];
        let n2 = [2u8; 24];
        let mut a = b"xchacha payload".to_vec();
        let tag = aead.seal(&n1, b"aad", &mut a);
        let mut b = b"xchacha payload".to_vec();
        let tag2 = aead.seal(&n2, b"aad", &mut b);
        assert_ne!(a, b, "different nonces, different ciphertext");
        assert_ne!(tag, tag2);
        aead.open(&n1, b"aad", &mut a, &tag).unwrap();
        assert_eq!(a, b"xchacha payload");
        // Cross-nonce open fails.
        assert_eq!(aead.open(&n1, b"aad", &mut b, &tag2), Err(AuthError));
    }

    #[test]
    fn xchacha_subkey_matches_hchacha_composition() {
        // Opening with a manually composed ChaCha20-Poly1305 over the
        // HChaCha20 subkey must agree with the XChaCha implementation.
        let key = [9u8; 32];
        let mut nonce = [0u8; 24];
        for (i, b) in nonce.iter_mut().enumerate() {
            *b = i as u8;
        }
        let x = XChaCha20Poly1305::new(&key);
        let mut data = b"compose".to_vec();
        let tag = x.seal(&nonce, b"", &mut data);

        let subkey = crate::chacha20::hchacha20(&key, nonce[..16].try_into().unwrap());
        let inner = ChaCha20Poly1305::new(&subkey);
        let mut n12 = [0u8; 12];
        n12[4..].copy_from_slice(&nonce[16..]);
        inner.open(&n12, b"", &mut data, &tag).unwrap();
        assert_eq!(data, b"compose");
    }

    #[test]
    #[should_panic(expected = "nonce must be 24 bytes")]
    fn xchacha_rejects_short_nonce() {
        let aead = XChaCha20Poly1305::new(&[0u8; 32]);
        let mut data = vec![0u8; 4];
        let _ = aead.seal(&[0u8; 12], b"", &mut data);
    }

    #[test]
    fn aad_is_authenticated() {
        let aead = ChaCha20Poly1305::new(&[3u8; 32]);
        let nonce = [2u8; 12];
        let mut data = b"body".to_vec();
        let tag = aead.seal(&nonce, b"aad-1", &mut data);
        assert_eq!(aead.open(&nonce, b"aad-2", &mut data, &tag), Err(AuthError));
    }
}
