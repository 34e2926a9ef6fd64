//! Shadowsocks cipher method registry.
//!
//! Maps the method names users put in `ss://` configs (`aes-256-cfb`,
//! `chacha20-ietf-poly1305`, …) to key/IV/salt sizes and cipher
//! constructors. The IV/salt length is the single most
//! fingerprint-relevant parameter: the paper's Fig 10 rows are grouped
//! exactly by this value.

use crate::aead::{Aead, ChaCha20Poly1305, XChaCha20Poly1305};
use crate::cfb::{AesCfb, Direction};
use crate::chacha20::{ChaCha20, ChaCha20Legacy};
use crate::ctr::AesCtr;
use crate::gcm::AesGcm;
use crate::hw::CpuFeatures;
use crate::rc4::{rc4_md5, Rc4};

/// Whether a method uses the stream construction or the AEAD construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Unauthenticated stream cipher: `[IV][encrypted payload...]`.
    Stream,
    /// AEAD: `[salt][len][len tag][payload][payload tag]...`.
    Aead,
}

/// A Shadowsocks cipher method.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "variant names are the methods' wire names")]
pub enum Method {
    // Stream methods.
    Aes128Ctr,
    Aes192Ctr,
    Aes256Ctr,
    Aes128Cfb,
    Aes192Cfb,
    Aes256Cfb,
    ChaCha20,     // legacy, 8-byte IV
    ChaCha20Ietf, // 12-byte IV — the only stream method with one (§5.2.2)
    Rc4Md5,
    // AEAD methods.
    Aes128Gcm,
    Aes192Gcm,
    Aes256Gcm,
    ChaCha20IetfPoly1305,
    XChaCha20IetfPoly1305,
}

/// All methods, in a stable order (stream first, then AEAD).
pub const ALL_METHODS: &[Method] = &[
    Method::Aes128Ctr,
    Method::Aes192Ctr,
    Method::Aes256Ctr,
    Method::Aes128Cfb,
    Method::Aes192Cfb,
    Method::Aes256Cfb,
    Method::ChaCha20,
    Method::ChaCha20Ietf,
    Method::Rc4Md5,
    Method::Aes128Gcm,
    Method::Aes192Gcm,
    Method::Aes256Gcm,
    Method::ChaCha20IetfPoly1305,
    Method::XChaCha20IetfPoly1305,
];

impl Method {
    /// Parse a method from its configuration-file name.
    pub fn from_name(name: &str) -> Option<Method> {
        Some(match name {
            "aes-128-ctr" => Method::Aes128Ctr,
            "aes-192-ctr" => Method::Aes192Ctr,
            "aes-256-ctr" => Method::Aes256Ctr,
            "aes-128-cfb" => Method::Aes128Cfb,
            "aes-192-cfb" => Method::Aes192Cfb,
            "aes-256-cfb" => Method::Aes256Cfb,
            "chacha20" => Method::ChaCha20,
            "chacha20-ietf" => Method::ChaCha20Ietf,
            "rc4-md5" => Method::Rc4Md5,
            "aes-128-gcm" => Method::Aes128Gcm,
            "aes-192-gcm" => Method::Aes192Gcm,
            "aes-256-gcm" => Method::Aes256Gcm,
            "chacha20-ietf-poly1305" => Method::ChaCha20IetfPoly1305,
            "xchacha20-ietf-poly1305" => Method::XChaCha20IetfPoly1305,
            _ => return None,
        })
    }

    /// The configuration-file name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Aes128Ctr => "aes-128-ctr",
            Method::Aes192Ctr => "aes-192-ctr",
            Method::Aes256Ctr => "aes-256-ctr",
            Method::Aes128Cfb => "aes-128-cfb",
            Method::Aes192Cfb => "aes-192-cfb",
            Method::Aes256Cfb => "aes-256-cfb",
            Method::ChaCha20 => "chacha20",
            Method::ChaCha20Ietf => "chacha20-ietf",
            Method::Rc4Md5 => "rc4-md5",
            Method::Aes128Gcm => "aes-128-gcm",
            Method::Aes192Gcm => "aes-192-gcm",
            Method::Aes256Gcm => "aes-256-gcm",
            Method::ChaCha20IetfPoly1305 => "chacha20-ietf-poly1305",
            Method::XChaCha20IetfPoly1305 => "xchacha20-ietf-poly1305",
        }
    }

    /// Stream or AEAD construction.
    pub fn kind(&self) -> Kind {
        match self {
            Method::Aes128Gcm
            | Method::Aes192Gcm
            | Method::Aes256Gcm
            | Method::ChaCha20IetfPoly1305
            | Method::XChaCha20IetfPoly1305 => Kind::Aead,
            _ => Kind::Stream,
        }
    }

    /// Master key length in bytes.
    pub fn key_len(&self) -> usize {
        match self {
            Method::Aes128Ctr | Method::Aes128Cfb | Method::Aes128Gcm => 16,
            Method::Aes192Ctr | Method::Aes192Cfb | Method::Aes192Gcm => 24,
            Method::Aes256Ctr | Method::Aes256Cfb | Method::Aes256Gcm => 32,
            Method::ChaCha20
            | Method::ChaCha20Ietf
            | Method::ChaCha20IetfPoly1305
            | Method::XChaCha20IetfPoly1305 => 32,
            Method::Rc4Md5 => 16,
        }
    }

    /// Stream IV length or AEAD salt length in bytes — the value the
    /// paper's Fig 10 groups server reactions by.
    pub fn iv_len(&self) -> usize {
        match self {
            // Stream IVs.
            Method::ChaCha20 => 8,
            Method::ChaCha20Ietf => 12,
            Method::Aes128Ctr
            | Method::Aes192Ctr
            | Method::Aes256Ctr
            | Method::Aes128Cfb
            | Method::Aes192Cfb
            | Method::Aes256Cfb
            | Method::Rc4Md5 => 16,
            // AEAD salts equal the key length.
            Method::Aes128Gcm => 16,
            Method::Aes192Gcm => 24,
            Method::Aes256Gcm | Method::ChaCha20IetfPoly1305 | Method::XChaCha20IetfPoly1305 => 32,
        }
    }

    /// Construct the per-stream cipher for a stream method.
    ///
    /// # Panics
    ///
    /// Panics if called on an AEAD method, on a key of the wrong length,
    /// or an IV of the wrong length.
    pub fn new_stream(&self, key: &[u8], iv: &[u8], dir: Direction) -> Box<dyn StreamCipher> {
        self.new_stream_with(key, iv, dir, CpuFeatures::get())
    }

    /// [`Method::new_stream`] with an explicit feature snapshot
    /// (differential tests pass [`CpuFeatures::none`] to force the
    /// scalar oracles).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Method::new_stream`].
    pub fn new_stream_with(
        &self,
        key: &[u8],
        iv: &[u8],
        dir: Direction,
        feat: CpuFeatures,
    ) -> Box<dyn StreamCipher> {
        assert_eq!(
            self.kind(),
            Kind::Stream,
            "{} is not a stream method",
            self.name()
        );
        assert_eq!(
            key.len(),
            self.key_len(),
            "bad key length for {}",
            self.name()
        );
        assert_eq!(iv.len(), self.iv_len(), "bad IV length for {}", self.name());
        match self {
            Method::Aes128Ctr | Method::Aes192Ctr | Method::Aes256Ctr => {
                Box::new(AesCtr::with_features(key, iv.try_into().unwrap(), feat))
            }
            Method::Aes128Cfb | Method::Aes192Cfb | Method::Aes256Cfb => Box::new(
                AesCfb::with_features(key, iv.try_into().unwrap(), dir, feat),
            ),
            Method::ChaCha20 => Box::new(ChaCha20Legacy::with_features(
                key.try_into().unwrap(),
                iv.try_into().unwrap(),
                feat,
            )),
            Method::ChaCha20Ietf => Box::new(ChaCha20::with_features(
                key.try_into().unwrap(),
                iv.try_into().unwrap(),
                0,
                feat,
            )),
            Method::Rc4Md5 => Box::new(rc4_md5(key, iv)),
            _ => unreachable!(),
        }
    }

    /// Construct the AEAD cipher from a session subkey (already derived
    /// with HKDF-SHA1 from the master key and salt).
    ///
    /// # Panics
    ///
    /// Panics if called on a stream method or with a wrong-length subkey.
    pub fn new_aead(&self, subkey: &[u8]) -> Box<dyn Aead> {
        self.new_aead_with(subkey, CpuFeatures::get())
    }

    /// [`Method::new_aead`] with an explicit feature snapshot
    /// (differential tests pass [`CpuFeatures::none`] to force the
    /// scalar oracles).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Method::new_aead`].
    pub fn new_aead_with(&self, subkey: &[u8], feat: CpuFeatures) -> Box<dyn Aead> {
        assert_eq!(
            self.kind(),
            Kind::Aead,
            "{} is not an AEAD method",
            self.name()
        );
        assert_eq!(
            subkey.len(),
            self.key_len(),
            "bad subkey length for {}",
            self.name()
        );
        match self {
            Method::Aes128Gcm | Method::Aes192Gcm | Method::Aes256Gcm => {
                Box::new(AesGcm::with_features(subkey, feat))
            }
            Method::ChaCha20IetfPoly1305 => Box::new(ChaCha20Poly1305::with_features(
                subkey.try_into().unwrap(),
                feat,
            )),
            Method::XChaCha20IetfPoly1305 => Box::new(XChaCha20Poly1305::with_features(
                subkey.try_into().unwrap(),
                feat,
            )),
            _ => unreachable!(),
        }
    }

    /// Whether the given feature snapshot accelerates this method's
    /// data path (AES-NI for the AES family, SSSE3/AVX2 lanes for the
    /// ChaCha20 family; rc4-md5 is always scalar).
    pub fn hw_accelerated_with(&self, feat: CpuFeatures) -> bool {
        match self {
            Method::Aes128Ctr
            | Method::Aes192Ctr
            | Method::Aes256Ctr
            | Method::Aes128Cfb
            | Method::Aes192Cfb
            | Method::Aes256Cfb => feat.aes,
            Method::Aes128Gcm | Method::Aes192Gcm | Method::Aes256Gcm => feat.aes || feat.pclmulqdq,
            Method::ChaCha20
            | Method::ChaCha20Ietf
            | Method::ChaCha20IetfPoly1305
            | Method::XChaCha20IetfPoly1305 => feat.ssse3 || feat.avx2,
            Method::Rc4Md5 => false,
        }
    }
}

/// Object-safe stateful stream cipher: XOR-in-place, continuing the
/// stream across calls.
pub trait StreamCipher {
    /// Transform `data` in place.
    fn apply(&mut self, data: &mut [u8]);
}

impl StreamCipher for AesCtr {
    fn apply(&mut self, data: &mut [u8]) {
        AesCtr::apply(self, data)
    }
}

impl StreamCipher for AesCfb {
    fn apply(&mut self, data: &mut [u8]) {
        AesCfb::apply(self, data)
    }
}

impl StreamCipher for ChaCha20 {
    fn apply(&mut self, data: &mut [u8]) {
        ChaCha20::apply(self, data)
    }
}

impl StreamCipher for ChaCha20Legacy {
    fn apply(&mut self, data: &mut [u8]) {
        ChaCha20Legacy::apply(self, data)
    }
}

impl StreamCipher for Rc4 {
    fn apply(&mut self, data: &mut [u8]) {
        Rc4::apply(self, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip() {
        for &m in ALL_METHODS {
            assert_eq!(Method::from_name(m.name()), Some(m));
        }
        assert_eq!(Method::from_name("rot13"), None);
    }

    #[test]
    fn iv_len_groups_match_paper() {
        // Fig 10a rows: stream IVs of 8, 12, 16 bytes all exist.
        let mut stream_ivs: Vec<usize> = ALL_METHODS
            .iter()
            .filter(|m| m.kind() == Kind::Stream)
            .map(|m| m.iv_len())
            .collect();
        stream_ivs.sort_unstable();
        stream_ivs.dedup();
        assert_eq!(stream_ivs, vec![8, 12, 16]);
        // Fig 10b rows: AEAD salts of 16, 24, 32 bytes all exist.
        let mut salts: Vec<usize> = ALL_METHODS
            .iter()
            .filter(|m| m.kind() == Kind::Aead)
            .map(|m| m.iv_len())
            .collect();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts, vec![16, 24, 32]);
    }

    #[test]
    fn chacha20_ietf_is_only_12_byte_stream_iv() {
        // §5.2.2: a 12-byte IV uniquely identifies chacha20-ietf.
        let with_12: Vec<_> = ALL_METHODS
            .iter()
            .filter(|m| m.kind() == Kind::Stream && m.iv_len() == 12)
            .collect();
        assert_eq!(with_12.len(), 1);
        assert_eq!(*with_12[0], Method::ChaCha20Ietf);
    }

    #[test]
    fn aead_salt_equals_key_len() {
        for &m in ALL_METHODS.iter().filter(|m| m.kind() == Kind::Aead) {
            assert_eq!(m.iv_len(), m.key_len());
        }
    }

    #[test]
    fn stream_roundtrip_all_methods() {
        for &m in ALL_METHODS.iter().filter(|m| m.kind() == Kind::Stream) {
            let key = vec![0x42u8; m.key_len()];
            let iv = vec![0x24u8; m.iv_len()];
            let plain = b"GET / HTTP/1.1\r\n".to_vec();
            let mut buf = plain.clone();
            m.new_stream(&key, &iv, Direction::Encrypt).apply(&mut buf);
            assert_ne!(buf, plain, "{} must change the data", m.name());
            m.new_stream(&key, &iv, Direction::Decrypt).apply(&mut buf);
            assert_eq!(buf, plain, "{} roundtrip", m.name());
        }
    }

    #[test]
    fn aead_roundtrip_all_methods() {
        for &m in ALL_METHODS.iter().filter(|m| m.kind() == Kind::Aead) {
            let subkey = vec![0x11u8; m.key_len()];
            let aead = m.new_aead(&subkey);
            let nonce = vec![0u8; aead.nonce_len()];
            let mut data = b"payload".to_vec();
            let tag = aead.seal(&nonce, b"", &mut data);
            aead.open(&nonce, b"", &mut data, &tag).unwrap();
            assert_eq!(data, b"payload", "{}", m.name());
        }
    }

    #[test]
    fn xchacha_uses_24_byte_nonce_and_32_byte_salt() {
        let m = Method::XChaCha20IetfPoly1305;
        assert_eq!(m.iv_len(), 32);
        let aead = m.new_aead(&[1u8; 32]);
        assert_eq!(aead.nonce_len(), 24);
    }

    #[test]
    #[should_panic(expected = "is not a stream method")]
    fn new_stream_rejects_aead_method() {
        let _ = Method::Aes256Gcm.new_stream(&[0; 32], &[0; 32], Direction::Encrypt);
    }

    #[test]
    #[should_panic(expected = "is not an AEAD method")]
    fn new_aead_rejects_stream_method() {
        let _ = Method::Aes256Cfb.new_aead(&[0; 32]);
    }
}
