//! HKDF (RFC 5869), generic over the crate's hashes.
//!
//! Shadowsocks AEAD derives a per-direction session subkey as
//! `HKDF-SHA1(key = master_key, salt = salt, info = "ss-subkey")`,
//! where `salt` is the random value that precedes each stream.

use crate::hmac::{hmac, Hash, Hmac};
use crate::sha1::Sha1;

/// HKDF-Extract: returns the pseudorandom key.
fn extract<H: Hash>(salt: &[u8], ikm: &[u8]) -> H::Digest {
    hmac::<H>(salt, ikm)
}

/// HKDF-Expand: fills `out` with output key material.
///
/// `prk` keys one [`Hmac`], and every output block starts from a clone
/// of it, so the key's two blocks are compressed once per call, not
/// once per output block.
///
/// # Panics
///
/// Panics if `out.len() > 255 * H::DIGEST_LEN`, per RFC 5869.
fn expand_into<H: Hash>(prk: &[u8], info: &[u8], out: &mut [u8]) {
    assert!(
        out.len() <= 255 * H::DIGEST_LEN,
        "HKDF output length too large"
    );
    let keyed = Hmac::<H>::new(prk);
    let mut prev: Option<H::Digest> = None;
    let mut counter = 1u8;
    for chunk in out.chunks_mut(H::DIGEST_LEN) {
        let mut m = keyed.clone();
        if let Some(t) = &prev {
            m.update(t.as_ref());
        }
        m.update(info);
        m.update(&[counter]);
        let t = m.finalize();
        chunk.copy_from_slice(&t.as_ref()[..chunk.len()]);
        prev = Some(t);
        counter = counter.wrapping_add(1);
    }
}

/// HKDF-Extract-then-Expand into `out`, without allocating.
///
/// # Panics
///
/// Panics if `out.len() > 255 * H::DIGEST_LEN`, per RFC 5869.
fn hkdf_into<H: Hash>(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    expand_into::<H>(extract::<H>(salt, ikm).as_ref(), info, out);
}

/// HKDF-Extract-then-Expand in one call.
///
/// # Panics
///
/// Panics if `out_len > 255 * H::DIGEST_LEN`, per RFC 5869.
pub fn hkdf<H: Hash>(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; out_len];
    hkdf_into::<H>(salt, ikm, info, &mut out);
    out
}

/// The `info` string Shadowsocks uses for AEAD session subkeys.
pub const SS_SUBKEY_INFO: &[u8] = b"ss-subkey";

/// Longest master key [`ss_subkey`] takes: 32 bytes, the longest key of
/// any Shadowsocks AEAD method.
pub const MAX_SUBKEY_LEN: usize = 32;

/// A derived session subkey, held inline: as long as the master key it
/// came from, at most [`MAX_SUBKEY_LEN`] bytes. Dereferences to its
/// bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SubKey {
    bytes: [u8; MAX_SUBKEY_LEN],
    len: usize,
}

impl std::ops::Deref for SubKey {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Derive a Shadowsocks AEAD session subkey from the master key and the
/// per-stream salt. The subkey has the same length as the master key.
///
/// Ten SHA-1 compressions for a 32-byte key, and no heap allocation.
///
/// # Panics
///
/// Panics if the master key is longer than [`MAX_SUBKEY_LEN`].
pub fn ss_subkey(master_key: &[u8], salt: &[u8]) -> SubKey {
    assert!(
        master_key.len() <= MAX_SUBKEY_LEN,
        "master key longer than {MAX_SUBKEY_LEN} bytes"
    );
    let mut key = SubKey {
        bytes: [0; MAX_SUBKEY_LEN],
        len: master_key.len(),
    };
    hkdf_into::<Sha1>(salt, master_key, SS_SUBKEY_INFO, &mut key.bytes[..key.len]);
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 test case 1 (SHA-256).
    #[test]
    fn rfc5869_case1_sha256() {
        let ikm = [0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract::<Sha256>(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand_into::<Sha256>(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    /// One RFC 5869 SHA-1 case: PRK from Extract, OKM from Expand,
    /// and the one-call and allocation-free forms agree.
    fn check_sha1(salt: &[u8], ikm: &[u8], info: &[u8], prk: &str, okm: &str) {
        assert_eq!(hex(&extract::<Sha1>(salt, ikm)), prk);
        let len = okm.len() / 2;
        let out = hkdf::<Sha1>(salt, ikm, info, len);
        assert_eq!(hex(&out), okm);
        let mut into = vec![0u8; len];
        hkdf_into::<Sha1>(salt, ikm, info, &mut into);
        assert_eq!(into, out);
    }

    // RFC 5869 test case 4 (SHA-1).
    #[test]
    fn rfc5869_case4_sha1() {
        check_sha1(
            &unhex("000102030405060708090a0b0c"),
            &[0x0b; 11],
            &unhex("f0f1f2f3f4f5f6f7f8f9"),
            "9b6c18c432a7bf8f0e71c8eb88f4b30baa2ba243",
            "085a01ea1b10f36933068b56efa5ad81a4f14b822f5b091568a9cdd4f155fda2c22e422478d305f3f896",
        );
    }

    // RFC 5869 test case 5 (SHA-1, 80-byte inputs, 82 bytes out: five
    // Expand blocks, the key longer than one input block).
    #[test]
    fn rfc5869_case5_sha1() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        check_sha1(
            &salt,
            &ikm,
            &info,
            "8adae09a2a307059478d309b26c4115a224cfaf6",
            "0bd770a74d1160f7c9f12cd5912a06ebff6adcae899d92191fe4305673ba2ffe\
             8fa3f1a4e5ad79f3f334b3b202b2173c486ea37ce3d397ed034c7f9dfeb15c5e\
             927336d0441f4c4300e2cff0d0900b52d3b4",
        );
    }

    // RFC 5869 test case 6 (SHA-1, zero-length salt and info).
    #[test]
    fn rfc5869_case6_sha1() {
        check_sha1(
            &[],
            &[0x0b; 22],
            &[],
            "da8c8a73c7fa77288ec6f5e7c297786aa0d32d01",
            "0ac1af7002b3d761d1e55298da9d0506b9ae52057220a306e07b6b87e8df21d0ea00033de03984d34918",
        );
    }

    // RFC 5869 test case 7 (SHA-1, salt not provided: HashLen zero
    // bytes, which pad to the same HMAC key as an empty salt).
    #[test]
    fn rfc5869_case7_sha1() {
        for salt in [&[][..], &[0u8; 20][..]] {
            check_sha1(
                salt,
                &[0x0c; 22],
                &[],
                "2adccada18779e7c2077ad2eb19d3f3e731385dd",
                "2c91117204d745f3500d636a62f64f0ab3bae548aa53d423b0d1f27ebba6f5e5673a081d70cce7acfc48",
            );
        }
    }

    #[test]
    fn ss_subkey_len_matches_master() {
        for len in [16, 24, 32] {
            let key = vec![0x42u8; len];
            let salt = vec![0x17u8; len];
            assert_eq!(ss_subkey(&key, &salt).len(), len);
        }
    }

    #[test]
    fn ss_subkey_depends_on_salt() {
        let key = [7u8; 32];
        let a = ss_subkey(&key, &[1u8; 32]);
        let b = ss_subkey(&key, &[2u8; 32]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "HKDF output length too large")]
    fn expand_rejects_oversize() {
        let prk = [0u8; 20];
        expand_into::<Sha1>(&prk, b"", &mut [0u8; 255 * 20 + 1]);
    }
}
