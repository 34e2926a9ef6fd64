//! HKDF (RFC 5869), generic over the crate's hashes.
//!
//! Shadowsocks AEAD derives a per-direction session subkey as
//! `HKDF-SHA1(key = master_key, salt = salt, info = "ss-subkey")`,
//! where `salt` is the random value that precedes each stream.

use crate::hmac::{hmac, Hash, Hmac};

/// HKDF-Extract: returns the pseudorandom key.
fn extract<H: Hash>(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    hmac::<H>(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `out_len` bytes of output key material.
///
/// # Panics
///
/// Panics if `out_len > 255 * H::DIGEST_LEN`, per RFC 5869.
fn expand<H: Hash>(prk: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(
        out_len <= 255 * H::DIGEST_LEN,
        "HKDF output length too large"
    );
    let mut out = Vec::with_capacity(out_len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut m = Hmac::<H>::new(prk);
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

/// HKDF-Extract-then-Expand in one call.
pub fn hkdf<H: Hash>(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    expand::<H>(&extract::<H>(salt, ikm), info, out_len)
}

/// The `info` string Shadowsocks uses for AEAD session subkeys.
pub const SS_SUBKEY_INFO: &[u8] = b"ss-subkey";

/// Derive a Shadowsocks AEAD session subkey from the master key and the
/// per-stream salt. The subkey has the same length as the master key.
pub fn ss_subkey(master_key: &[u8], salt: &[u8]) -> Vec<u8> {
    hkdf::<crate::sha1::Sha1>(salt, master_key, SS_SUBKEY_INFO, master_key.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
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
        let okm = expand::<Sha256>(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 4 (SHA-1).
    #[test]
    fn rfc5869_case4_sha1() {
        let ikm = [0x0b; 11];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let okm = hkdf::<Sha1>(&salt, &ikm, &info, 42);
        assert_eq!(
            hex(&okm),
            "085a01ea1b10f36933068b56efa5ad81a4f14b822f5b091568a9cdd4f155fda2c22e422478d305f3f896"
        );
    }

    // RFC 5869 test case 6 (SHA-1, zero-length salt and info).
    #[test]
    fn rfc5869_case6_sha1() {
        let ikm = [0x0b; 22];
        let okm = hkdf::<Sha1>(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "0ac1af7002b3d761d1e55298da9d0506b9ae52057220a306e07b6b87e8df21d0ea00033de03984d34918"
        );
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
        let _ = expand::<Sha1>(&prk, b"", 255 * 20 + 1);
    }
}
