//! HMAC (RFC 2104) over the hash functions in this crate.
//!
//! HMAC-SHA1 underlies the HKDF used to derive Shadowsocks AEAD session
//! subkeys. Digests are fixed-size arrays, so a MAC allocates nothing.

use crate::block::BLOCK_LEN;
use crate::{md5::Md5, sha1::Sha1, sha256::Sha256};

/// A minimal incremental-hash abstraction so HMAC and HKDF can be generic.
///
/// Every implementor has 64-byte blocks, which is the HMAC key block
/// size.
pub trait Hash: Clone {
    /// Digest length in bytes.
    const DIGEST_LEN: usize;
    /// The digest: a fixed-size byte array.
    type Digest: AsRef<[u8]> + Copy + PartialEq + std::fmt::Debug;
    /// Fresh hasher.
    fn new() -> Self;
    /// Absorb data.
    fn update(&mut self, data: &[u8]);
    /// Finish, returning the digest.
    fn finalize(self) -> Self::Digest;
}

macro_rules! impl_hash {
    ($ty:ty, $modname:ident) => {
        impl Hash for $ty {
            const DIGEST_LEN: usize = crate::$modname::DIGEST_LEN;
            type Digest = [u8; crate::$modname::DIGEST_LEN];
            fn new() -> Self {
                <$ty>::new()
            }
            fn update(&mut self, data: &[u8]) {
                <$ty>::update(self, data)
            }
            fn finalize(self) -> Self::Digest {
                <$ty>::finalize(self)
            }
        }
    };
}

impl_hash!(Md5, md5);
impl_hash!(Sha1, sha1);
impl_hash!(Sha256, sha256);

/// Incremental HMAC.
///
/// Both keyed states are built once, in [`Hmac::new`]: the inner hash
/// has absorbed `key ^ ipad`, the outer one `key ^ opad`. A clone is a
/// fresh MAC under the same key that costs no compression, which is how
/// HKDF-Expand reuses one key for every output block.
#[derive(Clone)]
pub struct Hmac<H: Hash> {
    inner: H,
    outer: H,
}

impl<H: Hash> Hmac<H> {
    /// Create an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = H::new();
            h.update(key);
            let digest = h.finalize();
            block[..H::DIGEST_LEN].copy_from_slice(digest.as_ref());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = H::new();
        inner.update(&block.map(|b| b ^ 0x36));
        let mut outer = H::new();
        outer.update(&block.map(|b| b ^ 0x5c));
        Hmac { inner, outer }
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the MAC.
    pub fn finalize(self) -> H::Digest {
        let mut outer = self.outer;
        outer.update(self.inner.finalize().as_ref());
        outer.finalize()
    }
}

/// One-shot HMAC.
pub fn hmac<H: Hash>(key: &[u8], data: &[u8]) -> H::Digest {
    let mut m = Hmac::<H>::new(key);
    m.update(data);
    m.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test cases.
    #[test]
    fn rfc2202_hmac_md5() {
        assert_eq!(
            hex(&hmac::<Md5>(&[0x0b; 16], b"Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );
        assert_eq!(
            hex(&hmac::<Md5>(b"Jefe", b"what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738"
        );
        assert_eq!(
            hex(&hmac::<Md5>(&[0xaa; 16], &[0xdd; 50])),
            "56be34521d144c88dbb8c733f0e8b3f6"
        );
    }

    #[test]
    fn rfc2202_hmac_sha1() {
        assert_eq!(
            hex(&hmac::<Sha1>(&[0x0b; 20], b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        assert_eq!(
            hex(&hmac::<Sha1>(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
        // Key longer than block size.
        assert_eq!(
            hex(&hmac::<Sha1>(
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    // RFC 4231 test case 1 and 2 for HMAC-SHA256.
    #[test]
    fn rfc4231_hmac_sha256() {
        assert_eq!(
            hex(&hmac::<Sha256>(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac::<Sha256>(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key";
        let data = b"a message split across several updates";
        let mut m = Hmac::<Sha1>::new(key);
        m.update(&data[..10]);
        m.update(&data[10..20]);
        m.update(&data[20..]);
        assert_eq!(m.finalize(), hmac::<Sha1>(key, data));
    }
}
