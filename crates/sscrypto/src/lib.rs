//! # sscrypto — cryptographic primitives for the Shadowsocks protocol
//!
//! From-scratch implementations of every primitive the Shadowsocks wire
//! protocol needs, written for clarity and testability rather than raw
//! speed. The offline dependency set for this reproduction contains no
//! cryptography crates, and building the primitives ourselves keeps the
//! whole stack auditable — in keeping with the reproduction mandate of
//! building every substrate the paper relies on.
//!
//! ## What's here
//!
//! * Hashes: [`md5`], [`sha1`], [`sha256`]
//! * MACs and KDFs: [`hmac`], [`hkdf`] (HKDF-SHA1 as used by Shadowsocks
//!   AEAD), [`kdf::evp_bytes_to_key`] (OpenSSL-compatible, used by stream
//!   ciphers)
//! * Block/stream ciphers: [`aes`] (128/192/256), [`ctr`], [`cfb`],
//!   [`chacha20`], [`rc4`]
//! * AEAD: [`gcm`] (AES-GCM), [`poly1305`] + ChaCha20-Poly1305 in [`aead`]
//! * Cipher registry matching Shadowsocks method names: [`method`]
//!
//! All implementations are validated against published test vectors (RFC
//! 1321, FIPS 180-4, RFC 2202, RFC 5869, FIPS 197, NIST SP 800-38A/D,
//! RFC 8439) in the module unit tests.
//!
//! ## Hardware fast paths
//!
//! The cipher hot paths ([`aes`], [`gcm`], [`chacha20`]) and the SHA
//! compression functions ([`sha1`], [`sha256`]) carry `std::arch` fast
//! paths (AES-NI, PCLMULQDQ, SSSE3/AVX2, SHA-NI) selected once per
//! cipher or hasher instantiation from a cached [`hw::CpuFeatures`]
//! probe. The scalar implementations stay compiled as the differential
//! oracle; `GFWSIM_NO_HWCRYPTO=1` forces them for the whole process,
//! and a cipher or hasher built `with_features` from
//! [`hw::CpuFeatures::none`] uses them alone.
//! Both paths are byte-identical, pinned by the `crypto_props` suite.
//!
//! ## Non-goals
//!
//! Constant-time operation and side-channel resistance are non-goals:
//! these primitives feed a censorship *simulator*, not production traffic.

// A panic on malformed input would stand in for the reaction the paper
// measures: each remaining site carries a reasoned `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod aead;
pub mod aes;
mod block;
pub mod cfb;
pub mod chacha20;
pub mod ctr;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod hw;
pub mod kdf;
pub mod md5;
pub mod method;
pub mod poly1305;
pub mod rc4;
pub mod sha1;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Error type for authenticated decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "authentication tag mismatch")
    }
}

impl std::error::Error for AuthError {}

/// Read a little-endian `u32` at byte offset `off`.
///
/// Every call site passes an offset that is in bounds by construction
/// (fixed-size key/nonce/block arrays), so this is the panic-free
/// replacement for the `try_into().unwrap()` idiom in the cipher hot
/// paths.
pub(crate) fn le32(bytes: &[u8], off: usize) -> u32 {
    // gfwlint: allow(W1) -- offsets in bounds by construction (see doc)
    u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

/// Compare two byte slices for equality.
///
/// Not constant-time (see crate-level non-goals); named to mark the places
/// where a production implementation would need a constant-time comparison.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}
