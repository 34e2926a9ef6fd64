//! Runtime CPU feature detection and the hardware/scalar dispatch policy.
//!
//! The crate carries two implementations of its hot primitives: the
//! portable scalar code from the batching work (always compiled, used as
//! the differential oracle) and `std::arch` fast paths in the private
//! `x86` module.
//! Which one a cipher uses is decided **once per cipher instantiation**
//! by snapshotting [`CpuFeatures::get`] — never inside a per-block loop.
//! The SHA-1 and SHA-256 hashers decide the same way, once per hasher:
//! a hasher built with `new` takes the snapshot, and HMAC copies its
//! keyed states, so every hash in one HKDF call runs on one path.
//!
//! One override knob forces the scalar path for the whole process: the
//! `GFWSIM_NO_HWCRYPTO=1` environment variable, read once per process
//! (differential testing and determinism audits). A single cipher can
//! be pinned to the scalar path by building it `with_features` from
//! [`CpuFeatures::none`] (hashers too: `Sha1::with_features`,
//! `Sha256::with_features`).
//!
//! Both paths are byte-identical by construction; the proptests in
//! `crypto_props` pin that equivalence, so the knob never changes any
//! experiment output.

use std::sync::OnceLock;

/// The CPU features the fast paths care about, snapshotted at cipher
/// construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AES-NI (`aesenc`/`aesenclast`/`aeskeygenassist`).
    pub aes: bool,
    /// Carry-less multiply (`pclmulqdq`), used by the GHASH fast path.
    pub pclmulqdq: bool,
    /// SSSE3 (`pshufb` byte rotates), used by the 4-lane ChaCha20 path.
    pub ssse3: bool,
    /// AVX2, used by the 8-lane ChaCha20 path.
    pub avx2: bool,
    /// SHA-NI (`sha1rnds4`/`sha256rnds2` and their message-schedule
    /// helpers), used by the SHA-1 and SHA-256 compression functions.
    /// Set only together with SSSE3 and SSE4.1, which the kernels use
    /// for byte swaps and lane blends.
    pub sha: bool,
}

impl CpuFeatures {
    /// No hardware support: every cipher built from this snapshot runs
    /// the portable scalar oracle.
    pub const fn none() -> Self {
        CpuFeatures {
            aes: false,
            pclmulqdq: false,
            ssse3: false,
            avx2: false,
            sha: false,
        }
    }

    /// Probe the CPU, unless `disabled` is set (then report nothing).
    ///
    /// Pure with respect to the override knobs — this is the testable
    /// core of [`CpuFeatures::get`]. Always [`CpuFeatures::none`] on
    /// non-x86_64 targets.
    pub fn detect_with(disabled: bool) -> Self {
        if disabled {
            return CpuFeatures::none();
        }
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                aes: std::arch::is_x86_feature_detected!("aes"),
                pclmulqdq: std::arch::is_x86_feature_detected!("pclmulqdq"),
                ssse3: std::arch::is_x86_feature_detected!("ssse3"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                sha: std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures::none()
        }
    }

    /// The dispatch snapshot: cached detection result honouring the
    /// `GFWSIM_NO_HWCRYPTO` env override.
    pub fn get() -> Self {
        static DETECTED: OnceLock<CpuFeatures> = OnceLock::new();
        *DETECTED.get_or_init(|| CpuFeatures::detect_with(env_disabled()))
    }

    /// True when at least one fast path is available.
    pub fn any(self) -> bool {
        self.aes || self.pclmulqdq || self.ssse3 || self.avx2 || self.sha
    }
}

/// Whether `GFWSIM_NO_HWCRYPTO` disables the hardware paths for this
/// process (set and neither empty nor `0`). Read once and cached.
fn env_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::env::var("GFWSIM_NO_HWCRYPTO").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_detect_reports_nothing() {
        assert_eq!(CpuFeatures::detect_with(true), CpuFeatures::none());
        assert!(!CpuFeatures::none().any());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detect_matches_std() {
        let f = CpuFeatures::detect_with(false);
        assert_eq!(f.aes, std::arch::is_x86_feature_detected!("aes"));
        assert_eq!(f.avx2, std::arch::is_x86_feature_detected!("avx2"));
        if f.sha {
            assert!(std::arch::is_x86_feature_detected!("sha"));
            assert!(std::arch::is_x86_feature_detected!("sse4.1"));
        }
    }
}
