//! AVX2 fast path for the first-payload byte histogram.
//!
//! This module is the crate's only home for `unsafe` code, mirroring
//! the dispatch discipline of `sscrypto`: detection is cached per
//! process, honours the same `GFWSIM_NO_HWCRYPTO` override, and the
//! portable path in [`crate::entropy`] stays compiled as the
//! differential oracle. Only the *integer* histogram is vectorized —
//! the `c·log2(c)` accumulation stays scalar and sequential in
//! `entropy.rs`, so the floating-point summation order (and hence every
//! entropy score and golden) is bit-identical on both paths.

#![allow(
    unsafe_code,
    reason = "`std::arch` kernels; clippy asks each unsafe site for its SAFETY comment or `# Safety` doc"
)]

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Whether the AVX2 histogram path is usable: cached CPU probe, masked
/// by `GFWSIM_NO_HWCRYPTO` (set and neither empty nor `0` disables it,
/// matching `sscrypto::hw`).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        let disabled = std::env::var("GFWSIM_NO_HWCRYPTO").is_ok_and(|v| !v.is_empty() && v != "0");
        !disabled && std::arch::is_x86_feature_detected!("avx2")
    })
}

/// Non-x86_64 targets never take the SIMD path.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx2_enabled() -> bool {
    false
}

/// Fill `counts` with the byte histogram of `data` on the AVX2 path.
///
/// Callers must gate on [`avx2_enabled`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn fill_histogram(data: &[u8], counts: &mut [u32; 256]) {
    // SAFETY: callers gate on `avx2_enabled()`, which only reports true
    // after `is_x86_feature_detected!("avx2")`.
    unsafe { hist_avx2(data, counts) }
}

/// Four interleaved sub-histograms fed by 8-byte loads (splitting the
/// per-byte dependency on one counter array across four), merged with
/// 8-wide AVX2 adds. Counts are integers, so the result is identical
/// to the scalar histogram no matter how the counting is batched.
///
/// # Safety
///
/// CPU must support AVX2.
// SAFETY: callers hold the AVX2 precondition; the merge loop's
// unaligned loads/stores stay inside the fixed-size `sub` and `counts`
// arrays (offsets ≤ 248).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hist_avx2(data: &[u8], counts: &mut [u32; 256]) {
    use core::arch::x86_64::*;

    let mut sub = [[0u32; 256]; 4];
    let mut chunks = data.chunks_exact(8);
    for ch in chunks.by_ref() {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(ch);
        let v = u64::from_le_bytes(raw);
        sub[0][(v & 0xff) as usize] += 1;
        sub[1][((v >> 8) & 0xff) as usize] += 1;
        sub[2][((v >> 16) & 0xff) as usize] += 1;
        sub[3][((v >> 24) & 0xff) as usize] += 1;
        sub[0][((v >> 32) & 0xff) as usize] += 1;
        sub[1][((v >> 40) & 0xff) as usize] += 1;
        sub[2][((v >> 48) & 0xff) as usize] += 1;
        sub[3][(v >> 56) as usize] += 1;
    }
    for &b in chunks.remainder() {
        sub[0][b as usize] += 1;
    }
    for i in 0..32 {
        let off = i * 8;
        let acc = _mm256_add_epi32(
            _mm256_add_epi32(
                _mm256_loadu_si256(sub[0].as_ptr().add(off).cast()),
                _mm256_loadu_si256(sub[1].as_ptr().add(off).cast()),
            ),
            _mm256_add_epi32(
                _mm256_loadu_si256(sub[2].as_ptr().add(off).cast()),
                _mm256_loadu_si256(sub[3].as_ptr().add(off).cast()),
            ),
        );
        _mm256_storeu_si256(counts.as_mut_ptr().add(off).cast(), acc);
    }
}
