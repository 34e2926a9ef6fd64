//! Shannon entropy of byte payloads.
//!
//! The GFW's passive detector uses the per-byte entropy of the first
//! data packet as one of its two features (§4.2, Fig 9): encrypted
//! Shadowsocks payloads sit near 8 bits/byte (for long packets), while
//! plaintext protocols sit far lower.

use std::sync::OnceLock;

/// Largest count with a precomputed `c·log2(c)` entry — covers every
/// first-payload the detector scores (one MSS, 1448 bytes) with room
/// to spare.
const XLOGX_TABLE_LEN: usize = 2049;

fn xlogx_table() -> &'static [f64; XLOGX_TABLE_LEN] {
    static TABLE: OnceLock<[f64; XLOGX_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0f64; XLOGX_TABLE_LEN];
        for (c, slot) in t.iter_mut().enumerate().skip(2) {
            *slot = c as f64 * (c as f64).log2();
        }
        t
    })
}

/// `c·log2(c)` with the table fast path (0 for c ≤ 1).
#[inline]
fn xlogx(c: usize) -> f64 {
    if c < XLOGX_TABLE_LEN {
        xlogx_table()[c]
    } else {
        c as f64 * (c as f64).log2()
    }
}

/// Per-byte Shannon entropy of `data`, in bits (0.0–8.0). Empty input
/// has entropy 0.
///
/// Computed in one pass over the histogram as
/// `H = log2(n) − (1/n)·Σ c·log2(c)`, with the `c·log2(c)` terms read
/// from a process-wide precomputed table — no per-symbol division or
/// logarithm, which is what makes first-payload scoring cheap enough
/// to run on every cross-border data packet.
pub fn shannon_entropy(data: &[u8]) -> f64 {
    entropy_impl(data, crate::simd::avx2_enabled())
}

/// Portable-only twin of [`shannon_entropy`]: the differential oracle
/// for the AVX2 histogram path. Bit-identical to the default entry
/// point — the floating-point accumulation is shared and sequential;
/// only integer byte counting differs between the paths.
#[doc(hidden)]
pub fn shannon_entropy_scalar(data: &[u8]) -> f64 {
    entropy_impl(data, false)
}

/// Byte histogram of `data` via four interleaved sub-histograms
/// (breaking the per-byte dependency on a single counter array), merged
/// into `counts`. The portable counterpart of `simd::fill_histogram`.
fn fill_histogram_portable(data: &[u8], counts: &mut [u32; 256]) {
    let mut sub = [[0u32; 256]; 4];
    let mut chunks = data.chunks_exact(4);
    for quad in chunks.by_ref() {
        sub[0][quad[0] as usize] += 1;
        sub[1][quad[1] as usize] += 1;
        sub[2][quad[2] as usize] += 1;
        sub[3][quad[3] as usize] += 1;
    }
    for &b in chunks.remainder() {
        sub[0][b as usize] += 1;
    }
    let [s0, s1, s2, s3] = sub;
    for (slot, (((&c0, &c1), &c2), &c3)) in
        counts.iter_mut().zip(s0.iter().zip(&s1).zip(&s2).zip(&s3))
    {
        *slot = c0 + c1 + c2 + c3;
    }
}

/// The number of symbols present in `counts`, and `Σ c·log2(c)` over
/// them, added in symbol order.
///
/// Counts of 0 and 1 add exactly `+0.0` (their table entries), and
/// adding `+0.0` to a non-negative sum changes no bit, so only counts
/// of 2 or more are added. A first pass packs those counts, in symbol
/// order, without a branch; the second adds their terms in that order,
/// the order the old branch-per-symbol loop added them, so the sum is
/// bit-identical to it (`fold_matches_branching_oracle`). The branch on
/// `c > 0` mispredicted on short payloads, where most symbols occur
/// once or not at all.
fn fold_counts(counts: &[u32; 256]) -> (u32, f64) {
    let mut kept = [0u32; 256];
    let mut n_kept = 0usize;
    let mut distinct = 0u32;
    for &c in counts {
        // `n_kept` never passes the index of `c`, so this is in bounds.
        kept[n_kept] = c;
        n_kept += usize::from(c >= 2);
        distinct += u32::from(c > 0);
    }
    let sum = kept[..n_kept]
        .iter()
        .fold(0.0f64, |acc, &c| acc + xlogx(c as usize));
    (distinct, sum)
}

fn entropy_impl(data: &[u8], hw: bool) -> f64 {
    let n = data.len();
    if n == 0 {
        return 0.0;
    }
    let mut counts = [0u32; 256];
    if n < 1024 {
        // Short payloads: a single histogram. Zero-initializing four
        // interleaved sub-histograms (4 KiB) costs more than it saves
        // below roughly a kilobyte of input.
        for &b in data {
            counts[b as usize] += 1;
        }
    } else {
        // Long payloads: interleaved sub-histograms — AVX2-merged when
        // the CPU allows it, portable otherwise. Only the integer
        // counting is dispatched; the xlogx accumulation below is the
        // same sequential fold on both paths, so entropy scores are
        // bit-identical (see `crate::simd`).
        #[cfg(target_arch = "x86_64")]
        if hw {
            crate::simd::fill_histogram(data, &mut counts);
        } else {
            fill_histogram_portable(data, &mut counts);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = hw;
            fill_histogram_portable(data, &mut counts);
        }
    }
    let (distinct, sum_xlogx) = fold_counts(&counts);
    // A single-symbol payload is exactly zero; the closed form would
    // only reproduce that up to rounding.
    if distinct <= 1 {
        return 0.0;
    }
    let n = n as f64;
    (n.log2() - sum_xlogx / n).max(0.0)
}

/// The maximum achievable per-byte entropy for a payload of `len` bytes:
/// `min(8, log2(len))`. Short packets cannot reach 8 bits/byte, which
/// matters when interpreting entropy thresholds on small probes.
pub fn max_entropy_for_len(len: usize) -> f64 {
    if len <= 1 {
        return 0.0;
    }
    (len as f64).log2().min(8.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The branch-per-symbol loop `fold_counts` replaced: the oracle.
    fn fold_counts_branching(counts: &[u32; 256]) -> (u32, f64) {
        let mut distinct = 0u32;
        let mut sum_xlogx = 0.0f64;
        for &c in counts.iter() {
            if c > 0 {
                distinct += 1;
                sum_xlogx += xlogx(c as usize);
            }
        }
        (distinct, sum_xlogx)
    }

    /// A histogram in which each symbol's count is drawn from one of
    /// four bands: absent, one, within the `xlogx` table, or past it.
    fn histogram() -> impl Strategy<Value = [u32; 256]> {
        let count = prop_oneof![
            Just(0u32),
            Just(1u32),
            2u32..XLOGX_TABLE_LEN as u32,
            XLOGX_TABLE_LEN as u32..1_000_000,
        ];
        proptest::collection::vec(count, 256).prop_map(|v| {
            let mut counts = [0u32; 256];
            counts.copy_from_slice(&v);
            counts
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The branch-free fold gives the oracle's distinct count and
        /// the very same bits of `Σ c·log2(c)`.
        #[test]
        fn fold_matches_branching_oracle(counts in histogram()) {
            let (d, sum) = fold_counts(&counts);
            let (d_old, sum_old) = fold_counts_branching(&counts);
            prop_assert_eq!(d, d_old);
            prop_assert_eq!(sum.to_bits(), sum_old.to_bits());
        }
    }

    #[test]
    fn constant_data_has_zero_entropy() {
        assert_eq!(shannon_entropy(&[0x41; 1000]), 0.0);
        assert_eq!(shannon_entropy(&[]), 0.0);
    }

    #[test]
    fn uniform_bytes_have_eight_bits() {
        let data: Vec<u8> = (0..=255u8).collect();
        let e = shannon_entropy(&data);
        assert!((e - 8.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn two_symbol_alphabet_has_one_bit() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        let e = shannon_entropy(&data);
        assert!((e - 1.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn english_text_is_mid_entropy() {
        let text = b"The quick brown fox jumps over the lazy dog. The quick brown fox.";
        let e = shannon_entropy(text);
        assert!(e > 3.0 && e < 5.0, "{e}");
    }

    #[test]
    fn random_looking_data_is_high_entropy() {
        // A long LCG stream approximates uniform bytes.
        let mut x: u64 = 12345;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let e = shannon_entropy(&data);
        assert!(e > 7.9, "{e}");
    }

    #[test]
    fn hw_histogram_matches_scalar_bit_for_bit() {
        // Sizes straddling the 1024-byte histogram switch and the
        // 8-byte SIMD load width; LCG data plus skewed data.
        let mut x: u64 = 99;
        let data: Vec<u8> = (0..5000)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if i % 3 == 0 {
                    0x41
                } else {
                    (x >> 33) as u8
                }
            })
            .collect();
        for len in [0, 1, 7, 1023, 1024, 1025, 1031, 2048, 4096, 5000] {
            let d = &data[..len];
            // Exact equality: the accumulation order is shared, only
            // integer counting differs.
            assert_eq!(
                shannon_entropy(d).to_bits(),
                shannon_entropy_scalar(d).to_bits(),
                "len={len}"
            );
        }
    }

    #[test]
    fn max_entropy_bound() {
        assert_eq!(max_entropy_for_len(0), 0.0);
        assert_eq!(max_entropy_for_len(1), 0.0);
        assert!((max_entropy_for_len(2) - 1.0).abs() < 1e-9);
        assert_eq!(max_entropy_for_len(1 << 20), 8.0);
        // A 16-byte packet can reach at most 4 bits/byte.
        assert!((max_entropy_for_len(16) - 4.0).abs() < 1e-9);
    }
}
