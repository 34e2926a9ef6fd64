//! x86_64 `std::arch` fast paths: AES-NI, PCLMULQDQ GHASH,
//! SSSE3/AVX2 multi-lane ChaCha20 keystream kernels, and SHA-NI
//! compression functions for SHA-1 and SHA-256.
//!
//! This module is the crate's only home for `unsafe` code. Every kernel
//! here has a portable scalar twin (the differential oracle) in its
//! cipher module, and the `crypto_props` suite pins byte-identical
//! output between the two for arbitrary inputs. Nothing in this module
//! probes CPU features: callers gate on a [`crate::hw::CpuFeatures`]
//! snapshot taken at cipher (or hasher) construction, which is the
//! soundness precondition for every `#[target_feature]` function below.
//!
//! All functions are `pub(crate)` and `unsafe`: the unsafety is solely
//! the ISA-extension precondition, never memory safety — inputs and
//! outputs are fixed-size Rust references, and all loads/stores are
//! unaligned (`loadu`/`storeu`).

#![allow(
    unsafe_code,
    reason = "`std::arch` kernels; clippy asks each unsafe site for its SAFETY comment or `# Safety` doc"
)]

use core::arch::x86_64::*;

// ---------------------------------------------------------------------------
// AES-NI
// ---------------------------------------------------------------------------

/// One AES-128 key expansion step: `keygenassist` supplies
/// `RotWord(SubWord(w3)) ^ rcon` in dword 3 (broadcast via `0xff`
/// shuffle), the `slli` chain accumulates the running XOR of the four
/// previous-round words.
///
/// # Safety
///
/// CPU must support AES-NI.
// SAFETY: callers hold the AES-NI precondition (see module docs); all
// operands are register values.
#[target_feature(enable = "aes")]
unsafe fn expand128_step<const RCON: i32>(k: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(k));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, assist)
}

/// AES-128 key schedule (11 round keys) via `aeskeygenassist`.
///
/// # Safety
///
/// CPU must support AES-NI.
// SAFETY: callers hold the AES-NI precondition; stores go through
// fixed-size output arrays with unaligned stores.
#[target_feature(enable = "aes")]
pub(crate) unsafe fn aes128_schedule(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut rk = [[0u8; 16]; 11];
    let mut k = _mm_loadu_si128(key.as_ptr().cast());
    _mm_storeu_si128(rk[0].as_mut_ptr().cast(), k);
    // FIPS 197 rcon sequence for Nk=4: 0x01,0x02,...,0x80,0x1b,0x36.
    macro_rules! step {
        ($i:expr, $rcon:expr) => {
            k = expand128_step::<$rcon>(k);
            _mm_storeu_si128(rk[$i].as_mut_ptr().cast(), k);
        };
    }
    step!(1, 0x01);
    step!(2, 0x02);
    step!(3, 0x04);
    step!(4, 0x08);
    step!(5, 0x10);
    step!(6, 0x20);
    step!(7, 0x40);
    step!(8, 0x80);
    step!(9, 0x1b);
    step!(10, 0x36);
    rk
}

/// Even AES-256 expansion step (`RotWord`+`SubWord`+rcon on `k1`'s last
/// word, XOR chain over `k0`).
///
/// # Safety
///
/// CPU must support AES-NI.
// SAFETY: callers hold the AES-NI precondition; register-only operands.
#[target_feature(enable = "aes")]
unsafe fn expand256_even<const RCON: i32>(k0: __m128i, k1: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(k1));
    let k = _mm_xor_si128(k0, _mm_slli_si128::<4>(k0));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, assist)
}

/// Odd AES-256 expansion step: `SubWord` only (no rotate, no rcon), so
/// the assist word is dword 2 of `keygenassist(·, 0)` (`0xaa` shuffle).
///
/// # Safety
///
/// CPU must support AES-NI.
// SAFETY: callers hold the AES-NI precondition; register-only operands.
#[target_feature(enable = "aes")]
unsafe fn expand256_odd(k1: __m128i, k0new: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xaa>(_mm_aeskeygenassist_si128::<0>(k0new));
    let k = _mm_xor_si128(k1, _mm_slli_si128::<4>(k1));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    let k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, assist)
}

/// AES-256 key schedule (15 round keys) via `aeskeygenassist`.
///
/// # Safety
///
/// CPU must support AES-NI.
// SAFETY: callers hold the AES-NI precondition; stores go through
// fixed-size output arrays with unaligned stores.
#[target_feature(enable = "aes")]
pub(crate) unsafe fn aes256_schedule(key: &[u8; 32]) -> [[u8; 16]; 15] {
    let mut rk = [[0u8; 16]; 15];
    let mut k0 = _mm_loadu_si128(key.as_ptr().cast());
    let mut k1 = _mm_loadu_si128(key.as_ptr().add(16).cast());
    _mm_storeu_si128(rk[0].as_mut_ptr().cast(), k0);
    _mm_storeu_si128(rk[1].as_mut_ptr().cast(), k1);
    // Six even/odd pairs (rcon 0x01..0x20), then a final even-only step:
    // round key 14 closes the schedule with no odd tail.
    macro_rules! pair {
        ($i:expr, $rcon:expr) => {
            k0 = expand256_even::<$rcon>(k0, k1);
            _mm_storeu_si128(rk[$i].as_mut_ptr().cast(), k0);
            k1 = expand256_odd(k1, k0);
            _mm_storeu_si128(rk[$i + 1].as_mut_ptr().cast(), k1);
        };
    }
    pair!(2, 0x01);
    pair!(4, 0x02);
    pair!(6, 0x04);
    pair!(8, 0x08);
    pair!(10, 0x10);
    pair!(12, 0x20);
    k0 = expand256_even::<0x40>(k0, k1);
    _mm_storeu_si128(rk[14].as_mut_ptr().cast(), k0);
    rk
}

/// Encrypt one 16-byte block in place with the byte-form round keys
/// (`rk.len()` is 11/13/15 for AES-128/192/256).
///
/// # Safety
///
/// CPU must support AES-NI.
// SAFETY: callers hold the AES-NI precondition; `rk` always has ≥ 3
// entries by construction (smallest schedule is 11 round keys).
#[target_feature(enable = "aes")]
pub(crate) unsafe fn aes_encrypt1(rk: &[[u8; 16]], block: &mut [u8; 16]) {
    let mut b = _mm_loadu_si128(block.as_ptr().cast());
    b = _mm_xor_si128(b, _mm_loadu_si128(rk[0].as_ptr().cast()));
    for r in &rk[1..rk.len() - 1] {
        b = _mm_aesenc_si128(b, _mm_loadu_si128(r.as_ptr().cast()));
    }
    b = _mm_aesenclast_si128(b, _mm_loadu_si128(rk[rk.len() - 1].as_ptr().cast()));
    _mm_storeu_si128(block.as_mut_ptr().cast(), b);
}

/// Encrypt four contiguous blocks in place, pipelined so the four
/// `aesenc` dependency chains overlap (the CTR/GCM batch shape).
///
/// # Safety
///
/// CPU must support AES-NI.
// SAFETY: callers hold the AES-NI precondition; all loads/stores are
// unaligned within the fixed-size 64-byte buffer.
#[target_feature(enable = "aes")]
pub(crate) unsafe fn aes_encrypt4(rk: &[[u8; 16]], blocks: &mut [u8; 64]) {
    let p = blocks.as_mut_ptr();
    let k0 = _mm_loadu_si128(rk[0].as_ptr().cast());
    let mut b0 = _mm_xor_si128(_mm_loadu_si128(p.cast()), k0);
    let mut b1 = _mm_xor_si128(_mm_loadu_si128(p.add(16).cast()), k0);
    let mut b2 = _mm_xor_si128(_mm_loadu_si128(p.add(32).cast()), k0);
    let mut b3 = _mm_xor_si128(_mm_loadu_si128(p.add(48).cast()), k0);
    for r in &rk[1..rk.len() - 1] {
        let k = _mm_loadu_si128(r.as_ptr().cast());
        b0 = _mm_aesenc_si128(b0, k);
        b1 = _mm_aesenc_si128(b1, k);
        b2 = _mm_aesenc_si128(b2, k);
        b3 = _mm_aesenc_si128(b3, k);
    }
    let k = _mm_loadu_si128(rk[rk.len() - 1].as_ptr().cast());
    _mm_storeu_si128(p.cast(), _mm_aesenclast_si128(b0, k));
    _mm_storeu_si128(p.add(16).cast(), _mm_aesenclast_si128(b1, k));
    _mm_storeu_si128(p.add(32).cast(), _mm_aesenclast_si128(b2, k));
    _mm_storeu_si128(p.add(48).cast(), _mm_aesenclast_si128(b3, k));
}

// ---------------------------------------------------------------------------
// PCLMULQDQ GHASH
// ---------------------------------------------------------------------------

/// GF(2^128) multiply in the GCM bit-reflected representation.
///
/// Operands use the same convention as the scalar Shoup path: a `u128`
/// built with `from_be_bytes`, i.e. bit `127-i` holds the coefficient
/// of `x^i`. On little-endian x86_64 that integer's in-register byte
/// order is exactly the byte-swapped form the classic carry-less
/// multiply algorithm expects, so no `pshufb` is needed. The algorithm
/// is schoolbook clmul (four products), a 256-bit left shift by one to
/// absorb the bit reflection, then the two-phase shift reduction modulo
/// `x^128 + x^7 + x^2 + x + 1`.
///
/// # Safety
///
/// CPU must support PCLMULQDQ.
// SAFETY: callers hold the PCLMULQDQ precondition; operands are plain
// integers moved through registers (u128 and __m128i are layout
// compatible 16-byte types).
#[target_feature(enable = "pclmulqdq")]
pub(crate) unsafe fn ghash_mul(x: u128, h: u128) -> u128 {
    let a: __m128i = core::mem::transmute(x);
    let b: __m128i = core::mem::transmute(h);

    // 128x128 -> 256 carry-less multiply (schoolbook with middle fold).
    let mut lo = _mm_clmulepi64_si128::<0x00>(a, b);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    let mut hi = _mm_clmulepi64_si128::<0x11>(a, b);
    lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));

    // Shift the 256-bit product left by one bit: the operands are
    // bit-reflected, so the plain product is the reflected result
    // shifted right by one.
    let carry_lo = _mm_srli_epi32::<31>(lo);
    let carry_hi = _mm_srli_epi32::<31>(hi);
    lo = _mm_slli_epi32::<1>(lo);
    hi = _mm_slli_epi32::<1>(hi);
    let cross = _mm_srli_si128::<12>(carry_lo);
    lo = _mm_or_si128(lo, _mm_slli_si128::<4>(carry_lo));
    hi = _mm_or_si128(hi, _mm_slli_si128::<4>(carry_hi));
    hi = _mm_or_si128(hi, cross);

    // Reduction phase 1: fold the low limb's contribution upward.
    let mut t = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let t_hi = _mm_srli_si128::<4>(t);
    t = _mm_slli_si128::<12>(t);
    lo = _mm_xor_si128(lo, t);

    // Reduction phase 2.
    let r = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), t_hi),
    );
    lo = _mm_xor_si128(lo, r);
    core::mem::transmute(_mm_xor_si128(hi, lo))
}

// ---------------------------------------------------------------------------
// SSSE3 / AVX2 ChaCha20
// ---------------------------------------------------------------------------

/// Quarter-round across four lanes (one SSE register per state word).
/// Rotates by 16 and 8 use `pshufb` byte shuffles; 12 and 7 use
/// shift/or pairs.
///
/// # Safety
///
/// CPU must support SSSE3.
// SAFETY: callers hold the SSSE3 precondition; indices a..d are the
// fixed ChaCha quarter-round patterns, all < 16.
#[target_feature(enable = "ssse3")]
unsafe fn qr4(w: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
    let rot16 = _mm_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
    let rot8 = _mm_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
    w[a] = _mm_add_epi32(w[a], w[b]);
    w[d] = _mm_shuffle_epi8(_mm_xor_si128(w[d], w[a]), rot16);
    w[c] = _mm_add_epi32(w[c], w[d]);
    let x = _mm_xor_si128(w[b], w[c]);
    w[b] = _mm_or_si128(_mm_slli_epi32::<12>(x), _mm_srli_epi32::<20>(x));
    w[a] = _mm_add_epi32(w[a], w[b]);
    w[d] = _mm_shuffle_epi8(_mm_xor_si128(w[d], w[a]), rot8);
    w[c] = _mm_add_epi32(w[c], w[d]);
    let x = _mm_xor_si128(w[b], w[c]);
    w[b] = _mm_or_si128(_mm_slli_epi32::<7>(x), _mm_srli_epi32::<25>(x));
}

/// 4x4 `u32` transpose: input register `j` holds word `j` of lanes
/// 0..4, output register `j` holds words 0..4 of lane `j`.
///
/// # Safety
///
/// CPU must support SSSE3 (SSE2 suffices; kept uniform with callers).
// SAFETY: register-only unpack shuffles, no memory access.
#[target_feature(enable = "ssse3")]
unsafe fn transpose4(
    r0: __m128i,
    r1: __m128i,
    r2: __m128i,
    r3: __m128i,
) -> (__m128i, __m128i, __m128i, __m128i) {
    let t0 = _mm_unpacklo_epi32(r0, r1);
    let t1 = _mm_unpacklo_epi32(r2, r3);
    let t2 = _mm_unpackhi_epi32(r0, r1);
    let t3 = _mm_unpackhi_epi32(r2, r3);
    (
        _mm_unpacklo_epi64(t0, t1),
        _mm_unpackhi_epi64(t0, t1),
        _mm_unpacklo_epi64(t2, t3),
        _mm_unpackhi_epi64(t2, t3),
    )
}

/// Four ChaCha20 blocks, one SSE lane per block. `states` are the four
/// initial 16-word states (consecutive counters); `out` receives the
/// four serialized 64-byte keystream blocks in lane order.
///
/// # Safety
///
/// CPU must support SSSE3.
// SAFETY: callers hold the SSSE3 precondition; every store is an
// unaligned 16-byte store at offset j*64 + g*16 ≤ 240 within the
// fixed-size 256-byte output.
#[target_feature(enable = "ssse3")]
pub(crate) unsafe fn chacha_blocks4(states: &[[u32; 16]; 4], out: &mut [u8; 256]) {
    let mut w = [_mm_setzero_si128(); 16];
    for (i, wi) in w.iter_mut().enumerate() {
        *wi = _mm_setr_epi32(
            states[0][i] as i32,
            states[1][i] as i32,
            states[2][i] as i32,
            states[3][i] as i32,
        );
    }
    let init = w;
    for _ in 0..10 {
        qr4(&mut w, 0, 4, 8, 12);
        qr4(&mut w, 1, 5, 9, 13);
        qr4(&mut w, 2, 6, 10, 14);
        qr4(&mut w, 3, 7, 11, 15);
        qr4(&mut w, 0, 5, 10, 15);
        qr4(&mut w, 1, 6, 11, 12);
        qr4(&mut w, 2, 7, 8, 13);
        qr4(&mut w, 3, 4, 9, 14);
    }
    for (wi, ii) in w.iter_mut().zip(init) {
        *wi = _mm_add_epi32(*wi, ii);
    }
    let p = out.as_mut_ptr();
    for g in 0..4 {
        let (o0, o1, o2, o3) = transpose4(w[4 * g], w[4 * g + 1], w[4 * g + 2], w[4 * g + 3]);
        _mm_storeu_si128(p.add(g * 16).cast(), o0);
        _mm_storeu_si128(p.add(64 + g * 16).cast(), o1);
        _mm_storeu_si128(p.add(128 + g * 16).cast(), o2);
        _mm_storeu_si128(p.add(192 + g * 16).cast(), o3);
    }
}

/// Quarter-round across eight lanes (one AVX2 register per state word,
/// lanes 0..4 in the low 128 bits, lanes 4..8 in the high 128 bits).
///
/// # Safety
///
/// CPU must support AVX2.
// SAFETY: callers hold the AVX2 precondition; indices a..d are the
// fixed ChaCha quarter-round patterns, all < 16.
#[target_feature(enable = "avx2")]
unsafe fn qr8(w: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9,
        14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10,
        15, 12, 13, 14,
    );
    w[a] = _mm256_add_epi32(w[a], w[b]);
    w[d] = _mm256_shuffle_epi8(_mm256_xor_si256(w[d], w[a]), rot16);
    w[c] = _mm256_add_epi32(w[c], w[d]);
    let x = _mm256_xor_si256(w[b], w[c]);
    w[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(x), _mm256_srli_epi32::<20>(x));
    w[a] = _mm256_add_epi32(w[a], w[b]);
    w[d] = _mm256_shuffle_epi8(_mm256_xor_si256(w[d], w[a]), rot8);
    w[c] = _mm256_add_epi32(w[c], w[d]);
    let x = _mm256_xor_si256(w[b], w[c]);
    w[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(x), _mm256_srli_epi32::<25>(x));
}

/// Eight ChaCha20 blocks, one AVX2 lane per block; see
/// [`chacha_blocks4`] for the layout contract.
///
/// # Safety
///
/// CPU must support AVX2.
// SAFETY: callers hold the AVX2 precondition; the unpack transpose is
// per-128-bit-lane, so the extracted halves are lane j (low) and lane
// j+4 (high), stored unaligned at offsets ≤ 496 within the fixed-size
// 512-byte output.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn chacha_blocks8(states: &[[u32; 16]; 8], out: &mut [u8; 512]) {
    let mut w = [_mm256_setzero_si256(); 16];
    for (i, wi) in w.iter_mut().enumerate() {
        *wi = _mm256_setr_epi32(
            states[0][i] as i32,
            states[1][i] as i32,
            states[2][i] as i32,
            states[3][i] as i32,
            states[4][i] as i32,
            states[5][i] as i32,
            states[6][i] as i32,
            states[7][i] as i32,
        );
    }
    let init = w;
    for _ in 0..10 {
        qr8(&mut w, 0, 4, 8, 12);
        qr8(&mut w, 1, 5, 9, 13);
        qr8(&mut w, 2, 6, 10, 14);
        qr8(&mut w, 3, 7, 11, 15);
        qr8(&mut w, 0, 5, 10, 15);
        qr8(&mut w, 1, 6, 11, 12);
        qr8(&mut w, 2, 7, 8, 13);
        qr8(&mut w, 3, 4, 9, 14);
    }
    for (wi, ii) in w.iter_mut().zip(init) {
        *wi = _mm256_add_epi32(*wi, ii);
    }
    let p = out.as_mut_ptr();
    for g in 0..4 {
        let r0 = w[4 * g];
        let r1 = w[4 * g + 1];
        let r2 = w[4 * g + 2];
        let r3 = w[4 * g + 3];
        // Per-lane 4x4 transpose: the unpack family operates on each
        // 128-bit half independently, which is exactly the two
        // four-lane groups.
        let t0 = _mm256_unpacklo_epi32(r0, r1);
        let t1 = _mm256_unpacklo_epi32(r2, r3);
        let t2 = _mm256_unpackhi_epi32(r0, r1);
        let t3 = _mm256_unpackhi_epi32(r2, r3);
        let o0 = _mm256_unpacklo_epi64(t0, t1);
        let o1 = _mm256_unpackhi_epi64(t0, t1);
        let o2 = _mm256_unpacklo_epi64(t2, t3);
        let o3 = _mm256_unpackhi_epi64(t2, t3);
        _mm_storeu_si128(p.add(g * 16).cast(), _mm256_castsi256_si128(o0));
        _mm_storeu_si128(p.add(64 + g * 16).cast(), _mm256_castsi256_si128(o1));
        _mm_storeu_si128(p.add(128 + g * 16).cast(), _mm256_castsi256_si128(o2));
        _mm_storeu_si128(p.add(192 + g * 16).cast(), _mm256_castsi256_si128(o3));
        _mm_storeu_si128(
            p.add(256 + g * 16).cast(),
            _mm256_extracti128_si256::<1>(o0),
        );
        _mm_storeu_si128(
            p.add(320 + g * 16).cast(),
            _mm256_extracti128_si256::<1>(o1),
        );
        _mm_storeu_si128(
            p.add(384 + g * 16).cast(),
            _mm256_extracti128_si256::<1>(o2),
        );
        _mm_storeu_si128(
            p.add(448 + g * 16).cast(),
            _mm256_extracti128_si256::<1>(o3),
        );
    }
}

// ---------------------------------------------------------------------------
// SHA-NI
// ---------------------------------------------------------------------------

/// SHA-1 compression of whole 64-byte blocks into `state`.
///
/// Layout: `abcd` holds `a` in its highest dword, and the message
/// words are byte-reversed across the whole register so `w[0]` is the
/// highest dword too, which is what `sha1rnds4` expects. The two
/// round-state registers alternate roles: each `sha1rnds4` writes the
/// next `abcd` into one, while the other keeps the previous `abcd`,
/// from which `sha1nexte` derives the next four rounds' `e`.
///
/// # Safety
///
/// CPU must support SHA-NI, SSSE3 and SSE4.1 (`CpuFeatures::sha`).
// SAFETY: callers hold the SHA-NI/SSSE3/SSE4.1 precondition; each
// block is read with four unaligned 16-byte loads at offsets ≤ 48
// within its fixed-size 64-byte array.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) unsafe fn sha1_compress(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    let mask = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut abcd = _mm_set_epi32(
        state[0] as i32,
        state[1] as i32,
        state[2] as i32,
        state[3] as i32,
    );
    let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);

    // Four rounds from `abcd` in `$cur`. `$old` holds `abcd` as it was
    // four rounds earlier: `sha1nexte` takes these rounds' `e` from its
    // `a` and adds the message words. The result replaces `$old`.
    macro_rules! rounds4 {
        ($old:ident, $cur:ident, $w:expr, $f:literal) => {
            $old = _mm_sha1rnds4_epu32::<$f>($cur, _mm_sha1nexte_epu32($old, $w));
        };
    }
    // The next four message words from the previous sixteen.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3)
        };
    }

    for block in blocks {
        let p = block.as_ptr();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), mask);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), mask);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), mask);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), mask);
        let mut w4;

        let mut h0 = abcd;
        let mut h1 = _mm_sha1rnds4_epu32::<0>(h0, _mm_add_epi32(e0, w0));
        // Rounds 0..20.
        rounds4!(h0, h1, w1, 0);
        rounds4!(h1, h0, w2, 0);
        rounds4!(h0, h1, w3, 0);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h1, h0, w4, 0);
        // Rounds 20..40.
        w0 = schedule!(w1, w2, w3, w4);
        rounds4!(h0, h1, w0, 1);
        w1 = schedule!(w2, w3, w4, w0);
        rounds4!(h1, h0, w1, 1);
        w2 = schedule!(w3, w4, w0, w1);
        rounds4!(h0, h1, w2, 1);
        w3 = schedule!(w4, w0, w1, w2);
        rounds4!(h1, h0, w3, 1);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h0, h1, w4, 1);
        // Rounds 40..60.
        w0 = schedule!(w1, w2, w3, w4);
        rounds4!(h1, h0, w0, 2);
        w1 = schedule!(w2, w3, w4, w0);
        rounds4!(h0, h1, w1, 2);
        w2 = schedule!(w3, w4, w0, w1);
        rounds4!(h1, h0, w2, 2);
        w3 = schedule!(w4, w0, w1, w2);
        rounds4!(h0, h1, w3, 2);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h1, h0, w4, 2);
        // Rounds 60..80.
        w0 = schedule!(w1, w2, w3, w4);
        rounds4!(h0, h1, w0, 3);
        w1 = schedule!(w2, w3, w4, w0);
        rounds4!(h1, h0, w1, 3);
        w2 = schedule!(w3, w4, w0, w1);
        rounds4!(h0, h1, w2, 3);
        w3 = schedule!(w4, w0, w1, w2);
        rounds4!(h1, h0, w3, 3);
        w4 = schedule!(w0, w1, w2, w3);
        rounds4!(h0, h1, w4, 3);

        // `h0` holds the final `abcd`, `h1` the one four rounds before,
        // whose rotated `a` is the final `e`.
        abcd = _mm_add_epi32(abcd, h0);
        e0 = _mm_sha1nexte_epu32(h1, e0);
    }

    state[0] = _mm_extract_epi32::<3>(abcd) as u32;
    state[1] = _mm_extract_epi32::<2>(abcd) as u32;
    state[2] = _mm_extract_epi32::<1>(abcd) as u32;
    state[3] = _mm_extract_epi32::<0>(abcd) as u32;
    state[4] = _mm_extract_epi32::<3>(e0) as u32;
}

/// SHA-256 compression of whole 64-byte blocks into `state`, with the
/// round constants `k` (the FIPS 180-4 table, passed in so this module
/// holds no copy of it).
///
/// Layout: `sha256rnds2` keeps the working variables as two registers,
/// `abef` and `cdgh` (named high dword to low), and takes two rounds'
/// `w + k` in the low dwords of its third operand. Message words are
/// byte-swapped within each dword, so `w[4i]` sits in the lowest dword
/// of its register.
///
/// # Safety
///
/// CPU must support SHA-NI, SSSE3 and SSE4.1 (`CpuFeatures::sha`).
// SAFETY: callers hold the SHA-NI/SSSE3/SSE4.1 precondition; the state
// is read and written with two unaligned 16-byte accesses within its
// fixed-size 32-byte array, each block with four loads at offsets ≤ 48
// within its 64-byte array, and `k` with sixteen loads at offsets ≤ 240
// bytes within its fixed-size 256-byte table.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) unsafe fn sha256_compress(state: &mut [u32; 8], blocks: &[[u8; 64]], k: &[u32; 64]) {
    let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let sp = state.as_mut_ptr();
    let dcba = _mm_loadu_si128(sp.cast());
    let hgfe = _mm_loadu_si128(sp.add(4).cast());
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    // Four rounds on message words `$w` with round constants 4i..4i+4.
    macro_rules! rounds4 {
        ($w:expr, $i:literal) => {
            let wk = _mm_add_epi32($w, _mm_loadu_si128(k.as_ptr().add(4 * $i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        };
    }
    // The next four message words from the previous sixteen.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(
                    _mm_sha256msg1_epu32($w0, $w1),
                    _mm_alignr_epi8::<4>($w3, $w2),
                ),
                $w3,
            )
        };
    }

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), mask);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), mask);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), mask);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), mask);
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(w0, 4);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(w1, 5);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(w2, 6);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(w3, 7);
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(w0, 8);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(w1, 9);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(w2, 10);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(w3, 11);
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(w0, 12);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(w1, 13);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(w2, 14);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(w3, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    _mm_storeu_si128(sp.cast(), _mm_blend_epi16::<0xf0>(feba, dchg));
    _mm_storeu_si128(sp.add(4).cast(), _mm_alignr_epi8::<8>(dchg, feba));
}
