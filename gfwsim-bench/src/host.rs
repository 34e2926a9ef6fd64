//! Host-speed calibration.
//!
//! On a shared host the same child can run twice as slow from one
//! minute to the next, and the slowdown follows how fast the host hands
//! a fresh process its memory, not CPU frequency or DRAM latency: of
//! three candidate kernels (integer mixing, dependent reads over 64 MB,
//! B-tree inserts and lookups), only the B-tree one slowed in step with
//! the workloads (log-log slope 1.1 against 2.0–2.3 for the others).
//!
//! So around every workload child the harness runs [`kernel_secs`] in a
//! fresh process of its own, and scales the child's end-to-end times by
//! [`REFERENCE_S`] over the kernel's time around it. The kernel is
//! standard-library code in the benchmark's own package, so a change to
//! the repository's crates cannot move it. Over ten 20-second windows on
//! a 2-vCPU host, the spread of window medians of `wall_s` fell from
//! 10% to 2.5% (`bulk_100k`), 4% to 3% (`mix_100k`), 20% to 9% (the
//! §3.1 run at paper scale) and 23% to 15% (`exp_all_quick`, whose two
//! threads the one-thread kernel follows least well).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on a quiet 2-vCPU host (Intel Xeon, 2.1 GHz), in
/// seconds. It only sets the scale: scaled times read as raw seconds on
/// a host running at that speed.
pub const REFERENCE_S: f64 = 0.065;

/// Keys inserted, then looked up.
const KEYS: u64 = 200_000;

/// One pass of the calibration kernel: 200,000 pseudo-random keys into
/// a fresh `BTreeMap` (about 6 MB of nodes), then as many range lookups.
/// Returns its seconds.
pub fn kernel_secs() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };
    let mut map = BTreeMap::new();
    for i in 0..KEYS {
        map.insert(next(), i);
    }
    let mut sum = 0u64;
    for _ in 0..KEYS {
        if let Some((_, v)) = map.range(next()..).next() {
            sum = sum.wrapping_add(*v);
        }
    }
    black_box((sum, map));
    started.elapsed().as_secs_f64()
}

/// The factor that turns a child's seconds into reference seconds,
/// given the kernel's seconds measured just before and just after it.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S * 2.0 / (before_s + after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_time_and_scale_is_relative() {
        assert!(kernel_secs() > 0.0);
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        // A host running at half speed halves the factor.
        assert_eq!(scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
    }
}
