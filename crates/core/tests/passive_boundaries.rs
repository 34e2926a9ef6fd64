//! Boundary tests for the passive detector (§4): exact band edges of
//! the Fig 8 length model, the mod-16 stair steps inside each band,
//! entropy values straddling the §4.2 experiment thresholds, the
//! plaintext-exemption prefix edges, and the NR1/NR2 probe-length
//! windows.
//!
//! These pin the *edges* of the calibrated model; the distributional
//! shape (72%/96% remainder mixtures, the ~0.3% aggregate rate) is
//! covered by the unit tests in `passive.rs`.

use gfw_core::passive::{PassiveConfig, PassiveDetector};
use gfw_core::probe::{is_nr1_len, nr1_len, NR1_CENTERS, NR2_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sscrypto::method::{Kind, ALL_METHODS};

fn det() -> PassiveDetector {
    PassiveDetector::default()
}

/// A payload of the given length that is not plaintext-exempt.
fn opaque(len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(len as u64);
    let mut p = vec![0u8; len];
    rng.fill(&mut p[..]);
    // Keep clear of every exemption prefix.
    if !p.is_empty() {
        p[0] = 0xFF;
    }
    p
}

// -------------------------------------------------------------------
// Fig 8 band edges
// -------------------------------------------------------------------

#[test]
fn replay_window_edges() {
    let d = det();
    // 160 is the last length below the window, 161 the first inside;
    // 999 the last inside, 1000 the first above.
    assert_eq!(d.length_weight(160), 0.0);
    assert!(d.length_weight(161) > 0.0);
    assert!(d.length_weight(999) > 0.0);
    assert_eq!(d.length_weight(1000), 0.0);
    // store_probability agrees with the weight at both outer edges.
    assert_eq!(d.store_probability(&opaque(160)), 0.0);
    assert!(d.store_probability(&opaque(161)) > 0.0);
    assert!(d.store_probability(&opaque(999)) > 0.0);
    assert_eq!(d.store_probability(&opaque(1000)), 0.0);
}

#[test]
fn interior_band_boundaries_change_weights() {
    let d = det();
    // Neither 263/264 nor the other interior boundaries share a mod-16
    // stair value, so the weight must jump exactly at the boundary.
    // 263 % 16 == 7 (other, band 1), 264 % 16 == 8 (other, band 2).
    assert_eq!(d.length_weight(263), 0.57);
    assert_eq!(d.length_weight(264), 2.3);
    // 383 % 16 == 15 (other, band 2), 384 % 16 == 0 (other, band 3).
    assert_eq!(d.length_weight(383), 2.3);
    assert_eq!(d.length_weight(384), 0.21);
    // 687 % 16 == 15 (other, band 3), 688 % 16 == 0 (other, band 4).
    assert_eq!(d.length_weight(687), 0.21);
    assert_eq!(d.length_weight(688), 0.5);
}

#[test]
fn mod16_stairs_low_band() {
    let d = det();
    // 169 % 16 == 9; its direct neighbours fall off the stair.
    assert_eq!(d.length_weight(169), 22.0);
    assert_eq!(d.length_weight(168), 0.57);
    assert_eq!(d.length_weight(170), 0.57);
    // Remainder 2 earns no preference in the low band (178 % 16 == 2).
    assert_eq!(d.length_weight(178), 0.57);
}

#[test]
fn mod16_stairs_middle_band() {
    let d = det();
    // Band 2 prefers both remainders: 265 % 16 == 9, 274 % 16 == 2.
    assert_eq!(d.length_weight(265), 38.5);
    assert_eq!(d.length_weight(274), 33.3);
    assert_eq!(d.length_weight(266), 2.3);
}

#[test]
fn mod16_stairs_high_band() {
    let d = det();
    // 386 % 16 == 2; remainder 9 (393) gets no preference up here.
    assert_eq!(d.length_weight(386), 77.0);
    assert_eq!(d.length_weight(385), 0.21);
    assert_eq!(d.length_weight(387), 0.21);
    assert_eq!(d.length_weight(393), 0.21);
}

#[test]
fn top_band_is_flat() {
    let d = det();
    // 697 % 16 == 9, 690 % 16 == 2, 689 % 16 == 1: all equal.
    assert_eq!(d.length_weight(697), 0.5);
    assert_eq!(d.length_weight(690), 0.5);
    assert_eq!(d.length_weight(689), 0.5);
}

// -------------------------------------------------------------------
// Entropy thresholds (§4.2, Fig 9)
// -------------------------------------------------------------------

#[test]
fn entropy_factor_straddles_experiment_thresholds() {
    let d = det();
    // Exp 2 draws payloads below 2 bits/byte, Exp 1 above 7: the factor
    // must be strictly increasing across both thresholds.
    assert!(d.entropy_factor(1.9) < d.entropy_factor(2.1));
    assert!(d.entropy_factor(6.9) < d.entropy_factor(7.1));
    // Monotone over the whole domain, in 0.1-bit steps.
    let mut prev = d.entropy_factor(0.0);
    for step in 1..=80 {
        let e = f64::from(step) * 0.1;
        let f = d.entropy_factor(e);
        assert!(f > prev, "entropy_factor not increasing at {e}");
        prev = f;
    }
}

#[test]
fn entropy_factor_clamps_outside_byte_range() {
    let d = det();
    // Below 0 and above 8 bits/byte the input clamps: the floor keeps
    // low-entropy replays possible, the ceiling caps at exactly 1.
    assert_eq!(d.entropy_factor(-1.0), d.entropy_factor(0.0));
    assert_eq!(d.entropy_factor(0.0), 0.12);
    assert_eq!(d.entropy_factor(8.0), 1.0);
    assert_eq!(d.entropy_factor(9.5), 1.0);
}

#[test]
fn store_probability_clamps_to_one() {
    // A pathological scale must clamp, not overflow past certainty.
    let cfg = PassiveConfig {
        scale: 1e9,
        ..PassiveConfig::default()
    };
    let d = PassiveDetector::new(cfg);
    assert_eq!(d.store_probability(&opaque(169)), 1.0);
}

// -------------------------------------------------------------------
// Plaintext-exemption prefix edges
// -------------------------------------------------------------------

#[test]
fn http_exemption_requires_trailing_space() {
    let d = det();
    let mut with_space = b"GET /".to_vec();
    with_space.resize(169, b'x');
    assert!(d.is_exempt_plaintext(&with_space));
    // "GETx" is not a recognizable method — one byte breaks the match.
    let mut without = b"GETx/".to_vec();
    without.resize(169, b'x');
    assert!(!d.is_exempt_plaintext(&without));
}

#[test]
fn tls_exemption_version_edges() {
    let d = det();
    let rec = |b1: u8, b2: u8| {
        let mut p = vec![0x16, b1, b2];
        p.resize(169, 0xAB);
        p
    };
    // Versions 3.0 through 3.4 are exempt; 3.5 and 2.x are not.
    assert!(d.is_exempt_plaintext(&rec(0x03, 0x00)));
    assert!(d.is_exempt_plaintext(&rec(0x03, 0x04)));
    assert!(!d.is_exempt_plaintext(&rec(0x03, 0x05)));
    assert!(!d.is_exempt_plaintext(&rec(0x02, 0x01)));
    // A 2-byte prefix is too short to be recognized as a TLS record.
    assert!(!d.is_exempt_plaintext(&[0x16, 0x03]));
}

#[test]
fn ssh_exemption_requires_full_banner_prefix() {
    let d = det();
    assert!(d.is_exempt_plaintext(b"SSH-2.0-OpenSSH"));
    assert!(!d.is_exempt_plaintext(b"SSH2.0-OpenSSH"));
}

#[test]
fn candidate_tracks_window_and_exemption() {
    let d = det();
    assert!(d.features(&opaque(161)).candidate);
    assert!(!d.features(&opaque(160)).candidate);
    let mut http = b"GET /a".to_vec();
    http.resize(402, b'x');
    assert!(
        !d.features(&http).candidate,
        "exempt payload counted as candidate"
    );
}

// -------------------------------------------------------------------
// NR1 / NR2 probe-length windows (Fig 2)
// -------------------------------------------------------------------

#[test]
fn nr1_length_window_edges() {
    // Each centre admits exactly centre ± 1.
    for &c in &NR1_CENTERS {
        assert!(is_nr1_len(c - 1), "centre {c} - 1");
        assert!(is_nr1_len(c), "centre {c}");
        assert!(is_nr1_len(c + 1), "centre {c} + 1");
    }
    // Gaps between trios are rejected: 10 sits between the 8 and 12
    // trios, 50 is the global maximum, 51 just past it.
    assert!(!is_nr1_len(6));
    assert!(!is_nr1_len(10));
    assert!(is_nr1_len(50));
    assert!(!is_nr1_len(51));
}

#[test]
fn nr1_draws_stay_in_window() {
    let mut rng = StdRng::seed_from_u64(2020);
    for _ in 0..2_000 {
        let len = nr1_len(&mut rng);
        assert!(is_nr1_len(len), "drawn NR1 length {len} out of window");
    }
}

#[test]
fn nr2_length_is_replay_eligible() {
    // NR2's fixed 221 bytes sits inside the low replay band — the GFW's
    // own probe lengths mimic storable first packets (221 % 16 == 13,
    // so it takes the unpreferred stair).
    let d = det();
    assert_eq!(NR2_LEN, 221);
    assert!(d.length_weight(NR2_LEN) > 0.0);
    assert_eq!(d.length_weight(NR2_LEN), 0.57);
}

#[test]
fn probe_lengths_cover_every_method() {
    // The NR1 sweep (Fig 2) centres a trio on every stream IV length
    // and on every AEAD salt + 17. An AEAD server first decrypts, and
    // reacts, at salt + 35 bytes (salt, 2-byte length, two 16-byte
    // tags, one byte more); NR2 must pass that for the largest salt.
    assert_eq!(
        NR1_CENTERS[..],
        [8, 12, 16, 22, 33, 41, 49],
        "Fig 2 centres"
    );
    let mut max_salt = 0;
    for &m in ALL_METHODS {
        let len = m.iv_len();
        match m.kind() {
            Kind::Stream => assert!(NR1_CENTERS.contains(&len), "{} IV {len}", m.name()),
            Kind::Aead => {
                assert!(
                    NR1_CENTERS.contains(&(len + 17)),
                    "{} salt {len} + 17",
                    m.name()
                );
                max_salt = max_salt.max(len);
            }
        }
    }
    assert_eq!(max_salt, 32);
    assert!(NR2_LEN > max_salt + 35, "NR2 {NR2_LEN} <= {max_salt} + 35");
}
