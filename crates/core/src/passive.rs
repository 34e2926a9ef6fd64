//! The passive traffic-analysis stage (§4).
//!
//! The GFW inspects the first data-carrying packet of each connection
//! and decides whether to store its payload for replay probing. Two
//! features are used — exactly the two the paper isolates:
//!
//! * **Length** (Fig 8): replayed payloads fall in a 161–999-byte
//!   window with a stair-step preference for lengths whose remainder
//!   mod 16 is 9 (low range) or 2 (high range).
//! * **Entropy** (Fig 9): a payload of per-byte entropy 7.2 is roughly
//!   four times more likely to be stored than one of entropy 3.
//!
//! Plaintext protocols (HTTP, TLS records) are exempted first — the
//! real GFW cannot be replaying every TLS handshake, and the paper's
//! Shadowsocks-vs-TLS discrimination implies a whitelist of
//! recognizable protocols.

use analysis::shannon_entropy;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One interval of the Fig 8 length model, with per-remainder weights.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LengthBand {
    /// Inclusive payload-length range.
    pub range: (usize, usize),
    /// Weight for lengths with remainder 9 mod 16.
    pub w_rem9: f64,
    /// Weight for lengths with remainder 2 mod 16.
    pub w_rem2: f64,
    /// Weight for all other remainders.
    pub w_other: f64,
}

/// Configuration of the passive detector.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PassiveConfig {
    /// Global scale: storage probability per connection is
    /// `scale × band_weight × entropy_factor`, clamped to [0, 1].
    ///
    /// The default reproduces the paper's aggregate replay rate of
    /// ~0.3% of trigger connections (Exp 1.a: 2,835 identical replays
    /// for 942,457 connections).
    pub scale: f64,
    /// Length bands. Calibrated from Fig 8's reported mixtures: in
    /// 168–263, 72% of replays have remainder 9; in 384–687, 96% have
    /// remainder 2; 264–383 mixes both.
    pub bands: Vec<LengthBand>,
    /// Exempt recognizable plaintext protocols before scoring.
    pub exempt_plaintext: bool,
}

impl Default for PassiveConfig {
    fn default() -> Self {
        PassiveConfig {
            scale: 0.00106,
            bands: vec![
                LengthBand {
                    range: (161, 263),
                    w_rem9: 22.0,
                    w_rem2: 0.57,
                    w_other: 0.57,
                },
                LengthBand {
                    range: (264, 383),
                    w_rem9: 38.5,
                    w_rem2: 33.3,
                    w_other: 2.3,
                },
                LengthBand {
                    range: (384, 687),
                    w_rem9: 0.21,
                    w_rem2: 77.0,
                    w_other: 0.21,
                },
                LengthBand {
                    range: (688, 999),
                    w_rem9: 0.5,
                    w_rem2: 0.5,
                    w_other: 0.5,
                },
            ],
            exempt_plaintext: true,
        }
    }
}

/// Length/entropy features of a first payload, computed in one pass
/// so callers on the per-packet hot path never score the same bytes
/// twice (the entropy histogram is the expensive part).
#[derive(Clone, Copy, Debug)]
pub struct FirstPayloadFeatures {
    /// Payload length in bytes.
    pub len: usize,
    /// Recognizable plaintext protocol (never stored).
    pub exempt: bool,
    /// Inside the replay-eligible length window and not exempt.
    pub candidate: bool,
    /// Fig 8 length weight (0.0 outside the window).
    pub weight: f64,
    /// Shannon entropy in bits/byte; `None` when scoring short-circuited
    /// before the entropy pass (exempt or zero-weight payloads).
    pub entropy: Option<f64>,
    /// Probability this payload is stored for replay.
    pub store_probability: f64,
}

/// The passive detector.
///
/// Construction flattens the configured length bands into lookup
/// tables, so per-payload scoring is two indexed loads instead of a
/// band scan. The tables are derived from `config` once in
/// [`PassiveDetector::new`]; treat the config as read-only afterwards.
#[derive(Clone, Debug)]
pub struct PassiveDetector {
    /// Active configuration.
    pub config: PassiveConfig,
    /// `len_weight[len]` = Fig 8 weight; lengths past the table are 0.
    len_weight: Vec<f64>,
    /// `in_band[len]` = length is inside some configured band.
    in_band: Vec<bool>,
    /// First-byte prefilter for the plaintext exemption: only payloads
    /// whose first byte can start a recognized protocol take the full
    /// prefix comparisons. Encrypted traffic falls through on one load.
    plaintext_first: [bool; 256],
}

impl PassiveDetector {
    /// Build with the given configuration.
    pub fn new(config: PassiveConfig) -> PassiveDetector {
        let table_len = config
            .bands
            .iter()
            .map(|b| b.range.1 + 1)
            .max()
            .unwrap_or(0);
        let mut len_weight = vec![0.0f64; table_len];
        let mut in_band = vec![false; table_len];
        for band in &config.bands {
            for len in band.range.0..=band.range.1 {
                // First matching band wins, matching the band-scan
                // semantics this table replaces.
                if !in_band[len] {
                    in_band[len] = true;
                    len_weight[len] = match len % 16 {
                        9 => band.w_rem9,
                        2 => band.w_rem2,
                        _ => band.w_other,
                    };
                }
            }
        }
        let mut plaintext_first = [false; 256];
        // TLS handshake record, HTTP methods, SSH banner (see
        // `is_exempt_plaintext` for the full prefixes).
        for b in [0x16u8, b'G', b'P', b'H', b'D', b'O', b'C', b'S'] {
            plaintext_first[b as usize] = true;
        }
        PassiveDetector {
            config,
            len_weight,
            in_band,
            plaintext_first,
        }
    }

    /// The Fig 8 length weight for a payload length.
    pub fn length_weight(&self, len: usize) -> f64 {
        self.len_weight.get(len).copied().unwrap_or(0.0)
    }

    /// The Fig 9 entropy factor: rises with per-byte entropy; ~4× from
    /// entropy 3 to 7.2, never zero (even low-entropy payloads were
    /// occasionally replayed).
    pub fn entropy_factor(&self, entropy_bits: f64) -> f64 {
        let x = (entropy_bits / 8.0).clamp(0.0, 1.0);
        0.12 + 0.88 * x * x * x
    }

    /// True if the payload is a recognizable plaintext protocol the GFW
    /// can positively identify (and therefore never treats as probable
    /// Shadowsocks).
    pub fn is_exempt_plaintext(&self, payload: &[u8]) -> bool {
        if !self.config.exempt_plaintext {
            return false;
        }
        match payload.first() {
            Some(&b) if self.plaintext_first[b as usize] => {}
            _ => return false,
        }
        // TLS record: handshake (0x16), version 3.x.
        if payload.len() >= 3 && payload[0] == 0x16 && payload[1] == 0x03 && payload[2] <= 0x04 {
            return true;
        }
        // HTTP request methods.
        const METHODS: [&[u8]; 7] = [
            b"GET ",
            b"POST ",
            b"HEAD ",
            b"PUT ",
            b"DELETE ",
            b"OPTIONS ",
            b"CONNECT ",
        ];
        if METHODS.iter().any(|m| payload.starts_with(m)) {
            return true;
        }
        // SSH banner.
        payload.starts_with(b"SSH-")
    }

    /// All first-payload features in one pass: the plaintext check and
    /// length-table loads run once, and the entropy histogram is built
    /// only when a nonzero length weight makes it matter.
    pub fn features(&self, payload: &[u8]) -> FirstPayloadFeatures {
        let len = payload.len();
        let exempt = self.is_exempt_plaintext(payload);
        if exempt {
            return FirstPayloadFeatures {
                len,
                exempt,
                candidate: false,
                weight: 0.0,
                entropy: None,
                store_probability: 0.0,
            };
        }
        let candidate = self.in_band.get(len).copied().unwrap_or(false);
        let weight = self.len_weight.get(len).copied().unwrap_or(0.0);
        if weight == 0.0 {
            return FirstPayloadFeatures {
                len,
                exempt,
                candidate,
                weight,
                entropy: None,
                store_probability: 0.0,
            };
        }
        let entropy = shannon_entropy(payload);
        let store_probability =
            (self.config.scale * weight * self.entropy_factor(entropy)).clamp(0.0, 1.0);
        FirstPayloadFeatures {
            len,
            exempt,
            candidate,
            weight,
            entropy: Some(entropy),
            store_probability,
        }
    }

    /// The probability that this first payload is stored for replay.
    pub fn store_probability(&self, payload: &[u8]) -> f64 {
        self.features(payload).store_probability
    }

    /// Bernoulli decision: should this payload be stored?
    pub fn should_store(&self, payload: &[u8], rng: &mut impl Rng) -> bool {
        let p = self.store_probability(payload);
        p > 0.0 && rng.gen_bool(p)
    }
}

impl Default for PassiveDetector {
    fn default() -> Self {
        PassiveDetector::new(PassiveConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn det() -> PassiveDetector {
        PassiveDetector::default()
    }

    fn random_payload(len: usize, rng: &mut StdRng) -> Vec<u8> {
        let mut p = vec![0u8; len];
        rng.fill(&mut p[..]);
        p
    }

    #[test]
    fn out_of_window_lengths_never_stored() {
        let d = det();
        let mut rng = StdRng::seed_from_u64(1);
        for len in [1usize, 50, 100, 160, 1000, 1500] {
            let p = random_payload(len, &mut rng);
            assert_eq!(d.store_probability(&p), 0.0, "len {len}");
        }
    }

    #[test]
    fn remainder9_preferred_in_low_band() {
        let d = det();
        // 169 % 16 == 9; 168 % 16 == 8.
        assert!(d.length_weight(169) > 10.0 * d.length_weight(168));
    }

    #[test]
    fn remainder2_preferred_in_high_band() {
        let d = det();
        // 402 % 16 == 2; 403 % 16 == 3.
        assert!(d.length_weight(402) > 100.0 * d.length_weight(403));
    }

    #[test]
    fn fig8_mixture_low_band() {
        // Within 168–263, the fraction of stored payloads with
        // remainder 9 should be ≈72% for uniform trigger lengths.
        let d = det();
        let w9 = 6.0 * d.length_weight(169); // 6 lengths with rem 9 in band
        let mut w_all = 0.0;
        for len in 168..=263 {
            w_all += d.length_weight(len);
        }
        let frac = w9 / w_all;
        assert!((frac - 0.72).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn fig8_mixture_high_band() {
        let d = det();
        let w2 = 19.0 * d.length_weight(386); // 19 lengths with rem 2 in 384..=687
        let mut w_all = 0.0;
        for len in 384..=687 {
            w_all += d.length_weight(len);
        }
        let frac = w2 / w_all;
        assert!((frac - 0.96).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn fig9_entropy_ratio() {
        let d = det();
        let ratio = d.entropy_factor(7.2) / d.entropy_factor(3.0);
        assert!(
            (3.0..6.0).contains(&ratio),
            "entropy 7.2 vs 3.0 ratio {ratio}"
        );
        // Never zero, even at entropy 0 (Fig 9 shows replays at all
        // entropies).
        assert!(d.entropy_factor(0.0) > 0.0);
    }

    #[test]
    fn plaintext_protocols_exempt() {
        let d = det();
        // A 400-byte HTTP request would otherwise be length-eligible.
        let mut http = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n".to_vec();
        http.resize(402, b'a');
        assert_eq!(d.store_probability(&http), 0.0);
        let mut tls = vec![0x16, 0x03, 0x01, 0x02, 0x00];
        tls.resize(402, 0xAB);
        assert_eq!(d.store_probability(&tls), 0.0);
        let ssh = b"SSH-2.0-OpenSSH_8.2p1".to_vec();
        assert_eq!(d.store_probability(&ssh), 0.0);
    }

    #[test]
    fn exemption_can_be_disabled() {
        let cfg = PassiveConfig {
            exempt_plaintext: false,
            ..Default::default()
        };
        let d = PassiveDetector::new(cfg);
        let mut tls = vec![0x16, 0x03, 0x01];
        tls.resize(402, 0xAB);
        assert!(d.store_probability(&tls) > 0.0);
    }

    #[test]
    fn aggregate_rate_near_paper() {
        // Uniform lengths 1–1000, high-entropy payloads: overall storage
        // rate should be ≈0.3% (Exp 1.a's identical-replay rate).
        let d = det();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 60_000;
        let mut stored = 0;
        for _ in 0..n {
            let len = rng.gen_range(1..=1000);
            let p = random_payload(len, &mut rng);
            if d.should_store(&p, &mut rng) {
                stored += 1;
            }
        }
        let rate = stored as f64 / n as f64;
        assert!(
            (0.0015..0.0055).contains(&rate),
            "storage rate {rate} (want ≈0.003)"
        );
    }

    #[test]
    fn high_entropy_stored_more_than_low() {
        let d = det();
        let mut rng = StdRng::seed_from_u64(10);
        let n = 40_000;
        let mut hi = 0;
        let mut lo = 0;
        for _ in 0..n {
            // Same eligible length, different entropy.
            let len = 402;
            let hi_p = random_payload(len, &mut rng);
            let lo_p = vec![b'a'; len]; // entropy 0 (and not plaintext-prefixed)
            if d.should_store(&hi_p, &mut rng) {
                hi += 1;
            }
            if d.should_store(&lo_p, &mut rng) {
                lo += 1;
            }
        }
        assert!(hi > lo * 3, "hi {hi}, lo {lo}");
    }
}
