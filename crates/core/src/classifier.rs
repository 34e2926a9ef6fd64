//! Reaction classification: §5.2.2's "how an attacker uses the
//! information" made executable.
//!
//! The classifier accumulates (probe, reaction) records per server and
//! matches the statistics against the Fig 10 signatures. The paper
//! observes that the GFW needs *several* probes before blocking a
//! Shadowsocks server (unlike one probe for Tor), implying exactly this
//! kind of statistical matching.

use crate::probe::{ProbeKind, Reaction};
use netsim::hash::HashMap;
use netsim::packet::SocketAddr;
use serde::{Deserialize, Serialize};

/// What the classifier concludes about one server.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// Not enough evidence yet.
    Inconclusive,
    /// Reactions are inconsistent with any Shadowsocks signature.
    NotShadowsocks,
    /// Reactions match a Shadowsocks signature.
    LikelyShadowsocks {
        /// Matched signature.
        signature: Signature,
        /// Confidence in [0, 1].
        confidence: f64,
    },
}

/// Which Fig 10 row (family) the reactions match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signature {
    /// Answered a replay with data: a proxy with no replay filter
    /// (OutlineVPN ≤ v1.0.8 et al.).
    RepliesToReplay,
    /// RST fraction to long random probes ≈ 13/16: stream cipher with
    /// address-type masking (shadowsocks-libev ≤ v3.2.5).
    StreamMasked,
    /// RST fraction ≈ 253/256: stream cipher without masking.
    StreamUnmasked,
    /// Deterministic RST above a salt-dependent threshold and silence
    /// below: AEAD, old libev.
    AeadThresholdRst,
    /// FIN at exactly 50 bytes: OutlineVPN v1.0.6.
    OutlineFinAt50,
    /// Everything times out — indistinguishable from a non-responsive
    /// service; the post-fix implementations live here.
    AllSilent,
}

/// Minimum probes before a verdict is attempted.
pub const MIN_PROBES: usize = 8;

/// Running counts of one server's reactions: everything `verdict`
/// reads, updated in O(1) per record, so memory is O(servers) rather
/// than O(probes).
#[derive(Default, Clone)]
struct ServerStats {
    /// Reactions recorded.
    total: usize,
    /// Some replay was answered with data.
    replay_data: bool,
    /// FIN/ACKs to random probes of exactly 50 bytes.
    fin50: usize,
    /// Random probes of at least 51 bytes.
    long: usize,
    /// RSTs to random probes of at least 51 bytes.
    long_rst: usize,
    /// Timeouts of random probes of at least 51 bytes.
    long_timeout: usize,
    /// RSTs to random probes of 17–23 bytes.
    short_rst: usize,
}

/// The per-server reaction classifier.
#[derive(Default)]
pub struct Classifier {
    servers: HashMap<SocketAddr, ServerStats>,
}

impl Classifier {
    /// New, empty classifier.
    pub fn new() -> Classifier {
        Classifier::default()
    }

    /// Record one observed reaction.
    pub fn record(
        &mut self,
        server: SocketAddr,
        kind: ProbeKind,
        payload_len: usize,
        reaction: Reaction,
    ) {
        let s = self.servers.entry(server).or_default();
        s.total += 1;
        if kind.is_replay() {
            s.replay_data |= reaction == Reaction::Data;
            return;
        }
        match (payload_len, reaction) {
            (50, Reaction::FinAck) => s.fin50 += 1,
            (17..=23, Reaction::Rst) => s.short_rst += 1,
            _ => {}
        }
        if payload_len >= 51 {
            s.long += 1;
            match reaction {
                Reaction::Rst => s.long_rst += 1,
                Reaction::Timeout => s.long_timeout += 1,
                _ => {}
            }
        }
    }

    /// Number of recorded reactions for a server.
    pub fn observations(&self, server: SocketAddr) -> usize {
        self.servers.get(&server).map_or(0, |s| s.total)
    }

    /// Classify a server from its accumulated reactions.
    pub fn verdict(&self, server: SocketAddr) -> Verdict {
        let Some(s) = self.servers.get(&server) else {
            return Verdict::Inconclusive;
        };
        // 1. Proxied replay. The one shortcut that needs no statistics:
        // data in response to a replay is damning on its own, and
        // enough probes only raise the confidence.
        if s.replay_data {
            let confidence = if s.total < MIN_PROBES { 0.95 } else { 0.99 };
            return Verdict::LikelyShadowsocks {
                signature: Signature::RepliesToReplay,
                confidence,
            };
        }
        if s.total < MIN_PROBES {
            return Verdict::Inconclusive;
        }

        // 2. FIN at exactly 50 bytes from random probes (Outline 1.0.6).
        if s.fin50 >= 2 {
            return Verdict::LikelyShadowsocks {
                signature: Signature::OutlineFinAt50,
                confidence: 0.9,
            };
        }

        // Long random probes (≥ 51 bytes) carry the implementation's
        // statistical signature.
        if s.long >= 4 {
            let rst = s.long_rst as f64 / s.long as f64;
            if rst > 0.97 {
                // Could be AEAD-threshold RST or unmasked stream; short
                // probes disambiguate (AEAD stays silent below its
                // threshold, unmasked stream RSTs even short probes).
                let signature = if s.short_rst > 0 {
                    Signature::StreamUnmasked
                } else {
                    Signature::AeadThresholdRst
                };
                return Verdict::LikelyShadowsocks {
                    signature,
                    confidence: 0.85,
                };
            }
            let expected = 13.0 / 16.0;
            if (rst - expected).abs() < 0.12 {
                return Verdict::LikelyShadowsocks {
                    signature: Signature::StreamMasked,
                    confidence: 0.8,
                };
            }
            let timeout = s.long_timeout as f64 / s.long as f64;
            if timeout > 0.95 {
                // Post-fix implementations are deliberately
                // indistinguishable from silence.
                return Verdict::LikelyShadowsocks {
                    signature: Signature::AllSilent,
                    confidence: 0.3,
                };
            }
            return Verdict::NotShadowsocks;
        }
        Verdict::Inconclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::Ipv4;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn server() -> SocketAddr {
        (Ipv4::new(172, 0, 0, 9), 8388)
    }

    /// The classifier as it was before it kept running counts: it
    /// stored every `(kind, payload_len, reaction)` record and
    /// rescanned them on each verdict. Kept as the oracle the counters
    /// must agree with.
    fn scan_verdict(recs: &[(ProbeKind, usize, Reaction)]) -> Verdict {
        let replay_data = recs
            .iter()
            .any(|(k, _, r)| k.is_replay() && *r == Reaction::Data);
        if recs.len() < MIN_PROBES {
            if replay_data {
                return Verdict::LikelyShadowsocks {
                    signature: Signature::RepliesToReplay,
                    confidence: 0.95,
                };
            }
            return Verdict::Inconclusive;
        }
        if replay_data {
            return Verdict::LikelyShadowsocks {
                signature: Signature::RepliesToReplay,
                confidence: 0.99,
            };
        }
        let fin50 = recs
            .iter()
            .filter(|(k, len, r)| !k.is_replay() && *len == 50 && *r == Reaction::FinAck)
            .count();
        if fin50 >= 2 {
            return Verdict::LikelyShadowsocks {
                signature: Signature::OutlineFinAt50,
                confidence: 0.9,
            };
        }
        let long: Vec<&(ProbeKind, usize, Reaction)> = recs
            .iter()
            .filter(|(k, len, _)| !k.is_replay() && *len >= 51)
            .collect();
        if long.len() >= 4 {
            let rst = long.iter().filter(|(_, _, r)| *r == Reaction::Rst).count() as f64
                / long.len() as f64;
            if rst > 0.97 {
                let short_rst = recs
                    .iter()
                    .filter(|(k, len, _)| !k.is_replay() && (17..=23).contains(len))
                    .filter(|(_, _, r)| *r == Reaction::Rst)
                    .count();
                let signature = if short_rst > 0 {
                    Signature::StreamUnmasked
                } else {
                    Signature::AeadThresholdRst
                };
                return Verdict::LikelyShadowsocks {
                    signature,
                    confidence: 0.85,
                };
            }
            let expected = 13.0 / 16.0;
            if (rst - expected).abs() < 0.12 {
                return Verdict::LikelyShadowsocks {
                    signature: Signature::StreamMasked,
                    confidence: 0.8,
                };
            }
            let timeout = long
                .iter()
                .filter(|(_, _, r)| *r == Reaction::Timeout)
                .count() as f64
                / long.len() as f64;
            if timeout > 0.95 {
                return Verdict::LikelyShadowsocks {
                    signature: Signature::AllSilent,
                    confidence: 0.3,
                };
            }
            return Verdict::NotShadowsocks;
        }
        Verdict::Inconclusive
    }

    const KINDS: [ProbeKind; 7] = [
        ProbeKind::R1,
        ProbeKind::R2,
        ProbeKind::R3,
        ProbeKind::R4,
        ProbeKind::R5,
        ProbeKind::Nr1,
        ProbeKind::Nr2,
    ];

    const REACTIONS: [Reaction; 5] = [
        Reaction::Timeout,
        Reaction::Rst,
        Reaction::FinAck,
        Reaction::Data,
        Reaction::ConnectFailed,
    ];

    /// One random record for one of two servers. A replay with
    /// probability `replays`%, else NR1/NR2. Lengths fall in the
    /// classifier's bands: 17–23, exactly 50, ≥ 51 and anything below
    /// 64. With probability `skew`% the reaction is `dominant`, so runs
    /// reach the RST and timeout ratios the signatures test for.
    fn random_record(
        rng: &mut StdRng,
        replays: u32,
        dominant: Reaction,
        skew: u32,
    ) -> (usize, ProbeKind, usize, Reaction) {
        let server = rng.gen_range(0..2usize);
        let kind = if rng.gen_range(0..100u32) < replays {
            KINDS[rng.gen_range(0..5usize)]
        } else {
            KINDS[rng.gen_range(5..7usize)]
        };
        let len = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(17..=23usize),
            1 => 50,
            2 => rng.gen_range(51..=600usize),
            _ => rng.gen_range(0..64usize),
        };
        let reaction = if rng.gen_range(0..100u32) < skew {
            dominant
        } else {
            REACTIONS[rng.gen_range(0..REACTIONS.len())]
        };
        (server, kind, len, reaction)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// After every `record`, the running counts give the same
        /// verdict as rescanning the full record list, for every server.
        #[test]
        fn counts_match_record_scan(
            seed in any::<u64>(),
            n in 0usize..80,
            replays in 0u32..=40,
            dominant in 0usize..REACTIONS.len(),
            skew in 0u32..=100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let servers = [(Ipv4::new(172, 0, 0, 9), 8388), (Ipv4::new(172, 0, 0, 10), 8388)];
            let mut c = Classifier::new();
            let mut recs: [Vec<(ProbeKind, usize, Reaction)>; 2] = Default::default();
            for _ in 0..n {
                let (i, kind, len, reaction) =
                    random_record(&mut rng, replays, REACTIONS[dominant], skew);
                c.record(servers[i], kind, len, reaction);
                recs[i].push((kind, len, reaction));
                for (server, recs) in servers.iter().zip(&recs) {
                    prop_assert_eq!(c.observations(*server), recs.len());
                    prop_assert_eq!(c.verdict(*server), scan_verdict(recs), "records {:?}", recs);
                }
            }
        }
    }

    #[test]
    fn replay_answered_with_data_is_damning() {
        let mut c = Classifier::new();
        c.record(server(), ProbeKind::R1, 400, Reaction::Data);
        match c.verdict(server()) {
            Verdict::LikelyShadowsocks { signature, .. } => {
                assert_eq!(signature, Signature::RepliesToReplay)
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn too_few_probes_is_inconclusive() {
        let mut c = Classifier::new();
        c.record(server(), ProbeKind::Nr2, 221, Reaction::Rst);
        assert_eq!(c.verdict(server()), Verdict::Inconclusive);
    }

    #[test]
    fn stream_masked_signature() {
        let mut c = Classifier::new();
        // 13 RSTs, 3 timeouts out of 16 long probes ≈ 13/16.
        for _ in 0..13 {
            c.record(server(), ProbeKind::Nr2, 221, Reaction::Rst);
        }
        for _ in 0..3 {
            c.record(server(), ProbeKind::Nr2, 221, Reaction::Timeout);
        }
        match c.verdict(server()) {
            Verdict::LikelyShadowsocks { signature, .. } => {
                assert_eq!(signature, Signature::StreamMasked)
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn aead_threshold_signature() {
        let mut c = Classifier::new();
        // Silent short probes, deterministic RST on long ones.
        for len in [8usize, 16, 22, 33] {
            c.record(server(), ProbeKind::Nr1, len, Reaction::Timeout);
        }
        for _ in 0..8 {
            c.record(server(), ProbeKind::Nr2, 221, Reaction::Rst);
        }
        match c.verdict(server()) {
            Verdict::LikelyShadowsocks { signature, .. } => {
                assert_eq!(signature, Signature::AeadThresholdRst)
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn unmasked_stream_signature() {
        let mut c = Classifier::new();
        // RSTs even on short (17–23 byte) probes.
        for len in [17usize, 22, 23] {
            c.record(server(), ProbeKind::Nr1, len, Reaction::Rst);
        }
        for _ in 0..8 {
            c.record(server(), ProbeKind::Nr2, 221, Reaction::Rst);
        }
        match c.verdict(server()) {
            Verdict::LikelyShadowsocks { signature, .. } => {
                assert_eq!(signature, Signature::StreamUnmasked)
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn outline_fin_at_50() {
        let mut c = Classifier::new();
        for _ in 0..6 {
            c.record(server(), ProbeKind::Nr1, 49, Reaction::Timeout);
        }
        c.record(server(), ProbeKind::Nr1, 50, Reaction::FinAck);
        c.record(server(), ProbeKind::Nr1, 50, Reaction::FinAck);
        match c.verdict(server()) {
            Verdict::LikelyShadowsocks { signature, .. } => {
                assert_eq!(signature, Signature::OutlineFinAt50)
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn all_silent_is_low_confidence() {
        let mut c = Classifier::new();
        for _ in 0..12 {
            c.record(server(), ProbeKind::Nr2, 221, Reaction::Timeout);
        }
        match c.verdict(server()) {
            Verdict::LikelyShadowsocks {
                signature,
                confidence,
            } => {
                assert_eq!(signature, Signature::AllSilent);
                assert!(confidence < 0.5);
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn plain_web_server_is_not_shadowsocks() {
        let mut c = Classifier::new();
        // A web server answers random junk with data (an HTTP error).
        for _ in 0..12 {
            c.record(server(), ProbeKind::Nr2, 221, Reaction::Data);
        }
        assert_eq!(c.verdict(server()), Verdict::NotShadowsocks);
    }
}
