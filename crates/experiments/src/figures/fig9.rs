//! Fig 9: rate of replay-based probes per legitimate connection as a
//! function of the connection's payload entropy (Exp 3).
//!
//! Paper shape: packets of all entropies may be replayed, but a payload
//! of per-byte entropy 7.2 is roughly four times as likely to be
//! replayed as one of entropy 3.0.

use crate::report::Comparison;
use crate::runs::{sink_run, SinkExp, SinkRunConfig};
use crate::Scale;
use netsim::hash::HashMap;
use netsim::packet::Payload;
use std::borrow::Cow;

/// Result of the Fig 9 analysis.
pub struct Fig9 {
    /// Per-entropy-bin (bin width 1 bit): (triggers, replays).
    pub bins: [(usize, usize); 8],
}

impl Fig9 {
    /// Replay ratio in a bin.
    pub fn ratio(&self, bin: usize) -> f64 {
        let (t, r) = self.bins[bin];
        if t == 0 {
            return 0.0;
        }
        r as f64 / t as f64
    }

    /// Pooled replay ratio over an inclusive bin range (pooling keeps
    /// small-sample noise manageable).
    fn pooled_ratio(&self, lo: usize, hi: usize) -> f64 {
        let (t, r) = self.bins[lo..=hi]
            .iter()
            .fold((0usize, 0usize), |acc, b| (acc.0 + b.0, acc.1 + b.1));
        if t == 0 {
            return 0.0;
        }
        r as f64 / t as f64
    }

    /// Comparison with the paper.
    pub fn comparison(&self) -> Comparison {
        let hi = self.pooled_ratio(6, 7);
        let mid = self.pooled_ratio(2, 4);
        let factor = if mid > 0.0 { hi / mid } else { f64::INFINITY };
        let mut c = Comparison::new();
        c.add(
            "high entropy replayed more (bins 6-7 vs 2-4)",
            "≈4× (7.2 vs 3.0 in the paper)",
            format!("{factor:.1}×"),
            factor > 1.5,
        );
        c.add(
            "rising curve",
            "rising",
            format!(
                "{:.4}% → {:.4}%",
                self.pooled_ratio(0, 3) * 100.0,
                hi * 100.0
            ),
            hi > self.pooled_ratio(0, 3),
        );
        let low_bins_nonempty = self.bins[..3].iter().map(|b| b.1).sum::<usize>();
        c.add(
            "low-entropy payloads still replayed sometimes",
            "nonzero",
            low_bins_nonempty,
            true, // informational: small samples may legitimately be 0
        );
        c
    }
}

impl std::fmt::Display for Fig9 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 9 — replay rate by trigger entropy (Exp 3)\n")?;
        for (i, (t, r)) in self.bins.iter().enumerate() {
            writeln!(
                f,
                "  entropy [{},{}): {:>7} conns, {:>5} replays, ratio {:.4}%",
                i,
                i + 1,
                t,
                r,
                self.ratio(i) * 100.0
            )?;
        }
        writeln!(f)?;
        write!(f, "{}", self.comparison().render())
    }
}

/// Entropy of each stored payload that an identical (R1) replay
/// copied, in the order the replays reached the server. Prober payloads
/// are matched to triggers by their bytes; a later trigger with
/// identical bytes overwrites an earlier one (they have the same
/// entropy). Each stored payload counts once: occurrence counts are
/// dominated by the up-to-47× replay multiplicity.
fn replayed_entropy(triggers: &[(Cow<'_, [u8]>, f64)], prober_payloads: &[Payload]) -> Vec<f64> {
    let mut by_bytes: HashMap<&[u8], f64> = triggers.iter().map(|(b, e)| (&b[..], *e)).collect();
    prober_payloads
        .iter()
        .filter_map(|p| by_bytes.remove(&p.bytes()[..]))
        .collect()
}

/// Each trigger payload's bytes with its Shannon entropy.
fn trigger_entropies(triggers: &[Payload]) -> Vec<(Cow<'_, [u8]>, f64)> {
    triggers
        .iter()
        .map(|p| {
            let bytes = p.bytes();
            let e = analysis::shannon_entropy(&bytes);
            (bytes, e)
        })
        .collect()
}

/// Run Exp 3 and bin replays by the entropy of the replayed payload.
pub fn run(scale: Scale, seed: u64) -> Fig9 {
    let cfg = SinkRunConfig {
        exp: SinkExp::Exp3,
        connections: scale.pick(60_000, 500_000),
        conn_interval: netsim::time::Duration::from_secs(1),
        seed,
    };
    let res = sink_run(&cfg);
    let triggers = trigger_entropies(&res.triggers);
    let mut bins = [(0usize, 0usize); 8];
    for &(_, e) in &triggers {
        let b = (e.floor() as usize).min(7);
        bins[b].0 += 1;
    }
    for e in replayed_entropy(&triggers, &res.prober_payloads) {
        let b = (e.floor() as usize).min(7);
        bins[b].1 += 1;
    }
    Fig9 { bins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn entropy_gradient_holds() {
        let fig = run(Scale::Quick, 12);
        let total_replays: usize = fig.bins.iter().map(|b| b.1).sum();
        assert!(total_replays > 20, "{total_replays} replays");
        assert!(fig.comparison().all_hold(), "\n{fig}");
    }

    /// The matching this figure used before it keyed by bytes: SHA-256
    /// digests, with a separate set so each stored payload counts once.
    fn replayed_entropy_by_digest(triggers: &[Payload], prober_payloads: &[Payload]) -> Vec<f64> {
        let mut digest_entropy = HashMap::default();
        for p in triggers {
            let payload = p.bytes();
            let e = analysis::shannon_entropy(&payload);
            digest_entropy.insert(sscrypto::sha256::sha256(&payload), e);
        }
        let mut counted = netsim::hash::HashSet::default();
        let mut out = Vec::new();
        for p in prober_payloads {
            let digest = sscrypto::sha256::sha256(&p.bytes());
            if let Some(&e) = digest_entropy.get(&digest) {
                if counted.insert(digest) {
                    out.push(e);
                }
            }
        }
        out
    }

    #[test]
    fn byte_matching_equals_digest_matching() {
        let mut res = sink_run(&SinkRunConfig {
            exp: SinkExp::Exp3,
            connections: 20_000,
            conn_interval: netsim::time::Duration::from_secs(1),
            seed: 12,
        });
        // Payloads that two triggers share: repeat every replayed trigger.
        let replayed: Vec<Payload> = res
            .triggers
            .iter()
            .filter(|t| res.prober_payloads.contains(t))
            .cloned()
            .collect();
        res.triggers.extend(replayed.iter().cloned());
        // Some trigger payload reaches the server more than once.
        let repeats = replayed
            .iter()
            .filter(|t| res.prober_payloads.iter().filter(|p| p == t).count() > 1)
            .count();
        assert!(
            replayed.len() > 3 && repeats > 0,
            "{} replayed, {repeats} repeated",
            replayed.len()
        );

        let by_bytes = replayed_entropy(&trigger_entropies(&res.triggers), &res.prober_payloads);
        let by_digest = replayed_entropy_by_digest(&res.triggers, &res.prober_payloads);
        assert_eq!(by_bytes, by_digest);
    }
}
