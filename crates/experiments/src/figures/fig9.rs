//! Fig 9: rate of replay-based probes per legitimate connection as a
//! function of the connection's payload entropy (Exp 3).
//!
//! Paper shape: packets of all entropies may be replayed, but a payload
//! of per-byte entropy 7.2 is roughly four times as likely to be
//! replayed as one of entropy 3.0.

use crate::report::Comparison;
use crate::runs::{sink_run, SinkExp, SinkRunConfig};
use crate::Scale;

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

/// Run Exp 3 and bin replays by the entropy of the replayed payload.
pub fn run(scale: Scale, seed: u64) -> Fig9 {
    let cfg = SinkRunConfig {
        exp: SinkExp::Exp3,
        connections: scale.pick(60_000, 500_000),
        conn_interval: netsim::time::Duration::from_secs(1),
        seed,
    };
    let res = sink_run(&cfg);
    let mut bins = [(0usize, 0usize); 8];
    for t in &res.triggers {
        let b = (t.entropy.floor() as usize).min(7);
        bins[b].0 += 1;
    }
    for &e in &res.replayed_entropy {
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
}
