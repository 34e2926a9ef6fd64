//! Fig 7: CDF of the delay between a legitimate connection and the
//! replay probes derived from it.
//!
//! Paper shape: >20% of first replays within one second, >50% within a
//! minute, >75% within 15 minutes; minimum 0.28 s, maximum 569.55 h;
//! payloads may be replayed up to 47 times (3,269 first occurrences vs
//! 11,137 total).

use crate::report::Comparison;
use crate::runs::{shadowsocks_run, SsRunConfig};
use crate::Scale;
use analysis::stats::Cdf;
use gfw_core::probe::ProbeRecord;
use netsim::hash::HashMap;

/// Result of the Fig 7 analysis.
pub struct Fig7 {
    /// Delays of the first replay of each stored payload (seconds).
    pub first: Cdf,
    /// Delays of all replays (seconds).
    pub all: Cdf,
}

impl Fig7 {
    /// Comparison with the paper's milestones (on the all-replays CDF,
    /// matching the blue line of Fig 7).
    pub fn comparison(&self) -> Comparison {
        let mut c = Comparison::new();
        c.add(
            "replays within 1 s",
            ">20%",
            format!("{:.0}%", self.first.at(1.0) * 100.0),
            self.first.at(1.0) > 0.15,
        );
        c.add(
            "replays within 1 min",
            ">50%",
            format!("{:.0}%", self.first.at(60.0) * 100.0),
            self.first.at(60.0) > 0.45,
        );
        c.add(
            "replays within 15 min",
            ">75%",
            format!("{:.0}%", self.first.at(900.0) * 100.0),
            self.first.at(900.0) > 0.70,
        );
        c.add(
            "minimum delay",
            "0.28 s",
            format!("{:.2} s", self.first.min()),
            self.first.min() >= 0.2,
        );
        c.add(
            "long tail exists (hours)",
            "max 569.55 h",
            format!("{:.1} h", self.all.max() / 3600.0),
            self.all.max() > 3600.0,
        );
        c.add(
            "payloads replayed multiple times",
            "mean ≈3.4",
            format!(
                "mean {:.1}",
                self.all.len() as f64 / self.first.len().max(1) as f64
            ),
            self.all.len() > self.first.len(),
        );
        c
    }
}

impl std::fmt::Display for Fig7 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 7 — replay delays: {} first occurrences, {} total\n",
            self.first.len(),
            self.all.len()
        )?;
        for (label, t) in [
            ("1 s", 1.0),
            ("1 min", 60.0),
            ("15 min", 900.0),
            ("1 h", 3600.0),
            ("10 h", 36_000.0),
        ] {
            writeln!(
                f,
                "  ≤ {label:>6}: first {:>5.1}%   all {:>5.1}%",
                self.first.at(t) * 100.0,
                self.all.at(t) * 100.0
            )?;
        }
        writeln!(f)?;
        write!(f, "{}", self.comparison().render())
    }
}

/// Analyze probe records.
pub fn analyze(probes: &[ProbeRecord]) -> Fig7 {
    let mut all = Vec::new();
    let mut first: HashMap<u64, f64> = HashMap::default();
    for p in probes {
        let (Some(delay), Some(tid)) = (p.trigger_delay, p.trigger_id) else {
            continue;
        };
        let secs = delay.as_secs_f64();
        all.push(secs);
        first
            .entry(tid)
            .and_modify(|d| *d = d.min(secs))
            .or_insert(secs);
    }
    Fig7 {
        first: Cdf::new(first.into_values().collect()),
        all: Cdf::new(all),
    }
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Fig7 {
    let cfg = SsRunConfig {
        connections: scale.pick(3_000, 30_000),
        fleet_pool: scale.pick(1_000, 8_000),
        seed,
        ..Default::default()
    };
    analyze(&shadowsocks_run(&cfg).probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_milestones_hold() {
        let fig = run(Scale::Quick, 9);
        assert!(fig.first.len() > 20, "{} first replays", fig.first.len());
        assert!(fig.comparison().all_hold(), "\n{fig}");
    }
}
