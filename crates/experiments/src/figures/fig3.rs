//! Fig 3: cumulative number of probes per prober IP address.
//!
//! Paper shape: 51,837 probes from 12,300 unique addresses; unlike
//! Ensafi et al. 2015 (95% of addresses seen once), more than 75% of
//! addresses sent more than one probe; the busiest address sent 44.

use crate::report::Comparison;
use crate::runs::{shadowsocks_run, SsRunConfig};
use crate::Scale;
use gfw_core::probe::ProbeRecord;
use netsim::hash::HashMap;
use netsim::packet::Ipv4;

/// Result of the Fig 3 analysis.
pub struct Fig3 {
    /// Probes per address.
    pub per_ip: HashMap<Ipv4, u64>,
    /// Total probes.
    pub total: u64,
}

impl Fig3 {
    /// Unique prober addresses.
    pub fn unique(&self) -> usize {
        self.per_ip.len()
    }

    /// Fraction of addresses with more than one probe.
    fn multi_frac(&self) -> f64 {
        if self.per_ip.is_empty() {
            return 0.0;
        }
        self.per_ip.values().filter(|&&c| c > 1).count() as f64 / self.per_ip.len() as f64
    }

    /// Busiest address's probe count.
    fn max_count(&self) -> u64 {
        self.per_ip.values().copied().max().unwrap_or(0)
    }

    /// Paper-vs-measured comparison.
    pub fn comparison(&self) -> Comparison {
        let mut c = Comparison::new();
        let ratio = self.unique() as f64 / self.total.max(1) as f64;
        c.add(
            "unique IPs / probes",
            format!("{:.3}", 12_300.0 / 51_837.0),
            format!("{ratio:.3}"),
            (ratio - 0.237).abs() < 0.12,
        );
        c.add(
            "addresses probing more than once",
            ">75%",
            format!("{:.0}%", self.multi_frac() * 100.0),
            self.multi_frac() > 0.5,
        );
        c
    }
}

impl std::fmt::Display for Fig3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 3 — probes per prober IP: {} probes from {} unique addresses (max {} from one)\n",
            self.total,
            self.unique(),
            self.max_count()
        )?;
        // Distribution histogram (count-of-counts).
        let mut dist: HashMap<u64, usize> = HashMap::default();
        for &c in self.per_ip.values() {
            *dist.entry(c).or_insert(0) += 1;
        }
        let mut keys: Vec<u64> = dist.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            writeln!(f, "  {k:>3} probes: {:>6} addresses", dist[&k])?;
        }
        writeln!(f)?;
        write!(f, "{}", self.comparison().render())
    }
}

/// Analyze probe records.
pub fn analyze(probes: &[ProbeRecord]) -> Fig3 {
    let mut per_ip = HashMap::default();
    for p in probes {
        *per_ip.entry(p.src).or_insert(0u64) += 1;
    }
    Fig3 {
        total: probes.len() as u64,
        per_ip,
    }
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Fig3 {
    let cfg = SsRunConfig {
        connections: scale.pick(2_500, 30_000),
        fleet_pool: scale.pick(1_000, 16_000),
        nr_min_gap: netsim::time::Duration::from_mins(scale.pick(4, 18)),
        seed,
        ..Default::default()
    };
    analyze(&shadowsocks_run(&cfg).probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_shape_holds() {
        let fig = run(Scale::Quick, 3);
        assert!(fig.total > 30);
        assert!(fig.unique() > 5);
        assert!(
            fig.multi_frac() > 0.3,
            "multi fraction {}",
            fig.multi_frac()
        );
    }
}
