//! Table 2: the most common prober IP addresses.
//!
//! Paper shape: the top address (175.42.1.21) sent 44 probes; the
//! top-10 counts decline gently (44, 38, 36, 36, 33, 32, 32, 32, 32,
//! 31). The exact addresses churn; the *shape* — a shallow head, no
//! single dominant prober like 2015's 202.108.181.70 — is the finding.

use crate::report::Table;
use crate::runs::{shadowsocks_run, SsRunConfig};
use crate::Scale;
use gfw_core::probe::ProbeRecord;
use netsim::packet::Ipv4;

/// Result: top prober addresses with counts.
pub struct Table2 {
    /// (address, probe count), descending.
    pub top: Vec<(Ipv4, u64)>,
    /// Total probes analyzed.
    pub total: u64,
}

impl Table2 {
    /// The paper's shallow-head property: the busiest address accounts
    /// for well under 1% of all probes.
    fn head_share(&self) -> f64 {
        self.top
            .first()
            .map(|&(_, c)| c as f64 / self.total.max(1) as f64)
            .unwrap_or(0.0)
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 2 — most common prober IP addresses\n")?;
        let mut t = Table::new(&["Prober IP address", "Count", "AS"]);
        for (ip, count) in &self.top {
            let asn = analysis::asn::lookup(*ip)
                .map(|e| format!("AS{}", e.asn))
                .unwrap_or_else(|| "?".into());
            t.row(&[ip.to_string(), count.to_string(), asn]);
        }
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "\nhead share: {:.2}% of {} probes (paper: 44/51837 = 0.08%)",
            self.head_share() * 100.0,
            self.total
        )
    }
}

/// Analyze probe records.
pub fn analyze(probes: &[ProbeRecord], k: usize) -> Table2 {
    let top = analysis::stats::top_k(probes.iter().map(|p| p.src), k);
    Table2 {
        top,
        total: probes.len() as u64,
    }
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Table2 {
    let cfg = SsRunConfig {
        connections: scale.pick(2_500, 30_000),
        fleet_pool: scale.pick(1_000, 16_000),
        nr_min_gap: netsim::time::Duration::from_mins(scale.pick(4, 18)),
        seed,
        ..Default::default()
    };
    analyze(&shadowsocks_run(&cfg).probes, 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_list_is_descending_and_attributable() {
        let t = run(Scale::Quick, 4);
        assert!(!t.top.is_empty());
        for w in t.top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for (ip, _) in &t.top {
            assert!(analysis::asn::lookup(*ip).is_some(), "{ip}");
        }
        // Shallow head: no prober dominates.
        assert!(t.head_share() < 0.2, "head share {}", t.head_share());
    }
}
