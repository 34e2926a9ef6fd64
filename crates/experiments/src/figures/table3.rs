//! Table 3: counts of unique prober IP addresses per autonomous system.
//!
//! Paper shape: AS4837 (6,262) and AS4134 (5,188) dominate; a long tail
//! of eleven more ASes accounts for the remaining ~850.

use crate::report::{Comparison, Table};
use crate::runs::{shadowsocks_run, SsRunConfig};
use crate::Scale;
use gfw_core::probe::ProbeRecord;
use netsim::hash::HashSet;
use std::collections::BTreeMap;

/// Result: unique prober addresses per AS.
pub struct Table3 {
    /// ASN → unique address count.
    pub per_as: BTreeMap<u32, usize>,
    /// Unique addresses total.
    pub unique_total: usize,
}

impl Table3 {
    /// Comparison with the paper's proportions.
    pub fn comparison(&self) -> Comparison {
        let mut c = Comparison::new();
        let count = |asn: u32| self.per_as.get(&asn).copied().unwrap_or(0);
        let total = self.unique_total.max(1) as f64;
        let frac4837 = count(4837) as f64 / total;
        let frac4134 = count(4134) as f64 / total;
        c.add(
            "AS4837 share",
            format!("{:.0}%", 100.0 * 6262.0 / 12300.0),
            format!("{:.0}%", frac4837 * 100.0),
            (frac4837 - 0.509).abs() < 0.12,
        );
        c.add(
            "AS4134 share",
            format!("{:.0}%", 100.0 * 5188.0 / 12300.0),
            format!("{:.0}%", frac4134 * 100.0),
            (frac4134 - 0.422).abs() < 0.12,
        );
        c.add(
            "two backbones dominate",
            "93% combined (AS4837 + AS4134)",
            format!("{:.0}%", (frac4837 + frac4134) * 100.0),
            frac4837 + frac4134 > 0.85 && frac4837 > 0.28 && frac4134 > 0.28,
        );
        c
    }
}

impl std::fmt::Display for Table3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 3 — unique prober addresses per AS\n")?;
        let mut rows: Vec<(u32, usize)> = self.per_as.iter().map(|(&a, &c)| (a, c)).collect();
        rows.sort_by_key(|&(asn, c)| (std::cmp::Reverse(c), asn));
        let mut t = Table::new(&["AS", "measured unique IPs", "paper unique IPs"]);
        for (asn, count) in rows {
            let paper = analysis::asn::AS_TABLE
                .iter()
                .find(|e| e.asn == asn)
                .map(|e| e.paper_count.to_string())
                .unwrap_or_else(|| "-".into());
            t.row(&[format!("AS{asn}"), count.to_string(), paper]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f)?;
        write!(f, "{}", self.comparison().render())
    }
}

/// Analyze probe records.
pub fn analyze(probes: &[ProbeRecord]) -> Table3 {
    let unique: HashSet<_> = probes.iter().map(|p| p.src).collect();
    let mut per_as: BTreeMap<u32, usize> = BTreeMap::new();
    #[expect(
        clippy::iter_over_hash_type,
        reason = "each address adds one to its AS, so the counts cannot see the order"
    )]
    for ip in &unique {
        if let Some(e) = analysis::asn::lookup(*ip) {
            *per_as.entry(e.asn).or_insert(0) += 1;
        }
    }
    Table3 {
        per_as,
        unique_total: unique.len(),
    }
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Table3 {
    let cfg = SsRunConfig {
        connections: scale.pick(2_500, 30_000),
        fleet_pool: scale.pick(2_000, 16_000),
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
    fn backbone_dominance_holds() {
        let t = run(Scale::Quick, 6);
        assert!(t.unique_total > 20);
        assert!(t.comparison().all_hold(), "\n{t}");
    }
}
