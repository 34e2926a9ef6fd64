//! Fig 6: shared TCP-timestamp sequences expose centralized prober
//! processes.
//!
//! Paper shape: despite thousands of source addresses, the TSvals of
//! prober SYNs fall on at least seven straight lines — six at almost
//! exactly 250 Hz and one small ~1000 Hz cluster — with wraparound at
//! 2^32.

use crate::report::Comparison;
use crate::runs::{shadowsocks_run, SsRunConfig, SynObs};
use crate::Scale;
use analysis::tsval::{cluster, TsProcess};

/// Result of the Fig 6 analysis.
pub struct Fig6 {
    /// Recovered processes (≥2 observations each).
    pub processes: Vec<TsProcess>,
    /// Total observations clustered.
    pub observations: usize,
    /// Unique source addresses in the capture.
    pub unique_ips: usize,
}

impl Fig6 {
    /// Recovered rates, sorted.
    pub fn rates(&self) -> Vec<f64> {
        let mut r: Vec<f64> = self
            .processes
            .iter()
            .filter(|p| p.points.len() >= 3)
            .map(|p| p.rate_hz())
            .collect();
        r.sort_by(|a, b| a.partial_cmp(b).unwrap());
        r
    }

    /// Comparison with the paper.
    pub fn comparison(&self) -> Comparison {
        let rates = self.rates();
        let n250 = rates.iter().filter(|r| (**r - 250.0).abs() < 15.0).count();
        let n1000 = rates.iter().filter(|r| (**r - 1000.0).abs() < 60.0).count();
        let mut c = Comparison::new();
        c.add(
            "processes ≪ unique source IPs",
            "7 vs 12,300",
            format!("{} vs {}", rates.len(), self.unique_ips),
            rates.len() < self.unique_ips / 4,
        );
        c.add("250 Hz sequences", "6", n250, n250 >= 2);
        c.add("~1000 Hz sequence", "1 (small)", n1000, n1000 <= 2);
        c.add(
            "all sequences near 250/1000 Hz",
            "yes",
            format!("{rates:.0?}"),
            rates
                .iter()
                .all(|r| (r - 250.0).abs() < 15.0 || (r - 1000.0).abs() < 60.0),
        );
        c
    }
}

impl std::fmt::Display for Fig6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 6 — TSval processes: {} observations from {} source IPs\n",
            self.observations, self.unique_ips
        )?;
        for (i, p) in self.processes.iter().enumerate() {
            if p.points.len() >= 3 {
                writeln!(
                    f,
                    "  process {i}: {:>6} probes, slope {:.1} Hz",
                    p.points.len(),
                    p.rate_hz()
                )?;
            }
        }
        writeln!(f)?;
        write!(f, "{}", self.comparison().render())
    }
}

/// Analyze captured probe SYNs.
pub fn analyze(syns: &[SynObs]) -> Fig6 {
    let obs: Vec<(f64, u32)> = syns.iter().map(|s| (s.secs, s.tsval)).collect();
    let unique_ips = syns
        .iter()
        .map(|s| s.src)
        .collect::<netsim::hash::HashSet<_>>()
        .len();
    Fig6 {
        processes: cluster(obs, 2_000.0),
        observations: syns.len(),
        unique_ips,
    }
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Fig6 {
    let cfg = SsRunConfig {
        connections: scale.pick(3_000, 30_000),
        conn_interval: netsim::time::Duration::from_secs(scale.pick(25, 30)),
        fleet_pool: scale.pick(1_500, 8_000),
        nr_min_gap: netsim::time::Duration::from_mins(scale.pick(4, 18)),
        seed,
        ..Default::default()
    };
    analyze(&shadowsocks_run(&cfg).probe_syns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centralized_processes_recovered() {
        let fig = run(Scale::Quick, 8);
        assert!(fig.observations > 50, "{} obs", fig.observations);
        let rates = fig.rates();
        assert!(rates.len() >= 3, "rates {rates:?}");
        assert!(
            rates.iter().any(|r| (r - 250.0).abs() < 15.0),
            "rates {rates:?}"
        );
        assert!(fig.comparison().all_hold(), "\n{fig}");
    }
}
