//! Fig 11: the intensity of active probing diminishes while brdgrd is
//! active (§7.1).
//!
//! Paper shape: over 403 hours with 16 connections every 5 minutes,
//! probing drops to (near) zero within a few hours of enabling brdgrd
//! and resumes when it is disabled.

use crate::report::Comparison;
use crate::runs::{brdgrd_run, BrdgrdRunConfig, BrdgrdRunResult};
use crate::Scale;

/// Result of the Fig 11 analysis.
pub struct Fig11 {
    /// The run output.
    pub run: BrdgrdRunResult,
    /// Hours of settling time excluded at each window edge (probes
    /// triggered just before a toggle may straggle in after it).
    pub settle_hours: u64,
}

impl Fig11 {
    /// Mean probes/hour while brdgrd was active (after settling).
    fn active_rate(&self) -> f64 {
        self.mean_rate(true)
    }

    /// Mean probes/hour while brdgrd was inactive (after settling).
    fn inactive_rate(&self) -> f64 {
        self.mean_rate(false)
    }

    fn mean_rate(&self, want_active: bool) -> f64 {
        let mut total = 0u64;
        let mut hours = 0u64;
        'hour: for (h, &count) in self.run.probes_per_hour.iter().enumerate() {
            let h = h as u64;
            let active = self
                .run
                .active_windows
                .iter()
                .any(|&(s, e)| h >= s && h < e);
            if active != want_active {
                continue;
            }
            // Skip hours too close after a toggle.
            for &(s, e) in &self.run.active_windows {
                if (h >= s && h < s + self.settle_hours) || (h >= e && h < e + self.settle_hours) {
                    continue 'hour;
                }
            }
            total += count as u64;
            hours += 1;
        }
        if hours == 0 {
            return 0.0;
        }
        total as f64 / hours as f64
    }

    /// Comparison with the paper.
    pub fn comparison(&self) -> Comparison {
        let active = self.active_rate();
        let inactive = self.inactive_rate();
        let mut c = Comparison::new();
        c.add(
            "probing while brdgrd active",
            "≈0 probes/hour",
            format!("{active:.2}"),
            active < 0.35 * inactive.max(0.1),
        );
        c.add(
            "probing while brdgrd inactive",
            "5–25 probes/hour",
            format!("{inactive:.2}"),
            inactive > 0.5,
        );
        c
    }
}

impl std::fmt::Display for Fig11 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 11 — probes per hour with brdgrd toggled\n")?;
        for (h, &count) in self.run.probes_per_hour.iter().enumerate() {
            let h64 = h as u64;
            let active = self
                .run
                .active_windows
                .iter()
                .any(|&(s, e)| h64 >= s && h64 < e);
            let bar = "#".repeat(count.min(60) as usize);
            writeln!(
                f,
                "  h{h:>3} {} {:>3} {}",
                if active { "[brdgrd]" } else { "        " },
                count,
                bar
            )?;
        }
        writeln!(f)?;
        write!(f, "{}", self.comparison().render())
    }
}

/// Run the experiment: brdgrd active in the middle third.
pub fn run(scale: Scale, seed: u64) -> Fig11 {
    let hours = scale.pick(60, 403);
    let third = hours / 3;
    let cfg = BrdgrdRunConfig {
        hours,
        active_windows: vec![(third, 2 * third)],
        conns_per_5min: 16,
        seed,
    };
    Fig11 {
        run: brdgrd_run(&cfg),
        settle_hours: 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brdgrd_suppresses_probing() {
        let fig = run(Scale::Quick, 15);
        assert!(
            fig.inactive_rate() > 0.5,
            "inactive rate {}",
            fig.inactive_rate()
        );
        assert!(
            fig.active_rate() < 0.35 * fig.inactive_rate(),
            "active {} vs inactive {}",
            fig.active_rate(),
            fig.inactive_rate()
        );
    }
}
