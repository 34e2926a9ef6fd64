//! Fig 4: overlap in prober source addresses across datasets collected
//! years apart (Ensafi et al. 2015: ~22,000; Dunna et al. 2018: 934;
//! this paper: 12,300).
//!
//! Paper shape: the three sets overlap only slightly (tens to a few
//! hundred addresses), evidence of high churn in the prober pool. We
//! reproduce it by sampling the fleet in three epochs with heavy churn
//! between them.

use crate::report::Comparison;
use crate::Scale;
use analysis::overlap::{venn3, Venn3};
use gfw_core::fleet::{Fleet, FleetConfig};
use netsim::hash::HashSet;
use netsim::packet::Ipv4;
use netsim::sim::{SimConfig, Simulator};
use netsim::time::SimTime;

/// Result of the epoch-overlap experiment.
pub struct Fig4 {
    /// Venn regions (A = 2015-like epoch, B = 2018-like, C = ours).
    pub venn: Venn3,
}

impl Fig4 {
    /// Comparison with the paper's qualitative finding.
    pub fn comparison(&self) -> Comparison {
        let mut c = Comparison::new();
        let ab = self.venn.ab + self.venn.abc;
        let ac = self.venn.ac + self.venn.abc;
        let bc = self.venn.bc + self.venn.abc;
        let a = self.venn.a_total().max(1);
        let small = |x: usize, base: usize| (x as f64 / base as f64) < 0.10;
        c.add(
            "A∩B small relative to sets",
            "slight overlap",
            format!("{ab}"),
            small(ab, a),
        );
        c.add(
            "A∩C small relative to sets",
            "slight overlap",
            format!("{ac}"),
            small(ac, self.venn.c_total().max(1)),
        );
        c.add(
            "B∩C small relative to sets",
            "slight overlap",
            format!("{bc}"),
            small(bc, self.venn.c_total().max(1)),
        );
        c
    }
}

impl std::fmt::Display for Fig4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = &self.venn;
        writeln!(f, "Fig 4 — prober address overlap across epochs\n")?;
        writeln!(f, "  |A| (2015-like) = {}", v.a_total())?;
        writeln!(f, "  |B| (2018-like) = {}", v.b_total())?;
        writeln!(f, "  |C| (ours)      = {}", v.c_total())?;
        writeln!(
            f,
            "  A∩B only = {}, A∩C only = {}, B∩C only = {}, A∩B∩C = {}",
            v.ab, v.ac, v.bc, v.abc
        )?;
        writeln!(f)?;
        write!(f, "{}", self.comparison().render())
    }
}

fn collect_epoch(fleet: &mut Fleet, probes: usize) -> HashSet<Ipv4> {
    (0..probes)
        .map(|_| fleet.assign(SimTime::ZERO).ip)
        .collect()
}

/// Run the experiment: three epochs, heavy churn between them.
///
/// Each epoch is an independent runner job that re-derives its exact
/// fleet state from the seed by replaying the earlier epochs' draws and
/// churn steps — redundant compute, identical bytes, and the epochs run
/// concurrently.
pub fn run(scale: Scale, seed: u64) -> Fig4 {
    let pool = scale.pick(6_000, 60_000);
    // Epoch sizes scaled from the paper's dataset sizes.
    let scale_div = scale.pick(20, 1);
    let sizes = [90_000 / scale_div, 4_000 / scale_div, 52_000 / scale_div];
    let churn = [0.01, 0.02];
    let specs: Vec<_> = (0..sizes.len())
        .map(|k| {
            move || {
                let mut sim = Simulator::new(SimConfig::default(), seed);
                let mut fleet = Fleet::install(
                    &mut sim,
                    FleetConfig {
                        pool_size: pool,
                        ..Default::default()
                    },
                    seed,
                );
                for (&size, &retain) in sizes.iter().zip(churn.iter()).take(k) {
                    let _ = collect_epoch(&mut fleet, size);
                    fleet.churn_epoch(retain);
                }
                collect_epoch(&mut fleet, sizes[k])
            }
        })
        .collect();
    let epochs = crate::runner::run_jobs(specs);
    Fig4 {
        venn: venn3(&epochs[0], &epochs[1], &epochs[2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlaps_are_small() {
        let fig = run(Scale::Quick, 5);
        assert!(fig.venn.a_total() > 100);
        assert!(fig.venn.c_total() > 100);
        assert!(fig.comparison().all_hold(), "\n{fig}");
        // But not zero everywhere — churn retains a sliver.
        let any_overlap = fig.venn.ab + fig.venn.ac + fig.venn.bc + fig.venn.abc;
        assert!(any_overlap > 0, "expected a small non-zero overlap");
    }
}
