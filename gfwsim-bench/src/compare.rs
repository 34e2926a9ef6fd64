//! Comparing two sets of runs (a parent commit and a change), one
//! verdict per `(metric, workload)`:
//!
//! * **improved** — at least ten pairs were run, the change wins at
//!   least nine tenths of them (ties count for neither side), and the
//!   medians differ by more than the parent's interquartile distance;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound, and either the spread is within the bound or every
//!   change run reads worse than every parent run;
//! * **unresolved** — the run-to-run spread (interquartile distance, on
//!   either side) is wider than the metric's bound, unless every change
//!   run reads better than every parent run;
//! * **unchanged** — otherwise.
//!
//! Pairs are formed in run order: the i-th change run against the i-th
//! parent run. [`table`] judges every `(end-to-end metric, workload)`
//! of two results; a comparison passes only with no row worse or
//! unresolved.

use crate::metrics::{self, Better, Bound};
use crate::results::Results;
use crate::stats::Summary;
use crate::workloads::Workload;

/// The outcome for one `(metric, workload)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairs rule.
    Improved,
    /// A move beyond the bound in the bad direction.
    Worse,
    /// Within the bound.
    Unchanged,
    /// Spread too wide to tell.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A verdict with the evidence behind it.
#[derive(Clone, Copy, Debug)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Parent summary.
    pub parent: Summary,
    /// Change summary.
    pub change: Summary,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
}

/// Minimum pairs before a gain can be claimed.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;

/// Judge `change` against `parent`; `None` if either side is empty.
pub fn judge(better: Better, bound: Bound, parent: &[f64], change: &[f64]) -> Option<Judgement> {
    let p = Summary::of(parent)?;
    let c = Summary::of(change)?;
    // `gain(a, b)` > 0 when `b` is better than `a`.
    let gain = |a: f64, b: f64| match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| gain(a, b) > 0.0)
        .count();
    let gap = gain(p.median, c.median);
    let improved = pairs >= MIN_PAIRS_FOR_GAIN && wins * 10 >= pairs * 9 && gap > p.q3 - p.q1;
    let every = |f: &dyn Fn(f64) -> bool| {
        parent
            .iter()
            .all(|&a| change.iter().all(|&b| f(gain(a, b))))
    };
    let verdict = if improved {
        Verdict::Improved
    } else {
        match bound {
            Bound::Share { share, floor } => {
                let allowed = |s: &Summary| (share * s.median.abs()).max(floor);
                let spread = |s: &Summary| s.q3 - s.q1;
                let noisy = spread(&p) > allowed(&p) || spread(&c) > allowed(&c);
                // Noise hides neither a clear gain nor a clear loss: one
                // where every change run reads better (or worse) than
                // every parent run.
                if -gap > allowed(&p) && (!noisy || every(&|g| g < 0.0)) {
                    Verdict::Worse
                } else if noisy && !every(&|g| g > 0.0) {
                    Verdict::Unresolved
                } else {
                    Verdict::Unchanged
                }
            }
            Bound::AnyIncrease if gap < 0.0 => Verdict::Worse,
            Bound::AnyIncrease | Bound::None => Verdict::Unchanged,
        }
    };
    Some(Judgement {
        verdict,
        parent: p,
        change: c,
        wins,
        pairs,
    })
}

/// One verdict row per (end-to-end metric, workload) present in both
/// results, then whether each workload's counter digest is identical on
/// both sides. Returns the rendered table and whether the comparison
/// passed: no row worse and none unresolved.
pub fn table(parent: &Results, change: &Results) -> (String, bool) {
    let mut out = String::new();
    if parent.seed != change.seed {
        out.push_str(&format!(
            "note: seeds differ (parent {}, change {})\n",
            parent.seed, change.seed
        ));
    }
    out.push_str(&format!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "metric", "workload", "parent median", "change median", "change", "wins"
    ));
    let mut passed = true;
    for w in Workload::ALL {
        for m in metrics::end_to_end() {
            let (Some(p), Some(c)) = (parent.get(&m.name, w.name()), change.get(&m.name, w.name()))
            else {
                continue;
            };
            let Some(j) = judge(m.better, m.bound, p, c) else {
                continue;
            };
            passed &= !matches!(j.verdict, Verdict::Worse | Verdict::Unresolved);
            let delta = if j.parent.median == 0.0 {
                0.0
            } else {
                (j.change.median / j.parent.median - 1.0) * 100.0
            };
            out.push_str(&format!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>3}/{:<3}  {}\n",
                m.name,
                w.name(),
                j.parent.median,
                j.change.median,
                delta,
                j.wins,
                j.pairs,
                j.verdict.as_str()
            ));
        }
    }
    for w in Workload::ALL {
        if let (Some(a), Some(b)) = (parent.digests.get(w.name()), change.digests.get(w.name())) {
            let same = if a == b { "identical" } else { "DIFFER" };
            out.push_str(&format!("digest {:<14} {same} ({a} / {b})\n", w.name()));
        }
    }
    (out, passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;
    const TEN_PCT: Bound = Bound::Share {
        share: 0.10,
        floor: 0.0,
    };

    fn verdict(parent: &[f64], change: &[f64]) -> Verdict {
        judge(LOWER, TEN_PCT, parent, change).unwrap().verdict
    }

    /// Ten runs around `center`, ±0.5% spread.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + (f64::from(i) - 4.5) * 0.001))
            .collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        assert_eq!(verdict(&runs(10.0), &runs(10.0)), Verdict::Unchanged);
        // A 5% slowdown stays inside the 10% bound.
        assert_eq!(verdict(&runs(10.0), &runs(10.5)), Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_is_improved() {
        assert_eq!(verdict(&runs(10.0), &runs(9.0)), Verdict::Improved);
        // Higher-is-better metrics flip the direction.
        let j = judge(Better::Higher, TEN_PCT, &runs(100.0), &runs(120.0)).unwrap();
        assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Improved, 10, 10));
    }

    #[test]
    fn gain_needs_ten_pairs_and_nine_wins() {
        // Five pairs, all won: not enough runs for a claim.
        assert_eq!(
            verdict(&runs(10.0)[..5], &runs(9.0)[..5]),
            Verdict::Unchanged
        );
        // Ten pairs, eight won: not enough wins.
        let mut change = runs(9.0);
        change[0] = 10.1;
        change[1] = 10.1;
        assert_eq!(verdict(&runs(10.0), &change), Verdict::Unchanged);
        // Medians inside the parent's own spread: not a gain.
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i % 2) * 0.8).collect();
        let change: Vec<f64> = parent.iter().map(|v| v - 0.1).collect();
        let wide = Bound::Share {
            share: 0.25,
            floor: 0.0,
        };
        let j = judge(LOWER, wide, &parent, &change).unwrap();
        assert_eq!((j.wins, j.verdict), (10, Verdict::Unchanged));
    }

    #[test]
    fn move_beyond_bound_is_worse() {
        assert_eq!(verdict(&runs(10.0), &runs(11.5)), Verdict::Worse);
        let j = judge(Better::Higher, TEN_PCT, &runs(100.0), &runs(85.0)).unwrap();
        assert_eq!(j.verdict, Verdict::Worse);
    }

    const NOISY: [f64; 10] = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5];

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        assert_eq!(verdict(&runs(10.0), &NOISY), Verdict::Unresolved);
        assert_eq!(verdict(&NOISY, &runs(12.0)), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let better: Vec<f64> = NOISY.iter().map(|v| v - 7.0).collect();
        let few = &better[..4];
        assert_eq!(verdict(&NOISY[..4], few), Verdict::Unchanged);
    }

    #[test]
    fn noise_does_not_hide_a_clear_regression() {
        // A noisier change, 70% slower: every change run is slower than
        // every parent run.
        let slower: Vec<f64> = NOISY.iter().map(|v| v + 7.0).collect();
        assert_eq!(verdict(&runs(10.0), &slower), Verdict::Worse);
        assert_eq!(verdict(&NOISY, &slower), Verdict::Worse);
        // A noisy 20% slowdown that overlaps the parent stays unresolved,
        // which fails a comparison as a regression does.
        let overlapping: Vec<f64> = NOISY.iter().map(|v| v + 2.0).collect();
        assert_eq!(verdict(&runs(10.0), &overlapping), Verdict::Unresolved);
    }

    fn results(values: &[(&str, &str, f64)], digest: &str) -> Results {
        let mut r = Results::new(2020);
        for &(metric, workload, center) in values {
            for v in runs(center) {
                r.push(metric, workload, v);
            }
        }
        r.digests.insert("bulk_100k".into(), digest.into());
        r
    }

    #[test]
    fn table_passes_only_without_worse_or_unresolved_rows() {
        let parent = results(
            &[("wall_s", "bulk_100k", 1.0), ("wall_s", "ss_20k", 2.0)],
            "ab",
        );
        let (text, passed) = table(&parent, &parent);
        assert!(passed, "{text}");
        assert_eq!(text.matches("unchanged").count(), 2, "{text}");
        assert!(text.contains("digest bulk_100k      identical"), "{text}");

        let slower = results(
            &[("wall_s", "bulk_100k", 1.5), ("wall_s", "ss_20k", 2.0)],
            "cd",
        );
        let (text, passed) = table(&parent, &slower);
        assert!(
            !passed && text.contains("worse") && text.contains("DIFFER"),
            "{text}"
        );

        let mut noisy = parent.clone();
        noisy.samples.insert(
            ("wall_s".into(), "ss_20k".into()),
            // Median 2, interquartile distance about half of it.
            NOISY.iter().map(|v| 2.0 + (v - 10.0) / 2.0).collect(),
        );
        let (text, passed) = table(&parent, &noisy);
        assert!(!passed && text.contains("unresolved"), "{text}");
    }

    #[test]
    fn a_floor_absorbs_small_absolute_moves() {
        // Microsecond set-ups: a 50% swing is far below a 0.05 s floor.
        let parent = [20e-9, 21e-9, 30e-9, 31e-9, 29e-9];
        let change = [30e-9, 45e-9, 44e-9, 31e-9, 46e-9];
        let floored = Bound::Share {
            share: 0.25,
            floor: 0.05,
        };
        assert_eq!(
            judge(LOWER, floored, &parent, &change).unwrap().verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(LOWER, TEN_PCT, &parent, &change).unwrap().verdict,
            Verdict::Unresolved
        );
        // A move beyond the floor still counts.
        let slow: Vec<f64> = parent.iter().map(|v| v + 0.2).collect();
        assert_eq!(
            judge(LOWER, floored, &parent, &slow).unwrap().verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn any_increase_gates_failures() {
        let zeros = [0.0; 5];
        let j = |parent: &[f64], change: &[f64]| {
            judge(LOWER, Bound::AnyIncrease, parent, change)
                .unwrap()
                .verdict
        };
        assert_eq!(j(&zeros, &zeros), Verdict::Unchanged);
        assert_eq!(j(&zeros, &[0.0, 0.0, 0.1, 0.1, 0.1]), Verdict::Worse);
        assert!(judge(LOWER, TEN_PCT, &[], &[1.0]).is_none());
    }
}
