//! Empirical distributions: CDFs, histograms, and top-k counting — the
//! presentation layer of every figure in the paper's evaluation.

use netsim::hash::HashMap;
use std::hash::Hash;

/// Empirical cumulative distribution over `f64` samples.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples.
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0.0–1.0).
    fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[idx]
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("empty CDF")
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("empty CDF")
    }

    /// Evenly spaced (x, F(x)) points for plotting/printing.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1).max(1) as f64;
                let x = self.quantile(q);
                (x, self.at(x))
            })
            .collect()
    }
}

/// Integer-bucketed histogram.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    counts: HashMap<i64, u64>,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Add one observation of `value`.
    pub fn add(&mut self, value: i64) {
        *self.counts.entry(value).or_insert(0) += 1;
    }

    /// Count at `value`.
    pub fn count(&self, value: i64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Total observations.
    #[expect(clippy::disallowed_methods, reason = "a sum is order-neutral")]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// (value, count) pairs sorted by value.
    #[expect(clippy::disallowed_methods, reason = "sorted right after collecting")]
    pub fn sorted(&self) -> Vec<(i64, u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable();
        v
    }
}

/// Count occurrences of arbitrary keys and report the top-k — Table 2's
/// "most common prober IP addresses" and Table 3's AS counts.
pub fn top_k<T: Eq + Hash + Clone + Ord>(
    items: impl IntoIterator<Item = T>,
    k: usize,
) -> Vec<(T, u64)> {
    let mut counts: HashMap<T, u64> = HashMap::default();
    for it in items {
        *counts.entry(it).or_insert(0) += 1;
    }
    let mut v: Vec<_> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basic() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(2.0), 0.5);
        assert_eq!(c.at(10.0), 1.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 4.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 4.0);
    }

    #[test]
    fn cdf_handles_duplicates() {
        let c = Cdf::new(vec![5.0; 10]);
        assert_eq!(c.at(4.9), 0.0);
        assert_eq!(c.at(5.0), 1.0);
    }

    #[test]
    fn cdf_curve_monotonic() {
        let c = Cdf::new((0..100).map(|i| (i * i) as f64).collect());
        let pts = c.curve(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn histogram_counts() {
        let mut h = Histogram::new();
        for v in [8, 8, 8, 12, 221, 221] {
            h.add(v);
        }
        assert_eq!(h.count(8), 3);
        assert_eq!(h.count(221), 2);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.total(), 6);
        assert_eq!(h.sorted(), vec![(8, 3), (12, 1), (221, 2)]);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let items = vec!["a", "b", "b", "c", "c", "c"];
        let top = top_k(items, 2);
        assert_eq!(top, vec![("c", 3), ("b", 2)]);
    }

    #[test]
    #[should_panic(expected = "quantile of empty CDF")]
    fn quantile_of_empty_panics() {
        Cdf::new(vec![]).quantile(0.5);
    }
}
