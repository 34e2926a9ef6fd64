//! Order statistics over a run's samples.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread printed here is the
//! spread any Python-side check computes from the same values.

/// `{median, q1, q3, min, max, n}` of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (min, max)
        } else {
            (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
        };
        Some(Summary {
            median,
            q1,
            q3,
            min,
            max,
            n,
        })
    }
}

/// Quartile `i` (1 or 3) of sorted `v` (len ≥ 2), exactly as CPython's
/// `statistics.quantiles(method="exclusive")` computes it: integer
/// rescaling, clamp, then linear interpolation.
fn exclusive_quartile(v: &[f64], i: usize) -> f64 {
    const N: usize = 4;
    let ld = v.len();
    let m = ld + 1;
    let j = (i * m / N).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * N) as f64;
    (v[j - 1] * (N as f64 - delta) + v[j] * delta) / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_matches_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]).unwrap();
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q1, 2.5);
        assert_eq!(s.q3, 7.5);
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 9));
    }

    #[test]
    fn even_sample_matches_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]; median 5.5
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.median, 5.5);
        assert_eq!(s.q1, 2.75);
        assert_eq!(s.q3, 8.25);
        assert_eq!(s.n, 10);
    }

    #[test]
    fn small_samples() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Summary::of(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        let one = Summary::of(&[3.5]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.n), (3.5, 3.5, 3.5, 1));
        assert!(Summary::of(&[]).is_none());
    }
}
