//! The results file: every sample of every `(metric, workload)` pair
//! from one set of runs, plus each workload's counter digest.
//!
//! ```text
//! gfwsim-bench results 1
//! seed 2020
//! digest bulk_100k 9f0c3a...
//! sample wall_s bulk_100k 8.7012 8.6923 8.7301
//! ```
//!
//! Values are written with Rust's shortest round-trip float formatting,
//! so parsing a written file gives back bit-identical samples. Lookups
//! take the exact `(metric, workload)` key; there is no substring scan.

use std::collections::BTreeMap;

const HEADER: &str = "gfwsim-bench results 1";

/// Samples from one set of runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    /// Workload seed.
    pub seed: u64,
    /// Samples keyed by `(metric, workload)`.
    pub samples: BTreeMap<(String, String), Vec<f64>>,
    /// Counter digest per workload.
    pub digests: BTreeMap<String, String>,
}

impl Results {
    /// New, empty results for `seed`.
    pub fn new(seed: u64) -> Results {
        Results {
            seed,
            ..Results::default()
        }
    }

    /// Append one sample.
    pub fn push(&mut self, metric: &str, workload: &str, value: f64) {
        self.samples
            .entry((metric.to_string(), workload.to_string()))
            .or_default()
            .push(value);
    }

    /// The samples of exactly `(metric, workload)`.
    pub fn get(&self, metric: &str, workload: &str) -> Option<&[f64]> {
        self.samples
            .get(&(metric.to_string(), workload.to_string()))
            .map(Vec::as_slice)
    }

    /// Serialize.
    pub fn to_text(&self) -> String {
        let mut s = format!("{HEADER}\nseed {}\n", self.seed);
        for (w, d) in &self.digests {
            s.push_str(&format!("digest {w} {d}\n"));
        }
        for ((metric, workload), values) in &self.samples {
            s.push_str(&format!("sample {metric} {workload}"));
            for v in values {
                s.push_str(&format!(" {v}"));
            }
            s.push('\n');
        }
        s
    }

    /// Read the results file at `path`, or `None` if the file does not
    /// start with the results header (a benchmark binary, say).
    pub fn read(path: &str) -> Result<Option<Results>, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if !bytes.starts_with(HEADER.as_bytes()) {
            return Ok(None);
        }
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        Results::parse(&text)
            .map(Some)
            .map_err(|e| format!("{path}: {e}"))
    }

    /// Parse a file written by [`Results::to_text`].
    pub fn parse(text: &str) -> Result<Results, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, HEADER)) => {}
            _ => return Err(format!("not a results file (want `{HEADER}` first)")),
        }
        let mut r = Results::default();
        for (i, line) in lines {
            let bad = |what: &str| format!("line {}: {what}: {line}", i + 1);
            let mut f = line.split_whitespace();
            match f.next() {
                Some("seed") => {
                    r.seed = f
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad seed"))?;
                }
                Some("digest") => {
                    let (Some(w), Some(d)) = (f.next(), f.next()) else {
                        return Err(bad("bad digest"));
                    };
                    r.digests.insert(w.to_string(), d.to_string());
                }
                Some("sample") => {
                    let (Some(metric), Some(workload)) = (f.next(), f.next()) else {
                        return Err(bad("bad sample"));
                    };
                    let values = f
                        .map(|v| v.parse::<f64>())
                        .collect::<Result<Vec<f64>, _>>()
                        .map_err(|_| bad("bad value"))?;
                    r.samples
                        .insert((metric.to_string(), workload.to_string()), values);
                }
                None => {}
                Some(_) => return Err(bad("unknown record")),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        let mut r = Results::new(2020);
        for v in [
            8.701_234_567_891_23,
            0.1 + 0.2,
            1e-9,
            123_456_789.0,
            f64::MIN_POSITIVE,
        ] {
            r.push("wall_s", "bulk_100k", v);
        }
        r.push("netsim.residual_s", "bulk_100k", -0.015_625);
        r.push("wall_s", "bulk_100k_extra", 1.0);
        r.digests.insert("bulk_100k".into(), "00ff".into());
        r
    }

    #[test]
    fn round_trips_exactly() {
        let r = sample();
        let text = r.to_text();
        let back = Results::parse(&text).unwrap();
        assert_eq!(back, r);
        for (a, b) in back
            .samples
            .values()
            .flatten()
            .zip(r.samples.values().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn lookups_use_the_exact_key() {
        let r = sample();
        assert_eq!(r.get("wall_s", "bulk_100k").unwrap().len(), 5);
        assert_eq!(r.get("wall_s", "bulk_100k_extra"), Some(&[1.0][..]));
        assert!(r.get("wall", "bulk_100k").is_none());
        assert!(r.get("wall_s", "bulk").is_none());
        assert!(r.get("residual_s", "bulk_100k").is_none());
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(Results::parse("").is_err());
        assert!(Results::parse("{\"schema\": 1}").is_err());
        let head = format!("{HEADER}\n");
        assert!(Results::parse(&format!("{head}sample wall_s bulk_100k x\n")).is_err());
        assert!(Results::parse(&format!("{head}sample wall_s\n")).is_err());
        assert!(Results::parse(&format!("{head}bogus 1\n")).is_err());
        assert!(Results::parse(&head).is_ok());
    }
}
