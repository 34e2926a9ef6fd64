//! Ablation: probe-battery size vs inference accuracy (extension).
//!
//! §5.2.2 notes the GFW needs "a set of several probes" and spreads
//! them over hours; this study quantifies how many probes per length
//! the inference battery needs before it reliably recovers the
//! implementation — i.e. how expensive stealth is for the censor.

use crate::report::Table;
use crate::Scale;
use probesim::{infer, EngineOracle};
use shadowsocks::{Profile, ServerConfig};
use sscrypto::method::Method;

/// One accuracy measurement.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Probes per length in the battery.
    pub samples: usize,
    /// Fraction of vulnerable grid cells correctly identified.
    pub accuracy: f64,
}

/// The study result.
pub struct Battery {
    /// Accuracy per battery size.
    pub points: Vec<Point>,
}

impl Battery {
    /// Smallest battery reaching full accuracy, if any.
    fn full_accuracy_at(&self) -> Option<usize> {
        self.points
            .iter()
            .find(|p| p.accuracy >= 1.0)
            .map(|p| p.samples)
    }
}

impl std::fmt::Display for Battery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Ablation — probe battery size vs inference accuracy\n")?;
        let mut t = Table::new(&["probes per length", "accuracy on vulnerable grid"]);
        for p in &self.points {
            t.row(&[p.samples.to_string(), format!("{:.0}%", p.accuracy * 100.0)]);
        }
        write!(f, "{}", t.render())?;
        match self.full_accuracy_at() {
            Some(s) => writeln!(f, "\nfull accuracy from {s} probes per length"),
            None => writeln!(f, "\nfull accuracy not reached in the sweep"),
        }
    }
}

/// The vulnerable grid: every cell an attacker should identify.
fn grid() -> Vec<(Profile, Method, bool)> {
    vec![
        (Profile::LIBEV_OLD, Method::ChaCha20, true),
        (Profile::LIBEV_OLD, Method::Aes256Cfb, true),
        (Profile::LIBEV_OLD, Method::Aes128Gcm, true),
        (Profile::LIBEV_OLD, Method::Aes256Gcm, true),
        (Profile::OUTLINE_1_0_6, Method::ChaCha20IetfPoly1305, true),
        (Profile::SS_PYTHON, Method::Aes256Cfb, true),
        // Opaque cells: correct answer is "not identified".
        (Profile::LIBEV_NEW, Method::Aes256Gcm, false),
        (Profile::OUTLINE_1_0_7, Method::ChaCha20IetfPoly1305, false),
    ]
}

/// Run the sweep.
pub fn run(scale: Scale, seed: u64) -> Battery {
    let sweeps: &[usize] = match scale {
        Scale::Quick => &[1, 2, 4, 8, 16, 32],
        Scale::Paper => &[1, 2, 4, 8, 16, 32, 64, 128],
    };
    // One runner job per battery size; each sweeps the whole grid.
    let specs: Vec<_> = sweeps
        .iter()
        .map(|&samples| {
            move || {
                let cells = grid();
                let correct = cells
                    .iter()
                    .filter(|(profile, method, should_identify)| {
                        let config = ServerConfig::new(*method, "battery-pw", *profile);
                        let mut oracle = EngineOracle::new(config, seed);
                        let inf = infer(&mut oracle, samples);
                        inf.shadowsocks_like == *should_identify
                            && (!*should_identify || inf.nonce_len == Some(method.iv_len()))
                    })
                    .count();
                Point {
                    samples,
                    accuracy: correct as f64 / cells.len() as f64,
                }
            }
        })
        .collect();
    Battery {
        points: crate::runner::run_jobs(specs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_grows_with_battery_size() {
        let b = run(Scale::Quick, 51);
        let first = b.points.first().unwrap().accuracy;
        let last = b.points.last().unwrap().accuracy;
        assert!(last >= first, "accuracy regressed: {first} → {last}");
        assert!(last >= 0.99, "large battery should be exact: {last}");
        // Finding: because the battery spans ~70 lengths, even one probe
        // per length aggregates enough long-probe observations for the
        // 13/16-RST statistic — the cost of confirmation is dozens of
        // probes either way, which is why the GFW paces them over hours.
        assert!(
            b.points.iter().all(|p| p.accuracy > 0.5),
            "battery sizes: {:?}",
            b.points
        );
    }
}
