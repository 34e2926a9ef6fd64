//! §5.2.2: what an attacker can infer about a server from probe
//! batteries — run across the full implementation × cipher grid.

use crate::report::Table;
use crate::Scale;
use probesim::{infer, EngineOracle, Inference};
use shadowsocks::{Profile, ServerConfig};
use sscrypto::method::Method;

/// One grid cell.
pub struct Cell {
    /// Implementation profile name.
    pub profile: &'static str,
    /// Cipher method.
    pub method: Method,
    /// What inference recovered.
    pub inference: Inference,
    /// Ground truth: was the nonce length recovered correctly (when
    /// recovered at all)?
    pub nonce_correct: Option<bool>,
}

/// The whole study.
pub struct InferenceStudy {
    /// All grid cells.
    pub cells: Vec<Cell>,
}

impl InferenceStudy {
    /// Cells where the server was identified as Shadowsocks-like.
    pub fn identified(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.inference.shadowsocks_like)
            .count()
    }

    /// Cells where identification failed because the implementation is
    /// probe-resistant.
    pub fn opaque(&self) -> usize {
        self.cells.len() - self.identified()
    }
}

impl std::fmt::Display for InferenceStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "§5.2.2 — implementation inference across the grid\n")?;
        let mut t = Table::new(&[
            "implementation",
            "method",
            "identified",
            "nonce",
            "filter",
            "guess",
        ]);
        for c in &self.cells {
            t.row(&[
                c.profile.into(),
                c.method.name().into(),
                if c.inference.shadowsocks_like {
                    "yes"
                } else {
                    "no"
                }
                .into(),
                c.inference
                    .nonce_len
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "-".into()),
                match c.inference.replay_filter {
                    Some(true) => "yes",
                    Some(false) => "no",
                    None => "-",
                }
                .into(),
                c.inference.implementation_guess.into(),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "\nidentified: {} / {} (the rest are post-fix, deliberately opaque)",
            self.identified(),
            self.cells.len()
        )
    }
}

/// Run the study.
pub fn run(scale: Scale, seed: u64) -> InferenceStudy {
    let samples = scale.pick(40, 120);
    let grid: Vec<(Profile, Method)> = vec![
        (Profile::LIBEV_OLD, Method::ChaCha20),
        (Profile::LIBEV_OLD, Method::ChaCha20Ietf),
        (Profile::LIBEV_OLD, Method::Aes256Cfb),
        (Profile::LIBEV_OLD, Method::Aes128Gcm),
        (Profile::LIBEV_OLD, Method::Aes192Gcm),
        (Profile::LIBEV_OLD, Method::Aes256Gcm),
        (Profile::LIBEV_NEW, Method::Aes256Cfb),
        (Profile::LIBEV_NEW, Method::Aes256Gcm),
        (Profile::OUTLINE_1_0_6, Method::ChaCha20IetfPoly1305),
        (Profile::OUTLINE_1_0_7, Method::ChaCha20IetfPoly1305),
        (Profile::OUTLINE_1_1_0, Method::ChaCha20IetfPoly1305),
        (Profile::SS_PYTHON, Method::Aes256Cfb),
        (Profile::SSR, Method::Aes256Cfb),
    ];
    // One runner job per grid cell.
    let specs: Vec<_> = grid
        .into_iter()
        .map(|(profile, method)| {
            move || {
                let config = ServerConfig::new(method, "infer-pw", profile);
                let mut oracle = EngineOracle::new(config, seed);
                let inference = infer(&mut oracle, samples);
                let nonce_correct = inference.nonce_len.map(|n| n == method.iv_len());
                Cell {
                    profile: profile.name,
                    method,
                    inference,
                    nonce_correct,
                }
            }
        })
        .collect();
    InferenceStudy {
        cells: crate::runner::run_jobs(specs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vulnerable_identified_fixed_opaque() {
        let s = run(Scale::Quick, 17);
        // All LIBEV_OLD / OUTLINE_1_0_6 / python / ssr cells identified.
        for c in &s.cells {
            let should_identify = matches!(
                c.profile,
                "ss-libev v3.0.8-v3.2.5"
                    | "OutlineVPN v1.0.6"
                    | "shadowsocks-python"
                    | "ShadowsocksR"
            );
            assert_eq!(
                c.inference.shadowsocks_like,
                should_identify,
                "{} {}",
                c.profile,
                c.method.name()
            );
        }
        assert!(s.cells.iter().all(|c| c.nonce_correct != Some(false)));
        // Stream vs AEAD recovered correctly where identified.
        for c in s.cells.iter().filter(|c| c.inference.shadowsocks_like) {
            if let Some(k) = c.inference.construction {
                assert_eq!(k, c.method.kind(), "{}", c.method.name());
            }
        }
    }
}
