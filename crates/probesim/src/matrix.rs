//! Reaction-matrix generation: the machinery behind Fig 10 and Table 5.

use crate::oracle::EngineOracle;
use gfw_core::probe::{build_payload, ProbeKind, Reaction};
use netsim::hash::HashMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shadowsocks::{ClientSession, ServerConfig, TargetAddr};

/// Reaction counts for one probe length.
#[derive(Clone, Debug, Default)]
pub struct MatrixRow {
    /// Probe length in bytes.
    pub len: usize,
    /// Reaction → count.
    pub counts: HashMap<Reaction, usize>,
}

impl MatrixRow {
    /// Total probes in this row.
    #[expect(clippy::disallowed_methods, reason = "a sum is order-neutral")]
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Fraction of a given reaction.
    pub fn frac(&self, r: Reaction) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        *self.counts.get(&r).unwrap_or(&0) as f64 / self.total() as f64
    }

    /// The dominant reaction, if any probes were sent. Count ties break
    /// on the taxonomy order so the answer never depends on hash-map
    /// iteration order.
    #[expect(clippy::disallowed_methods, reason = "a maximum under a total order")]
    pub fn dominant(&self) -> Option<Reaction> {
        self.counts
            .iter()
            .max_by_key(|&(&r, &c)| (c, std::cmp::Reverse(r)))
            .map(|(&r, _)| r)
    }

    /// Render like a Fig 10 cell: the dominant reaction, annotated with
    /// minority reactions when present.
    #[expect(clippy::disallowed_methods, reason = "sorted right after collecting")]
    pub fn cell(&self) -> String {
        let mut parts: Vec<(Reaction, usize)> = self.counts.iter().map(|(&r, &c)| (r, c)).collect();
        parts.sort_by_key(|&(r, c)| (std::cmp::Reverse(c), r));
        let name = |r: Reaction| match r {
            Reaction::Timeout => "TIMEOUT",
            Reaction::Rst => "RST",
            Reaction::FinAck => "FIN/ACK",
            Reaction::Data => "DATA",
            Reaction::ConnectFailed => "CONNFAIL",
        };
        match parts.len() {
            0 => "-".to_string(),
            1 => name(parts[0].0).to_string(),
            _ => {
                let total = self.total() as f64;
                parts
                    .iter()
                    .map(|&(r, c)| format!("{} ({:.0}%)", name(r), 100.0 * c as f64 / total))
                    .collect::<Vec<_>>()
                    .join(" or ")
            }
        }
    }
}

/// Sweep random probes of each length against fresh servers: one row of
/// Fig 10 per length.
pub fn reaction_matrix(
    config: &ServerConfig,
    lengths: impl IntoIterator<Item = usize>,
    samples: usize,
    seed: u64,
) -> Vec<MatrixRow> {
    let mut oracle = EngineOracle::new(config.clone(), seed);
    lengths
        .into_iter()
        .map(|len| {
            let mut row = MatrixRow {
                len,
                ..Default::default()
            };
            for _ in 0..samples {
                let payload = oracle.random_payload(len);
                let r = oracle.probe_fresh(&payload);
                *row.counts.entry(r).or_insert(0) += 1;
            }
            row
        })
        .collect()
}

/// Table 5 generator: reactions of one configuration to identical and
/// byte-changed replays of a genuine first payload.
pub fn replay_table(config: &ServerConfig, seed: u64) -> (Reaction, Vec<Reaction>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle = EngineOracle::new(config.clone(), seed ^ 0x7AB1E5);
    // A genuine connection whose payload we record.
    let mut client = ClientSession::new(
        config,
        TargetAddr::Hostname(b"www.example.com".to_vec(), 443),
        &mut rng,
    );
    let wire = client.send(b"\x16\x03\x01\x00\xc8 genuine-looking first flight data");
    // Prime the server with the genuine connection.
    let _ = oracle.probe_shared_replay(&wire);

    // Identical replay (R1): names the original, reachable target, so
    // on a filterless server it gets proxied (Table 5's "D").
    let identical = oracle.probe_shared_replay(&wire);
    // Byte-changed replays (R2–R5): the decrypted target (if any) is
    // garbage, so their fate goes through the random-target model.
    let mut changed = Vec::new();
    for kind in [ProbeKind::R2, ProbeKind::R3, ProbeKind::R4, ProbeKind::R5] {
        let payload = build_payload(kind, Some(&wire), &mut rng);
        changed.push(oracle.probe_shared(&payload));
    }
    (identical, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowsocks::Profile;
    use sscrypto::method::Method;

    #[test]
    fn matrix_rows_count_correctly() {
        let config = ServerConfig::new(Method::Aes128Gcm, "pw", Profile::LIBEV_OLD);
        let rows = reaction_matrix(&config, [10, 60], 20, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].total(), 20);
        assert_eq!(rows[0].dominant(), Some(Reaction::Timeout));
        assert_eq!(rows[1].dominant(), Some(Reaction::Rst));
        assert_eq!(rows[1].frac(Reaction::Rst), 1.0);
    }

    #[test]
    fn cell_rendering() {
        let config = ServerConfig::new(Method::Aes256Ctr, "pw", Profile::LIBEV_OLD);
        let rows = reaction_matrix(&config, [46], 300, 2);
        let cell = rows[0].cell();
        assert!(cell.contains("RST"), "{cell}");
        assert!(cell.contains('%'), "mixed cell shows percentages: {cell}");
    }

    #[test]
    fn table5_libev_old_aead() {
        let config = ServerConfig::new(Method::Aes256Gcm, "pw", Profile::LIBEV_OLD);
        let (identical, changed) = replay_table(&config, 3);
        assert_eq!(identical, Reaction::Rst);
        // Byte-changed AEAD replays all fail auth → RST.
        assert!(changed.iter().all(|&r| r == Reaction::Rst), "{changed:?}");
    }

    #[test]
    fn table5_outline_107() {
        let config = ServerConfig::new(Method::ChaCha20IetfPoly1305, "pw", Profile::OUTLINE_1_0_7);
        let (identical, changed) = replay_table(&config, 4);
        assert_eq!(identical, Reaction::Data, "no replay filter → proxied");
        assert!(
            changed.iter().all(|&r| r == Reaction::Timeout),
            "{changed:?}"
        );
    }

    #[test]
    fn table5_libev_new_stream() {
        let config = ServerConfig::new(Method::Aes256Cfb, "pw", Profile::LIBEV_NEW);
        let (identical, changed) = replay_table(&config, 5);
        assert_eq!(identical, Reaction::Timeout);
        // Stream byte-changed replays: mixture of T/FIN possible, never
        // RST on the silent profile.
        assert!(changed.iter().all(|&r| r != Reaction::Rst), "{changed:?}");
    }
}
