//! Extension: the Fig 10 reaction grid under link impairment.
//!
//! The paper's probes crossed a real, lossy transnational path; every
//! reaction in §5's taxonomy is therefore an *observation through loss*.
//! This experiment asks which Fig 10 cells are stable when the border
//! link drops packets and which degrade — the headline effect being
//! RST-vs-TIMEOUT: an RST is sent once and never retransmitted, so a
//! single lost segment converts an observed RST into an observed
//! TIMEOUT, while FIN/ACK and DATA reactions survive loss behind the
//! retransmission machine.
//!
//! Two parts:
//!
//! 1. **Analytic grid sweep** — the exact `fig10` grid (at loss 0 the
//!    output embeds it byte-for-byte), then the same grid transformed
//!    by a per-probe wire-fate model consistent with the netsim
//!    retransmission policy (SYN/SYN-ACK/data/FIN retransmitted up to
//!    the RTO budget, RSTs fire-and-forget).
//! 2. **End-to-end lossy runs** — the full §3.1 world re-run with
//!    [`netsim::ImpairmentSpec::lossy`] on the border link and a
//!    one-retry prober policy, reporting the impairment counters and
//!    observed reaction mix per loss rate.

use crate::figures::fig10::{self, Fig10, MatrixReport};
use crate::report::Table;
use crate::runner;
use crate::runs::{shadowsocks_run, SsRunConfig};
use crate::Scale;
use gfw_core::probe::Reaction;
use netsim::sim::SimStats;
use netsim::time::Duration;
use netsim::ImpairmentSpec;
use probesim::matrix::MatrixRow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The swept loss rates with their display labels (labels are fixed
/// strings so float formatting can never perturb golden output).
pub const LOSS_RATES: [(f64, &str); 4] = [(0.0, "0%"), (0.001, "0.1%"), (0.01, "1%"), (0.05, "5%")];

/// Retransmission budget assumed by the analytic wire-fate model —
/// matches the netsim default (`ImpairmentSpec::default().rto_max_retries`).
const RETRIES: u32 = 5;

/// The whole experiment.
pub struct Impair {
    /// One rendered Fig 10 grid per entry of [`LOSS_RATES`]; index 0 is
    /// the unmodified `fig10` rendering.
    pub grids: Vec<String>,
    /// End-to-end §3.1 runs, one per loss rate.
    pub e2e: Vec<E2eRow>,
}

/// One end-to-end lossy run.
pub struct E2eRow {
    /// Loss-rate label.
    pub label: &'static str,
    /// Probes the GFW launched (log entries).
    pub probes: usize,
    /// Observed reaction mix.
    pub reactions: BTreeMap<Reaction, usize>,
    /// Probes that needed more than one connection attempt.
    pub multi_attempt: usize,
    /// Simulator counters for the run.
    pub stats: SimStats,
}

impl std::fmt::Display for Impair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 10 reaction grid under symmetric border loss\n\
             (analytic wire-fate transform, {RETRIES}-retry RTO budget; \
             RSTs are never retransmitted)"
        )?;
        for (grid, (_, label)) in self.grids.iter().zip(LOSS_RATES) {
            writeln!(f, "\n--- loss {label} ---\n")?;
            write!(f, "{grid}")?;
        }
        writeln!(f, "\nEnd-to-end lossy runs (probe_retries = 1)\n")?;
        let mut t = Table::new(&[
            "loss", "probes", "TIMEOUT", "RST", "FIN/ACK", "DATA", "CONNFAIL", "retried", "lost",
            "retx",
        ]);
        for row in &self.e2e {
            let count = |r: Reaction| row.reactions.get(&r).copied().unwrap_or(0).to_string();
            t.row(&[
                row.label.to_string(),
                row.probes.to_string(),
                count(Reaction::Timeout),
                count(Reaction::Rst),
                count(Reaction::FinAck),
                count(Reaction::Data),
                count(Reaction::ConnectFailed),
                row.multi_attempt.to_string(),
                row.stats.packets_lost.to_string(),
                row.stats.retransmits.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

/// True if at least one of `tries` independent transmissions survives
/// Bernoulli(`loss`).
fn delivered(rng: &mut StdRng, loss: f64, tries: u32) -> bool {
    (0..tries).any(|_| !rng.gen_bool(loss))
}

/// What the prober observes when a probe whose perfect-network reaction
/// is `r` crosses a link with the given loss rate. Consistent with the
/// netsim machine: SYN, SYN-ACK, the probe payload and FIN/DATA
/// responses retransmit up to [`RETRIES`] times; RSTs are sent once.
fn observed_under_loss(r: Reaction, loss: f64, rng: &mut StdRng) -> Reaction {
    let tries = 1 + RETRIES;
    // Handshake: the SYN and the SYN-ACK each need one survivor.
    if !delivered(rng, loss, tries) || !delivered(rng, loss, tries) {
        return Reaction::ConnectFailed;
    }
    // The probe payload itself.
    if !delivered(rng, loss, tries) {
        return Reaction::Timeout;
    }
    match r {
        Reaction::Timeout => Reaction::Timeout,
        Reaction::ConnectFailed => Reaction::ConnectFailed,
        // One shot: a lost RST is observed as silence.
        Reaction::Rst => {
            if rng.gen_bool(loss) {
                Reaction::Timeout
            } else {
                Reaction::Rst
            }
        }
        Reaction::FinAck => {
            if delivered(rng, loss, tries) {
                Reaction::FinAck
            } else {
                Reaction::Timeout
            }
        }
        Reaction::Data => {
            if delivered(rng, loss, tries) {
                Reaction::Data
            } else {
                Reaction::Timeout
            }
        }
    }
}

/// Deterministic per-(loss, case) stream seed.
fn mix(seed: u64, loss_idx: u64, case_idx: u64) -> u64 {
    seed ^ (loss_idx + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (case_idx + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Re-roll every sample of every row through the wire-fate model.
/// Counts are expanded in taxonomy order (`Reaction: Ord`) so the
/// result never depends on hash-map iteration order.
fn transform_rows(rows: &[MatrixRow], loss: f64, rng: &mut StdRng) -> Vec<MatrixRow> {
    rows.iter()
        .map(|row| {
            let mut out = MatrixRow {
                len: row.len,
                ..Default::default()
            };
            let sorted: BTreeMap<Reaction, usize> =
                row.counts.iter().map(|(&r, &c)| (r, c)).collect();
            for (r, c) in sorted {
                for _ in 0..c {
                    *out.counts
                        .entry(observed_under_loss(r, loss, rng))
                        .or_insert(0) += 1;
                }
            }
            out
        })
        .collect()
}

fn transform_panel(
    panel: &[MatrixReport],
    loss: f64,
    seed: u64,
    loss_idx: u64,
    case_base: u64,
) -> Vec<MatrixReport> {
    panel
        .iter()
        .enumerate()
        .map(|(i, rep)| {
            let mut rng = StdRng::seed_from_u64(mix(seed, loss_idx, case_base + i as u64));
            MatrixReport {
                implementation: rep.implementation,
                method: rep.method,
                nonce_len: rep.nonce_len,
                rows: transform_rows(&rep.rows, loss, &mut rng),
            }
        })
        .collect()
}

/// Run the experiment.
pub fn run(scale: Scale, seed: u64) -> Impair {
    let fig = fig10::run(scale, seed);
    let mut grids = Vec::with_capacity(LOSS_RATES.len());
    for (li, &(loss, _)) in LOSS_RATES.iter().enumerate() {
        if loss == 0.0 {
            // Byte-identical by construction: the loss-0 grid IS the
            // fig10 rendering.
            grids.push(fig.to_string());
            continue;
        }
        let stream = transform_panel(&fig.stream, loss, seed, li as u64, 0);
        let aead = transform_panel(&fig.aead, loss, seed, li as u64, fig.stream.len() as u64);
        grids.push(Fig10 { stream, aead }.to_string());
    }

    // End-to-end: the §3.1 world at each loss rate, one runner job per
    // rate.
    let conns = scale.pick(200, 1_000);
    let specs: Vec<_> = LOSS_RATES
        .iter()
        .map(|&(loss, label)| {
            move || {
                let cfg = SsRunConfig {
                    connections: conns,
                    conn_interval: Duration::from_secs(20),
                    fleet_pool: 500,
                    seed,
                    impairment: ImpairmentSpec::lossy(loss),
                    probe_retries: 1,
                    ..Default::default()
                };
                let res = shadowsocks_run(&cfg);
                let mut reactions: BTreeMap<Reaction, usize> = BTreeMap::new();
                for p in &res.probes {
                    if let Some(r) = p.reaction {
                        *reactions.entry(r).or_insert(0) += 1;
                    }
                }
                let multi_attempt = res.probes.iter().filter(|p| p.attempts > 1).count();
                (label, res.probes.len(), reactions, multi_attempt)
            }
        })
        .collect();
    let e2e = runner::run_jobs_detailed(specs)
        .into_iter()
        .map(|run| {
            let (label, probes, reactions, multi_attempt) = run.output;
            E2eRow {
                label,
                probes,
                reactions,
                multi_attempt,
                stats: run.stats,
            }
        })
        .collect();

    Impair { grids, e2e }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_zero_grid_is_fig10_verbatim() {
        let result = run(Scale::Quick, 13);
        let fig = fig10::run(Scale::Quick, 13);
        assert_eq!(result.grids[0], fig.to_string());
    }

    #[test]
    fn loss_turns_rsts_into_timeouts_monotonically() {
        // Pure-RST input: the observed RST share should fall as loss
        // rises, replaced by TIMEOUT (lost RST) and CONNFAIL (lost
        // handshake beyond the budget).
        let base = MatrixRow {
            len: 51,
            counts: [(Reaction::Rst, 400usize)].into_iter().collect(),
        };
        let mut prev = 401usize;
        for (li, &(loss, _)) in LOSS_RATES.iter().enumerate().skip(1) {
            let mut rng = StdRng::seed_from_u64(mix(7, li as u64, 0));
            let out = &transform_rows(std::slice::from_ref(&base), loss, &mut rng)[0];
            let rst = out.counts.get(&Reaction::Rst).copied().unwrap_or(0);
            assert!(rst < prev, "loss {loss}: RST count {rst} not below {prev}");
            assert_eq!(out.total(), 400);
            prev = rst;
        }
    }

    #[test]
    fn timeout_reactions_are_stable_under_loss() {
        // A silent server stays silent: TIMEOUT can only drift to
        // CONNFAIL (handshake exhausted), never to RST/FIN/DATA.
        let base = MatrixRow {
            len: 10,
            counts: [(Reaction::Timeout, 300usize)].into_iter().collect(),
        };
        let mut rng = StdRng::seed_from_u64(mix(7, 3, 1));
        let out = &transform_rows(std::slice::from_ref(&base), 0.05, &mut rng)[0];
        for r in [Reaction::Rst, Reaction::FinAck, Reaction::Data] {
            assert_eq!(out.counts.get(&r), None, "{r:?} appeared from silence");
        }
    }

    #[test]
    fn transform_is_deterministic() {
        let base = MatrixRow {
            len: 51,
            counts: [(Reaction::Rst, 100usize), (Reaction::Timeout, 50)]
                .into_iter()
                .collect(),
        };
        let roll = || {
            let mut rng = StdRng::seed_from_u64(mix(11, 2, 5));
            transform_rows(std::slice::from_ref(&base), 0.01, &mut rng)[0].cell()
        };
        assert_eq!(roll(), roll());
    }
}
