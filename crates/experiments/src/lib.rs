//! # experiments — regenerating every table and figure of the paper
//!
//! One module per table/figure in the evaluation of *How China Detects
//! and Blocks Shadowsocks* (IMC 2020), built on three canonical
//! simulation runs ([`runs`]):
//!
//! | Paper item | Module | Binary |
//! |---|---|---|
//! | Table 1 (experiment timeline) | [`figures::table1`] | `exp-table1` |
//! | Fig 2 (NR probe lengths) | [`figures::fig2`] | `exp-fig2` |
//! | Fig 3 (probes per IP) | [`figures::fig3`] | `exp-fig3` |
//! | Table 2 (top prober IPs) | [`figures::table2`] | `exp-table2` |
//! | Fig 4 (dataset overlap) | [`figures::fig4`] | `exp-fig4` |
//! | Table 3 (prober ASes) | [`figures::table3`] | `exp-table3` |
//! | Fig 5 (source ports) | [`figures::fig5`] | `exp-fig5` |
//! | Fig 6 (TSval processes) | [`figures::fig6`] | `exp-fig6` |
//! | Fig 7 (replay delays) | [`figures::fig7`] | `exp-fig7` |
//! | Table 4 (random-data experiments) | [`figures::table4`] | `exp-table4` |
//! | Fig 8 (replayed lengths) | [`figures::fig8`] | `exp-fig8` |
//! | Fig 9 (entropy vs replays) | [`figures::fig9`] | `exp-fig9` |
//! | Fig 10a/b (reaction matrices) | [`figures::fig10`] | `exp-fig10` |
//! | Table 5 (replay reactions) | [`figures::table5`] | `exp-table5` |
//! | Fig 11 (brdgrd) | [`figures::fig11`] | `exp-fig11` |
//! | §6 (blocking behaviour) | [`figures::blocking`] | `exp-blocking` |
//! | §5.2.2 (implementation inference) | [`figures::inference`] | `exp-infer` |
//!
//! Every module exposes `run(scale, seed) -> …Result` where the result
//! implements `Display` (printing the paper-vs-measured comparison) and
//! carries assertable fields used by the crate tests.

pub mod figures;
pub mod report;
pub mod runner;
pub mod runs;

/// Experiment scale: `Quick` for tests/benches, `Paper` for runs that
/// approximate the paper's sample sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs, seconds of wall-clock.
    Quick,
    /// Sample sizes comparable to the paper's.
    Paper,
}

impl Scale {
    /// Parse from a CLI argument.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper" || a == "--full") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }

    /// Pick between two values by scale.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// Engine selection for the canonical runs, from the `GFWSIM_ENGINE`
/// environment variable: `packet` forces the pure packet engine,
/// anything else (including unset) selects the default hybrid engine.
///
/// Read here rather than inside `netsim` so the simulator itself stays
/// environment-free; the equivalence suite uses this to check that the
/// hybrid engine leaves every experiment's output byte-identical.
pub fn engine_mode() -> netsim::EngineMode {
    match std::env::var("GFWSIM_ENGINE") {
        Ok(v) if v.eq_ignore_ascii_case("packet") => netsim::EngineMode::Packet,
        _ => netsim::EngineMode::Hybrid,
    }
}
