//! # experiments — regenerating every table and figure of the paper
//!
//! One module per table/figure in the evaluation of *How China Detects
//! and Blocks Shadowsocks* (IMC 2020), built on three canonical
//! simulation runs ([`runs`]):
//!
//! | Paper item | Module | `exp-all --only` id |
//! |---|---|---|
//! | Table 1 (experiment timeline) | [`figures::table1`] | `table1` |
//! | Fig 2 (NR probe lengths) | [`figures::fig2`] | `fig2` |
//! | Fig 3 (probes per IP) | [`figures::fig3`] | `fig3` |
//! | Table 2 (top prober IPs) | [`figures::table2`] | `table2` |
//! | Fig 4 (dataset overlap) | [`figures::fig4`] | `fig4` |
//! | Table 3 (prober ASes) | [`figures::table3`] | `table3` |
//! | Fig 5 (source ports) | [`figures::fig5`] | `fig5` |
//! | Fig 6 (TSval processes) | [`figures::fig6`] | `fig6` |
//! | Fig 7 (replay delays) | [`figures::fig7`] | `fig7` |
//! | Table 4 (random-data experiments) | [`figures::table4`] | `table4` |
//! | Fig 8 (replayed lengths) | [`figures::fig8`] | `fig8` |
//! | Fig 9 (entropy vs replays) | [`figures::fig9`] | `fig9` |
//! | Fig 10a/b (reaction matrices) | [`figures::fig10`] | `fig10` |
//! | Table 5 (replay reactions) | [`figures::table5`] | `table5` |
//! | Fig 11 (brdgrd) | [`figures::fig11`] | `fig11` |
//! | §6 (blocking behaviour) | [`figures::blocking`] | `blocking` |
//! | §5.2.2 (implementation inference) | [`figures::inference`] | `inference` |
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
