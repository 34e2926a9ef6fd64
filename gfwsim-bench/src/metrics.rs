//! The metric catalogue: every metric the benchmark reports, with its
//! unit, direction, regression bound, kind and layer. `BENCHMARK.json`
//! is rendered from this table ([`benchmark_json`]) and a test keeps
//! the committed file equal to the render. Which end-to-end metric each
//! layer metric should move, and on which workload, is tabulated in the
//! README.

use crate::layers::{METHODS, PROFILES};
use crate::workloads::Workload;
use experiments::figures::REGISTRY;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` or `higher`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the parent's median, or `floor` in the metric's unit
    /// if that is larger.
    Share {
        /// Share of the parent's median.
        share: f64,
        /// Smallest move that counts, in the metric's unit.
        floor: f64,
    },
    /// Any increase at all (failure counts).
    AnyIncrease,
    /// Not gated (per-layer metrics).
    None,
}

/// How a metric is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured per workload with tracing off.
    EndToEnd,
    /// The benchmark times its own call into the layer (traced run).
    Span,
    /// Seed-pure, read from public counters after every run.
    Count,
    /// An isolated call into the layer with workload-shaped inputs.
    Unit,
    /// A count times a unit cost, or arithmetic over other metrics.
    Model,
}

/// One catalogue entry.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, unique across the catalogue.
    pub name: String,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// How it is obtained.
    pub kind: Kind,
    /// The module it measures (`end to end` for end-to-end metrics).
    pub layer: &'static str,
}

/// Bound on `wall_s`, as a share of the parent's median. One bound
/// serves every workload. On the shared 2-vCPU host the bounds were
/// measured on, window medians over ten seeds spread by 4–11% in
/// reference seconds, and by 14% once when the host ran at two thirds
/// of its speed for minutes (the README has the numbers): the bound is
/// that worst spread plus a margin.
pub const WALL_BOUND: f64 = 0.20;
/// Bound on `flows_per_s` (the inverse of `wall_s` at a fixed size, so
/// the same spread).
pub const FLOWS_BOUND: f64 = 0.20;
/// Bound on `peak_rss_mb`. Memory does not drift with host load, but it
/// moves with the seed's draws (spread up to 2.4%).
pub const RSS_BOUND: f64 = 0.15;
/// Bound on `setup_s`, the largest of all: set-up is short and cold,
/// and its window medians spread by up to 15% (`exp_all_quick`'s
/// microsecond job list) and moved by 8% between two passes.
pub const SETUP_BOUND: f64 = 0.25;
/// Smallest `setup_s` move `--compare` counts, in seconds: set-ups of
/// a millisecond swing by a tenth with host contention, and a move
/// smaller than this is invisible next to any workload's wall time.
/// `BENCHMARK.json` carries only the share.
pub const SETUP_FLOOR_S: f64 = 0.05;

fn m(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Bound,
    kind: Kind,
    layer: &'static str,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
        kind,
        layer,
    }
}

/// End-to-end metrics, measured per workload with tracing off.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    use Bound::*;
    let share = |share| Share { share, floor: 0.0 };
    let e2e =
        |name, unit, better, bound| m(name, unit, better, bound, Kind::EndToEnd, "end to end");
    vec![
        e2e("wall_s", "s", Lower, share(WALL_BOUND)),
        e2e(
            "setup_s",
            "s",
            Lower,
            Share {
                share: SETUP_BOUND,
                floor: SETUP_FLOOR_S,
            },
        ),
        e2e("flows_per_s", "flows/s", Higher, share(FLOWS_BOUND)),
        e2e("peak_rss_mb", "MB", Lower, share(RSS_BOUND)),
        e2e("failed_ratio", "ratio", Lower, AnyIncrease),
    ]
}

/// Per-layer metrics every workload measures, from a traced window:
/// the ones `BENCHMARK.json` lists and a `--trace 1` result line
/// carries. A count a workload does not exercise reads 0; every time
/// here is measured on every workload.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    use Kind::*;
    let l = |name: &str, unit, better, kind, layer| m(name, unit, better, Bound::None, kind, layer);
    let mut v = vec![
        l("netsim.run_s", "s", Lower, Span, "netsim::sim"),
        l("netsim.events", "count", Lower, Count, "netsim::sim"),
        l(
            "netsim.events_per_flow",
            "events/flow",
            Lower,
            Count,
            "netsim::sim",
        ),
        l(
            "netsim.packets_sent",
            "count",
            Lower,
            Count,
            "netsim::sim/conn",
        ),
        l(
            "netsim.packets_per_flow",
            "packets/flow",
            Lower,
            Count,
            "netsim::sim/conn",
        ),
        l(
            "netsim.peak_queue_depth",
            "count",
            Lower,
            Count,
            "netsim::eventq",
        ),
        l("netsim.eventq.hold_ns", "ns", Lower, Unit, "netsim::eventq"),
        l(
            "netsim.flow.promoted",
            "count",
            Higher,
            Count,
            "netsim::flow",
        ),
        l(
            "netsim.flow.fluid_bytes",
            "bytes",
            Higher,
            Count,
            "netsim::flow",
        ),
        l("netsim.flow.cycle_ns", "ns", Lower, Unit, "netsim::flow"),
        l(
            "netsim.live_conns_end",
            "count",
            Lower,
            Count,
            "netsim::conn",
        ),
        l("netsim.residual_s", "s", Lower, Model, "simulator core"),
        l(
            "netsim.residual_share",
            "ratio",
            Lower,
            Model,
            "simulator core",
        ),
        l("gfw.packets_tapped", "count", Lower, Count, "gfw_core::gfw"),
        l("gfw.inspected", "count", Higher, Count, "gfw_core::gfw"),
        l(
            "gfw.passive.features_ns",
            "ns",
            Lower,
            Unit,
            "gfw_core::passive",
        ),
        l(
            "gfw.tracked_conns_end",
            "count",
            Lower,
            Count,
            "gfw_core::gfw",
        ),
        l("gfw.probes", "count", Lower, Count, "prober pipeline"),
        l(
            "gfw.probes_per_stored",
            "ratio",
            Lower,
            Count,
            "prober pipeline",
        ),
        l(
            "gfw.scheduler.store_ns",
            "ns",
            Lower,
            Unit,
            "gfw_core::scheduler",
        ),
        l(
            "gfw.scheduler.pop_due_ns",
            "ns",
            Lower,
            Unit,
            "gfw_core::scheduler",
        ),
        l(
            "gfw.classifier.record_ns",
            "ns",
            Lower,
            Unit,
            "gfw_core::classifier",
        ),
    ];
    let wire = "shadowsocks::wire + sscrypto";
    for method in METHODS {
        let name = method.name();
        v.push(l(
            &format!("ss.wire.session_ns.{name}"),
            "ns",
            Lower,
            Unit,
            wire,
        ));
        v.push(l(
            &format!("ss.wire.seal_mb_s.{name}"),
            "MB/s",
            Higher,
            Unit,
            wire,
        ));
        v.push(l(
            &format!("ss.wire.open_mb_s.{name}"),
            "MB/s",
            Higher,
            Unit,
            wire,
        ));
    }
    for (name, _, _) in PROFILES {
        v.push(l(
            &format!("ss.server.reaction_ns.{name}"),
            "ns",
            Lower,
            Unit,
            "shadowsocks::server",
        ));
    }
    v.push(l("trace.overhead_ratio", "ratio", Lower, Model, "bench"));
    v
}

/// Per-layer spans that only some workloads have, with the models built
/// on them. The report and the results file carry them (0 where a
/// workload lacks the layer); `BENCHMARK.json` does not, because its
/// result line gives every workload every metric it lists, and a time
/// that does not apply would read a constant 0.
pub fn workload_spans() -> Vec<Metric> {
    use Better::*;
    use Kind::*;
    let l = |name: &str, unit, better, kind, layer| m(name, unit, better, Bound::None, kind, layer);
    let tap = "gfw_core::gfw tap + passive";
    let mut v = vec![
        l("netsim.connect_schedule_s", "s", Lower, Span, "netsim::sim"),
        l("gfw.install_s", "s", Lower, Span, "gfw_core::fleet/gfw"),
        l("gfw.tap_s", "s", Lower, Span, tap),
        l("gfw.tap_ns_per_packet", "ns", Lower, Span, tap),
        l("trafficgen.install_s", "s", Lower, Span, "trafficgen::mix"),
    ];
    for entry in REGISTRY {
        v.push(l(
            &format!("experiments.job.{}_s", entry.id),
            "s",
            Lower,
            Span,
            "experiments::figures",
        ));
    }
    v.push(l(
        "experiments.runner.busy_s",
        "s",
        Lower,
        Model,
        "experiments::runner",
    ));
    v.push(l(
        "experiments.runner.efficiency",
        "ratio",
        Higher,
        Model,
        "experiments::runner",
    ));
    v
}

/// Seconds one `--workload` run measures (the `--seconds` default and
/// `run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// The command that runs the benchmark from the repository root, as
/// `BENCHMARK.json` lists it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--offline",
    "--release",
    "--quiet",
    "--manifest-path",
    "gfwsim-bench/Cargo.toml",
    "--",
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, rendered from the catalogue. End-to-end metrics
/// with a share bound are listed; `failed_ratio` (0 on a healthy run,
/// gated on any increase) is reported through the result line's
/// `failed` and `attempted` fields instead.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let e2e: Vec<String> = end_to_end()
        .iter()
        .filter_map(|m| match m.bound {
            Bound::Share { share: b, .. } => Some(format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {b}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )),
            _ => None,
        })
        .collect();
    let layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"gfwsim-bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<Metric> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .chain(workload_spans())
            .collect();
        let mut seen = HashSet::new();
        for metric in &all {
            assert!(valid_name(&metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}: {}", metric.name, metric.unit);
            assert!(
                seen.insert(metric.name.clone()),
                "duplicate {}",
                metric.name
            );
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name().to_string()));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let bounds: Vec<(String, f64)> = end_to_end()
            .into_iter()
            .filter_map(|m| match m.bound {
                Bound::Share { share, .. } => Some((m.name, share)),
                _ => None,
            })
            .collect();
        let (_, setup) = bounds.iter().find(|(n, _)| n == "setup_s").unwrap();
        assert!(bounds.iter().all(|(_, b)| b <= setup && *b <= 0.25));
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        let rendered = benchmark_json();
        assert!(
            committed == rendered,
            "BENCHMARK.json is out of date; expected:\n{rendered}"
        );
        assert!(rendered.len() <= 64 * 1024);
    }
}
