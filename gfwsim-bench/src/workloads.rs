//! The four workloads, staged from the repository's public entry points
//! so the benchmark can time each stage from outside.
//!
//! Every workload is a pure function of its seed and size: arrival
//! times are fixed in simulated time, so the offered load does not
//! depend on how fast the host runs (open loop). `tests/scenarios.rs`
//! pins each staged build to the experiment function it mirrors.

use crate::trace::{secs_of, Recorder, Span, TapBracket};
use experiments::figures::{fig7, REGISTRY};
use experiments::runs::{self, SsRunConfig, SsWorld};
use experiments::{runner, Scale};
use gfw_core::{Gfw, GfwConfig};
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::sim::SimStats;
use netsim::time::{Duration, SimTime};
use netsim::{EngineMode, SimConfig, Simulator};
use std::collections::BTreeMap;
use trafficgen::drivers::{BulkTransferClient, Sample};
use trafficgen::{MixSpec, TrafficMix};

/// Bulk transfers in `bulk_100k`. A tenth of the scale study's 1M-flow
/// point: a child lasts about a second, so one measuring window holds
/// enough fresh processes for a steady median. Arrivals keep the scale
/// study's gap, so the steady-state concurrency is the same.
pub const BULK_FLOWS: usize = 100_000;
/// Background flows in `mix_100k` (a tenth of the base-rate study's
/// 1M-flow point, for the same reason).
pub const MIX_BACKGROUND: usize = 100_000;
/// One Shadowsocks flow per this many background flows in `mix_100k`.
pub const MIX_BASE_RATE: u64 = 1_000;
/// Trigger connections in `ss_20k`: two thirds of the `--paper` §3.1
/// run's 30,000. A paper-scale child takes 4 s, too long for a window to
/// hold enough of them for a steady median; at 20,000 one takes under
/// 2 s and still spends about 50 events per packet (68 at paper scale,
/// 27 at 10,000: events per packet grow with the run's length).
pub const SS_CONNECTIONS: usize = 20_000;
/// Prober fleet size in `ss_20k` (the `--paper` run's).
pub const SS_FLEET: usize = 8_000;
/// Runner workers in `exp_all_quick` (`exp-all --jobs 2`).
pub const EXP_ALL_JOBS: usize = 2;
/// The seed whose `exp_all_quick` renders must equal the golden files.
pub const GOLDEN_SEED: u64 = 2020;

/// The scale study's arrival gap and transfer sizes
/// (`experiments::figures::scale`).
const BULK_ARRIVAL_GAP: Duration = Duration::from_millis(4);
const BULK_SIZE_LO: f64 = 65_536.0;
const BULK_SIZE_HI: f64 = 458_752.0;

/// Golden renders at seed 2020, as `(registry id, exp-* stdout)`.
const GOLDENS: [(&str, &str); 4] = [
    (
        "fig10",
        include_str!("../../crates/experiments/tests/golden/exp-fig10.txt"),
    ),
    (
        "table4",
        include_str!("../../crates/experiments/tests/golden/exp-table4.txt"),
    ),
    (
        "fig7",
        include_str!("../../crates/experiments/tests/golden/exp-fig7.txt"),
    ),
    (
        "baserate",
        include_str!("../../crates/experiments/tests/golden/exp-baserate.txt"),
    ),
];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100k bulk transfers, hybrid engine, no GFW.
    Bulk100k,
    /// 100k protocol-profile flows plus Shadowsocks at 1:1,000, observe-only GFW.
    Mix100k,
    /// The §3.1 Shadowsocks run at two thirds of paper scale.
    Ss20k,
    /// Every registered experiment at quick scale, two runner workers.
    ExpAllQuick,
}

impl Workload {
    /// All workloads, in the order runs interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::Bulk100k,
        Workload::Mix100k,
        Workload::Ss20k,
        Workload::ExpAllQuick,
    ];

    /// Stable name, used in metrics keys and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk100k => "bulk_100k",
            Workload::Mix100k => "mix_100k",
            Workload::Ss20k => "ss_20k",
            Workload::ExpAllQuick => "exp_all_quick",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Bulk100k => {
                "event queue, handshakes and fluid model do all the work; no tap, crypto or \
                 server engine, so GFW and crypto changes must read no change"
            }
            Workload::Mix100k => {
                "border tap scores every first payload and tracks every connection; \
                 inspection and per-connection state dominate, probing is nearly idle"
            }
            Workload::Ss20k => {
                "write-heavy GFW: payloads stored, ~6k probes answered by server engines \
                 and the stream codec; ~50 events per packet"
            }
            Workload::ExpAllQuick => {
                "what users run to regenerate the paper; the only parallel workload, and \
                 the pure-engine grids (fig10, inference, battery)"
            }
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run the workload at benchmark size.
    pub fn run(self, seed: u64, traced: bool) -> Outcome {
        match self {
            Workload::Bulk100k => bulk(BULK_FLOWS, seed),
            Workload::Mix100k => mix(MIX_BACKGROUND, MIX_BASE_RATE, seed, traced),
            Workload::Ss20k => ss_run(SS_CONNECTIONS, SS_FLEET, seed, traced),
            Workload::ExpAllQuick => exp_all_quick(seed),
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Completed units: the numerator of `flows_per_s`.
    pub units: u64,
    /// Units that could fail.
    pub attempted: u64,
    /// Units that failed (flow-level failures, `NO` shape rows and
    /// golden mismatches).
    pub failed: u64,
    /// The failed units that only missed a paper-shape row: a
    /// statistical miss of a quick-scale sample at some seeds, counted
    /// in `failed` but not a failed operation.
    pub shape_failed: u64,
    /// Flow-level check failures; any makes the benchmark fail.
    pub problems: Vec<String>,
    /// Seed-pure counters.
    pub counts: BTreeMap<String, u64>,
    /// Seed-pure rendered output, if the workload renders any.
    pub render: String,
    /// Scenario construction time: the `setup` span.
    pub setup_s: f64,
    /// Spans the benchmark timed around its calls.
    pub spans: Vec<Span>,
    /// Seconds inside the GFW tap bracket and brackets closed (traced
    /// runs of GFW workloads only).
    pub tap: Option<(f64, u64)>,
    /// Per-experiment runner walls in seconds (`exp_all_quick`).
    pub jobs: Vec<(String, f64)>,
}

impl Outcome {
    /// FNV-1a digest of the seed-pure counters and rendered output: two
    /// runs with equal digests simulated the same thing.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (k, v) in &self.counts {
            eat(format!("{k}={v}\n").as_bytes());
        }
        eat(self.render.as_bytes());
        h
    }

    fn finish(mut self, rec: &Recorder) -> Outcome {
        self.spans = rec.spans().to_vec();
        self.setup_s = secs_of(&self.spans, "setup");
        self
    }

    fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    fn sim_counts(&mut self, s: &SimStats) {
        self.count("netsim.events", s.events);
        self.count("netsim.connections", s.connections);
        self.count("netsim.packets_sent", s.packets_sent);
        self.count("netsim.packets_dropped", s.packets_dropped);
        self.count("netsim.peak_queue_depth", s.peak_queue_depth);
        self.count("netsim.flow.promoted", s.flows_promoted);
        self.count("netsim.flow.demoted", s.flows_demoted);
        self.count("netsim.flow.fluid_bytes", s.fluid_bytes_modeled);
        self.count("gfw.packets_tapped", s.packets_tapped);
        self.count("gfw.probes_launched", s.probes_launched);
    }

    fn finish_sim(&mut self, sim: &Simulator) {
        self.sim_counts(&sim.stats);
        self.count("netsim.live_conns_end", sim.live_connections() as u64);
        self.count("netsim.end_ns", sim.now().as_nanos());
    }

    fn problem(&mut self, failed: u64, what: String) {
        if failed > 0 {
            self.failed += failed;
            self.problems.push(what);
        }
    }
}

/// Replies FIN to a peer FIN so bulk connections close and are reaped
/// (the scale study's sink).
struct FinSink;

impl App for FinSink {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::PeerFin { conn } = ev {
            ctx.fin(conn);
        }
    }
}

fn hybrid_sim(seed: u64) -> Simulator {
    let config = SimConfig {
        engine: EngineMode::Hybrid,
        ..SimConfig::default()
    };
    Simulator::new(config, seed)
}

/// `bulk_100k`: the scenario of `figures::scale::measure(Hybrid, flows,
/// seed)`. There is no GFW, so nothing is bracketed when traced.
pub fn bulk(flows: usize, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    rec.span("workload", |rec| {
        let (mut sim, completed, bytes) = rec.span("setup", |rec| {
            let mut sim = hybrid_sim(seed);
            let server = sim.add_host(HostConfig::outside("bulk-sink"));
            let client = sim.add_host(HostConfig::china("bulk-client"));
            let sink = sim.add_app(Box::new(FinSink));
            sim.listen((server, 443), sink);
            let bulk = BulkTransferClient::new(Sample::Uniform(BULK_SIZE_LO, BULK_SIZE_HI));
            let (completed, bytes) = bulk.counters();
            let app = sim.add_app(Box::new(bulk));
            rec.span("netsim.connect_schedule", |_| {
                let mut at = SimTime::ZERO;
                for _ in 0..flows {
                    sim.connect_at(at, app, client, (server, 443), TcpTuning::default());
                    at += BULK_ARRIVAL_GAP;
                }
            });
            (sim, completed, bytes)
        });
        rec.span("netsim.run", |_| sim.run());
        rec.span("harvest", |_| {
            out.finish_sim(&sim);
            out.count("bulk.completed", completed.get());
            out.count("bulk.bytes", bytes.get());
            out.units = completed.get();
            out.attempted = flows as u64;
            let missing = (flows as u64).saturating_sub(completed.get());
            out.problem(
                missing,
                format!("bulk_100k: {missing} of {flows} transfers did not complete"),
            );
        });
    });
    out.finish(&rec)
}

/// `mix_100k`: the scenario of `figures::baserate::measure(Hybrid,
/// background, base_rate, seed)`.
pub fn mix(background: usize, base_rate: u64, seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    rec.span("workload", |rec| {
        let (mut sim, gfw, handles) = rec.span("setup", |rec| {
            let mut sim = hybrid_sim(seed);
            let gfw = rec.span("gfw.install", |_| {
                let mut config = GfwConfig::default();
                config.fleet.pool_size = 3_000;
                config.blocking.sensitivity = 0.0;
                Gfw::install(&mut sim, config, seed ^ 0x6F3)
            });
            let spec = MixSpec {
                background_flows: background,
                base_rate,
                seed: seed ^ 0x5EED,
                ..MixSpec::default()
            };
            let handles = rec.span("trafficgen.install", |_| {
                TrafficMix::install(&mut sim, &spec)
            });
            gfw.state
                .borrow_mut()
                .label_shadowsocks_server(handles.ss_server.0);
            (sim, gfw, handles)
        });
        let bracket = traced.then(|| TapBracket::install(&mut sim));
        rec.span("netsim.run", |_| sim.run());
        rec.span("harvest", |_| {
            out.finish_sim(&sim);
            let st = gfw.state.borrow();
            let v = st.verdict_counters();
            let total = handles.total_flows() as u64;
            for (name, value) in [
                ("gfw.inspected", v.inspected),
                ("mix.exempt", v.exempt),
                ("mix.stored_true", v.stored_true),
                ("mix.stored_false", v.stored_false),
                ("mix.missed_true", v.missed_true),
                ("mix.passed_false", v.passed_false),
                ("gfw.stored", v.positives()),
                ("gfw.probes", st.probes().len() as u64),
                ("gfw.tracked_conns_end", st.tracked_conns() as u64),
                ("mix.flows", total),
                ("mix.ss_flows", handles.ss_flows as u64),
                (
                    "mix.probes_to_ss",
                    st.probes()
                        .iter()
                        .filter(|r| r.server == handles.ss_server)
                        .count() as u64,
                ),
            ] {
                out.count(name, value);
            }
            out.units = v.inspected;
            out.attempted = total;
            let uninspected = total.saturating_sub(v.inspected);
            out.problem(
                uninspected,
                format!("mix_100k: {uninspected} of {total} flows were not inspected"),
            );
            let partition = v.stored_true + v.stored_false + v.missed_true + v.passed_false;
            let off = partition.abs_diff(v.inspected);
            out.problem(
                off,
                format!(
                    "mix_100k: confusion counters sum to {partition}, not the {} inspected flows",
                    v.inspected
                ),
            );
        });
        out.tap = bracket.map(|b| (b.secs(), b.closed()));
    });
    out.finish(&rec)
}

/// `ss_20k`: the run behind `exp-fig2/fig3/table2/fig7`, at any size,
/// staged as `build_ss_world` → `connect_at` loop → `run` → `harvest`
/// → `fig7::analyze`.
pub fn ss_run(connections: usize, fleet_pool: usize, seed: u64, traced: bool) -> Outcome {
    // `fig7::run`'s configuration, at any size.
    let cfg = SsRunConfig {
        connections,
        fleet_pool,
        seed,
        ..SsRunConfig::default()
    };
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    rec.span("workload", |rec| {
        let mut world = rec.span("setup", |rec| ss_world(rec, &cfg));
        let bracket = traced.then(|| TapBracket::install(&mut world.sim));
        rec.span("netsim.run", |_| world.sim.run());
        rec.span("harvest", |_| {
            let result = runs::harvest(&world, cfg.connections);
            out.render = fig7::analyze(&result.probes).to_string();
            out.finish_sim(&world.sim);
            let st = world.handle.state.borrow();
            let unanswered = result
                .probes
                .iter()
                .filter(|p| p.reaction.is_none())
                .count() as u64;
            for (name, value) in [
                ("gfw.inspected", result.inspected),
                ("gfw.stored", st.verdict_counters().positives()),
                ("gfw.probes", result.probes.len() as u64),
                ("gfw.tracked_conns_end", st.tracked_conns() as u64),
                ("ss.probe_syns", result.probe_syns.len() as u64),
                ("ss.trigger_conns", result.trigger_conns as u64),
            ] {
                out.count(name, value);
            }
            out.units = result.trigger_conns as u64;
            out.attempted = result.probes.len() as u64;
            out.problem(
                unanswered,
                format!(
                    "ss_20k: {unanswered} of {} probes were left with no reaction",
                    result.probes.len()
                ),
            );
        });
        out.tap = bracket.map(|b| (b.secs(), b.closed()));
    });
    out.finish(&rec)
}

/// The §3.1 world with every trigger connection scheduled, as
/// `runs::shadowsocks_run` builds it before it runs.
fn ss_world(rec: &mut Recorder, cfg: &SsRunConfig) -> SsWorld {
    // Gfw::install is called inside build_ss_world, next to a handful of
    // host and app registrations.
    let mut world = rec.span("gfw.install", |_| runs::build_ss_world(cfg));
    rec.span("netsim.connect_schedule", |_| {
        for i in 0..cfg.connections {
            world.sim.connect_at(
                SimTime::ZERO + Duration::from_nanos(cfg.conn_interval.as_nanos() * i as u64),
                world.driver,
                world.client_ip,
                (world.server_ip, 8388),
                TcpTuning::default(),
            );
        }
    });
    world
}

/// `exp_all_quick`: every registry entry at quick scale through the
/// runner with [`EXP_ALL_JOBS`] workers (`exp-all --jobs 2`). A failed
/// unit is an experiment with a `NO` shape row (a shape miss, not a
/// problem) or, at [`GOLDEN_SEED`], a render that differs from its
/// golden body (a problem).
///
/// The jobs build their scenarios inside the runner, where the
/// benchmark cannot time them apart from the run, so the set-up it
/// times is what `exp-all` does before the runner starts: building the
/// job list.
pub fn exp_all_quick(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    runner::set_jobs(EXP_ALL_JOBS);
    rec.span("workload", |rec| {
        // The `exp-all` job list: one render job per registry entry.
        let specs: Vec<_> = rec.span("setup", |_| {
            REGISTRY
                .iter()
                .map(|e| {
                    let render = e.render;
                    move || render(Scale::Quick, seed)
                })
                .collect()
        });
        let runs = rec.span("experiments.run_jobs", |_| {
            runner::run_jobs_detailed_with(specs, EXP_ALL_JOBS)
        });
        rec.span("harvest", |_| {
            let mut total = SimStats::default();
            for (entry, run) in REGISTRY.iter().zip(&runs) {
                total.merge(&run.stats);
                out.jobs
                    .push((entry.id.to_string(), run.wall.as_secs_f64()));
                let no_rows = run.output.lines().filter(|l| is_no_row(l)).count() as u64;
                let off_golden = seed == GOLDEN_SEED
                    && golden_body(entry.id).is_some_and(|g| g != format!("{}\n", run.output));
                out.count(&format!("experiments.no_rows.{}", entry.id), no_rows);
                if no_rows > 0 {
                    out.failed += 1;
                    out.shape_failed += 1;
                }
                if off_golden {
                    out.problem(
                        1,
                        format!("exp_all_quick: {} differs from its golden render", entry.id),
                    );
                }
                out.render
                    .push_str(&format!("== {} ==\n{}\n", entry.title, run.output));
            }
            out.sim_counts(&total);
            out.units = total.connections;
            out.attempted = REGISTRY.len() as u64;
        });
    });
    runner::set_jobs(0);
    out.finish(&rec)
}

/// A comparison row whose "shape holds" cell reads `NO`.
fn is_no_row(line: &str) -> bool {
    line.trim_end().ends_with("  NO")
}

/// The golden file body for a registry id: the `exp-*` stdout without
/// its banner line and the blank line after it.
pub fn golden_body(id: &str) -> Option<&'static str> {
    GOLDENS
        .iter()
        .find(|(gid, _)| *gid == id)
        .and_then(|(_, text)| text.split_once("\n\n"))
        .map(|(_, body)| body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("bulk"), None);
    }

    #[test]
    fn no_rows_are_recognised() {
        assert!(is_no_row("minimum delay        0.28 s  0.10 s    NO"));
        assert!(!is_no_row("minimum delay        0.28 s  0.30 s    yes"));
        assert!(!is_no_row("NO"));
    }

    #[test]
    fn golden_bodies_strip_the_banner() {
        for id in ["fig10", "table4", "fig7", "baserate"] {
            let body = golden_body(id).expect("golden body");
            assert!(!body.starts_with("=="), "{id}");
            assert!(body.ends_with('\n'), "{id}");
        }
        assert!(golden_body("fig2").is_none());
    }

    #[test]
    fn digest_covers_counts_and_render() {
        let mut a = Outcome::default();
        a.count("x", 1);
        let mut b = Outcome::default();
        b.count("x", 2);
        assert_ne!(a.digest(), b.digest());
        let mut c = Outcome::default();
        c.count("x", 1);
        c.render.push('!');
        assert_ne!(a.digest(), c.digest());
        c.render.clear();
        assert_eq!(a.digest(), c.digest());
    }
}
