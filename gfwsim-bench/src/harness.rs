//! Child processes and aggregation.
//!
//! Every measured run is a fresh child process of this binary: caches
//! are cold as in a user's process, and the child's peak RSS is its
//! own. Children run one at a time, with the simulator's environment
//! knobs removed, and report on stdout in a line format
//! ([`ChildReport::to_text`]) that the parent parses back. A window
//! ([`measure`]) runs children of one workload back to back, with a
//! calibration child ([`host`]) between each two, and reports medians.

use crate::host;
use crate::layers;
use crate::metrics;
use crate::results::Results;
use crate::stats::Summary;
use crate::trace::{secs_of, self_secs, Span};
use crate::workloads::{Outcome, Workload, EXP_ALL_JOBS, MIX_BASE_RATE};
use netsim::flow::LinkId;
use netsim::{LinkBandwidth, Region};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Environment knobs that would change what a child simulates or how
/// many threads it uses; children never inherit them.
const SCRUBBED_ENV: [&str; 4] = [
    "GFWSIM_ENGINE",
    "GFWSIM_JOBS",
    "GFWSIM_SHARDS",
    "GFWSIM_NO_HWCRYPTO",
];

/// Fewest untraced children in one `--workload` run, however short the
/// measuring window: set-up is timed once per child, so this is also
/// the fewest set-ups a run's `setup_s` is the median of.
pub const MIN_CHILDREN: usize = 3;

/// Seeds a window's children cycle through (see [`family_seed`]).
pub const SEED_FAMILY: usize = 8;

/// The seed child `i` of a window runs its workload at: the window's
/// seed itself for child 0, then seeds derived from it, repeating every
/// [`SEED_FAMILY`] children. The work a run does moves with its seed
/// (the §3.1 run's event count by ±9% between seeds), so a window's
/// medians average over the seed's draws as well as the host's moments.
/// Children `i` and `i + SEED_FAMILY` run one seed, so a window still
/// checks that runs of one seed agree.
pub fn family_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i % SEED_FAMILY) as u64 * 0x9E37_79B9_7F4A_7C15)
}

/// One child's report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    /// Counter digest (hex).
    pub digest: String,
    /// Completed units.
    pub units: u64,
    /// Units that could fail.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// Failed units that only missed a shape row.
    pub shape_failed: u64,
    /// Scenario construction seconds.
    pub setup_s: f64,
    /// Flow-level check failures.
    pub problems: Vec<String>,
    /// Seed-pure counters.
    pub counts: BTreeMap<String, u64>,
    /// Spans the child recorded.
    pub spans: Vec<Span>,
    /// GFW tap bracket: seconds and brackets closed.
    pub tap: Option<(f64, u64)>,
    /// Per-experiment runner walls.
    pub jobs: Vec<(String, f64)>,
    /// The child's VmHWM in kB.
    pub rss_kb: u64,
}

impl ChildReport {
    /// Build from a finished workload and the process's peak RSS.
    pub fn from_outcome(o: &Outcome, rss_kb: u64) -> ChildReport {
        ChildReport {
            digest: format!("{:016x}", o.digest()),
            units: o.units,
            attempted: o.attempted,
            failed: o.failed,
            shape_failed: o.shape_failed,
            setup_s: o.setup_s,
            problems: o.problems.clone(),
            counts: o.counts.clone(),
            spans: o.spans.clone(),
            tap: o.tap,
            jobs: o.jobs.clone(),
            rss_kb,
        }
    }

    /// Workload start to checked output, seconds.
    pub fn wall_s(&self) -> f64 {
        secs_of(&self.spans, "workload")
    }

    /// The end-to-end metrics of this run, in catalogue order, with its
    /// times multiplied by `scale` (see [`host::scale`]).
    pub fn end_to_end(&self, scale: f64) -> Vec<(&'static str, f64)> {
        let wall = self.wall_s() * scale;
        vec![
            ("wall_s", wall),
            ("setup_s", self.setup_s * scale),
            ("flows_per_s", self.units as f64 / wall.max(1e-9)),
            ("peak_rss_mb", self.rss_kb as f64 / 1000.0),
            (
                "failed_ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            ),
        ]
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Serialize for the parent.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "digest {}\nunits {}\nattempted {}\nfailed {}\nshape_failed {}\nsetup_s {}\nrss_kb {}\n",
            self.digest,
            self.units,
            self.attempted,
            self.failed,
            self.shape_failed,
            self.setup_s,
            self.rss_kb
        );
        for p in &self.problems {
            s.push_str(&format!("problem {}\n", p.replace('\n', " ")));
        }
        for (k, v) in &self.counts {
            s.push_str(&format!("count {k} {v}\n"));
        }
        for sp in &self.spans {
            let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "span {} {} {} {parent}\n",
                sp.name, sp.start_ns, sp.end_ns
            ));
        }
        if let Some((secs, closed)) = self.tap {
            s.push_str(&format!("tap {secs} {closed}\n"));
        }
        for (id, secs) in &self.jobs {
            s.push_str(&format!("job {id} {secs}\n"));
        }
        s
    }

    /// Parse [`ChildReport::to_text`] output.
    pub fn parse(text: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        for line in text.lines() {
            let bad = || format!("bad child report line: {line}");
            let (key, rest) = line.split_once(' ').ok_or_else(bad)?;
            let f: Vec<&str> = rest.split(' ').collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or_else(bad);
            let float = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad);
            match key {
                "digest" => r.digest = rest.to_string(),
                "units" => r.units = num(0)?,
                "attempted" => r.attempted = num(0)?,
                "failed" => r.failed = num(0)?,
                "shape_failed" => r.shape_failed = num(0)?,
                "setup_s" => r.setup_s = float(0)?,
                "rss_kb" => r.rss_kb = num(0)?,
                "problem" => r.problems.push(rest.to_string()),
                "count" => {
                    r.counts.insert(f[0].to_string(), num(1)?);
                }
                "span" => r.spans.push(Span {
                    name: f[0].to_string(),
                    start_ns: num(1)?,
                    end_ns: num(2)?,
                    parent: match f.get(3) {
                        Some(&"-") => None,
                        _ => Some(num(3)? as usize),
                    },
                }),
                "tap" => r.tap = Some((float(0)?, num(1)?)),
                "job" => r.jobs.push((f[0].to_string(), float(1)?)),
                _ => return Err(bad()),
            }
        }
        if r.digest.is_empty() {
            return Err("child report has no digest".to_string());
        }
        Ok(r)
    }
}

/// Inputs that shape the unit kernels, derived from a workload's
/// counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// Event-queue depth for the hold model (the run's peak).
    pub depth: u64,
    /// Concurrent fluid flows on the border link.
    pub concurrency: u64,
    /// Demote one in this many promoted flows (0 = none).
    pub settle_every: u64,
    /// Share of inspected first payloads that are Shadowsocks.
    pub ss_share: f64,
    /// Payloads the scheduler stores.
    pub stores: u64,
    /// Probes the classifier resolves against one server.
    pub probes: u64,
}

impl Shape {
    /// Derive from a workload's seed-pure counters.
    ///
    /// Fluid concurrency is the mean number of flows in an M/G/1
    /// processor-sharing queue, ρ/(1−ρ), with ρ the border link's
    /// utilization: fluid bytes over capacity × simulated duration.
    pub fn of(w: Workload, r: &ChildReport) -> Shape {
        let capacity = LinkBandwidth::default()
            .capacity(LinkId::between(Some(Region::China), Some(Region::Outside)))
            as f64;
        let sim_secs = r.count("netsim.end_ns") as f64 / 1e9;
        let rho = if sim_secs > 0.0 {
            (r.count("netsim.flow.fluid_bytes") as f64 / (capacity * sim_secs)).min(0.99)
        } else {
            0.0
        };
        let ss_share = match w {
            Workload::Ss20k => 1.0,
            Workload::Mix100k => {
                r.count("mix.ss_flows") as f64 / r.count("mix.flows").max(1) as f64
            }
            Workload::Bulk100k | Workload::ExpAllQuick => 1.0 / (1.0 + MIX_BASE_RATE as f64),
        };
        let probes = probes(r) as u64;
        let demoted = r.count("netsim.flow.demoted");
        Shape {
            depth: r.count("netsim.peak_queue_depth").max(1),
            concurrency: ((rho / (1.0 - rho)).round() as u64).clamp(1, 4096),
            settle_every: r
                .count("netsim.flow.promoted")
                .checked_div(demoted)
                .map_or(0, |n| n.max(1)),
            ss_share,
            stores: r.count("gfw.stored").clamp(100, 20_000),
            probes: probes.clamp(100, 10_000),
        }
    }

    /// Command-line form for the units child.
    pub fn to_arg(self) -> String {
        format!(
            "{},{},{},{},{},{}",
            self.depth,
            self.concurrency,
            self.settle_every,
            self.ss_share,
            self.stores,
            self.probes
        )
    }

    /// Parse [`Shape::to_arg`].
    pub fn from_arg(s: &str) -> Option<Shape> {
        let f: Vec<&str> = s.split(',').collect();
        let n = |i: usize| f.get(i)?.parse::<u64>().ok();
        if f.len() != 6 {
            return None;
        }
        Some(Shape {
            depth: n(0)?,
            concurrency: n(1)?,
            settle_every: n(2)?,
            ss_share: f[3].parse().ok()?,
            stores: n(4)?,
            probes: n(5)?,
        })
    }
}

/// Run every unit kernel at `shape`; `(metric name, value)` pairs.
pub fn unit_metrics(shape: Shape) -> Vec<(String, f64)> {
    let mut v = vec![
        (
            "netsim.eventq.hold_ns".to_string(),
            layers::eventq_hold_ns(shape.depth as usize, 200_000),
        ),
        (
            "netsim.flow.cycle_ns".to_string(),
            layers::flow_cycle_ns(shape.concurrency as usize, shape.settle_every, 20_000),
        ),
        (
            "gfw.passive.features_ns".to_string(),
            layers::passive_features_ns(
                &layers::first_payload_pool(shape.ss_share, 2_000, 2020),
                10,
            ),
        ),
    ];
    let (store, pop) = layers::scheduler_ns(shape.stores);
    v.push(("gfw.scheduler.store_ns".to_string(), store));
    v.push(("gfw.scheduler.pop_due_ns".to_string(), pop));
    v.push((
        "gfw.classifier.record_ns".to_string(),
        layers::classifier_ns(shape.probes),
    ));
    for m in layers::METHODS {
        let name = m.name();
        v.push((
            format!("ss.wire.session_ns.{name}"),
            layers::session_ns(m, 2_000),
        ));
        v.push((
            format!("ss.wire.seal_mb_s.{name}"),
            layers::seal_mb_s(m, 4 << 20),
        ));
        v.push((
            format!("ss.wire.open_mb_s.{name}"),
            layers::open_mb_s(m, 4 << 20),
        ));
    }
    for (name, profile, method) in layers::PROFILES {
        v.push((
            format!("ss.server.reaction_ns.{name}"),
            layers::reaction_ns(profile, method, 100),
        ));
    }
    v
}

/// This binary's path: the one workload children run from unless a
/// comparison names another, and the one calibration and units children
/// always run from.
pub fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))
}

fn spawn(exe: &Path, args: &[String]) -> Result<String, String> {
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::inherit());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("child {args:?}: output is not UTF-8"))
}

/// Run `w` once in a fresh child process of the benchmark binary `exe`.
pub fn run_child(exe: &Path, w: Workload, seed: u64, traced: bool) -> Result<ChildReport, String> {
    let mut args = vec![
        "--child".to_string(),
        w.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ];
    if traced {
        args.push("--traced".to_string());
    }
    ChildReport::parse(&spawn(exe, &args)?)
}

/// Time the calibration kernel in a fresh child process.
pub fn run_calibration() -> Result<f64, String> {
    let text = spawn(&own_exe()?, &["--calibrate".to_string()])?;
    text.strip_prefix("calibrate ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("bad calibration output: {text}"))
}

/// Run the unit kernels at `shape` in a fresh child process.
pub fn run_units_child(shape: Shape) -> Result<BTreeMap<String, f64>, String> {
    let text = spawn(&own_exe()?, &["--units".to_string(), shape.to_arg()])?;
    text.lines()
        .map(|line| {
            let mut f = line.split(' ');
            match (
                f.next(),
                f.next(),
                f.next().and_then(|v| v.parse::<f64>().ok()),
            ) {
                (Some("unit"), Some(name), Some(v)) => Ok((name.to_string(), v)),
                _ => Err(format!("bad units line: {line}")),
            }
        })
        .collect()
}

/// Child side of [`run_child`].
pub fn child_main(w: Workload, seed: u64, traced: bool) {
    let outcome = w.run(seed, traced);
    let report = ChildReport::from_outcome(&outcome, experiments::runner::peak_rss_kb());
    print!("{}", report.to_text());
}

/// Child side of [`run_units_child`].
pub fn units_main(shape: Shape) {
    for (name, v) in unit_metrics(shape) {
        println!("unit {name} {v}");
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    Summary::of(&v).map_or(0.0, |s| s.median)
}

/// Problems that make a window's runs incorrect: flow-level check
/// failures, and counter digests that differ between runs of one seed.
/// Each report comes with its child index in the window, which fixes
/// its seed ([`family_seed`]).
pub fn problems(w: Workload, runs: &[(usize, &ChildReport)]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut digests: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for &(i, r) in runs {
        for p in &r.problems {
            if !out.contains(p) {
                out.push(p.clone());
            }
        }
        digests
            .entry(i % SEED_FAMILY)
            .or_default()
            .push(r.digest.as_str());
    }
    for (member, d) in digests {
        if d.iter().any(|x| *x != d[0]) {
            out.push(format!(
                "{}: counter digests differ between runs of family seed {member}: {d:?}",
                w.name()
            ));
        }
    }
    out
}

/// The per-layer metrics of `w`: every entry of both per-layer
/// catalogues, 0 for a layer the workload does not exercise.
///
/// `exp_all_quick` runs its simulators inside runner jobs, where no span
/// of the benchmark's can reach `Simulator::run`; its `netsim.run_s` is
/// the time its jobs ran, summed over the runner's workers, so its
/// residual is what the modeled layers leave of the jobs' time.
pub fn layer_metrics(
    w: Workload,
    traced: &[ChildReport],
    untraced: &[ChildReport],
    units: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = metrics::per_layer()
        .into_iter()
        .chain(metrics::workload_spans())
        .map(|m| (m.name, 0.0))
        .collect();
    let Some(first) = traced.first() else {
        return out;
    };
    let span = |name: &str| median(traced.iter().map(|r| secs_of(&r.spans, name)));
    let c = |name: &str| first.count(name) as f64;
    let mut set = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    set("netsim.connect_schedule_s", span("netsim.connect_schedule"));
    set("gfw.install_s", span("gfw.install"));
    set("trafficgen.install_s", span("trafficgen.install"));
    let tap_s = median(traced.iter().filter_map(|r| r.tap.map(|t| t.0)));
    let closed = first.tap.map_or(0, |t| t.1);
    set("gfw.tap_s", tap_s);
    set("gfw.tap_ns_per_packet", tap_s * 1e9 / closed.max(1) as f64);

    let traced_wall = median(traced.iter().map(ChildReport::wall_s));
    let mut busy = 0.0;
    for (id, _) in &first.jobs {
        let wall = median(
            traced
                .iter()
                .flat_map(|r| &r.jobs)
                .filter(|(j, _)| j == id)
                .map(|(_, s)| *s),
        );
        busy += wall;
        set(&format!("experiments.job.{id}_s"), wall);
    }
    if busy > 0.0 {
        set("experiments.runner.busy_s", busy);
        set(
            "experiments.runner.efficiency",
            busy / (EXP_ALL_JOBS as f64 * traced_wall),
        );
    }
    let run_s = if first.jobs.is_empty() {
        span("netsim.run")
    } else {
        busy
    };
    set("netsim.run_s", run_s);

    let conns = c("netsim.connections").max(1.0);
    for name in [
        "netsim.events",
        "netsim.packets_sent",
        "netsim.peak_queue_depth",
        "netsim.flow.promoted",
        "netsim.flow.fluid_bytes",
        "netsim.live_conns_end",
        "gfw.packets_tapped",
        "gfw.inspected",
        "gfw.tracked_conns_end",
    ] {
        set(name, c(name));
    }
    set("netsim.events_per_flow", c("netsim.events") / conns);
    set("netsim.packets_per_flow", c("netsim.packets_sent") / conns);
    let probes = probes(first);
    set("gfw.probes", probes);
    let stored = c("gfw.stored");
    set(
        "gfw.probes_per_stored",
        if stored > 0.0 { probes / stored } else { 0.0 },
    );

    for (name, v) in units {
        set(name, *v);
    }

    let residual = run_s - modeled(w, first, units).iter().map(|(_, s)| s).sum::<f64>() - tap_s;
    set("netsim.residual_s", residual);
    set(
        "netsim.residual_share",
        if run_s > 0.0 { residual / run_s } else { 0.0 },
    );

    let untraced_wall = median(untraced.iter().map(ChildReport::wall_s));
    if untraced_wall > 0.0 {
        set("trace.overhead_ratio", traced_wall / untraced_wall - 1.0);
    }
    out
}

/// Probes the GFW launched: its probe log, or for `exp_all_quick`,
/// which sees only the jobs' summed simulator counters, their count.
fn probes(r: &ChildReport) -> f64 {
    r.count("gfw.probes").max(r.count("gfw.probes_launched")) as f64
}

/// Modeled layer times inside `netsim.run` but outside the tap
/// bracket: each a count from the run times a unit cost.
pub fn modeled(
    w: Workload,
    r: &ChildReport,
    units: &BTreeMap<String, f64>,
) -> Vec<(&'static str, f64)> {
    let u = |name: &str| units.get(name).copied().unwrap_or(0.0) * 1e-9;
    let c = |name: &str| r.count(name) as f64;
    let probes = probes(r);
    let (server_probes, sessions) = match w {
        Workload::Ss20k => (probes, c("ss.trigger_conns")),
        Workload::Mix100k => (c("mix.probes_to_ss"), c("mix.ss_flows")),
        Workload::Bulk100k | Workload::ExpAllQuick => (0.0, 0.0),
    };
    vec![
        (
            "eventq (events x hold)",
            c("netsim.events") * u("netsim.eventq.hold_ns"),
        ),
        (
            "fluid (promoted x cycle)",
            c("netsim.flow.promoted") * u("netsim.flow.cycle_ns"),
        ),
        (
            "classifier (probes x record)",
            probes * u("gfw.classifier.record_ns"),
        ),
        (
            "scheduler (probes x pop_due)",
            probes * u("gfw.scheduler.pop_due_ns"),
        ),
        (
            "ss server (probes x reaction)",
            server_probes * u("ss.server.reaction_ns.libev-old"),
        ),
        (
            "ss wire (sessions x session)",
            sessions * u("ss.wire.session_ns.aes-256-cfb"),
        ),
    ]
}

/// Untraced and traced children of one workload, plus its unit costs.
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Untraced runs.
    pub untraced: Vec<ChildReport>,
    /// Per untraced run, the calibration kernel's seconds before and
    /// after it.
    pub calibrations: Vec<(f64, f64)>,
    /// Traced runs.
    pub traced: Vec<ChildReport>,
    /// Unit costs at the workload's shape.
    pub units: BTreeMap<String, f64>,
}

impl Measured {
    fn new(workload: Workload) -> Measured {
        Measured {
            workload,
            untraced: Vec::new(),
            calibrations: Vec::new(),
            traced: Vec::new(),
            units: BTreeMap::new(),
        }
    }

    /// Flow-level problems and digest mismatches across every run.
    pub fn problems(&self) -> Vec<String> {
        let all: Vec<(usize, &ChildReport)> = self
            .untraced
            .iter()
            .enumerate()
            .chain(self.traced.iter().enumerate())
            .collect();
        problems(self.workload, &all)
    }

    /// The calibration kernel's median seconds in this window.
    pub fn calibration_s(&self) -> f64 {
        median(self.calibrations.iter().flat_map(|&(b, a)| [b, a]))
    }

    /// The calibration kernel's median against its reference.
    pub fn host_note(&self) -> String {
        format!(
            "calibration kernel {:.4} s, reference {} s",
            self.calibration_s(),
            host::REFERENCE_S
        )
    }

    /// Each untraced run's end-to-end metrics, times in reference
    /// seconds.
    pub fn per_run(&self) -> Vec<Vec<(&'static str, f64)>> {
        self.untraced
            .iter()
            .zip(&self.calibrations)
            .map(|(r, &(before, after))| r.end_to_end(host::scale(before, after)))
            .collect()
    }

    /// The median of each end-to-end metric over the untraced runs.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let per_run = self.per_run();
        let Some(first) = per_run.first() else {
            return Vec::new();
        };
        first
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| (name, median(per_run.iter().map(|r| r[i].1))))
            .collect()
    }

    /// Per-layer metrics (traced runs only).
    pub fn layers(&self) -> BTreeMap<String, f64> {
        layer_metrics(self.workload, &self.traced, &self.untraced, &self.units)
    }

    fn add_traced(&mut self, exe: &Path, seed: u64) -> Result<(), String> {
        let r = run_child(
            exe,
            self.workload,
            family_seed(seed, self.traced.len()),
            true,
        )?;
        if self.units.is_empty() {
            self.units = run_units_child(Shape::of(self.workload, &r))?;
        }
        self.traced.push(r);
        Ok(())
    }
}

/// Options of a one-workload run (`--workload ... --seconds ...`).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadRun {
    /// Workload.
    pub workload: Workload,
    /// Seed.
    pub seed: u64,
    /// Measuring window.
    pub seconds: u64,
    /// Per-layer (traced) instead of end-to-end metrics.
    pub trace: bool,
}

/// Run `w` from the benchmark binary `exe` for a measuring window of
/// `seconds`: untraced children until it closes (at least
/// [`MIN_CHILDREN`]), or with `trace`, untraced and traced children in
/// pairs (at least one pair) plus a units child. Children cycle through
/// the seed's family ([`family_seed`]).
pub fn measure(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Measured, String> {
    let started = Instant::now();
    let window = Duration::from_secs(seconds);
    let mut m = Measured::new(w);
    let mut before = run_calibration()?;
    loop {
        let child_seed = family_seed(seed, m.untraced.len());
        m.untraced.push(run_child(exe, w, child_seed, false)?);
        let after = run_calibration()?;
        m.calibrations.push((before, after));
        before = after;
        if trace {
            m.add_traced(exe, seed)?;
            before = run_calibration()?;
        }
        let enough = trace || m.untraced.len() >= MIN_CHILDREN;
        if enough && started.elapsed() >= window {
            return Ok(m);
        }
    }
}

/// One `--workload` run: measure one window, print its report, and
/// return the one-line JSON result and whether every check passed.
pub fn run_workload(d: WorkloadRun) -> Result<(String, bool), String> {
    let m = measure(&own_exe()?, d.workload, d.seed, d.seconds, d.trace)?;
    let problems = m.problems();
    for p in &problems {
        eprintln!("gfwsim-bench: {p}");
    }
    let children = || m.untraced.iter().chain(&m.traced);
    let attempted: u64 = children().map(|r| r.attempted).sum();
    // Shape-row misses stay in `failed_ratio`; the result line counts
    // operations that failed.
    let failed: u64 = children().map(|r| r.failed - r.shape_failed).sum();
    let catalogue: Vec<metrics::Metric> = if d.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
            .into_iter()
            .filter(|x| matches!(x.bound, metrics::Bound::Share { .. }))
            .collect()
    };
    let values: BTreeMap<String, f64> = if d.trace {
        m.layers()
    } else {
        m.end_to_end()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    };
    let per_run = m.per_run();
    let per_child: Vec<Vec<f64>> = (0..metrics::end_to_end().len())
        .map(|i| per_run.iter().map(|r| r[i].1).collect())
        .collect();
    print_summaries(
        &format!(
            "{} (seed {} and {} more of its family; one window: {} untraced, {} traced children; {})",
            d.workload.name(),
            d.seed,
            SEED_FAMILY - 1,
            m.untraced.len(),
            m.traced.len(),
            m.host_note()
        ),
        m.untraced.first().map(|r| r.digest.as_str()),
        &per_child,
    );
    print_trace(&m);
    let body: Vec<String> = catalogue
        .iter()
        .map(|x| {
            let v = values.get(&x.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(v),
                x.unit
            )
        })
        .collect();
    let ok = problems.is_empty();
    let line = format!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok((line, ok))
}

/// A finite JSON number with every digit Rust's round-trip formatting
/// gives (non-finite values, which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Options of a `--runs` session over every workload.
#[derive(Clone, Debug)]
pub struct Session {
    /// Seed.
    pub seed: u64,
    /// Untraced rounds; each measures every workload for one window,
    /// workloads interleaved round-robin.
    pub runs: usize,
    /// Measuring window per workload and round, seconds.
    pub seconds: u64,
    /// Add one traced window per workload after the rounds.
    pub trace: bool,
}

/// What a session measured.
pub struct SessionReport {
    /// One sample per window and metric: the window's end-to-end
    /// medians, and the traced windows' per-layer metrics.
    pub results: Results,
    /// The traced windows.
    pub traced: Vec<Measured>,
    /// Failed checks, including counter digests that differ between
    /// windows of one workload.
    pub problems: Vec<String>,
}

impl SessionReport {
    fn new(seed: u64) -> SessionReport {
        SessionReport {
            results: Results::new(seed),
            traced: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn check(&mut self, m: &Measured) {
        let w = m.workload.name();
        let mut found = m.problems();
        if let Some(r) = m.untraced.first() {
            let first = self
                .results
                .digests
                .entry(w.to_string())
                .or_insert_with(|| r.digest.clone());
            if *first != r.digest {
                found.push(format!(
                    "{w}: counter digests differ between windows of one seed: {first} and {}",
                    r.digest
                ));
            }
        }
        for p in found {
            if !self.problems.contains(&p) {
                self.problems.push(p);
            }
        }
    }

    /// Print `w`'s end-to-end summaries over the session's windows, and
    /// its traced window's breakdown.
    pub fn print(&self, w: Workload, s: &Session) {
        let samples: Vec<Vec<f64>> = metrics::end_to_end()
            .iter()
            .map(|m| self.results.get(&m.name, w.name()).unwrap_or(&[]).to_vec())
            .collect();
        print_summaries(
            &format!(
                "{} (seed {} and {} more of its family; {} windows of {} s, one sample per window)",
                w.name(),
                s.seed,
                SEED_FAMILY - 1,
                s.runs,
                s.seconds
            ),
            self.results.digests.get(w.name()).map(String::as_str),
            &samples,
        );
        if let Some(m) = self.traced.iter().find(|m| m.workload == w) {
            print_trace(m);
        }
    }
}

/// Run a session on each of `sides`, benchmark binaries built from the
/// same benchmark code: `runs` rounds of one window per workload and
/// side, then the traced windows. The sides take turns at going first
/// from one round to the next, so when two commits are compared, the
/// i-th windows of a workload form a pair, and pairs alternate which
/// side ran first. Returns one report per side.
pub fn session(s: &Session, sides: &[PathBuf]) -> Result<Vec<SessionReport>, String> {
    let mut reports: Vec<SessionReport> =
        sides.iter().map(|_| SessionReport::new(s.seed)).collect();
    // `(round, traced)`: the untraced rounds, then the traced one.
    let mut rounds: Vec<(usize, bool)> = (0..s.runs).map(|r| (r, false)).collect();
    if s.trace {
        rounds.push((s.runs, true));
    }
    for (round, trace) in rounds {
        for w in Workload::ALL {
            for k in 0..sides.len() {
                let i = (round + k) % sides.len();
                let what = if trace {
                    "traced".to_string()
                } else {
                    format!("round {}/{}", round + 1, s.runs)
                };
                eprintln!("gfwsim-bench: {what} {} ({})", w.name(), sides[i].display());
                let m = measure(&sides[i], w, s.seed, s.seconds, trace)?;
                let report = &mut reports[i];
                report.check(&m);
                if trace {
                    for (metric, v) in m.layers() {
                        report.results.push(&metric, w.name(), v);
                    }
                    report.traced.push(m);
                } else {
                    for (metric, v) in m.end_to_end() {
                        report.results.push(metric, w.name(), v);
                    }
                    report
                        .results
                        .push("host.calibration_s", w.name(), m.calibration_s());
                }
            }
        }
    }
    Ok(reports)
}

/// Hardware facts printed with every report: the CPU features the
/// children dispatch on (they never inherit `GFWSIM_NO_HWCRYPTO`).
pub fn machine_facts() -> String {
    let f = sscrypto::hw::CpuFeatures::detect_with(false);
    format!(
        "parallelism {}; hw_crypto aes_ni={} pclmulqdq={} ssse3={} avx2={}",
        experiments::runner::default_parallelism(),
        f.aes,
        f.pclmulqdq,
        f.ssse3,
        f.avx2
    )
}

/// Print a report header and the `{median, q1, q3, min, max, n}` table
/// of the end-to-end metrics; `samples[i]` holds the samples of the
/// catalogue's i-th metric.
fn print_summaries(title: &str, digest: Option<&str>, samples: &[Vec<f64>]) {
    println!("== {title}; {} ==", machine_facts());
    if let Some(d) = digest {
        println!("digest {d}");
    }
    println!(
        "{:<14} {:>8} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    for (metric, values) in metrics::end_to_end().iter().zip(samples) {
        if let Some(s) = Summary::of(values) {
            println!(
                "{:<14} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                metric.name, metric.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        }
    }
}

/// Print a traced window's span self times, the `netsim.run_s`
/// decomposition and the non-zero per-layer metrics (nothing for an
/// untraced window).
fn print_trace(m: &Measured) {
    let Some(first) = m.traced.first() else {
        return;
    };
    println!("spans (first traced run): name, seconds, self seconds");
    for (i, sp) in first.spans.iter().enumerate() {
        let depth = {
            let mut d = 0;
            let mut p = sp.parent;
            while let Some(j) = p {
                d += 1;
                p = first.spans[j].parent;
            }
            d
        };
        println!(
            "  {:indent$}{:<28} {:>10.6} {:>10.6}",
            "",
            sp.name,
            sp.secs(),
            self_secs(&first.spans, i),
            indent = depth * 2
        );
    }
    let layers = m.layers();
    let run_s = layers["netsim.run_s"];
    if run_s > 0.0 {
        let what = if first.jobs.is_empty() {
            "Simulator::run"
        } else {
            "runner jobs, summed over workers"
        };
        println!("netsim.run_s {run_s:.6} s ({what}) =");
        println!(
            "  {:<32} {:>10.6}",
            "gfw.tap_s (bracket)", layers["gfw.tap_s"]
        );
        for (name, secs) in modeled(m.workload, first, &m.units) {
            println!("  {name:<32} {secs:>10.6}");
        }
        println!(
            "  {:<32} {:>10.6}  ({:.1}% of run_s)",
            "netsim.residual_s",
            layers["netsim.residual_s"],
            layers["netsim.residual_share"] * 100.0
        );
        if let Some((_, closed)) = first.tap {
            let tapped = first.count("gfw.packets_tapped");
            println!(
                "  tap brackets closed {closed} of {tapped} border packets ({} unclosed by drops)",
                tapped.saturating_sub(closed)
            );
        }
    }
    println!("per-layer metrics (zeros omitted): name, value, unit, kind, layer");
    for metric in metrics::per_layer()
        .into_iter()
        .chain(metrics::workload_spans())
    {
        let value = layers[&metric.name];
        if value != 0.0 {
            println!(
                "  {:<42} {:>16.4} {:<12} {:<6} {}",
                metric.name,
                value,
                metric.unit,
                format!("{:?}", metric.kind).to_lowercase(),
                metric.layer
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ChildReport {
        let mut r = ChildReport {
            digest: "00ab".into(),
            units: 10,
            attempted: 12,
            failed: 2,
            shape_failed: 1,
            setup_s: 0.5,
            problems: vec!["bulk_100k: 2 of 12 transfers did not complete".into()],
            spans: vec![
                Span {
                    name: "workload".into(),
                    start_ns: 0,
                    end_ns: 2_000_000_000,
                    parent: None,
                },
                Span {
                    name: "setup".into(),
                    start_ns: 5,
                    end_ns: 500_000_005,
                    parent: Some(0),
                },
            ],
            tap: Some((0.25, 7)),
            jobs: vec![("fig10".into(), 0.125)],
            rss_kb: 59_164,
            ..ChildReport::default()
        };
        r.counts.insert("netsim.events".into(), 12_000_000);
        r
    }

    #[test]
    fn child_reports_round_trip() {
        let r = report();
        assert_eq!(ChildReport::parse(&r.to_text()).unwrap(), r);
        assert!(ChildReport::parse("units 3\n").is_err());
        assert!(ChildReport::parse("digest 1\nunits x\n").is_err());
    }

    #[test]
    fn end_to_end_metrics_follow_the_catalogue() {
        let e = report().end_to_end(1.0);
        let names: Vec<&str> = e.iter().map(|(n, _)| *n).collect();
        let catalogue: Vec<String> = metrics::end_to_end().into_iter().map(|m| m.name).collect();
        assert_eq!(names, catalogue);
        assert_eq!(e[0].1, 2.0);
        assert_eq!(e[1].1, 0.5);
        let slow_host = report().end_to_end(0.5);
        assert_eq!(slow_host[0].1, 1.0);
        assert_eq!(slow_host[1].1, 0.25);
        assert_eq!(slow_host[2].1, 10.0);
        assert_eq!(slow_host[3].1, e[3].1);
        assert_eq!(e[2].1, 5.0);
        assert_eq!(e[3].1, 59.164);
        assert_eq!(e[4].1, 2.0 / 12.0);
    }

    #[test]
    fn shapes_round_trip_and_stay_in_range() {
        let s = Shape::of(Workload::Bulk100k, &report());
        assert_eq!(Shape::from_arg(&s.to_arg()), Some(s));
        assert!(s.concurrency >= 1 && s.probes >= 100 && s.stores >= 100);
        assert!(Shape::from_arg("1,2,3").is_none());
    }

    #[test]
    fn family_seeds_start_at_the_seed_and_repeat() {
        let seeds: Vec<u64> = (0..SEED_FAMILY).map(|i| family_seed(2020, i)).collect();
        assert_eq!(seeds[0], 2020);
        for (i, s) in seeds.iter().enumerate() {
            assert_eq!(family_seed(2020, i + SEED_FAMILY), *s);
            assert!(!seeds[..i].contains(s));
        }
    }

    #[test]
    fn digest_mismatch_within_a_seed_is_a_problem() {
        let a = report();
        let mut b = report();
        b.digest = "ffff".into();
        // One problem (the report's own) while the differing digests
        // belong to different seeds of the family...
        assert_eq!(problems(Workload::Bulk100k, &[(0, &a), (1, &b)]).len(), 1);
        // ...and a second once they belong to one seed.
        let p = problems(Workload::Bulk100k, &[(0, &a), (SEED_FAMILY, &b)]);
        assert_eq!(p.len(), 2);
        assert!(p.iter().any(|x| x.contains("digests differ")), "{p:?}");
    }

    #[test]
    fn layer_metrics_cover_the_catalogue_and_balance() {
        let mut traced = report();
        traced.jobs.clear();
        traced.spans.push(Span {
            name: "netsim.run".into(),
            start_ns: 600_000_000,
            end_ns: 1_600_000_000,
            parent: Some(0),
        });
        traced.counts.insert("netsim.connections".into(), 1_000);
        let units: BTreeMap<String, f64> = [("netsim.eventq.hold_ns".to_string(), 20.0)].into();
        let l = layer_metrics(Workload::Bulk100k, &[traced], &[report()], &units);
        assert_eq!(
            l.len(),
            metrics::per_layer().len() + metrics::workload_spans().len()
        );
        // run_s = tap + modeled + residual.
        let modeled = 12_000_000.0 * 20e-9;
        let sum = l["gfw.tap_s"] + modeled + l["netsim.residual_s"];
        assert!((sum - l["netsim.run_s"]).abs() < 1e-12, "{sum}");
        assert_eq!(l["netsim.run_s"], 1.0);
        assert_eq!(l["netsim.events_per_flow"], 12_000.0);
        assert_eq!(l["trace.overhead_ratio"], 0.0);
        // Runner jobs' summed time stands in for the simulator run.
        let l = layer_metrics(Workload::ExpAllQuick, &[report()], &[report()], &units);
        assert_eq!(l["netsim.run_s"], 0.125);
        assert_eq!(l["experiments.job.fig10_s"], 0.125);
    }
}
