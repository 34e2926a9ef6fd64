//! Timing modes for the base-rate mix: detector precision/recall
//! against the protocol-profile background mix is rendered by
//! `exp-all --only baserate` (add `--paper` for the
//! 1M-background-flows-per-point sweep); this binary times the mix.
//!
//! Modes (with none, it prints usage and exits 2):
//!
//! * `exp-baserate --quick` — in-process smoke run: one mix point
//!   under the hybrid engine, printing a one-line summary. Used by
//!   `ci.sh`.
//! * `exp-baserate --bench` — wall-clock bench: re-runs the mix in
//!   child processes (one per configuration, so each peak-RSS reading
//!   is isolated) and prints wall time, flows/sec and peak RSS for
//!   100k-flow mixes under both engines plus the 1M-flow mix under
//!   the hybrid engine. Nothing is written to disk.
//! * `exp-baserate --measure <engine> <flows>` — child mode: runs one
//!   configuration and prints `key=value` lines for the parent.

use experiments::figures::baserate;
use experiments::runner;
use netsim::EngineMode;

const SEED: u64 = 2020;

const USAGE: &str = "usage: exp-baserate --quick | --bench | --measure <packet|hybrid> <flows>";

/// Base rate used by the bench configurations: 1:1,000 sits in the
/// middle of the sweep and keeps the Shadowsocks side non-trivial.
const BENCH_BASE_RATE: u64 = 1_000;

struct Config {
    engine: EngineMode,
    flows: usize,
    /// Row label, e.g. `mix_100k_hybrid`.
    stem: &'static str,
}

const CONFIGS: &[Config] = &[
    Config {
        engine: EngineMode::Packet,
        flows: 100_000,
        stem: "mix_100k_packet",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 100_000,
        stem: "mix_100k_hybrid",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 1_000_000,
        stem: "mix_1m_hybrid",
    },
];

/// One measured configuration, as reported by a `--measure` child.
struct Row {
    stem: &'static str,
    flows: usize,
    inspected: u64,
    wall_ms: f64,
    flows_per_sec: f64,
    rss_kb: u64,
}

fn engine_name(e: EngineMode) -> &'static str {
    match e {
        EngineMode::Packet => "packet",
        EngineMode::Hybrid => "hybrid",
    }
}

fn run_measure(engine: EngineMode, flows: usize) {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time of the measured run, printed beside the seed-pure counters"
    )]
    let started = std::time::Instant::now();
    let p = baserate::measure(engine, flows, BENCH_BASE_RATE, SEED);
    let wall = started.elapsed();
    let total = flows + p.ss_flows;
    let fps = total as f64 / wall.as_secs_f64().max(1e-9);
    println!("flows={total}");
    println!("inspected={}", p.verdicts.inspected);
    println!("wall_ms={:.1}", wall.as_secs_f64() * 1e3);
    println!("flows_per_sec={fps:.1}");
    println!("rss_kb={}", runner::peak_rss_kb());
}

fn parse_kv(output: &str, key: &str) -> Option<f64> {
    output
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.trim().parse().ok())
}

fn spawn_child(cfg: &Config) -> Row {
    let exe = std::env::current_exe().expect("exp-baserate: current_exe");
    let out = std::process::Command::new(exe)
        .arg("--measure")
        .arg(engine_name(cfg.engine))
        .arg(cfg.flows.to_string())
        .output()
        .expect("exp-baserate: spawn child");
    assert!(
        out.status.success(),
        "exp-baserate: child {} failed:\n{}",
        cfg.stem,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let get = |k: &str| {
        parse_kv(&text, k)
            .unwrap_or_else(|| panic!("exp-baserate: child {} missing key {k}", cfg.stem))
    };
    Row {
        stem: cfg.stem,
        flows: get("flows") as usize,
        inspected: get("inspected") as u64,
        wall_ms: get("wall_ms"),
        flows_per_sec: get("flows_per_sec"),
        rss_kb: get("rss_kb") as u64,
    }
}

fn run_bench() {
    println!("== exp-baserate bench ==  (seed {SEED}, one child process per configuration)\n");
    let mut rows = Vec::with_capacity(CONFIGS.len());
    for cfg in CONFIGS {
        let row = spawn_child(cfg);
        assert_eq!(
            row.inspected, row.flows as u64,
            "exp-baserate: {} inspected {} of {} flows",
            row.stem, row.inspected, row.flows
        );
        println!(
            "{:<16} {:>9} flows  {:>10.1} ms  {:>10.1} flows/s  {:>9} kB",
            row.stem, row.flows, row.wall_ms, row.flows_per_sec, row.rss_kb
        );
        rows.push(row);
    }

    let packet_100k = rows
        .iter()
        .find(|r| r.stem == "mix_100k_packet")
        .expect("exp-baserate: mix_100k_packet row");
    let hybrid_100k = rows
        .iter()
        .find(|r| r.stem == "mix_100k_hybrid")
        .expect("exp-baserate: mix_100k_hybrid row");
    let speedup = hybrid_100k.flows_per_sec / packet_100k.flows_per_sec.max(1e-9);
    println!("\nspeedup at 100k mixed flows: {speedup:.2}x (hybrid over packet)");
}

fn main() {
    runner::configure_from_env();
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--measure") {
        let engine = match args.get(i + 1).map(String::as_str) {
            Some("packet") => EngineMode::Packet,
            Some("hybrid") => EngineMode::Hybrid,
            other => panic!("exp-baserate --measure: bad engine {other:?}"),
        };
        let flows: usize = args
            .get(i + 2)
            .and_then(|v| v.parse().ok())
            .expect("exp-baserate --measure: bad flow count");
        run_measure(engine, flows);
        return;
    }

    if args.iter().any(|a| a == "--bench") {
        run_bench();
        return;
    }

    if args.iter().any(|a| a == "--quick") {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time of the measured run, printed beside the seed-pure counters"
        )]
        let started = std::time::Instant::now();
        let p = baserate::measure(EngineMode::Hybrid, 5_000, BENCH_BASE_RATE, SEED);
        let wall = started.elapsed();
        assert_eq!(
            p.verdicts.inspected,
            (5_000 + p.ss_flows) as u64,
            "exp-baserate --quick: not every flow inspected"
        );
        println!(
            "exp-baserate quick: 5000 background + {} ss flows (hybrid) in \
             {:.1} ms, {} stored ({} true), {} probes, peak rss {} kB",
            p.ss_flows,
            wall.as_secs_f64() * 1e3,
            p.verdicts.positives(),
            p.verdicts.stored_true,
            p.probes_total,
            runner::peak_rss_kb(),
        );
        return;
    }

    eprintln!("{USAGE}");
    std::process::exit(2);
}
