//! Scale bench for the hybrid flow/packet engine.
//!
//! Modes:
//!
//! * `exp-scale` — full bench: re-runs the bulk workload in child
//!   processes (one per engine × flow-count configuration, so each
//!   peak-RSS reading is isolated) and prints wall time, flows/sec
//!   and peak RSS at 10k/100k flows for both engines plus 1M flows
//!   for the hybrid engine, as one simulator and as 8 independent
//!   cells run as runner jobs. Nothing is written to disk.
//! * `exp-scale --quick` — in-process smoke run: 10k flows split over
//!   4 cells, honouring `GFWSIM_ENGINE` and `--jobs`/`GFWSIM_JOBS`.
//!   Seed-pure counters go to stdout — byte-identical at any worker
//!   count, which the determinism suite diffs — while wall-clock and
//!   RSS go to stderr. Used by `ci.sh`.
//! * `exp-scale --measure <engine> <flows> [<cells>]` — child mode:
//!   runs one configuration (default 1 cell) on `--jobs` workers and
//!   prints `key=value` lines for the parent.
//!
//! Wall-clock and RSS are machine-facts; everything seed-pure about
//! this workload is rendered by `exp-all --only scale` instead.

use experiments::figures::scale;
use experiments::runner;
use netsim::EngineMode;

const SEED: u64 = 2020;

/// Cell count for the split 1M-flow configuration and the quick run.
const BULK_CELLS: usize = 8;
const QUICK_CELLS: usize = 4;

struct Config {
    engine: EngineMode,
    flows: usize,
    /// Independent cells, one runner job each (1 = one simulator).
    cells: usize,
    /// Row label, e.g. `hybrid_100k`.
    stem: &'static str,
}

const CONFIGS: &[Config] = &[
    Config {
        engine: EngineMode::Packet,
        flows: 10_000,
        cells: 1,
        stem: "packet_10k",
    },
    Config {
        engine: EngineMode::Packet,
        flows: 100_000,
        cells: 1,
        stem: "packet_100k",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 10_000,
        cells: 1,
        stem: "hybrid_10k",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 100_000,
        cells: 1,
        stem: "hybrid_100k",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 1_000_000,
        cells: 1,
        stem: "hybrid_1m",
    },
    Config {
        engine: EngineMode::Hybrid,
        flows: 1_000_000,
        cells: BULK_CELLS,
        stem: "hybrid_1m_cells8",
    },
];

/// One measured configuration, as reported by a `--measure` child.
struct Row {
    stem: &'static str,
    flows: usize,
    completed: u64,
    wall_ms: f64,
    flows_per_sec: f64,
    rss_kb: u64,
    events: u64,
}

fn engine_name(e: EngineMode) -> &'static str {
    match e {
        EngineMode::Packet => "packet",
        EngineMode::Hybrid => "hybrid",
    }
}

fn run_measure(engine: EngineMode, flows: usize, cells: usize) {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time of the measured run, printed beside the seed-pure counters"
    )]
    let started = std::time::Instant::now();
    let m = scale::measure_cells(engine, flows, cells, SEED);
    let wall = started.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let fps = flows as f64 / wall.as_secs_f64().max(1e-9);
    println!("flows={flows}");
    println!("completed={}", m.completed);
    println!("wall_ms={wall_ms:.1}");
    println!("flows_per_sec={fps:.1}");
    println!("rss_kb={}", runner::peak_rss_kb());
    println!("events={}", m.stats.events);
}

fn parse_kv(output: &str, key: &str) -> Option<f64> {
    output
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.trim().parse().ok())
}

fn spawn_child(cfg: &Config) -> Row {
    let exe = std::env::current_exe().expect("exp-scale: current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--measure")
        .arg(engine_name(cfg.engine))
        .arg(cfg.flows.to_string())
        .arg(cfg.cells.to_string())
        .arg(format!("--jobs={}", runner::effective_jobs()));
    let out = cmd.output().expect("exp-scale: spawn child");
    assert!(
        out.status.success(),
        "exp-scale: child {} failed:\n{}",
        cfg.stem,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let get = |k: &str| {
        parse_kv(&text, k)
            .unwrap_or_else(|| panic!("exp-scale: child {} missing key {k}", cfg.stem))
    };
    Row {
        stem: cfg.stem,
        flows: cfg.flows,
        completed: get("completed") as u64,
        wall_ms: get("wall_ms"),
        flows_per_sec: get("flows_per_sec"),
        rss_kb: get("rss_kb") as u64,
        events: get("events") as u64,
    }
}

fn main() {
    runner::configure_from_env();
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--measure") {
        let engine = match args.get(i + 1).map(String::as_str) {
            Some("packet") => EngineMode::Packet,
            Some("hybrid") => EngineMode::Hybrid,
            other => panic!("exp-scale --measure: bad engine {other:?}"),
        };
        let flows: usize = args
            .get(i + 2)
            .and_then(|v| v.parse().ok())
            .expect("exp-scale --measure: bad flow count");
        let cells: usize = args
            .get(i + 3)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1);
        run_measure(engine, flows, cells);
        return;
    }

    if args.iter().any(|a| a == "--quick") {
        let flows: usize = 10_000;
        let engine = experiments::engine_mode();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time of the measured run, printed beside the seed-pure counters"
        )]
        let started = std::time::Instant::now();
        let m = scale::measure_cells(engine, flows, QUICK_CELLS, SEED);
        let wall = started.elapsed();
        assert_eq!(
            m.completed, flows as u64,
            "exp-scale --quick: not every transfer completed"
        );
        // Stdout carries only seed-pure counters: the determinism
        // suite diffs this line across worker counts. Machine-facts go
        // to stderr.
        println!(
            "exp-scale quick: engine={} flows={} cells={} completed={} \
             events={} promoted={}",
            engine_name(engine),
            flows,
            QUICK_CELLS,
            m.completed,
            m.stats.events,
            m.stats.flows_promoted,
        );
        eprintln!(
            "exp-scale quick: {} workers, {:.1} ms, peak rss {} kB",
            runner::effective_jobs(),
            wall.as_secs_f64() * 1e3,
            runner::peak_rss_kb(),
        );
        return;
    }

    println!("== exp-scale ==  (seed {SEED}, one child process per configuration)\n");
    let mut rows = Vec::with_capacity(CONFIGS.len());
    for cfg in CONFIGS {
        let row = spawn_child(cfg);
        assert_eq!(
            row.completed, row.flows as u64,
            "exp-scale: {} completed {} of {} transfers",
            row.stem, row.completed, row.flows
        );
        println!(
            "{:<18} {:>9} flows  {:>10.1} ms  {:>10.1} flows/s  {:>9} kB  {:>11} events",
            row.stem, row.flows, row.wall_ms, row.flows_per_sec, row.rss_kb, row.events
        );
        rows.push(row);
    }

    let fps_of = |stem: &str| {
        rows.iter()
            .find(|r| r.stem == stem)
            .unwrap_or_else(|| panic!("exp-scale: missing {stem} row"))
            .flows_per_sec
    };
    let speedup = fps_of("hybrid_100k") / fps_of("packet_100k").max(1e-9);
    println!("\nspeedup at 100k flows: {speedup:.2}x (hybrid over packet)");
}
