//! `gfwsim-bench` — run the benchmark, trace it, compare two commits.
//!
//! ```text
//! gfwsim-bench [--runs N] [--seconds T] [--seed S] [--trace] [--out FILE]
//! gfwsim-bench --workload NAME --seed S --seconds T --trace 0|1
//! gfwsim-bench --compare PARENT CHANGE [--runs N] [--seconds T] [--seed S]
//! ```
//!
//! `--compare` takes two results files, or two benchmark binaries whose
//! windows it runs in turn.
//!
//! Exit codes: 0 success, 1 a check failed (a flow-level failure,
//! differing counter digests, or a `--compare` row that is worse or
//! unresolved), 2 usage or I/O errors.

use gfwsim_bench::compare;
use gfwsim_bench::harness::{self, Session, Shape, WorkloadRun};
use gfwsim_bench::results::Results;
use gfwsim_bench::workloads::Workload;
use gfwsim_bench::{host, metrics};
use std::path::PathBuf;

const USAGE: &str = "usage:
  gfwsim-bench [--runs N] [--seconds T] [--seed S] [--trace] [--out FILE]
  gfwsim-bench --workload NAME --seed S --seconds T --trace 0|1
  gfwsim-bench --compare PARENT CHANGE [--runs N] [--seconds T] [--seed S]
    (PARENT and CHANGE: two results files, or two gfwsim-bench binaries)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gfwsim-bench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Parsed flags: `--name value` pairs plus bare switches.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, name: &str) -> Option<&'a str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.args.get(i + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if !self.has(name) => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
            None => Err(format!("{name} needs a value")),
        }
    }

    fn workload(&self, name: &str) -> Result<Workload, String> {
        Workload::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    }

    fn session(&self, seed: u64) -> Result<Session, String> {
        Ok(Session {
            seed,
            runs: self.parse("--runs", 5)?,
            seconds: self.parse("--seconds", metrics::RUN_SECONDS)?,
            trace: self.has("--trace"),
        })
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let flags = Flags { args };
    let seed: u64 = flags.parse("--seed", 2020)?;

    if flags.has("--child") {
        let w = flags.workload(flags.value("--child").unwrap_or(""))?;
        harness::child_main(w, seed, flags.has("--traced"));
        return Ok(0);
    }
    if flags.has("--calibrate") {
        println!("calibrate {}", host::kernel_secs());
        return Ok(0);
    }
    if flags.has("--units") {
        let shape = flags
            .value("--units")
            .and_then(Shape::from_arg)
            .ok_or("bad --units shape")?;
        harness::units_main(shape);
        return Ok(0);
    }
    if flags.has("--compare") {
        let i = args.iter().position(|a| a == "--compare").unwrap_or(0);
        let (Some(parent), Some(change)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs a parent and a change".into());
        };
        return compare(parent, change, &flags.session(seed)?);
    }
    if flags.has("--workload") {
        let d = WorkloadRun {
            workload: flags.workload(flags.value("--workload").unwrap_or(""))?,
            seed,
            seconds: flags.parse("--seconds", metrics::RUN_SECONDS)?,
            trace: match flags.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
            },
        };
        let (line, ok) = harness::run_workload(d)?;
        println!("{line}");
        return Ok(if ok { 0 } else { 1 });
    }

    let s = flags.session(seed)?;
    let report = harness::session(&s, &[harness::own_exe()?])?.remove(0);
    for w in Workload::ALL {
        report.print(w, &s);
    }
    for p in &report.problems {
        eprintln!("gfwsim-bench: {p}");
    }
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, report.results.to_text())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(if report.problems.is_empty() { 0 } else { 1 })
}

/// Judge `change` against `parent`: two results files, or two benchmark
/// binaries measured in one session whose windows take turns; exit 1
/// unless every row is improved or unchanged.
fn compare(parent: &str, change: &str, s: &Session) -> Result<i32, String> {
    let (parent, change, problems) = match (Results::read(parent)?, Results::read(change)?) {
        (Some(p), Some(c)) => (p, c, Vec::new()),
        (None, None) => {
            let exe =
                |p: &str| std::fs::canonicalize(p).map_err(|e| format!("cannot find {p}: {e}"));
            let sides: Vec<PathBuf> = vec![exe(parent)?, exe(change)?];
            let mut reports = harness::session(s, &sides)?;
            let c = reports.pop().ok_or("no change report")?;
            let p = reports.pop().ok_or("no parent report")?;
            let problems = [p.problems, c.problems].concat();
            (p.results, c.results, problems)
        }
        _ => return Err("--compare takes two results files or two benchmark binaries".into()),
    };
    let (table, passed) = compare::table(&parent, &change);
    print!("{table}");
    for p in &problems {
        eprintln!("gfwsim-bench: {p}");
    }
    Ok(if passed && problems.is_empty() { 0 } else { 1 })
}
