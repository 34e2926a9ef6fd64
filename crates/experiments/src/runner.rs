//! The deterministic parallel run engine.
//!
//! Every experiment in this crate is a pure function of its seed,
//! which makes the evaluation grid embarrassingly
//! parallel with **zero determinism risk**:
//!
//! * a [`Job`] is plain `Send` data (a spec) plus the computation that
//!   consumes it — usually a move-closure over its parameters;
//! * each worker **builds and consumes its own `Simulator`** inside the
//!   job, so the sim's `Rc<RefCell>` internals never cross a thread
//!   boundary and no `Send` bound on sim internals is needed;
//! * results are merged **in spec order**, so output is byte-identical
//!   no matter how many workers ran or how the OS scheduled them.
//!
//! Worker count resolves `--jobs N` → `GFWSIM_JOBS` → available
//! parallelism: the binaries read the first two once at startup
//! ([`requested_jobs`]) and install the result with [`set_jobs`]; a
//! value that is not a positive integer exits 2. Jobs already running
//! inside a worker execute nested [`run_jobs`] calls inline, so fanning
//! out across figures in `exp-all` never oversubscribes the machine.
//!
//! Thread primitives are permitted only in this module (`clippy.toml`
//! bans them elsewhere); the simulation crates stay single-threaded.

#![expect(
    clippy::disallowed_methods,
    reason = "the run engine is the one home of worker threads and of per-job wall-clock timing"
)]

use netsim::sim::SimStats;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count override set by `--jobs` (0 = unset).
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on worker threads so nested `run_jobs` calls execute inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread accumulator of simulator counters (see
    /// [`record_sim_stats`]).
    static SIM_STATS: Cell<SimStats> = Cell::new(SimStats::default());
}

/// Override the worker count (0 clears the override).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Hardware parallelism, or 1 when it cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The effective worker count: the override installed by [`set_jobs`]
/// if any, else available parallelism.
pub fn effective_jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => default_parallelism(),
        n => n,
    }
}

/// Parse a worker count named by `what` (`--jobs`, `GFWSIM_JOBS`): a
/// positive integer, or an error that quotes the value.
fn parse_jobs(what: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{what} wants a positive integer, got `{value}`")),
    }
}

/// The worker count a command asked for: `flag` (its parsed `--jobs`)
/// if given, else `GFWSIM_JOBS` if set, else none. A `GFWSIM_JOBS`
/// that is not a positive integer is an error, as a bad `--jobs` is:
/// a mistyped worker count must not fall back to the default.
pub fn requested_jobs(flag: Option<usize>) -> Result<Option<usize>, String> {
    match (flag, std::env::var("GFWSIM_JOBS")) {
        (Some(n), _) => Ok(Some(n)),
        (None, Ok(value)) => parse_jobs("GFWSIM_JOBS", &value).map(Some),
        (None, Err(_)) => Ok(None),
    }
}

/// Remove `--jobs N` / `--jobs=N` from `args` and return N, if given.
/// A value that is not a positive integer, or a missing one, is an
/// error: a mistyped worker count must not fall back to the default.
pub fn take_jobs_arg(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let Some(i) = args
        .iter()
        .position(|a| a == "--jobs" || a.starts_with("--jobs="))
    else {
        return Ok(None);
    };
    let flag = args.remove(i);
    let value = match flag.strip_prefix("--jobs=") {
        Some(v) => v.to_string(),
        None if i < args.len() => args.remove(i),
        None => return Err("--jobs needs a worker count".to_string()),
    };
    parse_jobs("--jobs", &value).map(Some)
}

/// Install the worker count from `--jobs` or `GFWSIM_JOBS` (see
/// [`requested_jobs`]); a bad value prints the error and exits 2.
/// `exp-scale` and `exp-baserate` call this once at startup (`exp-all`
/// reads `--jobs` with the rest of its arguments).
pub fn configure_from_env() {
    let mut args: Vec<String> = std::env::args().collect();
    match take_jobs_arg(&mut args).and_then(requested_jobs) {
        Ok(Some(n)) => set_jobs(n),
        Ok(None) => {}
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// A unit of work: a `Send` spec and the computation that consumes it.
///
/// Blanket-implemented for any `FnOnce() -> R + Send` closure, so a job
/// is usually written as `move || run_case(params)`.
pub trait Job: Send {
    /// The job's result, merged in spec order.
    type Output: Send;
    /// Consume the spec and produce the result.
    fn run(self) -> Self::Output;
}

impl<R: Send, F: FnOnce() -> R + Send> Job for F {
    type Output = R;
    fn run(self) -> R {
        self()
    }
}

/// One finished job: its output plus the simulator counters recorded
/// while it ran (including nested jobs).
#[derive(Debug)]
pub struct JobRun<R> {
    /// The job's return value.
    pub output: R,
    /// Sum of every [`SimStats`] recorded via [`record_sim_stats`]
    /// during the job.
    pub stats: SimStats,
    /// Wall-clock time the job spent running (measurement only — never
    /// feeds back into any simulation, which stays seed-pure).
    pub wall: std::time::Duration,
}

/// Process peak resident set size in kB, from `VmHWM` in
/// `/proc/self/status`. Returns 0 on platforms without procfs.
/// Measurement only — never feeds back into any simulation.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(s) = std::fs::read_to_string("/proc/self/status") {
            for line in s.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
                    return digits.parse().unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Credit a finished simulator's counters to the current job. The run
/// helpers in `runs.rs` call this after each `sim.run()`; the runner
/// attributes the counters to whichever job is executing on this
/// thread.
pub fn record_sim_stats(stats: &SimStats) {
    SIM_STATS.with(|s| {
        let mut cur = s.get();
        cur.merge(stats);
        s.set(cur);
    });
}

/// Run `f` against a fresh per-job accumulator, returning its output
/// and the counters it recorded. The job's counters are re-credited to
/// the enclosing scope so nested jobs roll up.
fn with_fresh_stats<R>(f: impl FnOnce() -> R) -> (R, SimStats) {
    let saved = SIM_STATS.with(|s| s.replace(SimStats::default()));
    let out = f();
    let job = SIM_STATS.with(|s| s.replace(saved));
    record_sim_stats(&job);
    (out, job)
}

/// Run jobs with [`effective_jobs`] workers; outputs in spec order.
pub fn run_jobs<J: Job>(specs: Vec<J>) -> Vec<J::Output> {
    run_jobs_with(specs, effective_jobs())
}

/// Run jobs with an explicit worker count; outputs in spec order.
fn run_jobs_with<J: Job>(specs: Vec<J>, workers: usize) -> Vec<J::Output> {
    run_jobs_detailed_with(specs, workers)
        .into_iter()
        .map(|r| r.output)
        .collect()
}

/// Like [`run_jobs`], but surfacing per-job [`SimStats`].
pub fn run_jobs_detailed<J: Job>(specs: Vec<J>) -> Vec<JobRun<J::Output>> {
    run_jobs_detailed_with(specs, effective_jobs())
}

/// The engine. Jobs are pulled from a shared queue by `workers` scoped
/// threads; each result lands in the slot of its spec index, so the
/// returned order (and therefore any rendered output) is independent of
/// scheduling. `workers <= 1`, a single spec, or a call from inside a
/// worker all run inline on the current thread with no thread spawned.
pub fn run_jobs_detailed_with<J: Job>(specs: Vec<J>, workers: usize) -> Vec<JobRun<J::Output>> {
    let inline = workers <= 1 || specs.len() <= 1 || IN_WORKER.with(|f| f.get());
    if inline {
        return specs
            .into_iter()
            .map(|job| {
                let started = std::time::Instant::now();
                let (output, stats) = with_fresh_stats(|| job.run());
                JobRun {
                    output,
                    stats,
                    wall: started.elapsed(),
                }
            })
            .collect();
    }

    let total = specs.len();
    let workers = workers.min(total);
    let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(specs.into_iter().enumerate().collect());
    let mut slots: Vec<Option<JobRun<J::Output>>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let results = Mutex::new(slots);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|f| f.set(true));
                loop {
                    let next = queue.lock().expect("runner: queue poisoned").pop_front();
                    let Some((idx, job)) = next else { break };
                    let started = std::time::Instant::now();
                    let (output, stats) = with_fresh_stats(|| job.run());
                    results.lock().expect("runner: results poisoned")[idx] = Some(JobRun {
                        output,
                        stats,
                        wall: started.elapsed(),
                    });
                }
            });
        }
    });

    let runs: Vec<JobRun<J::Output>> = results
        .into_inner()
        .expect("runner: results poisoned")
        .into_iter()
        .map(|r| r.expect("runner: job left no result"))
        .collect();
    // Workers accumulated into their own thread-locals; credit the
    // caller's scope so enclosing jobs still roll up.
    for r in &runs {
        record_sim_stats(&r.stats);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_spec_order_regardless_of_workers() {
        let mk = |n: usize| (0..n).map(|i| move || i * i).collect::<Vec<_>>();
        let seq = run_jobs_with(mk(17), 1);
        for workers in [2, 3, 8, 32] {
            assert_eq!(run_jobs_with(mk(17), workers), seq);
        }
    }

    #[test]
    fn stats_roll_up_across_nested_jobs() {
        let one = SimStats {
            events: 1,
            ..SimStats::default()
        };
        let runs = run_jobs_detailed_with(
            (0..4)
                .map(|_| {
                    move || {
                        // Nested call: runs inline inside a worker.
                        let inner = run_jobs_detailed_with(
                            (0..3)
                                .map(|_| move || record_sim_stats(&one))
                                .collect::<Vec<_>>(),
                            4,
                        );
                        assert_eq!(inner.iter().map(|r| r.stats.events).sum::<u64>(), 3);
                    }
                })
                .collect::<Vec<_>>(),
            2,
        );
        // Each outer job is credited its 3 nested events.
        assert_eq!(runs.iter().map(|r| r.stats.events).sum::<u64>(), 12);
    }

    #[test]
    fn panicking_job_propagates_without_deadlock() {
        // A job's panic must reach the caller instead of hanging the
        // pool; the watchdog turns a hang into a failure. With two
        // workers `std::thread::scope` re-raises with its own message,
        // so only propagation is asserted, not the payload.
        for workers in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let jobs: Vec<_> = (0..4)
                    .map(|i| {
                        move || {
                            if i == 1 {
                                panic!("job exploded");
                            }
                        }
                    })
                    .collect();
                let caught = std::panic::catch_unwind(|| run_jobs_with(jobs, workers));
                tx.send(caught.is_err()).expect("watchdog gone");
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("run_jobs_with hung at {workers} workers"));
            assert!(panicked, "panic swallowed at {workers} workers");
        }
    }

    #[test]
    fn take_jobs_arg_forms() {
        let take = |v: &[&str]| {
            let mut args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            take_jobs_arg(&mut args).map(|n| (n, args))
        };
        let rest = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            take(&["--jobs", "4", "--paper"]),
            Ok((Some(4), rest(&["--paper"])))
        );
        assert_eq!(
            take(&["--stats", "--jobs=2"]),
            Ok((Some(2), rest(&["--stats"])))
        );
        assert_eq!(take(&["--paper"]), Ok((None, rest(&["--paper"]))));
        for bad in [
            &["--jobs", "0"][..],
            &["--jobs=x"],
            &["--jobs=-1"],
            &["--jobs"],
        ] {
            assert!(take(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn jobs_values_are_positive_integers() {
        assert_eq!(parse_jobs("GFWSIM_JOBS", "3"), Ok(3));
        for bad in ["0", "x", "-1", "", " 2", "2.0"] {
            assert_eq!(
                parse_jobs("GFWSIM_JOBS", bad),
                Err(format!("GFWSIM_JOBS wants a positive integer, got `{bad}`")),
            );
        }
        // A given `--jobs` wins without the environment being read.
        assert_eq!(requested_jobs(Some(5)), Ok(Some(5)));
    }
}
