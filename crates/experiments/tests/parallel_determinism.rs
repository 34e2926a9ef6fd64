//! The run engine's core guarantee: worker count never changes output.
//!
//! Spawns the real `exp-all` binary (process isolation keeps the global
//! jobs override of each run independent) on a representative subset —
//! a pure-engine grid (fig10), a multi-sim sweep (table4), and a
//! single-sim figure (fig2) — and asserts byte-identical stdout for
//! `--jobs 1` versus `--jobs 4`. The same holds for `exp-scale --quick`,
//! whose independent cells run as runner jobs, under both engines.

use std::process::Command;

fn exp_all_stdout(jobs: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_exp-all"))
        .args(["--only", "fig2,fig10,table4", "--jobs", jobs])
        .env_remove("GFWSIM_JOBS")
        .output()
        .expect("spawn exp-all");
    assert!(
        out.status.success(),
        "exp-all --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn output_is_byte_identical_across_worker_counts() {
    let sequential = exp_all_stdout("1");
    let parallel = exp_all_stdout("4");
    assert!(
        !sequential.is_empty(),
        "exp-all produced no output at --jobs 1"
    );
    assert_eq!(
        sequential,
        parallel,
        "exp-all output differs between --jobs 1 and --jobs 4:\n--- jobs=1 ---\n{}\n--- jobs=4 ---\n{}",
        String::from_utf8_lossy(&sequential),
        String::from_utf8_lossy(&parallel)
    );
}

#[test]
fn unknown_only_id_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp-all"))
        .args(["--only", "fig99"])
        .output()
        .expect("spawn exp-all");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown experiment id `fig99`"),
        "stderr: {err}"
    );
}

fn scale_quick_stdout(engine: &str, jobs: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_exp-scale"))
        .args(["--quick", "--flows", "2000"])
        .env("GFWSIM_ENGINE", engine)
        .env("GFWSIM_JOBS", jobs)
        .output()
        .expect("spawn exp-scale");
    assert!(
        out.status.success(),
        "exp-scale --quick (engine={engine} jobs={jobs}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn scale_cells_are_byte_identical_across_worker_counts() {
    for engine in ["packet", "hybrid"] {
        let sequential = scale_quick_stdout(engine, "1");
        let parallel = scale_quick_stdout(engine, "4");
        assert!(
            !sequential.is_empty(),
            "exp-scale --quick produced no output ({engine})"
        );
        assert_eq!(
            sequential,
            parallel,
            "exp-scale --quick differs between jobs 1 and 4 (engine={engine}):\n\
             --- jobs=1 ---\n{}\n--- jobs=4 ---\n{}",
            String::from_utf8_lossy(&sequential),
            String::from_utf8_lossy(&parallel)
        );
    }
}

#[test]
fn engines_are_distinguishable_in_scale_quick_output() {
    // Guard against the invariance test passing vacuously (e.g. the
    // binary ignoring the env entirely): the two engines must produce
    // different event counts over the same workload.
    let packet = scale_quick_stdout("packet", "1");
    let hybrid = scale_quick_stdout("hybrid", "1");
    assert_ne!(
        packet, hybrid,
        "packet and hybrid engines printed identical counters"
    );
}
