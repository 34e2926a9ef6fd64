//! Golden-output tests: the rendered reports of representative
//! experiments are pinned byte-for-byte under `tests/golden/`.
//!
//! The determinism contract makes this cheap to maintain: output
//! depends only on (scale, seed), never on worker count or wall clock,
//! so a diff here means the experiment's behaviour actually changed.
//! When a change is intentional, re-bless the snapshots:
//!
//! ```text
//! GFWSIM_BLESS=1 cargo test -p experiments --test golden
//! ```
//!
//! and review the snapshot diff like any other code change.

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check(bin: &str, name: &str) {
    let out = Command::new(bin)
        .args(["--jobs", "2"])
        .env_remove("GFWSIM_JOBS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let path = golden_path(name);

    if std::env::var_os("GFWSIM_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }

    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GFWSIM_BLESS=1 to create it",
            path.display()
        )
    });
    if got != want {
        // Point at the first diverging line so the failure is readable
        // without an external diff tool.
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| i + 1)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()) + 1);
        panic!(
            "{name} output diverged from {} at line {line}\n\
             (re-bless with GFWSIM_BLESS=1 if the change is intended)\n\
             --- got line {line} ---\n{}\n--- want line {line} ---\n{}",
            path.display(),
            got.lines().nth(line - 1).unwrap_or("<eof>"),
            want.lines().nth(line - 1).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn exp_fig10_matches_golden() {
    check(env!("CARGO_BIN_EXE_exp-fig10"), "exp-fig10");
}

#[test]
fn exp_table4_matches_golden() {
    check(env!("CARGO_BIN_EXE_exp-table4"), "exp-table4");
}

#[test]
fn exp_fig7_matches_golden() {
    check(env!("CARGO_BIN_EXE_exp-fig7"), "exp-fig7");
}

#[test]
fn exp_baserate_matches_golden() {
    check(env!("CARGO_BIN_EXE_exp-baserate"), "exp-baserate");
}

/// The whole quick-scale registry in one snapshot: every experiment's
/// report, in registry order, so no experiment's output can move
/// without a diff here.
#[test]
fn exp_all_matches_golden() {
    check(env!("CARGO_BIN_EXE_exp-all"), "exp-all");
}
