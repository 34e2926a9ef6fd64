//! The determinism matrix: every experiment's stdout is a pure function
//! of (scale, seed). Worker count, simulator engine and hardware crypto
//! dispatch change how fast it is produced, never which bytes.
//!
//! Every spawn goes through [`spawn`], which clears each `GFWSIM_*`
//! variable before setting the case's own, and every comparison goes
//! through [`assert_same`], which prints the first differing line with
//! its context. The goldens live in `tests/golden/`:
//!
//! * `exp-all.txt` is the whole `exp-all --jobs 2` stdout at quick
//!   scale, so no experiment's output can move without a diff here;
//! * `exp-fig7.txt`, `exp-table4.txt`, `exp-fig10.txt` and
//!   `exp-baserate.txt` are a banner line, a blank line and that id's
//!   section of `exp-all.txt` (`gfwsim-bench` reads them with
//!   `include_str!`).
//!
//! The expectations are the committed goldens, never re-blessed by a
//! matrix row. When a change in output is intended, re-bless:
//!
//! ```text
//! GFWSIM_BLESS=1 cargo test -p experiments --test determinism
//! ```
//!
//! which rewrites `exp-all.txt` and the per-id bodies (banners kept),
//! and review the snapshot diff like any other code change.

use experiments::figures::REGISTRY;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

const EXP_ALL: &str = env!("CARGO_BIN_EXE_exp-all");
const EXP_SCALE: &str = env!("CARGO_BIN_EXE_exp-scale");

/// What each matrix row runs, in registry order (the order `exp-all`
/// prints): a single-sim figure (fig2), the probe-heaviest run (fig7),
/// a multi-sim sweep (table4), the pure-engine grid (fig10), the lossy
/// grid whose loss-0 section is fig10's (impair) and the mix the hybrid
/// engine rewrites most (baserate).
const MATRIX_IDS: &str = "fig2,fig7,table4,fig10,impair,baserate";

/// The per-id golden files, by registry id.
const PER_ID: &[(&str, &str)] = &[
    ("fig7", "exp-fig7.txt"),
    ("table4", "exp-table4.txt"),
    ("fig10", "exp-fig10.txt"),
    ("baserate", "exp-baserate.txt"),
];

/// Lines of context [`assert_same`] prints around a difference.
const CONTEXT: usize = 3;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn read(file: &str) -> String {
    let path = golden_path(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()))
}

fn write(file: &str, text: &str) {
    let path = golden_path(file);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
}

/// Run `bin` with `args`, every `GFWSIM_*` variable of this process
/// cleared and then `env` set.
fn spawn(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GFWSIM_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(env.iter().copied());
    cmd.output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// [`spawn`], asserting success; its stdout.
fn stdout_of(bin: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let out = spawn(bin, args, env);
    assert!(
        out.status.success(),
        "{bin} {args:?} {env:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Panic unless `got == want`, showing the first differing line and
/// [`CONTEXT`] lines around it from both sides.
fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    // Equal lines but unequal text differ in their trailing newlines,
    // which `lines` drops: point past the last line.
    let at = g
        .iter()
        .zip(&w)
        .position(|(a, b)| a != b)
        .unwrap_or(g.len().min(w.len()));
    let show = |lines: &[&str]| {
        let from = at.saturating_sub(CONTEXT);
        let to = (at + CONTEXT + 1).min(lines.len());
        let mut shown: Vec<String> = (from..to)
            .map(|i| {
                let mark = if i == at { '>' } else { ' ' };
                format!("{mark}{:>5} {}", i + 1, lines[i])
            })
            .collect();
        if at >= lines.len() {
            shown.push(format!(">{:>5} <eof>", at + 1));
        }
        shown.join("\n")
    };
    panic!(
        "{what}: first difference at line {}\n--- got ---\n{}\n--- want ---\n{}",
        at + 1,
        show(&g),
        show(&w),
    );
}

/// Split `exp-all` stdout into `(registry id, section)` pairs, in
/// registry order. A section is the text after its `== title ==` line,
/// up to the next header.
fn sections(text: &str) -> Vec<(&'static str, &str)> {
    let mut heads: Vec<(&'static str, usize, usize)> = Vec::new();
    let mut from = 0;
    for entry in REGISTRY {
        let header = format!("\n== {} ==\n", entry.title);
        if let Some(at) = text[from..].find(&header) {
            let start = from + at;
            heads.push((entry.id, start + 1, start + header.len()));
            from = start + header.len();
        }
    }
    heads
        .iter()
        .enumerate()
        .map(|(i, &(id, _, body))| {
            let end = heads.get(i + 1).map_or(text.len(), |&(_, head, _)| head);
            (id, &text[body..end])
        })
        .collect()
}

/// The section of `id` in `exp-all` stdout.
fn section<'a>(text: &'a str, id: &str) -> &'a str {
    sections(text)
        .into_iter()
        .find_map(|(i, s)| (i == id).then_some(s))
        .unwrap_or_else(|| panic!("no `{id}` section"))
}

/// The `exp-all.txt` golden. Under `GFWSIM_BLESS` it is first
/// regenerated from `exp-all --jobs 2`, with the per-id bodies, once
/// per test process, so every case compares against the new bytes.
fn golden() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        if std::env::var_os("GFWSIM_BLESS").is_some() {
            let all = stdout_of(EXP_ALL, &["--jobs", "2"], &[]);
            write("exp-all.txt", &all);
            for &(id, file) in PER_ID {
                let old = read(file);
                let (banner, _) = old.split_once("\n\n").expect("banner line");
                write(file, &format!("{banner}\n\n{}", section(&all, id)));
            }
        }
        read("exp-all.txt")
    })
}

/// The whole registry at `--jobs 2`, byte for byte.
#[test]
fn exp_all_matches_golden() {
    let got = stdout_of(EXP_ALL, &["--jobs", "2"], &[]);
    assert_same("exp-all --jobs 2 vs exp-all.txt", &got, golden());
}

/// Each per-id file is its banner over its `exp-all.txt` section.
#[test]
fn per_id_goldens_are_sections_of_exp_all() {
    let all = golden();
    for &(id, file) in PER_ID {
        let text = read(file);
        let (_, body) = text.split_once("\n\n").expect("banner line");
        assert_same(&format!("{file} vs exp-all.txt"), body, section(all, id));
    }
}

/// Run [`MATRIX_IDS`] at `jobs` workers under `env`: every section
/// must equal its `exp-all.txt` section, and impair's loss-0 grid must
/// equal the fig10 section of the same output.
fn check_row(jobs: &str, env: &[(&str, &str)]) {
    let out = stdout_of(EXP_ALL, &["--only", MATRIX_IDS, "--jobs", jobs], env);
    let row = format!("--jobs {jobs} {env:?}");
    let got = sections(&out);
    let ids: Vec<&str> = got.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids.join(","), MATRIX_IDS, "{row}: sections");
    for (id, text) in got {
        assert_same(&format!("{id} ({row})"), text, section(golden(), id));
    }

    let impair = section(&out, "impair");
    let start_marker = "--- loss 0% ---\n\n";
    let start = impair.find(start_marker).expect("loss 0% section") + start_marker.len();
    let end = impair
        .find("\n--- loss 0.1% ---")
        .expect("loss 0.1% section");
    assert_same(
        &format!("impair loss-0 grid vs fig10 ({row})"),
        impair[start..end].trim_end_matches('\n'),
        section(&out, "fig10").trim_end_matches('\n'),
    );
}

/// One test per row over three axes: `--jobs` (1/4), `GFWSIM_ENGINE`
/// (packet/unset, i.e. hybrid) and `GFWSIM_NO_HWCRYPTO` (unset/1). The
/// four rows are a pairwise cover: every value of each axis meets every
/// value of the other two; the full 2×2×2 product would double the
/// spawns for no pair it does not already cover. On a machine without
/// the CPU features both hardware legs run scalar.
macro_rules! matrix {
    ($($name:ident: $jobs:literal, [$($env:expr),*];)*) => {
        $(
            #[test]
            fn $name() {
                check_row($jobs, &[$($env),*]);
            }
        )*
    };
}

const PACKET: (&str, &str) = ("GFWSIM_ENGINE", "packet");
const NO_HW: (&str, &str) = ("GFWSIM_NO_HWCRYPTO", "1");

matrix! {
    matrix_jobs1_packet_hw: "1", [PACKET];
    matrix_jobs1_hybrid_nohw: "1", [NO_HW];
    matrix_jobs4_packet_nohw: "4", [PACKET, NO_HW];
    matrix_jobs4_hybrid_hw: "4", [];
}

#[test]
fn unknown_only_id_is_rejected() {
    let out = spawn(EXP_ALL, &["--only", "fig99"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown experiment id `fig99`"),
        "stderr: {err}"
    );
}

#[test]
fn misspelled_flag_is_rejected() {
    let out = spawn(EXP_ALL, &["--pape"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran anyway");
}

#[test]
fn malformed_jobs_env_is_rejected() {
    let out = spawn(EXP_ALL, &["--only", "table1"], &[("GFWSIM_JOBS", "x")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran anyway");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("GFWSIM_JOBS wants a positive integer, got `x`"),
        "stderr: {err}"
    );
}

fn scale_quick_stdout(engine: &str, jobs: &str) -> String {
    stdout_of(
        EXP_SCALE,
        &["--quick"],
        &[("GFWSIM_ENGINE", engine), ("GFWSIM_JOBS", jobs)],
    )
}

/// `exp-scale --quick`'s cells are runner jobs: the worker count must
/// not reach its seed-pure stdout, under either engine. And the two
/// engines must print different event counts over the same workload,
/// so the invariance cannot pass vacuously (e.g. the binary ignoring
/// the env entirely).
#[test]
fn scale_quick_is_jobs_invariant_and_engine_sensitive() {
    let [packet, hybrid] = ["packet", "hybrid"].map(|engine| {
        let sequential = scale_quick_stdout(engine, "1");
        assert!(!sequential.is_empty(), "no output ({engine})");
        assert_same(
            &format!("exp-scale --quick jobs 4 vs 1 ({engine})"),
            &scale_quick_stdout(engine, "4"),
            &sequential,
        );
        sequential
    });
    assert_ne!(
        packet, hybrid,
        "packet and hybrid engines printed identical counters"
    );
}
