//! Clippy parity: the toolchain now enforces the bans gfw-lint once
//! scanned for by token or by call graph. The root `clippy.toml` bans
//! the host clock, threads outside `experiments::runner`, `BinaryHeap`
//! outside `netsim::eventq` and the hash-ordered `HashMap`/`HashSet`
//! methods; `[workspace.lints]` flags `for` loops over hash containers,
//! forbids `unsafe_code`, warns on `missing_docs`, asks every `#[allow]`
//! for a reason, every `unsafe` block for a `// SAFETY:` comment and
//! every `unsafe fn` for a `# Safety` section (private ones too, by
//! `clippy.toml`'s `check-private-items`); H1 makes every member
//! inherit those lints.
//! The protocol crates warn on `unwrap`, `expect`, `panic!` and
//! `unreachable!` by crate attribute, and `clippy.toml`'s
//! `allow-*-in-tests` keys exempt test code from the first three.
//!
//! Each test runs clippy with the repository's real `clippy.toml` on a
//! small compilable fixture and pins every diagnostic by `file:line` and
//! lint name, so deleting a `clippy.toml` entry, a workspace lint or a
//! crate's panic-lint attribute fails here. Clippy builds into
//! `target/clippy-parity`, which keeps the main build cache untouched.

use gfw_lint::{run, Options};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repository root")
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The text between `start` and the next `end` in `line`.
fn between<'a>(line: &'a str, start: &str, end: &str) -> Option<&'a str> {
    let from = line.find(start)? + start.len();
    let len = line[from..].find(end)?;
    Some(&line[from..from + len])
}

/// Run clippy on every target of one fixture workspace, as ci.sh does
/// on the real one, and return its diagnostics as sorted, deduplicated
/// `(file:line, lint)` pairs (a lib's test build repeats its lib
/// build's diagnostics).
fn clippy(fixture: &str) -> Vec<(String, String)> {
    let root = repo_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--all-targets"])
        .arg("--message-format=json-diagnostic-short")
        .current_dir(fixture_root(fixture))
        .env("CLIPPY_CONF_DIR", &root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-parity"))
        .output()
        .expect("failed to start cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut found: Vec<(String, String)> = stdout
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-message\""))
        .filter_map(|l| {
            let lint = between(l, "\"code\":{\"code\":\"", "\"")?;
            let mut at = between(l, "\"rendered\":\"", ": ")?.split(':');
            let site = format!("{}:{}", at.next()?, at.next()?);
            Some((site, lint.to_string()))
        })
        .collect();
    assert!(
        !found.is_empty() || out.status.success(),
        "clippy failed without diagnostics:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    found.sort();
    found.dedup();
    found
}

fn assert_clippy(fixture: &str, expected: &[(&str, &str)]) {
    let mut want: Vec<(String, String)> = expected
        .iter()
        .map(|&(site, lint)| (site.to_string(), lint.to_string()))
        .collect();
    want.sort();
    assert_eq!(clippy(fixture), want, "fixture `{fixture}`");
}

#[test]
fn clock_calls_in_a_sim_crate() {
    assert_clippy(
        "d1_thread_rng",
        &[
            (
                "crates/core/src/scheduler.rs:8",
                "clippy::disallowed_methods",
            ),
            (
                "crates/core/src/scheduler.rs:14",
                "clippy::disallowed_methods",
            ),
        ],
    );
}

#[test]
fn clock_helper_outside_the_sim_crates() {
    // The waived `Instant::now` at line 15 carries an `#[expect]`; were
    // its ban dropped, the unfulfilled expectation would show up here.
    assert_clippy(
        "r1_clock",
        &[("crates/sscrypto/src/lib.rs:8", "clippy::disallowed_methods")],
    );
}

#[test]
fn threads_outside_the_runner() {
    // `runner.rs` uses `thread::scope` under a file-level `#[expect]`,
    // and `thread::current()` is not banned.
    assert_clippy(
        "t1_thread_use",
        &[
            ("crates/netsim/src/pool.rs:8", "clippy::disallowed_methods"),
            ("crates/netsim/src/pool.rs:11", "clippy::disallowed_methods"),
            ("crates/netsim/src/pool.rs:27", "clippy::disallowed_methods"),
            ("crates/netsim/src/pool.rs:28", "clippy::disallowed_methods"),
            ("crates/netsim/src/pool.rs:31", "clippy::disallowed_methods"),
        ],
    );
}

#[test]
fn heaps_outside_the_event_queue() {
    // `eventq.rs` and the waived helper hold their heaps under `#[expect]`.
    assert_clippy(
        "t2_heap_use",
        &[
            ("crates/netsim/src/sched.rs:4", "clippy::disallowed_types"),
            ("crates/netsim/src/sched.rs:9", "clippy::disallowed_types"),
        ],
    );
}

#[test]
fn hash_order_in_every_crate() {
    let fixture = "hash_order";
    assert_eq!(
        workspace_lints(&fixture_root(fixture).join("Cargo.toml")),
        workspace_lints(&repo_root().join("Cargo.toml")),
        "the fixture must carry the root's workspace lints verbatim"
    );
    // `for` over a std map and over the path-qualified `netsim::hash`
    // alias, and `.keys()` in a helper the simulator reaches in another
    // crate. The order-neutral `.values().sum()` is flagged too: the
    // bans do not know what the caller does with the order. The waived
    // `.keys()` in `sscrypto::trace_keys` (line 13) carries an
    // `#[expect]`; were its ban dropped, the unfulfilled expectation
    // would show up here.
    //
    // Not flagged, and so not enforced: a map consumed through
    // `IntoIterator` outside a `for` loop. `flows.into_iter()` (line 33)
    // and `peers.extend(&self.peers)` (line 36) both leak hash order.
    assert_clippy(
        fixture,
        &[
            ("crates/core/src/lib.rs:19", "clippy::disallowed_methods"),
            ("crates/core/src/lib.rs:20", "clippy::iter_over_hash_type"),
            ("crates/core/src/lib.rs:23", "clippy::iter_over_hash_type"),
            ("crates/sscrypto/src/lib.rs:7", "clippy::disallowed_methods"),
        ],
    );
}

/// The `[workspace.lints.*]` entries of a manifest, one
/// `[table] key = value` string each.
fn workspace_lints(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    let mut table = "";
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
        } else if table.starts_with("[workspace.lints")
            && !line.is_empty()
            && !line.starts_with('#')
        {
            out.push(format!("{table} {line}"));
        }
    }
    out
}

#[test]
fn workspace_lints_reach_every_member() {
    let fixture = "d2_missing_attrs";
    let lints = workspace_lints(&repo_root().join("Cargo.toml"));
    assert!(!lints.is_empty(), "root has no [workspace.lints]");
    assert_eq!(
        workspace_lints(&fixture_root(fixture).join("Cargo.toml")),
        lints,
        "the fixture must carry the root's workspace lints verbatim"
    );
    // The member that inherits them gets one diagnostic per lint ...
    assert_clippy(
        fixture,
        &[
            ("crates/withlints/src/lib.rs:6", "missing_docs"),
            (
                "crates/withlints/src/lib.rs:8",
                "clippy::allow_attributes_without_reason",
            ),
            ("crates/withlints/src/lib.rs:14", "unsafe_code"),
        ],
    );
    // ... and the member that skips them is an H1 finding.
    let report = run(&Options {
        root: fixture_root(fixture),
    })
    .expect("lint run failed");
    let spans: Vec<(&str, &str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(spans, vec![("H1", "crates/noattrs/Cargo.toml", 0)]);
}

#[test]
fn unsafe_islands_document_every_site() {
    let fixture = "safety_docs";
    assert_eq!(
        workspace_lints(&fixture_root(fixture).join("Cargo.toml")),
        workspace_lints(&repo_root().join("Cargo.toml")),
        "the fixture must carry the root's workspace lints verbatim"
    );
    // The private `unsafe fn` without a `# Safety` section, and the
    // `unsafe` block without a `// SAFETY:` comment; the documented fn
    // and the commented blocks pass.
    assert_clippy(
        fixture,
        &[
            ("crates/island/src/lib.rs:16", "clippy::missing_safety_doc"),
            (
                "crates/island/src/lib.rs:24",
                "clippy::undocumented_unsafe_blocks",
            ),
        ],
    );
    // Its own lint tables repeat the workspace's with `unsafe_code`
    // relaxed to `deny`, which H1 accepts.
    let report = run(&Options {
        root: fixture_root(fixture),
    })
    .expect("lint run failed");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

/// The `#![warn(...)]` attribute that opens `lib.rs`, as written.
fn warn_attribute(lib: &Path) -> String {
    let text = std::fs::read_to_string(lib).expect("lib.rs");
    let start = text.find("#![warn(").expect("a `#![warn(` attribute");
    let len = text[start..].find(")]").expect("a closed attribute") + 2;
    text[start..start + len].to_string()
}

#[test]
fn panic_sites_outside_tests() {
    let fixture = "panic_sites";
    let attribute = warn_attribute(&fixture_root(fixture).join("crates/proto/src/lib.rs"));
    for krate in ["core", "netsim", "shadowsocks", "sscrypto", "trafficgen"] {
        let lib = repo_root().join("crates").join(krate).join("src/lib.rs");
        assert_eq!(
            warn_attribute(&lib),
            attribute,
            "crates/{krate} must carry the fixture's panic lints verbatim"
        );
    }
    // One site per lint in `port`. The same `unwrap`, `expect` and
    // `panic!` in the `#[cfg(test)]` module and the `#[test]` fn pass
    // by `clippy.toml`'s `allow-*-in-tests` keys.
    // Clippy has no such key for `unreachable!`, so test code that
    // needs one writes `panic!` instead.
    assert_clippy(
        fixture,
        &[
            ("crates/proto/src/lib.rs:12", "clippy::unwrap_used"),
            ("crates/proto/src/lib.rs:13", "clippy::expect_used"),
            ("crates/proto/src/lib.rs:15", "clippy::panic"),
            ("crates/proto/src/lib.rs:18", "clippy::unreachable"),
            ("crates/proto/src/lib.rs:32", "clippy::unreachable"),
            ("crates/proto/src/lib.rs:51", "clippy::unreachable"),
        ],
    );
}
