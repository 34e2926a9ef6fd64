//! End-to-end rule tests against the fixture workspaces under
//! `tests/fixtures/`, asserting exact rule IDs and `file:line` spans.

use gfw_lint::report::{render_human, render_json};
use gfw_lint::{bless, run, Options, Report};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Report {
    run(&Options {
        root: fixture_root(name),
    })
    .expect("lint run failed")
}

/// `(rule, file, line)` triples in report order.
fn spans(report: &Report) -> Vec<(&str, &str, usize)> {
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect()
}

/// Recursively copy a fixture into a scratch dir so `--bless` can
/// mutate it.
fn copy_to_temp(name: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("gfwlint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_tree(&fixture_root(name), &dst).expect("fixture copy failed");
    dst
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

#[test]
fn clean_fixture_is_clean() {
    let report = lint_fixture("clean");
    assert!(
        report.is_clean(),
        "expected clean, got:\n{}",
        render_human(&report)
    );
    // The one W1 escape in sscrypto/src/lib.rs is honored and reported
    // at the line it waives.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "W1");
    assert_eq!(report.allows[0].file, "crates/sscrypto/src/lib.rs");
    assert_eq!(report.allows[0].line, 14);
    // Alloc counts cover both hot-path areas, allocation-free here.
    assert_eq!(report.alloc_counts.get("sscrypto"), Some(&0));
    assert_eq!(report.alloc_counts.get("shadowsocks-wire"), Some(&0));
}

#[test]
fn a1_flags_alloc_count_over_budget() {
    // ISSUE acceptance: the crypto hot path exceeding its allocation
    // budget must fail the lint; escapes and test code do not count.
    let report = lint_fixture("a1_over_budget");
    assert_eq!(
        spans(&report),
        vec![("A1", "crates/sscrypto/src/lib.rs", 1)],
        "got:\n{}",
        render_human(&report)
    );
    let msg = &report.findings[0].message;
    assert!(msg.contains("2 heap-allocation sites"), "message: {msg}");
    assert!(msg.contains("budget of 1"), "message: {msg}");
    // The wire area's one allocation is within its budget of 1.
    assert_eq!(report.alloc_counts.get("shadowsocks-wire"), Some(&1));
    assert_eq!(report.alloc_counts.get("sscrypto"), Some(&2));
    // The waived diagnostic copy's escape is honored, not counted.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "A1");
    assert_eq!(report.allows[0].file, "crates/sscrypto/src/lib.rs");
    assert_eq!(report.allows[0].line, 15);
}

#[test]
fn h1_flags_versioned_and_path_deps() {
    let report = lint_fixture("h1_version_dep");
    assert_eq!(
        spans(&report),
        vec![
            ("H1", "crates/app/Cargo.toml", 7),
            ("H1", "crates/app/Cargo.toml", 8),
            ("H1", "crates/drifted/Cargo.toml", 7),
            ("H1", "crates/nolints/Cargo.toml", 0),
        ]
    );
    assert!(report.findings[0].message.contains("`rand`"));
    assert!(report.findings[1].message.contains("`bytes`"));
    // Own lint tables pass only as the workspace's with `unsafe_code`
    // relaxed to `deny` (`island`); `drifted` drops a lint.
    assert!(report.findings[2]
        .message
        .contains("relaxing only `unsafe_code`"));
    // A member that does not inherit the workspace lints is a finding.
    assert!(report.findings[3]
        .message
        .contains("no `[lints] workspace = true`"));
}

#[test]
fn bless_refuses_to_raise_budgets() {
    let root = copy_to_temp("a1_over_budget");
    let err = bless(&root).expect_err("bless should refuse to raise a budget");
    assert!(err.contains("alloc sscrypto: 2 > 1"), "error: {err}");
    // The refusal must not touch the checked-in baseline.
    let text = std::fs::read_to_string(root.join("lint-baseline.toml")).unwrap();
    assert!(text.contains("sscrypto = 1"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bless_creates_missing_baseline() {
    let root = copy_to_temp("clean");
    std::fs::remove_file(root.join("lint-baseline.toml")).unwrap();
    let before = run(&Options { root: root.clone() }).unwrap();
    assert_eq!(spans(&before), vec![("A1", "lint-baseline.toml", 0)]);
    let summary = bless(&root).expect("bless failed");
    assert!(summary.contains("alloc sscrypto = 0"), "summary: {summary}");
    let after = run(&Options { root: root.clone() }).unwrap();
    assert!(after.is_clean(), "after bless:\n{}", render_human(&after));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn json_output_carries_rules_spans_and_clean_flag() {
    let report = lint_fixture("h1_version_dep");
    let json = render_json(&report);
    assert!(json.contains("\"rule\": \"H1\""));
    assert!(json.contains("\"file\": \"crates/app/Cargo.toml\""));
    assert!(json.contains("\"line\": 7"));
    assert!(json.contains("\"clean\": false"));
    let clean = render_json(&lint_fixture("clean"));
    assert!(clean.contains("\"clean\": true"));
    assert!(
        clean.contains("\"rule\": \"W1\""),
        "allows carry their rule"
    );
}

#[test]
fn real_workspace_is_clean() {
    // The repository itself must pass its own linter: this is the same
    // invariant ci.sh enforces.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&Options { root }).expect("lint run failed");
    assert!(
        report.is_clean(),
        "repository lint findings:\n{}",
        render_human(&report)
    );
}

#[test]
fn w1_flags_bare_ops_on_boundary_crossing_integer_state() {
    let report = lint_fixture("w1_overflow");
    assert_eq!(
        spans(&report),
        vec![
            ("W1", "crates/sscrypto/src/stream.rs", 14),
            ("W1", "crates/sscrypto/src/stream.rs", 15),
        ],
        "got:\n{}",
        render_human(&report)
    );
    let field = &report.findings[0].message;
    assert!(
        field.contains("`+=` on hot-path integer state `self.used` (u64)"),
        "message: {field}"
    );
    assert!(field.contains("wrapping_add"), "message: {field}");
    let param = &report.findings[1].message;
    assert!(
        param.contains("`*` on hot-path integer state `n` (u64)"),
        "message: {param}"
    );
    assert!(param.contains("wrapping_mul"), "message: {param}");
    // `wrapping_add` lines, f64 math and #[cfg(test)] code are not
    // flagged; the bounded-shift waiver is honored.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "W1");
    assert_eq!(report.allows[0].line, 19);
}

#[test]
fn cfg_test_regions_are_exact_for_nested_and_conjunctive_forms() {
    // Regression: allocation sites inside a module nested under
    // `#[cfg(test)]`, after that nested module closes, and under
    // `#[cfg(all(test, ...))]` must all stay out of the A1 count.
    let report = lint_fixture("cfg_forms");
    assert!(
        report.is_clean(),
        "expected clean, got:\n{}",
        render_human(&report)
    );
    assert_eq!(report.alloc_counts.get("sscrypto"), Some(&1));
}

#[test]
fn json_schema_keys_are_stable_and_ordered() {
    // The `--json` shape is consumed by CI tooling: the top-level key
    // set and order are a compatibility contract.
    let expected = [
        "\"findings\"",
        "\"allows\"",
        "\"alloc_counts\"",
        "\"alloc_sites\"",
        "\"files_scanned\"",
        "\"clean\"",
    ];
    for fixture in ["clean", "h1_version_dep", "w1_overflow"] {
        let json = render_json(&lint_fixture(fixture));
        for gone in ["\"panic_counts\"", "\"panic_sites\""] {
            assert!(!json.contains(gone), "{fixture}: stale key {gone}");
        }
        let mut last = 0usize;
        for key in &expected {
            let at = json
                .find(key)
                .unwrap_or_else(|| panic!("{fixture}: missing top-level key {key} in:\n{json}"));
            assert!(at > last, "{fixture}: key {key} out of order");
            last = at;
        }
    }
    // Allocation sites carry their enclosing function for aggregation.
    let json = render_json(&lint_fixture("cfg_forms"));
    assert!(json.contains("\"function\": \"key_copy\""), "got:\n{json}");
}

#[test]
fn explain_covers_every_rule() {
    for rule in ["A1", "H1", "W1"] {
        let text =
            gfw_lint::explain::explain(rule).unwrap_or_else(|| panic!("--explain {rule} missing"));
        assert!(text.contains(rule), "{rule}: {text}");
        assert!(text.len() > 80, "{rule} explanation too thin: {text}");
    }
    // P1 and R1 moved to clippy, C1 to the protocol crates' tests.
    for rule in ["Z9", "P1", "C1", "R1"] {
        assert!(gfw_lint::explain::explain(rule).is_none(), "{rule}");
    }
    let index = gfw_lint::explain::index();
    assert_eq!(
        index.lines().count(),
        4,
        "a header and three rules:\n{index}"
    );
}
