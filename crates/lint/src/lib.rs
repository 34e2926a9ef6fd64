//! # gfw-lint — workspace invariant checker
//!
//! A dependency-free static-analysis engine for this workspace. Every
//! `.rs` file is run through a hand-rolled span lexer ([`lex`]) and an
//! item-tree pass ([`items`]) recovering functions, impls and `#[cfg]`
//! regions, and [`scan`] projects that onto per-line code/comment
//! views. The rules, reported as `file:line` findings:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | `A1` | Heap-allocation sites (`.to_vec()` / `Vec::new()` / `.clone()`) in the non-test code of the crypto hot path (`sscrypto` and `shadowsocks::wire`) stay within the checked-in `[alloc-budget]` (`lint-baseline.toml`), which only ratchets downward — per-chunk allocations must not creep back into the codec. |
//! | `H1` | Member `Cargo.toml`s take every dependency via `workspace = true` (versions live only in the root `[workspace.dependencies]`) and inherit the workspace lints with `[lints] workspace = true`; a crate with audited `unsafe` islands may instead carry its own `[lints.*]` tables that repeat the workspace lints with only `unsafe_code` relaxed to `deny`. |
//! | `W1` | In the hot-path modules (`sscrypto`, `netsim::eventq`, `gfw_core::passive`, `shadowsocks::wire`), bare `+`/`*`/`<<` (and their `=`-compounds) on integer state crossing a function boundary (params, `self` fields) must be `wrapping_*`/`checked_*`/`saturating_*` or carry an allow. |
//!
//! The toolchain enforces the rest: `clippy.toml` bans the host clock,
//! threads outside `experiments::runner`, `BinaryHeap` outside
//! `netsim::eventq` and the hash-ordered `HashMap`/`HashSet` methods,
//! and `[workspace.lints]` flags `for` loops over hash containers,
//! forbids `unsafe_code`, warns on `missing_docs`, asks every `#[allow]`
//! for a reason, every `unsafe` block for a `// SAFETY:` comment and
//! every `unsafe fn` (private ones too, by `clippy.toml`'s
//! `check-private-items`) for a `# Safety` doc section. The protocol
//! crates (`core`, `netsim`, `shadowsocks`, `sscrypto`, `trafficgen`)
//! warn on `unwrap`, `expect`, `panic!` and `unreachable!` outside tests
//! by crate attribute, and the protocol constants (IV and salt lengths,
//! the probe length sweep, the wire framing) are pinned by those crates'
//! own tests.
//!
//! Individual findings can be suppressed with an inline escape —
//! `// gfwlint: allow(W1)` on the offending line or alone on the line
//! above (`# gfwlint: allow(H1)` in TOML). Escapes are counted and
//! reported, never silent.
//!
//! The binary (`cargo run -p gfw-lint`) exits 0 when clean, 1 on
//! findings, 2 on usage or I/O errors, and supports `--json` (machine
//! output, with allocation sites attributed to their enclosing
//! function), `--bless` (regenerate the A1 baseline, downward only) and
//! `--explain RULE` (print a rule's rationale and escape hatch).

pub mod baseline;
pub mod explain;
pub mod items;
pub mod lex;
pub mod report;
pub mod rules;
pub mod scan;

use scan::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule ID (`A1`, `H1` or `W1`).
    pub rule: &'static str,
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// One honored `gfwlint: allow(...)` escape.
#[derive(Debug, Clone)]
pub struct AllowUse {
    /// The rule that was suppressed.
    pub rule: String,
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
}

/// One budget-counted allocation site, attributed to its enclosing
/// function via the item tree.
#[derive(Debug, Clone)]
pub struct Site {
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Qualified name of the enclosing function (module/impl path,
    /// without the crate name), or `(file scope)` outside any fn.
    pub function: String,
    /// The counted token (`.to_vec()`, `Vec::new()` or `.clone()`).
    pub token: String,
}

/// The result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in deterministic (file, line) order per rule.
    pub findings: Vec<Finding>,
    /// Escapes that suppressed a real would-be finding.
    pub allows: Vec<AllowUse>,
    /// Number of files scanned (`.rs` + `Cargo.toml`).
    pub files_scanned: usize,
    /// Current A1 heap-allocation counts per budgeted hot-path area.
    pub alloc_counts: BTreeMap<String, usize>,
    /// Every counted A1 allocation site, attributed to its function.
    pub alloc_sites: Vec<Site>,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A member crate: directory name (not package name) and its path.
#[derive(Debug)]
pub struct CrateDir {
    /// Directory name under `crates/` (e.g. `core`, `sscrypto`).
    pub name: String,
    /// Absolute path to the crate directory.
    pub path: PathBuf,
}

/// The scanned workspace: every member crate with its sources loaded.
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Member crates under `crates/` (sorted by name).
    pub crates: Vec<CrateDir>,
    /// All scanned `.rs` files, keyed by root-relative path.
    pub sources: BTreeMap<String, SourceFile>,
}

impl Workspace {
    /// Load and scan the workspace at `root`.
    ///
    /// Walks `src/` at the root plus every crate directory under
    /// `crates/`, skipping `target/` and any `fixtures/` directory
    /// (those hold intentionally-broken lint test inputs).
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let root = root
            .canonicalize()
            .map_err(|e| format!("{}: {e}", root.display()))?;
        let mut crates = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)
                .map_err(|e| format!("{}: {e}", crates_dir.display()))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
                .collect();
            entries.sort();
            for path in entries {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                crates.push(CrateDir { name, path });
            }
        }

        let mut files = Vec::new();
        walk_rs(&root.join("src"), &mut files);
        for c in &crates {
            walk_rs(&c.path, &mut files);
        }
        files.sort();

        let mut sources = BTreeMap::new();
        for path in files {
            let sf =
                SourceFile::load(&root, &path).map_err(|e| format!("{}: {e}", path.display()))?;
            sources.insert(sf.rel.clone(), sf);
        }

        Ok(Workspace {
            root,
            crates,
            sources,
        })
    }

    /// All scanned sources whose root-relative path starts with `prefix`.
    pub fn sources_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.sources
            .iter()
            .filter(move |(rel, _)| rel.starts_with(prefix))
            .map(|(_, sf)| sf)
    }
}

/// Recursively collect `.rs` files, skipping `target/` and `fixtures/`.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint options.
#[derive(Debug, Default)]
pub struct Options {
    /// Workspace root to lint.
    pub root: PathBuf,
}

/// Run every rule against the workspace at `opts.root`.
pub fn run(opts: &Options) -> Result<Report, String> {
    let ws = Workspace::load(&opts.root)?;
    let mut report = Report {
        files_scanned: ws.sources.len(),
        ..Report::default()
    };
    rules::a1_alloc_budget(&ws, &mut report)?;
    rules::h1_workspace_deps(&ws, &mut report)?;
    rules::w1_wrapping_audit(&ws, &mut report);
    Ok(report)
}

/// Regenerate the A1 baseline from current counts. Budgets only
/// ratchet downward: if any area's current count exceeds its existing
/// budget, this fails and tells the caller to fix the regressions
/// instead.
///
/// Returns a human-readable summary of what was written.
pub fn bless(root: &Path) -> Result<String, String> {
    let ws = Workspace::load(root)?;
    let allocs = rules::alloc_counts(&ws);
    if let Some(old) = baseline::Baseline::load(&ws.root)? {
        let raised: Vec<String> = allocs
            .iter()
            .filter_map(|(name, &count)| {
                let budget = *old.alloc_budgets.get(name)?;
                (count > budget).then(|| format!("alloc {name}: {count} > {budget}"))
            })
            .collect();
        if !raised.is_empty() {
            return Err(format!(
                "refusing to bless: budgets only ratchet downward ({}); \
                 fix the regressions or raise the budget by hand in {}",
                raised.join(", "),
                baseline::BASELINE_FILE
            ));
        }
    }
    let summary: Vec<String> = allocs
        .iter()
        .map(|(n, c)| format!("alloc {n} = {c}"))
        .collect();
    baseline::Baseline {
        alloc_budgets: allocs,
    }
    .store(&ws.root)?;
    Ok(format!(
        "blessed {} ({})",
        baseline::BASELINE_FILE,
        summary.join(", ")
    ))
}
