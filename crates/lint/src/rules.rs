//! The lint rules.
//!
//! Each rule pushes [`Finding`]s (and honored allow-escapes) into the
//! shared [`Report`]. Token rules operate on the comment/string-stripped
//! `code` text produced by [`crate::scan`], so tokens inside comments,
//! doc examples rendered as comments, or string literals never fire;
//! the structural rule (W1) and A1's site attribution query the
//! per-file item tree ([`crate::items`]) directly.

use crate::baseline::{Baseline, BASELINE_FILE};
use crate::items::is_int_type;
use crate::lex::TokKind;
use crate::scan::SourceFile;
use crate::{AllowUse, Finding, Report, Site, Workspace};
use std::collections::BTreeMap;

/// Hot-path areas with an allocation budget (A1):
/// `(baseline key, path prefix, file findings point at)`.
pub const ALLOC_BUDGET_AREAS: &[(&str, &str, &str)] = &[
    (
        "shadowsocks-wire",
        "crates/shadowsocks/src/wire.rs",
        "crates/shadowsocks/src/wire.rs",
    ),
    (
        "sscrypto",
        "crates/sscrypto/src/",
        "crates/sscrypto/src/lib.rs",
    ),
];

/// Heap-allocation tokens counted by A1. These are the per-call
/// allocations the zero-copy codec work removed from the crypto hot
/// path; the budget keeps them from creeping back.
const ALLOC_TOKENS: &[&str] = &[".to_vec()", "Vec::new()", ".clone()"];

fn allowed(report: &mut Report, rule: &str, file: &SourceFile, idx: usize) -> bool {
    if file.lines[idx].allows.iter().any(|a| a == rule) {
        report.allows.push(AllowUse {
            rule: rule.to_string(),
            file: file.rel.clone(),
            line: idx + 1,
        });
        true
    } else {
        false
    }
}

/// A1's sites under `prefix`: every allocation token on a non-test
/// line, attributed to its enclosing function via the item tree, and
/// the lines that escape the rule with `gfwlint: allow(A1)`.
fn alloc_sites(ws: &Workspace, prefix: &str) -> (Vec<Site>, Vec<AllowUse>) {
    let mut sites = Vec::new();
    let mut escapes = Vec::new();
    for file in ws.sources_under(prefix) {
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let before = sites.len();
            for token in ALLOC_TOKENS {
                for _ in 0..count_token(&line.code, token) {
                    let function = file
                        .items
                        .fn_at_line(idx + 1)
                        .map(|f| f.qual.clone())
                        .unwrap_or_else(|| "(file scope)".to_string());
                    sites.push(Site {
                        file: file.rel.clone(),
                        line: idx + 1,
                        function,
                        token: token.to_string(),
                    });
                }
            }
            if sites.len() > before && line.allows.iter().any(|a| a == "A1") {
                sites.truncate(before);
                escapes.push(AllowUse {
                    rule: "A1".to_string(),
                    file: file.rel.clone(),
                    line: idx + 1,
                });
            }
        }
    }
    (sites, escapes)
}

/// Count A1 heap-allocation sites in the non-test code of each
/// budgeted hot-path area, allow-escaped lines excluded. Areas with no
/// source files in this workspace are omitted.
pub fn alloc_counts(ws: &Workspace) -> BTreeMap<String, usize> {
    ALLOC_BUDGET_AREAS
        .iter()
        .filter(|&&(_, prefix, _)| ws.sources_under(prefix).next().is_some())
        .map(|&(key, prefix, _)| (key.to_string(), alloc_sites(ws, prefix).0.len()))
        .collect()
}

/// A1: per-area heap-allocation budget against the checked-in baseline.
///
/// The crypto hot path (`sscrypto` and the `shadowsocks` wire codec)
/// went through a deliberate de-allocation pass: keystream batching,
/// in-place sealing/opening and scratch-buffer reuse. This rule pins
/// the remaining `.to_vec()` / `Vec::new()` / `.clone()` sites so a
/// refactor cannot quietly reintroduce per-chunk allocations. Budgets
/// live in `[alloc-budget]` of `lint-baseline.toml` and only ratchet
/// down via `--bless`.
pub fn a1_alloc_budget(ws: &Workspace, report: &mut Report) -> Result<(), String> {
    let counts = alloc_counts(ws);
    if counts.is_empty() {
        return Ok(());
    }
    for &(_, prefix, _) in ALLOC_BUDGET_AREAS {
        let (sites, escapes) = alloc_sites(ws, prefix);
        report.alloc_sites.extend(sites);
        report.allows.extend(escapes);
    }
    report.alloc_counts = counts.clone();

    let Some(baseline) = Baseline::load(&ws.root)? else {
        report.findings.push(Finding {
            rule: "A1",
            file: BASELINE_FILE.to_string(),
            line: 0,
            message: "alloc-budget baseline missing; run `gfw-lint --bless` to create it"
                .to_string(),
        });
        return Ok(());
    };
    for (name, &count) in &counts {
        let report_file = ALLOC_BUDGET_AREAS
            .iter()
            .find(|(key, _, _)| key == name)
            .map(|&(_, _, f)| f)
            .unwrap_or(BASELINE_FILE);
        match baseline.alloc_budgets.get(name) {
            None => report.findings.push(Finding {
                rule: "A1",
                file: BASELINE_FILE.to_string(),
                line: 0,
                message: format!(
                    "area `{name}` has no alloc budget entry (current count: {count}); \
                     run `gfw-lint --bless`"
                ),
            }),
            Some(&budget) if count > budget => report.findings.push(Finding {
                rule: "A1",
                file: report_file.to_string(),
                line: 1,
                message: format!(
                    "area `{name}` has {count} heap-allocation sites (`.to_vec()` / \
                     `Vec::new()` / `.clone()`) in non-test code, over its budget of \
                     {budget}; reuse scratch buffers on the hot path or raise the \
                     budget by hand in {BASELINE_FILE}"
                ),
            }),
            _ => {}
        }
    }
    Ok(())
}

/// H1: member Cargo.toml dependencies must all be `workspace = true`,
/// and every member inherits the workspace lints.
pub fn h1_workspace_deps(ws: &Workspace, report: &mut Report) -> Result<(), String> {
    let root_manifest = ws.root.join("Cargo.toml");
    let mut island_lints = Vec::new();
    if root_manifest.is_file() {
        let text = read_manifest(&root_manifest, report)?;
        h1_check_manifest("Cargo.toml", &text, report);
        island_lints = lint_entries(&text, "workspace.lints")
            .into_iter()
            .map(|e| e.replace("unsafe_code = \"forbid\"", "unsafe_code = \"deny\""))
            .collect();
    }
    for c in &ws.crates {
        let rel = format!("crates/{}/Cargo.toml", c.name);
        let text = read_manifest(&c.path.join("Cargo.toml"), report)?;
        h1_check_manifest(&rel, &text, report);
        h1_check_lints(&rel, &text, &island_lints, report);
    }
    Ok(())
}

fn read_manifest(path: &std::path::Path, report: &mut Report) -> Result<String, String> {
    report.files_scanned += 1;
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The entries of a manifest's `[<prefix>.*]` tables, one
/// `table key = value` string each (`rust unsafe_code = "forbid"`).
fn lint_entries(text: &str, prefix: &str) -> Vec<String> {
    let mut table = None;
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            let name = line.trim_matches(['[', ']']);
            table = name
                .strip_prefix(prefix)
                .and_then(|t| t.strip_prefix('.'))
                .map(str::to_string);
        } else if let (Some(t), false) = (&table, line.is_empty()) {
            out.push(format!("{t} {line}"));
        }
    }
    out
}

/// Check that a member manifest opts into the workspace lints with
/// `[lints] workspace = true`. A crate with audited `unsafe` islands
/// may instead carry its own `[lints.*]` tables, if they repeat the
/// workspace lints (`island_lints`) with only `unsafe_code` relaxed
/// from `forbid` to `deny`.
fn h1_check_lints(rel: &str, text: &str, island_lints: &[String], report: &mut Report) {
    let mut section = "";
    let mut own_table = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
            let is_lints = section == "lints" || section.starts_with("lints.");
            if is_lints && own_table.is_none() {
                own_table = Some(idx + 1);
            }
        } else if section == "lints" && line.replace(' ', "") == "workspace=true" {
            return;
        }
    }
    let (line, message) = match own_table {
        None => (
            0,
            "no `[lints] workspace = true`: every member inherits the workspace lints \
             (`unsafe_code`, `missing_docs`, `allow_attributes_without_reason`, \
             `undocumented_unsafe_blocks`, `missing_safety_doc`)"
                .to_string(),
        ),
        Some(_) if lint_entries(text, "lints") == island_lints => return,
        Some(line) => (
            line,
            "`[lints]` does not say `workspace = true`; a crate's own `[lints.*]` \
             tables must repeat the workspace lints, relaxing only `unsafe_code` \
             to `deny`"
                .to_string(),
        ),
    };
    report.findings.push(Finding {
        rule: "H1",
        file: rel.to_string(),
        line,
        message,
    });
}

/// Check one manifest's dependency sections.
fn h1_check_manifest(rel: &str, text: &str, report: &mut Report) {
    #[derive(PartialEq)]
    enum Section {
        Other,
        Deps,
        /// `[dependencies.foo]` subtable: must contain `workspace = true`.
        DepSubtable {
            header_line: usize,
            name: String,
            satisfied: bool,
        },
    }
    let mut section = Section::Other;
    let flush = |section: &mut Section, report: &mut Report| {
        if let Section::DepSubtable {
            header_line,
            name,
            satisfied: false,
        } = section
        {
            report.findings.push(Finding {
                rule: "H1",
                file: rel.to_string(),
                line: *header_line,
                message: format!(
                    "dependency `{name}` does not use `workspace = true`; versions \
                     belong in the root [workspace.dependencies]"
                ),
            });
        }
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let has_allow = raw.contains("gfwlint: allow(H1)");
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut section, report);
            let name = line.trim_matches(['[', ']']);
            section = if name == "workspace.dependencies"
                || name.starts_with("workspace.dependencies.")
            {
                Section::Other
            } else if is_dep_section(name) {
                Section::Deps
            } else if let Some((table, dep)) = name.rsplit_once('.') {
                if is_dep_section(table) {
                    Section::DepSubtable {
                        header_line: idx + 1,
                        name: dep.to_string(),
                        satisfied: false,
                    }
                } else {
                    Section::Other
                }
            } else {
                Section::Other
            };
            continue;
        }
        match &mut section {
            Section::Other => {}
            Section::DepSubtable { satisfied, .. } => {
                if line.replace(' ', "") == "workspace=true" {
                    *satisfied = true;
                }
            }
            Section::Deps => {
                let Some((key, _value)) = line.split_once('=') else {
                    continue;
                };
                let key = key.trim();
                let ok = key.ends_with(".workspace") && line.replace(' ', "").ends_with("=true")
                    || line.contains("workspace = true");
                if !ok {
                    let dep = key.split('.').next().unwrap_or(key);
                    if has_allow {
                        report.allows.push(AllowUse {
                            rule: "H1".to_string(),
                            file: rel.to_string(),
                            line: idx + 1,
                        });
                        continue;
                    }
                    report.findings.push(Finding {
                        rule: "H1",
                        file: rel.to_string(),
                        line: idx + 1,
                        message: format!(
                            "dependency `{dep}` does not use `workspace = true`; versions \
                             belong in the root [workspace.dependencies]"
                        ),
                    });
                }
            }
        }
    }
    flush(&mut section, report);
}

fn is_dep_section(name: &str) -> bool {
    matches!(
        name,
        "dependencies" | "dev-dependencies" | "build-dependencies"
    ) || (name.starts_with("target.") && name.ends_with("dependencies"))
}

/// Count non-overlapping occurrences of `token` in `code`.
pub fn count_token(code: &str, token: &str) -> usize {
    let mut count = 0;
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        count += 1;
        start += pos + token.len();
    }
    count
}

// ---------------------------------------------------------------------------
// W1: wrapping-arithmetic discipline on the hot path.

/// The designated hot-path modules: release builds wrap silently here,
/// and these run millions of iterations per simulated experiment.
pub const W1_HOT_PATHS: &[&str] = &[
    "crates/sscrypto/src/",
    "crates/analysis/src/entropy.rs",
    "crates/analysis/src/simd.rs",
    "crates/netsim/src/eventq.rs",
    "crates/netsim/src/flow.rs",
    "crates/core/src/passive.rs",
    "crates/shadowsocks/src/wire.rs",
    "crates/trafficgen/src/profiles.rs",
];

/// Is `ty` text a float type?
fn is_float_type(ty: &str) -> bool {
    let t = ty.trim().trim_start_matches('&').trim();
    t.starts_with("f32") || t.starts_with("f64")
}

/// W1: in hot-path non-test functions, bare `+`/`*`/`<<` (and their
/// `=`-compounds) where an operand is an integral-typed parameter or
/// `self` field must be spelled `wrapping_*` / `checked_*` /
/// `saturating_*` or carry an allow.
///
/// The operand filter is the rule's precision lever: arithmetic on
/// locals, constants and floats is never flagged — only integer state
/// that *crosses the function boundary* (params, fields), which is
/// exactly the state that accumulates across calls and overflows after
/// the millionth packet instead of in the unit test.
pub fn w1_wrapping_audit(ws: &Workspace, report: &mut Report) {
    let mut rels: Vec<String> = Vec::new();
    for prefix in W1_HOT_PATHS {
        for f in ws.sources_under(prefix) {
            if !rels.contains(&f.rel) {
                rels.push(f.rel.clone());
            }
        }
    }
    rels.sort();
    for rel in rels {
        let file = &ws.sources[&rel];
        let hits = w1_scan_file(file);
        for (line, op, operand, ty) in hits {
            if allowed(report, "W1", &ws.sources[&rel], line - 1) {
                continue;
            }
            let alt = match op {
                "+" | "+=" => "wrapping_add / checked_add / saturating_add",
                "*" | "*=" => "wrapping_mul / checked_mul / saturating_mul",
                _ => "wrapping_shl / checked_shl",
            };
            report.findings.push(Finding {
                rule: "W1",
                file: rel.clone(),
                line,
                message: format!(
                    "bare `{op}` on hot-path integer state `{operand}` ({ty}) crossing \
                     a function boundary; in release builds this wraps silently — say \
                     what you mean ({alt}) or justify with `// gfwlint: allow(W1)`"
                ),
            });
        }
    }
}

/// Scan one file's non-test fn bodies for W1 hits:
/// `(line, op, operand, operand type)`.
fn w1_scan_file(file: &SourceFile) -> Vec<(usize, &'static str, String, String)> {
    let mut hits = Vec::new();
    let src = &file.text;
    // Significant token indices across the file; per-fn filtering below.
    let sig: Vec<usize> = (0..file.toks.len())
        .filter(|&i| !file.toks[i].is_trivia())
        .collect();
    for f in &file.items.fns {
        if f.in_test || f.body.is_empty() {
            continue;
        }
        let int_params: BTreeMap<&str, &str> = f
            .params
            .iter()
            .filter(|(_, ty)| is_int_type(ty))
            .map(|(n, ty)| (n.as_str(), ty.as_str()))
            .collect();
        let float_params: Vec<&str> = f
            .params
            .iter()
            .filter(|(_, ty)| is_float_type(ty))
            .map(|(n, _)| n.as_str())
            .collect();
        // Positions (into `sig`) of this fn's body tokens.
        let body: Vec<usize> = sig
            .iter()
            .enumerate()
            .filter(|&(_, &ti)| f.body.contains(&ti))
            .map(|(si, _)| si)
            .collect();
        let (Some(&first), Some(&last)) = (body.first(), body.last()) else {
            continue;
        };
        let mut si = first;
        while si <= last {
            let ti = sig[si];
            let tok = &file.toks[ti];
            let (op, width): (&'static str, usize) = match tok.kind {
                TokKind::Punct('+') => {
                    if adjacent(file, &sig, si, '=') {
                        ("+=", 2)
                    } else {
                        ("+", 1)
                    }
                }
                TokKind::Punct('*') => {
                    // Binary only: previous significant token must be a
                    // value-ending token, not `(`/`,`/`=`/… (deref) or
                    // `*const`/`*mut` (raw pointer types).
                    let prev_ok = si > 0
                        && matches!(
                            file.toks[sig[si - 1]].kind,
                            TokKind::Ident
                                | TokKind::Int
                                | TokKind::Float
                                | TokKind::Punct(')')
                                | TokKind::Punct(']')
                        );
                    if !prev_ok {
                        si += 1;
                        continue;
                    }
                    if adjacent(file, &sig, si, '=') {
                        ("*=", 2)
                    } else {
                        ("*", 1)
                    }
                }
                TokKind::Punct('<') => {
                    // `<<` = two adjacent `<`; `<<=` when a `=` follows.
                    if !adjacent(file, &sig, si, '<') {
                        si += 1;
                        continue;
                    }
                    if adjacent(file, &sig, si + 1, '=') {
                        ("<<=", 3)
                    } else {
                        ("<<", 2)
                    }
                }
                _ => {
                    si += 1;
                    continue;
                }
            };

            // Resolve operands. For compounds only the LHS is state.
            let left = operand_left(file, src, &sig, si);
            let right = if op.ends_with('=') {
                None
            } else {
                operand_right(file, src, &sig, si + width - 1)
            };
            let mut float_involved = matches!(right, Some(Operand::FloatLit));
            let mut flagged: Option<(String, String)> = None;
            for opnd in [&left, &right] {
                match opnd {
                    Some(Operand::Chain(chain)) => {
                        if let Some(base) = chain.strip_prefix("self.") {
                            if let Some(ty) = file.items.int_fields.get(base) {
                                flagged = Some((chain.clone(), ty.clone()));
                            }
                        } else if let Some(ty) = int_params.get(chain.as_str()) {
                            flagged = Some((chain.clone(), ty.to_string()));
                        } else if float_params.contains(&chain.as_str()) {
                            float_involved = true;
                        }
                    }
                    Some(Operand::FloatLit) => float_involved = true,
                    _ => {}
                }
            }
            if !float_involved {
                if let Some((operand, ty)) = flagged {
                    hits.push((tok.line, op, operand, ty));
                }
            }
            si += width.max(1);
        }
    }
    hits.sort();
    hits.dedup();
    hits
}

/// Is the significant token after `si` the punct `c`, with no gap in
/// the source (so `+ =` never reads as `+=`)?
fn adjacent(file: &SourceFile, sig: &[usize], si: usize, c: char) -> bool {
    let (Some(&a), Some(&b)) = (sig.get(si), sig.get(si + 1)) else {
        return false;
    };
    file.toks[b].kind == TokKind::Punct(c) && file.toks[a].end == file.toks[b].start
}

enum Operand {
    /// `name` or `self.field` (the resolvable shapes).
    Chain(String),
    /// A float literal: the whole expression is float arithmetic.
    FloatLit,
    /// Anything else (unresolved).
    Other,
}

/// Resolve the operand ending just before the op at `sig[si]`.
fn operand_left(file: &SourceFile, src: &str, sig: &[usize], si: usize) -> Option<Operand> {
    if si == 0 {
        return None;
    }
    let t = &file.toks[sig[si - 1]];
    match t.kind {
        TokKind::Float => Some(Operand::FloatLit),
        TokKind::Int => Some(Operand::Other),
        TokKind::Ident => {
            let name = t.text(src);
            // `self.field` / `x.y` chains: look two tokens further back.
            if si >= 3
                && file.toks[sig[si - 2]].kind == TokKind::Punct('.')
                && file.toks[sig[si - 3]].kind == TokKind::Ident
            {
                let base = file.toks[sig[si - 3]].text(src);
                // Only single-step chains resolve; deeper ones are Other.
                let prev_prev_dot = si >= 4 && file.toks[sig[si - 4]].kind == TokKind::Punct('.');
                if prev_prev_dot {
                    return Some(Operand::Other);
                }
                return Some(Operand::Chain(format!("{base}.{name}")));
            }
            // A bare ident, not itself a field of something else.
            Some(Operand::Chain(name.to_string()))
        }
        _ => Some(Operand::Other),
    }
}

/// Resolve the operand starting just after the op at `sig[si]`.
fn operand_right(file: &SourceFile, src: &str, sig: &[usize], si: usize) -> Option<Operand> {
    let t = &file.toks[*sig.get(si + 1)?];
    match t.kind {
        TokKind::Float => Some(Operand::FloatLit),
        TokKind::Int => Some(Operand::Other),
        TokKind::Ident => {
            let name = t.text(src);
            if name == "self" {
                // `self.field` on the right.
                if let (Some(&d), Some(&f)) = (sig.get(si + 2), sig.get(si + 3)) {
                    if file.toks[d].kind == TokKind::Punct('.')
                        && file.toks[f].kind == TokKind::Ident
                    {
                        return Some(Operand::Chain(format!("self.{}", file.toks[f].text(src))));
                    }
                }
                return Some(Operand::Other);
            }
            // `name.method()` chains on the right stay unresolved
            // unless it's a plain ident followed by a non-`.` token.
            if sig
                .get(si + 2)
                .is_some_and(|&d| file.toks[d].kind == TokKind::Punct('.'))
            {
                return Some(Operand::Other);
            }
            Some(Operand::Chain(name.to_string()))
        }
        _ => Some(Operand::Other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_token_counts() {
        assert_eq!(count_token("a.clone().clone()", ".clone()"), 2);
        assert_eq!(count_token("no copies here", ".to_vec()"), 0);
    }

    #[test]
    fn h1_manifest_check() {
        let mut report = Report::default();
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\ngood.workspace = true\nalso = { workspace = true, features = [\"y\"] }\nbad = \"1.0\"\npathdep = { path = \"../other\" }\n\n[dev-dependencies]\nok.workspace = true\n";
        h1_check_manifest("crates/x/Cargo.toml", toml, &mut report);
        let deps: Vec<&str> = report
            .findings
            .iter()
            .map(|f| {
                assert_eq!(f.rule, "H1");
                f.message.split('`').nth(1).unwrap()
            })
            .collect();
        assert_eq!(deps, vec!["bad", "pathdep"]);
        assert_eq!(report.findings[0].line, 7);
    }

    #[test]
    fn h1_subtable_and_allow() {
        let mut report = Report::default();
        let toml = "[dependencies.foo]\nversion = \"1\"\n\n[dependencies]\nlegacy = \"0.1\" # gfwlint: allow(H1)\n";
        h1_check_manifest("Cargo.toml", toml, &mut report);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("`foo`"));
        assert_eq!(report.allows.len(), 1);
        assert_eq!(report.allows[0].line, 5);
    }

    #[test]
    fn h1_workspace_dependencies_exempt() {
        let mut report = Report::default();
        let toml = "[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\nserde = { path = \"vendor/serde\", features = [\"derive\"] }\n";
        h1_check_manifest("Cargo.toml", toml, &mut report);
        assert!(report.findings.is_empty());
    }
}
