//! `--explain <RULE>`: the rule catalogue, with rationale and escape
//! hatch for each rule, so a finding in CI is self-documenting.

/// One catalogue entry.
pub struct RuleDoc {
    /// Rule ID (`A1`, …).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists, in this workspace's terms.
    pub rationale: &'static str,
    /// How to suppress or satisfy a finding deliberately.
    pub escape: &'static str,
}

/// Every rule, in the order they run.
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "A1",
        summary: "per-area heap-allocation budget on the crypto hot path (ratchet-down)",
        rationale: "The zero-copy codec work removed per-chunk allocations from \
                    `sscrypto` and `shadowsocks::wire`; the `[alloc-budget]` \
                    table pins the remaining `.to_vec()` / `Vec::new()` / \
                    `.clone()` sites so they cannot creep back.",
        escape: "`// gfwlint: allow(A1)` per site, or `--bless` after removing \
                 sites. Raising a budget is a hand edit.",
    },
    RuleDoc {
        id: "H1",
        summary: "member crates take dependencies and lints from the workspace",
        rationale: "Versions live only in the root `[workspace.dependencies]` \
                    (all path-vendored). A version slipping into a member \
                    manifest is how an unvendored dependency sneaks in. \
                    Every member also needs `[lints] workspace = true`, so a \
                    new crate cannot silently drop `unsafe_code = \"forbid\"` \
                    or `missing_docs`. A crate with audited `unsafe` islands \
                    (`sscrypto`, `analysis`) may carry its own `[lints.*]` \
                    tables instead, if they repeat the workspace lints with \
                    only `unsafe_code` relaxed to `deny`.",
        escape: "`# gfwlint: allow(H1)` on the offending dependency line, or \
                 write `name.workspace = true` when the root already defines it. \
                 A member without `[lints] workspace = true` has no escape.",
    },
    RuleDoc {
        id: "R1",
        summary: "determinism taint: no hash-ordered iteration reachable from the Simulator",
        rationale: "R1 walks a name-based call graph from `impl Simulator` \
                    methods across every crate the sim can reach (including \
                    `shadowsocks`, `sscrypto`, `analysis`) and flags \
                    `HashMap`/`HashSet` iteration whose order can leak into \
                    output. Hash iteration order is per-process-seeded, so one \
                    stray `.iter()` makes two identically-seeded runs diverge. \
                    The graph is name-based and over-approximate on purpose: \
                    dyn-dispatch never escapes it.",
        escape: "`// gfwlint: allow(R1)` on the source line, after convincing \
                 yourself the order cannot reach simulator output; or switch \
                 to a BTree container, or sort before iterating.",
    },
    RuleDoc {
        id: "W1",
        summary: "wrapping-arithmetic discipline on hot-path integer state",
        rationale: "Release builds wrap silently on overflow. In the hot-path \
                    modules (`sscrypto`, `analysis::entropy`/`simd`, \
                    `netsim::eventq`, `gfw_core::passive`, \
                    `shadowsocks::wire`), bare `+` / `*` / `<<` on integer \
                    state that crosses a function boundary (params, `self` \
                    fields) must say what it means: `wrapping_*` when wrap is \
                    the semantics (hashes, counters), `checked_*`/`saturating_*` \
                    when it is not. The ci.sh overflow-checks test run \
                    cross-checks these findings dynamically.",
        escape: "`// gfwlint: allow(W1)` with a comment proving the bound (e.g. \
                 index arithmetic already bounds-checked by the slice).",
    },
];

/// Render the catalogue entry for `rule`, or `None` if unknown.
pub fn explain(rule: &str) -> Option<String> {
    let doc = RULES.iter().find(|d| d.id.eq_ignore_ascii_case(rule))?;
    Some(format!(
        "{} — {}\n\nWhy:\n  {}\n\nEscape hatch:\n  {}\n",
        doc.id, doc.summary, doc.rationale, doc.escape
    ))
}

/// Render the one-line index of all rules (for `--explain` with no
/// argument or an unknown rule).
pub fn index() -> String {
    let mut out = String::from("rules:\n");
    for d in RULES {
        out.push_str(&format!("  {:3} {}\n", d.id, d.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_documented_and_found() {
        for id in ["A1", "H1", "R1", "W1"] {
            let text = explain(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(text.contains(id));
            assert!(text.contains("Escape hatch"));
        }
        for gone in ["Z9", "P1", "C1"] {
            assert!(explain(gone).is_none(), "{gone}");
        }
        assert!(explain("w1").is_some(), "case-insensitive lookup");
    }

    #[test]
    fn index_lists_all() {
        let idx = index();
        assert_eq!(RULES.len(), 4);
        for d in RULES {
            assert!(idx.contains(d.id));
        }
    }
}
