//! The R1 determinism-taint engine: a name-based call graph.
//!
//! `clippy.toml` bans the host clock in every crate, but a sim can also
//! lose determinism through iteration order: a function the simulator
//! reaches that walks a `HashMap`/`HashSet` in an output-ordering
//! position. R1 builds a per-workspace call graph over the crates the
//! simulator can depend on and flags such iteration in functions
//! reachable from `impl Simulator` methods.
//!
//! The graph is deliberately name-based and over-approximate: a call
//! edge exists from `f` to every function named `g` when `f`'s body
//! contains `g(…)`, `Type::g(…)` or `.g(…)`. Over-approximation is the
//! right polarity for a lint — dynamic dispatch and trait calls resolve
//! to *every* same-named candidate, so reachability never misses a real
//! path; an unreachable false edge at worst asks for an explicit
//! `// gfwlint: allow(R1)` with a justification.
//!
//! The source is **unordered-map iteration** (`.iter()`, `.keys()`,
//! `.values()`, `.drain()`, `for … in &map`) over a
//! `HashMap`/`HashSet`-typed binding, in any reachable function, unless
//! the line feeds an order-insensitive sink (`.sum()`, `.count()`,
//! `.min(`/`.max(`, `.all(`/`.any(`, a `.sort*` call,
//! `.collect::<BTree…>`, …). Iteration order of std's hashed containers
//! is seeded per-process, so any ordering that leaks into simulator
//! output breaks bit-for-bit reproducibility.

use crate::scan::{has_token, SourceFile};
use crate::{AllowUse, Finding, Report, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates in the R1 graph: the sim crates plus everything they can
/// reach. `experiments` is excluded on purpose — it legitimately
/// measures wall-clock time, and nothing in a sim calls back into it.
pub const R1_CRATES: &[&str] = &[
    "core",
    "netsim",
    "probesim",
    "trafficgen",
    "defense",
    "shadowsocks",
    "sscrypto",
    "analysis",
];

/// Method-call fragments that iterate a map/set.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain()",
];

/// Order-insensitive sinks: a map iteration feeding one of these on the
/// same expression line cannot leak hash order into output.
const ORDER_NEUTRAL: &[&str] = &[
    ".sum()",
    ".sum::<",
    ".count()",
    ".min(",
    ".min_by",
    ".max(",
    ".max_by",
    ".all(",
    ".any(",
    ".fold(",
    ".sort",
    ".len()",
    ".is_empty()",
    ".contains",
    "collect::<BTree",
    "BTreeMap>",
    "BTreeSet>",
];

/// Rust keywords that look like call heads (`if x(…)` never parses that
/// way, but `matches!`-style scans can produce them).
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "let", "impl", "pub", "use", "mod",
    "move", "in", "as", "else", "unsafe", "where", "break", "continue",
];

/// One function node in the graph.
struct FnNode {
    /// Workspace-relative file.
    file: String,
    /// Index into that file's `items.fns`.
    fn_idx: usize,
    /// Crate directory name.
    crate_name: String,
}

/// A hash-ordered iteration found inside a function body.
struct Source {
    /// Node that contains it.
    node: usize,
    /// 1-based line.
    line: usize,
    /// The hash-ordered binding it iterates.
    name: String,
}

/// Run the R1 rule over the workspace.
pub fn r1_determinism_taint(ws: &Workspace, report: &mut Report) {
    // ---- Collect nodes.
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for crate_name in R1_CRATES {
        let prefix = format!("crates/{crate_name}/src/");
        for file in ws.sources_under(&prefix) {
            for (fn_idx, f) in file.items.fns.iter().enumerate() {
                if f.in_test || f.name.is_empty() {
                    continue;
                }
                let node = nodes.len();
                nodes.push(FnNode {
                    file: file.rel.clone(),
                    fn_idx,
                    crate_name: crate_name.to_string(),
                });
                by_name.entry(f.name.clone()).or_default().push(node);
            }
        }
    }

    // ---- Entry points: `impl Simulator` methods.
    let entries: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            let f = &ws.sources[&n.file].items.fns[n.fn_idx];
            f.impl_type.as_deref() == Some("Simulator")
        })
        .map(|(i, _)| i)
        .collect();
    if entries.is_empty() {
        return; // nothing to taint from in this tree
    }

    // ---- Edges: name-based call matching over body lines.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    // Remember one representative call line per (caller, callee name)
    // so taint chains can cite where the call happens.
    let mut call_lines: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (ni, node) in nodes.iter().enumerate() {
        let file = &ws.sources[&node.file];
        let f = &file.items.fns[node.fn_idx];
        let mut callees: BTreeSet<usize> = BTreeSet::new();
        for line_no in f.line_start..=f.line_end.min(file.lines.len()) {
            let code = &file.lines[line_no - 1].code;
            for (name, targets) in called_names(code) {
                let _ = name;
                for t in targets(&by_name) {
                    if t != ni {
                        callees.insert(t);
                        call_lines.entry((ni, t)).or_insert(line_no);
                    }
                }
            }
        }
        edges[ni] = callees.into_iter().collect();
    }

    // ---- Reachability with parent links for chain reconstruction.
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut reached: Vec<bool> = vec![false; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in &entries {
        reached[e] = true;
        queue.push_back(e);
    }
    while let Some(n) = queue.pop_front() {
        for &m in &edges[n] {
            if !reached[m] {
                reached[m] = true;
                parent[m] = Some(n);
                queue.push_back(m);
            }
        }
    }

    // ---- Sources inside reachable functions.
    let mut sources: Vec<Source> = Vec::new();
    for (ni, node) in nodes.iter().enumerate() {
        if !reached[ni] {
            continue;
        }
        let file = &ws.sources[&node.file];
        let f = &file.items.fns[node.fn_idx];
        let map_names = map_typed_names(file);
        for line_no in f.line_start..=f.line_end.min(file.lines.len()) {
            let line = &file.lines[line_no - 1];
            if line.in_test {
                continue;
            }
            if let Some(name) = map_iteration(&line.code, &map_names) {
                sources.push(Source {
                    node: ni,
                    line: line_no,
                    name,
                });
            }
        }
    }

    // ---- Report, deterministically ordered.
    sources.sort_by(|a, b| {
        (&nodes[a.node].file, a.line, &a.name).cmp(&(&nodes[b.node].file, b.line, &b.name))
    });
    sources.dedup_by(|a, b| a.node == b.node && a.line == b.line && a.name == b.name);
    for s in sources {
        let node = &nodes[s.node];
        let file = &ws.sources[&node.file];
        if file.lines[s.line - 1].allows.iter().any(|a| a == "R1") {
            report.allows.push(AllowUse {
                rule: "R1".to_string(),
                file: node.file.clone(),
                line: s.line,
            });
            continue;
        }
        let chain = chain_to(&nodes, &ws_fn_names(ws, &nodes), &parent, s.node);
        report.findings.push(Finding {
            rule: "R1",
            file: node.file.clone(),
            line: s.line,
            message: format!(
                "iteration over hash-ordered `{}` in a function reachable from the \
                 simulator ({chain}): hash order breaks bit-for-bit reproducibility; \
                 use a BTree container, sort first, or justify with \
                 `// gfwlint: allow(R1)`",
                s.name
            ),
        });
    }
    // Keep global finding order stable across rules: the caller sorts
    // nothing, so R1's own output is already (file, line)-sorted.
}

/// Qualified display names, parallel to `nodes`.
fn ws_fn_names(ws: &Workspace, nodes: &[FnNode]) -> Vec<String> {
    nodes
        .iter()
        .map(|n| {
            let f = &ws.sources[&n.file].items.fns[n.fn_idx];
            format!("{}::{}", n.crate_name, f.qual)
        })
        .collect()
}

/// Render `Simulator::run → a → b` for the BFS path to `node`.
fn chain_to(_nodes: &[FnNode], names: &[String], parent: &[Option<usize>], node: usize) -> String {
    let mut path = vec![node];
    let mut cur = node;
    while let Some(p) = parent[cur] {
        path.push(p);
        cur = p;
        if path.len() > 12 {
            break; // chains longer than this stop being useful
        }
    }
    path.reverse();
    let rendered: Vec<&str> = path.iter().map(|&i| names[i].as_str()).collect();
    format!("via {}", rendered.join(" -> "))
}

/// Extract call-head names from one line of stripped code. Returns a
/// closure-based resolver so the (name → nodes) map lookup stays in one
/// place.
#[allow(
    clippy::type_complexity,
    reason = "a boxed resolver per call head; a type alias would be used once"
)]
fn called_names<'a>(
    code: &'a str,
) -> Vec<(
    String,
    Box<dyn Fn(&BTreeMap<String, Vec<usize>>) -> Vec<usize> + 'a>,
)> {
    let mut out: Vec<(
        String,
        Box<dyn Fn(&BTreeMap<String, Vec<usize>>) -> Vec<usize>>,
    )> = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = &code[start..i];
            // A call head: identifier directly followed by `(`, or
            // `::<` turbofish then `(`.
            let mut j = i;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            let is_call = j < bytes.len() && bytes[j] == b'(';
            if is_call && !NOT_CALLS.contains(&word) {
                let name = word.to_string();
                let key = name.clone();
                out.push((
                    name,
                    Box::new(move |by_name| by_name.get(&key).cloned().unwrap_or_default()),
                ));
            }
            continue;
        }
        i += 1;
    }
    out
}

/// Names in this file bound to a `HashMap`/`HashSet` (let bindings,
/// struct fields, fn params — any `name: Hash{Map,Set}<` or
/// `name = Hash{Map,Set}::` shape on a single line). The type may be
/// path-qualified (`netsim::hash::HashMap`, `std::collections::HashSet`):
/// the simulation crates' fixed-hasher aliases keep the std names so
/// this match covers them.
fn map_typed_names(file: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        for marker in ["HashMap", "HashSet"] {
            let mut from = 0usize;
            while let Some(pos) = code[from..].find(marker) {
                let at = from + pos;
                from = at + marker.len();
                if !has_token(code, marker) {
                    continue;
                }
                // Look left, past any path, for `name :` or `name =`.
                let before = strip_path(code[..at].trim_end()).trim_end();
                let before = before
                    .strip_suffix(':')
                    .or_else(|| before.strip_suffix("::<").map(|b| b.trim_end()))
                    .or_else(|| before.strip_suffix('=').map(|b| b.trim_end()))
                    .unwrap_or("");
                let name: String = before
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                let name = name
                    .trim_start_matches(|c: char| c.is_ascii_digit())
                    .to_string();
                if !name.is_empty() && name != "mut" && name != "let" {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// `text` without its trailing path segments (`netsim::hash::`,
/// `std::collections::`), so a qualified type reads as a bare one.
fn strip_path(mut text: &str) -> &str {
    while let Some(rest) = text.strip_suffix("::") {
        let seg = rest.trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
        if seg.len() == rest.len() {
            break;
        }
        text = seg;
    }
    text
}

/// Does this line iterate one of the map-typed names without an
/// order-insensitive sink? Returns the offending name.
fn map_iteration(code: &str, map_names: &BTreeSet<String>) -> Option<String> {
    if map_names.is_empty() {
        return None;
    }
    if ORDER_NEUTRAL.iter().any(|n| code.contains(n)) {
        return None;
    }
    for name in map_names {
        let hit = ITER_METHODS
            .iter()
            .any(|m| code.contains(&format!("{name}{m}")))
            || code.contains(&format!("in &{name}"))
            || code.contains(&format!("in &self.{name}"))
            || code.contains(&format!("in &mut {name}"))
            || code.contains(&format!("in &mut self.{name}"))
            || code.contains(&format!("in {name} "))
            || code.trim_end().ends_with(&format!("in {name}"));
        if hit && has_token(code, name) {
            return Some(name.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_names_from_decls() {
        let f = SourceFile::scan(
            "t.rs",
            "let mut seen: HashMap<u32, u64> = HashMap::new();\nlet used = HashSet::new();\n",
        );
        let names = map_typed_names(&f);
        assert!(names.contains("seen"));
        assert!(names.contains("used"));
    }

    #[test]
    fn map_names_from_qualified_decls() {
        let f = SourceFile::scan(
            "t.rs",
            "    pub conns: netsim::hash::HashMap<ConnId, u64>,\n\
             let live = crate::hash::HashSet::default();\n\
             let by: std::collections::HashMap<u32, u8> = x.collect::<Vec<_>>();\n",
        );
        let names = map_typed_names(&f);
        assert!(names.contains("conns"), "{names:?}");
        assert!(names.contains("live"), "{names:?}");
        assert!(names.contains("by"), "{names:?}");
        assert_eq!(strip_path("x: a::b_2::"), "x: ");
        assert_eq!(strip_path("v.collect::<"), "v.collect::<");
    }

    #[test]
    fn iteration_detection_and_neutral_sinks() {
        let names: BTreeSet<String> = ["seen".to_string()].into_iter().collect();
        assert!(map_iteration("for (k, v) in &seen {", &names).is_some());
        assert!(map_iteration("for (k, v) in &self.seen {", &names).is_some());
        assert!(map_iteration("for v in &mut self.seen {", &names).is_some());
        assert!(map_iteration("seen.values().collect::<Vec<_>>()", &names).is_some());
        assert!(map_iteration("let total: u64 = seen.values().sum();", &names).is_none());
        assert!(map_iteration("let n = seen.len();", &names).is_none());
        assert!(map_iteration(
            "let mut v: Vec<_> = seen.keys().collect(); v.sort();",
            &names
        )
        .is_none());
        assert!(map_iteration("for x in &other {", &names).is_none());
    }

    #[test]
    fn call_heads() {
        let calls = called_names("let x = helper(3) + Type::assoc(y); obj.method(z);");
        let names: Vec<&str> = calls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["helper", "assoc", "method"]);
        let none = called_names("if (a) { } while (b) { }");
        assert!(none.is_empty());
    }
}
