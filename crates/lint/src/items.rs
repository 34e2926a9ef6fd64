//! The item tree: a structural pass over the token stream.
//!
//! One walk over [`crate::lex`]'s tokens recovers the item structure
//! the rules care about — no full AST, just the shapes that carry lint
//! semantics:
//!
//! * **functions** with their module/impl path, parameter list (name +
//!   type text), body token range and line span, so findings attribute
//!   to the enclosing function and the call graph has nodes;
//! * **`#[cfg(...)]` regions**, evaluated exactly: `#[cfg(test)]`,
//!   `#[cfg(all(test, …))]` and nested test modules all mark their
//!   whole item span as test-only (`any(test, …)` does **not** — such
//!   code also compiles outside tests);
//! * **struct fields** with integer types, so W1 can type `self.field`
//!   operands.
//!
//! The walk is a single pass with a scope stack keyed on brace depth.
//! Braces that open match arms, struct literals or plain blocks become
//! anonymous scopes and simply nest; only item-shaped headers (`fn`,
//! `mod`, `impl`, `trait`, `struct`) get typed scopes.

use crate::lex::{Tok, TokKind};

/// One function (or method) item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Qualified path: enclosing modules and impl self-type joined with
    /// `::` (e.g. `eventq::EventQueue::push`), without the crate name.
    pub qual: String,
    /// Impl self-type when this is a method (`EventQueue`), else None.
    pub impl_type: Option<String>,
    /// Parameters as `(name, type text)`; `self` receivers appear as
    /// `("self", "Self")`.
    pub params: Vec<(String, String)>,
    /// 1-based first line (of the `fn` keyword or its attributes).
    pub line_start: usize,
    /// 1-based last line (closing brace). Equal to `line_start` for
    /// bodyless signatures.
    pub line_end: usize,
    /// Token index range of the body, **excluding** the outer braces.
    /// Empty for bodyless signatures (trait methods, extern decls).
    pub body: std::ops::Range<usize>,
    /// Inside a `#[cfg(test)]`-only region (own attribute or any
    /// enclosing item's).
    pub in_test: bool,
}

/// The structural view of one source file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// Per-line (0-indexed) test-only flags, exact per `#[cfg]`.
    pub test_lines: Vec<bool>,
    /// Struct fields declared in this file whose type is a primitive
    /// integer (or array of one): field name → type text.
    pub int_fields: std::collections::BTreeMap<String, String>,
}

impl ItemTree {
    /// Innermost function whose line span contains `line` (1-based).
    pub fn fn_at_line(&self, line: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.line_start <= line && line <= f.line_end)
            .min_by_key(|f| f.line_end - f.line_start)
    }

    /// True when `line` (1-based) is test-only code.
    pub fn line_in_test(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.test_lines.get(i))
            .copied()
            .unwrap_or(false)
    }
}

/// Is `ty` text a primitive integer type (or reference/array of one)?
pub fn is_int_type(ty: &str) -> bool {
    let t = ty
        .trim()
        .trim_start_matches(['&', '['])
        .trim_start_matches("mut ")
        .trim();
    let head: String = t
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect();
    matches!(
        head.as_str(),
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ScopeKind {
    Mod,
    Impl,
    Trait,
    Struct,
    Fn(usize),
    Block,
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth before this scope's `{` was counted.
    close_at: usize,
    /// Module or impl-type name contributing to qualified paths.
    path_seg: Option<String>,
    /// This scope's item (attrs included) started on this line.
    start_line: usize,
    /// The item carried a test-only cfg (or inherited one).
    test_only: bool,
}

/// Build the item tree for one file's source and token stream.
pub fn build(src: &str, toks: &[Tok]) -> ItemTree {
    let n_lines = src.lines().count().max(1);
    let mut tree = ItemTree {
        test_lines: vec![false; n_lines],
        ..ItemTree::default()
    };

    // Significant (non-trivia) token indices.
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_trivia()).collect();
    let text = |i: usize| toks[i].text(src);

    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0usize;
    // Header: significant tokens since the last item boundary, with any
    // attached attributes summarized separately.
    let mut header: Vec<usize> = Vec::new();
    let mut header_test_attr = false;
    let mut header_start_line: Option<usize> = None;
    // Paren/bracket nesting inside the current header: a `;` or `,`
    // inside `[u8; TAG_LEN]` or `(a, b)` is part of a type/expression,
    // not an item boundary.
    let mut header_nest = 0i32;

    let inherited_test = |scopes: &[Scope]| scopes.last().map(|s| s.test_only).unwrap_or(false);

    let mut k = 0usize; // index into `sig`
    while k < sig.len() {
        let i = sig[k];
        let t = &toks[i];
        if header_start_line.is_none() {
            header_start_line = Some(t.line);
        }
        match t.kind {
            TokKind::Punct('#') => {
                // Attribute: `#[...]` or inner `#![...]`.
                let mut j = k + 1;
                let inner = j < sig.len() && text(sig[j]) == "!";
                if inner {
                    j += 1;
                }
                if j < sig.len() && toks[sig[j]].kind == TokKind::Punct('[') {
                    // Collect the bracketed token slice.
                    let mut bdepth = 0usize;
                    let attr_start = j;
                    while j < sig.len() {
                        match toks[sig[j]].kind {
                            TokKind::Punct('[') => bdepth += 1,
                            TokKind::Punct(']') => {
                                bdepth -= 1;
                                if bdepth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if !inner {
                        let words: Vec<&str> = sig[attr_start..=j.min(sig.len() - 1)]
                            .iter()
                            .map(|&x| text(x))
                            .collect();
                        if attr_implies_test(&words) {
                            header_test_attr = true;
                        }
                    }
                    k = j + 1;
                    continue;
                }
                header.push(i);
                k += 1;
            }
            TokKind::Punct('{') => {
                let test_only = inherited_test(&scopes) || header_test_attr;
                let start_line = header_start_line.unwrap_or(t.line);
                let kind = classify_header(src, toks, &header);
                match kind {
                    HeaderKind::Fn { name_at } => {
                        let name = name_at.map(|x| text(x).to_string()).unwrap_or_default();
                        let params = parse_params(src, toks, &sig, &header, name_at);
                        let qual = qual_path(&scopes, &name);
                        let impl_type = scopes.iter().rev().find_map(|s| {
                            (s.kind == ScopeKind::Impl || s.kind == ScopeKind::Trait)
                                .then(|| s.path_seg.clone())
                                .flatten()
                        });
                        tree.fns.push(FnItem {
                            name,
                            qual,
                            impl_type,
                            params,
                            line_start: start_line,
                            line_end: t.line,   // fixed at close
                            body: i + 1..i + 1, // end fixed at close
                            in_test: test_only,
                        });
                        let fn_idx = tree.fns.len() - 1;
                        scopes.push(Scope {
                            kind: ScopeKind::Fn(fn_idx),
                            close_at: depth,
                            path_seg: None,
                            start_line,
                            test_only,
                        });
                    }
                    HeaderKind::Mod { name } => {
                        scopes.push(Scope {
                            kind: ScopeKind::Mod,
                            close_at: depth,
                            path_seg: Some(name),
                            start_line,
                            test_only,
                        });
                    }
                    HeaderKind::Impl { self_ty } => {
                        scopes.push(Scope {
                            kind: ScopeKind::Impl,
                            close_at: depth,
                            path_seg: self_ty,
                            start_line,
                            test_only,
                        });
                    }
                    HeaderKind::Trait { name } => {
                        scopes.push(Scope {
                            kind: ScopeKind::Trait,
                            close_at: depth,
                            path_seg: Some(name),
                            start_line,
                            test_only,
                        });
                    }
                    HeaderKind::Struct => {
                        scopes.push(Scope {
                            kind: ScopeKind::Struct,
                            close_at: depth,
                            path_seg: None,
                            start_line,
                            test_only,
                        });
                    }
                    HeaderKind::Plain => {
                        scopes.push(Scope {
                            kind: ScopeKind::Block,
                            close_at: depth,
                            path_seg: None,
                            start_line,
                            test_only,
                        });
                    }
                }
                depth += 1;
                header.clear();
                header_nest = 0;
                header_test_attr = false;
                header_start_line = None;
                k += 1;
            }
            TokKind::Punct('}') => {
                // A struct's last field often has no trailing comma.
                collect_field(src, toks, &scopes, &header, &mut tree);
                depth = depth.saturating_sub(1);
                while let Some(top) = scopes.last() {
                    if top.close_at != depth {
                        break;
                    }
                    let top = scopes.pop().expect("non-empty");
                    if top.test_only {
                        mark_lines(&mut tree.test_lines, top.start_line, t.line);
                    }
                    if let ScopeKind::Fn(idx) = top.kind {
                        tree.fns[idx].line_end = t.line;
                        let body_start = tree.fns[idx].body.start;
                        tree.fns[idx].body = body_start..i;
                    }
                    if top.kind == ScopeKind::Struct {
                        // Fields were collected inline below.
                    }
                }
                header.clear();
                header_nest = 0;
                header_test_attr = false;
                header_start_line = None;
                k += 1;
            }
            TokKind::Punct(';') if header_nest > 0 => {
                header.push(i);
                k += 1;
            }
            TokKind::Punct(';') => {
                // `#[cfg(test)] use …;` — a braceless test-only item.
                if header_test_attr {
                    let start = header_start_line.unwrap_or(t.line);
                    mark_lines(&mut tree.test_lines, start, t.line);
                }
                // Struct field declarations end at `,`; tuple structs
                // and consts end at `;`. Either way the header resets.
                collect_field(src, toks, &scopes, &header, &mut tree);
                header.clear();
                header_nest = 0;
                header_test_attr = false;
                header_start_line = None;
                k += 1;
            }
            TokKind::Punct(',') => {
                if header_nest == 0 && scopes.last().map(|s| s.kind) == Some(ScopeKind::Struct) {
                    collect_field(src, toks, &scopes, &header, &mut tree);
                    header.clear();
                    header_nest = 0;
                    header_start_line = None;
                } else {
                    header.push(i);
                }
                k += 1;
            }
            _ => {
                match t.kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => header_nest += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => {
                        header_nest = (header_nest - 1).max(0)
                    }
                    _ => {}
                }
                header.push(i);
                k += 1;
            }
        }
    }
    // Whole-file test inheritance cannot happen (no inner-attr cfg),
    // but an unterminated scope (unbalanced braces) should still mark
    // what it covered.
    for s in scopes {
        if s.test_only {
            mark_lines(&mut tree.test_lines, s.start_line, n_lines);
        }
    }
    tree
}

fn mark_lines(test_lines: &mut [bool], start: usize, end: usize) {
    for line in start..=end.min(test_lines.len()) {
        if let Some(slot) = test_lines.get_mut(line - 1) {
            *slot = true;
        }
    }
}

fn qual_path(scopes: &[Scope], name: &str) -> String {
    let mut parts: Vec<&str> = scopes
        .iter()
        .filter_map(|s| s.path_seg.as_deref())
        .collect();
    parts.push(name);
    parts.join("::")
}

enum HeaderKind {
    Fn { name_at: Option<usize> },
    Mod { name: String },
    Impl { self_ty: Option<String> },
    Trait { name: String },
    Struct,
    Plain,
}

/// Classify what an opening `{` belongs to from its header tokens.
fn classify_header(src: &str, toks: &[Tok], header: &[usize]) -> HeaderKind {
    let text = |i: usize| toks[i].text(src);
    for (h, &i) in header.iter().enumerate() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        match text(i) {
            "fn" => {
                let name_at = header
                    .get(h + 1)
                    .copied()
                    .filter(|&j| toks[j].kind == TokKind::Ident);
                return HeaderKind::Fn { name_at };
            }
            "mod" => {
                let name = header
                    .get(h + 1)
                    .map(|&j| text(j).to_string())
                    .unwrap_or_default();
                return HeaderKind::Mod { name };
            }
            "impl" => {
                return HeaderKind::Impl {
                    self_ty: impl_self_type(src, toks, &header[h + 1..]),
                };
            }
            "trait" => {
                let name = header
                    .get(h + 1)
                    .map(|&j| text(j).to_string())
                    .unwrap_or_default();
                return HeaderKind::Trait { name };
            }
            "struct" | "enum" | "union" => return HeaderKind::Struct,
            // `match x {`, `loop {`, `while … {`, `if … {`, struct
            // literals, closures: anonymous blocks. `for … in … {` too.
            _ => {}
        }
    }
    HeaderKind::Plain
}

/// Self-type name of an `impl` header: the last path segment before the
/// generics of the implemented-on type (after `for` in trait impls).
fn impl_self_type(src: &str, toks: &[Tok], rest: &[usize]) -> Option<String> {
    let text = |i: usize| toks[i].text(src);
    // Prefer the segment after `for`; otherwise the whole rest.
    let after_for = rest
        .iter()
        .position(|&i| toks[i].kind == TokKind::Ident && text(i) == "for")
        .map(|p| &rest[p + 1..])
        .unwrap_or(rest);
    let mut last_ident = None;
    let mut angle = 0i32;
    let mut idx = 0usize;
    while idx < after_for.len() {
        let i = after_for[idx];
        match toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                // `->` return arrows don't close impl generics here.
                angle -= 1;
            }
            TokKind::Ident if angle == 0 => {
                let w = text(i);
                if w != "for" && w != "dyn" && w != "where" {
                    last_ident = Some(w.to_string());
                }
                if w == "where" {
                    break;
                }
            }
            _ => {}
        }
        idx += 1;
    }
    last_ident
}

/// Parse the parameter list following the fn name in a header.
fn parse_params(
    src: &str,
    toks: &[Tok],
    _sig: &[usize],
    header: &[usize],
    name_at: Option<usize>,
) -> Vec<(String, String)> {
    let text = |i: usize| toks[i].text(src);
    let Some(name_tok) = name_at else {
        return Vec::new();
    };
    let start = match header.iter().position(|&i| i == name_tok) {
        Some(p) => p + 1,
        None => return Vec::new(),
    };
    // Skip generics, find the opening paren.
    let mut idx = start;
    let mut angle = 0i32;
    while idx < header.len() {
        match toks[header[idx]].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct('(') if angle <= 0 => break,
            _ => {}
        }
        idx += 1;
    }
    if idx >= header.len() {
        return Vec::new();
    }
    // Collect top-level comma-separated params inside the parens.
    let mut params = Vec::new();
    let mut pdepth = 0i32;
    let mut cur: Vec<usize> = Vec::new();
    let mut parts: Vec<Vec<usize>> = Vec::new();
    for &i in &header[idx..] {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => {
                pdepth += 1;
                if pdepth > 1 {
                    cur.push(i);
                }
            }
            TokKind::Punct(')') | TokKind::Punct(']') => {
                pdepth -= 1;
                if pdepth == 0 {
                    break;
                }
                cur.push(i);
            }
            TokKind::Punct(',') if pdepth == 1 => {
                parts.push(std::mem::take(&mut cur));
            }
            _ if pdepth >= 1 => cur.push(i),
            _ => {}
        }
    }
    if !cur.is_empty() {
        parts.push(cur);
    }
    for part in parts {
        if part
            .iter()
            .any(|&i| toks[i].kind == TokKind::Ident && text(i) == "self")
        {
            params.push(("self".to_string(), "Self".to_string()));
            continue;
        }
        // Split at the top-level `:` (angle-bracket aware for the type).
        let Some(colon) = part
            .iter()
            .position(|&i| toks[*&i].kind == TokKind::Punct(':'))
        else {
            continue;
        };
        // `path::seg` double colons: skip `:` directly adjacent to
        // another `:`.
        if colon + 1 < part.len() && toks[part[colon + 1]].kind == TokKind::Punct(':') {
            continue; // pathological; ignore this param
        }
        let name = part[..colon]
            .iter()
            .rev()
            .find(|&&i| toks[i].kind == TokKind::Ident && text(i) != "mut")
            .map(|&i| text(i).to_string());
        let ty: String = part[colon + 1..]
            .iter()
            .map(|&i| text(i))
            .collect::<Vec<_>>()
            .join(" ");
        if let Some(name) = name {
            params.push((name, ty));
        }
    }
    params
}

/// Inside a struct scope, record `name: IntType` field declarations.
fn collect_field(src: &str, toks: &[Tok], scopes: &[Scope], header: &[usize], tree: &mut ItemTree) {
    if scopes.last().map(|s| s.kind) != Some(ScopeKind::Struct) {
        return;
    }
    let text = |i: usize| toks[i].text(src);
    let Some(colon) = header
        .iter()
        .position(|&i| toks[i].kind == TokKind::Punct(':'))
    else {
        return;
    };
    if colon + 1 < header.len() && toks[header[colon + 1]].kind == TokKind::Punct(':') {
        return;
    }
    let name = header[..colon]
        .iter()
        .rev()
        .find(|&&i| toks[i].kind == TokKind::Ident)
        .map(|&i| text(i).to_string());
    let ty: String = header[colon + 1..]
        .iter()
        .map(|&i| text(i))
        .collect::<Vec<_>>()
        .join(" ");
    if let Some(name) = name {
        if is_int_type(&ty) {
            tree.int_fields.insert(name, ty);
        }
    }
}

/// Does a `#[cfg(...)]`-style attribute (given as its token texts,
/// starting at `[`) make the item test-only?
///
/// Exact evaluation of the `cfg` predicate under "does this imply
/// `test`": `test` → yes, `all(a, …)` → any operand implies test,
/// `any(a, …)` → **all** operands imply test (otherwise the item also
/// compiles outside tests), `not(…)` → no.
fn attr_implies_test(words: &[&str]) -> bool {
    // words looks like: [ cfg ( … ) ] — also accept cfg_attr's first arg.
    if words.len() < 3 || words[0] != "[" {
        return false;
    }
    if words[1] != "cfg" {
        return false;
    }
    // Strip `[ cfg ( … ) ]` to the inner predicate tokens.
    let inner = &words[3..words.len().saturating_sub(2).max(3).min(words.len())];
    let inner: Vec<&str> = if words.len() >= 5 {
        words[3..words.len() - 2].to_vec()
    } else {
        inner.to_vec()
    };
    let mut pos = 0usize;
    implies_test(&inner, &mut pos)
}

/// Recursive-descent over one cfg predicate at `words[*pos..]`.
fn implies_test(words: &[&str], pos: &mut usize) -> bool {
    let Some(&head) = words.get(*pos) else {
        return false;
    };
    *pos += 1;
    match head {
        // `doctest` builds are test-only too: `any(test, doctest)`
        // never compiles into a live binary.
        "test" | "doctest" => true,
        "all" | "any" | "not" => {
            if words.get(*pos) != Some(&"(") {
                return false;
            }
            *pos += 1;
            let mut operands = Vec::new();
            loop {
                match words.get(*pos) {
                    None | Some(&")") => {
                        *pos += 1;
                        break;
                    }
                    Some(&",") => {
                        *pos += 1;
                    }
                    _ => {
                        operands.push(implies_test(words, pos));
                    }
                }
            }
            match head {
                "all" => operands.iter().any(|&b| b),
                "any" => !operands.is_empty() && operands.iter().all(|&b| b),
                _ => false, // not(…)
            }
        }
        _ => {
            // `feature = "x"` or similar: skip a possible `= value`.
            if words.get(*pos) == Some(&"=") {
                *pos += 2;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn tree(src: &str) -> ItemTree {
        build(src, &lex(src))
    }

    #[test]
    fn fn_and_method_paths() {
        let src = "mod a {\n    pub struct S { pub n: u64 }\n    impl S {\n        pub fn bump(&mut self, by: u64) -> u64 { self.n }\n    }\n    fn free(x: usize) {}\n}\n";
        let t = tree(src);
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].qual, "a::S::bump");
        assert_eq!(t.fns[0].impl_type.as_deref(), Some("S"));
        assert_eq!(
            t.fns[0].params,
            vec![
                ("self".to_string(), "Self".to_string()),
                ("by".to_string(), "u64".to_string())
            ]
        );
        assert_eq!(t.fns[1].qual, "a::free");
        assert_eq!(
            t.fns[1].params,
            vec![("x".to_string(), "usize".to_string())]
        );
        assert_eq!(t.int_fields.get("n").map(String::as_str), Some("u64"));
    }

    #[test]
    fn trait_impl_self_type() {
        let src = "impl<T: Ord> std::fmt::Display for Entry<T> {\n    fn fmt(&self) {}\n}\n";
        let t = tree(src);
        assert_eq!(t.fns[0].impl_type.as_deref(), Some("Entry"));
    }

    #[test]
    fn cfg_test_variants() {
        let src = "\
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn a() {}
    mod nested { fn b() {} }
}
#[cfg(all(test, feature = \"slow\"))]
fn gated() {}
#[cfg(any(test, feature = \"x\"))]
fn not_test_only() {}
#[cfg(any(test, doctest))]
fn both_test() {}
";
        let t = tree(src);
        assert!(!t.line_in_test(1));
        assert!(t.line_in_test(2)); // attribute line
        assert!(t.line_in_test(4));
        assert!(t.line_in_test(5)); // nested module
        assert!(t.line_in_test(8)); // all(test, …)
        assert!(!t.line_in_test(10)); // any(test, feature) also compiles live
        assert!(t.line_in_test(12)); // any(test, doctest): every arm is test-only
    }

    #[test]
    fn nested_cfg_test_modules_span_exactly() {
        let src = "\
mod outer {
    #[cfg(test)]
    mod tests {
        #[cfg(test)]
        mod inner { fn f() {} }
        fn g() {}
    }
    fn live() {}
}
";
        let t = tree(src);
        assert!(t.line_in_test(2));
        assert!(t.line_in_test(5));
        assert!(t.line_in_test(6));
        assert!(!t.line_in_test(8)); // live() after the region closes
    }

    #[test]
    fn fn_at_line_picks_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        x();\n    }\n}\n";
        let t = tree(src);
        assert_eq!(t.fn_at_line(3).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(t.fn_at_line(1).map(|f| f.name.as_str()), Some("outer"));
    }

    #[test]
    fn braceless_cfg_test_item() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let t = tree(src);
        assert!(t.line_in_test(1));
        assert!(t.line_in_test(2));
        assert!(!t.line_in_test(3));
    }

    #[test]
    fn match_arms_and_struct_literals_are_plain_blocks() {
        let src = "fn f(x: u8) -> P {\n    match x {\n        0 => P { a: 1 },\n        _ => P { a: 2 },\n    }\n}\n";
        let t = tree(src);
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].line_end, 6);
    }

    #[test]
    fn array_return_type_does_not_split_the_header() {
        // The `;` inside `[u8; 16]` is part of the return type, not an
        // item boundary: the fn must still be recorded with a body.
        let src = "impl Aead {\n    fn seal(&self, buf: &mut [u8]) -> [u8; 16] {\n        work();\n    }\n}\n";
        let t = tree(src);
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "seal");
        assert_eq!(t.fns[0].qual, "Aead::seal");
        assert!(!t.fns[0].body.is_empty());
    }

    #[test]
    fn tuple_and_array_struct_fields_survive_inner_separators() {
        // Commas inside `(u32, u32)` and the `;` inside `[u32; 4]` must
        // not be taken for field separators / item boundaries.
        let src = "struct S {\n    pad: [u32; 4],\n    pair: (u32, u32),\n    n: u64,\n}\nfn after() {}\n";
        let t = tree(src);
        assert_eq!(
            t.int_fields.get("pad").map(String::as_str),
            Some("[ u32 ; 4 ]")
        );
        assert_eq!(t.int_fields.get("n").map(String::as_str), Some("u64"));
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "after");
    }

    #[test]
    fn closure_header_does_not_poison_following_boundaries() {
        // `|x| {` opens a block while the header still has an open `(`;
        // the nest counter must reset so later fns are still seen.
        let src =
            "fn a(v: Vec<u8>) {\n    v.iter().map(|x| {\n        x + 1\n    });\n}\nfn b() {}\n";
        let t = tree(src);
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
