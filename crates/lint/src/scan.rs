//! Source scanning: per-line views derived from the real lexer.
//!
//! Historically this module was a line-oriented state machine that
//! carried comment/string state across lines and guessed at
//! `#[cfg(test)]` regions by brace counting. It is now a thin
//! projection of the [`crate::lex`] token stream and the
//! [`crate::items`] item tree:
//!
//! * the *code text* per line — comments and string/char literal
//!   contents blanked out (columns preserved), so a `thread_rng` inside
//!   a doc comment or a format string never trips a token rule;
//! * the `// gfwlint: allow(RULE)` escapes parsed from each line's
//!   comments;
//! * whether the line sits inside a `#[cfg(test)]`-gated item —
//!   **exact**, including nested `mod tests` and `#[cfg(all(test, …))]`
//!   forms, because it comes from the item tree rather than a regex;
//! * the full token stream and item tree themselves, which the R1 and W1
//!   rules query directly.

use crate::items::{self, ItemTree};
use crate::lex::{self, Tok, TokKind};
use std::path::Path;

/// One scanned source line.
#[derive(Debug)]
pub struct Line {
    /// The line with comments and literal contents replaced by spaces.
    /// Columns are preserved, so byte offsets into `code` line up with
    /// the source line.
    pub code: String,
    /// True when the line is inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
    /// Rule IDs suppressed on this line via `// gfwlint: allow(...)`.
    pub allows: Vec<String>,
}

/// A scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// The scanned lines, 0-indexed (line numbers in findings are 1-based).
    pub lines: Vec<Line>,
    /// The full source text.
    pub text: String,
    /// The token stream for `text` (spans tile the source exactly).
    pub toks: Vec<Tok>,
    /// The structural item tree (fns, cfg regions, integer fields).
    pub items: ItemTree,
}

impl SourceFile {
    /// Scan `text` as the contents of `rel`.
    pub fn scan(rel: &str, text: &str) -> SourceFile {
        let toks = lex::lex(text);
        let items = items::build(text, &toks);

        // Blank a copy of the source: comments erased entirely, string
        // and char literal *contents* erased (delimiters kept so quoted
        // regions stay visually delimited). Newlines always survive so
        // the line structure is unchanged.
        let mut blanked: Vec<u8> = text.as_bytes().to_vec();
        let blank = |buf: &mut [u8], range: std::ops::Range<usize>| {
            for b in &mut buf[range] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        };
        let mut comments: Vec<(usize, String)> = Vec::new(); // (start line, text)
        for t in &toks {
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    comments.push((t.line, t.text(text).to_string()));
                    blank(&mut blanked, t.start..t.end);
                }
                TokKind::Str => {
                    // Keep the opening delimiter's quote and the final
                    // closing quote; blank the interior.
                    let s = t.text(text);
                    let open = s.find('"').map(|p| t.start + p);
                    let close = s.rfind('"').map(|p| t.start + p);
                    blank(&mut blanked, t.start..t.end);
                    if let Some(o) = open {
                        blanked[o] = b'"';
                    }
                    if let (Some(o), Some(c)) = (open, close) {
                        if c > o {
                            blanked[c] = b'"';
                        }
                    }
                }
                TokKind::Char => blank(&mut blanked, t.start..t.end),
                _ => {}
            }
        }
        let blanked = String::from_utf8(blanked).unwrap_or_else(|_| {
            // Blanking only rewrites ASCII bytes in-place, so this is
            // unreachable for valid input; fall back to the raw text.
            text.to_string()
        });

        // Distribute comment text across the lines each comment spans.
        let n_lines = text.lines().count();
        let mut per_line_comment = vec![String::new(); n_lines];
        for (start_line, ctext) in comments {
            for (off, piece) in ctext.split('\n').enumerate() {
                if let Some(slot) = per_line_comment.get_mut(start_line - 1 + off) {
                    slot.push_str(piece);
                }
            }
        }

        let mut lines = Vec::with_capacity(n_lines);
        let mut pending_allows: Vec<String> = Vec::new();
        for (idx, (code, comment)) in blanked.lines().zip(per_line_comment).enumerate() {
            let mut allows = parse_allows(&comment);
            if code.trim().is_empty() {
                // A comment-only line: its allows apply to the next code line.
                pending_allows.append(&mut allows);
            } else {
                allows.append(&mut pending_allows);
            }
            lines.push(Line {
                code: code.to_string(),
                in_test: items.line_in_test(idx + 1),
                allows,
            });
        }

        SourceFile {
            rel: rel.to_string(),
            lines,
            text: text.to_string(),
            toks,
            items,
        }
    }

    /// Load and scan a file on disk. `root` is the workspace root used
    /// to compute the relative path.
    pub fn load(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::scan(&rel, &text))
    }
}

/// Parse `gfwlint: allow(A1, W1)` escapes out of a comment.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("gfwlint: allow(") {
        let after = &rest[pos + "gfwlint: allow(".len()..];
        if let Some(end) = after.find(')') {
            for id in after[..end].split(',') {
                let id = id.trim();
                if !id.is_empty() {
                    out.push(id.to_string());
                }
            }
            rest = &after[end + 1..];
        } else {
            break;
        }
    }
    out
}

/// Does `code` contain `token` at an identifier boundary on both sides?
pub fn has_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let f = SourceFile::scan(
            "t.rs",
            "let x = 1; // thread_rng\n/* Instant::now */ let y = 2;\n",
        );
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert!(!f.lines[0].code.contains("thread_rng"));
        assert!(!f.lines[1].code.contains("Instant"));
        assert!(f.lines[1].code.contains("let y = 2;"));
    }

    #[test]
    fn allows_are_parsed_from_trailing_and_block_comments() {
        let src = "\
let a = 1; // gfwlint: allow(A1)
/* gfwlint: allow(W1) */ let b = 2;
let c = 3; /* gfwlint: allow(R1) */
/* spans
   gfwlint: allow(H1) */
let d = 4;
";
        let f = SourceFile::scan("t.rs", src);
        assert_eq!(f.lines[0].allows, vec!["A1"]);
        assert_eq!(f.lines[1].allows, vec!["W1"]);
        assert_eq!(f.lines[2].allows, vec!["R1"]);
        // A block comment's allow on a comment-only line applies to the
        // next code line.
        assert_eq!(f.lines[5].allows, vec!["H1"]);
    }

    #[test]
    fn strips_string_contents_including_raw_and_multiline() {
        let src = "let a = \"thread_rng\";\nlet b = r#\"Instant::now\"#;\nlet c = \"spans\nlines thread_rng\";\nlet d = 1;\n";
        let f = SourceFile::scan("t.rs", src);
        for line in &f.lines[..4] {
            assert!(!line.code.contains("thread_rng"), "{:?}", line.code);
            assert!(!line.code.contains("Instant"), "{:?}", line.code);
        }
        assert!(f.lines[4].code.contains("let d = 1;"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let f = SourceFile::scan(
            "t.rs",
            "fn f<'a>(x: &'a str) -> &'a str { thread_rng(x) }\n",
        );
        assert!(f.lines[0].code.contains("thread_rng"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let f = SourceFile::scan("t.rs", "let q = '\"'; let z = thread_rng();\n");
        assert!(f.lines[0].code.contains("thread_rng"));
        // The quote char literal must not open a string.
        assert!(f.lines[0].code.contains("let z"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::scan("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn nested_and_all_cfg_test_regions_are_exact() {
        let src = "\
mod m {
    #[cfg(test)]
    mod tests {
        mod inner { fn b() { x.unwrap(); } }
    }
    fn live() { y.unwrap(); }
}
#[cfg(all(test, feature = \"slow\"))]
fn gated() { z.unwrap(); }
";
        let f = SourceFile::scan("t.rs", src);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test); // nested module body
        assert!(!f.lines[5].in_test); // live() is NOT test code
        assert!(f.lines[7].in_test); // all(test, …) attribute line
        assert!(f.lines[8].in_test);
    }

    #[test]
    fn allows_attach_to_line_or_next_line() {
        let src =
            "let a = x.to_vec(); // gfwlint: allow(A1)\n// gfwlint: allow(A1, W1)\nlet b = 1;\n";
        let f = SourceFile::scan("t.rs", src);
        assert_eq!(f.lines[0].allows, vec!["A1"]);
        assert!(f.lines[1].allows.is_empty() || f.lines[1].code.trim().is_empty());
        assert_eq!(f.lines[2].allows, vec!["A1", "W1"]);
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("Method::ChaCha20 => 8", "ChaCha20"));
        assert!(!has_token("Method::ChaCha20Ietf => 12", "ChaCha20"));
        assert!(!has_token("XChaCha20IetfPoly1305", "ChaCha20IetfPoly1305"));
        assert!(has_token(
            "Method::ChaCha20IetfPoly1305 => 32",
            "ChaCha20IetfPoly1305"
        ));
    }
}
