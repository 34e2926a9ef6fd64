//! A dependency-free Rust lexer with byte spans.
//!
//! Produces a flat token stream whose spans tile the source exactly:
//! concatenating `&src[tok.start..tok.end]` over all tokens reassembles
//! the input byte-for-byte (pinned by `tests/lex_props.rs`). The item
//! tree ([`crate::items`]) and the token-level rule W1 are built
//! on top of this stream; the line-oriented [`crate::scan`] view is
//! derived from it too, so every rule sees one consistent tokenization.
//!
//! The lexer covers the subset of Rust this workspace uses: nested
//! block comments, all string forms (`"…"`, `r#"…"#`, `b"…"`, `br"…"`),
//! char literals vs lifetimes, raw identifiers, and numeric literals
//! with suffixes. Unknown bytes become one-byte [`TokKind::Unknown`]
//! tokens rather than errors — a linter must never die on the code it
//! is judging.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Whitespace run.
    Ws,
    /// `// …` (including doc `///` and `//!`) up to end of line.
    LineComment,
    /// `/* … */`, possibly nested and spanning lines.
    BlockComment,
    /// Identifier or keyword (`fn`, `unsafe`, `self`, names, …).
    Ident,
    /// Raw identifier `r#name`.
    RawIdent,
    /// Lifetime `'a` (no closing quote).
    Lifetime,
    /// Char literal `'x'`, `'\n'`, `'\u{1F600}'`; also byte `b'x'`.
    Char,
    /// String literal of any form (plain, raw, byte, byte-raw).
    Str,
    /// Integer literal (including `0x…`/`0b…`/`0o…` and suffixes).
    Int,
    /// Float literal (`1.0`, `1e9`, `2.5f64`).
    Float,
    /// One punctuation byte (`+`, `{`, `<`, …). Multi-byte operators
    /// appear as adjacent tokens; adjacency is checkable via spans.
    Punct(char),
    /// Any byte the lexer does not classify (kept verbatim).
    Unknown,
}

/// One token: kind plus its byte span and 1-based start line.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: usize,
}

impl Tok {
    /// The token's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// True for whitespace and comments.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

/// Lex `src` into a token stream whose spans tile the input.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    toks: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            self.toks.push(Tok {
                kind,
                start,
                end: self.pos,
                line,
            });
        }
        self.toks
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.bytes.get(self.pos + ahead).copied().unwrap_or(0)
    }

    /// Advance one byte, tracking line numbers.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            if self.pos < self.bytes.len() {
                self.bump();
            }
        }
    }

    fn next_kind(&mut self) -> TokKind {
        let b = self.bytes[self.pos];
        // Whitespace.
        if b.is_ascii_whitespace() {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.bump();
            }
            return TokKind::Ws;
        }
        // Comments.
        if b == b'/' && self.peek(1) == b'/' {
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                self.bump();
            }
            return TokKind::LineComment;
        }
        if b == b'/' && self.peek(1) == b'*' {
            self.bump_n(2);
            let mut depth = 1usize;
            while self.pos < self.bytes.len() && depth > 0 {
                if self.bytes[self.pos] == b'/' && self.peek(1) == b'*' {
                    depth += 1;
                    self.bump_n(2);
                } else if self.bytes[self.pos] == b'*' && self.peek(1) == b'/' {
                    depth -= 1;
                    self.bump_n(2);
                } else {
                    self.bump();
                }
            }
            return TokKind::BlockComment;
        }
        // Raw identifiers and raw/byte string prefixes.
        if b == b'r' || b == b'b' {
            if let Some(kind) = self.try_prefixed_literal() {
                return kind;
            }
        }
        // Identifiers (ASCII; this workspace has no unicode idents).
        if b.is_ascii_alphabetic() || b == b'_' {
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
            {
                self.bump();
            }
            return TokKind::Ident;
        }
        // Numbers.
        if b.is_ascii_digit() {
            return self.lex_number();
        }
        // Strings.
        if b == b'"' {
            self.bump();
            self.lex_str_body(0);
            return TokKind::Str;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            return self.lex_quote();
        }
        // Punctuation (single ASCII byte).
        if b.is_ascii_punctuation() {
            self.bump();
            return TokKind::Punct(b as char);
        }
        // Anything else (unicode in the raw text outside comments —
        // should not happen, but never fail): consume one char.
        let ch_len = self.src[self.pos..]
            .chars()
            .next()
            .map_or(1, char::len_utf8);
        self.bump_n(ch_len);
        TokKind::Unknown
    }

    /// `r#ident`, `r"…"`, `r#"…"#`, `b"…"`, `br"…"`, `b'x'` — or None
    /// when the `r`/`b` is just the start of a plain identifier.
    fn try_prefixed_literal(&mut self) -> Option<TokKind> {
        let b = self.bytes[self.pos];
        let (raw_at, byte_prefix) = match (b, self.peek(1)) {
            (b'r', b'#') => {
                // Raw identifier r#name (not r#" which is a raw string).
                if self.peek(2) == b'"' {
                    (1, false)
                } else if self.peek(2).is_ascii_alphabetic() || self.peek(2) == b'_' {
                    self.bump_n(2);
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos].is_ascii_alphanumeric()
                            || self.bytes[self.pos] == b'_')
                    {
                        self.bump();
                    }
                    return Some(TokKind::RawIdent);
                } else {
                    return None;
                }
            }
            (b'r', b'"') => (1, false),
            (b'b', b'r') => (2, false),
            (b'b', b'"') => (1, true),
            (b'b', b'\'') => {
                // Byte char literal b'x'.
                self.bump(); // b
                return Some(self.lex_quote());
            }
            _ => return None,
        };
        let _ = byte_prefix;
        // Count hashes after the raw marker.
        let mut hashes = 0usize;
        while self.peek(raw_at + hashes) == b'#' {
            hashes += 1;
        }
        if self.peek(raw_at + hashes) != b'"' {
            return None; // plain identifier starting with r/b
        }
        if raw_at == 1 && self.bytes[self.pos] == b'b' {
            // b"…": not raw, ordinary escapes.
            self.bump_n(2); // b"
            self.lex_str_body(0);
            return Some(TokKind::Str);
        }
        self.bump_n(raw_at + hashes + 1); // prefix, hashes, opening quote
                                          // Raw body: ends at `"` followed by `hashes` hashes.
        loop {
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.bytes[self.pos] == b'"' {
                let mut got = 0usize;
                while got < hashes && self.peek(1 + got) == b'#' {
                    got += 1;
                }
                if got == hashes {
                    self.bump_n(1 + hashes);
                    break;
                }
            }
            self.bump();
        }
        Some(TokKind::Str)
    }

    /// Body of a non-raw string: consume through the closing quote,
    /// honoring `\"` escapes. The opening quote is already consumed.
    fn lex_str_body(&mut self, _hashes: usize) {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
    }

    /// `'…'` char literal or `'lt` lifetime. Positioned at the quote.
    fn lex_quote(&mut self) -> TokKind {
        self.bump(); // '
        if self.pos >= self.bytes.len() {
            return TokKind::Unknown;
        }
        let b = self.bytes[self.pos];
        if b == b'\\' {
            // Escaped char literal: skip to the closing quote.
            self.bump_n(2);
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                self.bump();
            }
            if self.pos < self.bytes.len() {
                self.bump();
            }
            return TokKind::Char;
        }
        if (b.is_ascii_alphabetic() || b == b'_') && self.peek(1) != b'\'' {
            // Lifetime: identifier chars, no closing quote.
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
            {
                self.bump();
            }
            return TokKind::Lifetime;
        }
        // 'x' (any single char, possibly multi-byte) then closing quote.
        let ch_len = self.src[self.pos..]
            .chars()
            .next()
            .map_or(1, char::len_utf8);
        self.bump_n(ch_len);
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b'\'' {
            self.bump();
        }
        TokKind::Char
    }

    /// Integer or float literal, with `_` separators and type suffixes.
    fn lex_number(&mut self) -> TokKind {
        let radix_prefix = self.bytes[self.pos] == b'0'
            && matches!(self.peek(1), b'x' | b'X' | b'b' | b'B' | b'o' | b'O');
        if radix_prefix {
            self.bump_n(2);
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
            {
                self.bump();
            }
            return TokKind::Int;
        }
        let mut float = false;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_digit() || self.bytes[self.pos] == b'_')
        {
            self.bump();
        }
        // `.` continues a float only when not `..` (range) and not a
        // method call (`1.max(2)`).
        if self.pos < self.bytes.len()
            && self.bytes[self.pos] == b'.'
            && self.peek(1) != b'.'
            && !self.peek(1).is_ascii_alphabetic()
            && self.peek(1) != b'_'
        {
            float = true;
            self.bump();
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos].is_ascii_digit() || self.bytes[self.pos] == b'_')
            {
                self.bump();
            }
        }
        // Exponent.
        if self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b'e' || self.bytes[self.pos] == b'E')
            && (self.peek(1).is_ascii_digit()
                || ((self.peek(1) == b'+' || self.peek(1) == b'-')
                    && self.peek(2).is_ascii_digit()))
        {
            float = true;
            self.bump_n(2);
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos].is_ascii_digit() || self.bytes[self.pos] == b'_')
            {
                self.bump();
            }
        }
        // Type suffix (u8, usize, f64, …).
        if self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b'u' || self.bytes[self.pos] == b'i')
        {
            let mut j = self.pos + 1;
            while j < self.bytes.len() && self.bytes[j].is_ascii_alphanumeric() {
                j += 1;
            }
            self.bump_n(j - self.pos);
        } else if self.pos < self.bytes.len() && self.bytes[self.pos] == b'f' {
            let rest = &self.bytes[self.pos..];
            if rest.starts_with(b"f32") || rest.starts_with(b"f64") {
                float = true;
                self.bump_n(3);
            }
        }
        if float {
            TokKind::Float
        } else {
            TokKind::Int
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reassemble(src: &str) -> String {
        lex(src).iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn spans_tile_the_source() {
        let cases = [
            "fn main() { let x = 1 + 2; }\n",
            "let s = \"hi \\\" there\"; // comment\n",
            "let r = r#\"raw \" string\"#; /* block /* nested */ */\n",
            "let b = b\"bytes\"; let c = b'x'; let q = '\\'';\n",
            "fn f<'a>(x: &'a str) -> &'a str { x }\n",
            "let f = 1.5e-9f64; let i = 0xFF_u64; let r = 1..5;\n",
            "let m = 1.max(2); let t = r#type;\n",
            "let multi = \"spans\nlines\"; // ok\n",
            "日本語 /* ≈ µs 中文 */ \"文字\"\n",
        ];
        for src in cases {
            assert_eq!(reassemble(src), src, "case: {src:?}");
        }
    }

    #[test]
    fn token_kinds() {
        let src = "fn f(x: u64) -> u64 { x + 1 }";
        let kinds: Vec<TokKind> = lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Ident,
                TokKind::Ident,
                TokKind::Punct('('),
                TokKind::Ident,
                TokKind::Punct(':'),
                TokKind::Ident,
                TokKind::Punct(')'),
                TokKind::Punct('-'),
                TokKind::Punct('>'),
                TokKind::Ident,
                TokKind::Punct('{'),
                TokKind::Ident,
                TokKind::Punct('+'),
                TokKind::Int,
                TokKind::Punct('}'),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        let src = "'a 'x' '\\n' b'z' 'static";
        let kinds: Vec<TokKind> = lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Lifetime,
                TokKind::Char,
                TokKind::Char,
                TokKind::Char,
                TokKind::Lifetime,
            ]
        );
    }

    #[test]
    fn floats_vs_ranges_vs_methods() {
        let src = "1.5 1..5 1.max(2) 2e9 3f64";
        let kinds: Vec<TokKind> = lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| t.kind)
            .collect();
        // 1.5 → Float; 1..5 → Int '.' '.' Int; 1.max(2) → Int '.' Ident …
        assert_eq!(kinds[0], TokKind::Float);
        assert_eq!(
            kinds[1..5],
            [
                TokKind::Int,
                TokKind::Punct('.'),
                TokKind::Punct('.'),
                TokKind::Int
            ]
        );
        assert_eq!(kinds[5], TokKind::Int);
        assert_eq!(kinds[6], TokKind::Punct('.'));
        assert_eq!(kinds[7], TokKind::Ident);
        assert!(kinds.contains(&TokKind::Float)); // 2e9
    }

    #[test]
    fn line_numbers() {
        let src = "a\nb\n/* x\ny */ c\n";
        let toks: Vec<Tok> = lex(src).into_iter().filter(|t| !t.is_trivia()).collect();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4); // c, after the multi-line comment
    }

    #[test]
    fn unterminated_forms_do_not_hang() {
        for src in ["\"unterminated", "r#\"open", "/* open", "'"] {
            let _ = lex(src); // must terminate
            assert_eq!(reassemble(src), src);
        }
    }
}
