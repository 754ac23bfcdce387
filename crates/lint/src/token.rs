//! # token — the Rust-lite tokenizer under `doem-lint`'s static analyses
//!
//! One lexer serves every rule: [`classify`] labels each source byte
//! code, comment or literal; the line-stripper ([`crate::strip_source`])
//! renders those classes as blanked bytes so regex-ish line rules can't
//! be fooled by strings, and the lock-order analysis (DESIGN.md §13)
//! reads the token stream [`tokenize`] builds from them: identifiers,
//! punctuation, and line numbers.
//!
//! The tokenizer is deliberately "Rust-lite": it knows identifiers,
//! lifetimes, numbers, string/char literals, comments, and single-byte
//! punctuation. It does not know about macros, generics-vs-shift
//! ambiguity, or attribute grammar — the downstream parser treats those
//! as token soup, which is the documented completeness trade.

// ---------------------------------------------------------------------------
// Per-byte classification
// ---------------------------------------------------------------------------

/// What kind of lexical region a source byte belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Plain code: identifiers, punctuation, whitespace.
    Code,
    /// Inside a `//` comment (including the slashes).
    LineComment,
    /// Inside a `/* */` comment (including the delimiters).
    BlockComment,
    /// Inside a `"…"` or `b"…"` string literal (including quotes/prefix).
    Str,
    /// Inside an `r#"…"#`-style raw string (including prefix and hashes).
    RawStr,
    /// Inside a `'x'` char literal (including quotes).
    Char,
}

impl Class {
    /// Whether the stripper blanks bytes of this class.
    pub fn is_opaque(self) -> bool {
        !matches!(self, Class::Code)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Classify every byte of `src`. Never panics; output length equals
/// `src.len()`.
pub fn classify(src: &str) -> Vec<Class> {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut mode = Mode::Code;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match mode {
            Mode::Code => match b {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    mode = Mode::LineComment;
                    out.extend_from_slice(&[Class::LineComment; 2]);
                    i += 2;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    mode = Mode::BlockComment(1);
                    out.extend_from_slice(&[Class::BlockComment; 2]);
                    i += 2;
                }
                b'"' => {
                    mode = Mode::Str;
                    out.push(Class::Str);
                    i += 1;
                }
                b'r' | b'b' => {
                    let mut j = i + 1;
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (b == b'r' || bytes.get(i + 1) == Some(&b'r') || hashes == 0)
                        && bytes.get(j) == Some(&b'"')
                        && (b != b'b' || bytes.get(i + 1) == Some(&b'r') || j == i + 1);
                    if is_raw && (b == b'r' || bytes.get(i + 1) == Some(&b'r')) {
                        mode = Mode::RawStr(hashes);
                        out.extend(std::iter::repeat_n(Class::RawStr, j - i + 1));
                        i = j + 1;
                    } else if b == b'b' && bytes.get(i + 1) == Some(&b'"') {
                        mode = Mode::Str;
                        out.extend_from_slice(&[Class::Str; 2]);
                        i += 2;
                    } else {
                        out.push(Class::Code);
                        i += 1;
                    }
                }
                b'\'' => {
                    if bytes.get(i + 1) == Some(&b'\\') {
                        mode = Mode::Char;
                        out.push(Class::Char);
                        i += 1;
                    } else if bytes.get(i + 2) == Some(&b'\'')
                        && bytes.get(i + 1).is_some_and(|c| *c != b'\'')
                    {
                        out.extend_from_slice(&[Class::Char; 3]);
                        i += 3;
                    } else {
                        out.push(Class::Code);
                        i += 1;
                    }
                }
                _ => {
                    out.push(Class::Code);
                    i += 1;
                }
            },
            Mode::LineComment => {
                if b == b'\n' {
                    mode = Mode::Code;
                    // The stripper keeps the newline; it still *ends* the
                    // comment, so classify it as code (it is emitted
                    // verbatim either way).
                    out.push(Class::Code);
                } else {
                    out.push(Class::LineComment);
                }
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    mode = if depth <= 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    out.extend_from_slice(&[Class::BlockComment; 2]);
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    mode = Mode::BlockComment(depth.saturating_add(1));
                    out.extend_from_slice(&[Class::BlockComment; 2]);
                    i += 2;
                } else {
                    out.push(Class::BlockComment);
                    i += 1;
                }
            }
            Mode::Str => {
                if b == b'\\' {
                    out.push(Class::Str);
                    if bytes.get(i + 1).is_some() {
                        out.push(Class::Str);
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if b == b'"' {
                    mode = Mode::Code;
                    out.push(Class::Str);
                    i += 1;
                } else {
                    out.push(Class::Str);
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if b == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        mode = Mode::Code;
                        out.extend(std::iter::repeat_n(Class::RawStr, j - i));
                        i = j;
                    } else {
                        out.push(Class::RawStr);
                        i += 1;
                    }
                } else {
                    out.push(Class::RawStr);
                    i += 1;
                }
            }
            Mode::Char => {
                if b == b'\\' && bytes.get(i + 1).is_some() {
                    out.extend_from_slice(&[Class::Char; 2]);
                    i += 2;
                } else if b == b'\'' {
                    mode = Mode::Code;
                    out.push(Class::Char);
                    i += 1;
                } else if b == b'\n' {
                    // The stripper bails back to code on an unterminated
                    // char literal at end of line; mirror that.
                    mode = Mode::Code;
                    out.push(Class::Code);
                    i += 1;
                } else {
                    out.push(Class::Char);
                    i += 1;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

/// Token kind in the Rust-lite grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `shard`, …).
    Ident,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A numeric literal.
    Num,
    /// A string literal (normal, byte, or raw), quotes included.
    Str,
    /// A char literal, quotes included.
    Char,
    /// A `//` comment, slashes included.
    LineComment,
    /// A `/* */` comment, delimiters included.
    BlockComment,
    /// One byte of punctuation (`.`, `(`, `{`, `;`, …).
    Punct(u8),
}

/// One token: kind, source slice, 1-based start line, byte offset.
#[derive(Clone, Copy, Debug)]
pub struct Tok<'a> {
    /// What the token is.
    pub kind: TokKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// Byte offset of the token's first byte.
    pub start: usize,
}

impl<'a> Tok<'a> {
    /// True iff this is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True iff this is the punctuation byte `p`.
    pub fn is_punct(&self, p: u8) -> bool {
        self.kind == TokKind::Punct(p)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `src`. Comments and literals become single tokens (so nothing
/// downstream can be fooled by code-looking bytes inside them); code
/// regions are split into identifiers, lifetimes, numbers, and one-byte
/// punctuation. Whitespace is dropped. Never panics on any input.
pub fn tokenize(src: &str) -> Vec<Tok<'_>> {
    let classes = classify(src);
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;
    while i < bytes.len() {
        let class = classes.get(i).copied().unwrap_or(Class::Code);
        if class.is_opaque() {
            // Consume the whole contiguous opaque run of the same class.
            let start = i;
            let start_line = line;
            while i < bytes.len()
                && classes.get(i).copied().unwrap_or(Class::Code) == class
            {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            let kind = match class {
                Class::LineComment => TokKind::LineComment,
                Class::BlockComment => TokKind::BlockComment,
                Class::Str | Class::RawStr => TokKind::Str,
                Class::Char => TokKind::Char,
                Class::Code => unreachable!("opaque run of Code class"),
            };
            toks.push(Tok {
                kind,
                text: src.get(start..i).unwrap_or(""),
                line: start_line,
                start,
            });
            continue;
        }
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if is_ident_start(b) {
            let start = i;
            while i < bytes.len()
                && is_ident_continue(bytes[i])
                && !classes.get(i).map(|c| c.is_opaque()).unwrap_or(false)
            {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: src.get(start..i).unwrap_or(""),
                line,
                start,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                && !classes.get(i).map(|c| c.is_opaque()).unwrap_or(false)
            {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: src.get(start..i).unwrap_or(""),
                line,
                start,
            });
            continue;
        }
        if b == b'\'' {
            // A code-classified quote is a lifetime marker (the classifier
            // already took char literals): consume `'ident`.
            let start = i;
            i += 1;
            while i < bytes.len()
                && is_ident_continue(bytes[i])
                && !classes.get(i).map(|c| c.is_opaque()).unwrap_or(false)
            {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Lifetime,
                text: src.get(start..i).unwrap_or(""),
                line,
                start,
            });
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct(b),
            text: src.get(i..i + 1).unwrap_or(""),
            line,
            start: i,
        });
        i += 1;
    }
    toks
}

/// The lines (1-based) carrying a *live* `// lint: allow` marker: a plain
/// line comment (not a `///`/`//!` doc comment, not a string literal)
/// whose content starts with `lint: allow`. This is deliberately stricter
/// than the historical "any line containing the text" match — prose in doc
/// comments *about* the marker, and marker text inside string literals, no
/// longer count as suppressions (they used to, silently suppressing
/// nothing — the stale-allow audit exists to keep that set empty).
pub fn allow_marker_lines(src: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for t in tokenize(src) {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/');
        // `///` and `//!` doc comments leave `/`-stripped text starting
        // with the doc marker's content; a doc comment is documentation,
        // not a suppression.
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        if body.trim_start().starts_with("lint: allow") {
            out.push(t.line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basics() {
        let toks = tokenize("fn f(x: &str) -> u32 { x.len() }");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, ["fn", "f", "x", "str", "u32", "x", "len"]);
    }

    #[test]
    fn tokenize_lines_and_literals() {
        let toks = tokenize("let a = \"two\nlines\";\nlet b = 'c';");
        let s = toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string token");
        assert_eq!(s.line, 1);
        let b_ident = toks
            .iter()
            .find(|t| t.is_ident("b"))
            .expect("ident b");
        assert_eq!(b_ident.line, 3);
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn tokenize_lifetimes_are_not_chars() {
        let toks = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            3
        );
        assert!(!toks.iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn allow_markers_are_real_comments_only() {
        let src = "\
// lint: allow
x.unwrap(); // lint: allow trailing form
/// a doc comment describing `// lint: allow` is not a marker
//! neither is module doc prose about lint: allow
let s = \"// lint: allow inside a string is not a marker\";
";
        assert_eq!(allow_marker_lines(src), vec![1, 2]);
    }
}
