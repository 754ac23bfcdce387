//! # token — the per-byte lexer under `doem-lint`'s line rules
//!
//! [`classify`] labels each source byte code, comment or literal. The
//! line-stripper ([`crate::strip_source`]) renders those classes as
//! blanked bytes, so the line rules can't be fooled by strings or
//! comments, and [`allow_marker_lines`] reads the line comments from them
//! to find `// lint: allow` markers.

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

/// The lines (1-based) carrying a *live* `// lint: allow` marker: a plain
/// line comment (not a `///`/`//!` doc comment, not a string literal)
/// whose content starts with `lint: allow`. This is deliberately stricter
/// than the historical "any line containing the text" match — prose in doc
/// comments *about* the marker, and marker text inside string literals, no
/// longer count as suppressions (they used to, silently suppressing
/// nothing — the stale-allow audit exists to keep that set empty).
pub fn allow_marker_lines(src: &str) -> Vec<u32> {
    let classes = classify(src);
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;
    while i < src.len() {
        if classes.get(i) != Some(&Class::LineComment) {
            if src.as_bytes()[i] == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // A line comment runs to its newline, which is classed as code.
        let start = i;
        while classes.get(i) == Some(&Class::LineComment) {
            i += 1;
        }
        let text = src.get(start..i).unwrap_or("");
        // `///` and `//!` doc comments are documentation, not
        // suppressions.
        let doc = text.starts_with("///") || text.starts_with("//!");
        let body = text.trim_start_matches('/').trim_start();
        if !doc && body.starts_with("lint: allow") {
            out.push(line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
