//! The lexical rules of the paper's textual notation, shared by the OEM
//! text format ([`crate::parse_text`]) and the change-operation notation
//! ([`crate::parse_change_set`]) that every WAL record and replication
//! row carries:
//!
//! * atoms: `C`, `true`, `false`, integers (`-7`), reals (`2.5`, `1e3`),
//!   strings (`"say \"hi\""`) and timestamps (`@30Dec96 11:30pm`);
//! * labels: a bare word, or a backtick- or `"`-quoted string;
//! * words: runs of letters, digits, `-`, `_` and `&` (op names, node ids
//!   like `n7`, database names);
//! * whitespace and `//` comments to the end of the line, between tokens.
//!
//! Quoted strings and labels share one escape rule: `\n` is a newline,
//! `\t` a tab, and `\` before any other character is that character. The
//! writer quotes a label unless it is a non-empty word, so every label
//! reads back as itself and never spans a line.

use crate::{Label, NodeId, OemError, Result, Timestamp, Value};
use std::fmt;

/// Whether `c` may appear in a bare word.
pub(crate) fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '-' | '_' | '&')
}

/// The number `K` of a node-id word `nK`.
pub(crate) fn node_number(word: &str) -> Option<u64> {
    word.strip_prefix('n')?.parse().ok()
}

/// Write `s` between two `quote`s, escaping the quote, `\`, newline and
/// tab.
pub(crate) fn write_quoted(f: &mut impl fmt::Write, s: &str, quote: char) -> fmt::Result {
    f.write_char(quote)?;
    for c in s.chars() {
        match c {
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if c == quote || c == '\\' => write!(f, "\\{c}")?,
            c => f.write_char(c)?,
        }
    }
    f.write_char(quote)
}

/// A label (or database name) as the notation writes it: bare when it
/// is a word, else backtick-quoted.
pub(crate) struct LabelText<'a>(pub(crate) &'a str);

impl fmt::Display for LabelText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.0.is_empty() && self.0.chars().all(is_word_char) {
            f.write_str(self.0)
        } else {
            write_quoted(f, self.0, '`')
        }
    }
}

/// A cursor over notation text; errors carry 1-based line and column.
pub(crate) struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(src: &'a str) -> Reader<'a> {
        Reader { src, pos: 0 }
    }

    /// A syntax error at the cursor.
    pub(crate) fn err(&self, msg: impl Into<String>) -> OemError {
        let before = &self.src[..self.pos];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        OemError::Text {
            line: before.matches('\n').count() + 1,
            col: before[line_start..].chars().count() + 1,
            msg: msg.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// Skip whitespace and comments, then return the next character.
    pub(crate) fn peek(&mut self) -> Option<char> {
        loop {
            let rest = self.rest().trim_start();
            self.pos = self.src.len() - rest.len();
            if !rest.starts_with("//") {
                return rest.chars().next();
            }
            self.pos += rest.find('\n').unwrap_or(rest.len());
        }
    }

    /// Consume `want` if it comes next.
    pub(crate) fn eat(&mut self, want: char) -> bool {
        let hit = self.peek() == Some(want);
        if hit {
            self.pos += want.len_utf8();
        }
        hit
    }

    /// Consume `want`, which must come next.
    pub(crate) fn expect(&mut self, want: char) -> Result<()> {
        if self.eat(want) {
            return Ok(());
        }
        let found = self.rest().chars().next();
        Err(self.err(format!("expected {want:?}, found {found:?}")))
    }

    /// Require the end of the input.
    pub(crate) fn done(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(c) => Err(self.err(format!("trailing input at {c:?}"))),
        }
    }

    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest();
        let end = rest.find(|c| !keep(c)).unwrap_or(rest.len());
        self.pos += end;
        &rest[..end]
    }

    /// A non-empty bare word.
    pub(crate) fn word(&mut self) -> Result<&'a str> {
        self.peek();
        match self.take_while(is_word_char) {
            "" => Err(self.err("expected a word")),
            w => Ok(w),
        }
    }

    /// A node id `nK`.
    pub(crate) fn node_id(&mut self) -> Result<NodeId> {
        let w = self.word()?;
        node_number(w)
            .map(NodeId::from_raw)
            .ok_or_else(|| self.err(format!("expected a node id like n7, found {w:?}")))
    }

    /// A label: a bare word, or quoted with backticks or `"`.
    pub(crate) fn label(&mut self) -> Result<Label> {
        match self.peek() {
            Some(q @ ('`' | '"')) => self.quoted(q).map(Label::from),
            _ => self.word().map(Label::new),
        }
    }

    /// The text between the `quote` at the cursor and its closing match.
    fn quoted(&mut self, quote: char) -> Result<String> {
        let mut out = String::new();
        let mut chars = self.rest().char_indices().skip(1);
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, c)) => out.push(c),
                    None => break,
                },
                c if c == quote => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                c => out.push(c),
            }
        }
        Err(self.err(format!("unterminated {quote}-quoted text")))
    }

    /// Timestamp text up to the next `,`, `)`, `{`, `}` or line end.
    pub(crate) fn timestamp(&mut self) -> Result<Timestamp> {
        self.peek();
        let text = self.take_while(|c| !matches!(c, ',' | ')' | '{' | '}' | '\n'));
        text.trim()
            .parse()
            .map_err(|e: crate::ParseTimestampError| self.err(e.to_string()))
    }

    /// An atom, which must come next.
    pub(crate) fn value(&mut self) -> Result<Value> {
        self.atom()?.ok_or_else(|| self.err("expected a value"))
    }

    /// The atom that starts at the cursor, or `None`, consuming nothing,
    /// when none does.
    pub(crate) fn atom(&mut self) -> Result<Option<Value>> {
        let next = self.peek();
        let start = self.pos;
        Ok(Some(match next {
            Some('"') => Value::str(self.quoted('"')?),
            Some('@') => {
                self.pos += 1;
                Value::Time(self.timestamp()?)
            }
            Some(c) if c == '-' || c == '.' || c.is_ascii_digit() => self.number()?,
            _ => match self.word() {
                Ok("C") => Value::Complex,
                Ok("true") => Value::Bool(true),
                Ok("false") => Value::Bool(false),
                _ => {
                    self.pos = start;
                    return Ok(None);
                }
            },
        }))
    }

    /// `-`? digits (`.` digits)? (`e` `+`|`-`? digits)?: a real when it
    /// has a point or an exponent, else an integer. A real too large for
    /// an `f64` is refused, not read as infinity.
    fn number(&mut self) -> Result<Value> {
        let bytes = self.rest().as_bytes();
        let digits = |mut i: usize| {
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            i
        };
        let mut end = digits(usize::from(bytes[0] == b'-'));
        if bytes.get(end) == Some(&b'.') {
            end = digits(end + 1);
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            let sign = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
            if digits(sign) > sign {
                end = digits(sign);
            }
        }
        let text = &self.rest()[..end];
        let value = if text.contains(['.', 'e', 'E']) {
            match text.parse::<f64>() {
                Ok(r) if r.is_finite() => Ok(Value::Real(r)),
                Ok(_) => Err(format!("real {text:?} is out of range")),
                Err(e) => Err(format!("bad real {text:?}: {e}")),
            }
        } else {
            text.parse()
                .map(Value::Int)
                .map_err(|e| format!("bad integer {text:?}: {e}"))
        };
        let value = value.map_err(|msg| self.err(msg))?;
        self.pos += end;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(src: &str) -> Result<Vec<Value>> {
        let mut r = Reader::new(src);
        let mut out = Vec::new();
        while let Some(v) = r.atom()? {
            out.push(v);
        }
        r.done().map(|()| out)
    }

    #[test]
    fn atoms_read_by_one_rule() {
        let t = "30Dec96 11:30pm".parse().unwrap();
        assert_eq!(
            atoms("C true false -7 2.5 .5 5. 1e3 -1.5E-2 \"a\\\"b\\q\" @30Dec96 11:30pm\n// c\n")
                .unwrap(),
            [
                Value::Complex,
                Value::Bool(true),
                Value::Bool(false),
                Value::Int(-7),
                Value::Real(2.5),
                Value::Real(0.5),
                Value::Real(5.0),
                Value::Real(1000.0),
                Value::Real(-0.015),
                Value::str("a\"bq"),
                Value::Time(t),
            ]
        );
        assert!(atoms("-").is_err());
        assert!(atoms("99999999999999999999").is_err());
    }

    #[test]
    fn a_word_that_is_no_atom_is_left_in_place() {
        let mut r = Reader::new("  Cx");
        assert_eq!(r.atom().unwrap(), None);
        assert_eq!(r.word().unwrap(), "Cx");
    }

    #[test]
    fn overflowing_reals_are_refused_where_they_start() {
        let src = format!("x 1{}.0", "0".repeat(400));
        let mut r = Reader::new(&src);
        r.word().unwrap();
        match r.atom() {
            Err(OemError::Text {
                line: 1,
                col: 3,
                msg,
            }) => assert!(msg.contains("out of range")),
            other => panic!("accepted or misplaced: {other:?}"),
        }
        assert!(atoms("1e400").is_err());
        assert_eq!(atoms("1e-400").unwrap(), [Value::Real(0.0)]);
    }

    #[test]
    fn labels_are_bare_or_quoted_either_way() {
        let mut r = Reader::new("nearby-eats &val `a\\`b` \"x y\" ``");
        let got: Vec<String> = (0..5)
            .map(|_| r.label().unwrap().as_str().to_string())
            .collect();
        assert_eq!(got, ["nearby-eats", "&val", "a`b", "x y", ""]);
        let out: Vec<String> = got.iter().map(|l| LabelText(l).to_string()).collect();
        assert_eq!(out, ["nearby-eats", "&val", "`a\\`b`", "`x y`", "``"]);
    }

    #[test]
    fn errors_carry_line_and_column() {
        let mut r = Reader::new("a\n  ,");
        r.word().unwrap();
        match r.word() {
            Err(OemError::Text { line, col, .. }) => assert_eq!((line, col), (2, 3)),
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use crate::{
        isomorphic, parse_change_set, parse_text, same_database, write_text, ChangeOp, ChangeSet,
        GraphBuilder, TextOptions,
    };
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Any character, drawn half the time from ASCII (controls included).
    fn any_char(rng: &mut TestRng) -> char {
        let bound = if rng.below(2) == 0 { 0x80 } else { 0x11_0000 };
        char::from_u32(rng.below(bound) as u32).unwrap_or('\u{fffd}')
    }

    /// Text mixing arbitrary characters with the notation's own
    /// delimiters, quotes, escapes and comment marks; often empty.
    fn text(rng: &mut TestRng) -> String {
        const PIECES: [&str; 15] = [
            "`", "\"", "\\", ",", ")", "{", "}", "\n", "//", "&", "n1", "C", "@", " ", "name",
        ];
        (0..rng.below(6))
            .map(|_| match rng.below(3) {
                0 => PIECES[rng.below(PIECES.len() as u64) as usize].to_string(),
                _ => any_char(rng).to_string(),
            })
            .collect()
    }

    fn value(rng: &mut TestRng) -> Value {
        match rng.below(7) {
            0 => Value::Complex,
            1 => Value::Int(rng.next_u64() as i64),
            2 => Value::Real(f64::from_bits(rng.next_u64())),
            3 => Value::Real(-(rng.next_u64() as f64) * 1e280),
            4 => Value::from(text(rng)),
            5 => Value::Bool(rng.below(2) == 0),
            _ => {
                let [y, mo, d, h, mi] = [9000, 12, 28, 24, 60].map(|n| rng.below(n) as u32);
                Value::Time(Timestamp::from_ymd_hm(
                    1000 + i64::from(y),
                    mo + 1,
                    d + 1,
                    h,
                    mi,
                ))
            }
        }
    }

    /// Up to six (label, finite value) pairs.
    struct Items;

    impl Strategy for Items {
        type Value = Vec<(String, Value)>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (0..rng.below(7))
                .map(|_| (text(rng), value(rng)))
                .filter(|(_, v)| !matches!(v, Value::Real(r) if !r.is_finite()))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Every reader entry point rejects garbage with an error, never
        /// a panic.
        #[test]
        fn reader_never_panics(src in "\\PC{0,80}") {
            let mut r = Reader::new(&src);
            while r.peek().is_some() {
                let before = r.pos;
                let _ = r.atom();
                let _ = r.label();
                let _ = r.node_id();
                let _ = r.timestamp();
                if r.pos == before {
                    r.pos += r.rest().chars().next().map_or(0, char::len_utf8);
                }
            }
        }

        /// A change set reads back from its `Display` as itself, and a
        /// database from `write_text` as itself (id for id with
        /// `always_ids`, up to isomorphism without).
        #[test]
        fn writes_read_back_as_themselves(items in Items) {
            let mut set = ChangeSet::new();
            let mut b = GraphBuilder::new("g");
            let root = b.root();
            for (i, (l, v)) in items.iter().enumerate() {
                let n = NodeId::from_raw(10 + i as u64);
                set.push(ChangeOp::CreNode(n, v.clone())).unwrap();
                set.push(ChangeOp::UpdNode(NodeId::from_raw(100 + i as u64), v.clone())).unwrap();
                set.push(ChangeOp::add_arc(NodeId::from_raw(1), l.as_str(), n)).unwrap();
                set.push(ChangeOp::rem_arc(n, l.as_str(), NodeId::from_raw(1))).unwrap();
                let c = b.complex_child(root, l.as_str());
                let atom = b.atom_child(c, l.as_str(), v.clone());
                b.arc(c, l.as_str(), root).arc(root, l.as_str(), atom);
            }
            let text = set.to_string();
            prop_assert_eq!(parse_change_set(&text).unwrap(), set, "{}", text);

            let db = b.finish();
            let text = write_text(&db, TextOptions { always_ids: true });
            let back = parse_text(&text).unwrap();
            prop_assert!(same_database(&db, &back), "{}", text);
            let text = write_text(&db, TextOptions::default());
            let back = parse_text(&text).unwrap();
            prop_assert!(isomorphic(&db, &back), "{}", text);
        }
    }
}
