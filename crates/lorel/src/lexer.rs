//! The Lorel/Chorel lexer.
//!
//! One quirk inherited from the paper: timestamps may appear as bare
//! literals (`where T < 4Jan97`). A token starting with digits and
//! continuing with letters is therefore tried as a timestamp before being
//! rejected. Timestamps with a time-of-day component contain a space and
//! must be written as strings (`"30Dec96 11:30pm"`); the coercion rules
//! convert them at comparison time.

use crate::error::LorelError;
use crate::token::{Keyword, Spanned, Token};
use oem::Timestamp;

/// Lex a full query string.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LorelError> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn err(&self, msg: impl Into<String>) -> LorelError {
        LorelError::Syntax {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn run(mut self) -> Result<Vec<Spanned>, LorelError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws_and_comments();
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek() else {
                out.push(Spanned {
                    token: Token::Eof,
                    line,
                    col,
                });
                return Ok(out);
            };
            let token = match b {
                b'"' => self.string()?,
                b'0'..=b'9' => self.number_or_time()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'&' => self.word(),
                b'.' => {
                    self.bump();
                    Token::Dot
                }
                b',' => {
                    self.bump();
                    Token::Comma
                }
                b'(' => {
                    self.bump();
                    Token::LParen
                }
                b')' => {
                    self.bump();
                    Token::RParen
                }
                b'[' => {
                    self.bump();
                    Token::LBracket
                }
                b']' => {
                    self.bump();
                    Token::RBracket
                }
                b'#' => {
                    self.bump();
                    Token::Hash
                }
                b'%' => {
                    self.bump();
                    Token::Percent
                }
                b'*' => {
                    self.bump();
                    Token::Star
                }
                b'|' => {
                    self.bump();
                    Token::Pipe
                }
                b'-' => {
                    self.bump();
                    Token::Minus
                }
                b':' => {
                    self.bump();
                    Token::Colon
                }
                b'=' => {
                    self.bump();
                    Token::Eq
                }
                b'!' if self.peek2() == Some(b'=') => {
                    self.bump();
                    self.bump();
                    Token::Ne
                }
                b'<' => {
                    self.bump();
                    match self.peek() {
                        Some(b'=') => {
                            self.bump();
                            Token::Le
                        }
                        Some(b'>') => {
                            self.bump();
                            Token::Ne
                        }
                        _ => Token::Lt,
                    }
                }
                b'>' => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Token::Ge
                    } else {
                        Token::Gt
                    }
                }
                other => return Err(self.err(format!("unexpected character {:?}", other as char))),
            };
            out.push(Spanned { token, line, col });
        }
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    // SQL-style comment.
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn string(&mut self) -> Result<Token, LorelError> {
        self.bump(); // opening quote
        let mut bytes = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => bytes.push(b'\n'),
                    Some(b't') => bytes.push(b'\t'),
                    Some(b'"') => bytes.push(b'"'),
                    Some(b'\\') => bytes.push(b'\\'),
                    _ => return Err(self.err("bad escape in string literal")),
                },
                Some(b) => bytes.push(b),
            }
        }
        String::from_utf8(bytes)
            .map(Token::Str)
            .map_err(|_| self.err("invalid utf8 in string literal"))
    }

    /// A token starting with a digit: integer, real, or bare timestamp
    /// (`4Jan97`, `08Jan1997`, `1997-01-08`).
    fn number_or_time(&mut self) -> Result<Token, LorelError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b == b'.' && self.peek2().is_some_and(|c| c.is_ascii_digit()))
        {
            self.bump();
        }
        // Letters right after digits → timestamp candidate (4Jan97).
        // A '-' right after digits followed by a digit → ISO date candidate.
        let mut is_time = false;
        if self.peek().is_some_and(|b| b.is_ascii_alphabetic()) {
            is_time = true;
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric())
            {
                self.bump();
            }
        } else if self.peek() == Some(b'-') && self.peek2().is_some_and(|b| b.is_ascii_digit()) {
            is_time = true;
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_digit() || b == b'-')
            {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        if is_time {
            return text
                .parse::<Timestamp>()
                .map(Token::Time)
                .map_err(|_| self.err(format!("malformed literal {text:?}")));
        }
        if text.contains('.') {
            match text.parse::<f64>() {
                Ok(r) if r.is_finite() => Ok(Token::Real(r)),
                Ok(_) => Err(self.err(format!("real literal {text:?} is out of range"))),
                Err(e) => Err(self.err(format!("bad real literal: {e}"))),
            }
        } else {
            text.parse::<i64>()
                .map(Token::Int)
                .map_err(|e| self.err(format!("bad integer literal: {e}")))
        }
    }

    fn word(&mut self) -> Token {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'&')
        {
            // A '-' is part of an identifier only when followed by a letter
            // or digit (labels like `nearby-eats`, `&price-history`);
            // otherwise it terminates the word (binary minus).
            if self.peek() == Some(b'-') && !self.peek2().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'&')
            {
                break;
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii")
            .to_string();
        match Keyword::from_word(&text.to_lowercase()) {
            Some(k) => Token::Keyword(k),
            None => Token::Ident(text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn example_4_1_lexes() {
        let ts = tokens("select guide.restaurant where guide.restaurant.price < 20.5");
        assert_eq!(
            ts,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("guide".into()),
                Token::Dot,
                Token::Ident("restaurant".into()),
                Token::Keyword(Keyword::Where),
                Token::Ident("guide".into()),
                Token::Dot,
                Token::Ident("restaurant".into()),
                Token::Dot,
                Token::Ident("price".into()),
                Token::Lt,
                Token::Real(20.5),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn overflowing_reals_are_refused() {
        let huge = format!("1{}.0", "0".repeat(400));
        assert!(matches!(lex(&huge), Err(LorelError::Syntax { .. })));
        assert_eq!(tokens(&format!("0.{}1", "0".repeat(400)))[0], Token::Real(0.0));
    }

    #[test]
    fn bare_timestamps_lex() {
        let ts = tokens("where T < 4Jan97");
        assert!(ts.contains(&Token::Time("4Jan97".parse().unwrap())));
        let ts = tokens("T >= 1997-01-08");
        assert!(ts.contains(&Token::Time("8Jan97".parse().unwrap())));
    }

    #[test]
    fn annotation_brackets_lex_as_comparisons_do() {
        let ts = tokens("select guide.<add at T>restaurant");
        assert_eq!(
            ts,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("guide".into()),
                Token::Dot,
                Token::Lt,
                Token::Ident("add".into()),
                Token::Ident("at".into()),
                Token::Ident("T".into()),
                Token::Gt,
                Token::Ident("restaurant".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn hyphenated_labels_stay_single_tokens() {
        let ts = tokens("guide.nearby-eats");
        assert_eq!(ts[2], Token::Ident("nearby-eats".into()));
        let ts = tokens("x.&price-history");
        assert_eq!(ts[2], Token::Ident("&price-history".into()));
    }

    #[test]
    fn minus_before_number_is_separate() {
        let ts = tokens("t[-1]");
        assert_eq!(
            ts,
            vec![
                Token::Ident("t".into()),
                Token::LBracket,
                Token::Minus,
                Token::Int(1),
                Token::RBracket,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn binary_minus_between_idents() {
        // `a - b` keeps the minus separate; `a-b` is one label.
        assert_eq!(tokens("a - 1").len(), 4);
        assert_eq!(tokens("a-b").len(), 2);
    }

    #[test]
    fn strings_and_like_patterns() {
        let ts = tokens("where addr like \"%Lytton%\"");
        assert!(ts.contains(&Token::Str("%Lytton%".into())));
        assert!(ts.contains(&Token::Keyword(Keyword::Like)));
    }

    #[test]
    fn comments_are_skipped() {
        let ts = tokens("select x // trailing\n-- sql style\nwhere y = 1");
        assert_eq!(ts.len(), 7);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let ts = tokens("SELECT x WHERE y");
        assert_eq!(ts[0], Token::Keyword(Keyword::Select));
        assert_eq!(ts[2], Token::Keyword(Keyword::Where));
    }

    #[test]
    fn bad_inputs_error_with_position() {
        let err = lex("select ^").unwrap_err();
        match err {
            LorelError::Syntax { col, .. } => assert_eq!(col, 8),
            other => panic!("unexpected {other:?}"),
        }
        assert!(lex("where x = 12Foo99").is_err());
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn ne_variants() {
        assert!(tokens("a != 1").contains(&Token::Ne));
        assert!(tokens("a <> 1").contains(&Token::Ne));
    }
}
