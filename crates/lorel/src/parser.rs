//! Recursive-descent parser for Lorel/Chorel.
//!
//! The only delicate point is `<`: it is both the comparison operator and
//! the opener of annotation expressions. Annotation expressions appear in
//! exactly two positions — immediately after a `.` (arc annotations) and
//! immediately after a step label (node annotations) — and always start
//! with one of `add`, `rem`, `cre`, `upd`, `at`, so a one-token lookahead
//! plus backtracking resolves the ambiguity.
//!
//! The same parser reads the update statements of [`crate::update`]:
//! they share the query's literals, paths and `from`/`where` clauses.

use crate::ast::*;
use crate::error::LorelError;
use crate::lexer::lex;
use crate::token::{Keyword, Spanned, Token};
use crate::update::{NewObject, UpdateOp, UpdateStmt};
use oem::Value;

/// A parsed top-level statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// A bare query.
    Query(Query),
    /// A `define [polling|filter] query NAME as QUERY` statement
    /// (Section 6's subscription components).
    Define {
        /// The declared kind.
        kind: DefineKind,
        /// The query's name.
        name: String,
        /// The query body.
        query: Query,
    },
}

/// The kind of a `define query` statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefineKind {
    /// `define query`.
    Plain,
    /// `define polling query` (a Lorel query sent to the source).
    Polling,
    /// `define filter query` (a Chorel query over the QSS DOEM database).
    Filter,
}

/// Parse a single query.
pub fn parse_query(src: &str) -> Result<Query, LorelError> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parse one update statement (`update`/`insert`/`remove`/`link`).
pub fn parse_update(src: &str) -> Result<UpdateStmt, LorelError> {
    let mut p = Parser::new(src)?;
    let u = p.update()?;
    p.expect_eof()?;
    Ok(u)
}

/// Parse one boolean expression — what may follow `where` — and nothing
/// after it.
pub fn parse_expr(src: &str) -> Result<Expr, LorelError> {
    let mut p = Parser::new(src)?;
    let e = p.condition()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parse a whole program: one or more statements (defines and/or a query).
pub fn parse_program(src: &str) -> Result<Vec<Statement>, LorelError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.statement()?);
        // Optional statement separator.
        while p.eat_token(&Token::Colon) {}
    }
    Ok(out)
}

/// How deep the recursive rules may nest: a parenthesised condition, a
/// `not`, an `exists` predicate and an inserted object each take one
/// level. Past it a statement is a syntax error, so no request line can
/// recurse the parser — or the evaluators after it, which recurse over
/// the same tree — off the end of a thread's stack. A condition nested
/// this deep still evaluates through both Chorel strategies on a thread
/// with the default 2 MiB stack, in a debug build (`fuzz_tests`).
pub const MAX_NESTING: usize = 64;

/// How many path steps one statement may name, all its paths together.
/// Execution binds one variable per step of a `select`, `from` or update
/// path and recurses once per variable (as it does per step of a `where`
/// path), so past it a statement is a syntax error. A statement naming
/// this many steps, over data as deep, still evaluates through both
/// Chorel strategies on a thread with the default 2 MiB stack, in a debug
/// build, where a single path overflows at about 1,500 steps.
pub const MAX_PATH_STEPS: usize = 512;

/// How many steps one path in a condition (`where`, `exists … in`) may
/// name. The translated strategy nests an `exists` per step of such a
/// path, and a path this long still evaluates through both strategies on
/// a 2 MiB debug thread, where the translated one overflows at about 50.
pub const MAX_WHERE_PATH_STEPS: usize = 32;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Levels of [`MAX_NESTING`] in use.
    depth: usize,
    /// Path steps of [`MAX_PATH_STEPS`] the statement has named.
    steps: usize,
    /// Parsing a condition, whose paths [`MAX_WHERE_PATH_STEPS`] bounds.
    in_condition: bool,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, LorelError> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            depth: 0,
            steps: 0,
            in_condition: false,
        })
    }

    /// Run `rule` one nesting level down, or fail if that is past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        rule: fn(&mut Parser) -> Result<T, LorelError>,
    ) -> Result<T, LorelError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let inner = rule(self);
        self.depth -= 1;
        inner
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn peek_at(&self, off: usize) -> &Token {
        &self.tokens[(self.pos + off).min(self.tokens.len() - 1)].token
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].token.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> LorelError {
        let s = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        LorelError::Syntax {
            line: s.line,
            col: s.col,
            msg: msg.into(),
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn expect_eof(&self) -> Result<(), LorelError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if *self.peek() == Token::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), LorelError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.err(format!("expected {k:?}, found {}", self.peek())))
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), LorelError> {
        if self.eat_token(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, LorelError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Statement, LorelError> {
        self.steps = 0;
        if self.eat_keyword(Keyword::Define) {
            let kind = if self.eat_keyword(Keyword::Polling) {
                DefineKind::Polling
            } else if self.eat_keyword(Keyword::Filter) {
                DefineKind::Filter
            } else {
                DefineKind::Plain
            };
            self.expect_keyword(Keyword::Query)?;
            let name = self.ident()?;
            self.expect_keyword(Keyword::As)?;
            let query = self.query()?;
            Ok(Statement::Define { kind, name, query })
        } else {
            Ok(Statement::Query(self.query()?))
        }
    }

    // ---- queries ----

    fn query(&mut self) -> Result<Query, LorelError> {
        self.expect_keyword(Keyword::Select)?;
        let mut select = vec![self.select_item()?];
        while self.eat_token(&Token::Comma) {
            select.push(self.select_item()?);
        }
        let (from, where_clause) = self.clauses()?;
        Ok(Query {
            select,
            from,
            where_clause,
        })
    }

    /// The optional `from` and `where` clauses, shared by queries and
    /// update statements.
    fn clauses(&mut self) -> Result<(Vec<FromItem>, Option<Expr>), LorelError> {
        let mut from = Vec::new();
        if self.eat_keyword(Keyword::From) {
            from.push(self.parse_from_item()?);
            while self.eat_token(&Token::Comma) {
                from.push(self.parse_from_item()?);
            }
        }
        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.condition()?)
        } else {
            None
        };
        Ok((from, where_clause))
    }

    fn select_item(&mut self) -> Result<SelectItem, LorelError> {
        let expr = self.operand()?;
        let label = if self.eat_keyword(Keyword::As) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, label })
    }

    fn parse_from_item(&mut self) -> Result<FromItem, LorelError> {
        let path = self.path_expr()?;
        // An identifier right after the path is the range variable.
        let var = match self.peek() {
            Token::Ident(_) => Some(self.ident()?),
            _ => None,
        };
        Ok(FromItem { path, var })
    }

    // ---- expressions ----

    /// A `where` condition: an [`expr`](Parser::expr) whose paths
    /// [`MAX_WHERE_PATH_STEPS`] bounds.
    fn condition(&mut self) -> Result<Expr, LorelError> {
        self.in_condition = true;
        let e = self.expr();
        self.in_condition = false;
        e
    }

    fn expr(&mut self) -> Result<Expr, LorelError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, LorelError> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword(Keyword::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, LorelError> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword(Keyword::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, LorelError> {
        if self.eat_keyword(Keyword::Not) {
            Ok(Expr::Not(Box::new(self.nested(Parser::not_expr)?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, LorelError> {
        if self.eat_keyword(Keyword::Exists) {
            let var = self.ident()?;
            self.expect_keyword(Keyword::In)?;
            let path = self.path_expr()?;
            self.expect(Token::Colon)?;
            let pred = self.nested(Parser::not_expr)?;
            return Ok(Expr::Exists {
                var,
                path,
                pred: Box::new(pred),
            });
        }
        if self.eat_token(&Token::LParen) {
            let inner = self.nested(Parser::expr)?;
            self.expect(Token::RParen)?;
            return Ok(inner);
        }
        let lhs = self.operand()?;
        let op = match self.peek() {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            Token::Keyword(Keyword::Like) => {
                self.bump();
                let pattern = self.operand()?;
                return Ok(Expr::Like {
                    expr: Box::new(lhs),
                    pattern: Box::new(pattern),
                });
            }
            _ => return Ok(lhs), // bare path: existence test
        };
        self.bump();
        let rhs = self.operand()?;
        Ok(Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    /// A literal: a number (optionally negated), string, timestamp or
    /// boolean. `None`, with nothing consumed, if the next token starts
    /// none of them.
    fn literal(&mut self) -> Result<Option<Value>, LorelError> {
        let v = match self.peek().clone() {
            Token::Int(i) => Value::Int(i),
            Token::Real(r) => Value::Real(r),
            Token::Str(s) => Value::str(s),
            Token::Time(t) => Value::Time(t),
            Token::Keyword(Keyword::True) => Value::Bool(true),
            Token::Keyword(Keyword::False) => Value::Bool(false),
            Token::Minus => {
                self.bump();
                return match self.bump() {
                    Token::Int(i) => Ok(Some(Value::Int(-i))),
                    Token::Real(r) => Ok(Some(Value::Real(-r))),
                    other => Err(self.err(format!("expected a number after '-', found {other}"))),
                };
            }
            _ => return Ok(None),
        };
        self.bump();
        Ok(Some(v))
    }

    /// A value operand: literal, `t[i]`, or path expression.
    fn operand(&mut self) -> Result<Expr, LorelError> {
        if let Some(v) = self.literal()? {
            return Ok(Expr::Literal(v));
        }
        match self.peek().clone() {
            Token::Ident(name) if name == "t" && *self.peek_at(1) == Token::LBracket => {
                self.bump(); // t
                self.bump(); // [
                let neg = self.eat_token(&Token::Minus);
                let i = match self.bump() {
                    Token::Int(i) => i,
                    other => {
                        return Err(self.err(format!("expected an index in t[...], found {other}")))
                    }
                };
                self.expect(Token::RBracket)?;
                Ok(Expr::PollTime(if neg { -i } else { i }))
            }
            Token::Ident(_) => Ok(Expr::Path(self.path_expr()?)),
            other => Err(self.err(format!("expected an operand, found {other}"))),
        }
    }

    // ---- update statements ----

    fn update(&mut self) -> Result<UpdateStmt, LorelError> {
        let verb = match self.peek() {
            Token::Ident(w) if matches!(w.as_str(), "update" | "insert" | "remove" | "link") => {
                w.clone()
            }
            other => {
                let msg = format!("expected update/insert/remove/link, found {other}");
                return Err(self.err(msg));
            }
        };
        self.bump();
        let target = self.plain_path()?;
        if verb != "remove" && !(self.eat_token(&Token::Colon) && self.eat_token(&Token::Eq)) {
            return Err(self.err("expected ':='"));
        }
        let op = match verb.as_str() {
            "update" => UpdateOp::Assign(self.update_value()?),
            "insert" => UpdateOp::Insert(self.new_object()?),
            "link" => UpdateOp::Link(self.plain_path()?),
            _ => UpdateOp::Remove,
        };
        let (from, where_clause) = self.clauses()?;
        Ok(UpdateStmt {
            op,
            target,
            from,
            where_clause,
        })
    }

    /// An update target or linked child: labels only, no annotations,
    /// wildcards or closures.
    fn plain_path(&mut self) -> Result<PathExpr, LorelError> {
        self.path_of(|p| Ok(PathStep::plain(p.ident()?)))
    }

    /// A literal, or `C` for an empty complex object.
    fn update_value(&mut self) -> Result<Value, LorelError> {
        if let Some(v) = self.literal()? {
            return Ok(v);
        }
        match self.peek() {
            Token::Ident(w) if w == "C" => {
                self.bump();
                Ok(Value::Complex)
            }
            other => Err(self.err(format!("expected a literal, found {other}"))),
        }
    }

    /// An inserted structure: a value, or `( label object, … )` (commas
    /// optional).
    fn new_object(&mut self) -> Result<NewObject, LorelError> {
        if !self.eat_token(&Token::LParen) {
            return Ok(NewObject::Atom(self.update_value()?));
        }
        let mut children = Vec::new();
        while !self.eat_token(&Token::RParen) {
            let label = self.ident()?;
            children.push((label, self.nested(Parser::new_object)?));
            self.eat_token(&Token::Comma);
        }
        Ok(NewObject::Complex(children))
    }

    // ---- path expressions ----

    fn path_expr(&mut self) -> Result<PathExpr, LorelError> {
        self.path_of(Parser::path_step)
    }

    /// `head(.step)*`, within [`MAX_PATH_STEPS`] and, in a condition,
    /// [`MAX_WHERE_PATH_STEPS`].
    fn path_of(
        &mut self,
        step: fn(&mut Parser) -> Result<PathStep, LorelError>,
    ) -> Result<PathExpr, LorelError> {
        let head = self.ident()?;
        let mut steps = Vec::new();
        while self.eat_token(&Token::Dot) {
            if self.steps == MAX_PATH_STEPS {
                let msg = format!("more than {MAX_PATH_STEPS} path steps in one statement");
                return Err(self.err(msg));
            }
            if self.in_condition && steps.len() == MAX_WHERE_PATH_STEPS {
                let msg = format!("a where path longer than {MAX_WHERE_PATH_STEPS} steps");
                return Err(self.err(msg));
            }
            self.steps += 1;
            steps.push(step(self)?);
        }
        Ok(PathExpr { head, steps })
    }

    fn path_step(&mut self) -> Result<PathStep, LorelError> {
        // Arc annotation?
        let arc_annot = if *self.peek() == Token::Lt {
            Some(self.arc_annot()?)
        } else {
            None
        };
        let label = match self.peek().clone() {
            Token::Hash => {
                self.bump();
                LabelPattern::AnyPath
            }
            Token::Percent => {
                self.bump();
                LabelPattern::AnyLabel
            }
            Token::Ident(_) => LabelPattern::Label(self.ident()?),
            // `(a|b|c)` — Lorel label alternation.
            Token::LParen => {
                self.bump();
                let mut labels = vec![self.ident()?];
                loop {
                    if self.eat_token(&Token::Pipe) {
                        labels.push(self.ident()?);
                    } else {
                        self.expect(Token::RParen)?;
                        break;
                    }
                }
                LabelPattern::Alternation(labels)
            }
            // Annotation keywords are contextual; a label may collide with
            // a reserved word only via quoting, which the textual OEM
            // format supports but query syntax does not need.
            other => return Err(self.err(format!("expected a label, found {other}"))),
        };
        // Kleene closure: `l*` / `(a|b)*`.
        let star = self.eat_token(&Token::Star);
        if star && matches!(label, LabelPattern::AnyPath) {
            return Err(self.err("`#*` is redundant; `#` already closes over paths"));
        }
        if star && arc_annot.is_some() {
            return Err(self.err(
                "arc annotation expressions cannot combine with Kleene closure",
            ));
        }
        // Section 7 extension: annotation expressions attach to the
        // single-arc wildcard `%` ("generalizing to allow such annotation
        // expressions should not be difficult"). The closure wildcard `#`
        // still rejects arc annotations — an add/rem requirement on "some
        // arc along an arbitrary path" has no clear semantics.
        if label == LabelPattern::AnyPath && arc_annot.is_some() {
            return Err(self.err(
                "arc annotation expressions on `#` are not supported (ambiguous scope)",
            ));
        }
        // Node annotation? `<` here is ambiguous with a comparison;
        // backtrack if it does not parse as an annotation.
        let node_annot = if *self.peek() == Token::Lt && self.looks_like_node_annot() {
            let save = self.pos;
            match self.node_annot() {
                Ok(a) => Some(a),
                Err(_) => {
                    self.pos = save;
                    None
                }
            }
        } else {
            None
        };
        Ok(PathStep {
            arc_annot,
            label,
            star,
            node_annot,
        })
    }

    fn looks_like_node_annot(&self) -> bool {
        matches!(self.peek_at(1), Token::Ident(w) if matches!(w.as_str(), "cre" | "upd" | "at"))
    }

    fn arc_annot(&mut self) -> Result<ArcAnnotExpr, LorelError> {
        self.expect(Token::Lt)?;
        let word = self.ident()?;
        let annot = match word.as_str() {
            "add" | "rem" => {
                let at = self.opt_at_var()?;
                if word == "add" {
                    ArcAnnotExpr::Add { at }
                } else {
                    ArcAnnotExpr::Rem { at }
                }
            }
            "at" => ArcAnnotExpr::AtTime(self.time_ref()?),
            other => {
                return Err(self.err(format!(
                    "expected an arc annotation (add/rem/at), found {other:?}"
                )))
            }
        };
        self.expect(Token::Gt)?;
        Ok(annot)
    }

    fn node_annot(&mut self) -> Result<NodeAnnotExpr, LorelError> {
        self.expect(Token::Lt)?;
        let word = self.ident()?;
        let annot = match word.as_str() {
            "cre" => NodeAnnotExpr::Cre {
                at: self.opt_at_var()?,
            },
            "upd" => {
                let mut at = None;
                let mut from = None;
                let mut to = None;
                loop {
                    match self.peek().clone() {
                        Token::Ident(w) if w == "at" && at.is_none() => {
                            self.bump();
                            at = Some(self.ident()?);
                        }
                        Token::Ident(w) if w == "to" && to.is_none() => {
                            self.bump();
                            to = Some(self.ident()?);
                        }
                        // `from` lexes as a keyword.
                        Token::Keyword(Keyword::From) if from.is_none() => {
                            self.bump();
                            from = Some(self.ident()?);
                        }
                        _ => break,
                    }
                }
                NodeAnnotExpr::Upd { at, from, to }
            }
            "at" => NodeAnnotExpr::AtTime(self.time_ref()?),
            other => {
                return Err(self.err(format!(
                    "expected a node annotation (cre/upd/at), found {other:?}"
                )))
            }
        };
        self.expect(Token::Gt)?;
        Ok(annot)
    }

    fn opt_at_var(&mut self) -> Result<Option<String>, LorelError> {
        if matches!(self.peek(), Token::Ident(w) if w == "at") {
            self.bump();
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn time_ref(&mut self) -> Result<TimeRef, LorelError> {
        match self.peek().clone() {
            Token::Time(t) => {
                self.bump();
                Ok(TimeRef::Literal(t))
            }
            Token::Str(s) => {
                self.bump();
                s.parse()
                    .map(TimeRef::Literal)
                    .map_err(|e| self.err(e.to_string()))
            }
            Token::Ident(v) => {
                self.bump();
                Ok(TimeRef::Var(v))
            }
            other => Err(self.err(format!("expected a time reference, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_4_1_parses() {
        let q = parse_query(
            "select guide.restaurant\nwhere guide.restaurant.price < 20.5",
        )
        .unwrap();
        assert_eq!(q.select.len(), 1);
        assert!(q.from.is_empty());
        match &q.where_clause {
            Some(Expr::Cmp { op: CmpOp::Lt, .. }) => {}
            other => panic!("unexpected where: {other:?}"),
        }
    }

    #[test]
    fn example_4_2_parses_with_add_annotation() {
        let q = parse_query("select guide.<add>restaurant").unwrap();
        let Expr::Path(p) = &q.select[0].expr else {
            panic!()
        };
        assert_eq!(p.steps[0].arc_annot, Some(ArcAnnotExpr::Add { at: None }));
    }

    #[test]
    fn example_4_3_rewritten_form_parses() {
        let q = parse_query(
            "select R\nfrom guide.<add at T>restaurant R\nwhere T < 4Jan97",
        )
        .unwrap();
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].var.as_deref(), Some("R"));
        assert_eq!(
            q.from[0].path.steps[0].arc_annot,
            Some(ArcAnnotExpr::Add {
                at: Some("T".into())
            })
        );
    }

    #[test]
    fn example_4_4_parses() {
        let q = parse_query(
            "select N, T, NV\nfrom guide.restaurant.price<upd at T to NV>, guide.restaurant.name N\nwhere T >= 1Jan97 and NV > 15",
        )
        .unwrap();
        assert_eq!(q.select.len(), 3);
        assert_eq!(q.from.len(), 2);
        let price_step = q.from[0].path.steps.last().unwrap();
        assert_eq!(
            price_step.node_annot,
            Some(NodeAnnotExpr::Upd {
                at: Some("T".into()),
                from: None,
                to: Some("NV".into()),
            })
        );
        assert_eq!(q.from[1].var.as_deref(), Some("N"));
    }

    #[test]
    fn example_4_5_parses() {
        let q = parse_query(
            "select N\nfrom guide.restaurant R, R.name N\nwhere R.<add at T>price = \"moderate\" and T >= 1Jan97",
        )
        .unwrap();
        let Some(Expr::And(lhs, _)) = &q.where_clause else {
            panic!()
        };
        let Expr::Cmp { lhs: path, .. } = lhs.as_ref() else {
            panic!()
        };
        let Expr::Path(p) = path.as_ref() else { panic!() };
        assert_eq!(p.head, "R");
        assert_eq!(
            p.steps[0].arc_annot,
            Some(ArcAnnotExpr::Add {
                at: Some("T".into())
            })
        );
    }

    #[test]
    fn node_annotation_vs_comparison_disambiguates() {
        // Annotation:
        let q = parse_query("select guide.restaurant.price<upd>").unwrap();
        let Expr::Path(p) = &q.select[0].expr else {
            panic!()
        };
        assert!(p.steps[1].node_annot.is_some());
        // Comparison:
        let q = parse_query("select x where x.price < 20").unwrap();
        match &q.where_clause {
            Some(Expr::Cmp { op: CmpOp::Lt, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Comparison against a variable whose name collides with `upd` —
        // `< upd` only parses as an annotation when it closes with `>`.
        let q = parse_query("select x where x.price < upd").unwrap();
        match &q.where_clause {
            Some(Expr::Cmp { op: CmpOp::Lt, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn polling_query_with_wildcards_parses() {
        let q = parse_query(
            "select guide.restaurant\nwhere guide.restaurant.address.# like \"%Lytton%\"",
        )
        .unwrap();
        let Some(Expr::Like { expr, .. }) = &q.where_clause else {
            panic!()
        };
        let Expr::Path(p) = expr.as_ref() else { panic!() };
        assert_eq!(p.steps.last().unwrap().label, LabelPattern::AnyPath);
    }

    #[test]
    fn define_statements_parse() {
        let stmts = parse_program(
            "define polling query LyttonRestaurants as \
             select guide.restaurant \
             where guide.restaurant.address.# like \"%Lytton%\"",
        )
        .unwrap();
        assert_eq!(stmts.len(), 1);
        match &stmts[0] {
            Statement::Define { kind, name, .. } => {
                assert_eq!(*kind, DefineKind::Polling);
                assert_eq!(name, "LyttonRestaurants");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn filter_query_with_poll_time_parses() {
        let stmts = parse_program(
            "define filter query NewOnLytton as \
             select LyttonRestaurants.restaurant<cre at T> \
             where T > t[-1]",
        )
        .unwrap();
        let Statement::Define { kind, query, .. } = &stmts[0] else {
            panic!()
        };
        assert_eq!(*kind, DefineKind::Filter);
        match &query.where_clause {
            Some(Expr::Cmp { rhs, .. }) => assert_eq!(**rhs, Expr::PollTime(-1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exists_parses() {
        let q = parse_query(
            "select N from g.r R, R.name N where exists P in R.price : P = \"moderate\"",
        )
        .unwrap();
        match &q.where_clause {
            Some(Expr::Exists { var, .. }) => assert_eq!(var, "P"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn boolean_precedence_is_not_over_and_over_or() {
        let q = parse_query("select x where not a = 1 and b = 2 or c = 3").unwrap();
        // ((not (a=1)) and (b=2)) or (c=3)
        let Some(Expr::Or(lhs, _)) = &q.where_clause else {
            panic!("or should be outermost: {:?}", q.where_clause)
        };
        let Expr::And(l, _) = lhs.as_ref() else {
            panic!()
        };
        assert!(matches!(l.as_ref(), Expr::Not(_)));
    }

    #[test]
    fn virtual_annotations_parse() {
        let q = parse_query("select guide.restaurant.price<at 2Jan97>").unwrap();
        let Expr::Path(p) = &q.select[0].expr else {
            panic!()
        };
        assert_eq!(
            p.steps[1].node_annot,
            Some(NodeAnnotExpr::AtTime(TimeRef::Literal(
                "2Jan97".parse().unwrap()
            )))
        );
        let q = parse_query("select guide.<at T>restaurant").unwrap();
        let Expr::Path(p) = &q.select[0].expr else {
            panic!()
        };
        assert_eq!(
            p.steps[0].arc_annot,
            Some(ArcAnnotExpr::AtTime(TimeRef::Var("T".into())))
        );
    }

    #[test]
    fn annotated_wildcards() {
        // Section 7 extension: `%` accepts annotations; `#` accepts node
        // annotations but not arc annotations.
        let q = parse_query("select guide.<add at T>%").unwrap();
        let Expr::Path(p) = &q.select[0].expr else { panic!() };
        assert_eq!(p.steps[0].label, LabelPattern::AnyLabel);
        assert!(p.steps[0].arc_annot.is_some());
        let q = parse_query("select guide.#<cre at T>").unwrap();
        let Expr::Path(p) = &q.select[0].expr else { panic!() };
        assert!(p.steps[0].node_annot.is_some());
        assert!(parse_query("select guide.<add>#").is_err());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_query("select").unwrap_err();
        assert!(matches!(err, LorelError::Syntax { .. }));
        assert!(parse_query("select x where").is_err());
        assert!(parse_query("select x from").is_err());
        assert!(parse_query("where x = 1").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        for src in [
            "select guide.<add at T>restaurant\nwhere T < 4Jan97",
            "select N, T, NV\nfrom guide.restaurant R, R.price P, R.name N\nwhere (T >= 1Jan97 and NV > 15)",
            "select R\nfrom guide.restaurant R\nwhere exists P in R.price : (P = \"moderate\")",
        ] {
            let q = parse_query(src).unwrap();
            let printed = q.to_string();
            let q2 = parse_query(&printed).unwrap();
            assert_eq!(q, q2, "round trip failed for {src:?} -> {printed:?}");
        }
    }

    /// The `where` literal of a parsed `update` statement.
    fn where_literal(src: &str) -> Value {
        let u = parse_update(src).unwrap();
        match u.where_clause {
            Some(Expr::Cmp { rhs, .. }) => match *rhs {
                Expr::Literal(v) => v,
                other => panic!("unexpected rhs {other:?}"),
            },
            other => panic!("unexpected where {other:?}"),
        }
    }

    // An update statement's clauses are read by the query grammar itself,
    // not re-rendered to text: literals whose display form does not lex
    // back (escapes, raw control characters, reals that print as
    // integers) come through intact.

    #[test]
    fn update_where_keeps_a_combining_mark() {
        let v = where_literal(
            "update guide.restaurant.price := 20 where guide.restaurant.name = \"Cafe\u{301}\"",
        );
        assert_eq!(v, Value::str("Cafe\u{301}"));
    }

    #[test]
    fn update_where_keeps_a_raw_carriage_return() {
        let v = where_literal("update guide.x := 1 where guide.y = \"a\rb\"");
        assert_eq!(v, Value::str("a\rb"));
    }

    #[test]
    fn update_where_keeps_a_large_real() {
        let v = where_literal("update guide.x := 1 where guide.y = 100000000000000000000.0");
        assert_eq!(v, Value::Real(1e20));
    }

    #[test]
    fn update_errors_report_the_statement_column() {
        let src = "update guide.restaurant.price := 20 where guide.restaurant.name = ";
        match parse_update(src) {
            // End of input: one past the statement's last character.
            Err(LorelError::Syntax { line: 1, col, .. }) => {
                assert_eq!(col, src.chars().count() + 1)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    /// The stack the nesting cases parse on: fixed, and half the 2 MiB a
    /// server thread gets. A debug build parses [`MAX_NESTING`] levels in
    /// about 512 KiB of it, so a recursive rule that escapes the budget
    /// overflows it within a few hundred levels.
    const SMALL_STACK: usize = 1 << 20;

    /// Run `f` on a thread with [`SMALL_STACK`].
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(SMALL_STACK);
        thread.spawn(f).expect("spawn").join().expect("no overflow")
    }

    /// A statement nesting each recursive rule `depth` levels deep:
    /// parenthesised conditions, `not` chains, `exists` chains and
    /// inserted objects.
    fn nested(depth: usize) -> [String; 4] {
        let cond = "guide.r.name = \"x\"";
        let (open, close) = ("(".repeat(depth), ")".repeat(depth));
        let exists = "exists X in guide.r : ".repeat(depth);
        [
            format!("select guide.r where {open}{cond}{close}"),
            format!("select guide.r where {}{cond}", "not ".repeat(depth)),
            format!("select guide.r where {exists}{cond}"),
            format!("insert guide.a := {}1{close}", "(b ".repeat(depth)),
        ]
    }

    /// Parse a query or, if it is one, an update statement.
    fn parse(src: &str) -> Result<(), LorelError> {
        match src.starts_with("select") {
            true => parse_query(src).map(drop),
            false => parse_update(src).map(drop),
        }
    }

    #[test]
    fn nesting_is_accepted_to_the_budget_and_refused_past_it() {
        on_small_stack(|| {
            for src in nested(MAX_NESTING) {
                assert!(parse(&src).is_ok(), "{src}");
            }
            for src in nested(MAX_NESTING + 1).into_iter().chain(nested(2_000)) {
                match parse(&src) {
                    Err(LorelError::Syntax { msg, .. }) => {
                        assert!(msg.contains("nesting"), "{msg}")
                    }
                    other => panic!("{src}: {other:?}"),
                }
            }
        });
    }

    #[test]
    fn paths_are_accepted_to_the_budget_and_refused_past_it() {
        let path =
            |label: &str, steps: usize| format!("guide{}", format!(".{label}").repeat(steps));
        // Each form names `steps` path steps, in one path or (the last)
        // in two.
        let statement_forms = move |steps: usize| {
            [
                format!("select {}", path("r", steps)),
                format!("select X from {} X", path("r", steps)),
                format!("update {} := 1", path("r", steps)),
                format!(
                    "select {}, {}",
                    path("r", steps / 2),
                    path("s", steps - steps / 2)
                ),
            ]
        };
        // One path of `steps` steps inside a condition.
        let condition_forms = move |steps: usize| {
            [
                format!("select guide where {} = 1", path("r", steps)),
                format!(
                    "select guide where exists X in {} : X = 1",
                    path("r", steps)
                ),
                format!("update guide.r := 1 where {} = 1", path("r", steps)),
            ]
        };
        on_small_stack(move || {
            let longest = statement_forms(MAX_PATH_STEPS)
                .into_iter()
                .chain(condition_forms(MAX_WHERE_PATH_STEPS));
            for src in longest {
                assert!(parse(&src).is_ok(), "{src}");
            }
            let too_long = statement_forms(MAX_PATH_STEPS + 1)
                .into_iter()
                .chain(statement_forms(10_000))
                .chain(condition_forms(MAX_WHERE_PATH_STEPS + 1))
                .chain(condition_forms(10_000));
            for src in too_long {
                match parse(&src) {
                    Err(LorelError::Syntax { msg, .. }) => assert!(msg.contains("path"), "{msg}"),
                    other => panic!("{src}: {other:?}"),
                }
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The parser must reject garbage with an error, never panic.
        #[test]
        fn parser_never_panics_on_arbitrary_input(src in "\\PC{0,80}") {
            let _ = parse_query(&src);
            let _ = parse_program(&src);
            let _ = parse_expr(&src);
        }

        /// The update rule must reject garbage with an error, never panic.
        #[test]
        fn parse_update_never_panics(src in "\\PC{0,80}") {
            let _ = parse_update(&src);
        }

        /// Inputs that start like real update statements exercise the
        /// deeper clause parsing.
        #[test]
        fn parse_update_never_panics_on_updatish_input(
            src in "update [a-z ]{0,20}(at|;|\\{|\\}|creNode|,){0,10}\\PC{0,30}"
        ) {
            let _ = parse_update(&src);
        }

        /// Conditions that mix every nesting rule, and inserted objects
        /// with siblings, parse on a small stack at any depth: within the
        /// budget they parse, past it they are refused.
        #[test]
        fn deep_mixed_nesting_parses_on_a_small_stack(
            openers in proptest::collection::vec(0usize..3, 0..(3 * MAX_NESTING)),
            siblings in proptest::collection::vec(0usize..3, 0..(3 * MAX_NESTING)),
        ) {
            let parens = openers.iter().filter(|&&o| o == 0).count();
            let mut cond: String = openers
                .iter()
                .map(|o| ["(", "not ", "exists X in guide.r : "][*o])
                .collect();
            cond.push_str("guide.r.p = 1");
            cond.push_str(&")".repeat(parens));
            let object: String = siblings
                .iter()
                .map(|s| ["(b ", "(b 1, c ", "(b (c 2) d "][*s])
                .collect::<String>()
                + "1"
                + &")".repeat(siblings.len());
            let (query, update) = on_small_stack(move || {
                let query = parse_query(&format!("select guide.r where {cond}")).is_ok();
                let update = parse_update(&format!("insert guide.a := {object}")).is_ok();
                (query, update)
            });
            // `(b (c 2) d …` nests `c` one level below the chain.
            let object_depth =
                siblings.iter().enumerate().map(|(i, s)| i + 1 + usize::from(*s == 2));
            prop_assert_eq!(query, openers.len() <= MAX_NESTING);
            prop_assert_eq!(update, object_depth.max().unwrap_or(0) <= MAX_NESTING);
        }

        /// Query-shaped fragments assembled from grammar atoms also never
        /// panic, and successfully parsed queries re-parse from their
        /// display form. Whenever the fragments parse as the `from`/`where`
        /// tail of a query, they parse as the tail of an update statement
        /// too, with equal clauses.
        #[test]
        fn display_of_parsed_queries_reparses(
            parts in proptest::collection::vec(
                proptest::sample::select(vec![
                    "select", "from", "where", "guide", ".", "restaurant",
                    "<add at T>", "<upd from OV to NV>", "price", "#", "%",
                    "*", "(a|b)", "R", ",", "=", "<", "\"x\"", "10", "1Jan97",
                    "and", "or", "not", "exists", "in", ":", "t[-1]", "like",
                ]),
                1..14,
            )
        ) {
            let src = parts.join(" ");
            if let Ok(q) = parse_query(&src) {
                let printed = q.to_string();
                let again = parse_query(&printed);
                prop_assert!(again.is_ok(), "display {printed:?} failed to reparse");
                prop_assert_eq!(q, again.unwrap());
            }
            if let Ok(q) = parse_query(&format!("select X {src}")) {
                if q.select == parse_query("select X").unwrap().select {
                    let u = parse_update(&format!("update guide.p := 1 {src}"));
                    prop_assert!(u.is_ok(), "update tail {src:?} failed: {u:?}");
                    let u = u.unwrap();
                    prop_assert_eq!(u.from, q.from);
                    prop_assert_eq!(u.where_clause, q.where_clause);
                }
            }
        }
    }
}
