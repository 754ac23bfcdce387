//! Abstract syntax of Lorel/Chorel queries.
//!
//! The AST covers plain Lorel (Section 4.1) plus the Chorel extensions
//! (Section 4.2): annotation expressions inside path steps, bare timestamp
//! literals, and the QSS time variables `t[i]`. Plain Lorel queries are
//! simply ASTs with no annotation expressions.
//!
//! `Display` implementations print queries back in concrete syntax; the
//! Chorel→Lorel translator relies on this to emit runnable Lorel text.

use oem::{Timestamp, Value};
use std::fmt;

/// A `select`-`from`-`where` query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// `select` items (at least one).
    pub select: Vec<SelectItem>,
    /// `from` items (possibly empty — Lorel lets the `from` clause be
    /// omitted).
    pub from: Vec<FromItem>,
    /// Optional `where` predicate.
    pub where_clause: Option<Expr>,
}

/// One `select` item: an expression with an optional result label (Lorel's
/// `select X.name as title` is not in the paper; labels default per
/// AQM+96, but an explicit label spelling keeps tests readable).
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem {
    /// The selected expression (a path or variable).
    pub expr: Expr,
    /// Optional explicit result label.
    pub label: Option<String>,
}

/// One `from` item: a path expression with an optional range variable,
/// e.g. `guide.restaurant R`.
#[derive(Clone, Debug, PartialEq)]
pub struct FromItem {
    /// The range path.
    pub path: PathExpr,
    /// The introduced variable, if named.
    pub var: Option<String>,
}

/// A path expression: a head followed by steps.
#[derive(Clone, Debug, PartialEq)]
pub struct PathExpr {
    /// The first component: the database name or a previously bound
    /// variable (`guide` in `guide.restaurant`, `R` in `R.name`).
    pub head: String,
    /// The steps after the head.
    pub steps: Vec<PathStep>,
}

/// One step of a path expression, optionally annotated (Chorel).
///
/// Concrete syntax: `.<arcAnnot>label<nodeAnnot>` — arc annotation
/// expressions come immediately *before* the label, node annotation
/// expressions immediately *after* it (Section 4.2).
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    /// Arc annotation (`<add …>` / `<rem …>` / virtual `<at …>`).
    pub arc_annot: Option<ArcAnnotExpr>,
    /// The label pattern.
    pub label: LabelPattern,
    /// Kleene closure: `l*` matches zero or more arcs whose labels match
    /// the pattern (Lorel's regular-expression paths).
    pub star: bool,
    /// Node annotation (`<cre …>` / `<upd …>` / virtual `<at …>`).
    pub node_annot: Option<NodeAnnotExpr>,
}

impl PathStep {
    /// An unannotated step over a plain label.
    pub fn plain(label: impl Into<String>) -> PathStep {
        PathStep {
            arc_annot: None,
            label: LabelPattern::Label(label.into()),
            star: false,
            node_annot: None,
        }
    }
}

/// What a step's label may match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LabelPattern {
    /// An exact label.
    Label(String),
    /// `(a|b|c)` — one arc with any of the listed labels (Lorel's label
    /// alternation).
    Alternation(Vec<String>),
    /// `#` — any path of length ≥ 0.
    AnyPath,
    /// `%` — exactly one arc with any label.
    AnyLabel,
}

/// Chorel arc annotation expression.
#[derive(Clone, Debug, PartialEq)]
pub enum ArcAnnotExpr {
    /// `<add [at T]>` — the arc has an `add` annotation.
    Add {
        /// Time variable bound to the annotation timestamp.
        at: Option<String>,
    },
    /// `<rem [at T]>` — the arc has a `rem` annotation.
    Rem {
        /// Time variable bound to the annotation timestamp.
        at: Option<String>,
    },
    /// Virtual `<at τ>` — traverse arcs as they existed at time τ
    /// (Section 4.2.2 extension).
    AtTime(TimeRef),
}

/// Chorel node annotation expression.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeAnnotExpr {
    /// `<cre [at T]>` — the node has a `cre` annotation.
    Cre {
        /// Time variable bound to the creation timestamp.
        at: Option<String>,
    },
    /// `<upd [at T] [from OV] [to NV]>` — the node has an `upd` annotation.
    Upd {
        /// Time variable bound to the update timestamp.
        at: Option<String>,
        /// Data variable bound to the old value.
        from: Option<String>,
        /// Data variable bound to the (implicit) new value.
        to: Option<String>,
    },
    /// Virtual `<at τ>` — the node's value as of time τ (Section 4.2.2).
    AtTime(TimeRef),
}

/// A reference to a point in time inside a virtual annotation.
#[derive(Clone, Debug, PartialEq)]
pub enum TimeRef {
    /// A literal timestamp.
    Literal(Timestamp),
    /// A bound time variable.
    Var(String),
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Boolean and value expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A path expression used as a value (binds existentially in `where`).
    Path(PathExpr),
    /// A literal value.
    Literal(Value),
    /// The QSS time variable `t[i]` (`t[0]` = current polling time,
    /// `t[-1]` = previous, …). Resolved by the QSS preprocessor before
    /// execution.
    PollTime(i64),
    /// Comparison with Lorel's forgiving coercion.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// SQL-style `like` string match (`%` and `_` wildcards).
    Like {
        /// The matched expression.
        expr: Box<Expr>,
        /// The pattern.
        pattern: Box<Expr>,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `exists VAR in PATH : predicate` — explicit existential (also the
    /// target of the Section 4.2.1 where-variable rewriting).
    Exists {
        /// Bound variable.
        var: String,
        /// Range path.
        path: PathExpr,
        /// Body predicate.
        pred: Box<Expr>,
    },
}

// ---------------------------------------------------------------------
// Pretty-printing (concrete syntax)
// ---------------------------------------------------------------------

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("select ")?;
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            f.write_str("\nfrom ")?;
            for (i, item) in self.from.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, "\nwhere {w}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if let Some(l) = &self.label {
            write!(f, " as {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.path)?;
        if let Some(v) = &self.var {
            write!(f, " {v}")?;
        }
        Ok(())
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.head)?;
        for s in &self.steps {
            write!(f, ".{s}")?;
        }
        Ok(())
    }
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(a) = &self.arc_annot {
            write!(f, "{a}")?;
        }
        write!(f, "{}", self.label)?;
        if self.star {
            f.write_str("*")?;
        }
        if let Some(n) = &self.node_annot {
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for LabelPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelPattern::Label(l) => f.write_str(l),
            LabelPattern::Alternation(ls) => write!(f, "({})", ls.join("|")),
            LabelPattern::AnyPath => f.write_str("#"),
            LabelPattern::AnyLabel => f.write_str("%"),
        }
    }
}

impl fmt::Display for ArcAnnotExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArcAnnotExpr::Add { at } => match at {
                Some(v) => write!(f, "<add at {v}>"),
                None => f.write_str("<add>"),
            },
            ArcAnnotExpr::Rem { at } => match at {
                Some(v) => write!(f, "<rem at {v}>"),
                None => f.write_str("<rem>"),
            },
            ArcAnnotExpr::AtTime(t) => write!(f, "<at {t}>"),
        }
    }
}

impl fmt::Display for NodeAnnotExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeAnnotExpr::Cre { at } => match at {
                Some(v) => write!(f, "<cre at {v}>"),
                None => f.write_str("<cre>"),
            },
            NodeAnnotExpr::Upd { at, from, to } => {
                f.write_str("<upd")?;
                if let Some(v) = at {
                    write!(f, " at {v}")?;
                }
                if let Some(v) = from {
                    write!(f, " from {v}")?;
                }
                if let Some(v) = to {
                    write!(f, " to {v}")?;
                }
                f.write_str(">")
            }
            NodeAnnotExpr::AtTime(t) => write!(f, "<at {t}>"),
        }
    }
}

impl fmt::Display for TimeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeRef::Literal(t) => write!(f, "{t}"),
            TimeRef::Var(v) => f.write_str(v),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Literal(v) => match v {
                // Query syntax writes timestamps bare, not with the `@`
                // sigil of the storage text format.
                Value::Time(t) => write!(f, "{t}"),
                other => write!(f, "{other}"),
            },
            Expr::PollTime(i) => write!(f, "t[{i}]"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Expr::Like { expr, pattern } => write!(f, "{expr} like {pattern}"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(e) => write!(f, "not ({e})"),
            Expr::Exists { var, path, pred } => {
                write!(f, "exists {var} in {path} : ({pred})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_the_paper_examples_textually() {
        let q = Query {
            select: vec![SelectItem {
                expr: Expr::Path(PathExpr {
                    head: "guide".into(),
                    steps: vec![PathStep {
                        arc_annot: Some(ArcAnnotExpr::Add {
                            at: Some("T".into()),
                        }),
                        label: LabelPattern::Label("restaurant".into()),
                        star: false,
                        node_annot: None,
                    }],
                }),
                label: None,
            }],
            from: vec![],
            where_clause: Some(Expr::Cmp {
                op: CmpOp::Lt,
                lhs: Box::new(Expr::Path(PathExpr {
                    head: "T".into(),
                    steps: vec![],
                })),
                rhs: Box::new(Expr::Literal(Value::Time("4Jan97".parse().unwrap()))),
            }),
        };
        assert_eq!(
            q.to_string(),
            "select guide.<add at T>restaurant\nwhere T < 4Jan97"
        );
    }

    #[test]
    fn upd_annotation_prints_all_parts() {
        let n = NodeAnnotExpr::Upd {
            at: Some("T".into()),
            from: None,
            to: Some("NV".into()),
        };
        assert_eq!(n.to_string(), "<upd at T to NV>");
    }
}
