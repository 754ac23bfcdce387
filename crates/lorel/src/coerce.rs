//! Lorel's forgiving comparison semantics (Section 4.1).
//!
//! "When faced with the task of comparing different types, Lorel first
//! tries to coerce them to a common type. When such coercions fail, the
//! comparison simply returns false instead of raising an error."
//!
//! Coercion lattice used here (pairwise):
//!
//! * int ↔ real — compare numerically (Example 4.1's `10 < 20.5`);
//! * string → number — when the string parses as a number;
//! * string → timestamp — when the string parses as a date (the paper lets
//!   users type timestamps in any recognizable format);
//! * string → bool — `"true"` / `"false"`;
//! * complex values never compare (always `false`), and incompatible
//!   types never compare.

use crate::ast::CmpOp;
use oem::{Timestamp, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Compare two values under Lorel coercion. `None` means "not comparable"
/// — which every caller must treat as `false`.
pub fn coerce_compare(a: &Value, b: &Value) -> Option<Ordering> {
    use Value::*;
    match (a, b) {
        (Complex, _) | (_, Complex) => None,
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Real(x), Real(y)) => x.partial_cmp(y),
        (Int(x), Real(y)) => (*x as f64).partial_cmp(y),
        (Real(x), Int(y)) => x.partial_cmp(&(*y as f64)),
        (Str(x), Str(y)) => Some(x.cmp(y)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        (Time(x), Time(y)) => Some(x.cmp(y)),
        // String coercions: try number, then timestamp, then bool.
        (Str(s), Int(_) | Real(_)) => {
            let parsed = parse_number(s)?;
            coerce_compare(&parsed, b)
        }
        (Int(_) | Real(_), Str(s)) => {
            let parsed = parse_number(s)?;
            coerce_compare(a, &parsed)
        }
        (Str(s), Time(t)) => {
            let parsed: oem::Timestamp = s.parse().ok()?;
            Some(parsed.cmp(t))
        }
        (Time(t), Str(s)) => {
            let parsed: oem::Timestamp = s.parse().ok()?;
            Some(t.cmp(&parsed))
        }
        (Str(s), Bool(y)) => {
            let parsed = parse_bool(s)?;
            Some(parsed.cmp(y))
        }
        (Bool(x), Str(s)) => {
            let parsed = parse_bool(s)?;
            Some(x.cmp(&parsed))
        }
        // Numbers never coerce to timestamps or bools.
        (Int(_) | Real(_), Time(_) | Bool(_)) | (Time(_) | Bool(_), Int(_) | Real(_)) => None,
        (Time(_), Bool(_)) | (Bool(_), Time(_)) => None,
    }
}

fn parse_number(s: &str) -> Option<Value> {
    let t = s.trim();
    if let Ok(i) = t.parse::<i64>() {
        return Some(Value::Int(i));
    }
    t.parse::<f64>().ok().map(Value::Real)
}

fn parse_bool(s: &str) -> Option<bool> {
    match s.trim() {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Apply a comparison operator with coercion; incomparable pairs are
/// `false`.
pub fn compare(op: CmpOp, a: &Value, b: &Value) -> bool {
    holds(op, coerce_compare(a, b))
}

/// Whether `op` holds of an ordering; `None` (incomparable) never does.
pub(crate) fn holds(op: CmpOp, ord: Option<Ordering>) -> bool {
    match ord {
        None => false,
        Some(ord) => match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        },
    }
}

/// SQL-style `like`: `%` matches any sequence, `_` any single character.
/// Both operands coerce to strings (numbers print themselves).
pub fn like(value: &Value, pattern: &Value) -> bool {
    let Some(p) = to_text(pattern) else {
        return false;
    };
    let p: Vec<char> = p.chars().collect();
    like_chars(value, &p)
}

/// `like` against a pattern already split into chars.
fn like_chars(value: &Value, pattern: &[char]) -> bool {
    to_text(value).is_some_and(|v| like_match(&v, pattern))
}

/// The text `like` reads a value as: a string itself, borrowed; other
/// atoms printed; complex objects have none.
fn to_text(v: &Value) -> Option<Cow<'_, str>> {
    match v {
        Value::Complex => None,
        Value::Str(s) => Some(Cow::Borrowed(s)),
        Value::Int(i) => Some(Cow::Owned(i.to_string())),
        Value::Real(r) => Some(Cow::Owned(r.to_string())),
        Value::Bool(b) => Some(Cow::Owned(b.to_string())),
        Value::Time(t) => Some(Cow::Owned(t.to_string())),
    }
}

fn like_match(text: &str, p: &[char]) -> bool {
    // Classic two-pointer wildcard matching over chars; `ti` and `star_t`
    // are byte offsets of char boundaries in `text`.
    let next = |at: usize| text[at..].chars().next().expect("offset below the end");
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < text.len() {
        let c = next(ti);
        if pi < p.len() && (p[pi] == '_' || p[pi] == c) {
            ti += c.len_utf8();
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if star_p != usize::MAX {
            star_t += next(star_t).len_utf8();
            ti = star_t;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// A query literal with the coercions [`coerce_compare`] and [`like`]
/// would apply to it worked out once, when the query is planned: the
/// number, timestamp and bool a string literal reads as, and the chars of
/// its `like` pattern. Comparing a binding against it parses only the
/// binding's side.
#[derive(Clone, Debug)]
pub struct Literal {
    value: Value,
    number: Option<Value>,
    time: Option<Timestamp>,
    boolean: Option<bool>,
    pattern: Option<Box<[char]>>,
}

impl Literal {
    /// Work out `value`'s coercions.
    pub(crate) fn new(value: Value) -> Literal {
        let (number, time, boolean) = match &value {
            Value::Str(s) => (parse_number(s), s.parse().ok(), parse_bool(s)),
            _ => (None, None, None),
        };
        let pattern = to_text(&value).map(|t| t.chars().collect());
        Literal {
            value,
            number,
            time,
            boolean,
            pattern,
        }
    }

    /// The literal as written.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// `coerce_compare(v, self.value())`.
    pub(crate) fn compare_from(&self, v: &Value) -> Option<Ordering> {
        match (v, &self.value) {
            (Value::Int(_) | Value::Real(_), Value::Str(_)) => {
                coerce_compare(v, self.number.as_ref()?)
            }
            (Value::Time(t), Value::Str(_)) => Some(t.cmp(&self.time?)),
            (Value::Bool(x), Value::Str(_)) => Some(x.cmp(&self.boolean?)),
            _ => coerce_compare(v, &self.value),
        }
    }

    /// `like(v, self.value())`.
    pub(crate) fn like_from(&self, v: &Value) -> bool {
        self.pattern.as_deref().is_some_and(|p| like_chars(v, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_4_1_coercions() {
        // int 10 coerces to real and 10 < 20.5 holds.
        assert!(compare(CmpOp::Lt, &Value::Int(10), &Value::Real(20.5)));
        // "moderate" fails to coerce: comparison is false, not an error.
        assert!(!compare(
            CmpOp::Lt,
            &Value::str("moderate"),
            &Value::Real(20.5)
        ));
        // And so is its negation through Ge — "false" both ways.
        assert!(!compare(
            CmpOp::Ge,
            &Value::str("moderate"),
            &Value::Real(20.5)
        ));
    }

    #[test]
    fn numeric_strings_coerce() {
        assert!(compare(CmpOp::Eq, &Value::str("10"), &Value::Int(10)));
        assert!(compare(CmpOp::Lt, &Value::str("9.5"), &Value::Int(10)));
        assert!(compare(CmpOp::Gt, &Value::Int(11), &Value::str("10.5")));
    }

    #[test]
    fn timestamp_strings_coerce() {
        let t: oem::Timestamp = "4Jan97".parse().unwrap();
        assert!(compare(CmpOp::Eq, &Value::str("4Jan97"), &Value::Time(t)));
        assert!(compare(
            CmpOp::Lt,
            &Value::Time("1Jan97".parse().unwrap()),
            &Value::str("1997-01-04")
        ));
        // Times never coerce to numbers.
        assert!(!compare(CmpOp::Eq, &Value::Time(t), &Value::Int(0)));
    }

    #[test]
    fn complex_never_compares() {
        assert!(!compare(CmpOp::Eq, &Value::Complex, &Value::Complex));
        assert!(!compare(CmpOp::Ne, &Value::Complex, &Value::Int(1)));
    }

    #[test]
    fn bool_coercion() {
        assert!(compare(CmpOp::Eq, &Value::Bool(true), &Value::str("true")));
        assert!(!compare(CmpOp::Eq, &Value::Bool(true), &Value::str("yes")));
    }

    #[test]
    fn like_patterns() {
        assert!(like(&Value::str("120 Lytton Ave"), &Value::str("%Lytton%")));
        assert!(like(&Value::str("Lytton"), &Value::str("%Lytton%")));
        assert!(!like(&Value::str("University Ave"), &Value::str("%Lytton%")));
        assert!(like(&Value::str("cat"), &Value::str("c_t")));
        assert!(!like(&Value::str("cart"), &Value::str("c_t")));
        assert!(like(&Value::str("anything"), &Value::str("%")));
        assert!(like(&Value::str(""), &Value::str("%")));
        assert!(!like(&Value::str(""), &Value::str("_")));
        // Numbers coerce to their textual form.
        assert!(like(&Value::Int(120), &Value::str("1%")));
        // Complex objects never match.
        assert!(!like(&Value::Complex, &Value::str("%")));
    }

    #[test]
    fn like_backtracking_edge_cases() {
        assert!(like(&Value::str("aXbXc"), &Value::str("a%X%c")));
        assert!(like(&Value::str("abc"), &Value::str("%%abc%%")));
        assert!(!like(&Value::str("ab"), &Value::str("a%c")));
    }

    #[test]
    fn le_ge_use_orderings_not_negation() {
        assert!(compare(CmpOp::Le, &Value::Int(10), &Value::Int(10)));
        assert!(compare(CmpOp::Ge, &Value::Int(10), &Value::Int(10)));
        assert!(!compare(CmpOp::Ne, &Value::Int(10), &Value::str("10")));
    }

    #[test]
    fn nan_comparisons_are_false() {
        assert!(!compare(CmpOp::Eq, &Value::Real(f64::NAN), &Value::Real(f64::NAN)));
        assert!(!compare(CmpOp::Lt, &Value::Real(f64::NAN), &Value::Real(1.0)));
    }

    #[test]
    fn like_walks_multibyte_text_by_char() {
        assert!(like(&Value::str("気λé"), &Value::str("_λ_")));
        assert!(like(&Value::str("a🦀b🦀c"), &Value::str("%🦀c")));
        assert!(!like(&Value::str("気"), &Value::str("__")));
        assert!(Literal::new(Value::str("%é")).like_from(&Value::str("café")));
    }
}

/// The plan-time forms of a literal agree with comparing and matching the
/// literal as written, whatever the binding and whichever side the
/// literal stands on.
#[cfg(test)]
mod literal_props {
    use super::*;
    use proptest::prelude::*;

    /// Strings that coerce: ints, reals, every accepted date form, bools;
    /// and strings that do not.
    const STRINGS: &[&str] = &[
        "42", " 7 ", "-3", "0", "3.5", "-0.25", "1e3", "NaN", "inf", "20.5",
        "8Jan97", "08Jan1997", "1997-01-08", "1Jan97", "31Dec96", "8Jan97 11:30pm",
        "1997-01-08 9:00am", "5Jan97 12:01am", "-inf", "infinity", "+inf", "31Feb97",
        "true", "false", " true", "yes", "", "moderate", "Lytton", "气λ", "ça va",
        "%", "_", "%a%", "c_t", "%é%", "_🦀%", "%%", "1%", "%97",
    ];
    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    fn value(kind: usize, pick: usize, free: &str, i: i64) -> Value {
        let s = STRINGS[pick % STRINGS.len()];
        match kind {
            0 => Value::Int(i),
            1 => Value::Real(i as f64 / 4.0),
            2 => Value::str(s),
            3 => Value::str(free),
            4 => Value::Bool(i % 2 == 0),
            5 => Value::Time(
                ["1Jan97", "8Jan97", "31Dec96", "1997-01-08 9:00am"][pick % 4]
                    .parse()
                    .unwrap(),
            ),
            6 => Value::Real(f64::NAN),
            _ => Value::Complex,
        }
    }

    /// The matcher `like` used before it borrowed its text: char vectors.
    fn like_reference(text: &str, pattern: &str) -> bool {
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        let (mut ti, mut pi) = (0usize, 0usize);
        let (mut star_p, mut star_t) = (usize::MAX, 0usize);
        while ti < t.len() {
            if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
                ti += 1;
                pi += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star_p = pi;
                star_t = ti;
                pi += 1;
            } else if star_p != usize::MAX {
                star_t += 1;
                ti = star_t;
                pi = star_p + 1;
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '%' {
            pi += 1;
        }
        pi == p.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        #[test]
        fn literal_forms_agree_with_coercion(
            vk in 0usize..8, vp in 0usize..64, vf in "\\PC{0,6}", vi in -40i64..40,
            lk in 0usize..8, lp in 0usize..64, lf in "\\PC{0,6}", li in -40i64..40,
        ) {
            let v = value(vk, vp, &vf, vi);
            let lit = Literal::new(value(lk, lp, &lf, li));
            for op in OPS {
                prop_assert_eq!(
                    holds(op, lit.compare_from(&v)),
                    compare(op, &v, lit.value()),
                    "{:?} {} {:?}", v, op, lit.value()
                );
                prop_assert_eq!(
                    holds(op, lit.compare_from(&v).map(Ordering::reverse)),
                    compare(op, lit.value(), &v),
                    "{:?} {} {:?}", lit.value(), op, v
                );
            }
            prop_assert_eq!(lit.like_from(&v), like(&v, lit.value()), "{:?} like {:?}", v, lit.value());
            if let (Some(t), Some(p)) = (to_text(&v), to_text(lit.value())) {
                prop_assert_eq!(like(&v, lit.value()), like_reference(&t, &p), "{:?} like {:?}", t, p);
            }
        }
    }
}
