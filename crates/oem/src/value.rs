//! Atomic object values.
//!
//! Definition 2.1 maps each node either to an atomic value (integer, real,
//! string, …) or to the reserved value `C` marking a complex object. The
//! paper's running example mixes types freely (a `price` that is `10` in one
//! entry and `"moderate"` in another), which is exactly the irregularity a
//! semistructured model must tolerate.
//!
//! [`Value`] implements total equality, ordering and hashing — reals compare
//! via `f64::total_cmp` / bit patterns so values can live in sets and maps
//! (needed by change sets, diffing and indexes). *Query-level* comparison is
//! different: Lorel's forgiving coercion lives in the `lorel` crate, not
//! here.

use crate::notation::write_quoted;
use crate::Timestamp;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The value of an OEM object.
#[derive(Clone, Debug)]
pub enum Value {
    /// The reserved value `C`: the object is complex (has outgoing arcs).
    Complex,
    /// An integer atomic value.
    Int(i64),
    /// A real (floating point) atomic value.
    Real(f64),
    /// A string atomic value.
    Str(Box<str>),
    /// A boolean atomic value.
    Bool(bool),
    /// A timestamp atomic value — the paper's "internal timestamp datatype"
    /// that textual dates are coerced to (Section 4.2).
    Time(Timestamp),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(s.as_ref().into())
    }

    /// `true` iff this is the reserved complex marker `C`.
    pub fn is_complex(&self) -> bool {
        matches!(self, Value::Complex)
    }

    /// `true` iff this is an atomic (non-`C`) value.
    pub fn is_atomic(&self) -> bool {
        !self.is_complex()
    }

    fn discriminant_rank(&self) -> u8 {
        match self {
            Value::Complex => 0,
            Value::Int(_) => 1,
            Value::Real(_) => 2,
            Value::Str(_) => 3,
            Value::Bool(_) => 4,
            Value::Time(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Complex, Value::Complex) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Time(a), Value::Time(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Time(a), Value::Time(b)) => a.cmp(b),
            _ => self.discriminant_rank().cmp(&other.discriminant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.discriminant_rank().hash(state);
        match self {
            Value::Complex => {}
            Value::Int(i) => i.hash(state),
            Value::Real(r) => r.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Time(t) => t.raw_minutes().hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Complex => f.write_str("C"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => {
                // Always keep a decimal point so reals survive a text
                // round-trip as reals rather than being re-read as ints.
                if r.fract() == 0.0 && r.is_finite() {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Str(s) => write_quoted(f, s, '"'),
            Value::Bool(b) => write!(f, "{b}"),
            // The `@` sigil keeps timestamps distinguishable from ints and
            // idents in the textual OEM format.
            Value::Time(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Value {
        Value::Real(r)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s.into())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Value {
        Value::Time(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn complex_marker_is_not_atomic() {
        assert!(Value::Complex.is_complex());
        assert!(!Value::Complex.is_atomic());
        assert!(Value::Int(10).is_atomic());
    }

    #[test]
    fn cross_type_equality_is_false() {
        // Strict structural equality: coercion is a query-language concern.
        assert_ne!(Value::Int(10), Value::Real(10.0));
        assert_ne!(Value::str("10"), Value::Int(10));
    }

    #[test]
    fn real_equality_is_bitwise() {
        assert_eq!(Value::Real(f64::NAN), Value::Real(f64::NAN));
        assert_ne!(Value::Real(0.0), Value::Real(-0.0));
    }

    #[test]
    fn values_are_hashable() {
        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        set.insert(Value::Real(1.0));
        set.insert(Value::str("1"));
        set.insert(Value::Complex);
        assert_eq!(set.len(), 4);
        assert!(set.contains(&Value::Int(1)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Complex.to_string(), "C");
        assert_eq!(Value::Int(20).to_string(), "20");
        assert_eq!(Value::Real(20.0).to_string(), "20.0");
        assert_eq!(Value::Real(20.5).to_string(), "20.5");
        assert_eq!(Value::str("moderate").to_string(), "\"moderate\"");
        assert_eq!(Value::str("say \"hi\"").to_string(), "\"say \\\"hi\\\"\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = vec![
            Value::str("b"),
            Value::Int(2),
            Value::Complex,
            Value::Real(1.5),
            Value::Int(1),
            Value::str("a"),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Complex,
                Value::Int(1),
                Value::Int(2),
                Value::Real(1.5),
                Value::str("a"),
                Value::str("b"),
            ]
        );
    }
}
