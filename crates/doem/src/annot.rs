//! DOEM annotations (Section 3).
//!
//! Annotations are tags attached to the nodes and arcs of an OEM graph that
//! encode the history of basic change operations on them. There is a
//! one-to-one correspondence between annotations and the basic change
//! operations:
//!
//! * `cre(t)` — the node was created at time `t`;
//! * `upd(t, ov)` — the node was updated at time `t`; `ov` is the old value;
//! * `add(t)` — the arc was added at time `t`;
//! * `rem(t)` — the arc was removed at time `t`.

use oem::{Timestamp, Value};
use std::fmt;

/// An annotation on a node: `cre(t)` or `upd(t, ov)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeAnnotation {
    /// The node was created at time `t`.
    Cre(Timestamp),
    /// The node's value was changed at time `t`; `old` is the value before
    /// the update. (The *new* value is implicit: it is the old value of the
    /// temporally next `upd`, or the node's current value — Section 4.2.)
    Upd {
        /// When the update happened.
        at: Timestamp,
        /// The value before the update.
        old: Value,
    },
}

impl NodeAnnotation {
    /// The annotation's timestamp.
    pub fn at(&self) -> Timestamp {
        match self {
            NodeAnnotation::Cre(t) => *t,
            NodeAnnotation::Upd { at, .. } => *at,
        }
    }

    /// `true` for `cre` annotations.
    pub fn is_cre(&self) -> bool {
        matches!(self, NodeAnnotation::Cre(_))
    }

    /// `true` for `upd` annotations.
    pub fn is_upd(&self) -> bool {
        matches!(self, NodeAnnotation::Upd { .. })
    }
}

impl fmt::Display for NodeAnnotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeAnnotation::Cre(t) => write!(f, "cre(t:{t})"),
            NodeAnnotation::Upd { at, old } => write!(f, "upd(t:{at}, ov:{old})"),
        }
    }
}

/// An annotation on an arc: `add(t)` or `rem(t)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArcAnnotation {
    /// The arc was added at time `t`.
    Add(Timestamp),
    /// The arc was removed at time `t`. The arc itself stays in the DOEM
    /// graph — that is the whole point of the representation.
    Rem(Timestamp),
}

impl ArcAnnotation {
    /// The annotation's timestamp.
    pub fn at(&self) -> Timestamp {
        match self {
            ArcAnnotation::Add(t) | ArcAnnotation::Rem(t) => *t,
        }
    }

    /// `true` for `add` annotations.
    pub fn is_add(&self) -> bool {
        matches!(self, ArcAnnotation::Add(_))
    }

    /// `true` for `rem` annotations.
    pub fn is_rem(&self) -> bool {
        matches!(self, ArcAnnotation::Rem(_))
    }

    /// Whether an arc whose annotations (in time order) are `anns` is in
    /// the *current* snapshot: its temporally last annotation, if any, is
    /// not `rem`.
    pub fn current(anns: &[ArcAnnotation]) -> bool {
        !matches!(anns.last(), Some(ArcAnnotation::Rem(_)))
    }

    /// Whether an arc whose annotations (in time order) are `anns` existed
    /// at time `t` (Section 3.2, corrected for arcs whose earliest
    /// annotation is a *later* `add`; see DESIGN.md).
    ///
    /// With no annotation at or before `t`, the arc existed iff it has no
    /// annotations at all (an original arc) or its earliest one is `rem`.
    /// Otherwise it existed iff the latest annotation at or before `t` is
    /// `add`.
    pub fn alive_at(anns: &[ArcAnnotation], t: Timestamp) -> bool {
        match anns.iter().rev().find(|ann| ann.at() <= t) {
            Some(ann) => ann.is_add(),
            None => anns.first().is_none_or(ArcAnnotation::is_rem),
        }
    }
}

impl fmt::Display for ArcAnnotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArcAnnotation::Add(t) => write!(f, "add(t:{t})"),
            ArcAnnotation::Rem(t) => write!(f, "rem(t:{t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn display_matches_figure_4_boxes() {
        assert_eq!(
            NodeAnnotation::Upd {
                at: ts("1Jan97"),
                old: Value::Int(10)
            }
            .to_string(),
            "upd(t:1Jan97, ov:10)"
        );
        assert_eq!(
            NodeAnnotation::Cre(ts("5Jan97")).to_string(),
            "cre(t:5Jan97)"
        );
        assert_eq!(ArcAnnotation::Add(ts("1Jan97")).to_string(), "add(t:1Jan97)");
        assert_eq!(ArcAnnotation::Rem(ts("8Jan97")).to_string(), "rem(t:8Jan97)");
    }

    #[test]
    fn accessors() {
        let a = NodeAnnotation::Cre(ts("1Jan97"));
        assert!(a.is_cre() && !a.is_upd());
        assert_eq!(a.at(), ts("1Jan97"));
        let u = NodeAnnotation::Upd {
            at: ts("5Jan97"),
            old: Value::Complex,
        };
        assert!(u.is_upd());
        let r = ArcAnnotation::Rem(ts("8Jan97"));
        assert!(r.is_rem() && !r.is_add());
        assert_eq!(r.at(), ts("8Jan97"));
    }
}
