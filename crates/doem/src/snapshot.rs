//! Snapshot extraction from a DOEM database (Section 3.2).
//!
//! * [`original_snapshot`] — `O0(D)`: the database before the recorded
//!   history.
//! * [`snapshot_at`] — `Ot(D)`: the database as of time `t`, via a preorder
//!   traversal that reconstructs values from `upd` annotations and follows
//!   only arcs that existed at `t`.
//! * [`current_snapshot`] — the present state (`t = +∞`).
//!
//! One correction to the paper's prose: its arc rule for `Ot` ("arcs that
//! either do not have any annotation with timestamp ≤ t, or have an add
//! annotation as the annotation with the greatest timestamp ≤ t") would
//! treat an arc first *added* at `t' > t` as present at `t`. We use the
//! rule consistent with the `O0` definition: with no annotation at or
//! before `t`, the arc existed iff it has no annotations at all or its
//! earliest annotation is `rem`.

use crate::{ArcAnnotation, DoemDatabase};
use oem::{NodeId, OemDatabase, Timestamp, Value};
use std::collections::HashMap;

/// The snapshot of `D` at time `t` (`Ot(D)`).
///
/// Node ids are preserved; only nodes reachable at `t` through arcs that
/// existed at `t` appear. If the root itself did not exist at `t` (possible
/// for QSS result databases whose root is created at the first poll), the
/// snapshot is the empty database (a bare root).
///
/// ```
/// use doem::{doem_figure4, snapshot_at};
/// use oem::guide::ids;
///
/// // On 2Jan97 the price was already 20, but the 5Jan97 comment and the
/// // 8Jan97 parking removal had not happened yet.
/// let s = snapshot_at(&doem_figure4(), "2Jan97".parse().unwrap());
/// assert_eq!(s.value(ids::N1).unwrap(), &oem::Value::Int(20));
/// assert!(!s.contains_node(ids::N5));
/// assert!(s.contains_arc(oem::ArcTriple::new(ids::N6, "parking", ids::N7)));
/// ```
pub fn snapshot_at(d: &DoemDatabase, t: Timestamp) -> OemDatabase {
    let mut out = OemDatabase::with_root_id(d.name(), d.root());
    let root_value = d.value_at(d.root(), t).unwrap_or(Value::Complex);
    out.set_value(d.root(), root_value)
        .expect("root exists in a fresh database");

    // Preorder traversal following only arcs alive at t (Section 3.2).
    let mut stack = vec![d.root()];
    let mut visited: HashMap<NodeId, bool> = HashMap::new();
    visited.insert(d.root(), true);
    let mut arcs = Vec::new();
    while let Some(n) = stack.pop() {
        // Atomic at t, or not yet created: nothing below it at t.
        if !d.value_ref_at(n, t).is_some_and(Value::is_complex) {
            continue;
        }
        for (label, child, anns) in d.arcs_from(n) {
            if !ArcAnnotation::alive_at(anns, t) || d.value_ref_at(child, t).is_none() {
                continue;
            }
            arcs.push(oem::ArcTriple::new(n, label, child));
            if let std::collections::hash_map::Entry::Vacant(e) = visited.entry(child) {
                e.insert(true);
                stack.push(child);
            }
        }
    }
    // Materialize nodes then arcs.
    for (&n, _) in visited.iter() {
        if n == d.root() {
            continue;
        }
        let v = d.value_at(n, t).expect("visited nodes existed at t");
        out.create_node_with_id(n, v)
            .expect("visited set has unique ids");
    }
    for arc in arcs {
        out.insert_arc(arc).expect("arcs reference visited nodes");
    }
    debug_assert!(out.check_invariants().is_ok(), "{:?}", out.check_invariants());
    out
}

/// The original snapshot `O0(D)`: nodes without a `cre` annotation, arcs
/// that have no annotations or whose earliest annotation is `rem`, values
/// rolled back through every `upd`.
pub fn original_snapshot(d: &DoemDatabase) -> OemDatabase {
    snapshot_at(d, Timestamp::NEG_INFINITY)
}

/// The current snapshot: `Ot` at `t = +∞`.
pub fn current_snapshot(d: &DoemDatabase) -> OemDatabase {
    snapshot_at(d, Timestamp::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doem_from_history;
    use oem::guide::{guide_figure2, guide_figure3, history_example_2_3, ids};
    use oem::same_database;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn figure4() -> DoemDatabase {
        doem_from_history(&guide_figure2(), &history_example_2_3()).unwrap()
    }

    #[test]
    fn original_snapshot_recovers_figure2() {
        let d = figure4();
        let o0 = original_snapshot(&d);
        assert!(same_database(&o0, &guide_figure2()));
    }

    #[test]
    fn current_snapshot_recovers_figure3() {
        let d = figure4();
        let now = current_snapshot(&d);
        assert!(same_database(&now, &guide_figure3()));
    }

    #[test]
    fn intermediate_snapshots_reflect_each_change_set() {
        let d = figure4();

        // Just before 1Jan97: identical to Figure 2.
        assert!(same_database(&snapshot_at(&d, ts("31Dec96")), &guide_figure2()));

        // At 1Jan97 (after U1): price 20, Hakata exists, no comment yet,
        // Janta still parks at n7.
        let s1 = snapshot_at(&d, ts("1Jan97"));
        assert_eq!(s1.value(ids::N1).unwrap(), &Value::Int(20));
        assert!(s1.contains_node(ids::N2));
        assert!(!s1.contains_node(ids::N5));
        assert!(s1.contains_arc(oem::ArcTriple::new(ids::N6, "parking", ids::N7)));

        // Between U2 and U3 (say 6Jan97): comment present, parking intact.
        let s2 = snapshot_at(&d, ts("6Jan97"));
        assert!(s2.contains_arc(oem::ArcTriple::new(ids::N2, "comment", ids::N5)));
        assert!(s2.contains_arc(oem::ArcTriple::new(ids::N6, "parking", ids::N7)));

        // At/after 8Jan97: parking arc gone.
        let s3 = snapshot_at(&d, ts("8Jan97"));
        assert!(!s3.contains_arc(oem::ArcTriple::new(ids::N6, "parking", ids::N7)));
        assert!(same_database(&s3, &guide_figure3()));
    }

    #[test]
    fn snapshots_check_oem_invariants() {
        let d = figure4();
        for t in ["31Dec96", "1Jan97", "5Jan97", "8Jan97"] {
            snapshot_at(&d, ts(t)).check_invariants().unwrap();
        }
    }

    #[test]
    fn node_created_later_is_absent_earlier() {
        let d = figure4();
        let s = snapshot_at(&d, ts("31Dec96"));
        assert!(!s.contains_node(ids::N2));
        assert!(!s.contains_node(ids::N3));
    }

    #[test]
    fn shared_node_survives_single_arc_removal() {
        let d = figure4();
        let now = current_snapshot(&d);
        // Janta's parking arc is gone but n7 is reachable via Bangkok.
        assert!(now.contains_node(ids::N7));
        assert_eq!(now.parents(ids::N7).len(), 1);
    }
}
