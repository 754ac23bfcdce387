//! Constructing `D(O, H)` — the DOEM representation of an OEM database and
//! a valid history (Section 3.1).
//!
//! Construction is inductive: start from `D0` (the snapshot with empty
//! annotation sets); for each `(ti, Ui)` process the operations in a valid
//! order, mirroring each operation into the annotated graph:
//!
//! * `updNode` — perform the update *and* attach `upd(ti, old value)`;
//! * `creNode` / `addArc` — perform it and attach `cre(ti)` / `add(ti)`;
//! * `remArc` — do **not** remove the arc; attach `rem(ti)`.
//!
//! Validity is defined on the OEM side, against the current state, which
//! the annotated graph holds: [`DoemDatabase::apply`] judges each
//! operation there by the plain OEM rules. [`apply_set`] keeps a plain
//! copy beside it only as a reference. Each step costs what the set
//! touches, not what the database holds.

use crate::{DoemDatabase, DoemError, Result};
use oem::{ChangeSet, History, OemDatabase, OemError, Timestamp};

/// Construct `D(O, H)`.
///
/// Fails if `H` is not valid for `O`; on failure the error names the first
/// operation whose precondition is violated.
pub fn doem_from_history(initial: &OemDatabase, history: &History) -> Result<DoemDatabase> {
    let mut doem = DoemDatabase::from_snapshot(initial);
    for entry in history.entries() {
        doem.apply(&entry.changes, entry.at)?;
    }
    Ok(doem)
}

/// The reference the native path is checked against: apply one change
/// set to `doem` with [`DoemDatabase::apply`] and to `replica`, the plain
/// OEM database of its current snapshot, with [`ChangeSet::apply_to`],
/// and fail with [`DoemError::ReferenceDisagrees`] unless both give the
/// same verdict and error. All or nothing, like both of those.
pub fn apply_set(
    doem: &mut DoemDatabase,
    replica: &mut OemDatabase,
    changes: &ChangeSet,
    at: Timestamp,
) -> Result<()> {
    let (mut d, mut r) = (doem.clone(), replica.clone());
    let native = d.apply(changes, at);
    let reference = changes.apply_to(&mut r).map_err(|e| match e {
        OemError::NoValidOrdering(op) => *op,
        e => e,
    });
    match (native, reference) {
        (Ok(()), Ok(_)) => {
            (*doem, *replica) = (d, r);
            Ok(())
        }
        (Err(DoemError::Oem(a)), Err(b)) if a == b => Err(DoemError::Oem(a)),
        (a, b) => Err(DoemError::ReferenceDisagrees(format!(
            "native {a:?}, reference {:?}",
            b.map(drop)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArcAnnotation, NodeAnnotation};
    use oem::guide::{guide_figure2, history_example_2_3, ids};
    use oem::{ArcTriple, ChangeOp, Value};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    /// The DOEM database of Figure 4 (Example 3.1).
    fn figure4() -> DoemDatabase {
        doem_from_history(&guide_figure2(), &history_example_2_3()).unwrap()
    }

    #[test]
    fn figure4_has_exactly_the_papers_annotations() {
        let d = figure4();
        d.check_invariants().unwrap();

        // upd(t:1Jan97, ov:10) on n1, and the current value is 20.
        assert_eq!(
            d.node_annotations(ids::N1),
            &[NodeAnnotation::Upd {
                at: ts("1Jan97"),
                old: Value::Int(10)
            }]
        );
        assert_eq!(d.graph().value(ids::N1).unwrap(), &Value::Int(20));

        // cre(t:1Jan97) on n2 and n3; cre(t:5Jan97) on n5.
        assert_eq!(d.node_annotations(ids::N2), &[NodeAnnotation::Cre(ts("1Jan97"))]);
        assert_eq!(d.node_annotations(ids::N3), &[NodeAnnotation::Cre(ts("1Jan97"))]);
        assert_eq!(d.node_annotations(ids::N5), &[NodeAnnotation::Cre(ts("5Jan97"))]);

        // add annotations on the three new arcs.
        for (arc, t) in [
            (ArcTriple::new(ids::N4, "restaurant", ids::N2), "1Jan97"),
            (ArcTriple::new(ids::N2, "name", ids::N3), "1Jan97"),
            (ArcTriple::new(ids::N2, "comment", ids::N5), "5Jan97"),
        ] {
            assert_eq!(d.arc_annotations(arc), &[ArcAnnotation::Add(ts(t))]);
        }

        // rem(t:8Jan97) on Janta's parking arc — which is still in the graph.
        let parking = ArcTriple::new(ids::N6, "parking", ids::N7);
        assert_eq!(d.arc_annotations(parking), &[ArcAnnotation::Rem(ts("8Jan97"))]);
        assert!(d.graph().contains_arc(parking));
        assert!(!d.arc_is_current(parking));

        // Exactly 8 annotations in total (1 upd + 3 cre + 3 add + 1 rem).
        assert_eq!(d.annotation_count(), 8);

        // Original nodes carry no annotations.
        assert!(d.node_annotations(ids::N4).is_empty());
        assert!(d.node_annotations(ids::N6).is_empty());
        assert!(d.node_annotations(ids::N7).is_empty());
    }

    #[test]
    fn invalid_history_is_rejected() {
        let db = guide_figure2();
        // Remove an arc that does not exist.
        let bogus = oem::History::from_entries([(
            ts("1Jan97"),
            oem::ChangeSet::from_ops([ChangeOp::rem_arc(ids::N4, "no-such", ids::N6)]).unwrap(),
        )])
        .unwrap();
        assert!(doem_from_history(&db, &bogus).is_err());
    }

    #[test]
    fn rejected_set_leaves_no_trace() {
        let initial = guide_figure2();
        let mut doem = DoemDatabase::from_snapshot(&initial);
        let mut replica = initial.clone();
        let fresh = replica.clone().alloc_id();
        // Canonical order runs the creNode, the remArc and the updNode
        // before the addArc from a missing parent fails.
        let bad = ChangeSet::from_ops([
            ChangeOp::CreNode(fresh, Value::Int(1)),
            ChangeOp::rem_arc(ids::N6, "parking", ids::N7),
            ChangeOp::UpdNode(ids::N1, Value::Int(99)),
            ChangeOp::add_arc(oem::NodeId::from_raw(999), "x", fresh),
        ])
        .unwrap();
        assert!(apply_set(&mut doem, &mut replica, &bad, ts("1Jan97")).is_err());
        assert!(crate::same_doem(&doem, &DoemDatabase::from_snapshot(&initial)));
        assert!(oem::same_database(&replica, &initial));
        assert!(replica.is_fresh(fresh));

        // The next set starts from a clean slate: the rejected node cannot
        // be attached, and the same id can be created for real.
        let attach =
            ChangeSet::from_ops([ChangeOp::add_arc(ids::N4, "y", fresh)]).unwrap();
        assert!(apply_set(&mut doem, &mut replica, &attach, ts("2Jan97")).is_err());
        let create = ChangeSet::from_ops([
            ChangeOp::CreNode(fresh, Value::Int(2)),
            ChangeOp::add_arc(ids::N4, "y", fresh),
        ])
        .unwrap();
        apply_set(&mut doem, &mut replica, &create, ts("3Jan97")).unwrap();
        assert_eq!(doem.annotation_count(), 2);
        replica.check_invariants().unwrap();
        doem.check_invariants().unwrap();
    }

    #[test]
    fn incremental_apply_set_equals_batch_construction() {
        let initial = guide_figure2();
        let history = history_example_2_3();
        let batch = doem_from_history(&initial, &history).unwrap();

        let mut doem = DoemDatabase::from_snapshot(&initial);
        let mut replica = initial.clone();
        for entry in history.entries() {
            apply_set(&mut doem, &mut replica, &entry.changes, entry.at).unwrap();
        }
        assert!(crate::same_doem(&batch, &doem));
    }

    #[test]
    fn update_remove_interleaving_round_trips_values() {
        // A node updated at t1 and t3; value_at must see each era.
        let initial = guide_figure2();
        let h = oem::History::from_entries([
            (
                ts("1Jan97"),
                oem::ChangeSet::from_ops([ChangeOp::UpdNode(ids::N1, Value::Int(20))]).unwrap(),
            ),
            (
                ts("3Jan97"),
                oem::ChangeSet::from_ops([ChangeOp::UpdNode(ids::N1, Value::str("pricey"))])
                    .unwrap(),
            ),
        ])
        .unwrap();
        let d = doem_from_history(&initial, &h).unwrap();
        assert_eq!(d.value_at(ids::N1, ts("31Dec96")), Some(Value::Int(10)));
        assert_eq!(d.value_at(ids::N1, ts("2Jan97")), Some(Value::Int(20)));
        assert_eq!(d.value_at(ids::N1, ts("4Jan97")), Some(Value::str("pricey")));
    }

    #[test]
    fn arc_removed_and_readded_is_one_arc_with_two_annotations() {
        let initial = guide_figure2();
        let arc = ArcTriple::new(ids::N6, "parking", ids::N7);
        let h = oem::History::from_entries([
            (
                ts("2Jan97"),
                oem::ChangeSet::from_ops([ChangeOp::RemArc(arc)]).unwrap(),
            ),
            (
                ts("6Jan97"),
                oem::ChangeSet::from_ops([ChangeOp::AddArc(arc)]).unwrap(),
            ),
        ])
        .unwrap();
        let d = doem_from_history(&initial, &h).unwrap();
        assert_eq!(
            d.arc_annotations(arc),
            &[ArcAnnotation::Rem(ts("2Jan97")), ArcAnnotation::Add(ts("6Jan97"))]
        );
        assert!(d.arc_is_current(arc));
    }

    #[test]
    fn orphan_creation_is_garbage_collected_from_doem_too() {
        let initial = guide_figure2();
        let mut scratch = initial.clone();
        let orphan = scratch.alloc_id();
        let h = oem::History::from_entries([(
            ts("1Jan97"),
            oem::ChangeSet::from_ops([ChangeOp::CreNode(orphan, Value::Int(0))]).unwrap(),
        )])
        .unwrap();
        let d = doem_from_history(&initial, &h).unwrap();
        assert!(!d.graph().contains_node(orphan));
        assert_eq!(d.annotation_count(), 0);
    }
}
