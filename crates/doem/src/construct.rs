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
//! Validity of the history is checked against a parallel plain-OEM replica
//! that applies the operations with ordinary semantics (including
//! unreachability GC at change-set boundaries), because validity is defined
//! on the OEM side, not on the annotated graph.
//!
//! Each step costs what the change set touches, not what the database
//! holds: both boundary collections are change-set-local
//! ([`oem::OemDatabase::collect_garbage_from`]).

use crate::{DoemDatabase, Result};
use oem::{ChangeOp, ChangeSet, History, OemDatabase, Timestamp};

/// Construct `D(O, H)`.
///
/// Fails if `H` is not valid for `O`; on failure the error names the first
/// operation whose precondition is violated.
pub fn doem_from_history(initial: &OemDatabase, history: &History) -> Result<DoemDatabase> {
    let mut replica = initial.clone();
    let mut doem = DoemDatabase::from_snapshot(initial);
    for entry in history.entries() {
        // Both graphs are dropped on failure: nothing to stage for.
        apply_in_place(&mut doem, &mut replica, &entry.changes, entry.at)?;
    }
    Ok(doem)
}

/// Apply one timestamped change set to an existing DOEM database, keeping
/// the plain-OEM `replica` in lockstep. Exposed for incremental use (the
/// QSS DOEM manager extends its DOEM database one polling interval at a
/// time).
///
/// All or nothing: a rejected set leaves `doem` and `replica` exactly as
/// they were. The operations run on O(1) persistent clones that replace
/// the originals only once the whole set has applied, like
/// [`ChangeSet::apply_to`].
///
/// Every node of `replica` and of `doem`'s graph must be reachable on
/// entry, because the boundary collection looks only at what this set
/// could have orphaned. A snapshot satisfies that, and so does whatever
/// this function leaves behind, on `Ok` and on `Err`.
pub fn apply_set(
    doem: &mut DoemDatabase,
    replica: &mut OemDatabase,
    changes: &ChangeSet,
    at: Timestamp,
) -> Result<()> {
    let mut staged_doem = doem.clone();
    let mut staged_replica = replica.clone();
    apply_in_place(&mut staged_doem, &mut staged_replica, changes, at)?;
    *doem = staged_doem;
    *replica = staged_replica;
    Ok(())
}

/// One step of the induction, operation by operation. On `Err` the two
/// graphs hold the operations that preceded the rejected one and must be
/// discarded.
fn apply_in_place(
    doem: &mut DoemDatabase,
    replica: &mut OemDatabase,
    changes: &ChangeSet,
    at: Timestamp,
) -> Result<()> {
    for op in changes.canonical_order() {
        // Validity is judged against the plain replica (paper semantics);
        // apply there first so ordering errors surface before the DOEM
        // graph is touched for this op.
        op.apply(replica)?;
        match op {
            ChangeOp::CreNode(n, v) => doem.record_create(*n, v.clone(), at)?,
            ChangeOp::UpdNode(n, v) => doem.record_update(*n, v.clone(), at)?,
            ChangeOp::AddArc(a) => doem.record_add(*a, at)?,
            ChangeOp::RemArc(a) => doem.record_remove(*a, at)?,
        }
    }
    replica.collect_garbage_from(changes.gc_suspects());
    // DOEM-side GC counts removed arcs as reachability, so only nodes with
    // no history ties (created and never linked) are dropped.
    doem.collect_garbage_from(changes.created_nodes().iter().copied());
    debug_assert!(doem.check_invariants().is_ok());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArcAnnotation, NodeAnnotation};
    use oem::guide::{guide_figure2, history_example_2_3, ids};
    use oem::{ArcTriple, Value};

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
