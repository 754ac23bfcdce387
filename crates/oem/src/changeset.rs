//! Change sets: unordered collections of basic change operations
//! (Section 2.2).
//!
//! A set `U` is *valid for* a database `O` when (1) some ordering of `U` is
//! a valid sequence for `O`, (2) every valid ordering produces the same
//! database, and (3) `U` never contains both `addArc(p,l,c)` and
//! `remArc(p,l,c)`.
//!
//! Checking (2) by enumerating orderings is exponential, so we rely on two
//! structural facts, both property-tested in this module and in the
//! integration suite:
//!
//! * **Determinism.** If every valid ordering applies each operation exactly
//!   once, the result is fixed by the *set*: final arcs are
//!   `(A ∪ adds) \ rems` (disjoint by condition 3) and final values are
//!   fixed provided there is at most one `updNode` per node and one
//!   `creNode` per id. We therefore require that uniqueness up front.
//! * **Canonical scheduling.** Operation preconditions only ever force the
//!   phase order `creNode → remArc → updNode → addArc`: `remArc` can only
//!   target pre-existing arcs (condition 3), `updNode` may need arcs
//!   removed first (complex→atomic retyping), and `addArc` may need a node
//!   created or retyped to `C` first. Hence if *any* valid ordering exists,
//!   the phase ordering is valid, and trying it is a complete decision
//!   procedure for condition (1).

use crate::{ArcTriple, ChangeOp, NodeId, OemDatabase, OemError, Result};
use std::collections::HashSet;
use std::fmt;

/// An unordered, conflict-free set of basic change operations.
///
/// The structural uniqueness conditions (one `updNode` per node, one
/// `creNode` per id, no add/rem pair on the same arc) are enforced at
/// insertion time; validity *for a particular database* is checked by
/// [`ChangeSet::apply_to`] / [`ChangeSet::validate_for`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChangeSet {
    ops: Vec<ChangeOp>,
    created: HashSet<NodeId>,
    updated: HashSet<NodeId>,
    added: HashSet<ArcTriple>,
    removed: HashSet<ArcTriple>,
}

impl ChangeSet {
    /// The empty change set.
    pub fn new() -> ChangeSet {
        ChangeSet::default()
    }

    /// Build a change set from operations, rejecting structural conflicts.
    pub fn from_ops(ops: impl IntoIterator<Item = ChangeOp>) -> Result<ChangeSet> {
        let mut set = ChangeSet::new();
        for op in ops {
            set.push(op)?;
        }
        Ok(set)
    }

    /// Add one operation, rejecting structural conflicts. Exact duplicates
    /// are ignored (it is a set).
    pub fn push(&mut self, op: ChangeOp) -> Result<()> {
        match &op {
            ChangeOp::CreNode(n, _) => {
                if self.created.contains(n) {
                    if self.ops.contains(&op) {
                        return Ok(()); // exact duplicate
                    }
                    return Err(OemError::ConflictingCreates(*n));
                }
                self.created.insert(*n);
            }
            ChangeOp::UpdNode(n, _) => {
                if self.updated.contains(n) {
                    if self.ops.contains(&op) {
                        return Ok(());
                    }
                    return Err(OemError::ConflictingUpdates(*n));
                }
                self.updated.insert(*n);
            }
            ChangeOp::AddArc(a) => {
                if self.removed.contains(a) {
                    return Err(OemError::AddRemConflict(*a));
                }
                if !self.added.insert(*a) {
                    return Ok(());
                }
            }
            ChangeOp::RemArc(a) => {
                if self.added.contains(a) {
                    return Err(OemError::AddRemConflict(*a));
                }
                if !self.removed.insert(*a) {
                    return Ok(());
                }
            }
        }
        self.ops.push(op);
        Ok(())
    }

    /// Number of operations in the set.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in insertion order (order carries no meaning).
    pub fn ops(&self) -> &[ChangeOp] {
        &self.ops
    }

    /// Iterate over the operations.
    pub fn iter(&self) -> impl Iterator<Item = &ChangeOp> {
        self.ops.iter()
    }

    /// Node ids this set creates (`creNode` targets).
    ///
    /// Together with [`ChangeSet::updated_nodes`], [`ChangeSet::added_arcs`]
    /// and [`ChangeSet::removed_arcs`] this is the *delta-restriction*
    /// surface incremental evaluation builds on: a semi-naive evaluator
    /// restricts one query constraint at a time to candidates touched by
    /// these sets while the remaining constraints see the full database
    /// (see `DESIGN.md` §11).
    ///
    /// ```
    /// use oem::{ChangeOp, ChangeSet, NodeId, Value};
    /// let n9 = NodeId::from_raw(9);
    /// let set = ChangeSet::from_ops([
    ///     ChangeOp::CreNode(n9, Value::str("Hakata")),
    ///     ChangeOp::add_arc(NodeId::from_raw(1), "restaurant", n9),
    /// ])
    /// .unwrap();
    /// assert!(set.created_nodes().contains(&n9));
    /// assert_eq!(set.added_arcs().len(), 1);
    /// assert!(set.updated_nodes().is_empty() && set.removed_arcs().is_empty());
    /// ```
    pub fn created_nodes(&self) -> &HashSet<NodeId> {
        &self.created
    }

    /// Node ids this set updates (`updNode` targets).
    pub fn updated_nodes(&self) -> &HashSet<NodeId> {
        &self.updated
    }

    /// Arcs this set inserts (`addArc` triples).
    pub fn added_arcs(&self) -> &HashSet<ArcTriple> {
        &self.added
    }

    /// Arcs this set deletes (`remArc` triples).
    pub fn removed_arcs(&self) -> &HashSet<ArcTriple> {
        &self.removed
    }

    /// The only nodes applying this set can leave unreachable, given a
    /// database in which every node was reachable: the child of each
    /// removed arc and each created node (everything else unreachable lies
    /// downstream of these). This is the suspect list
    /// [`OemDatabase::collect_garbage_from`] takes.
    pub fn gc_suspects(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.removed
            .iter()
            .map(|a| a.child)
            .chain(self.created.iter().copied())
    }

    /// The canonical phase ordering `creNode → remArc → updNode → addArc`.
    ///
    /// By the scheduling argument in the module docs, this ordering is valid
    /// for `O` iff *some* valid ordering exists.
    pub fn canonical_order(&self) -> Vec<&ChangeOp> {
        let phase = |op: &ChangeOp| match op {
            ChangeOp::CreNode(..) => 0,
            ChangeOp::RemArc(..) => 1,
            ChangeOp::UpdNode(..) => 2,
            ChangeOp::AddArc(..) => 3,
        };
        let mut ordered: Vec<&ChangeOp> = self.ops.iter().collect();
        ordered.sort_by_key(|op| phase(op));
        ordered
    }

    /// Check validity for `db` without mutating it (applies to a clone).
    pub fn validate_for(&self, db: &OemDatabase) -> Result<()> {
        let mut scratch = db.clone();
        self.apply_ops(&mut scratch)
    }

    fn apply_ops(&self, db: &mut OemDatabase) -> Result<()> {
        for op in self.canonical_order() {
            op.apply(db)
                .map_err(|e| OemError::NoValidOrdering(Box::new(e)))?;
        }
        Ok(())
    }

    /// Apply the whole set to `db` (the paper's `U(O)`), then garbage-
    /// collect unreachable objects — Section 2.2: "immediately after each
    /// sequence has been applied, nodes that are unreachable are considered
    /// as deleted". Returns the ids deleted by that collection.
    ///
    /// On error the database is left untouched (validation runs on a clone
    /// first). Collection is change-set-local
    /// ([`OemDatabase::collect_garbage_from`]), so `db` must satisfy
    /// Definition 2.1's reachability on entry, as every database between
    /// change sets does.
    pub fn apply_to(&self, db: &mut OemDatabase) -> Result<Vec<NodeId>> {
        let mut staged = db.clone();
        self.apply_ops(&mut staged)?;
        let dead = staged.collect_garbage_from(self.gc_suspects());
        *db = staged;
        Ok(dead)
    }
}

impl fmt::Display for ChangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{op}")?;
        }
        f.write_str("}")
    }
}

impl IntoIterator for ChangeSet {
    type Item = ChangeOp;
    type IntoIter = std::vec::IntoIter<ChangeOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a> IntoIterator for &'a ChangeSet {
    type Item = &'a ChangeOp;
    type IntoIter = std::slice::Iter<'a, ChangeOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn base() -> (OemDatabase, NodeId, NodeId) {
        let mut db = OemDatabase::new("guide");
        let r = db.create_node(Value::Complex);
        let p = db.create_node(Value::Int(10));
        db.insert_arc(ArcTriple::new(db.root(), "restaurant", r))
            .unwrap();
        db.insert_arc(ArcTriple::new(r, "price", p)).unwrap();
        (db, r, p)
    }

    #[test]
    fn example_2_2_u1_applies_out_of_order() {
        // U1 of Example 2.3, deliberately inserted in a scrambled order:
        // the addArc operations come before the creNodes they depend on.
        let (mut db, _, p) = base();
        let n2 = db.alloc_id();
        let n3 = db.alloc_id();
        let u1 = ChangeSet::from_ops([
            ChangeOp::add_arc(db.root(), "restaurant", n2),
            ChangeOp::add_arc(n2, "name", n3),
            ChangeOp::UpdNode(p, Value::Int(20)),
            ChangeOp::CreNode(n2, Value::Complex),
            ChangeOp::CreNode(n3, Value::str("Hakata")),
        ])
        .unwrap();
        let dead = u1.apply_to(&mut db).unwrap();
        assert!(dead.is_empty());
        assert_eq!(db.value(p).unwrap(), &Value::Int(20));
        assert_eq!(db.value(n3).unwrap(), &Value::str("Hakata"));
        assert!(db.contains_arc(ArcTriple::new(n2, "name", n3)));
        db.check_invariants().unwrap();
    }

    #[test]
    fn add_rem_conflict_is_rejected_at_build_time() {
        let (db, r, p) = base();
        let _ = db;
        let err = ChangeSet::from_ops([
            ChangeOp::add_arc(r, "x", p),
            ChangeOp::rem_arc(r, "x", p),
        ])
        .unwrap_err();
        assert!(matches!(err, OemError::AddRemConflict(_)));
    }

    #[test]
    fn two_updates_of_one_node_are_rejected() {
        let (_, _, p) = base();
        let err = ChangeSet::from_ops([
            ChangeOp::UpdNode(p, Value::Int(1)),
            ChangeOp::UpdNode(p, Value::Int(2)),
        ])
        .unwrap_err();
        assert!(matches!(err, OemError::ConflictingUpdates(_)));
    }

    #[test]
    fn exact_duplicates_collapse() {
        let (_, _, p) = base();
        let set = ChangeSet::from_ops([
            ChangeOp::UpdNode(p, Value::Int(1)),
            ChangeOp::UpdNode(p, Value::Int(1)),
        ])
        .unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn retype_then_add_arc_schedules_correctly() {
        // updNode(p, C) then addArc(p, ...) — insertion order reversed.
        let (mut db, r, p) = base();
        let _ = r;
        let n = db.alloc_id();
        let set = ChangeSet::from_ops([
            ChangeOp::add_arc(p, "detail", n),
            ChangeOp::CreNode(n, Value::str("x")),
            ChangeOp::UpdNode(p, Value::Complex),
        ])
        .unwrap();
        set.apply_to(&mut db).unwrap();
        assert!(db.is_complex(p));
        db.check_invariants().unwrap();
    }

    #[test]
    fn remove_children_then_retype_schedules_correctly() {
        // remArc must run before updNode(r, atomic).
        let (mut db, r, p) = base();
        let set = ChangeSet::from_ops([
            ChangeOp::UpdNode(r, Value::str("closed")),
            ChangeOp::rem_arc(r, "price", p),
        ])
        .unwrap();
        let dead = set.apply_to(&mut db).unwrap();
        assert_eq!(dead, vec![p]); // price object became unreachable
        assert_eq!(db.value(r).unwrap(), &Value::str("closed"));
        db.check_invariants().unwrap();
    }

    #[test]
    fn invalid_set_leaves_database_untouched() {
        let (mut db, r, p) = base();
        let before = db.clone();
        let set = ChangeSet::from_ops([
            ChangeOp::UpdNode(p, Value::Int(20)),
            ChangeOp::rem_arc(r, "no-such", p),
        ])
        .unwrap();
        assert!(set.apply_to(&mut db).is_err());
        assert_eq!(db.value(p).unwrap(), before.value(p).unwrap());
        assert_eq!(db.node_count(), before.node_count());
    }

    #[test]
    fn gc_runs_at_set_boundary_not_within() {
        // creNode leaves the node unreachable *within* the set; the addArc
        // in the same set rescues it, so nothing is collected.
        let (mut db, r, _) = base();
        let n = db.alloc_id();
        let set = ChangeSet::from_ops([
            ChangeOp::CreNode(n, Value::str("comment")),
            ChangeOp::add_arc(r, "comment", n),
        ])
        .unwrap();
        assert!(set.apply_to(&mut db).unwrap().is_empty());
        // Whereas a bare creNode with no arc is collected at the boundary.
        let orphan = db.alloc_id();
        let set = ChangeSet::from_ops([ChangeOp::CreNode(orphan, Value::Int(0))]).unwrap();
        assert_eq!(set.apply_to(&mut db).unwrap(), vec![orphan]);
        assert!(!db.is_fresh(orphan)); // id retired, never reused
    }

    #[test]
    fn order_independence_any_valid_permutation_agrees() {
        // Apply every permutation of a 4-op set naively (op-by-op, no
        // canonical ordering); all permutations that happen to be valid
        // sequences must agree with the canonical result.
        let (db0, r, p) = base();
        let mut db_for_ids = db0.clone();
        let n = db_for_ids.alloc_id();
        let ops = vec![
            ChangeOp::CreNode(n, Value::str("thai")),
            ChangeOp::add_arc(r, "cuisine", n),
            ChangeOp::UpdNode(p, Value::Int(20)),
            ChangeOp::rem_arc(r, "price", p),
        ];
        let set = ChangeSet::from_ops(ops.clone()).unwrap();
        let mut canonical = db_for_ids.clone();
        set.apply_to(&mut canonical).unwrap();

        let mut valid_orderings = 0;
        let mut idx = [0usize, 1, 2, 3];
        // Heap's algorithm, iterative-enough: just enumerate via sorting.
        let mut perms = Vec::new();
        permute(&mut idx, 0, &mut perms);
        for perm in perms {
            let mut db = db_for_ids.clone();
            let mut ok = true;
            for &i in &perm {
                if ops[i].apply(&mut db).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                valid_orderings += 1;
                db.collect_garbage();
                assert_eq!(db.node_count(), canonical.node_count());
                assert_eq!(db.arc_count(), canonical.arc_count());
                for id in db.node_ids() {
                    assert_eq!(db.value(id).unwrap(), canonical.value(id).unwrap());
                }
            }
        }
        assert!(valid_orderings >= 2, "test should exercise several orders");
    }

    fn permute(idx: &mut [usize; 4], k: usize, out: &mut Vec<[usize; 4]>) {
        if k == idx.len() {
            out.push(*idx);
            return;
        }
        for i in k..idx.len() {
            idx.swap(k, i);
            permute(idx, k + 1, out);
            idx.swap(k, i);
        }
    }

    #[test]
    fn display_matches_paper_set_notation() {
        let set = ChangeSet::from_ops([ChangeOp::rem_arc(
            NodeId::from_raw(6),
            "parking",
            NodeId::from_raw(7),
        )])
        .unwrap();
        assert_eq!(set.to_string(), "{remArc(n6, parking, n7)}");
    }
}
