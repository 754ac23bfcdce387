//! The four basic change operations (Section 2.1).
//!
//! `creNode`, `updNode`, `addArc` and `remArc` with the paper's exact
//! preconditions. Node deletion is deliberately absent: persistence is by
//! reachability from the root, so deletion happens implicitly when
//! [`crate::OemDatabase::collect_garbage`] runs at change-set boundaries.

use crate::notation::LabelText;
use crate::{ArcTriple, Label, NodeId, OemDatabase, OemError, Result, Value};
use std::fmt;

/// What [`ChangeOp::validate`] asks of the database it judges an
/// operation against. A plain [`OemDatabase`] answers for itself; a DOEM
/// database answers for the current snapshot its annotated graph holds.
pub trait CurrentView {
    /// Whether `n` is an object of the current state.
    fn contains_node(&self, n: NodeId) -> bool;
    /// Whether `n` was never used as an object id.
    fn is_fresh(&self, n: NodeId) -> bool;
    /// Whether `n` is a complex object of the current state.
    fn is_complex(&self, n: NodeId) -> bool;
    /// Whether `n` has an outgoing arc in the current state.
    fn has_children(&self, n: NodeId) -> bool;
    /// Whether the arc is in the current state.
    fn contains_arc(&self, arc: ArcTriple) -> bool;
}

impl CurrentView for OemDatabase {
    fn contains_node(&self, n: NodeId) -> bool {
        OemDatabase::contains_node(self, n)
    }
    fn is_fresh(&self, n: NodeId) -> bool {
        OemDatabase::is_fresh(self, n)
    }
    fn is_complex(&self, n: NodeId) -> bool {
        OemDatabase::is_complex(self, n)
    }
    fn has_children(&self, n: NodeId) -> bool {
        !self.children(n).is_empty()
    }
    fn contains_arc(&self, arc: ArcTriple) -> bool {
        OemDatabase::contains_arc(self, arc)
    }
}

/// A basic change operation `u`; `u.apply(&mut db)` computes `u(O)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ChangeOp {
    /// `creNode(n, v)`: create a new object with fresh identifier `n` and
    /// initial value `v` (atomic or `C`).
    CreNode(NodeId, Value),
    /// `updNode(n, v)`: change the value of `n` to `v`. `n` must be atomic
    /// or complex without subobjects.
    UpdNode(NodeId, Value),
    /// `addArc(p, l, c)`: add an `l`-labeled arc from complex object `p` to
    /// `c`; the arc must not already exist.
    AddArc(ArcTriple),
    /// `remArc(p, l, c)`: remove the existing arc `(p, l, c)`.
    RemArc(ArcTriple),
}

impl ChangeOp {
    /// Shorthand constructor for `addArc`.
    pub fn add_arc(p: NodeId, l: impl Into<Label>, c: NodeId) -> ChangeOp {
        ChangeOp::AddArc(ArcTriple::new(p, l, c))
    }

    /// Shorthand constructor for `remArc`.
    pub fn rem_arc(p: NodeId, l: impl Into<Label>, c: NodeId) -> ChangeOp {
        ChangeOp::RemArc(ArcTriple::new(p, l, c))
    }

    /// Check this operation's preconditions against `db` without mutating
    /// it. `Ok(())` means the operation is *valid for* `db` in the paper's
    /// sense.
    pub fn validate(&self, db: &(impl CurrentView + ?Sized)) -> Result<()> {
        let require = |holds: bool, e: OemError| if holds { Ok(()) } else { Err(e) };
        match *self {
            ChangeOp::CreNode(n, _) => require(db.is_fresh(n), OemError::IdNotFresh(n)),
            ChangeOp::UpdNode(n, _) => require(db.contains_node(n), OemError::NoSuchNode(n))
                .and(require(!db.has_children(n), OemError::UpdateOnNodeWithChildren(n))),
            ChangeOp::AddArc(a) => Ok(())
                .and(require(db.contains_node(a.parent), OemError::NoSuchNode(a.parent)))
                .and(require(db.contains_node(a.child), OemError::NoSuchNode(a.child)))
                .and(require(db.is_complex(a.parent), OemError::ParentNotComplex(a.parent)))
                .and(require(!db.contains_arc(a), OemError::ArcExists(a))),
            ChangeOp::RemArc(a) => require(db.contains_arc(a), OemError::NoSuchArc(a)),
        }
    }

    /// Validate and apply this operation to `db`.
    ///
    /// Note that applying a single operation may leave objects temporarily
    /// unreachable (Section 2.2); garbage collection runs only at change-set
    /// boundaries.
    pub fn apply(&self, db: &mut OemDatabase) -> Result<()> {
        self.validate(db)?;
        match self {
            ChangeOp::CreNode(n, v) => db.create_node_with_id(*n, v.clone()),
            ChangeOp::UpdNode(n, v) => db.set_value(*n, v.clone()),
            ChangeOp::AddArc(arc) => db.insert_arc(*arc),
            ChangeOp::RemArc(arc) => db.delete_arc(*arc),
        }
    }
}

impl fmt::Display for ChangeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeOp::CreNode(n, v) => write!(f, "creNode({n}, {v})"),
            ChangeOp::UpdNode(n, v) => write!(f, "updNode({n}, {v})"),
            ChangeOp::AddArc(a) => {
                let label = LabelText(a.label.as_str());
                write!(f, "addArc({}, {label}, {})", a.parent, a.child)
            }
            ChangeOp::RemArc(a) => {
                let label = LabelText(a.label.as_str());
                write!(f, "remArc({}, {label}, {})", a.parent, a.child)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_restaurant() -> (OemDatabase, NodeId, NodeId) {
        let mut db = OemDatabase::new("guide");
        let r = db.create_node(Value::Complex);
        let p = db.create_node(Value::Int(10));
        db.insert_arc(ArcTriple::new(db.root(), "restaurant", r))
            .unwrap();
        db.insert_arc(ArcTriple::new(r, "price", p)).unwrap();
        (db, r, p)
    }

    #[test]
    fn cre_node_requires_fresh_id() {
        let (mut db, r, _) = db_with_restaurant();
        assert!(matches!(
            ChangeOp::CreNode(r, Value::Int(1)).apply(&mut db),
            Err(OemError::IdNotFresh(_))
        ));
        let fresh = db.alloc_id();
        ChangeOp::CreNode(fresh, Value::str("Hakata"))
            .apply(&mut db)
            .unwrap();
        assert_eq!(db.value(fresh).unwrap(), &Value::str("Hakata"));
    }

    #[test]
    fn upd_node_example_2_2_price_change() {
        // "the price rating for Bangkok Cuisine is changed from 10 to 20"
        let (mut db, _, p) = db_with_restaurant();
        ChangeOp::UpdNode(p, Value::Int(20)).apply(&mut db).unwrap();
        assert_eq!(db.value(p).unwrap(), &Value::Int(20));
    }

    #[test]
    fn upd_node_rejects_complex_with_subobjects() {
        let (mut db, r, _) = db_with_restaurant();
        assert!(matches!(
            ChangeOp::UpdNode(r, Value::Int(1)).apply(&mut db),
            Err(OemError::UpdateOnNodeWithChildren(_))
        ));
    }

    #[test]
    fn upd_node_may_retype_childless_complex() {
        // "The model requires us to remove all subobjects of a complex
        // object n before transforming it into an atomic object."
        let (mut db, r, p) = db_with_restaurant();
        ChangeOp::rem_arc(r, "price", p).apply(&mut db).unwrap();
        ChangeOp::UpdNode(r, Value::str("closed"))
            .apply(&mut db)
            .unwrap();
        assert_eq!(db.value(r).unwrap(), &Value::str("closed"));
        // And back to complex:
        ChangeOp::UpdNode(r, Value::Complex).apply(&mut db).unwrap();
        assert!(db.is_complex(r));
    }

    #[test]
    fn add_arc_preconditions() {
        let (mut db, r, p) = db_with_restaurant();
        // Parent must be complex.
        assert!(matches!(
            ChangeOp::add_arc(p, "x", r).apply(&mut db),
            Err(OemError::ParentNotComplex(_))
        ));
        // Both endpoints must exist.
        let ghost = NodeId::from_raw(999);
        assert!(matches!(
            ChangeOp::add_arc(r, "x", ghost).apply(&mut db),
            Err(OemError::NoSuchNode(_))
        ));
        assert!(matches!(
            ChangeOp::add_arc(ghost, "x", r).apply(&mut db),
            Err(OemError::NoSuchNode(_))
        ));
        // The arc must not already exist.
        assert!(matches!(
            ChangeOp::add_arc(r, "price", p).apply(&mut db),
            Err(OemError::ArcExists(_))
        ));
    }

    #[test]
    fn rem_arc_requires_existing_arc() {
        let (mut db, r, p) = db_with_restaurant();
        assert!(matches!(
            ChangeOp::rem_arc(r, "cost", p).apply(&mut db),
            Err(OemError::NoSuchArc(_))
        ));
        ChangeOp::rem_arc(r, "price", p).apply(&mut db).unwrap();
        assert!(!db.contains_arc(ArcTriple::new(r, "price", p)));
    }

    #[test]
    fn validate_does_not_mutate() {
        let (db, r, p) = db_with_restaurant();
        let before_nodes = db.node_count();
        let op = ChangeOp::rem_arc(r, "price", p);
        op.validate(&db).unwrap();
        assert_eq!(db.node_count(), before_nodes);
        assert!(db.contains_arc(ArcTriple::new(r, "price", p)));
    }

    #[test]
    fn display_matches_paper_notation() {
        let op = ChangeOp::UpdNode(NodeId::from_raw(1), Value::Int(20));
        assert_eq!(op.to_string(), "updNode(n1, 20)");
        let op = ChangeOp::add_arc(NodeId::from_raw(4), "restaurant", NodeId::from_raw(2));
        assert_eq!(op.to_string(), "addArc(n4, restaurant, n2)");
        let op = ChangeOp::CreNode(NodeId::from_raw(3), Value::str("Hakata"));
        assert_eq!(op.to_string(), "creNode(n3, \"Hakata\")");
        let op = ChangeOp::CreNode(NodeId::from_raw(2), Value::Complex);
        assert_eq!(op.to_string(), "creNode(n2, C)");
    }
}
