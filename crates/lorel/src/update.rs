//! The Lorel update language.
//!
//! Section 2.1 of the paper: "users will typically request 'higher-level'
//! changes based on the Lorel update language [AQM+96]; the basic change
//! operations defined here reflect the actual changes at the database
//! level." This module provides that higher level: declarative update
//! statements that *compile to* sets of basic change operations
//! (`creNode` / `updNode` / `addArc` / `remArc`), ready to be applied to an
//! OEM database or folded into a DOEM history.
//!
//! ```text
//! update guide.restaurant.price := 20
//!        where guide.restaurant.name = "Bangkok Cuisine"
//! insert guide.restaurant := { name "Hakata" }
//! remove guide.restaurant.parking
//!        where guide.restaurant.name = "Janta"
//! link   R.parking := P
//!        from guide.restaurant R, guide.restaurant.parking P
//!        where R.name = "Hakata"
//! ```
//!
//! Statements are one more rule of the query grammar: [`crate::parse_update`]
//! reads them with the query parser, so a statement's `from`/`where`
//! clauses are exactly a query's. This module holds the statement AST and
//! its compilation. Statement semantics follow Lorel's binding model: the
//! `from`/`where` machinery is the ordinary query planner, and the
//! statement applies its operation once per distinct binding of the
//! target path.

use crate::ast::{Expr, FromItem, LabelPattern, PathExpr, Query, SelectItem};
use crate::engine::{execute, Binding};
use crate::error::{LorelError, Result};
use crate::parser::parse_update;
use crate::plan::plan;
use crate::source::DataSource;
use oem::{ChangeOp, ChangeSet, NodeId, OemDatabase, Value};

/// A literal object in an `insert` statement.
#[derive(Clone, Debug, PartialEq)]
pub enum NewObject {
    /// An atomic value.
    Atom(Value),
    /// A complex object: labeled children.
    Complex(Vec<(String, NewObject)>),
}

/// A parsed update statement: one operation, applied at every binding of
/// `target` that the `from`/`where` clauses admit.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateStmt {
    /// What to do at each binding.
    pub op: UpdateOp,
    /// The bound path. Except for `update`, its prefix binds the parent
    /// object and its final label names the arc.
    pub target: PathExpr,
    /// Extra range declarations.
    pub from: Vec<FromItem>,
    /// Filter.
    pub where_clause: Option<Expr>,
}

/// The operation of an update statement.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// `update PATH := value` — `updNode` on every binding of the path.
    Assign(Value),
    /// `insert PATH := object` — create the object structure and hang it
    /// off every binding of the path's *prefix* via the path's final label.
    Insert(NewObject),
    /// `remove PATH` — `remArc` on the final arc of every binding of the
    /// path.
    Remove,
    /// `link PATH := CHILD` — `addArc` from every binding of the path's
    /// prefix, via the final label, to every binding of `CHILD`.
    Link(PathExpr),
}

/// The result of compiling an update statement: the change set plus the
/// ids of any created objects (in creation order).
#[derive(Clone, Debug)]
pub struct CompiledUpdate {
    /// The basic change operations.
    pub changes: ChangeSet,
    /// Objects the statement creates (inserts only).
    pub created: Vec<NodeId>,
}

/// Split a path into (prefix, final label); errors if the path has no
/// steps or ends in a wildcard.
fn split_last(path: &PathExpr) -> Result<(PathExpr, String)> {
    let mut prefix = path.clone();
    let Some(last) = prefix.steps.pop() else {
        return Err(LorelError::BadSelectItem(format!(
            "path {path} has no final label to operate on"
        )));
    };
    match last.label {
        LabelPattern::Label(l) => Ok((prefix, l)),
        other => Err(LorelError::BadSelectItem(format!(
            "update statements need an exact final label, found {other}"
        ))),
    }
}

/// Run the statement's binding query and return the bound node pairs for
/// the requested select paths.
fn bindings(
    db: &dyn DataSource,
    stmt: &UpdateStmt,
    select_paths: Vec<PathExpr>,
) -> Result<Vec<Vec<Option<NodeId>>>> {
    let query = Query {
        select: select_paths
            .into_iter()
            .map(|p| SelectItem {
                expr: Expr::Path(p),
                label: None,
            })
            .collect(),
        from: stmt.from.clone(),
        where_clause: stmt.where_clause.clone(),
    };
    let planned = plan(&query, db.name())?;
    let rows = execute(db, &planned)?;
    Ok(rows
        .rows
        .into_iter()
        .map(|r| {
            r.cols
                .into_iter()
                .map(|(_, b)| match b {
                    Binding::Node(n) => Some(n),
                    _ => None,
                })
                .collect()
        })
        .collect())
}

/// Compile `stmt` against the current state `db` into basic change
/// operations, numbering created objects, in binding order, upward from
/// `first_fresh` (an id above every id the database has used). Apply the
/// set with [`oem::ChangeSet::apply_to`] or fold it into a DOEM history.
pub fn compile_update(
    db: &dyn DataSource,
    first_fresh: NodeId,
    stmt: &UpdateStmt,
) -> Result<CompiledUpdate> {
    let mut created = Vec::new();
    let mut ops: Vec<ChangeOp> = Vec::new();
    let target = &stmt.target;
    if let UpdateOp::Assign(value) = &stmt.op {
        for row in bindings(db, stmt, vec![target.clone()])? {
            if let Some(n) = row[0] {
                ops.push(ChangeOp::UpdNode(n, value.clone()));
            }
        }
    } else {
        let (prefix, label) = split_last(target)?;
        let label = label.as_str();
        match &stmt.op {
            UpdateOp::Insert(object) => {
                let mut fresh = first_fresh.raw();
                for row in bindings(db, stmt, vec![prefix])? {
                    let Some(parent) = row[0] else { continue };
                    let root = materialize(&mut fresh, object, &mut ops, &mut created);
                    ops.push(ChangeOp::add_arc(parent, label, root));
                }
            }
            UpdateOp::Link(child) => {
                for row in bindings(db, stmt, vec![prefix, child.clone()])? {
                    if let (Some(p), Some(c)) = (row[0], row[1]) {
                        ops.push(ChangeOp::add_arc(p, label, c));
                    }
                }
            }
            _ => {
                for row in bindings(db, stmt, vec![prefix, target.clone()])? {
                    if let (Some(p), Some(c)) = (row[0], row[1]) {
                        ops.push(ChangeOp::rem_arc(p, label, c));
                    }
                }
            }
        }
    }
    let changes = ChangeSet::from_ops(ops).map_err(|e| {
        LorelError::LimitExceeded(format!("statement compiles to a conflicting set: {e}"))
    })?;
    Ok(CompiledUpdate { changes, created })
}

/// Allocate fresh ids and emit creNode/addArc ops for a literal structure;
/// returns the structure's root id.
fn materialize(
    fresh: &mut u64,
    obj: &NewObject,
    ops: &mut Vec<ChangeOp>,
    created: &mut Vec<NodeId>,
) -> NodeId {
    let id = NodeId::from_raw(*fresh);
    *fresh += 1;
    created.push(id);
    match obj {
        NewObject::Atom(v) => ops.push(ChangeOp::CreNode(id, v.clone())),
        NewObject::Complex(children) => {
            ops.push(ChangeOp::CreNode(id, Value::Complex));
            for (label, child) in children {
                let c = materialize(fresh, child, ops, created);
                ops.push(ChangeOp::add_arc(id, label.as_str(), c));
            }
        }
    }
    id
}

/// Parse and compile in one call, against a plain OEM database.
pub fn run_update(db: &OemDatabase, src: &str) -> Result<CompiledUpdate> {
    compile_update(db, db.clone().alloc_id(), &parse_update(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::guide::{guide_figure2, ids};
    use oem::Label;

    #[test]
    fn assign_compiles_to_updnode() {
        let db = guide_figure2();
        let u = run_update(
            &db,
            "update guide.restaurant.price := 20 \
             where guide.restaurant.name = \"Bangkok Cuisine\"",
        )
        .unwrap();
        assert_eq!(
            u.changes.ops(),
            &[ChangeOp::UpdNode(ids::N1, Value::Int(20))]
        );
        let mut db2 = db.clone();
        u.changes.apply_to(&mut db2).unwrap();
        assert_eq!(db2.value(ids::N1).unwrap(), &Value::Int(20));
    }

    #[test]
    fn assign_without_where_touches_all_bindings() {
        let db = guide_figure2();
        let u = run_update(&db, "update guide.restaurant.price := 0").unwrap();
        assert_eq!(u.changes.len(), 2); // both restaurants have prices
    }

    #[test]
    fn insert_builds_structures() {
        let db = guide_figure2();
        let u = run_update(
            &db,
            "insert guide.restaurant := (name \"Hakata\", address (street \"Lytton\"))",
        )
        .unwrap();
        // creNode for restaurant + name + address + street, plus arcs.
        assert_eq!(u.created.len(), 4);
        let mut db2 = db.clone();
        u.changes.apply_to(&mut db2).unwrap();
        assert_eq!(
            db2.children_labeled(db2.root(), Label::new("restaurant")).count(),
            3
        );
        db2.check_invariants().unwrap();
    }

    #[test]
    fn insert_atomic_value() {
        let db = guide_figure2();
        let u = run_update(
            &db,
            "insert guide.restaurant.comment := \"try the curry\" \
             where guide.restaurant.name = \"Janta\"",
        )
        .unwrap();
        assert_eq!(u.created.len(), 1);
        let mut db2 = db.clone();
        u.changes.apply_to(&mut db2).unwrap();
        let comment = db2
            .children_labeled(ids::N6, Label::new("comment"))
            .next()
            .unwrap();
        assert_eq!(db2.value(comment).unwrap(), &Value::str("try the curry"));
    }

    #[test]
    fn remove_compiles_to_remarc() {
        let db = guide_figure2();
        let u = run_update(
            &db,
            "remove guide.restaurant.parking where guide.restaurant.name = \"Janta\"",
        )
        .unwrap();
        assert_eq!(
            u.changes.ops(),
            &[ChangeOp::rem_arc(ids::N6, "parking", ids::N7)]
        );
        let mut db2 = db.clone();
        u.changes.apply_to(&mut db2).unwrap();
        assert!(!db2.contains_arc(oem::ArcTriple::new(ids::N6, "parking", ids::N7)));
        // n7 survives via Bangkok's arc.
        assert!(db2.contains_node(ids::N7));
    }

    #[test]
    fn link_adds_arcs_between_bound_nodes() {
        let db = guide_figure2();
        // Give Janta a nearby-eats arc pointing at Bangkok Cuisine.
        let u = run_update(
            &db,
            "link R.recommends := S \
             from guide.restaurant R, guide.restaurant S \
             where R.name = \"Janta\" and S.name = \"Bangkok Cuisine\"",
        )
        .unwrap();
        assert_eq!(
            u.changes.ops(),
            &[ChangeOp::add_arc(ids::N6, "recommends", ids::BANGKOK)]
        );
    }

    #[test]
    fn empty_bindings_compile_to_empty_sets() {
        let db = guide_figure2();
        let u = run_update(
            &db,
            "update guide.restaurant.price := 1 where guide.restaurant.name = \"Nope\"",
        )
        .unwrap();
        assert!(u.changes.is_empty());
    }

    #[test]
    fn conflicting_statements_are_rejected() {
        // Two bindings of the same node with different... a single assign
        // always uses one value, so conflicts need remove+link of the same
        // arc. Removing and re-linking the same arc in one statement is
        // impossible; instead check duplicate updates collapse.
        let db = guide_figure2();
        // parking binds n7 twice (shared child): removing via both parents
        // is two distinct arcs — fine.
        let u = run_update(&db, "remove guide.restaurant.parking").unwrap();
        assert_eq!(u.changes.len(), 2);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_update("frobnicate guide.x := 1").is_err());
        assert!(parse_update("update guide.x = 1").is_err());
        assert!(parse_update("update guide.x := ").is_err());
        assert!(parse_update("remove guide").is_err() || {
            // `remove guide` parses but fails at compile time (no final label).
            let db = guide_figure2();
            compile_update(&db, db.clone().alloc_id(), &parse_update("remove guide").unwrap())
                .is_err()
        });
        assert!(parse_update("insert guide.x := (unclosed").is_err());
    }

    #[test]
    fn statements_fold_into_doem_histories() {
        // The full pipeline the paper describes: a high-level update
        // compiles to basic ops, which a DOEM database records.
        let db = guide_figure2();
        let u = run_update(&db, "insert guide.restaurant := (name \"Hakata\")").unwrap();
        let h = oem::History::from_entries([("1Jan97".parse().unwrap(), u.changes)]).unwrap();
        let d = doem_like(&db, &h);
        assert_eq!(d.0, 2); // two cre annotations: restaurant + name
    }

    /// Minimal stand-in (the doem crate depends on lorel, not vice versa):
    /// count creNode ops recorded in the history.
    fn doem_like(_db: &OemDatabase, h: &oem::History) -> (usize,) {
        let creates = h
            .entries()
            .iter()
            .flat_map(|e| e.changes.iter())
            .filter(|op| matches!(op, ChangeOp::CreNode(..)))
            .count();
        (creates,)
    }
}
