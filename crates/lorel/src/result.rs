//! Result packaging: turning rows into a standalone OEM database.
//!
//! QSS (Section 6) requires that "the result of a polling query includes
//! (recursively) all subobjects of the objects in the query answer, and
//! that the result is packaged as an OEM database". We follow that rule
//! for every query:
//!
//! * single-column selects hang each result object off the result root
//!   under the column's label (Example 4.2's `restaurant` objects);
//! * multi-column selects produce one `answer` complex object per row
//!   (Example 4.4's `{name, update-time, new-value}` object).
//!
//! Selected graph objects are deep-copied (shared subobjects and cycles
//! preserved) and *keep their source node ids*, so consecutive polls over
//! a stable source produce id-stable results; the result root takes an id
//! above every copied id. Value bindings (timestamps, old/new values)
//! materialize as fresh atomic objects.

use crate::engine::{Binding, Row, Rows};
use crate::plan::LabelSet;
use crate::source::{DataSource, When};
use oem::{ArcTriple, NodeId, OemDatabase, Value};
use std::borrow::Cow;
use std::collections::HashSet;

/// The id given to packaged result roots: a fixed value far above any id a
/// realistic source allocates, so consecutive polling results over a stable
/// source share their root id and diff cleanly by id. (If a source node
/// actually uses this id, packaging falls back to `max + 1`.)
pub const RESULT_ROOT_RAW: u64 = 1 << 62;

/// A fully executed query: the raw rows plus the packaged database.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Result rows (deduplicated, deterministic order).
    pub rows: Vec<Row>,
    /// The packaged result database.
    pub db: OemDatabase,
}

impl QueryResult {
    /// Convenience: the node ids bound in the given column of every row
    /// (skips value/missing bindings).
    pub fn nodes_in_column(&self, idx: usize) -> Vec<NodeId> {
        self.rows
            .iter()
            .filter_map(|r| match r.cols.get(idx) {
                Some((_, Binding::Node(n))) => Some(*n),
                _ => None,
            })
            .collect()
    }

    /// `true` iff the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Package rows into an OEM database named `result_name`.
pub fn package(source: &dyn DataSource, rows: &Rows, result_name: &str) -> QueryResult {
    // Collect every node that will be copied (closure over subobjects).
    let mut needed: Vec<NodeId> = Vec::new();
    let mut seen = HashSet::new();
    for row in &rows.rows {
        for (_, b) in &row.cols {
            if let Binding::Node(n) = b {
                collect_closure(source, *n, &mut needed, &mut seen);
            }
        }
    }
    let max_id = needed.iter().map(|n| n.raw()).max().unwrap_or(0);
    let root = if max_id < RESULT_ROOT_RAW {
        NodeId::from_raw(RESULT_ROOT_RAW)
    } else {
        NodeId::from_raw(max_id + 1)
    };
    let mut db = OemDatabase::with_root_id(result_name, root);

    // Materialize the copied subgraph: every arc, the encoding's
    // `&`-reserved ones included (children are in the closure).
    for &n in &needed {
        let v = source
            .value(n, When::Now)
            .map_or(Value::Complex, Cow::into_owned);
        db.create_node_with_id(n, v)
            .expect("closure nodes are distinct and below the root id");
    }
    for &n in &needed {
        source.arcs(n, &LabelSet::Any, When::Now, &mut |label, child| {
            let arc = ArcTriple::new(n, label, child);
            if !db.contains_arc(arc) {
                db.insert_arc(arc).expect("closure includes children");
            }
        });
    }

    // Attach rows.
    let single = rows.rows.first().map(|r| r.cols.len() == 1).unwrap_or(true);
    for row in &rows.rows {
        if single {
            let (label, binding) = &row.cols[0];
            attach(&mut db, root, label, binding);
        } else {
            let answer = db.create_node(Value::Complex);
            db.insert_arc(ArcTriple::new(root, "answer", answer))
                .expect("fresh answer object");
            for (label, binding) in &row.cols {
                attach(&mut db, answer, label, binding);
            }
        }
    }
    debug_assert!(db.check_invariants().is_ok());
    QueryResult {
        rows: rows.rows.clone(),
        db,
    }
}

fn attach(db: &mut OemDatabase, parent: NodeId, label: &str, binding: &Binding) {
    match binding {
        Binding::Node(n) => {
            let arc = ArcTriple::new(parent, label, *n);
            if !db.contains_arc(arc) {
                db.insert_arc(arc).expect("copied node exists");
            }
        }
        Binding::Val(v) => {
            let atom = db.create_node(v.clone());
            db.insert_arc(ArcTriple::new(parent, label, atom))
                .expect("fresh atom");
        }
        Binding::Missing => {
            // Missing select values are simply absent from the result
            // object — semistructured data tolerates holes.
        }
    }
}

/// Append `n` and everything reachable from it to `out` (deduplicated).
fn collect_closure(
    source: &dyn DataSource,
    n: NodeId,
    out: &mut Vec<NodeId>,
    seen: &mut HashSet<NodeId>,
) {
    if !seen.insert(n) {
        return;
    }
    out.push(n);
    let mut stack = vec![n];
    while let Some(x) = stack.pop() {
        source.arcs(x, &LabelSet::Any, When::Now, &mut |_, c| {
            if seen.insert(c) {
                out.push(c);
                stack.push(c);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, parse_query, plan};
    use oem::guide::{guide_figure3, ids};
    use oem::Label;

    fn run(src: &str) -> QueryResult {
        let db = guide_figure3();
        let q = parse_query(src).unwrap();
        let p = plan(&q, db.name()).unwrap();
        let rows = execute(&db, &p).unwrap();
        package(&db, &rows, "result")
    }

    #[test]
    fn single_select_hangs_objects_off_the_root() {
        let r = run("select guide.restaurant");
        assert_eq!(r.len(), 3);
        let root = r.db.root();
        assert_eq!(
            r.db.children_labeled(root, Label::new("restaurant")).count(),
            3
        );
        // Subobjects came along recursively: Bangkok's street is present.
        assert!(r
            .db
            .node_ids()
            .any(|n| r.db.value(n).ok() == Some(&Value::str("Lytton"))));
        r.db.check_invariants().unwrap();
    }

    #[test]
    fn copied_nodes_keep_source_ids() {
        let r = run("select guide.restaurant");
        assert!(r.db.contains_node(ids::BANGKOK));
        assert!(r.db.contains_node(ids::N6));
        assert!(r.db.contains_node(ids::N2));
        // The result root is the fixed packaging root id.
        assert_eq!(r.db.root().raw(), RESULT_ROOT_RAW);
    }

    #[test]
    fn shared_structure_is_preserved_in_results() {
        let r = run("select guide.restaurant");
        // n7 is shared: reachable from Bangkok, still one node.
        assert!(r.db.contains_node(ids::N7));
        assert_eq!(
            r.db.node_ids().filter(|n| r
                .db
                .value(*n)
                .ok()
                .is_some_and(|v| *v == Value::str("Lytton lot 2")))
                .count(),
            1
        );
        r.db.check_invariants().unwrap();
    }

    #[test]
    fn multi_select_wraps_rows_in_answer_objects() {
        let r = run("select guide.restaurant.name, guide.restaurant.price");
        assert_eq!(r.len(), 2);
        let root = r.db.root();
        let answers: Vec<_> = r
            .db
            .children_labeled(root, Label::new("answer"))
            .collect();
        assert_eq!(answers.len(), 2);
        for a in answers {
            assert!(r.db.children_labeled(a, Label::new("name")).next().is_some());
            assert!(r.db.children_labeled(a, Label::new("price")).next().is_some());
        }
    }

    #[test]
    fn empty_result_is_a_bare_root() {
        let r = run("select guide.restaurant where guide.restaurant.price > 1000");
        assert!(r.is_empty());
        assert_eq!(r.db.node_count(), 1);
        r.db.check_invariants().unwrap();
    }

    #[test]
    fn repeated_runs_produce_identical_databases() {
        let a = run("select guide.restaurant");
        let b = run("select guide.restaurant");
        assert!(oem::same_database(&a.db, &b.db));
    }
}
