//! The OEM database: a rooted, labeled graph of objects.
//!
//! Definition 2.1: an OEM database is `(N, A, v, r)` — object identifiers,
//! labeled directed arcs, a value function, and a distinguished root. Only
//! complex objects (value `C`) have outgoing arcs, and every node must be
//! reachable from the root.
//!
//! Reachability is *enforced lazily*: while a change set is being applied,
//! unreachable objects are permitted (Section 2.2) and removed at the
//! change-set boundary. Two collectors do that: the whole-graph
//! [`OemDatabase::collect_garbage`] (the Section 2.1 definition, for
//! arbitrary edits) and the change-set-local
//! [`OemDatabase::collect_garbage_from`], which looks only at what the
//! nodes a change set could have orphaned can reach.
//! Collected ids are retired forever — Section 2.2 assumes deleted ids are
//! never reused — so `creNode` on a previously used id is rejected.

use crate::pmap::{PMap, PSet};
use crate::{ArcTriple, Label, NodeId, OemError, Result, Value};
use std::collections::{HashMap, HashSet};

/// Per-node storage: the value and outgoing arcs in insertion order.
#[derive(Clone, Debug)]
struct NodeData {
    value: Value,
    /// Outgoing arcs in insertion order. Order is not semantically
    /// meaningful in OEM (arcs form a set) but deterministic order keeps
    /// printing, diffing and query results stable.
    out: Vec<(Label, NodeId)>,
    /// The arcs *into* this node. Its length tells the change-set-local
    /// collector "has a parent outside the suspect region"; its entries
    /// let delta evaluation walk from a changed node up to the root.
    incoming: InArcs,
}

impl NodeData {
    fn new(value: Value) -> NodeData {
        NodeData {
            value,
            out: Vec::new(),
            incoming: InArcs::None,
        }
    }
}

/// The `(label, parent)` arcs into one node, in insertion order. OEM is
/// nearly a tree, so the zero- and one-parent cases are stored inline and
/// only a shared child pays for a heap list: every replica and
/// Section 5.1 encoding carries this per node, and a `Vec` here
/// measured +19 % resident memory on the durable write workload against
/// +5 % for this layout.
#[derive(Clone, Debug)]
enum InArcs {
    None,
    One(Label, NodeId),
    /// Two or more. Boxed to keep the enum at two words.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<(Label, NodeId)>>),
}

impl InArcs {
    fn len(&self) -> usize {
        match self {
            InArcs::None => 0,
            InArcs::One(..) => 1,
            InArcs::Many(v) => v.len(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (Label, NodeId)> + '_ {
        let (one, many) = match self {
            InArcs::None => (None, &[][..]),
            InArcs::One(l, p) => (Some((*l, *p)), &[][..]),
            InArcs::Many(v) => (None, v.as_slice()),
        };
        one.into_iter().chain(many.iter().copied())
    }

    fn push(&mut self, label: Label, parent: NodeId) {
        match self {
            InArcs::None => *self = InArcs::One(label, parent),
            InArcs::One(l, p) => *self = InArcs::Many(Box::new(vec![(*l, *p), (label, parent)])),
            InArcs::Many(v) => v.push((label, parent)),
        }
    }

    /// Remove the arc from `parent` labeled `label`; the caller knows it
    /// is present (arcs and reverse lists move together).
    fn remove(&mut self, label: Label, parent: NodeId) {
        match self {
            InArcs::Many(v) => {
                let at = v
                    .iter()
                    .position(|&e| e == (label, parent))
                    .expect("reverse list holds every arc into the node");
                v.remove(at);
                if let [(l, p)] = v[..] {
                    *self = InArcs::One(l, p);
                }
            }
            InArcs::One(l, p) if (*l, *p) == (label, parent) => *self = InArcs::None,
            _ => panic!("reverse list holds every arc into the node"),
        }
    }
}

/// A rooted OEM database.
///
/// Storage is **persistent** (DESIGN.md §14): the node map is a
/// path-copying PATRICIA trie ([`PMap`]), so cloning a database is O(1)
/// and a clone diverging under writes shares every untouched subtree
/// with its siblings. That makes [`crate::SharedOem`]'s copy-on-write
/// `make_mut` cost O(write), not O(database) — the structural-sharing
/// substrate of the MVCC version store.
#[derive(Clone, Debug)]
pub struct OemDatabase {
    /// The database name; the first component of a Lorel path expression
    /// resolves against it (e.g. `guide` in `guide.restaurant.price`).
    name: String,
    root: NodeId,
    /// Nodes keyed by raw id; trie order is ascending id order.
    nodes: PMap<NodeData>,
    /// Total arcs — always the sum of the adjacency lists' lengths.
    /// Membership checks scan the parent's (short) adjacency list; a
    /// separate arc set would re-enter every arc into the clone path.
    arc_count: usize,
    /// Ids that were used once and have been garbage-collected.
    retired: PSet,
    /// Next id handed out by [`OemDatabase::create_node`].
    next_id: u64,
}

impl OemDatabase {
    /// Create a database named `name` with a fresh complex root object.
    pub fn new(name: impl Into<String>) -> OemDatabase {
        OemDatabase::with_root_id(name, NodeId(1))
    }

    /// Create a database whose root object has a chosen id. Used by
    /// fixtures that reproduce the paper's figures with the paper's node
    /// numbering (the Guide root is `n4`).
    pub fn with_root_id(name: impl Into<String>, root: NodeId) -> OemDatabase {
        let mut nodes = PMap::new();
        nodes.insert(root.0, NodeData::new(Value::Complex));
        OemDatabase {
            name: name.into(),
            root,
            nodes,
            arc_count: 0,
            retired: PSet::new(),
            next_id: root.0 + 1,
        }
    }

    /// The database name (the implicit first label of path expressions).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the database.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The distinguished root object.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of objects currently in the database.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs currently in the database.
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Whether `n` is currently an object of the database.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.contains_key(n.0)
    }

    /// Whether the arc `(p, l, c)` is currently present. O(out-degree of
    /// the parent) — adjacency lists are the single source of truth.
    pub fn contains_arc(&self, arc: ArcTriple) -> bool {
        self.children(arc.parent)
            .iter()
            .any(|&(l, c)| l == arc.label && c == arc.child)
    }

    /// The value of object `n`.
    pub fn value(&self, n: NodeId) -> Result<&Value> {
        self.nodes
            .get(n.0)
            .map(|d| &d.value)
            .ok_or(OemError::NoSuchNode(n))
    }

    /// `true` iff `n` exists and is a complex object.
    pub fn is_complex(&self, n: NodeId) -> bool {
        matches!(self.nodes.get(n.0), Some(d) if d.value.is_complex())
    }

    /// Outgoing arcs of `n` in insertion order (empty for atomic objects).
    pub fn children(&self, n: NodeId) -> &[(Label, NodeId)] {
        self.nodes.get(n.0).map(|d| d.out.as_slice()).unwrap_or(&[])
    }

    /// The `l`-labeled children of `n`, in insertion order.
    pub fn children_labeled<'a>(
        &'a self,
        n: NodeId,
        l: Label,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(n)
            .iter()
            .filter(move |(label, _)| *label == l)
            .map(|&(_, c)| c)
    }

    /// Number of arcs into `n` (0 for unknown nodes). Parallel arcs with
    /// different labels count separately.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.nodes.get(n.0).map_or(0, |d| d.incoming.len())
    }

    /// All object ids, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().map(NodeId)
    }

    /// All arcs, grouped by parent in id order, then insertion order.
    pub fn arcs(&self) -> impl Iterator<Item = ArcTriple> + '_ {
        self.nodes.iter().flat_map(|(p, d)| {
            d.out.iter().map(move |&(label, child)| ArcTriple {
                parent: NodeId(p),
                label,
                child,
            })
        })
    }

    /// The distinct labels on arcs out of `n`.
    pub fn out_labels(&self, n: NodeId) -> Vec<Label> {
        let mut seen = Vec::new();
        for &(l, _) in self.children(n) {
            if !seen.contains(&l) {
                seen.push(l);
            }
        }
        seen
    }

    /// Parents of `c`: every `(p, l)` with an arc `(p, l, c)`, in the
    /// order the arcs were inserted. O(in-degree of `c`).
    pub fn parents(&self, c: NodeId) -> Vec<(NodeId, Label)> {
        self.nodes
            .get(c.0)
            .map(|d| d.incoming.iter().map(|(l, p)| (p, l)).collect())
            .unwrap_or_default()
    }

    // ---- low-level mutation (validity is the ops layer's concern) ----

    /// Hand out a fresh id without creating a node yet. Useful for building
    /// `creNode` operations ahead of applying them: the returned id stays
    /// fresh (a later `creNode` with it succeeds) but will never be handed
    /// out again by this database.
    pub fn alloc_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// `true` iff `n` was never used as an object id.
    pub fn is_fresh(&self, n: NodeId) -> bool {
        !self.nodes.contains_key(n.0) && !self.retired.contains(n.0)
    }

    /// Create a node with a caller-chosen fresh id (the paper's
    /// `creNode(n, v)` shape). Fails with [`OemError::IdNotFresh`] if the id
    /// was ever used.
    pub fn create_node_with_id(&mut self, n: NodeId, value: Value) -> Result<()> {
        if !self.is_fresh(n) {
            return Err(OemError::IdNotFresh(n));
        }
        self.nodes.insert(n.0, NodeData::new(value));
        if n.0 >= self.next_id {
            self.next_id = n.0 + 1;
        }
        Ok(())
    }

    /// Create a node with an auto-allocated id.
    pub fn create_node(&mut self, value: Value) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.insert(id.0, NodeData::new(value));
        id
    }

    /// Overwrite the value of `n` unconditionally (no paper preconditions;
    /// see [`crate::ChangeOp::UpdNode`] for the checked path).
    pub fn set_value(&mut self, n: NodeId, value: Value) -> Result<()> {
        let data = self.nodes.get_mut(n.0).ok_or(OemError::NoSuchNode(n))?;
        data.value = value;
        Ok(())
    }

    /// Insert the arc `(p, l, c)`. Checks only existence/duplication, not
    /// parent complexity (see [`crate::ChangeOp::AddArc`] for full checks).
    pub fn insert_arc(&mut self, arc: ArcTriple) -> Result<()> {
        if !self.nodes.contains_key(arc.parent.0) {
            return Err(OemError::NoSuchNode(arc.parent));
        }
        if !self.nodes.contains_key(arc.child.0) {
            return Err(OemError::NoSuchNode(arc.child));
        }
        if self.contains_arc(arc) {
            return Err(OemError::ArcExists(arc));
        }
        self.nodes
            .get_mut(arc.parent.0)
            .expect("parent checked above")
            .out
            .push((arc.label, arc.child));
        self.nodes
            .get_mut(arc.child.0)
            .expect("child checked above")
            .incoming
            .push(arc.label, arc.parent);
        self.arc_count += 1;
        Ok(())
    }

    /// Remove the arc `(p, l, c)`.
    pub fn delete_arc(&mut self, arc: ArcTriple) -> Result<()> {
        let pos = self
            .children(arc.parent)
            .iter()
            .position(|&(l, c)| l == arc.label && c == arc.child)
            .ok_or(OemError::NoSuchArc(arc))?;
        self.nodes
            .get_mut(arc.parent.0)
            .expect("children() found the arc")
            .out
            .remove(pos);
        self.nodes
            .get_mut(arc.child.0)
            .expect("arcs never dangle")
            .incoming
            .remove(arc.label, arc.parent);
        self.arc_count -= 1;
        Ok(())
    }

    /// The set of nodes reachable from the root by directed paths.
    pub fn reachable(&self) -> HashSet<NodeId> {
        let mut seen = HashSet::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        seen.insert(self.root);
        while let Some(n) = stack.pop() {
            for &(_, c) in self.children(n) {
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        seen
    }

    /// Remove (and retire the ids of) every object unreachable from the
    /// root, together with arcs among removed objects. Returns the removed
    /// ids in ascending order.
    ///
    /// This implements OEM's deletion-by-unreachability (Section 2.1) for
    /// a database edited arbitrarily; it walks the whole graph. Change
    /// sets use [`OemDatabase::collect_garbage_from`] instead, and the
    /// tests hold that to this definition.
    pub fn collect_garbage(&mut self) -> Vec<NodeId> {
        let live = self.reachable();
        let dead: Vec<NodeId> = self
            .nodes
            .keys()
            .map(NodeId)
            .filter(|n| !live.contains(n))
            .collect();
        self.remove_dead(&dead, |c| live.contains(&c));
        // Arcs *into* dead nodes can only originate from dead nodes (a live
        // parent would make the child live), so removing the dead nodes'
        // own adjacency lists removed every dead-touching arc; assert that
        // in debug builds.
        debug_assert!(self.arcs().all(|a| live.contains(&a.child)));
        dead
    }

    /// Change-set-local garbage collection: remove every unreachable
    /// object, **given that** every object was reachable before the edits
    /// and `suspects` holds the child of every arc removed since and every
    /// node created since. Same result as [`OemDatabase::collect_garbage`]
    /// (removed ids ascending, ids retired), at cost proportional to what
    /// the suspects reach rather than to the database.
    ///
    /// Why the suspects suffice: a pre-existing node `x` that became
    /// unreachable lost every old root path; on any one of them, everything
    /// after the *last* removed arc `(p, l, c)` is still present, so `x` is
    /// in the forward closure of the suspect `c`. Within that closure `G`,
    /// a node with more incoming arcs than arrive from inside `G` (or the
    /// root itself) has a parent outside `G` — which is reachable, because
    /// every unreachable node is inside `G` — so it and what it reaches
    /// live; the rest of `G` has no path from outside and is dead.
    pub fn collect_garbage_from(
        &mut self,
        suspects: impl IntoIterator<Item = NodeId>,
    ) -> Vec<NodeId> {
        // G, with the number of arcs into each member from inside G.
        let mut inside: HashMap<NodeId, u32> = HashMap::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for n in suspects {
            if self.contains_node(n) && !inside.contains_key(&n) {
                inside.insert(n, 0);
                stack.push(n);
            }
        }
        if stack.is_empty() {
            return Vec::new();
        }
        while let Some(n) = stack.pop() {
            for &(_, c) in self.children(n) {
                match inside.get_mut(&c) {
                    Some(k) => *k += 1,
                    None => {
                        inside.insert(c, 1);
                        stack.push(c);
                    }
                }
            }
        }
        let mut live: HashSet<NodeId> = HashSet::new();
        for (&n, &from_inside) in &inside {
            if (n == self.root || self.in_degree(n) > from_inside as usize) && live.insert(n) {
                stack.push(n);
            }
        }
        while let Some(n) = stack.pop() {
            for &(_, c) in self.children(n) {
                if live.insert(c) {
                    stack.push(c);
                }
            }
        }
        let mut dead: Vec<NodeId> = inside.into_keys().filter(|n| !live.contains(n)).collect();
        dead.sort_unstable();
        // A dead node's children are all in G, so "not dead" is "in live".
        self.remove_dead(&dead, |c| live.contains(&c));
        debug_assert_eq!(
            self.reachable().len(),
            self.nodes.len(),
            "local GC precondition: all nodes reachable before the edits"
        );
        dead
    }

    /// Drop `dead` nodes with their adjacency lists, retiring their ids
    /// and unlisting them as parents of surviving children.
    fn remove_dead(&mut self, dead: &[NodeId], survives: impl Fn(NodeId) -> bool) {
        for &n in dead {
            let data = self.nodes.remove(n.0).expect("dead nodes are present");
            self.arc_count -= data.out.len();
            self.retired.insert(n.0);
            for (l, c) in data.out {
                if survives(c) {
                    self.nodes
                        .get_mut(c.0)
                        .expect("surviving child is present")
                        .incoming
                        .remove(l, n);
                }
            }
        }
    }

    /// Check the Definition 2.1 invariants; used by tests and debug
    /// assertions. Returns a human-readable violation if any.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        if !self.nodes.contains_key(self.root.0) {
            return Err(format!("root {} is not an object", self.root));
        }
        for (raw, data) in &self.nodes {
            let n = NodeId(raw);
            if data.value.is_atomic() && !data.out.is_empty() {
                return Err(format!("atomic object {n} has outgoing arcs"));
            }
            let mut seen = HashSet::new();
            for &(l, c) in &data.out {
                if !self.nodes.contains_key(c.0) {
                    return Err(format!("dangling arc ({n}, {l}, {c})"));
                }
                if !seen.insert((l, c)) {
                    return Err(format!("duplicate arc ({n}, {l}, {c})"));
                }
            }
        }
        if self.arc_count != self.nodes.values().map(|d| d.out.len()).sum::<usize>() {
            return Err("arc counter and adjacency lists disagree".to_string());
        }
        let mut incoming: HashMap<NodeId, Vec<(Label, NodeId)>> = HashMap::new();
        for arc in self.arcs() {
            incoming.entry(arc.child).or_default().push((arc.label, arc.parent));
        }
        for (raw, data) in &self.nodes {
            let mut listed: Vec<(Label, NodeId)> = data.incoming.iter().collect();
            let mut held = incoming.remove(&NodeId(raw)).unwrap_or_default();
            listed.sort_unstable();
            held.sort_unstable();
            if listed != held {
                return Err(format!(
                    "reverse list of {} disagrees with the arcs",
                    NodeId(raw)
                ));
            }
        }
        let live = self.reachable();
        if live.len() != self.nodes.len() {
            let orphan = self
                .nodes
                .keys()
                .map(NodeId)
                .find(|n| !live.contains(n))
                .expect("count mismatch implies an orphan");
            return Err(format!("object {orphan} is unreachable from the root"));
        }
        Ok(())
    }
}

impl Default for OemDatabase {
    fn default() -> OemDatabase {
        OemDatabase::new("db")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (OemDatabase, NodeId, NodeId) {
        let mut db = OemDatabase::new("guide");
        let a = db.create_node(Value::Complex);
        let b = db.create_node(Value::Int(10));
        db.insert_arc(ArcTriple::new(db.root(), "restaurant", a))
            .unwrap();
        db.insert_arc(ArcTriple::new(a, "price", b)).unwrap();
        (db, a, b)
    }

    #[test]
    fn fresh_database_has_complex_root() {
        let db = OemDatabase::new("guide");
        assert_eq!(db.name(), "guide");
        assert!(db.is_complex(db.root()));
        assert_eq!(db.node_count(), 1);
        assert_eq!(db.arc_count(), 0);
        db.check_invariants().unwrap();
    }

    #[test]
    fn arcs_and_children_agree() {
        let (db, a, b) = tiny();
        assert_eq!(db.children(db.root()), &[(Label::new("restaurant"), a)]);
        assert_eq!(
            db.children_labeled(a, Label::new("price")).collect::<Vec<_>>(),
            vec![b]
        );
        assert_eq!(db.arc_count(), 2);
        assert!(db.contains_arc(ArcTriple::new(a, "price", b)));
        db.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_arc_is_rejected() {
        let (mut db, a, b) = tiny();
        let err = db.insert_arc(ArcTriple::new(a, "price", b)).unwrap_err();
        assert!(matches!(err, OemError::ArcExists(_)));
    }

    #[test]
    fn parallel_arcs_with_different_labels_are_fine() {
        let (mut db, a, b) = tiny();
        db.insert_arc(ArcTriple::new(a, "cost", b)).unwrap();
        assert_eq!(db.children(a).len(), 2);
        db.check_invariants().unwrap();
    }

    #[test]
    fn delete_arc_removes_exactly_one() {
        let (mut db, a, b) = tiny();
        db.delete_arc(ArcTriple::new(a, "price", b)).unwrap();
        assert!(!db.contains_arc(ArcTriple::new(a, "price", b)));
        assert!(db
            .delete_arc(ArcTriple::new(a, "price", b))
            .is_err());
    }

    #[test]
    fn gc_removes_unreachable_and_retires_ids() {
        let (mut db, a, b) = tiny();
        db.delete_arc(ArcTriple::new(db.root(), "restaurant", a))
            .unwrap();
        let dead = db.collect_garbage();
        assert_eq!(dead, vec![a, b]);
        assert!(!db.contains_node(a));
        // Retired ids are not fresh.
        assert!(!db.is_fresh(a));
        assert!(matches!(
            db.create_node_with_id(a, Value::Int(1)),
            Err(OemError::IdNotFresh(_))
        ));
        db.check_invariants().unwrap();
    }

    #[test]
    fn gc_keeps_cycles_reachable_from_root() {
        let mut db = OemDatabase::new("g");
        let a = db.create_node(Value::Complex);
        let b = db.create_node(Value::Complex);
        db.insert_arc(ArcTriple::new(db.root(), "x", a)).unwrap();
        db.insert_arc(ArcTriple::new(a, "to", b)).unwrap();
        db.insert_arc(ArcTriple::new(b, "back", a)).unwrap();
        assert!(db.collect_garbage().is_empty());
        // Cut the cycle off the root: both nodes die together.
        db.delete_arc(ArcTriple::new(db.root(), "x", a)).unwrap();
        let dead = db.collect_garbage();
        assert_eq!(dead.len(), 2);
        db.check_invariants().unwrap();
    }

    /// Run the local collector and check it against the full scan on a
    /// copy: same dead set, same survivors, same counters.
    fn local_gc_checked(db: &mut OemDatabase, suspects: &[NodeId]) -> Vec<NodeId> {
        let mut oracle = db.clone();
        let want = oracle.collect_garbage();
        let dead = db.collect_garbage_from(suspects.iter().copied());
        assert_eq!(dead, want);
        assert_eq!(db.arc_count(), oracle.arc_count());
        for n in oracle.node_ids() {
            let (mut got, mut want) = (db.parents(n), oracle.parents(n));
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "parents of {n}");
        }
        assert!(dead.iter().all(|n| !db.is_fresh(*n)));
        db.check_invariants().unwrap();
        dead
    }

    #[test]
    fn local_gc_collects_a_cut_subtree_but_not_a_shared_child() {
        let (mut db, a, b) = tiny();
        let other = db.create_node(Value::Complex);
        db.insert_arc(ArcTriple::new(db.root(), "restaurant", other))
            .unwrap();
        db.insert_arc(ArcTriple::new(other, "price", b)).unwrap();
        db.delete_arc(ArcTriple::new(db.root(), "restaurant", a))
            .unwrap();
        // `a` dies; `b` keeps a parent outside the suspect closure and
        // gives back the in-degree `a` held on it.
        assert_eq!(local_gc_checked(&mut db, &[a]), vec![a]);
        assert_eq!(db.in_degree(b), 1);
    }

    #[test]
    fn local_gc_collects_a_detached_cycle_and_keeps_one_through_the_root() {
        let mut db = OemDatabase::new("g");
        let root = db.root();
        let a = db.create_node(Value::Complex);
        let b = db.create_node(Value::Complex);
        db.insert_arc(ArcTriple::new(root, "x", a)).unwrap();
        db.insert_arc(ArcTriple::new(a, "to", b)).unwrap();
        db.insert_arc(ArcTriple::new(b, "back", a)).unwrap();
        db.insert_arc(ArcTriple::new(b, "up", root)).unwrap();
        // Removing one arc of the root cycle: the suspect's closure wraps
        // around through the root, which is live by definition.
        db.delete_arc(ArcTriple::new(b, "back", a)).unwrap();
        assert!(local_gc_checked(&mut db, &[a]).is_empty());
        // Cutting the cycle off the root kills it whole, although every
        // member still has an incoming arc.
        db.insert_arc(ArcTriple::new(b, "back", a)).unwrap();
        db.delete_arc(ArcTriple::new(root, "x", a)).unwrap();
        assert_eq!(local_gc_checked(&mut db, &[a]), vec![a, b]);
        assert_eq!(db.in_degree(root), 0);
    }

    #[test]
    fn local_gc_handles_orphans_and_reattached_children() {
        let (mut db, a, b) = tiny();
        // Remove-and-re-add in one set: `b` moves from `a` to the root.
        db.delete_arc(ArcTriple::new(a, "price", b)).unwrap();
        db.insert_arc(ArcTriple::new(db.root(), "price", b))
            .unwrap();
        // An orphan that points at a live node.
        let orphan = db.create_node(Value::Complex);
        db.insert_arc(ArcTriple::new(orphan, "sees", a)).unwrap();
        assert_eq!(local_gc_checked(&mut db, &[b, orphan]), vec![orphan]);
        assert_eq!(db.in_degree(a), 1);
        // Suspects that no longer exist, and no suspects at all, are fine.
        assert!(local_gc_checked(&mut db, &[orphan]).is_empty());
        assert!(local_gc_checked(&mut db, &[]).is_empty());
    }

    #[test]
    fn reverse_lists_follow_inserts_and_deletes() {
        let (mut db, a, b) = tiny();
        let root = db.root();
        assert_eq!(db.parents(b), vec![(a, Label::new("price"))]);
        assert!(db.parents(root).is_empty());
        // A second and third parent spill to the heap list, a self-loop
        // lists the node as its own parent, and deletes shrink it back.
        db.insert_arc(ArcTriple::new(root, "cheapest", b)).unwrap();
        db.insert_arc(ArcTriple::new(a, "cost", b)).unwrap();
        db.insert_arc(ArcTriple::new(a, "self", a)).unwrap();
        assert_eq!(db.in_degree(b), 3);
        assert_eq!(db.in_degree(a), 2);
        db.check_invariants().unwrap();
        db.delete_arc(ArcTriple::new(a, "price", b)).unwrap();
        db.delete_arc(ArcTriple::new(a, "cost", b)).unwrap();
        assert_eq!(db.parents(b), vec![(root, Label::new("cheapest"))]);
        db.delete_arc(ArcTriple::new(root, "cheapest", b)).unwrap();
        assert!(db.parents(b).is_empty());
        assert!(db.parents(NodeId(999)).is_empty());
        // The measured constraint behind the inline layout.
        assert!(std::mem::size_of::<InArcs>() <= 16);
    }

    #[test]
    fn explicit_ids_bump_the_allocator() {
        let mut db = OemDatabase::new("g");
        db.create_node_with_id(NodeId::from_raw(100), Value::Int(5))
            .unwrap();
        let next = db.create_node(Value::Int(6));
        assert!(next.raw() > 100);
    }

    #[test]
    fn multiple_incoming_arcs_share_a_child() {
        // Figure 2's n7 ("Lytton lot 2") has two incoming parking arcs.
        let mut db = OemDatabase::new("g");
        let r1 = db.create_node(Value::Complex);
        let r2 = db.create_node(Value::Complex);
        let lot = db.create_node(Value::str("Lytton lot 2"));
        db.insert_arc(ArcTriple::new(db.root(), "restaurant", r1))
            .unwrap();
        db.insert_arc(ArcTriple::new(db.root(), "restaurant", r2))
            .unwrap();
        db.insert_arc(ArcTriple::new(r1, "parking", lot)).unwrap();
        db.insert_arc(ArcTriple::new(r2, "parking", lot)).unwrap();
        assert_eq!(db.parents(lot).len(), 2);
        db.check_invariants().unwrap();
        // Removing one incoming arc keeps the shared child alive.
        db.delete_arc(ArcTriple::new(r1, "parking", lot)).unwrap();
        assert!(db.collect_garbage().is_empty());
        assert!(db.contains_node(lot));
    }

    #[test]
    fn invariant_checker_catches_atomic_with_children() {
        let (mut db, a, _) = tiny();
        db.set_value(a, Value::Int(3)).unwrap(); // a still has a child arc
        assert!(db.check_invariants().is_err());
    }
}
