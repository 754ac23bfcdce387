//! The DOEM database (Definition 3.1).
//!
//! A DOEM database is a triple `D = (O, fN, fA)`: an OEM graph plus maps
//! assigning each node a finite set of node annotations and each arc a
//! finite set of arc annotations. Removed arcs are *not* deleted from the
//! graph — they carry a `rem` annotation instead — so the one graph holds
//! the complete history (the snapshot-delta approach of Section 1.3).
//!
//! Because removed arcs linger, the underlying graph intentionally relaxes
//! two OEM invariants: an atomic node may still have (removed) outgoing
//! arcs, and "reachability" counts removed arcs. [`DoemDatabase::check_invariants`]
//! checks the DOEM-specific well-formedness rules instead.

use crate::{ArcAnnotation, DoemError, NodeAnnotation, Result};
use oem::{ArcTriple, ChangeOp, ChangeSet, CurrentView, Label, NodeId, OemDatabase, PMap};
use oem::{Timestamp, Value};
use std::collections::HashSet;
use std::fmt;

/// The arc annotations of one parent: `bucket[i]` annotates the parent's
/// `i`-th outgoing arc (a bucket may be shorter than the adjacency list;
/// arcs past its end carry no annotations).
///
/// Positions are stable because the annotated graph never loses a single
/// arc — removal is a `rem` annotation, and garbage collection drops whole
/// nodes together with every arc out of them — so an arc keeps its place
/// in its parent's adjacency list for life.
type ArcBucket = Vec<Vec<ArcAnnotation>>;

/// A DOEM database: an annotated OEM graph.
///
/// Both annotation maps are persistent PATRICIA maps ([`oem::PMap`]), so
/// cloning a `DoemDatabase` shares structure with the original and a
/// subsequent mutation copies only the touched spine — annotation lookups
/// compose with versioned reads of the underlying graph (DESIGN.md §14).
/// Arc annotations are bucketed per parent node, keyed by the parent's raw
/// id and laid out beside the parent's adjacency list, so one pass over a
/// node reads each arc with its annotations ([`DoemDatabase::arcs_from`]).
#[derive(Clone, Debug)]
pub struct DoemDatabase {
    graph: OemDatabase,
    node_ann: PMap<Vec<NodeAnnotation>>,
    arc_ann: PMap<ArcBucket>,
}

/// What [`ChangeOp::validate`] sees mid-set: the current snapshot `before`
/// the set, as edited so far in `staged`. Nodes leave it at set boundaries.
struct Current<'a> {
    before: &'a DoemDatabase,
    staged: &'a DoemDatabase,
}

impl CurrentView for Current<'_> {
    fn contains_node(&self, n: NodeId) -> bool {
        let created = !self.before.graph.contains_node(n);
        self.staged.graph.contains_node(n) && (created || self.before.in_current_snapshot(n))
    }
    fn is_fresh(&self, n: NodeId) -> bool {
        self.staged.graph.is_fresh(n)
    }
    fn is_complex(&self, n: NodeId) -> bool {
        self.contains_node(n) && self.staged.graph.is_complex(n)
    }
    fn has_children(&self, n: NodeId) -> bool {
        self.staged.arcs_from(n).any(|(_, _, anns)| ArcAnnotation::current(anns))
    }
    // A current arc out of a node of the snapshot leads to a node of it.
    fn contains_arc(&self, arc: ArcTriple) -> bool {
        self.contains_node(arc.parent) && self.staged.arc_is_current(arc)
    }
}

impl DoemDatabase {
    /// Apply one timestamped change set, the induction step of `D(O, H)`
    /// (Section 3.1): judge each op, in canonical order, against the current
    /// snapshot by [`ChangeOp::validate`] — a plain OEM database's rules and
    /// errors — and record it. All or nothing, on an O(1) persistent clone.
    pub fn apply(&mut self, changes: &ChangeSet, at: Timestamp) -> Result<()> {
        let mut staged = self.clone();
        for op in changes.canonical_order() {
            op.validate(&Current { before: self, staged: &staged })?;
            match op {
                ChangeOp::CreNode(n, v) => staged.record_create(*n, v.clone(), at)?,
                ChangeOp::UpdNode(n, v) => staged.record_update(*n, v.clone(), at)?,
                ChangeOp::AddArc(a) => staged.record_add(*a, at)?,
                ChangeOp::RemArc(a) => staged.record_remove(*a, at)?,
            }
        }
        // The annotated graph never loses an arc, so only creations never
        // linked can have become unreachable in it.
        let dead = staged.graph.collect_garbage_from(changes.created_nodes().iter().copied());
        staged.drop_annotations_of(&dead);
        debug_assert!(staged.check_invariants().is_ok());
        *self = staged;
        Ok(())
    }

    /// Whether a path of current arcs leads from the root to `n`: whether
    /// `n` is in the current snapshot, not just (for its history) the graph.
    fn in_current_snapshot(&self, n: NodeId) -> bool {
        let (mut seen, mut stack) = (HashSet::from([n]), vec![n]);
        while let Some(c) = stack.pop() {
            if c == self.root() {
                return true;
            }
            let parents = self.graph.parents(c).into_iter();
            let current = parents.filter(|&(p, l)| self.arc_is_current(ArcTriple::new(p, l, c)));
            stack.extend(current.map(|(p, _)| p).filter(|&p| seen.insert(p)));
        }
        false
    }

    /// Wrap a snapshot with empty annotation sets (the `D0` of Section 3.1).
    pub fn from_snapshot(snapshot: &OemDatabase) -> DoemDatabase {
        DoemDatabase {
            graph: snapshot.clone(),
            node_ann: PMap::new(),
            arc_ann: PMap::new(),
        }
    }

    /// The underlying annotated graph. Its arcs include removed
    /// (`rem`-annotated) arcs; its values are the *current* values.
    pub fn graph(&self) -> &OemDatabase {
        &self.graph
    }

    /// The database name.
    pub fn name(&self) -> &str {
        self.graph.name()
    }

    /// Rename the database.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.graph.set_name(name);
    }

    /// The root object.
    pub fn root(&self) -> NodeId {
        self.graph.root()
    }

    /// The annotations of node `n`, in time order (`fN(n)`).
    pub fn node_annotations(&self, n: NodeId) -> &[NodeAnnotation] {
        self.node_ann.get(n.raw()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The annotations of arc `a`, in time order (`fA(a)`). O(out-degree
    /// of the parent); to read every arc of a node use
    /// [`DoemDatabase::arcs_from`].
    pub fn arc_annotations(&self, a: ArcTriple) -> &[ArcAnnotation] {
        self.annotations_of_held_arc(a).unwrap_or(&[])
    }

    /// `Some(fA(a))` if the graph holds `a` (possibly removed), else `None`.
    fn annotations_of_held_arc(&self, a: ArcTriple) -> Option<&[ArcAnnotation]> {
        let i = self.arc_position(a)?;
        let bucket = self.arc_ann.get(a.parent.raw());
        Some(bucket.and_then(|b| b.get(i)).map_or(&[], Vec::as_slice))
    }

    /// Where `a` sits in its parent's adjacency list.
    fn arc_position(&self, a: ArcTriple) -> Option<usize> {
        self.graph
            .children(a.parent)
            .iter()
            .position(|&(l, c)| l == a.label && c == a.child)
    }

    /// Every arc out of `n` — current *and* removed — in graph order, each
    /// with its annotations in time order: one pass over the adjacency
    /// list beside the annotation bucket. Filter with
    /// [`ArcAnnotation::current`] / [`ArcAnnotation::alive_at`] for a
    /// snapshot's children.
    pub fn arcs_from(
        &self,
        n: NodeId,
    ) -> impl Iterator<Item = (Label, NodeId, &[ArcAnnotation])> + '_ {
        let bucket = self.arc_ann.get(n.raw()).map_or(&[][..], Vec::as_slice);
        self.graph
            .children(n)
            .iter()
            .enumerate()
            .map(move |(i, &(l, c))| (l, c, bucket.get(i).map_or(&[][..], Vec::as_slice)))
    }

    /// Nodes that carry at least one annotation.
    pub fn annotated_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ann.keys().map(NodeId::from_raw)
    }

    /// Arcs that carry at least one annotation.
    pub fn annotated_arcs(&self) -> impl Iterator<Item = ArcTriple> + '_ {
        self.arc_ann.keys().flat_map(move |p| {
            let parent = NodeId::from_raw(p);
            self.arcs_from(parent)
                .filter(|(_, _, anns)| !anns.is_empty())
                .map(move |(l, c, _)| ArcTriple::new(parent, l, c))
        })
    }

    /// The node's `cre` timestamp, if it was created during the recorded
    /// history (nodes of the original snapshot have none).
    pub fn created_at(&self, n: NodeId) -> Option<Timestamp> {
        self.node_annotations(n).iter().find_map(|a| match a {
            NodeAnnotation::Cre(t) => Some(*t),
            _ => None,
        })
    }

    /// The node's `upd` annotations, in time order.
    pub fn updates_of(&self, n: NodeId) -> impl Iterator<Item = (Timestamp, &Value)> {
        self.node_annotations(n).iter().filter_map(|a| match a {
            NodeAnnotation::Upd { at, old } => Some((*at, old)),
            _ => None,
        })
    }

    /// The node's `upd` annotations as `(time, old value, new value)`, in
    /// time order. The *new* value is implicit in the representation
    /// (Section 4.2): the old value of the temporally next `upd`, or the
    /// node's current value if none follows.
    pub fn update_triples(&self, n: NodeId) -> impl Iterator<Item = (Timestamp, &Value, &Value)> {
        let current = self.graph.value(n).ok();
        let mut upds = self.updates_of(n).peekable();
        std::iter::from_fn(move || {
            let (at, old) = upds.next()?;
            let new = upds.peek().map(|&(_, next_old)| next_old).or(current)?;
            Some((at, old, new))
        })
    }

    /// The implicit *new* value of the `upd` at time `at` on node `n`, or
    /// `None` if `n` has no `upd` at exactly `at`.
    pub fn new_value_of_update(&self, n: NodeId, at: Timestamp) -> Option<Value> {
        self.update_triples(n)
            .find(|&(t, _, _)| t == at)
            .map(|(_, _, new)| new.clone())
    }

    /// Whether the arc is in the *current* snapshot: present in the graph
    /// and its temporally last annotation (if any) is not `rem`.
    pub fn arc_is_current(&self, a: ArcTriple) -> bool {
        self.annotations_of_held_arc(a)
            .is_some_and(ArcAnnotation::current)
    }

    /// Whether the arc existed at time `t` ([`ArcAnnotation::alive_at`]
    /// over its annotations; `false` for arcs the graph does not hold).
    pub fn arc_existed_at(&self, a: ArcTriple, t: Timestamp) -> bool {
        self.annotations_of_held_arc(a)
            .is_some_and(|anns| ArcAnnotation::alive_at(anns, t))
    }

    /// The value of node `n` at time `t` (Section 3.2, step 1), or `None`
    /// if `n` did not exist at `t` (created later) or is unknown.
    pub fn value_at(&self, n: NodeId, t: Timestamp) -> Option<Value> {
        self.value_ref_at(n, t).cloned()
    }

    /// [`DoemDatabase::value_at`] without the clone.
    pub fn value_ref_at(&self, n: NodeId, t: Timestamp) -> Option<&Value> {
        let current = self.graph.value(n).ok()?;
        for ann in self.node_annotations(n) {
            match ann {
                NodeAnnotation::Cre(created) if *created > t => return None,
                // The earliest update *after* t holds the value as of t.
                NodeAnnotation::Upd { at, old } if *at > t => return Some(old),
                _ => {}
            }
        }
        Some(current)
    }

    /// Every timestamp occurring in any annotation, ascending and distinct.
    pub fn timestamps(&self) -> Vec<Timestamp> {
        let mut ts: Vec<Timestamp> = self
            .node_ann
            .values()
            .flatten()
            .map(NodeAnnotation::at)
            .chain(
                self.arc_ann
                    .values()
                    .flatten()
                    .flatten()
                    .map(ArcAnnotation::at),
            )
            .collect();
        ts.sort();
        ts.dedup();
        ts
    }

    /// Total number of annotations (nodes + arcs).
    pub fn annotation_count(&self) -> usize {
        self.node_ann.values().map(Vec::len).sum::<usize>()
            + self.arc_ann.values().flatten().map(Vec::len).sum::<usize>()
    }

    /// The annotation list of node `n`, created empty on first use.
    fn node_anns_mut(&mut self, n: NodeId) -> &mut Vec<NodeAnnotation> {
        let key = n.raw();
        if !self.node_ann.contains_key(key) {
            self.node_ann.insert(key, Vec::new());
        }
        self.node_ann.get_mut(key).expect("just inserted")
    }

    /// The annotation list of arc `a`, created empty on first use. Fails
    /// if the graph does not hold `a`.
    fn arc_anns_mut(&mut self, a: ArcTriple) -> Result<&mut Vec<ArcAnnotation>> {
        let at = self
            .arc_position(a)
            .ok_or(DoemError::Oem(oem::OemError::NoSuchArc(a)))?;
        let key = a.parent.raw();
        if !self.arc_ann.contains_key(key) {
            self.arc_ann.insert(key, Vec::new());
        }
        let bucket = self.arc_ann.get_mut(key).expect("just inserted");
        if bucket.len() <= at {
            bucket.resize_with(at + 1, Vec::new);
        }
        Ok(&mut bucket[at])
    }

    // ---- recording, unvalidated (`apply` validates and closes the set) ----

    /// Record `creNode(n, v)` at time `t`: create the node and attach
    /// `cre(t)`.
    pub fn record_create(&mut self, n: NodeId, v: Value, t: Timestamp) -> Result<()> {
        self.graph.create_node_with_id(n, v)?;
        self.node_anns_mut(n).push(NodeAnnotation::Cre(t));
        Ok(())
    }

    /// Record `updNode(n, v)` at time `t`: attach `upd(t, old)` and set the
    /// new value.
    pub fn record_update(&mut self, n: NodeId, v: Value, t: Timestamp) -> Result<()> {
        let old = self.graph.value(n)?.clone();
        self.graph.set_value(n, v)?;
        self.node_anns_mut(n).push(NodeAnnotation::Upd { at: t, old });
        Ok(())
    }

    /// Record `addArc(a)` at time `t`. If the arc is entirely new it is
    /// inserted with an `add(t)` annotation; if it is present but removed
    /// (history `… rem`), the `add(t)` reopens it.
    pub fn record_add(&mut self, a: ArcTriple, t: Timestamp) -> Result<()> {
        if !self.graph.contains_arc(a) {
            self.graph.insert_arc(a)?;
        }
        self.arc_anns_mut(a)?.push(ArcAnnotation::Add(t));
        Ok(())
    }

    /// Record `remArc(a)` at time `t`: the arc *stays* in the graph and
    /// gains a `rem(t)` annotation.
    pub fn record_remove(&mut self, a: ArcTriple, t: Timestamp) -> Result<()> {
        self.arc_anns_mut(a)?.push(ArcAnnotation::Rem(t));
        Ok(())
    }

    // ---- structural attachment (used by the Section 5.1 decoder) ----
    //
    // These do *not* re-play history semantics: they splice annotations and
    // arcs into the representation as-is. Callers are expected to finish
    // with `check_invariants`.

    /// Attach an arc to the annotated graph if not already present (no
    /// annotation is added).
    pub fn attach_arc(&mut self, a: ArcTriple) -> Result<()> {
        if !self.graph.contains_arc(a) {
            self.graph.insert_arc(a)?;
        }
        Ok(())
    }

    /// Append a node annotation verbatim.
    pub fn attach_node_annotation(&mut self, n: NodeId, ann: NodeAnnotation) -> Result<()> {
        if !self.graph.contains_node(n) {
            return Err(DoemError::Oem(oem::OemError::NoSuchNode(n)));
        }
        self.node_anns_mut(n).push(ann);
        Ok(())
    }

    /// Append an arc annotation verbatim.
    pub fn attach_arc_annotation(&mut self, a: ArcTriple, ann: ArcAnnotation) -> Result<()> {
        self.arc_anns_mut(a)?.push(ann);
        Ok(())
    }

    /// Drop nodes unreachable in the annotated graph (counting removed
    /// arcs), along with their annotations. Mirrors OEM's change-set
    /// boundary GC: a node kept reachable only by a removed arc *survives*
    /// here — its history is still part of the database. Whole-graph; a
    /// change set collects locally ([`DoemDatabase::apply`]).
    pub fn collect_garbage(&mut self) -> Vec<NodeId> {
        let dead = self.graph.collect_garbage();
        self.drop_annotations_of(&dead);
        dead
    }

    /// Forget the annotations of collected nodes and of the arcs out of
    /// them. No surviving parent's bucket can mention a collected child: in
    /// the annotated graph its arc would have kept the child alive.
    fn drop_annotations_of(&mut self, dead: &[NodeId]) {
        for n in dead {
            self.node_ann.remove(n.raw());
            self.arc_ann.remove(n.raw());
        }
    }

    /// Validate the DOEM well-formedness rules:
    /// at most one `cre` per node and it must be first; `upd` timestamps
    /// strictly increasing; arc annotations strictly increasing and
    /// alternating `add`/`rem`; no annotation precedes its node's creation;
    /// annotations only on existing nodes/arcs; every arc into a node
    /// carrying `cre(tc)` — removed arcs included — has an `add(ta)` with
    /// `ta >= tc` as its earliest annotation, so no arc reaches a node
    /// before the node exists (what `chorel::AtSource` relies on).
    pub fn check_invariants(&self) -> Result<()> {
        for (raw, anns) in &self.node_ann {
            let n = NodeId::from_raw(raw);
            if !self.graph.contains_node(n) {
                return Err(DoemError::Oem(oem::OemError::NoSuchNode(n)));
            }
            let mut cre_at: Option<Timestamp> = None;
            let mut last_upd: Option<Timestamp> = None;
            for (i, a) in anns.iter().enumerate() {
                match a {
                    NodeAnnotation::Cre(t) => {
                        if i != 0 || cre_at.is_some() {
                            return Err(DoemError::BadCreAnnotation(n));
                        }
                        cre_at = Some(*t);
                    }
                    NodeAnnotation::Upd { at, .. } => {
                        if let Some(prev) = last_upd {
                            if *at <= prev {
                                return Err(DoemError::UnorderedUpdAnnotations(n));
                            }
                        }
                        if let Some(c) = cre_at {
                            if *at < c {
                                return Err(DoemError::AnnotationBeforeCreation {
                                    node: n,
                                    created: c,
                                    annotated: *at,
                                });
                            }
                        }
                        last_upd = Some(*at);
                    }
                }
            }
        }
        for (praw, bucket) in &self.arc_ann {
            let parent = NodeId::from_raw(praw);
            let children = self.graph.children(parent);
            if bucket.len() > children.len() {
                // A bucket that outlived its node: annotations on nothing.
                return Err(DoemError::Oem(oem::OemError::NoSuchNode(parent)));
            }
            for (&(l, c), anns) in children.iter().zip(bucket) {
                let arc = ArcTriple::new(parent, l, c);
                let mut prev: Option<&ArcAnnotation> = None;
                for a in anns {
                    if let Some(p) = prev {
                        if a.at() <= p.at() || a.is_add() == p.is_add() {
                            return Err(DoemError::BadArcAnnotations(arc));
                        }
                    }
                    prev = Some(a);
                }
            }
        }
        for parent in self.graph.node_ids() {
            for (l, c, anns) in self.arcs_from(parent) {
                // A `cre` is always a node's first annotation (checked above).
                let Some(NodeAnnotation::Cre(created)) = self.node_annotations(c).first() else {
                    continue;
                };
                if !matches!(anns.first(), Some(ArcAnnotation::Add(added)) if added >= created) {
                    return Err(DoemError::ArcBeforeChildCreation(ArcTriple::new(
                        parent, l, c,
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Identity-level equality of two DOEM databases: same graph (ids, values,
/// arcs) and same annotation maps. This is the equality used by the
/// feasibility test `D(O0(D), H(D)) = D`.
pub fn same_doem(a: &DoemDatabase, b: &DoemDatabase) -> bool {
    if !oem::same_database(a.graph(), b.graph()) {
        return false;
    }
    let nodes_match = a.graph().node_ids().all(|n| {
        a.node_annotations(n) == b.node_annotations(n)
    });
    let arcs_match = a
        .graph()
        .arcs()
        .all(|arc| a.arc_annotations(arc) == b.arc_annotations(arc));
    nodes_match && arcs_match
}

impl fmt::Display for DoemDatabase {
    /// Shows the annotated graph: the textual OEM form followed by the
    /// annotation table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.graph)?;
        // PMap iteration is ascending in the raw id, so nodes come out sorted.
        for n in self.annotated_nodes() {
            let anns: Vec<String> = self.node_annotations(n).iter().map(|a| a.to_string()).collect();
            writeln!(f, "{n}: {}", anns.join(", "))?;
        }
        let mut arcs: Vec<ArcTriple> = self.annotated_arcs().collect();
        arcs.sort();
        for a in arcs {
            let anns: Vec<String> = self.arc_annotations(a).iter().map(|x| x.to_string()).collect();
            writeln!(f, "{a}: {}", anns.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::GraphBuilder;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn tiny() -> (DoemDatabase, NodeId, NodeId) {
        let mut b = GraphBuilder::new("g");
        let root = b.root();
        let r = b.complex_child(root, "restaurant");
        let p = b.atom_child(r, "price", 10);
        let db = b.finish();
        (DoemDatabase::from_snapshot(&db), r, p)
    }

    #[test]
    fn fresh_doem_has_no_annotations() {
        let (d, _, p) = tiny();
        assert_eq!(d.annotation_count(), 0);
        assert!(d.node_annotations(p).is_empty());
        assert!(d.timestamps().is_empty());
        d.check_invariants().unwrap();
    }

    #[test]
    fn record_update_keeps_old_value() {
        let (mut d, _, p) = tiny();
        d.record_update(p, Value::Int(20), ts("1Jan97")).unwrap();
        assert_eq!(d.graph().value(p).unwrap(), &Value::Int(20));
        assert_eq!(
            d.node_annotations(p),
            &[NodeAnnotation::Upd {
                at: ts("1Jan97"),
                old: Value::Int(10)
            }]
        );
        d.check_invariants().unwrap();
    }

    #[test]
    fn removed_arc_stays_with_rem_annotation() {
        let (mut d, r, p) = tiny();
        let arc = ArcTriple::new(r, "price", p);
        d.record_remove(arc, ts("8Jan97")).unwrap();
        assert!(d.graph().contains_arc(arc));
        assert!(!d.arc_is_current(arc));
        assert!(d.arc_existed_at(arc, ts("7Jan97")));
        assert!(!d.arc_existed_at(arc, ts("8Jan97")));
        d.check_invariants().unwrap();
    }

    #[test]
    fn re_added_arc_alternates() {
        let (mut d, r, p) = tiny();
        let arc = ArcTriple::new(r, "price", p);
        d.record_remove(arc, ts("2Jan97")).unwrap();
        d.record_add(arc, ts("4Jan97")).unwrap();
        assert!(d.arc_is_current(arc));
        assert!(d.arc_existed_at(arc, ts("1Jan97"))); // original
        assert!(!d.arc_existed_at(arc, ts("3Jan97"))); // removed window
        assert!(d.arc_existed_at(arc, ts("5Jan97"))); // re-added
        d.check_invariants().unwrap();
    }

    #[test]
    fn arc_added_later_did_not_exist_before() {
        let (mut d, r, _) = tiny();
        let mut g2 = d.graph().clone();
        let c = g2.alloc_id();
        d.record_create(c, Value::str("note"), ts("5Jan97")).unwrap();
        let arc = ArcTriple::new(r, "comment", c);
        d.record_add(arc, ts("5Jan97")).unwrap();
        assert!(!d.arc_existed_at(arc, ts("4Jan97")));
        assert!(d.arc_existed_at(arc, ts("5Jan97")));
        d.check_invariants().unwrap();
    }

    #[test]
    fn value_at_reconstructs_old_values() {
        let (mut d, _, p) = tiny();
        d.record_update(p, Value::Int(20), ts("1Jan97")).unwrap();
        d.record_update(p, Value::Int(30), ts("5Jan97")).unwrap();
        assert_eq!(d.value_at(p, ts("31Dec96")), Some(Value::Int(10)));
        assert_eq!(d.value_at(p, ts("1Jan97")), Some(Value::Int(20)));
        assert_eq!(d.value_at(p, ts("3Jan97")), Some(Value::Int(20)));
        assert_eq!(d.value_at(p, ts("5Jan97")), Some(Value::Int(30)));
        assert_eq!(d.value_at(p, Timestamp::INFINITY), Some(Value::Int(30)));
    }

    #[test]
    fn value_at_is_none_before_creation() {
        let (mut d, r, _) = tiny();
        let mut scratch = d.graph().clone();
        let c = scratch.alloc_id();
        d.record_create(c, Value::Int(1), ts("5Jan97")).unwrap();
        d.record_add(ArcTriple::new(r, "new", c), ts("5Jan97")).unwrap();
        assert_eq!(d.value_at(c, ts("4Jan97")), None);
        assert_eq!(d.value_at(c, ts("5Jan97")), Some(Value::Int(1)));
    }

    #[test]
    fn new_value_of_update_chains_through_upds() {
        let (mut d, _, p) = tiny();
        d.record_update(p, Value::Int(20), ts("1Jan97")).unwrap();
        d.record_update(p, Value::Int(30), ts("5Jan97")).unwrap();
        assert_eq!(
            d.new_value_of_update(p, ts("1Jan97")),
            Some(Value::Int(20))
        );
        assert_eq!(
            d.new_value_of_update(p, ts("5Jan97")),
            Some(Value::Int(30))
        );
        assert_eq!(d.new_value_of_update(p, ts("2Jan97")), None);
    }

    #[test]
    fn timestamps_are_sorted_and_distinct() {
        let (mut d, r, p) = tiny();
        d.record_update(p, Value::Int(20), ts("5Jan97")).unwrap();
        d.record_remove(ArcTriple::new(r, "price", p), ts("8Jan97"))
            .unwrap();
        let mut g2 = d.graph().clone();
        let c = g2.alloc_id();
        d.record_create(c, Value::Int(5), ts("8Jan97")).unwrap();
        d.record_add(ArcTriple::new(r, "rating", c), ts("8Jan97"))
            .unwrap();
        assert_eq!(d.timestamps(), vec![ts("5Jan97"), ts("8Jan97")]);
    }

    #[test]
    fn invariants_catch_double_cre() {
        let (mut d, r, _) = tiny();
        let _ = r;
        let mut g2 = d.graph().clone();
        let c = g2.alloc_id();
        d.record_create(c, Value::Int(1), ts("1Jan97")).unwrap();
        d.record_add(ArcTriple::new(d.root(), "x", c), ts("1Jan97"))
            .unwrap();
        // Corrupt: force a second cre.
        d.node_anns_mut(c).push(NodeAnnotation::Cre(ts("2Jan97")));
        assert!(matches!(
            d.check_invariants(),
            Err(DoemError::BadCreAnnotation(_))
        ));
    }

    #[test]
    fn invariants_catch_nonalternating_arcs() {
        let (mut d, r, p) = tiny();
        let arc = ArcTriple::new(r, "price", p);
        d.record_remove(arc, ts("1Jan97")).unwrap();
        d.arc_anns_mut(arc).unwrap().push(ArcAnnotation::Rem(ts("2Jan97")));
        assert!(matches!(
            d.check_invariants(),
            Err(DoemError::BadArcAnnotations(_))
        ));
    }

    /// An arc into a created node must start with an `add` at or after
    /// the creation: an unannotated (original) arc, or one added earlier,
    /// would reach the node before it existed.
    #[test]
    fn invariants_catch_arcs_that_reach_a_node_before_its_creation() {
        for added in [None, Some(ts("4Jan97"))] {
            let (mut d, r, _) = tiny();
            let c = d.graph().clone().alloc_id();
            d.record_create(c, Value::Int(1), ts("5Jan97")).unwrap();
            let arc = ArcTriple::new(r, "x", c);
            d.attach_arc(arc).unwrap();
            if let Some(t) = added {
                d.attach_arc_annotation(arc, ArcAnnotation::Add(t)).unwrap();
            }
            assert_eq!(
                d.check_invariants(),
                Err(DoemError::ArcBeforeChildCreation(arc))
            );
        }
    }

    #[test]
    fn same_doem_distinguishes_annotations() {
        let (d1, _, _) = tiny();
        let (mut d2, _, p) = tiny();
        assert!(same_doem(&d1, &d2));
        d2.record_update(p, Value::Int(99), ts("1Jan97")).unwrap();
        assert!(!same_doem(&d1, &d2));
    }

    #[test]
    fn gc_drops_annotations_of_dead_nodes() {
        let (mut d, r, _) = tiny();
        let mut g2 = d.graph().clone();
        let orphan = g2.alloc_id();
        let _ = r;
        d.record_create(orphan, Value::Int(9), ts("1Jan97")).unwrap();
        // Never linked: unreachable even through removed arcs.
        let dead = d.collect_garbage();
        assert_eq!(dead, vec![orphan]);
        assert!(d.node_annotations(orphan).is_empty());
        d.check_invariants().unwrap();
    }

    #[test]
    fn gc_keeps_nodes_reachable_only_via_removed_arcs() {
        let (mut d, r, p) = tiny();
        d.record_remove(ArcTriple::new(r, "price", p), ts("8Jan97"))
            .unwrap();
        assert!(d.collect_garbage().is_empty());
        assert!(d.graph().contains_node(p));
    }
}
