//! The direct Chorel execution strategy: evaluate annotation expressions
//! natively against the DOEM database (the "extend the kernel" approach
//! the paper sketches at the start of Section 5).
//!
//! [`DirectSource`] adapts a [`doem::DoemDatabase`] to the query engine's
//! [`lorel::DataSource`]:
//!
//! * plain traversal sees the *current snapshot* (so an annotation-free
//!   Chorel query over a DOEM database means the same query over its
//!   current snapshot, as Section 4.2.1 requires);
//! * the annotation functions `creFun`/`updFun`/`addFun`/`remFun` read the
//!   annotation maps — including arcs that are no longer current;
//! * the virtual-annotation hooks answer from the reconstructed history
//!   (Section 4.2.2).

use doem::{ArcAnnotation, DoemDatabase};
use lorel::DataSource;
use oem::{Label, NodeId, Timestamp, Value};

/// A [`DataSource`] view over a DOEM database.
#[derive(Clone, Copy, Debug)]
pub struct DirectSource<'a> {
    d: &'a DoemDatabase,
}

impl<'a> DirectSource<'a> {
    /// Wrap a DOEM database.
    pub fn new(d: &'a DoemDatabase) -> DirectSource<'a> {
        DirectSource { d }
    }

    /// The wrapped database.
    pub fn database(&self) -> &DoemDatabase {
        self.d
    }

    /// `(label, time, target)` for every annotation on an arc out of `n`
    /// that `pick` maps to a time — the shape of all four arc-annotation
    /// functions.
    fn arc_annotation_times(
        &self,
        n: NodeId,
        pick: fn(&ArcAnnotation) -> Option<Timestamp>,
    ) -> impl Iterator<Item = (Label, Timestamp, NodeId)> + 'a {
        self.d
            .arcs_from(n)
            .flat_map(move |(l, c, anns)| anns.iter().filter_map(pick).map(move |t| (l, t, c)))
    }
}

fn add_time(ann: &ArcAnnotation) -> Option<Timestamp> {
    match ann {
        ArcAnnotation::Add(t) => Some(*t),
        ArcAnnotation::Rem(_) => None,
    }
}

fn rem_time(ann: &ArcAnnotation) -> Option<Timestamp> {
    match ann {
        ArcAnnotation::Rem(t) => Some(*t),
        ArcAnnotation::Add(_) => None,
    }
}

impl DataSource for DirectSource<'_> {
    fn name(&self) -> &str {
        self.d.name()
    }

    fn root(&self) -> NodeId {
        self.d.root()
    }

    fn value(&self, n: NodeId) -> Option<Value> {
        self.d.graph().value(n).ok().cloned()
    }

    fn children(&self, n: NodeId) -> Vec<(Label, NodeId)> {
        self.d
            .arcs_from(n)
            .filter(|(_, _, anns)| ArcAnnotation::current(anns))
            .map(|(l, c, _)| (l, c))
            .collect()
    }

    /// Parents in the annotated graph, which holds removed arcs too: a
    /// superset of the current parents and of every `addFun`/`remFun`
    /// source, as [`DataSource::parents`] allows.
    fn parents(&self, n: NodeId) -> Option<Vec<(Label, NodeId)>> {
        let flipped = self.d.graph().parents(n).into_iter().map(|(p, l)| (l, p));
        Some(flipped.collect())
    }

    fn cre_fun(&self, n: NodeId) -> Vec<Timestamp> {
        self.d.created_at(n).into_iter().collect()
    }

    fn upd_fun(&self, n: NodeId) -> Vec<(Timestamp, Value, Value)> {
        self.d
            .update_triples(n)
            .map(|(t, old, new)| (t, old.clone(), new.clone()))
            .collect()
    }

    fn add_fun(&self, n: NodeId, l: Label) -> Vec<(Timestamp, NodeId)> {
        self.arc_annotation_times(n, add_time)
            .filter(|&(label, _, _)| label == l)
            .map(|(_, t, c)| (t, c))
            .collect()
    }

    fn rem_fun(&self, n: NodeId, l: Label) -> Vec<(Timestamp, NodeId)> {
        self.arc_annotation_times(n, rem_time)
            .filter(|&(label, _, _)| label == l)
            .map(|(_, t, c)| (t, c))
            .collect()
    }

    fn add_fun_any(&self, n: NodeId) -> Vec<(Label, Timestamp, NodeId)> {
        self.arc_annotation_times(n, add_time).collect()
    }

    fn rem_fun_any(&self, n: NodeId) -> Vec<(Label, Timestamp, NodeId)> {
        self.arc_annotation_times(n, rem_time).collect()
    }

    fn children_at(&self, n: NodeId, t: Timestamp) -> Vec<(Label, NodeId)> {
        self.d
            .arcs_from(n)
            .filter(|(_, _, anns)| ArcAnnotation::alive_at(anns, t))
            .map(|(l, c, _)| (l, c))
            .collect()
    }

    fn children_labeled_at(&self, n: NodeId, l: Label, t: Timestamp) -> Vec<NodeId> {
        self.d
            .arcs_from(n)
            .filter(|&(label, _, anns)| label == l && ArcAnnotation::alive_at(anns, t))
            .map(|(_, c, _)| c)
            .collect()
    }

    fn value_at(&self, n: NodeId, t: Timestamp) -> Option<Value> {
        self.d.value_at(n, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doem::doem_figure4;
    use oem::guide::ids;

    #[test]
    fn plain_traversal_sees_the_current_snapshot() {
        let d = doem_figure4();
        let s = DirectSource::new(&d);
        // Janta's removed parking arc is invisible to plain traversal…
        assert!(s.children_labeled(ids::N6, Label::new("parking")).is_empty());
        // …but Bangkok's survives.
        assert_eq!(
            s.children_labeled(ids::BANGKOK, Label::new("parking")),
            vec![ids::N7]
        );
    }

    #[test]
    fn annotation_functions_read_the_history() {
        let d = doem_figure4();
        let s = DirectSource::new(&d);
        let t1: Timestamp = "1Jan97".parse().unwrap();
        let t3: Timestamp = "8Jan97".parse().unwrap();
        assert_eq!(s.cre_fun(ids::N2), vec![t1]);
        assert_eq!(
            s.upd_fun(ids::N1),
            vec![(t1, Value::Int(10), Value::Int(20))]
        );
        assert_eq!(
            s.add_fun(ids::N4, Label::new("restaurant")),
            vec![(t1, ids::N2)]
        );
        // remFun finds the removed arc even though it is not current.
        assert_eq!(
            s.rem_fun(ids::N6, Label::new("parking")),
            vec![(t3, ids::N7)]
        );
    }

    #[test]
    fn virtual_hooks_answer_historically() {
        let d = doem_figure4();
        let s = DirectSource::new(&d);
        let before: Timestamp = "31Dec96".parse().unwrap();
        assert_eq!(s.value_at(ids::N1, before), Some(Value::Int(10)));
        assert_eq!(
            s.children_labeled_at(ids::N6, Label::new("parking"), before),
            vec![ids::N7]
        );
        assert!(s
            .children_labeled_at(ids::N6, Label::new("parking"), "9Jan97".parse().unwrap())
            .is_empty());
    }
}
