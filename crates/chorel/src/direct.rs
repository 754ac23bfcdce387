//! The direct Chorel execution strategy: evaluate annotation expressions
//! natively against the DOEM database (the "extend the kernel" approach
//! the paper sketches at the start of Section 5).
//!
//! [`DirectSource`] adapts a [`doem::DoemDatabase`] to the query engine's
//! [`lorel::DataSource`]:
//!
//! * [`DataSource::arcs`] at [`When::Now`] sees the *current snapshot* (so
//!   an annotation-free Chorel query over a DOEM database means the same
//!   query over its current snapshot, as Section 4.2.1 requires), and at
//!   [`When::At`] the arcs alive then (the virtual `<at T>` of Section
//!   4.2.2); [`DataSource::value`] likewise reconstructs past values;
//! * the annotation functions `creFun`/`updFun`/`addFun`/`remFun`
//!   ([`DataSource::created`], [`DataSource::updates`],
//!   [`DataSource::changed_arcs`]) read the annotation maps — including
//!   arcs that are no longer current.

use doem::{ArcAnnotation, DoemDatabase};
use lorel::{ArcChange, DataSource, LabelSet, When};
use oem::{Label, NodeId, Timestamp, Value};
use std::borrow::Cow;

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
}

impl DataSource for DirectSource<'_> {
    fn name(&self) -> &str {
        self.d.name()
    }

    fn root(&self) -> NodeId {
        self.d.root()
    }

    fn value(&self, n: NodeId, when: When) -> Option<Cow<'_, Value>> {
        match when {
            When::Now => self.d.graph().value(n).ok(),
            When::At(t) => self.d.value_ref_at(n, t),
        }
        .map(Cow::Borrowed)
    }

    /// One pass over `n`'s arcs: the label is compared before the
    /// annotations are read.
    fn arcs(&self, n: NodeId, labels: &LabelSet, when: When, visit: &mut dyn FnMut(Label, NodeId)) {
        for (l, c, anns) in self.d.arcs_from(n) {
            let alive = || match when {
                When::Now => ArcAnnotation::current(anns),
                When::At(t) => ArcAnnotation::alive_at(anns, t),
            };
            if labels.matches(l) && alive() {
                visit(l, c);
            }
        }
    }

    /// Parents in the annotated graph, which holds removed arcs too: a
    /// superset of the current parents and of every `addFun`/`remFun`
    /// source, as [`DataSource::parents`] allows.
    fn parents(&self, n: NodeId) -> Option<Vec<(Label, NodeId)>> {
        let flipped = self.d.graph().parents(n).into_iter().map(|(p, l)| (l, p));
        Some(flipped.collect())
    }

    fn created(&self, n: NodeId) -> Option<Timestamp> {
        self.d.created_at(n)
    }

    fn updates(&self, n: NodeId, visit: &mut dyn FnMut(Timestamp, &Value, &Value)) {
        for (t, old, new) in self.d.update_triples(n) {
            visit(t, old, new);
        }
    }

    fn changed_arcs(
        &self,
        n: NodeId,
        labels: &LabelSet,
        change: ArcChange,
        visit: &mut dyn FnMut(Label, Timestamp, NodeId),
    ) {
        for (l, c, anns) in self.d.arcs_from(n).filter(|&(l, _, _)| labels.matches(l)) {
            for ann in anns {
                match (ann, change) {
                    (ArcAnnotation::Add(t), ArcChange::Add)
                    | (ArcAnnotation::Rem(t), ArcChange::Rem) => visit(l, *t, c),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doem::doem_figure4;
    use oem::guide::ids;

    fn one(l: &str) -> LabelSet {
        LabelSet::Named(vec![Label::new(l)])
    }

    /// What `arcs` visits out of `n` with label `l` at `when`.
    fn arcs_of(s: &DirectSource<'_>, n: NodeId, l: &str, when: When) -> Vec<NodeId> {
        let mut out = Vec::new();
        s.arcs(n, &one(l), when, &mut |_, c| out.push(c));
        out
    }

    /// What `changed_arcs` visits out of `n` with label `l`.
    fn changed(s: &DirectSource<'_>, n: NodeId, l: &str, c: ArcChange) -> Vec<(Timestamp, NodeId)> {
        let mut out = Vec::new();
        s.changed_arcs(n, &one(l), c, &mut |_, t, c| out.push((t, c)));
        out
    }

    #[test]
    fn plain_traversal_sees_the_current_snapshot() {
        let d = doem_figure4();
        let s = DirectSource::new(&d);
        // Janta's removed parking arc is invisible to plain traversal…
        assert!(arcs_of(&s, ids::N6, "parking", When::Now).is_empty());
        // …but Bangkok's survives.
        assert_eq!(
            arcs_of(&s, ids::BANGKOK, "parking", When::Now),
            vec![ids::N7]
        );
    }

    #[test]
    fn annotation_functions_read_the_history() {
        let d = doem_figure4();
        let s = DirectSource::new(&d);
        let t1: Timestamp = "1Jan97".parse().unwrap();
        let t3: Timestamp = "8Jan97".parse().unwrap();
        assert_eq!(s.created(ids::N2), Some(t1));
        let mut updates = Vec::new();
        s.updates(ids::N1, &mut |t, old, new| {
            updates.push((t, old.clone(), new.clone()))
        });
        assert_eq!(updates, vec![(t1, Value::Int(10), Value::Int(20))]);
        assert_eq!(
            changed(&s, ids::N4, "restaurant", ArcChange::Add),
            vec![(t1, ids::N2)]
        );
        // remFun finds the removed arc even though it is not current.
        assert_eq!(
            changed(&s, ids::N6, "parking", ArcChange::Rem),
            vec![(t3, ids::N7)]
        );
    }

    #[test]
    fn virtual_hooks_answer_historically() {
        let d = doem_figure4();
        let s = DirectSource::new(&d);
        let before: Timestamp = "31Dec96".parse().unwrap();
        assert_eq!(
            s.value(ids::N1, When::At(before)).as_deref(),
            Some(&Value::Int(10))
        );
        assert_eq!(
            arcs_of(&s, ids::N6, "parking", When::At(before)),
            vec![ids::N7]
        );
        let after = When::At("9Jan97".parse().unwrap());
        assert!(arcs_of(&s, ids::N6, "parking", after).is_empty());
    }
}
