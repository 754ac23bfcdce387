//! The data-source abstraction the query engine evaluates against.
//!
//! Plain Lorel runs over an [`oem::OemDatabase`]; Chorel's direct engine
//! runs over a DOEM database (the `chorel` crate). The query model asks a
//! graph two questions, and the trait answers each once, through a
//! visitor. Which arcs out of a node are alive now (plain traversal sees
//! the current snapshot, Section 4.2.1) or at a time `t` (the virtual
//! `<at T>`, Section 4.2.2)? That is [`DataSource::arcs`]. And what
//! changed on a node or an arc? [`DataSource::created`],
//! [`DataSource::updates`] and [`DataSource::changed_arcs`] are `creFun`,
//! `updFun` and `addFun`/`remFun` (Section 4.2.1). A plain OEM database
//! has no annotations, so annotated steps match nothing there: "missing
//! data is false", as everywhere in Lorel.

use crate::plan::LabelSet;
use oem::{Label, NodeId, OemDatabase, Timestamp, Value};
use std::borrow::Cow;

/// The state a question is asked of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum When {
    /// The current snapshot.
    Now,
    /// The state as of a time (the virtual `<at T>` annotation). A source
    /// without history answers with its current snapshot.
    At(Timestamp),
}

/// Which arc annotation [`DataSource::changed_arcs`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcChange {
    /// `add(t)`: `addFun`.
    Add,
    /// `rem(t)`: `remFun`.
    Rem,
}

/// A queryable graph.
pub trait DataSource {
    /// The database name (the implicit head of path expressions).
    fn name(&self) -> &str;

    /// The root object.
    fn root(&self) -> NodeId;

    /// The value of `n` at `when`, borrowed where the source holds it (so
    /// comparing a binding copies nothing). `None` means the node did not
    /// exist then.
    fn value(&self, n: NodeId, when: When) -> Option<Cow<'_, Value>>;

    /// Visit `(label, child)` for every arc out of `n` alive at `when`
    /// whose label `labels` matches, in child order.
    fn arcs(&self, n: NodeId, labels: &LabelSet, when: When, visit: &mut dyn FnMut(Label, NodeId));

    /// Whether the unannotated wildcards `%` and `#` skip arcs labeled
    /// `l`. The Section 5.1 encoding hides its `&`-reserved arcs, so
    /// wildcards range over the *modeled* graph rather than the encoding's
    /// bookkeeping (otherwise `#` would reach removed-arc targets through
    /// `&l-history`/`&target` chains and diverge from the direct engine).
    fn hides_from_wildcards(&self, _l: Label) -> bool {
        false
    }

    /// Every `(label, parent)` with an arc into `n` that [`DataSource::arcs`]
    /// or [`DataSource::changed_arcs`] could ever report — a superset is
    /// fine, a missed arc is not. `None` (the default) means the source
    /// cannot say; delta evaluation then enumerates without pruning
    /// ([`crate::delta`]).
    fn parents(&self, _n: NodeId) -> Option<Vec<(Label, NodeId)>> {
        None
    }

    /// `creFun(n)`: the creation time of `n`, if it carries one.
    fn created(&self, _n: NodeId) -> Option<Timestamp> {
        None
    }

    /// `updFun(n)`: visit `(time, old value, new value)` for each of `n`'s
    /// `upd` annotations, in time order.
    fn updates(&self, _n: NodeId, _visit: &mut dyn FnMut(Timestamp, &Value, &Value)) {}

    /// `addFun`/`remFun`: visit `(label, time, target)` for every `change`
    /// annotation on an arc out of `n` (current *or removed*) whose label
    /// `labels` matches, in child order.
    fn changed_arcs(
        &self,
        _n: NodeId,
        _labels: &LabelSet,
        _change: ArcChange,
        _visit: &mut dyn FnMut(Label, Timestamp, NodeId),
    ) {
    }
}

impl DataSource for OemDatabase {
    fn name(&self) -> &str {
        OemDatabase::name(self)
    }

    fn root(&self) -> NodeId {
        OemDatabase::root(self)
    }

    fn value(&self, n: NodeId, _when: When) -> Option<Cow<'_, Value>> {
        OemDatabase::value(self, n).ok().map(Cow::Borrowed)
    }

    fn arcs(
        &self,
        n: NodeId,
        labels: &LabelSet,
        _when: When,
        visit: &mut dyn FnMut(Label, NodeId),
    ) {
        for &(l, c) in OemDatabase::children(self, n) {
            if labels.matches(l) {
                visit(l, c);
            }
        }
    }

    fn parents(&self, n: NodeId) -> Option<Vec<(Label, NodeId)>> {
        let flipped = OemDatabase::parents(self, n).into_iter().map(|(p, l)| (l, p));
        Some(flipped.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::guide::{guide_figure2, ids};

    /// What `arcs` visits out of `n` at `when`.
    fn arcs_of(src: &dyn DataSource, n: NodeId, labels: &LabelSet, when: When) -> Vec<NodeId> {
        let mut out = Vec::new();
        src.arcs(n, labels, when, &mut |_, c| out.push(c));
        out
    }

    #[test]
    fn oem_source_exposes_current_structure() {
        let db = guide_figure2();
        let src: &dyn DataSource = &db;
        assert_eq!(src.name(), "guide");
        assert_eq!(src.root(), ids::N4);
        let restaurant = LabelSet::Named(vec![Label::new("restaurant")]);
        assert_eq!(arcs_of(src, ids::N4, &restaurant, When::Now).len(), 2);
        assert_eq!(
            src.value(ids::N1, When::Now).as_deref(),
            Some(&Value::Int(10))
        );
    }

    #[test]
    fn oem_source_has_no_annotations() {
        let db = guide_figure2();
        let src: &dyn DataSource = &db;
        assert!(src.created(ids::N1).is_none());
        let mut updates = 0;
        src.updates(ids::N1, &mut |_, _, _| updates += 1);
        assert_eq!(updates, 0);
        let mut changed = Vec::new();
        let restaurant = LabelSet::Named(vec![Label::new("restaurant")]);
        src.changed_arcs(ids::N4, &restaurant, ArcChange::Add, &mut |_, _, c| {
            changed.push(c)
        });
        let parking = LabelSet::Named(vec![Label::new("parking")]);
        src.changed_arcs(ids::N6, &parking, ArcChange::Rem, &mut |_, _, c| {
            changed.push(c)
        });
        assert!(changed.is_empty());
    }
}
