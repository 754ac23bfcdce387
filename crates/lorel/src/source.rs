//! The data-source abstraction the query engine evaluates against.
//!
//! Plain Lorel runs over an [`oem::OemDatabase`]; Chorel's direct engine
//! runs over a DOEM database (implemented in the `chorel` crate). The
//! trait exposes the *current snapshot* for ordinary traversal — the paper
//! specifies that an annotation-free query over a DOEM database means the
//! same query over its current snapshot — plus the four annotation
//! functions of Section 4.2.1 (`creFun`, `updFun`, `addFun`, `remFun`) and
//! the time-travel hooks used by virtual annotations (Section 4.2.2).
//!
//! A plain OEM database has no annotations, so its annotation functions
//! return nothing: annotated path steps simply match nothing, the same
//! "missing data is false" behavior Lorel applies everywhere.

use oem::{Label, NodeId, OemDatabase, Timestamp, Value};
use std::borrow::Cow;

/// A queryable graph.
pub trait DataSource {
    /// The database name (the implicit head of path expressions).
    fn name(&self) -> &str;

    /// The root object.
    fn root(&self) -> NodeId;

    /// The current value of a node, borrowed where the source holds it
    /// (so comparing a binding copies nothing).
    fn value(&self, n: NodeId) -> Option<Cow<'_, Value>>;

    /// Current-snapshot children of `n` (all labels), in deterministic
    /// order.
    fn children(&self, n: NodeId) -> Vec<(Label, NodeId)>;

    /// Current-snapshot `l`-labeled children of `n`.
    fn children_labeled(&self, n: NodeId, l: Label) -> Vec<NodeId> {
        self.children(n)
            .into_iter()
            .filter(|(label, _)| *label == l)
            .map(|(_, c)| c)
            .collect()
    }

    /// Every `(label, parent)` with an arc into `n` that this source's
    /// traversal functions could ever follow — a superset is fine, a
    /// missed arc is not. `None` (the default) means the source cannot
    /// say; delta evaluation then enumerates without pruning
    /// ([`crate::delta`]).
    fn parents(&self, _n: NodeId) -> Option<Vec<(Label, NodeId)>> {
        None
    }

    /// `creFun(n)`: creation timestamps on `n` (∅ or a singleton).
    fn cre_fun(&self, _n: NodeId) -> Vec<Timestamp> {
        Vec::new()
    }

    /// `updFun(n)`: `(time, old value, new value)` triples for `n`'s `upd`
    /// annotations, in time order.
    fn upd_fun(&self, _n: NodeId) -> Vec<(Timestamp, Value, Value)> {
        Vec::new()
    }

    /// `addFun(n, l)`: `(time, target)` pairs — `l`-labeled arcs out of `n`
    /// (current *or removed*) carrying an `add(t)` annotation.
    fn add_fun(&self, _n: NodeId, _l: Label) -> Vec<(Timestamp, NodeId)> {
        Vec::new()
    }

    /// `remFun(n, l)`: `(time, target)` pairs for `rem(t)` annotations.
    fn rem_fun(&self, _n: NodeId, _l: Label) -> Vec<(Timestamp, NodeId)> {
        Vec::new()
    }

    /// All-label `addFun` (Section 7 extension: annotation expressions on
    /// the `%` wildcard): `(label, time, target)` triples for every
    /// `add(t)`-annotated arc out of `n`.
    fn add_fun_any(&self, _n: NodeId) -> Vec<(Label, Timestamp, NodeId)> {
        Vec::new()
    }

    /// All-label `remFun` (Section 7 extension).
    fn rem_fun_any(&self, _n: NodeId) -> Vec<(Label, Timestamp, NodeId)> {
        Vec::new()
    }

    /// Virtual annotations on `%`: all children of `n` as of time `t`.
    fn children_at(&self, n: NodeId, _t: Timestamp) -> Vec<(Label, NodeId)> {
        self.children(n)
    }

    /// Children considered by the wildcard patterns `#` and `%`.
    ///
    /// Defaults to [`DataSource::children`]. The Section 5.1 encoding
    /// overrides this to skip `&`-reserved arcs so that wildcards range
    /// over the *modeled* graph rather than the encoding's bookkeeping
    /// (otherwise `#` would reach removed-arc targets through
    /// `&l-history`/`&target` chains and diverge from the direct engine).
    fn wildcard_children(&self, n: NodeId) -> Vec<(Label, NodeId)> {
        self.children(n)
    }

    /// Virtual annotations — `l`-labeled children of `n` as of time `t`
    /// (`X.<at T>label`). Defaults to the current snapshot (plain OEM has
    /// no history).
    fn children_labeled_at(&self, n: NodeId, l: Label, _t: Timestamp) -> Vec<NodeId> {
        self.children_labeled(n, l)
    }

    /// Virtual annotations — the value of `n` as of time `t`
    /// (`…label<at T>`). `None` means the node did not exist then.
    fn value_at(&self, n: NodeId, _t: Timestamp) -> Option<Value> {
        self.value(n).map(Cow::into_owned)
    }
}

impl DataSource for OemDatabase {
    fn name(&self) -> &str {
        OemDatabase::name(self)
    }

    fn root(&self) -> NodeId {
        OemDatabase::root(self)
    }

    fn value(&self, n: NodeId) -> Option<Cow<'_, Value>> {
        OemDatabase::value(self, n).ok().map(Cow::Borrowed)
    }

    fn children(&self, n: NodeId) -> Vec<(Label, NodeId)> {
        OemDatabase::children(self, n).to_vec()
    }

    fn children_labeled(&self, n: NodeId, l: Label) -> Vec<NodeId> {
        OemDatabase::children_labeled(self, n, l).collect()
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

    #[test]
    fn oem_source_exposes_current_structure() {
        let db = guide_figure2();
        let src: &dyn DataSource = &db;
        assert_eq!(src.name(), "guide");
        assert_eq!(src.root(), ids::N4);
        assert_eq!(src.children_labeled(ids::N4, Label::new("restaurant")).len(), 2);
        assert_eq!(src.value(ids::N1).as_deref(), Some(&Value::Int(10)));
    }

    #[test]
    fn oem_source_has_no_annotations() {
        let db = guide_figure2();
        assert!(db.cre_fun(ids::N1).is_empty());
        assert!(db.upd_fun(ids::N1).is_empty());
        assert!(db.add_fun(ids::N4, Label::new("restaurant")).is_empty());
        assert!(db.rem_fun(ids::N6, Label::new("parking")).is_empty());
    }
}
