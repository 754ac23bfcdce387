//! `O_t(D)` as a view: evaluate a query over the state a DOEM database had
//! at time `t` without materialising that state.
//!
//! Section 3.2 defines `O_t(D)` as a traversal that reconstructs values
//! from `upd` annotations and "follows only arcs that existed at `t`".
//! [`doem::snapshot_at`] runs that traversal over the whole graph and
//! copies out an [`oem::OemDatabase`]; [`AtSource`] answers the same
//! questions one node at a time, so a query pays for the nodes it reaches
//! rather than for the database. It is the paper's virtual `<at T>`
//! annotation (Section 4.2.2) applied to every step of every path.

use crate::engines::{canonical_rows_by, render_canonical_rows};
use doem::{ArcAnnotation, DoemDatabase};
use lorel::{DataSource, LabelSet, Rows, When};
use oem::{Label, NodeId, Timestamp, Value};
use std::borrow::Cow;

/// A [`DataSource`] over `O_t(D)`.
///
/// Answers exactly what [`crate::DirectSource`] answers over
/// `DoemDatabase::from_snapshot(&snapshot_at(d, t))`: the snapshot is a
/// plain database, so the annotation functions report nothing and a
/// question asked [`When::At`] another time is answered from the
/// snapshot itself.
///
/// The children of a node are its arcs alive at `t`; unlike
/// [`doem::snapshot_at`], the view does not ask whether each child
/// existed at `t`. [`DoemDatabase::check_invariants`] makes that
/// redundant: every arc into a node created at `tc` starts with an `add`
/// at or after `tc`. [`DoemDatabase::apply`] keeps the rule, since it
/// adds arcs only to nodes of the current snapshot and never reuses an id
/// the graph has used ([`oem::OemDatabase::is_fresh`]), so an arc without
/// an `add` is an original arc to an original node; `decode_doem` checks
/// it on every image.
#[derive(Clone, Copy, Debug)]
pub struct AtSource<'a> {
    d: &'a DoemDatabase,
    t: Timestamp,
}

impl<'a> AtSource<'a> {
    /// View `d` as of time `t`.
    pub fn new(d: &'a DoemDatabase, t: Timestamp) -> AtSource<'a> {
        AtSource { d, t }
    }

    /// [`crate::canonical_row_strings`] for rows the engine evaluated
    /// over this view. Every object they bind is an object of the
    /// snapshot, so no result database is needed to render them.
    pub fn canonical_row_strings(&self, rows: &Rows) -> Vec<String> {
        // The root is an object of the snapshot even when it was created
        // after `t` (see `value`).
        render_canonical_rows(&canonical_rows_by(
            |n| n == self.d.root() || self.d.value_ref_at(n, self.t).is_some(),
            &rows.rows,
            |_| None,
        ))
    }
}

impl DataSource for AtSource<'_> {
    fn name(&self) -> &str {
        self.d.name()
    }

    fn root(&self) -> NodeId {
        self.d.root()
    }

    fn value(&self, n: NodeId, _when: When) -> Option<Cow<'_, Value>> {
        match self.d.value_ref_at(n, self.t) {
            Some(v) => Some(Cow::Borrowed(v)),
            // A root created after `t` (QSS result databases) still roots
            // the — empty — snapshot.
            None => (n == self.d.root()).then_some(Cow::Owned(Value::Complex)),
        }
    }

    /// The arcs out of `n` alive at `t`, in graph order. The label is
    /// compared before the annotations are read.
    fn arcs(
        &self,
        n: NodeId,
        labels: &LabelSet,
        _when: When,
        visit: &mut dyn FnMut(Label, NodeId),
    ) {
        let t = self.t;
        let mut alive = self
            .d
            .arcs_from(n)
            .filter(|&(l, _, anns)| labels.matches(l) && ArcAnnotation::alive_at(anns, t))
            .peekable();
        // Atomic at t, or not yet created: nothing below it at t. Asked
        // only when there is something to drop.
        let complex = || self.d.value_ref_at(n, t).is_some_and(Value::is_complex);
        if alive.peek().is_some() && complex() {
            alive.for_each(|(l, c, _)| visit(l, c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canonical_row_strings, run_chorel, Strategy};
    use doem::{doem_figure4, snapshot_at, NodeAnnotation};
    use lorel::ArcChange;
    use oem::guide::ids;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    /// What `arcs` visits out of `n` with label `l`.
    fn arcs_of(s: &AtSource<'_>, n: NodeId, l: &str) -> Vec<NodeId> {
        let mut out = Vec::new();
        let labels = LabelSet::Named(vec![Label::new(l)]);
        s.arcs(n, &labels, When::Now, &mut |_, c| out.push(c));
        out
    }

    #[test]
    fn view_shows_the_state_at_t() {
        let d = doem_figure4();
        // 2Jan97: price already 20, Hakata exists, no comment yet, Janta
        // still parks at n7.
        let s = AtSource::new(&d, ts("2Jan97"));
        assert_eq!(
            s.value(ids::N1, When::Now).as_deref(),
            Some(&Value::Int(20))
        );
        assert_eq!(arcs_of(&s, ids::N4, "restaurant").len(), 3);
        assert!(arcs_of(&s, ids::N2, "comment").is_empty());
        assert_eq!(arcs_of(&s, ids::N6, "parking"), vec![ids::N7]);
        // 31Dec96: the original snapshot.
        let s = AtSource::new(&d, ts("31Dec96"));
        assert_eq!(
            s.value(ids::N1, When::Now).as_deref(),
            Some(&Value::Int(10))
        );
        assert_eq!(arcs_of(&s, ids::N4, "restaurant").len(), 2);
    }

    #[test]
    fn view_has_no_history_of_its_own() {
        let d = doem_figure4();
        let s = AtSource::new(&d, ts("9Jan97"));
        assert!(s.created(ids::N2).is_none());
        let mut updates = 0;
        s.updates(ids::N1, &mut |_, _, _| updates += 1);
        assert_eq!(updates, 0);
        let mut changed = Vec::new();
        let restaurant = LabelSet::Named(vec![Label::new("restaurant")]);
        s.changed_arcs(ids::N4, &restaurant, ArcChange::Add, &mut |_, _, c| {
            changed.push(c)
        });
        let parking = LabelSet::Named(vec![Label::new("parking")]);
        s.changed_arcs(ids::N6, &parking, ArcChange::Rem, &mut |_, _, c| {
            changed.push(c)
        });
        assert!(changed.is_empty());
        // `<at T>` inside the view is the view.
        let past = When::At(ts("31Dec96"));
        assert_eq!(s.value(ids::N1, past).as_deref(), Some(&Value::Int(20)));
    }

    #[test]
    fn root_created_after_t_is_still_the_root_of_the_view() {
        // A QSS result database: the root appears at the first poll.
        let mut d = doem_figure4();
        d.attach_node_annotation(ids::N4, NodeAnnotation::Cre(ts("1Jan97")))
            .unwrap();
        let t = ts("31Dec96");
        let snap = DoemDatabase::from_snapshot(&snapshot_at(&d, t));
        // `select guide` binds the root itself; below it there is nothing.
        for q in ["select guide", "select guide.restaurant"] {
            let want = run_chorel(&snap, q, Strategy::Direct).unwrap();
            let want = canonical_row_strings(&snap, &want);
            let query = lorel::parse_query(q).unwrap();
            let got = crate::run_chorel_at(&d, t, &query, Strategy::Direct).unwrap();
            assert_eq!(got, want, "{q}");
        }
    }

    #[test]
    fn view_rows_equal_materialised_rows() {
        let d = doem_figure4();
        for t in ["31Dec96", "1Jan97", "6Jan97", "8Jan97"] {
            let t = ts(t);
            let snap = DoemDatabase::from_snapshot(&snapshot_at(&d, t));
            for q in [
                "select guide.restaurant.name",
                "select R, P from guide.restaurant R, R.parking P",
                "select guide.restaurant where guide.restaurant.# like \"%Lytton%\"",
                "select guide.<add>restaurant",
            ] {
                let want = run_chorel(&snap, q, Strategy::Direct).unwrap();
                let want = canonical_row_strings(&snap, &want);
                let query = lorel::parse_query(q).unwrap();
                for strategy in [Strategy::Direct, Strategy::Translated] {
                    let got = crate::run_chorel_at(&d, t, &query, strategy).unwrap();
                    assert_eq!(got, want, "{q} at {t} via {strategy:?}");
                }
            }
        }
    }
}
