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
use lorel::{DataSource, QueryResult};
use oem::{Label, NodeId, Timestamp, Value};

/// A [`DataSource`] over `O_t(D)`.
///
/// Answers exactly what [`crate::DirectSource`] answers over
/// `DoemDatabase::from_snapshot(&snapshot_at(d, t))`: the snapshot is a
/// plain database, so the annotation functions are empty and the
/// `<at T>` hooks fall back to the snapshot itself (the trait defaults).
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

    /// [`crate::canonical_row_strings`] for a result evaluated over this
    /// view.
    pub fn canonical_row_strings(&self, result: &QueryResult) -> Vec<String> {
        // The root is an object of the snapshot even when it was created
        // after `t` (see `value`).
        render_canonical_rows(&canonical_rows_by(
            |n| n == self.d.root() || self.d.value_ref_at(n, self.t).is_some(),
            &result.rows,
            |n| result.db.value(n).ok().cloned(),
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

    fn value(&self, n: NodeId) -> Option<Value> {
        match self.d.value_ref_at(n, self.t) {
            Some(v) => Some(v.clone()),
            // A root created after `t` (QSS result databases) still roots
            // the — empty — snapshot.
            None => (n == self.d.root()).then_some(Value::Complex),
        }
    }

    fn children(&self, n: NodeId) -> Vec<(Label, NodeId)> {
        // Atomic at t, or not yet created: nothing below it at t.
        if !self
            .d
            .value_ref_at(n, self.t)
            .is_some_and(Value::is_complex)
        {
            return Vec::new();
        }
        self.d
            .arcs_from(n)
            .filter(|&(_, c, anns)| {
                ArcAnnotation::alive_at(anns, self.t) && self.d.value_ref_at(c, self.t).is_some()
            })
            .map(|(l, c, _)| (l, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canonical_row_strings, run_chorel, Strategy};
    use doem::{doem_figure4, snapshot_at, NodeAnnotation};
    use oem::guide::ids;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn view_shows_the_state_at_t() {
        let d = doem_figure4();
        // 2Jan97: price already 20, Hakata exists, no comment yet, Janta
        // still parks at n7.
        let s = AtSource::new(&d, ts("2Jan97"));
        assert_eq!(s.value(ids::N1), Some(Value::Int(20)));
        assert_eq!(
            s.children_labeled(ids::N4, Label::new("restaurant")).len(),
            3
        );
        assert!(s
            .children_labeled(ids::N2, Label::new("comment"))
            .is_empty());
        assert_eq!(
            s.children_labeled(ids::N6, Label::new("parking")),
            vec![ids::N7]
        );
        // 31Dec96: the original snapshot.
        let s = AtSource::new(&d, ts("31Dec96"));
        assert_eq!(s.value(ids::N1), Some(Value::Int(10)));
        assert_eq!(
            s.children_labeled(ids::N4, Label::new("restaurant")).len(),
            2
        );
    }

    #[test]
    fn view_has_no_history_of_its_own() {
        let d = doem_figure4();
        let s = AtSource::new(&d, ts("9Jan97"));
        assert!(s.cre_fun(ids::N2).is_empty());
        assert!(s.upd_fun(ids::N1).is_empty());
        assert!(s.add_fun(ids::N4, Label::new("restaurant")).is_empty());
        assert!(s.rem_fun(ids::N6, Label::new("parking")).is_empty());
        // `<at T>` inside the view is the view.
        assert_eq!(s.value_at(ids::N1, ts("31Dec96")), Some(Value::Int(20)));
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
