//! Incremental (delta) evaluation of Chorel queries over DOEM.
//!
//! This is the Chorel face of `lorel`'s semi-naive machinery
//! ([`lorel::delta`]): given a DOEM database that a [`ChangeSet`] was just
//! applied to, maintain a prior result instead of re-evaluating the whole
//! query. Two entry points, for the two consumers:
//!
//! * [`fresh_rows`] / [`maintain_rows`] — the rows the delta variants add
//!   to a prior result, and the union of the two (serve's
//!   generation-keyed result cache carries entries through the commit
//!   pipeline's publish stage with the former: an entry that gains no row
//!   is re-keyed untouched);
//! * [`filter_anchor`] + [`anchored_eval`] — the standing-subscription
//!   fast path: a filter whose `where` clause carries a top-level
//!   `T ≥ τ` conjunct on an annotation timestamp is evaluated *exactly*
//!   by restricting that one constraint to annotations since `τ`, no
//!   monotonicity requirement and no prior rows needed.
//!
//! Both paths are [`Strategy::Direct`](crate::Strategy::Direct)-only: restriction sets are phrased
//! over the DOEM graph and do not map onto the Section 5.1 encoding; a
//! translated evaluator falls back to full evaluation. Correctness of the
//! union identity is property-tested against full re-evaluation through
//! both strategies (`tests/properties.rs::incremental_agrees_with_full`).
//!
//! # Example
//!
//! ```
//! use chorel::delta::maintain_rows;
//! use chorel::{run_chorel, Strategy};
//! use doem::{apply_set, doem_figure4};
//! use oem::{ChangeOp, ChangeSet, Value};
//!
//! let mut d = doem_figure4();
//! let query = lorel::parse_query("select guide.<add>restaurant").unwrap();
//! let prior = run_chorel(&d, "select guide.<add>restaurant", Strategy::Direct).unwrap();
//!
//! // A new restaurant arrives as a change set …
//! let mut replica = d.graph().clone();
//! let (r, n) = (replica.alloc_id(), replica.alloc_id());
//! let set = ChangeSet::from_ops([
//!     ChangeOp::CreNode(r, Value::Complex),
//!     ChangeOp::CreNode(n, Value::str("Thai Spice")),
//!     ChangeOp::add_arc(replica.root(), "restaurant", r),
//!     ChangeOp::add_arc(r, "name", n),
//! ])
//! .unwrap();
//! let at = "9Jan97".parse().unwrap();
//! apply_set(&mut d, &mut replica, &set, at).unwrap();
//!
//! // … and the prior rows are maintained in O(delta), not O(db).
//! let rows = maintain_rows(&d, &query, &set, at, &prior.rows).unwrap().unwrap();
//! assert_eq!(rows.rows.len(), 2); // Hakata + Thai Spice
//! ```

use crate::engines::{canonical_rows_by, render_canonical_rows};
use crate::DirectSource;
use doem::DoemDatabase;
use lorel::ast::Query;
use lorel::{
    anchored_execute, delta_fresh, find_anchor, package, plan, Anchor, DeltaSpec, QueryResult,
    Result, Row, Rows,
};
use oem::{ChangeSet, Timestamp};

/// The rows `change` (applied to `d` at `at`) adds to the (deduplicated)
/// `prior` result of `query`: the semi-naive delta variants minus the
/// prior rows. Empty means the result did not change. Returns `None`
/// when the query × delta is outside the monotonic fragment and the
/// caller must re-evaluate fully (see [`lorel::DeltaUnsupported`]).
pub fn fresh_rows(
    d: &DoemDatabase,
    query: &Query,
    change: &ChangeSet,
    at: Timestamp,
    prior: &[Row],
) -> Result<Option<Vec<Row>>> {
    let p = plan(query, d.name())?;
    let spec = DeltaSpec::new(change, at);
    delta_fresh(&DirectSource::new(d), &p, &spec, prior)
}

/// Maintain `prior` through `change`: the prior rows followed by
/// [`fresh_rows`]. `None` as there.
pub fn maintain_rows(
    d: &DoemDatabase,
    query: &Query,
    change: &ChangeSet,
    at: Timestamp,
    prior: &[Row],
) -> Result<Option<Rows>> {
    Ok(fresh_rows(d, query, change, at, prior)?.map(|fresh| Rows {
        rows: prior.iter().cloned().chain(fresh).collect(),
    }))
}

/// Package raw engine rows into a [`QueryResult`] against `d`, the same
/// way full evaluation would (the result database deep-copies the bound
/// objects, preserving ids).
pub fn package_rows(d: &DoemDatabase, rows: &Rows) -> QueryResult {
    let src = DirectSource::new(d);
    package(&src, rows, &format!("{}-result", d.name()))
}

/// Canonical wire rows for raw direct-strategy rows — what a cache must
/// store to answer queries byte-identically to a fresh evaluation.
/// Direct rows bind objects of `d`'s graph or computed values, never an
/// object that exists only in a packaged result, so no result database
/// is built to render them.
pub fn canonical_strings_for_rows(d: &DoemDatabase, rows: &Rows) -> Vec<String> {
    let canonical = canonical_rows_by(|n| d.graph().contains_node(n), &rows.rows, |_| None);
    render_canonical_rows(&canonical)
}

/// Find the timestamp anchor of a (resolved) filter query, if its `where`
/// clause carries one as a top-level conjunct — see [`lorel::find_anchor`]
/// for the exactness argument.
pub fn filter_anchor(query: &Query, db_name: &str) -> Result<Option<Anchor>> {
    Ok(find_anchor(&plan(query, db_name)?))
}

/// Evaluate `query` with the anchored constraint restricted to
/// annotations since the anchor — exact, and proportional to the
/// annotations in the anchored window rather than the database.
pub fn anchored_eval(d: &DoemDatabase, query: &Query, anchor: &Anchor) -> Result<QueryResult> {
    let p = plan(query, d.name())?;
    let rows = anchored_execute(&DirectSource::new(d), &p, anchor)?;
    Ok(package_rows(d, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::canonical_row_strings;
    use crate::{run_chorel_parsed, Strategy};
    use doem::{apply_set, doem_figure4};
    use oem::{ChangeOp, Value};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn maintained_rows_match_full_reevaluation() {
        let mut d = doem_figure4();
        let query = lorel::parse_query(
            "select N, T from guide.<add at T>restaurant R, R.name N",
        )
        .unwrap();
        let prior = run_chorel_parsed(&d, &query, Strategy::Direct).unwrap();

        let mut replica = d.graph().clone();
        let (r, n) = (replica.alloc_id(), replica.alloc_id());
        let set = ChangeSet::from_ops([
            ChangeOp::CreNode(r, Value::Complex),
            ChangeOp::CreNode(n, Value::str("Thai Spice")),
            ChangeOp::add_arc(replica.root(), "restaurant", r),
            ChangeOp::add_arc(r, "name", n),
        ])
        .unwrap();
        apply_set(&mut d, &mut replica, &set, ts("9Jan97")).unwrap();

        let maintained = maintain_rows(&d, &query, &set, ts("9Jan97"), &prior.rows)
            .unwrap()
            .expect("monotonic fragment");
        let full = run_chorel_parsed(&d, &query, Strategy::Direct).unwrap();
        assert_eq!(
            canonical_strings_for_rows(&d, &maintained),
            canonical_row_strings(&d, &full),
        );
    }

    #[test]
    fn anchored_eval_is_exact_on_figure4() {
        let d = doem_figure4();
        let query = lorel::parse_query(
            "select R, T from guide.<add at T>restaurant R where T >= 1Jan97",
        )
        .unwrap();
        let anchor = filter_anchor(&query, d.name()).unwrap().expect("anchor");
        assert_eq!(anchor.at, ts("1Jan97"));
        assert!(!anchor.strict);
        let fast = anchored_eval(&d, &query, &anchor).unwrap();
        let full = run_chorel_parsed(&d, &query, Strategy::Direct).unwrap();
        assert_eq!(
            canonical_row_strings(&d, &fast),
            canonical_row_strings(&d, &full),
        );
    }
}
