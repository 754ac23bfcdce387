//! Plan execution: nested-loop enumeration of outer variables, existential
//! evaluation of inner variables, coercing predicate evaluation.
//!
//! Everything a query names was resolved when it was planned: step labels
//! are interned ids ([`LabelSet`]) and literals carry their coercions
//! ([`Literal`]), so extending a binding compares integers and reads
//! values in place, and no literal is parsed again per binding.

use crate::ast::{ArcAnnotExpr, LabelPattern, NodeAnnotExpr, PathStep, TimeRef};
use crate::coerce::{self, holds, Literal};
use crate::delta::SlotRestrict;
use crate::error::{LorelError, Result};
use crate::plan::{CompanionRole, LabelSet, Operand, Plan, Pred, VarSource};
use crate::source::{ArcChange, DataSource, When};
use oem::{Label, NodeId, Timestamp, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashSet};

/// A candidate restriction threaded through the enumeration (the
/// semi-naive delta variants and the anchored-conjunct fast path in
/// [`crate::delta`]).
pub(crate) struct Restriction<'a> {
    /// The restricted step slot: its candidates are filtered through
    /// `keep`.
    pub(crate) slot: usize,
    /// The filter on `slot`'s candidates.
    pub(crate) keep: &'a SlotRestrict<'a>,
    /// Allow-sets, for `slot` and slots on its base chain: a listed slot
    /// keeps only node candidates in its set (`slot` then filters those
    /// through `keep`). Every other slot enumerates the full database.
    pub(crate) allow: &'a [(usize, BTreeSet<NodeId>)],
}

/// The optional [`Restriction`] of one evaluation.
pub(crate) type Restrict<'a> = Option<&'a Restriction<'a>>;

/// A variable binding.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Binding {
    /// Bound to a graph object.
    Node(NodeId),
    /// Bound to a computed value (annotation timestamps, old/new values,
    /// historical values from virtual annotations).
    Val(Value),
    /// No binding exists (inner variable over an empty range). Atomic
    /// predicates over `Missing` are false.
    Missing,
}

/// One result row: the values of the plan's select columns.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Row {
    /// `(label, binding)` pairs in select order.
    pub cols: Vec<(String, Binding)>,
}

/// The outcome of executing a plan: rows, deduplicated, in deterministic
/// enumeration order. (Result *packaging* into an OEM database is
/// [`crate::package`].)
#[derive(Clone, Debug)]
pub struct Rows {
    /// The rows.
    pub rows: Vec<Row>,
}

/// Drop every row equal to an earlier one, keeping the first of each in
/// place; rows are compared where they lie, not copied.
pub(crate) fn dedup_rows(rows: &mut Vec<Row>) {
    let keep: Vec<bool> = {
        let mut seen = HashSet::with_capacity(rows.len());
        rows.iter().map(|r| seen.insert(r)).collect()
    };
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next().unwrap_or(false));
}

/// One candidate produced by evaluating a step: the target binding plus
/// companion values.
struct Candidate {
    target: Binding,
    arc_time: Option<Timestamp>,
    node_time: Option<Timestamp>,
    old_value: Option<Value>,
    new_value: Option<Value>,
}

impl Candidate {
    fn node(n: NodeId) -> Candidate {
        Candidate {
            target: Binding::Node(n),
            arc_time: None,
            node_time: None,
            old_value: None,
            new_value: None,
        }
    }
}

/// Execute `plan` against `source`.
pub fn execute(source: &dyn DataSource, plan: &Plan) -> Result<Rows> {
    execute_restricted(source, plan, None)
}

/// Execute `plan` with an optional per-slot candidate restriction.
pub(crate) fn execute_restricted(
    source: &dyn DataSource,
    plan: &Plan,
    restrict: Restrict<'_>,
) -> Result<Rows> {
    let mut tuple: Vec<Binding> = vec![Binding::Missing; plan.vars.len()];
    let mut rows = Vec::new();
    enumerate_outer(source, plan, restrict, 0, &mut tuple, &mut rows)?;
    // Set semantics: deduplicate rows (order-preserving).
    dedup_rows(&mut rows);
    Ok(Rows { rows })
}

fn enumerate_outer(
    source: &dyn DataSource,
    plan: &Plan,
    restrict: Restrict<'_>,
    idx: usize,
    tuple: &mut Vec<Binding>,
    rows: &mut Vec<Row>,
) -> Result<()> {
    // Skip companion slots: they are filled by their owning step.
    let next = plan.outer_order[idx..]
        .iter()
        .copied()
        .find(|&slot| !matches!(plan.vars[slot].source, VarSource::Companion { .. }));
    let Some(slot) = next else {
        // All outer variables bound: evaluate where, emit a row.
        let ok = match &plan.where_pred {
            None => true,
            Some(p) => eval_pred(source, plan, restrict, p, tuple)?,
        };
        if ok {
            let cols = plan
                .select
                .iter()
                .map(|c| {
                    let binding = match &c.value {
                        Operand::Slot(s) => tuple[*s].clone(),
                        Operand::Const(lit) => Binding::Val(lit.value().clone()),
                    };
                    (c.label.clone(), binding)
                })
                .collect();
            rows.push(Row { cols });
        }
        return Ok(());
    };
    let pos = plan.outer_order.iter().position(|&s| s == slot).expect("slot is in outer_order");

    let candidates = candidates_for(source, plan, restrict, slot, tuple)?;
    for cand in candidates {
        bind_candidate(plan, slot, cand, tuple);
        enumerate_outer(source, plan, restrict, pos + 1, tuple, rows)?;
    }
    // Restore missing for cleanliness (callers clone-free backtracking).
    clear_candidate(plan, slot, tuple);
    Ok(())
}

/// Fill `tuple[slot]` (and its companions) from a candidate.
fn bind_candidate(plan: &Plan, slot: usize, cand: Candidate, tuple: &mut [Binding]) {
    let time = |t: Option<Timestamp>| t.map_or(Binding::Missing, |t| Binding::Val(Value::Time(t)));
    let value = |v: &Option<Value>| v.clone().map_or(Binding::Missing, Binding::Val);
    for (i, var) in plan.vars.iter().enumerate() {
        if let VarSource::Companion { of, role } = &var.source {
            if *of == slot {
                tuple[i] = match role {
                    CompanionRole::ArcTime => time(cand.arc_time),
                    CompanionRole::NodeTime => time(cand.node_time),
                    CompanionRole::OldValue => value(&cand.old_value),
                    CompanionRole::NewValue => value(&cand.new_value),
                };
            }
        }
    }
    tuple[slot] = cand.target;
}

fn clear_candidate(plan: &Plan, slot: usize, tuple: &mut [Binding]) {
    tuple[slot] = Binding::Missing;
    for (i, var) in plan.vars.iter().enumerate() {
        if let VarSource::Companion { of, .. } = &var.source {
            if *of == slot {
                tuple[i] = Binding::Missing;
            }
        }
    }
}

/// All candidates for a variable given the currently bound tuple.
fn candidates_for(
    source: &dyn DataSource,
    plan: &Plan,
    restrict: Restrict<'_>,
    slot: usize,
    tuple: &[Binding],
) -> Result<Vec<Candidate>> {
    match &plan.vars[slot].source {
        VarSource::Root => Ok(vec![Candidate::node(source.root())]),
        VarSource::Companion { .. } => Ok(Vec::new()), // bound by owner
        VarSource::Step { base, step, labels } => {
            let Binding::Node(b) = tuple[*base] else {
                return Ok(Vec::new()); // base missing or a value: no range
            };
            let allowed = restrict
                .and_then(|r| r.allow.iter().find(|(s, _)| *s == slot))
                .map(|(_, nodes)| nodes);
            let mut cands = step_candidates(source, plan, b, step, labels, tuple, allowed)?;
            if let Some(r) = restrict.filter(|r| r.slot == slot) {
                cands.retain(|c| {
                    r.keep
                        .keeps(b, step, labels, &c.target, c.arc_time, c.node_time)
                });
            }
            Ok(cands)
        }
    }
}

fn resolve_time_ref(plan: &Plan, t: &TimeRef, tuple: &[Binding]) -> Result<Timestamp> {
    match t {
        TimeRef::Literal(ts) => Ok(*ts),
        TimeRef::Var(name) => {
            let slot = plan
                .vars
                .iter()
                .position(|v| v.name == *name)
                .ok_or_else(|| LorelError::UnboundVariable(name.clone()))?;
            match &tuple[slot] {
                Binding::Val(Value::Time(ts)) => Ok(*ts),
                Binding::Val(Value::Str(s)) => s
                    .parse()
                    .map_err(|_| LorelError::UnboundVariable(name.clone())),
                _ => Err(LorelError::UnboundVariable(name.clone())),
            }
        }
    }
}

/// Append to the empty `found` the base and every node reachable from it
/// over arcs `labels` matches (minus those `skip` rejects), in BFS order,
/// each once.
fn closure(
    source: &dyn DataSource,
    base: NodeId,
    labels: &LabelSet,
    skip: &dyn Fn(Label) -> bool,
    found: &mut Vec<NodeId>,
) {
    // `found` is its own BFS queue: `next` is the node to expand.
    found.push(base);
    let mut seen: HashSet<NodeId> = [base].into();
    let mut next = 0;
    while let Some(&n) = found.get(next) {
        next += 1;
        source.arcs(n, labels, When::Now, &mut |l, c| {
            if !skip(l) && seen.insert(c) {
                found.push(c);
            }
        });
    }
}

/// The candidates of `step` from `base`; with `allowed`, only those whose
/// arc leads to a node in the set (filtered before the node annotation is
/// read, so siblings outside it cost one set lookup each).
fn step_candidates(
    source: &dyn DataSource,
    plan: &Plan,
    base: NodeId,
    step: &PathStep,
    labels: &LabelSet,
    tuple: &[Binding],
    allowed: Option<&BTreeSet<NodeId>>,
) -> Result<Vec<Candidate>> {
    // Unannotated wildcards skip what the source hides from them.
    let wildcard = matches!(step.label, LabelPattern::AnyLabel | LabelPattern::AnyPath);
    let skip = |l: Label| wildcard && source.hides_from_wildcards(l);
    let allows = |n: &NodeId| allowed.is_none_or(|a| a.contains(n));
    // 1. Arc traversal. The arcs are gathered light and the candidates
    // built once, at their final count.
    let cands: Vec<Candidate> = match &step.arc_annot {
        None => {
            let mut found = Vec::new();
            // `#` is any path of length >= 0, a Kleene closure zero or
            // more arcs whose labels match the pattern: BFS from the
            // base, inclusive. Otherwise one arc (`%*` too), in child
            // order.
            let closes = match step.label {
                LabelPattern::AnyPath => true,
                LabelPattern::AnyLabel => false,
                _ => step.star,
            };
            if closes {
                closure(source, base, labels, &skip, &mut found);
            } else {
                source.arcs(base, labels, When::Now, &mut |l, c| {
                    if !skip(l) {
                        found.push(c);
                    }
                });
            }
            found.retain(allows);
            found.into_iter().map(Candidate::node).collect()
        }
        Some(_) if step.label == LabelPattern::AnyPath => {
            return Err(LorelError::BadSelectItem(
                "arc annotation expressions on `#` are not supported".to_string(),
            ))
        }
        // Annotated arcs, in pattern order: an alternation is sorted by
        // rank, stably, so child order holds within each label. `%` with
        // an annotation is the Section 7 extension.
        Some(annot) => {
            let mut found = Vec::new();
            let mut keep = |l: Label, t: Option<Timestamp>, c: NodeId| {
                found.push((labels.rank(l), t, c));
            };
            match annot {
                ArcAnnotExpr::AtTime(tr) => {
                    let at = resolve_time_ref(plan, tr, tuple)?;
                    source.arcs(base, labels, When::At(at), &mut |l, c| keep(l, None, c));
                }
                ArcAnnotExpr::Add { .. } | ArcAnnotExpr::Rem { .. } => {
                    let change = match annot {
                        ArcAnnotExpr::Add { .. } => ArcChange::Add,
                        _ => ArcChange::Rem,
                    };
                    source.changed_arcs(base, labels, change, &mut |l, t, c| keep(l, Some(t), c));
                }
            }
            if matches!(labels, LabelSet::Named(ls) if ls.len() > 1) {
                found.sort_by_key(|&(rank, _, _)| rank);
            }
            found.retain(|(_, _, n)| allows(n));
            let arc = |(_, arc_time, n)| Candidate {
                arc_time,
                ..Candidate::node(n)
            };
            found.into_iter().map(arc).collect()
        }
    };
    let Some(na) = &step.node_annot else {
        return Ok(cands);
    };

    // 2. Node annotation filter/bind on each candidate (it may fan one
    // candidate into several).
    let mut out = Vec::new();
    for cand in cands {
        let Binding::Node(n) = cand.target else {
            continue;
        };
        let arc_part = || Candidate {
            arc_time: cand.arc_time,
            ..Candidate::node(n)
        };
        match na {
            NodeAnnotExpr::Cre { .. } => {
                if let Some(t) = source.created(n) {
                    out.push(Candidate {
                        node_time: Some(t),
                        ..arc_part()
                    });
                }
            }
            NodeAnnotExpr::Upd { .. } => source.updates(n, &mut |t, ov, nv| {
                out.push(Candidate {
                    node_time: Some(t),
                    old_value: Some(ov.clone()),
                    new_value: Some(nv.clone()),
                    ..arc_part()
                })
            }),
            NodeAnnotExpr::AtTime(tr) => {
                let at = resolve_time_ref(plan, tr, tuple)?;
                if let Some(v) = source.value(n, When::At(at)) {
                    out.push(Candidate {
                        target: Binding::Val(v.into_owned()),
                        ..arc_part()
                    });
                }
            }
        }
    }
    Ok(out)
}

/// The comparable value of an operand, borrowed where it lies.
fn operand_value<'a>(
    source: &'a dyn DataSource,
    op: &'a Operand,
    tuple: &'a [Binding],
) -> Option<Cow<'a, Value>> {
    match op {
        Operand::Slot(s) => match &tuple[*s] {
            Binding::Node(n) => source.value(*n, When::Now),
            Binding::Val(v) => Some(Cow::Borrowed(v)),
            Binding::Missing => None,
        },
        Operand::Const(lit) => Some(Cow::Borrowed(lit.value())),
    }
}

/// `lhs op rhs` under Lorel coercion; a literal side uses its plan-time
/// forms. Missing data makes the comparison false.
fn eval_cmp(
    source: &dyn DataSource,
    op: crate::ast::CmpOp,
    lhs: &Operand,
    rhs: &Operand,
    tuple: &[Binding],
) -> bool {
    // The slot's value ordered against the literal.
    let against = |slot: &Operand, lit: &Literal| {
        operand_value(source, slot, tuple).and_then(|v| lit.compare_from(&v))
    };
    match (lhs, rhs) {
        (Operand::Slot(_), Operand::Const(lit)) => holds(op, against(lhs, lit)),
        (Operand::Const(lit), Operand::Slot(_)) => {
            holds(op, against(rhs, lit).map(Ordering::reverse))
        }
        _ => match (
            operand_value(source, lhs, tuple),
            operand_value(source, rhs, tuple),
        ) {
            (Some(a), Some(b)) => coerce::compare(op, &a, &b),
            _ => false,
        },
    }
}

/// `expr like pattern`; a literal pattern is matched from its plan-time
/// chars.
fn eval_like(
    source: &dyn DataSource,
    expr: &Operand,
    pattern: &Operand,
    tuple: &[Binding],
) -> bool {
    let Some(v) = operand_value(source, expr, tuple) else {
        return false;
    };
    match pattern {
        Operand::Const(lit) => lit.like_from(&v),
        Operand::Slot(_) => {
            operand_value(source, pattern, tuple).is_some_and(|p| coerce::like(&v, &p))
        }
    }
}

fn eval_pred(
    source: &dyn DataSource,
    plan: &Plan,
    restrict: Restrict<'_>,
    pred: &Pred,
    tuple: &mut Vec<Binding>,
) -> Result<bool> {
    Ok(match pred {
        Pred::Const(b) => *b,
        Pred::Cmp { op, lhs, rhs } => eval_cmp(source, *op, lhs, rhs, tuple),
        Pred::Like { expr, pattern } => eval_like(source, expr, pattern, tuple),
        Pred::And(a, b) => {
            eval_pred(source, plan, restrict, a, tuple)?
                && eval_pred(source, plan, restrict, b, tuple)?
        }
        Pred::Or(a, b) => {
            eval_pred(source, plan, restrict, a, tuple)?
                || eval_pred(source, plan, restrict, b, tuple)?
        }
        Pred::Not(e) => !eval_pred(source, plan, restrict, e, tuple)?,
        Pred::ExistsSlot(s) => !matches!(tuple[*s], Binding::Missing),
        Pred::Exists { slots, pred } => {
            exists_eval(source, plan, restrict, slots, pred, tuple, 0)?
        }
    })
}

/// Evaluate `∃ slots : pred` by nested enumeration; an empty range
/// contributes the `Missing` binding once (so unrelated disjuncts can
/// still succeed while predicates on the missing variable are false).
fn exists_eval(
    source: &dyn DataSource,
    plan: &Plan,
    restrict: Restrict<'_>,
    slots: &[usize],
    pred: &Pred,
    tuple: &mut Vec<Binding>,
    idx: usize,
) -> Result<bool> {
    // Skip companion slots (bound by their owner).
    let next = slots[idx..]
        .iter()
        .copied()
        .find(|&s| !matches!(plan.vars[s].source, VarSource::Companion { .. }));
    let Some(slot) = next else {
        return eval_pred(source, plan, restrict, pred, tuple);
    };
    let pos = slots.iter().position(|&s| s == slot).expect("slot in slots") + 1;

    let candidates = candidates_for(source, plan, restrict, slot, tuple)?;
    if candidates.is_empty() {
        tuple[slot] = Binding::Missing;
        let r = exists_eval(source, plan, restrict, slots, pred, tuple, pos)?;
        clear_candidate(plan, slot, tuple);
        return Ok(r);
    }
    for cand in candidates {
        bind_candidate(plan, slot, cand, tuple);
        if exists_eval(source, plan, restrict, slots, pred, tuple, pos)? {
            clear_candidate(plan, slot, tuple);
            return Ok(true);
        }
    }
    clear_candidate(plan, slot, tuple);
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::plan;
    use oem::guide::{guide_figure3, ids};

    fn run(src: &str) -> Rows {
        let db = guide_figure3();
        let q = parse_query(src).unwrap();
        let p = plan(&q, db.name()).unwrap();
        execute(&db, &p).unwrap()
    }

    #[test]
    fn example_4_1_returns_bangkok_cuisine_only() {
        // Figure 3 data: Bangkok's price is now 20, still < 20.5; Janta's
        // "moderate" fails coercion; Hakata has no price.
        let rows = run("select guide.restaurant where guide.restaurant.price < 20.5");
        assert_eq!(rows.rows.len(), 1);
        assert_eq!(rows.rows[0].cols[0].1, Binding::Node(ids::BANGKOK));
        assert_eq!(rows.rows[0].cols[0].0, "restaurant");
    }

    #[test]
    fn existence_filtering_drops_rows_without_bindings() {
        // Only restaurants *with* a name containing "a" — all three here.
        let rows = run("select guide.restaurant where guide.restaurant.name like \"%a%\"");
        assert_eq!(rows.rows.len(), 3);
    }

    #[test]
    fn missing_subobjects_fail_comparisons_but_not_disjunctions() {
        // Hakata has no price; the or-branch on name still admits it.
        let rows = run(
            "select guide.restaurant \
             where guide.restaurant.price < 20.5 or guide.restaurant.name = \"Hakata\"",
        );
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn negation_over_missing_data() {
        // not(price < 20.5): Janta qualifies ("moderate" fails coercion →
        // comparison false → negation true) and so does Hakata (missing).
        let rows = run("select guide.restaurant where not guide.restaurant.price < 20.5");
        assert_eq!(rows.rows.len(), 2);
        assert!(rows
            .rows
            .iter()
            .all(|r| r.cols[0].1 != Binding::Node(ids::BANGKOK)));
    }

    #[test]
    fn multi_step_paths_join_correctly() {
        let rows = run(
            "select guide.restaurant.name \
             where guide.restaurant.address.street = \"Lytton\"",
        );
        assert_eq!(rows.rows.len(), 1);
        let Binding::Node(n) = rows.rows[0].cols[0].1 else {
            panic!()
        };
        let db = guide_figure3();
        assert_eq!(db.value(n).unwrap(), &Value::str("Bangkok Cuisine"));
    }

    #[test]
    fn hash_wildcard_reaches_deep_values() {
        let rows = run(
            "select guide.restaurant \
             where guide.restaurant.address.# like \"%Lytton%\"",
        );
        // Janta's address IS "120 Lytton" (the # matches the empty path);
        // Bangkok's address.street is "Lytton".
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn percent_wildcard_is_one_arc() {
        let rows = run("select guide.restaurant where guide.restaurant.% = \"Indian\"");
        assert_eq!(rows.rows.len(), 1); // Janta's cuisine
        assert_eq!(rows.rows[0].cols[0].1, Binding::Node(ids::N6));
    }

    #[test]
    fn rows_deduplicate() {
        // Both of Janta's and Bangkok's parking arcs reach n7; selecting
        // the parking object must yield it once per distinct binding.
        let rows = run("select guide.restaurant.parking");
        assert_eq!(rows.rows.len(), 1);
    }

    #[test]
    fn annotated_steps_over_plain_oem_match_nothing() {
        // Figure 3 is a plain OEM database: no annotations anywhere.
        let rows = run("select guide.<add>restaurant");
        assert!(rows.rows.is_empty());
        let rows = run("select guide.restaurant.price<upd at T to NV>");
        assert!(rows.rows.is_empty());
    }

    #[test]
    fn select_multiple_columns() {
        let rows = run("select guide.restaurant.name, guide.restaurant.price");
        // name×price per shared restaurant prefix: Bangkok(name,20),
        // Janta(name,"moderate"); Hakata has no price → no row.
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0].cols.len(), 2);
        assert_eq!(rows.rows[0].cols[0].0, "name");
        assert_eq!(rows.rows[0].cols[1].0, "price");
    }

    #[test]
    fn explicit_exists_works() {
        let rows = run(
            "select R from guide.restaurant R \
             where exists P in R.price : P = \"moderate\"",
        );
        assert_eq!(rows.rows.len(), 1);
        assert_eq!(rows.rows[0].cols[0].1, Binding::Node(ids::N6));
    }

    #[test]
    fn label_alternation_matches_either_label() {
        // price is an int for Bangkok, a string for Janta; cuisine only
        // exists for Janta. (price|cuisine) ranges over all of them.
        let rows = run("select guide.restaurant.(price|cuisine)");
        assert_eq!(rows.rows.len(), 3);
        let rows = run(
            "select R from guide.restaurant R where R.(price|cuisine) = \"Indian\"",
        );
        assert_eq!(rows.rows.len(), 1);
        assert_eq!(rows.rows[0].cols[0].1, Binding::Node(ids::N6));
    }

    #[test]
    fn kleene_star_closes_over_one_label() {
        // nearby-eats* from a restaurant: the restaurant itself (0 steps)
        // plus anything reachable by nearby-eats arcs.
        let db = guide_figure3();
        let q = crate::parser::parse_query(
            "select P.nearby-eats*.name from guide.restaurant.parking P",
        )
        .unwrap();
        let p = plan(&q, db.name()).unwrap();
        let rows = execute(&db, &p).unwrap();
        // parking n7 --nearby-eats--> Bangkok; n7 itself has a name too.
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn star_with_alternation_closes_over_both() {
        // (parking|nearby-eats)* from Bangkok reaches Bangkok, n7 (via
        // parking), and back — the full cycle, each node once.
        let db = guide_figure3();
        let q = crate::parser::parse_query(
            "select R.(parking|nearby-eats)* from guide.restaurant R where R.name = \"Bangkok Cuisine\"",
        )
        .unwrap();
        let p = plan(&q, db.name()).unwrap();
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows.rows.len(), 2); // Bangkok itself + n7
    }

    #[test]
    fn cycles_do_not_hang_hash_wildcards() {
        // guide.# traverses the parking/nearby-eats cycle.
        let rows = run("select guide.#");
        let db = guide_figure3();
        assert_eq!(rows.rows.len(), db.node_count());
    }
}
