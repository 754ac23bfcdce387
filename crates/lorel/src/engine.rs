//! Plan execution: nested-loop enumeration of outer variables, existential
//! evaluation of inner variables, coercing predicate evaluation.

use crate::ast::{ArcAnnotExpr, LabelPattern, NodeAnnotExpr, PathStep, TimeRef};
use crate::coerce;
use crate::delta::SlotRestrict;
use crate::error::{LorelError, Result};
use crate::plan::{CompanionRole, Operand, Plan, Pred, VarSource};
use crate::source::DataSource;
use oem::{Label, NodeId, Timestamp, Value};
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
    let mut seen = HashSet::with_capacity(rows.len());
    rows.retain(|r| seen.insert(r.clone()));
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
                        Operand::Const(v) => Binding::Val(v.clone()),
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
        bind_candidate(plan, slot, &cand, tuple);
        enumerate_outer(source, plan, restrict, pos + 1, tuple, rows)?;
    }
    // Restore missing for cleanliness (callers clone-free backtracking).
    clear_candidate(plan, slot, tuple);
    Ok(())
}

/// Fill `tuple[slot]` (and its companions) from a candidate.
fn bind_candidate(plan: &Plan, slot: usize, cand: &Candidate, tuple: &mut [Binding]) {
    tuple[slot] = cand.target.clone();
    for (i, var) in plan.vars.iter().enumerate() {
        if let VarSource::Companion { of, role } = &var.source {
            if *of == slot {
                tuple[i] = match role {
                    CompanionRole::ArcTime => cand
                        .arc_time
                        .map(|t| Binding::Val(Value::Time(t)))
                        .unwrap_or(Binding::Missing),
                    CompanionRole::NodeTime => cand
                        .node_time
                        .map(|t| Binding::Val(Value::Time(t)))
                        .unwrap_or(Binding::Missing),
                    CompanionRole::OldValue => cand
                        .old_value
                        .clone()
                        .map(Binding::Val)
                        .unwrap_or(Binding::Missing),
                    CompanionRole::NewValue => cand
                        .new_value
                        .clone()
                        .map(Binding::Val)
                        .unwrap_or(Binding::Missing),
                };
            }
        }
    }
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
        VarSource::Step { base, step } => {
            let Binding::Node(b) = tuple[*base] else {
                return Ok(Vec::new()); // base missing or a value: no range
            };
            let allowed = restrict
                .and_then(|r| r.allow.iter().find(|(s, _)| *s == slot))
                .map(|(_, nodes)| nodes);
            let mut cands = step_candidates(source, plan, b, step, tuple, allowed)?;
            if let Some(r) = restrict.filter(|r| r.slot == slot) {
                cands.retain(|c| r.keep.keeps(b, step, &c.target, c.arc_time, c.node_time));
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

/// The candidates of `step` from `base`; with `allowed`, only those whose
/// arc leads to a node in the set (filtered before the node annotation is
/// read, so siblings outside it cost one set lookup each).
fn step_candidates(
    source: &dyn DataSource,
    plan: &Plan,
    base: NodeId,
    step: &PathStep,
    tuple: &[Binding],
    allowed: Option<&BTreeSet<NodeId>>,
) -> Result<Vec<Candidate>> {
    // 1. Arc traversal.
    let mut cands: Vec<Candidate> = match (&step.arc_annot, &step.label) {
        (None, LabelPattern::Label(_) | LabelPattern::Alternation(_))
            if step.star =>
        {
            // Kleene closure: zero or more arcs whose labels match the
            // pattern, BFS from the base (inclusive).
            let matches = |l: Label| pattern_matches(&step.label, l);
            let mut order = vec![base];
            let mut seen: std::collections::HashSet<NodeId> = [base].into();
            let mut queue = std::collections::VecDeque::from([base]);
            while let Some(n) = queue.pop_front() {
                for (l, c) in source.children(n) {
                    if matches(l) && seen.insert(c) {
                        order.push(c);
                        queue.push_back(c);
                    }
                }
            }
            order.into_iter().map(Candidate::node).collect()
        }
        (None, LabelPattern::Label(l)) => source
            .children_labeled(base, Label::new(l))
            .into_iter()
            .map(Candidate::node)
            .collect(),
        (None, LabelPattern::Alternation(ls)) => {
            // One arc with any of the listed labels, in child order.
            source
                .children(base)
                .into_iter()
                .filter(|(l, _)| ls.iter().any(|cand| l.as_str() == cand))
                .map(|(_, c)| Candidate::node(c))
                .collect()
        }
        (None, LabelPattern::AnyLabel) => source
            .wildcard_children(base)
            .into_iter()
            .map(|(_, c)| Candidate::node(c))
            .collect(),
        (None, LabelPattern::AnyPath) => {
            // `#`: any path of length >= 0 — the reachable closure
            // including the base itself, in BFS order.
            let mut order = vec![base];
            let mut seen: std::collections::HashSet<NodeId> = [base].into();
            let mut queue = std::collections::VecDeque::from([base]);
            while let Some(n) = queue.pop_front() {
                for (_, c) in source.wildcard_children(n) {
                    if seen.insert(c) {
                        order.push(c);
                        queue.push_back(c);
                    }
                }
            }
            order.into_iter().map(Candidate::node).collect()
        }
        (Some(annot), LabelPattern::Alternation(ls)) => {
            let mut out = Vec::new();
            for l in ls {
                let label = Label::new(l);
                match annot {
                    ArcAnnotExpr::Add { .. } => {
                        out.extend(source.add_fun(base, label).into_iter().map(|(t, c)| {
                            Candidate {
                                target: Binding::Node(c),
                                arc_time: Some(t),
                                node_time: None,
                                old_value: None,
                                new_value: None,
                            }
                        }));
                    }
                    ArcAnnotExpr::Rem { .. } => {
                        out.extend(source.rem_fun(base, label).into_iter().map(|(t, c)| {
                            Candidate {
                                target: Binding::Node(c),
                                arc_time: Some(t),
                                node_time: None,
                                old_value: None,
                                new_value: None,
                            }
                        }));
                    }
                    ArcAnnotExpr::AtTime(tr) => {
                        let at = resolve_time_ref(plan, tr, tuple)?;
                        out.extend(
                            source
                                .children_labeled_at(base, label, at)
                                .into_iter()
                                .map(Candidate::node),
                        );
                    }
                }
            }
            out
        }
        (Some(annot), LabelPattern::Label(l)) => {
            let label = Label::new(l);
            match annot {
                ArcAnnotExpr::Add { .. } => source
                    .add_fun(base, label)
                    .into_iter()
                    .map(|(t, c)| Candidate {
                        target: Binding::Node(c),
                        arc_time: Some(t),
                        node_time: None,
                        old_value: None,
                        new_value: None,
                    })
                    .collect(),
                ArcAnnotExpr::Rem { .. } => source
                    .rem_fun(base, label)
                    .into_iter()
                    .map(|(t, c)| Candidate {
                        target: Binding::Node(c),
                        arc_time: Some(t),
                        node_time: None,
                        old_value: None,
                        new_value: None,
                    })
                    .collect(),
                ArcAnnotExpr::AtTime(tr) => {
                    let at = resolve_time_ref(plan, tr, tuple)?;
                    source
                        .children_labeled_at(base, label, at)
                        .into_iter()
                        .map(Candidate::node)
                        .collect()
                }
            }
        }
        // Section 7 extension: arc annotations on the `%` wildcard range
        // over every label's annotated arcs.
        (Some(annot), LabelPattern::AnyLabel) => match annot {
            ArcAnnotExpr::Add { .. } => source
                .add_fun_any(base)
                .into_iter()
                .map(|(_, t, c)| Candidate {
                    target: Binding::Node(c),
                    arc_time: Some(t),
                    node_time: None,
                    old_value: None,
                    new_value: None,
                })
                .collect(),
            ArcAnnotExpr::Rem { .. } => source
                .rem_fun_any(base)
                .into_iter()
                .map(|(_, t, c)| Candidate {
                    target: Binding::Node(c),
                    arc_time: Some(t),
                    node_time: None,
                    old_value: None,
                    new_value: None,
                })
                .collect(),
            ArcAnnotExpr::AtTime(tr) => {
                let at = resolve_time_ref(plan, tr, tuple)?;
                source
                    .children_at(base, at)
                    .into_iter()
                    .map(|(_, c)| Candidate::node(c))
                    .collect()
            }
        },
        (Some(_), LabelPattern::AnyPath) => {
            return Err(LorelError::BadSelectItem(
                "arc annotation expressions on `#` are not supported".to_string(),
            ))
        }
    };

    if let Some(allowed) = allowed {
        cands.retain(|c| matches!(c.target, Binding::Node(n) if allowed.contains(&n)));
    }

    // 2. Node annotation filter/bind on each candidate.
    if let Some(na) = &step.node_annot {
        let mut out = Vec::new();
        for cand in cands {
            let Binding::Node(n) = cand.target else {
                continue;
            };
            match na {
                NodeAnnotExpr::Cre { .. } => {
                    for t in source.cre_fun(n) {
                        out.push(Candidate {
                            target: Binding::Node(n),
                            node_time: Some(t),
                            ..copy_arc_part(&cand)
                        });
                    }
                }
                NodeAnnotExpr::Upd { .. } => {
                    for (t, ov, nv) in source.upd_fun(n) {
                        out.push(Candidate {
                            target: Binding::Node(n),
                            node_time: Some(t),
                            old_value: Some(ov),
                            new_value: Some(nv),
                            ..copy_arc_part(&cand)
                        });
                    }
                }
                NodeAnnotExpr::AtTime(tr) => {
                    let at = resolve_time_ref(plan, tr, tuple)?;
                    if let Some(v) = source.value_at(n, at) {
                        out.push(Candidate {
                            target: Binding::Val(v),
                            ..copy_arc_part(&cand)
                        });
                    }
                }
            }
        }
        cands = out;
    }
    Ok(cands)
}

/// Does a concrete arc label satisfy a label pattern?
pub(crate) fn pattern_matches(pattern: &LabelPattern, l: Label) -> bool {
    match pattern {
        LabelPattern::Label(want) => l.as_str() == want,
        LabelPattern::Alternation(ls) => ls.iter().any(|w| l.as_str() == w),
        LabelPattern::AnyLabel | LabelPattern::AnyPath => true,
    }
}

/// Clone the arc-level parts of a candidate (used when the node annotation
/// fans one candidate into several).
fn copy_arc_part(c: &Candidate) -> Candidate {
    Candidate {
        target: Binding::Missing,
        arc_time: c.arc_time,
        node_time: None,
        old_value: None,
        new_value: None,
    }
}

/// The comparable value of a binding, if any.
fn binding_value(source: &dyn DataSource, b: &Binding) -> Option<Value> {
    match b {
        Binding::Node(n) => source.value(*n),
        Binding::Val(v) => Some(v.clone()),
        Binding::Missing => None,
    }
}

fn operand_value(
    source: &dyn DataSource,
    op: &Operand,
    tuple: &[Binding],
) -> Option<Value> {
    match op {
        Operand::Slot(s) => binding_value(source, &tuple[*s]),
        Operand::Const(v) => Some(v.clone()),
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
        Pred::Cmp { op, lhs, rhs } => {
            let (Some(a), Some(b)) = (
                operand_value(source, lhs, tuple),
                operand_value(source, rhs, tuple),
            ) else {
                return Ok(false); // missing data: comparison is false
            };
            coerce::compare(*op, &a, &b)
        }
        Pred::Like { expr, pattern } => {
            let (Some(v), Some(p)) = (
                operand_value(source, expr, tuple),
                operand_value(source, pattern, tuple),
            ) else {
                return Ok(false);
            };
            coerce::like(&v, &p)
        }
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
        bind_candidate(plan, slot, &cand, tuple);
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
