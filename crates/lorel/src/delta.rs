//! Semi-naive delta evaluation over the monotonic query fragment.
//!
//! Given a query plan `Q` with step constraints `c_1 … c_n` and a change
//! set `Δ` just applied to the database, the semi-naive rewrite evaluates
//! one *variant* per constraint — variant `i` restricts `c_i`'s candidates
//! to bindings the change set introduced while every other constraint sees
//! the full (post-change) database — and unions the variants with the
//! prior result:
//!
//! ```text
//! Q(D ∪ Δ)  =  Q(D)  ∪  ⋃ᵢ Q[c_i ↦ c_i ∩ Δ](D ∪ Δ)
//! ```
//!
//! The identity holds exactly on the **monotonic fragment**: every new row
//! must use at least one delta-introduced binding, so it shows up in at
//! least one variant (completeness), and every variant row is a genuine
//! row of the full query because restriction only ever *removes*
//! candidates (soundness). Queries outside the fragment — where rows can
//! *disappear* — are detected by [`delta_supported`] and must fall back to
//! full re-evaluation; the boundary is documented on
//! [`DeltaUnsupported`] and in `DESIGN.md` §11.
//!
//! Each variant is **seeded from the change set**: the nodes at which
//! the restricted constraint can bind something new are read off `Δ`
//! (parents of its added/removed arcs, [`DataSource::parents`] of its
//! created/updated nodes), and walking [`DataSource::parents`] from them
//! to the root — filtered by each step's label pattern — yields one
//! allow-set per slot on the constraint's base chain. The forward
//! enumeration keeps only allowed candidates at those slots, and a
//! variant whose walk dies out before the root is skipped without
//! enumerating. Allow-sets hold every ancestor a delta binding could
//! have, so they drop only candidates that cannot lead to one: the
//! identity above is untouched, and a variant costs
//! O(|Δ| × depth × fan-out along one root path) wherever its constraint
//! sits in the enumeration order (`DESIGN.md` §11.1).
//!
//! # Example
//!
//! ```
//! use lorel::{delta_execute, delta_supported, plan, parse_query, DeltaSpec};
//! use oem::{guide, ChangeOp, ChangeSet, Value};
//!
//! // Figure 3's guide plus one new restaurant, applied as a change set.
//! let mut db = guide::guide_figure3();
//! let (r, n) = (db.alloc_id(), db.alloc_id());
//! let delta = ChangeSet::from_ops([
//!     ChangeOp::CreNode(r, Value::Complex),
//!     ChangeOp::CreNode(n, Value::str("Thai Spice")),
//!     ChangeOp::add_arc(db.root(), "restaurant", r),
//!     ChangeOp::add_arc(r, "name", n),
//! ])
//! .unwrap();
//! let at = "9Jan97".parse().unwrap();
//! delta.apply_to(&mut db).unwrap();
//!
//! let q = parse_query("select guide.restaurant.name").unwrap();
//! let p = plan(&q, db.name()).unwrap();
//! assert!(delta_supported(&p, &DeltaSpec::new(&delta, at)).is_ok());
//!
//! // The delta variants surface exactly the new binding.
//! let rows = delta_execute(&db, &p, &DeltaSpec::new(&delta, at)).unwrap();
//! assert_eq!(rows.rows.len(), 1);
//! ```

use crate::ast::{ArcAnnotExpr, CmpOp, LabelPattern, NodeAnnotExpr, PathStep};
use crate::engine::{dedup_rows, execute_restricted, Binding, Restriction, Row, Rows};
use crate::error::Result;
use crate::plan::{CompanionRole, LabelSet, Operand, Plan, Pred, VarSource};
use crate::source::DataSource;
use oem::{ArcTriple, ChangeSet, NodeId, Timestamp};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// The delta-restriction view of one applied [`ChangeSet`]: which nodes
/// and arcs it touched, plus the single timestamp the application carried
/// (every annotation the change created bears this timestamp, which is
/// what lets annotated constraints be restricted by time equality).
#[derive(Clone, Debug)]
pub struct DeltaSpec {
    created: HashSet<NodeId>,
    updated: HashSet<NodeId>,
    added: HashSet<ArcTriple>,
    removed: HashSet<ArcTriple>,
    at: Timestamp,
}

impl DeltaSpec {
    /// Capture `change` as applied at time `at`.
    pub fn new(change: &ChangeSet, at: Timestamp) -> DeltaSpec {
        DeltaSpec {
            created: change.created_nodes().clone(),
            updated: change.updated_nodes().clone(),
            added: change.added_arcs().clone(),
            removed: change.removed_arcs().clone(),
            at,
        }
    }

    /// The application timestamp.
    pub fn at(&self) -> Timestamp {
        self.at
    }

    /// `true` iff the spec covers no operations at all.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty()
            && self.updated.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
    }
}

/// Why a plan (against a particular delta) is outside the monotonic
/// fragment and must fall back to full re-evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaUnsupported {
    /// The plan has a Kleene-star or `#` step: one new arc can make old
    /// arcs reachable, so restricting the closure constraint alone is
    /// incomplete.
    ClosureStep,
    /// The plan has a virtual `<at τ>` annotation: historical snapshots
    /// are re-derived per evaluation and a `remArc` can shrink them.
    VirtualAnnotation,
    /// The `where` clause contains `not`: a delta-introduced binding can
    /// falsify a negated subformula and *remove* rows.
    Negation,
    /// The delta removes arcs and the plan walks current (unannotated)
    /// arcs, whose candidate sets shrink.
    RemovedArcs,
    /// The delta updates node values and the plan reads current values in
    /// a predicate, which can flip rows off.
    UpdatedValues,
}

impl fmt::Display for DeltaUnsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeltaUnsupported::ClosureStep => "closure step (`*`/`#`) in plan",
            DeltaUnsupported::VirtualAnnotation => "virtual `<at>` annotation in plan",
            DeltaUnsupported::Negation => "`not` in where clause",
            DeltaUnsupported::RemovedArcs => "delta removes arcs walked by the plan",
            DeltaUnsupported::UpdatedValues => "delta updates values read by the plan",
        })
    }
}

/// How a restricted slot's candidates are filtered during enumeration.
pub(crate) enum SlotRestrict<'a> {
    /// Keep candidates the change set introduced (semi-naive variants).
    Delta(&'a DeltaSpec),
    /// Keep candidates whose annotation timestamp (for `role`) is ≥ `at`
    /// (or > when `strict`) — the anchored-conjunct fast path.
    Since {
        /// Anchor timestamp.
        at: Timestamp,
        /// `>` vs `≥`.
        strict: bool,
        /// Which companion timestamp the anchor constrains.
        role: CompanionRole,
    },
}

impl SlotRestrict<'_> {
    /// Does `cand` survive the restriction for a step `step` (whose
    /// resolved labels are `labels`) from `base`?
    pub(crate) fn keeps(
        &self,
        base: NodeId,
        step: &PathStep,
        labels: &LabelSet,
        target: &Binding,
        arc_time: Option<Timestamp>,
        node_time: Option<Timestamp>,
    ) -> bool {
        match self {
            SlotRestrict::Since { at, strict, role } => {
                let t = match role {
                    CompanionRole::ArcTime => arc_time,
                    CompanionRole::NodeTime => node_time,
                    _ => None,
                };
                t.is_some_and(|t| if *strict { t > *at } else { t >= *at })
            }
            SlotRestrict::Delta(spec) => {
                // Annotated parts: every annotation the delta created
                // carries the application timestamp. (Equality may also
                // admit pre-existing same-instant annotations; that only
                // over-approximates, which the union absorbs.)
                let arc_new = match &step.arc_annot {
                    Some(ArcAnnotExpr::Add { .. }) | Some(ArcAnnotExpr::Rem { .. }) => {
                        arc_time == Some(spec.at)
                    }
                    Some(ArcAnnotExpr::AtTime(_)) => false, // gated out
                    None => {
                        // A current arc is delta-introduced iff the change
                        // set added it.
                        let Binding::Node(c) = target else {
                            return false;
                        };
                        match labels {
                            LabelSet::Named(ls) => ls
                                .iter()
                                .any(|&l| spec.added.contains(&ArcTriple::new(base, l, *c))),
                            LabelSet::Any => {
                                spec.added.iter().any(|a| a.parent == base && a.child == *c)
                            }
                        }
                    }
                };
                let node_new = match &step.node_annot {
                    Some(NodeAnnotExpr::Cre { .. }) | Some(NodeAnnotExpr::Upd { .. }) => {
                        node_time == Some(spec.at)
                    }
                    _ => false,
                };
                arc_new || node_new
            }
        }
    }
}

/// Check that `plan` × `spec` sits inside the monotonic fragment, i.e.
/// that [`delta_execute`]'s union identity is exact.
pub fn delta_supported(plan: &Plan, spec: &DeltaSpec) -> std::result::Result<(), DeltaUnsupported> {
    let mut has_plain_arc = false;
    for var in &plan.vars {
        if let VarSource::Step { step, .. } = &var.source {
            if step.star || matches!(step.label, LabelPattern::AnyPath) {
                return Err(DeltaUnsupported::ClosureStep);
            }
            if matches!(step.arc_annot, Some(ArcAnnotExpr::AtTime(_)))
                || matches!(step.node_annot, Some(NodeAnnotExpr::AtTime(_)))
            {
                return Err(DeltaUnsupported::VirtualAnnotation);
            }
            if step.arc_annot.is_none() {
                has_plain_arc = true;
            }
        }
    }
    if let Some(p) = &plan.where_pred {
        if pred_has_not(p) {
            return Err(DeltaUnsupported::Negation);
        }
        if !spec.updated.is_empty() && pred_reads_value(plan, p) {
            return Err(DeltaUnsupported::UpdatedValues);
        }
    }
    if !spec.removed.is_empty() && has_plain_arc {
        return Err(DeltaUnsupported::RemovedArcs);
    }
    Ok(())
}

fn pred_has_not(p: &Pred) -> bool {
    match p {
        Pred::Not(_) => true,
        Pred::And(a, b) | Pred::Or(a, b) => pred_has_not(a) || pred_has_not(b),
        Pred::Exists { pred, .. } => pred_has_not(pred),
        Pred::Cmp { .. } | Pred::Like { .. } | Pred::ExistsSlot(_) | Pred::Const(_) => false,
    }
}

/// Does the predicate read a *current* (mutable) value — i.e. compare a
/// non-companion slot, whose comparable value goes through
/// `DataSource::value` and changes under `updNode`?
fn pred_reads_value(plan: &Plan, p: &Pred) -> bool {
    let op_reads = |op: &Operand| match op {
        Operand::Slot(s) => !matches!(plan.vars[*s].source, VarSource::Companion { .. }),
        Operand::Const(_) => false,
    };
    match p {
        Pred::Cmp { lhs, rhs, .. } => op_reads(lhs) || op_reads(rhs),
        Pred::Like { expr, pattern } => op_reads(expr) || op_reads(pattern),
        Pred::And(a, b) | Pred::Or(a, b) => {
            pred_reads_value(plan, a) || pred_reads_value(plan, b)
        }
        Pred::Not(e) => pred_reads_value(plan, e),
        Pred::Exists { pred, .. } => pred_reads_value(plan, pred),
        Pred::ExistsSlot(_) | Pred::Const(_) => false,
    }
}

/// Can variant `slot` produce anything at all for this delta? A cheap
/// label-level test — this is what bounds a no-op tick at zero evaluation
/// and lets one delta pass answer many subscriptions: constraints whose
/// labels the delta never touches are skipped without enumeration.
fn variant_relevant(step: &PathStep, labels: &LabelSet, spec: &DeltaSpec) -> bool {
    let arc_relevant = match &step.arc_annot {
        Some(ArcAnnotExpr::Add { .. }) => !spec.added.is_empty(),
        Some(ArcAnnotExpr::Rem { .. }) => !spec.removed.is_empty(),
        Some(ArcAnnotExpr::AtTime(_)) => false,
        None => spec.added.iter().any(|a| labels.matches(a.label)),
    };
    let node_relevant = match &step.node_annot {
        Some(NodeAnnotExpr::Cre { .. }) => !spec.created.is_empty(),
        Some(NodeAnnotExpr::Upd { .. }) => !spec.updated.is_empty(),
        _ => false,
    };
    arc_relevant || node_relevant
}

/// Allow-sets for one variant's restricted slot and the slots on its base
/// chain, as [`Restriction::allow`] takes them. Empty means "enumerate
/// unpruned". (Ordered sets: they hold a handful of nodes and are probed
/// once per sibling of an allowed node, where hashing would dominate.)
type AllowSets = Vec<(usize, BTreeSet<NodeId>)>;

/// What `spec` lets `step` bind anew (see [`SlotRestrict::keeps`]), as
/// `(bases, targets)`: the matching arcs the change set added or removed
/// give their parents and children; the nodes it created or updated are
/// targets themselves, and their parents through a matching label are
/// bases. `None` when the source cannot name parents.
fn delta_bindings(
    source: &dyn DataSource,
    step: &PathStep,
    labels: &LabelSet,
    spec: &DeltaSpec,
) -> Option<(BTreeSet<NodeId>, BTreeSet<NodeId>)> {
    let arcs = match &step.arc_annot {
        None | Some(ArcAnnotExpr::Add { .. }) => Some(&spec.added),
        Some(ArcAnnotExpr::Rem { .. }) => Some(&spec.removed),
        Some(ArcAnnotExpr::AtTime(_)) => None,
    };
    let (mut bases, mut targets): (BTreeSet<NodeId>, BTreeSet<NodeId>) = arcs
        .into_iter()
        .flatten()
        .filter(|a| labels.matches(a.label))
        .map(|a| (a.parent, a.child))
        .unzip();
    let nodes = match &step.node_annot {
        Some(NodeAnnotExpr::Cre { .. }) => &spec.created,
        Some(NodeAnnotExpr::Upd { .. }) => &spec.updated,
        _ => return Some((bases, targets)),
    };
    for &n in nodes {
        let mut through = parents_through(source.parents(n)?, labels).peekable();
        if through.peek().is_some() {
            targets.insert(n);
        }
        bases.extend(through);
    }
    Some((bases, targets))
}

/// The parents among `arcs` (as [`DataSource::parents`] lists them) whose
/// arc label is one of `labels`.
fn parents_through(
    arcs: Vec<(oem::Label, NodeId)>,
    labels: &LabelSet,
) -> impl Iterator<Item = NodeId> + '_ {
    arcs.into_iter()
        .filter(move |(l, _)| labels.matches(*l))
        .map(|(_, p)| p)
}

/// Seed variant `slot` from the change set: `None` when the variant provably yields nothing — the label-level
/// test fails, or no delta binding has a path of matching labels down
/// from the root — otherwise the allow-sets of `slot` and of the slots
/// between it and the root. Where the source cannot name parents, or the
/// chain crosses a closure step (whose bindings are not one arc from
/// their base), the sets gathered so far are returned: each is valid on
/// its own.
fn seed_variant(
    source: &dyn DataSource,
    plan: &Plan,
    slot: usize,
    spec: &DeltaSpec,
) -> Option<AllowSets> {
    let closure = |step: &PathStep| step.star || matches!(step.label, LabelPattern::AnyPath);
    let VarSource::Step { base, step, labels } = &plan.vars[slot].source else {
        return None;
    };
    if !variant_relevant(step, labels, spec) {
        return None;
    }
    let mut allow = AllowSets::new();
    if closure(step) {
        return Some(allow);
    }
    let Some((mut frontier, targets)) = delta_bindings(source, step, labels, spec) else {
        return Some(allow);
    };
    // A virtual node annotation binds values, which no node set admits.
    if !matches!(step.node_annot, Some(NodeAnnotExpr::AtTime(_))) {
        allow.push((slot, targets));
    }
    let mut at = *base;
    loop {
        if frontier.is_empty() {
            return None;
        }
        let (up, step, labels) = match &plan.vars[at].source {
            VarSource::Root => return frontier.contains(&source.root()).then_some(allow),
            VarSource::Companion { .. } => return Some(allow),
            VarSource::Step { base, step, labels } => (*base, step, labels),
        };
        if closure(step) {
            return Some(allow);
        }
        let mut above = BTreeSet::new();
        for &n in &frontier {
            let Some(parents) = source.parents(n) else {
                return Some(allow);
            };
            above.extend(parents_through(parents, labels));
        }
        allow.push((at, frontier));
        frontier = above;
        at = up;
    }
}

/// Does this delta touch `plan` at all? `false` means every variant is
/// label-irrelevant: the maintained result is exactly the prior result
/// and [`delta_execute`] would return no rows without enumerating.
pub fn delta_touches(plan: &Plan, spec: &DeltaSpec) -> bool {
    plan.vars.iter().any(|v| match &v.source {
        VarSource::Step { step, labels, .. } => variant_relevant(step, labels, spec),
        _ => false,
    })
}

/// Evaluate the semi-naive variants of `plan` for `spec`: one run per
/// step constraint the delta can reach, each seeded from the change set
/// and with that constraint's candidates restricted to delta-introduced
/// bindings, unioned and deduplicated. The caller unions the result with
/// the prior rows ([`delta_fresh`] leaves exactly what to add). Callers
/// must check [`delta_supported`] first; on unsupported plans the union
/// identity does not hold.
pub fn delta_execute(source: &dyn DataSource, plan: &Plan, spec: &DeltaSpec) -> Result<Rows> {
    let keep = SlotRestrict::Delta(spec);
    let mut out: Vec<Row> = Vec::new();
    for slot in 0..plan.vars.len() {
        let Some(allow) = seed_variant(source, plan, slot, spec) else {
            continue;
        };
        let restriction = Restriction {
            slot,
            keep: &keep,
            allow: &allow,
        };
        let variant = execute_restricted(source, plan, Some(&restriction))?;
        out.extend(variant.rows);
    }
    dedup_rows(&mut out);
    Ok(Rows { rows: out })
}

/// The rows a change set adds to a prior result: the delta variants
/// minus what `prior` already holds, in variant order. Empty means the
/// maintained result *is* the prior result. Returns `None` when the
/// plan × delta is outside the monotonic fragment (caller re-evaluates
/// fully).
pub fn delta_fresh(
    source: &dyn DataSource,
    plan: &Plan,
    spec: &DeltaSpec,
    prior: &[Row],
) -> Result<Option<Vec<Row>>> {
    if delta_supported(plan, spec).is_err() {
        return Ok(None);
    }
    let mut fresh = delta_execute(source, plan, spec)?.rows;
    if !fresh.is_empty() {
        let known: HashSet<&Row> = prior.iter().collect();
        fresh.retain(|r| !known.contains(r));
    }
    Ok(Some(fresh))
}

/// A timestamp anchor found in a filter's `where` clause: a top-level
/// conjunct `T ≥ τ` (or `T > τ`) where `T` is the annotation-timestamp
/// companion of step `slot`. Evaluating the full query with only that
/// slot's candidates filtered to annotation time ≥/> `at` is *exact* —
/// excluded candidates fail the conjunct anyway — with no monotonicity
/// requirement on the rest of the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Anchor {
    /// The step slot whose candidates the anchor restricts.
    pub slot: usize,
    /// Which companion timestamp the conjunct constrains.
    pub role: CompanionRole,
    /// The anchor timestamp τ.
    pub at: Timestamp,
    /// `>` (true) vs `≥` (false).
    pub strict: bool,
}

/// Find the strongest timestamp anchor in `plan`'s `where` clause, if
/// any: scan the top-level `and`-conjuncts (descending through the single
/// existential wrapper inner variables get) for `T ≥ τ` / `T > τ` /
/// `τ ≤ T` / `τ < T` with `T` an `ArcTime`/`NodeTime` companion bound on
/// every candidate of its step. Several anchors → the latest (then
/// strictest) wins, since any of them is exact.
pub fn find_anchor(plan: &Plan) -> Option<Anchor> {
    let mut best: Option<Anchor> = None;
    let mut conjuncts: Vec<&Pred> = Vec::new();
    let top = plan.where_pred.as_ref()?;
    collect_conjuncts(top, &mut conjuncts);
    if let Pred::Exists { pred, .. } = top {
        collect_conjuncts(pred, &mut conjuncts);
    }
    for c in conjuncts {
        let Pred::Cmp { op, lhs, rhs } = c else {
            continue;
        };
        let (slot_op, lit, strict) = match (op, lhs, rhs) {
            (CmpOp::Ge, Operand::Slot(s), Operand::Const(lit)) => (s, lit, false),
            (CmpOp::Gt, Operand::Slot(s), Operand::Const(lit)) => (s, lit, true),
            (CmpOp::Le, Operand::Const(lit), Operand::Slot(s)) => (s, lit, false),
            (CmpOp::Lt, Operand::Const(lit), Operand::Slot(s)) => (s, lit, true),
            _ => continue,
        };
        let oem::Value::Time(time) = lit.value() else {
            continue;
        };
        let VarSource::Companion { of, role } = &plan.vars[*slot_op].source else {
            continue;
        };
        // The companion must be bound on every candidate of its step
        // (so excluding by it never excludes a Missing-bound row that the
        // conjunct would not already reject — Missing makes it false too,
        // but we also need annotation times to exist to filter on).
        let VarSource::Step { step, .. } = &plan.vars[*of].source else {
            continue;
        };
        if step.star {
            continue;
        }
        let bound = match role {
            CompanionRole::ArcTime => matches!(
                step.arc_annot,
                Some(ArcAnnotExpr::Add { .. }) | Some(ArcAnnotExpr::Rem { .. })
            ),
            CompanionRole::NodeTime => matches!(
                step.node_annot,
                Some(NodeAnnotExpr::Cre { .. }) | Some(NodeAnnotExpr::Upd { .. })
            ),
            _ => false,
        };
        if !bound {
            continue;
        }
        let cand = Anchor {
            slot: *of,
            role: *role,
            at: *time,
            strict,
        };
        best = Some(match best {
            None => cand,
            Some(b) if (cand.at, cand.strict) > (b.at, b.strict) => cand,
            Some(b) => b,
        });
    }
    best
}

fn collect_conjuncts<'p>(p: &'p Pred, out: &mut Vec<&'p Pred>) {
    match p {
        Pred::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// Evaluate the full query with only `anchor.slot`'s candidates filtered
/// to annotation time ≥/> the anchor — exact for any plan whose `where`
/// clause carries the anchor as a top-level conjunct (see [`find_anchor`]).
pub fn anchored_execute(source: &dyn DataSource, plan: &Plan, anchor: &Anchor) -> Result<Rows> {
    let keep = SlotRestrict::Since {
        at: anchor.at,
        strict: anchor.strict,
        role: anchor.role,
    };
    let restriction = Restriction {
        slot: anchor.slot,
        keep: &keep,
        allow: &[],
    };
    execute_restricted(source, plan, Some(&restriction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use crate::source::When;
    use crate::parser::parse_query;
    use crate::plan::plan;
    use oem::guide::guide_figure3;
    use oem::{ChangeOp, OemDatabase, Value};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn spec(db: &mut OemDatabase, ops: Vec<ChangeOp>, at: &str) -> DeltaSpec {
        let set = ChangeSet::from_ops(ops).unwrap();
        let s = DeltaSpec::new(&set, ts(at));
        set.apply_to(db).unwrap();
        s
    }

    #[test]
    fn new_rows_come_only_from_delta_variants() {
        let mut db = guide_figure3();
        let q = parse_query("select guide.restaurant.name").unwrap();
        let p = plan(&q, db.name()).unwrap();
        let before = execute(&db, &p).unwrap();

        let (r, n) = (db.alloc_id(), db.alloc_id());
        let root = db.root();
        let s = spec(
            &mut db,
            vec![
                ChangeOp::CreNode(r, Value::Complex),
                ChangeOp::CreNode(n, Value::str("Thai Spice")),
                ChangeOp::add_arc(root, "restaurant", r),
                ChangeOp::add_arc(r, "name", n),
            ],
            "9Jan97",
        );
        assert!(delta_supported(&p, &s).is_ok());
        let fresh = delta_execute(&db, &p, &s).unwrap();
        assert_eq!(fresh.rows.len(), 1, "exactly the new name");

        let added = delta_fresh(&db, &p, &s, &before.rows).unwrap().unwrap();
        assert_eq!(added, fresh.rows);
        let full = execute(&db, &p).unwrap();
        let m: HashSet<_> = before.rows.iter().chain(&added).collect();
        let f: HashSet<_> = full.rows.iter().collect();
        assert_eq!(m, f);
    }

    #[test]
    fn label_irrelevant_delta_runs_zero_variants() {
        let mut db = guide_figure3();
        let q = parse_query("select guide.restaurant.name").unwrap();
        let p = plan(&q, db.name()).unwrap();
        // A comment on an existing restaurant: no `restaurant`/`name` arc.
        let c = db.alloc_id();
        let root_restaurant = {
            let q = parse_query("select guide.restaurant").unwrap();
            let p = plan(&q, db.name()).unwrap();
            let rows = execute(&db, &p).unwrap();
            let crate::engine::Binding::Node(n) = rows.rows[0].cols[0].1 else {
                panic!()
            };
            n
        };
        let s = spec(
            &mut db,
            vec![
                ChangeOp::CreNode(c, Value::str("good")),
                ChangeOp::add_arc(root_restaurant, "comment", c),
            ],
            "9Jan97",
        );
        assert!(!delta_touches(&p, &s));
        assert!(delta_execute(&db, &p, &s).unwrap().rows.is_empty());
    }

    /// `db` behind a counter of forward traversal calls, with or without
    /// the reverse arcs.
    struct Counting<'a> {
        db: &'a OemDatabase,
        reverse: bool,
        calls: std::cell::Cell<usize>,
    }

    impl DataSource for Counting<'_> {
        fn name(&self) -> &str {
            self.db.name()
        }
        fn root(&self) -> NodeId {
            self.db.root()
        }
        fn value(&self, n: NodeId, when: When) -> Option<std::borrow::Cow<'_, Value>> {
            DataSource::value(self.db, n, when)
        }
        fn arcs(
            &self,
            n: NodeId,
            labels: &LabelSet,
            when: When,
            visit: &mut dyn FnMut(oem::Label, NodeId),
        ) {
            self.calls.set(self.calls.get() + 1);
            DataSource::arcs(self.db, n, labels, when, visit)
        }
        fn parents(&self, n: NodeId) -> Option<Vec<(oem::Label, NodeId)>> {
            DataSource::parents(self.db, n).filter(|_| self.reverse)
        }
    }

    /// `n` restaurants, each with one review holding one comment; then a
    /// comment added under the first review. Returns the traversal calls
    /// the delta variants of a four-step path made, seeded and unseeded.
    fn deep_add_calls(n: usize) -> (usize, usize) {
        let mut b = oem::GraphBuilder::new("guide");
        let root = b.root();
        let mut first_review = None;
        for i in 0..n {
            let r = b.complex_child(root, "restaurant");
            let v = b.complex_child(r, "review");
            b.atom_child(v, "comment", format!("c{i}"));
            first_review.get_or_insert(v);
        }
        let mut db = b.finish();
        let c = db.alloc_id();
        let s = spec(
            &mut db,
            vec![
                ChangeOp::CreNode(c, Value::str("fresh")),
                ChangeOp::add_arc(first_review.unwrap(), "comment", c),
            ],
            "9Jan97",
        );
        let q = parse_query("select guide.restaurant.review.comment").unwrap();
        let p = plan(&q, db.name()).unwrap();
        let calls = |reverse| {
            let source = Counting {
                db: &db,
                reverse,
                calls: Default::default(),
            };
            let fresh = delta_execute(&source, &p, &s).unwrap();
            assert_eq!(fresh.rows.len(), 1, "exactly the new comment");
            source.calls.get()
        };
        (calls(true), calls(false))
    }

    #[test]
    fn a_seeded_variant_walks_one_root_path_whatever_the_database_size() {
        let (seeded_small, unseeded_small) = deep_add_calls(4);
        let (seeded_large, unseeded_large) = deep_add_calls(40);
        // root → restaurant → review → comment: one call per step.
        assert_eq!(seeded_small, 3);
        assert_eq!(seeded_large, 3);
        assert!(unseeded_small > seeded_small);
        assert!(unseeded_large > 10 * seeded_large);
    }

    #[test]
    fn an_update_under_another_label_seeds_no_variant() {
        let db = guide_figure3();
        let q = parse_query("select T from guide.restaurant.name<upd at T>").unwrap();
        let p = plan(&q, db.name()).unwrap();
        let (slot, base, step, labels) = p
            .vars
            .iter()
            .enumerate()
            .find_map(|(i, v)| match &v.source {
                VarSource::Step { base, step, labels } if step.node_annot.is_some() => {
                    Some((i, *base, step, labels))
                }
                _ => None,
            })
            .unwrap();
        let updating = |n| {
            let set = ChangeSet::from_ops([ChangeOp::UpdNode(n, Value::Int(1))]).unwrap();
            DeltaSpec::new(&set, ts("9Jan97"))
        };
        // n1 is Bangkok Cuisine's price: the label-level test passes (the
        // delta updates *something*), the walk from n1 finds no `name` arc.
        assert!(variant_relevant(step, labels, &updating(oem::guide::ids::N1)));
        assert!(seed_variant(&db, &p, slot, &updating(oem::guide::ids::N1)).is_none());
        // n3 is Hakata's name: it is the one allowed binding, and its
        // restaurant the one allowed base.
        let allow = seed_variant(&db, &p, slot, &updating(oem::guide::ids::N3)).unwrap();
        let want = vec![
            (slot, BTreeSet::from([oem::guide::ids::N3])),
            (base, BTreeSet::from([oem::guide::ids::N2])),
        ];
        assert_eq!(allow, want);
    }

    #[test]
    fn fragment_gates_fire() {
        let db = guide_figure3();
        let empty = DeltaSpec::new(&ChangeSet::new(), ts("9Jan97"));
        let gate = |src: &str| {
            let q = parse_query(src).unwrap();
            let p = plan(&q, db.name()).unwrap();
            delta_supported(&p, &empty)
        };
        assert_eq!(gate("select guide.#"), Err(DeltaUnsupported::ClosureStep));
        assert_eq!(
            gate("select P.nearby-eats* from guide.restaurant.parking P"),
            Err(DeltaUnsupported::ClosureStep)
        );
        assert_eq!(
            gate("select guide.restaurant where not guide.restaurant.price < 20"),
            Err(DeltaUnsupported::Negation)
        );
        assert_eq!(
            gate("select guide.restaurant<at 31Dec96>"),
            Err(DeltaUnsupported::VirtualAnnotation)
        );
        // Value reads only matter when the delta updates values …
        let q = parse_query("select guide.restaurant where guide.restaurant.price < 20.5")
            .unwrap();
        let p = plan(&q, db.name()).unwrap();
        assert!(delta_supported(&p, &empty).is_ok());
        let upd =
            ChangeSet::from_ops([ChangeOp::UpdNode(oem::guide::ids::N1, Value::Int(30))]).unwrap();
        assert_eq!(
            delta_supported(&p, &DeltaSpec::new(&upd, ts("9Jan97"))),
            Err(DeltaUnsupported::UpdatedValues)
        );
        // … and removed arcs only when the plan walks current arcs.
        let rem = ChangeSet::from_ops([ChangeOp::rem_arc(
            oem::guide::ids::N6,
            "parking",
            oem::guide::ids::N7,
        )])
        .unwrap();
        assert_eq!(
            delta_supported(&p, &DeltaSpec::new(&rem, ts("9Jan97"))),
            Err(DeltaUnsupported::RemovedArcs)
        );
        let q = parse_query("select guide.<rem at T>restaurant").unwrap();
        let p = plan(&q, db.name()).unwrap();
        assert!(delta_supported(&p, &DeltaSpec::new(&rem, ts("9Jan97"))).is_ok());
    }

    #[test]
    fn anchor_found_and_exact() {
        let db = guide_figure3();
        let q = parse_query("select guide.<add at T>restaurant where T > 31Dec96").unwrap();
        let p = plan(&q, db.name()).unwrap();
        let a = find_anchor(&p).expect("anchor");
        assert_eq!(a.role, CompanionRole::ArcTime);
        assert!(a.strict);
        assert_eq!(a.at, ts("31Dec96"));
        // Plain OEM: no annotations, both paths agree on empty.
        let full = execute(&db, &p).unwrap();
        let fast = anchored_execute(&db, &p, &a).unwrap();
        assert_eq!(full.rows, fast.rows);
    }

    #[test]
    fn no_anchor_on_or_disjuncts_or_plain_slots() {
        let db = guide_figure3();
        let gate = |src: &str| {
            let q = parse_query(src).unwrap();
            let p = plan(&q, db.name()).unwrap();
            find_anchor(&p)
        };
        assert!(gate(
            "select guide.<add at T>restaurant where T > 31Dec96 or T < 30Dec96"
        )
        .is_none());
        assert!(gate("select guide.restaurant where guide.restaurant.price > 10").is_none());
    }
}
