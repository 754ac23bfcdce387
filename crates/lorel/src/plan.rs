//! Query normalization: from the surface AST to an executable plan.
//!
//! This implements the Section 4.2.1 rewriting. Every path expression in
//! the query — in `select`, `from` and `where` — is decomposed into single
//! steps, and steps are *shared by prefix*: `guide.restaurant` appearing in
//! three clauses denotes one range variable, which is what makes
//! `select guide.restaurant where guide.restaurant.price < 20.5` filter the
//! selected restaurants rather than testing a detached existential (the
//! paper's Example 4.1 depends on this).
//!
//! Variables fall into two classes:
//!
//! * **outer** — introduced by `from`/`select` paths (and their annotation
//!   companions). They are enumerated as nested loops; the result has one
//!   row per satisfying combination.
//! * **inner** — introduced only in `where`. Following the paper, they are
//!   wrapped in an existential around the whole `where` clause ("variables
//!   introduced in the where clause … are treated by introducing
//!   existential quantification"). An inner variable with no bindings
//!   takes the special `Missing` binding, for which every atomic predicate
//!   is false — Lorel's "missing data never errors, it just fails" rule.

use crate::ast::*;
use crate::coerce::Literal;
use crate::error::{LorelError, Result};
use oem::Label;
use std::collections::HashMap;

/// How a variable gets its bindings.
#[derive(Clone, Debug, PartialEq)]
pub enum VarSource {
    /// The database root (a path head equal to the database name).
    Root,
    /// One path step from another variable.
    Step {
        /// Slot of the base variable.
        base: usize,
        /// The step (label pattern + annotation expressions).
        step: PathStep,
        /// The step's label pattern, resolved to interned labels.
        labels: LabelSet,
    },
    /// Bound as a side effect of the owning step's annotation expression
    /// (`T` in `<add at T>`, `OV`/`NV` in `<upd …>`).
    Companion {
        /// Slot of the step variable this companion belongs to.
        of: usize,
        /// Which annotation field it captures.
        role: CompanionRole,
    },
}

/// The annotation field a companion variable captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompanionRole {
    /// `<add at T>` / `<rem at T>` timestamp.
    ArcTime,
    /// `<cre at T>` / `<upd at T>` timestamp.
    NodeTime,
    /// `<upd from OV>` old value.
    OldValue,
    /// `<upd to NV>` new value.
    NewValue,
}

/// One plan variable.
#[derive(Clone, Debug)]
pub struct VarDef {
    /// Its name (user-chosen or synthesized `_N`).
    pub name: String,
    /// Binding source.
    pub source: VarSource,
    /// Outer (from/select, loop-enumerated) vs inner (where-only,
    /// existential).
    pub outer: bool,
    /// The default result label (AQM+96 label inference: the arc label
    /// that bound it, or `create-time` / `add-time` / `remove-time` /
    /// `update-time` / `old-value` / `new-value` for annotation variables).
    pub default_label: String,
}

/// A step's label pattern with its names resolved once, at plan time,
/// through [`Label::lookup`], so evaluation compares label ids and never
/// touches the interner. A name that was never interned labels no arc,
/// so it drops out: a step that names only such labels matches nothing.
/// A plan is therefore valid only for the database state it was planned
/// on; a caller that keeps a query across writes keeps the query and
/// plans it again.
#[derive(Clone, Debug, PartialEq)]
pub enum LabelSet {
    /// `l` or `(l1|l2|…)`: the known names, in pattern order.
    Named(Vec<Label>),
    /// `%` and `#`: every label.
    Any,
}

impl LabelSet {
    /// Resolve `pattern` against the labels interned so far.
    pub(crate) fn resolve(pattern: &LabelPattern) -> LabelSet {
        match pattern {
            LabelPattern::Label(l) => LabelSet::Named(Label::lookup(l).into_iter().collect()),
            LabelPattern::Alternation(ls) => {
                LabelSet::Named(ls.iter().filter_map(|l| Label::lookup(l)).collect())
            }
            LabelPattern::AnyLabel | LabelPattern::AnyPath => LabelSet::Any,
        }
    }

    /// Does an arc label satisfy the pattern?
    pub fn matches(&self, l: Label) -> bool {
        match self {
            LabelSet::Named(ls) => ls.contains(&l),
            LabelSet::Any => true,
        }
    }

    /// The position of a matching label in the pattern: an alternation
    /// lists its first label's arcs first. Every label of `%` ranks 0.
    pub(crate) fn rank(&self, l: Label) -> usize {
        match self {
            LabelSet::Named(ls) => ls.iter().position(|&x| x == l).unwrap_or(0),
            LabelSet::Any => 0,
        }
    }
}

/// A planned predicate over variable slots.
#[derive(Clone, Debug)]
pub enum Pred {
    /// Comparison with coercion.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `like` pattern match.
    Like {
        /// Matched value.
        expr: Operand,
        /// Pattern.
        pattern: Operand,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Bare path: true iff the slot is bound (non-missing).
    ExistsSlot(usize),
    /// Existentially quantified slots (in dependency order) around a body.
    Exists {
        /// The quantified slots.
        slots: Vec<usize>,
        /// The body predicate.
        pred: Box<Pred>,
    },
    /// Constant truth value.
    Const(bool),
}

/// A predicate operand.
#[derive(Clone, Debug)]
pub enum Operand {
    /// A variable slot (its value is read through the binding).
    Slot(usize),
    /// A literal, with its coercions worked out.
    Const(Literal),
}

/// One output column.
#[derive(Clone, Debug)]
pub struct SelectCol {
    /// Result label.
    pub label: String,
    /// What to emit.
    pub value: Operand,
}

/// An executable query plan.
#[derive(Clone, Debug)]
pub struct Plan {
    /// All variables; outer variables come in dependency order.
    pub vars: Vec<VarDef>,
    /// Indices of outer variables, in enumeration order.
    pub outer_order: Vec<usize>,
    /// The `where` predicate (inner variables already wrapped in
    /// [`Pred::Exists`]).
    pub where_pred: Option<Pred>,
    /// Output columns.
    pub select: Vec<SelectCol>,
}

/// Key under which steps are shared in the prefix trie: the full step
/// (annotations included — `<add>restaurant` and `restaurant` are distinct
/// ranges).
#[derive(Clone, Debug, PartialEq)]
struct StepKey(PathStep);

/// One trie edge: `(base, step)` plus the explicit range-variable name (if
/// the query named one at this step). Distinct explicit names are distinct
/// ranges even over identical paths (`from guide.restaurant R,
/// guide.restaurant S` is a self-join); unnamed occurrences share.
#[derive(Clone, Debug)]
struct Edge {
    base: Option<usize>,
    key: StepKey,
    var_name: Option<String>,
    slot: usize,
}

struct Planner<'a> {
    db_name: &'a str,
    vars: Vec<VarDef>,
    by_name: HashMap<String, usize>,
    /// trie edges (see [`Edge`])
    edges: Vec<Edge>,
    root_slot: Option<usize>,
    /// Slots quantified by an explicit `exists` (excluded from the global
    /// where-clause existential wrapper).
    scoped: Vec<usize>,
}

/// Compile `query` for a database called `db_name`.
pub fn plan(query: &Query, db_name: &str) -> Result<Plan> {
    let mut p = Planner {
        db_name,
        vars: Vec::new(),
        by_name: HashMap::new(),
        edges: Vec::new(),
        root_slot: None,
        scoped: Vec::new(),
    };

    // Phase 1: from items (they may name variables other paths use as
    // heads). Iterate to a fixpoint because `from a.b X, X.c Y` may list
    // items in either order.
    let mut pending: Vec<&FromItem> = query.from.iter().collect();
    let mut progress = true;
    while progress && !pending.is_empty() {
        progress = false;
        let mut still = Vec::new();
        for item in pending {
            if p.head_resolvable(&item.path.head) {
                let slot = p.resolve_path_named(&item.path, true, item.var.as_deref())?;
                if let Some(var) = &item.var {
                    p.name_var(slot, var)?;
                }
                progress = true;
            } else {
                still.push(item);
            }
        }
        pending = still;
    }
    if let Some(item) = pending.first() {
        return Err(LorelError::UnknownDatabase {
            head: item.path.head.clone(),
            database: db_name.to_string(),
        });
    }

    // Phase 2: select items.
    let mut select = Vec::new();
    for item in &query.select {
        let col = match &item.expr {
            Expr::Path(path) => {
                let slot = p.resolve_path(path, true)?;
                let label = item
                    .label
                    .clone()
                    .unwrap_or_else(|| p.vars[slot].default_label.clone());
                SelectCol {
                    label,
                    value: Operand::Slot(slot),
                }
            }
            Expr::Literal(v) => SelectCol {
                label: item.label.clone().unwrap_or_else(|| "value".to_string()),
                value: Operand::Const(Literal::new(v.clone())),
            },
            Expr::PollTime(i) => return Err(LorelError::UnresolvedPollTime(*i)),
            other => return Err(LorelError::BadSelectItem(other.to_string())),
        };
        select.push(col);
    }

    // Phase 3: where clause. New variables created here are inner.
    let outer_count = p.vars.len();
    let where_pred = match &query.where_clause {
        None => None,
        Some(expr) => {
            let body = p.lower_expr(expr)?;
            // Wrap every where-introduced (inner) variable in one
            // existential around the whole clause (Section 4.2.1).
            let inner: Vec<usize> = (outer_count..p.vars.len())
                .filter(|&i| !p.vars[i].outer && !p.scoped.contains(&i))
                .collect();
            Some(if inner.is_empty() {
                body
            } else {
                Pred::Exists {
                    slots: inner,
                    pred: Box::new(body),
                }
            })
        }
    };

    let outer_order: Vec<usize> = (0..p.vars.len()).filter(|&i| p.vars[i].outer).collect();
    Ok(Plan {
        vars: p.vars,
        outer_order,
        where_pred,
        select,
    })
}

impl<'a> Planner<'a> {
    fn head_resolvable(&self, head: &str) -> bool {
        head == self.db_name || self.by_name.contains_key(head)
    }

    fn fresh_name(&self) -> String {
        format!("_{}", self.vars.len() + 1)
    }

    fn name_var(&mut self, slot: usize, name: &str) -> Result<()> {
        if let Some(&existing) = self.by_name.get(name) {
            if existing != slot {
                return Err(LorelError::DuplicateVariable(name.to_string()));
            }
            return Ok(());
        }
        self.by_name.insert(name.to_string(), slot);
        self.vars[slot].name = name.to_string();
        Ok(())
    }

    fn head_slot(&mut self, head: &str, outer: bool) -> Result<usize> {
        if let Some(&slot) = self.by_name.get(head) {
            if outer && !self.vars[slot].outer {
                self.promote(slot);
            }
            return Ok(slot);
        }
        if head == self.db_name {
            if let Some(slot) = self.root_slot {
                if outer && !self.vars[slot].outer {
                    self.promote(slot);
                }
                return Ok(slot);
            }
            let slot = self.vars.len();
            self.vars.push(VarDef {
                name: self.db_name.to_string(),
                source: VarSource::Root,
                outer,
                default_label: self.db_name.to_string(),
            });
            self.root_slot = Some(slot);
            return Ok(slot);
        }
        Err(LorelError::UnknownDatabase {
            head: head.to_string(),
            database: self.db_name.to_string(),
        })
    }

    /// Promote a variable (and its dependency chain) to outer.
    fn promote(&mut self, slot: usize) {
        if self.vars[slot].outer {
            return;
        }
        self.vars[slot].outer = true;
        match self.vars[slot].source.clone() {
            VarSource::Root => {}
            VarSource::Step { base, .. } => self.promote(base),
            VarSource::Companion { of, .. } => self.promote(of),
        }
    }

    /// Resolve a full path to its final variable slot, creating shared
    /// trie steps as needed. `outer` marks created variables as
    /// loop-enumerated; resolving an existing inner variable as outer
    /// promotes it (select may reference where-introduced variables).
    fn resolve_path(&mut self, path: &PathExpr, outer: bool) -> Result<usize> {
        self.resolve_path_named(path, outer, None)
    }

    /// As [`Planner::resolve_path`], with an explicit range-variable name
    /// for the *final* step (from items): named occurrences of identical
    /// paths stay distinct ranges.
    fn resolve_path_named(
        &mut self,
        path: &PathExpr,
        outer: bool,
        final_name: Option<&str>,
    ) -> Result<usize> {
        let mut cur = self.head_slot(&path.head, outer)?;
        for (i, step) in path.steps.iter().enumerate() {
            let name = if i + 1 == path.steps.len() {
                final_name
            } else {
                None
            };
            cur = self.step_slot(cur, step, outer, name)?;
        }
        Ok(cur)
    }

    fn step_slot(
        &mut self,
        base: usize,
        step: &PathStep,
        outer: bool,
        var_name: Option<&str>,
    ) -> Result<usize> {
        let key = StepKey(step.clone());
        let matching: Vec<&Edge> = self
            .edges
            .iter()
            .filter(|e| e.base == Some(base) && e.key == key)
            .collect();
        // Named resolution: reuse the edge with the same name.
        // Unnamed resolution: prefer the unnamed edge; with exactly one
        // (named) edge, share it; with several named edges the reference
        // is ambiguous, so a fresh unnamed range is created.
        let chosen = match var_name {
            Some(name) => matching
                .iter()
                .find(|e| e.var_name.as_deref() == Some(name))
                .map(|e| e.slot),
            None => matching
                .iter()
                .find(|e| e.var_name.is_none())
                .map(|e| e.slot)
                .or_else(|| {
                    if matching.len() == 1 {
                        Some(matching[0].slot)
                    } else {
                        None
                    }
                }),
        };
        if let Some(slot) = chosen {
            if outer && !self.vars[slot].outer {
                self.promote(slot);
            }
            return Ok(slot);
        }

        let slot = self.vars.len();
        let default_label = match &step.label {
            LabelPattern::Label(l) => l.clone(),
            LabelPattern::Alternation(ls) => {
                ls.first().cloned().unwrap_or_else(|| "item".to_string())
            }
            LabelPattern::AnyPath | LabelPattern::AnyLabel => "item".to_string(),
        };
        self.vars.push(VarDef {
            name: self.fresh_name(),
            source: VarSource::Step {
                base,
                step: step.clone(),
                labels: LabelSet::resolve(&step.label),
            },
            outer,
            default_label,
        });
        self.edges.push(Edge {
            base: Some(base),
            key,
            var_name: var_name.map(str::to_string),
            slot,
        });

        // Companion variables from annotation expressions.
        let mut companions: Vec<(String, CompanionRole, &'static str)> = Vec::new();
        match &step.arc_annot {
            Some(ArcAnnotExpr::Add { at: Some(v) }) => {
                companions.push((v.clone(), CompanionRole::ArcTime, "add-time"));
            }
            Some(ArcAnnotExpr::Rem { at: Some(v) }) => {
                companions.push((v.clone(), CompanionRole::ArcTime, "remove-time"));
            }
            _ => {}
        }
        match &step.node_annot {
            Some(NodeAnnotExpr::Cre { at: Some(v) }) => {
                companions.push((v.clone(), CompanionRole::NodeTime, "create-time"));
            }
            Some(NodeAnnotExpr::Upd { at, from, to }) => {
                if let Some(v) = at {
                    companions.push((v.clone(), CompanionRole::NodeTime, "update-time"));
                }
                if let Some(v) = from {
                    companions.push((v.clone(), CompanionRole::OldValue, "old-value"));
                }
                if let Some(v) = to {
                    companions.push((v.clone(), CompanionRole::NewValue, "new-value"));
                }
            }
            _ => {}
        }
        for (name, role, label) in companions {
            let cslot = self.vars.len();
            self.vars.push(VarDef {
                name: name.clone(),
                source: VarSource::Companion { of: slot, role },
                outer,
                default_label: label.to_string(),
            });
            self.name_var(cslot, &name)?;
        }
        Ok(slot)
    }

    fn lower_operand(&mut self, expr: &Expr) -> Result<Operand> {
        match expr {
            Expr::Literal(v) => Ok(Operand::Const(Literal::new(v.clone()))),
            Expr::PollTime(i) => Err(LorelError::UnresolvedPollTime(*i)),
            Expr::Path(p) => Ok(Operand::Slot(self.resolve_path(p, false)?)),
            other => Err(LorelError::BadSelectItem(other.to_string())),
        }
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<Pred> {
        Ok(match expr {
            Expr::Cmp { op, lhs, rhs } => Pred::Cmp {
                op: *op,
                lhs: self.lower_operand(lhs)?,
                rhs: self.lower_operand(rhs)?,
            },
            Expr::Like {
                expr: e,
                pattern,
            } => Pred::Like {
                expr: self.lower_operand(e)?,
                pattern: self.lower_operand(pattern)?,
            },
            Expr::And(a, b) => Pred::And(
                Box::new(self.lower_expr(a)?),
                Box::new(self.lower_expr(b)?),
            ),
            Expr::Or(a, b) => Pred::Or(
                Box::new(self.lower_expr(a)?),
                Box::new(self.lower_expr(b)?),
            ),
            Expr::Not(e) => Pred::Not(Box::new(self.lower_expr(e)?)),
            Expr::Path(p) => {
                // Bare path in boolean position: existence test.
                Pred::ExistsSlot(self.resolve_path(p, false)?)
            }
            Expr::Literal(oem::Value::Bool(b)) => Pred::Const(*b),
            Expr::Literal(v) => {
                return Err(LorelError::BadSelectItem(format!(
                    "literal {v} is not a predicate"
                )))
            }
            Expr::PollTime(i) => return Err(LorelError::UnresolvedPollTime(*i)),
            Expr::Exists { var, path, pred } => {
                // Explicitly scoped existential: its variables do not leak.
                let before = self.vars.len();
                let slot = self.resolve_path(path, false)?;
                self.name_var(slot, var)?;
                let body = self.lower_expr(pred)?;
                let slots: Vec<usize> = (before..self.vars.len())
                    .filter(|&i| !self.vars[i].outer)
                    .collect();
                // Remove the scoped names so they cannot be referenced
                // outside (shadowing is rejected by name_var instead),
                // and keep the slots out of the global wrapper.
                self.by_name.remove(var);
                self.scoped.extend(slots.iter().copied());
                Pred::Exists {
                    slots,
                    pred: Box::new(body),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn plan_str(src: &str) -> Plan {
        plan(&parse_query(src).unwrap(), "guide").unwrap()
    }

    #[test]
    fn example_4_1_shares_the_restaurant_prefix() {
        let p = plan_str("select guide.restaurant where guide.restaurant.price < 20.5");
        // Variables: root (outer), restaurant (outer), price (inner).
        assert_eq!(p.vars.len(), 3);
        assert_eq!(p.outer_order.len(), 2);
        let price = &p.vars[2];
        assert!(!price.outer);
        match &p.where_pred {
            Some(Pred::Exists { slots, .. }) => assert_eq!(slots, &vec![2]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn example_4_4_shares_the_restaurant_variable() {
        let p = plan_str(
            "select N, T, NV\nfrom guide.restaurant.price<upd at T to NV>, guide.restaurant.name N",
        );
        // root, restaurant, price (+T +NV companions), name — all outer.
        let restaurant_slots: Vec<usize> = p
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                matches!(&v.source, VarSource::Step { step, .. }
                    if step.label == LabelPattern::Label("restaurant".into()))
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(restaurant_slots.len(), 1, "prefix must be shared");
        assert!(p.vars.iter().all(|v| v.outer));
        // Default labels follow AQM+96.
        let labels: Vec<&str> = p.select.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["name", "update-time", "new-value"]);
    }

    #[test]
    fn annotated_and_plain_steps_are_distinct_ranges() {
        let p = plan_str("select guide.<add>restaurant, guide.restaurant");
        let step_vars = p
            .vars
            .iter()
            .filter(|v| matches!(v.source, VarSource::Step { .. }))
            .count();
        assert_eq!(step_vars, 2);
    }

    #[test]
    fn select_promotes_where_vars_to_outer() {
        // T is introduced in the where clause's annotated path but selected.
        let p = plan_str("select T from guide.<add at T>restaurant");
        let t = p.vars.iter().find(|v| v.name == "T").unwrap();
        assert!(t.outer);
        assert_eq!(t.default_label, "add-time");
    }

    #[test]
    fn from_items_resolve_out_of_order() {
        let p = plan_str("select Y from X.c Y, guide.b X");
        assert_eq!(p.vars.len(), 3);
        assert!(p.vars.iter().any(|v| v.name == "X"));
        assert!(p.vars.iter().any(|v| v.name == "Y"));
    }

    #[test]
    fn unknown_head_is_an_error() {
        let q = parse_query("select flights.airline").unwrap();
        assert!(matches!(
            plan(&q, "guide"),
            Err(LorelError::UnknownDatabase { .. })
        ));
    }

    #[test]
    fn duplicate_variable_is_an_error() {
        let q = parse_query("select R from guide.a R, guide.b R").unwrap();
        assert!(matches!(
            plan(&q, "guide"),
            Err(LorelError::DuplicateVariable(_))
        ));
    }

    #[test]
    fn poll_time_must_be_resolved_first() {
        let q = parse_query("select guide.<add at T>x where T > t[-1]").unwrap();
        assert!(matches!(
            plan(&q, "guide"),
            Err(LorelError::UnresolvedPollTime(-1))
        ));
    }

    #[test]
    fn self_joins_keep_named_ranges_distinct() {
        // `from guide.restaurant R, guide.restaurant S` is a self-join:
        // R and S are independent ranges over the same path.
        let p = plan_str("select R, S from guide.restaurant R, guide.restaurant S");
        let restaurant_edges = p
            .vars
            .iter()
            .filter(|v| matches!(&v.source, VarSource::Step { step, .. }
                if step.label == LabelPattern::Label("restaurant".into())))
            .count();
        assert_eq!(restaurant_edges, 2);
    }

    #[test]
    fn unnamed_paths_share_with_a_single_named_range() {
        // `where guide.restaurant.price…` refers to R when R is the only
        // range over guide.restaurant.
        let p = plan_str(
            "select R from guide.restaurant R where guide.restaurant.price < 20",
        );
        let restaurant_edges = p
            .vars
            .iter()
            .filter(|v| matches!(&v.source, VarSource::Step { step, .. }
                if step.label == LabelPattern::Label("restaurant".into())))
            .count();
        assert_eq!(restaurant_edges, 1);
    }

    #[test]
    fn explicit_exists_scopes_its_variable() {
        let p = plan_str(
            "select R from guide.restaurant R where exists P in R.price : P = \"moderate\"",
        );
        match &p.where_pred {
            Some(Pred::Exists { slots, .. }) => assert_eq!(slots.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
