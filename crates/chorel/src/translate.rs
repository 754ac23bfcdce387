//! The translation-based Chorel execution strategy (Section 5.2).
//!
//! A Chorel query over a (conceptual) DOEM database becomes a plain Lorel
//! query over the database's Section 5.1 OEM encoding:
//!
//! * `(T, OV, NV) in updFun(P)` → `P.&upd U, U.&time T, U.&ov OV, U.&nv NV`;
//! * `(T, C) in addFun(P, l)` → `P.&l-history H, H.&add T, H.&target C`
//!   (and symmetrically for `remFun`);
//! * `T in creFun(P)` → `P.&cre T`;
//! * every *value access* of an object variable `X` becomes `X.&val`
//!   (complex encoding objects carry a `&val` self-arc, so the rewrite is
//!   safe without knowing whether `X` is atomic).
//!
//! The translator works on the planned form: it runs the same Section 4.2.1
//! normalization the engine uses and then reconstructs a pure-Lorel query,
//! expanding annotated steps into `&`-encoded chains — `from` chains for
//! outer variables, nested `exists` chains for where-variables (compare
//! the paper's Example 5.1).
//!
//! Virtual annotations (`<at τ>`, Section 4.2.2) have no pure-Lorel
//! equivalent over the encoding and are rejected here; the direct engine
//! supports them.

use lorel::ast::{
    ArcAnnotExpr, Expr, FromItem, LabelPattern, NodeAnnotExpr, PathExpr, PathStep, Query,
    SelectItem,
};
use lorel::{LorelError, Operand, Plan, Pred, Result, VarSource};

/// Translate a Chorel query into pure Lorel over the Section 5.1 encoding
/// of a database named `db_name`.
pub fn translate(query: &Query, db_name: &str) -> Result<Query> {
    let plan = lorel::plan(query, db_name)?;
    Translator {
        plan: &plan,
        db_name,
    }
    .run()
}

struct Translator<'a> {
    plan: &'a Plan,
    db_name: &'a str,
}

/// The translated range chain for one planned step variable.
struct Expansion {
    /// `(range path, bound variable)` pairs, in dependency order.
    links: Vec<(PathExpr, String)>,
}

impl<'a> Translator<'a> {
    fn run(self) -> Result<Query> {
        // Outer variables become from-items.
        let mut from = Vec::new();
        for &slot in &self.plan.outer_order {
            if matches!(
                self.plan.vars[slot].source,
                VarSource::Companion { .. } | VarSource::Root
            ) {
                continue;
            }
            for (path, var) in self.expand_step(slot)?.links {
                from.push(FromItem {
                    path,
                    var: Some(var),
                });
            }
        }

        // Select columns.
        let select = self
            .plan
            .select
            .iter()
            .map(|col| {
                let expr = match &col.value {
                    Operand::Slot(s) => Expr::Path(PathExpr {
                        head: self.var_name(*s),
                        steps: vec![],
                    }),
                    Operand::Const(lit) => Expr::Literal(lit.value().clone()),
                };
                SelectItem {
                    expr,
                    label: Some(col.label.clone()),
                }
            })
            .collect();

        let where_clause = match &self.plan.where_pred {
            None => None,
            Some(p) => Some(self.translate_pred(p)?),
        };

        Ok(Query {
            select,
            from,
            where_clause,
        })
    }

    fn var_name(&self, slot: usize) -> String {
        self.plan.vars[slot].name.clone()
    }

    fn base_name(&self, base: usize) -> String {
        match &self.plan.vars[base].source {
            VarSource::Root => self.db_name.to_string(),
            _ => self.var_name(base),
        }
    }

    /// Companion variable name for a role, or a synthesized one.
    fn companion_name(&self, owner: usize, role: lorel::CompanionRole) -> String {
        for (i, v) in self.plan.vars.iter().enumerate() {
            if let VarSource::Companion { of, role: r } = &v.source {
                if *of == owner && *r == role {
                    return self.var_name(i);
                }
            }
        }
        let tag = match role {
            lorel::CompanionRole::ArcTime => "at",
            lorel::CompanionRole::NodeTime => "nt",
            lorel::CompanionRole::OldValue => "ov",
            lorel::CompanionRole::NewValue => "nv",
        };
        format!("_{tag}{owner}")
    }

    /// Expand one planned step variable into its encoded range chain.
    fn expand_step(&self, slot: usize) -> Result<Expansion> {
        let VarSource::Step { base, step, .. } = &self.plan.vars[slot].source else {
            return Err(LorelError::BadSelectItem(format!(
                "variable {} is not a step",
                self.var_name(slot)
            )));
        };
        let base_name = self.base_name(*base);
        let v = self.var_name(slot);
        let mut links: Vec<(PathExpr, String)> = Vec::new();

        let one = |head: &str, step_label: &str| PathExpr {
            head: head.to_string(),
            steps: vec![PathStep::plain(step_label)],
        };

        match &step.arc_annot {
            None => {
                // Plain arc traversal over the encoding's direct labels
                // (only current arcs are encoded directly).
                let path = PathExpr {
                    head: base_name,
                    steps: vec![PathStep {
                        arc_annot: None,
                        label: step.label.clone(),
                        star: step.star,
                        node_annot: None,
                    }],
                };
                links.push((path, v.clone()));
            }
            Some(ArcAnnotExpr::Add { .. }) | Some(ArcAnnotExpr::Rem { .. }) => {
                // An exact label ranges over its one `&l-history` object;
                // a label alternation ranges over the alternation of the
                // history labels. Wildcards have no bounded history set:
                // they stay direct-engine only.
                let history_pattern = match &step.label {
                    LabelPattern::Label(l) => LabelPattern::Label(format!("&{l}-history")),
                    LabelPattern::Alternation(ls) => LabelPattern::Alternation(
                        ls.iter().map(|l| format!("&{l}-history")).collect(),
                    ),
                    _ => {
                        return Err(LorelError::BadSelectItem(
                            "annotated wildcards are unsupported in the translation \
                             strategy; use the direct engine"
                                .to_string(),
                        ))
                    }
                };
                let h = format!("_h{slot}");
                let t = self.companion_name(slot, lorel::CompanionRole::ArcTime);
                let ann_label = if matches!(step.arc_annot, Some(ArcAnnotExpr::Add { .. })) {
                    "&add"
                } else {
                    "&rem"
                };
                links.push((
                    PathExpr {
                        head: base_name,
                        steps: vec![PathStep {
                            arc_annot: None,
                            label: history_pattern,
                            star: false,
                            node_annot: None,
                        }],
                    },
                    h.clone(),
                ));
                links.push((one(&h, ann_label), t));
                links.push((one(&h, "&target"), v.clone()));
            }
            Some(ArcAnnotExpr::AtTime(_)) => {
                return Err(LorelError::BadSelectItem(
                    "virtual annotations have no Lorel translation; use the direct engine"
                        .to_string(),
                ))
            }
        }

        match &step.node_annot {
            None => {}
            Some(NodeAnnotExpr::Cre { .. }) => {
                let t = self.companion_name(slot, lorel::CompanionRole::NodeTime);
                links.push((one(&v, "&cre"), t));
            }
            Some(NodeAnnotExpr::Upd { at, from, to }) => {
                let u = format!("_u{slot}");
                links.push((one(&v, "&upd"), u.clone()));
                if at.is_some() {
                    links.push((
                        one(&u, "&time"),
                        self.companion_name(slot, lorel::CompanionRole::NodeTime),
                    ));
                }
                if from.is_some() {
                    links.push((
                        one(&u, "&ov"),
                        self.companion_name(slot, lorel::CompanionRole::OldValue),
                    ));
                }
                if to.is_some() {
                    links.push((
                        one(&u, "&nv"),
                        self.companion_name(slot, lorel::CompanionRole::NewValue),
                    ));
                }
            }
            Some(NodeAnnotExpr::AtTime(_)) => {
                return Err(LorelError::BadSelectItem(
                    "virtual annotations have no Lorel translation; use the direct engine"
                        .to_string(),
                ))
            }
        }

        Ok(Expansion { links })
    }

    /// A value access of a slot: object variables gain `.&val` (the paper's
    /// final rewriting step); companion variables already denote atoms.
    fn value_access(&self, slot: usize) -> Expr {
        match &self.plan.vars[slot].source {
            VarSource::Companion { .. } => Expr::Path(PathExpr {
                head: self.var_name(slot),
                steps: vec![],
            }),
            _ => Expr::Path(PathExpr {
                head: self.var_name(slot),
                steps: vec![PathStep::plain("&val")],
            }),
        }
    }

    fn translate_operand(&self, op: &Operand) -> Expr {
        match op {
            Operand::Const(lit) => Expr::Literal(lit.value().clone()),
            Operand::Slot(s) => self.value_access(*s),
        }
    }

    fn translate_pred(&self, pred: &Pred) -> Result<Expr> {
        Ok(match pred {
            Pred::Const(b) => Expr::Literal(oem::Value::Bool(*b)),
            Pred::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(self.translate_operand(lhs)),
                rhs: Box::new(self.translate_operand(rhs)),
            },
            Pred::Like { expr, pattern } => Expr::Like {
                expr: Box::new(self.translate_operand(expr)),
                pattern: Box::new(self.translate_operand(pattern)),
            },
            Pred::And(a, b) => Expr::And(
                Box::new(self.translate_pred(a)?),
                Box::new(self.translate_pred(b)?),
            ),
            Pred::Or(a, b) => Expr::Or(
                Box::new(self.translate_pred(a)?),
                Box::new(self.translate_pred(b)?),
            ),
            Pred::Not(e) => Expr::Not(Box::new(self.translate_pred(e)?)),
            Pred::ExistsSlot(s) => Expr::Path(PathExpr {
                head: self.var_name(*s),
                steps: vec![],
            }),
            Pred::Exists { slots, pred } => {
                // Expand each quantified step variable into nested exists
                // over its encoded chain, with bare-path existence
                // conjuncts so that required annotation atoms must bind.
                let mut body = self.translate_pred(pred)?;
                // Conjoin existence of every expansion variable.
                let mut chains: Vec<(PathExpr, String)> = Vec::new();
                for &slot in slots {
                    if matches!(
                        self.plan.vars[slot].source,
                        VarSource::Companion { .. } | VarSource::Root
                    ) {
                        continue;
                    }
                    chains.extend(self.expand_step(slot)?.links);
                }
                for (_, var) in &chains {
                    body = Expr::And(
                        Box::new(Expr::Path(PathExpr {
                            head: var.clone(),
                            steps: vec![],
                        })),
                        Box::new(body),
                    );
                }
                // Innermost-out nesting.
                for (path, var) in chains.into_iter().rev() {
                    body = Expr::Exists {
                        var,
                        path,
                        pred: Box::new(body),
                    };
                }
                body
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorel::parse_query;

    fn tr(src: &str) -> String {
        translate(&parse_query(src).unwrap(), "guide")
            .unwrap()
            .to_string()
    }

    #[test]
    fn example_5_1_shape() {
        // Example 4.5 → the paper's Example 5.1 translation.
        let out = tr(
            "select N from guide.restaurant R, R.name N \
             where R.<add at T>price = \"moderate\" and T >= 1Jan97",
        );
        assert!(out.contains("&price-history"), "{out}");
        assert!(out.contains("&add"), "{out}");
        assert!(out.contains("&target"), "{out}");
        assert!(out.contains(".&val = \"moderate\""), "{out}");
        assert!(out.contains("exists"), "{out}");
        // The translated text is itself parseable Lorel.
        parse_query(&out).unwrap();
    }

    #[test]
    fn upd_translation_exposes_time_ov_nv() {
        let out = tr(
            "select N, T, NV \
             from guide.restaurant.price<upd at T to NV>, guide.restaurant.name N \
             where T >= 1Jan97 and NV > 15",
        );
        assert!(out.contains("&upd"), "{out}");
        assert!(out.contains("&time"), "{out}");
        assert!(out.contains("&nv"), "{out}");
        assert!(!out.contains("&ov"), "unrequested old value: {out}");
        parse_query(&out).unwrap();
    }

    #[test]
    fn cre_translation() {
        let out = tr("select guide.restaurant<cre at T> where T < 4Jan97");
        assert!(out.contains("&cre"), "{out}");
        parse_query(&out).unwrap();
    }

    #[test]
    fn plain_queries_only_gain_val_accesses() {
        let out = tr("select guide.restaurant where guide.restaurant.price < 20.5");
        assert!(out.contains(".&val < 20.5"), "{out}");
        assert!(!out.contains("history"), "{out}");
        parse_query(&out).unwrap();
    }

    #[test]
    fn virtual_annotations_are_rejected() {
        let q = parse_query("select guide.restaurant.price<at 2Jan97>").unwrap();
        assert!(translate(&q, "guide").is_err());
    }
}
