//! An event-condition-action trigger language for OEM, based on DOEM and
//! Chorel (the paper's Section 7 roadmap item).
//!
//! A trigger names a *basic-change event* on a label anywhere in the
//! database — object creation, value update, arc addition or removal — an
//! optional Chorel *condition* over the bound variables, and an *action*.
//! Events compile to Chorel queries over the subscription's DOEM database,
//! scoped to the latest polling window with `t[-1]`:
//!
//! | event | compiled range |
//! |-------|----------------|
//! | `created l`  | `DB.#.l<cre at T>` |
//! | `updated l`  | `DB.#.l<upd at T from OV to NV>` |
//! | `added l`    | `DB.#.<add at T>l` |
//! | `removed l`  | `DB.#.<rem at T>l` |
//!
//! The bound variables `X` (the affected object), `T` (the event time),
//! and for updates `OV`/`NV` (old and new values) are available to the
//! condition, exactly like Chorel's annotation variables — because they
//! *are* Chorel's annotation variables.
//!
//! The condition is parsed as one whole Lorel expression
//! ([`lorel::parse_expr`]) and conjoined with the window in the AST, so
//! no condition text can reach outside its polling window.

use lorel::ast::{Expr, Query};
use lorel::{parse_expr, parse_query, QueryResult, Result};
use oem::Timestamp;
use std::fmt;

/// The event a trigger watches for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TriggerEvent {
    /// An object was created as the target of an `l`-labeled arc.
    Created(String),
    /// The value of an object under an `l`-labeled arc changed.
    Updated(String),
    /// An `l`-labeled arc was added.
    Added(String),
    /// An `l`-labeled arc was removed.
    Removed(String),
}

impl fmt::Display for TriggerEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerEvent::Created(l) => write!(f, "created {l}"),
            TriggerEvent::Updated(l) => write!(f, "updated {l}"),
            TriggerEvent::Added(l) => write!(f, "added {l}"),
            TriggerEvent::Removed(l) => write!(f, "removed {l}"),
        }
    }
}

/// What to do when the event fires and the condition holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerAction {
    /// Push a notification to subscribed clients (like a filter query).
    Notify,
    /// Record the firing in the server's trigger log only.
    Record,
}

/// An ECA trigger attached to a subscription.
#[derive(Clone, Debug)]
pub struct Trigger {
    /// The trigger's name.
    pub name: String,
    /// The watched event.
    pub event: TriggerEvent,
    /// Optional Chorel condition over `X`, `T`, `OV`, `NV`.
    pub condition: Option<String>,
    /// The action.
    pub action: TriggerAction,
    /// Whether the trigger currently fires (triggers can be disabled
    /// without being dropped).
    pub enabled: bool,
}

impl Trigger {
    /// A trigger with no condition that notifies.
    pub fn new(name: impl Into<String>, event: TriggerEvent) -> Trigger {
        Trigger {
            name: name.into(),
            event,
            condition: None,
            action: TriggerAction::Notify,
            enabled: true,
        }
    }

    /// Attach a condition (a Chorel boolean expression over `X`, `T`,
    /// `OV`, `NV`).
    pub fn when(mut self, condition: impl Into<String>) -> Trigger {
        self.condition = Some(condition.into());
        self
    }

    /// Use the record-only action.
    pub fn record_only(mut self) -> Trigger {
        self.action = TriggerAction::Record;
        self
    }

    /// Parse the trigger definition syntax:
    ///
    /// ```text
    /// create trigger NAME on (created|updated|added|removed) LABEL
    ///        [when CONDITION] [do (notify|record)]
    /// ```
    pub fn parse(src: &str) -> Result<Trigger> {
        let err = |msg: &str| lorel::LorelError::Syntax {
            line: 1,
            col: 1,
            msg: msg.to_string(),
        };
        let rest = src.trim();
        let rest = rest
            .strip_prefix("create trigger")
            .ok_or_else(|| err("expected `create trigger`"))?
            .trim_start();
        let (name, rest) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| err("expected a trigger name"))?;
        let rest = rest
            .trim_start()
            .strip_prefix("on")
            .ok_or_else(|| err("expected `on`"))?
            .trim_start();
        let (kind, rest) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| err("expected an event kind"))?;
        let (label, rest) = match rest.trim_start().split_once(char::is_whitespace) {
            Some((l, r)) => (l, r.trim_start()),
            None => (rest.trim(), ""),
        };
        if label.is_empty() {
            return Err(err("expected an event label"));
        }
        let event = match kind {
            "created" => TriggerEvent::Created(label.to_string()),
            "updated" => TriggerEvent::Updated(label.to_string()),
            "added" => TriggerEvent::Added(label.to_string()),
            "removed" => TriggerEvent::Removed(label.to_string()),
            other => return Err(err(&format!("unknown event kind {other:?}"))),
        };
        // Optional `when …`, up to a trailing `do notify` / `do record`.
        let (condition, action_text) = match rest.strip_prefix("when ") {
            Some(tail) => match tail.rsplit_once(" do ") {
                Some((cond, action)) if matches!(action.trim(), "notify" | "record") => {
                    (Some(cond.trim().to_string()), action.trim())
                }
                _ => (Some(tail.trim().to_string()), ""),
            },
            None => (None, rest.strip_prefix("do ").map(str::trim).unwrap_or(rest)),
        };
        let action = match action_text {
            "" | "notify" => TriggerAction::Notify,
            "record" => TriggerAction::Record,
            other => return Err(err(&format!("unknown action {other:?}"))),
        };
        let trigger = Trigger {
            name: name.to_string(),
            event,
            condition,
            action,
            enabled: true,
        };
        // Validate eagerly: the compiled form must parse as Chorel.
        trigger.compile("_probe")?;
        Ok(trigger)
    }

    /// Compile to the Chorel query evaluated against the DOEM database
    /// named `db_name` after each poll. `t[-1]` scopes the event to the
    /// newest polling interval; the condition, one whole expression, is
    /// conjoined with that window.
    pub fn compile(&self, db_name: &str) -> Result<Query> {
        let (select, range) = match &self.event {
            TriggerEvent::Created(l) => ("X, T", format!("{db_name}.#.{l}<cre at T> X")),
            TriggerEvent::Updated(l) => (
                "X, T, OV, NV",
                format!("{db_name}.#.{l}<upd at T from OV to NV> X"),
            ),
            TriggerEvent::Added(l) => ("X, T", format!("{db_name}.#.<add at T>{l} X")),
            TriggerEvent::Removed(l) => ("X, T", format!("{db_name}.#.<rem at T>{l} X")),
        };
        let mut query = parse_query(&format!("select {select} from {range} where T > t[-1]"))?;
        if let Some(cond) = &self.condition {
            let cond = parse_expr(cond)?;
            query.where_clause = query
                .where_clause
                .map(|window| Expr::And(Box::new(window), Box::new(cond)));
        }
        Ok(query)
    }
}

impl fmt::Display for Trigger {
    /// Prints the parseable `create trigger` syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "create trigger {} on {}", self.name, self.event)?;
        if let Some(cond) = &self.condition {
            write!(f, " when {cond}")?;
        }
        match self.action {
            TriggerAction::Notify => write!(f, " do notify"),
            TriggerAction::Record => write!(f, " do record"),
        }
    }
}

/// A recorded trigger firing.
#[derive(Clone, Debug)]
pub struct TriggerFiring {
    /// The subscription the trigger belongs to.
    pub subscription: String,
    /// The trigger's name.
    pub trigger: String,
    /// The polling time at which it fired.
    pub at: Timestamp,
    /// The matched events.
    pub result: QueryResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorel::{resolve_poll_times, run_chorel_parsed, Strategy};
    use doem::doem_figure4;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn eval(trigger: &Trigger, window_start: &str) -> QueryResult {
        let d = doem_figure4();
        let q = trigger.compile("guide").unwrap();
        // Simulate a poll window: t[-1] = window_start, t[0] = now.
        let q = resolve_poll_times(&q, &[ts(window_start), ts("9Jan97")]).unwrap();
        run_chorel_parsed(&d, &q, Strategy::Direct).unwrap()
    }

    #[test]
    fn created_trigger_sees_new_restaurants() {
        let t = Trigger::new("new-places", TriggerEvent::Created("restaurant".into()));
        assert_eq!(eval(&t, "31Dec96").len(), 1); // Hakata, created 1Jan97
        assert_eq!(eval(&t, "2Jan97").len(), 0); // window after the event
    }

    #[test]
    fn updated_trigger_binds_old_and_new_values() {
        let t = Trigger::new("price-watch", TriggerEvent::Updated("price".into()))
            .when("NV > OV");
        let r = eval(&t, "31Dec96");
        assert_eq!(r.len(), 1);
        let labels: Vec<&str> = r.rows[0].cols.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["price", "update-time", "old-value", "new-value"]);
        // A condition that rejects: the price went up, not down.
        let t = Trigger::new("discount-watch", TriggerEvent::Updated("price".into()))
            .when("NV < OV");
        assert_eq!(eval(&t, "31Dec96").len(), 0);
    }

    #[test]
    fn removed_trigger_fires_deep_in_the_graph() {
        let t = Trigger::new("parking-lost", TriggerEvent::Removed("parking".into()));
        let r = eval(&t, "7Jan97");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn added_trigger_with_value_condition() {
        let t = Trigger::new("comments", TriggerEvent::Added("comment".into()))
            .when("X = \"need info\"");
        assert_eq!(eval(&t, "4Jan97").len(), 1);
        let t = Trigger::new("comments", TriggerEvent::Added("comment".into()))
            .when("X = \"irrelevant\"");
        assert_eq!(eval(&t, "4Jan97").len(), 0);
    }

    #[test]
    fn compile_is_plain_chorel() {
        let t = Trigger::new("x", TriggerEvent::Updated("price".into())).when("NV > 10");
        let q = t.compile("guide").unwrap();
        let text = q.to_string();
        assert!(text.contains("<upd at T from OV to NV>"), "{text}");
        assert!(text.contains("t[-1]"), "{text}");
    }

    #[test]
    fn parse_trigger_definitions() {
        let t = Trigger::parse(
            "create trigger price-hike on updated price when NV > OV do notify",
        )
        .unwrap();
        assert_eq!(t.name, "price-hike");
        assert_eq!(t.event, TriggerEvent::Updated("price".into()));
        assert_eq!(t.condition.as_deref(), Some("NV > OV"));
        assert_eq!(t.action, TriggerAction::Notify);

        let t = Trigger::parse("create trigger gone on removed parking do record").unwrap();
        assert_eq!(t.action, TriggerAction::Record);
        assert!(t.condition.is_none());

        let t = Trigger::parse("create trigger fresh on created restaurant").unwrap();
        assert_eq!(t.action, TriggerAction::Notify);

        // Parsed triggers behave like built ones.
        assert_eq!(eval(&t, "31Dec96").len(), 1);

        for bad in [
            "make trigger x on created y",
            "create trigger x on exploded y",
            "create trigger x on created",
            "create trigger x on updated price do explode",
            "create trigger x on updated price when ((( do notify",
        ] {
            assert!(Trigger::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// A condition that closes the window's parenthesis early used to
    /// splice into `T > t[-1] and (NV > OV) or (NV > OV)` and fire outside
    /// its window.
    #[test]
    fn a_condition_cannot_escape_its_window() {
        let src = "create trigger t on updated price when NV > OV) or (NV > OV";
        assert!(Trigger::parse(src).is_err(), "accepted {src:?}");
        let escaping = Trigger::new("t", TriggerEvent::Updated("price".into()))
            .when("NV > OV) or (NV > OV");
        assert!(escaping.compile("guide").is_err());
        // The well-formed disjunction stays inside the window
        // (20Jan97, 21Jan97], which holds no event.
        let t = Trigger::new("t", TriggerEvent::Updated("price".into()))
            .when("(NV > OV) or (NV > OV)");
        let q = t.compile("guide").unwrap();
        let q = resolve_poll_times(&q, &[ts("20Jan97"), ts("21Jan97")]).unwrap();
        let r = run_chorel_parsed(&doem_figure4(), &q, Strategy::Direct).unwrap();
        assert_eq!(r.len(), 0);
        assert_eq!(eval(&t, "31Dec96").len(), 1);
    }

    /// Only a trailing `do notify` / `do record` is the action: a ` do `
    /// inside the condition's string literal stays in the condition.
    #[test]
    fn do_inside_a_condition_is_not_an_action() {
        let src = "create trigger t on added restaurant when X.name = \"eat do drink\"";
        let t = Trigger::parse(src).unwrap();
        assert_eq!(t.condition.as_deref(), Some("X.name = \"eat do drink\""));
        assert_eq!(t.action, TriggerAction::Notify);
        let t = Trigger::parse(
            "create trigger t on added restaurant when X.name = \"eat do drink\" do record",
        )
        .unwrap();
        assert_eq!(t.condition.as_deref(), Some("X.name = \"eat do drink\""));
        assert_eq!(t.action, TriggerAction::Record);
    }

    #[test]
    fn trigger_display_round_trips() {
        for src in [
            "create trigger price-hike on updated price when NV > OV do notify",
            "create trigger gone on removed parking do record",
        ] {
            let t = Trigger::parse(src).unwrap();
            assert_eq!(t.to_string(), src);
            let again = Trigger::parse(&t.to_string()).unwrap();
            assert_eq!(again.name, t.name);
            assert_eq!(again.event, t.event);
            assert_eq!(again.condition, t.condition);
            assert_eq!(again.action, t.action);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            TriggerEvent::Created("restaurant".into()).to_string(),
            "created restaurant"
        );
        assert_eq!(TriggerEvent::Removed("parking".into()).to_string(), "removed parking");
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The trigger parser must reject garbage with an error, never panic.
        #[test]
        fn trigger_parse_never_panics(src in "\\PC{0,80}") {
            let _ = Trigger::parse(&src);
        }

        /// Trigger-shaped soup reaches the event/condition/action arms.
        #[test]
        fn trigger_parse_never_panics_on_triggerish_input(
            src in "(create trigger |on |created |updated |when |do |notify|record|[a-z]{1,6}| ){0,12}"
        ) {
            let _ = Trigger::parse(&src);
        }
    }
}
