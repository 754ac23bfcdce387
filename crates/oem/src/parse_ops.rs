//! Parsing change operations, change sets and histories from the paper's
//! textual notation — the inverse of their `Display` forms:
//!
//! ```text
//! creNode(n2, C)
//! updNode(n1, 20)
//! addArc(n4, restaurant, n2)
//! remArc(n6, parking, n7)
//! {updNode(n1, 20), creNode(n2, C)}
//! (1Jan97, {updNode(n1, 20)})
//! ```
//!
//! A label that is not a bare word is quoted: `` addArc(n1, `my label`, n2) ``
//! (`"my label"` reads too). The lexical rules live in `notation`.

use crate::notation::Reader;
use crate::{ArcTriple, ChangeOp, ChangeSet, History, Result};

fn op(r: &mut Reader) -> Result<ChangeOp> {
    let kind = r.word()?;
    r.expect('(')?;
    let op = match kind {
        "creNode" | "updNode" => {
            let n = r.node_id()?;
            r.expect(',')?;
            let v = r.value()?;
            if kind == "creNode" {
                ChangeOp::CreNode(n, v)
            } else {
                ChangeOp::UpdNode(n, v)
            }
        }
        "addArc" | "remArc" => {
            let p = r.node_id()?;
            r.expect(',')?;
            let label = r.label()?;
            r.expect(',')?;
            let arc = ArcTriple::new(p, label, r.node_id()?);
            if kind == "addArc" {
                ChangeOp::AddArc(arc)
            } else {
                ChangeOp::RemArc(arc)
            }
        }
        other => {
            return Err(r.err(format!(
                "expected creNode/updNode/addArc/remArc, found {other:?}"
            )))
        }
    };
    r.expect(')')?;
    Ok(op)
}

fn change_set(r: &mut Reader) -> Result<ChangeSet> {
    r.expect('{')?;
    let mut set = ChangeSet::new();
    while !r.eat('}') {
        set.push(op(r)?)?;
        r.eat(',');
    }
    Ok(set)
}

/// Parse a single change operation in the paper's notation.
pub fn parse_op(src: &str) -> Result<ChangeOp> {
    let mut r = Reader::new(src);
    let op = op(&mut r)?;
    r.done()?;
    Ok(op)
}

/// Parse a change set: `{op, op, …}` (or a single bare op).
pub fn parse_change_set(src: &str) -> Result<ChangeSet> {
    let mut r = Reader::new(src);
    let set = if r.peek() == Some('{') {
        change_set(&mut r)?
    } else {
        ChangeSet::from_ops([op(&mut r)?])?
    };
    r.done()?;
    Ok(set)
}

/// Parse a history: `(timestamp, {ops})` entries, written one per line
/// (`//` comments ignored).
pub fn parse_history(src: &str) -> Result<History> {
    let mut r = Reader::new(src);
    let mut h = History::new();
    while r.peek().is_some() {
        r.expect('(')?;
        let at = r.timestamp()?;
        r.expect(',')?;
        let set = change_set(&mut r)?;
        r.expect(')')?;
        h.push(at, set)?;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guide::history_example_2_3;
    use crate::{NodeId, OemError, Value};

    #[test]
    fn ops_round_trip_their_display_forms() {
        for text in [
            "creNode(n2, C)",
            "creNode(n3, \"Hakata\")",
            "updNode(n1, 20)",
            "updNode(n1, 20.5)",
            "updNode(n1, true)",
            "addArc(n4, restaurant, n2)",
            "remArc(n6, parking, n7)",
        ] {
            let op = parse_op(text).unwrap();
            assert_eq!(op.to_string(), text);
        }
    }

    #[test]
    fn timestamp_values_parse() {
        let op = parse_op("updNode(n5, @1Jan97)").unwrap();
        assert_eq!(
            op,
            ChangeOp::UpdNode(NodeId::from_raw(5), Value::Time("1Jan97".parse().unwrap()))
        );
    }

    #[test]
    fn change_sets_round_trip() {
        let text = "{updNode(n1, 20), creNode(n2, C), addArc(n4, restaurant, n2)}";
        let set = parse_change_set(text).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.to_string(), text);
        // Bare single op also accepted.
        assert_eq!(
            parse_change_set("remArc(n6, parking, n7)").unwrap().len(),
            1
        );
    }

    #[test]
    fn example_2_3_history_round_trips() {
        let h = history_example_2_3();
        let text = h.to_string();
        let back = parse_history(&text).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn bad_inputs_error() {
        assert!(parse_op("delNode(n1)").is_err());
        assert!(parse_op("updNode(x1, 20)").is_err());
        assert!(parse_op("updNode(n1, 20) extra").is_err());
        assert!(parse_change_set("{updNode(n1, 1), updNode(n1, 2)}").is_err()); // conflict
        assert!(parse_history("(notadate, {creNode(n1, C)})").is_err());
        let huge = format!("{{creNode(n3, 1{}.0)}}", "0".repeat(400));
        assert!(matches!(
            parse_change_set(&huge),
            Err(OemError::Text { .. })
        ));
    }

    #[test]
    fn quoted_labels_parse() {
        let op = parse_op("addArc(n1, \"label with space\", n2)").unwrap();
        let ChangeOp::AddArc(a) = op else { panic!() };
        assert_eq!(a.label.as_str(), "label with space");
        let op = ChangeOp::add_arc(NodeId::from_raw(1), "my label", NodeId::from_raw(2));
        assert_eq!(op.to_string(), "addArc(n1, `my label`, n2)");
        for label in ["a,b", "x)", "a.b", "", "a`b", "line\nbreak", "//"] {
            let op = ChangeOp::rem_arc(NodeId::from_raw(1), label, NodeId::from_raw(2));
            assert_eq!(parse_op(&op.to_string()).unwrap(), op, "{op}");
        }
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// All three change-notation entry points must reject garbage with
        /// an error, never panic.
        #[test]
        fn change_notation_parsers_never_panic(src in "\\PC{0,80}") {
            let _ = parse_op(&src);
            let _ = parse_change_set(&src);
            let _ = parse_history(&src);
        }

        /// Op-shaped soup (names, parens, commas, quotes) reaches the
        /// argument parsing that plain garbage bounces off.
        #[test]
        fn change_notation_parsers_never_panic_on_opish_input(
            src in "(creNode|remArc|updNode|addArc|\\(|\\)|,|\\{|\\}|n[0-9]|\"|at | ){0,25}"
        ) {
            let _ = parse_op(&src);
            let _ = parse_change_set(&src);
            let _ = parse_history(&src);
        }
    }
}
