//! A textual OEM format, in the spirit of Lore's textual object syntax.
//!
//! Writer and parser for whole databases, used by fixtures, examples, and
//! golden tests. The format renders nesting directly and handles shared
//! subobjects and cycles through `&oid` definitions and references:
//!
//! ```text
//! guide {
//!   restaurant &n8 {
//!     name "Bangkok Cuisine",
//!     price 10,
//!     parking &n7 {
//!       name "Lytton lot 2",
//!       nearby-eats &n8          // reference back: a cycle
//!     }
//!   },
//!   restaurant {
//!     parking &n7                // reference: shared subobject
//!   }
//! }
//! ```
//!
//! An object is written as `[&oid] value`; a bare `&oid` with no following
//! value is a reference. With [`TextOptions::always_ids`], every node gets
//! an explicit id and parsing reproduces the database id-for-id.

use crate::notation::{is_word_char, node_number, LabelText, Reader};
use crate::{ArcTriple, NodeId, OemDatabase, OemError, Result, Value};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// How deeply `{…}` objects may nest in text [`parse_text`] reads. The
/// reader recurses once per level, so past this it answers a
/// [`OemError::Text`] error instead of running out of stack. Shared and
/// cyclic structure is written with `&oid` references and costs no depth.
pub const MAX_TEXT_NESTING: usize = 512;

/// Options controlling the writer.
#[derive(Clone, Copy, Debug, Default)]
pub struct TextOptions {
    /// Emit an `&nK` id for every object (not just shared ones), making the
    /// text a lossless, id-preserving encoding.
    pub always_ids: bool,
}

/// Serialize `db` to the textual format.
pub fn write_text(db: &OemDatabase, opts: TextOptions) -> String {
    // Nodes needing an id: shared (in-degree > 1) or revisited via a cycle.
    let mut indeg: HashMap<NodeId, usize> = HashMap::new();
    for arc in db.arcs() {
        *indeg.entry(arc.child).or_insert(0) += 1;
    }
    let needs_id =
        |n: NodeId| -> bool { opts.always_ids || indeg.get(&n).copied().unwrap_or(0) > 1 };

    let mut out = String::new();
    let mut defined: HashSet<NodeId> = HashSet::new();
    write!(out, "{} ", LabelText(db.name())).expect("write to String");
    write_object(db, db.root(), 0, &mut out, &mut defined, &needs_id, &indeg);
    out.push('\n');
    out
}

fn write_object(
    db: &OemDatabase,
    n: NodeId,
    indent: usize,
    out: &mut String,
    defined: &mut HashSet<NodeId>,
    needs_id: &dyn Fn(NodeId) -> bool,
    indeg: &HashMap<NodeId, usize>,
) {
    if defined.contains(&n) {
        write!(out, "&{n}").expect("write to String");
        return;
    }
    // A node on the current DFS path (cycle target) also needs a ref; we
    // treat all defined-set membership uniformly above, and mark nodes
    // *before* descending so back-edges become references.
    let show_id = needs_id(n) || on_a_cycle(db, n, indeg);
    defined.insert(n);
    if show_id {
        write!(out, "&{n} ").expect("write to String");
    }
    let value = db.value(n).expect("writer walks existing nodes");
    if value.is_atomic() {
        write!(out, "{value}").expect("write to String");
        if !show_id {
            defined.remove(&n); // atoms without ids can't be referenced
        }
        return;
    }
    let children = db.children(n);
    if children.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, &(label, child)) in children.iter().enumerate() {
        for _ in 0..indent + 1 {
            out.push_str("  ");
        }
        write!(out, "{} ", LabelText(label.as_str())).expect("write to String");
        write_object(db, child, indent + 1, out, defined, needs_id, indeg);
        if i + 1 < children.len() {
            out.push(',');
        }
        out.push('\n');
    }
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push('}');
}

/// Conservative cycle check: does any path from `n` lead back to `n`?
fn on_a_cycle(db: &OemDatabase, n: NodeId, _indeg: &HashMap<NodeId, usize>) -> bool {
    let mut seen = HashSet::new();
    let mut stack: Vec<NodeId> = db.children(n).iter().map(|&(_, c)| c).collect();
    while let Some(x) = stack.pop() {
        if x == n {
            return true;
        }
        if seen.insert(x) {
            stack.extend(db.children(x).iter().map(|&(_, c)| c));
        }
    }
    false
}

/// State for building the database while parsing.
struct Builder2 {
    db: OemDatabase,
    /// Text oid → node; nodes may be created as placeholders on first
    /// reference and filled in at their definition.
    named: HashMap<String, NodeId>,
    defined: HashSet<String>,
}

impl Builder2 {
    fn node_for(&mut self, name: &str) -> Result<NodeId> {
        if let Some(&n) = self.named.get(name) {
            return Ok(n);
        }
        // Prefer the numeric id embedded in `nK` names so id-preserving
        // round trips work; fall back to a fresh id.
        let n = match node_number(name).map(NodeId::from_raw) {
            Some(id) if self.db.is_fresh(id) => {
                self.db.create_node_with_id(id, Value::Complex)?;
                id
            }
            _ => self.db.create_node(Value::Complex),
        };
        self.named.insert(name.to_string(), n);
        Ok(n)
    }
}

/// Parse the textual format into a database.
pub fn parse_text(src: &str) -> Result<OemDatabase> {
    let mut p = Reader::new(src);
    let name = p.label()?;
    // Optional explicit root id.
    let root_name = if p.eat('&') { Some(p.word()?) } else { None };
    // Without an explicit root id, pick one above every `&nK` mentioned in
    // the source so user-chosen ids never collide with the root.
    let root_id = match root_name.and_then(node_number) {
        Some(raw) => raw,
        None => max_mentioned_id(src)
            .checked_add(1)
            .ok_or_else(|| p.err("node ids leave no room for the root"))?,
    };
    let root_id = NodeId::from_raw(root_id);
    let mut b = Builder2 {
        db: OemDatabase::with_root_id(name.as_str(), root_id),
        named: HashMap::new(),
        defined: HashSet::new(),
    };
    if let Some(rn) = root_name {
        b.named.insert(rn.to_string(), root_id);
        b.defined.insert(rn.to_string());
    }
    if !parse_value_into(&mut p, &mut b, root_id, 0)? {
        return Err(p.err("expected a value"));
    }
    p.done()?;
    b.db.check_invariants().map_err(|msg| OemError::Text {
        line: 0,
        col: 0,
        msg,
    })?;
    Ok(b.db)
}

/// The largest numeric id mentioned as `&nK` anywhere in the source.
fn max_mentioned_id(src: &str) -> u64 {
    src.split('&')
        .skip(1)
        .filter_map(|s| node_number(s.split(|c| !is_word_char(c)).next()?))
        .max()
        .unwrap_or(0)
}

/// Parse an object (which may be `&oid`, `&oid value`, or a bare value)
/// nested `depth` levels deep and return its node.
fn parse_object(p: &mut Reader, b: &mut Builder2, depth: usize) -> Result<NodeId> {
    if !p.eat('&') {
        let n = b.db.create_node(Value::Complex);
        if !parse_value_into(p, b, n, depth)? {
            return Err(p.err("expected a value"));
        }
        return Ok(n);
    }
    let name = p.word()?;
    let n = b.node_for(name)?;
    if parse_value_into(p, b, n, depth)? && !b.defined.insert(name.to_string()) {
        return Err(p.err(format!("object &{name} defined twice")));
    }
    Ok(n)
}

/// Parse the value of `n` if one starts here — `{label object, …}` or an
/// atom — and say whether one did. `depth` counts the enclosing `{`s.
fn parse_value_into(p: &mut Reader, b: &mut Builder2, n: NodeId, depth: usize) -> Result<bool> {
    if p.eat('{') {
        if depth == MAX_TEXT_NESTING {
            return Err(p.err(format!(
                "objects nested deeper than {MAX_TEXT_NESTING} levels"
            )));
        }
        b.db.set_value(n, Value::Complex)?;
        while !p.eat('}') {
            let label = p.label()?;
            let child = parse_object(p, b, depth + 1)?;
            b.db.insert_arc(ArcTriple::new(n, label, child))?;
            p.eat(',');
        }
        return Ok(true);
    }
    match p.atom()? {
        Some(v) => b.db.set_value(n, v).map(|()| true),
        None => Ok(false),
    }
}

impl std::fmt::Display for OemDatabase {
    /// Databases display in the textual OEM format (shared/cyclic nodes
    /// get explicit ids).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&write_text(self, TextOptions::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guide::guide_figure2;
    use crate::{isomorphic, same_database, GraphBuilder};

    #[test]
    fn simple_database_round_trips() {
        let mut b = GraphBuilder::new("guide");
        let root = b.root();
        let rest = b.complex_child(root, "restaurant");
        b.atom_child(rest, "name", "Janta");
        b.atom_child(rest, "price", 10);
        b.atom_child(rest, "rating", 4.5);
        b.atom_child(rest, "open", true);
        let db = b.finish();
        let text = write_text(&db, TextOptions::default());
        let back = parse_text(&text).unwrap();
        assert!(isomorphic(&db, &back));
        assert_eq!(back.name(), "guide");
    }

    #[test]
    fn guide_round_trips_isomorphically() {
        let db = guide_figure2();
        let text = write_text(&db, TextOptions::default());
        let back = parse_text(&text).unwrap();
        assert!(isomorphic(&db, &back), "text was:\n{text}");
    }

    #[test]
    fn always_ids_round_trips_identically() {
        let db = guide_figure2();
        let text = write_text(&db, TextOptions { always_ids: true });
        let back = parse_text(&text).unwrap();
        assert!(same_database(&db, &back), "text was:\n{text}");
    }

    #[test]
    fn shared_nodes_use_references() {
        let db = guide_figure2();
        let text = write_text(&db, TextOptions::default());
        // n7 appears once as a definition and once as a bare reference.
        assert_eq!(text.matches("&n7").count(), 2, "text was:\n{text}");
    }

    #[test]
    fn cycles_are_printable_and_parseable() {
        let mut b = GraphBuilder::new("g");
        let root = b.root();
        let a = b.complex_child(root, "a");
        b.arc(a, "self", a); // tight self-loop
        b.arc(a, "up", root); // cycle through the root
        let db = b.finish();
        let text = write_text(&db, TextOptions::default());
        let back = parse_text(&text).unwrap();
        assert!(isomorphic(&db, &back), "text was:\n{text}");
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let mut b = GraphBuilder::new("g");
        let root = b.root();
        b.atom_child(root, "note", "line1\nline2 \"quoted\" \\slash");
        let db = b.finish();
        let back = parse_text(&write_text(&db, TextOptions::default())).unwrap();
        assert!(isomorphic(&db, &back));
    }

    #[test]
    fn odd_labels_are_backquoted() {
        let mut b = GraphBuilder::new("g");
        let root = b.root();
        b.atom_child(root, "label with space", 1);
        b.atom_child(root, "&val", 2);
        b.atom_child(root, "a`b", 3);
        let db = b.finish();
        let text = write_text(&db, TextOptions::default());
        assert!(text.contains("`label with space`"));
        // &-prefixed labels are identifier-shaped and need no quoting.
        assert!(text.contains("&val"));
        let back = parse_text(&text).unwrap();
        assert!(isomorphic(&db, &back));
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_text("guide {\n  name \"unterminated\n}").unwrap_err();
        match err {
            OemError::Text { line, .. } => assert!(line >= 2),
            other => panic!("expected text error, got {other:?}"),
        }
        assert!(parse_text("guide { price }").is_err());
        assert!(parse_text("guide { price 1 } extra").is_err());
    }

    #[test]
    fn timestamp_atoms_round_trip() {
        let mut b = GraphBuilder::new("g");
        let root = b.root();
        let t: crate::Timestamp = "30Dec96 11:30pm".parse().unwrap();
        b.atom_child(root, "polled-at", t);
        let db = b.finish();
        let text = write_text(&db, TextOptions::default());
        assert!(text.contains("@30Dec96 11:30pm"));
        let back = parse_text(&text).unwrap();
        assert!(isomorphic(&db, &back));
        let text = write_text(&db, TextOptions { always_ids: true });
        assert!(same_database(&db, &parse_text(&text).unwrap()), "{text}");
    }

    #[test]
    fn comments_are_skipped() {
        let db = parse_text("guide { // a comment\n  price 10\n}").unwrap();
        assert_eq!(db.node_count(), 2);
    }

    #[test]
    fn duplicate_definition_is_rejected() {
        let src = "g { a &x { v 1 }, b &x { v 2 } }";
        assert!(parse_text(src).is_err());
    }

    #[test]
    fn empty_complex_object_parses() {
        let db = parse_text("g { item {} }").unwrap();
        assert_eq!(db.node_count(), 2);
        assert_eq!(db.arc_count(), 1);
    }

    /// `depth` nested `{a …}` objects around an atom.
    fn nested(depth: usize) -> String {
        format!("g {}1{}", "{a ".repeat(depth), "}".repeat(depth))
    }

    #[test]
    fn nesting_is_read_to_the_budget_and_refused_past_it() {
        // On a small fixed stack, so a reader that recursed without a
        // bound would abort here rather than pass.
        std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(|| {
                let db = parse_text(&nested(MAX_TEXT_NESTING)).unwrap();
                assert_eq!(db.node_count(), MAX_TEXT_NESTING + 1);
                for depth in [MAX_TEXT_NESTING + 1, 200_000] {
                    match parse_text(&nested(depth)) {
                        Err(OemError::Text { msg, .. }) => {
                            assert!(msg.contains("nested deeper than"), "{msg}")
                        }
                        other => panic!("depth {depth}: {other:?}"),
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}

#[cfg(test)]
mod fuzz_tests {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// All the textual parsers reject garbage with errors, never panic.
        #[test]
        fn parsers_never_panic(src in "\\PC{0,120}") {
            let _ = super::parse_text(&src);
            let _ = crate::parse_op(&src);
            let _ = crate::parse_change_set(&src);
            let _ = crate::parse_history(&src);
            let _ = src.parse::<crate::Timestamp>();
        }

        /// Structured fragments assembled from format atoms never panic.
        #[test]
        fn structured_fragments_never_panic(
            parts in proptest::collection::vec(
                proptest::sample::select(vec![
                    "guide", "{", "}", "&n1", "&n2", "name", "price",
                    "\"x\"", "10", "2.5", "true", "C", ",", "@1Jan97",
                    "`odd label`", "//c\n", "`a\\`b`", "\"quoted label\"", "-.5e3",
                    "1e400",
                ]),
                0..16,
            )
        ) {
            let src = parts.join(" ");
            if let Ok(db) = super::parse_text(&src) {
                db.check_invariants().unwrap();
                // Whatever parsed must round-trip through the writer.
                let text = super::write_text(&db, super::TextOptions::default());
                let back = super::parse_text(&text).unwrap();
                prop_assert!(crate::isomorphic(&db, &back));
            }
        }
    }
}
