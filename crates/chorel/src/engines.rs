//! Running Chorel queries: the two execution strategies of Section 5, and
//! cross-checking utilities used heavily by the test suites.

use crate::{translate, AtSource, DirectSource, EncodedSource};
use doem::{encode_doem, snapshot_at, DoemDatabase};
use lorel::ast::Query;
use lorel::{run_parsed, Binding, DataSource, QueryResult, Result, Rows};
use oem::{NodeId, Timestamp, Value};

/// Which execution strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluate annotation expressions natively over the DOEM database.
    Direct,
    /// Encode the database in OEM (Section 5.1), translate the query to
    /// pure Lorel (Section 5.2), and run the plain Lorel engine.
    Translated,
}

/// Parse and run a Chorel query against a DOEM database with the chosen
/// strategy.
pub fn run_chorel(d: &DoemDatabase, text: &str, strategy: Strategy) -> Result<QueryResult> {
    let query = lorel::parse_query(text)?;
    run_chorel_parsed(d, &query, strategy)
}

/// Run an already parsed Chorel query.
pub fn run_chorel_parsed(
    d: &DoemDatabase,
    query: &Query,
    strategy: Strategy,
) -> Result<QueryResult> {
    match strategy {
        Strategy::Direct => run_parsed(&DirectSource::new(d), query),
        Strategy::Translated => {
            let lorel_query = translate(query, d.name())?;
            let encoded = EncodedSource::new(encode_doem(d).oem);
            run_parsed(&encoded, &lorel_query)
        }
    }
}

/// Evaluate an already parsed query by the direct strategy and return the
/// engine's rows, unpackaged. Every object they bind is an object of
/// `d`'s graph, so [`crate::delta::canonical_strings_for_rows`] renders
/// them without a result database; [`run_chorel_parsed`] packages the
/// same rows as Section 6 asks of a polling result.
pub fn run_direct_rows(d: &DoemDatabase, query: &Query) -> Result<Rows> {
    rows_over(&DirectSource::new(d), query)
}

/// Plan `query` against `source` and execute it.
fn rows_over(source: &dyn DataSource, query: &Query) -> Result<Rows> {
    lorel::execute(source, &lorel::plan(query, source.name())?)
}

/// Evaluate `query` over `O_t(d)` — the state `d` had at time `t`
/// (Section 3.2) — and return the canonical row strings, byte-identical
/// to evaluating over `DoemDatabase::from_snapshot(&snapshot_at(d, t))`.
///
/// The direct strategy reads `d` through the lazy [`AtSource`] view,
/// touches only what the query reaches, and renders the engine's rows as
/// they are. The translated strategy encodes
/// the whole database it runs on (Section 5.1) whatever the query, so it
/// materialises the snapshot first.
pub fn run_chorel_at(
    d: &DoemDatabase,
    t: Timestamp,
    query: &Query,
    strategy: Strategy,
) -> Result<Vec<String>> {
    match strategy {
        Strategy::Direct => {
            let view = AtSource::new(d, t);
            let rows = rows_over(&view, query)?;
            Ok(view.canonical_row_strings(&rows))
        }
        Strategy::Translated => {
            let snapshot = DoemDatabase::from_snapshot(&snapshot_at(d, t));
            let result = run_chorel_parsed(&snapshot, query, strategy)?;
            Ok(canonical_row_strings(&snapshot, &result))
        }
    }
}

/// A strategy-independent canonical form of a binding, for comparing the
/// two engines' results:
///
/// * nodes of the DOEM graph compare by id (the encoding preserves ids);
/// * encoding-auxiliary atoms (timestamps, old/new values) and direct
///   value bindings compare by value.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CanonBinding {
    /// A graph object.
    Id(NodeId),
    /// A computed value.
    V(Value),
    /// Missing.
    None,
}

/// Canonicalize one result for comparison across strategies. Rows are
/// sorted and deduplicated: under the encoding, two annotations with equal
/// payloads are *distinct atoms* (so the translated engine's set semantics
/// keeps both), while the direct engine binds equal values (one row) — the
/// canonical form erases exactly that representation difference.
pub fn canonical_rows(
    d: &DoemDatabase,
    result: &QueryResult,
) -> Vec<Vec<(String, CanonBinding)>> {
    canonical_rows_by(
        |n| d.graph().contains_node(n),
        &result.rows,
        |n| result.db.value(n).ok().cloned(),
    )
}

/// [`canonical_rows`] over bare rows, with the "is an object of the
/// queried graph" test supplied by the caller (a view has no graph of its
/// own to ask) and `aux_value` reading the encoding-auxiliary atoms that
/// live only in a packaged result.
pub(crate) fn canonical_rows_by(
    is_graph_node: impl Fn(NodeId) -> bool,
    rows: &[lorel::Row],
    aux_value: impl Fn(NodeId) -> Option<Value>,
) -> Vec<Vec<(String, CanonBinding)>> {
    let mut rows: Vec<Vec<(String, CanonBinding)>> = rows
        .iter()
        .map(|row| {
            row.cols
                .iter()
                .map(|(label, b)| {
                    let cb = match b {
                        Binding::Missing => CanonBinding::None,
                        Binding::Val(v) => CanonBinding::V(v.clone()),
                        Binding::Node(n) => {
                            if is_graph_node(*n) {
                                CanonBinding::Id(*n)
                            } else {
                                // Encoding-auxiliary atom: compare by value.
                                aux_value(*n).map_or(CanonBinding::None, CanonBinding::V)
                            }
                        }
                    };
                    (label.clone(), cb)
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

/// Render canonical rows as stable text lines, one row per line, columns
/// tab-separated as `label=binding`. This is the wire format of the serve
/// crate's `ROW` responses, shared here so clients and tests can compare
/// server output against a locally evaluated query byte for byte.
pub fn canonical_row_strings(d: &DoemDatabase, result: &QueryResult) -> Vec<String> {
    render_canonical_rows(&canonical_rows(d, result))
}

/// The `label=binding` text form of canonical rows.
pub(crate) fn render_canonical_rows(rows: &[Vec<(String, CanonBinding)>]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|(label, b)| match b {
                    CanonBinding::Id(n) => format!("{label}=&{n}"),
                    CanonBinding::V(v) => format!("{label}={v}"),
                    CanonBinding::None => format!("{label}=⊥"),
                })
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect()
}

/// Run both strategies and assert they agree; returns the direct result.
///
/// This is the workhorse of the equivalence test suite (and of the X1
/// benchmark's correctness precondition).
pub fn run_both_checked(d: &DoemDatabase, text: &str) -> Result<QueryResult> {
    let direct = run_chorel(d, text, Strategy::Direct)?;
    let translated = run_chorel(d, text, Strategy::Translated)?;
    let a = canonical_rows(d, &direct);
    let b = canonical_rows(d, &translated);
    if a != b {
        return Err(lorel::LorelError::LimitExceeded(format!(
            "strategy mismatch for {text:?}:\n direct:     {a:?}\n translated: {b:?}"
        )));
    }
    Ok(direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doem::doem_figure4;
    use oem::guide::ids;
    use oem::Timestamp;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn example_4_2_new_restaurants() {
        // `select guide.<add>restaurant` returns Hakata only — via both
        // strategies.
        let d = doem_figure4();
        let r = run_both_checked(&d, "select guide.<add>restaurant").unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::N2]);
    }

    #[test]
    fn example_4_3_added_before_jan_4() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select guide.<add at T>restaurant where T < 4Jan97",
        )
        .unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::N2]);
        // And nothing qualifies strictly before 1Jan97.
        let r = run_both_checked(
            &d,
            "select guide.<add at T>restaurant where T < 1Jan97",
        )
        .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn example_4_4_price_updates() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select N, T, NV \
             from guide.restaurant.price<upd at T to NV>, guide.restaurant.name N \
             where T >= 1Jan97 and NV > 15",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        let row = &r.rows[0];
        assert_eq!(row.cols[0].0, "name");
        assert_eq!(row.cols[1].0, "update-time");
        assert_eq!(row.cols[2].0, "new-value");
        // The single answer: Bangkok Cuisine, 1Jan97, 20.
        assert_eq!(row.cols[0].1, Binding::Node(oem::NodeId::from_raw(9)));
        assert_eq!(row.cols[1].1, Binding::Val(Value::Time(ts("1Jan97"))));
        assert_eq!(row.cols[2].1, Binding::Val(Value::Int(20)));
    }

    #[test]
    fn example_4_5_no_moderate_price_was_added() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select N from guide.restaurant R, R.name N \
             where R.<add at T>price = \"moderate\" and T >= 1Jan97",
        )
        .unwrap();
        // Janta's "moderate" price was in the original snapshot, not
        // added during the history: empty result.
        assert!(r.is_empty());
    }

    #[test]
    fn example_4_5_positive_variant() {
        // The comment "need info" WAS added (to Hakata, 5Jan97).
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select N from guide.restaurant R, R.name N \
             where R.<add at T>comment = \"need info\" and T >= 1Jan97",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.nodes_in_column(0), vec![ids::N3]); // "Hakata"
    }

    #[test]
    fn removed_arcs_are_queryable() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select R.name from guide.restaurant R \
             where R.<rem at T>parking and T >= 8Jan97",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        let db = d.graph();
        let Binding::Node(n) = r.rows[0].cols[0].1 else {
            panic!()
        };
        assert_eq!(db.value(n).unwrap(), &Value::str("Janta"));
    }

    #[test]
    fn plain_queries_see_the_current_snapshot_in_both_engines() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select guide.restaurant where guide.restaurant.price < 20.5",
        )
        .unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::BANGKOK]);
        // Janta's parking is removed: current snapshot has no such path.
        let r = run_both_checked(
            &d,
            "select R from guide.restaurant R where R.parking.name = \"Lytton lot 2\"",
        )
        .unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::BANGKOK]);
    }

    #[test]
    fn wildcards_agree_between_engines() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select guide.restaurant where guide.restaurant.# like \"%Lytton%\"",
        )
        .unwrap();
        // Bangkok (address.street "Lytton" + parking name) and Janta
        // (address "120 Lytton"); Janta's parking arc is removed but its
        // address still matches.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn cre_time_selection_and_filtering() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select R, T from guide.restaurant R, R.comment<cre at T>",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0].cols[1].1, Binding::Val(Value::Time(ts("5Jan97"))));
    }

    #[test]
    fn upd_from_old_value() {
        let d = doem_figure4();
        let r = run_both_checked(
            &d,
            "select OV from guide.restaurant.price<upd from OV>",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0].cols[0].0, "old-value");
        assert_eq!(r.rows[0].cols[0].1, Binding::Val(Value::Int(10)));
    }

    #[test]
    fn annotated_percent_wildcard_direct_engine() {
        // Section 7 extension: annotation expressions on `%`.
        let d = doem_figure4();
        // Every arc added anywhere below a restaurant object:
        let r = run_chorel(
            &d,
            "select X, T from guide.restaurant.<add at T>% X",
            Strategy::Direct,
        )
        .unwrap();
        // Hakata's name (1Jan97) and comment (5Jan97) arcs.
        assert_eq!(r.len(), 2);
        // Every arc removed anywhere one step below the root's children:
        let r = run_chorel(
            &d,
            "select X from guide.restaurant.<rem>% X",
            Strategy::Direct,
        )
        .unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::N7]);
        // Node annotations on `%` run through BOTH engines.
        let r = run_both_checked(&d, "select guide.restaurant.%<cre at T> where T > 2Jan97")
            .unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::N5]); // "need info"
        // Virtual `<at τ>%`: children as of a historical time.
        let r = run_chorel(
            &d,
            "select R from guide.restaurant R where R.<at 5Jan97>parking",
            Strategy::Direct,
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        // Arc annotations on `%` are direct-engine only.
        assert!(run_chorel(
            &d,
            "select guide.restaurant.<add>%",
            Strategy::Translated
        )
        .is_err());
    }

    #[test]
    fn regex_paths_agree_between_engines() {
        let d = doem_figure4();
        // Alternation over current arcs.
        let r = run_both_checked(&d, "select guide.restaurant.(price|cuisine)").unwrap();
        assert_eq!(r.len(), 3);
        // Alternation with an arc annotation: either kind of added arc.
        let r = run_both_checked(
            &d,
            "select X, T from guide.restaurant.<add at T>(name|comment) X",
        )
        .unwrap();
        assert_eq!(r.len(), 2); // Hakata's name (1Jan97) and comment (5Jan97)
        // Kleene closure through the parking cycle.
        let r = run_both_checked(
            &d,
            "select R.(parking|nearby-eats)*.name from guide.restaurant R              where R.name = \"Bangkok Cuisine\"",
        )
        .unwrap();
        assert_eq!(r.len(), 2); // Bangkok's own name + the lot's name
    }

    #[test]
    fn labels_no_arc_carries_match_nothing_in_both_engines() {
        let d = doem_figure4();
        for q in [
            "select guide.never-a-label",
            "select guide.<add>never-a-label",
            "select X, T from guide.restaurant.<rem at T>never-a-label X",
            "select guide.restaurant.never-a-label<upd at T> where T > 1Jan97",
            "select guide.never-a-label*.name",
        ] {
            assert!(run_both_checked(&d, q).unwrap().is_empty(), "{q}");
        }
        // Beside a known label, an unknown one drops out of the pattern.
        let r = run_both_checked(&d, "select guide.restaurant.(never-a-label|price)").unwrap();
        assert_eq!(r.len(), 2);
        // Under `or`, direct only: the translated strategy drops rows when
        // an inner step of an `or` branch is unbound, whatever its label.
        let r = run_chorel(
            &d,
            "select R from guide.restaurant R where R.never-a-label = 1 or R.name = \"Janta\"",
            Strategy::Direct,
        )
        .unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::N6]);
    }

    #[test]
    fn virtual_annotations_work_directly_and_fail_translated() {
        let d = doem_figure4();
        // Historical value of Bangkok's price before the update.
        let r = run_chorel(
            &d,
            "select guide.restaurant.price<at 31Dec96>",
            Strategy::Direct,
        )
        .unwrap();
        // Bangkok's price was 10 then; Janta's was already "moderate".
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0].cols[0].1, Binding::Val(Value::Int(10)));
        assert_eq!(r.rows[1].cols[0].1, Binding::Val(Value::str("moderate")));
        assert!(run_chorel(
            &d,
            "select guide.restaurant.price<at 31Dec96>",
            Strategy::Translated
        )
        .is_err());

        // Historical edge traversal: Janta still had parking on 5Jan97.
        let r = run_chorel(
            &d,
            "select R from guide.restaurant R where R.<at 5Jan97>parking",
            Strategy::Direct,
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        let r = run_chorel(
            &d,
            "select R from guide.restaurant R where R.<at 9Jan97>parking",
            Strategy::Direct,
        )
        .unwrap();
        assert_eq!(r.nodes_in_column(0), vec![ids::BANGKOK]);
    }

    /// `g.x` with arcs `a, b, a, b` (the third has a `b` child below it),
    /// then an `a` and a `b` arc added on 1Jan97 and the first `a` and `b`
    /// arcs removed on 2Jan97. Returns the database and `x`'s children in
    /// original arc order, the deep child, and the two added children.
    fn interleaved() -> (DoemDatabase, [NodeId; 4], NodeId, [NodeId; 2]) {
        let mut b = oem::GraphBuilder::new("g");
        let x = b.complex_child(b.root(), "x");
        let a1 = b.atom_child(x, "a", "a1");
        let b1 = b.atom_child(x, "b", "b1");
        let a2 = b.complex_child(x, "a");
        let b2 = b.atom_child(x, "b", "b2");
        let deep = b.atom_child(a2, "b", "deep");
        let mut d = DoemDatabase::from_snapshot(&b.finish());
        let (a3, b3) = (NodeId::from_raw(100), NodeId::from_raw(101));
        let add = oem::ChangeSet::from_ops([
            oem::ChangeOp::CreNode(a3, Value::str("a3")),
            oem::ChangeOp::CreNode(b3, Value::str("b3")),
            oem::ChangeOp::add_arc(x, "a", a3),
            oem::ChangeOp::add_arc(x, "b", b3),
        ])
        .unwrap();
        d.apply(&add, ts("1Jan97")).unwrap();
        let rem = oem::ChangeSet::from_ops([
            oem::ChangeOp::rem_arc(x, "a", a1),
            oem::ChangeOp::rem_arc(x, "b", b1),
        ])
        .unwrap();
        d.apply(&rem, ts("2Jan97")).unwrap();
        (d, [a1, b1, a2, b2], deep, [a3, b3])
    }

    /// The nodes `select X from g.x.<step> X` binds, in row order.
    fn direct_order(d: &DoemDatabase, step: &str) -> Vec<NodeId> {
        let q = lorel::parse_query(&format!("select X from g.x.{step} X")).unwrap();
        let rows = run_direct_rows(d, &q).unwrap();
        rows.rows
            .iter()
            .map(|r| match r.cols[0].1 {
                Binding::Node(n) => n,
                ref other => panic!("{step}: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn direct_rows_keep_child_bfs_and_pattern_order() {
        let (d, [a1, b1, a2, b2], deep, [a3, b3]) = interleaved();
        let x = d.graph().children(d.root())[0].1;
        // Child order for one-arc steps over the current snapshot.
        assert_eq!(direct_order(&d, "a"), [a2, a3]);
        assert_eq!(direct_order(&d, "(b|a)"), [a2, b2, a3, b3]);
        assert_eq!(direct_order(&d, "%"), [a2, b2, a3, b3]);
        // BFS order, the base first, for closures.
        assert_eq!(direct_order(&d, "(a|b)*"), [x, a2, b2, a3, b3, deep]);
        assert_eq!(direct_order(&d, "#"), [x, a2, b2, a3, b3, deep]);
        // Pattern order, then child order, for annotated alternations.
        assert_eq!(direct_order(&d, "<add>(b|a)"), [b3, a3]);
        assert_eq!(direct_order(&d, "<rem>(b|a)"), [b1, a1]);
        assert_eq!(direct_order(&d, "<at 31Dec96>(b|a)"), [b1, b2, a1, a2]);
    }

    #[test]
    fn translated_results_keep_the_encoding_arcs_of_bound_objects() {
        let d = doem_figure4();
        let r = run_chorel(&d, "select guide.restaurant", Strategy::Translated).unwrap();
        let bangkok = r.db.children(ids::BANGKOK);
        assert!(bangkok.iter().any(|(l, _)| l.is_reserved()), "{bangkok:?}");
        assert!(bangkok.iter().any(|(l, _)| !l.is_reserved()), "{bangkok:?}");
    }
}
