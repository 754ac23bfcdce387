//! The request grammar: one line of text in, one [`Request`] out.
//!
//! Embedded Lorel/Chorel text is parsed here, at the session edge, so the
//! canonical query text (the cache key) is computed exactly once. Total
//! over arbitrary input — every failure is a [`ProtoError`], never a
//! panic (`fuzz_tests` below).

use super::{split_word, ErrKind, ProtoError, Request};
use lorel::ast::Query;
use oem::{parse_change_set, parse_op, ChangeSet, Timestamp};

/// Validate a database name.
fn name_ok(word: &str, what: &str) -> Result<String, ProtoError> {
    if word.is_empty() {
        return Err(ProtoError::syntax(format!("missing {what} name")));
    }
    if !word
        .chars()
        .all(|c| c.is_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(ProtoError::syntax(format!(
            "bad {what} name {word:?} (alphanumeric, '-', '_', '.' only)"
        )));
    }
    Ok(word.to_string())
}

fn expect_empty(rest: &str, verb: &str) -> Result<(), ProtoError> {
    if rest.trim().is_empty() {
        Ok(())
    } else {
        Err(ProtoError::syntax(format!("{verb} takes no arguments")))
    }
}

/// Eat a case-insensitive keyword off the front of `rest`.
fn expect_kw<'a>(rest: &'a str, kw: &str) -> Result<&'a str, ProtoError> {
    let (word, tail) = split_word(rest);
    if word.eq_ignore_ascii_case(kw) {
        Ok(tail)
    } else {
        Err(ProtoError::syntax(format!(
            "expected {kw}, found {word:?}"
        )))
    }
}

/// `AT <ts|now> ; <payload>` — shared tail of UPDATE and MUTATE. The
/// literal `now` (case-insensitive) returns `None`: the service allocates
/// the timestamp from its wall clock inside the sequence stage.
fn parse_at_clause(rest: &str) -> Result<(Option<Timestamp>, &str), ProtoError> {
    let rest = expect_kw(rest, "AT")?;
    let (ts_text, payload) = rest
        .split_once(';')
        .ok_or_else(|| ProtoError::syntax("expected ';' after the AT timestamp"))?;
    let ts_text = ts_text.trim();
    if ts_text.eq_ignore_ascii_case("now") {
        return Ok((None, payload.trim()));
    }
    let at: Timestamp = ts_text
        .parse()
        .map_err(|e| ProtoError::syntax(format!("bad timestamp {ts_text:?}: {e}")))?;
    Ok((Some(at), payload.trim()))
}

/// Render an LSN — a change [`Timestamp`] — for the wire: its raw minute
/// count as a decimal integer, or `-` for "no changes applied yet"
/// (negative infinity, a freshly created database).
pub fn lsn_to_wire(at: Timestamp) -> String {
    if at == Timestamp::NEG_INFINITY {
        "-".to_string()
    } else {
        at.raw_minutes().to_string()
    }
}

/// Inverse of [`lsn_to_wire`].
pub fn lsn_from_wire(s: &str) -> Result<Timestamp, ProtoError> {
    if s == "-" {
        return Ok(Timestamp::NEG_INFINITY);
    }
    s.parse::<i64>()
        .map(Timestamp::from_raw_minutes)
        .map_err(|_| ProtoError::syntax(format!("bad LSN {s:?} (raw minutes or '-')")))
}

/// Parse an optional leading `AS OF <lsn|timestamp>` clause off a
/// `QUERY` payload. The point accepts the `LSN` wire form (raw minutes,
/// or `-` for negative infinity) or any [`Timestamp`] spelling
/// (`8Jan97`, `1997-01-08`, …). Absent the clause, the payload is
/// returned untouched — `AS` alone never starts a valid query, so the
/// lookahead is unambiguous.
fn parse_as_of_clause(text: &str) -> Result<(Option<Timestamp>, &str), ProtoError> {
    let (w1, rest1) = split_word(text.trim_start());
    if !w1.eq_ignore_ascii_case("AS") {
        return Ok((None, text));
    }
    let (w2, rest2) = split_word(rest1);
    if !w2.eq_ignore_ascii_case("OF") {
        return Ok((None, text));
    }
    let (point, query) = split_word(rest2);
    if point.is_empty() {
        return Err(ProtoError::syntax("AS OF needs an LSN or timestamp"));
    }
    let at = match lsn_from_wire(point) {
        Ok(at) => at,
        Err(_) => point.parse::<Timestamp>().map_err(|e| {
            ProtoError::syntax(format!("bad AS OF point {point:?}: {e}"))
        })?,
    };
    Ok((Some(at), query))
}

fn parse_query_text(text: &str) -> Result<(Box<Query>, String), ProtoError> {
    if text.trim().is_empty() {
        return Err(ProtoError::syntax("missing query text"));
    }
    let query = lorel::parse_query(text).map_err(|e| ProtoError::syntax(e.to_string()))?;
    let key = query.to_string();
    Ok((Box::new(query), key))
}

/// Parse one request line. Total over arbitrary input: every failure is a
/// [`ProtoError`], never a panic (fuzz-enforced below).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(ProtoError::syntax("empty request"));
    }
    let (verb, rest) = split_word(line);
    match verb.to_ascii_uppercase().as_str() {
        "PING" => expect_empty(rest, "PING").map(|()| Request::Ping),
        "STATS" => expect_empty(rest, "STATS").map(|()| Request::Stats),
        "GEN" => {
            let rest = rest.trim();
            if rest.is_empty() {
                Ok(Request::Generation { db: None })
            } else {
                Ok(Request::Generation {
                    db: Some(name_ok(rest, "database")?),
                })
            }
        }
        "DBS" => expect_empty(rest, "DBS").map(|()| Request::ListDbs),
        "QUIT" => expect_empty(rest, "QUIT").map(|()| Request::Quit),
        "CREATE" => Ok(Request::Create {
            db: name_ok(rest, "database")?,
        }),
        "SAVE" => Ok(Request::Save {
            db: name_ok(rest, "database")?,
        }),
        "LOAD" => Ok(Request::Load {
            db: name_ok(rest, "database")?,
        }),
        "QUERY" => {
            let (db, text) = split_word(rest);
            let db = name_ok(db, "database")?;
            let (as_of, text) = parse_as_of_clause(text)?;
            let (query, key) = parse_query_text(text)?;
            Ok(Request::Query {
                db,
                query,
                key,
                as_of,
            })
        }
        "UPDATE" => {
            let (db, rest) = split_word(rest);
            let db = name_ok(db, "database")?;
            let (at, payload) = parse_at_clause(rest)?;
            let changes = if payload.starts_with('{') {
                parse_change_set(payload).map_err(|e| ProtoError::syntax(e.to_string()))?
            } else {
                // A single bare op is accepted as a one-element set.
                let op = parse_op(payload).map_err(|e| ProtoError::syntax(e.to_string()))?;
                let mut set = ChangeSet::new();
                set.push(op)
                    .map_err(|e| ProtoError::syntax(e.to_string()))?;
                set
            };
            Ok(Request::Update { db, at, changes })
        }
        "MUTATE" => {
            let (db, rest) = split_word(rest);
            let db = name_ok(db, "database")?;
            let (at, payload) = parse_at_clause(rest)?;
            // Parsed once, here (errors carry the statement's own
            // columns); the sequence stage only compiles it.
            let stmt =
                lorel::parse_update(payload).map_err(|e| ProtoError::syntax(e.to_string()))?;
            Ok(Request::Mutate {
                db,
                at,
                stmt: Box::new(stmt),
            })
        }
        "LSN" => Ok(Request::Lsn {
            db: name_ok(rest.trim(), "database")?,
        }),
        "REPLICATE" => {
            let (db, rest) = split_word(rest);
            let db = name_ok(db, "database")?;
            let rest = expect_kw(rest, "FROM")?;
            let from = lsn_from_wire(rest.trim())?;
            Ok(Request::Replicate { db, from })
        }
        "PROMOTE" => Ok(Request::Promote {
            db: name_ok(rest.trim(), "database")?,
        }),
        "FENCE" => {
            let (db, rest) = split_word(rest);
            let db = name_ok(db, "database")?;
            let epoch = rest.trim().parse::<u64>().map_err(|_| {
                ProtoError::syntax(format!("bad epoch {:?} (decimal u64)", rest.trim()))
            })?;
            Ok(Request::Fence { db, epoch })
        }
        other => Err(ProtoError {
            kind: ErrKind::Unknown,
            message: format!("unknown verb {other:?}"),
        }),
    }
}

/// Whether `id` is a well-formed pipelining tag: 1–40 characters, each
/// alphanumeric or `-`, `_`, `.`.
fn tag_ok(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 40
        && id
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Parse one request line with an optional leading `#<id>` pipelining tag.
///
/// A well-formed tag is returned alongside the parse of the remainder; a
/// line with no `#` prefix parses exactly like [`parse_request`] with no
/// tag. A *malformed* tag (empty, too long, or bad characters) yields
/// `(None, Err(..))` — the error response goes back untagged, since the
/// tag itself cannot be trusted for matching.
pub fn parse_tagged_request(line: &str) -> (Option<String>, Result<Request, ProtoError>) {
    let trimmed = line.trim_start();
    let Some(rest) = trimmed.strip_prefix('#') else {
        return (None, parse_request(line));
    };
    // The id must hug the '#' — no `split_word`, which would skip
    // leading whitespace and mistake the verb for a tag.
    let (id, remainder) = rest
        .split_once(char::is_whitespace)
        .unwrap_or((rest, ""));
    if !tag_ok(id) {
        return (
            None,
            Err(ProtoError::syntax(format!(
                "bad request tag {id:?} (1-40 chars: alphanumeric, '-', '_', '.')"
            ))),
        );
    }
    (Some(id.to_string()), parse_request(remainder))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert!(matches!(parse_request("PING"), Ok(Request::Ping)));
        assert!(matches!(parse_request("  stats  "), Ok(Request::Stats)));
        assert!(matches!(
            parse_request("CREATE guide"),
            Ok(Request::Create { .. })
        ));
        let q = parse_request("QUERY guide select guide.restaurant").unwrap();
        match q {
            Request::Query { db, key, .. } => {
                assert_eq!(db, "guide");
                assert!(key.contains("guide . restaurant") || key.contains("guide.restaurant"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn query_as_of_parses_lsn_and_timestamp_points() {
        let r = parse_request("QUERY guide AS OF 12345 select guide.restaurant").unwrap();
        match r {
            Request::Query { db, as_of, .. } => {
                assert_eq!(db, "guide");
                assert_eq!(as_of, Some(Timestamp::from_raw_minutes(12345)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let r = parse_request("QUERY guide AS OF 8Jan97 select guide.restaurant").unwrap();
        match r {
            Request::Query { as_of, .. } => {
                assert_eq!(as_of, Some("8Jan97".parse().unwrap()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // `-` is the NEG_INFINITY wire form, same as `LSN` output.
        let r = parse_request("QUERY guide AS OF - select guide.restaurant").unwrap();
        assert!(matches!(
            r,
            Request::Query {
                as_of: Some(t),
                ..
            } if t == Timestamp::NEG_INFINITY
        ));
        // Without the clause, as_of is None and the query is untouched.
        let r = parse_request("QUERY guide select guide.restaurant").unwrap();
        assert!(matches!(r, Request::Query { as_of: None, .. }));
        // A garbled point is a syntax error, not a silent current-state read.
        assert!(parse_request("QUERY guide AS OF nonsense select guide.restaurant").is_err());
        assert!(parse_request("QUERY guide AS OF").is_err());
    }

    #[test]
    fn update_line_parses_set_and_single_op() {
        let r = parse_request("UPDATE guide AT 1Jan97 8:00pm ; {updNode(n1, 20)}").unwrap();
        match r {
            Request::Update { db, changes, .. } => {
                assert_eq!(db, "guide");
                assert_eq!(changes.len(), 1);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let r = parse_request("UPDATE guide AT 1Jan97 8:00pm ; updNode(n1, 20)").unwrap();
        assert!(matches!(r, Request::Update { at: Some(_), .. }));
        // A real too large for an f64 is a syntax error, not infinity.
        let huge = format!("1{}.0", "0".repeat(400));
        for line in [
            format!("UPDATE guide AT 1Jan97 ; {{creNode(n3, {huge})}}"),
            format!("MUTATE guide AT 1Jan97 ; update guide.restaurant.price := {huge}"),
        ] {
            assert_eq!(parse_request(&line).unwrap_err().kind, ErrKind::Syntax, "{line}");
        }
    }

    #[test]
    fn at_now_asks_the_server_to_allocate_the_timestamp() {
        let r = parse_request("UPDATE guide AT now ; {updNode(n1, 20)}").unwrap();
        assert!(matches!(r, Request::Update { at: None, .. }));
        let r =
            parse_request("MUTATE guide AT NOW ; update R := 5 from guide.restaurant R").unwrap();
        assert!(matches!(r, Request::Mutate { at: None, .. }));
        // `now` is a keyword of the AT clause only, not an AS OF point.
        assert_eq!(
            parse_request("QUERY guide AS OF now select guide.restaurant")
                .unwrap_err()
                .kind,
            ErrKind::Syntax
        );
    }

    #[test]
    fn promote_and_fence_parse_and_classify_as_writes() {
        match parse_request("PROMOTE guide").unwrap() {
            Request::Promote { db } => assert_eq!(db, "guide"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(!parse_request("PROMOTE guide").unwrap().is_read());
        assert_eq!(parse_request("PROMOTE").unwrap_err().kind, ErrKind::Syntax);

        match parse_request("FENCE guide 3").unwrap() {
            Request::Fence { db, epoch } => {
                assert_eq!(db, "guide");
                assert_eq!(epoch, 3);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(!parse_request("FENCE guide 3").unwrap().is_read());
        assert_eq!(parse_request("FENCE guide").unwrap_err().kind, ErrKind::Syntax);
        assert_eq!(parse_request("FENCE guide -1").unwrap_err().kind, ErrKind::Syntax);
        // The typed error code round-trips.
        assert_eq!(ErrKind::from_code(ErrKind::Fenced.code()), ErrKind::Fenced);
    }

    #[test]
    fn gen_parses_with_and_without_database() {
        assert!(matches!(
            parse_request("GEN"),
            Ok(Request::Generation { db: None })
        ));
        match parse_request("GEN guide").unwrap() {
            Request::Generation { db: Some(db) } => assert_eq!(db, "guide"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(parse_request("GEN bad/name").unwrap_err().kind, ErrKind::Syntax);
    }

    #[test]
    fn replication_verbs_parse_and_classify_as_reads() {
        match parse_request("LSN guide").unwrap() {
            Request::Lsn { db } => assert_eq!(db, "guide"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse_request("LSN guide").unwrap().is_read());
        assert_eq!(parse_request("LSN").unwrap_err().kind, ErrKind::Syntax);

        match parse_request("REPLICATE guide FROM -").unwrap() {
            Request::Replicate { db, from } => {
                assert_eq!(db, "guide");
                assert_eq!(from, Timestamp::NEG_INFINITY);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse_request("REPLICATE guide FROM 14240400 AS follower-1").unwrap_err().kind,
            ErrKind::Syntax
        );
        assert!(parse_request("REPLICATE guide FROM -").unwrap().is_read());
        assert_eq!(
            parse_request("REPLICATE guide FROM nonsense").unwrap_err().kind,
            ErrKind::Syntax
        );
        assert_eq!(
            parse_request("REPLICATE guide AT 5").unwrap_err().kind,
            ErrKind::Syntax
        );
    }

    #[test]
    fn lsn_wire_format_round_trips() {
        for at in [
            Timestamp::NEG_INFINITY,
            Timestamp::from_raw_minutes(0),
            Timestamp::from_raw_minutes(-5),
            Timestamp::from_raw_minutes(14_240_400),
        ] {
            assert_eq!(lsn_from_wire(&lsn_to_wire(at)).unwrap(), at);
        }
        assert_eq!(lsn_to_wire(Timestamp::NEG_INFINITY), "-");
        assert!(lsn_from_wire("12.5").is_err());
        assert!(lsn_from_wire("").is_err());
    }

    #[test]
    fn tagged_requests_parse() {
        let (tag, req) = parse_tagged_request("#q1 PING");
        assert_eq!(tag.as_deref(), Some("q1"));
        assert!(matches!(req, Ok(Request::Ping)));

        let (tag, req) = parse_tagged_request("PING");
        assert_eq!(tag, None);
        assert!(matches!(req, Ok(Request::Ping)));

        // A tagged syntax error keeps its tag (the tag itself is fine).
        let (tag, req) = parse_tagged_request("#a.b-c QUERY guide selec x");
        assert_eq!(tag.as_deref(), Some("a.b-c"));
        assert_eq!(req.unwrap_err().kind, ErrKind::Syntax);

        // Malformed tags are untrustworthy: no tag, syntax error.
        for line in ["# PING", "#bad/tag PING", &format!("#{} PING", "x".repeat(41))] {
            let (tag, req) = parse_tagged_request(line);
            assert_eq!(tag, None, "{line:?}");
            assert_eq!(req.unwrap_err().kind, ErrKind::Syntax, "{line:?}");
        }
    }

    #[test]
    fn errors_have_kinds() {
        // The embedded QSS's verbs left serve with it: unknown, like any typo.
        for line in [
            "FROB x",
            "DEFINE polling query Restaurants as select guide.restaurant",
            "SUBSCRIBE S1 POLL Restaurants FILTER NewRestaurants FREQ every night at 11:30pm",
            "UNSUBSCRIBE S1",
            "TICK 1Jan97 11:30pm",
            "NOTES *",
            "SUBQUERY S1 select Restaurants.restaurant",
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().kind,
                ErrKind::Unknown,
                "{line}"
            );
        }
        assert_eq!(parse_request("").unwrap_err().kind, ErrKind::Syntax);
        assert_eq!(
            parse_request("QUERY guide select ...bad(((").unwrap_err().kind,
            ErrKind::Syntax
        );
        assert_eq!(
            parse_request("UPDATE guide AT not-a-time ; {updNode(n1, 20)}")
                .unwrap_err()
                .kind,
            ErrKind::Syntax
        );
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use crate::protocol::{escape, unescape, Response};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The request parser must reject garbage with an error, never
        /// panic — the same contract as `lorel::parser::fuzz_tests`.
        #[test]
        fn parse_request_never_panics_on_arbitrary_input(line in "\\PC{0,120}") {
            let _ = parse_request(&line);
            let _ = parse_tagged_request(&line);
            let _ = unescape(&line);
            let _ = lsn_from_wire(&line);
        }

        /// Tagged frames round-trip for arbitrary tags and rows. (The tag
        /// alphabet is enforced by construction — the offline proptest
        /// stand-in does not honor regex character classes.)
        #[test]
        fn tagged_frames_round_trip(
            raw in "\\PC{0,40}",
            rows in proptest::collection::vec("\\PC{0,40}", 0..4),
        ) {
            let mut id: String = raw
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                .take(40)
                .collect();
            if id.is_empty() {
                id.push('t');
            }
            let resp = Response::Rows(rows.clone());
            let wire = resp.render_tagged(Some(&id));
            let mut reader = std::io::BufReader::new(wire.as_bytes());
            let (tag, back) = Response::read_tagged_from(&mut reader).unwrap().unwrap();
            prop_assert_eq!(tag.as_deref(), Some(id.as_str()));
            prop_assert_eq!(back, resp);
        }

        /// Request-shaped fragments assembled from protocol atoms: the
        /// parser still never panics, and whatever parses classifies as
        /// read or write without panicking either.
        #[test]
        fn parse_request_never_panics_on_protocol_fragments(
            parts in proptest::collection::vec(
                proptest::sample::select(vec![
                    "QUERY", "UPDATE", "MUTATE", "guide", "AT", ";", "10",
                    "at", "11:30pm", "select", "guide.restaurant", "where", "<",
                    "creNode(n9, C)", "{updNode(n1, 20)}", "1Jan97", "8:00pm",
                    "*", "price", "=", "\"x\"", "insert", "t[-1]",
                    "REPLICATE", "LSN", "FROM", "AS", "OF", "-", "12345",
                    "follower-1", "PROMOTE", "FENCE", "now", "7",
                ]),
                0..12,
            )
        ) {
            let line = parts.join(" ");
            if let Ok(req) = parse_request(&line) {
                let _ = req.is_read();
            }
        }

        /// Wire escaping round-trips any string.
        #[test]
        fn escape_round_trips(s in "\\PC{0,100}") {
            prop_assert_eq!(unescape(&escape(&s)), s);
        }

        /// A rendered response frame parses back to itself.
        #[test]
        fn response_frames_round_trip(rows in proptest::collection::vec("\\PC{0,40}", 0..6)) {
            let resp = Response::Rows(rows.clone());
            let wire = resp.render();
            let mut reader = std::io::BufReader::new(wire.as_bytes());
            let back = Response::read_from(&mut reader).unwrap().unwrap();
            prop_assert_eq!(back, resp);
        }
    }
}
