//! The line-oriented wire protocol.
//!
//! Requests are single lines of UTF-8 text; the first word is a verb, the
//! rest is verb-specific. Embedded Lorel/Chorel text is parsed *here*, at
//! the session edge, so workers never see unvalidated input and the
//! canonical query text (the cache key) is computed exactly once.
//!
//! ```text
//! PING                                       liveness probe
//! STATS                                      metrics snapshot
//! GEN [<db>]                                 global (or per-database) generation
//! DBS                                        list installed databases
//! CREATE <db>                                install an empty database
//! SAVE <db>  /  LOAD <db>                    persist to / restore from store
//! QUERY <db> [AS OF <lsn|ts>] <query>        evaluate, canonical rows back
//!                                            (AS OF pins a historical version)
//! UPDATE <db> AT <ts|now> ; <change set>     apply `{creNode(...), ...}`
//! MUTATE <db> AT <ts|now> ; <update stmt>    compile a Lorel update & apply
//! DEFINE <define program>                    add named queries to registry
//! SUBSCRIBE <id> POLL <q> FILTER <q> FREQ <spec>
//! UNSUBSCRIBE <id>
//! TICK <ts>                                  advance QSS simulated time
//! NOTES <id|*>                               pending QSS notifications
//! SUBQUERY <id> <chorel query>               query a subscription's DOEM
//! LSN <db>                                   applied/durable LSNs (lag probe)
//! REPLICATE <db> FROM <lsn> [AS <peer>]      one replication batch
//! PROMOTE <db>                               flip a follower shard writable
//! FENCE <db> <epoch>                         depose a stale primary shard
//! QUIT                                       close the session
//! ```
//!
//! Responses are `OK <msg>`, an `ERR <KIND> <msg>` line, or a row block:
//! `ROWS <n>` followed by `n` `ROW <text>` lines and a final `END`. Row
//! text is escaped (`\\`, `\n`, `\t`, `\r`) so a response line never
//! contains a raw newline or tab collision.
//!
//! # Pipelining tags
//!
//! Any request may be prefixed with a tag word `#<id>` (1–40 characters,
//! alphanumeric plus `-`, `_`, `.`). Tagged requests may complete **out of
//! order**: the response's first line carries the same `#<id>` prefix so
//! the client can match it to its request. Untagged requests keep the
//! classic serial contract — their responses come back in submission
//! order, untagged. See `crates/serve/PROTOCOL.md` for the full grammar.

use lorel::ast::Query;
use oem::{parse_change_set, parse_op, ChangeSet, Timestamp};
use qss::FrequencySpec;
use std::io::BufRead;

/// Machine-readable error classes, carried on `ERR` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrKind {
    /// The request line or its embedded query/update text failed to parse
    /// (message contains the parser's line/column span).
    Syntax,
    /// Unknown verb.
    Unknown,
    /// Named database, subscription, or registered query does not exist.
    NotFound,
    /// Admission control rejected the request: the queue is full.
    Busy,
    /// The request did not complete within the configured timeout.
    Timeout,
    /// The request conflicts with current state (e.g. duplicate CREATE,
    /// change set invalid against the database).
    Conflict,
    /// Storage-layer failure (or no store configured).
    Io,
    /// The target database is read-only: a persistent WAL I/O failure
    /// (e.g. disk full) disabled writes to it while queries keep serving
    /// from the in-memory snapshot.
    ReadOnly,
    /// The shard was deposed by a newer promotion epoch (`FENCE`): its
    /// lineage may no longer append — writes must go to the promoted
    /// primary. Reads keep serving.
    Fenced,
    /// Anything else; the service itself misbehaved.
    Internal,
}

impl ErrKind {
    /// The wire token for the kind.
    pub fn code(self) -> &'static str {
        match self {
            ErrKind::Syntax => "SYNTAX",
            ErrKind::Unknown => "UNKNOWN",
            ErrKind::NotFound => "NOTFOUND",
            ErrKind::Busy => "BUSY",
            ErrKind::Timeout => "TIMEOUT",
            ErrKind::Conflict => "CONFLICT",
            ErrKind::Io => "IO",
            ErrKind::ReadOnly => "READONLY",
            ErrKind::Fenced => "FENCED",
            ErrKind::Internal => "INTERNAL",
        }
    }

    /// Inverse of [`ErrKind::code`]; unknown tokens map to `Internal`.
    pub fn from_code(code: &str) -> ErrKind {
        match code {
            "SYNTAX" => ErrKind::Syntax,
            "UNKNOWN" => ErrKind::Unknown,
            "NOTFOUND" => ErrKind::NotFound,
            "BUSY" => ErrKind::Busy,
            "TIMEOUT" => ErrKind::Timeout,
            "CONFLICT" => ErrKind::Conflict,
            "IO" => ErrKind::Io,
            "READONLY" => ErrKind::ReadOnly,
            "FENCED" => ErrKind::Fenced,
            _ => ErrKind::Internal,
        }
    }
}

/// A fully parsed request: embedded query text is already a [`Query`],
/// timestamps are [`Timestamp`]s, change sets are [`ChangeSet`]s.
#[derive(Clone, Debug)]
pub enum Request {
    /// `PING`
    Ping,
    /// `STATS`
    Stats,
    /// `GEN` (global write counter) or `GEN <db>` (that shard's counter).
    Generation {
        /// `None` asks for the global counter; `Some` for one shard's.
        db: Option<String>,
    },
    /// `DBS`
    ListDbs,
    /// `QUIT`
    Quit,
    /// `CREATE <db>`
    Create {
        /// Database name.
        db: String,
    },
    /// `SAVE <db>`
    Save {
        /// Database name.
        db: String,
    },
    /// `LOAD <db>`
    Load {
        /// Database name.
        db: String,
    },
    /// `QUERY <db> [AS OF <lsn|timestamp>] <query>`
    Query {
        /// Database name.
        db: String,
        /// The parsed query.
        query: Box<Query>,
        /// Canonical query text — the result-cache key component.
        key: String,
        /// `AS OF` point: evaluate at the version in force at this LSN
        /// (a pinned ring version, or the lazy `O_t(D)` view beyond the
        /// retention horizon). `None` queries the current state.
        as_of: Option<Timestamp>,
    },
    /// `SUBQUERY <id> <query>` — query a subscription's DOEM database.
    SubQuery {
        /// Subscription id.
        id: String,
        /// The parsed query.
        query: Box<Query>,
        /// Canonical query text.
        key: String,
    },
    /// `UPDATE <db> AT <ts|now> ; <change set>`
    Update {
        /// Database name.
        db: String,
        /// When the changes happened; `None` (the `AT now` form) asks the
        /// service to allocate the timestamp from its wall clock inside
        /// the sequence stage, clamped to stay strictly increasing.
        at: Option<Timestamp>,
        /// The parsed change set.
        changes: ChangeSet,
    },
    /// `MUTATE <db> AT <ts|now> ; <lorel update statement>`
    Mutate {
        /// Database name.
        db: String,
        /// When the update happens; `None` for the server-allocated
        /// `AT now` form.
        at: Option<Timestamp>,
        /// The raw statement text — compiled under the write lock against
        /// the then-current snapshot (syntax is pre-checked at parse time).
        stmt: String,
    },
    /// `DEFINE <define program>`
    Define {
        /// The raw program text — loaded into the registry under the write
        /// lock (syntax is pre-checked at parse time).
        program: String,
    },
    /// `SUBSCRIBE <id> POLL <name> FILTER <name> FREQ <spec>`
    Subscribe {
        /// Subscription id.
        id: String,
        /// Registered polling query name.
        polling: String,
        /// Registered filter query name.
        filter: String,
        /// Parsed frequency specification.
        freq: FrequencySpec,
    },
    /// `UNSUBSCRIBE <id>`
    Unsubscribe {
        /// Subscription id.
        id: String,
    },
    /// `TICK <ts>` — advance simulated time, running due QSS polls.
    Tick {
        /// The new horizon.
        until: Timestamp,
    },
    /// `NOTES <id|*>` — list notifications for one subscription (or all).
    Notes {
        /// Subscription id, or `*`.
        id: String,
    },
    /// `LSN <db>` — the shard's applied and durable LSNs, the wire-level
    /// replication-lag probe.
    Lsn {
        /// Database name.
        db: String,
    },
    /// `REPLICATE <db> FROM <lsn> [AS <peer>]` — ask the primary for one
    /// replication batch: a checkpoint image (when `from` predates the
    /// retained log tail) or the log records strictly after `from`.
    Replicate {
        /// Database name.
        db: String,
        /// The follower's applied LSN; only changes after it are wanted.
        from: Timestamp,
        /// Optional follower identity, used by the primary to lease log
        /// retention past checkpoints while this follower is attached.
        peer: Option<String>,
    },
    /// `PROMOTE <db>` — flip this instance's shard of `db` writable at
    /// its applied LSN, under a new epoch fence. Sent to a follower when
    /// the primary is lost; the promoted instance best-effort deposes the
    /// old primary with a `FENCE`.
    Promote {
        /// Database name.
        db: String,
    },
    /// `FENCE <db> <epoch>` — depose this instance's shard of `db`: if
    /// `epoch` is newer than the shard's own, its lineage stops accepting
    /// appends (writes answer the typed `FENCED` error).
    Fence {
        /// Database name.
        db: String,
        /// The promoting instance's new epoch.
        epoch: u64,
    },
}

impl Request {
    /// Whether execution takes the shared read path (queries, listings)
    /// rather than the exclusive write path.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Request::Ping
                | Request::Stats
                | Request::Generation { .. }
                | Request::ListDbs
                | Request::Quit
                | Request::Save { .. }
                | Request::Query { .. }
                | Request::SubQuery { .. }
                | Request::Notes { .. }
                | Request::Lsn { .. }
                | Request::Replicate { .. }
        )
    }
}

/// A protocol-level error: what went wrong and how to class it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Error class.
    pub kind: ErrKind,
    /// Human-readable message (parser spans included where available).
    pub message: String,
}

impl ProtoError {
    fn syntax(message: impl Into<String>) -> ProtoError {
        ProtoError {
            kind: ErrKind::Syntax,
            message: message.into(),
        }
    }
}

/// A response, as produced by the service and rendered onto the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success with a one-line message.
    Ok(String),
    /// Success with a block of result rows.
    Rows(Vec<String>),
    /// Failure.
    Error {
        /// Error class.
        kind: ErrKind,
        /// Human-readable message.
        message: String,
    },
}

impl From<ProtoError> for Response {
    fn from(e: ProtoError) -> Response {
        Response::Error {
            kind: e.kind,
            message: e.message,
        }
    }
}

impl Response {
    /// Shorthand for an error response.
    pub fn err(kind: ErrKind, message: impl Into<String>) -> Response {
        Response::Error {
            kind,
            message: message.into(),
        }
    }

    /// `true` for [`Response::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// Render onto the wire with an optional pipelining tag: the frame's
    /// first line gains a `#<id> ` prefix so the client can match the
    /// response to its request. `None` renders the classic untagged frame.
    pub fn render_tagged(&self, tag: Option<&str>) -> String {
        match tag {
            Some(id) => format!("#{id} {}", self.render()),
            None => self.render(),
        }
    }

    /// Render onto the wire (every line newline-terminated).
    pub fn render(&self) -> String {
        match self {
            Response::Ok(msg) => format!("OK {}\n", escape(msg)),
            Response::Rows(rows) => {
                let mut out = format!("ROWS {}\n", rows.len());
                for row in rows {
                    out.push_str("ROW ");
                    out.push_str(&escape(row));
                    out.push('\n');
                }
                out.push_str("END\n");
                out
            }
            Response::Error { kind, message } => {
                format!("ERR {} {}\n", kind.code(), escape(message))
            }
        }
    }

    /// Read one response off a buffered stream — the client half of
    /// [`Response::render`]. Returns `None` at EOF.
    pub fn read_from(reader: &mut impl BufRead) -> std::io::Result<Option<Response>> {
        let Some(first) = read_line(reader)? else {
            return Ok(None);
        };
        Ok(Some(Response::finish(first, reader)?))
    }

    /// Read one possibly-tagged response off a buffered stream — the
    /// client half of [`Response::render_tagged`]. Returns the tag (if the
    /// frame carried one) alongside the response; `None` at EOF.
    pub fn read_tagged_from(
        reader: &mut impl BufRead,
    ) -> std::io::Result<Option<(Option<String>, Response)>> {
        let Some(mut first) = read_line(reader)? else {
            return Ok(None);
        };
        let mut tag = None;
        if let Some(rest) = first.strip_prefix('#') {
            let (id, remainder) = split_word(rest);
            if id.is_empty() {
                return Err(bad_frame("empty response tag"));
            }
            tag = Some(id.to_string());
            first = remainder.to_string();
        }
        Ok(Some((tag, Response::finish(first, reader)?)))
    }

    /// Parse a frame whose (tag-stripped) first line is `first`, pulling
    /// any remaining row-block lines off `reader`.
    fn finish(first: String, reader: &mut impl BufRead) -> std::io::Result<Response> {
        if let Some(msg) = first.strip_prefix("OK") {
            return Ok(Response::Ok(unescape(msg.trim_start())));
        }
        if let Some(rest) = first.strip_prefix("ERR ") {
            let (code, msg) = split_word(rest);
            return Ok(Response::Error {
                kind: ErrKind::from_code(code),
                message: unescape(msg),
            });
        }
        if let Some(n) = first.strip_prefix("ROWS ") {
            let n: usize = n.trim().parse().map_err(bad_frame)?;
            let mut rows = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let line = read_line(reader)?.ok_or_else(|| bad_frame("eof in row block"))?;
                let row = line
                    .strip_prefix("ROW ")
                    .or_else(|| line.strip_prefix("ROW"))
                    .ok_or_else(|| bad_frame("expected ROW line"))?;
                rows.push(unescape(row));
            }
            let end = read_line(reader)?.ok_or_else(|| bad_frame("eof before END"))?;
            if end.trim() != "END" {
                return Err(bad_frame("expected END"));
            }
            return Ok(Response::Rows(rows));
        }
        Err(bad_frame(format!("unrecognized response line {first:?}")))
    }
}

fn bad_frame(msg: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn read_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Escape a row/message for single-line transport.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]. Total: a trailing lone backslash or an unknown
/// escape passes through literally rather than erroring.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// First whitespace-delimited word and the trimmed remainder.
fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.split_once(char::is_whitespace) {
        Some((w, rest)) => (w, rest.trim_start()),
        None => (s, ""),
    }
}

/// Validate a database/subscription/query name.
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
        "SUBQUERY" => {
            let (id, text) = split_word(rest);
            let id = name_ok(id, "subscription")?;
            let (query, key) = parse_query_text(text)?;
            Ok(Request::SubQuery { id, query, key })
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
            // Syntax check now (spans surface at the session edge);
            // compilation against the live snapshot happens in the worker.
            lorel::parse_update(payload).map_err(|e| ProtoError::syntax(e.to_string()))?;
            Ok(Request::Mutate {
                db,
                at,
                stmt: payload.to_string(),
            })
        }
        "DEFINE" => {
            let program = format!("define {rest}");
            lorel::parse_program(&program).map_err(|e| ProtoError::syntax(e.to_string()))?;
            Ok(Request::Define { program })
        }
        "SUBSCRIBE" => {
            let (id, rest) = split_word(rest);
            let id = name_ok(id, "subscription")?;
            let rest = expect_kw(rest, "POLL")?;
            let (polling, rest) = split_word(rest);
            let polling = name_ok(polling, "polling query")?;
            let rest = expect_kw(rest, "FILTER")?;
            let (filter, rest) = split_word(rest);
            let filter = name_ok(filter, "filter query")?;
            let spec = expect_kw(rest, "FREQ")?;
            let freq: FrequencySpec = spec
                .trim()
                .parse()
                .map_err(|e| ProtoError::syntax(format!("bad frequency {spec:?}: {e}")))?;
            Ok(Request::Subscribe {
                id,
                polling,
                filter,
                freq,
            })
        }
        "UNSUBSCRIBE" => Ok(Request::Unsubscribe {
            id: name_ok(rest, "subscription")?,
        }),
        "TICK" => {
            let until: Timestamp = rest
                .trim()
                .parse()
                .map_err(|e| ProtoError::syntax(format!("bad timestamp {rest:?}: {e}")))?;
            Ok(Request::Tick { until })
        }
        "NOTES" => {
            let id = rest.trim();
            if id == "*" {
                Ok(Request::Notes {
                    id: id.to_string(),
                })
            } else {
                Ok(Request::Notes {
                    id: name_ok(id, "subscription")?,
                })
            }
        }
        "LSN" => Ok(Request::Lsn {
            db: name_ok(rest.trim(), "database")?,
        }),
        "REPLICATE" => {
            let (db, rest) = split_word(rest);
            let db = name_ok(db, "database")?;
            let rest = expect_kw(rest, "FROM")?;
            let (lsn, rest) = split_word(rest);
            let from = lsn_from_wire(lsn)?;
            let rest = rest.trim();
            let peer = if rest.is_empty() {
                None
            } else {
                let peer = expect_kw(rest, "AS")?;
                Some(name_ok(peer.trim(), "peer")?)
            };
            Ok(Request::Replicate { db, from, peer })
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
    use std::io::BufReader;

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
    }

    #[test]
    fn at_now_asks_the_server_to_allocate_the_timestamp() {
        let r = parse_request("UPDATE guide AT now ; {updNode(n1, 20)}").unwrap();
        assert!(matches!(r, Request::Update { at: None, .. }));
        let r =
            parse_request("MUTATE guide AT NOW ; update R := 5 from guide.restaurant R").unwrap();
        assert!(matches!(r, Request::Mutate { at: None, .. }));
        // `now` is a keyword of the AT clause only, not a timestamp.
        assert_eq!(parse_request("TICK now").unwrap_err().kind, ErrKind::Syntax);
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
    fn subscribe_line_parses() {
        let r = parse_request(
            "SUBSCRIBE S1 POLL Restaurants FILTER NewRestaurants FREQ every night at 11:30pm",
        )
        .unwrap();
        match r {
            Request::Subscribe {
                id, polling, filter, ..
            } => {
                assert_eq!((id.as_str(), polling.as_str(), filter.as_str()),
                           ("S1", "Restaurants", "NewRestaurants"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
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
            Request::Replicate { db, from, peer } => {
                assert_eq!(db, "guide");
                assert_eq!(from, Timestamp::NEG_INFINITY);
                assert_eq!(peer, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse_request("REPLICATE guide FROM 14240400 AS follower-1").unwrap() {
            Request::Replicate { from, peer, .. } => {
                assert_eq!(from, Timestamp::from_raw_minutes(14_240_400));
                assert_eq!(peer.as_deref(), Some("follower-1"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
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
    fn tagged_responses_round_trip_the_wire() {
        let cases = vec![
            Response::Ok("pong".into()),
            Response::Rows(vec!["a".into(), "b".into()]),
            Response::err(ErrKind::Timeout, "too slow"),
        ];
        for resp in cases {
            let wire = resp.render_tagged(Some("req-7"));
            assert!(wire.starts_with("#req-7 "));
            let mut reader = BufReader::new(wire.as_bytes());
            let (tag, back) = Response::read_tagged_from(&mut reader).unwrap().unwrap();
            assert_eq!(tag.as_deref(), Some("req-7"));
            assert_eq!(back, resp);

            // Untagged frames read back with no tag through the same API.
            let wire = resp.render_tagged(None);
            let mut reader = BufReader::new(wire.as_bytes());
            let (tag, back) = Response::read_tagged_from(&mut reader).unwrap().unwrap();
            assert_eq!(tag, None);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn errors_have_kinds() {
        assert_eq!(parse_request("FROB x").unwrap_err().kind, ErrKind::Unknown);
        assert_eq!(parse_request("").unwrap_err().kind, ErrKind::Syntax);
        assert_eq!(
            parse_request("QUERY guide select ...bad(((").unwrap_err().kind,
            ErrKind::Syntax
        );
        assert_eq!(
            parse_request("TICK not-a-time").unwrap_err().kind,
            ErrKind::Syntax
        );
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a\tb\nc\\d\re", "\\", "trailing\\"] {
            assert_eq!(unescape(&escape(s)), s);
        }
    }

    #[test]
    fn responses_round_trip_the_wire() {
        let cases = vec![
            Response::Ok("pong".into()),
            Response::Rows(vec!["x=&n1\ty=20".into(), "weird\\row".into()]),
            Response::Rows(vec![]),
            Response::err(ErrKind::Busy, "queue full"),
        ];
        for resp in cases {
            let wire = resp.render();
            let mut reader = BufReader::new(wire.as_bytes());
            let back = Response::read_from(&mut reader).unwrap().unwrap();
            assert_eq!(back, resp);
        }
        let mut empty = BufReader::new(&b""[..]);
        assert_eq!(Response::read_from(&mut empty).unwrap(), None);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
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
                    "QUERY", "UPDATE", "MUTATE", "SUBSCRIBE", "TICK", "DEFINE",
                    "NOTES", "SUBQUERY", "guide", "S1", "AT", ";", "POLL",
                    "FILTER", "FREQ", "every", "10", "minutes", "night", "at",
                    "11:30pm", "select", "guide.restaurant", "where", "<",
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
