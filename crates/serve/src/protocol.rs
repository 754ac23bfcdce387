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
//!                                            (AS OF reads a historical version)
//! UPDATE <db> AT <ts|now> ; <change set>     apply `{creNode(...), ...}`
//! MUTATE <db> AT <ts|now> ; <update stmt>    compile a Lorel update & apply
//! LSN <db>                                   applied/durable LSNs (lag probe)
//! REPLICATE <db> FROM <lsn>                  one replication batch
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
//!
//! This module holds the protocol's types and the response framing; the
//! request grammar is the `parse` submodule, re-exported here.

mod parse;

pub use parse::{lsn_from_wire, lsn_to_wire, parse_request, parse_tagged_request};

use lorel::ast::Query;
use lorel::UpdateStmt;
use oem::{ChangeSet, Timestamp};
use std::io::BufRead;

/// Machine-readable error classes, carried on `ERR` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrKind {
    /// The request line or its embedded query/update text failed to parse
    /// (message contains the parser's line/column span).
    Syntax,
    /// Unknown verb.
    Unknown,
    /// Named database does not exist (or a `LOAD` names an unsaved one).
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
/// update statements are [`UpdateStmt`]s, timestamps are [`Timestamp`]s,
/// change sets are [`ChangeSet`]s.
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
        /// `AS OF` point: evaluate at the version in force at this LSN,
        /// through the lazy `O_t(D)` view of the database's DOEM graph.
        /// `None` queries the current state.
        as_of: Option<Timestamp>,
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
        /// The statement, parsed at the request edge. The sequence stage
        /// compiles it against the sequencing head, under the shard's
        /// pipeline lock.
        stmt: Box<UpdateStmt>,
    },
    /// `LSN <db>` — the shard's applied and durable LSNs, the wire-level
    /// replication-lag probe.
    Lsn {
        /// Database name.
        db: String,
    },
    /// `REPLICATE <db> FROM <lsn>` — ask the primary for one replication
    /// batch: a checkpoint image (when `from` predates the retained log
    /// tail or is past the primary's applied LSN) or the log records
    /// strictly after `from`.
    Replicate {
        /// Database name.
        db: String,
        /// The follower's applied LSN; only changes after it are wanted.
        from: Timestamp,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

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
