//! # serve — a concurrent multi-session query service over the DOEM stack
//!
//! The paper's Lore context ran as a long-lived server process; this crate
//! supplies that missing deployment layer for the reproduction. One
//! process owns a set of OEM/DOEM databases plus an embedded Query
//! Subscription Service, and serves many concurrent sessions over two
//! transports that share every byte of machinery:
//!
//! * an in-process [`Client`] handle (cheap to clone, used by tests and
//!   benchmarks), and
//! * a hand-rolled line-oriented TCP protocol ([`protocol`], specified in
//!   full in `crates/serve/PROTOCOL.md`) behind [`Service::listen`],
//!   spoken by the `doem-serve` binary.
//!
//! Architecture (full treatment: DESIGN.md, "Concurrency model"):
//! sessions parse requests at the edge, answer there what cannot block
//! (probe verbs, result-cache hits) and submit the rest to a **bounded**
//! queue (admission control — a full queue answers `BUSY` immediately). A
//! fixed worker pool executes jobs against a **sharded registry**: each
//! database is its own shard with its own `RwLock`, **generation
//! counter**, and result cache, so writers to different databases never
//! contend. Within a shard, queries are **snapshot isolated** — they
//! clone a cheap copy-on-write handle ([`doem::SharedDoem`]) under a
//! brief lock and evaluate entirely outside it, so a slow query never
//! delays a write, even to its own database. Query results are cached
//! keyed on *(database, canonical query text, shard generation)* — a
//! write structurally invalidates every stale entry without any
//! notification machinery. QSS state lives in a separate control shard,
//! so polls invalidate only subscription-query caches.
//!
//! TCP sessions may **pipeline**: requests tagged `#<id>` complete out of
//! order, with the tag echoed on the response frame for matching
//! (in-process, the same split is [`Client::begin_line`] +
//! [`PendingReply::wait`]). Nothing waits out a tagged request: whoever
//! delivers its response sends the tagged frame straight into the
//! session's writer thread, which also enforces its timeout, so a
//! pipelined session costs two threads however deep it pipelines. A
//! [`metrics`] registry (counters + log2 latency histograms for parse /
//! queue-wait / exec / reply and writer hand-offs / end-to-end) is
//! readable over the wire as `STATS`.
//!
//! With [`ServeConfig::wal_dir`] set the service is **durable**
//! (DESIGN.md §8): every committed mutation is appended to a per-database
//! change-operation [`wal`] (the paper's own notation, length+CRC framed,
//! fsynced before the write is published or acknowledged), periodically folded into snapshot
//! checkpoints, and replayed through the `D(O, H)` construction on
//! startup — tolerating a torn final record. A deterministic [`faults`]
//! layer can fail any append/fsync/checkpoint at a chosen operation
//! index for crash testing, and a shard whose log stops accepting writes
//! degrades to read-only ([`ErrKind::ReadOnly`]) instead of taking the
//! service down.
//!
//! With [`ServeConfig::follow`] set the instance is a **replication
//! follower** ([`replication`], DESIGN.md §10): it pulls the primary's
//! WAL over the wire protocol (`REPLICATE` batches, checkpoint-image
//! catch-up), replays it through the same commit pipeline, serves
//! snapshot reads at its applied LSN (`LSN <db>`), and refuses client
//! writes with the typed `READONLY` error — until `PROMOTE <db>` flips a
//! shard writable under an **epoch fence** (failover: the deposed
//! primary answers `FENCED`, and its stale replication batches are
//! rejected by epoch comparison).
//!
//! ```
//! use serve::{Service, ServeConfig, Response};
//! use oem::guide::{guide_figure2, history_example_2_3};
//!
//! let svc = Service::start(ServeConfig::default()).unwrap();
//! svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
//! let client = svc.client();
//! let resp = client.request_line("QUERY guide select guide.restaurant");
//! assert!(matches!(resp, Response::Rows(ref rows) if rows.len() == 3));
//! svc.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod faults;
pub mod metrics;
pub mod protocol;
pub mod replication;
mod service;
mod tcp;
pub mod wal;

pub use faults::{FaultMode, FaultPoint, Faults};

/// `true` when `SERVE_TRACE` is set in the environment: replication and
/// recovery paths then print one `TRACE …` line per batch served/applied,
/// per recovery, and per snapshot install to stderr. Checked once per
/// process — chaos-harness triage flips it for a whole run, not per call.
pub(crate) fn trace_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("SERVE_TRACE").is_some())
}
pub use protocol::{parse_request, parse_tagged_request, ErrKind, ProtoError, Request, Response};
pub use replication::{snapshot_bytes, snapshot_from_bytes, ReplBatch};
pub use service::{AutoTick, Client, DynSource, PendingReply, ServeConfig, Service, WallClock};
pub use tcp::{RetryPolicy, TcpHandle, WireClient};
