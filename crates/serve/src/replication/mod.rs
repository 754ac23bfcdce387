//! WAL-shipping replication: primary → follower serve instances.
//!
//! The paper's central construction — a database is a base snapshot `O`
//! plus a timestamp-ordered history `H` of change sets, `D(O, H)` — is
//! also a replication protocol. The primary's WAL *is* `H`; shipping it
//! preserves the total order; a follower that has applied the prefix of
//! `H` up to LSN `t` holds exactly the paper's snapshot-at-time `O_t(D)`
//! and may legally serve any query against it, tagged with `t` (the
//! `LSN <db>` verb). See DESIGN.md §10 for the full mapping.
//!
//! The subsystem splits three ways:
//!
//! - [`stream`]: the wire framing — batches of history entries (or a
//!   checkpoint image for catch-up) carried inside ordinary response row
//!   blocks, so replication rides the existing line protocol.
//! - `primary` (crate-private): per-shard log-tail retention (the last
//!   `replication_retain` records; a follower outside them gets a
//!   checkpoint image), and the `REPLICATE` request handler.
//! - `follower` (crate-private): the background thread a
//!   `--follow <addr>` instance runs — fetch, replay through the
//!   canonical change-op application order, reconnect with backoff.
//!
//! Followers reject client writes by construction (`READONLY` at the
//! request edge) while the replay path commits through the same
//! group-commit pipeline as local writes — a durable follower checkpoints
//! and crash-recovers with zero replication-specific recovery code.
//!
//! **Failover** (DESIGN.md §12): `PROMOTE <db>` flips a follower shard
//! writable at its applied LSN under a fresh **epoch fence**. The epoch
//! is stamped into WAL records and `REPLICATE` batch headers; the old
//! primary is told it is deposed (best-effort `FENCE <db> <epoch>`) and
//! answers client writes with the typed `FENCED` error from then on,
//! while a resurfacing deposed primary's stale batches are rejected by
//! epoch comparison on the follower side.

pub mod stream;

pub(crate) mod follower;
pub(crate) mod primary;

pub use stream::{snapshot_bytes, snapshot_from_bytes, ReplBatch};
