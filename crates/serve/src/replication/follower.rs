//! The follower half of replication: a background thread that pulls
//! batches from the primary and replays them into the local shards.
//!
//! The loop is deliberately client-shaped — it speaks the ordinary wire
//! protocol through a [`WireClient`], so anything between a follower and
//! its primary (proxies, fault injection, a different build) only has to
//! understand the line protocol. Each cycle lists the primary's
//! databases, then drives every one to the primary's applied LSN:
//! `REPLICATE <db> FROM <applied> AS <id>` either returns a checkpoint
//! image (installed wholesale, replacing the local shard) or a run of
//! history entries, which enter the **same commit pipeline as local
//! writes** (`sequence` → persist → publish) — through the follower's
//! own WAL when it has one, so follower WALs, checkpoints, and crash
//! recovery need no replication-specific code at all. The canonical change-op
//! application order inside each record is [`doem::apply_set`]'s,
//! identical on both sides by construction.
//!
//! Connection failures reconnect with exponential backoff (50ms doubling
//! to 2s, counted in `repl_reconnects`, the last slept delay published
//! as the `repl_backoff_ms` gauge); a session that made replication
//! progress — applied records or installed a snapshot — returns the
//! backoff to its floor, while a primary that accepts connections but
//! errors immediately keeps backing off. Every sleep is stop-aware so
//! shutdown never waits out a backoff.
//!
//! Promotion fencing: batches carry the serving shard's epoch. The sync
//! loop skips shards this instance has `PROMOTE`d (they are their own
//! lineage now), adopts newer epochs from batch headers, and rejects a
//! batch whose epoch is *behind* the local shard's — a deposed primary
//! resurfacing — with a `FENCED` session error.

use crate::faults::{FaultMode, FaultPoint};
use crate::metrics::Metrics;
use crate::protocol::{lsn_to_wire, ErrKind, Response};
use crate::replication::stream::{snapshot_from_bytes, ReplBatch};
use crate::service::{apply_replicated, install_replicated, Shared};
use crate::tcp::WireClient;
use doem::DoemDatabase;
use oem::{OemDatabase, Timestamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// First reconnect delay; doubles per failure up to [`BACKOFF_MAX`].
const BACKOFF_MIN: Duration = Duration::from_millis(50);
/// Reconnect delay ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Per-roundtrip wire timeout — a wedged primary surfaces as a
/// connection failure and re-enters the backoff path.
const WIRE_TIMEOUT: Duration = Duration::from_secs(5);

/// The reconnect backoff policy, factored out of the loop so the reset
/// rule is unit-testable: a session that made replication progress
/// returns the delay to [`BACKOFF_MIN`]; consecutive no-progress
/// failures double it up to [`BACKOFF_MAX`]. (An earlier version reset
/// off the *all-time* progress counters, so after the first successful
/// batch ever, every later outage was retried at the floor forever —
/// hammering a struggling primary at 50ms for the rest of the process.)
struct Backoff {
    cur: Duration,
}

impl Backoff {
    fn new() -> Backoff {
        Backoff { cur: BACKOFF_MIN }
    }

    /// The delay to sleep after a failed session; `made_progress` says
    /// whether *that session* applied records or installed a snapshot
    /// before it died.
    fn on_failure(&mut self, made_progress: bool) -> Duration {
        if made_progress {
            self.cur = BACKOFF_MIN;
        }
        let sleep = self.cur;
        self.cur = (self.cur * 2).min(BACKOFF_MAX);
        sleep
    }
}

/// The two counters that define "this session made progress".
fn progress(shared: &Shared) -> (u64, u64) {
    (
        shared.metrics.repl_records_applied.load(Ordering::Relaxed),
        shared
            .metrics
            .repl_snapshots_installed
            .load(Ordering::Relaxed),
    )
}

/// The follower thread body (spawned by `Service::start` when
/// [`crate::ServeConfig::follow`] is set). Runs until `stop`.
pub(crate) fn follower_loop(shared: &Arc<Shared>, stop: &AtomicBool) {
    let Some(addr) = shared.cfg.follow.clone() else {
        return;
    };
    let id = shared
        .cfg
        .follower_id
        .clone()
        .unwrap_or_else(|| format!("follower-{}", std::process::id()));
    let mut backoff = Backoff::new();
    while !stop.load(Ordering::SeqCst) {
        let before = progress(shared);
        let session = WireClient::connect(addr.as_str()).and_then(|mut client| {
            client.set_timeout(Some(WIRE_TIMEOUT))?;
            run_session(shared, &mut client, &id, stop)
        });
        match session {
            // A session only returns cleanly on stop.
            Ok(()) => return,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let sleep = backoff.on_failure(progress(shared) != before);
                shared
                    .metrics
                    .repl_backoff_ms
                    .store(sleep.as_millis() as u64, Ordering::Relaxed);
                Metrics::bump(&shared.metrics.repl_reconnects);
                sleep_stop_aware(stop, sleep);
            }
        }
    }
}

/// One connected session: repeatedly list the primary's databases and
/// drive each to the primary's applied LSN, then idle-poll. Any I/O or
/// decode error tears the session down to the reconnect path.
fn run_session(
    shared: &Arc<Shared>,
    client: &mut WireClient,
    id: &str,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    while !stop.load(Ordering::SeqCst) {
        let dbs = match client.roundtrip("DBS")? {
            Response::Rows(rows) => rows,
            other => {
                return Err(std::io::Error::other(format!(
                    "primary answered DBS with {other:?}"
                )))
            }
        };
        for db in dbs {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            sync_db(shared, client, &db, id, stop)?;
        }
        sleep_stop_aware(stop, shared.cfg.follow_poll);
    }
    Ok(())
}

/// Drive one database to the primary's applied LSN: request batches from
/// the local applied LSN until it catches the `primary_lsn` a batch
/// carried. Snapshot batches replace the local shard wholesale; record
/// batches commit through the ordinary write path.
fn sync_db(
    shared: &Arc<Shared>,
    client: &mut WireClient,
    db: &str,
    id: &str,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // A promoted shard is its own lineage now: replaying the old
        // primary into it would silently undo the fence.
        if shared.shard(db).is_some_and(|s| s.is_promoted()) {
            return Ok(());
        }
        let applied = applied_lsn(shared, db);
        let line = format!("REPLICATE {db} FROM {} AS {id}", lsn_to_wire(applied));
        let rows = match client.roundtrip(&line)? {
            Response::Rows(rows) => rows,
            // The database vanished between DBS and now; not an error.
            Response::Error {
                kind: ErrKind::NotFound,
                ..
            } => return Ok(()),
            Response::Error { kind, message } => {
                return Err(std::io::Error::other(format!(
                    "primary refused {line:?}: {} {message}",
                    kind.code()
                )))
            }
            Response::Ok(msg) => {
                return Err(std::io::Error::other(format!(
                    "primary answered REPLICATE with OK {msg:?}"
                )))
            }
        };
        let batch = ReplBatch::from_rows(&rows).map_err(std::io::Error::other)?;
        match shared.cfg.faults.check(FaultPoint::ReplicateApply) {
            Some(FaultMode::Stall(ms)) => {
                Metrics::bump(&shared.metrics.faults_injected);
                sleep_stop_aware(stop, Duration::from_millis(ms));
            }
            Some(_) => {
                Metrics::bump(&shared.metrics.faults_injected);
                // Dropping the connection mid-apply is the follower-side
                // partition; the reconnect path resumes from whatever
                // actually committed.
                return Err(crate::faults::Faults::injected_error(
                    FaultPoint::ReplicateApply,
                ));
            }
            None => {}
        }
        // Epoch ordering: a batch behind the local shard's epoch comes
        // from a deposed lineage (the old primary resurfacing) and must
        // not be applied; a newer epoch is adopted below, after the
        // batch lands (a snapshot install replaces the shard).
        if let Some(shard) = shared.shard(db) {
            if batch.epoch < shard.epoch() {
                Metrics::bump(&shared.metrics.fenced_rejects);
                return Err(std::io::Error::other(format!(
                    "FENCED: primary's batch for {db:?} carries stale epoch {} (local {})",
                    batch.epoch,
                    shard.epoch()
                )));
            }
        }
        if crate::trace_enabled() {
            let span = match (batch.records.first(), batch.records.last()) {
                (Some((a, _)), Some((b, _))) => format!("{}..{}", a.raw_minutes(), b.raw_minutes()),
                _ => "-".to_string(),
            };
            eprintln!(
                "TRACE sync id={id} db={db} from={} primary_lsn={} epoch={} snapshot={} records={} [{span}]",
                applied.raw_minutes(),
                batch.primary_lsn.raw_minutes(),
                batch.epoch,
                batch.snapshot.is_some(),
                batch.records.len(),
            );
        }
        shared.repl.note_primary_lsn(db, batch.primary_lsn);
        if let Some(image) = &batch.snapshot {
            let doem = snapshot_from_bytes(image).map_err(std::io::Error::other)?;
            install_replicated(shared, db, doem, batch.primary_lsn)
                .map_err(std::io::Error::other)?;
            Metrics::bump(&shared.metrics.repl_snapshots_installed);
        } else {
            if shared.shard(db).is_none() {
                // A records-only batch means the primary's tail reaches
                // back to the beginning of the history: materialize the
                // empty database those records rebuild from (this is also
                // how an empty CREATEd database arrives at a follower).
                let empty = DoemDatabase::from_snapshot(&OemDatabase::new(db.to_string()));
                install_replicated(shared, db, empty, Timestamp::NEG_INFINITY)
                    .map_err(std::io::Error::other)?;
                Metrics::bump(&shared.metrics.repl_snapshots_installed);
            }
            for (at, changes) in &batch.records {
                apply_replicated(shared, db, *at, changes).map_err(std::io::Error::other)?;
                Metrics::bump(&shared.metrics.repl_records_applied);
            }
        }
        if let Some(shard) = shared.shard(db) {
            shard.adopt_epoch(batch.epoch);
        }
        if applied_lsn(shared, db) >= batch.primary_lsn {
            return Ok(());
        }
    }
}

/// The local applied LSN for `db` (`NEG_INFINITY` when the shard does
/// not exist yet — the empty-state attach asks for everything).
fn applied_lsn(shared: &Shared, db: &str) -> Timestamp {
    shared
        .shard(db)
        .map(|s| s.state.read().last_at)
        .unwrap_or(Timestamp::NEG_INFINITY)
}

/// Sleep in short slices so a stop request never waits out a backoff.
fn sleep_stop_aware(stop: &AtomicBool, total: Duration) {
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::SeqCst) {
        let slice = left.min(Duration::from_millis(50));
        std::thread::sleep(slice);
        left = left.saturating_sub(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_cap_without_progress() {
        let mut b = Backoff::new();
        let mut sleeps = Vec::new();
        for _ in 0..8 {
            sleeps.push(b.on_failure(false).as_millis());
        }
        assert_eq!(sleeps, vec![50, 100, 200, 400, 800, 1600, 2000, 2000]);
    }

    #[test]
    fn progress_resets_only_the_session_that_made_it() {
        let mut b = Backoff::new();
        // Outage: four no-progress failures climb the ladder.
        for _ in 0..4 {
            b.on_failure(false);
        }
        // A session that synced some records before dying starts over…
        assert_eq!(b.on_failure(true), BACKOFF_MIN);
        // …but the *next* failure without progress does not get the
        // floor again (the all-time-counter bug this struct replaces).
        assert_eq!(b.on_failure(false), BACKOFF_MIN * 2);
    }
}
