//! The follower half of replication: a background thread that pulls
//! batches from the primary and replays them into the local shards.
//!
//! The loop is deliberately client-shaped — it speaks the ordinary wire
//! protocol through a [`WireClient`], so anything between a follower and
//! its primary (proxies, fault injection, a different build) only has to
//! understand the line protocol. Each cycle lists the primary's
//! databases, then drives every one to the primary's applied LSN:
//! `REPLICATE <db> FROM <applied>` either returns a checkpoint image
//! (installed wholesale, replacing the local shard — the answer whenever
//! `<applied>` is outside the primary's retention tail) or a run of
//! history entries, which enter the **same commit pipeline as local
//! writes** (`sequence` → persist → publish) — through the follower's
//! own WAL when it has one, so follower WALs, checkpoints, and crash
//! recovery need no replication-specific code at all. The canonical change-op
//! application order inside each record is [`doem::DoemDatabase::apply`]'s,
//! identical on both sides by construction.
//!
//! The follower derives its pace from its own progress: after a round
//! that applied records or installed an image it starts the next round at
//! once; after an idle round it sleeps a delay that doubles from 1ms to
//! 100ms, so a caught-up follower polls about ten times a second.
//!
//! This loop is serve's one retry mechanism ([`WireClient`] never
//! retries, and a replicated record that the pipeline refuses — `BUSY`
//! included — ends the session). Failed sessions reconnect with
//! exponential backoff (50ms doubling to 2s, counted in
//! `repl_reconnects`, the last slept delay published as the
//! `repl_backoff_ms` gauge); a session that made replication progress
//! returns the backoff to its floor, while a primary that accepts
//! connections but errors immediately keeps backing off. Both waits are
//! one `Backoff` type, and every sleep is stop-aware so shutdown never
//! waits one out.
//!
//! Promotion fencing: batches carry the serving shard's epoch. The sync
//! loop skips shards this instance has `PROMOTE`d (they are their own
//! lineage now), adopts newer epochs from batch headers before it
//! applies their records, and rejects a batch whose epoch is *behind*
//! the local shard's — a deposed primary resurfacing — with a `FENCED`
//! session error. The sequence stage refuses every replicated record on
//! a promoted shard, so a `PROMOTE` that lands mid-batch keeps the rest
//! of the old primary's batch out of the new lineage.

use crate::faults::{FaultMode, FaultPoint};
use crate::lock_order::{Token, Unlocked};
use crate::metrics::Metrics;
use crate::protocol::{lsn_to_wire, ErrKind, Response};
use crate::replication::stream::{snapshot_from_bytes, ReplBatch};
use crate::service::{apply_replicated, install_replicated, Lineage, Shared};
use crate::tcp::WireClient;
use doem::DoemDatabase;
use oem::{OemDatabase, Timestamp};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Per-roundtrip wire timeout — a wedged primary surfaces as a
/// connection failure and re-enters the backoff path.
const WIRE_TIMEOUT: Duration = Duration::from_secs(5);

/// A delay that doubles per call from its floor up to its ceiling, and
/// returns to the floor on [`Backoff::reset`]. Two instances pace the
/// follower: the reconnect wait after a failed session, and the idle
/// wait between poll rounds. Each is reset by progress made since it was
/// last slept — the reconnect wait by *that session's* progress (an
/// earlier version reset off the all-time counters, so after the first
/// successful batch ever, every later outage was retried at the floor —
/// hammering a struggling primary for the rest of the process).
struct Backoff {
    floor: Duration,
    ceiling: Duration,
    cur: Duration,
}

impl Backoff {
    /// The wait before reconnecting after a failed session.
    fn reconnect() -> Backoff {
        Backoff::new(Duration::from_millis(50), Duration::from_secs(2))
    }

    /// The wait between poll rounds that found nothing to apply.
    fn idle() -> Backoff {
        Backoff::new(Duration::from_millis(1), Duration::from_millis(100))
    }

    fn new(floor: Duration, ceiling: Duration) -> Backoff {
        Backoff {
            floor,
            ceiling,
            cur: floor,
        }
    }

    /// The next wait sleeps the floor again.
    fn reset(&mut self) {
        self.cur = self.floor;
    }

    /// The delay to sleep now; the one after it is twice as long, up to
    /// the ceiling.
    fn next(&mut self) -> Duration {
        let sleep = self.cur;
        self.cur = (self.cur * 2).min(self.ceiling);
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
/// [`crate::ServeConfig::follow`] is set). Runs until the service stops.
pub(crate) fn follower_loop(shared: &Arc<Shared>, unlocked: &mut Token<Unlocked>) {
    let Some(addr) = shared.cfg.follow.clone() else {
        return;
    };
    let mut backoff = Backoff::reconnect();
    while !shared.stopping() {
        let before = progress(shared);
        let session = unlocked
            .blocking(|| WireClient::connect(addr.as_str()))
            .and_then(|mut client| {
                client.set_timeout(Some(WIRE_TIMEOUT))?;
                run_session(shared, &mut client, unlocked)
            });
        match session {
            // A session only returns cleanly on stop.
            Ok(()) => return,
            Err(_) => {
                if shared.stopping() {
                    return;
                }
                if progress(shared) != before {
                    backoff.reset();
                }
                let sleep = backoff.next();
                shared
                    .metrics
                    .repl_backoff_ms
                    .store(sleep.as_millis() as u64, Ordering::Relaxed);
                Metrics::bump(&shared.metrics.repl_reconnects);
                sleep_stop_aware(shared, sleep, unlocked);
            }
        }
    }
}

/// One connected session: repeatedly list the primary's databases and
/// drive each to the primary's applied LSN — a round — then start the
/// next round at once if this one made progress, or after the idle wait
/// if it did not. Any I/O, decode or apply error tears the session down
/// to the reconnect path.
fn run_session(
    shared: &Arc<Shared>,
    client: &mut WireClient,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<()> {
    let mut idle = Backoff::idle();
    while !shared.stopping() {
        let before = progress(shared);
        let dbs = match unlocked.blocking(|| client.roundtrip("DBS"))? {
            Response::Rows(rows) => rows,
            other => {
                return Err(std::io::Error::other(format!(
                    "primary answered DBS with {other:?}"
                )))
            }
        };
        for db in dbs {
            if shared.stopping() {
                return Ok(());
            }
            sync_db(shared, client, &db, unlocked)?;
        }
        if progress(shared) != before {
            idle.reset();
        } else {
            sleep_stop_aware(shared, idle.next(), unlocked);
        }
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
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<()> {
    loop {
        // A promoted shard is its own lineage now: nothing to ask for.
        let local = shared.shard(db, unlocked);
        let promoted = local.as_ref().is_some_and(|s| s.pipeline.lineage(unlocked).promoted);
        if shared.stopping() || promoted {
            return Ok(());
        }
        let applied = applied_lsn(shared, db, unlocked);
        let line = format!("REPLICATE {db} FROM {}", lsn_to_wire(applied));
        let rows = match unlocked.blocking(|| client.roundtrip(&line))? {
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
                sleep_stop_aware(shared, Duration::from_millis(ms), unlocked);
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
        // Epoch ordering, before any record of the batch is sequenced: a
        // batch behind the local epoch comes from a deposed lineage (the
        // old primary resurfacing) and must not be applied, and a shard
        // promoted meanwhile takes nothing more.
        match local.as_ref().map(|s| s.pipeline.follow(&batch, unlocked)) {
            Some(Ok(false)) => return Ok(()),
            Some(Err(epoch)) => {
                Metrics::bump(&shared.metrics.fenced_rejects);
                return Err(std::io::Error::other(format!(
                    "FENCED: primary's batch for {db:?} carries stale epoch {} (local {epoch})",
                    batch.epoch
                )));
            }
            _ => {}
        }
        if batch.snapshot.is_some() || local.is_none() {
            // An image replaces the local shard. Without one, the primary's
            // tail reaches back to the beginning of the history: the
            // records rebuild from an empty database (this is also how an
            // empty CREATEd database arrives at a follower). The new shard
            // starts on the batch's lineage.
            let (doem, last_at) = match &batch.snapshot {
                Some(image) => {
                    let doem = snapshot_from_bytes(image).map_err(std::io::Error::other)?;
                    (doem, batch.primary_lsn)
                }
                None => {
                    let empty = OemDatabase::new(db.to_string());
                    (DoemDatabase::from_snapshot(&empty), Timestamp::NEG_INFINITY)
                }
            };
            let lineage = Lineage {
                epoch: batch.epoch,
                primary_lsn: Some(batch.primary_lsn),
                ..Lineage::default()
            };
            if !install_replicated(shared, db, doem, last_at, lineage, unlocked)
                .map_err(std::io::Error::other)?
            {
                // Promoted since the batch's lineage was taken.
                return Ok(());
            }
            Metrics::bump(&shared.metrics.repl_snapshots_installed);
        }
        for (at, changes) in &batch.records {
            if !apply_replicated(shared, db, *at, changes, unlocked)
                .map_err(std::io::Error::other)?
            {
                // Promoted while the batch was applying: the old lineage
                // ends here, mid-batch.
                return Ok(());
            }
            Metrics::bump(&shared.metrics.repl_records_applied);
        }
        if applied_lsn(shared, db, unlocked) >= batch.primary_lsn {
            return Ok(());
        }
    }
}

/// The local applied LSN for `db` (`NEG_INFINITY` when the shard does
/// not exist yet — the empty-state attach asks for everything).
fn applied_lsn(shared: &Shared, db: &str, unlocked: &mut Token<Unlocked>) -> Timestamp {
    shared
        .shard(db, unlocked)
        .map(|s| s.state.read(unlocked).last_at)
        .unwrap_or(Timestamp::NEG_INFINITY)
}

/// Sleep in short slices so a stop request never waits out a backoff.
fn sleep_stop_aware(shared: &Shared, total: Duration, unlocked: &mut Token<Unlocked>) {
    let mut left = total;
    while !left.is_zero() && !shared.stopping() {
        let slice = left.min(Duration::from_millis(50));
        unlocked.blocking(|| std::thread::sleep(slice));
        left = left.saturating_sub(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn millis(b: &mut Backoff, n: usize) -> Vec<u128> {
        (0..n).map(|_| b.next().as_millis()).collect()
    }

    #[test]
    fn backoff_doubles_to_the_cap_without_progress() {
        let mut b = Backoff::reconnect();
        assert_eq!(
            millis(&mut b, 8),
            vec![50, 100, 200, 400, 800, 1600, 2000, 2000]
        );
    }

    #[test]
    fn progress_resets_only_the_session_that_made_it() {
        let mut b = Backoff::reconnect();
        // Outage: four no-progress failures climb the ladder.
        millis(&mut b, 4);
        // A session that synced some records before dying starts over…
        b.reset();
        assert_eq!(b.next(), Duration::from_millis(50));
        // …but the *next* failure without progress does not get the
        // floor again (the all-time-counter bug this struct replaces).
        assert_eq!(b.next(), Duration::from_millis(100));
    }

    #[test]
    fn idle_wait_doubles_from_1ms_to_100ms() {
        let mut b = Backoff::idle();
        assert_eq!(millis(&mut b, 9), vec![1, 2, 4, 8, 16, 32, 64, 100, 100]);
    }

    #[test]
    fn idle_wait_returns_to_1ms_after_a_round_with_progress() {
        let mut b = Backoff::idle();
        millis(&mut b, 12);
        b.reset();
        assert_eq!(millis(&mut b, 3), vec![1, 2, 4]);
    }
}
