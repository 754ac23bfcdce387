//! The primary half of replication: per-shard log-tail retention and the
//! `REPLICATE` request handler.
//!
//! Checkpoints truncate a shard's on-disk WAL, but followers may still
//! need records from before the truncation — so each shard keeps an
//! in-memory **retention tail**: the recent suffix of its history `H`,
//! appended under the same state write lock that publishes the commit
//! (group-commit batches therefore become atomically visible shipping
//! units). The tail prunes down to [`crate::ServeConfig::replication_retain`]
//! records, except that records not yet acknowledged by every leased
//! follower are kept up to a hard cap of 8× that — an attached-but-slow
//! follower stretches retention, a vanished one cannot pin memory
//! forever (its lease expires, and a follower behind the tail gets a
//! checkpoint image instead).
//!
//! Leases live in the [`ReplHub`]: each `REPLICATE … AS <peer>` refreshes
//! the peer's lease with the LSN it has applied; the minimum across
//! unexpired leases is published to the shard as an atomic **retention
//! floor**, so the publish path never touches the lease table.

use crate::faults::{FaultMode, FaultPoint};
use crate::metrics::Metrics;
use crate::protocol::{ErrKind, Response};
use crate::replication::stream::ReplBatch;
use crate::service::Shared;
use oem::{ChangeSet, Timestamp};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A lease with no refresh for this long no longer pins retention.
const LEASE_TTL: Duration = Duration::from_secs(15);

/// How far past `retain` an unacknowledged suffix may stretch the tail.
const HARD_CAP_FACTOR: usize = 8;

/// Most history records one `REPLICATE` batch carries.
const BATCH_RECORDS: usize = 64;

/// The recent suffix of one shard's history, kept for followers. The
/// records cover exactly the LSN interval `(base, last published]`: a
/// follower at LSN `from >= base` can be served records, one behind
/// `base` needs a checkpoint image.
pub(crate) struct ReplTail {
    /// The LSN just before the oldest retained record — the high-water
    /// mark of everything already pruned away.
    pub(crate) base: Timestamp,
    records: VecDeque<(Timestamp, ChangeSet)>,
}

impl ReplTail {
    /// An empty tail based at the shard's current LSN (nothing older can
    /// ever be served from it — a restarted primary makes stale
    /// followers resync via checkpoint image, by construction).
    pub(crate) fn new(base: Timestamp) -> ReplTail {
        ReplTail {
            base,
            records: VecDeque::new(),
        }
    }

    /// `true` when a follower at `from` can be served records (its next
    /// record is still retained).
    pub(crate) fn covers(&self, from: Timestamp) -> bool {
        from >= self.base
    }

    /// Append one published record and prune: down to `retain` records
    /// freely once acknowledged by every lease (`floor` is the minimum
    /// leased LSN in raw minutes; `i64::MAX` when no follower is
    /// attached), and past `HARD_CAP_FACTOR * retain` unconditionally.
    pub(crate) fn push(&mut self, at: Timestamp, changes: ChangeSet, retain: usize, floor: i64) {
        self.records.push_back((at, changes));
        let retain = retain.max(1);
        while self.records.len() > retain {
            let front_at = self.records[0].0;
            if front_at.raw_minutes() <= floor
                || self.records.len() > retain * HARD_CAP_FACTOR
            {
                self.base = front_at;
                self.records.pop_front();
            } else {
                break;
            }
        }
    }

    /// Up to `limit` retained records strictly after `from`, in LSN
    /// order. Caller checked [`ReplTail::covers`] first.
    pub(crate) fn records_after(
        &self,
        from: Timestamp,
        limit: usize,
    ) -> Vec<(Timestamp, ChangeSet)> {
        self.records
            .iter()
            .filter(|(at, _)| *at > from)
            .take(limit.max(1))
            .cloned()
            .collect()
    }

    /// Retained record count (test assertions on pruning behavior).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

/// db → peer → (applied LSN in raw minutes, last refresh).
type LeaseMap = HashMap<String, HashMap<String, (i64, Instant)>>;

/// Cross-shard replication bookkeeping, hung off the service's shared
/// state: follower retention leases (primary side) and the last observed
/// primary LSN per database (follower side, for `STATS` lag rows).
pub(crate) struct ReplHub {
    /// Follower retention leases keyed by database, then peer id.
    leases: Mutex<LeaseMap>,
    /// db → the primary's applied LSN last carried by a batch.
    observed_primary: Mutex<HashMap<String, i64>>,
}

impl ReplHub {
    pub(crate) fn new() -> ReplHub {
        ReplHub {
            leases: Mutex::new(HashMap::new()),
            observed_primary: Mutex::new(HashMap::new()),
        }
    }

    /// Refresh `peer`'s lease on `db` with the LSN it has applied, expire
    /// stale leases, and return the new retention floor: the minimum
    /// applied LSN across live leases (raw minutes; `i64::MAX` when none
    /// remain).
    pub(crate) fn ack(&self, db: &str, peer: &str, applied: Timestamp) -> i64 {
        let now = Instant::now();
        let mut leases = self.leases.lock();
        let per_db = leases.entry(db.to_string()).or_default();
        per_db.insert(peer.to_string(), (applied.raw_minutes(), now));
        per_db.retain(|_, (_, seen)| now.duration_since(*seen) < LEASE_TTL);
        per_db
            .values()
            .map(|(lsn, _)| *lsn)
            .min()
            .unwrap_or(i64::MAX)
    }

    /// Follower side: remember the primary's applied LSN for `db`.
    pub(crate) fn note_primary_lsn(&self, db: &str, lsn: Timestamp) {
        self.observed_primary
            .lock()
            .insert(db.to_string(), lsn.raw_minutes());
    }

    /// Follower side: the primary LSN last observed for `db`.
    pub(crate) fn observed_primary_lsn(&self, db: &str) -> Option<Timestamp> {
        self.observed_primary
            .lock()
            .get(db)
            .map(|raw| Timestamp::from_raw_minutes(*raw))
    }
}

/// Serve one `REPLICATE <db> FROM <from> [AS <peer>]` request: refresh
/// the peer's lease, then cut a batch — log records when the tail still
/// reaches back to `from`, otherwise the published checkpoint image. The
/// shard's state lock is held only to clone `Arc` handles; image
/// encoding happens outside every lock.
pub(crate) fn serve_replicate(
    shared: &Shared,
    db: &str,
    from: Timestamp,
    peer: Option<&str>,
) -> Response {
    let Some(shard) = shared.shard(db) else {
        return Response::err(ErrKind::NotFound, format!("no database named {db:?}"));
    };
    match shared.cfg.faults.check(FaultPoint::ReplicateServe) {
        Some(FaultMode::Stall(ms)) => {
            Metrics::bump(&shared.metrics.faults_injected);
            std::thread::sleep(Duration::from_millis(ms));
        }
        Some(_) => {
            Metrics::bump(&shared.metrics.faults_injected);
            return Response::err(
                ErrKind::Io,
                "injected partition while serving a replication batch",
            );
        }
        None => {}
    }
    if let Some(peer) = peer {
        let floor = shared.repl.ack(db, peer, from);
        shard.repl_floor.store(floor, Ordering::Relaxed);
    }
    let (image, records, primary_lsn) = {
        let st = shard.state.read();
        if st.tail.covers(from) {
            (None, st.tail.records_after(from, BATCH_RECORDS), st.last_at)
        } else {
            (Some(st.doem.snapshot()), Vec::new(), st.last_at)
        }
    };
    if crate::trace_enabled() {
        let span = match (records.first(), records.last()) {
            (Some((a, _)), Some((b, _))) => format!("{}..{}", a.raw_minutes(), b.raw_minutes()),
            _ => "-".to_string(),
        };
        eprintln!(
            "TRACE serve id={:?} db={db} from={} primary_lsn={} epoch={} snapshot={} records={} [{span}] peer={peer:?}",
            shared.cfg.follower_id,
            from.raw_minutes(),
            primary_lsn.raw_minutes(),
            shard.epoch(),
            image.is_some(),
            records.len(),
        );
    }
    let snapshot = image.map(|d| crate::replication::stream::snapshot_bytes(&d));
    Metrics::bump(&shared.metrics.repl_batches_shipped);
    if snapshot.is_some() {
        Metrics::bump(&shared.metrics.repl_snapshots_shipped);
    }
    shared
        .metrics
        .repl_records_shipped
        .fetch_add(records.len() as u64, Ordering::Relaxed);
    let batch = ReplBatch {
        db: db.to_string(),
        from,
        primary_lsn,
        snapshot,
        records,
        epoch: shard.epoch(),
    };
    Response::Rows(batch.to_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::guide::history_example_2_3;

    /// The i-th record of a synthetic history: change sets cycle through
    /// the guide example's, timestamps strictly increase with `i`.
    fn entry(i: usize) -> (Timestamp, ChangeSet) {
        let history = history_example_2_3();
        let entries = history.entries();
        let e = &entries[i % entries.len()];
        (Timestamp::from_raw_minutes(10 + i as i64), e.changes.clone())
    }

    #[test]
    fn tail_serves_exactly_the_records_after_from() {
        let mut tail = ReplTail::new(Timestamp::NEG_INFINITY);
        for i in 0..3 {
            let (at, c) = entry(i);
            tail.push(at, c, 16, i64::MAX);
        }
        assert!(tail.covers(Timestamp::NEG_INFINITY));
        assert_eq!(tail.records_after(Timestamp::NEG_INFINITY, 100).len(), 3);
        let first = entry(0).0;
        assert_eq!(tail.records_after(first, 100).len(), 2);
        assert_eq!(tail.records_after(first, 1).len(), 1);
    }

    #[test]
    fn unleased_tails_prune_to_retain_and_stop_covering() {
        let mut tail = ReplTail::new(Timestamp::NEG_INFINITY);
        for i in 0..5 {
            let (at, c) = entry(i);
            tail.push(at, c, 2, i64::MAX);
        }
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.base, entry(2).0);
        assert!(!tail.covers(Timestamp::NEG_INFINITY));
        assert!(tail.covers(entry(2).0));
    }

    #[test]
    fn a_lagging_lease_stretches_retention_up_to_the_hard_cap() {
        // Floor below every record: nothing may prune until the hard cap.
        let mut tail = ReplTail::new(Timestamp::NEG_INFINITY);
        let floor = i64::MIN;
        for i in 0..5 {
            let (at, c) = entry(i);
            tail.push(at, c, 2, floor);
        }
        assert_eq!(tail.len(), 5, "leased records must be retained");
        // Push far past the cap (2 * 8): retention gives up.
        let (last_at, c) = entry(5);
        let mut at = last_at;
        for _ in 0..20 {
            at = at.plus_minutes(1);
            tail.push(at, c.clone(), 2, floor);
        }
        assert!(tail.len() <= 2 * HARD_CAP_FACTOR + 1, "len {}", tail.len());
    }

    #[test]
    fn hub_floor_is_the_minimum_live_lease() {
        let hub = ReplHub::new();
        let t10 = Timestamp::from_raw_minutes(10);
        let t20 = Timestamp::from_raw_minutes(20);
        assert_eq!(hub.ack("db", "a", t20), 20);
        assert_eq!(hub.ack("db", "b", t10), 10);
        // A's refresh does not mask B's lag.
        assert_eq!(hub.ack("db", "a", t20), 10);
        // Leases are per database.
        assert_eq!(hub.ack("other", "c", t20), 20);
    }
}
