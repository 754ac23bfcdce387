//! The primary half of replication: per-shard log-tail retention and the
//! `REPLICATE` request handler.
//!
//! Checkpoints truncate a shard's on-disk WAL, but followers may still
//! need records from before the truncation — so each shard keeps an
//! in-memory **retention tail**: the recent suffix of its history `H`,
//! appended under the same state write lock that publishes the commit
//! (group-commit batches therefore become atomically visible shipping
//! units). The tail keeps exactly [`crate::ServeConfig::retain_lsns`]
//! records; a follower whose applied LSN is older than the tail's base,
//! or newer than the shard's last published LSN (the shard was replaced
//! by an older history, or a non-durable primary restarted), gets the
//! checkpoint image instead.

use crate::faults::{FaultMode, FaultPoint};
use crate::lock_order::{Token, Unlocked};
use crate::metrics::Metrics;
use crate::protocol::{ErrKind, Response};
use crate::replication::stream::ReplBatch;
use crate::service::Shared;
use oem::{ChangeSet, Timestamp};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Duration;

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

    /// Append one published record and prune down to `retain` records.
    pub(crate) fn push(&mut self, at: Timestamp, changes: ChangeSet, retain: usize) {
        self.records.push_back((at, changes));
        while self.records.len() > retain.max(1) {
            if let Some((front_at, _)) = self.records.pop_front() {
                self.base = front_at;
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

    /// Retained record count (`STATS`' `retained_lsns` gauge sums it).
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

/// Serve one `REPLICATE <db> FROM <from>` request: cut a batch — log
/// records when the tail reaches back to `from` and the follower is not
/// ahead of the shard, otherwise the published checkpoint image. The
/// shard's state lock is held only to clone `Arc` handles; image
/// encoding happens outside every lock.
pub(crate) fn serve_replicate(
    shared: &Shared,
    db: &str,
    from: Timestamp,
    unlocked: &mut Token<Unlocked>,
) -> Response {
    let Some(shard) = shared.shard(db, unlocked) else {
        return Response::err(ErrKind::NotFound, format!("no database named {db:?}"));
    };
    match shared.cfg.faults.check(FaultPoint::ReplicateServe) {
        Some(FaultMode::Stall(ms)) => {
            Metrics::bump(&shared.metrics.faults_injected);
            unlocked.blocking(|| std::thread::sleep(Duration::from_millis(ms)));
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
    let (image, records, primary_lsn) = {
        let st = shard.state.read(unlocked);
        // A follower past `last_at` holds records this history never
        // had (the shard was replaced, or a non-durable primary
        // restarted): only the image brings it back.
        if st.tail.covers(from) && from <= st.last_at {
            (None, st.tail.records_after(from, BATCH_RECORDS), st.last_at)
        } else {
            (Some(st.doem.snapshot()), Vec::new(), st.last_at)
        }
    };
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
        epoch: shard.pipeline.lineage(unlocked).epoch,
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
            tail.push(at, c, 16);
        }
        assert!(tail.covers(Timestamp::NEG_INFINITY));
        assert_eq!(tail.records_after(Timestamp::NEG_INFINITY, 100).len(), 3);
        let first = entry(0).0;
        assert_eq!(tail.records_after(first, 100).len(), 2);
        assert_eq!(tail.records_after(first, 1).len(), 1);
    }

    #[test]
    fn tails_prune_to_retain_and_stop_covering() {
        let mut tail = ReplTail::new(Timestamp::NEG_INFINITY);
        for i in 0..5 {
            let (at, c) = entry(i);
            tail.push(at, c, 2);
        }
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.base, entry(2).0);
        assert!(!tail.covers(Timestamp::NEG_INFINITY));
        assert!(tail.covers(entry(2).0));
    }
}
