//! The commit pipeline every shard runs: **sequence → persist → publish**.
//!
//! A write — `UPDATE`, `MUTATE`, or a replicated record on a follower —
//! enters [`sequence`] under the shard's pipeline lock: it is validated
//! and applied, once, to the *sequencing head* (the graphs with every
//! sequenced change applied), which yields the [`AppliedSet`] the publish
//! stage will swap in. What happens next depends only on whether the
//! shard owns a WAL. If it does, the record is staged on the commit queue
//! and the shard's *group committer* persists whole batches with one
//! `write` and one `fsync` outside every lock, then publishes them in LSN
//! order and releases the waiting reply slots. If it does not, the persist
//! stage is empty — no I/O, so no thread and no queue hop: the sequencing
//! thread publishes before it drops the pipeline lock and answers
//! directly.

use super::client::ReplySlot;
use super::recovery::checkpoint_published;
use super::shard::{publish, AppliedSet, Committer, Shard};
use super::Shared;
use crate::metrics::Metrics;
use crate::protocol::{ErrKind, Response};
use crate::wal::{self, DbWal};
use doem::{apply_set, SharedDoem};
use lorel::run_update;
use oem::{ChangeSet, SharedOem, Timestamp};
use parking_lot::{Condvar, Mutex};
use sanitizer::thread::spawn_tracked;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sequenced write parked on the commit queue of a WAL-owning shard
/// until the group committer persists and publishes it. LSNs strictly
/// increase along the queue, so publish order is sequence order is log
/// order.
struct StagedCommit {
    set: AppliedSet,
    /// The WAL frame, encoded at sequence time so the committer's batch
    /// write is pure I/O.
    frame: Vec<u8>,
    ack: Ack,
    /// Where the submitting session is waiting; released at publish.
    reply: Arc<ReplySlot>,
}

/// What the acknowledgement of a write echoes besides its LSN and the
/// new generation.
#[derive(Clone, Copy)]
struct Ack {
    /// Operation count.
    ops: usize,
    /// For `MUTATE`: how many nodes the compiled update created (the ack
    /// text differs). `None` for `UPDATE`.
    created: Option<usize>,
}

impl Ack {
    fn response(self, at: Timestamp, generation: u64) -> Response {
        let ops = self.ops;
        Response::Ok(match self.created {
            Some(c) => format!("applied {ops} ops ({c} created) at {at}; generation {generation}"),
            None => format!("applied {ops} ops at {at}; generation {generation}"),
        })
    }
}

/// Why a shard's pipeline is being stopped.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopKind {
    /// Service shutdown: drain the queue, then take a final checkpoint.
    Shutdown,
    /// Drain the queue — already-sequenced writes still commit — but take
    /// no checkpoint. The shard is being replaced (`LOAD`/`install` over
    /// the same name; the new incarnation resets the durable files
    /// anyway), or the service is stopping the way a crash would and does
    /// not get to tidy its log.
    Abandon,
}

/// Everything under a shard's pipeline lock: the sequencing head (a
/// second handle on the graphs, ahead of the published state by exactly
/// the staged-but-unpublished writes) and the commit queue. The lock is
/// never held across WAL I/O.
struct PipelineState {
    /// DOEM graph with every sequenced change applied. Validation target.
    head_doem: SharedDoem,
    /// OEM replica in lockstep with `head_doem`; `MUTATE` compiles here.
    head_replica: SharedOem,
    /// Highest sequenced timestamp — the strict-LSN check reads this,
    /// not the published `ShardState::last_at`.
    head_at: Timestamp,
    /// Sequenced, not yet drained by the committer. Always empty on a
    /// shard that owns no WAL.
    queue: VecDeque<StagedCommit>,
    /// Set once by shutdown/replace; writes are refused from then on and
    /// the committer drains and exits.
    stop: Option<StopKind>,
}

/// The commit machinery of one shard.
pub(crate) struct CommitPipeline {
    inner: Mutex<PipelineState>,
    /// Signaled when the queue gains work or `stop` is set.
    work: Condvar,
}

impl CommitPipeline {
    /// A pipeline whose sequencing head starts at the given graphs.
    pub(crate) fn new(
        head_doem: SharedDoem,
        head_replica: SharedOem,
        head_at: Timestamp,
    ) -> CommitPipeline {
        CommitPipeline {
            inner: Mutex::new(PipelineState {
                head_doem,
                head_replica,
                head_at,
                queue: VecDeque::new(),
                stop: None,
            }),
            work: Condvar::new(),
        }
    }
}

/// The write a sequence stage is being asked to stage.
pub(crate) enum WriteKind {
    /// `UPDATE` (or a replicated record): an explicit change set.
    Update(ChangeSet),
    /// `MUTATE`: a Lorel update statement, compiled against the
    /// sequencing head's replica — the freshest one, ahead of the
    /// published state by the staged writes.
    Mutate(String),
}

/// The **sequence** stage. Under the pipeline lock only: refuse
/// read-only/stopping shards, resolve `AT now`, enforce the strictly
/// increasing timestamp (Definition 2.2 — the timestamp *is* the LSN),
/// compile `MUTATE` statements against the sequencing head, and apply the
/// change set to the head — the one `apply_set` of the write path. On a
/// WAL-owning shard the record is then staged for the committer and
/// `None` comes back (the committer delivers the ack to `reply` once the
/// batch is durable and published); otherwise it is published here and
/// its ack returned. An error response is returned for immediate
/// delivery either way.
pub(crate) fn sequence(
    shared: &Shared,
    shard: &Shard,
    db: &str,
    at: Option<Timestamp>,
    kind: WriteKind,
    reply: &Arc<ReplySlot>,
) -> Option<Response> {
    let mut ps = shard.pipeline.inner.lock();
    if shard.is_read_only() {
        return Some(read_only(db));
    }
    if ps.stop.is_some() {
        return Some(Response::err(
            ErrKind::Conflict,
            format!("database {db:?} is being replaced; retry"),
        ));
    }
    if ps.queue.len() >= shared.cfg.queue_depth.max(1) {
        Metrics::bump(&shared.metrics.busy_rejected);
        return Some(Response::err(ErrKind::Busy, "commit queue full, try again"));
    }
    // `AT now` resolves *inside* the sequence stage, under the pipeline
    // lock, against the sequencing high-water mark — so two concurrent
    // `AT now` writes can never race to the same LSN.
    let at = at.unwrap_or_else(|| resolve_now(shared, ps.head_at));
    if at <= ps.head_at {
        return Some(Response::err(
            ErrKind::Conflict,
            format!(
                "change set rejected: timestamp {at} is not after {} \
                 (histories are strictly time-ordered)",
                ps.head_at
            ),
        ));
    }
    let t = Instant::now();
    let (changes, created) = match kind {
        WriteKind::Update(changes) => (changes, None),
        WriteKind::Mutate(stmt) => match run_update(&ps.head_replica, &stmt) {
            Ok(c) => {
                let created = c.created.len();
                (c.changes, Some(created))
            }
            Err(e) => {
                shared.metrics.exec.record(t.elapsed());
                return Some(Response::err(
                    ErrKind::Conflict,
                    format!("update rejected: {e}"),
                ));
            }
        },
    };
    let PipelineState {
        head_doem,
        head_replica,
        ..
    } = &mut *ps;
    let outcome = apply_set(head_doem.make_mut(), head_replica.make_mut(), &changes, at);
    shared.metrics.exec.record(t.elapsed());
    if let Err(e) = outcome {
        // `apply_set` is all or nothing: the head is as it was.
        return Some(Response::err(
            ErrKind::Conflict,
            format!("change set rejected: {e}"),
        ));
    }
    ps.head_at = at;
    let ack = Ack {
        ops: changes.len(),
        created,
    };
    let set = AppliedSet {
        at,
        changes,
        doem: ps.head_doem.snapshot(),
        replica: ps.head_replica.snapshot(),
    };
    if shard.durable.is_none() {
        // The null persist stage: nothing to wait for, so publish before
        // the pipeline lock drops (`pipeline` → `state` → `versions`).
        let generation = publish(shared, shard, &mut shard.state.write(), set);
        return Some(ack.response(at, generation));
    }
    let frame = wal::encode_record_epoch(at, &set.changes, shard.epoch());
    ps.queue.push_back(StagedCommit {
        set,
        frame,
        ack,
        reply: Arc::clone(reply),
    });
    drop(ps);
    shard.pipeline.work.notify_one();
    None
}

/// The refusal a read-only shard answers writes with.
fn read_only(db: &str) -> Response {
    Response::err(
        ErrKind::ReadOnly,
        format!("database {db:?} is read-only after a log I/O failure"),
    )
}

/// Resolve an `AT now` write's timestamp against the shard's current
/// high-water mark `last`: the wall clock when it is strictly ahead,
/// otherwise `last + 1` minute — Definition 2.2 (change timestamps
/// strictly increase) holds even across a wall-clock regression, which
/// is counted in `clock_regressions`.
fn resolve_now(shared: &Shared, last: Timestamp) -> Timestamp {
    let now = shared.cfg.clock.now();
    if now > last {
        now
    } else {
        Metrics::bump(&shared.metrics.clock_regressions);
        last.plus_minutes(1)
    }
}

/// Ask a shard's pipeline to stop: further writes are refused, and the
/// committer (if any) drains its queue and exits as `kind` says.
pub(crate) fn request_stop(shard: &Shard, kind: StopKind) {
    shard.pipeline.inner.lock().stop.get_or_insert(kind);
    shard.pipeline.work.notify_all();
}

/// Wait for a stopped shard's committer to finish. Replies for staged
/// writes are delivered before this returns. A no-op on a shard that
/// owns no WAL.
pub(crate) fn join_committer(shard: &Shard) {
    let Some(d) = &shard.durable else {
        return;
    };
    let was = std::mem::replace(&mut *d.committer.lock(), Committer::Gone);
    if let Committer::Running(h) = was {
        let _ = h.join();
    }
}

/// Spawn the group committer for a WAL-owning shard, handing it exclusive
/// ownership of the shard's [`DbWal`]. A no-op for a shard without one.
pub(crate) fn start_committer(
    shared: &Arc<Shared>,
    name: &str,
    shard: &Arc<Shard>,
) -> std::io::Result<()> {
    let Some(d) = &shard.durable else {
        return Ok(());
    };
    let Committer::Parked(wal) = std::mem::replace(&mut *d.committer.lock(), Committer::Gone)
    else {
        return Ok(());
    };
    let shared = Arc::clone(shared);
    let shard_for_loop = Arc::clone(shard);
    let db = name.to_string();
    let handle = spawn_tracked(&format!("serve-committer-{name}"), move || {
        committer_loop(&shared, &db, &shard_for_loop, wal)
    })?;
    *d.committer.lock() = Committer::Running(handle);
    Ok(())
}

/// The persist + publish stages of a WAL-owning shard: one thread, the
/// sole owner of the shard's log. Each round drains up to
/// `group_commit_max` staged records (optionally lingering
/// `group_commit_window_us` for riders), persists them with one
/// `write`+`fsync` outside every lock, publishes them in LSN order, and
/// releases the waiting reply slots. On stop it drains what is queued,
/// then — for a shutdown — takes a final checkpoint so restart replays
/// nothing.
fn committer_loop(shared: &Shared, db: &str, shard: &Shard, mut wal: DbWal) {
    let pipeline = &shard.pipeline;
    let max = shared.cfg.group_commit_max.max(1);
    let window = Duration::from_micros(shared.cfg.group_commit_window_us);
    loop {
        let (batch, stopping) = {
            let mut ps = pipeline.inner.lock();
            while ps.queue.is_empty() && ps.stop.is_none() {
                pipeline.work.wait(&mut ps);
            }
            if !window.is_zero() && ps.stop.is_none() && ps.queue.len() < max {
                // Linger for riders — but never past the window, and stop
                // requests cut the wait short.
                let deadline = Instant::now() + window;
                while ps.queue.len() < max && ps.stop.is_none() {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    if pipeline.work.wait_for(&mut ps, deadline - now).timed_out() {
                        break;
                    }
                }
            }
            let n = ps.queue.len().min(max);
            let batch: Vec<StagedCommit> = ps.queue.drain(..n).collect();
            (batch, ps.stop)
        };
        if batch.is_empty() {
            // Stop requested and the queue is drained.
            if stopping == Some(StopKind::Shutdown) && !wal.is_empty() && !shard.is_read_only() {
                let _ = checkpoint_published(shared, db, shard, &mut wal);
            }
            return;
        }
        if persist_and_publish(shared, db, shard, &mut wal, batch) {
            let every = shared.cfg.checkpoint_every;
            if every > 0 && wal.since_checkpoint >= every {
                let _ = checkpoint_published(shared, db, shard, &mut wal);
            }
        }
    }
}

/// Persist one staged batch (a single `write`+`fsync` through
/// [`DbWal::append_batch`]) and, if that succeeds, publish each record in
/// LSN order under one hold of the shard's write lock and release every
/// rider's reply slot. Returns `true` on success.
///
/// Failure is **batch-coherent**: an append/fsync error means *no* rider
/// is acked — every one receives the same `ErrKind::Io` response, the
/// shard flips read-only (counted once in `read_only_flips`), and
/// anything still queued is refused with `ErrKind::ReadOnly`. Whatever
/// frame prefix physically reached the disk is indistinguishable from a
/// crash mid-write, which recovery already handles: unacked records may
/// or may not survive, but no acked record is ever lost. (The sequencing
/// head stays ahead of the published state by the failed records; nothing
/// reads it again, because a read-only shard sequences nothing.)
fn persist_and_publish(
    shared: &Shared,
    db: &str,
    shard: &Shard,
    wal: &mut DbWal,
    batch: Vec<StagedCommit>,
) -> bool {
    let frames: Vec<&[u8]> = batch.iter().map(|s| s.frame.as_slice()).collect();
    if let Err(e) = wal.append_batch(&frames, &shared.cfg.faults, &shared.metrics) {
        let stranded: Vec<StagedCommit> = {
            // Flipped under the pipeline lock, where `sequence` reads it:
            // no write is staged behind the drain.
            let mut ps = shard.pipeline.inner.lock();
            if !shard.read_only.swap(true, Ordering::SeqCst) {
                Metrics::bump(&shared.metrics.read_only_flips);
            }
            ps.queue.drain(..).collect()
        };
        let resp = Response::err(
            ErrKind::Io,
            format!("log append failed ({e}); database {db:?} is now read-only"),
        );
        for s in batch {
            s.reply.deliver(resp.clone());
        }
        for s in stranded {
            s.reply.deliver(read_only(db));
        }
        return false;
    }
    if let (Some(d), Some(last)) = (&shard.durable, batch.last()) {
        d.lsn.store(last.set.at.raw_minutes(), Ordering::Relaxed);
    }
    let mut acks: Vec<(Arc<ReplySlot>, Response)> = Vec::with_capacity(batch.len());
    {
        let mut st = shard.state.write();
        for s in batch {
            let at = s.set.at;
            let generation = publish(shared, shard, &mut st, s.set);
            acks.push((s.reply, s.ack.response(at, generation)));
        }
    }
    for (slot, resp) in acks {
        slot.deliver(resp);
    }
    true
}

#[cfg(test)]
mod tests {
    use crate::service::apply_replicated;
    use crate::{ErrKind, Response, ServeConfig, Service};
    use oem::guide::{guide_figure2, history_example_2_3};
    use oem::parse_change_set;

    /// Definition 2.2 holds on every shard, not only the ones that own a
    /// WAL: a write whose timestamp is not strictly after the last LSN is
    /// refused on a non-durable shard — from a client and from follower
    /// replay alike — and the version ring stays in LSN order, so `AS OF`
    /// between the two timestamps answers from the right version. (Such a
    /// write used to be accepted here and published out of order.)
    #[test]
    fn timestamps_must_strictly_increase_on_a_shard_without_a_wal() {
        let svc = Service::start(ServeConfig::default()).unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        let c = svc.client();
        // Which price objects hold `v` — the rows name objects, so the
        // value has to be the predicate.
        let priced = |as_of: &str, v: i64| {
            let q = format!("select P from guide.restaurant.price P where P = {v}");
            c.request_line(&format!("QUERY guide {as_of} {q}"))
        };
        let one = priced("", 20);
        assert!(
            matches!(&one, Response::Rows(rows) if rows.len() == 1),
            "{one:?}"
        );
        let none = priced("", 25);
        assert_eq!(none, Response::Rows(vec![]));

        let ok = c.request_line("UPDATE guide AT 1Mar97 ; {updNode(n1, 25)}");
        assert!(!ok.is_error(), "{ok:?}");
        for stale in ["1Feb97", "1Mar97"] {
            let resp = c.request_line(&format!("UPDATE guide AT {stale} ; {{updNode(n1, 30)}}"));
            let Response::Error { kind, message } = &resp else {
                panic!("a write at {stale} was accepted: {resp:?}")
            };
            assert_eq!(*kind, ErrKind::Conflict, "{resp:?}");
            assert!(message.contains("strictly time-ordered"), "{message}");
        }
        let changes = parse_change_set("{updNode(n1, 30)}").unwrap();
        let replayed = apply_replicated(&c.shared, "guide", "1Feb97".parse().unwrap(), &changes);
        let err = replayed.expect_err("follower replay accepted a stale record");
        assert!(
            err.contains("CONFLICT") && err.contains("strictly time-ordered"),
            "{err}"
        );

        // One write landed; between the two timestamps the price is still
        // 20, from the first one on it is 25.
        assert_eq!(c.request_line("GEN guide"), Response::Ok("2".into()));
        assert_eq!(priced("AS OF 15Feb97", 20), one);
        assert_eq!(priced("AS OF 15Feb97", 25), none);
        assert_eq!(priced("AS OF 2Mar97", 25), one);
        assert_eq!(priced("", 25), one);
        svc.shutdown();
    }
}
