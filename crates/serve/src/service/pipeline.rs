//! The commit pipeline every shard runs: **sequence → persist → publish**.
//!
//! A write — `UPDATE`, `MUTATE`, or a replicated record on a follower —
//! enters [`sequence`] under the shard's pipeline lock: it is validated
//! and applied, once, to the *sequencing head* (the DOEM graph with every
//! sequenced change applied), which yields the [`AppliedSet`] the publish
//! stage will swap in. What happens next depends only on whether the
//! service has a WAL directory — then every shard owns a WAL, otherwise
//! none does. If it does, the record is staged on the commit queue
//! and the shard's *group committer* persists whole batches with one
//! `write` and one `fsync` outside every lock, then publishes them in LSN
//! order and releases the waiting reply slots. If it does not, the persist
//! stage is empty — no I/O, so no thread and no queue hop: the sequencing
//! thread publishes before it drops the pipeline lock and answers
//! directly. The group committer also starts the shard's checkpoints,
//! each on a thread of its own (DESIGN.md §8).
//!
//! The pipeline lock also holds the shard's [`Lineage`], so `PROMOTE`,
//! `FENCE`, epoch adoption and writes are sequenced against each other.

use super::client::ReplySlot;
use super::recovery::save_image;
use super::shard::{publish, AppliedSet, Shard};
use super::Shared;
use crate::lock_order::{Condvar, Mutex, Pipeline, Token, Unlocked};
use crate::metrics::Metrics;
use crate::protocol::{ErrKind, Response};
use crate::replication::stream::ReplBatch;
use crate::wal::{self, DbWal};
use chorel::AtSource;
use doem::SharedDoem;
use lorel::{compile_update, UpdateStmt};
use oem::{ChangeSet, Timestamp};
use sanitizer::thread::{spawn_tracked, TrackedHandle};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

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
    /// no new checkpoint (one already in flight still finishes). The
    /// shard is being replaced (`LOAD`/`install` over the same name; the
    /// new incarnation resets the durable files anyway), or the service
    /// is stopping the way a crash would and does not get to tidy its
    /// log.
    Abandon,
}

/// A shard's failover state, read and changed only under its pipeline
/// lock, so every change is ordered against every write.
#[derive(Clone, Copy, Default)]
pub(crate) struct Lineage {
    /// 0 for a never-promoted lineage, bumped by `PROMOTE`, recovered from
    /// WAL record suffixes and adopted from newer replication batches;
    /// stamped into every WAL frame and `REPLICATE` header, so a deposed
    /// primary's records are recognizably stale.
    pub(crate) epoch: u64,
    /// The newest epoch a `FENCE` deposed the shard at; it is fenced while
    /// this exceeds `epoch`, and client writes answer `FENCED`.
    pub(crate) fenced_epoch: u64,
    /// Set by `PROMOTE`: client writes are taken, replicated ones refused.
    pub(crate) promoted: bool,
    /// Follower side: the primary's applied LSN from the last batch the
    /// shard accepted (`STATS`' `primary=`).
    pub(crate) primary_lsn: Option<Timestamp>,
}

impl Lineage {
    fn is_fenced(&self) -> bool {
        self.fenced_epoch > self.epoch
    }
}

/// Everything under a shard's pipeline lock: the sequencing head (a
/// second handle on the DOEM graph, ahead of the published state by
/// exactly the staged-but-unpublished writes), the commit queue, the
/// shard's lineage and its committer's handle. The lock is never held
/// across WAL I/O.
struct PipelineState {
    /// DOEM graph with every sequenced change applied. Its current
    /// snapshot is where every write is judged and `MUTATE` compiles.
    head_doem: SharedDoem,
    /// Highest sequenced timestamp — the strict-LSN check reads this,
    /// not the published `ShardState::last_at`.
    head_at: Timestamp,
    /// Sequenced, not yet drained by the committer. Always empty on a
    /// shard that owns no WAL.
    queue: VecDeque<StagedCommit>,
    /// Set once by shutdown/replace; writes are refused from then on and
    /// the committer drains and exits.
    stop: Option<StopKind>,
    /// Set by [`degrade`] on persistent log I/O failure: writes answer
    /// `READONLY` from then on while queries keep serving.
    read_only: bool,
    /// The shard's failover state.
    lineage: Lineage,
    /// The group committer, the sole owner of the shard's log, from
    /// [`start_committer`] until [`join_committer`]. Every shard of a
    /// service with a [`super::ServeConfig::wal_dir`] has one; no other
    /// shard does.
    committer: Option<TrackedHandle<()>>,
}

/// The commit machinery of one shard.
pub(crate) struct CommitPipeline {
    inner: Mutex<Pipeline, PipelineState>,
    /// Signaled when the queue gains work or `stop` is set.
    work: Condvar,
}

impl CommitPipeline {
    /// A pipeline whose sequencing head starts at the given graph.
    pub(crate) fn new(head_doem: SharedDoem, head_at: Timestamp, lineage: Lineage) -> Self {
        CommitPipeline {
            inner: Mutex::new(PipelineState {
                head_doem,
                head_at,
                queue: VecDeque::new(),
                stop: None,
                read_only: false,
                lineage,
                committer: None,
            }),
            work: Condvar::new(),
        }
    }

    /// The shard's lineage.
    pub(crate) fn lineage(&self, unlocked: &mut Token<Unlocked>) -> Lineage {
        self.status(unlocked).0
    }

    /// The shard's lineage, and whether a log I/O failure degraded it to
    /// read-only, in one hold.
    pub(crate) fn status(&self, unlocked: &mut Token<Unlocked>) -> (Lineage, bool) {
        let ps = self.inner.lock(unlocked);
        (ps.lineage, ps.read_only)
    }

    /// `FENCE <epoch>` from a newer lineage. An epoch not strictly newer
    /// than anything this shard has seen is refused, so lineages cannot
    /// depose their successors; so is a fence on a shard being replaced,
    /// whose lineage its successor has already taken.
    pub(crate) fn fence(&self, db: &str, epoch: u64, unlocked: &mut Token<Unlocked>) -> Response {
        let ps = &mut *self.inner.lock(unlocked);
        let lineage = &mut ps.lineage;
        if ps.stop.is_some() {
            replacing(db)
        } else if epoch <= lineage.epoch || epoch <= lineage.fenced_epoch {
            Response::err(
                ErrKind::Conflict,
                format!(
                    "stale fence: epoch {epoch} is not newer than this lineage \
                     (epoch {}, fenced at {})",
                    lineage.epoch, lineage.fenced_epoch
                ),
            )
        } else {
            lineage.fenced_epoch = epoch;
            Response::Ok(format!("fenced {db} at epoch {epoch}"))
        }
    }

    /// Follower side, before any record of a batch is sequenced: a
    /// promoted shard takes nothing (`Ok(false)`), and a batch behind the
    /// shard's epoch is refused with the local epoch. Otherwise the
    /// batch's epoch is adopted — so a `PROMOTE` landing mid-batch fences
    /// above it — and its primary LSN recorded.
    pub(crate) fn follow(
        &self,
        batch: &ReplBatch,
        unlocked: &mut Token<Unlocked>,
    ) -> Result<bool, u64> {
        let lineage = &mut self.inner.lock(unlocked).lineage;
        if lineage.promoted {
            return Ok(false);
        }
        if batch.epoch < lineage.epoch {
            return Err(lineage.epoch);
        }
        lineage.epoch = batch.epoch;
        lineage.primary_lsn = Some(batch.primary_lsn);
        Ok(true)
    }
}

/// Flip `shard` writable under a fresh fence, strictly above its own epoch
/// and any it was fenced at, so the deposed lineage cannot fence it back.
/// Returns the epoch and the applied LSN, read in the same hold: an
/// old-lineage record sequenced later is refused (one already staged on a
/// WAL still commits). A fenced shard is refused with its fence, and a
/// shard being replaced is told to retry: its successor has already taken
/// its lineage.
pub(crate) fn promote(
    shard: &Shard,
    db: &str,
    unlocked: &mut Token<Unlocked>,
) -> Result<(u64, Timestamp), Response> {
    let mut ps = shard.pipeline.inner.lock(unlocked);
    if ps.stop.is_some() {
        return Err(replacing(db));
    }
    let lineage = &mut ps.lineage;
    if lineage.is_fenced() {
        return Err(deposed(db, lineage.fenced_epoch, "promote the newer lineage"));
    }
    lineage.epoch = lineage.epoch.max(lineage.fenced_epoch) + 1;
    lineage.promoted = true;
    let epoch = lineage.epoch;
    let applied = shard.state.read(ps.token()).last_at;
    Ok((epoch, applied))
}

/// Followers reject client writes by construction: every state change on
/// a following instance arrives through replication replay, never
/// through the request edge. Returns the `READONLY` response to send
/// when this instance follows a primary, `None` otherwise.
pub(crate) fn refuse_follower_write(shared: &Shared) -> Option<Response> {
    shared.cfg.follow.as_ref().map(|primary| {
        Response::err(
            ErrKind::ReadOnly,
            format!("this instance follows {primary}; writes go to the primary"),
        )
    })
}

/// The typed `FENCED` refusal of a shard deposed at `epoch`; `instead`
/// says what the caller should do about it.
fn deposed(db: &str, epoch: u64, instead: &str) -> Response {
    Response::err(
        ErrKind::Fenced,
        format!("database {db:?} was deposed at epoch {epoch}; {instead}"),
    )
}

/// The refusal a shard being replaced (or shut down) answers writes,
/// `PROMOTE` and `FENCE` with.
fn replacing(db: &str) -> Response {
    Response::err(
        ErrKind::Conflict,
        format!("database {db:?} is being replaced; retry"),
    )
}

/// The write a sequence stage is being asked to stage.
pub(crate) enum WriteKind {
    /// `UPDATE`: an explicit change set.
    Update(ChangeSet),
    /// A record the follower replays from its primary.
    Replicated(ChangeSet),
    /// `MUTATE`: a Lorel update statement, parsed at the request edge and
    /// compiled here against the sequencing head's current snapshot — the
    /// freshest one, ahead of the published state by the staged writes.
    Mutate(Box<UpdateStmt>),
}

/// The **sequence** stage. Under the pipeline lock only: refuse what the
/// shard's lineage forbids and read-only/stopping shards, resolve
/// `AT now`, enforce the strictly increasing timestamp (Definition 2.2 —
/// the timestamp *is* the LSN), compile `MUTATE` statements against the
/// sequencing head, and apply the change set to the head — the one
/// [`doem::DoemDatabase::apply`] of the write path. On a
/// WAL-owning shard the record is then staged for the committer and
/// `None` comes back (the committer delivers the ack to `reply` once the
/// batch is durable and published); otherwise it is published here and
/// its ack returned. An error response is returned for immediate
/// delivery either way. A `WriteKind::Replicated` record is refused with
/// `FENCED` only here, and only because the shard was promoted:
/// [`super::apply_replicated`] reads that code as the end of the old
/// lineage.
pub(crate) fn sequence(
    shared: &Shared,
    shard: &Shard,
    db: &str,
    at: Option<Timestamp>,
    kind: WriteKind,
    reply: &Arc<ReplySlot>,
    unlocked: &mut Token<Unlocked>,
) -> Option<Response> {
    let mut ps = shard.pipeline.inner.lock(unlocked);
    // What the lineage forbids: a client write to a fenced shard answers
    // `FENCED` (retry against the promoted primary), one to a follower's
    // unpromoted shard `READONLY`. Replicated records bypass both — they
    // are what a follower exists to replay — until a promotion ends them.
    let lineage = ps.lineage;
    let refused = match kind {
        WriteKind::Replicated(_) => lineage
            .promoted
            .then(|| Response::err(ErrKind::Fenced, format!("database {db:?} was promoted"))),
        _ if lineage.is_fenced() => {
            Metrics::bump(&shared.metrics.fenced_rejects);
            Some(deposed(db, lineage.fenced_epoch, "writes go to the promoted primary"))
        }
        _ if lineage.promoted => None,
        _ => refuse_follower_write(shared),
    };
    if refused.is_some() {
        return refused;
    }
    if ps.read_only {
        return Some(read_only(db));
    }
    if ps.stop.is_some() {
        return Some(replacing(db));
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
        WriteKind::Update(changes) | WriteKind::Replicated(changes) => (changes, None),
        WriteKind::Mutate(stmt) => {
            // The current snapshot, without annotations: a statement binds
            // what it would over a plain OEM database.
            let current = AtSource::new(&ps.head_doem, Timestamp::INFINITY);
            match compile_update(&current, ps.head_doem.graph().clone().alloc_id(), &stmt) {
                Ok(c) => {
                    let created = c.created.len();
                    (c.changes, Some(created))
                }
                Err(e) => {
                    shared.metrics.exec.record(t.elapsed());
                    let reply = Response::err(ErrKind::Conflict, format!("update rejected: {e}"));
                    return Some(reply);
                }
            }
        }
    };
    let outcome = ps.head_doem.make_mut().apply(&changes, at);
    shared.metrics.exec.record(t.elapsed());
    if let Err(e) = outcome {
        // `apply` is all or nothing: the head is as it was.
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
    };
    if shared.durable.is_none() {
        // The null persist stage: nothing to wait for, so publish before
        // the pipeline lock drops (`pipeline` → `state`).
        let generation = publish(shared, shard, &mut shard.state.write(ps.token()), set);
        return Some(ack.response(at, generation));
    }
    let frame = wal::encode_record_epoch(at, &set.changes, ps.lineage.epoch);
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

/// Ask a shard's pipeline to stop: further writes, `PROMOTE` and `FENCE`
/// are refused, and the committer (if any) drains its queue and exits as
/// `kind` says. `succeed` sees the shard's lineage in the hold that stops
/// it — nothing changes it after — and returns the lineage a replacement
/// starts on; if it returns `None`, nothing is stopped.
pub(crate) fn request_stop(
    shard: &Shard,
    kind: StopKind,
    succeed: impl FnOnce(Lineage) -> Option<Lineage>,
    unlocked: &mut Token<Unlocked>,
) -> Option<Lineage> {
    let mut ps = shard.pipeline.inner.lock(unlocked);
    let next = succeed(ps.lineage)?;
    ps.stop.get_or_insert(kind);
    drop(ps);
    shard.pipeline.work.notify_all();
    Some(next)
}

/// Wait for a stopped shard's committer to finish. Replies for staged
/// writes are delivered before this returns. A no-op on a shard that
/// owns no WAL.
pub(crate) fn join_committer(shard: &Shard, unlocked: &mut Token<Unlocked>) {
    let handle = shard.pipeline.inner.lock(unlocked).committer.take();
    if let Some(h) = handle {
        let _ = unlocked.blocking(|| h.join());
    }
}

/// Spawn the group committer for a WAL-owning shard, handing it exclusive
/// ownership of the shard's log.
pub(crate) fn start_committer(
    shared: &Arc<Shared>,
    name: &str,
    shard: &Arc<Shard>,
    wal: DbWal,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<()> {
    let shared = Arc::clone(shared);
    let shard_for_loop = Arc::clone(shard);
    let db = name.to_string();
    let handle = spawn_tracked(&format!("serve-committer-{name}"), move || {
        committer_loop(&shared, &db, &shard_for_loop, wal, &mut Token::mint())
    })?;
    shard.pipeline.inner.lock(unlocked).committer = Some(handle);
    Ok(())
}

/// The persist + publish stages of a WAL-owning shard: one thread, the
/// sole owner of the shard's log. Each round drains up to
/// `group_commit_max` staged records — whatever accumulated while the
/// previous batch was persisting — persists them with one
/// `write`+`fsync` outside every lock, publishes them in LSN order, and
/// releases the waiting reply slots. Once `checkpoint_every` records are
/// in the active segment and no checkpoint is in flight, it starts one
/// ([`start_checkpoint`]) and goes on appending: under load, images
/// coalesce instead of queueing. On stop it drains what is queued and
/// joins its checkpoint thread, then — for a shutdown — takes a final
/// checkpoint the same way and joins it at once, so restart replays
/// nothing.
fn committer_loop(
    shared: &Arc<Shared>,
    db: &str,
    shard: &Shard,
    mut wal: DbWal,
    unlocked: &mut Token<Unlocked>,
) {
    let pipeline = &shard.pipeline;
    let max = shared.cfg.group_commit_max.max(1);
    let mut checkpoint: Option<CheckpointThread> = None;
    loop {
        // `read_only` is flipped only by `degrade`, on this thread, so
        // the value read here holds until the next round.
        let (batch, stopping, read_only) = {
            let mut ps = pipeline.inner.lock(unlocked);
            while ps.queue.is_empty() && ps.stop.is_none() {
                ps = pipeline.work.wait(ps);
            }
            let n = ps.queue.len().min(max);
            let batch: Vec<StagedCommit> = ps.queue.drain(..n).collect();
            (batch, ps.stop, ps.read_only)
        };
        if batch.is_empty() {
            // Stop requested and the queue is drained.
            join_checkpoint(&mut checkpoint, unlocked);
            let dirty = !wal.is_empty() || wal::sealed_path(wal.path()).exists();
            if stopping == Some(StopKind::Shutdown) && dirty && !read_only {
                checkpoint = start_checkpoint(shared, db, shard, &mut wal, unlocked);
                join_checkpoint(&mut checkpoint, unlocked);
            }
            return;
        }
        if !persist_and_publish(shared, db, shard, &mut wal, batch, unlocked) {
            continue;
        }
        let every = shared.cfg.checkpoint_every;
        if every > 0 && wal.since_checkpoint >= every {
            if checkpoint.as_ref().is_some_and(|c| c.is_finished()) {
                join_checkpoint(&mut checkpoint, unlocked);
            }
            if checkpoint.is_none() {
                checkpoint = start_checkpoint(shared, db, shard, &mut wal, unlocked);
            }
        }
    }
}

/// A checkpoint in flight: the thread saving its image. Owned by the
/// committer that started it, which joins it — outside every lock —
/// before it starts another and before it exits.
type CheckpointThread = TrackedHandle<()>;

/// Start a checkpoint of a durable shard from its committer, at a batch
/// boundary — the committer is the sole appender and publisher, so
/// persisted == published there. Unless a sealed segment is left over
/// from an earlier checkpoint that failed (or from before a crash), seal
/// the active segment first ([`DbWal::rotate`]). Then take an O(1)
/// snapshot of the *published* DOEM and hand it to a checkpoint thread
/// ([`save_image`]), which deletes the sealed segment once the image is
/// durable. With a sealed segment left over nothing is rotated: the fresh
/// image covers that segment and part of the active one, whose records
/// recovery skips by timestamp. A log that cannot be sealed degrades the
/// shard to read-only; a thread that cannot start is counted in
/// `checkpoint_failures`, and the sealed segment waits for the next
/// checkpoint.
fn start_checkpoint(
    shared: &Arc<Shared>,
    db: &str,
    shard: &Shard,
    wal: &mut DbWal,
    unlocked: &mut Token<Unlocked>,
) -> Option<CheckpointThread> {
    let sealed = wal::sealed_path(wal.path());
    if sealed.exists() {
        wal.since_checkpoint = 0;
    } else if let Err(e) = unlocked.blocking(|| wal.rotate()) {
        Metrics::bump(&shared.metrics.checkpoint_failures);
        degrade(shared, db, shard, Vec::new(), &e, unlocked);
        return None;
    }
    let doem = shard.state.read(unlocked).doem.snapshot();
    let thread = {
        let shared = Arc::clone(shared);
        let db = db.to_string();
        spawn_tracked(&format!("serve-checkpoint-{db}"), move || {
            // Counted inside.
            let _ = save_image(&shared, &db, &doem, &sealed, &mut Token::mint());
        })
    };
    if thread.is_err() {
        Metrics::bump(&shared.metrics.checkpoint_failures);
    }
    thread.ok()
}

/// Wait for the in-flight checkpoint, if any. Called with no lock held.
fn join_checkpoint(checkpoint: &mut Option<CheckpointThread>, unlocked: &mut Token<Unlocked>) {
    if let Some(thread) = checkpoint.take() {
        let _ = unlocked.blocking(|| thread.join());
    }
}

/// Flip the shard read-only after a log I/O failure: every rider of the
/// failed `batch` gets the same `ErrKind::Io` response, and anything still
/// queued is refused with `ErrKind::ReadOnly`. The flip is counted once
/// in `read_only_flips`.
fn degrade(
    shared: &Shared,
    db: &str,
    shard: &Shard,
    batch: Vec<StagedCommit>,
    e: &std::io::Error,
    unlocked: &mut Token<Unlocked>,
) {
    let stranded: Vec<StagedCommit> = {
        // Flipped under the pipeline lock, where `sequence` reads it:
        // no write is staged behind the drain.
        let mut ps = shard.pipeline.inner.lock(unlocked);
        if !std::mem::replace(&mut ps.read_only, true) {
            Metrics::bump(&shared.metrics.read_only_flips);
        }
        ps.queue.drain(..).collect()
    };
    let resp = Response::err(
        ErrKind::Io,
        format!("log append failed ({e}); database {db:?} is now read-only"),
    );
    for s in batch {
        s.reply.deliver(resp.clone(), unlocked);
    }
    for s in stranded {
        s.reply.deliver(read_only(db), unlocked);
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
    unlocked: &mut Token<Unlocked>,
) -> bool {
    let frames: Vec<&[u8]> = batch.iter().map(|s| s.frame.as_slice()).collect();
    let appended =
        unlocked.blocking(|| wal.append_batch(&frames, &shared.cfg.faults, &shared.metrics));
    if let Err(e) = appended {
        degrade(shared, db, shard, batch, &e, unlocked);
        return false;
    }
    let mut acks: Vec<(Arc<ReplySlot>, Response)> = Vec::with_capacity(batch.len());
    {
        let mut st = shard.state.write(unlocked);
        for s in batch {
            let at = s.set.at;
            let generation = publish(shared, shard, &mut st, s.set);
            acks.push((s.reply, s.ack.response(at, generation)));
        }
    }
    for (slot, resp) in acks {
        slot.deliver(resp, unlocked);
    }
    true
}

#[cfg(test)]
mod tests {
    use crate::lock_order::Token;
    use crate::service::apply_replicated;
    use crate::{ErrKind, Response, ServeConfig, Service};
    use oem::guide::{guide_figure2, history_example_2_3};
    use oem::parse_change_set;

    /// Definition 2.2 holds on every shard, not only the ones that own a
    /// WAL: a write whose timestamp is not strictly after the last LSN is
    /// refused on a non-durable shard — from a client and from follower
    /// replay alike — so the history stays in LSN order and `AS OF`
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
        let at = "1Feb97".parse().unwrap();
        let replayed = apply_replicated(&c.shared, "guide", at, &changes, &mut Token::mint());
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
