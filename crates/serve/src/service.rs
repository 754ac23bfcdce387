//! The service core: a sharded database registry, snapshot-isolated query
//! execution, a worker pool fed by a bounded [`crossbeam`] channel, the
//! request executor, and — when a WAL directory is configured — crash
//! durability.
//!
//! Concurrency model (see DESIGN.md §7 for the full treatment): sessions
//! parse requests at the edge and submit jobs to a bounded queue
//! (`try_send` — a full queue is an immediate `BUSY`, the admission-control
//! contract). Workers pull jobs and execute them against a **shard map**:
//! a lightweight `RwLock<HashMap>` from database name to an [`Arc<Shard>`],
//! where each shard owns its *own* lock, generation counter, and result
//! cache. Writers to different databases therefore never contend — the map
//! lock is held only to look up or insert a shard, never during execution.
//!
//! Inside a shard, queries are **snapshot isolated**: a reader takes the
//! shard lock just long enough to clone a cheap [`SharedDoem`] handle
//! (an `Arc` of the annotated graph) plus the generation, then evaluates
//! Chorel entirely outside the lock. A slow query never stalls updates:
//! the graphs are persistent (path-copying) structures, so an update that
//! lands while snapshots are outstanding allocates only the touched spine
//! and shares the rest — the whole-database copy-on-write clone is gone
//! (`cow_clones` in `STATS` stays 0) — and bumps the shard generation,
//! which structurally invalidates that shard's cache. Each publish also
//! installs the new replica into the shard's LSN-indexed **version ring**
//! (DESIGN.md §14), retained up to [`ServeConfig::retain_lsns`] versions,
//! which serves `QUERY … AS OF <lsn>` at any retained LSN without replay.
//!
//! Durability model (DESIGN.md §8): with [`ServeConfig::wal_dir`] set,
//! each durable shard commits through a **staged group-commit pipeline**
//! instead of doing WAL I/O under its state lock. A worker *sequences* a
//! write under the shard's pipeline lock — validate the change set
//! against the sequencing head, assign its strictly-increasing timestamp
//! (the LSN), stage the encoded record on the commit queue — and moves
//! on without waiting. A per-shard *group committer* drains the queue
//! outside every lock, *persists* the whole batch with one `write` and
//! one `fsync` (bounded by [`ServeConfig::group_commit_max`] and
//! [`ServeConfig::group_commit_window_us`]), then *publishes*: applies
//! the batch to the queried state in LSN order, bumps generations, and
//! releases the waiting [`ReplySlot`]s — so no request is acked before
//! its record and every earlier LSN are durable. [`Service::start`]
//! recovers each database by loading its latest checkpoint and replaying
//! the log tail through [`doem::apply_set`] — the paper's `D(O, H)`
//! construction doubling as crash recovery. A shard whose log can no
//! longer be written (disk full, injected fault) fails the whole staged
//! batch with one coherent error and flips to **read-only**: queries
//! keep serving from the in-memory snapshot, writes answer
//! `ErrKind::ReadOnly`, and the condition is visible in `STATS`.
//!
//! QSS state (subscriptions, the registry of named queries, the simulated
//! clock) lives in a separate *control* shard with its own lock and
//! generation, so QSS ticks invalidate only subscription-query caches,
//! never per-database ones. The submitting session waits on a
//! [`ReplySlot`] (a mutex + condvar pair) with a deadline — a worker
//! stuck on a slow query turns into a `TIMEOUT` response instead of a
//! hung session; pipelined sessions get the same guarantee through
//! [`PendingReply::wait`]. The slot's abandonment mark is taken under the
//! same lock the worker's delivery checks, so a response is either
//! returned to the waiter or knowingly discarded — never stranded in a
//! queue nobody reads (the sanitizer's channel-leak check runs over this
//! path in CI).

use crate::cache::{CacheEntry, CacheKey, Carry, ResultCache};
use crate::faults::{FaultPoint, Faults};
use crate::metrics::Metrics;
use crate::protocol::{lsn_to_wire, ErrKind, Request, Response};
use crate::replication::primary::{serve_replicate, ReplHub, ReplTail};
use crate::wal::{self, DbWal};
use chorel::{canonical_row_strings, run_chorel_parsed, Strategy};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use doem::{apply_set, current_snapshot, doem_from_history, DoemDatabase, SharedDoem};
use lorel::{run_update, QueryRegistry};
use oem::{ChangeSet, History, OemDatabase, SharedOem, Timestamp, VersionRing};
use parking_lot::{Condvar, Mutex, RwLock};
use qss::{QssServer, ScriptedSource, Source, Subscription};
use sanitizer::thread::{spawn_tracked, TrackedHandle};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The source type the embedded QSS polls: any [`Source`], boxed. `Sync`
/// is required because the QSS lives under the control shard's `RwLock`.
pub type DynSource = Box<dyn Source + Sync>;

/// Background QSS driving: every `interval` of wall-clock time, advance
/// the simulated clock by `step_minutes` and run the polls that came due.
#[derive(Clone, Copy, Debug)]
pub struct AutoTick {
    /// Wall-clock period between ticks.
    pub interval: Duration,
    /// Simulated minutes per tick.
    pub step_minutes: i64,
}

/// The wall clock a write consults when it says `AT now`: an injectable
/// source of [`Timestamp`]s so tests (and the chaos harness) can step
/// time backwards and prove the LSN allocator still only moves forward.
/// The default reads the system clock at minute resolution.
#[derive(Clone)]
pub struct WallClock(Arc<dyn Fn() -> Timestamp + Send + Sync>);

impl WallClock {
    /// The real wall clock: Unix time at minute resolution.
    pub fn system() -> WallClock {
        WallClock(Arc::new(|| {
            let secs = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            Timestamp::from_raw_minutes((secs / 60) as i64)
        }))
    }

    /// A clock driven by the given closure (tests inject regressions).
    pub fn from_fn(f: impl Fn() -> Timestamp + Send + Sync + 'static) -> WallClock {
        WallClock(Arc::new(f))
    }

    /// Read the clock.
    pub fn now(&self) -> Timestamp {
        (self.0)()
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::system()
    }
}

impl std::fmt::Debug for WallClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WallClock(..)")
    }
}

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing requests (min 1).
    pub workers: usize,
    /// Bounded request-queue depth; a full queue rejects with `BUSY`.
    pub queue_depth: usize,
    /// How long a session waits for its reply before answering `TIMEOUT`.
    pub request_timeout: Duration,
    /// Result-cache capacity in entries, per database shard (0 disables
    /// caching).
    pub cache_capacity: usize,
    /// Chorel evaluation strategy for queries.
    pub strategy: Strategy,
    /// Initial simulated time (QSS subscriptions start here).
    pub epoch: Timestamp,
    /// Drive the embedded QSS from a background thread.
    pub autotick: Option<AutoTick>,
    /// Directory for SAVE/LOAD persistence (no store when `None`).
    pub store_dir: Option<PathBuf>,
    /// Durability root: per-database write-ahead logs and snapshot
    /// checkpoints live here, and [`Service::start`] recovers every
    /// database it finds in it. `None` (the default) keeps the service
    /// purely in-memory. Use a directory dedicated to the WAL — `SAVE`
    /// images from `store_dir` share the same file format.
    pub wal_dir: Option<PathBuf>,
    /// Checkpoint a database after this many WAL appends (then truncate
    /// its log). 0 disables automatic checkpoints — the log grows until
    /// shutdown. Ignored without `wal_dir`.
    pub checkpoint_every: u64,
    /// Most records a group committer persists per `write`+`fsync` batch
    /// (min 1). `1` restores one-fsync-per-write; larger values let
    /// concurrent writers to one shard share a single disk round-trip.
    /// Ignored without `wal_dir`.
    pub group_commit_max: usize,
    /// How long (µs) a committer lingers for more riders once it has at
    /// least one staged record but fewer than `group_commit_max`. 0 (the
    /// default) never waits: the batch is whatever accumulated while the
    /// previous fsync was in flight — batching from backpressure alone.
    pub group_commit_window_us: u64,
    /// Threads in the completion pool that waits out pipelined (tagged)
    /// TCP requests (min 1). Bounds waiter concurrency regardless of how
    /// many sessions pipeline how deeply.
    pub completion_threads: usize,
    /// Follow a primary at this wire address: the instance becomes a
    /// read-only **follower**, replaying the primary's change-op log
    /// into its shards and refusing client writes with `READONLY`.
    pub follow: Option<String>,
    /// Follower identity sent with `REPLICATE … AS <peer>` (leases log
    /// retention on the primary). Defaults to `follower-<pid>`.
    pub follower_id: Option<String>,
    /// Most history entries per `REPLICATE` batch (min 1).
    pub replication_batch: usize,
    /// Log-tail records each shard retains in memory for followers, past
    /// checkpoints (min 1; leased followers can stretch this up to 8×).
    pub replication_retain: usize,
    /// How long a caught-up follower sleeps between poll rounds.
    pub follow_poll: Duration,
    /// Fault-injection plan for the durability pipeline (tests; disabled
    /// by default and free when disabled).
    pub faults: Faults,
    /// The wall clock `AT now` writes read. Injectable so tests can step
    /// it backwards; the allocator clamps to `last LSN + 1` regardless.
    pub clock: WallClock,
    /// Versions each shard's ring retains for `QUERY … AS OF` (min 1 —
    /// the newest version always stays). Structural sharing makes a
    /// retained version cost O(its write), not O(database); `AS OF`
    /// reads below the horizon evaluate over the lazy `O_t(D)` view.
    pub retain_lsns: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            cache_capacity: 256,
            strategy: Strategy::Direct,
            epoch: Timestamp::from_ymd(1996, 12, 30),
            autotick: None,
            store_dir: None,
            wal_dir: None,
            checkpoint_every: 64,
            group_commit_max: 8,
            group_commit_window_us: 0,
            completion_threads: 4,
            follow: None,
            follower_id: None,
            replication_batch: 64,
            replication_retain: 1024,
            follow_poll: Duration::from_millis(100),
            faults: Faults::disabled(),
            clock: WallClock::system(),
            retain_lsns: 64,
        }
    }
}

/// The graphs one database shard guards: the DOEM database behind a
/// copy-on-write handle (queries snapshot it), the plain-OEM replica kept
/// in lockstep (change validity is judged against it, and Lorel update
/// statements compile against it), and the shard's write counter.
pub(crate) struct ShardState {
    pub(crate) doem: SharedDoem,
    pub(crate) replica: SharedOem,
    /// Bumped by every successful write to this shard; cache keys carry
    /// it, so a bump structurally invalidates the shard's cache.
    pub(crate) generation: u64,
    /// Highest change timestamp **published** to this shard. Durable
    /// shards enforce the paper's Definition 2.2 on it — change
    /// timestamps must strictly increase — which makes the timestamp a
    /// log sequence number: recovery skips WAL entries at or before the
    /// checkpoint's high-water mark, so a crash between checkpoint save
    /// and log truncation can never double-apply.
    pub(crate) last_at: Timestamp,
    /// Set on persistent log I/O failure; writes answer
    /// [`ErrKind::ReadOnly`] while queries keep serving.
    pub(crate) read_only: bool,
    /// The recent suffix of this shard's history, retained in memory for
    /// followers (records survive checkpoint truncation here). Appended
    /// under the same write lock that publishes a commit, so a
    /// group-commit batch becomes visible to replication atomically.
    pub(crate) tail: ReplTail,
}

/// A write accepted by the sequence stage, parked on the commit queue
/// until the group committer persists and publishes it.
struct StagedCommit {
    /// The assigned timestamp — the LSN. Strictly increasing along the
    /// queue, so publish order is sequence order is log order.
    at: Timestamp,
    changes: ChangeSet,
    /// The WAL frame, encoded at sequence time so the committer's batch
    /// write is pure I/O.
    frame: Vec<u8>,
    /// Operation count, echoed in the ack.
    ops: usize,
    /// For `MUTATE`: how many nodes the compiled update created (the ack
    /// text differs). `None` for `UPDATE`.
    created: Option<usize>,
    /// Where the submitting session is waiting; released at publish.
    reply: Arc<ReplySlot>,
}

/// Why a committer is being asked to stop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StopKind {
    /// Service shutdown: drain the queue, then take a final checkpoint.
    Shutdown,
    /// The shard is being replaced (`LOAD`/`install` over the same
    /// name): drain the queue — already-sequenced writes still commit to
    /// the outgoing incarnation — but skip the checkpoint; the new
    /// incarnation resets the durable files anyway.
    Replaced,
}

/// Everything under a durable shard's pipeline lock: the sequencing head
/// (a second copy of the graphs, ahead of the published state by exactly
/// the staged-but-unpublished writes) and the commit queue. The lock is
/// held only for validation + staging — never across WAL I/O.
struct PipelineState {
    /// DOEM graph with every sequenced change applied. Validation target.
    seq_doem: SharedDoem,
    /// OEM replica in lockstep with `seq_doem`; `MUTATE` compiles here.
    seq_replica: SharedOem,
    /// Highest sequenced timestamp — the strict-LSN check reads this,
    /// not the published `ShardState::last_at`.
    seq_last_at: Timestamp,
    /// Mirrors `ShardState::read_only` so refusal happens at sequencing.
    read_only: bool,
    /// Sequenced, not yet drained by the committer.
    queue: VecDeque<StagedCommit>,
    /// The shard's log, parked here between shard construction and
    /// committer start; the committer takes it and owns it exclusively,
    /// which is why no lock is ever held across an append or fsync.
    wal: Option<DbWal>,
    /// Set once by shutdown/replace; the committer drains and exits.
    stop: Option<StopKind>,
}

/// The staged-commit machinery of one durable shard.
pub(crate) struct CommitPipeline {
    inner: Mutex<PipelineState>,
    /// Signaled when the queue gains work or `stop` is set.
    work: Condvar,
}

/// One database shard: its own lock, generation counter, result cache,
/// and — when durable — its commit pipeline and group-committer thread.
/// Shards are handed around as `Arc<Shard>` so the registry lock is
/// never held during execution.
pub(crate) struct Shard {
    pub(crate) state: RwLock<ShardState>,
    pub(crate) cache: ResultCache,
    /// `Some` iff the shard is durable; writes sequence through it.
    pub(crate) pipeline: Option<Arc<CommitPipeline>>,
    /// The group-committer thread, joined on shutdown or replacement.
    committer: Mutex<Option<TrackedHandle<()>>>,
    /// Replication retention floor: the minimum applied LSN (raw
    /// minutes) across live follower leases, `i64::MAX` when none. Kept
    /// as an atomic so the publish path never touches the lease table.
    pub(crate) repl_floor: AtomicI64,
    /// Highest LSN (raw minutes) known durable on this shard's disk —
    /// stored by the committer after each batch fsync, rendered by
    /// `LSN`/`STATS`. Meaningless for non-durable shards.
    pub(crate) durable_lsn: AtomicI64,
    /// This lineage's promotion epoch: 0 for a never-promoted lineage,
    /// bumped by `PROMOTE`, recovered from WAL record suffixes, and
    /// adopted from newer replication batches. Stamped into every WAL
    /// frame and `REPLICATE` header so a deposed primary's records are
    /// recognizably stale.
    pub(crate) epoch: AtomicU64,
    /// The newest epoch a `FENCE` verb deposed this shard at; the shard
    /// is fenced while it exceeds `epoch`, and fenced shards answer
    /// client writes with the typed `FENCED` error (reads keep serving).
    pub(crate) fenced_epoch: AtomicU64,
    /// Set by `PROMOTE`: this follower-side shard takes client writes
    /// and the sync loop stops replaying the old primary into it.
    pub(crate) promoted: AtomicBool,
    /// The MVCC version ring (DESIGN.md §14): one structurally shared
    /// replica per published LSN, serving `QUERY … AS OF`. Locked only
    /// for quick install/pin/GC operations — never across evaluation or
    /// I/O — and always acquired *after* `state` when both are held.
    pub(crate) versions: Mutex<VersionRing<SharedOem>>,
}

impl Shard {
    fn new(
        doem: DoemDatabase,
        replica: OemDatabase,
        cache_capacity: usize,
        wal: Option<DbWal>,
        last_at: Timestamp,
        epoch: u64,
    ) -> Shard {
        let doem = SharedDoem::new(doem);
        let replica = SharedOem::new(replica);
        // The ring's base version: whatever state the shard starts from
        // (empty, loaded, recovered, replicated) is readable `AS OF` its
        // install LSN onward.
        let mut versions = VersionRing::new();
        versions.publish_entry(last_at, 1, replica.snapshot());
        // The sequencing head starts as cheap Arc clones of the published
        // graphs; the graphs are persistent, so the copies share all
        // untouched structure as they evolve independently.
        let pipeline = wal.map(|wal| {
            Arc::new(CommitPipeline {
                inner: Mutex::new(PipelineState {
                    seq_doem: doem.snapshot(),
                    seq_replica: replica.snapshot(),
                    seq_last_at: last_at,
                    read_only: false,
                    queue: VecDeque::new(),
                    wal: Some(wal),
                    stop: None,
                }),
                work: Condvar::new(),
            })
        });
        Shard {
            state: RwLock::new(ShardState {
                doem,
                replica,
                generation: 1,
                last_at,
                read_only: false,
                tail: ReplTail::new(last_at),
            }),
            cache: ResultCache::new(cache_capacity),
            pipeline,
            committer: Mutex::new(None),
            repl_floor: AtomicI64::new(i64::MAX),
            durable_lsn: AtomicI64::new(last_at.raw_minutes()),
            epoch: AtomicU64::new(epoch),
            fenced_epoch: AtomicU64::new(0),
            promoted: AtomicBool::new(false),
            versions: Mutex::new(versions),
        }
    }

    /// This lineage's promotion epoch (0 = never promoted).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// `true` while a newer lineage has deposed this shard: a `FENCE`
    /// carried an epoch above the shard's own.
    pub(crate) fn is_fenced(&self) -> bool {
        self.fenced_epoch.load(Ordering::Relaxed) > self.epoch()
    }

    /// `true` once `PROMOTE` flipped this shard writable.
    pub(crate) fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::Relaxed)
    }

    /// Flip the shard writable under a fresh fence: the new epoch is
    /// strictly above both its own and any epoch it was fenced at, so
    /// the deposed lineage cannot fence it back with a stale number.
    fn promote(&self) -> u64 {
        let next = self
            .epoch()
            .max(self.fenced_epoch.load(Ordering::Relaxed))
            + 1;
        self.epoch.store(next, Ordering::Relaxed);
        self.promoted.store(true, Ordering::Relaxed);
        next
    }

    /// Record a `FENCE` from a newer lineage. Returns `true` iff the
    /// epoch is strictly newer than anything this shard has seen (a
    /// stale fence is refused so lineages cannot depose their
    /// successors).
    fn fence(&self, epoch: u64) -> bool {
        if epoch > self.epoch() && epoch > self.fenced_epoch.load(Ordering::Relaxed) {
            self.fenced_epoch.store(epoch, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Follower side: adopt a replication batch's newer epoch (never
    /// moves backwards).
    pub(crate) fn adopt_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Bump the shard generation and drop newly unreachable cache entries.
    fn bump(state: &mut ShardState, cache: &ResultCache) -> u64 {
        state.generation += 1;
        cache.retain_generation(state.generation);
        state.generation
    }
}

/// Carry a shard's cached results across one published change set
/// (semi-naive maintenance, DESIGN.md §11). Called under the shard's
/// write lock, after the change set was applied and *before* the
/// generation bump. Every entry at the current generation is asked what
/// the change set adds to it (delta variants seeded from the set). Nothing:
/// the entry is re-keyed as it is (`cache_carried`). Some rows: prior ∪
/// fresh, re-canonicalized against the post-publish graph, byte-identical
/// to a fresh evaluation. Both count as `cache_maintained`. An entry whose
/// query × delta leaves the monotonic fragment is dropped, and the next
/// read re-evaluates fully (`cache_fallback`).
fn maintain_shard_cache(
    shared: &Shared,
    shard: &Shard,
    st: &ShardState,
    changes: &ChangeSet,
    at: Timestamp,
) {
    let doem: &DoemDatabase = &st.doem;
    let counts = shard
        .cache
        .carry_generation(st.generation, st.generation + 1, |entry| {
            let Some((query, prior)) = &entry.maintain else {
                return Carry::Drop;
            };
            match chorel::delta::fresh_rows(doem, query, changes, at, &prior.rows) {
                Ok(Some(fresh)) if fresh.is_empty() => Carry::Unchanged,
                Ok(Some(fresh)) => {
                    let rows = lorel::Rows {
                        rows: prior.rows.iter().cloned().chain(fresh).collect(),
                    };
                    Carry::Replaced(CacheEntry {
                        strings: chorel::delta::canonical_strings_for_rows(doem, &rows),
                        maintain: Some((query.clone(), rows)),
                    })
                }
                Ok(None) | Err(_) => Carry::Drop,
            }
        });
    let m = &shared.metrics;
    m.cache_maintained
        .fetch_add(counts.unchanged + counts.replaced, Ordering::Relaxed);
    m.cache_carried.fetch_add(counts.unchanged, Ordering::Relaxed);
    m.cache_fallback.fetch_add(counts.dropped, Ordering::Relaxed);
}

/// Install the just-published replica into the shard's version ring and
/// apply the retention horizon. Called under the shard's write lock after
/// the generation bump (`state` → `versions` is the lock order), so the
/// ring's newest entry is never behind the published state.
fn install_version(shared: &Shared, shard: &Shard, st: &ShardState, at: Timestamp) {
    let gced = {
        let mut ring = shard.versions.lock();
        ring.publish_entry(at, st.generation, st.replica.snapshot());
        ring.retain(shared.cfg.retain_lsns)
    };
    Metrics::bump(&shared.metrics.versions_installed);
    shared
        .metrics
        .versions_gced
        .fetch_add(gced, Ordering::Relaxed);
}

/// The rest of the publish stage for one record whose change set was just
/// applied to `st` (at `began`, under the shard's write lock): replication
/// tail, cache maintenance, generation bump, version install. Returns the
/// new shard generation and records the time since `began` — the time
/// readers were locked out for this record — in the `publish` histogram.
fn publish_applied(
    shared: &Shared,
    shard: &Shard,
    st: &mut ShardState,
    changes: &ChangeSet,
    at: Timestamp,
    began: Instant,
) -> u64 {
    st.last_at = at;
    st.tail.push(
        at,
        changes.clone(),
        shared.cfg.replication_retain.max(1),
        shard.repl_floor.load(Ordering::Relaxed),
    );
    maintain_shard_cache(shared, shard, st, changes, at);
    let g = Shard::bump(st, &shard.cache);
    install_version(shared, shard, st, at);
    shared.bump_global();
    shared.metrics.publish.record(began.elapsed());
    g
}

/// Everything behind the control shard's lock: QSS subscriptions, the
/// registry of named queries, and the simulated clock.
pub(crate) struct ControlState {
    /// Simulated time (QSS polls run up to here).
    pub(crate) clock: Timestamp,
    pub(crate) registry: QueryRegistry,
    pub(crate) qss: QssServer<DynSource>,
    /// Bumped whenever a QSS poll, subscribe, or unsubscribe changes what
    /// subscription queries can observe; keys the `sub:` cache.
    pub(crate) generation: u64,
}

/// The durability half of the shared state: the checkpoint store (a
/// [`lore::LoreStore`] rooted at `wal_dir`) and the checkpoint policy.
pub(crate) struct Durability {
    pub(crate) store: lore::LoreStore,
    pub(crate) checkpoint_every: u64,
}

impl Durability {
    /// The WAL file beside the checkpoint image of database `name`.
    fn wal_path(&self, name: &str) -> PathBuf {
        self.store.path_of(name).with_extension("wal")
    }
}

/// State shared by the service handle, every worker, and every client.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    /// Database name → shard. Held only to look up / insert / list
    /// shards; execution happens against a cloned `Arc<Shard>`.
    pub(crate) shards: RwLock<HashMap<String, Arc<Shard>>>,
    /// The QSS/registry/clock shard.
    pub(crate) control: RwLock<ControlState>,
    /// Result cache for subscription (`sub:<id>`) queries, keyed by the
    /// control generation.
    pub(crate) sub_cache: ResultCache,
    /// SAVE/LOAD storage; internally synchronized, so no lock here.
    pub(crate) store: Option<lore::LoreStore>,
    /// WAL + checkpoint machinery; `None` without a `wal_dir`.
    pub(crate) durable: Option<Durability>,
    /// Cleared at the start of shutdown: new submissions fail fast while
    /// already-queued jobs drain.
    pub(crate) accepting: AtomicBool,
    /// Monotonic write counter across *all* shards — the `GEN` verb.
    pub(crate) global_gen: AtomicU64,
    /// Replication bookkeeping: follower leases (primary side) and
    /// observed primary LSNs (follower side).
    pub(crate) repl: ReplHub,
    pub(crate) metrics: Metrics,
}

impl Shared {
    /// Look up a shard, cloning its `Arc` so the map lock drops
    /// immediately.
    pub(crate) fn shard(&self, db: &str) -> Option<Arc<Shard>> {
        self.shards.read().get(db).cloned()
    }

    fn bump_global(&self) -> u64 {
        self.global_gen.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A single-use reply rendezvous between a worker and the submitting
/// session. Replaces a per-request `bounded(1)` channel: the timeout path
/// marks the slot abandoned under the same lock the worker's delivery
/// checks, so a response that races a timeout is either handed over or
/// knowingly dropped — it can never sit queued in a channel whose last
/// endpoint is about to drop (which the sanitizer reports as a leak).
pub(crate) struct ReplySlot {
    state: Mutex<SlotState>,
    delivered: Condvar,
}

enum SlotState {
    /// No response yet; the session may still be waiting.
    Empty,
    /// The worker's response, awaiting pickup.
    Ready(Response),
    /// The session timed out (or already picked up); deliveries are
    /// discarded from here on.
    Abandoned,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            state: Mutex::new(SlotState::Empty),
            delivered: Condvar::new(),
        })
    }

    /// Worker side: hand over the response. Returns it to the caller's
    /// void if the waiter already gave up — the same contract as sending
    /// to a dropped receiver, minus the leaked queue entry.
    fn deliver(&self, resp: Response) {
        let mut st = self.state.lock();
        if matches!(*st, SlotState::Empty) {
            *st = SlotState::Ready(resp);
            drop(st);
            self.delivered.notify_one();
        }
    }

    /// Session side: block until the response lands or `timeout` elapses,
    /// abandoning the slot on timeout.
    fn wait(&self, timeout: Duration) -> Option<Response> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if matches!(*st, SlotState::Ready(_)) {
                let SlotState::Ready(resp) = std::mem::replace(&mut *st, SlotState::Abandoned)
                else {
                    unreachable!("matched Ready above");
                };
                return Some(resp);
            }
            let now = Instant::now();
            if now >= deadline {
                *st = SlotState::Abandoned;
                return None;
            }
            let _ = self.delivered.wait_for(&mut st, deadline - now);
        }
    }
}

/// A queued unit of work.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) reply: Arc<ReplySlot>,
    pub(crate) enqueued: Instant,
}

/// A tagged in-flight request handed to the completion pool: wait out
/// `pending` and forward the tagged response to `out` (a session's writer
/// channel).
pub(crate) struct CompletionJob {
    pub(crate) tag: String,
    pub(crate) pending: PendingReply,
    pub(crate) out: Sender<(Option<String>, Response)>,
}

/// The service handle: owns the worker pool, the completion pool, and
/// (optionally) the QSS ticker. Create sessions with [`Service::client`],
/// stop everything with [`Service::shutdown`].
pub struct Service {
    pub(crate) shared: Arc<Shared>,
    job_tx: Sender<Job>,
    completion_tx: Sender<CompletionJob>,
    workers: Vec<TrackedHandle<()>>,
    completions: Vec<TrackedHandle<()>>,
    ticker: Option<TrackedHandle<()>>,
    /// The replication fetch/apply thread (follower mode only).
    follower: Option<TrackedHandle<()>>,
    pub(crate) stop: Arc<AtomicBool>,
}

impl Service {
    /// Start a service over the paper's guide source (Example 6.1's
    /// scripted restaurant guide feeds the embedded QSS). With a
    /// [`ServeConfig::wal_dir`], first recovers every database found
    /// there (checkpoint + log-tail replay).
    pub fn start(cfg: ServeConfig) -> std::io::Result<Service> {
        Service::start_with_source(cfg, Box::new(ScriptedSource::paper_guide()))
    }

    /// Start a service polling the given source.
    pub fn start_with_source(cfg: ServeConfig, source: DynSource) -> std::io::Result<Service> {
        let store = match &cfg.store_dir {
            Some(dir) => Some(
                lore::LoreStore::open(dir)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            ),
            None => None,
        };
        let durable = match &cfg.wal_dir {
            Some(dir) => Some(Durability {
                store: lore::LoreStore::open(dir)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
                checkpoint_every: cfg.checkpoint_every,
            }),
            None => None,
        };
        let metrics = Metrics::new();
        let mut shards = HashMap::new();
        if let Some(d) = &durable {
            recover_all(d, &cfg, &metrics, &mut shards)?;
        }
        let control = ControlState {
            clock: cfg.epoch,
            registry: QueryRegistry::new(),
            qss: QssServer::new(source).with_strategy(cfg.strategy),
            generation: 1,
        };
        let (job_tx, job_rx) = channel::bounded::<Job>(cfg.queue_depth.max(1));
        let (completion_tx, completion_rx) = channel::unbounded::<CompletionJob>();
        let shared = Arc::new(Shared {
            shards: RwLock::new(shards),
            control: RwLock::new(control),
            sub_cache: ResultCache::new(cfg.cache_capacity),
            store,
            durable,
            accepting: AtomicBool::new(true),
            global_gen: AtomicU64::new(1),
            repl: ReplHub::new(),
            metrics,
            cfg,
        });
        let stop = Arc::new(AtomicBool::new(false));
        // Tracked spawns: handles demand an explicit join (shutdown) or
        // detach, and an OS-level spawn failure propagates instead of
        // panicking the starter.
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = job_rx.clone();
                let stop = Arc::clone(&stop);
                spawn_tracked(&format!("serve-worker-{i}"), move || {
                    worker_loop(&shared, &rx, &stop)
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let completions = (0..shared.cfg.completion_threads.max(1))
            .map(|i| {
                let rx = completion_rx.clone();
                let stop = Arc::clone(&stop);
                spawn_tracked(&format!("serve-completion-{i}"), move || {
                    completion_loop(&rx, &stop)
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let ticker = match shared.cfg.autotick {
            Some(tick) => {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                Some(spawn_tracked("serve-qss-ticker", move || {
                    ticker_loop(&shared, tick, &stop)
                })?)
            }
            None => None,
        };
        // Recovered shards were built before `shared` existed; give each
        // durable one its group committer now.
        let recovered: Vec<(String, Arc<Shard>)> = shared
            .shards
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (name, shard) in recovered {
            start_committer(&shared, &name, &shard)?;
        }
        let follower = match shared.cfg.follow {
            Some(_) => {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                Some(spawn_tracked("serve-follower", move || {
                    crate::replication::follower::follower_loop(&shared, &stop)
                })?)
            }
            None => None,
        };
        Ok(Service {
            shared,
            job_tx,
            completion_tx,
            workers,
            completions,
            ticker,
            follower,
            stop,
        })
    }

    /// Install a database built from an initial snapshot and a history
    /// (the name comes from the snapshot). Replaces any same-named shard —
    /// in-flight queries against the old shard finish against their
    /// snapshots; its cache dies with it. With durability on, the
    /// installed database is checkpointed (and its log reset) before this
    /// returns, so it survives a crash immediately.
    pub fn install(&self, initial: &OemDatabase, history: &History) -> std::io::Result<()> {
        let doem =
            doem_from_history(initial, history).map_err(|e| std::io::Error::other(e.to_string()))?;
        let replica = current_snapshot(&doem);
        let name = doem.name().to_string();
        let last_at = doem
            .timestamps()
            .last()
            .copied()
            .unwrap_or(Timestamp::NEG_INFINITY);
        install_shard(&self.shared, &name, doem, replica, last_at, false).map_err(|e| match e {
            InstallError::Exists => std::io::Error::other(format!("database {name:?} exists")),
            InstallError::Io(e) => e,
        })?;
        self.shared.bump_global();
        Ok(())
    }

    /// A new in-process session sharing this service's worker pool.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            tx: self.job_tx.clone(),
            completion_tx: self.completion_tx.clone(),
        }
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Names of the installed databases, sorted.
    pub fn database_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.shards.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// An O(1) snapshot handle on one database's DOEM graph (as the query
    /// path takes them), for inspection and tests. `None` if no such
    /// database.
    pub fn doem_snapshot(&self, db: &str) -> Option<SharedDoem> {
        let shard = self.shared.shard(db)?;
        let st = shard.state.read();
        Some(st.doem.snapshot())
    }

    /// The retained version of database `db` in force at `lsn`: the
    /// ring entry with the greatest LSN `<= lsn` (DESIGN.md §14). `None`
    /// if no such database, or if `lsn` predates the retention horizon —
    /// exactly when the `AS OF` query path falls back to the `O_t(D)`
    /// view. Used by the chaos oracle to re-check
    /// observed reads against the version actually served.
    pub fn version_snapshot(&self, db: &str, lsn: Timestamp) -> Option<SharedOem> {
        let shard = self.shared.shard(db)?;
        let ring = shard.versions.lock();
        ring.at(lsn).map(|e| e.value.clone())
    }

    /// How many versions database `db`'s ring currently retains.
    pub fn retained_versions(&self, db: &str) -> usize {
        self.shared
            .shard(db)
            .map(|s| s.versions.lock().len())
            .unwrap_or(0)
    }

    /// Stop the service, **draining** first: new submissions are refused
    /// immediately, queued requests execute to completion (so every
    /// admitted write is sequenced), the group committers drain their
    /// commit queues — persisting, publishing, and acking everything
    /// staged — and each takes a final checkpoint before exiting, so a
    /// clean shutdown followed by a restart loses nothing and replays
    /// nothing.
    pub fn shutdown(self) {
        let Service {
            shared,
            job_tx,
            completion_tx,
            workers,
            completions,
            ticker,
            follower,
            stop,
        } = self;
        // Refuse new work, then signal loops; workers keep pulling until
        // the queue is empty (they exit on an idle tick with stop set).
        shared.accepting.store(false, Ordering::SeqCst);
        stop.store(true, Ordering::SeqCst);
        drop(job_tx);
        for w in workers {
            let _ = w.join();
        }
        // The follower joins before the committers stop: its in-flight
        // record applies are acked by the committers, so stopping those
        // first would strand it waiting out a reply timeout.
        if let Some(f) = follower {
            let _ = f.join();
        }
        // Workers are gone, so the commit queues can only shrink: ask
        // every committer to drain + checkpoint, then join them. Replies
        // for staged writes are delivered before the join returns, which
        // is why the completion pool is stopped after this.
        let shards: Vec<Arc<Shard>> = shared.shards.read().values().map(Arc::clone).collect();
        for shard in &shards {
            if let Some(p) = &shard.pipeline {
                p.inner.lock().stop.get_or_insert(StopKind::Shutdown);
                p.work.notify_all();
            }
        }
        for shard in &shards {
            let handle = shard.committer.lock().take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
        drop(completion_tx);
        for c in completions {
            let _ = c.join();
        }
        if let Some(t) = ticker {
            let _ = t.join();
        }
    }

    /// Stop the service the way a crash would, as closely as an
    /// in-process harness can: every background thread is signalled and
    /// **joined** (so the data directory is quiesced before a successor
    /// reopens it), but no final checkpoint is taken — the WAL is left
    /// exactly as the group committers last persisted it, and restart
    /// goes through real recovery.
    ///
    /// Simply `drop`ping a `Service` is **not** a crash: the struct only
    /// holds `JoinHandle`s and `Arc` clones, so the committer, follower,
    /// and worker threads keep running against the shared state — and a
    /// successor opened over the same directory then races them on the
    /// WAL file (two appenders, two truncators: checkpoint images and
    /// log contents come apart). Chaos harnesses must call this instead.
    pub fn crash_stop(self) {
        let Service {
            shared,
            job_tx,
            completion_tx,
            workers,
            completions,
            ticker,
            follower,
            stop,
        } = self;
        shared.accepting.store(false, Ordering::SeqCst);
        stop.store(true, Ordering::SeqCst);
        drop(job_tx);
        for w in workers {
            let _ = w.join();
        }
        if let Some(f) = follower {
            let _ = f.join();
        }
        // `Replaced` (not `Shutdown`): drain what is staged so no worker
        // is stranded waiting on an ack, but take no final checkpoint —
        // a crash does not get to tidy its log.
        let shards: Vec<Arc<Shard>> = shared.shards.read().values().map(Arc::clone).collect();
        for shard in &shards {
            if let Some(p) = &shard.pipeline {
                p.inner.lock().stop.get_or_insert(StopKind::Replaced);
                p.work.notify_all();
            }
        }
        for shard in &shards {
            let handle = shard.committer.lock().take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
        drop(completion_tx);
        for c in completions {
            let _ = c.join();
        }
        if let Some(t) = ticker {
            let _ = t.join();
        }
    }
}

/// Prepare the durable files for a brand-new incarnation of database
/// `name`: write its checkpoint image and reset its log to empty.
/// Caller holds the shard-map write lock, so no two incarnations race.
fn fresh_durable_db(
    d: &Durability,
    shared: &Shared,
    name: &str,
    doem: &DoemDatabase,
) -> std::io::Result<DbWal> {
    if shared.cfg.faults.check(FaultPoint::Checkpoint).is_some() {
        Metrics::bump(&shared.metrics.faults_injected);
        return Err(Faults::injected_error(FaultPoint::Checkpoint));
    }
    d.store
        .save_doem(name, doem)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Metrics::bump(&shared.metrics.checkpoints);
    DbWal::open(d.wal_path(name), 0)
}

/// Recover every database found under the WAL directory: load its
/// checkpoint, replay the usable log tail through [`apply_set`], truncate
/// anything past the durable prefix, and install the shard.
fn recover_all(
    d: &Durability,
    cfg: &ServeConfig,
    metrics: &Metrics,
    shards: &mut HashMap<String, Arc<Shard>>,
) -> std::io::Result<()> {
    let names = d
        .store
        .names()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    for stem in names {
        let doem = d
            .store
            .load_doem(&stem)
            .map_err(|e| std::io::Error::other(format!("checkpoint {stem:?}: {e}")))?;
        let name = doem.name().to_string();
        let wal_path = d.wal_path(&name);
        let recovered = recover_one(doem, &wal_path)?;
        let mut wal = DbWal::open(&wal_path, recovered.good_len)?;
        wal.since_checkpoint = recovered.applied;
        metrics.recoveries.fetch_add(1, Ordering::Relaxed);
        if recovered.torn {
            metrics.torn_tails.fetch_add(1, Ordering::Relaxed);
        }
        if crate::trace_enabled() {
            eprintln!(
                "TRACE recover id={:?} db={name} last_at={} applied={} torn={} epoch={} history={}",
                cfg.follower_id,
                recovered.last_at.raw_minutes(),
                recovered.applied,
                recovered.torn,
                recovered.epoch,
                recovered.doem.timestamps().len(),
            );
        }
        let shard = Arc::new(Shard::new(
            recovered.doem,
            recovered.replica,
            cfg.cache_capacity,
            Some(wal),
            recovered.last_at,
            recovered.epoch,
        ));
        shards.insert(name, shard);
    }
    Ok(())
}

/// What [`recover_one`] rebuilt from a checkpoint plus its log tail.
struct Recovered {
    doem: DoemDatabase,
    replica: OemDatabase,
    /// The timestamp high-water mark (the recovered applied LSN).
    last_at: Timestamp,
    /// Entries replayed past the checkpoint.
    applied: u64,
    /// Byte length of the durable log prefix (anything past it is torn).
    good_len: u64,
    /// Whether anything past the durable prefix had to be discarded.
    torn: bool,
    /// The highest promotion epoch any usable record carried (the
    /// checkpoint image itself carries none — a shard whose whole epoch
    /// history was truncated re-adopts it from replication batches).
    epoch: u64,
}

/// Replay one database's log tail onto its checkpoint.
fn recover_one(checkpoint: DoemDatabase, wal_path: &Path) -> std::io::Result<Recovered> {
    let ckpt_max = checkpoint
        .timestamps()
        .last()
        .copied()
        .unwrap_or(Timestamp::NEG_INFINITY);
    let replayed = wal::replay(wal_path)?;
    // Replay the longest prefix that applies cleanly (`apply_set` leaves
    // the graphs untouched by the entry it rejects). Entries at or before
    // the checkpoint's high-water mark are already inside the image (a
    // crash landed between checkpoint save and log truncation) and are
    // skipped, not re-applied.
    let mut doem = checkpoint;
    let mut replica = current_snapshot(&doem);
    let mut last_at = ckpt_max;
    let mut applied = 0u64;
    let mut good_len = 0u64;
    let mut epoch = 0u64;
    let mut rejected = false;
    for (i, (at, changes)) in replayed.entries.iter().enumerate() {
        if *at > ckpt_max {
            if apply_set(&mut doem, &mut replica, changes, *at).is_err() {
                rejected = true;
                break;
            }
            last_at = *at;
            applied += 1;
        }
        good_len += wal::encode_record_epoch(*at, changes, replayed.epochs[i]).len() as u64;
        epoch = epoch.max(replayed.epochs[i]);
    }
    let torn = replayed.torn || rejected;
    Ok(Recovered {
        doem,
        replica,
        last_at,
        applied,
        good_len,
        torn,
        epoch,
    })
}

/// Checkpoint one durable shard from its committer: snapshot the
/// *published* DOEM (an `Arc` clone under a brief read lock), save the
/// image outside every lock, then truncate the log. The committer is the
/// sole appender and publisher, so persisted == published at every batch
/// boundary and truncation cannot lose a record the image lacks. On
/// failure the log is left intact — nothing durable is lost, the log
/// just keeps growing until a later checkpoint succeeds.
fn checkpoint_published(
    shared: &Shared,
    name: &str,
    shard: &Shard,
    wal: &mut DbWal,
) -> std::io::Result<()> {
    let Some(d) = &shared.durable else {
        return Ok(());
    };
    if shared.cfg.faults.check(FaultPoint::Checkpoint).is_some() {
        Metrics::bump(&shared.metrics.faults_injected);
        return Err(Faults::injected_error(FaultPoint::Checkpoint));
    }
    let doem = {
        let st = shard.state.read();
        st.doem.snapshot()
    };
    d.store
        .save_doem(name, &doem)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    wal.truncate()?;
    Metrics::bump(&shared.metrics.checkpoints);
    Ok(())
}

/// Install (or replace) a shard under the map write lock. The previous
/// incarnation's committer is stopped and joined **before** the durable
/// files are reset, so its file handle can never scribble on the new
/// incarnation's log; holding the map lock across the prep means a
/// racing `CREATE`/`LOAD` of the same name cannot interleave with the
/// checkpoint + log reset. The committer itself starts after the map
/// lock drops.
fn install_shard(
    shared: &Arc<Shared>,
    name: &str,
    doem: DoemDatabase,
    replica: OemDatabase,
    last_at: Timestamp,
    must_be_new: bool,
) -> Result<Arc<Shard>, InstallError> {
    let mut shards = shared.shards.write();
    if let Some(old) = shards.get(name) {
        if must_be_new {
            return Err(InstallError::Exists);
        }
        retire_shard(old);
    }
    let wal = match &shared.durable {
        Some(d) => Some(fresh_durable_db(d, shared, name, &doem).map_err(InstallError::Io)?),
        None => None,
    };
    // Fresh incarnations start at epoch 0: a replicated snapshot install
    // re-adopts the primary's epoch from the next batch header, and a
    // recovered shard restores it from its WAL record suffixes.
    let shard = Arc::new(Shard::new(
        doem,
        replica,
        shared.cfg.cache_capacity,
        wal,
        last_at,
        0,
    ));
    shards.insert(name.to_string(), Arc::clone(&shard));
    drop(shards);
    start_committer(shared, name, &shard).map_err(InstallError::Io)?;
    Ok(shard)
}

/// Why [`install_shard`] refused.
enum InstallError {
    /// `must_be_new` and a same-named shard already exists.
    Exists,
    /// Durable prep or committer spawn failed; nothing was installed.
    Io(std::io::Error),
}

/// Stop a shard's committer (drain, no checkpoint) and join it. Used
/// when the shard is being replaced; a no-op for non-durable shards.
fn retire_shard(shard: &Shard) {
    if let Some(p) = &shard.pipeline {
        p.inner.lock().stop.get_or_insert(StopKind::Replaced);
        p.work.notify_all();
    }
    let handle = shard.committer.lock().take();
    if let Some(h) = handle {
        let _ = h.join();
    }
}

/// Spawn the group committer for a durable shard, handing it exclusive
/// ownership of the shard's [`DbWal`]. A no-op for non-durable shards.
fn start_committer(
    shared: &Arc<Shared>,
    name: &str,
    shard: &Arc<Shard>,
) -> std::io::Result<()> {
    let Some(pipeline) = &shard.pipeline else {
        return Ok(());
    };
    let Some(wal) = pipeline.inner.lock().wal.take() else {
        return Ok(());
    };
    let shared = Arc::clone(shared);
    let shard_for_loop = Arc::clone(shard);
    let db = name.to_string();
    let handle = spawn_tracked(&format!("serve-committer-{name}"), move || {
        committer_loop(&shared, &db, &shard_for_loop, wal)
    })?;
    *shard.committer.lock() = Some(handle);
    Ok(())
}

/// The persist + publish stages: one thread per durable shard, the sole
/// owner of the shard's WAL. Each round drains up to `group_commit_max`
/// staged records (optionally lingering `group_commit_window_us` for
/// riders), persists them with one `write`+`fsync` outside every lock,
/// publishes them in LSN order, and releases the waiting reply slots. On
/// stop it drains what is queued, then — for a shutdown, not a
/// replacement — takes a final checkpoint so restart replays nothing.
fn committer_loop(shared: &Arc<Shared>, db: &str, shard: &Arc<Shard>, mut wal: DbWal) {
    let Some(pipeline) = &shard.pipeline else {
        return;
    };
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
            if stopping == Some(StopKind::Shutdown) && !wal.is_empty() {
                let published_read_only = {
                    let st = shard.state.read();
                    st.read_only
                };
                if !published_read_only {
                    let _ = checkpoint_published(shared, db, shard, &mut wal);
                }
            }
            return;
        }
        if persist_and_publish(shared, db, shard, pipeline, &mut wal, batch) {
            let due = shared
                .durable
                .as_ref()
                .is_some_and(|d| d.checkpoint_every > 0 && wal.since_checkpoint >= d.checkpoint_every);
            if due {
                let _ = checkpoint_published(shared, db, shard, &mut wal);
            }
        }
    }
}

/// Persist one staged batch (a single `write`+`fsync` through
/// [`DbWal::append_batch`]) and, if that succeeds, publish it: apply
/// each record to the queried state in LSN order, bump the generations,
/// and release every rider's reply slot. Returns `true` on success.
///
/// Failure is **batch-coherent**: an append/fsync error means *no* rider
/// is acked — every one receives the same `ErrKind::Io` response, the
/// shard flips read-only (at both the pipeline and the published state,
/// counted once in `read_only_flips`), and anything still queued is
/// refused with `ErrKind::ReadOnly`. Whatever frame prefix physically
/// reached the disk is indistinguishable from a crash mid-write, which
/// recovery already handles: unacked records may or may not survive, but
/// no acked record is ever lost.
fn persist_and_publish(
    shared: &Shared,
    db: &str,
    shard: &Shard,
    pipeline: &CommitPipeline,
    wal: &mut DbWal,
    batch: Vec<StagedCommit>,
) -> bool {
    let frames: Vec<&[u8]> = batch.iter().map(|s| s.frame.as_slice()).collect();
    if let Err(e) = wal.append_batch(&frames, &shared.cfg.faults, &shared.metrics) {
        let stranded: Vec<StagedCommit> = {
            let mut ps = pipeline.inner.lock();
            ps.read_only = true;
            ps.queue.drain(..).collect()
        };
        {
            let mut st = shard.state.write();
            if !st.read_only {
                st.read_only = true;
                Metrics::bump(&shared.metrics.read_only_flips);
            }
        }
        let resp = Response::err(
            ErrKind::Io,
            format!("log append failed ({e}); database {db:?} is now read-only"),
        );
        for s in batch {
            s.reply.deliver(resp.clone());
        }
        for s in stranded {
            s.reply.deliver(Response::err(
                ErrKind::ReadOnly,
                format!("database {db:?} is read-only after a log I/O failure"),
            ));
        }
        return false;
    }
    if let Some(last) = batch.last() {
        shard
            .durable_lsn
            .store(last.at.raw_minutes(), Ordering::Relaxed);
    }
    let mut replies: Vec<(Arc<ReplySlot>, Response)> = Vec::with_capacity(batch.len());
    let mut poisoned = false;
    {
        let mut st = shard.state.write();
        for s in &batch {
            if poisoned {
                replies.push((
                    Arc::clone(&s.reply),
                    Response::err(
                        ErrKind::ReadOnly,
                        format!("database {db:?} is read-only after a publish failure"),
                    ),
                ));
                continue;
            }
            let began = Instant::now();
            let ShardState { doem, replica, .. } = &mut *st;
            match apply_set(doem.make_mut(), replica.make_mut(), &s.changes, s.at) {
                Ok(()) => {
                    let g = publish_applied(shared, shard, &mut st, &s.changes, s.at, began);
                    let text = match s.created {
                        Some(c) => format!(
                            "applied {} ops ({c} created) at {}; generation {g}",
                            s.ops, s.at
                        ),
                        None => format!("applied {} ops at {}; generation {g}", s.ops, s.at),
                    };
                    replies.push((Arc::clone(&s.reply), Response::Ok(text)));
                }
                Err(e) => {
                    // Unreachable by construction — the sequence stage
                    // already applied this exact set to the sequencing
                    // head. If the copies diverge anyway, refuse further
                    // writes rather than let memory and disk disagree.
                    poisoned = true;
                    st.read_only = true;
                    Metrics::bump(&shared.metrics.read_only_flips);
                    replies.push((
                        Arc::clone(&s.reply),
                        Response::err(
                            ErrKind::Internal,
                            format!("sequenced change could not be published: {e}"),
                        ),
                    ));
                }
            }
        }
    }
    for (slot, resp) in replies {
        slot.deliver(resp);
    }
    if poisoned {
        pipeline.inner.lock().read_only = true;
    }
    !poisoned
}

/// An in-process session handle. Cloning is cheap; every clone shares the
/// service's queue, caches, and metrics.
#[derive(Clone)]
pub struct Client {
    pub(crate) shared: Arc<Shared>,
    tx: Sender<Job>,
    completion_tx: Sender<CompletionJob>,
}

/// An in-flight request: the submission half has already happened (with
/// admission control applied); [`PendingReply::wait`] blocks for the
/// response, enforcing the configured request timeout. This is what lets
/// a pipelined session keep reading new requests while earlier ones
/// execute.
pub struct PendingReply {
    shared: Arc<Shared>,
    started: Instant,
    state: PendingState,
}

enum PendingState {
    /// Resolved at submission time (parse error, BUSY, shutdown).
    Ready(Response),
    /// A worker will deliver the response here.
    Waiting(Arc<ReplySlot>),
}

impl PendingReply {
    fn ready(shared: Arc<Shared>, started: Instant, resp: Response) -> PendingReply {
        PendingReply {
            shared,
            started,
            state: PendingState::Ready(resp),
        }
    }

    /// Block until the response arrives (or the request timeout elapses),
    /// recording end-to-end latency and error metrics exactly once.
    pub fn wait(self) -> Response {
        let m = &self.shared.metrics;
        let resp = match self.state {
            PendingState::Ready(resp) => resp,
            PendingState::Waiting(slot) => {
                match slot.wait(self.shared.cfg.request_timeout) {
                    Some(resp) => resp,
                    None => {
                        Metrics::bump(&m.timeouts);
                        Response::err(
                            ErrKind::Timeout,
                            format!("no reply within {:?}", self.shared.cfg.request_timeout),
                        )
                    }
                }
            }
        };
        m.total.record(self.started.elapsed());
        if resp.is_error() {
            Metrics::bump(&m.errors);
        }
        resp
    }
}

impl Client {
    /// Parse one protocol line and execute it, honoring admission control
    /// and the request timeout. Never blocks longer than the configured
    /// timeout (plus queue admission, which is immediate).
    pub fn request_line(&self, line: &str) -> Response {
        let (_tag, pending) = self.begin_line(line);
        pending.wait()
    }

    /// Submit an already-parsed request and block for the response.
    pub fn submit(&self, req: Request) -> Response {
        self.begin(req).wait()
    }

    /// Parse one protocol line — including an optional `#<id>` pipelining
    /// tag — and submit it without blocking for the response. Returns the
    /// tag (to match the eventual response to its request) and the
    /// in-flight handle.
    pub fn begin_line(&self, line: &str) -> (Option<String>, PendingReply) {
        let m = &self.shared.metrics;
        let started = Instant::now();
        let (tag, parsed) = crate::protocol::parse_tagged_request(line);
        m.parse.record(started.elapsed());
        if tag.is_some() {
            Metrics::bump(&m.pipelined);
        }
        match parsed {
            Ok(req) => (tag, self.begin(req)),
            Err(e) => {
                Metrics::bump(&m.requests);
                (
                    tag,
                    PendingReply::ready(Arc::clone(&self.shared), started, e.into()),
                )
            }
        }
    }

    /// Submit an already-parsed request without blocking for the
    /// response. Admission control applies immediately: a full queue
    /// resolves the reply to `BUSY` before this returns.
    pub fn begin(&self, req: Request) -> PendingReply {
        let m = &self.shared.metrics;
        Metrics::bump(&m.requests);
        Metrics::bump(if req.is_read() { &m.reads } else { &m.writes });
        let started = Instant::now();
        if !self.shared.accepting.load(Ordering::SeqCst) {
            return PendingReply::ready(
                Arc::clone(&self.shared),
                started,
                Response::err(ErrKind::Internal, "service is shutting down"),
            );
        }
        let slot = ReplySlot::new();
        let job = Job {
            req,
            reply: Arc::clone(&slot),
            enqueued: Instant::now(),
        };
        let state = match self.tx.try_send(job) {
            Err(channel::TrySendError::Full(_)) => {
                Metrics::bump(&m.busy_rejected);
                PendingState::Ready(Response::err(ErrKind::Busy, "request queue full, try again"))
            }
            Err(channel::TrySendError::Disconnected(_)) => {
                PendingState::Ready(Response::err(ErrKind::Internal, "service is shut down"))
            }
            Ok(()) => PendingState::Waiting(slot),
        };
        PendingReply {
            shared: Arc::clone(&self.shared),
            started,
            state,
        }
    }

    /// Hand a tagged in-flight request to the service's completion pool,
    /// which waits it out and forwards the tagged response to `out`. If
    /// the pool is gone (service shut down) the wait happens inline, so
    /// the response is never dropped.
    pub(crate) fn complete(
        &self,
        tag: String,
        pending: PendingReply,
        out: Sender<(Option<String>, Response)>,
    ) {
        if let Err(channel::SendError(job)) =
            self.completion_tx.send(CompletionJob { tag, pending, out })
        {
            let _ = job.out.send((Some(job.tag), job.pending.wait()));
        }
    }

    /// Convenience: run a query and return its canonical row strings.
    pub fn query(&self, db: &str, text: &str) -> Result<Vec<String>, (ErrKind, String)> {
        match self.request_line(&format!("QUERY {db} {text}")) {
            Response::Rows(rows) => Ok(rows),
            Response::Ok(msg) => Ok(vec![msg]),
            Response::Error { kind, message } => Err((kind, message)),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, rx: &Receiver<Job>, stop: &AtomicBool) {
    let run = |job: Job| {
        shared.metrics.queue.record(job.enqueued.elapsed());
        // A durable write returns `None` here — it was staged, and the
        // group committer delivers the ack once the record is on disk.
        if let Some(resp) = execute(shared, job.req, &job.reply) {
            // The session may have timed out and gone; the slot discards.
            job.reply.deliver(resp);
        }
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => run(job),
            // An idle tick with the stop flag set means the queue has
            // drained — shutdown processes everything already admitted.
            // The final non-blocking sweep closes the window where a job
            // admitted just before the flag flipped would otherwise be
            // stranded in the queue when the last receiver drops.
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    while let Ok(job) = rx.try_recv() {
                        run(job);
                    }
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                while let Ok(job) = rx.try_recv() {
                    run(job);
                }
                return;
            }
        }
    }
}

fn completion_loop(rx: &Receiver<CompletionJob>, stop: &AtomicBool) {
    let run = |job: CompletionJob| {
        let _ = job.out.send((Some(job.tag), job.pending.wait()));
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => run(job),
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    while let Ok(job) = rx.try_recv() {
                        run(job);
                    }
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                while let Ok(job) = rx.try_recv() {
                    run(job);
                }
                return;
            }
        }
    }
}

fn ticker_loop(shared: &Shared, tick: AutoTick, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(tick.interval);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut ctl = shared.control.write();
        let horizon = ctl.clock.plus_minutes(tick.step_minutes);
        let epoch = ctl.qss.change_epoch();
        if let Ok(polls) = ctl.qss.run_until(horizon) {
            ctl.clock = horizon;
            if polls > 0 {
                shared
                    .metrics
                    .qss_polls
                    .fetch_add(polls as u64, Ordering::Relaxed);
            }
            // Invalidate `sub:` entries only when a poll actually folded a
            // change set: a quiet tick leaves every subscription DOEM —
            // and thus every cached answer — untouched.
            if ctl.qss.change_epoch() != epoch {
                ctl.generation += 1;
                shared.sub_cache.retain_generation(ctl.generation);
                shared.bump_global();
            }
        }
    }
}

fn not_found(what: &str, name: &str) -> Response {
    Response::err(ErrKind::NotFound, format!("no {what} named {name:?}"))
}

/// Dial `addr` and send one `FENCE <db> <epoch>` (short timeout, no
/// retries — fencing a dead primary must not stall the promotion).
fn fence_peer(addr: &str, db: &str, epoch: u64) -> std::io::Result<Response> {
    let mut client = crate::tcp::WireClient::connect(addr)?;
    client.set_timeout(Some(Duration::from_millis(500)))?;
    client.roundtrip(&format!("FENCE {db} {epoch}"))
}

/// Run a parsed query against a DOEM snapshot through a shard's cache.
/// The caller has already dropped every lock: `doem` is a snapshot
/// handle, so evaluation happens entirely outside the shard.
fn cached_query(
    shared: &Shared,
    cache: &ResultCache,
    scope: String,
    key: String,
    generation: u64,
    doem: &DoemDatabase,
    query: &lorel::ast::Query,
) -> Response {
    let ck = CacheKey {
        scope,
        canonical: key,
        generation,
    };
    if let Some(entry) = cache.get(&ck) {
        Metrics::bump(&shared.metrics.cache_hits);
        return Response::Rows(entry.strings.clone());
    }
    Metrics::bump(&shared.metrics.cache_misses);
    let t = Instant::now();
    let outcome = run_chorel_parsed(doem, query, shared.cfg.strategy);
    shared.metrics.exec.record(t.elapsed());
    match outcome {
        Ok(result) => {
            let rows = canonical_row_strings(doem, &result);
            // Direct-strategy results keep their raw engine rows so the
            // publish stage can maintain the entry across writes instead
            // of invalidating it (translated rows live in the encoding's
            // id space and cannot be maintained directly).
            let maintain = (shared.cfg.strategy == Strategy::Direct).then(|| {
                (
                    query.clone(),
                    lorel::Rows {
                        rows: result.rows.clone(),
                    },
                )
            });
            cache.insert(
                ck,
                Arc::new(CacheEntry {
                    strings: rows.clone(),
                    maintain,
                }),
            );
            Response::Rows(rows)
        }
        Err(e) => Response::err(ErrKind::Conflict, format!("query failed: {e}")),
    }
}

/// The write a sequence stage is being asked to stage.
enum WriteKind {
    /// `UPDATE`: an explicit change set.
    Update(ChangeSet),
    /// `MUTATE`: a Lorel update statement, compiled against the
    /// sequencing head's replica under the pipeline lock.
    Mutate(String),
}

/// The **sequence** stage of a durable write. Under the pipeline lock
/// only: refuse read-only/stopping shards, enforce the strictly
/// increasing timestamp (Definition 2.2 — the timestamp *is* the LSN),
/// compile `MUTATE` statements against the sequencing head, apply the
/// change set to the head to validate it, encode the WAL frame, and
/// stage it on the commit queue. No I/O happens here; the committer
/// persists and publishes, then releases `reply`. Returns `None` when
/// the write was staged (the ack comes later) or `Some` error response
/// to deliver immediately.
fn sequence_write(
    shared: &Shared,
    shard: &Shard,
    pipeline: &CommitPipeline,
    db: &str,
    at: Option<Timestamp>,
    kind: WriteKind,
    reply: &Arc<ReplySlot>,
) -> Option<Response> {
    let mut ps = pipeline.inner.lock();
    if ps.read_only {
        return Some(Response::err(
            ErrKind::ReadOnly,
            format!("database {db:?} is read-only after a log I/O failure"),
        ));
    }
    if ps.stop.is_some() {
        return Some(Response::err(
            ErrKind::Conflict,
            format!("database {db:?} is being replaced; retry"),
        ));
    }
    if ps.queue.len() >= shared.cfg.queue_depth.max(1) {
        Metrics::bump(&shared.metrics.busy_rejected);
        return Some(Response::err(
            ErrKind::Busy,
            "commit queue full, try again",
        ));
    }
    // `AT now` resolves *inside* the sequence stage, under the pipeline
    // lock, against the sequencing high-water mark — so two concurrent
    // `AT now` writes can never race to the same LSN.
    let at = at.unwrap_or_else(|| resolve_now(shared, ps.seq_last_at));
    if at <= ps.seq_last_at {
        return Some(Response::err(
            ErrKind::Conflict,
            format!(
                "change set rejected: timestamp {at} is not after {} \
                 (durable histories are strictly time-ordered)",
                ps.seq_last_at
            ),
        ));
    }
    let t = Instant::now();
    let (changes, created) = match kind {
        WriteKind::Update(changes) => (changes, None),
        WriteKind::Mutate(stmt) => match run_update(&ps.seq_replica, &stmt) {
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
        seq_doem,
        seq_replica,
        ..
    } = &mut *ps;
    let outcome = apply_set(seq_doem.make_mut(), seq_replica.make_mut(), &changes, at);
    shared.metrics.exec.record(t.elapsed());
    if let Err(e) = outcome {
        // `apply_set` is all or nothing: the head is as it was.
        return Some(Response::err(
            ErrKind::Conflict,
            format!("change set rejected: {e}"),
        ));
    }
    let frame = wal::encode_record_epoch(at, &changes, shard.epoch());
    ps.seq_last_at = at;
    let ops = changes.len();
    ps.queue.push_back(StagedCommit {
        at,
        changes,
        frame,
        ops,
        created,
        reply: Arc::clone(reply),
    });
    drop(ps);
    pipeline.work.notify_one();
    None
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

/// Commit one change set to a **non-durable** shard synchronously.
/// Caller holds the shard's write lock; there is no log, so apply +
/// publish collapse into one step. Returns the new shard generation, or
/// the error response to send.
fn commit_in_memory(
    shared: &Shared,
    shard: &Shard,
    db: &str,
    st: &mut ShardState,
    changes: &ChangeSet,
    at: Timestamp,
) -> Result<u64, Response> {
    if st.read_only {
        return Err(Response::err(
            ErrKind::ReadOnly,
            format!("database {db:?} is read-only after a log I/O failure"),
        ));
    }
    let t = Instant::now();
    let ShardState { doem, replica, .. } = &mut *st;
    let outcome = apply_set(doem.make_mut(), replica.make_mut(), changes, at);
    shared.metrics.exec.record(t.elapsed());
    match outcome {
        Ok(()) => Ok(publish_applied(shared, shard, st, changes, at, t)),
        Err(e) => Err(Response::err(
            ErrKind::Conflict,
            format!("change set rejected: {e}"),
        )),
    }
}

/// Followers reject client writes by construction: every state change on
/// a following instance arrives through replication replay, never
/// through the request edge. Returns the `READONLY` response to send
/// when this instance follows a primary, `None` otherwise.
fn refuse_follower_write(shared: &Shared) -> Option<Response> {
    shared.cfg.follow.as_ref().map(|primary| {
        Response::err(
            ErrKind::ReadOnly,
            format!("this instance follows {primary}; writes go to the primary"),
        )
    })
}

/// Refuse an `UPDATE`/`MUTATE` the shard cannot take: a fenced (deposed)
/// shard answers the typed `FENCED` error — the client must retry
/// against the promoted primary — and a follower-side shard that has not
/// itself been promoted answers `READONLY` as before. Reads are never
/// refused by either condition.
fn refuse_unwritable(shared: &Shared, db: &str, shard: &Shard) -> Option<Response> {
    if shard.is_fenced() {
        Metrics::bump(&shared.metrics.fenced_rejects);
        return Some(Response::err(
            ErrKind::Fenced,
            format!(
                "database {db:?} was deposed at epoch {}; writes go to the promoted primary",
                shard.fenced_epoch.load(Ordering::Relaxed)
            ),
        ));
    }
    if !shard.is_promoted() {
        if let Some(resp) = refuse_follower_write(shared) {
            return Some(resp);
        }
    }
    None
}

/// Apply one replicated history record to a local shard through the
/// **same commit path as a client write**: sequenced onto the group
/// commit pipeline when the shard is durable (so the record lands in the
/// follower's own WAL before it is visible), or committed in memory
/// otherwise. Called only from the follower replay thread.
pub(crate) fn apply_replicated(
    shared: &Arc<Shared>,
    db: &str,
    at: Timestamp,
    changes: &ChangeSet,
) -> Result<(), String> {
    let Some(shard) = shared.shard(db) else {
        return Err(format!("no local shard for replicated database {db:?}"));
    };
    if let Some(pipeline) = shard.pipeline.clone() {
        loop {
            let slot = ReplySlot::new();
            let staged = sequence_write(
                shared,
                &shard,
                &pipeline,
                db,
                Some(at),
                WriteKind::Update(changes.clone()),
                &slot,
            );
            match staged {
                None => {
                    // Staged; wait for the committer's ack so replication
                    // never outruns the follower's own durability.
                    return match slot.wait(shared.cfg.request_timeout) {
                        Some(Response::Ok(_)) | Some(Response::Rows(_)) => Ok(()),
                        Some(Response::Error { kind, message }) => {
                            Err(format!("{}: {message}", kind.code()))
                        }
                        None => Err("timed out waiting for a replicated record to commit".into()),
                    };
                }
                Some(Response::Error {
                    kind: ErrKind::Busy,
                    ..
                }) => {
                    // Queue full: replication has no client to push back
                    // on, so yield and retry until the committer drains.
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Some(Response::Error { kind, message }) => {
                    return Err(format!("{}: {message}", kind.code()))
                }
                Some(_) => return Ok(()),
            }
        }
    }
    let mut st = shard.state.write();
    match commit_in_memory(shared, &shard, db, &mut st, changes, at) {
        Ok(_) => Ok(()),
        Err(Response::Error { kind, message }) => Err(format!("{}: {message}", kind.code())),
        Err(_) => Err("replicated record rejected".into()),
    }
}

/// Install a replicated checkpoint image as the local shard for `db`,
/// replacing whatever was there (the primary's image is authoritative —
/// a diverged or stale local shard is exactly what the image heals).
/// Called only from the follower replay thread.
pub(crate) fn install_replicated(
    shared: &Arc<Shared>,
    db: &str,
    image: &[u8],
    last_at: Timestamp,
) -> Result<(), String> {
    let doem = crate::replication::stream::snapshot_from_bytes(image)?;
    install_replicated_doem(shared, db, doem, last_at)
}

/// [`install_replicated`] after decoding — also used directly by the
/// follower to materialize an empty database when the primary's tail
/// reaches back to the beginning (a records-only rebuild needs a shard
/// to apply into).
pub(crate) fn install_replicated_doem(
    shared: &Arc<Shared>,
    db: &str,
    doem: DoemDatabase,
    last_at: Timestamp,
) -> Result<(), String> {
    if crate::trace_enabled() {
        eprintln!(
            "TRACE install id={:?} db={db} last_at={} history={}",
            shared.cfg.follower_id,
            last_at.raw_minutes(),
            doem.timestamps().len(),
        );
    }
    let replica = current_snapshot(&doem);
    match install_shard(shared, db, doem, replica, last_at, false) {
        Ok(_) => {
            shared.bump_global();
            Ok(())
        }
        Err(InstallError::Io(e)) => Err(format!("snapshot install not durable: {e}")),
        // Unreachable with `must_be_new = false`, but harmless.
        Err(InstallError::Exists) => Err(format!("database {db:?} exists")),
    }
}

/// Evaluate a `QUERY … AS OF` at the version in force at `at`. The ring
/// version is *pinned* for the duration of the evaluation — retention GC
/// will not unlink it, so the chaos oracle's `version_snapshot` probe
/// sees the same version the read was served from. Below the retention
/// horizon (or before the base version) the ring answers `None` and the
/// read is evaluated over the paper's `O_t(D)` as a lazy view of the
/// full recorded history ([`chorel::run_chorel_at`]) — identical rows by
/// construction, since the replica is maintained in lockstep with that
/// history, at a cost set by what the query reaches. `AS OF` results
/// bypass the result cache: entries are keyed by shard generation, which
/// only ever names the *current* version.
fn query_as_of(
    shared: &Shared,
    shard: &Shard,
    at: Timestamp,
    query: &lorel::ast::Query,
) -> Response {
    let pinned = shard.versions.lock().pin(at);
    let t = Instant::now();
    let outcome = match &pinned {
        Some((_, replica)) => {
            Metrics::bump(&shared.metrics.as_of_ring);
            let doem = DoemDatabase::from_snapshot(replica);
            run_chorel_parsed(&doem, query, shared.cfg.strategy)
                .map(|result| canonical_row_strings(&doem, &result))
        }
        None => {
            Metrics::bump(&shared.metrics.as_of_view);
            let full = shard.state.read().doem.snapshot();
            chorel::run_chorel_at(&full, at, query, shared.cfg.strategy)
        }
    };
    shared.metrics.exec.record(t.elapsed());
    if let Some((version_lsn, _)) = pinned {
        shard.versions.lock().unpin(version_lsn);
    }
    match outcome {
        Ok(rows) => Response::Rows(rows),
        Err(e) => Response::err(ErrKind::Conflict, format!("query failed: {e}")),
    }
}

/// Execute one request. Queries resolve their shard, snapshot it, and
/// evaluate lock-free; durable writes sequence onto their shard's commit
/// pipeline and return `None` (the group committer delivers the ack once
/// the batch is durable); non-durable writes take only their own shard's
/// write lock; QSS/registry requests take the control lock.
pub(crate) fn execute(
    shared: &Arc<Shared>,
    req: Request,
    reply: &Arc<ReplySlot>,
) -> Option<Response> {
    Some(match req {
        Request::Ping => Response::Ok("pong".into()),
        Request::Quit => Response::Ok("bye".into()),
        Request::Stats => {
            let mut rows = shared.metrics.render();
            let mut shards: Vec<(String, Arc<Shard>)> = shared
                .shards
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect();
            shards.sort_by(|a, b| a.0.cmp(&b.0));
            let mut read_only = 0usize;
            let mut retained = 0usize;
            for (name, shard) in &shards {
                let (applied, ro) = {
                    let st = shard.state.read();
                    (st.last_at, st.read_only)
                };
                if ro {
                    read_only += 1;
                }
                retained += shard.versions.lock().len();
                let durable = if shard.pipeline.is_some() {
                    lsn_to_wire(Timestamp::from_raw_minutes(
                        shard.durable_lsn.load(Ordering::Relaxed),
                    ))
                } else {
                    "-".to_string()
                };
                let mut line = format!(
                    "lsn {name} applied={} durable={durable} epoch={}",
                    lsn_to_wire(applied),
                    shard.epoch()
                );
                if shared.cfg.follow.is_some() {
                    if let Some(p) = shared.repl.observed_primary_lsn(name) {
                        line.push_str(&format!(" primary={}", lsn_to_wire(p)));
                    }
                }
                rows.push(line);
            }
            rows.push(format!("gauge read_only_shards {read_only}"));
            rows.push(format!("gauge retained_lsns {retained}"));
            let qss = shared.control.read().qss.stats();
            rows.push(format!("counter qss_polls_elided {}", qss.polls_elided));
            rows.push(format!("counter qss_filters_anchored {}", qss.filters_anchored));
            rows.push(format!(
                "counter qss_filters_proven_empty {}",
                qss.filters_proven_empty
            ));
            rows.push(format!("counter qss_filters_full {}", qss.filters_full));
            Response::Rows(rows)
        }
        Request::Generation { db: None } => {
            Response::Ok(shared.global_gen.load(Ordering::Relaxed).to_string())
        }
        Request::Generation { db: Some(db) } => {
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            let g = shard.state.read().generation;
            Response::Ok(g.to_string())
        }
        Request::ListDbs => {
            let shards = shared.shards.read();
            let mut names: Vec<String> = shards.keys().cloned().collect();
            names.sort();
            Response::Rows(names)
        }
        Request::Create { db } => {
            if let Some(resp) = refuse_follower_write(shared) {
                return Some(resp);
            }
            let initial = OemDatabase::new(db.clone());
            let doem = DoemDatabase::from_snapshot(&initial);
            // Durable prep happens under the map lock inside
            // `install_shard`: the empty image is checkpointed so the
            // database exists across a crash from the moment CREATE is
            // acknowledged.
            match install_shard(shared, &db, doem, initial, Timestamp::NEG_INFINITY, true) {
                Ok(_) => {
                    let g = shared.bump_global();
                    Response::Ok(format!("created {db}; generation {g}"))
                }
                Err(InstallError::Exists) => {
                    Response::err(ErrKind::Conflict, format!("database {db:?} exists"))
                }
                Err(InstallError::Io(e)) => Response::err(
                    ErrKind::Io,
                    format!("create not durable ({e}); nothing installed"),
                ),
            }
        }
        Request::Save { db } => {
            let Some(store) = &shared.store else {
                return Some(Response::err(ErrKind::Io, "no store configured"));
            };
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            // Snapshot under the read lock, write the image outside it.
            let doem = {
                let st = shard.state.read();
                st.doem.snapshot()
            };
            match store.save_doem(&db, &doem) {
                Ok(()) => Response::Ok(format!("saved {db}")),
                Err(e) => Response::err(ErrKind::Io, format!("save failed: {e}")),
            }
        }
        Request::Load { db } => {
            if let Some(resp) = refuse_follower_write(shared) {
                return Some(resp);
            }
            let Some(store) = &shared.store else {
                return Some(Response::err(ErrKind::Io, "no store configured"));
            };
            match store.load_doem(&db) {
                Ok(doem) => {
                    let replica = current_snapshot(&doem);
                    let last_at = doem
                        .timestamps()
                        .last()
                        .copied()
                        .unwrap_or(Timestamp::NEG_INFINITY);
                    match install_shard(shared, &db, doem, replica, last_at, false) {
                        Ok(_) => {
                            let g = shared.bump_global();
                            Response::Ok(format!("loaded {db}; generation {g}"))
                        }
                        Err(InstallError::Exists) => Response::err(
                            ErrKind::Conflict,
                            format!("database {db:?} exists"),
                        ),
                        Err(InstallError::Io(e)) => Response::err(
                            ErrKind::Io,
                            format!("load not durable ({e}); nothing installed"),
                        ),
                    }
                }
                Err(e) => Response::err(ErrKind::NotFound, format!("load failed: {e}")),
            }
        }
        Request::Query {
            db,
            query,
            key,
            as_of,
        } => {
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            if let Some(at) = as_of {
                return Some(query_as_of(shared, &shard, at, &query));
            }
            // Snapshot: hold the shard lock only for an Arc clone.
            let (doem, generation) = {
                let st = shard.state.read();
                (st.doem.snapshot(), st.generation)
            };
            cached_query(shared, &shard.cache, db, key, generation, &doem, &query)
        }
        Request::SubQuery { id, query, key } => {
            let ck = {
                let ctl = shared.control.read();
                if ctl.qss.doem_of(&id).is_none() {
                    return Some(Response::err(
                        ErrKind::NotFound,
                        format!("no DOEM for subscription {id:?} (not yet polled?)"),
                    ));
                }
                CacheKey {
                    scope: format!("sub:{id}"),
                    canonical: key,
                    generation: ctl.generation,
                }
            };
            if let Some(entry) = shared.sub_cache.get(&ck) {
                Metrics::bump(&shared.metrics.cache_hits);
                return Some(Response::Rows(entry.strings.clone()));
            }
            // Miss: materialize a snapshot (subscription DOEMs are small —
            // they hold poll results, not whole databases) and evaluate
            // outside the control lock.
            let doem = {
                let ctl = shared.control.read();
                match ctl.qss.doem_of(&id) {
                    Some(d) => d.clone(),
                    // Unsubscribed between the two lock acquisitions.
                    None => return Some(not_found("subscription", &id)),
                }
            };
            Metrics::bump(&shared.metrics.cache_misses);
            let t = Instant::now();
            let outcome = run_chorel_parsed(&doem, &query, shared.cfg.strategy);
            shared.metrics.exec.record(t.elapsed());
            match outcome {
                Ok(result) => {
                    let rows = canonical_row_strings(&doem, &result);
                    // Subscription DOEMs change through polls, not the
                    // publish stage, so these entries carry no maintenance
                    // state; the epoch-gated tick keeps them alive across
                    // quiet polls instead.
                    shared.sub_cache.insert(
                        ck,
                        Arc::new(CacheEntry {
                            strings: rows.clone(),
                            maintain: None,
                        }),
                    );
                    Response::Rows(rows)
                }
                Err(e) => Response::err(ErrKind::Conflict, format!("query failed: {e}")),
            }
        }
        Request::Update { db, at, changes } => {
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            if let Some(resp) = refuse_unwritable(shared, &db, &shard) {
                return Some(resp);
            }
            if let Some(pipeline) = shard.pipeline.clone() {
                return sequence_write(
                    shared,
                    &shard,
                    &pipeline,
                    &db,
                    at,
                    WriteKind::Update(changes),
                    reply,
                );
            }
            let mut st = shard.state.write();
            let at = at.unwrap_or_else(|| resolve_now(shared, st.last_at));
            match commit_in_memory(shared, &shard, &db, &mut st, &changes, at) {
                Ok(g) => {
                    Response::Ok(format!("applied {} ops at {at}; generation {g}", changes.len()))
                }
                Err(resp) => resp,
            }
        }
        Request::Mutate { db, at, stmt } => {
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            if let Some(resp) = refuse_unwritable(shared, &db, &shard) {
                return Some(resp);
            }
            if let Some(pipeline) = shard.pipeline.clone() {
                // The statement compiles against the sequencing head
                // inside `sequence_write` — the freshest replica, ahead
                // of the published state by the staged writes.
                return sequence_write(
                    shared,
                    &shard,
                    &pipeline,
                    &db,
                    at,
                    WriteKind::Mutate(stmt),
                    reply,
                );
            }
            let mut st = shard.state.write();
            let at = at.unwrap_or_else(|| resolve_now(shared, st.last_at));
            let t = Instant::now();
            let compiled = match run_update(&st.replica, &stmt) {
                Ok(c) => c,
                Err(e) => {
                    shared.metrics.exec.record(t.elapsed());
                    return Some(Response::err(
                        ErrKind::Conflict,
                        format!("update rejected: {e}"),
                    ));
                }
            };
            match commit_in_memory(shared, &shard, &db, &mut st, &compiled.changes, at) {
                Ok(g) => Response::Ok(format!(
                    "applied {} ops ({} created) at {at}; generation {g}",
                    compiled.changes.len(),
                    compiled.created.len()
                )),
                Err(resp) => resp,
            }
        }
        Request::Define { program } => {
            let mut ctl = shared.control.write();
            match ctl.registry.load(&program) {
                Ok(_) => Response::Ok(format!(
                    "defined; registry has {} queries",
                    ctl.registry.names().len()
                )),
                Err(e) => Response::err(ErrKind::Syntax, e.to_string()),
            }
        }
        Request::Subscribe {
            id,
            polling,
            filter,
            freq,
        } => {
            let mut ctl = shared.control.write();
            if ctl.qss.subscription_ids().iter().any(|s| s == &id) {
                return Some(Response::err(
                    ErrKind::Conflict,
                    format!("subscription {id:?} exists"),
                ));
            }
            let sub =
                match Subscription::from_registry(id.clone(), freq, &ctl.registry, &polling, &filter)
                {
                    Ok(sub) => sub,
                    Err(e) => return Some(Response::err(ErrKind::NotFound, e.to_string())),
                };
            let clock = ctl.clock;
            ctl.qss.subscribe(sub, clock);
            ctl.generation += 1;
            shared.sub_cache.retain_generation(ctl.generation);
            let g = shared.bump_global();
            Response::Ok(format!("subscribed {id} at {clock}; generation {g}"))
        }
        Request::Unsubscribe { id } => {
            let mut ctl = shared.control.write();
            if !ctl.qss.subscription_ids().iter().any(|s| s == &id) {
                return Some(not_found("subscription", &id));
            }
            ctl.qss.unsubscribe(&id);
            ctl.generation += 1;
            shared.sub_cache.retain_generation(ctl.generation);
            let g = shared.bump_global();
            Response::Ok(format!("unsubscribed {id}; generation {g}"))
        }
        Request::Tick { until } => {
            let mut ctl = shared.control.write();
            if until <= ctl.clock {
                return Some(Response::Ok(format!("clock already at {}", ctl.clock)));
            }
            let t = Instant::now();
            let epoch = ctl.qss.change_epoch();
            let outcome = ctl.qss.run_until(until);
            shared.metrics.exec.record(t.elapsed());
            match outcome {
                Ok(polls) => {
                    ctl.clock = until;
                    shared
                        .metrics
                        .qss_polls
                        .fetch_add(polls as u64, Ordering::Relaxed);
                    // Bump the `sub:` generation only when a poll folded a
                    // change set; ticks whose polls all came back empty
                    // must not thrash freshly cached subscription answers.
                    let g = if ctl.qss.change_epoch() != epoch {
                        ctl.generation += 1;
                        shared.sub_cache.retain_generation(ctl.generation);
                        shared.bump_global()
                    } else {
                        shared.global_gen.load(Ordering::Relaxed)
                    };
                    Response::Ok(format!("clock {until}; {polls} polls; generation {g}"))
                }
                Err(e) => Response::err(ErrKind::Conflict, format!("qss poll failed: {e}")),
            }
        }
        Request::Lsn { db } => {
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            let applied = shard.state.read().last_at;
            let durable = if shard.pipeline.is_some() {
                lsn_to_wire(Timestamp::from_raw_minutes(
                    shard.durable_lsn.load(Ordering::Relaxed),
                ))
            } else {
                // Non-durable shards have no log; nothing is durable.
                "-".to_string()
            };
            Response::Ok(format!(
                "applied {} durable {durable} epoch {}",
                lsn_to_wire(applied),
                shard.epoch()
            ))
        }
        Request::Replicate { db, from, peer } => {
            serve_replicate(shared, &db, from, peer.as_deref())
        }
        Request::Promote { db } => {
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            if shard.is_fenced() {
                return Some(Response::err(
                    ErrKind::Fenced,
                    format!(
                        "database {db:?} was deposed at epoch {}; promote the newer lineage",
                        shard.fenced_epoch.load(Ordering::Relaxed)
                    ),
                ));
            }
            let epoch = shard.promote();
            Metrics::bump(&shared.metrics.promotions);
            // Best effort: tell the old primary it is deposed, so its
            // clients get the typed `FENCED` error instead of writing
            // into a lineage nobody replicates anymore. A dead or
            // partitioned primary can't be reached — its stale batches
            // are rejected by epoch comparison when it comes back.
            if let Some(primary) = shared.cfg.follow.clone() {
                let _ = fence_peer(&primary, &db, epoch);
            }
            let applied = shard.state.read().last_at;
            Response::Ok(format!(
                "promoted {db}; epoch {epoch} at {}",
                lsn_to_wire(applied)
            ))
        }
        Request::Fence { db, epoch } => {
            let Some(shard) = shared.shard(&db) else {
                return Some(not_found("database", &db));
            };
            if shard.fence(epoch) {
                Response::Ok(format!("fenced {db} at epoch {epoch}"))
            } else {
                Response::err(
                    ErrKind::Conflict,
                    format!(
                        "stale fence: epoch {epoch} is not newer than this lineage \
                         (epoch {}, fenced at {})",
                        shard.epoch(),
                        shard.fenced_epoch.load(Ordering::Relaxed)
                    ),
                )
            }
        }
        Request::Notes { id } => {
            let ctl = shared.control.read();
            if id != "*" && !ctl.qss.subscription_ids().iter().any(|s| s == &id) {
                return Some(not_found("subscription", &id));
            }
            let rows = ctl
                .qss
                .notifications()
                .iter()
                .filter(|n| id == "*" || n.subscription == id)
                .map(|n| format!("{} at {}: {} rows", n.subscription, n.at, n.rows()))
                .collect();
            Response::Rows(rows)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::guide::{guide_figure2, history_example_2_3};

    fn guide_service(cfg: ServeConfig) -> Service {
        let svc = Service::start(cfg).unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        svc
    }

    #[test]
    fn ping_stats_gen_dbs() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        assert_eq!(c.request_line("PING"), Response::Ok("pong".into()));
        assert_eq!(c.request_line("GEN"), Response::Ok("2".into()));
        // Per-shard generation: fresh shard, no writes yet.
        assert_eq!(c.request_line("GEN guide"), Response::Ok("1".into()));
        assert!(c.request_line("GEN nosuch").is_error());
        assert_eq!(
            c.request_line("DBS"),
            Response::Rows(vec!["guide".into()])
        );
        let Response::Rows(stats) = c.request_line("STATS") else {
            panic!("STATS must return rows")
        };
        assert!(stats.iter().any(|l| l.starts_with("counter requests ")));
        assert!(stats.iter().any(|l| l == "gauge read_only_shards 0"));
        assert!(stats.iter().any(|l| l.starts_with("counter qss_filters_proven_empty ")));
        svc.shutdown();
    }

    #[test]
    fn queries_hit_the_cache_until_a_write() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let q = "QUERY guide select guide.restaurant";
        let first = c.request_line(q);
        let second = c.request_line(q);
        assert_eq!(first, second);
        assert!(matches!(first, Response::Rows(ref r) if !r.is_empty()));
        let hits = svc.metrics().cache_hits.load(Ordering::Relaxed);
        assert_eq!(hits, 1, "second identical query must hit the cache");

        // A write moves the generation: same text, new rows (served by
        // the maintained entry — `writes_maintain_cached_monotonic_queries`
        // pins down the how).
        let resp =
            c.request_line("UPDATE guide AT 1Mar97 9:00am ; {creNode(n95, \"Via Mare\"), addArc(n4, restaurant, n95)}");
        assert!(!resp.is_error(), "{resp:?}");
        let third = c.request_line(q);
        let Response::Rows(rows3) = &third else {
            panic!("query after update failed: {third:?}")
        };
        let Response::Rows(rows1) = &first else { unreachable!() };
        assert_eq!(rows3.len(), rows1.len() + 1);
        // The write bumped both the shard and the global counters.
        assert_eq!(c.request_line("GEN guide"), Response::Ok("2".into()));
        assert_eq!(c.request_line("GEN"), Response::Ok("3".into()));
        svc.shutdown();
    }

    /// The publish stage maintains cached monotonic queries through a
    /// write (DESIGN.md §11): the post-write query is a cache *hit*, and
    /// its rows are byte-identical to a fresh evaluation.
    #[test]
    fn writes_maintain_cached_monotonic_queries() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let q = "QUERY guide select guide.restaurant";
        let _ = c.request_line(q); // prime (one miss)
        let w = "UPDATE guide AT 1Mar97 9:00am ; {creNode(n95, \"Via Mare\"), addArc(n4, restaurant, n95)}";
        assert!(!c.request_line(w).is_error());
        assert_eq!(svc.metrics().cache_maintained.load(Ordering::Relaxed), 1);
        assert_eq!(svc.metrics().cache_fallback.load(Ordering::Relaxed), 0);

        let misses_before = svc.metrics().cache_misses.load(Ordering::Relaxed);
        let maintained = c.request_line(q);
        assert_eq!(
            svc.metrics().cache_misses.load(Ordering::Relaxed),
            misses_before,
            "the maintained entry must answer the post-write query"
        );

        // Byte-identity: a second service replays the same write with a
        // cold cache, so its answer is a fresh evaluation.
        let fresh_svc = guide_service(ServeConfig::default());
        let fc = fresh_svc.client();
        assert!(!fc.request_line(w).is_error());
        assert_eq!(maintained, fc.request_line(q));
        fresh_svc.shutdown();
        svc.shutdown();
    }

    /// A write that adds nothing to a cached result re-keys the entry: the
    /// very same `Arc` answers at the new generation — no row cloned, no
    /// string rendered (`cache_carried`).
    #[test]
    fn writes_that_miss_a_cached_query_carry_its_entry_untouched() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let q = "select guide.restaurant.name";
        let _ = c.request_line(&format!("QUERY guide {q}")); // prime
        let shard = c.shared.shard("guide").unwrap();
        let key = |generation| CacheKey {
            scope: "guide".into(),
            canonical: lorel::canonical_text(q).unwrap(),
            generation,
        };
        let before = shard.cache.get(&key(1)).expect("primed at generation 1");
        // A comment on Janta (n6): no `restaurant` or `name` arc anywhere.
        let w = "UPDATE guide AT 1Mar97 9:00am ; {creNode(n95, \"crowded\"), addArc(n6, comment, n95)}";
        assert!(!c.request_line(w).is_error());
        let after = shard.cache.get(&key(2)).expect("carried to generation 2");
        assert!(Arc::ptr_eq(&before, &after));
        assert!(shard.cache.get(&key(1)).is_none());
        let m = svc.metrics();
        assert_eq!(m.cache_carried.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_maintained.load(Ordering::Relaxed), 1);
        assert_eq!(m.publish.count(), 1);

        // A write that does add a row replaces the entry.
        let w = "UPDATE guide AT 2Mar97 9:00am ; {creNode(n96, \"Janta II\"), addArc(n6, name, n96)}";
        assert!(!c.request_line(w).is_error());
        let grown = shard.cache.get(&key(3)).expect("maintained to generation 3");
        assert!(!Arc::ptr_eq(&after, &grown));
        assert_eq!(grown.strings.len(), after.strings.len() + 1);
        {
            let st = shard.state.read();
            let query = lorel::parse_query(q).unwrap();
            let fresh = run_chorel_parsed(&st.doem, &query, Strategy::Direct).unwrap();
            assert_eq!(grown.strings, canonical_row_strings(&st.doem, &fresh));
        }
        assert_eq!(m.cache_carried.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_maintained.load(Ordering::Relaxed), 2);
        svc.shutdown();
    }

    /// A removal pushes the cached plain-arc query out of the monotonic
    /// fragment: the entry is dropped (counted in `cache_fallback`) and
    /// the next read re-evaluates fully — never a stale answer.
    #[test]
    fn removals_fall_back_to_full_reevaluation() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let q = "QUERY guide select guide.restaurant";
        let Response::Rows(before) = c.request_line(q) else {
            panic!("prime failed")
        };
        // Janta loses its root arc (n6 is the Janta object).
        let resp = c.request_line("UPDATE guide AT 1Mar97 9:00am ; {remArc(n4, restaurant, n6)}");
        assert!(!resp.is_error(), "{resp:?}");
        assert_eq!(svc.metrics().cache_maintained.load(Ordering::Relaxed), 0);
        assert_eq!(svc.metrics().cache_fallback.load(Ordering::Relaxed), 1);

        let misses_before = svc.metrics().cache_misses.load(Ordering::Relaxed);
        let Response::Rows(after) = c.request_line(q) else {
            panic!("query after removal failed")
        };
        assert_eq!(
            svc.metrics().cache_misses.load(Ordering::Relaxed),
            misses_before + 1,
            "a dropped entry must force a fresh evaluation"
        );
        assert_eq!(after.len(), before.len() - 1);
        svc.shutdown();
    }

    #[test]
    fn whitespace_variants_share_one_cache_entry() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let a = c.request_line("QUERY guide select guide.restaurant");
        let b = c.request_line("QUERY guide select   guide . restaurant");
        assert_eq!(a, b);
        assert_eq!(svc.metrics().cache_hits.load(Ordering::Relaxed), 1);
        svc.shutdown();
    }

    #[test]
    fn writes_to_distinct_databases_have_distinct_generations() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        assert!(!c.request_line("CREATE a").is_error());
        assert!(!c.request_line("CREATE b").is_error());
        for i in 0..3 {
            let resp = c.request_line(&format!(
                "UPDATE a AT 1Mar97 9:0{i}am ; {{creNode(n{}, {i}), addArc(n1, x, n{})}}",
                10 + i,
                10 + i
            ));
            assert!(!resp.is_error(), "{resp:?}");
        }
        // Shard generations move independently: a took 3 writes, b none.
        assert_eq!(c.request_line("GEN a"), Response::Ok("4".into()));
        assert_eq!(c.request_line("GEN b"), Response::Ok("1".into()));
        assert_eq!(c.request_line("GEN guide"), Response::Ok("1".into()));
        svc.shutdown();
    }

    #[test]
    fn chorel_annotations_and_errors() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let resp = c.request_line("QUERY guide select guide.<add at T>restaurant where T > 1Jan97");
        assert!(matches!(resp, Response::Rows(_)), "{resp:?}");
        let resp = c.request_line("QUERY nosuch select x.y");
        assert!(matches!(resp, Response::Error { kind: ErrKind::NotFound, .. }), "{resp:?}");
        let resp = c.request_line("QUERY guide selec x.y");
        assert!(matches!(resp, Response::Error { kind: ErrKind::Syntax, .. }), "{resp:?}");
        svc.shutdown();
    }

    #[test]
    fn mutate_compiles_against_live_snapshot() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let resp = c.request_line(
            "MUTATE guide AT 5Mar97 1:00pm ; update X.price := 99 from guide.restaurant X",
        );
        // Whichever update-grammar shape the seed supports, the request
        // must not be silently dropped: either applied or a typed error.
        match resp {
            Response::Ok(msg) => assert!(msg.contains("generation")),
            Response::Error { kind, .. } => {
                assert!(matches!(kind, ErrKind::Conflict | ErrKind::Syntax))
            }
            other => panic!("unexpected: {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn qss_subscription_lifecycle_example_6_1() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        let resp = c.request_line(
            "DEFINE polling query Restaurants as select guide.restaurant \
             define filter query NewRestaurants as \
             select Restaurants.restaurant<cre at T> where T > t[-1]",
        );
        assert_eq!(resp, Response::Ok("defined; registry has 2 queries".into()));
        let resp = c.request_line(
            "SUBSCRIBE S1 POLL Restaurants FILTER NewRestaurants FREQ every night at 11:30pm",
        );
        assert!(!resp.is_error(), "{resp:?}");
        let resp = c.request_line("TICK 1Jan97 11:30pm");
        assert!(!resp.is_error(), "{resp:?}");
        // Example 6.1: two notifications (initial results + Hakata).
        let Response::Rows(notes) = c.request_line("NOTES S1") else {
            panic!("NOTES must return rows")
        };
        assert_eq!(notes.len(), 2, "{notes:?}");
        // The subscription's DOEM is queryable.
        let resp = c.request_line("SUBQUERY S1 select Restaurants.restaurant");
        assert!(matches!(resp, Response::Rows(ref r) if !r.is_empty()), "{resp:?}");
        // And cleanly removable.
        assert!(!c.request_line("UNSUBSCRIBE S1").is_error());
        assert!(c.request_line("NOTES S1").is_error());
        svc.shutdown();
    }

    #[test]
    fn qss_ticks_do_not_invalidate_database_caches() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        c.request_line(
            "DEFINE polling query Restaurants as select guide.restaurant \
             define filter query NewRestaurants as \
             select Restaurants.restaurant<cre at T> where T > t[-1]",
        );
        c.request_line(
            "SUBSCRIBE S1 POLL Restaurants FILTER NewRestaurants FREQ every night at 11:30pm",
        );
        let q = "QUERY guide select guide.restaurant";
        let _ = c.request_line(q); // prime the guide shard cache
        assert!(!c.request_line("TICK 1Jan97 11:30pm").is_error());
        let hits_before = svc.metrics().cache_hits.load(Ordering::Relaxed);
        let _ = c.request_line(q);
        assert_eq!(
            svc.metrics().cache_hits.load(Ordering::Relaxed),
            hits_before + 1,
            "a QSS poll must not evict database query results"
        );
        svc.shutdown();
    }

    /// A tick whose polls all come back empty must not thrash freshly
    /// cached subscription answers: the anchored window is provably empty
    /// (zero filter evaluations), the `sub:` generation stays put (zero
    /// cache writes), and the primed entry keeps answering.
    #[test]
    fn empty_delta_ticks_keep_subscription_caches_warm() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        c.request_line(
            "DEFINE polling query Restaurants as select guide.restaurant \
             define filter query NewRestaurants as \
             select Restaurants.restaurant<cre at T> where T > t[-1]",
        );
        c.request_line(
            "SUBSCRIBE S1 POLL Restaurants FILTER NewRestaurants FREQ every night at 11:30pm",
        );
        assert!(!c.request_line("TICK 1Jan97 11:30pm").is_error());
        let sq = "SUBQUERY S1 select Restaurants.restaurant";
        let first = c.request_line(sq); // prime the sub: cache
        assert!(matches!(first, Response::Rows(ref r) if !r.is_empty()), "{first:?}");

        let stats_before = svc.shared.control.read().qss.stats();
        let entries_before = svc.shared.sub_cache.len();
        // 2Jan97 was quiet in the paper's timeline: one poll, empty diff.
        assert!(!c.request_line("TICK 2Jan97 11:30pm").is_error());
        let stats = svc.shared.control.read().qss.stats();
        assert_eq!(stats.filters_full, stats_before.filters_full);
        assert_eq!(stats.filters_anchored, stats_before.filters_anchored);
        assert_eq!(
            stats.filters_proven_empty,
            stats_before.filters_proven_empty + 1,
            "the quiet poll's filter must be proven empty, not evaluated"
        );
        assert_eq!(
            svc.shared.sub_cache.len(),
            entries_before,
            "an empty-delta tick must not write or drop cache entries"
        );

        // The primed entry still answers — a hit, not a recomputation.
        let hits_before = svc.metrics().cache_hits.load(Ordering::Relaxed);
        assert_eq!(c.request_line(sq), first);
        assert_eq!(
            svc.metrics().cache_hits.load(Ordering::Relaxed),
            hits_before + 1
        );
        svc.shutdown();
    }

    #[test]
    fn admission_control_rejects_when_queue_full() {
        // Zero workers is not allowed, so wedge the single worker with a
        // write while the queue (depth 1) fills up.
        let svc = guide_service(ServeConfig {
            workers: 1,
            queue_depth: 1,
            request_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        });
        let c = svc.client();
        // Saturate: submit from threads that will block on the reply.
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(thread::spawn(move || {
                c.request_line("QUERY guide select guide.restaurant")
            }));
        }
        let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let busy = responses
            .iter()
            .filter(|r| matches!(r, Response::Error { kind: ErrKind::Busy, .. }))
            .count();
        let ok = responses.iter().filter(|r| !r.is_error()).count();
        assert!(ok >= 1, "at least one query must get through: {responses:?}");
        // With 8 submitters, 1 worker and queue depth 1, rejections are
        // not guaranteed on any single run — but the busy counter must
        // agree with what we observed.
        assert_eq!(
            svc.metrics().busy_rejected.load(Ordering::Relaxed),
            busy as u64
        );
        svc.shutdown();
    }

    #[test]
    fn save_and_load_round_trip_through_store() {
        let dir = std::env::temp_dir().join(format!(
            "serve-store-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = guide_service(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let c = svc.client();
        let rows_before = c.query("guide", "select guide.restaurant").unwrap();
        assert!(!c.request_line("SAVE guide").is_error());
        svc.shutdown();

        let svc2 = Service::start(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let c2 = svc2.client();
        assert!(!c2.request_line("LOAD guide").is_error());
        let rows_after = c2.query("guide", "select guide.restaurant").unwrap();
        assert_eq!(rows_before, rows_after);
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_already_queued_writes() {
        let dir = std::env::temp_dir().join(format!(
            "serve-drain-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_depth: 64,
            wal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let c = svc.client();
        assert!(!c.request_line("CREATE d").is_error());
        // Queue a burst of writes without waiting for any reply, then
        // shut down: every admitted write must still execute and become
        // durable.
        let mut pendings = Vec::new();
        for i in 0..20 {
            let (_, p) = c.begin_line(&format!(
                "UPDATE d AT 2Jan97 {}:{:02}pm ; {{creNode(n{}, {i}), addArc(n1, item, n{})}}",
                1 + i / 60,
                i % 60,
                100 + i,
                100 + i
            ));
            pendings.push(p);
        }
        svc.shutdown();
        drop(pendings);

        let svc2 = Service::start(ServeConfig {
            wal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let rows = svc2.client().query("d", "select d.item").unwrap();
        assert_eq!(rows.len(), 20, "a drained shutdown must lose nothing");
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
