//! Service configuration: the tuning knobs, the injectable wall clock,
//! and the QSS driving options.

use crate::faults::Faults;
use oem::Timestamp;
use qss::Source;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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
    /// How long a request may take, from submission to reply, before it is
    /// answered `TIMEOUT` (by the waiting session, or — for a pipelined
    /// request — by its session's writer).
    pub request_timeout: Duration,
    /// Result-cache capacity in entries, per database shard (0 disables
    /// caching).
    pub cache_capacity: usize,
    /// Initial simulated time (QSS subscriptions start here).
    pub epoch: Timestamp,
    /// Drive the embedded QSS from a background thread.
    pub autotick: Option<AutoTick>,
    /// Directory for SAVE/LOAD persistence (no store when `None`).
    pub store_dir: Option<PathBuf>,
    /// Durability root: per-database write-ahead logs and snapshot
    /// checkpoints live here, and [`crate::Service::start`] recovers every
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
            epoch: Timestamp::from_ymd(1996, 12, 30),
            autotick: None,
            store_dir: None,
            wal_dir: None,
            checkpoint_every: 64,
            group_commit_max: 8,
            group_commit_window_us: 0,
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
