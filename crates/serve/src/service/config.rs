//! Service configuration: the tuning knobs and the injectable wall clock.

use crate::faults::Faults;
use oem::Timestamp;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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
    /// Directory for SAVE/LOAD persistence (no store when `None`).
    pub store_dir: Option<PathBuf>,
    /// Durability root: per-database write-ahead logs and snapshot
    /// checkpoints live here, and [`crate::Service::start`] recovers every
    /// database it finds in it. `None` (the default) keeps the service
    /// purely in-memory. Use a directory dedicated to the WAL — `SAVE`
    /// images from `store_dir` share the same file format.
    pub wal_dir: Option<PathBuf>,
    /// Start a checkpoint of a database once at least this many WAL
    /// appends have gone into its active log segment and none of its
    /// checkpoints is in flight: the committer seals the segment and a
    /// checkpoint thread saves the image, then deletes the sealed
    /// segment. Writes never wait for it, and under load images coalesce
    /// instead of queueing. 0 disables automatic checkpoints — the log
    /// grows until shutdown. Ignored without `wal_dir`.
    pub checkpoint_every: u64,
    /// Most records a group committer persists per `write`+`fsync` batch
    /// (min 1). `1` restores one-fsync-per-write; larger values let
    /// concurrent writers to one shard share a single disk round-trip.
    /// The committer never waits for riders: a batch is whatever
    /// accumulated while the previous one was persisting. Ignored without
    /// `wal_dir`.
    pub group_commit_max: usize,
    /// Follow a primary at this wire address: the instance becomes a
    /// read-only **follower**, replaying the primary's change-op log
    /// into its shards and refusing client writes with `READONLY`.
    pub follow: Option<String>,
    /// How long a caught-up follower sleeps between poll rounds.
    pub follow_poll: Duration,
    /// Fault-injection plan for the durability pipeline (tests; disabled
    /// by default and free when disabled).
    pub faults: Faults,
    /// The wall clock `AT now` writes read. Injectable so tests can step
    /// it backwards; the allocator clamps to `last LSN + 1` regardless.
    pub clock: WallClock,
    /// The one in-memory history bound: the log-tail records each shard
    /// retains for followers, past checkpoints (min 1). A follower
    /// further behind than this gets a checkpoint image instead of
    /// records. `QUERY … AS OF` does not depend on it — every point of
    /// the recorded history is read from the DOEM graph itself.
    pub retain_lsns: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            cache_capacity: 256,
            store_dir: None,
            wal_dir: None,
            checkpoint_every: 64,
            group_commit_max: 8,
            follow: None,
            follow_poll: Duration::from_millis(100),
            faults: Faults::disabled(),
            clock: WallClock::system(),
            retain_lsns: 1024,
        }
    }
}
