//! Durable shard lifecycle: recovering databases at startup, checkpointing
//! them from their committers, and installing or replacing a shard under
//! the registry lock.

use super::pipeline::{join_committer, request_stop, start_committer, StopKind};
use super::shard::Shard;
use super::{ServeConfig, Shared};
use crate::faults::{FaultPoint, Faults};
use crate::metrics::Metrics;
use crate::protocol::ErrKind;
use crate::wal::{self, DbWal};
use doem::{apply_set, current_snapshot, DoemDatabase};
use oem::{OemDatabase, Timestamp};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The durability half of the shared state: the checkpoint store (a
/// [`lore::LoreStore`] rooted at `wal_dir`).
pub(crate) struct Durability {
    pub(crate) store: lore::LoreStore,
}

impl Durability {
    /// The WAL file beside the checkpoint image of database `name`.
    fn wal_path(&self, name: &str) -> PathBuf {
        self.store.path_of(name).with_extension("wal")
    }

    /// Write the checkpoint image of `name` behind one `Checkpoint`
    /// failpoint check. The caller counts `checkpoints` once its whole
    /// step has succeeded.
    fn save_checkpoint(
        &self,
        shared: &Shared,
        name: &str,
        doem: &DoemDatabase,
    ) -> std::io::Result<()> {
        if shared.cfg.faults.check(FaultPoint::Checkpoint).is_some() {
            Metrics::bump(&shared.metrics.faults_injected);
            return Err(Faults::injected_error(FaultPoint::Checkpoint));
        }
        self.store.save_doem(name, doem).map_err(io_error)
    }
}

/// A store/codec error as the `io::Error` the startup and install paths
/// speak.
pub(crate) fn io_error(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// The highest change timestamp recorded in `doem` — the LSN a shard
/// built from it starts at (`NEG_INFINITY` for an empty history).
pub(crate) fn last_lsn(doem: &DoemDatabase) -> Timestamp {
    doem.timestamps()
        .last()
        .copied()
        .unwrap_or(Timestamp::NEG_INFINITY)
}

/// Recover every database found under the WAL directory: load its
/// checkpoint, replay the usable log tail through [`apply_set`], truncate
/// anything past the durable prefix, and install the shard.
pub(crate) fn recover_all(
    d: &Durability,
    cfg: &ServeConfig,
    metrics: &Metrics,
    shards: &mut HashMap<String, Arc<Shard>>,
) -> std::io::Result<()> {
    for stem in d.store.names().map_err(io_error)? {
        let doem = d
            .store
            .load_doem(&stem)
            .map_err(|e| io_error(format!("checkpoint {stem:?}: {e}")))?;
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
    let ckpt_max = last_lsn(&checkpoint);
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
        good_len = replayed.ends[i];
        epoch = epoch.max(replayed.epochs[i]);
    }
    Ok(Recovered {
        doem,
        replica,
        last_at,
        applied,
        good_len,
        torn: replayed.torn || rejected,
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
pub(crate) fn checkpoint_published(
    shared: &Shared,
    name: &str,
    shard: &Shard,
    wal: &mut DbWal,
) -> std::io::Result<()> {
    let Some(d) = &shared.durable else {
        return Ok(());
    };
    let doem = shard.state.read().doem.snapshot();
    d.save_checkpoint(shared, name, &doem)?;
    wal.truncate()?;
    Metrics::bump(&shared.metrics.checkpoints);
    Ok(())
}

/// Install (or replace) the shard for `doem` under the map write lock.
/// With durability on, the image is checkpointed and its log reset to
/// empty *under that lock* before the shard becomes visible, so a racing
/// `CREATE`/`LOAD` of the same name cannot interleave with the prep and
/// an acknowledged install exists on disk. A previous incarnation is
/// stopped and its committer joined **before** the durable files are
/// reset, so its file handle can never scribble on the new incarnation's
/// log. The new committer starts after the map lock drops. Returns the
/// new global generation.
pub(crate) fn install_shard(
    shared: &Arc<Shared>,
    name: &str,
    doem: DoemDatabase,
    last_at: Timestamp,
    must_be_new: bool,
) -> Result<u64, InstallError> {
    let replica = current_snapshot(&doem);
    let mut shards = shared.shards.write();
    if let Some(old) = shards.get(name) {
        if must_be_new {
            return Err(InstallError::Exists);
        }
        // Drain, no checkpoint: the files are about to be reset.
        request_stop(old, StopKind::Abandon);
        join_committer(old);
    }
    let wal = match &shared.durable {
        Some(d) => {
            d.save_checkpoint(shared, name, &doem)
                .map_err(InstallError::Io)?;
            Metrics::bump(&shared.metrics.checkpoints);
            Some(DbWal::open(d.wal_path(name), 0).map_err(InstallError::Io)?)
        }
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
    Ok(shared.bump_global())
}

/// Why [`install_shard`] refused.
pub(crate) enum InstallError {
    /// `must_be_new` and a same-named shard already exists.
    Exists,
    /// Durable prep or committer spawn failed; nothing was installed.
    Io(std::io::Error),
}

impl InstallError {
    /// The error `CREATE`, `LOAD`, [`crate::Service::install`] and a
    /// replicated snapshot install all report: `what` names the
    /// operation that did not happen.
    pub(crate) fn describe(&self, what: &str, db: &str) -> (ErrKind, String) {
        match self {
            InstallError::Exists => (ErrKind::Conflict, format!("database {db:?} exists")),
            InstallError::Io(e) => (
                ErrKind::Io,
                format!("{what} not durable ({e}); nothing installed"),
            ),
        }
    }
}
