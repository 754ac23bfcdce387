//! Durable shard lifecycle: recovering databases at startup, saving
//! checkpoint images, and installing or replacing a shard with its disk
//! I/O outside the registry lock.

use super::pipeline::{join_committer, request_stop, start_committer, StopKind};
use super::shard::Shard;
use super::{ServeConfig, Shared};
use crate::faults::{FaultMode, FaultPoint, Faults};
use crate::lock_order::{Token, Unlocked};
use crate::metrics::Metrics;
use crate::protocol::ErrKind;
use crate::wal::{self, DbWal, WalReplay};
use doem::{apply_set, current_snapshot, DoemDatabase};
use lore::LoreStore;
use oem::{OemDatabase, Timestamp};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The active WAL segment beside the checkpoint image of database `name`
/// in the durable store `d`.
fn wal_path(d: &LoreStore, name: &str) -> PathBuf {
    d.path_of(name).with_extension("wal")
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

/// A recovered database: its name, its shard, and the log its committer
/// will own.
pub(crate) type RecoveredShard = (String, Arc<Shard>, DbWal);

/// Recover every database found under the WAL directory: load its
/// checkpoint, replay the usable log — the sealed segment, then the
/// active one — through [`apply_set`], truncate anything past the
/// durable prefix, and hand back the shard with its open log. A sealed
/// segment is left in place: the shard's first checkpoint folds it into
/// an image and deletes it.
pub(crate) fn recover_all(
    d: &LoreStore,
    cfg: &ServeConfig,
    metrics: &Metrics,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<Vec<RecoveredShard>> {
    let mut shards = Vec::new();
    for stem in d.names().map_err(io_error)? {
        let doem = d
            .load_doem(&stem)
            .map_err(|e| io_error(format!("checkpoint {stem:?}: {e}")))?;
        let name = doem.name().to_string();
        let wal_path = wal_path(d, &name);
        let sealed_path = wal::sealed_path(&wal_path);
        let sealed = wal::replay(&sealed_path)?;
        let active = wal::replay(&wal_path)?;
        let recovered = recover_one(doem, [&sealed, &active]);
        let [sealed_len, active_len] = recovered.good_len;
        if sealed_len < sealed.good_len || sealed.torn {
            // The durable prefix ends inside the sealed segment: cut its
            // tail too, or the next restart would stop there again and
            // skip the records appended to the active segment meanwhile.
            unlocked.blocking(|| DbWal::open(&sealed_path, sealed_len))?;
        }
        let mut wal = unlocked.blocking(|| DbWal::open(&wal_path, active_len))?;
        wal.since_checkpoint = recovered.applied;
        metrics.recoveries.fetch_add(1, Ordering::Relaxed);
        if recovered.torn {
            metrics.torn_tails.fetch_add(1, Ordering::Relaxed);
        }
        let shard = Arc::new(Shard::new(
            recovered.doem,
            recovered.replica,
            cfg.cache_capacity,
            recovered.last_at,
            recovered.epoch,
        ));
        shards.push((name, shard, wal));
    }
    Ok(shards)
}

/// What [`recover_one`] rebuilt from a checkpoint plus its log.
struct Recovered {
    doem: DoemDatabase,
    replica: OemDatabase,
    /// The timestamp high-water mark (the recovered applied LSN).
    last_at: Timestamp,
    /// Entries replayed past the checkpoint.
    applied: u64,
    /// Byte length of the durable prefix of the sealed and the active
    /// segment (anything past it is torn).
    good_len: [u64; 2],
    /// Whether anything past the durable prefix had to be discarded.
    torn: bool,
    /// The highest promotion epoch any usable record carried (the
    /// checkpoint image itself carries none — a shard whose whole epoch
    /// history was truncated re-adopts it from replication batches).
    epoch: u64,
}

/// Replay one database's log — its sealed segment, then its active one,
/// read as one log — onto its checkpoint.
fn recover_one(checkpoint: DoemDatabase, segments: [&WalReplay; 2]) -> Recovered {
    let ckpt_max = last_lsn(&checkpoint);
    // Replay the longest prefix that applies cleanly (`apply_set` leaves
    // the graphs untouched by the entry it rejects). Entries at or before
    // the checkpoint's high-water mark are already inside the image (a
    // crash landed after an image save and before its sealed segment was
    // deleted) and are skipped, not re-applied. A defect ends the prefix:
    // nothing after it, in either segment, is replayed.
    let mut doem = checkpoint;
    let mut replica = current_snapshot(&doem);
    let mut last_at = ckpt_max;
    let mut applied = 0u64;
    let mut good_len = [0u64; 2];
    let mut epoch = 0u64;
    let mut torn = false;
    'replay: for (seg, replayed) in segments.into_iter().enumerate() {
        for (i, (at, changes)) in replayed.entries.iter().enumerate() {
            if *at > ckpt_max {
                if apply_set(&mut doem, &mut replica, changes, *at).is_err() {
                    torn = true;
                    break 'replay;
                }
                last_at = *at;
                applied += 1;
            }
            good_len[seg] = replayed.ends[i];
            epoch = epoch.max(replayed.epochs[i]);
        }
        if replayed.torn {
            torn = true;
            break;
        }
    }
    Recovered {
        doem,
        replica,
        last_at,
        applied,
        good_len,
        torn,
        epoch,
    }
}

/// Save `doem` as the checkpoint image of `name`, then delete the sealed
/// log segment it covers — the work of a checkpoint thread and of every
/// durable install. The save passes one `Checkpoint` failpoint check (a
/// `Stall` delays it, every other mode fails it) and is timed in `latency
/// checkpoint`; each call counts once, in `checkpoints` or
/// `checkpoint_failures`. On failure the segment stays: nothing durable
/// is lost, and the next checkpoint retries.
pub(crate) fn save_image(
    shared: &Shared,
    name: &str,
    doem: &DoemDatabase,
    sealed: &Path,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<()> {
    let Some(d) = &shared.durable else {
        return Ok(());
    };
    let began = Instant::now();
    let saved = match shared.cfg.faults.check(FaultPoint::Checkpoint) {
        Some(FaultMode::Stall(ms)) => {
            // A slow disk, not a dead one: delay, then save normally.
            Metrics::bump(&shared.metrics.faults_injected);
            unlocked.blocking(|| std::thread::sleep(Duration::from_millis(ms)));
            Ok(())
        }
        Some(_) => {
            Metrics::bump(&shared.metrics.faults_injected);
            Err(Faults::injected_error(FaultPoint::Checkpoint))
        }
        None => Ok(()),
    }
    .and_then(|()| unlocked.blocking(|| d.save_doem(name, doem).map_err(io_error)));
    if saved.is_ok() {
        shared.metrics.checkpoint.record(began.elapsed());
    }
    let done = saved.and_then(|()| unlocked.blocking(|| wal::remove_segment(sealed)));
    Metrics::bump(match done {
        Ok(()) => &shared.metrics.checkpoints,
        Err(_) => &shared.metrics.checkpoint_failures,
    });
    done
}

/// Install (or replace) the shard for `doem`: decide under a brief map
/// write lock (refuse an existing name when `must_be_new`, refuse a name
/// another install has reserved, reserve this one), [`prepare`] and start
/// the new committer with no lock held, then publish under the lock again
/// (insert the shard and release the reservation; a failed prep or spawn
/// only releases it, so nothing is installed). So an acknowledged install
/// exists on disk, racing installs of one name never interleave their
/// prep, no request waits on the disk but this one, and every installed
/// shard of a durable service has a committer draining it. Returns the
/// new global generation.
pub(crate) fn install_shard(
    shared: &Arc<Shared>,
    name: &str,
    doem: DoemDatabase,
    last_at: Timestamp,
    must_be_new: bool,
    unlocked: &mut Token<Unlocked>,
) -> Result<u64, InstallError> {
    let replica = current_snapshot(&doem);
    let old = {
        let mut reg = shared.shards.write(unlocked);
        if reg.installing.contains(name) {
            return Err(InstallError::Installing);
        }
        let old = reg.map.get(name).cloned();
        if must_be_new && old.is_some() {
            return Err(InstallError::Exists);
        }
        reg.installing.insert(name.to_string());
        old
    };
    // Fresh incarnations start at epoch 0: a replicated snapshot install
    // re-adopts the primary's epoch from the next batch header, and a
    // recovered shard restores it from its WAL record suffixes.
    let prepared = prepare(shared, name, &doem, old.as_deref(), unlocked).and_then(|wal| {
        let cap = shared.cfg.cache_capacity;
        let shard = Arc::new(Shard::new(doem, replica, cap, last_at, 0));
        if let Some(wal) = wal {
            start_committer(shared, name, &shard, wal, unlocked)?;
        }
        Ok(shard)
    });
    {
        let mut reg = shared.shards.write(unlocked);
        reg.installing.remove(name);
        let shard = prepared.map_err(InstallError::Io)?;
        reg.map.insert(name.to_string(), shard);
    }
    Ok(shared.bump_global())
}

/// An install's disk work, with no lock held: stop `old` and join its
/// committer (which joins its own checkpoint thread) **before** the files
/// are reset, so neither its file handle nor its image can land over the
/// new incarnation's; readers of `old` keep answering, its writes answer
/// "being replaced". Then save the image ([`save_image`], which deletes
/// an old sealed segment) and reset the active log — the new shard's.
fn prepare(
    shared: &Shared,
    name: &str,
    doem: &DoemDatabase,
    old: Option<&Shard>,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<Option<DbWal>> {
    if let Some(old) = old {
        // Drain, no checkpoint: the files are about to be reset.
        request_stop(old, StopKind::Abandon, unlocked);
        join_committer(old, unlocked);
    }
    let Some(d) = &shared.durable else {
        return Ok(None);
    };
    let wal_path = wal_path(d, name);
    save_image(shared, name, doem, &wal::sealed_path(&wal_path), unlocked)?;
    unlocked.blocking(|| DbWal::open(wal_path, 0)).map(Some)
}

/// Why [`install_shard`] refused.
pub(crate) enum InstallError {
    /// `must_be_new` and a same-named shard already exists.
    Exists,
    /// Another install of the same name is preparing its files.
    Installing,
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
            InstallError::Installing => (
                ErrKind::Conflict,
                format!("database {db:?} is being installed; retry"),
            ),
            InstallError::Io(e) => (
                ErrKind::Io,
                format!("{what} not durable ({e}); nothing installed"),
            ),
        }
    }
}
