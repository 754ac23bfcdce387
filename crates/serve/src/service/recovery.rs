//! Durable shard lifecycle: recovering databases at startup, saving
//! checkpoint images, and installing or replacing a shard with its disk
//! I/O outside the registry lock.

use super::pipeline::{join_committer, request_stop, start_committer, Lineage, StopKind};
use super::shard::Shard;
use super::{ServeConfig, Shared};
use crate::faults::{FaultMode, FaultPoint, Faults};
use crate::lock_order::{Token, Unlocked};
use crate::metrics::Metrics;
use crate::protocol::ErrKind;
use crate::wal::{self, DbWal, WalReplay};
use doem::DoemDatabase;
use lore::LoreStore;
use oem::Timestamp;
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
/// active one — through [`DoemDatabase::apply`], truncate anything past the
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
        if name != stem {
            move_files(d, &stem, &name, unlocked)?;
        }
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
            cfg.cache_capacity,
            recovered.last_at,
            Lineage {
                epoch: recovered.epoch,
                ..Lineage::default()
            },
        ));
        shards.push((name, shard, wal));
    }
    Ok(shards)
}

/// Move database `name`'s image and log segments from the files of `stem`
/// to its own. A store written before file stems were escaped keeps a
/// name with any character but ASCII letters, digits, `-` and `_` under a
/// lossy stem (`a.b` under `a_b`); its log would otherwise be skipped. The
/// log segments move before the image, so a crash midway leaves the image
/// at `stem` and the next start finishes the move. Refused if `name`
/// already has an image of its own.
fn move_files(
    d: &LoreStore,
    stem: &str,
    name: &str,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<()> {
    let (from, to) = (d.path_of(stem), d.path_of(name));
    if to.exists() {
        return Err(io_error(format!(
            "{} and {} both hold database {name:?}",
            from.display(),
            to.display()
        )));
    }
    let (from_wal, to_wal) = (wal_path(d, stem), wal_path(d, name));
    let moves = [
        (wal::sealed_path(&from_wal), wal::sealed_path(&to_wal)),
        (from_wal, to_wal),
        (from, to),
    ];
    unlocked.blocking(|| {
        for (from, to) in moves.iter().filter(|(from, _)| from.exists()) {
            std::fs::rename(from, to)?;
            lore::sync_dir(d.dir())?;
        }
        Ok(())
    })
}

/// What [`recover_one`] rebuilt from a checkpoint plus its log.
struct Recovered {
    doem: DoemDatabase,
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
fn recover_one(mut doem: DoemDatabase, segments: [&WalReplay; 2]) -> Recovered {
    let ckpt_max = last_lsn(&doem);
    // Replay the longest prefix that applies cleanly (`apply` leaves the
    // graph untouched by the entry it rejects). Entries at or before
    // the checkpoint's high-water mark are already inside the image (a
    // crash landed after an image save and before its sealed segment was
    // deleted) and are skipped, not re-applied. A defect ends the prefix:
    // nothing after it, in either segment, is replayed.
    let mut last_at = ckpt_max;
    let mut applied = 0u64;
    let mut good_len = [0u64; 2];
    let mut epoch = 0u64;
    let mut torn = false;
    'replay: for (seg, replayed) in segments.into_iter().enumerate() {
        for (i, (at, changes)) in replayed.entries.iter().enumerate() {
            if *at > ckpt_max {
                if doem.apply(changes, *at).is_err() {
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

/// What an install is, and where its new shard's lineage comes from.
pub(crate) enum Install {
    /// `CREATE`: refused if the name exists; a fresh lineage.
    Create,
    /// `LOAD` and [`crate::Service::install`]: replaces a same-named shard
    /// and keeps its lineage, so a reload undoes no fence or promotion.
    Replace,
    /// A replicated snapshot install: the batch's lineage, keeping the old
    /// shard's fence. Refused if the old shard was promoted — its old
    /// lineage has ended there.
    Replicated(Lineage),
}

impl Install {
    /// The new shard's lineage, given the one of the shard it replaces;
    /// `None` if the install must not happen.
    fn successor(&self, old: Option<Lineage>) -> Option<Lineage> {
        match (self, old) {
            (Install::Replicated(_), Some(old)) if old.promoted => None,
            (Install::Replicated(batch), old) => Some(Lineage {
                fenced_epoch: old.map_or(0, |o| o.fenced_epoch),
                ..*batch
            }),
            (_, old) => Some(old.unwrap_or_default()),
        }
    }
}

/// Install (or replace) the shard for `doem`: decide under a brief map
/// write lock (refuse an existing name for `Install::Create`, refuse a
/// name another install has reserved, reserve this one), [`prepare`] and
/// start the new committer with no lock held, then publish under the lock
/// again (insert the shard and release the reservation; a refused or
/// failed prep or spawn only releases it, so nothing is installed). So an
/// acknowledged install exists on disk, racing installs of one name never
/// interleave their prep, no request waits on the disk but this one, and
/// every installed shard of a durable service has a committer draining
/// it. Returns the new global generation.
pub(crate) fn install_shard(
    shared: &Arc<Shared>,
    name: &str,
    doem: DoemDatabase,
    last_at: Timestamp,
    how: Install,
    unlocked: &mut Token<Unlocked>,
) -> Result<u64, InstallError> {
    let old = {
        let mut reg = shared.shards.write(unlocked);
        if reg.installing.contains(name) {
            return Err(InstallError::Installing);
        }
        let old = reg.map.get(name).cloned();
        if matches!(how, Install::Create) && old.is_some() {
            return Err(InstallError::Exists);
        }
        reg.installing.insert(name.to_string());
        old
    };
    let prepared = prepare(shared, name, &doem, old.as_deref(), &how, unlocked).and_then(
        |(wal, lineage)| {
            let cap = shared.cfg.cache_capacity;
            let shard = Arc::new(Shard::new(doem, cap, last_at, lineage));
            if let Some(wal) = wal {
                start_committer(shared, name, &shard, wal, unlocked).map_err(InstallError::Io)?;
            }
            Ok(shard)
        },
    );
    {
        let mut reg = shared.shards.write(unlocked);
        reg.installing.remove(name);
        reg.map.insert(name.to_string(), prepared?);
    }
    Ok(shared.bump_global())
}

/// An install's disk work, with no lock held: stop `old`, taking the new
/// shard's lineage from its own in the hold that stops it, and join its
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
    how: &Install,
    unlocked: &mut Token<Unlocked>,
) -> Result<(Option<DbWal>, Lineage), InstallError> {
    let lineage = match old {
        Some(old) => {
            // Drain, no checkpoint: the files are about to be reset.
            let succeed = |l| how.successor(Some(l));
            let lineage = request_stop(old, StopKind::Abandon, succeed, unlocked)
                .ok_or(InstallError::Promoted)?;
            join_committer(old, unlocked);
            lineage
        }
        None => how.successor(None).ok_or(InstallError::Promoted)?,
    };
    let Some(d) = &shared.durable else {
        return Ok((None, lineage));
    };
    let wal_path = wal_path(d, name);
    let sealed = wal::sealed_path(&wal_path);
    let wal = save_image(shared, name, doem, &sealed, unlocked)
        .and_then(|()| unlocked.blocking(|| DbWal::open(wal_path, 0)))
        .map_err(InstallError::Io)?;
    Ok((Some(wal), lineage))
}

/// Why [`install_shard`] refused.
pub(crate) enum InstallError {
    /// `must_be_new` and a same-named shard already exists.
    Exists,
    /// Another install of the same name is preparing its files.
    Installing,
    /// `Install::Replicated` over a promoted shard.
    Promoted,
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
            InstallError::Promoted => (
                ErrKind::Fenced,
                format!("database {db:?} was promoted; {what} refused"),
            ),
            InstallError::Io(e) => (
                ErrKind::Io,
                format!("{what} not durable ({e}); nothing installed"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::faults::{FaultMode, FaultPoint, Faults};
    use crate::lock_order::Token;
    use crate::service::testing::guide_service;
    use crate::service::{install_replicated, Lineage};
    use crate::{Response, ServeConfig};
    use std::time::{Duration, Instant};

    /// A replicated snapshot install and `PROMOTE` on one shard are ordered
    /// by its pipeline lock, so neither undoes the other: a `PROMOTE` that
    /// lands while the install prepares its files is told to retry, and an
    /// install that finds the shard promoted is refused. A reload keeps the
    /// lineage too: a fenced shard stays fenced.
    #[test]
    fn installs_keep_an_acknowledged_promotion_or_fence() {
        let dir = std::env::temp_dir().join(format!("serve-install-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = Faults::armed();
        let svc = guide_service(ServeConfig {
            wal_dir: Some(dir.clone()),
            faults: faults.clone(),
            ..ServeConfig::default()
        });
        let c = svc.client();
        let image = (*svc.doem_snapshot("guide").unwrap()).clone();
        let at = super::last_lsn(&image);
        let batch = Lineage {
            epoch: 4,
            primary_lsn: Some(at),
            ..Lineage::default()
        };
        let install =
            || install_replicated(&svc.shared, "guide", image.clone(), at, batch, &mut Token::mint());
        assert!(faults.arm_next(FaultPoint::Checkpoint, 1, FaultMode::Stall(300)));
        std::thread::scope(|s| {
            let installing = s.spawn(install);
            let deadline = Instant::now() + Duration::from_secs(10);
            while faults.fired() == 0 {
                assert!(Instant::now() < deadline, "the image save never stalled");
                std::thread::sleep(Duration::from_millis(2));
            }
            let refused = c.request_line("PROMOTE guide").render();
            assert!(refused.contains("is being replaced; retry"), "{refused}");
            assert_eq!(installing.join().unwrap(), Ok(true));
        });
        let promoted = c.request_line("PROMOTE guide");
        assert!(matches!(&promoted, Response::Ok(m) if m.contains("epoch 5")), "{promoted:?}");
        assert_eq!(install(), Ok(false));
        let write = c.request_line("UPDATE guide AT 1Mar97 ; {updNode(n1, 25)}");
        assert!(!write.is_error(), "the promotion was undone: {write:?}");

        assert!(!c.request_line("FENCE guide 9").is_error());
        svc.install(&oem::guide::guide_figure2(), &oem::guide::history_example_2_3()).unwrap();
        let write = c.request_line("UPDATE guide AT 2Mar97 ; {updNode(n1, 26)}").render();
        assert!(write.starts_with("ERR FENCED"), "a reload lifted the fence: {write}");
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
