//! The service core: a sharded database registry, snapshot-isolated query
//! execution, a worker pool fed by a bounded [`crossbeam`] channel, one
//! commit pipeline per shard, and — when a WAL directory is configured —
//! crash durability.
//!
//! Module map (DESIGN.md §7–§8 for the full treatment):
//!
//! * `config` — [`ServeConfig`], [`WallClock`].
//! * `shard` — a database shard's state and the **publish** stage.
//! * `pipeline` — the **sequence** stage, the commit queue, and the group
//!   committer's **persist** stage and checkpoint starts.
//! * `recovery` — startup recovery, checkpoint image saves, installing
//!   and replacing shards (decide → I/O → publish).
//! * `client` — reply slots, the [`Client`] handle (the request edge),
//!   the worker pool.
//! * `handlers` — the request executor, one function per verb, and its
//!   non-blocking subset the edge runs.
//!
//! Concurrency model: sessions parse requests at the edge, answer there —
//! on their own thread — the ones that cannot block (probe verbs, `STATS`
//! and current-version result-cache hits), and submit the rest as jobs to
//! a bounded queue (`try_send` — a full queue is an immediate `BUSY`, the
//! admission-control contract). Workers execute jobs against a **shard
//! map** (`RwLock<HashMap>` from database name to `Arc<Shard>`, held only
//! to look a shard up or insert one, never across I/O); each shard owns
//! its own lock, generation counter and result cache, so writers to
//! different databases never contend. Queries are **snapshot isolated**:
//! a reader holds the shard lock just long enough to clone a
//! [`SharedDoem`] handle and the generation, then evaluates outside it — the graphs are persistent
//! structures, so a concurrent update copies only the spine it touches.
//!
//! Every write — `UPDATE`, `MUTATE`, a replicated record on a follower —
//! takes one path, **sequence → persist → publish** (`pipeline`): with
//! [`ServeConfig::wal_dir`] set, a per-shard group committer persists
//! whole batches with one `write` + `fsync` outside every lock before
//! anything is published or acked. `QUERY … AS OF` reads the published
//! DOEM graph through the paper's `O_t(D)` view (DESIGN.md §14): the one
//! graph holds every version.
//! [`Service::start`] recovers each database from its latest checkpoint
//! plus the log tail — the paper's `D(O, H)` construction doubling as
//! crash recovery — and a shard whose log can no longer be written flips
//! to **read-only** instead of taking the service down.
//!
//! Every response is handed over through a reply slot (a mutex + condvar
//! pair). A serial session waits on it with a deadline — a worker stuck
//! on a slow query turns into a `TIMEOUT` instead of a hung session. A
//! pipelined TCP session forwards it instead: delivery sends the tagged
//! frame straight into the session's writer channel, and the writer keeps
//! the same deadline. Abandonment is marked under the lock delivery
//! checks, so a response is either handed over or knowingly discarded —
//! never stranded in a queue nobody reads (the sanitizer's channel-leak
//! check runs over this path in CI).

mod client;
mod config;
mod handlers;
mod pipeline;
mod recovery;
mod shard;

pub use client::{Client, PendingReply};
pub(crate) use client::{Outbound, ReplySlot};
pub use config::{ServeConfig, WallClock};
pub(crate) use handlers::{apply_replicated, install_replicated};
pub(crate) use pipeline::Lineage;

use crate::lock_order::{RwLock, Shards, Token, Unlocked};
use crate::metrics::Metrics;
use client::{worker_loop, Job};
use crossbeam::channel::{self, Sender};
use doem::{doem_from_history, SharedDoem};
use oem::{History, OemDatabase};
use pipeline::{join_committer, request_stop, start_committer, StopKind};
use recovery::{install_shard, io_error, last_lsn, recover_all, Install};
use sanitizer::thread::{spawn_tracked, TrackedHandle};
use shard::Shard;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// State shared by the service handle, every worker, and every client.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    /// Database name → shard. Held only to look up / insert / list
    /// shards, never across I/O; execution uses a cloned `Arc<Shard>`.
    pub(crate) shards: RwLock<Shards, Registry>,
    /// SAVE/LOAD storage; internally synchronized, so no lock here.
    pub(crate) store: Option<lore::LoreStore>,
    /// The checkpoint store, rooted at `wal_dir` beside the logs; `None`
    /// without a `wal_dir`.
    pub(crate) durable: Option<lore::LoreStore>,
    /// Set at the start of shutdown, the service's one stop flag: new
    /// submissions fail fast while already-queued jobs drain, workers
    /// exit once the queue is empty, and the follower and accept loops
    /// end.
    pub(crate) stopping: AtomicBool,
    /// Monotonic write counter across *all* shards — the `GEN` verb.
    pub(crate) global_gen: AtomicU64,
    pub(crate) metrics: Metrics,
}

/// What [`Shared::shards`] guards: the installed shards, and the names
/// an install has reserved while it does its I/O outside the lock.
#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) map: HashMap<String, Arc<Shard>>,
    pub(crate) installing: HashSet<String>,
}

impl Shared {
    /// Look up a shard, cloning its `Arc` so the map lock drops
    /// immediately.
    pub(crate) fn shard(&self, db: &str, unlocked: &mut Token<Unlocked>) -> Option<Arc<Shard>> {
        self.shards.read(unlocked).map.get(db).cloned()
    }

    /// Every installed shard with its database name, sorted by name —
    /// cloned out so the map lock drops before anything is done to them.
    fn shards_by_name(&self, unlocked: &mut Token<Unlocked>) -> Vec<(String, Arc<Shard>)> {
        let mut shards: Vec<(String, Arc<Shard>)> = self
            .shards
            .read(unlocked)
            .map
            .iter()
            .map(|(name, shard)| (name.clone(), Arc::clone(shard)))
            .collect();
        shards.sort_by(|a, b| a.0.cmp(&b.0));
        shards
    }

    /// Names of the installed databases, sorted.
    fn database_names(&self, unlocked: &mut Token<Unlocked>) -> Vec<String> {
        let shards = self.shards_by_name(unlocked);
        shards.into_iter().map(|(name, _)| name).collect()
    }

    /// `true` once shutdown has begun.
    pub(crate) fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    fn bump_global(&self) -> u64 {
        self.global_gen.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// The service handle: owns the worker pool. Create sessions with
/// [`Service::client`]. [`Service::shutdown`] stops everything
/// gracefully; dropping the handle stops it the way a crash would.
pub struct Service {
    pub(crate) shared: Arc<Shared>,
    job_tx: Sender<Job>,
    /// The workers, then (follower mode only) the replication thread: the
    /// order a stop joins them in.
    threads: Vec<TrackedHandle<()>>,
}

impl Service {
    /// Start a service with no databases installed. With a
    /// [`ServeConfig::wal_dir`], first recovers every database found
    /// there (checkpoint + log-tail replay).
    pub fn start(cfg: ServeConfig) -> std::io::Result<Service> {
        let open = |dir| lore::LoreStore::open(dir).map_err(io_error);
        let store = cfg.store_dir.as_ref().map(open).transpose()?;
        let durable = cfg.wal_dir.as_ref().map(open).transpose()?;
        let metrics = Metrics::new();
        let unlocked = &mut Token::mint();
        let recovered = match &durable {
            Some(d) => recover_all(d, &cfg, &metrics, unlocked)?,
            None => Vec::new(),
        };
        let registry = Registry {
            map: recovered
                .iter()
                .map(|(name, shard, _)| (name.clone(), Arc::clone(shard)))
                .collect(),
            installing: HashSet::new(),
        };
        let (job_tx, job_rx) = channel::bounded::<Job>(cfg.queue_depth.max(1));
        let shared = Arc::new(Shared {
            shards: RwLock::new(registry),
            store,
            durable,
            stopping: AtomicBool::new(false),
            global_gen: AtomicU64::new(1),
            metrics,
            cfg,
        });
        // Tracked spawns: handles demand an explicit join (shutdown) or
        // detach, and an OS-level spawn failure propagates instead of
        // panicking the starter.
        let threads = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = job_rx.clone();
                spawn_tracked(&format!("serve-worker-{i}"), move || {
                    worker_loop(&rx, &shared, &mut Token::mint())
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        // From here on an error drops `svc`, which stops what has started.
        let mut svc = Service {
            shared,
            job_tx,
            threads,
        };
        // Recovered shards were built before `shared` existed; give each
        // its group committer and log now.
        for (name, shard, wal) in recovered {
            start_committer(&svc.shared, &name, &shard, wal, unlocked)?;
        }
        if svc.shared.cfg.follow.is_some() {
            let shared = Arc::clone(&svc.shared);
            svc.threads.push(spawn_tracked("serve-follower", move || {
                crate::replication::follower::follower_loop(&shared, &mut Token::mint())
            })?);
        }
        Ok(svc)
    }

    /// Install a database built from an initial snapshot and a history
    /// (the name comes from the snapshot). Replaces any same-named shard —
    /// in-flight queries against the old shard finish against their
    /// snapshots; its cache dies with it. With durability on, the
    /// installed database is checkpointed (and its log reset) before this
    /// returns, so it survives a crash immediately.
    pub fn install(&self, initial: &OemDatabase, history: &History) -> std::io::Result<()> {
        let doem = doem_from_history(initial, history).map_err(io_error)?;
        let name = doem.name().to_string();
        let last_at = last_lsn(&doem);
        let unlocked = &mut Token::mint();
        install_shard(&self.shared, &name, doem, last_at, Install::Replace, unlocked)
            .map(|_| ())
            .map_err(|e| io_error(e.describe("install", &name).1))
    }

    /// A new in-process session sharing this service's worker pool.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            tx: self.job_tx.clone(),
        }
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Names of the installed databases, sorted.
    pub fn database_names(&self) -> Vec<String> {
        self.shared.database_names(&mut Token::mint())
    }

    /// An O(1) snapshot handle on one database's DOEM graph (as the query
    /// path takes them), for inspection and tests. `None` if no such
    /// database.
    pub fn doem_snapshot(&self, db: &str) -> Option<SharedDoem> {
        let unlocked = &mut Token::mint();
        let shard = self.shared.shard(db, unlocked)?;
        let st = shard.state.read(unlocked);
        Some(st.doem.snapshot())
    }

    /// Stop the service, **draining** first: new submissions are refused
    /// immediately, queued requests execute to completion (so every
    /// admitted write is sequenced), the group committers drain their
    /// commit queues — persisting, publishing, and acking everything
    /// staged — and each waits for its checkpoint in flight, then takes
    /// a final checkpoint and waits for that too before exiting, so a
    /// clean shutdown followed by a restart loses nothing and replays
    /// nothing.
    pub fn shutdown(mut self) {
        self.stop(StopKind::Shutdown);
    }

    /// Stop every thread, in dependency order; `kind` decides whether the
    /// committers take a final checkpoint. Once stopped, a second call
    /// finds nothing left to join.
    fn stop(&mut self, kind: StopKind) {
        let shared = &self.shared;
        // Refuse new work and signal the loops; workers keep pulling until
        // the queue is empty (they exit on an idle tick with the flag set).
        shared.stopping.store(true, Ordering::SeqCst);
        let unlocked = &mut Token::mint();
        // The follower joins before the committers stop: its in-flight
        // record applies are acked by the committers, so stopping those
        // first would strand it waiting out a reply timeout.
        for handle in self.threads.drain(..) {
            let _ = unlocked.blocking(|| handle.join());
        }
        // Workers are gone, so the commit queues can only shrink: ask
        // every pipeline to stop, then join the committers. Replies for
        // staged writes are delivered before the join returns.
        let shards = shared.shards_by_name(unlocked);
        for (_, shard) in &shards {
            request_stop(shard, kind, Some, unlocked);
        }
        for (_, shard) in &shards {
            join_committer(shard, unlocked);
        }
    }
}

/// Dropping a `Service` without [`Service::shutdown`] stops it the way a
/// crash would, as closely as an in-process harness can: every
/// background thread is signalled and **joined**, so the data directory
/// is quiet before a successor reopens it, and what is staged still
/// drains, so no worker is stranded waiting on an ack. But no final
/// checkpoint is taken: the WAL is left exactly as the group committers
/// last persisted it (a checkpoint already in flight finishes first),
/// and restart goes through real recovery.
impl Drop for Service {
    fn drop(&mut self) {
        self.stop(StopKind::Abandon);
    }
}

/// Test support shared by the `service` modules' unit tests.
#[cfg(test)]
mod testing {
    use super::{ServeConfig, Service};
    use oem::guide::{guide_figure2, history_example_2_3};

    /// A service over the paper's guide: Figure 2 plus Example 2.3's
    /// history.
    pub(crate) fn guide_service(cfg: ServeConfig) -> Service {
        let svc = Service::start(cfg).unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        svc
    }
}

#[cfg(test)]
mod tests {
    use super::testing::guide_service;
    use super::*;
    use std::thread;

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
