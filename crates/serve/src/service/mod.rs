//! The service core: a sharded database registry, snapshot-isolated query
//! execution, a worker pool fed by a bounded [`crossbeam`] channel, one
//! commit pipeline per shard, and — when a WAL directory is configured —
//! crash durability.
//!
//! Module map (DESIGN.md §7–§8 for the full treatment):
//!
//! * `config` — [`ServeConfig`], [`WallClock`], [`AutoTick`].
//! * `shard` — a database shard's state and the **publish** stage.
//! * `pipeline` — the **sequence** stage, the commit queue, and the group
//!   committer's **persist** stage.
//! * `recovery` — startup recovery, checkpoints, installing and replacing
//!   shards.
//! * `client` — reply slots, the [`Client`] handle (the request edge),
//!   the worker pool.
//! * `handlers` — the request executor, one function per verb, and its
//!   non-blocking subset the edge runs.
//!
//! Concurrency model: sessions parse requests at the edge, answer there —
//! on their own thread — the ones that cannot block (probe verbs and
//! current-version result-cache hits), and submit the rest as jobs to a
//! bounded queue (`try_send` — a full queue is an immediate `BUSY`, the
//! admission-control contract). Workers execute jobs against a **shard
//! map** (`RwLock<HashMap>` from database name to `Arc<Shard>`, held only
//! to look a shard up or insert one); each shard owns its own lock,
//! generation counter and result cache, so writers to different databases
//! never contend. Queries are **snapshot isolated**: a reader holds the
//! shard lock just long enough to clone a [`SharedDoem`] handle and the
//! generation, then evaluates outside it — the graphs are persistent
//! structures, so a concurrent update copies only the spine it touches.
//!
//! Every write — `UPDATE`, `MUTATE`, a replicated record on a follower —
//! takes one path, **sequence → persist → publish** (`pipeline`): with
//! [`ServeConfig::wal_dir`] set, a per-shard group committer persists
//! whole batches with one `write` + `fsync` outside every lock before
//! anything is published or acked, and publish installs each version into
//! the shard's **version ring** for `QUERY … AS OF` (DESIGN.md §14).
//! [`Service::start`] recovers each database from its latest checkpoint
//! plus the log tail — the paper's `D(O, H)` construction doubling as
//! crash recovery — and a shard whose log can no longer be written flips
//! to **read-only** instead of taking the service down. QSS state lives
//! in a separate *control* shard, so ticks invalidate only
//! subscription-query caches.
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
pub use config::{AutoTick, DynSource, ServeConfig, WallClock};
pub(crate) use handlers::{apply_replicated, install_replicated};

use crate::cache::ResultCache;
use crate::metrics::Metrics;
use crate::replication::primary::ReplHub;
use client::{worker_loop, Job};
use crossbeam::channel::{self, Sender};
use doem::{doem_from_history, SharedDoem};
use lorel::QueryRegistry;
use oem::{History, OemDatabase, SharedOem, Timestamp};
use parking_lot::RwLock;
use pipeline::{join_committer, request_stop, start_committer, StopKind};
use qss::{QssServer, ScriptedSource};
use recovery::{install_shard, io_error, last_lsn, recover_all, Durability};
use sanitizer::thread::{spawn_tracked, TrackedHandle};
use shard::Shard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

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

    /// Every installed shard with its database name, sorted by name —
    /// cloned out so the map lock drops before anything is done to them.
    fn shards_by_name(&self) -> Vec<(String, Arc<Shard>)> {
        let mut shards: Vec<(String, Arc<Shard>)> = self
            .shards
            .read()
            .iter()
            .map(|(name, shard)| (name.clone(), Arc::clone(shard)))
            .collect();
        shards.sort_by(|a, b| a.0.cmp(&b.0));
        shards
    }

    /// Names of the installed databases, sorted.
    fn database_names(&self) -> Vec<String> {
        let shards = self.shards_by_name();
        shards.into_iter().map(|(name, _)| name).collect()
    }

    fn bump_global(&self) -> u64 {
        self.global_gen.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Something subscription queries can observe changed: move the
    /// control generation (retiring the `sub:` cache entries keyed by the
    /// old one) and the global one, which is returned.
    fn bump_control(&self, ctl: &mut ControlState) -> u64 {
        ctl.generation += 1;
        self.sub_cache.retain_generation(ctl.generation);
        self.bump_global()
    }
}

/// The service handle: owns the worker pool and (optionally) the QSS
/// ticker. Create sessions with [`Service::client`], stop everything with
/// [`Service::shutdown`].
pub struct Service {
    pub(crate) shared: Arc<Shared>,
    job_tx: Sender<Job>,
    workers: Vec<TrackedHandle<()>>,
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
        let open = |dir| lore::LoreStore::open(dir).map_err(io_error);
        let store = cfg.store_dir.as_ref().map(open).transpose()?;
        let durable = cfg.wal_dir.as_ref().map(open).transpose()?;
        let durable = durable.map(|store| Durability { store });
        let metrics = Metrics::new();
        let mut shards = HashMap::new();
        if let Some(d) = &durable {
            recover_all(d, &cfg, &metrics, &mut shards)?;
        }
        let control = ControlState {
            clock: cfg.epoch,
            registry: QueryRegistry::new(),
            qss: QssServer::new(source),
            generation: 1,
        };
        let (job_tx, job_rx) = channel::bounded::<Job>(cfg.queue_depth.max(1));
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
                    worker_loop(&rx, &stop, &shared)
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
        // its group committer now.
        for (name, shard) in shared.shards_by_name() {
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
            workers,
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
        let doem = doem_from_history(initial, history).map_err(io_error)?;
        let name = doem.name().to_string();
        let last_at = last_lsn(&doem);
        install_shard(&self.shared, &name, doem, last_at, false)
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
        self.shared.database_names()
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
        self.stop_with(StopKind::Shutdown);
    }

    /// Stop the service the way a crash would, as closely as an
    /// in-process harness can: every background thread is signalled and
    /// **joined** (so the data directory is quiesced before a successor
    /// reopens it) and what is staged still drains, so no worker is
    /// stranded waiting on an ack — but no final checkpoint is taken: the
    /// WAL is left exactly as the group committers last persisted it, and
    /// restart goes through real recovery.
    ///
    /// Simply `drop`ping a `Service` is **not** a crash: the struct only
    /// holds `JoinHandle`s and `Arc` clones, so the committer, follower,
    /// and worker threads keep running against the shared state — and a
    /// successor opened over the same directory then races them on the
    /// WAL file (two appenders, two truncators: checkpoint images and
    /// log contents come apart). Chaos harnesses must call this instead.
    pub fn crash_stop(self) {
        self.stop_with(StopKind::Abandon);
    }

    /// Stop every thread, in dependency order; `kind` decides whether the
    /// committers take a final checkpoint.
    fn stop_with(self, kind: StopKind) {
        let Service {
            shared,
            job_tx,
            workers,
            ticker,
            follower,
            stop,
        } = self;
        // Refuse new work, then signal loops; workers keep pulling until
        // the queue is empty (they exit on an idle tick with stop set).
        shared.accepting.store(false, Ordering::SeqCst);
        stop.store(true, Ordering::SeqCst);
        drop(job_tx);
        // The follower joins before the committers stop: its in-flight
        // record applies are acked by the committers, so stopping those
        // first would strand it waiting out a reply timeout.
        for handle in workers.into_iter().chain(follower).chain(ticker) {
            let _ = handle.join();
        }
        // Workers are gone, so the commit queues can only shrink: ask
        // every pipeline to stop, then join the committers. Replies for
        // staged writes are delivered before the join returns.
        let shards = shared.shards_by_name();
        for (_, shard) in &shards {
            request_stop(shard, kind);
        }
        for (_, shard) in &shards {
            join_committer(shard);
        }
    }
}

fn ticker_loop(shared: &Shared, tick: AutoTick, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(tick.interval);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let horizon = shared.control.read().clock.plus_minutes(tick.step_minutes);
        let _ = handlers::tick(shared, horizon);
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
