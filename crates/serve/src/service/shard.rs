//! One database shard — its published state, result cache, version ring
//! and commit pipeline — and the **publish** stage, the only place a
//! write becomes visible to readers.

use super::pipeline::CommitPipeline;
use super::Shared;
use crate::cache::{CacheEntry, Carry, ResultCache};
use crate::metrics::Metrics;
use crate::protocol::lsn_to_wire;
use crate::replication::primary::ReplTail;
use crate::wal::DbWal;
use doem::{DoemDatabase, SharedDoem};
use oem::{ChangeSet, OemDatabase, SharedOem, Timestamp, VersionRing};
use parking_lot::{Mutex, RwLock};
use sanitizer::thread::TrackedHandle;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// The graphs one database shard guards: the DOEM database behind a
/// copy-on-write handle (queries snapshot it), the plain-OEM replica kept
/// in lockstep (the version ring retains it per LSN), and the shard's
/// write counter. Only [`publish`] mutates it.
pub(crate) struct ShardState {
    pub(crate) doem: SharedDoem,
    pub(crate) replica: SharedOem,
    /// Bumped by every successful write to this shard; cache keys carry
    /// it, so a bump structurally invalidates the shard's cache.
    pub(crate) generation: u64,
    /// Highest change timestamp **published** to this shard. The paper's
    /// Definition 2.2 — change timestamps strictly increase — makes the
    /// timestamp a log sequence number: recovery skips WAL entries at or
    /// before the checkpoint's high-water mark, so a crash between
    /// checkpoint save and log truncation can never double-apply.
    pub(crate) last_at: Timestamp,
    /// The recent suffix of this shard's history, retained in memory for
    /// followers (records survive checkpoint truncation here). Appended
    /// under the same write lock that publishes a commit, so a
    /// group-commit batch becomes visible to replication atomically.
    pub(crate) tail: ReplTail,
}

/// What a shard that owns a WAL has and the others lack — the one place
/// "is this shard durable" is recorded.
pub(crate) struct Durable {
    /// The highest LSN (raw minutes) known durable on disk — stored by
    /// the committer after each batch fsync, rendered by `LSN`/`STATS`.
    pub(crate) lsn: AtomicI64,
    /// The shard's log and the thread that owns it.
    pub(crate) committer: Mutex<Committer>,
}

/// Where a WAL-owning shard's log is.
pub(crate) enum Committer {
    /// Parked between shard construction and
    /// [`super::pipeline::start_committer`].
    Parked(DbWal),
    /// Owned exclusively by the group-committer thread, which is why no
    /// lock is ever held across an append or fsync.
    Running(TrackedHandle<()>),
    /// The committer was joined (shutdown or replacement) or never
    /// spawned.
    Gone,
}

/// One database shard: its own lock, generation counter, result cache,
/// commit pipeline and — when it owns a WAL — group-committer thread.
/// Shards are handed around as `Arc<Shard>` so the registry lock is
/// never held during execution.
pub(crate) struct Shard {
    pub(crate) state: RwLock<ShardState>,
    pub(crate) cache: ResultCache,
    /// Every write and replicated record sequences through it.
    pub(crate) pipeline: CommitPipeline,
    /// `Some` iff the shard owns a WAL, i.e. has a persist stage.
    pub(crate) durable: Option<Durable>,
    /// Set (under the pipeline lock) on persistent log I/O failure;
    /// writes answer `READONLY` from then on while queries keep serving.
    pub(crate) read_only: AtomicBool,
    /// Replication retention floor: the minimum applied LSN (raw
    /// minutes) across live follower leases, `i64::MAX` when none. Kept
    /// as an atomic so the publish path never touches the lease table.
    pub(crate) repl_floor: AtomicI64,
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
    /// A shard over `doem` and its current snapshot `replica`, whose
    /// history ends at `last_at`. With a `wal` the shard is durable: the
    /// log is parked until [`super::pipeline::start_committer`] hands it
    /// to the committer.
    pub(crate) fn new(
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
        Shard {
            durable: wal.map(|wal| Durable {
                lsn: AtomicI64::new(last_at.raw_minutes()),
                committer: Mutex::new(Committer::Parked(wal)),
            }),
            // The sequencing head starts as O(1) snapshots of the
            // published graphs.
            pipeline: CommitPipeline::new(doem.snapshot(), replica.snapshot(), last_at),
            state: RwLock::new(ShardState {
                doem,
                replica,
                generation: 1,
                last_at,
                tail: ReplTail::new(last_at),
            }),
            cache: ResultCache::new(cache_capacity),
            read_only: AtomicBool::new(false),
            repl_floor: AtomicI64::new(i64::MAX),
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

    /// `true` once a log I/O failure degraded the shard to read-only.
    pub(crate) fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Flip the shard writable under a fresh fence: the new epoch is
    /// strictly above both its own and any epoch it was fenced at, so
    /// the deposed lineage cannot fence it back with a stale number.
    pub(crate) fn promote(&self) -> u64 {
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
    pub(crate) fn fence(&self, epoch: u64) -> bool {
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

    /// The applied LSN, the durable LSN and the epoch, the first two in
    /// wire form — what `LSN` and each `STATS` `lsn` row report. A shard
    /// that owns no WAL has no log, so nothing is durable: `-`.
    pub(crate) fn lsn_fields(&self) -> (String, String, u64) {
        let applied = self.state.read().last_at;
        let durable = match &self.durable {
            Some(d) => lsn_to_wire(Timestamp::from_raw_minutes(d.lsn.load(Ordering::Relaxed))),
            None => "-".to_string(),
        };
        (lsn_to_wire(applied), durable, self.epoch())
    }
}

/// A change set the sequence stage has already applied to the sequencing
/// head: the record, plus O(1) snapshots of the two graphs with it
/// applied. Publishing it is a pointer swap — no second `apply_set`, so
/// nothing that could fail.
pub(crate) struct AppliedSet {
    /// The assigned timestamp — the LSN.
    pub(crate) at: Timestamp,
    pub(crate) changes: ChangeSet,
    pub(crate) doem: SharedDoem,
    pub(crate) replica: SharedOem,
}

/// The **publish** stage for one record, under the shard's write lock:
/// swap in the graphs the sequence stage produced, carry the result cache
/// across the change set, push the replication tail, bump the generation
/// (which retires the cache entries not carried), and install the new
/// replica into the version ring (`state` → `versions` is the lock
/// order) under the retention horizon. Client writes, group-commit
/// batches and follower replay all become visible here and nowhere else.
/// Returns the new shard generation and records the time readers were
/// locked out for this record in the `publish` histogram.
pub(crate) fn publish(shared: &Shared, shard: &Shard, st: &mut ShardState, set: AppliedSet) -> u64 {
    let began = Instant::now();
    let AppliedSet {
        at,
        changes,
        doem,
        replica,
    } = set;
    st.doem = doem;
    st.replica = replica;
    st.last_at = at;
    maintain_shard_cache(shared, shard, st, &changes, at);
    st.tail.push(
        at,
        changes,
        shared.cfg.replication_retain.max(1),
        shard.repl_floor.load(Ordering::Relaxed),
    );
    st.generation += 1;
    shard.cache.retain_generation(st.generation);
    let gced = {
        let mut ring = shard.versions.lock();
        ring.publish_entry(at, st.generation, st.replica.snapshot());
        ring.retain(shared.cfg.retain_lsns)
    };
    let m = &shared.metrics;
    Metrics::bump(&m.versions_installed);
    m.versions_gced.fetch_add(gced, Ordering::Relaxed);
    shared.bump_global();
    m.publish.record(began.elapsed());
    st.generation
}

/// Carry a shard's cached results across one published change set
/// (semi-naive maintenance, DESIGN.md §11). Called by [`publish`] after
/// the new graphs are in place and *before* the generation bump. Every
/// entry at the current generation is asked what the change set adds to
/// it (delta variants seeded from the set). Nothing: the entry is re-keyed
/// as it is (`cache_carried`). Some rows: prior ∪ fresh, re-canonicalized
/// against the post-publish graph, byte-identical to a fresh evaluation.
/// Both count as `cache_maintained`. An entry whose query × delta leaves
/// the monotonic fragment is dropped, and the next read re-evaluates
/// fully (`cache_fallback`).
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

#[cfg(test)]
mod tests {
    use crate::cache::CacheKey;
    use crate::service::testing::guide_service;
    use crate::{Response, ServeConfig};
    use chorel::{canonical_row_strings, run_chorel_parsed, Strategy};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

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
}
