//! One database shard — its published state, result cache and commit
//! pipeline — and the **publish** stage, the only place a write becomes
//! visible to readers.

use super::pipeline::{CommitPipeline, Lineage};
use super::Shared;
use crate::cache::{CacheEntry, Carry, ResultCache};
use crate::lock_order::{RwLock, State, Token, Unlocked};
use crate::protocol::lsn_to_wire;
use crate::replication::primary::ReplTail;
use doem::{DoemDatabase, SharedDoem};
use oem::{ChangeSet, Timestamp};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What one database shard publishes: the DOEM database behind a
/// copy-on-write handle (current queries snapshot it, and `QUERY … AS OF`
/// reads its `O_t(D)` view — DESIGN.md §14), and the shard's write
/// counter. Only [`publish`] mutates it.
pub(crate) struct ShardState {
    pub(crate) doem: SharedDoem,
    /// Bumped by every successful write to this shard; cache keys carry
    /// it, so a bump structurally invalidates the shard's cache.
    pub(crate) generation: u64,
    /// Highest change timestamp **published** to this shard. The paper's
    /// Definition 2.2 — change timestamps strictly increase — makes the
    /// timestamp a log sequence number: recovery skips WAL entries at or
    /// before the checkpoint's high-water mark, so a crash between an
    /// image save and the deletion of the log segment it covers can never
    /// double-apply.
    pub(crate) last_at: Timestamp,
    /// The recent suffix of this shard's history, retained in memory for
    /// followers (records survive checkpoints here). Appended
    /// under the same write lock that publishes a commit, so a
    /// group-commit batch becomes visible to replication atomically.
    pub(crate) tail: ReplTail,
}

/// One database shard: its own lock, generation counter, result cache
/// and commit pipeline, which holds its lineage and — when it owns a
/// WAL — its group committer. Shards are handed around as `Arc<Shard>`
/// so the registry lock is never held during execution.
pub(crate) struct Shard {
    pub(crate) state: RwLock<State, ShardState>,
    pub(crate) cache: ResultCache,
    /// Every write and replicated record sequences through it.
    pub(crate) pipeline: CommitPipeline,
}

impl Shard {
    /// A shard over `doem`, whose history ends at `last_at`.
    pub(crate) fn new(
        doem: DoemDatabase,
        cache_capacity: usize,
        last_at: Timestamp,
        lineage: Lineage,
    ) -> Shard {
        let doem = SharedDoem::new(doem);
        Shard {
            // The sequencing head starts as an O(1) snapshot of the
            // published graph.
            pipeline: CommitPipeline::new(doem.snapshot(), last_at, lineage),
            state: RwLock::new(ShardState {
                doem,
                generation: 1,
                last_at,
                tail: ReplTail::new(last_at),
            }),
            cache: ResultCache::new(cache_capacity),
        }
    }

    /// The applied LSN, the durable LSN, the lineage and whether the shard
    /// is read-only, the first two in wire form — what `LSN` and each
    /// `STATS` `lsn` row report, and `STATS`' `read_only_shards` count. A
    /// WAL shard publishes nothing before its fsync, so what it has
    /// applied is durable; a service without a WAL has no log, so nothing
    /// is: `-`.
    pub(crate) fn lsn_fields(
        &self,
        shared: &Shared,
        unlocked: &mut Token<Unlocked>,
    ) -> (String, String, Lineage, bool) {
        let applied = lsn_to_wire(self.state.read(unlocked).last_at);
        let durable = if shared.durable.is_some() {
            applied.clone()
        } else {
            "-".to_string()
        };
        let (lineage, read_only) = self.pipeline.status(unlocked);
        (applied, durable, lineage, read_only)
    }
}

/// A change set the sequence stage has already applied to the sequencing
/// head: the record, plus an O(1) snapshot of the DOEM graph with it
/// applied. Publishing it is a pointer swap — no second `apply_set`, so
/// nothing that could fail.
pub(crate) struct AppliedSet {
    /// The assigned timestamp — the LSN.
    pub(crate) at: Timestamp,
    pub(crate) changes: ChangeSet,
    pub(crate) doem: SharedDoem,
}

/// The **publish** stage for one record, under the shard's write lock:
/// swap in the graph the sequence stage produced, carry the result cache
/// across the change set, push the replication tail (pruned to
/// `retain_lsns` records), and bump the generation (which retires the
/// cache entries not carried). Client writes, group-commit batches and
/// follower replay all become visible here and nowhere else.
/// Returns the new shard generation and records the time readers were
/// locked out for this record in the `publish` histogram.
pub(crate) fn publish(shared: &Shared, shard: &Shard, st: &mut ShardState, set: AppliedSet) -> u64 {
    let began = Instant::now();
    let AppliedSet { at, changes, doem } = set;
    st.doem = doem;
    st.last_at = at;
    maintain_shard_cache(shared, shard, st, &changes, at);
    st.tail.push(at, changes, shared.cfg.retain_lsns);
    st.generation += 1;
    shard.cache.retain_generation(st.generation);
    shared.bump_global();
    shared.metrics.publish.record(began.elapsed());
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
    use crate::lock_order::Token;
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
        let unlocked = &mut Token::mint();
        let shard = c.shared.shard("guide", unlocked).unwrap();
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
            let st = shard.state.read(unlocked);
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
