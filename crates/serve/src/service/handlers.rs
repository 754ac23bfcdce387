//! The request executor: [`execute`] dispatches a parsed [`Request`] to
//! one handler per verb. Queries resolve their shard, snapshot it, and
//! evaluate lock-free; writes (and the follower's replicated records)
//! enter the shard's commit pipeline. [`edge_reply`] is the part of it
//! that needs no worker — the probe verbs, `STATS` and result-cache hits —
//! which the submitting thread runs before the admission queue.

use super::client::ReplySlot;
use super::pipeline::{self, refuse_follower_write, sequence, Lineage, WriteKind};
use super::recovery::{install_shard, last_lsn, Install, InstallError};
use super::shard::Shard;
use super::Shared;
use crate::cache::{CacheEntry, CacheKey, ResultCache};
use crate::faults::{FaultMode, FaultPoint};
use crate::lock_order::{Token, Unlocked};
use crate::metrics::Metrics;
use crate::protocol::{lsn_to_wire, ErrKind, Request, Response};
use crate::replication::primary::serve_replicate;
use chorel::delta::canonical_strings_for_rows;
use chorel::Strategy;
use doem::DoemDatabase;
use lorel::ast::Query;
use oem::{ChangeSet, OemDatabase, Timestamp};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answer `req` if that needs no evaluation and no write: the probe
/// verbs and `STATS` always, a current-version `QUERY` when its result is
/// cached at the current generation. No lock is held across another or
/// across I/O — no install holds the shard map across I/O — but `LSN` and
/// `STATS` read the lineage under the pipeline lock, so they can wait out
/// one write's sequence stage (DESIGN.md §7). So
/// [`Client::begin`](super::Client) calls this on the submitting thread;
/// `None` sends the request to the worker pool.
pub(crate) fn edge_reply(
    shared: &Shared,
    req: &Request,
    unlocked: &mut Token<Unlocked>,
) -> Option<Response> {
    Some(match req {
        Request::Ping => Response::Ok("pong".into()),
        Request::Quit => Response::Ok("bye".into()),
        Request::Generation { db: None } => {
            Response::Ok(shared.global_gen.load(Ordering::Relaxed).to_string())
        }
        Request::Generation { db: Some(db) } => {
            with_shard(shared, db, unlocked, |shard, unlocked| {
                Response::Ok(shard.state.read(unlocked).generation.to_string())
            })
        }
        Request::ListDbs => Response::Rows(shared.database_names(unlocked)),
        Request::Stats => stats(shared, unlocked),
        Request::Lsn { db } => with_shard(shared, db, unlocked, |shard, unlocked| {
            let (applied, durable, lineage, _) = shard.lsn_fields(shared, unlocked);
            let epoch = lineage.epoch;
            Response::Ok(format!("applied {applied} durable {durable} epoch {epoch}"))
        }),
        Request::Query {
            db,
            key,
            as_of: None,
            ..
        } => {
            let shard = shared.shard(db, unlocked)?;
            let generation = shard.state.read(unlocked).generation;
            return cache_lookup(shared, &shard.cache, &current_key(db, key, generation));
        }
        _ => return None,
    })
}

/// Execute one request. `None` means a write was staged on a WAL-owning
/// shard's commit queue: its group committer delivers the ack to `reply`
/// once the batch is durable and published.
pub(crate) fn execute(
    shared: &Arc<Shared>,
    req: Request,
    reply: &Arc<ReplySlot>,
    unlocked: &mut Token<Unlocked>,
) -> Option<Response> {
    Some(match req {
        // Never queued — `Client::begin` answers these through
        // `edge_reply` — but `execute` stays total over the verbs.
        Request::Ping
        | Request::Quit
        | Request::Generation { .. }
        | Request::ListDbs
        | Request::Stats
        | Request::Lsn { .. } => return edge_reply(shared, &req, unlocked),
        Request::Create { db } => create(shared, &db, unlocked),
        Request::Save { db } => save(shared, &db, unlocked),
        Request::Load { db } => load(shared, &db, unlocked),
        Request::Query {
            db,
            query,
            key,
            as_of,
        } => with_shard(shared, &db, unlocked, |shard, unlocked| match as_of {
            Some(at) => query_as_of(shared, shard, at, &query, unlocked),
            None => query_current(shared, shard, &db, &key, &query, unlocked),
        }),
        Request::Update { db, at, changes } => {
            return write(shared, &db, at, WriteKind::Update(changes), reply, unlocked)
        }
        Request::Mutate { db, at, stmt } => {
            return write(shared, &db, at, WriteKind::Mutate(stmt), reply, unlocked)
        }
        Request::Replicate { db, from } => serve_replicate(shared, &db, from, unlocked),
        Request::Promote { db } => with_shard(shared, &db, unlocked, |shard, unlocked| {
            promote(shared, &db, shard, unlocked)
        }),
        Request::Fence { db, epoch } => with_shard(shared, &db, unlocked, |shard, unlocked| {
            shard.pipeline.fence(&db, epoch, unlocked)
        }),
    })
}

fn not_found(what: &str, name: &str) -> Response {
    Response::err(ErrKind::NotFound, format!("no {what} named {name:?}"))
}

fn query_failed(e: impl std::fmt::Display) -> Response {
    Response::err(ErrKind::Conflict, format!("query failed: {e}"))
}

/// Run `f` against database `db`'s shard, or answer `NOTFOUND`.
fn with_shard(
    shared: &Shared,
    db: &str,
    unlocked: &mut Token<Unlocked>,
    f: impl FnOnce(&Arc<Shard>, &mut Token<Unlocked>) -> Response,
) -> Response {
    match shared.shard(db, unlocked) {
        Some(shard) => f(&shard, unlocked),
        None => not_found("database", db),
    }
}

fn stats(shared: &Shared, unlocked: &mut Token<Unlocked>) -> Response {
    let mut rows = shared.metrics.render();
    let mut read_only = 0usize;
    let mut retained = 0usize;
    for (name, shard) in &shared.shards_by_name(unlocked) {
        retained += shard.state.read(unlocked).tail.len();
        let (applied, durable, lineage, degraded) = shard.lsn_fields(shared, unlocked);
        read_only += usize::from(degraded);
        let epoch = lineage.epoch;
        let mut line = format!("lsn {name} applied={applied} durable={durable} epoch={epoch}");
        if let Some(p) = lineage.primary_lsn {
            line.push_str(&format!(" primary={}", lsn_to_wire(p)));
        }
        rows.push(line);
    }
    rows.push(format!("gauge read_only_shards {read_only}"));
    rows.push(format!("gauge retained_lsns {retained}"));
    Response::Rows(rows)
}

/// Install `doem` as database `db` and answer `<done> <db>; generation
/// <g>`, or the shared install refusal for the operation `what`.
fn install_response(
    shared: &Arc<Shared>,
    db: &str,
    doem: DoemDatabase,
    how: Install,
    what: &str,
    done: &str,
    unlocked: &mut Token<Unlocked>,
) -> Response {
    let last_at = last_lsn(&doem);
    match install_shard(shared, db, doem, last_at, how, unlocked) {
        Ok(g) => Response::Ok(format!("{done} {db}; generation {g}")),
        Err(e) => {
            let (kind, message) = e.describe(what, db);
            Response::err(kind, message)
        }
    }
}

fn create(shared: &Arc<Shared>, db: &str, unlocked: &mut Token<Unlocked>) -> Response {
    if let Some(resp) = refuse_follower_write(shared) {
        return resp;
    }
    let doem = DoemDatabase::from_snapshot(&OemDatabase::new(db.to_string()));
    install_response(shared, db, doem, Install::Create, "create", "created", unlocked)
}

fn save(shared: &Shared, db: &str, unlocked: &mut Token<Unlocked>) -> Response {
    let Some(store) = &shared.store else {
        return Response::err(ErrKind::Io, "no store configured");
    };
    with_shard(shared, db, unlocked, |shard, unlocked| {
        // Snapshot under the read lock, write the image outside it.
        let doem = shard.state.read(unlocked).doem.snapshot();
        match unlocked.blocking(|| store.save_doem(db, &doem)) {
            Ok(()) => Response::Ok(format!("saved {db}")),
            Err(e) => Response::err(ErrKind::Io, format!("save failed: {e}")),
        }
    })
}

fn load(shared: &Arc<Shared>, db: &str, unlocked: &mut Token<Unlocked>) -> Response {
    if let Some(resp) = refuse_follower_write(shared) {
        return resp;
    }
    let Some(store) = &shared.store else {
        return Response::err(ErrKind::Io, "no store configured");
    };
    match unlocked.blocking(|| store.load_doem(db)) {
        Ok(doem) => install_response(shared, db, doem, Install::Replace, "load", "loaded", unlocked),
        Err(e) => Response::err(ErrKind::NotFound, format!("load failed: {e}")),
    }
}

/// The one result-cache lookup: the edge runs it before the queue, a
/// worker runs it again after the queue wait (another session may have
/// evaluated the same text meanwhile).
fn cache_lookup(shared: &Shared, cache: &ResultCache, key: &CacheKey) -> Option<Response> {
    let entry = cache.get(key)?;
    Metrics::bump(&shared.metrics.cache_hits);
    Some(Response::Rows(entry.strings.clone()))
}

/// The cache key of a current-version query against database `db`.
fn current_key(db: &str, canonical: &str, generation: u64) -> CacheKey {
    CacheKey {
        scope: db.to_string(),
        canonical: canonical.to_string(),
        generation,
    }
}

/// The [`FaultPoint::Evaluate`] site, passed by every evaluation a worker
/// runs: a `Stall` delays it, other modes are ignored. A test seam only —
/// [`Faults::disabled`](crate::Faults::disabled) makes it one `Option`
/// check.
fn evaluate_failpoint(shared: &Shared, unlocked: &mut Token<Unlocked>) {
    if let Some(FaultMode::Stall(ms)) = shared.cfg.faults.check(FaultPoint::Evaluate) {
        Metrics::bump(&shared.metrics.faults_injected);
        unlocked.blocking(|| std::thread::sleep(Duration::from_millis(ms)));
    }
}

/// Answer a current-version query from the shard's cache, or evaluate it
/// over a snapshot — with every lock already dropped — and cache the
/// canonical rows beside the raw engine rows, so the publish stage can
/// carry the entry across writes instead of invalidating it. The wire
/// rows are rendered from the engine's rows directly: nothing is
/// packaged into a result database (that is the §6 polling form, which
/// a `ROWS` frame does not need).
fn query_current(
    shared: &Shared,
    shard: &Shard,
    db: &str,
    key: &str,
    query: &Query,
    unlocked: &mut Token<Unlocked>,
) -> Response {
    // Snapshot: hold the shard lock only for an Arc clone.
    let (doem, generation) = {
        let st = shard.state.read(unlocked);
        (st.doem.snapshot(), st.generation)
    };
    let key = current_key(db, key, generation);
    if let Some(hit) = cache_lookup(shared, &shard.cache, &key) {
        return hit;
    }
    Metrics::bump(&shared.metrics.cache_misses);
    evaluate_failpoint(shared, unlocked);
    let t = Instant::now();
    let outcome = chorel::run_direct_rows(&doem, query);
    shared.metrics.exec.record(t.elapsed());
    match outcome {
        Ok(rows) => {
            let strings = canonical_strings_for_rows(&doem, &rows);
            shard.cache.insert(
                key,
                Arc::new(CacheEntry {
                    strings: strings.clone(),
                    maintain: Some((query.clone(), rows)),
                }),
            );
            Response::Rows(strings)
        }
        Err(e) => query_failed(e),
    }
}

/// Evaluate a `QUERY … AS OF` at the version in force at `at`: the
/// paper's `O_t(D)` as a lazy view of the shard's DOEM graph
/// ([`chorel::run_chorel_at`]), which reads arcs alive at `at` and values
/// as of `at` for the nodes the query reaches. The shard lock is held
/// only for an `Arc` clone; evaluation runs outside it. `AS OF` results
/// bypass the result cache: entries are keyed by shard generation, which
/// only ever names the *current* version.
fn query_as_of(
    shared: &Shared,
    shard: &Shard,
    at: Timestamp,
    query: &Query,
    unlocked: &mut Token<Unlocked>,
) -> Response {
    let doem = shard.state.read(unlocked).doem.snapshot();
    evaluate_failpoint(shared, unlocked);
    let t = Instant::now();
    let outcome = chorel::run_chorel_at(&doem, at, query, Strategy::Direct);
    shared.metrics.exec.record(t.elapsed());
    match outcome {
        Ok(rows) => Response::Rows(rows),
        Err(e) => query_failed(e),
    }
}

/// `UPDATE` and `MUTATE`: enter the commit pipeline, whose sequence stage
/// refuses what the shard's lineage forbids.
fn write(
    shared: &Shared,
    db: &str,
    at: Option<Timestamp>,
    kind: WriteKind,
    reply: &Arc<ReplySlot>,
    unlocked: &mut Token<Unlocked>,
) -> Option<Response> {
    let Some(shard) = shared.shard(db, unlocked) else {
        return Some(not_found("database", db));
    };
    sequence(shared, &shard, db, at, kind, reply, unlocked)
}

/// Apply one replicated history record to a local shard through the
/// **same commit pipeline as a client write** — so on a durable follower
/// the record lands in the follower's own WAL before it is visible, and
/// replication never outruns the follower's own durability. Called only
/// from the follower replay thread.
///
/// The record is sequenced once and its ack awaited; there is no retry
/// here. `Ok(false)` means the shard was promoted, which ends the old
/// lineage: `sequence` answers a replicated record `FENCED` for that
/// reason only. The follower thread is a followed shard's only writer and
/// waits for each ack before it sequences the next record, so the commit
/// queue is full only when client writes share it — after a `PROMOTE`,
/// whose refusal `sequence` returns first. Any other error, `BUSY`
/// included, ends the follower's session, and its backoff is the one
/// retry.
pub(crate) fn apply_replicated(
    shared: &Shared,
    db: &str,
    at: Timestamp,
    changes: &ChangeSet,
    unlocked: &mut Token<Unlocked>,
) -> Result<bool, String> {
    let Some(shard) = shared.shard(db, unlocked) else {
        return Err(format!("no local shard for replicated database {db:?}"));
    };
    let slot = ReplySlot::new();
    let kind = WriteKind::Replicated(changes.clone());
    // Staged (`None`): wait for the committer's ack.
    let timeout = shared.cfg.request_timeout;
    match sequence(shared, &shard, db, Some(at), kind, &slot, unlocked)
        .or_else(|| slot.wait(timeout, &shared.metrics.reply_wait, unlocked))
    {
        Some(Response::Error {
            kind: ErrKind::Fenced,
            ..
        }) => Ok(false),
        Some(Response::Error { kind, message }) => Err(format!("{}: {message}", kind.code())),
        Some(_) => Ok(true),
        None => Err("timed out waiting for a replicated record to commit".into()),
    }
}

/// Install a replicated checkpoint image as the local shard for `db`,
/// replacing whatever was there (the primary's image is authoritative —
/// a diverged or stale local shard is exactly what the image heals). Also
/// how the follower materializes an empty database when the primary's
/// tail reaches back to the beginning (a records-only rebuild needs a
/// shard to apply into). The new shard starts on the batch's `lineage`,
/// keeping the old shard's fence. `Ok(false)` means the local shard was
/// promoted and keeps its own lineage. Called only from the follower
/// replay thread.
pub(crate) fn install_replicated(
    shared: &Arc<Shared>,
    db: &str,
    doem: DoemDatabase,
    last_at: Timestamp,
    lineage: Lineage,
    unlocked: &mut Token<Unlocked>,
) -> Result<bool, String> {
    match install_shard(shared, db, doem, last_at, Install::Replicated(lineage), unlocked) {
        Ok(_) => Ok(true),
        Err(InstallError::Promoted) => Ok(false),
        Err(e) => Err(e.describe("snapshot install", db).1),
    }
}

fn promote(shared: &Shared, db: &str, shard: &Shard, unlocked: &mut Token<Unlocked>) -> Response {
    let (epoch, applied) = match pipeline::promote(shard, db, unlocked) {
        Ok(promoted) => promoted,
        Err(refused) => return refused,
    };
    Metrics::bump(&shared.metrics.promotions);
    // Best effort: tell the old primary it is deposed, so its clients get
    // the typed `FENCED` error instead of writing into a lineage nobody
    // replicates anymore. A dead or partitioned primary can't be reached
    // — its stale batches are rejected by epoch comparison when it comes
    // back.
    if let Some(primary) = &shared.cfg.follow {
        let _ = fence_peer(primary, db, epoch, unlocked);
    }
    Response::Ok(format!(
        "promoted {db}; epoch {epoch} at {}",
        lsn_to_wire(applied)
    ))
}

/// Dial `addr` and send one `FENCE <db> <epoch>` (short timeout, no
/// retries — fencing a dead primary must not stall the promotion).
fn fence_peer(
    addr: &str,
    db: &str,
    epoch: u64,
    unlocked: &mut Token<Unlocked>,
) -> std::io::Result<Response> {
    unlocked.blocking(|| {
        let mut client = crate::tcp::WireClient::connect(addr)?;
        client.set_timeout(Some(Duration::from_millis(500)))?;
        client.roundtrip(&format!("FENCE {db} {epoch}"))
    })
}

#[cfg(test)]
mod tests {
    use crate::service::testing::guide_service;
    use crate::{ErrKind, Response, ServeConfig};
    use std::sync::atomic::Ordering;

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
}
