//! The request executor: [`execute`] dispatches a parsed [`Request`] to
//! one handler per verb. Queries resolve their shard, snapshot it, and
//! evaluate lock-free; writes (and the follower's replicated records)
//! enter the shard's commit pipeline; QSS/registry requests take the
//! control lock. [`edge_reply`] is the part of it that cannot block —
//! the probe verbs and result-cache hits — which the submitting thread
//! runs before the admission queue.

use super::client::ReplySlot;
use super::pipeline::{sequence, WriteKind};
use super::recovery::{install_shard, last_lsn};
use super::shard::Shard;
use super::{ControlState, Shared};
use crate::cache::{CacheEntry, CacheKey, ResultCache};
use crate::metrics::Metrics;
use crate::protocol::{lsn_to_wire, ErrKind, Request, Response};
use crate::replication::primary::serve_replicate;
use chorel::{canonical_row_strings, run_chorel_parsed, Strategy};
use doem::{DoemDatabase, SharedDoem};
use lorel::ast::Query;
use oem::{ChangeSet, OemDatabase, Timestamp};
use qss::Subscription;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answer `req` if that needs no evaluation and no pipeline: the probe
/// verbs always, a current-version `QUERY` / `SUBQUERY` when its result
/// is cached at the current generation. Only brief read locks are taken
/// and none is held across another, so [`Client::begin`](super::Client)
/// calls this on the submitting thread; `None` sends the request to the
/// worker pool.
pub(crate) fn edge_reply(shared: &Shared, req: &Request) -> Option<Response> {
    Some(match req {
        Request::Ping => Response::Ok("pong".into()),
        Request::Quit => Response::Ok("bye".into()),
        Request::Generation { db: None } => {
            Response::Ok(shared.global_gen.load(Ordering::Relaxed).to_string())
        }
        Request::Generation { db: Some(db) } => with_shard(shared, db, |shard| {
            Response::Ok(shard.state.read().generation.to_string())
        }),
        Request::ListDbs => Response::Rows(shared.database_names()),
        Request::Lsn { db } => with_shard(shared, db, |shard| {
            let (applied, durable, epoch) = shard.lsn_fields();
            Response::Ok(format!("applied {applied} durable {durable} epoch {epoch}"))
        }),
        Request::Query {
            db,
            key,
            as_of: None,
            ..
        } => {
            let shard = shared.shard(db)?;
            let generation = shard.state.read().generation;
            return cache_lookup(shared, &shard.cache, &current_key(db, key, generation));
        }
        Request::SubQuery { id, key, .. } => {
            let key = sub_key(shared, id, key).ok()?;
            return cache_lookup(shared, &shared.sub_cache, &key);
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
) -> Option<Response> {
    Some(match req {
        // Never queued — `Client::begin` answers these through
        // `edge_reply` — but `execute` stays total over the verbs.
        Request::Ping
        | Request::Quit
        | Request::Generation { .. }
        | Request::ListDbs
        | Request::Lsn { .. } => return edge_reply(shared, &req),
        Request::Stats => stats(shared),
        Request::Create { db } => create(shared, &db),
        Request::Save { db } => save(shared, &db),
        Request::Load { db } => load(shared, &db),
        Request::Query {
            db,
            query,
            key,
            as_of,
        } => with_shard(shared, &db, |shard| match as_of {
            Some(at) => query_as_of(shared, shard, at, &query),
            None => query_current(shared, shard, &db, &key, &query),
        }),
        Request::SubQuery { id, query, key } => subquery(shared, &id, &key, &query),
        Request::Update { db, at, changes } => {
            return write(shared, &db, at, WriteKind::Update(changes), reply)
        }
        Request::Mutate { db, at, stmt } => {
            return write(shared, &db, at, WriteKind::Mutate(stmt), reply)
        }
        Request::Define { program } => define(shared, &program),
        Request::Subscribe {
            id,
            polling,
            filter,
            freq,
        } => subscribe(shared, id, &polling, &filter, freq),
        Request::Unsubscribe { id } => unsubscribe(shared, &id),
        Request::Tick { until } => tick(shared, until),
        Request::Replicate { db, from, peer } => {
            serve_replicate(shared, &db, from, peer.as_deref())
        }
        Request::Promote { db } => with_shard(shared, &db, |shard| promote(shared, &db, shard)),
        Request::Fence { db, epoch } => with_shard(shared, &db, |shard| fence(&db, shard, epoch)),
        Request::Notes { id } => notes(shared, &id),
    })
}

fn not_found(what: &str, name: &str) -> Response {
    Response::err(ErrKind::NotFound, format!("no {what} named {name:?}"))
}

fn query_failed(e: impl std::fmt::Display) -> Response {
    Response::err(ErrKind::Conflict, format!("query failed: {e}"))
}

/// Run `f` against database `db`'s shard, or answer `NOTFOUND`.
fn with_shard(shared: &Shared, db: &str, f: impl FnOnce(&Arc<Shard>) -> Response) -> Response {
    match shared.shard(db) {
        Some(shard) => f(&shard),
        None => not_found("database", db),
    }
}

fn stats(shared: &Shared) -> Response {
    let mut rows = shared.metrics.render();
    let mut read_only = 0usize;
    let mut retained = 0usize;
    for (name, shard) in &shared.shards_by_name() {
        read_only += usize::from(shard.is_read_only());
        retained += shard.versions.lock().len();
        let (applied, durable, epoch) = shard.lsn_fields();
        let mut line = format!("lsn {name} applied={applied} durable={durable} epoch={epoch}");
        if shared.cfg.follow.is_some() {
            if let Some(p) = shared.repl.observed_primary_lsn(name) {
                line.push_str(&format!(" primary={}", lsn_to_wire(p)));
            }
        }
        rows.push(line);
    }
    rows.push(format!("gauge read_only_shards {read_only}"));
    rows.push(format!("gauge retained_lsns {retained}"));
    let qss = shared.control.read().qss.stats();
    rows.push(format!("counter qss_polls_elided {}", qss.polls_elided));
    rows.push(format!("counter qss_filters_anchored {}", qss.filters_anchored));
    rows.push(format!(
        "counter qss_filters_proven_empty {}",
        qss.filters_proven_empty
    ));
    rows.push(format!("counter qss_filters_full {}", qss.filters_full));
    Response::Rows(rows)
}

/// Install `doem` as database `db` and answer `<done> <db>; generation
/// <g>`, or the shared install refusal for the operation `what`.
fn install_response(
    shared: &Arc<Shared>,
    db: &str,
    doem: DoemDatabase,
    must_be_new: bool,
    what: &str,
    done: &str,
) -> Response {
    let last_at = last_lsn(&doem);
    match install_shard(shared, db, doem, last_at, must_be_new) {
        Ok(g) => Response::Ok(format!("{done} {db}; generation {g}")),
        Err(e) => {
            let (kind, message) = e.describe(what, db);
            Response::err(kind, message)
        }
    }
}

fn create(shared: &Arc<Shared>, db: &str) -> Response {
    if let Some(resp) = refuse_follower_write(shared) {
        return resp;
    }
    // With durability on, `install_shard` checkpoints the empty image
    // under the map lock: the database exists across a crash from the
    // moment CREATE is acknowledged.
    let doem = DoemDatabase::from_snapshot(&OemDatabase::new(db.to_string()));
    install_response(shared, db, doem, true, "create", "created")
}

fn save(shared: &Shared, db: &str) -> Response {
    let Some(store) = &shared.store else {
        return Response::err(ErrKind::Io, "no store configured");
    };
    with_shard(shared, db, |shard| {
        // Snapshot under the read lock, write the image outside it.
        let doem = shard.state.read().doem.snapshot();
        match store.save_doem(db, &doem) {
            Ok(()) => Response::Ok(format!("saved {db}")),
            Err(e) => Response::err(ErrKind::Io, format!("save failed: {e}")),
        }
    })
}

fn load(shared: &Arc<Shared>, db: &str) -> Response {
    if let Some(resp) = refuse_follower_write(shared) {
        return resp;
    }
    let Some(store) = &shared.store else {
        return Response::err(ErrKind::Io, "no store configured");
    };
    match store.load_doem(db) {
        Ok(doem) => install_response(shared, db, doem, false, "load", "loaded"),
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

/// Answer `query` from `cache` under `key`, or evaluate it over the
/// snapshot `load` produces — with every lock already dropped — and cache
/// the canonical rows. `maintainable` entries keep their raw engine rows
/// so the publish stage can carry them across writes instead of
/// invalidating them.
fn cached_query(
    shared: &Shared,
    cache: &ResultCache,
    key: CacheKey,
    query: &Query,
    maintainable: bool,
    load: impl FnOnce() -> Result<SharedDoem, Response>,
) -> Response {
    if let Some(hit) = cache_lookup(shared, cache, &key) {
        return hit;
    }
    let doem = match load() {
        Ok(doem) => doem,
        Err(resp) => return resp,
    };
    Metrics::bump(&shared.metrics.cache_misses);
    let t = Instant::now();
    let outcome = run_chorel_parsed(&doem, query, Strategy::Direct);
    shared.metrics.exec.record(t.elapsed());
    match outcome {
        Ok(result) => {
            let rows = canonical_row_strings(&doem, &result);
            let maintain = maintainable.then(|| (query.clone(), lorel::Rows { rows: result.rows }));
            cache.insert(
                key,
                Arc::new(CacheEntry {
                    strings: rows.clone(),
                    maintain,
                }),
            );
            Response::Rows(rows)
        }
        Err(e) => query_failed(e),
    }
}

/// The cache key of a current-version query against database `db`.
fn current_key(db: &str, canonical: &str, generation: u64) -> CacheKey {
    CacheKey {
        scope: db.to_string(),
        canonical: canonical.to_string(),
        generation,
    }
}

fn query_current(shared: &Shared, shard: &Shard, db: &str, key: &str, query: &Query) -> Response {
    // Snapshot: hold the shard lock only for an Arc clone.
    let (doem, generation) = {
        let st = shard.state.read();
        (st.doem.snapshot(), st.generation)
    };
    let key = current_key(db, key, generation);
    cached_query(shared, &shard.cache, key, query, true, || Ok(doem))
}

/// Evaluate a `QUERY … AS OF` at the version in force at `at`. The ring
/// version is *pinned* for the duration of the evaluation — retention GC
/// will not unlink it, so the chaos oracle's `version_snapshot` probe
/// sees the same version the read was served from. Below the retention
/// horizon (or before the base version) the ring answers `None` and the
/// read is evaluated over the paper's `O_t(D)` as a lazy view of the
/// full recorded history ([`chorel::run_chorel_at`]) — identical rows by
/// construction, since the replica is maintained in lockstep with that
/// history, at a cost set by what the query reaches. `AS OF` results
/// bypass the result cache: entries are keyed by shard generation, which
/// only ever names the *current* version.
fn query_as_of(shared: &Shared, shard: &Shard, at: Timestamp, query: &Query) -> Response {
    let pinned = shard.versions.lock().pin(at);
    let t = Instant::now();
    let outcome = match &pinned {
        Some((_, replica)) => {
            Metrics::bump(&shared.metrics.as_of_ring);
            let doem = DoemDatabase::from_snapshot(replica);
            run_chorel_parsed(&doem, query, Strategy::Direct)
                .map(|result| canonical_row_strings(&doem, &result))
        }
        None => {
            Metrics::bump(&shared.metrics.as_of_view);
            let full = shard.state.read().doem.snapshot();
            chorel::run_chorel_at(&full, at, query, Strategy::Direct)
        }
    };
    shared.metrics.exec.record(t.elapsed());
    if let Some((version_lsn, _)) = pinned {
        shard.versions.lock().unpin(version_lsn);
    }
    match outcome {
        Ok(rows) => Response::Rows(rows),
        Err(e) => query_failed(e),
    }
}

/// The cache key of a query against subscription `id`'s DOEM at the
/// control generation, or `NOTFOUND` while that DOEM does not exist.
fn sub_key(shared: &Shared, id: &str, canonical: &str) -> Result<CacheKey, Response> {
    let ctl = shared.control.read();
    if ctl.qss.doem_of(id).is_none() {
        return Err(Response::err(
            ErrKind::NotFound,
            format!("no DOEM for subscription {id:?} (not yet polled?)"),
        ));
    }
    Ok(CacheKey {
        scope: format!("sub:{id}"),
        canonical: canonical.to_string(),
        generation: ctl.generation,
    })
}

fn subquery(shared: &Shared, id: &str, key: &str, query: &Query) -> Response {
    let key = match sub_key(shared, id, key) {
        Ok(key) => key,
        Err(resp) => return resp,
    };
    // On a miss, materialize a snapshot (subscription DOEMs are small —
    // they hold poll results, not whole databases) and evaluate outside
    // the control lock. Subscription DOEMs change through polls, not the
    // publish stage, so these entries carry no maintenance state; the
    // epoch-gated tick keeps them alive across quiet polls instead.
    cached_query(shared, &shared.sub_cache, key, query, false, || {
        match shared.control.read().qss.doem_of(id) {
            Some(d) => Ok(SharedDoem::new(d.clone())),
            // Unsubscribed between the two lock acquisitions.
            None => Err(not_found("subscription", id)),
        }
    })
}

/// Followers reject client writes by construction: every state change on
/// a following instance arrives through replication replay, never
/// through the request edge. Returns the `READONLY` response to send
/// when this instance follows a primary, `None` otherwise.
fn refuse_follower_write(shared: &Shared) -> Option<Response> {
    shared.cfg.follow.as_ref().map(|primary| {
        Response::err(
            ErrKind::ReadOnly,
            format!("this instance follows {primary}; writes go to the primary"),
        )
    })
}

/// The typed `FENCED` refusal of a deposed shard; `instead` says what the
/// caller should do about it.
fn deposed(db: &str, shard: &Shard, instead: &str) -> Response {
    let epoch = shard.fenced_epoch.load(Ordering::Relaxed);
    Response::err(
        ErrKind::Fenced,
        format!("database {db:?} was deposed at epoch {epoch}; {instead}"),
    )
}

/// `UPDATE` and `MUTATE`: refuse what the shard cannot take from a
/// client — a fenced (deposed) shard answers the typed `FENCED` error,
/// the client must retry against the promoted primary, and a
/// follower-side shard that has not itself been promoted answers
/// `READONLY` — then enter the commit pipeline. Reads are never refused
/// by either condition, and replicated records bypass both: they are the
/// lineage a follower exists to replay.
fn write(
    shared: &Shared,
    db: &str,
    at: Option<Timestamp>,
    kind: WriteKind,
    reply: &Arc<ReplySlot>,
) -> Option<Response> {
    let Some(shard) = shared.shard(db) else {
        return Some(not_found("database", db));
    };
    if shard.is_fenced() {
        Metrics::bump(&shared.metrics.fenced_rejects);
        return Some(deposed(db, &shard, "writes go to the promoted primary"));
    }
    if !shard.is_promoted() {
        if let Some(resp) = refuse_follower_write(shared) {
            return Some(resp);
        }
    }
    sequence(shared, &shard, db, at, kind, reply)
}

/// Apply one replicated history record to a local shard through the
/// **same commit pipeline as a client write** — so on a durable follower
/// the record lands in the follower's own WAL before it is visible, and
/// replication never outruns the follower's own durability. Called only
/// from the follower replay thread.
pub(crate) fn apply_replicated(
    shared: &Shared,
    db: &str,
    at: Timestamp,
    changes: &ChangeSet,
) -> Result<(), String> {
    let Some(shard) = shared.shard(db) else {
        return Err(format!("no local shard for replicated database {db:?}"));
    };
    loop {
        let slot = ReplySlot::new();
        let kind = WriteKind::Update(changes.clone());
        // Staged (`None`): wait for the committer's ack.
        let resp = sequence(shared, &shard, db, Some(at), kind, &slot)
            .or_else(|| slot.wait(shared.cfg.request_timeout, &shared.metrics.reply_wait));
        return match resp {
            Some(Response::Error {
                kind: ErrKind::Busy,
                ..
            }) => {
                // Queue full: replication has no client to push back on,
                // so yield and retry until the committer drains.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Some(Response::Error { kind, message }) => Err(format!("{}: {message}", kind.code())),
            Some(_) => Ok(()),
            None => Err("timed out waiting for a replicated record to commit".into()),
        };
    }
}

/// Install a replicated checkpoint image as the local shard for `db`,
/// replacing whatever was there (the primary's image is authoritative —
/// a diverged or stale local shard is exactly what the image heals). Also
/// how the follower materializes an empty database when the primary's
/// tail reaches back to the beginning (a records-only rebuild needs a
/// shard to apply into). Called only from the follower replay thread.
pub(crate) fn install_replicated(
    shared: &Arc<Shared>,
    db: &str,
    doem: DoemDatabase,
    last_at: Timestamp,
) -> Result<(), String> {
    if crate::trace_enabled() {
        eprintln!(
            "TRACE install id={:?} db={db} last_at={} history={}",
            shared.cfg.follower_id,
            last_at.raw_minutes(),
            doem.timestamps().len(),
        );
    }
    install_shard(shared, db, doem, last_at, false)
        .map(|_| ())
        .map_err(|e| e.describe("snapshot install", db).1)
}

fn define(shared: &Shared, program: &str) -> Response {
    let mut ctl = shared.control.write();
    match ctl.registry.load(program) {
        Ok(_) => Response::Ok(format!(
            "defined; registry has {} queries",
            ctl.registry.names().len()
        )),
        Err(e) => Response::err(ErrKind::Syntax, e.to_string()),
    }
}

fn has_subscription(ctl: &ControlState, id: &str) -> bool {
    ctl.qss.subscription_ids().iter().any(|s| s == id)
}

fn subscribe(
    shared: &Shared,
    id: String,
    polling: &str,
    filter: &str,
    freq: qss::FrequencySpec,
) -> Response {
    let mut ctl = shared.control.write();
    if has_subscription(&ctl, &id) {
        return Response::err(ErrKind::Conflict, format!("subscription {id:?} exists"));
    }
    let sub = match Subscription::from_registry(id.clone(), freq, &ctl.registry, polling, filter) {
        Ok(sub) => sub,
        Err(e) => return Response::err(ErrKind::NotFound, e.to_string()),
    };
    let clock = ctl.clock;
    ctl.qss.subscribe(sub, clock);
    let g = shared.bump_control(&mut ctl);
    Response::Ok(format!("subscribed {id} at {clock}; generation {g}"))
}

fn unsubscribe(shared: &Shared, id: &str) -> Response {
    let mut ctl = shared.control.write();
    if !has_subscription(&ctl, id) {
        return not_found("subscription", id);
    }
    ctl.qss.unsubscribe(id);
    let g = shared.bump_control(&mut ctl);
    Response::Ok(format!("unsubscribed {id}; generation {g}"))
}

/// `TICK`, and each step of the background ticker: advance the simulated
/// clock to `until`, running the QSS polls that came due.
pub(crate) fn tick(shared: &Shared, until: Timestamp) -> Response {
    let mut ctl = shared.control.write();
    if until <= ctl.clock {
        return Response::Ok(format!("clock already at {}", ctl.clock));
    }
    let t = Instant::now();
    let epoch = ctl.qss.change_epoch();
    let outcome = ctl.qss.run_until(until);
    shared.metrics.exec.record(t.elapsed());
    match outcome {
        Ok(polls) => {
            ctl.clock = until;
            shared
                .metrics
                .qss_polls
                .fetch_add(polls as u64, Ordering::Relaxed);
            // The generations move only when a poll actually folded a
            // change set: a quiet tick leaves every subscription DOEM —
            // and thus every cached `sub:` answer — untouched.
            let g = if ctl.qss.change_epoch() != epoch {
                shared.bump_control(&mut ctl)
            } else {
                shared.global_gen.load(Ordering::Relaxed)
            };
            Response::Ok(format!("clock {until}; {polls} polls; generation {g}"))
        }
        Err(e) => Response::err(ErrKind::Conflict, format!("qss poll failed: {e}")),
    }
}

fn promote(shared: &Shared, db: &str, shard: &Shard) -> Response {
    if shard.is_fenced() {
        return deposed(db, shard, "promote the newer lineage");
    }
    let epoch = shard.promote();
    Metrics::bump(&shared.metrics.promotions);
    // Best effort: tell the old primary it is deposed, so its clients get
    // the typed `FENCED` error instead of writing into a lineage nobody
    // replicates anymore. A dead or partitioned primary can't be reached
    // — its stale batches are rejected by epoch comparison when it comes
    // back.
    if let Some(primary) = &shared.cfg.follow {
        let _ = fence_peer(primary, db, epoch);
    }
    let applied = shard.state.read().last_at;
    Response::Ok(format!(
        "promoted {db}; epoch {epoch} at {}",
        lsn_to_wire(applied)
    ))
}

/// Dial `addr` and send one `FENCE <db> <epoch>` (short timeout, no
/// retries — fencing a dead primary must not stall the promotion).
fn fence_peer(addr: &str, db: &str, epoch: u64) -> std::io::Result<Response> {
    let mut client = crate::tcp::WireClient::connect(addr)?;
    client.set_timeout(Some(Duration::from_millis(500)))?;
    client.roundtrip(&format!("FENCE {db} {epoch}"))
}

fn fence(db: &str, shard: &Shard, epoch: u64) -> Response {
    if shard.fence(epoch) {
        return Response::Ok(format!("fenced {db} at epoch {epoch}"));
    }
    Response::err(
        ErrKind::Conflict,
        format!(
            "stale fence: epoch {epoch} is not newer than this lineage \
             (epoch {}, fenced at {})",
            shard.epoch(),
            shard.fenced_epoch.load(Ordering::Relaxed)
        ),
    )
}

fn notes(shared: &Shared, id: &str) -> Response {
    let ctl = shared.control.read();
    if id != "*" && !has_subscription(&ctl, id) {
        return not_found("subscription", id);
    }
    let rows = ctl
        .qss
        .notifications()
        .iter()
        .filter(|n| id == "*" || n.subscription == id)
        .map(|n| format!("{} at {}: {} rows", n.subscription, n.at, n.rows()))
        .collect();
    Response::Rows(rows)
}

#[cfg(test)]
mod tests {
    use crate::service::testing::guide_service;
    use crate::{Client, ErrKind, Response, ServeConfig};
    use std::sync::atomic::Ordering;

    /// Example 6.1's registry and its nightly subscription `S1`.
    fn subscribe_s1(c: &Client) {
        let resp = c.request_line(
            "DEFINE polling query Restaurants as select guide.restaurant \
             define filter query NewRestaurants as \
             select Restaurants.restaurant<cre at T> where T > t[-1]",
        );
        assert_eq!(resp, Response::Ok("defined; registry has 2 queries".into()));
        let resp = c.request_line(
            "SUBSCRIBE S1 POLL Restaurants FILTER NewRestaurants FREQ every night at 11:30pm",
        );
        assert!(!resp.is_error(), "{resp:?}");
    }

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
        assert!(stats.iter().any(|l| l.starts_with("counter qss_filters_proven_empty ")));
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

    #[test]
    fn qss_subscription_lifecycle_example_6_1() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        subscribe_s1(&c);
        let resp = c.request_line("TICK 1Jan97 11:30pm");
        assert!(!resp.is_error(), "{resp:?}");
        // Example 6.1: two notifications (initial results + Hakata).
        let Response::Rows(notes) = c.request_line("NOTES S1") else {
            panic!("NOTES must return rows")
        };
        assert_eq!(notes.len(), 2, "{notes:?}");
        // The subscription's DOEM is queryable.
        let resp = c.request_line("SUBQUERY S1 select Restaurants.restaurant");
        assert!(matches!(resp, Response::Rows(ref r) if !r.is_empty()), "{resp:?}");
        // And cleanly removable.
        assert!(!c.request_line("UNSUBSCRIBE S1").is_error());
        assert!(c.request_line("NOTES S1").is_error());
        svc.shutdown();
    }

    #[test]
    fn qss_ticks_do_not_invalidate_database_caches() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        subscribe_s1(&c);
        let q = "QUERY guide select guide.restaurant";
        let _ = c.request_line(q); // prime the guide shard cache
        assert!(!c.request_line("TICK 1Jan97 11:30pm").is_error());
        let hits_before = svc.metrics().cache_hits.load(Ordering::Relaxed);
        let _ = c.request_line(q);
        assert_eq!(
            svc.metrics().cache_hits.load(Ordering::Relaxed),
            hits_before + 1,
            "a QSS poll must not evict database query results"
        );
        svc.shutdown();
    }

    /// A tick whose polls all come back empty must not thrash freshly
    /// cached subscription answers: the anchored window is provably empty
    /// (zero filter evaluations), the `sub:` generation stays put (zero
    /// cache writes), and the primed entry keeps answering.
    #[test]
    fn empty_delta_ticks_keep_subscription_caches_warm() {
        let svc = guide_service(ServeConfig::default());
        let c = svc.client();
        subscribe_s1(&c);
        assert!(!c.request_line("TICK 1Jan97 11:30pm").is_error());
        let sq = "SUBQUERY S1 select Restaurants.restaurant";
        let first = c.request_line(sq); // prime the sub: cache
        assert!(matches!(first, Response::Rows(ref r) if !r.is_empty()), "{first:?}");

        let stats_before = svc.shared.control.read().qss.stats();
        let entries_before = svc.shared.sub_cache.len();
        // 2Jan97 was quiet in the paper's timeline: one poll, empty diff.
        assert!(!c.request_line("TICK 2Jan97 11:30pm").is_error());
        let stats = svc.shared.control.read().qss.stats();
        assert_eq!(stats.filters_full, stats_before.filters_full);
        assert_eq!(stats.filters_anchored, stats_before.filters_anchored);
        assert_eq!(
            stats.filters_proven_empty,
            stats_before.filters_proven_empty + 1,
            "the quiet poll's filter must be proven empty, not evaluated"
        );
        assert_eq!(
            svc.shared.sub_cache.len(),
            entries_before,
            "an empty-delta tick must not write or drop cache entries"
        );

        // The primed entry still answers — a hit, not a recomputation.
        let hits_before = svc.metrics().cache_hits.load(Ordering::Relaxed);
        assert_eq!(c.request_line(sq), first);
        assert_eq!(
            svc.metrics().cache_hits.load(Ordering::Relaxed),
            hits_before + 1
        );
        svc.shutdown();
    }
}
