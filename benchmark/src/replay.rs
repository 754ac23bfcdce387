//! The traced pass: replay a workload's script single-threaded,
//! in-process, calling each layer's *public* functions in the order
//! `serve::service::execute` does, with a span around every call.
//!
//! Read: parse → canonical text → cache get → plan → execute → package →
//! canonicalise → cache insert → render → (client) read. Write: parse ops
//! → validate on the sequencing head → WAL encode → `DbWal::append_batch`
//! → `apply_set` → maintain → publish → checkpoint. `AS OF`: pin, or
//! `snapshot_at` below the ring's horizon → `from_snapshot` → evaluate.
//!
//! `serve::service` itself is private, so the glue between the layers is
//! re-stated here; the request's root span (`serve.service.*`) carries
//! that glue as its self time.

use crate::script::{Class, Dataset, Op, Script, Workload, DB, FAR_MIN_BACK};
use crate::server::{CHECKPOINT_EVERY, GROUP_COMMIT, RETAIN_LSNS};
use crate::trace::Tracer;
use chorel::{canonical_row_strings, DirectSource, EncodedSource};
use doem::{apply_set, doem_from_history, encode_doem, snapshot_at, DoemDatabase, SharedDoem};
use lorel::ast::Query;
use lorel::DataSource as _;
use oem::{ChangeSet, History, OemDatabase, SharedOem, Timestamp, VersionRing};
use serve::cache::{CacheEntry, CacheKey, ResultCache};
use serve::metrics::Metrics;
use serve::wal::{self, DbWal};
use serve::{Faults, Request, Response};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most ops of a script the replay covers. The read workloads' scripts
/// run to six figures; their per-layer means settle long before that, and
/// every span is kept in memory and written out. The write workloads'
/// scripts are shorter than this and are replayed whole, so the database
/// grows exactly as it does over the wire.
pub const REPLAY_OPS: usize = 20_000;

/// One in this many `read_cold` misses also runs the paper's section 5
/// *translated* strategy (encode, translate, run plain Lorel) beside the
/// served direct one.
const TRANSLATED_EVERY: usize = 16;

/// One staged-but-unpublished durable write.
struct Staged {
    at: Timestamp,
    changes: ChangeSet,
    frame: Vec<u8>,
}

/// The durable half of the replayed shard.
struct Durable {
    wal: DbWal,
    store: lore::LoreStore,
    seq_doem: SharedDoem,
    seq_replica: SharedOem,
    staged: Vec<Staged>,
    batches: usize,
}

/// The replayed shard: what `serve::service::Shard` holds, minus locks.
struct Shard {
    doem: SharedDoem,
    replica: SharedOem,
    generation: u64,
    last_at: Timestamp,
    cache: ResultCache,
    ring: VersionRing<SharedOem>,
    lsns: Vec<i64>,
    durable: Option<Durable>,
    metrics: Metrics,
    faults: Faults,
}

impl Shard {
    /// Build the shard the wire run's server holds after its load, by
    /// publishing every load entry onto what `CREATE` installs.
    fn loaded(data: &Dataset, cache: usize, wal_dir: Option<&Path>) -> Result<Shard, String> {
        let replica = SharedOem::new(OemDatabase::new(DB));
        let mut ring = VersionRing::new();
        ring.publish_entry(Timestamp::NEG_INFINITY, 1, replica.snapshot());
        let mut shard = Shard {
            doem: SharedDoem::new(DoemDatabase::from_snapshot(&replica)),
            replica,
            generation: 1,
            last_at: Timestamp::NEG_INFINITY,
            cache: ResultCache::new(cache),
            ring,
            lsns: Vec::new(),
            durable: None,
            metrics: Metrics::new(),
            faults: Faults::disabled(),
        };
        let mut off = Tracer::new(false);
        for (at, changes) in &data.load {
            shard.publish(&mut off, changes, *at)?;
        }
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
            let store =
                lore::LoreStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let wal = DbWal::open(store.path_of(DB).with_extension("wal"), 0)
                .map_err(|e| format!("open wal: {e}"))?;
            shard.durable = Some(Durable {
                wal,
                store,
                seq_doem: shard.doem.snapshot(),
                seq_replica: shard.replica.snapshot(),
                staged: Vec::new(),
                batches: 0,
            });
        }
        Ok(shard)
    }

    /// The publish stage: apply, maintain the cache, bump, install.
    fn publish(
        &mut self,
        tr: &mut Tracer,
        changes: &ChangeSet,
        at: Timestamp,
    ) -> Result<(), String> {
        tr.span("doem.construct.apply_set", || {
            apply_set(self.doem.make_mut(), self.replica.make_mut(), changes, at)
        })
        .map_err(|e| format!("publish at {at}: {e}"))?;
        self.last_at = at;
        let doem: &DoemDatabase = &self.doem;
        let outer = tr.enter("serve.cache.advance_generation");
        self.cache
            .advance_generation(self.generation, self.generation + 1, |query, prior| {
                tr.span("chorel.delta.maintain", || {
                    chorel::delta::maintain_rows(doem, query, changes, at, &prior.rows)
                        .ok()
                        .flatten()
                        .map(|rows| CacheEntry {
                            strings: chorel::delta::canonical_strings_for_rows(doem, &rows),
                            maintain: Some((query.clone(), rows)),
                        })
                })
            });
        tr.exit(outer);
        self.generation += 1;
        self.cache.retain_generation(self.generation);
        tr.span("oem.versioned.publish", || {
            self.ring
                .publish_entry(at, self.generation, self.replica.snapshot());
            self.ring.retain(RETAIN_LSNS)
        });
        self.lsns.push(at.raw_minutes());
        Ok(())
    }

    /// Persist the staged batch with one append+fsync, publish it, and
    /// checkpoint when due — what the group committer does per round.
    fn commit_staged(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        if d.staged.is_empty() {
            return Ok(());
        }
        let staged = std::mem::take(&mut d.staged);
        d.batches += 1;
        // One batch in eight goes down a record at a time, so the
        // single-record append has its own number beside the group's.
        let singly = d.batches % 8 == 0;
        if singly {
            for s in &staged {
                tr.span("serve.wal.append_b1", || {
                    d.wal
                        .append_batch(&[s.frame.as_slice()], &self.faults, &self.metrics)
                })
                .map_err(|e| format!("wal append: {e}"))?;
            }
        } else {
            let frames: Vec<&[u8]> = staged.iter().map(|s| s.frame.as_slice()).collect();
            let name = if frames.len() == GROUP_COMMIT {
                "serve.wal.append_b8"
            } else {
                "serve.wal.append_partial"
            };
            tr.span(name, || {
                d.wal.append_batch(&frames, &self.faults, &self.metrics)
            })
            .map_err(|e| format!("wal append: {e}"))?;
        }
        for s in &staged {
            self.publish(tr, &s.changes, s.at)?;
        }
        let d = self.durable.as_mut().expect("checked above");
        if d.wal.since_checkpoint >= CHECKPOINT_EVERY as u64 {
            let doem = self.doem.snapshot();
            tr.span("lore.store.checkpoint", || {
                d.store
                    .save_doem(DB, &doem)
                    .map_err(|e| e.to_string())
                    .and_then(|()| d.wal.truncate().map_err(|e| e.to_string()))
            })
            .map_err(|e| format!("checkpoint: {e}"))?;
        }
        Ok(())
    }
}

/// Parse `line` as the server does, charging the embedded text's own
/// parse (re-run standalone) against the protocol parse.
fn parse(
    tr: &mut Tracer,
    line: &str,
    inner: &'static str,
    reparse: impl FnOnce(),
) -> Result<Request, String> {
    let id = tr.enter("serve.protocol.parse");
    let req = serve::parse_request(line);
    tr.exit(id);
    tr.span_charged_to(id, inner, reparse);
    req.map_err(|e| format!("{line:?}: {}", e.message))
}

/// Render the response and decode it again, as the session writer and the
/// client do on either side of the socket.
fn render_and_read(tr: &mut Tracer, resp: Response) -> Result<(), String> {
    let frame = tr.span("serve.protocol.render", || resp.render());
    let back = tr.span("serve.protocol.read", || {
        Response::read_from(&mut frame.as_bytes())
    });
    match back {
        Ok(Some(_)) => Ok(()),
        other => Err(format!("rendered frame does not read back: {other:?}")),
    }
}

/// plan → execute → package → canonicalise, over the direct source.
fn evaluate(
    tr: &mut Tracer,
    d: &DoemDatabase,
    query: &Query,
) -> Result<(lorel::QueryResult, Vec<String>), String> {
    let source = DirectSource::new(d);
    let name = source.name().to_string();
    let plan = tr
        .span("lorel.plan.plan", || lorel::plan(query, &name))
        .map_err(|e| e.to_string())?;
    let rows = tr
        .span("lorel.engine.execute", || lorel::execute(&source, &plan))
        .map_err(|e| e.to_string())?;
    let result = tr.span("lorel.result.package", || {
        lorel::package(&source, &rows, &format!("{name}-result"))
    });
    let strings = tr.span("chorel.engines.canonical", || {
        canonical_row_strings(d, &result)
    });
    Ok((result, strings))
}

/// What a replay covered and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Replayed {
    /// Ops replayed.
    pub ops: usize,
    /// Wall time of the op loop alone.
    pub elapsed: Duration,
    /// Records in the WAL tail that the `serve.wal.replay` span decoded.
    pub wal_tail_records: usize,
}

/// Replay `script` for `workload` through `tr`. `wal_dir` is where the
/// durable workload keeps its log and checkpoints.
pub fn replay(
    workload: Workload,
    data: &Dataset,
    script: &Script,
    wal_dir: Option<&Path>,
    tr: &mut Tracer,
) -> Result<Replayed, String> {
    let mut shard = Shard::loaded(
        data,
        workload.cache_capacity(),
        wal_dir.filter(|_| workload.durable()),
    )?;
    let ops: Vec<&Op> = script
        .warmup
        .iter()
        .chain(script.ops.iter().take(REPLAY_OPS))
        .collect();
    let measured_from = script.warmup.len();
    let mut misses = 0usize;
    let mut began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if i == measured_from {
            // Warm-up ops run untraced, like the wire run's.
            shard.commit_staged(&mut Tracer::new(false))?;
            began = Instant::now();
        }
        let mut off = Tracer::new(false);
        let tr: &mut Tracer = if i < measured_from {
            &mut off
        } else {
            &mut *tr
        };
        tr.request((i - measured_from.min(i)) as u32);
        match op {
            Op::Read { text } => {
                let text = &script.texts[*text as usize];
                let root = tr.enter("serve.service.read");
                let line = format!("QUERY {DB} {text}");
                let req = parse(tr, &line, "lorel.parser.parse", || {
                    let _ = lorel::parse_query(text).map(|q| q.to_string());
                })?;
                let Request::Query { query, key, .. } = req else {
                    return Err(format!("{line:?} did not parse as a query"));
                };
                let ck = CacheKey {
                    scope: DB.to_string(),
                    canonical: key,
                    generation: shard.generation,
                };
                let hit = tr.span("serve.cache.get", || shard.cache.get(&ck));
                let missed = hit.is_none();
                let strings = match hit {
                    Some(entry) => entry.strings.clone(),
                    None => {
                        misses += 1;
                        let doem = shard.doem.snapshot();
                        let (result, strings) = evaluate(tr, &doem, &query)?;
                        let entry = Arc::new(CacheEntry {
                            strings: strings.clone(),
                            maintain: Some((
                                (*query).clone(),
                                lorel::Rows {
                                    rows: result.rows.clone(),
                                },
                            )),
                        });
                        tr.span("serve.cache.insert", || shard.cache.insert(ck, entry));
                        strings
                    }
                };
                render_and_read(tr, Response::Rows(strings))?;
                tr.exit(root);
                // After the request's span has closed: this is not work
                // the server does for it.
                if missed
                    && workload == Workload::ReadCold
                    && misses.is_multiple_of(TRANSLATED_EVERY)
                {
                    translated(tr, &shard.doem, &query)?;
                }
            }
            Op::AsOf { text, back } => {
                let text = &script.texts[*text as usize];
                let lsn = shard.lsns[shard.lsns.len() - 1 - *back as usize];
                let root = tr.enter(if op.class() == Class::AsOfNear {
                    "serve.service.asof_near"
                } else {
                    "serve.service.asof_far"
                });
                let line = format!("QUERY {DB} AS OF {lsn} {text}");
                let req = parse(tr, &line, "lorel.parser.parse", || {
                    let _ = lorel::parse_query(text).map(|q| q.to_string());
                })?;
                let Request::Query {
                    query,
                    as_of: Some(at),
                    ..
                } = req
                else {
                    return Err(format!("{line:?} did not parse as an AS OF query"));
                };
                let pinned = tr.span("oem.versioned.pin", || shard.ring.pin(at));
                let snapshot = match &pinned {
                    Some((_, replica)) => tr.span("doem.db.from_snapshot", || {
                        DoemDatabase::from_snapshot(replica)
                    }),
                    None => {
                        let full = shard.doem.snapshot();
                        let plain = tr.span("doem.snapshot.snapshot_at", || snapshot_at(&full, at));
                        tr.span("doem.db.from_snapshot", || {
                            DoemDatabase::from_snapshot(&plain)
                        })
                    }
                };
                if pinned.is_none() != (*back >= FAR_MIN_BACK) {
                    return Err(format!(
                        "AS OF {back} behind took the wrong path (pinned: {})",
                        pinned.is_some()
                    ));
                }
                let (_, strings) = evaluate(tr, &snapshot, &query)?;
                if let Some((version, _)) = pinned {
                    shard.ring.unpin(version);
                }
                render_and_read(tr, Response::Rows(strings))?;
                tr.exit(root);
            }
            Op::Write { changes: text } => {
                let root = tr.enter("serve.service.write");
                let line = format!("UPDATE {DB} AT now ; {text}");
                let req = parse(tr, &line, "oem.parse_ops.parse", || {
                    let _ = oem::parse_change_set(text);
                })?;
                let Request::Update {
                    changes, at: None, ..
                } = req
                else {
                    return Err(format!("{line:?} did not parse as an AT now update"));
                };
                // `AT now`, as the sequence stage resolves it: the wall
                // clock when it is ahead, else one minute past the newest
                // sequenced write.
                let staged_ahead = shard.durable.as_ref().map_or(0, |d| d.staged.len());
                let last = shard.last_at.plus_minutes(staged_ahead as i64);
                let now = serve::WallClock::system().now();
                let at = if now > last {
                    now
                } else {
                    last.plus_minutes(1)
                };
                let n = changes.len();
                if let Some(d) = &mut shard.durable {
                    tr.span("oem.changeset.validate", || {
                        apply_set(
                            d.seq_doem.make_mut(),
                            d.seq_replica.make_mut(),
                            &changes,
                            at,
                        )
                    })
                    .map_err(|e| format!("sequence at {at}: {e}"))?;
                    let frame = tr.span("serve.wal.encode", || {
                        wal::encode_record_epoch(at, &changes, 0)
                    });
                    d.staged.push(Staged { at, changes, frame });
                    if d.staged.len() == GROUP_COMMIT {
                        shard.commit_staged(tr)?;
                    }
                } else {
                    shard.publish(tr, &changes, at)?;
                }
                let ack = format!("applied {n} ops at {at}; generation {}", shard.generation);
                render_and_read(tr, Response::Ok(ack))?;
                tr.exit(root);
            }
        }
    }
    shard.commit_staged(tr)?;
    let elapsed = began.elapsed();
    let mut wal_tail_records = 0;
    if let Some(d) = &shard.durable {
        tr.request(u32::MAX);
        let tail = tr
            .span("serve.wal.replay", || wal::replay(d.wal.path()))
            .map_err(|e| format!("wal replay: {e}"))?;
        wal_tail_records = tail.entries.len();
    }
    Ok(Replayed {
        ops: ops.len() - measured_from,
        elapsed,
        wal_tail_records,
    })
}

/// The paper's section 5 alternative — encode the DOEM database in OEM,
/// translate the Chorel query to Lorel, run the plain engine — beside the
/// served direct evaluation, under its own root span.
fn translated(tr: &mut Tracer, d: &DoemDatabase, query: &Query) -> Result<(), String> {
    let root = tr.enter("section5.translated");
    let lorel_query = tr
        .span("chorel.translate.translate", || {
            chorel::translate(query, d.name())
        })
        .map_err(|e| e.to_string())?;
    let encoded = tr.span("doem.encode.encode", || {
        EncodedSource::new(encode_doem(d).oem)
    });
    tr.span("lorel.engine.execute_encoded", || {
        lorel::run_parsed(&encoded, &lorel_query)
    })
    .map_err(|e| e.to_string())?;
    tr.exit(root);
    Ok(())
}

/// Layers no workload reaches over the wire yet — recovery's `D(O, H)`
/// construction, the replication stream codec, a QSS poll cycle, OEMdiff —
/// timed on the workload's own dataset, a few calls each.
pub fn layer_only(data: &Dataset, rounds: usize, tr: &mut Tracer) -> Result<(), String> {
    let rounds = rounds.max(1);
    tr.request(u32::MAX);
    let history = History::from_entries(data.load.iter().cloned()).map_err(|e| e.to_string())?;
    let empty = OemDatabase::new(DB);
    let mut doem = None;
    for _ in 0..rounds {
        doem = Some(
            tr.span("doem.construct.from_history", || {
                doem_from_history(&empty, &history)
            })
            .map_err(|e| e.to_string())?,
        );
    }
    let doem = doem.expect("rounds >= 1");

    let tail = data.load.len().saturating_sub(64);
    let batch = serve::ReplBatch {
        db: DB.to_string(),
        from: data.load[tail.saturating_sub(1)].0,
        primary_lsn: data.load.last().expect("non-empty").0,
        snapshot: None,
        records: data.load[tail..].to_vec(),
        epoch: 0,
    };
    for _ in 0..rounds {
        let rows = tr.span("serve.replication.batch_encode", || batch.to_rows());
        tr.span("serve.replication.batch_decode", || {
            serve::ReplBatch::from_rows(&rows)
        })?;
        let image = tr.span("serve.replication.snapshot_bytes", || {
            serve::snapshot_bytes(&doem)
        });
        tr.span("serve.replication.snapshot_from_bytes", || {
            serve::snapshot_from_bytes(&image)
        })?;
    }

    // Two consecutive states of the history, diffed by id.
    let mut old = empty.clone();
    for (_, changes) in &data.load[..data.load.len() - 1] {
        changes.apply_to(&mut old).map_err(|e| e.to_string())?;
    }
    let mut new = old.clone();
    data.load
        .last()
        .expect("non-empty")
        .1
        .apply_to(&mut new)
        .map_err(|e| e.to_string())?;
    for _ in 0..rounds {
        tr.span("oemdiff.diff", || {
            oemdiff::diff(&old, &new, oemdiff::MatchMode::ById)
        })
        .map_err(|e| e.to_string())?;
    }

    // A QSS polling day: 24 hourly polls of a generator-backed source,
    // wrapper query -> diff -> DOEM append -> filter query.
    let mut registry = lorel::QueryRegistry::new();
    registry
        .load(
            "define polling query Guide as select guide.restaurant \
             define filter query News as select Guide.restaurant<cre at T> where T > t[-1]",
        )
        .map_err(|e| e.to_string())?;
    let start: Timestamp = "1Jan97".parse().expect("literal");
    for _ in 0..rounds {
        let sub = qss::Subscription::from_registry(
            "S",
            "every 1 hours".parse().map_err(|e| format!("{e:?}"))?,
            &registry,
            "Guide",
            "News",
        )
        .map_err(|e| e.to_string())?;
        let source = qss::EvolvingSource::new("gen", 5, start, 60, crate::script::RESTAURANTS, 4);
        let mut server = qss::QssServer::new(source);
        server.subscribe(sub, start);
        tr.span("qss.server.poll_day", || {
            server.run_until(start.plus_days(1))
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Polls in one `qss.server.poll_day` span.
pub const POLLS_PER_DAY: f64 = 24.0;
