//! Concurrency smoke test for the serve crate: many sessions, mixed
//! reads and writes, no deadlock, no lock poisoning, and — the part that
//! matters — every answer identical to a fresh single-threaded
//! evaluation of the same state.

use chorel::{canonical_row_strings, run_both_checked};
use doem::doem_from_history;
use oem::guide::{guide_figure2, history_example_2_3};
use oem::{parse_change_set, ArcTriple, History, OemDatabase, Timestamp, Value};
use serve::{ErrKind, FaultMode, FaultPoint, Faults, Response, ServeConfig, Service, WireClient};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

fn ts(s: &str) -> Timestamp {
    s.parse().unwrap()
}

/// Reference answer: evaluate through `run_both_checked` (which itself
/// asserts the two Chorel strategies agree) and render with the same
/// canonical row printer the server uses.
fn baseline(d: &doem::DoemDatabase, query: &str) -> Vec<String> {
    canonical_row_strings(d, &run_both_checked(d, query).unwrap())
}

const READ_POOL: &[&str] = &[
    "select guide.restaurant",
    "select guide.restaurant.name",
    "select guide.restaurant.name<cre at T> where T < 1Feb97",
    "select T from guide.restaurant.price<upd at T>",
    "select R from guide.restaurant R where R.price < 50",
];

#[test]
fn eight_sessions_of_mixed_reads_and_writes_agree_with_baseline() {
    let svc = Service::start(ServeConfig {
        workers: 6,
        queue_depth: 128,
        request_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
    // `guide` stays immutable below; readers check it against this.
    let frozen = doem_from_history(&guide_figure2(), &history_example_2_3()).unwrap();

    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const ROUNDS: usize = 25;

    thread::scope(|scope| {
        // Readers: the immutable database must answer identically to the
        // single-threaded baseline on every iteration, while writers
        // hammer their own databases through the same worker pool.
        for r in 0..READERS {
            let client = svc.client();
            let frozen = &frozen;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let q = READ_POOL[(r + i) % READ_POOL.len()];
                    let rows = client.query("guide", q).unwrap_or_else(|e| {
                        panic!("reader {r} iteration {i} failed: {e:?}")
                    });
                    assert_eq!(rows, baseline(frozen, q), "reader {r} query {q:?}");
                }
            });
        }
        // Writers: each owns a private database and grows a chain of
        // leaves under the root, interleaved with queries over it.
        for w in 0..WRITERS {
            let client = svc.client();
            scope.spawn(move || {
                let db = format!("w{w}");
                let resp = client.request_line(&format!("CREATE {db}"));
                assert!(!resp.is_error(), "writer {w}: {resp:?}");
                // CREATE makes an empty root; its id is allocated by the
                // database, so discover it via GEN-free bootstrap: the
                // root of an OemDatabase::new is always the first id.
                for i in 0..ROUNDS {
                    let id = 100 + i;
                    let line = format!(
                        "UPDATE {db} AT 2Jan97 {}:{:02}pm ; \
                         {{creNode(n{id}, {i}), addArc(n1, item, n{id})}}",
                        1 + i / 60,
                        i % 60
                    );
                    let resp = client.request_line(&line);
                    assert!(!resp.is_error(), "writer {w} op {i}: {resp:?}");
                    if i % 5 == 4 {
                        let rows = client.query(&db, &format!("select {db}.item")).unwrap();
                        assert_eq!(rows.len(), i + 1, "writer {w} sees its own writes");
                    }
                }
            });
        }
    });

    // Every writer database must now equal a fresh single-threaded
    // construction of the same change sequence.
    for w in 0..WRITERS {
        let db = format!("w{w}");
        let mut replica = oem::OemDatabase::new(db.clone());
        let mut doem = doem::DoemDatabase::from_snapshot(&replica);
        for i in 0..25 {
            let id = 100 + i;
            let changes =
                parse_change_set(&format!("{{creNode(n{id}, {i}), addArc(n1, item, n{id})}}"))
                    .unwrap();
            doem::apply_set(
                &mut doem,
                &mut replica,
                &changes,
                ts(&format!("2Jan97 {}:{:02}pm", 1 + i / 60, i % 60)),
            )
            .unwrap();
        }
        let client = svc.client();
        for q in [format!("select {db}.item"), format!("select {db}.<add at T>item")] {
            let served = client.query(&db, &q).unwrap();
            assert_eq!(served, baseline(&doem, &q), "writer db {db} query {q:?}");
        }
    }

    // The run must have produced real queue/exec traffic and no poisoned
    // locks (a poison would have panicked a worker and hung a reply).
    let Response::Rows(stats) = svc.client().request_line("STATS") else {
        panic!("STATS failed")
    };
    let get = |name: &str| -> u64 {
        stats
            .iter()
            .find(|l| l.starts_with(&format!("latency {name} ")) || l.starts_with(&format!("counter {name} ")))
            .and_then(|l| {
                if l.starts_with("counter") {
                    l.rsplit(' ').next()?.parse().ok()
                } else {
                    l.split("count=").nth(1)?.split(' ').next()?.parse().ok()
                }
            })
            .unwrap_or_else(|| panic!("stat {name} missing: {stats:?}"))
    };
    assert!(get("queue") > 0, "queue-wait histogram must be populated");
    assert!(get("exec") > 0, "exec histogram must be populated");
    assert!(get("requests") > 100);
    assert_eq!(get("timeouts"), 0);
    // The retained-records gauge reflects the live replication tails.
    let retained = stats
        .iter()
        .find_map(|l| l.strip_prefix("gauge retained_lsns "))
        .and_then(|v| v.parse::<usize>().ok())
        .expect("retained_lsns gauge present");
    assert!(
        retained > 0,
        "replication tails must retain the records just written"
    );
    svc.shutdown();
}

#[test]
fn cache_invalidation_keeps_results_fresh_under_interleaving() {
    let svc = Service::start(ServeConfig::default()).unwrap();
    svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
    let client = svc.client();
    let q = "select guide.restaurant";
    // Warm the cache, write, and confirm the next read re-evaluates; do
    // it repeatedly so a stale-cache bug has many chances to show.
    let mut expected = client.query("guide", q).unwrap().len();
    for i in 0..10 {
        let _ = client.query("guide", q).unwrap(); // cache hit
        let id = 500 + i;
        let resp = client.request_line(&format!(
            "UPDATE guide AT 1Apr97 {}:00pm ; {{creNode(n{id}, C), addArc(n4, restaurant, n{id})}}",
            1 + i
        ));
        assert!(!resp.is_error(), "{resp:?}");
        let rows = client.query("guide", q).unwrap();
        expected += 1;
        assert_eq!(rows.len(), expected, "stale cache after write {i}");
    }

    // The same over TCP, where the cached text is answered on the
    // session's own thread: once a session has read its `UPDATE` ack,
    // its next `QUERY` reflects that write — never the generation before
    // — while a second session hammers the same cached text.
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let line = format!("QUERY guide {q}");
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let (stop, line) = (&stop, &line);
        scope.spawn(move || {
            let mut hammer = WireClient::connect(addr).unwrap();
            let mut last = 0;
            while !stop.load(Ordering::SeqCst) {
                let Response::Rows(rows) = hammer.roundtrip(line).unwrap() else {
                    panic!("hammer query failed")
                };
                assert!(rows.len() >= last, "a reader went back in time");
                last = rows.len();
            }
        });
        let mut writer = WireClient::connect(addr).unwrap();
        for i in 0..50 {
            let id = 600 + i;
            let resp = writer
                .roundtrip(&format!(
                    "UPDATE guide AT 2Apr97 {}:{:02}pm ; \
                     {{creNode(n{id}, C), addArc(n4, restaurant, n{id})}}",
                    1 + i / 60,
                    i % 60
                ))
                .unwrap();
            assert!(!resp.is_error(), "{resp:?}");
            expected += 1;
            for _ in 0..3 {
                let Response::Rows(rows) = writer.roundtrip(line).unwrap() else {
                    panic!("query after write {i} failed")
                };
                assert_eq!(rows.len(), expected, "stale read after acked write {i}");
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    assert!(
        svc.metrics().inline_replies.load(Ordering::Relaxed) >= 100,
        "the repeats after each write are cache hits answered at the edge"
    );
    handle.stop();
    svc.shutdown();
}

/// A rejected `UPDATE` leaves no trace — not the nodes it created, not
/// the arcs it removed, not the values it set before the failing
/// operation — on an in-memory shard (applied in place) and on a durable
/// one (applied to the sequencing head first).
#[test]
fn rejected_update_leaves_no_trace_for_the_next_write() {
    let wal_dir = std::env::temp_dir().join(format!("serve-rejected-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    for wal_dir in [None, Some(wal_dir.clone())] {
        let durable = wal_dir.is_some();
        let svc = Service::start(ServeConfig {
            wal_dir,
            ..ServeConfig::default()
        })
        .unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        let client = svc.client();
        let q = "select guide.restaurant.price";
        let before = svc.doem_snapshot("guide").unwrap();

        let resp = client.request_line(
            "UPDATE guide AT 1Apr97 1:00pm ; {creNode(n700, 1), remArc(n4, restaurant, n6), \
             updNode(n1, 99), addArc(n999, x, n700)}",
        );
        assert!(
            matches!(&resp, Response::Error { kind: ErrKind::Conflict, .. }),
            "durable={durable}: {resp:?}"
        );
        // The published graph itself, not a cached answer about it.
        assert!(
            doem::same_doem(&svc.doem_snapshot("guide").unwrap(), &before),
            "durable={durable}"
        );

        // A valid write goes through, and `n700` is still not there to
        // attach afterwards.
        let resp = client.request_line("UPDATE guide AT 1Apr97 2:00pm ; {updNode(n1, 25)}");
        assert!(!resp.is_error(), "durable={durable}: {resp:?}");
        let resp = client.request_line("UPDATE guide AT 1Apr97 3:00pm ; {addArc(n4, y, n700)}");
        assert!(
            matches!(&resp, Response::Error { kind: ErrKind::Conflict, .. }),
            "durable={durable}: {resp:?}"
        );
        // The id was never used, so it can be created for real.
        let resp = client.request_line(
            "UPDATE guide AT 1Apr97 4:00pm ; {creNode(n700, 2), addArc(n4, y, n700)}",
        );
        assert!(!resp.is_error(), "durable={durable}: {resp:?}");
        assert_eq!(
            client.query("guide", "select guide.y").unwrap().len(),
            1,
            "durable={durable}"
        );
        let full = svc.doem_snapshot("guide").unwrap();
        full.check_invariants().unwrap();
        assert_eq!(client.query("guide", q).unwrap(), baseline(&full, q));
        svc.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// The applied-LSN wire form (`LSN <db>` → `applied <lsn> …`).
fn applied_lsn(client: &serve::Client, db: &str) -> String {
    let Response::Ok(line) = client.request_line(&format!("LSN {db}")) else {
        panic!("LSN {db} failed")
    };
    line.split_whitespace().nth(1).unwrap().to_string()
}

/// `AS OF <lsn>` must answer, live, the rows the database held when that
/// LSN was the head — from the lazy `O_t(D)` view, whatever the in-memory
/// retention horizon (`retain_lsns` 1 keeps only the newest record) — and
/// byte-identical to a direct `doem::snapshot_at` reconstruction.
#[test]
fn as_of_serves_every_recorded_point_and_falls_back_past_the_horizon() {
    for retain in [ServeConfig::default().retain_lsns, 1] {
        let svc = Service::start(ServeConfig {
            retain_lsns: retain,
            ..ServeConfig::default()
        })
        .unwrap();
        svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
        let client = svc.client();
        let q = "select guide.restaurant";
        let mut points = vec![(applied_lsn(&client, "guide"), client.query("guide", q).unwrap())];
        for i in 0..8 {
            let id = 600 + i;
            let resp = client.request_line(&format!(
                "UPDATE guide AT 1Apr97 {}:00pm ; {{creNode(n{id}, {i}), addArc(n4, restaurant, n{id})}}",
                1 + i
            ));
            assert!(!resp.is_error(), "{resp:?}");
            points.push((applied_lsn(&client, "guide"), client.query("guide", q).unwrap()));
        }
        let full = svc.doem_snapshot("guide").unwrap();
        for (lsn, want) in &points {
            let Response::Rows(rows) =
                client.request_line(&format!("QUERY guide AS OF {lsn} {q}"))
            else {
                panic!("AS OF {lsn} failed (retain={retain})")
            };
            assert_eq!(&rows, want, "AS OF {lsn} (retain={retain})");
            let at = Timestamp::from_raw_minutes(lsn.parse().unwrap());
            let replay = doem::DoemDatabase::from_snapshot(&doem::snapshot_at(&full, at));
            assert_eq!(
                rows,
                baseline(&replay, q),
                "AS OF {lsn} vs snapshot_at replay (retain={retain})"
            );
        }
        svc.shutdown();
    }
}

/// The MVCC torture leg CI reruns under `DOEM_SANITIZE=1`: a writer
/// advancing the head while a pre-write snapshot stays pinned for the
/// whole run and concurrent `AS OF` readers hop across every recorded
/// historical point. Each historical answer must be exact (the pinned
/// base point byte-identical, every later point at its frozen row
/// count), and none of it may cost a whole-database COW clone.
#[test]
fn mvcc_time_travel_under_concurrent_writers() {
    let svc = Service::start(ServeConfig {
        workers: 4,
        retain_lsns: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
    let client = svc.client();
    let q = "select guide.restaurant";

    // Pin the pre-write state two ways: a DOEM snapshot handle held
    // across the whole run, and its LSN for `AS OF` re-reads.
    let pinned = svc.doem_snapshot("guide").unwrap();
    let base_rows = baseline(&pinned, q);
    let base_lsn = applied_lsn(&client, "guide");

    // (lsn, expected row count) per committed write, shared with readers.
    let base_count = base_rows.len();
    let points = std::sync::Mutex::new(vec![(base_lsn.clone(), base_count)]);
    let done = AtomicBool::new(false);

    const WRITES: usize = 30;
    thread::scope(|scope| {
        let writer = svc.client();
        let points_ref = &points;
        let done_ref = &done;
        scope.spawn(move || {
            let mut count = base_count;
            for i in 0..WRITES {
                let id = 700 + i;
                let resp = writer.request_line(&format!(
                    "UPDATE guide AT 1May97 {}:{:02}pm ; \
                     {{creNode(n{id}, {i}), addArc(n4, restaurant, n{id})}}",
                    1 + i / 60,
                    i % 60
                ));
                assert!(!resp.is_error(), "write {i}: {resp:?}");
                count += 1;
                points_ref
                    .lock()
                    .unwrap()
                    .push((applied_lsn(&writer, "guide"), count));
            }
            done_ref.store(true, Ordering::SeqCst);
        });
        for r in 0..3 {
            let reader = svc.client();
            let points_ref = &points;
            let done_ref = &done;
            scope.spawn(move || {
                let mut i = r;
                loop {
                    let finished = done_ref.load(Ordering::SeqCst);
                    let (lsn, want) = {
                        let pts = points_ref.lock().unwrap();
                        pts[i % pts.len()].clone()
                    };
                    let Response::Rows(rows) =
                        reader.request_line(&format!("QUERY guide AS OF {lsn} {q}"))
                    else {
                        panic!("reader {r}: AS OF {lsn} failed")
                    };
                    assert_eq!(rows.len(), want, "reader {r} AS OF {lsn}");
                    i += 1;
                    if finished && i % 7 == 0 {
                        break;
                    }
                }
            });
        }
    });

    // After 30 writes under concurrent `AS OF` traffic the replication
    // tail holds at most `retain_lsns` records.
    let Response::Rows(stats) = client.request_line("STATS") else {
        panic!("STATS failed")
    };
    let retained: usize = stats
        .iter()
        .find_map(|l| l.strip_prefix("gauge retained_lsns "))
        .and_then(|v| v.parse().ok())
        .expect("retained_lsns gauge present");
    assert!(
        retained <= 16,
        "retained_lsns {retained} exceeds the horizon"
    );

    // The pinned base point still answers its exact pre-write rows, both
    // through the live view and through the held snapshot.
    let Response::Rows(rows) = client.request_line(&format!("QUERY guide AS OF {base_lsn} {q}"))
    else {
        panic!("AS OF base failed")
    };
    assert_eq!(rows, base_rows, "the pinned base point drifted");
    assert_eq!(baseline(&pinned, q), base_rows, "the held snapshot drifted");
    svc.shutdown();
}

/// A database whose self-join is expensive: `items` atomic children under
/// the root, so `select R, S from <name>.item R, <name>.item S` has
/// `items²` result rows.
fn big_database(name: &str, items: i64) -> OemDatabase {
    let mut db = OemDatabase::new(name);
    let root = db.root();
    for i in 0..items {
        let n = db.create_node(Value::Int(i));
        db.insert_arc(ArcTriple::new(root, "item", n)).unwrap();
    }
    db
}

/// Block until `svc` has started evaluating at least one fresh query
/// (`cached_query` bumps the miss counter *before* evaluating).
fn wait_for_query_start(svc: &Service, misses_before: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while svc.metrics().cache_misses.load(Ordering::Relaxed) <= misses_before {
        assert!(Instant::now() < deadline, "slow query never started");
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn slow_query_on_one_database_does_not_delay_writes_anywhere() {
    let svc = Service::start(ServeConfig {
        workers: 4,
        request_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    })
    .unwrap();
    // A self-join over `big` yields 350² = 122 500 rows — seconds of
    // evaluation, all of it outside the shard lock.
    svc.install(&big_database("big", 350), &History::new()).unwrap();
    assert!(!svc.client().request_line("CREATE other").is_error());

    let misses_before = svc.metrics().cache_misses.load(Ordering::Relaxed);
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let slow_client = svc.client();
        let done = &done;
        scope.spawn(move || {
            let resp =
                slow_client.request_line("QUERY big select R, S from big.item R, big.item S");
            done.store(true, Ordering::SeqCst);
            match resp {
                Response::Rows(rows) => assert_eq!(rows.len(), 350 * 350),
                other => panic!("slow query failed: {other:?}"),
            }
        });

        wait_for_query_start(&svc, misses_before);
        // While the slow query evaluates: writes to another database AND
        // to `big` itself (snapshot isolation — the reader holds a
        // snapshot, not the lock) must all land immediately.
        let client = svc.client();
        for i in 0..20 {
            for db in ["other", "big"] {
                let resp = client.request_line(&format!(
                    "UPDATE {db} AT 1Mar97 {}:{:02}pm ; \
                     {{creNode(n{}, {i}), addArc(n1, fresh, n{})}}",
                    1 + i / 60,
                    i % 60,
                    9000 + i,
                    9000 + i
                ));
                assert!(!resp.is_error(), "write {i} to {db}: {resp:?}");
            }
        }
        assert!(
            !done.load(Ordering::SeqCst),
            "the slow query finished before the writes — grow the database \
             until the writes demonstrably overlap it"
        );
    });

    // The shard generations moved while the query ran.
    let c = svc.client();
    assert_eq!(c.request_line("GEN other"), Response::Ok("21".into()));
    assert_eq!(c.request_line("GEN big"), Response::Ok("21".into()));
    svc.shutdown();
}

/// Liveness: a health check must not queue behind evaluation. With the
/// only worker wedged by a slow query, the probe verbs and a cached read
/// still answer at once — they never enter the queue.
#[test]
fn probes_and_cached_reads_answer_while_every_worker_is_busy() {
    let svc = Service::start(ServeConfig {
        workers: 1,
        request_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&big_database("big", 250), &History::new()).unwrap();
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let cached = "QUERY big select big.item";
    let Response::Rows(primed) = svc.client().request_line(cached) else {
        panic!("prime failed")
    };
    assert_eq!(primed.len(), 250);
    let lsn = svc.client().request_line("LSN big");

    let misses_before = svc.metrics().cache_misses.load(Ordering::Relaxed);
    // The worker records an `exec` sample when an evaluation ends: while
    // this count stands still, the slow query still holds the worker.
    let evaluated_before = svc.metrics().exec.count();
    thread::scope(|scope| {
        scope.spawn(move || {
            let mut a = WireClient::connect(addr).unwrap();
            let resp = a
                .roundtrip("QUERY big select R, S from big.item R, big.item S")
                .unwrap();
            assert!(matches!(resp, Response::Rows(ref r) if r.len() == 250 * 250));
        });
        wait_for_query_start(&svc, misses_before);

        let mut b = WireClient::connect(addr).unwrap();
        for (line, expected) in [
            ("PING", Response::Ok("pong".into())),
            ("GEN big", Response::Ok("1".into())),
            ("LSN big", lsn.clone()),
            ("DBS", Response::Rows(vec!["big".into()])),
            (cached, Response::Rows(primed.clone())),
            ("#t PING", Response::Ok("pong".into())),
        ] {
            let began = Instant::now();
            assert_eq!(b.roundtrip(line).unwrap(), expected, "{line}");
            let elapsed = began.elapsed();
            assert!(
                elapsed < Duration::from_millis(50),
                "{line} took {elapsed:?} behind a busy worker"
            );
        }
        let began = Instant::now();
        let stats = b.roundtrip("STATS").unwrap().render();
        assert!(began.elapsed() < Duration::from_millis(50), "STATS behind a busy worker");
        assert!(stats.contains("\nROW gauge read_only_shards 0\n"), "{stats}");
        assert_eq!(
            svc.metrics().exec.count(),
            evaluated_before,
            "the slow query finished before the probes — grow the database \
             until they demonstrably overlap it"
        );
    });
    handle.stop();
    svc.shutdown();
}

#[test]
fn pipelined_requests_complete_out_of_order_with_matching_tags() {
    let svc = Service::start(ServeConfig {
        workers: 4,
        request_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&big_database("big", 250), &History::new()).unwrap();
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let mut wire = WireClient::connect(handle.addr()).unwrap();

    // A slow self-join first, then a trivial PING on the same connection:
    // the PING's response must overtake the query's.
    wire.send("#slow QUERY big select R, S from big.item R, big.item S")
        .unwrap();
    wire.send("#fast PING").unwrap();
    let (first_tag, first) = wire.recv().unwrap();
    assert_eq!(first_tag.as_deref(), Some("fast"), "PING must overtake: {first:?}");
    assert_eq!(first, Response::Ok("pong".into()));
    let (second_tag, second) = wire.recv().unwrap();
    assert_eq!(second_tag.as_deref(), Some("slow"));
    assert!(matches!(second, Response::Rows(ref r) if r.len() == 250 * 250));

    // Responses carry whichever tag their request did, so completion
    // order never scrambles attribution: distinct GENs per database.
    let c = svc.client();
    assert!(!c.request_line("CREATE a").is_error());
    assert!(!c.request_line("CREATE b").is_error());
    assert!(!c
        .request_line("UPDATE a AT 1Mar97 9:00am ; {creNode(n10, 1), addArc(n1, x, n10)}")
        .is_error());
    wire.send("#gen-a GEN a").unwrap();
    wire.send("#gen-b GEN b").unwrap();
    wire.send("#gen-all GEN").unwrap();
    let mut by_tag = std::collections::HashMap::new();
    for _ in 0..3 {
        let (tag, resp) = wire.recv().unwrap();
        by_tag.insert(tag.unwrap(), resp);
    }
    assert_eq!(by_tag["gen-a"], Response::Ok("2".into()));
    assert_eq!(by_tag["gen-b"], Response::Ok("1".into()));
    assert!(matches!(by_tag["gen-all"], Response::Ok(_)));

    assert!(svc.metrics().pipelined.load(Ordering::Relaxed) >= 5);
    handle.stop();
    svc.shutdown();
}

#[test]
fn admission_control_and_timeouts_are_reported_not_hung() {
    // A tiny queue and short timeout: flooding must yield BUSY/TIMEOUT
    // errors (or success), never a hang — the scope join is the assertion.
    let svc = Service::start(ServeConfig {
        workers: 1,
        queue_depth: 2,
        request_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
    thread::scope(|scope| {
        for _ in 0..16 {
            let client = svc.client();
            scope.spawn(move || {
                let resp = client.request_line("QUERY guide select guide.restaurant");
                match resp {
                    Response::Rows(_) => {}
                    Response::Error { kind, .. } => {
                        assert!(matches!(kind, ErrKind::Busy | ErrKind::Timeout), "{kind:?}")
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            });
        }
    });
    svc.shutdown();
}

/// A tagged request that outlives the request timeout is answered
/// `TIMEOUT` exactly once — at its deadline, whether it is evaluating or
/// still queued behind the one that is — and its late result is
/// discarded, not written; the session keeps serving.
#[test]
fn tagged_requests_time_out_once_and_the_session_keeps_serving() {
    let svc = Service::start(ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&big_database("big", 150), &History::new())
        .unwrap();
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let mut wire = WireClient::connect(handle.addr()).unwrap();
    let m = svc.metrics();
    let timeouts_before = m.timeouts.load(Ordering::Relaxed);
    let evaluated_before = m.exec.count();

    let began = Instant::now();
    wire.send("#slow QUERY big select R, S from big.item R, big.item S")
        .unwrap();
    wire.send("#queued QUERY big select big.item").unwrap();
    wire.send("#p PING").unwrap();
    let (tag, resp) = wire.recv().unwrap();
    assert_eq!(tag.as_deref(), Some("p"), "{resp:?}");
    assert_eq!(resp, Response::Ok("pong".into()));
    let mut timed_out: Vec<String> = (0..2)
        .map(|_| {
            let (tag, resp) = wire.recv().unwrap();
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        kind: ErrKind::Timeout,
                        ..
                    }
                ),
                "{tag:?}: {resp:?}"
            );
            tag.unwrap()
        })
        .collect();
    let elapsed = began.elapsed();
    timed_out.sort();
    assert_eq!(timed_out, ["queued", "slow"]);
    assert!(
        elapsed < Duration::from_secs(1),
        "timeouts took {elapsed:?}"
    );
    assert_eq!(
        m.exec.count(),
        evaluated_before,
        "the slow query finished before its deadline — grow the database \
         until it outlives it"
    );
    assert_eq!(m.timeouts.load(Ordering::Relaxed), timeouts_before + 2);

    // Both evaluations finish; their replies are dropped, so the next
    // frame on the wire is the next request's.
    let deadline = Instant::now() + Duration::from_secs(60);
    while m.exec.count() < evaluated_before + 2 {
        assert!(
            Instant::now() < deadline,
            "the timed-out queries never finished"
        );
        thread::sleep(Duration::from_millis(5));
    }
    wire.send("#z PING").unwrap();
    let (tag, resp) = wire.recv().unwrap();
    assert_eq!(tag.as_deref(), Some("z"), "{resp:?}");
    assert_eq!(resp, Response::Ok("pong".into()));
    assert_eq!(m.timeouts.load(Ordering::Relaxed), timeouts_before + 2);
    handle.stop();
    svc.shutdown();
}

/// One slow disk must not hold up unrelated readers: while eight tagged
/// writes to `a` wait out a stalled fsync, another session's tagged
/// query on `b` is answered at once — and the writes are all acked once
/// the disk comes back.
#[test]
fn a_slow_disk_on_one_database_does_not_delay_pipelined_replies_on_another() {
    let dir = std::env::temp_dir().join(format!("serve-slow-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let faults = Faults::armed();
    let svc = Service::start(ServeConfig {
        wal_dir: Some(dir.clone()),
        faults: faults.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let c = svc.client();
    for line in [
        "CREATE a",
        "CREATE b",
        "UPDATE b AT now ; {creNode(n10, 0), addArc(n1, x, n10)}",
        "UPDATE b AT now ; {creNode(n11, 1), addArc(n1, x, n11)}",
        "UPDATE b AT now ; {creNode(n12, 2), addArc(n1, x, n12)}",
    ] {
        let resp = c.request_line(line);
        assert!(!resp.is_error(), "{line}: {resp:?}");
    }
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let mut session_a = WireClient::connect(handle.addr()).unwrap();
    let mut session_b = WireClient::connect(handle.addr()).unwrap();

    let m = svc.metrics();
    let fsyncs_before = m.wal_fsyncs.load(Ordering::Relaxed);
    let writes_before = m.writes.load(Ordering::Relaxed);
    assert!(faults.arm_next(FaultPoint::WalFsync, 1, FaultMode::Stall(1500)));
    for i in 0..8 {
        session_a
            .send(&format!(
                "#w{i} UPDATE a AT now ; {{creNode(n{}, {i}), addArc(n1, y, n{})}}",
                100 + i,
                100 + i
            ))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while m.writes.load(Ordering::Relaxed) < writes_before + 8 {
        assert!(
            Instant::now() < deadline,
            "the writes to a were never submitted"
        );
        thread::sleep(Duration::from_millis(1));
    }

    let began = Instant::now();
    session_b.send("#q QUERY b select b.x").unwrap();
    let (tag, resp) = session_b.recv().unwrap();
    let elapsed = began.elapsed();
    assert_eq!(tag.as_deref(), Some("q"));
    assert!(
        matches!(resp, Response::Rows(ref r) if r.len() == 3),
        "{resp:?}"
    );
    assert!(
        elapsed < Duration::from_millis(200),
        "a query on b waited {elapsed:?} behind a slow disk on a"
    );
    assert_eq!(
        m.wal_fsyncs.load(Ordering::Relaxed),
        fsyncs_before,
        "the stalled fsync ended before the query was answered"
    );

    let mut acked: Vec<String> = (0..8)
        .map(|_| {
            let (tag, resp) = session_a.recv().unwrap();
            assert!(matches!(resp, Response::Ok(_)), "{tag:?}: {resp:?}");
            tag.unwrap()
        })
        .collect();
    acked.sort();
    let mut want: Vec<String> = (0..8).map(|i| format!("w{i}")).collect();
    want.sort();
    assert_eq!(acked, want);
    handle.stop();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
