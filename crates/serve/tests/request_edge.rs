//! The request edge: probe verbs and result-cache hits are answered on
//! the submitting thread, everything else goes through the worker pool —
//! and neither a client nor the metrics can tell which path served a
//! request except by the rows that say so (`inline_replies`, `queue`).

use oem::guide::{guide_figure2, history_example_2_3};
use oem::{ArcTriple, History, OemDatabase, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{ErrKind, FaultMode, FaultPoint, Faults, Response, ServeConfig, Service, WireClient};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;

fn guide_service(cfg: ServeConfig) -> Service {
    let svc = Service::start(cfg).unwrap();
    svc.install(&guide_figure2(), &history_example_2_3())
        .unwrap();
    svc
}

/// One session touching every kind of request the edge answers, beside
/// ones it must hand to the pool: repeats (cache hits with a cache,
/// evaluations without), whitespace variants of one canonical text,
/// writes between repeats, an `AS OF` read, probes, errors.
const SCRIPT: &[&str] = &[
    "PING",
    "CREATE d",
    "DBS",
    "GEN",
    "GEN d",
    "LSN d",
    "UPDATE d AT 1Mar97 9:00am ; {creNode(n10, 1), addArc(n1, item, n10)}",
    "QUERY d select d.item",
    "QUERY d select d.item",
    "QUERY d select   d . item",
    "UPDATE d AT 1Mar97 9:01am ; {creNode(n11, 2), addArc(n1, item, n11)}",
    "QUERY d select d.item",
    "QUERY d select d.item",
    "GEN d",
    "LSN d",
    "QUERY guide select guide.restaurant.name",
    "QUERY guide select guide.restaurant.name",
    "QUERY guide AS OF 1Jan97 select guide.restaurant.name",
    "UPDATE d AT 1Mar97 9:02am ; {remArc(n1, item, n10)}",
    "QUERY d select d.item",
    "QUERY d select d.item",
    "QUERY guide select guide.restaurant",
    "QUERY guide select guide.restaurant",
    "QUERY guide select  guide . restaurant",
    "GEN",
    "QUERY nosuch select nosuch.x",
    "QUERY d selec d.item",
    "GEN nosuch",
    "LSN nosuch",
    "BOGUS verb",
    "UPDATE d AT 1Mar97 9:00am ; {creNode(n12, 3), addArc(n1, item, n12)}",
    "QUERY d select d.item",
    "QUIT",
];

/// Run [`SCRIPT`] through `send`, concatenating the rendered frames.
fn transcript(mut send: impl FnMut(&str) -> Response) -> String {
    SCRIPT.iter().map(|line| send(line).render()).collect()
}

#[test]
fn transcripts_are_byte_identical_with_and_without_the_edge() {
    let mut transcripts = Vec::new();
    for cache_capacity in [0, 256] {
        // In process, then over the wire, each against a fresh service.
        let svc = guide_service(ServeConfig {
            cache_capacity,
            ..ServeConfig::default()
        });
        let client = svc.client();
        transcripts.push(transcript(|line| client.request_line(line)));
        let hits = svc.metrics().cache_hits.load(Ordering::Relaxed);
        if cache_capacity == 0 {
            assert_eq!(hits, 0, "no cache: every query is evaluated in the pool");
        } else {
            assert!(hits >= 8, "repeats must be cache hits, saw {hits}");
        }
        svc.shutdown();

        let svc = guide_service(ServeConfig {
            cache_capacity,
            ..ServeConfig::default()
        });
        let handle = svc.listen("127.0.0.1:0").unwrap();
        let mut wire = WireClient::connect(handle.addr()).unwrap();
        transcripts.push(transcript(|line| wire.roundtrip(line).unwrap()));
        assert_eq!(
            svc.metrics().cache_hits.load(Ordering::Relaxed),
            hits,
            "the wire session takes the same paths as the in-process one"
        );
        drop(handle);
        svc.shutdown();
    }
    for other in &transcripts[1..] {
        assert_eq!(&transcripts[0], other);
    }
    assert!(transcripts[0].ends_with("OK bye\n"));
}

/// The raw bytes of a whole serial session, as a client that never
/// parses a frame sees them.
#[test]
fn raw_wire_bytes_match_the_rendered_transcript() {
    let svc = guide_service(ServeConfig::default());
    let client = svc.client();
    let expected = transcript(|line| client.request_line(line));
    svc.shutdown();

    let svc = guide_service(ServeConfig::default());
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let mut socket = TcpStream::connect(handle.addr()).unwrap();
    let script: String = SCRIPT.iter().map(|line| format!("{line}\n")).collect();
    socket.write_all(script.as_bytes()).unwrap();
    // The server closes after QUIT.
    let raw = std::io::read_to_string(&socket).unwrap();
    assert_eq!(raw, expected);
    drop(handle);
    svc.shutdown();
}

/// N repeats of a cached query are N requests, N reads, N cache hits and
/// N end-to-end samples — and not one queue slot.
#[test]
fn cached_repeats_never_touch_the_queue() {
    let svc = guide_service(ServeConfig::default());
    let client = svc.client();
    let q = "QUERY guide select guide.restaurant";
    let first = client.request_line(q); // the miss: pooled
    let m = svc.metrics();
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let before = (
        count(&m.requests),
        count(&m.reads),
        count(&m.cache_hits),
        count(&m.inline_replies),
        m.total.count(),
        m.queue.count(),
        m.reply_wait.count(),
    );
    assert_eq!(before.5, 1, "the miss took one queue slot");
    const N: u64 = 25;
    for _ in 0..N {
        assert_eq!(client.request_line(q), first);
    }
    let after = (
        count(&m.requests),
        count(&m.reads),
        count(&m.cache_hits),
        count(&m.inline_replies),
        m.total.count(),
        m.queue.count(),
        m.reply_wait.count(),
    );
    assert_eq!(
        after,
        (
            before.0 + N,
            before.1 + N,
            before.2 + N,
            before.3 + N,
            before.4 + N,
            before.5,
            before.6
        )
    );
    svc.shutdown();
}

/// Every request records exactly one end-to-end (`total`) sample however
/// it is answered: tagged ones the pool answers, and ones answered
/// `TIMEOUT` — by a waiter giving up, or by a pipelined session's writer —
/// whose late replies then record nothing.
#[test]
fn pooled_tagged_and_timed_out_requests_record_one_total_sample_each() {
    let faults = Faults::armed();
    let svc = Service::start(ServeConfig {
        workers: 1,
        request_timeout: std::time::Duration::from_millis(200),
        faults: faults.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&flat_database("big", 150), &History::new())
        .unwrap();
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let mut wire = WireClient::connect(handle.addr()).unwrap();
    let m = svc.metrics();
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);

    // Tagged and pooled: `AS OF` always goes to the pool.
    const N: u64 = 16;
    let before = (m.total.count(), m.queue.count());
    for i in 0..N {
        wire.send(&format!("#s{i} QUERY big AS OF 1Jan97 select big.item")).unwrap();
    }
    for _ in 0..N {
        assert!(matches!(wire.recv().unwrap().1, Response::Rows(_)));
    }
    assert_eq!(
        (m.total.count(), m.queue.count()),
        (before.0 + N, before.1 + N)
    );

    // Timed out: an in-process request whose waiter gives up, then a
    // tagged one queued behind it, which its session's writer expires.
    // The first evaluation stalls past the deadline, however fast the
    // engine is.
    assert!(faults.arm_next(FaultPoint::Evaluate, 1, FaultMode::Stall(1_500)));
    let before = (m.total.count(), count(&m.timeouts));
    let evaluated = m.exec.count();
    let slow = svc
        .client()
        .request_line("QUERY big select R, S from big.item R, big.item S");
    assert!(
        matches!(
            slow,
            Response::Error {
                kind: serve::ErrKind::Timeout,
                ..
            }
        ),
        "{slow:?}"
    );
    wire.send("#late QUERY big select big.item").unwrap();
    let (tag, late) = wire.recv().unwrap();
    assert_eq!(tag.as_deref(), Some("late"));
    assert!(
        matches!(
            late,
            Response::Error {
                kind: serve::ErrKind::Timeout,
                ..
            }
        ),
        "{late:?}"
    );
    // Let both evaluations finish and deliver into abandoned slots.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while m.exec.count() < evaluated + 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "the queries never finished"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        (m.total.count(), count(&m.timeouts)),
        (before.0 + 2, before.1 + 2)
    );
    drop(handle);
    svc.shutdown();
}

#[test]
fn edge_replies_refuse_during_shutdown() {
    let svc = guide_service(ServeConfig::default());
    let client = svc.client();
    let cached = "QUERY guide select guide.restaurant";
    assert!(matches!(client.request_line(cached), Response::Rows(_)));
    svc.shutdown();
    // The service's stop flag is checked before anything is answered.
    for line in [
        "PING",
        "QUIT",
        "GEN",
        "GEN guide",
        "LSN guide",
        "DBS",
        cached,
    ] {
        assert_eq!(
            client.request_line(line).render(),
            "ERR INTERNAL service is shutting down\n",
            "{line}"
        );
    }
}

/// Adds a restaurant named with a combining mark ("Cafe" + U+0301, a
/// decomposed "é") at 1Mar97, then changes its price at 2Mar97 with the
/// given write, then reads the price back.
fn cafe_session(price_write: &str, mut send: impl FnMut(&str) -> Response) -> Vec<String> {
    let lines = [
        "UPDATE guide AT 1Mar97 ; {creNode(n100, C), creNode(n101, \"Cafe\u{301}\"), \
         creNode(n102, 10), addArc(n4, restaurant, n100), addArc(n100, name, n101), \
         addArc(n100, price, n102)}",
        price_write,
        "QUERY guide select guide.restaurant.price where guide.restaurant.price = 12",
    ];
    lines.iter().map(|line| send(line).render()).collect()
}

/// A `MUTATE` reaches the commit pipeline as the statement the request
/// edge parsed, so a where clause naming a decomposed "é" applies, in
/// process and over TCP, exactly like the `UPDATE` it compiles to (the
/// `MUTATE` ack adds only its created count); and a syntax error in the
/// statement reports the statement's own column.
#[test]
fn mutate_applies_the_statement_parsed_at_the_edge() {
    let mutate = "MUTATE guide AT 2Mar97 ; update guide.restaurant.price := 12 \
                  where guide.restaurant.name = \"Cafe\u{301}\"";
    let update = "UPDATE guide AT 2Mar97 ; {updNode(n102, 12)}";
    let at: oem::Timestamp = "2Mar97".parse().unwrap();

    let svc = guide_service(ServeConfig::default());
    let expected = cafe_session(update, |line| svc.client().request_line(line));
    assert_eq!(expected[1], format!("OK applied 1 ops at {at}; generation 3\n"));
    assert_eq!(expected[2], "ROWS 1\nROW price=&n102\nEND\n");
    svc.shutdown();

    let mutated = expected[1].replace("1 ops at", "1 ops (0 created) at");
    let svc = guide_service(ServeConfig::default());
    let client = svc.client();
    let in_process = cafe_session(mutate, |line| client.request_line(line));
    assert_eq!(in_process, [expected[0].clone(), mutated.clone(), expected[2].clone()]);
    svc.shutdown();

    let svc = guide_service(ServeConfig::default());
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let mut wire = WireClient::connect(handle.addr()).unwrap();
    let over_tcp = cafe_session(mutate, |line| wire.roundtrip(line).unwrap());
    assert_eq!(over_tcp, in_process);

    let stmt = "update guide.restaurant.price := 20 where guide.restaurant.name =";
    let resp = wire.roundtrip(&format!("MUTATE guide AT 3Mar97 ; {stmt}")).unwrap();
    let Response::Error { kind, message } = &resp else {
        panic!("accepted: {resp:?}")
    };
    assert_eq!(*kind, ErrKind::Syntax, "{resp:?}");
    // End of input, one past the statement's last character.
    let col = stmt.chars().count() + 1;
    assert!(message.contains(&format!("syntax error at 1:{col}:")), "{message}");
    drop(handle);
    svc.shutdown();
}

#[test]
fn a_serial_session_runs_on_one_thread_and_a_pipelined_one_on_two() {
    let svc = guide_service(ServeConfig::default());
    let handle = svc.listen("127.0.0.1:0").unwrap();
    let writers = || svc.metrics().session_writers.load(Ordering::Relaxed);

    // Serial: probes, a miss, hits, a write — all untagged.
    let mut serial = WireClient::connect(handle.addr()).unwrap();
    for line in [
        "PING",
        "QUERY guide select guide.restaurant",
        "QUERY guide select guide.restaurant",
        "UPDATE guide AT 1Mar97 9:00am ; {creNode(n95, \"Via Mare\"), addArc(n4, restaurant, n95)}",
        "QUERY guide select guide.restaurant",
        "GEN guide",
    ] {
        assert!(!serial.roundtrip(line).unwrap().is_error(), "{line}");
    }
    assert_eq!(
        writers(),
        0,
        "a serial session never starts a writer thread"
    );

    // Tagged requests the edge answers are written in place too.
    let mut tagged = WireClient::connect(handle.addr()).unwrap();
    for line in [
        "#a PING",
        "#b QUERY guide select guide.restaurant",
        "#c DBS",
    ] {
        tagged.send(line).unwrap();
        assert!(tagged.recv().unwrap().0.is_some());
    }
    assert_eq!(writers(), 0, "a ready reply needs no writer thread");

    // The first tagged request that has to wait starts it — once.
    for i in 0..4 {
        tagged.send(&format!("#s{i} QUERY guide AS OF 1Jan97 select guide.restaurant")).unwrap();
        tagged.send(&format!("#p{i} PING")).unwrap();
    }
    for _ in 0..8 {
        assert!(tagged.recv().unwrap().0.is_some());
    }
    assert_eq!(writers(), 1);
    assert_eq!(
        tagged.roundtrip("QUIT").unwrap(),
        Response::Ok("bye".into())
    );
    assert_eq!(
        serial.roundtrip("QUIT").unwrap(),
        Response::Ok("bye".into())
    );
    assert_eq!(writers(), 1);
    drop(handle);
    svc.shutdown();
}

/// A database with `items` atomic children under the root: `select
/// <name>.item` answers `items` rows.
fn flat_database(name: &str, items: i64) -> OemDatabase {
    let mut db = OemDatabase::new(name);
    let root = db.root();
    for i in 0..items {
        let n = db.create_node(Value::Int(i));
        db.insert_arc(ArcTriple::new(root, "item", n)).unwrap();
    }
    db
}

/// Random mixes of tagged / untagged, edge-answered / pooled requests,
/// some with multi-KB `ROWS` replies, on one connection: every frame
/// parses, every tag comes back exactly once with its own answer, and
/// untagged replies stay in submission order — before, across and after
/// the switch from in-place writes to the writer thread.
#[test]
fn frames_stay_intact_across_mixed_traffic() {
    let svc = Service::start(ServeConfig::default()).unwrap();
    svc.install(&flat_database("big", 400), &History::new())
        .unwrap();
    svc.install(&flat_database("small", 3), &History::new())
        .unwrap();
    let handle = svc.listen("127.0.0.1:0").unwrap();

    // No writes below, so each text has one answer for the whole run.
    // The first two are cached by this priming pass (edge-answered from
    // here on); `AS OF` always goes to the pool, `STATS` never.
    let texts = [
        "QUERY big select big.item",
        "QUERY small select small.item",
        "PING",
        "DBS",
        "GEN big",
        "QUERY big AS OF 1Jan97 select big.item",
        "QUERY small AS OF 1Jan97 select small.item",
        "QUERY nosuch select nosuch.item",
        "STATS",
    ];
    let client = svc.client();
    let answers: Vec<Response> = texts.iter().map(|t| client.request_line(t)).collect();
    assert!(answers[0].render().len() > 4096, "multi-KB ROWS reply");
    assert_eq!(answers[5], answers[0], "the pooled twin of the cached text");
    let check = |text: usize, got: &Response| {
        if texts[text] == "STATS" {
            assert!(matches!(got, Response::Rows(_)), "{got:?}");
        } else {
            assert_eq!(got, &answers[text], "{}", texts[text]);
        }
    };

    for seed in [7u64, 1998, 424242] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire = WireClient::connect(handle.addr()).unwrap();
        // The first bursts draw only edge-answered texts, so the session
        // is still writing in place when the pooled ones arrive.
        let mut next_tag = 0u32;
        for burst in 0..60 {
            let pool = if burst < 5 { 5 } else { texts.len() };
            let mut tagged: HashMap<String, usize> = HashMap::new();
            let mut untagged: VecDeque<usize> = VecDeque::new();
            let n = rng.gen_range(1..=12);
            for _ in 0..n {
                let text = rng.gen_range(0..pool);
                if rng.gen_bool(0.6) {
                    let tag = format!("s{seed}-{next_tag}");
                    next_tag += 1;
                    wire.send(&format!("#{tag} {}", texts[text])).unwrap();
                    tagged.insert(tag, text);
                } else {
                    wire.send(texts[text]).unwrap();
                    untagged.push_back(text);
                }
            }
            for _ in 0..n {
                let (tag, resp) = wire.recv().expect("every frame parses");
                let text = match tag {
                    Some(tag) => tagged.remove(&tag).expect("a tag returns once"),
                    None => untagged.pop_front().expect("one reply per request"),
                };
                check(text, &resp);
            }
            assert!(tagged.is_empty() && untagged.is_empty());
        }
        assert_eq!(wire.roundtrip("QUIT").unwrap(), Response::Ok("bye".into()));
    }
    assert!(svc.metrics().session_writers.load(Ordering::Relaxed) >= 1);
    assert!(svc.metrics().writer_bursts.load(Ordering::Relaxed) >= 1);
    drop(handle);
    svc.shutdown();
}

/// Queries intern nothing. A plan resolves the labels a query names
/// against those the data already carries, so ten thousand reads naming
/// labels no arc has ever had — as plain, alternated, annotated, closure
/// and `where` steps, current and `AS OF`, with writes between them that
/// carry the cached entries through maintenance — leave every one of
/// those names out of the process-wide label interner.
#[test]
fn reads_naming_unknown_labels_intern_nothing() {
    let svc = guide_service(ServeConfig::default());
    let client = svc.client();
    const N: usize = 10_000;
    let label = |k: usize| format!("zq{k}");
    for k in 0..N {
        let l = label(k);
        let line = match k % 6 {
            0 => format!("QUERY guide select guide.{l}"),
            1 => format!("QUERY guide select guide.restaurant.({l}|name)"),
            2 => format!("QUERY guide select guide.<add at T>{l} where T > 1Jan97"),
            3 => format!(
                "QUERY guide select R from guide.restaurant R where R.{l} = \"x\" or R.{l}.% like \"%a\""
            ),
            4 => format!("QUERY guide select guide.{l}*.name"),
            _ => format!("QUERY guide AS OF 4Jan97 select guide.restaurant.{l}"),
        };
        let resp = client.request_line(&line);
        assert!(matches!(resp, Response::Rows(_)), "{line}: {resp:?}");
        if k % 1000 == 999 {
            let day = k / 1000 + 1;
            let write = format!("UPDATE guide AT {day}Mar97 ; {{updNode(n1, {day})}}");
            assert!(!client.request_line(&write).is_error(), "{write}");
        }
    }
    let interned: Vec<String> = (0..N)
        .map(label)
        .filter(|l| oem::Label::lookup(l).is_some())
        .collect();
    assert!(
        interned.is_empty(),
        "{} of {N} query-only labels were interned, first {:?}",
        interned.len(),
        interned.first()
    );
    svc.shutdown();
}
