//! Serve smoke test under the concurrency sanitizer: drive a
//! representative slice of the serve surface — in-process requests,
//! durable writes, and pipelined TCP sessions whose tagged
//! writes are acked by the group committer straight into the session's
//! writer, one of them past its deadline — with every
//! lock, channel, and tracked thread instrumented, then require **zero
//! findings**. This is the sanitizer's positive contract: the fixtures in
//! `crates/sanitizer/tests/` prove it can see defects; this test proves
//! the serve layer doesn't have the ones it can see.
//!
//! Lives in its own integration-test binary so the process-global
//! findings list is all ours.

use std::time::Duration;

use serve::{
    ErrKind, FaultMode, FaultPoint, Faults, Response, ServeConfig, Service, WireClient,
};

#[test]
fn serve_workload_is_sanitize_clean() {
    sanitizer::enable();

    let dir = std::env::temp_dir().join(format!("serve-sanitize-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let faults = Faults::armed();
    let svc = Service::start(ServeConfig {
        workers: 2,
        wal_dir: Some(dir.clone()),
        checkpoint_every: 4,
        request_timeout: Duration::from_secs(2),
        faults: faults.clone(),
        ..ServeConfig::default()
    })
    .expect("start service");
    svc.install(
        &oem::guide::guide_figure2(),
        &oem::guide::history_example_2_3(),
    )
    .expect("install guide");

    // In-process traffic: queries (cached + fresh), durable writes that
    // cross a checkpoint boundary, and STATS.
    let c = svc.client();
    assert!(!c.request_line("CREATE scratch").is_error());
    for i in 0..8 {
        let resp = c.request_line(&format!(
            "UPDATE scratch AT 2Jan97 {}:{:02}pm ; {{creNode(n{}, {i}), addArc(n1, item, n{})}}",
            1 + i / 60,
            i % 60,
            50 + i,
            50 + i
        ));
        assert!(!resp.is_error(), "{resp:?}");
    }
    // Group-commit pipeline under instrumentation: a pipelined burst
    // keeps the commit queue non-empty, so the committer's condvar
    // waits, batched appends, and LSN-ordered publishes all run with
    // the sanitizer watching. Two workers may sequence submissions out
    // of order, so a strict-timestamp Conflict is a legitimate outcome —
    // both the success and rejection paths are what we're smoking.
    assert!(!c.request_line("CREATE burst").is_error());
    let pending: Vec<_> = (0..12)
        .map(|i| {
            c.begin_line(&format!(
                "UPDATE burst AT 3Jan97 {}:{:02}pm ; {{creNode(n{}, {i}), addArc(n1, item, n{})}}",
                1 + i / 60,
                i % 60,
                80 + i,
                80 + i
            ))
            .1
        })
        .collect();
    for p in pending {
        let resp = p.wait();
        assert!(
            !resp.is_error()
                || matches!(resp, Response::Error { kind: serve::ErrKind::Conflict, .. }),
            "{resp:?}"
        );
    }
    for _ in 0..3 {
        let resp = c.request_line("QUERY guide select guide.restaurant");
        assert!(matches!(resp, Response::Rows(ref r) if !r.is_empty()), "{resp:?}");
    }
    assert!(!c.request_line("STATS").is_error());

    // Wire traffic: two concurrent sessions, one pipelining deeply —
    // reads, then durable writes whose acks the group committer delivers
    // into forwarded reply slots, which send them on to the writer.
    let handle = svc.listen("127.0.0.1:0").expect("listen");
    let addr = handle.addr();
    let pipeliner = std::thread::spawn(move || {
        let mut wire = WireClient::connect(addr).expect("connect");
        for i in 0..16 {
            wire.send(&format!("#p{i} QUERY guide select guide.restaurant"))
                .expect("send");
        }
        for i in 0..8 {
            wire.send(&format!(
                "#u{i} UPDATE scratch AT now ; {{creNode(n{}, {i}), addArc(n1, extra, n{})}}",
                200 + i,
                200 + i
            ))
            .expect("send");
        }
        for _ in 0..24 {
            let (tag, resp) = wire.recv().expect("recv");
            let tag = tag.expect("tagged");
            if tag.starts_with('p') {
                assert!(matches!(resp, Response::Rows(_)), "{resp:?}");
            } else {
                assert!(matches!(resp, Response::Ok(_)), "{tag}: {resp:?}");
            }
        }
        // A write whose fsync outlasts the request timeout: the session's
        // writer expires its slot, and the late ack is discarded.
        assert!(faults.arm_next(FaultPoint::WalFsync, 1, FaultMode::Stall(3000)));
        wire.send("#late UPDATE scratch AT now ; {creNode(n300, 0), addArc(n1, late, n300)}")
            .expect("send");
        let (tag, resp) = wire.recv().expect("recv");
        assert_eq!(tag.as_deref(), Some("late"));
        assert!(
            matches!(
                resp,
                Response::Error {
                    kind: ErrKind::Timeout,
                    ..
                }
            ),
            "{resp:?}"
        );
        let _ = wire.roundtrip("QUIT");
    });
    let mut wire = WireClient::connect(addr).expect("connect");
    for _ in 0..4 {
        let resp = wire.roundtrip("QUERY scratch select scratch.item").expect("roundtrip");
        assert!(matches!(resp, Response::Rows(ref r) if r.len() == 8), "{resp:?}");
    }
    let _ = wire.roundtrip("QUIT");
    pipeliner.join().expect("pipeliner");

    drop(handle);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let findings = sanitizer::findings();
    assert!(
        findings.is_empty(),
        "serve workload must be sanitize-clean, found: {findings:#?}"
    );
    assert_eq!(sanitizer::exit_report(), 0);
}

/// Dropping services and an endpoint without `shutdown` joins every
/// thread they started: the sanitizer records no thread leak.
#[test]
fn dropping_a_service_leaks_no_thread() {
    sanitizer::enable();
    let dir = std::env::temp_dir().join(format!("serve-sanitize-drop-{}", std::process::id()));
    let wal_dir = Some(dir.clone());
    let svc = Service::start(ServeConfig { wal_dir, ..ServeConfig::default() }).expect("start");
    assert!(!svc.client().request_line("CREATE d").is_error());
    let handle = svc.listen("127.0.0.1:0").expect("listen");
    let follow = Some(handle.addr().to_string());
    let follower = Service::start(ServeConfig { follow, ..ServeConfig::default() }).expect("start");
    drop(follower);
    drop(handle);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    let findings = sanitizer::findings();
    let leaks: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == sanitizer::FindingKind::ThreadLeak)
        .collect();
    assert!(leaks.is_empty(), "{leaks:#?}");
}
