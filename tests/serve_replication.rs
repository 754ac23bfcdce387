//! WAL-shipping replication tests: primary → follower serve instances.
//!
//! The paper's `D(O, H)` construction is the replication contract: the
//! primary ships its history `H` (as group-commit batches over the wire,
//! or a checkpoint image `O` for catch-up), and a follower that has
//! applied the prefix of `H` up to LSN `t` holds exactly the paper's
//! snapshot-at-time `O_t(D)`. These tests attach followers from empty,
//! crash them mid-replay at chosen record boundaries, inject seeded
//! partition/stall faults on both ends of the stream, and always demand
//! the same outcome: full DOEM graph equality with the primary, checked
//! with the same oracle the crash-recovery suite uses.
//!
//! The fault-matrix step in `scripts/ci.sh` reruns the seeded test under
//! several fixed `SERVE_REPL_FAULT_SEED` values.

use doem::{apply_set, current_snapshot, same_doem, DoemDatabase};
use oem::{parse_change_set, same_database, ChangeSet, OemDatabase, Timestamp};
use serve::{ErrKind, FaultMode, FaultPoint, Faults, Response, ServeConfig, Service};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "serve-repl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A follower config aimed at `primary_addr`.
fn follower_cfg(primary_addr: &str) -> ServeConfig {
    ServeConfig {
        follow: Some(primary_addr.to_string()),
        ..ServeConfig::default()
    }
}

/// `n` strictly-increasing writes against one database, in the shape the
/// recovery suite uses.
fn writes(n: usize) -> Vec<(Timestamp, ChangeSet)> {
    (0..n)
        .map(|i| {
            let at = format!("5Jan97 6:{:02}am", i + 1).parse().unwrap();
            let changes = parse_change_set(&format!(
                "{{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
                700 + i,
                i
            ))
            .unwrap();
            (at, changes)
        })
        .collect()
}

/// Block until `follower` holds a graph-equal copy of `db`, or panic
/// after `deadline` — the convergence oracle every test below ends on.
fn await_convergence(primary: &Service, follower: &Service, db: &str, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        if let (Some(want), Some(got)) = (primary.doem_snapshot(db), follower.doem_snapshot(db)) {
            if same_doem(&got, &want) {
                assert!(
                    same_database(&current_snapshot(&got), &current_snapshot(&want)),
                    "{db}: DOEM graphs equal but snapshots diverged"
                );
                return;
            }
        }
        assert!(
            t0.elapsed() < deadline,
            "follower never converged on {db} within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Attach a follower to a primary that already holds the full guide
/// fixture: catch-up arrives as a checkpoint image, after which Chorel
/// queries answer the **same canonical rows** on both ends, `LSN`
/// reports equal applied positions, and every client write on the
/// follower is refused with the typed `READONLY` error.
#[test]
fn follower_catches_up_from_empty_and_serves_identical_rows() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    primary
        .install(
            &oem::guide::guide_figure2(),
            &oem::guide::history_example_2_3(),
        )
        .unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();

    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "guide", Duration::from_secs(15));

    // Chorel rows are canonical, so equal graphs must answer equal rows.
    let pc = primary.client();
    let fc = follower.client();
    for q in [
        "select guide.restaurant",
        "select guide.restaurant.name",
        "select guide.restaurant.name where guide.restaurant.category = \"gourmet\"",
    ] {
        assert_eq!(
            pc.query("guide", q).unwrap(),
            fc.query("guide", q).unwrap(),
            "rows diverged for {q:?}"
        );
    }

    // The follower's applied LSN equals the primary's (writers are idle).
    let Response::Ok(p_lsn) = pc.request_line("LSN guide") else { panic!() };
    let Response::Ok(f_lsn) = fc.request_line("LSN guide") else { panic!() };
    assert_eq!(
        p_lsn.split_whitespace().nth(1),
        f_lsn.split_whitespace().nth(1),
        "applied LSNs diverged: {p_lsn:?} vs {f_lsn:?}"
    );

    // STATS surfaces the per-database LSN row; the follower's carries the
    // observed primary position so lag is readable at a glance.
    let Response::Rows(stats) = fc.request_line("STATS") else { panic!() };
    let lsn_row = stats
        .iter()
        .find(|l| l.starts_with("lsn guide "))
        .expect("follower STATS has an lsn row");
    assert!(lsn_row.contains("applied="), "{lsn_row}");
    assert!(lsn_row.contains("primary="), "{lsn_row}");
    assert!(
        stats.iter().any(|l| l.starts_with("counter repl_snapshots_installed")),
        "replication counters missing from STATS"
    );

    // Writes on the follower are refused by construction, with the typed
    // error a retry-aware client must *not* transparently resend.
    for line in [
        "UPDATE guide AT 9Dec97 ; {updNode(n1, 9)}",
        "MUTATE guide AT 9Dec97 ; update R := 5 from guide.restaurant R",
        "CREATE fresh",
        "LOAD fresh",
    ] {
        let resp = fc.request_line(line);
        assert!(
            matches!(resp, Response::Error { kind: ErrKind::ReadOnly, .. }),
            "{line:?} answered {resp:?}, want READONLY"
        );
    }
    // Reads still work after the refusals.
    assert_eq!(fc.query("guide", "select guide.restaurant").unwrap().len(), 3);

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// A write whose label is not a bare word ships quoted in its `REC` row,
/// so a follower applies it and the plain write after it. (The row once
/// carried the label bare; the follower could not parse it and retried
/// the same batch forever.)
#[test]
fn a_follower_converges_across_a_quoted_label_write() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE t").is_error());
    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "t", Duration::from_secs(15));

    for line in [
        "UPDATE t AT 1Jan97 ; {creNode(n20, 1), addArc(n1, \"my label\", n20)}",
        "UPDATE t AT 2Jan97 ; {creNode(n21, 2), addArc(n1, item, n21)}",
    ] {
        let resp = pc.request_line(line);
        assert!(!resp.is_error(), "{line}: {resp:?}");
    }
    await_convergence(&primary, &follower, "t", Duration::from_secs(15));

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// The 1-primary / 2-follower topology from the README quick-start:
/// an **empty** database created before the followers attach arrives as
/// a records-only rebuild, and writes committed while both followers are
/// attached ship as log-tail batches to each of them.
#[test]
fn two_followers_track_a_live_primary() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE alpha").is_error());

    let f1 = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    let f2 = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    // The empty database must materialize on both followers.
    await_convergence(&primary, &f1, "alpha", Duration::from_secs(15));
    await_convergence(&primary, &f2, "alpha", Duration::from_secs(15));

    // Live writes ship as records to both attached followers.
    for (at, ch) in writes(8) {
        let resp = pc.request_line(&format!("UPDATE alpha AT {at} ; {ch}"));
        assert!(!resp.is_error(), "{resp:?}");
    }
    await_convergence(&primary, &f1, "alpha", Duration::from_secs(15));
    await_convergence(&primary, &f2, "alpha", Duration::from_secs(15));
    assert_eq!(f1.client().query("alpha", "select alpha.item").unwrap().len(), 8);
    assert_eq!(f2.client().query("alpha", "select alpha.item").unwrap().len(), 8);

    // Each follower replayed through its own connection, visible as
    // shipped-batch accounting on the primary.
    use std::sync::atomic::Ordering::Relaxed;
    assert!(primary.metrics().repl_batches_shipped.load(Relaxed) >= 2);

    drop(handle);
    f1.shutdown();
    f2.shutdown();
    primary.shutdown();
}

/// Followers install versions through the same publish stage as the
/// primary, so `AS OF` at any LSN ≤ the applied position must answer the
/// **same canonical rows** on both ends — at every historical point, not
/// just the head.
#[test]
fn follower_answers_as_of_identically_to_the_primary() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE tt").is_error());
    let history = writes(10);
    for (at, ch) in &history {
        assert!(!pc.request_line(&format!("UPDATE tt AT {at} ; {ch}")).is_error());
    }

    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "tt", Duration::from_secs(15));
    let fc = follower.client();

    for (at, _) in &history {
        for q in ["select tt.item", "select X from tt.item X where X < 5"] {
            let line = format!("QUERY tt AS OF {} {q}", at.raw_minutes());
            let (Response::Rows(p_rows), Response::Rows(f_rows)) =
                (pc.request_line(&line), fc.request_line(&line))
            else {
                panic!("AS OF at {at} failed")
            };
            assert_eq!(p_rows, f_rows, "AS OF rows diverged at {at} for {q:?}");
        }
    }

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// Kill-9 a durable follower mid-replay, at several record boundaries:
/// a sticky WAL-append fault kills the follower's log at boundary `b`
/// (the same crash model the recovery suite uses — everything past the
/// durable prefix is lost), the restarted follower recovers its local
/// prefix, resumes the stream from its own applied LSN, and must
/// converge to graph equality with the primary.
#[test]
fn follower_killed_mid_replay_recovers_and_converges() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE p").is_error());
    for (at, ch) in writes(10) {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }
    let addr = handle.addr().to_string();

    for boundary in [0u64, 3, 7] {
        let dir = fresh_dir(&format!("kill9-{boundary}"));
        let faults = Faults::fail_nth(FaultPoint::WalAppend, boundary, FaultMode::Error, true);
        let mut cfg = follower_cfg(&addr);
        cfg.wal_dir = Some(dir.clone());
        cfg.faults = faults.clone();
        let follower = Service::start(cfg).unwrap();

        // Let it replay until the armed boundary kills the log.
        let t0 = Instant::now();
        while faults.fired() == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(15),
                "boundary {boundary}: fault never fired"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Shut down on the dead log: a read-only shard must not
        // checkpoint in-memory state, so the disk holds exactly the
        // durable prefix — the kill-9 crash scene.
        follower.shutdown();

        // Restart over the same directory with the disk healed.
        let mut cfg = follower_cfg(&addr);
        cfg.wal_dir = Some(dir.clone());
        let follower = Service::start(cfg).unwrap();
        await_convergence(&primary, &follower, "p", Duration::from_secs(15));
        assert_eq!(
            follower.client().query("p", "select p.item").unwrap().len(),
            10,
            "boundary {boundary}"
        );
        follower.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    drop(handle);
    primary.shutdown();
}

/// The seed-driven leg the CI fault matrix reruns: a plan derived from
/// `SERVE_REPL_FAULT_SEED` injects one partition (dropped batch) or
/// stall at either end of the stream — serving on the primary or
/// applying on the follower. Replication fault plans are one-shot by
/// construction, so convergence must always be reached, and the fired
/// fault is accounted once across both processes.
#[test]
fn seeded_replication_faults_still_converge() {
    let seed = std::env::var("SERVE_REPL_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let faults = Faults::from_seed_replication(seed, 24);

    let primary = Service::start(ServeConfig {
        faults: faults.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE p").is_error());
    for (at, ch) in writes(6) {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }

    let mut cfg = follower_cfg(&handle.addr().to_string());
    cfg.faults = faults.clone();
    let follower = Service::start(cfg).unwrap();

    // The plan's REPLICATE index is within the first couple dozen
    // batches; keep the stream busy until it fires, then converge.
    let t0 = Instant::now();
    while faults.fired() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "seed {seed}: fault never fired"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    await_convergence(&primary, &follower, "p", Duration::from_secs(20));
    assert_eq!(
        follower.client().query("p", "select p.item").unwrap().len(),
        6,
        "seed {seed}"
    );

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// Fenced failover: `PROMOTE` flips a caught-up follower writable under
/// a fresh epoch, the deposed primary answers client writes with the
/// typed `FENCED` error (reads keep serving), a stale `FENCE` cannot
/// depose the new lineage, and the promotion is visible in `LSN`/STATS.
#[test]
fn promote_fences_the_old_primary_and_takes_writes() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE p").is_error());
    for (at, ch) in writes(6) {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }

    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "p", Duration::from_secs(15));

    // Promote the follower at its applied LSN.
    let fc = follower.client();
    let resp = fc.request_line("PROMOTE p");
    let Response::Ok(msg) = resp else {
        panic!("PROMOTE answered {resp:?}")
    };
    assert!(msg.contains("epoch 1"), "{msg}");

    // The deposed primary refuses writes with the typed FENCED error…
    let resp = pc.request_line("UPDATE p AT 6Jan97 ; {updNode(n700, 99)}");
    assert!(
        matches!(resp, Response::Error { kind: ErrKind::Fenced, .. }),
        "deposed primary answered {resp:?}, want FENCED"
    );
    // …but keeps serving reads from its last snapshot.
    assert_eq!(pc.query("p", "select p.item").unwrap().len(), 6);
    // A stale fence cannot depose the promoted lineage back.
    let resp = fc.request_line("FENCE p 1");
    assert!(
        matches!(resp, Response::Error { kind: ErrKind::Conflict, .. }),
        "stale FENCE answered {resp:?}"
    );

    // The new primary takes writes and serves them.
    let resp = fc.request_line(
        "UPDATE p AT 5Jan97 7:01am ; {creNode(n900, 77), addArc(n1, item, n900)}",
    );
    assert!(!resp.is_error(), "{resp:?}");
    assert_eq!(fc.query("p", "select p.item").unwrap().len(), 7);

    // Epochs are visible: LSN on the new primary reports epoch 1, and
    // both sides account the transition in their metrics.
    let Response::Ok(lsn) = fc.request_line("LSN p") else { panic!() };
    assert!(lsn.ends_with("epoch 1"), "{lsn}");
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(follower.metrics().promotions.load(Relaxed), 1);
    assert!(primary.metrics().fenced_rejects.load(Relaxed) >= 1);

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// A `PROMOTE` that lands while a durable follower waits out the fsync
/// of a batch's first record ends the old lineage right there: the
/// record already in flight commits, the rest of the old primary's batch
/// stays out of the new lineage. (The promotion used to be checked once
/// per batch, so all three records landed.)
#[test]
fn promote_mid_batch_keeps_the_rest_of_the_old_batch_out() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE p").is_error());
    for (at, ch) in writes(3) {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }

    let dir = fresh_dir("promote-mid-batch");
    let faults = Faults::fail_nth(FaultPoint::WalFsync, 0, FaultMode::Stall(800), false);
    let mut cfg = follower_cfg(&handle.addr().to_string());
    cfg.wal_dir = Some(dir.clone());
    cfg.faults = faults.clone();
    let follower = Service::start(cfg).unwrap();

    // Promote while the batch's first record waits out its fsync.
    let t0 = Instant::now();
    while faults.fired() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(15), "the fsync never stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let fc = follower.client();
    assert_eq!(
        fc.request_line("PROMOTE p"),
        Response::Ok("promoted p; epoch 1 at -".into())
    );

    // The in-flight record publishes once its fsync returns; the rest
    // of the batch would follow within milliseconds.
    let t0 = Instant::now();
    while fc.request_line("LSN p").render().starts_with("OK applied - ") {
        assert!(t0.elapsed() < Duration::from_secs(5), "the stalled record never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(fc.query("p", "select p.item").unwrap().len(), 1);

    drop(handle);
    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `PROMOTE`, `FENCE <e>` and a live replicated stream race on one
/// follower shard. Whatever the interleaving, the outcome is that of a
/// serial order: the answers match one, the promotion's epoch is above
/// the primary's, and no record of the old lineage lands past the LSN
/// `PROMOTE` reported.
#[test]
fn promote_fence_and_replication_race_to_a_serial_outcome() {
    use std::sync::atomic::Ordering::Relaxed;
    for round in 0..12 {
        let primary = Service::start(ServeConfig::default()).unwrap();
        let handle = primary.listen("127.0.0.1:0").unwrap();
        let pc = primary.client();
        // A promoted lineage itself: its batches carry epoch 1.
        assert!(!pc.request_line("CREATE p").is_error());
        assert!(!pc.request_line("PROMOTE p").is_error());
        for (at, ch) in writes(59) {
            assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
        }
        // Race the follower's catch-up, one replicated batch.
        let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
        while follower.metrics().repl_records_applied.load(Relaxed) < 10 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // FENCE 2 is stale once PROMOTE took epoch 2; FENCE 3 deposes it.
        let e = 2 + round % 2;
        let lines = ["PROMOTE p".to_string(), format!("FENCE p {e}")];
        let barrier = &std::sync::Barrier::new(2);
        let [promote, fence] = std::thread::scope(|s| {
            let threads = lines.map(|line| {
                let c = follower.client();
                s.spawn(move || {
                    barrier.wait();
                    c.request_line(&line)
                })
            });
            threads.map(|t| t.join().unwrap())
        });
        let fc = follower.client();
        let write = fc.request_line("UPDATE p AT 1Jan98 ; {creNode(n5000, 1), addArc(n1, x, n5000)}");
        let fenced = !fence.is_error();
        if let Response::Ok(msg) = &promote {
            // PROMOTE first: a later FENCE lands only if newer.
            let lsn = msg.strip_prefix("promoted p; epoch 2 at ").expect(msg);
            assert_eq!(fenced, e == 3, "round {round}: FENCE {e} answered {fence:?}");
            assert_eq!(write.is_error(), fenced, "round {round}: {write:?}");
            std::thread::sleep(Duration::from_millis(200));
            let lsn: i64 = lsn.parse().unwrap();
            let want = writes(59).iter().filter(|(at, _)| at.raw_minutes() <= lsn).count();
            let items = fc.query("p", "select p.item").unwrap().len();
            assert_eq!(items, want, "round {round}: records past {lsn} landed");
        } else {
            // FENCE first deposed the shard: PROMOTE and client writes
            // answer FENCED, and replication goes on.
            let refused = |r: &Response| matches!(r, Response::Error { kind: ErrKind::Fenced, .. });
            assert!(
                fenced && refused(&promote) && refused(&write),
                "round {round}: {promote:?} {fence:?} {write:?}"
            );
            await_convergence(&primary, &follower, "p", Duration::from_secs(15));
        }
        drop(handle);
        follower.shutdown();
        primary.shutdown();
    }
}

/// Dropping a follower without `shutdown` stops it: its replication
/// thread is joined, so the primary ships it nothing more.
#[test]
fn a_dropped_follower_stops_replicating() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    assert!(!primary.client().request_line("CREATE p").is_error());
    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "p", Duration::from_secs(15));
    drop(follower);

    use std::sync::atomic::Ordering::Relaxed;
    let shipped = || primary.metrics().repl_batches_shipped.load(Relaxed);
    let before = shipped();
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(shipped(), before, "a dropped follower kept polling");
    drop(handle);
    primary.shutdown();
}

/// The follower paces itself: once caught up it backs off to about ten
/// polls a second, so a 2 s idle window costs the primary at most 40
/// batches for one database (the 100 ms ceiling plus the ramp from
/// 1 ms), and a write made after the window still reaches the follower
/// within 1 s.
#[test]
fn an_idle_follower_backs_off_and_still_picks_up_the_next_write() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE p").is_error());
    let history = writes(3);
    for (at, ch) in &history[..2] {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }
    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "p", Duration::from_secs(15));

    use std::sync::atomic::Ordering::Relaxed;
    let shipped = || primary.metrics().repl_batches_shipped.load(Relaxed);
    let before = shipped();
    std::thread::sleep(Duration::from_secs(2));
    let idle = shipped() - before;
    assert!(idle <= 40, "{idle} batches shipped to an idle follower in 2 s");

    let (at, ch) = &history[2];
    assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    await_convergence(&primary, &follower, "p", Duration::from_secs(1));
    assert_eq!(follower.client().query("p", "select p.item").unwrap().len(), 3);

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// Regression: the reconnect backoff must grow across consecutive
/// no-progress sessions *after* the follower has ever replicated
/// something, and return to its floor only when a session makes fresh
/// progress. (The old loop keyed the reset off the all-time applied
/// counters, so one successful batch pinned the backoff at 50ms for the
/// life of the process — a dying primary got hammered on every retry.)
#[test]
fn reconnect_backoff_grows_during_an_outage_and_resets_on_progress() {
    let faults = Faults::armed();
    let primary = Service::start(ServeConfig {
        faults: faults.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE p").is_error());
    for (at, ch) in writes(4) {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }

    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "p", Duration::from_secs(15));

    // Outage: the next five REPLICATE serves error, killing five
    // follower sessions in a row. The first dying session replicated
    // records earlier (progress → floor), the next four did nothing —
    // the backoff must climb 50, 100, 200, 400, 800.
    assert!(faults.arm_next(FaultPoint::ReplicateServe, 5, FaultMode::Error));
    let t0 = Instant::now();
    while faults.fired() < 5 {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "outage faults never finished firing ({} of 5)",
            faults.fired()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    use std::sync::atomic::Ordering::Relaxed;
    let t0 = Instant::now();
    loop {
        let gauge = follower.metrics().repl_backoff_ms.load(Relaxed);
        if gauge >= 200 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "backoff never grew past the floor during the outage (gauge {gauge})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Heal: new writes replicate, then one more failure. That session
    // made progress, so its reconnect sleeps the floor again.
    for (i, (at, ch)) in writes(8).into_iter().enumerate().skip(4) {
        assert!(
            !pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error(),
            "write {i}"
        );
    }
    await_convergence(&primary, &follower, "p", Duration::from_secs(20));
    assert!(faults.arm_next(FaultPoint::ReplicateServe, 1, FaultMode::Error));
    let t0 = Instant::now();
    while follower.metrics().repl_backoff_ms.load(Relaxed) != 50 {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "backoff never returned to the floor after a session with progress (gauge {})",
            follower.metrics().repl_backoff_ms.load(Relaxed)
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// A follower *ahead* of its primary — here because the primary's shard
/// was replaced by an older history — is outside the retention tail on
/// the far side: the primary must ship its image, not an empty batch the
/// follower would read as "caught up".
#[test]
fn follower_ahead_of_a_replaced_primary_resyncs_from_the_image() {
    let primary = Service::start(ServeConfig::default()).unwrap();
    let guide = oem::guide::guide_figure2();
    let history = oem::guide::history_example_2_3();
    primary.install(&guide, &history).unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let pc = primary.client();
    for i in 0..6 {
        let (minute, id) = (i + 1, 700 + i);
        let line = format!(
            "UPDATE guide AT 9Jan97 6:{minute:02}am ; \
             {{creNode(n{id}, {i}), addArc(n4, item, n{id})}}"
        );
        assert!(!pc.request_line(&line).is_error(), "{line}");
    }
    let follower = Service::start(follower_cfg(&handle.addr().to_string())).unwrap();
    await_convergence(&primary, &follower, "guide", Duration::from_secs(15));

    // Replace the primary's shard with the bare Example 2.3 guide: its
    // last LSN is now behind the follower's applied one.
    primary.install(&guide, &history).unwrap();
    await_convergence(&primary, &follower, "guide", Duration::from_secs(15));
    assert_eq!(
        follower.client().query("guide", "select guide.item").unwrap().len(),
        0
    );

    drop(handle);
    follower.shutdown();
    primary.shutdown();
}

/// The primary keeps exactly `retain_lsns` records. A durable
/// follower that crashes and misses more writes than that must come back
/// through a checkpoint image, not through records.
#[test]
fn follower_behind_the_retention_tail_resyncs_from_the_image() {
    let primary = Service::start(ServeConfig {
        retain_lsns: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = primary.listen("127.0.0.1:0").unwrap();
    let addr = handle.addr().to_string();
    let pc = primary.client();
    assert!(!pc.request_line("CREATE p").is_error());
    let history = writes(14);
    for (at, ch) in &history[..2] {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }

    let dir = fresh_dir("retain");
    let mut cfg = follower_cfg(&addr);
    cfg.wal_dir = Some(dir.clone());
    let follower = Service::start(cfg.clone()).unwrap();
    await_convergence(&primary, &follower, "p", Duration::from_secs(15));
    drop(follower);

    for (at, ch) in &history[2..] {
        assert!(!pc.request_line(&format!("UPDATE p AT {at} ; {ch}")).is_error());
    }

    let follower = Service::start(cfg).unwrap();
    await_convergence(&primary, &follower, "p", Duration::from_secs(15));
    use std::sync::atomic::Ordering::Relaxed;
    assert!(follower.metrics().repl_snapshots_installed.load(Relaxed) >= 1);
    assert_eq!(follower.client().query("p", "select p.item").unwrap().len(), 14);

    drop(handle);
    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

mod batching_properties {
    //! Satellite proptest: slicing the primary's history into arbitrary
    //! batch boundaries and shipping it through the wire framing yields a
    //! follower state identical to replaying the history locally —
    //! batching is invisible across the wire, the streaming analogue of
    //! the WAL suite's "batching is invisible on disk".

    use super::*;
    use proptest::prelude::*;
    use serve::ReplBatch;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn arbitrary_batch_slicing_is_invisible(
            n in 0usize..10,
            cut_sel in proptest::collection::vec(0usize..10, 0..4),
        ) {
            let records = writes(n);

            // Slice [0, n) at the (deduplicated, sorted) cut points.
            let mut cuts: Vec<usize> = cut_sel.iter().map(|c| c % (n + 1)).collect();
            cuts.push(0);
            cuts.push(n);
            cuts.sort_unstable();
            cuts.dedup();

            // Ship each slice through the full wire framing.
            let mut shipped: Vec<(Timestamp, ChangeSet)> = Vec::new();
            for w in cuts.windows(2) {
                let slice = &records[w[0]..w[1]];
                let batch = ReplBatch {
                    db: "p".into(),
                    from: if w[0] == 0 {
                        Timestamp::NEG_INFINITY
                    } else {
                        records[w[0] - 1].0
                    },
                    primary_lsn: records.last().map(|r| r.0).unwrap_or(Timestamp::NEG_INFINITY),
                    snapshot: None,
                    records: slice.to_vec(),
                    epoch: 0,
                };
                let decoded = ReplBatch::from_rows(&batch.to_rows()).unwrap();
                prop_assert_eq!(&decoded, &batch);
                shipped.extend(decoded.records);
            }

            // Oracle: local replay of the unsliced history.
            let initial = OemDatabase::new("p".to_string());
            let mut want = DoemDatabase::from_snapshot(&initial);
            let mut want_replica = initial.clone();
            let mut got = DoemDatabase::from_snapshot(&initial);
            let mut got_replica = initial;
            for (at, ch) in &records {
                apply_set(&mut want, &mut want_replica, ch, *at).unwrap();
            }
            for (at, ch) in &shipped {
                apply_set(&mut got, &mut got_replica, ch, *at).unwrap();
            }
            prop_assert!(same_doem(&got, &want), "n={} cuts={:?}", n, cuts);
            prop_assert!(same_database(&got_replica, &want_replica));
        }
    }
}
