//! Crash-recovery and fault-injection tests for the durable serve layer.
//!
//! The paper's `D(O, H)` construction (§3) says a base snapshot plus a
//! history of timestamped change sets fully determines the database —
//! operationally, that a checkpoint plus a write-ahead log of change
//! operations is a complete crash-recovery story. These tests kill the
//! service (by dropping it without a clean shutdown, with the fault layer
//! simulating the half-finished disk state a real kill-9 leaves) at
//! **every** append boundary of a multi-database workload, restart it,
//! and demand each database equal the replay of exactly its durable
//! history prefix, by full DOEM graph equality.
//!
//! The fault-matrix step in `scripts/ci.sh` reruns this suite under
//! several fixed `SERVE_FAULT_SEED` values; the seed only moves *where*
//! the seeded-fault test injects its failure — every run is deterministic.

use doem::{apply_set, current_snapshot, same_doem, DoemDatabase};
use oem::{parse_change_set, same_database, ChangeSet, OemDatabase, Timestamp};
use serve::{ErrKind, FaultMode, FaultPoint, Faults, Response, ServeConfig, Service};
use std::path::{Path, PathBuf};

/// One write of the workload: target database, timestamp, change set.
struct Write {
    db: &'static str,
    at: Timestamp,
    changes: ChangeSet,
}

/// A fixed multi-database workload: three databases, twelve interleaved
/// writes with globally increasing timestamps (durable shards demand
/// strictly increasing timestamps per database; globally increasing is
/// the easy sufficient condition).
fn workload() -> Vec<Write> {
    let dbs = ["alpha", "beta", "gamma", "alpha", "beta", "alpha", "gamma", "beta", "alpha", "gamma", "beta", "alpha"];
    dbs.iter()
        .enumerate()
        .map(|(i, db)| Write {
            db,
            at: format!("2Jan97 9:{:02}am", i + 1).parse().unwrap(),
            changes: parse_change_set(&format!(
                "{{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
                200 + i,
                i
            ))
            .unwrap(),
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "serve-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(dir: &Path, faults: Faults) -> ServeConfig {
    let mut cfg = ServeConfig {
        wal_dir: Some(dir.to_path_buf()),
        checkpoint_every: 5, // small, so checkpoints happen mid-workload
        faults,
        ..ServeConfig::default()
    };
    // The CI fault matrix reruns this whole suite with batching off and
    // on (`SERVE_GROUP_COMMIT` ∈ {1, 8}): every invariant here must hold
    // at any batch size.
    if let Some(gc) = std::env::var("SERVE_GROUP_COMMIT")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        cfg.group_commit_max = gc;
    }
    cfg
}

/// Run the workload against a fresh service with the given fault plan.
/// Returns, per database, the writes the service **acknowledged** —
/// the history prefix the durability contract promises to preserve.
fn run_workload(svc: &Service) -> Vec<(usize, bool)> {
    let c = svc.client();
    for db in ["alpha", "beta", "gamma"] {
        let resp = c.request_line(&format!("CREATE {db}"));
        assert!(!resp.is_error(), "{resp:?}");
    }
    workload()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let resp = c.request_line(&format!("UPDATE {} AT {} ; {}", w.db, w.at, w.changes));
            (i, !resp.is_error())
        })
        .collect()
}

/// The state database `db` must recover to if exactly the acknowledged
/// writes survived: an empty database plus the acked change sets, pushed
/// through the same `apply_set` the service uses.
fn expected_db(db: &str, acked: &[(usize, bool)]) -> DoemDatabase {
    let initial = OemDatabase::new(db.to_string());
    let mut doem = DoemDatabase::from_snapshot(&initial);
    let mut replica = initial;
    for w in workload()
        .iter()
        .enumerate()
        .filter(|(i, w)| w.db == db && acked[*i].1)
        .map(|(_, w)| w)
    {
        apply_set(&mut doem, &mut replica, &w.changes, w.at).unwrap();
    }
    doem
}

fn assert_recovered_equals(svc: &Service, db: &str, want: &DoemDatabase, ctx: &str) {
    let got = svc.doem_snapshot(db).unwrap_or_else(|| panic!("{ctx}: {db} missing after restart"));
    assert!(same_doem(&got, want), "{ctx}: {db} diverged after recovery");
    assert!(
        same_database(&current_snapshot(&got), &current_snapshot(want)),
        "{ctx}: {db} snapshot diverged after recovery"
    );
}

/// Kill-9 at *every* append boundary: for each write index `i`, arm a
/// sticky fault at the `i`-th WAL append (sticky: after a kill nothing
/// later reaches disk either), run the whole workload, drop the service
/// **without** a clean shutdown, restart over the same directory, and
/// require every database to equal the replay of its acknowledged
/// prefix. Odd boundaries die atomically (`Error`), even ones mid-write
/// (`ShortWrite`, always shorter than a frame, so the tail is torn).
#[test]
fn kill9_at_every_append_boundary_recovers_each_durable_prefix() {
    let total = workload().len() as u64;
    for boundary in 0..total {
        let mode = if boundary % 2 == 1 {
            FaultMode::Error
        } else {
            FaultMode::ShortWrite(1 + (boundary as usize * 7) % 20)
        };
        let dir = fresh_dir(&format!("kill9-{boundary}"));
        let faults = Faults::fail_nth(FaultPoint::WalAppend, boundary, mode, true);
        let svc = Service::start(durable_cfg(&dir, faults.clone())).unwrap();
        let acked = run_workload(&svc);
        assert!(faults.fired() > 0, "boundary {boundary}: fault never fired");
        assert!(!acked[boundary as usize].1, "boundary {boundary}: faulted write was acked");
        svc.crash_stop(); // kill-9: no drain checkpoint, no flush beyond acked appends

        let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
        for db in ["alpha", "beta", "gamma"] {
            let want = expected_db(db, &acked);
            assert_recovered_equals(&svc2, db, &want, &format!("boundary {boundary} ({mode:?})"));
        }
        assert_eq!(svc2.metrics().recoveries.load(std::sync::atomic::Ordering::Relaxed), 3);
        // A recovered shard must accept new writes.
        let resp = svc2
            .client()
            .request_line("UPDATE alpha AT 9Dec97 ; {creNode(n900, 9), addArc(n1, item, n900)}");
        assert!(!resp.is_error(), "boundary {boundary}: {resp:?}");
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The seed-driven variant the CI fault matrix exercises: derive a fault
/// plan from `SERVE_FAULT_SEED` (any append/fsync/checkpoint may fail,
/// possibly stickily), crash, recover, and check the two directions of
/// the durability contract that hold regardless of where the fault
/// landed: every acknowledged write is in the recovered graph, and every
/// recovered write is one the workload actually attempted.
#[test]
fn seeded_fault_recovers_acked_writes_and_invents_nothing() {
    let seed = std::env::var("SERVE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);
    let total = workload().len() as u64;
    // The horizon spans appends *and* the three CREATE checkpoints.
    let faults = Faults::from_seed(seed, total + 3);
    let dir = fresh_dir(&format!("seeded-{seed}"));
    let svc = Service::start(durable_cfg(&dir, faults.clone())).unwrap();

    let c = svc.client();
    let mut created = Vec::new();
    for db in ["alpha", "beta", "gamma"] {
        // A checkpoint fault may fail a CREATE; that is a contract-clean
        // outcome (nothing installed), so just record what happened.
        created.push((db, !c.request_line(&format!("CREATE {db}")).is_error()));
    }
    let acked: Vec<(usize, bool)> = workload()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let resp = c.request_line(&format!("UPDATE {} AT {} ; {}", w.db, w.at, w.changes));
            (i, !resp.is_error())
        })
        .collect();
    // Fault accounting: every fired failpoint bumped `faults_injected`
    // exactly once — a batched fsync with many riders still counts one.
    assert_eq!(
        svc.metrics()
            .faults_injected
            .load(std::sync::atomic::Ordering::Relaxed),
        faults.fired(),
        "seed {seed}: faults_injected diverged from the plan's fired count"
    );
    drop(c);
    svc.crash_stop();

    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    for (db, was_created) in created {
        let Some(got) = svc2.doem_snapshot(db) else {
            assert!(!was_created, "seed {seed}: acked CREATE of {db} lost");
            continue;
        };
        let recovered: Vec<Timestamp> = got.timestamps();
        for (i, w) in workload().iter().enumerate() {
            if w.db != db {
                continue;
            }
            // Direction 1: acked ⇒ recovered (durability).
            if acked[i].1 {
                assert!(
                    recovered.contains(&w.at),
                    "seed {seed}: acked write at {} missing from {db}",
                    w.at
                );
            }
        }
        // Direction 2: recovered ⇒ attempted (no invented history). An
        // unacked-but-recovered write is legal (fault after the record
        // became durable, e.g. a failed fsync acknowledgement) — but the
        // timestamp must come from the workload.
        let attempted: Vec<Timestamp> =
            workload().iter().filter(|w| w.db == db).map(|w| w.at).collect();
        for ts in recovered {
            assert!(
                attempted.contains(&ts),
                "seed {seed}: {db} recovered an unknown timestamp {ts}"
            );
        }
    }
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelined writes for the batching tests: `n` strictly-increasing
/// timestamps against a single database `p`.
fn pipelined_writes(n: usize) -> Vec<(Timestamp, ChangeSet)> {
    (0..n)
        .map(|i| {
            let at = format!("4Jan97 7:{:02}am", i + 1).parse().unwrap();
            let changes = parse_change_set(&format!(
                "{{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
                500 + i,
                i
            ))
            .unwrap();
            (at, changes)
        })
        .collect()
}

/// Kill-9 at every *batch* boundary with group commit enabled: pipeline
/// twelve writes through one worker (so submission order is sequencing
/// order), arm a sticky fault at the `b`-th batched append, crash, and
/// recover. The acked-prefix invariant must hold across batch
/// boundaries: the ack set is a submission-order prefix, everything
/// acked is recovered, and anything extra recovered (whole frames ahead
/// of a torn batch tail) extends that same prefix in order.
#[test]
fn kill9_at_batch_boundaries_preserves_the_acked_prefix() {
    // Twelve writes at `group_commit_max = 4` form at least three
    // batches, so every boundary below is guaranteed to be reached.
    let writes = pipelined_writes(12);
    for boundary in 0..3u64 {
        let mode = if boundary % 2 == 1 {
            FaultMode::Error
        } else {
            // Mid-batch torn write: shorter than any whole batch.
            FaultMode::ShortWrite(1 + (boundary as usize * 13) % 24)
        };
        let dir = fresh_dir(&format!("batch-kill9-{boundary}"));
        let faults = Faults::fail_nth(FaultPoint::WalAppend, boundary, mode, true);
        let mut cfg = durable_cfg(&dir, faults.clone());
        cfg.workers = 1;
        cfg.group_commit_max = 4;
        cfg.group_commit_window_us = 2_000; // gather the pipelined riders
        let svc = Service::start(cfg).unwrap();
        let c = svc.client();
        assert!(!c.request_line("CREATE p").is_error());
        let pending: Vec<_> = writes
            .iter()
            .map(|(at, ch)| c.begin_line(&format!("UPDATE p AT {at} ; {ch}")).1)
            .collect();
        let acked: Vec<bool> = pending.into_iter().map(|p| !p.wait().is_error()).collect();
        assert!(faults.fired() > 0, "boundary {boundary}: fault never fired");
        let prefix = acked.iter().take_while(|&&a| a).count();
        assert!(
            acked[prefix..].iter().all(|&a| !a),
            "boundary {boundary}: ack set is not a prefix: {acked:?}"
        );
        drop(c);
        svc.crash_stop(); // kill-9: no drain checkpoint

        let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
        let got = svc2.doem_snapshot("p").expect("p must recover");
        let recovered = got.timestamps();
        assert!(
            recovered.len() >= prefix,
            "boundary {boundary}: acked write lost ({} < {prefix})",
            recovered.len()
        );
        // Whatever survived is a submission-order prefix — never a write
        // from a later LSN without every earlier one.
        let initial = OemDatabase::new("p".to_string());
        let mut want = DoemDatabase::from_snapshot(&initial);
        let mut replica = initial;
        for (at, ch) in &writes[..recovered.len()] {
            apply_set(&mut want, &mut replica, ch, *at).unwrap();
        }
        assert!(
            same_doem(&got, &want),
            "boundary {boundary} ({mode:?}): recovered state is not the replay of a prefix"
        );
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One batch, one failpoint, many riders: a fault during the batched
/// fsync must fail **every** rider of the batch with the same typed
/// error, count one injected fault (per failpoint hit, not per queued
/// record), and flip the shard read-only exactly once.
#[test]
fn fsync_fault_fails_the_whole_batch_coherently_and_counts_once() {
    let dir = fresh_dir("batch-coherent");
    let faults = Faults::fail_nth(FaultPoint::WalFsync, 0, FaultMode::Error, false);
    let mut cfg = durable_cfg(&dir, faults.clone());
    cfg.workers = 1;
    cfg.group_commit_max = 8;
    cfg.group_commit_window_us = 200_000; // hold the batch open wide
    let svc = Service::start(cfg).unwrap();
    let c = svc.client();
    assert!(!c.request_line("CREATE p").is_error());
    let writes = pipelined_writes(6);
    let pending: Vec<_> = writes
        .iter()
        .map(|(at, ch)| c.begin_line(&format!("UPDATE p AT {at} ; {ch}")).1)
        .collect();
    let responses: Vec<Response> = pending.into_iter().map(|p| p.wait()).collect();
    assert_eq!(faults.fired(), 1);
    // All six were riders of the single gathered batch: identical error.
    for (i, resp) in responses.iter().enumerate() {
        assert!(
            matches!(resp, Response::Error { kind: ErrKind::Io, .. }),
            "rider {i}: expected the batch's Io error, got {resp:?}"
        );
    }
    let m = svc.metrics();
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(m.faults_injected.load(Relaxed), 1, "one failpoint hit, one count");
    assert_eq!(m.read_only_flips.load(Relaxed), 1, "one batch failure, one flip");
    drop(c);
    svc.crash_stop();

    // The frames were written before the fsync failed, so recovery may
    // legally surface any whole-record prefix of the unacked batch (the
    // classic failed-fsync-acknowledgement case) — but only a prefix, in
    // submission order, never an invented or reordered write.
    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let got = svc2.doem_snapshot("p").expect("p must recover");
    let recovered = got.timestamps();
    assert!(recovered.len() <= writes.len());
    for (i, ts) in recovered.iter().enumerate() {
        assert_eq!(*ts, writes[i].0, "recovery is not a submission-order prefix");
    }
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk full on one database: the affected shard flips to read-only —
/// its queries and every other shard's writes keep succeeding, the
/// rejection is the typed `READONLY` error, and the condition shows up
/// in STATS. After a restart the shard is writable again and holds
/// exactly its durable prefix.
#[test]
fn disk_full_degrades_one_shard_to_read_only() {
    let dir = fresh_dir("disk-full");
    // One-shot failure on the second append overall: the disk "recovers"
    // afterwards, but the shard that hit it stays read-only by design.
    let faults = Faults::fail_nth(FaultPoint::WalAppend, 1, FaultMode::Error, false);
    let svc = Service::start(durable_cfg(&dir, faults)).unwrap();
    let c = svc.client();
    assert!(!c.request_line("CREATE a").is_error());
    assert!(!c.request_line("CREATE b").is_error());
    let ok = c.request_line("UPDATE a AT 1Feb97 ; {creNode(n200, 0), addArc(n1, item, n200)}");
    assert!(!ok.is_error(), "{ok:?}");

    // Append #1 fails: the write errors with IO and flips shard `a`.
    let hit = c.request_line("UPDATE a AT 2Feb97 ; {creNode(n201, 1), addArc(n1, item, n201)}");
    assert!(matches!(hit, Response::Error { kind: ErrKind::Io, .. }), "{hit:?}");

    // Later writes to `a` answer the typed READONLY error.
    let resp = c.request_line("UPDATE a AT 3Feb97 ; {creNode(n202, 2), addArc(n1, item, n202)}");
    assert!(matches!(resp, Response::Error { kind: ErrKind::ReadOnly, .. }), "{resp:?}");

    // Queries on the degraded shard still serve from memory…
    let rows = c.query("a", "select a.item").unwrap();
    assert_eq!(rows.len(), 1);
    // …and writes to the healthy shard keep succeeding.
    let resp = c.request_line("UPDATE b AT 4Feb97 ; {creNode(n300, 0), addArc(n1, item, n300)}");
    assert!(!resp.is_error(), "{resp:?}");

    // The degradation is observable: flip counter and live gauge.
    let Response::Rows(stats) = c.request_line("STATS") else { panic!() };
    assert!(stats.iter().any(|l| l == "counter read_only_flips 1"), "{stats:?}");
    assert!(stats.iter().any(|l| l == "gauge read_only_shards 1"), "{stats:?}");
    assert!(stats.iter().any(|l| l == "counter faults_injected 1"), "{stats:?}");
    drop(c);
    svc.crash_stop(); // crash; the read-only shard must not checkpoint in-memory state

    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let c2 = svc2.client();
    // `a` holds exactly the one durable write and is writable again.
    assert_eq!(c2.query("a", "select a.item").unwrap().len(), 1);
    assert_eq!(c2.query("b", "select b.item").unwrap().len(), 1);
    let resp = c2.request_line("UPDATE a AT 5Feb97 ; {creNode(n203, 3), addArc(n1, item, n203)}");
    assert!(!resp.is_error(), "{resp:?}");
    assert_eq!(c2.query("a", "select a.item").unwrap().len(), 2);
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clean shutdown: drains, final-checkpoints every dirty shard, truncates
/// the logs — a restart finds the full workload without replaying a
/// single WAL record.
#[test]
fn clean_shutdown_then_restart_loses_nothing() {
    let dir = fresh_dir("clean");
    let svc = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let acked = run_workload(&svc);
    assert!(acked.iter().all(|(_, ok)| *ok));
    svc.shutdown();

    // The final checkpoints emptied every log.
    for stem in ["alpha", "beta", "gamma"] {
        let wal = dir.join(format!("{stem}.wal"));
        assert_eq!(std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0), 0, "{stem}");
    }

    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    for db in ["alpha", "beta", "gamma"] {
        let want = expected_db(db, &acked);
        assert_recovered_equals(&svc2, db, &want, "clean shutdown");
    }
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `AT now` writes under a misbehaving wall clock: the LSN allocator
/// must keep Definition 2.2 (strictly increasing change timestamps) even
/// when the injected clock steps backwards or stalls, counting every
/// clamp in `clock_regressions` — and the clamped history must survive a
/// kill-9 like any other.
#[test]
fn at_now_clamps_clock_regressions_to_monotonic_lsns() {
    use serve::WallClock;
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
    use std::sync::Arc;

    let hands = Arc::new(AtomicI64::new(0));
    let clock = {
        let hands = Arc::clone(&hands);
        WallClock::from_fn(move || Timestamp::from_raw_minutes(hands.load(Relaxed)))
    };
    let dir = fresh_dir("clock-regress");
    let mut cfg = durable_cfg(&dir, Faults::disabled());
    cfg.clock = clock.clone();
    let svc = Service::start(cfg).unwrap();
    let c = svc.client();
    assert!(!c.request_line("CREATE p").is_error());

    let write = |i: usize, minutes: i64| {
        hands.store(minutes, Relaxed);
        let resp = c.request_line(&format!(
            "UPDATE p AT now ; {{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
            600 + i,
            i
        ));
        assert!(!resp.is_error(), "write {i} at clock {minutes}: {resp:?}");
    };
    write(0, 100); // healthy clock: LSN 100
    write(1, 50); // regression: clamps to 101
    write(2, 101); // stalled (not strictly ahead of 101): clamps to 102
    write(3, 200); // healthy again: LSN 200

    let got: Vec<i64> = svc
        .doem_snapshot("p")
        .unwrap()
        .timestamps()
        .iter()
        .map(|t| t.raw_minutes())
        .collect();
    assert_eq!(got, vec![100, 101, 102, 200]);
    assert_eq!(svc.metrics().clock_regressions.load(std::sync::atomic::Ordering::Relaxed), 2);
    let Response::Rows(stats) = c.request_line("STATS") else { panic!() };
    assert!(stats.iter().any(|l| l == "counter clock_regressions 2"), "{stats:?}");
    drop(c);
    svc.crash_stop(); // kill-9: the clamped LSNs must be the durable ones too

    let mut cfg2 = durable_cfg(&dir, Faults::disabled());
    cfg2.clock = clock;
    let svc2 = Service::start(cfg2).unwrap();
    let got: Vec<i64> = svc2
        .doem_snapshot("p")
        .unwrap()
        .timestamps()
        .iter()
        .map(|t| t.raw_minutes())
        .collect();
    assert_eq!(got, vec![100, 101, 102, 200], "clamped history lost in recovery");
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability is invisible on the wire. One scripted session — explicit
/// and server-allocated timestamps under a fixed clock, a `MUTATE` that
/// creates nodes, a change set the graph rejects, a timestamp that does
/// not move forward, current and `AS OF` reads (ring and pre-history),
/// generations — answers byte-identical lines from a shard with no WAL
/// and from one that group-commits through a WAL: both run the same
/// sequence → persist → publish path, and only the persist stage
/// differs. The one documented difference is the `durable` field of
/// `LSN`/`STATS`, `-` without a log.
#[test]
fn durability_is_invisible_on_the_wire() {
    fn transcript(mut cfg: ServeConfig) -> Vec<String> {
        let noon = "5Jan97 12:00pm".parse::<Timestamp>().unwrap();
        cfg.clock = serve::WallClock::from_fn(move || noon);
        let svc = Service::start(cfg).unwrap();
        let c = svc.client();
        let lines = [
            "CREATE t",
            "UPDATE t AT 1Jan97 ; {creNode(n10, \"a\"), addArc(n1, item, n10)}",
            "UPDATE t AT now ; {creNode(n11, \"b\"), addArc(n1, item, n11)}",
            // The clock has not moved: clamps to the last LSN + 1 minute.
            "UPDATE t AT now ; {updNode(n10, \"c\")}",
            "MUTATE t AT 1Feb97 ; insert t.shelf := (label \"top\", depth 3)",
            // Rejected by the graph (no such node); leaves no trace.
            "UPDATE t AT 1Mar97 ; {addArc(n1, item, n999)}",
            // Not strictly after the last LSN (1Feb97).
            "UPDATE t AT 15Jan97 ; {updNode(n10, \"z\")}",
            "UPDATE t AT 1Feb97 ; {updNode(n10, \"z\")}",
            // Does not compile against the sequencing head.
            "MUTATE t AT 2Feb97 ; update other.item := 1",
            "QUERY t select t.item",
            "QUERY t select V from t.item<upd from OV to V>",
            "QUERY t AS OF 2Jan97 select t.item",
            "QUERY t AS OF 1Dec96 select t.item",
            "QUERY t AS OF 1Mar97 select t.shelf.label",
            "GEN t",
            "GEN",
            "LSN t",
        ];
        let out = lines
            .iter()
            .map(|line| format!("{line}\n{}", c.request_line(line).render()))
            .collect();
        svc.shutdown();
        out
    }

    let dir = fresh_dir("wire-invisible");
    let in_memory = transcript(ServeConfig::default());
    let durable = transcript(ServeConfig {
        wal_dir: Some(dir.clone()),
        group_commit_max: 8,
        ..ServeConfig::default()
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Eight writes were attempted, four landed, and the session saw what
    // it should have: the test is not comparing two identical refusals.
    let expect = |i: usize, what: &str| {
        assert!(in_memory[i].contains(what), "line {i}: want {what:?} in {}", in_memory[i]);
    };
    expect(3, "at 5Jan97 12:01pm; generation 4");
    expect(4, "applied 6 ops (3 created) at 1Feb97; generation 5");
    expect(5, "ERR CONFLICT change set rejected: no such object");
    expect(6, "strictly time-ordered");
    expect(7, "strictly time-ordered");
    expect(8, "ERR CONFLICT update rejected");
    expect(10, "ROWS 1\nROW new-value=\"c\"");
    expect(11, "ROWS 1\n");
    expect(12, "ROWS 0\n");
    expect(13, "ROWS 1\n");
    expect(14, "OK 5\n");

    let (last_mem, last_dur) = (in_memory.len() - 1, durable.len() - 1);
    assert_eq!(in_memory[..last_mem], durable[..last_dur]);
    // `LSN`: nothing is durable without a log; with one, everything
    // applied is.
    let lsn = &in_memory[last_mem];
    let applied = lsn.split(' ').nth(3).unwrap();
    assert!(lsn.contains(" durable - "), "{lsn}");
    assert_eq!(
        lsn.replace(" durable - ", &format!(" durable {applied} ")),
        durable[last_dur]
    );
}

mod torn_log_properties {
    //! Satellite proptest: crash the log at an **arbitrary byte offset**
    //! (op boundary or mid-record) and demand recovery equal the replay
    //! of the longest whole-record prefix — the `U(R_old) = R_new`
    //! invariant applied to the log.

    use super::*;
    use proptest::prelude::*;

    /// Build a valid `n`-entry history over an empty database and return
    /// the encoded WAL image plus the record boundaries.
    fn wal_image(n: usize) -> (Vec<u8>, Vec<u64>, Vec<(Timestamp, ChangeSet)>) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0u64];
        let mut entries = Vec::new();
        for i in 0..n {
            let at: Timestamp = format!("3Jan97 8:{:02}am", i + 1).parse().unwrap();
            let changes = parse_change_set(&format!(
                "{{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
                400 + i,
                i
            ))
            .unwrap();
            bytes.extend_from_slice(&serve::wal::encode_record(at, &changes));
            boundaries.push(bytes.len() as u64);
            entries.push((at, changes));
        }
        (bytes, boundaries, entries)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn recovery_equals_longest_whole_record_prefix(n in 0usize..7, cut_sel in 0usize..10_000) {
            let (bytes, boundaries, entries) = wal_image(n);
            let cut = cut_sel % (bytes.len() + 1);

            // Lay the crash scene down: a checkpoint of the empty
            // database plus the log truncated at the arbitrary offset.
            let dir = fresh_dir(&format!("prop-{n}-{cut}"));
            let store = lore::LoreStore::open(&dir).unwrap();
            let initial = OemDatabase::new("p".to_string());
            store.save_doem("p", &DoemDatabase::from_snapshot(&initial)).unwrap();
            std::fs::write(dir.join("p.wal"), &bytes[..cut]).unwrap();

            let svc = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
            let got = svc.doem_snapshot("p").expect("p must recover");

            // Oracle: replay exactly the records wholly before the cut.
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            let mut want = DoemDatabase::from_snapshot(&initial);
            let mut replica = initial;
            for (at, changes) in &entries[..whole] {
                apply_set(&mut want, &mut replica, changes, *at).unwrap();
            }
            prop_assert!(same_doem(&got, &want), "n={n} cut={cut} whole={whole}");
            if (cut as u64) != boundaries[whole] {
                prop_assert_eq!(
                    svc.metrics().torn_tails.load(std::sync::atomic::Ordering::Relaxed),
                    1
                );
            }
            svc.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Batching must be invisible on disk: writing the same records
        /// through `append_batch` in groups of `g` yields byte-identical
        /// log images, and a crash at an arbitrary offset — including
        /// mid-batch, straddling a batch boundary — still recovers the
        /// longest whole-*record* prefix, never a whole-batch granule.
        #[test]
        fn batched_log_recovers_record_prefix_across_batch_boundaries(
            n in 0usize..7,
            g in 1usize..5,
            cut_sel in 0usize..10_000,
        ) {
            let (bytes, boundaries, entries) = wal_image(n);
            let dir = fresh_dir(&format!("prop-batch-{n}-{g}-{cut_sel}"));
            std::fs::create_dir_all(&dir).unwrap();
            let metrics = serve::metrics::Metrics::new();
            let mut wal = serve::wal::DbWal::open(dir.join("p.wal"), 0).unwrap();
            let frames: Vec<Vec<u8>> =
                entries.iter().map(|(at, ch)| serve::wal::encode_record(*at, ch)).collect();
            for chunk in frames.chunks(g) {
                let refs: Vec<&[u8]> = chunk.iter().map(|f| f.as_slice()).collect();
                wal.append_batch(&refs, &Faults::disabled(), &metrics).unwrap();
            }
            drop(wal);
            let on_disk = std::fs::read(dir.join("p.wal")).unwrap();
            prop_assert_eq!(&on_disk, &bytes, "batch size {} changed the image", g);

            // Crash scene: checkpointed empty image + log cut anywhere.
            let cut = cut_sel % (bytes.len() + 1);
            let store = lore::LoreStore::open(&dir).unwrap();
            let initial = OemDatabase::new("p".to_string());
            store.save_doem("p", &DoemDatabase::from_snapshot(&initial)).unwrap();
            std::fs::write(dir.join("p.wal"), &bytes[..cut]).unwrap();

            let svc = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
            let got = svc.doem_snapshot("p").expect("p must recover");
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            let mut want = DoemDatabase::from_snapshot(&initial);
            let mut replica = initial;
            for (at, changes) in &entries[..whole] {
                apply_set(&mut want, &mut replica, changes, *at).unwrap();
            }
            prop_assert!(same_doem(&got, &want), "n={} g={} cut={} whole={}", n, g, cut, whole);
            svc.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Satellite proptest: recovery is **idempotent**. Recovering a
        /// checkpoint + log tail (possibly torn), crashing again without
        /// writing anything, and recovering a second time — and then a
        /// third time after a *clean* shutdown folded the log into the
        /// checkpoint — must all yield the same canonical graph as the
        /// single recovery. Replaying `H` twice must not double-apply,
        /// and folding `H` into `O` must not change `D(O, H)`. Records
        /// carry a non-zero epoch so the fence survives every round trip.
        #[test]
        fn recovery_is_idempotent_under_repeated_restarts(
            n in 0usize..7,
            cut_sel in 0usize..10_000,
            epoch in 0u64..3,
        ) {
            let mut bytes = Vec::new();
            let mut boundaries = vec![0u64];
            let mut entries = Vec::new();
            for i in 0..n {
                let at: Timestamp = format!("6Jan97 8:{:02}am", i + 1).parse().unwrap();
                let changes = parse_change_set(&format!(
                    "{{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
                    450 + i,
                    i
                ))
                .unwrap();
                bytes.extend_from_slice(&serve::wal::encode_record_epoch(at, &changes, epoch));
                boundaries.push(bytes.len() as u64);
                entries.push((at, changes));
            }
            let cut = cut_sel % (bytes.len() + 1);
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;

            let dir = fresh_dir(&format!("prop-idem-{n}-{cut}-{epoch}"));
            let store = lore::LoreStore::open(&dir).unwrap();
            let initial = OemDatabase::new("p".to_string());
            store.save_doem("p", &DoemDatabase::from_snapshot(&initial)).unwrap();
            std::fs::write(dir.join("p.wal"), &bytes[..cut]).unwrap();

            // Oracle: the replay of the whole-record prefix, applied once.
            let mut want = DoemDatabase::from_snapshot(&initial);
            let mut replica = initial;
            for (at, changes) in &entries[..whole] {
                apply_set(&mut want, &mut replica, changes, *at).unwrap();
            }
            let want_epoch = if whole > 0 { epoch } else { 0 };

            // First recovery, then a kill-9 (no checkpoint: the log tail
            // is still on disk and will be replayed again).
            let svc = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
            let g1 = svc.doem_snapshot("p").expect("p must recover");
            prop_assert!(same_doem(&g1, &want), "first recovery diverged");
            svc.crash_stop();

            // Second recovery replays the identical checkpoint + tail.
            let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
            let g2 = svc2.doem_snapshot("p").expect("p must survive re-recovery");
            prop_assert!(same_doem(&g2, &want), "second recovery double-applied");
            let Response::Ok(lsn) = svc2.client().request_line("LSN p") else {
                panic!("LSN p did not answer OK");
            };
            prop_assert!(
                lsn.ends_with(&format!("epoch {want_epoch}")),
                "recovered epoch wrong: {lsn:?} (want epoch {want_epoch})"
            );
            svc2.shutdown(); // clean: folds the tail into the checkpoint

            // Third recovery reads only the folded checkpoint.
            let svc3 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
            let g3 = svc3.doem_snapshot("p").expect("p must survive the folded restart");
            prop_assert!(same_doem(&g3, &want), "checkpoint fold changed the graph");
            svc3.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
