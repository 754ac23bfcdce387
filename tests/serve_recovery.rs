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
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

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

/// Poll `cond` until it holds; panic after ten seconds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// How many image saves reached the `Checkpoint` failpoint so far.
fn checkpoint_attempts(faults: &Faults) -> u64 {
    faults
        .seen_by_site()
        .into_iter()
        .find(|(p, _)| *p == FaultPoint::Checkpoint)
        .map_or(0, |(_, n)| n)
}

/// Copy every file of a data directory into a fresh one: a crash scene
/// frozen at the moment of the copy.
fn copy_dir(from: &Path, tag: &str) -> PathBuf {
    let to = fresh_dir(tag);
    std::fs::create_dir_all(&to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
    to
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
        drop(svc); // kill-9: no drain checkpoint, no flush beyond acked appends

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
    // A checkpoint thread may still sit between its failpoint check and
    // that bump: quiesce first — every checkpoint that reached the
    // failpoint has ended in `checkpoints` or `checkpoint_failures`.
    let m = svc.metrics();
    wait_until("checkpoints to quiesce", || {
        m.checkpoints.load(Relaxed) + m.checkpoint_failures.load(Relaxed)
            >= checkpoint_attempts(&faults)
    });
    assert_eq!(
        m.faults_injected.load(Relaxed),
        faults.fired(),
        "seed {seed}: faults_injected diverged from the plan's fired count"
    );
    drop(c);
    drop(svc);

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
        drop(svc); // kill-9: no drain checkpoint

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
/// record), and flip the shard read-only exactly once. The riders are
/// gathered behind a primer write whose fsync stalls: they queue while
/// it is persisting and form the next batch, whose fsync fails.
#[test]
fn fsync_fault_fails_the_whole_batch_coherently_and_counts_once() {
    let dir = fresh_dir("batch-coherent");
    let faults = Faults::fail_nth(FaultPoint::WalFsync, 1, FaultMode::Error, false);
    let mut cfg = durable_cfg(&dir, faults.clone());
    cfg.workers = 1;
    cfg.group_commit_max = 8;
    let svc = Service::start(cfg).unwrap();
    let c = svc.client();
    assert!(!c.request_line("CREATE p").is_error());
    assert!(faults.arm_next(FaultPoint::WalFsync, 1, FaultMode::Stall(300)));
    let writes = pipelined_writes(7);
    let send =
        |(at, ch): &(Timestamp, ChangeSet)| c.begin_line(&format!("UPDATE p AT {at} ; {ch}")).1;
    let primer = send(&writes[0]);
    wait_until("the primer's fsync stalls", || faults.fired() == 1);
    let riders: Vec<_> = writes[1..].iter().map(send).collect();
    let primed = primer.wait();
    assert!(!primed.is_error(), "the primer must ack: {primed:?}");
    let responses: Vec<Response> = riders.into_iter().map(|p| p.wait()).collect();
    assert_eq!(faults.fired(), 2, "the stall and the failed fsync");
    // All six were riders of the single gathered batch: identical error.
    for (i, resp) in responses.iter().enumerate() {
        assert!(
            matches!(resp, Response::Error { kind: ErrKind::Io, .. }),
            "rider {i}: expected the batch's Io error, got {resp:?}"
        );
    }
    let m = svc.metrics();
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(m.faults_injected.load(Relaxed), 2, "one count per failpoint hit");
    assert_eq!(m.read_only_flips.load(Relaxed), 1, "one batch failure, one flip");
    drop(c);
    drop(svc);

    // The frames were written before the fsync failed, so recovery may
    // legally surface any whole-record prefix of the unacked batch (the
    // classic failed-fsync-acknowledgement case) — but only a prefix, in
    // submission order, never an invented or reordered write.
    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let got = svc2.doem_snapshot("p").expect("p must recover");
    let recovered = got.timestamps();
    assert!(!recovered.is_empty(), "the acked primer was lost");
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
    drop(svc); // crash; the read-only shard must not checkpoint in-memory state

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

    // The final checkpoints emptied every log and left no sealed segment.
    for stem in ["alpha", "beta", "gamma"] {
        let wal = dir.join(format!("{stem}.wal"));
        assert_eq!(std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0), 0, "{stem}");
        let sealed = dir.join(format!("{stem}.wal.sealed"));
        assert!(!sealed.exists(), "{stem}: a sealed segment survived a clean shutdown");
    }

    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    for db in ["alpha", "beta", "gamma"] {
        let want = expected_db(db, &acked);
        assert_recovered_equals(&svc2, db, &want, "clean shutdown");
    }
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `a.b` and `a_b` are two databases, so they keep two images and two
/// logs: after a crash each recovers its own write. (Both used to be
/// stored under the stem `a_b`, and only one came back.)
#[test]
fn names_that_differ_only_in_punctuation_recover_apart() {
    let dir = fresh_dir("names");
    let svc = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let writes = [("a.b", "2Jan97 9:00am"), ("a_b", "2Jan97 9:01am")];
    for (db, at) in writes {
        let update = format!("UPDATE {db} AT {at} ; {{creNode(n9, 1), addArc(n1, item, n9)}}");
        for line in [format!("CREATE {db}"), update] {
            let resp = svc.client().request_line(&line);
            assert!(!resp.is_error(), "{line}: {resp:?}");
        }
    }
    drop(svc);
    let svc = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    for (db, at) in writes {
        let got = svc.doem_snapshot(db).unwrap_or_else(|| panic!("{db} missing after restart"));
        assert_eq!(got.timestamps(), [at.parse::<Timestamp>().unwrap()], "{db}");
    }
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL directory written while file stems were lossy keeps `a.b` in
/// `a_b.oem` and `a_b.wal`. Recovery moves both files to the escaped stem
/// before it replays the log, so the acknowledged write survives, and the
/// next restart finds the same one database.
#[test]
fn a_lossy_stem_from_an_older_layout_recovers_its_log() {
    let dir = fresh_dir("lossy-stem");
    let mut cfg = durable_cfg(&dir, Faults::disabled());
    cfg.checkpoint_every = 0; // the write stays in the log
    let svc = Service::start(cfg.clone()).unwrap();
    for line in ["CREATE a.b", "UPDATE a.b AT 2Jan97 ; {creNode(n9, 1), addArc(n1, item, n9)}"] {
        let resp = svc.client().request_line(line);
        assert!(!resp.is_error(), "{line}: {resp:?}");
    }
    drop(svc);
    for ext in ["oem", "wal"] {
        std::fs::rename(dir.join(format!("a%2Eb.{ext}")), dir.join(format!("a_b.{ext}"))).unwrap();
    }
    for restart in 0..2 {
        let svc = Service::start(cfg.clone()).unwrap();
        assert_eq!(svc.database_names(), ["a.b"], "restart {restart}");
        let got = svc.doem_snapshot("a.b").unwrap();
        assert_eq!(got.timestamps(), ["2Jan97".parse::<Timestamp>().unwrap()], "restart {restart}");
        drop(svc);
    }
    assert!(!dir.join("a_b.oem").exists() && !dir.join("a_b.wal").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The state a database named `p` reaches from an empty one through
/// `writes`, pushed through the same `apply_set` the service uses.
fn replayed(writes: &[(Timestamp, ChangeSet)]) -> DoemDatabase {
    let initial = OemDatabase::new("p".to_string());
    let mut want = DoemDatabase::from_snapshot(&initial);
    let mut replica = initial;
    for (at, ch) in writes {
        apply_set(&mut want, &mut replica, ch, *at).unwrap();
    }
    want
}

/// Acknowledge `writes` against `p` one at a time.
fn write_all(c: &serve::Client, writes: &[(Timestamp, ChangeSet)]) {
    for (at, ch) in writes {
        let resp = c.request_line(&format!("UPDATE p AT {at} ; {ch}"));
        assert!(!resp.is_error(), "write at {at}: {resp:?}");
    }
}

/// A durable service over `dir` with an armed (but so far empty) fault
/// registry and a checkpoint due every four appends, with `p` created.
fn small_checkpoint_service(dir: &Path, faults: &Faults) -> Service {
    let mut cfg = durable_cfg(dir, faults.clone());
    cfg.checkpoint_every = 4;
    let svc = Service::start(cfg).unwrap();
    assert!(!svc.client().request_line("CREATE p").is_error());
    svc
}

/// The committer never waits on a checkpoint: with every image save
/// stalled for two seconds, forty writes — ten checkpoints' worth — all
/// acknowledge in well under that, and the stalled image is the only one
/// started (images coalesce instead of queueing). The writes survive a
/// crash in the middle of the stalled save.
#[test]
fn a_stalled_checkpoint_image_never_delays_a_write() {
    let dir = fresh_dir("stalled-image");
    let faults = Faults::armed();
    let svc = small_checkpoint_service(&dir, &faults);
    assert!(faults.arm_next(FaultPoint::Checkpoint, u64::MAX, FaultMode::Stall(2_000)));
    let writes = pipelined_writes(40);
    let began = Instant::now();
    write_all(&svc.client(), &writes);
    let took = began.elapsed();
    assert!(took < Duration::from_millis(1_000), "40 writes took {took:?}");
    assert_eq!(faults.fired(), 1, "a second image started behind the stalled one");
    assert!(dir.join("p.wal.sealed").exists());
    drop(svc);

    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let got = svc2.doem_snapshot("p").expect("p must recover");
    assert!(same_doem(&got, &replayed(&writes)));
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every crash scene a background checkpoint passes through recovers
/// every acknowledged write: (1) the image save in flight — old image,
/// sealed segment, active segment; (2) the new image renamed into place
/// but the sealed segment not yet deleted; (3) the sealed segment gone.
/// Scenes (1) and (3) are copies of the live directory; scene (2) is
/// (3) plus the sealed segment from (1), byte for byte what a kill -9
/// between the image rename and the unlink leaves behind.
#[test]
fn every_crash_scene_of_a_background_checkpoint_recovers_the_acked_writes() {
    let dir = fresh_dir("ckpt-scenes");
    let faults = Faults::armed();
    let svc = small_checkpoint_service(&dir, &faults);
    let c = svc.client();
    assert!(faults.arm_next(FaultPoint::Checkpoint, 1, FaultMode::Stall(1_500)));
    // Seven writes: the eighth would make the next checkpoint due.
    let writes = pipelined_writes(7);
    write_all(&c, &writes[..4]); // the fourth append makes a checkpoint due
    let sealed = dir.join("p.wal.sealed");
    wait_until("the segment to be sealed", || sealed.exists());
    write_all(&c, &writes[4..6]); // into the fresh active segment
    let in_flight = copy_dir(&dir, "ckpt-scenes-in-flight");
    assert!(in_flight.join("p.wal.sealed").exists());
    let m = svc.metrics();
    wait_until("the stalled image to land", || m.checkpoints.load(Relaxed) == 2);
    assert!(!sealed.exists(), "the sealed segment outlived its image");
    write_all(&c, &writes[6..]);
    let done = copy_dir(&dir, "ckpt-scenes-done");
    let renamed = copy_dir(&done, "ckpt-scenes-renamed");
    std::fs::copy(in_flight.join("p.wal.sealed"), renamed.join("p.wal.sealed")).unwrap();
    drop(c);
    drop(svc);

    for (scene, acked) in [(&in_flight, 6), (&renamed, 7), (&done, 7)] {
        let svc = Service::start(durable_cfg(scene, Faults::disabled())).unwrap();
        let got = svc.doem_snapshot("p").expect("p must recover");
        assert!(
            same_doem(&got, &replayed(&writes[..acked])),
            "{}: not the replay of the {acked} acked writes",
            scene.display()
        );
        assert_eq!(svc.metrics().torn_tails.load(Relaxed), 0);
        svc.shutdown();
    }
    for d in [&dir, &in_flight, &renamed, &done] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A failed image save leaves its sealed segment in place and is counted
/// in `checkpoint_failures`. The next due checkpoint does not rotate: it
/// saves a fresh image over both segments, then deletes the sealed one —
/// and a crash afterwards loses nothing.
#[test]
fn a_failed_checkpoint_is_folded_into_the_next_one() {
    let dir = fresh_dir("ckpt-error");
    let faults = Faults::armed();
    let svc = small_checkpoint_service(&dir, &faults);
    let c = svc.client();
    assert!(faults.arm_next(FaultPoint::Checkpoint, 1, FaultMode::Error));
    let writes = pipelined_writes(8);
    write_all(&c, &writes[..4]);
    let m = svc.metrics();
    wait_until("the image save to fail", || m.checkpoint_failures.load(Relaxed) == 1);
    let sealed = dir.join("p.wal.sealed");
    assert!(sealed.exists(), "a failed checkpoint deleted its segment");
    let Response::Rows(stats) = c.request_line("STATS") else { panic!() };
    assert!(stats.iter().any(|l| l == "counter checkpoint_failures 1"), "{stats:?}");

    write_all(&c, &writes[4..]);
    wait_until("the retry to land", || m.checkpoints.load(Relaxed) == 2);
    assert!(!sealed.exists(), "the retry left the sealed segment behind");
    let active = std::fs::metadata(dir.join("p.wal")).unwrap().len();
    assert!(active > 0, "the retry rotated the active segment");
    assert_eq!(m.checkpoint_failures.load(Relaxed), 1);
    drop(c);
    drop(svc);

    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let got = svc2.doem_snapshot("p").expect("p must recover");
    assert!(same_doem(&got, &replayed(&writes)));
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `LOAD` over a durable shard whose checkpoint image is stalled: the
/// replaced committer joins its checkpoint before the new incarnation's
/// image is saved, so the old image can never land over the new one.
#[test]
fn load_over_a_shard_with_a_stalled_checkpoint_keeps_the_new_image() {
    let dir = fresh_dir("ckpt-load");
    let store = fresh_dir("ckpt-load-store");
    let faults = Faults::armed();
    let mut cfg = durable_cfg(&dir, faults.clone());
    cfg.checkpoint_every = 4;
    cfg.store_dir = Some(store.clone());
    let svc = Service::start(cfg).unwrap();
    let c = svc.client();
    assert!(!c.request_line("CREATE p").is_error());
    let writes = pipelined_writes(5);
    write_all(&c, &writes[..3]);
    assert!(!c.request_line("SAVE p").is_error()); // what LOAD will bring back
    assert!(faults.arm_next(FaultPoint::Checkpoint, 1, FaultMode::Stall(1_000)));
    write_all(&c, &writes[3..4]); // checkpoint due: its image holds 4 writes
    wait_until("the segment to be sealed", || dir.join("p.wal.sealed").exists());
    let resp = c.request_line("LOAD p");
    assert!(!resp.is_error(), "{resp:?}");
    assert_eq!(svc.metrics().checkpoints.load(Relaxed), 3, "CREATE, the stalled image, LOAD");
    assert!(!dir.join("p.wal.sealed").exists());
    write_all(&c, &writes[4..]);
    drop(c);
    drop(svc);

    let image = lore::LoreStore::open(&dir).unwrap().load_doem("p").unwrap();
    assert_eq!(
        image.timestamps(),
        writes[..3].iter().map(|(at, _)| *at).collect::<Vec<_>>(),
        "the replaced shard's image landed over the loaded one"
    );
    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let got = svc2.doem_snapshot("p").expect("p must recover");
    let mut want: Vec<_> = writes[..3].to_vec();
    want.push(writes[4].clone());
    assert!(same_doem(&got, &replayed(&want)));
    svc2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&store);
}

/// On a durable service (four workers, a store) with `b` written once and
/// the `setup` lines run, stall the next image save for 2 s and send
/// `install` from another thread. While it stalls, `STATS`, `LSN b`,
/// `DBS`, an uncached query on `b`, then `probes`, must each answer in
/// < 50 ms with a reply containing the paired text. Then the install
/// must succeed.
fn stalled_install(
    dir: &Path,
    setup: &[String],
    install: &str,
    probes: &[(&str, &str)],
) -> Service {
    let faults = Faults::armed();
    let mut cfg = durable_cfg(dir, faults.clone());
    cfg.workers = 4;
    cfg.store_dir = Some(dir.with_extension("store"));
    let svc = Service::start(cfg).unwrap();
    let c = svc.client();
    let b = ["CREATE b", "UPDATE b AT 3Jan97 ; {creNode(n9, 1), addArc(n1, item, n9)}"];
    for line in b.iter().copied().chain(setup.iter().map(String::as_str)) {
        assert!(!c.request_line(line).is_error(), "{line}");
    }
    assert!(faults.arm_next(FaultPoint::Checkpoint, 1, FaultMode::Stall(2_000)));
    std::thread::scope(|scope| {
        let installing = scope.spawn(|| svc.client().request_line(install));
        wait_until("the image save to stall", || faults.fired() == 1);
        let bystanders = [
            ("STATS", "\nROW gauge read_only_shards 0\n"),
            ("LSN b", "OK applied "),
            ("DBS", "ROW b\n"),
            ("QUERY b select b.item", "ROWS 1\n"),
        ];
        for (line, want) in bystanders.iter().chain(probes) {
            let began = Instant::now();
            let got = svc.client().request_line(line).render();
            assert!(began.elapsed() < Duration::from_millis(50), "{line} was slow");
            assert!(got.contains(want), "{line}: {got}");
        }
        let done = installing.join().unwrap();
        assert!(!done.is_error(), "{install}: {done:?}");
    });
    let _ = std::fs::remove_dir_all(dir.with_extension("store"));
    svc
}

/// `CREATE a` sitting on a stalled image save blocks no other request,
/// and a racing `CREATE a` is told to retry.
#[test]
fn a_stalled_create_blocks_no_other_request() {
    let dir = fresh_dir("create-stall");
    let retry = "ERR CONFLICT database \"a\" is being installed; retry";
    let svc = stalled_install(&dir, &[], "CREATE a", &[("DBS", "ROWS 1\n"), ("CREATE a", retry)]);
    assert_eq!(svc.database_names(), ["a", "b"]);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `LOAD p` over a live durable shard, sitting on a stalled image save:
/// queries on `p` answer from the old incarnation (three writes, not the
/// saved two), its writes are refused as being replaced, and the loaded
/// image is what survives a crash.
#[test]
fn a_stalled_load_keeps_serving_the_old_incarnation() {
    let dir = fresh_dir("load-stall");
    let writes = pipelined_writes(3);
    let update = |(at, ch): &(Timestamp, ChangeSet)| format!("UPDATE p AT {at} ; {ch}");
    let mut setup = vec!["CREATE p".to_string(), update(&writes[0]), update(&writes[1])];
    setup.extend(["SAVE p".to_string(), update(&writes[2])]);
    let probes = [
        ("QUERY p select p.item", "ROWS 3\n"),
        ("UPDATE p AT 5Jan97 ; {updNode(n500, 7)}", "is being replaced; retry"),
    ];
    let svc = stalled_install(&dir, &setup, "LOAD p", &probes);
    let rows = svc.client().request_line("QUERY p select p.item");
    assert!(matches!(&rows, Response::Rows(r) if r.len() == 2), "{rows:?}");
    drop(svc);
    let svc2 = Service::start(durable_cfg(&dir, Faults::disabled())).unwrap();
    let got = svc2.doem_snapshot("p").expect("p must recover");
    assert!(same_doem(&got, &replayed(&writes[..2])));
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
    drop(svc); // kill-9: the clamped LSNs must be the durable ones too

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
            drop(svc);

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

/// The transcript of `setup` then `after` against one durable service,
/// and the transcript of the same lines against a second durable service
/// that is shut down cleanly and restarted between the two. A restart
/// must be invisible on the wire: the two come back line for line equal,
/// except for the generation an ack echoes, which counts the writes of
/// one incarnation of the shard and is masked here.
fn transcripts_across_a_restart(tag: &str, setup: &[&str], after: &[&str]) -> [Vec<String>; 2] {
    let run = |c: &serve::Client, lines: &[&str]| -> Vec<String> {
        lines
            .iter()
            .map(|line| {
                let reply = c.request_line(line).render();
                let reply = match reply.split_once("; generation ") {
                    Some((ack, _)) => format!("{ack}; generation _"),
                    None => reply,
                };
                format!("{line}\n{reply}")
            })
            .collect()
    };
    let steady_dir = fresh_dir(&format!("{tag}-steady"));
    let svc = Service::start(durable_cfg(&steady_dir, Faults::disabled())).unwrap();
    let steady = [setup, after].concat();
    let steady = run(&svc.client(), &steady);
    svc.shutdown();

    let restarted_dir = fresh_dir(&format!("{tag}-restarted"));
    let svc = Service::start(durable_cfg(&restarted_dir, Faults::disabled())).unwrap();
    let mut restarted = run(&svc.client(), setup);
    svc.shutdown();
    let svc = Service::start(durable_cfg(&restarted_dir, Faults::disabled())).unwrap();
    restarted.extend(run(&svc.client(), after));
    svc.shutdown();
    for dir in [steady_dir, restarted_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
    [steady, restarted]
}

/// A node cut loose from the current snapshot keeps its id in the DOEM
/// graph (its removed arc still reaches it), so §2.2's "deleted ids are
/// never reused" must steer `MUTATE`'s fresh ids past it after a restart
/// as well as before one.
#[test]
fn a_mutate_after_restart_never_reuses_a_cut_loose_id() {
    let setup = [
        "CREATE t",
        "UPDATE t AT 1Jan97 ; {creNode(n10, \"a\"), addArc(n1, item, n10), \
         creNode(n11, C), addArc(n1, shelf, n11)}",
        "UPDATE t AT 2Jan97 ; {remArc(n1, shelf, n11)}",
    ];
    let after = [
        "MUTATE t AT 4Jan97 ; insert t.shelf := \"again\"",
        "QUERY t select t.shelf",
        "UPDATE t AT 5Jan97 ; {creNode(n11, \"reused\"), addArc(n1, item, n11)}",
    ];
    let [steady, restarted] = transcripts_across_a_restart("cut-loose", &setup, &after);
    assert!(steady[3].contains("OK applied 2 ops (1 created)"), "{}", steady[3]);
    assert!(steady[5].contains("identifier n11 is already in use"), "{}", steady[5]);
    assert_eq!(steady, restarted);
}

/// `MUTATE` binds its target paths over the DOEM graph's current view, in
/// the graph's child order, before and after a restart alike: a removed
/// and re-added arc keeps its place, so the same statement hands the same
/// fresh ids to the same parents.
#[test]
fn a_mutate_binds_in_the_same_order_before_and_after_restart() {
    let setup = [
        "CREATE t",
        "UPDATE t AT 1Jan97 ; {creNode(n20, C), creNode(n21, C), creNode(n30, \"a\"), \
         creNode(n31, \"b\"), addArc(n1, shelf, n20), addArc(n1, shelf, n21), \
         addArc(n1, keep, n20), addArc(n20, name, n30), addArc(n21, name, n31)}",
        "UPDATE t AT 2Jan97 ; {remArc(n1, shelf, n20)}",
        "UPDATE t AT 3Jan97 ; {addArc(n1, shelf, n20)}",
    ];
    let after = [
        "MUTATE t AT 4Jan97 ; insert t.shelf.box := (size 1)",
        "QUERY t select N, B from t.shelf S, S.name N, S.box B",
    ];
    let [steady, restarted] = transcripts_across_a_restart("rebind", &setup, &after);
    assert!(steady[4].contains("OK applied 8 ops (4 created)"), "{}", steady[4]);
    assert!(steady[5].contains("ROWS 2"), "{}", steady[5]);
    assert_eq!(steady, restarted);
}
