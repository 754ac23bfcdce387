//! X9 — replication: read throughput scaling across follower counts, and
//! the catch-up cost of attaching a follower from empty.
//!
//! The replication claim is that followers buy **read scale-out**: every
//! follower serves snapshot-isolated queries at its applied LSN, so a
//! read-heavy workload spread over 1 primary + N followers should
//! approach (N+1)× the single-instance throughput. The `reads` group
//! measures a fixed query burst round-robined over the topology at
//! N ∈ {0, 1, 2, 4}; caching is disabled so every query pays real
//! evaluation. The `catch-up` group measures the wall time from
//! attaching an empty follower to graph-equal convergence, for
//! checkpoint-image catch-up of increasing database sizes.
//!
//! This file lives beside the X1–X6 benches but belongs to the root
//! package (the bench crate does not depend on `serve`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doem::same_doem;
use oem::{parse_change_set, ChangeSet, Timestamp};
use serve::{ServeConfig, Service};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The i-th record of the benchmark history: one create + one link, with
/// strictly increasing timestamps (minute resolution).
fn record(i: usize) -> (Timestamp, ChangeSet) {
    let at = Timestamp::from_raw_minutes(1_000_000 + i as i64);
    let changes = parse_change_set(&format!(
        "{{creNode(n{0}, {1}), addArc(n1, item, n{0})}}",
        500 + i,
        i
    ))
    .unwrap();
    (at, changes)
}

/// Start a primary holding a `rows`-record database `p`, listening on an
/// ephemeral port. Caching is off so reads pay evaluation.
fn primary_with(rows: usize) -> (Service, serve::TcpHandle) {
    let svc = Service::start(ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let c = svc.client();
    assert!(!c.request_line("CREATE p").is_error());
    for i in 0..rows {
        let (at, changes) = record(i);
        let resp = c.request_line(&format!("UPDATE p AT {at} ; {changes}"));
        assert!(!resp.is_error(), "{resp:?}");
    }
    let handle = svc.listen("127.0.0.1:0").unwrap();
    (svc, handle)
}

/// Attach one follower (caching off) and block until it is graph-equal
/// with the primary. Returns the follower and the convergence time.
fn attach_follower(primary: &Service, addr: &str, id: &str) -> (Service, Duration) {
    let t0 = Instant::now();
    let follower = Service::start(ServeConfig {
        follow: Some(addr.to_string()),
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let want = primary.doem_snapshot("p").unwrap();
    loop {
        if let Some(got) = follower.doem_snapshot("p") {
            if same_doem(&got, &want) {
                return (follower, t0.elapsed());
            }
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "{id} never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Read scale-out: 256 queries per sample, round-robined over the
/// topology by 4 reader threads. The same total work at every follower
/// count — more instances, more parallel evaluation capacity.
fn bench_read_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication/reads");
    group.sample_size(10);
    for &followers in &[0usize, 1, 2, 4] {
        let (primary, handle) = primary_with(64);
        let addr = handle.addr().to_string();
        let fs: Vec<Service> = (0..followers)
            .map(|i| attach_follower(&primary, &addr, &format!("x9-{i}")).0)
            .collect();
        let clients: Vec<serve::Client> = std::iter::once(primary.client())
            .chain(fs.iter().map(|f| f.client()))
            .collect();

        group.bench_with_input(
            BenchmarkId::new("queries-256", format!("followers-{followers}")),
            &followers,
            |b, _| {
                b.iter(|| {
                    let done = std::sync::atomic::AtomicUsize::new(0);
                    std::thread::scope(|s| {
                        for t in 0..4usize {
                            let clients = &clients;
                            let done = &done;
                            s.spawn(move || {
                                for q in 0..64usize {
                                    let c = &clients[(t * 64 + q) % clients.len()];
                                    let rows = c.query("p", "select p.item").unwrap();
                                    assert_eq!(rows.len(), 64);
                                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                            });
                        }
                    });
                    black_box(done.load(std::sync::atomic::Ordering::Relaxed))
                })
            },
        );

        drop(handle);
        for f in fs {
            f.shutdown();
        }
        primary.shutdown();
    }
    group.finish();
}

/// Catch-up cost: wall time from attaching an empty follower to full
/// graph equality, dominated by the checkpoint-image ship + install.
fn bench_catch_up(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication/catch-up");
    group.sample_size(10);
    for &rows in &[64usize, 256] {
        let (primary, handle) = primary_with(rows);
        let addr = handle.addr().to_string();
        group.bench_with_input(BenchmarkId::new("attach-empty", rows), &rows, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let (follower, took) = attach_follower(&primary, &addr, &format!("cu-{i}"));
                i += 1;
                follower.shutdown();
                black_box(took)
            })
        });
        drop(handle);
        primary.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_read_scaling, bench_catch_up);
criterion_main!(benches);
