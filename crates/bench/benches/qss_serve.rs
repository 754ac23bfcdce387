//! X7 — service throughput versus concurrent client count.
//!
//! Each measurement runs N session threads, each firing a fixed batch of
//! requests through an in-process [`serve::Client`] against one shared
//! service (4 workers, guide fixture installed). Three workloads:
//!
//! * `read-hot` — one query text; after the first miss everything is a
//!   cache hit, measuring queue + lock + cache overhead;
//! * `read-cold` — per-thread distinct query texts, defeating the cache,
//!   measuring parallel read-path evaluation;
//! * `mixed` — 1 update per 8 queries, exercising the write path and
//!   generation-based invalidation under contention;
//! * `multi-db-writes` — 8 writer threads spread over 1/2/4/8 databases,
//!   measuring how write throughput scales with shard count (the point
//!   of the sharded registry: disjoint databases don't share a lock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oem::guide::{guide_figure2, history_example_2_3};
use serve::{Response, ServeConfig, Service};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

const BATCH: usize = 32;

fn guide_service() -> Service {
    let svc = Service::start(ServeConfig {
        workers: 4,
        queue_depth: 256,
        ..ServeConfig::default()
    })
    .expect("service starts");
    svc.install(&guide_figure2(), &history_example_2_3())
        .expect("fixture installs");
    svc
}

/// Run `clients` threads, each executing `per_client` request lines made
/// by `line(thread_idx, iteration)`; counts non-error responses.
fn fan_out(svc: &Service, clients: usize, line: impl Fn(usize, usize) -> String + Sync) -> usize {
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for t in 0..clients {
            let client = svc.client();
            let line = &line;
            handles.push(scope.spawn(move || {
                let mut ok = 0;
                for i in 0..BATCH {
                    if !client.request_line(&line(t, i)).is_error() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn bench_read_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("qss_serve/read-hot");
    group.sample_size(10);
    for &clients in &[1usize, 2, 4, 8, 16] {
        let svc = guide_service();
        group.throughput(Throughput::Elements((clients * BATCH) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(clients), &clients, |b, &n| {
            b.iter(|| {
                black_box(fan_out(&svc, n, |_, _| {
                    "QUERY guide select guide.restaurant".to_string()
                }))
            })
        });
        svc.shutdown();
    }
    group.finish();

    let mut group = c.benchmark_group("qss_serve/read-cold");
    group.sample_size(10);
    for &clients in &[1usize, 4, 8] {
        let svc = guide_service();
        group.throughput(Throughput::Elements((clients * BATCH) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(clients), &clients, |b, &n| {
            b.iter(|| {
                black_box(fan_out(&svc, n, |t, i| {
                    // Distinct price bound per request → distinct canonical
                    // text → cache miss → real evaluation on the read path.
                    format!(
                        "QUERY guide select guide.restaurant where guide.restaurant.price < {}",
                        1000 + t * BATCH + i
                    )
                }))
            })
        });
        svc.shutdown();
    }
    group.finish();
}

fn bench_mixed_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("qss_serve/mixed");
    group.sample_size(10);
    for &clients in &[2usize, 8] {
        let svc = guide_service();
        // Unique node ids per update across the whole benchmark run.
        let next_id = AtomicU64::new(1_000);
        group.throughput(Throughput::Elements((clients * BATCH) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(clients), &clients, |b, &n| {
            b.iter(|| {
                black_box(fan_out(&svc, n, |_, i| {
                    if i % 8 == 7 {
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        format!(
                            "UPDATE guide AT now ; \
                             {{creNode(n{id}, \"B{id}\"), addArc(n4, bench, n{id})}}"
                        )
                    } else {
                        "QUERY guide select guide.restaurant".to_string()
                    }
                }))
            })
        });
        // The mixed workload must not silently degrade into errors.
        let stats = svc.client().request_line("STATS");
        if let Response::Rows(rows) = stats {
            let errors = rows
                .iter()
                .find(|l| l.starts_with("counter errors "))
                .and_then(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
                .unwrap_or(0);
            assert_eq!(errors, 0, "mixed workload produced errors");
        }
        svc.shutdown();
    }
    group.finish();
}

fn bench_multi_db_write_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("qss_serve/multi-db-writes");
    group.sample_size(10);
    const WRITERS: usize = 8;
    for &dbs in &[1usize, 2, 4, 8] {
        let svc = Service::start(ServeConfig {
            workers: WRITERS,
            queue_depth: 256,
            cache_capacity: 0, // pure write path; no result caching at play
            ..ServeConfig::default()
        })
        .expect("service starts");
        let setup = svc.client();
        for d in 0..dbs {
            let resp = setup.request_line(&format!("CREATE db{d}"));
            assert!(!resp.is_error(), "{resp:?}");
        }
        let next_id = AtomicU64::new(1_000);
        group.throughput(Throughput::Elements((WRITERS * BATCH) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dbs), &dbs, |b, &dbs| {
            b.iter(|| {
                black_box(fan_out(&svc, WRITERS, |t, _| {
                    // Writer t hammers db (t mod dbs): with 1 database all
                    // eight serialize on one shard lock; with 8 they are
                    // fully disjoint.
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    format!(
                        "UPDATE db{} AT now ; \
                         {{creNode(n{id}, {id}), addArc(n1, item, n{id})}}",
                        t % dbs
                    )
                }))
            })
        });
        let stats = svc.client().request_line("STATS");
        if let Response::Rows(rows) = stats {
            let errors = rows
                .iter()
                .find(|l| l.starts_with("counter errors "))
                .and_then(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
                .unwrap_or(0);
            assert_eq!(errors, 0, "multi-db write workload produced errors");
        }
        svc.shutdown();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_read_throughput,
    bench_mixed_throughput,
    bench_multi_db_write_scaling
);
criterion_main!(benches);
