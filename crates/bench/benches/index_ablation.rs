//! X2 — annotation-index ablation (the paper's Section 7 proposal:
//! "designing indexes on annotations based on their types and
//! timestamps"). Compares a Tindex-backed timestamp-range lookup against
//! the full annotation scan it replaces.

use bench::evolving_doem;
use criterion::{criterion_group, criterion_main, Criterion};
use doem::{AnnotationIndex, TimeRange};
use oem::Timestamp;
use std::hint::black_box;

fn bench_annotation_index(c: &mut Criterion) {
    for &steps in &[20usize, 100, 400] {
        let d = evolving_doem(7, 50, steps, 8);
        let idx = AnnotationIndex::build(&d);
        let mid: Timestamp = "1Jan97".parse::<Timestamp>().unwrap().plus_minutes(steps as i64 * 30);
        let range = TimeRange::since(mid);

        let mut group = c.benchmark_group(format!("index_ablation/{steps}steps"));
        group.bench_function("tindex-range", |b| {
            b.iter(|| black_box(&idx).created_in(black_box(range)).count())
        });
        group.bench_function("full-scan", |b| {
            b.iter(|| {
                // The unindexed equivalent: scan every node's annotations.
                d.annotated_nodes()
                    .flat_map(|n| d.node_annotations(n))
                    .filter(|a| a.is_cre() && a.at() >= mid)
                    .count()
            })
        });
        group.bench_function("tindex-build", |b| {
            b.iter(|| AnnotationIndex::build(black_box(&d)))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_annotation_index);
criterion_main!(benches);
