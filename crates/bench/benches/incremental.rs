//! X10 — incremental evaluation: per-tick cost at a *fixed* delta versus
//! database size (DESIGN.md §11). Two faces of the same claim:
//!
//! * `incremental/publish` — the serve cache's publish-stage choice after
//!   a write touched a fixed number of objects: full re-evaluation of a
//!   cached query (`full/…`, scans the database) versus asking the
//!   change-set-seeded delta variants what the write adds to the prior
//!   rows (`maintain/…`, `chorel::delta::fresh_rows` — what the publish
//!   stage calls per entry; it walks the delta's root paths). The pool
//!   holds root-level steps, a depth-3 annotated step, and a join whose
//!   restricted constraint is enumerated last.
//! * `incremental/quiet-tick` — a whole QSS poll against a source that
//!   did not change: `re-poll` pays the full pipeline every tick
//!   (snapshot, polling query, OEMdiff), `incremental` takes the
//!   version-gate elision and the proven-empty filter skip.
//!
//! Re-poll should scale with database size; the incremental variants
//! should stay flat.

use chorel::{run_chorel_parsed, Strategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doem::{apply_set, DoemDatabase};
use lorel::QueryRegistry;
use oem::{ChangeOp, ChangeSet, OemDatabase, Timestamp, Value};
use qss::{synthetic_guide, QssServer, Source, Subscription};
use std::hint::black_box;

fn ts(s: &str) -> Timestamp {
    s.parse().unwrap()
}

/// One new restaurant and one note under an existing complex address
/// (3 nodes, 3 arcs) — the fixed delta every size pays.
fn fixed_delta(db: &mut OemDatabase) -> ChangeSet {
    let address = db
        .arcs()
        .find(|a| a.label.as_str() == "address" && db.is_complex(a.child))
        .expect("synthetic guides have complex addresses")
        .child;
    let r = db.alloc_id();
    let n = db.alloc_id();
    let note = db.alloc_id();
    ChangeSet::from_ops([
        ChangeOp::CreNode(r, Value::Complex),
        ChangeOp::CreNode(n, Value::str("Thai Spice")),
        ChangeOp::CreNode(note, Value::str("rear entrance")),
        ChangeOp::add_arc(db.root(), "restaurant", r),
        ChangeOp::add_arc(r, "name", n),
        ChangeOp::add_arc(address, "note", note),
    ])
    .unwrap()
}

fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/publish");
    group.sample_size(20);
    let queries = [
        ("plain", "select guide.restaurant"),
        ("filter", "select guide.<add at T>restaurant where T >= 2Jan97"),
        ("deep", "select X, T from guide.restaurant.address.<add at T>note X"),
        (
            "join",
            "select N, X from guide.restaurant R, R.name N, R.address.<add>note X",
        ),
    ];
    for &n in &[100usize, 400, 1600] {
        let mut replica = synthetic_guide(11, n);
        let mut d = DoemDatabase::from_snapshot(&replica);
        let parsed: Vec<_> = queries
            .iter()
            .map(|(_, q)| lorel::parse_query(q).unwrap())
            .collect();
        let prior: Vec<_> = parsed
            .iter()
            .map(|q| run_chorel_parsed(&d, q, Strategy::Direct).unwrap().rows)
            .collect();
        let at = ts("2Jan97");
        let set = fixed_delta(&mut replica);
        apply_set(&mut d, &mut replica, &set, at).unwrap();
        for (i, (tag, _)) in queries.iter().enumerate() {
            group.bench_with_input(BenchmarkId::new(format!("full/{tag}"), n), &n, |b, _| {
                b.iter(|| black_box(run_chorel_parsed(&d, &parsed[i], Strategy::Direct).unwrap()))
            });
            group.bench_with_input(BenchmarkId::new(format!("maintain/{tag}"), n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        chorel::delta::fresh_rows(&d, &parsed[i], &set, at, &prior[i])
                            .unwrap()
                            .expect("pool is inside the monotonic fragment"),
                    )
                })
            });
        }
    }
    group.finish();
}

/// A wrapper over a frozen database; `versioned` controls whether it can
/// prove to the server that nothing changed (the ETag analogue).
struct StaticSource {
    db: OemDatabase,
    versioned: bool,
}

impl Source for StaticSource {
    fn name(&self) -> &str {
        "static"
    }

    fn state_at(&self, _t: Timestamp) -> OemDatabase {
        self.db.clone()
    }

    fn version(&self) -> Option<u64> {
        self.versioned.then_some(1)
    }
}

const DEFS: &str = "define polling query Guide as select guide.restaurant \
                    define filter query News as \
                    select Guide.restaurant<cre at T> where T > t[-1]";

fn subscription() -> Subscription {
    let mut reg = QueryRegistry::new();
    reg.load(DEFS).unwrap();
    Subscription::from_registry("S", "every 1 hours".parse().unwrap(), &reg, "Guide", "News")
        .unwrap()
}

fn bench_quiet_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/quiet-tick");
    group.sample_size(10);
    for &n in &[100usize, 400, 1600] {
        for (tag, versioned) in [("re-poll", false), ("incremental", true)] {
            group.bench_with_input(BenchmarkId::new(tag, n), &n, |b, &n| {
                let mut server = QssServer::new(StaticSource {
                    db: synthetic_guide(11, n),
                    versioned,
                });
                server.subscribe(subscription(), ts("1Jan97"));
                // First poll folds the whole source in; every later poll
                // observes an unchanged snapshot.
                server.poll("S", ts("1Jan97 1:00am")).unwrap();
                let base = ts("1Jan97 2:00am").raw_minutes();
                let mut minute = 0i64;
                b.iter(|| {
                    minute += 1;
                    let at = Timestamp::from_raw_minutes(base + minute);
                    black_box(server.poll("S", at).unwrap())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_publish, bench_quiet_tick);
criterion_main!(benches);
