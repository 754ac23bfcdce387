//! Static/runtime lock-order cross-validation (DESIGN.md §13).
//!
//! The runtime sanitizer observes the lock-order edges a real serve
//! workload actually takes; `doem-lint`'s static analysis predicts a
//! superset of them. This test drives a mixed read/write workload with
//! the sanitizer on, then checks **every** runtime edge has a static
//! counterpart — a missing one means the static analysis overlooked
//! real locking behavior (a lint soundness bug, not a serve bug).
//!
//! The second half gives the check teeth: deleting the static edge that
//! covers an observed runtime edge must flip the verdict to a violation.
//!
//! Lives in its own test binary (own process) because `sanitizer::enable`
//! is process-wide.

use oem::guide::{guide_figure2, history_example_2_3};
use serve::{Response, ServeConfig, Service};
use std::time::Duration;

#[test]
fn runtime_lock_order_graph_is_a_subset_of_the_static_graph() {
    sanitizer::enable();

    // A workload that exercises the interesting lock nests: shard map +
    // shard state on queries, the commit pipeline + WAL on updates, and
    // the shard map + version rings via STATS.
    let svc = Service::start(ServeConfig {
        workers: 4,
        queue_depth: 64,
        request_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .unwrap();
    svc.install(&guide_figure2(), &history_example_2_3()).unwrap();
    std::thread::scope(|scope| {
        for w in 0..3 {
            let client = svc.client();
            scope.spawn(move || {
                let db = format!("g{w}");
                let resp = client.request_line(&format!("CREATE {db}"));
                assert!(!resp.is_error(), "CREATE {db}: {resp:?}");
                for i in 0..10 {
                    let id = 100 + i;
                    let line = format!(
                        "UPDATE {db} AT 2Jan97 1:{i:02}pm ; \
                         {{creNode(n{id}, {i}), addArc(n1, item, n{id})}}"
                    );
                    let resp = client.request_line(&line);
                    assert!(!resp.is_error(), "writer {w} op {i}: {resp:?}");
                    let rows = client.query("guide", "select guide.restaurant.name");
                    assert!(rows.is_ok(), "reader {w} op {i}: {rows:?}");
                }
            });
        }
    });
    let Response::Rows(_) = svc.client().request_line("STATS") else {
        panic!("STATS failed")
    };

    let observed = sanitizer::order_graph();
    assert!(
        !observed.is_empty(),
        "workload produced no nested acquisitions — the cross-validation would be vacuous"
    );
    let runtime_edges: Vec<(String, String)> = observed
        .iter()
        .map(|e| (e.from_site.clone(), e.to_site.clone()))
        .collect();

    // The static graph, over the exact source set doem-lint analyzes.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let an = lint::locks::analyze(&lint::lock_analysis_sources(root));
    assert!(!an.edges.is_empty(), "static analysis produced no lock-order edges");

    let violations = lint::locks::runtime_subset(&an, &runtime_edges);
    assert!(
        violations.is_empty(),
        "{} runtime edge(s) missing from the static lock-order graph (soundness bug in \
         crates/lint):\n{}",
        violations.len(),
        violations.join("\n")
    );

    // Teeth: some observed runtime edge must be covered by a static edge
    // whose deliberate deletion the subset check then catches.
    let keys: Vec<_> = an.edges.keys().cloned().collect();
    let caught = keys.iter().any(|key| {
        let mut pruned = an.clone();
        pruned.edges.remove(key);
        !lint::locks::runtime_subset(&pruned, &runtime_edges).is_empty()
    });
    assert!(
        caught,
        "deleting static edges never produced a violation — the runtime graph exercises \
         none of them, so the subset check is vacuous"
    );
}
