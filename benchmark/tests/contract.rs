//! `BENCHMARK.json` (repo root) must say what the catalogue says: the
//! driver reads the file, `doem-load` emits from the catalogue.

use doem_load::json::{self, Json};
use doem_load::metrics::{self, per_layer_names, END_TO_END, STATS_LAYER, TRACED_LAYER, UNIVERSAL};
use doem_load::script::Workload;

fn manifest() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(
        &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
    .unwrap()
}

fn names(list: &Json) -> Vec<&str> {
    list.elements()
        .iter()
        .filter_map(|m| m.get("name")?.as_str())
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let m = manifest();
    let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names(m.get("workloads").unwrap()),
        Workload::ALL.map(|w| w.name()),
        "workload names are normative"
    );

    let e2e = m.get("end_to_end").unwrap();
    assert_eq!(names(e2e), UNIVERSAL);
    for entry in e2e.elements() {
        let name = entry.get("name").and_then(Json::as_str).unwrap();
        let def = metrics::end_to_end(name).unwrap();
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{name}"
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better.as_str()),
            "{name}"
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            def.bound,
            "{name}"
        );
    }

    let layer = m.get("per_layer").unwrap();
    assert_eq!(
        names(layer),
        per_layer_names()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
    );
    for entry in layer.elements() {
        let name = entry.get("name").and_then(Json::as_str).unwrap();
        let def = match name.strip_prefix("client.").and_then(metrics::end_to_end) {
            Some(def) => def,
            None => STATS_LAYER
                .iter()
                .chain(TRACED_LAYER)
                .find(|d| d.name == name)
                .unwrap(),
        };
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{name}"
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better.as_str()),
            "{name}"
        );
        assert_eq!(
            entry.members().len(),
            3,
            "{name}: per-layer entries have exactly name, unit, better"
        );
    }
    assert_eq!(END_TO_END.len(), 13);
}
