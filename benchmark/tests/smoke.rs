//! End-to-end smoke test: `run.sh --quick` — every workload over a real
//! `doem-serve` child, the output check, the traced pass, the result
//! file — at tiny op counts. Builds both release binaries on first use.

use doem_load::json;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn quick_mode_runs_all_four_workloads_checks_outputs_and_traces() {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out = here
        .join("out")
        .join(format!("smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new("bash")
        .arg(here.join("run.sh"))
        .args(["--quick", "--seed", "424242", "--out"])
        .arg(&out)
        // `cargo test` exports its own target directory; the release
        // binaries belong in the one run.sh picks by default.
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        run.status.success(),
        "run.sh --quick failed\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.trim_end().ends_with("\"claim\":null}"),
        "the summary must end with \"claim\": null\n{stdout}"
    );

    let result = json::parse(
        &std::fs::read_to_string(out.join("result.json")).expect("result.json written"),
    )
    .expect("result.json parses");
    assert_eq!(result.get("claim"), Some(&json::Json::Null));
    let workloads = result.get("workloads").expect("workloads");
    for name in ["read_hot", "read_cold", "write_durable", "time_travel"] {
        let w = workloads
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from result.json"));
        assert_eq!(
            w.get("failed").and_then(json::Json::as_f64),
            Some(0.0),
            "{name} had failed ops"
        );
        assert!(
            w.get("texts_checked")
                .and_then(json::Json::as_f64)
                .unwrap_or(0.0)
                >= 32.0
        );
        let e2e = w.get("end_to_end").expect("end_to_end");
        for metric in [
            "setup_s",
            "ops_per_s",
            "read_p50_us",
            "failed_frac",
            "server_rss_mb",
        ] {
            let v = e2e
                .get(metric)
                .and_then(|m| m.get("median"))
                .and_then(json::Json::as_f64);
            assert!(v.is_some(), "{name} lacks {metric}");
        }
        assert!(w
            .get("per_layer")
            .and_then(|l| l.get("lorel.engine.execute_us"))
            .is_some());
        let trace = std::fs::read_to_string(out.join(format!("trace-{name}.jsonl")))
            .expect("trace file written");
        let first =
            json::parse(trace.lines().next().expect("at least one span")).expect("span parses");
        for key in ["id", "parent", "req", "name", "start_ns", "end_ns"] {
            assert!(first.get(key).is_some(), "span lacks {key}");
        }
    }
    let durable = workloads
        .get("write_durable")
        .and_then(|w| w.get("end_to_end"))
        .expect("write_durable");
    assert!(
        durable.get("recovery_s").is_some() && durable.get("wal_bytes_per_user_byte").is_some()
    );
    let travel = workloads
        .get("time_travel")
        .and_then(|w| w.get("end_to_end"))
        .expect("time_travel");
    assert!(travel.get("asof_near_p50_us").is_some() && travel.get("asof_far_p50_us").is_some());

    // No server may outlive the run, and no WAL directory either.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("out dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(&out);
}
