//! The metric catalogue: every name the benchmark can emit, with its unit,
//! direction, regression bound and — for layer metrics — the end-to-end
//! number it is predicted to move (written before anything was measured).

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The catalogue name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit, as in the catalogue.
    pub unit: &'static str,
    /// Samples (latencies) or calls (self times) behind the value, where
    /// that means something.
    pub samples: Option<u64>,
}

/// A catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `--compare` calls it a regression. Layer metrics have none.
    pub bound: Option<f64>,
    /// For layer metrics: what it should move, and where.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// The 13 end-to-end metrics of ISSUE 11. The four that apply to every
/// workload are the `end_to_end` list of `BENCHMARK.json` (whose contract
/// wants every listed metric from every workload, never 0); the other
/// nine apply to some workloads only and are reported to the driver as
/// `client.<name>` layer metrics. `--compare` judges all 13 by these
/// bounds wherever they apply.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("read_p50_us", "us", Lower, 0.20),
    e2e("server_rss_mb", "MiB", Lower, 0.10),
    e2e("read_p99_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.20),
    e2e("write_p99_us", "us", Lower, 0.25),
    e2e("asof_near_p50_us", "us", Lower, 0.20),
    e2e("asof_far_p50_us", "us", Lower, 0.20),
    e2e("asof_far_p99_us", "us", Lower, 0.25),
    e2e("failed_frac", "ratio", Lower, 0.0),
    e2e("recovery_s", "s", Lower, 0.25),
    e2e("wal_bytes_per_user_byte", "ratio", Lower, 0.10),
];

/// Names of [`END_TO_END`] entries that every workload emits — the
/// driver-facing `end_to_end` list.
pub const UNIVERSAL: &[&str] = &["setup_s", "ops_per_s", "read_p50_us", "server_rss_mb"];

const READ_COLD_ENGINE: &str = "read_p50_us, ops_per_s on read_cold; flat on read_hot";
const READ_HOT_EDGE: &str =
    "read_p50_us, ops_per_s on read_hot (a fixed per-request cost everywhere, a visible share only there)";
const WAL_LATENCY: &str =
    "write_p50_us, write_p99_us, ops_per_s on write_durable; flat on the in-memory workloads";
const WAL_VOLUME: &str =
    "wal_bytes_per_user_byte, write_p99_us on write_durable (checkpoint stalls hide from the median)";
const RECOVERY: &str = "recovery_s, setup_s on write_durable";
const MAINTENANCE: &str = "write_p50_us on write_durable; read_p99_us on read_hot (a dropped entry is a cold read); flat on read_cold";
const PUBLISH: &str = "write_p50_us on write_durable and time_travel; flat on read_cold";
const ASOF_NEAR: &str = "asof_near_p50_us on time_travel; flat elsewhere";
const ASOF_FAR: &str = "asof_far_p50_us, asof_far_p99_us, ops_per_s on time_travel; flat elsewhere";
const QUEUEING: &str =
    "every *_p99_us, failed_frac on write_durable (16 in flight); flat on the serial workloads";
const LAYER_ONLY: &str = "no workload drives this layer over the wire yet; layer number only";

/// Layer metrics from the `STATS` delta over the wire run (counts and
/// server-side means), plus the reconciliation of client and server time.
pub const STATS_LAYER: &[Def] = &[
    layer(
        "serve.cache.hit_ratio",
        "ratio",
        Higher,
        "read_p50_us on read_hot; flat on read_cold",
    ),
    layer("serve.cache.maintained_ratio", "ratio", Higher, MAINTENANCE),
    layer("serve.wal.fsyncs_per_append", "ratio", Lower, WAL_LATENCY),
    layer("serve.wal.bytes_per_append", "B", Lower, WAL_VOLUME),
    layer("serve.wal.group_commit_share", "ratio", Higher, WAL_LATENCY),
    layer("serve.wal.checkpoints", "count", Lower, WAL_VOLUME),
    layer("serve.versions.installed", "count", Lower, PUBLISH),
    layer("serve.versions.gced", "count", Lower, PUBLISH),
    layer("serve.admission.busy", "count", Lower, QUEUEING),
    layer("serve.admission.timeouts", "count", Lower, QUEUEING),
    layer("serve.metrics.parse_mean_us", "us", Lower, READ_HOT_EDGE),
    layer("serve.metrics.queue_mean_us", "us", Lower, QUEUEING),
    layer("serve.metrics.exec_mean_us", "us", Lower, READ_COLD_ENGINE),
    layer(
        "serve.metrics.total_mean_us",
        "us",
        Lower,
        "every latency and ops_per_s, on every workload",
    ),
    layer("client.unattributed_us", "us", Lower, READ_HOT_EDGE),
];

/// Layer metrics from the traced in-process replay: mean self time per
/// call, microseconds.
pub const TRACED_LAYER: &[Def] = &[
    layer("serve.protocol.parse_us", "us", Lower, READ_HOT_EDGE),
    layer("lorel.parser.parse_us", "us", Lower, READ_HOT_EDGE),
    layer("serve.cache.get_us", "us", Lower, READ_HOT_EDGE),
    layer("lorel.plan.plan_us", "us", Lower, READ_COLD_ENGINE),
    layer("lorel.engine.execute_us", "us", Lower, READ_COLD_ENGINE),
    layer("lorel.result.package_us", "us", Lower, READ_COLD_ENGINE),
    layer("chorel.engines.canonical_us", "us", Lower, READ_COLD_ENGINE),
    layer("serve.cache.insert_us", "us", Lower, READ_COLD_ENGINE),
    layer("serve.protocol.render_us", "us", Lower, READ_HOT_EDGE),
    layer("serve.protocol.read_us", "us", Lower, READ_HOT_EDGE),
    layer("chorel.translate.translate_us", "us", Lower, "nothing served: the paper's section 5 comparison, sampled 1 in 16 on read_cold"),
    layer("doem.encode.encode_us", "us", Lower, "nothing served: the paper's section 5 comparison, sampled 1 in 16 on read_cold"),
    layer("lorel.engine.execute_encoded_us", "us", Lower, "nothing served: the paper's section 5 comparison, sampled 1 in 16 on read_cold"),
    layer("oem.parse_ops.parse_us", "us", Lower, PUBLISH),
    layer("oem.changeset.validate_us", "us", Lower, "write_p50_us on write_durable (the sequence stage's apply to the sequencing head)"),
    layer("serve.wal.encode_us", "us", Lower, WAL_LATENCY),
    layer("serve.wal.append_b1_us", "us", Lower, WAL_LATENCY),
    layer("serve.wal.append_b8_us", "us", Lower, WAL_LATENCY),
    layer("doem.construct.apply_set_us", "us", Lower, PUBLISH),
    layer("chorel.delta.maintain_us", "us", Lower, MAINTENANCE),
    layer("serve.cache.advance_generation_us", "us", Lower, MAINTENANCE),
    layer("oem.versioned.publish_us", "us", Lower, PUBLISH),
    layer("lore.store.checkpoint_us", "us", Lower, WAL_VOLUME),
    layer("serve.wal.replay_us_per_record", "us", Lower, RECOVERY),
    layer("doem.construct.from_history_us", "us", Lower, RECOVERY),
    layer("oem.versioned.pin_us", "us", Lower, ASOF_NEAR),
    layer("doem.db.from_snapshot_us", "us", Lower, ASOF_NEAR),
    layer("doem.snapshot.snapshot_at_us", "us", Lower, ASOF_FAR),
    layer("serve.replication.batch_encode_us", "us", Lower, LAYER_ONLY),
    layer("serve.replication.batch_decode_us", "us", Lower, LAYER_ONLY),
    layer("serve.replication.snapshot_bytes_us", "us", Lower, LAYER_ONLY),
    layer("serve.replication.snapshot_from_bytes_us", "us", Lower, LAYER_ONLY),
    layer("qss.server.poll_cycle_us", "us", Lower, LAYER_ONLY),
    layer("oemdiff.diff_us", "us", Lower, LAYER_ONLY),
    layer("serve.tcp.wireclient_ping_us", "us", Lower, "nothing measured here (the generator uses its own client); every latency of any caller of serve::WireClient, whose two writes per request cost a delayed-ACK timer"),
    layer("trace.overhead_frac", "ratio", Lower, "nothing: traced vs untraced in-process replay, the cost of the spans themselves"),
];

/// Look a definition up by name in the end-to-end catalogue.
pub fn end_to_end(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// The driver-facing `per_layer` names, in order: the `client.*` forms of
/// the non-universal end-to-end metrics, then the `STATS` and traced
/// layer metrics.
pub fn per_layer_names() -> Vec<String> {
    END_TO_END
        .iter()
        .filter(|d| !UNIVERSAL.contains(&d.name))
        .map(|d| format!("client.{}", d.name))
        .chain(
            STATS_LAYER
                .iter()
                .chain(TRACED_LAYER)
                .map(|d| d.name.to_string()),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        let names: Vec<String> = UNIVERSAL
            .iter()
            .map(|s| s.to_string())
            .chain(per_layer_names())
            .collect();
        for name in &names {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(names.len() - UNIVERSAL.len() <= 128);
        for u in UNIVERSAL {
            let def = end_to_end(u).expect("universal metrics are catalogued");
            assert!(def.bound.is_some_and(|b| b <= 0.25));
        }
        assert_eq!(END_TO_END.len(), 13);
    }
}
