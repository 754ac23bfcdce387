//! One wire run of one workload: set up (spawn, load, warm up — several
//! times, reporting the median), measure, read the server's counters,
//! check every output, and — on the durable workload — `kill -9`, restart
//! and check again.

use crate::check::{self, acked_changes, check_outputs, Checked, Shadow};
use crate::metrics::Metric;
use crate::script::{self, Class, Dataset, Script, Workload, DB};
use crate::server::{server_flags, Server};
use crate::stats;
use crate::wire::{self, Lsns, WireRun, CONNECTIONS};
use serve::Response;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, the run measures on the
/// last one.
pub const SETUPS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Traffic seed.
    pub seed: u64,
    /// Seconds the measured phase is sized for (op count = rate x this).
    pub seconds: f64,
    /// The `doem-serve` executable.
    pub server: PathBuf,
    /// Where WAL directories and outputs go (`benchmark/out`).
    pub out_dir: PathBuf,
    /// How many times to set up (at least 1).
    pub setups: usize,
    /// Calls per layer-only measurement in the traced pass (at least 1).
    pub layer_rounds: usize,
}

impl RunSpec {
    /// Measured ops this spec asks for.
    pub fn op_count(&self) -> usize {
        ((self.workload.ops_per_second() as f64 * self.seconds).round() as usize).max(200)
    }
}

/// Everything one wire run produced.
#[derive(Debug)]
pub struct WireOutcome {
    /// The 13 end-to-end metrics of ISSUE 11 that apply to this workload.
    pub end_to_end: Vec<Metric>,
    /// Layer metrics from the `STATS` delta.
    pub stats_layer: Vec<Metric>,
    /// Every set-up's duration, seconds, in order (`setup_s` is their median).
    pub setup_times: Vec<f64>,
    /// Per latency class: the highest percentile the series supports
    /// (at least ten samples beyond it), its value in µs and the count.
    pub tails: Vec<(Class, &'static str, f64, usize)>,
    /// Ops sent in the measured phase.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first failure, verbatim.
    pub first_failure: Option<String>,
    /// What the output check covered.
    pub checked: Checked,
    /// Digest of the script that ran.
    pub digest: u64,
    /// The dataset and the script, for the traced replay.
    pub data: Dataset,
    /// See `data`.
    pub script: Script,
    /// The exact server flags used.
    pub flags: Vec<String>,
}

/// A parsed `STATS` reply: counters and gauges by name, latency stages as
/// `<stage>.count` and `<stage>.sum_us` (mean x count — the registry
/// renders an integer mean, so the sum is exact to within `count` µs).
pub type Stats = BTreeMap<String, f64>;

/// Parse `STATS` rows.
pub fn parse_stats(rows: &[String]) -> Stats {
    let mut out = Stats::new();
    for row in rows {
        let mut words = row.split_whitespace();
        match words.next() {
            Some("counter" | "gauge") => {
                if let (Some(name), Some(v)) = (words.next(), words.next()) {
                    if let Ok(v) = v.parse::<f64>() {
                        out.insert(name.to_string(), v);
                    }
                }
            }
            Some("latency") => {
                let Some(stage) = words.next() else { continue };
                let field = |key: &str| {
                    row.split_whitespace()
                        .find_map(|w| w.strip_prefix(key))
                        .and_then(|v| v.parse::<f64>().ok())
                };
                if let (Some(count), Some(mean)) = (field("count="), field("mean_us=")) {
                    out.insert(format!("{stage}.count"), count);
                    out.insert(format!("{stage}.sum_us"), count * mean);
                }
            }
            _ => {}
        }
    }
    out
}

fn stats_of(client: &mut crate::client::Client) -> Result<Stats, String> {
    match client.roundtrip("STATS") {
        Ok(Response::Rows(rows)) => Ok(parse_stats(&rows)),
        other => Err(format!("STATS answered {other:?}")),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `STATS`-delta layer metrics.
fn stats_layer(before: &Stats, after: &Stats, client_mean_us: f64) -> Vec<Metric> {
    let d = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let stage_mean =
        |stage: &str| ratio(d(&format!("{stage}.sum_us")), d(&format!("{stage}.count")));
    let m = |name: &'static str, value: f64, unit: &'static str, samples: f64| Metric {
        name,
        value,
        unit,
        samples: Some(samples as u64),
    };
    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    let (kept, dropped) = (d("cache_maintained"), d("cache_fallback"));
    let (appends, fsyncs) = (d("wal_appends"), d("wal_fsyncs"));
    let total_mean = stage_mean("total");
    vec![
        m(
            "serve.cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            hits + misses,
        ),
        m(
            "serve.cache.maintained_ratio",
            ratio(kept, kept + dropped),
            "ratio",
            kept + dropped,
        ),
        m(
            "serve.wal.fsyncs_per_append",
            ratio(fsyncs, appends),
            "ratio",
            appends,
        ),
        m(
            "serve.wal.bytes_per_append",
            ratio(d("wal_bytes"), appends),
            "B",
            appends,
        ),
        m(
            "serve.wal.group_commit_share",
            ratio(d("group_commits"), fsyncs),
            "ratio",
            fsyncs,
        ),
        m("serve.wal.checkpoints", d("checkpoints"), "count", appends),
        m(
            "serve.versions.installed",
            d("versions_installed"),
            "count",
            d("writes"),
        ),
        m(
            "serve.versions.gced",
            d("versions_gced"),
            "count",
            d("writes"),
        ),
        m(
            "serve.admission.busy",
            d("busy_rejected"),
            "count",
            d("requests"),
        ),
        m(
            "serve.admission.timeouts",
            d("timeouts"),
            "count",
            d("requests"),
        ),
        m(
            "serve.metrics.parse_mean_us",
            stage_mean("parse"),
            "us",
            d("parse.count"),
        ),
        m(
            "serve.metrics.queue_mean_us",
            stage_mean("queue"),
            "us",
            d("queue.count"),
        ),
        m(
            "serve.metrics.exec_mean_us",
            stage_mean("exec"),
            "us",
            d("exec.count"),
        ),
        m(
            "serve.metrics.total_mean_us",
            total_mean,
            "us",
            d("total.count"),
        ),
        m(
            "client.unattributed_us",
            client_mean_us - total_mean,
            "us",
            d("total.count"),
        ),
    ]
}

/// A WAL directory that is removed again when the value drops.
struct WalDir(PathBuf);

impl WalDir {
    /// A fresh, empty directory under `out_dir` for one server's WAL.
    fn create(spec: &RunSpec, k: usize) -> Result<WalDir, String> {
        let name = format!("wal-{}-{}-{k}", spec.workload.name(), std::process::id());
        let dir = spec.out_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WalDir(dir))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a set-up leaves behind. Fields drop in order: the server is
/// killed before its WAL directory is removed.
struct Ready {
    server: Server,
    wal: Option<WalDir>,
    /// LSNs committed so far: the load, then the warm-up's writes.
    lsns: Lsns,
    /// The warm-up's acknowledged writes.
    warm_acked: Vec<(i64, usize)>,
    data: Dataset,
    script: Script,
}

/// One set-up — everything that happens before the clock starts: generate
/// the dataset and the script, spawn the server, load the dataset over the
/// wire, run the warm-up ops.
fn set_up(spec: &RunSpec, k: usize) -> Result<Ready, String> {
    let data = Dataset::generate();
    let script = script::generate(spec.workload, spec.seed, &data, spec.op_count());
    let wal = spec
        .workload
        .durable()
        .then(|| WalDir::create(spec, k))
        .transpose()?;
    let flags = server_flags(spec.workload, wal.as_ref().map(|w| w.0.as_path()), true);
    let server =
        Server::spawn(&spec.server, &flags).map_err(|e| format!("spawn doem-serve: {e}"))?;
    let mut client = check::connect(server.addr())?;
    for line in &data.load_lines() {
        match client.roundtrip(line) {
            Ok(Response::Ok(_)) => {}
            other => {
                let shown = &line[..line.len().min(60)];
                return Err(format!("load failed at {shown:?}: {other:?}"));
            }
        }
    }
    let lsns = Lsns::new(data.load.iter().map(|(at, _)| at.raw_minutes()).collect());
    let warm = wire::run(server.addr(), &script.warmup, &script.texts, &lsns, 1, 1)
        .map_err(|e| format!("warm-up: {e}"))?;
    if warm.failed > 0 {
        return Err(format!(
            "warm-up: {}",
            warm.first_failure.unwrap_or_default()
        ));
    }
    Ok(Ready {
        server,
        wal,
        lsns,
        warm_acked: warm.acked,
        data,
        script,
    })
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1000.0
}

/// Client-side latency metrics of one class: the median, and `p99` when
/// at least ten samples lie beyond it.
fn latency_metrics(
    run: &WireRun,
    class: Class,
    p50: &'static str,
    p99: Option<&'static str>,
    out: &mut Vec<Metric>,
) {
    let Some(v) = run.latencies.get(&class).filter(|v| !v.is_empty()) else {
        return;
    };
    let mut push = |name, p| {
        if let Some(x) = stats::percentile(v, p) {
            out.push(Metric {
                name,
                value: micros(x),
                unit: "us",
                samples: Some(v.len() as u64),
            });
        }
    };
    push(p50, 0.50);
    if let Some(name) = p99.filter(|_| stats::supports(v.len(), 0.99)) {
        push(name, 0.99);
    }
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path)
        .map(|m| m.len() as f64)
        .unwrap_or(0.0)
}

/// Run `spec` over the wire.
pub fn run_wire(spec: &RunSpec) -> Result<WireOutcome, String> {
    std::fs::create_dir_all(&spec.out_dir)
        .map_err(|e| format!("{}: {e}", spec.out_dir.display()))?;

    // Set up several times; measure on the last. Generation is repeated
    // with the rest (it gives the same dataset each time) so that
    // `setup_s` prices all of it — and because spawn + load alone is 530
    // serial round trips, whose cost flips between two scheduler
    // placements (0.11 s and 0.18 s on this box) from one spawn to the
    // next; with the CPU-bound half in, a flip moves the total by a tenth.
    let mut setup_times = Vec::new();
    let mut ready = None;
    for k in 0..spec.setups.max(1) {
        drop(ready.take());
        let began = Instant::now();
        ready = Some(set_up(spec, k)?);
        setup_times.push(began.elapsed().as_secs_f64());
    }
    let Ready {
        server,
        wal,
        lsns,
        warm_acked,
        data,
        script,
    } = ready.expect("at least one set-up ran");
    let wal = wal.as_ref().map(|w| w.0.as_path());

    let image = wal.map(|d| d.join(format!("{DB}.oem")));
    let mut control = check::connect(server.addr())?;
    let before = stats_of(&mut control)?;
    let image_before = image.as_deref().map(file_len).unwrap_or(0.0);

    let depth = spec.workload.pipeline_depth();
    let run = wire::run(
        server.addr(),
        &script.ops,
        &script.texts,
        &lsns,
        depth,
        CONNECTIONS,
    )
    .map_err(|e| format!("measured phase: {e}"))?;

    let after = stats_of(&mut control)?;
    let image_after = image.as_deref().map(file_len).unwrap_or(0.0);
    let rss = server.peak_rss_mb().map_err(|e| format!("VmHWM: {e}"))?;
    drop(control);
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };

    // The shadow: load + warm-up writes + measured writes, in LSN order.
    let mut acked = acked_changes(&script.warmup, &warm_acked)?;
    acked.extend(acked_changes(&script.ops, &run.acked)?);
    acked.sort_by_key(|(lsn, _)| *lsn);
    let shadow = Shadow::build(&data.load, acked)?;
    let mut checked = check_outputs(server.addr(), &shadow, &script, &run.asof, true)?;

    let mut end_to_end = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&setup_times),
            unit: "s",
            samples: Some(setup_times.len() as u64),
        },
        Metric {
            name: "ops_per_s",
            value: run.attempted as f64 / run.elapsed.as_secs_f64(),
            unit: "1/s",
            samples: Some(run.attempted),
        },
    ];
    let e2e = &mut end_to_end;
    latency_metrics(&run, Class::Read, "read_p50_us", Some("read_p99_us"), e2e);
    latency_metrics(
        &run,
        Class::Write,
        "write_p50_us",
        Some("write_p99_us"),
        e2e,
    );
    latency_metrics(&run, Class::AsOfNear, "asof_near_p50_us", None, e2e);
    latency_metrics(
        &run,
        Class::AsOfFar,
        "asof_far_p50_us",
        Some("asof_far_p99_us"),
        e2e,
    );
    e2e.push(Metric {
        name: "failed_frac",
        value: run.failed as f64 / run.attempted as f64,
        unit: "ratio",
        samples: Some(run.attempted),
    });
    e2e.push(Metric {
        name: "server_rss_mb",
        value: rss,
        unit: "MiB",
        samples: None,
    });

    let flags = server_flags(spec.workload, wal, true);
    if let Some(dir) = wal {
        // Bytes the durability layer wrote: the log itself (exact, from
        // the server's counter) plus one image per checkpoint. Images grow
        // linearly with the history, so their mean size is taken as the
        // mean of the first and last image of the measured phase.
        let checkpoint_bytes = delta("checkpoints") * (image_before + image_after) / 2.0;
        e2e.push(Metric {
            name: "wal_bytes_per_user_byte",
            value: ratio(
                delta("wal_bytes") + checkpoint_bytes,
                script.user_bytes() as f64,
            ),
            unit: "ratio",
            samples: Some(delta("wal_appends") as u64),
        });
        // kill -9, restart on the same directory, time to the first
        // correct answer, then check everything again: every acked write
        // must have survived.
        let killed = Instant::now();
        server.kill();
        let restarted = Server::spawn(&spec.server, &server_flags(spec.workload, Some(dir), false))
            .map_err(|e| format!("restart after kill -9: {e}"))?;
        let probe = &script.texts[0];
        let mut client = check::connect(restarted.addr())?;
        let got = match client.roundtrip(&format!("QUERY {DB} {probe}")) {
            Ok(Response::Rows(rows)) => rows,
            other => return Err(format!("first query after recovery answered {other:?}")),
        };
        let recovery = killed.elapsed();
        if got != shadow.current_rows(probe)? {
            return Err("first query after recovery returned wrong rows".into());
        }
        e2e.push(Metric {
            name: "recovery_s",
            value: recovery.as_secs_f64(),
            unit: "s",
            samples: Some(1),
        });
        drop(client);
        let again = check_outputs(restarted.addr(), &shadow, &script, &[], false)
            .map_err(|e| format!("after kill -9 and recovery: {e}"))?;
        checked.current += again.current;
    } else {
        server.kill();
    }

    let all: u64 = run.latencies.values().map(|v| v.iter().sum::<u64>()).sum();
    let n: usize = run.latencies.values().map(Vec::len).sum();
    let client_mean_us = ratio(micros(all), n as f64);
    let tails = run
        .latencies
        .iter()
        .filter_map(|(class, v)| {
            let (label, p) = stats::highest_supported(v.len())?;
            Some((*class, label, micros(stats::percentile(v, p)?), v.len()))
        })
        .collect();
    Ok(WireOutcome {
        end_to_end,
        stats_layer: stats_layer(&before, &after, client_mean_us),
        setup_times,
        tails,
        attempted: run.attempted,
        failed: run.failed,
        first_failure: run.first_failure,
        checked,
        digest: script.digest(),
        data,
        script,
        flags,
    })
}

/// Layer-only calls per measurement in a full-size traced pass.
pub const LAYER_ROUNDS: usize = 5;

/// Median `PING` round trip through the crate's own `serve::WireClient`,
/// microseconds (see `client.rs` for why the measured path avoids it).
fn wireclient_ping_us(spec: &RunSpec) -> Result<Metric, String> {
    let flags = server_flags(Workload::ReadHot, None, true);
    let server =
        Server::spawn(&spec.server, &flags).map_err(|e| format!("spawn doem-serve: {e}"))?;
    let mut client =
        serve::WireClient::connect(server.addr()).map_err(|e| format!("WireClient: {e}"))?;
    let pings = 2 * spec.layer_rounds.max(1) + 1;
    let mut nanos = Vec::with_capacity(pings);
    for _ in 0..pings {
        let sent = Instant::now();
        match client.roundtrip("PING") {
            Ok(Response::Ok(_)) => nanos.push(sent.elapsed().as_nanos() as u64),
            other => return Err(format!("PING through WireClient answered {other:?}")),
        }
    }
    server.kill();
    nanos.sort_unstable();
    Ok(Metric {
        name: "serve.tcp.wireclient_ping_us",
        value: micros(stats::percentile(&nanos, 0.5).expect("non-empty")),
        unit: "us",
        samples: Some(pings as u64),
    })
}

/// What the traced pass produced.
#[derive(Debug)]
pub struct TracedOutcome {
    /// One metric per entry of [`crate::metrics::TRACED_LAYER`], in order
    /// (0 with 0 samples for a layer this workload never enters).
    pub layer: Vec<Metric>,
    /// Mean traced self time per replayed request, all spans, µs — what
    /// the layer numbers add up to, to set against the server's own
    /// `serve.metrics.total_mean_us`.
    pub self_us_per_request: f64,
    /// Where the spans were written.
    pub trace_file: PathBuf,
    /// Spans recorded.
    pub spans: usize,
}

/// The traced pass for `spec`: replay `script` untraced, then traced,
/// time the layer-only calls, write the spans out and fold them.
pub fn run_traced(
    spec: &RunSpec,
    data: &Dataset,
    script: &Script,
) -> Result<TracedOutcome, String> {
    use crate::metrics::TRACED_LAYER;
    use crate::replay::{self, POLLS_PER_DAY};
    use crate::trace::{fold, Tracer};

    let wal = spec.out_dir.join(format!(
        "wal-replay-{}-{}",
        spec.workload.name(),
        std::process::id()
    ));
    let untraced = replay::replay(
        spec.workload,
        data,
        script,
        Some(&wal),
        &mut Tracer::new(false),
    );
    let mut tracer = Tracer::new(true);
    let traced = untraced.and_then(|u| {
        replay::replay(spec.workload, data, script, Some(&wal), &mut tracer).map(|t| (u, t))
    });
    let _ = std::fs::remove_dir_all(&wal);
    let (untraced, traced) = traced?;
    let request_spans = tracer.spans().len();
    let request_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent == 0 && s.name.starts_with("serve.service."))
        .map(|s| s.duration_ns())
        .sum();
    replay::layer_only(data, spec.layer_rounds, &mut tracer)?;

    let trace_file = spec
        .out_dir
        .join(format!("trace-{}.jsonl", spec.workload.name()));
    let file =
        std::fs::File::create(&trace_file).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let folded = fold(tracer.spans());
    let ping = wireclient_ping_us(spec)?;
    let layer = TRACED_LAYER
        .iter()
        .map(|def| {
            let span_name = def.name.strip_suffix("_us").unwrap_or(def.name);
            let of = |name: &str| folded.get(name).copied().unwrap_or_default();
            let (value, samples) = match def.name {
                "trace.overhead_frac" => (
                    ratio(
                        traced.elapsed.as_secs_f64() - untraced.elapsed.as_secs_f64(),
                        untraced.elapsed.as_secs_f64(),
                    ),
                    request_spans as u64,
                ),
                "serve.tcp.wireclient_ping_us" => (ping.value, ping.samples.unwrap_or(0)),
                "serve.wal.replay_us_per_record" => {
                    let t = of("serve.wal.replay");
                    (
                        ratio(micros(t.self_ns), traced.wal_tail_records as f64),
                        traced.wal_tail_records as u64,
                    )
                }
                "qss.server.poll_cycle_us" => {
                    let t = of("qss.server.poll_day");
                    (t.mean_us() / POLLS_PER_DAY, t.calls * POLLS_PER_DAY as u64)
                }
                _ => {
                    let t = of(span_name);
                    (t.mean_us(), t.calls)
                }
            };
            Metric {
                name: def.name,
                value,
                unit: def.unit,
                samples: Some(samples),
            }
        })
        .collect();
    Ok(TracedOutcome {
        layer,
        self_us_per_request: ratio(micros(request_ns), traced.ops as f64),
        trace_file,
        spans: tracer.spans().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_rows_parse_and_delta_into_layer_metrics() {
        let rows = |hits: u64, misses: u64, count: u64, mean: u64| -> Vec<String> {
            vec![
                format!("counter cache_hits {hits}"),
                format!("counter cache_misses {misses}"),
                "gauge retained_lsns 64".to_string(),
                format!("latency total count={count} mean_us={mean} p50_us=128 max_us=9000"),
                "lsn bench applied=29300000 durable=- epoch=0".to_string(),
            ]
        };
        let before = parse_stats(&rows(10, 10, 100, 50));
        let after = parse_stats(&rows(910, 110, 1100, 140));
        assert_eq!(before["cache_hits"], 10.0);
        assert_eq!(before["total.sum_us"], 5000.0);
        assert_eq!(after["retained_lsns"], 64.0);
        let layer = stats_layer(&before, &after, 200.0);
        let get = |name: &str| layer.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("serve.cache.hit_ratio"), 0.9);
        // (1100 * 140 - 100 * 50) / 1000 = 149
        assert_eq!(get("serve.metrics.total_mean_us"), 149.0);
        assert_eq!(get("client.unattributed_us"), 51.0);
        assert_eq!(get("serve.wal.fsyncs_per_append"), 0.0);
    }
}
