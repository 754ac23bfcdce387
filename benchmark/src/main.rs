//! `doem-load` — see `benchmark/README.md`.
//!
//! ```text
//! doem-load --workload W --seed N --seconds S --trace 0|1     one run, one JSON line (the driver's form)
//! doem-load [--seed N] [--seconds S] [--repeat R] [--quick]   all four workloads + traced pass -> out/result.json
//! doem-load --compare A.json B.json                           verdict per (workload, metric)
//! common: [--server PATH] [--out DIR]
//! ```

use doem_load::json::{self, Json};
use doem_load::report::{self, Series};
use doem_load::run::{
    run_traced, run_wire, RunSpec, TracedOutcome, WireOutcome, LAYER_ROUNDS, SETUPS,
};
use doem_load::script::Workload;
use doem_load::server::default_server_binary;
use std::path::PathBuf;
use std::process::ExitCode;

/// The default traffic seed, and the seed held out from all tuning.
const DEFAULT_SEED: u64 = 1998;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds` says the same.
const DEFAULT_SECONDS: f64 = 15.0;
/// `--quick`: the smoke test's size.
const QUICK_SECONDS: f64 = 0.1;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    quick: bool,
    server: Option<PathBuf>,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    "usage: doem-load [--workload read_hot|read_cold|write_durable|time_travel --trace 0|1] \
     [--seed N] [--seconds S] [--repeat R] [--quick] [--server PATH] [--out DIR] | --compare A.json B.json"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        quick: false,
        server: None,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                a.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => a.trace = val()? != "0",
            "--repeat" => {
                a.repeat = val()?
                    .parse::<usize>()
                    .map_err(|e| format!("--repeat: {e}"))?
                    .max(1)
            }
            "--quick" => a.quick = true,
            "--server" => a.server = Some(val()?.into()),
            "--out" => a.out = val()?.into(),
            "--compare" => a.compare = Some((val()?.into(), val()?.into())),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(a)
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, `repeat` times over the wire, the traced pass once.
fn run_workload(
    spec: &RunSpec,
    repeat: usize,
    trace: bool,
) -> Result<(WireOutcome, Option<TracedOutcome>, Series, Series), String> {
    let (mut e2e, mut layers) = (Series::default(), Series::default());
    let mut last = None;
    for _ in 0..repeat {
        let wire = run_wire(spec)?;
        if wire.failed > 0 {
            eprintln!(
                "doem-load: {} of {} ops failed on {}",
                wire.failed,
                wire.attempted,
                spec.workload.name()
            );
        }
        e2e.push(&wire.end_to_end);
        layers.push(&wire.stats_layer);
        last = Some(wire);
    }
    let wire = last.expect("repeat >= 1");
    let traced = if trace {
        Some(run_traced(spec, &wire.data, &wire.script)?)
    } else {
        None
    };
    if let Some(t) = &traced {
        layers.push(&t.layer);
    }
    Ok((wire, traced, e2e, layers))
}

/// The design's measured sanity conditions (ISSUE 11 acceptance).
fn sanity(results: &[(Workload, WireOutcome, Option<TracedOutcome>)]) -> Vec<(String, bool)> {
    let value = |w: Workload, name: &str| {
        results
            .iter()
            .find(|r| r.0 == w)
            .and_then(|(_, wire, traced)| {
                wire.end_to_end
                    .iter()
                    .chain(&wire.stats_layer)
                    .chain(traced.iter().flat_map(|t| &t.layer))
                    .find(|m| m.name == name)
                    .map(|m| m.value)
            })
    };
    let mut out = Vec::new();
    let mut check = |text: String, ok: Option<bool>| {
        if let Some(ok) = ok {
            out.push((text, ok));
        }
    };
    let v = value(Workload::ReadHot, "serve.cache.hit_ratio");
    check(
        format!(
            "read_hot serve.cache.hit_ratio {:.4} > 0.95",
            v.unwrap_or(0.0)
        ),
        v.map(|v| v > 0.95),
    );
    let v = value(Workload::ReadCold, "serve.cache.hit_ratio");
    check(
        format!(
            "read_cold serve.cache.hit_ratio {:.4} < 0.10",
            v.unwrap_or(0.0)
        ),
        v.map(|v| v < 0.10),
    );
    let v = value(Workload::WriteDurable, "serve.wal.fsyncs_per_append");
    check(
        format!(
            "write_durable serve.wal.fsyncs_per_append {:.4} < 1",
            v.unwrap_or(0.0)
        ),
        v.map(|v| v < 1.0),
    );
    let near = value(Workload::TimeTravel, "asof_near_p50_us");
    let far = value(Workload::TimeTravel, "asof_far_p50_us");
    check(
        format!(
            "time_travel asof_far_p50_us {:.1} >= 3 x asof_near_p50_us {:.1}",
            far.unwrap_or(0.0),
            near.unwrap_or(0.0)
        ),
        near.zip(far).map(|(n, f)| f >= 3.0 * n),
    );
    let cold = results.iter().find(|r| r.0 == Workload::ReadCold);
    if let Some((_, _, Some(t))) = cold {
        let total = value(Workload::ReadCold, "serve.metrics.total_mean_us").unwrap_or(0.0);
        check(
            format!(
                "read_cold traced self time {:.1} us/request >= 70 % of serve.metrics.total_mean_us {:.1}",
                t.self_us_per_request, total
            ),
            Some(t.self_us_per_request >= 0.7 * total),
        );
    }
    out
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        let regressed = report::compare(&read_json(a)?, &read_json(b)?)?;
        return Ok(if regressed {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }
    let server = match &args.server {
        Some(p) => p.clone(),
        None => default_server_binary().map_err(|e| e.to_string())?,
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let spec_for = |workload| RunSpec {
        workload,
        seed: args.seed,
        seconds,
        server: server.clone(),
        out_dir: args.out.clone(),
        setups: if args.quick { 1 } else { SETUPS },
        layer_rounds: if args.quick { 1 } else { LAYER_ROUNDS },
    };

    // The driver's form: one workload, one JSON object on the last line.
    if let Some(workload) = args.workload {
        let (wire, traced, ..) = run_workload(&spec_for(workload), 1, args.trace)?;
        report::print_run(workload, &wire, traced.as_ref());
        if wire.failed > 0 {
            eprintln!(
                "doem-load: first failure: {}",
                wire.first_failure.as_deref().unwrap_or("?")
            );
        }
        println!("{}", report::driver_line(&wire, traced.as_ref())?);
        return Ok(ExitCode::SUCCESS);
    }

    // The full form: every workload, wire runs then the traced pass.
    let mut sections = Vec::new();
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let (wire, traced, e2e, layers) = run_workload(&spec_for(workload), args.repeat, true)?;
        report::print_run(workload, &wire, traced.as_ref());
        sections.push((workload.name(), report::workload_json(&wire, &e2e, &layers)));
        results.push((workload, wire, traced));
    }
    let checks = sanity(&results);
    println!("== design sanity");
    for (text, ok) in &checks {
        println!("   [{}] {text}", if *ok { "ok" } else { "NO" });
    }
    let failed: u64 = results.iter().map(|r| r.1.failed).sum();
    let summary = Json::obj([
        ("benchmark", Json::str("doem-load")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "load_shape",
            Json::str("closed loop, 2 connections on 2 threads, server --workers 2"),
        ),
        (
            "flush_policy",
            Json::str("write_durable: fsync (sync_data) per group-commit batch, before any rider is acked"),
        ),
        ("workloads", Json::obj(sections)),
        (
            "sanity",
            Json::Arr(
                checks
                    .iter()
                    .map(|(t, ok)| Json::obj([("check", Json::str(t.clone())), ("ok", Json::Bool(*ok))]))
                    .collect(),
            ),
        ),
        ("claim", Json::Null),
    ]);
    let path = args.out.join("result.json");
    std::fs::write(&path, summary.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("== wrote {}", path.display());
    println!(
        "{}",
        Json::obj([
            ("failed_ops", Json::Num(failed as f64)),
            ("claim", Json::Null)
        ])
        .render()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("doem-load: {e}");
            ExitCode::from(1)
        }
    }
}
