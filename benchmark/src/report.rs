//! Turning outcomes into output: the driver's one-line JSON, the
//! human-readable table, the result file `--repeat` writes, and the
//! verdicts `--compare` reads two of those files for.

use crate::json::Json;
use crate::metrics::{self, Better, Metric, END_TO_END, STATS_LAYER, TRACED_LAYER, UNIVERSAL};
use crate::run::{TracedOutcome, WireOutcome};
use crate::script::Workload;
use crate::stats;
use std::collections::BTreeMap;

/// Every run of one workload, metric values in run order.
#[derive(Debug, Default)]
pub struct Series {
    /// `name -> (unit, samples behind the last value, values)`.
    pub values: BTreeMap<&'static str, (&'static str, Option<u64>, Vec<f64>)>,
}

impl Series {
    /// Append one run's metrics.
    pub fn push(&mut self, metrics: &[Metric]) {
        for m in metrics {
            let e = self
                .values
                .entry(m.name)
                .or_insert((m.unit, None, Vec::new()));
            e.1 = m.samples;
            e.2.push(m.value);
        }
    }
}

fn metric_json(m: &Metric) -> Json {
    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))])
}

/// The driver's result line. `trace` selects the `per_layer` list
/// (every name of it, 0 where the workload never enters the layer) over
/// the `end_to_end` list (every name of it, or an error: the driver's
/// contract has no "not applicable").
pub fn driver_line(wire: &WireOutcome, traced: Option<&TracedOutcome>) -> Result<String, String> {
    let find = |name: &str| wire.end_to_end.iter().find(|m| m.name == name);
    let mut out: Vec<(String, Json)> = Vec::new();
    match traced {
        None => {
            for name in UNIVERSAL {
                let m = find(name).ok_or_else(|| {
                    format!("{name} has too few samples at this --seconds to be reported")
                })?;
                out.push((name.to_string(), metric_json(m)));
            }
        }
        Some(traced) => {
            for def in END_TO_END.iter().filter(|d| !UNIVERSAL.contains(&d.name)) {
                let value = find(def.name).map_or(0.0, |m| m.value);
                out.push((
                    format!("client.{}", def.name),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
                ));
            }
            for m in wire.stats_layer.iter().chain(&traced.layer) {
                out.push((m.name.to_string(), metric_json(m)));
            }
        }
    }
    Ok(Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(wire.attempted as f64)),
        ("failed", Json::Num(wire.failed as f64)),
        ("metrics", Json::Obj(out)),
    ])
    .render())
}

/// Print one run's metrics, one per line, by name with unit and sample
/// count.
pub fn print_run(workload: Workload, wire: &WireOutcome, traced: Option<&TracedOutcome>) {
    println!(
        "== {} — {} ops attempted, {} failed; output check passed ({} texts, {} AS OF answers); script {:016x}",
        workload.name(),
        wire.attempted,
        wire.failed,
        wire.checked.current,
        wire.checked.as_of,
        wire.digest
    );
    println!("   doem-serve {}", wire.flags.join(" "));
    let line = |m: &Metric| {
        let n = m.samples.map_or(String::new(), |n| format!("  n={n}"));
        println!("   {:<44} {:>16.4} {:<6}{n}", m.name, m.value, m.unit);
    };
    println!("   -- end to end (client-observed)");
    wire.end_to_end.iter().for_each(line);
    println!("   (set-ups, s: {:?})", wire.setup_times);
    for (class, label, us, n) in &wire.tails {
        let what = format!("({class:?}: highest percentile with >= 10 samples beyond, {label})");
        println!("   {what:<72} {us:>12.4} us      n={n}");
    }
    println!("   -- per layer: STATS delta over the wire run");
    wire.stats_layer.iter().for_each(line);
    if let Some(t) = traced {
        println!(
            "   -- per layer: traced replay, mean self time per call ({} spans -> {})",
            t.spans,
            t.trace_file.display()
        );
        t.layer.iter().for_each(line);
        println!(
            "   {:<44} {:>16.4} {:<6}",
            "(sum of traced self time per request)", t.self_us_per_request, "us"
        );
    }
}

fn summary(
    def_unit: &str,
    better: Better,
    bound: Option<f64>,
    samples: Option<u64>,
    values: &[f64],
) -> Json {
    let mut pairs = vec![("unit".to_string(), Json::str(def_unit))];
    pairs.push(("better".into(), Json::str(better.as_str())));
    if let Some(b) = bound {
        pairs.push(("bound".into(), Json::Num(b)));
    }
    pairs.push(("median".into(), Json::Num(stats::median(values))));
    if let Some((q1, q3)) = stats::quartiles(values) {
        pairs.push(("q1".into(), Json::Num(q1)));
        pairs.push(("q3".into(), Json::Num(q3)));
    }
    if let Some(n) = samples {
        pairs.push(("samples".into(), Json::Num(n as f64)));
    }
    pairs.push((
        "values".into(),
        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
    ));
    Json::Obj(pairs)
}

/// One workload's section of the result file.
pub fn workload_json(wire: &WireOutcome, end_to_end: &Series, layers: &Series) -> Json {
    let e2e = END_TO_END.iter().filter_map(|def| {
        let (unit, samples, values) = end_to_end.values.get(def.name)?;
        Some((
            def.name,
            summary(unit, def.better, def.bound, *samples, values),
        ))
    });
    let layer = STATS_LAYER.iter().chain(TRACED_LAYER).filter_map(|def| {
        let (unit, samples, values) = layers.values.get(def.name)?;
        let mut j = summary(unit, def.better, None, *samples, values);
        if let Json::Obj(pairs) = &mut j {
            pairs.push(("moves".into(), Json::str(def.moves)));
        }
        Some((def.name, j))
    });
    Json::obj([
        ("script_digest", Json::str(format!("{:016x}", wire.digest))),
        (
            "server_flags",
            Json::Arr(wire.flags.iter().map(Json::str).collect()),
        ),
        ("attempted", Json::Num(wire.attempted as f64)),
        ("failed", Json::Num(wire.failed as f64)),
        ("texts_checked", Json::Num(wire.checked.current as f64)),
        (
            "as_of_answers_checked",
            Json::Num(wire.checked.as_of as f64),
        ),
        ("end_to_end", Json::obj(e2e)),
        ("per_layer", Json::obj(layer)),
    ])
}

/// A `--compare` verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Run-to-run spread on either side exceeds the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's median against A's. `spread` is the larger of the two sides'
/// inter-quartile distance over median, when known.
pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    if bound == 0.0 {
        // Exactly repeating metrics: any move is a move.
        let worse = match better {
            Better::Lower => b > a,
            Better::Higher => b < a,
        };
        return if worse {
            Verdict::Worse
        } else if a == b {
            Verdict::Same
        } else {
            Verdict::Better
        };
    }
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(j: &Json) -> Option<(f64, Option<(f64, f64)>)> {
    let median = j.get("median")?.as_f64()?;
    let q = j
        .get("q1")
        .and_then(Json::as_f64)
        .zip(j.get("q3").and_then(Json::as_f64));
    Some((median, q))
}

fn quartile_text(q: Option<(f64, f64)>) -> String {
    q.map_or("[one run]".to_string(), |(q1, q3)| {
        format!("[{q1:.4}, {q3:.4}]")
    })
}

/// Compare result files A (the base) and B. Prints one row per
/// (workload, metric); returns whether any end-to-end metric is `worse`
/// or `failed_frac` rose.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let (wa, wb) = (
        a.get("workloads").ok_or("A has no \"workloads\"")?,
        b.get("workloads").ok_or("B has no \"workloads\"")?,
    );
    let mut regressed = false;
    println!(
        "{:<14} {:<40} {:>14} {:<26} {:>14} {:<26} {:<24} {:>6} verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B / A",
        "bound"
    );
    for (workload, sa) in wa.members() {
        let Some(sb) = wb.get(workload) else {
            println!("{workload:<14} (absent from B)");
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            let (Some(ma), Some(mb)) = (sa.get(section), sb.get(section)) else {
                continue;
            };
            for (name, ja) in ma.members() {
                let (Some((a_med, a_q)), Some((b_med, b_q))) =
                    (side(ja), mb.get(name).and_then(side))
                else {
                    continue;
                };
                let rel = |m: f64, q: Option<(f64, f64)>| {
                    q.filter(|_| m != 0.0).map(|(q1, q3)| (q3 - q1) / m.abs())
                };
                let spread = match (rel(a_med, a_q), rel(b_med, b_q)) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                };
                let ratio = if a_med == 0.0 {
                    format!("- of A={a_med}")
                } else {
                    format!("{:.4}x of A={a_med:.4}", b_med / a_med)
                };
                let def = metrics::end_to_end(name).filter(|_| section == "end_to_end");
                let (bound, v) = match def.and_then(|d| d.bound.map(|b| (d, b))) {
                    Some((d, bound)) => {
                        let v = verdict(d.better, bound, a_med, b_med, spread);
                        regressed |= v == Verdict::Worse;
                        (format!("{bound}"), v.as_str())
                    }
                    None => ("-".to_string(), "-"),
                };
                println!(
                    "{workload:<14} {name:<40} {a_med:>14.4} {:<26} {b_med:>14.4} {:<26} {ratio:<24} {bound:>6} {v}",
                    quartile_text(a_q),
                    quartile_text(b_q),
                );
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 105.0, Some(0.02)),
            Verdict::Same
        );
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 111.0, Some(0.02)),
            Verdict::Worse
        );
        assert_eq!(verdict(Lower, 0.10, 100.0, 85.0, None), Verdict::Better);
        assert_eq!(
            verdict(Higher, 0.10, 1000.0, 880.0, Some(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Higher, 0.10, 1000.0, 1200.0, Some(0.05)),
            Verdict::Better
        );
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 150.0, Some(0.30)),
            Verdict::Unresolved
        );
        // failed_frac: bound 0, any rise is worse, spread is not consulted.
        assert_eq!(verdict(Lower, 0.0, 0.0, 0.0, Some(9.0)), Verdict::Same);
        assert_eq!(verdict(Lower, 0.0, 0.0, 0.001, None), Verdict::Worse);
    }
}
