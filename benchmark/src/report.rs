//! What a run prints and writes: the header, one table per workload, the
//! full JSON report `compare` reads, the trace file, and the one-line
//! result the benchmark driver parses.

use std::fmt::Write as _;
use std::io::BufWriter;
use std::path::Path;

use crate::env;
use crate::json::Json;
use crate::metrics::{self, Clock};
use crate::run::{self, Budget, Options, Value, WorkloadReport};

fn budget_json(b: Budget) -> Json {
    match b {
        Budget::Reps(n) => Json::obj(vec![("reps", Json::Num(n as f64))]),
        Budget::Seconds(s) => Json::obj(vec![("seconds", Json::Num(s))]),
    }
}

/// The run header: what was asked for, on what machine, at what sizes.
pub fn header(opts: &Options, reports: &[WorkloadReport]) -> Json {
    let mut pairs = vec![
        ("seed", Json::Num(opts.seed as f64)),
        ("budget", budget_json(opts.budget)),
        ("tracing", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
    ];
    pairs.extend(env::host_facts());
    pairs.push((
        "sizes",
        Json::Obj(
            reports
                .iter()
                .map(|r| (r.name.to_string(), Json::str(r.sizes.clone())))
                .collect(),
        ),
    ));
    Json::obj(pairs)
}

fn value_json(def: &metrics::MetricDef, v: Value) -> Json {
    let mut pairs = vec![
        ("value", Json::Num(v.value)),
        ("unit", Json::str(def.unit)),
        (
            "clock",
            Json::str(match def.clock {
                Clock::Host => "host",
                Clock::Modeled => "modeled",
            }),
        ),
        ("better", Json::str(def.better.name())),
        ("samples", Json::Num(v.samples as f64)),
    ];
    if let Some(b) = def.bound {
        pairs.push(("bound", Json::Num(b)));
    }
    if let Some(s) = v.spread_pct {
        pairs.push(("spread_pct", Json::Num(s)));
    }
    Json::obj(pairs)
}

/// The full report: header plus every metric of every workload with its
/// unit, clock, direction, bound and spread.
pub fn full(opts: &Options, reports: &[WorkloadReport]) -> Json {
    let workloads = reports
        .iter()
        .map(|r| {
            (
                r.name.to_string(),
                Json::obj(vec![
                    ("correct", Json::Bool(r.correct())),
                    ("attempted", Json::Num(r.attempted as f64)),
                    ("failed", Json::Num(r.failed as f64)),
                    ("passes", Json::Num(r.passes as f64)),
                    ("traced_passes", Json::Num(r.traced_passes as f64)),
                    (
                        "notes",
                        Json::Arr(r.notes.iter().map(|n| Json::str(n.clone())).collect()),
                    ),
                    (
                        "metrics",
                        Json::Obj(
                            run::defined(r)
                                .map(|(def, v)| (def.name.to_string(), value_json(def, v)))
                                .collect(),
                        ),
                    ),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("header", header(opts, reports)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// The human-readable report.
pub fn text(opts: &Options, reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# run header");
    if let Json::Obj(pairs) = header(opts, reports) {
        for (k, v) in pairs {
            match v {
                Json::Obj(sizes) if k == "sizes" => {
                    for (w, s) in sizes {
                        let _ = writeln!(out, "{k}.{w}: {}", s.as_str().unwrap_or(""));
                    }
                }
                other => {
                    let _ = writeln!(out, "{k}: {}", other.to_compact());
                }
            }
        }
    }
    for r in reports {
        let _ = writeln!(
            out,
            "\n# {} — {} timed passes{}, {} ops attempted, {} failed",
            r.name,
            r.passes,
            if r.traced_passes > 0 {
                format!(" + {} traced", r.traced_passes)
            } else {
                String::new()
            },
            r.attempted,
            r.failed
        );
        let _ = writeln!(
            out,
            "{:<40} {:>16} {:<8} {:>9} {:>7}  {:<7} better",
            "metric", "value", "unit", "spread%", "bound%", "clock"
        );
        for (def, v) in run::defined(r) {
            let _ = writeln!(
                out,
                "{:<40} {:>16} {:<8} {:>9} {:>7}  {:<7} {}",
                def.name,
                format_value(v.value),
                def.unit,
                v.spread_pct.map_or("-".to_string(), |s| format!("{s:.2}")),
                def.bound
                    .map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
                match def.clock {
                    Clock::Host => "host",
                    Clock::Modeled => "modeled",
                },
                def.better.name()
            );
        }
        if !r.tracer.totals().is_empty() {
            let _ = writeln!(
                out,
                "{:<40} {:<10} {:>10} {:>14} {:>14}",
                "span", "layer", "count", "total_us", "self_us"
            );
            for (name, t) in r.tracer.totals() {
                let _ = writeln!(
                    out,
                    "{:<40} {:<10} {:>10} {:>14.1} {:>14.1}",
                    name,
                    t.layer.name(),
                    t.count,
                    t.total_ns as f64 / 1e3,
                    t.self_ns as f64 / 1e3
                );
            }
            for (name, n) in r.tracer.counts() {
                let _ = writeln!(out, "{:<40} {:<10} {:>10}", name, "count", n);
            }
        }
        for n in &r.notes {
            let _ = writeln!(out, "!! {n}");
        }
    }
    out
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The line the benchmark driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` — with tracing off the end-to-end metrics
/// defined on every workload, with tracing on everything else (0 where
/// this workload does not measure the metric). With several workloads
/// the metric names are prefixed `workload/`.
pub fn driver_line(opts: &Options, reports: &[WorkloadReport]) -> String {
    let wanted: Vec<&metrics::MetricDef> = if opts.trace {
        metrics::END_TO_END[metrics::UNIVERSAL..]
            .iter()
            .chain(metrics::PER_LAYER)
            .collect()
    } else {
        metrics::END_TO_END[..metrics::UNIVERSAL].iter().collect()
    };
    let mut metrics_json = Vec::new();
    for r in reports {
        for def in &wanted {
            let value = r.metrics.get(def.name).map_or(0.0, |v| v.value);
            let name = if reports.len() == 1 {
                def.name.to_string()
            } else {
                format!("{}/{}", r.name, def.name)
            };
            metrics_json.push((
                name,
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(def.unit)),
                ]),
            ));
        }
    }
    Json::obj(vec![
        (
            "correct",
            Json::Bool(reports.iter().all(WorkloadReport::correct)),
        ),
        (
            "attempted",
            Json::Num(reports.iter().map(|r| r.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(reports.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics_json)),
    ])
    .to_compact()
}

/// Write each traced workload's spans as `trace-<workload>.json` under
/// `dir`; returns the paths written.
pub fn write_traces(dir: &Path, reports: &[WorkloadReport]) -> std::io::Result<Vec<String>> {
    let mut written = Vec::new();
    for r in reports.iter().filter(|r| !r.tracer.records().is_empty()) {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{}.json", r.name));
        let mut out = BufWriter::new(std::fs::File::create(&path)?);
        r.tracer.write_chrome_trace(&mut out)?;
        written.push(path.display().to_string());
    }
    Ok(written)
}
