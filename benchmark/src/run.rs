//! The runner: set-up, warm-up, timed passes, reduction to metrics.
//!
//! One process, one thread. Every workload is set up several times (the
//! median is `setup_s`), runs one untimed warm-up pass of itself, then
//! fixed-size passes until its budget is used — a pass count (`--reps`)
//! or a duration (`--seconds`), never a partial pass. With several
//! workloads the passes are interleaved, so drift on the host lands on
//! all of them alike. A host metric is the median over passes and
//! carries `spread_pct = (max − min) / median`; a modeled metric must be
//! identical in every pass or the run is wrong.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::env;
use crate::metrics::{self, MetricDef};
use crate::probes;
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::workloads::{self, Params, Pass, Workload};

/// How long the timed phase of each workload lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many passes.
    Reps(usize),
    /// Whole passes until this many seconds are used (at least one).
    Seconds(f64),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub smoke: bool,
    pub budget: Budget,
    pub trace: bool,
    pub workloads: Vec<&'static str>,
}

/// A reported number: a median with its spread, or an exact value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    /// `(max − min) / median` over the samples, in percent; `None` for
    /// exact values and single samples.
    pub spread_pct: Option<f64>,
    pub samples: usize,
}

impl Value {
    pub fn exact(value: f64) -> Value {
        Value {
            value,
            spread_pct: None,
            samples: 1,
        }
    }

    pub fn median_of(samples: &[f64]) -> Value {
        Value {
            value: stats::median(samples),
            spread_pct: (samples.len() > 1).then(|| stats::spread_pct(samples)),
            samples: samples.len(),
        }
    }
}

pub type Metrics = BTreeMap<&'static str, Value>;

pub struct WorkloadReport {
    pub name: &'static str,
    pub sizes: String,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    pub traced_passes: usize,
    pub metrics: Metrics,
    /// Failed ops, broken determinism, failed dominance checks.
    pub notes: Vec<String>,
    /// The traced pass's spans (empty when tracing is off).
    pub tracer: Tracer,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }
}

/// Set-up is repeated until both hold (or the cap is reached), so that
/// a millisecond-sized set-up still yields a steady median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

/// A pass with its step samples already reduced, so that what a run
/// keeps in memory does not grow with the samples it took.
struct Measured {
    pass: Pass,
    steps: stats::Latency,
}

impl Measured {
    fn of(mut pass: Pass) -> Measured {
        let steps = stats::latency(&mut pass.steps_ns);
        pass.steps_ns = Vec::new();
        Measured { pass, steps }
    }
}

struct Running {
    name: &'static str,
    workload: Box<dyn Workload>,
    setup_s: Vec<f64>,
    warmup: Pass,
    untraced: Vec<Measured>,
    traced: Vec<Measured>,
    spent: Duration,
    tracer: Tracer,
    peak_rss_mb: Option<f64>,
}

impl Running {
    fn start(name: &'static str, params: Params) -> Result<Running, String> {
        let mut setup_s = Vec::new();
        let began = Instant::now();
        let (min_reps, max_reps) = if params.smoke {
            (2, 2)
        } else {
            (SETUP_MIN_REPS, SETUP_MAX_REPS)
        };
        let mut workload = loop {
            let t0 = Instant::now();
            let w = workloads::setup(name, params)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            let enough =
                setup_s.len() >= min_reps && began.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
            if enough || setup_s.len() >= max_reps {
                break w;
            }
        };
        // One untimed pass of itself: first-touch page faults, allocator
        // growth and lazy statics are paid here, not in the first sample.
        let warmup = workload.pass(&mut Tracer::off());
        Ok(Running {
            name,
            workload,
            setup_s,
            warmup,
            untraced: Vec::new(),
            traced: Vec::new(),
            spent: Duration::ZERO,
            tracer: Tracer::on(),
            peak_rss_mb: None,
        })
    }

    fn done(&self, budget: Budget, traced: bool) -> bool {
        let passes = if traced {
            self.traced.len()
        } else {
            self.untraced.len()
        };
        match budget {
            Budget::Reps(n) => passes >= n,
            Budget::Seconds(s) => passes >= 1 && self.spent.as_secs_f64() >= s,
        }
    }

    fn one_pass(&mut self, traced: bool) {
        let t0 = Instant::now();
        if traced {
            let pass = self.workload.pass(&mut self.tracer);
            self.traced.push(Measured::of(pass));
        } else {
            let pass = self.workload.pass(&mut Tracer::off());
            self.untraced.push(Measured::of(pass));
        }
        self.spent += t0.elapsed();
    }
}

/// Interleave passes across `runs` until every one has used `budget`.
fn phase(runs: &mut [Running], budget: Budget, traced: bool) {
    for r in runs.iter_mut() {
        r.spent = Duration::ZERO;
    }
    loop {
        let mut progressed = false;
        for r in runs.iter_mut() {
            if !r.done(budget, traced) {
                r.one_pass(traced);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
}

/// Run the selected workloads and reduce them to reports.
pub fn run(opts: &Options) -> Result<Vec<WorkloadReport>, String> {
    let params = Params {
        seed: opts.seed,
        smoke: opts.smoke,
    };
    let mut runs = Vec::new();
    for &name in &opts.workloads {
        runs.push(Running::start(name, params)?);
    }
    // With tracing on, the budget is split: end-to-end metrics always
    // come from untraced passes, the traced passes supply the spans and
    // the difference between the two is the tracing overhead.
    let (untraced, traced) = match (opts.budget, opts.trace) {
        (b, false) => (b, None),
        (Budget::Seconds(s), true) => (Budget::Seconds(s / 2.0), Some(Budget::Seconds(s / 2.0))),
        (Budget::Reps(n), true) => (Budget::Reps(n), Some(Budget::Reps((n / 4).max(1)))),
    };
    phase(&mut runs, untraced, false);
    let rss = env::peak_rss_mb();
    for r in runs.iter_mut() {
        r.peak_rss_mb = rss;
    }
    if let Some(budget) = traced {
        phase(&mut runs, budget, true);
    }
    Ok(runs
        .into_iter()
        .map(|r| reduce(r, params, opts.trace))
        .collect())
}

fn reduce(r: Running, params: Params, trace: bool) -> WorkloadReport {
    let mut notes = Vec::new();
    let mut metrics = Metrics::new();
    let all: Vec<&Pass> = std::iter::once(&r.warmup)
        .chain(r.untraced.iter().map(|m| &m.pass))
        .chain(r.traced.iter().map(|m| &m.pass))
        .collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    for p in &all {
        for n in &p.notes {
            if notes.len() < 16 && !notes.contains(n) {
                notes.push(n.clone());
            }
        }
    }
    // The modeled clock: every pass must have produced the same numbers.
    let exact = &r.warmup.exact;
    for (i, p) in all.iter().enumerate().skip(1) {
        if p.exact != *exact {
            let key = exact
                .iter()
                .find(|(k, v)| p.exact.get(*k) != Some(v))
                .map_or("key set", |(k, _)| k);
            notes.push(format!(
                "pass {i} disagrees with the warm-up on modeled `{key}`: not deterministic"
            ));
            break;
        }
    }
    let get = |k: &str| exact.get(k).copied().unwrap_or(0) as f64;
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { r.untraced.iter().map(|m| f(&m.pass)).collect() };
    let per_pass_steps = |f: &dyn Fn(&stats::Latency) -> Option<u32>| -> Vec<f64> {
        r.untraced
            .iter()
            .filter_map(|m| f(&m.steps))
            .map(|ns| ns as f64 / 1e3)
            .collect()
    };
    let wall_s = per_pass(&|p| p.wall_ns as f64 / 1e9);
    let total_wall: f64 = wall_s.iter().sum();
    let rate = |count: f64| Value::median_of(&per_pass(&|p| count / (p.wall_ns as f64 / 1e9)));

    // --- end to end ---
    // Up to 200 set-ups, the first ones cold: max − min over all of them
    // would only ever say "unresolved". The spread is taken over the
    // medians of five consecutive groups instead.
    let group = r.setup_s.len().div_ceil(5).max(1);
    let groups: Vec<f64> = r.setup_s.chunks(group).map(stats::median).collect();
    metrics.insert(
        "setup_s",
        Value {
            value: stats::median(&r.setup_s),
            ..Value::median_of(&groups)
        },
    );
    metrics.insert("wall_s", Value::median_of(&wall_s));
    let p50s = per_pass_steps(&|l| Some(l.p50));
    metrics.insert("step_p50_us", Value::median_of(&p50s));
    if let Some(mb) = r.peak_rss_mb {
        metrics.insert("peak_rss_mb", Value::exact(mb));
    }
    metrics.insert("host_mips", rate(get("instructions") / 1e6));
    metrics.insert("modeled_cycles", Value::exact(get("modeled_cycles")));
    metrics.insert("slice_p50_us", Value::median_of(&p50s));
    metrics.insert(
        "slices_per_s",
        Value {
            // The mean over the whole timed phase, so it carries the tail.
            value: get("slices") * r.untraced.len() as f64 / total_wall,
            ..rate(get("slices"))
        },
    );
    metrics.insert("tenants_per_s", rate(get("tenants")));
    metrics.insert("moves_per_s", rate(get("move_requests")));
    metrics.insert(
        "compile_us_per_module",
        Value::median_of(&per_pass(&|p| {
            p.wall_ns as f64 / 1e3 / get("modules").max(1.0)
        })),
    );
    let host =
        |k: &'static str| Value::median_of(&per_pass(&|p| p.host.get(k).copied().unwrap_or(0.0)));
    metrics.insert("admit_us_per_tenant", host("admit_us_per_tenant"));
    metrics.insert(
        "failed_ops_pct",
        Value::exact(failed as f64 / attempted.max(1) as f64 * 100.0),
    );
    metrics.insert("ops", Value::exact(r.warmup.attempted as f64));

    // --- per layer, in situ ---
    let insts = get("instructions").max(1.0);
    metrics.insert("vm.machine.instructions", Value::exact(get("instructions")));
    metrics.insert(
        "vm.machine.guards_executed",
        Value::exact(get("guards_executed")),
    );
    metrics.insert(
        "vm.machine.tracking_events",
        Value::exact(get("tracking_events")),
    );
    metrics.insert(
        "vm.machine.fused_fraction",
        Value::exact(get("fused_instructions") / insts),
    );
    metrics.insert(
        "vm.tlb.dtlb_mpki",
        Value::exact(get("dtlb_misses") / insts * 1e3),
    );
    metrics.insert("vm.tlb.pagewalks", Value::exact(get("pagewalks")));
    metrics.insert("frontend.ir_insts", Value::exact(get("ir_insts")));
    metrics.insert("core.guards_static", Value::exact(get("guards_static")));
    metrics.insert(
        "core.guards_remaining_pct",
        Value::exact(get("guards_static") / get("guards_injected").max(1.0) * 100.0),
    );
    metrics.insert("core.tracking_sites", Value::exact(get("tracking_sites")));
    metrics.insert("kernel.pressure_moves", Value::exact(get("pressure_moves")));
    metrics.insert(
        "kernel.pressure_page_outs",
        Value::exact(get("pressure_page_outs")),
    );
    metrics.insert(
        "kernel.compaction_cycles_per_reloc",
        Value::exact(
            get("compaction_cycles") / (get("pressure_moves") + get("pressure_page_outs")).max(1.0),
        ),
    );
    metrics.insert(
        "kernel.irq_latency_p99_cycles",
        Value::exact(get("irq_latency_p99_cycles")),
    );
    metrics.insert(
        "vm.capsule.bytes_per_tenant",
        Value::exact(get("capsule_bytes")),
    );
    metrics.insert("vm.multi.pressure_pass_us", host("pressure_pass_us"));
    // Tails: each pass's own percentile where its sample supports one,
    // then the median over passes. Reported with their spread, never
    // gated (see README, known noise).
    metrics.insert(
        "vm.multi.slice_p99_us",
        Value::median_of(&per_pass_steps(&|l| l.p99)),
    );
    metrics.insert(
        "vm.multi.slice_p999_us",
        Value::median_of(&per_pass_steps(&|l| l.p999)),
    );
    metrics.insert(
        "vm.multi.slice_max_us",
        Value::median_of(&per_pass_steps(&|l| Some(l.max))),
    );

    // --- per layer, from the spans ---
    if trace {
        let traced_wall: f64 = r.traced.iter().map(|m| m.pass.wall_ns as f64).sum();
        let mut covered = 0.0;
        for layer in Layer::CRATES {
            let share = r.tracer.layer_self_ns(layer) as f64 / traced_wall.max(1.0) * 100.0;
            covered += share;
            if let Some(def) = metrics::any(&format!("share_pct.{}", layer.name())) {
                metrics.insert(def.name, Value::exact(share));
            }
        }
        metrics.insert("residual_pct", Value::exact(100.0 - covered));
        let traced_s: Vec<f64> = r
            .traced
            .iter()
            .map(|m| m.pass.wall_ns as f64 / 1e9)
            .collect();
        metrics.insert(
            "trace_overhead_pct",
            Value::exact(
                (stats::median(&traced_s) / stats::median(&wall_s).max(1e-12) - 1.0) * 100.0,
            ),
        );
        metrics.insert(
            "core.compile_us",
            Value::exact(r.tracer.mean_us("core.compile")),
        );
        metrics.insert(
            "workloads.source_us",
            Value::exact(r.tracer.mean_us("workloads.source")),
        );
        metrics.insert(
            "vm.load_us",
            Value::exact(r.tracer.mean_us("vm.load_signed")),
        );
        probes::run(r.name, params, &mut metrics, &mut notes);
    }

    // Only what this workload is defined to report.
    metrics.retain(|name, _| metrics::any(name).is_some_and(|m| m.applies_to(r.name)));
    notes.extend(dominance(r.name, exact, &metrics, params.smoke));
    WorkloadReport {
        name: r.name,
        sizes: r.workload.sizes(),
        attempted,
        failed,
        passes: r.untraced.len(),
        traced_passes: r.traced.len(),
        metrics,
        notes,
        tracer: r.tracer,
    }
}

/// `move_storm` must stay dominated by the mover. Measured 68 % on the
/// box this was written on (drivers on 1.91 s, off 0.61 s per pass).
const MIN_MOVER_SHARE_PCT: f64 = 60.0;

/// Each workload exists because certain layers do its work and others do
/// none. That is checked, not asserted: a violated expectation is a note,
/// and a note fails the run.
fn dominance(
    name: &str,
    exact: &BTreeMap<&'static str, u64>,
    metrics: &Metrics,
    smoke: bool,
) -> Vec<String> {
    let get = |k: &str| exact.get(k).copied().unwrap_or(0);
    let mut out = Vec::new();
    match name {
        metrics::SOLO_CARAT | metrics::SOLO_TRAD => {
            if get("move_requests") != 0 {
                out.push(format!("{name} recorded {} moves", get("move_requests")));
            }
            if name == metrics::SOLO_TRAD && get("guards_executed") != 0 {
                out.push(format!("{name} executed {} guards", get("guards_executed")));
            }
            if name == metrics::SOLO_CARAT && get("guards_executed") == 0 {
                out.push(format!("{name} executed no guard"));
            }
        }
        metrics::COMPILE if get("instructions") != 0 => {
            out.push(format!(
                "{name} retired {} guest instructions",
                get("instructions")
            ));
        }
        metrics::MOVE_STORM => {
            if get("move_requests") == 0 {
                out.push(format!("{name} made no move request"));
            }
            // Smoke-sized programs finish before the drivers' periods
            // elapse often enough to dominate.
            if let (Some(share), false) = (metrics.get("share_pct.kernel"), smoke) {
                if share.value < MIN_MOVER_SHARE_PCT {
                    out.push(format!(
                        "{name}: mover share {:.1} % of the wall is below {MIN_MOVER_SHARE_PCT} %",
                        share.value
                    ));
                }
            }
        }
        _ => {}
    }
    out
}

/// Definitions of the metrics `report` carries, in dictionary order.
pub fn defined(report: &WorkloadReport) -> impl Iterator<Item = (&'static MetricDef, Value)> + '_ {
    metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .filter_map(|m| report.metrics.get(m.name).map(|v| (m, *v)))
}
