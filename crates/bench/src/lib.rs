//! # carat-bench — harness regenerating the paper's tables and figures
//!
//! One binary per table/figure (see DESIGN.md's experiment index); this
//! library holds the shared machinery: compiling workloads in each
//! configuration, running them on the VM, rendering aligned tables, and
//! writing every `BENCH_*.json` through one [`Report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

use carat_core::{CaratCompiler, CompileOptions, OptPreset};
use carat_ir::Module;
use carat_vm::{Engine, Mode, MoveDriverConfig, RunResult, SchedSource, Vm, VmConfig, VmError};
use carat_workloads::{all_workloads, by_name, Scale, Workload};

/// Workloads whose hot paths are counted loops with affine accesses — the
/// subset where the threaded tier's decode-time whole-trip proofs have
/// material to work on. `freqmine` and `xalancbmk` are excluded
/// deliberately: their hot paths are recursive pointer chasing (linked
/// `struct elem` trees, side-exit search loops) where no affine
/// whole-trip proof applies.
pub const LOOP_HEAVY: &[&str] = &[
    "hpccg",
    "cg",
    "ft",
    "blackscholes",
    "canneal",
    "streamcluster",
    "deepsjeng",
    "lbm",
    "mcf",
    "nab",
    "xz",
    "dedup",
];

/// A compile/run configuration used across the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No instrumentation, CARAT (physical) execution — the normalization
    /// baseline of Figures 3, 6, 7, 9.
    Baseline,
    /// No instrumentation, traditional paging execution (Figure 2, Table 2).
    Traditional,
    /// Guards only, no guard optimization at all.
    GuardsNaive,
    /// Guards with generic local optimizations only (Figure 3a).
    GuardsGeneral,
    /// Guards with the CARAT-specific optimizations (Figure 3b).
    GuardsCarat,
    /// Tracking only (Figures 5–7).
    Tracking,
    /// Guards + tracking + optimizations (Figure 9 / Table 3 substrate).
    Full,
}

impl Variant {
    /// Compile options for this variant.
    pub fn options(self) -> CompileOptions {
        match self {
            Variant::Baseline | Variant::Traditional => CompileOptions::baseline(),
            Variant::GuardsNaive => CompileOptions::guards_only(OptPreset::None),
            Variant::GuardsGeneral => CompileOptions::guards_only(OptPreset::General),
            Variant::GuardsCarat => CompileOptions::guards_only(OptPreset::CaratSpecific),
            Variant::Tracking => CompileOptions::tracking_only(),
            Variant::Full => CompileOptions::default(),
        }
    }

    /// Execution mode for this variant.
    pub fn mode(self) -> Mode {
        match self {
            Variant::Traditional => Mode::Traditional,
            _ => Mode::Carat,
        }
    }
}

/// Compile `workload` at `scale` under `variant`.
///
/// # Panics
///
/// Panics on workload or compiler bugs (experiments are not expected to
/// handle them).
pub fn compile(workload: &Workload, scale: Scale, variant: Variant) -> Module {
    let module = workload
        .module(scale)
        .unwrap_or_else(|e| panic!("{}: frontend: {e}", workload.name));
    instrument(module, variant)
}

/// Instrument `module` under `variant`.
///
/// # Panics
///
/// Panics on a compiler bug.
pub fn instrument(module: Module, variant: Variant) -> Module {
    let name = module.name.clone();
    CaratCompiler::new(variant.options())
        .compile(module)
        .unwrap_or_else(|e| panic!("{name}: carat: {e}"))
        .module
}

/// Run `module` under `variant` with an optional move driver.
///
/// # Errors
///
/// Propagates VM faults (which several experiments treat as data).
pub fn run(
    module: Module,
    variant: Variant,
    guard_impl: carat_runtime::GuardImpl,
    move_driver: Option<MoveDriverConfig>,
) -> Result<RunResult, VmError> {
    let cfg = VmConfig {
        mode: variant.mode(),
        guard_impl,
        move_driver,
        ..VmConfig::default()
    };
    Vm::new(module, cfg)?.run()
}

/// Convenience: compile+run with the if-tree guard and no moves.
///
/// # Panics
///
/// Panics if the run faults.
pub fn run_simple(workload: &Workload, scale: Scale, variant: Variant) -> RunResult {
    let m = compile(workload, scale, variant);
    run(m, variant, carat_runtime::GuardImpl::IfTree, None)
        .unwrap_or_else(|e| panic!("{}: run: {e}", workload.name))
}

/// A command-line flag a bench bin can accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    /// `--scale test|small|full` (default small).
    Scale,
    /// `--only name,name`: run a subset of the workloads (default all).
    Only,
    /// `--engine reference|decoded|fused|threaded`.
    Engine,
    /// `--sched quantum|timer` (default quantum).
    Sched,
    /// `--out PATH`; carries the bin's default artifact name.
    Out(&'static str),
    /// `--jobs N` (default 1).
    Jobs,
    /// One positional word out of these; the first is the default.
    Mode(&'static [&'static str]),
}

const SCALES: [(&str, Scale); 3] = [
    ("test", Scale::Test),
    ("small", Scale::Small),
    ("full", Scale::Full),
];

const SCHEDS: [(&str, SchedSource); 2] = [
    ("quantum", SchedSource::Quantum),
    ("timer", SchedSource::Timer),
];

/// Every bench bin and the flags it accepts — the one place a flag is
/// declared, so `all_experiments` forwards to each child only what that
/// child takes.
const BINS: &[(&str, &[Flag])] = &[
    ("ablation_opts", &[Flag::Scale, Flag::Only]),
    ("all_experiments", &[Flag::Scale, Flag::Only, Flag::Jobs]),
    (
        "chaos_soak",
        &[Flag::Scale, Flag::Engine, Flag::Out("BENCH_chaos.json")],
    ),
    ("fig2_dtlb_misses", &[Flag::Scale, Flag::Only]),
    (
        "fig3_guard_overhead",
        &[
            Flag::Scale,
            Flag::Only,
            Flag::Mode(&["carat", "general", "none"]),
        ],
    ),
    ("fig4_region_guards", &[]),
    ("fig5_escape_histogram", &[Flag::Scale, Flag::Only]),
    ("fig6_memory_overhead", &[Flag::Scale, Flag::Only]),
    ("fig7_tracking_overhead", &[Flag::Scale, Flag::Only]),
    ("fig9_move_overhead", &[Flag::Scale, Flag::Only]),
    (
        "fleet_scaling",
        &[
            Flag::Scale,
            Flag::Engine,
            Flag::Sched,
            Flag::Out("BENCH_fleet.json"),
        ],
    ),
    (
        "interp_throughput",
        &[
            Flag::Scale,
            Flag::Only,
            Flag::Engine,
            Flag::Out("BENCH_interp.json"),
        ],
    ),
    (
        "io_latency",
        &[Flag::Scale, Flag::Engine, Flag::Out("BENCH_io.json")],
    ),
    (
        "multiproc_isolation",
        &[Flag::Scale, Flag::Out("BENCH_multiproc.json")],
    ),
    ("region_fragmentation", &[]),
    ("table1_guard_opts", &[Flag::Scale, Flag::Only]),
    ("table2_paging_rates", &[Flag::Scale, Flag::Only]),
    ("table3_move_breakdown", &[Flag::Scale, Flag::Only]),
];

/// The flags `bin` accepts.
fn flags_of(bin: &str) -> &'static [Flag] {
    BINS.iter()
        .find(|(name, _)| *name == bin)
        .unwrap_or_else(|| panic!("{bin} is not listed in carat_bench::BINS"))
        .1
}

/// A bench bin's parsed command line. A field whose flag the bin does
/// not accept holds that flag's default.
#[derive(Debug)]
pub struct Args {
    /// `--scale`.
    pub scale: Scale,
    /// `--only`, in suite order.
    pub workloads: Vec<Workload>,
    /// `--engine`; `None` when not given.
    pub engine: Option<Engine>,
    /// `--sched`.
    pub sched: SchedSource,
    /// `--out`, or the bin's default artifact name.
    pub out: String,
    /// `--jobs`.
    pub jobs: usize,
    /// The positional mode word.
    pub mode: &'static str,
}

impl Args {
    /// Parse this process's command line against the flags `bin`
    /// accepts. Every bin calls this first: a flag the bin does not
    /// accept, a missing or unknown value, or an `--only` name that is
    /// not a workload prints usage to stderr and exits 2 before any work
    /// is done or any file is written.
    pub fn parse(bin: &str) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_from(flags_of(bin), &argv).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", usage(bin));
            std::process::exit(2)
        })
    }

    fn parse_from(accepts: &[Flag], argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            scale: Scale::default(),
            workloads: all_workloads(),
            engine: None,
            sched: SchedSource::default(),
            out: String::new(),
            jobs: 1,
            mode: "",
        };
        for f in accepts {
            match *f {
                Flag::Out(default) => args.out = default.to_string(),
                Flag::Mode(choices) => args.mode = choices[0],
                _ => {}
            }
        }
        let mut mode_given = false;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let positional = !arg.starts_with("--");
            let flag = accepts.iter().copied().find(|f| match f {
                Flag::Mode(_) => positional && !mode_given,
                f => f.name() == arg,
            });
            let Some(flag) = flag else {
                return Err(format!("unknown argument {arg:?}"));
            };
            let val = if positional {
                arg
            } else {
                it.next().ok_or(format!("{arg} needs a value"))?
            };
            match flag {
                Flag::Scale => args.scale = one_of(&SCALES, flag, val)?,
                Flag::Sched => args.sched = one_of(&SCHEDS, flag, val)?,
                Flag::Engine => args.engine = Some(one_of(&engines(), flag, val)?),
                Flag::Only => {
                    let names: Vec<&str> = val.split(',').collect();
                    if let Some(bad) = names.iter().find(|n| by_name(n).is_none()) {
                        return Err(format!("--only: {bad:?} is not a workload"));
                    }
                    args.workloads.retain(|w| names.contains(&w.name));
                }
                Flag::Out(_) => args.out = val.clone(),
                Flag::Jobs => {
                    args.jobs = val
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or(format!("--jobs: {val:?} is not a positive integer"))?;
                }
                Flag::Mode(choices) => {
                    let choices: Vec<_> = choices.iter().map(|c| (*c, *c)).collect();
                    args.mode = one_of(&choices, flag, val)?;
                    mode_given = true;
                }
            }
        }
        Ok(args)
    }

    /// This command line's `--scale` and `--only` as arguments for `bin`,
    /// which is handed only the ones it accepts.
    pub fn forward_to(&self, bin: &str) -> Vec<String> {
        let scale = SCALES.iter().find(|s| s.1 == self.scale);
        let scale = scale.expect("every scale has a name").0;
        let only: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        [
            (Flag::Scale, scale.to_string()),
            (Flag::Only, only.join(",")),
        ]
        .into_iter()
        .filter(|(flag, _)| flags_of(bin).contains(flag))
        .flat_map(|(flag, val)| [flag.name().to_string(), val])
        .collect()
    }
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Scale => "--scale",
            Flag::Only => "--only",
            Flag::Engine => "--engine",
            Flag::Sched => "--sched",
            Flag::Out(_) => "--out",
            Flag::Jobs => "--jobs",
            Flag::Mode(_) => "a mode",
        }
    }

    fn usage(self) -> String {
        match self {
            Flag::Scale => format!("--scale {}", names(&SCALES)),
            Flag::Only => "--only workload,workload".to_string(),
            Flag::Engine => format!("--engine {}", names(&engines())),
            Flag::Sched => format!("--sched {}", names(&SCHEDS)),
            Flag::Out(default) => format!("--out PATH (default {default})"),
            Flag::Jobs => "--jobs N".to_string(),
            Flag::Mode(choices) => choices.join("|"),
        }
    }
}

fn engines() -> [(&'static str, Engine); 4] {
    Engine::ALL.map(|e| (e.name(), e))
}

fn names<T>(choices: &[(&'static str, T)]) -> String {
    let names: Vec<&str> = choices.iter().map(|c| c.0).collect();
    names.join("|")
}

/// The value `val` names among `choices`, or an error listing them.
fn one_of<T: Copy>(choices: &[(&'static str, T)], flag: Flag, val: &str) -> Result<T, String> {
    choices
        .iter()
        .find(|c| c.0 == val)
        .map(|c| c.1)
        .ok_or_else(|| {
            format!(
                "{}: unknown value {val:?} (want {})",
                flag.name(),
                names(choices)
            )
        })
}

fn usage(bin: &str) -> String {
    flags_of(bin).iter().fold(format!("usage: {bin}"), |u, f| {
        format!("{u} [{}]", f.usage())
    })
}

/// Percentile over a sample set (nearest-rank on a sorted copy);
/// 0 for an empty set. `pct` in [0, 100].
pub fn percentile(xs: &[u64], pct: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One value of a `BENCH_*.json` report.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, bool, string or `null`, as written.
    Scalar(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion order.
    Object(Vec<(String, Json)>),
}

/// `x` with `decimals` digits after the point.
pub fn fixed(x: f64, decimals: usize) -> Json {
    Json::Scalar(format!("{x:.decimals$}"))
}

macro_rules! json_scalar {
    ($fmt:literal: $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Scalar(format!($fmt, x))
            }
        }
    )*};
}
json_scalar!("{}": u64, i64, usize, bool);
// Report strings are names, plain ASCII, where Rust's escapes are JSON's.
json_scalar!("{:?}": &str, String);

impl From<Vec<Json>> for Json {
    fn from(xs: Vec<Json>) -> Json {
        Json::Array(xs)
    }
}

/// A [`Json::Object`] from `"key": value` pairs, in order; a value is
/// anything with `Into<Json>`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $val:expr),* $(,)?) => {
        $crate::Json::Object(vec![$(($key.to_string(), $crate::Json::from($val))),*])
    };
}

impl Json {
    /// The one report layout: 2-space indents, and an array or object
    /// whose members are all scalars on one line.
    fn write(&self, indent: usize, out: &mut String) {
        let (open, close, members): (_, _, Vec<(Option<&String>, &Json)>) = match self {
            Json::Scalar(s) => return out.push_str(s),
            Json::Array(xs) => ('[', ']', xs.iter().map(|x| (None, x)).collect()),
            Json::Object(kvs) => ('{', '}', kvs.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let one_line = members.iter().all(|(_, v)| matches!(v, Json::Scalar(_)));
        let pad = |n: usize| {
            if one_line {
                String::new()
            } else {
                format!("\n{}", " ".repeat(n))
            }
        };
        out.push(open);
        for (i, (key, v)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if one_line { ", " } else { "," });
            }
            out.push_str(&pad(indent + 2));
            if let Some(k) = key {
                out.push_str(&format!("{k:?}: "));
            }
            v.write(indent + 2, out);
        }
        out.push_str(&pad(indent));
        out.push(close);
    }
}

/// A bench bin's `BENCH_*.json` report. A gate is stated once, through
/// [`Report::gate`]; [`Report::finish`] writes it and decides the exit
/// code from the same record.
#[derive(Debug, Default)]
pub struct Report {
    fields: Vec<(String, Json)>,
    gates: Vec<(String, bool)>,
}

impl Report {
    /// Record the members of `fields`, an [`obj!`], in order.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is not an object.
    pub fn extend(&mut self, fields: Json) {
        let Json::Object(kvs) = fields else {
            panic!("report fields are an object, not {fields:?}");
        };
        self.fields.extend(kvs);
    }

    /// Record gate `name` and print `PASS: what` or `FAIL: what`.
    pub fn gate(&mut self, name: &str, ok: bool, what: &str) {
        println!("{}: {what}", if ok { "PASS" } else { "FAIL" });
        self.gates.push((name.to_string(), ok));
    }

    /// Write the report to `out` — the fields, then every gate in one
    /// `gates` object and `pass` (both left out by a bin that states no
    /// gate) — print `wrote out`, and fail if any gate failed.
    ///
    /// # Panics
    ///
    /// Panics if `out` cannot be written.
    pub fn finish(mut self, out: &str) -> ExitCode {
        let pass = self.gates.iter().all(|g| g.1);
        if !self.gates.is_empty() {
            let gates = self.gates.into_iter().map(|(k, ok)| (k, ok.into()));
            self.fields
                .push(("gates".into(), Json::Object(gates.collect())));
            self.fields.push(("pass".into(), pass.into()));
        }
        let mut text = String::new();
        Json::Object(self.fields).write(0, &mut text);
        std::fs::write(out, text + "\n").unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("\nwrote {out}");
        if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Render an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                out.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        println!("{out}");
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row.clone());
    }
}

/// Geometric mean of positive values (the paper's preferred aggregate).
pub fn geomean(xs: &[f64]) -> f64 {
    let xs: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Simulated clock used when converting cycles to seconds (matches the
/// paper's 2.3 GHz Xeon E5-2695 v3).
pub const FREQ_HZ: f64 = 2.3e9;

#[cfg(test)]
mod tests {
    use super::*;
    use carat_workloads::by_name;

    #[test]
    fn variants_compile_and_run_ep() {
        let w = by_name("ep").unwrap();
        for v in [
            Variant::Baseline,
            Variant::Traditional,
            Variant::GuardsNaive,
            Variant::GuardsGeneral,
            Variant::GuardsCarat,
            Variant::Tracking,
            Variant::Full,
        ] {
            let r = run_simple(&w, Scale::Test, v);
            assert!(r.counters.instructions > 0, "{v:?}");
        }
    }

    fn parse(bin: &str, argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse_from(flags_of(bin), &argv)
    }

    #[test]
    fn a_misspelt_flag_or_value_is_an_error() {
        for (bin, argv) in [
            ("interp_throughput", &["--scael", "test"][..]),
            ("interp_throughput", &["--scale"]),
            ("interp_throughput", &["--scale", "tset"]),
            ("interp_throughput", &["--engine", "fuse"]),
            ("interp_throughput", &["--only", "mcf,nope"]),
            ("interp_throughput", &["--out"]),
            ("interp_throughput", &["stray"]),
            ("fleet_scaling", &["--sched", "tick"]),
            ("fleet_scaling", &["--only", "mcf"]),
            ("fig3_guard_overhead", &["generic"]),
            ("fig3_guard_overhead", &["general", "carat"]),
            ("fig9_move_overhead", &["--engine", "fused"]),
            ("fig4_region_guards", &["--scale", "test"]),
            ("all_experiments", &["--jobs", "0"]),
            ("all_experiments", &["--jobs", "many"]),
        ] {
            assert!(parse(bin, argv).is_err(), "{bin} accepted {argv:?}");
        }
    }

    #[test]
    fn every_flag_a_bin_declares_parses() {
        for (bin, flags) in BINS {
            let mut argv = Vec::new();
            for f in *flags {
                match f {
                    Flag::Scale => argv.extend(["--scale", "test"]),
                    Flag::Only => argv.extend(["--only", "mcf,ep"]),
                    Flag::Engine => argv.extend(["--engine", "threaded"]),
                    Flag::Sched => argv.extend(["--sched", "timer"]),
                    Flag::Out(_) => argv.extend(["--out", "/tmp/x.json"]),
                    Flag::Jobs => argv.extend(["--jobs", "3"]),
                    Flag::Mode(choices) => argv.push(choices[1]),
                }
            }
            let args = parse(bin, &argv).unwrap_or_else(|e| panic!("{bin} {argv:?}: {e}"));
            for f in *flags {
                match f {
                    Flag::Scale => assert_eq!(args.scale, Scale::Test),
                    Flag::Only => {
                        let names: Vec<_> = args.workloads.iter().map(|w| w.name).collect();
                        assert_eq!(names, ["ep", "mcf"], "suite order");
                    }
                    Flag::Engine => assert_eq!(args.engine, Some(Engine::Threaded)),
                    Flag::Sched => assert_eq!(args.sched, SchedSource::Timer),
                    Flag::Out(_) => assert_eq!(args.out, "/tmp/x.json"),
                    Flag::Jobs => assert_eq!(args.jobs, 3),
                    Flag::Mode(choices) => assert_eq!(args.mode, choices[1]),
                }
            }
        }
    }

    #[test]
    fn a_container_of_scalars_is_one_line_and_any_other_is_indented() {
        let rows: Vec<Json> = vec![obj! {"name": "mcf", "ok": true}, obj! {}];
        let v = obj! {
            "scale": "Test", "n": 3usize, "ret": -4i64, "pct": fixed(1.23456, 3),
            "rows": rows, "nested": obj! {"p50": 2u64, "xs": Vec::<Json>::new()},
        };
        let mut out = String::new();
        v.write(0, &mut out);
        assert_eq!(
            out,
            "{\n  \"scale\": \"Test\",\n  \"n\": 3,\n  \"ret\": -4,\n  \"pct\": 1.235,\n  \
             \"rows\": [\n    {\"name\": \"mcf\", \"ok\": true},\n    {}\n  ],\n  \
             \"nested\": {\n    \"p50\": 2,\n    \"xs\": []\n  }\n}"
        );
    }

    #[test]
    fn finish_writes_every_gate_and_fails_on_any() {
        let path = std::env::temp_dir().join(format!("carat-bench-report-{}", std::process::id()));
        let path = path.to_str().expect("utf-8 temp dir");
        let written = |gates: &[(&str, bool)]| {
            let mut r = Report::default();
            r.extend(obj! {"scale": "Test"});
            for &(name, ok) in gates {
                r.gate(name, ok, name);
            }
            let code = r.finish(path);
            (code, std::fs::read_to_string(path).expect("report written"))
        };
        let (code, text) = written(&[]);
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(text, "{\"scale\": \"Test\"}\n", "no gate, no gates or pass");
        let (code, text) = written(&[("a_ok", true), ("b_ok", false)]);
        assert_eq!(code, ExitCode::FAILURE);
        assert!(text
            .ends_with("  \"gates\": {\"a_ok\": true, \"b_ok\": false},\n  \"pass\": false\n}\n"));
        let (code, text) = written(&[("a_ok", true)]);
        assert_eq!(code, ExitCode::SUCCESS);
        assert!(text.contains("\"pass\": true"));
        std::fs::remove_file(path).expect("temp report removed");
    }

    #[test]
    fn no_arguments_means_the_declared_defaults() {
        let args = parse("interp_throughput", &[]).unwrap();
        assert_eq!(args.scale, Scale::Small);
        assert_eq!(args.workloads.len(), all_workloads().len());
        assert_eq!(args.engine, None);
        assert_eq!(args.out, "BENCH_interp.json");
        assert_eq!(parse("fig3_guard_overhead", &[]).unwrap().mode, "carat");
        assert_eq!(parse("all_experiments", &[]).unwrap().jobs, 1);
    }

    #[test]
    fn a_child_is_forwarded_only_the_flags_it_accepts() {
        let args = parse("all_experiments", &["--scale", "test", "--only", "mcf"]).unwrap();
        assert_eq!(
            args.forward_to("fig9_move_overhead"),
            ["--scale", "test", "--only", "mcf"]
        );
        assert_eq!(args.forward_to("fleet_scaling"), ["--scale", "test"]);
        assert!(args.forward_to("fig4_region_guards").is_empty());
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn guard_variants_rank_as_expected_on_lu() {
        let w = by_name("lu").unwrap();
        let base = run_simple(&w, Scale::Test, Variant::Baseline);
        let naive = run_simple(&w, Scale::Test, Variant::GuardsNaive);
        let carat = run_simple(&w, Scale::Test, Variant::GuardsCarat);
        let over_naive = naive.counters.normalized_to(&base.counters);
        let over_carat = carat.counters.normalized_to(&base.counters);
        assert!(over_naive > over_carat, "{over_naive} vs {over_carat}");
        assert!(
            over_carat < 1.6,
            "CARAT-opt overhead is small: {over_carat}"
        );
    }
}
