//! # carat-bench — harness regenerating the paper's tables and figures
//!
//! One binary per table/figure (see DESIGN.md's experiment index); this
//! library holds the shared machinery: compiling workloads in each
//! configuration, running them on the VM, and rendering aligned tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use carat_core::{CaratCompiler, CompileOptions, OptPreset};
use carat_ir::Module;
use carat_vm::{Mode, MoveDriverConfig, RunResult, Vm, VmConfig, VmError};
use carat_workloads::{all_workloads, Scale, Workload};

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
    CaratCompiler::new(variant.options())
        .compile(module)
        .unwrap_or_else(|e| panic!("{}: carat: {e}", workload.name))
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

/// Read the scale from argv (`--scale test|small|full`; default small).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--scale" {
            return match w[1].as_str() {
                "test" => Scale::Test,
                "full" => Scale::Full,
                _ => Scale::Small,
            };
        }
    }
    Scale::Small
}

/// Read the *modeled* patch-worker count from argv (`--workers N`;
/// default 1 = the serial protocol). A what-if on the cost model's
/// `patch_workers` only: the host always patches on one thread.
pub fn workers_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--workers" {
            return w[1].parse::<u64>().unwrap_or(1).max(1);
        }
    }
    1
}

/// Read the interpreter engine from argv
/// (`--engine reference|decoded|fused|threaded`; default fused).
///
/// Panics on an unknown name so a typo in a CI job fails loudly instead
/// of silently benchmarking the wrong engine.
pub fn engine_from_args() -> carat_vm::Engine {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--engine" {
            return carat_vm::Engine::parse(&w[1]).unwrap_or_else(|| {
                panic!(
                    "unknown engine {:?}: want reference|decoded|fused|threaded",
                    w[1]
                )
            });
        }
    }
    carat_vm::Engine::default()
}

/// Read the fleet preemption source from argv
/// (`--sched quantum|timer`; default quantum, the historical behavior).
///
/// Panics on an unknown name so a typo in a CI job fails loudly instead
/// of silently benchmarking the wrong scheduler.
pub fn sched_from_args() -> carat_vm::SchedSource {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--sched" {
            return match w[1].as_str() {
                "quantum" => carat_vm::SchedSource::Quantum,
                "timer" => carat_vm::SchedSource::Timer,
                other => panic!("unknown scheduler {other:?}: want quantum|timer"),
            };
        }
    }
    carat_vm::SchedSource::default()
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

/// Read a positional mode argument (used by fig3: `general` / `carat`).
pub fn arg_after_binary(default: &str) -> String {
    std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| default.to_string())
}

/// The workload list, optionally filtered by `--only name,name`.
pub fn selected_workloads() -> Vec<Workload> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--only" {
            let names: Vec<&str> = w[1].split(',').collect();
            return all_workloads()
                .into_iter()
                .filter(|wl| names.contains(&wl.name))
                .collect();
        }
    }
    all_workloads()
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
