//! Table 1 — effectiveness of the CARAT-specific compiler optimizations:
//! fraction of injected guards statically remaining, untouched, and
//! optimized by each of Opt 1 (hoisting), Opt 2 (merging), Opt 3 (AC/DC).
//!
//! A second section ablates the *decode-time* guard optimizations of the
//! threaded engine tier on the loop-heavy workloads: `none` (all guards
//! execute), `elide` (proof-elided guards dropped, no replacement check),
//! and `elide+hoist` (one widened range check per elided loop guard at
//! the preheader). Builds are `GuardsNaive` — no compile-time guard
//! optimization — so the decode-time proofs carry the whole burden, and
//! each config's guard counters reconcile against the `none` row.

use carat_bench::{compile, mean, print_table, Args, Variant, LOOP_HEAVY};
use carat_core::{CaratCompiler, CompileOptions, OptPreset};
use carat_ir::Module;
use carat_vm::{Engine, RunResult, ThreadedOpts, Vm, VmConfig};
use carat_workloads::{Scale, Workload};

/// Run one loop-heavy workload on the threaded engine with the given
/// decode-time toggles.
fn run_threaded(module: Module, opts: ThreadedOpts) -> RunResult {
    let cfg = VmConfig {
        engine: Engine::Threaded,
        threaded: opts,
        ..VmConfig::default()
    };
    Vm::new(module, cfg).expect("load").run().expect("run")
}

/// The decode-time ablation over the loop-heavy subset.
fn threaded_ablation(scale: Scale, workloads: &[Workload]) {
    println!("\nThreaded-tier guard ablation (GuardsNaive builds, loop-heavy subset)\n");
    let configs = [
        ("none", false, false),
        ("elide", true, false),
        ("elide+hoist", true, true),
    ]
    .map(|(label, elide, hoist)| (label, ThreadedOpts { elide, hoist }));
    let mut rows = Vec::new();
    for w in workloads {
        if !LOOP_HEAVY.contains(&w.name) {
            continue;
        }
        let results: Vec<RunResult> = configs
            .iter()
            .map(|(_, opts)| run_threaded(compile(w, scale, Variant::GuardsNaive), *opts))
            .collect();
        let [none, elide, full] = results.as_slice() else {
            unreachable!()
        };
        // Same program, same semantics, and every elided guard accounted:
        // config `none` executes each guard the others elide.
        for r in [elide, full] {
            assert_eq!(none.ret, r.ret, "{}: ablation changed the result", w.name);
            assert_eq!(none.output, r.output, "{}: ablation changed output", w.name);
            assert_eq!(
                none.counters.guards_executed,
                r.counters.guards_executed + r.counters.guards_elided - r.counters.guards_hoisted,
                "{}: guard accounting does not reconcile",
                w.name
            );
        }
        assert!(
            full.counters.guards_elided > 0,
            "{}: loop-heavy workload with no proof-elided guards",
            w.name
        );
        let gc = |r: &RunResult| r.counters.guard_cycles as f64;
        rows.push(vec![
            w.name.to_string(),
            format!("{}", none.counters.guards_executed),
            format!("{}", full.counters.guards_executed),
            format!("{}", full.counters.guards_elided),
            format!("{}", full.counters.guards_hoisted),
            format!("{:.3}", gc(elide) / gc(none).max(1.0)),
            format!("{:.3}", gc(full) / gc(none).max(1.0)),
        ]);
    }
    print_table(
        &[
            "benchmark",
            "guards (none)",
            "guards (e+h)",
            "elided",
            "hoisted",
            "gcyc elide/none",
            "gcyc e+h/none",
        ],
        &rows,
    );
    println!("\nguards-elided-by-proof > 0 verified on every loop-heavy workload");
}

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!("Table 1: Effectiveness of Compiler Optimizations ({scale:?} scale)\n");
    let mut rows = Vec::new();
    let mut cols: [Vec<f64>; 5] = Default::default();
    for w in &args.workloads {
        let module = w.module(scale).expect("workload compiles");
        let out = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
            .compile(module)
            .expect("carat compiles");
        let c = out.census;
        let vals = [
            c.remaining_fraction(),
            c.untouched_fraction(),
            c.hoisted_fraction(),
            c.merged_fraction(),
            c.eliminated_fraction(),
        ];
        for (col, v) in cols.iter_mut().zip(vals) {
            col.push(v);
        }
        let mut cells = vec![w.name.to_string()];
        cells.extend(vals.iter().map(|v| format!("{v:.3}")));
        cells.push(c.total.to_string());
        rows.push(cells);
    }
    let mut means = vec!["Arith. Mean".to_string()];
    means.extend(cols.iter().map(|col| format!("{:.3}", mean(col))));
    means.push(String::new());
    rows.push(means);
    print_table(
        &[
            "benchmark",
            "Opt. Guards",
            "Untouched",
            "Opt. 1",
            "Opt. 2",
            "Opt. 3",
            "total",
        ],
        &rows,
    );

    threaded_ablation(scale, &args.workloads);
}
