//! Ablation: contribution of each CARAT optimization (Opt 1 hoisting,
//! Opt 2 merging, Opt 3 AC/DC) to the dynamic guard count and runtime,
//! per workload. Each row toggles exactly one optimization on, plus the
//! none/all extremes.

use carat_bench::{geomean, print_table, Args};
use carat_core::{CaratCompiler, CompileOptions, OptPreset, OptToggles};
use carat_vm::{Vm, VmConfig};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!("Ablation: per-optimization contribution ({scale:?} scale)\n");
    let configs = [
        ("none", false, false, false),
        ("hoist", true, false, false),
        ("merge", false, true, false),
        ("acdc", false, false, true),
        ("all", true, true, true),
    ]
    .map(|(label, hoist, merge, redundancy)| {
        (
            label,
            OptToggles {
                hoist,
                merge,
                redundancy,
            },
        )
    });
    let mut rows = Vec::new();
    let mut ratio_cols: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for w in args.workloads {
        let module = w.module(scale).expect("workload compiles");
        let mut cells = vec![w.name.to_string()];
        let mut none_guards = 0f64;
        for (ci, (label, toggles)) in configs.iter().enumerate() {
            let options = CompileOptions {
                toggles: *toggles,
                ..CompileOptions::guards_only(OptPreset::CaratSpecific)
            };
            let m = CaratCompiler::new(options)
                .compile(module.clone())
                .expect("compiles")
                .module;
            let r = Vm::new(m, VmConfig::default())
                .expect("loads")
                .run()
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", w.name));
            let g = r.counters.guards_executed as f64;
            if ci == 0 {
                none_guards = g;
            }
            if none_guards > 0.0 {
                let ratio = g / none_guards;
                ratio_cols[ci].push(ratio.max(1e-6));
                cells.push(format!("{ratio:.3}"));
            } else {
                cells.push("-".to_string());
            }
        }
        rows.push(cells);
    }
    let mut mean_row = vec!["Geo. Mean".to_string()];
    mean_row.extend(ratio_cols.iter().map(|col| format!("{:.3}", geomean(col))));
    rows.push(mean_row);
    println!("dynamic guard executions, normalized to no optimization:");
    print_table(
        &[
            "benchmark",
            "none",
            "hoist only",
            "merge only",
            "AC/DC only",
            "all",
        ],
        &rows,
    );
}
