//! Table 3 — worst-case page movement cost breakdown in cycles: Page
//! Expand / Patch Gen.&Exec / Register Patch / Allocation & Movement, plus
//! the derived prototype-cost columns.

use carat_bench::{compile, geomean, print_table, Args, Variant, FREQ_HZ};
use carat_runtime::GuardImpl;
use carat_vm::{MoveDriverConfig, Vm, VmConfig};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!("Table 3: Worst-case Page Movement Costs in Cycles ({scale:?} scale)\n");
    let mut rows = Vec::new();
    let mut cols: [Vec<f64>; 8] = Default::default();
    for w in args.workloads {
        let m = compile(&w, scale, Variant::Full);
        // Drive moves at 10k/s so every workload performs many episodes.
        let driver = MoveDriverConfig {
            period_cycles: (FREQ_HZ / 10_000.0) as u64,
            max_moves: 200,
        };
        let cfg = VmConfig {
            mode: Variant::Full.mode(),
            guard_impl: GuardImpl::IfTree,
            move_driver: Some(driver),
            ..VmConfig::default()
        };
        let r = Vm::new(m, cfg).expect("loads").run().expect("runs");
        let (expand, patch, regs, mv) = r.counters.move_breakdown.averages();
        if r.counters.move_breakdown.episodes == 0 {
            continue;
        }
        let proto = expand + patch + regs;
        let proto_wo = patch + regs;
        let total = proto + mv;
        let frac = if total > 0.0 { proto_wo / total } else { 0.0 };
        let vals = [expand, patch, regs, mv, proto, proto_wo, total, frac];
        for (c, v) in cols.iter_mut().zip(vals) {
            c.push(v);
        }
        let mut cells = vec![w.name.to_string()];
        cells.extend(vals[..7].iter().map(|v| format!("{v:.0}")));
        cells.push(format!("{frac:.4}"));
        rows.push(cells);
    }
    let mut mean_row = vec!["Geo. Mean".to_string()];
    for c in &cols {
        let g = geomean(c);
        mean_row.push(if g >= 1.0 {
            format!("{g:.0}")
        } else {
            format!("{g:.4}")
        });
    }
    rows.push(mean_row);
    print_table(
        &[
            "benchmark",
            "Page Expand",
            "Patch G&E",
            "Reg Patch",
            "Alloc&Move",
            "Prototype",
            "Proto w/o Exp",
            "Total",
            "w/oExp/Total",
        ],
        &rows,
    );
}
