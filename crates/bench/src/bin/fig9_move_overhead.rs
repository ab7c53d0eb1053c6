//! Figure 9 — worst-case page movement overhead at increasing move rates
//! (1, 100, 10 000, 20 000 moves per simulated second), normalized to the
//! CARAT baseline (full instrumentation, no moves).

use carat_bench::{compile, geomean, print_table, Args, Variant, FREQ_HZ};
use carat_runtime::GuardImpl;
use carat_vm::{Mode, MoveDriverConfig, Vm, VmConfig, VmError};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    let rates: [f64; 4] = [1.0, 100.0, 10_000.0, 20_000.0];
    println!("Figure 9: worst-case page movement overhead ({scale:?} scale)");
    println!("(* = measurement infeasible at this rate, as in the paper)\n");
    let mut rows = Vec::new();
    let mut per_rate: Vec<Vec<f64>> = vec![Vec::new(); rates.len()];
    for w in args.workloads {
        let m = compile(&w, scale, Variant::Full);
        let base = Vm::new(m.clone(), VmConfig::default())
            .expect("loads")
            .run()
            .expect("baseline");
        let mut cells = vec![w.name.to_string(), "1.000".into()];
        for (ri, &rate) in rates.iter().enumerate() {
            let driver = MoveDriverConfig {
                period_cycles: (FREQ_HZ / rate) as u64,
                max_moves: 0,
            };
            // Overheads beyond ~50x leave the measurable regime (the
            // paper's asterisks: Bodytrack at 10k/s ran 14.5 hours).
            let cfg = VmConfig {
                mode: Mode::Carat,
                guard_impl: GuardImpl::IfTree,
                move_driver: Some(driver),
                max_steps: (base.counters.instructions * 50).max(10_000_000),
                max_cycles: base.counters.cycles.saturating_mul(50),
                ..VmConfig::default()
            };
            match Vm::new(m.clone(), cfg).expect("loads").run() {
                Ok(r) => {
                    let norm = r.counters.normalized_to(&base.counters);
                    per_rate[ri].push(norm);
                    cells.push(format!("{norm:.3} ({}mv)", r.counters.moves));
                }
                Err(VmError::StepLimit) => {
                    per_rate[ri].push(50.0); // paper-style cutoff contribution
                    cells.push("*".to_string());
                }
                Err(other) => panic!("{}: moves must be transparent: {other}", w.name),
            }
        }
        rows.push(cells);
    }
    let mut mean_row = vec!["Geo. Mean".to_string(), "1.000".into()];
    mean_row.extend(per_rate.iter().map(|col| format!("{:.3}", geomean(col))));
    rows.push(mean_row);
    print_table(
        &[
            "benchmark",
            "CARAT base",
            "1 mv/s",
            "100 mv/s",
            "10k mv/s",
            "20k mv/s",
        ],
        &rows,
    );
}
