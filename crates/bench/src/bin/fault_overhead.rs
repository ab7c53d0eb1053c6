//! Zero-fault journal overhead: host wall-clock cost of the
//! crash-consistent move path when no fault ever fires.
//!
//! Installing any [`FaultPlan`] — even an empty one — switches the kernel
//! onto the journaled move path: every patched cell and register is
//! recorded so a mid-move interruption can roll back to a byte-identical
//! pre-move state. This experiment prices that insurance. Each workload
//! runs move- and swap-heavy under (a) no plan (plain moves) and (b) an
//! empty plan (journal armed, nothing fires), and reports the wall-clock
//! ns/instruction overhead. Simulated counters must match exactly — the
//! journal is host-side bookkeeping, invisible to the cost model.
//!
//! Usage: `fault_overhead [--scale test|small|full] [--only a,b]
//! [--out PATH]`. Writes `BENCH_faults.json` by default. Target: < 3%
//! geomean overhead. The report's `verdict` is `unresolved` when the
//! geomean effect is no larger than the plain side's rep-to-rep spread
//! (the geomean over workloads of slowest / fastest plain rep), else
//! `pass` or `warn` against the target.

use std::process::ExitCode;
use std::time::Instant;

use carat_bench::{compile, fixed, geomean, obj, print_table, Args, Json, Report, Variant};
use carat_ir::Module;
use carat_kernel::FaultPlan;
use carat_vm::{MoveDriverConfig, SwapDriverConfig, Vm, VmConfig};

const TARGET_PCT: f64 = 3.0;

fn config(plan: Option<FaultPlan>) -> VmConfig {
    VmConfig {
        move_driver: Some(MoveDriverConfig {
            period_cycles: 30_000,
            max_moves: 0,
        }),
        swap_driver: Some(SwapDriverConfig {
            period_cycles: 80_000,
            max_swaps: 0,
        }),
        fault_plan: plan,
        ..VmConfig::default()
    }
}

/// Wall-clock one run; returns elapsed ns and the simulated
/// (instructions, cycles, moves).
fn time_run(module: Module, journaled: bool) -> (f64, [u64; 3]) {
    let plan = journaled.then(FaultPlan::new);
    let vm = Vm::new(module, config(plan)).expect("load");
    let start = Instant::now();
    let c = vm.run().expect("run").counters;
    let ns = start.elapsed().as_nanos() as f64;
    (ns, [c.instructions, c.cycles, c.moves])
}

struct Row {
    name: String,
    insts: u64,
    moves: u64,
    plain_ns_per_inst: f64,
    journal_ns_per_inst: f64,
    /// Slowest over fastest plain rep: the host noise the effect is read against.
    plain_spread: f64,
}

fn main() -> ExitCode {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let (scale, out_path) = (args.scale, args.out);
    let reps = 5;

    println!("Zero-fault journal overhead ({scale:?} scale, best of {reps})\n");
    let mut rows: Vec<Row> = Vec::new();
    for w in args.workloads {
        let m = compile(&w, scale, Variant::Full);
        // Interleave reps so host noise degrades both sides equally.
        let mut plain = Vec::with_capacity(reps);
        let mut best_journal = f64::INFINITY;
        let mut sim = [0; 3];
        for _ in 0..reps {
            let (ns, unjournaled) = time_run(m.clone(), false);
            plain.push(ns);
            let (ns, journaled) = time_run(m.clone(), true);
            best_journal = best_journal.min(ns);
            assert_eq!(
                unjournaled, journaled,
                "{}: journaling must be invisible to simulated accounting",
                w.name
            );
            sim = journaled;
        }
        let [insts, _, moves] = sim;
        let best_plain = plain.iter().copied().fold(f64::INFINITY, f64::min);
        let worst_plain = plain.iter().copied().fold(0.0, f64::max);
        let per = |ns: f64| ns / insts.max(1) as f64;
        rows.push(Row {
            name: w.name.to_string(),
            insts,
            moves,
            plain_ns_per_inst: per(best_plain),
            journal_ns_per_inst: per(best_journal),
            plain_spread: worst_plain / best_plain,
        });
    }
    let overhead_pct = |r: &Row| (r.journal_ns_per_inst / r.plain_ns_per_inst - 1.0) * 100.0;
    let spread_pct = |x: f64| (x - 1.0) * 100.0;

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{}", r.insts),
                format!("{}", r.moves),
                format!("{:.2}", r.plain_ns_per_inst),
                format!("{:.2}", r.journal_ns_per_inst),
                format!("{:+.2}%", overhead_pct(r)),
                format!("{:.2}%", spread_pct(r.plain_spread)),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "IR insts",
            "moves",
            "plain ns/i",
            "journal ns/i",
            "overhead",
            "plain spread",
        ],
        &table,
    );
    // Geomean over the ns/inst ratios (robust to negative per-row noise).
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.journal_ns_per_inst / r.plain_ns_per_inst)
        .collect();
    let geomean_pct = spread_pct(geomean(&ratios));
    let spreads: Vec<f64> = rows.iter().map(|r| r.plain_spread).collect();
    let plain_spread_pct = spread_pct(geomean(&spreads));
    let within = geomean_pct < TARGET_PCT;
    // An effect no larger than the plain side's own rep-to-rep spread is
    // not a measurement of the journal, whichever side of the target it
    // lands on.
    let verdict = if geomean_pct.abs() <= plain_spread_pct {
        "unresolved"
    } else if within {
        "pass"
    } else {
        "warn"
    };
    println!(
        "\nGeomean zero-fault journal overhead: {geomean_pct:+.2}% against a plain \
         rep-to-rep spread of {plain_spread_pct:.2}% (target < {TARGET_PCT}%): {verdict}"
    );

    let workloads: Vec<Json> = rows
        .iter()
        .map(|r| {
            obj! {
                "name": r.name.as_str(), "ir_instructions": r.insts, "moves": r.moves,
                "plain_ns_per_inst": fixed(r.plain_ns_per_inst, 3),
                "journal_ns_per_inst": fixed(r.journal_ns_per_inst, 3),
                "overhead_pct": fixed(overhead_pct(r), 3),
                "plain_spread_pct": fixed(spread_pct(r.plain_spread), 3),
            }
        })
        .collect();
    let mut report = Report::default();
    report.extend(obj! {
        "scale": format!("{scale:?}"), "workloads": workloads,
        "geomean_overhead_pct": fixed(geomean_pct, 3),
        "plain_spread_pct": fixed(plain_spread_pct, 3),
        "target_pct": fixed(TARGET_PCT, 0), "within_target": within, "verdict": verdict,
    });
    report.finish(&out_path)
}
