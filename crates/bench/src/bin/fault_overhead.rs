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
//! geomean overhead.

use std::time::Instant;

use carat_bench::{compile, print_table, Args, Variant};
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

/// Wall-clock one run; returns (elapsed ns, instructions, simulated cycles, moves).
fn time_run(module: Module, journaled: bool) -> (f64, u64, u64, u64) {
    let plan = journaled.then(FaultPlan::new);
    let vm = Vm::new(module, config(plan)).expect("load");
    let start = Instant::now();
    let r = vm.run().expect("run");
    let ns = start.elapsed().as_nanos() as f64;
    (
        ns,
        r.counters.instructions,
        r.counters.cycles,
        r.counters.moves,
    )
}

struct Row {
    name: String,
    insts: u64,
    moves: u64,
    plain_ns_per_inst: f64,
    journal_ns_per_inst: f64,
    overhead_pct: f64,
}

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let (scale, out_path) = (args.scale, args.out);
    let reps = 5;

    println!("Zero-fault journal overhead ({scale:?} scale, best of {reps})\n");
    let mut rows: Vec<Row> = Vec::new();
    for w in args.workloads {
        let m = compile(&w, scale, Variant::Full);
        // Interleave reps so host noise degrades both sides equally.
        let mut best_plain = f64::INFINITY;
        let mut best_journal = f64::INFINITY;
        let mut insts = 0;
        let mut moves = 0;
        for _ in 0..reps {
            let (ns, n, cycles, mv) = time_run(m.clone(), false);
            best_plain = best_plain.min(ns);
            insts = n;
            moves = mv;
            let (ns, n2, cycles2, mv2) = time_run(m.clone(), true);
            best_journal = best_journal.min(ns);
            assert_eq!(
                (n, cycles, mv),
                (n2, cycles2, mv2),
                "{}: journaling must be invisible to simulated accounting",
                w.name
            );
        }
        let per = |ns: f64| ns / insts.max(1) as f64;
        rows.push(Row {
            name: w.name.to_string(),
            insts,
            moves,
            plain_ns_per_inst: per(best_plain),
            journal_ns_per_inst: per(best_journal),
            overhead_pct: (best_journal / best_plain - 1.0) * 100.0,
        });
    }

    let mut table = Vec::new();
    for r in &rows {
        table.push(vec![
            r.name.clone(),
            format!("{}", r.insts),
            format!("{}", r.moves),
            format!("{:.2}", r.plain_ns_per_inst),
            format!("{:.2}", r.journal_ns_per_inst),
            format!("{:+.2}%", r.overhead_pct),
        ]);
    }
    print_table(
        &[
            "workload",
            "IR insts",
            "moves",
            "plain ns/i",
            "journal ns/i",
            "overhead",
        ],
        &table,
    );
    // Geomean over the ns/inst ratios (robust to negative per-row noise).
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.journal_ns_per_inst / r.plain_ns_per_inst)
        .collect();
    let geomean_pct = (carat_bench::geomean(&ratios) - 1.0) * 100.0;
    let within = geomean_pct < TARGET_PCT;
    println!(
        "\nGeomean zero-fault journal overhead: {geomean_pct:+.2}% (target < {TARGET_PCT}%): {}",
        if within { "PASS" } else { "WARN" }
    );

    // Hand-rolled JSON: no serde in the dependency closure.
    let mut json = String::from("{\n  \"scale\": \"");
    json.push_str(&format!("{scale:?}"));
    json.push_str("\",\n  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ir_instructions\": {}, \"moves\": {}, \
             \"plain_ns_per_inst\": {:.3}, \"journal_ns_per_inst\": {:.3}, \
             \"overhead_pct\": {:.3}}}{}\n",
            r.name,
            r.insts,
            r.moves,
            r.plain_ns_per_inst,
            r.journal_ns_per_inst,
            r.overhead_pct,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"geomean_overhead_pct\": {geomean_pct:.3},\n  \
         \"target_pct\": {TARGET_PCT},\n  \"within_target\": {within}\n}}\n"
    ));
    std::fs::write(&out_path, json).expect("write json");
    println!("wrote {out_path}");
}
