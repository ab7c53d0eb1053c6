//! Supplementary experiment: guard cost as the kernel fragments the
//! address space with protection changes (paper §2.3: "the more regions in
//! the application's address space, the higher the cost of this protection
//! at run-time" — motivating run-time adaptation to minimize regions).
//!
//! Runs one guard-heavy workload repeatedly while splitting the capsule
//! into progressively more read-write regions before execution.

use carat_bench::{instrument, print_table, Args, Variant};
use carat_runtime::{GuardImpl, Perms};
use carat_vm::{Vm, VmConfig};
use carat_workloads::{by_name, Scale};

fn main() {
    // No flags: anything on the command line is an error.
    Args::parse(env!("CARGO_BIN_NAME"));
    println!("Guard cost vs region fragmentation (mcf, Test scale)\n");
    let w = by_name("mcf").expect("workload");
    let module = w.module(Scale::Test).expect("compiles");
    let compiled = instrument(module, Variant::GuardsCarat);

    let mut rows = Vec::new();
    let mut base_cycles = 0u64;
    for &splits in &[0u64, 4, 16, 64, 256] {
        let mut vm = Vm::new(
            compiled.clone(),
            VmConfig {
                guard_impl: GuardImpl::IfTree,
                ..VmConfig::default()
            },
        )
        .expect("loads");
        // Fragment the capsule: protection "changes" that keep RW perms
        // but split the region table, page by page.
        let heap = vm.image().heap;
        let page = 4096;
        for k in 0..splits {
            let start = heap.0 + k * 2 * page;
            vm.kernel.change_protection(start, page, Perms::RW);
        }
        let regions = vm.kernel.space.regions.len();
        let r = vm.run().expect("runs");
        if splits == 0 {
            base_cycles = r.counters.cycles;
        }
        rows.push(vec![
            splits.to_string(),
            regions.to_string(),
            r.counters.guards_executed.to_string(),
            format!(
                "{:.2}",
                r.counters.guard_cycles as f64 / r.counters.guards_executed.max(1) as f64
            ),
            format!("{:.3}", r.counters.cycles as f64 / base_cycles as f64),
        ]);
    }
    print_table(
        &[
            "splits",
            "regions",
            "guards exec",
            "cycles/guard",
            "relative runtime",
        ],
        &rows,
    );
    println!("\nGuard cost grows with the region count (log probes), which is");
    println!("why the kernel should keep the region set minimal (paper §2.3).");
}
