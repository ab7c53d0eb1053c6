//! Compiler-pipeline inspection: print the IR of a small function before
//! and after CARAT instrumentation and optimization, to see exactly what
//! guard injection, hoisting, merging and AC/DC do.
//!
//! ```sh
//! cargo run --example compile_inspect
//! ```

use carat_core::{count_guards, CaratCompiler, CompileOptions, OptPreset};
use carat_frontend::compile_cm;
use carat_ir::print_module;
use carat_vm::{DecodedProgram, Engine, FusedKind, ThreadedOpts, Vm, VmConfig};
use carat_workloads::{all_workloads, Scale};

const PROGRAM: &str = r#"
double dot(double* xs, double* ys, int n) {
    double acc = 0.0;
    for (int i = 0; i < n; i += 1) {
        acc += xs[i] * ys[i];
    }
    return acc;
}
int main() {
    double* xs = (double*) malloc(512 * sizeof(double));
    double* ys = (double*) malloc(512 * sizeof(double));
    for (int i = 0; i < 512; i += 1) { xs[i] = 1.0; ys[i] = 2.0; }
    double d = dot(xs, ys, 512);
    free(xs); free(ys);
    return (int) d;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = compile_cm("inspect", PROGRAM)?;
    println!("==== front-end output ====\n");
    println!("{}", print_module(&module));

    let naive =
        CaratCompiler::new(CompileOptions::guards_only(OptPreset::None)).compile(module.clone())?;
    println!(
        "==== guards injected, unoptimized ({} static guards) ====\n",
        count_guards(&naive.module)
    );
    println!("{}", print_module(&naive.module));

    let optimized = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
        .compile(module)?;
    let c = optimized.census;
    println!(
        "==== CARAT-optimized ({} static guards; census: {} hoisted / {} merged / {} eliminated of {}) ====\n",
        count_guards(&optimized.module),
        c.hoisted,
        c.merged,
        c.eliminated,
        c.total
    );
    println!("{}", print_module(&optimized.module));

    // Run it and print the dynamic per-opcode instruction mix the decoded
    // engine's counters record — what the program actually *executes*, as
    // opposed to the static IR printed above.
    let cfg = VmConfig::default();
    let decoded = DecodedProgram::decode_for(&optimized.module, cfg.engine, cfg.threaded);
    let result = Vm::new(optimized.module, cfg)?.run()?;
    println!(
        "==== dynamic opcode mix ({} instructions retired, ret {}) ====\n",
        result.counters.instructions, result.ret
    );
    for (op, n) in result.counters.opcode_mix.sorted() {
        let pct = 100.0 * n as f64 / result.counters.instructions as f64;
        println!("  {:<14} {n:>8}  ({pct:4.1}%)", format!("{op:?}"));
    }

    // Fusion statistics for the same run: what the decode-time peephole
    // pass created (static sites), and how much of the dynamic stream
    // actually retired through fused dispatches.
    println!(
        "\n==== fusion ({} static sites; {} pairs executed, {:.1}% of dynamic instructions fused) ====\n",
        decoded.fusion.total(),
        result.fusion.fused_pairs(),
        100.0 * result.fusion.fused_instructions() as f64 / result.counters.instructions as f64
    );
    for (kind, n) in result.fusion.sorted() {
        println!(
            "  {:<14} {n:>8}  ({} static sites)",
            kind.name(),
            decoded.fusion.sites[kind as usize]
        );
    }

    // And the same two numbers for every workload in the suite, with the
    // top fused pairs that dominate each one.
    println!("\n==== per-workload fusion statistics (Test scale, Carat build) ====\n");
    println!(
        "  {:<14} {:>6} {:>7}  top fused pairs",
        "workload", "sites", "fused%"
    );
    for w in all_workloads() {
        let module = w.module(Scale::Test)?;
        let compiled = CaratCompiler::new(CompileOptions::default()).compile(module)?;
        let cfg = VmConfig {
            engine: Engine::Fused,
            ..VmConfig::default()
        };
        let decoded = DecodedProgram::decode_for(&compiled.module, cfg.engine, cfg.threaded);
        let r = Vm::new(compiled.module, cfg)?.run()?;
        let frac =
            100.0 * r.fusion.fused_instructions() as f64 / r.counters.instructions.max(1) as f64;
        let top: Vec<String> = r
            .fusion
            .sorted()
            .into_iter()
            .take(5)
            .map(|(k, n): (FusedKind, u64)| format!("{} {n}", k.name()))
            .collect();
        println!(
            "  {:<14} {:>6} {:>6.1}%  {}",
            w.name,
            decoded.fusion.total(),
            frac,
            top.join(", ")
        );
    }

    // The threaded tier's decode-time transform on the inspect program:
    // which loop guards the whole-trip prover elides (and why the ones it
    // keeps survive) and where the widened checks land. The substrate is the *unoptimized* guard build —
    // the proofs do all the work at decode time.
    let naive = CaratCompiler::new(CompileOptions::guards_only(OptPreset::None))
        .compile(compile_cm("inspect", PROGRAM)?)?;
    let threaded = DecodedProgram::decode_with(&naive.module, Some(ThreadedOpts::default()));
    let rep = threaded.threaded.as_ref().expect("threaded report");
    println!(
        "\n==== threaded tier (per-loop decisions; {} elided, {} hoisted, {} dup-marked, \
         {} dead consts) ====\n",
        rep.elided_sites, rep.hoisted_sites, rep.dup_guard_sites, rep.dead_consts
    );
    for lp in &rep.loops {
        println!("  {} bb{}:", lp.func, lp.header);
        for d in &lp.decisions {
            println!("    + {d}");
        }
        for r in &lp.rejected {
            println!("    - kept: {r}");
        }
    }
    for s in &rep.skipped_loops {
        println!("  skipped {s}");
    }

    // And the per-workload census of the same transform: how much guard
    // work the proofs remove from each workload's naive guard build.
    println!("\n==== per-workload threaded-tier census (Test scale, naive guard build) ====\n");
    println!(
        "  {:<14} {:>7} {:>7} {:>7}  skipped loops (reason)",
        "workload", "elided", "hoisted", "dup"
    );
    for w in all_workloads() {
        let module = w.module(Scale::Test)?;
        let compiled =
            CaratCompiler::new(CompileOptions::guards_only(OptPreset::None)).compile(module)?;
        let prog = DecodedProgram::decode_with(&compiled.module, Some(ThreadedOpts::default()));
        let rep = prog.threaded.as_ref().expect("threaded report");
        let skipped = if rep.skipped_loops.is_empty() {
            String::new()
        } else {
            rep.skipped_loops.join("; ")
        };
        println!(
            "  {:<14} {:>7} {:>7} {:>7}  {}",
            w.name, rep.elided_sites, rep.hoisted_sites, rep.dup_guard_sites, skipped
        );
    }
    Ok(())
}
