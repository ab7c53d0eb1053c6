//! Host-side interpreter throughput: wall-clock ns per retired IR
//! instruction and MIPS for the threaded and superinstruction (fused)
//! engines, with the pre-decoded engine and the retained reference
//! interpreter as the comparison points, across the whole workload suite.
//!
//! Unlike every other experiment (which reports *simulated* cycles), this
//! one measures the *host* cost of simulation itself — the number the
//! decoded-engine refactor, the fusion pass, and the threaded tier exist
//! to improve.
//!
//! Two sections:
//!
//! 1. **Uninstrumented** (`Variant::Baseline`): all four engines on bare
//!    workloads, isolating the interpreter loop itself. The threaded tier
//!    has no guards to elide here, so its decode *is* the fused decode:
//!    the threaded column is the fused column measured again, and their
//!    ratio is this bench's noise floor.
//! 2. **Guard elision** (`Variant::GuardsNaive`): fused vs threaded on
//!    guard-instrumented builds with no compile-time guard optimization —
//!    the substrate where every per-iteration loop guard survives to
//!    decode time, so the threaded tier's proof-driven elision, hoisting,
//!    and fast-tier strength reduction carry the full optimization burden.
//!    Both engines run the *same program*, so
//!    MIPS is work-normalized: ns divided by the fused engine's retired
//!    instruction count for both columns.
//!
//! Usage: `interp_throughput [--scale test|small|full] [--only a,b]
//! [--engine reference|decoded|fused|threaded] [--out PATH]`.
//! `--engine X` times only engine X, after verifying its counters against
//! the reference interpreter (a divergence panics — this is the CI smoke
//! mode). The default times all four engines with interleaved reps and reports the
//! speedup columns. Results are also written as JSON (default
//! `BENCH_interp.json`).

use std::process::ExitCode;
use std::time::Instant;

use carat_bench::{
    compile, fixed, geomean, obj, print_table, Args, Json, Report, Variant, LOOP_HEAVY,
};
use carat_ir::Module;
use carat_vm::{Engine, PerfCounters, RunResult, Vm, VmConfig};

/// Wall-clock one run; returns (elapsed ns, full run result).
fn time_run(module: Module, engine: Engine) -> (f64, RunResult) {
    let cfg = VmConfig {
        engine,
        ..VmConfig::default()
    };
    let vm = Vm::new(module, cfg).expect("load");
    let start = Instant::now();
    let r = vm.run().expect("run");
    let ns = start.elapsed().as_nanos() as f64;
    (ns, r)
}

/// Best-of-N for all four engines, reps interleaved so a noisy stretch
/// of host time degrades every measurement instead of biasing one.
/// Asserts that every engine retires the same instructions with the same
/// simulated counters — on an uninstrumented build the threaded tier has
/// nothing to elide, so even it must match the reference exactly.
fn best_of_quad(name: &str, module: &Module, reps: usize) -> Row {
    let mut best = [f64::INFINITY; 4];
    let mut base: Option<PerfCounters> = None;
    let mut fused_fraction = 0.0;
    for _ in 0..reps {
        for (best, engine) in best.iter_mut().zip(Engine::ALL) {
            let (ns, r) = time_run(module.clone(), engine);
            *best = best.min(ns);
            let base = base.get_or_insert_with(|| r.counters.clone());
            assert_eq!(
                *base, r.counters,
                "{engine:?} engine diverged from reference"
            );
            if engine == Engine::Fused {
                let fused = r.fusion.fused_instructions() as f64;
                fused_fraction = fused / base.instructions.max(1) as f64;
            }
        }
    }
    let insts = base.map_or(0, |b| b.instructions);
    Row {
        name: name.to_string(),
        insts,
        ns_per_inst: best.map(|ns| ns / insts.max(1) as f64),
        fused_fraction,
    }
}

/// Time a single engine, best-of-N, after one counter-verification run
/// against the reference interpreter. Panics on divergence.
fn best_of_single(module: &Module, reps: usize, engine: Engine) -> (f64, u64) {
    if engine != Engine::Reference {
        let (_, base) = time_run(module.clone(), Engine::Reference);
        let (_, r) = time_run(module.clone(), engine);
        assert_eq!(
            base.counters, r.counters,
            "{engine:?} engine diverged from reference"
        );
    }
    let mut best = f64::INFINITY;
    let mut insts = 0;
    for _ in 0..reps {
        let (ns, r) = time_run(module.clone(), engine);
        best = best.min(ns);
        insts = r.counters.instructions;
    }
    (best, insts)
}

struct Row {
    name: String,
    insts: u64,
    /// Per engine, in `Engine::ALL` order.
    ns_per_inst: [f64; 4],
    fused_fraction: f64,
}

impl Row {
    fn mips(ns_per_inst: f64) -> f64 {
        1e3 / ns_per_inst
    }
}

/// One workload of the guard-elision section: fused vs threaded on a
/// `GuardsNaive` build. The fused engine's retired instruction count is
/// the common denominator for both MIPS columns.
struct GuardRow {
    name: String,
    loop_heavy: bool,
    fused_ns: f64,
    threaded_ns: f64,
    /// The last rep's counters of each engine.
    fused: PerfCounters,
    threaded: PerfCounters,
}

/// Fused vs threaded on a guard-instrumented module: interleaved
/// best-of-N timing plus a full semantic + guard-accounting check.
///
/// The accounting invariant (checked every rep): every guard the fused
/// stream executes is either executed by the threaded stream too, or
/// counted as elided; hoisted preheader checks are the only additions.
/// `fused.guards == threaded.guards + elided − hoisted`.
fn best_of_guard_pair(module: &Module, reps: usize, name: &str) -> GuardRow {
    let mut best_fus = f64::INFINITY;
    let mut best_thr = f64::INFINITY;
    let mut fus_last: Option<RunResult> = None;
    let mut thr_last: Option<RunResult> = None;
    for _ in 0..reps {
        let (ns, f) = time_run(module.clone(), Engine::Fused);
        best_fus = best_fus.min(ns);
        let (ns, t) = time_run(module.clone(), Engine::Threaded);
        best_thr = best_thr.min(ns);
        assert_eq!(f.ret, t.ret, "{name}: return value diverged");
        assert_eq!(f.output, t.output, "{name}: output diverged");
        assert_eq!(f.counters.loads, t.counters.loads, "{name}: loads");
        assert_eq!(f.counters.stores, t.counters.stores, "{name}: stores");
        assert_eq!(f.counters.calls, t.counters.calls, "{name}: calls");
        assert_eq!(
            f.counters.guards_executed,
            t.counters.guards_executed + t.counters.guards_elided - t.counters.guards_hoisted,
            "{name}: guard accounting broken"
        );
        fus_last = Some(f);
        thr_last = Some(t);
    }
    GuardRow {
        name: name.to_string(),
        loop_heavy: LOOP_HEAVY.contains(&name),
        fused_ns: best_fus,
        threaded_ns: best_thr,
        fused: fus_last.expect("reps >= 1").counters,
        threaded: thr_last.expect("reps >= 1").counters,
    }
}

fn main() -> ExitCode {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let (scale, selected, out_path) = (args.scale, args.workloads, args.out);
    let reps = 7;

    if let Some(engine) = args.engine {
        // A/B and CI smoke mode: one engine, counters verified against
        // the reference interpreter, no JSON artifact. The threaded
        // engine additionally runs the guard-elision check on a
        // GuardsNaive build (its raison d'être — an uninstrumented
        // smoke alone would never execute the elision paths).
        println!("Interpreter throughput ({scale:?} scale, {engine:?} only, best of {reps})\n");
        let mut table = Vec::new();
        for w in &selected {
            let m = compile(w, scale, Variant::Baseline);
            let (ns, insts) = best_of_single(&m, reps, engine);
            let per = ns / insts.max(1) as f64;
            table.push(vec![
                w.name.to_string(),
                format!("{insts}"),
                format!("{per:.1}"),
                format!("{:.1}", Row::mips(per)),
            ]);
        }
        print_table(&["workload", "IR insts", "ns/inst", "MIPS"], &table);
        println!("\ncounters verified against reference: OK");
        if engine == Engine::Threaded {
            let mut elided_total = 0u64;
            for w in &selected {
                let m = compile(w, scale, Variant::GuardsNaive);
                let g = best_of_guard_pair(&m, 1, w.name);
                elided_total += g.threaded.guards_elided;
            }
            println!(
                "guard accounting verified on GuardsNaive builds: OK \
                 ({elided_total} guards elided)"
            );
        }
        return ExitCode::SUCCESS;
    }

    println!("Interpreter throughput ({scale:?} scale, best of {reps})\n");
    let mut rows: Vec<Row> = Vec::new();
    for w in &selected {
        let m = compile(w, scale, Variant::Baseline);
        rows.push(best_of_quad(w.name, &m, reps));
    }

    let mut table = Vec::new();
    let mut dec_vs_ref = Vec::new();
    let mut fus_vs_ref = Vec::new();
    let mut fus_vs_dec = Vec::new();
    let mut thr_vs_fus_bare = Vec::new();
    let mut at_least_3x = 0usize;
    for r in &rows {
        let [rf, dec, fus, thr] = r.ns_per_inst;
        let (dvr, fvr, fvd, tvf) = (rf / dec, rf / fus, dec / fus, fus / thr);
        if fvr >= 3.0 {
            at_least_3x += 1;
        }
        dec_vs_ref.push(dvr);
        fus_vs_ref.push(fvr);
        fus_vs_dec.push(fvd);
        thr_vs_fus_bare.push(tvf);
        table.push(vec![
            r.name.clone(),
            format!("{}", r.insts),
            format!("{rf:.1}"),
            format!("{dec:.1}"),
            format!("{fus:.1}"),
            format!("{thr:.1}"),
            format!("{:.0}%", r.fused_fraction * 100.0),
            format!("{fvr:.2}x"),
            format!("{tvf:.2}x"),
        ]);
    }
    print_table(
        &[
            "workload", "IR insts", "ref ns/i", "dec ns/i", "fus ns/i", "thr ns/i", "fused",
            "fus/ref", "thr/fus",
        ],
        &table,
    );
    println!(
        "\nGeomean fused speedup {:.2}x vs reference ({:.2}x vs decoded, decoded alone {:.2}x); >=3x on {}/{} workloads",
        geomean(&fus_vs_ref),
        geomean(&fus_vs_dec),
        geomean(&dec_vs_ref),
        at_least_3x,
        rows.len()
    );
    println!(
        "Geomean threaded speedup {:.2}x vs fused on uninstrumented builds (the same decode: noise floor)",
        geomean(&thr_vs_fus_bare),
    );

    // Guard-elision section: the threaded tier's actual target. Under
    // the generic guard preset the per-iteration loop guards survive to
    // decode time, and the proof-driven elision + hoisting removes them.
    println!("\nGuard elision (GuardsNaive builds, fused vs threaded, best of {reps})\n");
    let mut grows: Vec<GuardRow> = Vec::new();
    for w in &selected {
        let m = compile(w, scale, Variant::GuardsNaive);
        grows.push(best_of_guard_pair(&m, reps, w.name));
    }
    let mut gtable = Vec::new();
    let mut thr_vs_fus_all = Vec::new();
    let mut thr_vs_fus_loop = Vec::new();
    for g in &grows {
        let (f, t) = (&g.fused, &g.threaded);
        let per = |ns: f64| ns / f.instructions.max(1) as f64;
        let speedup = g.fused_ns / g.threaded_ns;
        thr_vs_fus_all.push(speedup);
        if g.loop_heavy {
            thr_vs_fus_loop.push(speedup);
        }
        let elided_pct = 100.0 * t.guards_elided as f64 / f.guards_executed.max(1) as f64;
        gtable.push(vec![
            g.name.clone(),
            if g.loop_heavy { "*".into() } else { "".into() },
            format!("{}", f.guards_executed),
            format!("{}", t.guards_elided),
            format!("{}", t.guards_hoisted),
            format!("{elided_pct:.0}%"),
            format!("{:.1}", per(g.fused_ns)),
            format!("{:.1}", per(g.threaded_ns)),
            format!("{speedup:.2}x"),
        ]);
    }
    print_table(
        &[
            "workload", "loop", "guards", "elided", "hoisted", "% gone", "fus ns/i", "thr ns/i",
            "speedup",
        ],
        &gtable,
    );
    println!(
        "\nGeomean threaded speedup vs fused: {:.2}x overall, {:.2}x on the {} loop-heavy workloads",
        geomean(&thr_vs_fus_all),
        geomean(&thr_vs_fus_loop),
        thr_vs_fus_loop.len(),
    );

    // Legacy field names (decoded vs reference) are preserved so older
    // tooling keeps parsing; fused and threaded columns are additive.
    let workloads: Vec<Json> = rows
        .iter()
        .map(|r| {
            let [rf, dec, fus, thr] = r.ns_per_inst;
            obj! {
                "name": r.name.as_str(), "ir_instructions": r.insts,
                "reference_ns_per_inst": fixed(rf, 3), "reference_mips": fixed(Row::mips(rf), 3),
                "decoded_ns_per_inst": fixed(dec, 3), "decoded_mips": fixed(Row::mips(dec), 3),
                "fused_ns_per_inst": fixed(fus, 3), "fused_mips": fixed(Row::mips(fus), 3),
                "threaded_ns_per_inst": fixed(thr, 3), "threaded_mips": fixed(Row::mips(thr), 3),
                "fused_fraction": fixed(r.fused_fraction, 4), "speedup": fixed(rf / dec, 3),
                "fused_speedup_vs_reference": fixed(rf / fus, 3),
                "fused_speedup_vs_decoded": fixed(dec / fus, 3),
                "threaded_speedup_vs_fused": fixed(fus / thr, 3),
            }
        })
        .collect();
    // The dedup outlier investigation: profiling showed the old
    // per-instruction scheduler rotation scan — not a hashing hot spot —
    // cost dedup ~33% of its host time (16.8 ns/inst, 1.77x). The
    // instruction-quantum scheduler (a fixed 64-instruction quantum) fixed it;
    // the "after" is dedup's row above.
    let dedup_after = rows
        .iter()
        .find(|r| r.name == "dedup")
        .map(|r| r.ns_per_inst[2]);
    // Guard-elision section: MIPS here is work-normalized (ns over the
    // fused engine's retired instruction count for both engines).
    let guard_elision: Vec<Json> = grows
        .iter()
        .map(|g| {
            let (f, t) = (&g.fused, &g.threaded);
            let per = |ns: f64| ns / f.instructions.max(1) as f64;
            let (fus, thr) = (per(g.fused_ns), per(g.threaded_ns));
            obj! {
                "name": g.name.as_str(), "loop_heavy": g.loop_heavy,
                "work_instructions": f.instructions, "guards_executed_fused": f.guards_executed,
                "guards_executed_threaded": t.guards_executed,
                "guards_elided": t.guards_elided, "guards_hoisted": t.guards_hoisted,
                "fused_ns_per_inst": fixed(fus, 3), "fused_mips": fixed(Row::mips(fus), 3),
                "threaded_ns_per_inst": fixed(thr, 3), "threaded_mips": fixed(Row::mips(thr), 3),
                "threaded_speedup_vs_fused": fixed(g.fused_ns / g.threaded_ns, 3),
            }
        })
        .collect();
    let mut report = Report::default();
    report.extend(obj! {
        "scale": format!("{scale:?}"), "workloads": workloads,
        "dedup_outlier_fix": obj! {
            "before_ns_per_inst": fixed(16.8, 1), "before_speedup": fixed(1.77, 2),
            "after_ns_per_inst": dedup_after.map_or(Json::Scalar("null".into()), |ns| fixed(ns, 3)),
            "cause": "per-instruction scheduler rotation scan",
            "fix": "instruction-quantum round-robin (sched_quantum)",
        },
        "guard_elision": guard_elision,
        "geomean_speedup": fixed(geomean(&dec_vs_ref), 3),
        "fused_geomean_vs_reference": fixed(geomean(&fus_vs_ref), 3),
        "fused_geomean_vs_decoded": fixed(geomean(&fus_vs_dec), 3),
        "workloads_at_3x": at_least_3x,
        "threaded_geomean_vs_fused_uninstrumented": fixed(geomean(&thr_vs_fus_bare), 3),
        "threaded_geomean_vs_fused_guards": fixed(geomean(&thr_vs_fus_all), 3),
        "threaded_geomean_vs_fused_guards_loop_heavy": fixed(geomean(&thr_vs_fus_loop), 3),
    });
    report.finish(&out_path)
}
