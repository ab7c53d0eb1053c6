//! Differential tests for the threaded-code engine tier.
//!
//! Unlike fusion (`tests/fused_differential.rs`), the threaded tier is
//! *not* accounting-neutral: proof-elided guards vanish from the decoded
//! stream, so the threaded engine legitimately retires fewer
//! instructions and fewer guards than the fused engine. What must stay
//! byte-identical is the program's *semantics* — return value, printed
//! output, loads, stores, calls, allocation behavior — and the removed
//! guards must be fully accounted: for complete runs without swap
//! injection,
//!
//! ```text
//! fused.guards_executed ==
//!     threaded.guards_executed + threaded.guards_elided - threaded.guards_hoisted
//! ```
//!
//! (each hoisted preheader check is one extra `guards_executed` on the
//! threaded side that the fused stream never ran, so it is subtracted
//! back out). Swap injection is excluded from the invariant tests only
//! because a poison page-in retry re-runs the *same* guard and bumps
//! `guards_executed` at data-dependent points in both engines.

use carat_suite::core::{CaratCompiler, CompileOptions, OptPreset};
use carat_suite::frontend::compile_cm;
use carat_suite::ir::Module;
use carat_suite::vm::{
    Engine, Mode, MoveDriverConfig, RunResult, SwapDriverConfig, ThreadedOpts, Vm, VmConfig,
};
use carat_suite::workloads::{all_workloads, Scale};
use proptest::prelude::*;

/// Run `module` under `cfg` with the given engine.
fn run_engine(module: Module, cfg: &VmConfig, engine: Engine) -> RunResult {
    let cfg = VmConfig {
        engine,
        ..cfg.clone()
    };
    Vm::new(module, cfg).expect("load").run().expect("run")
}

/// Assert that the threaded engine preserves every semantic observable of
/// the fused run, and return `(threaded, fused)` for further checks.
fn assert_semantics(module: &Module, cfg: &VmConfig, what: &str) -> (RunResult, RunResult) {
    let thr = run_engine(module.clone(), cfg, Engine::Threaded);
    let fus = run_engine(module.clone(), cfg, Engine::Fused);
    assert_eq!(thr.ret, fus.ret, "{what}: return value");
    assert_eq!(thr.output, fus.output, "{what}: output");
    assert_eq!(thr.counters.loads, fus.counters.loads, "{what}: loads");
    assert_eq!(thr.counters.stores, fus.counters.stores, "{what}: stores");
    assert_eq!(thr.counters.calls, fus.counters.calls, "{what}: calls");
    assert_eq!(thr.page_allocs, fus.page_allocs, "{what}: page allocs");
    assert_eq!(
        thr.peak_heap_bytes, fus.peak_heap_bytes,
        "{what}: peak heap"
    );
    assert!(
        thr.counters.instructions <= fus.counters.instructions,
        "{what}: threaded never retires more instructions than fused \
         ({} > {})",
        thr.counters.instructions,
        fus.counters.instructions,
    );
    (thr, fus)
}

/// The guard-accounting invariant for complete, swap-free runs.
fn assert_guard_accounting(thr: &RunResult, fus: &RunResult, what: &str) {
    assert_eq!(
        fus.counters.guards_executed,
        thr.counters.guards_executed + thr.counters.guards_elided - thr.counters.guards_hoisted,
        "{what}: every elided guard accounted (fused {} vs threaded {} + {} elided - {} hoisted)",
        fus.counters.guards_executed,
        thr.counters.guards_executed,
        thr.counters.guards_elided,
        thr.counters.guards_hoisted,
    );
}

fn compile(module: Module, options: CompileOptions) -> Module {
    CaratCompiler::new(options)
        .compile(module)
        .expect("carat compile")
        .module
}

/// Guards + tracking with only block-local (generic) guard optimization:
/// the substrate where loop guards survive to decode time and the
/// threaded tier's whole-trip proofs take over the loop-aware role the
/// `CaratSpecific` IR preset plays at compile time.
fn carat_general() -> CompileOptions {
    CompileOptions {
        preset: OptPreset::General,
        ..CompileOptions::default()
    }
}

/// Workloads with affine hot loops whose guards the prover must elide
/// under the [`carat_general`] build. (`freqmine` and `xalancbmk` are
/// deliberately absent: their hot paths are recursive pointer chasing,
/// which no affine whole-trip proof can cover.)
const LOOP_HEAVY: &[&str] = &[
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

/// Every workload, traditional paging mode (uninstrumented baseline
/// build): no guards exist, so the threaded decode is the fused decode
/// — semantics identical, nothing elided.
#[test]
fn all_workloads_agree_in_traditional_mode() {
    for w in all_workloads() {
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::baseline());
        let cfg = VmConfig {
            mode: Mode::Traditional,
            ..VmConfig::default()
        };
        let (thr, fus) = assert_semantics(&m, &cfg, &format!("{} (traditional)", w.name));
        assert_guard_accounting(&thr, &fus, &format!("{} (traditional)", w.name));
        assert_eq!(
            thr.counters.guards_elided, 0,
            "{}: no guards to elide",
            w.name
        );
    }
}

/// Every workload under the fully optimized build (`CaratSpecific` IR
/// passes already hoisted the easy guards): semantics identical and the
/// accounting closed over whatever residue the decode-time prover finds.
#[test]
fn all_workloads_agree_in_carat_mode() {
    for w in all_workloads() {
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::default());
        let cfg = VmConfig::default();
        let (thr, fus) = assert_semantics(&m, &cfg, &format!("{} (carat)", w.name));
        assert_guard_accounting(&thr, &fus, &format!("{} (carat)", w.name));
    }
}

/// Every workload under the generic-optimization build, where loop guards
/// survive to decode time: semantics identical, accounting closed, and
/// the proof engine elides on every loop-heavy workload.
#[test]
fn all_workloads_agree_with_decode_time_elision() {
    for w in all_workloads() {
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, carat_general());
        let cfg = VmConfig::default();
        let (thr, fus) = assert_semantics(&m, &cfg, &format!("{} (general)", w.name));
        assert_guard_accounting(&thr, &fus, &format!("{} (general)", w.name));
        if LOOP_HEAVY.contains(&w.name) {
            assert!(
                thr.counters.guards_elided > 0,
                "{}: loop-heavy workload must have proof-elided guards",
                w.name
            );
            assert!(
                thr.counters.guards_hoisted > 0,
                "{}: elision implies at least one hoisted preheader check",
                w.name
            );
        }
    }
}

/// The ablation matrix (none / elide / elide+hoist) preserves both the
/// semantics and the accounting invariant in every mode, and each mode's
/// counters have the expected shape.
#[test]
fn ablation_modes_preserve_invariant() {
    for name in ["hpccg", "mcf", "ft"] {
        let w = carat_suite::workloads::by_name(name).expect("workload");
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, carat_general());
        for (mode, opts) in [
            (
                "none",
                ThreadedOpts {
                    elide: false,
                    hoist: false,
                },
            ),
            (
                "elide",
                ThreadedOpts {
                    elide: true,
                    hoist: false,
                },
            ),
            (
                "elide+hoist",
                ThreadedOpts {
                    elide: true,
                    hoist: true,
                },
            ),
        ] {
            let cfg = VmConfig {
                threaded: opts,
                ..VmConfig::default()
            };
            let what = format!("{name} ({mode})");
            let (thr, fus) = assert_semantics(&m, &cfg, &what);
            assert_guard_accounting(&thr, &fus, &what);
            match mode {
                "none" => {
                    assert_eq!(thr.counters.guards_elided, 0, "{what}");
                    assert_eq!(thr.counters.guards_hoisted, 0, "{what}");
                }
                "elide" => {
                    assert!(thr.counters.guards_elided > 0, "{what}");
                    assert_eq!(thr.counters.guards_hoisted, 0, "{what}");
                }
                _ => {
                    assert!(thr.counters.guards_elided > 0, "{what}");
                    assert!(thr.counters.guards_hoisted > 0, "{what}");
                }
            }
        }
    }
}

/// Page moves under a *saturating* driver (period short enough that both
/// engines exhaust `max_moves` long before the run ends): the engines
/// stop the world at different cycle counts, but the number of move
/// episodes — and the final program state — must agree.
#[test]
fn saturated_moves_agree_across_engines() {
    for name in ["mcf", "canneal", "freqmine"] {
        let w = carat_suite::workloads::by_name(name).expect("workload");
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::default());
        let cfg = VmConfig {
            move_driver: Some(MoveDriverConfig {
                period_cycles: 10_000,
                max_moves: 8,
            }),
            ..VmConfig::default()
        };
        let (thr, fus) = assert_semantics(&m, &cfg, &format!("{name} (moves)"));
        assert_eq!(
            thr.counters.moves, 8,
            "{name}: threaded saturates the driver"
        );
        assert_eq!(fus.counters.moves, 8, "{name}: fused saturates the driver");
    }
}

/// Swap injection with elided guards: paged-out data is poisoned, and an
/// access whose guard was proven away must still fault the data back in
/// through the hardware poison path (the paper's safety net for
/// guard-optimized accesses). Counters legitimately diverge; results
/// must not.
#[test]
fn swapped_data_survives_guard_elision() {
    for name in ["mcf", "dedup"] {
        let w = carat_suite::workloads::by_name(name).expect("workload");
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, carat_general());
        let cfg = VmConfig {
            swap_driver: Some(SwapDriverConfig {
                period_cycles: 60_000,
                max_swaps: 10,
            }),
            ..VmConfig::default()
        };
        let thr = run_engine(m.clone(), &cfg, Engine::Threaded);
        let fus = run_engine(m.clone(), &cfg, Engine::Fused);
        assert_eq!(thr.ret, fus.ret, "{name}: return value");
        assert_eq!(thr.output, fus.output, "{name}: output");
        assert!(
            thr.counters.guards_elided > 0,
            "{name}: guards were elided during the swap run"
        );
        assert!(
            thr.counters.swap_ins > 0,
            "{name}: poisoned data was faulted back in"
        );
    }
}

/// Multi-threaded guest with parked threads and a saturating move driver:
/// the scheduler rotates on retired instructions, so interleavings differ
/// between engines — but the joined result, the memory traffic, and the
/// saturated move count must agree.
#[test]
fn guest_threads_agree_across_engines() {
    let src = "
        int* shared;
        int work(int lo) {
            for (int i = lo; i < lo + 300; i += 1) { shared[i] = i * 7; }
            return lo;
        }
        int main() {
            shared = (int*) malloc(1200 * sizeof(int));
            int t0 = spawn(work, 0);
            int t1 = spawn(work, 300);
            int t2 = spawn(work, 600);
            int done = join(t0) + join(t1) + join(t2);
            for (int i = 900; i < 1200; i += 1) { shared[i] = i * 7; }
            int s = done * 0;
            for (int i = 0; i < 1200; i += 1) { s += shared[i]; }
            free(shared);
            return s % 1000000;
        }
    ";
    let module = compile_cm("stops", src).expect("frontend");
    let m = compile(module, CompileOptions::default());
    let cfg = VmConfig {
        move_driver: Some(MoveDriverConfig {
            period_cycles: 10_000,
            max_moves: 8,
        }),
        ..VmConfig::default()
    };
    let (thr, fus) = assert_semantics(&m, &cfg, "guest threads");
    assert_eq!(thr.counters.moves, 8, "threaded saturates the driver");
    assert_eq!(fus.counters.moves, 8, "fused saturates the driver");
}

/// Deterministically generate a loop-heavy random Cm program: counted
/// affine loops the prover can elide, loops with invariant cell accesses,
/// strided loops, and loops whose pointer escapes into a global (which
/// must defeat elision-unsafe reasoning, not crash it).
fn gen_loop_program(seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let n = 32 + (next() % 96); // array length
    let mut body = String::new();
    body.push_str(&format!("    int n = {n};\n"));
    body.push_str("    int* a = (int*) malloc(n * sizeof(int));\n");
    body.push_str("    int* b = (int*) malloc(n * sizeof(int));\n");
    body.push_str("    esc = b;\n"); // b escapes to a global
    body.push_str("    int s = 0;\n");
    let stmts = 3 + next() % 5;
    for k in 0..stmts {
        let c = 1 + (next() % 9) as i64;
        let d = (next() % 64) as i64;
        let stride = 1 + (next() % 3) as i64;
        match next() % 6 {
            0 => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += 1) {{ a[i{k}] = i{k} * {c} + {d}; }}\n"
            )),
            1 => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += {stride}) {{ s += a[i{k}]; }}\n"
            )),
            2 => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += 1) {{ s += a[0] + {c}; }}\n"
            )),
            3 => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += 1) {{ esc[i{k}] = s + i{k}; }}\n"
            )),
            4 => body.push_str(&format!(
                "    for (int i{k} = {d}; i{k} < n; i{k} += 1) {{ if (a[i{k}] > {d}) {{ s += {c}; }} }}\n"
            )),
            _ => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += 1) {{ b[i{k}] = a[i{k}] * {c}; }}\n"
            )),
        }
    }
    body.push_str("    for (int j = 0; j < n; j += 1) { s += b[j]; }\n");
    body.push_str("    free(a);\n    free(b);\n    return s % 1000000;\n");
    format!("int* esc;\nint main() {{\n{body}}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random loop-heavy programs: the threaded engine agrees with fused
    /// and reference on semantics, and the guard accounting closes, in
    /// both the instrumented CARAT build and the traditional baseline.
    #[test]
    fn random_loop_programs_agree(seed in 0u64..1_000_000) {
        let src = gen_loop_program(seed);
        let module = compile_cm("prop", &src).expect("generated program compiles");
        for (opts, mode) in [
            (CompileOptions::default(), Mode::Carat),
            (CompileOptions::baseline(), Mode::Traditional),
        ] {
            let m = compile(module.clone(), opts);
            let cfg = VmConfig { mode, ..VmConfig::default() };
            let thr = run_engine(m.clone(), &cfg, Engine::Threaded);
            let fus = run_engine(m.clone(), &cfg, Engine::Fused);
            let refr = run_engine(m, &cfg, Engine::Reference);
            prop_assert_eq!(thr.ret, fus.ret, "seed {} ({:?}) ret", seed, mode);
            prop_assert_eq!(thr.ret, refr.ret, "seed {} ({:?}) ref ret", seed, mode);
            prop_assert_eq!(&thr.output, &fus.output, "seed {} ({:?}) output", seed, mode);
            prop_assert_eq!(thr.counters.loads, fus.counters.loads, "seed {} ({:?}) loads", seed, mode);
            prop_assert_eq!(thr.counters.stores, fus.counters.stores, "seed {} ({:?}) stores", seed, mode);
            prop_assert_eq!(thr.counters.calls, fus.counters.calls, "seed {} ({:?}) calls", seed, mode);
            prop_assert_eq!(
                fus.counters.guards_executed,
                thr.counters.guards_executed + thr.counters.guards_elided
                    - thr.counters.guards_hoisted,
                "seed {} ({:?}) guard accounting", seed, mode
            );
        }
    }
}
