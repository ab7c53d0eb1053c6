//! Differential tests for the pre-decoded execution engine.
//!
//! The decoded engine is a pure performance refactor: for every workload,
//! in every execution mode, it must produce byte-for-byte the same
//! observable behavior as the retained reference interpreter — the same
//! return value and the same `PerfCounters` (instructions, cycles,
//! guard/tracking/move accounting, and the per-opcode histogram).

use carat_suite::core::{CaratCompiler, CompileOptions};
use carat_suite::frontend::compile_cm;
use carat_suite::ir::Module;
use carat_suite::vm::{Engine, Mode, MoveDriverConfig, RunResult, Vm, VmConfig};
use carat_suite::workloads::{all_workloads, Scale};

/// Run `module` under `cfg` with the given engine.
fn run_engine(module: Module, cfg: &VmConfig, engine: Engine) -> RunResult {
    let cfg = VmConfig {
        engine,
        ..cfg.clone()
    };
    Vm::new(module, cfg).expect("load").run().expect("run")
}

/// Assert that the decoded and reference engines agree on every
/// observable of a run.
fn assert_identical(module: &Module, cfg: &VmConfig, what: &str) {
    let dec = run_engine(module.clone(), cfg, Engine::Decoded);
    let refr = run_engine(module.clone(), cfg, Engine::Reference);
    assert_eq!(dec.ret, refr.ret, "{what}: return value");
    assert_eq!(dec.counters, refr.counters, "{what}: counters");
    assert_eq!(dec.output, refr.output, "{what}: output");
    assert_eq!(dec.track_stats, refr.track_stats, "{what}: tracking stats");
    assert_eq!(dec.page_allocs, refr.page_allocs, "{what}: page allocs");
    assert_eq!(dec.page_moves, refr.page_moves, "{what}: page moves");
    assert_eq!(dec.dtlb_misses, refr.dtlb_misses, "{what}: DTLB misses");
    assert_eq!(dec.pagewalks, refr.pagewalks, "{what}: pagewalks");
}

fn compile(module: Module, options: CompileOptions) -> Module {
    CaratCompiler::new(options)
        .compile(module)
        .expect("carat compile")
        .module
}

/// Every workload, traditional paging mode (uninstrumented baseline
/// build): identical TLB/pagewalk accounting under both engines.
#[test]
fn all_workloads_agree_in_traditional_mode() {
    for w in all_workloads() {
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::baseline());
        let cfg = VmConfig {
            mode: Mode::Traditional,
            ..VmConfig::default()
        };
        assert_identical(&m, &cfg, &format!("{} (traditional)", w.name));
    }
}

/// Every workload, CARAT mode with full instrumentation (guards +
/// tracking + optimizations): identical guard and tracking accounting
/// under both engines.
#[test]
fn all_workloads_agree_in_carat_mode() {
    for w in all_workloads() {
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::default());
        let cfg = VmConfig::default();
        assert_identical(&m, &cfg, &format!("{} (carat)", w.name));
    }
}

/// Page moves exercise the world-stop machinery (register snapshot,
/// escape patching, poison handling); both engines must drive it to the
/// same cycle.
#[test]
fn moves_agree_across_engines() {
    for name in ["mcf", "canneal", "freqmine"] {
        let w = carat_suite::workloads::by_name(name).expect("workload");
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::default());
        let cfg = VmConfig {
            move_driver: Some(MoveDriverConfig {
                period_cycles: 15_000,
                max_moves: 40,
            }),
            ..VmConfig::default()
        };
        let dec = run_engine(m.clone(), &cfg, Engine::Decoded);
        assert!(dec.counters.moves > 0, "{name}: moves actually happened");
        assert_identical(&m, &cfg, &format!("{name} (moves)"));
    }
}

/// Thread world-stops: with three spawned threads live, a
/// forced move dumps and patches every thread's registers and stack
/// pointer (`TenantState::visit_dump`). The decoded engine must reproduce
/// the seed interpreter's patching exactly — same move episodes, same
/// per-phase breakdown (register-patch cycles scale with the snapshot
/// size), same final memory image.
#[test]
fn thread_world_stops_agree_across_engines() {
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
            period_cycles: 20_000,
            max_moves: 60,
        }),
        ..VmConfig::default()
    };
    let dec = run_engine(m.clone(), &cfg, Engine::Decoded);
    let refr = run_engine(m.clone(), &cfg, Engine::Reference);
    assert!(dec.counters.moves > 0, "moves happened during threaded run");
    assert_eq!(dec.ret, refr.ret, "threaded result");
    assert_eq!(
        dec.counters.move_breakdown, refr.counters.move_breakdown,
        "per-phase move costs (register patch reflects the dump size)"
    );
    assert_eq!(dec.counters, refr.counters, "full counters");
}

/// The opcode histogram is recorded by both engines and must agree —
/// including the convention that a run of phis counts as one
/// instruction.
#[test]
fn opcode_mix_agrees_and_sums_to_instructions() {
    let w = carat_suite::workloads::by_name("hpccg").expect("workload");
    let module = w.module(Scale::Test).expect("frontend");
    let m = compile(module, CompileOptions::default());
    let cfg = VmConfig::default();
    let dec = run_engine(m.clone(), &cfg, Engine::Decoded);
    let refr = run_engine(m, &cfg, Engine::Reference);
    assert_eq!(dec.counters.opcode_mix, refr.counters.opcode_mix);
    assert_eq!(
        dec.counters.opcode_mix.total(),
        dec.counters.instructions,
        "histogram covers every retired instruction"
    );
    assert!(!dec.counters.opcode_mix.sorted().is_empty());
}
