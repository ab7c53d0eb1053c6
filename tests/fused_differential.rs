//! Differential tests for the superinstruction (fused) engine.
//!
//! Fusion is a pure host-speed optimization: for every workload, in every
//! execution mode, the fused engine must produce byte-for-byte the same
//! observable behavior as the decoded engine (and, transitively through
//! `tests/decoded_differential.rs`, the reference interpreter) — the same
//! return value and the same `PerfCounters` (instructions, cycles,
//! guard/tracking/move/TLB accounting, and the per-opcode histogram).
//! Fusion changes host nanoseconds, never simulated state.

use carat_suite::core::{CaratCompiler, CompileOptions};
use carat_suite::frontend::compile_cm;
use carat_suite::ir::Module;
use carat_suite::runtime::Perms;
use carat_suite::vm::{
    DecodedProgram, Engine, FusedKind, Mode, MoveDriverConfig, MultiVm, MultiVmConfig, ProcOutcome,
    ProcSpec, RunResult, SchedSource, SwapDriverConfig, ThreadedOpts, Vm, VmConfig, VmError,
    FUSED_KINDS,
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

/// Assert that the fused and decoded engines agree on every observable of
/// a run, and that the fused engine actually reports its fusion stats.
fn assert_identical(module: &Module, cfg: &VmConfig, what: &str) -> RunResult {
    let fus = run_engine(module.clone(), cfg, Engine::Fused);
    let dec = run_engine(module.clone(), cfg, Engine::Decoded);
    assert_eq!(fus.ret, dec.ret, "{what}: return value");
    assert_eq!(fus.counters, dec.counters, "{what}: counters");
    assert_eq!(fus.output, dec.output, "{what}: output");
    assert_eq!(fus.track_stats, dec.track_stats, "{what}: tracking stats");
    assert_eq!(fus.page_allocs, dec.page_allocs, "{what}: page allocs");
    assert_eq!(fus.page_moves, dec.page_moves, "{what}: page moves");
    assert_eq!(fus.dtlb_misses, dec.dtlb_misses, "{what}: DTLB misses");
    assert_eq!(fus.pagewalks, dec.pagewalks, "{what}: pagewalks");
    assert_eq!(
        dec.fusion.fused_pairs(),
        0,
        "{what}: decoded engine never executes superinstructions"
    );
    assert!(
        2 * fus.fusion.fused_pairs() <= fus.counters.instructions,
        "{what}: fused instructions bounded by retired instructions"
    );
    fus
}

fn compile(module: Module, options: CompileOptions) -> Module {
    CaratCompiler::new(options)
        .compile(module)
        .expect("carat compile")
        .module
}

/// Every workload, traditional paging mode (uninstrumented baseline
/// build): identical TLB/pagewalk accounting, with the VPN front cache
/// live on repeated-page accesses.
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

/// Every workload, CARAT mode with full instrumentation: identical guard
/// and tracking accounting, with the guard fast-path cache and the fused
/// guard+access superinstructions live.
#[test]
fn all_workloads_agree_in_carat_mode() {
    let mut fused_anywhere = 0u64;
    for w in all_workloads() {
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::default());
        let cfg = VmConfig::default();
        let fus = assert_identical(&m, &cfg, &format!("{} (carat)", w.name));
        fused_anywhere += fus.fusion.fused_pairs();
    }
    assert!(
        fused_anywhere > 0,
        "fusion fires somewhere across the suite"
    );
}

/// Every superinstruction earns its slot: each kind retires at least 1 %
/// of the suite's instructions in the CARAT build or in the traditional
/// one. A pair below that costs a variant, a decode rule and a dispatch
/// arm for a speedup no measurement can see (EXPERIMENTS.md, "Which
/// superinstructions pay").
#[test]
fn every_fused_kind_retires_a_share_of_the_suite() {
    let mut share = Vec::new();
    for (opts, mode) in [
        (CompileOptions::default(), Mode::Carat),
        (CompileOptions::baseline(), Mode::Traditional),
    ] {
        let mut insts = 0u64;
        let mut executed = [0u64; FUSED_KINDS];
        for w in all_workloads() {
            let m = compile(w.module(Scale::Test).expect("frontend"), opts.clone());
            let cfg = VmConfig {
                mode,
                ..VmConfig::default()
            };
            let r = run_engine(m, &cfg, Engine::Fused);
            insts += r.counters.instructions;
            for (sum, n) in executed.iter_mut().zip(r.fusion.executed) {
                *sum += n;
            }
        }
        // A pair retires two instructions.
        share.push(executed.map(|pairs| 100.0 * (2 * pairs) as f64 / insts as f64));
    }
    for kind in FusedKind::ALL {
        let (carat, trad) = (share[0][kind as usize], share[1][kind as usize]);
        assert!(
            carat >= 1.0 || trad >= 1.0,
            "{}: {carat:.2} % (carat) / {trad:.2} % (traditional) of retired instructions",
            kind.name()
        );
    }
}

/// Page moves exercise the world-stop machinery (register snapshot,
/// escape patching, poison handling); the fused engine must bail out of
/// pairs so the world stops on exactly the same cycle.
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
        let fus = assert_identical(&m, &cfg, &format!("{name} (moves)"));
        assert!(fus.counters.moves > 0, "{name}: moves actually happened");
    }
}

/// Swap injection: page-outs poison addresses; guards fault the data back
/// in mid-pair (a world stop *inside* a fused guard+access component).
/// The fused engine must reproduce the identical page-in episodes.
#[test]
fn swaps_agree_across_engines() {
    for name in ["mcf", "dedup"] {
        let w = carat_suite::workloads::by_name(name).expect("workload");
        let module = w.module(Scale::Test).expect("frontend");
        let m = compile(module, CompileOptions::default());
        let cfg = VmConfig {
            swap_driver: Some(SwapDriverConfig {
                period_cycles: 60_000,
                max_swaps: 10,
            }),
            ..VmConfig::default()
        };
        let fus = assert_identical(&m, &cfg, &format!("{name} (swap)"));
        assert!(
            fus.counters.swap_ins > 0 || fus.counters.swap_outs > 0,
            "{name}: swap actually happened"
        );
    }
}

/// Thread world-stops with `extra_threads > 0`: with parked threads the
/// scheduler rotates after every instruction, so fusion must split every
/// pair at the component boundary — and still agree on all counters.
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
        extra_threads: 2,
        ..VmConfig::default()
    };
    let fus = assert_identical(&m, &cfg, "threaded stops");
    assert!(fus.counters.moves > 0, "moves happened during threaded run");
}

/// The step limit must trip on exactly the same instruction: a fused pair
/// bails between components when the budget runs out, so tightening
/// `max_steps` one instruction at a time never diverges the two engines.
#[test]
fn step_limit_trips_identically() {
    let w = carat_suite::workloads::by_name("hpccg").expect("workload");
    let module = w.module(Scale::Test).expect("frontend");
    let m = compile(module, CompileOptions::default());
    for max_steps in [1, 2, 3, 17, 1_000, 10_001, 250_000] {
        let cfg = VmConfig {
            max_steps,
            ..VmConfig::default()
        };
        let outcome = |engine: Engine| -> Result<(i64, u64), String> {
            let cfg = VmConfig {
                engine,
                ..cfg.clone()
            };
            match Vm::new(m.clone(), cfg).expect("load").run() {
                Ok(r) => Ok((r.ret, r.counters.instructions)),
                Err(e) => Err(format!("{e:?}")),
            }
        };
        let fus = outcome(Engine::Fused);
        let dec = outcome(Engine::Decoded);
        assert_eq!(fus, dec, "max_steps={max_steps}");
        if max_steps < 250_000 {
            assert!(
                matches!(fus, Err(ref e) if e.contains("StepLimit")),
                "tiny budget must trip: {fus:?}"
            );
        }
    }
    let _ = VmError::StepLimit; // silence unused-import lint paths

    // Every boundary of two small programs, in both worlds: with the
    // budget swept over every retired-instruction count, each fused pair
    // they reach is split between its components at least once. Wherever
    // the limit lands, both decoded engines must stop where the
    // reference does, having charged what it charged.
    let mut sites = [0u64; FUSED_KINDS];
    let mut executed = [0u64; FUSED_KINDS];
    for src in [gen_program(28).as_str(), CELLS_SRC] {
        let module = compile_cm("sweep", src).expect("frontend");
        for (opts, mode) in [
            (CompileOptions::default(), Mode::Carat),
            (CompileOptions::baseline(), Mode::Traditional),
        ] {
            let m = compile(module.clone(), opts);
            let stop_at = |engine: Engine, max_steps: u64| {
                let cfg = VmConfig {
                    mode,
                    engine,
                    max_steps,
                    ..VmConfig::default()
                };
                let mut vm = Vm::new(m.clone(), cfg).expect("load");
                vm.start().expect("start");
                let result = vm.run_slice(u64::MAX).map_err(|e| format!("{e:?}"));
                let c = vm.counters();
                (result, c.instructions, c.cycles, c.opcode_mix)
            };
            let total = stop_at(Engine::Reference, u64::MAX).1;
            for max_steps in 1..=total {
                let want = stop_at(Engine::Reference, max_steps);
                for engine in [Engine::Fused, Engine::Decoded] {
                    assert_eq!(
                        stop_at(engine, max_steps),
                        want,
                        "{engine:?} {mode:?} max_steps={max_steps}"
                    );
                }
            }
            let census = DecodedProgram::decode_with(&m, None).fusion;
            let cfg = VmConfig {
                mode,
                ..VmConfig::default()
            };
            let full = run_engine(m, &cfg, Engine::Fused);
            for k in 0..FUSED_KINDS {
                sites[k] += census.sites[k];
                executed[k] += full.fusion.executed[k];
            }
        }
    }
    // The sweep is only as good as the pairs it reaches: every
    // superinstruction must be built and retired by the swept programs, so
    // a component body that mis-charges on the bail path cannot hide.
    for kind in FusedKind::ALL {
        let k = kind as usize;
        assert!(sites[k] > 0, "{}: no static site swept", kind.name());
        assert!(executed[k] > 0, "{}: never executed fused", kind.name());
    }
}

/// Guard + access pairs and lone guards run in the fast dispatch tier, so
/// a scheduler slice can end between a guard and its access. Wherever it
/// ends — every instruction quantum in `1..=64`, a few timer intervals —
/// a guard-dense kernel must retire exactly what it retires unsliced, and
/// the fused engine exactly what the reference interpreter does. The swap
/// driver is on, so some guards meet a poison address and take the slow
/// arm, page-in included.
///
/// The threaded engine is held to the sliced runs agreeing with each
/// other, and with the unsliced run on what the program did: under swap
/// its guard counters also depend on when the fleet flushes escapes (at
/// every slice end), through whether a page-in is raised by a surviving
/// guard or by an access whose guard was elided — at the parent commit
/// too, at any bounded quantum (ROADMAP item 4).
#[test]
fn guard_pairs_split_identically_at_every_slice_boundary() {
    let w = carat_suite::workloads::by_name("mcf").expect("workload");
    let module = w.module(Scale::Test).expect("frontend");
    let m = compile(module, CompileOptions::default());
    let run = |engine: Engine, sched: MultiVmConfig| -> RunResult {
        let spec = ProcSpec {
            name: "mcf".to_string(),
            module: m.clone(),
            cfg: VmConfig {
                engine,
                swap_driver: Some(SwapDriverConfig {
                    period_cycles: 60_000,
                    max_swaps: 10,
                }),
                ..VmConfig::default()
            },
        };
        let mut reports = MultiVm::new(vec![spec], sched).expect("loads").run();
        match reports.remove(0).outcome {
            ProcOutcome::Finished(r) => r,
            other => panic!("{engine:?}: finishes, got {other:?}"),
        }
    };
    let quantum = |quantum: u64| MultiVmConfig {
        quantum,
        ..MultiVmConfig::default()
    };
    let timer = |timer_interval: u64| MultiVmConfig {
        sched: SchedSource::Timer,
        timer_interval,
        ..MultiVmConfig::default()
    };
    let did = |r: &RunResult| {
        let c = &r.counters;
        (r.ret, c.instructions, c.loads, c.stores, c.swap_ins)
    };

    let reference = run(Engine::Reference, quantum(u64::MAX));
    assert!(reference.counters.swap_ins > 0, "data was paged back in");
    for engine in [Engine::Fused, Engine::Threaded] {
        let whole = run(engine, quantum(u64::MAX));
        let want = if engine == Engine::Fused {
            assert_eq!(whole.counters, reference.counters, "fused vs reference");
            let pairs = whole.fusion.executed[FusedKind::GuardLoad as usize]
                + whole.fusion.executed[FusedKind::GuardStore as usize];
            assert!(pairs > 1_000, "guard pairs are the hot path: {pairs}");
            whole.counters.clone()
        } else {
            assert!(
                whole.counters.guards_executed > 1_000,
                "guards run, lone or fused with an access whose length is in a register"
            );
            run(engine, quantum(1)).counters
        };
        for sched in (1..=64).map(quantum).chain([7, 50, 333].map(timer)) {
            let what = format!(
                "{engine:?} {:?} q={} t={}",
                sched.sched, sched.quantum, sched.timer_interval
            );
            let one_per_slice = sched.sched == SchedSource::Quantum && sched.quantum == 1;
            let sliced = run(engine, sched);
            assert_eq!(did(&sliced), did(&whole), "{what}");
            assert_eq!(sliced.counters, want, "{what}");
            // A pair split at the boundary retires unfused and uncounted.
            for k in 0..FUSED_KINDS {
                assert!(
                    sliced.fusion.executed[k] <= whole.fusion.executed[k],
                    "{what}"
                );
            }
            if one_per_slice {
                assert_eq!(sliced.fusion.fused_pairs(), 0, "{what}: every pair split");
            }
        }
    }
}

/// The guard fast path may only trust its cached region while the region
/// table stands: a protection change between two guards must reach the
/// very next one — no write guard passes on the cached hit — in the fast
/// tier's arms as in the reference interpreter.
#[test]
fn region_edit_between_guards_invalidates_the_cached_hit() {
    let src = "
        int main() {
            int* a = (int*) malloc(64 * sizeof(int));
            int s = 0;
            for (int i = 0; i < 4000; i += 1) {
                a[(i * 7) % 64] = i;
                s += a[(i * 3) % 64];
            }
            free(a);
            return s % 1000;
        }
    ";
    let m = compile(
        compile_cm("edit", src).expect("frontend"),
        CompileOptions::default(),
    );
    let faults_after_edit = |engine: Engine| {
        // Every guard survives decode: an elided one would let its store
        // through on the strength of a covering guard from before the edit.
        let cfg = VmConfig {
            engine,
            threaded: ThreadedOpts {
                elide: false,
                hoist: false,
            },
            ..VmConfig::default()
        };
        let mut vm = Vm::new(m.clone(), cfg).expect("load");
        vm.start().expect("start");
        vm.run_slice(5_000).expect("mid-loop");
        let (guards, stores) = (vm.counters().guards_executed, vm.counters().stores);
        assert!(guards > 100, "{engine:?}: the guard cache is warm");
        let (heap, len) = vm.image().heap;
        vm.kernel.change_protection(heap, len, Perms::R);
        let fault = vm.run_slice(u64::MAX).expect_err("the next store faults");
        assert!(
            matches!(fault, VmError::GuardFault { write: true, .. }),
            "{engine:?}: {fault:?}"
        );
        // At most the store whose guard had run when the slice ended.
        let passed = vm.counters().stores - stores;
        assert!(passed <= 1, "{engine:?}: {passed} stores on a stale hit");
        (format!("{fault:?}"), vm.counters().clone())
    };
    let want = faults_after_edit(Engine::Reference);
    assert_eq!(faults_after_edit(Engine::Decoded), want);
    assert_eq!(faults_after_edit(Engine::Fused), want);
    // The threaded stream carries guard lengths as immediates and drops
    // their constants, so its 5,000-instruction slice ends elsewhere in
    // the loop: same verdict, another iteration.
    faults_after_edit(Engine::Threaded);
}

/// The pair [`gen_program`] never forms: a field load through a pointer.
const CELLS_SRC: &str = "
    struct cell { int n; double w; struct cell* next; };
    int main() {
        struct cell* c = (struct cell*) malloc(sizeof(struct cell));
        c->n = 3; c->w = 1.5; c->next = c;
        double acc = c->w * 0.5;
        for (int i = 0; i < 6; i += 1) {
            struct cell* d = c->next;
            acc = acc + d->w * 2.0;
            if (acc > 7.5) { acc = acc - (double) d->n; }
        }
        free(c);
        return (int) acc;
    }
";

/// The opcode histogram must agree — fused arms charge the tail
/// component's opcode themselves, so the histogram still covers every
/// retired instruction.
#[test]
fn opcode_mix_agrees_and_sums_to_instructions() {
    let w = carat_suite::workloads::by_name("hpccg").expect("workload");
    let module = w.module(Scale::Test).expect("frontend");
    let m = compile(module, CompileOptions::default());
    let cfg = VmConfig::default();
    let fus = run_engine(m.clone(), &cfg, Engine::Decoded);
    let dec = run_engine(m, &cfg, Engine::Fused);
    assert_eq!(fus.counters.opcode_mix, dec.counters.opcode_mix);
    assert_eq!(
        dec.counters.opcode_mix.total(),
        dec.counters.instructions,
        "histogram covers every retired instruction"
    );
}

/// Deterministically generate a small random Cm program rich in fusable
/// patterns: array loops (`PtrAdd`+`Load`/`Store`, guard+access once
/// instrumented), compare-and-branch chains (`Icmp`+`Br`), struct field
/// traffic (`FieldAddr`+access), and arithmetic chains (`Bin`+`Bin`).
fn gen_program(seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let n = 24 + (next() % 72); // array length
    let mut body = String::new();
    body.push_str(&format!("    int n = {n};\n"));
    body.push_str("    int* a = (int*) malloc(n * sizeof(int));\n");
    body.push_str("    struct pt p; p.x = 3; p.y = 4;\n");
    body.push_str("    int s = 0;\n");
    let stmts = 3 + next() % 5;
    for k in 0..stmts {
        let c = 1 + (next() % 9) as i64;
        let d = (next() % 100) as i64;
        match next() % 5 {
            0 => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += 1) {{ a[i{k}] = i{k} * {c} + {d}; }}\n"
            )),
            1 => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += 1) {{ s += a[i{k}] * {c}; }}\n"
            )),
            2 => body.push_str(&format!(
                "    for (int i{k} = 0; i{k} < n; i{k} += 1) {{ if (a[i{k}] > {d}) {{ s += {c}; }} else {{ s -= 1; }} }}\n"
            )),
            3 => body.push_str(&format!(
                "    p.x = p.x + {c}; p.y = p.y * {c} + p.x; s += p.y % 1000;\n"
            )),
            _ => body.push_str(&format!("    s = s * {c} + {d}; s = s % 100003;\n")),
        }
    }
    body.push_str("    free(a);\n    return (s + p.x + p.y) % 1000000;\n");
    format!("struct pt {{ int x; int y; }};\nint main() {{\n{body}}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random-program property: fused, decoded, and reference engines
    /// agree on the result and on every counter, under both the fully
    /// instrumented CARAT build and the traditional baseline.
    #[test]
    fn random_programs_agree_across_engines(seed in 0u64..1_000_000) {
        let src = gen_program(seed);
        let module = compile_cm("prop", &src).expect("generated program compiles");
        for (opts, mode) in [
            (CompileOptions::default(), Mode::Carat),
            (CompileOptions::baseline(), Mode::Traditional),
        ] {
            let m = compile(module.clone(), opts);
            let cfg = VmConfig { mode, ..VmConfig::default() };
            let fus = run_engine(m.clone(), &cfg, Engine::Fused);
            let dec = run_engine(m.clone(), &cfg, Engine::Decoded);
            let refr = run_engine(m, &cfg, Engine::Reference);
            prop_assert_eq!(fus.ret, dec.ret, "seed {} ({:?}) ret", seed, mode);
            prop_assert_eq!(&fus.counters, &dec.counters, "seed {} ({:?}) fused vs decoded", seed, mode);
            prop_assert_eq!(&dec.counters, &refr.counters, "seed {} ({:?}) decoded vs reference", seed, mode);
            prop_assert_eq!(fus.dtlb_misses, dec.dtlb_misses, "seed {} ({:?}) dtlb", seed, mode);
            prop_assert_eq!(fus.page_allocs, dec.page_allocs, "seed {} ({:?}) allocs", seed, mode);
        }
    }
}
