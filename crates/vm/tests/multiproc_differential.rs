//! Multi-process differential suite: a time-sliced [`MultiVm`] must be
//! observationally identical, per process, to sequential execution —
//! every [`PerfCounters`] field, across every engine and both worlds.
//! Kernel-side scheduling costs (context switches, TLB flushes,
//! compaction) live in [`ProcAccounting`] and must never leak into a
//! process's own counters.
//!
//! Also the isolation and fault-soak halves of the process model:
//! a cross-tenant access is a typed `ProtectionFault` (never a panic),
//! and an injected mid-move fault during a cross-process shared-region
//! move rolls every owner back and is retryable.

use carat_core::{CaratCompiler, CompileOptions};
use carat_ir::{CastKind, GlobalInit, Module, ModuleBuilder, Pred, Type};
use carat_kernel::{FaultPlan, FaultPoint, KernelError, Pid, SimKernel};
use carat_runtime::{AllocationTable, CostModel, WorldStopError};
use carat_vm::{
    Engine, Mode, MultiVm, MultiVmConfig, ProcOutcome, ProcReport, ProcSpec, Vm, VmConfig, VmError,
};

/// sum of i for i in 0..n over a heap array: alloc, fill, sum, free.
fn array_sum_module(n: i64) -> Module {
    let mut mb = ModuleBuilder::new("array_sum");
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        let h1 = b.block("fill.h");
        let b1 = b.block("fill.b");
        let h2 = b.block("sum.h");
        let b2 = b.block("sum.b");
        let x = b.block("exit");
        b.switch_to(e);
        let nn = b.const_i64(n);
        let bytes = b.const_i64(n * 8);
        let a = b.malloc(bytes);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.jmp(h1);
        b.switch_to(h1);
        let i = b.phi(Type::I64, vec![(e, zero)]);
        let c = b.icmp(Pred::Slt, i, nn);
        b.br(c, b1, h2);
        b.switch_to(b1);
        let ai = b.ptr_add(a, i, Type::I64);
        b.store(Type::I64, ai, i);
        let i2 = b.add(i, one);
        b.phi_add_incoming(i, b1, i2);
        b.jmp(h1);
        b.switch_to(h2);
        let j = b.phi(Type::I64, vec![(h1, zero)]);
        let s = b.phi(Type::I64, vec![(h1, zero)]);
        let c2 = b.icmp(Pred::Slt, j, nn);
        b.br(c2, b2, x);
        b.switch_to(b2);
        let aj = b.ptr_add(a, j, Type::I64);
        let v = b.load(Type::I64, aj);
        let s2 = b.add(s, v);
        let j2 = b.add(j, one);
        b.phi_add_incoming(j, b2, j2);
        b.phi_add_incoming(s, b2, s2);
        b.jmp(h2);
        b.switch_to(x);
        b.free(a);
        b.ret(Some(s));
    }
    mb.finish()
}

/// Register-only loop: sum of i for i in 0..k, no memory traffic.
fn compute_module(k: i64) -> Module {
    let mut mb = ModuleBuilder::new("compute");
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        let h = b.block("loop.h");
        let l = b.block("loop.b");
        let x = b.block("exit");
        b.switch_to(e);
        let kk = b.const_i64(k);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.jmp(h);
        b.switch_to(h);
        let i = b.phi(Type::I64, vec![(e, zero)]);
        let s = b.phi(Type::I64, vec![(e, zero)]);
        let c = b.icmp(Pred::Slt, i, kk);
        b.br(c, l, x);
        b.switch_to(l);
        let s2 = b.add(s, i);
        let i2 = b.add(i, one);
        b.phi_add_incoming(i, l, i2);
        b.phi_add_incoming(s, l, s2);
        b.jmp(h);
        b.switch_to(x);
        b.ret(Some(s));
    }
    mb.finish()
}

/// Stores a heap pointer into a global cell (one escape), reads it back
/// through the cell, writes 7 through it, returns the loaded 7.
fn escape_module() -> Module {
    let mut mb = ModuleBuilder::new("escape");
    let cell = mb.global("cell", Type::Ptr, GlobalInit::Zero);
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        b.switch_to(e);
        let size = b.const_i64(64);
        let p = b.malloc(size);
        let ga = b.global_addr(cell);
        b.store(Type::Ptr, ga, p);
        let p2 = b.load(Type::Ptr, ga);
        let seven = b.const_i64(7);
        b.store(Type::I64, p2, seven);
        let v = b.load(Type::I64, p2);
        b.ret(Some(v));
    }
    mb.finish()
}

/// Two page-sized heap blocks, each published into its own global cell
/// (two escapes on two distinct pages — enough for the pressure planner
/// to coalesce a two-move batch). Loops storing/loading through both
/// cells so relocations are exercised mid-run; returns sum 2i over
/// i in 0..n = n*(n-1).
fn two_page_escape_module(n: i64) -> Module {
    let mut mb = ModuleBuilder::new("two_page_escape");
    let cell_a = mb.global("cell_a", Type::Ptr, GlobalInit::Zero);
    let cell_b = mb.global("cell_b", Type::Ptr, GlobalInit::Zero);
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        let h = b.block("loop.h");
        let l = b.block("loop.b");
        let x = b.block("exit");
        b.switch_to(e);
        let nn = b.const_i64(n);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let size = b.const_i64(4096);
        let pa = b.malloc(size);
        let pb = b.malloc(size);
        let ga = b.global_addr(cell_a);
        let gb = b.global_addr(cell_b);
        b.store(Type::Ptr, ga, pa);
        b.store(Type::Ptr, gb, pb);
        b.jmp(h);
        b.switch_to(h);
        let i = b.phi(Type::I64, vec![(e, zero)]);
        let s = b.phi(Type::I64, vec![(e, zero)]);
        let c = b.icmp(Pred::Slt, i, nn);
        b.br(c, l, x);
        b.switch_to(l);
        let qa = b.load(Type::Ptr, ga);
        b.store(Type::I64, qa, i);
        let qb = b.load(Type::Ptr, gb);
        b.store(Type::I64, qb, i);
        let va = b.load(Type::I64, qa);
        let vb = b.load(Type::I64, qb);
        let s2 = b.add(s, va);
        let s3 = b.add(s2, vb);
        let i2 = b.add(i, one);
        b.phi_add_incoming(i, l, i2);
        b.phi_add_incoming(s, l, s3);
        b.jmp(h);
        b.switch_to(x);
        b.ret(Some(s));
    }
    mb.finish()
}

/// Sums the first four u64s of the shared block published in global 0.
fn shared_reader_module() -> Module {
    let mut mb = ModuleBuilder::new("shared_reader");
    let cell = mb.global("shm", Type::Ptr, GlobalInit::Zero);
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        b.switch_to(e);
        let ga = b.global_addr(cell);
        let p = b.load(Type::Ptr, ga);
        let mut sum = b.const_i64(0);
        for i in 0..4i64 {
            let idx = b.const_i64(i);
            let pi = b.ptr_add(p, idx, Type::I64);
            let v = b.load(Type::I64, pi);
            sum = b.add(sum, v);
        }
        b.ret(Some(sum));
    }
    mb.finish()
}

fn instrument(m: Module) -> Module {
    CaratCompiler::new(CompileOptions::default())
        .compile(m)
        .expect("instruments")
        .module
}

/// The four-tenant mix: two array sweeps, a register-only loop, and an
/// escape-carrying program. Instrumented for CARAT, raw for traditional.
fn tenant_specs(engine: Engine, mode: Mode) -> Vec<ProcSpec> {
    let modules = vec![
        ("sweep-large", array_sum_module(240)),
        ("compute", compute_module(500)),
        ("escape", escape_module()),
        ("sweep-small", array_sum_module(90)),
    ];
    modules
        .into_iter()
        .map(|(name, m)| ProcSpec {
            name: name.to_string(),
            module: if mode == Mode::Carat {
                instrument(m)
            } else {
                m
            },
            cfg: VmConfig {
                engine,
                mode,
                ..VmConfig::default()
            },
        })
        .collect()
}

const EXPECTED: [i64; 4] = [28680, 124750, 7, 4005];

fn run_mix(engine: Engine, mode: Mode, quantum: u64) -> Vec<ProcReport> {
    let mv = MultiVm::new(
        tenant_specs(engine, mode),
        MultiVmConfig {
            quantum,
            ..MultiVmConfig::default()
        },
    )
    .expect("loads");
    mv.run()
}

#[test]
fn sliced_equals_sequential_for_every_engine_and_mode() {
    for engine in [Engine::Fused, Engine::Decoded, Engine::Reference] {
        for mode in [Mode::Carat, Mode::Traditional] {
            // Prime quantum: slice boundaries land mid-block, mid-loop,
            // mid-fused-pair. The sequential arm is the same kernel with
            // an unbounded quantum (identical load addresses).
            let sliced = run_mix(engine, mode, 97);
            let seq = run_mix(engine, mode, u64::MAX);
            assert_eq!(sliced.len(), 4);
            let switches =
                |rs: &[ProcReport]| rs.iter().map(|r| r.accounting.ctx_switches).sum::<u64>();
            assert!(
                switches(&sliced) > switches(&seq),
                "{engine:?}/{mode:?}: slicing switches more often overall"
            );
            for (s, q) in sliced.iter().zip(&seq) {
                let (ProcOutcome::Finished(rs), ProcOutcome::Finished(rq)) =
                    (&s.outcome, &q.outcome)
                else {
                    panic!("{engine:?}/{mode:?} {}: both arms finish", s.name);
                };
                assert_eq!(
                    rs.ret, rq.ret,
                    "{engine:?}/{mode:?} {}: results agree",
                    s.name
                );
                assert_eq!(
                    rs.counters, rq.counters,
                    "{engine:?}/{mode:?} {}: per-process counters must be \
                     identical under time slicing",
                    s.name
                );
                assert!(
                    s.accounting.ctx_switches >= q.accounting.ctx_switches,
                    "{engine:?}/{mode:?} {}: slicing never switches less",
                    s.name
                );
            }
            for (r, want) in sliced.iter().zip(EXPECTED) {
                let ProcOutcome::Finished(rr) = &r.outcome else {
                    unreachable!()
                };
                assert_eq!(rr.ret, want, "{}: correct result", r.name);
            }
        }
    }
}

#[test]
fn pid0_under_scheduler_matches_a_solo_vm() {
    for mode in [Mode::Carat, Mode::Traditional] {
        let m = array_sum_module(240);
        let m = if mode == Mode::Carat {
            instrument(m)
        } else {
            m
        };
        let cfg = VmConfig {
            mode,
            ..VmConfig::default()
        };
        let solo = Vm::new(m, cfg).unwrap().run().unwrap();
        let reports = run_mix(Engine::Fused, mode, 97);
        let ProcOutcome::Finished(multi) = &reports[0].outcome else {
            panic!("pid0 finishes");
        };
        // Same 512 MiB kernel, same first buddy allocation, so pid0 sees
        // the same addresses a dedicated machine would — and therefore
        // byte-identical counters.
        assert_eq!(multi.ret, solo.ret, "{mode:?}");
        assert_eq!(multi.counters, solo.counters, "{mode:?}");
    }
}

/// A fleet's cost model is its kernel's: tuned before admission, it must
/// reach the tenant from its very first cycle — the TLB geometry built at
/// admission and the `call` charged for pushing `main`'s frame included —
/// so pid 0 still equals a solo VM on a kernel tuned the same way.
#[test]
fn fleet_cost_model_reaches_a_tenant_from_admission() {
    let tune = |cost: &mut CostModel| {
        cost.call += 1000;
        // 4 entries, fewer than the 8 pages the sum sweep re-walks.
        cost.dtlb_entries = 4;
    };
    for mode in [Mode::Carat, Mode::Traditional] {
        let m = array_sum_module(4096);
        let m = if mode == Mode::Carat {
            instrument(m)
        } else {
            m
        };
        let cfg = VmConfig {
            mode,
            ..VmConfig::default()
        };
        let mut kernel = SimKernel::new(MultiVmConfig::default().kernel_mem);
        tune(&mut kernel.cost);
        let mut table = AllocationTable::new();
        let image = kernel
            .load_unsigned(m.clone(), &mut table, cfg.load)
            .unwrap();
        let solo = Vm::from_parts(kernel, table, image, cfg.clone())
            .run()
            .unwrap();
        let untuned = Vm::new(m.clone(), cfg.clone()).unwrap().run().unwrap();
        assert_ne!(
            (untuned.counters.cycles, untuned.dtlb_misses),
            (solo.counters.cycles, solo.dtlb_misses),
            "{mode:?}: the tuning is visible in this program's counters"
        );

        let mut mv = MultiVm::new(
            vec![],
            MultiVmConfig {
                quantum: 97,
                ..MultiVmConfig::default()
            },
        )
        .unwrap();
        tune(&mut mv.kernel.cost);
        mv.spawn(ProcSpec {
            name: "sweep".into(),
            module: m,
            cfg,
        })
        .unwrap();
        let reports = mv.run();
        let ProcOutcome::Finished(multi) = &reports[0].outcome else {
            panic!("{mode:?}: pid0 finishes, got {:?}", reports[0].outcome);
        };
        assert_eq!(multi.ret, solo.ret, "{mode:?}");
        assert_eq!(multi.counters, solo.counters, "{mode:?}");
        assert_eq!(multi.dtlb_misses, solo.dtlb_misses, "{mode:?}");
    }
}

#[test]
fn carat_context_switches_undercut_traditional_in_kernel_accounting() {
    let carat = run_mix(Engine::Fused, Mode::Carat, 97);
    let trad = run_mix(Engine::Fused, Mode::Traditional, 97);
    let cost = carat_runtime::CostModel::default();
    for (c, t) in carat.iter().zip(&trad) {
        assert!(c.accounting.ctx_switches >= 1, "{}: switched in", c.name);
        assert_eq!(
            c.accounting.ctx_switch_cycles,
            c.accounting.ctx_switches * cost.ctx_switch_carat(),
            "{}: CARAT pays fixed + region swap, nothing else",
            c.name
        );
        assert_eq!(
            t.accounting.ctx_switch_cycles,
            t.accounting.ctx_switches * cost.ctx_switch_traditional(),
            "{}: traditional pays the modeled flush + ASID refill",
            t.name
        );
        assert_eq!(c.accounting.tlb_flushes, 0, "no TLB exists to flush");
        assert_eq!(t.accounting.tlb_flushes, t.accounting.ctx_switches);
        assert!(
            cost.ctx_switch_carat() < cost.ctx_switch_traditional(),
            "per-switch CARAT cost is strictly below traditional"
        );
    }
}

/// Compact loader sizing so five tenants fit one arena (a default 32 MiB
/// heap makes every capsule round up to a 64 MiB buddy block).
fn small_load() -> carat_kernel::LoadConfig {
    carat_kernel::LoadConfig {
        stack_size: 256 * 1024,
        heap_size: 4 * 1024 * 1024,
        page_size: 4096,
    }
}

#[test]
fn cross_tenant_access_is_a_typed_protection_fault_not_a_panic() {
    let offender_module = |foreign: u64| {
        // Offender: forges a pointer into tenant 0's memory and loads.
        let mut mb = ModuleBuilder::new("offender");
        let f = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let bad = b.const_i64(foreign as i64);
            let p = b.cast(CastKind::IntToPtr, bad, Type::Ptr);
            let v = b.load(Type::I64, p);
            b.ret(Some(v));
        }
        instrument(mb.finish())
    };
    let five_specs = |engine: Engine, foreign: u64| {
        let mut specs = tenant_specs(engine, Mode::Carat);
        specs.push(ProcSpec {
            name: "offender".to_string(),
            module: offender_module(foreign),
            cfg: VmConfig {
                engine,
                mode: Mode::Carat,
                ..VmConfig::default()
            },
        });
        for s in &mut specs {
            s.cfg.load = small_load();
        }
        specs
    };
    for engine in [Engine::Fused, Engine::Decoded, Engine::Reference] {
        // Learn where pid0's capsule lands: loads are deterministic, and
        // pid0 loads first, so a probe admission with a placeholder
        // offender sees the same addresses the real run will.
        let probe =
            MultiVm::new(five_specs(engine, 0x10), MultiVmConfig::default()).expect("probe loads");
        let foreign = {
            let r = probe
                .kernel
                .procs
                .get(Pid(0))
                .unwrap()
                .image
                .capsule_region();
            r.start + r.len / 2
        };
        let reports = MultiVm::new(five_specs(engine, foreign), MultiVmConfig::default())
            .expect("loads")
            .run();
        let off = &reports[4];
        let ProcOutcome::Fault(fault) = &off.outcome else {
            panic!(
                "{engine:?}: offender dies of a typed fault, got {:?}",
                off.outcome
            );
        };
        assert_eq!(fault.pid, Pid(4));
        assert_eq!(fault.addr, foreign);
        assert!(!fault.write);
        assert_eq!(off.accounting.protection_faults, 1);
        // The victim and every bystander run to completion, unperturbed.
        for (r, want) in reports.iter().take(4).zip(EXPECTED) {
            let ProcOutcome::Finished(rr) = &r.outcome else {
                panic!("{engine:?} {}: bystander survives", r.name);
            };
            assert_eq!(rr.ret, want, "{engine:?} {}", r.name);
        }
    }
}

fn shared_pair(fault_plan: Option<FaultPlan>) -> (MultiVm, carat_kernel::SharedId) {
    let specs = vec![
        ProcSpec {
            name: "reader-a".to_string(),
            module: instrument(shared_reader_module()),
            cfg: VmConfig {
                fault_plan: fault_plan.clone(),
                ..VmConfig::default()
            },
        },
        ProcSpec {
            name: "reader-b".to_string(),
            module: instrument(shared_reader_module()),
            cfg: VmConfig::default(),
        },
    ];
    let mut mv = MultiVm::new(specs, MultiVmConfig::default()).expect("loads");
    let id = mv.shared_create(4096).expect("frames available");
    let base = mv.kernel.procs.shared(id).unwrap().base;
    for (i, v) in [11u64, 22, 33, 44].into_iter().enumerate() {
        mv.kernel.mem.write_uint(base + 8 * i as u64, v, 8);
    }
    mv.shared_map(Pid(0), id, 0).expect("maps into live tenant");
    mv.shared_map(Pid(1), id, 0).expect("maps into live tenant");
    (mv, id)
}

#[test]
fn shared_region_moves_patch_every_owner() {
    let (mut mv, id) = shared_pair(None);
    let before = mv.kernel.procs.shared(id).unwrap().base;
    let after = mv.move_shared(id).expect("clean move");
    assert_ne!(before, after, "the block actually moved");
    assert_eq!(mv.kernel.procs.shared_moves, 1);
    assert!(mv.kernel.procs.shared_move_cycles > 0);
    let reports = mv.run();
    for r in &reports {
        let ProcOutcome::Finished(rr) = &r.outcome else {
            panic!("{}: finishes", r.name);
        };
        assert_eq!(
            rr.ret,
            11 + 22 + 33 + 44,
            "{}: reads through the moved block",
            r.name
        );
    }
}

#[test]
fn interrupted_shared_move_rolls_back_every_owner_and_is_retryable() {
    // Arm one mid-move fault: it fires after the patch phase of the
    // first cross-process move, exercising the multi-owner journal.
    let plan = FaultPlan::new().arm(FaultPoint::MidMove, 1);
    let (mut mv, id) = shared_pair(Some(plan));
    let base = mv.kernel.procs.shared(id).unwrap().base;
    let cell0 = mv.kernel.procs.get(Pid(0)).unwrap().image.globals[0];
    use carat_runtime::MemAccess;
    let held = mv.kernel.mem.read_u64(cell0);
    assert_eq!(held, base, "global cell publishes the shared base");

    let err = mv.move_shared(id).expect_err("armed fault fires");
    let VmError::Kernel(k) = &err else {
        panic!("typed kernel error, got {err:?}");
    };
    assert!(
        matches!(k, KernelError::MoveInterrupted { .. }),
        "mid-move fault surfaces as MoveInterrupted, got {k:?}"
    );
    assert!(k.is_recoverable());
    // Transactional: the block, the published pointer, and the region
    // maps are byte-identical to the pre-move state.
    assert_eq!(mv.kernel.procs.shared(id).unwrap().base, base);
    assert_eq!(mv.kernel.mem.read_u64(cell0), base);
    assert_eq!(mv.kernel.procs.shared_moves, 0);

    // Retry (plan exhausted) succeeds, and both owners read the data
    // through their patched pointers.
    let after = mv.move_shared(id).expect("retry is clean");
    assert_ne!(after, base);
    assert_eq!(mv.kernel.mem.read_u64(cell0), after);
    let reports = mv.run();
    for r in &reports {
        let ProcOutcome::Finished(rr) = &r.outcome else {
            panic!("{}: finishes after the soak", r.name);
        };
        assert_eq!(rr.ret, 11 + 22 + 33 + 44, "{}", r.name);
    }
}

/// A block nobody has mapped yet has no thread to stop: its move is
/// refused, typed, and nothing changes. (Every owner contributes at least
/// its main thread, which stays live even after `main` returns.)
#[test]
fn shared_move_of_an_unmapped_block_is_refused() {
    let (mut mv, _) = shared_pair(None);
    let id = mv.shared_create(4096).expect("frames available");
    let base = mv.kernel.procs.shared(id).unwrap().base;
    let err = mv.move_shared(id).expect_err("no thread to stop");
    assert!(
        matches!(
            err,
            VmError::Kernel(KernelError::WorldStop(WorldStopError::NoThreads))
        ),
        "{err:?}"
    );
    assert_eq!(mv.kernel.procs.shared(id).unwrap().base, base);
    assert_eq!(mv.kernel.procs.shared_moves, 0);
}

/// The pressure pass — with the move planner handing the kernel one
/// victim page per pass, and two coalesced into one world-stop — is
/// invisible to the tenants it relocates. (That a batch of two equals two
/// stand-alone moves bit for bit, for fewer stop cycles, is pinned where
/// no fleet is needed: `batch_of_two_equals_two_stand_alone_moves` in the
/// kernel crate.)
#[test]
fn pressure_compaction_relocates_tenants_transparently() {
    // Four tenants fill the default arena; the escape-heavy one spans two
    // pages in the arm that batches two victims.
    let escapers = [
        (1, ("escape", escape_module(), 7i64)),
        (2, ("two-page", two_page_escape_module(150), 150 * 149)),
    ];
    for (pressure_batch, escaper) in escapers {
        let tenants = [
            ("sweep", array_sum_module(240), 28680i64),
            escaper,
            ("sweep2", array_sum_module(90), 4005),
            ("compute", compute_module(500), 124750),
        ];
        let expected: Vec<i64> = tenants.iter().map(|t| t.2).collect();
        let specs: Vec<ProcSpec> = tenants
            .into_iter()
            .map(|(name, module, _)| ProcSpec {
                name: name.to_string(),
                module: instrument(module),
                cfg: VmConfig::default(),
            })
            .collect();
        let mv = MultiVm::new(
            specs,
            MultiVmConfig {
                quantum: 97,
                pressure_every: 2,
                pressure_batch,
                ..MultiVmConfig::default()
            },
        )
        .expect("loads");
        let reports = mv.run();
        let mut moves = 0u64;
        for (r, want) in reports.iter().zip(expected) {
            let ProcOutcome::Finished(rr) = &r.outcome else {
                panic!("{}: survives compaction, got {:?}", r.name, r.outcome);
            };
            assert_eq!(rr.ret, want, "{}: compaction is transparent", r.name);
            moves += r.accounting.pressure_moves;
        }
        assert!(
            moves > 0,
            "batch {pressure_batch}: the pressure pass actually moved pages"
        );
    }
}

/// The shared-block reader under attack in
/// `edits_while_parked_never_meet_a_stale_guard_cache`. Global 0 is the
/// published shared pointer. The program stashes the shared base as a
/// plain integer (not a pointer store, so no escape is tracked and no move
/// patches it), loops `n` times through a heap block published in two
/// cells — two escapes, so the pressure pass picks it over the shared
/// block's one — and through the shared block, then spins `delay` times
/// on registers alone: no access, no guard, so the guard fast path keeps
/// the shared region it hit last for as many slices as the spin spans.
/// With `stale_store` it finally stores through the stashed address — the
/// first guarded access since the spin began. Returns
/// `n(n-1)/2 + n * shared[0] + delay`.
fn parked_victim_module(n: i64, delay: i64, stale_store: bool) -> Module {
    let mut mb = ModuleBuilder::new("parked_victim");
    let shm = mb.global("shm", Type::Ptr, GlobalInit::Zero);
    let cell = mb.global("cell", Type::Ptr, GlobalInit::Zero);
    let cell2 = mb.global("cell2", Type::Ptr, GlobalInit::Zero);
    let stash = mb.global("stash", Type::I64, GlobalInit::Zero);
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        let h = b.block("loop.h");
        let l = b.block("loop.b");
        let sh = b.block("spin.h");
        let sl = b.block("spin.b");
        let x = b.block("exit");
        b.switch_to(e);
        let nn = b.const_i64(n);
        let dd = b.const_i64(delay);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let size = b.const_i64(4096);
        let p = b.malloc(size);
        let gc = b.global_addr(cell);
        b.store(Type::Ptr, gc, p);
        let gc2 = b.global_addr(cell2);
        b.store(Type::Ptr, gc2, p);
        let gs = b.global_addr(shm);
        let s0 = b.load(Type::Ptr, gs);
        let s0i = b.cast(CastKind::PtrToInt, s0, Type::I64);
        let gst = b.global_addr(stash);
        b.store(Type::I64, gst, s0i);
        b.jmp(h);
        b.switch_to(h);
        let i = b.phi(Type::I64, vec![(e, zero)]);
        let acc = b.phi(Type::I64, vec![(e, zero)]);
        let c = b.icmp(Pred::Slt, i, nn);
        b.br(c, l, sh);
        b.switch_to(l);
        let q = b.load(Type::Ptr, gc);
        b.store(Type::I64, q, i);
        let v = b.load(Type::I64, q);
        let sp = b.load(Type::Ptr, gs);
        let w = b.load(Type::I64, sp);
        let acc2 = b.add(acc, v);
        let acc3 = b.add(acc2, w);
        let i2 = b.add(i, one);
        b.phi_add_incoming(i, l, i2);
        b.phi_add_incoming(acc, l, acc3);
        b.jmp(h);
        b.switch_to(sh);
        let j = b.phi(Type::I64, vec![(h, zero)]);
        let spun = b.phi(Type::I64, vec![(h, acc)]);
        let c2 = b.icmp(Pred::Slt, j, dd);
        b.br(c2, sl, x);
        b.switch_to(sl);
        let spun2 = b.add(spun, one);
        let j2 = b.add(j, one);
        b.phi_add_incoming(j, sl, j2);
        b.phi_add_incoming(spun, sl, spun2);
        b.jmp(sh);
        b.switch_to(x);
        if stale_store {
            let old = b.load(Type::I64, gst);
            let oldp = b.cast(CastKind::IntToPtr, old, Type::Ptr);
            b.store(Type::I64, oldp, one);
        }
        b.ret(Some(spun));
    }
    mb.finish()
}

/// The generation rule under attack. Two tenants run their memory loop and
/// enter a register-only spin, each with a guard fast path that holds the
/// shared block's region; then, with both descheduled, the pressure pass
/// moves (and pages out) the first one's hottest page and `move_shared`
/// retargets the block both have mapped — the second tenant's regions are
/// edited *inside its parked entry*. Neither table is rebuilt when its
/// tenant is next installed, so only the per-table generation stands
/// between the warm fast path and the range that was just revoked.
#[test]
fn edits_while_parked_never_meet_a_stale_guard_cache() {
    const N: i64 = 20;
    const DELAY: i64 = 120;
    const QUANTUM: u64 = 301;
    // Each tenant needs four slices: the memory loop ends in its second,
    // the pressure pass fires once (after slice 4, mid-spin for both), and
    // both finish before it would fire again.
    let fleet = |stale_store: bool| {
        let specs = ["victim-a", "victim-b"]
            .map(|name| ProcSpec {
                name: name.to_string(),
                module: instrument(parked_victim_module(N, DELAY, stale_store)),
                cfg: VmConfig::default(),
            })
            .into_iter()
            .collect();
        let cfg = MultiVmConfig {
            quantum: QUANTUM,
            pressure_every: 4,
            ..MultiVmConfig::default()
        };
        let mut mv = MultiVm::new(specs, cfg).expect("loads");
        let id = mv.shared_create(4096).expect("frames available");
        let base = mv.kernel.procs.shared(id).unwrap().base;
        mv.kernel.mem.write_uint(base, 11, 8);
        mv.shared_map(Pid(0), id, 0).expect("maps into live tenant");
        mv.shared_map(Pid(1), id, 0).expect("maps into live tenant");
        // Warm: a, b, a, b — then the pass, with nobody running.
        assert_eq!(mv.run_batch(4), 4);
        for pid in [Pid(0), Pid(1)] {
            let c = mv.counters(pid).expect("resident");
            assert_eq!(c.instructions, 2 * QUANTUM, "{pid} is mid-run");
            assert_eq!(c.loads, 1 + 4 * N as u64, "{pid} is past its memory loop");
        }
        let acct = mv.kernel.procs.get(Pid(0)).unwrap().accounting;
        assert!(
            acct.pressure_moves > 0 && acct.pressure_page_outs > 0,
            "the pass relocated the descheduled victim: {acct:?}"
        );
        let moved_to = mv.move_shared(id).expect("clean move");
        assert_ne!(moved_to, base);
        (mv, base)
    };
    let finished = |reports: &[ProcReport]| -> Vec<(i64, carat_vm::PerfCounters)> {
        reports
            .iter()
            .map(|r| match &r.outcome {
                ProcOutcome::Finished(rr) => (rr.ret, rr.counters.clone()),
                other => panic!("{}: finishes, got {other:?}", r.name),
            })
            .collect()
    };

    // Sliced arm: both keep alternating, parked (cache warm) between
    // every pair of slices.
    let (sliced, _) = fleet(false);
    let sliced = finished(&sliced.run());
    for (ret, _) in &sliced {
        assert_eq!(
            *ret,
            N * (N - 1) / 2 + N * 11 + DELAY,
            "data survived both moves"
        );
    }
    // Sequential arm: same edits at the same point, then each tenant runs
    // what is left of it back to back, never parked again.
    for (pid, want) in [Pid(0), Pid(1)].into_iter().zip(&sliced) {
        let (mut seq, _) = fleet(false);
        let other = Pid(1 - pid.0);
        assert!(seq.kill(other));
        let reports = seq.run();
        assert_eq!(&finished(&reports)[0], want, "{pid}: sliced == sequential");
    }
    // And the revoked range stays revoked: a store through the address the
    // shared block had before the move is a typed fault in both tenants,
    // whichever region their fast path held when they were parked.
    let (stale, old_base) = fleet(true);
    for r in stale.run() {
        match r.outcome {
            ProcOutcome::Fault(f) => {
                assert_eq!((f.addr, f.write), (old_base, true), "{}", r.name)
            }
            other => panic!("{}: stale store must fault, got {other:?}", r.name),
        }
    }
}
