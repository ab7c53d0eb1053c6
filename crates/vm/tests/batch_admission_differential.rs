//! Batch-admission differential suite: `MultiVm::spawn_batch` must be
//! observationally identical, per tenant, to the same number of
//! sequential [`MultiVm::spawn_shared`] calls — every [`PerfCounters`]
//! field (guard tallies included) and the tenant's capsule bytes —
//! across every engine and both worlds. The only permitted divergence
//! is the modeled admission toll: the batch pays one verify + quota
//! pass for the whole batch where the sequential path pays it per
//! tenant.
//!
//! Also the transactional half. A batch the quotas cannot hold is
//! refused at the gate, before anything is built, with the refusal the
//! first failing sequential admission would have returned and for the
//! gate's toll alone; a batch the *arena* cannot hold fails mid-batch
//! and the unwind kills every tenant already stamped. Either way the
//! fleet is left exactly as before the call.

use std::rc::Rc;

use carat_core::{CaratCompiler, CompileOptions};
use carat_ir::{GlobalInit, Module, ModuleBuilder, Pred, Type};
use carat_kernel::{
    AdmissionError, CapsuleLayout, FaultPlan, FaultPoint, LoadConfig, LoadError, Pid, TenantQuotas,
};
use carat_vm::{Engine, Mode, MultiVm, MultiVmConfig, ProcOutcome, ProcSpec, VmConfig, VmError};
use proptest::prelude::*;

const ENGINES: [Engine; 4] = [
    Engine::Fused,
    Engine::Decoded,
    Engine::Reference,
    Engine::Threaded,
];

/// Heap block published into a global cell (one escape), then a loop
/// storing/loading `i` through the cell: memory traffic, guards, and an
/// escaped pointer — everything a capsule carries. Returns sum of i for
/// i in 0..n = n*(n-1)/2.
fn workload_module(n: i64) -> Module {
    let mut mb = ModuleBuilder::new("batch_workload");
    let cell = mb.global("cell", Type::Ptr, GlobalInit::Zero);
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
        let size = b.const_i64(256);
        let p = b.malloc(size);
        let ga = b.global_addr(cell);
        b.store(Type::Ptr, ga, p);
        b.jmp(h);
        b.switch_to(h);
        let i = b.phi(Type::I64, vec![(e, zero)]);
        let s = b.phi(Type::I64, vec![(e, zero)]);
        let c = b.icmp(Pred::Slt, i, nn);
        b.br(c, l, x);
        b.switch_to(l);
        let q = b.load(Type::Ptr, ga);
        b.store(Type::I64, q, i);
        let v = b.load(Type::I64, q);
        let s2 = b.add(s, v);
        let i2 = b.add(i, one);
        b.phi_add_incoming(i, l, i2);
        b.phi_add_incoming(s, l, s2);
        b.jmp(h);
        b.switch_to(x);
        b.ret(Some(s));
    }
    mb.finish()
}

fn template(mode: Mode) -> Rc<Module> {
    let m = workload_module(120);
    Rc::new(if mode == Mode::Carat {
        CaratCompiler::new(CompileOptions::default())
            .compile(m)
            .expect("instruments")
            .module
    } else {
        m
    })
}

fn vm_cfg(engine: Engine, mode: Mode) -> VmConfig {
    VmConfig {
        engine,
        mode,
        // Microservice-sized capsules (the fleet bench's sizing): the
        // workload touches a few hundred heap bytes, and small capsules
        // keep a ten-tenant fleet far from the kernel's frame limit.
        load: LoadConfig {
            stack_size: 8 * 1024,
            heap_size: 16 * 1024,
            page_size: 4096,
        },
        ..VmConfig::default()
    }
}

fn empty_fleet(quantum: u64) -> MultiVm {
    MultiVm::new(
        vec![],
        MultiVmConfig {
            quantum,
            ..MultiVmConfig::default()
        },
    )
    .expect("an empty fleet builds")
}

/// The two admission paths under test, over identical kernels: one
/// `spawn_batch` call vs `n` sequential spawns using the same
/// `{prefix}{i}` names the batch stamps.
fn spawn_both(engine: Engine, mode: Mode, quantum: u64, n: usize) -> (MultiVm, MultiVm, Vec<Pid>) {
    let module = template(mode);
    let cfg = vm_cfg(engine, mode);
    let mut batch = empty_fleet(quantum);
    let batch_pids = batch
        .spawn_batch("t", module.clone(), cfg.clone(), n)
        .expect("batch admits");
    let mut seq = empty_fleet(quantum);
    let seq_pids: Vec<Pid> = (0..n)
        .map(|i| {
            seq.spawn_shared(&format!("t{i}"), module.clone(), cfg.clone())
                .expect("sequential spawn admits")
        })
        .collect();
    assert_eq!(batch_pids, seq_pids, "same slab slots in the same order");
    (batch, seq, batch_pids)
}

#[test]
fn batch_equals_sequential_for_every_engine_and_mode() {
    for engine in ENGINES {
        for mode in [Mode::Carat, Mode::Traditional] {
            let n = 3;
            let (mut batch, mut seq, pids) = spawn_both(engine, mode, 97, n);

            // The modeled admission toll is the ONLY divergence: one
            // verify + quota pass vs one per tenant.
            assert_eq!(
                batch.admission_cycles(),
                batch.kernel.cost.admit_batch_cost(n as u64),
                "{engine:?}/{mode:?}: batch toll"
            );
            assert_eq!(
                seq.admission_cycles(),
                seq.kernel.cost.admit_sequential_cost(n as u64),
                "{engine:?}/{mode:?}: sequential toll"
            );

            // Mid-run at a prime quantum (slice boundaries land
            // mid-loop): counters and capsule bytes are bit-identical
            // per tenant.
            assert_eq!(batch.run_batch(5), seq.run_batch(5));
            for &pid in &pids {
                assert_eq!(
                    batch.counters(pid).expect("resident"),
                    seq.counters(pid).expect("resident"),
                    "{engine:?}/{mode:?} {pid}: mid-run counters"
                );
                assert_eq!(
                    batch.capsule_image(pid).expect("resident"),
                    seq.capsule_image(pid).expect("resident"),
                    "{engine:?}/{mode:?} {pid}: capsule bytes must be \
                     bit-identical across admission paths"
                );
            }

            // And to completion: every report matches field for field.
            let br = batch.run();
            let sr = seq.run();
            assert_eq!(br.len(), n);
            assert_eq!(sr.len(), n);
            for (b, s) in br.iter().zip(&sr) {
                assert_eq!(b.name, s.name);
                let (ProcOutcome::Finished(rb), ProcOutcome::Finished(rs)) =
                    (&b.outcome, &s.outcome)
                else {
                    panic!("{engine:?}/{mode:?} {}: both arms finish", b.name);
                };
                assert_eq!(rb.ret, 120 * 119 / 2, "{}: correct result", b.name);
                assert_eq!(rb.ret, rs.ret);
                assert_eq!(
                    rb.counters, rs.counters,
                    "{engine:?}/{mode:?} {}: final counters",
                    b.name
                );
            }
        }
    }
}

#[test]
fn batch_admission_amortizes_the_verify_pass() {
    let n = 10;
    let (batch, seq, _) = spawn_both(Engine::Fused, Mode::Carat, 4096, n);
    assert!(
        seq.admission_cycles() >= 5 * batch.admission_cycles(),
        "batch admission must be >=5x cheaper in modeled cycles \
         (sequential {} vs batch {})",
        seq.admission_cycles(),
        batch.admission_cycles()
    );
    // The acceptance bar at fleet scale, from the same cost model the
    // fleets charged.
    let cost = &batch.kernel.cost;
    assert!(cost.admit_sequential_cost(10_000) >= 5 * cost.admit_batch_cost(10_000));
}

/// A batch past the tenant quota is refused whole. (Since the gate
/// consults the quota for the whole batch nothing is stamped, so there
/// is nothing to unwind here; `batch_past_the_arena_unwinds_completely`
/// is where the unwind still runs.)
#[test]
fn refused_batch_unwinds_completely() {
    let module = template(Mode::Carat);
    let cfg = vm_cfg(Engine::Fused, Mode::Carat);
    let mut mv = MultiVm::new(
        vec![],
        MultiVmConfig {
            quotas: TenantQuotas {
                max_tenants: 4,
                ..TenantQuotas::default()
            },
            ..MultiVmConfig::default()
        },
    )
    .expect("empty fleet builds");
    let err = mv
        .spawn_batch("t", module.clone(), cfg.clone(), 6)
        .expect_err("a fifth tenant exceeds the tenant quota");
    assert!(
        matches!(
            err,
            VmError::Admission(AdmissionError::TenantLimit { limit: 4 })
        ),
        "typed quota refusal, got {err:?}"
    );
    assert_eq!(mv.len(), 0, "all or nothing");

    // The refusal held no frame and no pid: a full-quota batch then
    // admits and runs cleanly on the same kernel.
    let pids = mv
        .spawn_batch("t", module, cfg, 4)
        .expect("full-quota batch admits after the refusal");
    assert_eq!(pids.len(), 4);
    let reports = mv.run();
    assert_eq!(reports.len(), 4);
    for r in &reports {
        let ProcOutcome::Finished(rr) = &r.outcome else {
            panic!("{}: finishes after the refusal", r.name);
        };
        assert_eq!(rr.ret, 120 * 119 / 2);
    }
}

/// Quotas are arithmetic; frames are not. With unlimited quotas and an
/// arena that holds `k` capsules the gate lets a batch of `k + 3`
/// through, the loader runs out of memory at stamp `k + 1`, and the
/// unwind — which a quota refusal no longer reaches — restores the fleet:
/// no tenant, no resident byte, every frame and every slab slot back.
#[test]
fn batch_past_the_arena_unwinds_completely() {
    let module = template(Mode::Carat);
    let cfg = vm_cfg(Engine::Fused, Mode::Carat);
    let small_fleet = || {
        MultiVm::new(
            vec![],
            MultiVmConfig {
                kernel_mem: (64 + 1024) * 1024,
                ..MultiVmConfig::default()
            },
        )
        .expect("an empty fleet builds")
    };
    // How many capsules the arena holds, found one admission at a time.
    let mut probe = small_fleet();
    let mut k = 0;
    let full = loop {
        match probe.spawn_shared("p", module.clone(), cfg.clone()) {
            Ok(_) => k += 1,
            Err(e) => break e,
        }
    };
    assert!(
        matches!(full, VmError::Load(LoadError::OutOfMemory)),
        "the arena, not a quota, is what fills: {full:?}"
    );
    assert!(k >= 2, "the arena holds a few capsules");

    let mut mv = small_fleet();
    let free_pages = mv.kernel.buddy.pages_free();
    let err = mv
        .spawn_batch("t", module.clone(), cfg.clone(), k + 3)
        .expect_err("the loader runs out of frames mid-batch");
    assert!(
        matches!(err, VmError::Load(LoadError::OutOfMemory)),
        "typed loader refusal, got {err:?}"
    );
    let cost = &mv.kernel.cost;
    assert_eq!(
        mv.admission_cycles(),
        cost.admit_verify + cost.admit_quota + (k as u64 + 1) * cost.admit_stamp,
        "k tenants were stamped and one more attempted before the unwind"
    );
    assert_eq!(mv.len(), 0, "partial stamps are unwound");
    assert_eq!(mv.kernel.procs.len(), 0);
    assert_eq!(mv.kernel.procs.resident_bytes(), 0);
    assert_eq!(mv.kernel.buddy.pages_free(), free_pages);
    assert_eq!(mv.kernel.procs.capacity(), k, "k slab slots were grown");

    let pids = mv
        .spawn_batch("t", module, cfg, k)
        .expect("a batch that fits admits after the unwind");
    assert_eq!(pids.len(), k);
    assert_eq!(
        mv.kernel.procs.capacity(),
        k,
        "onto the k slots the unwind put back on the free list"
    );
    for r in mv.run() {
        let ProcOutcome::Finished(rr) = &r.outcome else {
            panic!("{}: finishes after unwind", r.name);
        };
        assert_eq!(rr.ret, 120 * 119 / 2);
    }
}

/// Run `attempt`, which the tenant quota of 4 must refuse, and check that
/// the refusal cost the gate's toll and nothing else: no stamp charged,
/// the incumbent still installed, the spec's fault plan not landed, no
/// frame moved, no tenant added.
fn assert_refused_at_the_gate(
    mv: &mut MultiVm,
    attempt: impl FnOnce(&mut MultiVm) -> Result<(), VmError>,
) {
    let incumbent = mv.kernel.procs.current();
    assert!(incumbent.is_some(), "a slice leaves its tenant installed");
    let (toll, free_pages, tenants) = (
        mv.admission_cycles(),
        mv.kernel.buddy.pages_free(),
        mv.len(),
    );
    let refusal = attempt(mv);
    assert!(
        matches!(
            refusal,
            Err(VmError::Admission(AdmissionError::TenantLimit { limit: 4 }))
        ),
        "typed quota refusal, got {refusal:?}"
    );
    assert_eq!(
        mv.admission_cycles() - toll,
        mv.kernel.cost.admit_verify + mv.kernel.cost.admit_quota,
        "the gate's toll, no stamp"
    );
    assert_eq!(mv.kernel.procs.current(), incumbent, "incumbent not parked");
    assert!(
        mv.kernel.fault_plan().is_none(),
        "its fault plan never lands"
    );
    assert_eq!(mv.kernel.buddy.pages_free(), free_pages, "no frame moved");
    assert_eq!(mv.len(), tenants);
}

/// A quota refusal through each admission entry point stops at the gate
/// (see [`assert_refused_at_the_gate`]) — and burns no pid and recycles
/// no slab slot, so the next admission gets the pid a fleet that was
/// never refused issues.
#[test]
fn quota_refusal_costs_the_gate_toll_and_nothing_else() {
    let module = template(Mode::Carat);
    let cfg = vm_cfg(Engine::Fused, Mode::Carat);
    let fleet = || {
        let mut mv = MultiVm::new(
            vec![],
            MultiVmConfig {
                quantum: 64,
                quotas: TenantQuotas {
                    max_tenants: 4,
                    ..TenantQuotas::default()
                },
                ..MultiVmConfig::default()
            },
        )
        .expect("an empty fleet builds");
        let pids = mv
            .spawn_batch("t", module.clone(), cfg.clone(), 3)
            .expect("incumbents admit");
        mv.run_batch(1);
        (mv, pids)
    };
    let (mut mv, pids) = fleet();
    let (mut never_refused, _) = fleet();
    let armed = VmConfig {
        fault_plan: Some(FaultPlan::new().arm(FaultPoint::MidMove, 1)),
        ..cfg.clone()
    };

    // Room for one: a batch of three is refused whole, unbuilt.
    assert_refused_at_the_gate(&mut mv, |mv| {
        mv.spawn_batch("r", module.clone(), armed.clone(), 3)
            .map(|_| ())
    });
    // Both fleets fill the last place; single admissions are then
    // refused too.
    let [fourth, never_refused_fourth] = [&mut mv, &mut never_refused].map(|mv| {
        let pid = mv
            .spawn_shared("t3", module.clone(), cfg.clone())
            .expect("the fourth fits");
        mv.run_batch(1);
        pid
    });
    assert_eq!(
        fourth, never_refused_fourth,
        "no slot was stamped and killed"
    );
    assert_refused_at_the_gate(&mut mv, |mv| {
        mv.spawn(ProcSpec {
            name: "r".into(),
            module: (*module).clone(),
            cfg: armed.clone(),
        })
        .map(|_| ())
    });
    assert_refused_at_the_gate(&mut mv, |mv| {
        mv.spawn_shared("r", module.clone(), armed.clone())
            .map(|_| ())
    });

    let [next, never_refused_next] = [&mut mv, &mut never_refused].map(|mv| {
        assert!(mv.kill(pids[1]));
        mv.spawn_shared("n", module.clone(), cfg.clone())
            .expect("admits into the freed place")
    });
    assert_eq!(next, never_refused_next);
}

/// A batch the byte quota cannot hold is refused with the refusal — the
/// variant and its payload — that the first failing one-tenant admission
/// of the same tenants returns.
#[test]
fn batch_refusal_is_the_first_failing_sequential_refusal() {
    let module = template(Mode::Carat);
    let cfg = vm_cfg(Engine::Fused, Mode::Carat);
    let text_len = carat_ir::print_module(&module).len() as u64;
    let capsule = CapsuleLayout::of(&module, text_len, cfg.load).bytes();
    let fleet = || {
        MultiVm::new(
            vec![],
            MultiVmConfig {
                quotas: TenantQuotas {
                    max_resident_bytes: 5 * capsule + capsule / 2,
                    ..TenantQuotas::default()
                },
                ..MultiVmConfig::default()
            },
        )
        .expect("an empty fleet builds")
    };
    let (mut batch, mut seq) = (fleet(), fleet());
    for mv in [&mut batch, &mut seq] {
        mv.spawn_batch("t", module.clone(), cfg.clone(), 3)
            .expect("three of five and a half fit");
    }
    let refused_batch = batch
        .spawn_batch("r", module.clone(), cfg.clone(), 4)
        .expect_err("two fit, the third over-commits");
    let refused_seq = (0..4)
        .find_map(|i| {
            seq.spawn_shared(&format!("r{i}"), module.clone(), cfg.clone())
                .err()
        })
        .expect("the third over-commits");
    let VmError::Admission(refused_seq) = refused_seq else {
        panic!("typed quota refusal, got {refused_seq:?}");
    };
    assert_eq!(
        refused_seq,
        AdmissionError::MemoryOverCommit {
            requested: capsule,
            resident: 5 * capsule,
            limit: 5 * capsule + capsule / 2,
        }
    );
    assert!(
        matches!(refused_batch, VmError::Admission(e) if e == refused_seq),
        "the batch meets the same refusal, got {refused_batch:?}"
    );
    assert_eq!(batch.len(), 3, "and admitted none of the four");
}

/// Every admission entry point verifies the module in the once-per-pass
/// gate, before the per-tenant stamp: an ill-formed module is refused
/// typed with no toll charged, no fault plan installed, and the
/// incumbent process left installed.
#[test]
fn ill_formed_module_is_refused_before_any_side_effect() {
    let cfg = vm_cfg(Engine::Fused, Mode::Carat);
    let mut mv = empty_fleet(64);
    mv.spawn_batch("t", template(Mode::Carat), cfg.clone(), 2)
        .expect("incumbents admit");
    mv.run_batch(1);
    let incumbent = mv.kernel.procs.current();
    assert!(incumbent.is_some(), "a slice leaves its tenant installed");
    let (toll, tenants) = (mv.admission_cycles(), mv.len());

    let mut mb = ModuleBuilder::new("ill_formed");
    mb.global("short", Type::I64, GlobalInit::Bytes(vec![0; 3]));
    let bad = Rc::new(mb.finish());
    let armed = VmConfig {
        fault_plan: Some(FaultPlan::new().arm(FaultPoint::MidMove, 1)),
        ..cfg
    };
    let refusals = [
        mv.spawn(ProcSpec {
            name: "bad".into(),
            module: (*bad).clone(),
            cfg: armed.clone(),
        }),
        mv.spawn_shared("bad", bad.clone(), armed.clone()),
        mv.spawn_batch("bad", bad, armed, 3).map(|pids| pids[0]),
    ];
    for refusal in refusals {
        assert!(
            matches!(refusal, Err(VmError::Load(LoadError::Verify(_)))),
            "typed verifier refusal, got {refusal:?}"
        );
    }
    assert_eq!(mv.admission_cycles(), toll, "no toll for a refused module");
    assert_eq!(mv.len(), tenants);
    assert!(
        mv.kernel.fault_plan().is_none(),
        "its fault plan never lands"
    );
    assert_eq!(mv.kernel.procs.current(), incumbent, "incumbent not parked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fleet size, quantum, engine, and world: after any number of
    /// slices, every tenant admitted by the batch path is in a
    /// bit-identical execution state (counters + capsule bytes) to its
    /// sequentially admitted twin.
    #[test]
    fn batch_equals_sequential_any_slicing(
        n in 1usize..6,
        quantum in 150u64..4000,
        slices in 1u64..12,
        engine_idx in 0usize..4,
        traditional in proptest::bool::ANY,
    ) {
        let engine = ENGINES[engine_idx];
        let mode = if traditional { Mode::Traditional } else { Mode::Carat };
        let (mut batch, mut seq, pids) = spawn_both(engine, mode, quantum, n);
        prop_assert_eq!(batch.run_batch(slices), seq.run_batch(slices));
        for &pid in &pids {
            // Finished tenants keep their state in the slot until
            // teardown, so both lookups succeed mid-run or after.
            prop_assert_eq!(
                batch.counters(pid).expect("resident"),
                seq.counters(pid).expect("resident")
            );
            prop_assert_eq!(
                batch.capsule_image(pid).expect("resident"),
                seq.capsule_image(pid).expect("resident")
            );
        }
    }
}
