//! # carat-vm — the execution substrate
//!
//! An interpreter for the CARAT IR over the simulated kernel's physical
//! memory, with a cycle cost model standing in for the paper's x64
//! testbeds. It executes both worlds of the evaluation: the traditional
//! paging baseline (DTLB/STLB/pagewalk simulation, Figure 2 and Table 2)
//! and the CARAT configuration (guards, tracking, page-move injection —
//! Figures 3, 5–7, 9 and Tables 1, 3).
//!
//! ## Example
//!
//! ```
//! use carat_ir::{ModuleBuilder, Type};
//! use carat_vm::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("demo");
//! let f = mb.declare("main", vec![], Some(Type::I64));
//! {
//!     let mut b = mb.define(f);
//!     let e = b.block("entry");
//!     b.switch_to(e);
//!     let x = b.const_i64(21);
//!     let y = b.add(x, x);
//!     b.ret(Some(y));
//! }
//! let result = Vm::new(mb.finish(), VmConfig::default())?.run()?;
//! assert_eq!(result.ret, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capsule;
mod counters;
mod decode;
mod heap;
mod machine;
mod multi;
mod supervise;
mod tlb;

pub use counters::{MoveBreakdownSum, OpcodeMix, PerfCounters};
pub use decode::{
    DecodedBlock, DecodedFunc, DecodedInst, DecodedProgram, FusedKind, FusionStats, FusionSummary,
    HoistedGuardMeta, LoopReport, OperandRange, PhiEdge, ScalarClass, ThreadedOpts, ThreadedReport,
    FUSED_KINDS, NO_REG,
};
pub use heap::HeapAllocator;
pub use machine::{
    Engine, IntegrityReport, Mode, MoveDriverConfig, RunResult, SliceExit, SwapDriverConfig,
    TenantState, Vm, VmConfig, VmError,
};
pub use multi::{
    MultiVm, MultiVmConfig, ProcOutcome, ProcReport, ProcSpec, SchedSource, TenancyError,
};
pub use supervise::{SupervisionEvent, Supervisor, SupervisorConfig, TenantExit, Verdict};
pub use tlb::{Answered, Tlb, TranslationUnit};

#[cfg(test)]
mod tests {
    use super::*;
    use carat_core::{CaratCompiler, CompileOptions, OptPreset};
    use carat_ir::{GlobalInit, Module, ModuleBuilder, Pred, Type};
    use carat_runtime::GuardImpl;

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

    #[test]
    fn executes_uninstrumented_program() {
        let r = Vm::new(array_sum_module(100), VmConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.ret, 4950);
        assert!(r.counters.instructions > 100);
        assert!(r.counters.cycles > r.counters.instructions);
    }

    #[test]
    fn traditional_mode_counts_tlb_activity() {
        let cfg = VmConfig {
            mode: Mode::Traditional,
            ..VmConfig::default()
        };
        let r = Vm::new(array_sum_module(4096 * 4), cfg)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.ret, (0..16384i64).sum::<i64>());
        assert!(r.dtlb_misses > 0, "streaming array misses the DTLB");
        assert!(r.pagewalks > 0);
        assert!(r.page_allocs > r.initial_pages, "heap pages demand-faulted");
        assert!(r.counters.translation_cycles > 0);
    }

    #[test]
    fn carat_mode_has_no_translation() {
        let r = Vm::new(array_sum_module(4096), VmConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.counters.translation_cycles, 0);
        assert_eq!(r.dtlb_misses, 0);
    }

    fn compile(module: Module, options: CompileOptions) -> Module {
        CaratCompiler::new(options)
            .compile(module)
            .expect("compiles")
            .module
    }

    #[test]
    fn guarded_program_runs_and_charges_guards() {
        let m = compile(
            array_sum_module(1000),
            CompileOptions::guards_only(OptPreset::None),
        );
        let r = Vm::new(m, VmConfig::default()).unwrap().run().unwrap();
        assert_eq!(r.ret, 499500);
        assert!(r.counters.guards_executed >= 2000, "one guard per access");
        assert!(r.counters.guard_cycles > 0);
    }

    #[test]
    fn carat_opts_cut_guard_executions() {
        let naive = compile(
            array_sum_module(1000),
            CompileOptions::guards_only(OptPreset::None),
        );
        let optd = compile(
            array_sum_module(1000),
            CompileOptions::guards_only(OptPreset::CaratSpecific),
        );
        let rn = Vm::new(naive, VmConfig::default()).unwrap().run().unwrap();
        let ro = Vm::new(optd, VmConfig::default()).unwrap().run().unwrap();
        assert_eq!(rn.ret, ro.ret, "optimization preserves semantics");
        assert!(
            ro.counters.guards_executed * 10 < rn.counters.guards_executed,
            "range merging collapses per-iteration guards: {} vs {}",
            ro.counters.guards_executed,
            rn.counters.guards_executed
        );
    }

    #[test]
    fn mpx_guards_cost_less_than_software() {
        let m = compile(
            array_sum_module(1000),
            CompileOptions::guards_only(OptPreset::None),
        );
        let sw = Vm::new(
            m.clone(),
            VmConfig {
                guard_impl: GuardImpl::BinarySearch,
                ..VmConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        let mpx = Vm::new(
            m,
            VmConfig {
                guard_impl: GuardImpl::Mpx,
                ..VmConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(mpx.counters.guard_cycles < sw.counters.guard_cycles);
    }

    #[test]
    fn tracking_records_allocs_and_escapes() {
        // Program stores a pointer into a global cell: one escape.
        let mut mb = ModuleBuilder::new("esc");
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
            let zero = b.const_i64(0);
            b.ret(Some(zero));
        }
        let m = compile(mb.finish(), CompileOptions::tracking_only());
        let r = Vm::new(m, VmConfig::default()).unwrap().run().unwrap();
        assert!(r.track_stats.allocs >= 1);
        assert_eq!(r.track_stats.escape_events, 1);
        assert_eq!(r.track_stats.escapes_resolved, 1);
        assert!(r.tracking_bytes > 0);
    }

    #[test]
    fn guard_fault_on_wild_access() {
        // Program dereferences a forged pointer far outside the capsule.
        let mut mb = ModuleBuilder::new("wild");
        let f = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let bad = b.const_i64(0x3fff_f000);
            let p = b.cast(carat_ir::CastKind::IntToPtr, bad, Type::Ptr);
            let v = b.load(Type::I64, p);
            b.ret(Some(v));
        }
        let m = compile(mb.finish(), CompileOptions::guards_only(OptPreset::None));
        let err = Vm::new(m, VmConfig::default()).unwrap().run().unwrap_err();
        assert!(matches!(err, VmError::GuardFault { .. }), "{err}");
    }

    #[test]
    fn page_moves_preserve_semantics() {
        // Run with aggressive page-move injection; the program must still
        // compute the same result.
        let m = compile(array_sum_module(2000), CompileOptions::default());
        let cfg = VmConfig {
            move_driver: Some(MoveDriverConfig {
                period_cycles: 20_000,
                max_moves: 50,
            }),
            ..VmConfig::default()
        };
        let r = Vm::new(m, cfg).unwrap().run().unwrap();
        assert_eq!(r.ret, (0..2000i64).sum::<i64>(), "moves are transparent");
        assert!(r.counters.moves > 0, "moves actually happened");
        assert!(r.page_moves > 0);
        assert!(r.counters.move_cycles > 0);
    }

    #[test]
    fn moves_with_pointer_chasing_structure() {
        // Linked list: each node holds a pointer to the next (escapes in
        // moved memory). Sum via traversal, with moves injected.
        let mut mb = ModuleBuilder::new("list");
        let f = mb.declare("main", vec![], Some(Type::I64));
        let node_ty = Type::Struct(vec![Type::I64, Type::Ptr]);
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            let bh = b.block("build.h");
            let bb = b.block("build.b");
            let th = b.block("trav.h");
            let tb = b.block("trav.b");
            let x = b.block("exit");
            b.switch_to(e);
            let n = b.const_i64(200);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let nil = b.null();
            b.jmp(bh);
            // build: prepend nodes
            b.switch_to(bh);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let head = b.phi(Type::Ptr, vec![(e, nil)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.br(c, bb, th);
            b.switch_to(bb);
            let sz = b.const_i64(16);
            let node = b.malloc(sz);
            let val_p = b.field_addr(node, node_ty.clone(), 0);
            b.store(Type::I64, val_p, i);
            let next_p = b.field_addr(node, node_ty.clone(), 1);
            b.store(Type::Ptr, next_p, head);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, bb, i2);
            b.phi_add_incoming(head, bb, node);
            b.jmp(bh);
            // traverse
            b.switch_to(th);
            let cur = b.phi(Type::Ptr, vec![(bh, head)]);
            let acc = b.phi(Type::I64, vec![(bh, zero)]);
            let is_nil = b.icmp(Pred::Ne, cur, nil);
            b.br(is_nil, tb, x);
            b.switch_to(tb);
            let vp = b.field_addr(cur, node_ty.clone(), 0);
            let val = b.load(Type::I64, vp);
            let acc2 = b.add(acc, val);
            let np = b.field_addr(cur, node_ty.clone(), 1);
            let nxt = b.load(Type::Ptr, np);
            b.phi_add_incoming(cur, tb, nxt);
            b.phi_add_incoming(acc, tb, acc2);
            b.jmp(th);
            b.switch_to(x);
            b.ret(Some(acc));
        }
        let m = compile(mb.finish(), CompileOptions::default());
        let cfg = VmConfig {
            move_driver: Some(MoveDriverConfig {
                period_cycles: 10_000,
                max_moves: 30,
            }),
            ..VmConfig::default()
        };
        let r = Vm::new(m, cfg).unwrap().run().unwrap();
        assert_eq!(r.ret, (0..200i64).sum::<i64>());
        assert!(r.counters.moves > 0);
        // Moving list nodes requires actual escape patching.
        assert!(
            r.counters.move_breakdown.patch_gen_exec > 0,
            "escapes were patched during moves"
        );
    }

    #[test]
    fn signed_load_through_vm() {
        let key = carat_core::SigningKey::from_passphrase("carat-cc", "vm-test");
        let compiled = CaratCompiler::new(CompileOptions {
            signing: Some(key.clone()),
            ..CompileOptions::default()
        })
        .compile(array_sum_module(10))
        .unwrap();
        let signed = compiled.signed.expect("signed");
        let vm = Vm::load_signed(&signed, vec![key], VmConfig::default()).unwrap();
        let r = vm.run().unwrap();
        assert_eq!(r.ret, 45);
    }

    #[test]
    fn untrusted_binary_rejected_by_vm() {
        let key = carat_core::SigningKey::from_passphrase("carat-cc", "vm-test");
        let other = carat_core::SigningKey::from_passphrase("carat-cc", "different");
        let compiled = CaratCompiler::new(CompileOptions {
            signing: Some(other),
            ..CompileOptions::default()
        })
        .compile(array_sum_module(10))
        .unwrap();
        let signed = compiled.signed.expect("signed");
        let err = Vm::load_signed(&signed, vec![key], VmConfig::default()).unwrap_err();
        assert!(matches!(err, VmError::Load(_)));
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut mb = ModuleBuilder::new("rng");
        let f = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let r = b.intr(carat_ir::Intrinsic::Rand, vec![]);
            b.ret(Some(r));
        }
        let m = mb.finish();
        let r1 = Vm::new(m.clone(), VmConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let r2 = Vm::new(m.clone(), VmConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r1.ret, r2.ret);
        let r3 = Vm::new(
            m,
            VmConfig {
                seed: 99,
                ..VmConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_ne!(r1.ret, r3.ret);
    }

    #[test]
    fn call_guards_trigger_seamless_stack_expansion() {
        // ~5000 recursion depth at >=64B/frame exceeds the 256 KiB default
        // stack; with call guards the kernel grows it transparently.
        let src = "
            int deep(int n) { if (n == 0) { return 0; } return 1 + deep(n - 1); }
            int main() { return deep(5000); }
        ";
        let module = carat_frontend::compile_cm("deep", src).unwrap();
        let m = compile(module, CompileOptions::default());
        let r = Vm::new(m, VmConfig::default()).unwrap().run().unwrap();
        assert_eq!(r.ret, 5000);
        assert!(
            r.counters.stack_expansions >= 1,
            "expansion happened: {}",
            r.counters.stack_expansions
        );
        // Growth stops at the kernel's 8 MiB ceiling: 20 000 frames of at
        // least 2 KiB each outgrow it, and the call guard that finds no
        // room left faults.
        let src = "
            int deep(int n) {
                int pad[256];
                pad[0] = n;
                if (n == 0) { return 0; }
                return pad[0] + deep(n - 1) * 0;
            }
            int main() { return deep(20000); }
        ";
        let module = carat_frontend::compile_cm("deeper", src).unwrap();
        let m = compile(module, CompileOptions::default());
        let err = Vm::new(m, VmConfig::default()).unwrap().run().unwrap_err();
        assert!(
            matches!(err, VmError::GuardFault { write: true, .. }),
            "{err}"
        );
    }

    #[test]
    fn baseline_without_guards_traps_on_overflow() {
        let src = "
            int deep(int n) { if (n == 0) { return 0; } return 1 + deep(n - 1); }
            int main() { return deep(5000); }
        ";
        let module = carat_frontend::compile_cm("deep", src).unwrap();
        let m = compile(module, CompileOptions::baseline());
        let err = Vm::new(m, VmConfig::default()).unwrap().run().unwrap_err();
        assert!(
            matches!(err, VmError::Trap(ref msg) if msg.contains("overflow")),
            "{err}"
        );
    }

    #[test]
    fn swap_is_transparent_to_pointer_chasing() {
        // Linked list summed repeatedly while the swap driver pages the
        // hottest range out; poison faults page it back in on demand.
        let src = "
            struct node { int v; struct node* n; };
            int main() {
                struct node* head = (struct node*) null;
                for (int i = 0; i < 300; i += 1) {
                    struct node* x = (struct node*) malloc(sizeof(struct node));
                    x->v = i; x->n = head; head = x;
                }
                int got = 0;
                for (int pass = 0; pass < 10; pass += 1) {
                    struct node* c = head;
                    got = 0;
                    while (c != null) { got += c->v; c = c->n; }
                }
                return got;
            }
        ";
        let module = carat_frontend::compile_cm("swapped", src).unwrap();
        let m = compile(module, CompileOptions::default());
        let r = Vm::new(
            m,
            VmConfig {
                swap_driver: Some(SwapDriverConfig {
                    period_cycles: 40_000,
                    max_swaps: 20,
                }),
                ..VmConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(r.ret, (0..300i64).sum::<i64>());
        assert!(r.counters.swap_outs > 0, "pages were swapped out");
        assert!(r.counters.swap_ins > 0, "poison faults paged them back in");
    }

    /// The swap driver screens DMA pins as the move driver does: with the
    /// most-escaped allocation pinned, page-outs take the next victim
    /// instead of failing the run on the pinned range.
    #[test]
    fn swap_driver_skips_a_pinned_victim() {
        let src = "
            int target[37];
            int main() {
                int** cells = (int**) malloc(200 * sizeof(int*));
                for (int i = 0; i < 200; i += 1) { cells[i] = &target[i % 37]; }
                int* b = (int*) malloc(8 * sizeof(int));
                int** other = (int**) malloc(20 * sizeof(int*));
                for (int i = 0; i < 20; i += 1) { b[i % 8] = i; other[i] = &b[i % 8]; }
                int s = 0;
                for (int pass = 0; pass < 20; pass += 1) {
                    for (int i = 0; i < 200; i += 1) { s += *cells[i]; }
                    for (int i = 0; i < 20; i += 1) { s += *other[i]; }
                }
                return s;
            }
        ";
        let module = carat_frontend::compile_cm("pinned", src).unwrap();
        let m = compile(module, CompileOptions::default());
        let expect = Vm::new(m.clone(), VmConfig::default())
            .unwrap()
            .run()
            .unwrap()
            .ret;
        let cfg = VmConfig {
            swap_driver: Some(SwapDriverConfig {
                period_cycles: 20_000,
                max_swaps: 5,
            }),
            ..VmConfig::default()
        };
        let mut vm = Vm::new(m, cfg).unwrap();
        let (start, len) = vm
            .table
            .below(u64::MAX)
            .find(|(_, info)| info.len == 37 * 8)
            .map(|(start, info)| (start, info.len))
            .expect("the global is tracked at load");
        vm.kernel.pin_region(start, len).unwrap();
        let r = vm.run().unwrap();
        assert_eq!(r.ret, expect);
        assert!(r.counters.swap_outs > 0, "the next victim was paged out");
    }

    #[test]
    fn integrity_audit_cross_checks_table_against_swap_store() {
        let mut vm = Vm::new(array_sum_module(100), VmConfig::default()).unwrap();
        let (start, ..) = vm.table.snapshot()[0];
        let (_, slot, ..) = vm
            .kernel
            .page_out(&mut vm.table, &mut [], start, 1)
            .expect("no fault")
            .expect("swappable");
        assert!(vm.check_integrity().ok(), "a clean page-out is consistent");
        // A live slot no allocation lives in: its data is unreachable.
        let (window, span) = carat_kernel::SimKernel::swap_window(slot);
        let poisoned: Vec<(u64, u64)> = vm
            .table
            .snapshot()
            .into_iter()
            .filter(|&(s, ..)| s >= window && s < window + span)
            .map(|(s, len, ..)| (s, len))
            .collect();
        assert!(!poisoned.is_empty());
        for &(s, _) in &poisoned {
            vm.table.track_free(s);
        }
        let report = vm.check_integrity();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("1 live swap slots"));
        // An allocation poisoned into a slot whose entry is gone: the next
        // guard fault on it could never be serviced.
        let (dead, _) = carat_kernel::SimKernel::swap_window(slot + 5);
        vm.table
            .track_alloc(dead, 64, carat_runtime::AllocKind::Heap);
        let report = vm.check_integrity();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("dead swap slot")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn swap_and_moves_compose() {
        let src = "
            int main() {
                int n = 2000;
                int* a = (int*) malloc(n * sizeof(int));
                int** cells = (int**) malloc(n * sizeof(int*));
                for (int i = 0; i < n; i += 1) { a[i] = i; cells[i] = &a[i]; }
                int s = 0;
                for (int pass = 0; pass < 5; pass += 1) {
                    for (int i = 0; i < n; i += 1) { s += *cells[i]; }
                }
                free(a); free(cells);
                return s % 1000000;
            }
        ";
        let module = carat_frontend::compile_cm("both", src).unwrap();
        let m = compile(module, CompileOptions::default());
        let expect = {
            let r = Vm::new(m.clone(), VmConfig::default())
                .unwrap()
                .run()
                .unwrap();
            r.ret
        };
        let r = Vm::new(
            m,
            VmConfig {
                move_driver: Some(MoveDriverConfig {
                    period_cycles: 60_000,
                    max_moves: 20,
                }),
                swap_driver: Some(SwapDriverConfig {
                    period_cycles: 90_000,
                    max_swaps: 10,
                }),
                ..VmConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(r.ret, expect, "moves + swap remain transparent together");
        assert!(r.counters.moves > 0 || r.counters.swap_outs > 0);
    }

    #[test]
    fn threads_spawn_join_and_interleave() {
        // Four workers each sum a slice; main joins them all. Thread
        // stacks live in heap memory (paper §2.2).
        let src = "
            int work(int lo) {
                int s = 0;
                for (int i = lo; i < lo + 250; i += 1) { s += i; }
                return s;
            }
            int main() {
                int t0 = spawn(work, 0);
                int t1 = spawn(work, 250);
                int t2 = spawn(work, 500);
                int t3 = spawn(work, 750);
                return join(t0) + join(t1) + join(t2) + join(t3);
            }
        ";
        let module = carat_frontend::compile_cm("threads", src).unwrap();
        let m = compile(module, CompileOptions::default());
        let r = Vm::new(m.clone(), VmConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.ret, (0..1000i64).sum::<i64>());
        // Deterministic across runs.
        let r2 = Vm::new(m, VmConfig::default()).unwrap().run().unwrap();
        assert_eq!(r.counters.cycles, r2.counters.cycles);
    }

    #[test]
    fn threads_share_memory_and_survive_moves() {
        // Workers write into a shared heap array through pointers while
        // the move driver relocates pages; a multi-thread world stop must
        // patch every thread's registers and stack.
        let src = "
            int* shared;
            int work(int lo) {
                for (int i = lo; i < lo + 200; i += 1) { shared[i] = i * 3; }
                return lo;
            }
            int main() {
                shared = (int*) malloc(800 * sizeof(int));
                int t0 = spawn(work, 0);
                int t1 = spawn(work, 200);
                int t2 = spawn(work, 400);
                int done = join(t0) + join(t1) + join(t2);
                for (int i = 600; i < 800; i += 1) { shared[i] = i * 3; }
                int s = done * 0;
                for (int i = 0; i < 800; i += 1) { s += shared[i]; }
                free(shared);
                return s % 1000000;
            }
        ";
        let module = carat_frontend::compile_cm("shared", src).unwrap();
        let m = compile(module, CompileOptions::default());
        let expect = Vm::new(m.clone(), VmConfig::default())
            .unwrap()
            .run()
            .unwrap()
            .ret;
        let r = Vm::new(
            m,
            VmConfig {
                move_driver: Some(MoveDriverConfig {
                    period_cycles: 25_000,
                    max_moves: 60,
                }),
                ..VmConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(r.ret, expect, "moves are transparent to all threads");
        assert!(r.counters.moves > 0);
    }

    #[test]
    fn join_of_self_and_unknown_thread_trap() {
        let src = "int main() { return join(0); }";
        let module = carat_frontend::compile_cm("selfjoin", src).unwrap();
        let m = compile(module, CompileOptions::baseline());
        let err = Vm::new(m, VmConfig::default()).unwrap().run().unwrap_err();
        assert!(
            matches!(err, VmError::Trap(ref m) if m.contains("join")),
            "{err}"
        );
        let src2 = "int main() { return join(7); }";
        let module2 = carat_frontend::compile_cm("badjoin", src2).unwrap();
        let m2 = compile(module2, CompileOptions::baseline());
        let err2 = Vm::new(m2, VmConfig::default()).unwrap().run().unwrap_err();
        assert!(matches!(err2, VmError::Trap(_)), "{err2}");
    }

    #[test]
    fn output_collects_prints() {
        let mut mb = ModuleBuilder::new("hello");
        let f = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let x = b.const_i64(7);
            b.intr(carat_ir::Intrinsic::PrintI64, vec![x]);
            let pi = b.const_f64(3.5);
            b.intr(carat_ir::Intrinsic::PrintF64, vec![pi]);
            b.ret(Some(x));
        }
        let r = Vm::new(mb.finish(), VmConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.output, vec!["7".to_string(), "3.500000".to_string()]);
    }
}
