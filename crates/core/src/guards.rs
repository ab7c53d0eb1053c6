//! Guard injection (paper §2.2, §4.1.1).
//!
//! Conceptually every load, store and call instruction gets a guard that
//! validates the prospective physical address range against the
//! kernel-supplied region set. Guards are [`Intrinsic::GuardLoad`],
//! [`Intrinsic::GuardStore`] and [`Intrinsic::GuardCall`] calls inserted
//! immediately before the instruction they protect; the optimization passes
//! in [`crate::opt`] then hoist, merge, or eliminate them.

use carat_ir::{FuncId, Function, Inst, Intrinsic, Module, ValueId};

/// Fixed per-call stack overhead assumed by call guards, covering the
/// return address, saved registers, and compiler-generated spill slots.
pub const CALL_FRAME_OVERHEAD: u64 = 64;

/// Which instruction classes to guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// Guard loads.
    pub loads: bool,
    /// Guard stores.
    pub stores: bool,
    /// Guard calls (stack-extent checks).
    pub calls: bool,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            loads: true,
            stores: true,
            calls: true,
        }
    }
}

/// Estimate the maximum stack footprint of `f`'s frame in bytes: all its
/// allocas (with alignment padding) plus [`CALL_FRAME_OVERHEAD`].
///
/// This is what a call guard must verify fits in a valid region below the
/// stack pointer ("the prologue and epilogue code the compiler produces for
/// the callee may also perform stack accesses").
pub fn frame_size(f: &Function) -> u64 {
    let mut total = CALL_FRAME_OVERHEAD;
    for (_, _, inst) in f.insts_in_layout_order() {
        if let Inst::Alloca(ty) = inst {
            total += ty.stride().max(8);
        }
    }
    total
}

/// Result of injecting guards into one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Load guards inserted.
    pub loads: usize,
    /// Store guards inserted.
    pub stores: usize,
    /// Call guards inserted.
    pub calls: usize,
}

impl InjectionCounts {
    /// Total guards inserted.
    pub fn total(&self) -> usize {
        self.loads + self.stores + self.calls
    }
}

/// Inject guards into every function of `module`.
///
/// Returns per-function counts indexed by function id.
pub fn inject_guards(module: &mut Module, cfg: GuardConfig) -> Vec<InjectionCounts> {
    // Pre-compute callee frame sizes (call guards check the *callee*'s
    // maximum stack footprint).
    let frame_sizes: Vec<u64> = module
        .func_ids()
        .map(|fid| frame_size(module.func(fid)))
        .collect();
    let fids: Vec<FuncId> = module.func_ids().collect();
    let mut out = Vec::with_capacity(fids.len());
    for fid in fids {
        let f = module.func_mut(fid);
        out.push(inject_into_function(f, cfg, &frame_sizes));
    }
    out
}

fn inject_into_function(
    f: &mut Function,
    cfg: GuardConfig,
    frame_sizes: &[u64],
) -> InjectionCounts {
    let mut counts = InjectionCounts::default();
    // Snapshot targets first; insertion invalidates positions otherwise.
    struct Target {
        before: ValueId,
        guard: GuardKind,
    }
    enum GuardKind {
        Load { addr: ValueId, size: u64 },
        Store { addr: ValueId, size: u64 },
        Call { frame: u64 },
    }
    let mut targets = Vec::new();
    for b in f.block_ids().collect::<Vec<_>>() {
        for &v in &f.block(b).insts {
            match f.inst(v) {
                Some(Inst::Load { ty, addr }) if cfg.loads => targets.push(Target {
                    before: v,
                    guard: GuardKind::Load {
                        addr: *addr,
                        size: ty.size(),
                    },
                }),
                Some(Inst::Store { ty, addr, .. }) if cfg.stores => targets.push(Target {
                    before: v,
                    guard: GuardKind::Store {
                        addr: *addr,
                        size: ty.size(),
                    },
                }),
                Some(Inst::Call { callee, .. }) if cfg.calls => targets.push(Target {
                    before: v,
                    guard: GuardKind::Call {
                        frame: frame_sizes[callee.index()],
                    },
                }),
                _ => {}
            }
        }
    }
    for t in targets {
        match t.guard {
            GuardKind::Load { addr, size } => {
                let len = insert_const_before(f, t.before, size as i64);
                f.insert_before(
                    t.before,
                    Inst::CallIntrinsic {
                        intr: Intrinsic::GuardLoad,
                        args: vec![addr, len],
                    },
                );
                counts.loads += 1;
            }
            GuardKind::Store { addr, size } => {
                let len = insert_const_before(f, t.before, size as i64);
                f.insert_before(
                    t.before,
                    Inst::CallIntrinsic {
                        intr: Intrinsic::GuardStore,
                        args: vec![addr, len],
                    },
                );
                counts.stores += 1;
            }
            GuardKind::Call { frame } => {
                let len = insert_const_before(f, t.before, frame as i64);
                f.insert_before(
                    t.before,
                    Inst::CallIntrinsic {
                        intr: Intrinsic::GuardCall,
                        args: vec![len],
                    },
                );
                counts.calls += 1;
            }
        }
    }
    counts
}

/// Insert an i64 constant immediately before `before` and return it.
fn insert_const_before(f: &mut Function, before: ValueId, v: i64) -> ValueId {
    f.insert_before(
        before,
        Inst::Const(carat_ir::Const::Int(v, carat_ir::IntTy::I64)),
    )
}

/// Count the guard intrinsics currently present in `module`.
pub fn count_guards(module: &Module) -> usize {
    module
        .func_ids()
        .map(|fid| count_guards_in(module.func(fid)))
        .sum()
}

/// Count the guard intrinsics currently present in `f`.
pub fn count_guards_in(f: &Function) -> usize {
    f.insts_in_layout_order()
        .filter(|(_, _, i)| matches!(i, Inst::CallIntrinsic { intr, .. } if intr.is_guard()))
        .count()
}

/// All guard instruction ids in `f`, in layout order.
pub fn guard_ids(f: &Function) -> Vec<ValueId> {
    f.insts_in_layout_order()
        .filter(|(_, _, i)| matches!(i, Inst::CallIntrinsic { intr, .. } if intr.is_guard()))
        .map(|(_, v, _)| v)
        .collect()
}

/// The byte extent a guard checks, when statically known (its second
/// argument for load/store guards).
pub fn guard_extent(f: &Function, guard: ValueId) -> Option<u64> {
    match f.inst(guard) {
        Some(Inst::CallIntrinsic {
            intr: Intrinsic::GuardLoad | Intrinsic::GuardStore,
            args,
        }) => match f.inst(*args.get(1)?) {
            Some(Inst::Const(carat_ir::Const::Int(n, _))) => Some(*n as u64),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_ir::{verify_module, ModuleBuilder, Type};

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let callee = mb.declare("callee", vec![], None);
        let f = mb.declare("main", vec![Type::Ptr], Some(Type::I64));
        {
            let mut b = mb.define(callee);
            let e = b.block("entry");
            b.switch_to(e);
            let _slot = b.alloca(Type::Array(Box::new(Type::I64), 4));
            b.ret(None);
        }
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let p = b.arg(0);
            let x = b.load(Type::I64, p);
            b.store(Type::I64, p, x);
            b.call(callee, vec![], None);
            b.ret(Some(x));
        }
        mb.finish()
    }

    #[test]
    fn injects_one_guard_per_memory_and_call_inst() {
        let mut m = sample();
        let counts = inject_guards(&mut m, GuardConfig::default());
        let main_counts = counts[1];
        assert_eq!(main_counts.loads, 1);
        assert_eq!(main_counts.stores, 1);
        assert_eq!(main_counts.calls, 1);
        assert_eq!(count_guards(&m), 3);
        verify_module(&m).expect("instrumented module verifies");
    }

    #[test]
    fn guards_precede_their_instruction() {
        let mut m = sample();
        inject_guards(&mut m, GuardConfig::default());
        let f = m.func(m.func_by_name("main").unwrap());
        let insts: Vec<_> = f
            .block(f.entry())
            .insts
            .iter()
            .map(|&v| f.inst(v).unwrap().clone())
            .collect();
        // Find the load; the instruction before it must be a load guard.
        let load_pos = insts
            .iter()
            .position(|i| matches!(i, Inst::Load { .. }))
            .unwrap();
        assert!(matches!(
            &insts[load_pos - 1],
            Inst::CallIntrinsic {
                intr: Intrinsic::GuardLoad,
                ..
            }
        ));
    }

    #[test]
    fn call_guard_uses_callee_frame_size() {
        let mut m = sample();
        inject_guards(&mut m, GuardConfig::default());
        let f = m.func(m.func_by_name("main").unwrap());
        let guard = f
            .insts_in_layout_order()
            .find_map(|(_, _, i)| match i {
                Inst::CallIntrinsic {
                    intr: Intrinsic::GuardCall,
                    args,
                } => Some(args[0]),
                _ => None,
            })
            .expect("call guard present");
        let frame = match f.inst(guard) {
            Some(Inst::Const(carat_ir::Const::Int(n, _))) => *n as u64,
            other => panic!("unexpected frame operand {other:?}"),
        };
        // callee has a 32-byte alloca + overhead
        assert_eq!(frame, 32 + CALL_FRAME_OVERHEAD);
    }

    #[test]
    fn config_disables_classes() {
        let mut m = sample();
        inject_guards(
            &mut m,
            GuardConfig {
                loads: true,
                stores: false,
                calls: false,
            },
        );
        assert_eq!(count_guards(&m), 1);
    }

    #[test]
    fn guard_extent_reads_constant() {
        let mut m = sample();
        inject_guards(&mut m, GuardConfig::default());
        let f = m.func(m.func_by_name("main").unwrap());
        let gs = guard_ids(f);
        let extents: Vec<_> = gs.iter().filter_map(|&g| guard_extent(f, g)).collect();
        assert_eq!(extents, vec![8, 8]);
    }
}
