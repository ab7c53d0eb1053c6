//! Loop-invariance analysis.
//!
//! CARAT's Opt 1 hoists a guard when the guarded address is loop-invariant.
//! The paper notes that the default LLVM loop-invariance detection was
//! enhanced with CARAT's program-dependence analysis; our equivalent is
//! using the alias query to also classify *loads* as invariant when no
//! store (or deallocation) inside the loop may alias them.

use crate::alias::{AliasQuery, MemLoc};
use crate::loops::Loop;
use carat_ir::{Function, Inst, Intrinsic, ValueId};
use std::collections::HashSet;

/// Values proven invariant with respect to one loop.
#[derive(Debug, Clone)]
pub struct LoopInvariance {
    invariant: HashSet<ValueId>,
}

impl LoopInvariance {
    /// Compute the invariant value set for `lp` in `f`.
    ///
    /// A value is invariant when it is defined outside the loop (arguments
    /// and constants included), or is a pure instruction all of whose
    /// operands are invariant. Loads are treated as pure when nothing in
    /// the loop may write or free the loaded location (checked via `aa`).
    pub fn compute(f: &Function, lp: &Loop, aa: &AliasQuery) -> LoopInvariance {
        // Collect in-loop stores and whether the loop has calls/frees, to
        // decide load invariance.
        let mut stores: Vec<MemLoc> = Vec::new();
        let mut has_unknown_mem_effect = false;
        for &b in &lp.blocks {
            for &v in &f.block(b).insts {
                match f.inst(v) {
                    Some(Inst::Store { ty, addr, .. }) => stores.push(MemLoc {
                        ptr: *addr,
                        size: ty.size(),
                    }),
                    Some(Inst::Call { .. }) => has_unknown_mem_effect = true,
                    Some(Inst::CallIntrinsic { intr, .. }) => {
                        if matches!(
                            intr,
                            Intrinsic::Free | Intrinsic::Memcpy | Intrinsic::Memset
                        ) {
                            has_unknown_mem_effect = true;
                        }
                    }
                    _ => {}
                }
            }
        }

        let in_loop =
            |v: ValueId| -> bool { f.block_of(v).map(|b| lp.contains(b)).unwrap_or(false) };

        let mut invariant: HashSet<ValueId> = HashSet::new();
        // Iterate to fixpoint over in-loop instructions.
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &lp.blocks {
                for &v in &f.block(b).insts {
                    if invariant.contains(&v) {
                        continue;
                    }
                    let Some(inst) = f.inst(v) else { continue };
                    let pure = match inst {
                        Inst::Const(_)
                        | Inst::Bin { .. }
                        | Inst::Icmp { .. }
                        | Inst::Fcmp { .. }
                        | Inst::Cast { .. }
                        | Inst::Select { .. }
                        | Inst::PtrAdd { .. }
                        | Inst::FieldAddr { .. } => true,
                        Inst::Load { ty, addr } => {
                            !has_unknown_mem_effect
                                && stores.iter().all(|s| {
                                    aa.disjoint(
                                        f,
                                        *s,
                                        MemLoc {
                                            ptr: *addr,
                                            size: ty.size(),
                                        },
                                    )
                                })
                        }
                        _ => false,
                    };
                    if !pure {
                        continue;
                    }
                    let ok = inst
                        .operands()
                        .iter()
                        .all(|&op| !in_loop(op) || invariant.contains(&op));
                    if ok {
                        invariant.insert(v);
                        changed = true;
                    }
                }
            }
        }
        LoopInvariance { invariant }
    }

    /// Whether `v` is invariant for the analyzed loop: defined outside the
    /// loop or proven invariant inside it.
    pub fn is_invariant(&self, f: &Function, lp: &Loop, v: ValueId) -> bool {
        match f.block_of(v) {
            None => true, // argument
            Some(b) => !lp.contains(b) || self.invariant.contains(&v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dom::DomTree;
    use crate::loops::LoopForest;
    use carat_ir::{ModuleBuilder, Pred, Type};

    /// Loop writing a[i] while reading a fixed pointer p (param 1) and a
    /// derived in-loop invariant address.
    fn build() -> (carat_ir::Module, Vec<ValueId>) {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![Type::Ptr, Type::Ptr, Type::I64], None);
        let mut ids = Vec::new();
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            let h = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(2));
            b.br(c, body, exit);
            b.switch_to(body);
            // invariant address computation inside the loop
            let five = b.const_i64(5);
            let q = b.ptr_add(b.arg(1), five, Type::I64);
            // variant address
            let ai = b.ptr_add(b.arg(0), i, Type::I64);
            let x = b.load(Type::I64, q);
            b.store(Type::I64, ai, x);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(exit);
            b.ret(None);
            ids.extend([i, q, ai, x, i2]);
        }
        (mb.finish(), ids)
    }

    #[test]
    fn classifies_invariance() {
        let (m, ids) = build();
        let f = m.func(m.func_by_name("f").unwrap());
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        assert_eq!(forest.loops.len(), 1);
        let lp = &forest.loops[0];
        let aa = AliasQuery::for_function(f);
        let inv = LoopInvariance::compute(f, lp, &aa);
        let [i, q, ai, _x, i2] = ids[..] else {
            panic!()
        };
        assert!(!inv.is_invariant(f, lp, i), "induction variable varies");
        assert!(inv.is_invariant(f, lp, q), "arg+5 is invariant");
        assert!(!inv.is_invariant(f, lp, ai), "a[i] varies");
        assert!(!inv.is_invariant(f, lp, i2));
        assert!(inv.is_invariant(f, lp, f.arg(0)), "arguments are invariant");
    }

    #[test]
    fn load_invariance_depends_on_aliasing() {
        let (m, ids) = build();
        let f = m.func(m.func_by_name("f").unwrap());
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        let lp = &forest.loops[0];
        let aa = AliasQuery::for_function(f);
        let inv = LoopInvariance::compute(f, lp, &aa);
        let x = ids[3];
        // The loop stores through arg0-derived addresses and loads from an
        // arg1-derived address; both are arguments, which may alias, so the
        // load must NOT be invariant.
        assert!(!inv.is_invariant(f, lp, x));
    }
}
