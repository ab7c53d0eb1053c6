//! Opt 1 — guard hoisting.
//!
//! A load/store guard whose address is loop-invariant is moved to the
//! loop's preheader (with its invariant operand chain), executing once per
//! loop entry instead of once per iteration. Call guards hoist out of loops
//! containing no stack allocation. The pass re-applies itself so guards
//! climb to the outermost loop possible.

use super::{GuardClass, GuardClasses};
use carat_analysis::{
    ensure_preheader, AliasQuery, Cfg, DomTree, Loop, LoopForest, LoopInvariance,
};
use carat_ir::{Const, Function, Inst, Intrinsic, ValueId};
use std::collections::HashSet;

/// Run guard hoisting on `f` to fixpoint. Marks hoisted guards in `classes`
/// and returns the number of hoist steps performed.
pub fn run(f: &mut Function, classes: &mut GuardClasses) -> usize {
    let mut total = 0;
    // Each round hoists one loop level; depth is bounded, so iterate until
    // a round makes no progress.
    for _ in 0..32 {
        let n = run_one_round(f, classes);
        total += n;
        if n == 0 {
            break;
        }
    }
    total
}

fn run_one_round(f: &mut Function, classes: &mut GuardClasses) -> usize {
    let aa = AliasQuery::for_function(f);
    let mut hoisted = 0;
    // Recompute loop structure each round (preheader creation adds blocks).
    let forest = {
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        LoopForest::compute(f, &cfg, &dt)
    };
    // Innermost-first: deeper loops hoist into enclosing loops, which a
    // later round lifts further.
    let mut order: Vec<usize> = (0..forest.loops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(forest.loops[i].depth));
    for li in order {
        let lp = forest.loops[li].clone();
        hoisted += hoist_loop(f, &lp, &aa, classes);
    }
    hoisted
}

fn hoist_loop(f: &mut Function, lp: &Loop, aa: &AliasQuery, classes: &mut GuardClasses) -> usize {
    let inv = LoopInvariance::compute(f, lp, aa);
    let loop_has_alloca = lp.blocks.iter().any(|&b| {
        f.block(b)
            .insts
            .iter()
            .any(|&v| matches!(f.inst(v), Some(Inst::Alloca(_))))
    });

    // Collect hoistable guards.
    let mut candidates: Vec<ValueId> = Vec::new();
    for &b in &lp.blocks {
        for &v in &f.block(b).insts {
            let Some(Inst::CallIntrinsic { intr, args }) = f.inst(v) else {
                continue;
            };
            let ok = match intr {
                Intrinsic::GuardLoad | Intrinsic::GuardStore | Intrinsic::GuardRange => {
                    args.iter().all(|&a| inv.is_invariant(f, lp, a))
                }
                Intrinsic::GuardCall => {
                    !loop_has_alloca && args.iter().all(|&a| inv.is_invariant(f, lp, a))
                }
                _ => false,
            };
            if ok {
                candidates.push(v);
            }
        }
    }
    if candidates.is_empty() {
        return 0;
    }

    let ph = ensure_preheader(f, lp);
    let mut count = 0;
    for g in candidates {
        // Hoist the invariant operand chain first.
        let mut chain = Vec::new();
        collect_in_loop_chain(f, lp, g, &mut chain);
        // `chain` is in dependency order (operands first), excluding g.
        for &c in &chain {
            move_to_preheader(f, ph, c);
        }
        // Dedup: an equivalent guard already in the preheader replaces this
        // one entirely.
        if find_equivalent_guard(f, ph, g).is_some() {
            f.remove_from_block(g);
        } else {
            move_to_preheader(f, ph, g);
        }
        classes.mark(g, GuardClass::Hoisted);
        count += 1;
    }
    count
}

/// Collect the in-loop instructions `root` transitively depends on,
/// operands before users, excluding `root` itself.
fn collect_in_loop_chain(f: &Function, lp: &Loop, root: ValueId, out: &mut Vec<ValueId>) {
    fn visit(
        f: &Function,
        lp: &Loop,
        v: ValueId,
        seen: &mut HashSet<ValueId>,
        out: &mut Vec<ValueId>,
        is_root: bool,
    ) {
        if !seen.insert(v) {
            return;
        }
        let Some(inst) = f.inst(v) else { return };
        let in_loop = f.block_of(v).is_some_and(|b| lp.contains(b));
        if !in_loop && !is_root {
            return;
        }
        for op in inst.operands() {
            visit(f, lp, op, seen, out, false);
        }
        if !is_root && in_loop {
            out.push(v);
        }
    }
    let mut seen = HashSet::new();
    visit(f, lp, root, &mut seen, out, true);
}

/// Move `v` into the preheader, before its terminator.
fn move_to_preheader(f: &mut Function, ph: carat_ir::BlockId, v: ValueId) {
    if f.block_of(v) == Some(ph) {
        return;
    }
    let pos = f.block(ph).insts.len().saturating_sub(1); // before the jmp
    f.move_inst(v, ph, pos);
}

/// Find a guard in `ph` equivalent to `g` (same intrinsic, structurally
/// equal arguments), other than `g` itself.
fn find_equivalent_guard(f: &Function, ph: carat_ir::BlockId, g: ValueId) -> Option<ValueId> {
    let Some(Inst::CallIntrinsic { intr, args }) = f.inst(g) else {
        return None;
    };
    for &v in &f.block(ph).insts {
        if v == g {
            continue;
        }
        if let Some(Inst::CallIntrinsic { intr: i2, args: a2 }) = f.inst(v) {
            if i2 == intr
                && args.len() == a2.len()
                && args
                    .iter()
                    .zip(a2)
                    .all(|(&x, &y)| values_equivalent(f, x, y))
            {
                return Some(v);
            }
        }
    }
    None
}

/// Whether two values are trivially the same (identical id, or equal
/// constants).
fn values_equivalent(f: &Function, a: ValueId, b: ValueId) -> bool {
    if a == b {
        return true;
    }
    match (f.inst(a), f.inst(b)) {
        (Some(Inst::Const(ca)), Some(Inst::Const(cb))) => match (ca, cb) {
            (Const::Int(x, wx), Const::Int(y, wy)) => x == y && wx == wy,
            (Const::F64(x), Const::F64(y)) => x.to_bits() == y.to_bits(),
            (Const::Null, Const::Null) => true,
            (Const::GlobalAddr(x), Const::GlobalAddr(y)) => x == y,
            _ => false,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::{count_guards_in, guard_ids, inject_guards, GuardConfig};
    use carat_ir::{verify_module, Module, ModuleBuilder, Pred, Type};

    /// for (i = 0; i < n; i++) { *p = *p + 1; }  -- p invariant
    fn invariant_loop() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![Type::Ptr, Type::I64], None);
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            let h = b.block("h");
            let body = b.block("body");
            let x = b.block("x");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(1));
            b.br(c, body, x);
            b.switch_to(body);
            let v = b.load(Type::I64, b.arg(0));
            let v2 = b.add(v, one);
            b.store(Type::I64, b.arg(0), v2);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn hoists_invariant_guards_to_preheader() {
        let mut m = invariant_loop();
        inject_guards(&mut m, GuardConfig::default());
        let fid = m.func_by_name("f").unwrap();
        let guards = guard_ids(m.func(fid));
        assert_eq!(guards.len(), 2);
        let mut classes = GuardClasses::with_original(&guards);
        let n = run(m.func_mut(fid), &mut classes);
        assert!(n >= 2, "both guards hoist (possibly across rounds): {n}");
        verify_module(&m).expect("hoisted module verifies");
        let f = m.func(fid);
        // Guards must no longer be inside the loop body (block 2).
        for g in guard_ids(f) {
            assert_ne!(f.block_of(g), Some(carat_ir::BlockId(2)));
        }
        let census = classes.census();
        assert_eq!(census.hoisted, 2);
    }

    #[test]
    fn identical_hoisted_guards_dedup() {
        let mut m = invariant_loop();
        inject_guards(&mut m, GuardConfig::default());
        let fid = m.func_by_name("f").unwrap();
        let before = count_guards_in(m.func(fid));
        let guards = guard_ids(m.func(fid));
        let mut classes = GuardClasses::with_original(&guards);
        run(m.func_mut(fid), &mut classes);
        // load guard + store guard on the same (addr, len): the pair cannot
        // fully dedup (different intrinsics), so both remain; but statically
        // we never *gain* guards.
        assert!(count_guards_in(m.func(fid)) <= before);
    }

    /// Guard on a[i] must NOT hoist (variant address).
    #[test]
    fn variant_guards_stay() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![Type::Ptr, Type::I64], None);
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            let h = b.block("h");
            let body = b.block("body");
            let x = b.block("x");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let _one = b.const_i64(1);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(1));
            b.br(c, body, x);
            b.switch_to(body);
            let ai = b.ptr_add(b.arg(0), i, Type::I64);
            let v = b.load(Type::I64, ai);
            let i2 = b.add(i, v);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(None);
        }
        let mut m = mb.finish();
        inject_guards(&mut m, GuardConfig::default());
        let fid = m.func_by_name("f").unwrap();
        let guards = guard_ids(m.func(fid));
        let mut classes = GuardClasses::with_original(&guards);
        let n = run(m.func_mut(fid), &mut classes);
        assert_eq!(n, 0, "variant guard must not hoist");
        assert_eq!(classes.census().untouched, 1);
        verify_module(&m).unwrap();
    }

    /// Nested loops: invariant guard in the inner loop climbs out of BOTH.
    #[test]
    fn hoists_recursively_through_nest() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![Type::Ptr, Type::I64], None);
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            let oh = b.block("oh");
            let ih = b.block("ih");
            let ib = b.block("ib");
            let ol = b.block("ol");
            let x = b.block("x");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.jmp(oh);
            b.switch_to(oh);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let ci = b.icmp(Pred::Slt, i, b.arg(1));
            b.br(ci, ih, x);
            b.switch_to(ih);
            let j = b.phi(Type::I64, vec![(oh, zero)]);
            let cj = b.icmp(Pred::Slt, j, b.arg(1));
            b.br(cj, ib, ol);
            b.switch_to(ib);
            let v = b.load(Type::I64, b.arg(0)); // invariant in both loops
            let j2 = b.add(j, one);
            let _ = v;
            b.phi_add_incoming(j, ib, j2);
            b.jmp(ih);
            b.switch_to(ol);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, ol, i2);
            b.jmp(oh);
            b.switch_to(x);
            b.ret(None);
        }
        let mut m = mb.finish();
        inject_guards(&mut m, GuardConfig::default());
        let fid = m.func_by_name("f").unwrap();
        let guards = guard_ids(m.func(fid));
        let mut classes = GuardClasses::with_original(&guards);
        run(m.func_mut(fid), &mut classes);
        verify_module(&m).expect("verifies after nested hoist");
        // The guard must end up outside every loop.
        let f = m.func(fid);
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        for g in guard_ids(f) {
            let gb = f.block_of(g).unwrap();
            for lp in &forest.loops {
                assert!(!lp.contains(gb), "guard still inside a loop");
            }
        }
    }

    use carat_analysis::{Cfg, DomTree, LoopForest};
}
