//! Opt 2 — guard merging.
//!
//! Two transformations, both producing [`Intrinsic::GuardRange`] checks:
//!
//! 1. **Loop range merging** (scalar evolution): a guard over
//!    `base + iv * stride` inside a canonical counted loop is replaced by a
//!    single preheader guard over the exact byte range the loop will touch,
//!    `[base + init*stride, base + last*stride + size)`.
//! 2. **Adjacent-access merging**: same-block guards over constant offsets
//!    from one base object whose extents are contiguous collapse into the
//!    earliest guard with a widened extent.

use super::{GuardClass, GuardClasses};
use carat_analysis::{
    canonical_loop_info, ensure_preheader, ptr_evolution, trace_base, AffineIndex, AliasQuery,
    BaseObject, Cfg, DomTree, Loop, LoopForest, LoopInvariance, LoopTripInfo, PtrEvolution,
};
use carat_ir::{BinOp, BlockId, Const, Function, Inst, IntTy, Intrinsic, Pred, Type, ValueId};
use std::collections::HashSet;

/// Run guard merging on `f`. Marks merged guards in `classes`; returns the
/// number of guards folded away.
pub fn run(f: &mut Function, classes: &mut GuardClasses) -> usize {
    let mut n = merge_loop_ranges(f, classes);
    n += merge_adjacent(f, classes);
    n
}

/// The scalar-evolution driven loop merging.
fn merge_loop_ranges(f: &mut Function, classes: &mut GuardClasses) -> usize {
    let aa = AliasQuery::for_function(f);
    let forest = {
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        LoopForest::compute(f, &cfg, &dt)
    };
    let mut merged = 0;
    // Innermost-first so inner ranges land in outer bodies, where another
    // optimization round could process them further.
    let mut order: Vec<usize> = (0..forest.loops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(forest.loops[i].depth));
    for li in order {
        let lp = forest.loops[li].clone();
        merged += merge_one_loop(f, &lp, &aa, classes);
    }
    merged
}

struct Candidate {
    guard: ValueId,
    base: ValueId,
    elem: Type,
    index: AffineIndex,
    size: u64,
    is_store: bool,
}

fn merge_one_loop(
    f: &mut Function,
    lp: &Loop,
    aa: &AliasQuery,
    classes: &mut GuardClasses,
) -> usize {
    let inv = LoopInvariance::compute(f, lp, aa);
    let Some(trip) = canonical_loop_info(f, lp, &inv) else {
        return 0;
    };
    // The range endpoints are computed in the preheader, so everything they
    // use must be defined outside the loop.
    let outside = |v: ValueId| -> bool { f.block_of(v).map(|b| !lp.contains(b)).unwrap_or(true) };
    if !outside(trip.init) || !outside(trip.bound) {
        return 0;
    }
    let mut cands: Vec<Candidate> = Vec::new();
    for &b in &lp.blocks {
        for &v in &f.block(b).insts {
            let Some(Inst::CallIntrinsic { intr, args }) = f.inst(v) else {
                continue;
            };
            let is_store = match intr {
                Intrinsic::GuardLoad => false,
                Intrinsic::GuardStore => true,
                _ => continue,
            };
            let Some(size) = const_of(f, args[1]) else {
                continue;
            };
            match ptr_evolution(f, lp, &inv, &trip, args[0]) {
                PtrEvolution::Affine { base, elem, index } if outside(base) => {
                    cands.push(Candidate {
                        guard: v,
                        base,
                        elem,
                        index,
                        size: size as u64,
                        is_store,
                    })
                }
                _ => {}
            }
        }
    }
    if cands.is_empty() {
        return 0;
    }
    let ph = ensure_preheader(f, lp);
    let mut emitted: Vec<(ValueId, Type, AffineIndex, bool)> = Vec::new();
    let mut merged = 0;
    for c in cands {
        // The invariant summand of the index must be usable in the
        // preheader; hoist its invariant chain there if it lives in-loop.
        if let Some(sym) = c.index.inv {
            if f.block_of(sym).is_some_and(|b| lp.contains(b)) {
                hoist_chain_to_preheader(f, lp, ph, sym);
            }
        }
        // One range guard per distinct (base, elem, index, access kind).
        if !emitted.iter().any(|(b, e, ix, st)| {
            *b == c.base && *e == c.elem && *ix == c.index && *st == c.is_store
        }) {
            emit_range_guard(f, ph, &trip, &c);
            emitted.push((c.base, c.elem.clone(), c.index, c.is_store));
        }
        f.remove_from_block(c.guard);
        classes.mark(c.guard, GuardClass::Merged);
        merged += 1;
    }
    merged
}

/// Move the pure, loop-invariant computation `root` (and its in-loop
/// operand chain) into preheader `ph`, before its terminator.
fn hoist_chain_to_preheader(f: &mut Function, lp: &Loop, ph: BlockId, root: ValueId) {
    fn visit(f: &mut Function, lp: &Loop, ph: BlockId, v: ValueId, seen: &mut HashSet<ValueId>) {
        if !seen.insert(v) {
            return;
        }
        let in_loop = f.block_of(v).is_some_and(|b| lp.contains(b));
        if !in_loop {
            return;
        }
        let ops = f.inst(v).map(|i| i.operands()).unwrap_or_default();
        for op in ops {
            visit(f, lp, ph, op, seen);
        }
        let pos = f.block(ph).insts.len().saturating_sub(1);
        f.move_inst(v, ph, pos);
    }
    let mut seen = HashSet::new();
    visit(f, lp, ph, root, &mut seen);
}

/// Emit, in preheader `ph` (before its terminator), the range guard
/// `carat.guard.range(base + idx(init)*stride, base + idx(last)*stride + size)`
/// where `idx(iv) = coeff*iv + inv + offset` — covering every address the
/// loop touches through this access.
fn emit_range_guard(f: &mut Function, ph: BlockId, trip: &LoopTripInfo, c: &Candidate) {
    let at = |f: &mut Function, inst: Inst| -> ValueId {
        let pos = f.block(ph).insts.len().saturating_sub(1);
        f.insert_at(ph, pos, inst)
    };
    // idx(v) = coeff*v + inv + offset, materialized in the preheader.
    let emit_idx = |f: &mut Function, v: ValueId| -> ValueId {
        let mut cur = if c.index.coeff == 1 {
            v
        } else {
            let coeff = at(f, Inst::Const(Const::Int(c.index.coeff, IntTy::I64)));
            at(
                f,
                Inst::Bin {
                    op: BinOp::Mul,
                    lhs: v,
                    rhs: coeff,
                },
            )
        };
        if let Some(sym) = c.index.inv {
            cur = at(
                f,
                Inst::Bin {
                    op: BinOp::Add,
                    lhs: cur,
                    rhs: sym,
                },
            );
        }
        if c.index.offset != 0 {
            let off = at(f, Inst::Const(Const::Int(c.index.offset, IntTy::I64)));
            cur = at(
                f,
                Inst::Bin {
                    op: BinOp::Add,
                    lhs: cur,
                    rhs: off,
                },
            );
        }
        cur
    };
    let idx_lo = emit_idx(f, trip.init);
    // last iv value = bound - 1 for `<`, bound for `<=`.
    let last_iv = match trip.bound_pred {
        Pred::Slt => {
            let one = at(f, Inst::Const(Const::Int(1, IntTy::I64)));
            at(
                f,
                Inst::Bin {
                    op: BinOp::Sub,
                    lhs: trip.bound,
                    rhs: one,
                },
            )
        }
        _ => trip.bound,
    };
    let idx_hi = emit_idx(f, last_iv);
    let lo = at(
        f,
        Inst::PtrAdd {
            base: c.base,
            index: idx_lo,
            elem: c.elem.clone(),
        },
    );
    let last_ptr = at(
        f,
        Inst::PtrAdd {
            base: c.base,
            index: idx_hi,
            elem: c.elem.clone(),
        },
    );
    let sz = at(f, Inst::Const(Const::Int(c.size as i64, IntTy::I64)));
    let hi = at(
        f,
        Inst::PtrAdd {
            base: last_ptr,
            index: sz,
            elem: Type::I8,
        },
    );
    let is_write = at(
        f,
        Inst::Const(Const::Int(i64::from(c.is_store), IntTy::I64)),
    );
    at(
        f,
        Inst::CallIntrinsic {
            intr: Intrinsic::GuardRange,
            args: vec![lo, hi, is_write],
        },
    );
}

/// Same-block merging of guards over statically adjacent extents.
fn merge_adjacent(f: &mut Function, classes: &mut GuardClasses) -> usize {
    let mut merged = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        merged += merge_adjacent_in_block(f, b, classes);
    }
    merged
}

fn merge_adjacent_in_block(f: &mut Function, b: BlockId, classes: &mut GuardClasses) -> usize {
    // Gather (position, guard, base-object, offset, size, is_store); a call
    // or free between guards stops merging across it (regions may change).
    #[derive(Clone)]
    struct G {
        v: ValueId,
        base: BaseObject,
        off: i64,
        size: i64,
        is_store: bool,
        group: usize,
    }
    let mut gs: Vec<G> = Vec::new();
    let mut group = 0usize;
    for &v in &f.block(b).insts {
        match f.inst(v) {
            Some(Inst::Call { .. }) => group += 1,
            Some(Inst::CallIntrinsic { intr, args }) => match intr {
                Intrinsic::Free => group += 1,
                Intrinsic::GuardLoad | Intrinsic::GuardStore => {
                    let (base, off) = trace_base(f, args[0]);
                    if base == BaseObject::Unknown {
                        continue;
                    }
                    let (Some(off), Some(size)) = (off, const_of(f, args[1])) else {
                        continue;
                    };
                    gs.push(G {
                        v,
                        base,
                        off,
                        size,
                        is_store: *intr == Intrinsic::GuardStore,
                        group,
                    });
                }
                _ => {}
            },
            _ => {}
        }
    }
    // Merge guard j into guard i when same base/kind/group and the extents
    // are contiguous or overlapping. The survivor (the earlier guard, so the
    // check still precedes every covered access) keeps its address and
    // widens its extent, which requires it to also be the lowest address.
    let mut removed = 0;
    let mut handled = vec![false; gs.len()];
    for i in 0..gs.len() {
        if handled[i] {
            continue;
        }
        let mut lo = gs[i].off;
        let mut hi = gs[i].off + gs[i].size;
        // Grow the span to a fixpoint over compatible later guards.
        let mut added: Vec<usize> = Vec::new();
        loop {
            let mut grew = false;
            for j in (i + 1)..gs.len() {
                if handled[j]
                    || added.contains(&j)
                    || gs[j].group != gs[i].group
                    || gs[j].base != gs[i].base
                    || gs[j].is_store != gs[i].is_store
                {
                    continue;
                }
                let (jl, jh) = (gs[j].off, gs[j].off + gs[j].size);
                if jl <= hi && jh >= lo {
                    lo = lo.min(jl);
                    hi = hi.max(jh);
                    added.push(j);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        if added.is_empty() || lo != gs[i].off {
            // Nothing to merge, or the survivor would need a new (lower)
            // base address; leave this set untouched.
            continue;
        }
        let new_len = f.insert_before(gs[i].v, Inst::Const(Const::Int(hi - lo, IntTy::I64)));
        if let Some(Inst::CallIntrinsic { args, .. }) = f.inst_mut(gs[i].v) {
            args[1] = new_len;
        }
        handled[i] = true;
        for j in added {
            handled[j] = true;
            f.remove_from_block(gs[j].v);
            classes.mark(gs[j].v, GuardClass::Merged);
            removed += 1;
        }
    }
    removed
}

fn const_of(f: &Function, v: ValueId) -> Option<i64> {
    match f.inst(v) {
        Some(Inst::Const(Const::Int(x, _))) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::{guard_ids, inject_guards, GuardConfig};
    use carat_ir::{verify_module, Module, ModuleBuilder};

    /// for (i = 0; i < n; i++) sum += a[i];
    fn streaming_loop() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![Type::Ptr, Type::I64], Some(Type::I64));
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
            let s = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(1));
            b.br(c, body, x);
            b.switch_to(body);
            let ai = b.ptr_add(b.arg(0), i, Type::I64);
            let v = b.load(Type::I64, ai);
            let s2 = b.add(s, v);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.phi_add_incoming(s, body, s2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(Some(s));
        }
        mb.finish()
    }

    #[test]
    fn loop_guard_becomes_preheader_range_guard() {
        let mut m = streaming_loop();
        inject_guards(&mut m, GuardConfig::default());
        let fid = m.func_by_name("f").unwrap();
        let guards = guard_ids(m.func(fid));
        assert_eq!(guards.len(), 1);
        let mut classes = GuardClasses::with_original(&guards);
        let n = run(m.func_mut(fid), &mut classes);
        assert_eq!(n, 1);
        verify_module(&m).expect("merged module verifies");
        let f = m.func(fid);
        let remaining = guard_ids(f);
        assert_eq!(remaining.len(), 1);
        let g = remaining[0];
        assert!(matches!(
            f.inst(g),
            Some(Inst::CallIntrinsic {
                intr: Intrinsic::GuardRange,
                ..
            })
        ));
        // The range guard must live outside the loop body.
        let gb = f.block_of(g).unwrap();
        assert_ne!(gb, BlockId(2), "range guard not in loop body");
        assert_eq!(classes.census().merged, 1);
    }

    /// Adjacent struct-field accesses merge into one widened guard.
    #[test]
    fn adjacent_field_guards_merge() {
        let st = Type::Struct(vec![Type::I64, Type::I64, Type::I64]);
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let p = b.alloca(st.clone());
            let f0 = b.field_addr(p, st.clone(), 0);
            let f1 = b.field_addr(p, st.clone(), 1);
            let f2 = b.field_addr(p, st.clone(), 2);
            let x0 = b.load(Type::I64, f0);
            let x1 = b.load(Type::I64, f1);
            let x2 = b.load(Type::I64, f2);
            let s1 = b.add(x0, x1);
            let s2 = b.add(s1, x2);
            b.ret(Some(s2));
        }
        let mut m = mb.finish();
        inject_guards(&mut m, GuardConfig::default());
        let fid = m.func_by_name("f").unwrap();
        let guards = guard_ids(m.func(fid));
        assert_eq!(guards.len(), 3);
        let mut classes = GuardClasses::with_original(&guards);
        let n = run(m.func_mut(fid), &mut classes);
        assert_eq!(n, 2, "two of three guards absorbed");
        verify_module(&m).unwrap();
        let f = m.func(fid);
        let remaining = guard_ids(f);
        assert_eq!(remaining.len(), 1);
        // Survivor covers all 24 bytes.
        assert_eq!(crate::guards::guard_extent(f, remaining[0]), Some(24));
    }

    /// Accesses with a hole between them must not merge.
    #[test]
    fn disjoint_guards_do_not_merge() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let p = b.alloca(Type::Array(Box::new(Type::I64), 10));
            let zero = b.const_i64(0);
            let nine = b.const_i64(9);
            let p0 = b.ptr_add(p, zero, Type::I64);
            let p9 = b.ptr_add(p, nine, Type::I64);
            let a = b.load(Type::I64, p0);
            let c = b.load(Type::I64, p9);
            let s = b.add(a, c);
            b.ret(Some(s));
        }
        let mut m = mb.finish();
        inject_guards(&mut m, GuardConfig::default());
        let fid = m.func_by_name("f").unwrap();
        let guards = guard_ids(m.func(fid));
        let mut classes = GuardClasses::with_original(&guards);
        let n = run(m.func_mut(fid), &mut classes);
        assert_eq!(n, 0);
        assert_eq!(guard_ids(m.func(fid)).len(), 2);
    }

    /// A strided loop merges to the full strided range.
    #[test]
    fn strided_loop_merges() {
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
            let four = b.const_i64(4);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(1));
            b.br(c, body, x);
            b.switch_to(body);
            let ai = b.ptr_add(b.arg(0), i, Type::F64);
            let z = b.const_f64(0.0);
            b.store(Type::F64, ai, z);
            let i2 = b.add(i, four);
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
        assert_eq!(n, 1);
        verify_module(&m).unwrap();
    }
}
