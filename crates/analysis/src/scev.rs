//! Scalar-evolution analysis for canonical counted loops.
//!
//! CARAT's Opt 2 (guard merging) needs to know, for a guarded address in a
//! loop, the full range of addresses the guard will check across the loop's
//! lifetime. This module recognizes *canonical loops* — a single induction
//! variable `iv = phi(init, iv + step)` bounded by a loop-invariant `N`
//! through `icmp slt/sle` — and classifies addresses as affine functions of
//! the induction variable.

use crate::invariance::LoopInvariance;
use crate::loops::Loop;
use carat_ir::{BinOp, Const, Function, Inst, Pred, Type, ValueId};

/// A recognized `for (iv = init; iv < bound; iv += step)` loop.
#[derive(Debug, Clone)]
pub struct LoopTripInfo {
    /// The induction variable (a header phi).
    pub iv: ValueId,
    /// Initial value of `iv`, flowing in from outside the loop.
    pub init: ValueId,
    /// Constant increment per iteration (positive).
    pub step: i64,
    /// Loop-invariant bound value.
    pub bound: ValueId,
    /// Bound predicate: `Slt` (`iv < bound`) or `Sle` (`iv <= bound`).
    pub bound_pred: Pred,
}

/// An index affine in the canonical induction variable:
/// `index = coeff * iv + inv + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineIndex {
    /// Multiplier of the induction variable (positive).
    pub coeff: i64,
    /// Optional loop-invariant summand.
    pub inv: Option<ValueId>,
    /// Constant summand.
    pub offset: i64,
}

/// How an in-loop address evolves with the induction variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtrEvolution {
    /// Loop-invariant address.
    Invariant,
    /// `base + index * elem.stride()` with `base` loop-invariant and
    /// `index` affine in the canonical induction variable.
    Affine {
        /// Loop-invariant base pointer.
        base: ValueId,
        /// Element type scaling the index.
        elem: Type,
        /// The affine index expression.
        index: AffineIndex,
    },
    /// Anything else.
    Unknown,
}

/// Recognize the canonical induction structure of `lp`, if it has one.
///
/// Requirements: a header phi with exactly one in-loop incoming that is
/// `add(phi, c)` with constant `c > 0`; a header terminator
/// `br (icmp slt/sle phi, N), <in-loop>, <out-of-loop>` with `N`
/// loop-invariant.
pub fn canonical_loop_info(f: &Function, lp: &Loop, inv: &LoopInvariance) -> Option<LoopTripInfo> {
    // Header terminator must be a conditional branch guarding loop entry.
    let term = f.terminator(lp.header)?;
    let Inst::Br {
        cond,
        if_true,
        if_false,
    } = term
    else {
        return None;
    };
    // The "continue" edge goes into the loop, the other leaves it.
    let (continue_in_true, _exit) = match (lp.contains(*if_true), lp.contains(*if_false)) {
        (true, false) => (true, *if_false),
        (false, true) => (false, *if_true),
        _ => return None,
    };
    let Some(Inst::Icmp { pred, lhs, rhs }) = f.inst(*cond) else {
        return None;
    };
    // Normalize to `iv < bound` controlling loop continuation.
    let (iv, bound, bound_pred) = if continue_in_true {
        match pred {
            Pred::Slt | Pred::Sle => (*lhs, *rhs, *pred),
            Pred::Sgt => (*rhs, *lhs, Pred::Slt),
            Pred::Sge => (*rhs, *lhs, Pred::Sle),
            _ => return None,
        }
    } else {
        // Loop continues when the condition is FALSE: `iv >= bound` exits.
        match pred {
            Pred::Sge => (*lhs, *rhs, Pred::Slt),
            Pred::Sgt => (*lhs, *rhs, Pred::Sle),
            _ => return None,
        }
    };
    if !inv.is_invariant(f, lp, bound) {
        return None;
    }
    // iv must be a header phi of the form phi(init_outside, iv + c).
    let Some(Inst::Phi { incomings, .. }) = f.inst(iv) else {
        return None;
    };
    if f.block_of(iv) != Some(lp.header) {
        return None;
    }
    let mut init = None;
    let mut step = None;
    for (pb, pv) in incomings {
        if lp.contains(*pb) {
            // In-loop incoming must be iv + const.
            let Some(Inst::Bin { op, lhs, rhs }) = f.inst(*pv) else {
                return None;
            };
            let c = match (op, *lhs == iv, *rhs == iv) {
                (BinOp::Add, true, false) => const_i64(f, *rhs)?,
                (BinOp::Add, false, true) => const_i64(f, *lhs)?,
                _ => return None,
            };
            if c <= 0 || step.is_some_and(|s| s != c) {
                return None;
            }
            step = Some(c);
        } else {
            if init.is_some_and(|i| i != *pv) {
                return None;
            }
            init = Some(*pv);
        }
    }
    Some(LoopTripInfo {
        iv,
        init: init?,
        step: step?,
        bound,
        bound_pred,
    })
}

/// Classify how `addr` evolves over `lp` given its canonical `trip` info.
pub fn ptr_evolution(
    f: &Function,
    lp: &Loop,
    inv: &LoopInvariance,
    trip: &LoopTripInfo,
    addr: ValueId,
) -> PtrEvolution {
    if inv.is_invariant(f, lp, addr) {
        return PtrEvolution::Invariant;
    }
    let Some(Inst::PtrAdd { base, index, elem }) = f.inst(addr) else {
        return PtrEvolution::Unknown;
    };
    if !inv.is_invariant(f, lp, *base) {
        return PtrEvolution::Unknown;
    }
    match affine_index(f, lp, inv, trip, *index) {
        Some(index) if index.coeff > 0 => PtrEvolution::Affine {
            base: *base,
            elem: elem.clone(),
            index,
        },
        _ => PtrEvolution::Unknown,
    }
}

/// Decompose `idx` into `coeff * iv + inv + offset` with at most one
/// loop-invariant SSA summand. Returns `None` when the expression is not
/// affine in the induction variable (or has two symbolic summands, which
/// the range-guard emitter cannot rebuild without more code).
pub fn affine_index(
    f: &Function,
    lp: &Loop,
    inv: &LoopInvariance,
    trip: &LoopTripInfo,
    idx: ValueId,
) -> Option<AffineIndex> {
    // Strip integer casts.
    let mut v = idx;
    while let Some(Inst::Cast { value, .. }) = f.inst(v) {
        v = *value;
    }
    if v == trip.iv {
        return Some(AffineIndex {
            coeff: 1,
            inv: None,
            offset: 0,
        });
    }
    if let Some(c) = const_i64(f, v) {
        return Some(AffineIndex {
            coeff: 0,
            inv: None,
            offset: c,
        });
    }
    if inv.is_invariant(f, lp, v) {
        return Some(AffineIndex {
            coeff: 0,
            inv: Some(v),
            offset: 0,
        });
    }
    let Some(Inst::Bin { op, lhs, rhs }) = f.inst(v) else {
        return None;
    };
    match op {
        BinOp::Add => {
            let a = affine_index(f, lp, inv, trip, *lhs)?;
            let b = affine_index(f, lp, inv, trip, *rhs)?;
            let merged_inv = match (a.inv, b.inv) {
                (x, None) => x,
                (None, y) => y,
                (Some(_), Some(_)) => return None,
            };
            Some(AffineIndex {
                coeff: a.coeff.checked_add(b.coeff)?,
                inv: merged_inv,
                offset: a.offset.checked_add(b.offset)?,
            })
        }
        BinOp::Sub => {
            let a = affine_index(f, lp, inv, trip, *lhs)?;
            let b = affine_index(f, lp, inv, trip, *rhs)?;
            if b.inv.is_some() {
                return None; // would need emitted negation
            }
            Some(AffineIndex {
                coeff: a.coeff.checked_sub(b.coeff)?,
                inv: a.inv,
                offset: a.offset.checked_sub(b.offset)?,
            })
        }
        BinOp::Mul => {
            let (expr, c) = if let Some(c) = const_i64(f, *rhs) {
                (*lhs, c)
            } else if let Some(c) = const_i64(f, *lhs) {
                (*rhs, c)
            } else {
                return None;
            };
            let a = affine_index(f, lp, inv, trip, expr)?;
            if a.inv.is_some() {
                return None; // would need emitted multiply of the symbol
            }
            Some(AffineIndex {
                coeff: a.coeff.checked_mul(c)?,
                inv: None,
                offset: a.offset.checked_mul(c)?,
            })
        }
        _ => None,
    }
}

fn const_i64(f: &Function, v: ValueId) -> Option<i64> {
    match f.inst(v) {
        Some(Inst::Const(Const::Int(x, _))) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::AliasQuery;
    use crate::cfg::Cfg;
    use crate::dom::DomTree;
    use crate::loops::LoopForest;
    use carat_ir::{ModuleBuilder, Type};

    /// for (i = 0; i < n; i += step) { use a[i]; use p }
    fn build(step: i64, pred: Pred) -> (carat_ir::Module, [ValueId; 3]) {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![Type::Ptr, Type::Ptr, Type::I64], None);
        let ids;
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            let h = b.block("header");
            let body = b.block("body");
            let x = b.block("exit");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let stepc = b.const_i64(step);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(pred, i, b.arg(2));
            b.br(c, body, x);
            b.switch_to(body);
            let ai = b.ptr_add(b.arg(0), i, Type::F64);
            let v = b.load(Type::F64, ai);
            b.store(Type::F64, b.arg(1), v);
            let i2 = b.add(i, stepc);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(None);
            ids = [i, ai, b.arg(1)];
        }
        (mb.finish(), ids)
    }

    fn analyze(m: &carat_ir::Module) -> (&carat_ir::Function, crate::loops::Loop, LoopInvariance) {
        let f = m.func(m.func_by_name("f").unwrap());
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        let lp = forest.loops[0].clone();
        let aa = AliasQuery::for_function(f);
        let inv = LoopInvariance::compute(f, &lp, &aa);
        (f, lp, inv)
    }

    #[test]
    fn recognizes_canonical_loop() {
        let (m, [i, _, _]) = build(1, Pred::Slt);
        let (f, lp, inv) = analyze(&m);
        let trip = canonical_loop_info(f, &lp, &inv).expect("canonical");
        assert_eq!(trip.iv, i);
        assert_eq!(trip.step, 1);
        assert_eq!(trip.bound, f.arg(2));
        assert_eq!(trip.bound_pred, Pred::Slt);
    }

    #[test]
    fn recognizes_strided_loop_and_sle() {
        let (m, _) = build(4, Pred::Sle);
        let (f, lp, inv) = analyze(&m);
        let trip = canonical_loop_info(f, &lp, &inv).expect("canonical");
        assert_eq!(trip.step, 4);
        assert_eq!(trip.bound_pred, Pred::Sle);
    }

    #[test]
    fn classifies_address_evolutions() {
        let (m, [_, ai, p]) = build(1, Pred::Slt);
        let (f, lp, inv) = analyze(&m);
        let trip = canonical_loop_info(f, &lp, &inv).unwrap();
        match ptr_evolution(f, &lp, &inv, &trip, ai) {
            PtrEvolution::Affine { base, elem, index } => {
                assert_eq!(base, f.arg(0));
                assert_eq!(elem, Type::F64);
                assert_eq!(
                    index,
                    AffineIndex {
                        coeff: 1,
                        inv: None,
                        offset: 0
                    }
                );
            }
            other => panic!("expected affine, got {other:?}"),
        }
        assert_eq!(
            ptr_evolution(f, &lp, &inv, &trip, p),
            PtrEvolution::Invariant
        );
    }

    #[test]
    fn rejects_non_canonical_condition() {
        let (m, _) = build(1, Pred::Eq);
        let (f, lp, inv) = analyze(&m);
        assert!(canonical_loop_info(f, &lp, &inv).is_none());
    }

    /// Affine decomposition of composite index expressions.
    #[test]
    fn affine_index_composites() {
        use carat_ir::{BinOp, ModuleBuilder};
        // for (i = 0; i < n; i++) { use a[i*4 + m + 2]; use a[m - i]; }
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare("f", vec![Type::Ptr, Type::I64, Type::I64], None);
        let (idx_good, idx_negcoeff, idx_two_syms);
        {
            let mut b = mb.define(fid);
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
            let four = b.const_i64(4);
            let two = b.const_i64(2);
            let i4 = b.mul(i, four);
            let i4m = b.add(i4, b.arg(2));
            idx_good = b.add(i4m, two); // 4*i + m + 2
            idx_negcoeff = b.sub(b.arg(2), i); // m - i (coeff -1)
            idx_two_syms = b.add(b.arg(1), b.arg(2)); // invariant (single sym? two syms but whole expr invariant)
            let _ = b.bin(BinOp::Xor, idx_good, idx_good);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(None);
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        let lp = forest.loops[0].clone();
        let aa = AliasQuery::for_function(f);
        let inv = LoopInvariance::compute(f, &lp, &aa);
        let trip = canonical_loop_info(f, &lp, &inv).expect("canonical");
        let a = affine_index(f, &lp, &inv, &trip, idx_good).expect("affine");
        assert_eq!(a.coeff, 4);
        assert_eq!(a.inv, Some(f.arg(2)));
        assert_eq!(a.offset, 2);
        // m - i: coeff -1 is representable by affine_index (Sub), but
        // ptr_evolution rejects non-positive coefficients.
        let neg = affine_index(f, &lp, &inv, &trip, idx_negcoeff).expect("affine");
        assert_eq!(neg.coeff, -1);
        // n + m is loop-invariant: the whole expression is one symbol.
        let inv_expr = affine_index(f, &lp, &inv, &trip, idx_two_syms).expect("invariant expr");
        assert_eq!(inv_expr.coeff, 0);
        assert_eq!(inv_expr.inv, Some(idx_two_syms));
    }
}
