//! Whole-trip guard proofs for the threaded engine tier.
//!
//! The IR-level passes (hoist/merge/AC-DC) remove guards by *rewriting the
//! module*; this module instead produces a side table of **proofs** that the
//! decode-time threaded tier consumes to drop guard slots from the decoded
//! stream and replace a whole loop trip of per-access checks with one
//! widened range check at the preheader. Nothing here mutates the IR — a
//! proof is only a license the runtime may decline (e.g. when the ablation
//! config disables elision).
//!
//! A guard `carat.guard.{load,store}(addr, len)` inside loop `L` is provable
//! when:
//!
//! 1. `L` is a canonical counted loop ([`canonical_loop_info`]) with a
//!    *structural* preheader (single outside predecessor whose only
//!    successor is the header) and **all exits at the header** — so the
//!    guard executes exactly once per trip iteration;
//! 2. the guard's block dominates every latch and belongs to `L` itself
//!    (not a nested loop), and is not the header (which runs trip+1 times);
//! 3. no instruction in `L` can retire region coverage mid-trip: no
//!    `free`/`spawn`/`join` intrinsics, and no calls that transitively
//!    reach one (calls are pessimistically rejected when no module is
//!    supplied for the interprocedural walk; `malloc` is benign — it only
//!    adds regions);
//! 4. `addr` evolves as `base + elem*(coeff*iv + inv + offset)` with
//!    `coeff > 0` ([`ptr_evolution`]), or is loop-invariant — and every
//!    value the preheader check reads (`base`, `inv`, the bound) is defined
//!    *outside* the loop, so it is available before the first iteration;
//! 5. the guard's length is a positive constant, or value-range analysis
//!    ([`ValueRanges`]) bounds it within `[1, 4096]` — the widened span
//!    then uses the upper bound.
//!
//! The same scan also finds *block-local* redundancies that need no loop at
//! all: a guard dominated by an identical-or-wider guard on the same SSA
//! address earlier in its block, and tracking calls that exactly duplicate
//! an earlier one with no intervening write. These become `dup_guards` /
//! `dup_tracks`.

use crate::alias::AliasQuery;
use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::invariance::LoopInvariance;
use crate::loops::{Loop, LoopForest};
use crate::range::ValueRanges;
use crate::scev::{canonical_loop_info, ptr_evolution, PtrEvolution};
use carat_ir::{
    BinOp, BlockId, Const, FuncId, Function, Inst, IntTy, Intrinsic, Module, Type, ValueId,
};

/// Largest guard length (bytes) accepted from value-range analysis when the
/// length operand is not a literal constant. Keeps widened spans sane.
const MAX_RANGED_LEN: i64 = 4096;

/// How the address of a proven guard evolves over the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofKind {
    /// `addr = base + elem*(coeff*iv + inv + offset)`, `coeff > 0`.
    Affine,
    /// `addr` is the same loop-invariant pointer every iteration.
    Invariant,
}

/// A proof that one in-loop guard can be elided for the whole trip and
/// replaced by a single widened range check at the preheader.
///
/// Every [`ValueId`] recorded here is defined outside the loop, so the
/// runtime can read its register before the first iteration.
#[derive(Debug, Clone)]
pub struct GuardProof {
    /// The guard instruction (a `CallIntrinsic` of `GuardLoad`/`GuardStore`).
    pub guard: ValueId,
    /// Whether the guarded access is a write.
    pub write: bool,
    /// Proof shape.
    pub kind: ProofKind,
    /// Base pointer (`Affine`), or the invariant address itself.
    pub base: ValueId,
    /// Element stride scaling the index; 0 for `Invariant`.
    pub elem: u64,
    /// Induction-variable coefficient; 0 for `Invariant`.
    pub coeff: i64,
    /// Optional loop-invariant index summand.
    pub inv: Option<ValueId>,
    /// Constant index summand.
    pub offset: i64,
    /// Constant byte offset added after scaling — the accumulated field
    /// offsets of peeled `FieldAddr` wrappers around the affine address.
    pub byte_off: u64,
    /// Access length in bytes (upper bound when range-derived).
    pub len: u64,
}

/// A canonical loop with at least one provable guard.
#[derive(Debug, Clone)]
pub struct LoopPlan {
    /// Loop header.
    pub header: BlockId,
    /// Structural preheader (single outside predecessor of the header).
    pub preheader: BlockId,
    /// The canonical induction variable (a header phi).
    pub iv: ValueId,
    /// Initial induction value, defined outside the loop.
    pub init: ValueId,
    /// Loop-invariant bound, defined outside the loop. When the source
    /// bound was computed *inside* the loop header from invariant terms,
    /// this is the positive term of the peeled form
    /// `bound − bound_minus + bound_const` (see [`peel_bound`]).
    pub bound: ValueId,
    /// Optional negative term of a peeled bound expression.
    pub bound_minus: Option<ValueId>,
    /// Constant summand of a peeled bound expression.
    pub bound_const: i64,
    /// Positive constant step.
    pub step: i64,
    /// `true` for `iv <= bound`, `false` for `iv < bound`.
    pub inclusive: bool,
    /// Proven guards, in layout order.
    pub guards: Vec<GuardProof>,
    /// Guards inside the loop the prover looked at and rejected, with the
    /// reason — surfaced by `compile_inspect` to debug missed optimization.
    pub rejected: Vec<(ValueId, &'static str)>,
}

/// All whole-trip and block-local proofs for one function.
#[derive(Debug, Clone, Default)]
pub struct FunctionProofs {
    /// Canonical loops with their proven guards (outermost-first, matching
    /// [`LoopForest`] order; only loops that passed the structural checks).
    pub loops: Vec<LoopPlan>,
    /// Loops that failed a structural precondition: `(header, reason)`.
    pub skipped_loops: Vec<(BlockId, &'static str)>,
    /// Guards dominated by an identical-or-wider guard earlier in the same
    /// block (same SSA address, same access, no region-table hazard between).
    pub dup_guards: Vec<ValueId>,
    /// Tracking calls that exactly duplicate an earlier call in the same
    /// block with no intervening memory write.
    pub dup_tracks: Vec<ValueId>,
}

impl FunctionProofs {
    /// Total guards proven elidable across all loops.
    pub fn proven_guards(&self) -> usize {
        self.loops.iter().map(|l| l.guards.len()).sum()
    }
}

/// Whether `v` is defined outside `lp` (arguments always are).
fn defined_outside(f: &Function, lp: &Loop, v: ValueId) -> bool {
    match f.block_of(v) {
        Some(b) => !lp.contains(b),
        None => true,
    }
}

/// A loop bound peeled into outside-defined terms:
/// `bound = plus − minus + konst`, all arithmetic wrapping at 64 bits.
struct PeeledBound {
    plus: ValueId,
    minus: Option<ValueId>,
    konst: i64,
}

/// Peel a header-computed bound through pure `i64` add/sub chains whose
/// leaves are all defined outside the loop.
///
/// Compilers routinely materialize `for (i = a; i < b - c; i++)` as a
/// header-block `sub` of two invariants, which the naive "bound defined
/// outside" check rejects. The peel recovers an equivalent
/// `plus − minus + konst` form whose registers the runtime *can* read at
/// the preheader. Conservative on purpose: only `Add`/`Sub`/`Const`
/// nodes, only one non-constant term per sign, and only `i64` width so
/// the wrapping re-association is exact.
fn peel_bound(f: &Function, lp: &Loop, bound: ValueId) -> Option<PeeledBound> {
    let mut plus = None;
    let mut minus = None;
    let mut konst: i64 = 0;
    let mut stack = vec![(bound, true)];
    while let Some((v, pos)) = stack.pop() {
        // Outside-defined leaves become register terms (constants included —
        // their registers hold the value by the time the preheader runs);
        // only *in-loop* constants fold into the immediate.
        if defined_outside(f, lp, v) {
            if f.value_type(v) != Some(Type::Int(IntTy::I64)) {
                return None;
            }
            let slot = if pos { &mut plus } else { &mut minus };
            if slot.is_some() {
                return None;
            }
            *slot = Some(v);
            continue;
        }
        if let Some(Inst::Const(Const::Int(c, _))) = f.inst(v) {
            konst = konst.wrapping_add(if pos { *c } else { c.wrapping_neg() });
            continue;
        }
        match f.inst(v)? {
            Inst::Bin {
                op: BinOp::Add,
                lhs,
                rhs,
            } => {
                stack.push((*lhs, pos));
                stack.push((*rhs, pos));
            }
            Inst::Bin {
                op: BinOp::Sub,
                lhs,
                rhs,
            } => {
                stack.push((*lhs, pos));
                stack.push((*rhs, !pos));
            }
            _ => return None,
        }
    }
    Some(PeeledBound {
        plus: plus?,
        minus,
        konst,
    })
}

/// The structural preheader of `lp`, if one already exists (this never
/// mutates the function, unlike [`crate::ensure_preheader`]).
fn structural_preheader(cfg: &Cfg, lp: &Loop) -> Option<BlockId> {
    let outside: Vec<BlockId> = cfg.preds[lp.header.index()]
        .iter()
        .copied()
        .filter(|p| !lp.contains(*p))
        .collect();
    match outside.as_slice() {
        [p] if cfg.succs[p.index()].len() == 1 => Some(*p),
        _ => None,
    }
}

/// Whether every edge leaving `lp` originates at the header.
fn exits_only_at_header(cfg: &Cfg, lp: &Loop) -> bool {
    lp.blocks
        .iter()
        .all(|&b| b == lp.header || cfg.succs[b.index()].iter().all(|s| lp.contains(*s)))
}

/// Per-function callee-safety memo: unknown / on the current DFS path /
/// proven safe / proven hazardous.
const CS_UNKNOWN: u8 = 0;
const CS_VISITING: u8 = 1;
const CS_SAFE: u8 = 2;
const CS_HAZARD: u8 = 3;

/// Intrinsics that can *retire* region coverage mid-trip. `malloc` is
/// deliberately not here: adding a region is monotonic — a containment
/// established by an earlier check cannot be invalidated by it. `free`
/// shrinks coverage, and `spawn`/`join` hand control to another thread
/// that might.
fn shrinks_regions(intr: &Intrinsic) -> bool {
    matches!(intr, Intrinsic::Free | Intrinsic::Spawn | Intrinsic::Join)
}

/// Whether calling `fid` can (transitively) retire region coverage —
/// reach one of the [`shrinks_regions`] intrinsics. Recursion is treated
/// as hazardous: a cycle's fixpoint is not worth the code.
fn callee_alters_regions(m: &Module, fid: FuncId, memo: &mut [u8]) -> bool {
    match memo[fid.index()] {
        CS_SAFE => return false,
        CS_HAZARD | CS_VISITING => return true,
        _ => {}
    }
    memo[fid.index()] = CS_VISITING;
    let hazard = m
        .func(fid)
        .insts_in_layout_order()
        .any(|(_, _, i)| match i {
            Inst::Call { callee, .. } => callee_alters_regions(m, *callee, memo),
            Inst::CallIntrinsic { intr, .. } => shrinks_regions(intr),
            _ => false,
        });
    memo[fid.index()] = if hazard { CS_HAZARD } else { CS_SAFE };
    hazard
}

/// Whether an instruction could retire region coverage (or run arbitrary
/// code that does) — the hazard that invalidates a preheader-time check.
/// With a module in hand, calls are checked transitively; without one,
/// any call is assumed hazardous.
fn region_hazard(inst: &Inst, module: Option<&Module>, memo: &mut [u8]) -> bool {
    match inst {
        Inst::Call { callee, .. } => match module {
            Some(m) => callee_alters_regions(m, *callee, memo),
            None => true,
        },
        Inst::CallIntrinsic { intr, .. } => shrinks_regions(intr),
        _ => false,
    }
}

/// Whether any instruction in `lp` is a region hazard.
fn loop_region_stable(f: &Function, lp: &Loop, module: Option<&Module>, memo: &mut [u8]) -> bool {
    lp.blocks
        .iter()
        .flat_map(|&b| f.block(b).insts.iter())
        .all(|&v| f.inst(v).is_none_or(|i| !region_hazard(i, module, memo)))
}

/// Resolve a guard-length operand to a positive byte count: a literal
/// constant, or a value-range upper bound within `[1, MAX_RANGED_LEN]`.
fn guard_len(f: &Function, ranges: &ValueRanges, v: ValueId) -> Option<u64> {
    if let Some(Inst::Const(Const::Int(n, _))) = f.inst(v) {
        return (*n > 0).then_some(*n as u64);
    }
    let r = ranges.range(v)?;
    (r.lo >= 1 && r.hi <= MAX_RANGED_LEN as i128).then_some(r.hi as u64)
}

/// Compute whole-trip and block-local guard proofs for `f`, treating any
/// call as a region-table hazard. Prefer [`prove_function_in`] when the
/// enclosing module is available.
pub fn prove_function(f: &Function) -> FunctionProofs {
    prove_function_in(f, None)
}

/// Compute whole-trip and block-local guard proofs for `f`. With `module`
/// supplied, in-loop calls are checked transitively for region-table
/// hazards instead of pessimistically rejecting the loop.
pub fn prove_function_in(f: &Function, module: Option<&Module>) -> FunctionProofs {
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let forest = LoopForest::compute(f, &cfg, &dt);
    let aa = AliasQuery::for_function(f);
    let ranges = ValueRanges::compute(f);
    let mut memo = vec![CS_UNKNOWN; module.map_or(0, Module::num_funcs)];
    let mut out = FunctionProofs::default();

    for (li, lp) in forest.loops.iter().enumerate() {
        if !cfg.is_reachable(lp.header) {
            continue;
        }
        let Some(preheader) = structural_preheader(&cfg, lp) else {
            out.skipped_loops
                .push((lp.header, "no structural preheader"));
            continue;
        };
        if !exits_only_at_header(&cfg, lp) {
            out.skipped_loops
                .push((lp.header, "side exit below header"));
            continue;
        }
        if !loop_region_stable(f, lp, module, &mut memo) {
            out.skipped_loops
                .push((lp.header, "region-shrinking call or intrinsic in loop"));
            continue;
        }
        let inv = LoopInvariance::compute(f, lp, &aa);
        let Some(trip) = canonical_loop_info(f, lp, &inv) else {
            out.skipped_loops
                .push((lp.header, "no canonical induction"));
            continue;
        };
        let (bound, bound_minus, bound_const) = if defined_outside(f, lp, trip.bound) {
            (trip.bound, None, 0)
        } else if let Some(p) = peel_bound(f, lp, trip.bound) {
            (p.plus, p.minus, p.konst)
        } else {
            out.skipped_loops.push((lp.header, "bound defined in loop"));
            continue;
        };

        let mut plan = LoopPlan {
            header: lp.header,
            preheader,
            iv: trip.iv,
            init: trip.init,
            bound,
            bound_minus,
            bound_const,
            step: trip.step,
            inclusive: trip.bound_pred == carat_ir::Pred::Sle,
            guards: Vec::new(),
            rejected: Vec::new(),
        };

        for &b in cfg.rpo.iter().filter(|&&b| lp.contains(b)) {
            // Only guards that run exactly once per iteration: in this loop
            // (not a nested one), below the header, dominating every latch.
            if b == lp.header
                || forest.innermost_containing(b) != Some(li)
                || !lp.latches.iter().all(|&l| dt.dominates(b, l))
            {
                continue;
            }
            for &v in &f.block(b).insts {
                let Some(Inst::CallIntrinsic { intr, args }) = f.inst(v) else {
                    continue;
                };
                let write = match intr {
                    Intrinsic::GuardLoad => false,
                    Intrinsic::GuardStore => true,
                    _ => continue,
                };
                let [addr, len_arg] = args.as_slice() else {
                    plan.rejected.push((v, "malformed guard args"));
                    continue;
                };
                let Some(len) = guard_len(f, &ranges, *len_arg) else {
                    plan.rejected.push((v, "unbounded guard length"));
                    continue;
                };
                // Peel `FieldAddr` wrappers: each adds a constant byte
                // offset to an address whose evolution is then classified.
                let mut peeled = *addr;
                let mut byte_off = 0u64;
                while let Some(Inst::FieldAddr {
                    base,
                    struct_ty,
                    field,
                }) = f.inst(peeled)
                {
                    byte_off += struct_ty.field_offset(*field as usize);
                    peeled = *base;
                }
                match ptr_evolution(f, lp, &inv, &trip, peeled) {
                    PtrEvolution::Invariant => {
                        if !defined_outside(f, lp, peeled) {
                            plan.rejected.push((v, "invariant addr defined in loop"));
                            continue;
                        }
                        plan.guards.push(GuardProof {
                            guard: v,
                            write,
                            kind: ProofKind::Invariant,
                            base: peeled,
                            elem: 0,
                            coeff: 0,
                            inv: None,
                            offset: 0,
                            byte_off,
                            len,
                        });
                    }
                    PtrEvolution::Affine { base, elem, index } => {
                        if !defined_outside(f, lp, base) {
                            plan.rejected.push((v, "base defined in loop"));
                            continue;
                        }
                        if index.inv.is_some_and(|s| !defined_outside(f, lp, s)) {
                            plan.rejected.push((v, "index symbol defined in loop"));
                            continue;
                        }
                        let stride = elem.stride();
                        if stride == 0 {
                            plan.rejected.push((v, "zero element stride"));
                            continue;
                        }
                        plan.guards.push(GuardProof {
                            guard: v,
                            write,
                            kind: ProofKind::Affine,
                            base,
                            elem: stride,
                            coeff: index.coeff,
                            inv: index.inv,
                            offset: index.offset,
                            byte_off,
                            len,
                        });
                    }
                    PtrEvolution::Unknown => {
                        plan.rejected.push((v, "address not affine in iv"));
                    }
                }
            }
        }
        if !plan.guards.is_empty() || !plan.rejected.is_empty() {
            out.loops.push(plan);
        }
    }

    block_local_redundancies(f, module, &mut memo, &mut out);
    out
}

/// Find block-local dominated-duplicate guards and duplicate tracking calls.
fn block_local_redundancies(
    f: &Function,
    module: Option<&Module>,
    memo: &mut [u8],
    out: &mut FunctionProofs,
) {
    for b in f.block_ids() {
        // addr -> (len, write) of the widest guard seen since the last hazard.
        let mut guards_seen: Vec<(ValueId, u64, bool)> = Vec::new();
        // (intr, args) of tracking calls seen since the last write.
        let mut tracks_seen: Vec<(Intrinsic, Vec<ValueId>)> = Vec::new();
        for &v in &f.block(b).insts {
            let Some(inst) = f.inst(v) else { continue };
            if region_hazard(inst, module, memo) {
                guards_seen.clear();
                tracks_seen.clear();
                continue;
            }
            let writes_memory = matches!(inst, Inst::Store { .. })
                || matches!(
                    inst,
                    Inst::CallIntrinsic {
                        intr: Intrinsic::Memcpy | Intrinsic::Memset,
                        ..
                    }
                );
            if writes_memory {
                tracks_seen.clear();
            }
            let Inst::CallIntrinsic { intr, args } = inst else {
                continue;
            };
            match intr {
                Intrinsic::GuardLoad | Intrinsic::GuardStore => {
                    let write = *intr == Intrinsic::GuardStore;
                    let [addr, len_arg] = args.as_slice() else {
                        continue;
                    };
                    let Some(Inst::Const(Const::Int(len, _))) = f.inst(*len_arg) else {
                        continue;
                    };
                    if *len <= 0 {
                        continue;
                    }
                    let len = *len as u64;
                    if guards_seen
                        .iter()
                        .any(|&(a, l, w)| a == *addr && w == write && len <= l)
                    {
                        out.dup_guards.push(v);
                    } else {
                        guards_seen.push((*addr, len, write));
                    }
                }
                Intrinsic::TrackEscape => {
                    if tracks_seen.iter().any(|(i, a)| i == intr && a == args) {
                        out.dup_tracks.push(v);
                    } else {
                        tracks_seen.push((*intr, args.clone()));
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_ir::{ModuleBuilder, Pred, Type};

    /// entry -> preheader-shaped entry -> header{phi,icmp,br} -> body -> exit
    /// with `guard.load(a[i], 8)` in the body.
    fn guarded_loop(escape: bool) -> carat_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare("f", vec![Type::Ptr, Type::I64], None);
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            let h = b.block("header");
            let body = b.block("body");
            let x = b.block("exit");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let eight = b.const_i64(8);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(1));
            b.br(c, body, x);
            b.switch_to(body);
            let ai = b.ptr_add(b.arg(0), i, Type::F64);
            let addr = if escape {
                // Address loaded from memory: not affine in the iv.
                b.load(Type::Ptr, ai)
            } else {
                ai
            };
            b.intr(Intrinsic::GuardLoad, vec![addr, eight]);
            let _ = b.load(Type::F64, addr);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn proves_affine_guard() {
        let m = guarded_loop(false);
        let f = m.func(m.func_by_name("f").unwrap());
        let p = prove_function(f);
        assert_eq!(p.loops.len(), 1);
        let lp = &p.loops[0];
        assert_eq!(lp.guards.len(), 1);
        let g = &lp.guards[0];
        assert_eq!(g.kind, ProofKind::Affine);
        assert_eq!(g.base, f.arg(0));
        assert_eq!(g.elem, 8);
        assert_eq!(g.coeff, 1);
        assert_eq!(g.len, 8);
        assert!(!g.write);
        assert_eq!(lp.step, 1);
        assert!(!lp.inclusive);
    }

    #[test]
    fn rejects_non_affine_address() {
        let m = guarded_loop(true);
        let f = m.func(m.func_by_name("f").unwrap());
        let p = prove_function(f);
        assert_eq!(p.proven_guards(), 0);
        assert!(p.loops.iter().any(|l| l
            .rejected
            .iter()
            .any(|(_, r)| *r == "address not affine in iv")));
    }

    #[test]
    fn call_in_loop_defeats_proof() {
        let mut mb = ModuleBuilder::new("m");
        let callee = mb.declare("g", vec![], None);
        let fid = mb.declare("f", vec![Type::Ptr, Type::I64], None);
        {
            let mut b = mb.define(callee);
            let e = b.block("entry");
            b.switch_to(e);
            b.ret(None);
        }
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            let h = b.block("header");
            let body = b.block("body");
            let x = b.block("exit");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let eight = b.const_i64(8);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(1));
            b.br(c, body, x);
            b.switch_to(body);
            let ai = b.ptr_add(b.arg(0), i, Type::F64);
            b.intr(Intrinsic::GuardLoad, vec![ai, eight]);
            let _ = b.load(Type::F64, ai);
            b.call(callee, vec![], None);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(None);
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        let p = prove_function(f);
        assert_eq!(p.proven_guards(), 0);
        assert!(p
            .skipped_loops
            .iter()
            .any(|(_, r)| *r == "region-shrinking call or intrinsic in loop"));
    }

    #[test]
    fn finds_block_local_duplicate_guard() {
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare("f", vec![Type::Ptr], None);
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            b.switch_to(e);
            let eight = b.const_i64(8);
            let four = b.const_i64(4);
            b.intr(Intrinsic::GuardLoad, vec![b.arg(0), eight]);
            let _ = b.load(Type::F64, b.arg(0));
            // Narrower read guard on the same address: redundant.
            b.intr(Intrinsic::GuardLoad, vec![b.arg(0), four]);
            let _ = b.load(Type::I32, b.arg(0));
            // Write guard is NOT covered by a read guard.
            b.intr(Intrinsic::GuardStore, vec![b.arg(0), four]);
            b.ret(None);
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        let p = prove_function(f);
        assert_eq!(p.dup_guards.len(), 1);
    }
}
