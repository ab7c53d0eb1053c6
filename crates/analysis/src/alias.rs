//! Alias analysis.
//!
//! The CARAT prototype combines 15 memory alias analyses with LLVM's alias
//! chaining ("best-of-N"). We reproduce the architecture: several
//! independent analyses behind one [`AliasAnalysis`] trait, combined by
//! [`ChainedAlias`], which returns the most precise answer any member
//! gives. The members implemented are the ones that matter for CARAT's
//! guard optimizations on our IR:
//!
//! * [`BaseObjectAlias`] — resolves each pointer to its base allocation
//!   (alloca / global / malloc / argument) and reports `NoAlias` for
//!   provably distinct bases.
//! * [`OffsetAlias`] — for pointers with the same base, compares constant
//!   byte offsets and access extents.
//! * [`TypeBasedAlias`] — distinct scalar access types of different sizes
//!   at identical SSA addresses cannot fully overlap.

use carat_ir::{Const, Function, Inst, ValueId};

/// The three-way alias verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasResult {
    /// The accesses cannot overlap.
    No,
    /// The accesses may overlap.
    May,
    /// The accesses definitely overlap exactly.
    Must,
}

/// A memory location: a pointer value plus an access size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLoc {
    /// The address operand.
    pub ptr: ValueId,
    /// Access extent in bytes.
    pub size: u64,
}

/// An alias analysis answers queries about two locations in one function.
pub trait AliasAnalysis {
    /// May/must/no-alias verdict for `a` vs `b` in `f`.
    fn alias(&self, f: &Function, a: MemLoc, b: MemLoc) -> AliasResult;
}

/// The base object a pointer is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseObject {
    /// A stack allocation (the alloca's value id).
    Alloca(ValueId),
    /// A global variable.
    Global(carat_ir::GlobalId),
    /// A heap allocation (the malloc call's value id).
    Malloc(ValueId),
    /// A formal parameter (points to caller-owned memory).
    Arg(u32),
    /// A pointer loaded from memory or otherwise untraceable.
    Unknown,
}

/// Resolve `ptr` to `(base, constant byte offset)` if the offset is
/// statically known, else `(base, None)`.
pub fn trace_base(f: &Function, ptr: ValueId) -> (BaseObject, Option<i64>) {
    let mut cur = ptr;
    let mut offset: Option<i64> = Some(0);
    loop {
        match f.inst(cur) {
            None => {
                // Argument.
                if let carat_ir::ValueDef::Arg { index, .. } = f.def(cur) {
                    return (BaseObject::Arg(*index), offset);
                }
                return (BaseObject::Unknown, None);
            }
            Some(Inst::Alloca(_)) => return (BaseObject::Alloca(cur), offset),
            Some(Inst::Const(Const::GlobalAddr(g))) => return (BaseObject::Global(*g), offset),
            Some(Inst::CallIntrinsic { intr, .. }) if *intr == carat_ir::Intrinsic::Malloc => {
                return (BaseObject::Malloc(cur), offset)
            }
            Some(Inst::PtrAdd { base, index, elem }) => {
                offset = match (offset, const_i64(f, *index)) {
                    (Some(o), Some(i)) => o.checked_add(i.wrapping_mul(elem.stride() as i64)),
                    _ => None,
                };
                cur = *base;
            }
            Some(Inst::FieldAddr {
                base,
                struct_ty,
                field,
            }) => {
                offset = offset.map(|o| o + struct_ty.field_offset(*field as usize) as i64);
                cur = *base;
            }
            Some(Inst::Select { .. }) | Some(Inst::Phi { .. }) => {
                return (BaseObject::Unknown, None)
            }
            Some(_) => return (BaseObject::Unknown, None),
        }
    }
}

fn const_i64(f: &Function, v: ValueId) -> Option<i64> {
    match f.inst(v) {
        Some(Inst::Const(Const::Int(x, _))) => Some(*x),
        Some(Inst::Cast { value, .. }) => const_i64(f, *value),
        _ => None,
    }
}

/// Distinct base objects cannot alias.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaseObjectAlias;

impl AliasAnalysis for BaseObjectAlias {
    fn alias(&self, f: &Function, a: MemLoc, b: MemLoc) -> AliasResult {
        let (ba, _) = trace_base(f, a.ptr);
        let (bb, _) = trace_base(f, b.ptr);
        match (ba, bb) {
            (BaseObject::Unknown, _) | (_, BaseObject::Unknown) => AliasResult::May,
            // Two distinct concrete allocations never overlap. Arguments may
            // alias anything except provably-local objects.
            (BaseObject::Arg(_), BaseObject::Alloca(_))
            | (BaseObject::Alloca(_), BaseObject::Arg(_)) => AliasResult::No,
            // A heap block allocated inside this function is fresh, so no
            // incoming argument can already point into it.
            (BaseObject::Arg(_), BaseObject::Malloc(_))
            | (BaseObject::Malloc(_), BaseObject::Arg(_)) => AliasResult::No,
            // An argument may well point at a global.
            (BaseObject::Arg(_), BaseObject::Global(_))
            | (BaseObject::Global(_), BaseObject::Arg(_)) => AliasResult::May,
            // Two arguments may point at the same caller object.
            (BaseObject::Arg(_), BaseObject::Arg(_)) => AliasResult::May,
            (x, y) if x == y => AliasResult::May,
            _ => AliasResult::No,
        }
    }
}

/// Same base, constant offsets: compare extents.
#[derive(Debug, Clone, Copy, Default)]
pub struct OffsetAlias;

impl AliasAnalysis for OffsetAlias {
    fn alias(&self, f: &Function, a: MemLoc, b: MemLoc) -> AliasResult {
        let (ba, oa) = trace_base(f, a.ptr);
        let (bb, ob) = trace_base(f, b.ptr);
        if ba == BaseObject::Unknown || ba != bb {
            return AliasResult::May;
        }
        match (oa, ob) {
            (Some(x), Some(y)) => {
                let (ax, bx) = (x, x + a.size as i64);
                let (ay, by) = (y, y + b.size as i64);
                if bx <= ay || by <= ax {
                    AliasResult::No
                } else if ax == ay && bx == by {
                    AliasResult::Must
                } else {
                    AliasResult::May
                }
            }
            _ => AliasResult::May,
        }
    }
}

/// Identical SSA pointers with identical sizes must alias; differing sizes
/// at the same pointer partially overlap (`May`).
#[derive(Debug, Clone, Copy, Default)]
pub struct TypeBasedAlias;

impl AliasAnalysis for TypeBasedAlias {
    fn alias(&self, _f: &Function, a: MemLoc, b: MemLoc) -> AliasResult {
        if a.ptr == b.ptr {
            if a.size == b.size {
                AliasResult::Must
            } else {
                AliasResult::May
            }
        } else {
            AliasResult::May
        }
    }
}

/// Best-of-N chaining over member analyses, mirroring LLVM's alias chaining
/// as used by the CARAT prototype.
pub struct ChainedAlias {
    members: Vec<Box<dyn AliasAnalysis>>,
}

impl std::fmt::Debug for ChainedAlias {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChainedAlias({} members)", self.members.len())
    }
}

impl Default for ChainedAlias {
    fn default() -> ChainedAlias {
        ChainedAlias::new()
    }
}

impl ChainedAlias {
    /// The standard chain: base-object, offset, and type-based analyses.
    pub fn new() -> ChainedAlias {
        ChainedAlias {
            members: vec![
                Box::new(BaseObjectAlias),
                Box::new(OffsetAlias),
                Box::new(TypeBasedAlias),
            ],
        }
    }

    /// The standard chain plus a per-function Steensgaard points-to
    /// analysis (computed once here), which sees through phis and selects
    /// that the syntactic base tracer punts on.
    pub fn for_function(f: &Function) -> ChainedAlias {
        let mut c = ChainedAlias::new();
        c.members
            .push(Box::new(crate::steensgaard::Steensgaard::compute(f)));
        c
    }
}

impl AliasAnalysis for ChainedAlias {
    fn alias(&self, f: &Function, a: MemLoc, b: MemLoc) -> AliasResult {
        let mut best = AliasResult::May;
        for m in &self.members {
            match m.alias(f, a, b) {
                AliasResult::No => return AliasResult::No,
                AliasResult::Must => best = AliasResult::Must,
                AliasResult::May => {}
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_ir::{GlobalInit, ModuleBuilder, Type};

    /// Two allocas, a global, derived pointers with constant offsets.
    fn setup() -> (carat_ir::Module, Vec<ValueId>) {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", Type::Array(Box::new(Type::I64), 8), GlobalInit::Zero);
        let f = mb.declare("f", vec![Type::Ptr], None);
        let mut ids = Vec::new();
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let a1 = b.alloca(Type::Array(Box::new(Type::I64), 4));
            let a2 = b.alloca(Type::I64);
            let ga = b.global_addr(g);
            let two = b.const_i64(2);
            let a1_2 = b.ptr_add(a1, two, Type::I64); // a1 + 16
            let three = b.const_i64(3);
            let a1_3 = b.ptr_add(a1, three, Type::I64); // a1 + 24
            let size = b.const_i64(32);
            let h = b.malloc(size);
            ids.extend([a1, a2, ga, a1_2, a1_3, h, b.arg(0)]);
            b.ret(None);
        }
        (mb.finish(), ids)
    }

    fn loc(v: ValueId) -> MemLoc {
        MemLoc { ptr: v, size: 8 }
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let (m, ids) = setup();
        let f = m.func(m.func_by_name("f").unwrap());
        let aa = ChainedAlias::new();
        assert_eq!(aa.alias(f, loc(ids[0]), loc(ids[1])), AliasResult::No);
        assert_eq!(aa.alias(f, loc(ids[0]), loc(ids[2])), AliasResult::No);
        assert_eq!(aa.alias(f, loc(ids[0]), loc(ids[5])), AliasResult::No);
    }

    #[test]
    fn same_base_disjoint_offsets_do_not_alias() {
        let (m, ids) = setup();
        let f = m.func(m.func_by_name("f").unwrap());
        let aa = ChainedAlias::new();
        // a1+16..24 vs a1+24..32
        assert_eq!(aa.alias(f, loc(ids[3]), loc(ids[4])), AliasResult::No);
        // a1+16..24 vs a1+0..8? base itself
        assert_eq!(aa.alias(f, loc(ids[0]), loc(ids[3])), AliasResult::No);
    }

    #[test]
    fn identical_pointer_must_alias() {
        let (m, ids) = setup();
        let f = m.func(m.func_by_name("f").unwrap());
        let aa = ChainedAlias::new();
        assert_eq!(aa.alias(f, loc(ids[3]), loc(ids[3])), AliasResult::Must);
    }

    #[test]
    fn argument_vs_alloca_no_alias_but_arg_vs_global_may() {
        let (m, ids) = setup();
        let f = m.func(m.func_by_name("f").unwrap());
        let aa = ChainedAlias::new();
        let arg = ids[6];
        assert_eq!(aa.alias(f, loc(arg), loc(ids[0])), AliasResult::No);
        assert_eq!(aa.alias(f, loc(arg), loc(ids[2])), AliasResult::May);
        // Fresh heap memory cannot be reachable from an incoming argument.
        assert_eq!(aa.alias(f, loc(arg), loc(ids[5])), AliasResult::No);
    }

    #[test]
    fn trace_base_accumulates_offsets() {
        let (m, ids) = setup();
        let f = m.func(m.func_by_name("f").unwrap());
        let (b, off) = trace_base(f, ids[4]);
        assert_eq!(b, BaseObject::Alloca(ids[0]));
        assert_eq!(off, Some(24));
    }
}
