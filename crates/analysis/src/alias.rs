//! Alias analysis: one query, "may these two accesses overlap?".
//!
//! The CARAT prototype chains 15 LLVM alias analyses (paper §4.1.1) so
//! that Opt 1 can treat a load as loop-invariant when no store in the loop
//! may write it. Its one consumer here reads only "provably disjoint", so
//! we reproduce three disjointness rules in one function,
//! [`AliasQuery::disjoint`], each kept because a program in the end-to-end
//! census hoists a guard that only it allows:
//!
//! * **base object** — the two pointers derive from distinct allocations
//!   (alloca / global / malloc), or one from an argument and the other
//!   from a local allocation the caller cannot have seen;
//! * **constant offset** — the same allocation at constant byte offsets
//!   whose access extents do not meet;
//! * **Steensgaard** — the pointers' points-to classes are distinct and
//!   neither touched memory of unknown provenance; this sees through the
//!   phis and selects that [`trace_base`] gives up on.

use crate::steensgaard::Steensgaard;
use carat_ir::{Const, Function, Inst, ValueId};

/// A memory location: a pointer value plus an access size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLoc {
    /// The address operand.
    pub ptr: ValueId,
    /// Access extent in bytes.
    pub size: u64,
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
            // A phi, a select, a loaded pointer: the points-to classes
            // of `AliasQuery` see through the first two.
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

/// The one alias query: a per-function Steensgaard solution plus the
/// syntactic base-object and constant-offset rules.
#[derive(Debug)]
pub struct AliasQuery {
    points_to: Steensgaard,
}

impl AliasQuery {
    /// Solve the points-to classes of `f` once; every query then costs two
    /// base traces and two class lookups.
    pub fn for_function(f: &Function) -> AliasQuery {
        AliasQuery {
            points_to: Steensgaard::compute(f),
        }
    }

    /// Whether accesses `a` and `b` in `f` provably never overlap.
    pub fn disjoint(&self, f: &Function, a: MemLoc, b: MemLoc) -> bool {
        let (ba, oa) = trace_base(f, a.ptr);
        let (bb, ob) = trace_base(f, b.ptr);
        let syntactic = match (ba, bb) {
            (BaseObject::Unknown, _) | (_, BaseObject::Unknown) => false,
            // Constant offsets into one object: compare the extents.
            (x, y) if x == y => match (oa, ob) {
                (Some(sa), Some(sb)) => sa + a.size as i64 <= sb || sb + b.size as i64 <= sa,
                _ => false,
            },
            // An argument may point at a global or at the caller object
            // another argument points at, but never into an alloca or a
            // heap block allocated in this function.
            (BaseObject::Arg(_), BaseObject::Arg(_) | BaseObject::Global(_))
            | (BaseObject::Global(_), BaseObject::Arg(_)) => false,
            // Two distinct concrete allocations never overlap.
            _ => true,
        };
        syntactic || self.points_to.disjoint(a.ptr, b.ptr)
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
        let aa = AliasQuery::for_function(f);
        assert!(aa.disjoint(f, loc(ids[0]), loc(ids[1])));
        assert!(aa.disjoint(f, loc(ids[0]), loc(ids[2])));
        assert!(aa.disjoint(f, loc(ids[0]), loc(ids[5])));
    }

    #[test]
    fn same_base_disjoint_offsets_do_not_alias() {
        let (m, ids) = setup();
        let f = m.func(m.func_by_name("f").unwrap());
        let aa = AliasQuery::for_function(f);
        // a1+16..24 vs a1+24..32
        assert!(aa.disjoint(f, loc(ids[3]), loc(ids[4])));
        // a1+16..24 vs a1+0..8? base itself
        assert!(aa.disjoint(f, loc(ids[0]), loc(ids[3])));
    }

    #[test]
    fn argument_vs_alloca_no_alias_but_arg_vs_global_may() {
        let (m, ids) = setup();
        let f = m.func(m.func_by_name("f").unwrap());
        let aa = AliasQuery::for_function(f);
        let arg = ids[6];
        assert!(aa.disjoint(f, loc(arg), loc(ids[0])));
        assert!(!aa.disjoint(f, loc(arg), loc(ids[2])));
        // Fresh heap memory cannot be reachable from an incoming argument.
        assert!(aa.disjoint(f, loc(arg), loc(ids[5])));
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
