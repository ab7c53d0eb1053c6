//! Ergonomic construction of modules and functions.
//!
//! The builder is used by the Cm front end, by the workload suite, and by
//! tests. Constants are interned into the entry block so they dominate all
//! uses.

use crate::func::Function;
use crate::inst::{
    BinOp, BlockId, CastKind, Const, FuncId, GlobalId, Inst, Intrinsic, Pred, ValueId,
};
use crate::module::{Global, GlobalInit, Module};
use crate::types::{IntTy, Type};
use std::collections::HashMap;

/// Builds a [`Module`]: declare globals and function signatures first, then
/// define bodies through [`ModuleBuilder::define`].
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Start building a module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Declare a global variable.
    pub fn global(&mut self, name: impl Into<String>, ty: Type, init: GlobalInit) -> GlobalId {
        self.module.add_global(Global {
            name: name.into(),
            ty,
            init,
        })
    }

    /// Declare a function signature; the body is defined later.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        params: Vec<Type>,
        ret: Option<Type>,
    ) -> FuncId {
        self.module.add_func(Function::new(name, params, ret))
    }

    /// Open a [`FuncBuilder`] over a previously declared function.
    pub fn define(&mut self, f: FuncId) -> FuncBuilder<'_> {
        FuncBuilder::new(self.module.func_mut(f))
    }

    /// Direct mutable access to a declared function (used by passes that
    /// post-process freshly built functions).
    pub fn func_mut(&mut self, f: FuncId) -> &mut Function {
        self.module.func_mut(f)
    }

    /// Finish and return the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// Appends instructions to one function, tracking a current block.
#[derive(Debug)]
pub struct FuncBuilder<'a> {
    f: &'a mut Function,
    cur: Option<BlockId>,
    const_pool: HashMap<ConstKey, ValueId>,
    /// Per-block predecessor lists, kept equal to
    /// [`Function::predecessors`] as [`FuncBuilder::push`] appends each
    /// terminator, so SSA construction never rebuilds the CFG.
    preds: Vec<Vec<BlockId>>,
}

/// Hashable key for constant interning (f64 by bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64, IntTy),
    F64(u64),
    Null,
    GlobalAddr(GlobalId),
}

impl<'a> FuncBuilder<'a> {
    /// Wrap an existing function for appending.
    pub fn new(f: &'a mut Function) -> FuncBuilder<'a> {
        FuncBuilder {
            preds: f.predecessors(),
            f,
            cur: None,
            const_pool: HashMap::new(),
        }
    }

    /// The function under construction.
    pub fn func(&self) -> &Function {
        self.f
    }

    /// Mutable access to an instruction in the function under construction
    /// (used by SSA construction to fill phi incomings).
    pub fn func_mut_inst(&mut self, v: ValueId) -> Option<&mut Inst> {
        self.f.inst_mut(v)
    }

    /// Insert an empty phi of IR type `ty` at position `pos` of `block`.
    pub fn insert_phi_at(&mut self, block: BlockId, pos: usize, ty: Type) -> ValueId {
        self.f.insert_at(
            block,
            pos,
            Inst::Phi {
                ty,
                incomings: Vec::new(),
            },
        )
    }

    /// Formal parameter `i`.
    pub fn arg(&self, i: usize) -> ValueId {
        self.f.arg(i)
    }

    /// Create a block (does not switch to it).
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        self.preds.push(Vec::new());
        self.f.add_block(name)
    }

    /// Predecessors of `b` as the CFG stands now: exactly
    /// `self.func().predecessors()[b]` — ascending block order, a block
    /// listed twice when its branch names `b` on both arms — without
    /// rebuilding every list. The order is the phi-incoming order SSA
    /// construction emits, so it reaches the printed and signed text.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        debug_assert_eq!(
            self.preds[b.index()],
            self.f.predecessors()[b.index()],
            "predecessor list of {b} in {} out of date",
            self.f.name
        );
        &self.preds[b.index()]
    }

    /// Make `b` the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = Some(b);
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been selected.
    pub fn current(&self) -> BlockId {
        self.cur.expect("no current block selected")
    }

    /// Whether the current block already ends with a terminator.
    pub fn is_terminated(&self) -> bool {
        self.f.terminator(self.current()).is_some()
    }

    /// Append a raw instruction to the current block.
    pub fn push(&mut self, inst: Inst) -> ValueId {
        let b = self.current();
        debug_assert!(
            self.f.terminator(b).is_none(),
            "appending to terminated block {b} in {}",
            self.f.name
        );
        for s in inst.successors() {
            let list = &mut self.preds[s.index()];
            list.insert(list.partition_point(|&p| p <= b), b);
        }
        self.f.append(b, inst)
    }

    // ---- constants ------------------------------------------------------

    fn constant(&mut self, c: Const) -> ValueId {
        let key = match &c {
            Const::Int(v, w) => ConstKey::Int(*v, *w),
            Const::F64(x) => ConstKey::F64(x.to_bits()),
            Const::Null => ConstKey::Null,
            Const::GlobalAddr(g) => ConstKey::GlobalAddr(*g),
        };
        if let Some(&v) = self.const_pool.get(&key) {
            return v;
        }
        // Place constants in the entry block, before its terminator, so they
        // dominate every use.
        let entry = self.f.entry();
        let id = match self.f.terminator(entry) {
            Some(_) => {
                let pos = self.f.block(entry).insts.len() - 1;
                self.f.insert_at(entry, pos, Inst::Const(c))
            }
            None => self.f.append(entry, Inst::Const(c)),
        };
        self.const_pool.insert(key, id);
        id
    }

    /// i64 constant.
    pub fn const_i64(&mut self, v: i64) -> ValueId {
        self.constant(Const::Int(v, IntTy::I64))
    }

    /// i32 constant.
    pub fn const_i32(&mut self, v: i32) -> ValueId {
        self.constant(Const::Int(v as i64, IntTy::I32))
    }

    /// i8 constant.
    pub fn const_i8(&mut self, v: i8) -> ValueId {
        self.constant(Const::Int(v as i64, IntTy::I8))
    }

    /// i1 constant.
    pub fn const_bool(&mut self, v: bool) -> ValueId {
        self.constant(Const::Int(v as i64, IntTy::I1))
    }

    /// f64 constant.
    pub fn const_f64(&mut self, v: f64) -> ValueId {
        self.constant(Const::F64(v))
    }

    /// Null pointer constant.
    pub fn null(&mut self) -> ValueId {
        self.constant(Const::Null)
    }

    /// Address-of-global constant (patched at load/move time by the runtime).
    pub fn global_addr(&mut self, g: GlobalId) -> ValueId {
        self.constant(Const::GlobalAddr(g))
    }

    // ---- memory ---------------------------------------------------------

    /// Stack allocation.
    pub fn alloca(&mut self, ty: Type) -> ValueId {
        self.push(Inst::Alloca(ty))
    }

    /// Typed load.
    pub fn load(&mut self, ty: Type, addr: ValueId) -> ValueId {
        self.push(Inst::Load { ty, addr })
    }

    /// Typed store.
    pub fn store(&mut self, ty: Type, addr: ValueId, value: ValueId) {
        self.push(Inst::Store { ty, addr, value });
    }

    /// `base + index * elem.stride()`.
    pub fn ptr_add(&mut self, base: ValueId, index: ValueId, elem: Type) -> ValueId {
        self.push(Inst::PtrAdd { base, index, elem })
    }

    /// `base + offsetof(struct_ty, field)`.
    pub fn field_addr(&mut self, base: ValueId, struct_ty: Type, field: u32) -> ValueId {
        self.push(Inst::FieldAddr {
            base,
            struct_ty,
            field,
        })
    }

    // ---- arithmetic -----------------------------------------------------

    /// Generic binary operation.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.push(Inst::Bin { op, lhs, rhs })
    }

    /// Integer add.
    pub fn add(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::Add, l, r)
    }

    /// Integer subtract.
    pub fn sub(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::Sub, l, r)
    }

    /// Integer multiply.
    pub fn mul(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::Mul, l, r)
    }

    /// Integer compare.
    pub fn icmp(&mut self, pred: Pred, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.push(Inst::Icmp { pred, lhs, rhs })
    }

    /// Float compare.
    pub fn fcmp(&mut self, pred: Pred, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.push(Inst::Fcmp { pred, lhs, rhs })
    }

    /// Conversion.
    pub fn cast(&mut self, kind: CastKind, value: ValueId, to: Type) -> ValueId {
        self.push(Inst::Cast { kind, value, to })
    }

    /// Conditional select.
    pub fn select(&mut self, cond: ValueId, if_true: ValueId, if_false: ValueId) -> ValueId {
        self.push(Inst::Select {
            cond,
            if_true,
            if_false,
        })
    }

    /// Phi node (belongs at the head of the current block; callers should
    /// create phis before other instructions of the block).
    pub fn phi(&mut self, ty: Type, incomings: Vec<(BlockId, ValueId)>) -> ValueId {
        self.push(Inst::Phi { ty, incomings })
    }

    /// Add an incoming edge to an existing phi.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a phi instruction.
    pub fn phi_add_incoming(&mut self, phi: ValueId, block: BlockId, value: ValueId) {
        match self.f.inst_mut(phi) {
            Some(Inst::Phi { incomings, .. }) => incomings.push((block, value)),
            _ => panic!("phi_add_incoming on non-phi value"),
        }
    }

    // ---- calls ----------------------------------------------------------

    /// Direct call. `ret_ty` must match the callee's signature.
    pub fn call(&mut self, callee: FuncId, args: Vec<ValueId>, ret_ty: Option<Type>) -> ValueId {
        self.push(Inst::Call {
            callee,
            args,
            ret_ty,
        })
    }

    /// Intrinsic call.
    pub fn intr(&mut self, intr: Intrinsic, args: Vec<ValueId>) -> ValueId {
        self.push(Inst::CallIntrinsic { intr, args })
    }

    /// `malloc(size)`.
    pub fn malloc(&mut self, size: ValueId) -> ValueId {
        self.intr(Intrinsic::Malloc, vec![size])
    }

    /// `free(ptr)`.
    pub fn free(&mut self, ptr: ValueId) {
        self.intr(Intrinsic::Free, vec![ptr]);
    }

    // ---- terminators ----------------------------------------------------

    /// Unconditional branch.
    pub fn jmp(&mut self, target: BlockId) {
        self.push(Inst::Jmp { target });
    }

    /// Conditional branch.
    pub fn br(&mut self, cond: ValueId, if_true: BlockId, if_false: BlockId) {
        self.push(Inst::Br {
            cond,
            if_true,
            if_false,
        });
    }

    /// Return.
    pub fn ret(&mut self, value: Option<ValueId>) {
        self.push(Inst::Ret { value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sum_loop() {
        // sum(n) { s = 0; for i in 0..n { s += i } return s }
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("sum", vec![Type::I64], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let entry = b.block("entry");
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            b.switch_to(entry);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let n = b.arg(0);
            b.jmp(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, vec![(entry, zero)]);
            let s = b.phi(Type::I64, vec![(entry, zero)]);
            let cond = b.icmp(Pred::Slt, i, n);
            b.br(cond, body, exit);
            b.switch_to(body);
            let s2 = b.add(s, i);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.phi_add_incoming(s, body, s2);
            b.jmp(header);
            b.switch_to(exit);
            b.ret(Some(s));
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("sum").unwrap());
        assert_eq!(f.num_blocks(), 4);
        assert!(matches!(f.terminator(f.entry()), Some(Inst::Jmp { .. })));
    }

    #[test]
    fn predecessor_lists_follow_function_order() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![], None);
        {
            let mut b = mb.define(f);
            let blocks: Vec<BlockId> = (0..4).map(|i| b.block(format!("b{i}"))).collect();
            let [entry, left, right, join] = blocks[..] else {
                unreachable!()
            };
            // Terminators arrive out of block order; the lists stay in
            // block order, with a block listed twice when both arms of
            // its branch name the same target.
            b.switch_to(right);
            b.jmp(join);
            b.switch_to(entry);
            let t = b.const_bool(true);
            b.br(t, left, right);
            b.switch_to(left);
            b.br(t, join, join);
            b.switch_to(join);
            b.ret(None);
            assert_eq!(b.preds(join), &[left, left, right]);
            assert_eq!(b.preds(right), &[entry]);
            assert!(b.preds(entry).is_empty());
            for blk in [entry, left, right, join] {
                assert_eq!(b.preds(blk), b.func().predecessors()[blk.index()]);
            }
        }
    }

    #[test]
    fn constants_are_interned_in_entry() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let c1 = b.const_i64(42);
            let c2 = b.const_i64(42);
            assert_eq!(c1, c2);
            let c3 = b.const_i32(42);
            assert_ne!(c1, c3, "different widths are different constants");
            b.ret(Some(c1));
        }
        let m = mb.finish();
        let f = m.func(FuncId(0));
        // both constants live in the entry block
        assert_eq!(f.block(f.entry()).insts.len(), 3);
    }

    #[test]
    fn constant_after_terminator_lands_before_it() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![], None);
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            let next = b.block("next");
            b.switch_to(e);
            b.jmp(next);
            b.switch_to(next);
            let c = b.const_i64(9); // must be inserted in entry before jmp
            b.ret(None);
            let func = b.func();
            let entry_insts = &func.block(e).insts;
            assert_eq!(entry_insts[0], c);
            assert!(matches!(
                func.inst(*entry_insts.last().unwrap()),
                Some(Inst::Jmp { .. })
            ));
        }
    }
}
