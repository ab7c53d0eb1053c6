//! Flow-insensitive, field-insensitive Steensgaard-style points-to
//! analysis — the third rule of `AliasQuery::disjoint` (the prototype's
//! chain of 15 includes Steensgaard's; paper §4.1.1).
//!
//! Every pointer value and every abstract object gets a node in a
//! union-find structure; each equivalence class has at most one pointee
//! class (Steensgaard's unification discipline), so the whole analysis is
//! near-linear. Two pointers may alias only if their pointee classes
//! unified; separate classes that never touched "unknown" memory are
//! provably disjoint.

use carat_ir::{Const, Function, Inst, Intrinsic, Type, ValueId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Node index in the points-to graph.
type Node = usize;

#[derive(Debug)]
struct Uf {
    parent: Vec<Node>,
    /// The single pointee class of each class representative, if any.
    pointee: Vec<Option<Node>>,
    /// Whether the class includes memory of unknown provenance.
    unknown: Vec<bool>,
    /// Whether the class contains at least one concrete object.
    concrete: Vec<bool>,
}

impl Uf {
    fn new() -> Uf {
        Uf {
            parent: Vec::new(),
            pointee: Vec::new(),
            unknown: Vec::new(),
            concrete: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Node {
        let n = self.parent.len();
        self.parent.push(n);
        self.pointee.push(None);
        self.unknown.push(false);
        self.concrete.push(false);
        n
    }

    fn find(&mut self, mut x: Node) -> Node {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unify two classes, recursively unifying their pointees
    /// (Steensgaard's join).
    fn union(&mut self, a: Node, b: Node) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        self.parent[rb] = ra;
        self.unknown[ra] |= self.unknown[rb];
        self.concrete[ra] |= self.concrete[rb];
        let (pa, pb) = (self.pointee[ra], self.pointee[rb]);
        match (pa, pb) {
            (Some(x), Some(y)) => {
                self.pointee[ra] = Some(x);
                self.union(x, y);
            }
            (None, Some(y)) => self.pointee[ra] = Some(y),
            _ => {}
        }
    }

    /// The pointee class of `x`, created on demand.
    fn deref(&mut self, x: Node) -> Node {
        let r = self.find(x);
        match self.pointee[r] {
            Some(p) => self.find(p),
            None => {
                let p = self.fresh();
                self.pointee[r] = Some(p);
                p
            }
        }
    }
}

/// Per-function points-to solution.
#[derive(Debug)]
pub(crate) struct Steensgaard {
    uf: RefCell<Uf>,
    value_node: HashMap<ValueId, Node>,
}

impl Steensgaard {
    /// Run the analysis over one function.
    pub(crate) fn compute(f: &Function) -> Steensgaard {
        let mut uf = Uf::new();
        let mut value_node: HashMap<ValueId, Node> = HashMap::new();
        // The class for everything of unknown provenance.
        let unknown = uf.fresh();
        uf.unknown[unknown] = true;
        // Unknown memory may point at more unknown memory.
        uf.pointee[unknown] = Some(unknown);

        let node_of = |uf: &mut Uf, value_node: &mut HashMap<ValueId, Node>, v: ValueId| -> Node {
            *value_node.entry(v).or_insert_with(|| uf.fresh())
        };

        // Arguments point at unknown caller memory.
        for i in 0..f.params.len() {
            if f.value_type(f.arg(i)) == Some(Type::Ptr) {
                let n = node_of(&mut uf, &mut value_node, f.arg(i));
                let p = uf.deref(n);
                uf.union(p, unknown);
            }
        }

        // One pass establishes every constraint; unification makes the
        // result order-independent.
        for (_, v, inst) in f.insts_in_layout_order() {
            match inst {
                Inst::Alloca(_) => {
                    // v points at a fresh concrete object.
                    let n = node_of(&mut uf, &mut value_node, v);
                    let obj = uf.deref(n);
                    let r = uf.find(obj);
                    uf.concrete[r] = true;
                }
                Inst::Const(Const::GlobalAddr(_)) => {
                    let n = node_of(&mut uf, &mut value_node, v);
                    let obj = uf.deref(n);
                    let r = uf.find(obj);
                    uf.concrete[r] = true;
                }
                Inst::CallIntrinsic {
                    intr: Intrinsic::Malloc,
                    ..
                } => {
                    let n = node_of(&mut uf, &mut value_node, v);
                    let obj = uf.deref(n);
                    let r = uf.find(obj);
                    uf.concrete[r] = true;
                }
                Inst::PtrAdd { base, .. } | Inst::FieldAddr { base, .. } => {
                    // Field-insensitive: derived pointer, same class.
                    let n = node_of(&mut uf, &mut value_node, v);
                    let b = node_of(&mut uf, &mut value_node, *base);
                    uf.union(n, b);
                }
                Inst::Cast { value, to, .. } if *to == Type::Ptr => {
                    // inttoptr: could point anywhere.
                    let n = node_of(&mut uf, &mut value_node, v);
                    let vn = node_of(&mut uf, &mut value_node, *value);
                    uf.union(n, vn);
                    let p = uf.deref(n);
                    uf.union(p, unknown);
                }
                Inst::Select {
                    if_true, if_false, ..
                } if f.value_type(v) == Some(Type::Ptr) => {
                    let n = node_of(&mut uf, &mut value_node, v);
                    let t = node_of(&mut uf, &mut value_node, *if_true);
                    let e = node_of(&mut uf, &mut value_node, *if_false);
                    uf.union(n, t);
                    uf.union(n, e);
                }
                Inst::Phi { ty, incomings } if *ty == Type::Ptr => {
                    let n = node_of(&mut uf, &mut value_node, v);
                    for (_, iv) in incomings {
                        let i = node_of(&mut uf, &mut value_node, *iv);
                        uf.union(n, i);
                    }
                }
                Inst::Load { ty, addr } if *ty == Type::Ptr => {
                    // v = *addr: v's class is what addr's pointee points at.
                    let n = node_of(&mut uf, &mut value_node, v);
                    let a = node_of(&mut uf, &mut value_node, *addr);
                    let mem = uf.deref(a);
                    let target = uf.deref(mem);
                    let vp = uf.deref(n);
                    uf.union(vp, target);
                    // Loaded pointers come from memory whose writers we may
                    // not have seen: conservatively unknown.
                    uf.union(vp, unknown);
                }
                Inst::Store { ty, addr, value } if *ty == Type::Ptr => {
                    // *addr = value: addr's pointee may point where value
                    // points.
                    let a = node_of(&mut uf, &mut value_node, *addr);
                    let val = node_of(&mut uf, &mut value_node, *value);
                    let mem = uf.deref(a);
                    let target = uf.deref(mem);
                    let vp = uf.deref(val);
                    uf.union(target, vp);
                }
                Inst::Call { args, ret_ty, .. } => {
                    // Intraprocedural: pointer arguments escape to unknown,
                    // pointer results come from unknown.
                    for &a in args {
                        if f.value_type(a) == Some(Type::Ptr) {
                            let n = node_of(&mut uf, &mut value_node, a);
                            let p = uf.deref(n);
                            uf.union(p, unknown);
                        }
                    }
                    if ret_ty == &Some(Type::Ptr) {
                        let n = node_of(&mut uf, &mut value_node, v);
                        let p = uf.deref(n);
                        uf.union(p, unknown);
                    }
                }
                _ => {}
            }
        }
        Steensgaard {
            uf: RefCell::new(uf),
            value_node,
        }
    }

    /// The pointee class of pointer `v`, if the analysis saw it.
    fn pointee_class(&self, v: ValueId) -> Option<(Node, bool)> {
        let n = *self.value_node.get(&v)?;
        let mut uf = self.uf.borrow_mut();
        let p = uf.deref(n);
        let r = uf.find(p);
        Some((r, uf.unknown[r]))
    }

    /// Whether pointers `a` and `b` point into distinct classes, neither of
    /// which holds memory of unknown provenance.
    pub(crate) fn disjoint(&self, a: ValueId, b: ValueId) -> bool {
        match (self.pointee_class(a), self.pointee_class(b)) {
            (Some((ca, ua)), Some((cb, ub))) => ca != cb && !ua && !ub,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_ir::{ModuleBuilder, Pred};

    #[test]
    fn disjoint_heap_objects_do_not_alias_even_through_phis() {
        // Two mallocs selected through a phi vs a third: the phi'd class
        // merges the first two but stays disjoint from the third —
        // something trace_base (which punts on phis) cannot see.
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare("f", vec![carat_ir::Type::I1], Some(carat_ir::Type::I64));
        let (pa, pb, pc, phi);
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            let t = b.block("t");
            let fl = b.block("fl");
            let j = b.block("j");
            b.switch_to(e);
            let sz = b.const_i64(64);
            pa = b.malloc(sz);
            pb = b.malloc(sz);
            pc = b.malloc(sz);
            b.br(b.arg(0), t, fl);
            b.switch_to(t);
            b.jmp(j);
            b.switch_to(fl);
            b.jmp(j);
            b.switch_to(j);
            phi = b.phi(carat_ir::Type::Ptr, vec![(t, pa), (fl, pb)]);
            let x = b.load(carat_ir::Type::I64, phi);
            b.ret(Some(x));
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        let st = Steensgaard::compute(f);
        assert!(st.disjoint(phi, pc));
        assert!(!st.disjoint(phi, pa));
        assert!(!st.disjoint(phi, pb));
        assert!(!st.disjoint(pa, pb), "unified by the phi");
    }

    #[test]
    fn stored_and_reloaded_pointers_alias() {
        // q stored into a cell and reloaded: the reload may alias q.
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare("f", vec![], Some(carat_ir::Type::I64));
        let (q, reload);
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            b.switch_to(e);
            let sz = b.const_i64(64);
            q = b.malloc(sz);
            let cell = b.alloca(carat_ir::Type::Ptr);
            b.store(carat_ir::Type::Ptr, cell, q);
            reload = b.load(carat_ir::Type::Ptr, cell);
            let x = b.load(carat_ir::Type::I64, reload);
            b.ret(Some(x));
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        let st = Steensgaard::compute(f);
        assert!(!st.disjoint(q, reload));
    }

    #[test]
    fn arguments_are_unknown() {
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare(
            "f",
            vec![carat_ir::Type::Ptr, carat_ir::Type::Ptr],
            Some(carat_ir::Type::I64),
        );
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            b.switch_to(e);
            let x = b.load(carat_ir::Type::I64, b.arg(0));
            b.ret(Some(x));
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        let st = Steensgaard::compute(f);
        assert!(!st.disjoint(f.arg(0), f.arg(1)));
    }

    #[test]
    fn derived_pointers_stay_in_their_base_class() {
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.declare("f", vec![carat_ir::Type::I64], Some(carat_ir::Type::I64));
        let (a1, a2, d1);
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            b.switch_to(e);
            a1 = b.alloca(carat_ir::Type::Array(Box::new(carat_ir::Type::I64), 8));
            a2 = b.alloca(carat_ir::Type::Array(Box::new(carat_ir::Type::I64), 8));
            d1 = b.ptr_add(a1, b.arg(0), carat_ir::Type::I64);
            let c = b.icmp(Pred::Eq, d1, a2);
            let ci = b.cast(carat_ir::CastKind::Zext, c, carat_ir::Type::I64);
            b.ret(Some(ci));
        }
        let m = mb.finish();
        let f = m.func(m.func_by_name("f").unwrap());
        let st = Steensgaard::compute(f);
        assert!(st.disjoint(d1, a2));
        assert!(!st.disjoint(d1, a1));
    }
}
