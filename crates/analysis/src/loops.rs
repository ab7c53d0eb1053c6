//! Natural-loop detection and the loop forest.
//!
//! CARAT's Opt 1 (guard hoisting) and Opt 2 (guard merging) operate on
//! natural loops; [`ensure_preheader`] gives them a landing block for
//! hoisted guards (the paper's "preamble of the loop").

use crate::cfg::Cfg;
use crate::dom::DomTree;
use carat_ir::{BlockId, Function, Inst, ValueId};
use std::collections::BTreeSet;

/// A single natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header.
    pub header: BlockId,
    /// All blocks in the loop, including the header. Ordered: the guard
    /// optimizations iterate this to decide emission order, and compiler
    /// output must be byte-reproducible (a signed image names its bytes).
    pub blocks: BTreeSet<BlockId>,
    /// Latch blocks (in-loop predecessors of the header).
    pub latches: Vec<BlockId>,
    /// Index of the enclosing loop in the forest, if any.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of a function, ordered outermost-first.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// The loops; `parent` indices point into this vector.
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Detect natural loops from back edges (`latch -> header` where
    /// `header` dominates `latch`).
    pub fn compute(_f: &Function, cfg: &Cfg, dt: &DomTree) -> LoopForest {
        // Group back edges by header.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut latches_of: Vec<Vec<BlockId>> = Vec::new();
        for &b in &cfg.rpo {
            for &s in &cfg.succs[b.index()] {
                if dt.dominates(s, b) {
                    match headers.iter().position(|&h| h == s) {
                        Some(i) => latches_of[i].push(b),
                        None => {
                            headers.push(s);
                            latches_of.push(vec![b]);
                        }
                    }
                }
            }
        }
        // Compute each loop's body by backwards reachability from latches.
        let mut loops: Vec<Loop> = headers
            .into_iter()
            .zip(latches_of)
            .map(|(header, latches)| {
                let mut blocks = BTreeSet::new();
                blocks.insert(header);
                let mut stack: Vec<BlockId> = latches.clone();
                while let Some(b) = stack.pop() {
                    if blocks.insert(b) {
                        for &p in &cfg.preds[b.index()] {
                            stack.push(p);
                        }
                    }
                }
                Loop {
                    header,
                    blocks,
                    latches,
                    parent: None,
                    depth: 1,
                }
            })
            .collect();
        // Sort outermost-first (more blocks = outer, ties by header id).
        loops.sort_by(|a, b| {
            b.blocks
                .len()
                .cmp(&a.blocks.len())
                .then(a.header.cmp(&b.header))
        });
        // Parent: the smallest strictly-enclosing loop.
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for j in 0..loops.len() {
                if i == j {
                    continue;
                }
                if loops[j].blocks.len() > loops[i].blocks.len()
                    && loops[j].blocks.contains(&loops[i].header)
                    && loops[i].blocks.iter().all(|b| loops[j].blocks.contains(b))
                {
                    best = match best {
                        None => Some(j),
                        Some(k) if loops[j].blocks.len() < loops[k].blocks.len() => Some(j),
                        keep => keep,
                    };
                }
            }
            loops[i].parent = best;
        }
        // Depths.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut p = loops[i].parent;
            while let Some(j) = p {
                d += 1;
                p = loops[j].parent;
            }
            loops[i].depth = d;
        }
        LoopForest { loops }
    }

    /// The innermost loop containing block `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<usize> {
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(b))
            .max_by_key(|(_, l)| l.depth)
            .map(|(i, _)| i)
    }

    /// Indices of loops from innermost to outermost starting at `b`.
    pub fn nest_of(&self, b: BlockId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.innermost_containing(b);
        while let Some(i) = cur {
            out.push(i);
            cur = self.loops[i].parent;
        }
        out
    }
}

/// Ensure loop `lp` has a *preheader*: a block outside the loop whose only
/// successor is the header, and which is the header's only out-of-loop
/// predecessor. Returns the preheader block.
///
/// If no such block exists, one is created: all out-of-loop edges into the
/// header are redirected through it, and header phis are split accordingly.
/// The loop structure itself (blocks, latches) is unaffected; callers should
/// recompute CFG analyses afterwards if they created one.
pub fn ensure_preheader(f: &mut Function, lp: &Loop) -> BlockId {
    let preds = f.predecessors();
    let outside: Vec<BlockId> = preds[lp.header.index()]
        .iter()
        .copied()
        .filter(|p| !lp.contains(*p))
        .collect();
    // Existing preheader?
    if outside.len() == 1 {
        let p = outside[0];
        if f.successors(p).len() == 1 {
            return p;
        }
    }
    let header = lp.header;
    let ph = f.add_block(format!("preheader.{}", header.index()));

    // Split header phis: incomings from outside move to a new phi in the
    // preheader; the header phi keeps loop incomings plus one from the
    // preheader.
    let header_insts = f.block(header).insts.clone();
    for v in header_insts {
        let Some(Inst::Phi { ty, incomings }) = f.inst(v).cloned() else {
            break; // phis are at the head
        };
        let (out_inc, in_inc): (Vec<_>, Vec<_>) =
            incomings.into_iter().partition(|(p, _)| !lp.contains(*p));
        let fed: ValueId = if out_inc.len() == 1 {
            out_inc[0].1
        } else {
            // New phi in the preheader merging the outside values.
            f.append(
                ph,
                Inst::Phi {
                    ty: ty.clone(),
                    incomings: out_inc.clone(),
                },
            )
        };
        if let Some(Inst::Phi { incomings, .. }) = f.inst_mut(v) {
            let mut next = in_inc;
            next.push((ph, fed));
            *incomings = next;
        }
    }
    f.append(ph, Inst::Jmp { target: header });

    // Redirect outside edges to the preheader.
    for p in outside {
        let term = *f.block(p).insts.last().expect("predecessor has terminator");
        if let Some(inst) = f.inst_mut(term) {
            match inst {
                Inst::Jmp { target } if *target == header => *target = ph,
                Inst::Br {
                    if_true, if_false, ..
                } => {
                    if *if_true == header {
                        *if_true = ph;
                    }
                    if *if_false == header {
                        *if_false = ph;
                    }
                }
                _ => {}
            }
        }
    }
    ph
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_ir::{verify_module, ModuleBuilder, Pred, Type};

    /// Build nested loops: outer over i, inner over j.
    fn nested() -> carat_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.declare("f", vec![Type::I64], None);
        {
            let mut b = mb.define(f);
            let entry = b.block("entry");
            let oh = b.block("outer.header");
            let ih = b.block("inner.header");
            let ib = b.block("inner.body");
            let ol = b.block("outer.latch");
            let exit = b.block("exit");
            b.switch_to(entry);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let n = b.arg(0);
            b.jmp(oh);
            b.switch_to(oh);
            let i = b.phi(Type::I64, vec![(entry, zero)]);
            let ci = b.icmp(Pred::Slt, i, n);
            b.br(ci, ih, exit);
            b.switch_to(ih);
            let j = b.phi(Type::I64, vec![(oh, zero)]);
            let cj = b.icmp(Pred::Slt, j, n);
            b.br(cj, ib, ol);
            b.switch_to(ib);
            let j2 = b.add(j, one);
            b.phi_add_incoming(j, ib, j2);
            b.jmp(ih);
            b.switch_to(ol);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, ol, i2);
            b.jmp(oh);
            b.switch_to(exit);
            b.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn finds_nested_loops_with_depths() {
        let m = nested();
        verify_module(&m).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        assert_eq!(forest.loops.len(), 2);
        let outer = &forest.loops[0];
        let inner = &forest.loops[1];
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.parent, Some(0));
        assert!(outer.blocks.len() > inner.blocks.len());
        assert!(outer.contains(inner.header));
    }

    #[test]
    fn innermost_containing_picks_deepest() {
        let m = nested();
        let f = m.func(m.func_by_name("f").unwrap());
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        let inner_header = forest.loops[1].header;
        assert_eq!(forest.innermost_containing(inner_header), Some(1));
        assert_eq!(forest.nest_of(inner_header), vec![1, 0]);
    }

    #[test]
    fn ensure_preheader_reuses_or_creates() {
        let mut m = nested();
        let fid = m.func_by_name("f").unwrap();
        let (outer_idx, inner_idx);
        let forest = {
            let f = m.func(fid);
            let cfg = Cfg::compute(f);
            let dt = DomTree::compute(f, &cfg);
            let forest = LoopForest::compute(f, &cfg, &dt);
            outer_idx = 0;
            inner_idx = 1;
            forest
        };
        {
            // Outer loop's out-of-loop pred is `entry` which ends in jmp ->
            // already a preheader.
            let f = m.func_mut(fid);
            let ph = ensure_preheader(f, &forest.loops[outer_idx]);
            assert_eq!(ph, f.entry());
        }
        {
            // Inner loop's out-of-loop pred is the outer header, which ends
            // in a conditional branch -> a new preheader must be created.
            let f = m.func_mut(fid);
            let before = f.num_blocks();
            let ph = ensure_preheader(f, &forest.loops[inner_idx]);
            assert_eq!(f.num_blocks(), before + 1);
            assert_eq!(f.successors(ph), vec![forest.loops[inner_idx].header]);
        }
        verify_module(&m).expect("preheader creation preserves validity");
    }
}
