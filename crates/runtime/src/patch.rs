//! The patching engine: executing a mapping change (paper §4.2 "Mapping",
//! Figure 8 steps 5–10).
//!
//! Given a kernel page-move request, the runtime (inside the world-stop):
//!
//! 1. **negotiates/expands** the source range so no allocation straddles
//!    its boundary (allocations move in their entirety);
//! 2. finds all **affected allocations**;
//! 3. **patches every escape** of every affected allocation — each memory
//!    cell holding a pointer into the moved range is rewritten to the
//!    address the target will have *after* the move (pointer swizzling);
//! 4. **patches registers** (the register file dumped on the stack by the
//!    signal handler);
//! 5. moves the data and updates the allocation table.
//!
//! There is one mover: [`move_transaction`], a rollback-safe transaction
//! over any number of allocation tables (several for a cross-process
//! shared region) and any number of requests (a batch under one
//! world-stop). The kernel's page-out and page-in are the same transaction
//! aimed at (or out of) a swap slot's poison window;
//! [`perform_move_batch_journaled`] is its one-table shape, kept for the
//! frozen `benchmark/` crate. Patching is split into **plan** and **apply**: a
//! [`PatchPlan`] — one flat array of `(cell, old, new, owner)` records —
//! is built from the allocation table(s) with pure reads, then written
//! through [`MemAccess`] in plan order, on one thread: the serial patch
//! phase the paper measures
//! ([`CostModel::patch_cost`](crate::cost::CostModel::patch_cost)).
//!
//! Every phase reports counts so the caller can convert to cycles with the
//! [`CostModel`](crate::cost::CostModel) — this is the raw material of
//! Table 3.

use crate::alloc_table::AllocationTable;
use crate::cost::CostModel;
use crate::fast_hash::FastSet;
use std::fmt;

/// Memory access interface the engine uses to read/patch/copy simulated
/// physical memory. Implemented by the kernel's physical memory.
pub trait MemAccess {
    /// Read the 8-byte little-endian word at `addr`.
    fn read_u64(&self, addr: u64) -> u64;
    /// Write the 8-byte little-endian word at `addr`.
    fn write_u64(&mut self, addr: u64, val: u64);
    /// Copy `len` bytes from `src` to `dst` (ranges may not overlap).
    fn copy(&mut self, src: u64, dst: u64, len: u64);
}

/// A kernel request to move `[src, src+len)` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRequest {
    /// Source range start (page aligned in page-granularity mode).
    pub src: u64,
    /// Source range length.
    pub len: u64,
    /// Destination start.
    pub dst: u64,
}

/// Cycle breakdown of one move — the columns of Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveCostBreakdown {
    /// "Page Expand": finding allocations and expanding the page set.
    pub page_expand: u64,
    /// "Patch Gen. & Exec.": finding and updating all escapes.
    pub patch_gen_exec: u64,
    /// "Register Patch".
    pub register_patch: u64,
    /// "Allocation & Mem. Movement": destination alloc + data copy.
    pub alloc_and_move: u64,
}

impl MoveCostBreakdown {
    /// "Prototype Cost": expand + patch + register (excludes the copy,
    /// which paging pays too).
    pub fn prototype_cost(&self) -> u64 {
        self.page_expand + self.patch_gen_exec + self.register_patch
    }

    /// "Prototype w/o Expand Cost".
    pub fn prototype_wo_expand(&self) -> u64 {
        self.patch_gen_exec + self.register_patch
    }

    /// "Total Cost".
    pub fn total(&self) -> u64 {
        self.prototype_cost() + self.alloc_and_move
    }
}

/// Outcome of a completed move.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MoveOutcome {
    /// The range actually moved, after expansion.
    pub moved_src: u64,
    /// Length of the moved range.
    pub moved_len: u64,
    /// Destination of the (possibly expanded) range.
    pub moved_dst: u64,
    /// Allocations relocated.
    pub allocations: usize,
    /// Escape cells rewritten.
    pub escapes_patched: usize,
    /// Registers rewritten.
    pub registers_patched: usize,
    /// Cycle breakdown.
    pub cost: MoveCostBreakdown,
}

/// Expand `[src, src+len)` (page-aligned growth) until no tracked
/// allocation straddles either boundary. Returns the expanded range.
///
/// This is the page-granularity "negotiation": an allocation overlapping
/// the boundary drags its whole extent (rounded to pages) into the move.
pub fn expand_to_allocations(
    table: &AllocationTable,
    mut src: u64,
    mut len: u64,
    page: u64,
) -> (u64, u64) {
    loop {
        let mut grown = false;
        for (start, info) in table.overlapping_infos(src, src + len) {
            let end = start + info.len;
            if start < src {
                let new_src = start / page * page;
                len += src - new_src;
                src = new_src;
                grown = true;
            }
            if end > src + len {
                let new_end = end.div_ceil(page) * page;
                len = new_end - src;
                grown = true;
            }
        }
        if !grown {
            return (src, len);
        }
    }
}

/// The checkpoint at which a move consults its interrupt hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovePhase {
    /// After escapes and registers were patched, before the data copy and
    /// table maintenance — the crash window the rollback covers.
    Patched,
}

/// A move was interrupted and rolled back. Every escape cell and register
/// the move had patched was restored to its pre-move value; the allocation
/// table and the data were never touched (both are only updated after the
/// checkpoint), so the machine state is byte-identical to the state before
/// the move began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveInterrupted {
    /// The checkpoint at which the interrupt fired.
    pub phase: MovePhase,
    /// Escape cells restored from the plans' `old` values.
    pub cells_rolled_back: usize,
    /// Registers restored from the register undo list.
    pub registers_rolled_back: usize,
}

impl fmt::Display for MoveInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "move interrupted at {:?}: rolled back {} cells, {} registers",
            self.phase, self.cells_rolled_back, self.registers_rolled_back
        )
    }
}

impl std::error::Error for MoveInterrupted {}

/// A pinned physical range: memory a device is actively DMA-ing into,
/// which therefore cannot be moved, compacted, or swapped. The owner (if
/// any) is an opaque process index so the kernel can reap a tenant's pins
/// at kill time without the runtime knowing about process tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedRange {
    /// First byte of the pinned range.
    pub start: u64,
    /// Length in bytes (never zero).
    pub len: u64,
    /// Owning process index, or `None` for kernel-owned pins.
    pub owner: Option<usize>,
}

impl PinnedRange {
    /// Does `[start, start+len)` overlap this pin?
    #[inline]
    pub fn overlaps(&self, start: u64, len: u64) -> bool {
        start < self.start + self.len && self.start < start + len
    }
}

/// A move was refused because it would relocate pinned memory. Unlike
/// [`MoveInterrupted`] (a fault mid-protocol, rolled back), a pinned
/// refusal is decided *before* the world stops: nothing was mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveError {
    /// The requested source range overlaps a pinned DMA region.
    Pinned {
        /// Requested (expanded) source start.
        src: u64,
        /// Requested (expanded) length.
        len: u64,
        /// Start of the pin that blocked it.
        pin_start: u64,
        /// Length of the blocking pin.
        pin_len: u64,
    },
}

impl fmt::Display for MoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveError::Pinned {
                src,
                len,
                pin_start,
                pin_len,
            } => write!(
                f,
                "move of [{src:#x}, +{len:#x}) refused: overlaps pinned DMA range [{pin_start:#x}, +{pin_len:#x})"
            ),
        }
    }
}

impl std::error::Error for MoveError {}

/// Check a candidate move source against a pin list. Returns the typed
/// [`MoveError::Pinned`] for the first overlapping pin, if any. Movers
/// call this after expansion (the expanded range is what actually moves)
/// and before the world stop, so a refusal is side-effect free.
pub fn check_unpinned(src: u64, len: u64, pins: &[PinnedRange]) -> Result<(), MoveError> {
    for p in pins {
        if p.overlaps(src, len) {
            return Err(MoveError::Pinned {
                src,
                len,
                pin_start: p.start,
                pin_len: p.len,
            });
        }
    }
    Ok(())
}

/// One planned escape-cell rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedPatch {
    /// Address of the cell holding the pointer.
    pub cell: u64,
    /// Its current value, which a rollback writes back.
    pub old: u64,
    /// The value it will hold after the move.
    pub new: u64,
    /// Start address of the allocation the pointer targets.
    pub owner: u64,
}

/// The flat patch plan for one move: every cell rewrite, precomputed from
/// the allocation table(s) with pure reads, plus the affected allocation
/// starts per table. Plan order is mutation order, so the plan is also the
/// move's rollback journal: its `(cell, old)` column, replayed in reverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchPlan {
    /// Expanded source range start.
    pub src: u64,
    /// Expanded range length.
    pub len: u64,
    /// Destination (adjusted by the same leading expansion).
    pub dst: u64,
    /// `dst - src`.
    pub delta: i64,
    /// Every cell rewrite, in deterministic table order.
    pub cells: Vec<PlannedPatch>,
    /// Affected allocation starts, one list per input table.
    pub affected: Vec<Vec<u64>>,
}

impl PatchPlan {
    /// Build the plan for moving `[src, src+len)` to `dst` across one or
    /// more allocation tables (several for the cross-process shared-region
    /// case). Pure reads: neither the tables nor memory are touched.
    ///
    /// A cell registered by more than one table is planned exactly once.
    pub fn build(
        tables: &[&AllocationTable],
        mem: &dyn MemAccess,
        src: u64,
        len: u64,
        dst: u64,
    ) -> PatchPlan {
        let delta = dst.wrapping_sub(src) as i64;
        let mut cells = Vec::new();
        let mut affected = Vec::with_capacity(tables.len());
        let mut seen: Option<FastSet<u64>> = (tables.len() > 1).then(FastSet::default);
        for table in tables {
            let mut starts = Vec::new();
            for (start, info) in table.overlapping_infos(src, src + len) {
                starts.push(start);
                let (lo, hi) = (start, start + info.len);
                for &cell in &info.escapes {
                    let old = mem.read_u64(cell);
                    if old >= lo && old < hi {
                        if let Some(seen) = seen.as_mut() {
                            if !seen.insert(cell) {
                                continue;
                            }
                        }
                        cells.push(PlannedPatch {
                            cell,
                            old,
                            new: old.wrapping_add(delta as u64),
                            owner: start,
                        });
                    }
                }
            }
            affected.push(starts);
        }
        PatchPlan {
            src,
            len,
            dst,
            delta,
            cells,
            affected,
        }
    }

    /// Execute every planned rewrite, in plan order.
    ///
    /// `_workers` is ignored: it is accepted only because the frozen
    /// `benchmark/` crate passes `1` here. There is no host-parallel apply.
    pub fn apply(&self, mem: &mut dyn MemAccess, _workers: usize) {
        self.write_cells(mem);
    }

    fn write_cells(&self, mem: &mut dyn MemAccess) {
        for p in &self.cells {
            mem.write_u64(p.cell, p.new);
        }
    }
}

/// Expand `[src, src+len)` against *every* table until no owner's
/// allocation straddles it. One [`expand_to_allocations`] call leaves its
/// own table at a fixed point, so the walk stops once every other table
/// has confirmed the range in turn — a single call for a single table, and
/// none for no table.
pub fn expand_across_tables(
    tables: &[&AllocationTable],
    mut src: u64,
    mut len: u64,
    page: u64,
) -> (u64, u64) {
    let (mut next, mut confirmed) = (0, 0);
    while confirmed < tables.len() {
        let grown = expand_to_allocations(tables[next % tables.len()], src, len, page);
        confirmed = if grown == (src, len) {
            confirmed + 1
        } else {
            1
        };
        (src, len) = grown;
        next += 1;
    }
    (src, len)
}

/// Undo a patched, not yet copied transaction in reverse mutation order:
/// the registers from their undo list, then every planned cell back to its
/// `old`, last plan first.
fn roll_back(
    plans: &[PatchPlan],
    reg_undo: &[(usize, u64)],
    mem: &mut dyn MemAccess,
    regs: &mut [u64],
) -> MoveInterrupted {
    for &(idx, old) in reg_undo.iter().rev() {
        regs[idx] = old;
    }
    for p in plans.iter().rev().flat_map(|plan| plan.cells.iter().rev()) {
        mem.write_u64(p.cell, p.old);
    }
    MoveInterrupted {
        phase: MovePhase::Patched,
        cells_rolled_back: plans.iter().map(|plan| plan.cells.len()).sum(),
        registers_rolled_back: reg_undo.len(),
    }
}

/// The move transaction: `reqs.len()` requests against `tables.len()`
/// allocation tables, one outcome returned per request, in request order.
///
/// 1. every request is expanded to a fixed point across every table;
/// 2. one [`PatchPlan`] per request is built over all tables (pure reads),
///    then every plan is applied;
/// 3. ONE register pass covers every range, noting each rewritten
///    register in an undo list;
/// 4. after the [`MovePhase::Patched`] checkpoint, the data copies and
///    per-table maintenance run in request order.
///
/// Cells and registers are the only mutations before the checkpoint, and
/// every transaction carries what undoes them — the plans' `(cell, old)`
/// column and the register undo list — so an interrupt there restores the
/// pre-move state whoever asked for the move.
///
/// `regs` is the dumped register state of every stopped thread of every
/// table's process (patched in place). The caller has picked each `dst`
/// with room for the *expanded* range; `dst` is adjusted by the same
/// leading expansion so relative layout is preserved. A cell registered by
/// more than one table is planned — and counted — once.
///
/// Requirements for a batch (the kernel's batch planner guarantees both):
/// expanded source ranges are pairwise disjoint, and every destination is
/// disjoint from its own and from every *later* request's source range. A
/// destination may reuse an earlier request's source frames: the data
/// copies run in request order, so that range has been evacuated by the
/// time a later copy lands in it (which is exactly how sequential moves
/// recycle vacated frames). Under those, the batch is bit-identical —
/// memory, registers, tables — to executing the requests one transaction
/// each, except that the register-patch charge (`regs.len()` inspections)
/// is paid once and carried by the first outcome.
///
/// # Errors
///
/// [`MoveInterrupted`] when `interrupt` fired at the
/// [`MovePhase::Patched`] checkpoint; every cell and register of every
/// request, whichever table's escape set produced it, has been rolled back
/// in reverse mutation order.
pub fn move_transaction(
    tables: &mut [&mut AllocationTable],
    mem: &mut dyn MemAccess,
    regs: &mut [u64],
    reqs: &[MoveRequest],
    cost: &CostModel,
    interrupt: Option<&mut dyn FnMut(MovePhase) -> bool>,
) -> Result<Vec<MoveOutcome>, MoveInterrupted> {
    // --- Phases 1 and 2 read the tables only ---
    let views: Vec<&AllocationTable> = tables.iter().map(|t| &**t).collect();

    // --- Phase 1: page expand (negotiation), every request up front ---
    let mut expanded: Vec<(u64, u64, u64)> = Vec::with_capacity(reqs.len());
    for req in reqs {
        let (src, len) = expand_across_tables(&views, req.src, req.len, cost.page_size);
        let dst = req.dst.wrapping_sub(req.src - src);
        debug_assert!(
            expanded
                .iter()
                .all(|&(s, l, _)| s + l <= src || src + len <= s),
            "batched moves must expand to disjoint ranges"
        );
        expanded.push((src, len, dst));
    }

    // --- Phase 2: build every plan (pure reads), then apply them all ---
    let plans: Vec<PatchPlan> = expanded
        .iter()
        .map(|&(src, len, dst)| PatchPlan::build(&views, &*mem, src, len, dst))
        .collect();
    for plan in &plans {
        plan.write_cells(mem);
    }

    // --- Phase 3: ONE register pass over every range in the batch ---
    let mut reg_counts = vec![0usize; plans.len()];
    let mut reg_undo: Vec<(usize, u64)> = Vec::new();
    for (idx, r) in regs.iter_mut().enumerate() {
        if let Some(k) = expanded.iter().position(|&(s, l, _)| *r >= s && *r < s + l) {
            reg_undo.push((idx, *r));
            *r = r.wrapping_add(plans[k].delta as u64);
            reg_counts[k] += 1;
        }
    }

    if interrupt.is_some_and(|hook| hook(MovePhase::Patched)) {
        return Err(roll_back(&plans, &reg_undo, mem, regs));
    }

    // --- Phase 4: data movement + table maintenance, request order ---
    let mut outcomes = Vec::with_capacity(reqs.len());
    for (k, (&(src, len, dst), plan)) in expanded.iter().zip(&plans).enumerate() {
        mem.copy(src, dst, len);
        for (table, affected) in tables.iter_mut().zip(&plan.affected) {
            table.rebase_escape_cells(src, src + len, plan.delta);
            for &start in affected {
                table.relocate(start, plan.delta);
            }
        }
        let allocations: usize = plan.affected.iter().map(Vec::len).sum();
        outcomes.push(MoveOutcome {
            moved_src: src,
            moved_len: len,
            moved_dst: dst,
            allocations,
            escapes_patched: plan.cells.len(),
            registers_patched: reg_counts[k],
            cost: MoveCostBreakdown {
                page_expand: cost.move_expand_fixed
                    + allocations as u64 * cost.move_expand_per_alloc,
                patch_gen_exec: cost.patch_cost(plan.cells.len() as u64),
                // One pass inspected `regs.len()` registers for the whole
                // transaction; the first outcome carries that charge.
                register_patch: if k == 0 {
                    regs.len() as u64 * cost.move_register_patch_per_reg
                } else {
                    0
                },
                alloc_and_move: cost.move_alloc_fixed + cost.copy_cost(len),
            },
        });
    }
    Ok(outcomes)
}

/// [`move_transaction`] over one allocation table: N requests under one
/// world-stop, the interrupt hook consulted once, at the
/// [`MovePhase::Patched`] checkpoint. This is the shape the frozen
/// `benchmark/` crate calls.
///
/// `_workers` is ignored: it is accepted only because the frozen
/// `benchmark/` crate passes `1` here. There is no host-parallel apply.
///
/// # Errors
///
/// [`MoveInterrupted`] when the hook fired; the whole batch — every cell
/// and register of every request — has been rolled back in reverse
/// mutation order.
pub fn perform_move_batch_journaled(
    table: &mut AllocationTable,
    mem: &mut dyn MemAccess,
    regs: &mut [u64],
    reqs: &[MoveRequest],
    cost: &CostModel,
    _workers: usize,
    interrupt: Option<&mut dyn FnMut(MovePhase) -> bool>,
) -> Result<Vec<MoveOutcome>, MoveInterrupted> {
    move_transaction(&mut [table], mem, regs, reqs, cost, interrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_table::AllocKind;
    use std::collections::HashMap;

    /// Sparse simulated memory for tests.
    #[derive(Default)]
    struct TestMem {
        words: HashMap<u64, u64>,
    }

    impl MemAccess for TestMem {
        fn read_u64(&self, addr: u64) -> u64 {
            *self.words.get(&addr).unwrap_or(&0)
        }
        fn write_u64(&mut self, addr: u64, val: u64) {
            self.words.insert(addr, val);
        }
        fn copy(&mut self, src: u64, dst: u64, len: u64) {
            let moved: Vec<(u64, u64)> = self
                .words
                .iter()
                .filter(|(&a, _)| a >= src && a < src + len)
                .map(|(&a, &v)| (a, v))
                .collect();
            for (a, v) in moved {
                self.words.remove(&a);
                self.words.insert(a - src + dst, v);
            }
        }
    }

    /// One request as its own transaction, optionally under an interrupt
    /// hook.
    fn move_one_journaled(
        table: &mut AllocationTable,
        mem: &mut TestMem,
        regs: &mut [u64],
        req: MoveRequest,
        cost: &CostModel,
        interrupt: Option<&mut dyn FnMut(MovePhase) -> bool>,
    ) -> Result<MoveOutcome, MoveInterrupted> {
        perform_move_batch_journaled(table, mem, regs, &[req], cost, 1, interrupt)
            .map(|mut outs| outs.pop().expect("one request, one outcome"))
    }

    fn move_one(
        table: &mut AllocationTable,
        mem: &mut TestMem,
        regs: &mut [u64],
        req: MoveRequest,
        cost: &CostModel,
    ) -> MoveOutcome {
        move_one_journaled(table, mem, regs, req, cost, None).expect("no hook, no interrupt")
    }

    fn setup() -> (AllocationTable, TestMem) {
        let mut t = AllocationTable::new();
        let mut m = TestMem::default();
        // Allocation A at 0x1000..0x1100 with two escapes:
        //  - cell 0x5000 (outside A) -> 0x1010
        //  - cell 0x1080 (inside A!) -> 0x1020  (self-referential structure)
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        m.write_u64(0x5000, 0x1010);
        m.write_u64(0x1080, 0x1020);
        t.track_escape(0x5000);
        t.track_escape(0x1080);
        let snapshot: HashMap<u64, u64> = [(0x5000u64, 0x1010u64), (0x1080, 0x1020)].into();
        t.flush_escapes(|c| snapshot[&c]);
        (t, m)
    }

    #[test]
    fn expand_covers_straddling_allocation() {
        let mut t = AllocationTable::new();
        // Allocation crossing the 0x2000 page boundary.
        t.track_alloc(0x1f00, 0x200, AllocKind::Heap);
        let (src, len) = expand_to_allocations(&t, 0x2000, 0x1000, 0x1000);
        assert_eq!(src, 0x1000, "expanded back to cover the allocation");
        assert_eq!(len, 0x2000);
    }

    #[test]
    fn move_patches_external_and_internal_escapes() {
        let (mut t, mut m) = setup();
        let cost = CostModel::default();
        let mut regs = vec![0x1044u64, 0xdead];
        let out = move_one(
            &mut t,
            &mut m,
            &mut regs,
            MoveRequest {
                src: 0x1000,
                len: 0x1000,
                dst: 0x9000,
            },
            &cost,
        );
        assert_eq!(out.allocations, 1);
        assert_eq!(out.escapes_patched, 2);
        assert_eq!(out.registers_patched, 1);
        // External cell now points into the new location.
        assert_eq!(m.read_u64(0x5000), 0x9010);
        // Internal cell moved with the data AND was patched.
        assert_eq!(m.read_u64(0x9080), 0x9020);
        // Register snapshot patched.
        assert_eq!(regs[0], 0x9044);
        assert_eq!(regs[1], 0xdead);
        // Table relocated.
        assert!(t.info(0x1000).is_none());
        assert_eq!(t.info(0x9000).map(|i| i.len), Some(0x100));
        // The internal escape cell is tracked at its new address.
        assert!(t.info(0x9000).unwrap().escapes.contains(&0x9080));
        assert!(t.info(0x9000).unwrap().escapes.contains(&0x5000));
    }

    #[test]
    fn move_cost_breakdown_sums() {
        let (mut t, mut m) = setup();
        let cost = CostModel::default();
        let mut regs = vec![0u64; 16];
        let out = move_one(
            &mut t,
            &mut m,
            &mut regs,
            MoveRequest {
                src: 0x1000,
                len: 0x1000,
                dst: 0x9000,
            },
            &cost,
        );
        let c = out.cost;
        assert_eq!(c.total(), c.prototype_cost() + c.alloc_and_move);
        assert_eq!(
            c.prototype_cost(),
            c.page_expand + c.patch_gen_exec + c.register_patch
        );
        assert!(c.prototype_wo_expand() < c.prototype_cost());
        assert_eq!(
            c.patch_gen_exec,
            2 * cost.move_patch_per_escape,
            "two escapes patched"
        );
    }

    #[test]
    fn plan_records_old_new_and_owner() {
        let (t, m) = setup();
        let plan = PatchPlan::build(&[&t], &m, 0x1000, 0x1000, 0x9000);
        assert_eq!(plan.delta, 0x8000);
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(plan.affected, vec![vec![0x1000]]);
        for p in &plan.cells {
            assert_eq!(p.owner, 0x1000);
            assert_eq!(p.new, p.old + 0x8000);
            assert_eq!(m.read_u64(p.cell), p.old, "build is pure reads");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Random allocation layouts with random cross-pointers: after a
        /// move of any page, every escape cell points into its (possibly
        /// relocated) owner and the data moved verbatim.
        #[test]
        fn move_preserves_pointer_graph(
            n_allocs in 1usize..24,
            sizes in proptest::collection::vec(16u64..200, 24),
            links in proptest::collection::vec((0usize..24, 0usize..24, 0u64..16), 0..40),
            move_page in 0u64..4,
        ) {
            use proptest::prelude::*;
            let cost = CostModel::default();
            let mut t = AllocationTable::new();
            let mut m = TestMem::default();
            // Lay allocations out contiguously from 0x10000 (16-aligned).
            let mut starts = Vec::new();
            let mut cursor = 0x10000u64;
            for &raw in sizes.iter().take(n_allocs) {
                let size = raw / 16 * 16 + 16;
                starts.push(cursor);
                t.track_alloc(cursor, size, AllocKind::Heap);
                cursor += size;
            }
            // Random pointer cells: cell inside alloc A points into alloc B.
            let mut cells = Vec::new();
            for &(a, bflt, off) in &links {
                let (a, b) = (a % n_allocs, bflt % n_allocs);
                let cell = starts[a] + (off % (sizes[a] / 16 + 1)) * 8;
                let target = starts[b] + (off % 2) * 8;
                m.write_u64(cell, target);
                t.track_escape(cell);
                cells.push(cell);
            }
            let snapshot = m.words.clone();
            t.flush_escapes(|c| *snapshot.get(&c).unwrap_or(&0));
            // Move one page of the layout.
            let src = 0x10000 + move_page * 0x1000;
            let mut regs = vec![starts[0], 0x0];
            let out = move_one(
                &mut t,
                &mut m,
                &mut regs,
                MoveRequest { src, len: 0x1000, dst: 0x90000 },
                &cost,
            );
            prop_assert!(out.moved_len >= 0x1000);
            // Every registered escape cell's value lies inside its owner.
            for (start, len, _, _) in t.snapshot() {
                if let Some(info) = t.info(start) {
                    for &cell in &info.escapes {
                        let val = m.read_u64(cell);
                        prop_assert!(
                            val >= start && val < start + len,
                            "cell {cell:#x} -> {val:#x} outside [{start:#x},+{len:#x})"
                        );
                    }
                }
            }
            // Register patched iff it was in the moved range.
            prop_assert_eq!(regs[1], 0);
        }
    }

    #[test]
    fn interrupted_move_rolls_back_byte_identical() {
        let (mut t, mut m) = setup();
        let cost = CostModel::default();
        let mut regs = vec![0x1044u64, 0xdead];
        let words_before = m.words.clone();
        let regs_before = regs.clone();
        let table_before = t.snapshot();
        let mut fire = |phase: MovePhase| phase == MovePhase::Patched;
        let err = move_one_journaled(
            &mut t,
            &mut m,
            &mut regs,
            MoveRequest {
                src: 0x1000,
                len: 0x1000,
                dst: 0x9000,
            },
            &cost,
            Some(&mut fire),
        )
        .unwrap_err();
        assert_eq!(err.phase, MovePhase::Patched);
        assert_eq!(err.cells_rolled_back, 2, "both escape patches undone");
        assert_eq!(err.registers_rolled_back, 1);
        // Byte-identical pre-move state: memory, registers, and table.
        assert_eq!(m.words, words_before);
        assert_eq!(regs, regs_before);
        assert_eq!(t.snapshot(), table_before);
        assert!(t.info(0x1000).is_some(), "allocation still at old address");
        assert!(t.info(0x9000).is_none(), "nothing landed at the dst");
        // The machine is not poisoned: the same move succeeds afterwards.
        let out = move_one(
            &mut t,
            &mut m,
            &mut regs,
            MoveRequest {
                src: 0x1000,
                len: 0x1000,
                dst: 0x9000,
            },
            &cost,
        );
        assert_eq!(out.escapes_patched, 2);
        assert_eq!(m.read_u64(0x5000), 0x9010);
    }

    #[test]
    fn journaled_move_without_interrupt_matches_plain_move() {
        let (mut t1, mut m1) = setup();
        let (mut t2, mut m2) = setup();
        let cost = CostModel::default();
        let req = MoveRequest {
            src: 0x1000,
            len: 0x1000,
            dst: 0x9000,
        };
        let mut regs1 = vec![0x1044u64, 0xdead];
        let mut regs2 = regs1.clone();
        let plain = move_one(&mut t1, &mut m1, &mut regs1, req, &cost);
        let mut never = |_: MovePhase| false;
        let journaled =
            move_one_journaled(&mut t2, &mut m2, &mut regs2, req, &cost, Some(&mut never)).unwrap();
        assert_eq!(plain, journaled, "a hook that never fires changes nothing");
        assert_eq!(regs1, regs2);
        assert_eq!(m1.words, m2.words);
    }

    /// Two disjoint allocations, each with its own escapes: a batch of
    /// two moves must equal two sequential moves bit-for-bit, except the
    /// register-patch charge is paid once.
    fn setup_two() -> (AllocationTable, TestMem) {
        let mut t = AllocationTable::new();
        let mut m = TestMem::default();
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        t.track_alloc(0x3000, 0x200, AllocKind::Heap);
        m.write_u64(0x5000, 0x1010); // -> A
        m.write_u64(0x1080, 0x3020); // inside A, -> B (cross-range pointer)
        m.write_u64(0x6000, 0x3040); // -> B
        t.track_escape(0x5000);
        t.track_escape(0x1080);
        t.track_escape(0x6000);
        let snapshot: HashMap<u64, u64> =
            [(0x5000u64, 0x1010u64), (0x1080, 0x3020), (0x6000, 0x3040)].into();
        t.flush_escapes(|c| snapshot[&c]);
        (t, m)
    }

    #[test]
    fn batch_of_two_equals_sequential_moves() {
        let reqs = [
            MoveRequest {
                src: 0x1000,
                len: 0x1000,
                dst: 0x9000,
            },
            MoveRequest {
                src: 0x3000,
                len: 0x1000,
                dst: 0xb000,
            },
        ];
        let cost = CostModel::default();

        let (mut t1, mut m1) = setup_two();
        let mut regs1 = vec![0x1044u64, 0x3044, 0xdead];
        let seq: Vec<MoveOutcome> = reqs
            .iter()
            .map(|&req| move_one(&mut t1, &mut m1, &mut regs1, req, &cost))
            .collect();

        let (mut t2, mut m2) = setup_two();
        let mut regs2 = vec![0x1044u64, 0x3044, 0xdead];
        let batch =
            perform_move_batch_journaled(&mut t2, &mut m2, &mut regs2, &reqs, &cost, 1, None)
                .unwrap();

        assert_eq!(m1.words, m2.words, "memory bit-identical");
        assert_eq!(regs1, regs2, "registers bit-identical");
        assert_eq!(t1.snapshot(), t2.snapshot(), "tables bit-identical");
        assert_eq!(batch.len(), 2);
        for (s, b) in seq.iter().zip(&batch) {
            assert_eq!(s.moved_src, b.moved_src);
            assert_eq!(s.moved_dst, b.moved_dst);
            assert_eq!(s.escapes_patched, b.escapes_patched);
            assert_eq!(s.registers_patched, b.registers_patched);
            assert_eq!(s.cost.patch_gen_exec, b.cost.patch_gen_exec);
        }
        // The amortization: one register pass for the whole batch.
        assert_eq!(
            batch[0].cost.register_patch,
            regs2.len() as u64 * cost.move_register_patch_per_reg
        );
        assert_eq!(batch[1].cost.register_patch, 0);
        // The cross-range pointer followed both moves: the cell moved
        // with A, its value was patched for B. Absolute values, so the
        // check does not lean on the sequential arm sharing the batch core.
        assert_eq!(m2.read_u64(0x9080), 0xb020);
        assert_eq!(m2.read_u64(0x5000), 0x9010);
        assert_eq!(m2.read_u64(0x6000), 0xb040);
        assert_eq!(regs2, vec![0x9044, 0xb044, 0xdead]);
    }

    #[test]
    fn interrupted_batch_rolls_back_every_request() {
        let (mut t, mut m) = setup_two();
        let cost = CostModel::default();
        let mut regs = vec![0x1044u64, 0x3044];
        let words_before = m.words.clone();
        let regs_before = regs.clone();
        let table_before = t.snapshot();
        let reqs = [
            MoveRequest {
                src: 0x1000,
                len: 0x1000,
                dst: 0x9000,
            },
            MoveRequest {
                src: 0x3000,
                len: 0x1000,
                dst: 0xb000,
            },
        ];
        let mut fire = |phase: MovePhase| phase == MovePhase::Patched;
        let err = perform_move_batch_journaled(
            &mut t,
            &mut m,
            &mut regs,
            &reqs,
            &cost,
            1,
            Some(&mut fire),
        )
        .unwrap_err();
        assert_eq!(err.phase, MovePhase::Patched);
        assert_eq!(err.cells_rolled_back, 3, "all three cells, both requests");
        assert_eq!(err.registers_rolled_back, 2);
        assert_eq!(m.words, words_before);
        assert_eq!(regs, regs_before);
        assert_eq!(t.snapshot(), table_before);
    }

    /// Two owner tables for one shared allocation at 0x20000..0x20100:
    /// owner 0 holds a pointer cell at 0x5000, owner 1 at 0x6000, and both
    /// track a cell at 0x20080 *inside* the shared block.
    fn setup_shared() -> (AllocationTable, AllocationTable, TestMem) {
        let mut t1 = AllocationTable::new();
        let mut t2 = AllocationTable::new();
        let mut m = TestMem::default();
        for t in [&mut t1, &mut t2] {
            t.track_alloc(0x20000, 0x100, AllocKind::Heap);
        }
        m.write_u64(0x5000, 0x20010);
        m.write_u64(0x6000, 0x20020);
        m.write_u64(0x20080, 0x20030);
        t1.track_escape(0x5000);
        t1.track_escape(0x20080);
        t2.track_escape(0x6000);
        t2.track_escape(0x20080);
        let snapshot: HashMap<u64, u64> = [
            (0x5000u64, 0x20010u64),
            (0x6000, 0x20020),
            (0x20080, 0x20030),
        ]
        .into();
        t1.flush_escapes(|c| snapshot[&c]);
        t2.flush_escapes(|c| snapshot[&c]);
        (t1, t2, m)
    }

    /// The shared block to 0x90000, as one transaction over both owners.
    fn shared_move(
        t1: &mut AllocationTable,
        t2: &mut AllocationTable,
        m: &mut TestMem,
        regs: &mut [u64],
        interrupt: Option<&mut dyn FnMut(MovePhase) -> bool>,
    ) -> Result<MoveOutcome, MoveInterrupted> {
        let req = MoveRequest {
            src: 0x20000,
            len: 0x1000,
            dst: 0x90000,
        };
        move_transaction(
            &mut [t1, t2],
            m,
            regs,
            &[req],
            &CostModel::default(),
            interrupt,
        )
        .map(|mut outs| outs.pop().expect("one request, one outcome"))
    }

    #[test]
    fn shared_move_patches_every_owner() {
        let (mut t1, mut t2, mut m) = setup_shared();
        // regs = owner0's thread then owner1's thread.
        let mut regs = vec![0x20044u64, 0xdead, 0x20048];
        let out = shared_move(&mut t1, &mut t2, &mut m, &mut regs, None).unwrap();
        assert_eq!(out.allocations, 2, "one affected allocation per owner");
        // 0x5000, 0x6000, and 0x20080 — the doubly-tracked internal cell
        // counts once (idempotent patch).
        assert_eq!(out.escapes_patched, 3);
        assert_eq!(out.registers_patched, 2);
        assert_eq!(m.read_u64(0x5000), 0x90010);
        assert_eq!(m.read_u64(0x6000), 0x90020);
        assert_eq!(
            m.read_u64(0x90080),
            0x90030,
            "internal cell moved + patched once"
        );
        assert_eq!(regs, vec![0x90044, 0xdead, 0x90048]);
        for t in [&t1, &t2] {
            assert!(t.info(0x20000).is_none());
            assert_eq!(t.info(0x90000).map(|i| i.len), Some(0x100));
            assert!(t.info(0x90000).unwrap().escapes.contains(&0x90080));
        }
        assert!(t1.info(0x90000).unwrap().escapes.contains(&0x5000));
        assert!(t2.info(0x90000).unwrap().escapes.contains(&0x6000));
    }

    #[test]
    fn interrupted_shared_move_rolls_back_all_owners() {
        let (mut t1, mut t2, mut m) = setup_shared();
        let mut regs = vec![0x20044u64, 0x20048];
        let words_before = m.words.clone();
        let regs_before = regs.clone();
        let (snap1, snap2) = (t1.snapshot(), t2.snapshot());
        let mut fire = |phase: MovePhase| phase == MovePhase::Patched;
        let err = shared_move(&mut t1, &mut t2, &mut m, &mut regs, Some(&mut fire)).unwrap_err();
        assert_eq!(err.phase, MovePhase::Patched);
        assert_eq!(err.cells_rolled_back, 3);
        assert_eq!(err.registers_rolled_back, 2);
        assert_eq!(m.words, words_before);
        assert_eq!(regs, regs_before);
        assert_eq!(t1.snapshot(), snap1);
        assert_eq!(t2.snapshot(), snap2);
        // Not poisoned: the same shared move succeeds afterwards.
        let out = shared_move(&mut t1, &mut t2, &mut m, &mut regs, None).unwrap();
        assert_eq!(out.escapes_patched, 3);
    }

    #[test]
    fn moving_without_pointers_patches_nothing() {
        let mut t = AllocationTable::new();
        let mut m = TestMem::default();
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        m.write_u64(0x1000, 42);
        let cost = CostModel::default();
        let mut regs = vec![0u64; 4];
        let out = move_one(
            &mut t,
            &mut m,
            &mut regs,
            MoveRequest {
                src: 0x1000,
                len: 0x1000,
                dst: 0x4000,
            },
            &cost,
        );
        assert_eq!(out.escapes_patched, 0);
        assert_eq!(m.read_u64(0x4000), 42, "data moved verbatim");
    }
}
