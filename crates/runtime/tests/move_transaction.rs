//! Properties of the one move transaction, over flat byte-addressed
//! memory: a batch equals its requests issued one transaction each, a
//! mid-batch interrupt (the window the kernel's `FaultPoint::MidMove` maps
//! onto) rolls everything back byte-for-byte, a cell two owners registered
//! is planned once, and planning is deterministic.

use carat_runtime::{
    move_transaction, perform_move_batch_journaled, AllocKind, AllocationTable, CostModel,
    MemAccess, MoveOutcome, MovePhase, MoveRequest, PatchPlan,
};

/// Flat `Vec<u8>`-backed memory, so whole-image byte comparisons are
/// exact (unlike the sparse `HashMap` memory in the unit tests). Every
/// `write_u64` address is logged, in order, so a test can read back the
/// sequence of cell writes a transaction made.
struct VecMem {
    bytes: Vec<u8>,
    writes: Vec<u64>,
}

impl VecMem {
    fn new(size: usize) -> VecMem {
        VecMem {
            bytes: vec![0; size],
            writes: Vec::new(),
        }
    }
}

impl MemAccess for VecMem {
    fn read_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.bytes[a..a + 8].try_into().unwrap())
    }
    fn write_u64(&mut self, addr: u64, val: u64) {
        self.writes.push(addr);
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&val.to_le_bytes());
    }
    fn copy(&mut self, src: u64, dst: u64, len: u64) {
        self.bytes
            .copy_within(src as usize..(src + len) as usize, dst as usize);
    }
}

const PAGE: u64 = 0x1000;
const ALLOC_BASE: u64 = 0x10000;
const ALLOC_SIZE: u64 = 0x400;
const ARENA_BASE: u64 = 0x100000;
/// The second owner's own escape cells, clear of the first owner's arena.
const ARENA2_BASE: u64 = 0x140000;
const MOVE_DST: u64 = 0x200000;
const MEM_SIZE: usize = 4 << 20;

/// Deterministic fixture: `n_allocs` contiguous allocations from
/// `ALLOC_BASE`, `cells_per_alloc` external escape cells per allocation in
/// an arena of adjacent 8-byte slots, plus one internal cross-pointer per
/// allocation to the next one. `seed` varies the pointer targets.
/// `AllocationTable` is not `Clone`, so differential runs rebuild the
/// fixture per arm — identical by construction.
fn build_fixture(
    n_allocs: usize,
    cells_per_alloc: usize,
    seed: u64,
) -> (AllocationTable, VecMem, Vec<u64>) {
    let mut t = AllocationTable::new();
    let mut m = VecMem::new(MEM_SIZE);
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        // xorshift64: deterministic, seed-driven.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut arena = ARENA_BASE;
    for i in 0..n_allocs {
        let start = ALLOC_BASE + i as u64 * ALLOC_SIZE;
        t.track_alloc(start, ALLOC_SIZE, AllocKind::Heap);
        // Fill the payload with recognizable, allocation-unique bytes.
        for w in 0..(ALLOC_SIZE / 8) {
            m.write_u64(start + w * 8, (i as u64) << 32 | w);
        }
        for _ in 0..cells_per_alloc {
            let target = start + (next() % (ALLOC_SIZE / 8)) * 8;
            m.write_u64(arena, target);
            t.track_escape(arena);
            arena += 8;
        }
        // Internal cell in the last word, pointing at the next allocation
        // (a cross-pointer that both moves with the data and is patched).
        let cell = start + ALLOC_SIZE - 8;
        let target = ALLOC_BASE + ((i + 1) % n_allocs) as u64 * ALLOC_SIZE + 0x10;
        m.write_u64(cell, target);
        t.track_escape(cell);
    }
    t.flush_escapes(|c| m.read_u64(c));
    let regs = vec![
        ALLOC_BASE + 0x10,
        0xdead_beef,
        ALLOC_BASE + (n_allocs as u64 - 1) * ALLOC_SIZE + 8,
        0x50,
    ];
    (t, m, regs)
}

fn whole_range(n_allocs: usize) -> MoveRequest {
    let len = (n_allocs as u64 * ALLOC_SIZE).div_ceil(PAGE) * PAGE;
    MoveRequest {
        src: ALLOC_BASE,
        len,
        dst: MOVE_DST,
    }
}

/// The batch generator every property here draws from: fixture size in
/// pages, how many requests the pages split into, external escape cells
/// per allocation, and the fixture seed.
fn batch_case() -> impl proptest::strategy::Strategy<Value = (u64, u64, usize, u64)> {
    (1u64..8, 1u64..8, 1usize..60, 0u64..1_000_000)
}

/// A second owner of the fixture's allocations, as a process that maps
/// them shared would see them: it tracks every allocation, registers the
/// same internal cross-pointer cells as the fixture's own table, and one
/// cell of its own per allocation.
fn second_owner(n_allocs: usize, m: &mut VecMem) -> AllocationTable {
    let mut t = AllocationTable::new();
    for i in 0..n_allocs as u64 {
        let start = ALLOC_BASE + i * ALLOC_SIZE;
        t.track_alloc(start, ALLOC_SIZE, AllocKind::Heap);
        t.track_escape(start + ALLOC_SIZE - 8);
        let own = ARENA2_BASE + i * 8;
        m.write_u64(own, start + 0x18);
        t.track_escape(own);
    }
    t.flush_escapes(|c| m.read_u64(c));
    t
}

/// Whether `writes` is a patch pass followed by its rollback: the second
/// half writes back exactly the cells of the first, each once, last first.
fn rollback_mirrors_patch(writes: &[u64]) -> bool {
    let (patch, undo) = writes.split_at(writes.len() / 2);
    writes.len().is_multiple_of(2) && patch.iter().rev().eq(undo)
}

/// `pages` pages of fixture split into `n_reqs` disjoint page-aligned
/// requests, each landing at the same offset from `MOVE_DST`.
fn split_requests(pages: u64, n_reqs: u64) -> Vec<MoveRequest> {
    (0..n_reqs)
        .map(|k| {
            let (lo, hi) = (k * pages / n_reqs, (k + 1) * pages / n_reqs);
            MoveRequest {
                src: ALLOC_BASE + lo * PAGE,
                len: (hi - lo) * PAGE,
                dst: MOVE_DST + lo * PAGE,
            }
        })
        .collect()
}

/// One request as its own transaction.
fn move_one(
    t: &mut AllocationTable,
    m: &mut VecMem,
    regs: &mut [u64],
    req: MoveRequest,
    cost: &CostModel,
) -> MoveOutcome {
    perform_move_batch_journaled(t, m, regs, &[req], cost, 1, None)
        .unwrap()
        .pop()
        .unwrap()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
    /// A batch of N disjoint requests is bit-identical — live memory,
    /// registers, table — to the same requests issued one transaction
    /// each, and the per-request outcomes match except for the documented
    /// register charge, which the batch pays once and its first outcome
    /// carries. The vacated source frames are excluded from the memory
    /// comparison: a flat copy leaves stale bytes behind, and whether a
    /// stale cell was patched before or after its range was copied out is
    /// the one thing the two orders do differently.
    #[test]
    fn batch_equals_one_transaction_per_request(case in batch_case()) {
        use proptest::prelude::*;
        let (pages, split, cells_per_alloc, seed) = case;
        let n_allocs = (pages * PAGE / ALLOC_SIZE) as usize;
        let reqs = split_requests(pages, split.min(pages));
        let cost = CostModel::default();

        let (mut t1, mut m1, mut regs1) = build_fixture(n_allocs, cells_per_alloc, seed);
        let seq: Vec<MoveOutcome> = reqs
            .iter()
            .map(|&req| move_one(&mut t1, &mut m1, &mut regs1, req, &cost))
            .collect();

        let (mut t2, mut m2, mut regs2) = build_fixture(n_allocs, cells_per_alloc, seed);
        let batch =
            perform_move_batch_journaled(&mut t2, &mut m2, &mut regs2, &reqs, &cost, 1, None)
                .unwrap();

        let vacated = ALLOC_BASE as usize..(ALLOC_BASE + pages * PAGE) as usize;
        prop_assert_eq!(&m1.bytes[..vacated.start], &m2.bytes[..vacated.start]);
        prop_assert_eq!(&m1.bytes[vacated.end..], &m2.bytes[vacated.end..]);
        prop_assert_eq!(&regs1, &regs2);
        prop_assert_eq!(t1.snapshot(), t2.snapshot());
        prop_assert_eq!(seq.len(), batch.len());
        let reg_charge = regs2.len() as u64 * cost.move_register_patch_per_reg;
        for (k, (s, b)) in seq.iter().zip(&batch).enumerate() {
            prop_assert_eq!(s.cost.register_patch, reg_charge);
            prop_assert_eq!(b.cost.register_patch, if k == 0 { reg_charge } else { 0 });
            let mut b = b.clone();
            b.cost.register_patch = reg_charge;
            prop_assert_eq!(s, &b);
        }
    }

    /// An interrupt at `MovePhase::Patched` — after every cell and register
    /// of every request was rewritten, before any copy — restores memory,
    /// registers and table byte for byte: for a random batch, and for a
    /// shared move of the same fixture that two owners see. The rollback
    /// writes back exactly the cells the patch wrote, last first, and
    /// reports as many cells and registers as the uninterrupted move
    /// patches.
    #[test]
    fn patched_interrupt_rolls_back_byte_identical(case in batch_case()) {
        use proptest::prelude::*;
        let (pages, split, cells_per_alloc, seed) = case;
        let n_allocs = (pages * PAGE / ALLOC_SIZE) as usize;
        let reqs = split_requests(pages, split.min(pages));
        let cost = CostModel::default();
        let mut fire = |phase: MovePhase| phase == MovePhase::Patched;

        // A batch of `reqs` against the fixture's one table.
        let (mut t, mut m, mut regs) = build_fixture(n_allocs, cells_per_alloc, seed);
        let done = perform_move_batch_journaled(&mut t, &mut m, &mut regs, &reqs, &cost, 1, None)
            .unwrap();
        let cells: usize = done.iter().map(|o| o.escapes_patched).sum();
        let patched_regs: usize = done.iter().map(|o| o.registers_patched).sum();

        let (mut t, mut m, mut regs) = build_fixture(n_allocs, cells_per_alloc, seed);
        let (bytes, pristine_regs, table) = (m.bytes.clone(), regs.clone(), t.snapshot());
        m.writes.clear();
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
        prop_assert_eq!(err.phase, MovePhase::Patched);
        prop_assert_eq!(err.cells_rolled_back, cells);
        prop_assert_eq!(err.registers_rolled_back, patched_regs);
        prop_assert!(m.bytes == bytes, "batch: memory not restored");
        prop_assert_eq!(&regs, &pristine_regs);
        prop_assert_eq!(t.snapshot(), table);
        prop_assert_eq!(m.writes.len(), 2 * cells);
        prop_assert!(rollback_mirrors_patch(&m.writes), "batch: rollback order");

        // One shared move of the whole fixture, patching both owners.
        let req = whole_range(n_allocs);
        let (mut t0, mut m, mut regs) = build_fixture(n_allocs, cells_per_alloc, seed);
        let mut t1 = second_owner(n_allocs, &mut m);
        regs.extend([ALLOC_BASE + 0x28, 0x77]);
        let done =
            move_transaction(&mut [&mut t0, &mut t1], &mut m, &mut regs, &[req], &cost, None)
                .unwrap()
                .remove(0);

        let (mut t0, mut m, mut regs) = build_fixture(n_allocs, cells_per_alloc, seed);
        let mut t1 = second_owner(n_allocs, &mut m);
        regs.extend([ALLOC_BASE + 0x28, 0x77]);
        let (bytes, pristine_regs) = (m.bytes.clone(), regs.clone());
        let tables = (t0.snapshot(), t1.snapshot());
        m.writes.clear();
        let err = move_transaction(
            &mut [&mut t0, &mut t1],
            &mut m,
            &mut regs,
            &[req],
            &cost,
            Some(&mut fire),
        )
        .unwrap_err();
        prop_assert_eq!(err.phase, MovePhase::Patched);
        prop_assert_eq!(err.cells_rolled_back, done.escapes_patched);
        prop_assert_eq!(err.registers_rolled_back, done.registers_patched);
        prop_assert!(m.bytes == bytes, "shared: memory not restored");
        prop_assert_eq!(&regs, &pristine_regs);
        prop_assert_eq!((t0.snapshot(), t1.snapshot()), tables);
        prop_assert_eq!(m.writes.len(), 2 * done.escapes_patched);
        prop_assert!(rollback_mirrors_patch(&m.writes), "shared: rollback order");
    }
}

/// Two owner tables map one shared allocation; each registers a cell of
/// its own and both register the same cell inside the block. The shared
/// move plans — and counts — the doubly-registered cell once, and
/// relocates the block in both tables.
#[test]
fn cell_registered_by_two_owners_is_planned_once() {
    let mut m = VecMem::new(MEM_SIZE);
    let (own0, own1, inner) = (ARENA_BASE, ARENA_BASE + 8, ALLOC_BASE + 0x80);
    m.write_u64(own0, ALLOC_BASE + 0x10);
    m.write_u64(own1, ALLOC_BASE + 0x20);
    m.write_u64(inner, ALLOC_BASE + 0x30);
    let mut tables: Vec<AllocationTable> = [own0, own1]
        .iter()
        .map(|&own| {
            let mut t = AllocationTable::new();
            t.track_alloc(ALLOC_BASE, ALLOC_SIZE, AllocKind::Heap);
            t.track_escape(own);
            t.track_escape(inner);
            t.flush_escapes(|c| m.read_u64(c));
            t
        })
        .collect();
    let req = whole_range(1);

    let views: Vec<&AllocationTable> = tables.iter().collect();
    let plan = PatchPlan::build(&views, &m, req.src, req.len, req.dst);
    let mut planned: Vec<u64> = plan.cells.iter().map(|p| p.cell).collect();
    planned.sort_unstable();
    assert_eq!(planned, vec![inner, own0, own1]);
    assert_eq!(plan.affected, vec![vec![ALLOC_BASE], vec![ALLOC_BASE]]);

    let mut regs = vec![ALLOC_BASE + 0x44, 0xdead, ALLOC_BASE + 0x48];
    let mut refs: Vec<&mut AllocationTable> = tables.iter_mut().collect();
    let out = move_transaction(
        &mut refs,
        &mut m,
        &mut regs,
        &[req],
        &CostModel::default(),
        None,
    )
    .unwrap()
    .remove(0);
    assert_eq!(out.allocations, 2, "one affected allocation per owner");
    assert_eq!(out.escapes_patched, 3, "the shared cell counts once");
    assert_eq!(out.registers_patched, 2);
    assert_eq!(m.read_u64(own0), MOVE_DST + 0x10);
    assert_eq!(m.read_u64(own1), MOVE_DST + 0x20);
    assert_eq!(m.read_u64(MOVE_DST + 0x80), MOVE_DST + 0x30, "patched once");
    assert_eq!(regs, vec![MOVE_DST + 0x44, 0xdead, MOVE_DST + 0x48]);
    for (t, own) in tables.iter().zip([own0, own1]) {
        assert!(t.info(ALLOC_BASE).is_none());
        let moved = t.info(MOVE_DST).expect("relocated in every owner");
        assert_eq!(moved.len, ALLOC_SIZE);
        assert!(moved.escapes.contains(&own));
        assert!(moved.escapes.contains(&(MOVE_DST + 0x80)), "rebased");
    }
}

/// The plan builder is pure and the fixture is deterministic, so the plan
/// itself — cells, order, values — is identical however often it is
/// rebuilt, which is what lets differential runs rebuild per arm.
#[test]
fn plan_build_is_deterministic() {
    let req = whole_range(8);
    let (t1, m1, _) = build_fixture(8, 12, 99);
    let (t2, m2, _) = build_fixture(8, 12, 99);
    let p1 = PatchPlan::build(&[&t1], &m1, req.src, req.len, req.dst);
    let p2 = PatchPlan::build(&[&t2], &m2, req.src, req.len, req.dst);
    assert_eq!(p1, p2);
    assert!(!p1.cells.is_empty());
}
