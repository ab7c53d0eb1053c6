//! The Allocation Table and Allocation-to-Escape Map (paper §4.2).
//!
//! The runtime's hard-state: every live allocation (static, stack, heap),
//! keyed by start address in an ordered map, each carrying the set of
//! memory cells that hold a pointer into it (its *escapes*). Escapes are
//! registered in batches, as in the prototype ("we use the first method
//! when tracking allocations, and the second when tracking the escapes").
//!
//! The prototype's table is "a C++ red/black tree whose key is the address
//! of an allocated block"; here it is a `BTreeMap`, the same ordered-map
//! interface at the same O(log n).

use crate::fast_hash::{FastMap, FastSet};
use std::collections::{BTreeMap, HashMap};

/// Bytes of one red/black tree node holding an allocation: the key/value
/// pair plus libstdc++'s `_Rb_tree_node_base` (colour word and parent,
/// left and right links).
const RB_NODE_BYTES: usize =
    std::mem::size_of::<(u64, AllocInfo)>() + 4 * std::mem::size_of::<u64>();

/// Where an allocation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// Global / bss (recorded at load time).
    Static,
    /// Stack slot (alloca) or thread stack.
    Stack,
    /// Heap (`malloc`).
    Heap,
}

/// Metadata for one allocation.
#[derive(Debug, Clone)]
pub struct AllocInfo {
    /// Length in bytes.
    pub len: u64,
    /// Origin.
    pub kind: AllocKind,
    /// Addresses of cells currently holding a pointer into this
    /// allocation — the Allocation-to-Escape Map entry.
    pub escapes: FastSet<u64>,
    /// Escapes ever recorded against this allocation (Figure 5 histogram
    /// counts total escapes over the program run, not just live ones).
    pub escapes_ever: u64,
}

/// Aggregate tracking statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackStats {
    /// Allocations ever registered.
    pub allocs: u64,
    /// Frees processed.
    pub frees: u64,
    /// Escape events enqueued.
    pub escape_events: u64,
    /// Escapes resolved to a live allocation at flush time.
    pub escapes_resolved: u64,
    /// High-water mark of live allocations.
    pub max_live: usize,
    /// Histogram of total escapes per allocation, recorded when an
    /// allocation dies (see [`AllocationTable::finish`] for live ones).
    pub escape_histogram: HashMap<u64, u64>,
}

/// The allocation table.
#[derive(Debug, Default)]
pub struct AllocationTable {
    tree: BTreeMap<u64, AllocInfo>,
    /// Reverse map: escape cell address → allocation start it points into.
    escape_owner: FastMap<u64, u64>,
    /// Batched escapes not yet resolved.
    pending: Vec<u64>,
    /// Σ capacity bytes of all live escape sets, maintained incrementally
    /// (sets only ever grow or are dropped whole) so the Figure 6 overhead
    /// query is O(1) instead of a walk over every live allocation.
    escape_set_bytes: usize,
    /// Statistics.
    pub stats: TrackStats,
}

impl AllocationTable {
    /// Empty table.
    pub fn new() -> AllocationTable {
        AllocationTable::default()
    }

    /// Number of live allocations.
    pub fn live(&self) -> usize {
        self.tree.len()
    }

    /// Register a new allocation.
    ///
    /// Overlapping registrations indicate a substrate bug; the new entry
    /// replaces any entry at the identical start address.
    pub fn track_alloc(&mut self, start: u64, len: u64, kind: AllocKind) {
        self.stats.allocs += 1;
        let replaced = self.tree.insert(
            start,
            AllocInfo {
                len,
                kind,
                escapes: FastSet::default(),
                escapes_ever: 0,
            },
        );
        if let Some(old) = replaced {
            self.escape_set_bytes -= old.escapes.capacity() * std::mem::size_of::<u64>();
        }
        self.stats.max_live = self.stats.max_live.max(self.tree.len());
    }

    /// Deregister an allocation; returns its metadata. Records its final
    /// escape count in the lifetime histogram and drops its escape cells
    /// from the reverse map.
    pub fn track_free(&mut self, start: u64) -> Option<AllocInfo> {
        let info = self.tree.remove(&start)?;
        self.escape_set_bytes -= info.escapes.capacity() * std::mem::size_of::<u64>();
        self.stats.frees += 1;
        for e in &info.escapes {
            self.escape_owner.remove(e);
        }
        *self
            .stats
            .escape_histogram
            .entry(info.escapes_ever)
            .or_insert(0) += 1;
        Some(info)
    }

    /// The allocation containing `addr`, if any.
    pub fn find_containing(&self, addr: u64) -> Option<(u64, &AllocInfo)> {
        let (&start, info) = self.tree.range(..=addr).next_back()?;
        (addr < start + info.len).then_some((start, info))
    }

    /// Queue an escape event: a pointer was stored at cell `dst`.
    pub fn track_escape(&mut self, dst: u64) {
        self.stats.escape_events += 1;
        self.pending.push(dst);
    }

    /// Number of queued, unprocessed escapes.
    pub fn pending_escapes(&self) -> usize {
        self.pending.len()
    }

    /// Resolve all queued escapes. `read_ptr(cell)` returns the pointer
    /// value currently stored at `cell` (the VM/kernel reads simulated
    /// memory). Returns the number of escapes resolved.
    ///
    /// Later writes to the same cell override earlier ones — the batch is
    /// processed in order, and a cell is re-pointed to its newest target.
    pub fn flush_escapes(&mut self, mut read_ptr: impl FnMut(u64) -> u64) -> usize {
        let pending = std::mem::take(&mut self.pending);
        let mut resolved = 0;
        for cell in pending {
            // Remove a previous binding of this cell.
            if let Some(prev_start) = self.escape_owner.remove(&cell) {
                if let Some(info) = self.tree.get_mut(&prev_start) {
                    let cap_before = info.escapes.capacity();
                    info.escapes.remove(&cell);
                    self.escape_set_bytes += info.escapes.capacity() * std::mem::size_of::<u64>();
                    self.escape_set_bytes -= cap_before * std::mem::size_of::<u64>();
                }
            }
            let ptr = read_ptr(cell);
            let Some((&start, info)) = self
                .tree
                .range_mut(..=ptr)
                .next_back()
                .filter(|(&start, info)| ptr < start + info.len)
            else {
                continue; // null or points outside tracked memory
            };
            let cap_before = info.escapes.capacity();
            if info.escapes.insert(cell) {
                info.escapes_ever += 1;
            }
            self.escape_set_bytes += info.escapes.capacity() * std::mem::size_of::<u64>();
            self.escape_set_bytes -= cap_before * std::mem::size_of::<u64>();
            self.escape_owner.insert(cell, start);
            resolved += 1;
        }
        self.stats.escapes_resolved += resolved as u64;
        resolved
    }

    /// Start addresses of allocations overlapping `[lo, hi)`.
    pub fn overlapping(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.overlapping_infos(lo, hi).map(|(s, _)| s).collect()
    }

    /// Allocations overlapping `[lo, hi)` as `(start, &info)` pairs, in
    /// ascending start order (a straddler from below comes first). The
    /// patch planner and expansion loops iterate this directly, avoiding
    /// both the intermediate start vector and the per-start re-lookup
    /// through [`Self::info`].
    pub fn overlapping_infos(
        &self,
        lo: u64,
        hi: u64,
    ) -> impl Iterator<Item = (u64, &AllocInfo)> + '_ {
        // An allocation starting strictly before `lo` may straddle into the
        // range.
        let straddler = self
            .tree
            .range(..lo)
            .next_back()
            .filter(|&(&start, info)| start + info.len > lo);
        // `BTreeMap::range` panics on an inverted range; that one is empty.
        let within = (lo < hi).then(|| self.tree.range(lo..hi));
        straddler
            .into_iter()
            .chain(within.into_iter().flatten())
            .map(|(&start, info)| (start, info))
    }

    /// Borrow an allocation's metadata by start address.
    pub fn info(&self, start: u64) -> Option<&AllocInfo> {
        self.tree.get(&start)
    }

    /// Hand an existing escape set (e.g. salvaged from [`Self::track_free`])
    /// to the allocation at `start`: each cell is registered in the
    /// reverse map against `start` (`track_free` dropped it), and the
    /// incremental byte accounting behind
    /// [`Self::memory_overhead_bytes`] stays consistent.
    pub fn adopt_escapes(&mut self, start: u64, escapes: FastSet<u64>, escapes_ever: u64) {
        if let Some(info) = self.tree.get_mut(&start) {
            for &cell in &escapes {
                self.escape_owner.insert(cell, start);
            }
            let cap_before = info.escapes.capacity();
            info.escapes = escapes;
            info.escapes_ever = escapes_ever;
            self.escape_set_bytes += info.escapes.capacity() * std::mem::size_of::<u64>();
            self.escape_set_bytes -= cap_before * std::mem::size_of::<u64>();
        }
    }

    /// Relocate allocation `start` to `start + delta`, rebasing its key.
    /// Escape-cell rebasing is the patch engine's job; this moves only the
    /// table entry.
    pub fn relocate(&mut self, start: u64, delta: i64) {
        if let Some(info) = self.tree.remove(&start) {
            let new_start = start.wrapping_add(delta as u64);
            for e in &info.escapes {
                self.escape_owner.insert(*e, new_start);
            }
            self.tree.insert(new_start, info);
        }
    }

    /// Rebase escape cells that themselves live inside `[lo, hi)` by
    /// `delta` (their containing allocation moved, so the cells moved).
    pub fn rebase_escape_cells(&mut self, lo: u64, hi: u64, delta: i64) -> usize {
        let moved: Vec<(u64, u64)> = self
            .escape_owner
            .iter()
            .filter(|(&cell, _)| cell >= lo && cell < hi)
            .map(|(&c, &o)| (c, o))
            .collect();
        for &(cell, owner) in &moved {
            let new_cell = cell.wrapping_add(delta as u64);
            self.escape_owner.remove(&cell);
            self.escape_owner.insert(new_cell, owner);
            if let Some(info) = self.tree.get_mut(&owner) {
                let cap_before = info.escapes.capacity();
                info.escapes.remove(&cell);
                info.escapes.insert(new_cell);
                // remove+insert can shrink capacity() by a tombstone, so
                // apply the delta as add-then-subtract (never underflows:
                // the total includes this set's previous contribution).
                self.escape_set_bytes += info.escapes.capacity() * std::mem::size_of::<u64>();
                self.escape_set_bytes -= cap_before * std::mem::size_of::<u64>();
            }
        }
        moved.len()
    }

    /// Total live escapes across every allocation, read off the reverse
    /// map in O(1). This is the compaction-victim score: the kernel ranks
    /// descheduled tenants by it without walking their allocation trees.
    pub fn live_escapes(&self) -> usize {
        self.escape_owner.len()
    }

    /// Live allocations starting below `hi`, as `(start, &info)` pairs in
    /// ascending start order — a walk of the table without a copy.
    pub fn below(&self, hi: u64) -> impl Iterator<Item = (u64, &AllocInfo)> + '_ {
        self.tree.range(..hi).map(|(&start, info)| (start, info))
    }

    /// All live allocations as `(start, len, escapes_live, escapes_ever)`.
    pub fn snapshot(&self) -> Vec<(u64, u64, usize, u64)> {
        self.tree
            .iter()
            .map(|(&s, i)| (s, i.len, i.escapes.len(), i.escapes_ever))
            .collect()
    }

    /// Fold live allocations into the lifetime escape histogram (call at
    /// program end before reading [`TrackStats::escape_histogram`]).
    pub fn finish(&mut self) {
        for info in self.tree.values() {
            *self
                .stats
                .escape_histogram
                .entry(info.escapes_ever)
                .or_insert(0) += 1;
        }
    }

    /// Approximate bytes of tracking state — the Figure 6 memory overhead.
    ///
    /// O(1): the escape-set component is maintained incrementally, so the
    /// VM can sample this on every tracking callback without a table walk.
    /// The tree term models the prototype's red/black tree
    /// (`RB_NODE_BYTES` per node at the live high water), not the host
    /// map.
    pub fn memory_overhead_bytes(&self) -> usize {
        let tree = self.stats.max_live * RB_NODE_BYTES;
        let reverse = self.escape_owner.capacity()
            * (std::mem::size_of::<u64>() * 2 + std::mem::size_of::<usize>());
        let pending = self.pending.capacity() * std::mem::size_of::<u64>();
        tree + self.escape_set_bytes + reverse + pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_lifecycle() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        t.track_alloc(0x2000, 512, AllocKind::Heap);
        assert_eq!(t.live(), 2);
        assert_eq!(t.find_containing(0x10ff).map(|(s, _)| s), Some(0x1000));
        assert!(t.find_containing(0x1100).is_none(), "past the end");
        let info = t.track_free(0x1000).expect("tracked");
        assert_eq!(info.len, 256);
        assert_eq!(t.live(), 1);
        assert_eq!(t.stats.allocs, 2);
        assert_eq!(t.stats.frees, 1);
    }

    #[test]
    fn escapes_resolve_in_batches() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        // Cells 0x5000 and 0x5008 hold pointers into the allocation.
        let mem: HashMap<u64, u64> = [(0x5000, 0x1000), (0x5008, 0x10f0), (0x5010, 0x9999)].into();
        t.track_escape(0x5000);
        t.track_escape(0x5008);
        t.track_escape(0x5010); // dangling target: ignored
        assert_eq!(t.pending_escapes(), 3);
        let n = t.flush_escapes(|c| mem[&c]);
        assert_eq!(n, 2);
        assert_eq!(t.pending_escapes(), 0);
        let info = t.info(0x1000).unwrap();
        assert_eq!(info.escapes.len(), 2);
        assert_eq!(info.escapes_ever, 2);
    }

    #[test]
    fn overwriting_a_cell_rebinds_the_escape() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        t.track_alloc(0x2000, 256, AllocKind::Heap);
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x1000);
        assert_eq!(t.info(0x1000).unwrap().escapes.len(), 1);
        // Same cell now stores a pointer to the other allocation.
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x2000);
        assert_eq!(t.info(0x1000).unwrap().escapes.len(), 0);
        assert_eq!(t.info(0x2000).unwrap().escapes.len(), 1);
    }

    #[test]
    fn overlapping_includes_straddlers() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x0f00, 0x200, AllocKind::Heap); // straddles 0x1000
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        t.track_alloc(0x3000, 0x100, AllocKind::Heap);
        let hits = t.overlapping(0x1000, 0x2000);
        assert_eq!(hits, vec![0x0f00, 0x1000]);
    }

    #[test]
    fn relocate_moves_key_and_reverse_map() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 256, AllocKind::Heap);
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x1080);
        t.relocate(0x1000, 0x7000);
        assert!(t.info(0x1000).is_none());
        let info = t.info(0x8000).expect("moved");
        assert_eq!(info.escapes.len(), 1);
        // The escape cell still points at the allocation logically.
        t.track_escape(0x5000);
        t.flush_escapes(|_| 0x8080);
        assert_eq!(t.info(0x8000).unwrap().escapes.len(), 1);
    }

    #[test]
    fn rebase_escape_cells_moves_cells_within_range() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 0x100, AllocKind::Heap);
        t.track_alloc(0x2000, 0x100, AllocKind::Heap);
        // A cell at 0x1010 (inside alloc A) points into alloc B.
        t.track_escape(0x1010);
        t.flush_escapes(|_| 0x2050);
        assert!(t.info(0x2000).unwrap().escapes.contains(&0x1010));
        // Alloc A's range moves by +0x7000.
        let n = t.rebase_escape_cells(0x1000, 0x1100, 0x7000);
        assert_eq!(n, 1);
        let esc = &t.info(0x2000).unwrap().escapes;
        assert!(esc.contains(&0x8010));
        assert!(!esc.contains(&0x1010));
    }

    /// Stack growth frees the old stack entry and hands its escape set to
    /// the enlarged one: the cells must be owned by the new start again.
    #[test]
    fn adopted_escapes_are_registered_against_the_new_start() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 0x100, AllocKind::Stack);
        t.track_alloc(0x5000, 0x100, AllocKind::Heap);
        // A cell inside the heap block points into the stack.
        t.track_escape(0x5010);
        t.flush_escapes(|_| 0x1080);
        let info = t.track_free(0x1000).expect("tracked");
        t.track_alloc(0x0800, 0x900, AllocKind::Stack);
        t.adopt_escapes(0x0800, info.escapes, info.escapes_ever);
        assert_eq!(t.live_escapes(), 1, "the victim score counts the cell");
        // Moving the cell's own allocation rebases the adopted cell.
        assert_eq!(t.rebase_escape_cells(0x5000, 0x5100, 0x1000), 1);
        let esc = &t.info(0x0800).unwrap().escapes;
        assert!(esc.contains(&0x6010) && !esc.contains(&0x5010));
        // Rebinding the cell to null drops it from the stack's set.
        t.track_escape(0x6010);
        t.flush_escapes(|_| 0);
        assert!(t.info(0x0800).unwrap().escapes.is_empty());
        assert_eq!(t.live_escapes(), 0);
    }

    #[test]
    fn histogram_counts_lifetime_escapes() {
        let mut t = AllocationTable::new();
        t.track_alloc(0x1000, 64, AllocKind::Heap);
        t.track_escape(0x5000);
        t.track_escape(0x5008);
        t.flush_escapes(|c| if c == 0x5000 { 0x1000 } else { 0x1008 });
        t.track_free(0x1000);
        t.track_alloc(0x2000, 64, AllocKind::Heap); // zero escapes, stays live
        t.finish();
        assert_eq!(t.stats.escape_histogram.get(&2), Some(&1));
        assert_eq!(t.stats.escape_histogram.get(&0), Some(&1));
    }

    #[test]
    fn memory_overhead_grows_with_tracking() {
        let mut t = AllocationTable::new();
        let before = t.memory_overhead_bytes();
        for i in 0..1000 {
            t.track_alloc(0x10000 + i * 64, 64, AllocKind::Heap);
        }
        assert!(t.memory_overhead_bytes() > before);
    }

    /// The incrementally-maintained escape-set byte count must equal a
    /// from-scratch fold over every live allocation, beside the modeled
    /// tree term.
    #[test]
    fn incremental_escape_bytes_match_full_fold() {
        let mut t = AllocationTable::new();
        for i in 0..64u64 {
            t.track_alloc(0x10000 + i * 0x100, 0x100, AllocKind::Heap);
        }
        // Scatter escapes across allocations, rebind some cells, free a few.
        for c in 0..500u64 {
            t.track_escape(0x90000 + c * 8);
        }
        t.flush_escapes(|cell| 0x10000 + (cell % 64) * 0x100);
        for c in 0..100u64 {
            t.track_escape(0x90000 + c * 8); // rebind to a different target
        }
        t.flush_escapes(|cell| 0x10000 + ((cell + 7) % 64) * 0x100);
        let tree = t.stats.max_live * RB_NODE_BYTES;
        for i in 0..16u64 {
            t.track_free(0x10000 + i * 0x100);
        }
        t.rebase_escape_cells(0x90000, 0x90400, 0x1_0000);
        // The tree term is a high-water mark: frees do not lower it.
        assert_eq!(t.stats.max_live * RB_NODE_BYTES, tree);
        assert_eq!(tree, 64 * RB_NODE_BYTES);
        let fold: usize = (0..64u64)
            .filter_map(|i| t.info(0x10000 + i * 0x100))
            .map(|info| info.escapes.capacity() * std::mem::size_of::<u64>())
            .sum();
        let reverse = t.escape_owner.capacity()
            * (std::mem::size_of::<u64>() * 2 + std::mem::size_of::<usize>());
        let pending = t.pending.capacity() * std::mem::size_of::<u64>();
        assert_eq!(t.memory_overhead_bytes(), tree + fold + reverse + pending);
    }

    /// The kernel's `POISON_BASE`: where swapped allocations live.
    const POISON: u64 = 0xFFFF_8000_0000_0000;

    fn at(poison: bool, off: u64) -> u64 {
        if poison {
            POISON + off
        } else {
            off
        }
    }

    /// The table's order queries against linear scans of `model`
    /// (start → len).
    fn check_against(
        t: &AllocationTable,
        model: &BTreeMap<u64, u64>,
        queries: &[(bool, u64, bool, u64)],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.live(), model.len());
        for &(lo_poison, lo, hi_poison, hi) in queries {
            let (lo, hi) = (at(lo_poison, lo), at(hi_poison, hi));
            let want: Vec<u64> = model
                .iter()
                .filter(|&(&start, &len)| {
                    (start < lo && start + len > lo) || (lo <= start && start < hi)
                })
                .map(|(&start, _)| start)
                .collect();
            prop_assert_eq!(t.overlapping(lo, hi), want, "[{:#x}, {:#x})", lo, hi);
            for q in [lo, hi] {
                let holder = model
                    .iter()
                    .find(|&(&start, &len)| start <= q && q < start + len)
                    .map(|(&start, &len)| (start, len));
                let found = t.find_containing(q).map(|(start, info)| (start, info.len));
                prop_assert_eq!(found, holder, "find_containing({:#x})", q);
            }
        }
        Ok(())
    }

    proptest! {
        /// `overlapping_infos(lo, hi)` is the filter it abbreviates —
        /// every allocation that starts in `[lo, hi)` plus the one that
        /// straddles `lo` from below, ascending — with swapped
        /// (poison-resident) allocations sorting above everything, a
        /// query at `lo == 0`, and empty or inverted ranges; and
        /// `find_containing` is the allocation a linear scan finds. Both
        /// are re-checked after every free (of a live or an untracked
        /// start) and every re-registration at a live start, which
        /// replaces the entry there.
        #[test]
        fn overlapping_infos_equals_the_filter(
            allocs in proptest::collection::vec((0u64..64, 1u64..=0x100, proptest::bool::ANY), 0..40),
            steps in proptest::collection::vec(
                (proptest::bool::ANY, 0u64..64, 1u64..=0x100, proptest::bool::ANY), 0..24),
            queries in proptest::collection::vec(
                (proptest::bool::ANY, 0u64..0x4100, proptest::bool::ANY, 0u64..0x4100), 1..24),
        ) {
            let mut t = AllocationTable::new();
            let mut model = BTreeMap::new();
            // Slots 0x100 apart, so allocations never overlap each other.
            for (slot, len, poison) in allocs {
                let start = at(poison, slot * 0x100);
                t.track_alloc(start, len, AllocKind::Heap);
                model.insert(start, len);
            }
            check_against(&t, &model, &queries)?;
            for (free, pick, len, poison) in steps {
                if free {
                    let start = at(poison, pick * 0x100);
                    prop_assert_eq!(t.track_free(start).map(|info| info.len), model.remove(&start));
                } else if let Some(&start) = model.keys().nth(pick as usize % model.len().max(1)) {
                    t.track_alloc(start, len, AllocKind::Heap);
                    model.insert(start, len);
                }
                check_against(&t, &model, &queries)?;
            }
        }
    }
}
