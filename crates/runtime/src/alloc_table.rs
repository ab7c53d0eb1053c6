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
//!
//! The map's values are *slots*: indices into a vector of [`AllocInfo`]s,
//! each kept for as long as its allocation lives, however often it moves.
//! The reverse map (escape cell → owner) names owners by slot, so
//! relocating an allocation re-keys one tree entry and no escape, and a
//! moved cell reaches its owner without a tree descent. Once the table
//! has seen a move, its escape cells are also indexed by the page they
//! sit on, so a move visits only the cells of the pages it moved.

use crate::fast_hash::{FastMap, FastSet};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// Bytes of one red/black tree node holding an allocation: the key/value
/// pair plus libstdc++'s `_Rb_tree_node_base` (colour word and parent,
/// left and right links).
const RB_NODE_BYTES: usize =
    std::mem::size_of::<(u64, AllocInfo)>() + 4 * std::mem::size_of::<u64>();

/// Bytes of one escape cell: a pointer.
const CELL_BYTES: usize = std::mem::size_of::<u64>();

/// Bytes per bucket of the page index: the kernel's page size.
const INDEX_PAGE: u64 = 4096;

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

impl AllocInfo {
    /// A fresh entry with no escapes (no heap memory).
    fn new(len: u64, kind: AllocKind) -> AllocInfo {
        AllocInfo {
            len,
            kind,
            escapes: FastSet::default(),
            escapes_ever: 0,
        }
    }
}

/// Escape cells partitioned by page: page number → the cells on it.
#[derive(Debug, Default)]
struct PageIndex(FastMap<u64, FastSet<u64>>);

impl PageIndex {
    fn insert(&mut self, cell: u64) {
        self.0.entry(cell / INDEX_PAGE).or_default().insert(cell);
    }

    fn remove(&mut self, cell: u64) {
        if let Entry::Occupied(mut bucket) = self.0.entry(cell / INDEX_PAGE) {
            bucket.get_mut().remove(&cell);
            if bucket.get().is_empty() {
                bucket.remove();
            }
        }
    }
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
    /// Start address → slot in `slots`.
    tree: BTreeMap<u64, u32>,
    /// Allocation metadata by slot. A freed slot holds an empty entry
    /// until [`Self::track_alloc`] reuses it.
    slots: Vec<AllocInfo>,
    /// Freed slots, reused last in, first out.
    free_slots: Vec<u32>,
    /// Reverse map: escape cell address → slot of the allocation it
    /// points into. Every entry is in its owner's escape set and every
    /// escape set member has an entry, so no entry outlives its
    /// allocation and a reused slot inherits none.
    escape_owner: FastMap<u64, u32>,
    /// The keys of `escape_owner` by page. Built by the first
    /// [`Self::rebase_escape_cells`] and maintained from then on: a table
    /// that never moves never allocates it.
    pages: Option<PageIndex>,
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

    fn slot(&self, slot: u32) -> &AllocInfo {
        &self.slots[slot as usize]
    }

    /// Apply `edit` to the escape set in `slot`, keeping
    /// `escape_set_bytes` the sum of every set's capacity. A remove or an
    /// insert can shrink `capacity()` by a tombstone, so the change is
    /// applied as add-then-subtract (never underflows: the total includes
    /// this set's previous contribution).
    fn edit_escapes<R>(&mut self, slot: u32, edit: impl FnOnce(&mut FastSet<u64>) -> R) -> R {
        let set = &mut self.slots[slot as usize].escapes;
        let cap_before = set.capacity();
        let out = edit(set);
        self.escape_set_bytes += set.capacity() * CELL_BYTES;
        self.escape_set_bytes -= cap_before * CELL_BYTES;
        out
    }

    /// Drop a dead escape set: its bytes, and its cells from the reverse
    /// map and the page index.
    fn unregister(&mut self, cells: &FastSet<u64>) {
        self.escape_set_bytes -= cells.capacity() * CELL_BYTES;
        for &cell in cells {
            self.escape_owner.remove(&cell);
            if let Some(pages) = &mut self.pages {
                pages.remove(cell);
            }
        }
    }

    /// Register a new allocation.
    ///
    /// Overlapping registrations indicate a substrate bug; the new entry
    /// replaces any entry at the identical start address, whose escapes
    /// leave the reverse map as on a free (no free is counted).
    pub fn track_alloc(&mut self, start: u64, len: u64, kind: AllocKind) {
        self.stats.allocs += 1;
        let info = AllocInfo::new(len, kind);
        if let Some(&slot) = self.tree.get(&start) {
            let old = std::mem::replace(&mut self.slots[slot as usize], info);
            self.unregister(&old.escapes);
        } else {
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = info;
                    slot
                }
                None => {
                    self.slots.push(info);
                    (self.slots.len() - 1) as u32
                }
            };
            self.tree.insert(start, slot);
        }
        self.stats.max_live = self.stats.max_live.max(self.tree.len());
    }

    /// Deregister an allocation; returns its metadata. Records its final
    /// escape count in the lifetime histogram and drops its escape cells
    /// from the reverse map.
    pub fn track_free(&mut self, start: u64) -> Option<AllocInfo> {
        let slot = self.tree.remove(&start)?;
        let info = std::mem::replace(
            &mut self.slots[slot as usize],
            AllocInfo::new(0, AllocKind::Heap),
        );
        self.free_slots.push(slot);
        self.stats.frees += 1;
        self.unregister(&info.escapes);
        *self
            .stats
            .escape_histogram
            .entry(info.escapes_ever)
            .or_insert(0) += 1;
        Some(info)
    }

    /// Start and slot of the allocation containing `addr`, if any.
    fn containing(&self, addr: u64) -> Option<(u64, u32)> {
        let (&start, &slot) = self.tree.range(..=addr).next_back()?;
        (addr < start + self.slot(slot).len).then_some((start, slot))
    }

    /// The allocation containing `addr`, if any.
    pub fn find_containing(&self, addr: u64) -> Option<(u64, &AllocInfo)> {
        self.containing(addr)
            .map(|(start, slot)| (start, self.slot(slot)))
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
            let prev = self.escape_owner.remove(&cell);
            if let Some(prev) = prev {
                self.edit_escapes(prev, |set| set.remove(&cell));
            }
            let Some((_, slot)) = self.containing(read_ptr(cell)) else {
                // Null or points outside tracked memory.
                if let (Some(pages), Some(_)) = (&mut self.pages, prev) {
                    pages.remove(cell);
                }
                continue;
            };
            if self.edit_escapes(slot, |set| set.insert(cell)) {
                self.slots[slot as usize].escapes_ever += 1;
            }
            self.escape_owner.insert(cell, slot);
            if let (Some(pages), None) = (&mut self.pages, prev) {
                pages.insert(cell);
            }
            resolved += 1;
        }
        self.stats.escapes_resolved += resolved as u64;
        resolved
    }

    /// Allocations overlapping `[lo, hi)` as `(start, &info)` pairs, in
    /// ascending start order (a straddler from below comes first). The
    /// patch planner and expansion loops iterate this directly, avoiding
    /// both an intermediate start vector and a per-start re-lookup
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
            .map(|(&start, &slot)| (start, self.slot(slot)))
            .filter(|&(start, info)| start + info.len > lo);
        // `BTreeMap::range` panics on an inverted range; that one is empty.
        let within = (lo < hi).then(|| self.tree.range(lo..hi));
        straddler.into_iter().chain(
            within
                .into_iter()
                .flatten()
                .map(|(&start, &slot)| (start, self.slot(slot))),
        )
    }

    /// Borrow an allocation's metadata by start address.
    pub fn info(&self, start: u64) -> Option<&AllocInfo> {
        self.tree.get(&start).map(|&slot| self.slot(slot))
    }

    /// Hand an existing escape set (e.g. salvaged from [`Self::track_free`])
    /// to the allocation at `start`: each cell is registered in the
    /// reverse map against `start` (`track_free` dropped it), and the
    /// incremental byte accounting behind
    /// [`Self::memory_overhead_bytes`] stays consistent. The cells must
    /// not be registered elsewhere; any escapes `start` already had are
    /// dropped.
    pub fn adopt_escapes(&mut self, start: u64, escapes: FastSet<u64>, escapes_ever: u64) {
        let Some(&slot) = self.tree.get(&start) else {
            return;
        };
        let info = &mut self.slots[slot as usize];
        info.escapes_ever = escapes_ever;
        let displaced = std::mem::take(&mut info.escapes);
        self.unregister(&displaced);
        for &cell in &escapes {
            self.escape_owner.insert(cell, slot);
            if let Some(pages) = &mut self.pages {
                pages.insert(cell);
            }
        }
        self.escape_set_bytes += escapes.capacity() * CELL_BYTES;
        self.slots[slot as usize].escapes = escapes;
    }

    /// Relocate allocation `start` to `start + delta`, rebasing its key.
    /// Escape-cell rebasing is the patch engine's job; this moves only the
    /// table entry (escapes name their owner by slot, not by address).
    pub fn relocate(&mut self, start: u64, delta: i64) {
        if let Some(slot) = self.tree.remove(&start) {
            self.tree.insert(start.wrapping_add(delta as u64), slot);
        }
    }

    /// Rebase escape cells that themselves live inside `[lo, hi)` by
    /// `delta` (their containing allocation moved, so the cells moved).
    /// Returns how many cells moved.
    ///
    /// Visits only the page index's buckets for the pages of `[lo, hi)`.
    pub fn rebase_escape_cells(&mut self, lo: u64, hi: u64, delta: i64) -> usize {
        if lo >= hi {
            return 0;
        }
        let owners = &self.escape_owner;
        let pages = self.pages.get_or_insert_with(|| {
            let mut index = PageIndex::default();
            for &cell in owners.keys() {
                index.insert(cell);
            }
            index
        });
        // Take every cell of the range out of the index before any new
        // address goes in: the range and its image may share a page.
        let mut moving = Vec::new();
        for page in lo / INDEX_PAGE..=(hi - 1) / INDEX_PAGE {
            let Some(cells) = pages.0.remove(&page) else {
                continue;
            };
            let mut rest = FastSet::default();
            for cell in cells {
                if (lo..hi).contains(&cell) {
                    moving.push(cell);
                } else {
                    rest.insert(cell);
                }
            }
            if !rest.is_empty() {
                pages.0.insert(page, rest);
            }
        }
        // The range and its image are disjoint (a move's destination is
        // free memory), so no new address is an old one still to move.
        let shift = delta as u64;
        for cell in &mut moving {
            let slot = self
                .escape_owner
                .remove(cell)
                .expect("an indexed cell is registered");
            let old = std::mem::replace(cell, cell.wrapping_add(shift));
            self.escape_owner.insert(*cell, slot);
            self.edit_escapes(slot, |set| {
                set.remove(&old);
                set.insert(*cell)
            });
        }
        // The cells left the index page by page, so their new addresses
        // come in runs that share a page: one bucket lookup per run.
        let pages = self.pages.as_mut().expect("built above");
        for run in moving.chunk_by(|a, b| a / INDEX_PAGE == b / INDEX_PAGE) {
            pages.0.entry(run[0] / INDEX_PAGE).or_default().extend(run);
        }
        moving.len()
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
        self.tree
            .range(..hi)
            .map(|(&start, &slot)| (start, self.slot(slot)))
    }

    /// All live allocations as `(start, len, escapes_live, escapes_ever)`,
    /// in start order: a comparable copy for tests that check a move or a
    /// rollback left the table as it should.
    pub fn snapshot(&self) -> Vec<(u64, u64, usize, u64)> {
        self.below(u64::MAX)
            .map(|(s, i)| (s, i.len, i.escapes.len(), i.escapes_ever))
            .collect()
    }

    /// Fold live allocations into the lifetime escape histogram (call at
    /// program end before reading [`TrackStats::escape_histogram`]).
    pub fn finish(&mut self) {
        for &slot in self.tree.values() {
            *self
                .stats
                .escape_histogram
                .entry(self.slots[slot as usize].escapes_ever)
                .or_insert(0) += 1;
        }
    }

    /// Approximate bytes of tracking state — the Figure 6 memory overhead.
    ///
    /// O(1): the escape-set component is maintained incrementally, so the
    /// VM can sample this on every tracking callback without a table walk.
    /// The tree term models the prototype's red/black tree
    /// (`RB_NODE_BYTES` per node at the live high water), not the host
    /// map. The slot vector and the page index are host acceleration, like
    /// the `BTreeMap`'s own nodes, and are not counted either.
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
    use std::collections::BTreeSet;

    /// Start addresses of the allocations overlapping `[lo, hi)`.
    fn starts(t: &AllocationTable, lo: u64, hi: u64) -> Vec<u64> {
        t.overlapping_infos(lo, hi)
            .map(|(start, _)| start)
            .collect()
    }

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
        assert_eq!(starts(&t, 0x1000, 0x2000), vec![0x0f00, 0x1000]);
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
        assert_eq!(t.memory_overhead_bytes(), tree + fold + fixed_terms(&t));
    }

    /// The reverse-map and pending terms of the Figure 6 overhead.
    fn fixed_terms(t: &AllocationTable) -> usize {
        let reverse = t.escape_owner.capacity()
            * (std::mem::size_of::<u64>() * 2 + std::mem::size_of::<usize>());
        reverse + t.pending.capacity() * std::mem::size_of::<u64>()
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
            prop_assert_eq!(starts(t, lo, hi), want, "[{:#x}, {:#x})", lo, hi);
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

    /// A plain model of the table: start → (len, cells), and each cell's
    /// owner start.
    #[derive(Default)]
    struct Model {
        allocs: BTreeMap<u64, (u64, BTreeSet<u64>)>,
        owner: BTreeMap<u64, u64>,
    }

    impl Model {
        fn containing(&self, addr: u64) -> Option<u64> {
            let (&start, &(len, _)) = self.allocs.range(..=addr).next_back()?;
            (addr < start + len).then_some(start)
        }

        /// No live allocation meets `[lo, hi)`.
        fn is_free(&self, lo: u64, hi: u64) -> bool {
            self.containing(lo).is_none() && self.allocs.range(lo..hi).next().is_none()
        }

        fn nth(&self, pick: u64) -> Option<(u64, u64)> {
            let n = self.allocs.len() as u64;
            (n > 0).then(|| {
                let (&start, &(len, _)) = self.allocs.iter().nth((pick % n) as usize).unwrap();
                (start, len)
            })
        }

        fn unbind(&mut self, cell: u64) {
            if let Some(start) = self.owner.remove(&cell) {
                self.allocs.get_mut(&start).unwrap().1.remove(&cell);
            }
        }

        fn free(&mut self, start: u64) -> Option<(u64, BTreeSet<u64>)> {
            let (len, cells) = self.allocs.remove(&start)?;
            for cell in &cells {
                self.owner.remove(cell);
            }
            Some((len, cells))
        }

        fn adopt(&mut self, start: u64, len: u64, cells: BTreeSet<u64>) {
            for &cell in &cells {
                self.owner.insert(cell, start);
            }
            self.allocs.insert(start, (len, cells));
        }
    }

    /// The table against `m`: every live allocation's length and escape
    /// set, each cell's owner, `live_escapes`, `find_containing` at
    /// `queries` and at every allocation's edges, the page index (absent
    /// until the first move, then exactly the registered cells), and the
    /// incremental Figure 6 fold.
    fn check_model(
        t: &AllocationTable,
        m: &Model,
        moved_yet: bool,
        queries: &[u64],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.live(), m.allocs.len());
        for (&start, (len, cells)) in &m.allocs {
            let info = t.info(start);
            prop_assert!(info.is_some(), "{:#x} is live", start);
            let info = info.unwrap();
            prop_assert_eq!(info.len, *len);
            let got: BTreeSet<u64> = info.escapes.iter().copied().collect();
            prop_assert_eq!(&got, cells, "escapes of {:#x}", start);
        }
        prop_assert_eq!(t.live_escapes(), m.owner.len());
        for (&cell, owner) in &m.owner {
            prop_assert_eq!(
                t.escape_owner.get(&cell),
                t.tree.get(owner),
                "owner of {:#x}",
                cell
            );
        }
        let edges = m
            .allocs
            .iter()
            .flat_map(|(&start, &(len, _))| [start, start + len - 1, start + len]);
        for q in queries.iter().copied().chain(edges) {
            let found = t.find_containing(q).map(|(start, _)| start);
            prop_assert_eq!(found, m.containing(q), "find_containing({:#x})", q);
        }
        prop_assert_eq!(t.pages.is_some(), moved_yet);
        if let Some(pages) = &t.pages {
            let mut indexed = Vec::new();
            for (&page, cells) in &pages.0 {
                prop_assert!(!cells.is_empty(), "page {:#x} has an empty bucket", page);
                for &cell in cells {
                    prop_assert_eq!(cell / INDEX_PAGE, page);
                    indexed.push(cell);
                }
            }
            indexed.sort_unstable();
            prop_assert!(indexed.iter().eq(m.owner.keys()));
        }
        let fold: usize = t
            .below(u64::MAX)
            .map(|(_, info)| info.escapes.capacity() * CELL_BYTES)
            .sum();
        prop_assert_eq!(
            t.memory_overhead_bytes(),
            t.stats.max_live * RB_NODE_BYTES + fold + fixed_terms(t)
        );
        Ok(())
    }

    proptest! {
        /// The table is the plain model it accelerates through every
        /// mutation: registration (fresh, and at a live start, which
        /// replaces the entry and its escapes), frees of live and
        /// untracked starts, escape batches that bind, rebind to another
        /// owner and rebind to null, a free handing its escapes to a new
        /// allocation (stack growth), and moves as `move_transaction`
        /// performs them — rebase the cells in the allocation-expanded
        /// range, then relocate every allocation in it — by page-aligned
        /// and unaligned deltas, into and out of the `POISON` window.
        /// Moves come at arbitrary points, so the page index is built from
        /// whatever the reverse map holds then.
        #[test]
        fn table_equals_the_model_under_moves(
            steps in proptest::collection::vec(
                (
                    0u8..6,
                    0u64..1 << 20,
                    0u64..1 << 20,
                    0u64..1 << 20,
                    proptest::bool::ANY,
                    proptest::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..6),
                ),
                1..48,
            ),
            queries in proptest::collection::vec((proptest::bool::ANY, 0u64..0x8000), 1..8),
        ) {
            let queries: Vec<u64> = queries.into_iter().map(|(p, off)| at(p, off)).collect();
            let mut t = AllocationTable::new();
            let mut m = Model::default();
            // Moves land above everything used so far, one bump per space.
            let mut bump = [0x10_0000u64, POISON + 0x10_0000];
            let mut moved_yet = false;
            for (kind, a, b, c, poison, batch) in steps {
                match kind {
                    // Register in the arena: slots 0x100 apart from 0x100
                    // (0 stays null), or re-register a live start.
                    0 | 1 => {
                        let (start, len) = match m.nth(a).filter(|_| kind == 1) {
                            Some((start, old_len)) => (start, 1 + b % old_len),
                            None => (at(poison, (1 + a % 63) * 0x100), 1 + b % 0x100),
                        };
                        if m.allocs.contains_key(&start) {
                            m.free(start);
                        } else if !m.is_free(start, start + len) {
                            continue;
                        }
                        t.track_alloc(start, len, AllocKind::Heap);
                        m.adopt(start, len, BTreeSet::new());
                    }
                    // Free a live start, or an arena start that may be
                    // untracked.
                    2 => {
                        let start = match m.nth(a).filter(|_| poison) {
                            Some((start, _)) => start,
                            None => at(b % 2 == 1, (a % 64) * 0x100),
                        };
                        let want = m.free(start).map(|(len, _)| len);
                        prop_assert_eq!(t.track_free(start).map(|info| info.len), want);
                    }
                    // A batch of escapes, then one flush.
                    3 => {
                        let mut mem = HashMap::new();
                        let mut cells = Vec::new();
                        for (x, y) in batch {
                            let cell = match (x % 3, m.owner.keys().nth((x / 3) as usize % m.owner.len().max(1))) {
                                (0, Some(&cell)) => cell,
                                (1, _) if !m.allocs.is_empty() => {
                                    let (start, len) = m.nth(x / 3).unwrap();
                                    start + (x >> 8) % len
                                }
                                _ => at(poison, (x >> 2) % 0x8000),
                            };
                            let ptr = match (y % 4, m.nth(y / 4)) {
                                (0, _) | (_, None) => 0,
                                (1, _) => 0xdead_0000,
                                (_, Some((start, len))) => start + (y >> 10) % len,
                            };
                            t.track_escape(cell);
                            mem.insert(cell, ptr);
                            cells.push(cell);
                        }
                        let mut want = 0;
                        for cell in cells {
                            m.unbind(cell);
                            if let Some(owner) = m.containing(mem[&cell]) {
                                m.allocs.get_mut(&owner).unwrap().1.insert(cell);
                                m.owner.insert(cell, owner);
                                want += 1;
                            }
                        }
                        prop_assert_eq!(t.flush_escapes(|cell| mem[&cell]), want);
                    }
                    // Stack growth: free a live allocation and hand its
                    // escapes to a new one in a free arena slot (or back
                    // at its own start).
                    4 => {
                        let Some((old, len)) = m.nth(a) else { continue };
                        let (_, cells) = m.free(old).unwrap();
                        let info = t.track_free(old).unwrap();
                        let mut start = at(poison, (1 + b % 63) * 0x100);
                        if !m.is_free(start, start + len) {
                            start = old;
                        }
                        t.track_alloc(start, len, AllocKind::Stack);
                        t.adopt_escapes(start, info.escapes, info.escapes_ever);
                        m.adopt(start, len, cells);
                    }
                    // A move of a live allocation and whatever the request
                    // overlaps, to fresh memory in either space.
                    _ => {
                        let Some((start, _)) = m.nth(a) else { continue };
                        let (mut lo, mut hi) = (start, start + 1 + b % 0x3000);
                        loop {
                            let (mut new_lo, mut new_hi) = (lo, hi);
                            if let Some(s) = m.containing(lo) {
                                new_lo = s;
                            }
                            for (&s, &(len, _)) in m.allocs.range(lo..hi) {
                                new_hi = new_hi.max(s + len);
                            }
                            if (new_lo, new_hi) == (lo, hi) {
                                break;
                            }
                            (lo, hi) = (new_lo, new_hi);
                        }
                        let space = &mut bump[poison as usize];
                        let dst = if c % 2 == 0 {
                            space.next_multiple_of(INDEX_PAGE) + lo % INDEX_PAGE
                        } else {
                            *space + (c >> 1) % 0x1000
                        };
                        *space = dst + (hi - lo) + 1;
                        let delta = dst.wrapping_sub(lo) as i64;
                        let moving: Vec<(u64, u64)> =
                            m.owner.range(lo..hi).map(|(&cell, &o)| (cell, o)).collect();
                        prop_assert_eq!(t.rebase_escape_cells(lo, hi, delta), moving.len());
                        moved_yet = true;
                        let affected: Vec<u64> = starts(&t, lo, hi);
                        prop_assert!(affected.iter().copied().eq(m.allocs.range(lo..hi).map(|(&s, _)| s)));
                        for &s in &affected {
                            t.relocate(s, delta);
                        }
                        for &(cell, _) in &moving {
                            m.unbind(cell);
                        }
                        for (cell, owner) in moving {
                            let cell = cell.wrapping_add(delta as u64);
                            m.allocs.get_mut(&owner).unwrap().1.insert(cell);
                            m.owner.insert(cell, owner);
                        }
                        for s in affected {
                            let (len, cells) = m.free(s).unwrap();
                            m.adopt(s.wrapping_add(delta as u64), len, cells);
                        }
                    }
                }
                check_model(&t, &m, moved_yet, &queries)?;
            }
        }
    }
}
