//! The process heap allocator (the simulated libc `malloc`).
//!
//! First-fit free list over the heap arena the kernel granted at load.
//! Because CARAT can relocate live heap blocks, the allocator supports
//! rebasing its bookkeeping after a move — on real CARAT/Linux the
//! allocator's metadata lives in tracked memory and is patched like any
//! other pointer; here the metadata is host-side, so the rebase is
//! explicit.

use std::collections::BTreeMap;

/// Allocation alignment.
const ALIGN: u64 = 16;

/// First-fit heap allocator.
#[derive(Debug, Clone)]
pub struct HeapAllocator {
    /// Free chunks `(start, len)`, kept sorted by start and coalesced.
    free: Vec<(u64, u64)>,
    /// Live blocks `start -> len`, ordered so a move rebases only the
    /// blocks inside its range.
    allocated: BTreeMap<u64, u64>,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Currently live bytes.
    pub live_bytes: u64,
}

impl HeapAllocator {
    /// Manage `[base, base+len)`.
    pub fn new(base: u64, len: u64) -> HeapAllocator {
        HeapAllocator {
            free: vec![(base, len)],
            allocated: BTreeMap::new(),
            peak_bytes: 0,
            live_bytes: 0,
        }
    }

    /// Allocate `size` bytes (16-aligned); `None` when the arena is full.
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        let size = size.max(1).div_ceil(ALIGN) * ALIGN;
        let idx = self.free.iter().position(|&(_, l)| l >= size)?;
        let (start, len) = self.free[idx];
        if len == size {
            self.free.remove(idx);
        } else {
            self.free[idx] = (start + size, len - size);
        }
        self.allocated.insert(start, size);
        self.live_bytes += size;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        Some(start)
    }

    /// Free a block. Unknown addresses are ignored (mirroring `free(NULL)`
    /// tolerance; a real double free is a program bug surfaced by guards).
    pub fn free(&mut self, addr: u64) -> Option<u64> {
        let size = self.allocated.remove(&addr)?;
        self.live_bytes -= size;
        // Insert sorted and coalesce with neighbors.
        let pos = self.free.partition_point(|&(s, _)| s < addr);
        self.free.insert(pos, (addr, size));
        self.coalesce_around(pos);
        Some(size)
    }

    fn coalesce_around(&mut self, pos: usize) {
        // Merge with next.
        if pos + 1 < self.free.len() {
            let (s, l) = self.free[pos];
            let (ns, nl) = self.free[pos + 1];
            if s + l == ns {
                self.free[pos] = (s, l + nl);
                self.free.remove(pos + 1);
            }
        }
        // Merge with previous.
        if pos > 0 {
            let (ps, pl) = self.free[pos - 1];
            let (s, l) = self.free[pos];
            if ps + pl == s {
                self.free[pos - 1] = (ps, pl + l);
                self.free.remove(pos);
            }
        }
    }

    /// Size of the live block starting at `addr`.
    pub fn size_of(&self, addr: u64) -> Option<u64> {
        self.allocated.get(&addr).copied()
    }

    /// Number of live blocks.
    pub fn live_blocks(&self) -> usize {
        self.allocated.len()
    }

    /// Capsule view of the allocator: the free list and the live blocks,
    /// both sorted by start address, so serializing the same heap twice
    /// yields identical bytes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot(&self) -> (&[(u64, u64)], Vec<(u64, u64)>) {
        let allocated = self.allocated.iter().map(|(&s, &l)| (s, l)).collect();
        (&self.free, allocated)
    }

    /// Rebuild an allocator from its capsule view.
    pub(crate) fn restore(
        free: Vec<(u64, u64)>,
        allocated: Vec<(u64, u64)>,
        peak_bytes: u64,
        live_bytes: u64,
    ) -> HeapAllocator {
        HeapAllocator {
            free,
            allocated: allocated.into_iter().collect(),
            peak_bytes,
            live_bytes,
        }
    }

    /// Rebase bookkeeping after the kernel moved `[lo, lo+len)` by
    /// `delta`: live blocks inside the range get new start addresses, and
    /// the *portions* of free chunks inside the range move too (their
    /// backing store moved) — a chunk straddling a boundary is split, so
    /// the allocator never hands out addresses whose backing did not move.
    pub fn rebase(&mut self, lo: u64, len: u64, delta: i64) {
        let hi = lo + len;
        let moved: Vec<(u64, u64)> = self
            .allocated
            .range(lo..hi)
            .map(|(&s, &l)| (s, l))
            .collect();
        for &(s, _) in &moved {
            self.allocated.remove(&s);
        }
        for (s, l) in moved {
            self.allocated.insert(s.wrapping_add(delta as u64), l);
        }
        let mut next: Vec<(u64, u64)> = Vec::with_capacity(self.free.len() + 2);
        for &(s, l) in &self.free {
            let e = s + l;
            if e <= lo || s >= hi {
                next.push((s, l));
                continue;
            }
            if s < lo {
                next.push((s, lo - s));
            }
            let mid_lo = s.max(lo);
            let mid_hi = e.min(hi);
            if mid_hi > mid_lo {
                next.push((mid_lo.wrapping_add(delta as u64), mid_hi - mid_lo));
            }
            if e > hi {
                next.push((hi, e - hi));
            }
        }
        next.sort_unstable();
        self.free = next;
        // Re-coalesce adjacent chunks after the splits.
        let mut i = 0;
        while i + 1 < self.free.len() {
            if self.free[i].0 + self.free[i].1 == self.free[i + 1].0 {
                self.free[i].1 += self.free[i + 1].1;
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_reuse() {
        let mut h = HeapAllocator::new(0x1000, 0x1000);
        let a = h.alloc(100).unwrap();
        assert_eq!(a % ALIGN, 0);
        let b = h.alloc(100).unwrap();
        assert_ne!(a, b);
        h.free(a);
        let c = h.alloc(100).unwrap();
        assert_eq!(c, a, "first fit reuses the freed block");
        assert_eq!(h.live_blocks(), 2);
    }

    #[test]
    fn exhaustion() {
        let mut h = HeapAllocator::new(0, 64);
        assert!(h.alloc(64).is_some());
        assert!(h.alloc(1).is_none());
    }

    #[test]
    fn coalescing_allows_big_realloc() {
        let mut h = HeapAllocator::new(0, 0x100);
        let xs: Vec<u64> = (0..16).map(|_| h.alloc(16).unwrap()).collect();
        assert!(h.alloc(16).is_none());
        for x in xs {
            h.free(x);
        }
        assert!(h.alloc(0x100).is_some(), "fully coalesced");
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut h = HeapAllocator::new(0, 0x1000);
        let a = h.alloc(0x100).unwrap();
        let _b = h.alloc(0x100).unwrap();
        h.free(a);
        assert_eq!(h.peak_bytes, 0x200);
        assert_eq!(h.live_bytes, 0x100);
    }

    #[test]
    fn rebase_moves_blocks() {
        let mut h = HeapAllocator::new(0x1000, 0x1000);
        let a = h.alloc(0x20).unwrap();
        h.rebase(0x1000, 0x1000, 0x7000);
        assert_eq!(h.size_of(a), None);
        assert_eq!(h.size_of(a + 0x7000), Some(0x20));
        // Freeing at the new address works.
        assert!(h.free(a + 0x7000).is_some());
    }

    #[test]
    fn rebase_splits_straddling_free_chunk() {
        // Arena [0x1000, 0x3000); allocate nothing; move page [0x1000,0x2000)
        // to 0x9000. Only the first page of free space may relocate.
        let mut h = HeapAllocator::new(0x1000, 0x2000);
        h.rebase(0x1000, 0x1000, 0x8000);
        // First allocation comes from the moved page (lowest address after
        // sort is the untouched second page at 0x2000).
        let a = h.alloc(16).unwrap();
        assert!(
            (0x2000..0x3000).contains(&a) || (0x9000..0xa000).contains(&a),
            "allocation {a:#x} must come from backed memory"
        );
        // Exhaust: total capacity is still 0x2000 bytes.
        let mut total = 16u64;
        while let Some(p) = h.alloc(16) {
            assert!(
                (0x2000..0x3000).contains(&p) || (0x9000..0xa000).contains(&p),
                "allocation {p:#x} outside backed ranges"
            );
            total += 16;
        }
        assert_eq!(total, 0x2000);
    }

    proptest! {
        /// Allocations never overlap and frees never corrupt the arena.
        #[test]
        fn no_overlap(sizes in proptest::collection::vec(1u64..200, 1..50)) {
            let mut h = HeapAllocator::new(0x4000, 0x10000);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (i, s) in sizes.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let (a, _) = live.swap_remove(0);
                    h.free(a);
                } else if let Some(a) = h.alloc(*s) {
                    live.push((a, *s));
                }
            }
            live.sort_unstable();
            for w in live.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0, "blocks overlap");
            }
        }
    }
}
