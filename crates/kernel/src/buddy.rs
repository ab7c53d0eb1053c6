//! A buddy physical-page allocator — the kernel's page frame manager.

use std::error::Error;
use std::fmt;

/// A free that the allocator cannot honor. Surfaced as a typed error
/// rather than a panic so recovery paths (e.g. releasing a move
/// destination after a mid-move fault) cannot turn one fault into an
/// abort; the allocator itself is left unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuddyError {
    /// The address lies below the managed arena.
    BelowArena {
        /// The offending address.
        addr: u64,
    },
    /// The address is not the start of a live allocation (double free or
    /// foreign pointer).
    UnallocatedFree {
        /// The offending address.
        addr: u64,
    },
}

impl fmt::Display for BuddyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuddyError::BelowArena { addr } => {
                write!(f, "free of {addr:#x} below the managed arena")
            }
            BuddyError::UnallocatedFree { addr } => {
                write!(f, "free of unallocated block at {addr:#x}")
            }
        }
    }
}

impl Error for BuddyError {}

/// Buddy allocator over a contiguous physical range.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    page_size: u64,
    max_order: usize,
    /// Free lists per order (block offsets in pages).
    free: Vec<Vec<u64>>,
    /// Allocated block sizes by start page (for free()).
    allocated: std::collections::HashMap<u64, usize>,
    /// Pages currently allocated.
    pub pages_in_use: u64,
    /// End (in pages) of the highest block ever handed out. Frames at or
    /// above it have not been allocated since boot, so they still hold
    /// the zeroes physical memory starts with.
    high_water: u64,
    /// Fault injection: this many upcoming allocations fail regardless of
    /// free space (simulated frame exhaustion).
    fail_next_allocs: u64,
}

impl BuddyAllocator {
    /// Manage `[base, base + pages * page_size)`. `pages` is rounded down
    /// to a power of two.
    pub fn new(base: u64, pages: u64, page_size: u64) -> BuddyAllocator {
        assert!(pages > 0, "need at least one page");
        let max_order = 63 - pages.leading_zeros() as usize;
        let mut free = vec![Vec::new(); max_order + 1];
        free[max_order].push(0);
        BuddyAllocator {
            base,
            page_size,
            max_order,
            free,
            allocated: std::collections::HashMap::new(),
            pages_in_use: 0,
            high_water: 0,
            fail_next_allocs: 0,
        }
    }

    /// Fault injection: make the next `n` calls to
    /// [`BuddyAllocator::alloc_pages`] fail as if the arena were
    /// exhausted. Used by the kernel's seeded fault plans.
    pub fn inject_alloc_failures(&mut self, n: u64) {
        self.fail_next_allocs += n;
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        1 << self.max_order
    }

    fn order_for(&self, pages: u64) -> usize {
        let mut o = 0;
        while (1u64 << o) < pages {
            o += 1;
        }
        o
    }

    /// Allocate `pages` contiguous pages; returns the physical address.
    pub fn alloc_pages(&mut self, pages: u64) -> Option<u64> {
        if self.fail_next_allocs > 0 {
            self.fail_next_allocs -= 1;
            return None;
        }
        let order = self.order_for(pages.max(1));
        if order > self.max_order {
            return None;
        }
        // Find the smallest order with a free block.
        let mut o = order;
        while o <= self.max_order && self.free[o].is_empty() {
            o += 1;
        }
        if o > self.max_order {
            return None;
        }
        let block = self.free[o].pop().expect("non-empty");
        // Split down to the requested order.
        while o > order {
            o -= 1;
            let buddy = block + (1 << o);
            self.free[o].push(buddy);
        }
        self.allocated.insert(block, order);
        self.pages_in_use += 1 << order;
        self.high_water = self.high_water.max(block + (1 << order));
        Some(self.base + block * self.page_size)
    }

    /// The address of the first frame never handed out since boot: every
    /// block at or above it is still zero, provided nothing writes a
    /// frame before this allocator returns it. The loader skips zeroing a
    /// capsule that lands there.
    pub fn never_allocated_from(&self) -> u64 {
        self.base + self.high_water * self.page_size
    }

    /// Free a block previously returned by [`BuddyAllocator::alloc_pages`].
    ///
    /// # Errors
    ///
    /// [`BuddyError`] on a double free or foreign address; the allocator
    /// state is unchanged in that case.
    pub fn free_pages(&mut self, addr: u64) -> Result<(), BuddyError> {
        if addr < self.base {
            return Err(BuddyError::BelowArena { addr });
        }
        let block = (addr - self.base) / self.page_size;
        let order = self
            .allocated
            .remove(&block)
            .ok_or(BuddyError::UnallocatedFree { addr })?;
        self.pages_in_use -= 1 << order;
        // Coalesce with buddies.
        let mut block = block;
        let mut order = order;
        while order < self.max_order {
            let buddy = block ^ (1 << order);
            if let Some(pos) = self.free[order].iter().position(|&b| b == buddy) {
                self.free[order].swap_remove(pos);
                block = block.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free[order].push(block);
        Ok(())
    }

    /// Pages still available.
    pub fn pages_free(&self) -> u64 {
        self.total_pages() - self.pages_in_use
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut b = BuddyAllocator::new(0x10000, 64, 0x1000);
        assert_eq!(b.total_pages(), 64);
        let a = b.alloc_pages(1).unwrap();
        assert!(a >= 0x10000);
        assert_eq!(b.pages_in_use, 1);
        b.free_pages(a).unwrap();
        assert_eq!(b.pages_in_use, 0);
        assert_eq!(b.pages_free(), 64);
    }

    #[test]
    fn rounds_to_power_of_two() {
        let mut b = BuddyAllocator::new(0, 64, 0x1000);
        let a = b.alloc_pages(3).unwrap(); // rounds to 4
        assert_eq!(b.pages_in_use, 4);
        b.free_pages(a).unwrap();
        assert_eq!(b.pages_in_use, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BuddyAllocator::new(0, 4, 0x1000);
        assert!(b.alloc_pages(4).is_some());
        assert!(b.alloc_pages(1).is_none());
    }

    #[test]
    fn coalescing_restores_big_blocks() {
        let mut b = BuddyAllocator::new(0, 8, 0x1000);
        let xs: Vec<u64> = (0..8).map(|_| b.alloc_pages(1).unwrap()).collect();
        assert!(b.alloc_pages(1).is_none());
        for x in xs {
            b.free_pages(x).unwrap();
        }
        // After freeing everything, an order-3 allocation must succeed.
        assert!(b.alloc_pages(8).is_some());
    }

    #[test]
    fn distinct_blocks_do_not_overlap() {
        let mut b = BuddyAllocator::new(0, 64, 0x1000);
        let mut got = Vec::new();
        while let Some(a) = b.alloc_pages(2) {
            got.push(a);
        }
        got.sort_unstable();
        for w in got.windows(2) {
            assert!(w[1] - w[0] >= 2 * 0x1000, "blocks overlap");
        }
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let mut b = BuddyAllocator::new(0, 8, 0x1000);
        let a = b.alloc_pages(1).unwrap();
        b.free_pages(a).unwrap();
        let in_use = b.pages_in_use;
        assert_eq!(
            b.free_pages(a),
            Err(BuddyError::UnallocatedFree { addr: a })
        );
        assert_eq!(b.pages_in_use, in_use, "failed free leaves state alone");
        // The arena still works after the rejected free.
        assert!(b.alloc_pages(8).is_some());
    }

    #[test]
    fn free_below_arena_is_a_typed_error() {
        let mut b = BuddyAllocator::new(0x10000, 8, 0x1000);
        assert_eq!(
            b.free_pages(0x8000),
            Err(BuddyError::BelowArena { addr: 0x8000 })
        );
    }

    #[test]
    fn injected_failures_exhaust_then_recover() {
        let mut b = BuddyAllocator::new(0, 8, 0x1000);
        b.inject_alloc_failures(2);
        assert!(b.alloc_pages(1).is_none(), "first injected failure");
        assert!(b.alloc_pages(1).is_none(), "second injected failure");
        assert!(b.alloc_pages(1).is_some(), "injection budget spent");
        assert_eq!(b.pages_in_use, 1);
    }

    proptest! {
        /// Random alloc/free sequences never leak or corrupt the arena.
        #[test]
        fn no_leaks_under_random_ops(ops in proptest::collection::vec((1u64..8, proptest::bool::ANY), 1..100)) {
            let mut b = BuddyAllocator::new(0, 256, 0x1000);
            let mut live: Vec<u64> = Vec::new();
            for (pages, do_free) in ops {
                if do_free && !live.is_empty() {
                    let a = live.swap_remove(0);
                    prop_assert!(b.free_pages(a).is_ok());
                } else if let Some(a) = b.alloc_pages(pages) {
                    live.push(a);
                }
            }
            for a in live {
                prop_assert!(b.free_pages(a).is_ok());
            }
            prop_assert_eq!(b.pages_in_use, 0);
            // Full coalescing: the whole arena is allocatable again.
            prop_assert!(b.alloc_pages(256).is_some());
        }
    }
}
