//! The address space: everything the kernel keeps about *one* process's
//! memory, declared once.

use crate::buddy::BuddyAllocator;
use crate::kernel::{DstAlloc, POISON_BASE, POISON_SLOT_SPAN};
use crate::pagetable::PageTable;
use carat_runtime::{Perms, Region, RegionTable};
use std::collections::BTreeSet;

/// One process's memory-management state. CARAT's isolation story (paper
/// §3, §4.3) is that the kernel-written region set — not a page table —
/// *is* the process, and that a context switch is cheap because
/// installing a process is handing that one object over; this is it.
///
/// **Invariant.** For the current pid exactly one of
/// [`SimKernel::space`](crate::SimKernel::space) and its
/// [`ProcEntry::space`](crate::ProcEntry::space) is non-default; for
/// every other live pid the entry's is the process's whole truth. Install
/// and park are therefore plain moves of this struct — no region list is
/// cloned and no guard layout rebuilt on a context switch.
///
/// **Generation rule.** Every edit of a space's regions, installed or
/// parked, goes through [`RegionTable::edit`] /
/// [`RegionTable::set_regions`] and bumps *that* table's generation, and
/// a tenant's guard cache is only ever compared with its own process's
/// table — so a cached region that survived a deschedule is still exactly
/// what the table says.
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// CARAT guard-region set: the one copy of the process's region list
    /// (kept sorted; holes punched on moves).
    pub regions: RegionTable,
    /// Baseline page table (traditional model only).
    pub pagetable: PageTable,
    /// Move-destination recycler: page ranges this process's moves
    /// vacated, reused for its future move destinations ("frees the data
    /// at the old location", paper §4.2). Per-process so one tenant's
    /// churn never changes another's placement — and so a dead tenant's
    /// fragments cannot alias frames the buddy has already re-issued.
    pub(crate) vacated: Vec<(u64, u64)>,
    /// Base addresses of whole buddy blocks this process obtained after
    /// admission (move/page-in/stack-growth destinations and its reserved
    /// pool). Freed back to the buddy when the process is killed — the
    /// reap half of supervision.
    pub(crate) owned_blocks: Vec<u64>,
    /// Swap-slot allocator; see [`SwapSlots`].
    pub(crate) swap_slots: SwapSlots,
}

impl AddressSpace {
    /// Fix the swap-slot lane: called once, when the space is admitted as
    /// the process at slab index `index`.
    pub(crate) fn bind(&mut self, index: usize) {
        self.swap_slots = SwapSlots {
            lane: Some(index as u64),
            ..SwapSlots::default()
        };
    }

    /// The one way to change which ranges a process may touch: every
    /// `unmapped` `(start, len)` leaves the region set, then every
    /// `mapped` `(start, len, perms)` replaces whatever the set held there
    /// — all sources are revoked before any destination is published — in
    /// ONE [`RegionTable::edit`].
    pub(crate) fn remap(&mut self, unmapped: &[(u64, u64)], mapped: &[(u64, u64, Perms)]) {
        self.regions.edit(|list| {
            for &(start, len) in unmapped {
                punch_hole(list, start, start + len);
            }
            for &(start, len, perms) in mapped {
                punch_hole(list, start, start + len);
                list.push(Region { start, len, perms });
            }
        });
    }

    /// One attempt to take a destination for `len` bytes: recycle a
    /// vacated range when one fits, else take fresh frames from the buddy
    /// allocator.
    pub(crate) fn try_take_dst(
        &mut self,
        buddy: &mut BuddyAllocator,
        len: u64,
        page: u64,
    ) -> Option<DstAlloc> {
        if let Some(i) = self.vacated.iter().position(|&(_, l)| l >= len) {
            let (start, l) = self.vacated[i];
            if l == len {
                self.vacated.remove(i);
            } else {
                self.vacated[i] = (start + len, l - len);
            }
            return Some(DstAlloc {
                addr: start,
                len,
                from_buddy: false,
            });
        }
        DstAlloc::fresh(buddy, len, page)
    }

    /// Merge adjacent/overlapping vacated ranges so fragments freed by
    /// earlier moves can satisfy larger requests (the OOM recovery path).
    pub(crate) fn compact_vacated(&mut self) {
        if self.vacated.len() < 2 {
            return;
        }
        self.vacated.sort_unstable_by_key(|&(start, _)| start);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.vacated.len());
        for &(start, len) in &self.vacated {
            match merged.last_mut() {
                Some((ms, ml)) if *ms + *ml >= start => {
                    *ml = (*ml).max(start + len - *ms);
                }
                _ => merged.push((start, len)),
            }
        }
        self.vacated = merged;
    }

    /// Return an unused (or rolled-back) move destination to its source.
    pub(crate) fn release_move_dst(&mut self, buddy: &mut BuddyAllocator, dst: DstAlloc) {
        if dst.from_buddy {
            // The buddy handed this block out moments ago; a rejected free
            // here would mean kernel-internal corruption. Keep the
            // original fault as the surfaced error regardless.
            let freed = buddy.free_pages(dst.addr);
            debug_assert!(freed.is_ok(), "releasing a live buddy block");
        } else {
            self.vacated.push((dst.addr, dst.len));
        }
    }

    /// Record a freshly-issued buddy block as owned by this process, so a
    /// supervised kill can reap it. A space bound to no process (the solo
    /// machine's) skips the bookkeeping: its blocks die with the kernel.
    pub(crate) fn commit_dst_block(&mut self, dst: &DstAlloc) {
        if dst.from_buddy && self.swap_slots.lane.is_some() {
            self.owned_blocks.push(dst.addr);
        }
    }

    /// Tear the space down at kill: every owned buddy block goes home to
    /// `buddy` in one piece (the vacated fragments carved from them die
    /// with `self`), and the id of every swap slot the process may still
    /// hold is returned for the caller to drop from the swap device.
    pub(crate) fn reap(self, buddy: &mut BuddyAllocator) -> impl Iterator<Item = u64> {
        for base in self.owned_blocks {
            let _ = buddy.free_pages(base);
        }
        self.swap_slots.issued()
    }
}

/// Remove `[lo, hi)` from a region list, splitting any region that
/// straddles an edge.
fn punch_hole(regions: &mut Vec<Region>, lo: u64, hi: u64) {
    let mut next = Vec::with_capacity(regions.len() + 2);
    for r in regions.drain(..) {
        let (rs, re) = (r.start, r.end());
        if re <= lo || rs >= hi {
            next.push(r);
            continue;
        }
        if rs < lo {
            next.push(Region {
                start: rs,
                len: lo - rs,
                perms: r.perms,
            });
        }
        if re > hi {
            next.push(Region {
                start: hi,
                len: re - hi,
                perms: r.perms,
            });
        }
    }
    *regions = next;
}

/// Slot ids the poison window can encode: one [`POISON_SLOT_SPAN`] of
/// non-canonical addresses each, from [`POISON_BASE`] to the top of the
/// address space (2²³).
const SWAP_SLOTS: u64 = POISON_BASE.wrapping_neg() / POISON_SLOT_SPAN;
/// Processes in the low band (slab index below this) and its id stride.
const LOW_LANES: u64 = 16_384;
/// Processes in the high band and its id stride.
const HIGH_LANES: u64 = 131_072;
/// First id of the high band: the low band owns the lower half of the
/// id space, the high band the upper half.
const HIGH_BASE: u64 = SWAP_SLOTS / 2;

/// One space's swap-slot allocator. Slot ids are striped per process, so
/// no tenant's page-outs can renumber another's poison addresses — a
/// fault-domain requirement (one tenant's death must leave bystander
/// counters bit-identical) — and no two live processes are ever issued
/// the same id. A process draws *local ordinals* (lowest recycled first,
/// else the next fresh one) and its lane maps ordinal to id:
///
/// | lane (slab index `i`)        | id of ordinal `n`                  | ordinals |
/// |------------------------------|------------------------------------|----------|
/// | none (solo machine)          | `n` (monotonic, never recycled)    | 2²³      |
/// | `i < 16 384`                 | `n * 16 384 + i`                   | 256      |
/// | `16 384 <= i < 147 456`      | `2²² + n * 131 072 + (i - 16 384)` | 32       |
/// | `i >= 147 456`               | —                                  | 0        |
///
/// The two bands split the 2²³ ids the poison window has in half, so a
/// lane's ids are its alone. A process that has every ordinal of its lane
/// in swap (or has no lane) is not issued an id: its page-out declines.
#[derive(Debug, Default)]
pub(crate) struct SwapSlots {
    /// Next unissued local ordinal.
    next: u64,
    /// Recycled local ordinals (freed by page-ins), reissued lowest-first
    /// so slot assignment stays compact and deterministic regardless of
    /// fleet interleaving.
    free: BTreeSet<u64>,
    /// The owning process's slab index, fixed by [`AddressSpace::bind`];
    /// `None` for a space bound to no process.
    lane: Option<u64>,
}

impl SwapSlots {
    /// `(first id, id stride, ordinals)` of this allocator's lane.
    fn geometry(&self) -> (u64, u64, u64) {
        match self.lane {
            None => (0, 1, SWAP_SLOTS),
            Some(i) if i < LOW_LANES => (i, LOW_LANES, HIGH_BASE / LOW_LANES),
            Some(i) if i - LOW_LANES < HIGH_LANES => (
                HIGH_BASE + (i - LOW_LANES),
                HIGH_LANES,
                (SWAP_SLOTS - HIGH_BASE) / HIGH_LANES,
            ),
            Some(_) => (0, 1, 0),
        }
    }

    /// The local ordinal behind `slot`, when `slot` is on this lane.
    fn ordinal(&self, slot: u64) -> Option<u64> {
        let (base, stride, ordinals) = self.geometry();
        let off = slot.checked_sub(base)?;
        (off % stride == 0 && off / stride < ordinals).then_some(off / stride)
    }

    /// The slot id the next page-out would use, without consuming it, or
    /// `None` when the lane has no id left. Pair with
    /// [`SwapSlots::commit`] once the episode is under way.
    pub(crate) fn peek(&self) -> Option<u64> {
        let (base, stride, ordinals) = self.geometry();
        let local = self.free.first().copied().unwrap_or(self.next);
        (local < ordinals).then(|| base + local * stride)
    }

    /// Consume the slot id returned by [`SwapSlots::peek`].
    pub(crate) fn commit(&mut self, slot: u64) {
        if let Some(local) = self.ordinal(slot) {
            if !self.free.remove(&local) {
                self.next = local + 1;
            }
        }
    }

    /// Return a paged-in slot's ordinal to the recycle set. Solo slots are
    /// not recycled (the monotonic sequence is the historical solo
    /// behavior), and a slot on another lane is not ours to reissue.
    pub(crate) fn release(&mut self, slot: u64) {
        if let (Some(_), Some(local)) = (self.lane, self.ordinal(slot)) {
            self.free.insert(local);
        }
    }

    /// Every id this allocator has ever issued.
    fn issued(self) -> impl Iterator<Item = u64> {
        let (base, stride, _) = self.geometry();
        (0..self.next).map(move |local| base + local * stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_runtime::{Access, GuardImpl};

    fn space_over(regions: Vec<Region>) -> AddressSpace {
        let mut s = AddressSpace::default();
        s.regions.set_regions(regions);
        s
    }

    fn rw(start: u64, len: u64) -> Region {
        Region {
            start,
            len,
            perms: Perms::RW,
        }
    }

    #[test]
    fn remap_splits_and_relocates() {
        let mut s = space_over(vec![rw(0x1000, 0x3000)]);
        s.remap(&[(0x2000, 0x1000)], &[(0x9000, 0x1000, Perms::RW)]);
        assert_eq!(
            s.regions.regions(),
            &[rw(0x1000, 0x1000), rw(0x3000, 0x1000), rw(0x9000, 0x1000)]
        );
    }

    #[test]
    fn protection_change_splits_the_capsule() {
        let mut s = space_over(vec![rw(0x1000, 0x3000)]);
        s.remap(&[], &[(0x2000, 0x1000, Perms::R)]);
        assert_eq!(s.regions.len(), 3, "capsule split around the page");
        let check = |addr, access| s.regions.check(GuardImpl::IfTree, addr, 8, access).ok;
        assert!(check(0x2000, Access::Read));
        assert!(!check(0x2000, Access::Write), "write now denied");
        assert!(check(0x1ff8, Access::Write) && check(0x3000, Access::Write));
    }

    #[test]
    fn remap_handles_straddling_nested_and_adjacent_ranges() {
        let base = vec![rw(0x1000, 0x2000), rw(0x3000, 0x1000), rw(0x8000, 0x4000)];
        let ro = |start, len| Region {
            start,
            len,
            perms: Perms::R,
        };
        type Case<'a> = (&'a [(u64, u64)], &'a [(u64, u64, Perms)], Vec<Region>);
        let cases: [Case; 5] = [
            // Straddles the seam between two adjacent regions.
            (
                &[(0x2800, 0x1000)],
                &[(0x20000, 0x1000, Perms::RW)],
                vec![
                    rw(0x1000, 0x1800),
                    rw(0x3800, 0x800),
                    rw(0x8000, 0x4000),
                    rw(0x20000, 0x1000),
                ],
            ),
            // Nested strictly inside one region, remapped in place.
            (
                &[(0x9000, 0x1000)],
                &[(0x9000, 0x1000, Perms::R)],
                vec![
                    rw(0x1000, 0x2000),
                    rw(0x3000, 0x1000),
                    rw(0x8000, 0x1000),
                    ro(0x9000, 0x1000),
                    rw(0xa000, 0x2000),
                ],
            ),
            // Exactly one whole region; the destination abuts its old seat.
            (
                &[(0x3000, 0x1000)],
                &[(0x4000, 0x1000, Perms::RW)],
                vec![rw(0x1000, 0x2000), rw(0x4000, 0x1000), rw(0x8000, 0x4000)],
            ),
            // A batch whose second destination is its first source: every
            // source is revoked before any destination is published.
            (
                &[(0x1000, 0x1000), (0xa000, 0x1000)],
                &[(0x30000, 0x1000, Perms::RW), (0x1000, 0x1000, Perms::RW)],
                vec![
                    rw(0x1000, 0x1000),
                    rw(0x2000, 0x1000),
                    rw(0x3000, 0x1000),
                    rw(0x8000, 0x2000),
                    rw(0xb000, 0x1000),
                    rw(0x30000, 0x1000),
                ],
            ),
            // Spans a gap and swallows a region whole.
            (
                &[(0x2000, 0x7000)],
                &[],
                vec![rw(0x1000, 0x1000), rw(0x9000, 0x3000)],
            ),
        ];
        for (unmapped, mapped, want) in cases {
            let mut s = space_over(base.clone());
            s.remap(unmapped, mapped);
            assert_eq!(s.regions.regions(), &want[..], "{unmapped:x?} {mapped:x?}");
        }
    }

    /// The generation rule: a space nobody has installed is edited through
    /// the same table, so its generation moves with every edit.
    #[test]
    fn editing_a_parked_space_bumps_its_generation() {
        let mut parked = space_over(vec![rw(0x1000, 0x3000)]);
        let g = parked.regions.generation;
        parked.remap(&[(0x2000, 0x1000)], &[(0x9000, 0x1000, Perms::RW)]);
        assert_eq!(parked.regions.generation, g + 1);
        parked.remap(&[], &[(0x5000, 0x1000, Perms::RW)]);
        assert_eq!(parked.regions.generation, g + 2);
    }

    #[test]
    fn lanes_never_share_an_id() {
        let lane = |i: u64| {
            let mut s = AddressSpace::default();
            s.bind(i as usize);
            s.swap_slots
        };
        // Unchanged for the first 16 384 processes.
        assert_eq!(lane(7).peek(), Some(7));
        let mut seven = lane(7);
        seven.commit(7);
        assert_eq!(seven.peek(), Some(LOW_LANES + 7));
        // Drain a few lanes on both sides of each band edge.
        let mut seen = std::collections::HashSet::new();
        for i in [0, 1, 16_383, 16_384, 16_385, 32_768, 147_455] {
            let mut slots = lane(i);
            let mut n = 0;
            while let Some(id) = slots.peek() {
                assert!(id < SWAP_SLOTS, "lane {i} left the poison window");
                assert!(seen.insert(id), "lane {i} reissued id {id}");
                assert_eq!(slots.ordinal(id), Some(n));
                slots.commit(id);
                n += 1;
            }
            assert_eq!(n, if i < LOW_LANES { 256 } else { 32 });
            assert_eq!(slots.issued().count() as u64, n);
        }
        assert_eq!(lane(147_456).peek(), None, "no lane left: decline");
    }

    #[test]
    fn released_ordinals_are_reissued_lowest_first() {
        let mut s = AddressSpace::default();
        s.bind(3);
        let slots = &mut s.swap_slots;
        for _ in 0..3 {
            let id = slots.peek().unwrap();
            slots.commit(id);
        }
        slots.release(LOW_LANES + 3);
        slots.release(4); // another lane's id: ignored
        assert_eq!(slots.peek(), Some(LOW_LANES + 3));
        slots.commit(LOW_LANES + 3);
        assert_eq!(slots.peek(), Some(3 * LOW_LANES + 3));
        // The solo sequence is monotonic and never recycles.
        let mut solo = SwapSlots::default();
        solo.commit(0);
        solo.release(0);
        assert_eq!(solo.peek(), Some(1));
    }
}
