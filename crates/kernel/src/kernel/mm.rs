//! Memory management: the one stop-and-move spine (`alloc_move_dst`,
//! `stop_world`, `journaled`, `refuse_pinned`), the
//! swap-aware memory view, and every relocator that rides them — page
//! moves, the batch planner, page-out, page-in, stack growth and the
//! cross-process shared move — plus the move planner's victim pick.

use super::{SimKernel, SwapEntry, POISON_BASE, POISON_SLOT_SPAN};
use crate::buddy::BuddyAllocator;
use crate::faults::{FaultPoint, KernelError};
use crate::phys::PhysicalMemory;
use crate::proc::{Pid, SharedId};
use crate::trace::PagingEvent;
use carat_runtime::{
    check_unpinned, expand_across_tables, move_transaction, AllocationTable, MemAccess,
    MoveOutcome, MovePhase, MoveRequest, Perms, WorldStop, WorldStopError,
};
use std::collections::HashMap;

/// Bounded retries for a move-destination allocation before surfacing
/// [`KernelError::OutOfFrames`] (each retry compacts vacated ranges and
/// charges cost-model backoff).
const MOVE_ALLOC_RETRIES: u32 = 3;

/// A move destination with its provenance, so an abandoned move can
/// release it to the right place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DstAlloc {
    pub(crate) addr: u64,
    pub(crate) len: u64,
    pub(crate) from_buddy: bool,
}

impl DstAlloc {
    /// Fresh frames for `len` bytes straight from the buddy allocator.
    pub(crate) fn fresh(buddy: &mut BuddyAllocator, len: u64, page: u64) -> Option<DstAlloc> {
        buddy.alloc_pages(len / page).map(|addr| DstAlloc {
            addr,
            len,
            from_buddy: true,
        })
    }
}

/// A [`MemAccess`] view that routes poison addresses into the swap store,
/// so pointer patching reaches cells whose backing data is swapped out.
pub struct SwapAwareMem<'a> {
    mem: &'a mut PhysicalMemory,
    swap: &'a mut HashMap<u64, SwapEntry>,
}

/// Split a poison address into its swap slot and the byte offset inside
/// that slot's window.
fn poison_slot(addr: u64) -> (u64, usize) {
    let slot = SimKernel::swap_slot(addr);
    (slot, (addr - SimKernel::swap_window(slot).0) as usize)
}

impl MemAccess for SwapAwareMem<'_> {
    fn read_u64(&self, addr: u64) -> u64 {
        if addr >= POISON_BASE {
            let (slot, off) = poison_slot(addr);
            if let Some(e) = self.swap.get(&slot) {
                if off + 8 <= e.data.len() {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&e.data[off..off + 8]);
                    return u64::from_le_bytes(b);
                }
            }
            return 0;
        }
        self.mem.read_u64(addr)
    }

    fn write_u64(&mut self, addr: u64, val: u64) {
        if addr >= POISON_BASE {
            let (slot, off) = poison_slot(addr);
            if let Some(e) = self.swap.get_mut(&slot) {
                if off + 8 <= e.data.len() {
                    e.data[off..off + 8].copy_from_slice(&val.to_le_bytes());
                }
            }
            return;
        }
        self.mem.write_u64(addr, val);
    }

    /// Bulk copies cross the swap boundary in either direction, which is
    /// what lets page-out and page-in run as ordinary move transactions.
    fn copy(&mut self, src: u64, dst: u64, len: u64) {
        match (src >= POISON_BASE, dst >= POISON_BASE) {
            (false, false) => self.mem.copy(src, dst, len),
            // Page-out: the source frames become the slot's entry.
            (false, true) => {
                let data = self.mem.read_bytes(src, len).to_vec();
                self.swap
                    .insert(poison_slot(dst).0, SwapEntry { len, data });
            }
            // Page-in: the entry's bytes land in the destination frames.
            // The entry stays in the store; the kernel retires it once the
            // whole transaction has succeeded.
            (true, false) => {
                if let Some(e) = self.swap.get(&poison_slot(src).0) {
                    self.mem.write_bytes(dst, &e.data);
                }
            }
            (true, true) => panic!("bulk copies never run from swap to swap"),
        }
    }
}

impl SimKernel {
    /// Pick a destination for `len` bytes, with bounded recovery: on
    /// exhaustion, compact the vacated ranges and retry up to
    /// [`MOVE_ALLOC_RETRIES`] times, charging exponential cost-model
    /// backoff. Returns the destination and the backoff cycles incurred
    /// (zero on the first-try fast path).
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfFrames`] when every retry failed; aside from
    /// the (semantically neutral) vacated-range compaction, kernel state
    /// is untouched.
    fn alloc_move_dst(&mut self, len: u64) -> Result<(DstAlloc, u64), KernelError> {
        let mut backoff = 0u64;
        for attempt in 0..=MOVE_ALLOC_RETRIES {
            let page = self.cost.page_size;
            let dst = if self.fire(FaultPoint::MoveDstAlloc) {
                // Injected exhaustion: the vacated recycle list counts as
                // unusable, and the failure is routed through the frame
                // allocator so the whole path under test sees it.
                self.buddy.inject_alloc_failures(1);
                DstAlloc::fresh(&mut self.buddy, len, page)
            } else {
                self.space.try_take_dst(&mut self.buddy, len, page)
            };
            if let Some(dst) = dst {
                if attempt > 0 {
                    self.oom_recoveries += 1;
                }
                return Ok((dst, backoff));
            }
            if attempt < MOVE_ALLOC_RETRIES {
                self.space.compact_vacated();
                backoff += self.cost.move_alloc_fixed << attempt;
            }
        }
        Err(KernelError::OutOfFrames {
            pages: len.div_ceil(self.cost.page_size),
        })
    }

    /// Stop the world over `threads` threads and return what the stop
    /// costs. A mover calls this once, after it has picked its
    /// destination and before it touches anything. Where Figure 8's steps
    /// happen:
    ///
    /// - 1, the change request: the mover's call;
    /// - 2, a signal to every thread: here, charged per thread;
    /// - 3–4, each thread enters its handler and dumps its registers:
    ///   here, where [`FaultPoint::WorldStopStall`] fires once per entering
    ///   thread; the dump is the caller's `regs`, which the VM takes with
    ///   its one register visitor, `TenantState::visit_dump` (every
    ///   pointer register, stack pointer and frame base, current thread
    ///   first, then the parked ones by index);
    /// - 5, the first barrier: here, charged per thread;
    /// - 5–6, negotiation: the mover's pre-expansion, confirmed by
    ///   [`move_transaction`]'s cross-table fixed point;
    /// - 6–7, affected allocations and patches: the transaction's plans;
    /// - 8–9, escapes and registers patched: the transaction's apply and
    ///   register pass, up to its [`MovePhase::Patched`] checkpoint;
    /// - 10, the data moves: the transaction's copies and table upkeep;
    /// - 11, the second barrier: charged here, with the first;
    /// - 12, the kernel is notified and the threads resume: the mover's
    ///   region update and return, after which the VM writes the patched
    ///   dump back through the same visitor.
    ///
    /// # Errors
    ///
    /// [`KernelError::WorldStop`] when a thread stalls before its handler
    /// ([`WorldStopError::Stalled`]) or when there is no thread to stop
    /// ([`WorldStopError::NoThreads`]); nothing has been touched.
    fn stop_world(&mut self, threads: usize) -> Result<WorldStop, KernelError> {
        if threads == 0 {
            return Err(KernelError::WorldStop(WorldStopError::NoThreads));
        }
        for entered in 0..threads {
            if self.fire(FaultPoint::WorldStopStall) {
                return Err(KernelError::WorldStop(WorldStopError::Stalled {
                    entered,
                    threads,
                }));
            }
        }
        Ok(WorldStop::run_all(threads, &self.cost))
    }

    /// Run [`move_transaction`] over `tables` inside a stopped world — the
    /// single carrier for every mover, paging included — through the
    /// swap-aware memory view. `interrupt` is the fault point that may
    /// interrupt the transaction at its one checkpoint (between the patch
    /// and copy phases), after which the transaction has restored a
    /// byte-identical pre-move state: [`FaultPoint::MidMove`] for moves
    /// and stack growth, `None` for paging.
    ///
    /// `dst` is the single destination a one-request mover allocated for
    /// this stop, if any: a failed transaction hands it back, a successful
    /// one records a fresh buddy block as owned by the current process.
    /// (The batch planner passes `None`: its destinations interleave with
    /// pre-published sources, so it releases and commits them itself.)
    fn journaled(
        &mut self,
        tables: &mut [&mut AllocationTable],
        regs: &mut [u64],
        reqs: &[MoveRequest],
        dst: Option<DstAlloc>,
        interrupt: Option<FaultPoint>,
    ) -> Result<Vec<MoveOutcome>, KernelError> {
        // Defense in depth: every caller screens its sources against the
        // pin registry before reaching here, but a pinned cell must never
        // be patched even if a new caller forgets — re-check each request
        // while nothing has been mutated yet.
        let pinned = reqs
            .iter()
            .find_map(|r| check_unpinned(r.src, r.len, &self.pins).err());
        let moved = if let Some(e) = pinned {
            Err(KernelError::Move(e))
        } else {
            // The hook needs the plan while the router borrows mem+swap;
            // take the plan out for the duration of the move.
            let mut plan = self.faults.take();
            let faults = &mut plan;
            let mut hook = interrupt.map(|point| {
                move |_: MovePhase| faults.as_mut().is_some_and(|p| p.should_fire(point))
            });
            let mut routed = SwapAwareMem {
                mem: &mut self.mem,
                swap: &mut self.swap,
            };
            let res = move_transaction(
                tables,
                &mut routed,
                regs,
                reqs,
                &self.cost,
                hook.as_mut()
                    .map(|h| h as &mut dyn FnMut(MovePhase) -> bool),
            );
            self.faults = plan;
            res.map_err(|_| {
                let req = reqs[0];
                KernelError::MoveInterrupted {
                    src: req.src,
                    len: req.len,
                    dst: req.dst,
                }
            })
        };
        match dst {
            Some(dst) if moved.is_ok() => self.space.commit_dst_block(&dst),
            Some(dst) => self.space.release_move_dst(&mut self.buddy, dst),
            None => {}
        }
        moved
    }

    /// Record a completed relocation in the paging trace: one
    /// [`PagingEvent::Move`] per page it moved, whichever mover ran it.
    fn record_moves(&mut self, outcome: &MoveOutcome) {
        let pg = self.cost.page_size;
        for p in 0..outcome.moved_len / pg {
            self.trace.record(PagingEvent::Move {
                from: outcome.moved_src / pg + p,
                to: outcome.moved_dst / pg + p,
            });
        }
    }

    /// The worst-case page to move: the page-aligned address overlapping
    /// the allocation with the most live escapes (paper §4.4).
    pub fn worst_page(&self, table: &AllocationTable) -> Option<u64> {
        self.worst_pages(table, 1).into_iter().next()
    }

    /// The move planner's victim list: up to `max` page-aligned addresses
    /// ordered worst-first by live escape count, deduplicated by page —
    /// the batch fed to [`SimKernel::move_pages_batch`] so several
    /// compaction victims share one world-stop. Ties are broken toward
    /// the higher start address.
    pub fn worst_pages(&self, table: &AllocationTable, max: usize) -> Vec<u64> {
        let page = self.cost.page_size;
        let pins = &self.pins;
        // Swapped-out (poison-resident) allocations cannot be moved, and
        // pinned DMA targets must not be: plan around both.
        let movable = table
            .below(POISON_BASE)
            .filter(|&(start, info)| {
                pins.is_empty() || check_unpinned(start, info.len, pins).is_ok()
            })
            .map(|(start, info)| (info.escapes.len(), start));
        if max == 1 {
            return movable
                .max()
                .map(|(_, start)| start / page * page)
                .into_iter()
                .collect();
        }
        let mut victims: Vec<(usize, u64)> = movable.collect();
        victims.sort_unstable_by(|a, b| b.cmp(a));
        let mut out: Vec<u64> = Vec::new();
        for (_, start) in victims {
            let p = start / page * page;
            if !out.contains(&p) {
                out.push(p);
                if out.len() == max {
                    break;
                }
            }
        }
        out
    }

    /// The single movers' pin screen, run on the *expanded* source before
    /// anything is allocated or stopped: a pinned range is refused with a
    /// typed error and charged to the pin ledger, nothing mutated.
    fn refuse_pinned(&mut self, src: u64, len: u64) -> Result<(), KernelError> {
        check_unpinned(src, len, &self.pins).map_err(|e| {
            self.note_denied_move(len);
            KernelError::Move(e)
        })
    }

    /// Execute a full CARAT page movement: world stop, negotiation,
    /// patching (escapes + registers), data copy, region update, resume.
    /// Returns the stop's cost and the move outcome.
    ///
    /// `regs` is the register state of all threads, dumped by the signal
    /// handlers; `threads` its thread count.
    ///
    /// # Errors
    ///
    /// The operation is transactional: on any error the allocation table,
    /// registers, and physical memory are as they were before the call.
    /// [`KernelError::OutOfFrames`] when no destination exists (after
    /// compaction + retries); [`KernelError::WorldStop`] when the stop
    /// stalls (nothing was touched);
    /// [`KernelError::MoveInterrupted`] when the move was interrupted
    /// between patch and copy (the transaction has rolled back).
    pub fn move_pages(
        &mut self,
        table: &mut AllocationTable,
        regs: &mut [u64],
        src: u64,
        pages: u64,
        threads: usize,
    ) -> Result<(WorldStop, MoveOutcome), KernelError> {
        let (world, mut outs) = self.move_pages_batch(table, regs, &[(src, pages)], threads)?;
        // A batch of one either fails or moves its one request.
        let out = outs.pop().expect("one request, one outcome");
        Ok((world, out))
    }

    /// [`SimKernel::move_pages`] over a *batch* of `(src, pages)` requests
    /// coalesced into ONE world-stop: one signal+barrier round, one
    /// register-patch pass, and N region patches. A request whose expanded
    /// range overlaps an earlier accepted one is already covered by that
    /// move and is dropped; outcomes are returned for accepted requests in
    /// order. For pairwise-disjoint requests the resulting memory,
    /// registers, and table are bit-identical to issuing the moves
    /// sequentially — only the world-stop and register-pass cycles are
    /// amortized.
    ///
    /// # Errors
    ///
    /// Transactional across the whole batch, with the same error surface
    /// as [`SimKernel::move_pages`]: on any error every destination is
    /// released and every patch rolled back; no request takes effect.
    pub fn move_pages_batch(
        &mut self,
        table: &mut AllocationTable,
        regs: &mut [u64],
        moves: &[(u64, u64)],
        threads: usize,
    ) -> Result<(WorldStop, Vec<MoveOutcome>), KernelError> {
        let page = self.cost.page_size;
        // Pre-negotiate every request so each destination is large enough,
        // coalescing requests the expansion has already swallowed. A
        // request whose *expanded* range touches a pinned DMA buffer is
        // refused here — before anything is allocated or stopped — and
        // skipped like an alloc failure: batchmates still move, and the
        // typed error surfaces only when nothing in the batch survives.
        let mut pin_err: Option<KernelError> = None;
        let mut expanded: Vec<(u64, u64)> = Vec::with_capacity(moves.len());
        for &(src, pages) in moves {
            let len = pages * page;
            let (xsrc, xlen) =
                carat_runtime::expand_to_allocations(table, src / page * page, len, page);
            if expanded
                .iter()
                .any(|&(s, l)| xsrc < s + l && s < xsrc + xlen)
            {
                continue;
            }
            if let Err(e) = check_unpinned(xsrc, xlen, &self.pins) {
                self.note_denied_move(xlen);
                pin_err = Some(KernelError::Move(e));
                continue;
            }
            expanded.push((xsrc, xlen));
        }
        // Allocate every destination up front, publishing each accepted
        // source range to the vacated list as we go: destination k may
        // recycle the frames request j < k is about to vacate, exactly as
        // a sequence of per-move stops would — so physical placement (and
        // with it every address-dependent counter) is bit-identical to
        // sequential execution. The copies later run in request order, so
        // an earlier range is always evacuated before a later destination
        // lands in it. On failure nothing has been patched yet: restoring
        // the vacated list and freeing the buddy blocks is the whole
        // rollback.
        let vacated_before = self.space.vacated.clone();
        let mut dsts: Vec<(DstAlloc, u64)> = Vec::with_capacity(expanded.len());
        let mut accepted: Vec<(u64, u64)> = Vec::with_capacity(expanded.len());
        let release_all = |k: &mut Self, dsts: Vec<(DstAlloc, u64)>| {
            k.space.vacated = vacated_before.clone();
            for (d, _) in dsts.into_iter().filter(|(d, _)| d.from_buddy) {
                k.space.release_move_dst(&mut k.buddy, d);
            }
        };
        // A request whose destination cannot be allocated is skipped, not
        // fatal to its batchmates — exactly as its stand-alone move would
        // have failed without affecting the next one. The error surfaces
        // only when *no* request gets a destination (so a batch of one
        // keeps `move_pages`'s error surface).
        let mut alloc_err = None;
        for &(xsrc, xlen) in &expanded {
            match self.alloc_move_dst(xlen) {
                Ok(d) => {
                    dsts.push(d);
                    accepted.push((xsrc, xlen));
                    self.space.vacated.push((xsrc, xlen));
                }
                Err(e) => alloc_err = Some(e),
            }
        }
        if dsts.is_empty() {
            // Nothing was taken or pre-published; only the (semantically
            // neutral) vacated-range compaction of the failed attempts
            // remains, as after a failed stand-alone move.
            // An empty `moves` batch reaches here with no allocation
            // error recorded; surface it as a zero-page frame failure
            // rather than panicking on a caller mistake. An allocation
            // failure outranks a pin refusal: the former is the signal
            // compaction callers act on.
            return Err(alloc_err
                .or(pin_err)
                .unwrap_or(KernelError::OutOfFrames { pages: 0 }));
        }

        let world = match self.stop_world(threads) {
            Ok(w) => w,
            Err(e) => {
                release_all(self, dsts);
                return Err(e);
            }
        };
        let reqs: Vec<MoveRequest> = accepted
            .iter()
            .zip(&dsts)
            .map(|(&(xsrc, xlen), &(d, _))| MoveRequest {
                src: xsrc,
                len: xlen,
                dst: d.addr,
            })
            .collect();
        let moved = self.journaled(&mut [table], regs, &reqs, None, Some(FaultPoint::MidMove));
        let mut outcomes = match moved {
            Ok(outs) => outs,
            Err(e) => {
                release_all(self, dsts);
                return Err(e);
            }
        };
        for (outcome, &(_, backoff)) in outcomes.iter_mut().zip(&dsts) {
            outcome.cost.alloc_and_move += backoff;
        }
        for (d, _) in &dsts {
            self.space.commit_dst_block(d);
        }

        // Region maintenance: each moved range leaves the capsule and its
        // destination becomes accessible. The vacated frames were already
        // published during destination allocation above. One region
        // rebuild covers the whole batch.
        for outcome in &outcomes {
            self.record_moves(outcome);
        }
        let (unmapped, mapped): (Vec<_>, Vec<_>) = outcomes
            .iter()
            .map(|o| {
                (
                    (o.moved_src, o.moved_len),
                    (o.moved_dst, o.moved_len, Perms::RW),
                )
            })
            .unzip();
        self.space.remap(&unmapped, &mapped);
        Ok((world, outcomes))
    }

    /// Page a range out to swap (paper §2.2: "to make a page unavailable,
    /// we patch its affected pointers to a physical address that will
    /// cause a fault … the specific non-canonical address can be used to
    /// encode different conditions").
    ///
    /// Expands `page` to whole allocations, then runs the one move
    /// transaction with the slot's poison window as its destination: every
    /// escape and register pointing into the range is patched to a poison
    /// address encoding the swap slot, the router's copy turns the frames
    /// into the slot's swap entry, and the tracking is rebased into the
    /// window. The kernel then revokes the region and recycles the frames.
    /// Returns the slot id, or `Ok(None)` for a range the kernel declines
    /// to swap (too large, already in swap, or its process has no swap-slot
    /// id left to name it by).
    ///
    /// Paging names **no interrupt point** for the transaction (page-in
    /// likewise), so it consults no [`FaultPoint::MidMove`]: that point
    /// fires on its N-th dynamic occurrence, so counting page-outs would
    /// renumber every seeded fault schedule and move the modeled numbers.
    /// The transaction already carries its rollback data, so naming a
    /// point is all it takes to make paging crash-consistent.
    ///
    /// # Errors
    ///
    /// [`KernelError::WorldStop`] when the stop stalls before any state
    /// was touched (the slot id is not consumed, and no data has been
    /// patched or copied).
    pub fn page_out(
        &mut self,
        table: &mut AllocationTable,
        regs: &mut [u64],
        page: u64,
        threads: usize,
    ) -> Result<Option<(WorldStop, u64, u64, u64)>, KernelError> {
        let pg = self.cost.page_size;
        let (src, len) = carat_runtime::expand_to_allocations(table, page / pg * pg, pg, pg);
        if len > POISON_SLOT_SPAN || Self::is_poison(src) {
            return Ok(None);
        }
        // A pinned DMA buffer can never be swapped: the device holds its
        // physical address.
        self.refuse_pinned(src, len)?;
        // The slot id is only consumed once the episode is under way. A
        // process with every id of its lane in swap has none to give: the
        // range stays resident rather than share a slot.
        let Some(slot) = self.space.swap_slots.peek() else {
            return Ok(None);
        };

        // All mutations happen after the world has stopped; a stall here
        // leaves every byte as it was.
        let world = self.stop_world(threads)?;
        self.space.swap_slots.commit(slot);

        // Escape cells may themselves live in other swapped ranges; the
        // router reaches them.
        let req = MoveRequest {
            src,
            len,
            dst: Self::swap_window(slot).0,
        };
        self.journaled(&mut [table], regs, &[req], None, None)?;
        self.space.vacated.push((src, len));
        self.space.remap(&[(src, len)], &[]);
        self.trace.record(PagingEvent::Invalidate {
            first: src / pg,
            count: len / pg,
        });
        Ok(Some((world, slot, src, len)))
    }

    /// Service a fault on a poison address: bring the slot's data back
    /// into fresh frames, patch every poisoned pointer to the new
    /// location, and restore the region. Returns the stop's cost and the
    /// move out of the slot's window (its `moved_dst` is the range's new
    /// base), or `Ok(None)` when `poison_addr` does not name a live swap
    /// slot.
    ///
    /// # Errors
    ///
    /// [`KernelError::SwapReadFailed`] when the swap store cannot produce
    /// the slot (injected read failure or corrupted entry);
    /// [`KernelError::OutOfFrames`] when no destination frames exist;
    /// [`KernelError::WorldStop`] on a stop stall. In every
    /// case the swap entry is preserved so the fault can be retried —
    /// the data is never dropped on a failed page-in.
    pub fn page_in(
        &mut self,
        table: &mut AllocationTable,
        regs: &mut [u64],
        poison_addr: u64,
        threads: usize,
    ) -> Result<Option<(WorldStop, MoveOutcome)>, KernelError> {
        if !Self::is_poison(poison_addr) {
            return Ok(None);
        }
        let (slot, _) = poison_slot(poison_addr);
        let Some(len) = self.swap.get(&slot).map(|e| e.len) else {
            return Ok(None);
        };
        if self.fire(FaultPoint::SwapRead) {
            return Err(KernelError::SwapReadFailed { slot });
        }
        // The entry stays in the store until the move out of it has
        // succeeded: no failure below can lose the swapped data.
        let (dst, backoff) = self.alloc_move_dst(len)?;
        let mut world = self
            .stop_world(threads)
            .inspect_err(|_| self.space.release_move_dst(&mut self.buddy, dst))?;
        world.cycles += backoff;
        if self.swap.get(&slot).map(|e| e.data.len() as u64) != Some(len) {
            // Corrupted (or vanished) entry: keep what is there for
            // post-mortem, release everything else, surface a typed error.
            self.space.release_move_dst(&mut self.buddy, dst);
            return Err(KernelError::SwapReadFailed { slot });
        }
        // Paging in is a move out of the slot's poison window. Cells that
        // live inside this slot are patched through the router while the
        // entry still holds them, then travel with the copy.
        let req = MoveRequest {
            src: Self::swap_window(slot).0,
            len,
            dst: dst.addr,
        };
        let outcome = self
            .journaled(&mut [table], regs, &[req], Some(dst), None)?
            .pop()
            .expect("one request, one outcome");
        self.swap.remove(&slot);
        self.space.remap(&[], &[(dst.addr, len, Perms::RW)]);
        let pg = self.cost.page_size;
        for p in 0..len / pg {
            self.trace.record(PagingEvent::Alloc {
                page: dst.addr / pg + p,
            });
        }
        self.space.swap_slots.release(slot);
        Ok(Some((world, outcome)))
    }

    /// Stack expansion, seamless to the guest (paper §2.2: "a failed guard involving the
    /// stack causes the kernel to be invoked; this provides a mechanism by
    /// which the kernel can implement seamless stack expansion").
    ///
    /// The stack is an ordinary tracked allocation, so the kernel grows it
    /// by *moving* it: allocate a block twice the size, relocate the live
    /// stack contents to its top (patching escapes and registers via the
    /// normal move engine), extend the allocation downward, and install
    /// the new region. `stack` is the process's stack range
    /// `(start, len)`, set to the grown block. Returns the move outcome,
    /// or `Ok(None)` when the stack already reached `max_stack` bytes.
    ///
    /// # Errors
    ///
    /// Transactional like [`SimKernel::move_pages`]: on
    /// [`KernelError::OutOfFrames`], [`KernelError::WorldStop`], or
    /// [`KernelError::MoveInterrupted`] the stack, table, and registers
    /// are exactly as before the call.
    pub fn expand_stack(
        &mut self,
        table: &mut AllocationTable,
        regs: &mut [u64],
        stack: &mut (u64, u64),
        threads: usize,
        max_stack: u64,
    ) -> Result<Option<(WorldStop, MoveOutcome)>, KernelError> {
        let (old_start, old_len) = *stack;
        let new_len = (old_len * 2).min(max_stack);
        if new_len <= old_len {
            return Ok(None);
        }
        // Stack growth relocates the old stack block; a pinned stack
        // range (a tenant DMA-ing from its own stack) blocks it, typed.
        self.refuse_pinned(old_start, old_len)?;
        let (dst, backoff) = self.alloc_move_dst(new_len)?;
        let dst_block = dst.addr;
        // Live data keeps its distance from the stack top: it lands at the
        // top of the new block.
        let data_dst = dst_block + new_len - old_len;

        let mut world = self
            .stop_world(threads)
            .inspect_err(|_| self.space.release_move_dst(&mut self.buddy, dst))?;
        world.cycles += backoff;
        let req = MoveRequest {
            src: old_start,
            len: old_len,
            dst: data_dst,
        };
        let outcome = self
            .journaled(
                &mut [table],
                regs,
                &[req],
                Some(dst),
                Some(FaultPoint::MidMove),
            )?
            .pop()
            .expect("one request, one outcome");

        // Extend the relocated stack allocation downward over the whole
        // new block.
        if let Some(info) = table.track_free(outcome.moved_dst) {
            table.track_alloc(dst_block, new_len, carat_runtime::AllocKind::Stack);
            table.adopt_escapes(dst_block, info.escapes, info.escapes_ever);
            // track_free recorded a death; neutralize the histogram entry
            // since the allocation logically lives on.
            if let Some(h) = table.stats.escape_histogram.get_mut(&info.escapes_ever) {
                *h = h.saturating_sub(1);
            }
        }

        // Regions: the old stack range is vacated; the new block (all of
        // it, including the fresh growth room) becomes the stack region.
        self.space
            .vacated
            .push((outcome.moved_src, outcome.moved_len));
        self.space.remap(
            &[(outcome.moved_src, outcome.moved_len)],
            &[(dst_block, new_len, Perms::RW)],
        );
        self.record_moves(&outcome);

        *stack = (dst_block, new_len);
        Ok(Some((world, outcome)))
    }

    /// Move shared block `id` to a fresh location, patching the escapes
    /// and dumped registers of *every* owner in one world stop, and
    /// updating every owner's guard-region map. `regs` is the
    /// concatenation of all owners' dumped thread registers; `threads`
    /// the total stopped thread count.
    ///
    /// Every owner's allocation table must be checked in (all owners
    /// descheduled — the scheduler quiesces them before a cross-process
    /// move).
    ///
    /// # Errors
    ///
    /// Transactional exactly like [`SimKernel::move_pages`]:
    /// [`KernelError::OutOfFrames`], [`KernelError::WorldStop`], or
    /// [`KernelError::MoveInterrupted`] leave every owner's memory,
    /// registers, and tables byte-identical to the pre-call state.
    pub fn move_shared(
        &mut self,
        id: SharedId,
        regs: &mut [u64],
        threads: usize,
    ) -> Result<(WorldStop, MoveOutcome), KernelError> {
        let (base, len, owners) = {
            let s = self
                .procs
                .shared(id)
                .ok_or(KernelError::NoSuchShared { id })?;
            (s.base, s.len, s.owners.clone())
        };
        // Pre-negotiate expansion across every owner so the destination
        // is big enough: the transaction's own cross-table fixed point.
        let pg = self.cost.page_size;
        let (xsrc, xlen) = {
            let views: Vec<&AllocationTable> = owners
                .iter()
                .filter_map(|&pid| self.procs.get(pid).and_then(|e| e.table.as_ref()))
                .collect();
            expand_across_tables(&views, base, len, pg)
        };
        // Shared regions are the natural DMA-buffer vehicle, so this is
        // the mover most likely to meet a pin. Refuse before allocating.
        self.refuse_pinned(xsrc, xlen)?;
        let (dst, backoff) = self.alloc_move_dst(xlen)?;
        let world = self
            .stop_world(threads)
            .inspect_err(|_| self.space.release_move_dst(&mut self.buddy, dst))?;
        // Check out every owner's table; a missing one (stale owner, or a
        // table still checked out to a running tenant) abandons the move
        // with everything restored.
        let mut tables: Vec<AllocationTable> = Vec::with_capacity(owners.len());
        let mut checked_out: Vec<Pid> = Vec::with_capacity(owners.len());
        for &p in &owners {
            match self.procs.checkout_table(p) {
                Some(t) => {
                    tables.push(t);
                    checked_out.push(p);
                }
                None => {
                    for (&q, t) in checked_out.iter().zip(tables) {
                        self.procs.checkin_table(q, t);
                    }
                    self.space.release_move_dst(&mut self.buddy, dst);
                    return Err(KernelError::StaleTenant { pid: p });
                }
            }
        }
        let req = MoveRequest {
            src: xsrc,
            len: xlen,
            dst: dst.addr,
        };
        let res = {
            let mut refs: Vec<&mut AllocationTable> = tables.iter_mut().collect();
            self.journaled(
                &mut refs,
                regs,
                &[req],
                Some(dst),
                Some(FaultPoint::MidMove),
            )
        };
        for (&p, t) in owners.iter().zip(tables) {
            self.procs.checkin_table(p, t);
        }
        let mut outcome = res?.pop().expect("one request, one outcome");
        outcome.cost.alloc_and_move += backoff;

        // Region maintenance, for every owner: the moved range leaves its
        // map; the destination enters it.
        self.space
            .vacated
            .push((outcome.moved_src, outcome.moved_len));
        for &pid in &owners {
            if let Some(space) = self.space_mut(pid) {
                space.remap(
                    &[(outcome.moved_src, outcome.moved_len)],
                    &[(outcome.moved_dst, outcome.moved_len, Perms::RW)],
                );
            }
        }
        self.record_moves(&outcome);
        let new_base = outcome
            .moved_dst
            .wrapping_add(base.wrapping_sub(outcome.moved_src));
        let shared = self.procs.shared_mut(id);
        shared.base = new_base;
        self.procs.shared_moves += 1;
        self.procs.shared_move_cycles += world.cycles + outcome.cost.total();
        Ok((world, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{boot, boot_small, boot_two_procs, module_with_global};
    use super::*;
    use crate::faults::FaultPlan;
    use crate::loader::{LoadConfig, ProcessImage};
    use crate::pagetable::PageTable;
    use carat_runtime::{Access, CostModel, GuardImpl};

    #[test]
    fn move_pages_end_to_end() {
        let (mut k, mut table, img) = boot();
        let g = img.globals[0];
        // Store a pointer to the global somewhere in the heap and track it.
        let cell = img.heap.0 + 64;
        k.mem.write_uint(cell, g + 8, 8);
        table.track_escape(cell);
        let snapshot = g + 8;
        table.flush_escapes(|_| snapshot);

        let mut regs = vec![g + 16, 0x0];
        let page = k.cost.page_size;
        let (_, outcome) = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .expect("move succeeds");
        assert!(outcome.escapes_patched >= 1);
        // The escape cell points at the new location.
        let new_ptr = k.mem.read_uint(cell, 8);
        assert_ne!(new_ptr, g + 8);
        // Register patched.
        assert_ne!(regs[0], g + 16);
        assert_eq!(regs[1], 0);
        // Old page is no longer a valid region; new one is.
        assert!(
            !k.space
                .regions
                .check(GuardImpl::IfTree, g, 8, Access::Read)
                .ok
        );
        assert!(
            k.space
                .regions
                .check(GuardImpl::IfTree, new_ptr, 8, Access::Read)
                .ok
        );
        // The cell followed the global by exactly the outcome's delta.
        assert_eq!(
            new_ptr - 8,
            g.wrapping_add(outcome.moved_dst.wrapping_sub(outcome.moved_src))
        );
        assert!(k.trace.moves >= 1);
    }

    /// Stack growth counts in the paging trace the way every other mover
    /// does, one move per page: one growth of the default 256 KiB stack
    /// moves its 64 pages.
    #[test]
    fn one_stack_growth_records_a_move_per_page() {
        let (mut k, mut table, mut img) = boot();
        assert_eq!(img.stack.1, LoadConfig::default().stack_size);
        let before = k.trace.moves;
        let max = 2 * img.stack.1;
        k.expand_stack(&mut table, &mut [], &mut img.stack, 1, max)
            .expect("no fault")
            .expect("room to grow");
        assert_eq!(k.trace.moves - before, 64);
    }

    #[test]
    fn move_shared_patches_every_owner_and_region_map() {
        let (mut k, p0, p1, img0, img1) = boot_two_procs();
        let id = k.shared_create(4096).expect("frames available");
        let base = k.procs.shared(id).unwrap().base;
        k.shared_map(p0, id).expect("maps");
        k.shared_map(p1, id).expect("maps");
        // Each owner tracks the block and one escape cell in its own heap.
        let cells = [img0.heap.0 + 64, img1.heap.0 + 64];
        for (pid, cell) in [p0, p1].into_iter().zip(cells) {
            let mut t = k.procs.checkout_table(pid).unwrap();
            t.track_alloc(base, 4096, carat_runtime::AllocKind::Heap);
            k.mem.write_uint(cell, base + 8, 8);
            t.track_escape(cell);
            t.flush_escapes(|_| base + 8);
            k.procs.checkin_table(pid, t);
        }
        let mut regs = vec![base + 16, 0xdead];
        let (_, outcome) = k.move_shared(id, &mut regs, 2).expect("shared move");
        assert_eq!(outcome.allocations, 2, "one tracked block per owner");
        assert_eq!(outcome.escapes_patched, 2, "one cell per owner");
        let new_base = k.procs.shared(id).unwrap().base;
        assert_ne!(new_base, base);
        assert_eq!(k.mem.read_uint(cells[0], 8), new_base + 8);
        assert_eq!(k.mem.read_uint(cells[1], 8), new_base + 8);
        assert_eq!(regs, vec![new_base + 16, 0xdead]);
        // Every owner's region map (and table) follows the block.
        for pid in [p0, p1] {
            k.proc_switch(pid, false).expect("live pid");
            assert!(
                !k.space
                    .regions
                    .check(GuardImpl::IfTree, base, 8, Access::Read)
                    .ok,
                "old location revoked for {pid}"
            );
            assert!(
                k.space
                    .regions
                    .check(GuardImpl::IfTree, new_base, 8, Access::Read)
                    .ok,
                "new location mapped for {pid}"
            );
            let t = k.procs.get(pid).unwrap().table.as_ref().unwrap();
            assert!(t.info(new_base).is_some());
            assert!(t.info(base).is_none());
        }
    }

    #[test]
    fn interrupted_shared_move_is_transactional() {
        let (mut k, p0, p1, img0, _) = boot_two_procs();
        let id = k.shared_create(4096).expect("frames available");
        let base = k.procs.shared(id).unwrap().base;
        k.shared_map(p0, id).expect("maps");
        k.shared_map(p1, id).expect("maps");
        let cell = img0.heap.0 + 64;
        let mut t = k.procs.checkout_table(p0).unwrap();
        t.track_alloc(base, 4096, carat_runtime::AllocKind::Heap);
        k.mem.write_uint(cell, base + 8, 8);
        t.track_escape(cell);
        t.flush_escapes(|_| base + 8);
        k.procs.checkin_table(p0, t);

        let plan = crate::faults::FaultPlan::new().arm(crate::faults::FaultPoint::MidMove, 1);
        k.install_fault_plan(plan);
        let mut regs = vec![base + 16];
        let err = k.move_shared(id, &mut regs, 1).unwrap_err();
        assert!(matches!(err, KernelError::MoveInterrupted { .. }));
        assert!(err.is_recoverable());
        // Byte-identical: cell, regs, shared base, table all unchanged.
        assert_eq!(k.mem.read_uint(cell, 8), base + 8);
        assert_eq!(regs, vec![base + 16]);
        assert_eq!(k.procs.shared(id).unwrap().base, base);
        assert!(
            k.procs
                .get(p0)
                .unwrap()
                .table
                .as_ref()
                .unwrap()
                .info(base)
                .is_some(),
            "table checked back in, untouched"
        );
        // The fault is spent; the same move now succeeds.
        let (_, outcome) = k.move_shared(id, &mut regs, 1).expect("retry succeeds");
        assert_eq!(outcome.escapes_patched, 1);
    }

    /// Set up the escape + register fixture `move_pages_end_to_end` uses.
    fn track_pointer_to_global(
        k: &mut SimKernel,
        table: &mut AllocationTable,
        img: &ProcessImage,
    ) -> (u64, Vec<u64>) {
        let g = img.globals[0];
        let cell = img.heap.0 + 64;
        k.mem.write_uint(cell, g + 8, 8);
        table.track_escape(cell);
        let snapshot = g + 8;
        table.flush_escapes(|_| snapshot);
        (g, vec![g + 16, 0x0])
    }

    #[test]
    fn move_oom_surfaces_typed_error_and_leaves_state() {
        let (mut k, mut table, img) = boot_small();
        let (g, mut regs) = track_pointer_to_global(&mut k, &mut table, &img);
        k.install_fault_plan(FaultPlan::new().arm_persistent(FaultPoint::MoveDstAlloc, 1));
        let mem_before = k.mem.read_bytes(0, k.mem.size()).to_vec();
        let table_before = table.snapshot();
        let regs_before = regs.clone();
        let page = k.cost.page_size;
        let err = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .unwrap_err();
        assert!(matches!(err, KernelError::OutOfFrames { .. }), "{err}");
        assert!(err.is_recoverable());
        assert_eq!(k.mem.read_bytes(0, k.mem.size()), &mem_before[..]);
        assert_eq!(table.snapshot(), table_before);
        assert_eq!(regs, regs_before);
    }

    #[test]
    fn move_oom_recovers_after_transient_exhaustion() {
        let (mut k, mut table, img) = boot_small();
        let (g, mut regs) = track_pointer_to_global(&mut k, &mut table, &img);
        // One-shot exhaustion: the compaction+retry path must recover.
        k.install_fault_plan(FaultPlan::new().arm(FaultPoint::MoveDstAlloc, 1));
        let page = k.cost.page_size;
        let (_, outcome) = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .expect("retry recovers");
        assert_eq!(k.oom_recoveries, 1);
        // The retry's backoff was charged to the move's cost breakdown.
        assert!(outcome.cost.alloc_and_move > k.cost.move_alloc_fixed + k.cost.copy_cost(page));
    }

    #[test]
    fn mid_move_fault_rolls_back_byte_identical() {
        let (mut k, mut table, img) = boot_small();
        let (g, mut regs) = track_pointer_to_global(&mut k, &mut table, &img);
        k.install_fault_plan(FaultPlan::new().arm(FaultPoint::MidMove, 1));
        let mem_before = k.mem.read_bytes(0, k.mem.size()).to_vec();
        let table_before = table.snapshot();
        let regs_before = regs.clone();
        let page = k.cost.page_size;
        let err = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .unwrap_err();
        assert!(matches!(err, KernelError::MoveInterrupted { .. }), "{err}");
        // Byte-identical pre-move state across the whole machine.
        assert_eq!(k.mem.read_bytes(0, k.mem.size()), &mem_before[..]);
        assert_eq!(table.snapshot(), table_before);
        assert_eq!(regs, regs_before);
        assert!(
            k.space
                .regions
                .check(GuardImpl::IfTree, g, 8, Access::Read)
                .ok
        );
        assert_eq!(k.fault_plan().unwrap().fired().len(), 1);
        // The machine is not poisoned: the same move now succeeds.
        let (_, outcome) = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .expect("fault disarmed");
        assert!(outcome.escapes_patched >= 1);
    }

    #[test]
    fn world_stop_stall_aborts_cleanly() {
        let (mut k, mut table, img) = boot_small();
        let (g, mut regs) = track_pointer_to_global(&mut k, &mut table, &img);
        k.install_fault_plan(FaultPlan::new().arm(FaultPoint::WorldStopStall, 2));
        let mem_before = k.mem.read_bytes(0, k.mem.size()).to_vec();
        let page = k.cost.page_size;
        let err = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 4)
            .unwrap_err();
        match err {
            KernelError::WorldStop(carat_runtime::WorldStopError::Stalled { entered, threads }) => {
                assert_eq!(entered, 1, "one thread made it before the stall");
                assert_eq!(threads, 4);
            }
            other => panic!("expected a stall, got {other:?}"),
        }
        assert_eq!(k.mem.read_bytes(0, k.mem.size()), &mem_before[..]);
        // Nothing is left half-stopped: the retry completes.
        k.move_pages(&mut table, &mut regs, g / page * page, 1, 4)
            .expect("stall cleared");
    }

    #[test]
    fn page_out_page_in_round_trip_preserves_bytes() {
        let (mut k, mut table, img) = boot_small();
        let g = img.globals[0];
        // Fill the global buffer with a recognizable pattern.
        for i in 0..16u64 {
            k.mem.write_uint(g + i * 8, 0xA5A5_0000 + i, 8);
        }
        let cell = img.heap.0 + 64;
        k.mem.write_uint(cell, g + 8, 8);
        table.track_escape(cell);
        table.flush_escapes(|_| g + 8);
        let mut regs = vec![g + 16, 0x0];
        let (_, slot, src, len) = k
            .page_out(&mut table, &mut regs, g, 2)
            .expect("no fault")
            .expect("swappable");
        let pre_swap: Vec<u64> = (0..16u64).map(|i| 0xA5A5_0000 + i).collect();
        // Bring it back via the poisoned pointer the register now holds.
        let poisoned = regs[0];
        assert!(SimKernel::is_poison(poisoned));
        let dst = k
            .page_in(&mut table, &mut regs, poisoned, 2)
            .expect("no fault")
            .expect("slot live")
            .1
            .moved_dst;
        assert!(!k.swap.contains_key(&slot));
        // The resumed program reads back the exact pre-swap bytes.
        let g2 = dst + (g - src);
        let back: Vec<u64> = (0..16u64).map(|i| k.mem.read_uint(g2 + i * 8, 8)).collect();
        assert_eq!(back, pre_swap);
        // Pointers chased through the patched escape land on the data.
        assert_eq!(k.mem.read_uint(cell, 8), g2 + 8);
        assert_eq!(regs[0], g2 + 16);
        assert_eq!(len % k.cost.page_size, 0);
    }

    /// Two heap allocations on separate pages wired the ways paging has
    /// to get right: `a` holds a tracked pointer into `b` (a cell that
    /// follows `a` into its swap entry), `a` holds a tracked pointer into
    /// itself, and one register points into the interior of each. Returns
    /// `(a, b, regs)`.
    fn track_linked_pair(
        k: &mut SimKernel,
        table: &mut AllocationTable,
        img: &ProcessImage,
    ) -> (u64, u64, Vec<u64>) {
        let (a, b) = (img.heap.0 + 0x2000, img.heap.0 + 0x5000);
        table.track_alloc(a, 128, carat_runtime::AllocKind::Heap);
        table.track_alloc(b, 256, carat_runtime::AllocKind::Heap);
        for i in 0..16u64 {
            k.mem.write_uint(a + i * 8, 0xAAAA_0000 + i, 8);
        }
        for i in 0..32u64 {
            k.mem.write_uint(b + i * 8, 0xBBBB_0000 + i, 8);
        }
        k.mem.write_uint(a + 32, b + 8, 8);
        k.mem.write_uint(a + 40, a + 8, 8);
        table.track_escape(a + 32);
        table.track_escape(a + 40);
        table.flush_escapes(|c| k.mem.read_uint(c, 8));
        (a, b, vec![a + 16, b + 24])
    }

    /// Whether the allocation at `base` still holds the pattern
    /// `track_linked_pair` wrote, outside the words that hold pointers.
    fn payload_intact(k: &SimKernel, base: u64, tag: u64, words: u64, pointers: &[u64]) -> bool {
        (0..words)
            .filter(|i| !pointers.contains(i))
            .all(|i| k.mem.read_uint(base + i * 8, 8) == tag + i)
    }

    #[test]
    fn cell_inside_a_swapped_range_is_patched_through_the_router() {
        for b_first in [true, false] {
            let (mut k, mut table, img) = boot_small();
            let (a, b, mut regs) = track_linked_pair(&mut k, &mut table, &img);
            // Out: `a`, then `b` — by then the cell pointing at `b` lives
            // in `a`'s swap entry and is reached through the router.
            k.page_out(&mut table, &mut regs, a, 1)
                .expect("no fault")
                .expect("swappable");
            k.page_out(&mut table, &mut regs, b, 1)
                .expect("no fault")
                .expect("swappable");
            assert!(regs.iter().all(|&r| SimKernel::is_poison(r)));
            assert_eq!(k.swapped_ranges(), 2);
            // In, both orders. Paging `a` in first carries a cell that
            // still holds a poison pointer to `b` into resident memory.
            let order = if b_first { [1, 0] } else { [0, 1] };
            for r in order {
                let poisoned = regs[r];
                k.page_in(&mut table, &mut regs, poisoned, 1)
                    .expect("no fault")
                    .expect("slot live");
            }
            assert_eq!(k.swapped_ranges(), 0);
            let (a2, b2) = (regs[0] - 16, regs[1] - 24);
            assert_eq!(k.mem.read_uint(a2 + 32, 8), b2 + 8, "b_first={b_first}");
            assert_eq!(table.info(a2).map(|i| i.len), Some(128));
            assert_eq!(table.info(b2).map(|i| i.len), Some(256));
            assert!(table
                .info(b2)
                .is_some_and(|i| i.escapes.contains(&(a2 + 32))));
            assert!(payload_intact(&k, a2, 0xAAAA_0000, 16, &[4, 5]));
            assert!(payload_intact(&k, b2, 0xBBBB_0000, 32, &[]));
        }
    }

    #[test]
    fn self_pointer_and_interior_register_survive_paging() {
        let (mut k, mut table, img) = boot_small();
        let (a, _, mut regs) = track_linked_pair(&mut k, &mut table, &img);
        let (_, slot, src, _) = k
            .page_out(&mut table, &mut regs, a, 1)
            .expect("no fault")
            .expect("swappable");
        // The register keeps its interior offset inside the poison window.
        let (window, _) = SimKernel::swap_window(slot);
        assert_eq!(regs[0], window + (a - src) + 16);
        let dst = k
            .page_in(&mut table, &mut regs, window, 1)
            .expect("no fault")
            .expect("slot live")
            .1
            .moved_dst;
        let a2 = dst + (a - src);
        assert_eq!(regs[0], a2 + 16);
        assert_eq!(k.mem.read_uint(a2 + 40, 8), a2 + 8, "self pointer");
        assert!(table
            .info(a2)
            .is_some_and(|i| i.escapes.contains(&(a2 + 40))));
        assert!(payload_intact(&k, a2, 0xAAAA_0000, 16, &[4, 5]));
    }

    /// Paging hands the move transaction no interrupt hook, so an armed
    /// mid-move fault neither fires on it nor counts it: seeded fault
    /// schedules number moves only.
    #[test]
    fn paging_does_not_consult_the_mid_move_fault_point() {
        let (mut k, mut table, img) = boot_small();
        let (a, _, mut regs) = track_linked_pair(&mut k, &mut table, &img);
        k.install_fault_plan(FaultPlan::new().arm(FaultPoint::MidMove, 1));
        k.page_out(&mut table, &mut regs, a, 1)
            .expect("no fault")
            .expect("swappable");
        let poisoned = regs[0];
        k.page_in(&mut table, &mut regs, poisoned, 1)
            .expect("no fault")
            .expect("slot live");
        let plan = k.fault_plan().expect("installed");
        assert_eq!(plan.occurrences(FaultPoint::MidMove), 0);
        assert!(plan.fired().is_empty());
    }

    /// Four single pages, each filled exactly by four quarter-page
    /// allocations, with a few escape cells into every allocation from an
    /// arena elsewhere in the heap; one register points into each page.
    fn track_four_escape_heavy_pages(
        k: &mut SimKernel,
        table: &mut AllocationTable,
        img: &ProcessImage,
    ) -> (Vec<u64>, Vec<u64>) {
        let page = k.cost.page_size;
        let quarter = page / 4;
        let pages: Vec<u64> = (8..12).map(|i| img.heap.0 + i * page).collect();
        let mut cell = img.heap.0 + 32 * page;
        for (p, &base) in (0u64..).zip(&pages) {
            for start in (0..4).map(|a| base + a * quarter) {
                table.track_alloc(start, quarter, carat_runtime::AllocKind::Heap);
                for w in 0..quarter / 8 {
                    k.mem.write_uint(start + w * 8, p << 32 | start << 8 | w, 8);
                }
                for e in 0..4 {
                    k.mem.write_uint(cell, start + 8 + e * 56, 8);
                    table.track_escape(cell);
                    cell += 8;
                }
            }
        }
        table.flush_escapes(|c| k.mem.read_uint(c, 8));
        let mut regs: Vec<u64> = pages.iter().map(|p| p + 0x18).collect();
        regs.push(0xdead_beef);
        (pages, regs)
    }

    /// A batch is its stand-alone moves, bit for bit — memory, registers,
    /// table, outcomes — except that it stops the world once and inspects
    /// the register dump once. Two inputs: a linked pair, and four
    /// escape-heavy pages whose later destinations recycle frames an
    /// earlier batchmate vacated.
    #[test]
    fn batch_of_two_equals_two_stand_alone_moves() {
        type Fixture =
            fn(&mut SimKernel, &mut AllocationTable, &ProcessImage) -> (Vec<u64>, Vec<u64>);
        let pair: Fixture = |k, table, img| {
            let (a, b, regs) = track_linked_pair(k, table, img);
            (vec![a, b], regs)
        };
        for fixture in [pair, track_four_escape_heavy_pages] {
            let twin = || {
                let (mut k, mut table, img) = boot_small();
                let (pages, regs) = fixture(&mut k, &mut table, &img);
                (k, table, pages, regs)
            };
            let (mut kb, mut tb, pages, mut rb) = twin();
            let (mut ks, mut ts, _, mut rs) = twin();
            let before = rb.clone();
            let reqs: Vec<(u64, u64)> = pages.iter().map(|&p| (p, 1)).collect();
            let (wb, batched) = kb
                .move_pages_batch(&mut tb, &mut rb, &reqs, 2)
                .expect("batch moves");
            let mut stops = Vec::new();
            let mut alone = Vec::new();
            for &p in &pages {
                let (w, o) = ks.move_pages(&mut ts, &mut rs, p, 1, 2).expect("moves");
                stops.push(w.cycles);
                alone.push(o);
            }

            assert_eq!(
                kb.mem.read_bytes(0, kb.mem.size()),
                ks.mem.read_bytes(0, ks.mem.size())
            );
            assert_eq!(rb, rs);
            let patched = rb.iter().zip(&before).filter(|(r, b)| r != b).count();
            assert_eq!(
                patched,
                pages.len(),
                "every register into a page was patched"
            );
            assert_eq!(tb.snapshot(), ts.snapshot());
            // Same outcomes, apart from the register pass charged once.
            let per_pass = rs.len() as u64 * ks.cost.move_register_patch_per_reg;
            assert_eq!(batched.len(), alone.len());
            for (i, (b, mut o)) in batched.iter().zip(alone).enumerate() {
                assert_eq!(o.cost.register_patch, per_pass);
                if i > 0 {
                    o.cost.register_patch = 0;
                }
                assert_eq!(*b, o);
            }
            let stand_alone: u64 = stops.iter().sum();
            assert!(
                wb.cycles < stand_alone,
                "one stop is cheaper than {}: {} vs {stops:?}",
                stops.len(),
                wb.cycles
            );
            if pages.len() == 4 {
                let recycled = batched[1..]
                    .iter()
                    .any(|o| batched.iter().any(|e| e.moved_src == o.moved_dst));
                assert!(recycled, "a later destination reuses a vacated page");
            }
        }
    }

    /// Every entry point that stops the world to relocate memory.
    #[derive(Debug, Clone, Copy)]
    enum Mover {
        MovePages,
        MovePagesBatchOfTwo,
        PageOut,
        PageIn,
        ExpandStack,
        MoveShared,
    }

    impl Mover {
        const ALL: [Mover; 6] = [
            Mover::MovePages,
            Mover::MovePagesBatchOfTwo,
            Mover::PageOut,
            Mover::PageIn,
            Mover::ExpandStack,
            Mover::MoveShared,
        ];

        /// Page-in and stack growth add their destination backoff to the
        /// stop's cycles; the page movers charge it to the outcome's
        /// `alloc_and_move`, and page-out allocates no destination.
        fn stop_carries_backoff(self) -> bool {
            matches!(self, Mover::PageIn | Mover::ExpandStack)
        }
    }

    /// What a refused stop must leave exactly as it found.
    #[derive(Debug, PartialEq)]
    struct Untouched {
        mem: Vec<u8>,
        tables: Vec<Vec<(u64, u64, usize, u64)>>,
        regs: Vec<u64>,
        vacated: Vec<(u64, u64)>,
        swap: Vec<(u64, u64, Vec<u8>)>,
    }

    fn untouched(
        k: &SimKernel,
        tables: Vec<Vec<(u64, u64, usize, u64)>>,
        regs: &[u64],
    ) -> Untouched {
        let mut swap: Vec<(u64, u64, Vec<u8>)> = k
            .swap
            .iter()
            .map(|(&slot, e)| (slot, e.len, e.data.clone()))
            .collect();
        swap.sort_unstable();
        Untouched {
            mem: k.mem.read_bytes(0, k.mem.size()).to_vec(),
            tables,
            regs: regs.to_vec(),
            vacated: k.space.vacated.clone(),
            swap,
        }
    }

    /// Set `mover` up on a fresh kernel, install `plan`, and run it at
    /// `threads`. Returns the stop's cycles (or the error) and the machine
    /// state before and after the call.
    fn run_mover(
        mover: Mover,
        threads: usize,
        plan: FaultPlan,
    ) -> (Result<u64, KernelError>, Untouched, Untouched) {
        if let Mover::MoveShared = mover {
            let (mut k, p0, p1, img0, img1) = boot_two_procs();
            let id = k.shared_create(4096).expect("frames available");
            let base = k.procs.shared(id).unwrap().base;
            for (pid, img) in [(p0, &img0), (p1, &img1)] {
                k.shared_map(pid, id).expect("maps");
                let mut t = k.procs.checkout_table(pid).unwrap();
                t.track_alloc(base, 4096, carat_runtime::AllocKind::Heap);
                let cell = img.heap.0 + 64;
                k.mem.write_uint(cell, base + 8, 8);
                t.track_escape(cell);
                t.flush_escapes(|_| base + 8);
                k.procs.checkin_table(pid, t);
            }
            let tables = |k: &SimKernel| {
                [p0, p1]
                    .map(|p| k.procs.get(p).unwrap().table.as_ref().unwrap().snapshot())
                    .to_vec()
            };
            let mut regs = vec![base + 16, 0xdead];
            let before = untouched(&k, tables(&k), &regs);
            k.install_fault_plan(plan);
            let res = k.move_shared(id, &mut regs, threads).map(|(w, _)| w.cycles);
            let after = untouched(&k, tables(&k), &regs);
            return (res, before, after);
        }
        let (mut k, mut table, mut img) = boot_small();
        let (a, b, mut regs) = track_linked_pair(&mut k, &mut table, &img);
        if let Mover::PageIn = mover {
            k.page_out(&mut table, &mut regs, a, 1)
                .expect("no fault")
                .expect("swappable");
        }
        let before = untouched(&k, vec![table.snapshot()], &regs);
        k.install_fault_plan(plan);
        let page = k.cost.page_size;
        let res = match mover {
            Mover::MovePages => k
                .move_pages(&mut table, &mut regs, a / page * page, 1, threads)
                .map(|(w, _)| w.cycles),
            Mover::MovePagesBatchOfTwo => k
                .move_pages_batch(&mut table, &mut regs, &[(a, 1), (b, 1)], threads)
                .map(|(w, _)| w.cycles),
            Mover::PageOut => k
                .page_out(&mut table, &mut regs, a, threads)
                .map(|r| r.expect("swappable").0.cycles),
            Mover::PageIn => {
                let poisoned = regs[0];
                k.page_in(&mut table, &mut regs, poisoned, threads)
                    .map(|r| r.expect("slot live").0.cycles)
            }
            Mover::ExpandStack => {
                let max = 2 * img.stack.1;
                k.expand_stack(&mut table, &mut regs, &mut img.stack, threads, max)
                    .map(|r| r.expect("room to grow").0.cycles)
            }
            Mover::MoveShared => unreachable!("set up above"),
        };
        let after = untouched(&k, vec![table.snapshot()], &regs);
        (res, before, after)
    }

    /// What a caller observes of a stop, over every mover at 1, 2 and 4
    /// threads: a completed stop charges each thread one signal and two
    /// barriers, plus the mover's destination backoff; a thread stalling
    /// at its handler surfaces as a typed stall naming how many threads
    /// got there first, with nothing touched.
    #[test]
    fn every_mover_charges_one_stop_and_a_stall_touches_nothing() {
        let cost = CostModel::default();
        let per_thread = cost.move_signal_per_thread + 2 * cost.move_barrier_per_thread;
        for mover in Mover::ALL {
            for threads in [1usize, 2, 4] {
                // One exhausted destination attempt: the retry's backoff.
                let plan = FaultPlan::new().arm(FaultPoint::MoveDstAlloc, 1);
                let (res, ..) = run_mover(mover, threads, plan);
                let backoff = if mover.stop_carries_backoff() {
                    cost.move_alloc_fixed
                } else {
                    0
                };
                assert_eq!(
                    res,
                    Ok(threads as u64 * per_thread + backoff),
                    "{mover:?} at {threads} threads"
                );
                for k in 1..=threads {
                    let plan = FaultPlan::new().arm(FaultPoint::WorldStopStall, k as u64);
                    let (res, before, after) = run_mover(mover, threads, plan);
                    assert_eq!(
                        res,
                        Err(KernelError::WorldStop(WorldStopError::Stalled {
                            entered: k - 1,
                            threads,
                        })),
                        "{mover:?} stalled at thread {k} of {threads}"
                    );
                    assert!(before == after, "{mover:?} stalled at {k}/{threads}");
                }
            }
        }
    }

    /// A stop over no threads is refused, typed, before anything moves.
    #[test]
    fn every_mover_refuses_a_stop_over_zero_threads() {
        for mover in Mover::ALL {
            let (res, before, after) = run_mover(mover, 0, FaultPlan::new());
            assert_eq!(
                res,
                Err(KernelError::WorldStop(WorldStopError::NoThreads)),
                "{mover:?}"
            );
            assert!(before == after, "{mover:?}");
        }
    }

    #[test]
    fn page_in_of_missing_slot_is_none() {
        let (mut k, mut table, _) = boot_small();
        let mut regs = vec![0u64];
        let bogus = POISON_BASE + 7 * POISON_SLOT_SPAN;
        assert!(k
            .page_in(&mut table, &mut regs, bogus, 1)
            .expect("no fault")
            .is_none());
    }

    #[test]
    fn corrupted_swap_slot_is_a_typed_error_not_a_panic() {
        let (mut k, mut table, img) = boot_small();
        let g = img.globals[0];
        let mut regs = vec![g + 16];
        let (_, slot, _, _) = k
            .page_out(&mut table, &mut regs, g, 1)
            .expect("no fault")
            .expect("swappable");
        assert!(k.debug_corrupt_swap_slot(slot));
        assert_eq!(
            k.audit_swap(&table),
            vec![format!("swap slot {slot} length/payload mismatch")]
        );
        let poisoned = regs[0];
        let err = k.page_in(&mut table, &mut regs, poisoned, 1).unwrap_err();
        assert_eq!(err, KernelError::SwapReadFailed { slot });
        // The (corrupt) entry is preserved for post-mortem, not dropped.
        assert!(k.swap.contains_key(&slot));
    }

    #[test]
    fn failed_page_in_preserves_the_swap_entry_for_retry() {
        let (mut k, mut table, img) = boot_small();
        let g = img.globals[0];
        k.mem.write_uint(g, 0xFEED_FACE, 8);
        let mut regs = vec![g];
        let (_, slot, src, _) = k
            .page_out(&mut table, &mut regs, g, 1)
            .expect("no fault")
            .expect("swappable");
        let poisoned = regs[0];
        // First attempt: injected swap-read failure.
        k.install_fault_plan(FaultPlan::new().arm(FaultPoint::SwapRead, 1));
        let err = k.page_in(&mut table, &mut regs, poisoned, 1).unwrap_err();
        assert_eq!(err, KernelError::SwapReadFailed { slot });
        assert!(k.swap.contains_key(&slot), "data survives the failed read");
        // Second attempt: injected destination OOM.
        k.install_fault_plan(FaultPlan::new().arm_persistent(FaultPoint::MoveDstAlloc, 1));
        let err = k.page_in(&mut table, &mut regs, poisoned, 1).unwrap_err();
        assert!(matches!(err, KernelError::OutOfFrames { .. }));
        assert!(
            k.swap.contains_key(&slot),
            "OOM must not drop the swap entry"
        );
        // Third attempt: clean — the exact bytes come back.
        k.install_fault_plan(FaultPlan::new());
        let dst = k
            .page_in(&mut table, &mut regs, poisoned, 1)
            .expect("no fault")
            .expect("slot live")
            .1
            .moved_dst;
        assert_eq!(k.mem.read_uint(dst + (g - src), 8), 0xFEED_FACE);
    }

    /// Two tenants whose slab indices are 16 384 apart, each with its
    /// global paged out: `(kernel, [(pid, table, image, regs, slot, src)])`.
    #[allow(clippy::type_complexity)]
    fn two_tenants_16384_apart_paged_out() -> (
        SimKernel,
        [(Pid, AllocationTable, ProcessImage, Vec<u64>, u64, u64); 2],
    ) {
        let mut k = SimKernel::new(64 * 1024 * 1024);
        let cfg = LoadConfig {
            stack_size: 64 * 1024,
            heap_size: 1024 * 1024,
            page_size: 4096,
        };
        let mut t0 = AllocationTable::new();
        let img0 = k
            .load_unsigned(module_with_global(), &mut t0, cfg)
            .expect("loads");
        let p0 = k.register_proc("alpha", img0.clone()).expect("admitted");
        for _ in 1..16_384 {
            k.procs
                .spawn(
                    "filler".into(),
                    img0.clone(),
                    Vec::new(),
                    PageTable::new(),
                    None,
                )
                .expect("admitted");
        }
        let mut t1 = AllocationTable::new();
        let img1 = k
            .load_unsigned(module_with_global(), &mut t1, cfg)
            .expect("loads");
        let p1 = k.register_proc("beta", img1.clone()).expect("admitted");
        assert_eq!((p0.index(), p1.index()), (0, 16_384));
        let tenants = [(p0, t0, img0, 0xAAAA_0000u64), (p1, t1, img1, 0xBBBB_0000)];
        let paged = tenants.map(|(pid, mut table, img, tag)| {
            k.proc_switch(pid, false).unwrap();
            let g = img.globals[0];
            for i in 0..16u64 {
                k.mem.write_uint(g + i * 8, tag + i, 8);
            }
            let mut regs = vec![g];
            let (_, slot, src, _) = k.page_out(&mut table, &mut regs, g, 1).unwrap().unwrap();
            (pid, table, img, regs, slot, src)
        });
        (k, paged)
    }

    #[test]
    fn swap_lanes_of_tenants_16384_apart_do_not_alias() {
        let (mut k, [(p0, mut t0, img0, mut regs0, slot0, src0), (_, _, _, _, slot1, _)]) =
            two_tenants_16384_apart_paged_out();
        assert_ne!(slot0, slot1, "two tenants were issued the same swap slot");
        k.proc_switch(p0, false).unwrap();
        let (g0, poisoned) = (img0.globals[0], regs0[0]);
        let dst = k
            .page_in(&mut t0, &mut regs0, poisoned, 1)
            .unwrap()
            .unwrap()
            .1
            .moved_dst;
        assert_eq!(
            k.mem.read_uint(dst + (g0 - src0), 8),
            0xAAAA_0000,
            "alpha read someone else's swap entry"
        );
    }

    /// Killing one tenant reaps exactly its own swap entries: a bystander
    /// 16 384 slots away keeps its range and pages it back in intact.
    #[test]
    fn swap_lanes_survive_the_kill_of_a_tenant_16384_away() {
        let (mut k, [(p0, mut t0, img0, mut regs0, slot0, src0), (p1, _, _, _, slot1, _)]) =
            two_tenants_16384_apart_paged_out();
        assert!(k.proc_kill(p1));
        assert!(!k.swap.contains_key(&slot1), "the victim's entry is reaped");
        assert!(k.swap.contains_key(&slot0), "the bystander's is not");
        k.proc_switch(p0, false).unwrap();
        let (g0, poisoned) = (img0.globals[0], regs0[0]);
        let dst = k
            .page_in(&mut t0, &mut regs0, poisoned, 1)
            .unwrap()
            .unwrap()
            .1
            .moved_dst;
        let back: Vec<u64> = (0..16u64)
            .map(|i| k.mem.read_uint(dst + (g0 - src0) + i * 8, 8))
            .collect();
        let want: Vec<u64> = (0..16u64).map(|i| 0xAAAA_0000 + i).collect();
        assert_eq!(back, want);
    }

    /// A process with every slot id of its lane in swap declines further
    /// page-outs instead of reusing one.
    #[test]
    fn page_out_declines_when_the_lane_is_exhausted() {
        let (mut k, p0, _, img0, _) = boot_two_procs();
        k.proc_switch(p0, false).unwrap();
        let mut table = k.procs.checkout_table(p0).unwrap();
        while let Some(slot) = k.space.swap_slots.peek() {
            k.space.swap_slots.commit(slot);
        }
        let g = img0.globals[0];
        let mut regs = vec![g];
        assert!(k.page_out(&mut table, &mut regs, g, 1).unwrap().is_none());
        assert_eq!(regs, vec![g], "nothing was patched");
        assert_eq!(k.swapped_ranges(), 0);
    }

    #[test]
    fn worst_page_picks_most_escaped_allocation() {
        let (mut k, mut table, img) = boot();
        // Heap allocation with 3 escapes vs the global with 1.
        let a = img.heap.0 + 0x1000;
        table.track_alloc(a, 128, carat_runtime::AllocKind::Heap);
        for i in 0..3u64 {
            let cell = img.heap.0 + 64 + i * 8;
            k.mem.write_uint(cell, a, 8);
            table.track_escape(cell);
        }
        table.flush_escapes(|c| k.mem.read_uint(c, 8));
        let page = k.cost.page_size;
        assert_eq!(k.worst_page(&table), Some(a / page * page));
    }
}
