//! The process API: admission, kill, context switch and park — each a
//! move of one [`AddressSpace`] — the per-process pool, and shared
//! regions.

use super::SimKernel;
use crate::faults::KernelError;
use crate::loader::ProcessImage;
use crate::proc::{Pid, SharedId};
use crate::space::AddressSpace;
use crate::trace::PagingEvent;
use carat_runtime::Perms;

impl SimKernel {
    // --- multi-process operation -----------------------------------------

    /// Register the most recently loaded image as a process: the address
    /// space the load just built (the capsule region set, an empty page
    /// table) is handed over whole and becomes the process's. Call
    /// immediately after [`SimKernel::load`] /
    /// [`SimKernel::load_unsigned`] for each tenant; nothing is installed
    /// until the first [`SimKernel::proc_switch`].
    ///
    /// # Errors
    ///
    /// [`crate::AdmissionError`] when the tenant quotas refuse the capsule. The
    /// refused tenant's capsule frames are released again — admission
    /// failure leaves the kernel exactly as it was before the load.
    pub fn register_proc(
        &mut self,
        name: &str,
        image: &ProcessImage,
    ) -> Result<Pid, crate::proc::AdmissionError> {
        let space = std::mem::take(&mut self.space);
        let capsule = image.capsule_region();
        let admitted = self.procs.spawn_in(name.to_string(), capsule, space, None);
        if admitted.is_err() {
            // Roll the load back: the capsule is one contiguous buddy
            // block.
            let _ = self.buddy.free_pages(capsule.start);
        }
        admitted
    }

    /// Set the fleet admission quotas (tenant count and resident bytes);
    /// see [`crate::TenantQuotas`]. Applies to future registrations only.
    pub fn set_quotas(&mut self, quotas: crate::proc::TenantQuotas) {
        self.procs.set_quotas(quotas);
    }

    /// Kill process `pid`: retire its slab slot (bumping the generation,
    /// so every outstanding copy of the pid goes stale), release its
    /// capsule frames *and* every buddy block its CARAT moves carried it
    /// into back to the allocator, drop its swap-device entries, and
    /// unmap it from any shared regions. Returns `false` for a stale pid.
    ///
    /// Because the vacated-range recycler is per-process, fragments of a
    /// victim's relocation blocks die with its entry — each owned block
    /// goes home to the buddy in one piece, with no risk of a recycled
    /// sub-range aliasing the freed frames.
    pub fn proc_kill(&mut self, pid: Pid) -> bool {
        let was_current = self.procs.current() == Some(pid);
        let Some(mut entry) = self.procs.kill(pid) else {
            return false;
        };
        if was_current {
            // The installed space was the victim's: claim it so the reap
            // below sees it, leaving the kernel with nothing installed.
            entry.space = std::mem::take(&mut self.space);
        }
        let _ = self.buddy.free_pages(entry.capsule.start);
        // The space knows exactly which slot ids it was ever issued; drop
        // the victim's pages — and only the victim's — from the simulated
        // device.
        for slot in entry.space.reap(&mut self.buddy) {
            self.swap.remove(&slot);
        }
        // Reap the victim's DMA pins: a dead tenant must not leave holes
        // the compactor can never clear. (The slab generation was bumped
        // by `kill` above, so a recycled index cannot alias these.)
        let before = self.pins.len();
        self.pins.retain(|p| p.owner != Some(pid.index()));
        self.pin_stats.reaped += (before - self.pins.len()) as u64;
        true
    }

    /// Reserve a private pool of `pages` frames for process `pid`,
    /// seeded into its vacated-range recycler. Subsequent CARAT move
    /// destinations for the process are carved from the pool instead of
    /// the shared buddy allocator, so one tenant's allocation history
    /// cannot perturb another's move-destination addresses — the
    /// bystander-determinism guarantee the fleet fault domain relies on.
    /// The pool is reaped in full by [`SimKernel::proc_kill`].
    ///
    /// # Errors
    ///
    /// [`KernelError::StaleTenant`] for a dead pid;
    /// [`KernelError::OutOfFrames`] when the frame allocator cannot back
    /// the pool. Either way nothing is reserved.
    pub fn proc_reserve_pool(&mut self, pid: Pid, pages: u64) -> Result<(), KernelError> {
        if pages == 0 {
            return Ok(());
        }
        if self.procs.get(pid).is_none() {
            return Err(KernelError::StaleTenant { pid });
        }
        let base = self
            .buddy
            .alloc_pages(pages)
            .ok_or(KernelError::OutOfFrames { pages })?;
        let len = pages * self.cost.page_size;
        // `get` above proved the entry live.
        if let Some(space) = self.space_mut(pid) {
            space.vacated.push((base, len));
            space.owned_blocks.push(base);
        }
        Ok(())
    }

    /// Context switch to process `to`: park the outgoing process's
    /// address space in its entry, install the incoming one's — two moves
    /// of one struct — and charge the mode-dependent cost to the incoming
    /// process's *kernel* accounting.
    ///
    /// CARAT pays [`carat_runtime::CostModel::ctx_switch_carat`] — the
    /// fixed trap path plus a region-set install. There is no translation state, so
    /// nothing is flushed, and nothing is rebuilt: the incoming table
    /// carries its own generation, so a guard fast path filled before the
    /// deschedule is still valid unless the regions were edited since.
    /// Traditional pays
    /// [`carat_runtime::CostModel::ctx_switch_traditional`] — the same
    /// fixed path plus a *modeled* TLB flush and amortized ASID-rollover refill. The flush
    /// is a kernel-side cycle charge, not a simulated-TLB clear: the
    /// per-process TLB contents model a tagged TLB whose coherence costs
    /// are exactly this charge, which keeps a process's own retired
    /// cycles identical between time-sliced and sequential execution.
    ///
    /// Returns the cycles charged (0 when `to` is already current).
    ///
    /// # Errors
    ///
    /// [`KernelError::StaleTenant`] when `to` no longer names a live
    /// process; the outgoing process (if any) is left installed.
    pub fn proc_switch(&mut self, to: Pid, traditional: bool) -> Result<u64, KernelError> {
        if self.procs.current() == Some(to) {
            return Ok(0);
        }
        if self.procs.get(to).is_none() {
            return Err(KernelError::StaleTenant { pid: to });
        }
        self.park_current();
        let e = self
            .procs
            .get_mut(to)
            .ok_or(KernelError::StaleTenant { pid: to })?;
        self.space = std::mem::take(&mut e.space);
        let cycles = if traditional {
            self.cost.ctx_switch_traditional()
        } else {
            self.cost.ctx_switch_carat()
        };
        let acc = &mut e.accounting;
        acc.ctx_switches += 1;
        acc.ctx_switch_cycles += cycles;
        if traditional {
            acc.tlb_flushes += 1;
        }
        self.procs.set_current(Some(to));
        Ok(cycles)
    }

    /// Deschedule the current process without scheduling a successor:
    /// park its address space back in its entry and leave the kernel with
    /// no process installed. Free bookkeeping — no switch cost is charged
    /// (the next [`SimKernel::proc_switch`] pays the full install).
    ///
    /// Call before loading a *new* process while another is installed:
    /// the loader builds the newcomer's regions in the kernel's installed
    /// space, which [`SimKernel::register_proc`] then hands to the
    /// newcomer's entry whole — an unparked incumbent's space would go
    /// with it. No-op when no process is current.
    pub fn proc_park(&mut self) {
        self.park_current();
        self.procs.set_current(None);
    }

    /// Move the installed space home to the current process's entry (if
    /// there is one), leaving a default space installed.
    fn park_current(&mut self) {
        if let Some(e) = self.procs.current().and_then(|cur| self.procs.get_mut(cur)) {
            e.space = std::mem::take(&mut self.space);
        }
    }

    /// Wherever process `pid`'s address space lives right now: the
    /// installed one if `pid` is current, else its entry's. `None` for a
    /// stale pid.
    pub(super) fn space_mut(&mut self, pid: Pid) -> Option<&mut AddressSpace> {
        if self.procs.current() == Some(pid) {
            Some(&mut self.space)
        } else {
            self.procs.get_mut(pid).map(|e| &mut e.space)
        }
    }

    /// Allocate a page-aligned shared memory block of at least `len`
    /// bytes. The block belongs to no process until mapped
    /// ([`SimKernel::shared_map`]).
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfFrames`] when the frame allocator is exhausted.
    pub fn shared_create(&mut self, len: u64) -> Result<SharedId, KernelError> {
        let pg = self.cost.page_size;
        let len = len.div_ceil(pg) * pg;
        let pages = len / pg;
        let base = self
            .buddy
            .alloc_pages(pages)
            .ok_or(KernelError::OutOfFrames { pages })?;
        for p in 0..pages {
            self.trace.record(PagingEvent::Alloc {
                page: base / pg + p,
            });
        }
        Ok(self.procs.add_shared(base, len))
    }

    /// Map shared block `id` into process `pid`'s region set (its guard
    /// map gains an RW region over the block). The caller is responsible
    /// for tracking the block in the process's allocation table so moves
    /// can patch its pointers.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchShared`] for an unknown block id;
    /// [`KernelError::StaleTenant`] when `pid` no longer names a live
    /// process. Either way nothing is mapped.
    pub fn shared_map(&mut self, pid: Pid, id: SharedId) -> Result<(), KernelError> {
        let (base, len) = {
            let s = self
                .procs
                .shared(id)
                .ok_or(KernelError::NoSuchShared { id })?;
            (s.base, s.len)
        };
        self.space_mut(pid)
            .ok_or(KernelError::StaleTenant { pid })?
            .remap(&[], &[(base, len, Perms::RW)]);
        let shared = self.procs.shared_mut(id);
        if !shared.owners.contains(&pid) {
            shared.owners.push(pid);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{boot_two_procs, module_with_global};
    use super::*;
    use crate::loader::LoadConfig;
    use carat_runtime::{Access, AllocationTable, GuardImpl, Region};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn proc_switch_installs_per_process_regions() {
        let (mut k, p0, p1, img0, img1) = boot_two_procs();
        assert_eq!(
            k.space.regions.len(),
            0,
            "nothing installed before a switch"
        );

        let c0 = k.proc_switch(p0, false).expect("live pid");
        assert_eq!(k.procs.current(), Some(p0));
        assert!(
            k.space
                .regions
                .check(GuardImpl::IfTree, img0.globals[0], 8, Access::Write)
                .ok,
            "own global accessible"
        );
        assert!(
            !k.space
                .regions
                .check(GuardImpl::IfTree, img1.globals[0], 8, Access::Read)
                .ok,
            "the other tenant's memory is not"
        );

        let c1 = k.proc_switch(p1, true).expect("live pid");
        assert!(
            k.space
                .regions
                .check(GuardImpl::IfTree, img1.globals[0], 8, Access::Write)
                .ok
        );
        assert!(
            !k.space
                .regions
                .check(GuardImpl::IfTree, img0.globals[0], 8, Access::Read)
                .ok
        );
        assert!(c0 < c1, "CARAT switch strictly cheaper than Traditional");
        assert_eq!(c0, k.cost.ctx_switch_carat());
        assert_eq!(c1, k.cost.ctx_switch_traditional());
        let a1 = k.procs.get(p1).unwrap().accounting;
        assert_eq!(a1.ctx_switches, 1);
        assert_eq!(a1.tlb_flushes, 1, "traditional switch flushed");
        assert_eq!(k.procs.get(p0).unwrap().accounting.tlb_flushes, 0);
        assert_eq!(k.proc_switch(p1, true), Ok(0), "switch to self is free");
    }

    #[test]
    fn shared_region_maps_into_both_owners() {
        let (mut k, p0, p1, _, _) = boot_two_procs();
        let id = k.shared_create(4096).expect("frames available");
        let base = k.procs.shared(id).unwrap().base;
        k.shared_map(p0, id).expect("maps");
        k.shared_map(p1, id).expect("maps");
        assert_eq!(k.procs.shared(id).unwrap().owners, vec![p0, p1]);
        for p in [p0, p1] {
            k.proc_switch(p, false).expect("live pid");
            assert!(
                k.space
                    .regions
                    .check(GuardImpl::IfTree, base, 8, Access::Write)
                    .ok,
                "{p} can reach the shared block"
            );
        }
    }

    #[test]
    fn stale_pid_surfaces_typed_errors_not_panics() {
        let (mut k, p0, p1, _, _) = boot_two_procs();
        k.proc_switch(p0, false).expect("live pid");
        assert!(k.proc_kill(p1));
        assert_eq!(
            k.proc_switch(p1, false),
            Err(KernelError::StaleTenant { pid: p1 })
        );
        let id = k.shared_create(4096).expect("frames available");
        assert_eq!(
            k.shared_map(p1, id),
            Err(KernelError::StaleTenant { pid: p1 })
        );
        assert!(
            k.procs.shared(id).expect("live id").owners.is_empty(),
            "failed map did not half-register an owner"
        );
    }

    /// The pages a region list grants, with their permissions — a model
    /// of "what may this process touch" that shares no code with `remap`.
    fn pages_of(regions: &[Region], page: u64) -> BTreeMap<u64, Perms> {
        let mut pages = BTreeMap::new();
        for r in regions {
            for p in r.start / page..r.end().div_ceil(page) {
                pages.insert(p, r.perms);
            }
        }
        pages
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The address-space invariant under random process-API traffic:
        /// after every step the current pid's entry holds a default space
        /// and the kernel has its regions installed, every other live
        /// pid's parked regions equal a plain page-map model, and a kill
        /// returns exactly the frames the victim's space had been charged.
        #[test]
        fn address_space_invariant_holds_under_process_api_traffic(
            ops in proptest::collection::vec((0u8..8, 0usize..8, 0u64..8), 1..40),
        ) {
            let mut k = SimKernel::new(64 * 1024 * 1024);
            let page = k.cost.page_size;
            let cfg = LoadConfig { stack_size: 64 * 1024, heap_size: 256 * 1024, page_size: page };
            // pid -> (pages it may touch, buddy pages charged to its space).
            let mut model: Vec<(Pid, BTreeMap<u64, Perms>, u64)> = Vec::new();
            let mut shared: Vec<SharedId> = Vec::new();
            for (op, a, b) in ops {
                let free_before = k.buddy.pages_free();
                let pick = |model: &[(Pid, BTreeMap<u64, Perms>, u64)]| {
                    (!model.is_empty()).then(|| a % model.len())
                };
                match (op, pick(&model)) {
                    (0, _) if model.len() < 5 => {
                        k.proc_park();
                        let mut table = AllocationTable::new();
                        let img = k.load_unsigned(module_with_global(), &mut table, cfg).expect("loads");
                        let pid = k.register_proc("t", &img).expect("admitted");
                        k.procs.checkin_table(pid, table);
                        let charged = free_before - k.buddy.pages_free();
                        model.push((pid, pages_of(&[img.capsule_region()], page), charged));
                    }
                    (1 | 2, Some(i)) => {
                        k.proc_switch(model[i].0, op == 2).expect("live pid");
                    }
                    (3, _) => k.proc_park(),
                    (4, Some(i)) => {
                        let (pid, _, charged) = model.remove(i);
                        prop_assert!(k.proc_kill(pid));
                        prop_assert_eq!(k.buddy.pages_free(), free_before + charged);
                        prop_assert!(k.procs.get(pid).is_none());
                    }
                    (5, Some(i)) => {
                        k.proc_reserve_pool(model[i].0, 1 + b).expect("frames available");
                        model[i].2 += free_before - k.buddy.pages_free();
                    }
                    (6, Some(i)) => {
                        if shared.len() < 3 {
                            shared.push(k.shared_create(page * (1 + b % 2)).expect("frames available"));
                        } else {
                            let id = shared[b as usize % shared.len()];
                            k.shared_map(model[i].0, id).expect("live pid, live id");
                            let s = k.procs.shared(id).expect("live id");
                            for p in s.base / page..(s.base + s.len) / page {
                                model[i].1.insert(p, Perms::RW);
                            }
                        }
                    }
                    (7, _) if !shared.is_empty() => {
                        let id = shared[b as usize % shared.len()];
                        let owners = k.procs.shared(id).expect("live id").owners.clone();
                        let moved = k.move_shared(id, &mut [], 1).expect("frames available");
                        let out = &moved.moves[0];
                        // The destination block is charged to whoever is
                        // installed (nobody, when no process is).
                        let charged = free_before - k.buddy.pages_free();
                        if let Some(cur) = k.procs.current() {
                            model.iter_mut().find(|m| m.0 == cur).expect("current is live").2 += charged;
                        }
                        for m in model.iter_mut().filter(|m| owners.contains(&m.0)) {
                            for p in 0..out.moved_len / page {
                                m.1.remove(&(out.moved_src / page + p));
                            }
                            for p in 0..out.moved_len / page {
                                m.1.insert(out.moved_dst / page + p, Perms::RW);
                            }
                        }
                    }
                    _ => {}
                }
                let current = k.procs.current();
                for (pid, pages, _) in &model {
                    let e = k.procs.get(*pid).expect("model pids are live");
                    let parked = &e.space;
                    if current == Some(*pid) {
                        prop_assert!(
                            parked.regions.is_empty()
                                && parked.pagetable.mapped == 0
                                && parked.vacated.is_empty()
                                && parked.owned_blocks.is_empty(),
                            "{pid} is installed yet its entry still holds state"
                        );
                        prop_assert_eq!(&pages_of(k.space.regions.regions(), page), pages);
                    } else {
                        prop_assert_eq!(&pages_of(parked.regions.regions(), page), pages);
                    }
                }
                if current.is_none() {
                    prop_assert!(k.space.regions.is_empty(), "nothing installed, yet regions are");
                }
            }
        }
    }
}
