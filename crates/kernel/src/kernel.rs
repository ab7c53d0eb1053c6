//! The simulated kernel: physical memory management, region policy, the
//! paging baseline, and the CARAT move/protection orchestration (paper
//! §4.3 — the kernel module's role).

use crate::arena::{ArenaStats, CapsuleArena};
use crate::buddy::BuddyAllocator;
use crate::dev::{DeviceBay, DmaCompletion, DmaDir, DmaError, DmaRequest};
use crate::faults::{FaultPlan, FaultPoint, KernelError};
use crate::loader::{load_signed, load_unsigned, LoadConfig, LoadError, ProcessImage};
use crate::phys::PhysicalMemory;
use crate::proc::{Pid, ProcTable, SharedId};
use crate::space::AddressSpace;
use crate::trace::{PagingEvent, PagingTrace};
use carat_core::sign::{SignedModule, SigningKey};
use carat_ir::Module;
use carat_runtime::{
    check_unpinned, perform_move_batch_journaled, perform_shared_move_journaled, AllocationTable,
    CostModel, MemAccess, MoveInterrupted, MoveOutcome, MovePhase, MoveRequest, Perms, PinnedRange,
    WorldStop, WorldStopError,
};
use std::collections::HashMap;
use std::fmt;

/// Bounded retries for a move-destination allocation before surfacing
/// [`KernelError::OutOfFrames`] (each retry compacts vacated ranges and
/// charges cost-model backoff).
const MOVE_ALLOC_RETRIES: u32 = 3;

/// The simulated kernel.
#[derive(Debug)]
pub struct SimKernel {
    /// Physical memory.
    pub mem: PhysicalMemory,
    /// Page-frame allocator.
    pub buddy: BuddyAllocator,
    /// MMU-notifier-style trace (Table 2 counters).
    pub trace: PagingTrace,
    /// The installed process's address space (the solo machine's, when no
    /// process was ever registered): guard regions, baseline page table
    /// and the per-process allocators. A context switch moves it whole.
    pub space: AddressSpace,
    /// Machine cost model.
    pub cost: CostModel,
    /// Swapped-out ranges by slot id: the paper's non-canonical-address
    /// encoding of "this data is in swap" (§2.2).
    swap: HashMap<u64, SwapEntry>,
    /// Externalized tenant capsules: checksummed serialized
    /// `TenantState` images parked in the pooled, size-classed capsule
    /// arena backing the simulated swap device. The checksum is
    /// verified on read, so a corrupted image surfaces as a typed
    /// (recoverable) error instead of a poisoned rehydrate. Slot ids
    /// are generation-tagged, so a killed tenant's stale id can never
    /// alias its successor's capsule.
    capsules: CapsuleArena,
    /// Last page passed to [`SimKernel::demand_touch`] — a one-entry
    /// cache shortcutting the per-access touched-set probe.
    last_touched_page: u64,
    trusted: Vec<SigningKey>,
    /// Injected fault schedule. `None` (the default) also disables the
    /// patch journal, so the fault-free fast path pays nothing.
    faults: Option<FaultPlan>,
    /// Move-destination allocations that succeeded only after compaction
    /// and retry (OOM recoveries).
    pub oom_recoveries: u64,
    /// The process table (multi-tenant operation; empty for the classic
    /// single-process flows, which never register).
    pub procs: ProcTable,
    /// Simulated devices (timer + DMA engine). Travels with the kernel
    /// when it is lent to a VM for a slice.
    pub dev: DeviceBay,
    /// Pinned DMA ranges. Deliberately **global** (not parked per
    /// process on context switch): a pin is a property of physical
    /// memory that every device and every mover must see regardless of
    /// which process is scheduled. Per-tenant ownership is recorded in
    /// each range for kill-time reaping; address spaces are disjoint, so
    /// a mover only ever collides with the current process's own pins.
    pins: Vec<PinnedRange>,
    /// Lifetime pin accounting (fragmentation cost of pinned holes).
    pin_stats: PinStats,
}

/// Kernel-wide pin accounting: how often pinning happened and how much
/// compaction freedom it cost (moves and page-outs refused because the
/// victim range was pinned — the "pinned hole" fragmentation the paper's
/// model trades for free pins).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinStats {
    /// Successful `pin_region` calls.
    pub pins: u64,
    /// Successful `unpin_region` calls.
    pub unpins: u64,
    /// Pins reaped at tenant kill (leaked by the tenant, reclaimed by
    /// the supervisor path).
    pub reaped: u64,
    /// Moves/page-outs refused with [`MoveError::Pinned`].
    pub denied_moves: u64,
    /// Bytes those refused operations wanted to relocate.
    pub denied_bytes: u64,
    /// High-water mark of simultaneously pinned bytes.
    pub peak_pinned_bytes: u64,
}

/// Why a pin or unpin request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinError {
    /// Zero-length pins are malformed.
    ZeroLen,
    /// The range lies in the poison (swapped-out) address space; there
    /// is no physical memory there to pin. Page it in first.
    Swapped {
        /// The offending address.
        addr: u64,
    },
    /// The range overlaps an existing pin.
    AlreadyPinned {
        /// Existing pin's start.
        start: u64,
        /// Existing pin's length.
        len: u64,
    },
    /// No pin matches the range to unpin (must match exactly).
    NotPinned {
        /// Requested start.
        start: u64,
        /// Requested length.
        len: u64,
    },
    /// `pin_region_for` named a pid whose slot was retired or recycled.
    StaleTenant {
        /// The stale pid.
        pid: Pid,
    },
    /// The tenant holds pinned DMA bytes, so an operation that would
    /// relocate or deschedule its memory wholesale (capsule
    /// externalization) was refused. Unpin first, or let kill-time
    /// reaping release the pins.
    PinnedTenant {
        /// The refusing tenant.
        pid: Pid,
        /// Pinned bytes it holds.
        bytes: u64,
    },
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::ZeroLen => write!(f, "zero-length pin"),
            PinError::Swapped { addr } => {
                write!(f, "cannot pin swapped-out (poison) address {addr:#x}")
            }
            PinError::AlreadyPinned { start, len } => {
                write!(f, "range overlaps existing pin [{start:#x}, +{len:#x})")
            }
            PinError::NotPinned { start, len } => {
                write!(f, "no pin matches [{start:#x}, +{len:#x})")
            }
            PinError::StaleTenant { pid } => write!(f, "stale tenant pid: {pid}"),
            PinError::PinnedTenant { pid, bytes } => {
                write!(f, "tenant {pid} holds {bytes} pinned DMA bytes")
            }
        }
    }
}

impl std::error::Error for PinError {}

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

/// One swapped-out range.
#[derive(Debug, Clone)]
struct SwapEntry {
    len: u64,
    data: Vec<u8>,
}

/// FNV-1a 64-bit hash over `data` — the capsule checksum.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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
    let rel = addr - POISON_BASE;
    (rel / POISON_SLOT_SPAN, (rel % POISON_SLOT_SPAN) as usize)
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

/// Base of the non-canonical ("poison") address space used to mark
/// swapped-out data. Any address at or above this cannot be a physical
/// address in the simulated machine; a guard that sees one faults to the
/// kernel, which brings the data back in.
pub const POISON_BASE: u64 = 0xFFFF_8000_0000_0000;
/// Poison address span reserved per swap slot.
pub const POISON_SLOT_SPAN: u64 = 1 << 24;

impl SimKernel {
    /// Boot a kernel over `mem_size` bytes of physical memory. The first
    /// 64 KiB are reserved (null-page trap + kernel image stand-in).
    pub fn new(mem_size: u64) -> SimKernel {
        let cost = CostModel::default();
        let page = cost.page_size;
        let reserved = 64 * 1024;
        let pages = (mem_size - reserved) / page;
        SimKernel {
            mem: PhysicalMemory::new(mem_size),
            buddy: BuddyAllocator::new(reserved, pages, page),
            trace: PagingTrace::new(4096),
            space: AddressSpace::default(),
            cost,
            swap: HashMap::new(),
            capsules: CapsuleArena::new(),
            last_touched_page: u64::MAX,
            trusted: Vec::new(),
            faults: None,
            oom_recoveries: 0,
            procs: ProcTable::new(),
            dev: DeviceBay::new(),
            pins: Vec::new(),
            pin_stats: PinStats::default(),
        }
    }

    /// Install a fault-injection schedule. Also enables the patch journal
    /// for every subsequent move (crash consistency), even when the plan
    /// is empty — an empty plan is how the journal's zero-fault overhead
    /// is measured.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any (for inspecting fired faults).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Record an occurrence of `point` against the installed plan and
    /// report whether an armed fault fires. No plan → never fires.
    fn fire(&mut self, point: FaultPoint) -> bool {
        self.faults.as_mut().is_some_and(|p| p.should_fire(point))
    }

    /// Public face of the injection hook, for layers that own their own
    /// fault handling (e.g. the VM's tenant-OOM probe): record an
    /// occurrence of `point` and report whether an armed fault fires.
    pub fn poll_fault(&mut self, point: FaultPoint) -> bool {
        self.fire(point)
    }

    /// Whether `addr` encodes swapped-out data.
    pub fn is_poison(addr: u64) -> bool {
        addr >= POISON_BASE
    }

    /// Number of ranges currently in swap.
    pub fn swapped_ranges(&self) -> usize {
        self.swap.len()
    }

    /// Whether swap slot `slot` is live.
    pub fn has_swap_slot(&self, slot: u64) -> bool {
        self.swap.contains_key(&slot)
    }

    /// Test hook: corrupt swap slot `slot` by truncating its stored
    /// image, as a disk error would. Returns whether the slot existed.
    #[cfg(test)]
    fn debug_corrupt_swap_slot(&mut self, slot: u64) -> bool {
        match self.swap.get_mut(&slot) {
            Some(e) => {
                e.data.truncate(e.data.len() / 2);
                true
            }
            None => false,
        }
    }

    /// Integrity scan of the swap store: slots whose stored image does not
    /// match its recorded length (corruption). Empty means healthy.
    pub fn corrupt_swap_slots(&self) -> Vec<u64> {
        let mut bad: Vec<u64> = self
            .swap
            .iter()
            .filter(|(_, e)| e.data.len() as u64 != e.len || e.len == 0)
            .map(|(&s, _)| s)
            .collect();
        bad.sort_unstable();
        bad
    }

    /// Park a serialized tenant capsule in the simulated swap device.
    /// The checksum is taken here, over exactly the bytes stored; a later
    /// [`SimKernel::capsule_read_into`] verifies it before handing the image
    /// back. The bytes land in a pooled arena slot (reusing a freed
    /// buffer of the same size class when one exists) and the
    /// generation-tagged slot id is returned. The caller keeps ownership
    /// of `data` — steady-state externalization churn with a pooled
    /// scratch buffer performs zero host allocations.
    ///
    /// # Errors
    ///
    /// [`KernelError::CapsuleWriteFailed`] when the injected
    /// [`FaultPoint::CapsuleWrite`] fires — the write never happened, no
    /// slot id is consumed, and the tenant stays resident.
    pub fn capsule_write_from(&mut self, data: &[u8]) -> Result<u64, KernelError> {
        if self.fire(FaultPoint::CapsuleWrite) {
            return Err(KernelError::CapsuleWriteFailed {
                len: data.len() as u64,
            });
        }
        let checksum = fnv1a(data);
        Ok(self.capsules.store(data, checksum))
    }

    /// Take capsule `slot` back out of the swap device into `out`
    /// (cleared first; its capacity is reused), verifying the checksum.
    /// The arena slot is consumed either way: a rehydrate is a move,
    /// not a copy, and a corrupted image is useless — the caller's only
    /// recovery is respawn-from-image, so holding the bytes would only
    /// leak them.
    ///
    /// # Errors
    ///
    /// [`KernelError::CapsuleMissing`] when `slot` was never written or
    /// already consumed; [`KernelError::CapsuleCorrupt`] when the stored
    /// image fails its checksum (disk corruption, or the injected
    /// [`FaultPoint::CapsuleCorrupt`] flipping a byte).
    pub fn capsule_read_into(&mut self, slot: u64, out: &mut Vec<u8>) -> Result<(), KernelError> {
        let Some(mut checksum) = self.capsules.read_consume(slot, out) else {
            return Err(KernelError::CapsuleMissing { slot });
        };
        if self.fire(FaultPoint::CapsuleCorrupt) {
            let mid = out.len() / 2;
            match out.get_mut(mid) {
                Some(b) => *b ^= 0xFF,
                // An empty image has no byte to flip; corrupt the
                // recorded checksum instead.
                None => checksum ^= 1,
            }
        }
        if fnv1a(out) != checksum {
            return Err(KernelError::CapsuleCorrupt { slot });
        }
        Ok(())
    }

    /// Reap capsule `slot` without reading it (its tenant was killed);
    /// the slot's buffer returns to the arena pool. Returns whether the
    /// slot was live.
    pub fn capsule_free(&mut self, slot: u64) -> bool {
        self.capsules.free(slot, true)
    }

    /// Number of capsules currently parked in the swap device.
    pub fn capsule_count(&self) -> usize {
        self.capsules.count()
    }

    /// Total bytes of parked capsule images.
    pub fn capsule_bytes(&self) -> u64 {
        self.capsules.bytes()
    }

    /// Pool accounting for the capsule arena: live/pooled bytes,
    /// high-water marks, and alloc/reuse/reap counters.
    pub fn arena_stats(&self) -> ArenaStats {
        self.capsules.stats()
    }

    /// Test hook: corrupt capsule `slot` by flipping a stored byte, as a
    /// disk error would. Returns whether the slot existed.
    pub fn debug_corrupt_capsule(&mut self, slot: u64) -> bool {
        self.capsules.corrupt(slot)
    }

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

    /// Drive the front half of a world-stop episode (signal, handler
    /// entry, first barrier, negotiation, patch computation), injecting
    /// thread stalls when armed.
    ///
    /// # Errors
    ///
    /// [`KernelError::WorldStop`] on a stall or ordering violation; the
    /// episode is aborted (threads released, machine idle) first.
    fn begin_stop(&mut self, threads: usize) -> Result<WorldStop, KernelError> {
        let mut world = WorldStop::new(threads);
        let mut front_half = || {
            world.signal_all(&self.cost)?;
            for entered in 0..threads {
                if self.fire(FaultPoint::WorldStopStall) {
                    return Err(KernelError::WorldStop(WorldStopError::Stalled {
                        entered,
                        threads,
                    }));
                }
                world.thread_entered()?;
            }
            world.barrier1(&self.cost)?;
            world.negotiated()?;
            world.patches_computed()?;
            Ok(())
        };
        if let Err(e) = front_half() {
            world.abort(&self.cost);
            return Err(e);
        }
        Ok(world)
    }

    /// Drive the back half of a world-stop episode (patched, moved,
    /// second barrier, completion).
    fn finish_stop(world: &mut WorldStop, cost: &CostModel) -> Result<(), KernelError> {
        world.patched()?;
        world.moved()?;
        world.barrier2(cost)?;
        world.complete()?;
        Ok(())
    }

    /// Run one runtime move transaction inside the stopped `world` — the
    /// single carrier for every mover, paging included. `run` picks the
    /// runtime adapter and is handed `reqs` back, the swap-aware memory
    /// view, the cost model, and (when a fault plan is installed) the
    /// interrupt hook: the MidMove fault point is consulted between the
    /// patch and copy phases, and when it fires the journal restores a
    /// byte-identical pre-move state.
    ///
    /// `dst` is the single destination a one-request mover allocated for
    /// this episode, if any: a failed transaction aborts the stop and
    /// hands the destination back, a successful one records a fresh buddy
    /// block as owned by the current process. (The batch planner passes
    /// `None`: its destinations interleave with pre-published sources, so
    /// it releases and commits them itself.)
    fn journaled<T>(
        &mut self,
        world: &mut WorldStop,
        reqs: &[MoveRequest],
        dst: Option<DstAlloc>,
        run: impl FnOnce(
            &[MoveRequest],
            &mut dyn MemAccess,
            &CostModel,
            Option<&mut dyn FnMut(MovePhase) -> bool>,
        ) -> Result<T, MoveInterrupted>,
    ) -> Result<T, KernelError> {
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
            let journal_on = plan.is_some();
            let mut hook = |phase: MovePhase| {
                phase == MovePhase::Patched
                    && plan
                        .as_mut()
                        .is_some_and(|p| p.should_fire(FaultPoint::MidMove))
            };
            let mut routed = SwapAwareMem {
                mem: &mut self.mem,
                swap: &mut self.swap,
            };
            let res = run(
                reqs,
                &mut routed,
                &self.cost,
                if journal_on { Some(&mut hook) } else { None },
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
        if moved.is_err() {
            world.abort(&self.cost);
        }
        match dst {
            Some(dst) if moved.is_ok() => self.space.commit_dst_block(&dst),
            Some(dst) => self.space.release_move_dst(&mut self.buddy, dst),
            None => {}
        }
        moved
    }

    /// Register a toolchain key the kernel trusts.
    pub fn trust(&mut self, key: SigningKey) {
        self.trusted.push(key);
    }

    /// Load a signed CARAT binary; installs the capsule region set and
    /// counts the initial page allocations.
    ///
    /// # Errors
    ///
    /// See [`LoadError`].
    pub fn load(
        &mut self,
        signed: &SignedModule,
        table: &mut AllocationTable,
        cfg: LoadConfig,
    ) -> Result<ProcessImage, LoadError> {
        // Injected in-flight corruption: flip a signature bit so the
        // verification path must catch and reject the image.
        let corrupted;
        let signed = if self.fire(FaultPoint::SignatureCorrupt) {
            let mut c = signed.clone();
            c.signature[0] ^= 0x01;
            corrupted = c;
            &corrupted
        } else {
            signed
        };
        let img = load_signed(
            signed,
            &self.trusted,
            &mut self.mem,
            &mut self.buddy,
            table,
            cfg,
        )?;
        self.install_image(&img);
        Ok(img)
    }

    /// Load an unsigned module (baseline mode and tests).
    ///
    /// # Errors
    ///
    /// See [`LoadError`].
    pub fn load_unsigned(
        &mut self,
        module: Module,
        table: &mut AllocationTable,
        cfg: LoadConfig,
    ) -> Result<ProcessImage, LoadError> {
        let img = load_unsigned(module, &mut self.mem, &mut self.buddy, table, cfg)?;
        self.install_image(&img);
        Ok(img)
    }

    /// Load an unsigned module from a shared handle (fleet admission: one
    /// `Rc<Module>` feeds thousands of tenants without cloning IR) that a
    /// batch admission pass has already verified and measured — skips
    /// `verify_module` and the `print_module` length walk. `text_len`
    /// must be the module's `print_module` length, so the stamped image
    /// is bit-identical to [`SimKernel::load_unsigned`]'s.
    ///
    /// # Errors
    ///
    /// See [`LoadError`] (out-of-memory only on this path).
    pub fn load_shared_preverified(
        &mut self,
        module: std::rc::Rc<Module>,
        text_len: u64,
        table: &mut AllocationTable,
        cfg: LoadConfig,
    ) -> Result<ProcessImage, LoadError> {
        let img = crate::loader::load_shared_preverified(
            module,
            text_len,
            &mut self.mem,
            &mut self.buddy,
            table,
            cfg,
        )?;
        self.install_image(&img);
        Ok(img)
    }

    fn install_image(&mut self, img: &ProcessImage) {
        self.space.regions.set_regions(vec![img.capsule_region()]);
        // Initial pages (stack+data+code) are allocations at load time.
        let page = self.cost.page_size;
        for i in 0..img.initial_pages {
            self.trace.record_first_touch(img.stack.0 / page + i);
        }
    }

    /// Demand-allocate the page containing `addr` (CARAT mode: pure
    /// bookkeeping; the capsule already covers the arena). Returns whether
    /// this was a fresh page.
    pub fn demand_touch(&mut self, addr: u64) -> bool {
        let page = self.cost.page_of(addr);
        // Fast path for the VM's per-access call: the touched set only
        // grows, so a hit on the last touched page can never go stale.
        if page == self.last_touched_page {
            return false;
        }
        self.last_touched_page = page;
        self.trace.record_first_touch(page)
    }

    /// Change protections on a region of the process (paper: "a region
    /// change is a modification of a region entry"). `start..start+len`
    /// must already lie within the capsule.
    pub fn change_protection(&mut self, start: u64, len: u64, perms: Perms) {
        self.space.remap(&[], &[(start, len, perms)]);
        self.trace.record(PagingEvent::Invalidate {
            first: start / self.cost.page_size,
            count: len.div_ceil(self.cost.page_size),
        });
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
        let mut victims: Vec<(usize, u64)> = table
            .snapshot()
            .into_iter()
            // Swapped-out (poison-resident) allocations cannot be moved,
            // and pinned DMA targets must not be: plan around both.
            .filter(|&(start, len, _, _)| {
                !Self::is_poison(start) && check_unpinned(start, len, &self.pins).is_ok()
            })
            .map(|(start, _, escapes_live, _)| (escapes_live, start))
            .collect();
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

    // ------------------------------------------------------------------
    // DMA pinning
    // ------------------------------------------------------------------

    /// Pin `[start, start+len)` for DMA on behalf of the currently
    /// scheduled process (kernel-owned when none is). Pinned memory is
    /// invisible to victim selection and refused by every mover until
    /// unpinned — the CARAT trade: the pin itself is O(1) (no page-table
    /// walk, physical addresses are already stable), but the pinned hole
    /// costs compaction freedom, accounted in [`SimKernel::pin_stats`].
    pub fn pin_region(&mut self, start: u64, len: u64) -> Result<(), PinError> {
        let owner = self.procs.current();
        self.pin_with_owner(owner, start, len)
    }

    /// Pin on behalf of `pid` (which need not be scheduled): the pin is
    /// reaped if that tenant is killed, and its accounting lands in that
    /// tenant's [`crate::ProcAccounting`].
    pub fn pin_region_for(&mut self, pid: Pid, start: u64, len: u64) -> Result<(), PinError> {
        if self.procs.get(pid).is_none() {
            return Err(PinError::StaleTenant { pid });
        }
        self.pin_with_owner(Some(pid), start, len)
    }

    fn pin_with_owner(&mut self, owner: Option<Pid>, start: u64, len: u64) -> Result<(), PinError> {
        if len == 0 {
            return Err(PinError::ZeroLen);
        }
        if Self::is_poison(start) {
            return Err(PinError::Swapped { addr: start });
        }
        if let Some(p) = self.pins.iter().find(|p| p.overlaps(start, len)) {
            return Err(PinError::AlreadyPinned {
                start: p.start,
                len: p.len,
            });
        }
        self.pins.push(PinnedRange {
            start,
            len,
            owner: owner.map(|p| p.index()),
        });
        self.pin_stats.pins += 1;
        let now = self.pinned_bytes();
        self.pin_stats.peak_pinned_bytes = self.pin_stats.peak_pinned_bytes.max(now);
        if let Some(pid) = owner {
            if let Some(e) = self.procs.get_mut(pid) {
                e.accounting.pins += 1;
                e.accounting.pinned_bytes += len;
            }
        }
        Ok(())
    }

    /// Unpin an exact previously pinned range. Partial unpins are
    /// rejected: a device owns the whole buffer or none of it.
    pub fn unpin_region(&mut self, start: u64, len: u64) -> Result<(), PinError> {
        let Some(idx) = self
            .pins
            .iter()
            .position(|p| p.start == start && p.len == len)
        else {
            return Err(PinError::NotPinned { start, len });
        };
        let pin = self.pins.swap_remove(idx);
        self.pin_stats.unpins += 1;
        if let Some(owner) = pin.owner {
            let owner_pid = self.procs.pid_at(owner);
            if let Some(e) = owner_pid.and_then(|p| self.procs.get_mut(p)) {
                e.accounting.unpins += 1;
                e.accounting.pinned_bytes = e.accounting.pinned_bytes.saturating_sub(len);
            }
        }
        Ok(())
    }

    /// The pin overlapping `[start, start+len)`, if any, as
    /// `(pin_start, pin_len)`.
    pub fn pinned_overlap(&self, start: u64, len: u64) -> Option<(u64, u64)> {
        self.pins
            .iter()
            .find(|p| p.overlaps(start, len))
            .map(|p| (p.start, p.len))
    }

    /// The live pin list (movers and tests inspect it; mutation goes
    /// through pin/unpin so accounting stays consistent).
    pub fn pins(&self) -> &[PinnedRange] {
        &self.pins
    }

    /// Total bytes currently pinned.
    pub fn pinned_bytes(&self) -> u64 {
        self.pins.iter().map(|p| p.len).sum()
    }

    /// Bytes currently pinned by `pid`.
    pub fn pinned_bytes_of(&self, pid: Pid) -> u64 {
        self.pins
            .iter()
            .filter(|p| p.owner == Some(pid.index()))
            .map(|p| p.len)
            .sum()
    }

    /// Lifetime pin accounting.
    pub fn pin_stats(&self) -> PinStats {
        self.pin_stats
    }

    /// Record a mover refusal against the pin ledger (fragmentation
    /// cost of the pinned hole).
    pub(super) fn note_denied_move(&mut self, len: u64) {
        self.pin_stats.denied_moves += 1;
        self.pin_stats.denied_bytes += len;
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

    // ------------------------------------------------------------------
    // DMA service
    // ------------------------------------------------------------------

    /// Service up to `max` pending DMA descriptors: validate each target
    /// against the pin registry (a transfer into unpinned memory is
    /// refused — the device will not race the move engine), perform the
    /// copy, and push a completion. Returns the completions produced by
    /// this call (they are also queued on the response ring).
    pub fn dma_service(&mut self, max: usize) -> Vec<DmaCompletion> {
        let mut done = Vec::with_capacity(max.min(8));
        for _ in 0..max {
            let Some(req) = self.dev.dma.pop_request() else {
                break;
            };
            let c = self.dma_execute(req);
            self.dev.dma.push_completion(c);
            done.push(c);
        }
        done
    }

    fn dma_execute(&mut self, req: DmaRequest) -> DmaCompletion {
        let fail = |err| DmaCompletion {
            id: req.id,
            err: Some(err),
            cycles: 0,
            checksum: 0,
        };
        if req.len == 0 {
            return fail(DmaError::ZeroLen);
        }
        if self.fire(FaultPoint::DmaService) {
            return fail(DmaError::DeviceFault);
        }
        if Self::is_poison(req.addr) {
            return fail(DmaError::Swapped { addr: req.addr });
        }
        let covered = self
            .pins
            .iter()
            .any(|p| p.start <= req.addr && req.addr + req.len <= p.start + p.len);
        if !covered {
            return fail(DmaError::NotPinned {
                addr: req.addr,
                len: req.len,
            });
        }
        let cycles = self.cost.dma_cost(req.len);
        let checksum = match req.dir {
            DmaDir::DeviceToMem => {
                // Deterministic device payload: a xorshift64* stream
                // seeded by the descriptor, so replays are bit-identical
                // and workloads can verify what "the wire" delivered.
                let mut x = req
                    .id
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(req.addr | 1);
                let mut buf = vec![0u8; req.len as usize];
                for chunk in buf.chunks_mut(8) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let b = x.to_le_bytes();
                    chunk.copy_from_slice(&b[..chunk.len()]);
                }
                self.mem.write_bytes(req.addr, &buf);
                self.dev.dma.account_bytes(DmaDir::DeviceToMem, req.len);
                fnv1a(&buf)
            }
            DmaDir::MemToDevice => {
                let data = self.mem.read_bytes(req.addr, req.len).to_vec();
                self.dev.dma.account_bytes(DmaDir::MemToDevice, req.len);
                fnv1a(&data)
            }
        };
        DmaCompletion {
            id: req.id,
            err: None,
            cycles,
            checksum,
        }
    }

    /// Execute a full CARAT page movement: world stop, negotiation,
    /// patching (escapes + registers), data copy, region update, resume.
    /// Returns the protocol record and the move outcome.
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
    /// protocol stalls (the episode is aborted and threads released);
    /// [`KernelError::MoveInterrupted`] when the move was interrupted
    /// between patch and copy (the patch journal has rolled back).
    pub fn move_pages(
        &mut self,
        table: &mut AllocationTable,
        regs: &mut [u64],
        src: u64,
        pages: u64,
        threads: usize,
    ) -> Result<(WorldStop, MoveOutcome), KernelError> {
        self.move_pages_batch(table, regs, &[(src, pages)], threads)
            .and_then(|(world, mut outs)| {
                let out = outs.pop().ok_or(KernelError::MoveInterrupted {
                    src,
                    len: pages * self.cost.page_size,
                    dst: 0,
                })?;
                Ok((world, out))
            })
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

        let mut world = match self.begin_stop(threads) {
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
        let moved = self.journaled(&mut world, &reqs, None, |reqs, mem, cost, hook| {
            perform_move_batch_journaled(table, mem, regs, reqs, cost, 1, hook)
        });
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
        Self::finish_stop(&mut world, &self.cost)?;

        // Region maintenance: each moved range leaves the capsule and its
        // destination becomes accessible. The vacated frames were already
        // published during destination allocation above. One region
        // rebuild covers the whole batch.
        for outcome in &outcomes {
            for p in 0..outcome.moved_len / page {
                self.trace.record(PagingEvent::Move {
                    from: outcome.moved_src / page + p,
                    to: outcome.moved_dst / page + p,
                });
            }
        }
        let (srcs, dsts): (Vec<_>, Vec<_>) = outcomes
            .iter()
            .map(|o| {
                (
                    (o.moved_src, o.moved_len),
                    (o.moved_dst, o.moved_len, Perms::RW),
                )
            })
            .unzip();
        self.space.remap(&srcs, &dsts);
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
    /// Paging passes **no interrupt hook** to the transaction (page-in
    /// likewise), so it keeps no journal and consults no
    /// [`FaultPoint::MidMove`]: that point fires on its N-th dynamic
    /// occurrence, so counting page-outs would renumber every seeded fault
    /// schedule and move the modeled numbers. Handing `hook` through
    /// instead of `None` is all it takes to make paging crash-consistent.
    ///
    /// # Errors
    ///
    /// [`KernelError::WorldStop`] when the stop protocol stalls before
    /// any state was touched (the episode is aborted, the slot id is not
    /// consumed, and no data has been patched or copied).
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
        let mut world = self.begin_stop(threads)?;
        self.space.swap_slots.commit(slot);

        // Escape cells may themselves live in other swapped ranges; the
        // router reaches them.
        let req = MoveRequest {
            src,
            len,
            dst: POISON_BASE + slot * POISON_SLOT_SPAN,
        };
        self.journaled(&mut world, &[req], None, |reqs, mem, cost, _hook| {
            perform_move_batch_journaled(table, mem, regs, reqs, cost, 1, None)
        })?;
        self.space.vacated.push((src, len));
        self.space.remap(&[(src, len)], &[]);
        self.trace.record(PagingEvent::Invalidate {
            first: src / pg,
            count: len / pg,
        });

        Self::finish_stop(&mut world, &self.cost)?;
        Ok(Some((world, slot, src, len)))
    }

    /// Service a fault on a poison address: bring the slot's data back
    /// into fresh frames, patch every poisoned pointer to the new
    /// location, and restore the region. Returns the new base address of
    /// the range, or `Ok(None)` when `poison_addr` does not name a live
    /// swap slot.
    ///
    /// # Errors
    ///
    /// [`KernelError::SwapReadFailed`] when the swap store cannot produce
    /// the slot (injected read failure or corrupted entry);
    /// [`KernelError::OutOfFrames`] when no destination frames exist;
    /// [`KernelError::WorldStop`] on a stop-protocol stall. In every
    /// case the swap entry is preserved so the fault can be retried —
    /// the data is never dropped on a failed page-in.
    pub fn page_in(
        &mut self,
        table: &mut AllocationTable,
        regs: &mut [u64],
        poison_addr: u64,
        threads: usize,
    ) -> Result<Option<(WorldStop, u64)>, KernelError> {
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
            .begin_stop(threads)
            .inspect_err(|_| self.space.release_move_dst(&mut self.buddy, dst))?;
        world.cycles += backoff;
        if self.swap.get(&slot).map(|e| e.data.len() as u64) != Some(len) {
            // Corrupted (or vanished) entry: keep what is there for
            // post-mortem, release everything else, surface a typed error.
            world.abort(&self.cost);
            self.space.release_move_dst(&mut self.buddy, dst);
            return Err(KernelError::SwapReadFailed { slot });
        }
        // Paging in is a move out of the slot's poison window. Cells that
        // live inside this slot are patched through the router while the
        // entry still holds them, then travel with the copy.
        let req = MoveRequest {
            src: POISON_BASE + slot * POISON_SLOT_SPAN,
            len,
            dst: dst.addr,
        };
        self.journaled(&mut world, &[req], Some(dst), |reqs, mem, cost, _hook| {
            perform_move_batch_journaled(table, mem, regs, reqs, cost, 1, None)
        })?;
        self.swap.remove(&slot);
        self.space.remap(&[], &[(dst.addr, len, Perms::RW)]);
        let pg = self.cost.page_size;
        for p in 0..len / pg {
            self.trace.record(PagingEvent::Alloc {
                page: dst.addr / pg + p,
            });
        }
        self.space.swap_slots.release(slot);

        Self::finish_stop(&mut world, &self.cost)?;
        Ok(Some((world, dst.addr)))
    }

    /// Seamless stack expansion (paper §2.2: "a failed guard involving the
    /// stack causes the kernel to be invoked; this provides a mechanism by
    /// which the kernel can implement seamless stack expansion").
    ///
    /// The stack is an ordinary tracked allocation, so the kernel grows it
    /// by *moving* it: allocate a block twice the size, relocate the live
    /// stack contents to its top (patching escapes and registers via the
    /// normal move engine), extend the allocation downward, and install
    /// the new region. Returns the move outcome, or `Ok(None)` when the
    /// stack already reached `max_stack` bytes.
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
        img: &mut ProcessImage,
        threads: usize,
        max_stack: u64,
    ) -> Result<Option<(WorldStop, MoveOutcome)>, KernelError> {
        let (old_start, old_len) = img.stack;
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
            .begin_stop(threads)
            .inspect_err(|_| self.space.release_move_dst(&mut self.buddy, dst))?;
        world.cycles += backoff;
        let req = MoveRequest {
            src: old_start,
            len: old_len,
            dst: data_dst,
        };
        // One table, one request: the shared mover's shape with a single
        // owner, which hands back the one outcome directly.
        let outcome = self.journaled(&mut world, &[req], Some(dst), |reqs, mem, cost, hook| {
            perform_shared_move_journaled(&mut [table], mem, regs, reqs[0], cost, hook)
        })?;
        Self::finish_stop(&mut world, &self.cost)?;

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
        self.trace.record(PagingEvent::Move {
            from: old_start / self.cost.page_size,
            to: data_dst / self.cost.page_size,
        });

        img.stack = (dst_block, new_len);
        Ok(Some((world, outcome)))
    }

    /// Update a process image's global bindings after a move (the kernel
    /// patches the code image's address constants).
    pub fn patch_globals(img: &mut ProcessImage, outcome: &MoveOutcome) {
        let (lo, hi) = (outcome.moved_src, outcome.moved_src + outcome.moved_len);
        let delta = outcome.moved_dst.wrapping_sub(outcome.moved_src);
        for g in &mut img.globals {
            if *g >= lo && *g < hi {
                *g = g.wrapping_add(delta);
            }
        }
    }

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
    /// [`AdmissionError`] when the tenant quotas refuse the capsule. The
    /// refused tenant's capsule frames are released again — admission
    /// failure leaves the kernel exactly as it was before the load.
    pub fn register_proc(
        &mut self,
        name: &str,
        image: ProcessImage,
    ) -> Result<Pid, crate::proc::AdmissionError> {
        let space = std::mem::take(&mut self.space);
        let capsule_base = image.stack.0;
        match self.procs.spawn_in(name.to_string(), image, space, None) {
            Ok(pid) => Ok(pid),
            Err(e) => {
                // Roll the load back: the capsule is one contiguous buddy
                // block based at the stack bottom.
                let _ = self.buddy.free_pages(capsule_base);
                Err(e)
            }
        }
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
        let _ = self.buddy.free_pages(entry.image.stack.0);
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
            space.adopt_block(base, len);
        }
        Ok(())
    }

    /// Context switch to process `to`: park the outgoing process's
    /// address space in its entry, install the incoming one's — two moves
    /// of one struct — and charge the mode-dependent cost to the incoming
    /// process's *kernel* accounting.
    ///
    /// CARAT pays [`CostModel::ctx_switch_carat`] — the fixed trap path
    /// plus a region-set install. There is no translation state, so
    /// nothing is flushed, and nothing is rebuilt: the incoming table
    /// carries its own generation, so a guard fast path filled before the
    /// deschedule is still valid unless the regions were edited since.
    /// Traditional pays
    /// [`CostModel::ctx_switch_traditional`] — the same fixed path plus a
    /// *modeled* TLB flush and amortized ASID-rollover refill. The flush
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
        // is big enough (fixed point, mirroring the patch engine).
        let pg = self.cost.page_size;
        let (mut xsrc, mut xlen) = (base, len);
        loop {
            let before = (xsrc, xlen);
            for &pid in &owners {
                if let Some(t) = self.procs.get(pid).and_then(|e| e.table.as_ref()) {
                    let (s, l) = carat_runtime::expand_to_allocations(t, xsrc, xlen, pg);
                    (xsrc, xlen) = (s, l);
                }
            }
            if (xsrc, xlen) == before {
                break;
            }
        }
        // Shared regions are the natural DMA-buffer vehicle, so this is
        // the mover most likely to meet a pin. Refuse before allocating.
        self.refuse_pinned(xsrc, xlen)?;
        let (dst, backoff) = self.alloc_move_dst(xlen)?;
        let mut world = self
            .begin_stop(threads)
            .inspect_err(|_| self.space.release_move_dst(&mut self.buddy, dst))?;
        // Check out every owner's table; a missing one (stale owner, or a
        // table still checked out to a running tenant) aborts the episode
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
                    world.abort(&self.cost);
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
            self.journaled(&mut world, &[req], Some(dst), |reqs, mem, cost, hook| {
                perform_shared_move_journaled(&mut refs, mem, regs, reqs[0], cost, hook)
            })
        };
        for (&p, t) in owners.iter().zip(tables) {
            self.procs.checkin_table(p, t);
        }
        let mut outcome = res?;
        outcome.cost.alloc_and_move += backoff;
        Self::finish_stop(&mut world, &self.cost)?;

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
        for p in 0..outcome.moved_len / pg {
            self.trace.record(PagingEvent::Move {
                from: outcome.moved_src / pg + p,
                to: outcome.moved_dst / pg + p,
            });
        }
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
    use super::*;
    use crate::pagetable::PageTable;
    use carat_ir::{GlobalInit, ModuleBuilder, Type};
    use carat_runtime::{Access, GuardImpl, Region};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    pub(super) fn module_with_global() -> Module {
        let mut mb = ModuleBuilder::new("prog");
        mb.global(
            "buf",
            Type::Array(Box::new(Type::I64), 16),
            GlobalInit::Zero,
        );
        let f = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let c = b.const_i64(0);
            b.ret(Some(c));
        }
        mb.finish()
    }

    pub(super) fn boot() -> (SimKernel, AllocationTable, ProcessImage) {
        let mut k = SimKernel::new(256 * 1024 * 1024);
        let mut table = AllocationTable::new();
        let img = k
            .load_unsigned(module_with_global(), &mut table, LoadConfig::default())
            .expect("loads");
        (k, table, img)
    }

    #[test]
    fn load_installs_capsule_and_counts_pages() {
        let (k, _, img) = boot();
        assert_eq!(k.space.regions.len(), 1);
        assert!(
            k.space
                .regions
                .check(GuardImpl::Mpx, img.globals[0], 8, Access::Write)
                .ok
        );
        assert_eq!(k.trace.allocs, img.initial_pages);
    }

    #[test]
    fn protection_change_splits_regions() {
        let (mut k, _, img) = boot();
        let g = img.globals[0];
        let page = k.cost.page_size;
        let page_start = g / page * page;
        k.change_protection(page_start, page, Perms::R);
        assert!(k.space.regions.len() >= 2, "capsule split around the page");
        assert!(
            k.space
                .regions
                .check(GuardImpl::IfTree, g, 8, Access::Read)
                .ok
        );
        assert!(
            !k.space
                .regions
                .check(GuardImpl::IfTree, g, 8, Access::Write)
                .ok,
            "write now denied"
        );
        assert_eq!(k.trace.invalidations, 1);
    }

    #[test]
    fn move_pages_end_to_end() {
        let (mut k, mut table, mut img) = boot();
        let g = img.globals[0];
        // Store a pointer to the global somewhere in the heap and track it.
        let cell = img.heap.0 + 64;
        k.mem.write_uint(cell, g + 8, 8);
        table.track_escape(cell);
        let snapshot = g + 8;
        table.flush_escapes(|_| snapshot);

        let mut regs = vec![g + 16, 0x0];
        let page = k.cost.page_size;
        let (world, outcome) = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .expect("move succeeds");
        assert!(world.is_complete());
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
        // Kernel patches the image's global table too.
        SimKernel::patch_globals(&mut img, &outcome);
        assert_eq!(img.globals[0], new_ptr - 8);
        assert!(k.trace.moves >= 1);
    }

    /// Boot two tenants through one kernel; returns their tables checked
    /// into the process table.
    pub(super) fn boot_two_procs() -> (SimKernel, Pid, Pid, ProcessImage, ProcessImage) {
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
        k.procs.checkin_table(p0, t0);
        let mut t1 = AllocationTable::new();
        let img1 = k
            .load_unsigned(module_with_global(), &mut t1, cfg)
            .expect("loads");
        let p1 = k.register_proc("beta", img1.clone()).expect("admitted");
        k.procs.checkin_table(p1, t1);
        (k, p0, p1, img0, img1)
    }

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
        let (world, outcome) = k.move_shared(id, &mut regs, 2).expect("shared move");
        assert!(world.is_complete());
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

    /// A small kernel whose full physical memory is cheap to snapshot for
    /// byte-identity assertions.
    pub(super) fn boot_small() -> (SimKernel, AllocationTable, ProcessImage) {
        let mut k = SimKernel::new(8 * 1024 * 1024);
        let mut table = AllocationTable::new();
        let cfg = LoadConfig {
            stack_size: 64 * 1024,
            heap_size: 1024 * 1024,
            page_size: 4096,
        };
        let img = k
            .load_unsigned(module_with_global(), &mut table, cfg)
            .expect("loads");
        (k, table, img)
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
        let (world, outcome) = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .expect("retry recovers");
        assert!(world.is_complete());
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
        let (world, outcome) = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 2)
            .expect("fault disarmed");
        assert!(world.is_complete());
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
        // Episode aborted, machine idle: the retry completes.
        let (world, _) = k
            .move_pages(&mut table, &mut regs, g / page * page, 1, 4)
            .expect("stall cleared");
        assert!(world.is_complete());
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
        let (world, slot, src, len) = k
            .page_out(&mut table, &mut regs, g, 2)
            .expect("no fault")
            .expect("swappable");
        assert!(world.is_complete());
        let pre_swap: Vec<u64> = (0..16u64).map(|i| 0xA5A5_0000 + i).collect();
        // Bring it back via the poisoned pointer the register now holds.
        let poisoned = regs[0];
        assert!(SimKernel::is_poison(poisoned));
        let (world, dst) = k
            .page_in(&mut table, &mut regs, poisoned, 2)
            .expect("no fault")
            .expect("slot live");
        assert!(world.is_complete());
        assert!(!k.has_swap_slot(slot));
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
        let window = POISON_BASE + slot * POISON_SLOT_SPAN;
        assert_eq!(regs[0], window + (a - src) + 16);
        let (_, dst) = k
            .page_in(&mut table, &mut regs, window, 1)
            .expect("no fault")
            .expect("slot live");
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

    /// The batch of two is the two stand-alone moves, bit for bit — memory,
    /// registers, table, outcomes — except that it stops the world once
    /// and inspects the register dump once.
    #[test]
    fn batch_of_two_equals_two_stand_alone_moves() {
        let twin = || {
            let (mut k, mut table, img) = boot_small();
            let (a, b, regs) = track_linked_pair(&mut k, &mut table, &img);
            (k, table, a, b, regs)
        };
        let (mut kb, mut tb, a, b, mut rb) = twin();
        let (mut ks, mut ts, _, _, mut rs) = twin();
        let (wb, batched) = kb
            .move_pages_batch(&mut tb, &mut rb, &[(a, 1), (b, 1)], 2)
            .expect("batch moves");
        let (w1, o1) = ks.move_pages(&mut ts, &mut rs, a, 1, 2).expect("moves");
        let (w2, o2) = ks.move_pages(&mut ts, &mut rs, b, 1, 2).expect("moves");

        assert_eq!(
            kb.mem.read_bytes(0, kb.mem.size()),
            ks.mem.read_bytes(0, ks.mem.size())
        );
        assert_eq!(rb, rs);
        assert_ne!(rb, vec![a + 16, b + 24], "both registers were patched");
        assert_eq!(tb.snapshot(), ts.snapshot());
        // Same outcomes, apart from the register pass charged once.
        let per_pass = rs.len() as u64 * ks.cost.move_register_patch_per_reg;
        assert_eq!(batched[0], o1);
        assert_eq!(o2.cost.register_patch, per_pass);
        let mut second = o2.clone();
        second.cost.register_patch = 0;
        assert_eq!(batched[1], second);
        assert!(
            wb.cycles < w1.cycles + w2.cycles,
            "one stop is cheaper than two: {} vs {} + {}",
            wb.cycles,
            w1.cycles,
            w2.cycles
        );
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
        assert_eq!(k.corrupt_swap_slots(), vec![slot]);
        let poisoned = regs[0];
        let err = k.page_in(&mut table, &mut regs, poisoned, 1).unwrap_err();
        assert_eq!(err, KernelError::SwapReadFailed { slot });
        // The (corrupt) entry is preserved for post-mortem, not dropped.
        assert!(k.has_swap_slot(slot));
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
        assert!(k.has_swap_slot(slot), "data survives the failed read");
        // Second attempt: injected destination OOM.
        k.install_fault_plan(FaultPlan::new().arm_persistent(FaultPoint::MoveDstAlloc, 1));
        let err = k.page_in(&mut table, &mut regs, poisoned, 1).unwrap_err();
        assert!(matches!(err, KernelError::OutOfFrames { .. }));
        assert!(k.has_swap_slot(slot), "OOM must not drop the swap entry");
        // Third attempt: clean — the exact bytes come back.
        k.install_fault_plan(FaultPlan::new());
        let (_, dst) = k
            .page_in(&mut table, &mut regs, poisoned, 1)
            .expect("no fault")
            .expect("slot live");
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
        let (_, dst) = k
            .page_in(&mut t0, &mut regs0, poisoned, 1)
            .unwrap()
            .unwrap();
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
        assert!(!k.has_swap_slot(slot1), "the victim's entry is reaped");
        assert!(k.has_swap_slot(slot0), "the bystander's is not");
        k.proc_switch(p0, false).unwrap();
        let (g0, poisoned) = (img0.globals[0], regs0[0]);
        let (_, dst) = k
            .page_in(&mut t0, &mut regs0, poisoned, 1)
            .unwrap()
            .unwrap();
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
    fn signature_corruption_at_load_is_rejected_by_verification() {
        use carat_core::sign::{sign_module, SignatureError, SigningKey};
        let key = SigningKey::from_passphrase("carat-cc 0.1", "trusted toolchain");
        let signed = sign_module(&module_with_global(), &key);
        let mut k = SimKernel::new(256 * 1024 * 1024);
        k.trust(key.clone());
        k.install_fault_plan(FaultPlan::new().arm(FaultPoint::SignatureCorrupt, 1));
        let mut table = AllocationTable::new();
        let err = k
            .load(&signed, &mut table, LoadConfig::default())
            .unwrap_err();
        assert!(
            matches!(err, LoadError::Signature(SignatureError::Mismatch)),
            "corrupted image must fail verification, got {err:?}"
        );
        // The fault was one-shot: an intact reload succeeds.
        let mut table = AllocationTable::new();
        k.load(&signed, &mut table, LoadConfig::default())
            .expect("clean image verifies");
    }

    #[test]
    fn capsule_round_trip_is_byte_identical() {
        let mut k = SimKernel::new(1024 * 1024);
        let image: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let slot = k.capsule_write_from(&image).expect("write accepted");
        assert_eq!(k.capsule_count(), 1);
        assert_eq!(k.capsule_bytes(), 4096);
        let mut back = Vec::new();
        k.capsule_read_into(slot, &mut back)
            .expect("checksum verifies");
        assert_eq!(back, image);
        // A read consumes the slot.
        assert_eq!(
            k.capsule_read_into(slot, &mut back),
            Err(KernelError::CapsuleMissing { slot })
        );
        assert_eq!(k.capsule_count(), 0);
    }

    #[test]
    fn corrupted_capsule_fails_checksum_with_typed_error() {
        let mut k = SimKernel::new(1024 * 1024);
        let slot = k.capsule_write_from(&[7u8; 512]).expect("write accepted");
        assert!(k.debug_corrupt_capsule(slot));
        let err = k
            .capsule_read_into(slot, &mut Vec::new())
            .expect_err("corruption detected");
        assert_eq!(err, KernelError::CapsuleCorrupt { slot });
        assert!(err.is_recoverable(), "capsule loss degrades one tenant");
        // The corrupted image is dropped, not left to be retried.
        assert_eq!(k.capsule_count(), 0);
    }

    #[test]
    fn armed_capsule_faults_fire_once_then_disarm() {
        let mut k = SimKernel::new(1024 * 1024);
        k.install_fault_plan(
            FaultPlan::new()
                .arm(FaultPoint::CapsuleWrite, 1)
                .arm(FaultPoint::CapsuleCorrupt, 1),
        );
        let err = k.capsule_write_from(&[1u8; 64]).expect_err("armed write");
        assert_eq!(err, KernelError::CapsuleWriteFailed { len: 64 });
        assert_eq!(k.capsule_count(), 0, "failed write stored nothing");
        let slot = k.capsule_write_from(&[2u8; 64]).expect("fault disarmed");
        let mut back = Vec::new();
        let err = k
            .capsule_read_into(slot, &mut back)
            .expect_err("armed corrupt flips a byte");
        assert_eq!(err, KernelError::CapsuleCorrupt { slot });
        let slot = k.capsule_write_from(&[3u8; 64]).expect("write ok");
        k.capsule_read_into(slot, &mut back)
            .expect("corrupt disarmed");
        assert_eq!(back, vec![3u8; 64]);
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
                        let pid = k.register_proc("t", img.clone()).expect("admitted");
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
                        let (_, out) = k.move_shared(id, &mut [], 1).expect("frames available");
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
