//! The simulated kernel: physical memory management, region policy, the
//! paging baseline, and the CARAT move/protection orchestration (paper
//! §4.3 — the kernel module's role).
//!
//! The `SimKernel` facade is one struct with its `impl` split by concern:
//! this file keeps the struct, boot, fault-plan plumbing, the loader entry
//! points, `demand_touch`, `change_protection` and the capsule store;
//! [`mm`] holds the stop-and-move spine and every relocator, [`pins`] the
//! pin registry and DMA service, [`process`] the process API. What a process's memory *is* lives in
//! [`crate::space::AddressSpace`].

mod mm;
mod pins;
mod process;

pub(crate) use mm::DstAlloc;
pub use pins::{PinError, PinStats};

use crate::arena::{ArenaStats, CapsuleArena};
use crate::buddy::BuddyAllocator;
use crate::dev::DeviceBay;
use crate::faults::{FaultPlan, FaultPoint, KernelError};
use crate::loader::{load_signed, load_unsigned, LoadConfig, LoadError, ProcessImage};
use crate::phys::PhysicalMemory;
use crate::proc::ProcTable;
use crate::space::AddressSpace;
use crate::trace::{PagingEvent, PagingTrace};
use carat_core::sign::{SignedModule, SigningKey};
use carat_ir::Module;
use carat_runtime::{AllocationTable, CostModel, Perms, PinnedRange};
use std::collections::HashMap;

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
    /// Injected fault schedule. `None` (the default) fires nothing.
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

/// One swapped-out range.
#[derive(Debug, Clone)]
struct SwapEntry {
    len: u64,
    data: Vec<u8>,
}

/// FNV-1a 64-bit hash over `data`, one byte per step. Exported for the
/// frozen `benchmark/` crate, which hashes guest output with it against
/// `expected.json` — so it must stay byte-for-byte what it is. Nothing
/// inside the crates calls it (CI checks): the kernel's own integrity
/// sums are [`checksum`].
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The kernel's integrity sum — capsule write / verify-on-read and DMA
/// completions — taken a little-endian word at a time: one dependent
/// multiply per 8 bytes where [`fnv1a`] pays one per byte.
///
/// Each step `h = (h ^ w) * P` with `P` odd is a bijection of `h` for
/// any fixed later input, and so is the closing xor-shift, so two images
/// that differ in exactly one word (in particular: in one byte, or one
/// bit) never share a sum. The length is folded into the seed, so a
/// truncated or zero-extended image starts from a different state. It
/// detects device corruption; it is not a MAC.
pub fn checksum(data: &[u8]) -> u64 {
    /// An odd 64-bit prime (xxHash's first), for its bit diffusion.
    const P: u64 = 0x9E37_79B1_85EB_CA87;
    let mut h = 0xcbf2_9ce4_8422_2325 ^ (data.len() as u64).wrapping_mul(P);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(P);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(P);
    }
    h ^ (h >> 32)
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

    /// Install a fault-injection schedule.
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

    /// The poison window of swap slot `slot`, as `(start, span)`: a
    /// page-out patches every pointer into the range to an address in
    /// `[start, start + span)`, and a guard that meets one faults to
    /// [`SimKernel::page_in`]. The one spelling of the encoding;
    /// [`SimKernel::swap_slot`] inverts it.
    pub fn swap_window(slot: u64) -> (u64, u64) {
        (POISON_BASE + slot * POISON_SLOT_SPAN, POISON_SLOT_SPAN)
    }

    /// The swap slot whose poison window holds `addr` (which must be
    /// poison).
    pub fn swap_slot(addr: u64) -> u64 {
        (addr - POISON_BASE) / POISON_SLOT_SPAN
    }

    /// Number of ranges currently in swap.
    pub fn swapped_ranges(&self) -> usize {
        self.swap.len()
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

    /// The swap half of a structural audit of the one process whose
    /// allocations `table` tracks, one line per violated invariant (empty
    /// means consistent):
    ///
    /// * every swap entry's payload matches its recorded length;
    /// * every allocation poisoned into the swap address space sits inside
    ///   the window of a live slot;
    /// * every live slot backs at least one allocation (a slot nothing
    ///   lives in holds unreachable data).
    pub fn audit_swap(&self, table: &AllocationTable) -> Vec<String> {
        let mut corrupt: Vec<u64> = self
            .swap
            .iter()
            .filter(|(_, e)| e.data.len() as u64 != e.len || e.len == 0)
            .map(|(&s, _)| s)
            .collect();
        corrupt.sort_unstable();
        let mut violations: Vec<String> = corrupt
            .into_iter()
            .map(|slot| format!("swap slot {slot} length/payload mismatch"))
            .collect();
        let mut backed_slots = Vec::new();
        for (start, info) in table.below(u64::MAX).filter(|&(s, _)| Self::is_poison(s)) {
            let len = info.len;
            let slot = Self::swap_slot(start);
            let (window, span) = Self::swap_window(slot);
            if !self.swap.contains_key(&slot) {
                violations.push(format!(
                    "allocation [{start:#x},+{len:#x}) is poisoned into dead swap slot {slot}"
                ));
            } else if (start - window)
                .checked_add(len)
                .is_none_or(|end| end > span)
            {
                violations.push(format!(
                    "allocation [{start:#x},+{len:#x}) overruns the window of swap slot {slot}"
                ));
            } else if !backed_slots.contains(&slot) {
                backed_slots.push(slot);
            }
        }
        if backed_slots.len() != self.swap.len() {
            violations.push(format!(
                "{} live swap slots but tracked allocations back {}",
                self.swap.len(),
                backed_slots.len()
            ));
        }
        violations
    }

    /// Park a serialized tenant capsule in the simulated swap device.
    /// The [`checksum`] is taken here, over exactly the bytes stored — a
    /// word at a time, so summing a ~3 KB image costs less than copying
    /// it; a later [`SimKernel::capsule_read_into`] verifies it before
    /// handing the image back. The bytes land in a pooled arena slot (reusing a freed
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
        Ok(self.capsules.store(data, checksum(data)))
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
        let Some(mut recorded) = self.capsules.read_consume(slot, out) else {
            return Err(KernelError::CapsuleMissing { slot });
        };
        if self.fire(FaultPoint::CapsuleCorrupt) {
            let mid = out.len() / 2;
            match out.get_mut(mid) {
                Some(b) => *b ^= 0xFF,
                // An empty image has no byte to flip; corrupt the
                // recorded checksum instead.
                None => recorded ^= 1,
            }
        }
        if checksum(out) != recorded {
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
    #[inline]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::Pid;
    use carat_ir::{GlobalInit, ModuleBuilder, Type};
    use carat_runtime::{Access, GuardImpl};

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
}
