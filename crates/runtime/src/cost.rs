//! The shared machine cost model (cycles).
//!
//! The reproduction's stand-in for the paper's Xeon testbeds: every
//! component that charges simulated cycles — the VM interpreter, the TLB
//! and pagewalk simulation, guard evaluation, tracking callbacks, and the
//! page-move protocol — draws its constants from here, so experiments and
//! ablations stay mutually consistent. Values are chosen to match the
//! magnitudes the paper reports (e.g. ~47-cycle average pagewalks, 1-cycle
//! MPX bounds checks) rather than any exact microarchitecture.

/// Cycle costs and structure sizes for the simulated machine.
///
/// All fields are scalars, so the model is `Copy`: hot paths (the VM's
/// data-access and intrinsic handlers) copy it to a local instead of
/// cloning through a heap-free but borrow-restricted reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    // --- core execution ---
    /// Simple ALU operation (add, compare, …).
    pub alu: u64,
    /// Floating-point operation.
    pub fpu: u64,
    /// Taken or not-taken branch (predicted; we do not model mispredicts).
    pub branch: u64,
    /// L1-hit load or store.
    pub mem_l1: u64,
    /// Additional cycles for an access that misses L1 (flat model).
    pub mem_l1_miss_extra: u64,
    /// L1 data hit rate numerator per 1024 accesses (flat probabilistic
    /// cache model, deterministic via access counting).
    pub l1_hit_per_1024: u64,
    /// Call/return overhead (prologue + epilogue).
    pub call: u64,

    // --- traditional model: TLB + pagewalk ---
    /// Page size in bytes.
    pub page_size: u64,
    /// L1 DTLB entries.
    pub dtlb_entries: usize,
    /// L1 DTLB associativity.
    pub dtlb_assoc: usize,
    /// STLB (L2 TLB) entries.
    pub stlb_entries: usize,
    /// STLB associativity.
    pub stlb_assoc: usize,
    /// Cycles for an STLB hit after a DTLB miss.
    pub stlb_hit: u64,
    /// Cycles for a full pagewalk (radix walk; the paper measures ~47 avg).
    pub pagewalk: u64,
    /// Kernel page-fault service cost (demand allocation, baseline mode).
    pub page_fault: u64,

    // --- CARAT guards ---
    /// MPX-style bounds check: single-cycle, no register pressure.
    pub guard_mpx: u64,
    /// Cost per probe step of a software range guard (compare+branch pair).
    pub guard_probe: u64,
    /// Fixed overhead of reaching the guard code (register save/restore
    /// pressure of the straightforward compare-and-branch technique).
    pub guard_software_fixed: u64,

    // --- CARAT tracking ---
    /// Allocation-table insert (red/black tree).
    pub track_alloc: u64,
    /// Allocation-table remove.
    pub track_free: u64,
    /// Queue one escape (batched processing).
    pub track_escape_enqueue: u64,
    /// Process one escape at flush time.
    pub track_escape_flush: u64,

    // --- page movement protocol ---
    /// Signal delivery + register dump per thread ("world stop" entry).
    pub move_signal_per_thread: u64,
    /// Barrier synchronization per thread.
    pub move_barrier_per_thread: u64,
    /// Finding/expanding allocations per affected allocation (Page Expand).
    pub move_expand_per_alloc: u64,
    /// Fixed page-expand overhead per move (range query on the table).
    pub move_expand_fixed: u64,
    /// Patch generation+execution per escape (Patch Gen. & Exec).
    pub move_patch_per_escape: u64,
    /// Register patch per inspected register (Register Patch).
    pub move_register_patch_per_reg: u64,
    /// Allocation of the destination block, fixed (Allocation & Movement).
    pub move_alloc_fixed: u64,
    /// Copy cost per byte moved (Allocation & Movement).
    pub move_copy_per_byte_milli: u64,

    // --- fleet admission + pressure scanning ---
    /// Verifying an admission image: signature walk plus IR
    /// verification. Paid once per admission *pass* — every spawn pays
    /// it sequentially; `MultiVm::spawn_batch` pays it once for the
    /// whole batch (the amortization that makes batch admission win).
    pub admit_verify: u64,
    /// Consulting the quotas, once per admission pass: would the whole
    /// batch — `n` capsules of the module's size, against the live count
    /// and the resident bytes — be accepted (`ProcTable::admit_batch`)?
    /// The charge buys the answer: a pass the quotas refuse pays
    /// `admit_verify` plus this and no `admit_stamp`, because no tenant
    /// is built to find out.
    pub admit_quota: u64,
    /// Stamping one tenant: capsule layout, zeroing, the initial patch,
    /// and the slab insert. Paid per tenant on both admission paths.
    pub admit_stamp: u64,
    /// Examining one fleet slot during an epoch-based pressure sweep
    /// (clock-hand advance + coldness compare). The sweep touches a
    /// bounded number of slots per pass, so per-slice pressure cost is
    /// `limit * this`, independent of fleet size.
    pub pressure_scan_per_slot: u64,

    // --- context switches (multi-process scheduling) ---
    /// Mode-independent switch overhead: trap entry, scheduler pick,
    /// callee-saved register save/restore, return to user.
    pub ctx_switch_fixed: u64,
    /// CARAT-only addition: installing the incoming process's guard
    /// region set (a handful of bounds registers / a region-table
    /// pointer swap — no address-translation state exists to flush).
    pub ctx_switch_region_swap: u64,
    /// Traditional-only addition: TLB flush on address-space switch
    /// (CR3 write + pipeline drain; the cost Yan et al. attribute to
    /// translation-coherence maintenance).
    pub tlb_flush: u64,
    /// Traditional-only addition: amortized ASID-rollover cost — the
    /// refill traffic paid when tagged-TLB generation counters wrap and
    /// every address space must re-walk its hot pages.
    pub asid_rollover_refill: u64,

    // --- devices: timer interrupts + DMA pinning ---
    /// Timer-interrupt delivery: trap entry, deadline comparator read,
    /// and handoff to the scheduler (both modes pay this).
    pub timer_irq: u64,
    /// Fixed cost of recording a pin/unpin in the kernel's pin registry
    /// (both modes pay this bookkeeping charge).
    pub pin_registry: u64,
    /// Traditional-only per-page pin cost: walk the page table, mark the
    /// PTE unevictable, and refcount the frame — the `get_user_pages`
    /// path. CARAT has no translation layer, so pinning is just the
    /// registry entry: physical addresses are already stable.
    pub pin_pte_per_page: u64,
    /// DMA engine setup per descriptor (doorbell write + fetch).
    pub dma_setup: u64,
    /// DMA transfer cost per byte, in milli-cycles (device-side; the
    /// CPU does not stall, but modeled completion time advances).
    pub dma_per_byte_milli: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            alu: 1,
            fpu: 3,
            branch: 1,
            mem_l1: 4,
            mem_l1_miss_extra: 40,
            l1_hit_per_1024: 983, // ~96% hit rate
            call: 6,
            page_size: 4096,
            dtlb_entries: 64,
            dtlb_assoc: 4,
            stlb_entries: 1536,
            stlb_assoc: 12,
            stlb_hit: 7,
            pagewalk: 47,
            page_fault: 1500,
            guard_mpx: 1,
            guard_probe: 3,
            guard_software_fixed: 2,
            track_alloc: 40,
            track_free: 40,
            track_escape_enqueue: 6,
            track_escape_flush: 14,
            move_signal_per_thread: 1200,
            move_barrier_per_thread: 300,
            move_expand_per_alloc: 350,
            move_expand_fixed: 2500,
            move_patch_per_escape: 120,
            move_register_patch_per_reg: 4,
            move_alloc_fixed: 800,
            move_copy_per_byte_milli: 250, // 0.25 cycles/byte
            admit_verify: 18_000,
            admit_quota: 300,
            admit_stamp: 1_400,
            pressure_scan_per_slot: 12,
            ctx_switch_fixed: 250,
            ctx_switch_region_swap: 30,
            tlb_flush: 500,
            asid_rollover_refill: 600,
            timer_irq: 220,
            pin_registry: 60,
            pin_pte_per_page: 90,
            dma_setup: 400,
            dma_per_byte_milli: 120, // 0.12 cycles/byte, device-side
        }
    }
}

impl CostModel {
    /// Page number of `addr`. Pages are virtually always a power of two,
    /// in which case this is a shift — a 64-bit hardware divide here is
    /// measurable on the VM's per-access path.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        if self.page_size.is_power_of_two() {
            addr >> self.page_size.trailing_zeros()
        } else {
            addr / self.page_size
        }
    }

    /// Cycles to copy `bytes` bytes.
    pub fn copy_cost(&self, bytes: u64) -> u64 {
        (bytes * self.move_copy_per_byte_milli) / 1000
    }

    /// Cost of a software guard that performed `probes` probe steps.
    pub fn software_guard_cost(&self, probes: u64) -> u64 {
        self.guard_software_fixed + probes * self.guard_probe
    }

    /// Modeled cycles of the "Patch Gen. & Exec." phase over `escapes`
    /// cells: the serial scan the paper measures (Table 3, Fig 9).
    pub fn patch_cost(&self, escapes: u64) -> u64 {
        escapes * self.move_patch_per_escape
    }

    /// Number of 4KiB pages covering `bytes`.
    pub fn pages(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_size)
    }

    /// Modeled cycles to admit `n` tenants one spawn at a time: every
    /// spawn re-verifies the image and re-runs the quota pass.
    pub fn admit_sequential_cost(&self, n: u64) -> u64 {
        n * (self.admit_verify + self.admit_quota + self.admit_stamp)
    }

    /// Modeled cycles to admit `n` tenants in one batch pass: one
    /// verify, one quota pass, `n` stamps.
    pub fn admit_batch_cost(&self, n: u64) -> u64 {
        self.admit_verify + self.admit_quota + n * self.admit_stamp
    }

    /// Cycles for a CARAT-mode context switch: the fixed trap/scheduler
    /// path plus a guard-region-set install. Physical addressing means
    /// there is no translation state to invalidate.
    pub fn ctx_switch_carat(&self) -> u64 {
        self.ctx_switch_fixed + self.ctx_switch_region_swap
    }

    /// Cycles for a Traditional-mode context switch: the fixed path plus
    /// the TLB flush and amortized ASID-rollover refill that an
    /// address-space change costs under paging.
    pub fn ctx_switch_traditional(&self) -> u64 {
        self.ctx_switch_fixed + self.tlb_flush + self.asid_rollover_refill
    }

    /// Cycles to pin `pages` pages in CARAT mode: one registry entry,
    /// independent of the region size — physical addresses are already
    /// stable, so there is no per-page translation work to do. The price
    /// CARAT pays instead is compaction freedom (the pinned hole), which
    /// is accounted where moves are refused, not here.
    pub fn pin_cost_carat(&self, _pages: u64) -> u64 {
        self.pin_registry
    }

    /// Cycles to pin `pages` pages in Traditional mode: the registry
    /// entry plus a pagewalk and PTE pin per page (the
    /// `get_user_pages`-style path a paging kernel must take before any
    /// DMA target is safe).
    pub fn pin_cost_traditional(&self, pages: u64) -> u64 {
        self.pin_registry + pages * (self.pagewalk + self.pin_pte_per_page)
    }

    /// Device-side cycles for one DMA transfer of `bytes` bytes.
    pub fn dma_cost(&self, bytes: u64) -> u64 {
        self.dma_setup + (bytes * self.dma_per_byte_milli) / 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_magnitudes() {
        let c = CostModel::default();
        assert_eq!(c.guard_mpx, 1, "MPX check is single-cycle");
        assert_eq!(c.pagewalk, 47, "average pagewalk from the paper");
        assert_eq!(c.dtlb_entries, 64, "modern Intel L1 DTLB");
        assert_eq!(c.stlb_entries, 1536, "current-generation STLB");
    }

    #[test]
    fn copy_cost_scales() {
        let c = CostModel::default();
        assert_eq!(c.copy_cost(4096), 1024);
        assert_eq!(c.copy_cost(0), 0);
    }

    #[test]
    fn software_guard_grows_with_probes() {
        let c = CostModel::default();
        assert!(c.software_guard_cost(10) > c.software_guard_cost(1));
        assert!(c.software_guard_cost(1) > c.guard_mpx);
    }

    #[test]
    fn carat_context_switch_strictly_cheaper() {
        let c = CostModel::default();
        assert!(
            c.ctx_switch_carat() < c.ctx_switch_traditional(),
            "CARAT switch must not pay the TLB flush/ASID costs"
        );
        // The gap is exactly the translation-coherence charge.
        assert_eq!(
            c.ctx_switch_traditional() - c.ctx_switch_carat(),
            c.tlb_flush + c.asid_rollover_refill - c.ctx_switch_region_swap
        );
    }

    #[test]
    fn patch_cost_serial_at_one_worker() {
        let c = CostModel::default();
        assert_eq!(c.patch_cost(1000), 1000 * c.move_patch_per_escape);
        assert_eq!(c.patch_cost(0), 0, "no escapes, no charge");
    }

    #[test]
    fn carat_pin_is_flat_traditional_pin_is_linear() {
        let c = CostModel::default();
        assert_eq!(
            c.pin_cost_carat(1),
            c.pin_cost_carat(1024),
            "CARAT pin cost must not scale with region size"
        );
        assert!(
            c.pin_cost_traditional(1024) > 100 * c.pin_cost_traditional(1),
            "traditional pinning pays a pagewalk + PTE pin per page"
        );
        assert!(c.pin_cost_carat(1) < c.pin_cost_traditional(1));
    }

    #[test]
    fn dma_cost_scales_with_bytes() {
        let c = CostModel::default();
        assert_eq!(c.dma_cost(0), c.dma_setup);
        assert!(c.dma_cost(65536) > c.dma_cost(4096));
    }

    #[test]
    fn batch_admission_amortizes_verification() {
        let c = CostModel::default();
        // The acceptance bar: >=5x cheaper than sequential at n=10k.
        assert!(c.admit_sequential_cost(10_000) >= 5 * c.admit_batch_cost(10_000));
        // Even small batches win once the verify dominates.
        assert!(c.admit_sequential_cost(10) >= 5 * c.admit_batch_cost(10));
        // A batch of one still pays the full pass — no free lunch.
        assert_eq!(c.admit_batch_cost(1), c.admit_sequential_cost(1));
    }

    #[test]
    fn page_rounding() {
        let c = CostModel::default();
        assert_eq!(c.pages(1), 1);
        assert_eq!(c.pages(4096), 1);
        assert_eq!(c.pages(4097), 2);
    }
}
