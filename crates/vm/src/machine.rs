//! The execution substrate: an IR interpreter over simulated physical
//! memory with a cycle cost model.
//!
//! Two execution modes reproduce the paper's two worlds:
//!
//! * [`Mode::Traditional`] — every data access is translated through the
//!   simulated DTLB/STLB/pagewalker against the kernel's radix page table
//!   (identity-mapped, demand-faulted), charging translation cycles;
//! * [`Mode::Carat`] — addresses are physical; no TLB exists; the guard
//!   and tracking intrinsics injected by the CARAT compiler execute
//!   against the kernel's region set and the runtime's allocation table.
//!
//! A [`MoveDriverConfig`] injects worst-case page movements at a fixed
//! simulated rate (Figure 9 / Table 3 methodology).
//!
//! Two interpreters execute the IR: the reference one walks the arena
//! ([`Engine::Reference`], the oracle of the differential suites); every
//! other [`Engine`] is a decode recipe for the one decoded dispatch loop,
//! in which each instruction that can be half of a superinstruction has a
//! single component body ([`Fast`]).

use crate::counters::PerfCounters;
use crate::decode::{DecodedInst, DecodedProgram, FusedKind, FusionStats, ScalarClass, NO_REG};
use crate::heap::HeapAllocator;
use crate::tlb::{Answered, TranslationUnit};
use carat_ir::{
    BinOp, BlockId, CastKind, Const, FuncId, Inst, IntTy, Intrinsic, Module, Opcode, Pred, Type,
    ValueId,
};
use carat_kernel::{
    AdmissionError, FaultPlan, FaultPoint, KernelError, LoadConfig, LoadError, PhysicalMemory,
    PinError, ProcessImage, SimKernel,
};
use carat_runtime::{
    Access, AllocKind, AllocationTable, CostModel, GuardCheck, GuardImpl, MoveOutcome, RegionTable,
    TrackStats, WorldStop,
};
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Address-translation world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Paging baseline: TLBs + pagewalks, no instrumentation semantics.
    Traditional,
    /// CARAT: physical addressing, guards and tracking live.
    #[default]
    Carat,
}

/// Page-move injection (Figure 9 / Table 3 methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveDriverConfig {
    /// Simulated cycles between moves (rate = freq / period).
    pub period_cycles: u64,
    /// Stop injecting after this many moves (0 = unlimited).
    pub max_moves: u64,
}

/// Swap injection: periodically page the hottest tracked range out to the
/// kernel's swap store; guards bring it back on demand (paper §2.2's
/// non-canonical-address mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapDriverConfig {
    /// Simulated cycles between page-outs.
    pub period_cycles: u64,
    /// Stop injecting after this many page-outs (0 = unlimited).
    pub max_swaps: u64,
}

/// Which interpreter executes instructions — in effect a decode recipe:
/// [`Engine::Reference`] walks the IR arena, the other three run the one
/// decoded dispatch loop over whatever
/// [`DecodedProgram::decode_for`] put in each block's stream for them.
///
/// Reference, decoded and fused implement identical semantics and
/// identical accounting — every [`PerfCounters`] field, guard/tracking
/// behavior, and world-stop interleaving match exactly (enforced by the
/// differential test suites) — and differ only in host-side speed. The
/// threaded tier is the one documented exception (see its variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Decode with superinstructions fused in place: dominant adjacent
    /// pairs — address computation + memory access, guard + access,
    /// compare + branch, ALU op + ALU op, pointer add + constant — retire
    /// in a single dispatch
    /// (see [`crate::decode`]'s fusion pass).
    #[default]
    Fused,
    /// Decode to the flat one-slot-per-instruction stream
    /// (see [`crate::decode`]): no per-step cloning, no hash lookups, one
    /// dispatch per instruction.
    Decoded,
    /// Walk the IR arena directly, cloning each instruction — the original
    /// interpreter, retained as the semantic reference for differential
    /// testing and as the `--engine reference` baseline in `interp_throughput`.
    Reference,
    /// Decode to the threaded-code streams: the fused stream with guard
    /// checks elided or hoisted under the static
    /// whole-trip proofs of `carat_analysis::prove_function` (see
    /// [`crate::decode::ThreadedOpts`]). The only engine whose simulated
    /// counters legitimately diverge from the others: it retires fewer
    /// instructions and cycles because proven-redundant guards never
    /// execute, with the removal accounted in
    /// [`PerfCounters::guards_elided`]/[`PerfCounters::guards_hoisted`]
    /// so `guards_executed + guards_elided - guards_hoisted` reconciles
    /// with the fused engine's `guards_executed`. Outputs, return values,
    /// loads, stores, and calls remain byte-identical.
    Threaded,
}

impl Engine {
    /// Every engine, in the order benchmarks report them.
    pub const ALL: [Engine; 4] = [
        Engine::Reference,
        Engine::Decoded,
        Engine::Fused,
        Engine::Threaded,
    ];

    /// Stable CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Fused => "fused",
            Engine::Decoded => "decoded",
            Engine::Reference => "reference",
            Engine::Threaded => "threaded",
        }
    }
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Execution mode.
    pub mode: Mode,
    /// Interpreter (the fused decode by default).
    pub engine: Engine,
    /// Guard mechanism for guard intrinsics.
    pub guard_impl: GuardImpl,
    /// Abort after this many IR instructions (runaway protection).
    pub max_steps: u64,
    /// Abort after this many simulated cycles (captures move/swap storms
    /// whose cost is cycles, not instructions). `u64::MAX` disables.
    pub max_cycles: u64,
    /// Seed for the `rand` intrinsic.
    pub seed: u64,
    /// Optional page-move injection.
    pub move_driver: Option<MoveDriverConfig>,
    /// Optional swap injection.
    pub swap_driver: Option<SwapDriverConfig>,
    /// Additional (idle) threads participating in world stops.
    pub extra_threads: usize,
    /// Loader sizing.
    pub load: LoadConfig,
    /// Let a failed call guard invoke the kernel for seamless stack
    /// expansion (paper §2.2) instead of faulting.
    pub auto_grow_stack: bool,
    /// Optional fault-injection schedule installed into the kernel.
    pub fault_plan: Option<FaultPlan>,
    /// Threaded-tier transform toggles (only read by [`Engine::Threaded`];
    /// both on by default, the ablation rows of the guard-opts table turn
    /// them off selectively).
    pub threaded: crate::decode::ThreadedOpts,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            mode: Mode::Carat,
            engine: Engine::default(),
            guard_impl: GuardImpl::IfTree,
            max_steps: 2_000_000_000,
            max_cycles: u64::MAX,
            seed: 0x5eed_cafe_f00d_0001,
            move_driver: None,
            swap_driver: None,
            extra_threads: 0,
            load: LoadConfig::default(),
            auto_grow_stack: true,
            fault_plan: None,
            threaded: crate::decode::ThreadedOpts::default(),
        }
    }
}

/// Why a run stopped abnormally.
#[derive(Debug)]
pub enum VmError {
    /// A guard rejected an access — the CARAT protection fault.
    GuardFault {
        /// Offending address (or range start).
        addr: u64,
        /// Access length.
        len: u64,
        /// Whether it was a write.
        write: bool,
    },
    /// Heap exhausted.
    OutOfMemory,
    /// `max_steps` exceeded.
    StepLimit,
    /// `abort()` or `unreachable` executed, or an internal trap.
    Trap(String),
    /// Loading failed.
    Load(LoadError),
    /// A kernel operation (move, page-out, page-in, stack expansion)
    /// failed with a typed error. The kernel rolled back or aborted
    /// first, so its state — and the guest's memory image — is
    /// consistent; [`Vm::run_checked`] verifies this.
    Kernel(KernelError),
    /// The kernel's admission control refused the tenant (quota
    /// over-commit) before it became schedulable.
    Admission(AdmissionError),
    /// A fleet-level tenancy operation was refused (stale pid or
    /// externalized state); see [`crate::TenancyError`].
    Tenancy(crate::multi::TenancyError),
    /// A DMA pin operation was refused, or an operation collided with
    /// a pinned region (e.g. externalizing a tenant whose memory is a
    /// live device target); see [`carat_kernel::PinError`].
    Pin(PinError),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::GuardFault { addr, len, write } => write!(
                f,
                "guard fault: {} of [{addr:#x}, +{len})",
                if *write { "write" } else { "read" }
            ),
            VmError::OutOfMemory => write!(f, "heap exhausted"),
            VmError::StepLimit => write!(f, "instruction step limit exceeded"),
            VmError::Trap(m) => write!(f, "trap: {m}"),
            VmError::Load(e) => write!(f, "load: {e}"),
            VmError::Kernel(e) => write!(f, "kernel: {e}"),
            VmError::Admission(e) => write!(f, "admission: {e}"),
            VmError::Tenancy(e) => write!(f, "tenancy: {e}"),
            VmError::Pin(e) => write!(f, "pin: {e}"),
        }
    }
}

impl From<PinError> for VmError {
    fn from(e: PinError) -> VmError {
        VmError::Pin(e)
    }
}

impl From<crate::multi::TenancyError> for VmError {
    fn from(e: crate::multi::TenancyError) -> VmError {
        VmError::Tenancy(e)
    }
}

impl Error for VmError {}

impl From<AdmissionError> for VmError {
    fn from(e: AdmissionError) -> VmError {
        VmError::Admission(e)
    }
}

impl From<LoadError> for VmError {
    fn from(e: LoadError) -> VmError {
        VmError::Load(e)
    }
}

impl From<KernelError> for VmError {
    fn from(e: KernelError) -> VmError {
        VmError::Kernel(e)
    }
}

/// Result of a completed run.
#[derive(Debug)]
pub struct RunResult {
    /// `main`'s return value.
    pub ret: i64,
    /// Performance counters.
    pub counters: PerfCounters,
    /// `print_*` output lines.
    pub output: Vec<String>,
    /// Runtime tracking statistics (escape histogram etc.).
    pub track_stats: TrackStats,
    /// Bytes of runtime tracking state at peak (Figure 6 numerator).
    pub tracking_bytes: usize,
    /// Peak live heap bytes (Figure 6 denominator component).
    pub peak_heap_bytes: u64,
    /// Kernel paging counters (Table 2).
    pub page_allocs: u64,
    /// Kernel page moves (Table 2).
    pub page_moves: u64,
    /// Pages at load (Table 2 "Initial Pages").
    pub initial_pages: u64,
    /// Static footprint bytes (Table 2).
    pub static_footprint: u64,
    /// DTLB hits (traditional mode).
    pub dtlb_hits: u64,
    /// DTLB misses (traditional mode).
    pub dtlb_misses: u64,
    /// STLB hits: DTLB misses answered without a walk (traditional mode).
    pub stlb_hits: u64,
    /// DTLB misses per 1000 instructions.
    pub dtlb_mpki: f64,
    /// Pagewalks performed (traditional mode).
    pub pagewalks: u64,
    /// Superinstruction execution statistics (fused engine only; zero for
    /// the other engines). Host-side observability — deliberately outside
    /// [`PerfCounters`], which must stay byte-identical across engines.
    pub fusion: FusionStats,
}

/// Why a bounded [`Vm::run_slice`] returned without error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceExit {
    /// `main` returned with this value; call [`Vm::finish_run`] to fold
    /// the final tracking state into a [`RunResult`].
    Finished(i64),
    /// The instruction budget expired at a safe boundary (never between a
    /// pointer store and its escape notification). The process is
    /// preempted, not finished: call [`Vm::run_slice`] again to continue.
    Quantum,
}

/// Result of [`Vm::check_integrity`]: a structural audit of the
/// allocation table, frame allocator, swap store, and region set.
/// Produced by [`Vm::run_checked`] after every run — successful or not —
/// so fault-injection tests can prove a typed error never left the
/// machine corrupted.
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Human-readable descriptions of every violated invariant (empty
    /// means the machine is consistent).
    pub violations: Vec<String>,
    /// Tracked allocations at audit time.
    pub allocations: usize,
    /// Page frames the buddy allocator accounts as in use.
    pub frames_in_use: u64,
    /// Live swap-store entries.
    pub swap_entries: usize,
}

impl IntegrityReport {
    /// Whether every structural invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An SSA register value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value {
    I(i64),
    F(f64),
    P(u64),
    Undef,
}

impl Value {
    fn as_i(self) -> i64 {
        match self {
            Value::I(x) => x,
            Value::P(p) => p as i64,
            Value::F(_) | Value::Undef => 0,
        }
    }
    fn as_f(self) -> f64 {
        match self {
            Value::F(x) => x,
            _ => 0.0,
        }
    }
    fn as_p(self) -> u64 {
        match self {
            Value::P(p) => p,
            Value::I(x) => x as u64,
            _ => 0,
        }
    }
}

pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) regs: Vec<Value>,
    pub(crate) block: BlockId,
    pub(crate) idx: usize,
    pub(crate) prev_block: Option<BlockId>,
    pub(crate) sp_base: u64,
    pub(crate) ret_to: Option<ValueId>,
    /// The current block's decoded code, pinned here so the hot fetch is
    /// one indexed load (kept in sync by `push_frame` and `jump`).
    pub(crate) code: std::rc::Rc<[DecodedInst]>,
}

/// A thread that is not currently executing.
pub(crate) struct ParkedThread {
    pub(crate) frames: Vec<Frame>,
    pub(crate) sp: u64,
    pub(crate) stack_base: u64,
}

/// Last-hit region cache for the guard fast path: the bounds, permissions
/// and probe count of the region the previous guard resolved to. Valid
/// only while `generation` matches the kernel's
/// [`RegionTable`](carat_runtime::RegionTable) generation (bumped on
/// every region change). Probe counts are cacheable because the regions
/// are disjoint and sorted: every address inside one region takes the
/// same search path — and therefore the same probe count — through each
/// guard implementation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GuardFastPath {
    pub(crate) generation: u64,
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) perms: carat_runtime::Perms,
    pub(crate) probes: u64,
}

impl GuardFastPath {
    /// The guard check every guard path makes (the fast tier's passing
    /// guard, and both checks of [`Core::exec_guard_access`]): a hit
    /// answers with the cached probe count; a miss runs `imp`'s full
    /// region check and, when it passes, refills the cache with the region
    /// it resolved to.
    #[inline(always)]
    pub(crate) fn probe(
        &mut self,
        regions: &RegionTable,
        imp: GuardImpl,
        addr: u64,
        len: u64,
        access: Access,
    ) -> GuardCheck {
        if self.covers(regions, addr, len, access) {
            return GuardCheck {
                ok: true,
                probes: self.probes,
            };
        }
        self.miss(regions, imp, addr, len, access)
    }

    /// [`GuardFastPath::probe`] past a cache miss. Out of line: a miss is
    /// rare (once per region change and tenant), and inlining the full
    /// region check into every guard arm of the dispatch loop costs the
    /// loop a register for its frame pointer.
    #[cold]
    #[inline(never)]
    fn miss(
        &mut self,
        regions: &RegionTable,
        imp: GuardImpl,
        addr: u64,
        len: u64,
        access: Access,
    ) -> GuardCheck {
        let check = regions.check(imp, addr, len, access);
        if check.ok {
            self.refill(regions, addr, check.probes);
        }
        check
    }

    /// Whether the cached region still stands (`regions` has not changed
    /// since the fill) and admits `access` to all of `[addr, addr+len)`.
    #[inline]
    fn covers(&self, regions: &RegionTable, addr: u64, len: u64, access: Access) -> bool {
        self.generation == regions.generation
            && addr >= self.start
            && addr < self.end
            && len > 0
            && addr.saturating_add(len) <= self.end
            && self.perms.allows(access)
    }

    /// Remember the region containing `addr` (which a check just accepted)
    /// together with the probe count that check charged.
    #[inline]
    fn refill(&mut self, regions: &RegionTable, addr: u64, probes: u64) {
        if let Some(r) = regions.containing(addr) {
            *self = GuardFastPath {
                generation: regions.generation,
                start: r.start,
                end: r.end(),
                perms: r.perms,
                probes,
            };
        }
    }
}

impl Default for GuardFastPath {
    fn default() -> GuardFastPath {
        // `generation` 0 never matches a live table (the loader's initial
        // `set_regions` bumps it to 1), so the empty cache never hits.
        GuardFastPath {
            generation: 0,
            start: 0,
            end: 0,
            perms: carat_runtime::Perms::R,
            probes: 0,
        }
    }
}

/// Lifecycle state of one thread slot.
pub(crate) enum ThreadState {
    /// This slot is the currently executing thread (its state lives in the
    /// [`TenantState`] fields).
    Current,
    /// Parked, waiting for its next time slice.
    Parked(ParkedThread),
    /// Finished with this result.
    Done(i64),
}

/// The virtual machine: one kernel, one allocation table, one tenant.
pub struct Vm {
    /// The simulated kernel (public for post-run inspection).
    pub kernel: SimKernel,
    /// The runtime allocation table (public for post-run inspection).
    pub table: AllocationTable,
    state: TenantState,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("mode", &self.state.cfg.mode)
            .field("cycles", &self.state.counters.cycles)
            .finish()
    }
}

/// Everything the interpreter keeps per tenant — frame stack, thread
/// slots, decoded-code handle, counters, driver cursors — and the only
/// declaration of it. A [`Vm`] is a kernel, an allocation table and one
/// of these; the fleet scheduler keeps one per descheduled tenant (the
/// table parks in the kernel's process table between slices) and runs a
/// slice by lending the engine the shared kernel, the checked-out table
/// and the slot's state in place — nothing is moved, cloned or rebuilt.
/// The guard fast path and translation caches ride along: the fast path
/// is only ever compared with this tenant's own process's region table,
/// whose generation moves with every edit — installed or parked — so a
/// cached region outlives a deschedule exactly when it is still true.
pub struct TenantState {
    pub(crate) cfg: VmConfig,
    pub(crate) image: ProcessImage,
    pub(crate) heap: HeapAllocator,
    pub(crate) tlb: TranslationUnit,
    pub(crate) counters: PerfCounters,
    pub(crate) output: Vec<String>,
    /// The module compiled to its flat executable form (also carries the
    /// per-function frame sizes and alloca offsets the reference engine
    /// reads). Shared: a fleet of tenants spawned from one module holds
    /// one decoded copy.
    pub(crate) program: Rc<DecodedProgram>,
    /// Reusable buffer for parallel phi-batch copies (decoded engine).
    pub(crate) phi_scratch: Vec<Value>,
    pub(crate) rng: u64,
    pub(crate) sp: u64,
    pub(crate) frames: Vec<Frame>,
    /// All thread slots (index = thread id); slot `cur_tid` is `Current`.
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) cur_tid: usize,
    /// Threads currently in [`ThreadState::Parked`] — maintained so the
    /// per-instruction scheduler gate and the fused engine's mid-pair
    /// bail check are one integer compare instead of a slot scan.
    /// (`Done` slots stay in `threads` forever; counting the parked ones
    /// lets a program whose workers have retired keep its fast path.)
    pub(crate) parked_threads: usize,
    /// Set by a blocking intrinsic (join on a live thread): the current
    /// instruction must not advance; the scheduler rotates instead.
    pub(crate) block_current: bool,
    /// Low bound of the current thread's stack (rebased on relocations).
    pub(crate) cur_stack_base: u64,
    pub(crate) access_counter: u64,
    pub(crate) next_move_at: u64,
    pub(crate) moves_done: u64,
    pub(crate) next_swap_at: u64,
    pub(crate) swaps_done: u64,
    pub(crate) peak_tracking_bytes: usize,
    /// Guard fast path: last-hit region (see [`GuardFastPath`]).
    pub(crate) guard_cache: GuardFastPath,
    /// Translation fast path (traditional mode): the last VPN that went
    /// through [`TranslationUnit::access`]. A repeat of the same VPN is a
    /// guaranteed DTLB hit (the entry was touched last and cannot have
    /// been evicted without an intervening different-VPN access), and a
    /// TLB hit is a mapped page (only a walk inserts, nothing unmaps), so
    /// the front cache charges the hit without the set walk.
    pub(crate) last_vpn: u64,
    /// Superinstruction execution statistics (fused engine).
    pub(crate) fusion: FusionStats,
    /// Recycled frame register files: `push_frame` reuses a retired
    /// frame's `regs` allocation instead of hitting the allocator on
    /// every call. Bounded by the deepest call stack seen.
    pub(crate) regs_pool: Vec<Vec<Value>>,
    /// Next scheduler-rotation point in retired instructions (see
    /// `grant_quantum`); meaningful only while a thread is
    /// parked. Forced to 0 by a blocked join so the scheduler rotates at
    /// the next boundary.
    pub(crate) next_rotate_at: u64,
    /// Cached bail threshold in retired instructions: the next rotation
    /// point while any thread is parked, `max_steps` otherwise. Folded so
    /// [`TenantState::fusion_bail`] is two compares on the hot path.
    pub(crate) bail_insts_at: u64,
    /// Cached bail threshold in cycles: the earliest of the next due
    /// move driver, the next due swap driver, and the cycle limit.
    pub(crate) bail_cycles_at: u64,
    /// Instruction count at which the current [`Vm::run_slice`] quantum
    /// expires (`u64::MAX` outside a bounded slice). Folded into
    /// `bail_insts_at` so the fused engine bails out of superinstruction
    /// pairs at slice boundaries exactly as it does at rotation points.
    pub(crate) slice_limit: u64,
    /// Cycle count at which the current [`Vm::run_slice_cycles`] deadline
    /// expires (`u64::MAX` outside a timer slice) — the CLINT-style
    /// `mtimecmp` comparator seen from inside the VM. Folded into
    /// `bail_cycles_at` the same way `slice_limit` folds into
    /// `bail_insts_at`.
    pub(crate) slice_cycle_limit: u64,
}

impl fmt::Debug for TenantState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantState")
            .field("mode", &self.cfg.mode)
            .field("cycles", &self.counters.cycles)
            .finish()
    }
}

impl TenantState {
    /// Fresh state for a loaded process, around an already-decoded
    /// (possibly shared) program: thousands of tenants spawned from one
    /// module hold one decoded copy. `cost` is the cost model of the
    /// kernel the tenant will run on (it sizes the TLBs).
    pub(crate) fn new(
        image: ProcessImage,
        cfg: VmConfig,
        program: Rc<DecodedProgram>,
        cost: &CostModel,
    ) -> TenantState {
        debug_assert!(
            program.decoded_for(cfg.engine, cfg.threaded),
            "program decoded for a different engine than the tenant runs"
        );
        let mut state = TenantState {
            heap: HeapAllocator::new(image.heap.0, image.heap.1),
            tlb: TranslationUnit::new(cost),
            counters: PerfCounters::default(),
            output: Vec::new(),
            program,
            phi_scratch: Vec::new(),
            rng: cfg.seed | 1,
            sp: image.stack_top(),
            frames: Vec::new(),
            threads: vec![ThreadState::Current],
            cur_tid: 0,
            parked_threads: 0,
            block_current: false,
            cur_stack_base: image.stack.0,
            access_counter: 0,
            next_move_at: cfg.move_driver.map(|d| d.period_cycles).unwrap_or(u64::MAX),
            moves_done: 0,
            next_swap_at: cfg.swap_driver.map(|d| d.period_cycles).unwrap_or(u64::MAX),
            swaps_done: 0,
            peak_tracking_bytes: 0,
            guard_cache: GuardFastPath::default(),
            last_vpn: u64::MAX,
            fusion: FusionStats::default(),
            regs_pool: Vec::new(),
            next_rotate_at: 0,
            bail_insts_at: 0,
            bail_cycles_at: 0,
            slice_limit: u64::MAX,
            slice_cycle_limit: u64::MAX,
            image,
            cfg,
        };
        state.recompute_bail();
        state
    }

    /// Whether a fused pair must split between its components: the run
    /// loop would (or might) need control between the two instructions —
    /// another runnable thread exists, the step or cycle limit has been
    /// reached, or a move/swap driver is due. Conservative and always
    /// safe: a bail leaves the frame index on the tail slot, which holds
    /// the original unfused instruction, so execution resumes unfused at
    /// the exact component boundary.
    #[inline]
    fn fusion_bail(&self) -> bool {
        self.counters.instructions >= self.bail_insts_at
            || self.counters.cycles >= self.bail_cycles_at
    }

    /// Refold the bail thresholds after anything they depend on changes:
    /// the parked-thread count (spawn, scheduler switch) or a driver's
    /// next due point. `parked_threads > 0` folds to an instruction
    /// threshold of the next rotation boundary (the scheduler may need
    /// control there); the cycle threshold is the earliest due driver or the
    /// cycle limit (`> max_cycles` becomes `>= max_cycles + 1`,
    /// saturating: a limit of `u64::MAX` stays unreachable in any run
    /// that could ever retire it).
    fn recompute_bail(&mut self) {
        let base = if self.parked_threads > 0 {
            self.next_rotate_at.min(self.cfg.max_steps)
        } else {
            self.cfg.max_steps
        };
        // A bounded scheduler slice is one more instruction boundary the
        // run loop needs control at; outside a slice this folds to
        // `u64::MAX` and changes nothing.
        self.bail_insts_at = base.min(self.slice_limit);
        // A timer slice is a cycle boundary the loop needs control at,
        // exactly as the move/swap drivers are; outside one it folds to
        // `u64::MAX` and changes nothing.
        self.bail_cycles_at = self
            .next_move_at
            .min(self.next_swap_at)
            .min(self.slice_cycle_limit)
            .min(self.cfg.max_cycles.saturating_add(1));
    }

    /// The tenant's live performance counters (the differential
    /// comparison target — kernel-side scheduling charges never appear
    /// here).
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// The tenant's live image (globals patched by moves, stack rebased).
    pub fn image(&self) -> &ProcessImage {
        &self.image
    }

    /// The tenant's VM configuration — the host-side half of an
    /// externalized capsule (the serialized image deliberately excludes
    /// it; see [`TenantState::externalize`]).
    pub fn config(&self) -> &VmConfig {
        &self.cfg
    }

    /// The tenant's decoded program handle (shared across the fleet;
    /// never serialized).
    pub fn program(&self) -> &Rc<DecodedProgram> {
        &self.program
    }

    /// Approximate heap bytes this descheduled tenant pins on the host:
    /// frame stack, thread slots, register pools, buffered output. The
    /// decoded program is shared across the fleet and the capsule lives
    /// in kernel physical memory, so neither is charged here. The fleet
    /// bench uses this to show per-descheduled-tenant overhead is
    /// O(tenant size), not O(fleet size).
    pub fn footprint_bytes(&self) -> usize {
        let frame_bytes = |frames: &[Frame]| -> usize {
            frames
                .iter()
                .map(|f| f.regs.capacity() * std::mem::size_of::<Value>())
                .sum::<usize>()
                + std::mem::size_of_val(frames)
        };
        let mut bytes = std::mem::size_of::<TenantState>();
        bytes += frame_bytes(&self.frames);
        bytes += self.threads.len() * std::mem::size_of::<ThreadState>();
        for t in &self.threads {
            if let ThreadState::Parked(p) = t {
                bytes += frame_bytes(&p.frames);
            }
        }
        bytes += self
            .regs_pool
            .iter()
            .map(|r| r.capacity() * std::mem::size_of::<Value>())
            .sum::<usize>();
        bytes += self.output.iter().map(|s| s.capacity()).sum::<usize>();
        bytes += self.phi_scratch.capacity() * std::mem::size_of::<Value>();
        bytes += self.image.globals.capacity() * std::mem::size_of::<u64>();
        bytes
    }
}

/// The engine's view of one running tenant: the kernel it runs on, its
/// allocation table, and its interpreter state, all borrowed. A [`Vm`]
/// lends its own three fields; the fleet scheduler lends the shared
/// kernel, the tenant's checked-out table and the slot's state.
pub(crate) struct Core<'a> {
    pub(crate) kernel: &'a mut SimKernel,
    pub(crate) table: &'a mut AllocationTable,
    pub(crate) t: &'a mut TenantState,
}

/// The running thread's innermost frame. A running VM always has one:
/// `start` and `spawn_thread` push a frame before the thread's first
/// `step`, and the `Ret` that pops a thread's last frame ends it.
#[inline]
fn frame(frames: &[Frame]) -> &Frame {
    frames.last().expect("a running thread has a frame")
}

/// Mutable twin of [`frame`].
#[inline]
fn frame_mut(frames: &mut [Frame]) -> &mut Frame {
    frames.last_mut().expect("a running thread has a frame")
}

impl Vm {
    /// Create a VM over a fresh kernel and load `module` into it
    /// (unsigned path; use [`Vm::load_signed`] for the full trust chain).
    ///
    /// # Errors
    ///
    /// Propagates loader failures.
    pub fn new(module: Module, cfg: VmConfig) -> Result<Vm, VmError> {
        let mut kernel = SimKernel::new(512 * 1024 * 1024);
        if let Some(plan) = cfg.fault_plan.clone() {
            kernel.install_fault_plan(plan);
        }
        let mut table = AllocationTable::new();
        let image = kernel.load_unsigned(module, &mut table, cfg.load)?;
        Ok(Vm::from_parts(kernel, table, image, cfg))
    }

    /// Create a VM from a signed module, verifying the trust chain.
    ///
    /// # Errors
    ///
    /// Signature, parse, verify, or memory failures.
    pub fn load_signed(
        signed: &carat_core::SignedModule,
        trusted: Vec<carat_core::SigningKey>,
        cfg: VmConfig,
    ) -> Result<Vm, VmError> {
        let mut kernel = SimKernel::new(512 * 1024 * 1024);
        // The plan must be live before `load` so faults can target the
        // trust chain (signature corruption in flight).
        if let Some(plan) = cfg.fault_plan.clone() {
            kernel.install_fault_plan(plan);
        }
        for k in trusted {
            kernel.trust(k);
        }
        let mut table = AllocationTable::new();
        let image = kernel.load(signed, &mut table, cfg.load)?;
        Ok(Vm::from_parts(kernel, table, image, cfg))
    }

    /// Assemble a VM from an already-loaded process: a kernel, the
    /// allocation table the loader populated, and the image it produced.
    pub fn from_parts(
        kernel: SimKernel,
        table: AllocationTable,
        image: ProcessImage,
        cfg: VmConfig,
    ) -> Vm {
        let program = Rc::new(DecodedProgram::decode_for(
            &image.module,
            cfg.engine,
            cfg.threaded,
        ));
        let state = TenantState::new(image, cfg, program, &kernel.cost);
        Vm::from_tenant(kernel, table, state)
    }

    /// Take this VM apart into its kernel, allocation table and
    /// [`TenantState`] — three field moves.
    pub fn into_tenant(self) -> (SimKernel, AllocationTable, TenantState) {
        (self.kernel, self.table, self.state)
    }

    /// The other half of [`Vm::into_tenant`]: a runnable VM over `kernel`,
    /// `table` and `state`. The caches inside the state (guard fast path,
    /// TLB) self-invalidate against the kernel's region table on first use.
    pub fn from_tenant(kernel: SimKernel, table: AllocationTable, state: TenantState) -> Vm {
        Vm {
            kernel,
            table,
            state,
        }
    }

    fn core(&mut self) -> Core<'_> {
        Core {
            kernel: &mut self.kernel,
            table: &mut self.table,
            t: &mut self.state,
        }
    }

    /// The loaded image.
    pub fn image(&self) -> &ProcessImage {
        &self.state.image
    }

    /// The performance counters accumulated so far (live view — useful
    /// between scheduler slices, before [`Vm::finish_run`]).
    pub fn counters(&self) -> &PerfCounters {
        &self.state.counters
    }

    /// Run `main` to completion.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run(mut self) -> Result<RunResult, VmError> {
        self.core().run()
    }

    /// Run `main` to completion, then audit the machine's structural
    /// integrity — whatever the outcome. This is the fault-soak
    /// entry point: a run that dies with a typed error must still leave
    /// the allocation table, frame allocator, and swap store consistent,
    /// and the report proves (or disproves) that.
    pub fn run_checked(mut self) -> (Result<RunResult, VmError>, IntegrityReport) {
        let result = self.core().run();
        let report = self.check_integrity();
        (result, report)
    }

    /// Push `main`'s frame, making the VM runnable. Call once before the
    /// first [`Vm::run_slice`]; [`Vm::run`] does this internally.
    ///
    /// # Errors
    ///
    /// [`VmError::Trap`] when the module has no `main` or its frame does
    /// not fit the stack.
    pub fn start(&mut self) -> Result<(), VmError> {
        self.core().start()
    }

    /// Run for at most `budget` more retired instructions, stopping at
    /// the first safe boundary at or past the budget — the scheduler
    /// quantum primitive. Semantics and accounting are identical to an
    /// uninterrupted run: a preempted VM resumed by further slices
    /// retires the same instruction stream and charges the same cycles
    /// as [`Vm::run`] would in one pass (the multi-process differential
    /// suite enforces this).
    ///
    /// # Errors
    ///
    /// See [`VmError`]; the slice bound is always unwound first, so a
    /// failed slice leaves the VM consistent for inspection.
    pub fn run_slice(&mut self, budget: u64) -> Result<SliceExit, VmError> {
        self.core().run_slice(budget)
    }

    /// Run until the modeled cycle counter reaches `deadline` — the
    /// timer-interrupt primitive. The CLINT-style timer arms `deadline`
    /// as its `mtimecmp`; the slice loop observes `cycles >= deadline`
    /// at the first safe boundary past it and returns
    /// [`SliceExit::Quantum`], exactly as an instruction quantum would.
    /// The same signals-masked deferrals apply (pending escape
    /// notifications, mid-flight fused pairs), and the gap between the
    /// deadline and the cycle count at the exit *is* the
    /// interrupt-to-dispatch latency the timer device records.
    ///
    /// A `deadline` at or before the current cycle count preempts at the
    /// first safe boundary (one interrupt, not a livelock: every step
    /// retires at least one cycle).
    ///
    /// # Errors
    ///
    /// See [`VmError`]; identical surface to [`Vm::run_slice`].
    pub fn run_slice_cycles(&mut self, deadline: u64) -> Result<SliceExit, VmError> {
        self.core().run_slice_cycles(deadline)
    }

    /// Fold the final tracking state into a [`RunResult`] after
    /// [`Vm::run_slice`] returned [`SliceExit::Finished`].
    pub fn finish_run(&mut self, ret: i64) -> RunResult {
        self.core().finish_run(ret)
    }

    /// Structural audit of the machine's memory-management state. Checks
    /// hold at any quiescent point — including right after a failed run —
    /// because every kernel error path rolls back or aborts first:
    ///
    /// * tracked allocations are disjoint (no move landed on live data);
    /// * the frame allocator's usage accounting is within the arena;
    /// * the swap store is sound and agrees with the table
    ///   ([`SimKernel::audit_swap`]);
    /// * kernel regions are well-formed.
    pub fn check_integrity(&self) -> IntegrityReport {
        let mut violations = Vec::new();
        // Allocation disjointness over the table in start order. Poisoned
        // (swapped-out) allocations live in disjoint per-slot windows and
        // participate like any others.
        let allocs: Vec<(u64, u64)> = self
            .table
            .below(u64::MAX)
            .map(|(start, info)| (start, info.len))
            .collect();
        for w in allocs.windows(2) {
            let (a_start, a_len) = w[0];
            let (b_start, _) = w[1];
            if a_start + a_len > b_start {
                violations.push(format!(
                    "allocations overlap: [{a_start:#x},+{a_len:#x}) and {b_start:#x}"
                ));
            }
        }
        let in_use = self.kernel.buddy.pages_in_use;
        let total = self.kernel.buddy.total_pages();
        if in_use > total {
            violations.push(format!(
                "frame allocator accounts {in_use} pages in use of {total}"
            ));
        }
        violations.extend(self.kernel.audit_swap(&self.table));
        for r in self.kernel.space.regions.regions() {
            if r.len == 0 || r.start.checked_add(r.len).is_none() {
                violations.push(format!("malformed region [{:#x},+{:#x})", r.start, r.len));
            }
        }
        IntegrityReport {
            allocations: allocs.len(),
            frames_in_use: in_use,
            swap_entries: self.kernel.swapped_ranges(),
            violations,
        }
    }
}

// The engine. `run`, `start`, `run_slice`, `run_slice_cycles` and
// `finish_run` are documented on the public [`Vm`] methods that delegate
// here; the fleet scheduler calls them on its own view.
impl Core<'_> {
    fn run(&mut self) -> Result<RunResult, VmError> {
        self.start()?;
        match self.run_slice(u64::MAX)? {
            SliceExit::Finished(v) => Ok(self.finish_run(v)),
            // An unbounded slice cannot expire: the budget saturates to
            // `u64::MAX` retired instructions, unreachable under any
            // `max_steps`.
            SliceExit::Quantum => Err(VmError::Trap("unbounded slice expired".into())),
        }
    }

    pub(crate) fn start(&mut self) -> Result<(), VmError> {
        let main = self
            .t
            .image
            .module
            .main()
            .ok_or_else(|| VmError::Trap("no main function".into()))?;
        self.push_frame(main, &[], None)
    }

    pub(crate) fn run_slice(&mut self, budget: u64) -> Result<SliceExit, VmError> {
        self.t.slice_limit = self.t.counters.instructions.saturating_add(budget);
        self.t.recompute_bail();
        let out = self.run_slice_inner();
        self.t.slice_limit = u64::MAX;
        self.t.recompute_bail();
        out
    }

    pub(crate) fn run_slice_cycles(&mut self, deadline: u64) -> Result<SliceExit, VmError> {
        self.t.slice_cycle_limit = deadline;
        self.t.recompute_bail();
        let out = self.run_slice_inner();
        self.t.slice_cycle_limit = u64::MAX;
        self.t.recompute_bail();
        out
    }

    fn run_slice_inner(&mut self) -> Result<SliceExit, VmError> {
        loop {
            // Slice expiry first: like a world-stop, preemption may not
            // land between a pointer store and its escape callback —
            // defer to the next boundary once the notification is in.
            // Instruction quanta and cycle deadlines share one exit; a
            // scheduler arms whichever preemption source it uses.
            if (self.t.counters.instructions >= self.t.slice_limit
                || self.t.counters.cycles >= self.t.slice_cycle_limit)
                && !self.t.tracking_owed()
            {
                return Ok(SliceExit::Quantum);
            }
            // Step limit in retired instructions: every `step()` call
            // retires at least one (a blocked join still counts, exactly
            // as before), and a fused pair retires two — so this check is
            // equivalent to the old per-iteration counter for the unfused
            // engines and exact for the fused one, which bails out of a
            // pair the moment the limit is reached.
            if self.t.counters.instructions >= self.t.cfg.max_steps
                || self.t.counters.cycles > self.t.cfg.max_cycles
            {
                return Err(VmError::StepLimit);
            }
            if let Some(v) = self.step()? {
                if self.t.cur_tid == 0 {
                    // Main returned: the process ends (any still-running
                    // threads are abandoned, as on a real exit()).
                    return Ok(SliceExit::Finished(v));
                }
                self.t.threads[self.t.cur_tid] = ThreadState::Done(v);
                self.t.counters.cycles += self.kernel.cost.call;
                if !self.t.rotate(true)? {
                    return Err(VmError::Trap("all threads finished but main".into()));
                }
                self.t.grant_quantum();
                continue;
            }
            if self.t.counters.cycles >= self.t.next_move_at && !self.t.tracking_owed() {
                // A world-stop may not land between a pointer store and its
                // escape callback (the instrumentation stub runs with
                // signals masked in a real CARAT); defer until the
                // notification has been delivered.
                self.drive_move()?;
            }
            if self.t.counters.cycles >= self.t.next_swap_at && !self.t.tracking_owed() {
                self.drive_swap()?;
            }
            // Rotation can only change state when a parked thread exists;
            // gating on the parked count (not `threads.len()`, which keeps
            // `Done` slots forever) skips the no-op scan once every worker
            // has retired. With a parked thread, switch only at quantum
            // boundaries — per-instruction context switching is neither
            // realistic nor cheap (it dominated the threaded workloads).
            if self.t.parked_threads > 0
                && self.t.counters.instructions >= self.t.next_rotate_at
                && !self.t.tracking_owed()
            {
                self.t.rotate(false)?;
                self.t.grant_quantum();
            }
        }
    }

    pub(crate) fn finish_run(&mut self, ret: i64) -> RunResult {
        // End of program: final escape flush and histogram fold.
        self.flush_escapes();
        self.table.finish();
        self.note_tracking_bytes();
        let mpki = self.t.tlb.dtlb_mpki(self.t.counters.instructions);
        RunResult {
            ret,
            output: std::mem::take(&mut self.t.output),
            track_stats: self.table.stats.clone(),
            tracking_bytes: self.t.peak_tracking_bytes,
            peak_heap_bytes: self.t.heap.peak_bytes,
            page_allocs: self.kernel.trace.allocs,
            page_moves: self.kernel.trace.moves,
            initial_pages: self.t.image.initial_pages,
            static_footprint: self.t.image.static_footprint,
            dtlb_hits: self.t.tlb.dtlb.hits,
            dtlb_misses: self.t.tlb.dtlb.misses,
            stlb_hits: self.t.tlb.stlb.hits,
            dtlb_mpki: mpki,
            pagewalks: self.t.tlb.pagewalks,
            fusion: self.t.fusion.clone(),
            counters: self.t.counters.clone(),
        }
    }

    fn push_frame(
        &mut self,
        func: FuncId,
        args: &[Value],
        ret_to: Option<ValueId>,
    ) -> Result<(), VmError> {
        let f = self.t.image.module.func(func);
        let fsize = self.t.program.funcs[func.index()].frame_size;
        if self.t.sp < fsize {
            return Err(VmError::Trap("stack exhausted".into()));
        }
        let sp_base = self.t.sp - fsize;
        // Without guards (baseline builds) nothing checks the stack bound;
        // physical addressing means an overflow would silently clobber
        // neighboring memory — exactly the protection CARAT's call guards
        // reintroduce. Trap loudly in the simulator instead.
        if sp_base < self.t.cur_stack_base {
            return Err(VmError::Trap(
                "stack overflow (no call guards to trigger expansion)".into(),
            ));
        }
        // Traditional model: the kernel grows the stack transparently; in
        // CARAT the call guard checked this range already.
        self.t.sp = sp_base;
        let mut regs = self.t.regs_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(f.num_values(), Value::Undef);
        regs[..args.len()].copy_from_slice(args);
        let entry = f.entry();
        self.t.frames.push(Frame {
            func,
            regs,
            block: entry,
            idx: 0,
            prev_block: None,
            sp_base,
            ret_to,
            code: self.t.program.funcs[func.index()].blocks[entry.index()]
                .code
                .clone(),
        });
        self.t.counters.calls += 1;
        self.t.counters.cycles += self.kernel.cost.call;
        Ok(())
    }

    /// Retire the current frame with return value `out` — the `Ret` of
    /// every engine: release its stack, recycle its register file, and
    /// deliver `out` to the caller's destination register. Returns
    /// `Some(ret)` when it was the thread's last frame.
    fn ret(&mut self, out: Option<Value>) -> Option<i64> {
        let done = self.t.frames.pop().expect("a running thread has a frame");
        self.t.sp = done.sp_base + self.t.program.funcs[done.func.index()].frame_size;
        self.t.counters.cycles += self.kernel.cost.branch;
        self.t.regs_pool.push(done.regs);
        let Some(parent) = self.t.frames.last_mut() else {
            return Some(out.map(Value::as_i).unwrap_or(0));
        };
        if let (Some(dst), Some(val)) = (done.ret_to, out) {
            parent.regs[dst.index()] = val;
        }
        None
    }

    /// Execute one instruction (or, on a decoded stream, one batch of
    /// them); returns `Some(ret)` when `main` returns.
    fn step(&mut self) -> Result<Option<i64>, VmError> {
        match self.t.cfg.engine {
            Engine::Reference => self.step_reference(),
            Engine::Decoded | Engine::Fused | Engine::Threaded => self.step_decoded(),
        }
    }

    /// Reference engine: clone each instruction out of the IR arena. Kept
    /// byte-for-byte semantically identical to the decoded fast path; any
    /// observable divergence between the two is a bug.
    fn step_reference(&mut self) -> Result<Option<i64>, VmError> {
        let fr = frame(&self.t.frames);
        let fid = fr.func;
        let f = self.t.image.module.func(fid);
        let block = fr.block;
        let insts = &f.block(block).insts;
        let v = insts[fr.idx];
        let inst = f
            .inst(v)
            .ok_or_else(|| VmError::Trap(format!("block {block} lists unplaced value {v}")))?
            .clone();
        self.t.counters.instructions += 1;
        self.t.counters.opcode_mix.record(inst.opcode());
        let cost = &self.kernel.cost;

        macro_rules! frame_mut {
            () => {
                frame_mut(&mut self.t.frames)
            };
        }
        macro_rules! reg {
            ($v:expr) => {
                frame(&self.t.frames).regs[$v.index()]
            };
        }

        match inst {
            Inst::Const(c) => {
                let val = match c {
                    Const::Int(x, w) => Value::I(w.wrap(x)),
                    Const::F64(x) => Value::F(x),
                    Const::Null => Value::P(0),
                    Const::GlobalAddr(g) => Value::P(self.t.image.globals[g.index()]),
                };
                frame_mut!().regs[v.index()] = val;
                frame_mut!().idx += 1;
            }
            Inst::Alloca(_) => {
                let off = self.t.program.funcs[fid.index()].alloca_offset(v.index());
                let addr = frame(&self.t.frames).sp_base + off;
                self.t.counters.cycles += self.kernel.cost.alu;
                frame_mut!().regs[v.index()] = Value::P(addr);
                frame_mut!().idx += 1;
            }
            Inst::Load { ty, addr } => {
                let a = reg!(addr).as_p();
                let size = ty.size();
                let paddr = self.data_access(a, size, false)?;
                let val = match ty {
                    Type::F64 => Value::F(self.kernel.mem.read_f64(paddr)),
                    Type::Ptr => Value::P(self.kernel.mem.read_uint(paddr, 8)),
                    Type::Int(w) => Value::I(w.wrap(self.kernel.mem.read_uint(paddr, size) as i64)),
                    _ => return Err(VmError::Trap("load of aggregate".into())),
                };
                self.t.counters.loads += 1;
                frame_mut!().regs[v.index()] = val;
                frame_mut!().idx += 1;
            }
            Inst::Store { ty, addr, value } => {
                let a = reg!(addr).as_p();
                let size = ty.size();
                let paddr = self.data_access(a, size, true)?;
                // Read the value register only AFTER the access resolved:
                // a poison address triggers a page-in world-stop inside
                // `data_access`, which patches registers — a value read
                // earlier would be stale.
                let x = reg!(value);
                match ty {
                    Type::F64 => self.kernel.mem.write_f64(paddr, x.as_f()),
                    Type::Ptr => self.kernel.mem.write_uint(paddr, x.as_p(), 8),
                    Type::Int(_) => self.kernel.mem.write_uint(paddr, x.as_i() as u64, size),
                    _ => return Err(VmError::Trap("store of aggregate".into())),
                }
                self.t.counters.stores += 1;
                frame_mut!().idx += 1;
            }
            Inst::PtrAdd { base, index, elem } => {
                let b = reg!(base).as_p();
                let i = reg!(index).as_i();
                let addr = b.wrapping_add((i.wrapping_mul(elem.stride() as i64)) as u64);
                self.t.counters.cycles += cost.alu;
                frame_mut!().regs[v.index()] = Value::P(addr);
                frame_mut!().idx += 1;
            }
            Inst::FieldAddr {
                base,
                struct_ty,
                field,
            } => {
                let b = reg!(base).as_p();
                let addr = b.wrapping_add(struct_ty.field_offset(field as usize));
                self.t.counters.cycles += cost.alu;
                frame_mut!().regs[v.index()] = Value::P(addr);
                frame_mut!().idx += 1;
            }
            Inst::Bin { op, lhs, rhs } => {
                let width = self
                    .t
                    .image
                    .module
                    .func(fid)
                    .value_type(lhs)
                    .and_then(|t| t.int_width())
                    .unwrap_or(IntTy::I64);
                let out = self.eval_bin(op, reg!(lhs), reg!(rhs), width)?;
                frame_mut!().regs[v.index()] = out;
                frame_mut!().idx += 1;
            }
            Inst::Icmp { pred, lhs, rhs } => {
                let (a, b) = (reg!(lhs), reg!(rhs));
                let r = match (a, b) {
                    (Value::P(x), _) | (_, Value::P(x)) => {
                        let _ = x;
                        icmp_u(pred, a.as_p(), b.as_p())
                    }
                    _ => icmp_i(pred, a.as_i(), b.as_i()),
                };
                self.t.counters.cycles += self.kernel.cost.alu;
                frame_mut!().regs[v.index()] = Value::I(r as i64);
                frame_mut!().idx += 1;
            }
            Inst::Fcmp { pred, lhs, rhs } => {
                let (a, b) = (reg!(lhs).as_f(), reg!(rhs).as_f());
                let r = match pred {
                    Pred::Eq => a == b,
                    Pred::Ne => a != b,
                    Pred::Slt | Pred::Ult => a < b,
                    Pred::Sle => a <= b,
                    Pred::Sgt => a > b,
                    Pred::Sge | Pred::Uge => a >= b,
                };
                self.t.counters.cycles += self.kernel.cost.fpu;
                frame_mut!().regs[v.index()] = Value::I(r as i64);
                frame_mut!().idx += 1;
            }
            Inst::Cast { kind, value, to } => {
                let x = reg!(value);
                let out = match kind {
                    CastKind::Sext | CastKind::Zext | CastKind::Trunc => {
                        let w = to.int_width().unwrap_or(IntTy::I64);
                        Value::I(w.wrap(x.as_i()))
                    }
                    CastKind::SiToFp => Value::F(x.as_i() as f64),
                    CastKind::FpToSi => Value::I(x.as_f() as i64),
                    CastKind::PtrToInt => Value::I(x.as_p() as i64),
                    CastKind::IntToPtr => Value::P(x.as_i() as u64),
                };
                self.t.counters.cycles += self.kernel.cost.alu;
                frame_mut!().regs[v.index()] = out;
                frame_mut!().idx += 1;
            }
            Inst::Select {
                cond,
                if_true,
                if_false,
            } => {
                let c = reg!(cond).as_i() != 0;
                let out = if c { reg!(if_true) } else { reg!(if_false) };
                self.t.counters.cycles += self.kernel.cost.alu;
                frame_mut!().regs[v.index()] = out;
                frame_mut!().idx += 1;
            }
            Inst::Phi { .. } => {
                // Phis are handled en bloc at block entry; reaching one here
                // means we are at the block head: evaluate all phis in
                // parallel against prev_block.
                self.exec_phis()?;
            }
            Inst::Call { callee, args, .. } => {
                // Args buffered on the stack: no per-call heap allocation
                // for the common arity (the `Vec` path is the overflow).
                let mut buf = [Value::Undef; 16];
                let mut heap = Vec::new();
                let argv: &[Value] = if args.len() <= buf.len() {
                    for (slot, &a) in buf.iter_mut().zip(args.iter()) {
                        *slot = reg!(a);
                    }
                    &buf[..args.len()]
                } else {
                    heap.extend(args.iter().map(|&a| reg!(a)));
                    &heap
                };
                frame_mut!().idx += 1; // return lands after the call
                self.push_frame(callee, argv, Some(v))?;
            }
            Inst::CallIntrinsic { intr, args } => {
                let argv: Vec<Value> = args.iter().map(|&a| reg!(a)).collect();
                let out = self.exec_intrinsic(intr, &argv)?;
                if self.t.block_current {
                    // A blocking intrinsic (join): leave the instruction
                    // pointer in place; the run loop's scheduler rotates
                    // away and this instruction re-executes later.
                    self.t.block_current = false;
                    self.t.counters.cycles += self.kernel.cost.branch;
                    return Ok(None);
                }
                if let Some(x) = out {
                    frame_mut!().regs[v.index()] = x;
                }
                frame_mut!().idx += 1;
            }
            Inst::Jmp { target } => {
                self.t.counters.cycles += self.kernel.cost.branch;
                self.jump(block, target);
            }
            Inst::Br {
                cond,
                if_true,
                if_false,
            } => {
                let c = reg!(cond).as_i() != 0;
                self.t.counters.cycles += self.kernel.cost.branch;
                self.jump(block, if c { if_true } else { if_false });
            }
            Inst::Ret { value } => {
                let out = value.map(|x| reg!(x));
                return Ok(self.ret(out));
            }
            Inst::Unreachable => {
                return Err(VmError::Trap("unreachable executed".into()));
            }
        }
        Ok(None)
    }

    /// Decoded engines: execute from the flat pre-resolved stream. No
    /// cloning, no arena walk, no hash lookups — a decoded instruction is
    /// `Copy` and carries its operand register slots, immediates and
    /// resolved offsets inline. One loop serves every decode recipe:
    /// superinstructions and threaded-tier ops are arms that only streams
    /// decoded for those engines reach.
    ///
    /// Dispatch is two-tiered. The **fast tier** runs everything that
    /// cannot stop the world — register-only instructions, loads and
    /// stores to resolved (non-poison) addresses, and guards that pass
    /// (last-hit cache or a fresh region check) — under one sustained
    /// borrow ([`Fast`]) of the disjoint fields they touch, so the
    /// per-instruction frame re-borrow disappears and the hot counters can
    /// live in registers. Anything that needs the whole `&mut self` —
    /// calls, intrinsics, returns, and a guard that does not pass or an
    /// access to a poison (swapped-out) address, whose page-in world-stop
    /// patches arbitrary state — breaks to the **slow tier**: a
    /// full-`self` dispatch of that one instruction. An arm that breaks
    /// does so before it accounts anything, so the slow tier records the
    /// instruction exactly once.
    ///
    /// Which [`DecodedInst`] variants have an arm in which tier:
    ///
    /// | tier | variants |
    /// |---|---|
    /// | fast only | `ConstI` `ConstF` `ConstNull` `ConstGlobal` `Alloca` `PtrAdd` `FieldAddr` `Bin` `Icmp` `Fcmp` `Cast` `Select` `PhiBatch` `Jmp` `Br`; every register-only pair (`FusedIcmpBr` `FusedBinBin` `FusedPtrAddConst`); the address + access pairs (`FusedPtrAddLoad` `FusedPtrAddStore` `FusedFieldLoad` `FusedFieldStore`); `ElidedGuard` |
    /// | both (fast arm, slow arm when it declines) | `Load` `Store` (poison address); `Guard` `FusedGuardLoad` `FusedGuardStore` (guard does not pass) |
    /// | slow only | `Call` `Intrinsic` `Ret` `Unreachable` `TrapAggregate` `HoistedGuard` |
    ///
    /// Every instruction that can be half of a fused pair has one body (a
    /// [`Fast`] method or a `*_slow` method) holding its accounting, its
    /// effect and its cursor advance. A plain arm calls it; a fused arm is
    /// *first component, bail test, count the pair, second component*
    /// over the same bodies, so fused execution charges what unfused
    /// execution does by construction. When the bail test fires, or the
    /// access address of a pair with a memory tail is poison, the arm
    /// leaves with the frame index already on the tail slot — which holds
    /// the original unfused instruction — and the pair retires unfused at
    /// the exact component boundary, uncounted. A guard pair whose guard
    /// does not pass breaks before anything is accounted; the slow tier
    /// runs only its guard component, and the tail slot follows unfused.
    ///
    /// Dispatch is batched: keep executing until
    /// [`TenantState::fusion_bail`] reports that the run loop could need
    /// control (a parked thread to rotate to, a step/cycle limit, a due
    /// move/swap driver). Between two instructions where none of those
    /// hold, a run-loop iteration is a provable no-op, so skipping it
    /// changes host time only.
    fn step_decoded(&mut self) -> Result<Option<i64>, VmError> {
        loop {
            // --- fast tier: register-only ops, one sustained borrow ---
            {
                let TenantState {
                    frames,
                    counters,
                    tlb,
                    program,
                    image,
                    fusion,
                    phi_scratch,
                    cfg,
                    access_counter,
                    last_vpn,
                    bail_insts_at,
                    bail_cycles_at,
                    guard_cache,
                    ..
                } = &mut *self.t;
                let mut f = Fast {
                    fr: frame_mut(frames),
                    counters,
                    kernel: &mut *self.kernel,
                    tlb,
                    program,
                    fusion,
                    access_counter,
                    last_vpn,
                    guard_cache,
                    mode: cfg.mode,
                    guard_impl: cfg.guard_impl,
                    bail_insts_at: *bail_insts_at,
                    bail_cycles_at: *bail_cycles_at,
                };
                loop {
                    match f.fr.code[f.fr.idx] {
                        DecodedInst::ConstI { dst, val } => f.konst(dst, Value::I(val)),
                        DecodedInst::ConstF { dst, val } => f.konst(dst, Value::F(val)),
                        DecodedInst::ConstNull { dst } => f.konst(dst, Value::P(0)),
                        // Globals relocate (moves, swaps): always read the
                        // current address out of the image.
                        DecodedInst::ConstGlobal { dst, global } => {
                            f.konst(dst, Value::P(image.globals[global as usize]))
                        }
                        DecodedInst::Alloca { dst, off } => {
                            f.retire(Opcode::Alloca);
                            f.counters.cycles += f.kernel.cost.alu;
                            f.fr.regs[dst as usize] = Value::P(f.fr.sp_base + off);
                            f.fr.idx += 1;
                        }
                        DecodedInst::PtrAdd {
                            dst,
                            base,
                            index,
                            stride,
                        } => {
                            f.ptr_add(dst, base, index, stride);
                        }
                        DecodedInst::FieldAddr { dst, base, off } => {
                            f.field_addr(dst, base, off);
                        }
                        DecodedInst::Bin {
                            dst,
                            op,
                            lhs,
                            rhs,
                            width,
                        } => f.bin(dst, op, lhs, rhs, width)?,
                        DecodedInst::Icmp {
                            dst,
                            pred,
                            lhs,
                            rhs,
                        } => {
                            f.icmp(dst, pred, lhs, rhs);
                        }
                        DecodedInst::Fcmp {
                            dst,
                            pred,
                            lhs,
                            rhs,
                        } => {
                            f.fcmp(dst, pred, lhs, rhs);
                        }
                        DecodedInst::Cast {
                            dst,
                            kind,
                            src,
                            width,
                        } => f.cast(dst, kind, src, width),
                        DecodedInst::Select {
                            dst,
                            cond,
                            if_true,
                            if_false,
                        } => {
                            f.retire(Opcode::Select);
                            f.counters.cycles += f.kernel.cost.alu;
                            let c = f.fr.regs[cond as usize].as_i() != 0;
                            let src = if c { if_true } else { if_false };
                            f.fr.regs[dst as usize] = f.fr.regs[src as usize];
                            f.fr.idx += 1;
                        }
                        DecodedInst::PhiBatch => {
                            // Apply the pre-resolved phi copy list for the
                            // edge `prev_block -> block`, in parallel (all
                            // sources read before any destination is
                            // written). Counts as one instruction, matching
                            // [`Core::exec_phis`].
                            f.retire(Opcode::Phi);
                            let fr = &mut *f.fr;
                            let prev = fr
                                .prev_block
                                .ok_or_else(|| VmError::Trap("phi at function entry".into()))?;
                            let df = &f.program.funcs[fr.func.index()];
                            let blk = &df.blocks[fr.block.index()];
                            let Some(edge) = blk.phi_edges.iter().find(|e| e.pred == prev) else {
                                return Err(VmError::Trap(format!(
                                    "phi missing incoming from {prev}"
                                )));
                            };
                            let copies = &df.phi_copies[edge.start as usize..][..edge.len as usize];
                            phi_scratch.clear();
                            phi_scratch
                                .extend(copies.iter().map(|&(_, src)| fr.regs[src as usize]));
                            for (k, &(dst, _)) in copies.iter().enumerate() {
                                fr.regs[dst as usize] = phi_scratch[k];
                            }
                            fr.idx += 1;
                        }
                        DecodedInst::Jmp { target } => f.jmp(target),
                        DecodedInst::Br {
                            cond,
                            if_true,
                            if_false,
                        } => {
                            let c = f.fr.regs[cond as usize].as_i() != 0;
                            f.br(c, if_true, if_false);
                        }

                        // Loads and stores to *resolved* addresses run in
                        // the fast tier. A poison (swapped-out) address
                        // breaks to the slow tier — before any accounting,
                        // so the re-dispatch there records the instruction
                        // exactly once — because servicing it triggers a
                        // page-in world-stop that needs the whole
                        // `&mut self`.
                        DecodedInst::Load { dst, addr, cls } => {
                            let a = f.fr.regs[addr as usize].as_p();
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.load(dst, a, cls);
                        }
                        DecodedInst::Store { addr, value, cls } => {
                            let a = f.fr.regs[addr as usize].as_p();
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.store(a, value, cls);
                        }

                        // --- superinstructions over register-only pairs ---
                        DecodedInst::FusedIcmpBr {
                            cdst,
                            pred,
                            lhs,
                            rhs,
                            if_true,
                            if_false,
                        } => {
                            let r = f.icmp(cdst, pred, lhs, rhs);
                            if f.bail() {
                                return Ok(None);
                            }
                            f.fusion.executed[FusedKind::IcmpBr as usize] += 1;
                            f.br(r, if_true, if_false);
                        }
                        DecodedInst::FusedBinBin {
                            dst1,
                            lhs1,
                            rhs1,
                            dst2,
                            lhs2,
                            rhs2,
                            op1,
                            op2,
                            w1,
                            w2,
                        } => {
                            f.bin(dst1.into(), op1, lhs1.into(), rhs1.into(), w1)?;
                            if f.bail() {
                                return Ok(None);
                            }
                            f.fusion.executed[FusedKind::BinBin as usize] += 1;
                            f.bin(dst2.into(), op2, lhs2.into(), rhs2.into(), w2)?;
                        }
                        DecodedInst::FusedPtrAddConst {
                            pdst,
                            base,
                            index,
                            cdst,
                            stride,
                            imm,
                        } => {
                            f.ptr_add(pdst.into(), base.into(), index.into(), stride.into());
                            if f.bail() {
                                return Ok(None);
                            }
                            f.fusion.executed[FusedKind::PtrAddConst as usize] += 1;
                            f.konst(cdst.into(), Value::I(imm as i64));
                        }

                        // Address-compute + memory superinstructions: the
                        // first component is register-only; the access runs
                        // through the same body as the plain load/store
                        // arms. A poison address breaks to the slow tier at
                        // the component boundary (the frame index is
                        // already on the tail slot, which holds the
                        // original unfused access) — the pair then retires
                        // unfused and uncounted, exactly like a mid-pair
                        // bail.
                        DecodedInst::FusedPtrAddLoad {
                            pdst,
                            base,
                            index,
                            stride,
                            dst,
                            cls,
                        } => {
                            let a = f.ptr_add(pdst, base, index, stride.into());
                            if f.bail() {
                                return Ok(None);
                            }
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.fusion.executed[FusedKind::PtrAddLoad as usize] += 1;
                            f.load(dst, a, cls);
                        }
                        DecodedInst::FusedPtrAddStore {
                            pdst,
                            base,
                            index,
                            stride,
                            value,
                            cls,
                        } => {
                            let a = f.ptr_add(pdst, base, index, stride.into());
                            if f.bail() {
                                return Ok(None);
                            }
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.fusion.executed[FusedKind::PtrAddStore as usize] += 1;
                            f.store(a, value, cls);
                        }
                        DecodedInst::FusedFieldLoad {
                            pdst,
                            base,
                            off,
                            dst,
                            cls,
                        } => {
                            let a = f.field_addr(pdst, base, off.into());
                            if f.bail() {
                                return Ok(None);
                            }
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.fusion.executed[FusedKind::FieldLoad as usize] += 1;
                            f.load(dst, a, cls);
                        }
                        DecodedInst::FusedFieldStore {
                            pdst,
                            base,
                            off,
                            value,
                            cls,
                        } => {
                            let a = f.field_addr(pdst, base, off.into());
                            if f.bail() {
                                return Ok(None);
                            }
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.fusion.executed[FusedKind::FieldStore as usize] += 1;
                            f.store(a, value, cls);
                        }

                        // --- threaded-tier ops ---
                        //
                        // A block-local duplicate guard: the covering guard
                        // earlier in the block already ran, so this one
                        // only accounts its own removal — no instruction,
                        // no cycles, no probe.
                        DecodedInst::ElidedGuard => {
                            f.counters.guards_elided += 1;
                            f.fr.idx += 1;
                        }
                        // --- guards ---
                        //
                        // A guard that passes — cache hit or fresh region
                        // check — is the [`Fast::guard`] component. One
                        // that does not pass breaks to the slow tier with
                        // nothing accounted, where the full guard path
                        // (page-in retry, fault reporting) runs instead.
                        // The guard + access pairs then decline like the
                        // address + access pairs above.
                        DecodedInst::Guard {
                            gaddr,
                            glen,
                            imm,
                            write,
                        } => {
                            if !f.guard(gaddr, glen, imm, write) {
                                break;
                            }
                        }
                        DecodedInst::FusedGuardLoad {
                            gaddr,
                            glen,
                            dst,
                            addr,
                            cls,
                        } => {
                            if !f.guard(gaddr, glen, 0, false) {
                                break;
                            }
                            if f.bail() {
                                return Ok(None);
                            }
                            let a = f.fr.regs[addr as usize].as_p();
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.fusion.executed[FusedKind::GuardLoad as usize] += 1;
                            f.load(dst, a, cls);
                        }
                        DecodedInst::FusedGuardStore {
                            gaddr,
                            glen,
                            addr,
                            value,
                            cls,
                        } => {
                            if !f.guard(gaddr, glen, 0, true) {
                                break;
                            }
                            if f.bail() {
                                return Ok(None);
                            }
                            let a = f.fr.regs[addr as usize].as_p();
                            if SimKernel::is_poison(a) {
                                break;
                            }
                            f.fusion.executed[FusedKind::GuardStore as usize] += 1;
                            f.store(a, value, cls);
                        }

                        // Kernel and frame-stack instructions (calls,
                        // intrinsics, guards, returns) need the whole
                        // `&mut self`: fall through to the slow tier
                        // (which records their counters itself).
                        _ => break,
                    }
                    if f.bail() {
                        return Ok(None);
                    }
                }
            }

            // --- slow tier: one full-`self` dispatch ---
            let fr = frame_mut(&mut self.t.frames);
            let fid = fr.func;
            let inst = fr.code[fr.idx];
            // A hoisted whole-trip guard retires no instruction of its
            // own (the per-iteration guards it replaces were already
            // counted out via `guards_elided`), so it is dispatched
            // before the slow tier's instruction accounting.
            if let DecodedInst::HoistedGuard { meta } = inst {
                self.exec_hoisted_guard(fid, meta)?;
                frame_mut(&mut self.t.frames).idx += 1;
                if self.t.fusion_bail() {
                    return Ok(None);
                }
                continue;
            }
            self.t.counters.instructions += 1;
            self.t.counters.opcode_mix.record(inst.opcode());

            match inst {
                DecodedInst::Load { dst, addr, cls } => self.load_slow(dst, addr, cls)?,
                DecodedInst::Store { addr, value, cls } => self.store_slow(addr, value, cls)?,
                DecodedInst::Call { dst, callee, args } => {
                    fr.idx += 1; // return lands after the call
                                 // Args buffered on the stack: no per-call heap
                                 // allocation for the common arity.
                    let n = args.len as usize;
                    let pool = &self.t.program.funcs[fid.index()].operands;
                    let mut buf = [Value::Undef; 16];
                    let mut heap = Vec::new();
                    let argv: &[Value] = if n <= buf.len() {
                        for (slot, &r) in buf.iter_mut().zip(&pool[args.start as usize..][..n]) {
                            *slot = fr.regs[r as usize];
                        }
                        &buf[..n]
                    } else {
                        heap.extend(
                            pool[args.start as usize..][..n]
                                .iter()
                                .map(|&r| fr.regs[r as usize]),
                        );
                        &heap
                    };
                    self.push_frame(FuncId(callee), argv, Some(ValueId(dst)))?;
                }
                DecodedInst::Intrinsic { dst, intr, args } => {
                    let mut argv = [Value::Undef; 4];
                    let pool = &self.t.program.funcs[fid.index()].operands;
                    let n = args.len as usize;
                    for (slot, &r) in argv.iter_mut().zip(&pool[args.start as usize..][..n]) {
                        *slot = fr.regs[r as usize];
                    }
                    let out = self.exec_intrinsic(intr, &argv[..n])?;
                    if self.t.block_current {
                        // A blocking intrinsic (join): leave the instruction
                        // pointer in place; the join path already yielded the
                        // quantum, so the run loop's scheduler rotates away
                        // and this instruction re-executes later.
                        self.t.block_current = false;
                        self.t.counters.cycles += self.kernel.cost.branch;
                        return Ok(None);
                    }
                    let fr = frame_mut(&mut self.t.frames);
                    if let Some(x) = out {
                        fr.regs[dst as usize] = x;
                    }
                    fr.idx += 1;
                }
                DecodedInst::Ret { value } => {
                    let out = (value != NO_REG).then(|| fr.regs[value as usize]);
                    if let Some(v) = self.ret(out) {
                        return Ok(Some(v));
                    }
                }
                DecodedInst::Unreachable => {
                    return Err(VmError::Trap("unreachable executed".into()));
                }
                DecodedInst::TrapAggregate { store } => {
                    return Err(VmError::Trap(
                        if store {
                            "store of aggregate"
                        } else {
                            "load of aggregate"
                        }
                        .into(),
                    ));
                }
                // A guard that did not pass in the fast tier (a failing or
                // poison address) runs the full guard path — accounting,
                // page-in retry, fault reporting. A guard pair runs only
                // its guard here; its tail slot then retires unfused.
                DecodedInst::Guard {
                    gaddr,
                    glen,
                    imm,
                    write,
                } => self.guard_slow(gaddr, glen, imm, write)?,
                DecodedInst::FusedGuardLoad { gaddr, glen, .. } => {
                    self.guard_slow(gaddr, glen, 0, false)?
                }
                DecodedInst::FusedGuardStore { gaddr, glen, .. } => {
                    self.guard_slow(gaddr, glen, 0, true)?
                }
                _ => unreachable!("fast-tier instruction reached the slow tier"),
            }
            if self.t.fusion_bail() {
                return Ok(None);
            }
        }
    }

    /// Slow-tier guard component, for a guard [`Fast::guard`] declined:
    /// the full [`Core::exec_guard_access`] path over the slot's operands.
    /// The caller has retired the instruction.
    #[inline(always)]
    fn guard_slow(&mut self, gaddr: u32, glen: u32, imm: u32, write: bool) -> Result<(), VmError> {
        let (addr, len, access) = guard_operands(frame(&self.t.frames), gaddr, glen, imm, write);
        self.exec_guard_access(addr, len, access)?;
        frame_mut(&mut self.t.frames).idx += 1;
        Ok(())
    }

    /// Slow-tier load component: like [`Fast::load`], but the address is
    /// resolved through [`Core::data_access`], which services a poison
    /// address by paging it back in. The caller has retired the
    /// instruction.
    #[inline(always)]
    fn load_slow(&mut self, dst: u32, addr: u32, cls: ScalarClass) -> Result<(), VmError> {
        let a = frame(&self.t.frames).regs[addr as usize].as_p();
        let paddr = self.data_access(a, cls.size(), false)?;
        let val = read_scalar(&self.kernel.mem, paddr, cls);
        self.t.counters.loads += 1;
        let fr = frame_mut(&mut self.t.frames);
        fr.regs[dst as usize] = val;
        fr.idx += 1;
        Ok(())
    }

    /// Slow-tier store component, the twin of [`Core::load_slow`].
    #[inline(always)]
    fn store_slow(&mut self, addr: u32, value: u32, cls: ScalarClass) -> Result<(), VmError> {
        let a = frame(&self.t.frames).regs[addr as usize].as_p();
        let paddr = self.data_access(a, cls.size(), true)?;
        // Read the value register only AFTER the access resolved: a
        // poison address triggers a page-in world-stop inside
        // `data_access`, which patches registers — a value read earlier
        // would be stale.
        let fr = frame_mut(&mut self.t.frames);
        let x = fr.regs[value as usize];
        fr.idx += 1;
        write_scalar(&mut self.kernel.mem, paddr, cls, x);
        self.t.counters.stores += 1;
        Ok(())
    }

    /// Evaluate all phis at the head of the current block in parallel,
    /// then advance past them.
    fn exec_phis(&mut self) -> Result<(), VmError> {
        let fr = frame(&self.t.frames);
        let f = self.t.image.module.func(fr.func);
        let block = fr.block;
        let prev = fr
            .prev_block
            .ok_or_else(|| VmError::Trap("phi at function entry".into()))?;
        let mut updates: Vec<(ValueId, Value)> = Vec::new();
        let mut consumed = 0usize;
        for &pv in &f.block(block).insts {
            let Some(Inst::Phi { incomings, .. }) = f.inst(pv) else {
                break;
            };
            let (_, iv) = incomings
                .iter()
                .find(|(b, _)| *b == prev)
                .ok_or_else(|| VmError::Trap(format!("phi missing incoming from {prev}")))?;
            updates.push((pv, fr.regs[iv.index()]));
            consumed += 1;
        }
        let frame = frame_mut(&mut self.t.frames);
        for (pv, val) in updates {
            frame.regs[pv.index()] = val;
        }
        frame.idx += consumed;
        Ok(())
    }

    fn jump(&mut self, from: BlockId, to: BlockId) {
        let frame = frame_mut(&mut self.t.frames);
        debug_assert_eq!(frame.block, from, "jump from a non-current block");
        take_jump(frame, &self.t.program, to);
    }

    /// Evaluate a two-operand op (the reference engine's entry to the
    /// two evaluator bodies [`Fast::bin`] chooses between). `width` is the
    /// integer result width, resolved from the left operand's type.
    fn eval_bin(&mut self, op: BinOp, a: Value, b: Value, width: IntTy) -> Result<Value, VmError> {
        let counters = &mut self.t.counters;
        if can_trap(op) {
            return eval_div(counters, op, a, b, width);
        }
        Ok(eval_total(&self.kernel.cost, counters, op, a, b, width))
    }
}

/// The fast dispatch tier's sustained borrow: the innermost frame plus
/// the disjoint tenant and kernel fields that register-only instructions,
/// resolved memory accesses and passing guards touch.
///
/// Its methods are the component bodies: each is the *only* statement of
/// one decoded instruction's accounting, effect and cursor advance, used
/// by that instruction's plain arm and by every superinstruction it is
/// half of — `#[inline(always)]`, because the arms are the hot loop.
struct Fast<'a> {
    fr: &'a mut Frame,
    counters: &'a mut PerfCounters,
    kernel: &'a mut SimKernel,
    tlb: &'a mut TranslationUnit,
    program: &'a DecodedProgram,
    fusion: &'a mut FusionStats,
    access_counter: &'a mut u64,
    last_vpn: &'a mut u64,
    guard_cache: &'a mut GuardFastPath,
    mode: Mode,
    guard_impl: GuardImpl,
    bail_insts_at: u64,
    bail_cycles_at: u64,
}

impl Fast<'_> {
    /// [`TenantState::fusion_bail`] over the borrowed fields: the test
    /// between the components of a pair, and the batch gate.
    #[inline(always)]
    fn bail(&self) -> bool {
        self.counters.instructions >= self.bail_insts_at
            || self.counters.cycles >= self.bail_cycles_at
    }

    #[inline(always)]
    fn retire(&mut self, op: Opcode) {
        self.counters.instructions += 1;
        self.counters.opcode_mix.record(op);
    }

    #[inline(always)]
    fn konst(&mut self, dst: u32, val: Value) {
        self.retire(Opcode::Const);
        self.fr.regs[dst as usize] = val;
        self.fr.idx += 1;
    }

    /// Returns the computed address (also written to `dst` — the value
    /// may have other uses, and world-stop register patching must see it).
    #[inline(always)]
    fn ptr_add(&mut self, dst: u32, base: u32, index: u32, stride: u64) -> u64 {
        self.retire(Opcode::PtrAdd);
        self.counters.cycles += self.kernel.cost.alu;
        let b = self.fr.regs[base as usize].as_p();
        let i = self.fr.regs[index as usize].as_i();
        let a = b.wrapping_add((i.wrapping_mul(stride as i64)) as u64);
        self.fr.regs[dst as usize] = Value::P(a);
        self.fr.idx += 1;
        a
    }

    /// Returns the computed address, like [`Fast::ptr_add`]. Wraps like
    /// it too: the base is guest data (`inttoptr`), and an address that
    /// is never dereferenced is never seen by a guard.
    #[inline(always)]
    fn field_addr(&mut self, dst: u32, base: u32, off: u64) -> u64 {
        self.retire(Opcode::FieldAddr);
        self.counters.cycles += self.kernel.cost.alu;
        let a = self.fr.regs[base as usize].as_p().wrapping_add(off);
        self.fr.regs[dst as usize] = Value::P(a);
        self.fr.idx += 1;
        a
    }

    #[inline(always)]
    fn bin(
        &mut self,
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: u32,
        width: IntTy,
    ) -> Result<(), VmError> {
        self.retire(Opcode::Bin);
        let (a, b) = (self.fr.regs[lhs as usize], self.fr.regs[rhs as usize]);
        // Only a divide can fail; every other op stores its value without
        // a `Result` ever existing.
        self.fr.regs[dst as usize] = if can_trap(op) {
            eval_div(self.counters, op, a, b, width)?
        } else {
            eval_total(&self.kernel.cost, self.counters, op, a, b, width)
        };
        self.fr.idx += 1;
        Ok(())
    }

    /// Returns the comparison result (also written to `dst`: phis and
    /// later uses read it).
    #[inline(always)]
    fn icmp(&mut self, dst: u32, pred: Pred, lhs: u32, rhs: u32) -> bool {
        self.retire(Opcode::Icmp);
        self.counters.cycles += self.kernel.cost.alu;
        let (a, b) = (self.fr.regs[lhs as usize], self.fr.regs[rhs as usize]);
        let r = match (a, b) {
            (Value::P(_), _) | (_, Value::P(_)) => icmp_u(pred, a.as_p(), b.as_p()),
            _ => icmp_i(pred, a.as_i(), b.as_i()),
        };
        self.fr.regs[dst as usize] = Value::I(r as i64);
        self.fr.idx += 1;
        r
    }

    /// Float mirror of [`Fast::icmp`].
    #[inline(always)]
    fn fcmp(&mut self, dst: u32, pred: Pred, lhs: u32, rhs: u32) {
        self.retire(Opcode::Fcmp);
        self.counters.cycles += self.kernel.cost.fpu;
        let (a, b) = (
            self.fr.regs[lhs as usize].as_f(),
            self.fr.regs[rhs as usize].as_f(),
        );
        let r = match pred {
            Pred::Eq => a == b,
            Pred::Ne => a != b,
            Pred::Slt | Pred::Ult => a < b,
            Pred::Sle => a <= b,
            Pred::Sgt => a > b,
            Pred::Sge | Pred::Uge => a >= b,
        };
        self.fr.regs[dst as usize] = Value::I(r as i64);
        self.fr.idx += 1;
    }

    #[inline(always)]
    fn cast(&mut self, dst: u32, kind: CastKind, src: u32, width: IntTy) {
        self.retire(Opcode::Cast);
        self.counters.cycles += self.kernel.cost.alu;
        let x = self.fr.regs[src as usize];
        self.fr.regs[dst as usize] = match kind {
            CastKind::Sext | CastKind::Zext | CastKind::Trunc => Value::I(width.wrap(x.as_i())),
            CastKind::SiToFp => Value::F(x.as_i() as f64),
            CastKind::FpToSi => Value::I(x.as_f() as i64),
            CastKind::PtrToInt => Value::I(x.as_p() as i64),
            CastKind::IntToPtr => Value::P(x.as_i() as u64),
        };
        self.fr.idx += 1;
    }

    #[inline(always)]
    fn jmp(&mut self, target: u32) {
        self.retire(Opcode::Jmp);
        self.counters.cycles += self.kernel.cost.branch;
        take_jump(self.fr, self.program, BlockId(target));
    }

    /// `taken` is the condition: the plain arm reads it from the
    /// condition register, a compare + branch pair hands over the compare
    /// result it just wrote there.
    #[inline(always)]
    fn br(&mut self, taken: bool, if_true: u32, if_false: u32) {
        self.retire(Opcode::Br);
        self.counters.cycles += self.kernel.cost.branch;
        take_jump(
            self.fr,
            self.program,
            BlockId(if taken { if_true } else { if_false }),
        );
    }

    /// Load from the *resolved* address `a` (the arm has already sent a
    /// poison address to the slow tier, before any accounting).
    #[inline(always)]
    fn load(&mut self, dst: u32, a: u64, cls: ScalarClass) {
        self.retire(Opcode::Load);
        let paddr = self.resolved(a, cls.size());
        self.fr.regs[dst as usize] = read_scalar(&self.kernel.mem, paddr, cls);
        self.counters.loads += 1;
        self.fr.idx += 1;
    }

    /// Store to the *resolved* address `a`, the twin of [`Fast::load`].
    #[inline(always)]
    fn store(&mut self, a: u64, value: u32, cls: ScalarClass) {
        self.retire(Opcode::Store);
        let paddr = self.resolved(a, cls.size());
        let x = self.fr.regs[value as usize];
        self.fr.idx += 1;
        write_scalar(&mut self.kernel.mem, paddr, cls, x);
        self.counters.stores += 1;
    }

    /// The guard component on its passing path: [`GuardFastPath::probe`],
    /// accounted exactly like [`Core::exec_guard_access`]. Returns
    /// `false`, with nothing accounted and the cursor unmoved, when the
    /// check fails; the arm then breaks to the slow tier, whose guard path
    /// can page in or fault.
    #[inline(always)]
    fn guard(&mut self, gaddr: u32, glen: u32, imm: u32, write: bool) -> bool {
        let (addr, len, access) = guard_operands(self.fr, gaddr, glen, imm, write);
        let regions = &self.kernel.space.regions;
        let check = self
            .guard_cache
            .probe(regions, self.guard_impl, addr, len, access);
        if !check.ok {
            return false;
        }
        self.retire(Opcode::CallIntrinsic);
        account_guard(self.counters, self.kernel, self.guard_impl, check.probes);
        self.fr.idx += 1;
        true
    }

    #[inline(always)]
    fn resolved(&mut self, a: u64, size: u64) -> u64 {
        data_access_resolved(
            self.kernel,
            self.tlb,
            self.counters,
            self.access_counter,
            self.last_vpn,
            self.mode,
            a,
            size,
        )
    }
}

/// Read one scalar of class `cls` at physical address `paddr` — the
/// value half of every decoded load, fast tier or slow.
#[inline(always)]
fn read_scalar(mem: &PhysicalMemory, paddr: u64, cls: ScalarClass) -> Value {
    match cls {
        ScalarClass::F64 => Value::F(mem.read_f64(paddr)),
        ScalarClass::Ptr => Value::P(mem.read_uint(paddr, 8)),
        ScalarClass::Int(w) => Value::I(w.wrap(mem.read_uint(paddr, w.size()) as i64)),
    }
}

/// Write `x` as one scalar of class `cls` at physical address `paddr` —
/// the value half of every decoded store.
#[inline(always)]
fn write_scalar(mem: &mut PhysicalMemory, paddr: u64, cls: ScalarClass, x: Value) {
    match cls {
        ScalarClass::F64 => mem.write_f64(paddr, x.as_f()),
        ScalarClass::Ptr => mem.write_uint(paddr, x.as_p(), 8),
        ScalarClass::Int(w) => mem.write_uint(paddr, x.as_i() as u64, w.size()),
    }
}

/// The `(addr, len, access)` a guard slot checks: the guarded-address
/// register, and the length from its register — or from the immediate
/// when the slot carries none (an immediate-length [`DecodedInst::Guard`]).
#[inline(always)]
fn guard_operands(fr: &Frame, gaddr: u32, glen: u32, imm: u32, write: bool) -> (u64, u64, Access) {
    let len = if glen == NO_REG {
        imm as u64
    } else {
        fr.regs[glen as usize].as_i().max(0) as u64
    };
    let access = if write { Access::Write } else { Access::Read };
    (fr.regs[gaddr as usize].as_p(), len, access)
}

/// Charge one executed guard that took `probes` region probes. A free
/// function so the fast tier's range probe and [`Core::account_guard`]
/// (every slow-tier guard path) charge through the same lines.
#[inline]
fn account_guard(
    counters: &mut PerfCounters,
    kernel: &SimKernel,
    guard_impl: GuardImpl,
    probes: u64,
) {
    counters.guards_executed += 1;
    counters.guard_probes += probes;
    counters.instrumentation_insts += 1;
    let cycles = if guard_impl == GuardImpl::Mpx && kernel.space.regions.len() == 1 {
        kernel.cost.guard_mpx
    } else {
        kernel.cost.software_guard_cost(probes)
    };
    counters.guard_cycles += cycles;
    counters.cycles += cycles;
}

/// Whether `op` can trap — on a zero divisor, the only way a two-operand
/// op fails. These four go through [`eval_div`]; the other thirteen
/// through [`eval_total`], which has no failure to report.
#[inline(always)]
fn can_trap(op: BinOp) -> bool {
    matches!(op, BinOp::Sdiv | BinOp::Srem | BinOp::Udiv | BinOp::Urem)
}

/// The value of an integer op whose raw result is `r`: pointer arithmetic
/// via add/sub keeps pointerness, anything else wraps to `width`.
#[inline(always)]
fn int_result(op: BinOp, a: Value, r: i64, width: IntTy) -> Value {
    if matches!((a, op), (Value::P(_), BinOp::Add | BinOp::Sub)) {
        Value::P(r as u64)
    } else {
        Value::I(width.wrap(r))
    }
}

/// Evaluate one of the thirteen two-operand ops that cannot trap and
/// charge its cycles. A free function over the exact fields it touches
/// (the cost model and the counters) so the fast dispatch tier can call
/// it while holding its destructured borrow of the tenant. `width` is the
/// integer result width, pre-resolved by the caller from the left
/// operand's type (the decoded engines resolve it once at decode time).
#[inline(always)]
fn eval_total(
    cost: &CostModel,
    counters: &mut PerfCounters,
    op: BinOp,
    a: Value,
    b: Value,
    width: IntTy,
) -> Value {
    if op.is_float() {
        counters.cycles += cost.fpu;
        let (x, y) = (a.as_f(), b.as_f());
        return Value::F(match op {
            BinOp::Fadd => x + y,
            BinOp::Fsub => x - y,
            BinOp::Fmul => x * y,
            BinOp::Fdiv => x / y,
            _ => unreachable!(),
        });
    }
    counters.cycles += if op == BinOp::Mul { 3 } else { cost.alu };
    let (x, y) = (a.as_i(), b.as_i());
    let r = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32 & 63),
        BinOp::Ashr => x.wrapping_shr(y as u32 & 63),
        BinOp::Lshr => ((x as u64).wrapping_shr(y as u32 & 63)) as i64,
        _ => unreachable!("a trapping op goes through eval_div"),
    };
    int_result(op, a, r, width)
}

/// Evaluate a divide or remainder ([`can_trap`]) and charge its cycles;
/// a zero divisor traps, after the charge.
#[inline]
fn eval_div(
    counters: &mut PerfCounters,
    op: BinOp,
    a: Value,
    b: Value,
    width: IntTy,
) -> Result<Value, VmError> {
    counters.cycles += 20;
    let (x, y) = (a.as_i(), b.as_i());
    if y == 0 {
        return Err(zero_divisor(op));
    }
    let r = match op {
        BinOp::Sdiv => x.wrapping_div(y),
        BinOp::Srem => x.wrapping_rem(y),
        BinOp::Udiv => ((x as u64) / (y as u64)) as i64,
        BinOp::Urem => ((x as u64) % (y as u64)) as i64,
        _ => unreachable!("only trapping ops reach eval_div"),
    };
    Ok(int_result(op, a, r, width))
}

#[cold]
fn zero_divisor(op: BinOp) -> VmError {
    let what = match op {
        BinOp::Sdiv | BinOp::Udiv => "division",
        _ => "remainder",
    };
    VmError::Trap(format!("{what} by zero"))
}

/// Redirect `fr` to block `to`, pinning that block's code stream. A free
/// function over the frame and the decoded program so the fast dispatch
/// tier can take branches without giving up its sustained borrow;
/// [`Core::jump`] wraps it for the reference engine.
#[inline]
fn take_jump(fr: &mut Frame, program: &DecodedProgram, to: BlockId) {
    fr.prev_block = Some(fr.block);
    fr.block = to;
    fr.idx = 0;
    fr.code = program.funcs[fr.func.index()].blocks[to.index()]
        .code
        .clone();
}

/// The resolved (non-poison) body of [`Core::data_access`]: charge the L1
/// model and run the mode-specific translation bookkeeping. A free
/// function over the disjoint fields it touches, so the fast dispatch
/// tier can service loads and stores without leaving its sustained
/// borrow; the [`Core::data_access`] wrapper (poison handling, page-in
/// world-stops) delegates here for everything after fault resolution.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn data_access_resolved(
    kernel: &mut SimKernel,
    tlb: &mut TranslationUnit,
    counters: &mut PerfCounters,
    access_counter: &mut u64,
    last_vpn: &mut u64,
    mode: Mode,
    addr: u64,
    size: u64,
) -> u64 {
    // Bind only the fields this path reads; a full `CostModel` copy
    // (~25 words) per access is measurable on the hot path.
    let CostModel {
        mem_l1,
        mem_l1_miss_extra,
        l1_hit_per_1024,
        page_size,
        ..
    } = kernel.cost;
    *access_counter += 1;
    // Flat L1 model: deterministic pseudo-random hit/miss.
    let h = access_counter
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(addr >> 6);
    let l1_hit = (h % 1024) < l1_hit_per_1024;
    counters.cycles += mem_l1;
    if !l1_hit {
        counters.cycles += mem_l1_miss_extra;
    }
    match mode {
        Mode::Carat => {
            let page_of = |a: u64| {
                if page_size.is_power_of_two() {
                    a >> page_size.trailing_zeros()
                } else {
                    a / page_size
                }
            };
            kernel.demand_touch(addr);
            if size > 0 && page_of(addr + size - 1) != page_of(addr) {
                kernel.demand_touch(addr + size - 1);
            }
            addr
        }
        Mode::Traditional => {
            let vpn = kernel.cost.page_of(addr);
            // Front cache: a repeat of the VPN that just went through
            // `TranslationUnit::access` is a guaranteed DTLB hit (its
            // entry was the last touched in its set, so it cannot have
            // been evicted without an intervening different-VPN
            // access), and a TLB hit is a mapped page. Charge exactly
            // what the full path would — one DTLB hit, zero extra
            // cycles — without the set walk. Skipping the LRU stamp
            // refresh is invisible: consecutive repeats preserve the
            // relative stamp order within the set.
            if vpn == *last_vpn {
                tlb.dtlb.hits += 1;
                return addr;
            }
            *last_vpn = vpn;
            let answered = tlb.access(vpn);
            let extra = answered.extra_cycles(&kernel.cost);
            counters.translation_cycles += extra;
            counters.cycles += extra;
            // The page table is the TLB's miss path: only a walk inserts
            // an entry and nothing unmaps a page, so a hit is a mapped
            // page and only a walk can find the page unmapped.
            if answered != Answered::Walk {
                debug_assert!(
                    kernel.space.pagetable.translate(vpn).is_some(),
                    "TLB hit on unmapped page {vpn:#x}"
                );
                return addr;
            }
            // Demand fault on first touch (identity-mapped).
            if kernel.space.pagetable.translate(vpn).is_none() {
                kernel.space.pagetable.map(
                    vpn,
                    carat_kernel::Pte {
                        ppn: vpn,
                        writable: true,
                    },
                );
                kernel
                    .trace
                    .record(carat_kernel::PagingEvent::Alloc { page: vpn });
                counters.cycles += kernel.cost.page_fault;
            }
            addr // identity mapping: paddr == vaddr
        }
    }
}

impl Core<'_> {
    /// Account for a data access at `addr` and return the physical address
    /// to use. Traditional mode translates (TLB/pagewalk/fault);
    /// CARAT mode uses the address as-is and records first touches.
    ///
    /// A *poison* (non-canonical) address raises the hardware fault the
    /// paper relies on for swapped data — even when the access's guard was
    /// optimized away — and the kernel services it by paging back in.
    fn data_access(&mut self, mut addr: u64, size: u64, write: bool) -> Result<u64, VmError> {
        if SimKernel::is_poison(addr) {
            let (base, span, delta) = self.page_in_or_fault(addr, size, write)?;
            addr = translate(addr, base, span, delta);
        }
        Ok(data_access_resolved(
            self.kernel,
            &mut self.t.tlb,
            &mut self.t.counters,
            &mut self.t.access_counter,
            &mut self.t.last_vpn,
            self.t.cfg.mode,
            addr,
            size,
        ))
    }

    fn exec_intrinsic(
        &mut self,
        intr: Intrinsic,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        match intr {
            Intrinsic::Malloc => {
                let size = args[0].as_i().max(0) as u64;
                self.t.counters.cycles += 60;
                // Injected allocation failure: the tenant sees a clean
                // out-of-memory, exactly as if its arena were exhausted.
                if self.kernel.poll_fault(FaultPoint::TenantOom) {
                    return Err(VmError::OutOfMemory);
                }
                let addr = self.t.heap.alloc(size).ok_or(VmError::OutOfMemory)?;
                Ok(Some(Value::P(addr)))
            }
            Intrinsic::Free => {
                self.t.counters.cycles += 40;
                self.t.heap.free(args[0].as_p());
                Ok(None)
            }
            Intrinsic::GuardLoad | Intrinsic::GuardStore => {
                let addr = args[0].as_p();
                let len = args[1].as_i().max(0) as u64;
                let access = if intr == Intrinsic::GuardStore {
                    Access::Write
                } else {
                    Access::Read
                };
                self.exec_guard_access(addr, len, access)?;
                Ok(None)
            }
            Intrinsic::GuardRange => {
                let lo = args[0].as_p();
                let hi = args[1].as_p();
                let access = if args[2].as_i() != 0 {
                    Access::Write
                } else {
                    Access::Read
                };
                self.exec_guard_range(lo, hi, access)?;
                Ok(None)
            }
            Intrinsic::GuardCall => {
                let frame = args[0].as_i().max(0) as u64;
                let lo = self.t.sp.saturating_sub(frame);
                // One guard over the frame below the stack pointer as it
                // stands now, accounted like any other.
                let frame_ok = |c: &mut Self| {
                    let lo = c.t.sp.saturating_sub(frame);
                    let regions = &c.kernel.space.regions;
                    let check = regions.check(c.t.cfg.guard_impl, lo, frame, Access::Write);
                    c.account_guard(check.probes);
                    check.ok
                };
                if frame_ok(self) {
                    return Ok(None);
                }
                // The stack itself may be in swap (its pointers poisoned);
                // fault to the kernel and page it back in first.
                if SimKernel::is_poison(lo) && self.try_page_in(lo)?.is_some() && frame_ok(self) {
                    return Ok(None);
                }
                // A failed guard involving the stack invokes the kernel,
                // which implements seamless stack expansion (paper §2.2).
                // Spawned threads' heap stacks are fixed-size.
                if self.t.cfg.auto_grow_stack
                    && self.t.cur_tid == 0
                    && self.try_expand_stack()?
                    && frame_ok(self)
                {
                    return Ok(None);
                }
                Err(VmError::GuardFault {
                    addr: lo,
                    len: frame,
                    write: true,
                })
            }
            Intrinsic::TrackAlloc => {
                let addr = args[0].as_p();
                let size = args[1].as_i().max(0) as u64;
                let kind = if addr >= self.t.image.heap.0 {
                    AllocKind::Heap
                } else {
                    AllocKind::Stack
                };
                self.table.track_alloc(addr, size, kind);
                self.t.counters.track_events += 1;
                self.t.counters.track_cycles += self.kernel.cost.track_alloc;
                self.t.counters.cycles += self.kernel.cost.track_alloc;
                self.t.counters.instrumentation_insts += 1;
                self.note_tracking_bytes();
                Ok(None)
            }
            Intrinsic::TrackFree => {
                self.table.track_free(args[0].as_p());
                self.t.counters.track_events += 1;
                self.t.counters.track_cycles += self.kernel.cost.track_free;
                self.t.counters.cycles += self.kernel.cost.track_free;
                self.t.counters.instrumentation_insts += 1;
                Ok(None)
            }
            Intrinsic::TrackEscape => {
                /// Pending escapes that trigger an automatic flush.
                const ESCAPE_BATCH: usize = 64;
                self.table.track_escape(args[0].as_p());
                self.t.counters.track_events += 1;
                self.t.counters.track_cycles += self.kernel.cost.track_escape_enqueue;
                self.t.counters.cycles += self.kernel.cost.track_escape_enqueue;
                self.t.counters.instrumentation_insts += 1;
                if self.table.pending_escapes() >= ESCAPE_BATCH {
                    self.flush_escapes();
                }
                Ok(None)
            }
            Intrinsic::Rand => {
                // xorshift64*
                let mut x = self.t.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.t.rng = x;
                self.t.counters.cycles += 4;
                Ok(Some(Value::I(
                    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 1) as i64,
                )))
            }
            Intrinsic::Sqrt => {
                self.t.counters.cycles += 15;
                Ok(Some(Value::F(args[0].as_f().sqrt())))
            }
            Intrinsic::Exp => {
                self.t.counters.cycles += 30;
                Ok(Some(Value::F(args[0].as_f().exp())))
            }
            Intrinsic::Log => {
                self.t.counters.cycles += 30;
                Ok(Some(Value::F(args[0].as_f().ln())))
            }
            Intrinsic::PrintI64 => {
                self.t.output.push(args[0].as_i().to_string());
                Ok(None)
            }
            Intrinsic::PrintF64 => {
                self.t.output.push(format!("{:.6}", args[0].as_f()));
                Ok(None)
            }
            Intrinsic::Memcpy => {
                let (mut dst, mut src, len) =
                    (args[0].as_p(), args[1].as_p(), args[2].as_i().max(0) as u64);
                // Resolve swapped operands up front so the bulk copy below
                // sees resident memory.
                if SimKernel::is_poison(dst) {
                    let (b, sp, d) = self.page_in_or_fault(dst, len, true)?;
                    dst = translate(dst, b, sp, d);
                    src = translate(src, b, sp, d);
                }
                if SimKernel::is_poison(src) {
                    let (b, sp, d) = self.page_in_or_fault(src, len, false)?;
                    src = translate(src, b, sp, d);
                    dst = translate(dst, b, sp, d);
                }
                // Touch pages on both sides.
                let page = self.kernel.cost.page_size;
                for p in 0..=len.saturating_sub(1) / page {
                    self.data_access(src + p * page, 1, false)?;
                    self.data_access(dst + p * page, 1, true)?;
                }
                self.t.counters.cycles += self.kernel.cost.copy_cost(len);
                // Copy through a buffer (ranges may overlap).
                let data = self.kernel.mem.read_bytes(src, len).to_vec();
                self.kernel.mem.write_bytes(dst, &data);
                Ok(None)
            }
            Intrinsic::Memset => {
                let (mut dst, byte, len) = (
                    args[0].as_p(),
                    args[1].as_i() as u8,
                    args[2].as_i().max(0) as u64,
                );
                if SimKernel::is_poison(dst) {
                    let (b, sp, d) = self.page_in_or_fault(dst, len, true)?;
                    dst = translate(dst, b, sp, d);
                }
                let page = self.kernel.cost.page_size;
                for p in 0..=len.saturating_sub(1) / page {
                    self.data_access(dst + p * page, 1, true)?;
                }
                self.t.counters.cycles += self.kernel.cost.copy_cost(len);
                self.kernel.mem.write_bytes(dst, &vec![byte; len as usize]);
                Ok(None)
            }
            Intrinsic::Abort => Err(VmError::Trap("abort() called".into())),
            Intrinsic::Spawn => {
                let fid = FuncId(args[0].as_i().max(0) as u32);
                let arg = args[1].as_i();
                let tid = self.spawn_thread(fid, arg)?;
                Ok(Some(Value::I(tid)))
            }
            Intrinsic::Join => {
                let tid = args[0].as_i();
                if tid < 0 || tid as usize >= self.t.threads.len() {
                    return Err(VmError::Trap(format!("join of unknown thread {tid}")));
                }
                if tid as usize == self.t.cur_tid {
                    return Err(VmError::Trap("thread cannot join itself".into()));
                }
                match self.t.threads[tid as usize] {
                    ThreadState::Done(v) => {
                        self.t.counters.cycles += self.kernel.cost.call;
                        Ok(Some(Value::I(v)))
                    }
                    _ => {
                        // Not finished: block and yield the rest of the
                        // quantum; the scheduler re-runs this join after
                        // other threads make progress.
                        self.t.block_current = true;
                        self.t.next_rotate_at = 0;
                        self.t.recompute_bail();
                        Ok(None)
                    }
                }
            }
        }
    }

    /// Guard-check `[addr, addr+len)` for `access` — the full guard path
    /// of the `guard_load`/`guard_store` intrinsics (the reference
    /// engine) and of every decoded guard the fast tier declined.
    ///
    /// Both checks go through [`GuardFastPath::probe`], so the last-hit
    /// region cache short-circuits the full [`RegionTable`] search on the
    /// common path. Caching the *probe count* is sound because regions
    /// are disjoint and sorted: for any address inside a given region,
    /// every comparison against other regions' bounds resolves the same
    /// way, so all three guard implementations take the same search path
    /// — and charge the same probes — as they did on the hit that filled
    /// the cache. The cache keys on the table's generation, which the
    /// kernel bumps on every region change.
    fn exec_guard_access(&mut self, addr: u64, len: u64, access: Access) -> Result<(), VmError> {
        let imp = self.t.cfg.guard_impl;
        let check = self
            .t
            .guard_cache
            .probe(&self.kernel.space.regions, imp, addr, len, access);
        self.account_guard(check.probes);
        if check.ok {
            return Ok(());
        }
        // A poison address means the data is in swap: the guard
        // fault reaches the kernel, which pages it back in.
        if let Some((base, span, delta)) = self.try_page_in(addr)? {
            let addr2 = translate(addr, base, span, delta);
            let again =
                self.t
                    .guard_cache
                    .probe(&self.kernel.space.regions, imp, addr2, len, access);
            self.account_guard(again.probes);
            if again.ok {
                return Ok(());
            }
        }
        Err(VmError::GuardFault {
            addr,
            len,
            write: access == Access::Write,
        })
    }

    /// Execute one [`DecodedInst::HoistedGuard`]: reconstruct the loop's
    /// trip count and the full address span its elided per-iteration
    /// guards would have checked, account the whole trip as elided, and
    /// (when hoisting is enabled) run one widened range check — the
    /// `GuardRange` intrinsic's own ([`Core::exec_guard_range`]).
    ///
    /// The trip arithmetic runs in `i128` so a pathological span that
    /// overflows the simulated address space faults instead of silently
    /// wrapping (per-iteration guards would have faulted on the way
    /// there too).
    fn exec_hoisted_guard(&mut self, fid: FuncId, meta: u32) -> Result<(), VmError> {
        let m = self.t.program.funcs[fid.index()].hoists[meta as usize];
        let fr = frame(&self.t.frames);
        let init = fr.regs[m.init as usize].as_i() as i128;
        // A peeled bound re-assembles `plus − minus + konst` from registers
        // defined outside the loop; wrapping at i64 matches the header's own
        // arithmetic (the peel only fires for i64 chains).
        let bound = {
            let plus = fr.regs[m.bound as usize].as_i();
            let minus = if m.bound2 == NO_REG {
                0
            } else {
                fr.regs[m.bound2 as usize].as_i()
            };
            plus.wrapping_sub(minus).wrapping_add(m.bound_const) as i128
        };
        let base = fr.regs[m.base as usize].as_p();
        let inv = if m.inv == NO_REG {
            0
        } else {
            fr.regs[m.inv as usize].as_i() as i128
        };
        let bound_adj = bound - i128::from(!m.inclusive);
        if init > bound_adj {
            // Zero-trip loop: the body never runs, so there is nothing to
            // elide and nothing to check — exactly like the fused engine,
            // which executes no guard either.
            return Ok(());
        }
        let step = m.step.max(1) as i128;
        let strides = (bound_adj - init) / step;
        let n = u64::try_from(strides + 1).unwrap_or(u64::MAX);
        self.t.counters.guards_elided = self.t.counters.guards_elided.saturating_add(n);
        if !m.check {
            return Ok(());
        }
        // Addresses the first and last iteration touch, in the VM's
        // PtrAdd+FieldAddr arithmetic:
        // `base + elem * (coeff*iv + inv + offset) + byte_off`.
        let addr_at = |iv: i128| {
            base as i128
                + m.elem as i128 * (m.coeff as i128 * iv + inv + m.offset as i128)
                + m.byte_off as i128
        };
        let first = addr_at(init);
        let last = addr_at(init + strides * step);
        let lo_w = first.min(last);
        let hi_w = first.max(last) + m.len as i128;
        let access = if m.write { Access::Write } else { Access::Read };
        let (Ok(lo), Ok(hi)) = (u64::try_from(lo_w), u64::try_from(hi_w)) else {
            return Err(VmError::GuardFault {
                addr: lo_w.clamp(0, u64::MAX as i128) as u64,
                len: m.len,
                write: m.write,
            });
        };
        self.t.counters.guards_hoisted += 1;
        self.exec_guard_range(lo, hi, access)
    }

    /// Guard-check the span `[lo, hi)` for `access` — the body of the
    /// `guard_range` intrinsic and of a hoisted whole-trip check: region
    /// probe, guard accounting, poison page-in retry, fault on rejection.
    fn exec_guard_range(&mut self, lo: u64, hi: u64, access: Access) -> Result<(), VmError> {
        let check = self.kernel.space.regions.check_range(lo, hi, access);
        self.account_guard(check.probes);
        if check.ok {
            return Ok(());
        }
        if let Some((base, span, delta)) = self.try_page_in(lo)? {
            let lo2 = translate(lo, base, span, delta);
            let hi2 = translate(hi, base, span, delta);
            let again = self.kernel.space.regions.check_range(lo2, hi2, access);
            self.account_guard(again.probes);
            if again.ok {
                return Ok(());
            }
        }
        Err(VmError::GuardFault {
            addr: lo,
            len: hi.saturating_sub(lo),
            write: access == Access::Write,
        })
    }

    fn account_guard(&mut self, probes: u64) {
        account_guard(
            &mut self.t.counters,
            self.kernel,
            self.t.cfg.guard_impl,
            probes,
        );
    }

    pub(crate) fn flush_escapes(&mut self) {
        let pending = self.table.pending_escapes() as u64;
        if pending == 0 {
            return;
        }
        let mem = &self.kernel.mem;
        let resolved = self.table.flush_escapes(|cell| {
            use carat_runtime::MemAccess;
            mem.read_u64(cell)
        });
        let _ = resolved;
        let cost = &self.kernel.cost;
        let cycles = pending * cost.track_escape_flush;
        self.t.counters.track_cycles += cycles;
        self.t.counters.cycles += cycles;
        self.note_tracking_bytes();
    }

    fn note_tracking_bytes(&mut self) {
        self.t.peak_tracking_bytes = self
            .t
            .peak_tracking_bytes
            .max(self.table.memory_overhead_bytes());
    }

    /// Create a thread running function `fid` with `arg`, on a stack
    /// allocated from heap memory (paper §2.2). Returns its thread id.
    fn spawn_thread(&mut self, fid: FuncId, arg: i64) -> Result<i64, VmError> {
        if fid.index() >= self.t.image.module.num_funcs() {
            return Err(VmError::Trap("spawn of nonexistent function".into()));
        }
        let f = self.t.image.module.func(fid);
        if f.params != vec![Type::I64] || f.ret != Some(Type::I64) {
            return Err(VmError::Trap(format!(
                "spawned function `{}` must have signature i64(i64)",
                f.name
            )));
        }
        let stack_size = self.t.cfg.load.stack_size;
        let block = self.t.heap.alloc(stack_size).ok_or(VmError::OutOfMemory)?;
        // Thread stacks are ordinary tracked allocations: they move and
        // swap like everything else.
        self.table.track_alloc(block, stack_size, AllocKind::Stack);
        let sp_top = block + stack_size;
        let sp_base = sp_top - self.t.program.funcs[fid.index()].frame_size;
        let mut regs = vec![Value::Undef; f.num_values()];
        regs[0] = Value::I(arg);
        let entry = f.entry();
        let frame = Frame {
            func: fid,
            regs,
            block: entry,
            idx: 0,
            prev_block: None,
            sp_base,
            ret_to: None,
            code: self.t.program.funcs[fid.index()].blocks[entry.index()]
                .code
                .clone(),
        };
        self.t.threads.push(ThreadState::Parked(ParkedThread {
            frames: vec![frame],
            sp: sp_base,
            stack_base: block,
        }));
        self.t.parked_threads += 1;
        self.t.recompute_bail();
        // Thread creation cost: the kernel sets up the stack and registers
        // the thread with the runtime.
        self.t.counters.cycles += self.kernel.cost.move_signal_per_thread;
        Ok((self.t.threads.len() - 1) as i64)
    }
}

// Thread scheduling, register dumps and relocation bookkeeping touch only
// tenant state: the fleet calls the `pub(crate)` ones on a descheduled
// tenant in its slot while the shared kernel does the moving.
impl TenantState {
    /// Whether the next instruction is a tracking callback whose
    /// notification the runtime has not received yet — a point where the
    /// world must not stop (see the call site in [`Vm::run`]).
    fn tracking_owed(&self) -> bool {
        let Some(frame) = self.frames.last() else {
            return false;
        };
        match self.cfg.engine {
            // Track intrinsics are never fused, so the fused and threaded
            // streams still show them as plain `Intrinsic` slots.
            Engine::Fused | Engine::Decoded | Engine::Threaded => {
                matches!(
                    frame.code.get(frame.idx),
                    Some(DecodedInst::Intrinsic { intr, .. }) if intr.is_track()
                )
            }
            Engine::Reference => {
                let f = self.image.module.func(frame.func);
                let insts = &f.block(frame.block).insts;
                let Some(&v) = insts.get(frame.idx) else {
                    return false;
                };
                matches!(
                    f.inst(v),
                    Some(Inst::CallIntrinsic { intr, .. }) if intr.is_track()
                )
            }
        }
    }

    /// Round-robin to the next runnable thread. With `force`, the current
    /// slot is already retired (`Done`) and must not be re-entered; returns
    /// whether a runnable thread was found.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the call sites uniform.
    /// Start a fresh scheduler quantum at the current instruction count
    /// and refold the bail thresholds around the new boundary.
    fn grant_quantum(&mut self) {
        /// Scheduler quantum in retired instructions: with parked threads,
        /// the round-robin scheduler switches at the first instruction
        /// boundary at or past this many instructions since the last switch
        /// (a blocked join yields the rest of its quantum immediately).
        /// Uniform across engines — every engine retires instructions
        /// identically — so thread interleaving never depends on the engine.
        const SCHED_QUANTUM: u64 = 64;
        self.next_rotate_at = self.counters.instructions.saturating_add(SCHED_QUANTUM);
        self.recompute_bail();
    }

    fn rotate(&mut self, force: bool) -> Result<bool, VmError> {
        let n = self.threads.len();
        for off in 1..=n {
            let tid = (self.cur_tid + off) % n;
            if tid == self.cur_tid {
                return Ok(!force);
            }
            if matches!(self.threads[tid], ThreadState::Parked(_)) {
                self.switch_to(tid, force);
                return Ok(true);
            }
        }
        Ok(!force)
    }

    /// Swap the current thread's state with parked thread `tid`.
    fn switch_to(&mut self, tid: usize, current_retired: bool) {
        if !current_retired {
            let parked = ParkedThread {
                frames: std::mem::take(&mut self.frames),
                sp: self.sp,
                stack_base: self.cur_stack_base,
            };
            self.threads[self.cur_tid] = ThreadState::Parked(parked);
            self.parked_threads += 1;
        }
        self.parked_threads -= 1; // `tid` leaves the parked set
        let slot = std::mem::replace(&mut self.threads[tid], ThreadState::Current);
        let ThreadState::Parked(t) = slot else {
            unreachable!("switch target verified parked");
        };
        self.frames = t.frames;
        self.sp = t.sp;
        self.cur_stack_base = t.stack_base;
        self.cur_tid = tid;
        self.recompute_bail();
    }

    /// Live (current or parked) thread count, for world-stop costing.
    pub(crate) fn live_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| !matches!(t, ThreadState::Done(_)))
            .count()
    }

    /// The register dump of a world stop (Figure 8, steps 3–4 and 8–9):
    /// visit every pointer-valued register, then the stack pointer, then
    /// every frame base of each live thread — the current thread first,
    /// then the parked threads by index. Taking the dump and writing the
    /// patched dump back ([`TenantState::restore_dump`]) are two walks of
    /// this one order.
    pub(crate) fn visit_dump(&mut self, mut f: impl FnMut(&mut u64)) {
        let mut thread = |frames: &mut [Frame], sp: &mut u64| {
            for fr in frames.iter_mut() {
                for v in &mut fr.regs {
                    if let Value::P(p) = v {
                        f(p);
                    }
                }
            }
            f(sp);
            for fr in frames {
                f(&mut fr.sp_base);
            }
        };
        thread(&mut self.frames, &mut self.sp);
        for t in &mut self.threads {
            if let ThreadState::Parked(p) = t {
                thread(&mut p.frames, &mut p.sp);
            }
        }
    }

    /// Write a patched dump (taken by [`TenantState::visit_dump`]) back.
    /// Data moved, so the translation front cache goes too: invalidation
    /// is always safe — a dropped entry merely routes the next access
    /// through `TranslationUnit::access`, which charges the identical DTLB
    /// hit.
    pub(crate) fn restore_dump(&mut self, dump: &[u64]) {
        self.last_vpn = u64::MAX;
        let mut patched = dump.iter();
        self.visit_dump(|r| *r = *patched.next().expect("one dumped word per visited slot"));
    }

    /// Keep `image.stack` in sync when a relocation touched it (the stack
    /// is an ordinary allocation and moves/swaps like any other).
    fn rebase_image_stack(&mut self, lo: u64, len: u64, delta: i64) {
        let (s, _) = self.image.stack;
        if s >= lo && s < lo + len {
            self.image.stack.0 = s.wrapping_add(delta as u64);
        }
        if self.cur_stack_base >= lo && self.cur_stack_base < lo + len {
            self.cur_stack_base = self.cur_stack_base.wrapping_add(delta as u64);
        }
        for t in &mut self.threads {
            if let ThreadState::Parked(p) = t {
                if p.stack_base >= lo && p.stack_base < lo + len {
                    p.stack_base = p.stack_base.wrapping_add(delta as u64);
                }
            }
        }
    }

    /// Rebase every piece of host-side bookkeeping that refers into
    /// `[src, src+len)` after the kernel relocated it by `delta`: the
    /// heap allocator's block map, the image's global addresses, and the
    /// stack bases. Every relocator's one rebase: the relocation driver,
    /// stack growth, and the multi-process scheduler after a cross-process
    /// shared-region move (the in-memory cells and registers were already
    /// patched by the kernel).
    pub(crate) fn apply_relocation(&mut self, src: u64, len: u64, delta: i64) {
        self.heap.rebase(src, len, delta);
        for g in &mut self.image.globals {
            if *g >= src && *g < src + len {
                *g = g.wrapping_add(delta as u64);
            }
        }
        self.rebase_image_stack(src, len, delta);
    }

    /// The one relocation driver: dump the registers of every stopped
    /// thread, hand the dump to `kernel_call` (a move, a batch, a
    /// page-out, a page-in or stack growth — anything that patches it in
    /// place), and on success write the dump back (both through
    /// [`TenantState::visit_dump`]) and rebase the host-side bookkeeping
    /// by every `(src, len, delta)` that `moved` reads off the call's
    /// result. On `Err` (or `None`: the kernel declined) the kernel rolled
    /// the dump back or never touched it, so the write-back is skipped and
    /// thread state keeps its pre-call image.
    ///
    /// It touches only tenant state, so the solo machine and the fleet
    /// both call it while holding the kernel and the table separately.
    pub(crate) fn relocated_by<T, R: IntoIterator<Item = (u64, u64, i64)>>(
        &mut self,
        kernel_call: impl FnOnce(&mut [u64]) -> Result<Option<T>, KernelError>,
        moved: impl FnOnce(&T) -> R,
    ) -> Result<Option<T>, KernelError> {
        let mut regs = Vec::new();
        self.visit_dump(|r| regs.push(*r));
        let Some(out) = kernel_call(&mut regs)? else {
            return Ok(None);
        };
        self.restore_dump(&regs);
        for (src, len, delta) in moved(&out) {
            self.apply_relocation(src, len, delta);
        }
        Ok(Some(out))
    }
}

/// The `(src, len, delta)` a completed move relocated, in the shape
/// [`TenantState::relocated_by`] consumes.
pub(crate) fn relocation_of(outcome: &MoveOutcome) -> (u64, u64, i64) {
    let delta = outcome.moved_dst.wrapping_sub(outcome.moved_src) as i64;
    (outcome.moved_src, outcome.moved_len, delta)
}

impl Core<'_> {
    /// Ask the kernel to grow the stack; returns whether it did.
    ///
    /// # Errors
    ///
    /// [`VmError::Kernel`] when the kernel's expansion failed and rolled
    /// back (registers keep their pre-expansion dump — the rollback
    /// restored it, so no write-back happens).
    fn try_expand_stack(&mut self) -> Result<bool, VmError> {
        /// Stack growth ceiling in bytes.
        const MAX_STACK: u64 = 8 * 1024 * 1024;
        self.flush_escapes();
        let threads = self.t.live_threads() + self.t.cfg.extra_threads;
        let mut stack = self.t.image.stack;
        let Some((world, outcome)) = self.t.relocated_by(
            |regs| {
                self.kernel
                    .expand_stack(self.table, regs, &mut stack, threads, MAX_STACK)
            },
            |(_, outcome)| [relocation_of(outcome)],
        )?
        else {
            return Ok(false);
        };
        // The expanded stack block begins below the moved data.
        self.t.image.stack = stack;
        self.t.cur_stack_base = stack.0;
        let cycles = world.cycles + outcome.cost.total();
        self.t.counters.stack_expansions += 1;
        self.t.counters.move_cycles += cycles;
        self.t.counters.cycles += cycles;
        Ok(true)
    }

    /// The solo drivers' due-check, for the swap driver or the move
    /// driver: push its next due point on by its period and refold the
    /// bail thresholds; then, unless it already ran its `max_*` episodes,
    /// bring escape state current (the victim pick and the patch read it)
    /// and pick the victim, the most-escaped resident page that no DMA pin
    /// covers. `None`: nothing to do this time.
    fn due_victim(&mut self, swap: bool) -> Option<u64> {
        let t = &mut *self.t;
        let (next_at, driver, done) = if swap {
            let d = t.cfg.swap_driver.map(|d| (d.period_cycles, d.max_swaps));
            (&mut t.next_swap_at, d, t.swaps_done)
        } else {
            let d = t.cfg.move_driver.map(|d| (d.period_cycles, d.max_moves));
            (&mut t.next_move_at, d, t.moves_done)
        };
        *next_at = next_at.saturating_add(driver.map_or(u64::MAX, |(period, _)| period));
        t.recompute_bail();
        if driver.is_some_and(|(_, max)| max != 0 && done >= max) {
            return None;
        }
        self.flush_escapes();
        self.kernel.worst_page(self.table)
    }

    /// Inject one page-out (swap driver).
    fn drive_swap(&mut self) -> Result<(), VmError> {
        let Some(page) = self.due_victim(true) else {
            return Ok(());
        };
        let threads = self.t.live_threads() + self.t.cfg.extra_threads;
        // Heap bookkeeping and code-image constants follow the data into
        // the poison range.
        let Some((world, ..)) = self.t.relocated_by(
            |regs| self.kernel.page_out(self.table, regs, page, threads),
            paged_out,
        )?
        else {
            return Ok(());
        };
        self.t.counters.swap_outs += 1;
        self.t.counters.cycles += world.cycles;
        self.t.counters.move_cycles += world.cycles;
        self.t.swaps_done += 1;
        Ok(())
    }

    /// Service a poison-address guard fault by paging the slot back in.
    /// Returns the slot's poison window `(base, span)` and the delta its
    /// data moved by, for translating stale locals, or `None` when `addr`
    /// is not poisoned swap data. The move's cost breakdown is returned by
    /// the kernel but not charged: a page-in costs the guest its stop.
    ///
    /// # Errors
    ///
    /// [`VmError::Kernel`] when the slot exists but the kernel could not
    /// bring it back (swap-read failure, destination OOM). The kernel
    /// preserved the swap entry and rolled registers back, so the fault
    /// is retryable.
    fn try_page_in(&mut self, addr: u64) -> Result<Option<(u64, u64, i64)>, VmError> {
        if !SimKernel::is_poison(addr) {
            return Ok(None);
        }
        // Stores made after the page-out may legitimately have written
        // poison pointers; their escape notifications must reach the table
        // before the kernel patches, or those cells would be missed.
        self.flush_escapes();
        let threads = self.t.live_threads() + self.t.cfg.extra_threads;
        let Some((world, outcome)) = self.t.relocated_by(
            |regs| self.kernel.page_in(self.table, regs, addr, threads),
            |(_, outcome)| [relocation_of(outcome)],
        )?
        else {
            return Ok(None);
        };
        self.t.counters.swap_ins += 1;
        self.t.counters.cycles += world.cycles;
        self.t.counters.move_cycles += world.cycles;
        let (base, span) = SimKernel::swap_window(SimKernel::swap_slot(addr));
        Ok(Some((base, span, relocation_of(&outcome).2)))
    }

    /// Page in the swapped slot an access of `len` bytes at poisoned
    /// `addr` needs, or raise the guard fault that access would have:
    /// [`Core::try_page_in`]'s window and delta.
    fn page_in_or_fault(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
    ) -> Result<(u64, u64, i64), VmError> {
        self.try_page_in(addr)?
            .ok_or(VmError::GuardFault { addr, len, write })
    }

    /// Inject one worst-case page movement (Figure 9 driver).
    fn drive_move(&mut self) -> Result<(), VmError> {
        let Some(page) = self.due_victim(false) else {
            return Ok(());
        };
        let threads = self.t.live_threads() + self.t.cfg.extra_threads;
        let Some((world, outcome)) = self.t.relocated_by(
            |regs| {
                self.kernel
                    .move_pages(self.table, regs, page, 1, threads)
                    .map(Some)
            },
            |(_, outcome)| [relocation_of(outcome)],
        )?
        else {
            return Ok(());
        };
        let cycles = world.cycles + outcome.cost.total();
        self.t.counters.moves += 1;
        self.t.counters.move_cycles += cycles;
        self.t.counters.cycles += cycles;
        self.t.counters.move_breakdown.add(&outcome.cost);
        self.t.moves_done += 1;
        Ok(())
    }
}

/// The relocation a completed [`SimKernel::page_out`] performed: the
/// range moved into its slot's poison window.
pub(crate) fn paged_out(&(_, slot, src, len): &(WorldStop, u64, u64, u64)) -> [(u64, u64, i64); 1] {
    let (window, _) = SimKernel::swap_window(slot);
    [(src, len, window.wrapping_sub(src) as i64)]
}

/// Rebase `x` by `delta` when it lies within `[base, base+span)` (a
/// window may end at 2⁶⁴, so its end is never computed).
fn translate(x: u64, base: u64, span: u64, delta: i64) -> u64 {
    if x.wrapping_sub(base) < span {
        x.wrapping_add(delta as u64)
    } else {
        x
    }
}

fn icmp_i(pred: Pred, a: i64, b: i64) -> bool {
    match pred {
        Pred::Eq => a == b,
        Pred::Ne => a != b,
        Pred::Slt => a < b,
        Pred::Sle => a <= b,
        Pred::Sgt => a > b,
        Pred::Sge => a >= b,
        Pred::Ult => (a as u64) < (b as u64),
        Pred::Uge => (a as u64) >= (b as u64),
    }
}

fn icmp_u(pred: Pred, a: u64, b: u64) -> bool {
    match pred {
        Pred::Eq => a == b,
        Pred::Ne => a != b,
        Pred::Slt | Pred::Ult => a < b,
        Pred::Sle => a <= b,
        Pred::Sgt => a > b,
        Pred::Sge | Pred::Uge => a >= b,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The single fallible evaluator the total/fallible pair replaced,
    /// restated plainly: what every `BinOp` must keep computing and
    /// charging.
    fn eval_bin_before_split(
        cost: &CostModel,
        counters: &mut PerfCounters,
        op: BinOp,
        a: Value,
        b: Value,
        width: IntTy,
    ) -> Result<Value, VmError> {
        if op.is_float() {
            counters.cycles += cost.fpu;
            let (x, y) = (a.as_f(), b.as_f());
            return Ok(Value::F(match op {
                BinOp::Fadd => x + y,
                BinOp::Fsub => x - y,
                BinOp::Fmul => x * y,
                _ => x / y,
            }));
        }
        counters.cycles += match op {
            BinOp::Sdiv | BinOp::Srem | BinOp::Udiv | BinOp::Urem => 20,
            BinOp::Mul => 3,
            _ => cost.alu,
        };
        let keep_ptr = matches!((a, op), (Value::P(_), BinOp::Add | BinOp::Sub));
        let (x, y) = (a.as_i(), b.as_i());
        let zero = |what: &str| Err(VmError::Trap(format!("{what} by zero")));
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Sdiv | BinOp::Udiv if y == 0 => return zero("division"),
            BinOp::Srem | BinOp::Urem if y == 0 => return zero("remainder"),
            BinOp::Sdiv => x.wrapping_div(y),
            BinOp::Srem => x.wrapping_rem(y),
            BinOp::Udiv => ((x as u64) / (y as u64)) as i64,
            BinOp::Urem => ((x as u64) % (y as u64)) as i64,
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Ashr => x.wrapping_shr(y as u32 & 63),
            _ => ((x as u64).wrapping_shr(y as u32 & 63)) as i64,
        };
        Ok(if keep_ptr {
            Value::P(r as u64)
        } else {
            Value::I(width.wrap(r))
        })
    }

    /// Tag and payload bits (a NaN equals itself here).
    fn bits(v: Value) -> (u8, u64) {
        match v {
            Value::I(x) => (0, x as u64),
            Value::F(x) => (1, x.to_bits()),
            Value::P(x) => (2, x),
            Value::Undef => (3, 0),
        }
    }

    #[test]
    fn evaluator_pair_matches_the_single_evaluator_on_every_op() {
        const OPS: [BinOp; 17] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Sdiv,
            BinOp::Srem,
            BinOp::Udiv,
            BinOp::Urem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Ashr,
            BinOp::Lshr,
            BinOp::Fadd,
            BinOp::Fsub,
            BinOp::Fmul,
            BinOp::Fdiv,
        ];
        let raw = [0i64, 1, -1, 7, 63, 64, 65, 200, i64::MIN, i64::MAX];
        let mut vals = vec![Value::Undef];
        for x in raw {
            vals.extend([Value::I(x), Value::P(x as u64), Value::F(x as f64)]);
        }
        vals.extend([Value::F(f64::NAN), Value::F(-0.0), Value::F(0.5)]);
        // Charges that tell `alu`, `fpu`, 3 and 20 apart.
        let cost = CostModel {
            alu: 7,
            fpu: 11,
            ..CostModel::default()
        };
        let mut trapped = 0;
        for op in OPS {
            for width in [IntTy::I1, IntTy::I8, IntTy::I32, IntTy::I64] {
                for &a in &vals {
                    for &b in &vals {
                        let (mut want_c, mut got_c) =
                            (PerfCounters::default(), PerfCounters::default());
                        let want = eval_bin_before_split(&cost, &mut want_c, op, a, b, width);
                        let got = if can_trap(op) {
                            eval_div(&mut got_c, op, a, b, width)
                        } else {
                            Ok(eval_total(&cost, &mut got_c, op, a, b, width))
                        };
                        let case = format!("{op:?} {width:?} {a:?} {b:?}");
                        assert_eq!(got_c, want_c, "{case}");
                        match (got, want) {
                            (Ok(g), Ok(w)) => assert_eq!(bits(g), bits(w), "{case}"),
                            (Err(VmError::Trap(g)), Err(VmError::Trap(w))) => {
                                assert_eq!(g, w, "{case}");
                                trapped += 1;
                            }
                            (g, w) => panic!("{case}: {g:?} vs {w:?}"),
                        }
                    }
                }
            }
        }
        // Four ops × four widths × every left operand × the zero-valued
        // right operands (`Undef`, `I(0)`, `P(0)` and every float).
        let zero_divisors = vals.iter().filter(|b| b.as_i() == 0).count();
        assert_eq!(trapped, 4 * 4 * vals.len() * zero_divisors);
    }

    /// Every word of `t`'s threads that a relocation may rebase or must
    /// leave alone, walked independently of the VM's own dump: per thread
    /// (current first, then parked by index) each frame's registers as
    /// tag and bits, then its stack pointer, its frame bases and its stack
    /// base, tagged as pointers.
    pub(crate) fn thread_words(t: &TenantState) -> Vec<Vec<(u8, u64)>> {
        let words = |frames: &[Frame], sp: u64, stack_base: u64| {
            let mut w: Vec<(u8, u64)> = frames
                .iter()
                .flat_map(|f| f.regs.iter().map(|&v| bits(v)))
                .collect();
            w.push((2, sp));
            w.extend(frames.iter().map(|f| (2, f.sp_base)));
            w.push((2, stack_base));
            w
        };
        let mut out = vec![words(&t.frames, t.sp, t.cur_stack_base)];
        for th in &t.threads {
            if let ThreadState::Parked(p) = th {
                out.push(words(&p.frames, p.sp, p.stack_base));
            }
        }
        out
    }

    /// `after` is `before` with every pointer word inside `[src, src+len)`
    /// moved by `delta` and every other word bit-identical.
    pub(crate) fn assert_rebased(
        before: &[Vec<(u8, u64)>],
        after: &[Vec<(u8, u64)>],
        (src, len, delta): (u64, u64, i64),
    ) {
        assert_eq!(before.len(), after.len(), "thread count");
        for (tid, (b, a)) in before.iter().zip(after).enumerate() {
            let want: Vec<(u8, u64)> = b
                .iter()
                .map(|&(tag, x)| match tag {
                    2 if x >= src && x < src + len => (2, x.wrapping_add(delta as u64)),
                    _ => (tag, x),
                })
                .collect();
            assert_eq!(a, &want, "thread #{tid} of the dump");
        }
    }

    /// A solo move that lands while two or more threads are parked
    /// rebases every pointer register, stack pointer and frame base of the
    /// current and the parked threads by the move's delta, and leaves an
    /// integer register holding the same bits alone.
    #[test]
    fn a_solo_move_rebases_every_thread_of_the_dump() {
        let src = "
            int* shared;
            int work(int lo) {
                int s = 0;
                for (int i = 0; i < 100000; i += 1) { s += shared[(lo + i) % 64]; }
                return s;
            }
            int main() {
                shared = (int*) malloc(64 * sizeof(int));
                int t0 = spawn(work, 0);
                int t1 = spawn(work, 1);
                int t2 = spawn(work, 2);
                return join(t0) + join(t1) + join(t2);
            }
        ";
        let module = carat_frontend::compile_cm("parked", src).expect("parses");
        let m = carat_core::CaratCompiler::new(carat_core::CompileOptions::default())
            .compile(module)
            .expect("compiles")
            .module;
        let mut vm = Vm::new(m, VmConfig::default()).expect("loads");
        vm.start().expect("starts");
        while vm.state.parked_threads < 2 {
            assert_eq!(vm.run_slice(256).expect("runs"), SliceExit::Quantum);
        }
        let page = vm.kernel.worst_page(&vm.table).expect("a tracked page");
        // Aim a pointer register, an integer register with the same bits,
        // every frame base and every stack pointer into the page; each
        // planted value is distinct, so a permuted write-back shows.
        let mut k = 0u64;
        let mut next = || {
            k += 8;
            page + k % 4096
        };
        let mut plant = |frames: &mut Vec<Frame>, sp: &mut u64| {
            for f in frames.iter_mut() {
                let x = next();
                f.regs.extend([Value::P(x), Value::I(x as i64)]);
                f.sp_base = next();
            }
            *sp = next();
        };
        let t = &mut vm.state;
        plant(&mut t.frames, &mut t.sp);
        for th in &mut t.threads {
            if let ThreadState::Parked(p) = th {
                plant(&mut p.frames, &mut p.sp);
            }
        }
        let before = thread_words(&vm.state);
        assert!(before.len() >= 3, "the current thread and two parked");
        let threads = vm.state.live_threads();
        let Vm {
            kernel,
            table,
            state,
        } = &mut vm;
        let (_, outcome) = state
            .relocated_by(
                |regs| kernel.move_pages(table, regs, page, 1, threads).map(Some),
                |(_, o)| [relocation_of(o)],
            )
            .expect("moves")
            .expect("moves");
        let moved = relocation_of(&outcome);
        assert!(moved.0 <= page && page + 4096 <= moved.0 + moved.1);
        assert_ne!(moved.2, 0);
        let after = thread_words(&vm.state);
        assert_rebased(&before, &after, moved);
        // The planted pair, spelled out: the pointer moved, the integer
        // with the same bits did not.
        let regs = &vm.state.frames[0].regs;
        let (p, i) = (regs[regs.len() - 2], regs[regs.len() - 1]);
        assert_eq!(bits(p).1, (bits(i).1).wrapping_add(moved.2 as u64));
        assert!(matches!((p, i), (Value::P(_), Value::I(_))));
    }

    /// The last poison window ends at 2⁶⁴: an address in it is rebased,
    /// and its neighbours on either side are not.
    #[test]
    fn translate_rebases_in_the_last_poison_window() {
        let (base, span) = SimKernel::swap_window((1 << 23) - 1);
        assert_eq!(base.wrapping_add(span), 0, "the window ends at 2^64");
        let delta = 0x10_0000_i64 - base as i64;
        assert_eq!(translate(base, base, span, delta), 0x10_0000);
        assert_eq!(translate(u64::MAX, base, span, delta), 0x10_0000 + span - 1);
        assert_eq!(translate(base - 1, base, span, delta), base - 1);
        assert_eq!(translate(0, base, span, delta), 0);
    }
}
