//! Multi-tenant scheduling: N CARAT processes time-sliced on one
//! simulated kernel.
//!
//! The single-process [`Vm`](crate::Vm) owns its kernel outright. Here
//! the one kernel is shared and never leaves [`MultiVm::kernel`]; a
//! tenant is a [`TenantState`] (frame stack, thread slots, counters,
//! decoded-code handle) in a slab slot, plus its allocation table checked
//! into the kernel's process table. A context switch goes through
//! [`SimKernel::proc_switch`] — which installs the incoming tenant's
//! address space (guard-region table and page table, one move) and
//! charges the modeled switch cost into kernel-side [`ProcAccounting`] — and the
//! slice then runs the interpreter over three borrows: the kernel, the
//! tenant's checked-out table, and the slot's state, all in place. There
//! is almost nothing to switch, which is the paper's point. Nothing
//! scales with fleet size: no per-tenant kernel, no per-tenant decoded
//! program (tenants spawned from one shared module share one decoded
//! copy), nothing built or torn down per slice.
//!
//! The accounting split is unchanged: a tenant's own counters never see
//! scheduling charges, so a time-sliced process retires exactly the
//! instruction stream and cycles a sequential run would (the
//! multi-process differential suite pins this down).
//!
//! Isolation is the paper's: in CARAT mode every access is guarded
//! against the owning process's region set, so a stray pointer into
//! another tenant surfaces as a typed [`ProtectionFault`] that kills the
//! offender and leaves every other process running — never a panic.
//! Lifecycle errors are typed too: spawning past the configured
//! [`TenantQuotas`] yields [`VmError::Admission`], and looking up a
//! killed or recycled pid yields [`TenancyError::NoSuchTenant`].

use std::fmt;
use std::rc::Rc;

use crate::counters::PerfCounters;
use crate::decode::DecodedProgram;
use crate::machine::{Core, Mode, RunResult, SliceExit, TenantState, VmConfig, VmError};
use crate::supervise::{PendingRestart, Supervisor, SupervisorConfig, TenantExit, Verdict};
use carat_ir::Module;
use carat_kernel::{
    AdmissionError, ArenaStats, CapsuleLayout, DmaCompletion, DmaDir, FaultPlan, KernelError,
    LoadConfig, LoadError, Pid, PinError, ProcAccounting, ProcState, ProtectionFault, SharedId,
    SimKernel, TenantQuotas,
};
use carat_runtime::{AllocKind, AllocationTable, MemAccess};

/// One tenant to admit into a [`MultiVm`].
pub struct ProcSpec {
    /// Process name (workload name in the benches).
    pub name: String,
    /// Its program.
    pub module: Module,
    /// Its VM configuration (mode, engine, load sizing …).
    pub cfg: VmConfig,
}

/// The fleet's preemption source: what ends a tenant's time slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedSource {
    /// Instruction-quantum round-robin (the original scheduler): a slice
    /// ends after [`MultiVmConfig::quantum`] retired instructions. No
    /// device is involved; the "interrupt" is the VM counting.
    #[default]
    Quantum,
    /// Timer-preemptive: before each slice the scheduler arms the
    /// kernel's CLINT-style timer at `tenant_cycles +
    /// [`MultiVmConfig::timer_interval`]`, and the slice ends when the
    /// tenant's modeled cycle counter crosses that deadline. The gap
    /// between the deadline and the actual exit (deferral past
    /// signals-masked windows) is recorded by the timer device as
    /// interrupt-to-dispatch latency.
    Timer,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct MultiVmConfig {
    /// Time-slice length in retired instructions. `u64::MAX` degenerates
    /// to running each process to completion in pid order — the
    /// "sequential" arm of the differential tests, on the same kernel
    /// and the same load addresses as the sliced arm. Used by
    /// [`SchedSource::Quantum`] only.
    pub quantum: u64,
    /// Preemption source (default [`SchedSource::Quantum`], the
    /// historical behavior; `--sched timer` in the benches selects
    /// [`SchedSource::Timer`]).
    pub sched: SchedSource,
    /// Timer-slice length in modeled cycles ([`SchedSource::Timer`]
    /// only). Clamped to at least 1 when a timer slice is armed.
    pub timer_interval: u64,
    /// Physical arena of the shared kernel in bytes.
    pub kernel_mem: u64,
    /// Run a memory-pressure compaction pass every this many slices
    /// (0 disables): pick the victim process whose allocation table
    /// carries the most live escapes, and relocate its worst pages with
    /// journaled CARAT moves plus a `page_out` — all while it is
    /// descheduled, charged to its kernel-side accounting.
    pub pressure_every: u64,
    /// Compaction victims relocated per pressure pass, coalesced into ONE
    /// world-stop via [`SimKernel::move_pages_batch`] (clamped to at
    /// least 1).
    pub pressure_batch: usize,
    /// Admission quotas for the fleet (default unlimited): spawns past
    /// the tenant-count or resident-byte ceiling fail with a typed
    /// [`VmError::Admission`] instead of exhausting the kernel arena.
    pub quotas: TenantQuotas,
    /// Supervision policy (default `None`: terminal tenant outcomes are
    /// recorded and the pid retired, exactly the pre-supervision
    /// behavior). With a policy installed, every abnormal exit goes
    /// through the [`Supervisor`]: recoverable exits are restarted with
    /// exponential backoff, unrecoverable ones (and lineages past the
    /// restart cap) are quarantined and reaped.
    pub supervisor: Option<SupervisorConfig>,
    /// Rung 3 of the degradation ladder: when a pressure pass sees
    /// frame utilization at or above this percentage, the coldest
    /// resident tenant is externalized into the checksummed capsule
    /// device. `100` effectively disables the rung (the default — the
    /// differential suites expect rungs 1–2 only).
    pub externalize_watermark: u64,
    /// Rung 4: admissions at or above this frame-utilization percentage
    /// are refused with [`AdmissionError::Backpressure`]. `101`
    /// disables the rung (the default).
    pub backpressure_watermark: u64,
    /// Private move-destination pool reserved per tenant at admission,
    /// in frames (0 disables — the default). With a pool, a tenant's
    /// CARAT move destinations are carved from its own pre-reserved
    /// frames instead of the shared buddy allocator, so fleet
    /// composition cannot perturb its relocation addresses — the
    /// strongest form of the bystander-determinism guarantee. The pool
    /// is reaped in full when the tenant dies.
    pub tenant_pool_pages: u64,
    /// Epoch-based pressure scanning: slots a pressure pass examines
    /// when choosing its externalization and compaction victims. The
    /// scan is a clock hand over the tenant slab — each pass picks up
    /// where the last left off, so every slot is still examined once per
    /// `fleet / pressure_scan_limit` passes, but per-pass cost is bounded
    /// and independent of fleet size. Fleets no larger than the limit get
    /// exactly the full-scan victims.
    pub pressure_scan_limit: usize,
}

impl Default for MultiVmConfig {
    fn default() -> MultiVmConfig {
        MultiVmConfig {
            quantum: 4096,
            sched: SchedSource::Quantum,
            // Default matches the quantum's order of magnitude: ~4096
            // instructions at a handful of cycles each.
            timer_interval: 16_384,
            kernel_mem: 512 * 1024 * 1024,
            pressure_every: 0,
            pressure_batch: 1,
            quotas: TenantQuotas::default(),
            supervisor: None,
            externalize_watermark: 100,
            backpressure_watermark: 101,
            tenant_pool_pages: 0,
            pressure_scan_limit: 64,
        }
    }
}

/// Typed tenant-lookup failure: the pid does not name a live tenant —
/// never admitted, already killed, or its slab slot was recycled (the
/// generation tag in the pid went stale). Lookups on retired pids return
/// this; they never panic and never alias a successor tenant in the same
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenancyError {
    /// No live tenant answers to this pid.
    NoSuchTenant(Pid),
    /// The tenant is live but its execution state is externalized to
    /// the capsule device: counters and footprint are unreadable until
    /// it is next scheduled (and thus rehydrated).
    NotResident(Pid),
}

impl fmt::Display for TenancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenancyError::NoSuchTenant(pid) => write!(f, "no such tenant: {pid}"),
            TenancyError::NotResident(pid) => {
                write!(f, "tenant {pid} is externalized to the capsule device")
            }
        }
    }
}

impl std::error::Error for TenancyError {}

/// How one tenant ended.
///
/// One value exists per process per run, so the size skew of carrying
/// the full [`RunResult`] inline is irrelevant.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ProcOutcome {
    /// `main` returned; the full single-process result.
    Finished(RunResult),
    /// Killed by an isolation violation (the typed fault, not a panic).
    Fault(ProtectionFault),
    /// Died on another VM error (step limit, OOM, trap …).
    Error(VmError),
}

/// Final report for one tenant.
#[derive(Debug)]
pub struct ProcReport {
    /// Its pid.
    pub pid: Pid,
    /// Its name.
    pub name: String,
    /// How it ended.
    pub outcome: ProcOutcome,
    /// Kernel-side scheduling/compaction accounting.
    pub accounting: ProcAccounting,
}

/// One slab slot of the fleet: the descheduled execution state plus the
/// scheduler-side facts about the tenant. `state` is `None` only while
/// its capsule is externalized (`external` holds the device slot).
struct Tenant {
    pid: Pid,
    name: String,
    traditional: bool,
    /// Respawn-from-image spec: the module and config this lineage was
    /// admitted with (the config's fault plan is stripped — the shared
    /// kernel plan is installed once, not re-armed per respawn).
    module: Rc<Module>,
    cfg: VmConfig,
    /// The decoded-program handle, kept host-side so an externalized
    /// capsule (which deliberately excludes it) can be rehydrated.
    program: Rc<DecodedProgram>,
    state: Option<TenantState>,
    /// Capsule-device slot while externalized.
    external: Option<u64>,
    /// Supervised restarts this lineage has consumed (carried across
    /// respawns so the circuit breaker counts the whole lineage).
    restarts: u32,
    /// Fleet slice this tenant last ran — the externalization rung's
    /// coldness metric.
    last_ran: u64,
    outcome: Option<ProcOutcome>,
}

/// What the fleet knows about one module handle it has admitted from,
/// keyed by the handle's *identity*: a module behind an `Rc` is
/// immutable, so what the admission gate learned about it (it verifies;
/// its text is this long) and what was decoded from it stay true for as
/// long as the handle lives. Holding the `Rc` here is what makes
/// identity sound — the address cannot be reused while the record
/// exists — and the record is dropped once it holds the last handle
/// (no tenant, pending respawn or caller can present it again).
struct ModuleRecord {
    module: Rc<Module>,
    /// The module's `carat_ir::print_module` length, measured when the
    /// gate verified it.
    text_len: u64,
    /// One decoded copy per decode recipe in use: every tenant of this
    /// module under the same recipe shares it.
    programs: Vec<Rc<DecodedProgram>>,
}

/// N processes time-sliced on one shared simulated kernel.
pub struct MultiVm {
    /// The one kernel: built in [`MultiVm::new`] and never moved — a
    /// slice borrows it (public for post-run inspection, and for tuning
    /// its cost model before admission, like [`Vm::kernel`](crate::Vm)).
    pub kernel: SimKernel,
    /// Tenant slots, indexed by `pid.index()` — the same slab indices as
    /// the kernel's process table, so both sides recycle in lock-step.
    slots: Vec<Option<Tenant>>,
    /// One record per live module handle: verified and measured once by
    /// the admission gate, decoded once per recipe — a 10k-tenant fleet
    /// of one workload holds ONE decoded copy of its code.
    modules: Vec<ModuleRecord>,
    cfg: MultiVmConfig,
    /// Slices executed so far (drives the pressure cadence across
    /// [`MultiVm::run_batch`] calls).
    slices: u64,
    /// Restart/quarantine policy engine, when configured.
    supervisor: Option<Supervisor>,
    /// Final reports of tenants the supervisor reaped (restarted or
    /// quarantined) — prepended to [`MultiVm::run`]'s report list so a
    /// supervised fleet still accounts for every admission.
    retired: Vec<ProcReport>,
    /// Pooled externalization scratch: capsule images are encoded into
    /// and decoded from this one buffer, so steady-state
    /// externalize/rehydrate churn performs zero host allocations (the
    /// kernel-side arena pools the parked copies).
    scratch: Vec<u8>,
    /// Clock hand of the epoch-based externalization scan: the slab
    /// index the next pressure pass starts examining from.
    scan_hand: usize,
    /// Modeled cycles spent admitting tenants (verify + quota + stamp;
    /// fleet-level — admission predates the tenant, so there is no
    /// per-tenant accounting to charge).
    admission_cycles: u64,
    /// Modeled cycles spent scanning for pressure victims
    /// (externalization coldness + compaction escapes), and the slots
    /// those scans examined. The fleet bench's flatness gate reads
    /// these: per-slice scan cost must not grow with fleet size.
    pressure_scan_cycles: u64,
    pressure_scan_slots: u64,
}

impl MultiVm {
    /// Build a fleet over one shared kernel and admit every spec (in pid
    /// order), exactly like calling [`MultiVm::spawn`] for each.
    ///
    /// # Errors
    ///
    /// Loader failures, a module without `main`, or a quota refusal
    /// ([`VmError::Admission`]).
    pub fn new(specs: Vec<ProcSpec>, cfg: MultiVmConfig) -> Result<MultiVm, VmError> {
        let mut kernel = SimKernel::new(cfg.kernel_mem);
        kernel.set_quotas(cfg.quotas);
        let mut mv = MultiVm {
            kernel,
            slots: Vec::new(),
            modules: Vec::new(),
            supervisor: cfg.supervisor.map(Supervisor::new),
            retired: Vec::new(),
            cfg,
            slices: 0,
            scratch: Vec::new(),
            scan_hand: 0,
            admission_cycles: 0,
            pressure_scan_cycles: 0,
            pressure_scan_slots: 0,
        };
        for spec in specs {
            mv.spawn(spec)?;
        }
        Ok(mv)
    }

    /// Number of live tenants (admitted and not yet killed; exited
    /// tenants still count until the fleet is torn down).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no tenant is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit one tenant: load its module into the shared kernel, decode
    /// its program, register it with the kernel's process table
    /// (admission-checked against the quotas), and park it descheduled
    /// and runnable. O(program + capsule) — nothing about this scales
    /// with the number of tenants already resident. Exactly
    /// [`MultiVm::spawn_shared`] of a module handle nobody else holds.
    ///
    /// # Errors
    ///
    /// Loader failures ([`VmError::Load`]), a module without `main`, or
    /// a quota refusal ([`VmError::Admission`]). Both refusals a module
    /// can meet at the gate happen before anything per-tenant does: the
    /// spec's fault plan is not installed, the current process stays
    /// installed, no frame is allocated and no pid burned. A module the
    /// verifier rejects is charged no admission toll; a quota refusal is
    /// charged the gate's `admit_verify + admit_quota` and nothing else.
    pub fn spawn(&mut self, spec: ProcSpec) -> Result<Pid, VmError> {
        let ProcSpec { name, module, cfg } = spec;
        self.spawn_shared(&name, Rc::new(module), cfg)
    }

    /// Admit one tenant from a shared module: every tenant spawned from
    /// the same `Rc<Module>` shares one decoded program, so a 10k-tenant
    /// fleet of one workload holds ONE decoded copy of its code. Exactly
    /// [`MultiVm::spawn_batch`] of one, under the caller's name.
    ///
    /// # Errors
    ///
    /// See [`MultiVm::spawn`].
    pub fn spawn_shared(
        &mut self,
        name: &str,
        module: Rc<Module>,
        cfg: VmConfig,
    ) -> Result<Pid, VmError> {
        let text_len = self.admission_gate(&module, cfg.load, 1)?;
        self.stamp(name, module, cfg, text_len)
    }

    /// Admit N tenants from one shared module in a single admission
    /// pass: the backpressure gate and the quotas are consulted ONCE,
    /// for the whole batch, and each tenant is then stamped through the
    /// preverified load path. Tenant `i` is named `{name_prefix}{i}`, and
    /// its image, counters, guards, and capsule bytes are bit-identical
    /// to the tenant the `i`-th one-tenant [`MultiVm::spawn_shared`] call
    /// would have produced — only the modeled admission cost differs
    /// ([`MultiVm::admission_cycles`] grows by `verify + quota + n ×
    /// stamp` instead of `n × (verify + quota + stamp)`).
    ///
    /// All-or-nothing, in two steps. A batch the quotas cannot hold is
    /// refused at the gate, before the first stamp, with the error the
    /// first failing one-tenant admission would have returned — nothing
    /// is built to be thrown away. What arithmetic cannot foresee — the
    /// loader running out of frames, a pool reservation or `start`
    /// failing, an injected fault — still surfaces mid-batch: the tenants
    /// already stamped are killed and the error returned, leaving the
    /// fleet as before the call (their `admit_stamp` tolls stay charged).
    ///
    /// # Errors
    ///
    /// See [`MultiVm::spawn_shared`], plus [`LoadError::Verify`] when
    /// the template module fails verification (checked here, since the
    /// per-tenant path skips it).
    pub fn spawn_batch(
        &mut self,
        name_prefix: &str,
        module: Rc<Module>,
        cfg: VmConfig,
        n: usize,
    ) -> Result<Vec<Pid>, VmError> {
        let text_len = self.admission_gate(&module, cfg.load, n)?;
        let mut pids = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("{name_prefix}{i}");
            match self.stamp(&name, module.clone(), cfg.clone(), text_len) {
                Ok(pid) => pids.push(pid),
                Err(e) => {
                    // Unwind the partial batch: admission is
                    // all-or-nothing.
                    for pid in pids {
                        self.kill(pid);
                    }
                    return Err(e);
                }
            }
        }
        Ok(pids)
    }

    /// The once-per-admission-pass half of every admission, however many
    /// tenants follow — and where the fleet says no. In order: the
    /// backpressure watermark (no toll); verify and measure the module,
    /// once per module handle (a verifier refusal charges no toll and
    /// remembers nothing); charge `admit_verify + admit_quota`; ask the
    /// process table whether `n` capsules of this module's size under
    /// `load` fit the quotas. Nothing per-tenant has happened when this
    /// returns an error. Returns the module's text length for
    /// [`MultiVm::stamp`].
    fn admission_gate(
        &mut self,
        module: &Rc<Module>,
        load: LoadConfig,
        n: usize,
    ) -> Result<u64, VmError> {
        // Rung 4 of the degradation ladder: past the backpressure
        // watermark the fleet sheds load at the door — a typed refusal
        // before any frame is committed, never an allocator panic.
        let utilization_pct = self.utilization_pct();
        if utilization_pct >= self.cfg.backpressure_watermark {
            return Err(VmError::Admission(AdmissionError::Backpressure {
                utilization_pct,
                watermark_pct: self.cfg.backpressure_watermark,
            }));
        }
        let text_len = match self.record_of(module) {
            Some(known) => known.text_len,
            None => {
                carat_ir::verify_module(module).map_err(|e| VmError::Load(LoadError::Verify(e)))?;
                let text_len = carat_ir::print_module(module).len() as u64;
                // A miss is rare (once per module); sweep records whose
                // module was refused here and then dropped by its caller.
                self.prune_modules();
                self.modules.push(ModuleRecord {
                    module: module.clone(),
                    text_len,
                    programs: Vec::new(),
                });
                text_len
            }
        };
        // The modeled toll is per pass, not per host-side verification:
        // the kernel being modeled keeps no such memo.
        self.admission_cycles += self.kernel.cost.admit_verify + self.kernel.cost.admit_quota;
        let capsule = CapsuleLayout::of(module, text_len, load).bytes();
        self.kernel.procs.admit_batch(n, capsule)?;
        Ok(text_len)
    }

    fn record_of(&mut self, module: &Rc<Module>) -> Option<&mut ModuleRecord> {
        self.modules
            .iter_mut()
            .find(|r| Rc::ptr_eq(&r.module, module))
    }

    /// Drop the records that hold the last handle to their module.
    fn prune_modules(&mut self) {
        self.modules.retain(|r| Rc::strong_count(&r.module) > 1);
    }

    /// The per-tenant half of every admission: charge `admit_stamp` and
    /// load one tenant from a module [`MultiVm::admission_gate`] already
    /// verified, measured (`text_len`) and found room for.
    fn stamp(
        &mut self,
        name: &str,
        module: Rc<Module>,
        cfg: VmConfig,
        text_len: u64,
    ) -> Result<Pid, VmError> {
        self.admission_cycles += self.kernel.cost.admit_stamp;
        if let Some(plan) = cfg.fault_plan.clone() {
            self.kernel.install_fault_plan(plan);
        }
        // Mid-fleet admission (supervised respawn, churn): the loader
        // builds the newcomer's regions in the kernel's installed address
        // space, which registration hands to the newcomer whole — so an
        // installed incumbent must be parked first.
        self.kernel.proc_park();
        let mut table = AllocationTable::new();
        let image =
            self.kernel
                .load_shared_preverified(module.clone(), text_len, &mut table, cfg.load)?;
        let pid = self.kernel.register_proc(name, &image)?;
        if let Err(e) = self
            .kernel
            .proc_reserve_pool(pid, self.cfg.tenant_pool_pages)
        {
            // Pool reservation is part of admission: refuse the tenant
            // whole rather than admit it with weaker isolation.
            self.kernel.proc_kill(pid);
            return Err(VmError::Kernel(e));
        }
        let program = self.decoded(&module, &cfg);
        let traditional = cfg.mode == Mode::Traditional;
        // The respawn spec keeps the admission config minus its fault
        // plan: the shared kernel plan was installed above, once — a
        // supervised respawn must not re-arm it.
        let mut spec_cfg = cfg.clone();
        spec_cfg.fault_plan = None;
        // The newcomer is sized and started against the fleet's own
        // kernel, so its TLB geometry and the `call` that pushes `main`
        // follow the same cost model as every later instruction.
        let mut state = TenantState::new(image, cfg, program.clone(), &self.kernel.cost);
        let started = Core {
            kernel: &mut self.kernel,
            table: &mut table,
            t: &mut state,
        }
        .start();
        if let Err(e) = started {
            self.kernel.proc_kill(pid);
            return Err(e);
        }
        self.kernel.procs.checkin_table(pid, table);
        let idx = pid.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        debug_assert!(
            self.slots[idx].is_none(),
            "kernel slab and fleet slots recycle in lock-step"
        );
        self.slots[idx] = Some(Tenant {
            pid,
            name: name.to_string(),
            traditional,
            module,
            cfg: spec_cfg,
            program,
            state: Some(state),
            external: None,
            restarts: 0,
            last_ran: self.slices,
            outcome: None,
        });
        Ok(pid)
    }

    /// The shared decoded program for `module` under `cfg`'s decode
    /// recipe, decoded on first sight into the module's record (which
    /// dies with the module's last tenant, pruned in [`MultiVm::kill`]).
    fn decoded(&mut self, module: &Rc<Module>, cfg: &VmConfig) -> Rc<DecodedProgram> {
        let record = self
            .record_of(module)
            .expect("the gate recorded this module and the stamp still holds its handle");
        if let Some(p) = record
            .programs
            .iter()
            .find(|p| p.decoded_for(cfg.engine, cfg.threaded))
        {
            return p.clone();
        }
        let p = Rc::new(DecodedProgram::decode_for(module, cfg.engine, cfg.threaded));
        record.programs.push(p.clone());
        p
    }

    /// Kill tenant `pid`: retire its kernel slab slot (generation bump —
    /// every outstanding copy of the pid goes stale), free its capsule
    /// frames, and drop its descheduled state. Returns `false` for a
    /// stale pid — killing twice is a no-op, never a panic.
    pub fn kill(&mut self, pid: Pid) -> bool {
        let Ok(t) = self.tenant(pid) else {
            return false;
        };
        // Reap-and-release: kernel frames and quota via `proc_kill`,
        // plus any capsule the tenant left in the device.
        if let Some(slot) = t.external {
            self.kernel.capsule_free(slot);
        }
        self.kernel.proc_kill(pid);
        self.slots[pid.index()] = None;
        // Forget modules (and their decoded programs) whose last tenant
        // just died.
        self.prune_modules();
        true
    }

    fn tenant(&self, pid: Pid) -> Result<&Tenant, TenancyError> {
        self.slots
            .get(pid.index())
            .and_then(|s| s.as_ref())
            .filter(|t| t.pid == pid)
            .ok_or(TenancyError::NoSuchTenant(pid))
    }

    /// Mutable twin of [`MultiVm::tenant`]. An associated function over
    /// the slab alone, so the returned tenant can be worked on while
    /// `self.kernel` does the moving (or runs the slice).
    fn tenant_mut(slots: &mut [Option<Tenant>], pid: Pid) -> Result<&mut Tenant, TenancyError> {
        slots
            .get_mut(pid.index())
            .and_then(|s| s.as_mut())
            .filter(|t| t.pid == pid)
            .ok_or(TenancyError::NoSuchTenant(pid))
    }

    /// The live performance counters of tenant `pid` (the differential
    /// comparison target — kernel-side scheduling charges never appear
    /// here).
    ///
    /// # Errors
    ///
    /// [`TenancyError::NoSuchTenant`] for a killed or recycled pid;
    /// [`TenancyError::NotResident`] while the tenant's capsule is
    /// externalized to the device.
    pub fn counters(&self, pid: Pid) -> Result<&PerfCounters, TenancyError> {
        let t = self.tenant(pid)?;
        t.state
            .as_ref()
            .map(|s| s.counters())
            .ok_or(TenancyError::NotResident(pid))
    }

    /// Host bytes pinned by tenant `pid` while descheduled — the fleet
    /// bench's per-tenant memory-overhead metric. Capsule bytes live in
    /// kernel physical memory and the decoded program is shared, so this
    /// is the true marginal cost of keeping one more tenant parked.
    ///
    /// # Errors
    ///
    /// [`TenancyError::NoSuchTenant`] for a killed or recycled pid;
    /// [`TenancyError::NotResident`] while the tenant's capsule is
    /// externalized to the device.
    pub fn descheduled_bytes(&self, pid: Pid) -> Result<usize, TenancyError> {
        let t = self.tenant(pid)?;
        t.state
            .as_ref()
            .map(|s| s.footprint_bytes())
            .ok_or(TenancyError::NotResident(pid))
    }

    /// The capsule image of tenant `pid` — the exact bytes
    /// [`MultiVm::externalize_tenant`] would write, serialized from the
    /// resident state without consuming it. Differential suites compare
    /// these across admission paths: two tenants whose images are
    /// byte-identical are in bit-identical execution states.
    ///
    /// # Errors
    ///
    /// [`TenancyError::NoSuchTenant`] for a killed or recycled pid;
    /// [`TenancyError::NotResident`] while the tenant's capsule is
    /// externalized to the device.
    pub fn capsule_image(&self, pid: Pid) -> Result<Vec<u8>, TenancyError> {
        let t = self.tenant(pid)?;
        t.state
            .as_ref()
            .map(TenantState::externalize)
            .ok_or(TenancyError::NotResident(pid))
    }

    /// The supervisor's decision log and tallies, when supervision is
    /// configured.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// Fleet slices executed so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Modeled cycles spent admitting tenants (verification, quota
    /// consultation, capsule stamping). Batch admission amortizes the
    /// verify + quota share across the batch, so this is the bench's
    /// measure of the batch-vs-sequential admission win.
    pub fn admission_cycles(&self) -> u64 {
        self.admission_cycles
    }

    /// Modeled cycles spent scanning for pressure victims, and the
    /// slots examined. Bounded per pass by
    /// [`MultiVmConfig::pressure_scan_limit`], so cycles-per-pass stays
    /// flat as the fleet grows — the bench's flatness gate reads this.
    pub fn pressure_scan_cycles(&self) -> u64 {
        self.pressure_scan_cycles
    }

    /// Slab slots examined by pressure-victim scans so far.
    pub fn pressure_scan_slots(&self) -> u64 {
        self.pressure_scan_slots
    }

    /// Pool accounting of the kernel's capsule arena (live/pooled
    /// bytes, high-water marks, alloc/reuse/reap counters) — the fleet
    /// bench's arena columns.
    pub fn arena_stats(&self) -> ArenaStats {
        self.kernel.arena_stats()
    }

    /// Current frame utilization of the shared kernel arena, in percent
    /// — the degradation ladder's pressure signal.
    pub fn utilization_pct(&self) -> u64 {
        let total = self.kernel.buddy.total_pages();
        if total == 0 {
            return 0;
        }
        (total - self.kernel.buddy.pages_free()) * 100 / total
    }

    /// Arm the shared kernel with a seeded fault plan — the chaos
    /// bench's storm installer. Replaces any plan installed at
    /// admission time.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.kernel.install_fault_plan(plan);
    }

    /// Externalize tenant `pid`: serialize its descheduled state into
    /// the kernel's checksummed capsule device and drop the resident
    /// copy (rung 3 of the degradation ladder; also callable directly).
    /// Idempotent — an already-externalized tenant returns its existing
    /// slot. Returns the device slot.
    ///
    /// # Errors
    ///
    /// [`KernelError::StaleTenant`] (as [`VmError::Kernel`]) for a dead
    /// pid, or [`KernelError::CapsuleWriteFailed`] when the device
    /// refuses the write (injected fault) — the tenant stays resident
    /// and untouched.
    pub fn externalize_tenant(&mut self, pid: Pid) -> Result<u64, VmError> {
        let idx = pid.index();
        let stale = || VmError::Kernel(KernelError::StaleTenant { pid });
        if let Some(slot) = self.tenant(pid).map_err(|_| stale())?.external {
            return Ok(slot);
        }
        // A pinned tenant's memory holds live device targets: the DMA
        // engine addresses it by physical location, so serializing the
        // tenant away while a pin is live would leave the device writing
        // into a reaped image. Refuse typed; unpin (or kill) first.
        let pinned = self.kernel.pinned_bytes_of(pid);
        if pinned > 0 {
            return Err(VmError::Pin(PinError::PinnedTenant { pid, bytes: pinned }));
        }
        let state = self.slots[idx]
            .as_mut()
            .and_then(|t| t.state.take())
            .ok_or_else(stale)?;
        // Encode into the fleet's pooled scratch buffer; the kernel
        // copies it into a pooled arena slot. Steady-state churn
        // allocates nothing on the host.
        let mut buf = std::mem::take(&mut self.scratch);
        state.externalize_into(&mut buf);
        let wrote = self.kernel.capsule_write_from(&buf);
        self.scratch = buf;
        match wrote {
            Ok(slot) => {
                if let Some(t) = self.slots[idx].as_mut() {
                    t.external = Some(slot);
                }
                if let Some(e) = self.kernel.procs.get_mut(pid) {
                    e.accounting.externalizations += 1;
                }
                Ok(slot)
            }
            Err(e) => {
                // Device refused: put the resident copy back; nothing
                // was consumed.
                if let Some(t) = self.slots[idx].as_mut() {
                    t.state = Some(state);
                }
                Err(VmError::Kernel(e))
            }
        }
    }

    /// Rehydrate tenant `pid` from the capsule device (no-op when it is
    /// already resident). Called automatically when an externalized
    /// tenant is next scheduled.
    ///
    /// # Errors
    ///
    /// [`KernelError::CapsuleCorrupt`] (as [`VmError::Kernel`]) when
    /// the image fails its checksum or no longer parses — the execution
    /// state is lost (the device consumed the slot) and the supervisor,
    /// if configured, respawns the lineage from its admission image.
    pub fn rehydrate_tenant(&mut self, pid: Pid) -> Result<(), VmError> {
        let idx = pid.index();
        let t = self
            .tenant(pid)
            .map_err(|_| VmError::Kernel(KernelError::StaleTenant { pid }))?;
        let Some(slot) = t.external else {
            return Ok(());
        };
        // The read consumes the slot whether or not it verifies; the
        // resident marker is cleared on every path below. The image is
        // copied out of its arena slot into the pooled scratch buffer —
        // no allocation on the steady-state path.
        let mut buf = std::mem::take(&mut self.scratch);
        let read = self.kernel.capsule_read_into(slot, &mut buf);
        let Some(t) = self.slots[idx].as_mut() else {
            self.scratch = buf;
            return Err(VmError::Kernel(KernelError::StaleTenant { pid }));
        };
        t.external = None;
        if let Err(e) = read {
            self.scratch = buf;
            return Err(VmError::Kernel(e));
        }
        let state =
            TenantState::rehydrate(&buf, t.cfg.clone(), t.module.clone(), t.program.clone());
        self.scratch = buf;
        match state {
            Some(state) => {
                if let Some(t) = self.slots[idx].as_mut() {
                    t.state = Some(state);
                }
                if let Some(e) = self.kernel.procs.get_mut(pid) {
                    e.accounting.rehydrations += 1;
                }
                Ok(())
            }
            None => Err(VmError::Kernel(KernelError::CapsuleCorrupt { slot })),
        }
    }

    /// Create a shared memory block of at least `len` bytes (page
    /// aligned up), mapped into no process yet.
    ///
    /// # Errors
    ///
    /// [`VmError::Kernel`] when no frames are left.
    pub fn shared_create(&mut self, len: u64) -> Result<SharedId, VmError> {
        Ok(self.kernel.shared_create(len)?)
    }

    /// Map shared block `id` into process `pid`'s region set and publish
    /// its base pointer into the storage of that process's global
    /// `global` — the block becomes a tracked allocation in the owner's
    /// table and the global's cell a registered escape, so a later
    /// kernel move of the block patches this owner's pointer too.
    ///
    /// # Errors
    ///
    /// Typed, never a panic: [`KernelError::NoSuchShared`] for a dead
    /// block id, [`KernelError::StaleTenant`] for a dead or
    /// externalized pid, and a [`VmError::Trap`] for a global index the
    /// program does not have.
    pub fn shared_map(&mut self, pid: Pid, id: SharedId, global: usize) -> Result<(), VmError> {
        let cell = self
            .tenant(pid)
            .ok()
            .and_then(|t| t.state.as_ref())
            .ok_or(VmError::Kernel(KernelError::StaleTenant { pid }))?
            .image()
            .globals
            .get(global)
            .copied()
            .ok_or_else(|| VmError::Trap(format!("shared_map: no global #{global}")))?;
        self.kernel.shared_map(pid, id)?;
        let (base, len) = {
            let s = self
                .kernel
                .procs
                .shared(id)
                .ok_or(VmError::Kernel(KernelError::NoSuchShared { id }))?;
            (s.base, s.len)
        };
        self.kernel.mem.write_uint(cell, base, 8);
        let mut table = self
            .kernel
            .procs
            .checkout_table(pid)
            .ok_or(VmError::Kernel(KernelError::StaleTenant { pid }))?;
        // Kernel-side setup, not guest instrumentation: track and resolve
        // directly against the table, charging the guest nothing.
        table.track_alloc(base, len, AllocKind::Heap);
        table.track_escape(cell);
        let mem = &self.kernel.mem;
        table.flush_escapes(|c| mem.read_u64(c));
        self.kernel.procs.checkin_table(pid, table);
        Ok(())
    }

    /// Move shared block `id` to a fresh location in one world stop:
    /// every owner's escapes, dumped registers, heap bookkeeping, and
    /// guard-region map are patched. Callable between slices (every
    /// process quiesced). Returns the new base.
    ///
    /// # Errors
    ///
    /// Transactional: a typed kernel error (frame exhaustion, injected
    /// mid-move fault …) leaves every owner byte-identical to the
    /// pre-call state and is retryable.
    pub fn move_shared(&mut self, id: SharedId) -> Result<u64, VmError> {
        let owners = {
            let s = self
                .kernel
                .procs
                .shared(id)
                .ok_or(VmError::Kernel(KernelError::NoSuchShared { id }))?;
            s.owners.clone()
        };
        // Quiesced by construction: escapes were flushed when each owner
        // was descheduled, and setup escapes were resolved eagerly. The
        // owners' dumps are concatenated, owner by owner; each owner's
        // slice is patched back into its slot's state in place.
        let mut regs: Vec<u64> = Vec::new();
        let mut spans = Vec::with_capacity(owners.len());
        let mut threads = 0usize;
        for &pid in &owners {
            let state = Self::tenant_mut(&mut self.slots, pid)
                .ok()
                .and_then(|t| t.state.as_mut())
                .ok_or(VmError::Kernel(KernelError::StaleTenant { pid }))?;
            let from = regs.len();
            state.visit_dump(|r| regs.push(*r));
            spans.push((pid, from..regs.len()));
            threads += state.live_threads();
        }
        let receipt = self.kernel.move_shared(id, &mut regs, threads)?;
        for (pid, span) in spans {
            // Every owner was validated resident above and nothing ran
            // in between; a vanished one has no registers left to patch.
            let Some(state) = Self::tenant_mut(&mut self.slots, pid)
                .ok()
                .and_then(|t| t.state.as_mut())
            else {
                continue;
            };
            state.restore_dump(&regs[span]);
            state.apply_relocation(&receipt);
        }
        self.kernel
            .procs
            .shared(id)
            .map(|s| s.base)
            .ok_or(VmError::Kernel(KernelError::NoSuchShared { id }))
    }

    /// Pin shared block `id` as a DMA target on behalf of tenant `pid`:
    /// the block's whole range enters the kernel pin list (every mover
    /// refuses it with a typed error until unpinned) and the pin is
    /// charged to `pid`'s accounting, so killing the tenant reaps it.
    ///
    /// This is the CARAT pin: a registry entry, no page-table walk —
    /// see [`carat_runtime::CostModel::pin_cost_carat`].
    ///
    /// # Errors
    ///
    /// [`VmError::Pin`] — stale pid, overlap with an existing pin, or a
    /// swapped-out range; [`VmError::Kernel`] for a dead block id.
    pub fn pin_shared(&mut self, pid: Pid, id: SharedId) -> Result<(u64, u64), VmError> {
        let (base, len) = {
            let s = self
                .kernel
                .procs
                .shared(id)
                .ok_or(VmError::Kernel(KernelError::NoSuchShared { id }))?;
            (s.base, s.len)
        };
        self.kernel.pin_region_for(pid, base, len)?;
        Ok((base, len))
    }

    /// Release the pin covering shared block `id` (exact-range match).
    ///
    /// # Errors
    ///
    /// [`VmError::Pin`] when no pin matches the block's current range;
    /// [`VmError::Kernel`] for a dead block id.
    pub fn unpin_shared(&mut self, id: SharedId) -> Result<(), VmError> {
        let (base, len) = {
            let s = self
                .kernel
                .procs
                .shared(id)
                .ok_or(VmError::Kernel(KernelError::NoSuchShared { id }))?;
            (s.base, s.len)
        };
        self.kernel.unpin_region(base, len)?;
        Ok(())
    }

    /// Enqueue a DMA request on the modeled device; returns its id.
    /// The target range must already be pinned when the device services
    /// it (see [`MultiVm::dma_service`]), not at submit time — exactly
    /// the window a real device driver has to get pinning wrong, and
    /// what the chaos tests probe.
    pub fn dma_submit(&mut self, addr: u64, len: u64, dir: DmaDir) -> u64 {
        self.kernel.dev.dma.submit(addr, len, dir)
    }

    /// Service up to `max` queued DMA requests against physical memory,
    /// returning their completions (also retained on the device's
    /// completion ring). Unpinned or swapped targets complete with a
    /// typed [`carat_kernel::DmaError`]; nothing is transferred for
    /// them.
    pub fn dma_service(&mut self, max: usize) -> Vec<DmaCompletion> {
        self.kernel.dma_service(max)
    }

    /// Run ONE time slice for tenant `pid`: context-switch the kernel's
    /// view (regions or page table — the modeled cost lands in kernel
    /// accounting), run the tenant up to the quantum over the kernel,
    /// its checked-out table and its slot's state, all borrowed in
    /// place, and record any terminal outcome.
    fn run_one_slice(&mut self, pid: Pid) {
        self.slices += 1;
        let idx = pid.index();
        let Ok(t) = Self::tenant_mut(&mut self.slots, pid) else {
            // The run queue handed us a pid whose slot was reaped
            // between slices; retire it so it is never picked again.
            self.kernel.procs.set_state(pid, ProcState::Exited(-1));
            return;
        };
        let traditional = t.traditional;
        t.last_ran = self.slices;
        // Rehydrate-on-schedule: an externalized tenant comes back from
        // the capsule device before it can run. A corrupt capsule is a
        // tenant-fatal but fleet-recoverable exit — the supervisor
        // respawns the lineage from its admission image; bystanders
        // never notice.
        if t.external.is_some() {
            if let Err(e) = self.rehydrate_tenant(pid) {
                self.kernel.procs.set_state(pid, ProcState::Exited(-1));
                self.supervise(pid, ProcOutcome::Error(e));
                return;
            }
        }
        if self.kernel.proc_switch(pid, traditional).is_err() {
            // Stale by the kernel's account: retire the fleet slot too.
            self.kernel.procs.set_state(pid, ProcState::Exited(-1));
            return;
        }
        let Some(mut table) = self.kernel.procs.checkout_table(pid) else {
            self.kernel.procs.set_state(pid, ProcState::Exited(-1));
            return;
        };
        let Some(state) = self.slots[idx].as_mut().and_then(|t| t.state.as_mut()) else {
            self.kernel.procs.checkin_table(pid, table);
            self.kernel.procs.set_state(pid, ProcState::Exited(-1));
            return;
        };
        // Timer-preemptive scheduling: arm the kernel's CLINT-style
        // timer at the tenant's current modeled cycles plus the
        // interval. The quantum path arms nothing.
        let timer_deadline = match self.cfg.sched {
            SchedSource::Quantum => None,
            SchedSource::Timer => {
                let deadline = state
                    .counters()
                    .cycles
                    .saturating_add(self.cfg.timer_interval.max(1));
                self.kernel.dev.timer.arm(deadline);
                Some(deadline)
            }
        };
        // The table lives inside `kernel.procs`, which the engine borrows
        // mutably along with the rest of the kernel — hence the checkout.
        let mut core = Core {
            kernel: &mut self.kernel,
            table: &mut table,
            t: state,
        };
        let res = match timer_deadline {
            None => core.run_slice(self.cfg.quantum),
            Some(deadline) => core.run_slice_cycles(deadline),
        };
        // Fold the final result while the table is still checked out
        // (the flush and audit need it). This match is the per-tenant
        // fault domain: every failure mode of the slice lands here as a
        // typed value — the tenant dies alone and the loop (and every
        // bystander's counters) continues untouched.
        let done = match res {
            Ok(SliceExit::Quantum) => None,
            Ok(SliceExit::Finished(v)) => Some(ProcOutcome::Finished(core.finish_run(v))),
            // Typed isolation violation: recorded below, once the table
            // is checked back in.
            Err(VmError::GuardFault { addr, len, write }) => {
                Some(ProcOutcome::Fault(ProtectionFault {
                    pid,
                    addr,
                    len,
                    write,
                }))
            }
            Err(e) => Some(ProcOutcome::Error(e)),
        };
        // Flush the slice's pending escapes (so a cross-process move
        // while descheduled sees every pointer cell), then check in.
        core.flush_escapes();
        let end_cycles = core.t.counters().cycles;
        self.kernel.procs.checkin_table(pid, table);
        // Retire the timer interrupt: a quantum exit under timer
        // scheduling *is* the dispatched interrupt (latency = cycles past
        // the deadline, the deferral the tenant's masked windows
        // imposed); any terminal outcome disarms the comparator instead.
        if timer_deadline.is_some() {
            if done.is_none() {
                let latency = self.kernel.dev.timer.dispatch(end_cycles);
                if let Some(e) = self.kernel.procs.get_mut(pid) {
                    e.accounting.timer_preemptions += 1;
                    e.accounting.preempt_latency_cycles += latency;
                }
            } else {
                self.kernel.dev.timer.cancel();
            }
        }
        if let Some(outcome) = done {
            match &outcome {
                ProcOutcome::Fault(f) => {
                    self.kernel
                        .procs
                        .record_protection_fault(pid, f.addr, f.len, f.write);
                }
                ProcOutcome::Finished(rr) => {
                    self.kernel.procs.set_state(pid, ProcState::Exited(rr.ret));
                }
                ProcOutcome::Error(_) => {
                    // Dead either way; `Exited(-1)` retires the pid so
                    // the scheduler never picks it again.
                    self.kernel.procs.set_state(pid, ProcState::Exited(-1));
                }
            }
            self.supervise(pid, outcome);
        }
        if self.cfg.pressure_every != 0 && self.slices.is_multiple_of(self.cfg.pressure_every) {
            self.pressure_pass();
        }
    }

    /// Route a terminal outcome through the supervision policy.
    ///
    /// Unsupervised fleets keep the pre-supervision behavior: the
    /// outcome is recorded in the slot and the pid stays (retired) until
    /// teardown. Supervised fleets retire finished tenants the same way,
    /// but abnormal exits are judged: recoverable ones are reaped and
    /// scheduled for a backed-off respawn, unrecoverable ones (and
    /// lineages past the restart cap) are quarantined — reaped with no
    /// successor. Reaping releases frames, quota, and capsule slot, and
    /// banks the tenant's final report.
    fn supervise(&mut self, pid: Pid, outcome: ProcOutcome) {
        let slice = self.slices;
        let Ok(t) = Self::tenant_mut(&mut self.slots, pid) else {
            return;
        };
        let attempt = t.restarts;
        // Normal retirement: the tenant (and its full result) stays in
        // its slot for the final report, supervised or not.
        if let ProcOutcome::Finished(rr) = outcome {
            let (name, ret) = (t.name.clone(), rr.ret);
            t.outcome = Some(ProcOutcome::Finished(rr));
            if let Some(sup) = self.supervisor.as_mut() {
                sup.decide(slice, pid, &name, TenantExit::Finished(ret), attempt);
            }
            return;
        }
        let Some(sup) = self.supervisor.as_mut() else {
            t.outcome = Some(outcome);
            return;
        };
        let exit = match &outcome {
            ProcOutcome::Fault(f) => TenantExit::Fault(*f),
            ProcOutcome::Error(e) => TenantExit::classify(e),
            ProcOutcome::Finished(_) => unreachable!("handled above"),
        };
        let name = t.name.clone();
        let (module, cfg) = (t.module.clone(), t.cfg.clone());
        let verdict = sup.decide(slice, pid, &name, exit, attempt);
        if let Verdict::Restarting { due_slice, .. } = verdict {
            let event_idx = sup.events.len() - 1;
            sup.pending.push(PendingRestart {
                event_idx,
                pid,
                name: name.clone(),
                module,
                cfg,
                attempt: attempt + 1,
                due_slice,
            });
        }
        // Reap-and-release: bank the report, then free frames, quota,
        // and capsule slot.
        let accounting = self
            .kernel
            .procs
            .get(pid)
            .map(|e| e.accounting)
            .unwrap_or_default();
        self.retired.push(ProcReport {
            pid,
            name,
            outcome,
            accounting,
        });
        self.kill(pid);
    }

    /// Admit every pending respawn whose backoff has elapsed. A respawn
    /// the admission path refuses (backpressure, quota) ends its lineage
    /// with a quarantine event — degradation stays graceful even when
    /// the fleet is too full to honor a restart.
    fn drain_due_restarts(&mut self) {
        let due = match self.supervisor.as_mut() {
            Some(sup) if sup.has_pending() => sup.take_due(self.slices),
            _ => return,
        };
        for r in due {
            match self.spawn_shared(&r.name, r.module.clone(), r.cfg.clone()) {
                Ok(new_pid) => {
                    let slice = self.slices;
                    if let Some(t) = self.slots.get_mut(new_pid.index()).and_then(|s| s.as_mut()) {
                        t.restarts = r.attempt;
                    }
                    if let Some(sup) = self.supervisor.as_mut() {
                        if let Some(ev) = sup.events.get_mut(r.event_idx) {
                            ev.respawned_as = Some((new_pid, slice));
                        }
                    }
                }
                Err(e) => {
                    if let Some(sup) = self.supervisor.as_mut() {
                        sup.quarantines += 1;
                        sup.events.push(crate::supervise::SupervisionEvent {
                            slice: self.slices,
                            pid: r.pid,
                            name: r.name,
                            exit: TenantExit::Fatal(format!("respawn refused: {e}")),
                            verdict: Verdict::Quarantined,
                            respawned_as: None,
                        });
                    }
                }
            }
        }
    }

    /// Run up to `max_slices` time slices (run-queue order), stopping
    /// early when no tenant is runnable. Returns the slices executed —
    /// the incremental driver behind [`MultiVm::run`], and the fleet
    /// bench's probe for steady-state per-slice cost: spawn/kill between
    /// batches, then keep slicing.
    pub fn run_batch(&mut self, max_slices: u64) -> u64 {
        let mut ran = 0u64;
        while ran < max_slices {
            self.drain_due_restarts();
            if let Some(pid) = self.kernel.procs.next_runnable() {
                self.run_one_slice(pid);
            } else if self
                .supervisor
                .as_ref()
                .is_some_and(Supervisor::has_pending)
            {
                // Nothing runnable but respawns are backing off: an
                // idle tick advances fleet time toward the next due
                // slice (counted against the budget so a fleet that can
                // never respawn still terminates).
                self.slices += 1;
            } else {
                break;
            }
            ran += 1;
        }
        ran
    }

    /// Round-robin every runnable process to completion (or death) and
    /// report per-process outcomes. Infallible: every per-process error
    /// is captured in its report — an isolation violation in one tenant
    /// never stops the others. Tenants removed by [`MultiVm::kill`] are
    /// not reported; everyone else is, in slot (spawn) order.
    pub fn run(mut self) -> Vec<ProcReport> {
        self.run_batch(u64::MAX);
        self.reports()
    }

    /// The degradation ladder under memory pressure, in escalating
    /// rungs: (1) compact — relocate the victim's worst pages with
    /// journaled CARAT moves; (2) page out its most-escaped allocation;
    /// (3) past [`MultiVmConfig::externalize_watermark`], serialize the
    /// coldest resident tenant into the checksummed capsule device;
    /// rung (4), admission backpressure, lives in the admission path.
    /// Kernel work on descheduled tenants — charged to their
    /// [`ProcAccounting`], never their own counters. Recoverable kernel
    /// errors (frame exhaustion, world stops, injected faults) skip the
    /// rung; transactional guarantees keep every victim intact.
    fn pressure_pass(&mut self) {
        self.compaction_rungs();
        // Rung 3: externalize the coldest resident tenant. Best-effort
        // by design — a device refusal (injected CapsuleWrite fault)
        // leaves the tenant resident and untouched.
        if self.utilization_pct() >= self.cfg.externalize_watermark {
            if let Some(cold) = self.scan_coldest() {
                let _ = self.externalize_tenant(cold);
            }
        }
    }

    /// The externalization rung's victim pick, as an epoch scan: examine
    /// up to [`MultiVmConfig::pressure_scan_limit`] slab slots starting
    /// at the clock hand, take the coldest eligible tenant seen (least
    /// recent `last_ran`; not exited, resident, and holding no pinned
    /// DMA bytes — the device addresses pinned memory physically, and
    /// [`MultiVm::externalize_tenant`] would refuse anyway), and advance
    /// the hand past the examined window. Per-pass cost is bounded by
    /// the limit, independent of fleet size; a fleet no larger than the
    /// limit is examined in full, which is exactly the pre-epoch
    /// `coldest_resident` full rescan.
    fn scan_coldest(&mut self) -> Option<Pid> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        let limit = self.cfg.pressure_scan_limit.min(n);
        let mut best: Option<(u64, Pid)> = None;
        for step in 0..limit {
            let idx = (self.scan_hand + step) % n;
            if let Some(t) = self.slots[idx].as_ref() {
                if t.outcome.is_none()
                    && t.state.is_some()
                    && self.kernel.pinned_bytes_of(t.pid) == 0
                    && best.is_none_or(|(coldest, _)| t.last_ran < coldest)
                {
                    best = Some((t.last_ran, t.pid));
                }
            }
        }
        self.scan_hand = (self.scan_hand + limit) % n;
        self.pressure_scan_slots += limit as u64;
        self.pressure_scan_cycles += limit as u64 * self.kernel.cost.pressure_scan_per_slot;
        best.map(|(_, pid)| pid)
    }

    /// Rungs 1–2: journaled compaction moves plus a page-out against
    /// the tenant carrying the most live escapes. The victim pick is
    /// bounded by the same epoch limit as the externalization scan; the
    /// run queue's rotation supplies the clock hand.
    fn compaction_rungs(&mut self) {
        let (victim, examined) = self
            .kernel
            .procs
            .pick_compaction_victim_bounded(self.cfg.pressure_scan_limit);
        self.pressure_scan_slots += examined as u64;
        self.pressure_scan_cycles += examined as u64 * self.kernel.cost.pressure_scan_per_slot;
        let Some(victim) = victim else {
            return;
        };
        // Compaction is a CARAT mechanism: moves rely on the victim's
        // tracking state and page-outs on its guards to page data back
        // in. A traditional-mode tenant has neither; leave it alone.
        let Ok(traditional) = self.tenant(victim).map(|t| t.traditional) else {
            return;
        };
        if traditional {
            return;
        }
        // Install the victim's address space: the movers below work on
        // the installed one. A stale victim skips the pass.
        if self.kernel.proc_switch(victim, traditional).is_err() {
            return;
        }
        let Some(mut table) = self.kernel.procs.checkout_table(victim) else {
            return;
        };
        let (mut moves, mut outs, mut cycles) = (0u64, 0u64, 0u64);
        // The victim's host state (registers, TLB, heap bookkeeping) is
        // patched in its slot while the kernel drives the moves.
        let Some(state) = Self::tenant_mut(&mut self.slots, victim)
            .ok()
            .and_then(|t| t.state.as_mut())
        else {
            // Externalized (or reaped) since victim selection: its host
            // state is in the capsule device, not patchable — skip.
            self.kernel.procs.checkin_table(victim, table);
            return;
        };
        // The move planner picks up to `pressure_batch` victim pages and
        // the kernel coalesces them into one world-stop.
        let reqs: Vec<(u64, u64)> = self
            .kernel
            .worst_pages(&table, self.cfg.pressure_batch.max(1))
            .into_iter()
            .map(|p| (p, 1))
            .collect();
        if !reqs.is_empty() {
            if let Ok(Some(receipt)) = state.relocated_by(|regs, threads| {
                self.kernel
                    .move_pages_batch(&mut table, regs, &reqs, threads)
                    .map(Some)
            }) {
                moves += receipt.moves.len() as u64;
                cycles += receipt.cycles();
            }
        }
        // The kernel's victim pick skips already-swapped regions and
        // pinned DMA targets: `page_out` would refuse a pinned range with a
        // typed error anyway, but not selecting it keeps the rung useful.
        if let Some(page) = self.kernel.worst_page(&table) {
            if let Ok(Some(receipt)) = state.relocated_by(|regs, threads| {
                let out = self.kernel.page_out(&mut table, regs, page, threads)?;
                Ok(out.map(|(receipt, ..)| receipt))
            }) {
                outs += 1;
                cycles += receipt.cycles();
            }
        }
        self.kernel.procs.checkin_table(victim, table);
        if let Some(e) = self.kernel.procs.get_mut(victim) {
            e.accounting.pressure_moves += moves;
            e.accounting.pressure_page_outs += outs;
            e.accounting.compaction_cycles += cycles;
        }
    }

    fn reports(mut self) -> Vec<ProcReport> {
        // Supervision-reaped tenants first (they exited first), then
        // the surviving slots in spawn order.
        let mut reports = std::mem::take(&mut self.retired);
        for slot in self.slots.drain(..) {
            let Some(tenant) = slot else { continue };
            let accounting = self
                .kernel
                .procs
                .get(tenant.pid)
                .map(|e| e.accounting)
                .unwrap_or_default();
            reports.push(ProcReport {
                pid: tenant.pid,
                name: tenant.name,
                outcome: tenant.outcome.unwrap_or(ProcOutcome::Error(VmError::Trap(
                    "process never completed a slice".into(),
                ))),
                accounting,
            });
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_ir::{GlobalInit, ModuleBuilder, Type};

    fn returns_seven() -> Module {
        let mut mb = ModuleBuilder::new("seven");
        let f = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let c = b.const_i64(7);
            b.ret(Some(c));
        }
        mb.finish()
    }

    /// The gate's memo answers for a module *handle*, never for module
    /// content, and never outlives the handle: an equal module behind
    /// another `Rc` is verified on its own account, a module the
    /// verifier refuses leaves no record to be believed later, and a
    /// record goes when it holds the last handle.
    #[test]
    fn module_records_follow_the_handle_and_die_with_it() {
        let cfg = VmConfig {
            load: LoadConfig {
                stack_size: 8 * 1024,
                heap_size: 16 * 1024,
                page_size: 4096,
            },
            ..VmConfig::default()
        };
        let mut mv = MultiVm::new(
            vec![],
            MultiVmConfig {
                kernel_mem: 16 * 1024 * 1024,
                ..MultiVmConfig::default()
            },
        )
        .expect("an empty fleet builds");
        let (a, b) = (Rc::new(returns_seven()), Rc::new(returns_seven()));

        let a_pids = mv
            .spawn_batch("a", a.clone(), cfg.clone(), 2)
            .expect("admits");
        let a_again = mv
            .spawn_shared("a2", a.clone(), cfg.clone())
            .expect("admits");
        assert_eq!(mv.modules.len(), 1, "one handle, one record");
        assert_eq!(mv.modules[0].programs.len(), 1, "one recipe, one decode");
        let b_pid = mv
            .spawn_shared("b", b.clone(), cfg.clone())
            .expect("admits");
        assert_eq!(mv.modules.len(), 2, "equal content is not the same handle");

        let mut mb = ModuleBuilder::new("ill_formed");
        mb.global("short", Type::I64, GlobalInit::Bytes(vec![0; 3]));
        let bad = Rc::new(mb.finish());
        for _ in 0..2 {
            let refusal = mv.spawn_shared("bad", bad.clone(), cfg.clone());
            assert!(matches!(refusal, Err(VmError::Load(LoadError::Verify(_)))));
            assert_eq!(mv.modules.len(), 2, "a refused module is not remembered");
        }

        // `a`'s record outlives its tenants only while someone could
        // still present the handle.
        for pid in a_pids {
            assert!(mv.kill(pid));
        }
        assert_eq!(
            mv.modules.len(),
            2,
            "a tenant and the caller still hold `a`"
        );
        drop(a);
        assert!(mv.kill(a_again));
        assert_eq!(
            mv.modules.len(),
            1,
            "the last tenant of `a` took its record"
        );
        assert!(Rc::ptr_eq(&mv.modules[0].module, &b));
        assert!(mv.kill(b_pid));
        assert_eq!(mv.modules.len(), 1, "the caller can still present `b`");
    }

    /// A two-owner shared move while owner A has a parked thread holding
    /// a pointer into the block: that pointer is patched (an integer with
    /// the same bits is not), and owner B is bit-identical apart from its
    /// own cell that publishes the block.
    #[test]
    fn a_shared_move_patches_a_parked_owner_thread_and_leaves_the_other_owner_alone() {
        use crate::machine::tests::{assert_rebased, thread_words};
        use crate::machine::{Frame, ParkedThread, ThreadState, Value};
        let mut mb = ModuleBuilder::new("shm_holder");
        mb.global("shm", Type::Ptr, GlobalInit::Zero);
        let f = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(f);
            let e = b.block("entry");
            b.switch_to(e);
            let c = b.const_i64(0);
            b.ret(Some(c));
        }
        let module = carat_core::CaratCompiler::new(carat_core::CompileOptions::default())
            .compile(mb.finish())
            .expect("compiles")
            .module;
        let spec = |name: &str| ProcSpec {
            name: name.to_string(),
            module: module.clone(),
            cfg: VmConfig::default(),
        };
        let mut mv =
            MultiVm::new(vec![spec("a"), spec("b")], MultiVmConfig::default()).expect("loads");
        let id = mv.shared_create(4096).expect("frames available");
        let base = mv.kernel.procs.shared(id).expect("live").base;
        mv.shared_map(Pid(0), id, 0).expect("maps");
        mv.shared_map(Pid(1), id, 0).expect("maps");
        fn state(mv: &MultiVm, pid: Pid) -> &TenantState {
            let t = mv.tenant(pid).expect("live");
            t.state.as_ref().expect("resident")
        }
        let held = base + 16;
        {
            let a = MultiVm::tenant_mut(&mut mv.slots, Pid(0))
                .expect("live")
                .state
                .as_mut()
                .expect("resident");
            let main = &a.frames[0];
            let frame = Frame {
                func: main.func,
                regs: vec![Value::P(held), Value::I(held as i64)],
                block: main.block,
                idx: main.idx,
                prev_block: None,
                sp_base: main.sp_base,
                ret_to: None,
                code: main.code.clone(),
            };
            let parked = ParkedThread {
                frames: vec![frame],
                sp: a.sp,
                stack_base: a.cur_stack_base,
            };
            a.threads.push(ThreadState::Parked(parked));
            a.parked_threads += 1;
        }
        let a_before = thread_words(state(&mv, Pid(0)));
        let b = state(&mv, Pid(1));
        let b_before = thread_words(b);
        let (b_image, b_cell) = (b.image.capsule_region(), b.image.globals[0]);
        let (b_globals, b_stack) = (b.image.globals.clone(), b.image.stack);
        let b_mem = mv
            .kernel
            .mem
            .read_bytes(b_image.start, b_image.len)
            .to_vec();

        let new_base = mv.move_shared(id).expect("clean move");
        assert_ne!(new_base, base);
        let moved = (base, 4096, new_base.wrapping_sub(base) as i64);
        let a = state(&mv, Pid(0));
        assert_rebased(&a_before, &thread_words(a), moved);
        let ThreadState::Parked(p) = &a.threads[1] else {
            panic!("the planted thread is still parked");
        };
        assert!(matches!(
            p.frames[0].regs[..],
            [Value::P(x), Value::I(y)] if x == new_base + 16 && y == held as i64
        ));
        let b = state(&mv, Pid(1));
        assert_eq!(thread_words(b), b_before, "B's registers are untouched");
        assert_eq!((&b.image.globals, b.image.stack), (&b_globals, b_stack));
        let b_after = mv.kernel.mem.read_bytes(b_image.start, b_image.len);
        let changed: Vec<u64> = (0..b_image.len / 8)
            .map(|w| b_image.start + 8 * w)
            .filter(|&c| {
                let o = (c - b_image.start) as usize;
                b_mem[o..o + 8] != b_after[o..o + 8]
            })
            .collect();
        assert_eq!(changed, vec![b_cell], "only B's published cell moved");
        assert_eq!(mv.kernel.mem.read_u64(b_cell), new_base);
    }

    /// The books a relocation may charge: the tenant's counters, its
    /// process accounting, and the process table's shared-move totals.
    struct Books {
        counters: PerfCounters,
        accounting: ProcAccounting,
        shared: [u64; 2],
    }

    impl Books {
        fn of(mv: &MultiVm, pid: Pid) -> Books {
            let procs = &mv.kernel.procs;
            Books {
                counters: mv.counters(pid).expect("live").clone(),
                accounting: procs.get(pid).expect("live").accounting,
                shared: [procs.shared_moves, procs.shared_move_cycles],
            }
        }

        fn solo(counters: PerfCounters) -> Books {
            Books {
                counters,
                accounting: ProcAccounting::default(),
                shared: [0; 2],
            }
        }
    }

    /// What one relocation added to each book that charges it.
    #[derive(Debug, PartialEq, Eq)]
    struct Charge {
        /// `cycles`, `move_cycles`.
        cycles: [u64; 2],
        /// `move_breakdown`: expand, patch, registers, alloc+move, episodes.
        breakdown: [u64; 5],
        /// The kind counters: `moves`, `stack_expansions`, `swap_outs`,
        /// `swap_ins`.
        kinds: [u64; 4],
        /// `pressure_moves`, `pressure_page_outs`, `compaction_cycles`.
        accounting: [u64; 3],
        /// `shared_moves`, `shared_move_cycles`.
        shared: [u64; 2],
    }

    impl Charge {
        fn between(b: &Books, a: &Books) -> Charge {
            let (cb, ca) = (&b.counters, &a.counters);
            let (mb, ma) = (&cb.move_breakdown, &ca.move_breakdown);
            let (pb, pa) = (&b.accounting, &a.accounting);
            let d = |x: u64, y: u64| y - x;
            Charge {
                cycles: [d(cb.cycles, ca.cycles), d(cb.move_cycles, ca.move_cycles)],
                breakdown: [
                    d(mb.page_expand, ma.page_expand),
                    d(mb.patch_gen_exec, ma.patch_gen_exec),
                    d(mb.register_patch, ma.register_patch),
                    d(mb.alloc_and_move, ma.alloc_and_move),
                    d(mb.episodes, ma.episodes),
                ],
                kinds: [
                    d(cb.moves, ca.moves),
                    d(cb.stack_expansions, ca.stack_expansions),
                    d(cb.swap_outs, ca.swap_outs),
                    d(cb.swap_ins, ca.swap_ins),
                ],
                accounting: [
                    d(pb.pressure_moves, pa.pressure_moves),
                    d(pb.pressure_page_outs, pa.pressure_page_outs),
                    d(pb.compaction_cycles, pa.compaction_cycles),
                ],
                shared: [d(b.shared[0], a.shared[0]), d(b.shared[1], a.shared[1])],
            }
        }
    }

    /// Every relocation path in the VM, with exactly what it charges
    /// where. A one-thread stop costs `STOP`. A move and stack growth are
    /// charged their stop plus their transaction, paging its stop alone,
    /// and only a solo page move adds to `move_breakdown`. The fleet's
    /// pressure pass books its batch of two (one stop, two transactions)
    /// and its page-out (a stop) to the victim's accounting, and a shared
    /// move over two one-thread owners books to the process table; neither
    /// touches a tenant's counters.
    #[test]
    fn every_relocation_is_charged_by_the_table() {
        use crate::machine::tests::{linked_list_module, solo_charge, Solo};
        const STOP: u64 = 1200 + 2 * 300;
        let spec = |name: &str| ProcSpec {
            name: name.to_string(),
            module: linked_list_module(),
            cfg: VmConfig::default(),
        };
        let solo = |row: Solo| {
            let (before, after) = solo_charge(row);
            Charge::between(&Books::solo(before), &Books::solo(after))
        };
        let pressure = || {
            let cfg = MultiVmConfig {
                pressure_batch: 2,
                ..MultiVmConfig::default()
            };
            let mut mv = MultiVm::new(vec![spec("list")], cfg).expect("loads");
            assert_eq!(mv.run_batch(5), 5);
            let before = Books::of(&mv, Pid(0));
            mv.compaction_rungs();
            Charge::between(&before, &Books::of(&mv, Pid(0)))
        };
        let shared = || {
            let specs = vec![spec("a"), spec("b")];
            let mut mv = MultiVm::new(specs, MultiVmConfig::default()).expect("loads");
            let id = mv.shared_create(4096).expect("frames available");
            mv.shared_map(Pid(0), id, 0).expect("maps");
            mv.shared_map(Pid(1), id, 0).expect("maps");
            let before = Books::of(&mv, Pid(0));
            mv.move_shared(id).expect("clean move");
            Charge::between(&before, &Books::of(&mv, Pid(0)))
        };
        let none = Charge {
            cycles: [0; 2],
            breakdown: [0; 5],
            kinds: [0; 4],
            accounting: [0; 3],
            shared: [0; 2],
        };
        let rows = [
            (
                "solo move",
                solo(Solo::Move),
                Charge {
                    cycles: [STOP + 17_900 + 5_280 + 52 + 1_824; 2],
                    breakdown: [17_900, 5_280, 52, 1_824, 1],
                    kinds: [1, 0, 0, 0],
                    ..none
                },
            ),
            (
                "stack growth",
                solo(Solo::StackGrowth),
                Charge {
                    cycles: [STOP + 69_238; 2],
                    kinds: [0, 1, 0, 0],
                    ..none
                },
            ),
            (
                "page-out",
                solo(Solo::PageOut),
                Charge {
                    cycles: [STOP; 2],
                    kinds: [0, 0, 1, 0],
                    ..none
                },
            ),
            (
                "page-in",
                solo(Solo::PageIn),
                Charge {
                    cycles: [STOP; 2],
                    kinds: [0, 0, 0, 1],
                    ..none
                },
            ),
            (
                "pressure batch and page-out",
                pressure(),
                Charge {
                    accounting: [2, 1, STOP + 149_700 + STOP],
                    ..none
                },
            ),
            (
                "shared move",
                shared(),
                Charge {
                    shared: [1, 2 * STOP + 5_280],
                    ..none
                },
            ),
        ];
        for (name, got, want) in rows {
            assert_eq!(got, want, "{name}");
        }
    }
}
