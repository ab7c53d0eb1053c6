//! The process table: per-process kernel state for multi-tenant
//! operation, organized as a slab for fleet-scale tenancy.
//!
//! CARAT's isolation story (paper §4.3) is that the kernel-maintained
//! *region set* of a process — not a page table — decides what it may
//! touch: every guard the compiler injected checks against the regions of
//! the currently running process, so an address outside them is caught in
//! user mode and surfaced to the kernel as a [`ProtectionFault`]. The
//! process table holds, per process:
//!
//! * its [`Pid`] and lifecycle state ([`ProcState`]);
//! * the admitted [`ProcessImage`](crate::ProcessImage) (the signing
//!   record — what the trust chain accepted at load time);
//! * its [`AddressSpace`] while descheduled — guard-region table,
//!   baseline [`PageTable`] (traditional mode only) and per-process
//!   allocators, moved whole into the kernel on context switch;
//! * its runtime [`AllocationTable`], parked here while the process is
//!   descheduled and checked out by the scheduler while it runs;
//! * scheduling/fault accounting ([`ProcAccounting`]).
//!
//! The table is a *slab*: entries live in recyclable slots addressed by
//! the low half of a [`Pid`], with the high half carrying a per-slot
//! generation so a retired pid can never alias a successor spawned into
//! the same slot. A free list makes spawn/kill O(1), and an intrusive
//! doubly-linked run queue over slot indices makes
//! [`ProcTable::next_runnable`] O(1) and compaction-victim scans
//! O(runnable) rather than O(ever registered). Admission control
//! ([`TenantQuotas`], [`AdmissionError`]) bounds both the tenant count
//! and the resident capsule bytes the fleet may commit.
//!
//! Shared memory ([`SharedRegion`]) is a page-aligned block mapped into
//! the region set of several owners; each owner tracks it in its own
//! allocation table, so a kernel move of the block patches every owner's
//! escapes (see `SimKernel::move_shared`).

use crate::loader::ProcessImage;
use crate::pagetable::PageTable;
use crate::space::AddressSpace;
use carat_runtime::{AllocationTable, Region};
use std::error::Error;
use std::fmt;

/// Sentinel for "no slot" in the intrusive run-queue links.
const NIL: u32 = u32::MAX;

/// Process identifier: slab slot index in the low 32 bits, slot
/// generation in the high 32 bits. The generation is bumped every time a
/// slot is recycled, so a pid held across a kill can never name the
/// tenant that later reuses the slot — stale lookups return `None`
/// instead of someone else's process.
///
/// `Pid(n)` with a small literal keeps constructing a generation-0 pid,
/// which is what a fresh table assigns to its first tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.generation() == 0 {
            write!(f, "pid{}", self.index())
        } else {
            write!(f, "pid{}.g{}", self.index(), self.generation())
        }
    }
}

impl Pid {
    /// Build a pid from a slot index and a generation tag.
    pub fn new(index: usize, generation: u32) -> Pid {
        Pid(((generation as u64) << 32) | index as u64)
    }

    /// The slab slot this pid names.
    pub fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The generation tag: which incarnation of the slot this pid names.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Identifier of a shared memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SharedId(pub u32);

impl fmt::Display for SharedId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shm{}", self.0)
    }
}

/// A memory access outside the owning process's region set — the typed
/// isolation violation. Never a panic: the guard fails in user mode and
/// the kernel converts it into this record (and keeps scheduling every
/// other process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionFault {
    /// The offending process.
    pub pid: Pid,
    /// The address it tried to touch.
    pub addr: u64,
    /// Access width in bytes.
    pub len: u64,
    /// Whether the access was a write.
    pub write: bool,
}

impl fmt::Display for ProtectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protection fault: {} {} of {} bytes at {:#x} outside its regions",
            self.pid,
            if self.write { "write" } else { "read" },
            self.len,
            self.addr
        )
    }
}

impl Error for ProtectionFault {}

/// Lifecycle state of a process table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Eligible for scheduling.
    Runnable,
    /// `main` returned with this value.
    Exited(i64),
    /// Killed by an isolation violation.
    Faulted(ProtectionFault),
}

/// Admission quotas for the fleet: how many tenants may be live at once
/// and how many capsule bytes they may keep resident in total. The
/// defaults are unlimited — single-process flows and the classic
/// multi-tenant benches never hit them.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuotas {
    /// Maximum live tenants.
    pub max_tenants: usize,
    /// Maximum total resident capsule bytes across all live tenants.
    pub max_resident_bytes: u64,
}

impl Default for TenantQuotas {
    fn default() -> TenantQuotas {
        TenantQuotas {
            max_tenants: usize::MAX,
            max_resident_bytes: u64::MAX,
        }
    }
}

/// Typed admission failure: the spawn was refused *before* the tenant
/// became visible to the scheduler. Over-commit is a kernel policy
/// decision, never a panic — the churn soak in `fleet_scaling` leans on
/// exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The live-tenant quota is exhausted.
    TenantLimit {
        /// The configured cap.
        limit: usize,
    },
    /// Admitting the capsule would over-commit resident memory.
    MemoryOverCommit {
        /// Capsule bytes the new tenant asked for.
        requested: u64,
        /// Bytes already resident.
        resident: u64,
        /// The configured cap.
        limit: u64,
    },
    /// The fleet is shedding load: frame utilization climbed past the
    /// scheduler's backpressure watermark, so new admissions are refused
    /// until the degradation ladder (compaction, page-out, capsule
    /// externalization) brings utilization back down. The last rung of
    /// graceful degradation — a typed refusal, never an allocator panic.
    Backpressure {
        /// Frame utilization (percent) when the spawn was refused.
        utilization_pct: u64,
        /// The watermark that tripped.
        watermark_pct: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::TenantLimit { limit } => {
                write!(f, "admission refused: tenant limit {limit} reached")
            }
            AdmissionError::MemoryOverCommit {
                requested,
                resident,
                limit,
            } => write!(
                f,
                "admission refused: {requested} capsule bytes over-commit \
                 resident memory ({resident} of {limit} in use)"
            ),
            AdmissionError::Backpressure {
                utilization_pct,
                watermark_pct,
            } => write!(
                f,
                "admission refused: backpressure at {utilization_pct}% frame \
                 utilization (watermark {watermark_pct}%)"
            ),
        }
    }
}

impl Error for AdmissionError {}

/// Kernel-side accounting for one process. These are *kernel* charges —
/// context-switch and compaction work done on the process's behalf — and
/// deliberately never flow into the process's own
/// `PerfCounters`: a time-sliced run must retire exactly the cycles a
/// sequential run would, with the scheduling overhead reported separately
/// (this is what the differential tests pin down).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcAccounting {
    /// Times this process was switched in.
    pub ctx_switches: u64,
    /// Kernel cycles spent switching this process in.
    pub ctx_switch_cycles: u64,
    /// TLB flushes paid on its behalf (traditional mode only; CARAT
    /// switches never flush — there is no translation state).
    pub tlb_flushes: u64,
    /// Isolation violations this process caused.
    pub protection_faults: u64,
    /// Ranges paged out of this process under memory pressure.
    pub pressure_page_outs: u64,
    /// CARAT moves executed against this process by the compaction pass.
    pub pressure_moves: u64,
    /// Kernel cycles spent compacting/paging this process's memory.
    pub compaction_cycles: u64,
    /// Times this tenant's capsule was externalized to the capsule device
    /// by the degradation ladder.
    pub externalizations: u64,
    /// Times its capsule was rehydrated from the device at schedule time.
    pub rehydrations: u64,
    /// DMA pins taken on this tenant's behalf.
    pub pins: u64,
    /// DMA unpins on its behalf.
    pub unpins: u64,
    /// Bytes it currently holds pinned (kill-time reap zeroes the pins
    /// themselves; the entry dies with the process).
    pub pinned_bytes: u64,
    /// Timer interrupts that preempted this tenant (timer scheduling).
    pub timer_preemptions: u64,
    /// Summed interrupt-to-dispatch latency of those preemptions, in
    /// modeled cycles — the deferral its masked windows imposed.
    pub preempt_latency_cycles: u64,
}

/// One process's kernel-side record.
#[derive(Debug)]
pub struct ProcEntry {
    /// Its identifier.
    pub pid: Pid,
    /// Human-readable name (workload name in the benches).
    pub name: String,
    /// Lifecycle state. Mutate through [`ProcTable::set_state`] so the
    /// run queue stays in sync; the queue also re-validates on pop, so a
    /// direct write is lazily corrected rather than fatal.
    pub state: ProcState,
    /// The capsule region the loader granted at admission: the block the
    /// kill returns to the frame allocator and the bytes admission
    /// charged. The live image (globals patched by moves, stack rebased)
    /// travels with the VM.
    pub capsule: Region,
    /// The process's address space while descheduled. Taken (left
    /// default) while this process is current: the kernel has it
    /// installed as [`SimKernel::space`](crate::SimKernel::space).
    pub space: AddressSpace,
    /// The runtime allocation table, parked here while descheduled.
    /// `None` while the scheduler has it checked out into the running VM.
    pub table: Option<AllocationTable>,
    /// Scheduling/fault accounting.
    pub accounting: ProcAccounting,
}

/// A page-aligned block mapped into several processes' region sets.
#[derive(Debug, Clone)]
pub struct SharedRegion {
    /// Its identifier.
    pub id: SharedId,
    /// Current base address (updated when the kernel moves the block).
    pub base: u64,
    /// Length in bytes (page-aligned).
    pub len: u64,
    /// Processes that have it mapped.
    pub owners: Vec<Pid>,
}

/// One slab slot: the entry (if live), the generation its pids must
/// carry, and the intrusive run-queue links.
#[derive(Debug)]
struct Slot {
    generation: u32,
    entry: Option<ProcEntry>,
    /// Next slot in the run queue (`NIL` = none / not queued).
    next: u32,
    /// Previous slot in the run queue.
    prev: u32,
    /// Whether this slot is linked into the run queue.
    queued: bool,
}

impl Slot {
    fn vacant(generation: u32) -> Slot {
        Slot {
            generation,
            entry: None,
            next: NIL,
            prev: NIL,
            queued: false,
        }
    }
}

/// The kernel's process table: a generation-tagged slab with an intrusive
/// FIFO run queue.
#[derive(Debug)]
pub struct ProcTable {
    slots: Vec<Slot>,
    /// Recyclable slot indices (kill pushes, spawn pops).
    free: Vec<u32>,
    /// Run-queue head/tail (slot indices). The queue holds exactly the
    /// runnable tenants; [`ProcTable::next_runnable`] rotates it FIFO,
    /// which reproduces round-robin in pid order for a static fleet.
    rq_head: u32,
    rq_tail: u32,
    runnable: usize,
    live: usize,
    /// Capsule bytes resident across all live tenants (admission-charged).
    resident: u64,
    quotas: TenantQuotas,
    current: Option<Pid>,
    shared: Vec<SharedRegion>,
    /// Cross-process shared-region moves executed.
    pub shared_moves: u64,
    /// Kernel cycles spent in shared-region moves (world stop + patch +
    /// copy across every owner).
    pub shared_move_cycles: u64,
}

impl Default for ProcTable {
    fn default() -> ProcTable {
        ProcTable::new()
    }
}

impl ProcTable {
    /// An empty table with unlimited quotas.
    pub fn new() -> ProcTable {
        ProcTable {
            slots: Vec::new(),
            free: Vec::new(),
            rq_head: NIL,
            rq_tail: NIL,
            runnable: 0,
            live: 0,
            resident: 0,
            quotas: TenantQuotas::default(),
            current: None,
            shared: Vec::new(),
            shared_moves: 0,
            shared_move_cycles: 0,
        }
    }

    /// Number of live (spawned and not yet killed) processes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no process is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slab slots ever grown (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Tenants currently linked into the run queue.
    pub fn runnable_len(&self) -> usize {
        self.runnable
    }

    /// Capsule bytes resident across all live tenants.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// The admission quotas in force.
    pub fn quotas(&self) -> TenantQuotas {
        self.quotas
    }

    /// Replace the admission quotas (applies to future spawns only).
    pub fn set_quotas(&mut self, quotas: TenantQuotas) {
        self.quotas = quotas;
    }

    /// The currently installed process, if any.
    pub fn current(&self) -> Option<Pid> {
        self.current
    }

    pub(crate) fn set_current(&mut self, pid: Option<Pid>) {
        self.current = pid;
    }

    /// All live entries, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &ProcEntry> {
        self.slots.iter().filter_map(|s| s.entry.as_ref())
    }

    /// Whether `pid` names a live process (its slot holds its generation).
    fn valid(&self, pid: Pid) -> bool {
        self.slots
            .get(pid.index())
            .is_some_and(|s| s.generation == pid.generation() && s.entry.is_some())
    }

    /// The entry for `pid`; `None` for a retired or never-issued pid (a
    /// recycled slot's generation no longer matches).
    pub fn get(&self, pid: Pid) -> Option<&ProcEntry> {
        let s = self.slots.get(pid.index())?;
        if s.generation != pid.generation() {
            return None;
        }
        s.entry.as_ref()
    }

    /// The live pid occupying slab slot `index`, if any (its generation
    /// read off the slot).
    pub fn pid_at(&self, index: usize) -> Option<Pid> {
        self.slots.get(index)?.entry.as_ref().map(|e| e.pid)
    }

    /// Mutable entry for `pid`, with the same staleness rules as
    /// [`ProcTable::get`].
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut ProcEntry> {
        let s = self.slots.get_mut(pid.index())?;
        if s.generation != pid.generation() {
            return None;
        }
        s.entry.as_mut()
    }

    /// Admission check for a capsule of `bytes`: would a spawn be
    /// accepted right now?
    ///
    /// # Errors
    ///
    /// The typed [`AdmissionError`] a spawn would fail with.
    pub fn admit(&self, bytes: u64) -> Result<(), AdmissionError> {
        self.admit_batch(1, bytes)
    }

    /// The quota rule, stated once: would `n` capsules of `bytes` each,
    /// spawned one after another, all be accepted right now? Pure
    /// arithmetic over the live count and the resident bytes — nothing
    /// is charged; [`ProcTable::spawn`] charges as each tenant lands.
    ///
    /// # Errors
    ///
    /// Exactly the error the first failing spawn of that sequence would
    /// return, payload included: with `k` spawns succeeding first, the
    /// tenant limit (checked before bytes, as a single spawn checks it)
    /// or an over-commit reporting `resident + k × bytes`.
    pub fn admit_batch(&self, n: usize, bytes: u64) -> Result<(), AdmissionError> {
        let n = n as u64;
        let room_tenants = self.quotas.max_tenants.saturating_sub(self.live) as u64;
        let room_bytes = self.quotas.max_resident_bytes.saturating_sub(self.resident);
        let fits_bytes = match room_bytes.checked_div(bytes) {
            Some(capsules) => capsules,
            // Empty capsules never add up: all fit, unless the table is
            // already over a (lowered) limit.
            None if self.resident <= self.quotas.max_resident_bytes => u64::MAX,
            None => 0,
        };
        let k = room_tenants.min(fits_bytes);
        if k >= n {
            return Ok(());
        }
        if k == room_tenants {
            return Err(AdmissionError::TenantLimit {
                limit: self.quotas.max_tenants,
            });
        }
        Err(AdmissionError::MemoryOverCommit {
            requested: bytes,
            // `k × bytes ≤ room_bytes`, so this cannot overflow.
            resident: self.resident + k * bytes,
            limit: self.quotas.max_resident_bytes,
        })
    }

    /// Spawn a process into a free slot (recycling one if available):
    /// admission-check its capsule, assign a generation-tagged [`Pid`],
    /// charge its resident bytes, and enqueue it runnable.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] on over-commit; the table is unchanged.
    pub fn spawn(
        &mut self,
        name: String,
        image: ProcessImage,
        regions: Vec<Region>,
        pagetable: PageTable,
        table: Option<AllocationTable>,
    ) -> Result<Pid, AdmissionError> {
        let mut space = AddressSpace::default();
        space.regions.set_regions(regions);
        space.pagetable = pagetable;
        self.spawn_in(name, image.capsule_region(), space, table)
    }

    /// [`ProcTable::spawn`] for a process whose address space already
    /// exists (the loader just built it): the space is bound to the slot
    /// the process lands in and parked in its entry.
    pub(crate) fn spawn_in(
        &mut self,
        name: String,
        capsule: Region,
        mut space: AddressSpace,
        table: Option<AllocationTable>,
    ) -> Result<Pid, AdmissionError> {
        self.admit(capsule.len)?;
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot::vacant(0));
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[idx as usize].generation;
        let pid = Pid::new(idx as usize, generation);
        space.bind(idx as usize);
        self.slots[idx as usize].entry = Some(ProcEntry {
            pid,
            name,
            state: ProcState::Runnable,
            capsule,
            space,
            table,
            accounting: ProcAccounting::default(),
        });
        self.live += 1;
        self.resident += capsule.len;
        self.enqueue(idx);
        Ok(pid)
    }

    /// Kill `pid`: unlink it from the run queue, release its resident
    /// bytes, bump the slot generation (retiring every outstanding copy
    /// of the pid), and push the slot onto the free list. Returns the
    /// removed entry so the caller can release its capsule frames;
    /// `None` if the pid is already stale.
    pub fn kill(&mut self, pid: Pid) -> Option<ProcEntry> {
        if !self.valid(pid) {
            return None;
        }
        let idx = pid.index() as u32;
        self.dequeue(idx);
        let slot = &mut self.slots[pid.index()];
        // `valid` above proved the entry live.
        let entry = slot.entry.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.resident = self.resident.saturating_sub(entry.capsule.len);
        if self.current == Some(pid) {
            self.current = None;
        }
        for s in &mut self.shared {
            s.owners.retain(|&o| o != pid);
        }
        Some(entry)
    }

    /// Link slot `idx` at the run-queue tail (no-op if already queued).
    fn enqueue(&mut self, idx: u32) {
        if self.slots[idx as usize].queued {
            return;
        }
        let slot = &mut self.slots[idx as usize];
        slot.queued = true;
        slot.next = NIL;
        slot.prev = self.rq_tail;
        if self.rq_tail == NIL {
            self.rq_head = idx;
        } else {
            self.slots[self.rq_tail as usize].next = idx;
        }
        self.rq_tail = idx;
        self.runnable += 1;
    }

    /// Unlink slot `idx` from the run queue (no-op if not queued).
    fn dequeue(&mut self, idx: u32) {
        if !self.slots[idx as usize].queued {
            return;
        }
        let (prev, next) = {
            let s = &mut self.slots[idx as usize];
            s.queued = false;
            let pn = (s.prev, s.next);
            s.prev = NIL;
            s.next = NIL;
            pn
        };
        if prev == NIL {
            self.rq_head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.rq_tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.runnable -= 1;
    }

    /// Check the allocation table of `pid` out (scheduler: the process is
    /// about to run and the VM owns the table for the slice). Returns
    /// `None` if it is already checked out or the pid is stale.
    pub fn checkout_table(&mut self, pid: Pid) -> Option<AllocationTable> {
        self.get_mut(pid)?.table.take()
    }

    /// Check the allocation table of `pid` back in (the slice ended). A
    /// stale pid drops the table — the tenant was killed meanwhile.
    pub fn checkin_table(&mut self, pid: Pid, table: AllocationTable) {
        if let Some(e) = self.get_mut(pid) {
            e.table = Some(table);
        }
    }

    /// O(1) round-robin scheduling pick: pop the run-queue head, rotate
    /// it to the tail, and return it. For a static fleet this visits
    /// every runnable tenant in spawn (pid) order, exactly like the old
    /// linear scan — without ever touching the dead ones. A popped slot
    /// whose entry is no longer [`ProcState::Runnable`] (killed or state
    /// set behind the table's back) is lazily dropped from the queue.
    pub fn next_runnable(&mut self) -> Option<Pid> {
        while self.rq_head != NIL {
            let idx = self.rq_head;
            let runnable_pid = self.slots[idx as usize]
                .entry
                .as_ref()
                .filter(|e| matches!(e.state, ProcState::Runnable))
                .map(|e| e.pid);
            match runnable_pid {
                Some(pid) => {
                    self.dequeue(idx);
                    self.enqueue(idx);
                    return Some(pid);
                }
                None => self.dequeue(idx),
            }
        }
        None
    }

    /// Set the lifecycle state of `pid`, keeping the run queue in sync:
    /// a tenant leaving [`ProcState::Runnable`] is dequeued, one
    /// re-entering it is enqueued at the tail. Stale pids are ignored.
    pub fn set_state(&mut self, pid: Pid, state: ProcState) {
        if !self.valid(pid) {
            return;
        }
        let idx = pid.index() as u32;
        // `valid` above proved the entry live; a stale pid already
        // returned, so this is never reached with an empty slot.
        if let Some(e) = self.slots[pid.index()].entry.as_mut() {
            e.state = state;
        }
        if matches!(state, ProcState::Runnable) {
            self.enqueue(idx);
        } else {
            self.dequeue(idx);
        }
    }

    /// Record an isolation violation by `pid`: bumps its fault accounting,
    /// marks it [`ProcState::Faulted`] (dequeuing it), and returns the
    /// typed fault.
    pub fn record_protection_fault(
        &mut self,
        pid: Pid,
        addr: u64,
        len: u64,
        write: bool,
    ) -> ProtectionFault {
        let fault = ProtectionFault {
            pid,
            addr,
            len,
            write,
        };
        // A stale pid (tenant killed between the guard failing and the
        // fault being recorded) has nothing to account against; the typed
        // fault is still produced for the caller's report.
        if let Some(e) = self.get_mut(pid) {
            e.accounting.protection_faults += 1;
            self.set_state(pid, ProcState::Faulted(fault));
        }
        fault
    }

    /// The shared region `id`.
    pub fn shared(&self, id: SharedId) -> Option<&SharedRegion> {
        self.shared.get(id.0 as usize)
    }

    pub(crate) fn shared_mut(&mut self, id: SharedId) -> &mut SharedRegion {
        &mut self.shared[id.0 as usize]
    }

    pub(crate) fn add_shared(&mut self, base: u64, len: u64) -> SharedId {
        let id = SharedId(self.shared.len() as u32);
        self.shared.push(SharedRegion {
            id,
            base,
            len,
            owners: Vec::new(),
        });
        id
    }

    /// Compaction victim pick under memory pressure: walk the first
    /// `limit` run-queue entries (O(limit), never O(ever registered)) and
    /// pick the checked-in tenant whose allocation table carries the most
    /// live escapes — the candidate whose move buys the most patch
    /// coverage, read off the table's O(1) reverse-map count.
    /// Deterministic: ties resolve to the earliest queue position. Because
    /// [`ProcTable::next_runnable`] rotates the queue every slice, the
    /// bounded window is a moving clock hand over the runnable set —
    /// each pressure pass examines a different stretch, and every tenant
    /// is examined within `runnable / limit` passes. With `limit >=`
    /// the runnable count this is exactly the full walk. Returns the
    /// victim and the number of queue entries examined (the pressure
    /// pass's modeled scan charge).
    pub fn pick_compaction_victim_bounded(&self, limit: usize) -> (Option<Pid>, usize) {
        let mut best: Option<(Pid, usize)> = None;
        let mut examined = 0usize;
        let mut idx = self.rq_head;
        while idx != NIL {
            if examined >= limit {
                break;
            }
            examined += 1;
            let slot = &self.slots[idx as usize];
            if let Some(e) = slot.entry.as_ref() {
                if matches!(e.state, ProcState::Runnable) {
                    if let Some(t) = e.table.as_ref() {
                        let score = t.live_escapes();
                        if best.is_none_or(|(_, b)| score > b) {
                            best = Some((e.pid, score));
                        }
                    }
                }
            }
            idx = slot.next;
        }
        (best.map(|(pid, _)| pid), examined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spawn_named(t: &mut ProcTable, name: &str) -> Pid {
        t.spawn(
            name.to_string(),
            crate::loader::ProcessImage::empty_for_tests(),
            Vec::new(),
            PageTable::new(),
            Some(AllocationTable::new()),
        )
        .expect("within quota")
    }

    #[test]
    fn pid_packs_index_and_generation() {
        let p = Pid::new(7, 3);
        assert_eq!(p.index(), 7);
        assert_eq!(p.generation(), 3);
        assert_eq!(Pid(3).to_string(), "pid3");
        assert_eq!(Pid::new(3, 2).to_string(), "pid3.g2");
        assert_eq!(SharedId(1).to_string(), "shm1");
    }

    #[test]
    fn protection_fault_display_names_everything() {
        let f = ProtectionFault {
            pid: Pid(2),
            addr: 0x8000,
            len: 8,
            write: true,
        };
        let s = f.to_string();
        assert!(s.contains("pid2") && s.contains("write") && s.contains("0x8000"));
    }

    #[test]
    fn run_queue_round_robins_and_skips_dead() {
        let mut t = ProcTable::new();
        let pids: Vec<Pid> = (0..3)
            .map(|i| spawn_named(&mut t, &format!("p{i}")))
            .collect();
        assert_eq!(pids[0], Pid(0));
        assert_eq!(t.next_runnable(), Some(pids[0]));
        assert_eq!(t.next_runnable(), Some(pids[1]));
        assert_eq!(t.next_runnable(), Some(pids[2]));
        assert_eq!(t.next_runnable(), Some(pids[0]), "wraps");
        t.set_state(pids[1], ProcState::Exited(0));
        assert_eq!(t.next_runnable(), Some(pids[2]), "skips dead");
        t.set_state(pids[0], ProcState::Exited(0));
        t.set_state(pids[2], ProcState::Exited(0));
        assert_eq!(t.next_runnable(), None);
        assert_eq!(t.runnable_len(), 0);
    }

    #[test]
    fn fault_recording_kills_the_process() {
        let mut t = ProcTable::new();
        let pid = spawn_named(&mut t, "victim");
        let f = t.record_protection_fault(pid, 0x10, 8, false);
        assert_eq!(f.pid, pid);
        assert_eq!(t.get(pid).unwrap().accounting.protection_faults, 1);
        assert!(matches!(t.get(pid).unwrap().state, ProcState::Faulted(_)));
        assert_eq!(t.next_runnable(), None);
    }

    #[test]
    fn kill_recycles_slot_with_fresh_generation() {
        let mut t = ProcTable::new();
        let a = spawn_named(&mut t, "a");
        let b = spawn_named(&mut t, "b");
        assert_eq!(t.len(), 2);
        let dead = t.kill(a).expect("live");
        assert_eq!(dead.name, "a");
        assert_eq!(t.len(), 1);
        // Stale pid: every lookup is now None, never pid b's entry.
        assert!(t.get(a).is_none());
        assert!(t.kill(a).is_none());
        assert!(t.checkout_table(a).is_none());
        // The slot is recycled with a bumped generation.
        let c = spawn_named(&mut t, "c");
        assert_eq!(c.index(), a.index());
        assert_eq!(c.generation(), a.generation() + 1);
        assert_ne!(c, a);
        assert!(t.get(a).is_none(), "old pid never aliases the new tenant");
        assert_eq!(t.get(c).unwrap().name, "c");
        let _ = b;
    }

    #[test]
    fn quotas_gate_admission_with_typed_errors() {
        let mut t = ProcTable::new();
        t.set_quotas(TenantQuotas {
            max_tenants: 2,
            max_resident_bytes: u64::MAX,
        });
        let a = spawn_named(&mut t, "a");
        let _b = spawn_named(&mut t, "b");
        let err = t
            .spawn(
                "c".into(),
                crate::loader::ProcessImage::empty_for_tests(),
                Vec::new(),
                PageTable::new(),
                None,
            )
            .unwrap_err();
        assert_eq!(err, AdmissionError::TenantLimit { limit: 2 });
        // Killing one frees the quota.
        t.kill(a);
        let _c = spawn_named(&mut t, "c");
        // Byte quota: the test image's capsule is 0x3000 bytes.
        let mut t = ProcTable::new();
        t.set_quotas(TenantQuotas {
            max_tenants: usize::MAX,
            max_resident_bytes: 0x3000,
        });
        let _a = spawn_named(&mut t, "a");
        let err = t
            .spawn(
                "b".into(),
                crate::loader::ProcessImage::empty_for_tests(),
                Vec::new(),
                PageTable::new(),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, AdmissionError::MemoryOverCommit { .. }));
        assert_eq!(t.resident_bytes(), 0x3000);
    }

    proptest! {
        /// `admit_batch(n, bytes)` is `n` check-then-charge steps of the
        /// single-capsule rule (tenant limit first, then bytes, overflow
        /// refused), written out here as the reference: same verdict,
        /// same variant, same payload — including empty capsules, a table
        /// already over a lowered limit, and sums that leave `u64`.
        #[test]
        fn admit_batch_equals_sequential_admits(
            max_tenants in prop_oneof![0usize..12, Just(usize::MAX)],
            max_resident_bytes in prop_oneof![0u64..6000, (u64::MAX - 6000)..=u64::MAX],
            live in 0usize..12,
            resident in prop_oneof![0u64..6000, (u64::MAX - 6000)..=u64::MAX],
            n in 0usize..16,
            bytes in prop_oneof![Just(0u64), 1u64..2000, Just(u64::MAX)],
        ) {
            let mut t = ProcTable::new();
            t.set_quotas(TenantQuotas { max_tenants, max_resident_bytes });
            (t.live, t.resident) = (live, resident);
            let (mut live, mut resident) = (live, resident);
            let mut sequential = Ok(());
            for _ in 0..n {
                if live >= max_tenants {
                    sequential = Err(AdmissionError::TenantLimit { limit: max_tenants });
                    break;
                }
                match resident.checked_add(bytes) {
                    Some(total) if total <= max_resident_bytes => {
                        live += 1;
                        resident = total;
                    }
                    _ => {
                        sequential = Err(AdmissionError::MemoryOverCommit {
                            requested: bytes,
                            resident,
                            limit: max_resident_bytes,
                        });
                        break;
                    }
                }
            }
            prop_assert_eq!(t.admit_batch(n, bytes), sequential);
        }

        /// A pid handed out once never validates again after its tenant dies,
        /// no matter how many times the slot is recycled.
        #[test]
        fn generations_never_alias(ops in proptest::collection::vec((0u64..4, proptest::bool::ANY), 1..120)) {
            let mut t = ProcTable::new();
            let mut live: Vec<Pid> = Vec::new();
            let mut retired: Vec<Pid> = Vec::new();
            for (i, (slot, spawn)) in ops.iter().enumerate() {
                if *spawn || live.is_empty() {
                    let pid = spawn_named(&mut t, &format!("t{i}"));
                    prop_assert!(!retired.contains(&pid), "recycled slot reused a retired pid");
                    prop_assert!(!live.contains(&pid), "duplicate live pid");
                    live.push(pid);
                } else {
                    let victim = live.remove((*slot as usize) % live.len());
                    prop_assert!(t.kill(victim).is_some());
                    retired.push(victim);
                }
                for p in &retired {
                    prop_assert!(t.get(*p).is_none(), "stale {p} resolved after kill");
                    prop_assert!(t.kill(*p).is_none(), "stale {p} double-killed");
                }
                for p in &live {
                    prop_assert!(t.get(*p).is_some(), "live {p} lost");
                }
            }
            prop_assert_eq!(t.len(), live.len());
        }

        /// One rotation of the run queue visits every runnable tenant exactly
        /// once, regardless of which tenants were parked or killed first.
        #[test]
        fn round_robin_visits_all_runnable(n in 1usize..12, park_mask in 0u16..4096) {
            let mut t = ProcTable::new();
            let pids: Vec<Pid> = (0..n).map(|i| spawn_named(&mut t, &format!("p{i}"))).collect();
            let mut runnable: Vec<Pid> = Vec::new();
            for (i, p) in pids.iter().enumerate() {
                if park_mask & (1 << i) != 0 {
                    t.set_state(*p, ProcState::Exited(0));
                } else {
                    runnable.push(*p);
                }
            }
            prop_assert_eq!(t.runnable_len(), runnable.len());
            let mut seen = Vec::new();
            for _ in 0..runnable.len() {
                let next = t.next_runnable();
                prop_assert!(next.is_some(), "queue dried up early");
                let next = next.unwrap();
                prop_assert!(runnable.contains(&next), "scheduled a parked tenant");
                prop_assert!(!seen.contains(&next), "revisited {} within one rotation", next);
                seen.push(next);
            }
            // The rotation wraps: the next pick is the first one again.
            if let Some(first) = seen.first() {
                prop_assert_eq!(t.next_runnable(), Some(*first));
            } else {
                prop_assert_eq!(t.next_runnable(), None);
            }
        }

        /// checkout_table/checkin_table stay balanced under random spawn,
        /// kill, and checkout interleavings: a table checked out is always
        /// returned by exactly one checkin, stale pids never yield a table,
        /// and killing a tenant mid-checkout doesn't corrupt the slab.
        #[test]
        fn checkout_checkin_balance(ops in proptest::collection::vec((0u64..5, 0u64..8), 1..120)) {
            let mut t = ProcTable::new();
            let mut live: Vec<Pid> = Vec::new();
            let mut out: Vec<(Pid, AllocationTable)> = Vec::new();
            let mut retired: Vec<Pid> = Vec::new();
            for (i, (op, slot)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => {
                        live.push(spawn_named(&mut t, &format!("t{i}")));
                    }
                    2 if !live.is_empty() => {
                        let pid = live[(*slot as usize) % live.len()];
                        if let Some(table) = t.checkout_table(pid) {
                            prop_assert!(
                                !out.iter().any(|(p, _)| *p == pid),
                                "double checkout of {pid}"
                            );
                            out.push((pid, table));
                        } else {
                            prop_assert!(
                                out.iter().any(|(p, _)| *p == pid),
                                "{pid} live but table neither resident nor checked out"
                            );
                        }
                    }
                    3 if !out.is_empty() => {
                        let (pid, table) = out.remove((*slot as usize) % out.len());
                        t.checkin_table(pid, table);
                    }
                    4 if !live.is_empty() => {
                        let pid = live.remove((*slot as usize) % live.len());
                        prop_assert!(t.kill(pid).is_some());
                        retired.push(pid);
                        out.retain(|(p, _)| *p != pid);
                    }
                    _ => {}
                }
                for p in &retired {
                    prop_assert!(t.checkout_table(*p).is_none(), "stale {p} yielded a table");
                }
            }
            // Drain: every outstanding table checks back in, after which every
            // live tenant's table is resident and checks out exactly once.
            for (pid, table) in out.drain(..) {
                t.checkin_table(pid, table);
            }
            for p in &live {
                let table = t.checkout_table(*p);
                prop_assert!(table.is_some(), "live {p} lost its table");
                t.checkin_table(*p, table.unwrap());
            }
        }
    }

    #[test]
    fn victim_pick_prefers_most_escapes_over_runnable_only() {
        let mut t = ProcTable::new();
        let a = spawn_named(&mut t, "a");
        let b = spawn_named(&mut t, "b");
        let mut table = AllocationTable::new();
        table.track_alloc(0x1000, 64, carat_runtime::AllocKind::Heap);
        table.track_escape(0x2000);
        table.flush_escapes(|_| 0x1010);
        t.checkout_table(b);
        t.checkin_table(b, table);
        assert_eq!(t.pick_compaction_victim_bounded(usize::MAX).0, Some(b));
        t.set_state(b, ProcState::Exited(0));
        assert_eq!(
            t.pick_compaction_victim_bounded(usize::MAX).0,
            Some(a),
            "dead tenants skipped"
        );
    }
}
