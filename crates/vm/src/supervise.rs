//! Tenant supervision: typed exit verdicts, restart policies with
//! exponential backoff, and the circuit breaker that turns a flapping
//! tenant into a quarantined one.
//!
//! The supervisor is the fleet's graceful-degradation brain. [`MultiVm`]
//! (the muscle) reports every terminal tenant outcome here as a typed
//! [`TenantExit`]; the supervisor decides — retire, restart after a
//! backoff, or quarantine — and logs the decision as a
//! [`SupervisionEvent`]. Restarts are *scheduled*, not immediate: a
//! lineage on its `k`-th restart waits `2^k` fleet slices (and is
//! charged `backoff_base_cycles << k` modeled cycles), so a tenant
//! dying in a tight loop backs off geometrically instead of consuming
//! the scheduler. After [`SupervisorConfig::max_restarts`] the circuit
//! breaker trips: the lineage is quarantined permanently and its
//! frames, quota, and capsule slot are reaped.
//!
//! Everything here is deterministic: verdicts are pure functions of the
//! exit and the lineage's restart count, and backoff is measured in
//! fleet slices, so a seeded chaos run replays bit-identically.
//!
//! Supervision time is deliberately *preemption-agnostic*: a "fleet
//! slice" is one scheduling turn regardless of what bounded it — the
//! historical instruction quantum ([`SchedSource::Quantum`]) or a
//! timer-interrupt cycle deadline ([`SchedSource::Timer`]). Nothing in
//! this module assumes a slice retired a fixed instruction count, so
//! backoff schedules replay identically under either scheduler.
//!
//! [`SchedSource::Quantum`]: crate::SchedSource::Quantum
//! [`SchedSource::Timer`]: crate::SchedSource::Timer
//!
//! [`MultiVm`]: crate::MultiVm

use std::fmt;
use std::rc::Rc;

use crate::machine::{VmConfig, VmError};
use carat_ir::Module;
use carat_kernel::{KernelError, Pid, ProtectionFault};

/// Restart-policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Restarts allowed per tenant lineage before the circuit breaker
    /// trips and the lineage is quarantined permanently.
    pub max_restarts: u32,
    /// Base restart backoff in modeled cycles: the `k`-th restart of a
    /// lineage is charged `backoff_base_cycles << k` and becomes due
    /// `2^k` fleet slices after the death.
    pub backoff_base_cycles: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 3,
            backoff_base_cycles: 10_000,
        }
    }
}

/// Typed verdict on how a tenant left the fleet.
///
/// This is the supervision-layer view of a [`ProcOutcome`]: the
/// recoverable/fatal split is made explicit, because it drives the
/// restart-vs-quarantine decision. Error payloads are carried as their
/// rendered form — the full typed error stays with the tenant's
/// [`ProcReport`].
///
/// [`ProcOutcome`]: crate::ProcOutcome
/// [`ProcReport`]: crate::ProcReport
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantExit {
    /// `main` returned this value; normal retirement.
    Finished(i64),
    /// Killed by an isolation violation — a program bug, never
    /// restarted (it would fault again deterministically).
    Fault(ProtectionFault),
    /// A recoverable failure (transient OOM, an injected kernel fault
    /// that rolled back): eligible for restart.
    Recoverable(String),
    /// A non-recoverable failure (trap, step limit, unrecoverable
    /// kernel error): quarantined.
    Fatal(String),
    /// Its externalized capsule failed the checksum on rehydrate. The
    /// execution state is lost but the spawn image is not — recoverable
    /// via respawn-from-image.
    CapsuleCorrupt {
        /// The capsule device slot that failed verification.
        slot: u64,
    },
}

impl TenantExit {
    /// Map a VM error onto the supervision taxonomy.
    pub(crate) fn classify(e: &VmError) -> TenantExit {
        if let VmError::Kernel(KernelError::CapsuleCorrupt { slot }) = e {
            return TenantExit::CapsuleCorrupt { slot: *slot };
        }
        let recoverable = matches!(e, VmError::OutOfMemory)
            || matches!(e, VmError::Kernel(k) if k.is_recoverable());
        if recoverable {
            TenantExit::Recoverable(e.to_string())
        } else {
            TenantExit::Fatal(e.to_string())
        }
    }

    /// Whether this exit is eligible for a supervised restart.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            TenantExit::Recoverable(_) | TenantExit::CapsuleCorrupt { .. }
        )
    }
}

impl fmt::Display for TenantExit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantExit::Finished(ret) => write!(f, "finished({ret})"),
            TenantExit::Fault(p) => write!(f, "{p}"),
            TenantExit::Recoverable(m) => write!(f, "recoverable: {m}"),
            TenantExit::Fatal(m) => write!(f, "fatal: {m}"),
            TenantExit::CapsuleCorrupt { slot } => {
                write!(f, "capsule corrupt in device slot {slot}")
            }
        }
    }
}

/// What the supervisor decided to do about one [`TenantExit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Normal retirement; nothing to do.
    Retired,
    /// Permanently killed: an unrecoverable exit, or the circuit
    /// breaker tripped. Frames, quota, and capsule slot are reaped.
    Quarantined,
    /// A restart is scheduled.
    Restarting {
        /// Which restart of this lineage this is (0-based).
        attempt: u32,
        /// Fleet slice at which the respawn becomes due.
        due_slice: u64,
        /// Modeled cycles of backoff charged for this restart.
        backoff_cycles: u64,
    },
}

/// One supervision decision, in fleet-slice time.
#[derive(Debug)]
pub struct SupervisionEvent {
    /// Fleet slice at which the exit was observed.
    pub slice: u64,
    /// The tenant that exited.
    pub pid: Pid,
    /// Its name.
    pub name: String,
    /// How it exited.
    pub exit: TenantExit,
    /// What the supervisor decided.
    pub verdict: Verdict,
    /// Backfilled when a scheduled restart is admitted: the successor
    /// pid and the fleet slice it rejoined at. `None` for non-restart
    /// verdicts, or when the respawn itself was refused.
    pub respawned_as: Option<(Pid, u64)>,
}

/// A scheduled respawn waiting for its backoff to elapse.
pub(crate) struct PendingRestart {
    /// Index of the death event in [`Supervisor::events`], for
    /// backfilling `respawned_as`.
    pub(crate) event_idx: usize,
    /// The ancestor pid (for the give-up event if admission refuses).
    pub(crate) pid: Pid,
    /// Respawn-from-image spec: same name, module, and config the
    /// lineage was first admitted with.
    pub(crate) name: String,
    pub(crate) module: Rc<Module>,
    pub(crate) cfg: VmConfig,
    /// Restart count the successor starts with (ancestor's + 1), so
    /// the circuit breaker counts across respawns.
    pub(crate) attempt: u32,
    /// Fleet slice at which the respawn becomes due.
    pub(crate) due_slice: u64,
}

/// The fleet's restart/quarantine policy engine and decision log.
pub struct Supervisor {
    pub(crate) cfg: SupervisorConfig,
    /// Every decision taken, in slice order — the chaos bench's
    /// recovery-latency source.
    pub events: Vec<SupervisionEvent>,
    pub(crate) pending: Vec<PendingRestart>,
    /// Restarts scheduled so far.
    pub restarts: u64,
    /// Lineages permanently quarantined so far.
    pub quarantines: u64,
    /// Total modeled backoff cycles charged across all restarts.
    pub backoff_cycles: u64,
}

impl Supervisor {
    pub(crate) fn new(cfg: SupervisorConfig) -> Supervisor {
        Supervisor {
            cfg,
            events: Vec::new(),
            pending: Vec::new(),
            restarts: 0,
            quarantines: 0,
            backoff_cycles: 0,
        }
    }

    /// Decide and log. `attempt` is the restarts already consumed by
    /// this lineage; shifts are clamped so a hostile config cannot
    /// overflow.
    pub(crate) fn decide(
        &mut self,
        slice: u64,
        pid: Pid,
        name: &str,
        exit: TenantExit,
        attempt: u32,
    ) -> Verdict {
        let verdict = if matches!(exit, TenantExit::Finished(_)) {
            Verdict::Retired
        } else if exit.is_recoverable() && attempt < self.cfg.max_restarts {
            let k = attempt.min(32);
            let backoff_cycles = self.cfg.backoff_base_cycles << k;
            self.restarts += 1;
            self.backoff_cycles += backoff_cycles;
            Verdict::Restarting {
                attempt,
                due_slice: slice + (1u64 << k),
                backoff_cycles,
            }
        } else {
            self.quarantines += 1;
            Verdict::Quarantined
        };
        self.events.push(SupervisionEvent {
            slice,
            pid,
            name: name.to_string(),
            exit,
            verdict,
            respawned_as: None,
        });
        verdict
    }

    /// Whether any respawn is still waiting for its backoff.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drain every pending restart whose backoff has elapsed at `slice`.
    pub(crate) fn take_due(&mut self, slice: u64) -> Vec<PendingRestart> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].due_slice <= slice {
                due.push(self.pending.remove(i));
            } else {
                i += 1;
            }
        }
        due
    }
}
