//! Deterministic, seeded fault injection for the kernel and runtime.
//!
//! The paper's thesis is that memory events are *signals the kernel can
//! respond to*, not crashes (§2.2: poison addresses "encode different
//! conditions"). This module makes that claim testable: a [`FaultPlan`]
//! arms specific [`FaultPoint`]s to fire on their Nth dynamic occurrence,
//! and every fired fault must surface as a typed [`KernelError`] with the
//! machine left in a consistent, recoverable state — never a panic.
//!
//! Determinism rules:
//!
//! * An un-armed plan (or an armed point that has not yet reached its
//!   trigger count) has **no side effects** on kernel behavior — counters
//!   of a run whose faults never fire are identical to a fault-free run.
//! * Firing is a pure function of the occurrence count, so the same plan
//!   over the same workload fires at exactly the same instant every time.

use carat_runtime::{MoveError, WorldStopError};
use std::error::Error;
use std::fmt;

pub use crate::buddy::BuddyError;

/// A site in the kernel/runtime where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Buddy/vacated-frame exhaustion when allocating a move destination
    /// (`move_pages`, `page_in`, `expand_stack`).
    MoveDstAlloc,
    /// Interruption of a move between its patch and copy phases — the
    /// crash window the move's rollback covers.
    MidMove,
    /// A thread stalls and never reaches its world-stop signal handler.
    WorldStopStall,
    /// The swap store fails to read a slot back on `page_in`.
    SwapRead,
    /// The signed image is corrupted in flight, so signature verification
    /// at `load` must reject it.
    SignatureCorrupt,
    /// The capsule device fails to persist an externalized tenant capsule
    /// (`capsule_write_from`): the write is refused before any bytes land, so
    /// the tenant simply stays resident.
    CapsuleWrite,
    /// An externalized capsule rots at rest: the stored bytes are flipped
    /// so the checksum verification on `capsule_read_into` must reject them.
    CapsuleCorrupt,
    /// A tenant's heap allocation is refused as if its arena were
    /// exhausted — the per-tenant OOM a supervisor must absorb.
    TenantOom,
    /// The DMA engine faults while servicing a descriptor: the transfer
    /// is refused with a typed device error, no bytes move, and the
    /// completion ring still advances (I/O-storm chaos testing).
    DmaService,
}

impl FaultPoint {
    /// All injectable points, for building seed matrices.
    pub const ALL: [FaultPoint; 9] = [
        FaultPoint::MoveDstAlloc,
        FaultPoint::MidMove,
        FaultPoint::WorldStopStall,
        FaultPoint::SwapRead,
        FaultPoint::SignatureCorrupt,
        FaultPoint::CapsuleWrite,
        FaultPoint::CapsuleCorrupt,
        FaultPoint::TenantOom,
        FaultPoint::DmaService,
    ];

    /// The single-VM points [`FaultPlan::from_seed`] draws from — the
    /// original five, kept stable so seeded single-VM soak schedules are
    /// reproducible across releases. The capsule/tenant points only make
    /// sense under a fleet scheduler and are drawn by
    /// [`FaultPlan::from_seed_chaos`].
    pub const CLASSIC: [FaultPoint; 5] = [
        FaultPoint::MoveDstAlloc,
        FaultPoint::MidMove,
        FaultPoint::WorldStopStall,
        FaultPoint::SwapRead,
        FaultPoint::SignatureCorrupt,
    ];

    fn index(self) -> usize {
        match self {
            FaultPoint::MoveDstAlloc => 0,
            FaultPoint::MidMove => 1,
            FaultPoint::WorldStopStall => 2,
            FaultPoint::SwapRead => 3,
            FaultPoint::SignatureCorrupt => 4,
            FaultPoint::CapsuleWrite => 5,
            FaultPoint::CapsuleCorrupt => 6,
            FaultPoint::TenantOom => 7,
            FaultPoint::DmaService => 8,
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultPoint::MoveDstAlloc => "move-dst-alloc",
            FaultPoint::MidMove => "mid-move",
            FaultPoint::WorldStopStall => "world-stop-stall",
            FaultPoint::SwapRead => "swap-read",
            FaultPoint::SignatureCorrupt => "signature-corrupt",
            FaultPoint::CapsuleWrite => "capsule-write",
            FaultPoint::CapsuleCorrupt => "capsule-corrupt",
            FaultPoint::TenantOom => "tenant-oom",
            FaultPoint::DmaService => "dma-service",
        };
        f.write_str(s)
    }
}

/// One armed trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arm {
    point: FaultPoint,
    /// Fires on the `at`-th dynamic occurrence (1-based).
    at: u64,
    /// One-shot arms disarm after firing; persistent arms keep firing on
    /// every occurrence from `at` onward (e.g. an exhaustion that stays
    /// exhausted through the kernel's compaction retries).
    persistent: bool,
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    arms: Vec<Arm>,
    /// Dynamic occurrence count per fault point.
    counts: [u64; FaultPoint::ALL.len()],
    /// Log of fired faults: `(point, occurrence)` in firing order.
    fired: Vec<(FaultPoint, u64)>,
}

impl FaultPlan {
    /// An empty plan: no faults armed.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm `point` to fire once, on its `nth` dynamic occurrence
    /// (1-based).
    pub fn arm(mut self, point: FaultPoint, nth: u64) -> FaultPlan {
        self.arms.push(Arm {
            point,
            at: nth.max(1),
            persistent: false,
        });
        self
    }

    /// Arm `point` to fire on its `nth` occurrence and every occurrence
    /// after it (a condition that persists through retries).
    pub fn arm_persistent(mut self, point: FaultPoint, nth: u64) -> FaultPlan {
        self.arms.push(Arm {
            point,
            at: nth.max(1),
            persistent: true,
        });
        self
    }

    /// Derive a pseudo-random schedule from `seed` (xorshift64*): one or
    /// two armed points with small trigger counts. The same seed always
    /// produces the same schedule.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut plan = FaultPlan::new();
        let n_arms = 1 + (next() % 2);
        for _ in 0..n_arms {
            let point = FaultPoint::CLASSIC[(next() % 5) as usize];
            let nth = 1 + next() % 3;
            // Exhaustion that clears itself mid-retry would make the run
            // diverge from the fault-free counters without erroring;
            // keep MoveDstAlloc persistent so it always surfaces.
            plan = if point == FaultPoint::MoveDstAlloc {
                plan.arm_persistent(point, nth)
            } else {
                plan.arm(point, nth)
            };
        }
        plan
    }

    /// Derive a fleet-scale fault storm from `seed`: several armed points
    /// drawn from the full set — including the capsule and per-tenant
    /// points — with trigger counts spread across a wider occurrence
    /// range, so faults land throughout a long fleet run rather than all
    /// at the start. Deterministic: the same seed always produces the
    /// same storm.
    pub fn from_seed_chaos(seed: u64) -> FaultPlan {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut plan = FaultPlan::new();
        let n_arms = 3 + (next() % 4);
        for _ in 0..n_arms {
            let point = FaultPoint::ALL[(next() % FaultPoint::ALL.len() as u64) as usize];
            let nth = 1 + next() % 64;
            plan = if point == FaultPoint::MoveDstAlloc {
                plan.arm_persistent(point, nth)
            } else {
                plan.arm(point, nth)
            };
        }
        plan
    }

    /// The points with at least one live arm (deduplicated, in
    /// [`FaultPoint::ALL`] order) — what a soak harness consults to know
    /// which typed errors a schedule may legitimately surface.
    pub fn armed_points(&self) -> Vec<FaultPoint> {
        FaultPoint::ALL
            .into_iter()
            .filter(|p| self.arms.iter().any(|a| a.point == *p))
            .collect()
    }

    /// Record one dynamic occurrence of `point` and report whether an arm
    /// fires. Occurrence counting is the only state this mutates when
    /// nothing fires.
    pub fn should_fire(&mut self, point: FaultPoint) -> bool {
        let i = point.index();
        self.counts[i] += 1;
        let occurrence = self.counts[i];
        let mut fire = false;
        self.arms.retain(|a| {
            if a.point != point || occurrence < a.at {
                return true;
            }
            fire = true;
            a.persistent
        });
        if fire {
            self.fired.push((point, occurrence));
        }
        fire
    }

    /// Dynamic occurrences of `point` observed so far.
    pub fn occurrences(&self, point: FaultPoint) -> u64 {
        self.counts[point.index()]
    }

    /// Faults fired so far, in order.
    pub fn fired(&self) -> &[(FaultPoint, u64)] {
        &self.fired
    }

    /// Whether any point is still armed.
    pub fn is_armed(&self) -> bool {
        !self.arms.is_empty()
    }
}

/// A kernel operation failed. Every variant is a clean, typed outcome:
/// the kernel's allocation table, physical memory, and swap store are
/// consistent when one of these is returned (transactional operations
/// roll back first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// No frames for a move/page-in destination, even after compacting
    /// vacated ranges and retrying with backoff.
    OutOfFrames {
        /// Pages that were requested.
        pages: u64,
    },
    /// The world-stop was refused (a thread stalled before its handler,
    /// or there was no thread to stop); nothing had been touched.
    WorldStop(WorldStopError),
    /// A move was interrupted between patch and copy; the transaction
    /// rolled every cell and register back to its pre-move value.
    MoveInterrupted {
        /// Expanded source range start.
        src: u64,
        /// Expanded source range length.
        len: u64,
        /// The destination that was abandoned (released back).
        dst: u64,
    },
    /// The swap store could not produce slot `slot` (read failure or
    /// corrupted entry). The slot's metadata is preserved for retry
    /// where possible.
    SwapReadFailed {
        /// The unreadable slot.
        slot: u64,
    },
    /// The frame allocator rejected an operation (e.g. double free) —
    /// a sign of kernel-internal inconsistency.
    Buddy(BuddyError),
    /// The capsule device refused to persist an externalized tenant
    /// capsule (injected [`FaultPoint::CapsuleWrite`]). No bytes landed;
    /// the tenant stays resident and the write can be retried.
    CapsuleWriteFailed {
        /// Capsule bytes that were being written.
        len: u64,
    },
    /// An externalized capsule failed its checksum on rehydrate: the
    /// stored bytes no longer hash to the checksum recorded at write. The
    /// rotten image is discarded — the tenant's execution state is lost —
    /// but the fault is *recoverable at the fleet level*: the supervisor
    /// respawns the tenant from its admitted image.
    CapsuleCorrupt {
        /// The corrupt capsule slot.
        slot: u64,
    },
    /// A capsule slot that was never written (or already consumed) was
    /// asked for — a stale externalization handle.
    CapsuleMissing {
        /// The missing slot.
        slot: u64,
    },
    /// A shared-region operation named an id with no live region.
    NoSuchShared {
        /// The stale id.
        id: crate::proc::SharedId,
    },
    /// A process-table operation named a pid whose slot was retired or
    /// recycled (the generation tag went stale).
    StaleTenant {
        /// The stale pid.
        pid: crate::proc::Pid,
    },
    /// A mover refused to touch a pinned DMA range. Decided before the
    /// world stops, so nothing was mutated; the caller plans around the
    /// pinned hole (pick a different victim, or wait for the unpin).
    Move(MoveError),
}

impl KernelError {
    /// Whether the caller can retry or continue after this error.
    /// Transient conditions (exhaustion, stalls, interrupted moves, swap
    /// and capsule I/O, stale handles) are recoverable: kernel state is
    /// intact and the operation can be reattempted — or, for a corrupt
    /// capsule, the tenant respawned from its image. [`KernelError::Buddy`]
    /// is fatal — it indicates the kernel's own bookkeeping is
    /// inconsistent.
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, KernelError::Buddy(_))
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::OutOfFrames { pages } => {
                write!(
                    f,
                    "out of frames for {pages} page(s), even after compaction"
                )
            }
            KernelError::WorldStop(e) => write!(f, "world-stop failed: {e}"),
            KernelError::MoveInterrupted { src, len, dst } => write!(
                f,
                "move of [{src:#x},+{len:#x}) -> {dst:#x} interrupted; rolled back"
            ),
            KernelError::SwapReadFailed { slot } => {
                write!(f, "swap store failed to read slot {slot}")
            }
            KernelError::Buddy(e) => write!(f, "frame allocator: {e}"),
            KernelError::CapsuleWriteFailed { len } => {
                write!(f, "capsule device refused a {len}-byte write")
            }
            KernelError::CapsuleCorrupt { slot } => {
                write!(f, "capsule slot {slot} failed its checksum on rehydrate")
            }
            KernelError::CapsuleMissing { slot } => {
                write!(
                    f,
                    "capsule slot {slot} was never written or already consumed"
                )
            }
            KernelError::NoSuchShared { id } => write!(f, "no such shared region: {id}"),
            KernelError::StaleTenant { pid } => write!(f, "stale tenant pid: {pid}"),
            KernelError::Move(e) => write!(f, "{e}"),
        }
    }
}

impl Error for KernelError {}

impl From<MoveError> for KernelError {
    fn from(e: MoveError) -> KernelError {
        KernelError::Move(e)
    }
}

impl From<WorldStopError> for KernelError {
    fn from(e: WorldStopError) -> KernelError {
        KernelError::WorldStop(e)
    }
}

impl From<BuddyError> for KernelError {
    fn from(e: BuddyError) -> KernelError {
        KernelError::Buddy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_fires_but_counts() {
        let mut p = FaultPlan::new();
        for _ in 0..10 {
            assert!(!p.should_fire(FaultPoint::MidMove));
        }
        assert_eq!(p.occurrences(FaultPoint::MidMove), 10);
        assert!(p.fired().is_empty());
    }

    #[test]
    fn one_shot_arm_fires_exactly_once_at_nth() {
        let mut p = FaultPlan::new().arm(FaultPoint::SwapRead, 3);
        assert!(!p.should_fire(FaultPoint::SwapRead));
        assert!(!p.should_fire(FaultPoint::SwapRead));
        assert!(p.should_fire(FaultPoint::SwapRead), "third occurrence");
        assert!(
            !p.should_fire(FaultPoint::SwapRead),
            "disarmed after firing"
        );
        assert_eq!(p.fired(), &[(FaultPoint::SwapRead, 3)]);
    }

    #[test]
    fn persistent_arm_keeps_firing() {
        let mut p = FaultPlan::new().arm_persistent(FaultPoint::MoveDstAlloc, 2);
        assert!(!p.should_fire(FaultPoint::MoveDstAlloc));
        assert!(p.should_fire(FaultPoint::MoveDstAlloc));
        assert!(p.should_fire(FaultPoint::MoveDstAlloc));
        assert!(p.is_armed());
    }

    #[test]
    fn points_count_independently() {
        let mut p = FaultPlan::new().arm(FaultPoint::MidMove, 1);
        assert!(!p.should_fire(FaultPoint::SwapRead));
        assert!(p.should_fire(FaultPoint::MidMove));
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_varied() {
        for seed in 0..32u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
            assert!(FaultPlan::from_seed(seed).is_armed());
        }
        // Different seeds do not all produce the same schedule.
        let distinct: std::collections::HashSet<String> = (0..32u64)
            .map(|s| format!("{:?}", FaultPlan::from_seed(s)))
            .collect();
        assert!(distinct.len() > 4);
    }

    #[test]
    fn chaos_schedules_cover_capsule_points() {
        for seed in 0..64u64 {
            assert_eq!(
                FaultPlan::from_seed_chaos(seed),
                FaultPlan::from_seed_chaos(seed)
            );
            assert!(FaultPlan::from_seed_chaos(seed).is_armed());
        }
        // Across a modest seed range, the chaos generator reaches the
        // capsule/tenant points the classic generator never arms.
        let mut reached = std::collections::HashSet::new();
        for seed in 0..256u64 {
            for p in FaultPlan::from_seed_chaos(seed).armed_points() {
                reached.insert(format!("{p}"));
            }
        }
        for p in ["capsule-write", "capsule-corrupt", "tenant-oom"] {
            assert!(reached.contains(p), "chaos seeds never armed {p}");
        }
    }

    #[test]
    fn classic_seeds_never_arm_fleet_points() {
        for seed in 0..256u64 {
            for p in FaultPlan::from_seed(seed).armed_points() {
                assert!(
                    FaultPoint::CLASSIC.contains(&p),
                    "single-VM seed {seed} armed fleet-only point {p}"
                );
            }
        }
    }

    #[test]
    fn armed_points_deduplicates() {
        let p = FaultPlan::new()
            .arm(FaultPoint::CapsuleCorrupt, 1)
            .arm(FaultPoint::CapsuleCorrupt, 5)
            .arm(FaultPoint::TenantOom, 2);
        assert_eq!(
            p.armed_points(),
            vec![FaultPoint::CapsuleCorrupt, FaultPoint::TenantOom]
        );
    }

    #[test]
    fn capsule_errors_are_recoverable() {
        assert!(KernelError::CapsuleWriteFailed { len: 128 }.is_recoverable());
        assert!(KernelError::CapsuleCorrupt { slot: 3 }.is_recoverable());
        assert!(KernelError::CapsuleMissing { slot: 9 }.is_recoverable());
        assert!(KernelError::NoSuchShared {
            id: crate::proc::SharedId(7)
        }
        .is_recoverable());
        assert!(KernelError::StaleTenant {
            pid: crate::proc::Pid(1)
        }
        .is_recoverable());
    }

    #[test]
    fn pinned_move_refusals_are_recoverable() {
        let e = KernelError::Move(MoveError::Pinned {
            src: 0x1000,
            len: 0x1000,
            pin_start: 0x1800,
            pin_len: 0x100,
        });
        assert!(e.is_recoverable(), "a pinned hole is planned around");
        assert!(e.to_string().contains("pinned"));
    }

    #[test]
    fn recoverability_classification() {
        assert!(KernelError::OutOfFrames { pages: 1 }.is_recoverable());
        assert!(KernelError::SwapReadFailed { slot: 0 }.is_recoverable());
        assert!(KernelError::MoveInterrupted {
            src: 0,
            len: 0,
            dst: 0
        }
        .is_recoverable());
        assert!(KernelError::WorldStop(WorldStopError::Stalled {
            entered: 1,
            threads: 2
        })
        .is_recoverable());
        assert!(!KernelError::Buddy(BuddyError::UnallocatedFree { addr: 0 }).is_recoverable());
    }
}
