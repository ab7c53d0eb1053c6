//! The pin registry (DMA targets no mover may touch) and the DMA
//! engine's service loop that checks transfers against it.

use super::{checksum, SimKernel};
use crate::dev::{DmaCompletion, DmaDir, DmaError, DmaRequest};
use crate::faults::FaultPoint;
use crate::proc::Pid;
use carat_runtime::PinnedRange;
use std::fmt;

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
    /// Moves/page-outs refused with [`carat_runtime::MoveError::Pinned`].
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

impl SimKernel {
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
        if req.dir == DmaDir::DeviceToMem {
            // Deterministic device payload: a xorshift64* stream seeded
            // by the descriptor, so replays are bit-identical and
            // workloads can verify what "the wire" delivered. Generated
            // straight into the pinned target.
            let mut x = req
                .id
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(req.addr | 1);
            for chunk in self.mem.bytes_mut(req.addr, req.len).chunks_mut(8) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
            }
        }
        self.dev.dma.account_bytes(req.dir, req.len);
        DmaCompletion {
            id: req.id,
            err: None,
            cycles,
            // Either direction, the bytes transferred are now the bytes
            // in memory: sum them in place.
            checksum: checksum(self.mem.read_bytes(req.addr, req.len)),
        }
    }
}
