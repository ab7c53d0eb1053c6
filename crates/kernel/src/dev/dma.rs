//! Block/NIC-style DMA engine with descriptor queues.
//!
//! Software submits [`DmaRequest`] descriptors to a request ring; the
//! device (serviced by `SimKernel::dma_service`, which owns the memory
//! the engine reads and writes) consumes them, validates that the target
//! buffer is **pinned** — a DMA into movable memory is exactly the
//! use-after-move hazard pinning exists to prevent — performs the
//! transfer, and pushes a [`DmaCompletion`] onto the response ring.
//!
//! The device itself holds no memory reference; it is a pair of rings
//! plus accounting. That keeps borrows simple (the kernel mutates memory
//! while popping descriptors by value) and mirrors how a real descriptor
//! ring lives in device registers, not in the host address space.

use std::collections::VecDeque;
use std::fmt;

/// Transfer direction, named from the device's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDir {
    /// Device writes into guest memory (a NIC receive, a block read).
    DeviceToMem,
    /// Device reads from guest memory (a NIC transmit, a block write).
    MemToDevice,
}

/// One submitted descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRequest {
    /// Completion-matching id, assigned at submit time.
    pub id: u64,
    /// Target buffer start (a guest physical address).
    pub addr: u64,
    /// Transfer length in bytes.
    pub len: u64,
    /// Direction of the transfer.
    pub dir: DmaDir,
}

/// Why the device refused a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// The buffer is not (fully) covered by a pinned range — the device
    /// will not race the move engine.
    NotPinned {
        /// Requested buffer start.
        addr: u64,
        /// Requested length.
        len: u64,
    },
    /// The buffer address is a swap poison value: the memory is paged
    /// out, there is nothing physical to DMA into.
    Swapped {
        /// The poisoned address.
        addr: u64,
    },
    /// Zero-length transfers are malformed descriptors.
    ZeroLen,
    /// Injected device fault (chaos testing).
    DeviceFault,
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::NotPinned { addr, len } => {
                write!(f, "DMA target [{addr:#x}, +{len:#x}) is not pinned")
            }
            DmaError::Swapped { addr } => {
                write!(f, "DMA target {addr:#x} is swapped out (poison)")
            }
            DmaError::ZeroLen => write!(f, "zero-length DMA descriptor"),
            DmaError::DeviceFault => write!(f, "injected device fault"),
        }
    }
}

impl std::error::Error for DmaError {}

/// One response descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCompletion {
    /// Matches the request's id.
    pub id: u64,
    /// `None` on success, the typed refusal otherwise.
    pub err: Option<DmaError>,
    /// Device-side modeled cycles the transfer consumed.
    pub cycles: u64,
    /// [`checksum`](crate::checksum) of the bytes transferred (both
    /// directions), so workloads can verify payload integrity end to
    /// end. Zero on error.
    pub checksum: u64,
}

impl DmaCompletion {
    /// Did the transfer succeed?
    pub fn ok(&self) -> bool {
        self.err.is_none()
    }
}

/// Aggregate DMA statistics (monotone over the device's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Descriptors submitted.
    pub submitted: u64,
    /// Transfers completed successfully.
    pub completed: u64,
    /// Descriptors refused with a typed error.
    pub failed: u64,
    /// Bytes the device wrote into memory.
    pub bytes_in: u64,
    /// Bytes the device read out of memory.
    pub bytes_out: u64,
    /// Device-side modeled cycles consumed by transfers.
    pub device_cycles: u64,
}

/// The DMA engine: request ring, response ring, id allocator, stats.
#[derive(Debug, Default)]
pub struct DmaDevice {
    requests: VecDeque<DmaRequest>,
    completions: VecDeque<DmaCompletion>,
    next_id: u64,
    stats: DmaStats,
}

impl DmaDevice {
    /// An idle engine with empty rings.
    pub fn new() -> DmaDevice {
        DmaDevice::default()
    }

    /// Submit a descriptor; returns its completion-matching id.
    pub fn submit(&mut self, addr: u64, len: u64, dir: DmaDir) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;
        self.requests.push_back(DmaRequest { id, addr, len, dir });
        id
    }

    /// Pop the oldest pending descriptor (service side).
    pub fn pop_request(&mut self) -> Option<DmaRequest> {
        self.requests.pop_front()
    }

    /// Push a response descriptor (service side), folding its outcome
    /// into the lifetime stats. Transferred bytes are accounted
    /// separately via [`DmaDevice::account_bytes`] by the service loop,
    /// which knows the exact count.
    pub fn push_completion(&mut self, c: DmaCompletion) {
        if c.ok() {
            self.stats.completed += 1;
            self.stats.device_cycles += c.cycles;
        } else {
            self.stats.failed += 1;
        }
        self.completions.push_back(c);
    }

    /// Drain every pending response (software side).
    pub fn drain_completions(&mut self) -> Vec<DmaCompletion> {
        self.completions.drain(..).collect()
    }

    /// Pending (unserviced) request count.
    pub fn pending_requests(&self) -> usize {
        self.requests.len()
    }

    /// Unconsumed response count.
    pub fn pending_completions(&self) -> usize {
        self.completions.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Record transferred bytes for a successful completion. Kept
    /// separate from [`DmaDevice::push_completion`] so the service loop
    /// can report exact byte counts rather than a cycles-derived guess.
    pub fn account_bytes(&mut self, dir: DmaDir, bytes: u64) {
        match dir {
            DmaDir::DeviceToMem => self.stats.bytes_in += bytes,
            DmaDir::MemToDevice => self.stats.bytes_out += bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_ids_are_sequential_and_fifo() {
        let mut d = DmaDevice::new();
        let a = d.submit(0x1000, 64, DmaDir::DeviceToMem);
        let b = d.submit(0x2000, 64, DmaDir::MemToDevice);
        assert_eq!((a, b), (0, 1));
        assert_eq!(d.pending_requests(), 2);
        assert_eq!(d.pop_request().unwrap().id, a, "FIFO order");
        assert_eq!(d.pop_request().unwrap().id, b);
        assert!(d.pop_request().is_none());
    }

    #[test]
    fn completion_stats_split_ok_and_failed() {
        let mut d = DmaDevice::new();
        d.push_completion(DmaCompletion {
            id: 0,
            err: None,
            cycles: 100,
            checksum: 7,
        });
        d.push_completion(DmaCompletion {
            id: 1,
            err: Some(DmaError::ZeroLen),
            cycles: 0,
            checksum: 0,
        });
        let s = d.stats();
        assert_eq!((s.completed, s.failed, s.device_cycles), (1, 1, 100));
        let drained = d.drain_completions();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].ok() && !drained[1].ok());
        assert_eq!(d.pending_completions(), 0);
    }

    #[test]
    fn errors_render() {
        let e = DmaError::NotPinned {
            addr: 0x1000,
            len: 0x40,
        };
        assert!(e.to_string().contains("not pinned"));
        assert!(DmaError::Swapped { addr: 0xffff }
            .to_string()
            .contains("poison"));
    }
}
