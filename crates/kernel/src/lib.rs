//! # carat-kernel — the simulated kernel
//!
//! The kernel half of the CARAT co-design, simulated: physical memory, a
//! buddy page-frame allocator, the CARAT program loader (signature
//! validation → layout → initial patch), region management, the
//! world-stop page-move orchestration, and — for the *traditional*
//! baseline — a 4-level radix page table plus an MMU-notifier-style
//! paging trace reproducing the paper's Table 2 methodology.
//!
//! ## Example
//!
//! ```
//! use carat_kernel::{SimKernel, LoadConfig};
//! use carat_runtime::AllocationTable;
//! use carat_ir::{ModuleBuilder, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("hello");
//! let f = mb.declare("main", vec![], Some(Type::I64));
//! {
//!     let mut b = mb.define(f);
//!     let e = b.block("entry");
//!     b.switch_to(e);
//!     let c = b.const_i64(0);
//!     b.ret(Some(c));
//! }
//! let mut kernel = SimKernel::new(256 * 1024 * 1024);
//! let mut table = AllocationTable::new();
//! let image = kernel.load_unsigned(mb.finish(), &mut table, LoadConfig::default())?;
//! assert!(image.initial_pages > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod buddy;
pub mod dev;
mod faults;
mod kernel;
mod loader;
mod pagetable;
mod phys;
mod proc;
mod space;
mod trace;

pub use arena::ArenaStats;
pub use buddy::{BuddyAllocator, BuddyError};
pub use dev::{
    ClintTimer, DeviceBay, DmaCompletion, DmaDevice, DmaDir, DmaError, DmaRequest, DmaStats,
    TimerStats,
};
pub use faults::{FaultPlan, FaultPoint, KernelError};
pub use kernel::{checksum, fnv1a, PinError, PinStats, SimKernel, POISON_BASE, POISON_SLOT_SPAN};
pub use kernel::{Relocation, RelocationKind};
pub use loader::{CapsuleLayout, LoadConfig, LoadError, ProcessImage};
pub use pagetable::{PageTable, Pte};
pub use phys::PhysicalMemory;
pub use proc::{
    AdmissionError, Pid, ProcAccounting, ProcEntry, ProcState, ProcTable, ProtectionFault,
    SharedId, SharedRegion, TenantQuotas,
};
pub use space::AddressSpace;
pub use trace::{PagingEvent, PagingTrace};
