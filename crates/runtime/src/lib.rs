//! # carat-runtime — the CARAT runtime
//!
//! The run-time half of the CARAT co-design (paper §4.2): linked into every
//! CARAT process, it maintains the tracking state the kernel relies on to
//! move physical memory, evaluates guards against the kernel-supplied
//! region set, and executes mapping changes by patching every affected
//! pointer.
//!
//! * [`AllocationTable`] — allocations keyed by start address in an
//!   ordered map, each with its Allocation-to-Escape Map entry;
//! * [`RegionTable`] — kernel-supplied regions with binary-search,
//!   if-tree, and MPX-style guard evaluators;
//! * [`move_transaction`] — the pointer-swizzling move transaction
//!   (Figure 8) over any number of tables and requests;
//! * [`WorldStop`] — what a world-stop cost: a signal and two barriers per
//!   thread;
//! * [`CostModel`] — the shared simulated-machine cycle model.
//!
//! ## Example
//!
//! ```
//! use carat_runtime::{AllocationTable, AllocKind, Region, RegionTable, Perms, Access, GuardImpl};
//!
//! let mut table = AllocationTable::new();
//! table.track_alloc(0x1000, 256, AllocKind::Heap);
//! assert_eq!(table.find_containing(0x1080).map(|(s, _)| s), Some(0x1000));
//!
//! let mut regions = RegionTable::new();
//! regions.set_regions(vec![Region { start: 0x1000, len: 0x1000, perms: Perms::RW }]);
//! assert!(regions.check(GuardImpl::Mpx, 0x1080, 8, Access::Write).ok);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc_table;
mod cost;
mod fast_hash;
mod patch;
mod region;
mod world;

pub use alloc_table::{AllocInfo, AllocKind, AllocationTable, TrackStats};
pub use cost::CostModel;
pub use fast_hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use patch::{
    check_unpinned, expand_across_tables, expand_to_allocations, move_transaction,
    perform_move_batch_journaled, MemAccess, MoveCostBreakdown, MoveError, MoveInterrupted,
    MoveOutcome, MovePhase, MoveRequest, PatchPlan, PinnedRange, PlannedPatch,
};
pub use region::{Access, GuardCheck, GuardImpl, Perms, Region, RegionTable};
pub use world::{WorldStop, WorldStopError};
