//! # carat-analysis — program analyses for the CARAT compiler
//!
//! Implements the analysis stack that CARAT's guard optimizations rely on
//! (paper §4.1.1):
//!
//! * [`Cfg`], [`DomTree`], [`LoopForest`] — control-flow structure;
//! * [`AliasQuery`] — one "provably disjoint" query built from three
//!   rules (base object, constant offset, Steensgaard points-to), which
//!   stands in for the prototype's chain of 15 LLVM alias analyses;
//! * [`LoopInvariance`] — alias-enhanced loop-invariant detection (Opt 1);
//! * [`canonical_loop_info`] / [`ptr_evolution`] — scalar evolution for
//!   counted loops (Opt 2);
//! * [`ValueRanges`] — conditional value-range analysis;
//! * [`prove_function`] — whole-trip guard proofs consumed by the threaded
//!   engine tier to elide and hoist guards at decode time.
//!
//! Opt 3 (AC/DC) is not here: `carat_core::opt::redundancy` runs its own
//! extent-carrying must-availability dataflow and takes only [`Cfg`].
//!
//! ## Example
//!
//! ```
//! use carat_ir::{ModuleBuilder, Type};
//! use carat_analysis::{Cfg, DomTree, LoopForest};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let f = mb.declare("main", vec![], None);
//! {
//!     let mut b = mb.define(f);
//!     let e = b.block("entry");
//!     b.switch_to(e);
//!     b.ret(None);
//! }
//! let m = mb.finish();
//! let func = m.func(m.main().unwrap());
//! let cfg = Cfg::compute(func);
//! let dom = DomTree::compute(func, &cfg);
//! let loops = LoopForest::compute(func, &cfg, &dom);
//! assert!(loops.loops.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod cfg;
mod dom;
mod invariance;
mod loops;
mod proofs;
mod range;
mod scev;
mod steensgaard;

pub use alias::{trace_base, AliasQuery, BaseObject, MemLoc};
pub use cfg::Cfg;
pub use dom::DomTree;
pub use invariance::LoopInvariance;
pub use loops::{ensure_preheader, Loop, LoopForest};
pub use proofs::{
    prove_function, prove_function_in, FunctionProofs, GuardProof, LoopPlan, ProofKind,
};
pub use range::{Interval, ValueRanges};
pub use scev::{
    affine_index, canonical_loop_info, ptr_evolution, AffineIndex, LoopTripInfo, PtrEvolution,
};
