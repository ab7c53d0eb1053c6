//! # carat-suite — facade over the CARAT reproduction
//!
//! A from-scratch Rust reproduction of *"CARAT: A Case for Virtual Memory
//! through Compiler- and Runtime-Based Address Translation"* (PLDI 2020).
//! Each subsystem lives in its own crate, re-exported here:
//!
//! * [`ir`] — the typed SSA IR ("LLVM bitcode" stand-in);
//! * [`analysis`] — dominators, loops, alias analysis, dataflow, SCEV;
//! * [`frontend`] — the Cm (C-subset) language;
//! * [`core`] — the CARAT compiler passes: guards, tracking, Opt 1/2/3,
//!   code signing;
//! * [`runtime`] — allocation table, escape map, region guards, the
//!   pointer-patching move engine;
//! * [`kernel`] — the simulated kernel: physical memory, loader, page
//!   mover, paging baseline;
//! * [`vm`] — the interpreter + cycle/TLB cost model;
//! * [`workloads`] — the benchmark suite.
//!
//! See `README.md` for a tour and `DESIGN.md` for the experiment index.
//!
//! ```
//! use carat_suite::frontend::compile_cm;
//! use carat_suite::core::{CaratCompiler, CompileOptions};
//! use carat_suite::vm::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = compile_cm("hello", "int main() { return 41 + 1; }")?;
//! let compiled = CaratCompiler::new(CompileOptions::default()).compile(module)?;
//! let result = Vm::new(compiled.module, VmConfig::default())?.run()?;
//! assert_eq!(result.ret, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use carat_analysis as analysis;
pub use carat_core as core;
pub use carat_frontend as frontend;
pub use carat_ir as ir;
pub use carat_kernel as kernel;
pub use carat_runtime as runtime;
pub use carat_vm as vm;
pub use carat_workloads as workloads;
