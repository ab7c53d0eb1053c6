//! # carat-core — the CARAT compiler passes
//!
//! The paper's primary contribution: compile-time transformations that let
//! a program run safely in a *physical* address space with no hardware
//! address translation.
//!
//! * [`guards`] — guard injection for loads, stores, and calls (§2.2);
//! * [`tracking`] — allocation & pointer-escape tracking injection (§4.1.2);
//! * [`opt`] — the CARAT-specific guard optimizations: hoisting, merging,
//!   AC/DC redundancy elimination (§4.1.1);
//! * [`sign`] / [`sha256`] — binary signing establishing compiler→kernel
//!   trust (§2.3);
//! * [`pipeline`] — the end-to-end [`CaratCompiler`] driver.
//!
//! ## Example
//!
//! ```
//! use carat_ir::{ModuleBuilder, Type};
//! use carat_core::{CaratCompiler, CompileOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("demo");
//! let f = mb.declare("main", vec![], Some(Type::I64));
//! {
//!     let mut b = mb.define(f);
//!     let e = b.block("entry");
//!     b.switch_to(e);
//!     let size = b.const_i64(64);
//!     let p = b.malloc(size);
//!     let x = b.load(Type::I64, p);
//!     b.free(p);
//!     b.ret(Some(x));
//! }
//! let compiled = CaratCompiler::new(CompileOptions::default()).compile(mb.finish())?;
//! assert!(compiled.census.total >= 1); // the load got a guard
//! assert!(compiled.signed.is_some());  // and the binary is signed
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guards;
pub mod opt;
pub mod pipeline;
pub mod sha256;
pub mod sign;
pub mod tracking;

pub use guards::{count_guards, frame_size, GuardConfig, InjectionCounts};
pub use opt::{GuardCensus, GuardClass, GuardClasses};
pub use pipeline::{CaratCompiler, CompileOptions, CompiledModule, OptPreset, OptToggles};
pub use sign::{sign_module, verify_signature, SignatureError, SignedModule, SigningKey};
pub use tracking::{count_tracking, TrackingConfig, TrackingCounts};
