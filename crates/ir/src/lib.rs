//! # carat-ir — the CARAT compiler's intermediate representation
//!
//! An LLVM-like, typed, SSA-form IR that the whole reproduction is built on:
//! the Cm front end lowers to it, the CARAT passes instrument and optimize
//! it, the VM interprets it, and the kernel loader consumes its textual
//! serialization ("bitcode") after signature validation.
//!
//! The IR deliberately exposes exactly the surface the CARAT paper's
//! transformations need: *memory instructions* ([`Inst::Load`],
//! [`Inst::Store`], [`Inst::Alloca`]), *call instructions* ([`Inst::Call`]),
//! address computation ([`Inst::PtrAdd`], [`Inst::FieldAddr`]), and the
//! CARAT intrinsics ([`Intrinsic`]) injected by the instrumentation passes.
//!
//! ## Example
//!
//! ```
//! use carat_ir::{ModuleBuilder, Type, verify_module, print_module, parse_module};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("demo");
//! let f = mb.declare("main", vec![], Some(Type::I64));
//! {
//!     let mut b = mb.define(f);
//!     let entry = b.block("entry");
//!     b.switch_to(entry);
//!     let forty_two = b.const_i64(42);
//!     b.ret(Some(forty_two));
//! }
//! let module = mb.finish();
//! verify_module(&module)?;
//! let text = print_module(&module);
//! let reparsed = parse_module(&text)?;
//! assert_eq!(print_module(&reparsed), text);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod func;
mod inst;
mod module;
mod parse;
mod print;
mod types;
mod verify;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use func::{Block, Function, ValueDef};
pub use inst::{
    BinOp, BlockId, CastKind, Const, FuncId, GlobalId, Inst, Intrinsic, Opcode, Pred, ValueId,
};
pub use module::{Global, GlobalInit, Module};
pub use parse::{parse_module, ParseError};
pub use print::{module_bytes, print_module};
pub use types::{round_up, IntTy, Type};
pub use verify::{verify_func, verify_module, VerifyError};
