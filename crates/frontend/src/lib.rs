//! # carat-frontend — the Cm language front end
//!
//! Cm is the C subset the reproduction compiles ("CARAT … can be applied
//! to most C and C++ programs"): integers, doubles, chars, bools, pointers,
//! fixed arrays, structs, functions, the usual statements and operators,
//! plus the built-ins `malloc`/`free`/`rand`/`sqrt`/`exp`/`log`/
//! `print_i64`/`print_f64`/`memcpy`/`memset`/`abort`.
//!
//! Scalar locals are promoted to SSA registers during lowering (Braun-style
//! on-the-fly SSA construction), which is what lets the CARAT guard
//! optimizations recognize loops in frontend-generated code.
//!
//! ## Example
//!
//! ```
//! use carat_frontend::compile_cm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = compile_cm(
//!     "demo",
//!     "int main() { int s = 0; for (int i = 0; i < 10; i += 1) { s += i; } return s; }",
//! )?;
//! assert!(module.main().is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod lower;
mod parser;
mod token;

pub use ast::{CmType, Program};
pub use lower::{lower_program, LowerError};
pub use parser::{parse_program, CmParseError};
pub use token::{lex, LexError};

use carat_ir::Module;
use std::error::Error;
use std::fmt;

/// Any front-end failure.
#[derive(Debug)]
pub enum CmError {
    /// Parsing failed.
    Parse(CmParseError),
    /// Type checking / lowering failed.
    Lower(LowerError),
}

impl fmt::Display for CmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmError::Parse(e) => write!(f, "{e}"),
            CmError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CmError {}

/// Compile Cm source text to an IR module.
///
/// # Errors
///
/// Returns a [`CmError`] carrying the offending source line.
pub fn compile_cm(name: &str, src: &str) -> Result<Module, CmError> {
    let prog = parse_program(src).map_err(CmError::Parse)?;
    lower_program(name, &prog).map_err(CmError::Lower)
}
