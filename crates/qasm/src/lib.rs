//! QASM parsing and representation for the QSPR ion-trap mapper.
//!
//! The DATE 2012 QSPR paper consumes circuits written in the MIT-style
//! Quantum Assembly Language (QASM) of its Fig. 3:
//!
//! ```text
//! QUBIT  q0,0
//! QUBIT  q3
//! H      q0
//! C-X    q3,q2
//! C-Z    q4,q2
//! ```
//!
//! This crate provides the [`Program`] container, the [`Gate`] set (a
//! superset of the gates appearing in the paper's benchmarks), a
//! line-oriented parser ([`Program::parse`]) and a writer
//! ([`Program::to_qasm`]) that round-trips the paper's syntax, plus the
//! *uncompute* transformation ([`Program::reversed`]) that the MVFB placer
//! relies on.
//!
//! # Examples
//!
//! ```
//! use qspr_qasm::{Gate, Program};
//!
//! # fn main() -> Result<(), qspr_qasm::ParseError> {
//! let program = Program::parse(
//!     "QUBIT q0,0\nQUBIT q1\nH q0\nC-X q0,q1\n",
//! )?;
//! assert_eq!(program.num_qubits(), 2);
//! assert_eq!(program.instructions().len(), 2);
//! assert_eq!(program.instructions()[1].gate, Gate::CX);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod ast;
mod error;
mod gate;
mod generate;
mod parser;
mod writer;

pub use ast::{Instruction, Operands, Program, QubitDecl, QubitId};
pub use error::{ParseError, ParseErrorKind};
pub use gate::{Gate, GateArity};
pub use generate::{random_program, RandomProgramConfig};
