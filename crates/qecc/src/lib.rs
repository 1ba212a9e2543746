//! Stabilizer quantum error-correction substrate for the QSPR benchmarks.
//!
//! The paper evaluates QSPR on six *cyclic QECC encoding circuits*
//! (\[\[5,1,3\]\], \[\[7,1,3\]\], \[\[9,1,3\]\], \[\[14,8,3\]\], \[\[19,1,7\]\], \[\[23,1,7\]\])
//! taken from a now-defunct web page. This crate rebuilds that benchmark
//! set from first principles:
//!
//! * [`Pauli`] / [`PhasedPauli`] — n-qubit Pauli algebra (n ≤ 64) with
//!   symplectic commutation and phase-tracked multiplication;
//! * [`BitBasis`] — GF(2) linear algebra over symplectic bit-vectors;
//! * [`StabilizerCode`] — commuting/independence validation, logical
//!   operator extraction (symplectic Gram–Schmidt), and exhaustive
//!   distance verification;
//! * [`encoder`] — Gottesman/Cleve standard-form encoding-circuit
//!   synthesis emitting [`qspr_qasm::Program`]s in the paper's gate set
//!   (`H`, `C-X`, `C-Y`, `C-Z`, …);
//! * [`StabilizerSim`] — an Aaronson–Gottesman tableau simulator used to
//!   *prove* each synthesized encoder maps |0…0⟩⊗|ψ⟩ into the code space;
//! * [`codes`] — the six named benchmark codes and
//!   [`codes::benchmark_suite`], the circuits every experiment consumes.
//!
//! # Examples
//!
//! ```
//! use qspr_qecc::codes;
//!
//! let five = codes::five_one_three();
//! assert_eq!((five.num_qubits(), five.num_logical()), (5, 1));
//! let circuit = qspr_qecc::encoder::encoding_circuit(&five).unwrap();
//! assert_eq!(circuit.num_qubits(), 5);
//! ```

#![forbid(unsafe_code)]

pub mod codes;
pub mod encoder;

mod gf2;
mod pauli;
// Test-only: keeps `proptest` a dev-dependency and the module out of
// release builds entirely (the file's inner `#![cfg(test)]` alone would
// still parse it into non-test builds).
#[cfg(test)]
mod proptests;
mod stabilizer;
mod tableau;

pub use gf2::BitBasis;
pub use pauli::{Pauli, PauliKind, PhasedPauli};
pub use stabilizer::{CodeError, StabilizerCode};
pub use tableau::{StabilizerSim, UnsupportedGate};
