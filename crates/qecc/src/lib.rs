//! The paper's six benchmark circuits as committed QASM.
//!
//! The paper evaluates QSPR on six *cyclic QECC encoding circuits*
//! (\[\[5,1,3\]\], \[\[7,1,3\]\], \[\[9,1,3\]\], \[\[14,8,3\]\], \[\[19,1,7\]\], \[\[23,1,7\]\])
//! taken from a now-defunct web page. Their replacements are fixed
//! programs in the paper's gate set (`H`, `C-X`, `C-Y`, `C-Z`, …), committed
//! under `circuits/` and exposed by [`codes`]:
//!
//! * [`codes::ENCODERS`] — the six encoding circuits `qspr encode` prints;
//! * [`codes::benchmark_suite`] — the circuits every experiment maps,
//!   with the paper's own Fig. 3 circuit for \[\[5,1,3\]\].
//!
//! The stabilizer algebra that checks this data (Pauli operators, GF(2)
//! bases, stabilizer codes with exhaustive distance checks and an
//! Aaronson–Gottesman tableau simulator) is test-only: it proves that
//! every committed encoder takes |0…0⟩ into its code space, and nothing
//! at run time needs it.
//!
//! # Examples
//!
//! ```
//! use qspr_qasm::Program;
//! use qspr_qecc::codes::ENCODERS;
//!
//! let (name, distance, text) = ENCODERS[1];
//! assert_eq!((name, distance), ("[[7,1,3]]", 3));
//! assert_eq!(Program::parse(text)?.num_qubits(), 7);
//! # Ok::<(), qspr_qasm::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod codes;

#[cfg(test)]
mod gf2;
#[cfg(test)]
mod pauli;
#[cfg(test)]
mod proptests;
#[cfg(test)]
mod stabilizer;
#[cfg(test)]
mod tableau;
