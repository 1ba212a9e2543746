//! Quantum instruction dependency graph (QIDG) and scheduling analyses.
//!
//! The QSPR paper (§III) schedules QASM instructions under
//! Minimum-Latency Resource-Constrained (MLRC) semantics, where the
//! resource constraints are the fabric's channel and junction capacities.
//! The *static* side of that problem lives here:
//!
//! * [`Qidg`] — the dependency DAG extracted from a
//!   [`qspr_qasm::Program`] (one node per instruction, one edge per
//!   qubit-carried dependency);
//! * [`Schedule`] — resource-free ASAP and ALAP schedules
//!   ([`Qidg::asap`], [`Qidg::alap`]); the ASAP makespan is the paper's
//!   *ideal baseline* latency (`T_routing = T_congestion = 0`);
//! * [`Qidg::priorities`] — the paper's list-scheduling priority: how
//!   many operations transitively depend on an instruction plus the
//!   longest delay path from it to the end of the QIDG.
//!
//! The *dynamic* side — interleaved scheduling and routing on a concrete
//! fabric — lives in `qspr-sim`, which consumes the priorities computed
//! here. The *uncompute* graph (UIDG) used by the MVFB placer is simply
//! `Qidg::new(&program.reversed(), tech)`.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::TechParams;
//! use qspr_qasm::Program;
//! use qspr_sched::Qidg;
//!
//! # fn main() -> Result<(), qspr_qasm::ParseError> {
//! let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\nH b\n")?;
//! let qidg = Qidg::new(&program, &TechParams::date2012());
//! // H(a) -> CX(a,b) -> H(b): a pure chain.
//! assert_eq!(qidg.critical_path_delay(), 10 + 100 + 10);
//! # Ok(())
//! # }
//! ```
//!
//! # Design notes
//!
//! **QIDG construction is a single forward scan.** For each qubit the
//! builder remembers the last instruction that touched it; the next
//! instruction on that qubit adds one edge from the remembered node.
//! This yields exactly the qubit-carried (RAW) dependencies — never a
//! transitive duplicate of them — and since every edge points from a
//! lower to a higher instruction index, **program order is already a
//! topological order**: every analysis below is one array sweep in
//! instruction order (forward) or reverse order (backward), no
//! worklists, no cycle checks.
//!
//! **Schedules are the two boundary sweeps.** [`Qidg::asap`] pushes
//! each node as early as its predecessors allow (forward sweep);
//! [`Qidg::alap`] pulls it as late as its successors allow (backward
//! sweep against the ASAP makespan). Both are *resource-free*: they
//! assume infinite channels, which is precisely the paper's ideal
//! baseline — [`Qidg::critical_path_delay`] (= the ASAP makespan) is
//! the `T_routing = T_congestion = 0` lower bound that Table 2 reports
//! against, and the ALAP order doubles as the QUALE baseline's issue
//! order in `qspr-sim`.
//!
//! **The priority scheme is one backward sweep with two accumulators**
//! (the paper's §III list-scheduling key, [`Qidg::priorities`]): for
//! each node, (a) how many instructions transitively depend on it and
//! (b) the longest gate-delay path from it to the QIDG's end.
//! `priority = dependents + path_delay`, the §III linear combination
//! with unit weights, an exact integer. Ties fall back to instruction
//! order, which keeps the dynamic scheduler deterministic.
//!
//! ```
//! use qspr_fabric::TechParams;
//! use qspr_qasm::Program;
//! use qspr_sched::Qidg;
//!
//! # fn main() -> Result<(), qspr_qasm::ParseError> {
//! // A chain: every instruction unlocks everything after it, so both
//! // priority terms — and their combination — strictly decrease.
//! let chain = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\nH b\n")?;
//! let qidg = Qidg::new(&chain, &TechParams::date2012());
//! let priorities = qidg.priorities();
//! assert!(priorities[0] > priorities[1] && priorities[1] > priorities[2]);
//!
//! // The ALAP start of the chain's head equals its slack-free ASAP
//! // start: on a critical path the two schedules agree.
//! assert_eq!(qidg.asap().makespan(), qidg.alap().makespan());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod qidg;
mod schedule;

pub use qidg::{gate_delay, InstrId, Qidg};
pub use schedule::Schedule;
