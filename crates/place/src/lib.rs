//! Qubit placers for the QSPR mapper (paper §IV.A).
//!
//! Placement decides which fabric trap each program qubit initially
//! occupies; it dominates the routing and congestion costs of the mapped
//! circuit. Three strategies are provided:
//!
//! * **center placement** — QUALE's heuristic: qubits go to the traps
//!   nearest the fabric center ([`qspr_sim::Placement::center`]);
//! * **Monte Carlo** ([`MonteCarloPlacer`]) — the paper's comparison
//!   baseline: try many random permutations of the center traps, keep the
//!   best;
//! * **MVFB** ([`MvfbPlacer`]) — the paper's contribution, *Multi-start
//!   Variable-length Forward/Backward*: quantum circuits are reversible,
//!   so a forward execution of the QIDG from placement `P` yields a
//!   placement `P'` from which the *uncompute* program (UIDG) can be
//!   executed backwards, yielding `P''`, and so on. Each pass is a
//!   *placement run*; a seed's local search stops after three
//!   consecutive non-improving runs, and the best pass over all `m`
//!   random seeds wins. If the best pass was backward,
//!   the reported control trace is its reversal (§IV.A).
//!
//! The multi-start placers run their seeds (Monte Carlo: their draws)
//! on the mapper's [`job_count`](qspr_sim::Mapper::job_count) threads.
//! Per-seed inputs are drawn up front and results are folded in seed
//! order, so solutions are byte-identical at any thread count.
//!
//! Every engine implements the object-safe [`Placer`] trait and returns
//! the engine-agnostic [`PlacerSolution`], so flows can hold a
//! `dyn Placer` and third-party crates can plug in their own engines —
//! see the trait docs for a worked example.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::{Fabric, TechParams};
//! use qspr_qasm::Program;
//! use qspr_place::{MvfbConfig, MvfbPlacer, Placer};
//! use qspr_sim::{FlowPolicy, Mapper};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fabric = Fabric::quale_45x85();
//! let tech = TechParams::date2012();
//! let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
//! let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
//!
//! let placer = MvfbPlacer::new(MvfbConfig::new(2, 7));
//! let solution = placer.place(&mapper, &program)?;
//! assert!(solution.latency > 0);
//! assert!(solution.runs >= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod monte_carlo;
mod mvfb;
mod placer;
mod seeds;

pub use monte_carlo::MonteCarloPlacer;
pub use mvfb::{MvfbConfig, MvfbPlacer, MvfbSolution};
pub use placer::{PassDirection, Placer, PlacerSolution};
