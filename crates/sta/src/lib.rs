//! Static timing analysis (STA) over a mapped execution.
//!
//! The paper's objective (§IV) is a single number — the makespan of the
//! mapped circuit — but a makespan alone cannot say *why* a mapping is
//! slow. This crate reconstructs the timing graph of one executed
//! mapping from the artifacts `qspr-sim` already records:
//!
//! * the [`qspr_qasm::Program`] gives the QIDG dependencies,
//! * the [`qspr_sim::MappingOutcome`] gives per-instruction observed
//!   instants (ready / issued / gate start / finish),
//! * the recorded [`qspr_sim::Trace`] gives the micro-command stream
//!   that attributes routing time to concrete fabric resources.
//!
//! From these, [`TimingAnalysis::analyze`] produces a [`TimingReport`]:
//!
//! * **arrival / required / slack** per instruction — arrival times are
//!   the observed finish instants (a forward sweep happened in the
//!   simulator); required times come from a backward sweep that holds
//!   each successor's observed ready→finish span fixed, so slack is
//!   provably non-negative and zero exactly on paths that pace the
//!   makespan;
//! * the **critical path** as an explicit instruction chain, each step
//!   carrying the move/turn micro-commands that paid for it;
//! * **bottleneck rankings** of channel segments and junctions by time
//!   spent on the critical path and by attributed queuing (congestion)
//!   delay.
//!
//! The report serializes to stable JSON ([`qspr_json::ToJson`], golden
//! tested) and renders as a human-readable text block
//! ([`std::fmt::Display`]). It explains a mapping; it does not change
//! one.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::{Fabric, TechParams};
//! use qspr_qasm::Program;
//! use qspr_sim::{FlowPolicy, Mapper, Placement};
//! use qspr_sta::TimingAnalysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fabric = Fabric::quale_45x85();
//! let tech = TechParams::date2012();
//! let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
//! let placement = Placement::center(&fabric, 2);
//! let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
//!     .record_trace(true)
//!     .map(&program, &placement)?;
//! let report = TimingAnalysis::new(&fabric, tech).analyze(&program, &outcome)?;
//! // The critical path ends exactly at the reported makespan.
//! assert_eq!(report.critical_end(), Some(outcome.latency()));
//! assert!(report.min_slack() == Some(0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod error;
mod report;
mod trace_json;

pub use analysis::TimingAnalysis;
pub use error::StaError;
pub use report::{ChainLink, CriticalStep, InstrTiming, JunctionRank, SegmentRank, TimingReport};
pub use trace_json::trace_to_json;
