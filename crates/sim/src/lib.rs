//! Event-driven mapping engine: the dynamic half of QSPR.
//!
//! The paper's mapper (§III–§IV) interleaves scheduling and routing: an
//! instruction's delay (Eq. 1) is `T_gate + T_routing + T_congestion`,
//! and the last two terms only materialize while the mapped circuit is
//! *simulated* on the fabric. This crate provides that simulator:
//!
//! * [`Placement`] — an assignment of program qubits to fabric traps
//!   (center placements, the seeds of every placer, live here too);
//! * [`FlowPolicy`] — QSPR or the paper's QUALE baseline. The one
//!   value fixes the router configuration
//!   ([`FlowPolicy::router_config`]), the movement (both operands to the
//!   cheapest meeting trap vs. the source to the destination's home and
//!   back) and the issue order (priority list or strict ALAP);
//! * [`Mapper`] — the event-driven engine. Ready instructions are issued
//!   in policy order; 2-qubit instructions pick a target trap and route
//!   their operands, booking channel segments and junctions; blocked
//!   instructions wait in a *busy queue* until a resource is released
//!   (the paper's event list: instruction finished, qubit exits a
//!   channel);
//! * [`MappingOutcome`] — total latency, per-instruction timing
//!   breakdown (`T_gate`/`T_routing`/`T_congestion`), final placement
//!   (consumed by the MVFB placer), and an optional micro-command
//!   [`Trace`];
//! * [`validate_trace`] — an independent replay checker enforcing the
//!   physical invariants (no teleports, turns only at junctions, gates
//!   only in traps with ≤ 2 co-located qubits, channel/junction capacity
//!   never exceeded) and that every instruction starts and ends once.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::{Fabric, TechParams};
//! use qspr_qasm::Program;
//! use qspr_sim::{FlowPolicy, Mapper, Placement};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fabric = Fabric::quale_45x85();
//! let tech = TechParams::date2012();
//! let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
//! let placement = Placement::center(&fabric, program.num_qubits());
//!
//! let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
//! let outcome = mapper.map(&program, &placement)?;
//! assert!(outcome.latency() >= 110); // at least the gate delays
//! # Ok(())
//! # }
//! ```
//!
//! # Design notes: the event-driven epoch loop
//!
//! The simulator advances a single clock over an event queue keyed on
//! integer time: a ring of 256 one-µs slots, each a FIFO list, plus an
//! overflow list for events further ahead. Events pop by time, and in
//! schedule order within a time; the clock jumps from one pending time
//! to the next, so nothing is time-stepped. One iteration of the main
//! loop is an **epoch**:
//!
//! 1. **Issue phase.** All instructions whose QIDG predecessors have
//!    finished are considered in policy order (the `qspr-sched`
//!    priority list for QSPR, ALAP order for QUALE). A 1-qubit
//!    instruction starts its gate in place; a 2-qubit instruction picks
//!    its meeting trap (QSPR: the cheapest of the median trap and the
//!    operands' own traps; QUALE: the destination's home) and submits its operand legs to the routing engine.
//!    Instructions that cannot route or find no free seat join the
//!    **busy queue**.
//! 2. **Batch routing.** The epoch's movers go to the configured
//!    `qspr_route::RoutingEngine` *as one batch*. The greedy engine
//!    answers immediately, first-come-first-served; the negotiated
//!    engine may rip up and re-route the whole set. To allow that,
//!    the simulator *defers* each leg's finalization — events, per-leg
//!    stats, trace output — until the end of the issue phase
//!    (`finalize_epoch`), when the engine's plans are final. A later
//!    mover that comes back blocked can trigger a joint renegotiation
//!    of the epoch's still-uncommitted legs.
//! 3. **Events.** The clock jumps to the earliest pending time and
//!    every event at that time fires, in schedule order, including
//!    events scheduled at that same time while they fire. The paper's
//!    two event kinds drive everything: *instruction finished* (its
//!    QIDG successors may now be ready, its trap seats free up) and
//!    *qubit exits a channel* (booked segments and junctions release,
//!    so busy-queue entries get retried). Then one issue phase runs.
//!    The loop ends when the event queue is empty, and stalls (a
//!    non-empty busy queue that no event can unblock) surface as
//!    [`MapError::Stalled`] rather than hanging.
//!
//! Instruction delay follows the paper's Eq. 1,
//! `T_gate + T_routing + T_congestion`: the gate term comes from the
//! QIDG, the routing term from the committed [`qspr_route::RoutePlan`],
//! and the congestion term is *measured* — the time an instruction
//! spent parked in the busy queue — which is what
//! [`MappingOutcome::totals`] reports as `congestion_wait`.
//!
//! ```
//! use qspr_fabric::{Fabric, TechParams};
//! use qspr_qasm::Program;
//! use qspr_sim::{FlowPolicy, Mapper, Placement, RouterKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fabric = Fabric::quale_45x85();
//! let tech = TechParams::date2012();
//! let program = Program::parse(
//!     "QUBIT a\nQUBIT b\nQUBIT c\nH a\nC-X a,b\nC-Z b,c\nC-Y c,a\n",
//! )?;
//! let placement = Placement::center(&fabric, program.num_qubits());
//!
//! // The same epoch loop drives both engines; runs are deterministic.
//! let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
//! let greedy = mapper.clone().map(&program, &placement)?;
//! let negotiated = mapper
//!     .clone()
//!     .router(RouterKind::Negotiated)
//!     .map(&program, &placement)?;
//! assert_eq!(greedy.latency(), mapper.map(&program, &placement)?.latency());
//! // Epochs are counted per issue phase that routed at least one leg.
//! assert!(greedy.routing_stats().epochs > 0);
//! assert!(negotiated.routing_stats().epochs > 0);
//! // Eq. 1 decomposition per instruction: ready ≤ issued ≤ gate ≤ done.
//! assert!(greedy
//!     .instr_stats()
//!     .iter()
//!     .all(|s| s.ready_at <= s.issued_at
//!         && s.issued_at <= s.gate_start
//!         && s.gate_start < s.finish));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod engine;
mod error;
mod outcome;
mod placement;
mod policy;
// Test-only: keeps `proptest` a dev-dependency and the module out of
// release builds entirely.
#[cfg(test)]
mod proptests;
mod queue;
mod stress;
mod trace;
mod validate;

pub use engine::{Mapper, PreparedProgram};
pub use error::{MapError, TraceError};
// The routing-engine seam, re-exported so mapper callers can select
// engines without a direct `qspr_route` dependency.
pub use outcome::{InstrStats, MappingOutcome, Totals};
pub use placement::Placement;
pub use policy::{FlowPolicy, ParseFlowPolicyError};
pub use qspr_route::{RouterFactory, RouterKind, RoutingEngine, RoutingStats};
pub use trace::{MicroCommand, Trace, TraceEntry};
pub use validate::validate_trace;
