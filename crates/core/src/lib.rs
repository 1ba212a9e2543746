//! QSPR — Quantum mapper based on Scheduling, Placement and Routing.
//!
//! Top-level reproduction of the DATE 2012 paper *"Minimizing the Latency
//! of Quantum Circuits during Mapping to the Ion-Trap Circuit Fabric"*
//! (Dousti & Pedram). This crate ties the substrates together into the
//! tool the paper evaluates:
//!
//! * [`Flow`] — the full flow as one owned, composable value: QASM
//!   program → QIDG scheduling → placement (through any
//!   [`qspr_place::Placer`] engine; MVFB by default) → turn-aware
//!   congestion-weighted routing → event-driven simulation → latency,
//!   stats and a micro-command trace. A `Flow` owns its fabric behind
//!   an `Arc`, so it is `Send + 'static` — ready for thread pools and
//!   services;
//! * [`FlowPolicy`] — QSPR or the paper's **QUALE** baseline, selected
//!   with one builder call; the **ideal** lower bound
//!   (`T_routing = T_congestion = 0`) is [`Flow::ideal_latency`];
//! * [`RouterKind`] — the batch-routing engine behind the mapper:
//!   `Greedy` (sequential first-answer routing) or `Negotiated`
//!   (PathFinder-style rip-up-and-reroute), selected with
//!   [`Flow::router`]; per-run congestion stats land in
//!   [`FlowSummary`];
//! * [`QsprError`] — the workspace-wide error enum wrapping parse,
//!   fabric, mapping, timing-analysis and I/O failures, plus the
//!   circuit a suite run failed on;
//! * [`ComparisonRow`] / [`PlacerComparisonRow`] — the rows of the
//!   paper's Table 2 and Table 1; the Table 2 row is JSON-serializable
//!   via [`json::ToJson`] like every other report type, and the Table 1
//!   row (which carries placement wall time) is formatted by the `qspr
//!   table1` command;
//! * [`service`] — the `qspr serve` subsystem: a resident HTTP/1.1 JSON
//!   mapping service with one thread per connection, a permit gate
//!   for the heavy endpoints, a seed-deterministic
//!   LRU result cache keyed by [`Flow::fingerprint`], and a
//!   Prometheus-format `GET /metrics` endpoint;
//! * [`obs`] — the observability substrate (`qspr-obs`): hierarchical
//!   span tracing over the whole pipeline (near-zero cost when idle),
//!   counters/gauges/latency histograms, and the golden-tested
//!   [`obs::ProfileReport`] behind `qspr map --profile`;
//! * [`sta`] — static timing analysis over a recorded trace:
//!   [`Flow::timing_report`] reconstructs per-instruction slack, the
//!   critical path and resource bottlenecks.
//!
//! For the end-to-end dataflow and the paper-to-code map, see
//! `docs/ARCHITECTURE.md` at the repository root.
//!
//! # Examples
//!
//! ```
//! use qspr::Flow;
//! use qspr_fabric::Fabric;
//! use qspr_qasm::Program;
//!
//! # fn main() -> Result<(), qspr::QsprError> {
//! let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
//! let flow = Flow::on(Fabric::quale_45x85()).seeds(4);
//!
//! let result = flow.run(&program)?;
//! assert!(result.latency >= flow.ideal_latency(&program));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;
mod flow;
pub mod json;
mod report;
pub mod service;

pub use error::QsprError;
pub use flow::{Flow, FlowResult, FlowSummary};
pub use json::ToJson;
pub use report::{ComparisonRow, PlacerComparisonRow};
// The routing-engine seam, re-exported for `Flow::router` callers.
pub use qspr_route::{RouterFactory, RouterKind, RoutingEngine, RoutingStats};
// The policy, re-exported for `Flow::policy` callers.
pub use qspr_sim::FlowPolicy;

// Re-export the layered API so downstream users need only one dependency.
pub use qspr_fabric as fabric;
pub use qspr_obs as obs;
pub use qspr_place as place;
pub use qspr_qasm as qasm;
pub use qspr_qecc as qecc;
pub use qspr_route as route;
pub use qspr_sched as sched;
pub use qspr_sim as sim;
pub use qspr_sta as sta;
