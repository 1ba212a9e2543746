//! Observability substrate for the QSPR stack: hierarchical span
//! tracing, a metrics registry with Prometheus text exposition, and
//! golden-tested profile reports.
//!
//! The crate is dependency-free (only `qspr-json` for serialization)
//! and designed around one invariant: **instrumentation left in place
//! costs almost nothing when nobody is listening**. [`span()`] is a
//! single relaxed atomic load on the disabled path, so pipeline
//! crates (`qspr-fabric`, `qspr-qasm`, `qspr-sched`, `qspr-place`,
//! `qspr-sim`, `qspr-sta`) instrument unconditionally; hot inner loops
//! additionally cache [`enabled`] in a local bool.
//!
//! Two consumers exist today:
//!
//! * `qspr map --profile` installs a thread-local [`Collector`] and
//!   renders a [`ProfileReport`] (phase table + span tree + epoch
//!   counts);
//! * `qspr serve` installs a global [`MetricsSpanSink`] folding span
//!   durations into a [`Registry`] served at `GET /metrics`.
//!
//! ```
//! use std::sync::Arc;
//! use qspr_obs::{span, install_thread, Collector};
//!
//! let collector = Arc::new(Collector::new());
//! let guard = install_thread(collector.clone());
//! {
//!     let _phase = span("parse");
//!     let _inner = span("tokenize");
//! }
//! drop(guard);
//! let roots = collector.snapshot();
//! assert_eq!(roots[0].name, "parse");
//! assert_eq!(roots[0].children[0].name, "tokenize");
//! ```

#![forbid(unsafe_code)]

mod metrics;
mod profile;
mod span;

pub use metrics::{Counter, Gauge, Histogram, MetricsSpanSink, Registry, QUANTILES};
pub use profile::{EpochCounts, ProfilePhase, ProfileReport};
pub use span::{
    enabled, install_global, install_thread, span, uninstall_global, Collector, Relay, SpanGuard,
    SpanNode, SpanSink, ThreadSinkGuard,
};
