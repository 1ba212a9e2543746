//! The placement-engine seam: every placer, built-in or third-party,
//! implements [`Placer`] and produces a [`PlacerSolution`].
//!
//! The trait is object safe, so flows can hold a `dyn Placer` and swap
//! engines (MVFB vs Monte Carlo vs anything a downstream crate cooks
//! up) without growing one method per engine.

use std::time::Duration;

use qspr_fabric::Time;
use qspr_qasm::Program;
use qspr_sim::{MapError, Mapper, MappingOutcome, Placement, Trace};

/// Whether a winning pass executed the QIDG (forward) or the uncompute
/// UIDG (backward). Single-direction placers always report `Forward`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassDirection {
    /// The pass mapped the original program.
    Forward,
    /// The pass mapped the reversed (uncompute) program; the reported
    /// control trace is its time-reversal.
    Backward,
}

impl PassDirection {
    /// Stable lowercase name (`"forward"` / `"backward"`), used in
    /// reports and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            PassDirection::Forward => "forward",
            PassDirection::Backward => "backward",
        }
    }
}

/// The result of a placement search, common to every [`Placer`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerSolution {
    /// Best execution latency found.
    pub latency: Time,
    /// Direction of the winning pass.
    pub direction: PassDirection,
    /// The placement the winning pass started from. Re-mapping the
    /// program (or its reverse, per `direction`) from here reproduces
    /// `latency` exactly.
    pub initial_placement: Placement,
    /// Number of placement runs executed (the paper's `m'` for MVFB).
    pub runs: usize,
    /// Wall-clock time spent.
    pub cpu: Duration,
}

impl PlacerSolution {
    /// Re-runs the winning pass with trace recording and returns the
    /// outcome together with a *forward-executing* control trace: the
    /// pass's own trace when it was forward, its reversal when backward
    /// (the paper's "reverse of `T'_k`").
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (none are expected, since the winning
    /// pass already mapped successfully once).
    pub fn replay(
        &self,
        mapper: &Mapper<'_>,
        program: &Program,
    ) -> Result<(MappingOutcome, Trace), MapError> {
        let tracing = mapper.clone().record_trace(true);
        let outcome = match self.direction {
            PassDirection::Forward => tracing.map(program, &self.initial_placement)?,
            PassDirection::Backward => tracing.map(&program.reversed(), &self.initial_placement)?,
        };
        let trace = outcome.trace().expect("trace recording was enabled");
        let forward = match self.direction {
            PassDirection::Forward => trace.clone(),
            PassDirection::Backward => trace.reversed(),
        };
        Ok((outcome, forward))
    }
}

/// A pluggable placement engine.
///
/// Implementations search for an initial placement minimizing the
/// mapped execution latency of `program` under `mapper`'s policy. The
/// trait is object safe; flows store `dyn Placer` so engines are a
/// one-line swap.
///
/// # Examples
///
/// A trivial third-party placer that just proposes the deterministic
/// center placement:
///
/// ```
/// use std::time::Instant;
///
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_place::{PassDirection, Placer, PlacerSolution};
/// use qspr_qasm::Program;
/// use qspr_sim::{FlowPolicy, MapError, Mapper, Placement};
///
/// struct CenterPlacer;
///
/// impl Placer for CenterPlacer {
///     fn name(&self) -> &str {
///         "center"
///     }
///
///     fn place(
///         &self,
///         mapper: &Mapper<'_>,
///         program: &Program,
///     ) -> Result<PlacerSolution, MapError> {
///         let started = Instant::now();
///         let placement = Placement::center(mapper.fabric(), program.num_qubits());
///         let outcome = mapper.map(program, &placement)?;
///         Ok(PlacerSolution {
///             latency: outcome.latency(),
///             direction: PassDirection::Forward,
///             initial_placement: placement,
///             runs: 1,
///             cpu: started.elapsed(),
///         })
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fabric = Fabric::quale_45x85();
/// let tech = TechParams::date2012();
/// let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
/// let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
/// let engine: &dyn Placer = &CenterPlacer;
/// let solution = engine.place(&mapper, &program)?;
/// assert_eq!(solution.runs, 1);
/// # Ok(())
/// # }
/// ```
pub trait Placer {
    /// Short stable engine name for reports (`"mvfb"`, `"monte-carlo"`).
    fn name(&self) -> &str;

    /// Runs the placement search.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MapError`] encountered while evaluating
    /// candidate placements; placers configured to evaluate zero
    /// candidates report a stall.
    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError>;
}

impl<P: Placer + ?Sized> Placer for std::sync::Arc<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        (**self).place(mapper, program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_direction_names_are_stable() {
        assert_eq!(PassDirection::Forward.as_str(), "forward");
        assert_eq!(PassDirection::Backward.as_str(), "backward");
    }

    #[test]
    fn placer_is_object_safe() {
        fn _takes_dyn(_: &dyn Placer) {}
    }
}
