//! The Monte Carlo placer (paper §V.A): best of N random center
//! permutations.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qspr_fabric::Time;
use qspr_qasm::Program;
use qspr_sim::{MapError, Mapper, Placement};

use crate::placer::{PassDirection, Placer, PlacerSolution};
use crate::seeds::run_indexed;

/// The paper's Monte Carlo baseline placer: `runs` random permutations of
/// the center traps are mapped; the cheapest wins.
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_place::{MonteCarloPlacer, Placer};
/// use qspr_qasm::Program;
/// use qspr_sim::{FlowPolicy, Mapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fabric = Fabric::quale_45x85();
/// let tech = TechParams::date2012();
/// let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
/// let program = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\n")?;
/// let best = MonteCarloPlacer::new(5, 42).place(&mapper, &program)?;
/// assert_eq!(best.runs, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloPlacer {
    runs: usize,
    rng_seed: u64,
}

impl MonteCarloPlacer {
    /// A placer that evaluates `runs` random center permutations, drawn
    /// deterministically from `rng_seed`.
    pub fn new(runs: usize, rng_seed: u64) -> MonteCarloPlacer {
        MonteCarloPlacer { runs, rng_seed }
    }

    /// Number of placement runs this placer will execute.
    pub fn runs(&self) -> usize {
        self.runs
    }
}

impl Placer for MonteCarloPlacer {
    fn name(&self) -> &str {
        "monte-carlo"
    }

    /// Runs the search: the permutations are drawn in sequence from
    /// the RNG stream, mapped on the mapper's
    /// [`job_count`](Mapper::job_count) threads with one program
    /// prepared once ([`Mapper::prepare`]), and folded in draw
    /// order, keeping the first of equal latencies. The solution is
    /// therefore the same at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates the [`MapError`] of the first failing draw (e.g. a
    /// stalled mapping on a degenerate fabric). `runs == 0` is reported
    /// as a stall, since no placement was ever produced.
    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        let _span = qspr_obs::span("place");
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        let mut placements: Vec<Placement> = (0..self.runs)
            .map(|_| Placement::center_permutation(mapper.fabric(), program.num_qubits(), &mut rng))
            .collect();
        let prepared = mapper.prepare(program);
        let latencies = run_indexed(mapper.job_count(), placements.len(), |i| {
            mapper
                .map_prepared(&prepared, &placements[i])
                .map(|o| o.latency())
        })?;
        let mut best: Option<(Time, usize)> = None;
        for (i, latency) in latencies.into_iter().enumerate() {
            if best.map_or(true, |(l, _)| latency < l) {
                best = Some((latency, i));
            }
        }
        let (latency, winner) = best.ok_or(MapError::Stalled {
            remaining: program.instructions().len(),
        })?;
        Ok(PlacerSolution {
            latency,
            direction: PassDirection::Forward,
            initial_placement: placements.swap_remove(winner),
            runs: self.runs,
            cpu: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_fabric::{Fabric, TechParams};
    use qspr_sim::FlowPolicy;

    const FIG3: &str = "\
QUBIT q0,0
QUBIT q1,0
QUBIT q2,0
QUBIT q3
QUBIT q4,0
H q0
H q1
H q2
H q4
C-X q3,q2
C-Z q4,q2
C-Y q2,q1
C-Y q3,q1
C-X q4,q1
C-Z q2,q0
C-Y q3,q0
C-Z q4,q0
";

    #[test]
    fn more_runs_never_hurt() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let program = Program::parse(FIG3).unwrap();
        let few = MonteCarloPlacer::new(2, 7)
            .place(&mapper, &program)
            .unwrap();
        let many = MonteCarloPlacer::new(8, 7)
            .place(&mapper, &program)
            .unwrap();
        // Same RNG stream: the first 2 permutations are a subset of the 8.
        assert!(many.latency <= few.latency);
        assert_eq!(many.runs, 8);
    }

    #[test]
    fn is_deterministic() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let program = Program::parse(FIG3).unwrap();
        let a = MonteCarloPlacer::new(4, 3)
            .place(&mapper, &program)
            .unwrap();
        let b = MonteCarloPlacer::new(4, 3)
            .place(&mapper, &program)
            .unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.initial_placement, b.initial_placement);
    }

    #[test]
    fn thread_count_never_changes_the_solution() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let program = Program::parse(FIG3).unwrap();
        let placer = MonteCarloPlacer::new(6, 11);
        let expected = placer.place(&mapper, &program).unwrap();
        for jobs in [2, 4] {
            let got = placer.place(&mapper.clone().jobs(jobs), &program).unwrap();
            assert_eq!(got.latency, expected.latency, "jobs={jobs}");
            assert_eq!(got.direction, expected.direction, "jobs={jobs}");
            assert_eq!(
                got.initial_placement, expected.initial_placement,
                "jobs={jobs}"
            );
            assert_eq!(got.runs, expected.runs, "jobs={jobs}");
        }
    }

    #[test]
    fn best_placement_reproduces_latency() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let program = Program::parse(FIG3).unwrap();
        let sol = MonteCarloPlacer::new(4, 11)
            .place(&mapper, &program)
            .unwrap();
        assert_eq!(sol.direction, PassDirection::Forward);
        let outcome = mapper.map(&program, &sol.initial_placement).unwrap();
        assert_eq!(outcome.latency(), sol.latency);
    }

    #[test]
    fn zero_runs_is_an_error() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let program = Program::parse(FIG3).unwrap();
        assert!(MonteCarloPlacer::new(0, 1)
            .place(&mapper, &program)
            .is_err());
    }
}
