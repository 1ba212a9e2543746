//! The MVFB placer: Multi-start Variable-length Forward/Backward
//! (paper §IV.A).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qspr_fabric::Time;
use qspr_qasm::Program;
use qspr_sim::{MapError, Mapper, Placement, PreparedProgram};

use crate::placer::{PassDirection, Placer, PlacerSolution};
use crate::seeds::run_indexed;

/// A seed's local search stops after this many consecutive
/// non-improving placement runs. The paper gives no value; 3 is this
/// implementation's stopping rule, under which `m'` comes out 1.7–2.7×
/// the paper's Table 1 counts (ROADMAP item 2).
const PATIENCE: usize = 3;

/// Hard safety cap on passes per seed.
const MAX_PASSES_PER_SEED: usize = 64;

/// MVFB tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvfbConfig {
    /// Number of random center-placement seeds (the paper's `m`).
    pub seeds: usize,
    /// RNG seed making the whole search reproducible.
    pub rng_seed: u64,
}

impl MvfbConfig {
    /// A config with `seeds` starts drawn from `rng_seed`.
    pub fn new(seeds: usize, rng_seed: u64) -> MvfbConfig {
        MvfbConfig { seeds, rng_seed }
    }
}

/// The result of an MVFB search.
///
/// Historical alias: MVFB now returns the engine-agnostic
/// [`PlacerSolution`] shared by every [`Placer`]; its `runs` field is
/// the paper's `m'` — the budget handed to the Monte Carlo placer for
/// the equal-effort comparison of Table 1.
pub type MvfbSolution = PlacerSolution;

/// The winning pass of a search: its latency, direction and starting
/// placement.
type Pass = (Time, PassDirection, Placement);

/// The Multi-start Variable-length Forward/Backward placer.
///
/// For each of `m` random center placements, alternate forward passes of
/// the program and backward passes of its uncompute, feeding each pass's
/// final placement to the next, until three consecutive passes fail to
/// improve the seed's best. The globally best pass wins.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvfbPlacer {
    config: MvfbConfig,
}

impl MvfbPlacer {
    /// Creates the placer.
    pub fn new(config: MvfbConfig) -> MvfbPlacer {
        MvfbPlacer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MvfbConfig {
        &self.config
    }

    /// One seed's forward/backward local search from a random center
    /// placement of `num_qubits` qubits drawn with `seed`, alternating
    /// the prepared program and its reversal. Returns the
    /// seed's best pass (the first of equal latencies) and the number of
    /// passes it ran.
    fn search_seed(
        &self,
        mapper: &Mapper<'_>,
        num_qubits: usize,
        [program, reversed]: &[PreparedProgram; 2],
        seed: u64,
    ) -> Result<(Option<Pass>, usize), MapError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut placement = Placement::center_permutation(mapper.fabric(), num_qubits, &mut rng);
        let mut best: Option<Pass> = None;
        let mut runs = 0usize;
        let mut stale = 0usize;
        let mut forward = true;
        for _ in 0..MAX_PASSES_PER_SEED {
            let prog = if forward { program } else { reversed };
            let outcome = mapper.map_prepared(prog, &placement)?;
            runs += 1;
            let latency = outcome.latency();
            if best.as_ref().map_or(true, |(l, _, _)| latency < *l) {
                let direction = if forward {
                    PassDirection::Forward
                } else {
                    PassDirection::Backward
                };
                best = Some((latency, direction, placement.clone()));
                stale = 0;
            } else {
                stale += 1;
                if stale >= PATIENCE {
                    break;
                }
            }
            placement = outcome.final_placement().clone();
            forward = !forward;
        }
        Ok((best, runs))
    }
}

impl Placer for MvfbPlacer {
    fn name(&self) -> &str {
        "mvfb"
    }

    /// Runs the search, one seed per task on the mapper's
    /// [`job_count`](Mapper::job_count) threads.
    ///
    /// The program and its reversal are prepared once
    /// ([`Mapper::prepare`]) and shared by every seed and thread. The
    /// per-seed RNG seeds are drawn up front from the master stream (one
    /// draw per seed, so a seed's stream is independent of how many
    /// passes earlier seeds ran), and the seeds' bests are folded in
    /// seed order, keeping the first of equal latencies. The solution is
    /// therefore the same at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates the [`MapError`] of the first failing seed; reports a
    /// stall when configured with zero seeds.
    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        let _span = qspr_obs::span("place");
        let started = Instant::now();
        let passes = [mapper.prepare(program), mapper.prepare(&program.reversed())];
        let mut rng = StdRng::seed_from_u64(self.config.rng_seed);
        let seeds: Vec<u64> = (0..self.config.seeds).map(|_| rng.gen()).collect();
        let searches = run_indexed(mapper.job_count(), seeds.len(), |i| {
            self.search_seed(mapper, program.num_qubits(), &passes, seeds[i])
        })?;

        let mut best: Option<Pass> = None;
        let mut total_runs = 0usize;
        for (seed_best, runs) in searches {
            total_runs += runs;
            if let Some(pass) = seed_best {
                if best.as_ref().map_or(true, |(l, _, _)| pass.0 < *l) {
                    best = Some(pass);
                }
            }
        }

        let (latency, direction, initial_placement) = best.ok_or(MapError::Stalled {
            remaining: program.instructions().len(),
        })?;
        Ok(PlacerSolution {
            latency,
            direction,
            initial_placement,
            runs: total_runs,
            cpu: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_fabric::{Fabric, TechParams};
    use qspr_sim::{validate_trace, FlowPolicy};

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

    fn setup() -> (Fabric, TechParams, Program) {
        (
            Fabric::quale_45x85(),
            TechParams::date2012(),
            Program::parse(FIG3).unwrap(),
        )
    }

    #[test]
    fn finds_a_solution_and_counts_runs() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let sol = MvfbPlacer::new(MvfbConfig::new(2, 5))
            .place(&mapper, &program)
            .unwrap();
        // Each seed performs at least PATIENCE + 1 = 4 passes before giving
        // up (the first pass always "improves" from Time::MAX).
        assert!(sol.runs >= 2 * 4, "got {} runs", sol.runs);
        assert!(sol.latency > 0);
    }

    #[test]
    fn solution_reproduces_latency() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let sol = MvfbPlacer::new(MvfbConfig::new(2, 5))
            .place(&mapper, &program)
            .unwrap();
        let prog = match sol.direction {
            PassDirection::Forward => program.clone(),
            PassDirection::Backward => program.reversed(),
        };
        let outcome = mapper.map(&prog, &sol.initial_placement).unwrap();
        assert_eq!(outcome.latency(), sol.latency);
    }

    #[test]
    fn replay_returns_a_valid_forward_trace() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let sol = MvfbPlacer::new(MvfbConfig::new(2, 5))
            .place(&mapper, &program)
            .unwrap();
        let (outcome, forward_trace) = sol.replay(&mapper, &program).unwrap();
        assert_eq!(outcome.latency(), sol.latency);
        assert_eq!(forward_trace.len(), outcome.trace().unwrap().len());
        if sol.direction == PassDirection::Forward {
            // A forward-pass trace must replay cleanly against the program.
            validate_trace(
                &fabric,
                &program,
                &sol.initial_placement,
                &forward_trace,
                &tech,
            )
            .unwrap();
        }
    }

    #[test]
    fn is_deterministic() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let placer = MvfbPlacer::new(MvfbConfig::new(2, 9));
        let a = placer.place(&mapper, &program).unwrap();
        let b = placer.place(&mapper, &program).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.initial_placement, b.initial_placement);
    }

    #[test]
    fn more_seeds_never_hurt() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let few = MvfbPlacer::new(MvfbConfig::new(1, 5))
            .place(&mapper, &program)
            .unwrap();
        let many = MvfbPlacer::new(MvfbConfig::new(4, 5))
            .place(&mapper, &program)
            .unwrap();
        // Not guaranteed in general (different RNG draws), but with the
        // shared prefix stream the first seed coincides.
        assert!(many.latency <= few.latency);
        assert!(many.runs > few.runs);
    }

    #[test]
    fn thread_count_never_changes_the_solution() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let placer = MvfbPlacer::new(MvfbConfig::new(6, 11));
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
    fn zero_seeds_is_an_error() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        assert!(MvfbPlacer::new(MvfbConfig::new(0, 1))
            .place(&mapper, &program)
            .is_err());
    }

    #[test]
    fn beats_or_matches_plain_center_placement() {
        let (fabric, tech, program) = setup();
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let center = mapper
            .map(&program, &Placement::center(&fabric, 5))
            .unwrap()
            .latency();
        let sol = MvfbPlacer::new(MvfbConfig::new(3, 2))
            .place(&mapper, &program)
            .unwrap();
        // MVFB explores many placements; it should not lose to the single
        // deterministic center placement by much. (It searches random
        // permutations, so allow equality either way.)
        assert!(sol.latency <= center + center / 2);
    }
}
