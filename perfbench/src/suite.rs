//! Benchmark set-up (the paper's six Table 1 circuits on the 45×85
//! fabric) and the mapping oracles every workload shares.

use std::sync::Arc;
use std::time::Instant;

use qspr::fabric::{Fabric, Time};
use qspr::place::PassDirection;
use qspr::qasm::Program;
use qspr::qecc::codes::benchmark_suite;
use qspr::sim::validate_trace;
use qspr::{Flow, FlowPolicy, FlowResult, RouterKind};

/// The MVFB RNG seed `qspr map` uses; the map workloads at this seed
/// reproduce the CLI's numbers exactly.
pub const DEFAULT_SEED: u64 = 0xD57E_2012;

/// Per-circuit QSPR latencies (µs) of `qspr batch --suite --m 25` at
/// [`DEFAULT_SEED`], in suite order, for each router. Any mapping
/// change shows up here before it shows up anywhere else.
const GOLDEN_GREEDY: [Time; 6] = [628, 522, 752, 4106, 4326, 2494];
const GOLDEN_NEGOTIATED: [Time; 6] = [628, 522, 752, 4104, 4262, 2542];

/// The paper's MVFB seed count for Table 1 (`m`).
pub const SEEDS: usize = 25;

/// One suite circuit as a user would hand it to the mapper: QASM text
/// and its parsed program.
pub struct Circuit {
    pub name: String,
    pub text: String,
    pub program: Program,
}

/// The fabric and the six circuits.
pub struct Suite {
    pub fabric: Arc<Fabric>,
    pub circuits: Vec<Circuit>,
}

/// Wall time of each set-up layer, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Encoder synthesis of the six codes (`qecc`).
    pub qecc_ms: f64,
    /// `Program::parse` of the six QASM texts (`qasm`).
    pub qasm_ms: f64,
    /// `Fabric::quale_45x85` (`fabric`).
    pub fabric_ms: f64,
}

impl Suite {
    /// Generates the suite, renders and re-parses every circuit, and
    /// builds the fabric, timing each layer.
    ///
    /// # Errors
    ///
    /// A circuit whose QASM does not parse back to the same program.
    pub fn build() -> Result<(Suite, SetupTimes), String> {
        let t = Instant::now();
        let generated = benchmark_suite();
        let qecc_ms = ms(t);

        let texts: Vec<(String, String)> = generated
            .iter()
            .map(|b| (b.name.clone(), b.program.to_qasm()))
            .collect();
        let t = Instant::now();
        let parsed: Vec<Result<Program, String>> = texts
            .iter()
            .map(|(_, text)| Program::parse(text).map_err(|e| e.to_string()))
            .collect();
        let qasm_ms = ms(t);

        let t = Instant::now();
        let fabric = Arc::new(Fabric::quale_45x85());
        let fabric_ms = ms(t);

        let mut circuits = Vec::with_capacity(texts.len());
        for ((name, text), (program, generated)) in
            texts.into_iter().zip(parsed.into_iter().zip(&generated))
        {
            let program = program.map_err(|e| format!("{name}: {e}"))?;
            if program != generated.program {
                return Err(format!("{name}: QASM round trip changed the program"));
            }
            circuits.push(Circuit {
                name,
                text,
                program,
            });
        }
        Ok((
            Suite { fabric, circuits },
            SetupTimes {
                qecc_ms,
                qasm_ms,
                fabric_ms,
            },
        ))
    }
}

/// The latency bounds every QSPR result must sit between, per circuit:
/// the ideal (QIDG critical path) and the QUALE baseline.
pub struct Bounds {
    ideal: Vec<Time>,
    quale: Vec<Time>,
}

impl Bounds {
    /// Maps every circuit under the QUALE policy with `flow`'s router.
    ///
    /// # Errors
    ///
    /// A baseline mapping failure.
    pub fn new(suite: &Suite, flow: &Flow) -> Result<Bounds, String> {
        let quale_flow = flow.clone().policy(FlowPolicy::Quale);
        let mut bounds = Bounds {
            ideal: Vec::new(),
            quale: Vec::new(),
        };
        for circuit in &suite.circuits {
            bounds.ideal.push(flow.ideal_latency(&circuit.program));
            let quale = quale_flow
                .run(&circuit.program)
                .map_err(|e| format!("{}: QUALE run failed: {e}", circuit.name))?;
            bounds.quale.push(quale.latency);
        }
        Ok(bounds)
    }

    /// `ideal ≤ QSPR ≤ QUALE` for each result (suite order).
    pub fn check(&self, suite: &Suite, results: &[FlowResult]) -> Vec<String> {
        let mut errors = Vec::new();
        for (i, (circuit, result)) in suite.circuits.iter().zip(results).enumerate() {
            if !(self.ideal[i] <= result.latency && result.latency <= self.quale[i]) {
                errors.push(format!(
                    "{}: ideal {} <= QSPR {} <= QUALE {} violated",
                    circuit.name, self.ideal[i], result.latency, self.quale[i]
                ));
            }
        }
        errors
    }
}

/// At [`DEFAULT_SEED`], the suite's latencies (suite order) must equal
/// the CLI's golden values for `router`.
pub fn check_golden(router: RouterKind, results: &[FlowResult]) -> Option<String> {
    let golden = match router {
        RouterKind::Negotiated => &GOLDEN_NEGOTIATED,
        _ => &GOLDEN_GREEDY,
    };
    let got: Vec<Time> = results.iter().map(|r| r.latency).collect();
    (got != golden)
        .then(|| format!("latencies {got:?} differ from the CLI's {golden:?} at the default seed"))
}

/// Re-runs `circuit` with trace recording: the re-run must keep
/// `latency`, and the winning pass's own trace must validate against
/// the program that pass executed.
pub fn check_trace(flow: &Flow, circuit: &Circuit, latency: Time) -> Option<String> {
    let replayed = match flow.clone().record_trace(true).run(&circuit.program) {
        Ok(r) => r,
        Err(e) => return Some(format!("{}: traced re-run failed: {e}", circuit.name)),
    };
    if replayed.latency != latency {
        return Some(format!(
            "{}: traced re-run changed the latency",
            circuit.name
        ));
    }
    let executed = match replayed.direction {
        PassDirection::Forward => circuit.program.clone(),
        PassDirection::Backward => circuit.program.reversed(),
    };
    let Some(trace) = replayed.outcome.trace() else {
        return Some(format!("{}: no trace recorded", circuit.name));
    };
    validate_trace(
        flow.fabric(),
        &executed,
        &replayed.initial_placement,
        trace,
        flow.tech_params(),
    )
    .err()
    .map(|e| format!("{}: invalid trace: {e}", circuit.name))
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
