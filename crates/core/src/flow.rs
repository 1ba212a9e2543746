//! The owned, composable QSPR flow — the service-grade front door of
//! the crate.
//!
//! [`Flow`] owns its fabric behind an [`Arc`], so it is `Send +
//! 'static`: it can be cloned into worker threads, stored in a service
//! state, or moved into async tasks without lifetime plumbing. Every
//! knob of the paper's flow is a builder method, and the placement
//! engine is a pluggable [`Placer`] trait object.
//!
//! # Examples
//!
//! ```
//! use qspr::{Flow, FlowPolicy};
//! use qspr_fabric::Fabric;
//! use qspr_qasm::Program;
//!
//! # fn main() -> Result<(), qspr::QsprError> {
//! let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
//! let flow = Flow::on(Fabric::quale_45x85()).seeds(4);
//!
//! let result = flow.run(&program)?;
//! assert!(result.latency >= flow.ideal_latency(&program));
//!
//! // The same flow, rebound to a baseline policy, is one line away.
//! let quale = flow.clone().policy(FlowPolicy::Quale).run(&program)?;
//! assert!(quale.latency >= result.latency);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use qspr_fabric::{Fabric, TechParams, Time};
use qspr_place::{MonteCarloPlacer, MvfbConfig, MvfbPlacer, PassDirection, Placer, PlacerSolution};
use qspr_qasm::Program;
use qspr_route::{RouterFactory, RouterKind, RoutingStats};
use qspr_sched::Qidg;
use qspr_sim::{MapError, Mapper, MapperPolicy, MappingOutcome, Placement, Trace};
use qspr_sta::{TimingAnalysis, TimingReport};

use crate::error::QsprError;
use crate::json::{JsonArray, JsonObject, ToJson};
use crate::report::{ComparisonRow, PlacerComparisonRow};

/// Which mapper policy a [`Flow`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowPolicy {
    /// The paper's full tool: priority scheduling, placer-driven
    /// placement, turn-aware multiplexed routing.
    Qspr,
    /// The QUALE baseline: center placement, ALAP extraction,
    /// turn-blind routing, capacity-1 channels, single moving qubit.
    Quale,
    /// The QPOS baseline: center placement, ASAP + dependent-count
    /// priority, destination operand fixed, capacity-1 channels.
    Qpos,
}

impl FlowPolicy {
    /// Stable lowercase name (`"qspr"` / `"quale"` / `"qpos"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowPolicy::Qspr => "qspr",
            FlowPolicy::Quale => "quale",
            FlowPolicy::Qpos => "qpos",
        }
    }

    fn mapper_policy(self, tech: &TechParams) -> MapperPolicy {
        match self {
            FlowPolicy::Qspr => MapperPolicy::qspr(tech),
            FlowPolicy::Quale => MapperPolicy::quale(tech),
            FlowPolicy::Qpos => MapperPolicy::qpos(tech),
        }
    }
}

impl fmt::Display for FlowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FlowPolicy {
    type Err = QsprError;

    fn from_str(s: &str) -> Result<FlowPolicy, QsprError> {
        match s {
            "qspr" => Ok(FlowPolicy::Qspr),
            "quale" => Ok(FlowPolicy::Quale),
            "qpos" => Ok(FlowPolicy::Qpos),
            other => Err(QsprError::usage(format!(
                "unknown policy {other:?} (expected qspr, quale or qpos)"
            ))),
        }
    }
}

/// The full QSPR flow as an owned, reusable value.
///
/// Built with [`Flow::on`] and configured through chained builder
/// methods; [`Flow::run`] executes QIDG scheduling, placement (through
/// the configured [`Placer`]) and turn-aware routing on one program.
/// Because the fabric lives behind an [`Arc`], a `Flow` is `Send +
/// 'static` and cheap to clone — the foundation for batch and service
/// front ends.
///
/// See the crate docs for an example and the `QsprTool` migration
/// table.
#[derive(Clone)]
pub struct Flow {
    fabric: Arc<Fabric>,
    tech: TechParams,
    policy: FlowPolicy,
    mvfb: MvfbConfig,
    placer: Option<Arc<dyn Placer + Send + Sync>>,
    router: Arc<dyn RouterFactory + Send + Sync>,
    record_trace: bool,
    jobs: usize,
}

impl Flow {
    /// Starts a flow on `fabric` with the paper's defaults: DATE 2012
    /// technology parameters, the full QSPR policy, and the built-in
    /// MVFB placer with `m = 100` seeds.
    ///
    /// Accepts an owned [`Fabric`] or an existing `Arc<Fabric>` (to
    /// share one fabric across many flows without copying it).
    pub fn on(fabric: impl Into<Arc<Fabric>>) -> Flow {
        Flow {
            fabric: fabric.into(),
            tech: TechParams::date2012(),
            policy: FlowPolicy::Qspr,
            mvfb: MvfbConfig::new(100, 0xD57E_2012),
            placer: None,
            router: Arc::new(RouterKind::Greedy),
            record_trace: false,
            jobs: 1,
        }
    }

    /// Sets the technology parameters.
    pub fn tech(mut self, tech: TechParams) -> Flow {
        self.tech = tech;
        self
    }

    /// Sets the mapper policy (QSPR or one of the paper's baselines).
    pub fn policy(mut self, policy: FlowPolicy) -> Flow {
        self.policy = policy;
        self
    }

    /// Installs a custom placement engine, replacing the built-in MVFB
    /// placer. Only consulted under [`FlowPolicy::Qspr`]; the baselines
    /// specify their own (center) placement.
    pub fn placer(mut self, placer: impl Placer + Send + Sync + 'static) -> Flow {
        self.placer = Some(Arc::new(placer));
        self
    }

    /// Selects the batch-routing engine: a [`RouterKind`] for the
    /// built-in greedy/negotiated engines, or any custom
    /// [`RouterFactory`]. Applies to every policy this flow runs
    /// (including the QUALE/QPOS baselines of [`Flow::compare`]).
    pub fn router(mut self, router: impl RouterFactory + Send + Sync + 'static) -> Flow {
        self.router = Arc::new(router);
        self
    }

    /// Sets the MVFB seed count `m` for the built-in placer (ignored
    /// once a custom [`Flow::placer`] is installed). Also the `m`
    /// reported by [`Flow::compare_placers`].
    pub fn seeds(mut self, m: usize) -> Flow {
        self.mvfb.seeds = m;
        self
    }

    /// Replaces the whole MVFB configuration of the built-in placer.
    pub fn mvfb_config(mut self, config: MvfbConfig) -> Flow {
        self.mvfb = config;
        self
    }

    /// Enables or disables recording of the winning micro-command trace
    /// (off by default; placers run thousands of mappings and only need
    /// latencies).
    pub fn record_trace(mut self, record: bool) -> Flow {
        self.record_trace = record;
        self
    }

    /// Grants the flow up to `jobs` worker threads (clamped to at
    /// least 1; default 1) for its placer: MVFB runs its seeds, and
    /// Monte Carlo its draws, concurrently (the mapper additionally
    /// clamps the grant to the host's cores, see [`Mapper::jobs`]).
    /// Purely a performance hint — placers fold their results in seed
    /// order, so results are byte-identical at every value, `jobs` is
    /// deliberately *not* a [`Flow::fingerprint`] axis, and cached
    /// answers remain valid across thread counts.
    pub fn jobs(mut self, jobs: usize) -> Flow {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker-thread budget.
    pub fn job_count(&self) -> usize {
        self.jobs
    }

    /// The fabric this flow maps onto.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The shared handle to the fabric (clone it to build sibling flows
    /// without copying the fabric).
    pub fn fabric_arc(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The technology parameters in use.
    pub fn tech_params(&self) -> &TechParams {
        &self.tech
    }

    /// The configured MVFB seed count `m`.
    pub fn seed_count(&self) -> usize {
        self.mvfb.seeds
    }

    /// The name of the active placement engine.
    pub fn placer_name(&self) -> &str {
        match &self.placer {
            Some(p) => p.name(),
            None => "mvfb",
        }
    }

    /// The name of the active routing engine.
    pub fn router_name(&self) -> &str {
        self.router.name()
    }

    fn mapper(&self, policy: MapperPolicy) -> Mapper<'_> {
        Mapper::new(&self.fabric, self.tech, policy)
            .router(Arc::clone(&self.router))
            .jobs(self.jobs)
    }

    /// Rejects a program with more qubits than the fabric has traps:
    /// every initial placement seats one qubit per trap.
    fn check_fits(&self, program: &Program) -> Result<(), MapError> {
        let traps = self.fabric.topology().traps().len();
        let qubits = program.num_qubits();
        if traps < qubits {
            return Err(MapError::NotEnoughTraps { traps, qubits });
        }
        Ok(())
    }

    /// A canonical fingerprint of *this configuration applied to
    /// `program_text`*: every input that determines a [`Flow::run`]
    /// result — fabric (dimensions plus a content hash of its ASCII
    /// rendering), technology parameters, policy, placer and router
    /// names, MVFB seed count and RNG seed, and trace recording —
    /// followed by the program text verbatim.
    ///
    /// Because the whole flow is seed-determined, equal fingerprints
    /// imply byte-identical [`FlowSummary`] JSON; the `qspr serve`
    /// mapping cache uses the fingerprint as its key. Custom placers
    /// and routers are identified by [`Placer::name`] /
    /// `RouterFactory::name` only, so two *different* engines sharing a
    /// name would collide — give plugged-in engines distinct names.
    ///
    /// # Examples
    ///
    /// ```
    /// use qspr::Flow;
    /// use qspr_fabric::Fabric;
    ///
    /// let flow = Flow::on(Fabric::quale_45x85());
    /// let a = flow.fingerprint("QUBIT a\nH a\n");
    /// assert_eq!(a, flow.fingerprint("QUBIT a\nH a\n"));
    /// assert_ne!(a, flow.fingerprint("QUBIT b\nH b\n"));
    /// assert_ne!(a, flow.clone().seeds(4).fingerprint("QUBIT a\nH a\n"));
    /// ```
    pub fn fingerprint(&self, program_text: &str) -> String {
        let fabric_hash = fnv1a_64(self.fabric.to_string().as_bytes());
        // The ASCII rendering carries geometry but not per-resource
        // capacity overrides, so spec-declared capacities get their own
        // digest. Uniform fabrics contribute nothing, keeping their
        // fingerprints byte-identical to the pre-spec format.
        let caps_digest = if self.fabric.topology().has_capacity_overrides() {
            let mut bytes = Vec::new();
            for cap in self
                .fabric
                .topology()
                .segment_caps()
                .iter()
                .chain(self.fabric.topology().junction_caps())
            {
                match cap {
                    Some(v) => bytes.extend_from_slice(&[1, *v]),
                    None => bytes.push(0),
                }
            }
            format!(":caps{:016x}", fnv1a_64(&bytes))
        } else {
            String::new()
        };
        format!(
            "qspr-fp-v1|fabric={}x{}:{:016x}{}|tech={},{},{},{},{},{}|policy={}|placer={}|router={}|m={},{},{}|rng={:#x}|trace={}|prog={}|{}",
            self.fabric.rows(),
            self.fabric.cols(),
            fabric_hash,
            caps_digest,
            self.tech.t_move,
            self.tech.t_turn,
            self.tech.t_gate_1q,
            self.tech.t_gate_2q,
            self.tech.channel_capacity,
            self.tech.junction_capacity,
            self.policy,
            self.placer_name(),
            self.router_name(),
            self.mvfb.seeds,
            self.mvfb.patience,
            self.mvfb.max_passes_per_seed,
            self.mvfb.rng_seed,
            self.record_trace,
            program_text.len(),
            program_text,
        )
    }

    /// Runs the flow on `program`.
    ///
    /// Under [`FlowPolicy::Qspr`] the configured placer searches for
    /// the best initial placement; the baselines map once from the
    /// deterministic center placement.
    ///
    /// # Errors
    ///
    /// Returns [`QsprError::Map`] when the program cannot be mapped
    /// (more qubits than traps, stalls on degenerate fabrics, placement
    /// mismatches).
    pub fn run(&self, program: &Program) -> Result<FlowResult, QsprError> {
        self.check_fits(program)?;
        let mapper = self.mapper(self.policy.mapper_policy(&self.tech));
        // Baselines map exactly once; keep that outcome rather than
        // recomputing it below.
        let (solution, baseline_outcome) = match self.policy {
            FlowPolicy::Qspr => {
                let default_placer;
                let placer: &dyn Placer = match &self.placer {
                    Some(p) => p,
                    None => {
                        default_placer = MvfbPlacer::new(self.mvfb);
                        &default_placer
                    }
                };
                (placer.place(&mapper, program)?, None)
            }
            FlowPolicy::Quale | FlowPolicy::Qpos => {
                let placement = Placement::center(&self.fabric, program.num_qubits());
                // Baselines map exactly once, tracing inline if asked.
                let outcome = mapper
                    .clone()
                    .record_trace(self.record_trace)
                    .map(program, &placement)?;
                let solution = PlacerSolution {
                    latency: outcome.latency(),
                    direction: PassDirection::Forward,
                    initial_placement: placement,
                    runs: 1,
                    // No placer ran; nothing reads this.
                    cpu: Duration::ZERO,
                };
                (solution, Some(outcome))
            }
        };
        let (outcome, forward_trace) = match baseline_outcome {
            Some(outcome) => {
                let trace = outcome.trace().cloned();
                (outcome, trace)
            }
            None if self.record_trace => {
                let (outcome, trace) = solution.replay(&mapper, program)?;
                (outcome, Some(trace))
            }
            None => {
                let prog = match solution.direction {
                    PassDirection::Forward => program.clone(),
                    PassDirection::Backward => program.reversed(),
                };
                (mapper.map(&prog, &solution.initial_placement)?, None)
            }
        };
        // The re-mapped outcome is ground truth. A conforming placer's
        // reported latency matches it exactly; a misreporting placer is
        // reconciled here rather than poisoning downstream reports.
        let latency = outcome.latency();
        Ok(FlowResult {
            policy: self.policy,
            fabric: self.fabric_summary(),
            // Baselines bypass the placer for their fixed center
            // placement; report what actually ran.
            placer: match self.policy {
                FlowPolicy::Qspr => self.placer_name().to_owned(),
                FlowPolicy::Quale | FlowPolicy::Qpos => "center".to_owned(),
            },
            router: self.router_name().to_owned(),
            latency,
            direction: solution.direction,
            initial_placement: solution.initial_placement,
            runs: solution.runs,
            outcome,
            forward_trace,
        })
    }

    /// Static timing analysis (`qspr-sta`) of a finished [`Flow::run`].
    ///
    /// `result` must carry a recorded trace (run the flow with
    /// [`Flow::record_trace`] enabled). When the winning pass ran
    /// backward, the analysis is performed on the reversed program —
    /// the one the recorded outcome actually executed — so instruction
    /// ids in the report index that pass.
    ///
    /// # Errors
    ///
    /// Returns [`QsprError::Sta`] when `result` has no trace or does
    /// not match `program`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qspr::Flow;
    /// use qspr_fabric::Fabric;
    /// use qspr_qasm::Program;
    ///
    /// # fn main() -> Result<(), qspr::QsprError> {
    /// let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
    /// let flow = Flow::on(Fabric::quale_45x85()).seeds(4).record_trace(true);
    /// let result = flow.run(&program)?;
    /// let report = flow.timing_report(&program, &result)?;
    /// assert_eq!(report.makespan(), result.latency);
    /// assert_eq!(report.min_slack(), Some(0));
    /// # Ok(())
    /// # }
    /// ```
    pub fn timing_report(
        &self,
        program: &Program,
        result: &FlowResult,
    ) -> Result<TimingReport, QsprError> {
        let reversed;
        let analyzed = match result.direction {
            PassDirection::Forward => program,
            PassDirection::Backward => {
                reversed = program.reversed();
                &reversed
            }
        };
        Ok(TimingAnalysis::new(&self.fabric, self.tech).analyze(analyzed, &result.outcome)?)
    }

    /// Maps `program` with an explicit policy and placement (the escape
    /// hatch for custom flows).
    ///
    /// # Errors
    ///
    /// Returns [`QsprError::Map`] on mapper failures.
    pub fn map_with(
        &self,
        program: &Program,
        policy: MapperPolicy,
        placement: &Placement,
    ) -> Result<MappingOutcome, QsprError> {
        Ok(self.mapper(policy).map(program, placement)?)
    }

    /// Provenance summary of the fabric, when the fabric was built by a
    /// [`qspr_fabric::FabricSpec`] (programmatic constructors carry no
    /// provenance, and their reports stay byte-identical).
    fn fabric_summary(&self) -> Option<FabricSummary> {
        self.fabric.info().map(|info| FabricSummary {
            name: info.name.clone(),
            family: info.family.clone(),
            regions: info.regions,
            capacity_histogram: self.fabric.topology().capacity_histogram(),
        })
    }

    /// The paper's ideal baseline: execution latency on a fabric with
    /// `T_congestion = T_routing = 0`, i.e. the gate-delay critical path
    /// of the QIDG. A lower bound for any placed-and-routed result.
    pub fn ideal_latency(&self, program: &Program) -> Time {
        Qidg::new(program, &self.tech).critical_path_delay()
    }

    /// Produces one row of the paper's Table 2 for `program`: the ideal
    /// lower bound, the QUALE baseline, and this flow's configured
    /// policy/placer.
    ///
    /// # Errors
    ///
    /// Returns [`QsprError::Map`] when either mapping fails.
    pub fn compare(&self, name: &str, program: &Program) -> Result<ComparisonRow, QsprError> {
        self.check_fits(program)?;
        let baseline = self.ideal_latency(program);
        let placement = Placement::center(&self.fabric, program.num_qubits());
        let quale = self
            .map_with(program, MapperPolicy::quale(&self.tech), &placement)?
            .latency();
        let qspr = self.run(program)?.latency;
        Ok(ComparisonRow::new(name, baseline, quale, qspr))
    }

    /// Produces one row of the paper's Table 1 for `program`: MVFB with
    /// the configured `m` seeds versus Monte Carlo given exactly the
    /// same number of placement runs (the paper's equal-effort design).
    /// Both engines run through the [`Placer`] trait seam.
    ///
    /// # Errors
    ///
    /// Returns [`QsprError::Map`] when either placer fails.
    pub fn compare_placers(
        &self,
        name: &str,
        program: &Program,
    ) -> Result<PlacerComparisonRow, QsprError> {
        self.check_fits(program)?;
        let mapper = self.mapper(MapperPolicy::qspr(&self.tech));
        let mvfb_engine = MvfbPlacer::new(self.mvfb);
        let mvfb = (&mvfb_engine as &dyn Placer).place(&mapper, program)?;
        let mc_engine = MonteCarloPlacer::new(mvfb.runs, self.mvfb.rng_seed ^ 0x4D43);
        let mc = (&mc_engine as &dyn Placer).place(&mapper, program)?;
        Ok(PlacerComparisonRow {
            circuit: name.to_owned(),
            m: self.mvfb.seeds,
            runs: mvfb.runs,
            mvfb_latency: mvfb.latency,
            mvfb_cpu: mvfb.cpu,
            mc_latency: mc.latency,
            mc_cpu: mc.cpu,
        })
    }
}

/// FNV-1a 64-bit: the classic tiny non-cryptographic hash, used to
/// condense the fabric's ASCII rendering inside [`Flow::fingerprint`].
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl fmt::Debug for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Flow")
            .field(
                "fabric",
                &format_args!("{}x{}", self.fabric.rows(), self.fabric.cols()),
            )
            .field("policy", &self.policy)
            .field("placer", &self.placer_name())
            .field("router", &self.router_name())
            .field("mvfb", &self.mvfb)
            .field("record_trace", &self.record_trace)
            .finish()
    }
}

/// Result of one [`Flow::run`].
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The policy that produced this result.
    pub policy: FlowPolicy,
    /// Provenance of the fabric, when it was built from a
    /// [`qspr_fabric::FabricSpec`] document.
    pub fabric: Option<FabricSummary>,
    /// Name of the placement engine used (`"mvfb"` unless swapped).
    pub placer: String,
    /// Name of the routing engine used (`"greedy"` unless swapped).
    pub router: String,
    /// Best mapped execution latency (µs).
    pub latency: Time,
    /// Direction of the winning placement pass.
    pub direction: PassDirection,
    /// Placement the winning pass started from.
    pub initial_placement: Placement,
    /// Total placement runs executed (`m'` for MVFB, 1 for baselines).
    pub runs: usize,
    /// Full outcome (stats, final placement) of the winning pass.
    pub outcome: MappingOutcome,
    /// Forward-executing micro-command trace, when
    /// [`Flow::record_trace`] was set.
    pub forward_trace: Option<Trace>,
}

impl FlowResult {
    /// Condenses the result into the flat, JSON-serializable
    /// [`FlowSummary`].
    pub fn summary(&self) -> FlowSummary {
        let totals = self.outcome.totals();
        FlowSummary {
            policy: self.policy,
            fabric: self.fabric.clone(),
            placer: self.placer.clone(),
            router: self.router.clone(),
            latency: self.latency,
            direction: self.direction,
            runs: self.runs,
            moves: totals.moves,
            turns: totals.turns,
            congestion_wait: totals.congestion_wait,
            routing: self.outcome.routing_stats(),
            trace_commands: self.forward_trace.as_ref().map(|t| t.len()),
        }
    }
}

/// The flat summary of a [`FlowResult`], made for reports and JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSummary {
    /// The policy that produced this result.
    pub policy: FlowPolicy,
    /// Name of the placement engine used.
    pub placer: String,
    /// Name of the routing engine used.
    pub router: String,
    /// Best mapped execution latency (µs).
    pub latency: Time,
    /// Direction of the winning placement pass.
    pub direction: PassDirection,
    /// Total placement runs executed.
    pub runs: usize,
    /// Total qubit moves in the winning mapping.
    pub moves: u64,
    /// Total junction turns in the winning mapping.
    pub turns: u64,
    /// Total congestion wait (µs) across instructions.
    pub congestion_wait: Time,
    /// Routing-engine congestion stats of the winning mapping.
    pub routing: RoutingStats,
    /// Provenance of the fabric, when it was built from a
    /// [`qspr_fabric::FabricSpec`] document.
    pub fabric: Option<FabricSummary>,
    /// Command count of the recorded trace, when one was recorded.
    pub trace_commands: Option<usize>,
}

/// Provenance summary of a spec-built fabric, surfaced in
/// [`FlowSummary`] JSON as the optional `fabric` block. Fabrics built
/// by programmatic constructors (`Fabric::new`, `Fabric::from_ascii`,
/// `Fabric::quale_45x85`) have no provenance and omit the block
/// entirely, keeping their report bytes identical to the pre-spec
/// format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSummary {
    /// The spec document's `name`.
    pub name: String,
    /// Region family (`"regular"`, `"ascii"`, ..., or `"composite"`
    /// for multi-region fabrics).
    pub family: String,
    /// Number of regions the spec declared.
    pub regions: usize,
    /// Occupancy-capacity histogram over all segments and junctions:
    /// `(override, count)` with `None` (the technology default) first.
    pub capacity_histogram: Vec<(Option<u8>, usize)>,
}

impl ToJson for FabricSummary {
    /// `{"name","family","regions":[..],"capacity_histogram":
    /// [{"capacity":null|n,"count":n},..]}`; pinned by the golden test
    /// in [`crate::json`].
    fn to_json(&self) -> String {
        let mut histogram = JsonArray::new();
        for &(cap, count) in &self.capacity_histogram {
            let bucket = match cap {
                Some(v) => JsonObject::new().number("capacity", u64::from(v)),
                None => JsonObject::new().raw("capacity", "null"),
            };
            histogram.push_raw(&bucket.number("count", count as u64).build());
        }
        JsonObject::new()
            .string("name", &self.name)
            .string("family", &self.family)
            .number("regions", self.regions as u64)
            .raw("capacity_histogram", &histogram.build())
            .build()
    }
}

impl ToJson for FlowSummary {
    /// Stable JSON schema, pinned by the golden test in [`crate::json`]:
    /// `{"policy","placer","router","latency_us","direction","runs",
    /// "moves","turns","congestion_wait_us","epochs","rip_iterations",
    /// "ripped_routes","max_segment_pressure"[,"fabric"][,"trace_commands"]}`.
    /// It carries no clock: the bytes are a pure function of the
    /// program, the fabric and the flow's configuration.
    fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .string("policy", self.policy.as_str())
            .string("placer", &self.placer)
            .string("router", &self.router)
            .number("latency_us", self.latency)
            .string("direction", self.direction.as_str())
            .number("runs", self.runs as u64)
            .number("moves", self.moves)
            .number("turns", self.turns)
            .number("congestion_wait_us", self.congestion_wait)
            .number("epochs", self.routing.epochs)
            .number("rip_iterations", self.routing.iterations)
            .number("ripped_routes", self.routing.ripped)
            .number("max_segment_pressure", u64::from(self.routing.max_pressure));
        if let Some(fabric) = &self.fabric {
            obj = obj.raw("fabric", &fabric.to_json());
        }
        if let Some(n) = self.trace_commands {
            obj = obj.number("trace_commands", n as u64);
        }
        obj.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn fast_flow() -> Flow {
        Flow::on(Fabric::quale_45x85()).seeds(4)
    }

    fn program() -> Program {
        Program::parse(FIG3).unwrap()
    }

    #[test]
    fn flow_is_send_sync_and_static() {
        // Compile-time assertion: the service-grade contract.
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Flow>();
        assert_send_sync::<FlowResult>();
    }

    #[test]
    fn run_is_reproducible() {
        let flow = fast_flow();
        let program = program();
        let a = flow.run(&program).unwrap();
        let b = flow.run(&program).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.initial_placement, b.initial_placement);
    }

    #[test]
    fn policies_order_correctly() {
        let flow = fast_flow();
        let program = program();
        let qspr = flow.run(&program).unwrap();
        let quale = flow
            .clone()
            .policy(FlowPolicy::Quale)
            .run(&program)
            .unwrap();
        assert!(flow.ideal_latency(&program) <= qspr.latency);
        assert!(qspr.latency <= quale.latency);
        assert_eq!(quale.runs, 1);
        assert_eq!(quale.direction, PassDirection::Forward);
    }

    #[test]
    fn programs_larger_than_the_fabric_are_errors() {
        let flow =
            Flow::on(Fabric::from_ascii("-+-+-\n.|T|.\n-+-+-\n.|T|.\n-+-+-\n").unwrap()).seeds(2);
        let program = program();
        let too_big = |e: QsprError| matches!(e, QsprError::Map(MapError::NotEnoughTraps { .. }));
        assert!(too_big(flow.run(&program).unwrap_err()));
        assert!(too_big(
            flow.clone()
                .policy(FlowPolicy::Quale)
                .run(&program)
                .unwrap_err()
        ));
        assert!(too_big(flow.compare("big", &program).unwrap_err()));
        assert!(too_big(flow.compare_placers("big", &program).unwrap_err()));
    }

    #[test]
    fn baseline_policies_record_traces_too() {
        let flow = fast_flow().policy(FlowPolicy::Qpos).record_trace(true);
        let result = flow.run(&program()).unwrap();
        let trace = result.forward_trace.as_ref().unwrap();
        assert_eq!(trace.move_count() as u64, result.outcome.totals().moves);
    }

    #[test]
    fn custom_placer_plugs_in() {
        use qspr_sim::MapError;

        struct CenterPlacer;
        impl Placer for CenterPlacer {
            fn name(&self) -> &str {
                "center"
            }
            fn place(
                &self,
                mapper: &Mapper<'_>,
                program: &Program,
            ) -> Result<PlacerSolution, MapError> {
                let placement = Placement::center(mapper.fabric(), program.num_qubits());
                let outcome = mapper.map(program, &placement)?;
                Ok(PlacerSolution {
                    latency: outcome.latency(),
                    direction: PassDirection::Forward,
                    initial_placement: placement,
                    runs: 1,
                    cpu: Duration::ZERO,
                })
            }
        }

        let flow = fast_flow().placer(CenterPlacer);
        assert_eq!(flow.placer_name(), "center");
        let result = flow.run(&program()).unwrap();
        assert_eq!(result.placer, "center");
        assert_eq!(result.runs, 1);
        // MVFB starts from random center permutations and searches; the
        // plain center placement is a valid but generally worse start.
        assert!(result.latency >= flow.ideal_latency(&program()));
    }

    #[test]
    fn compare_matches_manual_runs() {
        let flow = fast_flow();
        let program = program();
        let row = flow.compare("fig3", &program).unwrap();
        assert_eq!(row.qspr, flow.run(&program).unwrap().latency);
        assert_eq!(row.baseline, flow.ideal_latency(&program));
        assert!(row.baseline <= row.qspr && row.qspr <= row.quale);
    }

    #[test]
    fn compare_placers_goes_through_the_trait_seam() {
        let flow = fast_flow();
        let row = flow.compare_placers("fig3", &program()).unwrap();
        assert_eq!(row.m, 4);
        assert!(row.runs >= 4);
        assert!(row.mvfb_latency > 0 && row.mc_latency > 0);
    }

    #[test]
    fn policy_parses_and_displays() {
        assert_eq!("qspr".parse::<FlowPolicy>().unwrap(), FlowPolicy::Qspr);
        assert_eq!("quale".parse::<FlowPolicy>().unwrap(), FlowPolicy::Quale);
        assert_eq!("qpos".parse::<FlowPolicy>().unwrap(), FlowPolicy::Qpos);
        assert!("best".parse::<FlowPolicy>().is_err());
        assert_eq!(FlowPolicy::Qspr.to_string(), "qspr");
    }

    #[test]
    fn summary_serializes_stably() {
        let flow = fast_flow().record_trace(true);
        let summary = flow.run(&program()).unwrap().summary();
        let json = summary.to_json();
        assert!(
            json.starts_with(r#"{"policy":"qspr","placer":"mvfb","router":"greedy","latency_us":"#)
        );
        assert!(json.contains(&format!(r#""direction":"{}""#, summary.direction.as_str())));
        assert!(!json.contains(r#""timing""#));
        assert!(json.contains(r#""epochs":"#));
        assert!(json.contains(r#""max_segment_pressure":"#));
        assert!(json.contains(r#""trace_commands":"#));
    }

    #[test]
    fn router_builder_selects_engines() {
        use qspr_route::RouterKind;

        let flow = fast_flow();
        assert_eq!(flow.router_name(), "greedy");
        let negotiated = flow.clone().router(RouterKind::Negotiated);
        assert_eq!(negotiated.router_name(), "negotiated");

        let program = program();
        let greedy_result = flow.run(&program).unwrap();
        let negotiated_result = negotiated.run(&program).unwrap();
        assert_eq!(greedy_result.router, "greedy");
        assert_eq!(negotiated_result.router, "negotiated");
        // Epochs are counted for both engines; rip-up only for the
        // negotiated one.
        assert!(greedy_result.outcome.routing_stats().epochs > 0);
        assert_eq!(greedy_result.outcome.routing_stats().iterations, 0);
        assert!(negotiated_result.outcome.routing_stats().epochs > 0);
    }

    #[test]
    fn jobs_does_not_change_the_fingerprint() {
        let base = fast_flow();
        let fp = base.fingerprint(FIG3);
        assert_eq!(fp, base.clone().jobs(8).fingerprint(FIG3));
        assert_eq!(base.clone().jobs(0).job_count(), 1, "jobs clamps to 1");
    }

    #[test]
    fn fingerprint_bytes_are_pinned() {
        // The serve cache keys on these exact bytes: any change to the
        // format invalidates every cached answer, so it must be
        // deliberate.
        let flow = Flow::on(Fabric::quale_45x85())
            .router(RouterKind::Negotiated)
            .seeds(7)
            .record_trace(true);
        assert_eq!(
            flow.fingerprint("QUBIT a\nH a\n"),
            "qspr-fp-v1|fabric=45x85:c43a995bc1f84451|tech=1,10,10,100,2,2|policy=qspr\
             |placer=mvfb|router=negotiated|m=7,3,64|rng=0xd57e2012|trace=true\
             |prog=12|QUBIT a\nH a\n"
        );
    }

    #[test]
    fn fingerprint_separates_every_configuration_axis() {
        let base = fast_flow();
        let text = FIG3;
        let fp = base.fingerprint(text);
        // Stable across calls and across clones.
        assert_eq!(fp, base.fingerprint(text));
        assert_eq!(fp, base.clone().fingerprint(text));
        // Every knob lands in the key.
        assert_ne!(fp, base.clone().policy(FlowPolicy::Quale).fingerprint(text));
        assert_ne!(fp, base.clone().seeds(5).fingerprint(text));
        assert_ne!(
            fp,
            base.clone()
                .router(RouterKind::Negotiated)
                .fingerprint(text)
        );
        assert_ne!(fp, base.clone().record_trace(true).fingerprint(text));
        assert_ne!(
            fp,
            base.clone()
                .tech(TechParams::date2012().without_multiplexing())
                .fingerprint(text)
        );
        assert_ne!(fp, base.fingerprint("QUBIT a\nH a\n"));
        // Different fabrics hash differently even at equal dimensions
        // of the key prefix (content hash, not just rows x cols).
        let other = Flow::on(Fabric::from_ascii(qspr_route::FIG5_DEMO_FABRIC).unwrap()).seeds(4);
        assert_ne!(fp, other.fingerprint(text));
    }

    #[test]
    fn timing_report_matches_the_run() {
        let flow = fast_flow().record_trace(true);
        let program = program();
        let result = flow.run(&program).unwrap();
        let report = flow.timing_report(&program, &result).unwrap();
        assert_eq!(report.makespan(), result.latency);
        assert_eq!(report.critical_end(), Some(result.latency));
        assert_eq!(report.min_slack(), Some(0));
        assert_eq!(report.instructions().len(), program.instructions().len());
    }

    #[test]
    fn timing_report_requires_a_recorded_trace() {
        let flow = fast_flow();
        let program = program();
        let result = flow.run(&program).unwrap();
        let err = flow.timing_report(&program, &result).unwrap_err();
        assert!(matches!(err, QsprError::Sta(_)));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shared_fabric_arc_is_not_copied() {
        let fabric = Arc::new(Fabric::quale_45x85());
        let a = Flow::on(Arc::clone(&fabric));
        let b = Flow::on(Arc::clone(&fabric));
        assert!(Arc::ptr_eq(a.fabric_arc(), b.fabric_arc()));
    }
}
