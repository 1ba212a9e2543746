//! Pluggable batch-routing engines: the negotiated-congestion subsystem.
//!
//! The base [`Router`] answers one shortest-path query at
//! a time, which forces the simulator to route simultaneous movers in
//! arrival order — early routes block later ones exactly where
//! congestion matters most. This module lifts routing to *batches*: a
//! [`RoutingEngine`] receives every mover issued in one scheduling
//! epoch and may reconsider the whole set before committing.
//!
//! Two engines ship with the crate:
//!
//! * [`GreedyRouter`] — the classic behavior: each mover routed against
//!   the bookings of the movers before it, first answer kept;
//! * [`NegotiatedRouter`] — PathFinder-style negotiated congestion
//!   (McMurchie & Ebeling, FPGA '95): all movers are routed with *soft*
//!   capacities, shared-segment/junction conflicts are detected, and the
//!   conflicting routes are ripped up and re-routed under growing
//!   present-congestion and history penalties until the set is
//!   conflict-free or an iteration cap is reached. The final answer is
//!   committed under hard capacities and never worse than the greedy
//!   answer for the same batch.
//!
//! Engines are object safe, so callers hold a `dyn RoutingEngine` and
//! swap implementations the same way placers plug into a flow. Each
//! batch reports an [`EpochStats`]; an engine accumulates them into
//! [`RoutingStats`] for end-of-run reporting.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::{Fabric, TechParams};
//! use qspr_route::{ResourceState, RouteRequest, RouterConfig, RouterKind};
//!
//! let fabric = Fabric::quale_45x85();
//! let topo = fabric.topology();
//! let tech = TechParams::date2012();
//! let mut engine = RouterKind::Negotiated.build(topo, RouterConfig::qspr(&tech));
//! let state = ResourceState::new(topo);
//!
//! let traps = topo.traps_by_distance(fabric.center());
//! let requests = [
//!     RouteRequest::new(traps[0], traps[40]),
//!     RouteRequest::new(traps[1], traps[41]),
//! ];
//! let (plans, epoch) = engine.route_batch(&state, &requests);
//! assert!(plans.iter().all(|p| p.is_some()), "quiet fabric routes all");
//! assert_eq!(engine.stats().epochs, 1);
//! assert!(epoch.max_pressure <= tech.channel_capacity);
//! ```

use std::fmt;
use std::str::FromStr;

use qspr_fabric::{Time, Topology, TrapId};

use crate::plan::RoutePlan;
use crate::resource::{Resource, ResourceState};
use crate::router::{Overlay, Router, RouterConfig};

/// One mover of a batch-routing epoch: a qubit that must travel from
/// trap `from` to trap `to` starting now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// The trap the qubit currently sits in.
    pub from: TrapId,
    /// The trap the qubit must reach.
    pub to: TrapId,
}

impl RouteRequest {
    /// Creates a request.
    pub fn new(from: TrapId, to: TrapId) -> RouteRequest {
        RouteRequest { from, to }
    }
}

/// Congestion statistics of one [`RoutingEngine::route_batch`] epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStats {
    /// Rip-up-and-reroute iterations the negotiation ran (0 when the
    /// first joint answer was already conflict-free, and always 0 for
    /// the greedy engine).
    pub iterations: u32,
    /// Routes ripped up and re-routed across those iterations.
    pub ripped: u32,
    /// The highest per-segment pressure (committed bookings plus this
    /// batch's tentative routes) observed while solving the epoch. May
    /// exceed the channel capacity mid-negotiation; committed plans
    /// never do.
    pub max_pressure: u8,
}

/// Cumulative congestion statistics across every epoch an engine
/// served, reported at the end of a mapping run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingStats {
    /// Batch-routing epochs served (one per `route_batch` call).
    pub epochs: u64,
    /// Total rip-up-and-reroute iterations.
    pub iterations: u64,
    /// Total routes ripped up and re-routed.
    pub ripped: u64,
    /// Highest per-segment pressure observed in any epoch.
    pub max_pressure: u8,
}

impl RoutingStats {
    fn absorb(&mut self, epoch: &EpochStats) {
        self.epochs += 1;
        self.iterations += u64::from(epoch.iterations);
        self.ripped += u64::from(epoch.ripped);
        self.max_pressure = self.max_pressure.max(epoch.max_pressure);
    }
}

/// A pluggable batch-routing engine.
///
/// Mirrors `qspr_place::Placer`: the trait is object safe, the two
/// built-in engines are selected with [`RouterKind`], and third-party
/// engines plug into a mapper through [`RouterFactory`].
///
/// The contract of [`route_batch`](RoutingEngine::route_batch): the
/// returned plans (one slot per request, `None` = blocked, retried by
/// the caller later) must *jointly* respect the channel and junction
/// capacities on top of `state` — the caller books every returned plan.
pub trait RoutingEngine {
    /// Short stable engine name for reports (`"greedy"`, `"negotiated"`).
    fn name(&self) -> &str;

    /// The routing policy in effect.
    fn config(&self) -> &RouterConfig;

    /// A pure single-route probe under the current bookings (used for
    /// cost estimation, e.g. meeting-trap selection); does not count as
    /// an epoch and must not commit anything.
    ///
    /// The answer must be a pure function of `(state, from, to)`. The
    /// mapper probes meeting-trap candidates in whatever order it finds
    /// cheapest and skips candidates that provably cannot win, so a
    /// probe that changed anything a later call can observe would make
    /// the mapping depend on that order and break byte identity.
    /// Between probes the caller books a probed plan's resources and
    /// releases them afterwards; that booking cannot overflow, because
    /// a router never returns a plan through a resource already at its
    /// (`u8`) capacity.
    ///
    /// Probes can become the committed plans: a caller that probed an
    /// epoch's movers one after another may hand the answers to
    /// [`route_batch_probed`](RoutingEngine::route_batch_probed), and
    /// the greedy engine commits them verbatim. An engine must therefore
    /// answer a probe exactly as its batch search would route the same
    /// mover under the same bookings.
    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan>;

    /// Routes one epoch's movers jointly. Slot `i` of the result answers
    /// request `i`; `None` means the mover is blocked for now.
    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats);

    /// [`route_batch`](RoutingEngine::route_batch) for movers the caller
    /// already probed: `probed[i]` is what
    /// [`route_one`](RoutingEngine::route_one) returned for `requests[i]`
    /// under `state` plus the bookings of `probed[..i]`, and every mover
    /// routed. The answer and [`EpochStats`] must equal `route_batch`'s,
    /// so engines whose batch search starts from sequential routing can
    /// reuse the probes instead of searching again. The default ignores
    /// them and calls `route_batch`.
    fn route_batch_probed(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
        probed: Vec<RoutePlan>,
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let _ = probed;
        self.route_batch(state, requests)
    }

    /// Tells the engine a plan was committed (feeds history terms).
    fn note_booked(&mut self, plan: &RoutePlan);

    /// A thread-count hint. Engines run on the mapping thread and
    /// ignore it; parallelism lives in the placers, which run whole
    /// mappings concurrently. Kept only so existing wrapper engines
    /// that forward it still compile.
    fn set_parallelism(&mut self, _jobs: usize) {}

    /// `true` when this engine implements
    /// [`refine_epoch`](RoutingEngine::refine_epoch); callers then defer
    /// per-leg commitment until the epoch's full mover set is known.
    fn refines(&self) -> bool {
        false
    }

    /// Epoch refinement: given every plan committed in one scheduling
    /// epoch (with their bookings removed from `state`), propose a
    /// strictly better joint replacement, or `None` to keep the
    /// incumbents. A `Some` answer must hold one plan per incumbent
    /// with the same endpoints, jointly feasible under the hard
    /// capacities on top of `state`. The default keeps the incumbents.
    fn refine_epoch(
        &mut self,
        _state: &ResourceState,
        _incumbents: &[RoutePlan],
    ) -> Option<Vec<RoutePlan>> {
        None
    }

    /// Cumulative stats across all epochs served so far.
    fn stats(&self) -> RoutingStats;
}

/// Builds [`RoutingEngine`]s for a mapper run.
///
/// A mapping run needs a fresh engine (engines carry per-run history
/// state), so pluggability goes through a factory rather than a single
/// engine value. [`RouterKind`] implements this trait for the built-in
/// engines; third-party crates implement it to inject their own.
pub trait RouterFactory {
    /// Short stable name for reports.
    fn name(&self) -> &str;

    /// Creates a fresh engine over `topology` with the given policy.
    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't>;
}

impl<F: RouterFactory + ?Sized> RouterFactory for std::sync::Arc<F> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        (**self).build(topology, config)
    }
}

/// Selects one of the built-in routing engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// Sequential first-answer routing ([`GreedyRouter`]), the default.
    #[default]
    Greedy,
    /// PathFinder-style rip-up-and-reroute ([`NegotiatedRouter`]).
    Negotiated,
}

impl RouterKind {
    /// Stable lowercase name (`"greedy"` / `"negotiated"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RouterKind::Greedy => "greedy",
            RouterKind::Negotiated => "negotiated",
        }
    }

    /// Creates a fresh engine of this kind.
    pub fn build<'t>(
        self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        match self {
            RouterKind::Greedy => Box::new(GreedyRouter::new(topology, config)),
            RouterKind::Negotiated => Box::new(NegotiatedRouter::new(topology, config)),
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown router name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouterKindError(String);

impl fmt::Display for ParseRouterKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown router {:?} (expected greedy or negotiated)",
            self.0
        )
    }
}

impl std::error::Error for ParseRouterKindError {}

impl FromStr for RouterKind {
    type Err = ParseRouterKindError;

    fn from_str(s: &str) -> Result<RouterKind, ParseRouterKindError> {
        match s {
            "greedy" => Ok(RouterKind::Greedy),
            "negotiated" => Ok(RouterKind::Negotiated),
            other => Err(ParseRouterKindError(other.to_owned())),
        }
    }
}

impl RouterFactory for RouterKind {
    fn name(&self) -> &str {
        self.as_str()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        (*self).build(topology, config)
    }
}

/// Routes each mover of a batch against the bookings of the movers
/// before it, committing the first answer found — exactly the per-gate
/// behavior the simulator always had, now behind the engine seam.
#[derive(Debug, Clone)]
pub struct GreedyRouter<'a> {
    router: Router<'a>,
    scratch: ResourceState,
    stats: RoutingStats,
}

impl<'a> GreedyRouter<'a> {
    /// Creates a greedy engine over `topology`.
    pub fn new(topology: &'a Topology, config: RouterConfig) -> GreedyRouter<'a> {
        GreedyRouter {
            router: Router::new(topology, config),
            scratch: ResourceState::new(topology),
            stats: RoutingStats::default(),
        }
    }

    /// Records the epoch of the sequential answer `plans` on `state`
    /// and returns it.
    fn finish_batch(
        &mut self,
        state: &ResourceState,
        plans: Vec<Option<RoutePlan>>,
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let epoch = EpochStats {
            iterations: 0,
            ripped: 0,
            max_pressure: sequential_pressure(state, &plans),
        };
        self.stats.absorb(&epoch);
        (plans, epoch)
    }
}

impl RoutingEngine for GreedyRouter<'_> {
    fn name(&self) -> &str {
        RouterKind::Greedy.as_str()
    }

    fn config(&self) -> &RouterConfig {
        self.router.config()
    }

    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        self.router.route(state, from, to)
    }

    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let plans = greedy_solve(&self.router, &mut self.scratch, state, requests);
        self.finish_batch(state, plans)
    }

    /// The probes are exactly the sequential answers, so they are the
    /// batch answer.
    fn route_batch_probed(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
        probed: Vec<RoutePlan>,
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        debug_assert_eq!(probed.len(), requests.len());
        self.finish_batch(state, probed.into_iter().map(Some).collect())
    }

    fn note_booked(&mut self, plan: &RoutePlan) {
        self.router.note_booked(plan);
    }

    fn stats(&self) -> RoutingStats {
        self.stats
    }
}

/// Maximum rip-up-and-reroute iterations per epoch of the PathFinder
/// negotiation loop. Effort only, never quality: both adoption gates
/// (`route_batch` keeps the greedy answer unless negotiation strictly
/// beats it, and `refine_epoch` keeps the incumbents likewise) floor
/// the result at the greedy solution regardless of how early the loop
/// stops.
const MAX_ITERATIONS: u32 = 4;

/// Initial present-congestion penalty per unit of overuse (cost units,
/// i.e. µs of equivalent travel).
const PRES_WEIGHT: u64 = 16;

/// Multiplier applied to the present penalty each iteration.
const PRES_GROWTH: u64 = 4;

/// Penalty per unit of accumulated segment history (carried across
/// epochs, so repeat offenders get spread out over the fabric).
const HIST_WEIGHT: u64 = 1;

/// PathFinder-style negotiated-congestion engine.
///
/// Per epoch: route every mover with soft capacities, find
/// over-capacity segments/junctions, rip up the routes crossing them
/// and re-route under growing present-congestion and history
/// penalties; finally commit under hard capacities. The committed
/// answer is compared against the greedy answer for the same batch and
/// the better one (fewer blocked movers, then smaller makespan, then
/// smaller total travel) is returned — negotiation can only help.
#[derive(Debug, Clone)]
pub struct NegotiatedRouter<'a> {
    router: Router<'a>,
    /// Cross-epoch per-segment history counters (the PathFinder `h_n`).
    history: Vec<u32>,
    /// Batch-internal tentative bookings, reused across epochs.
    extra_segments: Vec<u8>,
    extra_junctions: Vec<u8>,
    /// Resources the current epoch's tentative routes ever touched —
    /// the only places a conflict can appear, so the conflict scan
    /// skips the rest of the fabric. Deduplicated through the
    /// generation-stamped membership arrays below, and drained at the
    /// next epoch start to reset `extra_*` in O(touched) instead of
    /// O(fabric).
    touched: Vec<Resource>,
    seg_touched: Vec<u32>,
    junc_touched: Vec<u32>,
    touch_gen: u32,
    /// Per-iteration conflict marks: a resource is conflicted in the
    /// current rip-up round iff its stamp equals `conflict_gen`, giving
    /// the rip scan O(1) membership tests instead of a linear search
    /// through the conflict list.
    seg_conflict: Vec<u32>,
    junc_conflict: Vec<u32>,
    conflict_gen: u32,
    scratch: ResourceState,
    stats: RoutingStats,
}

impl<'a> NegotiatedRouter<'a> {
    /// Creates a negotiated engine over `topology`.
    pub fn new(topology: &'a Topology, config: RouterConfig) -> NegotiatedRouter<'a> {
        let n_seg = topology.segments().len();
        let n_junc = topology.junctions().len();
        NegotiatedRouter {
            router: Router::new(topology, config),
            history: vec![0; n_seg],
            extra_segments: vec![0; n_seg],
            extra_junctions: vec![0; n_junc],
            touched: Vec::new(),
            seg_touched: vec![0; n_seg],
            junc_touched: vec![0; n_junc],
            touch_gen: 0,
            seg_conflict: vec![0; n_seg],
            junc_conflict: vec![0; n_junc],
            conflict_gen: 0,
            scratch: ResourceState::new(topology),
            stats: RoutingStats::default(),
        }
    }

    /// Component-wise `(makespan, total)` lower bound over every joint
    /// routing of `requests`. If this already reaches an incumbent's
    /// lexicographic score, no negotiated answer can *strictly* beat
    /// the incumbent — each component of any joint answer is bounded
    /// below by the corresponding component here — so the negotiation
    /// can be skipped without changing which plans get adopted.
    ///
    /// Only called with routable movers: [`qspr_fabric::TravelBounds::min_duration`]
    /// is the exact empty-fabric minimum, and every capacity is at
    /// least 1, so each mover's bound is finite.
    fn joint_lower_bound(&self, requests: &[RouteRequest]) -> (Time, Time) {
        let topo = self.router.topology();
        let bounds = self.router.bounds();
        let mut mk = 0;
        let mut tot = 0;
        for req in requests {
            let d = bounds.min_duration(topo, req.from, req.to);
            mk = mk.max(d);
            tot += d;
        }
        (mk, tot)
    }

    /// The batch answer given the greedy incumbent `greedy`, the
    /// sequential routing of `requests` on `state`.
    fn negotiate_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
        greedy: Vec<Option<RoutePlan>>,
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let mut epoch = EpochStats {
            iterations: 0,
            ripped: 0,
            max_pressure: sequential_pressure(state, &greedy),
        };
        // A single mover has nothing to negotiate with.
        if requests.len() < 2 {
            self.stats.absorb(&epoch);
            return (greedy, epoch);
        }
        // Lower-bound gate: when greedy routed everyone and already
        // sits on the unconstrained-optimum score, negotiation cannot
        // strictly improve and would be discarded below — skip it.
        // Blocked movers always negotiate: unblocking beats any score.
        if greedy.iter().all(Option::is_some)
            && self.joint_lower_bound(requests) >= plan_score(greedy.iter().flatten())
        {
            self.stats.absorb(&epoch);
            return (greedy, epoch);
        }
        let negotiated = self.negotiate(state, requests, &mut epoch);
        // Negotiation may only improve on the greedy answer: fewer
        // blocked movers, then a smaller epoch makespan, then less
        // total travel. Ties return the greedy plans verbatim so the
        // two engines stay byte-identical on uncontended batches.
        let plans = if batch_score(&negotiated) < batch_score(&greedy) {
            negotiated
        } else {
            greedy
        };
        self.stats.absorb(&epoch);
        (plans, epoch)
    }

    /// Resets the epoch-local batch bookings by undoing only what the
    /// previous epoch touched.
    fn begin_epoch(&mut self) {
        for r in self.touched.drain(..) {
            match r {
                Resource::Segment(s) => self.extra_segments[s.index()] = 0,
                Resource::Junction(j) => self.extra_junctions[j.index()] = 0,
            }
        }
        self.touch_gen = self.touch_gen.wrapping_add(1);
        if self.touch_gen == 0 {
            // Generation 0 is skipped, so a 0 stamp is never current.
            self.seg_touched.fill(0);
            self.junc_touched.fill(0);
            self.touch_gen = 1;
        }
    }

    fn book_extra(&mut self, plan: &RoutePlan) {
        for u in plan.resources() {
            // Saturating: tentative soft-mode bookings are not capacity
            // checked, and a pathological epoch must stay merely
            // congested rather than wrap the counter.
            let stamp = match u.resource {
                Resource::Segment(s) => {
                    let slot = &mut self.extra_segments[s.index()];
                    *slot = slot.saturating_add(1);
                    &mut self.seg_touched[s.index()]
                }
                Resource::Junction(j) => {
                    let slot = &mut self.extra_junctions[j.index()];
                    *slot = slot.saturating_add(1);
                    &mut self.junc_touched[j.index()]
                }
            };
            if *stamp != self.touch_gen {
                *stamp = self.touch_gen;
                self.touched.push(u.resource);
            }
        }
    }

    fn unbook_extra(&mut self, plan: &RoutePlan) {
        for u in plan.resources() {
            match u.resource {
                Resource::Segment(s) => {
                    let slot = &mut self.extra_segments[s.index()];
                    *slot = slot.saturating_sub(1);
                }
                Resource::Junction(j) => {
                    let slot = &mut self.extra_junctions[j.index()];
                    *slot = slot.saturating_sub(1);
                }
            }
        }
    }

    /// Scans the touched resources for over-capacity ones, stamping
    /// each with the fresh conflict generation (and bumping its
    /// PathFinder history when it is a segment); also records the peak
    /// segment pressure into `epoch`. Returns the number of conflicts.
    /// An untouched resource has no batch bookings and the shared state
    /// is feasible by construction, so it cannot be over capacity.
    fn mark_conflicts(&mut self, state: &ResourceState, epoch: &mut EpochStats) -> usize {
        self.conflict_gen = self.conflict_gen.wrapping_add(1);
        if self.conflict_gen == 0 {
            // Generation 0 is skipped, so a 0 stamp is never current.
            self.seg_conflict.fill(0);
            self.junc_conflict.fill(0);
            self.conflict_gen = 1;
        }
        let mut conflicts = 0;
        for &resource in &self.touched {
            // Per-resource: a spec capacity override beats the global
            // technology default, so negotiation converges toward the
            // same feasibility the hard-capacity search enforces.
            let cap = self.router.capacity(resource);
            let extra = match resource {
                Resource::Segment(s) => self.extra_segments[s.index()],
                Resource::Junction(j) => self.extra_junctions[j.index()],
            };
            let n = state.usage(resource).saturating_add(extra);
            if extra > 0 {
                if let Resource::Segment(_) = resource {
                    epoch.max_pressure = epoch.max_pressure.max(n);
                }
            }
            if n > cap {
                conflicts += 1;
                match resource {
                    Resource::Segment(s) => {
                        self.seg_conflict[s.index()] = self.conflict_gen;
                        self.history[s.index()] += 1;
                    }
                    Resource::Junction(j) => self.junc_conflict[j.index()] = self.conflict_gen,
                }
            }
        }
        conflicts
    }

    /// Whether `resource` was marked conflicted by the latest
    /// [`NegotiatedRouter::mark_conflicts`] scan.
    fn is_conflicted(&self, resource: Resource) -> bool {
        match resource {
            Resource::Segment(s) => self.seg_conflict[s.index()] == self.conflict_gen,
            Resource::Junction(j) => self.junc_conflict[j.index()] == self.conflict_gen,
        }
    }

    /// The soft-mode negotiation overlay over the current batch
    /// bookings at present-congestion weight `pres`.
    fn overlay(&self, pres: u64) -> Overlay<'_> {
        Overlay {
            extra_segments: &self.extra_segments,
            extra_junctions: &self.extra_junctions,
            soft: true,
            pres_weight: pres,
            history: &self.history,
            hist_weight: HIST_WEIGHT,
        }
    }

    /// The negotiation proper: soft-capacity routing plus incremental
    /// rip-up-and-reroute (each round re-routes only the movers
    /// touching a conflicted resource), then a hard-capacity commit
    /// pass.
    fn negotiate(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
        epoch: &mut EpochStats,
    ) -> Vec<Option<RoutePlan>> {
        self.begin_epoch();
        let mut pres = PRES_WEIGHT;

        // Round 0: everyone routes, seeing the movers before them and
        // paying soft prices for contention.
        let mut plans: Vec<Option<RoutePlan>> = Vec::with_capacity(requests.len());
        for req in requests {
            let overlay = self.overlay(pres);
            let plan = self
                .router
                .route_with(state, req.from, req.to, Some(&overlay));
            if let Some(p) = &plan {
                self.book_extra(p);
            }
            plans.push(plan);
        }

        // Negotiation rounds: rip up whatever crosses an over-used
        // resource and let it find a less contended path; everyone else
        // keeps their route untouched.
        for _ in 0..MAX_ITERATIONS {
            if self.mark_conflicts(state, epoch) == 0 {
                break;
            }
            epoch.iterations += 1;
            pres = pres.saturating_mul(PRES_GROWTH);
            for slot in plans.iter_mut() {
                let crosses = slot
                    .as_ref()
                    .is_some_and(|p| p.resources().iter().any(|u| self.is_conflicted(u.resource)));
                if !crosses {
                    continue;
                }
                let ripped = slot.take().expect("crossing implies a plan");
                self.unbook_extra(&ripped);
                epoch.ripped += 1;
                let overlay = self.overlay(pres);
                let plan = self.router.route_with(
                    state,
                    ripped.from_trap(),
                    ripped.to_trap(),
                    Some(&overlay),
                );
                if let Some(p) = &plan {
                    self.book_extra(p);
                }
                *slot = plan;
            }
        }

        // Commit pass: hard capacities, request order. Keep each
        // negotiated plan that still fits; hard-reroute the rest.
        self.scratch.clone_from(state);
        let mut out = Vec::with_capacity(requests.len());
        for (slot, req) in plans.iter_mut().zip(requests) {
            let candidate = slot.take().filter(|p| fits(&self.scratch, p, &self.router));
            let plan = candidate.or_else(|| self.router.route(&self.scratch, req.from, req.to));
            if let Some(p) = &plan {
                for u in p.resources() {
                    self.scratch
                        .book(u.resource)
                        .expect("capacity-checked plans stay below u8::MAX bookings");
                }
            }
            out.push(plan);
        }
        out
    }
}

impl RoutingEngine for NegotiatedRouter<'_> {
    fn name(&self) -> &str {
        RouterKind::Negotiated.as_str()
    }

    fn config(&self) -> &RouterConfig {
        self.router.config()
    }

    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        self.router.route(state, from, to)
    }

    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let greedy = greedy_solve(&self.router, &mut self.scratch, state, requests);
        self.negotiate_batch(state, requests, greedy)
    }

    /// The probes are the greedy incumbent; negotiation proceeds from
    /// them exactly as from a fresh sequential solve.
    fn route_batch_probed(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
        probed: Vec<RoutePlan>,
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        debug_assert_eq!(probed.len(), requests.len());
        let greedy = probed.into_iter().map(Some).collect();
        self.negotiate_batch(state, requests, greedy)
    }

    fn note_booked(&mut self, plan: &RoutePlan) {
        self.router.note_booked(plan);
    }

    fn refines(&self) -> bool {
        true
    }

    fn refine_epoch(
        &mut self,
        state: &ResourceState,
        incumbents: &[RoutePlan],
    ) -> Option<Vec<RoutePlan>> {
        if incumbents.len() < 2 {
            return None;
        }
        let requests: Vec<RouteRequest> = incumbents
            .iter()
            .map(|p| RouteRequest::new(p.from_trap(), p.to_trap()))
            .collect();
        let incumbent_score = plan_score(incumbents.iter());
        // Lower-bound gate: incumbents at the unconstrained optimum
        // cannot be strictly improved, so the negotiation would never
        // be adopted — skip the whole rip-up.
        if self.joint_lower_bound(&requests) >= incumbent_score {
            return None;
        }
        let mut epoch = EpochStats::default();
        let negotiated = self.negotiate(state, &requests, &mut epoch);
        // Refinement rides an epoch that was already counted by the
        // per-instruction `route_batch` calls; only the negotiation
        // effort accumulates.
        self.stats.iterations += u64::from(epoch.iterations);
        self.stats.ripped += u64::from(epoch.ripped);
        self.stats.max_pressure = self.stats.max_pressure.max(epoch.max_pressure);

        // Adopt only a complete answer that strictly improves on the
        // incumbents (which are fully routed by construction).
        if negotiated.iter().any(Option::is_none) {
            return None;
        }
        let new_score = plan_score(negotiated.iter().flatten());
        if new_score < incumbent_score {
            Some(negotiated.into_iter().flatten().collect())
        } else {
            None
        }
    }

    fn stats(&self) -> RoutingStats {
        self.stats
    }
}

/// `true` when booking every resource of `plan` on top of `state` stays
/// within the effective (per-resource) capacities.
fn fits(state: &ResourceState, plan: &RoutePlan, router: &Router<'_>) -> bool {
    plan.resources()
        .iter()
        .all(|u| state.usage(u.resource) < router.capacity(u.resource))
}

/// Joint quality of a batch answer, smaller is better: blocked movers,
/// then the epoch makespan, then total travel time.
fn batch_score(plans: &[Option<RoutePlan>]) -> (usize, Time, Time) {
    let blocked = plans.iter().filter(|p| p.is_none()).count();
    let (makespan, total) = plan_score(plans.iter().flatten());
    (blocked, makespan, total)
}

/// (makespan, total travel) of a fully routed plan set.
fn plan_score<'p>(plans: impl Iterator<Item = &'p RoutePlan>) -> (Time, Time) {
    let mut makespan = 0;
    let mut total = 0;
    for p in plans {
        makespan = makespan.max(p.duration());
        total += p.duration();
    }
    (makespan, total)
}

/// The peak segment pressure of a sequential answer: the highest
/// usage any segment reaches while `plans` are booked on top of `state`
/// one after another (blocked slots book nothing). A plan books each
/// resource once, so booking plan `i` raises a segment to its usage in
/// `state`, plus one per earlier plan on it, plus one.
fn sequential_pressure(state: &ResourceState, plans: &[Option<RoutePlan>]) -> u8 {
    let mut pressure = 0u8;
    for (i, plan) in plans.iter().enumerate() {
        for u in plan.iter().flat_map(|p| p.resources()) {
            if let Resource::Segment(_) = u.resource {
                let earlier = plans[..i]
                    .iter()
                    .flatten()
                    .filter(|p| p.resources().iter().any(|e| e.resource == u.resource))
                    .count() as u8;
                pressure = pressure.max(state.usage(u.resource) + earlier + 1);
            }
        }
    }
    pressure
}

/// Sequential first-answer routing shared by both engines: request `i`
/// is routed under `state` plus the bookings of requests `0..i`.
fn greedy_solve(
    router: &Router<'_>,
    scratch: &mut ResourceState,
    state: &ResourceState,
    requests: &[RouteRequest],
) -> Vec<Option<RoutePlan>> {
    if let [req] = requests {
        // Hot path: single movers need no scratch bookings.
        return vec![router.route(state, req.from, req.to)];
    }
    scratch.clone_from(state);
    let mut plans = Vec::with_capacity(requests.len());
    for req in requests {
        let plan = router.route(scratch, req.from, req.to);
        for u in plan.iter().flat_map(|p| p.resources()) {
            scratch
                .book(u.resource)
                .expect("capacity-checked plans stay below u8::MAX bookings");
        }
        plans.push(plan);
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_fabric::{Coord, Fabric, TechParams};

    fn quale() -> Fabric {
        Fabric::quale_45x85()
    }

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("greedy".parse::<RouterKind>().unwrap(), RouterKind::Greedy);
        assert_eq!(
            "negotiated".parse::<RouterKind>().unwrap(),
            RouterKind::Negotiated
        );
        let err = "fancy".parse::<RouterKind>().unwrap_err();
        assert!(err.to_string().contains("unknown router"));
        assert_eq!(RouterKind::Negotiated.to_string(), "negotiated");
        assert_eq!(RouterKind::default(), RouterKind::Greedy);
    }

    #[test]
    fn factory_builds_matching_engines() {
        let fabric = quale();
        let topo = fabric.topology();
        let config = RouterConfig::qspr(&TechParams::date2012());
        for kind in [RouterKind::Greedy, RouterKind::Negotiated] {
            let factory: &dyn RouterFactory = &kind;
            let engine = factory.build(topo, config);
            assert_eq!(engine.name(), kind.as_str());
            assert_eq!(engine.config(), &config);
            assert_eq!(engine.stats(), RoutingStats::default());
        }
    }

    #[test]
    fn greedy_batch_matches_sequential_routing() {
        let fabric = quale();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let router = Router::new(topo, config);
        let mut engine = GreedyRouter::new(topo, config);
        let state = ResourceState::new(topo);
        let traps = topo.traps_by_distance(fabric.center());
        let requests = [
            RouteRequest::new(traps[0], traps[50]),
            RouteRequest::new(traps[1], traps[51]),
        ];

        let (plans, epoch) = engine.route_batch(&state, &requests);
        // Reference: route by hand, booking between the two.
        let mut manual = ResourceState::new(topo);
        let first = router.route(&manual, traps[0], traps[50]).unwrap();
        for u in first.resources() {
            manual.book(u.resource).unwrap();
        }
        let second = router.route(&manual, traps[1], traps[51]).unwrap();
        assert_eq!(plans[0].as_ref(), Some(&first));
        assert_eq!(plans[1].as_ref(), Some(&second));
        assert_eq!(epoch.iterations, 0);
        assert!(epoch.max_pressure >= 1);
        assert_eq!(engine.stats().epochs, 1);
    }

    #[test]
    fn negotiated_ties_return_greedy_plans_verbatim() {
        // Far-apart movers share nothing; negotiation must not diverge.
        let fabric = quale();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let state = ResourceState::new(topo);
        let order = topo.traps_by_distance(Coord::new(0, 0));
        let (n, far) = (order.len(), order.len() - 1);
        let requests = [
            RouteRequest::new(order[0], order[1]),
            RouteRequest::new(order[far], order[n - 2]),
        ];
        let mut greedy = GreedyRouter::new(topo, config);
        let mut negotiated = NegotiatedRouter::new(topo, config);
        let (gp, _) = greedy.route_batch(&state, &requests);
        let (np, ne) = negotiated.route_batch(&state, &requests);
        assert_eq!(gp, np);
        assert_eq!(ne.iterations, 0, "nothing shared, nothing to negotiate");
    }

    /// A fabric where mover A's *shortest* path monopolizes the one
    /// corridor mover B can use at all, while A has a slightly longer
    /// detour through a second corridor. Greedy routes A first (top
    /// corridor) and leaves B blocked under capacity 1; negotiation
    /// pushes A onto the detour so both movers route.
    fn two_corridor_fabric() -> Fabric {
        Fabric::from_ascii(
            "..T.......T..\n\
             .+---------+.\n\
             T|.........|T\n\
             .|.........|.\n\
             .+---------+.\n",
        )
        .unwrap()
    }

    #[test]
    fn negotiation_unblocks_capacity_one_conflicts() {
        let fabric = two_corridor_fabric();
        let topo = fabric.topology();
        let tech = TechParams::date2012().without_multiplexing();
        let config = RouterConfig {
            channel_capacity: 1,
            junction_capacity: 1,
            ..RouterConfig::qspr(&tech)
        };
        let state = ResourceState::new(topo);
        // A crosses left-to-right (detour exists); B lives on the top
        // corridor (no alternative).
        let a_src = topo.trap_at(Coord::new(2, 0)).unwrap();
        let a_dst = topo.trap_at(Coord::new(2, 12)).unwrap();
        let b_src = topo.trap_at(Coord::new(0, 2)).unwrap();
        let b_dst = topo.trap_at(Coord::new(0, 10)).unwrap();
        let requests = [
            RouteRequest::new(a_src, a_dst),
            RouteRequest::new(b_src, b_dst),
        ];

        let mut greedy = GreedyRouter::new(topo, config);
        let (gp, _) = greedy.route_batch(&state, &requests);
        assert!(gp[0].is_some());
        assert!(gp[1].is_none(), "greedy A monopolizes B's only corridor");

        let mut negotiated = NegotiatedRouter::new(topo, config);
        let (np, epoch) = negotiated.route_batch(&state, &requests);
        assert!(
            np[0].is_some() && np[1].is_some(),
            "negotiation routes both"
        );
        assert!(epoch.iterations >= 1, "a rip-up round was needed");
        assert!(epoch.ripped >= 1);
        assert!(epoch.max_pressure > config.channel_capacity);
        // The joint answer respects hard capacity: no shared resources.
        let mut seen = std::collections::BTreeSet::new();
        for plan in np.iter().flatten() {
            for u in plan.resources() {
                assert!(
                    seen.insert(u.resource),
                    "capacity-1 overlap on {}",
                    u.resource
                );
            }
        }
    }

    #[test]
    fn stats_accumulate_across_epochs() {
        let fabric = quale();
        let topo = fabric.topology();
        let config = RouterConfig::qspr(&TechParams::date2012());
        let mut engine = NegotiatedRouter::new(topo, config);
        let state = ResourceState::new(topo);
        let traps = topo.traps_by_distance(fabric.center());
        for i in 0..3 {
            let _ = engine.route_batch(&state, &[RouteRequest::new(traps[i], traps[i + 20])]);
        }
        assert_eq!(engine.stats().epochs, 3);
    }
}
