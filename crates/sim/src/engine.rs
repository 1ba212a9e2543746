//! The event-driven mapping engine (paper §III–§IV).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use qspr_fabric::{Coord, Fabric, TechParams, Time, Topology, TrapId};
use qspr_qasm::{Operands, Program, QubitId};
use qspr_route::{
    Resource, ResourceState, RoutePlan, RouteRequest, RouterFactory, RouterKind, RoutingEngine,
    Step, TravelBounds,
};
use qspr_sched::{InstrId, Qidg};

use crate::error::MapError;
use crate::outcome::{InstrStats, MappingOutcome};
use crate::placement::Placement;
use crate::policy::{IssueOrder, MapperPolicy, MovementPolicy};
use crate::trace::{MicroCommand, Trace, TraceEntry};

/// Maps programs onto a fabric under a given policy.
///
/// The mapper is reusable: each call to [`Mapper::map`] runs an
/// independent simulation. See the crate docs for an end-to-end example.
#[derive(Clone)]
pub struct Mapper<'a> {
    fabric: &'a Fabric,
    tech: TechParams,
    policy: MapperPolicy,
    router: Arc<dyn RouterFactory + Send + Sync>,
    record_trace: bool,
    order_boost: Option<Arc<Vec<Time>>>,
    jobs: usize,
    /// Empty-fabric travel bounds for pruning meeting-trap probes,
    /// filled on first use and shared by every run and clone of this
    /// mapper (all MVFB seeds of a flow, on any thread).
    bounds: Arc<TravelBounds<'a>>,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper over `fabric` with technology `tech` and `policy`.
    pub fn new(fabric: &'a Fabric, tech: TechParams, policy: MapperPolicy) -> Mapper<'a> {
        Mapper {
            fabric,
            tech,
            policy,
            router: Arc::new(RouterKind::Greedy),
            record_trace: false,
            order_boost: None,
            jobs: 1,
            bounds: Arc::new(TravelBounds::new(fabric.topology(), &policy.router)),
        }
    }

    /// Selects the batch-routing engine (a [`RouterKind`] for the
    /// built-in greedy/negotiated engines, or any custom
    /// [`RouterFactory`]). Defaults to [`RouterKind::Greedy`].
    pub fn router(mut self, router: impl RouterFactory + Send + Sync + 'static) -> Mapper<'a> {
        self.router = Arc::new(router);
        self
    }

    /// The name of the active routing engine.
    pub fn router_name(&self) -> &str {
        self.router.name()
    }

    /// Grants placers up to `jobs` worker threads (default 1) for
    /// running independent mappings concurrently: MVFB seeds and Monte
    /// Carlo draws. Purely a performance hint, since placers fold their
    /// results in seed order and answer byte-identically at every value.
    /// [`Mapper::map`] itself always runs on the calling thread.
    ///
    /// Clamped to at least 1 and at most the host's available
    /// parallelism: more workers than cores cannot overlap anything.
    pub fn jobs(mut self, jobs: usize) -> Mapper<'a> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.jobs = jobs.clamp(1, cores);
        self
    }

    /// The worker-thread grant set by [`Mapper::jobs`].
    pub fn job_count(&self) -> usize {
        self.jobs
    }

    /// Enables or disables micro-command trace recording (off by default;
    /// placers run thousands of mappings and only need latencies).
    pub fn record_trace(mut self, record: bool) -> Mapper<'a> {
        self.record_trace = record;
        self
    }

    /// Adds a per-instruction priority boost (µs of measured critical
    /// distance, indexed by instruction) to the list-scheduling order —
    /// the scheduler half of the sta feedback loop. Only priority-list
    /// issue orders are affected
    /// ([`qspr_sched::Qidg::priorities_with_boost`]); ALAP/ASAP baseline
    /// orders replay their fixed schedules and ignore it.
    pub fn order_boost(mut self, boost: Vec<Time>) -> Mapper<'a> {
        self.order_boost = Some(Arc::new(boost));
        self
    }

    /// The fabric this mapper targets.
    pub fn fabric(&self) -> &Fabric {
        self.fabric
    }

    /// The technology parameters in use.
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// The active policy.
    pub fn policy(&self) -> &MapperPolicy {
        &self.policy
    }

    /// Schedules, places (per the given initial placement) and routes
    /// `program`, returning the full mapping outcome.
    ///
    /// # Errors
    ///
    /// Returns a [`MapError`] when the placement is inconsistent with the
    /// program/fabric, or when the simulation stalls (unroutable operand
    /// pair on a disconnected fabric, or no trap ever frees up).
    pub fn map(
        &self,
        program: &Program,
        placement: &Placement,
    ) -> Result<MappingOutcome, MapError> {
        let _span = qspr_obs::span("map");
        placement.check(self.fabric, program.num_qubits())?;
        let qidg = Qidg::new(program, &self.tech);
        let boost: &[Time] = self.order_boost.as_deref().map_or(&[], Vec::as_slice);
        let order_key: Vec<f64> = match self.policy.order {
            IssueOrder::PriorityList(w) => qidg
                .priorities_with_boost(&w, boost)
                .iter()
                .map(|p| -p)
                .collect(),
            IssueOrder::Alap => {
                let alap = qidg.alap();
                qidg.topo_order().map(|id| alap.start(id) as f64).collect()
            }
            IssueOrder::Asap => {
                let asap = qidg.asap();
                qidg.topo_order().map(|id| asap.start(id) as f64).collect()
            }
        };
        let sim = Sim::new(self, &qidg, placement, order_key);
        sim.run()
    }
}

impl fmt::Debug for Mapper<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mapper")
            .field(
                "fabric",
                &format_args!("{}x{}", self.fabric.rows(), self.fabric.cols()),
            )
            .field("policy", &self.policy)
            .field("router", &self.router.name())
            .field("record_trace", &self.record_trace)
            .field("order_boost", &self.order_boost.is_some())
            .finish()
    }
}

/// A scheduled simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Time,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A qubit exits a channel segment or junction; its booking frees.
    Release(Resource),
    /// One operand of `InstrId` reached the target trap.
    Arrived(InstrId),
    /// The gate of `InstrId` finished.
    GateDone(InstrId),
    /// A qubit completed its shuttle back to its home trap
    /// ([`MovementPolicy::ReturnToHome`]) and is usable again.
    ReturnedHome(QubitId),
}

/// A blocked work item waiting for fabric resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusyItem {
    /// The instruction has not been issued at all.
    Unissued(InstrId),
    /// One operand is already at (or moving to) the meeting trap; the
    /// other still needs a route (staged movement, required whenever
    /// channel capacity 1 forbids simultaneous operand motion).
    SecondLeg(InstrId),
    /// A qubit whose post-gate shuttle home is blocked on channels.
    ReturnLeg(QubitId),
}

impl BusyItem {
    /// Sort key: instructions order by their schedule key; return legs
    /// ride along with the highest urgency (they unblock dependents).
    fn sort_instr(self) -> Option<InstrId> {
        match self {
            BusyItem::Unissued(id) | BusyItem::SecondLeg(id) => Some(id),
            BusyItem::ReturnLeg(_) => None,
        }
    }
}

/// What a routed leg serves: an instruction operand (fires `Arrived`)
/// or a storage-model shuttle home (fires `ReturnedHome`).
#[derive(Debug, Clone, Copy)]
enum LegOwner {
    Instr(InstrId),
    Return(QubitId),
}

struct Sim<'m, 'a> {
    mapper: &'m Mapper<'a>,
    topo: &'a Topology,
    qidg: &'m Qidg,
    order_key: Vec<f64>,
    engine: Box<dyn RoutingEngine + 'a>,
    /// Engine implements epoch refinement: buffer legs per issue phase
    /// and let it rip up and re-route the joint set before events are
    /// scheduled.
    defer_epoch: bool,
    /// Legs committed during the current scheduling epoch whose
    /// finalization (events, stats, trace) waits until the epoch's
    /// full mover set is known, so a refining engine can still swap
    /// plans. Plans live in their own vector so the engine can see the
    /// incumbents in place — no per-epoch cloning; `epoch_owners[i]`
    /// describes `epoch_plans[i]`. Both buffers keep their capacity
    /// across issue phases.
    epoch_plans: Vec<RoutePlan>,
    epoch_owners: Vec<(QubitId, LegOwner)>,
    /// Reused issue-phase candidate list (drained every pass).
    candidate_buf: Vec<BusyItem>,
    resources: ResourceState,
    /// Per-trap count of physically present plus reserved qubits.
    trap_occupancy: Vec<u8>,
    /// Destination trap of each qubit (its trap once all issued moves
    /// complete).
    qubit_trap: Vec<TrapId>,
    /// The trap a qubit must be routed *from*: equals `qubit_trap` except
    /// for pending second legs that have not physically left yet.
    phys_trap: Vec<TrapId>,
    /// Current cell of each qubit, for trace recording.
    qubit_coord: Vec<Coord>,
    /// Unfinished dependency count per instruction.
    pending: Vec<u32>,
    ready: Vec<InstrId>,
    busy: Vec<BusyItem>,
    resources_changed: bool,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    time: Time,
    arrivals_needed: Vec<u8>,
    arrivals_done: Vec<u8>,
    /// The unrouted mover of a half-issued instruction.
    second_leg: Vec<Option<QubitId>>,
    gate_trap: Vec<TrapId>,
    /// Fixed home trap per qubit (the initial placement), used by the
    /// return-to-home movement policy.
    home_trap: Vec<TrapId>,
    /// Qubits currently shuttling home (unusable until they arrive).
    in_transit: Vec<bool>,
    /// For a queued return leg: the trap the qubit still sits in.
    return_from: Vec<Option<TrapId>>,
    stats: Vec<InstrStats>,
    trace: Option<Vec<TraceEntry>>,
    finished: usize,
    /// [`qspr_obs::enabled`] cached at construction: the issue/route/
    /// finalize hooks fire tens of thousands of times per map, so even
    /// the disabled tracer fast path (one relaxed atomic load) is
    /// hoisted out of the hot loops behind this predicted branch.
    obs: bool,
    /// First booking-counter saturation observed
    /// ([`qspr_fabric::FabricError::CapacityOverflow`]); the event loop
    /// aborts the run with it after the current issue phase.
    saturated: Option<MapError>,
}

/// Books `resource`, recording a typed overflow in `saturated` instead
/// of panicking; the run aborts with the first recorded error at the
/// next event-loop check. A free function (not a `Sim` method) so call
/// sites holding other `Sim` field borrows can still book.
fn book_or_flag(
    resources: &mut ResourceState,
    saturated: &mut Option<MapError>,
    resource: Resource,
) {
    if let Err(e) = resources.book(resource) {
        saturated.get_or_insert(MapError::from(e));
    }
}

impl<'m, 'a> Sim<'m, 'a> {
    fn new(
        mapper: &'m Mapper<'a>,
        qidg: &'m Qidg,
        placement: &Placement,
        order_key: Vec<f64>,
    ) -> Sim<'m, 'a> {
        let topo = mapper.fabric.topology();
        let n = qidg.len();
        let mut trap_occupancy = vec![0u8; topo.traps().len()];
        for &t in placement.as_slice() {
            trap_occupancy[t.index()] += 1;
        }
        let qubit_coord = placement
            .as_slice()
            .iter()
            .map(|&t| topo.trap(t).coord())
            .collect();
        let pending: Vec<u32> = qidg
            .topo_order()
            .map(|id| qidg.preds(id).len() as u32)
            .collect();
        let ready: Vec<InstrId> = qidg
            .topo_order()
            .filter(|id| pending[id.index()] == 0)
            .collect();
        let engine = mapper.router.build(topo, mapper.policy.router);
        Sim {
            defer_epoch: engine.refines(),
            epoch_plans: Vec::new(),
            epoch_owners: Vec::new(),
            candidate_buf: Vec::new(),
            engine,
            resources: ResourceState::new(topo),
            mapper,
            topo,
            qidg,
            order_key,
            trap_occupancy,
            qubit_trap: placement.as_slice().to_vec(),
            phys_trap: placement.as_slice().to_vec(),
            qubit_coord,
            pending,
            ready,
            busy: Vec::new(),
            resources_changed: false,
            events: BinaryHeap::new(),
            seq: 0,
            time: 0,
            arrivals_needed: vec![0; n],
            arrivals_done: vec![0; n],
            second_leg: vec![None; n],
            gate_trap: vec![TrapId(0); n],
            home_trap: placement.as_slice().to_vec(),
            in_transit: vec![false; placement.num_qubits()],
            return_from: vec![None; placement.num_qubits()],
            stats: vec![InstrStats::default(); n],
            trace: mapper.record_trace.then(Vec::new),
            finished: 0,
            obs: qspr_obs::enabled(),
            saturated: None,
        }
    }

    fn run(mut self) -> Result<MappingOutcome, MapError> {
        let _span = self.obs.then(|| qspr_obs::span("simulate"));
        self.issue_phase();
        while let Some(&Reverse(next)) = self.events.peek() {
            if let Some(e) = self.saturated.take() {
                return Err(e);
            }
            let t = next.time;
            debug_assert!(t >= self.time, "event time went backwards");
            self.time = t;
            while let Some(&Reverse(ev)) = self.events.peek() {
                if ev.time != t {
                    break;
                }
                let ev = self.events.pop().expect("peeked").0;
                self.process(ev.kind);
            }
            self.issue_phase();
        }
        if let Some(e) = self.saturated.take() {
            return Err(e);
        }
        if self.finished != self.qidg.len() {
            return Err(MapError::Stalled {
                remaining: self.qidg.len() - self.finished,
            });
        }
        let latency = self.stats.iter().map(|s| s.finish).max().unwrap_or(0);
        let final_placement = Placement::new(self.qubit_trap.clone())
            .expect("occupancy bookkeeping caps traps at two qubits");
        let trace = self.trace.take().map(Trace::new);
        let routing = self.engine.stats();
        Ok(MappingOutcome::new(
            latency,
            self.stats,
            final_placement,
            trace,
            routing,
        ))
    }

    fn process(&mut self, kind: EventKind) {
        match kind {
            EventKind::Release(resource) => {
                self.resources.release(resource);
                self.resources_changed = true;
            }
            EventKind::Arrived(id) => {
                self.arrivals_done[id.index()] += 1;
                if self.arrivals_done[id.index()] == self.arrivals_needed[id.index()] {
                    self.begin_gate(id);
                }
            }
            EventKind::GateDone(id) => {
                self.stats[id.index()].finish = self.time;
                self.finished += 1;
                self.emit(self.time, MicroCommand::GateEnd { instr: id });
                for &s in self.qidg.succs(id) {
                    let p = &mut self.pending[s.index()];
                    *p -= 1;
                    if *p == 0 {
                        self.stats[s.index()].ready_at = self.time;
                        self.ready.push(s);
                    }
                }
                // Under the storage model, the visiting source qubit now
                // shuttles back to its home trap.
                if self.mapper.policy.movement == MovementPolicy::ReturnToHome {
                    if let Operands::Two { control, .. } = self.qidg.instruction(id).operands {
                        let here = self.gate_trap[id.index()];
                        if self.home_trap[control.index()] != here {
                            self.in_transit[control.index()] = true;
                            self.return_from[control.index()] = Some(here);
                            if !self.try_return_leg(control) {
                                self.busy.push(BusyItem::ReturnLeg(control));
                            }
                        }
                    }
                }
            }
            EventKind::ReturnedHome(q) => {
                self.in_transit[q.index()] = false;
                self.resources_changed = true;
            }
        }
    }

    /// Issues every instruction that can start now, in policy order,
    /// looping until a fixpoint (an issue can free traps that unblock
    /// other instructions).
    fn issue_phase(&mut self) {
        let _span = self.obs.then(|| qspr_obs::span("issue"));
        loop {
            let mut candidates = std::mem::take(&mut self.candidate_buf);
            debug_assert!(candidates.is_empty());
            candidates.extend(self.ready.drain(..).map(BusyItem::Unissued));
            if self.resources_changed && !self.busy.is_empty() {
                candidates.append(&mut self.busy);
            }
            if candidates.is_empty() {
                self.candidate_buf = candidates;
                break;
            }
            self.resources_changed = false;
            candidates.sort_by(|a, b| {
                let key = |item: &BusyItem| match item.sort_instr() {
                    Some(id) => (self.order_key[id.index()], id.0),
                    // Return legs first: they free traps and qubits.
                    None => (f64::NEG_INFINITY, 0),
                };
                let (ka, kb) = (key(a), key(b));
                ka.0.partial_cmp(&kb.0)
                    .expect("priorities are finite")
                    .then(ka.1.cmp(&kb.1))
            });
            let strict = self.mapper.policy.strict_order;
            let mut progressed = false;
            let mut head_blocked = false;
            for item in candidates.drain(..) {
                let issued = match item {
                    // Under strict extraction, a blocked instruction
                    // holds back every unissued instruction behind it;
                    // second/return legs belong to already-issued
                    // operations and may always proceed.
                    BusyItem::Unissued(_) if strict && head_blocked => false,
                    BusyItem::Unissued(id) => self.try_issue(id),
                    BusyItem::SecondLeg(id) => self.try_second_leg(id),
                    BusyItem::ReturnLeg(q) => self.try_return_leg(q),
                };
                if issued {
                    progressed = true;
                } else {
                    if matches!(item, BusyItem::Unissued(_)) {
                        head_blocked = true;
                    }
                    self.busy.push(item);
                }
            }
            self.candidate_buf = candidates;
            if !progressed {
                break;
            }
        }
        self.finalize_epoch();
    }

    /// Ends the current scheduling epoch: a refining engine gets one
    /// shot at rip-up-and-reroute over every leg committed this phase,
    /// then each leg's events, stats and trace are realized.
    fn finalize_epoch(&mut self) {
        if self.epoch_plans.is_empty() {
            return;
        }
        let _span = self.obs.then(|| qspr_obs::span("finalize"));
        let mut plans = std::mem::take(&mut self.epoch_plans);
        let mut owners = std::mem::take(&mut self.epoch_owners);
        if plans.len() >= 2 {
            let _span = self.obs.then(|| qspr_obs::span("refine"));
            // Rip the epoch's bookings out, offer the joint set to the
            // engine in place (no incumbent cloning), and book whatever
            // survives (the incumbents when the engine declines).
            for plan in &plans {
                for usage in plan.resources() {
                    self.resources.release(usage.resource);
                }
            }
            if let Some(better) = self.engine.refine_epoch(&self.resources, &plans) {
                debug_assert_eq!(better.len(), plans.len());
                for (incumbent, replacement) in plans.iter_mut().zip(better) {
                    debug_assert_eq!(incumbent.from_trap(), replacement.from_trap());
                    debug_assert_eq!(incumbent.to_trap(), replacement.to_trap());
                    *incumbent = replacement;
                }
                // The adopted set books different resources; blocked
                // work may be routable now.
                self.resources_changed = true;
            }
            for plan in &plans {
                for usage in plan.resources() {
                    book_or_flag(&mut self.resources, &mut self.saturated, usage.resource);
                }
            }
        }
        for (&(qubit, owner), plan) in owners.iter().zip(&plans) {
            self.finalize_leg(qubit, plan, owner);
        }
        // Hand the (now empty) buffers back so the next epoch reuses
        // their capacity.
        plans.clear();
        owners.clear();
        self.epoch_plans = plans;
        self.epoch_owners = owners;
    }

    /// Realizes one committed leg: instruction stats, release/arrival
    /// events, and the motion trace.
    fn finalize_leg(&mut self, qubit: QubitId, plan: &RoutePlan, owner: LegOwner) {
        // History terms must see the plan that actually executes, which
        // for refining engines is only fixed at finalization time.
        self.engine.note_booked(plan);
        if let LegOwner::Instr(id) = owner {
            self.stats[id.index()].moves += plan.moves();
            self.stats[id.index()].turns += plan.turns();
        }
        for usage in plan.resources() {
            self.schedule(
                self.time + usage.exit_offset,
                EventKind::Release(usage.resource),
            );
        }
        match owner {
            LegOwner::Instr(id) => {
                self.schedule(self.time + plan.duration(), EventKind::Arrived(id))
            }
            LegOwner::Return(q) => {
                self.schedule(self.time + plan.duration(), EventKind::ReturnedHome(q))
            }
        }
        self.record_motion(qubit, plan);
    }

    /// Commits one routed mover: finalized immediately under a
    /// non-refining engine (the historical behavior), or buffered until
    /// the end of the epoch otherwise.
    fn commit_motion(&mut self, qubit: QubitId, plan: RoutePlan, owner: LegOwner) {
        if self.defer_epoch {
            self.epoch_owners.push((qubit, owner));
            self.epoch_plans.push(plan);
        } else {
            self.finalize_leg(qubit, &plan, owner);
        }
    }

    /// Attempts to issue one instruction; returns `false` when blocked.
    fn try_issue(&mut self, id: InstrId) -> bool {
        let instr = *self.qidg.instruction(id);
        // Operands still shuttling home are unusable.
        if instr.qubits().any(|q| self.in_transit[q.index()]) {
            return false;
        }
        match instr.operands {
            Operands::One(q) => {
                self.stats[id.index()].issued_at = self.time;
                self.arrivals_needed[id.index()] = 0;
                self.gate_trap[id.index()] = self.qubit_trap[q.index()];
                self.begin_gate(id);
                true
            }
            Operands::Two { control, target } => {
                if self.mapper.policy.movement == MovementPolicy::ReturnToHome {
                    return self.try_issue_return_to_home(id, control, target);
                }
                let tc = self.qubit_trap[control.index()];
                let tt = self.qubit_trap[target.index()];
                if tc == tt {
                    self.stats[id.index()].issued_at = self.time;
                    self.arrivals_needed[id.index()] = 0;
                    self.gate_trap[id.index()] = tc;
                    self.begin_gate(id);
                    return true;
                }
                // The winning meeting probe's plans, when it routed every
                // mover: exactly what the engine's sequential search
                // would find for this batch.
                let mut probed = None;
                let meeting = match self.mapper.policy.movement {
                    MovementPolicy::ReturnToHome => {
                        unreachable!("handled by try_issue_return_to_home")
                    }
                    MovementPolicy::BothToMedian => {
                        // The paper picks the meeting point "so as to
                        // minimize the movement delay": compare the free
                        // trap nearest the median (both operands move)
                        // against hosting the gate in either operand's
                        // own trap (one operand moves), and keep the
                        // cheapest routable choice.
                        match self.cheapest_meeting(tc, tt) {
                            Some((t, plans)) => {
                                probed = plans;
                                t
                            }
                            None => return false,
                        }
                    }
                    MovementPolicy::SourceToDestination => {
                        if self.trap_occupancy[tt.index()] <= 1 {
                            tt
                        } else {
                            // The destination trap already hosts a second
                            // qubit from an earlier gate; fall back to the
                            // nearest free trap so the trap never exceeds
                            // its two-ion capacity (the destination
                            // operand then hops over too).
                            let occ = &self.trap_occupancy;
                            match self
                                .topo
                                .nearest_trap(self.topo.trap(tt).coord(), |t| occ[t.index()] == 0)
                            {
                                Some(t) => t,
                                None => return false,
                            }
                        }
                    }
                };

                // Route the epoch's movers as one batch through the
                // engine: the greedy engine reproduces the historical
                // one-after-another behavior, the negotiated engine
                // rips up and re-routes the joint answer. A mover whose
                // route is blocked becomes a *pending second leg*: it
                // keeps its seat in the source trap (plus a reservation
                // at the meeting trap) and is routed later, when
                // channels free up. This staging is what keeps
                // capacity-1 configurations live: two qubits can never
                // share the meeting trap's port segment at once.
                // At most two movers: fixed-size stack batches, no
                // per-instruction allocation.
                let mut movers = [(control, tc); 2];
                let mut requests = [RouteRequest::new(tc, meeting); 2];
                let mut n_movers = 0;
                for (q, from) in [(control, tc), (target, tt)] {
                    // SourceToDestination target stays put.
                    if from != meeting {
                        movers[n_movers] = (q, from);
                        requests[n_movers] = RouteRequest::new(from, meeting);
                        n_movers += 1;
                    }
                }
                let plans = self.route_with_epoch(&requests[..n_movers], probed);
                let routed = plans.iter().filter(|p| p.is_some()).count();
                if routed == 0 {
                    // Nothing committed; the whole instruction waits.
                    return false;
                }
                debug_assert!(n_movers - routed <= 1, "at most two movers");

                // Commit.
                self.stats[id.index()].issued_at = self.time;
                self.gate_trap[id.index()] = meeting;
                self.arrivals_needed[id.index()] = n_movers as u8;
                self.arrivals_done[id.index()] = 0;
                for (&(q, _), plan) in movers[..n_movers].iter().zip(plans) {
                    match plan {
                        Some(plan) => {
                            for usage in plan.resources() {
                                book_or_flag(
                                    &mut self.resources,
                                    &mut self.saturated,
                                    usage.resource,
                                );
                            }
                            self.commit_leg(id, q, plan, meeting);
                        }
                        None => {
                            // Reserve the meeting seat; the qubit
                            // physically stays put (and keeps its
                            // source-trap seat) until routable.
                            self.trap_occupancy[meeting.index()] += 1;
                            self.qubit_trap[q.index()] = meeting;
                            self.second_leg[id.index()] = Some(q);
                            self.busy.push(BusyItem::SecondLeg(id));
                        }
                    }
                }
                // Freed source traps may unblock busy instructions.
                self.resources_changed = true;
                if self.arrivals_needed[id.index()] == 0 {
                    self.begin_gate(id);
                }
                true
            }
        }
    }

    /// Chooses the cheapest meeting trap for a QSPR-style 2-qubit gate:
    /// the free trap nearest the operands' median (both move), or either
    /// operand's trap when it has a spare seat (one moves). Cost is the
    /// later arrival time of the movers, estimated by routing under the
    /// current bookings; unroutable candidates are skipped. Falls back to
    /// the median trap (handled downstream via staged movement) when no
    /// candidate routes completely.
    ///
    /// Returns the trap with the winning candidate's probed plans, in
    /// the order [`Sim::try_issue`] requests its movers, or `None` for
    /// the median fallback.
    fn cheapest_meeting(
        &mut self,
        tc: TrapId,
        tt: TrapId,
    ) -> Option<(TrapId, Option<Vec<RoutePlan>>)> {
        let a = self.topo.trap(tc).coord();
        let b = self.topo.trap(tt).coord();
        let median = Coord::new((a.row + b.row) / 2, (a.col + b.col) / 2);
        let occ = &self.trap_occupancy;
        let median_trap = self.topo.nearest_trap(median, |t| occ[t.index()] == 0);

        // At most three candidates with at most two movers each:
        // fixed-size stack scratch, no allocation in this hot path.
        let mut candidates = [(tc, [None, None]); 3];
        let mut n_cand = 0;
        if let Some(m) = median_trap {
            candidates[n_cand] = (m, [Some(tc), Some(tt)]);
            n_cand += 1;
        }
        if self.trap_occupancy[tt.index()] <= 1 {
            candidates[n_cand] = (tt, [Some(tc), None]);
            n_cand += 1;
        }
        if self.trap_occupancy[tc.index()] <= 1 {
            candidates[n_cand] = (tc, [Some(tt), None]);
            n_cand += 1;
        }

        let _span = self.obs.then(|| qspr_obs::span("probe"));
        let bounds = &*self.mapper.bounds;
        let mut best: Option<(Time, TrapId, [Option<RoutePlan>; 2])> = None;
        for &(meeting, movers) in &candidates[..n_cand] {
            // Exact pruning: no booking state routes a mover faster than
            // the empty fabric, so a candidate whose slowest mover's
            // bound already reaches the best cost cannot win the strict
            // `<` below.
            if let Some((bw, ..)) = best {
                let bound = movers
                    .iter()
                    .flatten()
                    .map(|&from| bounds.min_duration(from, meeting))
                    .max()
                    .unwrap_or(0);
                if bound >= bw {
                    continue;
                }
            }
            // Route the movers sequentially with temporary bookings so
            // the second sees the first's load, then roll back.
            let mut booked: [Option<RoutePlan>; 2] = [None, None];
            let mut worst: Option<Time> = Some(0);
            for (slot, from) in booked.iter_mut().zip(movers.iter().flatten()) {
                match self.engine.route_one(&self.resources, *from, meeting) {
                    Some(plan) => {
                        for usage in plan.resources() {
                            book_or_flag(&mut self.resources, &mut self.saturated, usage.resource);
                        }
                        worst = worst.map(|w| w.max(plan.duration()));
                        *slot = Some(plan);
                    }
                    None => {
                        worst = None;
                        break;
                    }
                }
            }
            for plan in booked.iter().flatten() {
                for usage in plan.resources() {
                    self.resources.release(usage.resource);
                }
            }
            if let Some(w) = worst {
                if best.as_ref().map_or(true, |(bw, ..)| w < *bw) {
                    best = Some((w, meeting, booked));
                }
            }
        }
        match best {
            Some((_, meeting, plans)) => {
                Some((meeting, Some(plans.into_iter().flatten().collect())))
            }
            // No candidate routes completely right now: hand the median
            // trap to the staged-movement path, which can move one
            // operand and queue the other.
            None => median_trap.map(|m| (m, None)),
        }
    }

    /// Issues a two-qubit gate under the storage (return-to-home) model:
    /// the source visits the destination's home trap; the return trip is
    /// scheduled when the gate completes.
    fn try_issue_return_to_home(&mut self, id: InstrId, control: QubitId, target: QubitId) -> bool {
        let src_home = self.home_trap[control.index()];
        let dst_home = self.home_trap[target.index()];
        debug_assert_eq!(self.qubit_trap[control.index()], src_home);
        debug_assert_eq!(self.qubit_trap[target.index()], dst_home);
        // The destination trap must have a seat for the visitor.
        if self.trap_occupancy[dst_home.index()] >= 2 {
            return false;
        }
        let Some(plan) = self.route_single(src_home, dst_home) else {
            return false;
        };
        for usage in plan.resources() {
            book_or_flag(&mut self.resources, &mut self.saturated, usage.resource);
        }
        self.stats[id.index()].issued_at = self.time;
        self.gate_trap[id.index()] = dst_home;
        self.arrivals_needed[id.index()] = 1;
        self.arrivals_done[id.index()] = 0;
        // The home seat stays reserved; only the visit seat is added.
        self.trap_occupancy[dst_home.index()] += 1;
        self.qubit_trap[control.index()] = dst_home;
        self.phys_trap[control.index()] = dst_home;
        self.commit_motion(control, plan, LegOwner::Instr(id));
        self.resources_changed = true;
        true
    }

    /// Routes one mover through the engine as a single-request epoch.
    fn route_single(&mut self, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        let mut plans = self.route_with_epoch(&[RouteRequest::new(from, to)], None);
        plans.pop().flatten()
    }

    /// Routes `requests` through the engine, handing it the movers'
    /// `probed` plans when meeting-trap selection already routed them
    /// all. When some movers come back blocked and the engine refines
    /// epochs, the epoch's still uncommitted legs are ripped up and
    /// negotiated *jointly* with the new movers — rerouting an earlier
    /// leg can clear the channel a blocked mover needs, letting it issue
    /// this epoch instead of waiting out the congestion. The epoch legs
    /// always stay fully routed; the joint answer is only adopted when
    /// it strictly unblocks movers.
    fn route_with_epoch(
        &mut self,
        requests: &[RouteRequest],
        probed: Option<Vec<RoutePlan>>,
    ) -> Vec<Option<RoutePlan>> {
        // A greedy handoff searches nothing, so it opens no `route`
        // span; a refining engine may still negotiate the probed set.
        let _span =
            (self.obs && (probed.is_none() || self.defer_epoch)).then(|| qspr_obs::span("route"));
        let (plans, _epoch) = match probed {
            Some(probed) => self
                .engine
                .route_batch_probed(&self.resources, requests, probed),
            None => self.engine.route_batch(&self.resources, requests),
        };
        if !self.defer_epoch || self.epoch_plans.is_empty() || plans.iter().all(Option::is_some) {
            return plans;
        }
        // Rip the epoch's tentative bookings and renegotiate everything
        // together.
        for plan in &self.epoch_plans {
            for usage in plan.resources() {
                self.resources.release(usage.resource);
            }
        }
        let joint: Vec<RouteRequest> = self
            .epoch_plans
            .iter()
            .map(|p| RouteRequest::new(p.from_trap(), p.to_trap()))
            .chain(requests.iter().copied())
            .collect();
        let (mut joint_plans, _epoch) = self.engine.route_batch(&self.resources, &joint);
        let new_plans = joint_plans.split_off(self.epoch_plans.len());
        let legs_stay_routed = joint_plans.iter().all(Option::is_some);
        let unblocked = new_plans.iter().flatten().count() > plans.iter().flatten().count();
        if legs_stay_routed && unblocked {
            for (incumbent, plan) in self.epoch_plans.iter_mut().zip(joint_plans) {
                *incumbent = plan.expect("checked: all legs routed");
            }
            self.book_epoch_plans();
            new_plans
        } else {
            // Keep the incumbents; the movers stay blocked for now.
            self.book_epoch_plans();
            plans
        }
    }

    /// Re-books every buffered epoch plan's resources.
    fn book_epoch_plans(&mut self) {
        for plan in &self.epoch_plans {
            for usage in plan.resources() {
                book_or_flag(&mut self.resources, &mut self.saturated, usage.resource);
            }
        }
    }

    /// Routes a finished visitor back to its home trap.
    fn try_return_leg(&mut self, q: QubitId) -> bool {
        let from = self.return_from[q.index()].expect("return leg is pending");
        let home = self.home_trap[q.index()];
        let Some(plan) = self.route_single(from, home) else {
            return false;
        };
        for usage in plan.resources() {
            book_or_flag(&mut self.resources, &mut self.saturated, usage.resource);
        }
        self.return_from[q.index()] = None;
        self.trap_occupancy[from.index()] -= 1;
        self.qubit_trap[q.index()] = home;
        self.phys_trap[q.index()] = home;
        self.commit_motion(q, plan, LegOwner::Return(q));
        self.resources_changed = true;
        true
    }

    /// Routes the held-back mover of a half-issued instruction.
    fn try_second_leg(&mut self, id: InstrId) -> bool {
        let q = self.second_leg[id.index()].expect("second leg is pending");
        let from = self.phys_trap[q.index()];
        let meeting = self.gate_trap[id.index()];
        match self.route_single(from, meeting) {
            Some(plan) => {
                for usage in plan.resources() {
                    book_or_flag(&mut self.resources, &mut self.saturated, usage.resource);
                }
                // The meeting seat was reserved at first-half commit; only
                // the source seat frees now.
                self.trap_occupancy[from.index()] -= 1;
                self.second_leg[id.index()] = None;
                self.phys_trap[q.index()] = meeting;
                self.commit_motion(q, plan, LegOwner::Instr(id));
                self.resources_changed = true;
                true
            }
            None => false,
        }
    }

    /// Books the events, occupancy transfer and trace output of one
    /// routed mover.
    fn commit_leg(&mut self, id: InstrId, q: QubitId, plan: RoutePlan, meeting: TrapId) {
        self.trap_occupancy[self.qubit_trap[q.index()].index()] -= 1;
        self.trap_occupancy[meeting.index()] += 1;
        self.qubit_trap[q.index()] = meeting;
        self.phys_trap[q.index()] = meeting;
        self.commit_motion(q, plan, LegOwner::Instr(id));
    }

    fn begin_gate(&mut self, id: InstrId) {
        let delay = self.qidg.delay(id);
        self.stats[id.index()].gate_start = self.time;
        let instr = self.qidg.instruction(id);
        let (q0, q1) = match instr.operands {
            Operands::One(q) => (q, None),
            Operands::Two { control, target } => (control, Some(target)),
        };
        let trap_coord = self.topo.trap(self.gate_trap[id.index()]).coord();
        self.emit(
            self.time,
            MicroCommand::GateStart {
                instr: id,
                gate: instr.gate,
                trap: trap_coord,
                q0,
                q1,
            },
        );
        self.schedule(self.time + delay, EventKind::GateDone(id));
    }

    fn schedule(&mut self, time: Time, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    fn record_motion(&mut self, qubit: QubitId, plan: &RoutePlan) {
        let dest = self.topo.trap(plan.to_trap()).coord();
        if self.trace.is_none() {
            self.qubit_coord[qubit.index()] = dest;
            return;
        }
        let t_move = self.mapper.tech.t_move;
        let t_turn = self.mapper.tech.t_turn;
        let mut t = self.time;
        let mut pos = self.qubit_coord[qubit.index()];
        let mut entries = Vec::with_capacity(plan.steps().len());
        for step in plan.steps() {
            match *step {
                Step::Move { to } => {
                    t += t_move;
                    entries.push(TraceEntry {
                        time: t,
                        command: MicroCommand::Move {
                            qubit,
                            from: pos,
                            to,
                        },
                    });
                    pos = to;
                }
                Step::Turn { at } => {
                    t += t_turn;
                    entries.push(TraceEntry {
                        time: t,
                        command: MicroCommand::Turn { qubit, at },
                    });
                }
            }
        }
        debug_assert_eq!(pos, dest, "route must end in the target trap");
        self.qubit_coord[qubit.index()] = pos;
        if let Some(trace) = &mut self.trace {
            trace.extend(entries);
        }
    }

    fn emit(&mut self, time: Time, command: MicroCommand) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { time, command });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_qasm::Program;

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

    fn fig3() -> Program {
        Program::parse(FIG3).unwrap()
    }

    #[test]
    fn one_qubit_program_runs_in_gate_time() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a\nH a\nX a\n").unwrap();
        let placement = Placement::center(&f, 1);
        let out = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        assert_eq!(out.latency(), 20);
        assert_eq!(out.totals().moves, 0);
    }

    #[test]
    fn two_qubit_gate_adds_routing_time() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\n").unwrap();
        let placement = Placement::center(&f, 2);
        let out = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        assert!(out.latency() > 100, "routing adds to the 100µs gate");
        let s = out.stats_of(qspr_sched::InstrId(0));
        assert_eq!(s.gate_time(), 100);
        assert!(s.routing_time() > 0);
        assert_eq!(s.congestion_wait(), 0);
        assert!(out.totals().moves > 0);
    }

    #[test]
    fn fig3_latency_exceeds_ideal_baseline() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = fig3();
        let ideal = Qidg::new(&p, &tech).critical_path_delay();
        let placement = Placement::center(&f, 5);
        let out = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        assert!(out.latency() >= ideal);
        assert_eq!(out.instr_stats().len(), 12);
    }

    #[test]
    fn quale_policy_is_slower_than_qspr_on_fig3() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = fig3();
        let placement = Placement::center(&f, 5);
        let qspr = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        let quale = Mapper::new(&f, tech, MapperPolicy::quale(&tech))
            .map(&p, &placement)
            .unwrap();
        assert!(
            qspr.latency() <= quale.latency(),
            "qspr {} vs quale {}",
            qspr.latency(),
            quale.latency()
        );
    }

    #[test]
    fn mapping_is_deterministic() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = fig3();
        let placement = Placement::center(&f, 5);
        let m = Mapper::new(&f, tech, MapperPolicy::qspr(&tech));
        let a = m.map(&p, &placement).unwrap();
        let b = m.map(&p, &placement).unwrap();
        assert_eq!(a.latency(), b.latency());
        assert_eq!(a.final_placement(), b.final_placement());
    }

    #[test]
    fn order_boost_reorders_ready_ties_deterministically() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = fig3();
        let placement = Placement::center(&f, 5);
        let m = Mapper::new(&f, tech, MapperPolicy::qspr(&tech));
        let base = m.map(&p, &placement).unwrap();
        // A zero boost is exactly the unboosted mapping.
        let zero = m
            .clone()
            .order_boost(vec![0; 12])
            .map(&p, &placement)
            .unwrap();
        assert_eq!(base.latency(), zero.latency());
        assert_eq!(base.instr_stats(), zero.instr_stats());
        // A real boost still maps validly and deterministically.
        let boosted = m.order_boost((0..12).map(|i| i * 50).collect());
        let a = boosted.map(&p, &placement).unwrap();
        let b = boosted.map(&p, &placement).unwrap();
        assert_eq!(a.latency(), b.latency());
        assert_eq!(a.instr_stats(), b.instr_stats());
    }

    #[test]
    fn final_placement_is_injective_and_complete() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = fig3();
        let placement = Placement::center(&f, 5);
        let out = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        assert_eq!(out.final_placement().num_qubits(), 5);
    }

    #[test]
    fn trace_recording_is_optional() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = fig3();
        let placement = Placement::center(&f, 5);
        let without = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        assert!(without.trace().is_none());
        let with = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .record_trace(true)
            .map(&p, &placement)
            .unwrap();
        let trace = with.trace().unwrap();
        assert_eq!(trace.move_count() as u64, with.totals().moves);
        assert_eq!(trace.turn_count() as u64, with.totals().turns);
        assert_eq!(with.latency(), without.latency(), "tracing is free");
    }

    #[test]
    fn stalls_on_disconnected_fabric() {
        let f = Fabric::from_ascii(
            ".T....T.\n\
             +-+..+-+\n",
        )
        .unwrap();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\n").unwrap();
        let t0 = f.topology().trap_at(Coord::new(0, 1)).unwrap();
        let t1 = f.topology().trap_at(Coord::new(0, 6)).unwrap();
        let placement = Placement::new(vec![t0, t1]).unwrap();
        let err = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap_err();
        assert_eq!(err, MapError::Stalled { remaining: 1 });
    }

    #[test]
    fn placement_validation_errors_surface() {
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\n").unwrap();
        let placement = Placement::center(&f, 1);
        let err = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap_err();
        assert!(matches!(err, MapError::QubitCountMismatch { .. }));
    }

    #[test]
    fn colocated_operands_skip_routing() {
        // After C-X a,b both qubits share a trap; a following C-Z a,b
        // should start immediately with no extra movement.
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\nC-Z a,b\n").unwrap();
        let placement = Placement::center(&f, 2);
        let out = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        let s1 = out.stats_of(qspr_sched::InstrId(1));
        assert_eq!(s1.routing_time(), 0);
        assert_eq!(s1.moves, 0);
    }

    #[test]
    fn congestion_wait_appears_under_contention() {
        // Two independent CX gates whose operands sit in the same tile
        // with capacity-1 channels: the second must wait for resources.
        let f = Fabric::quale_45x85();
        let tech = TechParams::date2012().without_multiplexing();
        let p = Program::parse("QUBIT a\nQUBIT b\nQUBIT c\nQUBIT d\nC-X a,b\nC-X c,d\n").unwrap();
        let mut policy = MapperPolicy::qspr(&tech);
        policy.router.channel_capacity = 1;
        policy.router.junction_capacity = 1;
        let placement = Placement::center(&f, 4);
        let out = Mapper::new(&f, tech, policy).map(&p, &placement).unwrap();
        let total_wait: Time = out.instr_stats().iter().map(|s| s.congestion_wait()).sum();
        // Both gates contend for the center channels; at least one waits
        // or detours (cannot assert which, but latency must exceed the
        // single-gate case).
        assert!(out.latency() > 100);
        let _ = total_wait; // accounted, even if a detour avoided waiting
    }
}

#[cfg(test)]
mod policy_behavior_tests {
    use super::*;
    use qspr_qasm::Program;

    fn fabric() -> Fabric {
        Fabric::quale_45x85()
    }

    #[test]
    fn return_to_home_restores_the_initial_placement() {
        // Under the QUALE storage model every source qubit shuttles back
        // home, so the final placement equals the initial one.
        let f = fabric();
        let tech = TechParams::date2012();
        let p =
            Program::parse("QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nC-X a,b\nC-X b,c\nC-X c,a\n").unwrap();
        let placement = Placement::center(&f, 3);
        let out = Mapper::new(&f, tech, MapperPolicy::quale(&tech))
            .map(&p, &placement)
            .unwrap();
        assert_eq!(out.final_placement(), &placement);
    }

    #[test]
    fn qspr_policy_leaves_operands_at_the_meeting_trap() {
        let f = fabric();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a,0\nQUBIT b,0\nC-X a,b\n").unwrap();
        let placement = Placement::center(&f, 2);
        let out = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        let fp = out.final_placement();
        assert_eq!(
            fp.trap_of(QubitId(0)),
            fp.trap_of(QubitId(1)),
            "operands co-located after the gate"
        );
    }

    #[test]
    fn return_to_home_charges_round_trips_on_serial_chains() {
        // Two consecutive gates on the same control: the storage model
        // must be strictly slower than the stay-in-place policy.
        let f = fabric();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a,0\nQUBIT b,0\nC-X a,b\nC-Z a,b\n").unwrap();
        let placement = Placement::center(&f, 2);
        let stay = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        let home = Mapper::new(&f, tech, MapperPolicy::quale(&tech))
            .map(&p, &placement)
            .unwrap();
        assert!(
            home.latency() > stay.latency(),
            "storage model {} must exceed stay-in-place {}",
            home.latency(),
            stay.latency()
        );
    }

    #[test]
    fn capacity_one_forces_staged_movement_but_still_completes() {
        let f = fabric();
        let tech = TechParams::date2012().without_multiplexing();
        let mut policy = MapperPolicy::qspr(&tech);
        policy.router.channel_capacity = 1;
        policy.router.junction_capacity = 1;
        let p = Program::parse("QUBIT a,0\nQUBIT b,0\nC-X a,b\n").unwrap();
        let placement = Placement::center(&f, 2);
        let out = Mapper::new(&f, tech, policy).map(&p, &placement).unwrap();
        // Both qubits still reach a common trap; the gate runs.
        assert!(out.latency() >= tech.t_gate_2q);
        let fp = out.final_placement();
        assert_eq!(fp.trap_of(QubitId(0)), fp.trap_of(QubitId(1)));
    }

    #[test]
    fn capacity_one_is_slower_than_multiplexed_channels() {
        let f = fabric();
        let tech = TechParams::date2012();
        let p = Program::parse(
            "QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nQUBIT d,0\n\
             C-X a,b\nC-X c,d\nC-X a,c\nC-X b,d\n",
        )
        .unwrap();
        let placement = Placement::center(&f, 4);
        let fast = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        let mut slow_policy = MapperPolicy::qspr(&tech);
        slow_policy.router.channel_capacity = 1;
        slow_policy.router.junction_capacity = 1;
        let slow = Mapper::new(&f, tech, slow_policy)
            .map(&p, &placement)
            .unwrap();
        assert!(slow.latency() >= fast.latency());
    }

    #[test]
    fn cheapest_meeting_never_loses_to_forced_single_movement() {
        // The cost-based meeting choice considers hosting the gate in an
        // operand's own trap, so it can never be slower than the policy
        // that always does that.
        let f = fabric();
        let tech = TechParams::date2012();
        for gates in [
            "C-X a,b\n",
            "C-X a,b\nC-Z b,a\n",
            "H a\nC-X a,b\nH b\nC-Y b,a\n",
        ] {
            let src = format!("QUBIT a,0\nQUBIT b,0\n{gates}");
            let p = Program::parse(&src).unwrap();
            let placement = Placement::center(&f, 2);
            let flexible = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
                .map(&p, &placement)
                .unwrap();
            let mut single = MapperPolicy::qspr(&tech);
            single.movement = MovementPolicy::SourceToDestination;
            let forced = Mapper::new(&f, tech, single).map(&p, &placement).unwrap();
            assert!(
                flexible.latency() <= forced.latency(),
                "{gates:?}: {} vs {}",
                flexible.latency(),
                forced.latency()
            );
        }
    }

    #[test]
    fn strict_order_never_beats_dynamic_order() {
        let f = fabric();
        let tech = TechParams::date2012();
        let p = qspr_qasm::random_program(&qspr_qasm::RandomProgramConfig::new(8, 40), 7);
        let placement = Placement::center(&f, 8);
        let dynamic = Mapper::new(&f, tech, MapperPolicy::qspr(&tech))
            .map(&p, &placement)
            .unwrap();
        let mut strict_policy = MapperPolicy::qspr(&tech);
        strict_policy.strict_order = true;
        let strict = Mapper::new(&f, tech, strict_policy)
            .map(&p, &placement)
            .unwrap();
        assert!(strict.latency() >= dynamic.latency());
    }

    #[test]
    fn one_qubit_gates_wait_for_returning_qubits() {
        // Under return-to-home, an H on the control right after a CX must
        // wait for the shuttle home, showing up as congestion wait.
        let f = fabric();
        let tech = TechParams::date2012();
        let p = Program::parse("QUBIT a,0\nQUBIT b,0\nC-X a,b\nH a\n").unwrap();
        let placement = Placement::center(&f, 2);
        let out = Mapper::new(&f, tech, MapperPolicy::quale(&tech))
            .map(&p, &placement)
            .unwrap();
        let h_stats = out.stats_of(qspr_sched::InstrId(1));
        assert!(
            h_stats.congestion_wait() > 0,
            "H must wait for the return shuttle"
        );
    }
}
