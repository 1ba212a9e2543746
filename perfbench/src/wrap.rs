//! Pass-through timing wrappers for the placement and routing seams.
//!
//! [`TimedPlacer`] and [`TimedRouter`] forward every trait method to the
//! wrapped engine unchanged (names included, so fingerprints and report
//! bytes stay identical) and add wall time and work counts into shared
//! counters behind a mutex. A routing engine tallies into a plain cell
//! while it lives — engines are built per mapping run and used from one
//! thread — and folds its tally into the factory's counters once, when
//! dropped, so the factory may be shared by any number of threads.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qspr::fabric::{Topology, TrapId};
use qspr::place::{Placer, PlacerSolution};
use qspr::qasm::Program;
use qspr::route::{EpochStats, ResourceState, RoutePlan, RouteRequest, RouterConfig};
use qspr::sim::{MapError, Mapper};
use qspr::{RouterFactory, RoutingEngine, RoutingStats};

/// Totals of one [`TimedPlacer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaceTotals {
    /// Wall time inside `Placer::place`.
    pub ns: u64,
    /// Placement runs the placer reported (`m'`).
    pub runs: u64,
}

/// The shared, thread-safe counters of one [`TimedPlacer`].
#[derive(Debug, Default)]
pub struct PlaceCounters(Mutex<PlaceTotals>);

impl PlaceCounters {
    /// The current totals.
    pub fn totals(&self) -> PlaceTotals {
        *self.0.lock().expect("place counters lock")
    }
}

/// Times `Placer::place` of the wrapped placer.
pub struct TimedPlacer<P> {
    inner: P,
    counters: Arc<PlaceCounters>,
}

impl<P: Placer> TimedPlacer<P> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: P, counters: Arc<PlaceCounters>) -> TimedPlacer<P> {
        TimedPlacer { inner, counters }
    }
}

impl<P: Placer> Placer for TimedPlacer<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        let started = Instant::now();
        let solution = self.inner.place(mapper, program);
        let ns = elapsed_ns(started);
        let mut totals = self.counters.0.lock().expect("place counters lock");
        totals.ns += ns;
        if let Ok(s) = &solution {
            totals.runs += s.runs as u64;
        }
        solution
    }
}

/// Engine-call totals of every engine one [`TimedRouter`] built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteTotals {
    /// `route_one` calls: meeting-trap probes.
    pub probe_calls: u64,
    /// Wall time inside `route_one`.
    pub probe_ns: u64,
    /// Probes that found no route.
    pub probe_blocked: u64,
    /// `route_batch` calls: one per routed epoch batch.
    pub batch_calls: u64,
    /// Wall time inside `route_batch`.
    pub batch_ns: u64,
    /// Movers across all batches.
    pub batch_movers: u64,
    /// Largest batch seen.
    pub batch_movers_max: u64,
    /// Batch slots answered `None` (mover blocked for now).
    pub batch_blocked: u64,
    /// `refine_epoch` calls.
    pub refine_calls: u64,
    /// Wall time inside `refine_epoch`.
    pub refine_ns: u64,
    /// Refinements that replaced the incumbents.
    pub refine_adopted: u64,
    /// Rip-up iterations the engines reported.
    pub rip_iterations: u64,
    /// Routes ripped up the engines reported.
    pub ripped: u64,
}

impl RouteTotals {
    fn add(&mut self, t: &RouteTotals) {
        self.probe_calls += t.probe_calls;
        self.probe_ns += t.probe_ns;
        self.probe_blocked += t.probe_blocked;
        self.batch_calls += t.batch_calls;
        self.batch_ns += t.batch_ns;
        self.batch_movers += t.batch_movers;
        self.batch_movers_max = self.batch_movers_max.max(t.batch_movers_max);
        self.batch_blocked += t.batch_blocked;
        self.refine_calls += t.refine_calls;
        self.refine_ns += t.refine_ns;
        self.refine_adopted += t.refine_adopted;
        self.rip_iterations += t.rip_iterations;
        self.ripped += t.ripped;
    }
}

/// The shared, thread-safe counters of one [`TimedRouter`].
#[derive(Debug, Default)]
pub struct RouteCounters(Mutex<RouteTotals>);

impl RouteCounters {
    /// The totals of every engine dropped so far.
    pub fn totals(&self) -> RouteTotals {
        *self.0.lock().expect("route counters lock")
    }
}

/// A [`RouterFactory`] whose engines time every call into the wrapped
/// factory's engines.
pub struct TimedRouter<F> {
    inner: F,
    counters: Arc<RouteCounters>,
}

impl<F: RouterFactory> TimedRouter<F> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: F, counters: Arc<RouteCounters>) -> TimedRouter<F> {
        TimedRouter { inner, counters }
    }
}

impl<F: RouterFactory> RouterFactory for TimedRouter<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build<'t>(
        &self,
        topology: &'t Topology,
        config: RouterConfig,
    ) -> Box<dyn RoutingEngine + 't> {
        Box::new(TimedEngine {
            inner: self.inner.build(topology, config),
            counters: Arc::clone(&self.counters),
            tally: Cell::new(RouteTotals::default()),
        })
    }
}

struct TimedEngine<'t> {
    inner: Box<dyn RoutingEngine + 't>,
    counters: Arc<RouteCounters>,
    tally: Cell<RouteTotals>,
}

impl TimedEngine<'_> {
    fn update(&self, f: impl FnOnce(&mut RouteTotals)) {
        let mut t = self.tally.get();
        f(&mut t);
        self.tally.set(t);
    }
}

impl Drop for TimedEngine<'_> {
    fn drop(&mut self) {
        let stats = self.inner.stats();
        let mut t = self.tally.get();
        t.rip_iterations = stats.iterations;
        t.ripped = stats.ripped;
        // A poisoned lock means a mapping thread panicked; its tally is
        // lost with it, and `Drop` must not panic in turn.
        if let Ok(mut totals) = self.counters.0.lock() {
            totals.add(&t);
        }
    }
}

impl RoutingEngine for TimedEngine<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config(&self) -> &RouterConfig {
        self.inner.config()
    }

    fn route_one(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        let started = Instant::now();
        let plan = self.inner.route_one(state, from, to);
        let ns = elapsed_ns(started);
        self.update(|t| {
            t.probe_calls += 1;
            t.probe_ns += ns;
            t.probe_blocked += u64::from(plan.is_none());
        });
        plan
    }

    fn route_batch(
        &mut self,
        state: &ResourceState,
        requests: &[RouteRequest],
    ) -> (Vec<Option<RoutePlan>>, EpochStats) {
        let started = Instant::now();
        let answer = self.inner.route_batch(state, requests);
        let ns = elapsed_ns(started);
        let blocked = answer.0.iter().filter(|p| p.is_none()).count() as u64;
        let movers = requests.len() as u64;
        self.update(|t| {
            t.batch_calls += 1;
            t.batch_ns += ns;
            t.batch_movers += movers;
            t.batch_movers_max = t.batch_movers_max.max(movers);
            t.batch_blocked += blocked;
        });
        answer
    }

    fn note_booked(&mut self, plan: &RoutePlan) {
        self.inner.note_booked(plan);
    }

    fn set_parallelism(&mut self, jobs: usize) {
        self.inner.set_parallelism(jobs);
    }

    fn refines(&self) -> bool {
        self.inner.refines()
    }

    fn refine_epoch(
        &mut self,
        state: &ResourceState,
        incumbents: &[RoutePlan],
    ) -> Option<Vec<RoutePlan>> {
        let started = Instant::now();
        let better = self.inner.refine_epoch(state, incumbents);
        let ns = elapsed_ns(started);
        let adopted = u64::from(better.is_some());
        self.update(|t| {
            t.refine_calls += 1;
            t.refine_ns += ns;
            t.refine_adopted += adopted;
        });
        better
    }

    fn stats(&self) -> RoutingStats {
        self.inner.stats()
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    use qspr::fabric::Fabric;
    use qspr::place::{MvfbConfig, MvfbPlacer};
    use qspr::service::normalize_timing;
    use qspr::{Flow, RouterKind, ToJson};

    #[test]
    fn wrapped_runs_give_byte_identical_summaries() {
        let suite = qspr::qecc::codes::benchmark_suite();
        let fabric = Arc::new(Fabric::quale_45x85());
        for router in [RouterKind::Greedy, RouterKind::Negotiated] {
            for jobs in [1, 2] {
                for circuit in &suite[..2] {
                    let config = MvfbConfig::new(2, 0xD57E_2012);
                    let plain = Flow::on(Arc::clone(&fabric))
                        .router(router)
                        .jobs(jobs)
                        .mvfb_config(config);
                    let place = Arc::new(PlaceCounters::default());
                    let route = Arc::new(RouteCounters::default());
                    let wrapped = plain
                        .clone()
                        .placer(TimedPlacer::new(
                            MvfbPlacer::new(config),
                            Arc::clone(&place),
                        ))
                        .router(TimedRouter::new(router, Arc::clone(&route)));
                    assert_eq!(wrapped.router_name(), router.as_str());
                    assert_eq!(wrapped.placer_name(), "mvfb");
                    let text = circuit.program.to_qasm();
                    assert_eq!(plain.fingerprint(&text), wrapped.fingerprint(&text));
                    let a = plain.run(&circuit.program).unwrap();
                    let b = wrapped.run(&circuit.program).unwrap();
                    assert_eq!(
                        normalize_timing(&a.summary().to_json()),
                        normalize_timing(&b.summary().to_json()),
                        "{router} jobs={jobs} {}",
                        circuit.name
                    );
                    assert_eq!(a.initial_placement, b.initial_placement);

                    let placed = place.totals();
                    let routed = route.totals();
                    assert_eq!(placed.runs, b.runs as u64);
                    assert!(placed.ns > 0);
                    assert!(routed.batch_calls > 0 && routed.batch_movers >= routed.batch_calls);
                    assert_eq!(routed.refine_calls > 0, router == RouterKind::Negotiated);
                }
            }
        }
    }

    #[test]
    fn counters_fold_in_when_engines_drop() {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = qspr::fabric::TechParams::date2012();
        let counters = Arc::new(RouteCounters::default());
        let factory = TimedRouter::new(RouterKind::Greedy, Arc::clone(&counters));
        let traps = topo.traps_by_distance(fabric.center());
        {
            let mut engine = factory.build(topo, RouterConfig::qspr(&tech));
            let state = ResourceState::new(topo);
            assert!(engine.route_one(&state, traps[0], traps[9]).is_some());
            let requests = [
                RouteRequest::new(traps[0], traps[40]),
                RouteRequest::new(traps[1], traps[41]),
            ];
            engine.route_batch(&state, &requests);
            assert_eq!(engine.name(), "greedy");
            assert_eq!(counters.totals(), RouteTotals::default(), "folded on drop");
        }
        let t = counters.totals();
        assert_eq!((t.probe_calls, t.batch_calls), (1, 1));
        assert_eq!((t.batch_movers, t.batch_movers_max), (2, 2));
    }
}
