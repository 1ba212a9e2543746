//! Allocation budget of a warm [`Router`]: the search runs in the
//! router's own scratch and a quiet-route table hit clones a stored
//! plan, so a routed query, searched or not, allocates exactly the
//! returned plan's `steps` and `resources` vectors, and a blocked or
//! stationary query allocates nothing.
//!
//! This binary holds a single test because the counting allocator
//! below is process-wide; it counts only on the thread that opted in,
//! so the harness's own threads cannot disturb the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qspr_fabric::{Coord, Fabric, TechParams, TrapId};
use qspr_route::{Resource, ResourceState, Router, RouterConfig};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if COUNTING.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, reallocations)` made on this thread while `f` runs.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, r0) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let (a1, r1) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    (out, a1 - a0, r1 - r0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A via route on the quiet fabric: a quiet-route table hit.
    Via,
    /// A same-segment route on the quiet fabric: a table hit.
    Direct,
    /// A via route that misses the table and searches.
    Searched,
    Blocked,
    Stationary,
}

#[test]
fn a_warm_router_allocates_only_the_returned_plan() {
    let fabric = Fabric::quale_45x85();
    let topo = fabric.topology();
    let config = RouterConfig::qspr(&TechParams::date2012());
    let router = Router::new(topo, config);
    let table = config.quiet_routes(topo);
    let quiet = ResourceState::new(topo);

    let by_center = topo.traps_by_distance(fabric.center());
    let by_corner = topo.traps_by_distance(Coord::new(0, 0));
    let far = *by_corner.last().unwrap();
    // Two traps whose ports share one segment, at different offsets.
    let (a, b) = (0..topo.traps().len() as u32)
        .map(TrapId)
        .flat_map(|a| (0..topo.traps().len() as u32).map(move |b| (a, TrapId(b))))
        .find(|&(a, b)| {
            let (pa, pb) = (topo.trap(a).port(), topo.trap(b).port());
            pa.segment == pb.segment && pa.offset != pb.offset
        })
        .expect("the quale fabric has traps sharing a segment");
    // A state whose only booking fills the source segment of `by_center[0]`.
    let mut blocked = ResourceState::new(topo);
    let src_seg = Resource::Segment(topo.trap(by_center[0]).port().segment);
    for _ in 0..router.capacity(src_seg) {
        blocked.book(src_seg).unwrap();
    }

    // A state whose only booking sits on the interior of the quiet
    // plan from `by_corner[0]` to `far`, which the search must read.
    let mut interior = ResourceState::new(topo);
    let quiet_plan = router.route(&quiet, by_corner[0], far).unwrap();
    let ports = [by_corner[0], far].map(|t| Resource::Segment(topo.trap(t).port().segment));
    let inner = quiet_plan.resources()[1..]
        .iter()
        .map(|u| u.resource)
        .find(|r| matches!(r, Resource::Segment(_)) && !ports.contains(r))
        .expect("a corner-to-corner route crosses a middle segment");
    interior.book(inner).unwrap();

    let queries = [
        (Kind::Via, &quiet, by_center[0], by_center[40]),
        (Kind::Via, &quiet, by_corner[0], far),
        (Kind::Via, &quiet, far, by_center[7]),
        (Kind::Direct, &quiet, a, b),
        (Kind::Direct, &quiet, b, a),
        (Kind::Searched, &interior, by_corner[0], far),
        (Kind::Blocked, &blocked, by_center[0], by_center[40]),
        (Kind::Blocked, &blocked, far, by_center[0]),
        (Kind::Stationary, &quiet, by_center[3], by_center[3]),
    ];
    // Warm-up: the first queries grow the search heap and fill the
    // fabric's goal fields and quiet-route table; none of that happens
    // again for the same queries. The searched query reads its
    // booking, so it fills no table entry.
    for &(_, state, from, to) in &queries {
        router.route(state, from, to);
    }
    assert_eq!(table.len(), 5, "three via and two direct quiet routes");
    for &(kind, state, from, to) in &queries {
        let (plan, allocs, reallocs) = count(|| router.route(state, from, to));
        let expected = match kind {
            Kind::Via | Kind::Direct | Kind::Searched => {
                let plan = plan.as_ref().expect("routable query");
                assert!(!plan.steps().is_empty() && !plan.resources().is_empty());
                let hops = plan.resources().len();
                assert_eq!(kind == Kind::Direct, hops == 1, "{kind:?} books {hops}");
                if kind == Kind::Searched {
                    assert_ne!(plan, &quiet_plan, "the booking moves the route");
                }
                2
            }
            Kind::Blocked => {
                assert!(plan.is_none(), "{kind:?} {from} -> {to} routed");
                0
            }
            Kind::Stationary => {
                assert!(plan.expect("stationary").is_stationary());
                0
            }
        };
        assert_eq!(
            (allocs, reallocs),
            (expected, 0),
            "{kind:?} {from} -> {to}: (allocations, reallocations)"
        );
    }
    assert_eq!(table.len(), 5, "warm queries fill nothing");
}
