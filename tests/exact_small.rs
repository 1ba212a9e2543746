//! An exact placement oracle for the three smallest benchmark circuits.
//!
//! No ILP solver is available offline, but at nine qubits or fewer
//! enumeration is the exact equivalent: every forward placement of a
//! circuit into the traps nearest the fabric centre is mapped under the
//! QSPR policy, and MVFB at `m = 25` with the default seed must reach
//! the minimum latency of that window. About a million maps take about
//! a minute of CPU in release, so the test is `#[ignore]`d in the
//! tier-1 run and runs in release with `--ignored`:
//!
//! ```text
//! cargo test --release --locked --test exact_small -- --ignored
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use qspr::Flow;
use qspr_fabric::{Fabric, TechParams, Time, TrapId};
use qspr_qecc::codes::benchmark_suite;
use qspr_sim::{FlowPolicy, Mapper, Placement, PreparedProgram};

/// Per circuit: traps in its window, most qubits per trap, placements
/// in the window, and MVFB's latency at `m = 25` (µs). With one qubit
/// per trap [[5,1,3]] and [[7,1,3]] bottom out higher (632 and 540), so
/// their windows let two qubits share a trap.
const WINDOWS: [(&str, usize, usize, u64, Time); 3] = [
    ("[[5,1,3]]", 12, 2, 233_640, 628),
    ("[[7,1,3]]", 7, 2, 463_680, 522),
    ("[[9,1,3]]", 9, 1, 362_880, 752),
];

/// One circuit's enumeration.
struct Window {
    prepared: PreparedProgram,
    qubits: usize,
    traps: Vec<TrapId>,
    per_trap: usize,
}

/// Maps every completion of the placement `placed` (qubit `i` in trap
/// `placed[i]`, `load[t]` qubits in `window.traps[t]`); returns the
/// least latency and the number of placements mapped.
fn search(
    mapper: &Mapper,
    window: &Window,
    placed: &mut Vec<TrapId>,
    load: &mut [usize],
) -> (Time, u64) {
    if placed.len() == window.qubits {
        let placement = Placement::new(placed.clone()).expect("at most two qubits per trap");
        let outcome = mapper
            .map_prepared(&window.prepared, &placement)
            .expect("every window placement maps");
        return (outcome.latency(), 1);
    }
    let (mut best, mut count) = (Time::MAX, 0);
    for (t, &trap) in window.traps.iter().enumerate() {
        if load[t] < window.per_trap {
            load[t] += 1;
            placed.push(trap);
            let (latency, mapped) = search(mapper, window, placed, load);
            (best, count) = (best.min(latency), count + mapped);
            placed.pop();
            load[t] -= 1;
        }
    }
    (best, count)
}

#[test]
#[ignore = "maps about a million placements; run in release with --ignored"]
fn mvfb_reaches_the_window_optimum_on_the_small_circuits() {
    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
    let flow = Flow::on(fabric.clone()).seeds(25);
    let suite = benchmark_suite();
    let mut windows = Vec::new();
    for (name, traps, per_trap, _, mvfb) in WINDOWS {
        let bench = suite
            .iter()
            .find(|b| b.name == name)
            .expect("a suite circuit");
        let latency = flow.run(&bench.program).expect("MVFB maps").latency;
        assert_eq!(latency, mvfb, "{name}: MVFB at m = 25");
        windows.push(Window {
            prepared: mapper.prepare(&bench.program),
            qubits: bench.program.num_qubits(),
            traps: fabric.topology().nearest_traps(fabric.center(), traps),
            per_trap,
        });
    }
    // One job per (circuit, trap of qubit 0), taken in turn by one
    // worker per core; each worker keeps its own minima.
    let jobs: Vec<(usize, usize)> = windows
        .iter()
        .enumerate()
        .flat_map(|(w, window)| (0..window.traps.len()).map(move |t| (w, t)))
        .collect();
    let next = AtomicUsize::new(0);
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let results: Vec<Vec<(Time, u64)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut found = vec![(Time::MAX, 0); windows.len()];
                    while let Some(&(w, t)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let window = &windows[w];
                        let mut load = vec![0; window.traps.len()];
                        load[t] = 1;
                        let (best, count) =
                            search(&mapper, window, &mut vec![window.traps[t]], &mut load);
                        found[w] = (found[w].0.min(best), found[w].1 + count);
                    }
                    found
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    for (w, (name, _, _, placements, mvfb)) in WINDOWS.into_iter().enumerate() {
        let best = results.iter().map(|found| found[w].0).min();
        let count: u64 = results.iter().map(|found| found[w].1).sum();
        assert_eq!(count, placements, "{name}: placements enumerated");
        assert_eq!(best, Some(mvfb), "{name}: window minimum vs MVFB");
    }
}
