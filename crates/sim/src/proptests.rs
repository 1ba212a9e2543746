//! Property-based tests of trace construction and mirroring, and of
//! the event queue against the binary heap it replaced.

#![cfg(test)]

use proptest::prelude::*;

use qspr_fabric::{Coord, Time};
use qspr_qasm::{Gate, QubitId};
use qspr_sched::InstrId;

use crate::queue::{EventQueue, HeapQueue, SLOTS};
use crate::trace::{MicroCommand, Trace, TraceEntry};

/// Builds a command from generated integers (the vendored proptest shim
/// has no union strategies, so kinds are decoded from a byte).
fn decode(kind: u8, id: u32, row: u16, col: u16) -> MicroCommand {
    let a = Coord::new(row % 40, col % 80);
    let b = Coord::new((row + 1) % 40, (col + 3) % 80);
    // `id` is the entry index, so every (kind, id) pair is unique and the
    // construction sort key (time, kind, id) is a total order — the same
    // invariant the simulator guarantees (a qubit completes at most one
    // command per instant; an instruction starts/ends once).
    match kind % 4 {
        0 => MicroCommand::Move {
            qubit: QubitId(id),
            from: a,
            to: b,
        },
        1 => MicroCommand::Turn {
            qubit: QubitId(id),
            at: a,
        },
        2 => MicroCommand::GateStart {
            instr: InstrId(id),
            gate: if id % 2 == 0 { Gate::H } else { Gate::S },
            trap: a,
            q0: QubitId(id),
            q1: None,
        },
        _ => MicroCommand::GateEnd { instr: InstrId(id) },
    }
}

fn build_trace(raw: &[(u64, u8, u32, u16, u16)]) -> Trace {
    let entries: Vec<TraceEntry> = raw
        .iter()
        .enumerate()
        .map(|(i, &(time, kind, _id, row, col))| TraceEntry {
            // Anchor the first entry at t=0 so mirroring is a clean
            // involution (times are mirrored around the last completion).
            time: if i == 0 { 0 } else { time % 60 },
            command: decode(kind, i as u32, row, col),
        })
        .collect();
    Trace::new(entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mirroring preserves the makespan and the move/turn counts.
    #[test]
    fn mirror_preserves_counts(raw in collection::vec(
        (0u64..60, 0u8..8, 0u32..16, 0u16..40, 0u16..80), 1..24)) {
        let t = build_trace(&raw);
        let m = t.reversed();
        prop_assert_eq!(m.end_time(), t.end_time());
        prop_assert_eq!(m.move_count(), t.move_count());
        prop_assert_eq!(m.turn_count(), t.turn_count());
        prop_assert_eq!(m.len(), t.len());
    }

    /// Mirroring twice round-trips exactly (entries, times and order).
    #[test]
    fn mirror_twice_round_trips(raw in collection::vec(
        (0u64..60, 0u8..8, 0u32..16, 0u16..40, 0u16..80), 1..24)) {
        let t = build_trace(&raw);
        prop_assert_eq!(t.reversed().reversed(), t);
    }

    /// Trace construction is order-independent: any permutation of the
    /// recorded entries produces the same trace (the satellite guarantee
    /// that sta inputs are reproducible at any thread count).
    #[test]
    fn construction_is_permutation_invariant(raw in collection::vec(
        (0u64..10, 0u8..8, 0u32..16, 0u16..40, 0u16..80), 1..24),
        rot in 0usize..24) {
        let t = build_trace(&raw);
        let mut shuffled = t.entries().to_vec();
        shuffled.reverse();
        let len = shuffled.len();
        shuffled.rotate_left(rot % len);
        prop_assert_eq!(Trace::new(shuffled), t);
    }
}

/// An offset from the clock for a scripted push: the same time, a few
/// µs, the ring's last slot, its first overflow time, a later overflow
/// time, anywhere in eight ring widths, or far beyond the ring.
fn push_offset(class: u8, raw: u64) -> Time {
    let w = SLOTS as Time;
    match class % 7 {
        0 => 0,
        1 => raw % 8,
        2 => w - 1,
        3 => w,
        4 => w + 1 + raw % w,
        5 => raw % (8 * w),
        _ => 1_000_000 + raw % 1_000,
    }
}

/// Pushes one event with a fresh id at `time` into both queues.
fn push_both(ring: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>, id: &mut u32, time: Time) {
    ring.push(time, *id);
    heap.push(time, *id);
    *id += 1;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ring of time slots pops exactly what the binary heap it
    /// replaced pops, in the same order, on schedules shaped like the
    /// simulator's: events pushed at the clock's time or later, some of
    /// them while the current time's events drain, and the rest after
    /// the drain, as an issue phase does.
    #[test]
    fn the_ring_pops_in_the_heaps_order(
        first in collection::vec((0u8..7, 0u64..100_000), 1..6),
        script in collection::vec((0u8..7, 0u64..100_000, 0u8..3), 1..48),
    ) {
        let mut ring = EventQueue::new();
        let mut heap = HeapQueue::default();
        let mut id = 0;
        for &(class, raw) in &first {
            push_both(&mut ring, &mut heap, &mut id, push_offset(class, raw));
        }
        let (mut from_ring, mut from_heap) = (Vec::new(), Vec::new());
        let mut steps = script.iter().cycle();
        // A push budget ends every schedule.
        let mut budget = 200;
        let mut push_some = |ring: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>, id: &mut u32, now| {
            let &(class, raw, count) = steps.next().expect("cycled");
            for k in 0..count.min(budget) {
                push_both(ring, heap, id, now + push_offset(class, raw + u64::from(k)));
            }
            budget -= count.min(budget);
        };
        loop {
            let now = ring.next_time();
            prop_assert_eq!(now, heap.next_time());
            let Some(now) = now else { break };
            while let Some(event) = ring.pop() {
                from_ring.push((now, event));
                push_some(&mut ring, &mut heap, &mut id, now);
            }
            while let Some(event) = heap.pop() {
                from_heap.push((now, event));
            }
            prop_assert_eq!(&from_ring, &from_heap);
            push_some(&mut ring, &mut heap, &mut id, now);
        }
        prop_assert_eq!(from_ring.len(), id as usize);
    }
}
