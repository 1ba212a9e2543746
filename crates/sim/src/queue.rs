//! The simulator's event queue: a ring of integer time slots.
//!
//! Events pop in `(time, schedule order)`, the order a binary heap keyed
//! on `(time, sequence number)` gives, without the heap's sifting. Most
//! events land within a few hundred µs of the clock (a gate takes at
//! most 100 µs on the paper's technology, a channel exit a few µs), so
//! each goes straight into the FIFO of its time's slot.

use qspr_fabric::Time;

/// Slots in the ring, a power of two: events fewer than `SLOTS` µs
/// ahead of the clock go into their slot directly, later ones wait in
/// the overflow list.
pub(crate) const SLOTS: usize = 256;

const MASK: Time = SLOTS as Time - 1;

/// Marks the end of a slot's list and of the free list.
const NIL: u32 = u32::MAX;

/// Pending events in `(time, schedule order)`.
///
/// Each slot is a FIFO list linked through one arena of nodes with a
/// free list, so a pass allocates only while its pending-event count
/// grows. Events `SLOTS` or more ahead wait in `far`, in schedule order;
/// they move into their slot as soon as the window reaches their time,
/// which is always before any direct push at that time, so each slot
/// stays in schedule order.
pub(crate) struct EventQueue<K> {
    /// Arena of list nodes: an event and the index of the next node.
    nodes: Vec<(K, u32)>,
    /// Head of the free-node list.
    free: u32,
    head: [u32; SLOTS],
    tail: [u32; SLOTS],
    /// The clock: the ring holds the times `now..now + SLOTS`.
    now: Time,
    /// Events in the ring.
    in_ring: usize,
    /// Events at `now + SLOTS` or later, in schedule order.
    far: Vec<(Time, K)>,
    /// The earliest time in `far` (`Time::MAX` when it is empty).
    far_min: Time,
}

impl<K: Copy> EventQueue<K> {
    pub(crate) fn new() -> EventQueue<K> {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            head: [NIL; SLOTS],
            tail: [NIL; SLOTS],
            now: 0,
            in_ring: 0,
            far: Vec::new(),
            far_min: Time::MAX,
        }
    }

    /// Schedules `kind` at `time`, which must not be before the clock.
    pub(crate) fn push(&mut self, time: Time, kind: K) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        if time - self.now < SLOTS as Time {
            self.link(time, kind);
        } else {
            self.far.push((time, kind));
            self.far_min = self.far_min.min(time);
        }
    }

    /// Advances the clock to the earliest pending time and returns it,
    /// or `None` when nothing is pending. Scans at most `SLOTS` slots; an
    /// empty ring jumps straight to the overflow's earliest time.
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        if self.in_ring == 0 {
            if self.far.is_empty() {
                return None;
            }
            self.now = self.far_min;
        } else {
            // The ring holds an event fewer than `SLOTS` µs ahead, and
            // every overflow event lies beyond the ring.
            while self.head[(self.now & MASK) as usize] == NIL {
                self.now += 1;
            }
        }
        if self.far_min < self.now + SLOTS as Time {
            self.admit_far();
        }
        Some(self.now)
    }

    /// Pops the next event at the clock's time, or `None` once that slot
    /// is empty. Events pushed at the clock's time while draining pop in
    /// the same drain, after the ones already there.
    pub(crate) fn pop(&mut self) -> Option<K> {
        let slot = (self.now & MASK) as usize;
        let node = self.head[slot];
        if node == NIL {
            return None;
        }
        let (kind, next) = self.nodes[node as usize];
        self.head[slot] = next;
        if next == NIL {
            self.tail[slot] = NIL;
        }
        self.nodes[node as usize].1 = self.free;
        self.free = node;
        self.in_ring -= 1;
        Some(kind)
    }

    /// Appends `kind` to the FIFO of `time`'s slot.
    fn link(&mut self, time: Time, kind: K) {
        let node = if self.free == NIL {
            let node = u32::try_from(self.nodes.len()).expect("fewer than 2^32 pending events");
            self.nodes.push((kind, NIL));
            node
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].1;
            self.nodes[node as usize] = (kind, NIL);
            node
        };
        let slot = (time & MASK) as usize;
        match self.tail[slot] {
            NIL => self.head[slot] = node,
            last => self.nodes[last as usize].1 = node,
        }
        self.tail[slot] = node;
        self.in_ring += 1;
    }

    /// Moves every overflow event now inside the ring's window into its
    /// slot, in schedule order.
    fn admit_far(&mut self) {
        let end = self.now + SLOTS as Time;
        let mut far = std::mem::take(&mut self.far);
        self.far_min = Time::MAX;
        far.retain(|&(time, kind)| {
            if time < end {
                self.link(time, kind);
                false
            } else {
                self.far_min = self.far_min.min(time);
                true
            }
        });
        self.far = far;
    }
}

/// The binary heap the ring replaced, kept as the reference model the
/// ring's pop order must reproduce exactly.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct HeapQueue<K> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Time, u64, K)>>,
    seq: u64,
    now: Time,
}

#[cfg(test)]
impl<K: Copy + Ord> HeapQueue<K> {
    pub(crate) fn push(&mut self, time: Time, kind: K) {
        self.seq += 1;
        self.heap.push(std::cmp::Reverse((time, self.seq, kind)));
    }

    pub(crate) fn next_time(&mut self) -> Option<Time> {
        let &std::cmp::Reverse((time, ..)) = self.heap.peek()?;
        self.now = time;
        Some(time)
    }

    pub(crate) fn pop(&mut self) -> Option<K> {
        match self.heap.peek() {
            Some(&std::cmp::Reverse((time, ..))) if time == self.now => {
                self.heap.pop().map(|std::cmp::Reverse((.., kind))| kind)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `queue` the way `Sim::run` does, recording `(time, event)`.
    fn drain(queue: &mut EventQueue<u32>) -> Vec<(Time, u32)> {
        let mut popped = Vec::new();
        while let Some(t) = queue.next_time() {
            while let Some(k) = queue.pop() {
                popped.push((t, k));
            }
        }
        popped
    }

    #[test]
    fn an_overflow_event_pops_before_a_later_direct_push_at_its_time() {
        let far = SLOTS as Time + 5;
        let mut queue = EventQueue::new();
        queue.push(far, 0);
        queue.push(10, 1);
        assert_eq!(queue.next_time(), Some(10));
        assert_eq!(queue.pop(), Some(1));
        // The window now reaches `far`: this push queues behind event 0.
        queue.push(far, 2);
        assert_eq!(drain(&mut queue), [(far, 0), (far, 2)]);
    }

    #[test]
    fn an_empty_ring_jumps_to_the_overflow() {
        let mut queue = EventQueue::new();
        queue.push(3_000_000, 7);
        queue.push(1_000_000, 8);
        assert_eq!(drain(&mut queue), [(1_000_000, 8), (3_000_000, 7)]);
        assert!(queue.far.is_empty() && queue.in_ring == 0);
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut queue = EventQueue::new();
        for round in 0..100 {
            queue.push(round, 0);
            queue.push(round, 1);
            assert_eq!(queue.next_time(), Some(round));
            assert_eq!(
                (queue.pop(), queue.pop(), queue.pop()),
                (Some(0), Some(1), None)
            );
        }
        assert_eq!(queue.nodes.len(), 2);
    }
}
