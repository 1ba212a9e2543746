//! The reference kernel: a fixed shortest-path search whose CPU time
//! tracks how fast the machine runs the benchmark at the moment.
//!
//! On a host shared with other tenants, the speed a core gives a
//! memory-bound search drifts by up to 1.5× over tens of seconds, and
//! every wall time drifts with it; a run's median cannot average that
//! out. Dividing each mapping's wall time by this kernel's CPU time,
//! measured just before and after it on the same thread, cancels most
//! of the drift. The kernel is the benchmark's own code, so a change to
//! the mapper never changes it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cpu;

/// Grid width and height: the size of the paper's 45×85 fabric.
const W: usize = 85;
const H: usize = 45;
/// Searches per measurement.
const SEARCHES: usize = 25;

/// The kernel's CPU time on the 2-vCPU 2.0 GHz Xeon VM the benchmark
/// was sized on, rounded: `setup_s`, which must stay in seconds, is
/// scaled to the speed at which one measurement takes this long.
pub const NOMINAL_NS: f64 = 5e6;

/// Dijkstra over a grid with seeded step costs and walls, run
/// [`SEARCHES`] times from fixed sources.
pub struct Reference {
    /// Step cost into each cell; `u32::MAX` is a wall.
    cost: Vec<u32>,
    dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, usize)>>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let cost = (0..W * H)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 5 == 0 {
                    u32::MAX
                } else {
                    1 + (x % 7) as u32
                }
            })
            .collect();
        Reference {
            cost,
            dist: vec![u32::MAX; W * H],
            heap: BinaryHeap::with_capacity(W * H),
        }
    }

    /// Runs the kernel once; returns its thread CPU time, ns.
    pub fn measure(&mut self) -> f64 {
        let t = cpu::thread_ns();
        std::hint::black_box(self.search_all());
        cpu::thread_ns() - t
    }

    /// Σ settled distances over all searches (a checksum).
    fn search_all(&mut self) -> u64 {
        let mut sum = 0;
        for s in 0..SEARCHES {
            sum += self.search(std::hint::black_box((s * 7919) % (W * H)));
        }
        sum
    }

    fn search(&mut self, start: usize) -> u64 {
        self.dist.fill(u32::MAX);
        if self.cost[start] == u32::MAX {
            return 0;
        }
        let (cost, dist, heap) = (&self.cost, &mut self.dist, &mut self.heap);
        let mut sum = 0;
        dist[start] = 0;
        heap.push(Reverse((0, start)));
        while let Some(Reverse((d, c))) = heap.pop() {
            if d > dist[c] {
                continue;
            }
            sum += u64::from(d);
            let (cx, cy) = (c % W, c / W);
            let neighbours = [
                (cx > 0).then(|| c - 1),
                (cx + 1 < W).then(|| c + 1),
                (cy > 0).then(|| c - W),
                (cy + 1 < H).then(|| c + W),
            ];
            for n in neighbours.into_iter().flatten() {
                if cost[n] != u32::MAX && d + cost[n] < dist[n] {
                    dist[n] = d + cost[n];
                    heap.push(Reverse((dist[n], n)));
                }
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_costs_time() {
        let mut a = Reference::new();
        let mut b = Reference::new();
        assert_eq!(a.search_all(), b.search_all());
        assert_eq!(a.search_all(), b.search_all(), "buffers are reset per search");
        assert!(a.search_all() > 0);
        assert!(a.measure() > 0.0);
    }
}
