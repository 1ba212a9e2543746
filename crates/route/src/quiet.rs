//! The quiet-route table: routes of the quiet fabric, shared per fabric
//! and router weights, that a query reuses instead of searching when the
//! bookings it meets cannot change the answer.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use qspr_fabric::TrapId;

use crate::plan::RoutePlan;

/// The most routes one [`QuietRoutes`] table holds. Past it, queries
/// whose key is missing search as if there were no table.
pub const QUIET_ROUTES_CAP: usize = 1 << 14;

/// Open-addressing slots: twice the cap, so a probe always meets an
/// empty slot.
const SLOTS: usize = 2 * QUIET_ROUTES_CAP;

/// A quiet-route key: the two traps and the bookings (0 or 1) on the
/// source's and the target's port segments. On the *quiet fabric* of a
/// key, those two bookings are the only ones and no segment has
/// history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QuietKey {
    from: TrapId,
    to: TrapId,
    ports: [u8; 2],
}

impl QuietKey {
    pub(crate) fn new(from: TrapId, to: TrapId, ports: [u8; 2]) -> QuietKey {
        QuietKey { from, to, ports }
    }

    /// The first slot of the key's probe sequence: a splitmix64
    /// finalizer over the packed key mixed with the table's random
    /// `seed`, so that which keys share a probe run is not known in
    /// advance to a client choosing circuits and fabrics.
    fn slot(self, seed: u64) -> usize {
        let mut x = seed
            ^ u64::from(self.from.0) << 34
            ^ u64::from(self.to.0) << 2
            ^ u64::from(self.ports[0]) << 1
            ^ u64::from(self.ports[1]);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) as usize % SLOTS
    }
}

struct Entry {
    key: QuietKey,
    plan: RoutePlan,
}

/// Exact routes of the quiet fabric, one table per fabric and router
/// weights ([`crate::RouterConfig::quiet_routes`]), shared by every
/// router with those weights like the fabric's
/// [`TravelBounds`](qspr_fabric::TravelBounds).
///
/// An entry maps a key (the two traps and the bookings, 0 or 1, on
/// their two port segments) to the plan that the router returns on that
/// key's *quiet fabric*, where those two bookings are the only ones and
/// no segment has history. A [`Router`](crate::Router) stores a plan
/// when a live search read only quiet-fabric weights, and answers a
/// later query with the same key with a clone of it when every other
/// resource on the plan still reads its quiet-fabric weight (see the
/// crate docs, "Performance", for why that is exact).
///
/// Besides one open-addressing array of `2 ×` [`QUIET_ROUTES_CAP`]
/// slots (16 bytes each, allocated on the first fill), only filled keys
/// take room: each slot is an empty [`OnceLock`] or a boxed entry.
/// Entries are never replaced or removed, so a lookup is a few lock-free
/// `OnceLock` reads and stops at the first empty slot. Past the cap,
/// fills are dropped.
pub struct QuietRoutes {
    seed: u64,
    slots: OnceLock<Box<[OnceLock<Box<Entry>>]>>,
    /// Entries stored, counting fills in progress.
    len: AtomicUsize,
}

impl fmt::Debug for QuietRoutes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuietRoutes")
            .field("len", &self.len())
            .finish()
    }
}

impl Default for QuietRoutes {
    fn default() -> QuietRoutes {
        QuietRoutes {
            seed: RandomState::new().hash_one(0u8),
            slots: OnceLock::new(),
            len: AtomicUsize::new(0),
        }
    }
}

impl QuietRoutes {
    /// How many routes the table holds.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no route has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored plan of `key`, if any.
    pub(crate) fn get(&self, key: QuietKey) -> Option<&RoutePlan> {
        let slots = self.slots.get()?;
        let mut i = key.slot(self.seed);
        loop {
            let entry = slots[i].get()?;
            if entry.key == key {
                return Some(&entry.plan);
            }
            i = (i + 1) % SLOTS;
        }
    }

    /// Stores `plan` under `key` unless the key is already there or the
    /// table is full.
    pub(crate) fn insert(&self, key: QuietKey, plan: &RoutePlan) {
        let reserved = self
            .len
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < QUIET_ROUTES_CAP).then_some(n + 1)
            });
        if reserved.is_err() {
            return;
        }
        let slots = self
            .slots
            .get_or_init(|| (0..SLOTS).map(|_| OnceLock::new()).collect());
        let mut stored = false;
        let mut i = key.slot(self.seed);
        loop {
            let entry = slots[i].get_or_init(|| {
                stored = true;
                Box::new(Entry {
                    key,
                    plan: plan.clone(),
                })
            });
            if entry.key == key {
                break;
            }
            i = (i + 1) % SLOTS;
        }
        if !stored {
            // Another thread stored the key first.
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
    }
}
