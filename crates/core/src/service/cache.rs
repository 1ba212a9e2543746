//! The service's result cache: one LRU of response bodies under one
//! lock.
//!
//! Keys are the canonical flow fingerprints of
//! [`Flow::fingerprint`](crate::Flow::fingerprint); values are the
//! exact response bodies the service sent on the cold path, so a cache
//! hit is byte-identical by construction. The LRU is a `HashMap` plus
//! an intrusive recency list in a slab of indices (no `unsafe`, O(1)
//! get/insert/evict). It keeps an incremental byte count and
//! hit/miss/eviction counters, which `/stats` reports.
//!
//! One mutex guards the whole cache. Every request already takes the
//! metrics registry's single mutex several times, so a finer cache lock
//! removes no contention: an 8-way sharded cache was no faster than
//! this one on perfbench's `serve_hit_miss` workload (2-vCPU host).

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Result-cache capacity in entries when none is configured (the
/// default of `qspr serve --cache`).
pub const DEFAULT_CACHE_ENTRIES: usize = 128;

/// How a [`ResultCache`] is sized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Entry capacity (0 disables caching).
    pub entries: usize,
}

impl Default for CacheConfig {
    /// [`DEFAULT_CACHE_ENTRIES`] entries.
    fn default() -> CacheConfig {
        CacheConfig {
            entries: DEFAULT_CACHE_ENTRIES,
        }
    }
}

/// A point-in-time copy of the cache's occupancy and counters,
/// surfaced by `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: u64,
    /// Bytes currently held (keys + values).
    pub bytes: u64,
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed by capacity pressure.
    pub evictions: u64,
}

/// Sentinel for "no neighbor" in the intrusive recency list.
const NONE: usize = usize::MAX;

/// One slab slot: a key/value pair threaded into the recency list.
#[derive(Debug)]
struct Entry {
    key: String,
    value: String,
    prev: usize,
    next: usize,
}

/// The slab LRU behind [`ResultCache`]'s lock.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    map: HashMap<String, usize>,
    slab: Vec<Entry>,
    /// Most recently used entry (list head).
    head: usize,
    /// Least recently used entry (list tail, next eviction victim).
    tail: usize,
    /// Recycled slab slots.
    free: Vec<usize>,
    /// Bytes currently held (maintained incrementally; the test-only
    /// audit recomputes it from the slab).
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up: a hit is promoted and cloned out.
    fn get(&mut self, key: &str) -> Option<String> {
        let Some(&slot) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.promote(slot);
        self.hits += 1;
        Some(self.slab[slot].value.clone())
    }

    /// See [`ResultCache::insert`].
    fn insert(&mut self, key: String, value: String) -> String {
        if self.capacity == 0 {
            return value;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.promote(slot);
            return self.slab[slot].value.clone();
        }
        if self.map.len() == self.capacity {
            self.evict_tail();
        }
        self.bytes += key.len() + value.len();
        let entry = Entry {
            key: key.clone(),
            value: value.clone(),
            prev: NONE,
            next: self.head,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        if self.head != NONE {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
        self.map.insert(key, slot);
        value
    }

    /// Unlinks `slot` from the recency list and relinks it at the head.
    fn promote(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NONE {
            self.slab[prev].next = next;
        }
        if next != NONE {
            self.slab[next].prev = prev;
        }
        if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NONE;
        self.slab[slot].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
    }

    /// Removes the least recently used entry.
    fn evict_tail(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NONE, "evict called on an empty cache");
        let prev = self.slab[victim].prev;
        if prev != NONE {
            self.slab[prev].next = NONE;
        } else {
            self.head = NONE;
        }
        self.tail = prev;
        let Entry { key, value, .. } = &self.slab[victim];
        self.bytes -= key.len() + value.len();
        self.map.remove(key);
        self.free.push(victim);
        self.evictions += 1;
    }
}

/// An internally synchronized LRU cache of response bodies with string
/// keys: one mutex around one slab LRU, shared by every worker thread.
///
/// Capacity 0 disables the cache: every lookup misses and nothing is
/// stored. An insert never replaces an existing entry (see
/// [`ResultCache::insert`]).
///
/// # Examples
///
/// ```
/// use qspr::service::ResultCache;
///
/// let cache = ResultCache::new(64);
/// cache.insert("key".into(), "body".into());
/// assert_eq!(cache.get("key"), Some("body".into())); // hit
/// assert_eq!(cache.get("absent"), None); // miss
/// let stats = cache.stats();
/// assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct ResultCache {
    lru: Mutex<Lru>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            lru: Mutex::new(Lru::new(capacity)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("result cache lock")
    }

    /// Looks up `key`, marking it most recently used on a hit. Every
    /// call counts as one hit or one miss.
    pub fn get(&self, key: &str) -> Option<String> {
        self.lock().get(key)
    }

    /// Inserts `key` unless an entry already holds it, evicting the
    /// least recently used entry when full. Returns the value now
    /// cached under `key`, or `value` itself when the cache keeps
    /// nothing. Either way `key` becomes the most recently used entry.
    ///
    /// The first writer wins: two identical cold requests that race each
    /// other both answer with the body of whichever finished first, so
    /// every later hit replays exactly what they sent.
    ///
    /// # Examples
    ///
    /// ```
    /// use qspr::service::ResultCache;
    ///
    /// let cache = ResultCache::new(2);
    /// cache.insert("a".into(), "alpha".into());
    /// cache.insert("b".into(), "beta".into());
    /// assert_eq!(cache.get("a"), Some("alpha".into())); // promotes "a"
    /// cache.insert("c".into(), "gamma".into()); // evicts "b", the LRU
    /// assert_eq!(cache.get("b"), None);
    /// // The first writer wins: a repeated insert keeps "alpha".
    /// assert_eq!(cache.insert("a".into(), "other".into()), "alpha");
    /// assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
    /// ```
    pub fn insert(&self, key: String, value: String) -> String {
        self.lock().insert(key, value)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Bytes currently cached (keys + values).
    pub fn bytes(&self) -> u64 {
        self.lock().bytes as u64
    }

    /// A consistent snapshot of occupancy and counters.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            entries: lru.map.len() as u64,
            bytes: lru.bytes as u64,
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
        }
    }

    /// Test-only invariant check: recomputes the byte total from the
    /// slab, asserts it matches the incremental counter and returns it.
    #[cfg(test)]
    pub(crate) fn audit_bytes(&self) -> u64 {
        let lru = self.lock();
        let recomputed: usize = lru
            .map
            .values()
            .map(|&slot| lru.slab[slot].key.len() + lru.slab[slot].value.len())
            .sum();
        assert_eq!(
            recomputed, lru.bytes,
            "byte accounting drifted from the slab"
        );
        lru.bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Entries in recency order, most recent first (test-only walk).
    fn contents(cache: &ResultCache) -> Vec<(String, String)> {
        let lru = cache.lock();
        let mut entries = Vec::new();
        let mut at = lru.head;
        while at != NONE {
            entries.push((lru.slab[at].key.clone(), lru.slab[at].value.clone()));
            at = lru.slab[at].next;
        }
        entries
    }

    fn keys(cache: &ResultCache) -> Vec<String> {
        contents(cache).into_iter().map(|(key, _)| key).collect()
    }

    fn some(value: &str) -> Option<String> {
        Some(value.to_owned())
    }

    #[test]
    fn evicts_in_lru_order() {
        let cache = ResultCache::new(3);
        for (k, v) in [("a", "1"), ("b", "2"), ("c", "3")] {
            cache.insert(k.into(), v.into());
        }
        assert_eq!(keys(&cache), ["c", "b", "a"]);
        cache.insert("d".into(), "4".into()); // evicts "a"
        assert_eq!(cache.get("a"), None);
        cache.insert("e".into(), "5".into()); // evicts "b"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("c"), some("3"));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn get_promotes_against_eviction() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), "1".into());
        cache.insert("b".into(), "2".into());
        assert_eq!(cache.get("a"), some("1")); // "b" becomes LRU
        cache.insert("c".into(), "3".into());
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), some("1"));
        assert_eq!(cache.get("c"), some("3"));
    }

    #[test]
    fn insert_keeps_the_first_value_and_promotes_existing_keys() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), "1".into());
        cache.insert("b".into(), "2".into());
        // A repeated insert keeps the first value, promotes the key and
        // leaves len at 2.
        assert_eq!(cache.insert("a".into(), "10".into()), "1");
        assert_eq!(cache.len(), 2);
        assert_eq!(keys(&cache), ["a", "b"]);
        assert_eq!(cache.get("a"), some("1"));
        cache.insert("c".into(), "3".into()); // evicts "b", not "a"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), some("1"));
    }

    #[test]
    fn capacity_one_and_zero_degenerate_cleanly() {
        let one = ResultCache::new(1);
        one.insert("a".into(), "1".into());
        one.insert("b".into(), "2".into());
        assert_eq!(one.get("a"), None);
        assert_eq!(one.get("b"), some("2"));
        assert_eq!(one.len(), 1);

        let off = ResultCache::new(0);
        assert_eq!(off.insert("a".into(), "1".into()), "1");
        assert_eq!(off.get("a"), None);
        assert!(off.is_empty());
        assert_eq!(off.capacity(), 0);
        assert_eq!(off.stats().misses, 1);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let cache = ResultCache::new(2);
        for i in 0..100 {
            cache.insert(format!("k{i}"), i.to_string());
        }
        assert_eq!(cache.len(), 2);
        let slab = cache.lock().slab.len();
        assert!(slab <= 3, "slab grew: {slab}");
        assert_eq!(cache.get("k99"), some("99"));
        assert_eq!(cache.get("k98"), some("98"));
    }

    #[test]
    fn capacity_is_a_hard_bound_and_evictions_wait_for_it() {
        // 64 distinct keys past capacity: the cache never holds more than
        // its capacity, and it evicts nothing before it is full.
        for capacity in [1, 128] {
            let cache = ResultCache::new(capacity);
            for i in 0..capacity + 64 {
                cache.insert(format!("key-{i}"), "body".into());
                let stats = cache.stats();
                assert!(
                    cache.len() <= cache.capacity(),
                    "capacity {capacity}: {} entries held after {} inserts",
                    cache.len(),
                    i + 1
                );
                if cache.len() < cache.capacity() {
                    assert_eq!(
                        stats.evictions,
                        0,
                        "capacity {capacity}: evicted with only {} entries held",
                        cache.len()
                    );
                }
            }
            let stats = cache.stats();
            assert_eq!(stats.entries, capacity as u64);
            assert_eq!(stats.evictions, 64);
        }
    }

    /// A naive LRU: `(key, value)` pairs in recency order, most recent
    /// first, O(n) per operation.
    #[derive(Default)]
    struct Model {
        entries: Vec<(String, String)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn get(&mut self, key: &str) -> Option<String> {
            let Some(at) = self.entries.iter().position(|(k, _)| k == key) else {
                self.misses += 1;
                return None;
            };
            self.hits += 1;
            let entry = self.entries.remove(at);
            self.entries.insert(0, entry);
            Some(self.entries[0].1.clone())
        }

        fn insert(&mut self, capacity: usize, key: String, value: String) -> String {
            if capacity == 0 {
                return value;
            }
            if let Some(at) = self.entries.iter().position(|(k, _)| *k == key) {
                let entry = self.entries.remove(at);
                self.entries.insert(0, entry);
                return self.entries[0].1.clone();
            }
            if self.entries.len() == capacity {
                self.entries.pop();
                self.evictions += 1;
            }
            self.entries.insert(0, (key, value.clone()));
            value
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On any operation trace the cache agrees with the naive model:
        /// same returned values, hits, misses and evictions, same final
        /// contents in the same recency order, same byte count.
        #[test]
        fn cache_matches_a_naive_recency_model(
            ops in collection::vec((any::<bool>(), 0u8..12), 1..250),
            capacity in 0usize..6,
        ) {
            let cache = ResultCache::new(capacity);
            let mut model = Model::default();
            for (i, (is_insert, key)) in ops.into_iter().enumerate() {
                let key = format!("k{key}");
                if is_insert {
                    // Values differ per insert, so a replacing insert
                    // would show.
                    let value = format!("value-{i}-of-{key}");
                    prop_assert_eq!(
                        cache.insert(key.clone(), value.clone()),
                        model.insert(capacity, key, value)
                    );
                } else {
                    prop_assert_eq!(cache.get(&key), model.get(&key));
                }
            }
            prop_assert_eq!(contents(&cache), model.entries.clone());
            let bytes: usize = model.entries.iter().map(|(k, v)| k.len() + v.len()).sum();
            prop_assert_eq!(cache.audit_bytes(), bytes as u64);
            prop_assert_eq!(
                cache.stats(),
                CacheStats {
                    entries: model.entries.len() as u64,
                    bytes: bytes as u64,
                    hits: model.hits,
                    misses: model.misses,
                    evictions: model.evictions,
                }
            );
        }
    }
}
