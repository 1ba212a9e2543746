//! The service's result cache: one LRU of response bodies under one
//! lock.
//!
//! Keys are the canonical flow fingerprints of
//! [`Flow::fingerprint`](crate::Flow::fingerprint); values are the
//! exact response bodies the service sent on the cold path, so a cache
//! hit is byte-identical by construction. The LRU is two std maps: a
//! `HashMap` from key to value and the stamp of its last use, and a
//! `BTreeMap` from stamp to key whose first entry is the eviction
//! victim (O(log n) get/insert/evict). It keeps an incremental byte
//! count and an eviction counter, which `/stats` reports; the service
//! counts hits and misses itself, once per lookup.
//!
//! One mutex guards the whole cache. Every request already takes the
//! metrics registry's single mutex several times, so a finer cache lock
//! removes no contention: an 8-way sharded cache was no faster than
//! this one on perfbench's `serve_hit_miss` workload (2-vCPU host).

use std::collections::{BTreeMap, HashMap};
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

/// A point-in-time copy of the cache's occupancy and evictions,
/// surfaced by `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: u64,
    /// Bytes currently held (keys + values).
    pub bytes: u64,
    /// Entries removed by capacity pressure.
    pub evictions: u64,
}

/// The LRU behind [`ResultCache`]'s lock. Each use of a key takes the
/// next stamp from `clock`; `recency` orders the stamps, so its first
/// entry is the least recently used key.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    /// Key → (value, stamp of its last use).
    map: HashMap<String, (String, u64)>,
    /// Stamp of last use → key, oldest first.
    recency: BTreeMap<u64, String>,
    /// The next stamp to hand out.
    clock: u64,
    /// Bytes currently held (maintained incrementally; the test-only
    /// audit recomputes it from the map).
    bytes: usize,
    evictions: u64,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            bytes: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up: a hit is restamped as most recently used and
    /// cloned out.
    fn get(&mut self, key: &str) -> Option<String> {
        let (value, stamp) = self.map.get_mut(key)?;
        let key = self
            .recency
            .remove(stamp)
            .expect("every entry has a recency stamp");
        *stamp = self.clock;
        self.recency.insert(self.clock, key);
        self.clock += 1;
        Some(value.clone())
    }

    /// See [`ResultCache::insert`].
    fn insert(&mut self, key: String, value: String) -> String {
        if self.capacity == 0 {
            return value;
        }
        if let Some(cached) = self.get(&key) {
            return cached;
        }
        if self.map.len() == self.capacity {
            let (_, victim) = self
                .recency
                .pop_first()
                .expect("a full cache has a least recently used entry");
            let (evicted, _) = self
                .map
                .remove(&victim)
                .expect("every recency stamp names an entry");
            self.bytes -= victim.len() + evicted.len();
            self.evictions += 1;
        }
        self.bytes += key.len() + value.len();
        self.recency.insert(self.clock, key.clone());
        self.map.insert(key, (value.clone(), self.clock));
        self.clock += 1;
        value
    }
}

/// An internally synchronized LRU cache of response bodies with string
/// keys: one mutex around one LRU, shared by every worker thread.
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
/// assert_eq!(cache.stats().entries, 1);
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

    /// Looks up `key`, marking it most recently used on a hit.
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

    /// A consistent snapshot of occupancy and evictions.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            entries: lru.map.len() as u64,
            bytes: lru.bytes as u64,
            evictions: lru.evictions,
        }
    }

    /// Test-only invariant check: asserts that every entry has exactly
    /// one recency stamp and that the incremental byte counter matches
    /// the map, and returns the byte total.
    #[cfg(test)]
    pub(crate) fn audit_bytes(&self) -> u64 {
        let lru = self.lock();
        assert_eq!(lru.recency.len(), lru.map.len(), "recency stamps leaked");
        for (stamp, key) in &lru.recency {
            assert_eq!(lru.map[key].1, *stamp, "stale stamp for {key:?}");
        }
        let recomputed: usize = lru.map.iter().map(|(k, (v, _))| k.len() + v.len()).sum();
        assert_eq!(
            recomputed, lru.bytes,
            "byte accounting drifted from the map"
        );
        lru.bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Entries in recency order, most recent first.
    fn contents(cache: &ResultCache) -> Vec<(String, String)> {
        let lru = cache.lock();
        lru.recency
            .values()
            .rev()
            .map(|key| (key.clone(), lru.map[key].0.clone()))
            .collect()
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
    }

    #[test]
    fn recency_stamps_do_not_leak() {
        // Inserts, hits, repeated inserts and evictions each leave one
        // stamp per entry; "k0" is hit every round, so it survives.
        let cache = ResultCache::new(2);
        for i in 0..100 {
            let key = format!("k{i}");
            cache.insert(key.clone(), i.to_string());
            cache.get(&key);
            cache.insert(key, "again".into());
            cache.get("k0");
        }
        assert_eq!(cache.lock().recency.len(), 2);
        cache.audit_bytes();
        assert_eq!(cache.get("k0"), some("0"));
        assert_eq!(cache.get("k99"), some("99"));
        assert_eq!(cache.get("k98"), None);
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
        evictions: u64,
    }

    impl Model {
        fn get(&mut self, key: &str) -> Option<String> {
            let at = self.entries.iter().position(|(k, _)| k == key)?;
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
        /// same returned values and evictions, same final
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
                    evictions: model.evictions,
                }
            );
        }
    }

    #[test]
    fn result_cache_is_deterministic_under_concurrency() {
        // N threads hammer disjoint key ranges concurrently; every thread
        // sees exactly its own values, and the final counters add up.
        let cache = Arc::new(ResultCache::new(4096));
        let threads = 8;
        let per_thread = 100u32;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for k in 0..per_thread {
                        let key = format!("t{t}-k{k}");
                        let value = format!("value-{t}-{k}");
                        assert_eq!(cache.get(&key), None, "first lookup misses");
                        cache.insert(key.clone(), value.clone());
                        assert_eq!(cache.get(&key), Some(value), "own insert visible");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = cache.stats();
        let ops = u64::from(per_thread) * threads as u64;
        assert_eq!(cache.len() as u64, ops);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.audit_bytes(), cache.bytes());
        // Everything is still retrievable afterwards, deterministically.
        for t in 0..threads {
            for k in 0..per_thread {
                assert_eq!(
                    cache.get(&format!("t{t}-k{k}")),
                    Some(format!("value-{t}-{k}"))
                );
            }
        }
    }
}
