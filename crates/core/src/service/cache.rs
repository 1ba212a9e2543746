//! Hand-rolled, dependency-free result caches for mapped responses.
//!
//! Keys are the canonical flow fingerprints of
//! [`Flow::fingerprint`](crate::Flow::fingerprint); values are the
//! exact response bodies the service sent on the cold path, so a cache
//! hit is byte-identical by construction. Two structures live here:
//!
//! - [`LruCache`] — the original single-threaded LRU (HashMap plus an
//!   intrusive recency list in a slab of indices — no `unsafe`, O(1)
//!   get/insert/evict). The service used to guard one of these with a
//!   single mutex; it remains the behavioral reference the sharded
//!   cache's equivalence tests replay against.
//! - [`ShardedCache`] — N independent [`LruCache`]-shaped shards, each
//!   behind its own lock, selected by an FNV-1a hash of the key.
//!   Concurrent requests for different keys almost never contend, and
//!   each shard additionally accounts bytes and keeps hit/miss/eviction
//!   counters that `/stats` surfaces per shard.

use std::collections::HashMap;
use std::sync::Mutex;

/// Sentinel for "no neighbor" in the intrusive recency list.
const NONE: usize = usize::MAX;

/// One slab slot: a key/value pair threaded into the recency list.
#[derive(Debug)]
struct Entry<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with string keys.
///
/// Capacity 0 disables the cache entirely: every lookup misses and
/// nothing is stored.
///
/// # Examples
///
/// ```
/// use qspr::service::LruCache;
///
/// let mut cache: LruCache<&'static str> = LruCache::new(2);
/// cache.insert("a".into(), "alpha");
/// cache.insert("b".into(), "beta");
/// assert_eq!(cache.get("a"), Some(&"alpha")); // promotes "a"
/// cache.insert("c".into(), "gamma");          // evicts "b", the LRU
/// assert_eq!(cache.get("b"), None);
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    map: HashMap<String, usize>,
    slab: Vec<Entry<V>>,
    /// Most recently used entry (list head).
    head: usize,
    /// Least recently used entry (list tail, next eviction victim).
    tail: usize,
    /// Recycled slab slots.
    free: Vec<usize>,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        let &slot = self.map.get(key)?;
        self.promote(slot);
        Some(&self.slab[slot].value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry when full. The inserted entry becomes most recently used.
    pub fn insert(&mut self, key: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot].value = value;
            self.promote(slot);
            return;
        }
        if self.map.len() == self.capacity {
            self.evict_tail();
        }
        let entry = Entry {
            key: key.clone(),
            value,
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
        self.map.remove(&self.slab[victim].key);
        self.free.push(victim);
    }
}

// ---------------------------------------------------------------------------
// Sharded cache
// ---------------------------------------------------------------------------

/// How a [`ShardedCache`] is sized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entry capacity across all shards (0 disables caching).
    pub entries: usize,
    /// Number of independent shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    /// 1024 entries across 8 shards.
    fn default() -> CacheConfig {
        CacheConfig {
            entries: 1024,
            shards: 8,
        }
    }
}

/// A point-in-time copy of one shard's counters and occupancy,
/// surfaced by `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries currently held.
    pub entries: u64,
    /// Bytes currently held (keys + values).
    pub bytes: u64,
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed by capacity pressure.
    pub evictions: u64,
}

/// One shard: an [`LruCache`]-shaped slab LRU with byte accounting and
/// counters.
#[derive(Debug)]
struct Shard {
    /// Entry capacity of this shard.
    capacity: usize,
    map: HashMap<String, usize>,
    slab: Vec<ShardEntry>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    /// Bytes currently held (maintained incrementally; the test-only
    /// audit recomputes it from the slab).
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct ShardEntry {
    key: String,
    value: String,
    prev: usize,
    next: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
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

    /// Inserts `key` unless an entry already holds it, and returns the
    /// value now cached under `key` (`value` itself when the shard keeps
    /// nothing). An existing entry is promoted and kept: the first
    /// writer wins.
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
        let entry = ShardEntry {
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

    fn evict_tail(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NONE, "evict called on an empty shard");
        let prev = self.slab[victim].prev;
        if prev != NONE {
            self.slab[prev].next = NONE;
        } else {
            self.head = NONE;
        }
        self.tail = prev;
        let ShardEntry { key, value, .. } = &self.slab[victim];
        self.bytes -= key.len() + value.len();
        self.map.remove(key);
        self.free.push(victim);
        self.evictions += 1;
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            entries: self.map.len() as u64,
            bytes: self.bytes as u64,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// A sharded, internally synchronized LRU result cache: N independent
/// shards, each behind its own lock, selected by an FNV-1a hash of
/// the key. Cheap shared access from many worker threads — two
/// requests contend only when their keys land in the same shard.
///
/// With one shard, the observable hit/miss/eviction behavior is
/// identical to a mutex-wrapped [`LruCache`] (an equivalence the tests
/// replay op-for-op). Unlike [`LruCache`], an insert never replaces an
/// existing entry (see [`ShardedCache::insert`]).
///
/// # Examples
///
/// ```
/// use qspr::service::{CacheConfig, ShardedCache};
///
/// let cache = ShardedCache::new(CacheConfig {
///     entries: 64,
///     shards: 4,
/// });
/// cache.insert("key".into(), "body".into());
/// assert_eq!(cache.get("key"), Some("body".into())); // hit
/// assert_eq!(cache.get("absent"), None);             // miss
/// let totals = cache.totals();
/// assert_eq!((totals.hits, totals.misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct ShardedCache {
    shards: Box<[Mutex<Shard>]>,
    /// Total entry capacity as configured (shards each get a
    /// `ceil(entries / shards)` slice).
    entries: usize,
}

impl ShardedCache {
    /// Builds the shard array from `config` (shard count clamped to at
    /// least 1; per-shard capacity is `ceil(entries / shards)` so the
    /// total never rounds down to less than asked).
    pub fn new(config: CacheConfig) -> ShardedCache {
        let shard_count = config.shards.max(1);
        let per_shard = config.entries.div_ceil(shard_count);
        let shards = (0..shard_count)
            .map(|_| Mutex::new(Shard::new(per_shard)))
            .collect();
        ShardedCache {
            shards,
            entries: config.entries,
        }
    }

    /// The shard `key` belongs to.
    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Looks up `key`, promoting it on a hit.
    pub fn get(&self, key: &str) -> Option<String> {
        self.shard_for(key)
            .lock()
            .expect("cache shard lock")
            .get(key)
    }

    /// Like [`ShardedCache::get`] but reports which shard answered
    /// (for per-shard metrics without re-hashing).
    pub fn get_indexed(&self, key: &str) -> (usize, Option<String>) {
        let index = self.shard_index(key);
        let value = self.shards[index]
            .lock()
            .expect("cache shard lock")
            .get(key);
        (index, value)
    }

    /// The index of the shard `key` hashes to (FNV-1a over the key
    /// bytes, reduced modulo the shard count).
    pub fn shard_index(&self, key: &str) -> usize {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    /// Inserts `key` unless an entry already holds it, evicting the
    /// shard's LRU entry when it is full. Returns the value now cached
    /// under `key`, or `value` itself when the cache keeps nothing.
    ///
    /// The first writer wins: two identical cold requests that race each
    /// other both answer with the body of whichever finished first, so
    /// every later hit replays exactly what they sent.
    pub fn insert(&self, key: String, value: String) -> String {
        self.shard_for(&key)
            .lock()
            .expect("cache shard lock")
            .insert(key, value)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.entries
    }

    /// Entries currently cached, summed across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently cached (keys + values), summed across shards.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").bytes as u64)
            .sum()
    }

    /// A snapshot of every shard's counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").stats())
            .collect()
    }

    /// Counters summed across shards.
    pub fn totals(&self) -> ShardStats {
        self.shard_stats()
            .iter()
            .fold(ShardStats::default(), |mut acc, s| {
                acc.entries += s.entries;
                acc.bytes += s.bytes;
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.evictions += s.evictions;
                acc
            })
    }

    /// Test-only invariant check: recomputes each shard's byte total
    /// from its slab and asserts it matches the incremental counter.
    /// Returns the audited grand total.
    #[cfg(test)]
    pub(crate) fn audit_bytes(&self) -> u64 {
        let mut total = 0u64;
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("cache shard lock");
            let recomputed: usize = shard
                .map
                .values()
                .map(|&slot| shard.slab[slot].key.len() + shard.slab[slot].value.len())
                .sum();
            assert_eq!(
                recomputed, shard.bytes,
                "shard byte accounting drifted from its slab"
            );
            total += shard.bytes as u64;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys in recency order, most recent first (test-only walk).
    fn recency<V>(cache: &LruCache<V>) -> Vec<&str> {
        let mut keys = Vec::new();
        let mut at = cache.head;
        while at != NONE {
            keys.push(cache.slab[at].key.as_str());
            at = cache.slab[at].next;
        }
        keys
    }

    #[test]
    fn evicts_in_lru_order() {
        let mut cache = LruCache::new(3);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache.insert(k.into(), v);
        }
        assert_eq!(recency(&cache), ["c", "b", "a"]);
        cache.insert("d".into(), 4); // evicts "a"
        assert_eq!(cache.get("a"), None);
        cache.insert("e".into(), 5); // evicts "b"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("c"), Some(&3));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn get_promotes_against_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        assert_eq!(cache.get("a"), Some(&1)); // "b" becomes LRU
        cache.insert("c".into(), 3);
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(&1));
        assert_eq!(cache.get("c"), Some(&3));
    }

    #[test]
    fn insert_replaces_and_promotes_existing_keys() {
        let mut cache = LruCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        cache.insert("a".into(), 10); // replace, promote; len stays 2
        assert_eq!(cache.len(), 2);
        assert_eq!(recency(&cache), ["a", "b"]);
        assert_eq!(cache.get("a"), Some(&10));
        cache.insert("c".into(), 3); // evicts "b", not "a"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(&10));
    }

    #[test]
    fn capacity_one_and_zero_degenerate_cleanly() {
        let mut one = LruCache::new(1);
        one.insert("a".into(), 1);
        one.insert("b".into(), 2);
        assert_eq!(one.get("a"), None);
        assert_eq!(one.get("b"), Some(&2));
        assert_eq!(one.len(), 1);

        let mut off: LruCache<i32> = LruCache::new(0);
        off.insert("a".into(), 1);
        assert_eq!(off.get("a"), None);
        assert!(off.is_empty());
        assert_eq!(off.capacity(), 0);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut cache = LruCache::new(2);
        for i in 0..100 {
            cache.insert(format!("k{i}"), i);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.slab.len() <= 3, "slab grew: {}", cache.slab.len());
        assert_eq!(cache.get("k99"), Some(&99));
        assert_eq!(cache.get("k98"), Some(&98));
    }
}
