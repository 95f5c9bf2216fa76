//! A byte-bounded least-recently-used (LRU) cache.
//!
//! CDStore servers "maintain a least-recently-used (LRU) disk cache to hold
//! the most recently accessed containers to reduce I/Os to the storage
//! backend" (§4.5). The same structure is reused for the block cache of the
//! disk-resident index store (see `cdstore_index`), which is why eviction
//! must not scan: a churning block cache evicts on almost every fill.
//!
//! Recency is tracked by a monotonically increasing tick. Each entry stores
//! its last-use tick, and a `BTreeMap` from tick to key mirrors the entries
//! in recency order, so the least-recently-used victim is the first tick in
//! the map — `O(log n)` per eviction instead of a full scan.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// An LRU cache bounded by the total byte size of its values.
pub struct LruCache<K, V> {
    capacity_bytes: usize,
    current_bytes: usize,
    peak_bytes: usize,
    /// key → (value, size, last-use tick)
    entries: HashMap<K, (V, usize, u64)>,
    /// last-use tick → key, mirroring `entries`; the first entry is the LRU
    /// victim. Ticks are unique (every touch consumes a fresh one), so this
    /// is a faithful recency ordering, not an approximation.
    recency: BTreeMap<u64, K>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity_bytes` of values.
    pub fn new(capacity_bytes: usize) -> Self {
        LruCache {
            capacity_bytes,
            current_bytes: 0,
            peak_bytes: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes currently cached.
    pub fn current_bytes(&self) -> usize {
        self.current_bytes
    }

    /// Largest value `current_bytes` ever reached. Never exceeds the
    /// capacity, which makes it a resident-memory proxy for callers using
    /// the cache as their only unbounded buffer (e.g. the index block
    /// cache).
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some((value, _, last_use)) => {
                self.recency.remove(last_use);
                self.recency.insert(tick, key.clone());
                *last_use = tick;
                self.hits += 1;
                Some(&*value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether a key is cached (does not count as a hit or refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts a value of the given byte size, evicting least-recently-used
    /// entries as needed. Values larger than the whole capacity are not
    /// cached at all.
    pub fn put(&mut self, key: K, value: V, size: usize) {
        if size > self.capacity_bytes {
            return;
        }
        self.tick += 1;
        if let Some((_, old_size, old_tick)) = self.entries.remove(&key) {
            self.current_bytes -= old_size;
            self.recency.remove(&old_tick);
        }
        while self.current_bytes + size > self.capacity_bytes {
            let Some((_, victim)) = self.recency.pop_first() else {
                break;
            };
            if let Some((_, victim_size, _)) = self.entries.remove(&victim) {
                self.current_bytes -= victim_size;
                self.evictions += 1;
            }
        }
        self.current_bytes += size;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        self.recency.insert(self.tick, key.clone());
        self.entries.insert(key, (value, size, self.tick));
    }

    /// Removes a key from the cache.
    pub fn remove(&mut self, key: &K) {
        if let Some((_, size, tick)) = self.entries.remove(key) {
            self.current_bytes -= size;
            self.recency.remove(&tick);
        }
    }

    /// Keeps only the entries whose key satisfies the predicate (used e.g.
    /// to drop blocks of index runs deleted by compaction).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let mut freed = 0usize;
        self.entries.retain(|key, (_, size, tick)| {
            if keep(key) {
                true
            } else {
                freed += *size;
                self.recency.remove(tick);
                false
            }
        });
        self.current_bytes -= freed;
    }

    /// Clears the cache (statistics are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.current_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_get_put() {
        let mut cache: LruCache<u32, Vec<u8>> = LruCache::new(100);
        assert!(cache.get(&1).is_none());
        cache.put(1, vec![1; 10], 10);
        assert_eq!(cache.get(&1).map(|v| v.len()), Some(10));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache: LruCache<&str, u8> = LruCache::new(30);
        cache.put("a", 1, 10);
        cache.put("b", 2, 10);
        cache.put("c", 3, 10);
        // Touch "a" so "b" becomes the LRU entry.
        assert!(cache.get(&"a").is_some());
        cache.put("d", 4, 10);
        assert!(cache.contains(&"a"));
        assert!(!cache.contains(&"b"));
        assert!(cache.contains(&"c"));
        assert!(cache.contains(&"d"));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn respects_byte_budget_not_entry_count() {
        let mut cache: LruCache<u32, ()> = LruCache::new(100);
        cache.put(1, (), 60);
        cache.put(2, (), 60);
        // Entry 1 must have been evicted to fit entry 2.
        assert!(!cache.contains(&1));
        assert!(cache.contains(&2));
        assert_eq!(cache.current_bytes(), 60);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let mut cache: LruCache<u32, ()> = LruCache::new(100);
        cache.put(1, (), 1000);
        assert!(cache.is_empty());
    }

    #[test]
    fn overwriting_updates_size_accounting() {
        let mut cache: LruCache<u32, ()> = LruCache::new(100);
        cache.put(1, (), 80);
        cache.put(1, (), 10);
        assert_eq!(cache.current_bytes(), 10);
        cache.put(2, (), 90);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn remove_and_clear() {
        let mut cache: LruCache<u32, ()> = LruCache::new(100);
        cache.put(1, (), 10);
        cache.put(2, (), 10);
        cache.remove(&1);
        assert_eq!(cache.current_bytes(), 10);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.current_bytes(), 0);
    }

    #[test]
    fn peak_bytes_tracks_high_water_mark() {
        let mut cache: LruCache<u32, ()> = LruCache::new(100);
        cache.put(1, (), 40);
        cache.put(2, (), 50);
        assert_eq!(cache.peak_bytes(), 90);
        cache.remove(&1);
        cache.remove(&2);
        assert_eq!(cache.current_bytes(), 0);
        // The peak is sticky and never exceeds capacity.
        assert_eq!(cache.peak_bytes(), 90);
        cache.put(3, (), 100);
        assert_eq!(cache.peak_bytes(), 100);
        assert_eq!(cache.capacity_bytes(), 100);
    }

    #[test]
    fn retain_drops_matching_entries_and_accounting() {
        let mut cache: LruCache<(u64, u32), ()> = LruCache::new(100);
        cache.put((1, 0), (), 10);
        cache.put((1, 1), (), 10);
        cache.put((2, 0), (), 10);
        cache.retain(|&(run, _)| run != 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.current_bytes(), 10);
        assert!(cache.contains(&(2, 0)));
        // The recency index must stay consistent: filling the cache now
        // evicts only live entries.
        for i in 0..9 {
            cache.put((3, i), (), 10);
        }
        assert_eq!(cache.current_bytes(), 100);
        cache.put((4, 0), (), 10);
        assert!(!cache.contains(&(2, 0)));
        assert_eq!(cache.current_bytes(), 100);
    }

    /// Interleaved churn at a size where the old O(n²) eviction scan took
    /// minutes: 60k resident entries, 200k inserts, each insert evicting.
    /// With the tick-ordered recency index this completes in well under a
    /// second even in debug builds; the test is a timing canary rather than
    /// a strict asymptotic proof.
    #[test]
    fn eviction_cost_does_not_scale_with_resident_entries() {
        const ENTRY: usize = 1;
        const RESIDENT: usize = 60_000;
        const INSERTS: usize = 200_000;
        let mut cache: LruCache<u64, ()> = LruCache::new(RESIDENT * ENTRY);
        let start = std::time::Instant::now();
        for i in 0..INSERTS as u64 {
            cache.put(i, (), ENTRY);
        }
        let elapsed = start.elapsed();
        assert_eq!(cache.len(), RESIDENT);
        assert_eq!(cache.evictions(), (INSERTS - RESIDENT) as u64);
        // Generous bound: the quadratic implementation needs > 100s here.
        assert!(
            elapsed < std::time::Duration::from_secs(20),
            "LRU churn took {elapsed:?}; eviction is scaling with resident entries"
        );
        // The survivors must be exactly the most recent RESIDENT keys.
        assert!(cache.contains(&((INSERTS - 1) as u64)));
        assert!(!cache.contains(&((INSERTS - RESIDENT - 1) as u64)));
    }
}
