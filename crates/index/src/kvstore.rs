//! A log-structured merge (LSM) key-value store, the LevelDB substitute.
//!
//! Writes land in an in-memory write buffer (the *memtable*). A store built
//! on a [`StorageBackend`] ([`KvStore::create`] / [`KvStore::open`]) freezes
//! the buffer, when it exceeds its budget, into an immutable sorted *run*
//! fronted by a Bloom filter: a backend object in the CRC-framed block
//! format of the private `run` module, of which only the Bloom filter and
//! the fence pointers stay resident. Reads consult the memtable first and
//! then the runs from newest to oldest, skipping runs whose Bloom filter
//! rules the key out; block reads go through a byte-bounded LRU cache, so
//! the memory footprint is `memtable + blooms + fences + cache budget`
//! regardless of how many keys the store holds. A manifest object makes the
//! run set reloadable: [`KvStore::open`] resumes exactly the runs a previous
//! incarnation persisted.
//!
//! A store without a backend ([`KvStore::new`]) *is* its memtable: it never
//! freezes, has no runs, and [`KvStore::flush`] and [`KvStore::compact`] do
//! nothing — fast, volatile, fine for tests and deployments whose index fits
//! in RAM.
//!
//! A deletion is a tombstone while an older run may still hold the key (a
//! store with no run beneath the memtable simply removes it) and stays one
//! until compaction drops it. Instead of LevelDB's all-into-one merges,
//! compaction is *tiered*: when the run count exceeds `max_runs`, the
//! adjacent window of `compaction_fanin` runs with the fewest total bytes is
//! merged, so write amplification stays bounded as the index grows to 10⁸
//! fingerprints. Tombstones are only dropped when the merge window includes
//! the oldest run (otherwise an older value could resurface).
//!
//! This mirrors the structure CDStore relies on from LevelDB [26, 44]: fast
//! random inserts/updates/deletes and Bloom-filtered lookups.
//!
//! # Durability and errors
//!
//! Runs are appended with the same fsync discipline as the metadata journal
//! and published by an atomic manifest `put`, so a crash can orphan a
//! half-written run object (swept on open) but never corrupt the manifest.
//! The lookup API keeps its infallible `Option` signatures; a backend I/O
//! error or checksummed corruption on the read path is unrecoverable for
//! the in-process caller and panics with the failing object key. Fallible
//! variants ([`KvStore::try_flush`]) exist for the write paths servers
//! drive directly.

use std::collections::BTreeMap;
use std::iter::Peekable;
use std::sync::Arc;

use cdstore_storage::{LruCache, StorageBackend, StorageError};

use crate::bloom::BloomFilter;
use crate::run::{
    manifest_key, parse_run_key, run_key, run_key_prefix, BlockCache, Manifest, RunHandle, RunIter,
    RunWriter,
};

/// Tuning of a disk-backed store. A store without a backend has no runs and
/// nothing to tune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvStoreConfig {
    /// Number of entries the memtable may hold before being frozen.
    pub memtable_capacity: usize,
    /// Number of frozen runs that triggers a merge compaction.
    pub max_runs: usize,
    /// Bloom-filter bits per key for frozen runs.
    pub bloom_bits_per_key: usize,
    /// Target byte size of one data block in on-disk runs.
    pub block_bytes: usize,
    /// Byte budget of the block cache fronting on-disk runs.
    pub block_cache_bytes: usize,
    /// How many adjacent runs one tiered compaction merges.
    pub compaction_fanin: usize,
}

impl Default for KvStoreConfig {
    fn default() -> Self {
        KvStoreConfig {
            memtable_capacity: 64 * 1024,
            max_runs: 8,
            bloom_bits_per_key: 10,
            block_bytes: 4 * 1024,
            block_cache_bytes: 4 * 1024 * 1024,
            compaction_fanin: 4,
        }
    }
}

/// Operation counters, used to reason about index overhead in experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStoreStats {
    /// Number of `put` operations.
    pub puts: u64,
    /// Number of `get` operations.
    pub gets: u64,
    /// Number of `delete` operations.
    pub deletes: u64,
    /// Number of memtable flushes into runs.
    pub flushes: u64,
    /// Number of merge compactions.
    pub compactions: u64,
    /// Number of run probes skipped thanks to Bloom filters.
    pub bloom_skips: u64,
    /// Memtable flushes that failed at the backend and were deferred (the
    /// memtable is kept and the flush retried on the next trigger).
    pub flush_failures: u64,
}

/// Block-cache counters of a disk-backed store — the resident-memory story
/// of the disk index (`peak_bytes` never exceeds the configured budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block fetches served from the cache.
    pub hits: u64,
    /// Block fetches that had to touch the backend.
    pub misses: u64,
    /// Blocks evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently cached.
    pub current_bytes: usize,
    /// High-water mark of cached bytes.
    pub peak_bytes: usize,
    /// Configured byte budget.
    pub capacity_bytes: usize,
}

impl std::ops::AddAssign for BlockCacheStats {
    /// Field-wise sum: the counters of several caches read as one.
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.current_bytes += other.current_bytes;
        self.peak_bytes += other.peak_bytes;
        self.capacity_bytes += other.capacity_bytes;
    }
}

/// What [`KvStore::open`] found on the backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStoreOpenStats {
    /// Runs listed in the manifest and loaded intact.
    pub runs_loaded: usize,
    /// Manifest-listed runs dropped because their object was torn or
    /// corrupt (the manifest is rewritten without them).
    pub runs_dropped: usize,
    /// Run objects present on the backend but absent from the manifest
    /// (half-written leftovers of an interrupted flush), deleted on open.
    pub orphans_swept: usize,
}

/// One immutable sorted run: a backend object, of which only the fence
/// pointers (in the handle) and the Bloom filter are resident.
struct Run {
    handle: RunHandle,
    bloom: BloomFilter,
}

/// Streams a newest-wins merge of `runs` (oldest first) into `emit`: every
/// key once, in key order, with the value — or tombstone — of the newest run
/// that holds it.
fn merge_newest_wins(
    runs: &[Run],
    backend: &dyn StorageBackend,
    mut emit: impl FnMut(&[u8], Option<&[u8]>) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    let mut sources: Vec<Peekable<RunIter<'_>>> = runs
        .iter()
        .map(|run| run.handle.iter(backend).peekable())
        .collect();
    // K-way merge: smallest key wins; on ties the newest source (the highest
    // index) provides the value and every older source skips its
    // now-shadowed entry.
    loop {
        let mut min_key: Option<Vec<u8>> = None;
        for source in sources.iter_mut() {
            match source.peek() {
                Some(Ok((k, _)))
                    if min_key.as_deref().map(|m| k.as_slice() < m).unwrap_or(true) =>
                {
                    min_key = Some(k.clone());
                }
                Some(Ok(_)) => {}
                Some(Err(_)) => {
                    return Err(source.next().expect("peeked").expect_err("peeked error"));
                }
                None => {}
            }
        }
        let Some(key) = min_key else { return Ok(()) };
        let mut newest: Option<Option<Vec<u8>>> = None;
        for source in sources.iter_mut() {
            if matches!(source.peek(), Some(Ok((k, _))) if *k == key) {
                let (_, v) = source.next().expect("peeked").expect("peeked ok");
                newest = Some(v);
            }
        }
        let value = newest.expect("some source held the min key");
        emit(&key, value.as_deref())?;
    }
}

/// Everything a store has beyond its memtable once it is built on a backend:
/// the runs, where they live, and the cache in front of their blocks.
struct DiskEnv {
    config: KvStoreConfig,
    backend: Arc<dyn StorageBackend>,
    name: String,
    next_seq: u64,
    cache: BlockCache,
    /// Frozen runs, newest last.
    runs: Vec<Run>,
}

impl DiskEnv {
    fn new(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
        next_seq: u64,
        runs: Vec<Run>,
    ) -> Self {
        DiskEnv {
            config,
            backend,
            name: name.to_string(),
            next_seq,
            cache: LruCache::new(config.block_cache_bytes),
            runs,
        }
    }

    /// Starts the writer of the next run object, sized for `expected`
    /// entries.
    fn run_writer(&self, expected: usize) -> Result<RunWriter<'_>, StorageError> {
        RunWriter::new(
            &*self.backend,
            &self.name,
            self.next_seq,
            self.config.block_bytes,
            expected,
            self.config.bloom_bits_per_key,
        )
    }

    /// Rewrites the manifest from the current run set. Callers guarantee the
    /// runs alone carry every live key (the memtable is empty or was just
    /// frozen into the newest run), so persisting the store's `live` count as
    /// the runs-only count is exact.
    fn write_manifest(&self, live: usize) -> Result<(), StorageError> {
        let manifest = Manifest {
            next_seq: self.next_seq,
            live_keys: live as u64,
            run_seqs: self.runs.iter().map(|r| r.handle.seq()).collect(),
        };
        manifest.write(&*self.backend, &self.name)
    }

    /// Merges the adjacent window of `compaction_fanin` runs with the
    /// fewest total bytes (adjacency keeps the newest-wins order intact).
    fn compact_tier(&mut self, live: usize) -> Result<(), StorageError> {
        let fanin = self.config.compaction_fanin.clamp(2, self.runs.len());
        let window_bytes = |start: usize| -> u64 {
            self.runs[start..start + fanin]
                .iter()
                .map(|r| r.handle.total_bytes())
                .sum()
        };
        let start = (0..=self.runs.len() - fanin)
            .min_by_key(|&s| window_bytes(s))
            .expect("at least one window");
        self.merge_runs(start, start + fanin, live)
    }

    /// Merges runs `[start, end)` into one, newest-wins; tombstones are
    /// dropped iff the window includes the oldest run. Only mutates state
    /// after the merged run is durable. Manifests persist a runs-only live
    /// count, so the store's memtable must be empty (flush/compact enforce
    /// this ordering).
    fn merge_runs(&mut self, start: usize, end: usize, live: usize) -> Result<(), StorageError> {
        debug_assert!(start < end && end <= self.runs.len());
        let drop_tombstones = start == 0;
        let window = &self.runs[start..end];
        let expected: u64 = window.iter().map(|r| r.handle.entry_count()).sum();
        let mut writer = self.run_writer(expected as usize)?;
        merge_newest_wins(window, &*self.backend, |key, value| {
            if drop_tombstones && value.is_none() {
                return Ok(());
            }
            writer.push(key, value)
        })?;
        let merged = writer
            .finish()?
            .map(|(handle, bloom)| Run { handle, bloom });
        self.next_seq += 1;

        // Swap the window for the merged run, then publish and delete the
        // replaced objects. A crash between these steps leaves orphans the
        // next open sweeps. If the manifest write fails we are
        // mid-transition, but open() falls back to the old manifest and
        // sweeps the merged run as an orphan, so correctness holds.
        let replaced: Vec<Run> = self.runs.splice(start..end, merged).collect();
        self.write_manifest(live)?;
        let dead: Vec<u64> = replaced.iter().map(|r| r.handle.seq()).collect();
        self.cache.retain(|&(run_seq, _)| !dead.contains(&run_seq));
        for run in &replaced {
            self.backend.delete(run.handle.object_key())?;
        }
        Ok(())
    }

    /// Counts live keys by streaming a newest-wins merge over the runs
    /// (used when the persisted count is stale after dropping a torn run).
    fn count_live(&self) -> Result<usize, StorageError> {
        let mut live = 0usize;
        merge_newest_wins(&self.runs, &*self.backend, |_, value| {
            live += usize::from(value.is_some());
            Ok(())
        })?;
        Ok(live)
    }
}

/// The LSM key-value store.
#[derive(Default)]
pub struct KvStore {
    /// Active write buffer: key → value-or-tombstone.
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// The runs and their backend (`None` for a memory-resident store, whose
    /// memtable is all there is).
    disk: Option<DiskEnv>,
    /// Exact live (non-tombstoned) key count, maintained on every mutation.
    live: usize,
    stats: KvStoreStats,
    open_stats: KvStoreOpenStats,
}

impl KvStore {
    /// Creates a memory-resident store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a *fresh* disk-backed store named `name` on the backend,
    /// deleting any manifest and run objects a previous incarnation of the
    /// same name left behind. Use [`KvStore::open`] to resume them instead.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        backend.delete(&manifest_key(name))?;
        let prefix = run_key_prefix(name);
        for key in backend.list()? {
            if key.starts_with(&prefix) {
                backend.delete(&key)?;
            }
        }
        Ok(KvStore {
            disk: Some(DiskEnv::new(backend, name, config, 0, Vec::new())),
            ..Self::default()
        })
    }

    /// Opens the disk-backed store named `name`, reloading the run set its
    /// manifest describes. Runs whose objects are torn or corrupt are
    /// dropped (and the manifest rewritten without them); run objects not in
    /// the manifest — leftovers of an interrupted flush — are swept. An
    /// absent manifest yields an empty store.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        let manifest = Manifest::read(&*backend, name)?.unwrap_or_default();
        let mut open_stats = KvStoreOpenStats::default();

        // Sweep orphan run objects (present on the backend, absent from the
        // manifest) before anything else: their sequence numbers may be
        // reused by the next flush.
        let listed: std::collections::BTreeSet<u64> = manifest.run_seqs.iter().copied().collect();
        let prefix = run_key_prefix(name);
        for key in backend.list()? {
            if !key.starts_with(&prefix) {
                continue;
            }
            let orphan = parse_run_key(name, &key).map(|seq| !listed.contains(&seq));
            if orphan.unwrap_or(true) {
                backend.delete(&key)?;
                open_stats.orphans_swept += 1;
            }
        }

        let mut runs = Vec::with_capacity(manifest.run_seqs.len());
        for &seq in &manifest.run_seqs {
            match RunHandle::load(&*backend, name, seq) {
                Ok((handle, bloom)) => {
                    open_stats.runs_loaded += 1;
                    runs.push(Run { handle, bloom });
                }
                Err(_) => {
                    // Torn or corrupt: drop the run. The server-level WAL
                    // replay reconciles whatever state it carried.
                    open_stats.runs_dropped += 1;
                    backend.delete(&run_key(name, seq))?;
                }
            }
        }

        let env = DiskEnv::new(backend, name, config, manifest.next_seq, runs);
        let live = if open_stats.runs_dropped == 0 {
            manifest.live_keys as usize
        } else {
            // The persisted count covered runs we dropped: recount by
            // streaming merge and republish the surviving run set.
            let live = env.count_live()?;
            env.write_manifest(live)?;
            live
        };
        Ok(KvStore {
            disk: Some(env),
            live,
            open_stats,
            ..Self::default()
        })
    }

    /// Returns the operation counters.
    pub fn stats(&self) -> KvStoreStats {
        self.stats
    }

    /// What [`KvStore::open`] found (zeroes for stores not opened from
    /// disk).
    pub fn open_stats(&self) -> KvStoreOpenStats {
        self.open_stats
    }

    /// Whether runs spill to a storage backend.
    pub fn is_disk_backed(&self) -> bool {
        self.disk.is_some()
    }

    /// Block-cache counters (`None` for a memory-resident store).
    pub fn cache_stats(&self) -> Option<BlockCacheStats> {
        self.disk.as_ref().map(|env| BlockCacheStats {
            hits: env.cache.hits(),
            misses: env.cache.misses(),
            evictions: env.cache.evictions(),
            current_bytes: env.cache.current_bytes(),
            peak_bytes: env.cache.peak_bytes(),
            capacity_bytes: env.cache.capacity_bytes(),
        })
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.stats.puts += 1;
        if !self.probe_is_live(&key) {
            self.live += 1;
        }
        self.memtable.insert(key, Some(value));
        self.maybe_flush();
    }

    /// Deletes a key (no-op if absent).
    pub fn delete(&mut self, key: &[u8]) {
        self.stats.deletes += 1;
        if !self.probe_is_live(key) {
            // Not live anywhere: no tombstone needed (any existing tombstone
            // already shadows older runs).
            return;
        }
        self.live -= 1;
        if self.run_count() == 0 {
            // Nothing beneath the memtable to shadow. A memory-resident
            // store never compacts, so a tombstone here would never go.
            self.memtable.remove(key);
        } else {
            self.memtable.insert(key.to_vec(), None);
            self.maybe_flush();
        }
    }

    /// Looks up a key.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.stats.gets += 1;
        self.probe(key).flatten()
    }

    /// Returns whether the key is present (not deleted).
    pub fn contains(&mut self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Resolves a key across memtable and runs: `None` if unknown,
    /// `Some(None)` if tombstoned, `Some(Some(v))` if live. Panics on a
    /// backend read error (see the module docs on errors).
    fn probe(&mut self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        if let Some(value) = self.memtable.get(key) {
            return Some(value.clone());
        }
        let env = self.disk.as_mut()?;
        for run in env.runs.iter().rev() {
            if !run.bloom.may_contain(key) {
                self.stats.bloom_skips += 1;
                continue;
            }
            let found = run
                .handle
                .get(&*env.backend, &mut env.cache, key)
                .unwrap_or_else(|e| panic!("disk index read failed: {e}"));
            if found.is_some() {
                return found;
            }
        }
        None
    }

    fn probe_is_live(&mut self, key: &[u8]) -> bool {
        self.probe(key).map(|v| v.is_some()).unwrap_or(false)
    }

    /// Number of live keys. O(1): maintained across puts, deletes, flushes,
    /// and compactions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// All live key/value pairs in key order. Streams runs block by block
    /// (bypassing the cache); panics on a backend read error.
    pub fn snapshot(&self) -> BTreeMap<Vec<u8>, Vec<u8>> {
        self.scan_prefix(&[]).into_iter().collect()
    }

    /// Live keys with a given prefix, in key order. Range-bounded on every
    /// source: the memtable is entered by binary search, runs seek via their
    /// fence pointers — only blocks overlapping the prefix are read.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        // Oldest runs first, the memtable last, so newer entries overwrite.
        if let Some(env) = &self.disk {
            for run in &env.runs {
                for entry in run.handle.iter_from(&*env.backend, prefix) {
                    let (k, v) = entry.unwrap_or_else(|e| panic!("disk index scan failed: {e}"));
                    if k.as_slice() < prefix {
                        // Leading entries of the seeked block.
                        continue;
                    }
                    if !k.starts_with(prefix) {
                        break;
                    }
                    merged.insert(k, v);
                }
            }
        }
        for (k, v) in self.memtable.range(prefix.to_vec()..) {
            if !k.starts_with(prefix) {
                break;
            }
            merged.insert(k.clone(), v.clone());
        }
        merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|value| (k, value)))
            .collect()
    }

    /// Forces the memtable to be frozen into a run, panicking on a backend
    /// write error ([`KvStore::try_flush`] is the fallible variant).
    pub fn flush(&mut self) {
        self.try_flush()
            .unwrap_or_else(|e| panic!("index flush failed: {e}"));
    }

    /// Freezes the memtable into a durable run and runs any due tiered
    /// compactions. On error the memtable is left intact and the flush can
    /// simply be retried. A memory-resident store has nowhere to freeze to:
    /// its memtable is the store, and this does nothing.
    pub fn try_flush(&mut self) -> Result<(), StorageError> {
        let Some(env) = self.disk.as_mut() else {
            return Ok(());
        };
        if !self.memtable.is_empty() {
            let mut writer = env.run_writer(self.memtable.len())?;
            for (k, v) in &self.memtable {
                writer.push(k, v.as_deref())?;
            }
            let (handle, bloom) = writer
                .finish()?
                .expect("non-empty memtable produced an empty run");
            env.runs.push(Run { handle, bloom });
            env.next_seq += 1;
            // Publish the run atomically; on failure unwind so the
            // memtable stays authoritative and the retry rewrites the same
            // sequence number.
            if let Err(e) = env.write_manifest(self.live) {
                let run = env.runs.pop().expect("just pushed");
                env.next_seq -= 1;
                let _ = env.backend.delete(run.handle.object_key());
                return Err(e);
            }
            self.memtable.clear();
            self.stats.flushes += 1;
        }
        while env.runs.len() > env.config.max_runs {
            env.compact_tier(self.live)?;
            self.stats.compactions += 1;
        }
        Ok(())
    }

    /// Merge-compacts all runs into one, dropping tombstones, after
    /// flushing the memtable (the merged run plus manifest then fully
    /// describe the store). Panics on a backend error.
    pub fn compact(&mut self) {
        self.try_compact()
            .unwrap_or_else(|e| panic!("index compaction failed: {e}"));
    }

    /// Fallible variant of [`KvStore::compact`].
    pub fn try_compact(&mut self) -> Result<(), StorageError> {
        self.try_flush()?;
        if let Some(env) = self.disk.as_mut().filter(|env| env.runs.len() > 1) {
            env.merge_runs(0, env.runs.len(), self.live)?;
            self.stats.compactions += 1;
        }
        Ok(())
    }

    /// Number of frozen runs currently held (for tests and diagnostics).
    pub fn run_count(&self) -> usize {
        self.disk.as_ref().map_or(0, |env| env.runs.len())
    }

    /// Approximate *resident* memory footprint in bytes: memtable entries
    /// and, per run, the Bloom filter and fence pointers plus the block
    /// cache, rather than the spilled data itself.
    pub fn approximate_size(&self) -> usize {
        let memtable: usize = self
            .memtable
            .iter()
            .map(|(k, v)| k.len() + v.as_ref().map_or(0, |v| v.len()))
            .sum();
        let disk = self.disk.as_ref().map_or(0, |env| {
            let runs: usize = env
                .runs
                .iter()
                .map(|r| r.handle.meta_bytes() + r.bloom.num_bits() / 8)
                .sum();
            runs + env.cache.current_bytes()
        });
        memtable + disk
    }

    fn maybe_flush(&mut self) {
        let full = self
            .disk
            .as_ref()
            .is_some_and(|env| self.memtable.len() >= env.config.memtable_capacity);
        if full && self.try_flush().is_err() {
            // Keep the memtable (no data loss) and retry on the next
            // mutation; durability is provided by the server WAL above.
            self.stats.flush_failures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_storage::MemoryBackend;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn small_config() -> KvStoreConfig {
        KvStoreConfig {
            memtable_capacity: 16,
            max_runs: 3,
            ..KvStoreConfig::default()
        }
    }

    fn disk_store(config: KvStoreConfig) -> KvStore {
        KvStore::create(Arc::new(MemoryBackend::new()), "test", config).unwrap()
    }

    /// Runs the same scenario against a memory store and a fresh disk store.
    fn both_modes(test: impl Fn(KvStore)) {
        test(KvStore::new());
        test(disk_store(small_config()));
    }

    #[test]
    fn put_get_delete_round_trip() {
        both_modes(|mut store| {
            store.put(b"k1".to_vec(), b"v1".to_vec());
            store.put(b"k2".to_vec(), b"v2".to_vec());
            assert_eq!(store.get(b"k1"), Some(b"v1".to_vec()));
            assert_eq!(store.get(b"k2"), Some(b"v2".to_vec()));
            assert_eq!(store.get(b"k3"), None);
            store.delete(b"k1");
            assert_eq!(store.get(b"k1"), None);
            assert_eq!(store.len(), 1);
        });
    }

    #[test]
    fn overwrites_return_latest_value() {
        both_modes(|mut store| {
            for round in 0..5u8 {
                for i in 0..50u8 {
                    store.put(vec![i], vec![round, i]);
                }
            }
            for i in 0..50u8 {
                assert_eq!(store.get(&[i]), Some(vec![4, i]));
            }
            assert_eq!(store.len(), 50);
        });
    }

    #[test]
    fn values_survive_flush_and_compaction() {
        let mut store = disk_store(small_config());
        for i in 0..200u32 {
            store.put(i.to_be_bytes().to_vec(), (i * 3).to_be_bytes().to_vec());
        }
        assert!(store.stats().flushes > 0);
        assert!(store.stats().compactions > 0);
        for i in 0..200u32 {
            assert_eq!(
                store.get(&i.to_be_bytes()),
                Some((i * 3).to_be_bytes().to_vec())
            );
        }
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn deletes_survive_flush_and_compaction() {
        both_modes(|mut store| {
            for i in 0..100u32 {
                store.put(i.to_be_bytes().to_vec(), b"x".to_vec());
            }
            for i in (0..100u32).step_by(2) {
                store.delete(&i.to_be_bytes());
            }
            store.flush();
            store.compact();
            for i in 0..100u32 {
                let expected = i % 2 == 1;
                assert_eq!(store.contains(&i.to_be_bytes()), expected, "key {i}");
            }
            assert_eq!(store.len(), 50);
        });
    }

    #[test]
    fn compaction_reclaims_tombstones_and_merges_runs() {
        both_modes(|mut store| {
            for i in 0..64u32 {
                store.put(i.to_be_bytes().to_vec(), b"payload".to_vec());
            }
            store.flush();
            let runs_before = store.run_count();
            store.compact();
            assert!(store.run_count() <= runs_before);
            assert!(store.run_count() <= 1);
        });
    }

    #[test]
    fn tiered_compaction_bounds_run_count_without_full_merges() {
        let mut store = disk_store(KvStoreConfig {
            memtable_capacity: 8,
            max_runs: 4,
            compaction_fanin: 2,
            ..KvStoreConfig::default()
        });
        for i in 0..400u32 {
            store.put(i.to_be_bytes().to_vec(), vec![0u8; 16]);
        }
        // Auto-compaction keeps the run count bounded...
        assert!(store.run_count() <= 4);
        // ...without collapsing everything into one run every time.
        assert!(store.run_count() > 1);
        assert!(store.stats().compactions > 0);
        for i in 0..400u32 {
            assert!(store.contains(&i.to_be_bytes()), "key {i}");
        }
    }

    #[test]
    fn snapshot_and_prefix_scan() {
        both_modes(|mut store| {
            store.put(b"user1/file-a".to_vec(), b"1".to_vec());
            store.put(b"user1/file-b".to_vec(), b"2".to_vec());
            store.put(b"user2/file-a".to_vec(), b"3".to_vec());
            store.flush();
            store.put(b"user1/file-c".to_vec(), b"4".to_vec());
            let user1 = store.scan_prefix(b"user1/");
            assert_eq!(user1.len(), 3);
            assert_eq!(store.snapshot().len(), 4);
            // Deleted keys drop out of scans.
            store.delete(b"user1/file-b");
            assert_eq!(store.scan_prefix(b"user1/").len(), 2);
            assert_eq!(store.scan_prefix(b"user3/"), vec![]);
        });
    }

    #[test]
    fn bloom_filters_skip_runs_for_absent_keys() {
        let mut store = disk_store(small_config());
        for i in 0..64u32 {
            store.put(i.to_be_bytes().to_vec(), b"v".to_vec());
        }
        store.flush();
        for i in 1000..1200u32 {
            let _ = store.get(&i.to_be_bytes());
        }
        assert!(
            store.stats().bloom_skips > 100,
            "bloom skips: {}",
            store.stats().bloom_skips
        );
    }

    #[test]
    fn approximate_size_grows_with_data() {
        let mut store = KvStore::new();
        let empty = store.approximate_size();
        for i in 0..100u32 {
            store.put(i.to_be_bytes().to_vec(), vec![0u8; 100]);
        }
        assert!(store.approximate_size() > empty + 100 * 100);
    }

    #[test]
    fn a_memory_store_is_its_memtable() {
        let mut store = KvStore::new();
        for i in 0..100_000u32 {
            store.put(i.to_be_bytes().to_vec(), vec![0u8; 16]);
            store.flush();
            store.delete(&i.to_be_bytes());
        }
        store.compact();
        // Nothing froze, and no delete left a tombstone behind.
        assert_eq!(store.len(), 0);
        assert_eq!(store.approximate_size(), 0);
        assert_eq!(store.run_count(), 0);
        assert_eq!(store.stats().flushes + store.stats().compactions, 0);
    }

    #[test]
    fn deletes_over_a_run_stay_tombstones_until_compaction_reaches_them() {
        let mut store = disk_store(KvStoreConfig {
            memtable_capacity: 1024,
            ..KvStoreConfig::default()
        });
        // Before the first flush there is no run to shadow: the key just goes.
        store.put(b"early".to_vec(), b"v".to_vec());
        store.delete(b"early");
        assert_eq!(store.approximate_size(), 0);

        for i in 0..1000u32 {
            store.put(i.to_be_bytes().to_vec(), b"old".to_vec());
        }
        store.flush();
        assert_eq!(store.run_count(), 1);
        for i in 0..1000u32 {
            store.put(i.to_be_bytes().to_vec(), b"new".to_vec());
            store.delete(&i.to_be_bytes());
        }
        // The oldest run still holds every "old" value; only the tombstones
        // above it keep them from resurfacing, in the memtable and once
        // frozen into a newer run.
        assert_eq!(store.len(), 0);
        assert_eq!(store.get(&7u32.to_be_bytes()), None);
        store.flush();
        assert_eq!(store.run_count(), 2);
        assert_eq!(store.get(&7u32.to_be_bytes()), None);
        assert!(store.snapshot().is_empty());
        // A merge that reaches the oldest run drops values and tombstones.
        store.compact();
        assert_eq!(store.run_count(), 0);
        assert_eq!(store.get(&7u32.to_be_bytes()), None);
    }

    #[test]
    fn disk_store_reopens_with_its_data() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let mut store = KvStore::create(backend.clone(), "idx", small_config()).unwrap();
        for i in 0..300u32 {
            store.put(i.to_be_bytes().to_vec(), (i * 7).to_be_bytes().to_vec());
        }
        for i in (0..300u32).step_by(3) {
            store.delete(&i.to_be_bytes());
        }
        store.flush();
        let expected = store.snapshot();
        let live = store.len();
        drop(store);

        let mut reopened = KvStore::open(backend, "idx", small_config()).unwrap();
        assert!(reopened.is_disk_backed());
        assert_eq!(reopened.open_stats().runs_dropped, 0);
        assert_eq!(reopened.len(), live);
        assert_eq!(reopened.snapshot(), expected);
        for i in 0..300u32 {
            let want = if i % 3 == 0 {
                None
            } else {
                Some((i * 7).to_be_bytes().to_vec())
            };
            assert_eq!(reopened.get(&i.to_be_bytes()), want);
        }
    }

    #[test]
    fn unflushed_memtable_is_lost_on_reopen_but_state_is_consistent() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let mut store = KvStore::create(backend.clone(), "idx", small_config()).unwrap();
        for i in 0..40u32 {
            store.put(i.to_be_bytes().to_vec(), b"flushed".to_vec());
        }
        store.flush();
        // These stay in the memtable (capacity 16 not reached after flush).
        for i in 100..105u32 {
            store.put(i.to_be_bytes().to_vec(), b"volatile".to_vec());
        }
        drop(store);
        let mut reopened = KvStore::open(backend, "idx", small_config()).unwrap();
        assert_eq!(reopened.len(), 40);
        assert_eq!(reopened.get(&100u32.to_be_bytes()), None);
        assert_eq!(reopened.get(&5u32.to_be_bytes()), Some(b"flushed".to_vec()));
        assert_eq!(reopened.len(), reopened.snapshot().len());
    }

    #[test]
    fn create_discards_previous_incarnation() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let mut store = KvStore::create(backend.clone(), "idx", small_config()).unwrap();
        store.put(b"old".to_vec(), b"state".to_vec());
        store.flush();
        drop(store);
        let mut fresh = KvStore::create(backend.clone(), "idx", small_config()).unwrap();
        assert_eq!(fresh.get(b"old"), None);
        assert_eq!(fresh.len(), 0);
        // The old objects are gone from the backend too.
        assert!(backend.list().unwrap().is_empty());
    }

    #[test]
    fn orphan_runs_are_swept_on_open() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let mut store = KvStore::create(backend.clone(), "idx", small_config()).unwrap();
        store.put(b"a".to_vec(), b"1".to_vec());
        store.flush();
        drop(store);
        // A half-written run object from an interrupted flush.
        backend
            .put("idx-idx-r-00000000000000ff", b"torn garbage")
            .unwrap();
        let reopened = KvStore::open(backend.clone(), "idx", small_config()).unwrap();
        assert_eq!(reopened.open_stats().orphans_swept, 1);
        assert!(!backend.exists("idx-idx-r-00000000000000ff").unwrap());
        assert_eq!(reopened.len(), 1);
    }

    #[test]
    fn torn_manifest_listed_run_is_dropped_consistently() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let config = KvStoreConfig {
            memtable_capacity: 100,
            ..KvStoreConfig::default()
        };
        let mut store = KvStore::create(backend.clone(), "idx", config).unwrap();
        for i in 0..20u32 {
            store.put(i.to_be_bytes().to_vec(), b"first".to_vec());
        }
        store.flush();
        for i in 20..40u32 {
            store.put(i.to_be_bytes().to_vec(), b"second".to_vec());
        }
        store.flush();
        assert_eq!(store.run_count(), 2);
        drop(store);
        // Truncate the second run's object to a prefix.
        let keys: Vec<String> = backend
            .list()
            .unwrap()
            .into_iter()
            .filter(|k| k.starts_with("idx-idx-r-"))
            .collect();
        assert_eq!(keys.len(), 2);
        let victim = keys.last().unwrap();
        let data = backend.get(victim).unwrap();
        backend.put(victim, &data[..data.len() / 2]).unwrap();

        let mut reopened = KvStore::open(backend, "idx", small_config()).unwrap();
        assert_eq!(reopened.open_stats().runs_dropped, 1);
        assert_eq!(reopened.open_stats().runs_loaded, 1);
        // The surviving run's keys read back; the dropped run's are gone;
        // the live count was recounted to match.
        assert_eq!(reopened.len(), 20);
        assert_eq!(reopened.len(), reopened.snapshot().len());
        assert_eq!(reopened.get(&5u32.to_be_bytes()), Some(b"first".to_vec()));
        assert_eq!(reopened.get(&25u32.to_be_bytes()), None);
    }

    #[test]
    fn block_cache_serves_hot_reads_within_budget() {
        let config = KvStoreConfig {
            memtable_capacity: 64,
            block_cache_bytes: 16 * 1024,
            ..KvStoreConfig::default()
        };
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let mut store = KvStore::create(backend, "idx", config).unwrap();
        for i in 0..2000u32 {
            store.put(i.to_be_bytes().to_vec(), vec![0xabu8; 64]);
        }
        store.flush();
        // Cold pass misses, hot pass hits.
        for i in 0..50u32 {
            assert!(store.contains(&i.to_be_bytes()));
        }
        let cold = store.cache_stats().unwrap();
        for i in 0..50u32 {
            assert!(store.contains(&i.to_be_bytes()));
        }
        let hot = store.cache_stats().unwrap();
        assert!(hot.hits > cold.hits);
        assert_eq!(hot.misses, cold.misses);
        assert!(hot.peak_bytes <= hot.capacity_bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn behaves_like_a_btreemap(ops in proptest::collection::vec(
            (any::<u8>(), proptest::option::of(any::<u8>())), 0..400)) {
            // Model-based test: the store must agree with a reference map
            // under an arbitrary interleaving of puts and deletes.
            let mut store = disk_store(KvStoreConfig {
                memtable_capacity: 7,
                max_runs: 2,
                bloom_bits_per_key: 8,
                ..KvStoreConfig::default()
            });
            let mut model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
            for (key_byte, maybe_value) in ops {
                let key = vec![key_byte % 32];
                match maybe_value {
                    Some(v) => {
                        store.put(key.clone(), vec![v]);
                        model.insert(key, vec![v]);
                    }
                    None => {
                        store.delete(&key);
                        model.remove(&key);
                    }
                }
            }
            prop_assert_eq!(store.len(), model.len());
            for k in 0..32u8 {
                prop_assert_eq!(store.get(&[k]), model.get(&vec![k]).cloned());
            }
            let snapshot = store.snapshot();
            prop_assert_eq!(snapshot, model);
        }

        #[test]
        fn random_workload_preserves_all_live_keys(seed: u64) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut store = disk_store(small_config());
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..500 {
                let key: Vec<u8> = (0..rng.gen_range(1..8)).map(|_| rng.gen_range(b'a'..=b'f')).collect();
                if rng.gen_bool(0.8) {
                    let value = vec![rng.gen::<u8>(); rng.gen_range(1..16)];
                    store.put(key.clone(), value.clone());
                    model.insert(key, value);
                } else {
                    store.delete(&key);
                    model.remove(&key);
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.snapshot(), model);
        }
    }
}
