//! A log-structured merge (LSM) key-value store, the LevelDB substitute.
//!
//! Writes land in an in-memory write buffer (the *memtable*): a
//! `std::collections::HashMap` under the default keyed hasher, since the
//! ownership-map keys embed client-chosen fingerprints. Keys of up to 40
//! bytes (every key the server writes is a 32-byte fingerprint or a 40-byte
//! ownership key) are held inline; longer ones are boxed. A lookup or an
//! overwrite is one probe. Key order is paid for only where it is needed,
//! by one sort of the memtable's entries: freezing it into a run, dumping
//! it for a checkpoint ([`KvStore::memtable`]) and a prefix scan. At
//! `memtable_capacity` entries the store freezes it into an immutable
//! sorted *run* fronted by a Bloom filter: an object on the store's
//! [`StorageBackend`] in the CRC-framed block format of the private `run`
//! module, of which only the Bloom filter and the fence pointers stay
//! resident. Reads consult the memtable first and then the runs from newest
//! to oldest, skipping runs whose Bloom filter rules the key out; block
//! reads go through a byte-bounded LRU cache, so the memory footprint is
//! `memtable + blooms + fences + cache budget` regardless of how many keys
//! the store holds. A manifest object makes the run set reloadable:
//! [`KvStore::open`] resumes exactly the runs a previous incarnation
//! persisted. A store whose memtable never fills never touches its backend.
//! A checkpoint keeps a store's [`KvStore::memtable`] and
//! [`KvStore::runs_written`]; recovery reopens the runs and
//! [`KvStore::install`]s that memtable over them.
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
//! the in-process caller and panics with the failing object key. The write
//! paths ([`KvStore::try_flush`], [`KvStore::try_compact`]) return their
//! errors.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::iter::Peekable;
use std::sync::Arc;

use cdstore_storage::{LruCache, StorageBackend, StorageError};

use crate::bloom::BloomFilter;
use crate::run::{
    manifest_key, parse_run_key, run_key, run_key_prefix, BlockCache, Manifest, RunHandle, RunIter,
    RunWriter,
};

/// Tuning of a store.
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

/// Block-cache counters of a store — the resident-memory story of a
/// spilled index (`peak_bytes` never exceeds the configured budget).
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

/// Resolves a key in `runs`, newest first: `None` if unknown there,
/// `Some(None)` if tombstoned, `Some(Some(v))` if live. Counts each run a
/// Bloom filter rules out in `bloom_skips`. Panics on a backend read error
/// (see the module docs on errors).
fn probe_runs(
    runs: &[Run],
    backend: &dyn StorageBackend,
    cache: &mut BlockCache,
    bloom_skips: &mut u64,
    key: &[u8],
) -> Option<Option<Vec<u8>>> {
    for run in runs.iter().rev() {
        if !run.bloom.may_contain(key) {
            *bloom_skips += 1;
            continue;
        }
        let found = run
            .handle
            .get(backend, cache, key)
            .unwrap_or_else(|e| panic!("disk index read failed: {e}"));
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Longest key the memtable holds inline.
const INLINE_KEY: usize = 40;

/// A memtable key: inline up to [`INLINE_KEY`] bytes, boxed beyond. It
/// hashes and compares as the bytes it holds, so the memtable is probed
/// with a plain `&[u8]`.
enum MemKey {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Boxed(Box<[u8]>),
}

impl MemKey {
    fn new(key: &[u8]) -> Self {
        if key.len() > INLINE_KEY {
            return MemKey::Boxed(key.into());
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..key.len()].copy_from_slice(key);
        MemKey::Inline {
            len: key.len() as u8,
            bytes,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            MemKey::Inline { len, bytes } => &bytes[..*len as usize],
            MemKey::Boxed(key) => key,
        }
    }
}

impl Borrow<[u8]> for MemKey {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for MemKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // As `[u8]` hashes: `Borrow` requires the two to agree.
        self.as_slice().hash(state)
    }
}

impl PartialEq for MemKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MemKey {}

/// The LSM key-value store.
pub struct KvStore {
    /// Active write buffer: key → value-or-tombstone, in no order.
    memtable: HashMap<MemKey, Option<Vec<u8>>>,
    config: KvStoreConfig,
    backend: Arc<dyn StorageBackend>,
    name: String,
    /// Sequence number of the next run object this store writes.
    next_seq: u64,
    cache: BlockCache,
    /// Frozen runs, newest last.
    runs: Vec<Run>,
    /// Exact live (non-tombstoned) key count, maintained on every mutation.
    live: usize,
    /// Run probes skipped because a Bloom filter ruled the key out.
    bloom_skips: u64,
}

impl KvStore {
    /// Creates a *fresh* store named `name` on the backend, deleting any
    /// manifest and run objects a previous incarnation of the same name left
    /// behind. Use [`KvStore::open`] to resume them instead.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        let (manifest, prefix) = (manifest_key(name), run_key_prefix(name));
        for key in backend.list()? {
            if key == manifest || key.starts_with(&prefix) {
                backend.delete(&key)?;
            }
        }
        Self::open_listed(backend, name, config, &[])
    }

    /// Opens the store named `name`, reloading the run set its manifest
    /// describes. Runs whose objects are torn or corrupt are dropped (and
    /// the manifest rewritten without them); run objects not in the
    /// manifest — leftovers of an interrupted flush — are swept. An absent
    /// manifest yields an empty store.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        let listing = backend.list()?;
        Self::open_listed(backend, name, config, &listing)
    }

    /// [`KvStore::open`] given the backend's key listing, touching only the
    /// objects it names: an empty listing opens an empty store without a
    /// backend call, whatever is stored under `name` (its first flush
    /// replaces the manifest, and the next open sweeps the older runs).
    pub(crate) fn open_listed(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
        listing: &[String],
    ) -> Result<Self, StorageError> {
        let mut store = KvStore {
            memtable: HashMap::new(),
            config,
            backend,
            name: name.to_string(),
            next_seq: 0,
            cache: LruCache::new(config.block_cache_bytes),
            runs: Vec::new(),
            live: 0,
            bloom_skips: 0,
        };
        if listing.is_empty() {
            return Ok(store);
        }
        let manifest = if listing.contains(&manifest_key(name)) {
            Manifest::read(&*store.backend, name)?.unwrap_or_default()
        } else {
            Manifest::default()
        };
        (store.next_seq, store.live) = (manifest.next_seq, manifest.live_keys as usize);

        // Sweep orphan run objects (present on the backend, absent from the
        // manifest) before anything else: their sequence numbers may be
        // reused by the next flush.
        let listed: std::collections::BTreeSet<u64> = manifest.run_seqs.iter().copied().collect();
        let prefix = run_key_prefix(name);
        for key in listing.iter().filter(|key| key.starts_with(&prefix)) {
            let orphan = parse_run_key(name, key).map(|seq| !listed.contains(&seq));
            if orphan.unwrap_or(true) {
                store.backend.delete(key)?;
            }
        }

        for &seq in &manifest.run_seqs {
            match RunHandle::load(&*store.backend, name, seq) {
                Ok((handle, bloom)) => store.runs.push(Run { handle, bloom }),
                Err(_) => {
                    // Torn or corrupt: drop the run. The server-level WAL
                    // replay reconciles whatever state it carried.
                    store.backend.delete(&run_key(name, seq))?;
                }
            }
        }

        if store.runs.len() < manifest.run_seqs.len() {
            // The persisted count covered runs we dropped: recount by
            // streaming merge and republish the surviving run set.
            store.live = store.count_live()?;
            store.write_manifest()?;
        }
        Ok(store)
    }

    /// Run probes skipped so far because a run's Bloom filter ruled the
    /// key out.
    pub fn bloom_skips(&self) -> u64 {
        self.bloom_skips
    }

    /// Block-cache counters.
    pub fn cache_stats(&self) -> BlockCacheStats {
        BlockCacheStats {
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            evictions: self.cache.evictions(),
            current_bytes: self.cache.current_bytes(),
            peak_bytes: self.cache.peak_bytes(),
            capacity_bytes: self.cache.capacity_bytes(),
        }
    }

    /// Inserts or overwrites a key. Overwriting a key the memtable holds is
    /// one probe; a new key is also looked up in the runs, to keep the live
    /// count exact.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        match self.memtable.entry(MemKey::new(&key)) {
            Entry::Occupied(mut slot) => {
                if slot.insert(Some(value)).is_none() {
                    // Over a tombstone.
                    self.live += 1;
                }
            }
            Entry::Vacant(slot) => {
                let (runs, cache) = (&self.runs, &mut self.cache);
                let skips = &mut self.bloom_skips;
                let key = slot.key().as_slice();
                if !matches!(
                    probe_runs(runs, &*self.backend, cache, skips, key),
                    Some(Some(_))
                ) {
                    self.live += 1;
                }
                slot.insert(Some(value));
            }
        }
        self.maybe_flush();
    }

    /// Deletes a key (no-op if absent).
    pub fn delete(&mut self, key: &[u8]) {
        if let Some(slot) = self.memtable.get_mut(key) {
            if slot.take().is_none() {
                // Already a tombstone, which shadows the older runs.
                return;
            }
            self.live -= 1;
            if self.runs.is_empty() {
                // Nothing beneath the memtable to shadow: a store that never
                // spills keeps no tombstones.
                self.memtable.remove(key);
            } else {
                self.maybe_flush();
            }
            return;
        }
        if self.runs.is_empty() || !matches!(self.probe_runs(key), Some(Some(_))) {
            // Not live anywhere: no tombstone needed.
            return;
        }
        self.live -= 1;
        self.memtable.insert(MemKey::new(key), None);
        self.maybe_flush();
    }

    /// Looks up a key.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.peek(key, <[u8]>::to_vec)
    }

    /// Looks up a key and returns what `read` makes of its live value. A
    /// memtable hit is read in place, allocating nothing; a run hit reads
    /// the value's block as [`KvStore::get`] does.
    pub fn peek<R>(&mut self, key: &[u8], read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        if let Some(value) = self.memtable.get(key) {
            return value.as_deref().map(read);
        }
        self.probe_runs(key).flatten().as_deref().map(read)
    }

    /// Returns whether the key is present (not deleted).
    pub fn contains(&mut self, key: &[u8]) -> bool {
        self.peek(key, |_| ()).is_some()
    }

    /// [`probe_runs`] over this store's runs.
    fn probe_runs(&mut self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        let skips = &mut self.bloom_skips;
        probe_runs(&self.runs, &*self.backend, &mut self.cache, skips, key)
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

    /// The memtable in key order: each key with its value, or `None` for a
    /// tombstone. Sorts the memtable once per call (keys are unique, so an
    /// unstable sort is deterministic).
    pub fn memtable(&self) -> impl ExactSizeIterator<Item = (&[u8], Option<&[u8]>)> {
        let mut entries: Vec<_> = (self.memtable.iter())
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }

    /// How many runs the store has written, flushed or merged (the next
    /// run's sequence number). Zero means its memtable holds every entry.
    pub fn runs_written(&self) -> u64 {
        self.next_seq
    }

    /// Applies a memtable dump ([`KvStore::memtable`]) over the store's
    /// runs: a value is put, a tombstone deletes the key.
    pub fn install(&mut self, entries: impl IntoIterator<Item = (Vec<u8>, Option<Vec<u8>>)>) {
        for (key, value) in entries {
            match value {
                Some(value) => self.put(key, value),
                None => self.delete(&key),
            }
        }
    }

    /// All live key/value pairs in key order. Streams runs block by block
    /// (bypassing the cache); panics on a backend read error.
    pub fn snapshot(&self) -> BTreeMap<Vec<u8>, Vec<u8>> {
        self.scan_prefix(&[]).into_iter().collect()
    }

    /// Live keys with a given prefix, in key order. Runs seek via their
    /// fence pointers — only blocks overlapping the prefix are read; the
    /// memtable's entries are filtered by the prefix and sorted in the
    /// merge.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        // Oldest runs first, the memtable last, so newer entries overwrite.
        for run in &self.runs {
            for entry in run.handle.iter_from(&*self.backend, prefix) {
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
        for (k, v) in &self.memtable {
            if k.as_slice().starts_with(prefix) {
                merged.insert(k.as_slice().to_vec(), v.clone());
            }
        }
        merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|value| (k, value)))
            .collect()
    }

    /// Freezes the memtable into a durable run and runs any due tiered
    /// compactions. On error the memtable is left intact and the flush can
    /// simply be retried.
    pub fn try_flush(&mut self) -> Result<(), StorageError> {
        if !self.memtable.is_empty() {
            let mut writer = self.run_writer(self.memtable.len())?;
            for (k, v) in self.memtable() {
                writer.push(k, v)?;
            }
            let (handle, bloom) = writer
                .finish()?
                .expect("non-empty memtable produced an empty run");
            self.runs.push(Run { handle, bloom });
            self.next_seq += 1;
            // Publish the run atomically; on failure unwind so the
            // memtable stays authoritative and the retry rewrites the same
            // sequence number.
            if let Err(e) = self.write_manifest() {
                let run = self.runs.pop().expect("just pushed");
                self.next_seq -= 1;
                let _ = self.backend.delete(run.handle.object_key());
                return Err(e);
            }
            self.memtable.clear();
        }
        while self.runs.len() > self.config.max_runs {
            self.compact_tier()?;
        }
        Ok(())
    }

    /// Merge-compacts all runs into one, dropping tombstones, after
    /// flushing the memtable (the merged run plus manifest then fully
    /// describe the store).
    pub fn try_compact(&mut self) -> Result<(), StorageError> {
        self.try_flush()?;
        if self.runs.len() > 1 {
            self.merge_runs(0, self.runs.len())?;
        }
        Ok(())
    }

    /// Number of frozen runs currently held (for tests and diagnostics).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Approximate *resident* memory footprint in bytes: memtable entries
    /// and, per run, the Bloom filter and fence pointers plus the block
    /// cache, rather than the spilled data itself.
    pub fn approximate_size(&self) -> usize {
        let memtable: usize = self
            .memtable
            .iter()
            .map(|(k, v)| k.as_slice().len() + v.as_ref().map_or(0, |v| v.len()))
            .sum();
        let runs: usize = self
            .runs
            .iter()
            .map(|r| r.handle.meta_bytes() + r.bloom.num_bits() / 8)
            .sum();
        memtable + runs + self.cache.current_bytes()
    }

    fn maybe_flush(&mut self) {
        if self.memtable.len() >= self.config.memtable_capacity {
            // On failure keep the memtable (no data loss) and retry on the
            // next mutation; durability is provided by the server WAL above.
            let _ = self.try_flush();
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
    /// frozen into the newest run), so persisting `live` as the runs-only
    /// count is exact.
    fn write_manifest(&self) -> Result<(), StorageError> {
        let manifest = Manifest {
            next_seq: self.next_seq,
            live_keys: self.live as u64,
            run_seqs: self.runs.iter().map(|r| r.handle.seq()).collect(),
        };
        manifest.write(&*self.backend, &self.name)
    }

    /// Merges the adjacent window of `compaction_fanin` runs with the
    /// fewest total bytes (adjacency keeps the newest-wins order intact).
    fn compact_tier(&mut self) -> Result<(), StorageError> {
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
        self.merge_runs(start, start + fanin)
    }

    /// Merges runs `[start, end)` into one, newest-wins; tombstones are
    /// dropped iff the window includes the oldest run. Only mutates state
    /// after the merged run is durable. Manifests persist a runs-only live
    /// count, so the memtable must be empty (flush/compact enforce this
    /// ordering).
    fn merge_runs(&mut self, start: usize, end: usize) -> Result<(), StorageError> {
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
        self.write_manifest()?;
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

    /// Runs the same scenario against a store too small to spill and one
    /// that spills every few writes.
    fn both_sizes(test: impl Fn(KvStore)) {
        test(disk_store(KvStoreConfig::default()));
        test(disk_store(small_config()));
    }

    #[test]
    fn put_get_delete_round_trip() {
        both_sizes(|mut store| {
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
        both_sizes(|mut store| {
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
        // Twelve frozen memtables, at most `max_runs` runs left: both flushes
        // and compactions ran.
        assert!(store.runs_written() >= 12);
        assert!(store.run_count() <= 3);
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
        both_sizes(|mut store| {
            for i in 0..100u32 {
                store.put(i.to_be_bytes().to_vec(), b"x".to_vec());
            }
            for i in (0..100u32).step_by(2) {
                store.delete(&i.to_be_bytes());
            }
            store.try_flush().unwrap();
            store.try_compact().unwrap();
            for i in 0..100u32 {
                let expected = i % 2 == 1;
                assert_eq!(store.contains(&i.to_be_bytes()), expected, "key {i}");
            }
            assert_eq!(store.len(), 50);
        });
    }

    #[test]
    fn compaction_reclaims_tombstones_and_merges_runs() {
        both_sizes(|mut store| {
            for i in 0..64u32 {
                store.put(i.to_be_bytes().to_vec(), b"payload".to_vec());
            }
            store.try_flush().unwrap();
            let runs_before = store.run_count();
            store.try_compact().unwrap();
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
        // Fifty memtables were frozen, so compactions merged them.
        assert!(store.runs_written() >= 50);
        for i in 0..400u32 {
            assert!(store.contains(&i.to_be_bytes()), "key {i}");
        }
    }

    #[test]
    fn snapshot_and_prefix_scan() {
        both_sizes(|mut store| {
            store.put(b"user1/file-a".to_vec(), b"1".to_vec());
            store.put(b"user1/file-b".to_vec(), b"2".to_vec());
            store.put(b"user2/file-a".to_vec(), b"3".to_vec());
            store.try_flush().unwrap();
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
        store.try_flush().unwrap();
        for i in 1000..1200u32 {
            let _ = store.get(&i.to_be_bytes());
        }
        assert!(
            store.bloom_skips() > 100,
            "bloom skips: {}",
            store.bloom_skips()
        );
    }

    #[test]
    fn approximate_size_grows_with_data() {
        let mut store = disk_store(KvStoreConfig::default());
        let empty = store.approximate_size();
        for i in 0..100u32 {
            store.put(i.to_be_bytes().to_vec(), vec![0u8; 100]);
        }
        assert!(store.approximate_size() > empty + 100 * 100);
    }

    /// A store whose memtable never fills is its memtable: it never writes
    /// to its backend, and no delete leaves a tombstone behind.
    #[test]
    fn a_memory_store_is_its_memtable() {
        let backend = Arc::new(MemoryBackend::new());
        let mut store = KvStore::create(backend.clone(), "test", KvStoreConfig::default()).unwrap();
        for i in 0..100_000u32 {
            store.put(i.to_be_bytes().to_vec(), vec![0u8; 16]);
            store.delete(&i.to_be_bytes());
        }
        store.try_compact().unwrap();
        assert_eq!(store.len(), 0);
        assert_eq!(store.approximate_size(), 0);
        assert_eq!(store.run_count(), 0);
        assert_eq!(store.runs_written(), 0);
        assert_eq!(backend.object_count(), 0);
    }

    #[test]
    fn a_memtable_dump_installed_over_the_reopened_runs_restores_the_store() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let mut store = KvStore::create(backend.clone(), "idx", small_config()).unwrap();
        for i in 0..100u32 {
            store.put(i.to_be_bytes().to_vec(), b"old".to_vec());
        }
        // Overwrites and tombstones over the runs, some still unfrozen.
        for i in (0..100u32).step_by(7) {
            store.put(i.to_be_bytes().to_vec(), b"new".to_vec());
            store.delete(&(i + 1).to_be_bytes());
        }
        assert!(
            store.memtable().any(|(_, v)| v.is_none()),
            "a tombstone is buffered"
        );
        let expected = store.snapshot();
        let dump: Vec<_> = store
            .memtable()
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect();
        assert!(store.runs_written() > 0);
        drop(store);

        let mut reopened = KvStore::open(backend, "idx", small_config()).unwrap();
        reopened.install(dump);
        assert_eq!(reopened.snapshot(), expected);
        assert_eq!(reopened.len(), expected.len());
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
        store.try_flush().unwrap();
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
        store.try_flush().unwrap();
        assert_eq!(store.run_count(), 2);
        assert_eq!(store.get(&7u32.to_be_bytes()), None);
        assert!(store.snapshot().is_empty());
        // A merge that reaches the oldest run drops values and tombstones.
        store.try_compact().unwrap();
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
        store.try_flush().unwrap();
        let expected = store.snapshot();
        let live = store.len();
        let runs = store.run_count();
        drop(store);

        let mut reopened = KvStore::open(backend, "idx", small_config()).unwrap();
        assert_eq!(reopened.run_count(), runs, "no run dropped");
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
        store.try_flush().unwrap();
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
        store.try_flush().unwrap();
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
        store.try_flush().unwrap();
        drop(store);
        // A half-written run object from an interrupted flush.
        backend
            .put("idx-idx-r-00000000000000ff", b"torn garbage")
            .unwrap();
        let reopened = KvStore::open(backend.clone(), "idx", small_config()).unwrap();
        assert!(!backend.exists("idx-idx-r-00000000000000ff").unwrap());
        assert_eq!(reopened.run_count(), 1);
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
        store.try_flush().unwrap();
        for i in 20..40u32 {
            store.put(i.to_be_bytes().to_vec(), b"second".to_vec());
        }
        store.try_flush().unwrap();
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

        let mut reopened = KvStore::open(backend.clone(), "idx", small_config()).unwrap();
        // The torn run is dropped, object and all; the intact one loads.
        assert_eq!(reopened.run_count(), 1);
        assert!(!backend.exists(victim).unwrap());
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
        store.try_flush().unwrap();
        // Cold pass misses, hot pass hits.
        for i in 0..50u32 {
            assert!(store.contains(&i.to_be_bytes()));
        }
        let cold = store.cache_stats();
        for i in 0..50u32 {
            assert!(store.contains(&i.to_be_bytes()));
        }
        let hot = store.cache_stats();
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
