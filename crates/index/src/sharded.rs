//! Sharded, thread-safe wrappers around the index structures.
//!
//! A CDStore server handles many concurrent clients (§5.4, Figure 8), so its
//! indices must support parallel lookups and inserts. Each wrapper here
//! stripes the underlying single-threaded structure over a power-of-two
//! number of shards, each behind its own mutex, selected by a hash of the
//! key:
//!
//! * [`ShardedShareIndex`] — stripes by share fingerprint. Because SHA-256
//!   fingerprints are uniformly distributed, the first eight bytes select the
//!   stripe directly.
//! * [`ShardedFileIndex`] — stripes by the (already hashed) [`FileKey`].
//! * [`ShardedKvStore`] — stripes arbitrary byte keys by an FNV-1a hash.
//!
//! The crucial concurrency contract lives in
//! [`ShardedShareIndex::add_reference_or_store`]: the stripe lock is held
//! across the lookup *and* the caller's store action, so two clients racing
//! on the same fingerprint store the share's physical bytes exactly once —
//! the invariant inter-user deduplication depends on.

use std::sync::Arc;

use cdstore_crypto::Fingerprint;
use cdstore_storage::{StorageBackend, StorageError};
use parking_lot::Mutex;

use crate::file_index::{FileEntry, FileIndex, FileKey};
use crate::kvstore::{BlockCacheStats, KvStore, KvStoreConfig};
use crate::share_index::{ReleaseReport, ShareEntry, ShareIndex, ShareLocation};

/// Default number of lock stripes per index.
pub const DEFAULT_SHARDS: usize = 16;

/// Store name of one stripe of a disk-backed sharded index. Open must use
/// the same stripe count as create (the wrappers here fix it to
/// [`DEFAULT_SHARDS`] in their disk constructors for exactly that reason).
fn stripe_name(name: &str, i: usize) -> String {
    format!("{name}-{i:02}")
}

/// Sums per-stripe block-cache counters; `None` if no stripe is disk-backed.
fn combined_cache_stats(
    stats: impl Iterator<Item = Option<BlockCacheStats>>,
) -> Option<BlockCacheStats> {
    let mut total: Option<BlockCacheStats> = None;
    for s in stats.flatten() {
        let t = total.get_or_insert_with(BlockCacheStats::default);
        t.hits += s.hits;
        t.misses += s.misses;
        t.evictions += s.evictions;
        t.current_bytes += s.current_bytes;
        t.peak_bytes += s.peak_bytes;
        t.capacity_bytes += s.capacity_bytes;
    }
    total
}

/// Outcome of [`ShardedShareIndex::add_reference_or_store`].
///
/// Distinguishes *who* already owned a duplicate, so the server can keep its
/// intra-user vs inter-user deduplication counters exact even when a user's
/// own uploads race each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The share was new: the store action ran and its bytes were written.
    Stored,
    /// Another user had already stored the share (an inter-user duplicate).
    DedupInterUser,
    /// This user had already stored the share — e.g. two of their own
    /// uploads racing past the intra-user query stage.
    DedupIntraUser,
}

/// Outcome of [`ShardedFileIndex::put_if_newer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilePutOutcome {
    /// The entry was written. `displaced` holds the older entry it replaced,
    /// if any, so the caller can release the resources (recipe blob, share
    /// references) the superseded version held.
    Written {
        /// The strictly older entry the write replaced, if the key existed.
        displaced: Option<FileEntry>,
    },
    /// The index already held an entry at least as new; nothing was written
    /// and the caller must release the resources of the entry it tried to
    /// insert.
    Stale,
}

/// FNV-1a over a byte key, for striping keys without a uniform distribution.
/// Public so other layers (e.g. the façade's per-file write locks) stripe
/// with the same hash instead of duplicating it.
pub fn fnv1a(key: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in key {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stripe hash for a uniformly distributed 32-byte fingerprint/hash key:
/// the first eight bytes are already uniform.
fn fingerprint_hash(bytes: &[u8; 32]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Unwraps the result of a `_with` hook variant invoked with an infallible
/// hook (the plain methods here delegate through this, and callers passing
/// their own infallible hooks can too).
pub fn infallible<T>(result: Result<T, std::convert::Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// The shared striping mechanics: a power-of-two number of mutex-guarded
/// shards selected by a key hash. Each wrapper below layers its domain
/// methods over one of these.
struct Striped<T> {
    shards: Vec<Mutex<T>>,
    mask: u64,
}

impl<T> Striped<T> {
    /// Builds (at least) `requested` stripes, rounded up to a power of two.
    fn new(requested: usize, make: impl Fn() -> T) -> Self {
        infallible(Self::try_new(requested, |_| Ok(make())))
    }

    /// Fallible variant of [`Striped::new`]; `make` receives the stripe
    /// number (disk-backed stripes derive their object names from it).
    fn try_new<E>(requested: usize, make: impl Fn(usize) -> Result<T, E>) -> Result<Self, E> {
        let count = requested.max(1).next_power_of_two();
        let mut shards = Vec::with_capacity(count);
        for i in 0..count {
            shards.push(Mutex::new(make(i)?));
        }
        Ok(Striped {
            shards,
            mask: count as u64 - 1,
        })
    }

    fn len(&self) -> usize {
        self.shards.len()
    }

    /// The stripe a key hash selects.
    fn shard(&self, hash: u64) -> &Mutex<T> {
        &self.shards[(hash & self.mask) as usize]
    }

    /// Sums a per-stripe statistic over all stripes.
    fn sum<N: std::iter::Sum>(&self, stat: impl Fn(&mut T) -> N) -> N {
        self.shards.iter().map(|s| stat(&mut s.lock())).sum()
    }
}

/// A thread-safe share index striped by fingerprint.
pub struct ShardedShareIndex {
    stripes: Striped<ShareIndex>,
}

impl Default for ShardedShareIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedShareIndex {
    /// Creates an index with [`DEFAULT_SHARDS`] stripes.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an index with (at least) the requested number of stripes,
    /// rounded up to a power of two.
    pub fn with_shards(shards: usize) -> Self {
        ShardedShareIndex {
            stripes: Striped::new(shards, ShareIndex::new),
        }
    }

    /// Creates a *fresh* disk-backed index named `name` on the backend
    /// ([`DEFAULT_SHARDS`] stripes, one store per stripe), discarding any
    /// previous incarnation of the same name.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShardedShareIndex {
            stripes: Striped::try_new(DEFAULT_SHARDS, |i| {
                ShareIndex::create(backend.clone(), &stripe_name(name, i), config)
            })?,
        })
    }

    /// Opens the disk-backed index previously persisted under `name`,
    /// resuming every stripe's runs.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShardedShareIndex {
            stripes: Striped::try_new(DEFAULT_SHARDS, |i| {
                ShareIndex::open(backend.clone(), &stripe_name(name, i), config)
            })?,
        })
    }

    /// Freezes every stripe's buffered writes into durable runs (disk mode).
    pub fn flush_runs(&self) -> Result<(), StorageError> {
        for stripe in &self.stripes.shards {
            stripe.lock().flush_runs()?;
        }
        Ok(())
    }

    /// Summed block-cache counters over all stripes (`None` in memory mode).
    pub fn cache_stats(&self) -> Option<BlockCacheStats> {
        combined_cache_stats(self.stripes.shards.iter().map(|s| s.lock().cache_stats()))
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.stripes.len()
    }

    fn shard(&self, fp: &Fingerprint) -> &Mutex<ShareIndex> {
        self.stripes.shard(fingerprint_hash(fp.as_bytes()))
    }

    /// Looks up the entry for a share fingerprint.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<ShareEntry> {
        self.shard(fp).lock().lookup(fp)
    }

    /// Whether a share with this fingerprint is already stored.
    pub fn is_stored(&self, fp: &Fingerprint) -> bool {
        self.lookup(fp).is_some()
    }

    /// Whether the given user already owns the share.
    pub fn user_owns(&self, fp: &Fingerprint, user: u64) -> bool {
        self.shard(fp).lock().user_owns(fp, user)
    }

    /// For a batch of fingerprints, returns which ones the user has already
    /// uploaded (the reply to a client's intra-user dedup query, §3.3).
    pub fn filter_user_duplicates(&self, user: u64, fps: &[Fingerprint]) -> Vec<bool> {
        fps.iter().map(|fp| self.user_owns(fp, user)).collect()
    }

    /// Records that `user` references the share, storing it first if it is
    /// new. The `store` action runs under the fingerprint's stripe lock, so
    /// two threads racing on the same fingerprint invoke it exactly once —
    /// the loser of the race sees a dedup outcome and the winner's location.
    ///
    /// Holding the stripe lock across `store` is a deliberate trade-off: it
    /// keeps exactly-once trivial to reason about, at the cost of briefly
    /// serialising unrelated shares that hash to the same stripe while the
    /// store action runs (relevant only when the action does slow I/O; an
    /// in-flight-placeholder protocol could lift the action out of the lock
    /// if a remote backend ever sits on this path).
    pub fn add_reference_or_store<E>(
        &self,
        fp: &Fingerprint,
        user: u64,
        store: impl FnOnce() -> Result<ShareLocation, E>,
    ) -> Result<(ShareLocation, StoreOutcome), E> {
        self.add_reference_or_store_with(fp, user, store, |_| Ok(()))
    }

    /// [`ShardedShareIndex::add_reference_or_store`] with a journaling hook:
    /// `observe` runs under the same stripe lock, after the mutation, with
    /// the entry's post-state, so a write-ahead journal records mutations of
    /// one fingerprint in exactly the order they were applied.
    pub fn add_reference_or_store_with<E>(
        &self,
        fp: &Fingerprint,
        user: u64,
        store: impl FnOnce() -> Result<ShareLocation, E>,
        observe: impl FnOnce(&ShareEntry) -> Result<(), E>,
    ) -> Result<(ShareLocation, StoreOutcome), E> {
        let mut shard = self.shard(fp).lock();
        if let Some(mut entry) = shard.lookup(fp) {
            let outcome = if entry.owned_by(user) {
                StoreOutcome::DedupIntraUser
            } else {
                StoreOutcome::DedupInterUser
            };
            // Write back through the already-decoded entry: duplicates (the
            // dominant case in dedup-heavy workloads) cost one index read.
            shard.add_references_to_entry(fp, &mut entry, user, 1);
            observe(&entry)?;
            Ok((entry.location, outcome))
        } else {
            let location = store()?;
            shard.insert_new(fp, location, user);
            observe(&ShareEntry {
                location,
                owners: vec![(user, 1)],
            })?;
            Ok((location, StoreOutcome::Stored))
        }
    }

    /// Adds one reference for `user` to a share that must already be stored.
    /// Returns `false` (and changes nothing) if the fingerprint is unknown.
    pub fn add_reference_existing(&self, fp: &Fingerprint, user: u64) -> bool {
        infallible(self.add_references_existing_with(fp, user, 1, |_| Ok(())))
    }

    /// Adds `count` references for `user` to a share that must already be
    /// stored, in one stripe-locked step, with a journaling hook that
    /// observes the entry's post-state under the lock. Returns `false` (and
    /// changes nothing) if the fingerprint is unknown. `count == 0` is the
    /// pure existence check of the same rule: nothing is written and the hook
    /// is not invoked.
    pub fn add_references_existing_with<E>(
        &self,
        fp: &Fingerprint,
        user: u64,
        count: u32,
        observe: impl FnOnce(&ShareEntry) -> Result<(), E>,
    ) -> Result<bool, E> {
        let mut shard = self.shard(fp).lock();
        let Some(mut entry) = shard.lookup(fp) else {
            return Ok(false);
        };
        if count > 0 {
            shard.add_references_to_entry(fp, &mut entry, user, count);
            observe(&entry)?;
        }
        Ok(true)
    }

    /// Drops one reference held by `user`, deleting the entry when the last
    /// reference across all users goes. Returns `None` — a no-op — if the
    /// share is unknown or `user` holds no reference.
    pub fn remove_reference(&self, fp: &Fingerprint, user: u64) -> Option<ReleaseReport> {
        infallible(self.remove_reference_with(fp, user, |_| Ok(())))
    }

    /// [`ShardedShareIndex::remove_reference`] with a journaling hook that
    /// observes the entry's post-state under the stripe lock: `Some` with the
    /// surviving entry, or `None` when the last reference went and the entry
    /// was deleted. Only invoked when a reference was actually dropped.
    pub fn remove_reference_with<E>(
        &self,
        fp: &Fingerprint,
        user: u64,
        observe: impl FnOnce(Option<&ShareEntry>) -> Result<(), E>,
    ) -> Result<Option<ReleaseReport>, E> {
        let mut shard = self.shard(fp).lock();
        let Some(report) = shard.remove_reference(fp, user) else {
            return Ok(None);
        };
        let post = shard.lookup(fp);
        observe(post.as_ref())?;
        Ok(Some(report))
    }

    /// Atomically repoints the share's location from `from` to `to` under the
    /// fingerprint's stripe lock — the index half of container compaction.
    /// Fails (returning `false`, changing nothing) if the share is gone or
    /// was moved concurrently; the caller must then discard the copy at `to`.
    pub fn relocate(&self, fp: &Fingerprint, from: ShareLocation, to: ShareLocation) -> bool {
        infallible(self.relocate_with(fp, from, to, |_| Ok(())))
    }

    /// [`ShardedShareIndex::relocate`] with a journaling hook that observes
    /// the repointed entry under the stripe lock (only invoked when the
    /// relocation succeeded).
    pub fn relocate_with<E>(
        &self,
        fp: &Fingerprint,
        from: ShareLocation,
        to: ShareLocation,
        observe: impl FnOnce(&ShareEntry) -> Result<(), E>,
    ) -> Result<bool, E> {
        let mut shard = self.shard(fp).lock();
        if !shard.relocate(fp, from, to) {
            return Ok(false);
        }
        if let Some(entry) = shard.lookup(fp) {
            observe(&entry)?;
        }
        Ok(true)
    }

    /// Installs an entry verbatim, overwriting any existing one — checkpoint
    /// restore and journal replay. No reference bookkeeping of its own.
    pub fn insert_entry(&self, fp: &Fingerprint, entry: &ShareEntry) {
        self.shard(fp).lock().insert_entry(fp, entry);
    }

    /// Removes an entry verbatim, whatever references it holds — journal
    /// replay of a share deletion and recovery's pruning of entries that
    /// point into containers lost with the crash.
    pub fn remove_entry(&self, fp: &Fingerprint) {
        self.shard(fp).lock().remove_entry(fp);
    }

    /// Every `(fingerprint, entry)` pair across all stripes — the snapshot
    /// half of checkpointing. Per-stripe locking only: concurrent mutations
    /// may land between stripes, so callers needing a true point-in-time
    /// snapshot must exclude writers for the duration.
    pub fn export(&self) -> Vec<(Fingerprint, ShareEntry)> {
        let mut all = Vec::new();
        for stripe in &self.stripes.shards {
            all.extend(stripe.lock().export());
        }
        all
    }

    /// Number of unique shares tracked (sums over all stripes).
    pub fn unique_shares(&self) -> usize {
        self.stripes.sum(|s| s.unique_shares())
    }

    /// Total physical bytes referenced by the index.
    pub fn physical_bytes(&self) -> u64 {
        self.stripes.sum(|s| s.physical_bytes())
    }

    /// Approximate index memory footprint in bytes.
    pub fn approximate_size(&self) -> usize {
        self.stripes.sum(|s| s.approximate_size())
    }
}

/// A thread-safe file index striped by the hashed [`FileKey`].
pub struct ShardedFileIndex {
    stripes: Striped<FileIndex>,
}

impl Default for ShardedFileIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedFileIndex {
    /// Creates an index with [`DEFAULT_SHARDS`] stripes.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an index with (at least) the requested number of stripes,
    /// rounded up to a power of two.
    pub fn with_shards(shards: usize) -> Self {
        ShardedFileIndex {
            stripes: Striped::new(shards, FileIndex::new),
        }
    }

    /// Creates a *fresh* disk-backed index named `name` on the backend
    /// ([`DEFAULT_SHARDS`] stripes, one store per stripe), discarding any
    /// previous incarnation of the same name.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShardedFileIndex {
            stripes: Striped::try_new(DEFAULT_SHARDS, |i| {
                FileIndex::create(backend.clone(), &stripe_name(name, i), config)
            })?,
        })
    }

    /// Opens the disk-backed index previously persisted under `name`,
    /// resuming every stripe's runs.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShardedFileIndex {
            stripes: Striped::try_new(DEFAULT_SHARDS, |i| {
                FileIndex::open(backend.clone(), &stripe_name(name, i), config)
            })?,
        })
    }

    /// Freezes every stripe's buffered writes into durable runs (disk mode).
    pub fn flush_runs(&self) -> Result<(), StorageError> {
        for stripe in &self.stripes.shards {
            stripe.lock().flush_runs()?;
        }
        Ok(())
    }

    /// Summed block-cache counters over all stripes (`None` in memory mode).
    pub fn cache_stats(&self) -> Option<BlockCacheStats> {
        combined_cache_stats(self.stripes.shards.iter().map(|s| s.lock().cache_stats()))
    }

    fn shard(&self, key: &FileKey) -> &Mutex<FileIndex> {
        self.stripes.shard(fingerprint_hash(key.as_bytes()))
    }

    /// Inserts or replaces the entry for a file.
    pub fn put(&self, key: FileKey, entry: FileEntry) {
        self.shard(&key).lock().put(key, entry);
    }

    /// Inserts the entry unless the index already holds a strictly newer
    /// version for the key, reporting the displaced older entry (if any) so
    /// the caller can release the resources it held.
    ///
    /// Version numbers are allocated before the stripe lock is taken, so
    /// concurrent backups of the same file may arrive out of order; this
    /// compare-under-lock makes them converge on the highest version
    /// instead of last-writer-wins.
    pub fn put_if_newer(&self, key: FileKey, entry: FileEntry) -> FilePutOutcome {
        infallible(self.put_if_newer_with(key, entry, |_| Ok(())))
    }

    /// [`ShardedFileIndex::put_if_newer`] with a journaling hook that
    /// observes the written entry under the stripe lock (only invoked when
    /// the entry was actually written, i.e. not on [`FilePutOutcome::Stale`]).
    pub fn put_if_newer_with<E>(
        &self,
        key: FileKey,
        entry: FileEntry,
        observe: impl FnOnce(&FileEntry) -> Result<(), E>,
    ) -> Result<FilePutOutcome, E> {
        let mut shard = self.shard(&key).lock();
        let existing = shard.get(&key);
        match existing {
            Some(existing) if existing.version > entry.version => Ok(FilePutOutcome::Stale),
            displaced => {
                observe(&entry)?;
                shard.put(key, entry);
                Ok(FilePutOutcome::Written { displaced })
            }
        }
    }

    /// Looks up the entry for a file.
    pub fn get(&self, key: &FileKey) -> Option<FileEntry> {
        self.shard(key).lock().get(key)
    }

    /// Removes the entry for a file, returning it if present.
    pub fn remove(&self, key: &FileKey) -> Option<FileEntry> {
        infallible(self.remove_with(key, |_| Ok(())))
    }

    /// [`ShardedFileIndex::remove`] with a journaling hook that runs under
    /// the stripe lock (only invoked when an entry was actually removed,
    /// receiving it).
    pub fn remove_with<E>(
        &self,
        key: &FileKey,
        observe: impl FnOnce(&FileEntry) -> Result<(), E>,
    ) -> Result<Option<FileEntry>, E> {
        let mut shard = self.shard(key).lock();
        let Some(entry) = shard.remove(key) else {
            return Ok(None);
        };
        observe(&entry)?;
        Ok(Some(entry))
    }

    /// Every `(key, entry)` pair across all stripes — the snapshot half of
    /// checkpointing. Per-stripe locking only (see
    /// [`ShardedShareIndex::export`] for the point-in-time caveat).
    pub fn export(&self) -> Vec<(FileKey, FileEntry)> {
        let mut all = Vec::new();
        for stripe in &self.stripes.shards {
            all.extend(stripe.lock().export());
        }
        all
    }

    /// Number of files indexed.
    pub fn len(&self) -> usize {
        self.stripes.sum(|s| s.len())
    }

    /// Whether no files are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate index memory footprint in bytes.
    pub fn approximate_size(&self) -> usize {
        self.stripes.sum(|s| s.approximate_size())
    }
}

/// A thread-safe key-value store striped by an FNV-1a hash of the key.
pub struct ShardedKvStore {
    stripes: Striped<KvStore>,
}

impl Default for ShardedKvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedKvStore {
    /// Creates a store with [`DEFAULT_SHARDS`] stripes and the default
    /// [`KvStoreConfig`].
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a store with (at least) the requested number of stripes,
    /// rounded up to a power of two.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_config(KvStoreConfig::default(), shards)
    }

    /// Creates a store with an explicit per-stripe configuration.
    pub fn with_config(config: KvStoreConfig, shards: usize) -> Self {
        ShardedKvStore {
            stripes: Striped::new(shards, || KvStore::with_config(config)),
        }
    }

    /// Creates a *fresh* disk-backed store named `name` on the backend
    /// ([`DEFAULT_SHARDS`] stripes, one store per stripe), discarding any
    /// previous incarnation of the same name.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShardedKvStore {
            stripes: Striped::try_new(DEFAULT_SHARDS, |i| {
                KvStore::create(backend.clone(), &stripe_name(name, i), config)
            })?,
        })
    }

    /// Opens the disk-backed store previously persisted under `name`,
    /// resuming every stripe's runs.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShardedKvStore {
            stripes: Striped::try_new(DEFAULT_SHARDS, |i| {
                KvStore::open(backend.clone(), &stripe_name(name, i), config)
            })?,
        })
    }

    /// Freezes every stripe's buffered writes into durable runs (disk mode).
    pub fn flush_runs(&self) -> Result<(), StorageError> {
        for stripe in &self.stripes.shards {
            stripe.lock().try_flush()?;
        }
        Ok(())
    }

    /// Summed block-cache counters over all stripes (`None` in memory mode).
    pub fn cache_stats(&self) -> Option<BlockCacheStats> {
        combined_cache_stats(self.stripes.shards.iter().map(|s| s.lock().cache_stats()))
    }

    fn shard(&self, key: &[u8]) -> &Mutex<KvStore> {
        self.stripes.shard(fnv1a(key))
    }

    /// Inserts or overwrites a key.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) {
        infallible(self.put_with(key, value, |_, _| Ok(())));
    }

    /// [`ShardedKvStore::put`] with a journaling hook that observes the pair
    /// being written under the stripe lock, so mutations of one key journal
    /// in apply order.
    pub fn put_with<E>(
        &self,
        key: Vec<u8>,
        value: Vec<u8>,
        observe: impl FnOnce(&[u8], &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut shard = self.shard(&key).lock();
        observe(&key, &value)?;
        shard.put(key, value);
        Ok(())
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shard(key).lock().get(key)
    }

    /// Deletes a key (no-op if absent).
    pub fn delete(&self, key: &[u8]) {
        infallible(self.delete_with(key, || Ok(())));
    }

    /// [`ShardedKvStore::delete`] with a journaling hook that runs under the
    /// stripe lock.
    pub fn delete_with<E>(
        &self,
        key: &[u8],
        observe: impl FnOnce() -> Result<(), E>,
    ) -> Result<(), E> {
        let mut shard = self.shard(key).lock();
        observe()?;
        shard.delete(key);
        Ok(())
    }

    /// Every live `(key, value)` pair across all stripes — the snapshot half
    /// of checkpointing. Per-stripe locking only (see
    /// [`ShardedShareIndex::export`] for the point-in-time caveat).
    pub fn export(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = Vec::new();
        for stripe in &self.stripes.shards {
            all.extend(stripe.lock().snapshot());
        }
        all
    }

    /// Returns whether the key is present (not deleted).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.shard(key).lock().contains(key)
    }

    /// Number of live keys across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.sum(|s| s.len())
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes.
    pub fn approximate_size(&self) -> usize {
        self.stripes.sum(|s| s.approximate_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn fp(i: u32) -> Fingerprint {
        Fingerprint::of(&i.to_be_bytes())
    }

    fn loc(id: u64, size: u32) -> ShareLocation {
        ShareLocation {
            container_id: id,
            offset: 0,
            size,
        }
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        assert_eq!(ShardedShareIndex::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedShareIndex::with_shards(5).shard_count(), 8);
        assert_eq!(ShardedShareIndex::with_shards(16).shard_count(), 16);
    }

    #[test]
    fn share_index_round_trip_through_stripes() {
        let index = ShardedShareIndex::with_shards(4);
        for i in 0..500u32 {
            let (_, outcome) = index
                .add_reference_or_store::<()>(&fp(i), (i % 7) as u64, || Ok(loc(i as u64, 100)))
                .unwrap();
            assert_eq!(outcome, StoreOutcome::Stored);
        }
        assert_eq!(index.unique_shares(), 500);
        for i in (0..500u32).step_by(13) {
            assert!(index.is_stored(&fp(i)));
            assert!(index.user_owns(&fp(i), (i % 7) as u64));
            assert!(!index.user_owns(&fp(i), 99));
        }
        assert_eq!(
            index.filter_user_duplicates(0, &[fp(0), fp(1), fp(7)]),
            vec![true, false, true]
        );
        let release = index.remove_reference(&fp(0), 0).unwrap();
        assert_eq!(release.location, loc(0, 100));
        assert_eq!(release.total_refs, 0);
        assert!(!index.is_stored(&fp(0)));
    }

    #[test]
    fn relocate_races_resolve_under_the_stripe_lock() {
        let index = ShardedShareIndex::new();
        index
            .add_reference_or_store::<()>(&fp(1), 1, || Ok(loc(10, 8)))
            .unwrap();
        // Two compactors race to move the same share: exactly one wins.
        let winners = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let index = &index;
                    scope.spawn(move || index.relocate(&fp(1), loc(10, 8), loc(100 + t, 8)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&won| won)
                .count()
        });
        assert_eq!(winners, 1);
        let moved = index.lookup(&fp(1)).unwrap().location;
        assert!(moved.container_id >= 100 && moved.container_id < 104);
        assert!(index.add_reference_existing(&fp(1), 2));
        assert!(!index.add_reference_existing(&fp(99), 2));
    }

    #[test]
    fn counted_references_land_in_one_observed_step() {
        let index = ShardedShareIndex::new();
        index
            .add_reference_or_store::<()>(&fp(1), 1, || Ok(loc(10, 8)))
            .unwrap();
        let mut observed = Vec::new();
        let mut add = |fp: &Fingerprint, user, count| {
            infallible(index.add_references_existing_with(fp, user, count, |post| {
                observed.push(post.owners.clone());
                Ok(())
            }))
        };
        assert!(add(&fp(1), 1, 3));
        assert!(add(&fp(1), 2, 2));
        // Zero references is the existence check: nothing written or observed.
        assert!(add(&fp(1), 3, 0));
        assert!(!add(&fp(99), 1, 0));
        assert!(!add(&fp(99), 1, 2));
        assert_eq!(observed, vec![vec![(1, 4)], vec![(1, 4), (2, 2)]]);
        assert_eq!(index.lookup(&fp(1)).unwrap().owners, vec![(1, 4), (2, 2)]);
        assert!(!index.is_stored(&fp(99)));
    }

    #[test]
    fn racing_stores_invoke_the_store_action_exactly_once() {
        let index = ShardedShareIndex::new();
        let stores = AtomicUsize::new(0);
        let new_outcomes = AtomicUsize::new(0);
        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for user in 0..threads as u64 {
                let index = &index;
                let stores = &stores;
                let new_outcomes = &new_outcomes;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..200u32 {
                        let (location, outcome) = index
                            .add_reference_or_store::<()>(&fp(i), user, || {
                                stores.fetch_add(1, Ordering::SeqCst);
                                Ok(loc(i as u64, 64))
                            })
                            .unwrap();
                        // Whoever wins, everyone sees the winner's location.
                        assert_eq!(location, loc(i as u64, 64));
                        if outcome == StoreOutcome::Stored {
                            new_outcomes.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(stores.load(Ordering::SeqCst), 200);
        assert_eq!(new_outcomes.load(Ordering::SeqCst), 200);
        assert_eq!(index.unique_shares(), 200);
        for i in 0..200u32 {
            let entry = index.lookup(&fp(i)).unwrap();
            assert_eq!(entry.owners.len(), threads);
            assert_eq!(entry.total_refs(), threads as u64);
        }
    }

    #[test]
    fn duplicate_outcomes_distinguish_intra_from_inter_user() {
        let index = ShardedShareIndex::new();
        let (_, first) = index
            .add_reference_or_store::<()>(&fp(1), 7, || Ok(loc(1, 10)))
            .unwrap();
        assert_eq!(first, StoreOutcome::Stored);
        // The same user racing itself is an intra-user duplicate...
        let (_, same_user) = index
            .add_reference_or_store::<()>(&fp(1), 7, || Ok(loc(2, 10)))
            .unwrap();
        assert_eq!(same_user, StoreOutcome::DedupIntraUser);
        // ...while another user hitting the share is an inter-user one.
        let (_, other_user) = index
            .add_reference_or_store::<()>(&fp(1), 8, || Ok(loc(3, 10)))
            .unwrap();
        assert_eq!(other_user, StoreOutcome::DedupInterUser);
    }

    #[test]
    fn put_if_newer_keeps_the_highest_version() {
        let index = ShardedFileIndex::new();
        let key = FileKey::new(1, b"/racy");
        let entry = |version: u64| FileEntry {
            user: 1,
            recipe_container_id: version,
            recipe_offset: 0,
            recipe_size: 8,
            file_size: 1,
            num_secrets: 1,
            version,
        };
        assert_eq!(
            index.put_if_newer(key, entry(5)),
            FilePutOutcome::Written { displaced: None }
        );
        // An out-of-order older version loses...
        assert_eq!(index.put_if_newer(key, entry(4)), FilePutOutcome::Stale);
        assert_eq!(index.get(&key).unwrap().version, 5);
        // ...while a newer one wins and reports the entry it displaced.
        assert_eq!(
            index.put_if_newer(key, entry(6)),
            FilePutOutcome::Written {
                displaced: Some(entry(5))
            }
        );
        assert_eq!(index.get(&key).unwrap().version, 6);
    }

    #[test]
    fn store_errors_do_not_poison_the_stripe() {
        let index = ShardedShareIndex::new();
        let result = index.add_reference_or_store(&fp(1), 1, || Err("backend down"));
        assert_eq!(result, Err("backend down"));
        assert!(!index.is_stored(&fp(1)));
        // The stripe is still usable afterwards.
        let (_, outcome) = index
            .add_reference_or_store::<()>(&fp(1), 1, || Ok(loc(9, 9)))
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Stored);
    }

    #[test]
    fn file_index_round_trip_through_stripes() {
        let index = ShardedFileIndex::with_shards(4);
        let entry = FileEntry {
            user: 3,
            recipe_container_id: 3,
            recipe_offset: 16,
            recipe_size: 52,
            file_size: 100,
            num_secrets: 4,
            version: 1,
        };
        for user in 0..10u64 {
            for f in 0..40u32 {
                let key = FileKey::new(user, format!("/u{user}/f{f}").as_bytes());
                index.put(key, entry.clone());
            }
        }
        assert_eq!(index.len(), 400);
        let probe = FileKey::new(3, b"/u3/f7");
        assert_eq!(index.get(&probe), Some(entry.clone()));
        assert_eq!(index.remove(&probe), Some(entry));
        assert_eq!(index.get(&probe), None);
        assert_eq!(index.len(), 399);
        assert!(index.approximate_size() > 0);
    }

    #[test]
    fn kv_store_round_trip_through_stripes() {
        let store = ShardedKvStore::with_config(
            KvStoreConfig {
                memtable_capacity: 8,
                max_runs: 2,
                bloom_bits_per_key: 8,
                ..KvStoreConfig::default()
            },
            4,
        );
        for i in 0..300u32 {
            store.put(i.to_be_bytes().to_vec(), (i * 2).to_be_bytes().to_vec());
        }
        assert_eq!(store.len(), 300);
        for i in 0..300u32 {
            assert_eq!(
                store.get(&i.to_be_bytes()),
                Some((i * 2).to_be_bytes().to_vec())
            );
        }
        store.delete(&7u32.to_be_bytes());
        assert!(!store.contains(&7u32.to_be_bytes()));
        assert_eq!(store.len(), 299);
        assert!(!store.is_empty());
    }

    #[test]
    fn disk_backed_stripes_persist_across_reopen() {
        use cdstore_storage::MemoryBackend;
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let config = KvStoreConfig {
            memtable_capacity: 8,
            ..KvStoreConfig::default()
        };
        let index = ShardedShareIndex::create(backend.clone(), "share", config).unwrap();
        for i in 0..200u32 {
            index
                .add_reference_or_store::<()>(&fp(i), (i % 5) as u64, || Ok(loc(i as u64, 64)))
                .unwrap();
        }
        index.flush_runs().unwrap();
        drop(index);

        let reopened = ShardedShareIndex::open(backend.clone(), "share", config).unwrap();
        assert_eq!(reopened.unique_shares(), 200);
        for i in (0..200u32).step_by(17) {
            let entry = reopened.lookup(&fp(i)).unwrap();
            assert_eq!(entry.location, loc(i as u64, 64));
            assert!(entry.owned_by((i % 5) as u64));
        }
        assert!(reopened.cache_stats().is_some());

        // A fresh create of the same name discards the persisted state.
        let fresh = ShardedShareIndex::create(backend, "share", config).unwrap();
        assert_eq!(fresh.unique_shares(), 0);
    }

    #[test]
    fn kv_store_handles_concurrent_writers() {
        let store = ShardedKvStore::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let mut key = t.to_be_bytes().to_vec();
                        key.extend_from_slice(&i.to_be_bytes());
                        store.put(key, vec![t as u8; 16]);
                    }
                });
            }
        });
        assert_eq!(store.len(), 8 * 200);
        let mut probe = 3u64.to_be_bytes().to_vec();
        probe.extend_from_slice(&150u32.to_be_bytes());
        assert_eq!(store.get(&probe), Some(vec![3u8; 16]));
    }
}
