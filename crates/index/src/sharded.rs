//! The striped store every server-side index is built on.
//!
//! A CDStore server handles many concurrent clients (§5.4, Figure 8), so its
//! indices must support parallel lookups and inserts. [`Sharded`] stripes
//! [`DEFAULT_SHARDS`] [`KvStore`]s on one backend, each behind its own
//! mutex, selected by a hash of the key, and owns what is the same for every
//! index: creating the stripes, opening them from checkpoint
//! [`StripeImage`]s, and summing their counters. What an index *means* is
//! layered on top as a key hash, a value codec and the rule of each
//! mutation:
//!
//! * [`ShardedShareIndex`](crate::ShardedShareIndex) — fingerprint →
//!   [`ShareEntry`](crate::ShareEntry), in `share_index.rs`.
//! * [`ShardedFileIndex`](crate::ShardedFileIndex) — [`FileKey`](crate::FileKey)
//!   → [`FileEntry`](crate::FileEntry), in `file_index.rs`.
//! * [`ShardedKvStore`] — arbitrary byte keys and values, striped by an
//!   FNV-1a hash, below.
//!
//! Every mutation holds its key's stripe lock from the read of the old state
//! to the write of the new one (and across any hook or store action it is
//! given), so racing mutations of one key are applied, and observed, in one
//! order.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};

use cdstore_storage::{StorageBackend, StorageError};

use crate::kvstore::{BlockCacheStats, KvStore, KvStoreConfig};
use crate::run::INDEX_KEY_PREFIX;

/// Number of lock stripes per index (a power of two).
pub const DEFAULT_SHARDS: usize = 16;
const _: () = assert!(DEFAULT_SHARDS.is_power_of_two());

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
pub(crate) fn key_hash(bytes: &[u8; 32]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// A thread-safe store of `V` values striped over mutex-guarded
/// [`KvStore`]s. `V` only names which index this is (and so which methods
/// it has); the stripes hold encoded bytes.
pub struct Sharded<V> {
    stripes: Vec<Mutex<KvStore>>,
    values: PhantomData<fn() -> V>,
}

/// What a checkpoint keeps of one stripe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StripeImage {
    /// The stripe's [`KvStore::runs_written`]. Zero means the memtable held
    /// every entry of the stripe.
    pub runs_written: u64,
    /// The memtable ([`KvStore::memtable`]): each key with its value, or
    /// `None` for a tombstone.
    pub memtable: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

impl<V> Sharded<V> {
    /// Stripe names `{name}-{NN}`, as many as ever: `open` must find a key
    /// in the stripe `create` put it in.
    fn stripe_names(name: &str) -> impl Iterator<Item = String> + '_ {
        (0..DEFAULT_SHARDS).map(move |i| format!("{name}-{i:02}"))
    }

    fn from_stripes(stores: Vec<KvStore>) -> Self {
        Sharded {
            stripes: stores.into_iter().map(Mutex::new).collect(),
            values: PhantomData,
        }
    }

    /// Creates a *fresh* store named `name` on the backend, discarding any
    /// previous incarnation of the same name. Lists the backend once.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        let prefix = format!("{INDEX_KEY_PREFIX}{name}-");
        for key in backend.list()? {
            if key.starts_with(&prefix) {
                backend.delete(&key)?;
            }
        }
        let stores = Self::stripe_names(name)
            .map(|stripe| KvStore::open_listed(backend.clone(), &stripe, config, &[]))
            .collect::<Result<_, _>>()?;
        Ok(Self::from_stripes(stores))
    }

    /// Rebuilds store `name` from one checkpoint image per stripe: opens the
    /// runs of each stripe whose image counts any (listing the backend
    /// once), then installs the image's memtable over them. A stripe whose
    /// image counts none reads nothing from the backend, whatever an older
    /// incarnation left there: blank images make a fresh store.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
        images: [StripeImage; DEFAULT_SHARDS],
    ) -> Result<Self, StorageError> {
        let spilled = images.iter().any(|image| image.runs_written > 0);
        let listing = if spilled { backend.list()? } else { Vec::new() };
        let stores = Self::stripe_names(name)
            .zip(images)
            .map(|(stripe, image)| {
                let listing = if image.runs_written > 0 {
                    &listing[..]
                } else {
                    &[]
                };
                let mut store = KvStore::open_listed(backend.clone(), &stripe, config, listing)?;
                store.install(image.memtable);
                Ok(store)
            })
            .collect::<Result<_, StorageError>>()?;
        Ok(Self::from_stripes(stores))
    }

    /// Each stripe in order, locked as reached. A panic under a stripe lock
    /// poisons it: every later request on it panics instead of running on.
    fn locked(&self) -> impl Iterator<Item = MutexGuard<'_, KvStore>> {
        self.stripes
            .iter()
            .map(|stripe| stripe.lock().expect("index stripe lock"))
    }

    /// Calls `visit` on every stripe in order, each under its lock.
    pub fn for_each_stripe(&self, mut visit: impl FnMut(&KvStore)) {
        self.locked().for_each(|stripe| visit(&stripe));
    }

    /// Freezes every stripe's buffered writes into durable runs.
    pub fn flush_runs(&self) -> Result<(), StorageError> {
        self.locked().try_for_each(|mut s| s.try_flush())
    }

    /// Summed block-cache counters over all stripes (always `Some`).
    pub fn cache_stats(&self) -> Option<BlockCacheStats> {
        let stats = self.locked().map(|s| s.cache_stats());
        Some(stats.fold(BlockCacheStats::default(), |mut total, s| {
            total += s;
            total
        }))
    }

    /// Number of live keys across all stripes.
    pub fn len(&self) -> usize {
        self.locked().map(|s| s.len()).sum()
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident memory footprint in bytes (relevant to the cost
    /// model's EC2 instance sizing, §5.6).
    pub fn approximate_size(&self) -> usize {
        self.locked().map(|s| s.approximate_size()).sum()
    }

    /// Locks the stripe a key hash selects.
    pub(crate) fn lock(&self, hash: u64) -> MutexGuard<'_, KvStore> {
        self.stripes[(hash as usize) & (DEFAULT_SHARDS - 1)]
            .lock()
            .expect("index stripe lock")
    }

    /// Every live pair across all stripes that `decode` accepts. Per-stripe
    /// locking only: concurrent mutations may land between stripes.
    pub(crate) fn export_decoded<T>(
        &self,
        decode: impl Fn(Vec<u8>, Vec<u8>) -> Option<T>,
    ) -> Vec<T> {
        let mut all = Vec::new();
        // The empty prefix: every live pair of each stripe.
        for pairs in self.locked().map(|stripe| stripe.scan_prefix(&[])) {
            all.extend(pairs.into_iter().filter_map(|(k, v)| decode(k, v)));
        }
        all
    }
}

/// A thread-safe key-value store striped by an FNV-1a hash of the key.
pub type ShardedKvStore = Sharded<Vec<u8>>;

impl Sharded<Vec<u8>> {
    /// Inserts or overwrites a key.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) {
        self.put_with(key, value, |_, _| {});
    }

    /// [`ShardedKvStore::put`] with a journaling hook that observes the pair
    /// being written under the stripe lock, so mutations of one key journal
    /// in apply order.
    pub fn put_with(&self, key: Vec<u8>, value: Vec<u8>, observe: impl FnOnce(&[u8], &[u8])) {
        let mut stripe = self.lock(fnv1a(&key));
        observe(&key, &value);
        stripe.put(key, value);
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.lock(fnv1a(key)).get(key)
    }

    /// Looks up a key and returns what `read` makes of its value, under the
    /// stripe lock ([`KvStore::peek`]: a memtable hit allocates nothing).
    pub fn peek<R>(&self, key: &[u8], read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.lock(fnv1a(key)).peek(key, read)
    }

    /// Returns whether the key is present (not deleted). A memtable hit
    /// allocates nothing.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.lock(fnv1a(key)).contains(key)
    }

    /// Deletes a key (no-op if absent).
    pub fn delete(&self, key: &[u8]) {
        self.delete_with(key, || {});
    }

    /// [`ShardedKvStore::delete`] with a journaling hook that runs under the
    /// stripe lock.
    pub fn delete_with(&self, key: &[u8], observe: impl FnOnce()) {
        let mut stripe = self.lock(fnv1a(key));
        observe();
        stripe.delete(key);
    }

    /// Every live `(key, value)` pair across all stripes (see
    /// [`ShardedShareIndex::export`](crate::ShardedShareIndex::export)).
    pub fn export(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.export_decoded(|k, v| Some((k, v)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        FileEntry, FileKey, FilePutOutcome, ShardedFileIndex, ShardedShareIndex, ShareLocation,
        StoreOutcome,
    };
    use cdstore_crypto::Fingerprint;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// A fresh store over its own memory backend.
    pub(crate) fn fresh<V>() -> Sharded<V> {
        let backend = Arc::new(cdstore_storage::MemoryBackend::new());
        Sharded::create(backend, "test", KvStoreConfig::default()).unwrap()
    }

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
    fn share_index_round_trip_through_stripes() {
        let index: ShardedShareIndex = fresh();
        for i in 0..500u32 {
            let (_, outcome) = index
                .add_reference_or_store::<()>(&fp(i), (i % 7) as u64, || Ok(loc(i as u64, 100)))
                .unwrap();
            assert_eq!(outcome, StoreOutcome::Stored);
        }
        assert_eq!(index.unique_shares(), 500);
        for i in (0..500u32).step_by(13) {
            assert!(index.location(&fp(i)).is_some());
            let entry = index.lookup(&fp(i)).unwrap();
            assert!(entry.owned_by((i % 7) as u64));
            assert!(!entry.owned_by(99));
        }
        let release = index.remove_reference_with(&fp(0), 0, |_| {}).unwrap();
        assert_eq!(release.location, loc(0, 100));
        assert_eq!(release.total_refs, 0);
        assert_eq!(index.location(&fp(0)), None);
    }

    #[test]
    fn relocate_races_resolve_under_the_stripe_lock() {
        let index: ShardedShareIndex = fresh();
        index
            .add_reference_or_store::<()>(&fp(1), 1, || Ok(loc(10, 8)))
            .unwrap();
        // Two compactors race to move the same share: exactly one wins.
        let winners = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let index = &index;
                    scope.spawn(move || {
                        index.relocate_with(&fp(1), loc(10, 8), loc(100 + t, 8), |_| {})
                    })
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
        assert!(index.add_references_existing_with(&fp(1), 2, 1, |_| {}));
        assert!(!index.add_references_existing_with(&fp(99), 2, 1, |_| {}));
    }

    #[test]
    fn counted_references_land_in_one_observed_step() {
        let index: ShardedShareIndex = fresh();
        index
            .add_reference_or_store::<()>(&fp(1), 1, || Ok(loc(10, 8)))
            .unwrap();
        let mut observed = Vec::new();
        let mut add = |fp: &Fingerprint, user, count| {
            index.add_references_existing_with(fp, user, count, |post| {
                observed.push(post.owners.clone());
            })
        };
        assert!(add(&fp(1), 1, 3));
        assert!(add(&fp(1), 2, 2));
        // Zero references is the existence check: nothing written or observed.
        assert!(add(&fp(1), 3, 0));
        assert!(!add(&fp(99), 1, 0));
        assert!(!add(&fp(99), 1, 2));
        assert_eq!(observed, vec![vec![(1, 4)], vec![(1, 4), (2, 2)]]);
        assert_eq!(index.lookup(&fp(1)).unwrap().owners, vec![(1, 4), (2, 2)]);
        assert_eq!(index.location(&fp(99)), None);
    }

    #[test]
    fn racing_stores_invoke_the_store_action_exactly_once() {
        let index: ShardedShareIndex = fresh();
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
        let index: ShardedShareIndex = fresh();
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
        let index: ShardedFileIndex = fresh();
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
        let put = |version| index.put_if_newer_with(key, entry(version), |_| {});
        assert_eq!(put(5), FilePutOutcome::Written { displaced: None });
        // An out-of-order older version loses...
        assert_eq!(put(4), FilePutOutcome::Stale);
        assert_eq!(index.get(&key).unwrap().version, 5);
        // ...while a newer one wins and reports the entry it displaced.
        assert_eq!(
            put(6),
            FilePutOutcome::Written {
                displaced: Some(entry(5))
            }
        );
        assert_eq!(index.get(&key).unwrap().version, 6);
    }

    #[test]
    fn store_errors_do_not_poison_the_stripe() {
        let index: ShardedShareIndex = fresh();
        let result = index.add_reference_or_store(&fp(1), 1, || Err("backend down"));
        assert_eq!(result, Err("backend down"));
        assert_eq!(index.location(&fp(1)), None);
        // The stripe is still usable afterwards.
        let (_, outcome) = index
            .add_reference_or_store::<()>(&fp(1), 1, || Ok(loc(9, 9)))
            .unwrap();
        assert_eq!(outcome, StoreOutcome::Stored);
    }

    #[test]
    fn file_index_round_trip_through_stripes() {
        let index: ShardedFileIndex = fresh();
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
        let store: ShardedKvStore = fresh();
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
        // The hooks see what is being written, before it is.
        let key = 7u32.to_be_bytes();
        store.put_with(key.to_vec(), b"new".to_vec(), |k, v| {
            assert_eq!((k, v), (&key[..], &b"new"[..]));
        });
        assert_eq!(store.get(&key), Some(b"new".to_vec()));
        let mut observed = false;
        store.delete_with(&key, || observed = true);
        assert!(observed && !store.contains(&key));
        assert_eq!(store.len(), 299);
        assert!(!store.is_empty());
        assert_eq!(store.export().len(), 299);
    }

    /// The checkpoint image of every stripe.
    fn images_of<V>(index: &Sharded<V>) -> [StripeImage; DEFAULT_SHARDS] {
        let mut images = Vec::new();
        index.for_each_stripe(|stripe| {
            let memtable = stripe.memtable();
            images.push(StripeImage {
                runs_written: stripe.runs_written(),
                memtable: memtable
                    .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
                    .collect(),
            })
        });
        images.try_into().unwrap()
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
        // Every stripe has spilled; some hold buffered writes on top.
        for i in (0..200u32).step_by(3) {
            index.remove_reference_with(&fp(i), (i % 5) as u64, |_| {});
        }
        let images = images_of(&index);
        assert!(images.iter().any(|image| image.runs_written > 0));
        assert!(images.iter().any(|image| !image.memtable.is_empty()));
        let expected = index.export();
        drop(index);

        let reopened = ShardedShareIndex::open(backend.clone(), "share", config, images).unwrap();
        assert_eq!(reopened.export(), expected);
        assert_eq!(reopened.unique_shares(), expected.len());
        assert!(reopened.cache_stats().is_some());

        // Blank images ignore what is on the backend, and so does a fresh
        // create of the same name.
        let blank = Default::default();
        let ignored = ShardedShareIndex::open(backend.clone(), "share", config, blank).unwrap();
        assert_eq!(ignored.unique_shares(), 0);
        let fresh = ShardedShareIndex::create(backend, "share", config).unwrap();
        assert_eq!(fresh.unique_shares(), 0);
    }

    #[test]
    fn a_panic_under_a_stripe_lock_stops_that_stripe() {
        use cdstore_storage::{FaultConfig, FaultPlan, FaultyBackend, MemoryBackend};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let plan = Arc::new(FaultPlan::new(FaultConfig::clean(1)));
        let backend = Arc::new(FaultyBackend::new(
            Arc::new(MemoryBackend::new()),
            plan.clone(),
        ));
        let config = KvStoreConfig {
            memtable_capacity: 4,
            ..KvStoreConfig::default()
        };
        let store = ShardedKvStore::create(backend, "kv", config).unwrap();
        let stripe_of = |key: &[u8]| fnv1a(key) as usize & (DEFAULT_SHARDS - 1);
        let victim = b"victim".to_vec();
        let mut same_stripe = (0u32..)
            .map(|i| i.to_be_bytes().to_vec())
            .filter(|key| stripe_of(key) == stripe_of(&victim));
        let other = (0u32..)
            .map(|i| i.to_be_bytes().to_vec())
            .find(|key| stripe_of(key) != stripe_of(&victim))
            .unwrap();
        store.put(other.clone(), b"other".to_vec());
        // The victim and three neighbours fill the memtable: it spills into
        // a run, so reading the victim back goes to the backend.
        store.put(victim.clone(), b"old".to_vec());
        for _ in 0..3 {
            store.put(same_stripe.next().unwrap(), b"x".to_vec());
        }

        // The overwrite reads the old value from the run, fails, and panics
        // while it holds the stripe lock.
        plan.set_outage(true);
        let put = catch_unwind(AssertUnwindSafe(|| {
            store.put(victim.clone(), b"new".to_vec())
        }));
        assert!(put.is_err(), "a failed run read panics");
        plan.set_outage(false);

        // The backend is back, but the stripe stays stopped: the next request
        // on it panics instead of running on whatever the panic left.
        let get = catch_unwind(AssertUnwindSafe(|| store.get(&victim)));
        assert!(get.is_err(), "a poisoned stripe must not serve requests");
        // Other stripes carry on.
        assert_eq!(store.get(&other), Some(b"other".to_vec()));
    }

    #[test]
    fn kv_store_handles_concurrent_writers() {
        let store: ShardedKvStore = fresh();
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
