//! [`ContainerStore`]: the server-side component that buffers shares and
//! recipes into containers, writes sealed containers to the backend, and
//! serves reads through an LRU container cache.
//!
//! The store is designed for concurrent clients: containers are single-user
//! (§4.5), so each user's open containers sit behind their own append lock,
//! container ids come from an atomic counter, and the read cache has its own
//! mutex. Two users appending shares at the same time never contend on a
//! common lock.
//!
//! The store also keeps a *liveness ledger* ([`ContainerUsage`]) per
//! container: every appended blob starts live, and [`ContainerStore::release`]
//! moves its bytes to the dead column when the last reference to the blob is
//! dropped. The ledger is what the garbage collector consults to decide which
//! sealed containers can be deleted outright (no live bytes left) and which
//! are worth compacting (dead ratio above a threshold).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use cdstore_crypto::Fingerprint;

use crate::backend::{StorageBackend, StorageError};
use crate::cache::LruCache;
use crate::container::{Container, ContainerBuilder, ContainerKind};

/// Where a share is physically stored at the cloud backend.
///
/// Defined here, next to the container store that mints locations; the index
/// crate re-exports it (`cdstore_index::ShareLocation`) for the entries that
/// embed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareLocation {
    /// Identifier of the container holding the share.
    pub container_id: u64,
    /// Byte offset of the share inside the container.
    pub offset: u32,
    /// Size of the share in bytes.
    pub size: u32,
}

/// Default size of the container read cache (64 MB, i.e. sixteen 4 MB
/// containers).
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Key prefix of container objects on the backend. Containers share their
/// backend with the metadata journal ([`crate::journal`]); the prefix is
/// what separates the two key families.
pub const CONTAINER_KEY_PREFIX: &str = "container-";

/// The backend object key of a container.
pub fn container_key(container_id: u64) -> String {
    format!("{CONTAINER_KEY_PREFIX}{container_id:016x}")
}

/// Parses a backend object key back into a container id (`None` for
/// non-container objects, e.g. journal segments).
pub fn parse_container_key(key: &str) -> Option<u64> {
    u64::from_str_radix(key.strip_prefix(CONTAINER_KEY_PREFIX)?, 16).ok()
}

/// Liveness accounting for one container: how many of its payload bytes are
/// still referenced (live) and how many have been released (dead).
///
/// Live bytes are added when blobs are appended; [`ContainerStore::release`]
/// moves a blob's bytes from live to dead when its last reference goes. Only
/// *sealed* containers are eligible for reclamation: a fully dead sealed
/// container can be deleted outright, and a sealed share container whose
/// [`ContainerUsage::dead_ratio`] crosses the compaction threshold can have
/// its live blobs rewritten into fresh containers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerUsage {
    /// Whether this is a share or a recipe container.
    pub kind: ContainerKind,
    /// Payload bytes still referenced.
    pub live_bytes: u64,
    /// Payload bytes whose last reference has been released.
    pub dead_bytes: u64,
    /// Whether the container has been sealed and written to the backend.
    pub sealed: bool,
}

impl ContainerUsage {
    fn new(kind: ContainerKind) -> Self {
        ContainerUsage {
            kind,
            live_bytes: 0,
            dead_bytes: 0,
            sealed: false,
        }
    }

    /// Total payload bytes the ledger has accounted for this container.
    pub fn payload_bytes(&self) -> u64 {
        self.live_bytes + self.dead_bytes
    }

    /// Fraction of the payload that is dead (0.0 for an empty container).
    pub fn dead_ratio(&self) -> f64 {
        let total = self.payload_bytes();
        if total == 0 {
            0.0
        } else {
            self.dead_bytes as f64 / total as f64
        }
    }
}

/// One user's open (unsealed) containers: at most one share container and
/// one recipe container at a time (§4.5).
#[derive(Default)]
struct OpenContainers {
    share: Option<ContainerBuilder>,
    recipe: Option<ContainerBuilder>,
}

impl OpenContainers {
    fn slot(&mut self, kind: ContainerKind) -> &mut Option<ContainerBuilder> {
        match kind {
            ContainerKind::Share => &mut self.share,
            ContainerKind::Recipe => &mut self.recipe,
        }
    }

    fn builders(&self) -> impl Iterator<Item = &ContainerBuilder> {
        self.share.iter().chain(self.recipe.iter())
    }
}

/// Manages share and recipe containers on top of a storage backend.
///
/// All methods take `&self`; the store is `Send + Sync` and safe to share
/// across server worker threads.
pub struct ContainerStore {
    backend: Arc<dyn StorageBackend>,
    next_container_id: AtomicU64,
    /// Per-user append locks over the open containers. The outer `RwLock`
    /// only guards the map shape (inserting a new user's entry); appends
    /// take the inner per-user mutex. Idle entries are pruned on `flush`.
    open: RwLock<HashMap<u64, Arc<Mutex<OpenContainers>>>>,
    /// Container id → owning user's entry, for every currently *open*
    /// container, so reads resolve open containers in O(1) instead of
    /// scanning all users. Maintained on builder creation and sealing.
    open_by_id: Mutex<HashMap<u64, Arc<Mutex<OpenContainers>>>>,
    cache: Mutex<LruCache<u64, Container>>,
    /// Per-container liveness accounting (see [`ContainerUsage`]). Entries
    /// are created on the first append, flipped to `sealed` when the
    /// container is written out, and removed when it is deleted.
    ledger: Mutex<HashMap<u64, ContainerUsage>>,
}

/// The blob at `location` within a sealed container's payload.
fn payload_at<'a>(payload: &'a [u8], location: &ShareLocation) -> Option<&'a [u8]> {
    let end = location.offset.checked_add(location.size)? as usize;
    payload.get(location.offset as usize..end)
}

/// Hands `sink` the blob `read` finds at each location, in order, once every
/// one of them is found; `None` (and nothing handed on) if one is not.
fn read_blobs<'a>(
    locations: &[ShareLocation],
    read: impl Fn(&ShareLocation) -> Option<&'a [u8]>,
    sink: impl FnMut(&[u8]),
) -> Option<()> {
    if locations.iter().any(|l| read(l).is_none()) {
        return None;
    }
    locations.iter().filter_map(read).for_each(sink);
    Some(())
}

/// Locks one user's open containers.
fn locked(entry: &Mutex<OpenContainers>) -> MutexGuard<'_, OpenContainers> {
    entry.lock().expect("user containers lock")
}

impl ContainerStore {
    /// Creates a container store over the given backend, with a read cache
    /// of [`DEFAULT_CACHE_BYTES`].
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        ContainerStore {
            backend,
            next_container_id: AtomicU64::new(1),
            open: RwLock::new(HashMap::new()),
            open_by_id: Mutex::new(HashMap::new()),
            cache: Mutex::new(LruCache::new(DEFAULT_CACHE_BYTES)),
            ledger: Mutex::new(HashMap::new()),
        }
    }

    fn open_by_id(&self) -> MutexGuard<'_, HashMap<u64, Arc<Mutex<OpenContainers>>>> {
        self.open_by_id.lock().expect("container id lock")
    }

    fn cache(&self) -> MutexGuard<'_, LruCache<u64, Container>> {
        self.cache.lock().expect("container cache lock")
    }

    fn ledger(&self) -> MutexGuard<'_, HashMap<u64, ContainerUsage>> {
        self.ledger.lock().expect("ledger lock")
    }

    fn object_key(container_id: u64) -> String {
        container_key(container_id)
    }

    /// Returns the user's open-container entry, creating it if needed.
    fn user_entry(&self, user: u64) -> Arc<Mutex<OpenContainers>> {
        if let Some(entry) = self.open.read().expect("open containers lock").get(&user) {
            return entry.clone();
        }
        let mut open = self.open.write().expect("open containers lock");
        open.entry(user).or_default().clone()
    }

    /// Every user's open containers, in user order, not HashMap order: a
    /// seeded fault-injection replay must see the identical backend op
    /// sequence on every run.
    fn open_entries(&self) -> Vec<Arc<Mutex<OpenContainers>>> {
        let open = self.open.read().expect("open containers lock");
        let mut entries: Vec<_> = open.iter().collect();
        entries.sort_by_key(|(user, _)| **user);
        entries
            .into_iter()
            .map(|(_, entry)| entry.clone())
            .collect()
    }

    /// Appends a share to the user's open share container, returning where it
    /// will live. The open container is sealed and written out when it
    /// reaches the 4 MB cap.
    pub fn store_share(
        &self,
        user: u64,
        fingerprint: Fingerprint,
        data: &[u8],
    ) -> Result<ShareLocation, StorageError> {
        self.store_blob(user, fingerprint, data, ContainerKind::Share)
    }

    /// Appends a file recipe to the user's open recipe container, returning
    /// its location.
    pub fn store_recipe(
        &self,
        user: u64,
        fingerprint: Fingerprint,
        data: &[u8],
    ) -> Result<ShareLocation, StorageError> {
        self.store_blob(user, fingerprint, data, ContainerKind::Recipe)
    }

    fn store_blob(
        &self,
        user: u64,
        fingerprint: Fingerprint,
        data: &[u8],
        kind: ContainerKind,
    ) -> Result<ShareLocation, StorageError> {
        let entry = self.user_entry(user);
        let mut open = locked(&entry);
        let slot = open.slot(kind);
        // Seal the open container first if this blob would overflow it.
        if slot
            .as_ref()
            .map(|b| b.would_overflow(data.len()))
            .unwrap_or(false)
        {
            self.seal_slot(slot)?;
        }
        let builder = open.slot(kind).get_or_insert_with(|| {
            let id = self.next_container_id.fetch_add(1, Ordering::Relaxed);
            self.open_by_id().insert(id, entry.clone());
            ContainerBuilder::new(id, user, kind)
        });
        let offset = builder.append(fingerprint, data);
        let id = builder.id();
        self.ledger()
            .entry(id)
            .or_insert_with(|| ContainerUsage::new(kind))
            .live_bytes += data.len() as u64;
        Ok(ShareLocation {
            container_id: id,
            offset,
            size: data.len() as u32,
        })
    }

    /// Seals the builder in `slot` (if any) and writes it to the backend and
    /// the read cache, which share its one payload buffer. On success the
    /// slot is left empty; if the backend write fails the builder is put
    /// back, so blobs whose locations were already handed out stay readable
    /// from the open buffer and the next seal attempt (overflow or flush)
    /// retries the write.
    fn seal_slot(&self, slot: &mut Option<ContainerBuilder>) -> Result<(), StorageError> {
        let Some(builder) = slot.take() else {
            return Ok(());
        };
        let id = builder.id();
        if builder.is_empty() {
            self.open_by_id().remove(&id);
            self.ledger().remove(&id);
            return Ok(());
        }
        let container = builder.seal();
        // Header and payload go to the backend as two parts: the object is
        // byte-identical to `to_bytes()`, and the payload is handed over as
        // the `Arc` the cache keeps below, never copied.
        let header = container.header_bytes();
        if let Err(e) = self
            .backend
            .put_shared(&Self::object_key(id), &header, &container.payload)
        {
            *slot = Some(container.reopen());
            return Err(e);
        }
        let size = container.payload_size();
        self.cache().put(id, container, size);
        if let Some(usage) = self.ledger().get_mut(&id) {
            usage.sealed = true;
        }
        // Deregister only after the write landed: a reader racing the seal
        // still resolves the id through `open_by_id`, blocks on the user's
        // entry lock, misses the builder, and falls through to the cache
        // populated above — never to a backend miss.
        self.open_by_id().remove(&id);
        Ok(())
    }

    /// Seals and writes every open container (share and recipe) of every
    /// user, then prunes idle per-user entries so a long-lived server does
    /// not accumulate one entry per user ever seen.
    pub fn flush(&self) -> Result<(), StorageError> {
        for entry in self.open_entries() {
            let mut open = locked(&entry);
            self.seal_slot(&mut open.share)?;
            self.seal_slot(&mut open.recipe)?;
        }
        // Keep only entries some thread still holds (an appender racing past
        // the seal loop above — its builder registration also keeps a clone
        // in `open_by_id`) or that still buffer data.
        self.open
            .write()
            .expect("open containers lock")
            .retain(|_, entry| {
                Arc::strong_count(entry) > 1 || locked(entry).builders().count() > 0
            });
        Ok(())
    }

    /// Seals only the open containers that already carry *dead* bytes — the
    /// ones a garbage-collection pass could go on to reclaim. Unlike
    /// [`ContainerStore::flush`], this leaves other users' in-progress
    /// containers open, so periodic vacuums do not fragment active backup
    /// streams into under-filled containers.
    pub fn flush_dead(&self) -> Result<(), StorageError> {
        for entry in self.open_entries() {
            let mut open = locked(&entry);
            for kind in [ContainerKind::Share, ContainerKind::Recipe] {
                let slot = open.slot(kind);
                let Some(builder) = slot.as_ref() else {
                    continue;
                };
                let id = builder.id();
                let Some(usage) = self.ledger().get(&id).copied() else {
                    continue;
                };
                if usage.dead_bytes == 0 {
                    continue;
                }
                if usage.live_bytes == 0 {
                    // Every blob is already dead: discard the buffer without
                    // ever writing it to the backend (nothing references it).
                    self.open_by_id().remove(&id);
                    self.ledger().remove(&id);
                    *slot = None;
                } else {
                    self.seal_slot(slot)?;
                }
            }
        }
        Ok(())
    }

    /// Seals the open container with the given id, if it is still open (a
    /// no-op otherwise). Used by compaction to make the fresh containers it
    /// rewrote live shares into durable without disturbing unrelated users'
    /// open containers.
    pub fn seal_open_container(&self, container_id: u64) -> Result<(), StorageError> {
        let Some(entry) = self.open_by_id().get(&container_id).cloned() else {
            return Ok(());
        };
        let mut open = locked(&entry);
        for kind in [ContainerKind::Share, ContainerKind::Recipe] {
            let slot = open.slot(kind);
            if slot
                .as_ref()
                .map(|b| b.id() == container_id)
                .unwrap_or(false)
            {
                return self.seal_slot(slot);
            }
        }
        Ok(())
    }

    /// Runs `read` against the open container with the given id, if it is
    /// still open. O(1): resolved through the container-id index rather than
    /// a scan over all users; the builder is read in place under the owning
    /// user's entry lock, never cloned.
    fn with_open_container<R>(
        &self,
        container_id: u64,
        read: impl FnOnce(&ContainerBuilder) -> R,
    ) -> Option<R> {
        // Clone the entry out of the id index before locking it, so this
        // read path never holds both locks at once.
        let entry = self.open_by_id().get(&container_id).cloned()?;
        let open = locked(&entry);
        // The builder may have been sealed between the two locks; the caller
        // then falls through to the cache/backend, where the seal landed it.
        let found = open.builders().find(|b| b.id() == container_id).map(read);
        found
    }

    /// Reads the blob at a share location (from the open buffers, the cache,
    /// or the backend — in that order).
    pub fn fetch(&self, location: &ShareLocation) -> Result<Vec<u8>, StorageError> {
        let mut blob = Vec::new();
        self.fetch_run(std::slice::from_ref(location), |b| blob = b.to_vec())?;
        Ok(blob)
    }

    /// Reads the blobs at `locations`, which must all lie in one container,
    /// and hands each to `sink` in order: every blob or, if one lies outside
    /// the container (an error), none. The container is found once for the
    /// whole run — in the open buffers (read under its user's lock), the
    /// cache (its payload is shared out of the cache lock and read outside
    /// it) or the backend, in that order.
    pub fn fetch_run(
        &self,
        locations: &[ShareLocation],
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), StorageError> {
        let Some(first) = locations.first() else {
            return Ok(());
        };
        let id = first.container_id;
        assert!(
            locations.iter().all(|l| l.container_id == id),
            "a run of locations lies in one container"
        );
        let corrupt = || StorageError::Corrupt(format!("container {id} misses offset"));
        // 1. Open (unsealed) containers: copy out just the run's blobs.
        let open = self.with_open_container(id, |builder| {
            read_blobs(locations, |l| builder.get_at(l.offset, l.size), &mut sink)
        });
        if let Some(found) = open {
            return found.ok_or_else(corrupt);
        }
        // 2. The LRU cache.
        let cached = self.cache().get(&id).map(|c| Arc::clone(&c.payload));
        let payload = match cached {
            Some(payload) => payload,
            // 3. The backend, once for the whole run.
            None => {
                let key = Self::object_key(id);
                let bytes = self.backend.get(&key)?;
                let container = Container::from_bytes(&bytes).ok_or(StorageError::Corrupt(key))?;
                let payload = Arc::clone(&container.payload);
                let size = container.payload_size();
                self.cache().put(id, container, size);
                payload
            }
        };
        read_blobs(locations, |l| payload_at(&payload, l), sink).ok_or_else(corrupt)
    }

    /// Reads a whole container by id (used by repair and garbage collection).
    /// A cached container is returned as a clone that shares its payload.
    pub fn fetch_container(&self, container_id: u64) -> Result<Container, StorageError> {
        // Whole-container reads (repair/GC) are the one case that really
        // needs a sealed snapshot of the open buffer.
        if let Some(container) = self.with_open_container(container_id, |b| b.clone().seal()) {
            return Ok(container);
        }
        if let Some(container) = self.cache().get(&container_id) {
            return Ok(container.clone());
        }
        let key = Self::object_key(container_id);
        let bytes = self.backend.get(&key)?;
        Container::from_bytes(&bytes).ok_or(StorageError::Corrupt(key))
    }

    /// Deletes a sealed container from the backend (garbage collection) and
    /// drops its ledger entry.
    pub fn delete_container(&self, container_id: u64) -> Result<(), StorageError> {
        self.cache().remove(&container_id);
        self.ledger().remove(&container_id);
        self.backend.delete(&Self::object_key(container_id))
    }

    /// Marks the blob at `location` dead: its last reference was dropped, so
    /// its bytes move from the container's live column to its dead column.
    /// Tolerant of unknown container ids (the container may already have been
    /// reclaimed by a concurrent vacuum).
    pub fn release(&self, location: &ShareLocation) {
        if let Some(usage) = self.ledger().get_mut(&location.container_id) {
            let bytes = location.size as u64;
            usage.live_bytes = usage.live_bytes.saturating_sub(bytes);
            usage.dead_bytes += bytes;
        }
    }

    /// The liveness ledger entry of one container, if tracked.
    pub fn container_usage(&self, container_id: u64) -> Option<ContainerUsage> {
        self.ledger().get(&container_id).copied()
    }

    /// Snapshot of every *sealed* container's liveness accounting — the
    /// candidate set a garbage-collection pass works from.
    pub fn sealed_usages(&self) -> Vec<(u64, ContainerUsage)> {
        self.ledger()
            .iter()
            .filter(|(_, usage)| usage.sealed)
            .map(|(&id, &usage)| (id, usage))
            .collect()
    }

    /// Container bytes currently stored at the backend. Journal objects
    /// (checkpoints, WAL segments) share the backend but are bookkeeping,
    /// not payload, so they are excluded here.
    pub fn backend_bytes(&self) -> Result<u64, StorageError> {
        let mut total = 0u64;
        for key in self.backend.list()? {
            if parse_container_key(&key).is_some() {
                total += self.backend.object_size(&key)?;
            }
        }
        Ok(total)
    }

    /// The storage backend this store writes to (shared with the metadata
    /// journal, and the handle recovery re-opens a server from).
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        self.backend.clone()
    }

    /// Size in bytes of a sealed container's backend object (header framing
    /// included). Recovery's ledger rebuild uses it to bound a container's
    /// dead bytes without downloading its payload.
    pub fn backend_container_size(&self, container_id: u64) -> Result<u64, StorageError> {
        self.backend.object_size(&Self::object_key(container_id))
    }

    /// The ids of every container object present on the backend — the
    /// starting point of the recovery container scan. All of them are
    /// sealed: open containers live only in memory.
    pub fn backend_container_ids(&self) -> Result<Vec<u64>, StorageError> {
        Ok(self
            .backend
            .list()?
            .iter()
            .filter_map(|k| parse_container_key(k))
            .collect())
    }

    /// Replaces the liveness ledger with recovered accounting (used by
    /// server recovery after it has cross-checked the rebuilt indices
    /// against the sealed container headers).
    pub fn restore_ledger(&self, entries: impl IntoIterator<Item = (u64, ContainerUsage)>) {
        let mut ledger = self.ledger();
        ledger.clear();
        ledger.extend(entries);
    }

    /// Raises the container-id allocator to at least `floor`, so containers
    /// created after a recovery never collide with ids already present on
    /// the backend or referenced by the recovered indices.
    pub fn bump_next_container_id(&self, floor: u64) {
        self.next_container_id.fetch_max(floor, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::container::CONTAINER_CAPACITY;
    use crate::fault::{FaultConfig, FaultPlan, FaultyBackend};

    fn fp(i: u32) -> Fingerprint {
        Fingerprint::of(&i.to_be_bytes())
    }

    fn new_store() -> (ContainerStore, Arc<MemoryBackend>) {
        let backend = Arc::new(MemoryBackend::new());
        (ContainerStore::new(backend.clone()), backend)
    }

    /// A store over a clean [`FaultyBackend`], whose plan ticks once for
    /// every call that reaches the backend, and the memory behind it. A
    /// second `ContainerStore::new(store.backend())` is a cold store over the
    /// same counted backend.
    fn counted_store() -> (ContainerStore, Arc<MemoryBackend>, Arc<FaultPlan>) {
        let memory = Arc::new(MemoryBackend::new());
        let plan = Arc::new(FaultPlan::new(FaultConfig::clean(0)));
        let backend = FaultyBackend::new(memory.clone(), plan.clone());
        (ContainerStore::new(Arc::new(backend)), memory, plan)
    }

    #[test]
    fn store_and_fetch_from_open_buffer() {
        let (store, memory, plan) = counted_store();
        let loc = store.store_share(1, fp(1), b"buffered share").unwrap();
        // Not yet written to the backend, and read without a backend call.
        assert_eq!(memory.object_count(), 0);
        assert_eq!(store.fetch(&loc).unwrap(), b"buffered share");
        assert_eq!(plan.ticks(), 0);
    }

    #[test]
    fn flush_writes_containers_and_fetch_uses_cache_then_backend() {
        let (store, memory, plan) = counted_store();
        let loc = store.store_share(1, fp(1), b"first").unwrap();
        let loc2 = store.store_share(1, fp(2), b"second").unwrap();
        assert_eq!(loc.container_id, loc2.container_id);
        store.flush().unwrap();
        assert_eq!(memory.object_count(), 1);
        // First fetch after flush hits the cache (the seal populated it).
        let calls = plan.ticks();
        assert_eq!(store.fetch(&loc).unwrap(), b"first");
        assert_eq!(plan.ticks(), calls);
        // A store with an empty cache goes to the backend, once.
        let cold = ContainerStore::new(store.backend());
        assert_eq!(cold.fetch(&loc2).unwrap(), b"second");
        assert_eq!(plan.ticks(), calls + 1);
        // And the second read of the same container is a cache hit.
        assert_eq!(cold.fetch(&loc).unwrap(), b"first");
        assert_eq!(plan.ticks(), calls + 1);
    }

    /// A run is read from wherever its container is — open, cached or only
    /// on the backend, with one backend call for the whole run — and hands
    /// on every blob or, when one lies outside the container, none.
    #[test]
    fn a_run_reads_its_container_once_and_counts_each_blob() {
        let (store, _, plan) = counted_store();
        let blobs: [&[u8]; 3] = [b"one", b"two", b"three"];
        let run: Vec<ShareLocation> = (0..3)
            .map(|i| store.store_share(1, fp(i), blobs[i as usize]).unwrap())
            .collect();
        let read = |store: &ContainerStore, run: &[ShareLocation]| {
            let mut out = Vec::new();
            store.fetch_run(run, |b| out.push(b.to_vec())).map(|()| out)
        };
        assert_eq!(read(&store, &run).unwrap(), blobs);
        assert_eq!(plan.ticks(), 0, "the open container serves the run");
        store.flush().unwrap();
        let calls = plan.ticks();
        assert_eq!(read(&store, &run).unwrap(), blobs);
        assert_eq!(plan.ticks(), calls, "the cache serves the run");
        let cold = ContainerStore::new(store.backend());
        assert_eq!(read(&cold, &run).unwrap(), blobs);
        assert_eq!(plan.ticks(), calls + 1, "one backend read for the run");

        let past_end = ShareLocation {
            offset: 1 << 20,
            ..run[1]
        };
        for store in [&store, &cold] {
            let mut handed = 0;
            let err = store.fetch_run(&[run[0], past_end], |_| handed += 1);
            assert!(matches!(err, Err(StorageError::Corrupt(_))), "{err:?}");
            assert_eq!(handed, 0);
        }
    }

    #[test]
    fn containers_seal_automatically_at_capacity() {
        let (store, backend) = new_store();
        let blob = vec![0xaau8; 1024 * 1024]; // 1 MB
        let mut container_ids = std::collections::HashSet::new();
        for i in 0..9u32 {
            let loc = store.store_share(1, fp(i), &blob).unwrap();
            container_ids.insert(loc.container_id);
        }
        // 9 MB of shares at a 4 MB cap: at least three containers, at least
        // two of which were sealed and written out automatically.
        assert!(container_ids.len() >= 3);
        assert!(backend.object_count() >= 2);
        assert!(backend.total_bytes().unwrap() >= 2 * CONTAINER_CAPACITY as u64);
    }

    #[test]
    fn containers_are_per_user() {
        let (store, _) = new_store();
        let loc_a = store.store_share(1, fp(1), b"user1 data").unwrap();
        let loc_b = store.store_share(2, fp(2), b"user2 data").unwrap();
        assert_ne!(loc_a.container_id, loc_b.container_id);
    }

    #[test]
    fn recipes_and_shares_use_separate_containers() {
        let (store, _) = new_store();
        let share_loc = store.store_share(1, fp(1), b"share").unwrap();
        let recipe_loc = store.store_recipe(1, fp(2), b"recipe").unwrap();
        assert_ne!(share_loc.container_id, recipe_loc.container_id);
        assert_eq!(store.fetch(&recipe_loc).unwrap(), b"recipe");
    }

    #[test]
    fn fetch_missing_container_fails() {
        let (store, _) = new_store();
        let bogus = ShareLocation {
            container_id: 999,
            offset: 0,
            size: 4,
        };
        assert!(matches!(
            store.fetch(&bogus),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn delete_container_removes_backend_object() {
        let (store, backend) = new_store();
        let loc = store.store_share(1, fp(1), b"to be deleted").unwrap();
        store.flush().unwrap();
        assert_eq!(backend.object_count(), 1);
        store.delete_container(loc.container_id).unwrap();
        assert_eq!(backend.object_count(), 0);
        assert!(store.fetch(&loc).is_err());
    }

    #[test]
    fn fetch_container_returns_all_entries() {
        let (store, _) = new_store();
        let loc = store.store_share(3, fp(1), b"a").unwrap();
        store.store_share(3, fp(2), b"bb").unwrap();
        store.flush().unwrap();
        let container = store.fetch_container(loc.container_id).unwrap();
        assert_eq!(container.entry_count(), 2);
        assert_eq!(container.get(&fp(2)).unwrap(), b"bb");
    }

    /// A backend whose writes can be made to fail on demand.
    struct FlakyBackend {
        inner: MemoryBackend,
        fail_puts: std::sync::atomic::AtomicBool,
    }

    impl FlakyBackend {
        fn set_failing(&self, failing: bool) {
            self.fail_puts
                .store(failing, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl crate::backend::StorageBackend for FlakyBackend {
        fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
            if self.fail_puts.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(StorageError::Io(std::io::Error::other("disk full")));
            }
            self.inner.put(key, data)
        }

        fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
            self.inner.get(key)
        }

        fn delete(&self, key: &str) -> Result<(), StorageError> {
            self.inner.delete(key)
        }

        fn exists(&self, key: &str) -> Result<bool, StorageError> {
            self.inner.exists(key)
        }

        fn list(&self) -> Result<Vec<String>, StorageError> {
            self.inner.list()
        }
    }

    #[test]
    fn failed_seal_keeps_buffered_blobs_readable_and_retries() {
        let backend = Arc::new(FlakyBackend {
            inner: MemoryBackend::new(),
            fail_puts: std::sync::atomic::AtomicBool::new(false),
        });
        let store = ContainerStore::new(backend.clone());
        let loc = store.store_share(1, fp(1), b"already indexed").unwrap();

        // The backend starts failing; an overflowing append cannot seal.
        backend.set_failing(true);
        let big = vec![0u8; CONTAINER_CAPACITY];
        assert!(store.store_share(1, fp(2), &big).is_err());
        assert!(store.flush().is_err());
        // The previously returned location still reads from the open buffer:
        // a failed seal must not drop blobs the share index already points at.
        assert_eq!(store.fetch(&loc).unwrap(), b"already indexed");

        // Once the backend recovers, the seal retries and everything lands.
        backend.set_failing(false);
        store.flush().unwrap();
        assert_eq!(store.fetch(&loc).unwrap(), b"already indexed");
        assert!(backend.inner.object_count() >= 1);
    }

    #[test]
    fn flush_prunes_idle_user_entries() {
        let (store, _) = new_store();
        store.store_share(1, fp(1), b"x").unwrap();
        store.store_share(2, fp(2), b"y").unwrap();
        assert_eq!(store.open.read().expect("open containers lock").len(), 2);
        assert_eq!(store.open_by_id().len(), 2);
        store.flush().unwrap();
        assert_eq!(
            store.open.read().expect("open containers lock").len(),
            0,
            "idle user entries are pruned"
        );
        assert!(store.open_by_id().is_empty());
        // The store keeps working after pruning.
        let loc = store.store_share(1, fp(3), b"z").unwrap();
        assert_eq!(store.fetch(&loc).unwrap(), b"z");
        assert_eq!(store.open_by_id().len(), 1);
    }

    #[test]
    fn concurrent_appenders_get_disjoint_locations() {
        let (store, _) = new_store();
        let users = 4u64;
        let per_user = 200u32;
        let locations = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..users)
                .map(|user| {
                    let store = &store;
                    scope.spawn(move || {
                        (0..per_user)
                            .map(|i| {
                                let data = vec![user as u8; 1000 + i as usize];
                                let loc = store
                                    .store_share(user, fp(user as u32 * 1000 + i), &data)
                                    .unwrap();
                                (loc, data)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        // Every blob reads back exactly, before and after flush.
        for (loc, data) in &locations {
            assert_eq!(&store.fetch(loc).unwrap(), data);
        }
        store.flush().unwrap();
        for (loc, data) in &locations {
            assert_eq!(&store.fetch(loc).unwrap(), data);
        }
        // Container ids are unique per (container, offset) location.
        let mut seen = std::collections::HashSet::new();
        for (loc, _) in &locations {
            assert!(seen.insert((loc.container_id, loc.offset)));
        }
    }

    #[test]
    fn ledger_tracks_live_dead_and_sealed_state() {
        let (store, _) = new_store();
        let loc_a = store.store_share(1, fp(1), &vec![1u8; 600]).unwrap();
        let loc_b = store.store_share(1, fp(2), &vec![2u8; 400]).unwrap();
        assert_eq!(loc_a.container_id, loc_b.container_id);
        let usage = store.container_usage(loc_a.container_id).unwrap();
        assert_eq!(usage.kind, ContainerKind::Share);
        assert_eq!(usage.live_bytes, 1000);
        assert_eq!(usage.dead_bytes, 0);
        assert!(!usage.sealed);
        // Not sealed yet, so not a reclamation candidate.
        assert!(store.sealed_usages().is_empty());

        store.flush().unwrap();
        let usage = store.container_usage(loc_a.container_id).unwrap();
        assert!(usage.sealed);
        assert_eq!(store.sealed_usages(), vec![(loc_a.container_id, usage)]);

        // Releasing one blob moves its bytes to the dead column.
        store.release(&loc_a);
        let usage = store.container_usage(loc_a.container_id).unwrap();
        assert_eq!(usage.live_bytes, 400);
        assert_eq!(usage.dead_bytes, 600);
        assert!((usage.dead_ratio() - 0.6).abs() < 1e-9);

        // Releasing the rest makes it fully dead.
        store.release(&loc_b);
        let usage = store.container_usage(loc_a.container_id).unwrap();
        assert_eq!(usage.live_bytes, 0);
        assert!((usage.dead_ratio() - 1.0).abs() < 1e-9);

        // Deleting the container drops the ledger entry; further releases on
        // the dead id are no-ops.
        store.delete_container(loc_a.container_id).unwrap();
        assert!(store.container_usage(loc_a.container_id).is_none());
        store.release(&loc_a);
        assert!(store.ledger().is_empty());
    }

    #[test]
    fn ledger_separates_share_and_recipe_containers() {
        let (store, _) = new_store();
        let share = store.store_share(1, fp(1), &[0u8; 100]).unwrap();
        let recipe = store.store_recipe(1, fp(2), &[0u8; 50]).unwrap();
        assert_eq!(
            store.container_usage(share.container_id).unwrap().kind,
            ContainerKind::Share
        );
        assert_eq!(
            store.container_usage(recipe.container_id).unwrap().kind,
            ContainerKind::Recipe
        );
        for (location, live) in [(share, 100), (recipe, 50)] {
            let usage = store.container_usage(location.container_id).unwrap();
            assert_eq!((usage.live_bytes, usage.dead_bytes), (live, 0));
        }
        assert_eq!(store.ledger().len(), 2);
    }

    #[test]
    fn flush_dead_seals_only_containers_with_dead_bytes() {
        let (store, backend) = new_store();
        let dying = store.store_share(1, fp(1), &[1u8; 100]).unwrap();
        let surviving = store.store_share(1, fp(2), &[2u8; 50]).unwrap();
        assert_eq!(dying.container_id, surviving.container_id);
        let clean = store.store_share(2, fp(3), &[3u8; 70]).unwrap();
        store.release(&dying);

        store.flush_dead().unwrap();
        // User 1's container carried dead bytes (and a live blob): sealed.
        assert!(store.container_usage(dying.container_id).unwrap().sealed);
        assert_eq!(store.fetch(&surviving).unwrap(), vec![2u8; 50]);
        // User 2's clean in-progress container stayed open and unwritten.
        assert!(!store.container_usage(clean.container_id).unwrap().sealed);
        assert_eq!(backend.object_count(), 1);

        // A fully dead open container is discarded without a backend write.
        let doomed = store.store_share(3, fp(4), &[4u8; 40]).unwrap();
        store.release(&doomed);
        store.flush_dead().unwrap();
        assert!(store.container_usage(doomed.container_id).is_none());
        assert_eq!(backend.object_count(), 1);
        assert!(store.fetch(&doomed).is_err());

        // seal_open_container seals exactly the requested container.
        store.seal_open_container(clean.container_id).unwrap();
        assert!(store.container_usage(clean.container_id).unwrap().sealed);
        assert_eq!(store.fetch(&clean).unwrap(), vec![3u8; 70]);
        // Sealing an id that is no longer open is a no-op.
        store.seal_open_container(clean.container_id).unwrap();
        store.seal_open_container(9999).unwrap();
    }

    #[test]
    fn discarded_empty_builders_leave_no_ledger_entry() {
        let (store, _) = new_store();
        store.store_share(1, fp(1), b"x").unwrap();
        store.flush().unwrap();
        // Flush again: no open builders, ledger must not grow.
        store.flush().unwrap();
        assert_eq!(store.ledger().len(), 1);
    }

    #[test]
    fn corrupt_backend_object_is_reported() {
        let (store, backend) = new_store();
        let loc = store.store_share(1, fp(1), b"soon corrupt").unwrap();
        store.flush().unwrap();
        let key = ContainerStore::object_key(loc.container_id);
        // Flip the magic and the blob's first payload byte.
        let payload_at = backend.get(&key).unwrap().len() - b"soon corrupt".len();
        backend.corrupt(&key, 0).unwrap();
        backend.corrupt(&key, payload_at).unwrap();
        // The warm cache shares the sealed payload with the backend object,
        // and the flips copied the object first: it still serves the
        // stored bytes, which the backend object no longer holds.
        assert_eq!(store.fetch(&loc).unwrap(), b"soon corrupt");
        let cold = ContainerStore::new(backend);
        assert!(matches!(cold.fetch(&loc), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn the_cache_and_the_backend_object_share_one_payload() {
        let (store, _) = new_store();
        let loc = store.store_share(1, fp(1), &[9u8; 3000]).unwrap();
        store.flush().unwrap();
        let container = store.fetch_container(loc.container_id).unwrap();
        // This clone, the cache entry and the backend object: one buffer.
        assert_eq!(Arc::strong_count(&container.payload), 3);
        store.delete_container(loc.container_id).unwrap();
        assert_eq!(Arc::strong_count(&container.payload), 1);
    }
}
