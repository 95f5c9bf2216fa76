//! The share index: fingerprint → container location, owners, and refcounts.
//!
//! The share index "holds the entries for all unique shares of different
//! files. Each entry describes a share, and is keyed by the share
//! fingerprint. It stores the reference to the container that holds the
//! share. To support intra-user deduplication, each entry also holds a list
//! of user identifiers to distinguish who owns the share, as well as a
//! reference count for each user to support deletion." (§4.4)

use std::sync::Arc;

use cdstore_crypto::Fingerprint;
use cdstore_storage::{StorageBackend, StorageError};

use crate::kvstore::{BlockCacheStats, KvStore, KvStoreConfig};

pub use cdstore_storage::ShareLocation;

/// One share-index entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareEntry {
    /// Physical location of the unique copy of the share.
    pub location: ShareLocation,
    /// Owning users and their per-user reference counts.
    pub owners: Vec<(u64, u32)>,
}

impl ShareEntry {
    /// Total references across all users.
    pub fn total_refs(&self) -> u64 {
        self.owners.iter().map(|(_, c)| *c as u64).sum()
    }

    /// Whether the given user owns at least one reference.
    pub fn owned_by(&self, user: u64) -> bool {
        self.owners.iter().any(|(u, c)| *u == user && *c > 0)
    }

    /// Serialises the entry (the journal/checkpoint wire format — identical
    /// to the in-store representation).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    /// Parses an entry serialised by [`ShareEntry::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<ShareEntry> {
        Self::decode(bytes)
    }

    /// Appends the serialised entry ([`ShareEntry::to_bytes`]) to `out` —
    /// the journal encodes records in place through this.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(20 + 12 * self.owners.len());
        out.extend_from_slice(&self.location.container_id.to_be_bytes());
        out.extend_from_slice(&self.location.offset.to_be_bytes());
        out.extend_from_slice(&self.location.size.to_be_bytes());
        out.extend_from_slice(&(self.owners.len() as u32).to_be_bytes());
        for (user, count) in &self.owners {
            out.extend_from_slice(&user.to_be_bytes());
            out.extend_from_slice(&count.to_be_bytes());
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Option<ShareEntry> {
        if bytes.len() < 20 {
            return None;
        }
        let container_id = u64::from_be_bytes(bytes[0..8].try_into().ok()?);
        let offset = u32::from_be_bytes(bytes[8..12].try_into().ok()?);
        let size = u32::from_be_bytes(bytes[12..16].try_into().ok()?);
        let count = u32::from_be_bytes(bytes[16..20].try_into().ok()?) as usize;
        if bytes.len() != 20 + count * 12 {
            return None;
        }
        let mut owners = Vec::with_capacity(count);
        for i in 0..count {
            let base = 20 + i * 12;
            let user = u64::from_be_bytes(bytes[base..base + 8].try_into().ok()?);
            let refs = u32::from_be_bytes(bytes[base + 8..base + 12].try_into().ok()?);
            owners.push((user, refs));
        }
        Some(ShareEntry {
            location: ShareLocation {
                container_id,
                offset,
                size,
            },
            owners,
        })
    }
}

/// Outcome of recording a share upload in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareAddOutcome {
    /// The share was not yet stored: the caller must write it to a container.
    NewShare,
    /// The share already exists; only the reference bookkeeping changed
    /// (inter-user deduplication hit).
    Duplicate,
}

/// The result of dropping one reference with
/// [`ShareIndex::remove_reference`]: where the unique copy lives and how many
/// references remain, so the caller can drive the rest of the reclamation
/// protocol (tear down per-user ownership mappings when `user_refs` hits
/// zero, release the container bytes when `total_refs` hits zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseReport {
    /// Physical location of the share's unique copy.
    pub location: ShareLocation,
    /// References the releasing user still holds after the decrement.
    pub user_refs: u32,
    /// References remaining across all users after the decrement. Zero means
    /// the entry was removed from the index and the share is now dead.
    pub total_refs: u64,
}

/// The per-server share index backed by the LSM store.
pub struct ShareIndex {
    store: KvStore,
}

impl Default for ShareIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ShareIndex {
    /// Creates an empty share index.
    pub fn new() -> Self {
        ShareIndex {
            store: KvStore::new(),
        }
    }

    /// Creates a share index with an explicit store configuration.
    pub fn with_config(config: KvStoreConfig) -> Self {
        ShareIndex {
            store: KvStore::with_config(config),
        }
    }

    /// Creates a *fresh* disk-backed share index named `name` on the
    /// backend, discarding any previous incarnation of the same name.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShareIndex {
            store: KvStore::create(backend, name, config)?,
        })
    }

    /// Opens the disk-backed share index previously persisted under `name`,
    /// resuming the runs its manifest describes.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        name: &str,
        config: KvStoreConfig,
    ) -> Result<Self, StorageError> {
        Ok(ShareIndex {
            store: KvStore::open(backend, name, config)?,
        })
    }

    /// Freezes buffered writes into a durable run (disk mode; a cheap no-op
    /// when the write buffer is empty).
    pub fn flush_runs(&mut self) -> Result<(), StorageError> {
        self.store.try_flush()
    }

    /// Whether index runs spill to a storage backend.
    pub fn is_disk_backed(&self) -> bool {
        self.store.is_disk_backed()
    }

    /// Block-cache counters (`None` in memory mode).
    pub fn cache_stats(&self) -> Option<BlockCacheStats> {
        self.store.cache_stats()
    }

    /// Looks up the entry for a share fingerprint.
    pub fn lookup(&mut self, fp: &Fingerprint) -> Option<ShareEntry> {
        self.store
            .get(fp.as_bytes())
            .and_then(|bytes| ShareEntry::decode(&bytes))
    }

    /// Whether a share with this fingerprint is already stored (the
    /// inter-user deduplication test).
    pub fn is_stored(&mut self, fp: &Fingerprint) -> bool {
        self.lookup(fp).is_some()
    }

    /// Whether the given user already owns the share (the intra-user
    /// deduplication test answered on behalf of a client).
    pub fn user_owns(&mut self, fp: &Fingerprint, user: u64) -> bool {
        self.lookup(fp).map(|e| e.owned_by(user)).unwrap_or(false)
    }

    /// For a batch of fingerprints, returns which ones the user has already
    /// uploaded (the reply to a client's intra-user dedup query, §3.3).
    pub fn filter_user_duplicates(&mut self, user: u64, fps: &[Fingerprint]) -> Vec<bool> {
        fps.iter().map(|fp| self.user_owns(fp, user)).collect()
    }

    /// Records that `user` references the share. If the share is new, the
    /// provided `location` is stored and [`ShareAddOutcome::NewShare`] is
    /// returned; otherwise the existing location is kept and the user's
    /// reference count is incremented.
    pub fn add_reference(
        &mut self,
        fp: &Fingerprint,
        location: ShareLocation,
        user: u64,
    ) -> ShareAddOutcome {
        match self.lookup(fp) {
            Some(mut entry) => {
                self.add_references_to_entry(fp, &mut entry, user, 1);
                ShareAddOutcome::Duplicate
            }
            None => {
                self.insert_new(fp, location, user);
                ShareAddOutcome::NewShare
            }
        }
    }

    /// Like [`ShareIndex::add_reference`] for a share known to exist, for
    /// callers that already hold the decoded entry from a lookup: gives
    /// `user` `count` more references in the entry's owner list in place and
    /// writes it back without re-reading the store.
    pub fn add_references_to_entry(
        &mut self,
        fp: &Fingerprint,
        entry: &mut ShareEntry,
        user: u64,
        count: u32,
    ) {
        match entry.owners.iter_mut().find(|(u, _)| *u == user) {
            Some((_, held)) => *held += count,
            None => entry.owners.push((user, count)),
        }
        self.store.put(fp.as_bytes().to_vec(), entry.encode());
    }

    /// Inserts a fresh entry for a share known to be absent, giving `user`
    /// its first reference.
    pub fn insert_new(&mut self, fp: &Fingerprint, location: ShareLocation, user: u64) {
        let entry = ShareEntry {
            location,
            owners: vec![(user, 1)],
        };
        self.store.put(fp.as_bytes().to_vec(), entry.encode());
    }

    /// Adds one reference for `user` to a share that must already be stored.
    /// Returns `false` (and changes nothing) if the fingerprint is unknown.
    pub fn add_reference_existing(&mut self, fp: &Fingerprint, user: u64) -> bool {
        match self.lookup(fp) {
            Some(mut entry) => {
                self.add_references_to_entry(fp, &mut entry, user, 1);
                true
            }
            None => false,
        }
    }

    /// Drops one reference held by `user`, deleting the entry when the last
    /// reference across all users goes. Returns `None` — a no-op — if the
    /// share is unknown or `user` holds no reference.
    pub fn remove_reference(&mut self, fp: &Fingerprint, user: u64) -> Option<ReleaseReport> {
        let mut entry = self.lookup(fp)?;
        let pos = entry
            .owners
            .iter()
            .position(|(u, c)| *u == user && *c > 0)?;
        entry.owners[pos].1 -= 1;
        let user_refs = entry.owners[pos].1;
        if user_refs == 0 {
            entry.owners.remove(pos);
        }
        let total_refs = entry.total_refs();
        if total_refs == 0 {
            self.store.delete(fp.as_bytes());
        } else {
            self.store.put(fp.as_bytes().to_vec(), entry.encode());
        }
        Some(ReleaseReport {
            location: entry.location,
            user_refs,
            total_refs,
        })
    }

    /// Atomically repoints the share's location from `from` to `to` — the
    /// index half of container compaction. Fails (returning `false`, changing
    /// nothing) if the share is gone or its location no longer equals `from`
    /// (someone else moved or deleted it first); the caller must then discard
    /// the copy it made at `to`.
    pub fn relocate(&mut self, fp: &Fingerprint, from: ShareLocation, to: ShareLocation) -> bool {
        let Some(mut entry) = self.lookup(fp) else {
            return false;
        };
        if entry.location != from {
            return false;
        }
        entry.location = to;
        self.store.put(fp.as_bytes().to_vec(), entry.encode());
        true
    }

    /// Installs an entry verbatim, overwriting any existing one — the
    /// restore half of checkpoint recovery. Unlike the reference-taking
    /// mutators, this performs no bookkeeping of its own.
    pub fn insert_entry(&mut self, fp: &Fingerprint, entry: &ShareEntry) {
        self.store.put(fp.as_bytes().to_vec(), entry.encode());
    }

    /// Removes an entry verbatim, whatever references it holds — journal
    /// replay of a share deletion and recovery's pruning of entries that
    /// point into containers lost with the crash.
    pub fn remove_entry(&mut self, fp: &Fingerprint) {
        self.store.delete(fp.as_bytes());
    }

    /// Every `(fingerprint, entry)` pair currently tracked — the snapshot
    /// half of checkpointing (and the iteration recovery's verification
    /// pass cross-checks against container headers).
    pub fn export(&self) -> Vec<(Fingerprint, ShareEntry)> {
        self.store
            .snapshot()
            .iter()
            .filter_map(|(k, v)| {
                let fp: [u8; 32] = k.as_slice().try_into().ok()?;
                Some((Fingerprint::from_bytes(fp), ShareEntry::decode(v)?))
            })
            .collect()
    }

    /// Number of unique shares tracked.
    pub fn unique_shares(&self) -> usize {
        self.store.len()
    }

    /// Total physical bytes referenced by the index (sum of unique share sizes).
    pub fn physical_bytes(&self) -> u64 {
        self.store
            .snapshot()
            .values()
            .filter_map(|v| ShareEntry::decode(v))
            .map(|e| e.location.size as u64)
            .sum()
    }

    /// Approximate index memory footprint in bytes (relevant to the cost
    /// model's EC2 instance sizing, §5.6).
    pub fn approximate_size(&self) -> usize {
        self.store.approximate_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn new_share_then_duplicates() {
        let mut index = ShareIndex::new();
        assert!(!index.is_stored(&fp(1)));
        assert_eq!(
            index.add_reference(&fp(1), loc(10, 100), 1),
            ShareAddOutcome::NewShare
        );
        assert_eq!(
            index.add_reference(&fp(1), loc(99, 100), 2),
            ShareAddOutcome::Duplicate
        );
        assert_eq!(
            index.add_reference(&fp(1), loc(99, 100), 1),
            ShareAddOutcome::Duplicate
        );
        let entry = index.lookup(&fp(1)).unwrap();
        // The original location wins; the duplicate's location is ignored.
        assert_eq!(entry.location, loc(10, 100));
        assert_eq!(entry.total_refs(), 3);
        assert!(entry.owned_by(1));
        assert!(entry.owned_by(2));
        assert!(!entry.owned_by(3));
        assert_eq!(index.unique_shares(), 1);
    }

    #[test]
    fn intra_user_dedup_query() {
        let mut index = ShareIndex::new();
        index.add_reference(&fp(1), loc(1, 10), 7);
        index.add_reference(&fp(2), loc(1, 10), 8);
        let result = index.filter_user_duplicates(7, &[fp(1), fp(2), fp(3)]);
        assert_eq!(result, vec![true, false, false]);
        assert!(index.user_owns(&fp(1), 7));
        assert!(!index.user_owns(&fp(2), 7));
    }

    #[test]
    fn reference_counting_supports_deletion() {
        let mut index = ShareIndex::new();
        index.add_reference(&fp(5), loc(3, 42), 1);
        index.add_reference(&fp(5), loc(3, 42), 1);
        index.add_reference(&fp(5), loc(3, 42), 2);
        // Two references from user 1, one from user 2.
        let first = index.remove_reference(&fp(5), 1).unwrap();
        assert_eq!((first.user_refs, first.total_refs), (1, 2));
        let second = index.remove_reference(&fp(5), 1).unwrap();
        assert_eq!((second.user_refs, second.total_refs), (0, 1));
        assert!(index.is_stored(&fp(5)));
        // User 1 holds nothing any more: further removals are no-ops.
        assert_eq!(index.remove_reference(&fp(5), 1), None);
        // Last reference gone: the entry is deleted and the location reported
        // for garbage collection.
        let last = index.remove_reference(&fp(5), 2).unwrap();
        assert_eq!(last.location, loc(3, 42));
        assert_eq!((last.user_refs, last.total_refs), (0, 0));
        assert!(!index.is_stored(&fp(5)));
        assert_eq!(index.remove_reference(&fp(5), 2), None);
    }

    #[test]
    fn add_reference_existing_requires_a_stored_share() {
        let mut index = ShareIndex::new();
        assert!(!index.add_reference_existing(&fp(1), 7));
        index.add_reference(&fp(1), loc(1, 10), 7);
        assert!(index.add_reference_existing(&fp(1), 7));
        assert!(index.add_reference_existing(&fp(1), 8));
        let entry = index.lookup(&fp(1)).unwrap();
        assert_eq!(entry.total_refs(), 3);
        assert!(entry.owned_by(8));
    }

    #[test]
    fn relocate_repoints_only_the_expected_location() {
        let mut index = ShareIndex::new();
        index.add_reference(&fp(9), loc(1, 64), 1);
        // A stale `from` (e.g. a compactor racing a newer move) fails.
        assert!(!index.relocate(&fp(9), loc(2, 64), loc(3, 64)));
        assert_eq!(index.lookup(&fp(9)).unwrap().location, loc(1, 64));
        // The expected `from` succeeds and preserves the owners.
        assert!(index.relocate(&fp(9), loc(1, 64), loc(3, 64)));
        let entry = index.lookup(&fp(9)).unwrap();
        assert_eq!(entry.location, loc(3, 64));
        assert!(entry.owned_by(1));
        // Unknown fingerprints fail.
        assert!(!index.relocate(&fp(10), loc(1, 64), loc(3, 64)));
    }

    #[test]
    fn physical_bytes_counts_unique_shares_once() {
        let mut index = ShareIndex::new();
        index.add_reference(&fp(1), loc(1, 1000), 1);
        index.add_reference(&fp(1), loc(1, 1000), 2);
        index.add_reference(&fp(2), loc(1, 500), 1);
        assert_eq!(index.physical_bytes(), 1500);
        assert_eq!(index.unique_shares(), 2);
    }

    #[test]
    fn entry_encoding_round_trips() {
        let entry = ShareEntry {
            location: loc(0xdeadbeef, 12345),
            owners: vec![(1, 3), (42, 1), (u64::MAX, 7)],
        };
        assert_eq!(ShareEntry::decode(&entry.encode()), Some(entry));
        assert_eq!(ShareEntry::decode(&[1, 2, 3]), None);
        assert_eq!(ShareEntry::decode(&[0u8; 21]), None);
    }

    #[test]
    fn many_shares_scale() {
        let mut index = ShareIndex::new();
        for i in 0..5000u32 {
            index.add_reference(&fp(i), loc(i as u64 / 100, 8192), (i % 9) as u64);
        }
        assert_eq!(index.unique_shares(), 5000);
        for i in (0..5000u32).step_by(97) {
            assert!(index.is_stored(&fp(i)));
        }
        assert!(index.approximate_size() > 5000 * 32);
    }
}
