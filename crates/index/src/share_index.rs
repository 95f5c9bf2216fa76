//! The share index: fingerprint → container location, owners, and refcounts.
//!
//! The share index "holds the entries for all unique shares of different
//! files. Each entry describes a share, and is keyed by the share
//! fingerprint. It stores the reference to the container that holds the
//! share. To support intra-user deduplication, each entry also holds a list
//! of user identifiers to distinguish who owns the share, as well as a
//! reference count for each user to support deletion." (§4.4)

use std::ops::DerefMut;

use cdstore_crypto::Fingerprint;

use crate::kvstore::KvStore;
use crate::sharded::{key_hash, Sharded};

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

    /// Gives `user` `count` more references.
    fn add_references(&mut self, user: u64, count: u32) {
        match self.owners.iter_mut().find(|(u, _)| *u == user) {
            Some((_, held)) => *held += count,
            None => self.owners.push((user, count)),
        }
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

/// The result of dropping one reference with
/// [`ShardedShareIndex::remove_reference_with`]: where the unique copy lives
/// and how many references remain, so the caller can drive the rest of the
/// reclamation protocol (tear down per-user ownership mappings when `user_refs` hits
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

/// The per-server share index: a [`Sharded`] store striped by fingerprint
/// (SHA-256 output is uniform, so the first eight bytes select the stripe),
/// holding one encoded [`ShareEntry`] per unique share.
///
/// Every mutation runs under the fingerprint's stripe lock, decodes the
/// entry once, and writes it back once. The `_with` forms take a journaling
/// hook that runs under the same lock with the state the mutation left —
/// and only when something was written — so a write-ahead journal records
/// the mutations of one fingerprint in exactly the order they were applied.
pub type ShardedShareIndex = Sharded<ShareEntry>;

fn read(stripe: &mut KvStore, fp: &Fingerprint) -> Option<ShareEntry> {
    ShareEntry::decode(&stripe.get(fp.as_bytes())?)
}

fn write(stripe: &mut KvStore, fp: &Fingerprint, entry: &ShareEntry) {
    stripe.put(fp.as_bytes().to_vec(), entry.encode());
}

impl Sharded<ShareEntry> {
    fn stripe(&self, fp: &Fingerprint) -> impl DerefMut<Target = KvStore> + '_ {
        self.lock(key_hash(fp.as_bytes()))
    }

    /// Looks up the entry for a share fingerprint.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<ShareEntry> {
        read(&mut self.stripe(fp), fp)
    }

    /// Whether a share with this fingerprint is already stored (the
    /// inter-user deduplication test).
    pub fn is_stored(&self, fp: &Fingerprint) -> bool {
        self.lookup(fp).is_some()
    }

    /// Whether the given user already owns the share (the intra-user
    /// deduplication test answered on behalf of a client).
    pub fn user_owns(&self, fp: &Fingerprint, user: u64) -> bool {
        self.lookup(fp).is_some_and(|e| e.owned_by(user))
    }

    /// For a batch of fingerprints, returns which ones the user has already
    /// uploaded (the reply to a client's intra-user dedup query, §3.3).
    pub fn filter_user_duplicates(&self, user: u64, fps: &[Fingerprint]) -> Vec<bool> {
        fps.iter().map(|fp| self.user_owns(fp, user)).collect()
    }

    /// Records that `user` references the share, storing it first if it is
    /// new. The `store` action runs under the fingerprint's stripe lock, so
    /// two threads racing on the same fingerprint invoke it exactly once —
    /// the loser of the race sees a dedup outcome and the winner's location
    /// (its own is never asked for). This is the invariant inter-user
    /// deduplication depends on.
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
        self.add_reference_or_store_with(fp, user, store, |_| {})
    }

    /// [`ShardedShareIndex::add_reference_or_store`] with a journaling hook
    /// that observes the entry's post-state. A failed `store` writes
    /// nothing and the hook does not run.
    pub fn add_reference_or_store_with<E>(
        &self,
        fp: &Fingerprint,
        user: u64,
        store: impl FnOnce() -> Result<ShareLocation, E>,
        observe: impl FnOnce(&ShareEntry),
    ) -> Result<(ShareLocation, StoreOutcome), E> {
        let mut stripe = self.stripe(fp);
        let (entry, outcome) = match read(&mut stripe, fp) {
            Some(mut entry) => {
                let outcome = if entry.owned_by(user) {
                    StoreOutcome::DedupIntraUser
                } else {
                    StoreOutcome::DedupInterUser
                };
                entry.add_references(user, 1);
                (entry, outcome)
            }
            None => {
                let entry = ShareEntry {
                    location: store()?,
                    owners: vec![(user, 1)],
                };
                (entry, StoreOutcome::Stored)
            }
        };
        write(&mut stripe, fp, &entry);
        observe(&entry);
        Ok((entry.location, outcome))
    }

    /// Adds `count` references for `user` to a share that must already be
    /// stored, in one stripe-locked step. Returns `false` (and changes
    /// nothing) if the fingerprint is unknown. `count == 0` is the pure
    /// existence check of the same rule: nothing is written and the hook is
    /// not invoked.
    pub fn add_references_existing_with(
        &self,
        fp: &Fingerprint,
        user: u64,
        count: u32,
        observe: impl FnOnce(&ShareEntry),
    ) -> bool {
        let mut stripe = self.stripe(fp);
        let Some(mut entry) = read(&mut stripe, fp) else {
            return false;
        };
        if count > 0 {
            entry.add_references(user, count);
            write(&mut stripe, fp, &entry);
            observe(&entry);
        }
        true
    }

    /// Drops one reference held by `user`, deleting the entry when the last
    /// reference across all users goes. Returns `None` — a no-op — if the
    /// share is unknown or `user` holds no reference. The hook observes
    /// `Some` surviving entry, or `None` when the entry was deleted.
    pub fn remove_reference_with(
        &self,
        fp: &Fingerprint,
        user: u64,
        observe: impl FnOnce(Option<&ShareEntry>),
    ) -> Option<ReleaseReport> {
        let mut stripe = self.stripe(fp);
        let mut entry = read(&mut stripe, fp)?;
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
            stripe.delete(fp.as_bytes());
            observe(None);
        } else {
            write(&mut stripe, fp, &entry);
            observe(Some(&entry));
        }
        Some(ReleaseReport {
            location: entry.location,
            user_refs,
            total_refs,
        })
    }

    /// Atomically repoints the share's location from `from` to `to` — the
    /// index half of container compaction. Fails (returning `false`,
    /// changing nothing) if the share is gone or its location no longer
    /// equals `from` (someone else moved or deleted it first); the caller
    /// must then discard the copy it made at `to`.
    pub fn relocate_with(
        &self,
        fp: &Fingerprint,
        from: ShareLocation,
        to: ShareLocation,
        observe: impl FnOnce(&ShareEntry),
    ) -> bool {
        let mut stripe = self.stripe(fp);
        let Some(mut entry) = read(&mut stripe, fp).filter(|e| e.location == from) else {
            return false;
        };
        entry.location = to;
        write(&mut stripe, fp, &entry);
        observe(&entry);
        true
    }

    /// Installs an entry verbatim, overwriting any existing one — checkpoint
    /// restore and journal replay. No reference bookkeeping of its own.
    pub fn insert_entry(&self, fp: &Fingerprint, entry: &ShareEntry) {
        write(&mut self.stripe(fp), fp, entry);
    }

    /// Removes an entry verbatim, whatever references it holds — journal
    /// replay of a share deletion and recovery's pruning of entries that
    /// point into containers lost with the crash.
    pub fn remove_entry(&self, fp: &Fingerprint) {
        self.stripe(fp).delete(fp.as_bytes());
    }

    /// Every `(fingerprint, entry)` pair across all stripes — the snapshot
    /// half of checkpointing (and the iteration recovery's verification
    /// pass cross-checks against container headers). Per-stripe locking
    /// only: concurrent mutations may land between stripes, so callers
    /// needing a true point-in-time snapshot must exclude writers for the
    /// duration.
    pub fn export(&self) -> Vec<(Fingerprint, ShareEntry)> {
        self.export_decoded(|k, v| {
            let fp: [u8; 32] = k.try_into().ok()?;
            Some((Fingerprint::from_bytes(fp), ShareEntry::decode(&v)?))
        })
    }

    /// Number of unique shares tracked.
    pub fn unique_shares(&self) -> usize {
        self.len()
    }

    /// Total physical bytes referenced by the index (sum of unique share
    /// sizes).
    pub fn physical_bytes(&self) -> u64 {
        let sizes = self.export_decoded(|_, v| Some(ShareEntry::decode(&v)?.location.size as u64));
        sizes.into_iter().sum()
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

    /// Uploads one share for `user`, stored at `location` if it is new.
    fn add(
        index: &ShardedShareIndex,
        fp: &Fingerprint,
        location: ShareLocation,
        user: u64,
    ) -> StoreOutcome {
        let (_, outcome) = index
            .add_reference_or_store::<()>(fp, user, || Ok(location))
            .unwrap();
        outcome
    }

    #[test]
    fn new_share_then_duplicates() {
        let index = ShardedShareIndex::new();
        assert!(!index.is_stored(&fp(1)));
        assert_eq!(add(&index, &fp(1), loc(10, 100), 1), StoreOutcome::Stored);
        assert_eq!(
            add(&index, &fp(1), loc(99, 100), 2),
            StoreOutcome::DedupInterUser
        );
        assert_eq!(
            add(&index, &fp(1), loc(99, 100), 1),
            StoreOutcome::DedupIntraUser
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
        let index = ShardedShareIndex::new();
        add(&index, &fp(1), loc(1, 10), 7);
        add(&index, &fp(2), loc(1, 10), 8);
        let result = index.filter_user_duplicates(7, &[fp(1), fp(2), fp(3)]);
        assert_eq!(result, vec![true, false, false]);
        assert!(index.user_owns(&fp(1), 7));
        assert!(!index.user_owns(&fp(2), 7));
    }

    #[test]
    fn reference_counting_supports_deletion() {
        let index = ShardedShareIndex::new();
        add(&index, &fp(5), loc(3, 42), 1);
        add(&index, &fp(5), loc(3, 42), 1);
        add(&index, &fp(5), loc(3, 42), 2);
        let remove = |user| index.remove_reference_with(&fp(5), user, |_| {});
        // Two references from user 1, one from user 2.
        let first = remove(1).unwrap();
        assert_eq!((first.user_refs, first.total_refs), (1, 2));
        let second = remove(1).unwrap();
        assert_eq!((second.user_refs, second.total_refs), (0, 1));
        assert!(index.is_stored(&fp(5)));
        // User 1 holds nothing any more: further removals are no-ops.
        assert_eq!(remove(1), None);
        // Last reference gone: the entry is deleted and the location reported
        // for garbage collection.
        let last = remove(2).unwrap();
        assert_eq!(last.location, loc(3, 42));
        assert_eq!((last.user_refs, last.total_refs), (0, 0));
        assert!(!index.is_stored(&fp(5)));
        assert_eq!(remove(2), None);
    }

    #[test]
    fn add_reference_existing_requires_a_stored_share() {
        let index = ShardedShareIndex::new();
        let add_existing = |user| index.add_references_existing_with(&fp(1), user, 1, |_| {});
        assert!(!add_existing(7));
        add(&index, &fp(1), loc(1, 10), 7);
        assert!(add_existing(7));
        assert!(add_existing(8));
        let entry = index.lookup(&fp(1)).unwrap();
        assert_eq!(entry.total_refs(), 3);
        assert!(entry.owned_by(8));
    }

    #[test]
    fn relocate_repoints_only_the_expected_location() {
        let index = ShardedShareIndex::new();
        add(&index, &fp(9), loc(1, 64), 1);
        let relocate = |i, from, to| index.relocate_with(&fp(i), from, to, |_| {});
        // A stale `from` (e.g. a compactor racing a newer move) fails.
        assert!(!relocate(9, loc(2, 64), loc(3, 64)));
        assert_eq!(index.lookup(&fp(9)).unwrap().location, loc(1, 64));
        // The expected `from` succeeds and preserves the owners.
        assert!(relocate(9, loc(1, 64), loc(3, 64)));
        let entry = index.lookup(&fp(9)).unwrap();
        assert_eq!(entry.location, loc(3, 64));
        assert!(entry.owned_by(1));
        // Unknown fingerprints fail.
        assert!(!relocate(10, loc(1, 64), loc(3, 64)));
    }

    #[test]
    fn every_hook_sees_the_state_its_mutation_left_and_no_op_paths_run_none() {
        let index = ShardedShareIndex::new();
        let seen = std::cell::RefCell::new(Vec::new());
        // After each mutation: the hook ran exactly once, with what a fresh
        // lookup now returns.
        let check = |what: &str| {
            let seen: Vec<Option<ShareEntry>> = seen.borrow_mut().drain(..).collect();
            assert_eq!(seen, vec![index.lookup(&fp(1))], "{what}");
        };
        let observe = |post: &ShareEntry| seen.borrow_mut().push(Some(post.clone()));
        let observe_removal = |post: Option<&ShareEntry>| seen.borrow_mut().push(post.cloned());

        index
            .add_reference_or_store_with::<()>(&fp(1), 1, || Ok(loc(1, 8)), observe)
            .unwrap();
        check("store");
        index
            .add_reference_or_store_with::<()>(&fp(1), 2, || unreachable!(), observe)
            .unwrap();
        check("duplicate");
        assert!(index.add_references_existing_with(&fp(1), 2, 3, observe));
        check("counted references");
        assert!(index.relocate_with(&fp(1), loc(1, 8), loc(2, 8), observe));
        check("relocate");
        for user in [2, 2, 2, 2, 1] {
            assert!(index
                .remove_reference_with(&fp(1), user, observe_removal)
                .is_some());
            check("remove");
        }
        assert!(!index.is_stored(&fp(1)));

        // Nothing is written on these paths, so nothing is observed.
        add(&index, &fp(1), loc(1, 8), 1);
        let failed = index.add_reference_or_store_with(&fp(2), 1, || Err("down"), observe);
        assert_eq!(failed, Err("down"));
        assert!(index.add_references_existing_with(&fp(1), 1, 0, observe));
        assert!(!index.add_references_existing_with(&fp(2), 1, 1, observe));
        assert!(!index.relocate_with(&fp(1), loc(9, 8), loc(2, 8), observe));
        assert!(!index.relocate_with(&fp(2), loc(1, 8), loc(2, 8), observe));
        assert_eq!(
            index.remove_reference_with(&fp(1), 5, observe_removal),
            None
        );
        assert_eq!(
            index.remove_reference_with(&fp(2), 1, observe_removal),
            None
        );
        assert!(seen.borrow().is_empty());
    }

    #[test]
    fn physical_bytes_counts_unique_shares_once() {
        let index = ShardedShareIndex::new();
        add(&index, &fp(1), loc(1, 1000), 1);
        add(&index, &fp(1), loc(1, 1000), 2);
        add(&index, &fp(2), loc(1, 500), 1);
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
        let index = ShardedShareIndex::new();
        for i in 0..5000u32 {
            add(&index, &fp(i), loc(i as u64 / 100, 8192), (i % 9) as u64);
        }
        assert_eq!(index.unique_shares(), 5000);
        for i in (0..5000u32).step_by(97) {
            assert!(index.is_stored(&fp(i)));
        }
        assert!(index.approximate_size() > 5000 * 32);
        assert_eq!(index.export().len(), 5000);
    }
}
