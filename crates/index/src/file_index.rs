//! The file index: `(user, pathname)` → file-recipe reference.
//!
//! "The file index holds the entries for all files uploaded by different
//! users. Each entry describes a file, identified by the full pathname
//! (which has been encoded ...) and the user identifier provided by a
//! CDStore client. We hash the full pathname and the user identifier to
//! obtain a unique key for the entry. The entry stores a reference to the
//! file recipe ..." (§4.4)

use std::ops::DerefMut;

use cdstore_crypto::{sha256, Fingerprint};

use crate::kvstore::KvStore;
use crate::sharded::{key_hash, Sharded};
use crate::share_index::ShareLocation;

/// The hashed lookup key of a file-index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileKey(Fingerprint);

impl FileKey {
    /// Derives the key from a user identifier and the file's full pathname.
    ///
    /// The pathname passed here may already be an *encoded* pathname (the
    /// client disperses sensitive pathnames via secret sharing, §4.3); the
    /// key derivation is agnostic to that.
    pub fn new(user: u64, pathname: &[u8]) -> Self {
        let mut hasher = sha256::Sha256::new();
        hasher.update(&user.to_be_bytes());
        hasher.update(&(pathname.len() as u64).to_be_bytes());
        hasher.update(pathname);
        FileKey(Fingerprint::from_bytes(hasher.finalize()))
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.0.as_bytes()
    }

    /// Reconstructs a key from its raw hash bytes (journal replay; the
    /// pathname itself is not recoverable from the hash, nor needed).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        FileKey(Fingerprint::from_bytes(bytes))
    }
}

/// One file-index entry: where to find the file recipe and summary metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// The user who owns the file. The lookup key is a one-way hash of
    /// `(user, pathname)`, so the entry records the user explicitly: crash
    /// recovery needs it to resolve the recipe's client fingerprints through
    /// the user's ownership mappings when verifying recovered state.
    pub user: u64,
    /// Identifier of the recipe container holding the file recipe.
    pub recipe_container_id: u64,
    /// Byte offset of the recipe blob within its container.
    pub recipe_offset: u32,
    /// Size of the serialised recipe blob in bytes.
    pub recipe_size: u32,
    /// Logical size of the file in bytes.
    pub file_size: u64,
    /// Number of secrets (chunks) the file was divided into.
    pub num_secrets: u64,
    /// Upload sequence number (monotonic per server; identifies backup versions).
    pub version: u64,
}

impl FileEntry {
    /// The container location of the file recipe blob.
    pub fn recipe_location(&self) -> ShareLocation {
        ShareLocation {
            container_id: self.recipe_container_id,
            offset: self.recipe_offset,
            size: self.recipe_size,
        }
    }

    /// Serialises the entry (the journal/checkpoint wire format — identical
    /// to the in-store representation).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    /// Parses an entry serialised by [`FileEntry::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<FileEntry> {
        Self::decode(bytes)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(&self.user.to_be_bytes());
        out.extend_from_slice(&self.recipe_container_id.to_be_bytes());
        out.extend_from_slice(&self.recipe_offset.to_be_bytes());
        out.extend_from_slice(&self.recipe_size.to_be_bytes());
        out.extend_from_slice(&self.file_size.to_be_bytes());
        out.extend_from_slice(&self.num_secrets.to_be_bytes());
        out.extend_from_slice(&self.version.to_be_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<FileEntry> {
        if bytes.len() != 48 {
            return None;
        }
        Some(FileEntry {
            user: u64::from_be_bytes(bytes[0..8].try_into().ok()?),
            recipe_container_id: u64::from_be_bytes(bytes[8..16].try_into().ok()?),
            recipe_offset: u32::from_be_bytes(bytes[16..20].try_into().ok()?),
            recipe_size: u32::from_be_bytes(bytes[20..24].try_into().ok()?),
            file_size: u64::from_be_bytes(bytes[24..32].try_into().ok()?),
            num_secrets: u64::from_be_bytes(bytes[32..40].try_into().ok()?),
            version: u64::from_be_bytes(bytes[40..48].try_into().ok()?),
        })
    }
}

/// Outcome of [`ShardedFileIndex::put_if_newer_with`].
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

/// The per-server file index: a [`Sharded`] store striped by the (already
/// hashed) [`FileKey`], holding one encoded [`FileEntry`] per file. Hooks
/// follow the contract stated on
/// [`ShardedShareIndex`](crate::ShardedShareIndex).
pub type ShardedFileIndex = Sharded<FileEntry>;

fn read(stripe: &mut KvStore, key: &FileKey) -> Option<FileEntry> {
    FileEntry::decode(&stripe.get(key.as_bytes())?)
}

impl Sharded<FileEntry> {
    fn stripe(&self, key: &FileKey) -> impl DerefMut<Target = KvStore> + '_ {
        self.lock(key_hash(key.as_bytes()))
    }

    /// Inserts or replaces the entry for a file, verbatim (journal replay).
    pub fn put(&self, key: FileKey, entry: FileEntry) {
        self.stripe(&key)
            .put(key.as_bytes().to_vec(), entry.encode());
    }

    /// Inserts the entry unless the index already holds a strictly newer
    /// version for the key, reporting the displaced older entry (if any) so
    /// the caller can release the resources it held. The hook observes the
    /// written entry, and does not run on [`FilePutOutcome::Stale`].
    ///
    /// Version numbers are allocated before the stripe lock is taken, so
    /// concurrent backups of the same file may arrive out of order; this
    /// compare-under-lock makes them converge on the highest version
    /// instead of last-writer-wins.
    pub fn put_if_newer_with(
        &self,
        key: FileKey,
        entry: FileEntry,
        observe: impl FnOnce(&FileEntry),
    ) -> FilePutOutcome {
        let mut stripe = self.stripe(&key);
        let displaced = read(&mut stripe, &key);
        if displaced
            .as_ref()
            .is_some_and(|d| d.version > entry.version)
        {
            return FilePutOutcome::Stale;
        }
        stripe.put(key.as_bytes().to_vec(), entry.encode());
        observe(&entry);
        FilePutOutcome::Written { displaced }
    }

    /// Looks up the entry for a file.
    pub fn get(&self, key: &FileKey) -> Option<FileEntry> {
        read(&mut self.stripe(key), key)
    }

    /// Removes the entry for a file, returning it if present.
    pub fn remove(&self, key: &FileKey) -> Option<FileEntry> {
        self.remove_with(key, |_| {})
    }

    /// [`ShardedFileIndex::remove`] with a journaling hook that observes
    /// the removed entry (and does not run when there was none).
    pub fn remove_with(
        &self,
        key: &FileKey,
        observe: impl FnOnce(&FileEntry),
    ) -> Option<FileEntry> {
        let mut stripe = self.stripe(key);
        let entry = read(&mut stripe, key)?;
        stripe.delete(key.as_bytes());
        observe(&entry);
        Some(entry)
    }

    /// Every `(key, entry)` pair across all stripes (see
    /// [`ShardedShareIndex::export`](crate::ShardedShareIndex::export)).
    pub fn export(&self) -> Vec<(FileKey, FileEntry)> {
        self.export_decoded(|k, v| {
            let key: [u8; 32] = k.try_into().ok()?;
            Some((FileKey::from_bytes(key), FileEntry::decode(&v)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(version: u64) -> FileEntry {
        FileEntry {
            user: 1,
            recipe_container_id: 77,
            recipe_offset: 4096,
            recipe_size: 512,
            file_size: 1 << 30,
            num_secrets: 131072,
            version,
        }
    }

    #[test]
    fn put_get_remove_round_trip() {
        let index: ShardedFileIndex = crate::sharded::tests::fresh();
        let key = FileKey::new(1, b"/home/alice/backup.tar");
        assert!(index.get(&key).is_none());
        index.put(key, entry(1));
        assert_eq!(index.get(&key), Some(entry(1)));
        assert_eq!(index.remove(&key), Some(entry(1)));
        assert!(index.get(&key).is_none());
        assert!(index.is_empty());
    }

    #[test]
    fn keys_separate_users_and_paths() {
        let a = FileKey::new(1, b"/home/alice/backup.tar");
        let b = FileKey::new(2, b"/home/alice/backup.tar");
        let c = FileKey::new(1, b"/home/alice/backup2.tar");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a, FileKey::new(1, b"/home/alice/backup.tar"));
    }

    #[test]
    fn key_derivation_is_length_prefixed() {
        // (user=1, "ab") must not collide with (user=1, "a" + trailing garbage
        // arranged differently).
        let a = FileKey::new(0x0000_0001_6162_0000, b"");
        let b = FileKey::new(0x0000_0001_0000_0000, b"ab\0\0");
        assert_ne!(a, b);
    }

    #[test]
    fn new_version_overwrites_old() {
        let index: ShardedFileIndex = crate::sharded::tests::fresh();
        let key = FileKey::new(9, b"/weekly/backup.tar");
        index.put(key, entry(1));
        index.put(key, entry(2));
        assert_eq!(index.get(&key).unwrap().version, 2);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn every_hook_sees_the_state_its_mutation_left_and_no_op_paths_run_none() {
        let index: ShardedFileIndex = crate::sharded::tests::fresh();
        let key = FileKey::new(1, b"/observed");
        let mut seen = Vec::new();
        let written = index.put_if_newer_with(key, entry(2), |post| seen.push(post.clone()));
        assert_eq!(written, FilePutOutcome::Written { displaced: None });
        assert_eq!(seen, vec![index.get(&key).unwrap()]);
        // A stale version writes nothing; removing twice removes once.
        let stale = index.put_if_newer_with(key, entry(1), |post| seen.push(post.clone()));
        assert_eq!(stale, FilePutOutcome::Stale);
        assert_eq!(seen, vec![entry(2)]);
        let removed = index.remove_with(&key, |gone| seen.push(gone.clone()));
        assert_eq!(removed, Some(entry(2)));
        assert_eq!(index.get(&key), None);
        assert_eq!(
            index.remove_with(&key, |gone| seen.push(gone.clone())),
            None
        );
        assert_eq!(seen, vec![entry(2), entry(2)]);
    }

    #[test]
    fn entry_encoding_round_trips() {
        let e = FileEntry {
            user: 42,
            recipe_container_id: u64::MAX,
            recipe_offset: u32::MAX,
            recipe_size: 77,
            file_size: 123,
            num_secrets: 456,
            version: 789,
        };
        assert_eq!(FileEntry::decode(&e.encode()), Some(e.clone()));
        assert_eq!(FileEntry::decode(&[0u8; 47]), None);
        assert_eq!(FileEntry::decode(&[0u8; 40]), None);
        assert_eq!(
            e.recipe_location(),
            ShareLocation {
                container_id: u64::MAX,
                offset: u32::MAX,
                size: 77,
            }
        );
    }

    #[test]
    fn many_files_from_many_users() {
        let index: ShardedFileIndex = crate::sharded::tests::fresh();
        for user in 0..20u64 {
            for file in 0..100u32 {
                let key = FileKey::new(user, format!("/home/u{user}/f{file}").as_bytes());
                index.put(key, entry(file as u64));
            }
        }
        assert_eq!(index.len(), 2000);
        let probe = FileKey::new(7, b"/home/u7/f42");
        assert_eq!(index.get(&probe).unwrap().version, 42);
    }
}
