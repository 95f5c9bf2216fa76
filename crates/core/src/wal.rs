//! Wire formats of the durable-metadata subsystem: the journal records a
//! server stages on every index mutation (and commits, as one group, before
//! the request returns), and the checkpoint snapshot that periodically
//! supersedes them.
//!
//! Records are *state-level*: each carries the absolute post-state of the
//! mutated entry (or its deletion), never a delta. Replay is therefore
//! idempotent — applying a record to a state that already contains its
//! effect is a no-op — which is what lets recovery replay the journal suffix
//! on top of a checkpoint without reasoning about exactly where the snapshot
//! cut through concurrent mutations of *different* keys. (Per-key ordering
//! is exact: records are staged under the key's stripe lock, in apply order
//! — see `cdstore_index::sharded` — and a commit writes a prefix of the
//! staging order, so the journal never holds a later state of a key without
//! every earlier one.)
//!
//! The framing (length prefix, CRC, torn-tail detection, segments, epochs)
//! lives one layer down in [`cdstore_storage::journal`]; this module only
//! defines the payloads.

use std::borrow::Cow;

use cdstore_crypto::Fingerprint;
use cdstore_index::{FileEntry, FileKey, ShareEntry};

/// One journaled index mutation: the absolute post-state of a single entry
/// of one of the server's three metadata structures. The variable-size
/// fields are `Cow`s: the server stages records that *borrow* the state it
/// just wrote (no per-record clone); [`MetaRecord::decode`] returns owned
/// ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaRecord<'a> {
    /// The share index now holds `entry` for `fp` (insert, reference-count
    /// change, or relocation — the record does not distinguish).
    ShareUpsert {
        /// Server-side share fingerprint.
        fp: Fingerprint,
        /// The entry's full post-state.
        entry: Cow<'a, ShareEntry>,
    },
    /// The share's last reference went: the index entry was deleted.
    ShareDelete {
        /// Server-side share fingerprint.
        fp: Fingerprint,
    },
    /// The file index now holds `entry` for `key`.
    FileUpsert {
        /// Hashed `(user, pathname)` key.
        key: FileKey,
        /// The entry's full post-state.
        entry: FileEntry,
    },
    /// The file was deleted from the file index.
    FileDelete {
        /// Hashed `(user, pathname)` key.
        key: FileKey,
    },
    /// The user-share ownership map now holds `value` for `key`.
    MapPut {
        /// `(user || client fingerprint)` ownership key.
        key: Cow<'a, [u8]>,
        /// The server fingerprint the mapping resolves to.
        value: Cow<'a, [u8]>,
    },
    /// The ownership mapping was torn down.
    MapDelete {
        /// `(user || client fingerprint)` ownership key.
        key: Cow<'a, [u8]>,
    },
}

const TAG_SHARE_UPSERT: u8 = 1;
const TAG_SHARE_DELETE: u8 = 2;
const TAG_FILE_UPSERT: u8 = 3;
const TAG_FILE_DELETE: u8 = 4;
const TAG_MAP_PUT: u8 = 5;
const TAG_MAP_DELETE: u8 = 6;

impl MetaRecord<'_> {
    /// Appends the record's journal payload to `out` (the journal frames it
    /// in place: no per-record buffer).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            MetaRecord::ShareUpsert { fp, entry } => {
                out.push(TAG_SHARE_UPSERT);
                out.extend_from_slice(fp.as_bytes());
                entry.encode_into(out);
            }
            MetaRecord::ShareDelete { fp } => {
                out.push(TAG_SHARE_DELETE);
                out.extend_from_slice(fp.as_bytes());
            }
            MetaRecord::FileUpsert { key, entry } => {
                out.push(TAG_FILE_UPSERT);
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&entry.to_bytes());
            }
            MetaRecord::FileDelete { key } => {
                out.push(TAG_FILE_DELETE);
                out.extend_from_slice(key.as_bytes());
            }
            MetaRecord::MapPut { key, value } => {
                out.push(TAG_MAP_PUT);
                out.extend_from_slice(&(key.len() as u32).to_be_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(value);
            }
            MetaRecord::MapDelete { key } => {
                out.push(TAG_MAP_DELETE);
                out.extend_from_slice(key);
            }
        }
    }

    /// Serialises the record into a journal payload of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Parses a journal payload (`None` for unknown tags or malformed
    /// bodies — recovery skips such records rather than failing, so a
    /// rolled-back binary can still open a newer journal).
    pub fn decode(bytes: &[u8]) -> Option<MetaRecord<'static>> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            TAG_SHARE_UPSERT => {
                let fp = Fingerprint::from_bytes(rest.get(..32)?.try_into().ok()?);
                let entry = Cow::Owned(ShareEntry::from_bytes(rest.get(32..)?)?);
                Some(MetaRecord::ShareUpsert { fp, entry })
            }
            TAG_SHARE_DELETE => {
                let fp = Fingerprint::from_bytes(rest.get(..32)?.try_into().ok()?);
                rest.len().eq(&32).then_some(MetaRecord::ShareDelete { fp })
            }
            TAG_FILE_UPSERT => {
                let key = FileKey::from_bytes(rest.get(..32)?.try_into().ok()?);
                let entry = FileEntry::from_bytes(rest.get(32..)?)?;
                Some(MetaRecord::FileUpsert { key, entry })
            }
            TAG_FILE_DELETE => {
                let key = FileKey::from_bytes(rest.get(..32)?.try_into().ok()?);
                rest.len().eq(&32).then_some(MetaRecord::FileDelete { key })
            }
            TAG_MAP_PUT => {
                let klen = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let key = rest.get(4..4 + klen)?.to_vec().into();
                let value = rest.get(4 + klen..)?.to_vec().into();
                Some(MetaRecord::MapPut { key, value })
            }
            TAG_MAP_DELETE => Some(MetaRecord::MapDelete {
                key: rest.to_vec().into(),
            }),
            _ => None,
        }
    }
}

/// Format version of an inline checkpoint snapshot blob (the three index
/// bodies embedded in the checkpoint itself).
const SNAPSHOT_VERSION_INLINE: u32 = 1;
/// Format version of an *external-indexes* checkpoint marker: the indexes
/// live in their own disk-resident LSM runs (flushed durable before the
/// checkpoint committed), so the blob carries no bodies.
const SNAPSHOT_VERSION_EXTERNAL: u32 = 2;

/// A full point-in-time copy of a server's metadata: the share index, the
/// file index, and the user-share ownership map. Committed periodically as a
/// checkpoint so recovery replays only the journal suffix written since.
///
/// Servers running their indexes disk-resident commit an *external* marker
/// instead ([`Snapshot::external`]): the index contents are already durable
/// in their own on-disk runs, so the checkpoint only needs to record that
/// fact — recovery then opens the runs instead of installing bodies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The index bodies live outside the checkpoint, in disk-resident LSM
    /// runs flushed before this snapshot committed. The three body vectors
    /// are empty when set.
    pub external_indexes: bool,
    /// Every share-index entry.
    pub shares: Vec<(Fingerprint, ShareEntry)>,
    /// Every file-index entry.
    pub files: Vec<(FileKey, FileEntry)>,
    /// Every ownership mapping.
    pub mappings: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Snapshot {
    /// The external-indexes marker: a checkpoint whose index bodies live in
    /// disk-resident runs instead of the blob.
    pub fn external() -> Self {
        Snapshot {
            external_indexes: true,
            ..Snapshot::default()
        }
    }

    /// Serialises the snapshot into a checkpoint blob.
    pub fn encode(&self) -> Vec<u8> {
        if self.external_indexes {
            debug_assert!(self.shares.is_empty() && self.files.is_empty());
            return SNAPSHOT_VERSION_EXTERNAL.to_be_bytes().to_vec();
        }
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_VERSION_INLINE.to_be_bytes());
        out.extend_from_slice(&(self.shares.len() as u64).to_be_bytes());
        for (fp, entry) in &self.shares {
            out.extend_from_slice(fp.as_bytes());
            let body = entry.to_bytes();
            out.extend_from_slice(&(body.len() as u32).to_be_bytes());
            out.extend_from_slice(&body);
        }
        out.extend_from_slice(&(self.files.len() as u64).to_be_bytes());
        for (key, entry) in &self.files {
            out.extend_from_slice(key.as_bytes());
            let body = entry.to_bytes();
            out.extend_from_slice(&(body.len() as u32).to_be_bytes());
            out.extend_from_slice(&body);
        }
        out.extend_from_slice(&(self.mappings.len() as u64).to_be_bytes());
        for (key, value) in &self.mappings {
            out.extend_from_slice(&(key.len() as u32).to_be_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(&(value.len() as u32).to_be_bytes());
            out.extend_from_slice(value);
        }
        out
    }

    /// Parses a checkpoint blob (`None` if malformed — the blob's integrity
    /// checksum lives one layer down, so `None` here means a format
    /// mismatch, not bit rot).
    pub fn decode(bytes: &[u8]) -> Option<Snapshot> {
        let mut cursor = Cursor(bytes);
        match cursor.u32()? {
            SNAPSHOT_VERSION_INLINE => {}
            SNAPSHOT_VERSION_EXTERNAL => {
                return cursor.0.is_empty().then(Snapshot::external);
            }
            _ => return None,
        }
        let mut snapshot = Snapshot::default();
        for _ in 0..cursor.u64()? {
            let fp = Fingerprint::from_bytes(cursor.array::<32>()?);
            let len = cursor.u32()? as usize;
            let entry = ShareEntry::from_bytes(cursor.take(len)?)?;
            snapshot.shares.push((fp, entry));
        }
        for _ in 0..cursor.u64()? {
            let key = FileKey::from_bytes(cursor.array::<32>()?);
            let len = cursor.u32()? as usize;
            let entry = FileEntry::from_bytes(cursor.take(len)?)?;
            snapshot.files.push((key, entry));
        }
        for _ in 0..cursor.u64()? {
            let klen = cursor.u32()? as usize;
            let key = cursor.take(klen)?.to_vec();
            let vlen = cursor.u32()? as usize;
            let value = cursor.take(vlen)?.to_vec();
            snapshot.mappings.push((key, value));
        }
        cursor.0.is_empty().then_some(snapshot)
    }
}

/// A bounds-checked reader over a byte slice.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = (self.0.get(..n)?, self.0.get(n..)?);
        self.0 = tail;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.array::<4>()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.array::<8>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_index::ShareLocation;

    fn fp(i: u32) -> Fingerprint {
        Fingerprint::of(&i.to_be_bytes())
    }

    fn share_entry(refs: u32) -> ShareEntry {
        ShareEntry {
            location: ShareLocation {
                container_id: 9,
                offset: 128,
                size: 4096,
            },
            owners: vec![(1, refs), (7, 2)],
        }
    }

    fn file_entry(version: u64) -> FileEntry {
        FileEntry {
            user: 3,
            recipe_container_id: 4,
            recipe_offset: 8,
            recipe_size: 120,
            file_size: 1 << 20,
            num_secrets: 128,
            version,
        }
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            MetaRecord::ShareUpsert {
                fp: fp(1),
                entry: Cow::Owned(share_entry(3)),
            },
            MetaRecord::ShareDelete { fp: fp(2) },
            MetaRecord::FileUpsert {
                key: FileKey::new(1, b"/a"),
                entry: file_entry(5),
            },
            MetaRecord::FileDelete {
                key: FileKey::new(2, b"/b"),
            },
            MetaRecord::MapPut {
                key: b"owner-key".as_slice().into(),
                value: b"server-fp".as_slice().into(),
            },
            MetaRecord::MapDelete {
                key: b"owner-key".as_slice().into(),
            },
        ];
        let mut group = vec![0xee];
        for record in records {
            assert_eq!(MetaRecord::decode(&record.encode()), Some(record.clone()));
            // Encoding in place appends exactly the stand-alone payload.
            let before = group.len();
            record.encode_into(&mut group);
            assert_eq!(group[before..], record.encode());
        }
    }

    #[test]
    fn malformed_records_decode_to_none() {
        assert_eq!(MetaRecord::decode(&[]), None);
        assert_eq!(MetaRecord::decode(&[99, 1, 2, 3]), None, "unknown tag");
        assert_eq!(MetaRecord::decode(&[TAG_SHARE_UPSERT, 1, 2]), None);
        assert_eq!(MetaRecord::decode(&[TAG_FILE_DELETE; 20]), None);
        // A share delete with trailing garbage is rejected, not truncated.
        let mut bytes = MetaRecord::ShareDelete { fp: fp(1) }.encode();
        bytes.push(0);
        assert_eq!(MetaRecord::decode(&bytes), None);
    }

    #[test]
    fn snapshots_round_trip() {
        let snapshot = Snapshot {
            shares: vec![(fp(1), share_entry(1)), (fp(2), share_entry(9))],
            files: vec![(FileKey::new(1, b"/x"), file_entry(2))],
            mappings: vec![(vec![1; 40], vec![2; 32]), (b"k".to_vec(), b"v".to_vec())],
            ..Snapshot::default()
        };
        assert_eq!(Snapshot::decode(&snapshot.encode()), Some(snapshot));
        assert_eq!(
            Snapshot::decode(&Snapshot::default().encode()),
            Some(Snapshot::default())
        );
    }

    #[test]
    fn snapshot_decode_rejects_corruption() {
        let snapshot = Snapshot {
            shares: vec![(fp(1), share_entry(1))],
            ..Snapshot::default()
        };
        let bytes = snapshot.encode();
        // Truncations and version mismatches are rejected at every cut.
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut wrong_version = bytes.clone();
        wrong_version[3] = 9;
        assert!(Snapshot::decode(&wrong_version).is_none());
        // Trailing garbage is rejected too.
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Snapshot::decode(&trailing).is_none());
    }

    #[test]
    fn external_marker_round_trips() {
        let marker = Snapshot::external();
        assert!(marker.external_indexes);
        let bytes = marker.encode();
        assert_eq!(bytes.len(), 4, "marker carries no bodies");
        assert_eq!(Snapshot::decode(&bytes), Some(marker));
        // A marker with trailing bytes is rejected.
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(Snapshot::decode(&trailing), None);
        // Inline snapshots decode with the flag unset.
        let inline = Snapshot::default();
        assert!(!Snapshot::decode(&inline.encode()).unwrap().external_indexes);
    }
}
