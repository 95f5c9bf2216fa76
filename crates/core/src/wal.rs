//! Wire formats of the durable-metadata subsystem: the journal records a
//! server stages on every index mutation (and commits, as one group, before
//! the request returns), and the checkpoint that periodically supersedes
//! them.
//!
//! Records are *state-level*: each carries the absolute post-state of the
//! mutated entry (or its deletion), never a delta. Replay is therefore
//! idempotent — applying a record to a state that already contains its
//! effect is a no-op — which is what lets recovery replay the journal suffix
//! on top of a checkpoint without reasoning about exactly where the
//! checkpoint cut through concurrent mutations of *different* keys. (Per-key
//! ordering is exact: records are staged under the key's stripe lock, in
//! apply order — see `cdstore_index::sharded` — and a commit writes a prefix
//! of the staging order, so the journal never holds a later state of a key
//! without every earlier one.)
//!
//! # Checkpoints
//!
//! Every server index is [`DEFAULT_SHARDS`] LSM stripes on the server's
//! backend, each a memtable over the runs it froze when the memtable filled.
//! A [`Checkpoint`] keeps what the runs do not: each stripe's memtable,
//! values and tombstones, and its run counter. It is written straight from
//! the locked stripes ([`write_index`]), so its cost is O(memtables), bounded by
//! `memtable_capacity` per stripe however large the index grows; a small
//! index's memtables are the whole index. Recovery, per stripe:
//!
//! 1. opens the runs its manifest lists, if the image counts any (an image
//!    with no runs means the memtable held the whole stripe, so anything
//!    under the stripe's name on the backend is ignored);
//! 2. installs the image's memtable *over* the runs;
//! 3. replays the journal suffix.
//!
//! Runs frozen after the checkpoint may hold a newer state of a key than
//! the image does, and step 2 shadows it with the older one. The journal
//! record of the mutation that produced the newer state follows the
//! checkpoint, so step 3 writes it back: records carry absolute
//! post-states.
//!
//! The framing (length prefix, CRC, torn-tail detection, segments, epochs)
//! lives one layer down in [`cdstore_storage::journal`]; this module only
//! defines the payloads.

use std::borrow::Cow;

use cdstore_crypto::Fingerprint;
use cdstore_index::sharded::DEFAULT_SHARDS;
use cdstore_index::{FileEntry, FileKey, Sharded, ShareEntry, StripeImage};

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
                let body = rest.get(4..)?;
                let key = body.get(..klen)?.to_vec().into();
                let value = body.get(klen..)?.to_vec().into();
                Some(MetaRecord::MapPut { key, value })
            }
            TAG_MAP_DELETE => Some(MetaRecord::MapDelete {
                key: rest.to_vec().into(),
            }),
            _ => None,
        }
    }
}

/// Format version of a checkpoint blob. The blob is this tag followed by
/// the [`DEFAULT_SHARDS`] stripe images of the share index, the file index
/// and the ownership map, in that order, each laid out as
///
/// ```text
/// runs_written: u64 | entries: u64 | entry*
/// entry: key_len: u32 | key | 1 | value_len: u32 | value     (a value)
///        key_len: u32 | key | 0                              (a tombstone)
/// ```
///
/// all integers big-endian.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Bytes of the smallest encoded entry (an empty key's tombstone).
const MIN_ENTRY_BYTES: usize = 5;

/// A decoded checkpoint: what the server's three indexes held beyond their
/// runs when it committed — each stripe's memtable and run counter. The
/// server writes the blob straight from its locked stripes
/// ([`write_index`]); this type is the read side. The default is blank:
/// three empty indexes, none of which has frozen a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// One image per share-index stripe.
    pub shares: [StripeImage; DEFAULT_SHARDS],
    /// One image per file-index stripe.
    pub files: [StripeImage; DEFAULT_SHARDS],
    /// One image per ownership-map stripe.
    pub mappings: [StripeImage; DEFAULT_SHARDS],
}

/// Appends one stripe image.
fn write_stripe<'a>(
    out: &mut Vec<u8>,
    runs_written: u64,
    entries: impl ExactSizeIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
) {
    out.extend_from_slice(&runs_written.to_be_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_be_bytes());
    for (key, value) in entries {
        out.extend_from_slice(&(key.len() as u32).to_be_bytes());
        out.extend_from_slice(key);
        match value {
            Some(value) => {
                out.push(1);
                out.extend_from_slice(&(value.len() as u32).to_be_bytes());
                out.extend_from_slice(value);
            }
            None => out.push(0),
        }
    }
}

/// Appends the stripe images of `index`, each written under its stripe's
/// lock, and returns the number of memtable entries written.
pub fn write_index<V>(out: &mut Vec<u8>, index: &Sharded<V>) -> usize {
    let mut entries = 0;
    index.for_each_stripe(|stripe| {
        entries += stripe.memtable().len();
        write_stripe(out, stripe.runs_written(), stripe.memtable());
    });
    entries
}

/// Reads one stripe image off the front of `bytes`. Every count is checked
/// against the bytes left before anything is allocated for it.
fn read_stripe(bytes: &mut Cursor<'_>) -> Option<StripeImage> {
    let runs_written = bytes.u64()?;
    let count = usize::try_from(bytes.u64()?).ok()?;
    if count > bytes.0.len() / MIN_ENTRY_BYTES {
        return None;
    }
    let mut memtable = Vec::with_capacity(count);
    for _ in 0..count {
        let key_len = bytes.u32()? as usize;
        let key = bytes.take(key_len)?.to_vec();
        let value = match bytes.take(1)? {
            [0] => None,
            [1] => {
                let len = bytes.u32()? as usize;
                Some(bytes.take(len)?.to_vec())
            }
            _ => return None,
        };
        memtable.push((key, value));
    }
    Some(StripeImage {
        runs_written,
        memtable,
    })
}

impl Checkpoint {
    /// Serialises the checkpoint into a blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = CHECKPOINT_VERSION.to_be_bytes().to_vec();
        for image in [&self.shares, &self.files, &self.mappings]
            .into_iter()
            .flatten()
        {
            let entries = image.memtable.iter();
            let entries = entries.map(|(k, v)| (k.as_slice(), v.as_deref()));
            write_stripe(&mut out, image.runs_written, entries);
        }
        out
    }

    /// Parses a checkpoint blob (`None` if malformed — the blob's integrity
    /// checksum lives one layer down, so `None` here means a format
    /// mismatch, not bit rot).
    pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        let mut cursor = Cursor(bytes);
        if cursor.u32()? != CHECKPOINT_VERSION {
            return None;
        }
        let mut index = || -> Option<[StripeImage; DEFAULT_SHARDS]> {
            let images: Option<Vec<_>> = (0..DEFAULT_SHARDS)
                .map(|_| read_stripe(&mut cursor))
                .collect();
            images?.try_into().ok()
        };
        let checkpoint = Checkpoint {
            shares: index()?,
            files: index()?,
            mappings: index()?,
        };
        cursor.0.is_empty().then_some(checkpoint)
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
    use proptest::prelude::*;

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

    /// A checkpoint with values and tombstones in stripes of every index.
    fn checkpoint() -> Checkpoint {
        let mut checkpoint = Checkpoint::default();
        checkpoint.shares[0] = StripeImage {
            runs_written: 0,
            memtable: vec![
                (fp(1).as_bytes().to_vec(), Some(share_entry(1).to_bytes())),
                (fp(2).as_bytes().to_vec(), Some(share_entry(9).to_bytes())),
            ],
        };
        checkpoint.files[3] = StripeImage {
            runs_written: 7,
            memtable: vec![
                (
                    FileKey::new(1, b"/x").as_bytes().to_vec(),
                    Some(file_entry(2).to_bytes()),
                ),
                (FileKey::new(1, b"/y").as_bytes().to_vec(), None),
            ],
        };
        checkpoint.mappings[15] = StripeImage {
            runs_written: 1,
            memtable: vec![(vec![1; 40], Some(vec![2; 32])), (b"k".to_vec(), None)],
        };
        checkpoint
    }

    #[test]
    fn snapshots_round_trip() {
        let checkpoint = checkpoint();
        assert_eq!(Checkpoint::decode(&checkpoint.encode()), Some(checkpoint));
        let blank = Checkpoint::default();
        assert_eq!(Checkpoint::decode(&blank.encode()), Some(blank));
    }

    #[test]
    fn snapshot_decode_rejects_corruption() {
        let bytes = checkpoint().encode();
        // Truncations and version mismatches are rejected at every cut.
        for cut in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut wrong_version = bytes.clone();
        wrong_version[3] = 9;
        assert!(Checkpoint::decode(&wrong_version).is_none());
        // Trailing garbage is rejected too.
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Checkpoint::decode(&trailing).is_none());
    }

    #[test]
    fn maximal_counts_decode_to_none() {
        // A first stripe claiming u64::MAX entries, then u32::MAX-byte keys
        // and values: each is refused against the bytes left.
        let mut blob = CHECKPOINT_VERSION.to_be_bytes().to_vec();
        blob.extend_from_slice(&0u64.to_be_bytes());
        blob.extend_from_slice(&u64::MAX.to_be_bytes());
        blob.extend_from_slice(&[0; 64]);
        assert_eq!(Checkpoint::decode(&blob), None);
        let mut blob = CHECKPOINT_VERSION.to_be_bytes().to_vec();
        blob.extend_from_slice(&0u64.to_be_bytes());
        blob.extend_from_slice(&1u64.to_be_bytes());
        blob.extend_from_slice(&u32::MAX.to_be_bytes());
        blob.extend_from_slice(&[0; 64]);
        assert_eq!(Checkpoint::decode(&blob), None);
        let mut blob = CHECKPOINT_VERSION.to_be_bytes().to_vec();
        blob.extend_from_slice(&0u64.to_be_bytes());
        blob.extend_from_slice(&1u64.to_be_bytes());
        blob.extend_from_slice(&0u32.to_be_bytes());
        blob.push(1);
        blob.extend_from_slice(&u32::MAX.to_be_bytes());
        blob.extend_from_slice(&[0; 64]);
        assert_eq!(Checkpoint::decode(&blob), None);

        // A map put whose key claims u32::MAX bytes, and a share entry
        // claiming u32::MAX owners.
        let mut record = vec![TAG_MAP_PUT];
        record.extend_from_slice(&u32::MAX.to_be_bytes());
        record.extend_from_slice(&[0; 64]);
        assert_eq!(MetaRecord::decode(&record), None);
        let mut record = vec![TAG_SHARE_UPSERT];
        record.extend_from_slice(fp(1).as_bytes());
        record.extend_from_slice(&[0; 16]);
        record.extend_from_slice(&u32::MAX.to_be_bytes());
        record.extend_from_slice(&[0; 24]);
        assert_eq!(MetaRecord::decode(&record), None);
    }

    /// Hostile-input cases: a quick pass under `cargo test`, thousands in
    /// release builds.
    const HOSTILE_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 4096 };

    /// One valid record of each tag, chosen by `pick`.
    fn record(pick: u8) -> Vec<u8> {
        match pick % 6 {
            0 => MetaRecord::ShareUpsert {
                fp: fp(1),
                entry: Cow::Owned(share_entry(3)),
            },
            1 => MetaRecord::ShareDelete { fp: fp(2) },
            2 => MetaRecord::FileUpsert {
                key: FileKey::new(1, b"/a"),
                entry: file_entry(5),
            },
            3 => MetaRecord::FileDelete {
                key: FileKey::new(2, b"/b"),
            },
            4 => MetaRecord::MapPut {
                key: b"owner-key".as_slice().into(),
                value: b"server-fp".as_slice().into(),
            },
            _ => MetaRecord::MapDelete {
                key: b"owner-key".as_slice().into(),
            },
        }
        .encode()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(HOSTILE_CASES))]

        #[test]
        fn arbitrary_checkpoint_bytes_decode_to_none_or_their_own_bytes(
            body in proptest::collection::vec(any::<u8>(), 0..1200),
        ) {
            let mut bytes = CHECKPOINT_VERSION.to_be_bytes().to_vec();
            bytes.extend_from_slice(&body);
            if let Some(checkpoint) = Checkpoint::decode(&bytes) {
                prop_assert_eq!(checkpoint.encode(), bytes);
            }
        }

        #[test]
        fn one_mutated_checkpoint_byte_decodes_to_none_or_its_own_bytes(
            at in any::<u32>(),
            value in any::<u8>(),
        ) {
            let mut bytes = checkpoint().encode();
            let at = at as usize % bytes.len();
            bytes[at] = value;
            if let Some(checkpoint) = Checkpoint::decode(&bytes) {
                prop_assert_eq!(checkpoint.encode(), bytes);
            }
        }

        #[test]
        fn arbitrary_record_bytes_decode_to_none_or_their_own_bytes(
            tag in any::<u8>(),
            body in proptest::collection::vec(any::<u8>(), 0..120),
        ) {
            let mut bytes = vec![tag % 8];
            bytes.extend_from_slice(&body);
            if let Some(record) = MetaRecord::decode(&bytes) {
                prop_assert_eq!(record.encode(), bytes);
            }
        }

        #[test]
        fn one_mutated_record_byte_decodes_to_none_or_its_own_bytes(
            pick in any::<u8>(),
            at in any::<u32>(),
            value in any::<u8>(),
        ) {
            let mut bytes = record(pick);
            let at = at as usize % bytes.len();
            bytes[at] = value;
            if let Some(record) = MetaRecord::decode(&bytes) {
                prop_assert_eq!(record.encode(), bytes);
            }
        }
    }
}
