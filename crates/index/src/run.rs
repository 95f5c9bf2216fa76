//! On-disk sorted runs of the disk-resident [`crate::KvStore`].
//!
//! Each frozen run is one backend object of CRC-framed data blocks followed
//! by a persisted Bloom filter, a fence-pointer section, and a fixed-size
//! footer — the same framing discipline (`len | crc32 | payload`, torn-tail
//! detectable) as the metadata journal in `cdstore_storage::journal`:
//!
//! ```text
//! idx-{name}-r-{seq:016x}:
//!   [framed block]*          sorted (key, value-or-tombstone) entries
//!   [framed bloom]           BloomFilter::to_bytes
//!   [framed fence]           per-block (offset, len, entries, first_key)
//!   footer (44 bytes)        "CDRN" ver bloom_off/len fence_off/len crc
//! ```
//!
//! The run set itself is described by a manifest object (`idx-{name}-mf`),
//! written atomically with `put` *after* the runs it lists are durable, so a
//! crash can tear a run object's appended tail but never the manifest: the
//! old manifest simply keeps describing the old run set. Runs present on the
//! backend but absent from the manifest are orphans from an interrupted
//! flush/compaction and are swept on open.
//!
//! Reads hold only the bloom filter and fence pointers in memory; block
//! payloads are fetched with `StorageBackend::read_range` through the
//! caller's byte-bounded block cache.

use std::sync::Arc;

use cdstore_crypto::crc32::crc32;
use cdstore_storage::{LruCache, StorageBackend, StorageError};

use crate::bloom::BloomFilter;

/// Format version stamped into run footers and manifests.
const RUN_VERSION: u32 = 1;

/// Magic tag of a run footer.
const RUN_MAGIC: &[u8; 4] = b"CDRN";

/// Magic tag of a manifest object.
const MANIFEST_MAGIC: &[u8; 4] = b"CDMF";

/// Size of the fixed run footer.
const FOOTER_BYTES: usize = 44;

/// Size of a `len | crc32` frame header.
const FRAME_HEADER: usize = 8;

/// Pending writer bytes are appended to the backend in chunks of this size,
/// so building a run never buffers more than ~1 MB regardless of run size.
const APPEND_CHUNK: usize = 1024 * 1024;

/// Key prefix shared by every on-disk index object (runs and manifests) —
/// the third key family on a server backend, next to `container-` and
/// `meta-`.
pub(crate) const INDEX_KEY_PREFIX: &str = "idx-";

/// Backend key of a run object.
pub(crate) fn run_key(name: &str, seq: u64) -> String {
    format!("{INDEX_KEY_PREFIX}{name}-r-{seq:016x}")
}

/// Key prefix of all run objects of a named store.
pub(crate) fn run_key_prefix(name: &str) -> String {
    format!("{INDEX_KEY_PREFIX}{name}-r-")
}

/// Backend key of a named store's manifest.
pub(crate) fn manifest_key(name: &str) -> String {
    format!("{INDEX_KEY_PREFIX}{name}-mf")
}

/// Parses a run object key back into its sequence number.
pub(crate) fn parse_run_key(name: &str, key: &str) -> Option<u64> {
    u64::from_str_radix(key.strip_prefix(&run_key_prefix(name))?, 16).ok()
}

/// The block cache shared by all disk runs of one store: `(run seq, block
/// index)` → verified block payload.
pub(crate) type BlockCache = LruCache<(u64, u32), Arc<Vec<u8>>>;

fn corrupt(key: &str, what: &str) -> StorageError {
    StorageError::Corrupt(format!("{key}: {what}"))
}

/// Appends a `len | crc32 | payload` frame to `out`, returning the framed
/// length.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) -> usize {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    FRAME_HEADER + payload.len()
}

/// Verifies a full `len | crc32 | payload` frame and returns the payload.
fn unframe<'a>(framed: &'a [u8], key: &str) -> Result<&'a [u8], StorageError> {
    if framed.len() < FRAME_HEADER {
        return Err(corrupt(key, "truncated frame"));
    }
    let len = u32::from_le_bytes(framed[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(framed[4..8].try_into().expect("4 bytes"));
    let payload = framed
        .get(FRAME_HEADER..FRAME_HEADER + len)
        .ok_or_else(|| corrupt(key, "frame length out of range"))?;
    if crc32(payload) != crc {
        return Err(corrupt(key, "frame checksum mismatch"));
    }
    Ok(payload)
}

/// The manifest: which run objects are live, in age order (oldest first),
/// plus the allocator state and the live-key count of the run set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Next run sequence number to allocate.
    pub next_seq: u64,
    /// Live (non-tombstoned) keys across the listed runs. Valid because
    /// manifests are only written at flush/compaction boundaries, when the
    /// memtable is empty.
    pub live_keys: u64,
    /// Sequence numbers of the live runs, oldest first.
    pub run_seqs: Vec<u64>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(24 + self.run_seqs.len() * 8);
        payload.extend_from_slice(&RUN_VERSION.to_le_bytes());
        payload.extend_from_slice(&self.next_seq.to_le_bytes());
        payload.extend_from_slice(&self.live_keys.to_le_bytes());
        payload.extend_from_slice(&(self.run_seqs.len() as u32).to_le_bytes());
        for seq in &self.run_seqs {
            payload.extend_from_slice(&seq.to_le_bytes());
        }
        let mut out = Vec::with_capacity(4 + FRAME_HEADER + payload.len());
        out.extend_from_slice(MANIFEST_MAGIC);
        frame_into(&mut out, &payload);
        out
    }

    fn decode(bytes: &[u8], key: &str) -> Result<Manifest, StorageError> {
        if bytes.len() < 4 || &bytes[0..4] != MANIFEST_MAGIC {
            return Err(corrupt(key, "bad manifest magic"));
        }
        let payload = unframe(&bytes[4..], key)?;
        if payload.len() < 24 {
            return Err(corrupt(key, "manifest too short"));
        }
        let version = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
        if version != RUN_VERSION {
            return Err(corrupt(key, "unsupported manifest version"));
        }
        let next_seq = u64::from_le_bytes(payload[4..12].try_into().expect("8 bytes"));
        let live_keys = u64::from_le_bytes(payload[12..20].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(payload[20..24].try_into().expect("4 bytes")) as usize;
        if payload.len() != 24 + count * 8 {
            return Err(corrupt(key, "manifest run list truncated"));
        }
        let run_seqs = payload[24..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Ok(Manifest {
            next_seq,
            live_keys,
            run_seqs,
        })
    }

    /// Atomically publishes this manifest (plain `put`: the backends'
    /// write-temp-then-rename/replace discipline makes it all-or-nothing).
    pub fn write(&self, backend: &dyn StorageBackend, name: &str) -> Result<(), StorageError> {
        backend.put(&manifest_key(name), &self.encode())
    }

    /// Loads the manifest of a named store; `Ok(None)` when the store was
    /// never flushed (no manifest object).
    pub fn read(
        backend: &dyn StorageBackend,
        name: &str,
    ) -> Result<Option<Manifest>, StorageError> {
        let key = manifest_key(name);
        match backend.get(&key) {
            Ok(bytes) => Ok(Some(Self::decode(&bytes, &key)?)),
            Err(StorageError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Fence pointer of one data block.
#[derive(Debug, Clone)]
struct BlockMeta {
    /// Byte offset of the framed block within the run object.
    offset: u64,
    /// Framed length (header included).
    len: u32,
    /// First key in the block.
    first_key: Vec<u8>,
}

/// An immutable on-disk run: its resident metadata (fence pointers) plus
/// enough accounting to drive compaction. The Bloom filter lives alongside
/// in the owning store's `Run`.
pub(crate) struct RunHandle {
    key: String,
    seq: u64,
    blocks: Vec<BlockMeta>,
    entry_count: u64,
    #[cfg_attr(not(test), allow(dead_code))]
    tombstones: u64,
    /// Size of the whole run object (the compaction cost metric).
    total_bytes: u64,
}

impl RunHandle {
    /// The run's sequence number (also its block-cache namespace).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Entries in the run, tombstones included.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Tombstone entries in the run.
    #[cfg(test)]
    pub fn tombstones(&self) -> u64 {
        self.tombstones
    }

    /// Size of the backing object in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The backend object key.
    pub fn object_key(&self) -> &str {
        &self.key
    }

    /// Resident metadata footprint: fence-pointer keys and bookkeeping.
    pub fn meta_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.first_key.len() + 24)
            .sum::<usize>()
    }

    /// Loads a run's metadata (footer, bloom, fence pointers) from the
    /// backend, verifying every checksum. A torn or corrupt object fails
    /// here — block payloads are verified lazily on first read.
    pub fn load(
        backend: &dyn StorageBackend,
        name: &str,
        seq: u64,
    ) -> Result<(RunHandle, BloomFilter), StorageError> {
        let key = run_key(name, seq);
        let total = backend.object_size(&key)?;
        if (total as usize) < FOOTER_BYTES {
            return Err(corrupt(&key, "object shorter than footer"));
        }
        let footer = backend.read_range(&key, total - FOOTER_BYTES as u64, FOOTER_BYTES)?;
        if &footer[0..4] != RUN_MAGIC {
            return Err(corrupt(&key, "bad footer magic"));
        }
        let crc = u32::from_le_bytes(footer[40..44].try_into().expect("4 bytes"));
        if crc32(&footer[0..40]) != crc {
            return Err(corrupt(&key, "footer checksum mismatch"));
        }
        let version = u32::from_le_bytes(footer[4..8].try_into().expect("4 bytes"));
        if version != RUN_VERSION {
            return Err(corrupt(&key, "unsupported run version"));
        }
        let bloom_off = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
        let bloom_len = u64::from_le_bytes(footer[16..24].try_into().expect("8 bytes"));
        let fence_off = u64::from_le_bytes(footer[24..32].try_into().expect("8 bytes"));
        let fence_len = u64::from_le_bytes(footer[32..40].try_into().expect("8 bytes"));
        let sections_end = fence_off.checked_add(fence_len);
        if bloom_off.checked_add(bloom_len) != Some(fence_off)
            || sections_end != Some(total - FOOTER_BYTES as u64)
        {
            return Err(corrupt(&key, "inconsistent footer offsets"));
        }
        let bloom_framed = backend.read_range(&key, bloom_off, bloom_len as usize)?;
        let bloom = BloomFilter::from_bytes(unframe(&bloom_framed, &key)?)
            .ok_or_else(|| corrupt(&key, "malformed bloom section"))?;
        let fence_framed = backend.read_range(&key, fence_off, fence_len as usize)?;
        let fence = unframe(&fence_framed, &key)?;
        if fence.len() < 20 {
            return Err(corrupt(&key, "fence section too short"));
        }
        let entry_count = u64::from_le_bytes(fence[0..8].try_into().expect("8 bytes"));
        let tombstones = u64::from_le_bytes(fence[8..16].try_into().expect("8 bytes"));
        let block_count = u32::from_le_bytes(fence[16..20].try_into().expect("4 bytes")) as usize;
        // A count the fence cannot hold is corrupt, not an allocation size.
        if block_count > (fence.len() - 20) / 16 {
            return Err(corrupt(&key, "fence block count out of range"));
        }
        let mut blocks = Vec::with_capacity(block_count);
        let mut cursor = 20usize;
        let mut next_offset = 0u64;
        for _ in 0..block_count {
            let head = fence
                .get(cursor..cursor + 16)
                .ok_or_else(|| corrupt(&key, "fence entry truncated"))?;
            let offset = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
            let klen = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes")) as usize;
            cursor += 16;
            let first_key = fence
                .get(cursor..cursor + klen)
                .ok_or_else(|| corrupt(&key, "fence key truncated"))?
                .to_vec();
            cursor += klen;
            // Blocks must tile the data region exactly.
            if offset != next_offset {
                return Err(corrupt(&key, "fence offsets not contiguous"));
            }
            next_offset = offset + len as u64;
            blocks.push(BlockMeta {
                offset,
                len,
                first_key,
            });
        }
        if cursor != fence.len() || next_offset != bloom_off {
            return Err(corrupt(&key, "fence does not cover the data region"));
        }
        Ok((
            RunHandle {
                key,
                seq,
                blocks,
                entry_count,
                tombstones,
                total_bytes: total,
            },
            bloom,
        ))
    }

    /// Fetches and verifies one block's payload, through the cache.
    fn block(
        &self,
        backend: &dyn StorageBackend,
        cache: &mut BlockCache,
        idx: usize,
    ) -> Result<Arc<Vec<u8>>, StorageError> {
        let cache_key = (self.seq, idx as u32);
        if let Some(payload) = cache.get(&cache_key) {
            return Ok(payload.clone());
        }
        let meta = &self.blocks[idx];
        let framed = backend.read_range(&self.key, meta.offset, meta.len as usize)?;
        let payload = Arc::new(unframe(&framed, &self.key)?.to_vec());
        cache.put(cache_key, payload.clone(), payload.len());
        Ok(payload)
    }

    /// Index of the block that could contain `key`, if any.
    fn block_for(&self, key: &[u8]) -> Option<usize> {
        let idx = self
            .blocks
            .partition_point(|b| b.first_key.as_slice() <= key);
        idx.checked_sub(1)
    }

    /// Point lookup. `Ok(None)` means the run has no entry for the key;
    /// `Ok(Some(None))` is a tombstone.
    pub fn get(
        &self,
        backend: &dyn StorageBackend,
        cache: &mut BlockCache,
        key: &[u8],
    ) -> Result<Option<Option<Vec<u8>>>, StorageError> {
        let Some(idx) = self.block_for(key) else {
            return Ok(None);
        };
        let payload = self.block(backend, cache, idx)?;
        for entry in BlockEntries::new(&payload, &self.key) {
            let (k, v) = entry?;
            match k.cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => return Ok(Some(v.map(|v| v.to_vec()))),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Streams the whole run oldest-to-newest key order, bypassing the block
    /// cache (sequential merge/snapshot traffic would only thrash it).
    pub fn iter<'a>(&'a self, backend: &'a dyn StorageBackend) -> RunIter<'a> {
        RunIter {
            handle: self,
            backend,
            next_block: 0,
            block: Vec::new(),
            cursor: 0,
            failed: false,
        }
    }

    /// Streams entries with keys `>= start`, seeking via the fence pointers
    /// so earlier blocks are never read.
    pub fn iter_from<'a>(&'a self, backend: &'a dyn StorageBackend, start: &[u8]) -> RunIter<'a> {
        let first_block = self.block_for(start).unwrap_or(0);
        RunIter {
            handle: self,
            backend,
            next_block: first_block,
            block: Vec::new(),
            cursor: 0,
            failed: false,
        }
    }
}

/// Parses the entries of one block payload:
/// `klen u32 | flag u8 | vlen u32 | key | value` per entry.
struct BlockEntries<'a> {
    payload: &'a [u8],
    cursor: usize,
    key: &'a str,
}

impl<'a> BlockEntries<'a> {
    fn new(payload: &'a [u8], key: &'a str) -> Self {
        BlockEntries {
            payload,
            cursor: 0,
            key,
        }
    }
}

impl<'a> Iterator for BlockEntries<'a> {
    type Item = Result<(&'a [u8], Option<&'a [u8]>), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.payload.len() {
            return None;
        }
        match parse_entry(self.payload, self.cursor) {
            Ok((k, v, next)) => {
                self.cursor = next;
                Some(Ok((k, v)))
            }
            Err(()) => {
                self.cursor = self.payload.len();
                Some(Err(corrupt(self.key, "malformed block entry")))
            }
        }
    }
}

/// Parses one entry at `cursor`, returning `(key, value, next_cursor)`.
#[allow(clippy::type_complexity)]
fn parse_entry(payload: &[u8], cursor: usize) -> Result<(&[u8], Option<&[u8]>, usize), ()> {
    let head = payload.get(cursor..cursor + 9).ok_or(())?;
    let klen = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    let flag = head[4];
    let vlen = u32::from_le_bytes(head[5..9].try_into().expect("4 bytes")) as usize;
    let key_start = cursor + 9;
    let key = payload.get(key_start..key_start + klen).ok_or(())?;
    let val_start = key_start + klen;
    let value = match flag {
        0 if vlen == 0 => None,
        1 => Some(payload.get(val_start..val_start + vlen).ok_or(())?),
        _ => return Err(()),
    };
    Ok((key, value, val_start + vlen))
}

/// Streaming iterator over a run's entries (one block resident at a time).
pub(crate) struct RunIter<'a> {
    handle: &'a RunHandle,
    backend: &'a dyn StorageBackend,
    next_block: usize,
    block: Vec<u8>,
    cursor: usize,
    failed: bool,
}

impl Iterator for RunIter<'_> {
    type Item = Result<(Vec<u8>, Option<Vec<u8>>), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if self.cursor < self.block.len() {
                match parse_entry(&self.block, self.cursor) {
                    Ok((k, v, next)) => {
                        self.cursor = next;
                        return Some(Ok((k.to_vec(), v.map(|v| v.to_vec()))));
                    }
                    Err(()) => {
                        self.failed = true;
                        return Some(Err(corrupt(&self.handle.key, "malformed block entry")));
                    }
                }
            }
            let meta = self.handle.blocks.get(self.next_block)?;
            self.next_block += 1;
            self.cursor = 0;
            let framed =
                match self
                    .backend
                    .read_range(&self.handle.key, meta.offset, meta.len as usize)
                {
                    Ok(framed) => framed,
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                };
            match unframe(&framed, &self.handle.key) {
                Ok(payload) => self.block = payload.to_vec(),
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Streaming writer producing one run object through batched appends: memory
/// stays bounded by `APPEND_CHUNK` + one block however large the run grows.
pub(crate) struct RunWriter<'a> {
    backend: &'a dyn StorageBackend,
    name: String,
    seq: u64,
    key: String,
    block_bytes: usize,
    bloom: BloomFilter,
    /// Bytes framed but not yet appended to the backend.
    pending: Vec<u8>,
    /// Object offset where the next sealed block will land.
    offset: u64,
    block: Vec<u8>,
    block_first_key: Vec<u8>,
    blocks: Vec<BlockMeta>,
    entry_count: u64,
    #[cfg_attr(not(test), allow(dead_code))]
    tombstones: u64,
}

impl<'a> RunWriter<'a> {
    /// Starts a run object. Any stale object under the same key (an orphan
    /// from an interrupted earlier write) is deleted first, since the writer
    /// appends.
    pub fn new(
        backend: &'a dyn StorageBackend,
        name: &str,
        seq: u64,
        block_bytes: usize,
        expected_entries: usize,
        bloom_bits_per_key: usize,
    ) -> Result<Self, StorageError> {
        let key = run_key(name, seq);
        backend.delete(&key)?;
        Ok(RunWriter {
            backend,
            name: name.to_string(),
            seq,
            key,
            block_bytes: block_bytes.max(256),
            bloom: BloomFilter::new(expected_entries, bloom_bits_per_key),
            pending: Vec::new(),
            offset: 0,
            block: Vec::new(),
            block_first_key: Vec::new(),
            blocks: Vec::new(),
            entry_count: 0,
            tombstones: 0,
        })
    }

    /// Appends one entry; keys must arrive in strictly ascending order.
    pub fn push(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(), StorageError> {
        if self.block.is_empty() {
            self.block_first_key = key.to_vec();
        }
        self.block
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        match value {
            Some(v) => {
                self.block.push(1);
                self.block
                    .extend_from_slice(&(v.len() as u32).to_le_bytes());
                self.block.extend_from_slice(key);
                self.block.extend_from_slice(v);
            }
            None => {
                self.block.push(0);
                self.block.extend_from_slice(&0u32.to_le_bytes());
                self.block.extend_from_slice(key);
                self.tombstones += 1;
            }
        }
        self.bloom.insert(key);
        self.entry_count += 1;
        if self.block.len() >= self.block_bytes {
            self.seal_block()?;
        }
        Ok(())
    }

    fn seal_block(&mut self) -> Result<(), StorageError> {
        if self.block.is_empty() {
            return Ok(());
        }
        let len = frame_into(&mut self.pending, &self.block) as u32;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            len,
            first_key: std::mem::take(&mut self.block_first_key),
        });
        self.offset += len as u64;
        self.block.clear();
        if self.pending.len() >= APPEND_CHUNK {
            self.backend.append(&self.key, &self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// Seals the run: flushes the last block, writes the bloom, fence, and
    /// footer sections, and reloads the run from the backend (so the caller
    /// gets exactly what a recovery would see). Returns `None` for an empty
    /// run — nothing was written and the object does not exist.
    pub fn finish(mut self) -> Result<Option<(RunHandle, BloomFilter)>, StorageError> {
        self.seal_block()?;
        if self.blocks.is_empty() {
            return Ok(None);
        }
        let bloom_off = self.offset;
        let bloom_len = frame_into(&mut self.pending, &self.bloom.to_bytes()) as u64;
        let fence_off = bloom_off + bloom_len;
        let mut fence = Vec::with_capacity(20 + self.blocks.len() * 24);
        fence.extend_from_slice(&self.entry_count.to_le_bytes());
        fence.extend_from_slice(&self.tombstones.to_le_bytes());
        fence.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for block in &self.blocks {
            fence.extend_from_slice(&block.offset.to_le_bytes());
            fence.extend_from_slice(&block.len.to_le_bytes());
            fence.extend_from_slice(&(block.first_key.len() as u32).to_le_bytes());
            fence.extend_from_slice(&block.first_key);
        }
        let fence_len = frame_into(&mut self.pending, &fence) as u64;
        let mut footer = Vec::with_capacity(FOOTER_BYTES);
        footer.extend_from_slice(RUN_MAGIC);
        footer.extend_from_slice(&RUN_VERSION.to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&bloom_len.to_le_bytes());
        footer.extend_from_slice(&fence_off.to_le_bytes());
        footer.extend_from_slice(&fence_len.to_le_bytes());
        let crc = crc32(&footer);
        footer.extend_from_slice(&crc.to_le_bytes());
        self.pending.extend_from_slice(&footer);
        self.backend.append(&self.key, &self.pending)?;
        RunHandle::load(self.backend, &self.name, self.seq).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_storage::MemoryBackend;

    fn entry(i: u32) -> (Vec<u8>, Option<Vec<u8>>) {
        let key = format!("key-{i:06}").into_bytes();
        if i.is_multiple_of(7) {
            (key, None)
        } else {
            (key, Some(format!("value-{i}").into_bytes()))
        }
    }

    fn write_run(backend: &MemoryBackend, n: u32) -> (RunHandle, BloomFilter) {
        let mut writer = RunWriter::new(backend, "t", 1, 512, n as usize, 10).unwrap();
        for i in 0..n {
            let (k, v) = entry(i);
            writer.push(&k, v.as_deref()).unwrap();
        }
        writer.finish().unwrap().unwrap()
    }

    #[test]
    fn round_trips_entries_blocks_and_metadata() {
        let backend = MemoryBackend::new();
        let (handle, bloom) = write_run(&backend, 500);
        assert_eq!(handle.entry_count(), 500);
        assert_eq!(
            handle.tombstones(),
            (0..500).filter(|i| i % 7 == 0).count() as u64
        );
        assert!(handle.blocks.len() > 1, "should span several blocks");
        assert!(bloom.may_contain(b"key-000001"));

        let mut cache: BlockCache = LruCache::new(1024 * 1024);
        for i in 0..500u32 {
            let (k, v) = entry(i);
            assert_eq!(handle.get(&backend, &mut cache, &k).unwrap(), Some(v));
        }
        assert_eq!(handle.get(&backend, &mut cache, b"absent").unwrap(), None);
        assert_eq!(handle.get(&backend, &mut cache, b"zzz").unwrap(), None);
        // A second pass over hot keys is all cache hits.
        let misses = cache.misses();
        for i in 0..500u32 {
            let (k, _) = entry(i);
            handle.get(&backend, &mut cache, &k).unwrap();
        }
        assert_eq!(cache.misses(), misses);
    }

    #[test]
    fn iter_streams_every_entry_in_order() {
        let backend = MemoryBackend::new();
        let (handle, _) = write_run(&backend, 300);
        let collected: Vec<_> = handle.iter(&backend).map(|r| r.unwrap()).collect();
        assert_eq!(collected.len(), 300);
        let expected: Vec<_> = (0..300).map(entry).collect();
        assert_eq!(collected, expected);
        // Seeked iteration starts within the right block.
        let from: Vec<_> = handle
            .iter_from(&backend, b"key-000250")
            .map(|r| r.unwrap())
            .filter(|(k, _)| k.as_slice() >= b"key-000250".as_slice())
            .collect();
        assert_eq!(from.len(), 50);
        assert_eq!(from[0].0, b"key-000250".to_vec());
    }

    #[test]
    fn truncated_objects_fail_to_load() {
        let backend = MemoryBackend::new();
        let (handle, _) = write_run(&backend, 200);
        let key = handle.object_key().to_string();
        let full = backend.get(&key).unwrap();
        // Every strict byte-prefix must be rejected at load time (the
        // footer is the last thing written, so any tear loses it).
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            backend.put(&key, &full[..cut]).unwrap();
            assert!(RunHandle::load(&backend, "t", 1).is_err(), "prefix {cut}");
        }
        // Flipping a footer byte is caught by the footer checksum.
        backend.put(&key, &full).unwrap();
        backend.corrupt(&key, full.len() - 10).unwrap();
        assert!(RunHandle::load(&backend, "t", 1).is_err());
    }

    #[test]
    fn a_hostile_fence_block_count_is_corrupt_not_an_allocation() {
        let backend = MemoryBackend::new();
        let (handle, _) = write_run(&backend, 200);
        let key = handle.object_key().to_string();
        let mut bytes = backend.get(&key).unwrap();
        // Claim u32::MAX blocks under a valid fence checksum: this once
        // reserved 160 GiB up front and aborted the process.
        let footer = bytes.len() - FOOTER_BYTES;
        let fence_off = u64::from_le_bytes(bytes[footer + 24..footer + 32].try_into().unwrap());
        let fence = fence_off as usize + FRAME_HEADER;
        let fence_len = u32::from_le_bytes(bytes[fence - 8..fence - 4].try_into().unwrap());
        bytes[fence + 16..fence + 20].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes[fence..fence + fence_len as usize]);
        bytes[fence - 4..fence].copy_from_slice(&crc.to_le_bytes());
        backend.put(&key, &bytes).unwrap();
        assert!(matches!(
            RunHandle::load(&backend, "t", 1),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_blocks_are_caught_on_read() {
        let backend = MemoryBackend::new();
        let (handle, _) = write_run(&backend, 200);
        // Flip a byte in the first data block (well before bloom/fence).
        backend.corrupt(handle.object_key(), 20).unwrap();
        let (reloaded, _) = RunHandle::load(&backend, "t", 1).unwrap();
        let mut cache: BlockCache = LruCache::new(1024 * 1024);
        assert!(matches!(
            reloaded.get(&backend, &mut cache, b"key-000001"),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let backend = MemoryBackend::new();
        assert_eq!(Manifest::read(&backend, "t").unwrap(), None);
        let manifest = Manifest {
            next_seq: 17,
            live_keys: 123_456,
            run_seqs: vec![3, 9, 16],
        };
        manifest.write(&backend, "t").unwrap();
        assert_eq!(Manifest::read(&backend, "t").unwrap(), Some(manifest));
        backend.corrupt(&manifest_key("t"), 15).unwrap();
        assert!(Manifest::read(&backend, "t").is_err());
    }

    #[test]
    fn key_helpers_round_trip() {
        assert_eq!(run_key("share-00", 255), "idx-share-00-r-00000000000000ff");
        assert_eq!(
            parse_run_key("share-00", &run_key("share-00", 255)),
            Some(255)
        );
        assert_eq!(parse_run_key("share-00", "idx-share-01-r-00"), None);
        assert_eq!(parse_run_key("share-00", &manifest_key("share-00")), None);
    }

    #[test]
    fn empty_runs_write_nothing() {
        let backend = MemoryBackend::new();
        let writer = RunWriter::new(&backend, "t", 5, 512, 0, 10).unwrap();
        assert!(writer.finish().unwrap().is_none());
        assert!(!backend.exists(&run_key("t", 5)).unwrap());
    }

    /// Hostile-input cases: a quick pass under `cargo test`, thousands in
    /// release builds.
    const HOSTILE_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 4096 };

    /// One block entry as `RunWriter::push` lays it out.
    fn entry_bytes(key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
        let mut out = (key.len() as u32).to_le_bytes().to_vec();
        out.push(value.is_some() as u8);
        out.extend_from_slice(&(value.map_or(0, <[u8]>::len) as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(value.unwrap_or_default());
        out
    }

    /// Parses a block payload: its entries re-encoded, and whether the
    /// parser stopped at a malformed one.
    fn reparse(payload: &[u8]) -> (Vec<u8>, bool) {
        let mut bytes = Vec::new();
        for parsed in BlockEntries::new(payload, "t") {
            match parsed {
                Ok((k, v)) => bytes.extend_from_slice(&entry_bytes(k, v)),
                Err(StorageError::Corrupt(_)) => return (bytes, true),
                Err(e) => panic!("untyped error {e}"),
            }
        }
        (bytes, false)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(HOSTILE_CASES))]

        // Behind a valid frame and, mostly, the version: the decoder reads
        // the count and the run list.
        #[test]
        fn arbitrary_manifest_payloads_fail_typed_or_decode_to_their_own_bytes(
            body in proptest::collection::vec(proptest::any::<u8>(), 0..100),
            count in 0u32..10,
            versioned: bool,
        ) {
            let mut payload = if versioned { RUN_VERSION.to_le_bytes().to_vec() } else { Vec::new() };
            payload.extend_from_slice(&body);
            if payload.len() >= 24 {
                payload[20..24].copy_from_slice(&count.to_le_bytes());
            }
            let mut bytes = MANIFEST_MAGIC.to_vec();
            frame_into(&mut bytes, &payload);
            match Manifest::decode(&bytes, "m") {
                Ok(manifest) => proptest::prop_assert_eq!(manifest.encode(), bytes),
                Err(e) => proptest::prop_assert!(matches!(e, StorageError::Corrupt(_))),
            }
        }

        #[test]
        fn one_mutated_manifest_byte_is_corrupt(
            run_seqs in proptest::collection::vec(proptest::any::<u64>(), 0..10),
            next_seq: u64,
            at: u32,
            value: u8,
        ) {
            let manifest = Manifest { next_seq, live_keys: next_seq / 3, run_seqs };
            let mut bytes = manifest.encode();
            let at = at as usize % bytes.len();
            let unchanged = bytes[at] == value;
            bytes[at] = value;
            match Manifest::decode(&bytes, "m") {
                Ok(decoded) => proptest::prop_assert!(unchanged && decoded == manifest),
                Err(e) => proptest::prop_assert!(!unchanged && matches!(e, StorageError::Corrupt(_))),
            }
        }

        // Every byte of a run is checksummed: one changed byte fails the
        // load, or — in a data block, checked lazily — the read of that
        // block. Whatever is served before is the run's own entries.
        #[test]
        fn one_mutated_run_byte_fails_typed_or_serves_its_own_entries(
            n in 1u32..120,
            at: u32,
            value: u8,
        ) {
            let backend = MemoryBackend::new();
            let (handle, _) = write_run(&backend, n);
            let key = handle.object_key().to_string();
            let mut bytes = backend.get(&key).unwrap();
            let at = at as usize % bytes.len();
            let unchanged = bytes[at] == value;
            bytes[at] = value;
            backend.put(&key, &bytes).unwrap();
            let expected: Vec<_> = (0..n).map(entry).collect();
            let handle = match RunHandle::load(&backend, "t", 1) {
                Ok((handle, _)) => handle,
                Err(e) => {
                    proptest::prop_assert!(!unchanged && matches!(e, StorageError::Corrupt(_)));
                    return Ok(());
                }
            };
            let mut read = Vec::new();
            let mut failed = false;
            for item in handle.iter(&backend) {
                match item {
                    Ok(entry) => read.push(entry),
                    Err(e) => {
                        proptest::prop_assert!(matches!(e, StorageError::Corrupt(_)));
                        failed = true;
                    }
                }
            }
            proptest::prop_assert_eq!(&read[..], &expected[..read.len()]);
            proptest::prop_assert_eq!(failed, !unchanged);
            let mut cache: BlockCache = LruCache::new(1 << 20);
            for (k, v) in &expected {
                match handle.get(&backend, &mut cache, k) {
                    Ok(found) => proptest::prop_assert_eq!(found.as_ref(), Some(v)),
                    Err(e) => proptest::prop_assert!(!unchanged && matches!(e, StorageError::Corrupt(_))),
                }
            }
        }

        // The block entry parser, under the checksum: whole entries of its
        // own bytes, in order, then the end or a typed error.
        #[test]
        fn arbitrary_block_bytes_parse_to_their_own_entries_or_corrupt(
            entries in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::any::<u8>(), 0..8),
                    proptest::option::of(proptest::collection::vec(proptest::any::<u8>(), 0..8)),
                ),
                0..8,
            ),
            noise in proptest::collection::vec(proptest::any::<u8>(), 0..40),
            at: u32,
            value: u8,
        ) {
            let mut payload: Vec<u8> = entries
                .iter()
                .flat_map(|(k, v)| entry_bytes(k, v.as_deref()))
                .collect();
            let (reparsed, failed) = reparse(&payload);
            proptest::prop_assert!(!failed && reparsed == payload);
            // One byte changed, then arbitrary bytes appended.
            if !payload.is_empty() {
                let at = at as usize % payload.len();
                payload[at] = value;
            }
            payload.extend_from_slice(&noise);
            let (reparsed, failed) = reparse(&payload);
            proptest::prop_assert!(payload.starts_with(&reparsed));
            proptest::prop_assert_eq!(failed, reparsed.len() < payload.len());
        }
    }
}
