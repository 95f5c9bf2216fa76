//! The durable metadata journal: a write-ahead log plus periodic
//! checkpoints, persisted through the [`StorageBackend`] trait.
//!
//! A CDStore server keeps its share index, file index, and ownership
//! mappings in memory for speed; this module is what makes them survive a
//! process crash. Every index mutation appends one length-prefixed,
//! CRC-checksummed record to the journal *before* the operation is
//! acknowledged, and a periodic checkpoint persists a full snapshot of the
//! state so recovery replays only the journal suffix written since.
//!
//! # On-backend layout
//!
//! The journal lives next to the containers in the server's backend, under
//! two reserved key families (container keys start with `container-`, so the
//! families never collide):
//!
//! * `meta-ckpt-{epoch}` — one checkpoint object per epoch: a framed,
//!   checksummed snapshot blob supplied by the caller.
//! * `meta-wal-{epoch}-{segment}` — the write-ahead log of the epoch, split
//!   into bounded segments so a single object never grows without limit.
//!
//! Committing checkpoint `e+1` atomically supersedes epoch `e`: recovery
//! always starts from the *newest checkpoint that passes its checksum* and
//! replays only `meta-wal-{e+1}-*`. Stale epochs are deleted after the new
//! checkpoint is durable; leftovers from a crash inside `commit_checkpoint`
//! are ignored by recovery and swept by the next checkpoint.
//!
//! # Record framing and torn tails
//!
//! Each record is framed as `len: u32 LE | crc32(payload): u32 LE | payload`.
//! A host crash can tear the final append (a partial frame at the end of the
//! last segment); [`Journal::load`] detects this via the length/checksum,
//! discards the rest of that *segment*, and reports `torn = true`. Anything
//! before the torn frame was fsynced in order (see
//! [`StorageBackend::append`]), so the replayed records reflect states the
//! server actually passed through. Segments decode independently: when an
//! append *error* leaves a partial frame mid-history, the writer rotates to
//! a fresh segment, so the records acknowledged after the failure still
//! replay rather than being poisoned by the torn bytes before them.

use std::sync::Arc;

use cdstore_crypto::crc32::crc32;
use parking_lot::Mutex;

use crate::backend::{StorageBackend, StorageError};

/// Key prefix of checkpoint objects.
pub const CHECKPOINT_PREFIX: &str = "meta-ckpt-";
/// Key prefix of write-ahead-log segment objects.
pub const WAL_PREFIX: &str = "meta-wal-";

/// Target size of one WAL segment. Appends that would grow the active
/// segment past this bound rotate to a fresh segment object first.
pub const SEGMENT_TARGET_BYTES: usize = 256 * 1024;

/// Magic tag opening a framed checkpoint blob.
const CHECKPOINT_MAGIC: &[u8; 4] = b"CDCK";

/// The key of the checkpoint object for an epoch.
pub fn checkpoint_key(epoch: u64) -> String {
    format!("{CHECKPOINT_PREFIX}{epoch:016x}")
}

/// The key of one WAL segment object.
pub fn segment_key(epoch: u64, segment: u64) -> String {
    format!("{WAL_PREFIX}{epoch:016x}-{segment:08x}")
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn parse_checkpoint_key(key: &str) -> Option<u64> {
    parse_hex(key.strip_prefix(CHECKPOINT_PREFIX)?)
}

fn parse_segment_key(key: &str) -> Option<(u64, u64)> {
    let rest = key.strip_prefix(WAL_PREFIX)?;
    let (epoch, segment) = rest.split_once('-')?;
    Some((parse_hex(epoch)?, parse_hex(segment)?))
}

/// Frames one record for appending: `len | crc | payload`.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes a concatenated stream of framed records. Returns the records that
/// decode cleanly plus whether the stream ended in a torn (truncated or
/// checksum-failing) frame. Everything after the first bad frame is
/// discarded: appends are ordered, so nothing beyond a torn frame can be
/// trusted.
pub fn decode_records(mut bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut records = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 8 {
            return (records, true);
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if bytes.len() < 8 + len {
            return (records, true);
        }
        let payload = &bytes[8..8 + len];
        if crc32(payload) != crc {
            return (records, true);
        }
        records.push(payload.to_vec());
        bytes = &bytes[8 + len..];
    }
    (records, false)
}

/// Frames a checkpoint snapshot: `magic | len | crc | payload`.
fn frame_checkpoint(snapshot: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + snapshot.len());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&(snapshot.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(snapshot).to_le_bytes());
    out.extend_from_slice(snapshot);
    out
}

/// Unframes a checkpoint object, `None` if it is malformed or fails its
/// checksum (e.g. a checkpoint write torn by a crash).
fn unframe_checkpoint(bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.len() < 16 || &bytes[0..4] != CHECKPOINT_MAGIC {
        return None;
    }
    let len = u64::from_le_bytes(bytes[4..12].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
    let payload = bytes.get(16..)?;
    if payload.len() != len || crc32(payload) != crc {
        return None;
    }
    Some(payload.to_vec())
}

/// Everything [`Journal::load`] recovered from a backend: the newest valid
/// checkpoint snapshot (if any), the decoded journal suffix written since,
/// and whether the suffix ended in a torn record.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The epoch the journal was in (0 if no checkpoint was ever committed).
    pub epoch: u64,
    /// The snapshot blob of the newest checkpoint that passed its checksum.
    pub checkpoint: Option<Vec<u8>>,
    /// The journal records of the epoch, in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether the journal ended in a torn (truncated/corrupt) record that
    /// was discarded along with everything after it.
    pub torn: bool,
    /// The first unused segment index of the epoch (where a resumed writer
    /// continues, leaving any torn tail untouched).
    pub next_segment: u64,
}

struct WriterState {
    epoch: u64,
    /// Index of the active segment within the epoch.
    segment: u64,
    /// Bytes already appended to the active segment.
    segment_bytes: usize,
    /// Records appended since the last committed checkpoint (drives the
    /// caller's checkpoint cadence).
    records_since_checkpoint: u64,
    /// A freshly constructed journal clears any stale journal state left on
    /// the backend before its first append, so `Journal::fresh` stays
    /// infallible and cheap for the common empty-backend case.
    reset_pending: bool,
}

/// The write side of the metadata journal.
///
/// `append` is cheap and safe to call under fine-grained locks (it takes one
/// internal mutex and performs one backend append); `commit_checkpoint` is
/// the heavyweight operation that supersedes the journal with a snapshot.
pub struct Journal {
    backend: Arc<dyn StorageBackend>,
    state: Mutex<WriterState>,
}

impl Journal {
    /// A journal for a brand-new server. Any journal state a previous
    /// incarnation left on the backend is cleared on the first append.
    /// (To *recover* that state instead, use [`Journal::load`] followed by
    /// [`Journal::resume`].)
    pub fn fresh(backend: Arc<dyn StorageBackend>) -> Self {
        Journal {
            backend,
            state: Mutex::new(WriterState {
                epoch: 0,
                segment: 0,
                segment_bytes: 0,
                records_since_checkpoint: 0,
                reset_pending: true,
            }),
        }
    }

    /// A journal continuing the epoch a [`LoadedJournal`] was recovered
    /// from. The caller is expected to commit a checkpoint of the recovered
    /// state promptly (opening a new epoch); until then, appends continue
    /// the loaded epoch after its last intact record — note that a torn tail
    /// would corrupt such appends, so recovery always checkpoints first.
    pub fn resume(backend: Arc<dyn StorageBackend>, loaded: &LoadedJournal) -> Self {
        Journal {
            backend,
            state: Mutex::new(WriterState {
                epoch: loaded.epoch,
                // Open a fresh segment rather than appending after a
                // possibly-torn tail of the last one.
                segment: loaded.next_segment,
                segment_bytes: 0,
                records_since_checkpoint: loaded.records.len() as u64,
                reset_pending: false,
            }),
        }
    }

    /// Reads the newest valid checkpoint and the journal suffix written
    /// since from a backend.
    pub fn load(backend: &dyn StorageBackend) -> Result<LoadedJournal, StorageError> {
        let keys = backend.list()?;
        // Newest checkpoint that passes its checksum wins; a torn newest
        // checkpoint falls back to the previous epoch (whose WAL is still
        // present, because stale epochs are only deleted *after* the next
        // checkpoint is durable).
        let mut checkpoint_epochs: Vec<u64> = keys
            .iter()
            .filter_map(|k| parse_checkpoint_key(k))
            .collect();
        checkpoint_epochs.sort_unstable();
        let mut epoch = 0u64;
        let mut checkpoint = None;
        for &candidate in checkpoint_epochs.iter().rev() {
            if let Some(snapshot) = unframe_checkpoint(&backend.get(&checkpoint_key(candidate))?) {
                epoch = candidate;
                checkpoint = Some(snapshot);
                break;
            }
        }
        // Replay the epoch's segments in order, decoding each segment
        // independently: a torn frame discards the rest of *its own*
        // segment only. In the common crash case the tear sits at the end
        // of the highest-numbered segment, so nothing follows it anyway;
        // after a failed append mid-history, the writer rotated to a fresh
        // segment (see [`Journal::append`]), so the records acknowledged
        // after the failure still replay instead of being poisoned by the
        // partial frame before them.
        let mut segments: Vec<u64> = keys
            .iter()
            .filter_map(|k| parse_segment_key(k))
            .filter(|&(e, _)| e == epoch)
            .map(|(_, s)| s)
            .collect();
        segments.sort_unstable();
        let next_segment = segments.last().map(|&s| s + 1).unwrap_or(0);
        let mut records = Vec::new();
        let mut torn = false;
        for segment in segments {
            let bytes = backend.get(&segment_key(epoch, segment))?;
            let (mut segment_records, segment_torn) = decode_records(&bytes);
            records.append(&mut segment_records);
            torn |= segment_torn;
        }
        Ok(LoadedJournal {
            epoch,
            checkpoint,
            records,
            torn,
            next_segment,
        })
    }

    /// Deletes every journal object (checkpoints and WAL segments) except,
    /// optionally, the checkpoint of `keep_epoch`.
    fn sweep(&self, keep_epoch: Option<u64>) -> Result<(), StorageError> {
        for key in self.backend.list()? {
            let stale = match (parse_checkpoint_key(&key), parse_segment_key(&key)) {
                (Some(epoch), _) => Some(epoch) != keep_epoch,
                (_, Some(_)) => true,
                _ => false,
            };
            if stale {
                self.backend.delete(&key)?;
            }
        }
        Ok(())
    }

    /// Appends one record to the write-ahead log. The record is durable (to
    /// the extent the backend's `append` is) before this returns. On error
    /// nothing was (reliably) appended; the caller decides whether to fail
    /// its operation or to count the lapse and re-baseline with a prompt
    /// checkpoint (the CDStore server does the latter — see its
    /// `journal_record`).
    pub fn append(&self, payload: &[u8]) -> Result<(), StorageError> {
        let framed = frame_record(payload);
        let mut state = self.state.lock();
        if state.reset_pending {
            self.sweep(None)?;
            state.reset_pending = false;
        }
        if state.segment_bytes >= SEGMENT_TARGET_BYTES {
            state.segment += 1;
            state.segment_bytes = 0;
        }
        if let Err(e) = self
            .backend
            .append(&segment_key(state.epoch, state.segment), &framed)
        {
            // The failed append may have left a partial frame at the
            // segment tail. Never write after it: rotate to a fresh
            // segment, so replay loses at most this one record instead of
            // discarding every later (successfully acknowledged) append
            // behind the torn bytes.
            state.segment += 1;
            state.segment_bytes = 0;
            return Err(e);
        }
        state.segment_bytes += framed.len();
        state.records_since_checkpoint += 1;
        Ok(())
    }

    /// Records appended since the last committed checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.state.lock().records_since_checkpoint
    }

    /// Commits a checkpoint: persists the snapshot under the next epoch,
    /// then deletes the superseded epoch's checkpoint and WAL segments so
    /// recovery time stays bounded by the checkpoint cadence.
    ///
    /// Crash-ordering: the new checkpoint object is durable *before* any old
    /// state is deleted, so recovery always finds either the old epoch
    /// intact or the new one (or both, in which case the newer wins).
    pub fn commit_checkpoint(&self, snapshot: &[u8]) -> Result<(), StorageError> {
        let mut state = self.state.lock();
        if state.reset_pending {
            self.sweep(None)?;
            state.reset_pending = false;
        }
        let next_epoch = state.epoch + 1;
        self.backend
            .put(&checkpoint_key(next_epoch), &frame_checkpoint(snapshot))?;
        state.epoch = next_epoch;
        state.segment = 0;
        state.segment_bytes = 0;
        state.records_since_checkpoint = 0;
        self.sweep(Some(next_epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn new_journal() -> (Journal, Arc<MemoryBackend>) {
        let backend = Arc::new(MemoryBackend::new());
        (Journal::fresh(backend.clone()), backend)
    }

    #[test]
    fn records_round_trip_through_the_backend() {
        let (journal, backend) = new_journal();
        for i in 0..100u32 {
            journal.append(format!("record-{i}").as_bytes()).unwrap();
        }
        assert_eq!(journal.records_since_checkpoint(), 100);
        let loaded = Journal::load(&*backend).unwrap();
        assert_eq!(loaded.epoch, 0);
        assert!(loaded.checkpoint.is_none());
        assert!(!loaded.torn);
        assert_eq!(loaded.records.len(), 100);
        assert_eq!(loaded.records[7], b"record-7");
    }

    #[test]
    fn large_journals_rotate_segments() {
        let (journal, backend) = new_journal();
        let big = vec![0xabu8; 64 * 1024];
        for _ in 0..10 {
            journal.append(&big).unwrap();
        }
        let segments = backend
            .list()
            .unwrap()
            .iter()
            .filter(|k| k.starts_with(WAL_PREFIX))
            .count();
        assert!(segments > 1, "640 KB of records must span segments");
        let loaded = Journal::load(&*backend).unwrap();
        assert_eq!(loaded.records.len(), 10);
        assert!(loaded.records.iter().all(|r| r == &big));
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let (journal, backend) = new_journal();
        journal.append(b"intact-one").unwrap();
        journal.append(b"intact-two").unwrap();
        journal.append(b"doomed").unwrap();
        // Tear the final record by truncating the single segment.
        let key = segment_key(0, 0);
        let mut bytes = backend.get(&key).unwrap();
        bytes.truncate(bytes.len() - 3);
        backend.put(&key, &bytes).unwrap();
        let loaded = Journal::load(&*backend).unwrap();
        assert!(loaded.torn);
        assert_eq!(
            loaded.records,
            vec![b"intact-one".to_vec(), b"intact-two".to_vec()]
        );

        // A flipped byte inside a record is equally fatal for the tail.
        let mut bytes = backend.get(&key).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        backend.put(&key, &bytes).unwrap();
        let loaded = Journal::load(&*backend).unwrap();
        assert!(loaded.torn);
        assert!(loaded.records.len() < 2);
    }

    #[test]
    fn torn_middle_segment_does_not_poison_later_segments() {
        let (journal, backend) = new_journal();
        // Three segments' worth of records.
        let big = vec![0x5au8; SEGMENT_TARGET_BYTES];
        journal.append(&big).unwrap();
        journal.append(b"segment-1-record").unwrap();
        journal.append(&big).unwrap();
        journal.append(b"segment-2-record").unwrap();
        let segment_count = backend
            .list()
            .unwrap()
            .iter()
            .filter(|k| k.starts_with(WAL_PREFIX))
            .count();
        assert!(segment_count >= 3);
        // Tear a *middle* segment (as a failed append would): only that
        // segment's records are lost; later segments still replay.
        let key = segment_key(0, 1);
        let mut bytes = backend.get(&key).unwrap();
        bytes.truncate(5);
        backend.put(&key, &bytes).unwrap();
        let loaded = Journal::load(&*backend).unwrap();
        assert!(loaded.torn);
        assert!(loaded.records.contains(&b"segment-2-record".to_vec()));
        assert!(!loaded.records.contains(&b"segment-1-record".to_vec()));
    }

    #[test]
    fn checkpoints_truncate_the_journal() {
        let (journal, backend) = new_journal();
        journal.append(b"before").unwrap();
        journal.commit_checkpoint(b"snapshot-state").unwrap();
        assert_eq!(journal.records_since_checkpoint(), 0);
        journal.append(b"after-1").unwrap();
        journal.append(b"after-2").unwrap();

        let loaded = Journal::load(&*backend).unwrap();
        assert_eq!(loaded.epoch, 1);
        assert_eq!(
            loaded.checkpoint.as_deref(),
            Some(b"snapshot-state".as_slice())
        );
        assert_eq!(
            loaded.records,
            vec![b"after-1".to_vec(), b"after-2".to_vec()]
        );
        assert!(!loaded.torn);

        // The superseded epoch's WAL was deleted.
        assert!(backend
            .list()
            .unwrap()
            .iter()
            .filter_map(|k| parse_segment_key(k))
            .all(|(epoch, _)| epoch == 1));
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_the_previous_epoch() {
        let (journal, backend) = new_journal();
        journal.append(b"epoch0").unwrap();
        journal.commit_checkpoint(b"ckpt-1").unwrap();
        journal.append(b"epoch1").unwrap();
        // A later checkpoint lands torn (simulated: written then corrupted
        // before the old epoch was swept — sweep order protects the rest).
        backend
            .put(&checkpoint_key(2), b"CDCKgarbage-that-fails-the-crc")
            .unwrap();
        let loaded = Journal::load(&*backend).unwrap();
        assert_eq!(loaded.epoch, 1);
        assert_eq!(loaded.checkpoint.as_deref(), Some(b"ckpt-1".as_slice()));
        assert_eq!(loaded.records, vec![b"epoch1".to_vec()]);
    }

    #[test]
    fn resume_continues_the_loaded_epoch_without_touching_its_tail() {
        let (journal, backend) = new_journal();
        journal.commit_checkpoint(b"base").unwrap();
        journal.append(b"old-1").unwrap();
        drop(journal);

        let loaded = Journal::load(&*backend).unwrap();
        let resumed = Journal::resume(backend.clone(), &loaded);
        assert_eq!(resumed.records_since_checkpoint(), 1);
        resumed.append(b"new-1").unwrap();
        let reloaded = Journal::load(&*backend).unwrap();
        assert_eq!(reloaded.records, vec![b"old-1".to_vec(), b"new-1".to_vec()]);

        // Checkpointing from the resumed journal opens epoch 2 and sweeps
        // everything older.
        resumed.commit_checkpoint(b"recovered").unwrap();
        let latest = Journal::load(&*backend).unwrap();
        assert_eq!(latest.epoch, 2);
        assert_eq!(latest.checkpoint.as_deref(), Some(b"recovered".as_slice()));
        assert!(latest.records.is_empty());
    }

    #[test]
    fn fresh_journals_clear_stale_state() {
        let (journal, backend) = new_journal();
        journal.append(b"stale").unwrap();
        journal.commit_checkpoint(b"stale-ckpt").unwrap();
        drop(journal);

        let fresh = Journal::fresh(backend.clone());
        fresh.append(b"new-life").unwrap();
        let loaded = Journal::load(&*backend).unwrap();
        assert_eq!(loaded.epoch, 0);
        assert!(loaded.checkpoint.is_none());
        assert_eq!(loaded.records, vec![b"new-life".to_vec()]);
    }

    #[test]
    fn decode_records_handles_every_prefix_without_panicking() {
        let mut stream = Vec::new();
        for i in 0..20u32 {
            stream.extend_from_slice(&frame_record(&i.to_be_bytes()));
        }
        let full = decode_records(&stream).0.len();
        assert_eq!(full, 20);
        for cut in 0..stream.len() {
            let (records, torn) = decode_records(&stream[..cut]);
            assert!(records.len() <= full);
            // A prefix is torn exactly when it does not end on a frame
            // boundary (every frame here is 12 bytes).
            assert_eq!(torn, cut % 12 != 0, "cut at {cut}");
        }
    }
}
