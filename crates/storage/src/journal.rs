//! The durable metadata journal: a write-ahead log plus periodic
//! checkpoints, persisted through the [`StorageBackend`] trait.
//!
//! A CDStore server keeps its share index, file index, and ownership
//! mappings in memory for speed; this module is what makes them survive a
//! process crash. Every index mutation *stages* one length-prefixed,
//! CRC-checksummed record, every request *commits* what has been staged
//! before it is acknowledged, and a periodic checkpoint persists a full
//! snapshot of the state so recovery replays only the journal suffix written
//! since.
//!
//! # Group commit
//!
//! The unit of durability is the request, not the record.
//! [`Journal::stage`] frames a record into an in-memory staging buffer — the
//! caller holds the mutated key's lock while it does, so the buffer's order
//! is the order the mutations were applied in. [`Journal::commit`] takes the
//! writer lock, swaps the buffer out, and issues **one**
//! [`StorageBackend::append`] (one segment key, one rotation check, one
//! fsync on a directory backend) for everything staged so far *by any
//! thread*. A commit therefore always writes a prefix of the staging order:
//! a record another thread derived from a not-yet-committed mutation cannot
//! become durable before that mutation does, and a caller whose records
//! were swept up by someone else's commit blocks on the writer lock until
//! that append has landed. The bytes on the backend are the same frames a
//! record-at-a-time writer would have produced, concatenated — replay cannot
//! tell the difference.
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
//! replay rather than being poisoned by the torn bytes before them. A torn
//! *group* is the same shape: the records before the tear replay, the rest of
//! the group is discarded with the tail.

use std::sync::{Arc, Mutex};

use cdstore_crypto::crc32::crc32;

use crate::backend::{StorageBackend, StorageError};

/// Key prefix of checkpoint objects.
pub const CHECKPOINT_PREFIX: &str = "meta-ckpt-";
/// Key prefix of write-ahead-log segment objects.
pub const WAL_PREFIX: &str = "meta-wal-";

/// Target size of one WAL segment. A commit that finds the active segment at
/// or past this bound rotates to a fresh segment object first, so a segment
/// exceeds the target by at most one committed group.
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

/// Frames one record in place at the end of `out`: reserves the
/// `len | crc` header, lets `payload` append the record body, then fills the
/// header in — no per-record buffer.
fn frame_record_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0u8; 8]);
    payload(out);
    let body = header + 8;
    let len = (out.len() - body) as u32;
    let crc = crc32(&out[body..]);
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..body].copy_from_slice(&crc.to_le_bytes());
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
    /// Records committed since the last committed checkpoint (drives the
    /// caller's checkpoint cadence).
    records_since_checkpoint: u64,
    /// A freshly constructed journal clears any stale journal state left on
    /// the backend before its first append, so `Journal::fresh` stays
    /// infallible and cheap for the common empty-backend case.
    reset_pending: bool,
}

/// Records framed but not yet handed to the backend, in apply order.
#[derive(Default)]
struct Staging {
    frames: Vec<u8>,
    records: u64,
}

/// The write side of the metadata journal.
///
/// `stage` is memory-only and safe to call under fine-grained locks (it
/// takes one internal mutex, briefly); `commit` performs the one backend
/// append that makes everything staged so far durable; `commit_checkpoint`
/// is the heavyweight operation that supersedes the journal with a snapshot.
pub struct Journal {
    backend: Arc<dyn StorageBackend>,
    /// The staging buffer. Never held across backend I/O.
    staging: Mutex<Staging>,
    /// The writer lock: held across a commit's swap *and* its append, so
    /// groups reach the backend in the order they were swapped out.
    state: Mutex<WriterState>,
}

impl Journal {
    fn with_state(backend: Arc<dyn StorageBackend>, state: WriterState) -> Self {
        Journal {
            backend,
            staging: Mutex::new(Staging::default()),
            state: Mutex::new(state),
        }
    }

    /// A journal for a brand-new server. Any journal state a previous
    /// incarnation left on the backend is cleared on the first commit.
    /// (To *recover* that state instead, use [`Journal::load`] followed by
    /// [`Journal::resume`].)
    pub fn fresh(backend: Arc<dyn StorageBackend>) -> Self {
        Self::with_state(
            backend,
            WriterState {
                epoch: 0,
                segment: 0,
                segment_bytes: 0,
                records_since_checkpoint: 0,
                reset_pending: true,
            },
        )
    }

    /// A journal continuing the epoch a [`LoadedJournal`] was recovered
    /// from. The caller is expected to commit a checkpoint of the recovered
    /// state promptly (opening a new epoch); until then, appends continue
    /// the loaded epoch after its last intact record — note that a torn tail
    /// would corrupt such appends, so recovery always checkpoints first.
    pub fn resume(backend: Arc<dyn StorageBackend>, loaded: &LoadedJournal) -> Self {
        Self::with_state(
            backend,
            WriterState {
                epoch: loaded.epoch,
                // Open a fresh segment rather than appending after a
                // possibly-torn tail of the last one.
                segment: loaded.next_segment,
                segment_bytes: 0,
                records_since_checkpoint: loaded.records.len() as u64,
                reset_pending: false,
            },
        )
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
        // segment (see [`Journal::commit`]), so the records acknowledged
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

    /// Stages one record: `payload` appends the record body to the staging
    /// buffer, framed in place. Memory-only and infallible; nothing is
    /// durable until the next [`Journal::commit`]. Call it while holding the
    /// lock that serialises mutations of the record's key, so the staging
    /// order *is* the apply order.
    pub fn stage(&self, payload: impl FnOnce(&mut Vec<u8>)) {
        let mut staging = self.staging.lock().expect("journal staging lock");
        frame_record_into(&mut staging.frames, payload);
        staging.records += 1;
    }

    /// Whether any staged record awaits a commit.
    pub fn has_staged(&self) -> bool {
        self.staging.lock().expect("journal staging lock").records > 0
    }

    /// Makes every record staged so far — by any thread — durable with one
    /// backend append, and returns once none of them is still in flight: a
    /// caller whose records another thread's commit already swapped out
    /// waits here, on the writer lock, for that append to finish. On error
    /// nothing of the group was (reliably) appended; the caller decides
    /// whether to fail its operation or to count the lapse and re-baseline
    /// with a prompt checkpoint (the CDStore server does the latter).
    pub fn commit(&self) -> Result<(), StorageError> {
        let mut state = self.state.lock().expect("journal writer lock");
        let group = std::mem::take(&mut *self.staging.lock().expect("journal staging lock"));
        if group.records == 0 {
            return Ok(());
        }
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
            .append(&segment_key(state.epoch, state.segment), &group.frames)
        {
            // The failed append may have left a partial group at the
            // segment tail. Never write after it: rotate to a fresh
            // segment, so replay loses at most this one group instead of
            // discarding every later (successfully acknowledged) commit
            // behind the torn bytes.
            state.segment += 1;
            state.segment_bytes = 0;
            return Err(e);
        }
        state.segment_bytes += group.frames.len();
        state.records_since_checkpoint += group.records;
        Ok(())
    }

    /// Stages and commits one record — the one-record group.
    pub fn append(&self, payload: &[u8]) -> Result<(), StorageError> {
        self.stage(|out| out.extend_from_slice(payload));
        self.commit()
    }

    /// Records committed since the last committed checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        let state = self.state.lock().expect("journal writer lock");
        state.records_since_checkpoint
    }

    /// Commits a checkpoint: persists the snapshot under the next epoch,
    /// then deletes the superseded epoch's checkpoint and WAL segments so
    /// recovery time stays bounded by the checkpoint cadence.
    ///
    /// Crash-ordering: the new checkpoint object is durable *before* any old
    /// state is deleted, so recovery always finds either the old epoch
    /// intact or the new one (or both, in which case the newer wins).
    pub fn commit_checkpoint(&self, snapshot: &[u8]) -> Result<(), StorageError> {
        let mut state = self.state.lock().expect("journal writer lock");
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
        // Best-effort: the checkpoint is durable and recovery ignores
        // superseded epochs, so a failed sweep costs only space, which the
        // next checkpoint's sweep reclaims.
        let _ = self.sweep(Some(next_epoch));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::fault::{FaultConfig, FaultPlan, FaultyBackend};
    use proptest::prelude::*;

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
            frame_record_into(&mut stream, |out| out.extend_from_slice(&i.to_be_bytes()));
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

    fn payloads(n: u32) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i}-{}", "x".repeat(i as usize % 7)).into_bytes())
            .collect()
    }

    /// Stages every payload and commits them as one group.
    fn commit_group(journal: &Journal, payloads: &[Vec<u8>]) -> Result<(), StorageError> {
        for payload in payloads {
            journal.stage(|out| out.extend_from_slice(payload));
        }
        journal.commit()
    }

    #[test]
    fn a_committed_group_is_byte_identical_to_single_appends() {
        let records = payloads(200);
        let (single, single_backend) = new_journal();
        for record in &records {
            single.append(record).unwrap();
        }
        let (grouped, grouped_backend) = new_journal();
        commit_group(&grouped, &records).unwrap();
        assert!(!grouped.has_staged());
        assert_eq!(grouped.records_since_checkpoint(), 200);
        // Same records in the same order, and — no rotation intervening —
        // the same bytes in the same single segment.
        assert_eq!(Journal::load(&*grouped_backend).unwrap().records, records);
        assert_eq!(Journal::load(&*single_backend).unwrap().records, records);
        assert_eq!(grouped_backend.list().unwrap(), vec![segment_key(0, 0)]);
        assert_eq!(
            grouped_backend.get(&segment_key(0, 0)).unwrap(),
            single_backend.get(&segment_key(0, 0)).unwrap()
        );
        // An empty commit touches nothing.
        grouped.commit().unwrap();
        assert_eq!(grouped.records_since_checkpoint(), 200);
    }

    /// Frames exactly as the record-at-a-time writer of earlier versions
    /// laid them down (`len LE | crc32 LE | payload` for `"a"`, `""`,
    /// `"record-two"`): journals already on disk replay unchanged, and a
    /// group committed today is the same bytes.
    const PER_RECORD_FIXTURE: [u8; 35] = [
        0x01, 0x00, 0x00, 0x00, 0x43, 0xbe, 0xb7, 0xe8, 0x61, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0xbc, 0x3b, 0xd3, 0xb2, 0x72, 0x65, 0x63, 0x6f, 0x72,
        0x64, 0x2d, 0x74, 0x77, 0x6f,
    ];

    #[test]
    fn per_record_and_group_fixtures_decode_to_the_same_records() {
        let records = vec![b"a".to_vec(), Vec::new(), b"record-two".to_vec()];
        assert_eq!(
            decode_records(&PER_RECORD_FIXTURE),
            (records.clone(), false)
        );
        let (journal, backend) = new_journal();
        commit_group(&journal, &records).unwrap();
        assert_eq!(backend.get(&segment_key(0, 0)).unwrap(), PER_RECORD_FIXTURE);
        // A journal the old writer left behind loads and resumes.
        let old = Arc::new(MemoryBackend::new());
        old.put(&segment_key(0, 0), &PER_RECORD_FIXTURE).unwrap();
        let loaded = Journal::load(&*old).unwrap();
        assert_eq!(loaded.records, records);
        assert!(!loaded.torn);
    }

    #[test]
    fn groups_rotate_segments_between_commits_only() {
        let (journal, backend) = new_journal();
        let big = vec![0x11u8; SEGMENT_TARGET_BYTES / 2];
        // One group of three half-segment records overshoots the target...
        commit_group(&journal, &[big.clone(), big.clone(), big.clone()]).unwrap();
        assert_eq!(backend.list().unwrap(), vec![segment_key(0, 0)]);
        // ...by at most that one group: the next commit rotates first.
        journal.append(b"next").unwrap();
        assert_eq!(
            backend.list().unwrap(),
            vec![segment_key(0, 0), segment_key(0, 1)]
        );
        let loaded = Journal::load(&*backend).unwrap();
        assert_eq!(loaded.records.len(), 4);
        assert_eq!(loaded.records[3], b"next");
    }

    #[test]
    fn a_failed_group_append_rotates_and_later_groups_still_replay() {
        let inner = Arc::new(MemoryBackend::new());
        // Every append tears: a strict prefix lands, then the call fails.
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::clean(7).with_torn_write_rate(1.0),
        ));
        let torn = Journal::fresh(Arc::new(FaultyBackend::new(inner.clone(), plan)));
        let doomed = payloads(50);
        assert!(commit_group(&torn, &doomed).is_err());
        assert!(!torn.has_staged(), "a failed group is dropped, not retried");
        assert_eq!(torn.records_since_checkpoint(), 0);
        let after_tear = Journal::load(&*inner).unwrap();
        assert!(after_tear.torn);
        assert!(after_tear.records.len() < doomed.len());
        assert_eq!(after_tear.records, doomed[..after_tear.records.len()]);

        // The writer moved past the torn segment: with the backend healthy
        // again, the next groups land in a fresh segment and replay behind
        // whatever prefix of the torn group survived.
        let healthy = Journal::resume(inner.clone(), &after_tear);
        let later = payloads(20);
        commit_group(&healthy, &later[..10]).unwrap();
        commit_group(&healthy, &later[10..]).unwrap();
        let loaded = Journal::load(&*inner).unwrap();
        assert!(loaded.torn);
        assert_eq!(
            loaded.records[..after_tear.records.len()],
            after_tear.records
        );
        assert_eq!(loaded.records[after_tear.records.len()..], later);
    }

    #[test]
    fn the_writer_rotates_past_a_failed_group_append() {
        let inner = Arc::new(MemoryBackend::new());
        // Tick 0 is the reset sweep's `list`, tick 1 the first append: fail
        // exactly that one, then let everything through.
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::clean(11).with_outage(crate::fault::Window::new(1, 2)),
        ));
        let journal = Journal::fresh(Arc::new(FaultyBackend::new(inner.clone(), plan)));
        assert!(commit_group(&journal, &payloads(5)).is_err());
        commit_group(&journal, &payloads(3)).unwrap();
        // The failed group cost its segment index; the next group opened a
        // fresh one instead of appending behind a possibly-partial frame.
        assert_eq!(inner.list().unwrap(), vec![segment_key(0, 1)]);
        assert_eq!(Journal::load(&*inner).unwrap().records, payloads(3));
    }

    proptest! {
        #[test]
        fn any_prefix_of_a_group_decodes_to_a_record_prefix(
            sizes in proptest::collection::vec(0usize..200, 1..40),
            cut_seed: u64,
        ) {
            let records: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| vec![i as u8; len])
                .collect();
            let (journal, backend) = new_journal();
            commit_group(&journal, &records).unwrap();
            let group = backend.get(&segment_key(0, 0)).unwrap();
            let cut = (cut_seed % (group.len() as u64 + 1)) as usize;
            let (decoded, torn) = decode_records(&group[..cut]);
            // Whole records only, in order, and `torn` exactly when the cut
            // falls inside a frame.
            prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
            let boundary: usize = decoded.iter().map(|r| 8 + r.len()).sum();
            prop_assert_eq!(torn, boundary != cut);
            prop_assert!(cut - boundary < 8 + records.get(decoded.len()).map_or(1, Vec::len));
        }
    }

    /// Hostile-input cases: a quick pass under `cargo test`, thousands in
    /// release builds.
    const HOSTILE_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 4096 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(HOSTILE_CASES))]

        // Whatever the bytes, each record decoded is a whole checksummed
        // frame of the input, in order, and `torn` says whether bytes were
        // left over.
        #[test]
        fn arbitrary_bytes_decode_to_their_own_frames_or_a_torn_tail(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            zero_headers: bool,
        ) {
            let mut bytes = bytes;
            if zero_headers && bytes.len() >= 8 {
                // An empty payload's CRC is zero: a zeroed header is a frame.
                bytes[..8].fill(0);
            }
            let (records, torn) = decode_records(&bytes);
            let mut rest = &bytes[..];
            for record in &records {
                let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                prop_assert_eq!(len, record.len());
                prop_assert_eq!(&rest[8..8 + len], &record[..]);
                rest = &rest[8 + len..];
            }
            prop_assert_eq!(torn, !rest.is_empty());
        }

        // One changed byte drops the frame holding it and everything after:
        // appends are ordered, so nothing beyond a bad frame is trusted.
        #[test]
        fn one_mutated_byte_cuts_the_stream_at_its_frame(
            sizes in proptest::collection::vec(0usize..100, 1..20),
            at: u32,
            value: u8,
        ) {
            let records: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| vec![i as u8; len])
                .collect();
            let mut stream = Vec::new();
            for record in &records {
                frame_record_into(&mut stream, |out| out.extend_from_slice(record));
            }
            let at = at as usize % stream.len();
            let unchanged = stream[at] == value;
            stream[at] = value;
            let (decoded, torn) = decode_records(&stream);
            if unchanged {
                prop_assert!(!torn);
                prop_assert_eq!(decoded, records);
            } else {
                let mut end = 0;
                let frame = records
                    .iter()
                    .take_while(|r| {
                        end += 8 + r.len();
                        end <= at
                    })
                    .count();
                prop_assert!(torn);
                prop_assert_eq!(&decoded[..], &records[..frame]);
            }
        }
    }
}
