//! The CDStore server (§4): one per cloud, co-located with the storage
//! backend, performing inter-user deduplication and index/container
//! management on behalf of all clients.
//!
//! The server is built for concurrent multi-client traffic (§5.4, Figure 8):
//! every entry point takes `&self`, the indices are striped over per-shard
//! mutexes ([`cdstore_index::sharded`]), containers take per-user append
//! locks, and the traffic counters are atomics. `CdStoreServer` is
//! `Send + Sync`, so any number of client threads may upload, restore, and
//! delete against it simultaneously. Exactly-once physical storage under
//! races is guaranteed by
//! [`ShardedShareIndex::add_reference_or_store`], which holds the
//! fingerprint's stripe lock across the dedup test and the container append.
//!
//! # The request is the unit of commit
//!
//! Index mutations *stage* their journal records under the mutated key's
//! stripe lock (`journal_record`); every public mutating entry point —
//! `store_shares`, `commit_file`, `release_uploads`, `delete_file`,
//! `gc_with` — *commits* the staging buffer with one backend append before
//! it returns (`commit_journal`), and garbage collection additionally
//! before any backend `delete` its records justify. Durable-before-
//! acknowledged therefore holds per request, at one append (one fsync on a
//! directory backend) per request instead of one per record. A checkpoint
//! drains the buffer into the epoch it supersedes, so the buffer is empty
//! whenever `ckpt_lock` is held for writing.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cdstore_crypto::Fingerprint;
use cdstore_index::{
    FileEntry, FileKey, FilePutOutcome, KvStoreConfig, Sharded, ShardedFileIndex, ShardedKvStore,
    ShardedShareIndex, ShareEntry, ShareLocation, StoreOutcome,
};
use cdstore_storage::{
    ContainerKind, ContainerStore, ContainerUsage, Journal, MemoryBackend, StorageBackend,
    StorageError,
};

use crate::error::CdStoreError;
use crate::metadata::{FileRecipe, ShareMetadata};
use crate::transport::{ServerProbe, ServerTransport, ShareVerdict, StoreReceipt};
use crate::wal::{write_index, Checkpoint, MetaRecord, CHECKPOINT_VERSION};

/// Number of times share and recipe reads re-resolve their index entry when
/// the container they point at vanishes mid-read: an online compaction pass
/// may delete a container between a reader's index lookup and its container
/// fetch, in which case the index already points at the relocated copy and
/// one retry suffices (bounded higher for safety).
const RELOCATION_RETRIES: usize = 3;

/// Floor on the journal records between automatic checkpoints (checked at
/// the end of every `store_shares` batch, `commit_file`, `release_uploads`,
/// `delete_file`, `flush`, and `gc_with`). A checkpoint writes the indexes'
/// memtables — the whole index while it fits them — so the effective
/// cadence also scales with them: the trigger additionally waits for at
/// least a quarter of the last checkpoint's entry count in new records.
/// Write amplification therefore stays bounded (≈ 4× in steady state),
/// while recovery replay stays bounded by
/// `max(this floor, checkpointed entries / 4)` records.
pub const CHECKPOINT_INTERVAL_RECORDS: u64 = 8192;

/// Names of the server's three indexes on its backend.
const SHARE_INDEX_NAME: &str = "share";
const FILE_INDEX_NAME: &str = "file";
const USER_MAP_NAME: &str = "usermap";

/// What [`CdStoreServer::open`] found and did while rebuilding a server from
/// backend-only state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a valid checkpoint was found (replay then covered only the
    /// journal suffix written since it).
    pub used_checkpoint: bool,
    /// Journal records replayed on top of the checkpoint.
    pub records_replayed: usize,
    /// Whether the journal ended in a torn (truncated or checksum-failing)
    /// record, discarded along with everything after it.
    pub torn_tail: bool,
    /// Sealed containers found on the backend and scanned by the
    /// verification pass.
    pub containers_scanned: usize,
    /// Share-index entries pruned because they pointed into containers that
    /// never reached the backend (open at the crash).
    pub share_entries_pruned: usize,
    /// File-index entries pruned because their recipe was unreadable or
    /// referenced a pruned share.
    pub file_entries_pruned: usize,
    /// User-share ownership mappings pruned because their share was pruned.
    pub mappings_pruned: usize,
    /// Share-index entries whose reference counts were rewritten (or whose
    /// entry was dropped outright) by the recount against surviving recipes:
    /// the journaled counts included references from operations in flight at
    /// the crash (transient upload refs, half-finished puts or deletes).
    pub share_refs_reconciled: usize,
}

impl RecoveryReport {
    /// Whether recovery had to discard or repair anything (a crash
    /// mid-traffic); a graceful restart (flush before shutdown) recovers
    /// with no pruning and no reconciliation.
    pub fn pruned_anything(&self) -> bool {
        self.share_entries_pruned > 0
            || self.file_entries_pruned > 0
            || self.mappings_pruned > 0
            || self.share_refs_reconciled > 0
    }
}

/// Tuning knobs of a garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Dead-byte fraction above which a sealed share container is compacted
    /// (its live shares rewritten into fresh containers). Fully dead
    /// containers are always deleted outright, whatever the threshold.
    pub dead_ratio: f64,
}

impl Default for GcConfig {
    fn default() -> Self {
        // Rewrite a container once at least half of it is garbage: below
        // that, the bytes rewritten per byte reclaimed exceed 1 and the
        // vacuum does more I/O than it saves.
        GcConfig { dead_ratio: 0.5 }
    }
}

/// What one garbage-collection pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Sealed containers deleted because nothing in them was live.
    pub containers_deleted: u64,
    /// Sealed share containers compacted (live shares rewritten, container
    /// deleted).
    pub containers_compacted: u64,
    /// Live shares rewritten into fresh containers during compaction.
    pub shares_rewritten: u64,
    /// Dead payload bytes reclaimed from the backend.
    pub reclaimed_bytes: u64,
    /// Live payload bytes rewritten into fresh containers.
    pub rewritten_bytes: u64,
}

impl GcReport {
    /// Folds another report into this one (aggregation across servers).
    pub fn absorb(&mut self, other: &GcReport) {
        self.containers_deleted += other.containers_deleted;
        self.containers_compacted += other.containers_compacted;
        self.shares_rewritten += other.shares_rewritten;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.rewritten_bytes += other.rewritten_bytes;
    }
}

/// Traffic and deduplication counters of one server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Share bytes received from clients (after intra-user dedup).
    pub received_share_bytes: u64,
    /// Share bytes actually written as unique shares (after inter-user dedup).
    pub physical_share_bytes: u64,
    /// Number of shares received.
    pub shares_received: u64,
    /// Number of shares that were inter-user duplicates.
    pub inter_user_duplicates: u64,
    /// Recipe bytes stored.
    pub recipe_bytes: u64,
    /// Share bytes served to clients during restores.
    pub served_share_bytes: u64,
}

/// Lock-free counterpart of [`ServerStats`].
#[derive(Default)]
struct AtomicServerStats {
    received_share_bytes: AtomicU64,
    physical_share_bytes: AtomicU64,
    shares_received: AtomicU64,
    inter_user_duplicates: AtomicU64,
    recipe_bytes: AtomicU64,
    served_share_bytes: AtomicU64,
}

impl AtomicServerStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            received_share_bytes: self.received_share_bytes.load(Ordering::Relaxed),
            physical_share_bytes: self.physical_share_bytes.load(Ordering::Relaxed),
            shares_received: self.shares_received.load(Ordering::Relaxed),
            inter_user_duplicates: self.inter_user_duplicates.load(Ordering::Relaxed),
            recipe_bytes: self.recipe_bytes.load(Ordering::Relaxed),
            served_share_bytes: self.served_share_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One CDStore server. `Send + Sync`; all entry points take `&self`.
pub struct CdStoreServer {
    cloud_index: usize,
    /// Server-side fingerprint tag: inter-user deduplication never trusts the
    /// client-computed fingerprint (it re-fingerprints the share content with
    /// this tag), which defeats the ownership side-channel attack (§3.3).
    tag: Vec<u8>,
    share_index: ShardedShareIndex,
    file_index: ShardedFileIndex,
    /// `(user || client fingerprint)` → server fingerprint. Answers intra-user
    /// dedup queries and resolves recipe entries at restore time; because the
    /// key embeds the user id, a user can only ever resolve shares they own.
    user_shares: ShardedKvStore,
    containers: ContainerStore,
    /// The durable metadata journal, persisted through the same backend as
    /// the containers. Every index mutation stages one state-level record
    /// (under the mutated key's stripe lock, so per-key order is exact), and
    /// the request commits the staged group before it returns to the client.
    journal: Journal,
    /// Excludes index mutations while [`CdStoreServer::checkpoint`] writes
    /// and commits: without it, a record could be staged into the journal
    /// epoch the checkpoint is about to sweep without being captured by its
    /// memtable images.
    /// Mutations take the read side (cheap, fully concurrent with each
    /// other); the checkpoint takes the write side.
    ckpt_lock: RwLock<()>,
    /// Journal commits that failed (a backend hiccup): the in-memory indices
    /// are the source of truth and were already updated, so a failed group
    /// append never fails the client operation — it is counted here, and
    /// the next checkpoint trigger fires eagerly to re-baseline durability
    /// from the full in-memory state.
    journal_lapses: AtomicU64,
    /// Entry count of the last committed checkpoint: the adaptive
    /// checkpoint cadence waits for new records proportional to it, so the
    /// O(memtables) checkpoint cost amortises over as many mutations.
    last_snapshot_entries: AtomicU64,
    stats: AtomicServerStats,
    next_version: AtomicU64,
    /// Serialises garbage-collection passes: concurrent `gc_with` calls would
    /// otherwise race to copy the same containers. Client traffic never
    /// takes this lock.
    gc_lock: Mutex<()>,
}

impl CdStoreServer {
    /// Creates a server for cloud `cloud_index` with an in-memory backend.
    pub fn new(cloud_index: usize) -> Self {
        Self::with_backend(cloud_index, Arc::new(MemoryBackend::new()))
    }

    /// Creates a server over an explicit storage backend (e.g. a directory,
    /// or the backend of a simulated cloud), starting from empty state with
    /// the default index tuning. Any journal state a previous incarnation
    /// left on the backend is cleared; to *recover* that state instead, use
    /// [`CdStoreServer::open`].
    pub fn with_backend(cloud_index: usize, backend: Arc<dyn StorageBackend>) -> Self {
        Self::with_backend_and_index(cloud_index, backend, KvStoreConfig::default())
            .expect("a fresh server reads nothing from its backend")
    }

    /// [`CdStoreServer::with_backend`] with explicit index tuning. The three
    /// indexes start empty and read nothing from the backend (their stripes
    /// spill runs to it once their memtables fill); whatever index objects
    /// a previous incarnation left there are ignored.
    pub fn with_backend_and_index(
        cloud_index: usize,
        backend: Arc<dyn StorageBackend>,
        index: KvStoreConfig,
    ) -> Result<Self, CdStoreError> {
        let journal = Journal::fresh(backend.clone());
        Self::assemble(cloud_index, backend, journal, index, Checkpoint::default())
    }

    /// Opens the three indexes from `checkpoint`'s stripe images and wires
    /// the server together.
    fn assemble(
        cloud_index: usize,
        backend: Arc<dyn StorageBackend>,
        journal: Journal,
        index: KvStoreConfig,
        checkpoint: Checkpoint,
    ) -> Result<Self, CdStoreError> {
        let b = &backend;
        Ok(CdStoreServer {
            cloud_index,
            tag: format!("cdstore-server-{cloud_index}").into_bytes(),
            share_index: Sharded::open(b.clone(), SHARE_INDEX_NAME, index, checkpoint.shares)?,
            file_index: Sharded::open(b.clone(), FILE_INDEX_NAME, index, checkpoint.files)?,
            user_shares: Sharded::open(b.clone(), USER_MAP_NAME, index, checkpoint.mappings)?,
            containers: ContainerStore::new(backend),
            journal,
            ckpt_lock: RwLock::new(()),
            journal_lapses: AtomicU64::new(0),
            last_snapshot_entries: AtomicU64::new(0),
            stats: AtomicServerStats::default(),
            next_version: AtomicU64::new(1),
            gc_lock: Mutex::new(()),
        })
    }

    /// Rebuilds a server from backend-only state: opens the indexes from the
    /// newest valid checkpoint (each stripe's runs, with its checkpointed
    /// memtable installed over them), replays the journal suffix written
    /// since (tolerating a torn final record), cross-checks the rebuilt
    /// indices against the sealed container headers actually present on
    /// the backend — pruning anything that points at data lost with the
    /// crash — and commits a fresh checkpoint of the recovered state before
    /// returning.
    ///
    /// Traffic counters (`probe().stats`) are per-process and start
    /// at zero; the dedup state itself (unique shares, reference counts,
    /// ownership) is recovered exactly for everything that was sealed and
    /// journaled.
    pub fn open(
        cloud_index: usize,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<(Self, RecoveryReport), CdStoreError> {
        Self::open_with_index(cloud_index, backend, KvStoreConfig::default())
    }

    /// [`CdStoreServer::open`] with explicit index tuning (it need not match
    /// the tuning the runs were written under).
    pub fn open_with_index(
        cloud_index: usize,
        backend: Arc<dyn StorageBackend>,
        index: KvStoreConfig,
    ) -> Result<(Self, RecoveryReport), CdStoreError> {
        let loaded = Journal::load(&*backend).map_err(CdStoreError::Storage)?;
        let journal = Journal::resume(backend.clone(), &loaded);
        let checkpoint = match &loaded.checkpoint {
            Some(blob) => Checkpoint::decode(blob).ok_or_else(|| {
                CdStoreError::InconsistentMetadata("unreadable checkpoint".into())
            })?,
            // No checkpoint: the journal holds every mutation since the
            // server was created.
            None => Checkpoint::default(),
        };
        let server = Self::assemble(cloud_index, backend, journal, index, checkpoint)?;
        let mut report = RecoveryReport {
            used_checkpoint: loaded.checkpoint.is_some(),
            records_replayed: loaded.records.len(),
            torn_tail: loaded.torn,
            ..RecoveryReport::default()
        };
        for payload in &loaded.records {
            // Unknown tags (a rolled-back binary opening a newer journal)
            // are skipped rather than fatal; the verification pass below
            // prunes whatever inconsistency that leaves.
            if let Some(record) = MetaRecord::decode(payload) {
                server.apply_record(record);
            }
        }
        server.verify_recovered_state(&mut report)?;
        // Re-baseline: the recovered state becomes the new checkpoint, which
        // also retires the replayed epoch (and any torn tail) for good.
        server.checkpoint()?;
        Ok((server, report))
    }

    /// Applies one replayed journal record verbatim (no re-journaling, no
    /// reference bookkeeping: records carry absolute post-states).
    fn apply_record(&self, record: MetaRecord<'static>) {
        match record {
            MetaRecord::ShareUpsert { fp, entry } => self.share_index.insert_entry(&fp, &entry),
            MetaRecord::ShareDelete { fp } => self.share_index.remove_entry(&fp),
            MetaRecord::FileUpsert { key, entry } => self.file_index.put(key, entry),
            MetaRecord::FileDelete { key } => {
                self.file_index.remove(&key);
            }
            MetaRecord::MapPut { key, value } => {
                self.user_shares.put(key.into_owned(), value.into_owned())
            }
            MetaRecord::MapDelete { key } => self.user_shares.delete(&key),
        }
    }

    /// The container-scan verification pass of recovery: cross-checks the
    /// replayed indices against what is actually on the backend, prunes
    /// entries pointing at data lost with the crash (open containers never
    /// sealed), recomputes every share's reference counts from the recipes
    /// that actually survived, rebuilds the liveness ledger from the sealed
    /// container headers, and raises the id/version allocators past
    /// everything seen.
    ///
    /// The pass is deterministic in its inputs and mutates the indices only
    /// through the verbatim (non-journaling) primitives: nothing is appended
    /// to the journal until the final recovery checkpoint commits, so a
    /// crash *during* recovery finds the previous epoch untouched and simply
    /// re-runs the identical pass — recovery is idempotent.
    fn verify_recovered_state(&self, report: &mut RecoveryReport) -> Result<(), CdStoreError> {
        let ids = self
            .containers
            .backend_container_ids()
            .map_err(CdStoreError::Storage)?;
        let id_set: HashSet<u64> = ids.iter().copied().collect();
        report.containers_scanned = ids.len();
        let mut max_id = ids.iter().copied().max().unwrap_or(0);

        // Working copy of the share index: exported once and kept in
        // lockstep with the verbatim index mutations below, so the pass
        // pays a single O(index) decode per structure rather than one per
        // step (recovery is single-threaded; nothing else mutates).
        let mut shares: std::collections::HashMap<[u8; 32], ShareEntry> = self
            .share_index
            .export()
            .into_iter()
            .map(|(fp, entry)| (*fp.as_bytes(), entry))
            .collect();

        // 1. Share entries pointing into containers that never reached the
        // backend are unrecoverable: prune them wholesale.
        shares.retain(|fp_bytes, entry| {
            max_id = max_id.max(entry.location.container_id);
            if id_set.contains(&entry.location.container_id) {
                true
            } else {
                self.share_index
                    .remove_entry(&Fingerprint::from_bytes(*fp_bytes));
                report.share_entries_pruned += 1;
                false
            }
        });

        // 2. File entries: the recipe must be present and every recipe
        // entry must resolve through the owner's mappings to a surviving
        // share; files that fail are pruned. Only *durable* absence prunes
        // — a recipe object that is gone or fails its container checksum is
        // lost for good, but a transient backend error fails recovery
        // instead (the caller retries `open`), so a one-off read hiccup
        // can never be laundered into a permanent prune by the checkpoint
        // that recovery commits on success.
        let mut max_version = 0u64;
        let mut surviving: Vec<(FileEntry, FileRecipe)> = Vec::new();
        for (key, entry) in self.file_index.export() {
            max_version = max_version.max(entry.version);
            max_id = max_id.max(entry.recipe_container_id);
            let recipe = if id_set.contains(&entry.recipe_container_id) {
                match self.containers.fetch(&entry.recipe_location()) {
                    Ok(bytes) => FileRecipe::from_bytes(&bytes),
                    Err(StorageError::NotFound(_)) | Err(StorageError::Corrupt(_)) => None,
                    Err(e) => return Err(CdStoreError::Storage(e)),
                }
            } else {
                None
            };
            let complete = recipe
                .as_ref()
                .map(|recipe| {
                    recipe.entries.iter().all(|re| {
                        self.resolve_server_fp(entry.user, &re.share_fingerprint)
                            .map(|server_fp| shares.contains_key(server_fp.as_bytes()))
                            .unwrap_or(false)
                    })
                })
                .unwrap_or(false);
            if complete {
                surviving.push((entry, recipe.expect("complete implies readable")));
            } else {
                self.file_index.remove(&key);
                report.file_entries_pruned += 1;
            }
        }

        // 3. Recount: a share's reference count must equal the number of
        // surviving recipe entries pointing at it (the reclamation
        // invariant). The journaled counts can disagree — they include
        // references taken by operations still in flight at the crash
        // (transient upload refs, half-finished puts, deletes whose releases
        // were cut off) and miss releases owed by files pruned above — so
        // they are recomputed wholesale rather than patched incrementally.
        // Shares the recount leaves with no owners are dropped; their
        // container bytes go dead in the ledger rebuild below and gc
        // reclaims them, so nothing in-flight leaks space.
        let mut recount: std::collections::HashMap<[u8; 32], std::collections::BTreeMap<u64, u32>> =
            std::collections::HashMap::new();
        for (entry, recipe) in &surviving {
            for re in &recipe.entries {
                let Some(server_fp) = self.resolve_server_fp(entry.user, &re.share_fingerprint)
                else {
                    continue; // unreachable: step 2 checked resolvability
                };
                *recount
                    .entry(*server_fp.as_bytes())
                    .or_default()
                    .entry(entry.user)
                    .or_insert(0) += 1;
            }
        }
        shares.retain(|fp_bytes, entry| match recount.get(fp_bytes) {
            Some(owners) => {
                let owners: Vec<(u64, u32)> = owners.iter().map(|(&u, &c)| (u, c)).collect();
                let mut current = entry.owners.clone();
                current.sort_unstable();
                if current != owners {
                    entry.owners = owners;
                    self.share_index
                        .insert_entry(&Fingerprint::from_bytes(*fp_bytes), entry);
                    report.share_refs_reconciled += 1;
                }
                true
            }
            None => {
                self.share_index
                    .remove_entry(&Fingerprint::from_bytes(*fp_bytes));
                report.share_refs_reconciled += 1;
                false
            }
        });

        // 4. Ownership mappings must resolve to a surviving share the
        // mapping's user still owns (with the recounted ownership).
        for (key, value) in self.user_shares.export() {
            let valid = key.len() == 40 && value.len() == 32 && {
                let user = u64::from_be_bytes(key[0..8].try_into().expect("8 bytes"));
                let fp_bytes: [u8; 32] = value.as_slice().try_into().expect("32 bytes");
                shares
                    .get(&fp_bytes)
                    .map(|entry| entry.owned_by(user))
                    .unwrap_or(false)
            };
            if !valid {
                self.user_shares.delete(&key);
                report.mappings_pruned += 1;
            }
        }

        // 5. Rebuild the liveness ledger — from the recovered indices and
        // the backend object *sizes*, never the payloads: a blob is live iff
        // an index entry points at it, and steps 1–4 made index ↔ backend
        // consistent, so live bytes (and each live container's kind) are
        // exactly derivable without downloading a single container. Dead
        // bytes are the remainder of the object size, which over-counts by
        // the container's header framing — harmless: outright deletion
        // triggers on live == 0 (exact), and compaction re-reads the real
        // container anyway. This keeps `open` O(index + container count)
        // instead of O(stored bytes).
        let mut live_share: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for entry in shares.values() {
            *live_share.entry(entry.location.container_id).or_insert(0) +=
                entry.location.size as u64;
        }
        let mut live_recipe: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (entry, _) in &surviving {
            *live_recipe.entry(entry.recipe_container_id).or_insert(0) += entry.recipe_size as u64;
        }
        let mut ledger = Vec::with_capacity(ids.len());
        for &id in &ids {
            // Containers are single-kind, so whichever index references one
            // names its kind; unreferenced containers are fully dead and
            // their kind is irrelevant (deletion does not consult it).
            let (kind, live) = if let Some(&live) = live_share.get(&id) {
                (ContainerKind::Share, live)
            } else if let Some(&live) = live_recipe.get(&id) {
                (ContainerKind::Recipe, live)
            } else {
                (ContainerKind::Share, 0)
            };
            let object_bytes = self
                .containers
                .backend_container_size(id)
                .map_err(CdStoreError::Storage)?;
            ledger.push((
                id,
                ContainerUsage {
                    kind,
                    live_bytes: live,
                    dead_bytes: object_bytes.saturating_sub(live),
                    sealed: true,
                },
            ));
        }
        self.containers.restore_ledger(ledger);
        self.containers.bump_next_container_id(max_id + 1);
        self.next_version.store(max_version + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Stages one record in the journal's group buffer (memory only; nothing
    /// is durable until [`Self::commit_journal`]). Every caller holds the
    /// mutated key's stripe lock — so the staging order is the apply order —
    /// and the read side of `ckpt_lock`.
    fn journal_record(&self, record: &MetaRecord<'_>) {
        self.journal.stage(|out| record.encode_into(out));
    }

    /// Makes every record staged so far durable with one backend append.
    /// Every public mutating entry point calls this before it returns, so a
    /// mutation is durable before it is acknowledged; because a commit
    /// writes a *prefix* of the staging order, anything another thread
    /// derived from a not-yet-committed mutation becomes durable no earlier
    /// than that mutation.
    ///
    /// Best-effort by design: the in-memory indices were already updated, so
    /// a failed append counts a lapse instead of failing the client
    /// operation, and the next checkpoint trigger fires eagerly to
    /// re-baseline durability from the full in-memory state. The residual
    /// window is explicit: if the host crashes after a lapse but before that
    /// checkpoint lands, the lapsed group's (acknowledged) mutations are
    /// lost with the process — the trade accepted for keeping the intricate
    /// multi-step mutation paths free of partial-journal rollback logic.
    fn commit_journal(&self) {
        let _ = self.commit_journal_strict();
    }

    /// [`Self::commit_journal`] for the one caller that cannot shrug a lapse
    /// off: garbage collection, about to *delete* backend objects on the
    /// strength of the staged records, fails the pass instead.
    fn commit_journal_strict(&self) -> Result<(), CdStoreError> {
        self.journal.commit().map_err(|e| {
            self.journal_lapses.fetch_add(1, Ordering::Relaxed);
            CdStoreError::Storage(e)
        })
    }

    /// Commits a checkpoint of the three metadata structures, superseding
    /// the journal so recovery replays only records written after this
    /// call. Runs with index mutations excluded (they block for the
    /// duration); triggered automatically past the adaptive cadence bound
    /// (see [`CHECKPOINT_INTERVAL_RECORDS`]), or explicitly.
    pub fn checkpoint(&self) -> Result<(), CdStoreError> {
        let _excl = self.ckpt_lock.write().expect("checkpoint lock");
        self.checkpoint_locked()
    }

    /// The body of [`CdStoreServer::checkpoint`]; the caller must hold the
    /// write side of `ckpt_lock`.
    ///
    /// Writes each index stripe's memtable and run counter inline (see
    /// [`crate::wal`]); the runs beneath are already durable, published by
    /// their manifests when they froze. The memtables are not flushed:
    /// a small index would then answer every lookup through Bloom filters,
    /// fence pointers and the block cache instead of its memtable.
    fn checkpoint_locked(&self) -> Result<(), CdStoreError> {
        // Drain the staging buffer into the epoch about to be superseded:
        // records staged by requests that have not reached their commit yet
        // describe states the checkpoint below already contains, and must
        // not land in the new epoch behind it. Nothing can stage while the
        // write lock is held, so the buffer stays empty until the epoch
        // rolls.
        self.commit_journal();
        debug_assert!(!self.journal.has_staged());
        let mut blob = CHECKPOINT_VERSION.to_be_bytes().to_vec();
        let entries = write_index(&mut blob, &self.share_index)
            + write_index(&mut blob, &self.file_index)
            + write_index(&mut blob, &self.user_shares);
        self.journal
            .commit_checkpoint(&blob)
            .map_err(CdStoreError::Storage)?;
        self.last_snapshot_entries
            .store(entries as u64, Ordering::Relaxed);
        self.journal_lapses.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Whether the journal has outgrown the adaptive cadence bound (or a
    /// journal append ever failed — only a checkpoint restores full
    /// durability after a lapse).
    fn checkpoint_due(&self) -> bool {
        let bound =
            CHECKPOINT_INTERVAL_RECORDS.max(self.last_snapshot_entries.load(Ordering::Relaxed) / 4);
        self.journal.records_since_checkpoint() >= bound
            || self.journal_lapses.load(Ordering::Relaxed) > 0
    }

    /// Commits a checkpoint if one is due. The trigger is re-checked under
    /// the write lock, so a herd of threads crossing the cadence bound
    /// together commits one snapshot, not one each. Best-effort: a failed
    /// checkpoint leaves the journal as the (longer) recovery source and is
    /// retried at the next trigger.
    fn maybe_checkpoint(&self) {
        if !self.checkpoint_due() {
            return;
        }
        let _excl = self.ckpt_lock.write().expect("checkpoint lock");
        if !self.checkpoint_due() {
            return; // another thread committed while we queued
        }
        let _ = self.checkpoint_locked();
    }

    /// The ownership-map key `user ‖ client fingerprint`, built on the
    /// stack: a lookup by it allocates nothing.
    fn user_share_key(user: u64, fp: &Fingerprint) -> [u8; 40] {
        let mut key = [0u8; 40];
        key[..8].copy_from_slice(&user.to_be_bytes());
        key[8..].copy_from_slice(fp.as_bytes());
        key
    }

    /// Server-side fingerprints of a batch (never reuse the client's),
    /// computed for the whole batch before any lock is taken.
    fn server_fingerprints(&self, shares: &[(ShareMetadata, Vec<u8>)]) -> Vec<Fingerprint> {
        let datas: Vec<&[u8]> = shares.iter().map(|(_, data)| data.as_slice()).collect();
        Fingerprint::tagged_batch(&self.tag, &datas)
    }

    /// The body of `store_shares` and `commit_file`: applies and stages the
    /// batch share by share, one verdict each into `receipt` — so after a
    /// failure its verdicts count the shares applied, and so do the server's
    /// counters, bumped once per batch. The caller holds `ckpt_lock.read()`
    /// and commits.
    fn store_batch(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
        server_fps: &[Fingerprint],
        receipt: &mut StoreReceipt,
    ) -> Result<(), CdStoreError> {
        let StoreReceipt {
            new_bytes,
            verdicts,
        } = receipt;
        verdicts.reserve(shares.len());
        let (mut applied, mut received_bytes, mut stored_bytes, mut inter_user) = (0, 0, 0, 0);
        let mut result = Ok(());
        for ((meta, data), &server_fp) in shares.iter().zip(server_fps) {
            let outcome = match self.apply_share(user, meta, data, server_fp) {
                Ok(outcome) => outcome,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            applied += 1;
            received_bytes += data.len() as u64;
            verdicts.push(match outcome {
                StoreOutcome::DedupInterUser => {
                    inter_user += 1;
                    ShareVerdict::DuplicateInterUser
                }
                // The user's own uploads raced past the intra-user query
                // stage; not an inter-user duplicate.
                StoreOutcome::DedupIntraUser => ShareVerdict::DuplicateIntraUser,
                StoreOutcome::Stored => {
                    stored_bytes += data.len() as u64;
                    ShareVerdict::Stored
                }
            });
        }
        *new_bytes += stored_bytes;
        let stats = &self.stats;
        stats.shares_received.fetch_add(applied, Ordering::Relaxed);
        stats
            .received_share_bytes
            .fetch_add(received_bytes, Ordering::Relaxed);
        stats
            .inter_user_duplicates
            .fetch_add(inter_user, Ordering::Relaxed);
        stats
            .physical_share_bytes
            .fetch_add(stored_bytes, Ordering::Relaxed);
        result
    }

    /// Applies and stages one share of a batch: the stripe-locked index
    /// upsert (appending new content to the user's open container) and the
    /// user's client-fingerprint → server-fingerprint link.
    fn apply_share(
        &self,
        user: u64,
        meta: &ShareMetadata,
        data: &[u8],
        server_fp: Fingerprint,
    ) -> Result<StoreOutcome, CdStoreError> {
        let (_, outcome) = self
            .share_index
            .add_reference_or_store_with(
                &server_fp,
                user,
                || self.containers.store_share(user, server_fp, data),
                |post| {
                    self.journal_record(&MetaRecord::ShareUpsert {
                        fp: server_fp,
                        entry: Cow::Borrowed(post),
                    });
                },
            )
            .map_err(CdStoreError::Storage)?;
        self.user_shares.put_with(
            Self::user_share_key(user, &meta.fingerprint).to_vec(),
            server_fp.as_bytes().to_vec(),
            |key, value| {
                self.journal_record(&MetaRecord::MapPut {
                    key: key.into(),
                    value: value.into(),
                });
            },
        );
        Ok(outcome)
    }

    /// Resolves a client-computed fingerprint to the server fingerprint of
    /// the share, through the user's ownership mapping.
    fn resolve_server_fp(&self, user: u64, client_fp: &Fingerprint) -> Option<Fingerprint> {
        self.user_shares
            .peek(&Self::user_share_key(user, client_fp), |bytes| {
                bytes.try_into().ok().map(Fingerprint::from_bytes)
            })
            .flatten()
    }

    /// Takes `count` references on behalf of `user` for the share the client
    /// knows by `client_fp`, in one stripe-locked step and one journal
    /// record. Fails if the user never uploaded the share (a recipe must
    /// only reference shares its owner holds). `count == 0` performs only
    /// that check: nothing is mutated or journaled.
    fn add_share_references(
        &self,
        user: u64,
        client_fp: &Fingerprint,
        count: u32,
    ) -> Result<(), CdStoreError> {
        let missing = || CdStoreError::MissingShare(client_fp.to_hex());
        let server_fp = self
            .resolve_server_fp(user, client_fp)
            .ok_or_else(missing)?;
        let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
        let found =
            self.share_index
                .add_references_existing_with(&server_fp, user, count, |post| {
                    self.journal_record(&MetaRecord::ShareUpsert {
                        fp: server_fp,
                        entry: Cow::Borrowed(post),
                    });
                });
        if found {
            Ok(())
        } else {
            Err(missing())
        }
    }

    /// Drops one of `user`'s references on the share the client knows by
    /// `client_fp`. When the user's last reference goes, their ownership
    /// mapping is torn down (the share can no longer be fetched or claimed
    /// as an intra-user duplicate by this user); when the *global* last
    /// reference goes, the share's container bytes are released to the
    /// liveness ledger for the garbage collector. Tolerant of already
    /// released shares, so delete paths can be replayed.
    fn release_share_reference(&self, user: u64, client_fp: &Fingerprint) {
        let Some(server_fp) = self.resolve_server_fp(user, client_fp) else {
            return;
        };
        let report = {
            let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
            self.share_index
                .remove_reference_with(&server_fp, user, |post| {
                    self.journal_record(&match post {
                        Some(entry) => MetaRecord::ShareUpsert {
                            fp: server_fp,
                            entry: Cow::Borrowed(entry),
                        },
                        None => MetaRecord::ShareDelete { fp: server_fp },
                    });
                })
        };
        let Some(report) = report else {
            return;
        };
        if report.user_refs == 0 {
            let key = Self::user_share_key(user, client_fp);
            {
                let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
                self.user_shares.delete_with(&key, || {
                    self.journal_record(&MetaRecord::MapDelete {
                        key: key.as_slice().into(),
                    });
                });
            }
            // Repair a racing same-user re-upload: if the user re-acquired
            // references between the stripe-locked decrement above and the
            // mapping delete (a store_shares on another of their files), the
            // delete just removed a mapping that is needed again — restore
            // it. The mapping value is deterministic in the content, so
            // re-putting can never install a wrong translation.
            if self
                .share_index
                .lookup(&server_fp)
                .map(|entry| entry.owned_by(user))
                .unwrap_or(false)
            {
                let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
                self.user_shares.put_with(
                    key.to_vec(),
                    server_fp.as_bytes().to_vec(),
                    |key, value| {
                        self.journal_record(&MetaRecord::MapPut {
                            key: key.into(),
                            value: value.into(),
                        });
                    },
                );
            }
        }
        if report.total_refs == 0 {
            self.containers.release(&report.location);
        }
    }

    /// Reads and decodes the recipe blob at a container location.
    fn read_recipe(&self, location: &ShareLocation) -> Result<FileRecipe, CdStoreError> {
        let bytes = self.containers.fetch(location)?;
        FileRecipe::from_bytes(&bytes)
            .ok_or_else(|| CdStoreError::InconsistentMetadata("corrupt file recipe".into()))
    }

    /// Releases every share reference a recipe holds, plus the recipe blob
    /// itself (called when a superseded recipe version is retired).
    fn release_recipe(&self, user: u64, location: &ShareLocation) -> Result<(), CdStoreError> {
        let recipe = self.read_recipe(location)?;
        for entry in &recipe.entries {
            self.release_share_reference(user, &entry.share_fingerprint);
        }
        self.containers.release(location);
        Ok(())
    }

    /// Stores the file recipe, registers the file in the file index, and
    /// settles the share reference counts: every recipe entry holds one
    /// reference (resolved through the user's ownership mappings), and the
    /// per-upload references `store_shares` took for the shares in
    /// `uploaded` are given back. The reference count of a share therefore
    /// equals the number of live recipe entries pointing at it — the
    /// invariant deletion and garbage collection rely on.
    ///
    /// Each *distinct* share is settled once, by its net change
    /// `occurrences in the recipe − occurrences in uploaded` (`uploaded` is
    /// a multiset: two copies of one chunk in one batch took two upload
    /// references). A freshly uploaded share nets to zero and is only
    /// checked, never written or journaled; a share an upload is committing
    /// is never decremented on the way, so it cannot transiently touch zero.
    ///
    /// If this upload supersedes an older version of the file, the old
    /// version's references and recipe bytes are released; if it loses a
    /// version race (a strictly newer recipe is already in place), its own
    /// references and recipe bytes are released instead.
    ///
    /// The one place reference counts are settled, reached only through
    /// `commit_file`. Stages its journal records, which the caller commits
    /// whatever the outcome.
    fn settle_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        let key = FileKey::new(user, encoded_pathname);
        // 1. The net reference change per distinct share, in order of first
        // appearance (the journal's record order must not depend on a hash
        // seed: seeded chaos runs compare backend bytes).
        let mut net: HashMap<Fingerprint, i64> = HashMap::with_capacity(recipe.entries.len());
        for entry in &recipe.entries {
            *net.entry(entry.share_fingerprint).or_default() += 1;
        }
        for fp in uploaded {
            *net.entry(*fp).or_default() -= 1;
        }
        let nets: Vec<(Fingerprint, i64)> = (recipe.entries.iter().map(|e| e.share_fingerprint))
            .chain(uploaded.iter().copied())
            .filter_map(|fp| net.remove(&fp).map(|n| (fp, n)))
            .collect();
        // 2. Apply the non-negative nets (a zero net only verifies that the
        // user still owns the share). On failure (e.g. the recipe references
        // a share a concurrent delete just released) roll back completely —
        // the nets applied so far *and* the upload's transient references —
        // so a failed commit leaks nothing: the upload's shares go dead and
        // the garbage collector reclaims them.
        for (applied, &(fp, net)) in nets.iter().enumerate() {
            if net < 0 {
                continue;
            }
            if let Err(e) = self.add_share_references(user, &fp, net as u32) {
                for &(earlier, net) in &nets[..applied] {
                    for _ in 0..net {
                        self.release_share_reference(user, &earlier);
                    }
                }
                for fp in uploaded {
                    self.release_share_reference(user, fp);
                }
                return Err(e);
            }
        }
        // 3. ...then the negative ones: upload references no recipe entry
        // took over. (After the adds, so nothing this recipe references can
        // be released on the way.)
        for &(fp, net) in &nets {
            for _ in net..0 {
                self.release_share_reference(user, &fp);
            }
        }
        // 4. Persist the recipe blob; a backend failure here also rolls the
        // per-entry references back so nothing stays live unreclaimed.
        let recipe_bytes = recipe.to_bytes();
        let recipe_fp = Fingerprint::tagged(b"recipe", key.as_bytes());
        let location = match self.containers.store_recipe(user, recipe_fp, &recipe_bytes) {
            Ok(location) => location,
            Err(e) => {
                for entry in &recipe.entries {
                    self.release_share_reference(user, &entry.share_fingerprint);
                }
                return Err(CdStoreError::Storage(e));
            }
        };
        self.stats
            .recipe_bytes
            .fetch_add(recipe_bytes.len() as u64, Ordering::Relaxed);
        // 5. Swap the index entry. The version is allocated before the index
        // stripe lock, so racing re-uploads of the same file may arrive out
        // of order; put_if_newer keeps the highest *on this server*.
        // Cross-server consistency of a file's n recipes is the caller's
        // job: `CdStore` serialises whole-file writes per (user, pathname),
        // since each server orders versions independently.
        let outcome = {
            let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
            self.file_index.put_if_newer_with(
                key,
                FileEntry {
                    user,
                    recipe_container_id: location.container_id,
                    recipe_offset: location.offset,
                    recipe_size: location.size,
                    file_size: recipe.file_size,
                    num_secrets: recipe.num_secrets() as u64,
                    version: self.next_version.fetch_add(1, Ordering::Relaxed),
                },
                |entry| {
                    self.journal_record(&MetaRecord::FileUpsert {
                        key,
                        entry: entry.clone(),
                    });
                },
            )
        };
        match outcome {
            FilePutOutcome::Written { displaced: None } => Ok(()),
            FilePutOutcome::Written {
                displaced: Some(old),
            } => self.release_recipe(user, &old.recipe_location()),
            FilePutOutcome::Stale => {
                // A strictly newer version won the race: this upload's
                // references and recipe blob are garbage on arrival.
                for entry in &recipe.entries {
                    self.release_share_reference(user, &entry.share_fingerprint);
                }
                self.containers.release(&location);
                Ok(())
            }
        }
    }

    /// The body of `delete_file`: removes the file's index entry and
    /// releases every share reference its recipe holds, tearing down the
    /// user's ownership mappings for shares they no longer reference
    /// anywhere. Shares whose global reference count hits zero become dead
    /// bytes for the garbage collector (`gc_with`) to reclaim. Stages its
    /// journal records, which the caller commits whatever the outcome.
    fn remove_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        let key = FileKey::new(user, encoded_pathname);
        for _ in 0..RELOCATION_RETRIES {
            // Read the recipe *before* removing the index entry: if the blob
            // is unreadable (backend error) the delete fails with the file
            // intact and retryable, instead of dropping the entry while
            // leaking every reference the unread recipe held.
            let Some(peek) = self.file_index.get(&key) else {
                return Ok(false);
            };
            let mut recipe = match self.read_recipe(&peek.recipe_location()) {
                Ok(recipe) => recipe,
                // A concurrent re-upload displaced this version and a gc
                // pass already reclaimed its dead recipe container: the
                // index now points at the live version, so re-resolve.
                Err(CdStoreError::Storage(StorageError::NotFound(_))) => continue,
                Err(e) => return Err(e),
            };
            // Commit point: whoever wins the remove owns the release (two
            // racing deletes must not release the same references twice).
            let removed = {
                let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
                self.file_index.remove_with(&key, |_| {
                    self.journal_record(&MetaRecord::FileDelete { key });
                })
            };
            let Some(entry) = removed else {
                return Ok(false);
            };
            if entry.recipe_location() != peek.recipe_location() {
                // A concurrent re-upload swapped the entry between the read
                // and the remove: release the version actually removed. (Its
                // blob is still live — we now hold the only claim to it — so
                // this read cannot race a reclamation.)
                recipe = self.read_recipe(&entry.recipe_location())?;
            }
            for re in &recipe.entries {
                self.release_share_reference(user, &re.share_fingerprint);
            }
            self.containers.release(&entry.recipe_location());
            return Ok(true);
        }
        Err(CdStoreError::FileNotFound(format!(
            "user {user} on cloud {} (recipe vanished mid-delete)",
            self.cloud_index
        )))
    }

    /// Fetches one share owned by `user` by its client fingerprint,
    /// re-resolving it each try: the fallback of [`Self::fetch_shares_within`]
    /// for a run whose container an online compaction pass deleted between
    /// the index lookup and the read (the index then already points at the
    /// fresh copy).
    fn fetch_share(&self, user: u64, client_fp: &Fingerprint) -> Result<Vec<u8>, CdStoreError> {
        for _ in 0..RELOCATION_RETRIES {
            let location = self.locate_share(user, client_fp)?;
            match self.containers.fetch(&location) {
                Ok(data) => {
                    self.stats
                        .served_share_bytes
                        .fetch_add(data.len() as u64, Ordering::Relaxed);
                    return Ok(data);
                }
                Err(StorageError::NotFound(_)) => continue,
                Err(e) => return Err(CdStoreError::Storage(e)),
            }
        }
        Err(CdStoreError::MissingShare(format!(
            "{} (share vanished mid-read)",
            client_fp.to_hex()
        )))
    }

    /// Where the share `user` knows by `client_fp` is stored: the user's
    /// ownership mapping, then the share index, each read in place.
    fn locate_share(
        &self,
        user: u64,
        client_fp: &Fingerprint,
    ) -> Result<ShareLocation, CdStoreError> {
        let missing = || CdStoreError::MissingShare(client_fp.to_hex());
        let server_fp = self
            .user_shares
            .peek(&Self::user_share_key(user, client_fp), |bytes| {
                bytes.try_into().ok().map(Fingerprint::from_bytes)
            })
            .ok_or_else(missing)?
            .ok_or_else(|| CdStoreError::InconsistentMetadata("bad fingerprint mapping".into()))?;
        self.share_index.location(&server_fp).ok_or_else(missing)
    }

    /// Reads a batch of shares owned by `user`, identified by the *client*
    /// fingerprints recorded in the file recipe, into a reply that must hold
    /// at most `max_bytes` of shares. Ownership is enforced: a user who
    /// never uploaded a share cannot retrieve it by fingerprint alone (the
    /// proof-of-ownership side channel of §3.3).
    ///
    /// The whole batch is resolved first. If the resolved shares hold more
    /// than `max_bytes`, nothing is read and the answer is `false`.
    /// Otherwise `open` is called once with their total size and returns the
    /// sink that then receives each share, in request order, borrowed from
    /// its container: a caller copies each share once, into whatever it
    /// builds. Each run of consecutive shares in one container is read with
    /// one look for that container ([`ContainerStore::fetch_run`]); a run
    /// whose container a gc pass deleted in between falls back to
    /// `fetch_share` share by share, which re-resolves. On an error the
    /// sink may have received some of the shares.
    pub fn fetch_shares_within<S: FnMut(&[u8])>(
        &self,
        user: u64,
        client_fps: &[Fingerprint],
        max_bytes: u64,
        open: impl FnOnce(u64) -> S,
    ) -> Result<bool, CdStoreError> {
        let mut locations = Vec::with_capacity(client_fps.len());
        for fp in client_fps {
            locations.push(self.locate_share(user, fp)?);
        }
        let bytes: u64 = locations.iter().map(|l| u64::from(l.size)).sum();
        if bytes > max_bytes {
            return Ok(false);
        }
        let mut sink = open(bytes);
        let mut served = 0u64;
        let mut start = 0;
        for run in locations.chunk_by(|a, b| a.container_id == b.container_id) {
            let read = self.containers.fetch_run(run, |share| {
                served += share.len() as u64;
                sink(share);
            });
            match read {
                Ok(()) => {}
                Err(StorageError::NotFound(_)) => {
                    for fp in &client_fps[start..start + run.len()] {
                        // Counts its own served bytes.
                        sink(&self.fetch_share(user, fp)?);
                    }
                }
                Err(e) => return Err(CdStoreError::Storage(e)),
            }
            start += run.len();
        }
        self.stats
            .served_share_bytes
            .fetch_add(served, Ordering::Relaxed);
        Ok(true)
    }

    /// The storage backend this server persists to — the handle a restart
    /// recovers the server from ([`CdStoreServer::open`]).
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        self.containers.backend()
    }

    /// The body of a garbage-collection pass, `gc_with`: seals the open
    /// containers that carry dead bytes (other users' in-progress
    /// containers are left open so periodic vacuums don't fragment active
    /// backup streams), deletes sealed containers with no live bytes, and
    /// compacts sealed *share* containers whose dead ratio crosses
    /// `config.dead_ratio` by rewriting their live shares into fresh
    /// containers and atomically repointing the share index under its
    /// stripe locks. The pass runs online — concurrent backups, restores,
    /// and deletes stay correct (readers re-resolve relocated shares;
    /// writers hold references that keep their shares live) — but passes
    /// themselves are serialised on `gc_lock`, which the caller holds.
    ///
    /// Recipe containers are only ever reclaimed whole: recipes relocate
    /// poorly (the file index is keyed by hashed pathnames, which cannot be
    /// recovered from a container scan), so a recipe container is deleted
    /// once every recipe in it is dead and merely waits otherwise.
    ///
    /// Durability ordering: a container is deleted only on the strength of
    /// records that are already durable. Every release that moved bytes to
    /// the ledger's dead column staged its record *first*, so committing
    /// after the ledger snapshot covers every fully-dead container in it;
    /// [`Self::compact_container`] commits its own relocations before its
    /// delete. A failed commit fails the pass rather than deleting anyway.
    fn vacuum(&self, config: GcConfig, report: &mut GcReport) -> Result<(), CdStoreError> {
        self.containers.flush_dead()?;
        let usages = self.containers.sealed_usages();
        self.commit_journal_strict()?;
        for (id, usage) in usages {
            if usage.live_bytes == 0 {
                self.containers.delete_container(id)?;
                report.containers_deleted += 1;
                report.reclaimed_bytes += usage.dead_bytes;
            } else if usage.kind == ContainerKind::Share && usage.dead_ratio() >= config.dead_ratio
            {
                self.compact_container(id, report)?;
            }
        }
        Ok(())
    }

    /// Rewrites the live shares of one sealed container into fresh
    /// containers, repoints the index, and deletes the container.
    ///
    /// Crash-ordering: the fresh containers are sealed to the backend
    /// *before* any relocation is journaled, and the old container is
    /// deleted only *after* every relocation is committed to the journal —
    /// so at every instant each share's durable index location points at a
    /// container that is durably on the backend, and a crash anywhere in the
    /// pass loses nothing (leftover copies are dead bytes a later pass
    /// reclaims).
    fn compact_container(&self, id: u64, report: &mut GcReport) -> Result<(), CdStoreError> {
        let container = self.containers.fetch_container(id)?;
        // 1. Copy every live blob into fresh (open) containers.
        let mut copies: Vec<(Fingerprint, ShareLocation, ShareLocation)> = Vec::new();
        let mut fresh_ids = std::collections::BTreeSet::new();
        for entry in &container.entries {
            let old = ShareLocation {
                container_id: id,
                offset: entry.offset,
                size: entry.length,
            };
            // Container entries carry the server fingerprint; only copy
            // blobs the index still points at *in this container* (stale
            // copies of shares stored again elsewhere are dead).
            match self.share_index.lookup(&entry.fingerprint) {
                Some(share) if share.location == old => {}
                _ => continue,
            }
            let data = container
                .get_at(entry.offset, entry.length)
                .ok_or_else(|| {
                    CdStoreError::InconsistentMetadata(format!(
                        "container {id} misses a live entry"
                    ))
                })?;
            let fresh = self
                .containers
                .store_share(container.user, entry.fingerprint, data)?;
            fresh_ids.insert(fresh.container_id);
            copies.push((entry.fingerprint, old, fresh));
        }
        // 2. Make the fresh copies durable before repointing anything at
        // them: recovery prunes index entries whose container is missing
        // from the backend, so journaling a relocation to an unsealed
        // container would turn a crash into data loss even though the old
        // container still held the bytes.
        for &fresh_id in &fresh_ids {
            self.containers.seal_open_container(fresh_id)?;
        }
        // 3. Repoint the index, journaling each relocation. Concurrent
        // readers resolve the old location until the swap and the fresh one
        // after it — both sealed, so neither read can miss.
        for (fp, old, fresh) in copies {
            let relocated = {
                let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
                self.share_index.relocate_with(&fp, old, fresh, |post| {
                    self.journal_record(&MetaRecord::ShareUpsert {
                        fp,
                        entry: Cow::Borrowed(post),
                    });
                })
            };
            if relocated {
                report.shares_rewritten += 1;
                report.rewritten_bytes += old.size as u64;
            } else {
                // The share was released while we copied it: the fresh copy
                // is dead on arrival and the old container loses nothing.
                self.containers.release(&fresh);
            }
        }
        // The relocations must be durable before the bytes they moved away
        // from disappear: replaying a journal without them would resolve
        // these shares into a container that no longer exists.
        self.commit_journal_strict()?;
        // Re-read the ledger: releases may have landed while copying.
        let dead = self
            .containers
            .container_usage(id)
            .map(|usage| usage.dead_bytes)
            .unwrap_or(0);
        self.containers.delete_container(id)?;
        report.containers_compacted += 1;
        report.reclaimed_bytes += dead;
        Ok(())
    }
}

/// The server's client-facing calls, and their only names: the in-process
/// path of the trait, which `cdstore_net`'s wire server also answers
/// through.
impl ServerTransport for CdStoreServer {
    fn cloud_index(&self) -> usize {
        self.cloud_index
    }

    /// Allocates only the answer.
    fn intra_user_query(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, CdStoreError> {
        Ok(fingerprints
            .iter()
            .map(|fp| self.user_shares.contains(&Self::user_share_key(user, fp)))
            .collect())
    }

    /// Inter-user deduplication (§3.3): the server recomputes its own
    /// fingerprint from the share content, stores only globally unique
    /// shares into containers, and records ownership. When two clients race
    /// on the same share content, the fingerprint's stripe lock serialises
    /// them: exactly one performs the container append, the other only
    /// gains a reference.
    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError> {
        let server_fps = self.server_fingerprints(shares);
        let mut receipt = StoreReceipt::default();
        let stored = {
            // One checkpoint-lock acquisition and one journal commit for
            // the batch. The commit also covers a batch that failed part
            // way: the shares applied before the failure stay applied.
            let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
            let stored = self.store_batch(user, shares, &server_fps, &mut receipt);
            self.commit_journal();
            stored
        };
        // The cadence is checked here too (not only at a commit), so one
        // large file's batches cannot grow the journal without bound.
        self.maybe_checkpoint();
        stored.map(|()| receipt)
    }

    /// `commit_file` with an empty last batch.
    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        self.commit_file(user, encoded_pathname, &[], recipe, uploaded)
            .map(drop)
    }

    /// Stores `last_batch` and settles the file (`settle_file`) under one
    /// journal commit. A store that fails part way releases the shares of
    /// the batch it applied and `uploaded`; a failed settlement rolls its
    /// own references back.
    fn commit_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        last_batch: &[(ShareMetadata, Vec<u8>)],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<StoreReceipt, CdStoreError> {
        let server_fps = self.server_fingerprints(last_batch);
        let mut receipt = StoreReceipt::default();
        let stored = {
            let _ckpt = self.ckpt_lock.read().expect("checkpoint lock");
            self.store_batch(user, last_batch, &server_fps, &mut receipt)
        };
        let batch_fps = last_batch.iter().map(|(meta, _)| meta.fingerprint);
        let result = match stored {
            Ok(()) => {
                let settled: Vec<Fingerprint> = uploaded.iter().copied().chain(batch_fps).collect();
                self.settle_file(user, encoded_pathname, recipe, &settled)
                    .map(|()| receipt)
            }
            Err(e) => {
                let applied = batch_fps.take(receipt.verdicts.len());
                for fp in uploaded.iter().copied().chain(applied) {
                    self.release_share_reference(user, &fp);
                }
                Err(e)
            }
        };
        self.commit_journal();
        self.maybe_checkpoint();
        result
    }

    /// Without it the shares of an upload whose multi-cloud commit failed
    /// part way would stay referenced, and therefore unreclaimable, forever.
    fn release_uploads(&self, user: u64, client_fps: &[Fingerprint]) -> Result<(), CdStoreError> {
        for client_fp in client_fps {
            self.release_share_reference(user, client_fp);
        }
        self.commit_journal();
        self.maybe_checkpoint();
        Ok(())
    }

    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        let key = FileKey::new(user, encoded_pathname);
        Ok(self.file_index.get(&key).is_some())
    }

    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError> {
        let key = FileKey::new(user, encoded_pathname);
        // An online compaction pass may delete a recipe container between
        // reading the index entry and fetching the blob (only once every
        // recipe in it is dead, i.e. this file was deleted or re-uploaded
        // concurrently); re-resolve the entry and retry.
        for _ in 0..RELOCATION_RETRIES {
            let entry = self.file_index.get(&key).ok_or_else(|| {
                CdStoreError::FileNotFound(format!("user {user} on cloud {}", self.cloud_index))
            })?;
            match self.read_recipe(&entry.recipe_location()) {
                Err(CdStoreError::Storage(StorageError::NotFound(_))) => continue,
                result => return result,
            }
        }
        Err(CdStoreError::FileNotFound(format!(
            "user {user} on cloud {} (recipe vanished mid-read)",
            self.cloud_index
        )))
    }

    // `open_file` keeps the default: in process, the recipe and the first
    // window's shares cost two function calls however they are grouped.

    fn delete_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        let result = self.remove_file(user, encoded_pathname);
        self.commit_journal();
        self.maybe_checkpoint();
        result
    }

    fn fetch_shares(
        &self,
        user: u64,
        client_fps: &[Fingerprint],
    ) -> Result<Vec<Vec<u8>>, CdStoreError> {
        let mut shares = Vec::with_capacity(client_fps.len());
        let out = &mut shares;
        let fits = self.fetch_shares_within(user, client_fps, u64::MAX, move |_| {
            move |share: &[u8]| out.push(share.to_vec())
        })?;
        assert!(fits, "shares of u32 sizes hold fewer than u64::MAX bytes");
        Ok(shares)
    }

    /// Called at the end of a backup job and before shutting down. A flushed
    /// server recovers completely: every journaled index entry then points
    /// at a sealed container, so [`CdStoreServer::open`] prunes nothing.
    /// Flush is the durability barrier, so a journal lapse still outstanding
    /// here is not left to the best-effort trigger: the re-baselining
    /// checkpoint must land, or the flush fails (and the caller retries it).
    fn flush(&self) -> Result<(), CdStoreError> {
        self.containers.flush()?;
        if self.journal_lapses.load(Ordering::Relaxed) > 0 {
            return self.checkpoint();
        }
        self.maybe_checkpoint();
        Ok(())
    }

    fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError> {
        let _vacuum = self.gc_lock.lock().expect("gc lock");
        let mut report = GcReport::default();
        let result = self.vacuum(config, &mut report);
        self.commit_journal();
        self.maybe_checkpoint();
        result.map(|()| report)
    }

    /// The traffic counters start at zero in each process; `index_bytes` is
    /// the indexes' *resident* footprint (memtables and, once an index
    /// spills, Bloom filters, fence pointers and block caches — what drives
    /// the instance choice of the cost model, §5.6), not the spilled runs.
    fn probe(&self) -> Result<ServerProbe, CdStoreError> {
        Ok(ServerProbe {
            stats: self.stats.snapshot(),
            backend_bytes: self.containers.backend_bytes().unwrap_or(0),
            index_bytes: (self.share_index.approximate_size()
                + self.file_index.approximate_size()
                + self.user_shares.approximate_size()) as u64,
            unique_shares: self.share_index.unique_shares() as u64,
            live_share_bytes: self.share_index.physical_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_index::{sharded::DEFAULT_SHARDS, StripeImage};

    fn meta(fp: Fingerprint, size: u32, seq: u64) -> ShareMetadata {
        ShareMetadata {
            fingerprint: fp,
            share_size: size,
            secret_seq: seq,
            secret_size: size * 3,
        }
    }

    fn share(data: &[u8]) -> (ShareMetadata, Vec<u8>) {
        (
            meta(Fingerprint::of(data), data.len() as u32, 0),
            data.to_vec(),
        )
    }

    /// Uploads `datas` as `user`'s shares and commits a recipe referencing
    /// each once, mirroring the client's upload protocol for a one-batch
    /// file (intra-user query, then commit_file carrying the batch).
    fn backup_file(
        server: &CdStoreServer,
        user: u64,
        path: &[u8],
        datas: &[Vec<u8>],
    ) -> FileRecipe {
        let shares: Vec<_> = datas.iter().map(|d| share(d)).collect();
        let fps: Vec<_> = shares.iter().map(|(m, _)| m.fingerprint).collect();
        let already = server.intra_user_query(user, &fps).unwrap();
        let to_upload: Vec<_> = shares
            .iter()
            .cloned()
            .zip(already)
            .filter_map(|(s, dup)| (!dup).then_some(s))
            .collect();
        let recipe = FileRecipe {
            file_size: datas.iter().map(|d| d.len() as u64).sum(),
            entries: shares
                .iter()
                .map(|(m, _)| crate::metadata::RecipeEntry {
                    share_fingerprint: m.fingerprint,
                    secret_size: m.secret_size,
                })
                .collect(),
        };
        server
            .commit_file(user, path, &to_upload, &recipe, &[])
            .unwrap();
        recipe
    }

    #[test]
    fn inter_user_dedup_stores_one_copy() {
        let server = CdStoreServer::new(0);
        let s = share(b"identical share content");
        let new_a = server
            .store_shares(1, std::slice::from_ref(&s))
            .unwrap()
            .new_bytes;
        let new_b = server
            .store_shares(2, std::slice::from_ref(&s))
            .unwrap()
            .new_bytes;
        assert_eq!(new_a, s.1.len() as u64);
        assert_eq!(new_b, 0, "second user's identical share is deduplicated");
        assert_eq!(server.probe().unwrap().unique_shares, 1);
        assert_eq!(server.probe().unwrap().stats.inter_user_duplicates, 1);
        assert_eq!(
            server.probe().unwrap().stats.received_share_bytes,
            2 * s.1.len() as u64
        );
        assert_eq!(
            server.probe().unwrap().stats.physical_share_bytes,
            s.1.len() as u64
        );
    }

    #[test]
    fn same_user_duplicate_is_not_counted_as_inter_user() {
        let server = CdStoreServer::new(0);
        let s = share(b"same user twice");
        server.store_shares(1, std::slice::from_ref(&s)).unwrap();
        // A second upload by the same user (e.g. two of their devices racing
        // past the intra-user query) is an intra-user duplicate.
        let second = server
            .store_shares(1, std::slice::from_ref(&s))
            .unwrap()
            .new_bytes;
        assert_eq!(second, 0);
        assert_eq!(server.probe().unwrap().stats.inter_user_duplicates, 0);
        assert_eq!(server.probe().unwrap().unique_shares, 1);
        assert_eq!(
            server.probe().unwrap().stats.physical_share_bytes,
            s.1.len() as u64
        );
    }

    #[test]
    fn intra_user_query_reports_only_own_uploads() {
        let server = CdStoreServer::new(0);
        let s1 = share(b"first");
        let s2 = share(b"second");
        server.store_shares(1, std::slice::from_ref(&s1)).unwrap();
        server.store_shares(2, std::slice::from_ref(&s2)).unwrap();
        // User 1 owns s1 but not s2 (even though s2 is stored): the reply must
        // not leak other users' deduplication state.
        let reply = server
            .intra_user_query(1, &[s1.0.fingerprint, s2.0.fingerprint])
            .unwrap();
        assert_eq!(reply, vec![true, false]);
        let reply2 = server
            .intra_user_query(2, &[s1.0.fingerprint, s2.0.fingerprint])
            .unwrap();
        assert_eq!(reply2, vec![false, true]);
    }

    #[test]
    fn fetch_share_enforces_ownership() {
        let server = CdStoreServer::new(0);
        let s = share(b"sensitive share of user 1");
        server.store_shares(1, std::slice::from_ref(&s)).unwrap();
        server.flush().unwrap();
        assert_eq!(server.fetch_share(1, &s.0.fingerprint).unwrap(), s.1);
        // User 2 knows the fingerprint but never uploaded the share: denied.
        assert!(matches!(
            server.fetch_share(2, &s.0.fingerprint),
            Err(CdStoreError::MissingShare(_))
        ));
    }

    /// A batch is read run by run across a sealed and an open container in
    /// request order, is refused whole when one share is not the user's,
    /// and reads nothing past a byte cap.
    #[test]
    fn a_batch_fetch_reads_its_runs_in_order_within_its_cap() {
        let server = CdStoreServer::new(0);
        let sealed = share(b"a share in a sealed container");
        server
            .store_shares(1, std::slice::from_ref(&sealed))
            .unwrap();
        server.flush().unwrap();
        let open = share(b"a share in the open container");
        server.store_shares(1, std::slice::from_ref(&open)).unwrap();
        let fps = [
            sealed.0.fingerprint,
            open.0.fingerprint,
            sealed.0.fingerprint,
        ];
        let want = vec![sealed.1.clone(), open.1.clone(), sealed.1.clone()];
        assert_eq!(server.fetch_shares(1, &fps).unwrap(), want);
        let bytes = want.iter().map(|s| s.len() as u64).sum::<u64>();
        let within = |max_bytes| {
            let mut got = Vec::new();
            let out = &mut got;
            let fits = server
                .fetch_shares_within(1, &fps, max_bytes, move |total| {
                    assert_eq!(total, bytes);
                    move |share: &[u8]| out.push(share.to_vec())
                })
                .unwrap();
            fits.then_some(got)
        };
        assert_eq!(within(bytes - 1), None);
        assert_eq!(within(bytes), Some(want));
        assert!(matches!(
            server.fetch_shares(2, &fps),
            Err(CdStoreError::MissingShare(_))
        ));
    }

    #[test]
    fn recipes_round_trip_through_containers() {
        let server = CdStoreServer::new(1);
        let datas: Vec<Vec<u8>> = (0..50u32)
            .map(|i| format!("secret share {i}").into_bytes())
            .collect();
        let recipe = backup_file(&server, 7, b"/home/u/backup.tar", &datas);
        assert!(server.has_file(7, b"/home/u/backup.tar").unwrap());
        assert!(!server.has_file(8, b"/home/u/backup.tar").unwrap());
        let fetched = server.get_recipe(7, b"/home/u/backup.tar").unwrap();
        assert_eq!(fetched, recipe);
        assert!(matches!(
            server.get_recipe(7, b"/missing"),
            Err(CdStoreError::FileNotFound(_))
        ));
    }

    #[test]
    fn recipes_may_only_reference_owned_shares() {
        let server = CdStoreServer::new(0);
        let recipe = FileRecipe {
            file_size: 999,
            entries: vec![crate::metadata::RecipeEntry {
                share_fingerprint: Fingerprint::of(b"never uploaded"),
                secret_size: 14,
            }],
        };
        assert!(matches!(
            server.put_file(7, b"/f", &recipe, &[]),
            Err(CdStoreError::MissingShare(_))
        ));
    }

    #[test]
    fn failed_put_file_rolls_back_every_reference() {
        let server = CdStoreServer::new(0);
        let good = share(b"uploaded fine");
        server.store_shares(1, std::slice::from_ref(&good)).unwrap();
        // The recipe references the uploaded share and one the user never
        // uploaded: the commit must fail without leaking the upload's
        // transient reference (the share goes dead and reclaimable).
        let recipe = FileRecipe {
            file_size: 2,
            entries: vec![
                crate::metadata::RecipeEntry {
                    share_fingerprint: good.0.fingerprint,
                    secret_size: 13,
                },
                crate::metadata::RecipeEntry {
                    share_fingerprint: Fingerprint::of(b"never uploaded"),
                    secret_size: 14,
                },
            ],
        };
        assert!(matches!(
            server.put_file(1, b"/f", &recipe, &[good.0.fingerprint]),
            Err(CdStoreError::MissingShare(_))
        ));
        assert!(!server.has_file(1, b"/f").unwrap());
        assert_eq!(
            server.probe().unwrap().unique_shares,
            0,
            "rolled back to zero references"
        );
        assert!(server.fetch_share(1, &good.0.fingerprint).is_err());
        server.gc_with(GcConfig::default()).unwrap();
        assert_eq!(server.probe().unwrap().backend_bytes, 0);
    }

    /// The merged call fails as `put_file` does, and takes its last batch
    /// down with it: no reference of the earlier batches or of this one
    /// survives. Either way the journal folds to the live indexes.
    #[test]
    fn a_failed_commit_releases_its_batch_and_the_earlier_uploads() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        let earlier = share(b"an earlier batch");
        let last = share(b"the last batch");
        let commit = |recipe: &FileRecipe| {
            server.store_shares(1, std::slice::from_ref(&earlier))?;
            server.commit_file(
                1,
                b"/f",
                std::slice::from_ref(&last),
                recipe,
                &[earlier.0.fingerprint],
            )
        };
        let stray = recipe_of(&[&earlier.1, &last.1, b"never uploaded"]);
        assert!(matches!(commit(&stray), Err(CdStoreError::MissingShare(_))));
        assert!(!server.has_file(1, b"/f").unwrap());
        assert_eq!(
            server.probe().unwrap().unique_shares,
            0,
            "rolled back to zero references"
        );
        assert_eq!(folded_journal(&*backend), live_state(&server));
        server.gc_with(GcConfig::default()).unwrap();
        assert_eq!(server.probe().unwrap().backend_bytes, 0);

        // Without the stray entry the same call commits the file.
        let recipe = recipe_of(&[&earlier.1, &last.1]);
        assert_eq!(
            commit(&recipe).unwrap().verdicts,
            vec![ShareVerdict::Stored]
        );
        assert_eq!(refs(&server, 1, &earlier.1), 1);
        assert_eq!(refs(&server, 1, &last.1), 1);
        assert_eq!(folded_journal(&*backend), live_state(&server));
        assert_eq!(
            server.open_file(1, b"/f", 1, 0).unwrap(),
            (recipe, vec![earlier.1.clone()])
        );
    }

    #[test]
    fn newer_recipe_versions_replace_older_ones() {
        let server = CdStoreServer::new(0);
        backup_file(&server, 1, b"/f", &[b"old content".to_vec()]);
        let new = backup_file(&server, 1, b"/f", &[b"new content".to_vec()]);
        assert_eq!(server.get_recipe(1, b"/f").unwrap(), new);
        // The superseded version's share lost its only reference.
        assert!(matches!(
            server.fetch_share(1, &Fingerprint::of(b"old content")),
            Err(CdStoreError::MissingShare(_))
        ));
        assert_eq!(server.probe().unwrap().unique_shares, 1);
    }

    #[test]
    fn delete_file_removes_the_index_entry() {
        let server = CdStoreServer::new(0);
        let recipe = FileRecipe {
            file_size: 5,
            entries: vec![],
        };
        server.put_file(1, b"/f", &recipe, &[]).unwrap();
        assert!(server.delete_file(1, b"/f").unwrap());
        assert!(!server.delete_file(1, b"/f").unwrap());
        assert!(matches!(
            server.get_recipe(1, b"/f"),
            Err(CdStoreError::FileNotFound(_))
        ));
    }

    #[test]
    fn delete_releases_references_and_ownership() {
        let server = CdStoreServer::new(0);
        let datas = vec![b"shared A".to_vec(), b"shared B".to_vec()];
        backup_file(&server, 1, b"/u1", &datas);
        backup_file(&server, 2, b"/u2", &datas);
        assert_eq!(server.probe().unwrap().unique_shares, 2);
        let live = server.probe().unwrap().live_share_bytes;
        assert!(live > 0);

        // User 1 deletes: the shares survive on user 2's references, and
        // user 1 can no longer fetch them.
        assert!(server.delete_file(1, b"/u1").unwrap());
        assert_eq!(server.probe().unwrap().unique_shares, 2);
        assert_eq!(server.probe().unwrap().live_share_bytes, live);
        assert!(matches!(
            server.fetch_share(1, &Fingerprint::of(b"shared A")),
            Err(CdStoreError::MissingShare(_))
        ));
        assert_eq!(
            server
                .fetch_share(2, &Fingerprint::of(b"shared A"))
                .unwrap(),
            b"shared A"
        );

        // User 2 deletes too: the last references go and the shares die.
        assert!(server.delete_file(2, b"/u2").unwrap());
        assert_eq!(server.probe().unwrap().unique_shares, 0);
        assert_eq!(server.probe().unwrap().live_share_bytes, 0);
        // The cumulative traffic counter is untouched by deletion.
        assert_eq!(server.probe().unwrap().stats.physical_share_bytes, live);
        assert!(matches!(
            server.fetch_share(2, &Fingerprint::of(b"shared A")),
            Err(CdStoreError::MissingShare(_))
        ));
    }

    #[test]
    fn same_user_files_sharing_a_chunk_survive_one_delete() {
        let server = CdStoreServer::new(0);
        let common = b"chunk both files contain".to_vec();
        backup_file(&server, 1, b"/a", &[common.clone(), b"only in a".to_vec()]);
        backup_file(&server, 1, b"/b", &[common.clone(), b"only in b".to_vec()]);
        assert!(server.delete_file(1, b"/a").unwrap());
        // /b still owns the common chunk.
        assert_eq!(
            server.fetch_share(1, &Fingerprint::of(&common)).unwrap(),
            common
        );
        // "only in a" lost its last reference.
        assert!(matches!(
            server.fetch_share(1, &Fingerprint::of(b"only in a")),
            Err(CdStoreError::MissingShare(_))
        ));
        assert!(server.delete_file(1, b"/b").unwrap());
        assert_eq!(server.probe().unwrap().unique_shares, 0);
    }

    #[test]
    fn gc_reclaims_fully_dead_containers() {
        let server = CdStoreServer::new(0);
        let datas: Vec<Vec<u8>> = (0..20u32).map(|i| vec![i as u8; 10_000]).collect();
        backup_file(&server, 1, b"/doomed", &datas);
        server.flush().unwrap();
        assert!(server.probe().unwrap().backend_bytes > 0);

        assert!(server.delete_file(1, b"/doomed").unwrap());
        let report = server.gc_with(GcConfig::default()).unwrap();
        assert!(report.containers_deleted >= 2, "share + recipe containers");
        assert_eq!(report.containers_compacted, 0);
        assert!(report.reclaimed_bytes >= 200_000);
        assert_eq!(server.probe().unwrap().backend_bytes, 0);
        assert_eq!(server.containers.utilisation(), Default::default());
    }

    #[test]
    fn gc_compacts_mostly_dead_share_containers() {
        let server = CdStoreServer::new(0);
        // Two files whose shares land in the same container; deleting the
        // big one leaves the container mostly dead but still live.
        let big: Vec<Vec<u8>> = (0..30u32).map(|i| vec![i as u8; 10_000]).collect();
        let small = vec![b"survivor share".to_vec()];
        backup_file(&server, 1, b"/big", &big);
        backup_file(&server, 1, b"/small", &small);
        server.flush().unwrap();
        let before = server.probe().unwrap().backend_bytes;

        assert!(server.delete_file(1, b"/big").unwrap());
        let report = server.gc_with(GcConfig::default()).unwrap();
        assert!(report.containers_compacted >= 1);
        assert_eq!(report.shares_rewritten, 1);
        assert_eq!(report.rewritten_bytes, small[0].len() as u64);
        assert!(server.probe().unwrap().backend_bytes < before / 4);

        // The survivor relocated but stays byte-exact.
        assert_eq!(
            server
                .fetch_share(1, &Fingerprint::of(b"survivor share"))
                .unwrap(),
            b"survivor share"
        );
        assert_eq!(server.get_recipe(1, b"/small").unwrap().num_secrets(), 1);

        // A second pass finds nothing to do.
        let idle = server.gc_with(GcConfig::default()).unwrap();
        assert_eq!(idle.containers_compacted, 0);
        assert_eq!(idle.shares_rewritten, 0);
    }

    #[test]
    fn gc_runs_online_with_concurrent_backups_and_restores() {
        let server = CdStoreServer::new(0);
        let keep: Vec<Vec<u8>> = (0..8u32)
            .map(|i| format!("kept share {i}").into_bytes())
            .collect();
        backup_file(&server, 9, b"/kept", &keep);
        server.flush().unwrap();
        std::thread::scope(|scope| {
            for user in 1..=4u64 {
                let server = &server;
                scope.spawn(move || {
                    for round in 0..10u32 {
                        let datas: Vec<Vec<u8>> = (0..6u32)
                            .map(|i| vec![user as u8 + i as u8; 5_000])
                            .collect();
                        let path = format!("/u{user}/r{round}").into_bytes();
                        backup_file(server, user, &path, &datas);
                        assert!(server.delete_file(user, &path).unwrap());
                    }
                });
            }
            for _ in 0..2 {
                let server = &server;
                let keep = &keep;
                scope.spawn(move || {
                    for _ in 0..10 {
                        server.gc_with(GcConfig::default()).unwrap();
                        for (i, data) in keep.iter().enumerate() {
                            let fetched = server
                                .fetch_share(9, &Fingerprint::of(data))
                                .unwrap_or_else(|e| panic!("kept share {i} lost: {e}"));
                            assert_eq!(&fetched, data);
                        }
                    }
                });
            }
        });
        // Everything but the kept file is reclaimable.
        server.gc_with(GcConfig::default()).unwrap();
        assert_eq!(server.probe().unwrap().unique_shares, keep.len() as u64);
        for data in &keep {
            assert_eq!(
                &server.fetch_share(9, &Fingerprint::of(data)).unwrap(),
                data
            );
        }
    }

    #[test]
    fn index_size_grows_with_stored_shares() {
        let server = CdStoreServer::new(0);
        let before = server.probe().unwrap().index_bytes;
        for i in 0..500u32 {
            let data = format!("share-{i}").into_bytes();
            server.store_shares(1, &[share(&data)]).unwrap();
        }
        assert!(server.probe().unwrap().index_bytes > before);
        assert_eq!(server.probe().unwrap().unique_shares, 500);
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CdStoreServer>();
    }

    #[test]
    fn racing_identical_uploads_store_the_share_exactly_once() {
        let server = CdStoreServer::new(0);
        let users = 8u64;
        let shares: Vec<_> = (0..32u32)
            .map(|i| share(format!("contended share {i}").as_bytes()))
            .collect();
        let barrier = std::sync::Barrier::new(users as usize);
        let new_bytes: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=users)
                .map(|user| {
                    let server = &server;
                    let shares = &shares;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        server.store_shares(user, shares).unwrap().new_bytes
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let unique_bytes: u64 = shares.iter().map(|(_, d)| d.len() as u64).sum();
        // Across all racing users, each share was physically stored once.
        assert_eq!(new_bytes, unique_bytes);
        assert_eq!(
            server.probe().unwrap().stats.physical_share_bytes,
            unique_bytes
        );
        assert_eq!(server.probe().unwrap().unique_shares, shares.len() as u64);
        let stats = server.probe().unwrap().stats;
        assert_eq!(stats.shares_received, users * shares.len() as u64);
        assert_eq!(
            stats.inter_user_duplicates,
            (users - 1) * shares.len() as u64
        );
        // Every user owns every share and can fetch it back.
        for user in 1..=users {
            for (meta, data) in &shares {
                assert_eq!(&server.fetch_share(user, &meta.fingerprint).unwrap(), data);
            }
        }
    }

    #[test]
    fn concurrent_users_interleave_stores_and_fetches() {
        let server = CdStoreServer::new(0);
        std::thread::scope(|scope| {
            for user in 1..=8u64 {
                let server = &server;
                scope.spawn(move || {
                    for i in 0..20u32 {
                        let data = format!("user {user} private share {i}").into_bytes();
                        let s = share(&data);
                        server.store_shares(user, std::slice::from_ref(&s)).unwrap();
                        assert_eq!(server.fetch_share(user, &s.0.fingerprint).unwrap(), data);
                        assert_eq!(
                            server.intra_user_query(user, &[s.0.fingerprint]).unwrap(),
                            vec![true]
                        );
                    }
                });
            }
        });
        assert_eq!(server.probe().unwrap().unique_shares, 8 * 20);
        assert_eq!(server.probe().unwrap().stats.inter_user_duplicates, 0);
    }

    #[test]
    fn open_recovers_flushed_state_exactly() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        let shared = vec![b"common block".to_vec(), b"other block".to_vec()];
        backup_file(&server, 1, b"/u1/f", &shared);
        backup_file(&server, 2, b"/u2/f", &shared);
        backup_file(&server, 1, b"/u1/g", &[b"private".to_vec()]);
        assert!(server.delete_file(1, b"/u1/g").unwrap());
        server.flush().unwrap();
        let unique = server.probe().unwrap().unique_shares;
        let live = server.probe().unwrap().live_share_bytes;
        drop(server);

        let (revived, report) = CdStoreServer::open(0, backend).unwrap();
        assert!(!report.used_checkpoint, "no checkpoint was ever committed");
        assert!(report.records_replayed > 0);
        assert!(!report.torn_tail);
        assert!(!report.pruned_anything(), "a flushed server loses nothing");
        assert!(report.containers_scanned > 0);

        // Dedup state is byte-for-byte intact: refcounts, ownership, data.
        assert_eq!(revived.probe().unwrap().unique_shares, unique);
        assert_eq!(revived.probe().unwrap().live_share_bytes, live);
        for data in &shared {
            assert_eq!(
                &revived.fetch_share(1, &Fingerprint::of(data)).unwrap(),
                data
            );
            assert_eq!(
                &revived.fetch_share(2, &Fingerprint::of(data)).unwrap(),
                data
            );
        }
        assert!(revived.get_recipe(1, b"/u1/f").is_ok());
        assert!(matches!(
            revived.get_recipe(1, b"/u1/g"),
            Err(CdStoreError::FileNotFound(_))
        ));
        // Deletion + gc keep working on the recovered instance: one owner
        // deleting leaves the other's references intact, then the last
        // delete makes everything reclaimable.
        assert!(revived.delete_file(1, b"/u1/f").unwrap());
        assert_eq!(
            &revived
                .fetch_share(2, &Fingerprint::of(&shared[0]))
                .unwrap(),
            &shared[0]
        );
        assert!(revived.delete_file(2, b"/u2/f").unwrap());
        revived.gc_with(GcConfig::default()).unwrap();
        assert_eq!(revived.probe().unwrap().backend_bytes, 0);
    }

    #[test]
    fn recovery_after_checkpoint_replays_only_the_suffix() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        for i in 0..10u32 {
            backup_file(
                &server,
                1,
                format!("/pre/{i}").as_bytes(),
                &[format!("pre share {i}").into_bytes()],
            );
        }
        server.flush().unwrap();
        server.checkpoint().unwrap();
        backup_file(&server, 1, b"/post", &[b"post share".to_vec()]);
        server.flush().unwrap();
        drop(server);

        let (revived, report) = CdStoreServer::open(0, backend).unwrap();
        assert!(report.used_checkpoint);
        assert!(!report.pruned_anything());
        // Only the single post-checkpoint backup's records were replayed —
        // far fewer than the 10 pre-checkpoint backups would have produced.
        assert!(
            report.records_replayed < 10,
            "replayed {} records, expected only the post-checkpoint suffix",
            report.records_replayed
        );
        assert!(revived.get_recipe(1, b"/pre/7").is_ok());
        assert_eq!(
            revived
                .fetch_share(1, &Fingerprint::of(b"post share"))
                .unwrap(),
            b"post share"
        );
        assert_eq!(revived.probe().unwrap().unique_shares, 11);
    }

    #[test]
    fn recovery_prunes_state_that_never_reached_the_backend() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        backup_file(&server, 1, b"/durable", &[b"durable share".to_vec()]);
        server.flush().unwrap();
        // This file's shares and recipe stay in open containers: the journal
        // knows about them, but the container bytes die with the process.
        backup_file(&server, 1, b"/buffered", &[b"buffered share".to_vec()]);
        drop(server);

        let (revived, report) = CdStoreServer::open(0, backend).unwrap();
        assert!(report.pruned_anything());
        assert!(report.file_entries_pruned >= 1);
        // The unflushed file is cleanly gone — no dangling references...
        assert!(matches!(
            revived.get_recipe(1, b"/buffered"),
            Err(CdStoreError::FileNotFound(_))
        ));
        assert!(revived
            .fetch_share(1, &Fingerprint::of(b"buffered share"))
            .is_err());
        // ...while the flushed file is fully intact, and new traffic works.
        assert_eq!(
            revived
                .fetch_share(1, &Fingerprint::of(b"durable share"))
                .unwrap(),
            b"durable share"
        );
        assert_eq!(revived.probe().unwrap().unique_shares, 1);
        backup_file(&revived, 1, b"/buffered", &[b"buffered share".to_vec()]);
        assert_eq!(
            revived
                .fetch_share(1, &Fingerprint::of(b"buffered share"))
                .unwrap(),
            b"buffered share"
        );
    }

    #[test]
    fn recovery_drops_references_of_uploads_in_flight_at_the_crash() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        backup_file(&server, 1, b"/committed", &[b"committed share".to_vec()]);
        // An upload crashes between store_shares and put_file: its share is
        // sealed and journaled, holding only the transient per-upload
        // reference, with no recipe anywhere to settle or release it.
        let orphan = share(b"orphaned upload");
        server
            .store_shares(2, std::slice::from_ref(&orphan))
            .unwrap();
        server.flush().unwrap();
        drop(server);

        let (revived, report) = CdStoreServer::open(0, backend).unwrap();
        // The recount against surviving recipes drops the orphan wholesale:
        // no refcount leak keeps its bytes unreclaimable forever.
        assert!(report.share_refs_reconciled >= 1, "{report:?}");
        assert_eq!(revived.probe().unwrap().unique_shares, 1);
        assert!(revived.fetch_share(2, &orphan.0.fingerprint).is_err());
        revived.gc_with(GcConfig::default()).unwrap();
        // Only the committed file's containers remain.
        assert_eq!(
            revived
                .fetch_share(1, &Fingerprint::of(b"committed share"))
                .unwrap(),
            b"committed share"
        );
        assert!(revived.delete_file(1, b"/committed").unwrap());
        revived.gc_with(GcConfig::default()).unwrap();
        assert_eq!(
            revived.probe().unwrap().backend_bytes,
            0,
            "orphan bytes were reclaimed"
        );
    }

    #[test]
    fn recovered_servers_allocate_fresh_container_ids_and_versions() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        let v1 = backup_file(&server, 1, b"/f", &[b"version one".to_vec()]);
        server.flush().unwrap();
        drop(server);
        let (revived, _) = CdStoreServer::open(0, backend).unwrap();
        // A re-upload after recovery must supersede the recovered version
        // (the version allocator restarted past the recovered maximum) and
        // land in a container id that cannot collide with recovered ones.
        let v2 = backup_file(&revived, 1, b"/f", &[b"version two".to_vec()]);
        assert_ne!(v1, v2);
        assert_eq!(revived.get_recipe(1, b"/f").unwrap(), v2);
        assert!(matches!(
            revived.fetch_share(1, &Fingerprint::of(b"version one")),
            Err(CdStoreError::MissingShare(_))
        ));
        revived.flush().unwrap();
        assert_eq!(
            revived
                .fetch_share(1, &Fingerprint::of(b"version two"))
                .unwrap(),
            b"version two"
        );
    }

    #[test]
    fn gc_compaction_survives_a_restart() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        let big: Vec<Vec<u8>> = (0..30u32).map(|i| vec![i as u8; 10_000]).collect();
        let small = vec![b"survivor share".to_vec()];
        backup_file(&server, 1, b"/big", &big);
        backup_file(&server, 1, b"/small", &small);
        server.flush().unwrap();
        assert!(server.delete_file(1, b"/big").unwrap());
        let report = server.gc_with(GcConfig::default()).unwrap();
        assert!(report.containers_compacted >= 1);
        drop(server);

        // The relocated survivor is durable: recovery finds it sealed.
        let (revived, report) = CdStoreServer::open(0, backend).unwrap();
        assert!(!report.pruned_anything());
        assert_eq!(
            revived
                .fetch_share(1, &Fingerprint::of(b"survivor share"))
                .unwrap(),
            b"survivor share"
        );
        assert_eq!(revived.get_recipe(1, b"/small").unwrap().num_secrets(), 1);
    }

    #[test]
    fn backend_bytes_reflect_flushed_containers() {
        let server = CdStoreServer::new(0);
        server
            .store_shares(1, &[share(&vec![7u8; 100_000])])
            .unwrap();
        assert_eq!(server.probe().unwrap().backend_bytes, 0);
        server.flush().unwrap();
        assert!(server.probe().unwrap().backend_bytes >= 100_000);
    }

    // -----------------------------------------------------------------------
    // The batch is the unit of commit: net-settled `put_file`, the journal
    // ordering oracle, and the checkpoint cadence on the upload path.
    // -----------------------------------------------------------------------

    type Folded = (
        std::collections::BTreeMap<[u8; 32], ShareEntry>,
        std::collections::BTreeMap<[u8; 32], FileEntry>,
        std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    );

    /// What a recovery would start from: the newest checkpoint's memtables
    /// with the journal suffix folded over them last-writer-wins per key —
    /// *no* verification pass, no recount, so an ordering bug cannot hide.
    /// (These servers never spill, so the memtables are the whole index.)
    fn folded_journal(backend: &dyn StorageBackend) -> Folded {
        let loaded = Journal::load(backend).unwrap();
        assert!(!loaded.torn);
        let mut folded = Folded::default();
        if let Some(blob) = &loaded.checkpoint {
            let checkpoint = Checkpoint::decode(blob).unwrap();
            let live = |images: [StripeImage; DEFAULT_SHARDS]| {
                images.into_iter().flat_map(|image| {
                    assert_eq!(image.runs_written, 0);
                    image.memtable.into_iter().map(|(k, v)| (k, v.unwrap()))
                })
            };
            for (k, v) in live(checkpoint.shares) {
                let entry = ShareEntry::from_bytes(&v).unwrap();
                folded.0.insert(k.try_into().unwrap(), entry);
            }
            for (k, v) in live(checkpoint.files) {
                let entry = FileEntry::from_bytes(&v).unwrap();
                folded.1.insert(k.try_into().unwrap(), entry);
            }
            folded.2.extend(live(checkpoint.mappings));
        }
        for payload in &loaded.records {
            match MetaRecord::decode(payload).expect("the server wrote it") {
                MetaRecord::ShareUpsert { fp, entry } => {
                    folded.0.insert(*fp.as_bytes(), entry.into_owned());
                }
                MetaRecord::ShareDelete { fp } => {
                    folded.0.remove(fp.as_bytes());
                }
                MetaRecord::FileUpsert { key, entry } => {
                    folded.1.insert(*key.as_bytes(), entry);
                }
                MetaRecord::FileDelete { key } => {
                    folded.1.remove(key.as_bytes());
                }
                MetaRecord::MapPut { key, value } => {
                    folded.2.insert(key.into_owned(), value.into_owned());
                }
                MetaRecord::MapDelete { key } => {
                    folded.2.remove(key.as_ref());
                }
            }
        }
        folded
    }

    /// The live server's three structures in the same shape.
    fn live_state(server: &CdStoreServer) -> Folded {
        (
            server
                .share_index
                .export()
                .into_iter()
                .map(|(fp, entry)| (*fp.as_bytes(), entry))
                .collect(),
            server
                .file_index
                .export()
                .into_iter()
                .map(|(key, entry)| (*key.as_bytes(), entry))
                .collect(),
            server.user_shares.export().into_iter().collect(),
        )
    }

    fn recipe_of(datas: &[&[u8]]) -> FileRecipe {
        FileRecipe {
            file_size: datas.iter().map(|d| d.len() as u64).sum(),
            entries: datas
                .iter()
                .map(|d| crate::metadata::RecipeEntry {
                    share_fingerprint: Fingerprint::of(d),
                    secret_size: d.len() as u32 * 3,
                })
                .collect(),
        }
    }

    /// `user`'s reference count on the share with this content.
    fn refs(server: &CdStoreServer, user: u64, data: &[u8]) -> u32 {
        server
            .share_index
            .lookup(&Fingerprint::tagged(&server.tag, data))
            .and_then(|entry| entry.owners.iter().find(|(u, _)| *u == user).map(|o| o.1))
            .unwrap_or(0)
    }

    #[test]
    fn put_file_settles_each_distinct_share_by_its_net() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        // One batch carrying the same chunk twice takes two upload
        // references; the recipe names it three times: net +1, three in all.
        let twice = share(b"chunk the file repeats");
        let once = share(b"chunk the file holds once");
        server
            .store_shares(1, &[twice.clone(), once.clone(), twice.clone()])
            .unwrap();
        assert_eq!(refs(&server, 1, &twice.1), 2);
        let uploaded = [twice.0.fingerprint, once.0.fingerprint, twice.0.fingerprint];
        let recipe = recipe_of(&[&twice.1, &once.1, &twice.1, &twice.1]);
        let before = Journal::load(&*backend).unwrap().records.len();
        server.put_file(1, b"/f", &recipe, &uploaded).unwrap();
        assert_eq!(refs(&server, 1, &twice.1), 3);
        assert_eq!(refs(&server, 1, &once.1), 1);
        // The zero-net share cost nothing: one ShareUpsert (the +1) and the
        // FileUpsert are all `put_file` journaled.
        assert_eq!(Journal::load(&*backend).unwrap().records.len(), before + 2);
        assert_eq!(folded_journal(&*backend), live_state(&server));

        // More upload references than recipe entries: the surplus is given
        // back (after the adds), and deleting the file frees everything.
        let spare = share(b"uploaded but not referenced");
        server
            .store_shares(1, &[spare.clone(), twice.clone()])
            .unwrap();
        let recipe = recipe_of(&[&once.1]);
        server
            .put_file(
                1,
                b"/g",
                &recipe,
                &[spare.0.fingerprint, twice.0.fingerprint],
            )
            .unwrap();
        assert_eq!(refs(&server, 1, &spare.1), 0);
        assert_eq!(refs(&server, 1, &twice.1), 3);
        assert_eq!(refs(&server, 1, &once.1), 2);
        assert!(server.delete_file(1, b"/f").unwrap());
        assert!(server.delete_file(1, b"/g").unwrap());
        assert_eq!(server.probe().unwrap().unique_shares, 0);
        assert_eq!(folded_journal(&*backend), live_state(&server));
    }

    #[test]
    fn missing_share_rollback_mid_recipe_leaves_every_count_where_it_started() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        backup_file(&server, 1, b"/kept", &[b"x".to_vec(), b"y".to_vec()]);
        backup_file(&server, 2, b"/other", &[b"x".to_vec()]);
        let started = live_state(&server);

        // The new upload brings z (zero net), leans on x twice (+2) and on y
        // (+1) — with a share nobody uploaded between them.
        let z = share(b"z");
        server.store_shares(1, std::slice::from_ref(&z)).unwrap();
        let recipe = recipe_of(&[b"x", b"z", b"x", b"never uploaded", b"y"]);
        assert!(matches!(
            server.put_file(1, b"/doomed", &recipe, &[z.0.fingerprint]),
            Err(CdStoreError::MissingShare(_))
        ));
        // x's +2 was undone, y was never touched, z's upload reference went
        // with the rollback: the state is the one before the upload began.
        assert_eq!(live_state(&server), started);
        assert_eq!(refs(&server, 1, b"x"), 1);
        assert!(!server.has_file(1, b"/doomed").unwrap());
        assert_eq!(folded_journal(&*backend), started);
    }

    #[test]
    fn journal_order_matches_apply_order_under_racing_mutations() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        let threads = 8usize;
        let rounds = if cfg!(debug_assertions) { 150 } else { 1500 };
        // A tiny pool, so every file overlaps every other thread's and the
        // last writer of a key is contended in every round.
        let pool: Vec<Vec<u8>> = (0..7u32)
            .map(|i| format!("pooled share {i}").into_bytes())
            .collect();
        // A final-state fold only sees a misorder between the *last* two
        // writers of a key, so the run is cut into rounds: all threads race
        // one upload/commit/delete each, then everyone stops while the
        // journal alone — no recount to paper over a misorder — is folded
        // and compared with the three live structures.
        let barrier = std::sync::Barrier::new(threads + 1);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut busy_rounds = 0;
        let mut mismatch = None;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (server, pool, barrier, stop) = (&server, &pool, &barrier, &stop);
                scope.spawn(move || {
                    let user = 1 + t as u64 % 2;
                    for round in 0.. {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let datas: Vec<&[u8]> = (0..3)
                            .map(|i| pool[(t * 5 + round * 3 + i * 2) % pool.len()].as_slice())
                            .collect();
                        let shares: Vec<_> = datas.iter().map(|d| share(d)).collect();
                        let fps: Vec<_> = shares.iter().map(|(m, _)| m.fingerprint).collect();
                        let owned = server.intra_user_query(user, &fps).unwrap();
                        let upload: Vec<_> = shares
                            .iter()
                            .zip(owned)
                            .filter(|(_, dup)| !dup)
                            .map(|(s, _)| s.clone())
                            .collect();
                        let uploaded: Vec<_> = upload.iter().map(|(m, _)| m.fingerprint).collect();
                        // No `unwrap` between the barriers (a dead worker
                        // would strand the others there). A same-user delete
                        // on another thread may release a share between the
                        // query and the commit: the put then fails with
                        // `MissingShare` and rolls back, which is part of
                        // the interleaving under test.
                        let _ = server.store_shares(user, &upload);
                        let path = format!("/t{t}/r{round}").into_bytes();
                        let _ = server.put_file(user, &path, &recipe_of(&datas), &uploaded);
                        if round > 0 {
                            let old = format!("/t{t}/r{}", round - 1).into_bytes();
                            let _ = server.delete_file(user, &old);
                        }
                        barrier.wait();
                    }
                });
            }
            for round in 0..rounds {
                barrier.wait();
                barrier.wait();
                // Every request has returned, so every record is committed.
                let (journal, live) = (folded_journal(&*backend), live_state(&server));
                busy_rounds += usize::from(!live.0.is_empty() && !live.1.is_empty());
                if journal != live {
                    mismatch = Some((round, journal, live));
                    break;
                }
                // Re-baseline so each round folds only its own records.
                if server.checkpoint().is_err() {
                    break;
                }
            }
            // Release the workers from their start barrier.
            stop.store(true, Ordering::SeqCst);
            barrier.wait();
        });
        if let Some((round, journal, live)) = mismatch {
            panic!("round {round}: the journal folds to {journal:?}, the server holds {live:?}");
        }
        assert!(busy_rounds > rounds / 2, "the rounds mutated nothing");
    }

    #[test]
    fn upload_batches_alone_keep_the_journal_within_the_checkpoint_cadence() {
        let backend: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let server = CdStoreServer::with_backend(0, backend.clone());
        let batch_len = 1000usize;
        let batch_records = 2 * batch_len as u64; // ShareUpsert + MapPut each
        let bound = |server: &CdStoreServer| {
            CHECKPOINT_INTERVAL_RECORDS
                .max(server.last_snapshot_entries.load(Ordering::Relaxed) / 4)
        };
        // 40 000 shares stored and never committed by a `put_file`, a
        // quarter of them abandoned through `release_uploads`.
        for batch in 0..40usize {
            let shares: Vec<_> = (0..batch_len)
                .map(|i| share(format!("batch {batch} share {i}").as_bytes()))
                .collect();
            server.store_shares(1, &shares).unwrap();
            if batch % 4 == 3 {
                let fps: Vec<_> = shares.iter().map(|(m, _)| m.fingerprint).collect();
                server.release_uploads(1, &fps).unwrap();
            }
            let pending = server.journal.records_since_checkpoint();
            assert!(
                pending <= bound(&server) + batch_records,
                "batch {batch}: {pending} records since the last checkpoint"
            );
        }
        let replay_bound = bound(&server) + batch_records;
        drop(server);
        let (_, report) = CdStoreServer::open(0, backend).unwrap();
        assert!(report.used_checkpoint);
        assert!(
            report.records_replayed as u64 <= replay_bound,
            "replayed {} records",
            report.records_replayed
        );
    }

    #[test]
    fn flush_re_baselines_a_lapsed_journal_or_fails() {
        use cdstore_storage::{FaultConfig, FaultPlan, FaultyBackend};
        let plan = Arc::new(FaultPlan::new(FaultConfig::clean(1)));
        let faulty = Arc::new(FaultyBackend::new(
            Arc::new(MemoryBackend::new()),
            plan.clone(),
        ));
        let server = CdStoreServer::with_backend(0, faulty.clone());
        backup_file(&server, 1, b"/durable", &[b"journaled share".to_vec()]);
        // The backend drops out under one upload: its group commit lapses
        // (and so does the eager checkpoint), yet the request succeeds.
        plan.set_outage(true);
        backup_file(&server, 1, b"/lapsed", &[b"lapsed share".to_vec()]);
        assert!(server.journal_lapses.load(Ordering::Relaxed) > 0);
        // While the lapse cannot be repaired, flush refuses to claim
        // durability; once the backend is back, it re-baselines.
        assert!(server.flush().is_err());
        plan.set_outage(false);
        server.flush().unwrap();
        assert_eq!(server.journal_lapses.load(Ordering::Relaxed), 0);
        drop(server);
        let (revived, report) = CdStoreServer::open(0, faulty.inner()).unwrap();
        assert!(!report.pruned_anything(), "{report:?}");
        assert_eq!(
            revived
                .fetch_share(1, &Fingerprint::of(b"lapsed share"))
                .unwrap(),
            b"lapsed share"
        );
    }
}
