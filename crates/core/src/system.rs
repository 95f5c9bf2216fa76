//! [`CdStore`]: the whole-system façade wiring one organisation's clients to
//! `n` CDStore servers.
//!
//! [`CdStore`] is a cheap clonable `Arc` handle: clone it into as many OS
//! threads as you like and call [`CdStore::backup`], [`CdStore::restore`],
//! and [`CdStore::delete`] concurrently — the servers behind it are
//! `Send + Sync` and internally sharded (see [`crate::server`]). This is how
//! the multi-client experiments of §5.4 (Figure 8) drive real concurrent
//! traffic.
//!
//! The façade is generic over [`ServerTransport`], defaulting to in-process
//! [`CdStoreServer`]s: `CdStore::new` builds the all-in-one deployment the
//! examples use, while [`CdStore::from_transports`] accepts any transport —
//! e.g. `cdstore_net::RemoteServer` handles speaking the TCP wire protocol
//! to servers in other processes — and runs the identical backup/restore/
//! delete/gc protocol over it.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_index::KvStoreConfig;
use cdstore_storage::{MemoryBackend, StorageBackend};

use crate::client::{CdStoreClient, UploadReport};
use crate::dedup::DedupStats;
use crate::error::CdStoreError;
use crate::memo::ShareMemo;
use crate::pipeline::PipelineConfig;
use crate::retry::RetryPolicy;
use crate::server::{CdStoreServer, GcConfig, GcReport, RecoveryReport, ServerStats};
use crate::transport::{ServerProbe, ServerTransport};

/// System-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct CdStoreConfig {
    /// Number of clouds (and servers).
    pub n: usize,
    /// Reconstruction threshold.
    pub k: usize,
    /// Chunking configuration used by clients.
    pub chunker: ChunkerConfig,
    /// Chunking algorithm used by clients (Rabin by default, as in the
    /// paper; [`ChunkerKind::FastCdc`] is several times faster).
    pub chunker_kind: ChunkerKind,
    /// Tuning of every server's index stripes (memtable capacity, run and
    /// cache sizes). The field keeps the name it had when it chose between
    /// a memory and a disk index, which the benchmark package still uses.
    pub index_mode: KvStoreConfig,
    /// Bounded retry-with-backoff for transient cloud faults, applied per
    /// upload batch, per replayable façade operation, and per restore fetch
    /// (see [`crate::retry`]). [`RetryPolicy::none`] surfaces every fault
    /// immediately.
    pub retry: RetryPolicy,
}

impl CdStoreConfig {
    /// Creates a configuration with the default 8 KB average chunk size.
    pub fn new(n: usize, k: usize) -> Result<Self, CdStoreError> {
        if k == 0 || n <= k || n > 255 {
            return Err(CdStoreError::InvalidConfig(format!(
                "require 0 < k < n <= 255, got n={n}, k={k}"
            )));
        }
        Ok(CdStoreConfig {
            n,
            k,
            chunker: ChunkerConfig::default(),
            chunker_kind: ChunkerKind::Rabin,
            index_mode: KvStoreConfig::default(),
            retry: RetryPolicy::default(),
        })
    }

    /// Sets a custom chunker configuration.
    pub fn with_chunker(mut self, chunker: ChunkerConfig) -> Self {
        self.chunker = chunker;
        self
    }

    /// Sets the chunking algorithm.
    pub fn with_chunker_kind(mut self, kind: ChunkerKind) -> Self {
        self.chunker_kind = kind;
        self
    }

    /// Does nothing: every server index spills to its backend once its
    /// memtables fill. Kept for the benchmark package, which still calls it.
    pub fn with_disk_index(self) -> Self {
        self
    }

    /// Sets the transient-fault retry policy for clients and façade
    /// operations.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Aggregated system statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// Accumulated deduplication counters across all uploads.
    pub dedup: DedupStats,
    /// Per-server traffic and deduplication counters.
    pub servers: Vec<ServerStats>,
    /// Physical bytes stored per cloud backend (after container flush).
    pub backend_bytes: Vec<u64>,
    /// Index bytes per server (drives VM sizing in the cost model).
    pub index_bytes: Vec<usize>,
    /// Number of backed-up files (across users and versions).
    pub files: usize,
    /// Secrets whose share fingerprints this handle's [`ShareMemo`] recalled
    /// instead of encoding.
    pub memo_hits: u64,
    /// Secrets the memo had not seen (encoded in full, then memoised).
    pub memo_misses: u64,
    /// Memo hits encoded after all, because a server did not own a share
    /// (another user's content, or content deleted since).
    pub memo_materialised: u64,
    /// Entries the memo holds (bounded by
    /// [`SHARE_MEMO_ENTRIES`](crate::SHARE_MEMO_ENTRIES)).
    pub memo_entries: usize,
}

/// Deletes a cloud missed while unavailable: `(user, encoded pathname)` per
/// cloud index, replayed on recovery.
type PendingDeletes = HashMap<usize, Vec<(u64, Vec<u8>)>>;

/// The state shared by every clone of a [`CdStore`] handle.
struct Shared<T: ServerTransport> {
    config: CdStoreConfig,
    /// The servers themselves are `Send + Sync` with `&self` entry points;
    /// the `RwLock` only exists so [`CdStore::replace_and_repair_cloud`] can
    /// swap a lost server for a fresh one. All normal traffic takes the read
    /// lock and proceeds fully concurrently.
    servers: RwLock<Vec<T>>,
    available: RwLock<Vec<bool>>,
    dedup: Mutex<DedupStats>,
    /// The one share-fingerprint memo behind every client this handle
    /// builds: what any user's backup encoded, a later backup recognises.
    /// In memory only — a new handle starts cold.
    memo: Arc<ShareMemo>,
    /// Catalogue of `(user, pathname)` pairs ever backed up, used by repair
    /// and statistics. (In a deployment this information lives in the file
    /// indices; the façade keeps a copy for convenience.)
    catalog: Mutex<BTreeSet<(u64, String)>>,
    /// Striped per-file locks keyed by `(user, pathname)`. Each server
    /// orders recipe versions with its own counter, so two concurrent writes
    /// of the *same* file could otherwise commit in opposite orders on
    /// different clouds, leaving the n per-cloud recipes mixed between two
    /// uploads — and a concurrent restore could fetch recipes from two
    /// different uploads. Writers (backup, delete) take the write side,
    /// restores the read side; traffic on different files stays fully
    /// concurrent.
    path_locks: Vec<RwLock<()>>,
    /// Deletes that could not reach an unavailable cloud, per cloud index:
    /// `(user, that cloud's encoded pathname)`. Replayed when the cloud
    /// recovers, so a failed cloud does not come back holding orphaned
    /// index entries and share references for files deleted in its absence.
    pending_deletes: Mutex<PendingDeletes>,
}

impl<T: ServerTransport> Shared<T> {
    fn servers(&self) -> RwLockReadGuard<'_, Vec<T>> {
        self.servers.read().expect("servers lock")
    }

    fn availability(&self) -> Vec<bool> {
        self.available.read().expect("availability lock").clone()
    }

    fn catalog(&self) -> MutexGuard<'_, BTreeSet<(u64, String)>> {
        self.catalog.lock().expect("catalog lock")
    }

    fn pending_deletes(&self) -> MutexGuard<'_, PendingDeletes> {
        self.pending_deletes.lock().expect("pending deletes lock")
    }
}

/// Number of path-lock stripes (distinct files rarely collide at 64).
const PATH_LOCK_STRIPES: usize = 64;

/// The CDStore system: `n` servers plus per-user clients, with failure
/// injection and repair.
///
/// Cloning a `CdStore` yields another handle to the same deployment; hand
/// one clone to each client thread for concurrent multi-client traffic.
///
/// The type parameter is the [`ServerTransport`] the deployment speaks —
/// in-process [`CdStoreServer`]s by default, or e.g. remote TCP handles via
/// [`CdStore::from_transports`].
pub struct CdStore<T: ServerTransport = CdStoreServer> {
    shared: Arc<Shared<T>>,
}

// Manual impl: `derive(Clone)` would needlessly require `T: Clone`.
impl<T: ServerTransport> Clone for CdStore<T> {
    fn clone(&self) -> Self {
        CdStore {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl CdStore {
    /// Creates a CDStore deployment with `n` in-memory servers.
    pub fn new(config: CdStoreConfig) -> Self {
        let servers = (0..config.n)
            .map(|i| {
                CdStoreServer::with_backend_and_index(
                    i,
                    Arc::new(MemoryBackend::new()),
                    config.index_mode,
                )
                .expect("fresh in-memory backends cannot fail")
            })
            .collect();
        Self::from_parts(config, servers)
    }

    /// Creates a CDStore deployment over explicit per-cloud storage backends
    /// (one per cloud), starting from empty state. To *recover* a deployment
    /// from backends holding a previous incarnation's state, use
    /// [`CdStore::open`] instead.
    pub fn with_backends(
        config: CdStoreConfig,
        backends: Vec<Arc<dyn StorageBackend>>,
    ) -> Result<Self, CdStoreError> {
        Self::check_backend_count(&config, &backends)?;
        let servers = backends
            .into_iter()
            .enumerate()
            .map(|(i, backend)| {
                CdStoreServer::with_backend_and_index(i, backend, config.index_mode)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_parts(config, servers))
    }

    /// Recovers a whole deployment from backend-only state: every server is
    /// rebuilt through [`CdStoreServer::open`] (checkpoint load, journal
    /// replay, container-scan verification), and every previously backed-up
    /// file restores byte-identically afterwards. Returns the per-server
    /// recovery reports alongside the deployment.
    ///
    /// The façade's own conveniences are *not* recoverable and start empty:
    /// the `(user, pathname)` catalog behind [`CdStore::stats`]'s file count
    /// and [`CdStore::replace_and_repair_cloud`] caches plaintext pathnames,
    /// which the servers only ever see hashed, and the pending-delete queue
    /// for unavailable clouds is in-memory only — a delete that could not
    /// reach a failed cloud before the crash leaves that cloud's entry
    /// orphaned until the delete is re-issued (deletes are replay-tolerant,
    /// so simply re-deleting the pathname clears the orphan). Restores,
    /// deletes, and new backups are otherwise unaffected (clients re-derive
    /// every key from the pathname).
    pub fn open(
        config: CdStoreConfig,
        backends: Vec<Arc<dyn StorageBackend>>,
    ) -> Result<(Self, Vec<RecoveryReport>), CdStoreError> {
        Self::check_backend_count(&config, &backends)?;
        let mut servers = Vec::with_capacity(config.n);
        let mut reports = Vec::with_capacity(config.n);
        for (i, backend) in backends.into_iter().enumerate() {
            let (server, report) = Self::reopen_server(&config, i, backend)?;
            servers.push(server);
            reports.push(report);
        }
        Ok((Self::from_parts(config, servers), reports))
    }

    /// Opens one server with the config's index tuning.
    fn reopen_server(
        config: &CdStoreConfig,
        i: usize,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<(CdStoreServer, RecoveryReport), CdStoreError> {
        CdStoreServer::open_with_index(i, backend, config.index_mode)
    }

    fn check_backend_count(
        config: &CdStoreConfig,
        backends: &[Arc<dyn StorageBackend>],
    ) -> Result<(), CdStoreError> {
        if backends.len() != config.n {
            return Err(CdStoreError::InvalidConfig(format!(
                "expected {} backends (one per cloud), got {}",
                config.n,
                backends.len()
            )));
        }
        Ok(())
    }

    /// Restarts server `i` in place: seals its open containers, discards the
    /// in-memory instance wholesale, and rebuilds it from backend-only state
    /// through the full recovery path ([`CdStoreServer::open`]: checkpoint
    /// load, journal-suffix replay, container-scan verification). Client
    /// traffic blocks for the duration and resumes against the recovered
    /// instance.
    ///
    /// The seal step makes this a *graceful* restart — no buffered data is
    /// lost. Crash-style recovery, where unflushed buffers are torn away, is
    /// exercised by dropping the deployment and [`CdStore::open`]ing a new
    /// one from the same backends.
    pub fn restart_server(&self, i: usize) -> Result<RecoveryReport, CdStoreError> {
        let mut servers = self.shared.servers.write().expect("servers lock");
        servers[i].flush()?;
        let backend = servers[i].backend();
        let (server, report) = Self::reopen_server(&self.shared.config, i, backend)?;
        servers[i] = server;
        Ok(report)
    }

    /// Replaces cloud `i` with a brand-new empty server (permanent loss) and
    /// rebuilds every lost share on it from the surviving `k` clouds, as in
    /// Reed-Solomon repair (§3.1). Returns the number of files repaired.
    ///
    /// Repair is an administrative operation: run it while client traffic is
    /// quiesced, as files backed up concurrently with the repair pass may be
    /// missed.
    pub fn replace_and_repair_cloud(&self, i: usize) -> Result<usize, CdStoreError> {
        self.shared.servers.write().expect("servers lock")[i] =
            CdStoreServer::with_backend_and_index(
                i,
                Arc::new(MemoryBackend::new()),
                self.shared.config.index_mode,
            )?;
        self.shared.available.write().expect("availability lock")[i] = true;
        // The replacement server starts empty: deletes that were pending for
        // the lost cloud have nothing left to delete (repair re-uploads only
        // catalogued — i.e. not deleted — files).
        self.shared.pending_deletes().remove(&i);
        let catalog: Vec<(u64, String)> = self.shared.catalog().iter().cloned().collect();
        let mut repaired = 0usize;
        for (user, pathname) in catalog {
            // Restore from the surviving clouds...
            let client = self.client(user)?;
            let mut availability = self.shared.availability();
            availability[i] = false;
            let servers = self.shared.servers();
            let data = client.download(&servers, &availability, &pathname)?;
            // ...and re-upload, which regenerates the identical convergent
            // shares and repopulates cloud i (the other clouds deduplicate the
            // re-uploaded shares away).
            client.upload(&servers, &pathname, &data)?;
            repaired += 1;
        }
        Ok(repaired)
    }
}

impl<T: ServerTransport> CdStore<T> {
    /// Creates a deployment over explicit transports, one per cloud — the
    /// entry point for networked deployments, where each transport is a
    /// remote handle to a server in another process:
    ///
    /// ```ignore
    /// let transports: Vec<RemoteServer> = addrs.iter().map(...).collect();
    /// let store = CdStore::from_transports(config, transports)?;
    /// store.backup(user, "/docs.tar", &data)?;   // over TCP
    /// ```
    pub fn from_transports(
        config: CdStoreConfig,
        transports: Vec<T>,
    ) -> Result<Self, CdStoreError> {
        if transports.len() != config.n {
            return Err(CdStoreError::InvalidConfig(format!(
                "expected {} transports (one per cloud), got {}",
                config.n,
                transports.len()
            )));
        }
        Ok(Self::from_parts(config, transports))
    }

    fn from_parts(config: CdStoreConfig, servers: Vec<T>) -> Self {
        CdStore {
            shared: Arc::new(Shared {
                servers: RwLock::new(servers),
                available: RwLock::new(vec![true; config.n]),
                dedup: Mutex::new(DedupStats::new()),
                memo: Arc::new(ShareMemo::new(config.n)),
                catalog: Mutex::new(BTreeSet::new()),
                path_locks: (0..PATH_LOCK_STRIPES).map(|_| RwLock::new(())).collect(),
                pending_deletes: Mutex::new(HashMap::new()),
                config,
            }),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> CdStoreConfig {
        self.shared.config
    }

    /// Builds a client handle for a user.
    pub fn client(&self, user: u64) -> Result<CdStoreClient, CdStoreError> {
        let config = &self.shared.config;
        Ok(CdStoreClient::with_chunker_kind(
            user,
            config.n,
            config.k,
            config.chunker_kind,
            config.chunker,
        )?
        .with_retry_policy(config.retry)
        .with_memo(Arc::clone(&self.shared.memo)))
    }

    /// The lock covering one `(user, pathname)` file.
    fn path_lock(&self, user: u64, pathname: &str) -> &RwLock<()> {
        let hash =
            cdstore_index::sharded::fnv1a(pathname.as_bytes()) ^ user.wrapping_mul(0x9e37_79b9);
        &self.shared.path_locks[(hash % PATH_LOCK_STRIPES as u64) as usize]
    }

    /// Backs up a file for a user. Thin wrapper over
    /// [`CdStore::backup_stream`] — a slice is one shape of `BufRead` source —
    /// with whole-operation retry on transient faults: a slice source is
    /// replayable and a failed upload rolls back to a replay-safe state, so
    /// this also rides out transient faults that escape the per-batch retry
    /// (e.g. during the metadata offload). Generic-reader callers use
    /// [`CdStore::backup_stream`] directly, which only retries per batch —
    /// an arbitrary reader cannot be rewound.
    pub fn backup(
        &self,
        user: u64,
        pathname: &str,
        data: &[u8],
    ) -> Result<UploadReport, CdStoreError> {
        self.shared
            .config
            .retry
            .run(|_| self.backup_stream(user, pathname, data))
    }

    /// Backs up a file pulled incrementally from `reader` through the
    /// streaming data path: chunks are cut as bytes arrive, encoded by the
    /// bounded staged pipeline, and shipped to the clouds in 4 MB batches
    /// while later chunks are still being encoded. Peak memory is set by the
    /// pipeline depth and batch size, not the file size — files larger than
    /// RAM stream through. Chunks are cut out of the reader's own buffer;
    /// wrap a file in a [`std::io::BufReader`].
    pub fn backup_stream<R: BufRead + Send>(
        &self,
        user: u64,
        pathname: &str,
        reader: R,
    ) -> Result<UploadReport, CdStoreError> {
        self.backup_with(user, pathname, |client, servers| {
            client.upload_stream(servers, pathname, reader, &PipelineConfig::default())
        })
    }

    /// Backs up a file already divided into chunks (trace-driven workloads):
    /// the same path as [`CdStore::backup_stream`] with the chunk list as
    /// the pipeline's source, and — a slice of chunks being replayable —
    /// the same whole-operation retry as [`CdStore::backup`].
    pub fn backup_chunks(
        &self,
        user: u64,
        pathname: &str,
        chunks: &[Vec<u8>],
    ) -> Result<UploadReport, CdStoreError> {
        self.shared.config.retry.run(|_| {
            self.backup_with(user, pathname, |client, servers| {
                client.upload_chunks(servers, pathname, chunks)
            })
        })
    }

    /// The one backup body: `upload` is the client call that moves the data.
    fn backup_with(
        &self,
        user: u64,
        pathname: &str,
        upload: impl FnOnce(&CdStoreClient, &[T]) -> Result<UploadReport, CdStoreError>,
    ) -> Result<UploadReport, CdStoreError> {
        self.ensure_all_clouds_up()?;
        let client = self.client(user)?;
        // The upload interleaves encoding with server traffic, so the whole
        // upload runs under the per-file write lock (unrelated files stay
        // concurrent via the lock striping).
        let _file = self.path_lock(user, pathname).write().expect("path lock");
        let servers = self.shared.servers();
        let report = upload(&client, &servers)?;
        drop(servers);
        self.shared
            .dedup
            .lock()
            .expect("dedup stats lock")
            .accumulate(&report.dedup);
        self.shared.catalog().insert((user, pathname.to_string()));
        Ok(report)
    }

    /// Restores a file for a user from any `k` available clouds into a
    /// `Vec<u8>` of exactly the file's size ([`CdStoreClient::download`]).
    pub fn restore(&self, user: u64, pathname: &str) -> Result<Vec<u8>, CdStoreError> {
        self.restoring(user, pathname, |client, servers, availability| {
            client.download(servers, availability, pathname)
        })
    }

    /// Restores a file into any [`Write`] destination, fetching shares in
    /// bounded windows so the whole file is never buffered. Returns the
    /// number of bytes written.
    pub fn restore_stream<W: Write + ?Sized>(
        &self,
        user: u64,
        pathname: &str,
        out: &mut W,
    ) -> Result<u64, CdStoreError> {
        self.restoring(user, pathname, |client, servers, availability| {
            client.download_stream(servers, availability, pathname, out)
        })
    }

    /// Runs `restore` with the user's client, the servers and their
    /// availability, under the read side of the file's lock: a restore
    /// never observes a half-committed rewrite of the same file (mixed
    /// per-cloud recipes), while restores of the same file still run
    /// concurrently.
    fn restoring<R>(
        &self,
        user: u64,
        pathname: &str,
        restore: impl FnOnce(&CdStoreClient, &[T], &[bool]) -> Result<R, CdStoreError>,
    ) -> Result<R, CdStoreError> {
        let client = self.client(user)?;
        let _file = self.path_lock(user, pathname).read().expect("path lock");
        let availability = self.shared.availability();
        let servers = self.shared.servers();
        restore(&client, &servers, &availability)
    }

    /// Deletes a file on all available servers, releasing its share
    /// references so the garbage collector ([`CdStore::gc`]) can reclaim the
    /// freed container space. Deletes aimed at unavailable clouds are
    /// recorded and replayed when the cloud recovers
    /// ([`CdStore::recover_cloud`]), so no orphaned index entries survive a
    /// failover.
    pub fn delete(&self, user: u64, pathname: &str) -> Result<bool, CdStoreError> {
        let client = self.client(user)?;
        let encoded = client.encode_pathname(pathname)?;
        let _file = self.path_lock(user, pathname).write().expect("path lock");
        let availability = self.shared.availability();
        let servers = self.shared.servers();
        let mut any = false;
        let mut first_err = None;
        for (i, server) in servers.iter().enumerate() {
            if availability[i] {
                // Best-effort across clouds: a failure on one cloud must not
                // leave later clouds untouched with nothing recorded. The
                // server-side delete fails *before* mutating anything, so it
                // is replay-safe: transient faults are retried in place, and
                // the first persistent error is reported after every cloud
                // was attempted.
                match self
                    .shared
                    .config
                    .retry
                    .run(|_| server.delete_file(user, &encoded[i]))
                {
                    Ok(deleted) => any |= deleted,
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            } else {
                // Enqueue under the pending-deletes lock and re-check the
                // availability flag beneath it: `recover_cloud` replays and
                // flips the flag under the same lock, so either this delete
                // lands in the queue before the drain, or it observes the
                // recovery and executes directly — never a stranded orphan.
                let mut pending = self.shared.pending_deletes();
                if self.shared.available.read().expect("availability lock")[i] {
                    match server.delete_file(user, &encoded[i]) {
                        Ok(deleted) => any |= deleted,
                        Err(e) => first_err = first_err.or(Some(e)),
                    }
                } else {
                    pending
                        .entry(i)
                        .or_default()
                        .push((user, encoded[i].clone()));
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.shared.catalog().remove(&(user, pathname.to_string()));
        Ok(any)
    }

    /// Injects a failure of cloud `i` (its server becomes unreachable).
    pub fn fail_cloud(&self, i: usize) {
        self.shared.available.write().expect("availability lock")[i] = false;
    }

    /// Marks cloud `i` reachable again, after replaying the deletes it
    /// missed while unavailable.
    ///
    /// The replay runs *before* the availability flip, both under the
    /// pending-deletes lock: new backups therefore only see the cloud as
    /// available once every stale delete has executed (a replayed delete can
    /// never destroy a file re-created after recovery), and a concurrent
    /// `delete` either enqueues before the drain or observes the flipped
    /// flag and deletes directly. (As in the paper's prototype, recovery is
    /// an administrative action: quiesce backups that were already mid-
    /// commit when the cloud originally failed.)
    pub fn recover_cloud(&self, i: usize) {
        // Lock order servers → pending → available, matching `delete`'s
        // in-loop order, so a writer queued on the servers lock can never
        // wedge the two against each other.
        let servers = self.shared.servers();
        let mut pending_map = self.shared.pending_deletes();
        let pending = pending_map.remove(&i).unwrap_or_default();
        let mut failed = Vec::new();
        for (user, encoded_pathname) in pending {
            // A replayed delete finding nothing is fine (the file was
            // re-uploaded and re-deleted, or never reached this cloud), but
            // one that *errors* (delete_file fails before mutating anything)
            // must stay queued — dropping it would orphan the entry forever.
            // Calling recover_cloud again retries the stragglers.
            if servers[i].delete_file(user, &encoded_pathname).is_err() {
                failed.push((user, encoded_pathname));
            }
        }
        if !failed.is_empty() {
            pending_map.entry(i).or_default().extend(failed);
        }
        self.shared.available.write().expect("availability lock")[i] = true;
    }

    /// Seals open containers on every server. A transient fault while a
    /// container seals is retried (a failed seal reinstates the builder, so
    /// the replay writes the identical container).
    pub fn flush(&self) -> Result<(), CdStoreError> {
        for server in self.shared.servers().iter() {
            self.shared.config.retry.run(|_| server.flush())?;
        }
        Ok(())
    }

    /// Runs a garbage-collection pass on every *available* server with the
    /// default [`GcConfig`], returning the aggregated report. See
    /// [`CdStoreServer::gc_with`] for what a pass does; it is safe to call
    /// concurrently with backups, restores, and deletes.
    pub fn gc(&self) -> Result<GcReport, CdStoreError> {
        self.gc_with(GcConfig::default())
    }

    /// Runs a garbage-collection pass on every available server with an
    /// explicit configuration. Unavailable clouds are skipped (their space
    /// is reclaimed by the first pass after they recover).
    pub fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError> {
        let availability = self.shared.availability();
        let servers = self.shared.servers();
        let mut total = GcReport::default();
        for (i, server) in servers.iter().enumerate() {
            if availability[i] {
                total.absorb(&server.gc_with(config)?);
            }
        }
        Ok(total)
    }

    /// Aggregated system statistics. Server-side numbers come from one
    /// [`ServerTransport::probe`] per server; a server that cannot be probed
    /// (e.g. an unreachable remote) contributes zeroed counters rather than
    /// failing the whole snapshot.
    pub fn stats(&self) -> SystemStats {
        let servers = self.shared.servers();
        let probes: Vec<ServerProbe> = servers
            .iter()
            .map(|s| s.probe().unwrap_or_default())
            .collect();
        SystemStats {
            dedup: *self.shared.dedup.lock().expect("dedup stats lock"),
            servers: probes.iter().map(|p| p.stats).collect(),
            backend_bytes: probes.iter().map(|p| p.backend_bytes).collect(),
            index_bytes: probes.iter().map(|p| p.index_bytes as usize).collect(),
            files: self.shared.catalog().len(),
            memo_hits: self.shared.memo.hits(),
            memo_misses: self.shared.memo.misses(),
            memo_materialised: self.shared.memo.materialised(),
            memo_entries: self.shared.memo.entries(),
        }
    }

    /// Runs a closure against the server (transport) slice — used by
    /// benchmarks and tests that drive [`CdStoreClient`]s explicitly.
    pub fn with_servers<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.shared.servers())
    }

    fn ensure_all_clouds_up(&self) -> Result<(), CdStoreError> {
        let available = self.shared.available.read().expect("availability lock");
        let up = available.iter().filter(|&&a| a).count();
        if up < self.shared.config.n {
            // Uploads write to all n clouds so redundancy is never silently
            // degraded; the paper's prototype behaves the same way.
            return Err(CdStoreError::NotEnoughClouds {
                needed: self.shared.config.n,
                available: up,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i / 700) as u8).wrapping_mul(17).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn backup_restore_delete_lifecycle() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data = sample(250_000, 1);
        let report = store.backup(7, "/docs.tar", &data).unwrap();
        assert_eq!(report.dedup.logical_bytes, data.len() as u64);
        assert_eq!(store.stats().files, 1);
        assert_eq!(store.restore(7, "/docs.tar").unwrap(), data);
        assert!(store.delete(7, "/docs.tar").unwrap());
        assert!(store.restore(7, "/docs.tar").is_err());
        assert_eq!(store.stats().files, 0);
    }

    #[test]
    fn tolerates_cloud_failures_up_to_n_minus_k() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data = sample(100_000, 2);
        store.backup(1, "/f", &data).unwrap();
        store.fail_cloud(0);
        assert!(!store.shared.available.read().expect("availability lock")[0]);
        assert_eq!(store.restore(1, "/f").unwrap(), data);
        // Backups require all clouds.
        assert!(matches!(
            store.backup(1, "/g", &data),
            Err(CdStoreError::NotEnoughClouds { .. })
        ));
        store.fail_cloud(1);
        assert!(matches!(
            store.restore(1, "/f"),
            Err(CdStoreError::NotEnoughClouds { .. })
        ));
        store.recover_cloud(0);
        store.recover_cloud(1);
        assert_eq!(store.restore(1, "/f").unwrap(), data);
    }

    #[test]
    fn degraded_restore_through_decode_groups_is_byte_exact() {
        // Several full decode groups and a short last one, every secret
        // decoded through a parity share. CI runs this under both dispatch
        // modes: the restored bytes are the file's under either.
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data: Vec<u8> = (0..1_500_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        let report = store.backup(1, "/big", &data).unwrap();
        let groups = cdstore_secretsharing::caont_rs::GROUP;
        assert!(
            report.num_secrets > 2 * groups && !report.num_secrets.is_multiple_of(groups),
            "{} secrets",
            report.num_secrets
        );
        store.fail_cloud(0);
        assert_eq!(store.restore(1, "/big").unwrap(), data);
    }

    #[test]
    fn repair_rebuilds_a_lost_cloud() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data_a = sample(180_000, 3);
        let data_b = sample(90_000, 4);
        store.backup(1, "/a", &data_a).unwrap();
        store.backup(2, "/b", &data_b).unwrap();
        let physical_before: u64 = store
            .stats()
            .servers
            .iter()
            .map(|s| s.physical_share_bytes)
            .sum();

        // Cloud 2 is lost permanently and replaced by an empty one.
        let repaired = store.replace_and_repair_cloud(2).unwrap();
        assert_eq!(repaired, 2);
        // All data is still restorable even if another cloud now fails.
        store.fail_cloud(0);
        assert_eq!(store.restore(1, "/a").unwrap(), data_a);
        assert_eq!(store.restore(2, "/b").unwrap(), data_b);
        // Repair regenerated roughly the lost quarter of the physical data,
        // not a full re-store (convergent shares deduplicate on survivors).
        let physical_after: u64 = store
            .stats()
            .servers
            .iter()
            .map(|s| s.physical_share_bytes)
            .sum();
        assert!(physical_after >= physical_before);
        assert!(physical_after < physical_before * 2);
    }

    #[test]
    fn stats_aggregate_across_users_and_uploads() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data = sample(150_000, 5);
        store.backup(1, "/u1", &data).unwrap();
        store.backup(2, "/u2", &data).unwrap();
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.files, 2);
        assert_eq!(stats.dedup.logical_bytes, 2 * data.len() as u64);
        // Inter-user dedup: physical is roughly half of transferred.
        assert!(stats.dedup.inter_user_saving() > 0.45);
        assert_eq!(stats.servers.len(), 4);
        assert!(stats.backend_bytes.iter().all(|&b| b > 0));
        assert!(stats.index_bytes.iter().all(|&b| b > 0));
    }

    #[test]
    fn cdstore_handles_are_clonable_and_send_sync() {
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send_sync_clone::<CdStore>();
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let clone = store.clone();
        let data = sample(60_000, 9);
        store.backup(1, "/via-original", &data).unwrap();
        // Both handles see the same deployment.
        assert_eq!(clone.restore(1, "/via-original").unwrap(), data);
        assert_eq!(clone.stats().files, 1);
    }

    #[test]
    fn concurrent_clients_back_up_and_restore_through_clones() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        std::thread::scope(|scope| {
            for user in 1..=8u64 {
                let store = store.clone();
                scope.spawn(move || {
                    let data = sample(120_000, user as u8);
                    let path = format!("/u{user}/data.tar");
                    store.backup(user, &path, &data).unwrap();
                    assert_eq!(store.restore(user, &path).unwrap(), data);
                });
            }
        });
        assert_eq!(store.stats().files, 8);
    }

    #[test]
    fn gc_reclaims_deleted_files_across_servers() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let doomed = sample(400_000, 11);
        let kept = sample(150_000, 12);
        store.backup(1, "/doomed", &doomed).unwrap();
        store.backup(1, "/kept", &kept).unwrap();
        store.flush().unwrap();
        let before: u64 = store.stats().backend_bytes.iter().sum();
        assert!(before > 0);

        assert!(store.delete(1, "/doomed").unwrap());
        let report = store.gc().unwrap();
        assert!(report.reclaimed_bytes > 0);
        let after: u64 = store.stats().backend_bytes.iter().sum();
        assert!(after < before, "gc must shrink the backends");
        // The survivor is still byte-exact, even where compaction moved it.
        assert_eq!(store.restore(1, "/kept").unwrap(), kept);

        // Deleting the survivor too empties the backends entirely.
        assert!(store.delete(1, "/kept").unwrap());
        store.gc().unwrap();
        assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);
    }

    #[test]
    fn pending_deletes_replay_when_a_cloud_recovers() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data = sample(120_000, 13);
        store.backup(5, "/ephemeral", &data).unwrap();
        store.flush().unwrap();

        // Cloud 0 is down when the delete happens.
        store.fail_cloud(0);
        assert!(store.delete(5, "/ephemeral").unwrap());
        assert!(store.restore(5, "/ephemeral").is_err());

        // Before recovery, server 0 still holds the orphaned file.
        let encoded = store
            .client(5)
            .unwrap()
            .encode_pathname("/ephemeral")
            .unwrap();
        store.with_servers(|servers| {
            assert!(servers[0].has_file(5, &encoded[0]).unwrap());
        });

        // Recovery replays the delete: the orphan is gone and gc can now
        // reclaim every backend, including cloud 0's.
        store.recover_cloud(0);
        store.with_servers(|servers| {
            assert!(!servers[0].has_file(5, &encoded[0]).unwrap());
            assert_eq!(servers[0].probe().unwrap().unique_shares, 0);
        });
        store.gc().unwrap();
        assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);
    }

    /// Distinct secrets in `data` as the store's clients chunk it.
    fn distinct_secrets(store: &CdStore, data: &[u8]) -> u64 {
        let chunks = store.client(0).unwrap().chunker().chunk(data);
        let distinct: BTreeSet<&[u8]> = chunks.iter().map(|c| c.data.as_slice()).collect();
        distinct.len() as u64
    }

    /// Memo `(hits, misses, materialised)` so far. Tests compare deltas over
    /// a backup whose every secret is already memoised: only those are
    /// exact, because two workers racing on a repeated chunk of a *cold*
    /// backup may both miss.
    fn memo_counts(store: &CdStore) -> (u64, u64, u64) {
        let stats = store.stats();
        (stats.memo_hits, stats.memo_misses, stats.memo_materialised)
    }

    #[test]
    fn a_memo_hit_the_server_no_longer_owns_is_uploaded_again() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data = sample(300_000, 21);
        let first = store.backup(1, "/f", &data).unwrap();
        assert!(store.delete(1, "/f").unwrap());
        store.gc().unwrap();
        assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);

        // The memo still names every share; no server holds one. The backup
        // must report and store exactly what the first did, encoding each
        // distinct secret once.
        let before = memo_counts(&store);
        let again = store.backup(1, "/f", &data).unwrap();
        assert_eq!(again, first);
        let after = memo_counts(&store);
        assert_eq!(after.0 - before.0, first.num_secrets as u64);
        assert_eq!(after.1, before.1);
        assert_eq!(after.2 - before.2, distinct_secrets(&store, &data));
        store.fail_cloud(3);
        assert_eq!(store.restore(1, "/f").unwrap(), data);
    }

    #[test]
    fn another_users_content_is_recognised_but_still_uploaded_in_full() {
        let store = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
        let data = sample(300_000, 22);
        let alice = store.backup(1, "/a", &data).unwrap();
        let distinct = distinct_secrets(&store, &data);
        assert_eq!(store.stats().memo_entries as u64, distinct);

        // Bob's backup of the same bytes hits the memo for every secret, and
        // no server owns a share on his behalf: every share is transferred
        // (the memo is not a dedup decision — that would be the side channel
        // of §3.3) and each distinct secret is encoded exactly once more.
        let before = memo_counts(&store);
        let bob = store.backup(2, "/b", &data).unwrap();
        assert_eq!(bob.transferred_per_cloud, alice.transferred_per_cloud);
        assert_eq!(bob.batches_per_cloud, alice.batches_per_cloud);
        assert_eq!(bob.dedup.physical_share_bytes, 0);
        let after = memo_counts(&store);
        assert_eq!(after.0 - before.0, bob.num_secrets as u64);
        assert_eq!(after.1, before.1);
        assert_eq!(after.2 - before.2, distinct);
        assert_eq!(store.stats().memo_entries as u64, distinct);
        assert_eq!(store.restore(2, "/b").unwrap(), data);

        // Bob's second backup is owned: nothing is encoded at all.
        let bob_again = store.backup(2, "/b2", &data).unwrap();
        assert_eq!(bob_again.dedup.transferred_share_bytes, 0);
        assert_eq!(memo_counts(&store).2, after.2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(CdStoreConfig::new(3, 3).is_err());
        assert!(CdStoreConfig::new(0, 0).is_err());
        assert!(CdStoreConfig::new(4, 3).is_ok());
    }
}
