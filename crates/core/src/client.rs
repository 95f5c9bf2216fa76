//! The CDStore client (§4.1–§4.3): chunking, CAONT-RS encoding, intra-user
//! deduplication, batched uploads, and restores.
//!
//! Uploads pull from any [`std::io::Read`] ([`CdStoreClient::upload_stream`])
//! or from a list of pre-cut chunks ([`CdStoreClient::upload_chunks`]) and
//! restores push to any [`std::io::Write`]
//! ([`CdStoreClient::download_stream`]); either way peak memory is bounded by
//! the pipeline depth and the 4 MB per-cloud batches, not the file size.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::sync::Arc;

use cdstore_chunking::{Chunker, ChunkerConfig, ChunkerKind};
use cdstore_crypto::Fingerprint;
use cdstore_secretsharing::{BufferPool, CaontRs, SecretSharing};

use crate::dedup::DedupStats;
use crate::error::CdStoreError;
use crate::memo::ShareMemo;
use crate::metadata::{FileRecipe, RecipeEntry, ShareMetadata};
use crate::pipeline::{
    encode_chunks, encode_stream, EncodeStreamReport, EncodedSecret, PipelineConfig, RetainedSecret,
};
use crate::retry::{is_transient, RetryPolicy};
use crate::transport::ServerTransport;

/// Size of the per-cloud upload buffer: shares are batched into 4 MB units
/// before being sent over the Internet (§4.1).
pub const UPLOAD_BATCH_BYTES: u64 = 4 * 1024 * 1024;

/// Most secrets a restore fetches per window, whatever their size: bounds
/// the fingerprint list of one `fetch_shares` call when secrets are tiny.
pub const RESTORE_WINDOW_SECRETS: usize = 1024;

/// Expected share bytes a restore asks one cloud for per window — what bounds
/// a `fetch_shares` reply (and the memory both ends spend on it) for any
/// chunker configuration, as [`UPLOAD_BATCH_BYTES`] bounds a `store_shares`
/// request. With the default 8 KB average chunk size this is about 190
/// secrets: enough to amortise the round trip, and small enough that the
/// copies of a reply in flight on both ends do not show in peak memory. A
/// window always holds at least one secret, so a share larger than this is
/// still restorable.
pub const RESTORE_WINDOW_BYTES: u64 = 512 * 1024;

/// The result of one file upload.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadReport {
    /// Number of secrets (chunks) the file produced.
    pub num_secrets: usize,
    /// Deduplication byte counters for this upload.
    pub dedup: DedupStats,
    /// Share bytes transferred to each cloud after intra-user deduplication.
    pub transferred_per_cloud: Vec<u64>,
    /// Number of 4 MB upload batches sent to each cloud.
    pub batches_per_cloud: Vec<u64>,
    /// Share bytes newly stored at each cloud after inter-user deduplication.
    pub physical_per_cloud: Vec<u64>,
}

impl UploadReport {
    /// Convenience accessor mirroring §5.4's "logical data".
    pub fn logical_bytes(&self) -> u64 {
        self.dedup.logical_bytes
    }
}

/// The CDStore client run by each user machine.
pub struct CdStoreClient {
    user: u64,
    n: usize,
    k: usize,
    scheme: CaontRs,
    chunker: Box<dyn Chunker + Send + Sync>,
    retry: RetryPolicy,
    /// Share fingerprints of secrets this client (or whoever shares the
    /// memo with it) has encoded before; see [`ShareMemo`].
    memo: Arc<ShareMemo>,
}

impl CdStoreClient {
    /// Creates a client for `user` dispersing across `n` clouds with
    /// threshold `k`, using the default 8 KB average chunk size.
    pub fn new(user: u64, n: usize, k: usize) -> Result<Self, CdStoreError> {
        Self::with_chunker(user, n, k, ChunkerConfig::default())
    }

    /// Creates a client with an explicit chunking configuration (Rabin
    /// content-defined chunking, the paper's default algorithm).
    pub fn with_chunker(
        user: u64,
        n: usize,
        k: usize,
        chunker: ChunkerConfig,
    ) -> Result<Self, CdStoreError> {
        Self::with_chunker_kind(user, n, k, ChunkerKind::Rabin, chunker)
    }

    /// Creates a client with an explicit chunking algorithm and size bounds
    /// (e.g. [`ChunkerKind::FastCdc`] for gear-hash chunking).
    pub fn with_chunker_kind(
        user: u64,
        n: usize,
        k: usize,
        kind: ChunkerKind,
        chunker: ChunkerConfig,
    ) -> Result<Self, CdStoreError> {
        let scheme = CaontRs::new(n, k).map_err(CdStoreError::Sharing)?;
        Ok(CdStoreClient {
            user,
            n,
            k,
            scheme,
            chunker: kind.build(chunker),
            retry: RetryPolicy::default(),
            memo: Arc::new(ShareMemo::new(n)),
        })
    }

    /// Shares `memo` with this client in place of its own fresh one, so
    /// what one client encoded another recognises — how [`crate::CdStore`]
    /// gives the clients it builds per operation one memory. The memo must
    /// come from clients with the same `(n, k)`.
    pub fn with_memo(mut self, memo: Arc<ShareMemo>) -> Self {
        self.memo = memo;
        self
    }

    /// Sets the bounded retry-with-backoff policy applied to transient cloud
    /// faults during uploads and restores (see [`crate::retry`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The transient-fault retry policy in use.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The user this client acts for.
    pub fn user(&self) -> u64 {
        self.user
    }

    /// The convergent dispersal scheme in use.
    pub fn scheme(&self) -> &CaontRs {
        &self.scheme
    }

    /// The chunking algorithm in use.
    pub fn chunker(&self) -> &dyn Chunker {
        self.chunker.as_ref()
    }

    /// Encodes a pathname into its per-cloud shares. Pathnames are sensitive
    /// metadata, so they are dispersed via secret sharing rather than
    /// replicated (§4.3); because convergent dispersal is deterministic, the
    /// client can recompute the same encoded pathname at restore time.
    pub fn encode_pathname(&self, pathname: &str) -> Result<Vec<Vec<u8>>, CdStoreError> {
        Ok(self.scheme.split(pathname.as_bytes())?)
    }

    /// Uploads a file: chunk → encode → intra-user dedup → batched upload →
    /// metadata offload. `servers[i]` must be the server co-located with
    /// cloud `i` — either in-process [`crate::server::CdStoreServer`]s or any
    /// other [`ServerTransport`] (e.g. `cdstore_net`'s remote handles).
    /// Uploads require all `n` clouds so redundancy is not silently degraded.
    ///
    /// Thin wrapper over [`CdStoreClient::upload_stream`] — an in-memory
    /// slice is just one shape of `Read` source.
    pub fn upload<T: ServerTransport>(
        &self,
        servers: &[T],
        pathname: &str,
        data: &[u8],
    ) -> Result<UploadReport, CdStoreError> {
        self.upload_stream(servers, pathname, data, &PipelineConfig::default())
    }

    /// Uploads a file pulled incrementally from `reader`: the streaming
    /// counterpart of [`CdStoreClient::upload`].
    ///
    /// Chunks are cut as bytes arrive, encoded by the staged pipeline (see
    /// [`encode_stream`]), deduplicated intra-user, and shipped to each cloud
    /// in [`UPLOAD_BATCH_BYTES`] batches *while later chunks are still being
    /// encoded* — CPU and network overlap, and peak memory is bounded by the
    /// pipeline depth plus the per-cloud batch buffers, never the file size.
    pub fn upload_stream<T: ServerTransport, R: Read + Send>(
        &self,
        servers: &[T],
        pathname: &str,
        reader: R,
        config: &PipelineConfig,
    ) -> Result<UploadReport, CdStoreError> {
        self.upload_with(
            servers,
            pathname,
            config,
            UPLOAD_BATCH_BYTES,
            |config, committer| {
                encode_stream(
                    &self.scheme,
                    self.chunker.as_ref(),
                    reader,
                    config,
                    |enc, _| committer.absorb(enc),
                )
            },
        )
    }

    /// Uploads a file already divided into secrets (chunks) — the same
    /// pipeline as [`CdStoreClient::upload_stream`] with the chunk list as
    /// its source. Used by the trace-driven experiments, where the datasets
    /// provide chunk boundaries (§5.2).
    pub fn upload_chunks<T: ServerTransport>(
        &self,
        servers: &[T],
        pathname: &str,
        chunks: &[Vec<u8>],
    ) -> Result<UploadReport, CdStoreError> {
        self.upload_with(
            servers,
            pathname,
            &PipelineConfig::default(),
            UPLOAD_BATCH_BYTES,
            |config, committer| {
                encode_chunks(&self.scheme, chunks, config, |enc, _| committer.absorb(enc))
            },
        )
    }

    /// The one upload body: runs `encode` (an [`encode_stream`] or
    /// [`encode_chunks`] call sinking into the committer it is handed) and
    /// settles or abandons what it shipped. `batch_bytes` is the per-cloud
    /// batch size, [`UPLOAD_BATCH_BYTES`] outside tests.
    fn upload_with<'a, T: ServerTransport>(
        &'a self,
        servers: &'a [T],
        pathname: &str,
        config: &PipelineConfig,
        batch_bytes: u64,
        encode: impl FnOnce(
            &PipelineConfig,
            &mut StreamCommitter<'a, T>,
        ) -> Result<EncodeStreamReport, CdStoreError>,
    ) -> Result<UploadReport, CdStoreError> {
        // Reject a server slice of the wrong length before any encoding work.
        if servers.len() != self.n {
            return Err(CdStoreError::InvalidConfig(format!(
                "expected {} servers, got {}",
                self.n,
                servers.len()
            )));
        }
        // Resolve the buffer pool here so the committer can keep recycling
        // batch buffers after the encode pipeline itself has shut down.
        let pool = config
            .pool
            .clone()
            .unwrap_or_else(|| Arc::new(BufferPool::new()));
        let mut pipeline_config = config.clone();
        pipeline_config.pool = Some(Arc::clone(&pool));
        // One memo per client, whatever the caller's config carries: the
        // committer counts what it materialises on the same memo.
        pipeline_config.memo = Some(Arc::clone(&self.memo));
        let mut committer = StreamCommitter::new(self, servers, pool, batch_bytes.max(1));
        let report =
            encode(&pipeline_config, &mut committer).and_then(|_| committer.finalize(pathname));
        report.inspect_err(|_| committer.abandon())
    }

    /// Restores a file by contacting any `k` of the `n` servers.
    /// `available[i]` states whether cloud `i` (and its server) is reachable.
    ///
    /// Thin wrapper over [`CdStoreClient::download_stream`] collecting into
    /// a `Vec<u8>`.
    pub fn download<T: ServerTransport>(
        &self,
        servers: &[T],
        available: &[bool],
        pathname: &str,
    ) -> Result<Vec<u8>, CdStoreError> {
        let mut out = Vec::new();
        self.download_stream(servers, available, pathname, &mut out)?;
        Ok(out)
    }

    /// Restores a file into any [`Write`] destination, fetching shares from
    /// each chosen cloud one bounded window at a time — the whole file is
    /// never buffered. This is the one place that decides how much a restore
    /// asks for at once: a window closes at [`RESTORE_WINDOW_SECRETS`] secrets
    /// or [`RESTORE_WINDOW_BYTES`] of expected share bytes per cloud,
    /// whichever comes first, and one window is one `fetch_shares` call per
    /// cloud — in process or, over `cdstore_net`, one request and one reply
    /// frame. Returns the number of bytes written.
    pub fn download_stream<T: ServerTransport, W: Write + ?Sized>(
        &self,
        servers: &[T],
        available: &[bool],
        pathname: &str,
        out: &mut W,
    ) -> Result<u64, CdStoreError> {
        if servers.len() != self.n || available.len() != self.n {
            return Err(CdStoreError::InvalidConfig(format!(
                "expected {} servers/availability flags",
                self.n
            )));
        }
        let mut candidates: Vec<usize> = (0..self.n).filter(|&i| available[i]).collect();
        if candidates.len() < self.k {
            return Err(CdStoreError::NotEnoughClouds {
                needed: self.k,
                available: candidates.len(),
            });
        }
        // The first k available clouds serve the restore; the rest stand by
        // as spares. When a chosen cloud keeps failing transiently (its
        // availability flag lagging behind reality), the restore fails over
        // to a spare instead of giving up — k-of-n reads survive a
        // single-cloud outage even when nobody flagged the cloud down.
        let mut spares: Vec<usize> = candidates.split_off(self.k);
        spares.reverse(); // pop() takes the lowest index first
        let encoded_paths = self.encode_pathname(pathname)?;

        // Fetch the per-cloud recipes. (Metadata is a few dozen bytes per
        // secret; only share payloads are windowed.)
        let fetch_recipe = |cloud: usize| {
            self.retry
                .run(|_| servers[cloud].get_recipe(self.user, &encoded_paths[cloud]))
        };
        let mut recipes: Vec<(usize, FileRecipe)> = Vec::with_capacity(self.k);
        for mut cloud in candidates {
            let recipe = loop {
                match fetch_recipe(cloud) {
                    Ok(recipe) => break recipe,
                    Err(e) if is_transient(&e) => match spares.pop() {
                        Some(spare) => cloud = spare,
                        None => return Err(e),
                    },
                    Err(e) => return Err(e),
                }
            };
            recipes.push((cloud, recipe));
        }
        let num_secrets = recipes[0].1.num_secrets();
        let file_size = recipes[0].1.file_size;
        if recipes
            .iter()
            .any(|(_, r)| r.num_secrets() != num_secrets || r.file_size != file_size)
        {
            return Err(CdStoreError::InconsistentMetadata(
                "servers disagree on the file recipe".into(),
            ));
        }

        // Fetch a window of shares from each chosen cloud, decode secret by
        // secret, write out, repeat.
        let mut written = 0u64;
        let mut window_start = 0usize;
        while window_start < num_secrets {
            let window_end =
                window_start + self.restore_window_len(&recipes[0].1.entries[window_start..]);
            let mut shares_by_cloud: Vec<(usize, Vec<Vec<u8>>)> = Vec::with_capacity(self.k);
            // Indexing, not iterating: the failover arm below reassigns
            // `recipes[slot]`, which an element iterator would hold borrowed.
            #[allow(clippy::needless_range_loop)]
            for slot in 0..self.k {
                let shares = loop {
                    let (cloud, fps) = {
                        let (cloud, recipe) = &recipes[slot];
                        let fps: Vec<Fingerprint> = recipe.entries[window_start..window_end]
                            .iter()
                            .map(|e| e.share_fingerprint)
                            .collect();
                        (*cloud, fps)
                    };
                    match self
                        .retry
                        .run(|_| servers[cloud].fetch_shares(self.user, &fps))
                    {
                        Ok(shares) => break shares,
                        Err(e) if is_transient(&e) => {
                            // Mid-file failover: swap the failing cloud for a
                            // spare whose recipe agrees, then refetch this
                            // window from it. Earlier windows are already
                            // decoded and written; every window decodes from
                            // any k clouds independently.
                            let Some(spare) = spares.pop() else {
                                return Err(e);
                            };
                            let recipe = fetch_recipe(spare)?;
                            if recipe.num_secrets() != num_secrets || recipe.file_size != file_size
                            {
                                return Err(CdStoreError::InconsistentMetadata(
                                    "failover server disagrees on the file recipe".into(),
                                ));
                            }
                            recipes[slot] = (spare, recipe);
                        }
                        Err(e) => return Err(e),
                    }
                };
                shares_by_cloud.push((recipes[slot].0, shares));
            }
            for seq in window_start..window_end {
                let mut share_slots: Vec<Option<Vec<u8>>> = vec![None; self.n];
                for (cloud, shares) in &mut shares_by_cloud {
                    // Each share is decoded exactly once: move, don't clone.
                    share_slots[*cloud] = Some(std::mem::take(&mut shares[seq - window_start]));
                }
                let secret_size = recipes[0].1.entries[seq].secret_size as usize;
                let secret =
                    self.scheme
                        .reconstruct(&share_slots, secret_size)
                        .map_err(|e| match e {
                            cdstore_secretsharing::SharingError::IntegrityCheckFailed => {
                                CdStoreError::IntegrityFailure(format!(
                                    "secret {seq} failed its hash check"
                                ))
                            }
                            other => CdStoreError::Sharing(other),
                        })?;
                out.write_all(&secret)?;
                written += secret.len() as u64;
            }
            window_start = window_end;
        }
        Ok(written)
    }

    /// How many of the secrets at the head of `entries` the next restore
    /// window takes: up to [`RESTORE_WINDOW_SECRETS`], stopping before the
    /// secret whose share would take the window past [`RESTORE_WINDOW_BYTES`]
    /// — but never before the first.
    fn restore_window_len(&self, entries: &[RecipeEntry]) -> usize {
        let mut bytes = 0u64;
        let mut len = 0;
        for entry in entries.iter().take(RESTORE_WINDOW_SECRETS) {
            bytes += self.scheme.share_size(entry.secret_size as usize) as u64;
            if len > 0 && bytes > RESTORE_WINDOW_BYTES {
                break;
            }
            len += 1;
        }
        len
    }
}

/// What one successfully shipped batch did: the fingerprints physically
/// sent (holding transient per-upload references), the share bytes
/// transferred, and the bytes newly stored after inter-user dedup.
#[derive(Default)]
struct BatchShipment {
    uploaded: Vec<Fingerprint>,
    transferred: u64,
    new_bytes: u64,
}

/// What a batch entry holds for its share.
enum Payload {
    /// The encoded share; empty while [`ship_batch`] has it out for a
    /// transfer.
    Share(Vec<u8>),
    /// Not encoded: the secret was a memo hit and waits, under its
    /// `secret_seq`, in the committer's [`LazySecret`] map, one slot for all
    /// the clouds' entries.
    Lazy,
}

/// One per-cloud upload batch under construction.
type Batch = Vec<(ShareMetadata, Payload)>;

/// A secret whose fingerprints came from the memo, kept until every cloud's
/// batch naming it has shipped. It is encoded at most once, when the first
/// server answers "not owned" for one of its shares; the other clouds then
/// take theirs from the same encoding.
struct LazySecret {
    key: [u8; 32],
    state: LazyState,
    /// Batch entries (at most one per cloud) that still name this secret.
    pending: usize,
}

enum LazyState {
    /// The chunk as cut, in a pooled buffer.
    Retained(Vec<u8>),
    /// The `n` shares; a cloud's slot is empty once its transfer took it.
    Encoded(Vec<Vec<u8>>),
}

impl LazySecret {
    /// Moves `cloud`'s share out, encoding the secret first if no cloud
    /// needed it before (the chunk buffer is recycled then: the shares
    /// stand in for it).
    fn take_share(
        &mut self,
        client: &CdStoreClient,
        cloud: usize,
        pool: &BufferPool,
    ) -> Result<Vec<u8>, CdStoreError> {
        if let LazyState::Retained(chunk) = &mut self.state {
            let mut shares: Vec<Vec<u8>> = (0..client.n).map(|_| pool.get()).collect();
            client
                .scheme
                .split_into_keyed(chunk, &self.key, &mut shares)?;
            client.memo.note_materialised();
            pool.put(std::mem::take(chunk));
            self.state = LazyState::Encoded(shares);
        }
        let LazyState::Encoded(shares) = &mut self.state else {
            unreachable!("encoded above")
        };
        Ok(std::mem::take(&mut shares[cloud]))
    }

    /// Puts back a share a failed transfer took, so the retry (or a later
    /// cloud) does not encode again.
    fn put_back(&mut self, cloud: usize, share: Vec<u8>) {
        if let LazyState::Encoded(shares) = &mut self.state {
            shares[cloud] = share;
        }
    }

    /// Recycles whatever buffers are left once no batch names the secret.
    fn recycle(self, pool: &BufferPool) {
        match self.state {
            LazyState::Retained(chunk) => pool.put(chunk),
            LazyState::Encoded(shares) => {
                for share in shares.into_iter().filter(|s| !s.is_empty()) {
                    pool.put(share);
                }
            }
        }
    }
}

/// Ships one batch of candidate shares to cloud `cloud`'s server:
/// second-stage intra-user dedup query, then `store_shares` for the
/// survivors, with bounded retry-with-backoff on transient faults. The
/// query names every entry, encoded or [`Payload::Lazy`] alike; a lazy
/// entry the server does not own is encoded then (see [`LazySecret`]).
///
/// A failed `store_shares` may have taken per-upload references on shares it
/// reached before the fault, and a blind replay would double-count them
/// (duplicate outcomes still add references). Every retry therefore first
/// releases the failed attempt's references and redoes the dedup query from
/// scratch — release is a tolerant no-op for shares the attempt never
/// reached.
///
/// On success the batch is consumed and its buffers recycled through
/// `pool`; on a permanent failure the batch is left intact and the failing
/// server holds no references from it.
fn ship_batch<T: ServerTransport>(
    client: &CdStoreClient,
    server: &T,
    cloud: usize,
    batch: &mut Batch,
    lazy: &mut HashMap<u64, LazySecret>,
    pool: &BufferPool,
) -> Result<BatchShipment, CdStoreError> {
    if batch.is_empty() {
        return Ok(BatchShipment::default());
    }
    let user = client.user;
    let shipment = client.retry.run(|_| {
        let fps: Vec<Fingerprint> = batch.iter().map(|(m, _)| m.fingerprint).collect();
        let already = server.intra_user_query(user, &fps)?;
        // Move the non-duplicate shares out of the batch for the transfer;
        // the slots stay in place so a failed attempt can put them back.
        let mut to_upload: Vec<(ShareMetadata, Vec<u8>)> = Vec::new();
        let mut taken: Vec<usize> = Vec::new();
        for (i, dup) in already.into_iter().enumerate() {
            if !dup {
                let (meta, payload) = &mut batch[i];
                let share = match payload {
                    Payload::Share(share) => std::mem::take(share),
                    Payload::Lazy => lazy
                        .get_mut(&meta.secret_seq)
                        .expect("a lazy entry's secret outlives its batches")
                        .take_share(client, cloud, pool)?,
                };
                to_upload.push((meta.clone(), share));
                taken.push(i);
            }
        }
        match server.store_shares(user, &to_upload) {
            Ok(receipt) => {
                let transferred: u64 = to_upload.iter().map(|(_, d)| d.len() as u64).sum();
                let uploaded: Vec<Fingerprint> =
                    to_upload.iter().map(|(m, _)| m.fingerprint).collect();
                for (_, share) in to_upload {
                    pool.put(share);
                }
                Ok(BatchShipment {
                    uploaded,
                    transferred,
                    new_bytes: receipt.new_bytes,
                })
            }
            Err(e) => {
                let sent: Vec<Fingerprint> = to_upload.iter().map(|(m, _)| m.fingerprint).collect();
                let _ = server.release_uploads(user, &sent);
                for (idx, (meta, share)) in taken.into_iter().zip(to_upload) {
                    match &mut batch[idx].1 {
                        Payload::Share(slot) => *slot = share,
                        Payload::Lazy => lazy
                            .get_mut(&meta.secret_seq)
                            .expect("a lazy entry's secret outlives its batches")
                            .put_back(cloud, share),
                    }
                }
                Err(e)
            }
        }
    })?;
    // Recycle the remaining (duplicate) share buffers, drop this cloud's
    // claim on its lazy secrets, and empty the batch.
    for (meta, payload) in batch.drain(..) {
        match payload {
            Payload::Share(share) if !share.is_empty() => pool.put(share),
            Payload::Share(_) => {}
            Payload::Lazy => {
                if let Entry::Occupied(mut secret) = lazy.entry(meta.secret_seq) {
                    secret.get_mut().pending -= 1;
                    if secret.get().pending == 0 {
                        secret.remove().recycle(pool);
                    }
                }
            }
        }
    }
    Ok(shipment)
}

/// The store half of an upload: accumulates per-cloud 4 MB batches of
/// non-duplicate shares as the encode pipeline emits secrets (every cloud
/// fed as secrets arrive), flushes each batch through second-stage
/// intra-user dedup + `store_shares`, and offloads the per-cloud recipes
/// once the input ends. It owns the upload's rollback obligations: shares
/// sent but not yet settled by `put_file` hold transient per-upload
/// references, which [`StreamCommitter::abandon`] drops on failure.
struct StreamCommitter<'a, T: ServerTransport> {
    client: &'a CdStoreClient,
    servers: &'a [T],
    pool: Arc<BufferPool>,
    batch_bytes: u64,
    dedup: DedupStats,
    recipes: Vec<Vec<RecipeEntry>>,
    /// First-stage intra-user dedup: shares already scheduled in this upload.
    scheduled: Vec<HashSet<Fingerprint>>,
    /// Per-cloud batch under construction (pooled share buffers).
    batches: Vec<Batch>,
    /// The secrets behind the batches' [`Payload::Lazy`] entries, by
    /// `secret_seq`.
    lazy: HashMap<u64, LazySecret>,
    batch_fill: Vec<u64>,
    /// Shares physically sent per cloud, for put_file / rollback.
    uploaded: Vec<Vec<Fingerprint>>,
    transferred_per_cloud: Vec<u64>,
    physical_per_cloud: Vec<u64>,
    batches_per_cloud: Vec<u64>,
    num_secrets: usize,
    file_size: u64,
}

impl<'a, T: ServerTransport> StreamCommitter<'a, T> {
    fn new(
        client: &'a CdStoreClient,
        servers: &'a [T],
        pool: Arc<BufferPool>,
        batch_bytes: u64,
    ) -> Self {
        let n = client.n;
        StreamCommitter {
            client,
            servers,
            pool,
            batch_bytes,
            dedup: DedupStats::new(),
            recipes: vec![Vec::new(); n],
            scheduled: vec![HashSet::new(); n],
            batches: (0..n).map(|_| Vec::new()).collect(),
            lazy: HashMap::new(),
            batch_fill: vec![0; n],
            uploaded: vec![Vec::new(); n],
            transferred_per_cloud: vec![0; n],
            physical_per_cloud: vec![0; n],
            batches_per_cloud: vec![0; n],
            num_secrets: 0,
            file_size: 0,
        }
    }

    /// Absorbs one encoded secret from the pipeline (in input order). A
    /// retained (memo-hit) secret is accounted exactly as its shares would
    /// be — share sizes come from the scheme — so batch boundaries, RPC
    /// counts and the report do not depend on what the memo held.
    fn absorb(&mut self, enc: EncodedSecret) -> Result<(), CdStoreError> {
        self.num_secrets += 1;
        self.file_size += enc.secret_size as u64;
        self.dedup.logical_bytes += enc.secret_size as u64;
        let EncodedSecret {
            seq,
            secret_size,
            shares,
            fingerprints,
            retained,
        } = enc;
        let retained_share_size = self.client.scheme.share_size(secret_size as usize);
        let mut shares = shares.into_iter();
        let mut pending = 0;
        for (cloud, fp) in fingerprints.into_iter().enumerate() {
            let share = shares.next();
            let share_size = share.as_ref().map_or(retained_share_size, Vec::len);
            self.dedup.logical_share_bytes += share_size as u64;
            self.recipes[cloud].push(RecipeEntry {
                share_fingerprint: fp,
                secret_size,
            });
            // First-stage intra-user dedup: drop shares already scheduled in
            // this upload before they ever hit a batch.
            if !self.scheduled[cloud].insert(fp) {
                if let Some(share) = share {
                    self.pool.put(share);
                }
                continue;
            }
            self.batch_fill[cloud] += share_size as u64;
            self.batches[cloud].push((
                ShareMetadata {
                    fingerprint: fp,
                    share_size: share_size as u32,
                    secret_seq: seq,
                    secret_size,
                },
                match share {
                    Some(share) => Payload::Share(share),
                    None => {
                        pending += 1;
                        Payload::Lazy
                    }
                },
            ));
        }
        if let Some(RetainedSecret { key, chunk }) = retained {
            let secret = LazySecret {
                key,
                state: LazyState::Retained(chunk),
                pending,
            };
            if pending == 0 {
                secret.recycle(&self.pool);
            } else {
                self.lazy.insert(seq, secret);
            }
        }
        for cloud in 0..self.client.n {
            if self.batch_fill[cloud] >= self.batch_bytes {
                self.flush(cloud)?;
            }
        }
        Ok(())
    }

    /// Ships cloud `cloud`'s current batch: second-stage intra-user dedup
    /// query, then `store_shares` for the survivors, with bounded retry on
    /// transient faults (see [`ship_batch`]).
    fn flush(&mut self, cloud: usize) -> Result<(), CdStoreError> {
        let mut batch = std::mem::take(&mut self.batches[cloud]);
        self.batch_fill[cloud] = 0;
        if batch.is_empty() {
            return Ok(());
        }
        let shipment = ship_batch(
            self.client,
            &self.servers[cloud],
            cloud,
            &mut batch,
            &mut self.lazy,
            &self.pool,
        )?;
        self.transferred_per_cloud[cloud] += shipment.transferred;
        self.dedup.transferred_share_bytes += shipment.transferred;
        self.batches_per_cloud[cloud] += 1;
        self.uploaded[cloud].extend(shipment.uploaded);
        self.physical_per_cloud[cloud] += shipment.new_bytes;
        self.dedup.physical_share_bytes += shipment.new_bytes;
        Ok(())
    }

    /// Stream ended cleanly: flush the final partial batches and offload the
    /// per-cloud recipes. On error the caller must still call
    /// [`StreamCommitter::abandon`].
    fn finalize(&mut self, pathname: &str) -> Result<UploadReport, CdStoreError> {
        for cloud in 0..self.client.n {
            self.flush(cloud)?;
        }
        let encoded_paths = self.client.encode_pathname(pathname)?;
        for (cloud, server) in self.servers.iter().enumerate() {
            let recipe = FileRecipe {
                file_size: self.file_size,
                entries: std::mem::take(&mut self.recipes[cloud]),
            };
            if let Err(e) = server.put_file(
                self.client.user,
                &encoded_paths[cloud],
                &recipe,
                &self.uploaded[cloud],
            ) {
                // A server that answered with an error rolled its own
                // references back; one whose reply was lost may instead hold
                // the committed recipe, like the earlier clouds — a retried
                // backup supersedes those. Only clouds not yet reached still
                // hold transient per-upload references — drop exactly those.
                for later in cloud + 1..self.client.n {
                    let _ = self.servers[later]
                        .release_uploads(self.client.user, &self.uploaded[later]);
                }
                // Everything is settled; make the caller's abandon a no-op.
                self.uploaded.iter_mut().for_each(Vec::clear);
                return Err(e);
            }
        }
        Ok(UploadReport {
            num_secrets: self.num_secrets,
            dedup: self.dedup,
            transferred_per_cloud: std::mem::take(&mut self.transferred_per_cloud),
            // A zero-secret upload still counts one (empty) batch per cloud.
            batches_per_cloud: self.batches_per_cloud.iter().map(|&b| b.max(1)).collect(),
            physical_per_cloud: std::mem::take(&mut self.physical_per_cloud),
        })
    }

    /// Abandons the upload after a failure without leaking: drops the
    /// transient per-upload references taken by every `store_shares` batch
    /// that was sent but never settled by `put_file`.
    fn abandon(&self) {
        for (cloud, server) in self.servers.iter().enumerate() {
            if !self.uploaded[cloud].is_empty() {
                let _ = server.release_uploads(self.client.user, &self.uploaded[cloud]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CdStoreServer;

    fn make_servers(n: usize) -> Vec<CdStoreServer> {
        (0..n).map(CdStoreServer::new).collect()
    }

    fn test_data(len: usize, seed: u8) -> Vec<u8> {
        // Low-entropy but position-dependent data so chunking finds stable
        // boundaries and dedup behaves deterministically.
        (0..len)
            .map(|i| ((i / 512) as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn upload_then_download_round_trips() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(300_000, 1);
        let report = client.upload(&servers, "/backup/a.tar", &data).unwrap();
        assert!(report.num_secrets > 1);
        assert_eq!(report.dedup.logical_bytes, data.len() as u64);
        let restored = client
            .download(&servers, &[true; 4], "/backup/a.tar")
            .unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn download_works_with_any_k_clouds() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(150_000, 2);
        client.upload(&servers, "/f", &data).unwrap();
        for down in 0..4 {
            let mut available = [true; 4];
            available[down] = false;
            let restored = client.download(&servers, &available, "/f").unwrap();
            assert_eq!(restored, data, "cloud {down} down");
        }
        // Two clouds down is too many for k = 3.
        assert!(matches!(
            client.download(&servers, &[true, true, false, false], "/f"),
            Err(CdStoreError::NotEnoughClouds { .. })
        ));
    }

    #[test]
    fn second_identical_upload_transfers_no_share_data() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(200_000, 3);
        let first = client.upload(&servers, "/weekly/v1", &data).unwrap();
        assert!(first.dedup.transferred_share_bytes > 0);
        // The same content under a new pathname: intra-user dedup removes
        // every share transfer.
        let second = client.upload(&servers, "/weekly/v2", &data).unwrap();
        assert_eq!(second.dedup.transferred_share_bytes, 0);
        assert!((second.dedup.intra_user_saving() - 1.0).abs() < 1e-9);
        // Both versions remain restorable.
        assert_eq!(
            client.download(&servers, &[true; 4], "/weekly/v1").unwrap(),
            data
        );
        assert_eq!(
            client.download(&servers, &[true; 4], "/weekly/v2").unwrap(),
            data
        );
    }

    #[test]
    fn cross_user_duplicates_are_removed_server_side_only() {
        let servers = make_servers(4);
        let alice = CdStoreClient::new(1, 4, 3).unwrap();
        let bob = CdStoreClient::new(2, 4, 3).unwrap();
        let data = test_data(120_000, 4);
        let a = alice.upload(&servers, "/a", &data).unwrap();
        let b = bob.upload(&servers, "/b", &data).unwrap();
        // Bob still transfers his shares (no client-side global dedup — that
        // would open the side channel)...
        assert!(b.dedup.transferred_share_bytes > 0);
        assert_eq!(
            b.dedup.transferred_share_bytes,
            a.dedup.transferred_share_bytes
        );
        // ...but the servers store nothing new for Bob.
        assert_eq!(b.dedup.physical_share_bytes, 0);
        assert!((b.dedup.inter_user_saving() - 1.0).abs() < 1e-9);
        // Both users can restore independently.
        assert_eq!(alice.download(&servers, &[true; 4], "/a").unwrap(), data);
        assert_eq!(bob.download(&servers, &[true; 4], "/b").unwrap(), data);
    }

    #[test]
    fn modified_backup_transfers_only_changed_chunks() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let week1 = test_data(400_000, 5);
        let mut week2 = week1.clone();
        // Modify a small region (simulating an incremental change).
        for b in &mut week2[100_000..101_000] {
            *b ^= 0xff;
        }
        let r1 = client.upload(&servers, "/w1", &week1).unwrap();
        let r2 = client.upload(&servers, "/w2", &week2).unwrap();
        assert!(r2.dedup.transferred_share_bytes < r1.dedup.transferred_share_bytes / 4);
        assert!(r2.dedup.intra_user_saving() > 0.7);
        assert_eq!(client.download(&servers, &[true; 4], "/w2").unwrap(), week2);
    }

    #[test]
    fn unknown_file_and_wrong_user_are_rejected() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(50_000, 6);
        client.upload(&servers, "/mine", &data).unwrap();
        assert!(matches!(
            client.download(&servers, &[true; 4], "/missing"),
            Err(CdStoreError::FileNotFound(_))
        ));
        // Another user cannot restore the file even if they guess the path.
        let eve = CdStoreClient::new(66, 4, 3).unwrap();
        assert!(eve.download(&servers, &[true; 4], "/mine").is_err());
    }

    #[test]
    fn upload_requires_matching_server_count() {
        let servers = make_servers(3);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        assert!(matches!(
            client.upload(&servers, "/f", b"data"),
            Err(CdStoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_file_round_trips() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let report = client.upload(&servers, "/empty", b"").unwrap();
        assert_eq!(report.num_secrets, 0);
        assert_eq!(
            client.download(&servers, &[true; 4], "/empty").unwrap(),
            Vec::<u8>::new()
        );
    }

    /// An upload several times larger than the pipeline's buffer budget keeps
    /// peak live chunk/share buffers bounded by the pipeline depth plus the
    /// per-cloud batches — never O(file) — whether the chunks are cut off a
    /// reader or arrive pre-cut, and restores byte-exact. The same bound
    /// holds when every secret is a memo hit: owned by the user (the batches
    /// hold retained chunks) or not (each is encoded when its batch ships).
    #[test]
    fn streamed_backup_memory_is_bounded_by_pipeline_depth_not_file_size() {
        let (n, k) = (4usize, 3usize);
        let min_chunk = 2048usize;
        let new_client = |user| {
            CdStoreClient::with_chunker_kind(
                user,
                n,
                k,
                ChunkerKind::FastCdc,
                ChunkerConfig::new(min_chunk, 8192, 16 * 1024),
            )
            .unwrap()
        };
        // A small batch so the per-cloud batches flush many times.
        let batch_bytes: u64 = 64 * 1024;
        // Pseudo-random content, so FastCDC cuts variable-size chunks.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..4 * 1024 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let chunks: Vec<Vec<u8>> = new_client(1)
            .chunker()
            .chunk(&data)
            .into_iter()
            .map(|c| c.data)
            .collect();

        for prechunked in [false, true] {
            let servers = make_servers(n);
            let owner = new_client(1);
            let other = new_client(2).with_memo(Arc::clone(&owner.memo));
            // (who uploads, memo hits expected, of which encoded after all)
            let passes = [
                ("first", &owner, 0, 0),
                ("again", &owner, chunks.len(), 0),
                ("other user", &other, chunks.len(), chunks.len()),
            ];
            for (pass, client, hits, materialised) in passes {
                let memo_before = (client.memo.hits(), client.memo.materialised());
                let pool = Arc::new(BufferPool::new());
                let config = PipelineConfig {
                    encode_threads: 2,
                    chunk_queue: 2,
                    encoded_queue: 2,
                    read_buffer: 16 * 1024,
                    pool: Some(Arc::clone(&pool)),
                    memo: None,
                };
                let report = client
                    .upload_with(
                        &servers,
                        "/huge",
                        &config,
                        batch_bytes,
                        |config, committer| {
                            if prechunked {
                                encode_chunks(&client.scheme, &chunks, config, |enc, _| {
                                    committer.absorb(enc)
                                })
                            } else {
                                encode_stream(
                                    &client.scheme,
                                    client.chunker(),
                                    &data[..],
                                    config,
                                    |enc, _| committer.absorb(enc),
                                )
                            }
                        },
                    )
                    .unwrap();
                assert_eq!(report.num_secrets, chunks.len());
                assert!(report.num_secrets > 4 * config.max_live_secrets());
                assert!(report.batches_per_cloud.iter().all(|&b| b > 10));
                assert_eq!(
                    (
                        client.memo.hits() - memo_before.0,
                        client.memo.materialised() - memo_before.1
                    ),
                    (hits as u64, materialised as u64),
                    "prechunked={prechunked} {pass}"
                );

                // Buffer-count bound: the pipeline's live secrets, plus what
                // the per-cloud batches can retain (each batched share is at
                // least a min-chunk share).
                let min_share = (client.scheme.total_share_size(min_chunk) / n) as u64;
                let bound =
                    config.max_live_buffers(n) as u64 + n as u64 * (batch_bytes / min_share + 1);
                let stats = pool.stats();
                assert!(
                    (stats.peak_outstanding as u64) <= bound,
                    "prechunked={prechunked} {pass}: peak live buffers {} exceeded the bound {bound}",
                    stats.peak_outstanding
                );
                assert_eq!(stats.outstanding, 0, "all buffers must return to the pool");
                assert!(
                    stats.reuses > 10 * stats.allocations,
                    "steady state must recycle buffers (allocs={}, reuses={})",
                    stats.allocations,
                    stats.reuses
                );
                assert_eq!(
                    client.download(&servers, &[true; 4], "/huge").unwrap(),
                    data
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The restore windows planned over any recipe cover every secret
        /// once, in order; none exceeds the secret-count cap, none exceeds the
        /// byte budget unless it is a single secret, and none is cut short.
        #[test]
        fn restore_windows_cover_every_secret_once_within_both_bounds(
            raw in proptest::collection::vec(proptest::any::<u32>(), 0..3000),
            // Secrets of up to 16 B .. 4 MiB: small scales run into the
            // secret-count cap, large ones into single-secret windows.
            scale in 4u32..23,
            k in 1usize..4,
        ) {
            let client = CdStoreClient::new(1, 4, k).unwrap();
            let share_fingerprint = Fingerprint::of(b"");
            let entries: Vec<RecipeEntry> = raw
                .iter()
                .map(|r| RecipeEntry { share_fingerprint, secret_size: r % (1 << scale) })
                .collect();
            let share_bytes = |e: &RecipeEntry| client.scheme.share_size(e.secret_size as usize) as u64;
            let mut start = 0;
            while start < entries.len() {
                let len = client.restore_window_len(&entries[start..]);
                proptest::prop_assert!((1..=RESTORE_WINDOW_SECRETS).contains(&len));
                proptest::prop_assert!(start + len <= entries.len());
                let bytes: u64 = entries[start..start + len].iter().map(share_bytes).sum();
                proptest::prop_assert!(len == 1 || bytes <= RESTORE_WINDOW_BYTES);
                if let Some(next) = entries.get(start + len) {
                    proptest::prop_assert!(
                        len == RESTORE_WINDOW_SECRETS
                            || bytes + share_bytes(next) > RESTORE_WINDOW_BYTES,
                        "window of {} secrets / {} bytes closed early", len, bytes
                    );
                }
                start += len;
            }
            proptest::prop_assert_eq!(start, entries.len());
        }
    }

    #[test]
    fn logical_share_bytes_reflect_dispersal_blowup() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(256_000, 7);
        let report = client.upload(&servers, "/blowup", &data).unwrap();
        let blowup = report.dedup.logical_share_bytes as f64 / report.dedup.logical_bytes as f64;
        // n/k = 4/3 plus the per-secret CAONT tail overhead.
        assert!(blowup > 1.33 && blowup < 1.40, "blowup {blowup}");
    }
}
