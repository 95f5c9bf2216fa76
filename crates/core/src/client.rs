//! The CDStore client (§4.1–§4.3): chunking, CAONT-RS encoding, intra-user
//! deduplication, batched uploads, and restores.
//!
//! Uploads pull from any [`std::io::BufRead`] ([`CdStoreClient::upload_stream`])
//! or from a list of pre-cut chunks ([`CdStoreClient::upload_chunks`]) and
//! restores push to any [`std::io::Write`]
//! ([`CdStoreClient::download_stream`]); either way peak memory is bounded by
//! the pipeline depth and the 4 MB per-cloud batches, not the file size.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Write};
use std::ops::Range;
use std::sync::Arc;

use cdstore_chunking::{Chunker, ChunkerConfig, ChunkerKind};
use cdstore_crypto::Fingerprint;
use cdstore_secretsharing::caont_rs::GROUP;
use cdstore_secretsharing::{BufferPool, CaontRs, GroupSplit, SecretSharing, SharingError};

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

/// Share bytes a restore asks one cloud for per window, about — what bounds
/// a `fetch_shares` or `open_file` reply (and the memory both ends spend on
/// it) for any chunker configuration, as [`UPLOAD_BATCH_BYTES`] bounds a
/// `store_shares` request. A window is cut over secret sizes, which a server
/// knows without the scheme, at `k ×` this many secret bytes: each cloud's
/// share of a secret is a `k`-th of it plus a small tail. With the default
/// 8 KB average chunk size a window is about 190 secrets: enough to amortise
/// the round trip, and small enough that the copies of a reply in flight on
/// both ends do not show in peak memory. A window always holds at least one
/// secret, so a share larger than this is still restorable.
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
    /// slice is just one shape of `BufRead` source, cut in place.
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
    /// Chunks are cut out of the reader's own buffer; wrap a file in a
    /// [`std::io::BufReader`].
    pub fn upload_stream<T: ServerTransport, R: BufRead + Send>(
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
    /// or `k ×` [`RESTORE_WINDOW_BYTES`] of secret bytes — about
    /// `RESTORE_WINDOW_BYTES` of share bytes per cloud — whichever comes
    /// first ([`FileRecipe::window_len`]).
    ///
    /// The first window comes back with the recipe: one `open_file` call on
    /// each of the `k` chosen clouds opens the file, so a file that fits one
    /// window costs `k` calls in all. Every later window is one
    /// `fetch_shares` call per cloud — in process or, over `cdstore_net`,
    /// one request and one reply frame. `get_recipe` is called only to fail
    /// over to a spare cloud mid-file. Returns the number of bytes written.
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
        let max_secret_bytes = self.k as u64 * RESTORE_WINDOW_BYTES;

        // Open the file on each chosen cloud: its recipe (metadata is a few
        // dozen bytes per secret; only share payloads are windowed) and the
        // first window's shares.
        let mut recipes: Vec<(usize, FileRecipe)> = Vec::with_capacity(self.k);
        let mut shares_by_cloud: Vec<(usize, Vec<Vec<u8>>)> = Vec::with_capacity(self.k);
        for mut cloud in candidates {
            let (recipe, shares) = loop {
                match self.retry.run(|_| {
                    servers[cloud].open_file(
                        self.user,
                        &encoded_paths[cloud],
                        RESTORE_WINDOW_SECRETS,
                        max_secret_bytes,
                    )
                }) {
                    Ok(opened) => break opened,
                    Err(e) if is_transient(&e) => match spares.pop() {
                        Some(spare) => cloud = spare,
                        None => return Err(e),
                    },
                    Err(e) => return Err(e),
                }
            };
            recipes.push((cloud, recipe));
            shares_by_cloud.push((cloud, shares));
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
        // The first window is the secrets every reply carries a share of.
        let first = (shares_by_cloud.iter())
            .map(|(_, shares)| shares.len())
            .min()
            .unwrap_or(0)
            .min(num_secrets);
        let mut written = self.decode_window(&recipes[0].1, 0..first, shares_by_cloud, out)?;

        // Then a window of shares from each chosen cloud at a time: fetch,
        // decode secret by secret, write out, repeat.
        let fetch_recipe = |cloud: usize| {
            self.retry
                .run(|_| servers[cloud].get_recipe(self.user, &encoded_paths[cloud]))
        };
        let mut window_start = first;
        while window_start < num_secrets {
            let window_end = window_start
                + recipes[0]
                    .1
                    .window_len(window_start, RESTORE_WINDOW_SECRETS, max_secret_bytes);
            let mut shares_by_cloud: Vec<(usize, Vec<Vec<u8>>)> = Vec::with_capacity(self.k);
            // Indexing, not iterating: the failover arm below reassigns
            // `recipes[slot]`, which an element iterator would hold borrowed.
            #[allow(clippy::needless_range_loop)]
            for slot in 0..self.k {
                let shares = loop {
                    let (cloud, fps) = {
                        let (cloud, recipe) = &recipes[slot];
                        (*cloud, recipe.fingerprints(window_start..window_end))
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
            written += self.decode_window(
                &recipes[0].1,
                window_start..window_end,
                shares_by_cloud,
                out,
            )?;
            window_start = window_end;
        }
        Ok(written)
    }

    /// Decodes the secrets in `window` of `recipe` from `shares_by_cloud` —
    /// `(cloud, shares)` from `k` clouds, each cloud's shares starting at the
    /// window's first secret — writes them to `out` and returns the bytes
    /// written. The window decodes in groups of [`GROUP`] secrets
    /// ([`CaontRs::reconstruct_group`]); a failing secret stops the restore
    /// after the secrets before it are written.
    fn decode_window<W: Write + ?Sized>(
        &self,
        recipe: &FileRecipe,
        window: Range<usize>,
        shares_by_cloud: Vec<(usize, Vec<Vec<u8>>)>,
        out: &mut W,
    ) -> Result<u64, CdStoreError> {
        let mut written = 0u64;
        for group_start in window.clone().step_by(GROUP) {
            let seqs = group_start..window.end.min(group_start + GROUP);
            let mut slots: Vec<Option<&[u8]>> = vec![None; seqs.len() * self.n];
            for (slots, seq) in slots.chunks_mut(self.n).zip(seqs.clone()) {
                for (cloud, shares) in &shares_by_cloud {
                    slots[*cloud] = Some(&shares[seq - window.start]);
                }
            }
            let group: Vec<(&[Option<&[u8]>], usize)> = (slots.chunks(self.n).zip(seqs.clone()))
                .map(|(slots, seq)| (slots, recipe.entries[seq].secret_size as usize))
                .collect();
            for (seq, secret) in seqs.zip(self.scheme.reconstruct_group(&group)) {
                let secret = secret.map_err(|e| match e {
                    SharingError::IntegrityCheckFailed => CdStoreError::IntegrityFailure(format!(
                        "secret {seq} failed its hash check"
                    )),
                    other => CdStoreError::Sharing(other),
                })?;
                out.write_all(&secret)?;
                written += secret.len() as u64;
            }
        }
        Ok(written)
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

/// Shares moved out of a batch for one transfer, with their metadata.
type Transfer = Vec<(ShareMetadata, Vec<u8>)>;

impl BatchShipment {
    /// Accounts for the shares a server took, recycling their buffers.
    fn recycling(sent: Transfer, new_bytes: u64, pool: &BufferPool) -> Self {
        let mut shipment = BatchShipment {
            uploaded: Vec::with_capacity(sent.len()),
            transferred: 0,
            new_bytes,
        };
        for (meta, share) in sent {
            shipment.uploaded.push(meta.fingerprint);
            shipment.transferred += share.len() as u64;
            pool.put(share);
        }
        shipment
    }
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
            // The package is built in the chunk's own buffer.
            let member = GroupSplit {
                secret: chunk,
                key: Some(&self.key),
                shares: &mut shares,
            };
            client.scheme.split_group(&mut [member], &mut 0)?;
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

/// The second-stage intra-user dedup query for one batch of cloud `cloud`:
/// moves the shares the server does not already hold for the user out of
/// the batch, each with its batch index. The query names every entry,
/// encoded or [`Payload::Lazy`] alike; a lazy entry the server does not own
/// is encoded now (see [`LazySecret`]). The slots stay in place, so a failed
/// transfer can put the shares back.
fn take_unowned<T: ServerTransport>(
    client: &CdStoreClient,
    server: &T,
    cloud: usize,
    batch: &mut Batch,
    lazy: &mut HashMap<u64, LazySecret>,
    pool: &BufferPool,
) -> Result<(Transfer, Vec<usize>), CdStoreError> {
    let fps: Vec<Fingerprint> = batch.iter().map(|(m, _)| m.fingerprint).collect();
    let already = server.intra_user_query(client.user, &fps)?;
    let mut to_upload = Transfer::new();
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
    Ok((to_upload, taken))
}

/// Ships one non-final batch of candidate shares to cloud `cloud`'s server:
/// [`take_unowned`], then `store_shares` for the survivors, with bounded
/// retry-with-backoff on transient faults.
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
        let (to_upload, taken) = take_unowned(client, server, cloud, batch, lazy, pool)?;
        match server.store_shares(user, &to_upload) {
            Ok(receipt) => Ok(BatchShipment::recycling(to_upload, receipt.new_bytes, pool)),
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
    retire_batch(batch, lazy, pool);
    Ok(shipment)
}

/// Empties a shipped batch: recycles the remaining (duplicate) share
/// buffers and drops this cloud's claim on its lazy secrets.
fn retire_batch(batch: &mut Batch, lazy: &mut HashMap<u64, LazySecret>, pool: &BufferPool) {
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
}

/// The store half of an upload: accumulates per-cloud 4 MB batches of
/// non-duplicate shares as the encode pipeline emits secrets (every cloud
/// fed as secrets arrive), flushes each full batch through second-stage
/// intra-user dedup + `store_shares`, and once the input ends sends each
/// cloud its last batch together with its recipe (`commit_file`). It owns
/// the upload's rollback obligations: shares sent to a cloud not yet
/// committed hold transient per-upload references, which
/// [`StreamCommitter::abandon`] drops on failure.
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
    /// Shares physically sent per cloud, for commit_file / rollback; emptied
    /// once the cloud's commit has been sent, whatever its outcome.
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
        self.account(cloud, &shipment);
        self.uploaded[cloud].extend(shipment.uploaded);
        Ok(())
    }

    /// Adds one shipped batch to the report.
    fn account(&mut self, cloud: usize, shipment: &BatchShipment) {
        self.transferred_per_cloud[cloud] += shipment.transferred;
        self.dedup.transferred_share_bytes += shipment.transferred;
        self.batches_per_cloud[cloud] += 1;
        self.physical_per_cloud[cloud] += shipment.new_bytes;
        self.dedup.physical_share_bytes += shipment.new_bytes;
    }

    /// Stream ended cleanly: every cloud's last (partial, possibly empty)
    /// batch goes through the dedup query, then rides with the cloud's
    /// recipe in one `commit_file`. The queries all run first, so a fault
    /// there leaves no cloud committed. On error the caller must still call
    /// [`StreamCommitter::abandon`].
    fn finalize(&mut self, pathname: &str) -> Result<UploadReport, CdStoreError> {
        let client = self.client;
        let encoded_paths = client.encode_pathname(pathname)?;
        let mut last_batches = Vec::with_capacity(client.n);
        for (cloud, server) in self.servers.iter().enumerate() {
            let mut batch = std::mem::take(&mut self.batches[cloud]);
            let to_upload = if batch.is_empty() {
                Vec::new()
            } else {
                let (lazy, pool) = (&mut self.lazy, &self.pool);
                client
                    .retry
                    .run(|_| take_unowned(client, server, cloud, &mut batch, lazy, pool))?
                    .0
            };
            last_batches.push((batch, to_upload));
        }
        for (cloud, (mut batch, to_upload)) in last_batches.into_iter().enumerate() {
            let recipe = FileRecipe {
                file_size: self.file_size,
                entries: std::mem::take(&mut self.recipes[cloud]),
            };
            // Taken before the call: whether it fails or its reply is lost
            // (the file may be committed), this cloud's references are the
            // server's to settle or roll back, never the client's to release.
            // A failure leaves `uploaded` of the clouds not reached yet for
            // `abandon`; the façade replays the whole upload.
            let uploaded = std::mem::take(&mut self.uploaded[cloud]);
            let receipt = self.servers[cloud].commit_file(
                client.user,
                &encoded_paths[cloud],
                &to_upload,
                &recipe,
                &uploaded,
            )?;
            if !batch.is_empty() {
                let shipment = BatchShipment::recycling(to_upload, receipt.new_bytes, &self.pool);
                retire_batch(&mut batch, &mut self.lazy, &self.pool);
                self.account(cloud, &shipment);
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
    /// sent to a cloud whose `commit_file` was never sent.
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
    use std::io::BufReader;

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
    fn a_corrupt_share_mid_group_names_its_secret() {
        let servers = make_servers(4);
        let client = CdStoreClient::new(1, 4, 3).unwrap();
        let data = test_data(400_000, 8);
        client.upload(&servers, "/groups", &data).unwrap();
        let paths = client.encode_pathname("/groups").unwrap();
        let recipes: Vec<FileRecipe> = (0..3)
            .map(|c| servers[c].get_recipe(1, &paths[c]).unwrap())
            .collect();
        assert!(recipes[0].num_secrets() > 18);
        let mut offsets = vec![0usize];
        for entry in &recipes[0].entries {
            offsets.push(offsets.last().unwrap() + entry.secret_size as usize);
        }
        // One group each, just under, at and over the sixteen hash lanes. The
        // window starts at secret 1, so the name is the file's seq.
        for size in [15, 16, 17] {
            let window = 1..1 + size;
            let shares: Vec<(usize, Vec<Vec<u8>>)> = (recipes.iter().enumerate())
                .map(|(c, r)| {
                    let fps = r.fingerprints(window.clone());
                    (c, servers[c].fetch_shares(1, &fps).unwrap())
                })
                .collect();
            let mut out = Vec::new();
            (client.decode_window(&recipes[0], window.clone(), shares.clone(), &mut out)).unwrap();
            assert_eq!(out, data[offsets[window.start]..offsets[window.end]]);

            let bad = window.start + size / 2;
            let mut corrupt = shares;
            corrupt[1].1[bad - window.start][3] ^= 0x10;
            let mut out = Vec::new();
            let err = (client.decode_window(&recipes[0], window.clone(), corrupt, &mut out))
                .expect_err("a corrupt share must fail its secret's hash check");
            assert!(
                matches!(&err, CdStoreError::IntegrityFailure(msg)
                    if *msg == format!("secret {bad} failed its hash check")),
                "group of {size}: {err:?}"
            );
            // The secrets before it are written, none from it on.
            assert_eq!(out, data[offsets[window.start]..offsets[bad]]);
        }
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
        // Small chunks, so the file is many times the pipeline's groups.
        let min_chunk = 512usize;
        let new_client = |user| {
            CdStoreClient::with_chunker_kind(
                user,
                n,
                k,
                ChunkerKind::FastCdc,
                ChunkerConfig::new(min_chunk, 1024, 4096),
            )
            .unwrap()
        };
        // A small batch so the per-cloud batches flush many times.
        let batch_bytes: u64 = 64 * 1024;
        // Pseudo-random content, so FastCDC cuts variable-size chunks.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..8 * 1024 * 1024)
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
                                    BufReader::with_capacity(16 * 1024, &data[..]),
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

        /// The restore windows `download_stream` plans over any recipe cover
        /// every secret once, in order; none exceeds the secret-count cap,
        /// none exceeds the secret-byte budget unless it is a single secret —
        /// so each cloud's shares of it stay within `RESTORE_WINDOW_BYTES`
        /// plus a share tail a secret — and none is cut short.
        #[test]
        fn restore_windows_cover_every_secret_once_within_both_bounds(
            raw in proptest::collection::vec(proptest::any::<u32>(), 0..3000),
            // Secrets of up to 16 B .. 4 MiB: small scales run into the
            // secret-count cap, large ones into single-secret windows.
            scale in 4u32..23,
            k in 1usize..4,
        ) {
            let client = CdStoreClient::new(1, 4, k).unwrap();
            let budget = k as u64 * RESTORE_WINDOW_BYTES;
            let share_fingerprint = Fingerprint::of(b"");
            let recipe = FileRecipe {
                file_size: 0,
                entries: raw
                    .iter()
                    .map(|r| RecipeEntry { share_fingerprint, secret_size: r % (1 << scale) })
                    .collect(),
            };
            let entries = &recipe.entries;
            let share_bytes = |e: &RecipeEntry| client.scheme.share_size(e.secret_size as usize) as u64;
            let tail = client.scheme.share_size(0) as u64 + 1;
            let mut start = 0;
            while start < entries.len() {
                let len = recipe.window_len(start, RESTORE_WINDOW_SECRETS, budget);
                proptest::prop_assert!((1..=RESTORE_WINDOW_SECRETS).contains(&len));
                proptest::prop_assert!(start + len <= entries.len());
                let window = &entries[start..start + len];
                let bytes: u64 = window.iter().map(|e| u64::from(e.secret_size)).sum();
                proptest::prop_assert!(len == 1 || bytes <= budget);
                let shares: u64 = window.iter().map(share_bytes).sum();
                proptest::prop_assert!(len == 1 || shares <= RESTORE_WINDOW_BYTES + len as u64 * tail);
                if let Some(next) = entries.get(start + len) {
                    proptest::prop_assert!(
                        len == RESTORE_WINDOW_SECRETS
                            || bytes + u64::from(next.secret_size) > budget,
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
