//! The CDStore client (§4.1–§4.3): chunking, CAONT-RS encoding, intra-user
//! deduplication, batched uploads, and restores.
//!
//! Uploads pull from any [`std::io::BufRead`] ([`CdStoreClient::upload_stream`])
//! or from a list of pre-cut chunks ([`CdStoreClient::upload_chunks`]) and
//! restores push to any [`std::io::Write`]
//! ([`CdStoreClient::download_stream`]); either way peak memory is bounded by
//! the pipeline depth and one upload batch — 4 MB of each cloud's shares —
//! or one restore window, not the file size. An upload batch is one list of
//! secrets: cloud `c` ships column `c` of it, each secret's `c`-th share.

use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::ops::Range;
use std::rc::Rc;
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
use crate::transport::{ServerTransport, StoreReceipt};

/// Size of an upload batch, in one cloud's share bytes: each cloud's
/// shares are batched into 4 MB units before being sent over the Internet
/// (§4.1).
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
    /// pipeline depth plus one batch, never the file size.
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
    /// settles or abandons what it shipped. `batch_bytes` bounds one cloud's
    /// column of the batch, [`UPLOAD_BATCH_BYTES`] outside tests.
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
    /// [`CdStoreClient::download_stream`] into a `Vec<u8>` reserved for the
    /// recipe's file size once the recipe is known, so the file is written
    /// without a regrowth and returned without spare capacity. A size that
    /// cannot be reserved fails the restore with [`CdStoreError::Io`].
    pub fn download<T: ServerTransport>(
        &self,
        servers: &[T],
        available: &[bool],
        pathname: &str,
    ) -> Result<Vec<u8>, CdStoreError> {
        let mut out = Vec::new();
        self.download_into(servers, available, pathname, &mut out, |out, size| {
            usize::try_from(size)
                .ok()
                .and_then(|size| out.try_reserve_exact(size).ok())
                .ok_or_else(|| CdStoreError::Io(format!("cannot hold a {size}-byte file")))
        })?;
        Ok(out)
    }

    /// Restores a file into any [`Write`] destination, fetching shares from
    /// each chosen cloud one bounded window at a time — the whole file is
    /// never buffered. This is the one place that decides how much a restore
    /// asks for at once: a window closes at [`RESTORE_WINDOW_SECRETS`] secrets
    /// or `k ×` [`RESTORE_WINDOW_BYTES`] of secret bytes — about
    /// `RESTORE_WINDOW_BYTES` of share bytes per cloud — whichever comes
    /// first ([`FileRecipe::window_len`]). Every window is cut on one
    /// reference recipe: the first one a cloud returns.
    ///
    /// The first `k` available clouds are read and the rest stand by as
    /// spares. Opening a cloud is one `open_file` call, which brings the
    /// first window's shares along, so a file that fits one window costs `k`
    /// calls in all. Every later window is one `fetch_shares` call per cloud
    /// — in process or, over `cdstore_net`, one request and one reply frame.
    ///
    /// Failover is one rule at every window: a transient error (see
    /// [`is_transient`]) that outlasts the client's [`RetryPolicy`], opening
    /// a cloud or fetching from it, hands that cloud's place to the next
    /// spare, lowest index first. The spare is opened with a zero-window
    /// `open_file` — over the wire the `GetRecipe` request `get_recipe`
    /// sends, in process one `get_recipe` call — and asked for the window
    /// again. Windows already written stand, and the reference recipe does
    /// not change. Once no spare is left the error ends the restore. Returns
    /// the number of bytes written.
    ///
    /// Every recipe's secret sizes must sum to its file size and match the
    /// reference's one by one, and every reply a window decodes from must
    /// hold one share per secret of the window. Anything else is
    /// [`CdStoreError::InconsistentMetadata`]; at the first window, it ends
    /// the restore before a byte is written.
    pub fn download_stream<T: ServerTransport, W: Write + ?Sized>(
        &self,
        servers: &[T],
        available: &[bool],
        pathname: &str,
        out: &mut W,
    ) -> Result<u64, CdStoreError> {
        self.download_into(servers, available, pathname, out, |_, _| Ok(()))
    }

    /// The body of [`CdStoreClient::download_stream`], which hands `prepare`
    /// the destination and the file size once the first window is read and
    /// checked, before the first byte is written.
    fn download_into<T: ServerTransport, W: Write + ?Sized>(
        &self,
        servers: &[T],
        available: &[bool],
        pathname: &str,
        out: &mut W,
        prepare: impl FnOnce(&mut W, u64) -> Result<(), CdStoreError>,
    ) -> Result<u64, CdStoreError> {
        if servers.len() != self.n || available.len() != self.n {
            return Err(CdStoreError::InvalidConfig(format!(
                "expected {} servers/availability flags",
                self.n
            )));
        }
        let mut clouds: Vec<usize> = (0..self.n).filter(|&i| available[i]).collect();
        if clouds.len() < self.k {
            return Err(CdStoreError::NotEnoughClouds {
                needed: self.k,
                available: clouds.len(),
            });
        }
        // A slot is a cloud and its recipe (`None` until opened). Spares, lowest
        // index first, stand in for clouds whose flag lags behind an outage.
        let mut spares = clouds.split_off(self.k).into_iter();
        let paths = self.encode_pathname(pathname)?;
        let mut slots: Vec<(usize, Option<Rc<FileRecipe>>)> =
            clouds.into_iter().map(|i| (i, None)).collect();
        let (mut reference, mut prepare) = (None, Some(prepare));
        let (mut start, mut written) = (0, 0);
        loop {
            let mut shares_by_cloud = Vec::with_capacity(self.k);
            for (cloud, recipe) in &mut slots {
                let shares = loop {
                    let (server, path) = (&servers[*cloud], &paths[*cloud]);
                    match self.read_window(server, path, recipe, &mut reference, start) {
                        // The one failover rule, opening or fetching, at any
                        // window: the next spare takes the slot.
                        Err(e) if is_transient(&e) => {
                            (*cloud, *recipe) = (spares.next().ok_or(e)?, None);
                        }
                        result => break result?,
                    }
                };
                shares_by_cloud.push((*cloud, shares));
            }
            let reference = reference.as_ref().expect("the first open fixes it");
            let window = self.window(reference, start);
            if let Some((cloud, shares)) =
                (shares_by_cloud.iter()).find(|(_, shares)| shares.len() != window.len())
            {
                return Err(CdStoreError::InconsistentMetadata(format!(
                    "cloud {cloud} sent {} shares for the {} secrets of window {window:?}",
                    shares.len(),
                    window.len()
                )));
            }
            if let Some(prepare) = prepare.take() {
                prepare(out, reference.file_size)?;
            }
            written += self.decode_window(reference, window.clone(), shares_by_cloud, out)?;
            if window.end == reference.num_secrets() {
                return Ok(written);
            }
            start = window.end;
        }
    }

    /// A restore window's bounds: secrets, and bytes of secrets.
    fn window_bounds(&self) -> (usize, u64) {
        (RESTORE_WINDOW_SECRETS, self.k as u64 * RESTORE_WINDOW_BYTES)
    }

    /// The restore window of `reference` that starts at secret `start`.
    fn window(&self, reference: &FileRecipe, start: usize) -> Range<usize> {
        let (max_secrets, max_bytes) = self.window_bounds();
        start..start + reference.window_len(start, max_secrets, max_bytes)
    }

    /// One attempt at one cloud's shares of the window starting at secret
    /// `start`. A cloud whose `recipe` is `None` is opened first: at window
    /// 0 with the window bounds, the reply then being the window, and later
    /// with zero bounds. The first recipe opened becomes the `reference`,
    /// and every recipe opened must agree with it.
    fn read_window<T: ServerTransport>(
        &self,
        server: &T,
        path: &[u8],
        recipe: &mut Option<Rc<FileRecipe>>,
        reference: &mut Option<Rc<FileRecipe>>,
        start: usize,
    ) -> Result<Vec<Vec<u8>>, CdStoreError> {
        let recipe = match recipe {
            Some(recipe) => recipe,
            None => {
                let (max_secrets, max_bytes) = match start {
                    0 => self.window_bounds(),
                    _ => (0, 0),
                };
                let (opened, shares) = self
                    .retry
                    .run(|_| server.open_file(self.user, path, max_secrets, max_bytes))?;
                // Shared with the reference, not copied: a copy raised peak RSS.
                let opened = Rc::new(opened);
                let reference = reference.get_or_insert_with(|| Rc::clone(&opened));
                let secret_bytes: u64 = (opened.entries.iter())
                    .map(|e| u64::from(e.secret_size))
                    .sum();
                let sizes = opened.entries.iter().map(|e| e.secret_size);
                if secret_bytes != opened.file_size
                    || opened.file_size != reference.file_size
                    || !sizes.eq(reference.entries.iter().map(|e| e.secret_size))
                {
                    return Err(CdStoreError::InconsistentMetadata(format!(
                        "a recipe of {} secrets holding {secret_bytes} bytes of a {}-byte \
                         file is not whole or disagrees with the first one opened",
                        opened.num_secrets(),
                        opened.file_size
                    )));
                }
                let recipe = recipe.insert(opened);
                if start == 0 {
                    return Ok(shares);
                }
                recipe
            }
        };
        let window = self.window(reference.as_ref().expect("set when opened"), start);
        let fps = recipe.fingerprints(window);
        self.retry.run(|_| server.fetch_shares(self.user, &fps))
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

/// The store half of an upload: one batch of secrets, whose column `c` —
/// each secret's share for cloud `c` — cloud `c` ships. Secrets join the
/// batch as the encode pipeline emits them, once each (first-stage
/// intra-user dedup). When one cloud's column reaches `batch_bytes` the
/// batch ships to every cloud in turn: second-stage intra-user dedup query,
/// then `store_shares` for the shares the server lacks. Once the input
/// ends, each cloud's last column rides with its recipe in one
/// `commit_file`. CAONT-RS gives a secret's `n` shares one size, and a
/// share repeats on a cloud only when its secret repeats, so every cloud's
/// column fills, and repeats, exactly as one cloud's would.
///
/// It owns the upload's rollback obligations: shares sent to a cloud not
/// yet committed hold transient per-upload references, which
/// [`StreamCommitter::abandon`] drops on failure. Whatever happens, every
/// pooled buffer it took goes back to the pool by the time it is dropped.
struct StreamCommitter<'a, T: ServerTransport> {
    client: &'a CdStoreClient,
    servers: &'a [T],
    pool: Arc<BufferPool>,
    batch_bytes: u64,
    dedup: DedupStats,
    recipes: Vec<Vec<RecipeEntry>>,
    /// First-stage intra-user dedup: the cloud-0 share fingerprint of every
    /// secret batched so far in this upload.
    batched: HashSet<Fingerprint>,
    /// The batch under construction. A memo hit keeps its retained chunk
    /// until a query finds one of its shares unowned; a column's share
    /// slots are emptied once that cloud has shipped them.
    batch: Vec<EncodedSecret>,
    /// Share bytes in one cloud's column of `batch`.
    batch_fill: u64,
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
            batched: HashSet::new(),
            batch: Vec::new(),
            batch_fill: 0,
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
        let share_size = self.client.scheme.share_size(enc.secret_size as usize) as u64;
        self.num_secrets += 1;
        self.file_size += enc.secret_size as u64;
        self.dedup.logical_bytes += enc.secret_size as u64;
        self.dedup.logical_share_bytes += self.client.n as u64 * share_size;
        for (recipe, &share_fingerprint) in self.recipes.iter_mut().zip(&enc.fingerprints) {
            recipe.push(RecipeEntry {
                share_fingerprint,
                secret_size: enc.secret_size,
            });
        }
        if !self.batched.insert(enc.fingerprints[0]) {
            enc.recycle(&self.pool);
            return Ok(());
        }
        self.batch.push(enc);
        self.batch_fill += share_size;
        if self.batch_fill >= self.batch_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Ships the batch: each cloud in turn queries its column and stores
    /// what the server lacks, with bounded retry-with-backoff on transient
    /// faults. The batch is then recycled.
    ///
    /// A failed `store_shares` may have taken per-upload references on shares
    /// it reached before the fault, and a blind replay would double-count
    /// them (duplicate outcomes still add references). Every retry therefore
    /// first releases the failed attempt's references and redoes the dedup
    /// query from scratch — release is a tolerant no-op for shares the
    /// attempt never reached. On a permanent failure the failing server
    /// holds no references from the batch.
    fn flush(&mut self) -> Result<(), CdStoreError> {
        let (client, servers, user) = (self.client, self.servers, self.client.user);
        for (cloud, server) in servers.iter().enumerate() {
            let (unowned, receipt) = client.retry.run(|_| {
                let unowned = self.query(cloud)?;
                let receipt = self.send(cloud, &unowned, |shares| {
                    server.store_shares(user, shares).inspect_err(|_| {
                        let sent: Vec<Fingerprint> =
                            shares.iter().map(|(m, _)| m.fingerprint).collect();
                        let _ = server.release_uploads(user, &sent);
                    })
                })?;
                Ok((unowned, receipt))
            })?;
            let sent = unowned.iter().map(|&i| self.batch[i].fingerprints[cloud]);
            self.uploaded[cloud].extend(sent);
            self.shipped(cloud, &unowned, receipt.new_bytes);
        }
        self.recycle_batch();
        Ok(())
    }

    /// The second-stage intra-user dedup query for column `cloud`: returns
    /// the indices of the batch entries whose share the server does not
    /// hold for the user. The query names every entry. A retained entry
    /// among the answers is encoded now, its `n` shares standing in for its
    /// chunk, so the clouds that ask after this one take theirs from it.
    fn query(&mut self, cloud: usize) -> Result<Vec<usize>, CdStoreError> {
        let fps: Vec<Fingerprint> = self.batch.iter().map(|e| e.fingerprints[cloud]).collect();
        let owned = self.servers[cloud].intra_user_query(self.client.user, &fps)?;
        let unowned: Vec<usize> = (owned.iter().enumerate())
            .filter_map(|(i, &owned)| (!owned).then_some(i))
            .collect();
        for &i in &unowned {
            let enc = &mut self.batch[i];
            let Some(RetainedSecret { key, mut chunk }) = enc.retained.take() else {
                continue;
            };
            enc.shares = (0..self.client.n).map(|_| self.pool.get()).collect();
            // The package is built in the chunk's own buffer.
            let member = GroupSplit {
                secret: &mut chunk,
                key: Some(&key),
                shares: &mut enc.shares,
            };
            let split = self.client.scheme.split_group(&mut [member], &mut 0);
            self.pool.put(chunk);
            if let Err(e) = split {
                self.pool.put_all(&mut enc.shares);
                return Err(e.into());
            }
            self.client.memo.note_materialised();
        }
        Ok(unowned)
    }

    /// Makes one `call` carrying column `cloud`'s shares of the entries
    /// `unowned`: the shares are moved out of their slots for the call and
    /// put back whatever it answered.
    fn send(
        &mut self,
        cloud: usize,
        unowned: &[usize],
        call: impl FnOnce(&[(ShareMetadata, Vec<u8>)]) -> Result<StoreReceipt, CdStoreError>,
    ) -> Result<StoreReceipt, CdStoreError> {
        let shares: Vec<(ShareMetadata, Vec<u8>)> = (unowned.iter())
            .map(|&i| {
                let enc = &mut self.batch[i];
                let share = std::mem::take(&mut enc.shares[cloud]);
                let meta = ShareMetadata {
                    fingerprint: enc.fingerprints[cloud],
                    share_size: share.len() as u32,
                    secret_seq: enc.seq,
                    secret_size: enc.secret_size,
                };
                (meta, share)
            })
            .collect();
        let answer = call(&shares);
        for (&i, (_, share)) in unowned.iter().zip(shares) {
            self.batch[i].shares[cloud] = share;
        }
        answer
    }

    /// Adds cloud `cloud`'s shipped column — the entries `unowned` sent,
    /// `new_bytes` of them newly stored — to the report, and recycles the
    /// column's buffers.
    fn shipped(&mut self, cloud: usize, unowned: &[usize], new_bytes: u64) {
        let transferred: u64 = (unowned.iter())
            .map(|&i| self.batch[i].shares[cloud].len() as u64)
            .sum();
        self.transferred_per_cloud[cloud] += transferred;
        self.dedup.transferred_share_bytes += transferred;
        self.batches_per_cloud[cloud] += 1;
        self.physical_per_cloud[cloud] += new_bytes;
        self.dedup.physical_share_bytes += new_bytes;
        for enc in &mut self.batch {
            if let Some(share) = enc.shares.get_mut(cloud) {
                self.pool.put(std::mem::take(share));
            }
        }
    }

    /// Empties the batch, returning every buffer it still holds to the pool.
    fn recycle_batch(&mut self) {
        self.batch_fill = 0;
        self.batch.drain(..).for_each(|enc| enc.recycle(&self.pool));
    }

    /// Stream ended cleanly: every cloud's column of the last (partial,
    /// possibly empty) batch goes through the dedup query, then rides with
    /// the cloud's recipe in one `commit_file`. The queries all run first,
    /// so a fault there leaves no cloud committed. On error the caller must
    /// still call [`StreamCommitter::abandon`].
    fn finalize(&mut self, pathname: &str) -> Result<UploadReport, CdStoreError> {
        let (client, servers) = (self.client, self.servers);
        let encoded_paths = client.encode_pathname(pathname)?;
        let mut unowned = Vec::with_capacity(client.n);
        for cloud in 0..client.n {
            unowned.push(if self.batch.is_empty() {
                Vec::new()
            } else {
                client.retry.run(|_| self.query(cloud))?
            });
        }
        for (cloud, (server, unowned)) in servers.iter().zip(unowned).enumerate() {
            let recipe = FileRecipe {
                file_size: self.file_size,
                entries: std::mem::take(&mut self.recipes[cloud]),
            };
            // Taken before the call: whether it fails or its reply is lost
            // (the file may be committed), this cloud's references are the
            // server's to settle or roll back, never the client's to release.
            // A failure leaves `uploaded` of the clouds not reached yet for
            // `abandon`; the façade replays the whole upload. The last
            // column's shares never join `uploaded`: a commit that failed
            // holds none of them, and one that succeeded holds them for its
            // recipe.
            let uploaded = std::mem::take(&mut self.uploaded[cloud]);
            let receipt = self.send(cloud, &unowned, |shares| {
                server.commit_file(
                    client.user,
                    &encoded_paths[cloud],
                    shares,
                    &recipe,
                    &uploaded,
                )
            })?;
            if !self.batch.is_empty() {
                self.shipped(cloud, &unowned, receipt.new_bytes);
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

/// A committer dropped with a batch — the last one, or one a failure
/// stopped — returns its buffers to the pool.
impl<T: ServerTransport> Drop for StreamCommitter<'_, T> {
    fn drop(&mut self) {
        self.recycle_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CdStoreServer, GcConfig, GcReport};
    use crate::transport::ServerProbe;
    use std::io::BufReader;

    fn make_servers(n: usize) -> Vec<CdStoreServer> {
        (0..n).map(CdStoreServer::new).collect()
    }

    /// Pseudo-random bytes, so FastCDC cuts variable-size chunks and no
    /// chunk repeats.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
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
    /// upload batch — never O(file) — whether the chunks are cut off a
    /// reader or arrive pre-cut, and restores byte-exact. The same bound
    /// holds when every secret is a memo hit: owned by the user on every
    /// cloud (the batch holds retained chunks), on none, or on all but one
    /// (each is encoded once, when the first cloud that lacks it queries).
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
        // A small batch so it ships many times.
        let batch_bytes: u64 = 64 * 1024;
        let data = noise(8 * 1024 * 1024);
        let chunks: Vec<Vec<u8>> = new_client(1)
            .chunker()
            .chunk(&data)
            .into_iter()
            .map(|c| c.data)
            .collect();

        for prechunked in [false, true] {
            let mut servers = make_servers(n);
            let owner = new_client(1);
            let other = new_client(2).with_memo(Arc::clone(&owner.memo));
            // (who uploads, memo hits expected, of which encoded after all,
            // the cloud whose server is first replaced by a fresh one)
            let passes = [
                ("first", &owner, 0, 0, None),
                ("again", &owner, chunks.len(), 0, None),
                ("other user", &other, chunks.len(), chunks.len(), None),
                (
                    "one fresh cloud",
                    &owner,
                    chunks.len(),
                    chunks.len(),
                    Some(0),
                ),
            ];
            for (pass, client, hits, materialised, fresh) in passes {
                if let Some(cloud) = fresh {
                    servers[cloud] = CdStoreServer::new(cloud);
                }
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
                if let Some(cloud) = fresh {
                    // Only the fresh cloud takes shares.
                    for (c, &bytes) in report.transferred_per_cloud.iter().enumerate() {
                        assert_eq!(bytes > 0, c == cloud, "prechunked={prechunked} cloud {c}");
                    }
                }

                // Buffer-count bound: the pipeline's live secrets, plus what
                // the batch can retain: `n` buffers a secret, and each secret
                // adds at least a min-chunk share to the batch's fill.
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
                // The first `k` clouds serve the restore, the fresh one among
                // them.
                assert_eq!(
                    client.download(&servers, &[true; 4], "/huge").unwrap(),
                    data
                );
            }
        }
    }

    /// An in-process server whose share-carrying calls fail permanently:
    /// every `commit_file`, and with `stores_too` every `store_shares`.
    struct Refusing {
        inner: CdStoreServer,
        stores_too: bool,
    }

    /// Not a transient class, so no retry absorbs it.
    fn refused(call: &str) -> CdStoreError {
        CdStoreError::InconsistentMetadata(format!("injected: {call} refused"))
    }

    /// Forwards the listed `ServerTransport` methods to `self.inner` unchanged.
    macro_rules! forward {
        ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
            fn $name(&self, $($arg: $ty),*) -> $ret {
                ServerTransport::$name(&self.inner, $($arg),*)
            }
        )*};
    }

    impl ServerTransport for Refusing {
        fn store_shares(
            &self,
            user: u64,
            shares: &[(ShareMetadata, Vec<u8>)],
        ) -> Result<StoreReceipt, CdStoreError> {
            if self.stores_too {
                return Err(refused("store_shares"));
            }
            self.inner.store_shares(user, shares)
        }
        fn commit_file(
            &self,
            _: u64,
            _: &[u8],
            _: &[(ShareMetadata, Vec<u8>)],
            _: &FileRecipe,
            _: &[Fingerprint],
        ) -> Result<StoreReceipt, CdStoreError> {
            Err(refused("commit_file"))
        }
        forward! {
            cloud_index() -> usize;
            intra_user_query(user: u64, fps: &[Fingerprint]) -> Result<Vec<bool>, CdStoreError>;
            put_file(user: u64, path: &[u8], recipe: &FileRecipe, uploaded: &[Fingerprint]) -> Result<(), CdStoreError>;
            release_uploads(user: u64, fps: &[Fingerprint]) -> Result<(), CdStoreError>;
            has_file(user: u64, path: &[u8]) -> Result<bool, CdStoreError>;
            get_recipe(user: u64, path: &[u8]) -> Result<FileRecipe, CdStoreError>;
            delete_file(user: u64, path: &[u8]) -> Result<bool, CdStoreError>;
            fetch_shares(user: u64, fps: &[Fingerprint]) -> Result<Vec<Vec<u8>>, CdStoreError>;
            flush() -> Result<(), CdStoreError>;
            gc_with(config: GcConfig) -> Result<GcReport, CdStoreError>;
            probe() -> Result<ServerProbe, CdStoreError>;
        }
    }

    /// A failed upload returns every buffer it took to the caller's pool,
    /// at one and two encode threads: the last batch's when `commit_file`
    /// fails, and the first batch's — the shares a failed `store_shares`
    /// carried among them — when a non-final batch cannot be stored. With a
    /// warm memo the secrets arrive as retained chunks, and the shares
    /// encoded from them for the failed call go back too.
    #[test]
    fn a_failed_upload_returns_every_buffer_to_the_pool() {
        let data = noise(1 << 20);
        for (stores_too, call) in [(false, "commit_file"), (true, "store_shares")] {
            for (encode_threads, warm) in [(1, false), (2, false), (2, true)] {
                let client = CdStoreClient::new(1, 4, 3).unwrap();
                if warm {
                    client.upload(&make_servers(4), "/warm", &data).unwrap();
                }
                let servers: Vec<Refusing> = (0..4)
                    .map(|cloud| Refusing {
                        inner: CdStoreServer::new(cloud),
                        stores_too,
                    })
                    .collect();
                let pool = Arc::new(BufferPool::new());
                let config = PipelineConfig {
                    encode_threads,
                    pool: Some(Arc::clone(&pool)),
                    memo: None,
                };
                let err = client
                    .upload_with(
                        &servers,
                        "/refused",
                        &config,
                        64 * 1024,
                        |config, committer| {
                            encode_stream(&client.scheme, client.chunker(), &data[..], config, {
                                |enc, _| committer.absorb(enc)
                            })
                        },
                    )
                    .expect_err("a refused call fails the upload");
                let case = format!("{call} refused, {encode_threads} threads, warm={warm}");
                assert!(
                    matches!(&err, CdStoreError::InconsistentMetadata(m) if m.contains(call)),
                    "{case}: {err:?}"
                );
                assert!(pool.stats().peak_outstanding > 0, "{case}");
                assert_eq!(pool.stats().outstanding, 0, "{case}");
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
