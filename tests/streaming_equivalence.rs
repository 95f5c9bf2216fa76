//! Every upload entry lands the same state, and that state is what the
//! protocol says it should be.
//!
//! The chunk-boundary contract (`ChunkCutter` decisions depend only on the
//! byte stream, never on `Read`-call slicing) plus the deterministic CAONT-RS
//! encoding mean a backup must produce the same secrets, the same shares,
//! the same dedup accounting, and the same restored bytes whether the bytes
//! dribble in through a reader or arrive as a list of pre-cut chunks — for
//! every chunking algorithm. These tests pin that down against an oracle
//! computed from the public primitives alone, and check that a failed upload
//! from either source leaks nothing.

use std::collections::HashSet;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_core::server::{GcConfig, GcReport};
use cdstore_core::{
    CdStore, CdStoreClient, CdStoreConfig, CdStoreError, CdStoreServer, DedupStats, FileRecipe,
    PipelineConfig, ServerProbe, ServerTransport, ShareMetadata, StoreReceipt,
};
use cdstore_crypto::Fingerprint;
use cdstore_secretsharing::SecretSharing;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Backup-like data: blocks of pseudo-random content where some blocks
/// repeat, so chunking and both dedup stages have real work to do.
fn backup_data(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let blocks: Vec<Vec<u8>> = (0..7)
        .map(|_| (0..4096).map(|_| rng.gen()).collect())
        .collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let b = &blocks[rng.gen_range(0..blocks.len())];
        let take = b.len().min(len - out.len());
        out.extend_from_slice(&b[..take]);
    }
    out
}

/// Hands out the underlying bytes in reads capped at `cap` bytes, so chunk
/// boundaries see every possible slicing of the stream.
struct DribbleReader<'a> {
    data: &'a [u8],
    pos: usize,
    cap: usize,
}

impl<'a> DribbleReader<'a> {
    fn new(data: &'a [u8], cap: usize) -> Self {
        DribbleReader {
            data,
            pos: 0,
            cap: cap.max(1),
        }
    }
}

impl Read for DribbleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = self.cap.min(buf.len()).min(self.data.len() - self.pos);
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// Fails with an I/O error after yielding `good` bytes of the data.
struct FailAfter<'a> {
    data: &'a [u8],
    pos: usize,
    good: usize,
}

impl Read for FailAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.good {
            return Err(std::io::Error::other("source truncated mid-backup"));
        }
        let take = buf
            .len()
            .min(self.good - self.pos)
            .min(self.data.len() - self.pos);
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// The client's in-memory chunking of `data`, as a pre-cut chunk list.
fn chunk_list(client: &CdStoreClient, data: &[u8]) -> Vec<Vec<u8>> {
    let chunks = client.chunker().chunk(data);
    chunks.into_iter().map(|c| c.data).collect()
}

fn small_chunks() -> ChunkerConfig {
    ChunkerConfig::new(512, 1024, 4096)
}

fn store_with(kind: ChunkerKind) -> CdStore {
    CdStore::new(
        CdStoreConfig::new(4, 3)
            .unwrap()
            .with_chunker(small_chunks())
            .with_chunker_kind(kind),
    )
}

/// What the first upload of `chunks` to an empty deployment must report,
/// computed from the public primitives only: split every chunk, fingerprint
/// every share, and count each cloud's distinct shares once — those bytes
/// are what intra-user dedup lets through and, the deployment being empty,
/// also what inter-user dedup stores.
fn oracle(client: &CdStoreClient, chunks: &[Vec<u8>]) -> (DedupStats, Vec<u64>) {
    let n = client.scheme().n();
    let mut seen: Vec<HashSet<Fingerprint>> = vec![HashSet::new(); n];
    let mut unique_per_cloud = vec![0u64; n];
    let mut dedup = DedupStats::new();
    for chunk in chunks {
        dedup.logical_bytes += chunk.len() as u64;
        for (cloud, share) in client.scheme().split(chunk).unwrap().iter().enumerate() {
            dedup.logical_share_bytes += share.len() as u64;
            if seen[cloud].insert(Fingerprint::of(share)) {
                unique_per_cloud[cloud] += share.len() as u64;
            }
        }
    }
    dedup.transferred_share_bytes = unique_per_cloud.iter().sum();
    dedup.physical_share_bytes = dedup.transferred_share_bytes;
    (dedup, unique_per_cloud)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary content, chunker, read-slicing, and pipeline read-buffer
    /// size: an upload through a dribbling reader and an upload of the
    /// in-memory chunking as pre-cut chunks both report exactly what the
    /// oracle computes, and both restore byte-exact.
    #[test]
    fn streamed_and_prechunked_backups_equal_the_oracle(
        seed in any::<u64>(),
        kind_index in 0usize..3,
        read_buffer in 1usize..5000,
    ) {
        let kind = ChunkerKind::ALL[kind_index];
        let data = backup_data(seed, 150_000 + (seed % 50_000) as usize);
        let read_cap = 1 + (seed % 7919) as usize;

        // Same content arrives in dribbled reads through a pipeline with an
        // arbitrary read-buffer size.
        let streamed_store = store_with(kind);
        let client = streamed_store.client(1).unwrap();
        let chunks = chunk_list(&client, &data);
        let (dedup, unique_per_cloud) = oracle(&client, &chunks);
        prop_assert!(
            dedup.transferred_share_bytes < dedup.logical_share_bytes,
            "the data must contain duplicate chunks for dedup to matter"
        );
        let config = PipelineConfig {
            read_buffer,
            ..PipelineConfig::default()
        };
        let streamed = streamed_store.with_servers(|servers| {
            client
                .upload_stream(servers, "/f", DribbleReader::new(&data, read_cap), &config)
                .unwrap()
        });
        let prechunked_store = store_with(kind);
        let prechunked = prechunked_store.backup_chunks(1, "/f", &chunks).unwrap();
        for report in [&streamed, &prechunked] {
            prop_assert_eq!(report.num_secrets, chunks.len());
            prop_assert_eq!(report.dedup, dedup);
            prop_assert_eq!(&report.transferred_per_cloud, &unique_per_cloud);
            prop_assert_eq!(&report.physical_per_cloud, &unique_per_cloud);
        }

        // Both deployments restore the original bytes — collecting wrapper
        // and explicit streamed writer alike.
        prop_assert_eq!(prechunked_store.restore(1, "/f").unwrap(), data.clone());
        let mut restored = Vec::new();
        let written = streamed_store.restore_stream(1, "/f", &mut restored).unwrap();
        prop_assert_eq!(written, data.len() as u64);
        prop_assert_eq!(restored, data);
    }

    /// Re-streaming identical content transfers zero share bytes: intra-user
    /// dedup works identically on the streamed path.
    #[test]
    fn streamed_reupload_dedups_everything(
        seed in any::<u64>(),
        kind_index in 0usize..3,
    ) {
        let kind = ChunkerKind::ALL[kind_index];
        let data = backup_data(seed, 120_000);
        let store = store_with(kind);
        let first = store.backup_stream(1, "/v1", &data[..]).unwrap();
        prop_assert!(first.dedup.transferred_share_bytes > 0);
        let second = store.backup_stream(1, "/v2", &data[..]).unwrap();
        prop_assert_eq!(second.dedup.transferred_share_bytes, 0);
        prop_assert_eq!(store.restore(1, "/v1").unwrap(), data.clone());
        prop_assert_eq!(store.restore(1, "/v2").unwrap(), data);
    }
}

/// A pre-chunked source may hand over chunks no chunker would cut — empty,
/// or far larger than the configured maximum — and they round-trip.
#[test]
fn prechunked_backup_takes_empty_and_oversized_chunks() {
    let store = store_with(ChunkerKind::Rabin);
    let max_size = small_chunks().max_size;
    let chunks = vec![
        backup_data(1, 700),
        Vec::new(),
        backup_data(2, 10 * max_size),
        Vec::new(),
        backup_data(3, 1),
    ];
    let report = store.backup_chunks(1, "/odd", &chunks).unwrap();
    assert_eq!(report.num_secrets, chunks.len());
    assert_eq!(store.restore(1, "/odd").unwrap(), chunks.concat());
}

/// A mid-stream read failure surfaces as `CdStoreError::Io`, releases all
/// transient upload state, and a retry of the same pathname succeeds.
#[test]
fn failed_streamed_backup_leaves_no_leaked_state() {
    let store = store_with(ChunkerKind::Rabin);
    let data = backup_data(7, 400_000);
    let err = store
        .backup_stream(
            1,
            "/flaky",
            FailAfter {
                data: &data,
                pos: 0,
                good: 250_000,
            },
        )
        .expect_err("truncated source must fail the backup");
    assert!(
        matches!(err, CdStoreError::Io(_)),
        "unexpected error {err:?}"
    );
    assert!(store.restore(1, "/flaky").is_err());

    // Retry with a healthy source: the abandoned upload's transient
    // references must not block or corrupt anything.
    store.backup_stream(1, "/flaky", &data[..]).unwrap();
    assert_eq!(store.restore(1, "/flaky").unwrap(), data);

    // The abandoned shares are reclaimable: delete + gc drains the backends.
    assert!(store.delete(1, "/flaky").unwrap());
    store.gc().unwrap();
    assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);
}

/// An in-process server whose `store_shares` starts losing its replies once
/// a budget of successful calls, shared by the whole deployment, is spent:
/// the server stores the batch and takes its references, the client sees an
/// error — a permanent one, or with `transient` a single retryable one
/// (the budget is unlimited afterwards).
struct LossyServer {
    inner: CdStoreServer,
    store_budget: Arc<AtomicU64>,
    transient: bool,
}

/// Forwards the listed `ServerTransport` methods to `self.inner` unchanged.
macro_rules! forward {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
        fn $name(&self, $($arg: $ty),*) -> $ret {
            ServerTransport::$name(&self.inner, $($arg),*)
        }
    )*};
}

impl ServerTransport for LossyServer {
    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError> {
        let receipt = ServerTransport::store_shares(&self.inner, user, shares)?;
        let spend = |left: u64| left.checked_sub(1);
        match self
            .store_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, spend)
        {
            Ok(_) => Ok(receipt),
            Err(_) if self.transient => {
                self.store_budget.store(u64::MAX, Ordering::SeqCst);
                Err(CdStoreError::Remote(
                    "injected: store_shares reply lost".into(),
                ))
            }
            // Not a transient class, so no retry layer absorbs it.
            Err(_) => Err(CdStoreError::InconsistentMetadata(
                "injected: store_shares reply lost".into(),
            )),
        }
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

/// A pre-chunked backup that fails after its first batch was stored — cloud
/// 0 holds a whole batch, cloud 1 stored one whose reply was lost — releases
/// all transient upload state: the retry succeeds and restores, and delete +
/// gc drains every backend.
#[test]
fn failed_prechunked_backup_leaves_no_leaked_state() {
    let store_budget = Arc::new(AtomicU64::new(1));
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_chunker(small_chunks());
    let servers = (0..4)
        .map(|cloud| LossyServer {
            inner: CdStoreServer::new(cloud),
            store_budget: Arc::clone(&store_budget),
            transient: false,
        })
        .collect();
    let store = CdStore::from_transports(config, servers).unwrap();
    let data = backup_data(11, 300_000);
    let chunks = chunk_list(&store.client(1).unwrap(), &data);

    let err = store
        .backup_chunks(1, "/flaky", &chunks)
        .expect_err("a lost store_shares reply must fail the backup");
    assert!(
        matches!(err, CdStoreError::InconsistentMetadata(_)),
        "unexpected error {err:?}"
    );
    assert_eq!(store_budget.load(Ordering::SeqCst), 0);
    assert!(store.restore(1, "/flaky").is_err());

    store_budget.store(u64::MAX, Ordering::SeqCst);
    store.backup_chunks(1, "/flaky", &chunks).unwrap();
    assert_eq!(store.restore(1, "/flaky").unwrap(), data);

    assert!(store.delete(1, "/flaky").unwrap());
    store.gc().unwrap();
    assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);
}

/// One step of the memo-transparency sequence.
enum Op {
    Backup(u64, &'static str, Vec<u8>),
    BackupChunks(u64, &'static str, Vec<Vec<u8>>),
    Delete(u64, &'static str),
    Gc,
}

/// What an [`Op`] reported, comparable across deployments.
#[derive(Debug, PartialEq)]
enum Outcome {
    Uploaded(cdstore_core::UploadReport),
    Deleted(bool),
    Collected(GcReport),
}

fn apply(store: &CdStore<Arc<CdStoreServer>>, op: &Op) -> Outcome {
    match op {
        Op::Backup(user, path, data) => Outcome::Uploaded(store.backup(*user, path, data).unwrap()),
        Op::BackupChunks(user, path, chunks) => {
            Outcome::Uploaded(store.backup_chunks(*user, path, chunks).unwrap())
        }
        Op::Delete(user, path) => Outcome::Deleted(store.delete(*user, path).unwrap()),
        Op::Gc => Outcome::Collected(store.gc().unwrap()),
    }
}

/// The share-fingerprint memo is invisible: the same operations through one
/// long-lived handle (whose memo recognises nearly everything after the
/// first backup) and through a fresh handle per operation (whose memo knows
/// nothing) report the same, leave byte-identical objects on the backends —
/// containers, recipes and journal alike — and restore the same bytes.
#[test]
fn a_warm_memo_and_a_cold_one_land_identical_state() {
    for (seed, kind) in [(31u64, ChunkerKind::FastCdc), (32, ChunkerKind::Rabin)] {
        let config = CdStoreConfig::new(4, 3)
            .unwrap()
            .with_chunker(small_chunks())
            .with_chunker_kind(kind);
        // Intra-file duplicates (backup_data repeats seven blocks); `edited`
        // shares most chunks with `base` across files.
        let base = backup_data(seed, 200_000);
        let mut edited = base.clone();
        edited[60_000..64_000].fill(0x5a);
        edited.extend_from_slice(&backup_data(seed + 100, 40_000));
        let edited_chunks = chunk_list(
            &CdStoreClient::with_chunker_kind(1, 4, 3, kind, small_chunks()).unwrap(),
            &edited,
        );
        let ops = [
            Op::Backup(1, "/a", base.clone()),
            Op::Backup(1, "/b", edited.clone()),
            // Two users sharing content: recognised, not owned.
            Op::Backup(2, "/a", base.clone()),
            Op::Delete(1, "/a"),
            Op::Gc,
            // Re-backup: owned where `/b` still references it, not elsewhere.
            Op::Backup(1, "/a", base.clone()),
            Op::Delete(1, "/a"),
            Op::Delete(1, "/b"),
            Op::Delete(2, "/a"),
            Op::Gc,
            // Every server is empty again; the warm memo still knows it all.
            Op::Backup(1, "/c", base.clone()),
            Op::BackupChunks(2, "/c", edited_chunks),
            Op::Backup(1, "/a", base.clone()),
        ];

        let deployment = || {
            let backends: Vec<Arc<cdstore_storage::MemoryBackend>> =
                (0..4).map(|_| Default::default()).collect();
            let servers: Vec<Arc<CdStoreServer>> = backends
                .iter()
                .enumerate()
                .map(|(cloud, backend)| {
                    Arc::new(CdStoreServer::with_backend(cloud, backend.clone()))
                })
                .collect();
            (backends, servers)
        };
        let (warm_backends, warm_servers) = deployment();
        let (cold_backends, cold_servers) = deployment();
        let warm = CdStore::from_transports(config, warm_servers).unwrap();
        let cold = || CdStore::from_transports(config, cold_servers.clone()).unwrap();
        for (step, op) in ops.iter().enumerate() {
            assert_eq!(
                apply(&warm, op),
                apply(&cold(), op),
                "seed {seed} step {step}"
            );
        }
        warm.flush().unwrap();
        cold().flush().unwrap();

        let stats = warm.stats();
        assert!(stats.memo_hits > 3 * stats.memo_misses, "{stats:?}");
        assert!(stats.memo_materialised > stats.memo_misses, "{stats:?}");

        use cdstore_storage::StorageBackend;
        for (cloud, (a, b)) in warm_backends.iter().zip(&cold_backends).enumerate() {
            let keys = a.list().unwrap();
            assert_eq!(keys, b.list().unwrap(), "cloud {cloud}");
            assert!(!keys.is_empty());
            for key in keys {
                assert!(
                    a.get(&key).unwrap() == b.get(&key).unwrap(),
                    "cloud {cloud} {key}"
                );
            }
        }
        for (user, path, data) in [(1, "/c", &base), (2, "/c", &edited), (1, "/a", &base)] {
            assert_eq!(&warm.restore(user, path).unwrap(), data);
            assert_eq!(&cold().restore(user, path).unwrap(), data);
        }
    }
}

/// A transient `store_shares` fault on a batch of memo hits the server did
/// not own — shares encoded for this very transfer — is retried with the
/// encoded shares put back: nothing is encoded twice, the report is what a
/// clean run gives, and the lost reply's references are released.
#[test]
fn a_retried_batch_of_materialised_secrets_encodes_once_and_leaks_nothing() {
    let config = CdStoreConfig::new(4, 3)
        .unwrap()
        .with_chunker(small_chunks());
    let data = backup_data(13, 300_000);
    let run = |budget: u64| {
        let store_budget = Arc::new(AtomicU64::new(budget));
        let servers = (0..4)
            .map(|cloud| LossyServer {
                inner: CdStoreServer::new(cloud),
                store_budget: Arc::clone(&store_budget),
                transient: true,
            })
            .collect();
        let store = CdStore::from_transports(config, servers).unwrap();
        // User 1's backup fills the memo (4 store calls); user 2's backup of
        // the same bytes is all memo hits no server owns.
        let first = store.backup(1, "/a", &data).unwrap();
        let materialised_before = store.stats().memo_materialised;
        let second = store.backup(2, "/b", &data).unwrap();
        let materialised = store.stats().memo_materialised - materialised_before;
        (store, store_budget, first, second, materialised)
    };
    let (_, _, clean_first, clean_second, clean_materialised) = run(u64::MAX);
    // The sixth store call — user 2's batch on cloud 1 — loses its reply.
    let (store, budget, first, second, materialised) = run(5);
    assert!(
        budget.load(Ordering::SeqCst) > 5,
        "the fault must have fired"
    );
    assert_eq!((&first, &second), (&clean_first, &clean_second));
    // Each distinct secret of user 2's backup was encoded exactly once.
    let distinct: HashSet<Vec<u8>> = chunk_list(&store.client(2).unwrap(), &data)
        .into_iter()
        .collect();
    assert_eq!(materialised, distinct.len() as u64);
    assert_eq!(clean_materialised, distinct.len() as u64);
    assert_eq!(store.restore(2, "/b").unwrap(), data);

    // No reference outlives the files: delete + gc drains every backend.
    assert!(store.delete(1, "/a").unwrap());
    assert!(store.delete(2, "/b").unwrap());
    store.flush().unwrap();
    store.gc().unwrap();
    assert_eq!(store.stats().backend_bytes.iter().sum::<u64>(), 0);
}

/// `CdStore::backup` (slice wrapper) and `CdStore::backup_stream` land
/// identical state — a slice really is just one shape of `Read` source.
#[test]
fn wrapper_and_streaming_facade_apis_agree() {
    let data = backup_data(21, 200_000);
    let via_slice = store_with(ChunkerKind::FastCdc);
    let a = via_slice.backup(1, "/f", &data).unwrap();
    let via_stream = store_with(ChunkerKind::FastCdc);
    let b = via_stream.backup_stream(1, "/f", &data[..]).unwrap();
    assert_eq!(a.num_secrets, b.num_secrets);
    assert_eq!(a.dedup, b.dedup);
    assert_eq!(via_slice.restore(1, "/f").unwrap(), data);
    assert_eq!(via_stream.restore(1, "/f").unwrap(), data);
}
