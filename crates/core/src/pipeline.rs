//! The client's encode pipeline (§4.6): chunk → CAONT-RS encode on a pool
//! of coding threads → in-order sink.
//!
//! The CDStore client parallelises the CPU-intensive CAONT-RS operations at
//! the secret level: each secret produced by the chunking module is handed to
//! one of a pool of coding threads. There is one encode body, fed by a chunk
//! *source* — anything that fills a pooled buffer with the next chunk:
//!
//! * [`encode_stream`] cuts chunks straight off an [`std::io::Read`] with a
//!   [`ChunkStream`];
//! * [`encode_chunks`] walks a slice of chunks whose boundaries the caller
//!   already fixed (the trace-driven experiments of §5.2).
//!
//! Either way the stages are connected by bounded queues, so encoding of
//! chunk *i+1* overlaps the store RPC for chunk *i* and peak memory is set by
//! [`PipelineConfig`] depths rather than input size. Chunk and share buffers
//! cycle through a [`BufferPool`], making the steady state allocation-free.

use std::collections::BTreeMap;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, OnceLock};

use cdstore_chunking::{ChunkStream, Chunker};
use cdstore_crypto::Fingerprint;
use cdstore_secretsharing::{BufferPool, SecretSharing, SharingError};
use parking_lot::Mutex;

use crate::error::CdStoreError;
use crate::memo::ShareMemo;

/// Shape of the streaming encode pipeline: worker count and queue depths.
///
/// The queue depths are the memory bound: at most
/// [`max_live_secrets`](PipelineConfig::max_live_secrets) secrets (each one
/// chunk buffer plus `n` share buffers) are alive inside the pipeline at any
/// instant, enforced with a ticket window between the chunker and the
/// in-order sink.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of CAONT-RS encode workers (clamped to at least 1).
    pub encode_threads: usize,
    /// Bounded-queue depth between the chunker and the encode workers.
    pub chunk_queue: usize,
    /// Bounded-queue depth between the encode workers and the in-order sink.
    pub encoded_queue: usize,
    /// Read-buffer size handed to [`ChunkStream`].
    pub read_buffer: usize,
    /// Buffer pool shared by chunk and share buffers. `None` lets the
    /// pipeline create a private pool; pass an explicit pool to observe
    /// reuse/peak counters or share buffers across uploads.
    pub pool: Option<Arc<BufferPool>>,
    /// Share-fingerprint memo consulted per secret (see [`ShareMemo`]).
    /// `None` encodes every secret in full; with a memo, a secret whose key
    /// it holds comes out as its fingerprints plus the retained chunk
    /// ([`EncodedSecret::retained`]) and no shares.
    pub memo: Option<Arc<ShareMemo>>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        // Resolved once: on Linux every `available_parallelism` call re-reads
        // the affinity mask and the cgroup files (~12 µs), and a default
        // config is built per backup call.
        static ENCODE_THREADS: OnceLock<usize> = OnceLock::new();
        PipelineConfig {
            encode_threads: *ENCODE_THREADS.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .min(8)
            }),
            chunk_queue: 8,
            encoded_queue: 8,
            read_buffer: 64 * 1024,
            pool: None,
            memo: None,
        }
    }
}

impl PipelineConfig {
    /// Upper bound on secrets simultaneously alive inside the pipeline: one
    /// being cut, the two queues, one per worker, and one at the sink.
    pub fn max_live_secrets(&self) -> usize {
        self.chunk_queue + self.encoded_queue + self.encode_threads.max(1) + 2
    }

    /// Upper bound on pool buffers simultaneously checked out by the
    /// pipeline itself (excluding any the sink retains): each live secret
    /// holds one chunk buffer and `n` share buffers.
    pub fn max_live_buffers(&self, n: usize) -> usize {
        self.max_live_secrets() * (n + 1)
    }
}

/// One secret after the encode stage: its `n` shares (index `i` = cloud `i`)
/// and their fingerprints, tagged with the chunk sequence number.
///
/// The share buffers come from the pipeline's [`BufferPool`]; the sink must
/// return them (e.g. [`BufferPool::put_all`]) once consumed, or reuse stops.
#[derive(Debug)]
pub struct EncodedSecret {
    /// Position of the source chunk in the input stream (0-based).
    pub seq: u64,
    /// Size of the source chunk in bytes.
    pub secret_size: u32,
    /// The `n` encoded shares — or none, when `retained` is set.
    pub shares: Vec<Vec<u8>>,
    /// `Fingerprint::of` each share, computed on the worker or recalled
    /// from the [`ShareMemo`].
    pub fingerprints: Vec<Fingerprint>,
    /// Set on a memo hit instead of `shares`: the secret itself, from which
    /// the sink can still produce the shares should it need them. Always
    /// `None` when [`PipelineConfig::memo`] is.
    pub retained: Option<RetainedSecret>,
}

/// A secret whose shares were not produced because their fingerprints were
/// memoised: the chunk in a pooled buffer (the sink returns it) and the key
/// [`SecretSharing::split_into_keyed`] takes.
pub struct RetainedSecret {
    /// The secret's [`SecretSharing::convergent_key`].
    pub key: [u8; 32],
    /// The source chunk.
    pub chunk: Vec<u8>,
}

/// Sizes only: the key is key material and the chunk is plaintext.
impl std::fmt::Debug for RetainedSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RetainedSecret({} bytes)", self.chunk.len())
    }
}

impl EncodedSecret {
    /// Returns every pooled buffer the secret holds to `pool`.
    pub fn recycle(self, pool: &BufferPool) {
        let mut shares = self.shares;
        pool.put_all(&mut shares);
        if let Some(retained) = self.retained {
            pool.put(retained.chunk);
        }
    }
}

/// Totals returned by a completed [`encode_stream`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeStreamReport {
    /// Number of secrets (chunks) cut and encoded.
    pub num_secrets: u64,
    /// Total bytes read from the source.
    pub logical_bytes: u64,
}

/// Message from the encode workers to the in-order sink loop.
type EncodedMessage = Result<EncodedSecret, SharingError>;

/// The chunk queue's receive side, shared by the encode workers.
type SharedChunkReceiver = Arc<Mutex<Receiver<(u64, Vec<u8>)>>>;

/// Streams `reader` through chunk → encode → sink with bounded memory.
///
/// A chunker thread cuts chunks into pooled buffers and feeds a bounded
/// queue; `encode_threads` workers pull chunks, run
/// [`SecretSharing::split_into`] into pooled share buffers, fingerprint the
/// shares, and feed a second bounded queue; the calling thread reorders by
/// sequence number and hands each [`EncodedSecret`] to `sink` in input
/// order. The sink overlaps whatever it does (batching, store RPCs) with the
/// encoding of later chunks — the pipelining that lets CPU and network run
/// concurrently.
///
/// Error handling: the first failure anywhere — a read error, an encode
/// error, a worker panic (surfaced as [`SharingError::WorkerPanic`]), or a
/// sink error — aborts the pipeline promptly; in-flight buffers drain back
/// to the pool and the error is returned. On success the sink has seen every
/// secret exactly once, in order.
///
/// With `encode_threads <= 1` there is no parallelism to exploit, so the
/// stages run inline on the calling thread (same semantics, no channel or
/// context-switch cost).
pub fn encode_stream<R: Read + Send>(
    scheme: &(dyn SecretSharing + Sync),
    chunker: &dyn Chunker,
    reader: R,
    config: &PipelineConfig,
    sink: impl FnMut(EncodedSecret, &BufferPool) -> Result<(), CdStoreError>,
) -> Result<EncodeStreamReport, CdStoreError> {
    // The chunker is only borrowed to build the stream; the stream itself
    // (cutter + reader) moves into the source.
    let mut chunk_stream =
        ChunkStream::with_buffer_size(chunker, reader, config.read_buffer.max(1));
    encode_from(
        scheme,
        move |buf| chunk_stream.next_chunk_into(buf),
        config,
        sink,
    )
}

/// [`encode_stream`] over chunks whose boundaries are already fixed: each
/// element of `chunks` becomes one secret, in order, through the same
/// pipeline with the same bounds and error handling. Chunks may be empty or
/// of any size; no chunker is involved.
pub fn encode_chunks(
    scheme: &(dyn SecretSharing + Sync),
    chunks: &[Vec<u8>],
    config: &PipelineConfig,
    sink: impl FnMut(EncodedSecret, &BufferPool) -> Result<(), CdStoreError>,
) -> Result<EncodeStreamReport, CdStoreError> {
    let mut remaining = chunks.iter();
    encode_from(
        scheme,
        move |buf| match remaining.next() {
            Some(chunk) => {
                buf.clear();
                buf.extend_from_slice(chunk);
                Ok(true)
            }
            None => Ok(false),
        },
        config,
        sink,
    )
}

/// The encode body behind [`encode_stream`] and [`encode_chunks`].
/// `next_chunk` is the chunk source: it overwrites the pooled buffer it is
/// given with the next chunk and returns `Ok(false)` at end of input.
fn encode_from(
    scheme: &(dyn SecretSharing + Sync),
    mut next_chunk: impl FnMut(&mut Vec<u8>) -> std::io::Result<bool> + Send,
    config: &PipelineConfig,
    mut sink: impl FnMut(EncodedSecret, &BufferPool) -> Result<(), CdStoreError>,
) -> Result<EncodeStreamReport, CdStoreError> {
    let pool = config
        .pool
        .clone()
        .unwrap_or_else(|| Arc::new(BufferPool::new()));
    let memo = config.memo.as_deref();
    let threads = config.encode_threads.max(1);
    if threads == 1 {
        return encode_inline(scheme, next_chunk, &pool, memo, &mut sink);
    }
    let abort = AtomicBool::new(false);

    let (chunk_tx, chunk_rx) = sync_channel::<(u64, Vec<u8>)>(config.chunk_queue.max(1));
    let chunk_rx: SharedChunkReceiver = Arc::new(Mutex::new(chunk_rx));
    let (enc_tx, enc_rx) = sync_channel::<EncodedMessage>(config.encoded_queue.max(1));
    // Ticket window capping secrets alive between the chunker and the sink.
    let (ticket_tx, ticket_rx) = sync_channel::<()>(config.max_live_secrets());

    let mut result: Result<(), CdStoreError> = Ok(());
    let mut report = EncodeStreamReport {
        num_secrets: 0,
        logical_bytes: 0,
    };

    std::thread::scope(|scope| {
        // --- Stage 1: the chunker thread. ---
        let chunker_handle = scope.spawn({
            let pool = Arc::clone(&pool);
            let abort = &abort;
            move || -> std::io::Result<()> {
                let mut seq = 0u64;
                loop {
                    if abort.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    // Acquire a ticket first: blocks while the pipeline is
                    // full, errors when the sink loop has torn the window
                    // down (abort) — either way no unbounded buffering.
                    if ticket_tx.send(()).is_err() {
                        return Ok(());
                    }
                    let mut buf = pool.get();
                    match next_chunk(&mut buf) {
                        Ok(true) => {
                            if chunk_tx.send((seq, buf)).is_err() {
                                return Ok(()); // workers gone: abort path
                            }
                            seq += 1;
                        }
                        Ok(false) => {
                            pool.put(buf);
                            return Ok(());
                        }
                        Err(e) => {
                            pool.put(buf);
                            return Err(e);
                        }
                    }
                }
                // chunk_tx drops here, disconnecting the workers.
            }
        });

        // --- Stage 2: the encode workers. ---
        for _ in 0..threads {
            let chunk_rx = Arc::clone(&chunk_rx);
            let enc_tx = enc_tx.clone();
            let pool = Arc::clone(&pool);
            let abort = &abort;
            scope.spawn(move || {
                loop {
                    let msg = chunk_rx.lock().recv();
                    let (seq, mut chunk) = match msg {
                        Ok(item) => item,
                        Err(_) => return, // chunker done or aborted
                    };
                    if abort.load(Ordering::Acquire) {
                        // Keep draining so a full queue never wedges the
                        // chunker; just recycle the buffers.
                        pool.put(chunk);
                        continue;
                    }
                    let message = encode_one(scheme, &pool, memo, seq, &mut chunk);
                    pool.put(chunk);
                    if enc_tx.send(message).is_err() {
                        return; // sink loop gone
                    }
                }
            });
        }
        // The sink loop must observe disconnect once the workers finish.
        drop(enc_tx);

        // --- Stage 3: reorder by sequence and sink in input order. ---
        let mut next_seq = 0u64;
        let mut out_of_order: BTreeMap<u64, EncodedSecret> = BTreeMap::new();
        // Hold the ticket receiver in an Option so the abort path can drop
        // it, which unblocks/terminates the chunker's ticket acquisition.
        let mut window = Some(ticket_rx);
        for message in enc_rx.iter() {
            if result.is_err() {
                // Drain mode: recycle buffers until the workers exit.
                if let Ok(enc) = message {
                    enc.recycle(&pool);
                }
                continue;
            }
            match message {
                Ok(enc) => {
                    out_of_order.insert(enc.seq, enc);
                    while let Some(enc) = out_of_order.remove(&next_seq) {
                        report.logical_bytes += enc.secret_size as u64;
                        match sink(enc, &pool) {
                            Ok(()) => {
                                next_seq += 1;
                                // One ticket per sunk secret; its token was
                                // deposited before the chunk was cut, so
                                // this never blocks.
                                if let Some(rx) = &window {
                                    let _ = rx.recv();
                                }
                            }
                            Err(e) => {
                                result = Err(e);
                                abort.store(true, Ordering::Release);
                                window = None;
                                break;
                            }
                        }
                    }
                }
                Err(e) => {
                    result = Err(e.into());
                    abort.store(true, Ordering::Release);
                    window = None;
                }
            }
        }
        // Return any still-buffered out-of-order secrets (error paths).
        for (_, enc) in out_of_order {
            enc.recycle(&pool);
        }
        report.num_secrets = next_seq;

        // Surface a chunker I/O failure unless an earlier error already won.
        match chunker_handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(io_err)) => {
                if result.is_ok() {
                    result = Err(io_err.into());
                }
            }
            Err(payload) => {
                if result.is_ok() {
                    result = Err(panic_error(payload).into());
                }
            }
        }
    });

    result.map(|()| report)
}

/// The single-threaded mode of [`encode_from`]: chunk → encode → sink run
/// inline with one reused chunk buffer, preserving the threaded mode's
/// semantics (in-order delivery, pooled buffers, typed errors) without any
/// cross-thread handoffs.
fn encode_inline(
    scheme: &(dyn SecretSharing + Sync),
    mut next_chunk: impl FnMut(&mut Vec<u8>) -> std::io::Result<bool>,
    pool: &BufferPool,
    memo: Option<&ShareMemo>,
    sink: &mut impl FnMut(EncodedSecret, &BufferPool) -> Result<(), CdStoreError>,
) -> Result<EncodeStreamReport, CdStoreError> {
    let mut report = EncodeStreamReport {
        num_secrets: 0,
        logical_bytes: 0,
    };
    let mut chunk = pool.get();
    let result = loop {
        match next_chunk(&mut chunk) {
            Ok(true) => {}
            Ok(false) => break Ok(report),
            Err(e) => break Err(e.into()),
        }
        let enc = match encode_one(scheme, pool, memo, report.num_secrets, &mut chunk) {
            Ok(enc) => enc,
            Err(e) => break Err(e.into()),
        };
        report.logical_bytes += enc.secret_size as u64;
        report.num_secrets += 1;
        if let Err(e) = sink(enc, pool) {
            break Err(e);
        }
    };
    pool.put(chunk);
    result
}

/// Encodes one chunk into `n` pooled share buffers and fingerprints them
/// (all `n` in one batch, so the multi-lane SHA-256 path can interleave
/// them) — unless `memo` already holds the fingerprints for the chunk's
/// convergent key: then no share is produced and the chunk itself moves into
/// the result, `chunk` being left a fresh pooled buffer. A miss splits with
/// the key it looked up, so no byte is hashed twice, and memoises the
/// result. A panicking scheme must fail the upload, not the process: the
/// crate forbids unsafe code and the closure only touches owned data, so
/// unwinding here is benign and surfaces as [`SharingError::WorkerPanic`].
fn encode_one(
    scheme: &(dyn SecretSharing + Sync),
    pool: &BufferPool,
    memo: Option<&ShareMemo>,
    seq: u64,
    chunk: &mut Vec<u8>,
) -> Result<EncodedSecret, SharingError> {
    catch_unwind(AssertUnwindSafe(|| {
        let secret_size = chunk.len() as u32;
        let keyed = memo.and_then(|memo| Some((memo, scheme.convergent_key(chunk)?)));
        if let Some((memo, key)) = &keyed {
            if let Some(fingerprints) = memo.lookup(key) {
                return Ok(EncodedSecret {
                    seq,
                    secret_size,
                    shares: Vec::new(),
                    fingerprints,
                    retained: Some(RetainedSecret {
                        key: *key,
                        chunk: std::mem::replace(chunk, pool.get()),
                    }),
                });
            }
        }
        let mut shares: Vec<Vec<u8>> = (0..scheme.n()).map(|_| pool.get()).collect();
        let split = match &keyed {
            Some((_, key)) => scheme.split_into_keyed(chunk, key, &mut shares),
            None => scheme.split_into(chunk, &mut shares),
        };
        match split {
            Ok(()) => {
                let refs: Vec<&[u8]> = shares.iter().map(|s| s.as_slice()).collect();
                let fingerprints = Fingerprint::of_batch(&refs);
                if let Some((memo, key)) = &keyed {
                    memo.insert(key, &fingerprints);
                }
                Ok(EncodedSecret {
                    seq,
                    secret_size,
                    shares,
                    fingerprints,
                    retained: None,
                })
            }
            Err(e) => {
                pool.put_all(&mut shares);
                Err(e)
            }
        }
    }))
    .unwrap_or_else(|payload| Err(panic_error(payload)))
}

/// Converts a worker thread's panic payload into a [`SharingError`],
/// preserving `panic!` string messages where possible.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> SharingError {
    let message = payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string());
    SharingError::WorkerPanic(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_secretsharing::CaontRs;

    fn secrets(count: usize) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| (0..2048usize).map(|j| ((i * 31 + j) % 256) as u8).collect())
            .collect()
    }

    /// Runs [`encode_chunks`] on `threads` workers and collects every
    /// secret's shares in sink order, checking the pool drains on success.
    fn encode_all(
        scheme: &(dyn SecretSharing + Sync),
        chunks: &[Vec<u8>],
        threads: usize,
    ) -> Result<Vec<Vec<Vec<u8>>>, CdStoreError> {
        let pool = Arc::new(BufferPool::new());
        let config = PipelineConfig {
            encode_threads: threads,
            ..test_pipeline_config(Arc::clone(&pool))
        };
        let mut out = Vec::new();
        let report = encode_chunks(scheme, chunks, &config, |mut enc, pool| {
            assert_eq!(enc.seq, out.len() as u64, "sink saw secrets out of order");
            assert_eq!(enc.secret_size as usize, chunks[out.len()].len());
            out.push(enc.shares.clone());
            pool.put_all(&mut enc.shares);
            Ok(())
        })?;
        assert_eq!(report.num_secrets, chunks.len() as u64);
        assert_eq!(
            report.logical_bytes,
            chunks.iter().map(|c| c.len() as u64).sum::<u64>()
        );
        assert_eq!(pool.stats().outstanding, 0, "buffers leaked");
        Ok(out)
    }

    #[test]
    fn parallel_encoding_matches_sequential() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let batch = secrets(37);
        let sequential = encode_all(&scheme, &batch, 1).unwrap();
        let expected: Vec<Vec<Vec<u8>>> = batch.iter().map(|s| scheme.split(s).unwrap()).collect();
        assert_eq!(sequential, expected);
        for threads in [2, 3, 4, 8] {
            let parallel = encode_all(&scheme, &batch, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let scheme = CaontRs::new(4, 3).unwrap();
        for threads in [1, 4] {
            assert!(encode_all(&scheme, &[], threads).unwrap().is_empty());
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let scheme = CaontRs::new(4, 3).unwrap();
        assert_eq!(encode_all(&scheme, &secrets(3), 16).unwrap().len(), 3);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let scheme = CaontRs::new(4, 3).unwrap();
        assert_eq!(encode_all(&scheme, &secrets(2), 0).unwrap().len(), 2);
    }

    /// A scheme that fails to split any secret whose first byte is the
    /// poison marker — with a typed error, or by panicking — for exercising
    /// the partial-failure and worker-panic paths.
    struct FaultyScheme {
        inner: CaontRs,
        panics: bool,
    }

    const POISON: u8 = 0xFF;

    fn poison_scheme() -> FaultyScheme {
        FaultyScheme {
            inner: CaontRs::new(4, 3).unwrap(),
            panics: false,
        }
    }

    fn panic_scheme() -> FaultyScheme {
        FaultyScheme {
            panics: true,
            ..poison_scheme()
        }
    }

    impl SecretSharing for FaultyScheme {
        fn name(&self) -> &'static str {
            "faulty"
        }

        fn n(&self) -> usize {
            self.inner.n()
        }

        fn k(&self) -> usize {
            self.inner.k()
        }

        fn confidentiality_degree(&self) -> usize {
            self.inner.confidentiality_degree()
        }

        fn total_share_size(&self, secret_len: usize) -> usize {
            self.inner.total_share_size(secret_len)
        }

        fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
            if secret.first() == Some(&POISON) {
                if self.panics {
                    panic!("injected worker panic");
                }
                return Err(SharingError::InvalidParameters("poisoned secret".into()));
            }
            self.inner.split(secret)
        }

        fn reconstruct(
            &self,
            shares: &[Option<Vec<u8>>],
            secret_len: usize,
        ) -> Result<Vec<u8>, SharingError> {
            self.inner.reconstruct(shares, secret_len)
        }
    }

    #[test]
    fn one_failing_secret_mid_batch_fails_the_whole_batch() {
        let scheme = poison_scheme();
        let mut batch = secrets(24);
        batch[13][0] = POISON;
        for threads in [1, 2, 4, 8] {
            let err =
                encode_all(&scheme, &batch, threads).expect_err("poisoned batch must not encode");
            assert!(
                matches!(
                    err,
                    CdStoreError::Sharing(SharingError::InvalidParameters(_))
                ),
                "threads={threads}: unexpected error {err:?}"
            );
        }
        // The same batch without the poisoned secret encodes fine, so the
        // failure above really came from the one bad item.
        batch.remove(13);
        assert!(encode_all(&scheme, &batch, 4).is_ok());
    }

    #[test]
    fn worker_panic_surfaces_as_a_sharing_error() {
        let scheme = panic_scheme();
        let mut batch = secrets(24);
        batch[13][0] = POISON;
        for threads in [1, 2, 4, 8] {
            let err = encode_all(&scheme, &batch, threads)
                .expect_err("a panicking worker must fail the batch, not the process");
            match err {
                CdStoreError::Sharing(SharingError::WorkerPanic(msg)) => {
                    assert!(msg.contains("injected worker panic"), "message: {msg}")
                }
                other => panic!("threads={threads}: unexpected error {other:?}"),
            }
        }
        // The same scheme still works on a clean batch afterwards.
        batch.remove(13);
        assert!(encode_all(&scheme, &batch, 4).is_ok());
    }

    #[test]
    fn more_threads_than_items_matches_sequential_output() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let batch = secrets(2);
        // 16 threads for 2 secrets: the idle workers must not disturb the
        // output, which is identical, element for element, to sequential.
        assert_eq!(
            encode_all(&scheme, &batch, 16).unwrap(),
            encode_all(&scheme, &batch, 1).unwrap()
        );
    }

    #[test]
    fn single_item_batch_encodes_on_many_threads() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let encoded = encode_all(&scheme, &secrets(1), 8).unwrap();
        assert_eq!(encoded.len(), 1);
        assert_eq!(encoded[0].len(), 4);
    }

    // ---- encode_stream ----

    use cdstore_chunking::{ChunkerConfig, ChunkerKind};

    /// Deterministic pseudo-random bytes so the Rabin/FastCDC chunkers cut
    /// realistic variable-size chunks.
    fn stream_data(len: usize) -> Vec<u8> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    fn small_chunk_config() -> ChunkerConfig {
        ChunkerConfig {
            min_size: 512,
            avg_size: 1024,
            max_size: 4096,
        }
    }

    fn test_pipeline_config(pool: Arc<BufferPool>) -> PipelineConfig {
        PipelineConfig {
            encode_threads: 3,
            chunk_queue: 4,
            encoded_queue: 4,
            read_buffer: 777, // deliberately odd: boundaries must not care
            pool: Some(pool),
            memo: None,
        }
    }

    #[test]
    fn encode_stream_matches_buffered_split_for_every_chunker() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let data = stream_data(200 * 1024);
        for kind in ChunkerKind::ALL {
            let chunker = kind.build(small_chunk_config());
            let expected_chunks = chunker.chunk(&data);
            let pool = Arc::new(BufferPool::new());
            let mut streamed: Vec<EncodedSecret> = Vec::new();
            let report = encode_stream(
                &scheme,
                chunker.as_ref(),
                &data[..],
                &test_pipeline_config(Arc::clone(&pool)),
                |mut enc, pool| {
                    let shares = enc.shares.clone();
                    pool.put_all(&mut enc.shares);
                    enc.shares = shares;
                    streamed.push(enc);
                    Ok(())
                },
            )
            .unwrap();

            assert_eq!(report.num_secrets, expected_chunks.len() as u64);
            assert_eq!(report.logical_bytes, data.len() as u64);
            let mut offset = 0usize;
            for (i, (enc, chunk)) in streamed.iter().zip(&expected_chunks).enumerate() {
                assert_eq!(
                    enc.seq,
                    i as u64,
                    "{}: sink saw secrets out of order",
                    kind.name()
                );
                assert_eq!(enc.secret_size as usize, chunk.data.len());
                let expected_shares = scheme.split(&chunk.data).unwrap();
                assert_eq!(
                    enc.shares,
                    expected_shares,
                    "{}: share mismatch at {i}",
                    kind.name()
                );
                let expected_fps: Vec<Fingerprint> =
                    expected_shares.iter().map(|s| Fingerprint::of(s)).collect();
                assert_eq!(enc.fingerprints, expected_fps);
                offset += chunk.data.len();
            }
            assert_eq!(offset, data.len());
            assert_eq!(
                pool.stats().outstanding,
                0,
                "{}: buffers leaked",
                kind.name()
            );
        }
    }

    #[test]
    fn encode_stream_live_buffers_bounded_by_pipeline_depth_not_file_size() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let chunker = ChunkerKind::FastCdc.build(small_chunk_config());
        let pool = Arc::new(BufferPool::new());
        let config = test_pipeline_config(Arc::clone(&pool));
        // ~1 MiB at ~1 KiB chunks: ~1000 secrets, far above max_live_secrets.
        let data = stream_data(1024 * 1024);
        let report = encode_stream(
            &scheme,
            chunker.as_ref(),
            &data[..],
            &config,
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                Ok(())
            },
        )
        .unwrap();
        assert!(
            report.num_secrets as usize > 4 * config.max_live_secrets(),
            "need far more chunks ({}) than the window to make the bound meaningful",
            report.num_secrets
        );
        let stats = pool.stats();
        assert!(
            stats.peak_outstanding <= config.max_live_buffers(scheme.n()),
            "peak live buffers {} exceeded the pipeline bound {}",
            stats.peak_outstanding,
            config.max_live_buffers(scheme.n())
        );
        assert_eq!(stats.outstanding, 0);
        assert!(
            stats.reuses > stats.allocations,
            "steady state must be dominated by reuse (allocs={}, reuses={})",
            stats.allocations,
            stats.reuses
        );
    }

    #[test]
    fn encode_stream_propagates_scheme_errors_and_returns_buffers() {
        let scheme = poison_scheme();
        let chunker = ChunkerKind::Fixed.build(small_chunk_config());
        let mut data = stream_data(64 * 1024);
        data[20 * 1024] = POISON; // first byte of some mid-stream chunk
        let pool = Arc::new(BufferPool::new());
        let err = encode_stream(
            &scheme,
            chunker.as_ref(),
            &data[..],
            &test_pipeline_config(Arc::clone(&pool)),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                Ok(())
            },
        )
        .expect_err("poisoned chunk must fail the stream");
        assert!(
            matches!(
                err,
                CdStoreError::Sharing(SharingError::InvalidParameters(_))
            ),
            "unexpected error {err:?}"
        );
        assert_eq!(
            pool.stats().outstanding,
            0,
            "error path must drain the pool"
        );
    }

    #[test]
    fn encode_stream_surfaces_worker_panics_as_typed_errors() {
        let scheme = panic_scheme();
        let chunker = ChunkerKind::Fixed.build(small_chunk_config());
        let mut data = stream_data(64 * 1024);
        data[32 * 1024] = POISON;
        let err = encode_stream(
            &scheme,
            chunker.as_ref(),
            &data[..],
            &PipelineConfig::default(),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                Ok(())
            },
        )
        .expect_err("a panicking worker must fail the stream, not the process");
        match err {
            CdStoreError::Sharing(SharingError::WorkerPanic(msg)) => {
                assert!(msg.contains("injected worker panic"), "message: {msg}")
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn encode_stream_aborts_promptly_on_sink_error() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let chunker = ChunkerKind::Fixed.build(small_chunk_config());
        let data = stream_data(512 * 1024);
        let pool = Arc::new(BufferPool::new());
        let mut sunk = 0u64;
        let err = encode_stream(
            &scheme,
            chunker.as_ref(),
            &data[..],
            &test_pipeline_config(Arc::clone(&pool)),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                sunk += 1;
                if sunk == 5 {
                    return Err(CdStoreError::Remote("simulated store failure".into()));
                }
                Ok(())
            },
        )
        .expect_err("sink error must abort the stream");
        assert!(matches!(err, CdStoreError::Remote(_)));
        assert_eq!(sunk, 5, "nothing may be sunk after the error");
        assert_eq!(pool.stats().outstanding, 0);
    }

    /// Reader that fails with an I/O error after yielding some bytes.
    struct FailingReader {
        remaining: usize,
    }

    impl Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.remaining == 0 {
                return Err(std::io::Error::other("disk on fire"));
            }
            let take = self.remaining.min(buf.len());
            buf[..take].fill(0xAB);
            self.remaining -= take;
            Ok(take)
        }
    }

    #[test]
    fn encode_stream_propagates_read_errors() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let chunker = ChunkerKind::Fixed.build(small_chunk_config());
        let pool = Arc::new(BufferPool::new());
        let err = encode_stream(
            &scheme,
            chunker.as_ref(),
            FailingReader { remaining: 8192 },
            &test_pipeline_config(Arc::clone(&pool)),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                Ok(())
            },
        )
        .expect_err("read failure must surface");
        match err {
            CdStoreError::Io(msg) => assert!(msg.contains("disk on fire"), "message: {msg}"),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    fn encode_stream_of_empty_input_yields_no_secrets() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let chunker = ChunkerKind::Rabin.build(small_chunk_config());
        let report = encode_stream(
            &scheme,
            chunker.as_ref(),
            std::io::empty(),
            &PipelineConfig::default(),
            |_, _| panic!("no secrets expected"),
        )
        .unwrap();
        assert_eq!(report.num_secrets, 0);
        assert_eq!(report.logical_bytes, 0);
    }

    #[test]
    fn encode_stream_single_thread_inline_mode_matches_threaded() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let data = stream_data(128 * 1024);
        for kind in ChunkerKind::ALL {
            let chunker = kind.build(small_chunk_config());
            let run = |threads: usize| {
                let pool = Arc::new(BufferPool::new());
                let config = PipelineConfig {
                    encode_threads: threads,
                    ..test_pipeline_config(Arc::clone(&pool))
                };
                let mut out: Vec<(u64, Vec<Vec<u8>>, Vec<Fingerprint>)> = Vec::new();
                let report = encode_stream(
                    &scheme,
                    chunker.as_ref(),
                    &data[..],
                    &config,
                    |mut enc, pool| {
                        let shares = enc.shares.clone();
                        pool.put_all(&mut enc.shares);
                        out.push((enc.seq, shares, enc.fingerprints));
                        Ok(())
                    },
                )
                .unwrap();
                assert_eq!(
                    pool.stats().outstanding,
                    0,
                    "{}: leaked buffers",
                    kind.name()
                );
                (report, out)
            };
            let (inline_report, inline_out) = run(1);
            let (threaded_report, threaded_out) = run(3);
            assert_eq!(inline_report.num_secrets, threaded_report.num_secrets);
            assert_eq!(inline_report.logical_bytes, threaded_report.logical_bytes);
            assert_eq!(inline_out, threaded_out, "{}: path divergence", kind.name());
        }
    }

    #[test]
    fn encode_stream_single_thread_inline_mode_handles_every_failure() {
        let chunker = ChunkerKind::Fixed.build(small_chunk_config());
        let single = |pool: Arc<BufferPool>| PipelineConfig {
            encode_threads: 1,
            ..test_pipeline_config(pool)
        };

        // Sink error: nothing more is sunk, buffers drain.
        let scheme = CaontRs::new(4, 3).unwrap();
        let pool = Arc::new(BufferPool::new());
        let mut sunk = 0u64;
        let err = encode_stream(
            &scheme,
            chunker.as_ref(),
            &stream_data(512 * 1024)[..],
            &single(Arc::clone(&pool)),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                sunk += 1;
                if sunk == 5 {
                    return Err(CdStoreError::Remote("simulated store failure".into()));
                }
                Ok(())
            },
        )
        .expect_err("sink error must abort the stream");
        assert!(matches!(err, CdStoreError::Remote(_)));
        assert_eq!(sunk, 5);
        assert_eq!(pool.stats().outstanding, 0);

        // Scheme error mid-stream.
        let poison = poison_scheme();
        let mut data = stream_data(64 * 1024);
        data[20 * 1024] = POISON;
        let pool = Arc::new(BufferPool::new());
        let err = encode_stream(
            &poison,
            chunker.as_ref(),
            &data[..],
            &single(Arc::clone(&pool)),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                Ok(())
            },
        )
        .expect_err("poisoned chunk must fail the stream");
        assert!(matches!(
            err,
            CdStoreError::Sharing(SharingError::InvalidParameters(_))
        ));
        assert_eq!(pool.stats().outstanding, 0);

        // Encode panic becomes a typed error.
        let panicky = panic_scheme();
        let mut data = stream_data(64 * 1024);
        data[32 * 1024] = POISON;
        let pool = Arc::new(BufferPool::new());
        let err = encode_stream(
            &panicky,
            chunker.as_ref(),
            &data[..],
            &single(Arc::clone(&pool)),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                Ok(())
            },
        )
        .expect_err("a panicking encode must fail the stream, not the process");
        assert!(matches!(
            err,
            CdStoreError::Sharing(SharingError::WorkerPanic(_))
        ));
        // The share buffers alive at the panic were freed by the unwind, not
        // returned, so the pool's outstanding counter keeps them: only the
        // panicking encode's own shares (n = 4) may be unaccounted for.
        assert!(pool.stats().outstanding <= 4);

        // Read error surfaces as Io.
        let pool = Arc::new(BufferPool::new());
        let err = encode_stream(
            &scheme,
            chunker.as_ref(),
            FailingReader { remaining: 8192 },
            &single(Arc::clone(&pool)),
            |mut enc, pool| {
                pool.put_all(&mut enc.shares);
                Ok(())
            },
        )
        .expect_err("read failure must surface");
        assert!(matches!(err, CdStoreError::Io(_)));
        assert_eq!(pool.stats().outstanding, 0);
    }

    // ---- the share-fingerprint memo ----

    /// CAONT-RS that counts its encodes, optionally posing as a scheme
    /// whose shares are not a function of the secret (no convergent key).
    struct CountingScheme {
        inner: CaontRs,
        convergent: bool,
        encodes: std::sync::atomic::AtomicUsize,
    }

    impl CountingScheme {
        fn new(convergent: bool) -> Self {
            CountingScheme {
                inner: CaontRs::new(4, 3).unwrap(),
                convergent,
                encodes: Default::default(),
            }
        }

        fn encodes(&self) -> usize {
            self.encodes.load(Ordering::SeqCst)
        }
    }

    impl SecretSharing for CountingScheme {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn n(&self) -> usize {
            self.inner.n()
        }

        fn k(&self) -> usize {
            self.inner.k()
        }

        fn confidentiality_degree(&self) -> usize {
            self.inner.confidentiality_degree()
        }

        fn is_convergent(&self) -> bool {
            self.convergent
        }

        fn total_share_size(&self, secret_len: usize) -> usize {
            self.inner.total_share_size(secret_len)
        }

        fn convergent_key(&self, secret: &[u8]) -> Option<[u8; 32]> {
            self.inner
                .convergent_key(secret)
                .filter(|_| self.convergent)
        }

        fn split(&self, secret: &[u8]) -> Result<Vec<Vec<u8>>, SharingError> {
            self.encodes.fetch_add(1, Ordering::SeqCst);
            self.inner.split(secret)
        }

        fn split_into_keyed(
            &self,
            secret: &[u8],
            key: &[u8; 32],
            out: &mut Vec<Vec<u8>>,
        ) -> Result<(), SharingError> {
            self.encodes.fetch_add(1, Ordering::SeqCst);
            self.inner.split_into_keyed(secret, key, out)
        }

        fn reconstruct(
            &self,
            shares: &[Option<Vec<u8>>],
            secret_len: usize,
        ) -> Result<Vec<u8>, SharingError> {
            self.inner.reconstruct(shares, secret_len)
        }
    }

    /// What the sink saw of one secret: shares, fingerprints, retained chunk.
    type Sunk = (Vec<Vec<u8>>, Vec<Fingerprint>, Option<Vec<u8>>);

    /// One pass of `chunks` through `memo` on `threads` workers: what the
    /// sink saw, with every buffer returned.
    fn memo_pass(
        scheme: &CountingScheme,
        memo: &Arc<ShareMemo>,
        chunks: &[Vec<u8>],
        threads: usize,
    ) -> Vec<Sunk> {
        let pool = Arc::new(BufferPool::new());
        let config = PipelineConfig {
            encode_threads: threads,
            memo: Some(Arc::clone(memo)),
            ..test_pipeline_config(Arc::clone(&pool))
        };
        let mut out = Vec::new();
        encode_chunks(scheme, chunks, &config, |enc, pool| {
            out.push((
                enc.shares.clone(),
                enc.fingerprints.clone(),
                enc.retained.as_ref().map(|r| r.chunk.clone()),
            ));
            enc.recycle(pool);
            Ok(())
        })
        .unwrap();
        assert_eq!(pool.stats().outstanding, 0, "buffers leaked");
        out
    }

    #[test]
    fn a_memoised_secret_costs_no_encode_and_keeps_its_fingerprints() {
        for threads in [1, 3] {
            let scheme = CountingScheme::new(true);
            let memo = Arc::new(ShareMemo::new(4));
            // 20 distinct secrets, the first five repeated at the end.
            let mut chunks = secrets(20);
            chunks.extend_from_within(..5);
            let first = memo_pass(&scheme, &memo, &chunks[..20], threads);
            assert_eq!(scheme.encodes(), 20);
            for ((shares, fingerprints, retained), chunk) in first.iter().zip(&chunks) {
                assert_eq!(shares, &scheme.inner.split(chunk).unwrap());
                let expected: Vec<Fingerprint> =
                    shares.iter().map(|s| Fingerprint::of(s)).collect();
                assert_eq!(fingerprints, &expected);
                assert_eq!(retained, &None);
            }
            // Second pass over all 25: nothing is encoded; every secret
            // comes out as its fingerprints and the chunk itself.
            let second = memo_pass(&scheme, &memo, &chunks, threads);
            assert_eq!(scheme.encodes(), 20, "threads={threads}");
            for (i, ((shares, fingerprints, retained), chunk)) in
                second.iter().zip(&chunks).enumerate()
            {
                assert!(shares.is_empty());
                assert_eq!(fingerprints, &first[i % 20].1);
                assert_eq!(retained.as_ref(), Some(chunk));
            }
            assert_eq!((memo.hits(), memo.misses(), memo.entries()), (25, 20, 20));
        }
    }

    #[test]
    fn a_scheme_without_a_convergent_key_is_never_memoised() {
        let scheme = CountingScheme::new(false);
        let memo = Arc::new(ShareMemo::new(4));
        let chunks = secrets(6);
        for pass in 1..=2 {
            let out = memo_pass(&scheme, &memo, &chunks, 2);
            assert!(out
                .iter()
                .all(|(shares, _, retained)| shares.len() == 4 && retained.is_none()));
            assert_eq!(scheme.encodes(), 6 * pass);
        }
        assert_eq!((memo.hits(), memo.misses(), memo.entries()), (0, 0, 0));
    }

    #[test]
    fn pipeline_config_budget_accounts_for_every_stage() {
        let config = PipelineConfig {
            encode_threads: 3,
            chunk_queue: 4,
            encoded_queue: 5,
            read_buffer: 1,
            pool: None,
            memo: None,
        };
        assert_eq!(config.max_live_secrets(), 4 + 5 + 3 + 2);
        assert_eq!(config.max_live_buffers(4), (4 + 5 + 3 + 2) * 5);
        let default = PipelineConfig::default();
        assert!(default.encode_threads >= 1);
        assert!(default.max_live_secrets() > default.encode_threads);
    }
}
