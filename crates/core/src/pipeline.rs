//! The client's encode pipeline (§4.6): chunk → CAONT-RS encode on a pool
//! of coding threads → in-order sink.
//!
//! The CDStore client parallelises the CPU-intensive CAONT-RS operations
//! across coding threads. The unit of work is a *group* of consecutive
//! secrets — up to [`GROUP`] of them, or [`GROUP_BYTES`] of secret bytes —
//! so that each hash pass of the encode covers the whole group as one batch,
//! which is what the multi-lane SHA-256 kernel needs (see [`encode_stream`]).
//! There is one encode body, run by the inline mode and by every coding
//! thread, fed by a chunk *source* — anything that fills a pooled buffer
//! with the next chunk:
//!
//! * [`encode_stream`] cuts chunks straight out of an [`std::io::BufRead`]'s
//!   buffer with a [`ChunkStream`];
//! * [`encode_chunks`] walks a slice of chunks whose boundaries the caller
//!   already fixed (the trace-driven experiments of §5.2).
//!
//! Either way each group carries a one-slot reply channel, and the slots
//! queue up in input order in front of the sink, so encoding of later groups
//! overlaps the store RPCs for the one before them, and peak memory is set
//! by [`PipelineConfig::encode_threads`] rather than input size. The sink
//! still receives secrets one at a time, in input order. Chunk and share
//! buffers cycle through a [`BufferPool`], making the steady state
//! allocation-free.

use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel};
use std::sync::{Arc, Mutex, OnceLock};

use cdstore_chunking::{ChunkStream, Chunker};
use cdstore_crypto::Fingerprint;
pub use cdstore_secretsharing::caont_rs::GROUP;
use cdstore_secretsharing::{BufferPool, GroupSplit, SecretSharing, SharingError};

use crate::error::CdStoreError;
use crate::memo::ShareMemo;

/// Most secret bytes an encode group takes before it is cut, counting the
/// secret that crosses the bound: with large chunks a group ends here
/// rather than at [`GROUP`] secrets, so its buffers stay about a MiB of
/// chunks plus their shares whatever the chunker's sizes.
pub const GROUP_BYTES: usize = 1 << 20;

/// Shape of the streaming encode pipeline: its workers, buffers and memo.
///
/// The worker count is also the memory bound: at most
/// [`max_live_secrets`](PipelineConfig::max_live_secrets) secrets (each one
/// chunk buffer plus `n` share buffers) are alive inside the pipeline at any
/// instant, because at most `encode_threads` groups wait between the chunker
/// and the in-order sink.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of CAONT-RS encode workers (clamped to at least 1).
    pub encode_threads: usize,
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
            pool: None,
            memo: None,
        }
    }
}

impl PipelineConfig {
    /// Upper bound on secrets simultaneously alive inside the pipeline:
    /// [`GROUP`] for each group that can be — the one the chunker holds, one
    /// per place in the order queue, and one at the sink.
    pub fn max_live_secrets(&self) -> usize {
        (self.encode_threads.max(1) + 2) * GROUP
    }

    /// Upper bound on pool buffers simultaneously checked out by the
    /// pipeline itself (excluding any the sink retains): each live secret
    /// holds at most one chunk buffer and `n` share buffers.
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
/// [`SecretSharing::split_group`] takes. The upload's committer keeps it in
/// its batch until a server's dedup query finds one of the secret's shares
/// unowned, then encodes it there, once for every cloud.
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
    /// Returns every pooled buffer the secret holds to `pool`. A share slot
    /// left empty holds none: a share is never empty, so its buffer has
    /// gone back already.
    pub fn recycle(self, pool: &BufferPool) {
        let mut shares = self.shares;
        shares.retain(|share| !share.is_empty());
        pool.put_all(&mut shares);
        if let Some(retained) = self.retained {
            pool.put(retained.chunk);
        }
    }
}

/// Totals returned by a completed [`encode_stream`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStreamReport {
    /// Number of secrets (chunks) cut and encoded.
    pub num_secrets: u64,
    /// Total bytes read from the source.
    pub logical_bytes: u64,
}

/// A group after the encode stage: its secrets in order up to the first
/// that failed, and that failure. Dropping a group returns the buffers of
/// the secrets it still holds to `pool`, so one left in a reply slot the
/// sink hung up on is recycled too.
struct EncodedGroup<'p> {
    pool: &'p BufferPool,
    secrets: Vec<EncodedSecret>,
    outcome: Result<(), SharingError>,
}

impl Drop for EncodedGroup<'_> {
    fn drop(&mut self) {
        self.secrets
            .drain(..)
            .for_each(|enc| enc.recycle(self.pool));
    }
}

/// Streams `reader` through chunk → encode → sink with bounded memory.
///
/// Chunks are cut straight out of the reader's buffer: a `&[u8]` is copied
/// once, into the pooled chunk buffers; wrap a file in a
/// [`std::io::BufReader`]. A chunker thread cuts chunks into pooled buffers,
/// a group at a time, and puts each group on a work queue; `encode_threads`
/// workers each take a whole group and encode it into pooled share buffers:
///
/// 1. `H(X)` of every secret as one batch
///    ([`SecretSharing::convergent_keys`]);
/// 2. the memo lookups, where a hit costs only its `H(X)`;
/// 3. the misses split as one group ([`SecretSharing::split_group`]) — for
///    CAONT-RS the mask applied in each chunk's own buffer, `H(Y)` as one
///    batch, then Reed-Solomon per secret;
/// 4. the `n` shares of every miss fingerprinted as one
///    [`Fingerprint::of_batch`].
///
/// A group of 16 or more secrets takes the sixteen AVX-512 SHA-256 lanes
/// ([`cdstore_crypto::sha256::BatchKernel::X16`]) where they outrun
/// SHA-NI. Each group is answered in its own one-slot reply channel, and
/// the chunker queues the slots in input order, at most `encode_threads`
/// deep; the calling thread waits on each slot in turn and hands each
/// [`EncodedSecret`] to `sink` in input order. The sink overlaps whatever
/// it does (batching, store RPCs) with the encoding of later groups — the
/// pipelining that lets CPU and network run concurrently.
///
/// Error handling: the first failure anywhere — a read error, an encode
/// error, an encode panic (surfaced as [`SharingError::WorkerPanic`]), or a
/// sink error — aborts the pipeline promptly; in-flight buffers drain back
/// to the pool and the error is returned. The sink has seen every secret
/// before the failing one, in order, and none after it. On success it has
/// seen every secret exactly once, in order.
///
/// With `encode_threads <= 1` there is no parallelism to exploit, so the
/// stages run inline on the calling thread, a group at a time (same
/// semantics, no channel or context-switch cost).
pub fn encode_stream<R: BufRead + Send>(
    scheme: &(dyn SecretSharing + Sync),
    chunker: &dyn Chunker,
    reader: R,
    config: &PipelineConfig,
    sink: impl FnMut(EncodedSecret, &BufferPool) -> Result<(), CdStoreError>,
) -> Result<EncodeStreamReport, CdStoreError> {
    // The chunker is only borrowed to build the stream; the stream itself
    // (cutter + reader) moves into the source.
    let mut chunk_stream = ChunkStream::new(chunker, reader);
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

/// The pipeline behind [`encode_stream`] and [`encode_chunks`].
/// `next_chunk` is the chunk source: it overwrites the pooled buffer it is
/// given with the next chunk and returns `Ok(false)` at end of input.
///
/// An abort is a hang-up: the side that fails drops its end of a channel,
/// and whoever next uses the other end finds it gone and returns its
/// buffers to the pool. A sink error drops the order queue, so every
/// pending reply and the chunker's next push fail.
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
    let pool = &*pool;
    let memo = config.memo.as_deref();
    let threads = config.encode_threads.max(1);
    if threads == 1 {
        return encode_inline(scheme, next_chunk, pool, memo, &mut sink);
    }
    // The work queue carries a group, the sequence number of its first
    // secret and its reply slot's sender. It needs no bound of its own: the
    // chunker cuts a group only once the one before has its place on the
    // order queue.
    let (work_tx, work_rx) = channel();
    let work_rx = Arc::new(Mutex::new(work_rx));
    let (order_tx, order_rx) = sync_channel(threads);
    let mut report = EncodeStreamReport::default();

    std::thread::scope(|scope| {
        let chunker = scope.spawn(move || -> std::io::Result<()> {
            let mut seq = 0u64;
            loop {
                let mut chunks = Vec::with_capacity(GROUP);
                let cut = cut_group(&mut next_chunk, pool, &mut chunks);
                let count = chunks.len() as u64;
                if count > 0 {
                    let (reply, slot) = sync_channel(1);
                    // Fails only once every worker has panicked, which the
                    // scope re-raises.
                    let _ = work_tx.send((seq, chunks, reply));
                    // Blocks while `threads` groups wait for the sink, so
                    // this group is encoded meanwhile but no other is cut;
                    // fails once the sink has hung up.
                    if order_tx.send(slot).is_err() {
                        return Ok(());
                    }
                }
                seq += count;
                match cut {
                    Ok(true) => {}
                    // A read error surfaces after the chunks cut before it
                    // are encoded and sunk.
                    Ok(false) => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });

        for _ in 0..threads {
            let work_rx = Arc::clone(&work_rx);
            scope.spawn(move || loop {
                let Ok((first_seq, mut chunks, reply)) =
                    work_rx.lock().expect("work queue lock").recv()
                else {
                    return; // the chunker is done
                };
                let (secrets, outcome) = encode_group(scheme, pool, memo, first_seq, &mut chunks);
                // Fails once the sink has hung up; the group then drops
                // back into the pool.
                let _ = reply.send(EncodedGroup {
                    pool,
                    secrets,
                    outcome,
                });
            });
        }
        drop(work_rx);

        let mut result = Ok(());
        for slot in order_rx.iter() {
            // A slot without a reply means its worker panicked, which the
            // scope re-raises.
            let Ok(group) = slot.recv() else { break };
            result = sink_group(group, pool, &mut sink, &mut report);
            if result.is_err() {
                break;
            }
        }
        drop(order_rx);
        // A chunker failure surfaces unless an earlier error already won.
        let chunked = match chunker.join() {
            Ok(cut) => cut.map_err(CdStoreError::from),
            Err(payload) => Err(panic_error(payload).into()),
        };
        result.and(chunked)
    })
    .map(|()| report)
}

/// The single-threaded mode of [`encode_from`]: cut → encode → sink run
/// inline a group at a time, preserving the threaded mode's semantics
/// (in-order delivery, pooled buffers, typed errors) without any
/// cross-thread handoffs.
fn encode_inline(
    scheme: &(dyn SecretSharing + Sync),
    mut next_chunk: impl FnMut(&mut Vec<u8>) -> std::io::Result<bool>,
    pool: &BufferPool,
    memo: Option<&ShareMemo>,
    sink: &mut impl FnMut(EncodedSecret, &BufferPool) -> Result<(), CdStoreError>,
) -> Result<EncodeStreamReport, CdStoreError> {
    let mut report = EncodeStreamReport::default();
    let mut chunks = Vec::with_capacity(GROUP);
    loop {
        let cut = cut_group(&mut next_chunk, pool, &mut chunks);
        if !chunks.is_empty() {
            let first_seq = report.num_secrets;
            let (secrets, outcome) = encode_group(scheme, pool, memo, first_seq, &mut chunks);
            let group = EncodedGroup {
                pool,
                secrets,
                outcome,
            };
            sink_group(group, pool, sink, &mut report)?;
        }
        match cut {
            Ok(true) => {}
            Ok(false) => return Ok(report),
            Err(e) => return Err(e.into()),
        }
    }
}

/// Cuts the next group off `next_chunk` into pooled buffers appended to
/// `chunks`, stopping after [`GROUP`] chunks or [`GROUP_BYTES`] bytes.
/// Returns `Ok(false)` at end of input. On a read error the chunks cut
/// before it stay in `chunks`.
fn cut_group(
    next_chunk: &mut impl FnMut(&mut Vec<u8>) -> std::io::Result<bool>,
    pool: &BufferPool,
    chunks: &mut Vec<Vec<u8>>,
) -> std::io::Result<bool> {
    let mut bytes = 0;
    while chunks.len() < GROUP && bytes < GROUP_BYTES {
        let mut buf = pool.get();
        match next_chunk(&mut buf) {
            Ok(true) => {
                bytes += buf.len();
                chunks.push(buf);
            }
            Ok(false) => {
                pool.put(buf);
                return Ok(false);
            }
            Err(e) => {
                pool.put(buf);
                return Err(e);
            }
        }
    }
    Ok(true)
}

/// Encodes one group of chunks, the first numbered `first_seq`, draining
/// `chunks` — the steps [`encode_stream`] lists. A secret that repeats an
/// earlier one of its group is looked up only once that one is memoised,
/// as encoding secret by secret would, so it costs no encode either.
///
/// Returns the secrets in order up to the first that failed, and that
/// failure. A panicking scheme must fail the upload, not the process: the
/// crate forbids unsafe code and the closure only touches owned data, so
/// unwinding here is benign and surfaces as [`SharingError::WorkerPanic`],
/// the secrets before the panicking one still returned. Every buffer of the
/// group that is not returned goes back to `pool`, on every path.
fn encode_group(
    scheme: &(dyn SecretSharing + Sync),
    pool: &BufferPool,
    memo: Option<&ShareMemo>,
    first_seq: u64,
    chunks: &mut Vec<Vec<u8>>,
) -> (Vec<EncodedSecret>, Result<(), SharingError>) {
    let n = scheme.n();
    let sizes: Vec<u32> = chunks.iter().map(|chunk| chunk.len() as u32).collect();
    let mut keys: Option<Vec<[u8; 32]>> = None;
    let mut fingerprints: Vec<Option<Vec<Fingerprint>>> = vec![None; chunks.len()];
    let mut shares: Vec<Vec<Vec<u8>>> = vec![Vec::new(); chunks.len()];
    let mut repeats: Vec<usize> = Vec::new();
    let mut misses: Vec<usize> = Vec::new();
    let mut done = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        keys = scheme.convergent_keys(chunks);
        if let (Some(memo), Some(keys)) = (memo, &keys) {
            for (i, key) in keys.iter().enumerate() {
                if keys[..i].contains(key) {
                    repeats.push(i);
                } else {
                    fingerprints[i] = memo.lookup(key);
                }
            }
        }
        misses = (0..chunks.len())
            .filter(|i| fingerprints[*i].is_none() && !repeats.contains(i))
            .collect();
        for &i in &misses {
            shares[i] = (0..n).map(|_| pool.get()).collect();
        }
        let mut group: Vec<GroupSplit<'_>> = (chunks.iter_mut().zip(&mut shares).enumerate())
            .filter(|(i, _)| misses.binary_search(i).is_ok())
            .map(|(i, (secret, shares))| GroupSplit {
                secret,
                key: keys.as_ref().map(|keys| &keys[i]),
                shares,
            })
            .collect();
        scheme.split_group(&mut group, &mut done)
    }))
    .unwrap_or_else(|payload| Err(panic_error(payload)));
    // Secrets from the first failed one on are not returned.
    let end = match outcome {
        Ok(()) => chunks.len(),
        Err(_) => misses.get(done).copied().unwrap_or(0),
    };

    let encoded = &misses[..done];
    let refs: Vec<&[u8]> = (encoded.iter())
        .flat_map(|&i| shares[i].iter().map(Vec::as_slice))
        .collect();
    for (&i, batch) in encoded.iter().zip(Fingerprint::of_batch(&refs).chunks(n)) {
        if let (Some(memo), Some(keys)) = (memo, &keys) {
            memo.insert(&keys[i], batch);
        }
        fingerprints[i] = Some(batch.to_vec());
    }
    if let (Some(memo), Some(keys)) = (memo, &keys) {
        for &i in repeats.iter().filter(|&&i| i < end) {
            let first = keys.iter().position(|key| key == &keys[i]);
            let first = first.expect("a repeat follows its first");
            fingerprints[i] = memo
                .lookup(&keys[i])
                .or_else(|| fingerprints[first].clone());
        }
    }

    let mut secrets = Vec::with_capacity(end);
    let group = chunks.drain(..).zip(shares).zip(fingerprints);
    for (i, ((chunk, mut shares), fingerprints)) in group.enumerate() {
        if i >= end {
            pool.put(chunk);
            pool.put_all(&mut shares);
            continue;
        }
        let retained = match misses.binary_search(&i) {
            Ok(_) => {
                pool.put(chunk);
                None
            }
            Err(_) => Some(RetainedSecret {
                key: keys.as_ref().expect("a memo hit has a key")[i],
                chunk,
            }),
        };
        secrets.push(EncodedSecret {
            seq: first_seq + i as u64,
            secret_size: sizes[i],
            shares,
            fingerprints: fingerprints.expect("a secret before the failure has its fingerprints"),
            retained,
        });
    }
    (secrets, outcome)
}

/// Hands a group's secrets to `sink` in order, counting them into `report`,
/// then surfaces the group's encode failure, if any. On a sink error the
/// rest of the group is recycled.
fn sink_group(
    mut group: EncodedGroup,
    pool: &BufferPool,
    sink: &mut impl FnMut(EncodedSecret, &BufferPool) -> Result<(), CdStoreError>,
    report: &mut EncodeStreamReport,
) -> Result<(), CdStoreError> {
    let mut secrets = std::mem::take(&mut group.secrets).into_iter();
    for enc in secrets.by_ref() {
        report.logical_bytes += enc.secret_size as u64;
        if let Err(e) = sink(enc, pool) {
            secrets.for_each(|enc| enc.recycle(pool));
            return Err(e);
        }
        report.num_secrets += 1;
    }
    std::mem::replace(&mut group.outcome, Ok(())).map_err(CdStoreError::from)
}

/// Converts an encode panic's payload into a [`SharingError`], preserving
/// `panic!` string messages where possible.
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
    use std::sync::atomic::Ordering;

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
    use std::io::{BufReader, Read};

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
                // Deliberately odd buffer: boundaries must not care.
                BufReader::with_capacity(777, &data[..]),
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
        // ~4 MiB at ~1 KiB chunks: ~4000 secrets, far above max_live_secrets.
        let data = stream_data(4 * 1024 * 1024);
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
            BufReader::new(FailingReader { remaining: 8192 }),
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
        // The panicking group's buffers went back to the pool too.
        assert_eq!(pool.stats().outstanding, 0);

        // Read error surfaces as Io.
        let pool = Arc::new(BufferPool::new());
        let err = encode_stream(
            &scheme,
            chunker.as_ref(),
            BufReader::new(FailingReader { remaining: 8192 }),
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
            pool: None,
            memo: None,
        };
        // Groups: one being cut, one per order-queue slot, the sink's.
        assert_eq!(config.max_live_secrets(), (3 + 2) * GROUP);
        assert_eq!(config.max_live_buffers(4), (3 + 2) * GROUP * 5);
        let default = PipelineConfig::default();
        assert!(default.encode_threads >= 1);
        assert!(default.max_live_secrets() > default.encode_threads);
    }
}
