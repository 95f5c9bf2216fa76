//! Grouped encode ≡ per-secret encode.
//!
//! The pipeline encodes secrets a group at a time — up to [`GROUP`] of them,
//! or [`GROUP_BYTES`] of their bytes — and hashes each group's `H(X)`,
//! `H(Y)` and share fingerprints as three batches. These tests hold every
//! output of a grouped run to what CAONT-RS gives secret by secret (`split`,
//! then `Fingerprint::of` per share): at and around every group boundary,
//! plain and salted, inline and on three workers, with memo hits anywhere in
//! a group, when one secret of a group fails or panics, and when groups
//! finish out of order or the sink fails while one is still encoding.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_core::pipeline::{GROUP, GROUP_BYTES};
use cdstore_core::{encode_chunks, encode_stream, CdStoreError, PipelineConfig, ShareMemo};
use cdstore_crypto::Fingerprint;
use cdstore_secretsharing::{BufferPool, CaontRs, GroupSplit, SecretSharing, SharingError};

/// First byte that makes [`Faulty`] fail a secret.
const POISON: u8 = 0xFF;

/// The next xorshift state.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `len` pseudo-random bytes.
fn bytes(len: usize, state: &mut u64) -> Vec<u8> {
    (0..len).map(|_| (next(state) >> 24) as u8).collect()
}

/// `count` pseudo-random secrets of 2–14 KiB (so [`GROUP`] of them stay
/// under [`GROUP_BYTES`]), none starting with [`POISON`].
fn secrets(count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            let len = 2048 + (next(&mut state) % (12 * 1024)) as usize;
            let mut secret = bytes(len, &mut state);
            secret[0] &= 0x7F;
            secret
        })
        .collect()
}

/// CAONT-RS plain and salted.
fn schemes() -> [(&'static str, CaontRs); 2] {
    [
        ("plain", CaontRs::new(4, 3).unwrap()),
        ("salted", CaontRs::with_salt(4, 3, b"org-a").unwrap()),
    ]
}

/// What the sink saw of one secret.
struct Sunk {
    seq: u64,
    shares: Vec<Vec<u8>>,
    fingerprints: Vec<Fingerprint>,
    retained: Option<Vec<u8>>,
}

/// A pipeline config on `threads` workers over `pool`.
fn config(threads: usize, pool: &Arc<BufferPool>, memo: Option<&Arc<ShareMemo>>) -> PipelineConfig {
    PipelineConfig {
        encode_threads: threads,
        pool: Some(Arc::clone(pool)),
        memo: memo.cloned(),
    }
}

/// `chunks` through [`encode_chunks`] on `threads` workers: what the sink
/// saw and the outcome, every pooled buffer checked back in.
fn encode(
    scheme: &(dyn SecretSharing + Sync),
    chunks: &[Vec<u8>],
    threads: usize,
    memo: Option<&Arc<ShareMemo>>,
) -> (Vec<Sunk>, Result<u64, CdStoreError>) {
    let pool = Arc::new(BufferPool::new());
    let mut sunk = Vec::new();
    let result = encode_chunks(
        scheme,
        chunks,
        &config(threads, &pool, memo),
        |enc, pool| {
            sunk.push(Sunk {
                seq: enc.seq,
                shares: enc.shares.clone(),
                fingerprints: enc.fingerprints.clone(),
                retained: enc.retained.as_ref().map(|r| r.chunk.clone()),
            });
            enc.recycle(pool);
            Ok(())
        },
    );
    assert_eq!(pool.stats().outstanding, 0, "buffers leaked");
    (sunk, result.map(|report| report.num_secrets))
}

/// One secret's shares and fingerprints, split on its own.
fn per_secret(scheme: &CaontRs, secret: &[u8]) -> (Vec<Vec<u8>>, Vec<Fingerprint>) {
    let shares = scheme.split(secret).unwrap();
    let fingerprints = shares.iter().map(|s| Fingerprint::of(s)).collect();
    (shares, fingerprints)
}

/// `sunk` is `chunks` in order, each as split on its own: a memo hit with
/// the chunk itself and the fingerprints, any other secret with its shares.
fn assert_per_secret(scheme: &CaontRs, chunks: &[Vec<u8>], sunk: &[Sunk], what: &str) {
    assert_eq!(sunk.len(), chunks.len(), "{what}: secrets sunk");
    for (i, (sunk, chunk)) in sunk.iter().zip(chunks).enumerate() {
        assert_eq!(sunk.seq, i as u64, "{what}: order");
        let (shares, fingerprints) = per_secret(scheme, chunk);
        assert_eq!(
            sunk.fingerprints, fingerprints,
            "{what}: fingerprints of #{i}"
        );
        match &sunk.retained {
            Some(retained) => {
                assert_eq!(retained, chunk, "{what}: retained chunk of #{i}");
                assert!(sunk.shares.is_empty(), "{what}: a hit has no shares");
            }
            None => assert_eq!(sunk.shares, shares, "{what}: shares of #{i}"),
        }
    }
}

/// What encoding `chunks` secret by secret does to `memo`: look each key
/// up, memoise each miss.
fn per_secret_memo(scheme: &CaontRs, chunks: &[Vec<u8>], memo: &ShareMemo) {
    for chunk in chunks {
        let key = scheme.convergent_key(chunk).unwrap();
        if memo.lookup(&key).is_none() {
            memo.insert(&key, &per_secret(scheme, chunk).1);
        }
    }
}

#[test]
fn every_group_boundary_encodes_as_secret_by_secret() {
    let all = secrets(130, 1);
    for (name, scheme) in schemes() {
        for threads in [1, 3] {
            for count in [1, 15, 16, 17, 63, 64, 65, 130] {
                let chunks = &all[..count];
                let what = format!("{name}, {count} secrets, {threads} threads");
                let (sunk, result) = encode(&scheme, chunks, threads, None);
                assert_eq!(result.unwrap(), count as u64, "{what}");
                assert_per_secret(&scheme, chunks, &sunk, &what);
            }
        }
    }
}

/// CAONT-RS that records the secret sizes of every group it is handed.
struct Recording {
    inner: CaontRs,
    groups: Mutex<Vec<Vec<usize>>>,
}

impl Recording {
    fn new(inner: CaontRs) -> Self {
        Recording {
            inner,
            groups: Mutex::default(),
        }
    }

    fn take_groups(&self) -> Vec<Vec<usize>> {
        std::mem::take(&mut self.groups.lock().unwrap())
    }
}

/// [`SecretSharing`] by delegating to `self.inner`, but for `split_group`.
macro_rules! delegate_to_inner {
    () => {
        fn name(&self) -> &'static str {
            self.inner.name()
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
            self.inner.split(secret)
        }

        fn convergent_key(&self, secret: &[u8]) -> Option<[u8; 32]> {
            self.inner.convergent_key(secret)
        }

        fn reconstruct(
            &self,
            shares: &[Option<Vec<u8>>],
            secret_len: usize,
        ) -> Result<Vec<u8>, SharingError> {
            self.inner.reconstruct(shares, secret_len)
        }
    };
}

impl SecretSharing for Recording {
    delegate_to_inner!();

    fn convergent_keys(&self, secrets: &mut [Vec<u8>]) -> Option<Vec<[u8; 32]>> {
        let sizes = secrets.iter().map(Vec::len).collect();
        self.groups.lock().unwrap().push(sizes);
        self.inner.convergent_keys(secrets)
    }

    fn split_group(
        &self,
        group: &mut [GroupSplit<'_>],
        done: &mut usize,
    ) -> Result<(), SharingError> {
        self.inner.split_group(group, done)
    }
}

#[test]
fn groups_are_cut_at_group_secrets_or_group_bytes() {
    // By count: secrets of at most 14 KiB never reach the byte bound.
    let recording = Recording::new(CaontRs::new(4, 3).unwrap());
    let chunks = secrets(130, 2);
    let (sunk, result) = encode(&recording, &chunks, 1, None);
    assert_eq!(result.unwrap(), 130);
    assert_per_secret(&recording.inner, &chunks, &sunk, "by count");
    let sizes: Vec<usize> = recording.take_groups().iter().map(Vec::len).collect();
    assert_eq!(sizes, [GROUP, GROUP, 2]);

    // By bytes: a chunker whose maximum is raised cuts ~40 KiB chunks off a
    // stream, so a group closes at the secret that brings it to a MiB.
    let chunker = ChunkerKind::FastCdc.build(ChunkerConfig::new(16 * 1024, 32 * 1024, 64 * 1024));
    let data = bytes(3 * GROUP_BYTES + 12345, &mut 3);
    let expected: Vec<Vec<u8>> = chunker.chunk(&data).into_iter().map(|c| c.data).collect();
    for (name, scheme) in schemes() {
        let recording = Recording::new(scheme);
        for threads in [1, 3] {
            let pool = Arc::new(BufferPool::new());
            let mut sunk = Vec::new();
            let report = encode_stream(
                &recording,
                chunker.as_ref(),
                &data[..],
                &config(threads, &pool, None),
                |enc, pool| {
                    sunk.push(Sunk {
                        seq: enc.seq,
                        shares: enc.shares.clone(),
                        fingerprints: enc.fingerprints.clone(),
                        retained: None,
                    });
                    enc.recycle(pool);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(report.logical_bytes, data.len() as u64);
            assert_eq!(pool.stats().outstanding, 0);
            let what = format!("{name}, by bytes, {threads} threads");
            assert_per_secret(&recording.inner, &expected, &sunk, &what);
            let mut groups = recording.take_groups();
            groups.sort_by_key(|g| std::cmp::Reverse(g.iter().sum::<usize>()));
            let last = groups.pop().expect("a last group");
            assert!(groups.len() >= 2, "{what}: {} full groups", groups.len());
            for group in groups {
                let bytes: usize = group.iter().sum();
                assert!(
                    group.len() < GROUP && group.len() >= 16,
                    "{what}: {group:?}"
                );
                assert!(bytes >= GROUP_BYTES, "{what}: cut early at {bytes}");
                assert!(
                    bytes - group.last().unwrap() < GROUP_BYTES,
                    "{what}: cut late"
                );
            }
            assert!(last.iter().sum::<usize>() < GROUP_BYTES, "{what}");
        }
    }
}

#[test]
fn memo_hits_anywhere_in_a_group_match_a_per_secret_memo() {
    // Hits at the start, middle and end of the first two groups and in the
    // short last one; a cold secret repeated within a group is looked up
    // only once its first copy is memoised, as secret by secret.
    let warm = secrets(8, 11);
    let mut stream = secrets(130, 5);
    let hits = [0, 31, 63, 64, 100, 127, 129];
    for (j, &at) in hits.iter().enumerate() {
        stream[at] = warm[j].clone();
    }
    stream[40] = stream[10].clone();
    stream[90] = stream[70].clone();
    let mut retained: Vec<usize> = hits.iter().copied().chain([40, 90]).collect();
    retained.sort_unstable();

    for (name, scheme) in schemes() {
        for threads in [1, 3] {
            let what = format!("{name}, {threads} threads");
            let memo = Arc::new(ShareMemo::new(4));
            assert!(encode(&scheme, &warm, threads, Some(&memo)).1.is_ok());
            let (sunk, result) = encode(&scheme, &stream, threads, Some(&memo));
            assert_eq!(result.unwrap(), stream.len() as u64);
            assert_per_secret(&scheme, &stream, &sunk, &what);
            let hit_at: Vec<usize> = (sunk.iter().enumerate())
                .filter(|(_, s)| s.retained.is_some())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(hit_at, retained, "{what}");

            let oracle = ShareMemo::new(4);
            per_secret_memo(&scheme, &warm, &oracle);
            per_secret_memo(&scheme, &stream, &oracle);
            assert_eq!(
                (memo.hits(), memo.misses(), memo.entries()),
                (oracle.hits(), oracle.misses(), oracle.entries()),
                "{what}: memo counters"
            );
            for chunk in warm.iter().chain(&stream) {
                let key = scheme.convergent_key(chunk).unwrap();
                assert_eq!(memo.lookup(&key), oracle.lookup(&key), "{what}");
            }
        }
    }
}

/// CAONT-RS that fails every secret starting with [`POISON`] — with a
/// typed error, or by panicking — after splitting the members before it.
struct Faulty {
    inner: CaontRs,
    panics: bool,
}

impl SecretSharing for Faulty {
    delegate_to_inner!();

    fn convergent_keys(&self, secrets: &mut [Vec<u8>]) -> Option<Vec<[u8; 32]>> {
        self.inner.convergent_keys(secrets)
    }

    fn split_group(
        &self,
        group: &mut [GroupSplit<'_>],
        done: &mut usize,
    ) -> Result<(), SharingError> {
        let bad = group.iter().position(|m| m.secret.first() == Some(&POISON));
        let good = bad.unwrap_or(group.len());
        self.inner.split_group(&mut group[..good], done)?;
        match bad {
            None => Ok(()),
            Some(_) if self.panics => panic!("injected encode panic"),
            Some(_) => Err(SharingError::InvalidParameters("poisoned secret".into())),
        }
    }
}

#[test]
fn a_failing_secret_ends_the_stream_after_every_secret_before_it() {
    let clean = secrets(130, 6);
    for panics in [false, true] {
        let scheme = Faulty {
            inner: CaontRs::new(4, 3).unwrap(),
            panics,
        };
        for threads in [1, 3] {
            for at in [0, 17, 63].into_iter().flat_map(|j| [j, GROUP + j]) {
                let mut chunks = clean.clone();
                chunks[at][0] = POISON;
                let what = format!("panics {panics}, {threads} threads, at {at}");
                let (sunk, result) = encode(&scheme, &chunks, threads, None);
                match result {
                    Err(CdStoreError::Sharing(SharingError::WorkerPanic(msg))) if panics => {
                        assert!(msg.contains("injected encode panic"), "{what}: {msg}")
                    }
                    Err(CdStoreError::Sharing(SharingError::InvalidParameters(_))) if !panics => {}
                    other => panic!("{what}: unexpected {:?}", other.map(|_| ())),
                }
                assert_per_secret(&scheme.inner, &chunks[..at], &sunk, &what);
            }
        }
    }
}

/// Length of the secret a [`Stalling`] scheme stalls on: shorter than any
/// of [`secrets`].
const STALL_LEN: usize = 1000;

/// Polls `done` until it holds or ten seconds pass.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// CAONT-RS whose encode of the group holding a [`STALL_LEN`]-byte secret
/// waits until `release_after` other groups are encoded.
struct Stalling {
    inner: CaontRs,
    release_after: AtomicUsize,
    encoded: AtomicUsize,
}

impl Stalling {
    fn new(release_after: usize) -> Self {
        Stalling {
            inner: CaontRs::new(4, 3).unwrap(),
            release_after: release_after.into(),
            encoded: 0.into(),
        }
    }
}

impl SecretSharing for Stalling {
    delegate_to_inner!();

    fn convergent_keys(&self, secrets: &mut [Vec<u8>]) -> Option<Vec<[u8; 32]>> {
        self.inner.convergent_keys(secrets)
    }

    fn split_group(
        &self,
        group: &mut [GroupSplit<'_>],
        done: &mut usize,
    ) -> Result<(), SharingError> {
        if group.iter().any(|m| m.secret.len() == STALL_LEN) {
            wait_until(|| self.encoded.load(SeqCst) >= self.release_after.load(SeqCst));
        }
        let result = self.inner.split_group(group, done);
        self.encoded.fetch_add(1, SeqCst);
        result
    }
}

#[test]
fn groups_that_finish_out_of_order_reach_the_sink_in_order() {
    // The first group waits until the two after it are encoded on the
    // other workers; seven more follow.
    let scheme = Stalling::new(2);
    let mut chunks = secrets(10 * GROUP, 12);
    chunks[0] = vec![7; STALL_LEN];
    let pool = Arc::new(BufferPool::new());
    let config = config(3, &pool, None);
    let started = Instant::now();
    let mut sunk = Vec::new();
    encode_chunks(&scheme, &chunks, &config, |enc, pool| {
        sunk.push(Sunk {
            seq: enc.seq,
            shares: enc.shares.clone(),
            fingerprints: enc.fingerprints.clone(),
            retained: None,
        });
        enc.recycle(pool);
        Ok(())
    })
    .unwrap();
    // The stall ended on its release, not on its ten-second deadline.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "nothing overtook"
    );
    assert_per_secret(&scheme.inner, &chunks, &sunk, "out of order");
    let stats = pool.stats();
    assert!(stats.peak_outstanding <= config.max_live_buffers(4));
    assert_eq!(stats.outstanding, 0, "buffers leaked");
}

#[test]
fn a_sink_error_while_a_group_is_still_encoding_returns_promptly() {
    // The second group waits until the sink fails on the first, and the
    // sink fails once two later groups are encoded: the hang-up meets a
    // group in flight and replies waiting in their slots.
    let scheme = Stalling::new(usize::MAX);
    let mut chunks = secrets(40 * GROUP, 13);
    chunks[GROUP] = vec![7; STALL_LEN];
    let pool = Arc::new(BufferPool::new());
    let started = Instant::now();
    let mut sunk = 0;
    let result = encode_chunks(&scheme, &chunks, &config(3, &pool, None), |enc, pool| {
        enc.recycle(pool);
        sunk += 1;
        if sunk < 5 {
            return Ok(());
        }
        wait_until(|| scheme.encoded.load(SeqCst) >= 3);
        scheme.release_after.store(0, SeqCst);
        Err(CdStoreError::Remote("simulated store failure".into()))
    });
    assert!(matches!(result, Err(CdStoreError::Remote(_))));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{:?}",
        started.elapsed()
    );
    // No more groups were encoded than the pipeline holds (3 + 2).
    assert!(scheme.encoded.load(SeqCst) <= 5);
    assert_eq!(sunk, 5);
    assert_eq!(pool.stats().outstanding, 0, "buffers leaked");
}
