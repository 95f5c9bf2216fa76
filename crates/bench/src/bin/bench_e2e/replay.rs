//! Stage replay: a sample of the workload's own bytes fed single-threaded
//! through each lower layer's public functions in isolation, at the sizes
//! the data path really uses (≈8 KiB secrets, ≈2.7 KiB shares, 4 MiB
//! batches). Every rate is payload MiB per wall second of that stage alone.

use std::sync::Arc;
use std::time::Instant;

use cdstore_chunking::{ChunkStream, ChunkerConfig, ChunkerKind};
use cdstore_core::{
    encode_stream, CdStoreError, CdStoreServer, PipelineConfig, ServerTransport, ShareMetadata,
    RESTORE_WINDOW_SECRETS, UPLOAD_BATCH_BYTES,
};
use cdstore_crypto::{ctr, sha256, Fingerprint};
use cdstore_erasure::ReedSolomon;
use cdstore_gf::region;
use cdstore_index::{KvStoreConfig, ShardedShareIndex};
use cdstore_net::frame::{decode_frame, encode_frame};
use cdstore_net::message::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use cdstore_net::{LoopbackCluster, NetClientConfig};
use cdstore_secretsharing::{BufferPool, CaontRs, SecretSharing};
use cdstore_storage::{ContainerStore, MemoryBackend, ShareLocation, StorageBackend};

use crate::metrics::median;
use crate::workloads::{Inputs, K, N};

const MIB: f64 = (1u64 << 20) as f64;

/// Everything the replay measured; field names match the metric names.
#[derive(Debug, Default)]
pub struct Stages {
    pub sample_bytes: u64,
    pub fastcdc_mib_s: f64,
    pub aes_ctr_mib_s: f64,
    pub sha256_mib_s: f64,
    pub fingerprint_batch_mib_s: f64,
    pub bytes_hashed_per_logical: f64,
    pub bytes_enciphered_per_logical: f64,
    pub mul_acc_share_mib_s: f64,
    pub rs_encode_mib_s: f64,
    pub rs_decode_systematic_mib_s: f64,
    pub rs_decode_parity_mib_s: f64,
    pub split_mib_s: f64,
    pub reconstruct_mib_s: f64,
    pub reconstruct_parity_mib_s: f64,
    pub pool_peak_buffers: f64,
    pub pool_reuse_ratio: f64,
    pub encode_stream_mib_s: f64,
    pub encode_stream_1t_mib_s: f64,
    pub server_store_unique_mib_s: f64,
    pub server_store_dup_mib_s: f64,
    pub server_fetch_mib_s: f64,
    pub index_insert_kops_s: f64,
    pub index_lookup_hit_kops_s: f64,
    pub index_lookup_miss_kops_s: f64,
    pub index_block_cache_hit_ratio: f64,
    pub index_bytes_per_entry: f64,
    pub container_append_mib_s: f64,
    pub container_read_mib_s: f64,
    pub frame_encode_mib_s: f64,
    pub frame_decode_mib_s: f64,
    pub probe_codec_us: f64,
    pub rpc_roundtrip_us: f64,
    pub store_rpc_mib_s: f64,
    pub fetch_rpc_mib_s: f64,
}

impl Stages {
    /// Keeps, field by field, the better of `self` and another pass: the
    /// higher rate, the lower latency. Counts and ratios repeat from pass to
    /// pass and are left alone.
    fn keep_best(&mut self, pass: &Stages) {
        macro_rules! keep {
            ($pick:path: $($field:ident),+) => {
                $(self.$field = $pick(self.$field, pass.$field);)+
            };
        }
        keep!(f64::max: fastcdc_mib_s, aes_ctr_mib_s, sha256_mib_s, fingerprint_batch_mib_s,
            mul_acc_share_mib_s, rs_encode_mib_s, rs_decode_systematic_mib_s,
            rs_decode_parity_mib_s, split_mib_s, reconstruct_mib_s, reconstruct_parity_mib_s,
            encode_stream_mib_s, encode_stream_1t_mib_s, server_store_unique_mib_s,
            server_store_dup_mib_s, server_fetch_mib_s, index_insert_kops_s,
            index_lookup_hit_kops_s, index_lookup_miss_kops_s, container_append_mib_s,
            container_read_mib_s, frame_encode_mib_s, frame_decode_mib_s, store_rpc_mib_s,
            fetch_rpc_mib_s);
        keep!(f64::min: probe_codec_us, rpc_roundtrip_us);
    }

    /// The single-thread encode rate the stage rates imply: one FastCDC
    /// pass, `H(X)` and `H(Y)`, the AES mask, the Reed-Solomon parity, and
    /// the `n/k` bytes of share fingerprints per secret byte.
    pub fn encode_ceiling_mib_s(&self) -> f64 {
        let per_mib = 1.0 / self.fastcdc_mib_s
            + 2.0 / self.sha256_mib_s
            + 1.0 / self.aes_ctr_mib_s
            + 1.0 / self.rs_encode_mib_s
            + (N as f64 / K as f64) / self.fingerprint_batch_mib_s;
        1.0 / per_mib
    }
}

fn rate_mib_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / MIB / secs
}

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// How many times the whole replay runs. Each stage keeps its fastest pass,
/// for the same reason the end-to-end run reports its best repetition: the
/// host only ever slows a pass down. The passes of one stage are seconds
/// apart, so one burst of interference cannot reach them all.
const PASSES: usize = 3;

/// The first files of the workload, up to `budget` bytes (at least one).
fn sample_files(inputs: &Inputs, budget: usize) -> Vec<&[u8]> {
    let mut files = Vec::new();
    let mut total = 0usize;
    for file in &inputs.files {
        let room = budget.saturating_sub(total);
        if room == 0 {
            break;
        }
        let take = file.data.len().min(room);
        files.push(&file.data[..take]);
        total += take;
    }
    files
}

pub fn run(inputs: &Inputs, sample_budget: usize) -> Result<Stages, CdStoreError> {
    let mut best = run_once(inputs, sample_budget)?;
    for _ in 1..PASSES {
        best.keep_best(&run_once(inputs, sample_budget)?);
    }
    Ok(best)
}

fn run_once(inputs: &Inputs, sample_budget: usize) -> Result<Stages, CdStoreError> {
    let mut s = Stages::default();
    let files = sample_files(inputs, sample_budget);
    let sample_bytes: u64 = files.iter().map(|f| f.len() as u64).sum();
    s.sample_bytes = sample_bytes;
    let chunker = ChunkerKind::FastCdc.build(ChunkerConfig::default());
    let scheme = CaontRs::new(N, K)?;
    let rs = ReedSolomon::new(N, K).map_err(|e| CdStoreError::InvalidConfig(e.to_string()))?;

    // --- chunking: the streaming cutter the pipeline uses, file by file.
    // Cloning each chunk out is inside the clock but small next to the
    // scan; the chunks are what every later stage consumes.
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    s.fastcdc_mib_s = rate_mib_s(
        sample_bytes,
        secs(|| {
            let mut chunk = Vec::new();
            for file in &files {
                let mut stream = ChunkStream::new(chunker.as_ref(), *file);
                while stream
                    .next_chunk_into(&mut chunk)
                    .expect("slice reads cannot fail")
                {
                    chunks.push(chunk.clone());
                }
            }
        }),
    );

    // --- crypto: the exact calls CAONT-RS makes, at secret size.
    let key = sha256::hash(b"bench_e2e replay key");
    let mut scratch: Vec<Vec<u8>> = chunks.clone();
    s.aes_ctr_mib_s = rate_mib_s(
        sample_bytes,
        secs(|| {
            for buf in &mut scratch {
                ctr::apply_generator_mask(&key, buf);
            }
        }),
    );
    drop(scratch);
    s.sha256_mib_s = rate_mib_s(
        sample_bytes,
        secs(|| {
            for chunk in &chunks {
                std::hint::black_box(sha256::hash(chunk));
            }
        }),
    );

    // --- secretsharing: split into pooled buffers, as the pipeline does.
    let pool = BufferPool::new();
    let mut shares_of: Vec<Vec<Vec<u8>>> = Vec::with_capacity(chunks.len());
    s.split_mib_s = rate_mib_s(
        sample_bytes,
        secs(|| {
            for chunk in &chunks {
                let mut shares: Vec<Vec<u8>> = (0..N).map(|_| pool.get()).collect();
                scheme
                    .split_into(chunk, &mut shares)
                    .expect("CAONT-RS split");
                shares_of.push(shares);
            }
        }),
    );
    let share_bytes: u64 = shares_of.iter().flatten().map(|s| s.len() as u64).sum();
    let (mut hashed, mut enciphered) = (0u64, 0u64);
    for chunk in &chunks {
        let padded = scheme.padded_secret_len(chunk.len()) as u64;
        hashed += 2 * padded + (N * scheme.share_size(chunk.len())) as u64;
        enciphered += padded;
    }
    s.bytes_hashed_per_logical = hashed as f64 / sample_bytes as f64;
    s.bytes_enciphered_per_logical = enciphered as f64 / sample_bytes as f64;

    s.fingerprint_batch_mib_s = rate_mib_s(
        share_bytes,
        secs(|| {
            for shares in &shares_of {
                let refs: Vec<&[u8]> = shares.iter().map(|s| s.as_slice()).collect();
                std::hint::black_box(Fingerprint::of_batch(&refs));
            }
        }),
    );

    // --- gf / erasure at the real share size.
    let data_bytes: u64 = shares_of.iter().map(|s| K as u64 * s[0].len() as u64).sum();
    let mut parity = Vec::new();
    s.mul_acc_share_mib_s = rate_mib_s(
        data_bytes,
        secs(|| {
            for shares in &shares_of {
                parity.clear();
                parity.resize(shares[0].len(), 0);
                for (j, share) in shares[..K].iter().enumerate() {
                    region::mul_acc(&mut parity, share, 2 + j as u8);
                }
            }
        }),
    );
    let packages: Vec<Vec<u8>> = shares_of.iter().map(|s| s[..K].concat()).collect();
    let mut out = Vec::new();
    s.rs_encode_mib_s = rate_mib_s(
        data_bytes,
        secs(|| {
            for package in &packages {
                rs.encode_into(package, &mut out).expect("RS encode");
            }
        }),
    );
    let decode = |present: [usize; K]| {
        rate_mib_s(
            data_bytes,
            secs(|| {
                for (shares, package) in shares_of.iter().zip(&packages) {
                    let mut slots: [Option<&[u8]>; N] = [None; N];
                    for &i in &present {
                        slots[i] = Some(&shares[i]);
                    }
                    std::hint::black_box(
                        rs.reconstruct_data_borrowed(&slots, package.len())
                            .expect("RS decode"),
                    );
                }
            }),
        )
    };
    s.rs_decode_systematic_mib_s = decode([0, 1, 2]);
    s.rs_decode_parity_mib_s = decode([1, 2, 3]);
    drop(packages);

    // --- secretsharing: reconstruct from the first k clouds (what a normal
    // restore fetches) and with cloud 0 missing (the degraded pass). The
    // owned share slots are prepared outside the clock, a window at a time.
    let reconstruct = |missing: usize| {
        let mut total = 0.0;
        for (window, secrets) in shares_of
            .chunks(RESTORE_WINDOW_SECRETS)
            .zip(chunks.chunks(RESTORE_WINDOW_SECRETS))
        {
            let slots: Vec<Vec<Option<Vec<u8>>>> = window
                .iter()
                .map(|shares| {
                    (0..N)
                        .map(|i| (i != missing).then(|| shares[i].clone()))
                        .collect()
                })
                .collect();
            total += secs(|| {
                for (slots, secret) in slots.iter().zip(secrets) {
                    let restored = scheme
                        .reconstruct(slots, secret.len())
                        .expect("reconstruct");
                    assert_eq!(restored.len(), secret.len());
                }
            });
        }
        rate_mib_s(sample_bytes, total)
    };
    s.reconstruct_mib_s = reconstruct(N - 1);
    s.reconstruct_parity_mib_s = reconstruct(0);

    // --- core, client side: the streaming encode pipeline, file by file,
    // with the default thread count and with one thread.
    let encode = |config: PipelineConfig| -> Result<f64, CdStoreError> {
        let start = Instant::now();
        for file in &files {
            encode_stream(
                &scheme,
                chunker.as_ref(),
                *file,
                &config,
                |mut enc, pool| {
                    pool.put_all(&mut enc.shares);
                    Ok(())
                },
            )?;
        }
        Ok(rate_mib_s(sample_bytes, start.elapsed().as_secs_f64()))
    };
    let observed = Arc::new(BufferPool::new());
    s.encode_stream_mib_s = encode(PipelineConfig {
        pool: Some(observed.clone()),
        ..PipelineConfig::default()
    })?;
    let stats = observed.stats();
    s.pool_peak_buffers = stats.peak_outstanding as f64;
    s.pool_reuse_ratio = stats.reuses as f64 / (stats.reuses + stats.allocations).max(1) as f64;
    s.encode_stream_1t_mib_s = encode(PipelineConfig {
        encode_threads: 1,
        ..PipelineConfig::default()
    })?;

    // --- cloud 0's shares as upload batches, for the server, storage,
    // index, and net stages.
    let mut batches: Vec<Vec<(ShareMetadata, Vec<u8>)>> = vec![Vec::new()];
    let mut fill = 0u64;
    let mut seen = std::collections::HashSet::new();
    for (seq, (shares, chunk)) in shares_of.iter().zip(&chunks).enumerate() {
        let share = &shares[0];
        let fingerprint = Fingerprint::of(share);
        if !seen.insert(fingerprint) {
            continue;
        }
        if fill >= UPLOAD_BATCH_BYTES {
            batches.push(Vec::new());
            fill = 0;
        }
        fill += share.len() as u64;
        batches.last_mut().expect("non-empty").push((
            ShareMetadata {
                fingerprint,
                share_size: share.len() as u32,
                secret_seq: seq as u64,
                secret_size: chunk.len() as u32,
            },
            share.clone(),
        ));
    }
    let batch_bytes: u64 = batches.iter().flatten().map(|(_, d)| d.len() as u64).sum();
    let fingerprints: Vec<Fingerprint> = batches
        .iter()
        .flatten()
        .map(|(m, _)| m.fingerprint)
        .collect();
    drop(shares_of);
    drop(chunks);

    // --- core, server side: direct calls on one server — every share new,
    // the same shares again from a second user, then fetched back in
    // restore-sized windows.
    let store_all = |server: &dyn ServerTransport, user: u64| -> Result<f64, CdStoreError> {
        let start = Instant::now();
        for batch in &batches {
            server.store_shares(user, batch)?;
        }
        Ok(rate_mib_s(batch_bytes, start.elapsed().as_secs_f64()))
    };
    let fetch_all = |server: &dyn ServerTransport, user: u64| -> Result<f64, CdStoreError> {
        let start = Instant::now();
        let mut fetched = 0u64;
        for window in fingerprints.chunks(RESTORE_WINDOW_SECRETS) {
            fetched += server
                .fetch_shares(user, window)?
                .iter()
                .map(|s| s.len() as u64)
                .sum::<u64>();
        }
        assert_eq!(
            fetched, batch_bytes,
            "server returned different share bytes"
        );
        Ok(rate_mib_s(batch_bytes, start.elapsed().as_secs_f64()))
    };
    let server = CdStoreServer::with_backend(0, Arc::new(MemoryBackend::new()));
    s.server_store_unique_mib_s = store_all(&server, 1)?;
    s.server_store_dup_mib_s = store_all(&server, 2)?;
    ServerTransport::flush(&server)?;
    s.server_fetch_mib_s = fetch_all(&server, 1)?;
    drop(server);

    // --- storage: the container store on its own.
    let containers = ContainerStore::new(Arc::new(MemoryBackend::new()));
    let mut locations: Vec<ShareLocation> = Vec::with_capacity(fingerprints.len());
    s.container_append_mib_s = rate_mib_s(
        batch_bytes,
        secs(|| {
            for (meta, data) in batches.iter().flatten() {
                locations.push(
                    containers
                        .store_share(1, meta.fingerprint, data)
                        .expect("container append"),
                );
            }
            containers.flush().expect("container flush");
        }),
    );
    s.container_read_mib_s = rate_mib_s(
        batch_bytes,
        secs(|| {
            for location in &locations {
                std::hint::black_box(containers.fetch(location).expect("container read"));
            }
        }),
    );
    drop(containers);

    // --- index: a disk-resident sharded share index over a memory backend.
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let index = ShardedShareIndex::create(backend.clone(), "replay", KvStoreConfig::default())?;
    let kops = |count: usize, secs: f64| count as f64 / 1e3 / secs;
    s.index_insert_kops_s = kops(
        locations.len(),
        secs(|| {
            for (fp, location) in fingerprints.iter().zip(&locations) {
                index
                    .add_reference_or_store(fp, 1, || Ok::<_, CdStoreError>(*location))
                    .expect("index insert");
            }
        }),
    );
    // Freeze the memtables so lookups exercise runs, Bloom filters, and the
    // block cache rather than the in-memory write buffer.
    index.flush_runs()?;
    s.index_lookup_hit_kops_s = kops(
        fingerprints.len(),
        secs(|| {
            for fp in &fingerprints {
                assert!(index.lookup(fp).is_some());
            }
        }),
    );
    let absent: Vec<Fingerprint> = fingerprints
        .iter()
        .map(|fp| Fingerprint::tagged(b"absent", fp.as_bytes()))
        .collect();
    s.index_lookup_miss_kops_s = kops(
        absent.len(),
        secs(|| {
            for fp in &absent {
                assert!(index.lookup(fp).is_none());
            }
        }),
    );
    if let Some(cache) = index.cache_stats() {
        s.index_block_cache_hit_ratio =
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
    }
    s.index_bytes_per_entry = backend.total_bytes()? as f64 / index.unique_shares().max(1) as f64;
    drop(index);

    // --- net: codecs on a real batch and on a probe, then RPCs over one
    // loopback connection to one server.
    let request = Request::StoreShares {
        user: 1,
        shares: batches[0].clone(),
    };
    let request_bytes: u64 = batches[0].iter().map(|(_, d)| d.len() as u64).sum();
    let mut frame = Vec::new();
    s.frame_encode_mib_s = rate_mib_s(
        request_bytes,
        secs(|| {
            let (msg_type, payload) = encode_request(1, &request);
            frame = encode_frame(msg_type, &payload);
        }),
    );
    s.frame_decode_mib_s = rate_mib_s(
        request_bytes,
        secs(|| {
            let (msg_type, payload, _) = decode_frame(&frame)
                .expect("valid frame")
                .expect("complete frame");
            assert!(decode_request(msg_type, &payload).is_some());
        }),
    );
    drop(frame);
    drop(request);
    const PROBES: usize = 1000;
    s.probe_codec_us = secs(|| {
        for id in 0..PROBES as u64 {
            let (t, p) = encode_request(id, &Request::Probe);
            let (t, p, _) = decode_frame(&encode_frame(t, &p))
                .expect("valid")
                .expect("complete");
            assert!(decode_request(t, &p).is_some());
            let (t, p) = encode_response(id, &Response::Probe(Default::default()));
            let (t, p, _) = decode_frame(&encode_frame(t, &p))
                .expect("valid")
                .expect("complete");
            assert!(decode_response(t, &p).is_some());
        }
    }) * 1e6
        / PROBES as f64;

    let core = Arc::new(CdStoreServer::with_backend(
        0,
        Arc::new(MemoryBackend::new()),
    ));
    let cluster = LoopbackCluster::spawn_with_servers(vec![core])
        .map_err(|e| CdStoreError::Remote(e.to_string()))?;
    let remote = cluster
        .transports(NetClientConfig {
            connections: 1,
            ..NetClientConfig::default()
        })?
        .pop()
        .expect("one transport");
    let mut roundtrips_us = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let start = Instant::now();
        remote.probe()?;
        roundtrips_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    s.rpc_roundtrip_us = median(&roundtrips_us);
    s.store_rpc_mib_s = store_all(&remote, 1)?;
    remote.flush()?;
    s.fetch_rpc_mib_s = fetch_all(&remote, 1)?;
    drop(remote);
    drop(cluster);

    Ok(s)
}
