//! Measurement helpers for the low-level encode kernels: the GF(2^8) region
//! primitives (`xor_into`, `mul_into`, `mul_acc`), SHA-256, the AES-256 CTR
//! mask generator and CRC-32, per backend, the FastCDC gear scan — and the
//! CAONT-RS encode they compose, per secret and per group.
//!
//! Used by the `bench_kernels` binary (perf trajectory `BENCH_kernels.json`).
//! Every backend reported by [`Backend::available()`] is measured over the
//! same buffers, so the scalar row doubles as the baseline for the speedup
//! columns.

use std::time::Instant;

use cdstore_chunking::{Chunker, ChunkerConfig, FastCdcChunker};
use cdstore_crypto::{aes, crc32, ctr, sha256, Fingerprint};
use cdstore_gf::region::Backend;
use cdstore_secretsharing::{CaontRs, GroupSplit, SecretSharing};

use crate::MB;

/// Throughput of one measured kernel on one backend.
#[derive(Debug, Clone)]
pub struct KernelSpeed {
    /// Backend name (`scalar`, `ssse3`, `avx2`, `neon`, `sha-ni`, `x4`,
    /// `avx512x16`, `aes-ni`, `pclmulqdq`).
    pub backend: &'static str,
    /// Median throughput in MB/s of region bytes processed, over this
    /// backend's passes of its row.
    pub mbps: f64,
}

fn fill_deterministic(buf: &mut [u8], mut seed: u64) {
    for b in buf.iter_mut() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        *b = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    samples[samples.len() / 2]
}

/// One backend's timed pass over a row's region.
type Pass<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// Times the backends of one row against each other: one warm-up pass each
/// (fault pages in, settle the dispatch), then `reps` rounds that run every
/// backend's pass once, each round starting one backend later than the
/// last. Each backend reports the median MB/s of its own passes over
/// `region_len` bytes. A neighbour's burst on a shared host then lands on
/// every backend of the row alike instead of on whichever ran alone in it.
fn measure_row(region_len: usize, reps: usize, mut passes: Vec<Pass<'_>>) -> Vec<KernelSpeed> {
    for (_, pass) in &mut passes {
        pass();
    }
    let count = passes.len();
    let mut samples = vec![Vec::with_capacity(reps); count];
    for round in 0..reps {
        for i in (0..count).map(|i| (i + round) % count) {
            let start = Instant::now();
            (passes[i].1)();
            samples[i].push(region_len as f64 / MB / start.elapsed().as_secs_f64());
        }
    }
    (passes.iter().zip(samples))
        .map(|((backend, _), samples)| KernelSpeed {
            backend,
            mbps: median(samples),
        })
        .collect()
}

/// One GF region kernel (`"xor"`, `"mul"`, or `"mul_acc"`) on every
/// available backend, each over its own copy of one `region_len`-byte
/// region.
pub fn gf_kernel_speeds(kernel: &'static str, region_len: usize, reps: usize) -> Vec<KernelSpeed> {
    let mut src = vec![0u8; region_len];
    fill_deterministic(&mut src, 0x9E37_79B9_7F4A_7C15);
    let src = &src;
    let passes = (Backend::available().into_iter())
        .map(|backend| {
            let mut dst = vec![0u8; region_len];
            fill_deterministic(&mut dst, 0xD1B5_4A32_D192_ED03);
            // An arbitrary multiplier > 1 so the shuffle path is exercised
            // (0 and 1 short-circuit before backend dispatch).
            let c = 0x1d;
            let pass: Box<dyn FnMut()> = Box::new(move || {
                match kernel {
                    "xor" => backend.xor_into(&mut dst, src),
                    "mul" => backend.mul_into(&mut dst, src, c),
                    "mul_acc" => backend.mul_acc(&mut dst, src, c),
                    other => panic!("unknown kernel {other}"),
                }
                std::hint::black_box(&dst);
            });
            (backend.name(), pass)
        })
        .collect();
    measure_row(region_len, reps, passes)
}

/// Single-message SHA-256 on every available backend: one `msg_len`-byte
/// message a pass.
pub fn sha_single_speeds(msg_len: usize, reps: usize) -> Vec<KernelSpeed> {
    let mut msg = vec![0u8; msg_len];
    fill_deterministic(&mut msg, 0xA076_1D64_78BD_642F);
    let msg = &msg;
    let passes = (sha256::Backend::available().into_iter())
        .map(|backend| {
            let pass: Box<dyn FnMut()> = Box::new(move || {
                std::hint::black_box(sha256::hash_with(backend, msg));
            });
            (backend.name(), pass)
        })
        .collect();
    measure_row(msg_len, reps, passes)
}

/// Batched SHA-256 on every available batch kernel: a pass hashes messages
/// of the given lengths `group` at a time behind `prefix`; MB/s of message
/// bytes.
pub fn sha_batch_speeds(
    prefix: &[u8],
    lens: &[usize],
    group: usize,
    reps: usize,
) -> Vec<KernelSpeed> {
    let flat = filled(lens, 0xE703_7ED1_A0B4_28DB);
    let msgs = split_at_lens(&flat, lens);
    let msgs = &msgs;
    let passes = (sha256::BatchKernel::available().into_iter())
        .map(|kernel| {
            let pass: Box<dyn FnMut()> = Box::new(move || {
                for batch in msgs.chunks(group) {
                    let digests = sha256::hash_batch_with(kernel, prefix, batch);
                    std::hint::black_box(digests[0][0]);
                }
            });
            (kernel.name(), pass)
        })
        .collect();
    measure_row(flat.len(), reps, passes)
}

/// `count` lengths within ±25 % of `msg_len` (share- or chunk-sized, so
/// lanes refill and hand off as they do on the data path).
pub fn mixed_lengths(msg_len: usize, count: usize) -> Vec<usize> {
    (0..count)
        .map(|i| msg_len * 3 / 4 + (i * 0x9E37) % (msg_len / 2 + 1))
        .collect()
}

/// The lengths of the chunks FastCDC cuts, at [`ChunkerConfig::default`],
/// from `region_len` random bytes: the data path's secret lengths.
pub fn fastcdc_lengths(region_len: usize) -> Vec<usize> {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x94D0_49BB_1331_11EB);
    let chunker = FastCdcChunker::new(ChunkerConfig::default());
    chunker.chunk(&buf).iter().map(|c| c.len()).collect()
}

/// The lengths of the `n` shares (4, 3) CAONT-RS makes of each secret.
pub fn caont_share_lengths(secret_lens: &[usize]) -> Vec<usize> {
    let scheme = CaontRs::new(4, 3).expect("valid (n, k)");
    (secret_lens.iter())
        .flat_map(|&len| [scheme.share_size(len); 4])
        .collect()
}

/// Deterministic bytes for messages of the given lengths, concatenated.
fn filled(lens: &[usize], seed: u64) -> Vec<u8> {
    let mut flat = vec![0u8; lens.iter().sum()];
    fill_deterministic(&mut flat, seed);
    flat
}

/// `flat` cut into consecutive messages of the given lengths.
fn split_at_lens<'a>(mut flat: &'a [u8], lens: &[usize]) -> Vec<&'a [u8]> {
    lens.iter()
        .map(|&len| {
            let (msg, rest) = flat.split_at(len);
            flat = rest;
            msg
        })
        .collect()
}

/// The CAONT-RS encode of `count` secrets of about `msg_len` bytes (mixed
/// as [`mixed_lengths`]), shares fingerprinted, on the production
/// dispatch, in two ways timed against each other. `per_secret`:
/// `split_into` and one [`Fingerprint::of_batch`] of its `n` shares at a
/// time, so no hash batch exceeds `n` messages. `group`: the secrets copied
/// into their own buffers, [`SecretSharing::convergent_keys`],
/// [`SecretSharing::split_group`] and one `of_batch` over every share —
/// what the encode pipeline runs per group. MB/s of secret bytes.
pub fn caont_split_speeds(msg_len: usize, count: usize, reps: usize) -> Vec<KernelSpeed> {
    let scheme = CaontRs::new(4, 3).expect("valid (n, k)");
    let scheme = &scheme;
    let lens = mixed_lengths(msg_len, count);
    let flat = filled(&lens, 0x3C6E_F372_FE94_F82B);
    let secrets = split_at_lens(&flat, &lens);
    let secrets = &secrets;
    let mut shares: Vec<Vec<Vec<u8>>> = vec![Vec::new(); count];
    let per_secret: Box<dyn FnMut()> = Box::new(move || {
        let mut last = Vec::new();
        for (secret, shares) in secrets.iter().zip(&mut shares) {
            scheme.split_into(secret, shares).expect("split");
            let refs: Vec<&[u8]> = shares.iter().map(Vec::as_slice).collect();
            last = Fingerprint::of_batch(&refs);
        }
        std::hint::black_box(last[0].as_bytes()[0]);
    });
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); count];
    let mut shares: Vec<Vec<Vec<u8>>> = vec![Vec::new(); count];
    let group: Box<dyn FnMut()> = Box::new(move || {
        for (buffer, secret) in buffers.iter_mut().zip(secrets) {
            buffer.clear();
            buffer.extend_from_slice(secret);
        }
        let keys = scheme.convergent_keys(&mut buffers).expect("CAONT-RS keys");
        let mut group: Vec<GroupSplit<'_>> = (buffers.iter_mut().zip(&mut shares).zip(&keys))
            .map(|((secret, shares), key)| GroupSplit {
                secret,
                key: Some(key),
                shares,
            })
            .collect();
        scheme.split_group(&mut group, &mut 0).expect("split");
        let refs: Vec<&[u8]> = shares.iter().flatten().map(Vec::as_slice).collect();
        std::hint::black_box(Fingerprint::of_batch(&refs)[0].as_bytes()[0]);
    });
    let passes = vec![("per_secret", per_secret), ("group", group)];
    measure_row(flat.len(), reps, passes)
}

/// AES-256-CTR on every available backend: one key expansion, then a
/// keystream pass over a `region_len`-byte buffer.
pub fn aes_ctr_speeds(region_len: usize, reps: usize) -> Vec<KernelSpeed> {
    let passes = (aes::Backend::available().into_iter())
        .map(|backend| {
            let mut buf = vec![0u8; region_len];
            fill_deterministic(&mut buf, 0x8EBC_6AF0_9C88_C6E3);
            let cipher = ctr::Aes256Ctr::with_backend(backend, &[0x5a; aes::KEY_SIZE], 0);
            let pass: Box<dyn FnMut()> = Box::new(move || {
                cipher.apply_keystream(&mut buf, 0);
                std::hint::black_box(&buf);
            });
            (backend.name(), pass)
        })
        .collect();
    measure_row(region_len, reps, passes)
}

/// The CAONT generator mask on every available backend, the way the
/// encoder calls it: `region_len` bytes as consecutive 8 KiB secrets (the
/// average chunk size), each masked under its own key, so the per-secret
/// key expansion is part of the rate.
pub fn aes_generator_mask_speeds(region_len: usize, reps: usize) -> Vec<KernelSpeed> {
    const SECRET_LEN: usize = 8 * 1024;
    let passes = (aes::Backend::available().into_iter())
        .map(|backend| {
            let mut buf = vec![0u8; region_len];
            fill_deterministic(&mut buf, 0x5899_65CC_7537_4CC3);
            let pass: Box<dyn FnMut()> = Box::new(move || {
                for (i, secret) in buf.chunks_mut(SECRET_LEN).enumerate() {
                    let h = [i as u8; 32];
                    ctr::apply_generator_mask_with(backend, &h, secret);
                }
                std::hint::black_box(&buf);
            });
            (backend.name(), pass)
        })
        .collect();
    measure_row(region_len, reps, passes)
}

/// CRC-32 on every available backend: `region_len` bytes summed as
/// consecutive `msg_len`-byte messages (a wire frame is megabytes, a
/// journal record 76 bytes — the per-call cost matters for the second).
pub fn crc32_speeds(msg_len: usize, region_len: usize, reps: usize) -> Vec<KernelSpeed> {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x517C_C1B7_2722_0A95);
    let buf = &buf;
    let passes = (crc32::Backend::available().into_iter())
        .map(|backend| {
            let pass: Box<dyn FnMut()> = Box::new(move || {
                for msg in buf.chunks(msg_len) {
                    std::hint::black_box(crc32::crc32_with(backend, msg));
                }
            });
            (backend.name(), pass)
        })
        .collect();
    measure_row(region_len, reps, passes)
}

/// FastCDC boundary search at [`ChunkerConfig::default`]: a cutter run over
/// a random `region_len`-byte region, cut points only (no chunk copies),
/// one portable implementation.
pub fn gear_scan_speeds(region_len: usize, reps: usize) -> Vec<KernelSpeed> {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x6EA2_5CA1_0F00_D5ED);
    let chunker = FastCdcChunker::new(ChunkerConfig::default());
    let pass: Box<dyn FnMut()> = Box::new(|| {
        let mut cutter = chunker.cutter();
        let mut rest = &buf[..];
        while let Some(consumed) = cutter.find_boundary(rest) {
            rest = &rest[consumed..];
            std::hint::black_box(consumed);
        }
    });
    measure_row(region_len, reps, vec![("scalar", pass)])
}
