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
    /// Median throughput in MB/s of region bytes processed.
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

/// Measures `op` over `reps` timed repetitions (after one warmup) of a
/// `region_len`-byte pass and returns the median MB/s.
fn measure<F: FnMut()>(region_len: usize, reps: usize, mut op: F) -> f64 {
    op(); // warmup: fault pages in, settle the dispatch
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            op();
            region_len as f64 / MB / start.elapsed().as_secs_f64()
        })
        .collect();
    median(samples)
}

/// Measures one GF region kernel (`"xor"`, `"mul"`, or `"mul_acc"`) on one
/// backend: `reps` timed passes over a `region_len`-byte region, median MB/s.
pub fn gf_kernel_speed(backend: Backend, kernel: &str, region_len: usize, reps: usize) -> f64 {
    let mut src = vec![0u8; region_len];
    let mut dst = vec![0u8; region_len];
    fill_deterministic(&mut src, 0x9E37_79B9_7F4A_7C15);
    fill_deterministic(&mut dst, 0xD1B5_4A32_D192_ED03);
    // An arbitrary multiplier > 1 so the shuffle path is exercised (0 and 1
    // short-circuit before backend dispatch).
    let c = 0x1d;
    let mbps = measure(region_len, reps, || match kernel {
        "xor" => backend.xor_into(&mut dst, &src),
        "mul" => backend.mul_into(&mut dst, &src, c),
        "mul_acc" => backend.mul_acc(&mut dst, &src, c),
        other => panic!("unknown kernel {other}"),
    });
    std::hint::black_box(&dst);
    mbps
}

/// Measures single-message SHA-256 throughput on one backend: `reps` hashes
/// of one `msg_len`-byte message, median MB/s.
pub fn sha_single_speed(backend: sha256::Backend, msg_len: usize, reps: usize) -> f64 {
    let mut msg = vec![0u8; msg_len];
    fill_deterministic(&mut msg, 0xA076_1D64_78BD_642F);
    let mut sink = [0u8; 32];
    let mbps = measure(msg_len, reps, || {
        sink = sha256::hash_with(backend, &msg);
    });
    std::hint::black_box(sink);
    mbps
}

/// Measures batched SHA-256 throughput with one kernel: `reps` passes over
/// messages of the given lengths, hashed `group` at a time behind `prefix`,
/// median MB/s of message bytes.
pub fn sha_batch_speed(
    kernel: sha256::BatchKernel,
    prefix: &[u8],
    lens: &[usize],
    group: usize,
    reps: usize,
) -> f64 {
    let flat = filled(lens, 0xE703_7ED1_A0B4_28DB);
    let msgs = split_at_lens(&flat, lens);
    let mut sink = 0u8;
    let mbps = measure(flat.len(), reps, || {
        for batch in msgs.chunks(group) {
            let digests = sha256::hash_batch_with(kernel, prefix, batch);
            sink ^= digests[0][0];
        }
    });
    std::hint::black_box(sink);
    mbps
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

/// Measures the CAONT-RS encode of `count` secrets of about `msg_len` bytes
/// (mixed as [`mixed_lengths`]), shares fingerprinted, on the
/// production dispatch. Per secret (`grouped == false`): `split_into` and
/// one [`Fingerprint::of_batch`] of its `n` shares at a time, so no hash
/// batch exceeds `n` messages. As one group: the secrets copied into their
/// own buffers, [`SecretSharing::convergent_keys`],
/// [`SecretSharing::split_group`] and one `of_batch` over every share — what
/// the encode pipeline runs per group. `reps` timed passes, median MB/s of
/// secret bytes.
pub fn caont_split_speed(msg_len: usize, count: usize, grouped: bool, reps: usize) -> f64 {
    let scheme = CaontRs::new(4, 3).expect("valid (n, k)");
    let lens = mixed_lengths(msg_len, count);
    let flat = filled(&lens, 0x3C6E_F372_FE94_F82B);
    let secrets = split_at_lens(&flat, &lens);
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); count];
    let mut shares: Vec<Vec<Vec<u8>>> = vec![Vec::new(); count];
    let mut sink = 0u8;
    let mbps = measure(flat.len(), reps, || {
        let fingerprints = if grouped {
            for (buffer, secret) in buffers.iter_mut().zip(&secrets) {
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
            Fingerprint::of_batch(&refs)
        } else {
            let mut last = Vec::new();
            for (secret, shares) in secrets.iter().zip(&mut shares) {
                scheme.split_into(secret, shares).expect("split");
                let refs: Vec<&[u8]> = shares.iter().map(Vec::as_slice).collect();
                last = Fingerprint::of_batch(&refs);
            }
            last
        };
        sink ^= fingerprints[0].as_bytes()[0];
    });
    std::hint::black_box(sink);
    mbps
}

/// Measures AES-256-CTR throughput on one backend: one key expansion, then
/// `reps` timed keystream passes over a `region_len`-byte buffer, median MB/s.
pub fn aes_ctr_speed(backend: aes::Backend, region_len: usize, reps: usize) -> f64 {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x8EBC_6AF0_9C88_C6E3);
    let cipher = ctr::Aes256Ctr::with_backend(backend, &[0x5a; aes::KEY_SIZE], 0);
    let mbps = measure(region_len, reps, || cipher.apply_keystream(&mut buf, 0));
    std::hint::black_box(&buf);
    mbps
}

/// Measures the CAONT generator mask on one backend the way the encoder
/// calls it: `region_len` bytes as consecutive 8 KiB secrets (the average
/// chunk size), each masked under its own key, so the per-secret key
/// expansion is part of the rate. `reps` timed passes, median MB/s.
pub fn aes_generator_mask_speed(backend: aes::Backend, region_len: usize, reps: usize) -> f64 {
    const SECRET_LEN: usize = 8 * 1024;
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x5899_65CC_7537_4CC3);
    let mbps = measure(region_len, reps, || {
        for (i, secret) in buf.chunks_mut(SECRET_LEN).enumerate() {
            let h = [i as u8; 32];
            ctr::apply_generator_mask_with(backend, &h, secret);
        }
    });
    std::hint::black_box(&buf);
    mbps
}

/// Measures CRC-32 on one backend: `region_len` bytes summed as consecutive
/// `msg_len`-byte messages (a wire frame is megabytes, a journal record 76
/// bytes — the per-call cost matters for the second). `reps` timed passes,
/// median MB/s.
pub fn crc32_speed(backend: crc32::Backend, msg_len: usize, region_len: usize, reps: usize) -> f64 {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x517C_C1B7_2722_0A95);
    let mut sink = 0u32;
    let mbps = measure(region_len, reps, || {
        for msg in buf.chunks(msg_len) {
            sink ^= crc32::crc32_with(backend, msg);
        }
    });
    std::hint::black_box(sink);
    mbps
}

/// FastCDC boundary search at [`ChunkerConfig::default`]: a cutter run over
/// a random `region_len`-byte region, cut points only (no chunk copies),
/// median MB/s.
pub fn gear_scan_speed(region_len: usize, reps: usize) -> f64 {
    let mut buf = vec![0u8; region_len];
    fill_deterministic(&mut buf, 0x6EA2_5CA1_0F00_D5ED);
    let chunker = FastCdcChunker::new(ChunkerConfig::default());
    let mut cuts = 0usize;
    let mbps = measure(region_len, reps, || {
        let mut cutter = chunker.cutter();
        let mut rest = &buf[..];
        while let Some(consumed) = cutter.find_boundary(rest) {
            rest = &rest[consumed..];
            cuts += 1;
        }
    });
    std::hint::black_box(cuts);
    mbps
}

/// Runs one GF kernel across all available backends.
pub fn gf_kernel_all_backends(kernel: &str, region_len: usize, reps: usize) -> Vec<KernelSpeed> {
    Backend::available()
        .into_iter()
        .map(|b| KernelSpeed {
            backend: b.name(),
            mbps: gf_kernel_speed(b, kernel, region_len, reps),
        })
        .collect()
}
