//! Measurement helpers for the low-level encode kernels: the GF(2^8) region
//! primitives (`xor_into`, `mul_into`, `mul_acc`), SHA-256, the AES-256 CTR
//! mask generator and CRC-32, per backend.
//!
//! Used by the `bench_kernels` binary (perf trajectory `BENCH_kernels.json`).
//! Every backend reported by [`Backend::available()`] is measured over the
//! same buffers, so the scalar row doubles as the baseline for the speedup
//! columns.

use std::time::Instant;

use cdstore_crypto::{aes, crc32, ctr, sha256};
use cdstore_gf::region::Backend;

use crate::MB;

/// Throughput of one measured kernel on one backend.
#[derive(Debug, Clone)]
pub struct KernelSpeed {
    /// Backend name (`scalar`, `ssse3`, `avx2`, `neon`, `sha-ni`, `aes-ni`,
    /// `pclmulqdq`).
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

/// Measures batched SHA-256 throughput on one backend: `reps` batch calls
/// over `lanes` messages of `msg_len` bytes each, median MB/s of total bytes.
/// On scalar hosts this is the 4-lane interleaved scheduler; on SHA-NI hosts
/// the hardware path per message.
pub fn sha_batch_speed(backend: sha256::Backend, msg_len: usize, lanes: usize, reps: usize) -> f64 {
    let mut flat = vec![0u8; msg_len * lanes];
    fill_deterministic(&mut flat, 0xE703_7ED1_A0B4_28DB);
    let msgs: Vec<&[u8]> = flat.chunks(msg_len).collect();
    let mut sink = 0u8;
    let mbps = measure(msg_len * lanes, reps, || {
        let digests = sha256::hash_batch_with(backend, &msgs);
        sink ^= digests[0][0];
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
