//! Perf trajectory for the low-level kernels: GF(2^8) region primitives,
//! SHA-256, the AES-256 mask generator and CRC-32, per ISA backend, written
//! to `BENCH_kernels.json` so this and future PRs leave a comparable curve
//! (companion to `bench_encode`'s `BENCH_encode.json`).
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin bench_kernels [-- out_path] [region_mb | --smoke]
//! ```
//!
//! Defaults: `BENCH_kernels.json` in the current directory, 8 MB regions.
//! `--smoke` (as the second argument) shrinks the regions and repetitions
//! for CI sanity runs. Every backend reported by the runtime detectors is
//! measured; the `speedup_vs_scalar` column is the acceptance criterion for
//! the SIMD kernels (≥ 4x for `mul_acc` on SIMD-capable hosts).

use serde::Serialize;

use cdstore_bench::fmt_speed;
use cdstore_bench::kernelbench::{
    aes_ctr_speed, aes_generator_mask_speed, crc32_speed, gf_kernel_all_backends, sha_batch_speed,
    sha_single_speed, KernelSpeed,
};
use cdstore_crypto::{aes, crc32, sha256};
use cdstore_gf::region;

/// One measured (kernel, backend) row.
#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    backend: &'static str,
    mbps: f64,
    /// This backend's throughput over the scalar baseline for the same
    /// kernel; 1.0 for the scalar rows themselves.
    speedup_vs_scalar: f64,
}

/// The whole snapshot written to `BENCH_kernels.json`.
#[derive(Serialize)]
struct BenchKernels {
    schema_version: u32,
    region_bytes: usize,
    reps: usize,
    /// Backend the production dispatch selected on this host.
    gf_active_backend: &'static str,
    sha_active_backend: &'static str,
    aes_active_backend: &'static str,
    crc32_active_backend: &'static str,
    rows: Vec<KernelRow>,
}

fn rows_from(kernel: &str, speeds: &[KernelSpeed]) -> Vec<KernelRow> {
    let scalar = speeds
        .iter()
        .find(|s| s.backend == "scalar")
        .expect("scalar backend is always available")
        .mbps;
    speeds
        .iter()
        .map(|s| KernelRow {
            kernel: kernel.to_string(),
            backend: s.backend,
            mbps: s.mbps,
            speedup_vs_scalar: s.mbps / scalar,
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_kernels.json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let (region_bytes, reps) = if smoke {
        (256 * 1024, 5)
    } else {
        let mb: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(8);
        (mb * 1024 * 1024, 9)
    };

    let mut rows = Vec::new();
    for kernel in ["xor", "mul", "mul_acc"] {
        let speeds = gf_kernel_all_backends(kernel, region_bytes, reps);
        for s in &speeds {
            println!("gf/{kernel:<8} {:<7} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(&format!("gf/{kernel}"), &speeds));
    }

    // SHA-256: one long message (the streaming hasher), then batches per
    // batch kernel (single-stream backends and lane kernels) at the sizes
    // the data path hashes: a secret's 4 shares, a 16-share request, a
    // 170-secret restore window, of ≈3 KiB shares and ≈9 KiB chunks — so the
    // batch size where 16 lanes start to pay is on record.
    let singles: Vec<KernelSpeed> = sha256::Backend::available()
        .into_iter()
        .map(|backend| KernelSpeed {
            backend: backend.name(),
            mbps: sha_single_speed(backend, region_bytes, reps),
        })
        .collect();
    for s in &singles {
        println!(
            "sha256/single          {:<9} {}",
            s.backend,
            fmt_speed(s.mbps)
        );
    }
    rows.extend(rows_from("sha256/single", &singles));
    for msg_kib in [3, 9] {
        for count in [4, 16, 170] {
            let kernel = format!("sha256/batch/{count}x{msg_kib}KiB");
            let speeds: Vec<KernelSpeed> = sha256::BatchKernel::available()
                .into_iter()
                .map(|batch_kernel| KernelSpeed {
                    backend: batch_kernel.name(),
                    mbps: sha_batch_speed(batch_kernel, msg_kib * 1024, count, reps),
                })
                .collect();
            for s in &speeds {
                println!("{kernel:<22} {:<9} {}", s.backend, fmt_speed(s.mbps));
            }
            rows.extend(rows_from(&kernel, &speeds));
        }
    }

    // AES-256: bulk CTR under one key, and the CAONT generator mask at the
    // real secret size (a key expansion per 8 KiB secret).
    type AesSpeed = fn(aes::Backend, usize, usize) -> f64;
    let aes_kernels: [(&str, AesSpeed); 2] = [
        ("aes/ctr", aes_ctr_speed),
        ("aes/generator_mask", aes_generator_mask_speed),
    ];
    for (kernel, speed) in aes_kernels {
        let speeds: Vec<KernelSpeed> = aes::Backend::available()
            .into_iter()
            .map(|backend| KernelSpeed {
                backend: backend.name(),
                mbps: speed(backend, region_bytes, reps),
            })
            .collect();
        for s in &speeds {
            println!("{kernel:<18} {:<7} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(kernel, &speeds));
    }

    // CRC-32: one wire frame of shares, and journal-record-sized messages
    // (where the per-call dispatch and the table path for the tail show).
    const FRAME_BYTES: usize = 4 << 20;
    for (kernel, msg_len, region) in [
        ("crc32/4MiB", FRAME_BYTES, FRAME_BYTES),
        ("crc32/76B", 76, region_bytes),
    ] {
        let speeds: Vec<KernelSpeed> = crc32::Backend::available()
            .into_iter()
            .map(|backend| KernelSpeed {
                backend: backend.name(),
                mbps: crc32_speed(backend, msg_len, region, reps),
            })
            .collect();
        for s in &speeds {
            println!("{kernel:<18} {:<9} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(kernel, &speeds));
    }

    let snapshot = BenchKernels {
        schema_version: 1,
        region_bytes,
        reps,
        gf_active_backend: region::Backend::active().name(),
        sha_active_backend: sha256::Backend::active().name(),
        aes_active_backend: aes::Backend::active().name(),
        crc32_active_backend: crc32::Backend::active().name(),
        rows,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serialise snapshot");
    std::fs::write(out_path, &json).expect("write BENCH_kernels.json");
    println!(
        "active backends: gf={} sha={} aes={} crc32={}; wrote {out_path}",
        snapshot.gf_active_backend,
        snapshot.sha_active_backend,
        snapshot.aes_active_backend,
        snapshot.crc32_active_backend
    );
}
