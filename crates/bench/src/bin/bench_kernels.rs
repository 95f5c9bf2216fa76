//! Perf trajectory for the low-level kernels: GF(2^8) region primitives,
//! SHA-256, the AES-256 mask generator, CRC-32 and the FastCDC gear scan,
//! per ISA backend, and the CAONT-RS encode per secret against per group,
//! written to `BENCH_kernels.json` so this and future PRs leave a
//! comparable curve (companion to `bench_encode`'s `BENCH_encode.json`).
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin bench_kernels -- [out_path] [region_mb | --smoke]
//! ```
//!
//! The arguments go in either order: a number is the region size, any other
//! argument the path. Defaults: `BENCH_kernels.json` in the current
//! directory, 8 MB regions. `--smoke` shrinks the regions and repetitions
//! for CI sanity runs. Every backend reported by the runtime detectors is
//! measured; the `speedup_vs_scalar` column is the acceptance criterion for
//! the SIMD kernels (≥ 4x for `mul_acc` on SIMD-capable hosts).

use cdstore_bench::fmt_speed;
use cdstore_bench::json::{write_snapshot, Json};
use cdstore_bench::kernelbench::{
    aes_ctr_speed, aes_generator_mask_speed, caont_split_speed, crc32_speed, gear_scan_speed,
    gf_kernel_all_backends, sha_batch_speed, sha_single_speed, KernelSpeed,
};
use cdstore_bench::SnapshotArgs;
use cdstore_crypto::{aes, crc32, sha256};
use cdstore_gf::region;

/// One measured (kernel, backend) row per speed: `kernel`, `backend`,
/// `mbps` and `speedup_vs_scalar`, this backend's throughput over the
/// `baseline` backend's for the same kernel (1.0 for the baseline rows
/// themselves; the `caont/split` rows' baseline is their `per_secret` row).
fn rows_from(kernel: &str, speeds: &[KernelSpeed], baseline: &str) -> Vec<Json> {
    let base = speeds
        .iter()
        .find(|s| s.backend == baseline)
        .expect("the baseline backend is always measured")
        .mbps;
    speeds
        .iter()
        .map(|s| {
            Json::obj([
                ("kernel", kernel.into()),
                ("backend", s.backend.into()),
                ("mbps", s.mbps.into()),
                ("speedup_vs_scalar", (s.mbps / base).into()),
            ])
        })
        .collect()
}

fn main() {
    let args = SnapshotArgs::from_env("BENCH_kernels.json", 8, true);
    let (region_bytes, reps) = if args.smoke {
        (256 * 1024, 5)
    } else {
        (args.size as usize * 1024 * 1024, 9)
    };

    let mut rows = Vec::new();
    for kernel in ["xor", "mul", "mul_acc"] {
        let speeds = gf_kernel_all_backends(kernel, region_bytes, reps);
        for s in &speeds {
            println!("gf/{kernel:<8} {:<7} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(&format!("gf/{kernel}"), &speeds, "scalar"));
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
    rows.extend(rows_from("sha256/single", &singles, "scalar"));
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
            rows.extend(rows_from(&kernel, &speeds, "scalar"));
        }
    }

    // The CAONT-RS encode with its share fingerprints, on the production
    // dispatch: secret by secret (no hash batch exceeds a secret's 4 shares)
    // against one group of 16 and of 64 ≈9 KiB secrets, whose three hash
    // passes are batches of 16+ messages that can take the 16 lanes.
    for count in [16, 64] {
        let kernel = format!("caont/split/{count}x9KiB");
        let speeds: Vec<KernelSpeed> = [("per_secret", false), ("group", true)]
            .into_iter()
            .map(|(backend, grouped)| KernelSpeed {
                backend,
                mbps: caont_split_speed(9 * 1024, count, grouped, reps),
            })
            .collect();
        for s in &speeds {
            println!("{kernel:<22} {:<10} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(&kernel, &speeds, "per_secret"));
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
        rows.extend(rows_from(kernel, &speeds, "scalar"));
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
        rows.extend(rows_from(kernel, &speeds, "scalar"));
    }

    // The FastCDC boundary search at the default 2/8/16 KiB chunk sizes
    // (one portable implementation).
    let mbps = gear_scan_speed(region_bytes, reps);
    println!("{:<18} {:<9} {}", "gear/scan", "scalar", fmt_speed(mbps));
    let speeds = [KernelSpeed {
        backend: "scalar",
        mbps,
    }];
    rows.extend(rows_from("gear/scan", &speeds, "scalar"));

    // The backends the production dispatch selected on this host.
    let gf_active = region::Backend::active().name();
    let sha_active = sha256::Backend::active().name();
    let aes_active = aes::Backend::active().name();
    let crc32_active = crc32::Backend::active().name();
    let snapshot = Json::obj([
        ("schema_version", 1.into()),
        ("region_bytes", region_bytes.into()),
        ("reps", reps.into()),
        ("gf_active_backend", gf_active.into()),
        ("sha_active_backend", sha_active.into()),
        ("aes_active_backend", aes_active.into()),
        ("crc32_active_backend", crc32_active.into()),
        ("rows", Json::Arr(rows)),
    ]);
    write_snapshot(&args.out_path, &snapshot).expect("write BENCH_kernels.json");
    println!(
        "active backends: gf={gf_active} sha={sha_active} aes={aes_active} crc32={crc32_active}; wrote {}",
        args.out_path
    );
}
