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
//! measured, the backends of one row taking turns pass by pass: each
//! reports the median MB/s of its own passes, and its `speedup_vs_scalar`
//! is the median of its per-round ratios to the baseline's pass of the same
//! round. That column is the acceptance criterion for the SIMD kernels
//! (≥ 4x for `mul_acc` on SIMD-capable hosts).

use cdstore_bench::fmt_speed;
use cdstore_bench::json::{write_snapshot, Json};
use cdstore_bench::kernelbench::{
    aes_ctr_speeds, aes_generator_mask_speeds, aes_key_schedule_speeds, caont_share_lengths,
    caont_split_speeds, crc32_speeds, fastcdc_lengths, gear_scan_speeds, gf_kernel_speeds,
    mixed_lengths, sha_batch_speeds, sha_single_speeds, KernelSpeed,
};
use cdstore_bench::SnapshotArgs;
use cdstore_crypto::{aes, crc32, sha256};
use cdstore_gf::region;

/// One measured (kernel, backend) row per speed: `kernel`, `backend`,
/// `mbps` and `speedup_vs_scalar`, this backend's throughput over the
/// `baseline` backend's for the same kernel as the median of per-round
/// ratios (1.0 for the baseline rows themselves; the `caont/split` rows'
/// baseline is their `per_secret` row). Each backend of `also` that was
/// measured adds a column `speedup_vs_<backend>` of the same kind.
fn rows_from(kernel: &str, speeds: &[KernelSpeed], baseline: &str, also: &[&str]) -> Vec<Json> {
    let find = |name: &str| speeds.iter().find(|s| s.backend == name);
    let base = find(baseline).expect("the baseline backend is always measured");
    let others: Vec<_> = also.iter().filter_map(|name| find(name)).collect();
    speeds
        .iter()
        .map(|s| {
            let mut row = vec![
                ("kernel".to_string(), kernel.into()),
                ("backend".to_string(), s.backend.into()),
                ("mbps".to_string(), s.mbps.into()),
                ("speedup_vs_scalar".to_string(), s.ratio_to(base).into()),
            ];
            for other in &others {
                let column = format!("speedup_vs_{}", other.backend.replace('-', "_"));
                row.push((column, s.ratio_to(other).into()));
            }
            Json::Obj(row)
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
        let speeds = gf_kernel_speeds(kernel, region_bytes, reps);
        for s in &speeds {
            println!("gf/{kernel:<8} {:<7} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(&format!("gf/{kernel}"), &speeds, "scalar", &[]));
    }

    // SHA-256: one long message (the streaming hasher), then batches per
    // batch kernel (single-stream backends and lane kernels) at the sizes
    // the data path hashes: a secret's 4 shares, a 16-share request, a
    // 170-secret restore window, of ≈3 KiB shares and ≈9 KiB chunks — so the
    // batch size where 16 lanes start to pay is on record.
    let singles = sha_single_speeds(region_bytes, reps);
    for s in &singles {
        println!(
            "sha256/single          {:<9} {}",
            s.backend,
            fmt_speed(s.mbps)
        );
    }
    rows.extend(rows_from("sha256/single", &singles, "scalar", &[]));
    let mut batch_rows = |kernel: &str, prefix: &[u8], lens: &[usize], group: usize| {
        let speeds = sha_batch_speeds(prefix, lens, group, reps);
        for s in &speeds {
            println!("{kernel:<23} {:<9} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(kernel, &speeds, "scalar", &["sha-ni"]));
    };
    for msg_kib in [3, 9] {
        for count in [4, 16, 170] {
            let lens = mixed_lengths(msg_kib * 1024, count);
            batch_rows(
                &format!("sha256/batch/{count}x{msg_kib}KiB"),
                &[],
                &lens,
                count,
            );
        }
    }
    // Then the data path's own batches: FastCDC-cut secrets in encode
    // groups of 64, and their (4,3) CAONT-RS shares 256 at a time, behind a
    // 24-byte prefix (a server fingerprint's `len ‖ tag`). Batches of exactly
    // 16 shares never refill a lane, so their tail hand-off shows.
    let secret_lens = fastcdc_lengths(region_bytes);
    let prefix = [0x24u8; 24];
    batch_rows("sha256/batch/64xfastcdc", &prefix, &secret_lens, 64);
    let share_lens = caont_share_lengths(&secret_lens);
    batch_rows("sha256/batch/256xshare", &prefix, &share_lens, 256);
    batch_rows("sha256/batch/16xshare", &prefix, &share_lens, 16);

    // The CAONT-RS encode with its share fingerprints, on the production
    // dispatch: secret by secret (no hash batch exceeds a secret's 4 shares)
    // against one group of 16 and of 64 ≈9 KiB secrets, whose three hash
    // passes are batches of 16+ messages that can take the 16 lanes.
    for count in [16, 64] {
        let kernel = format!("caont/split/{count}x9KiB");
        let speeds = caont_split_speeds(9 * 1024, count, reps);
        for s in &speeds {
            println!("{kernel:<22} {:<10} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(&kernel, &speeds, "per_secret", &[]));
    }

    // AES-256: bulk CTR under one key, the CAONT generator mask at the
    // real secret size (a key expansion per 8 KiB secret) over the region
    // and over one group's 64 secrets (cache-resident, as the encode group
    // and the restore's group decode mask them), and the key expansions
    // alone.
    type AesSpeeds = fn(usize, usize) -> Vec<KernelSpeed>;
    const GROUP_BYTES: usize = 64 * 8 * 1024;
    let aes_kernels: [(&str, AesSpeeds, usize); 4] = [
        ("aes/ctr", aes_ctr_speeds, region_bytes),
        (
            "aes/generator_mask",
            aes_generator_mask_speeds,
            region_bytes,
        ),
        (
            "aes/generator_mask/64x8KiB",
            aes_generator_mask_speeds,
            GROUP_BYTES,
        ),
        ("aes/key_schedule", aes_key_schedule_speeds, region_bytes),
    ];
    for (kernel, speeds, bytes) in aes_kernels {
        let speeds = speeds(bytes, reps);
        for s in &speeds {
            println!("{kernel:<26} {:<8} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(kernel, &speeds, "scalar", &["aes-ni"]));
    }

    // CRC-32: one wire frame of shares, and journal-record-sized messages
    // (where the per-call dispatch and the table path for the tail show).
    const FRAME_BYTES: usize = 4 << 20;
    for (kernel, msg_len, region) in [
        ("crc32/4MiB", FRAME_BYTES, FRAME_BYTES),
        ("crc32/76B", 76, region_bytes),
    ] {
        let speeds = crc32_speeds(msg_len, region, reps);
        for s in &speeds {
            println!("{kernel:<18} {:<9} {}", s.backend, fmt_speed(s.mbps));
        }
        rows.extend(rows_from(kernel, &speeds, "scalar", &[]));
    }

    // The FastCDC boundary search at the default 2/8/16 KiB chunk sizes
    // (one portable implementation).
    let speeds = gear_scan_speeds(region_bytes, reps);
    println!(
        "{:<18} {:<9} {}",
        "gear/scan",
        "scalar",
        fmt_speed(speeds[0].mbps)
    );
    rows.extend(rows_from("gear/scan", &speeds, "scalar", &[]));

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
