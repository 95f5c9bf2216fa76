//! Perf trajectory for the dedup index: loads seeded pseudo-fingerprints
//! into the memory-resident and disk-backed `KvStore` and writes
//! `BENCH_index.json`, so this and future PRs leave a comparable curve.
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin bench_index -- [out_path] [entries]
//! ```
//!
//! The arguments go in either order: a number is the entry count, any other
//! argument the path. Defaults: `BENCH_index.json` in the current
//! directory, 10⁶ fingerprints. The disk store is exercised at the full
//! requested scale; the memory store is capped (it exists as the RSS
//! baseline, not the headline) and the cap is recorded in the snapshot. All keys are seeded; run-to-run
//! variance comes only from the machine, never the workload.

use cdstore_bench::indexbench::{disk_run, memory_run};
use cdstore_bench::json::{write_snapshot, Json};
use cdstore_bench::SnapshotArgs;

/// Fingerprints beyond which the memory-resident baseline is not grown
/// (the disk store is the scaling story; the memory row is a footprint
/// reference point).
const MEMORY_CAP: u64 = 2_000_000;

fn main() {
    let args = SnapshotArgs::from_env("BENCH_index.json", 1_000_000, false);
    let entries = args.size;
    let seed = 0xcd57_0001;
    let memory_entries = entries.min(MEMORY_CAP);

    eprintln!("bench_index: memory store, {memory_entries} fingerprints...");
    let memory = memory_run(memory_entries, seed);

    let dir = std::env::temp_dir().join(format!("cdstore-bench-index-{}", std::process::id()));
    eprintln!(
        "bench_index: disk store, {entries} fingerprints under {}...",
        dir.display()
    );
    let disk = disk_run(entries, seed, &dir);
    std::fs::remove_dir_all(&dir).ok();

    // Normalise the footprint comparison to per-entry cost before taking
    // the ratio, since the two rows may have loaded different counts.
    let memory_per_entry = memory.resident_bytes as f64 / memory_entries.max(1) as f64;
    let disk_per_entry = disk.resident_bytes as f64 / entries.max(1) as f64;
    let snapshot = Json::obj([
        ("schema_version", 1.into()),
        // Fingerprints requested on the command line, and the entries the
        // memory row actually loaded (`min(entries, cap)`).
        ("entries", entries.into()),
        ("memory_entries", memory_entries.into()),
        ("seed", seed.into()),
        ("memory", memory.to_json()),
        ("disk", disk.to_json()),
        // disk resident bytes ÷ memory resident bytes, scaled to the same
        // entry count — the headline "index outgrows RAM" ratio.
        (
            "disk_to_memory_resident_ratio",
            (disk_per_entry / memory_per_entry.max(f64::MIN_POSITIVE)).into(),
        ),
    ]);

    write_snapshot(&args.out_path, &snapshot).expect("write snapshot");
    eprintln!("bench_index: wrote {}", args.out_path);
    println!("{snapshot}");
}
