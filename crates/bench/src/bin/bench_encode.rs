//! Perf trajectory for the client-side data path: chunking throughput per
//! algorithm plus chunk+encode throughput through the client's pipeline, with
//! fixed seeds, written to `BENCH_encode.json` so this and future PRs leave a
//! comparable curve (companion to `bench_net`'s `BENCH_net.json`).
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin bench_encode -- [out_path] [size_mb]
//! ```
//!
//! The arguments go in either order: a number is the size, any other
//! argument the path. Defaults: `BENCH_encode.json` in the current
//! directory, 64 MB of seeded data. Also records the pipeline's peak live
//! pooled buffers — the bounded-memory evidence: a pipeline-depth's worth
//! regardless of input size — and the `duplicate_pass` row: the same input
//! through one share-fingerprint memo twice, so the second pass is the cost
//! of a chunk seen before (chunking, `H(X)`, a lookup) beside the first's
//! full encode.

use std::sync::Arc;

use cdstore_bench::encodebench::{chunking_speed, streamed_encode_speed};
use cdstore_bench::json::{write_snapshot, Json};
use cdstore_bench::{random_secrets, SnapshotArgs};
use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_core::ShareMemo;
use cdstore_secretsharing::CaontRs;

/// The same input through one fresh share-fingerprint memo twice (same
/// pipeline as `streamed_encode_mbps`): every secret of the first pass is a
/// miss, every secret of the second a hit.
struct DuplicatePass {
    first_pass_mbps: f64,
    second_pass_mbps: f64,
    second_over_first: f64,
    memo_hits: u64,
    memo_misses: u64,
}

fn median_of<F: FnMut() -> f64>(runs: usize, mut f: F) -> f64 {
    let mut xs: Vec<f64> = (0..runs).map(|_| f()).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let args = SnapshotArgs::from_env("BENCH_encode.json", 64, false);
    let size_mb = args.size as usize;
    let (n, k) = (4usize, 3usize);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);
    let chunk_config = ChunkerConfig::default();

    eprintln!("bench_encode: generating {size_mb} MB of seeded data...");
    let data = random_secrets(size_mb * 1024 * 1024, 8 * 1024, 17).concat();
    let scheme = CaontRs::new(n, k).expect("valid (n, k)");

    eprintln!("bench_encode: chunking throughput (3 runs each, median)...");
    let chunk = |kind| median_of(3, || chunking_speed(kind, chunk_config, &data));
    let fixed = chunk(ChunkerKind::Fixed);
    let rabin = chunk(ChunkerKind::Rabin);
    let fastcdc = chunk(ChunkerKind::FastCdc);
    eprintln!(
        "bench_encode:   fixed {fixed:.0} MB/s, rabin {rabin:.0} MB/s, fastcdc {fastcdc:.0} MB/s"
    );

    eprintln!("bench_encode: streamed chunk+encode at {threads} threads...");
    let mut last_run = None;
    let kind = ChunkerKind::FastCdc;
    let streamed = median_of(3, || {
        let run = streamed_encode_speed(&scheme, kind, chunk_config, &data, threads, None);
        let mbps = run.mbps;
        last_run = Some(run);
        mbps
    });
    let run = last_run.expect("at least one streamed run");

    eprintln!("bench_encode: the same input twice through one memo (3 runs, median ratio)...");
    let mut duplicate_runs: Vec<DuplicatePass> = (0..3)
        .map(|_| {
            let memo = Arc::new(ShareMemo::new(n));
            let pass = || {
                streamed_encode_speed(&scheme, kind, chunk_config, &data, threads, Some(&memo)).mbps
            };
            let (first_pass_mbps, second_pass_mbps) = (pass(), pass());
            DuplicatePass {
                first_pass_mbps,
                second_pass_mbps,
                second_over_first: second_pass_mbps / first_pass_mbps,
                memo_hits: memo.hits(),
                memo_misses: memo.misses(),
            }
        })
        .collect();
    duplicate_runs.sort_by(|a, b| a.second_over_first.total_cmp(&b.second_over_first));
    let duplicate_pass = duplicate_runs.swap_remove(1);
    eprintln!(
        "bench_encode:   first {:.0} MB/s, second {:.0} MB/s",
        duplicate_pass.first_pass_mbps, duplicate_pass.second_pass_mbps
    );

    let fastcdc_over_rabin = fastcdc / rabin;
    let pool = &run.pool;
    let snapshot = Json::obj([
        ("schema_version", 3.into()),
        ("n", n.into()),
        ("k", k.into()),
        ("size_mb", size_mb.into()),
        ("encode_threads", threads.into()),
        // Chunking alone (streaming cutter, reused buffer), MB/s.
        ("chunking_fixed_mbps", fixed.into()),
        ("chunking_rabin_mbps", rabin.into()),
        ("chunking_fastcdc_mbps", fastcdc.into()),
        // FastCDC over Rabin — the point of shipping the second cutter.
        ("fastcdc_over_rabin", fastcdc_over_rabin.into()),
        // Chunk + CAONT-RS encode through the streamed pipeline, and its
        // peak live pooled buffers.
        ("streamed_encode_mbps", streamed.into()),
        ("streamed_peak_live_buffers", pool.peak_outstanding.into()),
        ("streamed_num_secrets", run.num_secrets.into()),
        ("streamed_pool_allocations", pool.allocations.into()),
        ("streamed_pool_reuses", pool.reuses.into()),
        (
            "duplicate_pass",
            Json::obj([
                ("first_pass_mbps", duplicate_pass.first_pass_mbps.into()),
                ("second_pass_mbps", duplicate_pass.second_pass_mbps.into()),
                ("second_over_first", duplicate_pass.second_over_first.into()),
                ("memo_hits", duplicate_pass.memo_hits.into()),
                ("memo_misses", duplicate_pass.memo_misses.into()),
            ]),
        ),
    ]);

    write_snapshot(&args.out_path, &snapshot).expect("write snapshot");
    println!("{snapshot}");
    eprintln!("bench_encode: wrote {}", args.out_path);

    // The acceptance comparison only holds with optimisations on.
    if cfg!(debug_assertions) {
        eprintln!("bench_encode: debug build — skipping the ratio check");
        return;
    }
    assert!(
        fastcdc_over_rabin >= 2.0,
        "FastCDC must chunk at >= 2x Rabin (got {fastcdc_over_rabin:.2}x)"
    );
    assert!(
        duplicate_pass.second_over_first >= 1.5,
        "a memoised pass must encode at >= 1.5x the first (got {:.2}x)",
        duplicate_pass.second_over_first
    );
}
