//! Perf trajectory for the client-side data path: chunking throughput per
//! algorithm plus chunk+encode throughput through the client's pipeline, with
//! fixed seeds, written to `BENCH_encode.json` so this and future PRs leave a
//! comparable curve (companion to `bench_net`'s `BENCH_net.json`).
//!
//! ```text
//! cargo run --release -p cdstore_bench --bin bench_encode [-- out_path] [size_mb]
//! ```
//!
//! Defaults: `BENCH_encode.json` in the current directory, 64 MB of seeded
//! data. Also records the pipeline's peak live pooled buffers — the
//! bounded-memory evidence: a pipeline-depth's worth regardless of input
//! size — and the `duplicate_pass` row: the same input through one
//! share-fingerprint memo twice, so the second pass is the cost of a chunk
//! seen before (chunking, `H(X)`, a lookup) beside the first's full encode.

use std::sync::Arc;

use serde::Serialize;

use cdstore_bench::encodebench::{chunking_speed, streamed_encode_speed};
use cdstore_bench::random_secrets;
use cdstore_chunking::{ChunkerConfig, ChunkerKind};
use cdstore_core::ShareMemo;
use cdstore_secretsharing::CaontRs;

/// The whole snapshot written to `BENCH_encode.json`.
#[derive(Serialize)]
struct BenchEncode {
    schema_version: u32,
    n: usize,
    k: usize,
    size_mb: usize,
    encode_threads: usize,
    /// Chunking alone (streaming cutter, reused buffer), MB/s.
    chunking_fixed_mbps: f64,
    chunking_rabin_mbps: f64,
    chunking_fastcdc_mbps: f64,
    /// FastCDC over Rabin — the point of shipping the second cutter.
    fastcdc_over_rabin: f64,
    /// Chunk + CAONT-RS encode through the streamed pipeline.
    streamed_encode_mbps: f64,
    /// Peak live pooled buffers during the streamed run.
    streamed_peak_live_buffers: usize,
    streamed_num_secrets: u64,
    streamed_pool_allocations: u64,
    streamed_pool_reuses: u64,
    duplicate_pass: DuplicatePass,
}

/// The same input through one fresh share-fingerprint memo twice (same
/// pipeline as `streamed_encode_mbps`): every secret of the first pass is a
/// miss, every secret of the second a hit.
#[derive(Serialize)]
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
    let mut out_path = String::from("BENCH_encode.json");
    let mut size_mb: usize = 64;
    for arg in std::env::args().skip(1) {
        if let Ok(mb) = arg.parse() {
            size_mb = mb;
        } else {
            out_path = arg;
        }
    }
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

    let snapshot = BenchEncode {
        schema_version: 3,
        n,
        k,
        size_mb,
        encode_threads: threads,
        chunking_fixed_mbps: fixed,
        chunking_rabin_mbps: rabin,
        chunking_fastcdc_mbps: fastcdc,
        fastcdc_over_rabin: fastcdc / rabin,
        streamed_encode_mbps: streamed,
        streamed_peak_live_buffers: run.pool.peak_outstanding,
        streamed_num_secrets: run.num_secrets,
        streamed_pool_allocations: run.pool.allocations,
        streamed_pool_reuses: run.pool.reuses,
        duplicate_pass,
    };

    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    std::fs::write(&out_path, format!("{json}\n")).expect("write snapshot");
    println!("{json}");
    eprintln!("bench_encode: wrote {out_path}");

    // The acceptance comparison only holds with optimisations on.
    if cfg!(debug_assertions) {
        eprintln!("bench_encode: debug build — skipping the ratio check");
        return;
    }
    assert!(
        snapshot.fastcdc_over_rabin >= 2.0,
        "FastCDC must chunk at >= 2x Rabin (got {:.2}x)",
        snapshot.fastcdc_over_rabin
    );
    assert!(
        snapshot.duplicate_pass.second_over_first >= 1.5,
        "a memoised pass must encode at >= 1.5x the first (got {:.2}x)",
        snapshot.duplicate_pass.second_over_first
    );
}
